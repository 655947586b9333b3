import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ctxcert import bbmodel
from ctxcert.bbmodel import (
    BBPreparation,
    PureOnticState,
    bb_indicator,
    bb_meas_noncontextuality_property,
    bb_prep_contextuality_demo,
    bb_sample,
    bb_simulate,
)
from ctxcert.ontomodel import IndicatorSet, is_outcome_deterministic
from ctxcert.operational import (
    MixtureDecl,
    hexagon_state_vectors,
    hexagon_theory,
)
from ctxcert.qmath import Effect, Povm, born_probability, identity, pure_density


@pytest.fixture(scope="module")
def vectors():
    return hexagon_state_vectors()


@pytest.fixture(scope="module")
def antipodal_pvm(vectors):
    return Povm(
        (Effect(pure_density(vectors["a"]).matrix), Effect(pure_density(vectors["A"]).matrix))
    )


class TestPureOnticState:
    def test_canonical_phase_identifies_rays(self, vectors):
        base = PureOnticState(vectors["b"])
        rotated = PureOnticState(np.exp(1.3j) * vectors["b"])
        assert base.same_ray(rotated)
        assert np.abs(base.psi - rotated.psi).max() <= 1e-12

    def test_leading_zero_component_is_skipped(self):
        state = PureOnticState(np.array([0.0, -1.0]))
        assert state.psi[1] == 1.0

    def test_unnormalized_vectors_rejected(self):
        with pytest.raises(ValueError):
            PureOnticState(np.array([1.0, 1.0]))


class TestMixtureWeights:
    def test_one_rule_refuses_a_slightly_negative_weight(self, vectors):
        eps = Fraction(1, 10**12)
        with pytest.raises(ValueError, match="nonnegative"):
            MixtureDecl("prep", "m", ((-eps, "a"), (1 + eps, "a")))
        with pytest.raises(ValueError, match="nonnegative"):
            BBPreparation(tuple((float(w), PureOnticState(vectors["a"])) for w in (-eps, 1 + eps)))


class TestIndicator:
    def test_eigenstate_is_certain(self, vectors, antipodal_pvm):
        probs = bb_indicator(antipodal_pvm, PureOnticState(vectors["a"]))
        assert probs == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_neighboring_state_splits_one_to_three(self, vectors, antipodal_pvm):
        probs = bb_indicator(antipodal_pvm, PureOnticState(vectors["b"]))
        assert probs == pytest.approx([0.25, 0.75], abs=1e-15)

    def test_coin_povm_is_flat_for_every_ray(self, vectors):
        coin = Povm((Effect(identity(2) / 2), Effect(identity(2) / 2)))
        for name in "aAbBcC":
            probs = bb_indicator(coin, PureOnticState(vectors[name]))
            assert probs == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_matches_born_rule_exactly(self, vectors):
        theory = hexagon_theory()
        for meas in theory.measurements.values():
            for name in "aAbBcC":
                state = PureOnticState(vectors[name])
                expected = [
                    born_probability(state.density(), e) for e in meas.povm.effects
                ]
                assert bb_indicator(meas.povm, state) == pytest.approx(expected, abs=0)

    def test_off_eigenstate_grid_fails_outcome_determinism(self, vectors, antipodal_pvm):
        grid = [PureOnticState(vectors[name]) for name in "aAbBcC"]
        columns = np.column_stack([bb_indicator(antipodal_pvm, s) for s in grid])
        assert not is_outcome_deterministic(IndicatorSet(columns))

    def test_dimension_checked(self):
        qutrit = Povm((Effect(identity(3)),))
        with pytest.raises(ValueError):
            bb_indicator(qutrit, PureOnticState(np.array([1.0, 0.0])))


class TestSampling:
    def test_pure_preparation_yields_copies(self, vectors):
        prep = BBPreparation(((1.0, PureOnticState(vectors["c"])),))
        draws = bb_sample(prep, 25, seed=1)
        assert draws.shape == (25,)
        assert (draws == 0).all()

    def test_balanced_mixture_frequency_within_three_sigma(self, vectors):
        prep = BBPreparation(
            ((0.5, PureOnticState(vectors["a"])), (0.5, PureOnticState(vectors["A"])))
        )
        n = 100_000
        draws = bb_sample(prep, n, seed=99)
        first = int(np.count_nonzero(draws == 0))
        sigma = math.sqrt(0.25 / n)
        assert abs(first / n - 0.5) <= 3 * sigma

    def test_same_seed_reproduces_the_sequence(self, vectors):
        prep = BBPreparation(
            ((0.3, PureOnticState(vectors["a"])), (0.7, PureOnticState(vectors["b"])))
        )
        first = bb_sample(prep, 500, seed=42)
        second = bb_sample(prep, 500, seed=42)
        assert np.array_equal(first, second)

    def test_sample_count_validated(self, vectors):
        prep = BBPreparation(((1.0, PureOnticState(vectors["a"])),))
        with pytest.raises(ValueError):
            bb_sample(prep, 0, seed=1)


class TestSimulation:
    def test_eigenstate_measurement_is_exact(self, vectors, antipodal_pvm):
        prep = BBPreparation(((1.0, PureOnticState(vectors["a"])),))
        report = bb_simulate(prep, antipodal_pvm, 10_000, seed=5)
        assert report.frequencies == (1.0, 0.0)
        assert report.max_abs_dev == 0.0

    def test_mixed_preparation_matches_born_within_three_sigma(self, vectors):
        prep = BBPreparation(
            ((0.5, PureOnticState(vectors["a"])), (0.5, PureOnticState(vectors["A"])))
        )
        povm = Povm(
            (
                Effect(pure_density(vectors["b"]).matrix),
                Effect(pure_density(vectors["B"]).matrix),
            )
        )
        report = bb_simulate(prep, povm, 100_000, seed=11)
        assert report.born == pytest.approx((0.5, 0.5), abs=1e-12)
        assert report.within_sigma(3.0)

    def test_tilted_state_frequency(self, vectors, antipodal_pvm):
        prep = BBPreparation(((1.0, PureOnticState(vectors["b"])),))
        report = bb_simulate(prep, antipodal_pvm, 100_000, seed=13)
        sigma = math.sqrt(0.25 * 0.75 / report.n)
        assert abs(report.frequencies[0] - 0.25) <= 3 * sigma

    def test_seed_determinism_of_reports(self, vectors, antipodal_pvm):
        prep = BBPreparation(
            ((0.5, PureOnticState(vectors["a"])), (0.5, PureOnticState(vectors["A"])))
        )
        a = bb_simulate(prep, antipodal_pvm, 2_000, seed=21)
        b = bb_simulate(prep, antipodal_pvm, 2_000, seed=21)
        assert a.to_json() == b.to_json()

    def test_four_sigma_bound_holds_for_most_seeds(self, vectors):
        prep = BBPreparation(
            ((0.5, PureOnticState(vectors["a"])), (0.5, PureOnticState(vectors["A"])))
        )
        povm = Povm(
            (
                Effect(pure_density(vectors["b"]).matrix),
                Effect(pure_density(vectors["B"]).matrix),
            )
        )
        outcomes = [
            bb_simulate(prep, povm, 100_000, seed=seed).within_sigma(4.0)
            for seed in range(30)
        ]
        assert sum(outcomes) / len(outcomes) >= 0.99

    def test_counts_match_the_outcome_table_reference(self, vectors, antipodal_pvm):
        """The per-component lookup counts what an outcomes x samples table of
        cumulative response probabilities counts, on the same stream."""
        trine = Povm(tuple(Effect(2 / 3 * pure_density(vectors[x]).matrix) for x in "abc"))
        weighted = (((0.5, "a"), (0.5, "A")), ((0.2, "a"), (0.3, "b"), (0.5, "c")))
        n = 1000
        for mixture in weighted:
            prep = BBPreparation(tuple((w, PureOnticState(vectors[x])) for w, x in mixture))
            for povm in (antipodal_pvm, trine):
                for seed in range(3):
                    rng = bbmodel._rng(seed)
                    comps = bbmodel._component_indices(prep, n, rng)
                    u = rng.random(n)
                    table = np.column_stack(
                        [np.cumsum(bb_indicator(povm, s)) for _, s in prep.mixture]
                    )
                    outcomes = np.minimum(
                        (u[None, :] >= table[:, comps]).sum(axis=0), povm.outcome_count - 1
                    )
                    expected = np.bincount(outcomes, minlength=povm.outcome_count) / n
                    report = bb_simulate(prep, povm, n, seed)
                    assert report.frequencies == tuple(float(f) for f in expected)

    def test_memory_does_not_grow_with_the_outcome_count(self, vectors, antipodal_pvm):
        """No outcomes x samples table: a 100-outcome draw peaks below twice
        the traced memory of a two-outcome one."""
        prep = BBPreparation(
            ((0.5, PureOnticState(vectors["a"])), (0.5, PureOnticState(vectors["b"])))
        )
        hundred = Povm(tuple(Effect(identity(2) / 100) for _ in range(100)))
        bb_simulate(prep, hundred, 1, seed=3)  # keeps first-call allocations out of the peaks

        def peak(povm):
            tracemalloc.start()
            try:
                bb_simulate(prep, povm, 20_000, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(hundred) < 2 * peak(antipodal_pvm)


class TestStructuralDemonstrations:
    def test_preparation_contextuality(self):
        report = bb_prep_contextuality_demo()
        assert report.operationally_equivalent
        assert report.shared_rays == 0
        assert report.total_variation == pytest.approx(1.0, abs=0)
        assert report.preparation_contextual

    def test_measurement_noncontextuality_over_random_decompositions(self):
        report = bb_meas_noncontextuality_property(trials=100, seed=3)
        assert report.trials == 100
        assert report.max_abs_dev <= 1e-12
        assert report.holds

    def test_declared_mixture_context_equals_direct_coin(self, vectors):
        theory = hexagon_theory()
        mixed = theory.measurements["M"].povm
        coin = theory.measurements["Mtrivial"].povm
        for name in "aAbBcC":
            state = PureOnticState(vectors[name])
            assert bb_indicator(mixed, state) == pytest.approx(
                bb_indicator(coin, state), abs=1e-12
            )
