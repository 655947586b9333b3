import hashlib
import json
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


class TestJson:
    def test_preparation_round_trip_gives_back_rays_and_weights(self, vectors):
        weights = (0.125, 0.25, 0.375, 0.0625, 0.125, 0.0625)
        prep = BBPreparation(tuple((w, PureOnticState(vectors[x])) for w, x in zip(weights, "aAbBcC")))
        again = BBPreparation.from_json(json.loads(json.dumps(prep.to_json())))
        assert [w for w, _ in again.mixture] == [w for w, _ in prep.mixture]
        assert all(s.same_ray(t) for (_, s), (_, t) in zip(again.mixture, prep.mixture))


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
        for povm in theory.measurements.values():
            for name in "aAbBcC":
                state = PureOnticState(vectors[name])
                expected = [born_probability(state.rho, e) for e in povm.effects]
                assert bb_indicator(povm, state) == pytest.approx(expected, abs=0)

    def test_off_eigenstate_grid_fails_outcome_determinism(self, vectors, antipodal_pvm):
        grid = [PureOnticState(vectors[name]) for name in "aAbBcC"]
        columns = np.column_stack([bb_indicator(antipodal_pvm, s) for s in grid])
        assert not is_outcome_deterministic(IndicatorSet(columns))

    def test_dimension_checked(self):
        qutrit = Povm((Effect(identity(3)),))
        with pytest.raises(ValueError):
            bb_indicator(qutrit, PureOnticState(np.array([1.0, 0.0])))


def _traced_peak(call) -> int:
    """The peak traced memory of ``call()``, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _reference_frequencies(prep, povm, n, seed) -> tuple[float, ...]:
    """The frequencies ``bb_simulate`` must report, from one generator's stream drawn
    whole: n component uniforms, then n outcome uniforms compared against an
    outcomes x samples table of cumulative response probabilities."""
    rng = bbmodel._rng(seed)
    cumulative = np.cumsum([w for w, _ in prep.mixture])
    comps = np.minimum((rng.random(n)[:, None] >= cumulative).sum(axis=1), len(prep.mixture) - 1)
    u = rng.random(n)
    table = np.column_stack([np.cumsum(bb_indicator(povm, s)) for _, s in prep.mixture])
    outcomes = np.minimum((u[None, :] >= table[:, comps]).sum(axis=0), povm.outcome_count - 1)
    return tuple(float(f) for f in np.bincount(outcomes, minlength=povm.outcome_count) / n)


class TestSampling:
    """The component draw of ``bb_simulate``: against the a/A measurement the
    outcome of each component is certain, so outcome frequencies are
    component frequencies."""

    def test_balanced_mixture_frequency_within_three_sigma(self, vectors, antipodal_pvm):
        prep = BBPreparation(
            ((0.5, PureOnticState(vectors["a"])), (0.5, PureOnticState(vectors["A"])))
        )
        n = 100_000
        report = bb_simulate(prep, antipodal_pvm, n, seed=99)
        sigma = math.sqrt(0.25 / n)
        assert abs(report.frequencies[0] - 0.5) <= 3 * sigma

    def test_sample_count_validated(self, vectors, antipodal_pvm):
        prep = BBPreparation(((1.0, PureOnticState(vectors["a"])),))
        for n in (0, bbmodel.MAX_SAMPLES + 1):
            with pytest.raises(ValueError, match="sample"):
                bb_simulate(prep, antipodal_pvm, n, seed=1)


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
        """The tail counts give what an outcomes x samples table of cumulative
        response probabilities counts, on the same stream: also with a
        zero-weight component, a zero effect, a weight cumsum of 1 - 2**-53,
        one outcome, and more outcome bounds than the switch to sorting."""
        trine = Povm(tuple(Effect(2 / 3 * pure_density(vectors[x]).matrix) for x in "abc"))
        with_zero = Povm(
            (antipodal_pvm.effects[0], Effect(np.zeros((2, 2))), antipodal_pvm.effects[1])
        )
        angles = np.linspace(0.0, np.pi, 10, endpoint=False)
        twenty = Povm(tuple(
            Effect(pure_density(v).matrix / 10)
            for theta in angles
            for v in ([np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)])
        ))
        assert twenty.outcome_count - 1 > bbmodel._SORT_BOUNDS >= trine.outcome_count - 1
        weighted = (
            ((1.0, "b"),),
            ((0.5, "a"), (0.5, "A")),
            ((0.2, "a"), (0.3, "b"), (0.5, "c")),
            ((0.4, "a"), (0.0, "B"), (0.6, "c")),
            ((0.7, "A"), (0.2, "c"), (0.1, "B")),
        )
        for mixture in weighted:
            prep = BBPreparation(tuple((w, PureOnticState(vectors[x])) for w, x in mixture))
            for povm in (antipodal_pvm, trine, with_zero, twenty, Povm((Effect(identity(2)),))):
                for seed in range(3):
                    report = bb_simulate(prep, povm, 1000, seed)
                    assert report.frequencies == _reference_frequencies(prep, povm, 1000, seed)

    def test_counts_match_the_reference_at_every_slice_edge(self, vectors, antipodal_pvm):
        """The outcome part of the stream is reached by skipping n draws and read in
        slices: every remainder of n by Philox's four draws per counter step, n at and on
        either side of one slice, and n just past two, for one, two and three components
        against two, three and twenty outcomes (the sorted branch)."""
        trine = Povm(tuple(Effect(2 / 3 * pure_density(vectors[x]).matrix) for x in "abc"))
        twenty = Povm(tuple(
            Effect(pure_density(v).matrix / 10)
            for theta in np.linspace(0.0, np.pi, 10, endpoint=False)
            for v in ([np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)])
        ))
        assert twenty.outcome_count - 1 > bbmodel._SORT_BOUNDS
        slice_ = bbmodel._SLICE
        mixtures = (((1.0, "b"),), ((0.3, "a"), (0.7, "C")), ((0.7, "A"), (0.2, "c"), (0.1, "B")))
        for mixture in mixtures:
            prep = BBPreparation(tuple((w, PureOnticState(vectors[x])) for w, x in mixture))
            for povm in (antipodal_pvm, trine, twenty):
                for n in (1, 2, 3, slice_ - 1, slice_, slice_ + 1, 2 * slice_ + 3):
                    report = bb_simulate(prep, povm, n, seed=n)
                    assert report.frequencies == _reference_frequencies(prep, povm, n, seed=n)

    def test_memory_does_not_grow_with_the_outcome_count(self, vectors, antipodal_pvm):
        """No outcomes x samples table: a 100-outcome draw peaks below twice
        the traced memory of a two-outcome one."""
        prep = BBPreparation(
            ((0.5, PureOnticState(vectors["a"])), (0.5, PureOnticState(vectors["b"])))
        )
        hundred = Povm(tuple(Effect(identity(2) / 100) for _ in range(100)))
        bb_simulate(prep, hundred, 1, seed=3)  # keeps first-call allocations out of the peaks

        def peak(povm):
            return _traced_peak(lambda: bb_simulate(prep, povm, 20_000, seed=3))

        assert peak(hundred) < 2 * peak(antipodal_pvm)

    def test_memory_does_not_grow_with_the_sample_count(self, vectors, antipodal_pvm):
        """The stream is read in fixed slices: a million samples peak less than
        1 MB above ten thousand, where one million-sample block is 8 MB."""
        prep = BBPreparation(
            ((0.5, PureOnticState(vectors["a"])), (0.5, PureOnticState(vectors["b"])))
        )
        bb_simulate(prep, antipodal_pvm, 1, seed=3)  # keeps first-call allocations out of the peaks

        def peak(n):
            return _traced_peak(lambda: bb_simulate(prep, antipodal_pvm, n, seed=3))

        assert peak(10**6) < peak(10**4) + 2**20

    def test_memory_does_not_grow_with_the_component_count(self, vectors, antipodal_pvm):
        """One component mask at a time: six components peak less than one
        n-byte mask above the traced memory of two."""
        two, six = (
            BBPreparation(tuple((1 / len(names), PureOnticState(vectors[x])) for x in names))
            for names in ("aA", "aAbBcC")
        )
        n = 200_000
        bb_simulate(six, antipodal_pvm, 1, seed=3)  # keeps first-call allocations out of the peaks

        def peak(prep):
            return _traced_peak(lambda: bb_simulate(prep, antipodal_pvm, n, seed=3))

        assert peak(six) < peak(two) + n


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

    @pytest.mark.parametrize("trials", [0, -1, bbmodel.MAX_TRIALS + 1])
    def test_measurement_noncontextuality_trial_count_validated(self, monkeypatch, trials):
        def unreachable(*args):
            raise RuntimeError("the generator was built")

        monkeypatch.setattr(bbmodel, "_rng", unreachable)
        with pytest.raises(ValueError, match=f"at least one trial and at most {bbmodel.MAX_TRIALS}"):
            bb_meas_noncontextuality_property(trials=trials, seed=3)

    def test_declared_mixture_context_equals_direct_coin(self, vectors):
        theory = hexagon_theory()
        mixed = theory.measurements["M"]
        coin = theory.measurements["Mtrivial"]
        for name in "aAbBcC":
            state = PureOnticState(vectors[name])
            assert bb_indicator(mixed, state) == pytest.approx(
                bb_indicator(coin, state), abs=1e-12
            )


def _digest(reports) -> str:
    digest = hashlib.sha256()
    for report in reports:
        digest.update(json.dumps(report.to_json(), indent=2).encode())
    return digest.hexdigest()


class TestPinnedOutputs:
    """Report bytes over many seeds and shapes, pinned by sha256, so a
    rewrite of either driver must keep every bit of its output."""

    def test_meas_noncontextuality_reports(self):
        reports = (bb_meas_noncontextuality_property(100, seed) for seed in range(30))
        assert _digest(reports) == (
            "b4ac0ac38dc552a009f616fc39e039dae4bcc304eabc12cc7171f2f5a76d1bce"
        )

    def test_simulation_reports(self, vectors):
        """One, two and three components (0.7/0.2/0.1 has a float cumsum of
        1 - 2**-53) against two-, three- and 100-outcome POVMs."""
        mixtures = [
            ((1.0, "b"),),
            ((0.3, "a"), (0.7, "C")),
            ((0.1, "a"), (0.2, "b"), (0.7, "C")),
            ((0.7, "A"), (0.2, "c"), (0.1, "B")),
        ]
        angles = np.linspace(0.0, np.pi, 50, endpoint=False)
        hundred = [
            Effect(pure_density(v).matrix / 50)
            for theta in angles
            for v in ([np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)])
        ]
        povms = [
            Povm(tuple(Effect(pure_density(vectors[x]).matrix) for x in "bB")),
            Povm(tuple(Effect(2 / 3 * pure_density(vectors[x]).matrix) for x in "abc")),
            Povm(tuple(hundred)),
        ]
        preps = [
            BBPreparation(tuple((w, PureOnticState(vectors[x])) for w, x in mixture))
            for mixture in mixtures
        ]
        reports = (
            bb_simulate(prep, povm, 100_001, seed)
            for prep in preps
            for povm in povms
            for seed in (0, 1, 2)
        )
        assert _digest(reports) == (
            "63e8283ba5c0a7aedccc25dd365d698be253c4af6960a2bc2ae9d9ad641a752f"
        )
