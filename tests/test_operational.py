import itertools
from fractions import Fraction

import numpy as np
import pytest

from ctxcert.operational import (
    Measurement,
    MixtureDecl,
    OperationalTheory,
    coarse_grain_povm,
    hexagon_theory,
    meas_equivalent,
    mix_channels,
    mix_measurements,
    mix_preparations,
    prep_equivalent,
    transf_equivalent,
    y_projection_channel,
)
from ctxcert.qmath import (
    Effect,
    Povm,
    bloch_from_density,
    channels_equal,
    identity,
)


@pytest.fixture(scope="module")
def theory():
    return hexagon_theory()


class TestPrepEquivalence:
    def test_two_completely_mixed_ensembles_are_equivalent(self, theory):
        assert prep_equivalent(theory.preparations["aA"], theory.preparations["bB"])

    def test_reflexive(self, theory):
        assert prep_equivalent(theory.preparations["a"], theory.preparations["a"])

    def test_distinct_pure_states_differ(self, theory):
        assert not prep_equivalent(theory.preparations["a"], theory.preparations["b"])

    def test_equivalence_relation_on_the_instance(self, theory):
        labels = sorted(theory.preparations)
        equiv = {
            (x, y): prep_equivalent(theory.preparations[x], theory.preparations[y])
            for x in labels
            for y in labels
        }
        for x in labels:
            assert equiv[(x, x)]
        for x, y in itertools.product(labels, labels):
            assert equiv[(x, y)] == equiv[(y, x)]
        for x, y, z in itertools.product(labels, labels, labels):
            if equiv[(x, y)] and equiv[(y, z)]:
                assert equiv[(x, z)]


class TestMeasEquivalence:
    def test_coin_flip_measurement_matches_its_own_reversal_under_swap(self, theory):
        coin = theory.measurements["Mtrivial"]
        reversed_coin = Measurement(
            "rev", Povm(tuple(reversed(coin.povm.effects)))
        )
        pi = meas_equivalent(coin, reversed_coin)
        assert pi is not None
        # The outcome swap is itself a valid pairing for these two lists.
        swap = (1, 0)
        assert all(
            np.abs(coin.povm[k].matrix - reversed_coin.povm[swap[k]].matrix).max() < 1e-12
            for k in range(2)
        )

    def test_identity_pairing_for_a_measurement_with_itself(self, theory):
        assert meas_equivalent(theory.measurements["Ma"], theory.measurements["Ma"]) == (0, 1)

    def test_distinct_pvms_do_not_match(self, theory):
        assert meas_equivalent(theory.measurements["Ma"], theory.measurements["Mb"]) is None

    def test_outcome_count_mismatch_is_absent_not_an_error(self, theory):
        single = Measurement("unit", Povm((Effect(identity(2)),)))
        assert meas_equivalent(theory.measurements["Ma"], single) is None

    def test_permutation_matching_is_symmetric(self, theory):
        rng = np.random.default_rng(31)
        base = theory.measurements["Ma"]
        for _ in range(10):
            order = tuple(rng.permutation(2))
            other = Measurement("perm", Povm(tuple(base.povm[k] for k in order)))
            pi = meas_equivalent(base, other)
            assert pi is not None
            inverse = tuple(pi.index(k) for k in range(len(pi)))
            assert meas_equivalent(other, base) is not None
            assert all(
                np.abs(other.povm[k].matrix - base.povm[inverse[k]].matrix).max() < 1e-12
                for k in range(len(pi))
            )

    def test_identity_only_mode(self, theory):
        coin = theory.measurements["Mtrivial"]
        shifted = Measurement("rev", Povm(tuple(reversed(coin.povm.effects))))
        assert meas_equivalent(coin, shifted, allow_permutation=False) == (0, 1)
        ma = theory.measurements["Ma"]
        swapped = Measurement("sw", Povm(tuple(reversed(ma.povm.effects))))
        assert meas_equivalent(ma, swapped, allow_permutation=False) is None
        assert meas_equivalent(ma, swapped, allow_permutation=True) == (1, 0)

    def test_large_outcome_counts_rejected(self):
        effects = tuple(Effect(identity(2) / 9) for _ in range(9))
        many = Measurement("many", Povm(effects))
        with pytest.raises(ValueError):
            meas_equivalent(many, many)


class TestTransfEquivalence:
    def test_two_declared_decompositions_agree(self, theory):
        k1 = mix_channels(
            [(0.5, theory.transformations["T0"]), (0.5, theory.transformations["T180"])], "k1"
        )
        k5 = mix_channels(
            [
                (1 / 3, theory.transformations["T60"]),
                (1 / 3, theory.transformations["T180"]),
                (1 / 3, theory.transformations["T300"]),
            ],
            "k5",
        )
        assert transf_equivalent(k1, k5)

    def test_reflexive(self, theory):
        assert transf_equivalent(theory.transformations["T0"], theory.transformations["T0"])

    def test_distinct_rotations_differ(self, theory):
        assert not transf_equivalent(
            theory.transformations["T60"], theory.transformations["T120"]
        )


class TestMixtures:
    def test_balanced_antipodal_mixture_is_completely_mixed(self, theory):
        mixed = mix_preparations(
            [(0.5, theory.preparations["a"]), (0.5, theory.preparations["A"])], "m"
        )
        assert np.abs(mixed.rho.matrix - identity(2) / 2).max() < 1e-15

    def test_balanced_trine_mixture_is_completely_mixed(self, theory):
        mixed = mix_preparations(
            [(1 / 3, theory.preparations[l]) for l in ("a", "b", "c")], "m"
        )
        assert np.abs(mixed.rho.matrix - identity(2) / 2).max() < 1e-15

    def test_singleton_mixture_is_identity_operation(self, theory):
        mixed = mix_preparations([(1.0, theory.preparations["b"])], "m")
        assert np.abs(mixed.rho.matrix - theory.preparations["b"].rho.matrix).max() == 0.0

    def test_component_labels_recorded_as_context(self, theory):
        mixed = mix_preparations(
            [(0.5, theory.preparations["a"]), (0.5, theory.preparations["A"])], "m"
        )
        assert "a" in mixed.context_note and "A" in mixed.context_note

    def test_bad_weights_rejected(self, theory):
        with pytest.raises(ValueError):
            mix_preparations(
                [(0.7, theory.preparations["a"]), (0.7, theory.preparations["A"])], "m"
            )
        with pytest.raises(ValueError):
            mix_preparations(
                [(-0.5, theory.preparations["a"]), (1.5, theory.preparations["A"])], "m"
            )

    def test_uniform_pvm_mixture_gives_coin_povm(self, theory):
        mixed = mix_measurements(
            [(1 / 3, theory.measurements[l]) for l in ("Ma", "Mb", "Mc")], "m"
        )
        for effect in mixed.povm.effects:
            assert np.abs(effect.matrix - identity(2) / 2).max() < 1e-15

    def test_singleton_measurement_mixture_is_identity_operation(self, theory):
        single = mix_measurements([(1.0, theory.measurements["Ma"])], "m")
        for k in range(2):
            assert (
                np.abs(
                    single.povm[k].matrix - theory.measurements["Ma"].povm[k].matrix
                ).max()
                == 0.0
            )

    def test_extremal_binary_povms_mix_to_coin(self):
        all_or_nothing = Measurement(
            "first", Povm((Effect(identity(2)), Effect(np.zeros((2, 2)))))
        )
        nothing_or_all = Measurement(
            "second", Povm((Effect(np.zeros((2, 2))), Effect(identity(2))))
        )
        mixed = mix_measurements([(0.5, all_or_nothing), (0.5, nothing_or_all)], "m")
        for effect in mixed.povm.effects:
            assert np.abs(effect.matrix - identity(2) / 2).max() == 0.0

    def test_outcome_count_mismatch_rejected(self, theory):
        single = Measurement("unit", Povm((Effect(identity(2)),)))
        with pytest.raises(ValueError):
            mix_measurements([(0.5, theory.measurements["Ma"]), (0.5, single)], "m")

    def test_channel_mixtures_reproduce_projection(self, theory):
        k1 = mix_channels(
            [(0.5, theory.transformations["T0"]), (0.5, theory.transformations["T180"])], "m"
        )
        assert channels_equal(k1.channel, y_projection_channel())
        k5 = mix_channels(
            [
                (1 / 3, theory.transformations["T60"]),
                (1 / 3, theory.transformations["T180"]),
                (1 / 3, theory.transformations["T300"]),
            ],
            "m",
        )
        assert channels_equal(k5.channel, y_projection_channel())

    def test_singleton_channel_mixture(self, theory):
        single = mix_channels([(1.0, theory.transformations["T0"])], "m")
        assert channels_equal(single.channel, theory.transformations["T0"].channel)


class TestCoarseGraining:
    @staticmethod
    def _four_outcome_pvm():
        effects = []
        for k in range(4):
            m = np.zeros((4, 4), dtype=complex)
            m[k, k] = 1.0
            effects.append(Effect(m))
        return Measurement("basis4", Povm(tuple(effects)))

    def test_pairing_outcomes_of_an_orthogonal_pvm_stays_projective(self):
        merged = coarse_grain_povm(self._four_outcome_pvm(), [(0, 1), (2, 3)])
        assert merged.povm.outcome_count == 2
        for effect in merged.povm.effects:
            m = effect.matrix
            assert np.abs(m @ m - m).max() < 1e-15

    def test_singleton_partition_is_identity(self):
        base = self._four_outcome_pvm()
        same = coarse_grain_povm(base, [(0,), (1,), (2,), (3,)])
        for k in range(4):
            assert np.abs(same.povm[k].matrix - base.povm[k].matrix).max() == 0.0

    def test_full_merge_gives_unit_effect(self):
        merged = coarse_grain_povm(self._four_outcome_pvm(), [(0, 1, 2, 3)])
        assert merged.povm.outcome_count == 1
        assert np.abs(merged.povm[0].matrix - identity(4)).max() == 0.0

    def test_invalid_partitions_rejected(self):
        base = self._four_outcome_pvm()
        with pytest.raises(ValueError):
            coarse_grain_povm(base, [(0, 1), (1, 2, 3)])
        with pytest.raises(ValueError):
            coarse_grain_povm(base, [(0, 1), (2,)])

    def test_mixing_commutes_with_coarse_graining(self, theory):
        first, second = theory.measurements["Ma"], theory.measurements["Mb"]
        mixed_then_merged = coarse_grain_povm(
            mix_measurements([(0.25, first), (0.75, second)], "m"), [(0, 1)]
        )
        merged_then_mixed = mix_measurements(
            [
                (0.25, coarse_grain_povm(first, [(0, 1)])),
                (0.75, coarse_grain_povm(second, [(0, 1)])),
            ],
            "m",
        )
        assert (
            np.abs(
                mixed_then_merged.povm[0].matrix - merged_then_mixed.povm[0].matrix
            ).max()
            < 1e-15
        )


class TestHexagonTheory:
    def test_every_declared_mixture_verifies_tightly(self, theory):
        assert theory.max_mixture_deviation() <= 1e-12

    def test_first_state_upper_left_entry(self, theory):
        assert theory.preparations["a"].rho.matrix[0, 0] == 1.0

    def test_all_six_states_lie_in_the_zx_plane(self, theory):
        for label in "aAbBcC":
            assert abs(bloch_from_density(theory.preparations[label].rho)[1]) < 1e-15

    def test_mixture_targets_all_equal_center(self, theory):
        for label in ("aA", "bB", "cC", "abc", "ABC"):
            assert np.abs(theory.preparations[label].rho.matrix - identity(2) / 2).max() < 1e-12

    def test_declared_weights_are_exact(self):
        decl = MixtureDecl("prep", "m", (("1/3", "a"), (Fraction(1, 3), "b"), (1 / 3, "a")))
        assert decl.components[0] == (Fraction(1, 3), "a")
        assert decl.weights() == {"a": Fraction(2, 3), "b": Fraction(1, 3)}

    @pytest.mark.parametrize(
        "components", [((True, "a"),), ((-0.5, "a"), (1.5, "b")), ((0.5, "a"),)]
    )
    def test_declared_weights_refused(self, components):
        with pytest.raises((TypeError, ValueError)):
            MixtureDecl("prep", "m", components)

    def test_corrupted_mixture_rejected(self, theory):
        with pytest.raises(ValueError):
            OperationalTheory(
                preparations=[theory.preparations["a"], theory.preparations["b"]],
                mixtures=[MixtureDecl("prep", "a", ((1.0, "b"),))],
            )

    def test_json_roundtrip_preserves_everything(self, theory):
        doc = theory.to_json()
        back = OperationalTheory.from_json(doc)
        assert set(back.preparations) == set(theory.preparations)
        assert set(back.measurements) == set(theory.measurements)
        assert set(back.transformations) == set(theory.transformations)
        assert back.to_json() == doc
