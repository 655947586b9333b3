import itertools
from fractions import Fraction

import numpy as np
import pytest

from ctxcert.operational import (
    Measurement,
    MixtureDecl,
    OperationalTheory,
    hexagon_theory,
    mix_channels,
    mix_measurements,
    mix_preparations,
    prep_equivalent,
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
        assert channels_equal(k1.channel, k5.channel)

    def test_reflexive(self, theory):
        t0 = theory.transformations["T0"]
        assert channels_equal(t0.channel, t0.channel)

    def test_distinct_rotations_differ(self, theory):
        assert not channels_equal(
            theory.transformations["T60"].channel, theory.transformations["T120"].channel
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
