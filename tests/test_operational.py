import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ctxcert.kraus import decomposition_channel
from ctxcert.operational import (
    Measurement,
    MixtureDecl,
    OperationalTheory,
    Preparation,
    Transformation,
    coin_flip_povm,
    hexagon_theory,
    prep_equivalent,
    rotation_transformations,
    y_projection_channel,
)
from ctxcert.qmath import (
    DensityOperator,
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
        transf = [d for d in theory.mixtures if d.kind == "transf"]
        k1, k5 = (decomposition_channel(theory, transf[k]) for k in (0, 4))
        assert channels_equal(k1, k5)

    def test_reflexive(self, theory):
        t0 = theory.transformations["T0"]
        assert channels_equal(t0.channel, t0.channel)

    def test_distinct_rotations_differ(self, theory):
        assert not channels_equal(
            theory.transformations["T60"].channel, theory.transformations["T120"].channel
        )


def _declared(kind, procedures, components, target):
    """Deviation of ``target`` from the mixture ``components`` of
    ``procedures``, declared in a theory that accepts any deviation."""
    field = {"prep": "preparations", "meas": "measurements", "transf": "transformations"}[kind]
    theory = OperationalTheory(
        **{field: [*procedures, target]},
        mixtures=[MixtureDecl(kind, target.label, components)],
        tol=math.inf,
    )
    return theory.max_mixture_deviation()


class TestMixtures:
    """Every mixture is a declaration that the theory checks against its target."""

    HALF, THIRD = Fraction(1, 2), Fraction(1, 3)

    def test_balanced_antipodal_mixture_is_completely_mixed(self, theory):
        pair = [theory.preparations[l] for l in ("a", "A")]
        center = Preparation("m", DensityOperator(identity(2) / 2))
        assert _declared("prep", pair, ((self.HALF, "a"), (self.HALF, "A")), center) < 1e-15

    def test_balanced_trine_mixture_is_completely_mixed(self, theory):
        trine = [theory.preparations[l] for l in ("a", "b", "c")]
        center = Preparation("m", DensityOperator(identity(2) / 2))
        components = tuple((self.THIRD, l) for l in ("a", "b", "c"))
        assert _declared("prep", trine, components, center) < 1e-15

    def test_singleton_mixture_is_identity_operation(self, theory):
        copy = Preparation("m", theory.preparations["b"].rho)
        assert _declared("prep", [theory.preparations["b"]], ((1, "b"),), copy) == 0.0

    def test_component_labels_recorded_as_context(self, theory):
        (decl,) = (d for d in theory.mixtures if d.target == "aA")
        assert decl.components == ((self.HALF, "a"), (self.HALF, "A"))

    def test_bad_weights_rejected(self):
        for components in (((0.7, "a"), (0.7, "A")), ((0.5, "a"), (0.5000000001, "A"))):
            with pytest.raises(ValueError, match="no small exact rational representation"):
                MixtureDecl("prep", "m", components)

    def test_uniform_pvm_mixture_gives_coin_povm(self, theory):
        pvms = [theory.measurements[l] for l in ("Ma", "Mb", "Mc")]
        components = tuple((self.THIRD, m.label) for m in pvms)
        coin = Measurement("m", coin_flip_povm())
        assert _declared("meas", pvms, components, coin) < 1e-15

    def test_singleton_measurement_mixture_is_identity_operation(self, theory):
        copy = Measurement("m", theory.measurements["Ma"].povm)
        assert _declared("meas", [theory.measurements["Ma"]], ((1, "Ma"),), copy) == 0.0

    def test_extremal_binary_povms_mix_to_coin(self):
        all_or_nothing = Measurement(
            "first", Povm((Effect(identity(2)), Effect(np.zeros((2, 2)))))
        )
        nothing_or_all = Measurement(
            "second", Povm((Effect(np.zeros((2, 2))), Effect(identity(2))))
        )
        components = ((self.HALF, "first"), (self.HALF, "second"))
        coin = Measurement("m", coin_flip_povm())
        assert _declared("meas", [all_or_nothing, nothing_or_all], components, coin) == 0.0

    def test_outcome_count_mismatch_rejected(self, theory):
        single = Measurement("unit", Povm((Effect(identity(2)),)))
        components = ((self.HALF, "Ma"), (self.HALF, "unit"))
        with pytest.raises(ValueError, match="unequal outcome counts"):
            _declared(
                "meas", [theory.measurements["Ma"], single], components,
                Measurement("m", coin_flip_povm()),
            )

    def test_channel_mixtures_reproduce_projection(self, theory):
        rotations = list(rotation_transformations().values())
        projection = Transformation("m", y_projection_channel())
        k1 = ((self.HALF, "T0"), (self.HALF, "T180"))
        k5 = ((self.THIRD, "T60"), (self.THIRD, "T180"), (self.THIRD, "T300"))
        for components in (k1, k5):
            assert _declared("transf", rotations, components, projection) <= 1e-15

    def test_singleton_channel_mixture(self, theory):
        copy = Transformation("m", theory.transformations["T0"].channel)
        assert _declared("transf", [theory.transformations["T0"]], ((1, "T0"),), copy) == 0.0

    def test_false_channel_mixture_is_refused_by_position(self, theory):
        mixtures = list(theory.mixtures)
        mixtures.insert(8, MixtureDecl("transf", "T", ((self.HALF, "T0"), (self.HALF, "T120"))))
        with pytest.raises(ValueError, match=r"mixtures\[8\]: transf mixture 'T' fails to verify"):
            OperationalTheory(
                theory.preparations.values(),
                theory.transformations.values(),
                theory.measurements.values(),
                mixtures,
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
