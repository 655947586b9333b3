import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ctxcert.operational import (
    MixtureDecl,
    OperationalTheory,
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
        """K1 and K5 each reproduce T, so their Choi matrices are within the
        sum of their deviations of each other."""
        transf = [
            (d, dev) for d, dev in zip(theory.mixtures, theory.deviations) if d.kind == "transf"
        ]
        (k1, dev1), (k5, dev5) = transf[0], transf[4]
        assert k1.target == k5.target == "T"
        assert dev1 + dev5 <= 1e-12

    def test_reflexive(self, theory):
        t0 = theory.transformations["T0"]
        assert channels_equal(t0, t0)

    def test_distinct_rotations_differ(self, theory):
        assert not channels_equal(theory.transformations["T60"], theory.transformations["T120"])


def _declared(kind, procedures, components, target):
    """Deviation of the operator ``target``, labeled ``m``, from the mixture
    ``components`` of the ``procedures`` table, declared in a theory that
    accepts any deviation."""
    field = {"prep": "preparations", "meas": "measurements", "transf": "transformations"}[kind]
    theory = OperationalTheory(
        **{field: {**procedures, "m": target}},
        mixtures=[MixtureDecl(kind, "m", components)],
        tol=math.inf,
    )
    (deviation,) = theory.deviations
    return deviation


class TestMixtures:
    """Every mixture is a declaration that the theory checks against its target."""

    HALF, THIRD = Fraction(1, 2), Fraction(1, 3)

    def test_balanced_antipodal_mixture_is_completely_mixed(self, theory):
        pair = {l: theory.preparations[l] for l in ("a", "A")}
        center = DensityOperator(identity(2) / 2)
        assert _declared("prep", pair, ((self.HALF, "a"), (self.HALF, "A")), center) < 1e-15

    def test_balanced_trine_mixture_is_completely_mixed(self, theory):
        trine = {l: theory.preparations[l] for l in ("a", "b", "c")}
        center = DensityOperator(identity(2) / 2)
        components = tuple((self.THIRD, l) for l in ("a", "b", "c"))
        assert _declared("prep", trine, components, center) < 1e-15

    def test_singleton_mixture_is_identity_operation(self, theory):
        b = theory.preparations["b"]
        assert _declared("prep", {"b": b}, ((1, "b"),), b) == 0.0

    def test_component_labels_recorded_as_context(self, theory):
        (decl,) = (d for d in theory.mixtures if d.target == "aA")
        assert decl.components == ((self.HALF, "a"), (self.HALF, "A"))

    def test_bad_weights_rejected(self):
        for components in (((0.7, "a"), (0.7, "A")), ((0.5, "a"), (0.5000000001, "A"))):
            with pytest.raises(ValueError, match="no small exact rational representation"):
                MixtureDecl("prep", "m", components)

    def test_uniform_pvm_mixture_gives_coin_povm(self, theory):
        pvms = {l: theory.measurements[l] for l in ("Ma", "Mb", "Mc")}
        components = tuple((self.THIRD, l) for l in pvms)
        assert _declared("meas", pvms, components, coin_flip_povm()) < 1e-15

    def test_singleton_measurement_mixture_is_identity_operation(self, theory):
        ma = theory.measurements["Ma"]
        assert _declared("meas", {"Ma": ma}, ((1, "Ma"),), ma) == 0.0

    def test_extremal_binary_povms_mix_to_coin(self):
        extremal = {
            "first": Povm((Effect(identity(2)), Effect(np.zeros((2, 2))))),
            "second": Povm((Effect(np.zeros((2, 2))), Effect(identity(2)))),
        }
        components = ((self.HALF, "first"), (self.HALF, "second"))
        assert _declared("meas", extremal, components, coin_flip_povm()) == 0.0

    def test_outcome_count_mismatch_rejected(self, theory):
        parts = {"Ma": theory.measurements["Ma"], "unit": Povm((Effect(identity(2)),))}
        components = ((self.HALF, "Ma"), (self.HALF, "unit"))
        with pytest.raises(ValueError, match="unequal outcome counts"):
            _declared("meas", parts, components, coin_flip_povm())

    def test_channel_mixtures_reproduce_projection(self, theory):
        rotations = rotation_transformations()
        projection = y_projection_channel()
        k1 = ((self.HALF, "T0"), (self.HALF, "T180"))
        k5 = ((self.THIRD, "T60"), (self.THIRD, "T180"), (self.THIRD, "T300"))
        for components in (k1, k5):
            assert _declared("transf", rotations, components, projection) <= 1e-15

    def test_singleton_channel_mixture(self, theory):
        t0 = theory.transformations["T0"]
        assert _declared("transf", {"T0": t0}, ((1, "T0"),), t0) == 0.0

    def test_false_channel_mixture_is_refused_by_position(self, theory):
        mixtures = list(theory.mixtures)
        mixtures.insert(8, MixtureDecl("transf", "T", ((self.HALF, "T0"), (self.HALF, "T120"))))
        with pytest.raises(ValueError, match=r"mixtures\[8\]: transf mixture 'T' fails to verify"):
            OperationalTheory(
                theory.preparations, theory.transformations, theory.measurements, mixtures
            )


class TestHexagonTheory:
    def test_every_declared_mixture_verifies_tightly(self, theory):
        assert len(theory.deviations) == len(theory.mixtures)
        assert max(theory.deviations) <= 1e-12

    def test_first_state_upper_left_entry(self, theory):
        assert theory.preparations["a"].matrix[0, 0] == 1.0

    def test_all_six_states_lie_in_the_zx_plane(self, theory):
        for label in "aAbBcC":
            assert abs(bloch_from_density(theory.preparations[label])[1]) < 1e-15

    def test_mixture_targets_all_equal_center(self, theory):
        for label in ("aA", "bB", "cC", "abc", "ABC"):
            assert np.abs(theory.preparations[label].matrix - identity(2) / 2).max() < 1e-12

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
                preparations={l: theory.preparations[l] for l in "ab"},
                mixtures=[MixtureDecl("prep", "a", ((1.0, "b"),))],
            )

    @pytest.mark.parametrize("tol", [float("nan"), -1e-9])
    def test_nan_or_negative_tolerance_is_refused(self, theory, tol):
        """aA = a/2 + b/2 deviates by 0.217; a NaN tolerance must not accept it."""
        half = Fraction(1, 2)
        with pytest.raises(ValueError, match="tol must be nonnegative and not NaN"):
            OperationalTheory(
                {l: theory.preparations[l] for l in ("a", "b", "aA")},
                mixtures=[MixtureDecl("prep", "aA", ((half, "a"), (half, "b")))],
                tol=tol,
            )
        with pytest.raises(ValueError, match="tol must be nonnegative and not NaN"):
            OperationalTheory.from_json(theory.to_json(), tol=tol)

    def test_json_roundtrip_preserves_everything(self, theory):
        doc = theory.to_json()
        back = OperationalTheory.from_json(doc)
        assert set(back.preparations) == set(theory.preparations)
        assert set(back.measurements) == set(theory.measurements)
        assert set(back.transformations) == set(theory.transformations)
        assert back.to_json() == doc
