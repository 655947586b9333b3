import math

import numpy as np
import pytest

from ctxcert.bbmodel import BBPreparation, PureOnticState
from ctxcert.kraus import RemixMatrix
from ctxcert.ontomodel import Distribution, IndicatorSet
from ctxcert.operational import MixtureDecl, hexagon_states, y_projection_channel
from ctxcert.qmath import (
    DensityOperator,
    Effect,
    KrausChannel,
    Povm,
    apply_channel,
    as_fraction,
    bloch_from_density,
    born_probabilities,
    born_probability,
    channel_action,
    check_densities,
    check_effects,
    check_povms,
    channels_equal,
    choi_matrix,
    complex_from_json,
    complex_to_json,
    density_from_bloch,
    hermitian_spectrum,
    identity,
    matrix_from_json,
    matrix_to_json,
    normalized,
    real_from_json,
    unitary_channel,
    unitary_rotation_y,
)

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def states():
    return hexagon_states()


def _random_density(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m))


def _random_channel(rng, n_ops=3, dim=2):
    ops = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(n_ops)]
    total = sum(w.conj().T @ w for w in ops)
    eigvals, eigvecs = np.linalg.eigh(total)
    inv_sqrt = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.conj().T
    return KrausChannel(tuple(w @ inv_sqrt for w in ops))


class TestBornProbability:
    def test_orthogonal_pair_gives_zero(self, states):
        assert born_probability(states["a"], Effect(states["A"].matrix)) == 0.0

    def test_half_identity_gives_half_for_any_state(self, states):
        half = Effect(identity(2) / 2)
        for rho in states.values():
            assert born_probability(rho, half) == pytest.approx(0.5, abs=1e-15)

    def test_nonorthogonal_neighbors_give_quarter(self, states):
        assert born_probability(states["a"], Effect(states["b"].matrix)) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_dimension_mismatch_raises(self, states):
        with pytest.raises(ValueError):
            born_probability(states["a"], Effect(identity(3) / 3 * 2))

    def test_range_and_povm_normalization_on_random_inputs(self, states):
        rng = np.random.default_rng(11)
        povm = Povm(
            (
                Effect(states["a"].matrix / 2),
                Effect(states["A"].matrix / 2),
                Effect(identity(2) / 2),
            )
        )
        for _ in range(50):
            rho = _random_density(rng)
            probs = [born_probability(rho, e) for e in povm.effects]
            assert all(-1e-9 <= p <= 1 + 1e-9 for p in probs)
            assert sum(probs) == pytest.approx(1.0, abs=1e-8)


class TestPositivity:
    def test_identity_is_psd(self):
        assert hermitian_spectrum(identity(2), "identity").min() >= 0.0
        Effect(identity(2))
        DensityOperator(identity(2) / 2)

    def test_explicit_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityOperator(np.diag([1.1, -0.1]))
        with pytest.raises(ValueError, match="outside"):
            Effect(np.diag([1.0, -0.1]))

    def test_rank_one_projector_is_psd(self, states):
        eigs = hermitian_spectrum(states["b"].matrix, "projector")
        assert eigs == pytest.approx([0.0, 1.0], abs=1e-15)
        Effect(states["b"].matrix)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator([[0.5, 1], [0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            Effect([[0.5, 0.1], [0, 0.5]])


def _stack(states, labels):
    return np.array([states[x].matrix for x in labels])


def _replace(stack, k, m):
    out = stack.copy()
    out[k] = m
    return out


class TestStackedChecks:
    """The constructors' checks take numpy stacks, and one bad member fails
    the whole stack."""

    def test_valid_stacks_pass(self, states):
        pairs = _stack(states, "aAbBcC").reshape(3, 2, 2, 2)
        check_effects(pairs)
        check_povms(pairs)
        check_densities(_stack(states, "aAbBcC"))
        assert normalized(np.array([[0.6, 0.8j], [1.0, 0.0]])).shape == (2, 2)
        probs = born_probabilities(_stack(states, "ab")[:, None], _stack(states, "aA"))
        assert np.abs(probs - [[1.0, 0.0], [0.25, 0.75]]).max() <= 1e-15

    @pytest.mark.parametrize(
        "check, k, member, match",
        [
            (check_effects, 3, lambda s: [[0.5, 1e-6], [0, 0.5]], "Hermitian"),
            (check_effects, 2, lambda s: (1 + 1e-6) * s["b"].matrix, "outside"),
            (check_densities, 1, lambda s: np.diag([1.1, -0.1]), "negative"),
            (check_densities, 5, lambda s: 2 * s["c"].matrix, "unit trace"),
        ],
    )
    def test_one_bad_member_fails_the_stack(self, states, check, k, member, match):
        with pytest.raises(ValueError, match=match):
            check(_replace(_stack(states, "aAbBcC"), k, member(states)))

    def test_a_decomposition_pair_that_misses_the_identity_fails(self, states):
        pairs = _stack(states, "aAbBcC").reshape(3, 2, 2, 2)
        pairs[1, 1] += 1e-6 * identity(2)
        with pytest.raises(ValueError, match="sum to the identity"):
            check_povms(pairs)

    def test_one_unnormalized_vector_fails_the_stack(self):
        with pytest.raises(ValueError, match="normalized"):
            normalized(np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6], [0.6, 0.8]]))

    def test_one_complex_trace_fails_the_stack(self, states):
        effects = _replace(_stack(states, "aAb"), 1, [[0.5 + 1e-3j, 0], [0, 0.5]])
        with pytest.raises(ValueError, match="imaginary"):
            born_probabilities(states["a"].matrix, effects)


class TestBlochGeometry:
    def test_north_pole_is_first_basis_state(self, states):
        rho = density_from_bloch((0.0, 0.0, 1.0))
        assert np.abs(rho.matrix - states["a"].matrix).max() < 1e-15

    def test_origin_is_completely_mixed(self):
        rho = density_from_bloch((0.0, 0.0, 0.0))
        assert np.abs(rho.matrix - identity(2) / 2).max() == 0.0

    def test_hexagon_state_coordinates(self, states):
        assert bloch_from_density(states["b"]) == pytest.approx(
            [SQRT3 / 2, 0.0, -0.5], abs=1e-15
        )

    def test_roundtrip_on_the_closed_ball(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            back = bloch_from_density(density_from_bloch(r))
            assert np.abs(back - r).max() < 1e-12

    def test_vector_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            density_from_bloch((1.1, 0.0, 0.0))


class TestChannels:
    def test_identity_channel_fixes_states(self, states):
        ident = unitary_channel(identity(2))
        out = apply_channel(ident, states["b"])
        assert np.abs(out.matrix - states["b"].matrix).max() == 0.0

    def test_projection_channel_sends_north_pole_to_center(self, states):
        out = apply_channel(y_projection_channel(), states["a"])
        assert np.abs(out.matrix - identity(2) / 2).max() < 1e-15

    def test_half_turn_maps_between_antipodes(self, states):
        half_turn = unitary_channel(unitary_rotation_y(math.pi))
        out = apply_channel(half_turn, states["a"])
        assert np.abs(out.matrix - states["A"].matrix).max() < 1e-15

    def test_dimension_mismatch_raises(self, states):
        channel = unitary_channel(identity(3))
        with pytest.raises(ValueError):
            apply_channel(channel, states["a"])

    def test_non_trace_preserving_kraus_set_rejected(self):
        with pytest.raises(ValueError):
            KrausChannel((0.5 * identity(2),))


class TestRotation:
    def test_zero_angle_is_identity(self):
        assert np.abs(unitary_rotation_y(0.0) - identity(2)).max() == 0.0

    def test_half_turn_matrix(self):
        expected = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.abs(unitary_rotation_y(math.pi) - expected).max() < 1e-15

    def test_full_turn_is_minus_identity_but_same_channel(self):
        full = unitary_rotation_y(2 * math.pi)
        assert np.abs(full + identity(2)).max() < 1e-15
        assert channels_equal(unitary_channel(full), unitary_channel(identity(2)))

    def test_composition_up_to_sign_and_exactly_as_channels(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            theta, phi = rng.uniform(-2 * math.pi, 2 * math.pi, size=2)
            product = unitary_rotation_y(theta) @ unitary_rotation_y(phi)
            combined = unitary_rotation_y(theta + phi)
            direct = np.abs(product - combined).max()
            flipped = np.abs(product + combined).max()
            assert min(direct, flipped) < 1e-12
            assert channels_equal(
                unitary_channel(product), unitary_channel(combined), tol=1e-12
            )


class TestChoi:
    def test_identity_channel_choi_is_rank_one_trace_two(self):
        choi = choi_matrix(unitary_channel(identity(2)))
        eigs = np.linalg.eigvalsh(choi)
        assert np.trace(choi).real == pytest.approx(2.0, abs=1e-12)
        assert (eigs > 1e-9).sum() == 1

    def test_depolarize_to_center_choi_is_half_identity(self):
        from ctxcert.qmath import PAULI_X, PAULI_Y, PAULI_Z

        channel = KrausChannel(
            (identity(2) / 2, PAULI_X / 2, PAULI_Y / 2, PAULI_Z / 2)
        )
        choi = choi_matrix(channel)
        assert np.abs(choi - identity(4) / 2).max() < 1e-15

    def test_balanced_pair_and_triple_decompositions_share_a_choi(self):
        s2, s3 = math.sqrt(0.5), math.sqrt(1 / 3)
        pair = y_projection_channel()
        triple = KrausChannel(
            tuple(s3 * unitary_rotation_y(k * 2 * math.pi / 3) for k in range(3))
        )
        assert np.abs(choi_matrix(pair) - choi_matrix(triple)).max() < 1e-15

    def test_random_channel_chois_are_read_only_psd_and_trace_to_identity(self):
        # Nothing validates a Choi matrix: its positivity and partial trace
        # must follow from the channel's own check.
        rng = np.random.default_rng(29)
        for _ in range(50):
            choi = choi_matrix(_random_channel(rng))
            assert not choi.flags.writeable
            assert np.abs(choi - choi.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh(choi).min() >= -1e-12
            reduced = np.einsum("aiaj->ij", choi.reshape(2, 2, 2, 2))
            assert np.abs(reduced - identity(2)).max() <= 1e-12


class TestChannelEquality:
    def test_appended_zero_operator_changes_nothing(self):
        base = y_projection_channel()
        padded = KrausChannel(base.kraus_ops + (np.zeros((2, 2)),))
        assert channels_equal(base, padded)

    def test_distinct_rotations_differ(self):
        a = unitary_channel(unitary_rotation_y(0.0))
        b = unitary_channel(unitary_rotation_y(math.pi))
        assert not channels_equal(a, b)

    def test_two_balanced_pair_mixtures_agree(self):
        s = math.sqrt(0.5)
        k2 = KrausChannel(
            (s * unitary_rotation_y(math.pi / 3), s * unitary_rotation_y(4 * math.pi / 3))
        )
        k3 = KrausChannel(
            (s * unitary_rotation_y(2 * math.pi / 3), s * unitary_rotation_y(5 * math.pi / 3))
        )
        assert channels_equal(k2, k3)

    def test_equality_matches_action_on_operator_basis(self):
        rng = np.random.default_rng(23)
        basis = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        for idx, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            basis[idx][i, j] = 1.0
        for _ in range(20):
            a = _random_channel(rng)
            b = _random_channel(rng)
            for x, y in ((a, a), (a, b)):
                same_choi = channels_equal(x, y, tol=1e-10)
                same_action = all(
                    np.abs(channel_action(x, e) - channel_action(y, e)).max() <= 1e-10
                    for e in basis
                )
                assert same_choi == same_action


class TestValidation:
    def test_density_operator_requires_unit_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(identity(2))

    def test_effect_spectrum_capped_at_one(self):
        with pytest.raises(ValueError):
            Effect(1.5 * identity(2))

    def test_povm_must_sum_to_identity(self, states):
        with pytest.raises(ValueError):
            Povm((Effect(states["a"].matrix), Effect(states["b"].matrix)))

    def test_values_are_immutable(self, states):
        with pytest.raises(ValueError):
            states["a"].matrix[0, 0] = 5.0

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: DensityOperator([[1, 0], [0, x]]),
            lambda x: Effect([[x, 0], [0, 0]]),
            lambda x: Povm((Effect([[x, 0], [0, 0]]), Effect(identity(2)))),
            lambda x: KrausChannel(([[1, 0], [0, x]],)),
            lambda x: Distribution([x, 1.0]),
            lambda x: IndicatorSet([[x], [1.0]]),
            lambda x: RemixMatrix([[x]]),
            lambda x: PureOnticState([x, 0]),
            lambda x: BBPreparation(((x, PureOnticState([1, 0])),)),
            lambda x: MixtureDecl("prep", "m", ((x, "a"),)),
        ],
        ids=[
            "DensityOperator", "Effect", "Povm", "KrausChannel", "Distribution",
            "IndicatorSet", "RemixMatrix", "PureOnticState",
            "BBPreparation", "mixture-weight",
        ],
    )
    def test_non_finite_entries_rejected(self, build, x):
        with pytest.raises(ValueError, match="finite"):
            build(x)


class TestJson:
    def test_complex_and_matrix_roundtrip(self):
        z = 1.25 - 0.5j
        assert complex_from_json(complex_to_json(z)) == z
        m = np.array([[1.0, 2.0 + 1.0j], [0.0, -1.0j]])
        assert np.abs(matrix_from_json(matrix_to_json(m)) - m).max() == 0.0

    @pytest.mark.parametrize("value", [True, "1", None, 10**400])
    def test_only_representable_numbers_are_read(self, value):
        with pytest.raises((TypeError, ValueError)):
            real_from_json(value)

    @pytest.mark.parametrize("value", [1 / 3, 0.1, 1 / 7, 0.123456, 1 / 999983])
    def test_a_float_with_a_small_denominator_is_read_exactly(self, value):
        exact = as_fraction(value)
        assert exact.denominator <= 10**6 and float(exact) == value

    @pytest.mark.parametrize("value", [0.123456789012, 0.1234567])
    def test_a_float_that_needs_a_large_denominator_is_refused(self, value):
        with pytest.raises(ValueError, match="no small exact rational representation"):
            as_fraction(value)
