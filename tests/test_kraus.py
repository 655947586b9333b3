import math

import numpy as np
import pytest

from ctxcert import kraus
from ctxcert.kraus import (
    RemixMatrix,
    remix_kraus,
    verify_mixture_identities,
    with_zero_ops,
)
from ctxcert.nogo import VerificationError
from ctxcert.operational import y_projection_channel
from ctxcert.qmath import (
    KrausChannel,
    apply_channel,
    bloch_from_density,
    channels_equal,
    choi_deviation,
    density_from_bloch,
    identity,
    unitary_rotation_y,
)


def _haarish_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_qubit_channel(rng, count=3):
    """A qubit channel whose ``count`` Kraus operators are the 2x2 blocks of a random isometry."""
    isometry = _haarish_unitary(rng, 2 * count)[:, :2]
    return KrausChannel(tuple(isometry.reshape(count, 2, 2)))


def _pair_remix(theta):
    """2x2 remix sending the balanced pair at angles (0, pi) to (theta, theta+pi)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return RemixMatrix(np.array([[c, s], [-s, c]], dtype=complex))


def _triple_remix(theta):
    """3x3 remix whose row k sends the zero-padded balanced pair to the
    rotation at theta + 4k*pi/3."""
    rows = []
    for k in range(3):
        angle = theta / 2 + k * 2 * math.pi / 3
        rows.append(
            [
                math.sqrt(2 / 3) * math.cos(angle),
                math.sqrt(2 / 3) * math.sin(angle),
                math.sqrt(1 / 3),
            ]
        )
    return RemixMatrix(np.array(rows, dtype=complex))


class TestRemix:
    def test_identity_remix_keeps_the_kraus_set(self):
        base = y_projection_channel()
        out = remix_kraus(base, RemixMatrix(identity(2)))
        for w, x in zip(base.kraus_ops, out.kraus_ops):
            assert np.abs(w - x).max() == 0.0

    @pytest.mark.parametrize("theta", [math.pi / 3, 2 * math.pi / 3, 1.234])
    def test_pair_remix_rotates_the_balanced_pair(self, theta):
        base = y_projection_channel()
        out = remix_kraus(base, _pair_remix(theta))
        s = math.sqrt(0.5)
        expected = (s * unitary_rotation_y(theta), s * unitary_rotation_y(theta + math.pi))
        for got, want in zip(out.kraus_ops, expected):
            assert np.abs(got - want).max() < 1e-14
        assert channels_equal(base, out)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 3])
    def test_triple_remix_builds_the_balanced_triple(self, theta):
        padded = with_zero_ops(y_projection_channel(), 3)
        out = remix_kraus(padded, _triple_remix(theta))
        s = math.sqrt(1 / 3)
        # Row k lands exactly on the rotation at theta + 4k*pi/3 ...
        for k, got in enumerate(out.kraus_ops):
            want = s * unitary_rotation_y(theta + k * 4 * math.pi / 3)
            assert np.abs(got - want).max() < 1e-14
        # ... which is the balanced triple up to operator order and a sign.
        targets = [s * unitary_rotation_y(theta + k * 2 * math.pi / 3) for k in range(3)]
        matched = set()
        for got in out.kraus_ops:
            hits = [
                k
                for k, want in enumerate(targets)
                if k not in matched
                and min(np.abs(got - want).max(), np.abs(got + want).max()) < 1e-14
            ]
            assert hits
            matched.add(hits[0])
        assert matched == {0, 1, 2}
        assert channels_equal(padded, out)

    def test_remix_then_inverse_recovers_the_padded_set(self):
        rng = np.random.default_rng(6)
        base = with_zero_ops(y_projection_channel(), 3)
        u = RemixMatrix(_haarish_unitary(rng, 3))
        forward = remix_kraus(base, u)
        back = remix_kraus(forward, RemixMatrix(u.u.conj().T))
        for w, x in zip(base.kraus_ops, back.kraus_ops):
            assert np.abs(w - x).max() < 1e-12

    def test_channel_preserved_under_random_remixes(self):
        rng = np.random.default_rng(77)
        base = with_zero_ops(y_projection_channel(), 3)
        for _ in range(100):
            u = RemixMatrix(_haarish_unitary(rng, 3))
            assert choi_deviation(base, remix_kraus(base, u)) <= 1e-10

    def test_size_mismatch_refused_without_padding(self):
        with pytest.raises(ValueError):
            remix_kraus(y_projection_channel(), RemixMatrix(identity(3)))

    def test_non_unitary_matrices_rejected(self):
        with pytest.raises(ValueError):
            RemixMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_padding_cannot_shrink(self):
        with pytest.raises(ValueError):
            with_zero_ops(with_zero_ops(y_projection_channel(), 3), 2)


@pytest.fixture(scope="module")
def report():
    return verify_mixture_identities()


class TestMixtureIdentities:
    def test_first_identity_is_definitional(self, report):
        named = dict(report.identities)
        assert named["K1"] == 0.0

    def test_all_five_identities_hold(self, report):
        assert [name for name, _ in report.identities] == ["K1", "K2", "K3", "K4", "K5"]
        assert report.max_choi_dev <= 1e-12

    def test_projection_collapses_x_and_fixes_y(self):
        channel = y_projection_channel()
        out_x = bloch_from_density(apply_channel(channel, density_from_bloch((1, 0, 0))))
        out_y = bloch_from_density(apply_channel(channel, density_from_bloch((0, 1, 0))))
        assert np.abs(out_x).max() < 1e-15
        assert out_y == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)

    def test_projection_property_on_the_grid(self, report):
        assert report.bloch_projection_max_dev <= 1e-12

    def test_four_points_fix_a_qubit_channel_on_the_ball(self):
        """The projection is checked on the origin and the unit axes: a qubit
        channel's Bloch image of any ball point is their affine extension."""
        rng = np.random.default_rng(23)
        for _ in range(20):
            channel = _random_qubit_channel(rng)
            image = lambda r: bloch_from_density(apply_channel(channel, density_from_bloch(r)))
            origin = image(np.zeros(3))
            axes = np.array([image(e) for e in np.eye(3)]) - origin
            for _ in range(10):
                r = rng.normal(size=3)
                r *= rng.uniform() ** (1 / 3) / np.linalg.norm(r)
                assert np.abs(image(r) - (origin + r @ axes)).max() <= 1e-12

    def test_failed_projection_raises_verification_error(self, monkeypatch):
        shifted = lambda rho: bloch_from_density(rho) + 1e-9
        monkeypatch.setattr(kraus, "bloch_from_density", shifted)
        with pytest.raises(VerificationError, match="projection-channel identities fail"):
            verify_mixture_identities()

    def test_json_shape(self, report):
        doc = report.to_json()
        assert {entry["name"] for entry in doc["identities"]} == {
            "K1",
            "K2",
            "K3",
            "K4",
            "K5",
        }
        assert "bloch_projection_max_dev" in doc
