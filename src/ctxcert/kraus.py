"""Unitary freedom of operator-sum representations.

Any unitary recombination ``X_v = sum_u u[v, u] W_u`` of a channel's Kraus
operators represents the same channel; zero operators may be appended first
so that representations of different cardinality can be related.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .nogo import VerificationError
from .operational import OperationalTheory, hexagon_theory
from .qmath import (
    IDENTITY_TOL,
    VALIDITY_TOL,
    KrausChannel,
    apply_channel,
    bloch_from_density,
    density_from_bloch,
    frozen_array,
    identity,
)

# Unused here: ``perfbench/worker.py`` traces ``choi_deviation`` at this module,
# and ``tests/test_benchmark_tracing.py`` fails if the name goes.
from .qmath import choi_deviation  # noqa: F401


@dataclass(frozen=True)
class RemixMatrix:
    """A unitary recombination matrix acting on Kraus-operator indices."""

    u: np.ndarray

    def __post_init__(self) -> None:
        m = frozen_array(self.u)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("remix matrix must be square")
        if np.abs(m @ m.conj().T - identity(m.shape[0])).max() > VALIDITY_TOL:
            raise ValueError("remix matrix must be unitary")
        object.__setattr__(self, "u", m)

    @property
    def size(self) -> int:
        return self.u.shape[0]


def with_zero_ops(channel: KrausChannel, count: int) -> KrausChannel:
    """Pad the Kraus set with explicit zero operators up to ``count`` entries.

    Padding never happens silently inside ``remix_kraus``; callers pad so
    the provenance of every operator stays visible.
    """
    current = len(channel.kraus_ops)
    if count < current:
        raise ValueError(f"cannot pad {current} operators down to {count}")
    zero = np.zeros((channel.dim_out, channel.dim_in), dtype=complex)
    return KrausChannel(channel.kraus_ops + (zero,) * (count - current))


def remix_kraus(channel: KrausChannel, u: RemixMatrix) -> KrausChannel:
    """Recombine the Kraus set by a unitary matrix; the channel is unchanged."""
    if u.size != len(channel.kraus_ops):
        raise ValueError(
            f"remix matrix is {u.size}x{u.size} but the channel has "
            f"{len(channel.kraus_ops)} Kraus operators; pad with zero operators first"
        )
    ops = np.stack(channel.kraus_ops)
    mixed = np.einsum("nm,mij->nij", u.u, ops)
    return KrausChannel(tuple(mixed))


def decomposition_deviations(theory: OperationalTheory) -> list[tuple[str, float]]:
    """The deviation the theory measured for each declared transformation
    mixture, named K1, K2, ... in declaration order."""
    return [(f"K{k}", dev) for k, dev in enumerate(theory.deviations_of("transf"), start=1)]


@dataclass(frozen=True)
class MixtureIdentityReport:
    """Choi deviations of the five decompositions plus the projection check."""

    identities: tuple[tuple[str, float], ...]
    bloch_projection_max_dev: float

    @property
    def max_choi_dev(self) -> float:
        return max(dev for _, dev in self.identities)

    def to_json(self) -> dict:
        return {
            "identities": [
                {"name": name, "choi_dev": dev} for name, dev in self.identities
            ],
            "bloch_projection_max_dev": self.bloch_projection_max_dev,
        }


def verify_mixture_identities() -> MixtureIdentityReport:
    """Verify the five convex decompositions of the y-axis projection channel
    and its geometric action.

    Each transformation mixture declared by ``hexagon_theory`` (K1-K5) is
    read with the Choi deviation the theory measured when it was built: the
    union of the components' Kraus operators, each scaled by the square root
    of its weight, against the channel's balanced two-element Kraus set.
    Separately, the channel is checked to send every Bloch vector
    ``(x, y, z)`` to ``(0, y, 0)``, on the four points that fix its action on the ball.
    Raises ``nogo.VerificationError`` when any identity fails beyond ``IDENTITY_TOL``,
    which would signal an implementation bug.
    """
    theory = hexagon_theory()
    identities = decomposition_deviations(theory)
    projection = theory.transformations["T"]

    worst = 0.0
    # A qubit channel is affine on Bloch vectors: the origin and unit axes fix it on the ball.
    for r in np.vstack([np.zeros(3), np.eye(3)]):
        rho_out = apply_channel(projection, density_from_bloch(r))
        expected = np.array([0.0, r[1], 0.0])
        worst = max(worst, float(np.abs(bloch_from_density(rho_out) - expected).max()))

    report = MixtureIdentityReport(tuple(identities), worst)
    if report.max_choi_dev > IDENTITY_TOL or report.bloch_projection_max_dev > IDENTITY_TOL:
        raise VerificationError(
            f"projection-channel identities fail: choi {report.max_choi_dev:.3e}, "
            f"bloch {report.bloch_projection_max_dev:.3e}"
        )
    return report
