"""Dense complex matrix algebra for finite-dimensional quantum objects.

Density operators, POVM effects, Kraus channels, Bloch-vector geometry and
Choi matrices, plus the operations (Born rule, Hermitian spectra, channel
application) that the rest of the toolkit is built on.  All values are
immutable after construction and safe for unrestricted concurrent reads.

Each validated type checks its invariant in its constructor and nowhere else,
by ``check_*`` helpers that take one matrix or a numpy stack.  Matrices valid by
construction (Choi matrices, raw channel images) are read-only, unchecked.

JSON convention shared by every module in this package: a complex number
serializes as a two-element array ``[re, im]``, and a matrix as a row-major
nested list of such pairs.  A report writes its dataclass fields in
declaration order (``fields_to_json``), and a POVM is written by
``Povm.to_json`` alone.  Entries read back must be JSON numbers
(``real_from_json``); exact coefficients and mixture weights are read by
``as_fraction`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

import numpy as np

#: Tolerance for structural validity checks (positivity, normalization,
#: trace preservation, unitarity).
VALIDITY_TOL = 1e-9

#: Tolerance for algebraic identities that hold to machine precision.
IDENTITY_TOL = 1e-12


def frozen_array(entries, dtype: type = complex) -> np.ndarray:
    """Read-only copy of ``entries`` as a ``dtype`` array; NaN or infinite entries
    raise ``ValueError``, before any check of the value they would be part of."""
    out = np.array(entries, dtype=dtype)
    if not np.isfinite(out).all():
        raise ValueError("entries must be finite (no NaN or infinity)")
    out.setflags(write=False)
    return out


def as_cmatrix(entries, dim: int | None = None) -> np.ndarray:
    """Read-only copy of ``entries`` as a finite square complex matrix,
    optionally of size ``dim``."""
    m = frozen_array(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {m.shape[0]}")
    return m


def hermitian_spectrum(m: np.ndarray, what: str) -> np.ndarray:
    """Eigenvalues of the Hermitian part of ``m``, a matrix or a stack; raises ``ValueError``
    (naming ``what``) unless each is Hermitian entrywise within ``VALIDITY_TOL``."""
    mh = m.conj().swapaxes(-1, -2)
    if np.abs(m - mh).max() > VALIDITY_TOL:
        raise ValueError(f"{what} must be Hermitian")
    return np.linalg.eigvalsh((m + mh) / 2)


def check_effects(m: np.ndarray) -> None:
    """Raises ``ValueError`` unless each matrix of ``m`` has a spectrum in ``[0, 1]``."""
    eigs = hermitian_spectrum(m, "effect")
    if eigs.min() < -VALIDITY_TOL or eigs.max() > 1.0 + VALIDITY_TOL:
        raise ValueError(f"effect spectrum [{eigs.min():.3e}, {eigs.max():.3e}] outside [0, 1]")


def check_povms(m: np.ndarray) -> None:
    """Raises ``ValueError`` unless the effects along axis -3 of ``m`` sum to the identity."""
    if np.abs(m.sum(axis=-3) - identity(m.shape[-1])).max() > VALIDITY_TOL:
        raise ValueError("POVM elements must sum to the identity")


def check_densities(m: np.ndarray) -> None:
    """Raises ``ValueError`` unless each matrix of ``m`` is positive with unit trace."""
    eigs = hermitian_spectrum(m, "density operator")
    if eigs.min() < -VALIDITY_TOL:
        raise ValueError(f"density operator has negative eigenvalue {eigs.min():.3e}")
    tr = m.trace(axis1=-2, axis2=-1)
    if abs(tr - 1.0).max() > VALIDITY_TOL:
        raise ValueError(f"density operator must have unit trace, got {tr}")


def vector_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis, rounded as ``np.linalg.norm`` rounds one vector."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def normalized(v: np.ndarray) -> np.ndarray:
    """``v`` over its norm along the last axis; each norm must be 1 within ``VALIDITY_TOL``."""
    norm = vector_norm(v)
    if abs(norm - 1.0).max() > VALIDITY_TOL:
        raise ValueError(f"state vector must be normalized, got norm {norm}")
    return v / norm[..., None]


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


PAULI_X = frozen_array([[0, 1], [1, 0]])
PAULI_Y = frozen_array([[0, -1j], [1j, 0]])
PAULI_Z = frozen_array([[1, 0], [0, -1]])


@dataclass(frozen=True)
class DensityOperator:
    """A positive, trace-one operator describing a preparation equivalence class."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = as_cmatrix(self.matrix)
        check_densities(m)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Effect:
    """A POVM element: Hermitian with spectrum inside ``[0, 1]``."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = as_cmatrix(self.matrix)
        check_effects(m)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Povm:
    """An ordered set of effects summing to the identity."""

    effects: tuple[Effect, ...]

    def __post_init__(self) -> None:
        effects = tuple(self.effects)
        if not effects:
            raise ValueError("a POVM needs at least one outcome")
        dim = effects[0].dim
        if any(e.dim != dim for e in effects):
            raise ValueError("all POVM elements must share a dimension")
        check_povms(np.array([e.matrix for e in effects]))
        object.__setattr__(self, "effects", effects)

    @property
    def dim(self) -> int:
        return self.effects[0].dim

    @property
    def outcome_count(self) -> int:
        return len(self.effects)

    def __getitem__(self, k: int) -> Effect:
        return self.effects[k]

    def to_json(self) -> list:
        return [matrix_to_json(e.matrix) for e in self.effects]

    @classmethod
    def from_json(cls, doc) -> "Povm":
        """A list of effect matrices, as in a simulation report, or an object holding
        one as ``effects``; ``TypeError`` or ``ValueError`` names an entry at fault."""
        effects = doc.get("effects") if isinstance(doc, dict) else doc
        if not isinstance(effects, list):
            raise TypeError("field 'effects' is not a list of matrices")
        return cls(tuple(
            read_at(f"field 'effects', entry {i}", lambda m: Effect(matrix_from_json(m)), m)
            for i, m in enumerate(effects)
        ))


@dataclass(frozen=True)
class KrausChannel:
    """A trace-preserving CP map given by operators ``{W}`` with sum W†W = I.

    Zero Kraus operators are permitted, so representations of the same
    channel may have different cardinality.  Operators may be rectangular
    (``dim_out x dim_in``).
    """

    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        ops = tuple(frozen_array(w) for w in self.kraus_ops)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or any(w.shape != shape for w in ops):
            raise ValueError("all Kraus operators must share one 2-d shape")
        dim_in = shape[1]
        total = sum(w.conj().T @ w for w in ops)
        if np.abs(total - identity(dim_in)).max() > VALIDITY_TOL:
            raise ValueError("channel is not trace preserving (sum W†W != I)")
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def dim_in(self) -> int:
        return self.kraus_ops[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus_ops[0].shape[0]


def pure_density(psi: Sequence[complex]) -> DensityOperator:
    """Rank-one density operator ``|psi><psi|`` for a normalized vector."""
    v = normalized(np.asarray(psi, dtype=complex).reshape(-1))
    return DensityOperator(np.outer(v, v.conj()))


def born_probabilities(rho: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """``Tr(rho E)`` over broadcast stacks of density and effect matrices, clamped to [0, 1]
    within ``VALIDITY_TOL``; an imaginary part beyond it (invalid inputs) raises ``ValueError``."""
    t = (rho @ effects).trace(axis1=-2, axis2=-1)
    if abs(t.imag).max() > VALIDITY_TOL:
        raise ValueError(f"Tr(rho E) has imaginary part up to {abs(t.imag).max():.3e}")
    p = t.real
    return np.where((-VALIDITY_TOL <= p) & (p < 0.0), 0.0,
                    np.where((1.0 < p) & (p <= 1.0 + VALIDITY_TOL), 1.0, p))


def born_probability(rho: DensityOperator, effect: Effect) -> float:
    """``born_probabilities`` of one state and effect of the same dimension."""
    if rho.dim != effect.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {effect.dim}")
    return float(born_probabilities(rho.matrix, effect.matrix))


def density_from_bloch(r: Sequence[float]) -> DensityOperator:
    """Qubit state ``(I + x X + y Y + z Z) / 2`` for a Bloch vector inside the ball."""
    v = np.asarray(r, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise ValueError("a Bloch vector has exactly three real components")
    if np.linalg.norm(v) > 1.0 + VALIDITY_TOL:
        raise ValueError(f"Bloch vector lies outside the unit ball: |r| = {np.linalg.norm(v)}")
    x, y, z = v
    m = (identity(2) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / 2
    return DensityOperator(m)


def bloch_from_density(rho: DensityOperator) -> np.ndarray:
    """Bloch vector ``(x, y, z)`` of a qubit density operator."""
    if rho.dim != 2:
        raise ValueError("Bloch coordinates are defined for qubits only")
    m = rho.matrix
    x = 2.0 * m[0, 1].real
    y = -2.0 * m[0, 1].imag
    z = (m[0, 0] - m[1, 1]).real
    return np.array([x, y, z])


def channel_action(channel: KrausChannel, matrix: np.ndarray) -> np.ndarray:
    """Raw operator-sum action ``sum W m W†`` on an arbitrary matrix."""
    m = as_cmatrix(matrix, channel.dim_in)
    out = np.zeros((channel.dim_out, channel.dim_out), dtype=complex)
    for w in channel.kraus_ops:
        out += w @ m @ w.conj().T
    return out


def apply_channel(channel: KrausChannel, rho: DensityOperator) -> DensityOperator:
    """Apply a trace-preserving channel to a state; the output is validated."""
    if rho.dim != channel.dim_in:
        raise ValueError(f"dimension mismatch: channel expects {channel.dim_in}, state is {rho.dim}")
    return DensityOperator(channel_action(channel, rho.matrix))


def unitary_rotation_y(theta: float) -> np.ndarray:
    """2x2 rotation by ``theta`` about the Bloch y axis.

    Matrix-level comparisons of these unitaries are exact; ``theta`` and
    ``theta + 2*pi`` differ by a global sign and agree only as channels.
    """
    c = np.cos(theta / 2)
    s = np.sin(theta / 2)
    return frozen_array([[c, -s], [s, c]])


def unitary_channel(u: np.ndarray) -> KrausChannel:
    """Single-Kraus channel ``rho -> U rho U†``."""
    return KrausChannel((np.asarray(u, dtype=complex),))


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Read-only Choi matrix ``C = sum_ij T(|i><j|) (x) |i><j|``, output system
    first, unnormalized (trace ``dim_in``).

    It needs no check of its own: as a sum of ``vec(W) vec(W)†`` it is
    positive semidefinite, and its partial trace over the output is the
    conjugate of ``sum W†W``, which ``KrausChannel`` requires to equal I.
    """
    d = channel.dim_in * channel.dim_out
    c = np.zeros((d, d), dtype=complex)
    for w in channel.kraus_ops:
        v = w.reshape(-1)
        c += np.outer(v, v.conj())
    return frozen_array(c)


def choi_deviation(a: KrausChannel, b: KrausChannel) -> float:
    """Max entrywise difference of the two channels' Choi matrices."""
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        raise ValueError("channels act on different dimensions")
    return float(np.abs(choi_matrix(a) - choi_matrix(b)).max())


def channels_equal(a: KrausChannel, b: KrausChannel, tol: float = IDENTITY_TOL) -> bool:
    """True iff the Choi matrices agree entrywise within ``tol``."""
    return choi_deviation(a, b) <= tol


# ---------------------------------------------------------------------------
# JSON conventions


def read_at(where: str, read, value):
    """``read(value)``, with ``where`` put in front of its ``TypeError`` or ``ValueError``."""
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def json_value(v):
    """``v`` as JSON: an object with ``to_json`` by it, a complex vector as ``[re, im]``
    pairs, a tuple or list entry by entry, and anything else (a number, string, bool or
    None) as it is."""
    if hasattr(v, "to_json"):
        return v.to_json()
    if isinstance(v, np.ndarray):
        return [complex_to_json(z) for z in v]
    if isinstance(v, (tuple, list)):
        return [json_value(x) for x in v]
    return v


def fields_to_json(self) -> dict:
    """A report's dataclass fields in declaration order, each by ``json_value``."""
    return {f.name: json_value(getattr(self, f.name)) for f in fields(self)}


def real_from_json(value) -> float:
    """A JSON number as a float; booleans, strings and other values are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"number {value!r} is out of range") from None


def complex_from_json(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise TypeError(f"expected a complex number as [re, im], got {pair!r}")
    return complex(real_from_json(pair[0]), real_from_json(pair[1]))


def as_fraction(value) -> Fraction:
    """Exact reading of a coefficient or weight: an int, a ``Fraction``, a
    rational string such as ``"1/3"``, or a float that a rational with
    denominator at most 10**6 reproduces exactly.  Such rationals lie at
    least 1e-12 apart, much wider than the floats, so a float matches at
    most one of them.  Booleans and other values are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str, float)):
        raise TypeError(f"cannot interpret {value!r} as an exact coefficient")
    if isinstance(value, float) and np.isfinite(value):
        exact = Fraction(value).limit_denominator(10**6)
        if float(exact) != value:
            raise ValueError(f"float {value!r} has no small exact rational representation")
        return exact
    try:
        return Fraction(value)
    except (OverflowError, ValueError, ZeroDivisionError):
        raise ValueError(f"coefficient {value!r} is not a finite rational") from None


def matrix_to_json(m: np.ndarray) -> list:
    return [[complex_to_json(z) for z in row] for row in np.asarray(m, dtype=complex)]


def matrix_from_json(rows) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise TypeError(f"expected a matrix as a list of rows, got {rows!r}")
    return np.array([[complex_from_json(p) for p in row] for row in rows], dtype=complex)
