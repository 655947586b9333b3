"""The Beltrametti-Bugajski ontological model of a qubit.

Ontic states are the rays of Hilbert space; a pure preparation is a point
mass on its own ray and a mixed preparation a finite mixture of such
masses; a measurement's response functions are the Born probabilities at
each ray.  The model reproduces quantum statistics exactly, is
measurement-noncontextual (the response functions depend only on the POVM)
and is demonstrably preparation-contextual.

``bb_simulate`` samples with the counter-based Philox generator and an
explicit seed, so every simulated stream is a pure function of
``(seed, n)``; each component and outcome takes the uniforms between two
partial sums of the weights or response probabilities, in declaration and
outcome order, and is counted from tail counts, never looked up per sample.
It reads the component and outcome parts of the stream in fixed slices, the
outcome part from a second generator skipped ahead to it, so its memory
does not grow with the sample count.
``bb_meas_noncontextuality_property`` draws all its trials' numbers first,
then checks and evaluates them as numpy stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operational import hexagon_state_vectors, prep_equivalent
from .qmath import (
    IDENTITY_TOL,
    VALIDITY_TOL,
    DensityOperator,
    Povm,
    born_probabilities,
    check_densities,
    check_effects,
    check_povms,
    complex_from_json,
    fields_to_json,
    frozen_array,
    normalized,
    pure_density,
    read_at,
    real_from_json,
    vector_norm,
)

#: Ray comparison tolerance after canonical phase fixing.
RAY_TOL = 1e-12

#: Hard ceiling on the samples of one draw, checked before anything is drawn.  It bounds time,
#: not memory: ``ctxcert simulate-bb --prep 0.5:a,0.5:A --povm b`` peaked at 38.2-38.5 MB RSS at
#: 10, 1e6, 4e6 and 2e7 samples, and so did three- and 100-outcome ``--povm @file``s.  At the
#: limit it took 0.5 s of wall time with two outcomes and up to 1.2 s with 100 outcomes and six
#: components (shared 2-core x86_64, Python 3.11, numpy 2.4, Linux).
MAX_SAMPLES = 2 * 10**7

#: Ceiling on the trials of one ``bb_meas_noncontextuality_property`` call, whose stacks hold
#: about 4.4 kB per trial at once (tracemalloc peak, numpy 2.4): about 0.44 GB at the limit.
MAX_TRIALS = 10**5

#: Draws per slice of ``bb_simulate``'s stream: each of its two buffers holds 256 KB.
_SLICE = 32768

#: Above this many outcome bounds ``bb_simulate`` sorts a component's samples and binary-searches
#: them, instead of one comparison pass per bound.
_SORT_BOUNDS = 16


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _canonical_rays(v: np.ndarray) -> np.ndarray:
    """``normalized(v)``, each vector rotated so its first component of modulus
    above ``RAY_TOL`` is real and positive, with negative zeros collapsed."""
    v = normalized(v)
    leading = np.take_along_axis(v, np.argmax(np.abs(v) > RAY_TOL, axis=-1)[..., None], axis=-1)
    return v * (leading.conj() / np.hypot(leading.real, leading.imag)) + (0.0 + 0.0j)


@dataclass(frozen=True)
class PureOnticState:
    """A ray of the qubit Hilbert space, stored with a canonical phase.

    The vector is normalized and rotated so its first non-vanishing
    component is real and positive, which makes "same ray" decidable by
    plain vector comparison.  ``rho`` is the ray's density operator, built
    and validated once, here.
    """

    psi: np.ndarray
    rho: DensityOperator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        v = frozen_array(self.psi).reshape(-1)
        if v.shape != (2,):
            raise ValueError("a qubit ontic state has exactly two components")
        object.__setattr__(self, "psi", frozen_array(_canonical_rays(v)))
        object.__setattr__(self, "rho", pure_density(self.psi))

    def same_ray(self, other: "PureOnticState") -> bool:
        return bool(np.abs(self.psi - other.psi).max() <= RAY_TOL)


@dataclass(frozen=True)
class BBPreparation:
    """A finite mixture of point masses on rays."""

    mixture: tuple[tuple[float, PureOnticState], ...]

    def __post_init__(self) -> None:
        entries = tuple((float(w), s) for w, s in self.mixture)
        if not entries:
            raise ValueError("a preparation needs at least one component")
        weights = [w for w, _ in entries]
        if not all(math.isfinite(w) for w in weights):
            raise ValueError("mixture weights must be finite")
        if any(w < 0 for w in weights):
            raise ValueError("mixture weights must be nonnegative")
        if abs(sum(weights) - 1.0) > VALIDITY_TOL:
            raise ValueError(f"mixture weights must sum to 1, got {sum(weights)}")
        object.__setattr__(self, "mixture", entries)

    def density(self) -> DensityOperator:
        total = sum(w * s.rho.matrix for w, s in self.mixture)
        return DensityOperator(total)

    def to_json(self) -> list:
        return [
            {"weight": w, "state": [list(map(float, (z.real, z.imag))) for z in s.psi]}
            for w, s in self.mixture
        ]

    @classmethod
    def from_json(cls, doc) -> "BBPreparation":
        """The inverse of ``to_json``.  A malformed document raises
        ``TypeError`` or ``ValueError`` naming the entry and field at fault."""
        if not isinstance(doc, list):
            raise TypeError("expected a list of objects with fields weight, state")
        mixture = []
        for i, entry in enumerate(doc):
            where = f"entry {i}"
            if not isinstance(entry, dict):
                raise TypeError(f"{where} is not an object with fields weight, state")
            for key in ("weight", "state"):
                if key not in entry:
                    raise TypeError(f"{where} has no field {key!r}")
            if not isinstance(entry["state"], list):
                raise TypeError(f"{where}: field 'state' is not a list")
            weight = read_at(f"{where}: field 'weight'", real_from_json, entry["weight"])
            state = read_at(
                f"{where}: field 'state'",
                lambda zs: PureOnticState(np.array([complex_from_json(z) for z in zs])),
                entry["state"],
            )
            mixture.append((weight, state))
        return cls(tuple(mixture))


def bb_indicator(povm: Povm, psi: PureOnticState) -> np.ndarray:
    """Response probabilities ``Tr(Q_k |psi><psi|)`` at the ontic state ``psi``.

    Depends only on the POVM, never on how it was implemented.
    """
    if povm.dim != 2:
        raise ValueError("this model describes qubits only")
    return born_probabilities(psi.rho.matrix, np.array([e.matrix for e in povm.effects]))


@dataclass(frozen=True)
class SimulationReport:
    prep: BBPreparation
    povm: Povm
    n: int
    seed: int
    frequencies: tuple[float, ...]
    born: tuple[float, ...]
    max_abs_dev: float

    def sigma_bounds(self) -> tuple[float, ...]:
        """Per-outcome binomial standard deviations at the Born probabilities."""
        return tuple(
            float(np.sqrt(p * (1.0 - p) / self.n)) for p in self.born
        )

    def within_sigma(self, multiple: float) -> bool:
        return all(
            abs(f - p) <= multiple * s
            for f, p, s in zip(self.frequencies, self.born, self.sigma_bounds())
        )

    to_json = fields_to_json


def _outcome_counts(u: np.ndarray, member: np.ndarray | None, bounds: np.ndarray) -> np.ndarray:
    """Per-outcome counts of the uniforms ``u`` selected by ``member`` (all of them when
    None), outcome ``j`` taking ``bounds[j-1] <= u < bounds[j]``.

    Each count is the difference of two tail counts, the samples at or above a bound,
    which is exact because the bounds never decrease.  Up to ``_SORT_BOUNDS`` bounds each
    tail count is one comparison pass; past it the selected samples are sorted (``u``
    itself, in place, when ``member`` is None) and each is one binary search.
    """
    if bounds.size > _SORT_BOUNDS:
        picked = u if member is None else u[member]
        picked.sort()
        total, tails = picked.size, picked.size - np.searchsorted(picked, bounds)
    elif member is None:
        total, tails = u.size, [np.count_nonzero(u >= b) for b in bounds]
    else:
        total = np.count_nonzero(member)
        tails = [np.count_nonzero((u >= b) & member) for b in bounds]
    return -np.diff([total, *tails, 0])


def bb_simulate(prep: BBPreparation, povm: Povm, n: int, seed: int) -> SimulationReport:
    """Sample ontic states, then outcomes from their response functions.

    The empirical frequencies converge to the Born probabilities of the
    mixture's density operator.  Positions ``0 .. n-1`` of the seed's stream
    choose the components, component ``k`` taking the uniforms between the
    ``k``-th and ``k+1``-th partial sums of the mixture weights in declaration
    order; positions ``n .. 2n-1`` choose the outcomes, split the same way by
    the partial sums of the component's response probabilities.  So the report
    is a pure function of ``(seed, n)``.  Both parts are read ``_SLICE`` draws
    at a time into two fixed buffers, so memory does not grow with ``n``.
    """
    if povm.dim != 2:
        raise ValueError("this model describes qubits only")
    if n < 1:
        raise ValueError("need at least one sample")
    if n > MAX_SAMPLES:
        raise ValueError(f"{n} samples exceed the limit of {MAX_SAMPLES} (bbmodel.MAX_SAMPLES)")
    # Philox is counter-based, one counter step per four draws, so the outcome part
    # starts by skipping the component part instead of drawing it.
    components, outcomes = _rng(seed), _rng(seed)
    outcomes.bit_generator.advance(n // 4)
    outcomes.bit_generator.random_raw(n % 4)
    # Component k holds cuts[k] <= v < cuts[k + 1], where cuts runs from -inf through the
    # partial sums of the weights to inf.  The last partial sum is dropped, so a cumsum short
    # of 1 gives the rest to the last component.  With one component every sample is its
    # own, and its draws are never read.
    cuts = np.concatenate(([-np.inf], np.cumsum([w for w, _ in prep.mixture])[:-1], [np.inf]))
    bounds = [np.cumsum(bb_indicator(povm, s))[:-1] for _, s in prep.mixture]
    v, u = np.empty(min(n, _SLICE)), np.empty(min(n, _SLICE))
    counts = np.zeros(povm.outcome_count, dtype=np.int64)
    for start in range(0, n, _SLICE):
        size = min(_SLICE, n - start)
        u_slice = outcomes.random(out=u[:size])
        v_slice = None if len(bounds) == 1 else components.random(out=v[:size])
        # One boolean mask at a time, so memory grows with neither the components nor the outcomes.
        for k, component_bounds in enumerate(bounds):
            member = None if v_slice is None else (v_slice >= cuts[k]) & (v_slice < cuts[k + 1])
            counts += _outcome_counts(u_slice, member, component_bounds)
    freqs = counts / n
    born = born_probabilities(prep.density().matrix, np.array([e.matrix for e in povm.effects]))
    return SimulationReport(
        prep=prep,
        povm=povm,
        n=n,
        seed=seed,
        frequencies=tuple(float(f) for f in freqs),
        born=tuple(float(p) for p in born),
        max_abs_dev=float(np.abs(freqs - born).max()),
    )


# ---------------------------------------------------------------------------
# The two structural demonstrations.


@dataclass(frozen=True)
class PrepContextualityReport:
    """Two ensembles of the completely mixed state with disjoint ontic support."""

    first: BBPreparation
    second: BBPreparation
    operationally_equivalent: bool
    shared_rays: int
    total_variation: float
    preparation_contextual: bool

    to_json = fields_to_json


def bb_prep_contextuality_demo() -> PrepContextualityReport:
    """Equal mixtures of the two antipodal pairs share a density operator but
    are represented by disjoint ontic distributions, so the representation
    depends on the ensemble and not only on the equivalence class."""
    vectors = hexagon_state_vectors()
    first = BBPreparation(
        ((0.5, PureOnticState(vectors["a"])), (0.5, PureOnticState(vectors["A"])))
    )
    second = BBPreparation(
        ((0.5, PureOnticState(vectors["b"])), (0.5, PureOnticState(vectors["B"])))
    )
    equivalent = prep_equivalent(first.density(), second.density())

    rays: list[PureOnticState] = []
    for _, s in first.mixture + second.mixture:
        if not any(s.same_ray(r) for r in rays):
            rays.append(s)

    def mass(prep: BBPreparation, ray: PureOnticState) -> float:
        return sum(w for w, s in prep.mixture if s.same_ray(ray))

    shared = sum(1 for r in rays if mass(first, r) > 0 and mass(second, r) > 0)
    tv = 0.5 * sum(abs(mass(first, r) - mass(second, r)) for r in rays)
    return PrepContextualityReport(
        first=first,
        second=second,
        operationally_equivalent=equivalent,
        shared_rays=shared,
        total_variation=tv,
        preparation_contextual=equivalent and shared == 0,
    )


@dataclass(frozen=True)
class MeasNoncontextualityReport:
    """Response functions agree across convex-mixture implementations."""

    trials: int
    seed: int
    max_abs_dev: float

    @property
    def holds(self) -> bool:
        return self.max_abs_dev <= IDENTITY_TOL

    def to_json(self) -> dict:
        return {**fields_to_json(self), "holds": self.holds}


def bb_meas_noncontextuality_property(trials: int = 100, seed: int = 7) -> MeasNoncontextualityReport:
    """Check that the model's response functions depend only on the summed
    POVM: for random pairs of distinct equal-weight decompositions of the
    same two-outcome POVM, the mixed response functions agree exactly (by
    linearity of the trace) on random ontic states.

    Each trial draws, in order, 8 normals for a complex Gaussian matrix whose
    QR factor diagonalizes the effect ``E``, 2 uniforms in (0.1, 0.9) for its
    spectrum, 8 normals for the Hermitian direction ``D`` of each of two
    decompositions ``{E +- tD, I - E -+ tD}``, and 4 normals for each of three
    ontic states.  All trials are then built, checked by the constructors'
    ``qmath`` helpers, and evaluated at once as numpy stacks.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"need at least one trial and at most {MAX_TRIALS}, got {trials}")
    rng = _rng(seed)
    # Groups of four normals: real and imaginary parts of G and of each D, then per state.
    normals, uniforms = np.empty((trials, 9, 2, 2)), np.empty((trials, 2))
    for row, u in zip(normals.reshape(trials, 36), uniforms):
        rng.standard_normal(out=row[:8])
        rng.random(out=u)
        rng.standard_normal(out=row[8:])
    g = normals[:, 0:6:2] + 1j * normals[:, 1:6:2]
    q = np.linalg.qr(g[:, 0]).Q
    e1 = q @ ((0.1 + (0.9 - 0.1) * uniforms)[:, None, :] * np.eye(2)) @ q.conj().swapaxes(-1, -2)
    e2 = np.eye(2) - e1
    d = (g[:, 1:] + g[:, 1:].conj().swapaxes(-1, -2)) / 2
    # Each decomposition steps 0.9 of the way to the nearest spectrum edge of E or I - E.
    spread = np.abs(np.linalg.eigvalsh(d)).max(axis=-1)
    room = np.linalg.eigvalsh(np.stack([e1, e2], axis=1)).min(axis=(1, 2))
    td = (0.9 * room[:, None] / np.maximum(spread, 1e-12))[..., None, None] * d
    e1, e2 = e1[:, None], e2[:, None]
    # Per trial: the POVM, then the two plus and the two minus decompositions.
    povms = np.stack([np.concatenate([e1, e1 + td, e1 - td], axis=1),
                      np.concatenate([e2, e2 - td, e2 + td], axis=1)], axis=2)
    check_effects(povms)
    check_povms(povms)
    # The steps of PureOnticState and pure_density, so each value keeps its bits.
    states = normals[:, 6:, 0] + 1j * normals[:, 6:, 1]
    v = normalized(_canonical_rays(states / vector_norm(states)[..., None]))
    rho = v[..., :, None] * v.conj()[..., None, :]
    check_densities(rho)
    p = born_probabilities(rho[:, :, None, None], povms[:, None])
    direct, via = p[:, :, 0], 0.5 * (p[:, :, 1:3] + p[:, :, 3:5])
    worst = max(np.abs(via[:, :, 0] - via[:, :, 1]).max(), np.abs(via - direct[:, :, None]).max())
    return MeasNoncontextualityReport(trials=trials, seed=seed, max_abs_dev=float(worst))
