"""The Beltrametti-Bugajski ontological model of a qubit.

Ontic states are the rays of Hilbert space; a pure preparation is a point
mass on its own ray and a mixed preparation a finite mixture of such
masses; a measurement's response functions are the Born probabilities at
each ray.  The model reproduces quantum statistics exactly, is
measurement-noncontextual (the response functions depend only on the POVM)
and is demonstrably preparation-contextual.

Sampling uses the counter-based Philox generator with an explicit seed, so
every simulated stream is a pure function of ``(seed, n)``; outcome draws
use inverse-CDF lookups in outcome order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operational import Preparation, hexagon_state_vectors, prep_equivalent
from .qmath import (
    IDENTITY_TOL,
    VALIDITY_TOL,
    DensityOperator,
    Effect,
    Povm,
    born_probability,
    frozen_array,
    matrix_to_json,
    pure_density,
)

#: Ray comparison tolerance after canonical phase fixing.
RAY_TOL = 1e-12

#: Hard ceiling on the samples of one draw, checked before anything is allocated.  Peak RSS of
#: ``ctxcert simulate-bb --prep 0.5:a,0.5:A --povm b`` was 38, 65, 93 and 148 MB at 10, 1e6,
#: 2e6 and 4e6 samples (Python 3.11, numpy, Linux), and the same with a three- or a 100-outcome
#: ``--povm @file``: about 28 B per sample whatever the outcome count, so the largest allowed
#: run needs about 0.6 GB.
MAX_SAMPLES = 2 * 10**7


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class PureOnticState:
    """A ray of the qubit Hilbert space, stored with a canonical phase.

    The vector is normalized and rotated so its first non-vanishing
    component is real and positive, which makes "same ray" decidable by
    plain vector comparison.
    """

    psi: np.ndarray

    def __post_init__(self) -> None:
        v = frozen_array(self.psi).reshape(-1)
        if v.shape != (2,):
            raise ValueError("a qubit ontic state has exactly two components")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > VALIDITY_TOL:
            raise ValueError(f"state vector must be normalized, got norm {norm}")
        v = v / norm
        leading = v[np.flatnonzero(np.abs(v) > RAY_TOL)[0]]
        v = v * (leading.conjugate() / abs(leading))
        v = v + (0.0 + 0.0j)  # collapse negative zeros
        object.__setattr__(self, "psi", frozen_array(v))

    def same_ray(self, other: "PureOnticState") -> bool:
        return bool(np.abs(self.psi - other.psi).max() <= RAY_TOL)

    def density(self) -> DensityOperator:
        return pure_density(self.psi)


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
        total = sum(w * s.density().matrix for w, s in self.mixture)
        return DensityOperator(total)

    def to_json(self) -> list:
        return [
            {"weight": w, "state": [list(map(float, (z.real, z.imag))) for z in s.psi]}
            for w, s in self.mixture
        ]


def bb_indicator(povm: Povm, psi: PureOnticState) -> np.ndarray:
    """Response probabilities ``Tr(Q_k |psi><psi|)`` at the ontic state ``psi``.

    Depends only on the POVM, never on how it was implemented.
    """
    if povm.dim != 2:
        raise ValueError("this model describes qubits only")
    rho = psi.density()
    return np.array([born_probability(rho, e) for e in povm.effects])


def bb_sample(prep: BBPreparation, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. ontic states from the preparation's mixture, as
    indices into ``prep.mixture``.

    Deterministic given ``seed``; component choice is inverse-CDF over the
    mixture weights in declaration order.
    """
    _check_sample_count(n)
    return _component_indices(prep, n, _rng(seed))


def _check_sample_count(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one sample")
    if n > MAX_SAMPLES:
        raise ValueError(f"{n} samples exceed the limit of {MAX_SAMPLES} (bbmodel.MAX_SAMPLES)")


def _component_indices(prep: BBPreparation, n: int, rng: np.random.Generator) -> np.ndarray:
    cumulative = np.cumsum([w for w, _ in prep.mixture])
    u = rng.random(n)
    return np.minimum(np.searchsorted(cumulative, u, side="right"), len(prep.mixture) - 1)


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

    def to_json(self) -> dict:
        return {
            "prep": self.prep.to_json(),
            "povm": [matrix_to_json(e.matrix) for e in self.povm.effects],
            "n": self.n,
            "seed": self.seed,
            "frequencies": list(self.frequencies),
            "born": list(self.born),
            "max_abs_dev": self.max_abs_dev,
        }


def bb_simulate(prep: BBPreparation, povm: Povm, n: int, seed: int) -> SimulationReport:
    """Sample ontic states, then outcomes from their response functions.

    The empirical frequencies converge to the Born probabilities of the
    mixture's density operator.  The stream draws one block of ``n``
    uniforms for the component choices followed by one block of ``n`` for
    the outcomes, so the report is a pure function of ``(seed, n)``.
    """
    if povm.dim != 2:
        raise ValueError("this model describes qubits only")
    _check_sample_count(n)
    rng = _rng(seed)
    comps = _component_indices(prep, n, rng)
    u = rng.random(n)
    # One inverse-CDF lookup per component, so memory does not grow with the outcomes.
    counts = np.zeros(povm.outcome_count, dtype=np.int64)
    for k, (_, s) in enumerate(prep.mixture):
        cum = np.cumsum(bb_indicator(povm, s))
        picks = np.searchsorted(cum, u[comps == k], side="right")
        counts += np.bincount(np.minimum(picks, povm.outcome_count - 1), minlength=len(counts))
    freqs = counts / n
    born = np.array([born_probability(prep.density(), e) for e in povm.effects])
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

    def to_json(self) -> dict:
        return {
            "first": self.first.to_json(),
            "second": self.second.to_json(),
            "operationally_equivalent": self.operationally_equivalent,
            "shared_rays": self.shared_rays,
            "total_variation": self.total_variation,
            "preparation_contextual": self.preparation_contextual,
        }


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
    equivalent = prep_equivalent(
        Preparation("first", first.density()), Preparation("second", second.density())
    )

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
        return {
            "trials": self.trials,
            "seed": self.seed,
            "max_abs_dev": self.max_abs_dev,
            "holds": self.holds,
        }


def _random_effect(rng: np.random.Generator) -> np.ndarray:
    """Hermitian matrix with eigenvalues strictly inside (0, 1)."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(g)
    eigs = rng.uniform(0.1, 0.9, size=2)
    return q @ np.diag(eigs) @ q.conj().T


def _random_hermitian(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return (g + g.conj().T) / 2


def _balanced_decomposition(
    e1: np.ndarray, rng: np.random.Generator
) -> tuple[Povm, Povm]:
    """Two POVMs whose equal mixture has first element ``e1``."""
    e2 = np.eye(2) - e1
    d = _random_hermitian(rng)
    spread = float(np.abs(np.linalg.eigvalsh(d)).max())
    room = min(np.linalg.eigvalsh(e1).min(), np.linalg.eigvalsh(e2).min())
    t = 0.9 * room / max(spread, 1e-12)
    plus = Povm((Effect(e1 + t * d), Effect(e2 - t * d)))
    minus = Povm((Effect(e1 - t * d), Effect(e2 + t * d)))
    return plus, minus


def bb_meas_noncontextuality_property(trials: int = 100, seed: int = 7) -> MeasNoncontextualityReport:
    """Check that the model's response functions depend only on the summed
    POVM: for random pairs of distinct equal-weight decompositions of the
    same two-outcome POVM, the mixed response functions agree exactly (by
    linearity of the trace) on random ontic states."""
    rng = _rng(seed)
    worst = 0.0
    for _ in range(trials):
        e1 = _random_effect(rng)
        povm = Povm((Effect(e1), Effect(np.eye(2) - e1)))
        context_a = _balanced_decomposition(e1, rng)
        context_b = _balanced_decomposition(e1, rng)
        for _ in range(3):
            g = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = PureOnticState(g / np.linalg.norm(g))
            direct = bb_indicator(povm, psi)
            via_a = 0.5 * (bb_indicator(context_a[0], psi) + bb_indicator(context_a[1], psi))
            via_b = 0.5 * (bb_indicator(context_b[0], psi) + bb_indicator(context_b[1], psi))
            worst = max(
                worst,
                float(np.abs(via_a - via_b).max()),
                float(np.abs(via_a - direct).max()),
                float(np.abs(via_b - direct).max()),
            )
    return MeasNoncontextualityReport(trials=trials, seed=seed, max_abs_dev=worst)
