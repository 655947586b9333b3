"""Ontological models on a finite ontic space.

Distributions over ontic states, indicator-function sets for measurements,
transition matrices for transformations, the prediction rule contracting
them, and the structural classifications (outcome determinism, ontic versus
epistemic view of states).  All of the integrals of the continuum picture
become finite sums here; every no-go argument is pointwise in the ontic
state, so finite spaces suffice to witness feasibility.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .operational import OperationalTheory
from .qmath import VALIDITY_TOL, apply_channel, born_probability, frozen_array

#: Label of the completely mixed state in ``outcome_determinism_from_prep_nc``.
MIXED_LABEL = "I/d"


@dataclass(frozen=True)
class OnticSpace:
    """A finite set of ontic states, indexed ``0 .. size-1``."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("an ontic space needs at least one point")


@dataclass(frozen=True)
class Distribution:
    """A normalized probability vector over the ontic states."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = frozen_array(self.weights, float).reshape(-1)
        if w.size < 1:
            raise ValueError("empty distribution")
        if w.min() < -VALIDITY_TOL:
            raise ValueError(f"negative probability {w.min():.3e}")
        if abs(w.sum() - 1.0) > VALIDITY_TOL:
            raise ValueError(f"distribution sums to {w.sum()}, not 1")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class IndicatorSet:
    """Per-outcome response functions: a ``K x N`` array with unit column sums."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = frozen_array(self.values, float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("indicator values must form a K x N array")
        if v.min() < -VALIDITY_TOL or v.max() > 1.0 + VALIDITY_TOL:
            raise ValueError("indicator values must lie in [0, 1]")
        cols = v.sum(axis=0)
        if np.abs(cols - 1.0).max() > VALIDITY_TOL:
            raise ValueError("indicator columns must sum to 1 for every ontic state")
        object.__setattr__(self, "values", v)

    @property
    def outcome_count(self) -> int:
        return self.values.shape[0]

    @property
    def size(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class TransitionMatrix:
    """Column-stochastic matrix; a new distribution is ``matrix @ old``."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = frozen_array(self.matrix, float)
        if m.ndim != 2:
            raise ValueError("transition matrix must be 2-d")
        if m.min() < -VALIDITY_TOL:
            raise ValueError("transition probabilities must be nonnegative")
        cols = m.sum(axis=0)
        if np.abs(cols - 1.0).max() > VALIDITY_TOL:
            raise ValueError("each transition-matrix column must sum to 1")
        object.__setattr__(self, "matrix", m)

    @property
    def size_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def size_out(self) -> int:
        return self.matrix.shape[0]


@dataclass
class OntModel:
    """Label-keyed representations of procedures over a shared ontic space."""

    space: OnticSpace
    prep_map: dict[str, Distribution] = field(default_factory=dict)
    meas_map: dict[str, IndicatorSet] = field(default_factory=dict)
    transf_map: dict[str, TransitionMatrix] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.space.size
        for label, mu in self.prep_map.items():
            if mu.size != n:
                raise ValueError(f"distribution {label!r} lives on the wrong space")
        for label, xi in self.meas_map.items():
            if xi.size != n:
                raise ValueError(f"indicator set {label!r} lives on the wrong space")
        for label, gamma in self.transf_map.items():
            if gamma.size_in != n or gamma.size_out != n:
                raise ValueError(f"transition matrix {label!r} lives on the wrong space")

    def to_json(self) -> dict:
        return {
            "ontic_size": self.space.size,
            "preparations": {l: list(map(float, mu.weights)) for l, mu in self.prep_map.items()},
            "measurements": {
                l: [list(map(float, row)) for row in xi.values] for l, xi in self.meas_map.items()
            },
            "transformations": {
                l: [list(map(float, row)) for row in g.matrix] for l, g in self.transf_map.items()
            },
        }

    @classmethod
    def from_json(cls, doc: dict) -> "OntModel":
        return cls(
            space=OnticSpace(int(doc["ontic_size"])),
            prep_map={l: Distribution(np.array(w)) for l, w in doc.get("preparations", {}).items()},
            meas_map={l: IndicatorSet(np.array(v)) for l, v in doc.get("measurements", {}).items()},
            transf_map={
                l: TransitionMatrix(np.array(m)) for l, m in doc.get("transformations", {}).items()
            },
        )


# ---------------------------------------------------------------------------
# The prediction rule and pointwise structure.


def predict(mu: Distribution, gamma: TransitionMatrix | None, xi: IndicatorSet) -> np.ndarray:
    """Outcome probabilities ``p_k = sum_{l',l} xi_k(l') Gamma(l',l) mu(l)``.

    ``gamma=None`` means the identity transformation.  The result is a
    probability vector over outcomes.
    """
    w = mu.weights
    if gamma is not None:
        if gamma.size_in != mu.size:
            raise ValueError("transition matrix and distribution sizes differ")
        w = gamma.matrix @ w
    if xi.size != w.size:
        raise ValueError("indicator set and distribution sizes differ")
    return xi.values @ w


def evolve(gamma: TransitionMatrix, mu: Distribution) -> Distribution:
    """Push a distribution through a transition matrix."""
    if gamma.size_in != mu.size:
        raise ValueError("transition matrix and distribution sizes differ")
    return Distribution(gamma.matrix @ mu.weights)


def compose(second: TransitionMatrix, first: TransitionMatrix) -> TransitionMatrix:
    """Transition matrix of ``first`` followed by ``second``."""
    if second.size_in != first.size_out:
        raise ValueError("transition matrices do not compose")
    return TransitionMatrix(second.matrix @ first.matrix)


def support(mu: Distribution, tol: float = VALIDITY_TOL) -> frozenset[int]:
    """Indices carrying more than ``tol`` probability."""
    return frozenset(int(i) for i in np.flatnonzero(mu.weights > tol))


def disjoint(mu: Distribution, nu: Distribution, tol: float = VALIDITY_TOL) -> bool:
    """True iff the pointwise product vanishes everywhere (disjoint supports)."""
    if mu.size != nu.size:
        raise ValueError("distributions live on different spaces")
    return bool((mu.weights * nu.weights).max() <= tol)


def is_outcome_deterministic(xi: IndicatorSet, tol: float = VALIDITY_TOL) -> bool:
    """True iff every indicator value is within ``tol`` of 0 or 1 (idempotent)."""
    v = xi.values
    return bool(np.minimum(np.abs(v), np.abs(v - 1.0)).max() <= tol)


# ---------------------------------------------------------------------------
# Structural classification of state representations.


class StateView(enum.Enum):
    ONTIC = "Ontic"
    EPISTEMIC = "Epistemic"
    NEITHER = "Neither"


@dataclass(frozen=True)
class StateViewReport:
    view: StateView
    vacuous: bool
    #: per unordered pair: (label, label, orthogonal, disjoint)
    pairs: tuple[tuple[str, str, bool, bool], ...]


def classify_state_view(
    model: OntModel,
    prep_labels: Iterable[str],
    orthogonality: Callable[[str, str], bool],
) -> StateViewReport:
    """Classify how a set of state representations treats distinctness.

    Epistemic: distributions are disjoint exactly for the orthogonal pairs.
    Ontic: every distinct pair is disjoint.  When both criteria hold (in
    particular for fewer than two labels, where the check is vacuous) the
    weaker Epistemic verdict is returned.
    """
    labels = sorted(set(prep_labels))
    for label in labels:
        if label not in model.prep_map:
            raise KeyError(f"no distribution for label {label!r}")
    rows = []
    for i, x in enumerate(labels):
        for y in labels[i + 1 :]:
            orth = bool(orthogonality(x, y))
            dis = disjoint(model.prep_map[x], model.prep_map[y])
            rows.append((x, y, orth, dis))
    vacuous = not rows
    epistemic = all(orth == dis for _, _, orth, dis in rows)
    ontic = all(dis for _, _, _, dis in rows)
    if epistemic:
        view = StateView.EPISTEMIC
    elif ontic:
        view = StateView.ONTIC
    else:
        view = StateView.NEITHER
    return StateViewReport(view=view, vacuous=vacuous, pairs=tuple(rows))


# ---------------------------------------------------------------------------
# Bulk verification against an operational theory.


@dataclass(frozen=True)
class TripleDeviation:
    prep: str
    transf: str | None
    meas: str
    deviation: float


@dataclass(frozen=True)
class ReproductionReport:
    max_deviation: float
    #: triples exceeding the requested tolerance, in deterministic label order
    failures: tuple[TripleDeviation, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def model_reproduces_theory(
    model: OntModel, theory: OperationalTheory, tol: float = VALIDITY_TOL
) -> ReproductionReport:
    """Compare the model's predictions to the Born rule on every triple.

    Every (preparation, optional transformation, measurement) combination
    over the theory's labels is evaluated; the report carries the maximum
    deviation and all failing triples.  Raises ``KeyError`` when the model
    lacks a representation for one of the theory's labels.
    """
    for label in theory.preparations:
        if label not in model.prep_map:
            raise KeyError(f"model has no distribution for preparation {label!r}")
    for label in theory.measurements:
        if label not in model.meas_map:
            raise KeyError(f"model has no indicator set for measurement {label!r}")
    for label in theory.transformations:
        if label not in model.transf_map:
            raise KeyError(f"model has no transition matrix for {label!r}")

    worst = 0.0
    failures: list[TripleDeviation] = []
    transf_options: list[str | None] = [None] + sorted(theory.transformations)
    for p_label in sorted(theory.preparations):
        prep = theory.preparations[p_label]
        mu = model.prep_map[p_label]
        for t_label in transf_options:
            if t_label is None:
                rho, gamma = prep.rho, None
            else:
                rho = apply_channel(theory.transformations[t_label].channel, prep.rho)
                gamma = model.transf_map[t_label]
            for m_label in sorted(theory.measurements):
                meas = theory.measurements[m_label]
                predicted = predict(mu, gamma, model.meas_map[m_label])
                born = np.array([born_probability(rho, e) for e in meas.povm.effects])
                dev = float(np.abs(predicted - born).max())
                worst = max(worst, dev)
                if dev > tol:
                    failures.append(TripleDeviation(p_label, t_label, m_label, dev))
    return ReproductionReport(max_deviation=worst, failures=tuple(failures))


# ---------------------------------------------------------------------------
# Outcome determinism from preparation noncontextuality.


@dataclass(frozen=True)
class DeterminismStep:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class DeterminismReport:
    steps: tuple[DeterminismStep, ...]
    passed: bool
    failing_step: str | None


def outcome_determinism_from_prep_nc(
    model: OntModel,
    pvm_label: str,
    prep_labels: Sequence[str],
    d: int,
) -> DeterminismReport:
    """Check the chain from preparation noncontextuality to sharp determinism.

    For a rank-1 PVM whose elements double as an orthogonal set of pure
    preparations, verifies that (i) the preparation distributions have
    pairwise disjoint supports, (ii) the union of those supports equals the
    support of the completely mixed state's distribution (``MIXED_LABEL``)
    and exhausts the whole space, and (iii) the uniform 1/d mixture of the
    distributions reproduces the completely mixed distribution.  When all three hold, the
    PVM's indicator functions are certified idempotent (and reproduce the
    Kronecker-delta statistics on the given preparations).  The report names
    the first failing step otherwise.
    """
    if pvm_label not in model.meas_map:
        raise KeyError(f"model has no indicator set for {pvm_label!r}")
    for label in list(prep_labels) + [MIXED_LABEL]:
        if label not in model.prep_map:
            raise KeyError(f"model has no distribution for {label!r}")
    if len(prep_labels) != d:
        raise ValueError(f"expected {d} preparations for a rank-1 PVM in dimension {d}")

    mus = [model.prep_map[label] for label in prep_labels]
    mu_mixed = model.prep_map[MIXED_LABEL]
    steps: list[DeterminismStep] = []

    overlaps = [
        (prep_labels[i], prep_labels[j])
        for i in range(len(mus))
        for j in range(i + 1, len(mus))
        if not disjoint(mus[i], mus[j])
    ]
    steps.append(
        DeterminismStep(
            "disjoint-supports",
            not overlaps,
            "pairwise disjoint" if not overlaps else f"overlapping pairs: {overlaps}",
        )
    )

    union = frozenset().union(*(support(mu) for mu in mus))
    mixed_support = support(mu_mixed)
    full = frozenset(range(model.space.size))
    ok_union = union == mixed_support == full
    steps.append(
        DeterminismStep(
            "support-union-covers-space",
            ok_union,
            f"union {sorted(union)}, mixed-state support {sorted(mixed_support)}, "
            f"space size {model.space.size}",
        )
    )

    mix = sum(mu.weights for mu in mus) / d
    mix_dev = float(np.abs(mix - mu_mixed.weights).max())
    steps.append(
        DeterminismStep("mixture-sum", mix_dev <= VALIDITY_TOL, f"max deviation {mix_dev:.3e}")
    )

    premises_ok = all(s.passed for s in steps)
    xi = model.meas_map[pvm_label]
    if premises_ok:
        stats_dev = 0.0
        if xi.outcome_count == len(mus):
            for k, mu in enumerate(mus):
                probs = predict(mu, None, xi)
                target = np.zeros(xi.outcome_count)
                target[k] = 1.0
                stats_dev = max(stats_dev, float(np.abs(probs - target).max()))
        idempotent = is_outcome_deterministic(xi) and stats_dev <= VALIDITY_TOL
        steps.append(
            DeterminismStep(
                "indicators-idempotent",
                idempotent,
                f"delta-statistics deviation {stats_dev:.3e}",
            )
        )

    failing = next((s.name for s in steps if not s.passed), None)
    return DeterminismReport(steps=tuple(steps), passed=failing is None, failing_step=failing)
