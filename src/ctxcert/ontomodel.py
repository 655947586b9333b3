"""Ontological models on a finite ontic space.

Distributions over ontic states for preparations, indicator-function sets
for measurements, the prediction rule contracting them, and the derivation
of outcome determinism from preparation noncontextuality.  All of the
integrals of the continuum picture become finite sums here; every no-go
argument is pointwise in the ontic state, so finite spaces suffice to
witness feasibility.  A transformation meets a model only through the
preparations it produces, so a model holds no transition matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .qmath import VALIDITY_TOL, frozen_array

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


@dataclass
class OntModel:
    """Label-keyed representations of procedures over a shared ontic space."""

    space: OnticSpace
    prep_map: dict[str, Distribution] = field(default_factory=dict)
    meas_map: dict[str, IndicatorSet] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.space.size
        for label, mu in self.prep_map.items():
            if mu.size != n:
                raise ValueError(f"distribution {label!r} lives on the wrong space")
        for label, xi in self.meas_map.items():
            if xi.size != n:
                raise ValueError(f"indicator set {label!r} lives on the wrong space")


# ---------------------------------------------------------------------------
# The prediction rule and pointwise structure.


def predict(mu: Distribution, xi: IndicatorSet) -> np.ndarray:
    """Outcome probabilities ``p_k = sum_l xi_k(l) mu(l)``, a probability vector."""
    if xi.size != mu.size:
        raise ValueError("indicator set and distribution sizes differ")
    return xi.values @ mu.weights


def support(mu: Distribution) -> frozenset[int]:
    """Indices carrying more than ``VALIDITY_TOL`` probability."""
    return frozenset(int(i) for i in np.flatnonzero(mu.weights > VALIDITY_TOL))


def disjoint(mu: Distribution, nu: Distribution) -> bool:
    """True iff the pointwise product vanishes everywhere (disjoint supports)."""
    if mu.size != nu.size:
        raise ValueError("distributions live on different spaces")
    return bool((mu.weights * nu.weights).max() <= VALIDITY_TOL)


def is_outcome_deterministic(xi: IndicatorSet) -> bool:
    """True iff every indicator value is within ``VALIDITY_TOL`` of 0 or 1 (idempotent)."""
    v = xi.values
    return bool(np.minimum(np.abs(v), np.abs(v - 1.0)).max() <= VALIDITY_TOL)


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
                probs = predict(mu, xi)
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
