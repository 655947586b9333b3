"""Constraint systems for noncontextuality assumptions and their certificates.

The common core of the preparation and transformation no-go arguments is a
tiny constraint-feasibility question: can nonnegative distribution values at
each ontic point satisfy a set of complementarity ("at least one of the pair
vanishes") constraints together with a family of mutually equal linear
forms, while every distribution still carries total mass one?

``pointwise_feasibility`` decides this mechanically.  Stage 1 finds the
pair-free extreme rays of the cone ``{x >= 0 : all forms equal}`` once per
call, by exact integer double description.  Each zero pattern allowed by the
complementarity pairs cuts a face of that cone, whose extreme rays are the
cone's rays that vanish on the pattern's zeros; where the face is ``{0}``,
stage 1 records a human-readable elimination derivation instead, read off
one table of the form differences' signs.  Stage 2, an exact integer
simplex, decides whether nonnegative combinations of the collected rays can
give every variable total mass exactly one; a yes is returned as an explicit
finite model, a ``Witness`` table whose values are exact products of a ray
weight and entry rounded once to float, a no as the exhaustive case table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .operational import OperationalTheory, coin_flip_povm, hexagon_theory, prep_equivalent
from .qmath import (
    IDENTITY_TOL,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    VALIDITY_TOL,
    Effect,
    Povm,
    apply_channel,
    as_fraction,
    born_probability,
    channel_action,
    fields_to_json,
    pure_density,
    vector_norm,
)

if TYPE_CHECKING:
    from .ontomodel import IndicatorSet

#: Hard ceiling on the complementarity pairs, hence on the 2**pairs zero patterns.  With both
#: bounds lifted, the 2k-gon certifies in 0.05, 0.05, 0.32, 0.52 and 2.8 s for k = 8..12 (one
#: CPU of a shared machine, Python 3.11, with serialization); k = 12 exceeds MAX_STAGE1_WORK.
MAX_DISJOINT_PAIRS = 11

#: Hard ceiling on one stage-1 cut: current rays times positive rays times negative rays,
#: the candidate pairs times the rays each adjacency test may scan.  The 2k-gon's largest
#: cut is 2**(3k - 2), 2.1e9 for k = 11.  Systems with no pairs, n variables and n/2 + 1
#: forms with coefficients 1-5 certify or exceed the bound within 2 s for n <= 32 (same
#: machine); without it, such systems with n = 24 and 28 took 23 and 69 s.
MAX_STAGE1_WORK = 4 * 10**9

#: Tolerance of the float re-check of a Feasible witness (``_verify_witness``); stage 2 itself
#: is exact, so this bounds only the rounding of the witness values to floats.
NORMALIZATION_TOL = 1e-9

#: Equally spaced z-x pure states on which ``transf_nogo`` checks disjoint images: the overlap
#: ``Tr(T_u(rho_phi) T_v(rho_phi))`` is a trigonometric polynomial of degree 2 in phi, fixed by 5
#: values, and a deviation eps at them bounds it by 1.99 eps (their Lebesgue constant) everywhere.
DISJOINT_IMAGE_ANGLES = 5


class VerificationError(RuntimeError):
    """A driver failed to certify the verdict its premises guarantee."""


@dataclass(frozen=True)
class ConstraintSystem:
    """Nonnegative pointwise unknowns with complementarity pairs and a family
    of linear forms constrained to be mutually equal at every ontic point."""

    variables: tuple[str, ...]
    disjoint_pairs: tuple[tuple[str, str], ...]
    equality_groups: tuple[tuple[tuple[str, Fraction], ...], ...]

    def __init__(
        self,
        variables: Sequence[str],
        disjoint_pairs: Iterable[Sequence[str]] = (),
        equality_groups: Iterable[Mapping[str, object]] = (),
    ) -> None:
        names = tuple(variables)
        if isinstance(variables, (str, Mapping)) or not all(isinstance(v, str) for v in names):
            raise TypeError(f"variables must be a list of names, got {variables!r}")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        declared = set(names)
        pairs = []
        seen_pairs = set()
        for pair in disjoint_pairs:
            try:
                u, v = pair
            except (TypeError, ValueError):
                u = v = None
            if isinstance(pair, str) or not (isinstance(u, str) and isinstance(v, str)):
                raise TypeError(f"a disjointness pair must be a list of two names, got {pair!r}")
            if u == v:
                raise ValueError(f"a disjointness pair needs two distinct variables, got {u!r}")
            if u not in declared or v not in declared:
                raise ValueError(f"pair ({u!r}, {v!r}) references undeclared variables")
            key = frozenset((u, v))
            if key in seen_pairs:
                raise ValueError(f"duplicate pair ({u!r}, {v!r})")
            seen_pairs.add(key)
            pairs.append((u, v))
        forms = []
        for group in equality_groups:
            if not isinstance(group, Mapping):
                raise TypeError(f"an equality form must map names to coefficients, got {group!r}")
            entries = []
            for var, coeff in group.items():
                if var not in declared:
                    raise ValueError(f"form references undeclared variable {var!r}")
                frac = as_fraction(coeff)
                if frac != 0:
                    entries.append((var, frac))
            entries.sort(key=lambda item: names.index(item[0]))
            forms.append(tuple(entries))
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "disjoint_pairs", tuple(pairs))
        object.__setattr__(self, "equality_groups", tuple(forms))

    def form_dicts(self) -> list[dict[str, Fraction]]:
        return [dict(form) for form in self.equality_groups]

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "disjoint_pairs": [list(p) for p in self.disjoint_pairs],
            "equality_groups": [
                {var: str(coeff) for var, coeff in form} for form in self.equality_groups
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ConstraintSystem":
        return cls(
            variables=doc["variables"],
            disjoint_pairs=doc.get("disjoint_pairs", ()),
            equality_groups=doc.get("equality_groups", ()),
        )


@dataclass(frozen=True)
class DerivationStep:
    """One sound elimination move in a pattern's all-zero derivation."""

    kind: str  # "coefficient-clash" | "vanishing-form" | "sign-elimination"
    variables: tuple[str, ...]
    left_form: int
    right_form: int
    detail: str
    left_coeff: str | None = None
    right_coeff: str | None = None

    def to_json(self) -> dict:
        doc = {
            "kind": self.kind,
            "variables": list(self.variables),
            "left_form": self.left_form,
            "right_form": self.right_form,
            "detail": self.detail,
        }
        if self.left_coeff is not None:
            doc["left_coeff"] = self.left_coeff
            doc["right_coeff"] = self.right_coeff
        return doc


@dataclass(frozen=True)
class CaseRow:
    """One zero pattern with its forced conclusion."""

    pattern: tuple[int, ...]
    zeroed: tuple[str, ...]
    conclusion: str  # "all-zero" | "ray" | "mixed-values"
    ray: tuple[str, ...] | None = None
    steps: tuple[DerivationStep, ...] = ()
    values: tuple[str, ...] | None = None

    def to_json(self) -> dict:
        doc: dict = {
            "pattern": list(self.pattern),
            "zeroed": list(self.zeroed),
            "conclusion": self.conclusion,
        }
        doc["ray"] = list(self.ray) if self.ray is not None else None
        if self.steps:
            doc["steps"] = [s.to_json() for s in self.steps]
        if self.values is not None:
            doc["values"] = list(self.values)
        return doc


@dataclass(frozen=True)
class PremiseCheck:
    name: str
    max_deviation: float

    def to_json(self) -> dict:
        return {"name": self.name, "max_deviation": self.max_deviation}


@dataclass(frozen=True)
class Witness:
    """A finite ontological model of a Feasible system: each variable's
    probability at each of ``ontic_size`` ontic points, as floats."""

    ontic_size: int
    preparations: Mapping[str, tuple[float, ...]]

    def to_json(self) -> dict:
        return {
            "ontic_size": self.ontic_size,
            "preparations": {var: list(values) for var, values in self.preparations.items()},
            "measurements": {},  # the model format's other tables, empty: they keep the bytes
            "transformations": {},
        }


@dataclass(frozen=True)
class Certificate:
    """Feasibility verdict backed by either a ``Witness`` table or a case table."""

    verdict: str  # "Feasible" | "Infeasible"
    system: ConstraintSystem | None
    witness: Witness | None
    cases: tuple[CaseRow, ...]
    premise_checks: tuple[PremiseCheck, ...] = ()

    @property
    def feasible(self) -> bool:
        return self.verdict == "Feasible"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "system": self.system.to_json() if self.system is not None else None,
            "witness": self.witness.to_json() if self.witness is not None else None,
            "cases": [c.to_json() for c in self.cases],
            "premise_checks": [p.to_json() for p in self.premise_checks],
        }


# ---------------------------------------------------------------------------
# Exact integer linear algebra (tiny systems; robustness beats generality).


def _nullspace(rows: list[list[int]], n_cols: int) -> list[list[int]]:
    """Integer basis of the nullspace of integer rows.

    Fraction-free Gauss-Jordan elimination: a row is cleared against the
    pivot row by cross-multiplication and then divided by its gcd, so the
    entries stay small integers.
    """
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(n_cols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pivot = mat[r]
        for i, row in enumerate(mat):
            if i != r and row[c]:
                row = [pivot[c] * x - row[c] * y for x, y in zip(row, pivot)]
                g = math.gcd(*row) or 1
                mat[i] = [x // g for x in row]
        pivots.append(c)
    scale = math.lcm(*(mat[i][c] for i, c in enumerate(pivots)))
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        vec = [0] * n_cols
        vec[free] = scale
        for i, c in enumerate(pivots):
            vec[c] = -mat[i][free] * scale // mat[i][c]
        basis.append(vec)
    return basis


def _integer_forms(system: ConstraintSystem) -> list[list[int]]:
    """The equality forms over their common denominator, as dense integer rows."""
    scale = math.lcm(*(c.denominator for form in system.equality_groups for _, c in form))
    index = {v: i for i, v in enumerate(system.variables)}
    rows = []
    for form in system.equality_groups:
        row = [0] * len(index)
        for v, c in form:
            row[index[v]] = c.numerator * (scale // c.denominator)
        rows.append(row)
    return rows


def _pattern_extreme_rays(
    system: ConstraintSystem, forms: list[list[int]]
) -> list[tuple[int, ...]]:
    """Extreme rays of ``{x >= 0 : all forms equal}`` whose support holds no
    disjoint pair, as primitive integer vectors (nonnegative, gcd 1), ordered by
    support size and then by the support's increasing indices (a support fixes its
    ray up to scale).  ``forms`` is ``_integer_forms(system)``, which the caller
    builds once for this and its sign table.

    Double description over the integers (Fukuda & Prodon 1996): from the orthant's
    unit rays, cut by one equality row at a time, the integer difference of form 0 and
    form i over the forms' common denominator.  Rays on the row are kept; a positive
    ray p and a negative ray q whose support union holds no other ray's support are
    adjacent and give ``v(p)*q - v(q)*p``, divided by its gcd.  Its support is that
    union, so rays holding a pair have no pair-free descendant and are never made; as
    they lie inside no pair-free union, the adjacency test stays exact.  Raises
    ``ValueError`` when a cut would cost more than ``MAX_STAGE1_WORK``.

    A zero pattern's cone is the face of this cone on which its zeros vanish, so its
    extreme rays are these rays whose support avoids them.
    """
    n = len(system.variables)
    index = {v: i for i, v in enumerate(system.variables)}
    partners = [0] * n
    for u, v in system.disjoint_pairs:
        partners[index[u]] |= 1 << index[v]
        partners[index[v]] |= 1 << index[u]
    # A ray is its support, the partners of its support and its integer coordinates.
    rays = [(1 << i, partners[i], [int(i == j) for j in range(n)]) for i in range(n)]
    for cut, other in enumerate(forms[1:]):
        coeffs = [(i, a - b) for i, (a, b) in enumerate(zip(forms[0], other)) if a != b]
        values = [sum(c * vec[i] for i, c in coeffs) for _, _, vec in rays]
        positive = [(ray, x) for ray, x in zip(rays, values) if x > 0]
        negative = [(ray, x) for ray, x in zip(rays, values) if x < 0]
        work = len(rays) * len(positive) * len(negative)
        if work > MAX_STAGE1_WORK:
            raise ValueError(
                f"stage-1 cut {cut} would test {len(positive)} x {len(negative)} ray pairs "
                f"against {len(rays)} rays, over the work bound of {MAX_STAGE1_WORK}"
            )
        masks = [ray[0] for ray in rays]
        kept = [ray for ray, x in zip(rays, values) if x == 0]
        for (p_mask, p_partners, p), p_value in positive:
            for (q_mask, q_partners, q), q_value in negative:
                union = p_mask | q_mask
                # Two rays spanning a 2-face have at most (rows so far) + 2 variables.
                if p_partners & q_mask or union.bit_count() > cut + 2:
                    continue
                if any(m | union == union and m != p_mask and m != q_mask for m in masks):
                    continue
                vec = [p_value * b - q_value * a for a, b in zip(p, q)]
                g = math.gcd(*vec)
                kept.append((union, p_partners | q_partners, [x // g for x in vec]))
        rays = kept
    rays.sort(key=lambda ray: (ray[0].bit_count(), [i for i in range(n) if ray[0] >> i & 1]))
    return [tuple(vec) for _, _, vec in rays]


# ---------------------------------------------------------------------------
# Human-readable all-zero derivations.


def _derive_all_zero(
    system: ConstraintSystem,
    forced_zero: frozenset[str],
    table: tuple[dict[tuple[int, int], tuple[int, int]], list[int]],
) -> tuple[bool, tuple[DerivationStep, ...]]:
    """Iteratively eliminate variables that the pattern forces to zero.

    Two sound moves are used, both relying on the mutual equality of the
    forms and on nonnegativity: if two reduced forms differ by a uniformly
    signed combination of variables, those variables vanish; the special
    case of a single shared variable with clashing coefficients is recorded
    as such, and a form that has already reduced to zero annihilates any
    other uniformly signed form.  Each sweep reads the signs of the form
    differences and the form supports as bitmasks from ``table``, built once
    per certification by ``pointwise_feasibility``, and the first form pair
    with a move wins.  Returns whether every free variable was eliminated,
    plus the recorded steps.
    """
    signs, supports = table
    names = system.variables
    everything = (1 << len(names)) - 1
    zero = sum(1 << b for b, v in enumerate(names) if v in forced_zero)
    steps: list[DerivationStep] = []
    while True:
        live = everything & ~zero
        for (i, j), (positive, negative) in signs.items():
            positive &= live
            negative &= live
            if bool(positive) == bool(negative):
                continue  # equal reduced forms, or a difference of mixed signs
            diff = positive | negative
            vars_ = tuple(sorted(names[b] for b in range(len(names)) if diff >> b & 1))
            left, right = supports[i] & live, supports[j] & live
            if len(vars_) == 1 and diff & left and diff & right:
                v = vars_[0]
                left_coeff = dict(system.equality_groups[i])[v]
                right_coeff = dict(system.equality_groups[j])[v]
                steps.append(
                    DerivationStep(
                        kind="coefficient-clash",
                        variables=(v,),
                        left_form=i,
                        right_form=j,
                        left_coeff=str(left_coeff),
                        right_coeff=str(right_coeff),
                        detail=(
                            f"equating forms {i} and {j} leaves ({left_coeff})*{v} = "
                            f"({right_coeff})*{v}, so {v} = 0"
                        ),
                    )
                )
            elif not left or not right:
                empty, other = (i, j) if not left else (j, i)
                steps.append(
                    DerivationStep(
                        kind="vanishing-form",
                        variables=vars_,
                        left_form=empty,
                        right_form=other,
                        detail=(
                            f"form {empty} reduces to 0, so form {other} = 0 and "
                            f"nonnegativity forces {', '.join(vars_)} = 0"
                        ),
                    )
                )
            else:
                steps.append(
                    DerivationStep(
                        kind="sign-elimination",
                        variables=vars_,
                        left_form=i,
                        right_form=j,
                        detail=(
                            f"forms {i} and {j} differ by a uniformly signed combination "
                            f"of {', '.join(vars_)}, so these vanish"
                        ),
                    )
                )
            zero |= diff
            break
        else:
            return zero == everything, tuple(steps)


# ---------------------------------------------------------------------------
# The certifier.


def _lex_ratio_less(a: list[int], b: list[int], c: int, width: int) -> bool:
    """Whether ``a[:width] / a[c]`` precedes ``b[:width] / b[c]`` lexicographically
    (``a[c]`` and ``b[c]`` positive)."""
    for x, y in zip(a[:width], b[:width]):
        d = x * b[c] - y * a[c]
        if d:
            return d < 0
    return False


@dataclass(frozen=True)
class StageTwoResult:
    """``status`` 0 with exact ray weights ``x``, or 2 when no nonnegative
    weights exist; ``pivots`` counts the simplex pivots taken."""

    status: int
    x: tuple[Fraction, ...] | None
    pivots: int


def linprog(rays: Sequence[Sequence[int]]) -> StageTwoResult:
    """Exact phase-1 simplex for ``sum_j w_j * rays[j] = (1, ..., 1)``, ``w >= 0``,
    over a nonempty list of integer rays of equal length.

    Minimizes the sum of one artificial variable per row, from the artificial
    basis; the system is feasible iff that minimum is exactly 0.  Rows are
    integer and pivots fraction-free (Edmonds 1967): a row is cleared by
    cross-multiplication with the positive pivot and divided by its gcd, so
    every row keeps a positive scale and the signs read below are exact.  The
    objective is one more such row.  Dantzig's rule picks the entering ray; the
    lexicographic ratio test over (rhs, artificial columns) picks the leaving
    row (Dantzig, Orden & Wolfe 1955), which rules out cycling.  An artificial
    that leaves never re-enters: the restricted problem keeps every ray column,
    so its minimum is 0 exactly when the system is feasible.

    On the largest systems the bounds admit, the even 2k-gon takes 10 pivots and
    5.5 ms at k = 8 (256 rays, a 23 ms certificate) and 12 pivots and 27 ms at
    k = 10 (1024 rays, a 0.26 s certificate), against 5.6 and 13 ms for scipy's
    HiGHS on the same programs (one CPU of a shared machine, Python 3.11).
    """
    n_vars = len(rays[0])
    first = 1 + n_vars  # tableau columns: rhs, the artificials, then the rays
    rows = [
        [1] + [int(i == a) for a in range(n_vars)] + [ray[i] for ray in rays]
        for i in range(n_vars)
    ]
    # Reduced costs of the sum of the artificials, and minus its value.
    objective = [-n_vars] + [0] * n_vars + [-sum(ray) for ray in rays]
    basis = list(range(1, first))
    pivots = 0
    while True:
        c = min(range(first, first + len(rays)), key=objective.__getitem__)
        if objective[c] >= 0:
            break
        # Phase 1 is bounded below by 0, so a column with negative cost has a positive entry.
        r = None
        for i, row in enumerate(rows):
            if row[c] > 0 and (r is None or _lex_ratio_less(row, rows[r], c, first)):
                r = i
        pivot, p = rows[r], rows[r][c]
        for row in (*rows, objective):
            if row is not pivot and row[c]:
                new = [p * x - row[c] * y for x, y in zip(row, pivot)]
                g = math.gcd(*new) or 1
                row[:] = [x // g for x in new]
        basis[r] = c
        pivots += 1
    if objective[0]:
        return StageTwoResult(2, None, pivots)
    x = [Fraction(0)] * len(rays)
    for row, b in zip(rows, basis):
        if b >= first:
            x[b - first] = Fraction(row[0], row[b])
    return StageTwoResult(0, tuple(x), pivots)


def pointwise_feasibility(system: ConstraintSystem) -> Certificate:
    """Decide whether normalized distributions can satisfy the system.

    Raises ``ValueError`` for a system without variables, with more than
    ``MAX_DISJOINT_PAIRS`` complementarity pairs, or whose stage 1 would
    exceed ``MAX_STAGE1_WORK``.
    """
    if not system.variables:
        raise ValueError("degenerate system: no variables")
    n_pairs = len(system.disjoint_pairs)
    if n_pairs > MAX_DISJOINT_PAIRS:
        raise ValueError(
            f"{n_pairs} disjointness pairs exceed the enumeration bound of {MAX_DISJOINT_PAIRS}"
        )

    forms = _integer_forms(system)
    all_rays = _pattern_extreme_rays(system, forms)
    index = {v: b for b, v in enumerate(system.variables)}
    # The table _derive_all_zero reads: for each form pair (i, j), the variables where
    # form i minus form j is positive and where it is negative; each form's support.
    signs = {}
    for i, j in itertools.combinations(range(len(forms)), 2):
        diff = [a - b for a, b in zip(forms[i], forms[j])]
        signs[i, j] = tuple(sum(1 << b for b, d in enumerate(diff) if s * d > 0) for s in (1, -1))
    table = (signs, [sum(1 << b for b, c in enumerate(form) if c) for form in forms])
    supports = [sum(1 << b for b, x in enumerate(ray) if x) for ray in all_rays]
    cases: list[CaseRow] = []
    used: dict[int, None] = {}  # indices into all_rays, in order of first use
    for bits in itertools.product((0, 1), repeat=n_pairs):
        forced = frozenset(system.disjoint_pairs[i][bits[i]] for i in range(n_pairs))
        zeros = sum(1 << index[v] for v in forced)
        pattern_rays = [i for i, sup in enumerate(supports) if not sup & zeros]
        if pattern_rays:
            vec = all_rays[pattern_rays[0]]
            f = next(x for x in vec if x)  # the row shows the ray with first nonzero entry 1
            ray = tuple(str(Fraction(x, f)) if x % f else str(x // f) for x in vec)
            cases.append(CaseRow(bits, tuple(sorted(forced)), "ray", ray=ray))
            used.update(dict.fromkeys(pattern_rays))
        else:
            complete, steps = _derive_all_zero(system, forced, table)
            row = CaseRow(bits, tuple(sorted(forced)), "all-zero", steps=steps if complete else ())
            cases.append(row)

    rays = [all_rays[i] for i in used]
    if not rays:
        return Certificate("Infeasible", system, None, tuple(cases))

    # Stage 2: nonnegative ray weights giving every variable total mass exactly one.
    result = linprog(rays)
    if result.status == 2:  # proven infeasible
        return Certificate("Infeasible", system, None, tuple(cases))
    witness = _witness_model(system, [(w, ray) for w, ray in zip(result.x, rays) if w])
    _verify_witness(system, witness, NORMALIZATION_TOL)
    return Certificate("Feasible", system, witness, tuple(cases))


def _witness_model(
    system: ConstraintSystem, used: list[tuple[Fraction, tuple[int, ...]]]
) -> Witness:
    """One ontic point per weighted ray.  A variable's value at a point is the
    exact product ``w * ray[i]`` rounded once to float: int / int true division
    is correctly rounded, where a float multiply would round twice."""
    preparations = {
        var: tuple(ray[i] * w.numerator / w.denominator for w, ray in used)
        for i, var in enumerate(system.variables)
    }
    return Witness(len(used), preparations)


def _verify_witness(system: ConstraintSystem, witness: Witness, tol: float) -> None:
    """Re-check the witness against the system it claims to satisfy, in floats."""
    values = witness.preparations
    points = range(witness.ontic_size)
    if any(len(values[var]) != len(points) for var in system.variables):
        raise VerificationError(f"witness values do not cover its {len(points)} ontic points")
    worst = 0.0
    for var in system.variables:
        worst = max(worst, abs(sum(values[var]) - 1.0), -min(values[var]))
    for u, v in system.disjoint_pairs:
        worst = max(worst, *(a * b for a, b in zip(values[u], values[v])))
    evaluated = []
    for form in system.equality_groups:
        terms = [(float(c), values[var]) for var, c in form]
        evaluated.append([sum(c * column[p] for c, column in terms) for p in points])
    for other in evaluated[1:]:
        worst = max(worst, *(abs(a - b) for a, b in zip(evaluated[0], other)))
    if worst > tol:
        raise VerificationError(f"witness deviates from its system by {worst:.3e}")


# ---------------------------------------------------------------------------
# From an operational theory to its constraint system.


def system_from_theory(theory: OperationalTheory) -> ConstraintSystem:
    """Derive the pointwise system a noncontextual model of the theory must
    solve: one variable per non-target preparation, disjointness from
    orthogonality, one equality form per declared preparation mixture.
    Equivalence and orthogonality are decided within ``theory.tol``.

    Serves ``prep_nogo`` and ``feasibility`` with a theory as given, and
    ``transf_nogo`` with the theory of its channels' images of one state.

    Raises ``ValueError`` when the mixture targets are not all equivalent or
    a mixture component is itself a mixture target.  The weights are the
    exact ones ``MixtureDecl`` holds.
    """
    decls = [d for d in theory.mixtures if d.kind == "prep"]
    targets = {d.target for d in decls}
    target_preps = [theory.preparations[t] for t in sorted(targets)]
    if not all(prep_equivalent(target_preps[0], p, tol=theory.tol) for p in target_preps[1:]):
        raise ValueError(
            "mixture targets fall into more than one equivalence class; "
            "this system type has a single family of mutually equal forms"
        )
    nested = [label for d in decls for _, label in d.components if label in targets]
    if nested:
        raise ValueError(f"mixture component {nested[0]!r} is itself a mixture target; unsupported")
    variables = [label for label in theory.preparations if label not in targets]
    rho = {label: theory.preparations[label].matrix for label in variables}
    pairs = [
        (u, v)
        for i, u in enumerate(variables)
        for v in variables[i + 1 :]
        if float(np.abs(rho[u] @ rho[v]).max()) <= theory.tol
    ]
    return ConstraintSystem(variables, pairs, [d.weights() for d in decls])


def _check_premises(checks: Sequence[PremiseCheck]) -> None:
    for check in checks:
        if check.max_deviation > IDENTITY_TOL:
            raise VerificationError(f"premise {check.name!r} deviates by {check.max_deviation:.3e}")


def _label_of(matrix: np.ndarray, named: Mapping[str, np.ndarray], error: str) -> str:
    """The first name whose matrix equals ``matrix`` within ``IDENTITY_TOL``."""
    for label, candidate in named.items():
        if np.abs(candidate - matrix).max() <= IDENTITY_TOL:
            return label
    raise VerificationError(error)


def _certify_infeasible(
    system: ConstraintSystem, checks: Sequence[PremiseCheck], name: str
) -> Certificate:
    """Check the premises, then certify the system they make Infeasible."""
    _check_premises(checks)
    cert = pointwise_feasibility(system)
    if cert.feasible:
        raise VerificationError(f"the {name} system was unexpectedly feasible")
    return Certificate("Infeasible", cert.system, None, cert.cases, tuple(checks))


# ---------------------------------------------------------------------------
# The preparation no-go driver.


def prep_nogo() -> Certificate:
    """Certify that no noncontextual assignment of distributions exists for
    the six hexagon preparations.

    First verifies the numeric premises on the canonical instance (the three
    orthogonalities that imply single-shot distinguishability, and the five
    mixtures all equal to the completely mixed state, as the theory measured
    them), then runs the pointwise certifier on the system derived from the
    instance, whose verdict must be Infeasible.
    """
    theory = hexagon_theory()
    system = system_from_theory(theory)
    rho = {label: p.matrix for label, p in theory.preparations.items()}
    orthogonality = max(float(np.abs(rho[u] @ rho[v]).max()) for u, v in system.disjoint_pairs)
    checks = (
        PremiseCheck("orthogonality", orthogonality),
        PremiseCheck("mixtures-equal-center", max(theory.deviations_of("prep"))),
    )
    return _certify_infeasible(system, checks, "preparation")


# ---------------------------------------------------------------------------
# The measurement no-go driver.


@dataclass(frozen=True)
class ForcedIndicator:
    """The constant indicator pair forced for the coin-flip measurement."""

    outcome_count: int
    by_state_independence: tuple[float, float]
    by_permutation_symmetry: tuple[float, float]
    values: tuple[float, float]

    def indicator_set(self) -> IndicatorSet:
        """The forced pair as an indicator set on a one-point ontic space."""
        from .ontomodel import IndicatorSet

        return IndicatorSet(np.array(self.values).reshape(-1, 1))


def trivial_povm_forced_indicator(coin: Povm | None = None) -> ForcedIndicator:
    """Derive the forced representation of the coin-flip measurement ``coin``
    (``coin_flip_povm()`` when not given) twice.

    (a) Its outcome statistics are independent of the prepared state, since
    ``Tr(rho I/2) = 1/2`` for every state, so each indicator function is the
    constant one half.  (b) Swapping the two outcomes leaves the measurement
    in the same equivalence class, so a noncontextual representation must
    satisfy ``xi_1 = xi_2`` alongside ``xi_1 + xi_2 = 1``.  Both derivations
    must agree.
    """
    half_identity = (coin_flip_povm() if coin is None else coin)[0]
    # For the state with Bloch vector r, Tr(rho E) = (tr E + r . (tr XE, tr YE, tr ZE)) / 2,
    # so over the whole Bloch ball it strays from 1/2 by at most this much.
    m = half_identity.matrix
    pauli_traces = [np.trace(p @ m) for p in (PAULI_X, PAULI_Y, PAULI_Z)]
    dev = (abs(np.trace(m) - 1.0) + float(np.linalg.norm(pauli_traces))) / 2
    if dev > IDENTITY_TOL:
        raise VerificationError(f"coin-flip statistics depend on the state (dev {dev:.3e})")
    born = born_probability(pure_density((1.0, 0.0)), half_identity)  # the hexagon's state a
    by_independence = (born, 1.0 - born)

    # Exact solve of xi_1 - xi_2 = 0, xi_1 + xi_2 = 1: the kernel (xi_1, xi_2, 1) up to scale.
    (kernel,) = _nullspace([[1, -1, 0], [1, 1, -1]], 3)
    by_symmetry = (float(Fraction(kernel[0], kernel[2])), float(Fraction(kernel[1], kernel[2])))

    if max(abs(x - y) for x, y in zip(by_independence, by_symmetry)) > IDENTITY_TOL:
        raise VerificationError("the two forced-indicator derivations disagree")
    return ForcedIndicator(
        outcome_count=2,
        by_state_independence=by_independence,
        by_permutation_symmetry=by_symmetry,
        values=by_symmetry,
    )


def meas_nogo() -> Certificate:
    """Certify that outcome-deterministic sharp representations cannot mix to
    the forced coin-flip representation.

    Reads the PVMs and weights of the theory's mixture ``M``, the coin flip,
    as the theory measured it, and names each PVM outcome by the preparation
    equal to its effect.  No deterministic assignment to the PVMs (one
    outcome of each takes the value 1) may mix, with the exact weights, to
    the values that noncontextuality forces for the coin flip.
    """
    theory = hexagon_theory()
    mixed = theory.measurements["M"]
    forced = trivial_povm_forced_indicator(mixed)
    checks = (
        PremiseCheck("mixed-povm-equals-coin-povm", max(theory.deviations_of("meas"))),
        PremiseCheck("forced-coin-indicator", max(abs(v - 0.5) for v in forced.values)),
    )
    _check_premises(checks)

    decl = next(d for d in theory.mixtures if d.kind == "meas" and d.target == "M")
    weights = decl.weights()
    rho = {label: p.matrix for label, p in theory.preparations.items()}
    outcome_states = []
    for name in weights:
        effects = [e.matrix for e in theory.measurements[name].effects]
        if any(np.abs(e @ e - e).max() > IDENTITY_TOL for e in effects):
            raise VerificationError(f"mixture component {name!r} is not a PVM")
        outcome_states.append([_label_of(e, rho, f"no state names {name!r}") for e in effects])

    rows = []
    for bits in itertools.product(range(mixed.outcome_count), repeat=len(weights)):
        values = [Fraction(0)] * mixed.outcome_count
        for w, b in zip(weights.values(), bits):
            values[b] += w
        if tuple(values) == forced.values:
            raise VerificationError(f"assignment {bits} mixes to the forced values {forced.values}")
        zeroed = sorted(
            s for states, b in zip(outcome_states, bits) for k, s in enumerate(states) if k != b
        )
        rows.append(CaseRow(bits, tuple(zeroed), "mixed-values", values=tuple(map(str, values))))
    return Certificate("Infeasible", None, None, tuple(rows), checks)


@dataclass(frozen=True)
class OdUnsharpReport:
    """The coin-flip POVM's forced representation versus outcome determinism."""

    povm: Povm
    forced_values: tuple[float, float]
    outcome_deterministic: bool
    contradiction: bool

    to_json = fields_to_json


def od_unsharp_contradiction() -> OdUnsharpReport:
    """Outcome determinism for unsharp measurements contradicts measurement
    noncontextuality: the coin-flip POVM's forced constant representation is
    not idempotent."""
    from .ontomodel import is_outcome_deterministic

    coin = coin_flip_povm()
    forced = trivial_povm_forced_indicator(coin)
    deterministic = is_outcome_deterministic(forced.indicator_set())
    return OdUnsharpReport(
        povm=coin,
        forced_values=forced.values,
        outcome_deterministic=deterministic,
        contradiction=not deterministic,
    )


# ---------------------------------------------------------------------------
# The transformation no-go driver.


def transf_nogo() -> Certificate:
    """Certify that no noncontextual assignment of transition matrices exists
    for the six rotations and the projection channel.

    Step 1 verifies the five convex decompositions K1-K5 of the projection
    channel at the Choi level.  Step 2 applies every transformation to the
    theory's first preparation: each channel decomposition becomes one of
    that state's image, and ``system_from_theory`` derives the system of the
    images, whose orthogonal pairs are the disjoint pairs.  Step 3 verifies
    that each pair has orthogonal outputs on every z-x pure state, checked on
    the ``DISJOINT_IMAGE_ANGLES`` states that fix the overlap.  Step 4
    certifies the system, which must be infeasible.
    """
    from .kraus import decomposition_deviations

    theory = hexagon_theory()
    checks = [PremiseCheck(name, dev) for name, dev in decomposition_deviations(theory)]

    first = next(iter(theory.preparations.values()))
    images = OperationalTheory(
        {label: apply_channel(channel, first) for label, channel in theory.transformations.items()},
        mixtures=[replace(d, kind="prep") for d in theory.mixtures if d.kind == "transf"],
    )
    system = system_from_theory(images)

    worst = 0.0
    for k in range(DISJOINT_IMAGE_ANGLES):
        phi = 2 * math.pi * k / DISJOINT_IMAGE_ANGLES
        rho = pure_density(np.array([math.cos(phi / 2), math.sin(phi / 2)])).matrix
        for u, v in system.disjoint_pairs:
            out1 = channel_action(theory.transformations[u], rho)
            out2 = channel_action(theory.transformations[v], rho)
            worst = max(worst, abs(complex(np.trace(out1 @ out2))))
    checks.append(PremiseCheck("disjoint-image", worst))
    return _certify_infeasible(system, checks, "transformation")


# ---------------------------------------------------------------------------
# The full-measurement-set contradiction.


@dataclass(frozen=True)
class GleasonWitness:
    """A strictly fractional value forced on an allegedly idempotent function.

    Under measurement noncontextuality every effect is represented by one
    response function, and the generalized quadratic-form representation
    theorem makes that function ``Tr(rho_lambda E)`` for some state assigned
    to each ontic state.  Where the function of the first projector takes
    the value 1, the assigned state is that projector's ray, so the second
    projector's function takes the squared overlap as its value, which is
    strictly between 0 and 1.
    """

    psi: np.ndarray
    psi_prime: np.ndarray
    forced_value: float
    contradiction: bool

    to_json = fields_to_json


def gleason_contradiction(
    psi: Sequence[complex], psi_prime: Sequence[complex], tol: float = VALIDITY_TOL
) -> GleasonWitness:
    """Force a strictly fractional response value from two non-orthogonal,
    non-parallel unit vectors, squared norm within ``VALIDITY_TOL``; raises
    ``ValueError`` when the overlap is 0 or 1 within ``tol``, which governs
    only the overlap (no contradiction is available from such a pair)."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    w = np.asarray(psi_prime, dtype=complex).reshape(-1)
    if v.shape != (2,) or w.shape != (2,):
        raise ValueError("expected two 2-component state vectors")
    if abs(vector_norm(np.stack([v, w])) ** 2 - 1.0).max() > VALIDITY_TOL:
        raise ValueError("state vectors must be normalized")
    forced = born_probability(pure_density(v), Effect(np.outer(w, w.conj())))
    if forced <= tol:
        raise ValueError("orthogonal pair: the forced value is 0, not fractional")
    if forced >= 1.0 - tol:
        raise ValueError("parallel pair: the forced value is 1, not fractional")
    return GleasonWitness(psi=v, psi_prime=w, forced_value=forced, contradiction=True)
