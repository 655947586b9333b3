"""Brute-force feasibility oracle, independent of the certifier's route.

The oracle assigns one complementarity zero pattern to each ontic point and
decides the resulting exact linear feasibility problem (pointwise form
equalities plus per-variable normalization, all unknowns nonnegative) by
enumerating rational basic solutions.  Two points carrying the same pattern
can always be merged (a pattern's pointwise solution set is a convex cone,
closed under addition), so it suffices to try sets of distinct patterns;
with at most two pairs there are at most four patterns, and a feasible
instance over at most four variables always has a witness of at most four
points, so the search is exhaustive for the generated family.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from ctxcert.nogo import ConstraintSystem


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve a full-column-rank square-ish system exactly; ``None`` when the
    columns are dependent or the system is inconsistent."""
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivot_rows: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if aug[i][c] != 0), None)
        if pivot is None:
            return None  # dependent columns: not a basis
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][c]
        aug[r] = [x / inv for x in aug[r]]
        for i in range(n_rows):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivot_rows.append(r)
        r += 1
    for i in range(r, n_rows):
        if aug[i][n_cols] != 0:
            return None  # inconsistent
    return [aug[i][n_cols] for i in range(n_cols)]


def _rank(rows: list[list[Fraction]]) -> int:
    mat = [list(r) for r in rows]
    n_cols = len(mat[0]) if mat else 0
    rank = 0
    for c in range(n_cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][c]
        mat[rank] = [x / inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _kernel(rows: list[list[Fraction]], n_cols: int) -> list[list[Fraction]]:
    """Basis of ``{x : rows x = 0}``, one vector per free column of the
    reduced row echelon form."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -mat[i][free]
        basis.append(vec)
    return basis


def pair_free_extreme_rays(system: ConstraintSystem) -> list[tuple[Fraction, ...]]:
    """Reference for the certifier's stage 1: the extreme rays of
    ``{x >= 0 : all forms equal}`` whose support holds no disjoint pair, each
    scaled so its first nonzero entry is 1, ordered by support size and then
    lexicographically by support.

    A nonzero ``x >= 0`` in the cone is an extreme ray exactly when the
    equalities restricted to its support have a one-dimensional kernel, which
    needs at most rank + 1 variables; every pair-free support up to that size
    is tried.
    """
    names = system.variables
    forms = system.form_dicts()
    zero = Fraction(0)
    rows = [[forms[0].get(v, zero) - other.get(v, zero) for v in names] for other in forms[1:]]
    rank = len(names) - len(_kernel(rows, len(names)))
    pairs = [set(pair) for pair in system.disjoint_pairs]
    rays = []
    for size in range(1, min(len(names), rank + 1) + 1):
        for support in itertools.combinations(range(len(names)), size):
            if any(pair <= {names[j] for j in support} for pair in pairs):
                continue
            basis = _kernel([[row[j] for j in support] for row in rows], size)
            if len(basis) != 1:
                continue
            vec = basis[0]
            if not (all(x > 0 for x in vec) or all(x < 0 for x in vec)):
                continue
            ray = [zero] * len(names)
            for j, x in zip(support, vec):
                ray[j] = x / vec[0]
            rays.append(tuple(ray))
    return rays


def _exact_lp_feasible(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Does ``A x = b`` admit a nonnegative solution?  Decided by enumerating
    basic solutions: a feasible system has a basic feasible solution whose
    support indexes independent columns, of size at most rank(A)."""
    n_cols = len(rows[0]) if rows else 0
    if not rows:
        return True
    augmented_rank = _rank([row + [b] for row, b in zip(rows, rhs)])
    rank = _rank(rows)
    if augmented_rank > rank:
        return False
    if all(b == 0 for b in rhs):
        return True  # x = 0
    for size in range(1, rank + 1):
        for support in itertools.combinations(range(n_cols), size):
            sub = [[row[j] for j in support] for row in rows]
            solution = _solve_exact(sub, rhs)
            if solution is not None and all(x >= 0 for x in solution):
                return True
    return False


def _patterns(system: ConstraintSystem) -> list[frozenset[str]]:
    out = []
    for bits in itertools.product((0, 1), repeat=len(system.disjoint_pairs)):
        out.append(
            frozenset(system.disjoint_pairs[i][bits[i]] for i in range(len(bits)))
        )
    # Distinct zero sets only; duplicates arise when pairs share variables.
    unique = []
    for pattern in out:
        if pattern not in unique:
            unique.append(pattern)
    return unique


def brute_force_feasible(system: ConstraintSystem, max_points: int = 4) -> bool:
    """Exhaustively decide feasibility for small systems (see module docstring)."""
    patterns = _patterns(system)
    forms = system.form_dicts()
    for n_points in range(1, min(max_points, len(patterns)) + 1):
        for combo in itertools.combinations(patterns, n_points):
            columns = [
                (point, var)
                for point, forced in enumerate(combo)
                for var in system.variables
                if var not in forced
            ]
            if any(
                all((point, var) not in columns for point in range(n_points))
                for var in system.variables
            ):
                continue  # some variable is forced to zero everywhere
            col_index = {key: i for i, key in enumerate(columns)}
            rows: list[list[Fraction]] = []
            rhs: list[Fraction] = []
            for point, forced in enumerate(combo):
                for other in forms[1:]:
                    row = [Fraction(0)] * len(columns)
                    for var, coeff in forms[0].items():
                        if (point, var) in col_index:
                            row[col_index[(point, var)]] += coeff
                    for var, coeff in other.items():
                        if (point, var) in col_index:
                            row[col_index[(point, var)]] -= coeff
                    rows.append(row)
                    rhs.append(Fraction(0))
            for var in system.variables:
                row = [Fraction(0)] * len(columns)
                for point in range(n_points):
                    if (point, var) in col_index:
                        row[col_index[(point, var)]] = Fraction(1)
                rows.append(row)
                rhs.append(Fraction(1))
            if _exact_lp_feasible(rows, rhs):
                return True
    return False


def random_system(
    rng: np.random.Generator, max_vars: int = 4, max_pairs: int = 2, max_forms: int = 3
) -> ConstraintSystem:
    """A small random instance: up to ``max_vars`` variables, ``max_pairs``
    pairs and ``max_forms`` mixture-like forms with positive rational
    coefficients."""
    n_vars = int(rng.integers(1, max_vars + 1))
    variables = tuple(f"v{i}" for i in range(n_vars))
    candidates = list(itertools.combinations(variables, 2))
    n_pairs = int(rng.integers(0, min(max_pairs, len(candidates)) + 1)) if candidates else 0
    pair_idx = rng.choice(len(candidates), size=n_pairs, replace=False) if n_pairs else []
    pairs = [candidates[int(i)] for i in pair_idx]
    n_forms = int(rng.integers(0, max_forms + 1))
    forms = []
    for _ in range(n_forms):
        support_size = int(rng.integers(1, n_vars + 1))
        chosen = rng.choice(n_vars, size=support_size, replace=False)
        form = {
            variables[int(i)]: Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            for i in chosen
        }
        forms.append(form)
    return ConstraintSystem(variables, pairs, forms)
