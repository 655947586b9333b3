import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from ctxcert import nogo
from ctxcert.bbmodel import (
    BBPreparation,
    PureOnticState,
    bb_meas_noncontextuality_property,
    bb_prep_contextuality_demo,
    bb_simulate,
)
from ctxcert.kraus import verify_mixture_identities
from ctxcert.nogo import (
    ConstraintSystem,
    VerificationError,
    gleason_contradiction,
    meas_nogo,
    od_unsharp_contradiction,
    pointwise_feasibility,
    prep_nogo,
    system_from_theory,
    transf_nogo,
    trivial_povm_forced_indicator,
)
from ctxcert.ontomodel import is_outcome_deterministic
from ctxcert.operational import (
    MixtureDecl,
    OperationalTheory,
    hexagon_state_vectors,
    hexagon_states,
    hexagon_theory,
    render_bloch_disk_svg,
)
from ctxcert.qmath import DensityOperator, Effect, Povm, identity

from feasibility_oracle import _rank, brute_force_feasible, pair_free_extreme_rays, random_system


#: The preparation system of the hexagon: three antipodal pairs and the
#: five decompositions of the completely mixed state.
PREP_SYSTEM_JSON = {
    "variables": ["a", "A", "b", "B", "c", "C"],
    "disjoint_pairs": [["a", "A"], ["b", "B"], ["c", "C"]],
    "equality_groups": [
        {"a": "1/2", "A": "1/2"},
        {"b": "1/2", "B": "1/2"},
        {"c": "1/2", "C": "1/2"},
        {"a": "1/3", "b": "1/3", "c": "1/3"},
        {"A": "1/3", "B": "1/3", "C": "1/3"},
    ],
}

#: The system of the rotations' images of a, in the theory's order: each
#: decomposition of the projection channel decomposes the image of a.
TRANSF_SYSTEM_JSON = {
    "variables": ["T0", "T60", "T120", "T180", "T240", "T300"],
    "disjoint_pairs": [["T0", "T180"], ["T60", "T240"], ["T120", "T300"]],
    "equality_groups": [
        {"T0": "1/2", "T180": "1/2"},
        {"T60": "1/2", "T240": "1/2"},
        {"T120": "1/2", "T300": "1/2"},
        {"T0": "1/3", "T120": "1/3", "T240": "1/3"},
        {"T60": "1/3", "T180": "1/3", "T300": "1/3"},
    ],
}


def _prep_system() -> ConstraintSystem:
    return system_from_theory(hexagon_theory())


def _coin_flip_theory(pvms, components) -> OperationalTheory:
    """States a, A and their balanced mixture aA, the PVMs given as
    ``{label: (state per outcome, ...)}``, the coin flip ``Mtrivial`` and a
    measurement ``M`` equal to it, declared as the mixture ``components``."""
    states = hexagon_states()
    preps = {label: states[label] for label in ("a", "A")}
    preps["aA"] = DensityOperator(identity(2) / 2)
    coin = Povm((Effect(identity(2) / 2), Effect(identity(2) / 2)))
    measurements = {
        label: Povm(tuple(Effect(states[s].matrix) for s in outcomes))
        for label, outcomes in pvms.items()
    }
    measurements |= {"M": coin, "Mtrivial": coin}
    return OperationalTheory(
        preps, measurements=measurements, mixtures=[MixtureDecl("meas", "M", components)]
    )


def _polygon_system(k: int, rotation: int = 0) -> ConstraintSystem:
    """The regular 2k-gon: vertex i antipodal to vertex i + k, the k pair
    mixtures and the uniform mixtures of the even and of the odd vertices.
    Vertex i is named ``p<(i + rotation) mod 2k>``."""
    names = [f"p{(i + rotation) % (2 * k)}" for i in range(2 * k)]
    forms = [{names[i]: "1/2", names[i + k]: "1/2"} for i in range(k)]
    forms += [{names[i]: f"1/{k}" for i in range(parity, 2 * k, 2)} for parity in (0, 1)]
    return ConstraintSystem(names, [(names[i], names[i + k]) for i in range(k)], forms)


def _sha256(cert) -> str:
    return hashlib.sha256(json.dumps(cert.to_json(), indent=2).encode()).hexdigest()


def _first_one(ray) -> tuple[Fraction, ...]:
    """A ray scaled so that its first nonzero entry is 1."""
    first = next(x for x in ray if x)
    return tuple(Fraction(x) / first for x in ray)


def _counting(monkeypatch, name: str) -> list:
    """Replace ``nogo.<name>`` by a wrapper that records each call's arguments."""
    calls, original = [], getattr(nogo, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(nogo, name, counted)
    return calls


def _pattern_cone_is_zero(system: ConstraintSystem, forced: frozenset) -> bool:
    """Independent check that a pattern's solution cone is trivial: maximize
    total mass inside the unit box; the cone is {0} iff the optimum is 0."""
    free = [v for v in system.variables if v not in forced]
    if not free:
        return True
    forms = system.form_dicts()
    rows = []
    for other in forms[1:]:
        row = [float(forms[0].get(v, 0)) - float(other.get(v, 0)) for v in free]
        rows.append(row)
    result = linprog(
        c=[-1.0] * len(free),
        A_eq=np.array(rows) if rows else None,
        b_eq=np.zeros(len(rows)) if rows else None,
        bounds=[(0, 1)] * len(free),
        method="highs",
    )
    assert result.status == 0
    return -result.fun < 1e-9


class TestConstraintSystem:
    def test_counts_of_the_preparation_system(self):
        system = _prep_system()
        assert len(system.variables) == 6
        assert len(system.disjoint_pairs) == 3
        assert len(system.equality_groups) == 5

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSystem(("a", "a"))

    def test_pairs_must_reference_declared_variables(self):
        with pytest.raises(ValueError):
            ConstraintSystem(("a",), (("a", "b"),))

    @pytest.mark.parametrize("pair", ["ab", ("a", "A", "a"), ("a",), 5])
    def test_a_pair_must_be_two_names(self, pair):
        with pytest.raises(TypeError, match="list of two names"):
            ConstraintSystem(("a", "A"), (pair,))

    def test_coefficients_kept_exact(self):
        system = ConstraintSystem(("x",), (), ({"x": "1/3"},))
        assert system.equality_groups[0][0][1] == Fraction(1, 3)

    def test_inexact_floats_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSystem(("x",), (), ({"x": 0.1234567890123456789e-20},))

    def test_derived_systems_are_pinned(self, prep_cert, transf_cert):
        # Compared as serialized text, so the order of every key is pinned too.
        assert json.dumps(_prep_system().to_json()) == json.dumps(PREP_SYSTEM_JSON)
        assert json.dumps(prep_cert.system.to_json()) == json.dumps(PREP_SYSTEM_JSON)
        assert json.dumps(transf_cert.system.to_json()) == json.dumps(TRANSF_SYSTEM_JSON)

    def test_json_roundtrip(self):
        system = _prep_system()
        assert ConstraintSystem.from_json(system.to_json()).to_json() == system.to_json()

    @pytest.mark.parametrize("tol, pairs", [(1e-9, ()), (1e-2, (("a", "near"),))])
    def test_orthogonality_is_decided_at_the_theory_tolerance(self, tol, pairs):
        """States 1e-3 rad away from orthogonal are a disjoint pair only at a
        theory tolerance above their overlap."""
        a, near = (np.array(v) for v in ([1.0, 0.0], [math.sin(1e-3), math.cos(1e-3)]))
        rhos = {l: np.outer(v, v) for l, v in (("a", a), ("near", near))}
        rhos["m"] = (rhos["a"] + rhos["near"]) / 2
        theory = OperationalTheory(
            {l: DensityOperator(r) for l, r in rhos.items()},
            mixtures=[MixtureDecl("prep", "m", (("1/2", "a"), ("1/2", "near")))],
            tol=tol,
        )
        assert system_from_theory(theory).disjoint_pairs == pairs


class TestPointwiseFeasibility:
    def test_single_pair_with_balanced_form_has_two_point_witness(self):
        system = ConstraintSystem(
            ("a", "A"), (("a", "A"),), ({"a": Fraction(1, 2), "A": Fraction(1, 2)},)
        )
        cert = pointwise_feasibility(system)
        assert cert.feasible
        assert cert.witness.ontic_size == 2
        masses = {label: sorted(cert.witness.preparations[label]) for label in ("a", "A")}
        assert masses["a"] == [0.0, 1.0]
        assert masses["A"] == [0.0, 1.0]

    def test_unconstrained_single_variable_has_one_point_witness(self):
        cert = pointwise_feasibility(ConstraintSystem(("x",)))
        assert cert.feasible
        assert cert.witness.ontic_size == 1
        assert list(cert.witness.preparations["x"]) == [1.0]

    def test_no_variables_is_an_error(self):
        with pytest.raises(ValueError):
            pointwise_feasibility(ConstraintSystem(()))

    def test_enumeration_bound_is_a_hard_error(self):
        n = 21
        variables = tuple(f"v{i}" for i in range(2 * n))
        pairs = tuple((f"v{2*i}", f"v{2*i+1}") for i in range(n))
        with pytest.raises(ValueError):
            pointwise_feasibility(ConstraintSystem(variables, pairs))

    def test_one_pair_over_the_bound_fails_before_enumerating(self, monkeypatch):
        calls = _counting(monkeypatch, "_pattern_extreme_rays")
        with pytest.raises(ValueError, match="exceed the enumeration bound"):
            pointwise_feasibility(_polygon_system(nogo.MAX_DISJOINT_PAIRS + 1))
        assert calls == []

    @pytest.mark.parametrize("n", [18, 24])
    def test_many_unpaired_variables_certify_or_fail_fast(self, n):
        rng = np.random.default_rng(n)
        names = [f"x{i}" for i in range(n)]
        forms = [dict(zip(names, rng.integers(1, 6, size=n).tolist())) for _ in range(n // 2 + 1)]
        start = time.perf_counter()
        try:
            pointwise_feasibility(ConstraintSystem(names, (), forms))
        except ValueError as exc:
            assert "over the work bound" in str(exc)
        assert time.perf_counter() - start < 10

    def test_the_work_bound_admits_the_largest_polygon(self):
        k = nogo.MAX_DISJOINT_PAIRS
        assert not pointwise_feasibility(_polygon_system(k)).feasible

    def test_case_table_covers_every_pattern(self):
        cert = pointwise_feasibility(_prep_system())
        assert len(cert.cases) == 2 ** len(cert.system.disjoint_pairs)
        patterns = [row.pattern for row in cert.cases]
        assert patterns == sorted(patterns)

    def test_nonzero_cone_can_still_fail_normalization(self):
        # Pointwise a = 2b admits the ray (2, 1), but total masses of 1 for
        # both variables would need ray weights 1/2 and 1 simultaneously.
        system = ConstraintSystem(("a", "b"), (), ({"a": 1}, {"b": 2}))
        cert = pointwise_feasibility(system)
        assert not cert.feasible
        assert len(cert.cases) == 1
        assert cert.cases[0].conclusion == "ray"
        ray = [Fraction(x) for x in cert.cases[0].ray]
        assert ray[0] == 2 * ray[1] and ray[1] > 0

    def test_scaling_coefficients_does_not_change_the_verdict(self):
        base = _prep_system()
        scaled_forms = [
            {var: coeff * 7 for var, coeff in form} for form in base.equality_groups
        ]
        scaled = ConstraintSystem(base.variables, base.disjoint_pairs, scaled_forms)
        assert not pointwise_feasibility(scaled).feasible


class TestStageOne:
    def test_nullspace_basis_spans_the_kernel(self):
        rng = np.random.default_rng(20261018)
        cases = [([], 3), ([[0, 0, 0]], 3), ([[0, 0], [0, 0]], 2), ([[1, 2, 3], [1, 2, 3]], 3)]
        for _ in range(300):
            n_rows, n_cols = int(rng.integers(0, 5)), int(rng.integers(1, 6))
            rows = rng.integers(-4, 5, size=(n_rows, n_cols)).tolist()
            if rows and rng.random() < 0.3:
                rows.append(list(rows[int(rng.integers(len(rows)))]))  # duplicate row
            if rng.random() < 0.2:
                rows.append([0] * n_cols)
            cases.append((rows, n_cols))
        for rows, n_cols in cases:
            basis = nogo._nullspace(rows, n_cols)
            # An independent Fraction rank: the basis must have n - rank members.
            assert len(basis) == n_cols - _rank([list(map(Fraction, row)) for row in rows])
            for vec in basis:
                assert all(isinstance(x, int) for x in vec)
                assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
            if basis:
                assert _rank([list(map(Fraction, vec)) for vec in basis]) == len(basis)

    def test_rays_are_enumerated_once_per_certification(self, monkeypatch):
        calls = _counting(monkeypatch, "_pattern_extreme_rays")
        for system in (_prep_system(), _polygon_system(4)):
            calls.clear()
            pointwise_feasibility(system)
            assert calls == [(system, nogo._integer_forms(system))]

    def test_forms_are_built_once_per_certification(self, monkeypatch):
        calls = _counting(monkeypatch, "_integer_forms")
        for system in (_prep_system(), _polygon_system(4)):
            calls.clear()
            pointwise_feasibility(system)
            assert calls == [(system,)]

    def test_supports_holding_a_pair_are_never_tried(self, monkeypatch):
        # Each ray the double description makes is divided by its gcd once: record them.
        made = []

        def gcd(*vec):
            made.append(vec)
            return math.gcd(*vec)

        monkeypatch.setattr(nogo, "math", SimpleNamespace(gcd=gcd, lcm=math.lcm))
        system = _prep_system()
        unpaired = ConstraintSystem(system.variables, (), system.form_dicts())
        held = []
        for case in (system, unpaired):
            made.clear()
            nogo._pattern_extreme_rays(case, nogo._integer_forms(case))
            assert made
            held.append([
                vec for vec in made for u, v in system.disjoint_pairs
                if vec[system.variables.index(u)] and vec[system.variables.index(v)]
            ])
        # Without the pairs some combination holds one; with them none is made.
        assert held[1] and not held[0]

    def test_each_pattern_gets_the_full_cone_rays_avoiding_its_zeros(self):
        system = _polygon_system(4)
        forms = nogo._integer_forms(system)
        rays = [_first_one(ray) for ray in nogo._pattern_extreme_rays(system, forms)]
        for row in pointwise_feasibility(system).cases:
            face = [
                r for r in rays if all(r[system.variables.index(v)] == 0 for v in row.zeroed)
            ]
            # The face's own rays, enumerated on the system without the zeroed variables.
            kept = [v for v in system.variables if v not in row.zeroed]
            restricted = ConstraintSystem(
                kept,
                [p for p in system.disjoint_pairs if not set(p) & set(row.zeroed)],
                [{v: c for v, c in form.items() if v in kept} for form in system.form_dicts()],
            )
            reference = [
                tuple(dict(zip(kept, ray)).get(v, Fraction(0)) for v in system.variables)
                for ray in pair_free_extreme_rays(restricted)
            ]
            assert face and sorted(face) == sorted(reference)
            assert row.ray == tuple(str(x) for x in face[0])

    def test_rays_match_the_reference_enumeration(self):
        rng = np.random.default_rng(20261019)
        systems = [random_system(rng, max_vars=9, max_pairs=4, max_forms=4) for _ in range(500)]
        systems += [_polygon_system(k) for k in range(2, 8)]
        # Degenerate cones, where a non-adjacent ray pair spans few enough variables to
        # pass for a 2-face.
        systems += [
            ConstraintSystem(
                [f"v{i}" for i in range(7)],
                (),
                [
                    {"v0": 1, "v1": 1, "v5": 1, "v6": 2},
                    {"v2": 2, "v3": 2, "v4": 1, "v5": 2},
                    {"v3": 2, "v4": 1, "v5": 2},
                    {"v1": 1, "v2": 2, "v3": 1, "v5": 2, "v6": 2},
                ],
            ),
        ]
        several = 0
        for system in systems:
            forms = nogo._integer_forms(system)
            rays = [_first_one(ray) for ray in nogo._pattern_extreme_rays(system, forms)]
            assert rays == pair_free_extreme_rays(system), system.to_json()
            several += len(rays) > 1
        assert several >= 100


@pytest.fixture(scope="module")
def prep_cert():
    return prep_nogo()


@pytest.fixture(scope="module")
def meas_cert():
    return meas_nogo()


@pytest.fixture(scope="module")
def transf_cert():
    return transf_nogo()


class TestPrepNogo:
    def test_verdict_and_table_shape(self, prep_cert):
        assert not prep_cert.feasible
        assert len(prep_cert.cases) == 8
        assert all(row.conclusion == "all-zero" for row in prep_cert.cases)

    def test_every_row_has_a_complete_derivation(self, prep_cert):
        for row in prep_cert.cases:
            assert row.steps, f"pattern {row.pattern} lacks a derivation"
            eliminated = set(row.zeroed)
            for step in row.steps:
                eliminated.update(step.variables)
            assert eliminated == set(prep_cert.system.variables)

    def test_the_half_vs_third_clash_appears(self, prep_cert):
        row = next(r for r in prep_cert.cases if set(r.zeroed) == {"a", "b", "C"})
        clash = next(s for s in row.steps if s.kind == "coefficient-clash")
        assert clash.variables == ("c",)
        assert {clash.left_coeff, clash.right_coeff} == {"1/2", "1/3"}

    def test_premise_checks_are_tight(self, prep_cert):
        assert {p.name for p in prep_cert.premise_checks} == {
            "orthogonality",
            "mixtures-equal-center",
        }
        assert all(p.max_deviation <= 1e-12 for p in prep_cert.premise_checks)

    def test_derivations_reverify_by_substitution(self, prep_cert):
        forms = prep_cert.system.form_dicts()
        for row in prep_cert.cases:
            zero = set(row.zeroed)
            for step in row.steps:
                left = {v: c for v, c in forms[step.left_form].items() if v not in zero}
                right = {v: c for v, c in forms[step.right_form].items() if v not in zero}
                diff = dict(left)
                for v, c in right.items():
                    diff[v] = diff.get(v, Fraction(0)) - c
                diff = {v: c for v, c in diff.items() if c != 0}
                assert set(step.variables) == set(diff)
                signs = {c > 0 for c in diff.values()}
                assert len(signs) == 1
                zero.update(step.variables)
            assert zero == set(prep_cert.system.variables)

    def test_mixture_premise_is_the_deviation_the_theory_measured(self, prep_cert):
        """The five targets are declared as I/2, so the theory's own check
        measures the premise, and the driver reports that measurement."""
        theory = hexagon_theory()
        premise = {p.name: p.max_deviation for p in prep_cert.premise_checks}
        assert premise["mixtures-equal-center"] == max(theory.deviations_of("prep"))

    def test_byte_identical_across_runs(self, prep_cert):
        again = prep_nogo()
        assert json.dumps(prep_cert.to_json()) == json.dumps(again.to_json())


class TestMeasNogo:
    def test_exactly_eight_assignments(self, meas_cert):
        assert not meas_cert.feasible
        assert len(meas_cert.cases) == 8
        assert sorted(r.pattern for r in meas_cert.cases) == [
            bits for bits in itertools.product((0, 1), repeat=3)
        ]

    def test_uniform_assignments_hit_the_extremes(self, meas_cert):
        by_pattern = {r.pattern: r.values for r in meas_cert.cases}
        assert by_pattern[(0, 0, 0)] == ("1", "0")
        assert by_pattern[(1, 1, 1)] == ("0", "1")
        assert by_pattern[(0, 0, 1)] == ("2/3", "1/3")

    def test_zeroed_labels_are_pinned(self, meas_cert):
        assert [row.zeroed for row in meas_cert.cases] == [
            ("A", "B", "C"),
            ("A", "B", "c"),
            ("A", "C", "b"),
            ("A", "b", "c"),
            ("B", "C", "a"),
            ("B", "a", "c"),
            ("C", "a", "b"),
            ("a", "b", "c"),
        ]

    def test_a_mixture_that_reaches_the_coin_values_is_refused(self, monkeypatch):
        # Ma and Ma with its outcomes swapped, mixed evenly, equal the coin
        # flip; the assignment (0, 1) mixes to exactly (1/2, 1/2).
        theory = _coin_flip_theory(
            {"Ma": ("a", "A"), "Ma_swapped": ("A", "a")}, ((0.5, "Ma"), (0.5, "Ma_swapped"))
        )
        monkeypatch.setattr(nogo, "hexagon_theory", lambda: theory)
        with pytest.raises(VerificationError, match=r"assignment \(0, 1\) mixes to the forced"):
            meas_nogo()

    def test_an_unsharp_mixture_component_is_refused(self, monkeypatch):
        # The coin flip's effects equal the state aA, but it has no
        # deterministic representation to enumerate.
        theory = _coin_flip_theory({}, ((1.0, "Mtrivial"),))
        monkeypatch.setattr(nogo, "hexagon_theory", lambda: theory)
        with pytest.raises(VerificationError, match="'Mtrivial' is not a PVM"):
            meas_nogo()

    def test_mixture_premise_is_the_deviation_the_theory_measured(self, meas_cert):
        theory = hexagon_theory()
        premise = {p.name: p.max_deviation for p in meas_cert.premise_checks}
        assert premise["mixed-povm-equals-coin-povm"] == max(theory.deviations_of("meas"))

    def test_values_stay_in_the_allowed_set_and_never_split_evenly(self, meas_cert):
        allowed = {("1", "0"), ("0", "1"), ("2/3", "1/3"), ("1/3", "2/3")}
        for row in meas_cert.cases:
            assert row.values in allowed
            assert row.values != ("1/2", "1/2")

    def test_forced_coin_indicator_agrees_across_derivations(self):
        forced = trivial_povm_forced_indicator()
        assert forced.outcome_count == 2
        assert forced.by_state_independence == pytest.approx((0.5, 0.5), abs=1e-15)
        assert forced.by_permutation_symmetry == (0.5, 0.5)

    def test_byte_identical_across_runs(self, meas_cert):
        assert json.dumps(meas_cert.to_json()) == json.dumps(meas_nogo().to_json())


class TestOdUnsharp:
    def test_forced_representation_fails_idempotence(self):
        report = od_unsharp_contradiction()
        assert report.forced_values == (0.5, 0.5)
        assert not report.outcome_deterministic
        assert report.contradiction
        assert np.abs(report.povm[0].matrix - np.eye(2) / 2).max() == 0.0

    def test_indicator_fragment_checks_out(self):
        forced = trivial_povm_forced_indicator()
        assert not is_outcome_deterministic(forced.indicator_set())


class TestTransfNogo:
    def test_infeasible_with_full_table(self, transf_cert):
        assert not transf_cert.feasible
        assert len(transf_cert.cases) == 8
        assert all(row.conclusion == "all-zero" for row in transf_cert.cases)

    def test_choi_premises_hold_to_machine_precision(self, transf_cert):
        named = {p.name: p.max_deviation for p in transf_cert.premise_checks}
        for key in ("K1", "K2", "K3", "K4", "K5"):
            assert named[key] <= 1e-12
        assert named["disjoint-image"] <= 1e-12

    def test_system_mirrors_the_preparation_structure(self, transf_cert):
        system = transf_cert.system
        assert len(system.variables) == 6
        assert len(system.disjoint_pairs) == 3
        assert len(system.equality_groups) == 5

    def test_byte_identical_across_runs(self, transf_cert):
        assert json.dumps(transf_cert.to_json()) == json.dumps(transf_nogo().to_json())

    def test_system_is_the_hexagon_in_rotation_order(self, transf_cert):
        polygon = json.dumps(_polygon_system(3).to_json())
        rotations = re.sub(r'"p(\d)"', lambda m: f'"T{60 * int(m.group(1))}"', polygon)
        assert json.dumps(transf_cert.system.to_json()) == rotations

    def test_pair_decompositions_alone_certify_nothing(self, monkeypatch):
        """Without the trine decompositions K4 and K5 a noncontextual model
        exists, so the driver must refuse to certify."""
        theory = hexagon_theory()
        kept = [d for d in theory.mixtures if d.kind != "transf" or len(d.components) == 2]
        pairs_only = OperationalTheory(
            theory.preparations, theory.transformations, theory.measurements, kept
        )
        monkeypatch.setattr(nogo, "hexagon_theory", lambda: pairs_only)
        with pytest.raises(VerificationError, match="unexpectedly feasible"):
            transf_nogo()


class TestGleason:
    def test_neighboring_states_force_one_quarter(self):
        vectors = hexagon_state_vectors()
        witness = gleason_contradiction(vectors["a"], vectors["b"])
        assert witness.forced_value == pytest.approx(0.25, abs=1e-12)
        assert 0.0 < witness.forced_value < 1.0
        assert witness.contradiction

    def test_orthogonal_pair_rejected(self):
        vectors = hexagon_state_vectors()
        with pytest.raises(ValueError):
            gleason_contradiction(vectors["a"], vectors["A"])

    def test_identical_pair_rejected(self):
        vectors = hexagon_state_vectors()
        with pytest.raises(ValueError):
            gleason_contradiction(vectors["a"], vectors["a"])

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValueError):
            gleason_contradiction(np.array([1.0, 1.0]), np.array([1.0, 0.0]))

    def test_tol_governs_only_the_overlap(self):
        """Normalization is checked at ``VALIDITY_TOL`` whatever ``tol`` is."""
        vectors = hexagon_state_vectors()
        a, b = (1 + 1e-10) * vectors["a"], (1 + 1e-10) * vectors["b"]
        assert gleason_contradiction(a, b, tol=1e-12).contradiction
        with pytest.raises(ValueError, match="state vectors must be normalized"):
            gleason_contradiction((1 + 1e-7) * vectors["a"], vectors["b"], tol=1e-6)


class TestOracleAgreement:
    def test_certifier_matches_brute_force_on_random_systems(self):
        rng = np.random.default_rng(20260810)
        feasible_seen = infeasible_seen = 0
        for _ in range(200):
            system = random_system(rng)
            cert = pointwise_feasibility(system)
            assert cert.feasible == brute_force_feasible(system), system.to_json()
            if cert.feasible:
                feasible_seen += 1
            else:
                infeasible_seen += 1
        assert feasible_seen >= 20 and infeasible_seen >= 20

    def test_case_tables_reverify_row_by_row(self):
        rng = np.random.default_rng(555)
        checked_rows = 0
        for _ in range(60):
            system = random_system(rng)
            cert = pointwise_feasibility(system)
            assert len(cert.cases) == 2 ** len(system.disjoint_pairs)
            forms = system.form_dicts()
            for row in cert.cases:
                forced = frozenset(row.zeroed)
                if row.conclusion == "all-zero":
                    assert _pattern_cone_is_zero(system, forced)
                else:
                    values = {
                        var: Fraction(entry)
                        for var, entry in zip(system.variables, row.ray)
                    }
                    assert any(value > 0 for value in values.values())
                    for var in forced:
                        assert values[var] == 0
                    for u, v in system.disjoint_pairs:
                        assert values[u] * values[v] == 0
                    evaluated = [
                        sum(c * values[v] for v, c in f.items()) for f in forms
                    ]
                    assert all(e == evaluated[0] for e in evaluated[1:])
                checked_rows += 1
        assert checked_rows >= 60

    def test_feasible_witnesses_reproduce_their_systems(self):
        rng = np.random.default_rng(828)
        for _ in range(100):
            system = random_system(rng)
            cert = pointwise_feasibility(system)
            if not cert.feasible:
                continue
            values = {v: np.array(cert.witness.preparations[v]) for v in system.variables}
            for var in system.variables:
                assert values[var].sum() == pytest.approx(1.0, abs=1e-9)
            for u, v in system.disjoint_pairs:
                assert float((values[u] * values[v]).max()) <= 1e-12
            forms = system.form_dicts()
            evaluated = [
                sum(float(c) * values[v] for v, c in f.items())
                if f
                else np.zeros(cert.witness.ontic_size)
                for f in forms
            ]
            for other in evaluated[1:]:
                assert np.abs(evaluated[0] - other).max() <= 1e-9


def _recording_linprog(monkeypatch) -> list:
    """Replace ``nogo.linprog`` by a wrapper that records ``(rays, result)``."""
    solves, original = [], nogo.linprog

    def recorded(rays):
        solves.append((rays, original(rays)))
        return solves[-1][1]

    monkeypatch.setattr(nogo, "linprog", recorded)
    return solves


def _check_exact_solve(rays, result) -> None:
    """A Feasible solve's weights normalize every variable exactly; the
    verdict agrees with HiGHS on the same program, used only as an oracle."""
    n_vars = len(rays[0])
    if result.status == 0:
        assert len(result.x) == len(rays) and all(w >= 0 for w in result.x)
        for i in range(n_vars):
            assert sum(w * ray[i] for w, ray in zip(result.x, rays)) == 1
    else:
        assert result.status == 2 and result.x is None
    reference = linprog(
        c=np.zeros(len(rays)),
        A_eq=np.array([[float(ray[i]) for ray in rays] for i in range(n_vars)]),
        b_eq=np.ones(n_vars),
        bounds=[(0, None)] * len(rays),
        method="highs",
    )
    assert reference.status == result.status


class TestExactStageTwo:
    @pytest.mark.parametrize(
        "seed, family",
        [(3, {}), (2026, dict(max_vars=9, max_pairs=4, max_forms=4))],
        ids=["small", "wide"],
    )
    def test_random_systems_agree_with_the_oracles(self, monkeypatch, seed, family):
        solves = _recording_linprog(monkeypatch)
        rng = np.random.default_rng(seed)
        verdicts = set()
        for _ in range(300):
            system = random_system(rng, **family)
            cert = pointwise_feasibility(system)
            if not family:  # the brute-force oracle is exhaustive only for the small family
                assert cert.feasible == brute_force_feasible(system), system.to_json()
        for rays, result in solves:
            _check_exact_solve(rays, result)
            verdicts.add(result.status)
        assert verdicts == {0, 2}

    @pytest.mark.parametrize("k", range(2, 9))
    def test_polygons_agree_with_highs(self, monkeypatch, k):
        solves = _recording_linprog(monkeypatch)
        assert pointwise_feasibility(_polygon_system(k)).feasible == (k % 2 == 0)
        # An odd polygon is settled by stage 1: every pattern's cone is {0}.
        assert len(solves) == (k % 2 == 0)
        for solve in solves:
            _check_exact_solve(*solve)

    @pytest.mark.parametrize("k, pivots", [(2, 4), (4, 6), (6, 8), (8, 10)])
    def test_pivots_on_the_degenerate_even_polygon(self, monkeypatch, k, pivots):
        solves = _recording_linprog(monkeypatch)
        pointwise_feasibility(_polygon_system(k))
        [(rays, result)] = solves
        assert len(rays) == 4 ** (k // 2) and result.pivots == pivots

    def test_rays_that_cannot_be_normalized(self, monkeypatch):
        # Pointwise b = a + c has the rays (1, 1, 0) and (0, 1, 1); total mass one
        # for a and for c needs both weights 1, which gives b a mass of 2.
        solves = _recording_linprog(monkeypatch)
        system = ConstraintSystem(("a", "b", "c"), (), ({"b": 1}, {"a": 1, "c": 1}))
        cert = pointwise_feasibility(system)
        assert not cert.feasible and [row.conclusion for row in cert.cases] == ["ray"]
        [(rays, result)] = solves
        assert sorted(rays) == [(0, 1, 1), (1, 1, 0)]
        assert result.status == 2
        _check_exact_solve(rays, result)


class TestWitness:
    """A Feasible witness is a table of floats, each one exact product rounded once,
    and the pure-Python re-check refuses a table that misses its system."""

    @staticmethod
    def _systems():
        for seed, family in ((3, {}), (2026, dict(max_vars=9, max_pairs=4, max_forms=4))):
            rng = np.random.default_rng(seed)
            for _ in range(300):
                yield random_system(rng, **family)
        yield from (_polygon_system(k) for k in range(2, 9, 2))
        # Weight 1/9 on a ray with entry 7, where float(1/9) * 7 would round twice.
        yield ConstraintSystem(
            ("v0", "v1", "v2"), (), ({"v0": "1/3", "v1": 3, "v2": "2/3"}, {"v0": 1, "v2": 3})
        )

    def test_each_value_is_the_exact_product_rounded_once(self, monkeypatch):
        solves = _recording_linprog(monkeypatch)
        checked = 0
        for system in self._systems():
            cert = pointwise_feasibility(system)
            if not cert.feasible:
                continue
            rays, result = solves[-1]
            used = [(w, ray) for w, ray in zip(result.x, rays) if w]
            assert cert.witness.ontic_size == len(used)
            for i, var in enumerate(system.variables):
                exact = [float(Fraction(w) * Fraction(ray[i])).hex() for w, ray in used]
                assert [x.hex() for x in cert.witness.preparations[var]] == exact
            checked += 1
        assert checked >= 200

    @staticmethod
    def _refused(system, witness) -> None:
        with pytest.raises(RuntimeError, match="witness"):
            nogo._verify_witness(system, witness, nogo.NORMALIZATION_TOL)

    @pytest.mark.parametrize("k", [2, 4])
    def test_a_value_nudged_by_a_millionth_is_refused(self, k):
        system = _polygon_system(k)
        witness = pointwise_feasibility(system).witness
        for var in system.variables:
            values = witness.preparations[var]
            nudged = {**witness.preparations, var: values[:-1] + (values[-1] + 1e-6,)}
            self._refused(system, replace(witness, preparations=nudged))

    def test_weight_on_both_members_of_a_pair_is_refused(self):
        # No forms: only the pair check sees A's mass spread over both of a's points.
        system = ConstraintSystem(("a", "A"), (("a", "A"),))
        witness = pointwise_feasibility(system).witness
        assert sorted(witness.preparations.values()) == [(0.0, 1.0), (1.0, 0.0)]
        nogo._verify_witness(system, witness, nogo.NORMALIZATION_TOL)
        spread = {**witness.preparations, "A": (0.5, 0.5)}
        self._refused(system, replace(witness, preparations=spread))

    @pytest.mark.parametrize("k", [2, 4])
    def test_a_point_dropped_from_every_variable_is_refused(self, k):
        system = _polygon_system(k)
        witness = pointwise_feasibility(system).witness
        for point in range(witness.ontic_size):
            kept = {
                var: values[:point] + values[point + 1 :]
                for var, values in witness.preparations.items()
            }
            self._refused(system, replace(witness, preparations=kept))
            smaller = replace(witness, ontic_size=witness.ontic_size - 1, preparations=kept)
            self._refused(system, smaller)


class TestMinimalityProbe:
    """Exact minimality behavior of the preparation system.

    Dropping any single equality form still leaves every zero pattern's cone
    trivial, so the certifier keeps returning Infeasible; the redundancy is
    real (each branch of the eight-case argument only ever uses a subset of
    the equalities).  Feasibility only appears once both three-element forms
    are removed.  Each all-zero verdict is re-verified here against an
    independent bounded linear program per pattern.
    """

    @staticmethod
    def _drop(system: ConstraintSystem, indices: set[int]) -> ConstraintSystem:
        forms = [
            dict(form)
            for i, form in enumerate(system.equality_groups)
            if i not in indices
        ]
        return ConstraintSystem(system.variables, system.disjoint_pairs, forms)

    def test_single_form_drops_remain_infeasible(self):
        base = _prep_system()
        for drop in range(5):
            system = self._drop(base, {drop})
            cert = pointwise_feasibility(system)
            assert not cert.feasible
            for bits in itertools.product((0, 1), repeat=3):
                forced = frozenset(
                    system.disjoint_pairs[i][bits[i]] for i in range(3)
                )
                assert _pattern_cone_is_zero(system, forced)

    def test_dropping_both_trine_forms_is_feasible(self):
        base = _prep_system()
        cert = pointwise_feasibility(self._drop(base, {3, 4}))
        assert cert.feasible
        assert cert.witness is not None


def _balanced_simulation():
    vectors = hexagon_state_vectors()
    prep = BBPreparation(tuple((0.5, PureOnticState(vectors[x])) for x in "aA"))
    return bb_simulate(prep, hexagon_theory().measurements["Mb"], 10_000, 7)


class TestGoldenCertificates:
    """Certificate and report bytes pinned by sha256: ``json.dumps(x.to_json(), indent=2)``."""

    POLYGON = {
        2: "ccfcbe660297dd9b7de41471725a778d1fcbf20e34e6ae899b090e250b5fcdb8",
        3: "46f6b21b47818b1e43d6761b392ee5edfa87f964f1cad63fa8403b63eeeb99d9",
        4: "d738204e60c7b69397004c4a917f37d48820b91837a643ebdcf2ed2c9bc518b7",
        5: "91677645107d73c36acf7f8e0ad34d19527341ebcf17f02e0d842f7788f839f7",
        6: "fd1fb6322e65bae5b88dda27bf168fafb33a41c471bac51784295ecb158218f6",
        7: "b78ebf772ac16d525eefcadb448364db17a0ef784be6b67eb279a4e46133733a",
        8: "d03417d1e1e0a033894c27cb1232bd0bd81cd8a937a25c06c2900adf76755b1a",
    }

    @pytest.mark.parametrize("k", sorted(POLYGON))
    def test_polygon(self, k):
        assert _sha256(pointwise_feasibility(_polygon_system(k))) == self.POLYGON[k]

    def test_drivers(self, prep_cert, transf_cert, meas_cert):
        assert _sha256(prep_cert) == (
            "fb51e3944f23f56c8254453b36092460af4c38b9232b6e91ce277ae1ee6c64a1"
        )
        assert _sha256(transf_cert) == (
            "f7d14172b23ad8745cd8dc7dfb179ae87c27b1ee1e3074340d2d8d0a859a6620"
        )
        assert _sha256(meas_cert) == (
            "c565492fd95c81109ec3f95c69f7e1b616da1f044b473b02cb4532ea21ec03df"
        )

    def test_random_systems(self):
        rng = np.random.default_rng(300)
        digest = hashlib.sha256()
        for _ in range(300):
            cert = pointwise_feasibility(random_system(rng))
            digest.update(json.dumps(cert.to_json(), indent=2).encode())
        assert digest.hexdigest() == (
            "84808726ba2ef1e8696cba0b41f5d39beb06266082a77dc4e07615881899940d"
        )

    def test_wide_random_systems_and_rotated_polygons(self):
        """Up to 9 variables, 4 pairs and 4 forms, where stage 1 has real
        work, and the 2k-gons under four labelings of their vertices."""
        rng = np.random.default_rng(2026)
        systems = [random_system(rng, max_vars=9, max_pairs=4, max_forms=4) for _ in range(1000)]
        systems += [_polygon_system(k, r) for k in range(2, 8) for r in range(4)]
        digest = hashlib.sha256()
        for system in systems:
            digest.update(json.dumps(pointwise_feasibility(system).to_json(), indent=2).encode())
        assert digest.hexdigest() == (
            "dc4a525f7e65ab17369e5168111df0ce33a38ac3daafc3051eae2dd4f6b046b7"
        )

    REPORTS = {
        "od-unsharp": (
            od_unsharp_contradiction,
            "e2bda258d37df731b46b12c60dfa56ae3e940dfa7f377517004d66fdf8da8de8",
        ),
        "gleason": (
            lambda: gleason_contradiction(*(hexagon_state_vectors()[x] for x in "ab")),
            "cabedf633f366c4bbc84d5d0e28d0ca7caadd9dac84ffae54f3032d8080aa239",
        ),
        "mixture-identities": (
            verify_mixture_identities,
            "fda51d0ddea7a51a89f71d9850aa30ff230cfea10083292a13df639133e57caf",
        ),
        "hexagon-theory": (
            hexagon_theory,
            "e9a37e28432a5dacdea0b4ab4246039162a52db43fcd4fffa8f01f03d913e8ad",
        ),
        "bb-simulate": (
            _balanced_simulation,
            "07cb0a5d6f9d6da12c6c3e3b71b92362e986cc528c2a30d8b2f818a801db7bef",
        ),
        "bb-meas-nc": (
            lambda: bb_meas_noncontextuality_property(20, 7),
            "fd27165b8363fa7ebc38cc2de802a6d70079f5374df00f33e0f6ec9a214480a7",
        ),
        "bb-prep-demo": (
            bb_prep_contextuality_demo,
            "a1310b371eb4c664854a1a7053a2adb02f8a2c203380cea8469132b5e480052f",
        ),
    }

    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_reports(self, name):
        build, digest = self.REPORTS[name]
        assert _sha256(build()) == digest

    def test_figure_bloch(self):
        """The ``figure-bloch`` SVG bytes."""
        assert hashlib.sha256(render_bloch_disk_svg().encode()).hexdigest() == (
            "2fc23de5ba8b0fc8e9b54486f5cbf14d5d64d30bfaa0cdd69ba26f1c4729f5cc"
        )


class TestValidateOnce:
    """Operators derived from validated ones are not validated again; each
    validation computes one spectrum."""

    @pytest.mark.parametrize(
        "build, most",
        [
            (hexagon_theory, 20),
            (transf_nogo, 63),
            # Four stacked eigvalsh calls whatever the trial count: no per-trial spectra.
            pytest.param(lambda: bb_meas_noncontextuality_property(20, 7), 4, id="bb_meas_nc-20"),
            pytest.param(lambda: bb_meas_noncontextuality_property(100, 7), 4, id="bb_meas_nc-100"),
        ],
    )
    def test_spectra_per_call(self, monkeypatch, build, most):
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        build()
        assert len(calls) <= most

    @pytest.mark.parametrize("build", [transf_nogo, verify_mixture_identities])
    def test_each_decomposition_is_checked_once_per_theory(self, monkeypatch, build):
        """The theory builds the Choi matrix of each of the five Kraus unions
        and of their target T once (6 matrices); the premises read them."""
        from ctxcert import operational, qmath

        calls, choi_matrix = [], qmath.choi_matrix
        counted = lambda channel: calls.append(channel) or choi_matrix(channel)
        monkeypatch.setattr(qmath, "choi_matrix", counted)
        monkeypatch.setattr(operational, "choi_matrix", counted)
        build()
        assert len(calls) <= 6


class TestNoScipy:
    """No command imports scipy: stage 2 is the exact simplex ``nogo.linprog``."""

    SCRIPT = """
import json, sys
from pathlib import Path
from ctxcert.cli import main

out, hexagon, polygon = sys.argv[1:]
commands = [
    ["nogo", "prep"], ["nogo", "meas"], ["nogo", "transf"], ["nogo", "gleason"],
    ["nogo", "od-unsharp"], ["feasibility", hexagon],
    ["simulate-bb", "--prep", "0.5:a,0.5:A", "--povm", "b", "--samples", "1000"],
    ["figure-bloch"],
]
codes = [main(argv + ["--out", out]) for argv in commands]
feasible = main(["feasibility", polygon, "--out", out])
print(json.dumps({
    "codes": codes,
    "feasible": [feasible, json.loads(Path(out).read_text())["verdict"]],
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""

    def test_no_command_imports_scipy(self, tmp_path):
        hexagon = tmp_path / "hexagon.json"
        hexagon.write_text(json.dumps(_prep_system().to_json()))
        polygon = tmp_path / "polygon.json"
        polygon.write_text(json.dumps(_polygon_system(2).to_json()))
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path / "out"), str(hexagon), str(polygon)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["codes"] == [0, 0, 0, 0, 0, 3, 0, 0]
        assert report["feasible"] == [0, "Feasible"]
        assert report["scipy"] == []

    def test_stage_two_calls_the_module_attribute(self, monkeypatch):
        solves = _recording_linprog(monkeypatch)
        assert pointwise_feasibility(_polygon_system(2)).feasible
        assert [result.status for _, result in solves] == [0]
