"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single pass/fail line (visible under ``pytest -s``)
including the measured runtime, then asserts both the numeric criterion and
its runtime budget.  Construction work that the criterion does not measure
(building operators, importing modules) happens outside the timed region,
with one warm-up execution so lazy one-time initialization does not leak
into the timings.
"""

import json
import time
import xml.etree.ElementTree as ET

import numpy as np

from ctxcert.bbmodel import (
    BBPreparation,
    PureOnticState,
    bb_meas_noncontextuality_property,
    bb_prep_contextuality_demo,
    bb_simulate,
)
from ctxcert.cli import main
from ctxcert.kraus import RemixMatrix, remix_kraus, with_zero_ops
from ctxcert.nogo import gleason_contradiction, od_unsharp_contradiction, pointwise_feasibility
from ctxcert.ontomodel import (
    Distribution,
    IndicatorSet,
    OntModel,
    OnticSpace,
    outcome_determinism_from_prep_nc,
)
from ctxcert.operational import (
    hexagon_state_vectors,
    hexagon_states,
    render_bloch_disk_svg,
    y_projection_channel,
)
from ctxcert.qmath import Effect, Povm, born_probability, choi_deviation, identity, pure_density

from feasibility_oracle import brute_force_feasible, random_system


def _timed(fn):
    fn()  # warm-up: exclude lazy one-time initialization from the timing
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed


def _line(number: int, name: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(
        f"ACCEPTANCE {number:02d} {name}: {status} "
        f"({elapsed * 1000:.2f} ms, limit {limit * 1000:.0f} ms)"
    )


def test_criterion_01_orthogonality():
    states = {k: v.matrix for k, v in hexagon_states().items()}

    def check():
        return max(
            float(np.abs(states[x] @ states[y]).max())
            for x, y in (("a", "A"), ("b", "B"), ("c", "C"))
        )

    dev, elapsed = _timed(check)
    ok = dev <= 1e-12
    _line(1, "orthogonality", ok, elapsed, 1e-3)
    assert ok
    assert elapsed < 1e-3


def test_criterion_02_convex_decompositions():
    states = {k: v.matrix for k, v in hexagon_states().items()}
    center = identity(2) / 2
    mixtures = [
        [(0.5, "a"), (0.5, "A")],
        [(0.5, "b"), (0.5, "B")],
        [(0.5, "c"), (0.5, "C")],
        [(1 / 3, "a"), (1 / 3, "b"), (1 / 3, "c")],
        [(1 / 3, "A"), (1 / 3, "B"), (1 / 3, "C")],
    ]

    def check():
        return max(
            float(np.abs(sum(w * states[l] for w, l in mix) - center).max())
            for mix in mixtures
        )

    dev, elapsed = _timed(check)
    ok = dev <= 1e-12
    _line(2, "convex-decompositions", ok, elapsed, 1e-3)
    assert ok
    assert elapsed < 1e-3


def test_criterion_03_preparation_nogo(tmp_path):
    out = tmp_path / "prep.json"

    def run():
        return main(["nogo", "prep", "--out", str(out)])

    code, elapsed = _timed(run)
    doc = json.loads(out.read_text())
    rows = doc["cases"]
    clash_found = any(
        step["kind"] == "coefficient-clash"
        and step["variables"] == ["c"]
        and {step["left_coeff"], step["right_coeff"]} == {"1/2", "1/3"}
        for row in rows
        if set(row["zeroed"]) == {"a", "b", "C"}
        for step in row.get("steps", ())
    )
    ok = (
        code == 0
        and doc["verdict"] == "Infeasible"
        and len(rows) == 8
        and all(row["conclusion"] == "all-zero" for row in rows)
        and clash_found
    )
    _line(3, "preparation-nogo", ok, elapsed, 1.0)
    assert ok
    assert elapsed < 1.0


def test_criterion_04_measurement_nogo(tmp_path):
    out = tmp_path / "meas.json"

    def run():
        return main(["nogo", "meas", "--out", str(out)])

    code, elapsed = _timed(run)
    doc = json.loads(out.read_text())
    rows = doc["cases"]
    allowed = {("1", "0"), ("0", "1"), ("2/3", "1/3"), ("1/3", "2/3")}
    values = [tuple(row["values"]) for row in rows]
    forced = {
        check["name"]: check["max_deviation"] for check in doc["premise_checks"]
    }
    ok = (
        code == 0
        and len(rows) == 8
        and all(v in allowed for v in values)
        and all(v != ("1/2", "1/2") for v in values)
        and forced["forced-coin-indicator"] <= 1e-12
        and forced["mixed-povm-equals-coin-povm"] <= 1e-12
    )
    _line(4, "measurement-nogo", ok, elapsed, 1.0)
    assert ok
    assert elapsed < 1.0


def test_criterion_05_transformation_nogo(tmp_path):
    out = tmp_path / "transf.json"

    def run():
        return main(["nogo", "transf", "--out", str(out)])

    code, elapsed = _timed(run)
    doc = json.loads(out.read_text())
    checks = {c["name"]: c["max_deviation"] for c in doc["premise_checks"]}
    ok = (
        code == 0
        and doc["verdict"] == "Infeasible"
        and all(checks[k] <= 1e-12 for k in ("K1", "K2", "K3", "K4", "K5"))
        and checks["disjoint-image"] <= 1e-12
    )
    _line(5, "transformation-nogo", ok, elapsed, 5.0)
    assert ok
    assert elapsed < 5.0


def test_criterion_06_gleason_contradiction():
    vectors = hexagon_state_vectors()

    def run():
        return gleason_contradiction(vectors["a"], vectors["b"])

    witness, elapsed = _timed(run)
    ok = (
        abs(witness.forced_value - 0.25) <= 1e-12
        and 0.0 < witness.forced_value < 1.0
        and witness.contradiction
    )
    _line(6, "gleason-contradiction", ok, elapsed, 1e-3)
    assert ok
    assert elapsed < 1e-3


def test_criterion_07_od_unsharp_contradiction():
    report, elapsed = _timed(od_unsharp_contradiction)
    ok = (
        report.forced_values == (0.5, 0.5)
        and not report.outcome_deterministic
        and report.contradiction
        and float(np.abs(report.povm[0].matrix - identity(2) / 2).max()) == 0.0
    )
    _line(7, "od-unsharp-contradiction", ok, elapsed, 1e-3)
    assert ok
    assert elapsed < 1e-3


def test_criterion_08_determinism_derivation():
    conforming = OntModel(
        OnticSpace(2),
        prep_map={
            "a": Distribution(np.array([1.0, 0.0])),
            "A": Distribution(np.array([0.0, 1.0])),
            "I/d": Distribution(np.array([0.5, 0.5])),
        },
        meas_map={"Ma": IndicatorSet(np.array([[1.0, 0.0], [0.0, 1.0]]))},
    )
    states = hexagon_states()
    labels = list("aAbB")
    rows = [
        [born_probability(states[l], Effect(states["a"].matrix)) for l in labels],
        [born_probability(states[l], Effect(states["A"].matrix)) for l in labels],
    ]
    ray_style = OntModel(
        OnticSpace(4),
        prep_map={
            "a": Distribution(np.array([1.0, 0.0, 0.0, 0.0])),
            "A": Distribution(np.array([0.0, 1.0, 0.0, 0.0])),
            "I/d": Distribution(np.array([0.5, 0.5, 0.0, 0.0])),
        },
        meas_map={"Ma": IndicatorSet(np.array(rows))},
    )

    def run():
        good = outcome_determinism_from_prep_nc(conforming, "Ma", ["a", "A"], d=2)
        bad = outcome_determinism_from_prep_nc(ray_style, "Ma", ["a", "A"], d=2)
        return good, bad

    (good, bad), elapsed = _timed(run)
    ok = (
        good.passed
        and [s.passed for s in good.steps] == [True, True, True, True]
        and good.steps[-1].name == "indicators-idempotent"
        and not bad.passed
        and bad.failing_step == "support-union-covers-space"
    )
    _line(8, "determinism-derivation", ok, elapsed, 1e-2)
    assert ok
    assert elapsed < 1e-2


def test_criterion_09_bb_model():
    vectors = hexagon_state_vectors()
    pvm_a = Povm(
        (Effect(pure_density(vectors["a"]).matrix), Effect(pure_density(vectors["A"]).matrix))
    )
    pvm_b = Povm(
        (Effect(pure_density(vectors["b"]).matrix), Effect(pure_density(vectors["B"]).matrix))
    )
    pure_a = BBPreparation(((1.0, PureOnticState(vectors["a"])),))
    pure_b = BBPreparation(((1.0, PureOnticState(vectors["b"])),))
    balanced = BBPreparation(
        ((0.5, PureOnticState(vectors["a"])), (0.5, PureOnticState(vectors["A"])))
    )
    configs = [(pure_a, pvm_a), (balanced, pvm_b), (pure_b, pvm_a)]

    def run():
        reports = [bb_simulate(prep, povm, 100_000, seed=2026) for prep, povm in configs]
        demo = bb_prep_contextuality_demo()
        nc = bb_meas_noncontextuality_property(trials=100, seed=5)
        return reports, demo, nc

    (reports, demo, nc), elapsed = _timed(run)
    ok = (
        all(report.within_sigma(4.0) for report in reports)
        and demo.operationally_equivalent
        and demo.shared_rays == 0
        and demo.preparation_contextual
        and nc.max_abs_dev <= 1e-12
    )
    _line(9, "bb-model", ok, elapsed, 10.0)
    assert ok
    assert elapsed < 10.0


def test_criterion_10_oracle_equivalence():
    def run():
        rng = np.random.default_rng(20260810)
        agreements = 0
        total = 200
        for _ in range(total):
            system = random_system(rng)
            if pointwise_feasibility(system).feasible == brute_force_feasible(system):
                agreements += 1
        return agreements, total

    (agreements, total), elapsed = _timed(run)
    ok = agreements == total
    _line(10, "oracle-equivalence", ok, elapsed, 60.0)
    assert ok
    assert elapsed < 60.0


def test_criterion_11_kraus_remix_preservation():
    base = with_zero_ops(y_projection_channel(), 3)

    def run():
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            q, r = np.linalg.qr(g)
            u = RemixMatrix(q * (np.diag(r) / np.abs(np.diag(r))))
            worst = max(worst, choi_deviation(base, remix_kraus(base, u)))
        return worst

    worst, elapsed = _timed(run)
    ok = worst <= 1e-10
    _line(11, "kraus-remix", ok, elapsed, 5.0)
    assert ok
    assert elapsed < 5.0


def test_criterion_12_figure():
    svg, elapsed = _timed(render_bloch_disk_svg)
    root = ET.fromstring(svg)
    counts: dict[str, int] = {}
    for element in root.iter():
        cls = element.get("class")
        if cls:
            counts[cls] = counts.get(cls, 0) + 1
    ok = (
        root.get("version") == "1.1"
        and counts.get("state-marker") == 6
        and counts.get("decomposition-segment") == 3
        and counts.get("decomposition-triangle") == 2
        and counts.get("center-marker") == 1
    )
    _line(12, "figure", ok, elapsed, 0.1)
    assert ok
    assert elapsed < 0.1
