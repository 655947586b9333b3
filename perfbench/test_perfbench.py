"""Tests of the benchmark's own helpers.

Run from the repository root with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import copy
import json
import math
import random
import types
from pathlib import Path

import pytest

import checks
import run
from stats import tail
from tracer import Tracer

from ctxcert import nogo


class TestTail:
    def test_too_few_samples_have_no_tail(self):
        assert tail([]) is None
        assert tail([float(i) for i in range(10)]) is None

    def test_leaves_exactly_ten_samples_beyond(self):
        for n in (11, 27, 100, 1000):
            values = [float(i) for i in range(n)]
            random.Random(n).shuffle(values)
            percentile, value = tail(values)
            assert sum(1 for v in values if v > value) == 10
            assert percentile == pytest.approx(100.0 * (n - 10) / n)

    def test_hundred_samples_give_p90(self):
        percentile, value = tail([float(i) for i in range(1, 101)])
        assert (percentile, value) == (90.0, 90.0)


class TestPolygon:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_verdict_follows_parity(self, k):
        doc = checks.polygon_system(k, random.Random(k))
        cert = nogo.pointwise_feasibility(nogo.ConstraintSystem.from_json(doc))
        assert cert.verdict == checks.polygon_verdict(k)
        if cert.feasible:
            assert checks.witness_deviation(cert.to_json()) <= checks.WITNESS_TOL

    def test_structure(self):
        doc = checks.polygon_system(4, random.Random(0))
        names = doc["variables"]
        assert sorted(names) == sorted(f"p{i}" for i in range(8))
        assert doc["disjoint_pairs"] == [[names[i], names[i + 4]] for i in range(4)]
        assert len(doc["equality_groups"]) == 4 + 2
        assert doc["equality_groups"][-2] == {names[i]: "1/4" for i in (0, 2, 4, 6)}

    def test_seed_only_renames(self):
        def canonical(doc):
            rename = {name: f"v{i}" for i, name in enumerate(doc["variables"])}
            return (
                [[rename[u], rename[v]] for u, v in doc["disjoint_pairs"]],
                [{rename[v]: c for v, c in form.items()} for form in doc["equality_groups"]],
            )

        docs = [checks.polygon_system(5, random.Random(seed)) for seed in range(6)]
        assert len({tuple(d["variables"]) for d in docs}) > 1
        assert all(canonical(doc) == canonical(docs[0]) for doc in docs)


class TestWitnessRecheck:
    @pytest.fixture()
    def cert(self):
        doc = checks.polygon_system(2, random.Random(0))
        cert = nogo.pointwise_feasibility(nogo.ConstraintSystem.from_json(doc)).to_json()
        assert cert["verdict"] == "Feasible"
        return json.loads(json.dumps(cert))

    def test_accepts_the_certifier_witness(self, cert):
        assert checks.witness_deviation(cert) <= checks.WITNESS_TOL

    def test_rejects_overlapping_pair(self, cert):
        bad = copy.deepcopy(cert)
        u, v = bad["system"]["disjoint_pairs"][0]
        bad["witness"]["preparations"][v] = list(bad["witness"]["preparations"][u])
        assert checks.witness_deviation(bad) > checks.WITNESS_TOL

    def test_rejects_lost_mass(self, cert):
        bad = copy.deepcopy(cert)
        var = bad["system"]["variables"][0]
        bad["witness"]["preparations"][var] = [w * 0.9 for w in bad["witness"]["preparations"][var]]
        assert checks.witness_deviation(bad) > checks.WITNESS_TOL

    def test_rejects_negative_weight(self, cert):
        bad = copy.deepcopy(cert)
        var = bad["system"]["variables"][0]
        weights = bad["witness"]["preparations"][var]
        weights[0] -= 2.0
        weights[-1] += 2.0
        assert checks.witness_deviation(bad) > checks.WITNESS_TOL

    def test_rejects_unequal_forms(self, cert):
        bad = copy.deepcopy(cert)
        bad["system"]["equality_groups"][0] = {
            var: "1" for var in bad["system"]["equality_groups"][0]
        }
        assert checks.witness_deviation(bad) > checks.WITNESS_TOL

    def test_rejects_missing_variable(self, cert):
        bad = copy.deepcopy(cert)
        bad["witness"]["preparations"].pop(bad["system"]["variables"][0])
        assert checks.witness_deviation(bad) == math.inf


class TestChecks:
    def test_meas_rows_take_only_the_paper_pairs(self):
        doc = nogo.meas_nogo().to_json()
        assert checks.meas_rows_ok(doc)
        doc["cases"][0]["values"] = ["1/2", "1/2"]
        assert not checks.meas_rows_ok(doc)

    def test_within_sigma(self):
        assert checks.within_sigma((0.5, 0.5), (0.5, 0.5), 100)
        assert not checks.within_sigma((0.7, 0.3), (0.5, 0.5), 10_000)
        assert checks.within_sigma((1.0, 0.0), (1.0, 0.0), 10)
        assert not checks.within_sigma((0.999, 0.001), (1.0, 0.0), 10_000)


class TestTracer:
    def test_self_time_excludes_children(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
            with tracer.span("child"):
                pass
        assert tracer.child_time({"parent"}) == pytest.approx(tracer.total("child"))
        assert 0 <= tracer.total("parent") - tracer.child_time({"parent"}) <= tracer.total("parent")

    def test_missing_name_is_absent_and_metrics_still_compute(self, capsys):
        import worker

        tracer = Tracer()
        module = types.SimpleNamespace(__name__="nogo")
        tracer.wrap(module, "_nullspace", "nogo._nullspace")
        assert tracer.absent == {"nogo._nullspace"}
        metrics = worker.layer_metrics(tracer, rounds=1)
        assert "nogo.stage1.supports_tried" not in metrics
        assert "nogo.stage1_s" in metrics
        assert "absent nogo.stage1.supports_tried" in capsys.readouterr().out

    def test_wrap_counts_and_restores(self):
        tracer = Tracer()
        tracer.enabled = True
        module = types.SimpleNamespace(double=lambda x: 2 * x)
        original = module.double
        tracer.wrap(module, "double", "double")
        assert module.double(3) == 6
        tracer.restore()
        assert module.double is original
        assert tracer.counts["double"] == 1 and tracer.total("double") >= 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_import_times_parses_cumulative_microseconds():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |      90000 |   numpy",
        "import time:       549 |     428856 |     scipy.optimize",
        "import time:      3275 |     611249 | ctxcert",
        "feasibility: Infeasible (8 zero patterns)",
    ])
    assert run.import_times(stderr) == {
        "import.ctxcert_us": 611249,
        "import.scipy_optimize_us": 428856,
        "import.numpy_us": 90000,
    }
