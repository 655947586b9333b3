"""The benchmark's traced layers still resolve in the package.

``perfbench/worker.py`` wraps each traced function at the attribute where its
caller looks it up; a name that no longer resolves silently drops the
per-layer metrics it feeds from the traced runs' result line.  These tests
only read ``perfbench/`` and ``BENCHMARK.json``.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker
    from tracer import Tracer

    tracer = Tracer()
    try:
        worker.install(tracer)
        assert tracer.absent == set()
    finally:
        tracer.restore()


def test_a_traced_certification_reports_every_certifier_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import worker
    from tracer import Tracer

    from ctxcert import nogo

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {
        m["name"]
        for m in declared
        if m["name"].startswith(("nogo.stage1", "nogo.derive", "nogo.stage2"))
    }
    tracer = Tracer()
    try:
        worker.install(tracer)
        tracer.enabled = True
        nogo.pointwise_feasibility(nogo.ConstraintSystem.from_json(checks.HEXAGON_SYSTEM))
    finally:
        tracer.restore()
    metrics = worker.layer_metrics(tracer, 1)
    assert wanted and wanted <= metrics.keys()
    json.dumps(metrics, allow_nan=False)
    assert metrics["nogo.stage1.patterns"] == 1
