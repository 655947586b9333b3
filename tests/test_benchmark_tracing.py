"""The benchmark's traced layers still resolve in the package.

``perfbench/worker.py`` wraps each traced function at the attribute where its
caller looks it up; a name that no longer resolves silently drops the
per-layer metrics it feeds from the traced runs' result line.  This test only
reads ``perfbench/``.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
