"""The ctxcert benchmark: one command, four workloads, one closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; nothing needs building, the
program runs from ``src``.  Workloads (see perfbench/README.md):

- ``cli-cold``: each CLI subcommand as a fresh ``python -m ctxcert.cli``;
- ``polygon-ladder``: the certifier on the regular 2k-gon, k = 2..7;
- ``random-small``: the certifier on seeded small random instances;
- ``drivers-warm``: the library drivers, in-process, after warm-up.

One client sends one request at a time, from one CPU; the next starts when
the previous one has finished.  Every output is checked against an answer
independent of the certifier, and a wrong output counts as a failed
operation.  Timings are calibrated seconds (see ``probe.py``).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics; the
lines before it give every metric under its own name, with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import checks
from probe import CHILD_PROBE_S, Calibration
from stats import TAIL_BEYOND, median, tail

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli-cold", "polygon-ladder", "random-small", "drivers-warm")

#: Fresh set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: ``python -X importtime -c "import ctxcert"`` runs per traced run.
IMPORT_REPS = 3
#: Longest a single child may take before it is killed and the run fails.
CHILD_TIMEOUT_S = 150

#: Units of the end-to-end metrics; BENCHMARK.json lists the same names.
END_TO_END_UNITS = {
    "setup_s": "s",
    "headline_s": "s",
    "second_s": "s",
    "rate_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Modules whose source lines are counted, for the design-size aim.
LOC_MODULES = ("qmath", "operational", "ontomodel", "nogo", "kraus", "bbmodel", "cli")

#: Units of the per-layer metrics; BENCHMARK.json lists the same names.
PER_LAYER_UNITS = {
    "import.ctxcert_us": "us",
    "import.scipy_optimize_us": "us",
    "import.numpy_us": "us",
    "cli.main_self_s": "s",
    "nogo.stage1_s": "s",
    "nogo.stage1.patterns": "count",
    "nogo.stage1.supports_tried": "count",
    "nogo.stage1.rays": "count",
    "nogo.stage1_share": "ratio",
    "nogo.derive_s": "s",
    "nogo.derive.rows": "count",
    "nogo.derive.complete_ratio": "ratio",
    "nogo.stage2_s": "s",
    "nogo.stage2.calls": "count",
    "nogo.stage2.lp_infeasible": "count",
    "nogo.witness_s": "s",
    "nogo.premises_s": "s",
    "serialize_s": "s",
    "serialize.bytes": "bytes",
    "qmath.apply_channel.calls": "count",
    "qmath.apply_channel_s": "s",
    "qmath.choi_deviation.calls": "count",
    "qmath.choi_deviation_s": "s",
    "operational.hexagon_theory_s": "s",
    "kraus.verify_mixture_identities_s": "s",
    "ontomodel.determinism_s": "s",
    "bbmodel.simulate_s": "s",
    "bbmodel.meas_nc_property_s": "s",
    "bbmodel.indicator.calls": "count",
    "trace.overhead_ratio": "ratio",
    **{f"loc.{m}": "lines" for m in LOC_MODULES},
    "loc.total": "lines",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    return env


def run_child(cmd: list[str], work: Path) -> tuple[float, float, int, float, str]:
    """Run one child to completion: ``(start, end, exit code, max RSS MB,
    stderr)``, times from ``perf_counter``; its stderr goes through a file
    in ``work``.

    ``os.wait4`` gives the child's own resource usage; a timer kills a
    child that outlives ``CHILD_TIMEOUT_S``.
    """
    with tempfile.TemporaryFile(dir=work) as err:
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return start, end, proc.returncode, usage.ru_maxrss / 1024, stderr


def run_worker(workload: str, seed: int, *extra: str) -> dict:
    """Run ``worker.py``, relay its lines and return its final JSON object."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def setup_samples(workload: str, seed: int, reps: int, inputs: Path | None = None) -> list[float]:
    extra = ["--setup-only"] + (["--inputs", str(inputs)] if inputs else [])
    return [run_worker(workload, seed, *extra)["setup_s"] for _ in range(reps)]


_IMPORT_LINE = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative microseconds of ``ctxcert``, ``scipy.optimize`` and
    ``numpy`` from ``-X importtime`` output; a module never imported took 0."""
    cumulative = {}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            cumulative.setdefault(match.group(2), int(match.group(1)))
    return {
        "import.ctxcert_us": cumulative.get("ctxcert", 0),
        "import.scipy_optimize_us": cumulative.get("scipy.optimize", 0),
        "import.numpy_us": cumulative.get("numpy", 0),
    }


def loc_metrics() -> dict[str, float]:
    package = ROOT / "src" / "ctxcert"
    counts = {f.stem: len(f.read_text(encoding="utf-8").splitlines()) for f in package.glob("*.py")}
    out = {f"loc.{m}": counts[m] for m in LOC_MODULES if m in counts}
    for m in LOC_MODULES:
        if m not in counts:
            print(f"absent loc.{m}: src/ctxcert/{m}.py not found")
    out["loc.total"] = sum(counts.values())
    return out


# ---------------------------------------------------------------------------
# cli-cold: every subcommand as a fresh process.


class CliRounds:
    """Rounds of CLI invocations, each followed by a child probe, with
    their checks and digests."""

    def __init__(self, seed: int, inputs: Path) -> None:
        self.inputs = inputs
        self.commands = checks.cli_commands(
            str(inputs / "system.json"), str(inputs / "theory.json"), sim_seed=seed
        )
        random.Random(seed).shuffle(self.commands)
        self.cal = Calibration(CHILD_PROBE_S)
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}

    def probe(self) -> None:
        start, end, code, _, stderr = run_child([sys.executable, str(HERE / "probe.py")], self.inputs)
        if code != 0:
            raise BenchError(f"probe failed: {stderr.strip()[-2000:]}")
        self.cal.add(start, end, end - start)

    def run(
        self, seconds: float, importtime: bool = False, at_least: int = 1
    ) -> list[tuple[str, float, float, float, str]]:
        """Whole rounds until ``seconds`` have passed and ``at_least``
        invocations ran: ``(name, calibrated s, raw s, max RSS MB, stderr)``
        per invocation."""
        runs = []
        self.probe()
        deadline = perf_counter() + seconds
        while len(runs) < at_least or perf_counter() < deadline:
            for name, argv, expected in self.commands:
                out = self.inputs / f"{name}.out"
                cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
                       "-m", "ctxcert.cli", *argv, "--out", str(out)]
                start, end, code, rss, stderr = run_child(cmd, self.inputs)
                self.probe()
                runs.append((name, start, end, rss, stderr))
                self.attempted += 1
                try:
                    text = out.read_text(encoding="utf-8")
                    ok = code == expected and checks.cli_output_ok(name, text)
                except (OSError, ValueError, KeyError, TypeError):
                    text, ok = "", False
                digest = hashlib.sha256(text.encode()).hexdigest()
                if self.digests.setdefault(name, digest) != digest:
                    print(f"FAIL {name}: output bytes differ between runs")
                    ok = False
                elif not ok:
                    print(f"FAIL {name}: exit {code} (expected {expected}) or wrong output")
                self.failed += not ok
                out.unlink(missing_ok=True)
        return [(name, self.cal.seconds(start, end), end - start, rss, stderr)
                for name, start, end, rss, stderr in runs]


def cli_cold(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setups = setup_samples("cli-cold", seed, 1 if trace else SETUP_REPS, inputs=work)
    rounds = CliRounds(seed, work)
    metrics: dict[str, float] = {}
    if trace:
        traced = rounds.run(seconds / 3, importtime=True)
        plain = rounds.run(seconds / 3)
        per_module: dict[str, list[float]] = {}
        for *_, stderr in traced:
            for key, value in import_times(stderr).items():
                per_module.setdefault(key, []).append(value)
        metrics.update({key: median(values) for key, values in per_module.items()})
        metrics["trace.overhead_ratio"] = (
            median([s[1] for s in traced]) / median([s[1] for s in plain])
        )
        inproc = run_worker("cli-cold", seed, "--seconds", str(seconds / 3), "--trace", "1",
                            "--inputs", str(work), "--spans", str(work.parent / "spans-cli-cold.jsonl"))
        metrics.update(inproc["metrics"])
        rounds.attempted += inproc["attempted"]
        rounds.failed += inproc["failed"]
    else:
        runs = rounds.run(seconds, at_least=TAIL_BEYOND + 1)
        walls, raws = [s[1] for s in runs], [s[2] for s in runs]
        for name, _, _ in rounds.commands:
            mine = [s[1] for s in runs if s[0] == name]
            print(f"cli_wall_s.{name} = {median(mine):.6f} s (median of {len(mine)})")
        p50 = median(walls)
        print(f"cli_wall_s.p50 = {p50:.6f} s (raw {median(raws):.6f} s, n={len(walls)})")
        high = tail(walls)
        print(f"cli_wall_s.tail = {high[1]:.6f} s (p{high[0]:.1f}, raw {tail(raws)[1]:.6f} s, n={len(walls)})")
        rss = max(s[3] for s in runs)
        print(f"cli_peak_rss_mb = {rss:.3f} MB (largest child)")
        metrics = {
            "headline_s": p50,
            "second_s": high[1],
            "rate_per_s": len(walls) / sum(walls),
            "peak_rss_mb": rss,
        }
    for name, digest in rounds.digests.items():
        print(f"sha256 {name} {digest}")
    return {"setup": setups, "attempted": rounds.attempted, "failed": rounds.failed, "metrics": metrics}


def in_process(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setups = [] if trace else setup_samples(workload, seed, SETUP_REPS - 1)
    extra = ["--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        extra += ["--spans", str(work.parent / f"spans-{workload}.jsonl")]
    result = run_worker(workload, seed, *extra)
    metrics = result["metrics"]
    if trace:
        cmd = [sys.executable, "-X", "importtime", "-c", "import ctxcert"]
        imports = [import_times(run_child(cmd, work)[4]) for _ in range(IMPORT_REPS)]
        metrics.update({key: median([i[key] for i in imports]) for key in imports[0]})
    return {"setup": setups + [result["setup_s"]], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ctxcert benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    needed = [ROOT / "src" / "ctxcert" / "__init__.py", ROOT / "tests" / "feasibility_oracle.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: the program is missing from {ROOT}: {', '.join(missing)}", file=sys.stderr)
        return 2

    # One CPU for the whole closed loop: every child and probe runs where
    # the previous one ran, so the probes see the CPU the work saw.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            if args.workload == "cli-cold":
                result = cli_cold(args.seed, args.seconds, bool(args.trace), Path(tmp))
            else:
                result = in_process(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if args.trace:
        metrics.update(loc_metrics())
        units = PER_LAYER_UNITS
    else:
        metrics["setup_s"] = median(result["setup"])
        print(f"setup_s: median of {len(result['setup'])} set-ups")
        units = END_TO_END_UNITS
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_ratio = {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for name in units:
        if name in metrics:
            print(f"{name} = {metrics[name]} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
