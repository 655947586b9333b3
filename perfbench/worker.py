"""In-process side of the benchmark.

``python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1``
imports ctxcert (with ``src`` and ``tests`` on ``PYTHONPATH``), builds the
workload's inputs from the seed, warms up, and runs whole rounds of the
workload until ``S`` seconds have passed.  One call is in flight at a time,
and the machine-speed probe runs every 50 ms (see ``probe.py``).  It
prints human-readable lines and, last, one JSON object with the set-up time,
the operation counts and the metrics.  ``run.py`` starts it.

With ``--trace 1`` the first half of the time runs untraced and the second
half traced; the worker reports per-layer metrics per traced round, in raw
seconds that include the probes interrupting them (about 4%), and the
tracing overhead: the sum of the operations' median times, traced over
untraced.
"""

from __future__ import annotations

from time import perf_counter

from probe import PROBE_S, Calibration

_SETUP = Calibration(PROBE_S)
_SETUP.sample()
_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from ctxcert import bbmodel, cli, kraus, nogo, ontomodel, operational, qmath  # noqa: E402

import checks  # noqa: E402
from stats import median  # noqa: E402
from tracer import Tracer  # noqa: E402


def _payload(obj) -> bytes:
    """The bytes a caller would store: the object's JSON, as the CLI writes it."""
    doc = obj.to_json() if hasattr(obj, "to_json") else dataclasses.asdict(obj)
    return (json.dumps(doc, indent=2, default=str) + "\n").encode()


class Workload:
    """Rounds of timed operations with their checks and digests."""

    #: Report quiet seconds instead of calibrated seconds (see probe.py).
    QUIET = False

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.cal = Calibration(PROBE_S)
        self.ops: list[tuple[str, int, float, float]] = []  # series, round, start, end
        self.round_no = 0
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}

    def timed(self, series, call):
        """Run ``call`` as one operation of ``series`` (or of the series
        ``series(result)`` names)."""
        start = perf_counter()
        result = call()
        end = perf_counter()
        label = series(result) if callable(series) else series
        self.ops.append((label, self.round_no, start, end))
        return result

    def times(self, series: str | None = None, rounds: range | None = None) -> list[float]:
        """Seconds of the operations of ``series`` (or of all) in ``rounds``
        (or in all): quiet or calibrated, as the workload reports them."""
        chosen = [
            (start, end)
            for label, r, start, end in self.ops
            if (series is None or label == series) and (rounds is None or r in rounds)
        ]
        quiet = [self.cal.quiet_seconds(start, end) for start, end in chosen] if self.QUIET else []
        quiet = [t for t in quiet if t is not None]
        # A series that never met a quiet machine falls back to calibration.
        return quiet or [self.cal.seconds(start, end) for start, end in chosen]

    def raw(self, series: str) -> list[float]:
        return [end - start for label, _, start, end in self.ops if label == series]

    def sum_of_medians(self, series, rounds: range | None = None) -> float:
        return sum(median(self.times(key, rounds)) for key in series)

    def record(self, key: str, ok: bool, payload: bytes) -> None:
        """Count one operation; it fails when its check failed or its bytes
        differ from those of an earlier run of the same input."""
        self.attempted += 1
        digest = hashlib.sha256(payload).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            print(f"FAIL {key}: output bytes differ between runs")
            ok = False
        elif not ok:
            print(f"FAIL {key}: output is wrong")
        self.failed += not ok

    def certify(self, system) -> tuple[object, bytes]:
        """Certify and serialize: a certificate is what the user waits for."""
        cert = nogo.pointwise_feasibility(system)
        with self.tracer.span("serialize"):
            payload = (json.dumps(cert.to_json(), indent=2) + "\n").encode()
        if self.tracer.enabled:
            self.tracer.counts["serialize.bytes"] += len(payload)
        return cert, payload

    def line(self, name: str, series: str) -> float:
        """Print the median of a series, as reported and raw; return the former."""
        times, raw = self.times(series), self.raw(series)
        print(f"{name} = {median(times):.7f} s (raw {median(raw):.7f} s, median of {len(times)} of {len(raw)})")
        return median(times)


class PolygonLadder(Workload):
    """The regular 2k-gon systems, k = 2..7, certified in turn."""

    RUNGS = range(2, 8)

    def __init__(self, seed: int, tracer: Tracer) -> None:
        super().__init__(tracer)
        rng = random.Random(seed)
        self.systems = {
            k: nogo.ConstraintSystem.from_json(checks.polygon_system(k, rng)) for k in self.RUNGS
        }

    def warm(self) -> None:
        for k in range(2, 6):
            self.certify(self.systems[k])

    def round(self) -> None:
        for k in self.RUNGS:
            self.tracer.run = f"k{k}"
            cert, payload = self.timed(f"k{k}", lambda: self.certify(self.systems[k]))
            doc = json.loads(payload)
            ok = doc["verdict"] == checks.polygon_verdict(k)
            if ok and cert.feasible:
                ok = checks.witness_deviation(doc) <= checks.WITNESS_TOL
            self.record(f"k{k}", ok, payload)

    def metrics(self) -> dict[str, float]:
        medians = {k: self.line(f"certify_s.k{k}", f"k{k}") for k in self.RUNGS}
        return {
            "headline_s": medians[7],
            "second_s": medians[6],
            "rate_per_s": 1 / sum(medians.values()),
        }


def _verdict_kind(result) -> str:
    """``feasible``; ``infeasible`` when stage 1 found no ray, so every row
    is all-zero; ``lp-infeasible`` when rays exist but stage 2 found no
    normalized combination.  The two Infeasible kinds differ in cost by an
    order of magnitude, so each has its own median."""
    cert = result[0]
    if cert.feasible:
        return "feasible"
    return "infeasible" if all(row.conclusion == "all-zero" for row in cert.cases) else "lp-infeasible"


class RandomSmall(Workload):
    """Seeded instances of the test suite's random small-system family."""

    POOL = 2000
    QUIET = True

    def __init__(self, seed: int, tracer: Tracer) -> None:
        super().__init__(tracer)
        from feasibility_oracle import brute_force_feasible, random_system

        self.oracle = brute_force_feasible
        rng = np.random.default_rng(seed)
        self.systems = [random_system(rng) for _ in range(self.POOL)]
        self.expected: dict[int, bool] = {}

    def warm(self) -> None:
        for system in self.systems[:20]:
            self.certify(system)

    def round(self) -> None:
        for i, system in enumerate(self.systems):
            self.tracer.run = i
            cert, payload = self.timed(_verdict_kind, lambda: self.certify(system))
            if i not in self.expected:
                self.expected[i] = self.oracle(system)
            ok = cert.feasible == self.expected[i]
            if ok and cert.feasible:
                ok = checks.witness_deviation(json.loads(payload)) <= checks.WITNESS_TOL
            self.record(f"instance{i}", ok, payload)

    def metrics(self) -> dict[str, float]:
        times = self.times()
        rate = len(times) / sum(times)
        print(f"instances_per_s = {rate:.3f} 1/s ({len(times)} instances)")
        infeasible = self.times("infeasible") + self.times("lp-infeasible")
        print(f"infeasible_s.p50 = {median(infeasible):.7f} s (both kinds, n={len(infeasible)})")
        self.line("infeasible_s.stage1.p50", "infeasible")
        return {
            "headline_s": self.line("feasible_s.p50", "feasible"),
            "second_s": self.line("infeasible_s.stage2.p50", "lp-infeasible"),
            "rate_per_s": rate,
        }


class DriversWarm(Workload):
    """The library drivers of every module, called in-process."""

    SAMPLES = 1_000_000
    NOGO = ("prep_nogo", "meas_nogo", "transf_nogo")
    QUIET = True

    def __init__(self, seed: int, tracer: Tracer) -> None:
        super().__init__(tracer)
        rng = random.Random(seed)
        self.nc_seed = rng.randrange(2**31)
        vectors = operational.hexagon_state_vectors()
        self.vectors = vectors

        def pvm(x, y):
            return qmath.Povm(
                (qmath.Effect(qmath.pure_density(vectors[x]).matrix),
                 qmath.Effect(qmath.pure_density(vectors[y]).matrix))
            )

        def prep(*weighted):
            return bbmodel.BBPreparation(
                tuple((w, bbmodel.PureOnticState(vectors[name])) for w, name in weighted)
            )

        # The three configurations of acceptance criterion 09, with Born
        # probabilities from the geometry: a and b are 120 degrees apart.
        self.simulations = [
            (prep((1.0, "a")), pvm("a", "A"), (1.0, 0.0)),
            (prep((0.5, "a"), (0.5, "A")), pvm("b", "B"), (0.5, 0.5)),
            (prep((1.0, "b")), pvm("a", "A"), (0.25, 0.75)),
        ]
        self.sim_seeds = [rng.randrange(2**31) for _ in self.simulations]
        self.models = self._determinism_models()

    @staticmethod
    def _determinism_models():
        """The conforming and the ray-style models of acceptance criterion 08."""
        om = ontomodel
        conforming = om.OntModel(
            om.OnticSpace(2),
            prep_map={
                "a": om.Distribution(np.array([1.0, 0.0])),
                "A": om.Distribution(np.array([0.0, 1.0])),
                "I/d": om.Distribution(np.array([0.5, 0.5])),
            },
            meas_map={"Ma": om.IndicatorSet(np.array([[1.0, 0.0], [0.0, 1.0]]))},
        )
        # Born rows of the a/A measurement on the states a, A, b, B.
        rows = [[1.0, 0.0, 0.25, 0.75], [0.0, 1.0, 0.75, 0.25]]
        ray_style = om.OntModel(
            om.OnticSpace(4),
            prep_map={
                "a": om.Distribution(np.array([1.0, 0.0, 0.0, 0.0])),
                "A": om.Distribution(np.array([0.0, 1.0, 0.0, 0.0])),
                "I/d": om.Distribution(np.array([0.5, 0.5, 0.0, 0.0])),
            },
            meas_map={"Ma": om.IndicatorSet(np.array(rows))},
        )
        return conforming, ray_style

    def _calls(self):
        """``(key, call, check)`` for one round, in order.  Each call looks
        its driver up on the module, so a traced run sees it."""
        v = self.vectors
        conforming, ray_style = self.models

        def determinism():
            good = ontomodel.outcome_determinism_from_prep_nc(conforming, "Ma", ["a", "A"], d=2)
            bad = ontomodel.outcome_determinism_from_prep_nc(ray_style, "Ma", ["a", "A"], d=2)
            return good, bad

        calls = [
            ("prep_nogo", lambda: nogo.prep_nogo(), lambda c: not c.feasible),
            ("meas_nogo", lambda: nogo.meas_nogo(),
             lambda c: not c.feasible and checks.meas_rows_ok(c.to_json())),
            ("transf_nogo", lambda: nogo.transf_nogo(), lambda c: not c.feasible),
            ("gleason", lambda: nogo.gleason_contradiction(v["a"], v["b"]),
             lambda w: abs(w.forced_value - 0.25) <= 1e-12 and w.contradiction),
            ("od_unsharp", lambda: nogo.od_unsharp_contradiction(),
             lambda r: tuple(r.forced_values) == (0.5, 0.5) and r.contradiction),
            ("determinism", determinism,
             lambda gb: gb[0].passed and gb[1].failing_step == "support-union-covers-space"),
            ("mixture_identities", lambda: kraus.verify_mixture_identities(),
             lambda r: r.max_choi_dev <= 1e-12 and r.bloch_projection_max_dev <= 1e-12),
            ("bb_prep_demo", lambda: bbmodel.bb_prep_contextuality_demo(),
             lambda r: r.operationally_equivalent and r.shared_rays == 0 and r.preparation_contextual),
            ("bb_meas_nc", lambda: bbmodel.bb_meas_noncontextuality_property(100, self.nc_seed),
             lambda r: r.max_abs_dev <= 1e-12),
        ]
        for i, ((prep, povm, born), seed) in enumerate(zip(self.simulations, self.sim_seeds)):
            calls.append((
                f"bb_simulate{i}",
                lambda prep=prep, povm=povm, seed=seed: bbmodel.bb_simulate(prep, povm, self.SAMPLES, seed),
                lambda r, born=born: checks.within_sigma(r.frequencies, born, self.SAMPLES),
            ))
        return calls

    def warm(self) -> None:
        for _, call, _ in self._calls():
            call()

    def round(self) -> None:
        for key, call, check in self._calls():
            self.tracer.run = key
            result = self.timed(key, call)
            parts = result if isinstance(result, tuple) else (result,)
            self.record(key, bool(check(result)), b"".join(_payload(p) for p in parts))

    def metrics(self) -> dict[str, float]:
        keys = [key for key, _, _ in self._calls()]
        for key in keys:
            self.line(f"call_s.{key}", key)
        sims = [key for key in keys if key.startswith("bb_simulate")]
        rate = self.SAMPLES * len(sims) / self.sum_of_medians(sims)
        round_s = self.sum_of_medians(keys)
        nogo_s = self.sum_of_medians(self.NOGO)
        print(f"drivers_round_s = {round_s:.6f} s (sum of the calls' medians)")
        print(f"nogo_drivers_s = {nogo_s:.6f} s (prep + meas + transf)")
        print(f"bb_samples_per_s = {rate:.1f} 1/s")
        return {"headline_s": round_s, "second_s": nogo_s, "rate_per_s": rate}


class CliInProcess(Workload):
    """The cli-cold invocations run through ``cli.main`` in this process;
    used only for the traced pass of cli-cold."""

    def __init__(self, seed: int, tracer: Tracer, inputs: Path) -> None:
        super().__init__(tracer)
        self.inputs = inputs
        self.commands = checks.cli_commands(
            str(inputs / "system.json"), str(inputs / "theory.json"), sim_seed=seed
        )

    def round(self) -> None:
        for name, argv, expected in self.commands:
            self.tracer.run = name
            out = self.inputs / f"{name}.out"
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.timed(name, lambda: cli.main(argv + ["--out", str(out)]))
            text = out.read_text(encoding="utf-8")
            ok = code == expected and checks.cli_output_ok(name, text)
            self.record(name, ok, text.encode())


def write_inputs(directory: Path) -> None:
    """The two feasibility inputs of cli-cold: the hexagon constraint system
    and the hexagon theory."""
    (directory / "system.json").write_text(json.dumps(checks.HEXAGON_SYSTEM), encoding="utf-8")
    theory = operational.hexagon_theory().to_json()
    (directory / "theory.json").write_text(json.dumps(theory), encoding="utf-8")


# ---------------------------------------------------------------------------
# Tracing: the wrapped attributes and the per-layer metrics they feed.

#: The no-go drivers whose work outside the certifier is their premise checks.
DRIVERS = ("prep_nogo", "meas_nogo", "transf_nogo", "gleason_contradiction", "od_unsharp_contradiction")


def install(tracer: Tracer) -> None:
    """Wrap each layer call at the attribute where its caller looks it up."""
    counts = tracer.counts

    def rows(cert) -> None:
        try:
            zero = [row for row in cert.cases if row.conclusion == "all-zero"]
            counts["rows.all_zero"] += len(zero)
            counts["rows.with_steps"] += sum(1 for row in zero if row.steps)
        except AttributeError:
            counts["rows.unreadable"] += 1

    def rays(found) -> None:
        counts["nogo.rays"] += len(found)

    def lp_status(result) -> None:
        counts["nogo.linprog.infeasible"] += getattr(result, "status", None) == 2

    wraps = [
        (nogo, "pointwise_feasibility", "nogo.pointwise_feasibility", rows),
        (nogo, "_pattern_extreme_rays", "nogo._pattern_extreme_rays", rays),
        (nogo, "_nullspace", "nogo._nullspace", None),
        (nogo, "_derive_all_zero", "nogo._derive_all_zero", None),
        (nogo, "linprog", "nogo.linprog", lp_status),
        (nogo, "_witness_model", "nogo._witness_model", None),
        (nogo, "_verify_witness", "nogo._verify_witness", None),
        (nogo, "hexagon_theory", "operational.hexagon_theory", None),
        (kraus, "verify_mixture_identities", "kraus.verify_mixture_identities", None),
        (ontomodel, "outcome_determinism_from_prep_nc", "ontomodel.determinism", None),
        (bbmodel, "bb_simulate", "bbmodel.bb_simulate", None),
        (cli, "bb_simulate", "bbmodel.bb_simulate", None),
        (bbmodel, "bb_meas_noncontextuality_property", "bbmodel.meas_nc_property", None),
        (bbmodel, "bb_indicator", "bbmodel.bb_indicator", None),
        (cli, "main", "cli.main", None),
    ]
    wraps += [(nogo, name, f"nogo.{name}", None) for name in DRIVERS]
    for owner in (nogo, kraus, ontomodel):
        wraps += [
            (owner, "apply_channel", "qmath.apply_channel", None),
            (owner, "choi_deviation", "qmath.choi_deviation", None),
        ]
    for owner, attr, name, hook in wraps:
        tracer.wrap(owner, attr, name, hook)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer metrics per traced round, in raw seconds; a metric whose
    spans could not be wrapped is left out and named on an ``absent`` line."""
    t, c = tracer.total, tracer.counts
    drivers = {f"nogo.{name}" for name in DRIVERS}
    table = {
        "cli.main_self_s": (["cli.main"], lambda: t("cli.main") - tracer.child_time({"cli.main"})),
        "nogo.stage1_s": (["nogo._pattern_extreme_rays"], lambda: t("nogo._pattern_extreme_rays")),
        "nogo.stage1.patterns": (["nogo._pattern_extreme_rays"], lambda: c["nogo._pattern_extreme_rays"]),
        "nogo.stage1.supports_tried": (["nogo._nullspace"], lambda: c["nogo._nullspace"]),
        "nogo.stage1.rays": (["nogo._pattern_extreme_rays"], lambda: c["nogo.rays"]),
        "nogo.derive_s": (["nogo._derive_all_zero"], lambda: t("nogo._derive_all_zero")),
        "nogo.derive.rows": (["nogo._derive_all_zero"], lambda: c["nogo._derive_all_zero"]),
        "nogo.stage2_s": (["nogo.linprog"], lambda: t("nogo.linprog")),
        "nogo.stage2.calls": (["nogo.linprog"], lambda: c["nogo.linprog"]),
        "nogo.stage2.lp_infeasible": (["nogo.linprog"], lambda: c["nogo.linprog.infeasible"]),
        "nogo.witness_s": (
            ["nogo._witness_model", "nogo._verify_witness"],
            lambda: t("nogo._witness_model") + t("nogo._verify_witness")),
        "nogo.premises_s": (
            ["nogo.pointwise_feasibility", *sorted(drivers)],
            lambda: sum(t(d) for d in drivers)
            - tracer.child_time(drivers, {"nogo.pointwise_feasibility"})),
        "serialize_s": ([], lambda: t("serialize")),
        "serialize.bytes": ([], lambda: c["serialize.bytes"]),
        "qmath.apply_channel.calls": (["qmath.apply_channel"], lambda: c["qmath.apply_channel"]),
        "qmath.apply_channel_s": (["qmath.apply_channel"], lambda: t("qmath.apply_channel")),
        "qmath.choi_deviation.calls": (["qmath.choi_deviation"], lambda: c["qmath.choi_deviation"]),
        "qmath.choi_deviation_s": (["qmath.choi_deviation"], lambda: t("qmath.choi_deviation")),
        "operational.hexagon_theory_s": (
            ["operational.hexagon_theory"], lambda: t("operational.hexagon_theory")),
        "kraus.verify_mixture_identities_s": (
            ["kraus.verify_mixture_identities"], lambda: t("kraus.verify_mixture_identities")),
        "ontomodel.determinism_s": (["ontomodel.determinism"], lambda: t("ontomodel.determinism")),
        "bbmodel.simulate_s": (["bbmodel.bb_simulate"], lambda: t("bbmodel.bb_simulate")),
        "bbmodel.meas_nc_property_s": (
            ["bbmodel.meas_nc_property"], lambda: t("bbmodel.meas_nc_property")),
        "bbmodel.indicator.calls": (["bbmodel.bb_indicator"], lambda: c["bbmodel.bb_indicator"]),
    }
    out = {}
    for name, (needs, value) in table.items():
        missing = sorted(set(needs) & tracer.absent)
        if missing:
            print(f"absent {name}: {', '.join(missing)} not found")
        else:
            out[name] = value() / rounds
    stage1, certify = "nogo._pattern_extreme_rays", "nogo.pointwise_feasibility"
    if {stage1, certify} & tracer.absent:
        print("absent nogo.stage1_share: stage-1 or certifier spans not found")
    else:
        out["nogo.stage1_share"] = _ratio(t(stage1), t(certify))
        largest = [s for s in tracer.spans if s[4] == "k7"]
        if largest:
            share = _ratio(
                sum(e - b for n, b, e, _, _ in largest if n == stage1),
                sum(e - b for n, b, e, _, _ in largest if n == certify),
            )
            print(f"nogo.stage1_share.k7 = {share:.4f} (stage-1 time / certify time on k = 7)")
    if certify in tracer.absent or c["rows.unreadable"]:
        print("absent nogo.derive.complete_ratio: certificate rows not readable")
    else:
        out["nogo.derive.complete_ratio"] = _ratio(c["rows.with_steps"], c["rows.all_zero"])
        print(f"nogo.derive.complete = {c['rows.with_steps']}/{c['rows.all_zero']} all-zero rows carry steps")
    return out


# ---------------------------------------------------------------------------


def run_rounds(workload: Workload, seconds: float) -> range:
    """Whole rounds until ``seconds`` have passed, at least one, with the
    probe sampling; returns their round numbers."""
    first = workload.round_no
    with workload.cal.sampling():
        deadline = perf_counter() + seconds
        while workload.round_no == first or perf_counter() < deadline:
            workload.round()
            workload.round_no += 1
    return range(first, workload.round_no)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "polygon-ladder", "random-small", "drivers-warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inputs", type=Path, help="directory of the cli-cold inputs")
    parser.add_argument("--spans", type=Path, help="write the traced spans here as JSON lines")
    args = parser.parse_args(argv)
    if args.workload == "cli-cold" and args.inputs is None:
        parser.error("cli-cold needs --inputs")

    tracer = Tracer()
    # Set-up of cli-cold is the import alone; of the others, import, inputs
    # and warm-up.
    with _SETUP.sampling():
        if args.workload == "cli-cold":
            workload: Workload = CliInProcess(args.seed, tracer, args.inputs)
        else:
            cls = {"polygon-ladder": PolygonLadder, "random-small": RandomSmall,
                   "drivers-warm": DriversWarm}[args.workload]
            workload = cls(args.seed, tracer)
            workload.warm()
        end = perf_counter()
    setup_s = _SETUP.seconds(_START, end)
    print(f"setup_raw_s = {end - _START:.6f} s")
    if args.setup_only:
        if args.workload == "cli-cold" and args.inputs:
            write_inputs(args.inputs)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        plain = range(0) if args.workload == "cli-cold" else run_rounds(workload, args.seconds / 2)
        install(tracer)
        tracer.enabled = True
        traced = run_rounds(workload, args.seconds / (2 if plain else 1))
        tracer.enabled = False
        tracer.restore()
        metrics = layer_metrics(tracer, len(traced))
        if plain:
            series = sorted({label for label, *_ in workload.ops})
            metrics["trace.overhead_ratio"] = (
                workload.sum_of_medians(series, traced) / workload.sum_of_medians(series, plain)
            )
        if args.spans:
            tracer.dump(args.spans)
    else:
        run_rounds(workload, args.seconds)
        metrics = workload.metrics()
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for key, digest in workload.digests.items():
        print(f"sha256 {key} {digest}")
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
