"""Command-line front end.

Subcommands run the no-go drivers, certify user-supplied instances, run
model simulations, and emit the hexagon-geometry figure.  Machine-readable
output goes to ``--out`` (stdout when omitted, in which case the one-line
human summary moves to stderr).  Exit codes: 0 success or expected verdict,
1 internal error, 2 input error, 3 a feasibility query came back Infeasible,
4 a verification deviated from its expected outcome.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .bbmodel import BBPreparation
    from .qmath import Povm

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_DEVIATION = 4

DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 12345


class InputError(ValueError):
    """Bad user input: malformed file, unknown name, invalid flag value."""


# ---------------------------------------------------------------------------
# Output plumbing.


def _render_text(doc, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(doc, dict):
        lines = []
        for key, value in doc.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return "\n".join(lines)
    if isinstance(doc, list):
        lines = []
        for value in doc:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
        return "\n".join(lines) if lines else f"{pad}[]"
    return f"{pad}{doc}"


def _emit(payload: str, out: str | None, summary: str) -> None:
    if out:
        Path(out).write_text(payload, encoding="utf-8")
        print(summary)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
        print(summary, file=sys.stderr)


def _emit_doc(doc: dict, args: argparse.Namespace, summary: str) -> None:
    if args.format == "text":
        payload = _render_text(doc) + "\n"
    else:
        payload = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    _emit(payload, args.out, summary)


# ---------------------------------------------------------------------------
# nogo subcommand.


def cmd_nogo(args: argparse.Namespace) -> int:
    from . import nogo
    from .operational import hexagon_state_vectors

    target = args.target
    try:
        if target == "prep":
            cert = nogo.prep_nogo()
            doc = cert.to_json()
            summary = f"prep: {cert.verdict} across {len(cert.cases)} zero patterns"
            ok = not cert.feasible
        elif target == "meas":
            cert = nogo.meas_nogo()
            doc = cert.to_json()
            summary = (
                f"meas: {cert.verdict}; {len(cert.cases)} deterministic assignments, "
                "none mixes to (1/2, 1/2)"
            )
            ok = not cert.feasible
        elif target == "transf":
            cert = nogo.transf_nogo()
            doc = cert.to_json()
            summary = f"transf: {cert.verdict} across {len(cert.cases)} zero patterns"
            ok = not cert.feasible
        elif target == "gleason":
            vectors = hexagon_state_vectors()
            try:
                witness = nogo.gleason_contradiction(vectors["a"], vectors["b"], tol=args.tol)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_INPUT
            doc = witness.to_json()
            summary = f"gleason: forced fractional value {witness.forced_value:.6f}"
            ok = witness.contradiction
        elif target == "od-unsharp":
            report = nogo.od_unsharp_contradiction()
            doc = report.to_json()
            summary = (
                "od-unsharp: forced representation "
                f"{tuple(round(v, 6) for v in report.forced_values)} is not idempotent"
            )
            ok = report.contradiction
        else:  # pragma: no cover - argparse restricts the choices
            raise InputError(f"unknown target {target!r}")
    except nogo.VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_DEVIATION
    _emit_doc(doc, args, summary)
    return EXIT_OK if ok else EXIT_DEVIATION


# ---------------------------------------------------------------------------
# feasibility subcommand.


def cmd_feasibility(args: argparse.Namespace) -> int:
    from . import nogo
    from .operational import OperationalTheory

    try:
        text = Path(args.instance).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.instance}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    try:
        if isinstance(doc, dict) and "variables" in doc:
            system = nogo.ConstraintSystem.from_json(doc)
        elif isinstance(doc, dict) and "preparations" in doc:
            theory = OperationalTheory.from_json(doc, tol=args.tol)
            system = nogo.system_from_theory(theory)
        else:
            raise InputError("instance is neither a constraint system nor a theory")
        cert = nogo.pointwise_feasibility(system)
    except (InputError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except nogo.VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_DEVIATION
    doc_out = cert.to_json()
    summary = f"feasibility: {cert.verdict} ({len(cert.cases)} zero patterns)"
    _emit_doc(doc_out, args, summary)
    return EXIT_OK if cert.feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# simulate-bb subcommand.


def _read(where: str, read, value):
    """``read(value)``, whose value errors name where the value sits."""
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from None


def _parse_prep_spec(spec: str) -> BBPreparation:
    import numpy as np

    from .bbmodel import BBPreparation, PureOnticState
    from .operational import hexagon_state_vectors
    from .qmath import complex_from_json, real_from_json

    vectors = hexagon_state_vectors()
    if spec.startswith("@"):
        doc = json.loads(Path(spec[1:]).read_text(encoding="utf-8"))
        if not isinstance(doc, list):
            raise InputError(f"--prep {spec}: expected a list of objects with fields weight, state")
        mixture = []
        for i, entry in enumerate(doc):
            where = f"--prep {spec}: entry {i}"
            if not isinstance(entry, dict):
                raise InputError(f"{where} is not an object with fields weight, state")
            for key in ("weight", "state"):
                if key not in entry:
                    raise InputError(f"{where} has no field {key!r}")
            if not isinstance(entry["state"], list):
                raise InputError(f"{where}: field 'state' is not a list")
            weight = _read(f"{where}: field 'weight'", real_from_json, entry["weight"])
            state = _read(
                f"{where}: field 'state'",
                lambda zs: np.array([complex_from_json(z) for z in zs]),
                entry["state"],
            )
            mixture.append((weight, PureOnticState(state)))
        return BBPreparation(tuple(mixture))
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    if not parts:
        raise InputError("empty preparation spec")
    mixture = []
    for part in parts:
        if ":" in part:
            weight_text, name = part.split(":", 1)
            weight = float(weight_text)
        else:
            weight, name = 1.0, part
        if name not in vectors:
            raise InputError(f"unknown state {name!r}; choose from {sorted(vectors)}")
        mixture.append((weight, PureOnticState(vectors[name])))
    return BBPreparation(tuple(mixture))


def _parse_povm_spec(spec: str) -> Povm:
    from .operational import hexagon_theory
    from .qmath import Effect, Povm, matrix_from_json

    if spec.startswith("@"):
        doc = json.loads(Path(spec[1:]).read_text(encoding="utf-8"))
        effects = doc.get("effects") if isinstance(doc, dict) else doc
        if not isinstance(effects, list):
            raise InputError(f"--povm {spec}: field 'effects' is not a list of matrices")
        where = f"--povm {spec}: field 'effects', entry"
        matrices = [_read(f"{where} {i}", matrix_from_json, m) for i, m in enumerate(effects)]
        return Povm(tuple(Effect(m) for m in matrices))
    measurements = hexagon_theory().measurements
    if spec in ("a", "b", "c"):
        return measurements["M" + spec]
    if spec in ("trivial", "mixed"):
        # The uniform mixture of the three antipodal PVMs equals the
        # coin-flip POVM, so both names yield {I/2, I/2}.
        return measurements["Mtrivial"]
    raise InputError(f"unknown POVM {spec!r}; choose a/b/c/mixed/trivial or @file")


def cmd_simulate_bb(args: argparse.Namespace) -> int:
    from .bbmodel import bb_simulate

    try:
        prep = _parse_prep_spec(args.prep)
        povm = _parse_povm_spec(args.povm)
        report = bb_simulate(prep, povm, args.samples, args.seed)
    except (InputError, ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    doc = report.to_json()
    within = report.within_sigma(4.0)
    summary = (
        f"simulate-bb: n={report.n} seed={report.seed} "
        f"max|freq-born|={report.max_abs_dev:.3e} ({'within' if within else 'OUTSIDE'} 4 sigma)"
    )
    _emit_doc(doc, args, summary)
    return EXIT_OK if within else EXIT_DEVIATION


# ---------------------------------------------------------------------------
# figure-bloch subcommand.


def cmd_figure_bloch(args: argparse.Namespace) -> int:
    from .operational import render_bloch_disk_svg

    svg = render_bloch_disk_svg()
    _emit(svg, args.out, "figure-bloch: 6 states, 3 segments, 2 triangles, center marker")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point.


def build_parser() -> argparse.ArgumentParser:
    from .qmath import VALIDITY_TOL

    parser = argparse.ArgumentParser(
        prog="ctxcert",
        description="Certify contextuality no-go theorems and explore their instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, tol_help: str | None = None) -> None:
        if tol_help:
            p.add_argument("--tol", type=float, default=VALIDITY_TOL, help=tol_help)
        p.add_argument("--out", default=None, help="write machine-readable output here")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p_nogo = sub.add_parser("nogo", help="run one of the no-go drivers")
    p_nogo.add_argument(
        "target", choices=("prep", "meas", "transf", "gleason", "od-unsharp")
    )
    add_common(
        p_nogo,
        "numeric tolerance of the gleason target's normalization and overlap "
        "checks; the other targets check their premises at fixed tolerances",
    )
    p_nogo.set_defaults(func=cmd_nogo)

    p_feas = sub.add_parser("feasibility", help="certify a user-supplied instance")
    p_feas.add_argument("instance", help="JSON constraint system or operational theory")
    add_common(
        p_feas,
        "numeric tolerance for theory input (mixture checks, target equivalence, "
        "orthogonality); constraint systems are exact and do not read it",
    )
    p_feas.set_defaults(func=cmd_feasibility)

    p_sim = sub.add_parser("simulate-bb", help="seeded model simulation")
    p_sim.add_argument("--prep", required=True, help='e.g. "0.5:a,0.5:A" or "@prep.json"')
    p_sim.add_argument("--povm", required=True, help='one of a/b/c/mixed/trivial or "@povm.json"')
    p_sim.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate_bb)

    p_fig = sub.add_parser("figure-bloch", help="emit the disk geometry as SVG")
    p_fig.add_argument("--out", default=None, help="write the SVG here")
    p_fig.set_defaults(func=cmd_figure_bloch)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "tol" in args and not 0 < args.tol < math.inf:
        print("error: --tol must be positive and finite", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "samples", 1) < 1:
        print("error: --samples must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
