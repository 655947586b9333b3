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
    """``doc`` as indented lines, ``key:`` before an object's entries and ``-`` before a
    list's items; a nested object or list goes on the lines below, as ``{}`` or ``[]`` if empty."""
    pad = "  " * indent
    if not isinstance(doc, (dict, list)):
        return f"{pad}{doc}"
    if not doc:
        return pad + json.dumps(doc)
    if isinstance(doc, dict):
        pairs = [(f"{k}:", v) for k, v in doc.items()]
    else:
        pairs = [("-", v) for v in doc]
    lines = []
    for label, value in pairs:
        if isinstance(value, (dict, list)):
            lines += [f"{pad}{label}", _render_text(value, indent + 1)]
        else:
            lines.append(f"{pad}{label} {value}")
    return "\n".join(lines)


def _emit(payload: str, out: str | None, summary: str) -> None:
    if out:
        Path(out).write_text(payload, encoding="utf-8")
        print(summary)
    else:
        sys.stdout.write(payload)
        print(summary, file=sys.stderr)


def _emit_doc(doc: dict, args: argparse.Namespace, summary: str) -> None:
    if args.format == "text":
        payload = _render_text(doc) + "\n"
    else:
        payload = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    _emit(payload, args.out, summary)


# ---------------------------------------------------------------------------
# Input files.


def _load_json(path: str):
    """The JSON document in the file ``path``, or an ``InputError`` that says
    why the file cannot be read or where its JSON is malformed."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from None


def _read_spec(flag: str, spec: str, from_json, from_names):
    """``from_json`` of the file that ``spec`` names as ``@FILE``, else ``from_names(spec)``;
    each error names the flag and the spec."""
    from .qmath import read_at

    read = (lambda s: from_json(_load_json(s[1:]))) if spec.startswith("@") else from_names
    return read_at(f"{flag} {spec}", read, spec)


# ---------------------------------------------------------------------------
# nogo subcommand.


def cmd_nogo(args: argparse.Namespace) -> int:
    from . import nogo
    from .operational import hexagon_state_vectors

    def gleason():
        vectors = hexagon_state_vectors()
        try:
            return nogo.gleason_contradiction(vectors["a"], vectors["b"], tol=args.tol)
        except ValueError as exc:
            raise InputError(exc) from None

    drivers = {
        "prep": (nogo.prep_nogo, lambda c: f"{c.verdict} across {len(c.cases)} zero patterns"),
        "meas": (
            nogo.meas_nogo,
            lambda c: f"{c.verdict}; {len(c.cases)} deterministic assignments, "
            "none mixes to (1/2, 1/2)",
        ),
        "transf": (nogo.transf_nogo, lambda c: f"{c.verdict} across {len(c.cases)} zero patterns"),
        "gleason": (gleason, lambda w: f"forced fractional value {w.forced_value:.6f}"),
        "od-unsharp": (
            nogo.od_unsharp_contradiction,
            lambda r: "forced representation "
            f"{tuple(round(v, 6) for v in r.forced_values)} is not idempotent",
        ),
    }
    driver, summary = drivers[args.target]
    try:
        result = driver()
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except nogo.VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_DEVIATION
    _emit_doc(result.to_json(), args, f"{args.target}: {summary(result)}")
    # A certificate must be Infeasible; a witness or report must be a contradiction.
    ok = not result.feasible if isinstance(result, nogo.Certificate) else result.contradiction
    return EXIT_OK if ok else EXIT_DEVIATION


# ---------------------------------------------------------------------------
# feasibility subcommand.


def cmd_feasibility(args: argparse.Namespace) -> int:
    from . import nogo
    from .operational import OperationalTheory

    try:
        doc = _load_json(args.instance)
        if isinstance(doc, dict) and "variables" in doc:
            system = nogo.ConstraintSystem.from_json(doc)
        elif isinstance(doc, dict) and "preparations" in doc:
            theory = OperationalTheory.from_json(doc, tol=args.tol)
            system = nogo.system_from_theory(theory)
        else:
            raise InputError("instance is neither a constraint system nor a theory")
        cert = nogo.pointwise_feasibility(system)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except nogo.VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_DEVIATION
    summary = f"feasibility: {cert.verdict} ({len(cert.cases)} zero patterns)"
    _emit_doc(cert.to_json(), args, summary)
    return EXIT_OK if cert.feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# simulate-bb subcommand.

#: The ``--povm`` names of the hexagon theory's measurements.
_POVMS = {"a": "Ma", "b": "Mb", "c": "Mc", "mixed": "M", "trivial": "Mtrivial"}


def _parse_prep_spec(spec: str) -> BBPreparation:
    from .bbmodel import BBPreparation, PureOnticState
    from .operational import hexagon_state_vectors

    parts = [p.strip() for p in spec.split(",") if p.strip()]
    vectors = hexagon_state_vectors()
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

    if spec not in _POVMS:
        raise InputError(f"unknown POVM {spec!r}; choose a/b/c/mixed/trivial or @file")
    return hexagon_theory().measurements[_POVMS[spec]]


def cmd_simulate_bb(args: argparse.Namespace) -> int:
    from .bbmodel import BBPreparation, bb_simulate
    from .qmath import Povm

    try:
        prep = _read_spec("--prep", args.prep, BBPreparation.from_json, _parse_prep_spec)
        povm = _read_spec("--povm", args.povm, Povm.from_json, _parse_povm_spec)
        report = bb_simulate(prep, povm, args.samples, args.seed)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    within = report.within_sigma(4.0)
    summary = (
        f"simulate-bb: n={report.n} seed={report.seed} "
        f"max|freq-born|={report.max_abs_dev:.3e} ({'within' if within else 'OUTSIDE'} 4 sigma)"
    )
    _emit_doc(report.to_json(), args, summary)
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
        "numeric tolerance of the gleason target's overlap check (state vectors are "
        "checked to be normalized at a fixed tolerance); the other targets check "
        "their premises at fixed tolerances",
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
