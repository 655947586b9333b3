"""Inputs and correctness checks that do not depend on the certifier.

Every expected answer here comes from the paper's mathematics or from code
of the benchmark's own: the 2k-gon verdict from the parity of k, Feasible
witnesses from a numpy re-check of the serialized model, the measurement
no-go's value pairs from the paper, and Born statistics from closed forms.
"""

from __future__ import annotations

import json
import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

#: Tolerance of the witness re-check.
WITNESS_TOL = 1e-9

#: The preparation system of the paper's hexagon: three antipodal pairs and
#: the five decompositions of the completely mixed state.  Written out here
#: so that the input does not depend on the system constructors in `nogo`.
HEXAGON_SYSTEM = {
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

#: The only value pairs the mixed deterministic measurement may take.
MEAS_VALUE_PAIRS = {("1", "0"), ("0", "1"), ("2/3", "1/3"), ("1/3", "2/3")}


def polygon_system(k: int, rng: random.Random) -> dict:
    """The regular 2k-gon constraint system, as ``ConstraintSystem`` JSON.

    Vertex i is antipodal to vertex i + k; the forms are the k pair
    mixtures ``{v_i: 1/2, v_{i+k}: 1/2}`` and the uniform mixtures of the
    even and of the odd vertices.  ``rng`` rotates the labels: vertex i is
    named ``p<(i + r) mod 2k>``.  The family itself is fixed, and renaming
    changes neither the verdict nor the work, which the order of the
    variables would.
    """
    n = 2 * k
    r = rng.randrange(n)
    names = [f"p{(i + r) % n}" for i in range(n)]
    forms = [{names[i]: "1/2", names[i + k]: "1/2"} for i in range(k)]
    forms += [{names[i]: f"1/{k}" for i in range(parity, n, 2)} for parity in (0, 1)]
    return {
        "variables": names,
        "disjoint_pairs": [[names[i], names[i + k]] for i in range(k)],
        "equality_groups": forms,
    }


def polygon_verdict(k: int) -> str:
    """Even k admits a model, odd k does not."""
    return "Feasible" if k % 2 == 0 else "Infeasible"


def witness_deviation(cert: dict) -> float:
    """Worst violation of its own system by a serialized Feasible witness.

    Checks nonnegativity, unit mass per variable, that the two members of
    every disjoint pair never both carry weight at one ontic point, and that
    all equality forms agree pointwise.  A witness that omits a variable or
    has the wrong shape deviates by infinity.
    """
    import numpy as np

    system, witness = cert["system"], cert["witness"]
    size = witness["ontic_size"]
    preps = witness["preparations"]
    if set(preps) != set(system["variables"]):
        return math.inf
    values = {v: np.asarray(w, dtype=float) for v, w in preps.items()}
    if any(w.shape != (size,) for w in values.values()):
        return math.inf
    worst = 0.0
    for w in values.values():
        worst = max(worst, -float(w.min()), abs(float(w.sum()) - 1.0))
    for u, v in system["disjoint_pairs"]:
        worst = max(worst, float(np.minimum(values[u], values[v]).max()))
    forms = [
        sum((float(Fraction(c)) * values[v] for v, c in form.items()), np.zeros(size))
        for form in system["equality_groups"]
    ]
    for other in forms[1:]:
        worst = max(worst, float(np.abs(forms[0] - other).max()))
    return worst


def within_sigma(frequencies, born, n: int, multiple: float = 4.0) -> bool:
    """Every outcome frequency lies within ``multiple`` binomial standard
    deviations of its Born probability."""
    return all(
        abs(f - p) <= multiple * math.sqrt(p * (1.0 - p) / n)
        for f, p in zip(frequencies, born, strict=True)
    )


def meas_rows_ok(cert: dict) -> bool:
    """The eight rows of the measurement no-go take only the paper's pairs."""
    values = [tuple(row.get("values") or ()) for row in cert["cases"]]
    return len(values) == 8 and all(v in MEAS_VALUE_PAIRS for v in values)


def figure_ok(svg: str) -> bool:
    """The disk figure has its six states, three segments, two triangles and
    the center marker."""
    counts: dict[str, int] = {}
    for element in ET.fromstring(svg).iter():
        cls = element.get("class")
        if cls:
            counts[cls] = counts.get(cls, 0) + 1
    return (
        counts.get("state-marker") == 6
        and counts.get("decomposition-segment") == 3
        and counts.get("decomposition-triangle") == 2
        and counts.get("center-marker") == 1
    )


# ---------------------------------------------------------------------------
# The CLI invocations of the cli-cold workload and their expected outcomes.
#
# Exit codes are the ones the test suite pins today.  ``feasibility`` on an
# Infeasible instance exits 3, which the CLI docstring and README describe
# as "came back Feasible"; that mismatch is a known defect recorded in
# perfbench/README.md, so the benchmark expects what the program does.

SIMULATE_PREP = "0.5:a,0.5:A"
SIMULATE_POVM = "b"
SIMULATE_SAMPLES = 100_000  # the CLI default


def cli_commands(system_path: str, theory_path: str, sim_seed: int) -> list[tuple[str, list[str], int]]:
    """``(name, argv, expected exit code)`` for each invocation of a round."""
    return [
        ("nogo-prep", ["nogo", "prep"], 0),
        ("nogo-meas", ["nogo", "meas"], 0),
        ("nogo-transf", ["nogo", "transf"], 0),
        ("nogo-gleason", ["nogo", "gleason"], 0),
        ("nogo-od-unsharp", ["nogo", "od-unsharp"], 0),
        ("feasibility-system", ["feasibility", system_path], 3),
        ("feasibility-theory", ["feasibility", theory_path], 3),
        (
            "simulate-bb",
            ["simulate-bb", "--prep", SIMULATE_PREP, "--povm", SIMULATE_POVM, "--seed", str(sim_seed)],
            0,
        ),
        ("figure-bloch", ["figure-bloch"], 0),
    ]


def cli_output_ok(name: str, text: str) -> bool:
    """Check one CLI output against an answer independent of the certifier."""
    if name == "figure-bloch":
        return figure_ok(text)
    doc = json.loads(text)
    if name in ("nogo-prep", "nogo-transf", "feasibility-system", "feasibility-theory"):
        return doc["verdict"] == "Infeasible" and doc["witness"] is None and bool(doc["cases"])
    if name == "nogo-meas":
        return doc["verdict"] == "Infeasible" and meas_rows_ok(doc)
    if name == "nogo-gleason":
        # a and b are 120 degrees apart on the Bloch circle: cos^2(60) = 1/4.
        return abs(doc["forced_value"] - 0.25) <= 1e-12 and doc["contradiction"] is True
    if name == "nogo-od-unsharp":
        return doc["forced_values"] == [0.5, 0.5] and doc["contradiction"] is True
    if name == "simulate-bb":
        # The balanced mixture of an antipodal pair is I/2: Born (1/2, 1/2).
        return doc["n"] == SIMULATE_SAMPLES and within_sigma(doc["frequencies"], (0.5, 0.5), doc["n"])
    raise KeyError(name)
