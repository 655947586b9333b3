"""Finite operational theories: labeled procedures and their equivalence classes.

A theory is three label -> operator tables (preparations to density
operators, measurements to POVMs, transformations to Kraus channels)
together with declared convex-mixture relations.  A label only names a
procedure's context; its operator is its equivalence class.  Each mixture is
a ``MixtureDecl`` with exact weights, checked against its target when the
theory is built; equivalence of procedures is decided by operator equality
alone, never by context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .qmath import (
    IDENTITY_TOL,
    VALIDITY_TOL,
    DensityOperator,
    Effect,
    KrausChannel,
    Povm,
    as_fraction,
    bloch_from_density,
    choi_matrix,
    identity,
    matrix_from_json,
    matrix_to_json,
    pure_density,
    read_at,
    unitary_channel,
    unitary_rotation_y,
)

@dataclass(frozen=True)
class MixtureDecl:
    """A declared convex decomposition: ``target = sum_i weight_i * component_i``.

    Each weight is read once, by ``as_fraction``, and stored as a
    ``Fraction``: an int, a rational string such as ``"1/3"`` or a float that
    a small rational reproduces exactly.  The weights must be nonnegative and
    sum to exactly 1.  Where a weight meets a ``numpy`` array it is converted
    with ``float``.
    """

    kind: str  # "prep" | "meas" | "transf"
    target: str
    components: tuple[tuple[Fraction, str], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("prep", "meas", "transf"):
            raise ValueError(f"unknown mixture kind {self.kind!r}")
        components = tuple((as_fraction(w), str(l)) for w, l in self.components)
        if any(w < 0 for w, _ in components):
            raise ValueError(f"weights of {self.target!r} must be nonnegative")
        total = sum(w for w, _ in components)
        if total != 1:
            raise ValueError(
                f"weights of {self.target!r} have no small exact rational representation "
                f"summing to 1 (they sum to {total})"
            )
        object.__setattr__(self, "components", components)

    def weights(self) -> dict[str, Fraction]:
        """The total weight on each component label, in order of first appearance."""
        out: dict[str, Fraction] = {}
        for w, label in self.components:
            out[label] = out.get(label, 0) + w
        return out


def _weighted_sum(decl: MixtureDecl, matrices: Mapping[str, np.ndarray]) -> np.ndarray:
    """``sum_i float(weight_i) * matrices[component_i]`` over the declaration."""
    return sum(float(w) * matrices[l] for w, l in decl.components)


class OperationalTheory:
    """Three label -> operator tables with verified mixture relations.

    ``deviations[i]`` is the deviation of ``mixtures[i]`` from its target,
    measured once, here; ``tol`` bounds each and is also the tolerance of
    ``nogo.system_from_theory``.  It may be infinite, but not NaN or negative.
    """

    def __init__(
        self,
        preparations: Mapping[str, DensityOperator] = {},
        transformations: Mapping[str, KrausChannel] = {},
        measurements: Mapping[str, Povm] = {},
        mixtures: Iterable[MixtureDecl] = (),
        tol: float = VALIDITY_TOL,
    ) -> None:
        if not tol >= 0:
            raise ValueError(f"tol must be nonnegative and not NaN, got {tol}")
        self.tol = tol
        self.preparations = dict(preparations)
        self.transformations = dict(transformations)
        self.measurements = dict(measurements)
        self.mixtures: tuple[MixtureDecl, ...] = tuple(mixtures)
        tables = {
            "prep": ("preparation", self.preparations),
            "meas": ("measurement", self.measurements),
            "transf": ("transformation", self.transformations),
        }
        for decl in self.mixtures:
            noun, table = tables[decl.kind]
            for label in (decl.target, *(l for _, l in decl.components)):
                if label not in table:
                    raise ValueError(
                        f"{decl.kind} mixture {decl.target!r}: unknown {noun} {label!r}"
                    )
        dims = (
            [rho.dim for rho in self.preparations.values()]
            + [povm.dim for povm in self.measurements.values()]
            + [channel.dim_in for channel in self.transformations.values()]
        )
        if dims and any(d != dims[0] for d in dims):
            raise ValueError("all procedures in a theory must share one dimension")
        self.dim = dims[0] if dims else 0
        deviations = []
        chois: dict[str, np.ndarray] = {}
        for position, decl in enumerate(self.mixtures):
            # Entrywise deviation of the density operators, of every effect, or of
            # the Choi matrices, a channel mixture being its Kraus union scaled by sqrt(w).
            if decl.kind == "prep":
                rhos = {l: self.preparations[l].matrix for _, l in decl.components}
                pairs = [(_weighted_sum(decl, rhos), self.preparations[decl.target].matrix)]
            elif decl.kind == "meas":
                target = self.measurements[decl.target]
                parts = {l: self.measurements[l] for _, l in decl.components}
                if any(p.outcome_count != target.outcome_count for p in parts.values()):
                    raise ValueError(f"mixture {decl.target!r} mixes unequal outcome counts")
                pairs = [
                    (_weighted_sum(decl, {l: p[k].matrix for l, p in parts.items()}), e.matrix)
                    for k, e in enumerate(target.effects)
                ]
            else:
                union = KrausChannel(tuple(
                    math.sqrt(w) * op
                    for w, l in decl.components
                    for op in self.transformations[l].kraus_ops
                ))
                if decl.target not in chois:
                    chois[decl.target] = choi_matrix(self.transformations[decl.target])
                pairs = [(choi_matrix(union), chois[decl.target])]
            dev = max(float(np.abs(total - t).max()) for total, t in pairs)
            if dev > tol:
                raise ValueError(
                    f"mixtures[{position}]: {decl.kind} mixture {decl.target!r} fails to "
                    f"verify (deviation {dev:.3e})"
                )
            deviations.append(dev)
        self.deviations: tuple[float, ...] = tuple(deviations)

    def deviations_of(self, kind: str) -> list[float]:
        """The deviations of the mixtures of ``kind``, in declaration order."""
        return [dev for d, dev in zip(self.mixtures, self.deviations) if d.kind == kind]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "preparations": [
                {"label": label, "rho": matrix_to_json(rho.matrix)}
                for label, rho in self.preparations.items()
            ],
            "measurements": [
                {"label": label, "effects": povm.to_json()}
                for label, povm in self.measurements.items()
            ],
            "transformations": [
                {"label": label, "kraus": [matrix_to_json(w) for w in channel.kraus_ops]}
                for label, channel in self.transformations.items()
            ],
            "mixtures": [
                {
                    "kind": d.kind,
                    "target": d.target,
                    "components": [{"weight": float(w), "label": l} for w, l in d.components],
                }
                for d in self.mixtures
            ],
        }

    @classmethod
    def from_json(cls, doc: dict, tol: float = VALIDITY_TOL) -> "OperationalTheory":
        preps, meas, transf = _json_tables(doc)
        mixtures = []
        for entry in _json_entries(doc, "mixtures", ("kind", "target", "components")):
            target = entry["target"]
            if not isinstance(target, str):
                raise TypeError(f"theory field 'mixtures': target {target!r} is not a string")
            where = f"mixture {target!r}"
            components = _json_entries(entry, "components", ("weight", "label"), where)
            weighted = tuple((c["weight"], c["label"]) for c in components)
            mixtures.append(MixtureDecl(entry["kind"], target, weighted))
        return cls(preps, transf, meas, mixtures, tol=tol)


def _json_tables(doc: dict) -> list[dict]:
    """The preparation, measurement and transformation tables of a theory
    file, each label -> operator.  A label that is not a string raises
    ``TypeError`` naming the field, and an operator entry that is malformed or
    invalid raises ``TypeError`` or ``ValueError`` naming the field and the
    label; a repeated label raises ``ValueError``."""
    builders = (
        ("preparations", "rho", lambda m: DensityOperator(matrix_from_json(m))),
        ("measurements", "effects", lambda es: Povm(tuple(map(Effect, map(matrix_from_json, es))))),
        ("transformations", "kraus", lambda ws: KrausChannel(tuple(map(matrix_from_json, ws)))),
    )
    tables = []
    for field, key, build in builders:
        def read(value, build=build):
            if not isinstance(value, list):
                raise TypeError(f"expected a list, got {value!r}")
            return build(value)

        table = {}
        for entry in _json_entries(doc, field, ("label", key)):
            label = entry["label"]
            if not isinstance(label, str):
                raise TypeError(f"theory field {field!r}: label {label!r} is not a string")
            if label in table:
                raise ValueError(f"duplicate {field[:-1]} label {label!r}")
            table[label] = read_at(f"theory field {field!r}: {key} of {label!r}", read, entry[key])
        tables.append(table)
    return tables


def _json_entries(owner: dict, field: str, keys: tuple[str, ...], where: str = "theory") -> list:
    """``owner[field]`` (empty when absent), which must be a list of objects
    that each hold ``keys``; anything else raises ``TypeError`` naming the field."""
    entries = owner.get(field, [])
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and all(k in e for k in keys) for e in entries
    ):
        raise TypeError(
            f"{where} field {field!r} must be a list of objects with keys {', '.join(keys)}"
        )
    return entries


# ---------------------------------------------------------------------------
# Equivalence of preparations (decided by operator equality, the exact quantum
# criterion for equal statistics under every counterpart procedure).


def prep_equivalent(p: DensityOperator, q: DensityOperator, tol: float = IDENTITY_TOL) -> bool:
    if p.dim != q.dim:
        raise ValueError("preparations act on different dimensions")
    return bool(np.abs(p.matrix - q.matrix).max() <= tol)


# ---------------------------------------------------------------------------
# The canonical hexagon instance: six pure qubit states forming two
# interleaved trines in the z-x great circle, the five decompositions of the
# completely mixed state, the three associated PVMs with their uniform
# mixture, and the y-axis projection channel with its five decompositions.

SQRT3 = math.sqrt(3.0)

#: Angles (as channel labels) of the six rotations about the Bloch y axis.
ROTATION_LABELS = ("T0", "T60", "T120", "T180", "T240", "T300")


def hexagon_state_vectors() -> dict[str, np.ndarray]:
    """The six real unit vectors, sixty degrees apart on the z-x circle."""
    return {
        "a": np.array([1.0, 0.0]),
        "A": np.array([0.0, 1.0]),
        "b": np.array([0.5, SQRT3 / 2]),
        "B": np.array([SQRT3 / 2, -0.5]),
        "c": np.array([0.5, -SQRT3 / 2]),
        "C": np.array([SQRT3 / 2, 0.5]),
    }


def hexagon_states() -> dict[str, DensityOperator]:
    return {name: pure_density(v) for name, v in hexagon_state_vectors().items()}


def rotation_transformations() -> dict[str, KrausChannel]:
    """Unitary rotation channels at 0, 60, ..., 300 degrees about the y axis."""
    return {
        name: unitary_channel(unitary_rotation_y(k * math.pi / 3))
        for k, name in enumerate(ROTATION_LABELS)
    }


def y_projection_channel() -> KrausChannel:
    """The channel that collapses every Bloch vector onto the y axis.

    Defined operationally by the Kraus set ``{U_0/sqrt(2), U_pi/sqrt(2)}``;
    the projection property is verified in tests rather than assumed.
    """
    s = math.sqrt(0.5)
    return KrausChannel((s * unitary_rotation_y(0.0), s * unitary_rotation_y(math.pi)))


def coin_flip_povm() -> Povm:
    """The qubit POVM ``{I/2, I/2}``: both outcomes share one validated effect."""
    half = Effect(identity(2) / 2)
    return Povm((half, half))


def hexagon_theory() -> OperationalTheory:
    """The canonical instance used by all the no-go drivers.

    Contains the six pure hexagon preparations, five mixtures of them whose
    targets are ``I/2``, the three antipodal-pair PVMs whose uniform mixture
    ``M`` is the coin flip, the coin flip ``Mtrivial``, and the six rotations
    with the y-axis projection channel declared as five distinct convex
    mixtures of them.  So ``deviations`` measures the paper's premises.
    """
    states = hexagon_states()
    rhos = {name: rho.matrix for name, rho in states.items()}
    half, third = Fraction(1, 2), Fraction(1, 3)
    prep_mixture_decls = [
        MixtureDecl("prep", "aA", ((half, "a"), (half, "A"))),
        MixtureDecl("prep", "bB", ((half, "b"), (half, "B"))),
        MixtureDecl("prep", "cC", ((half, "c"), (half, "C"))),
        MixtureDecl("prep", "abc", ((third, "a"), (third, "b"), (third, "c"))),
        MixtureDecl("prep", "ABC", ((third, "A"), (third, "B"), (third, "C"))),
    ]
    center = DensityOperator(identity(2) / 2)
    preps = states | {d.target: center for d in prep_mixture_decls}

    meas = {f"M{x}": Povm((Effect(rhos[x]), Effect(rhos[x.upper()]))) for x in "abc"}
    meas_mixture_decl = MixtureDecl("meas", "M", ((third, "Ma"), (third, "Mb"), (third, "Mc")))
    meas["M"] = meas["Mtrivial"] = coin_flip_povm()

    transf_mixture_decls = [
        MixtureDecl("transf", "T", ((half, "T0"), (half, "T180"))),
        MixtureDecl("transf", "T", ((half, "T60"), (half, "T240"))),
        MixtureDecl("transf", "T", ((half, "T120"), (half, "T300"))),
        MixtureDecl("transf", "T", ((third, "T0"), (third, "T120"), (third, "T240"))),
        MixtureDecl("transf", "T", ((third, "T60"), (third, "T180"), (third, "T300"))),
    ]

    return OperationalTheory(
        preparations=preps,
        transformations=rotation_transformations() | {"T": y_projection_channel()},
        measurements=meas,
        mixtures=prep_mixture_decls + [meas_mixture_decl] + transf_mixture_decls,
    )


# ---------------------------------------------------------------------------
# The hexagon's disk figure: the z-x great circle of the Bloch ball.

_FIGURE_SIZE = 420.0
_FIGURE_RADIUS = 170.0


def _disk_xy(x: float, z: float) -> tuple[float, float]:
    cx = cy = _FIGURE_SIZE / 2
    return (cx + _FIGURE_RADIUS * x, cy - _FIGURE_RADIUS * z)


def render_bloch_disk_svg() -> str:
    """SVG of the z-x great-circle disk with the hexagon theory's six states
    (the preparations no mixture targets, in declaration order), its
    two-member decompositions as segments and its three-member ones as
    triangles, and the center marker."""
    theory = hexagon_theory()
    decls = [d for d in theory.mixtures if d.kind == "prep"]
    targets = {d.target for d in decls}
    states = {}
    for label, rho in theory.preparations.items():
        if label not in targets:
            x, _, z = bloch_from_density(rho)
            states[label] = (float(x), float(z))
    cx = cy = _FIGURE_SIZE / 2
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_FIGURE_SIZE:.0f}" height="{_FIGURE_SIZE:.0f}" '
        f'viewBox="0 0 {_FIGURE_SIZE:.0f} {_FIGURE_SIZE:.0f}">',
        f'  <circle class="disk" cx="{cx}" cy="{cy}" r="{_FIGURE_RADIUS}" '
        'fill="none" stroke="#444444" stroke-width="1.5"/>',
        f'  <text x="{cx + 6:.1f}" y="{cy - _FIGURE_RADIUS - 8:.1f}" font-size="13" '
        'fill="#444444">+z</text>',
        f'  <text x="{cx + _FIGURE_RADIUS + 6:.1f}" y="{cy + 4:.1f}" font-size="13" '
        'fill="#444444">+x</text>',
    ]
    for (_, first), (_, second) in (d.components for d in decls if len(d.components) == 2):
        x1, y1 = _disk_xy(*states[first])
        x2, y2 = _disk_xy(*states[second])
        lines.append(
            f'  <line class="decomposition-segment" x1="{x1:.2f}" y1="{y1:.2f}" '
            f'x2="{x2:.2f}" y2="{y2:.2f}" stroke="#1f77b4" stroke-width="1.6"/>'
        )
    for trine in (d.components for d in decls if len(d.components) == 3):
        points = " ".join(
            "{:.2f},{:.2f}".format(*_disk_xy(*states[name])) for _, name in trine
        )
        lines.append(
            f'  <polygon class="decomposition-triangle" points="{points}" '
            'fill="none" stroke="#d62728" stroke-width="1.6"/>'
        )
    lines.append(
        f'  <circle class="center-marker" cx="{cx}" cy="{cy}" r="4" fill="#2ca02c"/>'
    )
    lines.append(
        f'  <text x="{cx + 8:.1f}" y="{cy + 14:.1f}" font-size="13" fill="#2ca02c">I/2</text>'
    )
    for name, (x, z) in states.items():
        px, py = _disk_xy(x, z)
        lines.append(
            f'  <circle class="state-marker" cx="{px:.2f}" cy="{py:.2f}" r="5" fill="#111111"/>'
        )
        lx = px + (10 if x >= 0 else -22)
        ly = py + (-10 if z >= 0 else 18)
        lines.append(
            f'  <text class="state-label" x="{lx:.2f}" y="{ly:.2f}" font-size="15" '
            f'fill="#111111">{name}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
