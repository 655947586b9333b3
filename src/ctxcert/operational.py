"""Finite operational theories: labeled procedures and their equivalence classes.

A theory is a finite collection of preparations, transformations and
measurements together with declared convex-mixture relations.  Each mixture
is a ``MixtureDecl`` with exact weights, checked against its target when the
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
    unitary_channel,
    unitary_rotation_y,
)

@dataclass(frozen=True)
class Preparation:
    label: str
    rho: DensityOperator


@dataclass(frozen=True)
class Measurement:
    label: str
    povm: Povm


@dataclass(frozen=True)
class Transformation:
    label: str
    channel: KrausChannel


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
    """A named finite collection of procedures with verified mixture relations."""

    def __init__(
        self,
        preparations: Iterable[Preparation] = (),
        transformations: Iterable[Transformation] = (),
        measurements: Iterable[Measurement] = (),
        mixtures: Iterable[MixtureDecl] = (),
        tol: float = VALIDITY_TOL,
    ) -> None:
        self.preparations: dict[str, Preparation] = {}
        self.transformations: dict[str, Transformation] = {}
        self.measurements: dict[str, Measurement] = {}
        for p in preparations:
            if p.label in self.preparations:
                raise ValueError(f"duplicate preparation label {p.label!r}")
            self.preparations[p.label] = p
        for t in transformations:
            if t.label in self.transformations:
                raise ValueError(f"duplicate transformation label {t.label!r}")
            self.transformations[t.label] = t
        for m in measurements:
            if m.label in self.measurements:
                raise ValueError(f"duplicate measurement label {m.label!r}")
            self.measurements[m.label] = m
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
            [p.rho.dim for p in self.preparations.values()]
            + [m.povm.dim for m in self.measurements.values()]
            + [t.channel.dim_in for t in self.transformations.values()]
        )
        if dims and any(d != dims[0] for d in dims):
            raise ValueError("all procedures in a theory must share one dimension")
        self.dim = dims[0] if dims else 0
        for position, (decl, dev) in enumerate(zip(self.mixtures, self._mixture_deviations())):
            if dev > tol:
                raise ValueError(
                    f"mixtures[{position}]: {decl.kind} mixture {decl.target!r} fails to "
                    f"verify (deviation {dev:.3e})"
                )

    def _mixture_deviations(self) -> list[float]:
        """Entrywise deviation of each declared mixture from its target, in
        declaration order: of the density operators, of every effect, or of
        the Choi matrices."""
        out = []
        for decl in self.mixtures:
            if decl.kind == "prep":
                rhos = {l: self.preparations[l].rho.matrix for _, l in decl.components}
                pairs = [(_weighted_sum(decl, rhos), self.preparations[decl.target].rho.matrix)]
            elif decl.kind == "meas":
                target = self.measurements[decl.target].povm
                parts = {l: self.measurements[l].povm for _, l in decl.components}
                if any(p.outcome_count != target.outcome_count for p in parts.values()):
                    raise ValueError(f"mixture {decl.target!r} mixes unequal outcome counts")
                pairs = [
                    (_weighted_sum(decl, {l: p[k].matrix for l, p in parts.items()}), e.matrix)
                    for k, e in enumerate(target.effects)
                ]
            else:
                chois = {l: choi_matrix(self.transformations[l].channel) for _, l in decl.components}
                target = choi_matrix(self.transformations[decl.target].channel)
                pairs = [(_weighted_sum(decl, chois), target)]
            out.append(max(float(np.abs(total - t).max()) for total, t in pairs))
        return out

    def max_mixture_deviation(self) -> float:
        """Largest entrywise deviation of any declared mixture from its target."""
        return max(self._mixture_deviations(), default=0.0)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "preparations": [
                {"label": p.label, "rho": matrix_to_json(p.rho.matrix)}
                for p in self.preparations.values()
            ],
            "measurements": [
                {"label": m.label, "effects": [matrix_to_json(e.matrix) for e in m.povm.effects]}
                for m in self.measurements.values()
            ],
            "transformations": [
                {"label": t.label, "kraus": [matrix_to_json(w) for w in t.channel.kraus_ops]}
                for t in self.transformations.values()
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
        preps = [
            Preparation(entry["label"], DensityOperator(matrix_from_json(entry["rho"])))
            for entry in _json_entries(doc, "preparations", ("label", "rho"))
        ]
        meas = [
            Measurement(
                entry["label"],
                Povm(tuple(Effect(matrix_from_json(e)) for e in entry["effects"])),
            )
            for entry in _json_entries(doc, "measurements", ("label", "effects"))
        ]
        transf = [
            Transformation(
                entry["label"],
                KrausChannel(tuple(matrix_from_json(w) for w in entry["kraus"])),
            )
            for entry in _json_entries(doc, "transformations", ("label", "kraus"))
        ]
        mixtures = [
            MixtureDecl(
                entry["kind"],
                entry["target"],
                tuple(
                    (c["weight"], c["label"])
                    for c in _json_entries(
                        entry, "components", ("weight", "label"), f"mixture {entry['target']!r}"
                    )
                ),
            )
            for entry in _json_entries(doc, "mixtures", ("kind", "target", "components"))
        ]
        return cls(preps, transf, meas, mixtures, tol=tol)


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


def prep_equivalent(p: Preparation, q: Preparation, tol: float = IDENTITY_TOL) -> bool:
    if p.rho.dim != q.rho.dim:
        raise ValueError("preparations act on different dimensions")
    return bool(np.abs(p.rho.matrix - q.rho.matrix).max() <= tol)


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


def rotation_transformations() -> dict[str, Transformation]:
    """Unitary rotation channels at 0, 60, ..., 300 degrees about the y axis."""
    out = {}
    for k, name in enumerate(ROTATION_LABELS):
        theta = k * math.pi / 3
        out[name] = Transformation(name, unitary_channel(unitary_rotation_y(theta)))
    return out


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

    Contains the six pure hexagon preparations, the five mixtures that each
    produce the completely mixed state, the three antipodal-pair PVMs with
    their uniform mixture and the coin-flip measurement, and the six
    rotations with the y-axis projection channel declared as five distinct
    convex mixtures of them.
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
    preps = [Preparation(name, rho) for name, rho in states.items()] + [
        Preparation(d.target, DensityOperator(_weighted_sum(d, rhos)))
        for d in prep_mixture_decls
    ]

    pvms = [Measurement(f"M{x}", Povm((Effect(rhos[x]), Effect(rhos[x.upper()])))) for x in "abc"]
    meas_mixture_decl = MixtureDecl("meas", "M", ((third, "Ma"), (third, "Mb"), (third, "Mc")))
    outcomes = [{m.label: m.povm[k].matrix for m in pvms} for k in range(2)]
    mixed_meas = Measurement(
        "M", Povm(tuple(Effect(_weighted_sum(meas_mixture_decl, o)) for o in outcomes))
    )

    rotations = rotation_transformations()
    projection = Transformation("T", y_projection_channel())
    transf_mixture_decls = [
        MixtureDecl("transf", "T", ((half, "T0"), (half, "T180"))),
        MixtureDecl("transf", "T", ((half, "T60"), (half, "T240"))),
        MixtureDecl("transf", "T", ((half, "T120"), (half, "T300"))),
        MixtureDecl("transf", "T", ((third, "T0"), (third, "T120"), (third, "T240"))),
        MixtureDecl("transf", "T", ((third, "T60"), (third, "T180"), (third, "T300"))),
    ]

    return OperationalTheory(
        preparations=preps,
        transformations=list(rotations.values()) + [projection],
        measurements=pvms + [mixed_meas, Measurement("Mtrivial", coin_flip_povm())],
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
    for label, prep in theory.preparations.items():
        if label not in targets:
            x, _, z = bloch_from_density(prep.rho)
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
