"""Deterministic SVG figures: polytopes with overlaid normal fans, point
configurations with chamber triangles, and cut lines.

Fixed scale (100 units per coordinate unit, 12-unit margin) so figures stay
comparable across parameter values.
"""

from __future__ import annotations

import math

from .fan import Fan2
from .gale import PointConfig, VirtualChamber
from .linalg import Vec2
from .polyhedron import Ideal, Polyhedron2

SCALE = 100.0
MARGIN = 12.0
RAY_LEN = 0.9  # in coordinate units
UNBOUNDED_EXTENT = 3.0

POLY_STYLE = 'fill="#cfe0f5" stroke="#1f4e96" stroke-width="2"'
RAY_STYLE = 'stroke="#b02020" stroke-width="2"'
TRI_STYLE = 'fill="none" stroke="#2b7a2b" stroke-width="1.5"'
CUT_STYLE = 'stroke="#b02020" stroke-width="2" stroke-dasharray="8,5"'
POINT_STYLE = 'fill="#1f4e96"'
WITNESS_STYLE = 'fill="#b02020"'


def _fmt(x: float) -> str:
    return f"{x:.3f}"


class Figure:
    """Element accumulator in math coordinates; render() fits the viewport
    and flips the y axis."""

    def __init__(self):
        self.elements: list[tuple] = []  # (kind, points, style[, radius])
        self.xs: list[float] = []
        self.ys: list[float] = []

    def _track(self, pts):
        for x, y in pts:
            self.xs.append(x)
            self.ys.append(y)

    def polygon(self, pts, style=POLY_STYLE):
        self._track(pts)
        self.elements.append(("polygon", list(pts), style))

    def line(self, p, q, style):
        self._track([p, q])
        self.elements.append(("line", [p, q], style))

    def circle(self, p, radius, style):
        """radius is in viewport pixels, the center in math coordinates."""
        self._track([p])
        self.elements.append(("circle", [p], style, radius))

    def render(self) -> str:
        if not self.xs:
            self.xs, self.ys = [0.0], [0.0]
        min_x, max_x = min(self.xs), max(self.xs)
        min_y, max_y = min(self.ys), max(self.ys)
        w = (max_x - min_x) * SCALE + 2 * MARGIN
        h = (max_y - min_y) * SCALE + 2 * MARGIN

        def tx(x):
            return (x - min_x) * SCALE + MARGIN

        def ty(y):  # flip so +y points up
            return (max_y - y) * SCALE + MARGIN

        body = []
        for el in self.elements:
            kind, pts, style = el[0], el[1], el[2]
            if kind == "polygon":
                coords = " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in pts)
                body.append(f'<polygon points="{coords}" {style}/>')
            elif kind == "line":
                p, q = pts
                body.append(
                    f'<line x1="{_fmt(tx(p[0]))}" y1="{_fmt(ty(p[1]))}" '
                    f'x2="{_fmt(tx(q[0]))}" y2="{_fmt(ty(q[1]))}" {style}/>'
                )
            else:
                (p,) = pts
                body.append(
                    f'<circle cx="{_fmt(tx(p[0]))}" cy="{_fmt(ty(p[1]))}" '
                    f'r="{_fmt(el[3])}" {style}/>'
                )
        content = "\n  ".join(body)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(w)}" height="{_fmt(h)}">\n  {content}\n</svg>\n'
        )


def _pushed(v, r: Vec2) -> tuple[float, float]:
    return (float(v[0]) + UNBOUNDED_EXTENT * float(r[0]), float(v[1]) + UNBOUNDED_EXTENT * float(r[1]))


def _poly_outline(p: Polyhedron2) -> list[tuple[float, float]]:
    """P's vertices, each then pushed out along each ray for drawing only
    when P is flat (a ray); for an unbounded P with an interior, its
    boundary cycle with each ideal point replaced by its finite neighbours
    pushed out along its ray."""
    if p.bounded or not p.cycle:
        return [(float(v[0]), float(v[1])) for v in p.vertices] + [
            _pushed(v, r) for r in p.rays for v in p.vertices]
    cycle = [e for e, _ in p.cycle]
    out = []
    for i, e in enumerate(cycle):
        if not isinstance(e, Ideal):
            out.append((float(e[0]), float(e[1])))
            continue
        for v in (cycle[i - 1], cycle[(i + 1) % len(cycle)]):
            if not isinstance(v, Ideal):
                out.append(_pushed(v, e.r))
    return out


def polytope_figure(
    p: Polyhedron2,
    fan: Fan2 | None = None,
    cut_line: Polyhedron2 | None = None,
) -> str:
    """P with its normal fan, if given, drawn from the origin, and a cut's
    reduced face ``cut_line`` as a dashed line between the ends of its
    outline: a segment end to end, or a ray from its vertex pushed out."""
    fig = Figure()
    fig.polygon(_poly_outline(p))
    if fan is not None:
        for g in fan.ray_generators:
            gx, gy = float(g[0]), float(g[1])
            norm = max(math.hypot(gx, gy), 1e-12)
            tip = (RAY_LEN * gx / norm, RAY_LEN * gy / norm)
            fig.line((0.0, 0.0), tip, RAY_STYLE)
            fig.circle(tip, 3.0, WITNESS_STYLE)
    if cut_line is not None:
        ends = _poly_outline(cut_line)
        fig.line(ends[0], ends[-1], CUT_STYLE)
    return fig.render()


def chamber_figure(
    lam: PointConfig, chamber: VirtualChamber, witness: Vec2 | None = None
) -> str:
    fig = Figure()
    pts = [(float(p[0]), float(p[1])) for p in lam.points]
    for sigma in sorted(sorted(s) for s in chamber.subsets):
        tri = [pts[i - 1] for i in sigma]
        fig.polygon(tri, TRI_STYLE)
    for p in pts:
        fig.circle(p, 4.0, POINT_STYLE)
    if witness is not None:
        fig.circle((float(witness[0]), float(witness[1])), 5.0, WITNESS_STYLE)
    return fig.render()
