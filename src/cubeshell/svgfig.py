"""Static SVG rendering of an instance and its solution.

Exact values are converted to floats only here, at the drawing boundary.
For d = 3 the figure shows the normalized projections, the center domain,
the boundary of the open squares that the points lower than r* cut from
the center plane at r* (the optimal center lies in none of them), and the
projected shell; lower dimensions drop the parts that do not exist there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .geometry import PointSet, center_domain, normalize
from .solver import SolveResult, solve
from .squares import union_at

_SIZE = 640


def _f(v) -> float:
    return float(v)


class _Canvas:
    def __init__(self):
        self.parts: list[str] = []
        self.xs: list[float] = []
        self.ys: list[float] = []

    def _track(self, pts: Iterable[tuple[float, float]]):
        for x, y in pts:
            self.xs.append(x)
            self.ys.append(y)

    def rect(self, x0, y0, x1, y1, stroke, dash=None, width=1.0):
        x0, y0, x1, y1 = map(_f, (x0, y0, x1, y1))
        self._track([(x0, y0), (x1, y1)])
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<rect x="{x0:g}" y="{y0:g}" width="{x1 - x0:g}" '
            f'height="{y1 - y0:g}" fill="none" stroke="{stroke}" '
            f'vector-effect="non-scaling-stroke" stroke-width="{width:g}"{extra}/>')

    def polyline(self, pts: Sequence[tuple], stroke, width=1.0, fit=True):
        fpts = [(_f(x), _f(y)) for x, y in pts]
        if fit:
            self._track(fpts)
        coords = " ".join(f"{x:g},{y:g}" for x, y in fpts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'vector-effect="non-scaling-stroke" stroke-width="{width:g}"/>')

    def dot(self, x, y, fill, r):
        x, y = _f(x), _f(y)
        self._track([(x, y)])
        self.parts.append(
            f'<circle cx="{x:g}" cy="{y:g}" r="{r:g}" fill="{fill}"/>')

    def render(self) -> str:
        if not self.xs:
            self.xs, self.ys = [0.0], [0.0]
        lo_x, hi_x = min(self.xs), max(self.xs)
        lo_y, hi_y = min(self.ys), max(self.ys)
        span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
        pad = 0.06 * span
        cx, cy = (lo_x + hi_x) / 2, (lo_y + hi_y) / 2
        half = span / 2 + pad
        view = f"{cx - half:g} {cy - half:g} {2 * half:g} {2 * half:g}"
        # flip y so larger ordinates are drawn higher
        body = "\n  ".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
            f'height="{_SIZE}" viewBox="{view}">\n'
            f'<g transform="translate(0 {2 * cy:g}) scale(1 -1)">\n  '
            f"{body}\n</g>\n</svg>\n")


def _planar_view(ps: PointSet) -> list[tuple[Fraction, Fraction]]:
    if ps.dimension == 1:
        return [(p[0], Fraction(0)) for p in ps]
    return [(p[0], p[1]) for p in ps]


def figure(ps: PointSet) -> str:
    """Solve the instance and render a static drawing of the result."""
    result: SolveResult = solve(ps)
    psn, nrm = normalize(ps)
    dom = center_domain(psn)
    canvas = _Canvas()
    span = max((max(c for c, _ in _planar_view(psn))
                - min(c for c, _ in _planar_view(psn))), Fraction(1))
    dot_r = _f(span) * 0.012

    if ps.dimension == 3:
        for edge in union_at(psn, result.inner_level)[1].edges:
            # squares past the points only clip at the view, never widen it
            canvas.polyline(edge, "#8ab4e8", fit=False)
        box = dom.box
        canvas.rect(box.lo[0], box.lo[1], box.hi[0], box.hi[1],
                    "#999999", dash="4 3")

    # shell projection, drawn in the normalized frame
    c_full = nrm.apply(result.shell.center)
    cx = c_full[0]
    cy = c_full[1] if ps.dimension >= 2 else Fraction(0)
    h2 = result.shell.outer_radius
    ri = result.shell.inner_radius
    canvas.rect(cx - h2, cy - h2, cx + h2, cy + h2, "#222222", width=1.4)
    if ri > 0:
        canvas.rect(cx - ri, cy - ri, cx + ri, cy + ri, "#cc3333", width=1.4)
    canvas.dot(cx, cy, "#cc3333", dot_r * 0.9)

    for x, y in _planar_view(psn):
        canvas.dot(x, y, "#111111", dot_r)
    return canvas.render()


def write_figure(ps: PointSet, path: str) -> None:
    text = figure(ps)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
