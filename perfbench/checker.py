"""Independent exact checks of a claimed minimum-width shell.

Nothing here imports the program under test. Every check runs on integers:
the points and the claimed answer are scaled by the least common multiple
E of all their denominators, so each comparison is exact. Arrays use
numpy int64 when the scaled magnitudes fit and Python integers otherwise.

``Checker.faults`` returns a list of fault tags, empty when the answer
passes every check:

- ``width``: the claimed width is not outer minus inner
- ``outer``: the outer radius is not half the longest bounding-box side
- ``domain``: the center is not in the center domain, the set of centers
  of smallest enclosing cubes (per axis: hi_i - R <= c_i <= lo_i + R)
- ``shell``: some point lies outside the outer cube or inside the inner one
- ``inner``: the inner radius is not the least L-inf distance to the center
- ``grid``: a center on a seeded grid over the domain has a smaller width
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from typing import NamedTuple

import numpy as np

_INT64_SAFE = 2**61
# Grid cells per free axis: the int64 path affords a finer grid than the
# Python-integer path, whose element operations are ~50x slower.
_GRID_CELLS_INT64 = 16
_GRID_CELLS_BIGINT = 6
_GRID_OFFSET_DEN = 64


class Answer(NamedTuple):
    center: tuple[Fraction, ...]
    outer: Fraction
    inner: Fraction
    width: Fraction


def answer_from_json(payload: dict) -> Answer:
    """The exact fields of ``cubeshell solve`` output."""
    return Answer(tuple(Fraction(c) for c in payload["center_exact"]),
                  Fraction(payload["outer_radius_exact"]),
                  Fraction(payload["inner_radius_exact"]),
                  Fraction(payload["width_exact"]))


def answer_from_result(res) -> Answer:
    """The shell of a library ``SolveResult``."""
    sh = res.shell
    return Answer(tuple(Fraction(c) for c in sh.center),
                  Fraction(sh.outer_radius), Fraction(sh.inner_radius),
                  Fraction(res.width))


def _array(rows, big: bool):
    return np.array(rows, dtype=object if big else np.int64)


class Checker:
    """Checks answers for one point set."""

    def __init__(self, points, seed: int):
        points = [tuple(Fraction(c) for c in p) for p in points]
        self.dim = len(points[0])
        self.seed = seed
        self.D = lcm(*{c.denominator for p in points for c in p})
        self.P = [[int(c * self.D) for c in p] for p in points]
        self.lo = [min(p[i] for p in self.P) for i in range(self.dim)]
        self.hi = [max(p[i] for p in self.P) for i in range(self.dim)]

    def faults(self, ans: Answer) -> list[str]:
        if len(ans.center) != self.dim:
            return ["dimension"]
        out = []
        if ans.width != ans.outer - ans.inner:
            out.append("width")
        E = lcm(self.D, ans.outer.denominator, ans.inner.denominator,
                *(c.denominator for c in ans.center))
        s = E // self.D
        R = int(ans.outer * E)
        r = int(ans.inner * E)
        c = [int(v * E) for v in ans.center]
        longest = max(b - a for a, b in zip(self.lo, self.hi))
        if 2 * R != longest * s:
            out.append("outer")
        bounds = [(b * s - R, a * s + R) for a, b in zip(self.lo, self.hi)]
        if not all(lo <= v <= hi for v, (lo, hi) in zip(c, bounds)):
            out.append("domain")
        magnitude = max(max(abs(v) for v in self.lo + self.hi) * s,
                        max(map(abs, c)), R)
        big = magnitude * _GRID_CELLS_INT64 * _GRID_OFFSET_DEN >= _INT64_SAFE
        P = _array(self.P, big) * s
        dist = np.abs(P - _array(c, big)[None, :]).max(axis=1)
        dmin, dmax = dist.min(), dist.max()
        if dmax > R or dmin < r:
            out.append("shell")
        if dmin != r:
            out.append("inner")
        if self._grid_beats(P, bounds, R - r, big):
            out.append("grid")
        return out

    def _grid_beats(self, P, bounds, width: int, big: bool) -> bool:
        """True when some grid center in the domain has width below ``width``.

        Per axis the grid holds both ends of the domain interval and
        ``cells`` interior points, each shifted from the regular grid by a
        seeded fraction of a cell. All scaled by M = cells * 64 to stay
        integral.
        """
        cells = _GRID_CELLS_BIGINT if big else _GRID_CELLS_INT64
        M = cells * _GRID_OFFSET_DEN
        rng = np.random.default_rng(self.seed)
        axes = []
        for lo, hi in bounds:
            ticks = {lo * M, hi * M}
            if hi > lo:
                shift = rng.integers(0, _GRID_OFFSET_DEN, size=cells)
                ticks.update(lo * M + (hi - lo) * (_GRID_OFFSET_DEN * k + int(o))
                             for k, o in enumerate(shift))
            axes.append(_array(sorted(ticks), big))
        P = P * M
        # Vectorize over the axis with the most ticks; loop over the rest.
        *rest, last = sorted(range(len(axes)), key=lambda i: len(axes[i]))
        d_last = np.abs(P[:, last, None] - axes[last][None, :])
        for prefix in product(*(axes[i].tolist() for i in rest)):
            d = d_last
            for i, v in zip(rest, prefix):
                d = np.maximum(d, np.abs(P[:, i] - v)[:, None])
            widths = d.max(axis=0) - d.min(axis=0)
            if widths.min() < width * M:
                return True
        return False


def self_test(points, good: Answer, seed: int) -> list[str]:
    """Problems with the checker itself; empty when it behaves.

    ``good`` must be a correct answer for ``points``. The checker must
    accept it, and must reject each of three answers that differ from it
    by the smallest step 1/E of its integer grid: the inner radius raised,
    the center moved just outside the domain, the outer radius shrunk.
    """
    chk = Checker(points, seed)
    problems = []
    faults = chk.faults(good)
    if faults:
        problems.append(f"rejects a correct answer: {faults}")
    E = lcm(chk.D, good.outer.denominator, good.inner.denominator,
            *(c.denominator for c in good.center))
    step = Fraction(1, E)
    raised = good._replace(inner=good.inner + step, width=good.width - step)
    axis = min(range(chk.dim), key=lambda i: chk.hi[i] - chk.lo[i])
    edge = Fraction(chk.lo[axis], chk.D) + good.outer
    moved = good._replace(center=good.center[:axis] + (edge + step,)
                          + good.center[axis + 1:])
    shrunk = good._replace(outer=good.outer - step, width=good.width - step)
    for name, bad, tag in (("raised inner radius", raised, "inner"),
                           ("center outside the domain", moved, "domain"),
                           ("shrunk outer radius", shrunk, "outer")):
        if tag not in chk.faults(bad):
            problems.append(f"accepts a {name}")
    return problems
