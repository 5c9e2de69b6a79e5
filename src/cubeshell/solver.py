"""Minimum-width shell solvers for dimensions 1, 2, and 3.

Each solver normalizes and scales its input once, into an IntFrame, and
works on its integers; values become rationals only in the result. The
frame holds one column per axis, and every O(n) pass (the order by
height, the low sites, the 2D narrowing and the contacts) runs column by
column in C-level ``map``/``sorted``/``list.index`` calls. The
d = 3 solver maximizes the inner radius over the center domain two ways,
both driven by the one coverage sweep (``uncovered_scaled``): a binary
search over the plateau levels, and a sorted-matrix search over the
radii at which the low sites' squares can close the last gap, keeping
whichever is larger. d = 2 runs the same two regimes on an interval: the
binary search with a scan for the leftmost gap between open intervals,
then the farthest point from the low sites; d = 1 is closed form.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, islice, repeat
from math import floor
from operator import itemgetter, sub

from .errors import UnsupportedDimensionError, UsageError
from .geometry import (IntFrame, PlanarPoint, PointSet, Record, int_frame,
                       scaled_frame)
from .rational import Scalar
from .shell import Shell, lift
from .squares import uncovered_scaled


class SolveResult(Record):
    """Shell in original coordinates plus how it was found.

    inner_level is the normalized-frame inner radius (same value as
    shell.inner_radius); contacts index into the input point order.
    candidate_count is the work of the last stage: in 3D the coverage
    sweeps of the diagram-regime search, in 2D the low-site candidates
    scanned, in 1D the number of points.
    """

    __slots__ = ("shell", "inner_level", "case_tag", "candidate_count",
                 "outer_contacts", "inner_contacts", "plateau_value",
                 "voronoi_value")

    def __init__(self, shell: Shell, inner_level: Scalar, case_tag: str,
                 candidate_count: int, outer_contacts: tuple[int, ...],
                 inner_contacts: tuple[int, ...],
                 plateau_value: Scalar | None = None,
                 voronoi_value: Scalar | None = None):
        self._fill(shell, inner_level, case_tag, candidate_count, outer_contacts,
                   inner_contacts, plateau_value, voronoi_value)

    @property
    def width(self) -> Scalar:
        return self.shell.width


def _frame_of(psn: PointSet | IntFrame) -> IntFrame:
    return psn if isinstance(psn, IntFrame) else scaled_frame(psn)


def _last_feasible(levels, test):
    """(level, point) for the largest sorted level at which the monotone
    test finds a point; None if it finds none at any level."""
    lo, hi = 0, len(levels) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        hit = test(levels[mid])
        if hit is not None:
            best, lo = (levels[mid], hit), mid + 1
        else:
            hi = mid - 1
    return best


def solve_plateau_case(psn: PointSet | IntFrame):
    """Largest height level at which the decision procedure still says yes.

    psn is a normalized point set or its IntFrame. Monotonicity of the
    decision in the radius makes the binary search over the sorted
    distinct levels valid. The point indices are sorted by height once, so
    the squares active at a level are a prefix of that order. Returns
    (level, center); the lowest level is always feasible, since no square
    is active there.
    """
    fr = _frame_of(psn)
    X, Y, Z = fr.cols
    abs_heights = list(map(abs, Z))
    order = sorted(range(len(Z)), key=abs_heights.__getitem__)
    heights, xs, ys = [list(map(col.__getitem__, order))
                       for col in (abs_heights, X, Y)]

    def test(h):
        k = bisect_left(heights, h)
        return uncovered_scaled(xs[:k], ys[:k], h, fr.box)

    level, hit = _last_feasible(sorted(set(heights)), test)
    return fr.value(level), (fr.value(hit[0]), fr.value(hit[1]))


def solve_voronoi_case(psn: PointSet | IntFrame, level: Scalar | None = None):
    """Largest r at which the low sites' open squares leave a center uncovered.

    psn is a normalized point set or its IntFrame. Returns ((value,
    center) or None, number of coverage sweeps run).

    The decision search fixes the largest feasible height level; between
    that level and the next one up, only points at or below it can pull
    the inner radius down, and they do so through their projected
    distance alone. The value is therefore the largest r at which the
    open squares of radius r around those low sites still leave a point
    of the center box uncovered (the largest nearest-site distance over
    the box), and the center is the sweep's witness there; the lifted
    and projected distances agree at it whenever this regime wins. With
    no level given, every point counts as low; the result is then still
    a valid lower bound on the optimum.

    Coverage changes only where two square sides, or a side and a box
    side, meet, so the answer is half a difference within the sorted
    site x's together with their reflections in X0 and X1, or within the
    same list for y. These half differences form sorted matrices, which
    a Frederickson-Johnson style selection searches without listing
    them: each round tests the weighted median of the row medians of the
    remaining entries with one sweep, which drops at least a quarter of
    them, so O(log m) sweeps suffice for m sites.
    """
    fr = _frame_of(psn)
    X, Y, Z = fr.cols
    # heights are frame integers, so |z| <= level exactly when |z| <= floor
    top = max(map(abs, Z)) if level is None else floor(level * fr.U)
    low = set(compress(zip(X, Y), map(top.__ge__, map(abs, Z))))
    if not low:
        return None, 0
    # sites further from the domain than this bound are never nearest
    # anywhere inside it, so dropping them changes no distance there
    X0, X1, Y0, Y1 = fr.box
    cx, cy = (X0 + X1) // 2, (Y0 + Y1) // 2
    d_mid = min(max(abs(x - cx), abs(y - cy)) for x, y in low)
    cutoff = d_mid + max(X1 - X0, Y1 - Y0)
    sites = [(x, y) for x, y in low
             if max(X0 - x, x - X1, Y0 - y, y - Y1) <= cutoff]
    xs = [x for x, _ in sites]
    ys = [y for _, y in sites]

    # Row i of a matrix holds L[j] - L[i] for j past i, twice a candidate;
    # [a, b) is the part of the row strictly between 2*lo and 2*hi. Every
    # value is even, so each candidate is an integer.
    rows = []
    for coords, c0, c1 in ((xs, X0, X1), (ys, Y0, Y1)):
        L = sorted({v for c in coords for v in (c, 2 * c0 - c, 2 * c1 - c)})
        rows += [[L, L[i], i + 1, len(L)] for i in range(len(L) - 1)]
    lo, hit, sweeps = 0, None, 0
    while rows:
        meds = sorted((L[(a + b) // 2] - v, b - a) for L, v, a, b in rows)
        total = sum(wt for _, wt in meds)
        acc = 0
        for diff, wt in meds:
            acc += wt
            if 2 * acc >= total:
                break
        r = diff // 2
        got = uncovered_scaled(xs, ys, r, fr.box)
        sweeps += 1
        if got is not None:
            lo, hit = r, got
            for row in rows:
                row[2] = bisect_right(row[0], row[1] + diff, row[2], row[3])
        else:
            for row in rows:
                row[3] = bisect_left(row[0], row[1] + diff, row[2], row[3])
        rows = [row for row in rows if row[2] < row[3]]
    if hit is None:
        # no positive radius is feasible; at 0 no square covers anything
        hit = uncovered_scaled(xs, ys, 0, fr.box)
        sweeps += 1
    return (fr.value(lo), (fr.value(hit[0]), fr.value(hit[1]))), sweeps


def _contacts(fr: IntFrame, center_planar: PlanarPoint, rstar: Scalar):
    """Points on the outer and on the inner cube, found on integers.

    The solvers' centers and r* are frame integers: every center is a
    box corner, a sweep witness or a gap midpoint, and r* is the distance
    from the center to some point. The distances are built column by
    column, starting from the heights (the center lies in the plane
    z = 0), and each radius is found in them by repeated ``list.index``.
    """
    *planar, heights = fr.cols
    dist = map(abs, heights)
    for col, v in zip(planar, center_planar):
        dist = map(max, dist, map(abs, map(sub, col, repeat(int(v * fr.U)))))
    dist = list(dist)
    return _positions(dist, fr.half), _positions(dist, int(rstar * fr.U))


def _positions(values: list, v) -> tuple[int, ...]:
    """The indices at which v occurs in values, ascending."""
    out = [-1]
    try:
        while True:
            out.append(values.index(v, out[-1] + 1))
    except ValueError:
        return tuple(out[1:])


def _finish(fr: IntFrame, center_planar: PlanarPoint, rstar: Scalar, tag: str,
            count: int, contacts, plateau_value: Scalar | None = None,
            voronoi_value: Scalar | None = None) -> SolveResult:
    center = fr.nrm.invert(lift(center_planar))
    shell = Shell(center, fr.value(fr.half), rstar)
    return SolveResult(shell, rstar, tag, count, *contacts,
                       plateau_value, voronoi_value)


def _corner_shell(fr: IntFrame) -> SolveResult:
    """Width-0 shell centered at the domain's low corner."""
    c = tuple(fr.value(v) for v in fr.box[0::2])
    rstar = fr.value(fr.half)
    return _finish(fr, c, rstar, "plateau", 0, _contacts(fr, c, rstar))


def solve3d(ps: PointSet) -> SolveResult:
    if ps.dimension != 3:
        raise UsageError("solve3d expects dimension 3")
    fr = int_frame(ps)
    if len(fr) <= 2:
        # one or two points always admit a width-0 shell
        return _corner_shell(fr)
    # Neither regime comes back empty: no square is active at the lowest
    # height, so that level is feasible, and the points at or below it
    # give the diagram at least one site.
    r1, c1 = solve_plateau_case(fr)
    (r2, c2), count = solve_voronoi_case(fr, r1)
    if r1 > r2:
        rstar, c, tag = r1, c1, "plateau"
    else:
        rstar, c, tag = r2, c2, ("voronoi" if r2 > r1 else "both")
    return _finish(fr, c, rstar, tag, count, _contacts(fr, c, rstar), r1, r2)


def solve2d(ps: PointSet) -> SolveResult:
    """The 3D regimes on the center interval [lo_c, hi_c].

    At radius r a point of height w < r bars the centers (x - r, x + r).
    Up to the next height past r1, only the low points bar any, so r* is
    the larger of r1 and their farthest point; each is the leftmost
    center of its value.
    """
    if ps.dimension != 2:
        raise UsageError("solve2d expects dimension 2")
    fr = int_frame(ps)
    if len(fr) <= 2:
        return _corner_shell(fr)

    lo_c, hi_c = fr.box
    # the lowest point above an x bars whatever the others there bar
    X, Z = fr.cols
    narrow: dict[int, int] = {}
    for x, w in zip(X, map(abs, Z)):
        if narrow.setdefault(x, w) > w:
            narrow[x] = w
    funcs = sorted(narrow.items())

    def gap(r):
        # the leftmost center no open interval covers; those that end at
        # or before lo_c cover none
        c = lo_c
        start = bisect_right(funcs, lo_c - r, key=itemgetter(0))
        for x, w in islice(funcs, start, None):
            if w < r and x + r > c:
                if x - r >= c:
                    break
                c = x + r
                if c > hi_c:
                    return None
        return c

    r1, c1 = _last_feasible(sorted(set(narrow.values())), gap)
    # the low sites' farthest point is an end or a gap midpoint inside
    low = [x for x, w in funcs if w <= r1]
    cands = [(min(abs(x - lo_c) for x in low), lo_c)]
    cands += [((b - a) // 2, (a + b) // 2) for a, b in zip(low, low[1:])
              if lo_c < (a + b) // 2 < hi_c]
    cands.append((min(abs(x - hi_c) for x in low), hi_c))
    # max keeps the first of equal values, so the leftmost center
    r2, c2 = max(cands, key=lambda vc: vc[0])
    best_v, best_c = (r1, c1) if r1 >= r2 else (r2, c2)

    rstar = fr.value(best_v)
    c_star = (fr.value(best_c),)
    outer, inner = _contacts(fr, c_star, rstar)
    # the inner contacts are the points at lifted distance r*; the tag says
    # whether a height, a planar distance, or both reach it there
    plateau_hit = any(abs(Z[i]) == best_v for i in inner)
    voronoi_hit = any(abs(X[i] - best_c) == best_v for i in inner)
    tag = "both" if plateau_hit and voronoi_hit else (
        "plateau" if plateau_hit else "voronoi")
    return _finish(fr, c_star, rstar, tag, len(cands), (outer, inner))


def solve1d(ps: PointSet) -> SolveResult:
    if ps.dimension != 1:
        raise UsageError("solve1d expects dimension 1")
    # the frame centers the points, so the center is 0 there
    fr = int_frame(ps)
    inner = fr.value(min(map(abs, fr.cols[0])))
    return _finish(fr, (), inner, "plateau", len(ps), _contacts(fr, (), inner))


def solve(ps: PointSet) -> SolveResult:
    """Dimension dispatch; d must be 1, 2, or 3."""
    if ps.dimension == 1:
        return solve1d(ps)
    if ps.dimension == 2:
        return solve2d(ps)
    if ps.dimension == 3:
        return solve3d(ps)
    raise UnsupportedDimensionError(ps.dimension)
