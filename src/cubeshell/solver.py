"""Minimum-width shell solvers for dimensions 1, 2, and 3.

Each solver works on the integers of one frame (IntFrame), scaled and
normalized by a map read off the input's column extremes (FrameMap);
values become rationals only in the result. The frame holds one column
per axis, and the O(n) passes run column by column in C-level
``map``/``sorted``/``compress`` calls. Before either search, the d = 2
and d = 3 solvers bound r* by B (``_capped``): the heights |z| <= B are
the plateau's candidates, and only their rows within B + L of the center
box on every box axis (L its longest side), on uniform input a few
dozen, are framed for the searches and the inner contacts. That is exact
as r* <= B and the diagram search keeps no site farther than r2 + L from
the box. The outer contacts are the touched extremes of the input. Both
solvers are one function over the k = d - 1 free axes of the center box,
which maximizes the inner radius there two ways and keeps the larger.
The two searches run one selection over sorted candidate rows
(``_largest_feasible``), driven by the one coverage decision
(``uncovered``: a sweep over squares for k = 2, a scan over intervals for
k = 1). d = 1 is closed form.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, repeat
from math import floor
from operator import itemgetter, sub

from .errors import UnsupportedDimensionError, UsageError
from .geometry import (IntFrame, PlanarPoint, PointSet, Record, frame_map,
                       int_frame, scaled_frame)
from .rational import Scalar
from .shell import Shell, lift
from .squares import uncovered


class SolveResult(Record):
    """Shell in original coordinates plus how it was found.

    inner_level is the normalized-frame inner radius (same value as
    shell.inner_radius); contacts index into the input point order.
    candidate_count is the work of the last stage: in 2D and 3D the
    coverage sweeps that the diagram-regime search ran over the critical
    radii, O(log m) for m low sites; in 1D the number of points.
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


SAMPLE = 64  # points whose least cap bounds r* in one pruning pass


def _frame_of(psn: PointSet | IntFrame) -> IntFrame:
    return psn if isinstance(psn, IntFrame) else scaled_frame(psn)


def _capped(ps: PointSet):
    """The rows of ps that can bound r*, framed, their indices, and the
    plateau's candidate heights.

    No center is farther from a point than its cap: the larger of |z|
    and, per box axis [A0, A1], max(x - A0, A1 - x). So r* <= B, the
    least cap, and every level above B is infeasible. The candidates are
    the heights |z| <= B; only their rows within B + L of the box on every
    axis (L its longest side) are framed: a row farther than B from it is
    active at no level <= B and is no inner contact, and the diagram
    search keeps only the sites within d + L of it, d <= r2 <= B the
    nearest site's distance to its midpoint.

    B is the least cap over a stride sample of SAMPLE rows. A pass keeps
    the rows in both windows and repeats on them while it halves them.
    heights is None when the framed rows hold every candidate.
    """
    fm = frame_map(ps)
    _, cols, mins, maxs = ps._scaled
    spans = list(zip(fm.box[0::2], fm.box[1::2]))
    L = max(a1 - a0 for a0, a1 in spans)
    s, mid, Z = fm.s, fm.mid, cols[fm.order[-1]]
    idx, low = range(len(ps)), None
    while len(idx) > SAMPLE:
        m = len(idx)
        *planar, Zs = fm.frame([_rows(col, idx[::m // SAMPLE])
                                for col in cols]).cols
        terms = [map(abs, Zs)]
        for col, (a0, a1) in zip(planar, spans):
            terms += [map(sub, col, repeat(a0)), map(sub, repeat(a1), col)]
        B = min(map(max, *terms))
        lo, hi = mid - B // s, mid + B // s
        idx = [i for i in idx if lo <= Z[i] <= hi]
        low = idx if low is None else [i for i in low if lo <= Z[i] <= hi]
        for a, (a0, a1) in zip(fm.order, spans):
            # keep s * x in [a0 - B - L, a1 + B + L], if some x lies outside
            lo, hi, col = -((B + L - a0) // s), (a1 + B + L) // s, cols[a]
            if lo > mins[a] or hi < maxs[a]:
                idx = [i for i in idx if lo <= col[i] <= hi]
        if 2 * len(idx) > m:
            break
    heights = (None if low is None or len(low) == len(idx)
               else sorted(s * abs(Z[i] - mid) for i in low))
    return fm.frame([_rows(col, idx) for col in cols]), idx, heights


def _rows(seq, idx):
    """The items of seq at the (nonempty) indices idx, as a tuple."""
    return itemgetter(*idx)(seq) if len(idx) > 1 else (seq[idx[0]],)


def _largest_feasible(rows, test):
    """(c, hit, tests): the largest candidate c at which the monotone test
    finds a point, that hit (both None if there is none) and the tests run.

    Row [L, v, a, b], L sorted, holds the candidates L[j] - v, a <= j < b,
    and is narrowed in place: a sorted matrix is the rows [L, L[i], i + 1,
    len(L)], a sorted list the one row [L, 0, 0, len(L)]. After
    Frederickson and Johnson, each round tests the weighted median of the
    rows' medians and bisects every row to the outcome. The rows whose
    median lies on the dropped side hold half the weight, and each drops
    half its entries, so a round drops a quarter of the candidates and m
    of them take O(log m) tests; one row takes at most ceil(log2(m + 1)).
    """
    best = hit = None
    tests = 0
    while rows := [row for row in rows if row[2] < row[3]]:
        meds = sorted((L[(a + b) // 2] - v, b - a) for L, v, a, b in rows)
        total = sum(wt for _, wt in meds)
        acc = 0
        for cand, wt in meds:
            acc += wt
            if 2 * acc >= total:
                break
        got = test(cand)
        tests += 1
        if got is not None:
            best, hit = cand, got
            for row in rows:
                row[2] = bisect_right(row[0], row[1] + cand, row[2], row[3])
        else:
            for row in rows:
                row[3] = bisect_left(row[0], row[1] + cand, row[2], row[3])
    return best, hit, tests


def solve_plateau_case(psn: PointSet | IntFrame, heights=None):
    """Largest height level at which the decision procedure still says yes.

    psn is a normalized point set of dimension 2 or 3, or its IntFrame.
    The cubes active at a level are a prefix of the points' height order,
    and the candidates are heights, sorted frame integers, by default the
    points' own. Returns (level, center); the lowest level is feasible,
    as no cube is active there.
    """
    fr = _frame_of(psn)
    *planar, Z = fr.cols
    abs_heights = list(map(abs, Z))
    order = sorted(range(len(Z)), key=abs_heights.__getitem__)
    own, *cols = [list(map(col.__getitem__, order))
                  for col in (abs_heights, *planar)]
    heights = own if heights is None else heights

    def test(h):
        k = bisect_left(own, h)
        return uncovered([col[:k] for col in cols], h, fr.box)

    level, hit, _ = _largest_feasible([[heights, 0, 0, len(heights)]], test)
    return fr.value(level), tuple(map(fr.value, hit))


def solve_voronoi_case(psn: PointSet | IntFrame, level: Scalar | None = None):
    """Largest r at which the low sites' open cubes leave a center uncovered.

    psn is a normalized point set of dimension 2 or 3, or its IntFrame; its
    k = d - 1 planar columns span the center box. Returns ((value, center)
    or None, number of coverage sweeps run).

    The decision search fixes the largest feasible height level; between
    that level and the next one up, only points at or below it can pull
    the inner radius down, and they do so through their projected
    distance alone. The value is therefore the largest r at which the
    open cubes of radius r around those low sites still leave a point
    of the center box uncovered (the largest nearest-site distance over
    the box), and the center is the sweep's witness there; the lifted
    and projected distances agree at it whenever this regime wins. With
    no level given, every point counts as low; the result is then still
    a valid lower bound on the optimum.

    At the optimum some axis pins the center from both sides, by two
    sites or by a site and the far box side; else moving it away from
    its nearest sites would raise all their distances. So 2r is the gap
    between two site coordinates on one axis, or a site's doubled
    distance 2(X1 - x) (x <= X1) or 2(x - X0) (x >= X0) to a box side.
    Per axis, these form a sorted matrix and one sorted row, which
    ``_largest_feasible`` searches in O(log m) sweeps for m sites.
    """
    fr = _frame_of(psn)
    *planar, Z = fr.cols
    # heights are frame integers, so |z| <= level exactly when |z| <= floor
    top = max(map(abs, Z)) if level is None else floor(level * fr.U)
    low = list(map(top.__ge__, map(abs, Z)))
    if True not in low:
        return None, 0
    # the distinct low sites by the first axis (the sweeps' sorts are then
    # linear); for k = 1 the distinct values of the one column
    cols = [compress(col, low) for col in planar]
    cols = ([sorted(set(cols[0]))] if len(cols) == 1
            else list(zip(*sorted(set(zip(*cols))))))
    # sites further from the domain than this bound are never nearest
    # anywhere inside it, so dropping them changes no distance there (the
    # 0 gives max two arguments when k = 1)
    spans = list(zip(fr.box[0::2], fr.box[1::2]))
    d_mid = min(map(max, *[map(abs, map(sub, col, repeat((a0 + a1) // 2)))
                           for col, (a0, a1) in zip(cols, spans)], repeat(0)))
    cutoff = d_mid + max(a1 - a0 for a0, a1 in spans)
    near = list(map(all, zip(*[map(range(a0 - cutoff, a1 + cutoff + 1)
                                   .__contains__, col)
                               for col, (a0, a1) in zip(cols, spans)])))
    cols = [tuple(compress(col, near)) for col in cols]

    # Row i of an axis's matrix holds L[j] - L[i] for j past i, and row D
    # the doubled side distances. All are even, so each r is an integer.
    rows = []
    for coords, c0, c1 in zip(cols, fr.box[0::2], fr.box[1::2]):
        L = sorted(set(coords))
        D = sorted({v for c in L for v in (2 * (c1 - c), 2 * (c - c0)) if v >= 0})
        rows += [[L, L[i], i + 1, len(L)] for i in range(len(L) - 1)]
        rows.append([D, 0, 0, len(D)])
    gap, hit, sweeps = _largest_feasible(
        rows, lambda gap: uncovered(cols, gap // 2, fr.box))
    # r* is itself a candidate, and feasible, so some sweep hit
    return (fr.value(gap // 2), tuple(map(fr.value, hit))), sweeps


def _contacts(ps: PointSet, kept, center_planar: PlanarPoint,
              rstar: Scalar):
    """Points on the outer and on the inner cube, found on integers.

    The center is a point of the box, and kept is ``_capped``'s (frame,
    indices): rows that hold every point within r* of it. The solvers'
    centers and r* are frame integers: a center is a box corner or a
    coverage witness, r* a point's distance.

    No point is farther than half from a center of the box, and a point
    is at half exactly when it is an extreme of the height column, or of
    a box axis [A0, A1] at whose other end the center sits: the minimum
    when c = A1, as c - half is then that minimum, the maximum when
    c = A0. So the outer contacts are the touched extremes, scanned for in
    the input's own columns.

    A point is at distance v from the center (c, 0) exactly when some
    offset is +-v and none is larger, so scans of the kept columns for
    c +- v find the inner contacts. No column holds a value outside its
    range, [A1 - half, A0 + half] on a box axis and [-half, half] on the
    last one, so a target there is not scanned.
    """
    fr, idx = kept
    h, box = fr.half, fr.box
    _, src, mins, maxs = ps._scaled
    *planar, last = fr.nrm.axis_order
    centers = [int(c * fr.U) for c in center_planar]
    ends = {(last, mins[last]), (last, maxs[last])}
    for a, c, a0, a1 in zip(planar, centers, box[0::2], box[1::2]):
        if c == a1:
            ends.add((a, mins[a]))
        if c == a0:
            ends.add((a, maxs[a]))
    outer = {i for a, v in ends for i in _positions(src[a], v)}

    ranges = [(a1 - h, a0 + h) for a0, a1 in zip(box[0::2], box[1::2])]
    ranges.append((-h, h))
    axes = list(zip(fr.cols, centers + [0]))
    v = int(rstar * fr.U)
    hits = {i for (col, c), (lo, hi) in zip(axes, ranges)
            for t in {c - v, c + v} if lo <= t <= hi
            for i in _positions(col, t)}
    inner = (idx[i] for i in hits if all(abs(col[i] - c) <= v
                                         for col, c in axes))
    return tuple(sorted(outer)), tuple(sorted(inner))


def _positions(values, v) -> list[int]:
    """The indices at which v occurs in values, ascending."""
    out = [-1]
    try:
        while True:
            out.append(values.index(v, out[-1] + 1))
    except ValueError:
        return out[1:]


def _finish(ps: PointSet, kept, center_planar: PlanarPoint, rstar: Scalar,
            tag: str, count: int, plateau_value: Scalar | None = None,
            voronoi_value: Scalar | None = None) -> SolveResult:
    fr = kept[0]
    center = fr.nrm.invert(lift(center_planar))
    shell = Shell(center, fr.value(fr.half), rstar)
    return SolveResult(shell, rstar, tag, count,
                       *_contacts(ps, kept, center_planar, rstar),
                       plateau_value, voronoi_value)


def _solve(ps: PointSet, d: int) -> SolveResult:
    """Both regimes over the d - 1 free axes of the center box; r* is the
    larger value. On a tie the center is the plateau witness: at r* the
    plateau test bars the cubes of the points lower than r*, the diagram
    search's test those at or below it, so the plateau witness is the
    leftmost optimal center."""
    if ps.dimension != d:
        raise UsageError(f"solve{d}d expects dimension {d}")
    *kept, heights = _capped(ps)
    fr = kept[0]
    if len(ps) <= 2:
        # one or two points always admit a width-0 shell: its center is
        # the box's low corner
        c = tuple(map(fr.value, fr.box[0::2]))
        return _finish(ps, kept, c, fr.value(fr.half), "plateau", 0)
    # Neither regime comes back empty: no cube is active at the lowest
    # height, so that level is feasible, and the points at or below it
    # give the diagram at least one site.
    r1, c1 = solve_plateau_case(fr, heights)
    (r2, c2), count = solve_voronoi_case(fr, r1)
    rstar, c = (r1, c1) if r1 >= r2 else (r2, c2)
    tag = "plateau" if r1 > r2 else "voronoi" if r2 > r1 else "both"
    return _finish(ps, kept, c, rstar, tag, count, r1, r2)


def solve3d(ps: PointSet) -> SolveResult:
    return _solve(ps, 3)


def solve2d(ps: PointSet) -> SolveResult:
    return _solve(ps, 2)


def solve1d(ps: PointSet) -> SolveResult:
    if ps.dimension != 1:
        raise UsageError("solve1d expects dimension 1")
    # the frame centers the points, so the center is 0 there
    fr = int_frame(ps)
    inner = fr.value(min(map(abs, fr.cols[0])))
    return _finish(ps, (fr, range(len(fr))), (), inner, "plateau", len(ps))


def solve(ps: PointSet) -> SolveResult:
    """Dimension dispatch; d must be 1, 2, or 3."""
    if ps.dimension == 1:
        return solve1d(ps)
    if ps.dimension == 2:
        return solve2d(ps)
    if ps.dimension == 3:
        return solve3d(ps)
    raise UnsupportedDimensionError(ps.dimension)
