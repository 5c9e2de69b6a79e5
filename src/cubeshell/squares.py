"""Coverage of the center domain by equal squares.

Slicing every forbidden ball at a trial inner radius by the center plane
yields a set of equal open squares; a center admits that radius exactly
when it avoids all of their interiors. This module builds the boundary of
such a square union and answers the coverage decision with an exact
witness, via a left-to-right sweep over the squares' vertical sides.
Both sweeps keep the active centers' ys in one sorted list with sentinels
at either end and update it per square: the coverage sweep counts the
gaps of at least 2w, and the boundary sweep toggles the piece of the gap
that each entering or leaving square covers or uncovers. ``uncovered``
answers the same decision for the solvers over one free axis too, where
the squares are open intervals and a scan by x replaces the sweep.

All sweep arithmetic runs on integers: ``_clip_at`` cuts the squares from
a point set's frame columns, scaled once more by the radius's
denominator, so nothing here rescales on its own. Public results are
rationals.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import compress, islice, repeat
from operator import itemgetter, mul

from .errors import PreconditionError, UsageError
from .geometry import PlanarPoint, PointSet, Record, point_set, scaled_frame
from .rational import Scalar


class Square(Record):
    """Axis-aligned square given by center and radius (half side)."""

    __slots__ = ("center", "radius")

    def __init__(self, center: PlanarPoint, radius: Scalar):
        if len(center) != 2:
            raise PreconditionError("square center must be planar")
        if radius <= 0:
            raise PreconditionError("square radius must be positive")
        self._fill(center, radius)


class UnionBoundary(Record):
    """Boundary of a union of equal closed squares.

    ``vertices`` are the points where the boundary turns or pinches;
    ``edges`` are the maximal axis-parallel segments between them.
    ``component_count`` counts connected components of the closed union.
    """

    __slots__ = ("vertices", "edges", "component_count", "area")

    def __init__(self, vertices: tuple[PlanarPoint, ...],
                 edges: tuple[tuple[PlanarPoint, PlanarPoint], ...],
                 component_count: int, area: Scalar):
        self._fill(vertices, edges, component_count, area)


def clip_ball(p, w: Scalar) -> Square | None:
    """Planar cross-section of the open ball of radius w around p.

    Empty (None) exactly when the point's height is at least w.
    """
    if w < 0:
        raise UsageError("clip radius must be nonnegative")
    if len(p) != 3:
        raise UsageError("clip_ball expects a spatial point")
    if abs(p[-1]) >= w:
        return None
    return Square((p[0], p[1]), w)


# ---------------------------------------------------------------------------
# Union boundary sweep (integer coordinates).


def _axis_runs(sq, w):
    """Vertical boundary runs of deduped int squares, and the union's area.

    The active centers' ys stay in one sorted list between two sentinels,
    3w below and above every center, so each center has neighbours a and
    b. At an event x, a center leaving or entering toggles the piece
    (max(a + w, y - w), min(b - w, y + w)) of the gap it sits in, empty
    unless b - a > 2w, so touching squares join. The boundary at x is where
    an odd number of pieces overlap, cut at every piece end: where two ends
    meet, the covered side may flip, a pinch. A part (p, q) is covered on
    the right exactly when some y left in the list lies in [q - w, p + w].

    The area is the boundary integral of x dy: a part covered on its left
    only is an upward stretch of the boundary, one covered on its right
    only a downward one, holes included.
    """
    enters: dict[int, list[int]] = {}
    exits: dict[int, list[int]] = {}
    for cx, cy in sq:
        enters.setdefault(cx - w, []).append(cy)
        exits.setdefault(cx + w, []).append(cy)
    ys = [min(cy for _, cy in sq) - 3 * w, max(cy for _, cy in sq) + 3 * w]
    runs = []
    area = 0
    for x in sorted(enters.keys() | exits.keys()):
        pieces = []
        for y in exits.get(x, ()):
            i = bisect_left(ys, y)
            del ys[i]
            pieces.append((max(ys[i - 1] + w, y - w), min(ys[i] - w, y + w)))
        for y in enters.get(x, ()):
            i = bisect_left(ys, y)
            pieces.append((max(ys[i - 1] + w, y - w), min(ys[i] - w, y + w)))
            ys.insert(i, y)
        ends = sorted(v for lo, hi in pieces if lo < hi for v in (lo, hi))
        side = None
        for p, q in zip(ends[::2], ends[1::2]):
            if p == q:
                continue
            right = ys[bisect_left(ys, q - w)] <= p + w
            area += (-x if right else x) * (q - p)
            if right == side and runs[-1][2] == p:
                runs[-1] = (x, runs[-1][1], q)
            else:
                runs.append((x, p, q))
            side = right
    return runs, area


def _component_count(sq, w) -> int:
    """Connected components of the closed squares, on a grid of side 2w.

    Centers that share a grid cell are less than 2w apart per axis, so
    each cell is connected; two squares that meet lie in the same cell or
    in neighbouring ones, so only neighbouring cells are compared.
    """
    side = 2 * w
    cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for x, y in sq:
        cells.setdefault((x // side, y // side), []).append((x, y))
    parent = {c: c for c in cells}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for (i, j), members in cells.items():
        for nb in ((i + 1, j - 1), (i + 1, j), (i + 1, j + 1), (i, j + 1)):
            others = cells.get(nb)
            if others is None:
                continue
            a, b = find((i, j)), find(nb)
            if a != b and any(abs(x - u) <= side and abs(y - v) <= side
                              for x, y in members for u, v in others):
                parent[a] = b
    return sum(1 for c in cells if find(c) == c)


def _clip_at(ps: PointSet, r: Scalar):
    """The squares that the points with |z| < r cut from z = 0, on integers.

    Scaled by k, the denominator of r, past the set's frame, r is a frame
    integer w too. Returns the centers' x's and y's, w and their scale U*k.
    """
    if r < 0:
        raise UsageError("radius must be nonnegative")
    if ps.dimension != 3:
        raise UsageError("squares are cut from points of dimension 3")
    r = Fraction(r)
    U, (X, Y, Z), _, _ = ps._scaled
    k, w = r.denominator, r.numerator * U
    active = list(map(w.__gt__, map(mul, map(abs, Z), repeat(k))))
    cxs = list(map(mul, compress(X, active), repeat(k)))
    cys = list(map(mul, compress(Y, active), repeat(k)))
    return cxs, cys, w, U * k


def union_at(ps: PointSet, r: Scalar) -> tuple[int, UnionBoundary]:
    """The squares that ``clip_ball`` cuts from the points of ps at radius r:
    their number, duplicates included, and the boundary of their union."""
    cxs, cys, w, U = _clip_at(ps, r)
    sq = list(set(zip(cxs, cys)))
    if not sq:
        return 0, UnionBoundary((), (), 0, Fraction(0))
    v_runs, area = _axis_runs(sq, w)
    h_runs, _ = _axis_runs([(cy, cx) for cx, cy in sq], w)

    def pt(x, y):
        return (Fraction(x, U), Fraction(y, U))

    edges = [(pt(x, y0), pt(x, y1)) for x, y0, y1 in v_runs]
    edges += [(pt(x0, y), pt(x1, y)) for y, x0, x1 in h_runs]
    vertices = {v for e in edges for v in e}
    return len(cxs), UnionBoundary(
        tuple(sorted(vertices)),
        tuple(sorted(edges)),
        _component_count(sq, w),
        Fraction(area, U * U),
    )


def union_of_squares(squares) -> UnionBoundary:
    """Boundary of the union of equal closed squares."""
    squares = list(squares)
    if not squares:
        return UnionBoundary((), (), 0, Fraction(0))
    radius = squares[0].radius
    if any(s.radius != radius for s in squares):
        raise PreconditionError("union requires equal radii")
    # each square is the cut of the ball around its center at height 0
    return union_at(point_set((*s.center, 0) for s in squares), radius)[1]


# ---------------------------------------------------------------------------
# Exact coverage decision over the center domain.


class _Column:
    """Active square centers for one sweep strip, as a sorted y list.

    Two sentinel centers, at Y0 - w and at Y1 + w, stand in for the box's
    bottom and top. Every real center lies strictly between them, as the
    prefilter leaves it, so a point of [Y0, Y1] is uncovered exactly when
    it lies in a gap of at least 2w between adjacent ys. ``bad`` counts
    those gaps, which makes the per-strip coverage query O(1).
    """

    __slots__ = ("ys", "w", "bad")

    def __init__(self, w, y0, y1):
        self.ys = [y0 - w, y1 + w]
        self.w = w
        self.bad = 1  # the empty column's one gap is the whole box

    def add(self, y):
        ys, side = self.ys, 2 * self.w
        i = bisect_left(ys, y)
        lo, hi = ys[i - 1], ys[i]
        self.bad += (y - lo >= side) + (hi - y >= side) - (hi - lo >= side)
        ys.insert(i, y)

    def remove(self, y):
        ys, side = self.ys, 2 * self.w
        i = bisect_left(ys, y)
        lo, hi = ys[i - 1], ys[i + 1]
        self.bad += (hi - lo >= side) - (y - lo >= side) - (hi - y >= side)
        ys.pop(i)

    def witness_y(self) -> int:
        """The bottom of the bottom gap, else of the top one, else of the
        lowest gap: a + w for the gap's lower center a."""
        ys, side = self.ys, 2 * self.w
        if ys[1] - ys[0] < side <= ys[-1] - ys[-2]:
            a = ys[-2]
        else:
            a = next(a for a, b in zip(ys, ys[1:]) if b - a >= side)
        return a + self.w


def _prefilter(cxs, cys, w, box):
    """Drop squares that cannot cover any center; detect one covering all.

    Returns (xs, ys, covered_all). All coordinates are even integers.
    """
    X0, X1, Y0, Y1 = box
    # a square meets the box when X0 - w < x < X1 + w (and so for y), and
    # swallows it when X1 - w < x < X0 + w
    mx0, mx1, my0, my1 = X0 - w, X1 + w, Y0 - w, Y1 + w
    sx0, sx1, sy0, sy1 = X1 - w, X0 + w, Y1 - w, Y0 + w
    xs, ys = [], []
    for x, y in zip(cxs, cys):
        if mx0 < x < mx1 and my0 < y < my1:
            if sx0 < x < sx1 and sy0 < y < sy1:
                return [], [], True
            xs.append(x)
            ys.append(y)
    return xs, ys, False


def uncovered_scaled(cxs, cys, w, box):
    """Leftmost point of box in no open square, or None. Integers throughout.

    Coverage is checked only at the event x's and the box's ends: the
    squares over a strip between two events are those over its left end
    plus those entering there. The kept squares are sorted by x once, so the
    entries at x - w and the exits at x + w come in that order and merge.
    Each event is checked after its exits and before its entries; the
    first uncovered one gives x, and ``_Column.witness_y`` gives y.
    """
    X0, X1, Y0, Y1 = box
    cxs, cys, covered_all = _prefilter(cxs, cys, w, box)
    if covered_all:
        return None
    sq = sorted(zip(cxs, cys), key=itemgetter(0))
    sq.append((X1 + w + 1, None))  # enters and leaves past X1
    col = _Column(w, Y0, Y1)
    i = bisect_left(sq, X0 + w, key=itemgetter(0))  # the next to enter
    for _, y in sq[:i]:
        col.add(y)
    j, x = 0, X0  # the next square to leave, and the event
    while True:
        while sq[j][0] + w == x:
            col.remove(sq[j][1])
            j += 1
        if col.bad:
            return (x, col.witness_y())
        while sq[i][0] - w == x:
            col.add(sq[i][1])
            i += 1
        if x == X1:
            return None
        x = min(sq[i][0] - w, sq[j][0] + w, X1)


def uncovered(cols, w, box):
    """Leftmost point of box in no open cube of radius w around the points
    whose coordinates the k = 1 or 2 columns hold, or None. Integers.

    For k = 2 this is ``uncovered_scaled``. For k = 1 the box is [A0, A1]
    and the cubes are intervals (x - w, x + w): scanned by x, each one that
    covers the candidate c moves it to x + w, and the first that starts at
    or past c leaves it uncovered. Those ending at or before A0 cover none.
    """
    if len(cols) == 2:
        return uncovered_scaled(*cols, w, box)
    A0, A1 = box
    xs = sorted(cols[0])
    c = A0
    for x in islice(xs, bisect_right(xs, A0 - w), None):
        if x - w >= c:
            break
        if x + w > c:
            c = x + w
            if c > A1:
                return None
    return (c,)


def decide(ps: PointSet, r: Scalar) -> tuple[bool, PlanarPoint | None]:
    """Whether some center in the domain keeps every point at distance >= r.

    True means a shell of inner radius r (width half-side minus r) exists;
    the witness center then satisfies the bound exactly.
    """
    cxs, cys, w, scale = _clip_at(ps, r)
    fr = scaled_frame(ps)
    # normalized: the heights span the longest side, centered at 0
    Z = fr.cols[-1]
    if min(Z) != -fr.half or max(Z) != fr.half:
        raise PreconditionError("point set is not normalized")
    k = scale // fr.U
    hit = uncovered_scaled(cxs, cys, w, tuple(v * k for v in fr.box))
    if hit is None:
        return (False, None)
    return (True, (Fraction(hit[0], scale), Fraction(hit[1], scale)))
