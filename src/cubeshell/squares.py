"""Coverage of the center domain by equal squares.

Slicing every forbidden ball at a trial inner radius by the center plane
yields a set of equal open squares; a center admits that radius exactly
when it avoids all of their interiors. This module builds the boundary of
such a square union and answers the coverage decision with an exact
witness, via a left-to-right sweep over elementary strips.

All sweep arithmetic runs on scaled integers; public results are rationals.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, UsageError
from .geometry import (
    CenterDomain,
    PlanarPoint,
    PointSet,
    even_scale,
    scaled_frame,
)
from .rational import Scalar


@dataclass(frozen=True)
class Square:
    """Axis-aligned square given by center and radius (half side)."""

    center: PlanarPoint
    radius: Scalar
    source_index: int | None = None

    def __post_init__(self):
        if len(self.center) != 2:
            raise PreconditionError("square center must be planar")
        if self.radius <= 0:
            raise PreconditionError("square radius must be positive")


@dataclass(frozen=True)
class UnionBoundary:
    """Boundary of a union of equal closed squares.

    ``vertices`` are the points where the boundary turns or pinches;
    ``edges`` are the maximal axis-parallel segments between them.
    ``component_count`` counts connected components of the closed union.
    """

    vertices: tuple[PlanarPoint, ...]
    edges: tuple[tuple[PlanarPoint, PlanarPoint], ...]
    component_count: int
    area: Scalar


def clip_ball(p, w: Scalar, source_index: int | None = None) -> Square | None:
    """Planar cross-section of the open ball of radius w around p.

    Empty (None) exactly when the point's height is at least w.
    """
    if w < 0:
        raise UsageError("clip radius must be nonnegative")
    if len(p) != 3:
        raise UsageError("clip_ball expects a spatial point")
    if abs(p[-1]) >= w:
        return None
    return Square((p[0], p[1]), w, source_index)


# ---------------------------------------------------------------------------
# Union boundary sweep (integer coordinates).


def _merged(intervals):
    """Merge closed intervals, joining at touch points."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1][1] = hi
        else:
            out.append([lo, hi])
    return out


def _covers(merged, a, b):
    """True when some merged interval contains [a, b]."""
    i = bisect_left(merged, [a + 1]) - 1
    if i < 0:
        i = 0
    for lo, hi in merged[i:i + 2]:
        if lo <= a and b <= hi:
            return True
    return False


def _axis_runs(sq, w):
    """Vertical boundary runs and their vertices for deduped int squares."""
    enters: dict[int, list[int]] = {}
    exits: dict[int, list[int]] = {}
    for cx, cy in sq:
        enters.setdefault(cx - w, []).append(cy)
        exits.setdefault(cx + w, []).append(cy)
    events = sorted(set(enters) | set(exits))
    active: list[int] = []
    runs = []
    vertices = set()
    for x in events:
        left = [(cy - w, cy + w) for cy in active]
        for cy in exits.get(x, ()):
            active.remove(cy)
        for cy in enters.get(x, ()):
            active.append(cy)
        right = [(cy - w, cy + w) for cy in active]
        ml = _merged(left)
        mr = _merged(right)
        ys = sorted({v for lo, hi in ml + mr for v in (lo, hi)})
        run_start = None
        prev_side = None
        for k in range(len(ys) - 1):
            a, b = ys[k], ys[k + 1]
            cl = _covers(ml, a, b)
            cr = _covers(mr, a, b)
            if cl != cr:
                if run_start is None:
                    run_start = a
                elif prev_side != cl:
                    # pinch: the covered side flips through the breakpoint
                    runs.append((x, run_start, a))
                    vertices.add((x, run_start))
                    vertices.add((x, a))
                    run_start = a
                prev_side = cl
            elif run_start is not None:
                runs.append((x, run_start, a))
                vertices.add((x, run_start))
                vertices.add((x, a))
                run_start = None
        if run_start is not None:
            runs.append((x, run_start, ys[-1]))
            vertices.add((x, run_start))
            vertices.add((x, ys[-1]))
    return runs, vertices


def _union_area(sq, w) -> int:
    """Union area of the squares by one sweep in x.

    The active y's sit sorted between two sentinels 2w beyond every
    center. A slab's covered length is the sum of min(gap, 2w) over
    adjacent y's, less 2w, so each entry or exit updates it locally.
    """
    side = 2 * w
    moves: dict[int, list[tuple[int, int]]] = {}
    for cx, cy in sq:
        moves.setdefault(cx - w, []).append((cy, 1))
        moves.setdefault(cx + w, []).append((cy, -1))
    ys = [min(y for _, y in sq) - side, max(y for _, y in sq) + side]
    covered = total = 0
    prev = min(moves)
    for x in sorted(moves):
        total += covered * (x - prev)
        prev = x
        for y, sign in moves[x]:
            i = bisect_left(ys, y)
            if sign < 0:
                ys.pop(i)
            lo, hi = ys[i - 1], ys[i]
            covered += sign * (min(y - lo, side) + min(hi - y, side)
                               - min(hi - lo, side))
            if sign > 0:
                ys.insert(i, y)
    return total


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


def union_of_squares(squares) -> UnionBoundary:
    """Boundary of the union of equal closed squares."""
    squares = list(squares)
    if not squares:
        return UnionBoundary((), (), 0, Fraction(0))
    radius = squares[0].radius
    if any(s.radius != radius for s in squares):
        raise PreconditionError("union requires equal radii")
    centers = sorted({(Fraction(s.center[0]), Fraction(s.center[1])) for s in squares})
    U = even_scale([radius, *(v for c in centers for v in c)])
    sq = [(int(x * U), int(y * U)) for x, y in centers]
    w = int(Fraction(radius) * U)

    v_runs, v_pts = _axis_runs(sq, w)
    h_runs, h_pts = _axis_runs([(cy, cx) for cx, cy in sq], w)

    def pt(x, y):
        return (Fraction(x, U), Fraction(y, U))

    vertices = {pt(x, y) for x, y in v_pts} | {pt(y, x) for x, y in h_pts}
    edges = [(pt(x, y0), pt(x, y1)) for x, y0, y1 in v_runs]
    edges += [(pt(x0, y), pt(x1, y)) for y, x0, x1 in h_runs]
    area = Fraction(_union_area(sq, w), U * U)
    return UnionBoundary(
        tuple(sorted(vertices)),
        tuple(sorted(edges)),
        _component_count(sq, w),
        area,
    )


# ---------------------------------------------------------------------------
# Exact coverage decision over the center domain.


class _Column:
    """Active square centers for one sweep strip, as a sorted y list.

    Tracks how many adjacent gaps leave an uncovered band that meets
    [Y0, Y1], so the per-strip coverage query is O(1).
    """

    __slots__ = ("ys", "w", "y0", "y1", "bad")

    def __init__(self, w, y0, y1):
        self.ys = []
        self.w = w
        self.y0 = y0
        self.y1 = y1
        self.bad = 0

    def _is_bad(self, a, b) -> bool:
        return b - a >= 2 * self.w and a + self.w <= self.y1 and b - self.w >= self.y0

    def add(self, y):
        i = bisect_left(self.ys, y)
        lo = self.ys[i - 1] if i > 0 else None
        hi = self.ys[i] if i < len(self.ys) else None
        if lo is not None and hi is not None and self._is_bad(lo, hi):
            self.bad -= 1
        if lo is not None and self._is_bad(lo, y):
            self.bad += 1
        if hi is not None and self._is_bad(y, hi):
            self.bad += 1
        self.ys.insert(i, y)

    def remove(self, y):
        i = bisect_left(self.ys, y)
        lo = self.ys[i - 1] if i > 0 else None
        hi = self.ys[i + 1] if i + 1 < len(self.ys) else None
        if lo is not None and self._is_bad(lo, y):
            self.bad -= 1
        if hi is not None and self._is_bad(y, hi):
            self.bad -= 1
        if lo is not None and hi is not None and self._is_bad(lo, hi):
            self.bad += 1
        self.ys.pop(i)

    def uncovered(self) -> bool:
        ys = self.ys
        if not ys:
            return True
        return (ys[0] - self.w >= self.y0
                or ys[-1] + self.w <= self.y1
                or self.bad > 0)

    def witness_y(self) -> int:
        ys = self.ys
        if not ys or ys[0] - self.w >= self.y0:
            return self.y0
        if ys[-1] + self.w <= self.y1:
            return ys[-1] + self.w
        for a, b in zip(ys, ys[1:]):
            if self._is_bad(a, b):
                return max(a + self.w, self.y0)
        raise AssertionError("witness requested on a covered strip")


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
    """Point of box not in any open square, or None. Even ints throughout."""
    X0, X1, Y0, Y1 = box
    cxs, cys, covered_all = _prefilter(cxs, cys, w, box)
    if covered_all:
        return None
    if not cxs:
        return (X0, Y0)
    enters: dict[int, list[int]] = {}
    exits: dict[int, list[int]] = {}
    col = _Column(w, Y0, Y1)
    for x, y in zip(cxs, cys):
        xl, xr = x - w, x + w
        if xl < X0:
            col.add(y)
        elif xl < X1:
            enters.setdefault(xl, []).append(y)
        if X0 < xr <= X1:
            exits.setdefault(xr, []).append(y)
    events = sorted({X0, X1} | set(enters) | set(exits))
    for i, x in enumerate(events):
        for y in exits.get(x, ()):
            col.remove(y)
        if col.uncovered():
            return (x, col.witness_y())
        for y in enters.get(x, ()):
            col.add(y)
        if i + 1 < len(events):
            if col.uncovered():
                return ((x + events[i + 1]) // 2, col.witness_y())
    return None


def decide(ps: PointSet, r: Scalar) -> tuple[bool, PlanarPoint | None]:
    """Whether some center in the domain keeps every point at distance >= r.

    True means a shell of inner radius r (width half-side minus r) exists;
    the witness center then satisfies the bound exactly.
    """
    if r < 0:
        raise UsageError("decision radius must be nonnegative")
    if ps.dimension != 3:
        raise UsageError("decide expects dimension 3")
    r = Fraction(r)
    fr = scaled_frame(ps, r)
    # normalized: the heights span the longest side, centered at 0
    zs = [p[-1] for p in fr.pts]
    if min(zs) != -fr.half or max(zs) != fr.half:
        raise PreconditionError("point set is not normalized")
    w = r.numerator * (fr.U // r.denominator)
    cxs, cys = [], []
    for x, y, z in fr.pts:
        if abs(z) < w:
            cxs.append(x)
            cys.append(y)
    hit = uncovered_scaled(cxs, cys, w, fr.box)
    if hit is None:
        return (False, None)
    return (True, (fr.value(hit[0]), fr.value(hit[1])))


def uncovered_witness(dom: CenterDomain, squares, w: Scalar) -> PlanarPoint | None:
    """Center in the domain outside every open square, if one exists.

    Scales the box, the square centers and w to even integers by one
    factor and runs the exact strip sweep; the uncovered set can have
    measure zero, which the sweep still sees.
    """
    squares = list(squares)
    box = dom.box
    U = even_scale([w, *box.lo, *box.hi, *(v for s in squares for v in s.center)])

    def scaled(v) -> int:
        return v.numerator * (U // v.denominator)

    hit = uncovered_scaled([scaled(s.center[0]) for s in squares],
                           [scaled(s.center[1]) for s in squares], scaled(w),
                           (scaled(box.lo[0]), scaled(box.hi[0]),
                            scaled(box.lo[1]), scaled(box.hi[1])))
    if hit is None:
        return None
    return (Fraction(hit[0], U), Fraction(hit[1], U))
