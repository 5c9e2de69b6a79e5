"""Independent brute-force reference solver for cross-checking.

Everything here recomputes answers from first principles: candidate points
are enumerated exhaustively (pair bisector pieces, triple equidistances,
domain corners, per-level square arrangements) and the envelope is
evaluated at each. Deliberately shares nothing with the sweep or the
Voronoi construction beyond the scalar/point primitives, so a bug there
cannot hide here.

Internally coordinates are scaled to integers, on a frame fine enough
that every enumerated candidate is an integer point too; results convert
back to exact rationals.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import PreconditionError, UsageError
from .geometry import Box, PlanarPoint, PointSet, center_domain, smallest_enclosing_box
from .rational import Scalar

ORACLE_CAP_ENV = "CUBESHELL_ORACLE_MAX_N"
_DEFAULT_CAP = 60

TAG_TRIPLE = "tripleEquidistant"
TAG_PAIR = "pairBisectorOnBoundary"
TAG_CORNER = "cCorner"
TAG_PLATEAU = "plateauArrangement"


@dataclass(frozen=True)
class CandidatePool:
    """Candidate centers with the enumeration class each came from."""

    points: tuple[tuple[PlanarPoint, str], ...]


def _check_normalized_3d(psn: PointSet):
    if psn.dimension != 3:
        raise UsageError("this oracle handles dimension 3 only")
    box = smallest_enclosing_box(psn)
    sides = box.sides
    if sides[-1] != max(sides) or box.lo[-1] + box.hi[-1] != 0:
        raise PreconditionError("point set is not normalized")


def _check_cap(psn: PointSet):
    raw = os.environ.get(ORACLE_CAP_ENV, str(_DEFAULT_CAP))
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}") from None
    if len(psn) > cap:
        raise UsageError(f"oracle refuses n > {cap} (set {ORACLE_CAP_ENV} to raise)")


def _frame_scale(values) -> int:
    """16 times the lcm of the rationals' denominators: every value scales
    to a multiple of 16, which keeps every candidate point integral."""
    return 16 * lcm(*(v.denominator for v in values))


class _Frame:
    """Integer view of a normalized instance: coordinates times U.

    ``pts`` holds (x, y, |z|) per point and ``box`` the center domain as
    (X0, X1, Y0, Y1); ``sites`` are the distinct projections, sorted.
    """

    def __init__(self, psn: PointSet):
        U = self.U = _frame_scale(c for p in psn for c in p)
        self.pts = [(int(x * U), int(y * U), abs(int(z * U))) for x, y, z in psn]
        dom = center_domain(psn).box
        self.box = (int(dom.lo[0] * U), int(dom.hi[0] * U),
                    int(dom.lo[1] * U), int(dom.hi[1] * U))
        self.sites = sorted({(x, y) for x, y, _ in self.pts})

    def to_scalar(self, v: int) -> Scalar:
        return Fraction(v, self.U)

    def point_out(self, q) -> PlanarPoint:
        return (self.to_scalar(q[0]), self.to_scalar(q[1]))


# ---------------------------------------------------------------------------
# True bisector pieces of a projected site pair. Each piece is a parametric
# run base + t*dir with dir components in {-1,0,1}, clipped to a box; all
# arithmetic stays integral because the site coordinates and the box are
# multiples of 16, so every base and every clipped end is a multiple of 8.


def _apply_ops(ops, pt):
    x, y = pt
    for op in ops:
        if op == "swap":
            x, y = y, x
        elif op == "fx":
            x = -x
        else:
            y = -y
    return (x, y)


def _unapply_ops(ops, pt):
    x, y = pt
    for op in reversed(ops):
        if op == "swap":
            x, y = y, x
        elif op == "fx":
            x = -x
        else:
            y = -y
    return (x, y)


def _clip_run(base, d, t0, t1, box):
    """Clip base + t*d, t in [t0, t1] (None = unbounded) to a box. Integral."""
    X0, X1, Y0, Y1 = box
    for b, dc, lo, hi in ((base[0], d[0], X0, X1), (base[1], d[1], Y0, Y1)):
        if dc == 0:
            if not lo <= b <= hi:
                return None
        else:
            ta = (lo - b) * dc
            tb = (hi - b) * dc
            enter, leave = min(ta, tb), max(ta, tb)
            t0 = enter if t0 is None else max(t0, enter)
            t1 = leave if t1 is None else min(t1, leave)
    if t0 is None or t1 is None or t0 > t1:
        return None
    p0 = (base[0] + t0 * d[0], base[1] + t0 * d[1])
    p1 = (base[0] + t1 * d[0], base[1] + t1 * d[1])
    return (p0, p1)


def _pair_runs(a, b):
    """Unclipped bisector pieces of two distinct planar sites (integer coords).

    Covers the full equidistant set: the zigzag for generic pairs, the whole
    diagonal line for |dx| = |dy|, and for axis-aligned pairs the midline
    segment joining the two cone apexes plus the four cone-boundary rays.
    """
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    mx = (a[0] + b[0]) // 2
    my = (a[1] + b[1]) // 2
    runs = []
    if dy == 0:
        o = abs(dx) // 2
        runs.append(((mx, my - o), (0, 1), 0, 2 * o))
        for sx in (1, -1):
            runs.append(((mx, my + o), (sx, 1), 0, None))
            runs.append(((mx, my - o), (sx, -1), 0, None))
    elif dx == 0:
        o = abs(dy) // 2
        runs.append(((mx - o, my), (1, 0), 0, 2 * o))
        for sy in (1, -1):
            runs.append(((mx + o, my), (1, sy), 0, None))
            runs.append(((mx - o, my), (-1, sy), 0, None))
    elif abs(dx) == abs(dy):
        d = (1, -1) if (dx > 0) == (dy > 0) else (1, 1)
        runs.append(((mx, my), d, None, None))
    else:
        ops = []
        cx, cy = dx, dy
        if abs(cy) > abs(cx):
            ops.append("swap")
            cx, cy = cy, cx
        if cx < 0:
            ops.append("fx")
            cx = -cx
        if cy < 0:
            ops.append("fy")
            cy = -cy
        cmx, cmy = _apply_ops(ops, (mx, my))
        g = (cx - cy) // 2
        canonical = [
            ((cmx, cmy - g), (0, 1), 0, 2 * g),
            ((cmx, cmy + g), (-1, 1), 0, None),
            ((cmx, cmy - g), (1, -1), 0, None),
        ]
        for base, d, t0, t1 in canonical:
            runs.append((_unapply_ops(ops, base), _unapply_ops(ops, d), t0, t1))
    return runs


def _pair_pieces(a, b, box):
    out = []
    for base, d, t0, t1 in _pair_runs(a, b):
        seg = _clip_run(base, d, t0, t1, box)
        if seg is not None:
            out.append(seg)
    return out


def _dist(q, s) -> int:
    return max(abs(q[0] - s[0]), abs(q[1] - s[1]))


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    assert r == 0, "frame too coarse: a root is not an integer point"
    return q


def _roots_on_segment(p0, p1, a, k):
    """Points on segment p0-p1 (within a bisector of pair containing a)
    where the distance to k equals the distance to a. Exact.

    The segment is a bisector piece, p0 + t*d for integer t in [0, L] with
    d in {-1,0,1}^2; its ends are multiples of 8 and the sites multiples of
    16, so every regime cut and every root lies at an integer t.
    """
    L = _dist(p1, p0)
    if L == 0:
        return [p0] if _dist(p0, k) == _dist(p0, a) else []
    dx = (p1[0] - p0[0]) // L
    dy = (p1[1] - p0[1]) // L
    cuts = {0, L}
    for s in (a, k):
        # regime switches of the piecewise-linear distance along the run
        ex, ey = s[0] - p0[0], s[1] - p0[1]
        if dx != 0:
            cuts.add(ex * dx)
        if dy != 0:
            cuts.add(ey * dy)
        if dx - dy != 0:
            cuts.add(_exact_div(ex - ey, dx - dy))
        if dx + dy != 0:
            cuts.add(_exact_div(ex + ey, dx + dy))
    ts = sorted(t for t in cuts if 0 <= t <= L)

    def at(t):
        return (p0[0] + t * dx, p0[1] + t * dy)

    vals = [(t, _dist(at(t), k) - _dist(at(t), a)) for t in ts]
    roots = []
    for i, (t, g) in enumerate(vals):
        if g == 0:
            roots.append(at(t))
        elif i + 1 < len(vals):
            t2, g2 = vals[i + 1]
            if (g < 0 < g2) or (g2 < 0 < g):
                roots.append(at(t + _exact_div((t2 - t) * g, g - g2)))
    return roots


def _in_box(q, box) -> bool:
    X0, X1, Y0, Y1 = box
    return X0 <= q[0] <= X1 and Y0 <= q[1] <= Y1


def _on_border(q, box) -> bool:
    X0, X1, Y0, Y1 = box
    return q[0] == X0 or q[0] == X1 or q[1] == Y0 or q[1] == Y1


# ---------------------------------------------------------------------------
# Envelope evaluation and the per-level square-arrangement scan (the
# case-(i) part of the search).


def _phi_at(pts, q) -> int:
    """Envelope value at integer point q over (x, y, |z|) triples."""
    qx, qy = q
    return min(max(abs(x - qx), abs(y - qy), z) for x, y, z in pts)


def _level_scan(fr: _Frame, stop_below: int | None):
    """Largest |z| level whose uncovered set within C is nonempty.

    Scans levels in descending order and returns (level, lex-min witness)
    in frame units, or None. ``stop_below`` prunes levels strictly smaller
    than an already-known envelope value.
    """
    X0, X1, Y0, Y1 = fr.box
    for w in sorted({z for _, _, z in fr.pts}, reverse=True):
        if stop_below is not None and w < stop_below:
            return None
        squares = {(x, y) for x, y, z in fr.pts if z < w}
        vs = sorted({v for v in (X0, X1, *(sx + e for sx, _ in squares for e in (-w, w)))
                     if X0 <= v <= X1})
        hs = sorted({v for v in (Y0, Y1, *(sy + e for _, sy in squares for e in (-w, w)))
                     if Y0 <= v <= Y1})
        for qx in vs:
            # squares whose open x-range holds qx; (qx, qy) is free iff
            # none of them also holds qy in its open y-range
            near = [sy for sx, sy in squares if abs(qx - sx) < w]
            for qy in hs:
                if all(abs(qy - sy) >= w for sy in near):
                    return (w, (qx, qy))
    return None


# ---------------------------------------------------------------------------
# Candidate pool and the oracle proper.


def _structural_pool(sites, box) -> dict[tuple[int, int], str]:
    """Corner, pair-bisector and triple-equidistant pool points (frame units).

    Returns a dict point -> tag; insertion order fixes the tag when a point
    belongs to several classes.
    """
    X0, X1, Y0, Y1 = box
    pool: dict[tuple[int, int], str] = {}
    for cx in (X0, X1):
        for cy in (Y0, Y1):
            pool.setdefault((cx, cy), TAG_CORNER)
    m = len(sites)
    pieces_by_pair: dict[tuple[int, int], list] = {}
    for i in range(m):
        for j in range(i + 1, m):
            pcs = _pair_pieces(sites[i], sites[j], box)
            if pcs:
                pieces_by_pair[(i, j)] = pcs
                for p0, p1 in pcs:
                    pool.setdefault(p0, TAG_PAIR)
                    pool.setdefault(p1, TAG_PAIR)
    for (i, j), pcs in pieces_by_pair.items():
        a = sites[i]
        for k in range(m):
            if k == i or k == j:
                continue
            c = sites[k]
            for p0, p1 in pcs:
                for q in _roots_on_segment(p0, p1, a, c):
                    if _in_box(q, box):
                        pool.setdefault(q, TAG_TRIPLE)
    return pool


def candidate_pool(psn: PointSet) -> CandidatePool:
    """All enumeration-class candidates, in exact original coordinates."""
    _check_normalized_3d(psn)
    _check_cap(psn)
    fr = _Frame(psn)
    pool = _structural_pool(fr.sites, fr.box)
    level = _level_scan(fr, None)
    if level is not None:
        pool.setdefault(level[1], TAG_PLATEAU)
    pts = tuple((fr.point_out(q), tag) for q, tag in sorted(pool.items()))
    return CandidatePool(pts)


def exact_oracle_3d(psn: PointSet) -> tuple[Scalar, PlanarPoint]:
    """Ground-truth optimum: the largest envelope value over the center
    domain together with its lexicographically smallest attaining center."""
    _check_normalized_3d(psn)
    _check_cap(psn)
    fr = _Frame(psn)
    values = {q: _phi_at(fr.pts, q) for q in _structural_pool(fr.sites, fr.box)}
    best_v = max(values.values())
    best_q = min(q for q, v in values.items() if v == best_v)
    level = _level_scan(fr, best_v)
    if level is not None:
        w, wit = level
        if w > best_v or (w == best_v and wit < best_q):
            best_v, best_q = w, wit
    return fr.to_scalar(best_v), fr.point_out(best_q)


def oracle_plateau_level(psn: PointSet) -> tuple[Scalar, PlanarPoint] | None:
    """Largest |z| level that still leaves an uncovered center, if any."""
    _check_normalized_3d(psn)
    fr = _Frame(psn)
    res = _level_scan(fr, None)
    if res is None:
        return None
    w, wit = res
    return fr.to_scalar(w), fr.point_out(wit)


def oracle_voronoi_level(psn: PointSet) -> tuple[Scalar, PlanarPoint] | None:
    """Best structural candidate over the low projections, case-(ii) mirror.

    The level part fixes which points count as low (height at most the
    largest feasible level); candidates are triple-equidistant points in C,
    pair-equidistant points on C's border, and C corners, all computed over
    the low projections only. A candidate's value is its nearest low
    projection distance, which there automatically dominates every
    relevant height.
    """
    _check_normalized_3d(psn)
    fr = _Frame(psn)
    lev = _level_scan(fr, None)
    if lev is None:
        return None
    low = sorted({(x, y) for x, y, z in fr.pts if z <= lev[0]})
    pool = _structural_pool(low, fr.box)
    cands = []
    for q, tag in pool.items():
        if tag == TAG_TRIPLE or tag == TAG_CORNER or _on_border(q, fr.box):
            cands.append(q)
    best = None
    for q in sorted(cands):
        d = min(_dist(q, s) for s in low)
        if best is None or d > best[0]:
            best = (d, q)
    return fr.to_scalar(best[0]), fr.point_out(best[1])


def grid_oracle(psn: PointSet, resolution: int) -> Scalar:
    """Max envelope value over a regular grid on C (corners included)."""
    _check_normalized_3d(psn)
    if resolution < 2:
        raise UsageError("grid resolution must be >= 2")
    fr = _Frame(psn)
    X0, X1, Y0, Y1 = fr.box
    # on a frame `steps` times finer every grid point is an integer
    steps = resolution - 1
    pts = [(x * steps, y * steps, z * steps) for x, y, z in fr.pts]
    best = max(_phi_at(pts, (X0 * steps + i * (X1 - X0), Y0 * steps + j * (Y1 - Y0)))
               for i in range(resolution) for j in range(resolution))
    return Fraction(best, steps * fr.U)


# ---------------------------------------------------------------------------
# Helpers for cross-checking other modules (still independent code paths).


def union_area_brute(squares) -> Scalar:
    """Exact union area of equal closed squares by compressed-grid coverage.

    Accepts anything with .center/.radius or (center, radius) tuples.
    """
    items = []
    for s in squares:
        c, r = (s.center, s.radius) if hasattr(s, "center") else (s[0], s[1])
        items.append((Fraction(c[0]), Fraction(c[1]), Fraction(r)))
    if not items:
        return Fraction(0)
    den = lcm(*(v.denominator for it in items for v in it))
    sq = [(int(x * den), int(y * den), int(r * den)) for x, y, r in items]
    xs = sorted({x - r for x, _, r in sq} | {x + r for x, _, r in sq})
    ys = sorted({y - r for _, y, r in sq} | {y + r for _, y, r in sq})
    total = 0
    for x0, x1 in zip(xs, xs[1:]):
        # doubled y and r of the squares over this column's midpoint
        col = [(2 * y, 2 * r) for x, y, r in sq if abs(x0 + x1 - 2 * x) <= 2 * r]
        for y0, y1 in zip(ys, ys[1:]):
            if any(abs(y0 + y1 - y2) <= r2 for y2, r2 in col):
                total += (x1 - x0) * (y1 - y0)
    return Fraction(total, den * den)


def union_vertices_brute(squares) -> frozenset:
    """Turn/pinch points of a union of equal closed squares, O(n^2).

    Candidates are square corners plus crossings of perpendicular square
    edges. Around each the four quadrant germs are classified exactly:
    a germ is covered iff a single square covers it (for axis-aligned
    boxes a union covers a germ iff some member does). A boundary point
    is a vertex unless exactly two adjacent germs are covered, which is
    a straight run.
    """
    items = []
    for s in squares:
        c, r = (s.center, s.radius) if hasattr(s, "center") else (s[0], s[1])
        items.append((Fraction(c[0]), Fraction(c[1]), Fraction(r)))
    if not items:
        return frozenset()
    den = lcm(*(v.denominator for it in items for v in it))
    sq = sorted({(int(x * den), int(y * den)) for x, y, _ in items})
    w = int(items[0][2] * den)

    cands: set[tuple[int, int]] = set()
    for cx, cy in sq:
        cands.update({(cx - w, cy - w), (cx - w, cy + w),
                      (cx + w, cy - w), (cx + w, cy + w)})
    for i, (ax, ay) in enumerate(sq):
        for bx, by in sq[i + 1:]:
            for vx in (ax - w, ax + w):
                for hy in (by - w, by + w):
                    if abs(vx - bx) <= w and abs(hy - ay) <= w:
                        cands.add((vx, hy))
            for vx in (bx - w, bx + w):
                for hy in (ay - w, ay + w):
                    if abs(vx - ax) <= w and abs(hy - by) <= w:
                        cands.add((vx, hy))

    def germ_covered(vx, vy, sx, sy) -> bool:
        for cx, cy in sq:
            if sx > 0:
                okx = cx - w <= vx < cx + w
            else:
                okx = cx - w < vx <= cx + w
            if not okx:
                continue
            if sy > 0:
                if cy - w <= vy < cy + w:
                    return True
            else:
                if cy - w < vy <= cy + w:
                    return True
        return False

    out = set()
    for vx, vy in cands:
        if not any(abs(vx - cx) <= w and abs(vy - cy) <= w for cx, cy in sq):
            continue
        g = [germ_covered(vx, vy, sx, sy)
             for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
        covered = sum(g)
        if covered in (0, 4):
            continue
        if covered == 2 and any(g[k] and g[(k + 1) % 4] for k in range(4)):
            continue
        out.add((Fraction(vx, den), Fraction(vy, den)))
    return frozenset(out)


def vd_candidate_oracle(locations, box: Box) -> frozenset:
    """Brute enumeration of nearest-equidistance candidates within a box.

    Returns the set of: triple-equidistant nearest points inside the box,
    pair-equidistant nearest points on the box border, and box corners.
    Matches the diagram-based candidate extraction on tie-free inputs.
    """
    locs = [(Fraction(p[0]), Fraction(p[1])) for p in locations]
    edges = tuple(map(Fraction, (box.lo[0], box.hi[0], box.lo[1], box.hi[1])))
    U = _frame_scale([*edges, *(v for p in locs for v in p)])
    sites = sorted({(int(x * U), int(y * U)) for x, y in locs})
    bx = tuple(int(v * U) for v in edges)

    def nearest_ok(q, members) -> bool:
        d = min(_dist(q, s) for s in sites)
        return all(_dist(q, s) == d for s in members)

    def out_point(q) -> PlanarPoint:
        return (Fraction(q[0], U), Fraction(q[1], U))

    out = {out_point((cx, cy)) for cx in bx[:2] for cy in bx[2:]}
    m = len(sites)
    for i in range(m):
        for j in range(i + 1, m):
            pcs = _pair_pieces(sites[i], sites[j], bx)
            for p0, p1 in pcs:
                for q in (p0, p1):
                    if _on_border(q, bx) and nearest_ok(q, (sites[i], sites[j])):
                        out.add(out_point(q))
                for k in range(m):
                    if k in (i, j):
                        continue
                    for q in _roots_on_segment(p0, p1, sites[i], sites[k]):
                        if _in_box(q, bx) and nearest_ok(q, (sites[i], sites[j], sites[k])):
                            out.add(out_point(q))
    return frozenset(out)


def exact_oracle_2d(psn: PointSet) -> tuple[Scalar, PlanarPoint]:
    """Breakpoint brute force for the planar problem (normalized input)."""
    if psn.dimension != 2:
        raise UsageError("this oracle handles dimension 2 only")
    # 4 * lcm: coordinates are even, so pair midpoints are integers
    U = 4 * lcm(*{c.denominator for p in psn for c in p})
    xs = [int(p[0] * U) for p in psn]
    za = [abs(int(p[1] * U)) for p in psn]
    dom = center_domain(psn).box
    A = int(dom.lo[0] * U)
    B = int(dom.hi[0] * U)
    cands = {A, B}
    for x in xs:
        for x2, z in zip(xs, za):
            cands.update((x + z, x - z, (x + x2) // 2))

    def phi(c: int) -> int:
        return min(max(abs(x - c), z) for x, z in zip(xs, za))

    # max keeps the first maximum: the smallest attaining center
    best_c = max(sorted(c for c in cands if A <= c <= B), key=phi)
    return Fraction(phi(best_c), U), (Fraction(best_c, U),)
