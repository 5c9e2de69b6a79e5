"""Planar Chebyshev nearest-site diagram with exact rational coordinates.

Cells are built one site at a time by clipping a bounding frame against
pairwise dominance regions. A dominance region is not convex, but it always
splits into at most two convex clip chains, so every cell is kept as a
small set of convex integer polygons. The one-dimensional skeleton is then
recovered by orientation cancellation: each polygon contributes signed
darts on a small family of lines (axis-parallel and 45-degree), seams
between pieces of the same cell cancel, and the survivors pair up across
cells to form the edges.

Equal-distance regions that are two-dimensional (cones of axis-aligned or
diagonal pairs) are split by the conventional tie-break lines, keeping
every edge one-dimensional; nearest-site sets reported for vertices and
candidates are recomputed by full scan, so they are exact regardless of
the tie-break assignment.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .errors import PreconditionError, UsageError
from .geometry import Box, CenterDomain, PlanarPoint, Record
from .rational import Scalar


class Site(Record):
    """Distinct planar location with the indices of the points above it."""

    __slots__ = ("location", "source_indices")

    def __init__(self, location: PlanarPoint, source_indices: tuple[int, ...]):
        self._fill(location, source_indices)


class VdVertex(Record):
    __slots__ = ("point", "nearest")

    def __init__(self, point: PlanarPoint, nearest: frozenset[int]):
        self._fill(point, nearest)


class VdEdge(Record):
    """Maximal polyline separating two cells; nearest holds that pair."""

    __slots__ = ("chain", "nearest")

    def __init__(self, chain: tuple[PlanarPoint, ...], nearest: frozenset[int]):
        self._fill(chain, nearest)


class VdCell(Record):
    __slots__ = ("site_index", "pieces")

    def __init__(self, site_index: int,
                 pieces: tuple[tuple[PlanarPoint, ...], ...]):
        self._fill(site_index, pieces)


class VoronoiDiagram(Record):
    __slots__ = ("sites", "vertices", "edges", "cells")

    def __init__(self, sites: tuple[Site, ...], vertices: tuple[VdVertex, ...],
                 edges: tuple[VdEdge, ...], cells: tuple[VdCell, ...]):
        self._fill(sites, vertices, edges, cells)

    def as_dict(self) -> dict:
        def pt(p):
            return [str(Fraction(c)) for c in p]

        return {
            "sites": [pt(s.location) for s in self.sites],
            "vertices": [{"point": pt(v.point), "nearest": sorted(v.nearest)}
                         for v in self.vertices],
            "edges": [{"chain": [pt(p) for p in e.chain], "between": sorted(e.nearest)}
                      for e in self.edges],
        }


def make_sites(locations) -> list[Site]:
    """Merge coincident planar locations, keeping all source indices."""
    merged: dict[tuple, list[int]] = {}
    for i, p in enumerate(locations):
        key = (Fraction(p[0]), Fraction(p[1]))
        merged.setdefault(key, []).append(i)
    return [Site(loc, tuple(idxs)) for loc, idxs in sorted(merged.items())]


# ---------------------------------------------------------------------------
# Integer frame plumbing.


def _apply_ops(ops, v):
    x, y = v
    for op in ops:
        if op == "swap":
            x, y = y, x
        elif op == "fx":
            x = -x
        else:
            y = -y
    return (x, y)


def _unapply_ops(ops, v):
    x, y = v
    for op in reversed(ops):
        if op == "swap":
            x, y = y, x
        elif op == "fx":
            x = -x
        else:
            y = -y
    return (x, y)


def _dom_chains(a, b):
    """Convex clip chains whose union is the dominance region of a over b.

    Each chain is a list of halfplanes (cx, cy, c) meaning cx*x + cy*y <= c.
    Complementary by construction: swapping a and b yields the closure of
    the complement, so cells tile the plane.
    """
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    mx = (a[0] + b[0]) // 2
    my = (a[1] + b[1]) // 2
    if dy == 0:
        s = 1 if dx > 0 else -1
        return [[(s, 0, s * mx)]]
    if dx == 0:
        s = 1 if dy > 0 else -1
        return [[(0, s, s * my)]]
    if abs(dx) == abs(dy):
        s = 1 if dx > 0 else -1
        if (dx > 0) == (dy > 0):
            return [[(s, s, s * (mx + my))]]
        return [[(s, -s, s * (mx - my))]]
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
        [(1, 0, cmx), (1, 1, cmx + cmy + g)],
        [(1, 1, cmx + cmy - g), (-1, 0, -cmx)],
    ]
    out = []
    for chain in canonical:
        pulled = []
        for ca, cb, cc in chain:
            na, nb = _unapply_ops(ops, (ca, cb))
            pulled.append((na, nb, cc))
        out.append(pulled)
    return out


def _clip(poly, hp):
    """Sutherland-Hodgman against cx*x + cy*y <= c. Crossings stay integral."""
    ca, cb, cc = hp
    out = []
    n = len(poly)
    for i in range(n):
        px, py = poly[i]
        qx, qy = poly[(i + 1) % n]
        fp = ca * px + cb * py - cc
        fq = ca * qx + cb * qy - cc
        if fp <= 0:
            out.append((px, py))
        if (fp < 0 < fq) or (fq < 0 < fp):
            num_x = px * fq - qx * fp
            num_y = py * fq - qy * fp
            den = fq - fp
            qx_, rx = divmod(num_x, den)
            qy_, ry = divmod(num_y, den)
            assert rx == 0 and ry == 0, "clip crossing fell off the integer grid"
            out.append((qx_, qy_))
    dedup = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _area2(poly) -> int:
    s = 0
    for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]):
        s += x0 * y1 - x1 * y0
    return s


def _dist(a, b):
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


class _Builder:
    def __init__(self, sites: list[Site], frame: Box | None):
        locs = [s.location for s in sites]
        dens = {Fraction(c).denominator for p in locs for c in p}
        self.U = 16 * lcm(*dens)
        self.pts = [(int(Fraction(p[0]) * self.U), int(Fraction(p[1]) * self.U))
                    for p in locs]
        xs = [p[0] for p in self.pts]
        ys = [p[1] for p in self.pts]
        lo = min(min(xs), min(ys))
        hi = max(max(xs), max(ys))
        span = max(hi - lo, 16)
        f0 = lo - 8 * span
        f1 = hi + 8 * span
        if frame is not None:
            f0 = min(f0, *(int(Fraction(v) * self.U) - 16 for v in frame.lo))
            f1 = max(f1, *(int(Fraction(v) * self.U) + 16 for v in frame.hi))
        f0 -= f0 % 8
        f1 += (-f1) % 8
        self.f0 = f0
        self.f1 = f1
        self.frame_poly = [(f0, f0), (f1, f0), (f1, f1), (f0, f1)]
        # coarse grid for near-to-far neighbor streaming
        m = len(self.pts)
        self.G = max(1, (hi - lo) // max(1, isqrt(m)) + 1)
        self.buckets: dict[tuple[int, int], list[int]] = {}
        for i, (x, y) in enumerate(self.pts):
            self.buckets.setdefault((x // self.G, y // self.G), []).append(i)
        self.max_ring = (hi - lo) // self.G + 2

    def _ring(self, bx, by, k):
        if k == 0:
            yield (bx, by)
            return
        for x in range(bx - k, bx + k + 1):
            yield (x, by - k)
            yield (x, by + k)
        for y in range(by - k + 1, by + k):
            yield (bx - k, y)
            yield (bx + k, y)

    def cell_pieces(self, i):
        p = self.pts[i]
        pieces = [self.frame_poly]
        radius = max(_dist(p, v) for v in self.frame_poly)
        bx, by = p[0] // self.G, p[1] // self.G
        remaining = len(self.pts) - 1
        for k in range(self.max_ring + 1):
            if remaining == 0 or (k - 1) * self.G > 2 * radius:
                break
            batch = []
            for b in self._ring(bx, by, k):
                for j in self.buckets.get(b, ()):
                    if j != i:
                        batch.append((_dist(p, self.pts[j]), j))
            batch.sort()
            remaining -= len(batch)
            for d, j in batch:
                if d > 2 * radius:
                    continue
                new = []
                for poly in pieces:
                    for chain in _dom_chains(p, self.pts[j]):
                        q = poly
                        for hp in chain:
                            q = _clip(q, hp)
                            if len(q) < 3:
                                q = []
                                break
                        if q and _area2(q) > 0:
                            new.append(q)
                pieces = new
                radius = max(_dist(p, v) for poly in pieces for v in poly)
        return pieces


def _line_key(p, q):
    if p[0] == q[0]:
        return ("v", p[0])
    if p[1] == q[1]:
        return ("h", p[1])
    if q[0] - p[0] == q[1] - p[1]:
        return ("d", p[0] - p[1])
    if q[0] - p[0] == -(q[1] - p[1]):
        return ("a", p[0] + p[1])
    raise AssertionError("dart off the four canonical directions")


def _param(key, pt):
    return pt[1] if key[0] == "v" else pt[0]


def _point_on(key, t):
    kind, c = key
    if kind == "v":
        return (c, t)
    if kind == "h":
        return (t, c)
    if kind == "d":
        return (t, t - c)
    return (t, c - t)


def build_voronoi(sites: list[Site], frame: Box | None = None) -> VoronoiDiagram:
    """Diagram over distinct sites; frame bounds the reported geometry.

    The frame is only a viewport: it is inflated well past the sites (and
    past any caller-supplied box) so every vertex is interior to it.
    """
    if not sites:
        raise UsageError("at least one site is required")
    locs = [(Fraction(s.location[0]), Fraction(s.location[1])) for s in sites]
    if len(set(locs)) != len(locs):
        raise PreconditionError("site locations must be distinct")
    b = _Builder(sites, frame)
    m = len(sites)
    all_pieces = [b.cell_pieces(i) for i in range(m)]

    claims: dict[tuple, list[tuple[int, int, int, int]]] = {}
    for i, pieces in enumerate(all_pieces):
        for poly in pieces:
            for p, q in zip(poly, poly[1:] + poly[:1]):
                key = _line_key(p, q)
                tp, tq = _param(key, p), _param(key, q)
                if tp < tq:
                    claims.setdefault(key, []).append((tp, tq, 1, i))
                else:
                    claims.setdefault(key, []).append((tq, tp, -1, i))

    frame_keys = {("v", b.f0), ("v", b.f1), ("h", b.f0), ("h", b.f1)}
    elems: dict[tuple[int, int], list[tuple[tuple, int, int]]] = {}
    for key, items in claims.items():
        cuts = sorted({t for t0, t1, _, _ in items for t in (t0, t1)})
        index = {t: k for k, t in enumerate(cuts)}
        per_cell: dict[int, list[int]] = {}
        for t0, t1, sign, cell in items:
            diff = per_cell.setdefault(cell, [0] * len(cuts))
            diff[index[t0]] += sign
            diff[index[t1]] -= sign
        nets = {}
        for cell, diff in per_cell.items():
            acc = 0
            row = []
            for v in diff[:-1]:
                acc += v
                row.append(acc)
            assert acc + diff[-1] == 0
            nets[cell] = row
        for k in range(len(cuts) - 1):
            claimants = [(cell, row[k]) for cell, row in nets.items() if row[k] != 0]
            for _, netv in claimants:
                assert abs(netv) == 1, "cell boundary traversed twice"
            if len(claimants) == 1:
                assert key in frame_keys, "unpaired boundary off the frame"
                continue
            if not claimants:
                continue
            assert len(claimants) == 2, "more than two cells share a segment"
            (c0, s0), (c1, s1) = claimants
            assert s0 + s1 == 0, "shared segment traversed the same way"
            pair = (min(c0, c1), max(c0, c1))
            elems.setdefault(pair, []).append((key, cuts[k], cuts[k + 1]))

    # vertices: endpoints where three or more cells meet
    touch: dict[tuple[int, int], set[int]] = {}
    for (i, j), segs in elems.items():
        for key, t0, t1 in segs:
            for t in (t0, t1):
                touch.setdefault(_point_on(key, t), set()).update((i, j))
    vertex_pts = {p for p, cells in touch.items() if len(cells) >= 3}

    def scan_nearest(pt_int) -> frozenset[int]:
        best = None
        out = []
        for idx, s in enumerate(b.pts):
            d = max(abs(pt_int[0] - s[0]), abs(pt_int[1] - s[1]))
            if best is None or d < best:
                best = d
                out = [idx]
            elif d == best:
                out.append(idx)
        return frozenset(out)

    U = b.U

    def out_pt(p) -> PlanarPoint:
        return (Fraction(p[0], U), Fraction(p[1], U))

    vertices = tuple(VdVertex(out_pt(p), scan_nearest(p))
                     for p in sorted(vertex_pts))

    # edges: merge elementary segments into runs, then chain runs at bends
    edges = []
    for pair in sorted(elems):
        segs = elems[pair]
        runs = []
        by_key: dict[tuple, list[tuple[int, int]]] = {}
        for key, t0, t1 in segs:
            by_key.setdefault(key, []).append((t0, t1))
        for key, ivals in by_key.items():
            ivals.sort()
            cur0, cur1 = ivals[0]
            for t0, t1 in ivals[1:]:
                if t0 == cur1 and _point_on(key, t0) not in vertex_pts:
                    cur1 = t1
                else:
                    runs.append((key, cur0, cur1))
                    cur0, cur1 = t0, t1
            runs.append((key, cur0, cur1))
        ends: dict[tuple[int, int], list[int]] = {}
        for ridx, (key, t0, t1) in enumerate(runs):
            for t in (t0, t1):
                ends.setdefault(_point_on(key, t), []).append(ridx)

        def joinable(p) -> bool:
            return p not in vertex_pts and len(ends[p]) == 2

        used = [False] * len(runs)
        for ridx in range(len(runs)):
            if used[ridx]:
                continue
            key, t0, t1 = runs[ridx]
            chain = [_point_on(key, t0), _point_on(key, t1)]
            used[ridx] = True
            for side in (0, 1):
                while True:
                    tip = chain[0] if side == 0 else chain[-1]
                    if not joinable(tip):
                        break
                    nxt = [r for r in ends[tip] if not used[r]]
                    if not nxt:
                        break
                    r = nxt[0]
                    key2, u0, u1 = runs[r]
                    a, c = _point_on(key2, u0), _point_on(key2, u1)
                    far = c if a == tip else a
                    if side == 0:
                        chain.insert(0, far)
                    else:
                        chain.append(far)
                    used[r] = True
            if chain[-1] < chain[0]:
                chain.reverse()
            edges.append(VdEdge(tuple(out_pt(p) for p in chain),
                                frozenset(pair)))
    edges.sort(key=lambda e: e.chain)

    cells = tuple(
        VdCell(i, tuple(sorted(tuple(out_pt(v) for v in poly)
                               for poly in all_pieces[i])))
        for i in range(m)
    )
    return VoronoiDiagram(tuple(sites), vertices, tuple(edges), cells)


# ---------------------------------------------------------------------------
# Queries.


def _in_convex(poly, q) -> bool:
    n = len(poly)
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        if (bx - ax) * (q[1] - ay) - (by - ay) * (q[0] - ax) < 0:
            return False
    return True


def locate(vd: VoronoiDiagram, q) -> int:
    """Index of a site whose cell contains the query point."""
    qq = (Fraction(q[0]), Fraction(q[1]))
    for cell in vd.cells:
        for poly in cell.pieces:
            if _in_convex(poly, qq):
                return cell.site_index
    raise UsageError("query point lies outside the diagram frame")


def vd_candidates_in_rect(vd: VoronoiDiagram, dom: CenterDomain):
    """Vertices in the box, edge crossings with its border, and its corners.

    Returns sorted (point, nearest-site-index-set) pairs; nearest sets are
    recomputed exactly at every reported point.
    """
    box = dom.box
    if box.dimension != 2:
        raise UsageError("candidate extraction expects a planar domain")
    x0, y0 = (Fraction(v) for v in box.lo)
    x1, y1 = (Fraction(v) for v in box.hi)
    locs = [(Fraction(s.location[0]), Fraction(s.location[1])) for s in vd.sites]

    def scan(pt) -> frozenset[int]:
        d = [max(abs(pt[0] - sx), abs(pt[1] - sy)) for sx, sy in locs]
        best = min(d)
        return frozenset(i for i, v in enumerate(d) if v == best)

    pts: set[tuple] = set()
    for v in vd.vertices:
        if x0 <= v.point[0] <= x1 and y0 <= v.point[1] <= y1:
            pts.add(v.point)
    borders = [
        ((x0, y0), (x1, y0)), ((x0, y1), (x1, y1)),
        ((x0, y0), (x0, y1)), ((x1, y0), (x1, y1)),
    ]
    for e in vd.edges:
        for p, q in zip(e.chain, e.chain[1:]):
            for bdr in borders:
                pts.update(_cross_border(p, q, bdr))
    for c in box.corners():
        pts.add(c)
    return [(p, scan(p)) for p in sorted(pts)]


def _cross_border(p, q, bdr):
    """Intersections of segment p-q (slope 0, inf, or +-1) with an
    axis-parallel border segment; collinear overlaps yield their endpoints."""
    (ax, ay), (bx, by) = bdr
    out = []
    if ay == by:
        c, lo, hi = ay, min(ax, bx), max(ax, bx)
        if p[1] == q[1]:
            if p[1] == c:
                s0, s1 = max(lo, min(p[0], q[0])), min(hi, max(p[0], q[0]))
                if s0 <= s1:
                    out += [(s0, c), (s1, c)]
        else:
            ylo, yhi = min(p[1], q[1]), max(p[1], q[1])
            if ylo <= c <= yhi:
                if p[0] == q[0]:
                    x = p[0]
                else:
                    t = (c - p[1]) / (q[1] - p[1])
                    x = p[0] + t * (q[0] - p[0])
                if lo <= x <= hi:
                    out.append((x, c))
    if ax == bx:
        c, lo, hi = ax, min(ay, by), max(ay, by)
        if p[0] == q[0]:
            if p[0] == c:
                s0, s1 = max(lo, min(p[1], q[1])), min(hi, max(p[1], q[1]))
                if s0 <= s1:
                    out += [(c, s0), (c, s1)]
        else:
            xlo, xhi = min(p[0], q[0]), max(p[0], q[0])
            if xlo <= c <= xhi:
                if p[1] == q[1]:
                    y = p[1]
                else:
                    t = (c - p[0]) / (q[0] - p[0])
                    y = p[1] + t * (q[1] - p[1])
                if lo <= y <= hi:
                    out.append((c, y))
    return out
