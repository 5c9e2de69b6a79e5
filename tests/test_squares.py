import random
import time
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import CUBE8, pts, rand_points
from cubeshell.errors import PreconditionError, UsageError
from cubeshell.geometry import center_domain, normalize
from cubeshell.oracle import (exact_oracle_3d, union_area_brute,
                              union_vertices_brute)
from cubeshell.shell import inner_radius_at
from cubeshell.squares import (Square, _Column, _component_count, _prefilter,
                               clip_ball, decide, uncovered, uncovered_scaled,
                               union_at, union_of_squares)

F = Fraction


def _sq(x, y, r) -> Square:
    return Square((F(x), F(y)), F(r))


class TestClipBall:
    def test_height_too_large(self):
        assert clip_ball((1, 2, 3), F(2)) is None

    def test_inside(self):
        sq = clip_ball((1, 2, 1), F(2))
        assert sq == Square((1, 2), F(2))

    def test_boundary_height_excluded(self):
        assert clip_ball((0, 0, 2), F(2)) is None

    def test_negative_radius_rejected(self):
        with pytest.raises(UsageError):
            clip_ball((0, 0, 0), F(-1))


class TestUnionOfSquares:
    def test_overlapping_pair_merges_to_rectangle(self):
        ub = union_of_squares([_sq(0, 0, 1), _sq(1, 0, 1)])
        assert ub.component_count == 1
        assert set(ub.vertices) == {(-1, -1), (-1, 1), (2, -1), (2, 1)}
        assert ub.area == 6

    def test_disjoint_pair(self):
        ub = union_of_squares([_sq(0, 0, 1), _sq(9, 0, 1)])
        assert ub.component_count == 2
        assert len(ub.vertices) == 8
        assert ub.area == 8

    def test_empty_input(self):
        ub = union_of_squares([])
        assert ub.vertices == () and ub.edges == ()
        assert ub.component_count == 0 and ub.area == 0

    def test_duplicates_collapse(self):
        ub = union_of_squares([_sq(0, 0, 1)] * 3)
        assert len(ub.vertices) == 4 and ub.area == 4

    def test_matches_arrangement_brute(self, rng):
        for k in range(60):
            n = rng.randint(1, 20)
            if k % 2:
                # centers at multiples of w: sides and corners touch exactly
                w = F(rng.randint(1, 10), rng.choice((1, 2)))
                sqs = [_sq(rng.randint(-8, 8) * w, rng.randint(-8, 8) * w, w)
                       for _ in range(n)]
            else:
                w = F(rng.randint(1, 30), rng.choice((1, 2, 4)))
                sqs = [_sq(F(rng.randint(-50, 50), rng.choice((1, 2))),
                           F(rng.randint(-50, 50), rng.choice((1, 2))), w)
                       for _ in range(n)]
            ub = union_of_squares(sqs)
            assert ub.area == union_area_brute(sqs)
            assert set(ub.vertices) == union_vertices_brute(sqs)
            assert (sum(abs(b[0] - a[0]) + abs(b[1] - a[1]) for a, b in ub.edges)
                    == _perimeter_brute(sqs))

    def test_area_of_a_few_hundred_squares(self, rng):
        for w in (F(3), F(15, 2)):
            sqs = [_sq(F(rng.randint(-120, 120), 2),
                       F(rng.randint(-120, 120), 2), w) for _ in range(300)]
            assert union_of_squares(sqs).area == union_area_brute(sqs)

    def test_vertex_count_linear(self, rng):
        for _ in range(10):
            n = rng.randint(5, 40)
            sqs = [_sq(rng.randint(-40, 40), rng.randint(-40, 40), 7)
                   for _ in range(n)]
            ub = union_of_squares(sqs)
            assert len(ub.vertices) <= 16 * n

    def test_edges_are_axis_parallel_and_closed(self, rng):
        sqs = [_sq(rng.randint(-20, 20), rng.randint(-20, 20), 5)
               for _ in range(12)]
        ub = union_of_squares(sqs)
        for a, b in ub.edges:
            assert (a[0] == b[0]) != (a[1] == b[1])
        degree: dict = {}
        for a, b in ub.edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert all(v % 2 == 0 for v in degree.values())

    def test_scaling(self):
        # heavily overlapping squares: every event sees most of them active
        rng = random.Random(11)
        timings = {}
        for n in (1_000, 4_000):
            sqs = [_sq(F(rng.randint(-800, 800), 8), F(rng.randint(-800, 800), 8),
                       50) for _ in range(n)]
            best = None
            for _ in range(3):
                t0 = time.perf_counter()
                union_of_squares(sqs)
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            timings[n] = best
        assert timings[4_000] < 1
        assert timings[4_000] / timings[1_000] < 8


class TestUnionAt:
    def test_matches_clipped_squares(self, rng):
        # normalized or not, with duplicate points and levels off the grid
        for k in range(300):
            ps = rand_points(rng, rng.randint(1, 20), span=20)
            ps = pts(*ps, *rng.choices(ps.points, k=rng.randint(0, 5)))
            if k % 2:
                ps, _ = normalize(ps)
            level = rng.choice((F(0), F(1, 3), F(5, 7),
                                F(rng.randint(1, 60), rng.choice((1, 3)))))
            squares = [s for s in (clip_ball(p, level) for p in ps) if s]
            assert union_at(ps, level) == (len(squares),
                                           union_of_squares(squares))

    def test_rejects_bad_input(self):
        with pytest.raises(UsageError):
            union_at(CUBE8, F(-1))
        with pytest.raises(UsageError):
            union_at(pts((0, 0), (1, 1)), F(1))


def _perimeter_brute(sqs):
    """Union perimeter: unit cell sides between covered and uncovered cells,
    with every square scaled to integer corners."""
    den = lcm(*(F(v).denominator for s in sqs for v in (*s.center, s.radius)))
    sq = [(int(s.center[0] * den), int(s.center[1] * den), int(s.radius * den))
          for s in sqs]
    x0 = min(x - r for x, _, r in sq) - 1
    y0 = min(y - r for _, y, r in sq) - 1
    x1 = max(x + r for x, _, r in sq) + 1
    y1 = max(y + r for _, y, r in sq) + 1
    cov = np.zeros((x1 - x0, y1 - y0), dtype=bool)
    for x, y, r in sq:
        cov[x - r - x0:x + r - x0, y - r - y0:y + r - y0] = True
    sides = (np.count_nonzero(cov[1:] != cov[:-1])
             + np.count_nonzero(cov[:, 1:] != cov[:, :-1]))
    return F(int(sides), den)


def _all_pairs_components(sq, w):
    """Reference count: union every pair of closed squares that meet."""
    parent = list(range(len(sq)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(sq)):
        for j in range(i + 1, len(sq)):
            if (abs(sq[i][0] - sq[j][0]) <= 2 * w
                    and abs(sq[i][1] - sq[j][1]) <= 2 * w):
                parent[find(i)] = find(j)
    return sum(1 for i in range(len(sq)) if find(i) == i)


class TestComponentCount:
    def test_matches_all_pairs(self, rng):
        # small integer grids make many squares touch at a side or corner
        for _ in range(200):
            w = rng.randint(1, 4)
            span = rng.choice((4, 12, 40))
            sq = sorted({(rng.randint(-span, span), rng.randint(-span, span))
                         for _ in range(rng.randint(1, 40))})
            assert _component_count(sq, w) == _all_pairs_components(sq, w)

    def test_touching_corners_chain(self):
        sq = [(4 * k, 4 * k) for k in range(-3, 4)]
        assert _component_count(sq, 2) == 1
        assert _component_count(sq, 1) == len(sq)

    def test_union_counts_touching_squares(self):
        ub = union_of_squares([_sq(0, 0, 1), _sq(2, 2, 1), _sq(F(9, 2), 2, 1)])
        assert ub.component_count == 2


class TestDecide:
    def test_cube_corners_at_level(self):
        # the domain is one point; below the heights no square is active
        for level in (F(1, 2), F(1)):
            assert decide(CUBE8, level) == (True, (0, 0))

    def test_cube_corners_above_level(self):
        # every corner's square contains the one-point domain
        for level in (F(3, 2), F(2)):
            assert decide(CUBE8, level) == (False, None)

    def test_negative_level_rejected(self):
        with pytest.raises(UsageError):
            decide(CUBE8, F(-1))

    def test_unnormalized_rejected(self):
        # longest axis first, then longest axis last but off center
        for ps in (pts((0, 0, 0), (4, 1, 2)), pts((0, 0, 0), (1, 2, 4))):
            with pytest.raises(PreconditionError):
                decide(ps, F(1))
        # off center by 1/10^9
        shifted = pts(*[(x, y, z + F(1, 10**9)) for x, y, z in CUBE8])
        with pytest.raises(PreconditionError):
            decide(shifted, F(1))

    def test_threshold_against_oracle(self, rng):
        eps = F(1, 10**9)
        for _ in range(12):
            psn, _ = normalize(rand_points(rng, rng.randint(3, 25)))
            rstar, _ = exact_oracle_3d(psn)
            ok, witness = decide(psn, rstar)
            assert ok and inner_radius_at(psn, witness) >= rstar
            assert decide(psn, rstar + eps) == (False, None)

    def test_monotone(self, rng):
        for _ in range(15):
            psn, _ = normalize(rand_points(rng, rng.randint(3, 20)))
            levels = sorted(F(rng.randint(0, 300), 2) for _ in range(6))
            answers = [decide(psn, lv)[0] for lv in levels]
            # once infeasible, larger levels stay infeasible
            assert answers == sorted(answers, reverse=True)

    def test_witness_soundness(self, rng):
        for _ in range(15):
            psn, _ = normalize(rand_points(rng, rng.randint(3, 20)))
            level = F(rng.randint(0, 200), 2)
            ok, witness = decide(psn, level)
            if ok:
                assert inner_radius_at(psn, witness) >= level
                dom = center_domain(psn)
                assert dom.box.contains(witness)


class TestPrefilter:
    def test_open_square_bounds_are_strict(self):
        box = (-4, 4, -2, 2)
        # sides on the box's sides leave those sides uncovered
        assert _prefilter([0], [0], 4, box) == ([0], [0], False)
        assert _prefilter([0], [0], 6, box) == ([], [], True)
        # squares that only touch the box from outside are dropped
        assert _prefilter([8, 0], [0, 6], 4, box) == ([], [], False)
        # a square filling the box's open interior misses its corners
        assert uncovered_scaled([2], [2], 2, (0, 4, 0, 4)) == (0, 0)


class TestInt64Limit:
    """The prefilter and the sweep are scale-invariant past int64."""

    def test_scaled_instance_agrees(self, rng):
        n = 612
        xs = [2 * rng.randint(-500, 500) for _ in range(n)]
        ys = [2 * rng.randint(-500, 500) for _ in range(n)]
        box = (-400, 400, -300, 500)
        # smallest even w at which the squares cover the box
        lo, hi = 0, 2000
        while hi - lo > 2:
            mid = (lo + hi) // 4 * 2
            if uncovered_scaled(xs, ys, mid, box) is None:
                hi = mid
            else:
                lo = mid
        big = 2**61
        bxs = [x * big for x in xs]
        bys = [y * big for y in ys]
        bbox = tuple(v * big for v in box)
        assert max(map(abs, xs + ys + [hi])) < 2**60
        assert max(map(abs, bxs)) >= 2**60
        for w in (lo, hi):
            kx, ky, covered = _prefilter(xs, ys, w, box)
            assert kx and not covered
            bkx, bky, bcovered = _prefilter(bxs, bys, w * big, bbox)
            assert not bcovered
            assert bkx == [x * big for x in kx] and bky == [y * big for y in ky]
            hit = uncovered_scaled(xs, ys, w, box)
            bhit = uncovered_scaled(bxs, bys, w * big, bbox)
            assert bhit == (None if hit is None else (hit[0] * big, hit[1] * big))
        assert uncovered_scaled(xs, ys, lo, box) is not None
        assert uncovered_scaled(xs, ys, hi, box) is None


def _brute_uncovered(xs, ys, w, box):
    """Uncovered points of box among the sweep's possible answers.

    The leftmost uncovered x is X0 or a square side, and at that x the
    uncovered y's are closed intervals ending at Y0, Y1 or square sides.
    """
    X0, X1, Y0, Y1 = box
    px = {v for v in (X0, X1, *(x + s for x in xs for s in (-w, w)))
          if X0 <= v <= X1}
    py = {v for v in (Y0, Y1, *(y + s for y in ys for s in (-w, w)))
          if Y0 <= v <= Y1}
    return [(a, b) for a in px for b in py
            if not any(abs(a - x) < w and abs(b - y) < w
                       for x, y in zip(xs, ys))]


class TestSweepProperty:
    def test_leftmost_uncovered_x(self, rng):
        for k in range(2400):
            span = rng.choice((3, 8, 20))
            X0, Y0 = rng.randint(-span, span), rng.randint(-span, span)
            X1 = X0 + rng.choice((0, rng.randint(0, span)))
            Y1 = Y0 + rng.choice((0, rng.randint(0, span)))
            w = rng.choice((0, rng.randint(1, span)))
            n = rng.randint(0, 10)
            xs = [rng.randint(-2 * span, 2 * span) for _ in range(n)]
            ys = [rng.randint(-2 * span, 2 * span) for _ in range(n)]
            dup = rng.randint(0, n)
            xs, ys = xs + xs[:dup], ys + ys[:dup]
            box = (X0, X1, Y0, Y1)
            if k % 5 == 0:
                big = 2**61
                xs, ys = [x * big for x in xs], [y * big for y in ys]
                w, box = w * big, tuple(v * big for v in box)
            hit = uncovered_scaled(xs, ys, w, box)
            brute = _brute_uncovered(xs, ys, w, box)
            if not brute:
                assert hit is None
                continue
            assert hit is not None
            x, y = hit
            assert box[0] <= x <= box[1] and box[2] <= y <= box[3]
            assert not any(abs(x - u) < w and abs(y - v) < w
                           for u, v in zip(xs, ys))
            assert x == min(a for a, _ in brute)


class TestIntervalDecision:
    """k = 1: the uncovered set is closed with integer ends, so an integer
    of [A0, A1] witnesses it whenever it is not empty."""

    def test_matches_integer_brute_force(self, rng):
        for k in range(3000):
            span = rng.choice((3, 8, 20))
            A0 = rng.randint(-span, span)
            A1 = A0 + rng.choice((0, rng.randint(0, span)))
            w = rng.choice((0, rng.randint(1, span)))
            xs = [rng.randint(A0 - 2 * span, A1 + 2 * span)
                  for _ in range(rng.randint(0, 10))]
            xs += xs[:rng.randint(0, len(xs))]
            rng.shuffle(xs)
            free = [c for c in range(A0, A1 + 1)
                    if not any(abs(c - x) < w for x in xs)]
            assert uncovered([xs], w, (A0, A1)) == (
                (free[0],) if free else None)

    def test_edges(self):
        # w = 0 covers nothing; an interval open at A0 leaves A0 free
        assert uncovered([[0, 5]], 0, (0, 5)) == (0,)
        assert uncovered([[-3]], 3, (0, 5)) == (0,)
        # crossing either end, unsorted, and repeated
        assert uncovered([[7, -2, 7]], 3, (0, 5)) == (1,)
        assert uncovered([[2, -2, 2, 6]], 3, (0, 5)) is None
        assert uncovered([[3]], 3, (3, 3)) is None
        assert uncovered([[0]], 3, (3, 3)) == (3,)


def _dict_sweep(cxs, cys, w, box):
    """The coverage sweep as it was before it sorted its squares: entering
    and leaving ys in dicts keyed by event x, over the sorted key set."""
    X0, X1, Y0, Y1 = box
    cxs, cys, covered_all = _prefilter(cxs, cys, w, box)
    if covered_all:
        return None
    enters, exits = {}, {}
    col = _Column(w, Y0, Y1)
    for x, y in zip(cxs, cys):
        if x - w < X0:
            col.add(y)
        elif x - w < X1:
            enters.setdefault(x - w, []).append(y)
        if X0 < x + w <= X1:
            exits.setdefault(x + w, []).append(y)
    for x in sorted({X0, X1} | set(enters) | set(exits)):
        for y in exits.get(x, ()):
            col.remove(y)
        if col.bad:
            return (x, col.witness_y())
        for y in enters.get(x, ()):
            col.add(y)
    return None


class TestSweepOrder:
    def test_any_order_gives_the_same_witness(self, rng):
        seen = {"enter at X0": 0, "leave at X1": 0, "w = 0": 0, "none": 0}
        for _ in range(2000):
            span = rng.choice((3, 8, 20))
            X0, Y0 = rng.randint(-span, span), rng.randint(-span, span)
            X1 = X0 + rng.choice((0, rng.randint(0, span)))
            Y1 = Y0 + rng.choice((0, rng.randint(0, span)))
            w = 0 if rng.random() < 0.1 else rng.randint(1, span)
            box = (X0, X1, Y0, Y1)
            n = rng.randint(0, 10)
            # squares with a side on the box's left or right side, or one
            # unit inside it, among random ones
            xs = [rng.choice((X0 + w, X1 - w, X0 - w + 1, X1 + w - 1,
                              rng.randint(-2 * span, 2 * span)))
                  for _ in range(n)]
            ys = [rng.randint(-2 * span, 2 * span) for _ in range(n)]
            want = uncovered_scaled(xs, ys, w, box)
            assert want == _dict_sweep(xs, ys, w, box)
            brute = _brute_uncovered(xs, ys, w, box)
            if want is None:
                assert not brute
                seen["none"] += 1
            else:
                assert want in brute
                assert want[0] == min(a for a, _ in brute)
            pairs = list(zip(xs, ys))
            dup = pairs + pairs[:rng.randint(0, n)]
            rng.shuffle(dup)
            for order in (pairs[::-1], rng.sample(pairs, n), dup):
                got = uncovered_scaled([x for x, _ in order],
                                       [y for _, y in order], w, box)
                assert got == want
            kept, _, _ = _prefilter(xs, ys, w, box)
            seen["enter at X0"] += X0 + w in kept and want is not None
            seen["leave at X1"] += X1 - w in kept and want is not None
            seen["w = 0"] += w == 0
        assert min(seen.values()) >= 100, seen
