import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import CUBE8, pts, rand_points
from cubeshell.errors import PreconditionError, UsageError
from cubeshell.geometry import Box, CenterDomain, center_domain, normalize
from cubeshell.oracle import (exact_oracle_3d, union_area_brute,
                              union_vertices_brute)
from cubeshell.shell import inner_radius_at
from cubeshell.squares import (Square, _component_count, _prefilter,
                               clip_ball, decide, uncovered_scaled,
                               uncovered_witness, union_of_squares)

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
        for _ in range(30):
            n = rng.randint(1, 20)
            w = F(rng.randint(1, 30), rng.choice((1, 2, 4)))
            sqs = [_sq(F(rng.randint(-50, 50), rng.choice((1, 2))),
                       F(rng.randint(-50, 50), rng.choice((1, 2))), w)
                   for _ in range(n)]
            ub = union_of_squares(sqs)
            assert ub.area == union_area_brute(sqs)
            assert set(ub.vertices) == union_vertices_brute(sqs)

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


class TestUncoveredWitness:
    def test_open_interior_misses_corner(self):
        dom = CenterDomain(F(5), Box((F(0), F(0)), (F(2), F(2))), 0)
        assert uncovered_witness(dom, [_sq(1, 1, 1)], F(1)) == (0, 0)

    def test_point_domain_feasible(self):
        dom = center_domain(CUBE8)
        squares = [s for s in (clip_ball(p, F(1, 2)) for p in CUBE8) if s]
        assert uncovered_witness(dom, squares, F(1, 2)) == (0, 0)

    def test_point_domain_covered(self):
        dom = center_domain(CUBE8)
        squares = [s for s in (clip_ball(p, F(2)) for p in CUBE8) if s]
        assert uncovered_witness(dom, squares, F(2)) is None


class TestDecide:
    def test_cube_corners_at_level(self):
        assert decide(CUBE8, F(1)) == (True, (0, 0))

    def test_cube_corners_above_level(self):
        assert decide(CUBE8, F(3, 2)) == (False, None)

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
