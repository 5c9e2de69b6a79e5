import random
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product, repeat
from math import ceil, floor, log, log2

import pytest
from hypothesis import given, strategies as st

from conftest import CUBE8, pts, rand_points
from cubeshell import solver
from cubeshell.errors import UnsupportedDimensionError
from cubeshell.geometry import (IntFrame, PointSet, center_domain, frame_map,
                                int_frame, is_smallest_enclosing_cube, linf_dist,
                                normalize, smallest_enclosing_box)
from cubeshell.oracle import (exact_oracle_2d, exact_oracle_3d,
                              oracle_plateau_level, oracle_voronoi_level)
from cubeshell.pointio import generate_points
from cubeshell.shell import Shell, inner_radius_at, lift, shell_encloses
from cubeshell.solver import (SolveResult, _capped, _contacts,
                              _largest_feasible, solve, solve1d, solve2d,
                              solve3d, solve_plateau_case, solve_voronoi_case)
from cubeshell.squares import uncovered_scaled
from cubeshell.voronoi import build_voronoi, make_sites, vd_candidates_in_rect

F = Fraction

coord = st.fractions(min_value=-30, max_value=30, max_denominator=8)


class TestLargestFeasible:
    """The one selection both regime searches run, against a brute force."""

    @staticmethod
    def select(rows, cut):
        """_largest_feasible under the test "candidate <= cut", and the
        candidates it tested."""
        tested = []

        def test(c):
            tested.append(c)
            return ("hit", c) if c <= cut else None

        return _largest_feasible(rows, test), tested

    @staticmethod
    def sorted_row(rng, m):
        return sorted(rng.randint(-20, 20) for _ in range(m))

    def check(self, rng, rows):
        cands = [L[j] - v for L, v, a, b in rows for j in range(a, b)]
        cut = rng.choice(cands) if cands and rng.random() < 0.5 else (
            rng.randint(-45, 45))
        (best, hit, tests), tested = self.select([list(r) for r in rows], cut)
        want = max((c for c in cands if c <= cut), default=None)
        assert best == want
        assert hit == (None if want is None else ("hit", want))
        assert tests == len(tested) and set(tested) <= set(cands)
        # each test drops at least a quarter of the candidates left
        assert tests <= (log(len(cands)) / log(4 / 3) + 1 if cands else 0)
        return tests

    def test_random_rows(self, rng):
        for _ in range(400):
            rows = []
            for _ in range(rng.randint(1, 6)):
                L = self.sorted_row(rng, rng.randint(0, 12))
                a = rng.randint(0, len(L))
                rows.append([L, rng.randint(-5, 5), a,
                             rng.randint(a, len(L))])
            self.check(rng, rows)

    def test_sorted_matrix(self, rng):
        for _ in range(300):
            L = sorted(set(self.sorted_row(rng, rng.randint(1, 15))))
            rows = [[L, L[i], i + 1, len(L)] for i in range(len(L) - 1)]
            D = self.sorted_row(rng, rng.randint(0, 6))
            self.check(rng, rows + [[D, 0, 0, len(D)]])

    def test_one_row_is_a_binary_search(self, rng):
        for m in list(range(0, 40)) + [100, 1000, 1023, 1024]:
            for _ in range(5):
                L = self.sorted_row(rng, m)
                tests = self.check(rng, [[L, 0, 0, m]])
                assert tests <= ceil(log2(m + 1))

    def test_empty_rows_run_no_test(self):
        L = [1, 2, 3]
        assert self.select([[L, 0, 2, 2], [L, 1, 3, 3]], 5) == (
            (None, None, 0), [])


class TestPlateauCase:
    def test_cube_corners(self):
        assert solve_plateau_case(CUBE8) == (1, (0, 0))

    def test_only_level_zero_feasible(self):
        psn, _ = normalize(pts((0, 0, -5), (10, 4, 5), (5, 2, 0)))
        level, witness = solve_plateau_case(psn)
        assert level == 0
        assert inner_radius_at(psn, witness) >= 0

    def test_matches_oracle_levels(self, rng):
        for _ in range(25):
            psn, _ = normalize(rand_points(rng, rng.randint(3, 30)))
            got = solve_plateau_case(psn)
            want = oracle_plateau_level(psn)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want[0]
                assert inner_radius_at(psn, got[1]) >= got[0]


class TestVoronoiCase:
    def test_cube_corners(self):
        best, count = solve_voronoi_case(CUBE8, F(1))
        assert best == (1, (0, 0)) and count >= 1

    def test_all_heights_zero(self):
        ps = pts((2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0))
        best, _ = solve_voronoi_case(ps)
        assert best == (2, (0, 0))

    def test_matches_oracle_candidates(self, rng):
        for _ in range(25):
            psn, _ = normalize(rand_points(rng, rng.randint(3, 30)))
            lev = solve_plateau_case(psn)
            got, _ = solve_voronoi_case(psn, lev[0] if lev else None)
            want = oracle_voronoi_level(psn)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want[0]
                # the reported value never overstates the envelope there,
                # and matches it exactly whenever this case is the winner
                got_phi = inner_radius_at(psn, got[1])
                assert got_phi >= got[0]
                if lev is None or got[0] >= lev[0]:
                    assert got_phi == got[0]

    def _check_against_oracles(self, ps):
        """Regime value equals the oracle's; solve3d equals the exact oracle."""
        psn, _ = normalize(ps)
        lev = solve_plateau_case(psn)
        got, sweeps = solve_voronoi_case(psn, lev[0])
        assert got[0] == oracle_voronoi_level(psn)[0]
        assert sweeps >= 1
        assert inner_radius_at(psn, got[1]) >= got[0]
        assert solve3d(ps).inner_level == exact_oracle_3d(psn)[0]
        return psn

    def test_slab_matches_oracles(self, rng):
        tags = set()
        for _ in range(20):
            ps = _slab_points(rng, rng.randint(3, 16))
            self._check_against_oracles(ps)
            tags.add(solve3d(ps).case_tag)
        assert "voronoi" in tags

    def test_duplicate_sites(self, rng):
        # coincident planar sites at different heights, and repeated points
        for _ in range(20):
            base = _slab_points(rng, rng.randint(3, 10))
            rows = list(base) + [(p[0], p[1], F(rng.randint(-2, 2), 16))
                                 for p in base.points[2:]]
            rows += rows[2:4]
            self._check_against_oracles(pts(*rows))

    def test_ties_on_a_grid(self, rng):
        for _ in range(30):
            ps = pts(*[[F(rng.randint(-3, 3), rng.choice((1, 2)))
                        for _ in range(3)] for _ in range(rng.randint(3, 16))])
            self._check_against_oracles(ps)

    def test_zero_width_box_axis(self, rng):
        # x spans as far as z, so one axis of the center box is a segment
        for _ in range(20):
            rows = [(F(-10), F(rng.randint(-5, 5)), F(-10)),
                    (F(10), F(rng.randint(-5, 5)), F(10))]
            rows += [(F(rng.randint(-20, 20), 2), F(rng.randint(-10, 10), 2),
                      F(rng.randint(-4, 4), 4))
                     for _ in range(rng.randint(1, 12))]
            psn = self._check_against_oracles(pts(*rows))
            assert center_domain(psn).degeneracy_rank >= 1

    def test_matches_diagram_scan(self, rng):
        # the diagram method this search replaced, kept as the reference
        for _ in range(20):
            ps = _slab_points(rng, rng.randint(52, 102))
            fr = int_frame(ps)
            level, _ = solve_plateau_case(fr)
            (value, center), sweeps = solve_voronoi_case(fr, level)
            low = [(fr.value(p[0]), fr.value(p[1])) for p in fr
                   if fr.value(abs(p[2])) <= level]
            assert value == _diagram_value(low, fr.domain())
            assert min(linf_dist(center, s) for s in low) == value
            # each sweep drops a quarter of the candidates left: per axis,
            # the m(m - 1)/2 site pairs and the distances to the box sides
            box = fr.domain().box
            count = 0
            for a in (0, 1):
                m = len({s[a] for s in low})
                sides = {v for s in low
                         for v in (box.hi[a] - s[a], s[a] - box.lo[a]) if v >= 0}
                count += m * (m - 1) // 2 + len(sides)
            assert sweeps <= log(count, 4 / 3) + 1

    def test_matches_reflection_search(self, rng):
        # the search over sites and their reflections in the box sides that
        # this one replaced, kept as the reference for value and center
        outside = zero_width = 0
        for k in range(2400):
            n = rng.randint(3, 20)
            ps = (_mixed_points(rng, n, 3), _grid_points(rng, n),
                  _dup_points(rng, n), _zero_width_points(rng, n),
                  _slab_points(rng, n), rand_points(rng, n))[k % 6]
            fr = int_frame(ps)
            heights = sorted({abs(z) for z in fr.cols[2]})
            level = (None, solve_plateau_case(fr)[0],
                     fr.value(rng.choice(heights)))[k % 7 % 3]
            got, _ = solve_voronoi_case(fr, level)
            assert got == _reflection_search(fr, level)
            X0, X1, Y0, Y1 = fr.box
            top = heights[-1] if level is None else level * fr.U
            outside += any(not (X0 <= x <= X1 and Y0 <= y <= Y1)
                           for x, y, z in fr if abs(z) <= top)
            zero_width += X0 == X1 or Y0 == Y1
        assert outside >= 1000 and zero_width >= 400

    def test_sweep_count_on_slabs(self):
        # the search over reflected coordinates ran 170 sweeps here
        total = sum(solve(generate_points(50, 3, "slab", s)).candidate_count
                    for s in range(1, 17))
        assert total < 170


def _slab_points(rng, n):
    """Two points pin z at +-20; the rest have |z| <= 1/8, mixed denominators."""
    def planar():
        return [F(rng.randint(-8 * q, 8 * q), q)
                for q in (rng.randint(1, 7) for _ in range(2))]

    rows = [planar() + [F(20)], planar() + [F(-20)]]
    rows += [planar() + [F(rng.randint(-2, 2), 16)] for _ in range(n - 2)]
    return pts(*rows)


def _grid_points(rng, n):
    return pts(*[[F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(3)]
                 for _ in range(n)])


def _dup_points(rng, n):
    """Repeated rows, and coincident planar sites at other heights."""
    base = _slab_points(rng, n) if rng.random() < 0.5 else _grid_points(rng, n)
    rows = list(base) + [(p[0], p[1], F(rng.randint(-2, 2), 16))
                         for p in base.points[:rng.randint(1, n)]]
    return pts(*(rows + rows[:rng.randint(1, n)]))


def _zero_width_points(rng, n):
    """x spans as far as z, so one axis of the center box is a segment."""
    rows = [(F(-10), F(rng.randint(-5, 5)), F(-10)),
            (F(10), F(rng.randint(-5, 5)), F(10))]
    rows += [(F(rng.randint(-20, 20), 2), F(rng.randint(-10, 10), 2),
              F(rng.randint(-4, 4), 4)) for _ in range(n - 2)]
    return pts(*rows)


def _reflection_search(fr, level):
    """solve_voronoi_case's value and center, from a sorted-matrix search
    over half the differences within each axis's site coordinates together
    with their reflections in the box sides."""
    X0, X1, Y0, Y1 = fr.box
    top = max(map(abs, fr.cols[2])) if level is None else floor(level * fr.U)
    low = {(x, y) for x, y, z in fr if abs(z) <= top}
    cx, cy = (X0 + X1) // 2, (Y0 + Y1) // 2
    cutoff = (min(max(abs(x - cx), abs(y - cy)) for x, y in low)
              + max(X1 - X0, Y1 - Y0))
    sites = [(x, y) for x, y in low
             if max(X0 - x, x - X1, Y0 - y, y - Y1) <= cutoff]
    xs = [x for x, _ in sites]
    ys = [y for _, y in sites]
    rows = []
    for coords, c0, c1 in ((xs, X0, X1), (ys, Y0, Y1)):
        L = sorted({v for c in coords for v in (c, 2 * c0 - c, 2 * c1 - c)})
        rows += [[L, L[i], i + 1, len(L)] for i in range(len(L) - 1)]
    lo, hit = 0, None
    while rows:
        meds = sorted((L[(a + b) // 2] - v, b - a) for L, v, a, b in rows)
        total = sum(wt for _, wt in meds)
        acc = 0
        for diff, wt in meds:
            acc += wt
            if 2 * acc >= total:
                break
        got = uncovered_scaled(xs, ys, diff // 2, fr.box)
        if got is not None:
            lo, hit = diff // 2, got
            for row in rows:
                row[2] = bisect_right(row[0], row[1] + diff, row[2], row[3])
        else:
            for row in rows:
                row[3] = bisect_left(row[0], row[1] + diff, row[2], row[3])
        rows = [row for row in rows if row[2] < row[3]]
    if hit is None:
        hit = uncovered_scaled(xs, ys, 0, fr.box)
    return fr.value(lo), (fr.value(hit[0]), fr.value(hit[1]))


def _diagram_value(low, dom):
    """Best nearest-site distance over the diagram's candidates in the box."""
    sites = make_sites(sorted(set(low)))
    vd = build_voronoi(sites, frame=dom.box)
    return max(min(linf_dist(pt, s.location) for s in sites)
               for pt, _ in vd_candidates_in_rect(vd, dom))


class TestSolve3d:
    def test_cube_corners_zero_width(self):
        res = solve3d(CUBE8)
        assert res.width == 0
        assert res.shell.center == (0, 0, 0)
        assert res.shell.outer_radius == res.shell.inner_radius == 1

    def test_corners_plus_origin(self):
        res = solve3d(pts(*(CUBE8.points + ((0, 0, 0),))))
        assert res.width == 1
        assert res.shell.inner_radius == 0
        assert res.shell.outer_radius == 1
        assert res.shell.center == (0, 0, 0)

    def test_single_point(self):
        res = solve3d(pts((3, -2, 7)))
        assert res.width == 0 and res.shell.center == (3, -2, 7)

    def test_two_points_zero_width(self):
        ps = pts((0, 0, 0), (6, 2, 4))
        res = solve3d(ps)
        assert res.width == 0
        assert shell_encloses(res.shell, ps)

    def test_matches_oracle(self, rng):
        for _ in range(40):
            ps = rand_points(rng, rng.randint(3, 30))
            res = solve3d(ps)
            psn, nrm = normalize(ps)
            want, c = exact_oracle_3d(psn)
            assert res.shell.inner_radius == want
            assert res.inner_level == want

    def test_case_values_bound_result(self, rng):
        # one tag rule in 2D and 3D: the tag names the larger regime value
        for k in range(40):
            ps = rand_points(rng, rng.randint(3, 24), dim=2 + k % 2)
            res = solve(ps)
            r1, r2 = res.plateau_value, res.voronoi_value
            assert max(r1, r2) == res.inner_level
            assert res.case_tag == ("plateau" if r1 > r2 else
                                    "voronoi" if r2 > r1 else "both")

    def test_output_structure(self, rng):
        for _ in range(15):
            ps = rand_points(rng, rng.randint(1, 20))
            res = solve3d(ps)
            psn, nrm = normalize(ps)
            dom = center_domain(psn)
            assert res.shell.outer_radius == dom.half_side
            assert shell_encloses(res.shell, ps)
            assert is_smallest_enclosing_cube(ps, res.shell.center,
                                              res.shell.outer_radius)
            cn = nrm.apply(res.shell.center)
            assert dom.box.contains(cn[:2]) and cn[2] == 0

    def test_contact_indices(self, rng):
        from cubeshell.geometry import linf_dist
        ps = rand_points(rng, 12)
        res = solve3d(ps)
        assert res.outer_contacts and res.inner_contacts
        center = res.shell.center
        for i in res.outer_contacts:
            assert linf_dist(ps.points[i], center) == res.shell.outer_radius
        for i in res.inner_contacts:
            assert linf_dist(ps.points[i], center) == res.shell.inner_radius


def _fraction_contacts(ps, center, outer_radius, inner_radius):
    dists = [linf_dist(p, center) for p in ps]
    return (tuple(i for i, d in enumerate(dists) if d == outer_radius),
            tuple(i for i, d in enumerate(dists) if d == inner_radius))


def _mixed_points(rng, n, dim):
    return pts(*[[F(rng.randint(-6 * q, 6 * q), q)
                  for q in (rng.randint(1, 7) for _ in range(dim))]
                 for _ in range(n)])


class TestContacts:
    """Integer contacts equal a Fraction recomputation on the input."""

    def test_3d_every_case_tag(self, rng):
        tags = set()
        for _ in range(60):
            ps = _mixed_points(rng, rng.randint(3, 14), 3)
            res = solve3d(ps)
            sh = res.shell
            assert (res.outer_contacts, res.inner_contacts) == _fraction_contacts(
                ps, sh.center, sh.outer_radius, sh.inner_radius)
            tags.add(res.case_tag)
        assert tags == {"plateau", "voronoi", "both"}

    def test_2d(self, rng):
        for _ in range(40):
            ps = _mixed_points(rng, rng.randint(3, 20), 2)
            res = solve2d(ps)
            sh = res.shell
            assert (res.outer_contacts, res.inner_contacts) == _fraction_contacts(
                ps, sh.center, sh.outer_radius, sh.inner_radius)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_tie_heavy(self, rng, dim):
        # nearly every point is a contact, so each radius occurs ~n times
        n = 2000

        def surface():
            # on the boundary of [-1, 1]^dim: a width-0 shell at the origin
            row = [F(rng.randint(-8, 8), 8) for _ in range(dim)]
            row[rng.randrange(dim)] = F(rng.choice((-1, 1)))
            return row

        families = (
            [[F(1, 3), F(-2), F(5)][:dim]] * n,
            [[rng.randint(-1, 1) for _ in range(dim)] for _ in range(n)],
            [[rng.randint(0, 1)] + [F(rng.randint(0, 8), 8)
                                    for _ in range(dim - 1)]
             for _ in range(n)],
            [surface() for _ in range(n)],
        )
        for rows in families:
            ps = pts(*rows)
            res = solve(ps)
            sh = res.shell
            contacts = (res.outer_contacts, res.inner_contacts)
            assert contacts == _fraction_contacts(
                ps, sh.center, sh.outer_radius, sh.inner_radius)
            assert len(contacts[0]) + len(contacts[1]) >= n
        assert res.width == 0 and len(res.inner_contacts) == n

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_brute_force(self, rng, dim):
        # coordinates in {-2..2}/2 and repeated rows: every distance is
        # shared by many points, on both sides of the center on every axis
        def surface():
            row = [F(rng.randint(-2, 2), 2) for _ in range(dim)]
            row[rng.randrange(dim)] = F(rng.choice((-1, 1)))
            return row

        kinds = set()
        for k in range(200):
            n = rng.randint(1, 14)
            if k % 3 == 0:
                # on the boundary of [-1, 1]^dim: a width-0 shell
                rows = [[F(s)] + [F(0)] * (dim - 1) for s in (-1, 1)]
                rows += [surface() for _ in range(n)]
            else:
                rows = [[F(rng.randint(-2, 2), 2) for _ in range(dim)]
                        for _ in range(n)]
            ps = pts(*(rows + rows[:rng.randint(0, len(rows))]))
            res = solve(ps)
            sh = res.shell
            assert (res.outer_contacts, res.inner_contacts) == tuple(
                _brute_at(ps, sh.center, v)
                for v in (sh.outer_radius, sh.inner_radius))
            kinds.add("width 0" if res.width == 0 else
                      "r* = 0" if sh.inner_radius == 0 else "other")
            # any center of the box and any radius, in the frame, at r = 0
            # too: the points clamped into the box, and every box corner
            fr = int_frame(ps)
            lows, highs = fr.box[0::2], fr.box[1::2]
            centers = [tuple(map(min, map(max, p[:-1], lows), highs))
                       for p in fr] + list(product(*zip(lows, highs)))
            rows = [tuple(map(fr.value, p)) for p in fr]
            for c in rng.sample(centers, min(4, len(centers))):
                c = tuple(map(fr.value, c))
                for v in (0, fr.value(fr.half), abs(rng.choice(rows)[0])):
                    assert _contacts(ps, (fr, range(len(fr))), c, v) == tuple(
                        _brute_at(rows, c + (0,), u)
                        for u in (fr.value(fr.half), v))
        assert kinds == {"width 0", "r* = 0", "other"}

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_outer_contacts_are_touched_extremes(self, rng, dim):
        # the outer contacts are read off the input's column extremes:
        # those of the height column, and on a box axis the minimum when
        # the center is at the box's high end, the maximum at its low end
        def family(k, n):
            span = rng.randint(1, 4)
            rows = [[F(rng.randint(-span, span), 2) for _ in range(dim)]
                    for _ in range(n)]
            if k == 0:
                # every axis spans the same: the box is one point
                for a in range(dim):
                    rows[rng.randrange(n)][a] = F(-span, 2)
                    rows[rng.randrange(n)][a] = F(span, 2)
            elif k == 1 and dim == 3:
                # one box axis as long as the height axis: it is degenerate
                for row in rows:
                    row[1] /= 2
                rows[0][0], rows[0][2] = F(-span, 2), F(-span, 2)
                rows[-1][0], rows[-1][2] = F(span, 2), F(span, 2)
            elif k == 2:
                # many rows on each extreme, repeated
                rows += [[F(rng.choice((-span, span)), 2) for _ in range(dim)]
                         for _ in range(n)]
                rows += rows[:n]
            return rows

        sets = [pts(*family(k % 4, rng.randint(1, 2) if k % 5 == 0
                                   else rng.randint(3, 30)))
                for k in range(150)]
        if dim == 2:
            # uniform points on a grid of 1,601 values per axis reach both
            # ends of both axes: the box is one point, at both ends at once
            sets += [generate_points(5_000, 2, "uniform", s) for s in (2, 3)]
        seen = set()
        for ps in sets:
            fr = int_frame(ps)
            res = solve(ps)
            sh = res.shell
            assert (res.outer_contacts, res.inner_contacts) == _fraction_contacts(
                ps, sh.center, sh.outer_radius, sh.inner_radius)
            lows, highs = fr.box[0::2], fr.box[1::2]
            seen.add(sum(a == b for a, b in zip(lows, highs)))
            if len(ps) == 5_000:
                assert lows == highs
            # every corner puts the center at one end of every box axis
            rows = [tuple(map(fr.value, p)) for p in fr]
            for c in product(*zip(lows, highs)):
                c = tuple(map(fr.value, c))
                for v in (0, fr.value(fr.half), abs(rng.choice(rows)[-1])):
                    assert _contacts(ps, (fr, range(len(fr))), c, v) == tuple(
                        _brute_at(rows, c + (0,), u)
                        for u in (fr.value(fr.half), v))
        assert seen == set(range(dim))


def _brute_at(ps, center, v):
    return tuple(i for i, p in enumerate(ps)
                 if max(abs(a - b) for a, b in zip(p, center)) == v)


class TestCapped:
    """Solving only the points with |z| <= B, the least cap, changes nothing."""

    def test_matches_full_frame(self, rng, monkeypatch):
        kept_fewer = 0
        for k in range(2100):
            dim = 2 + k % 2
            ps = _capped_family(rng, rng.randint(65, 400), dim, k // 2 % 7)
            kept_fewer += _check_capped(ps, monkeypatch) < len(ps)
        assert kept_fewer >= 1000

    def test_first_cut_edge_cases(self, rng, monkeypatch):
        for dim in (2, 3):
            for k in range(12):
                # one low point, always in the stride sample, among points
                # higher than its cap: exactly one row is kept
                n = rng.randint(65, 300)
                rows = [[F(rng.randint(-10, 10)) for _ in range(dim - 1)]
                        + [F(rng.choice((-100, 100)))] for _ in range(n)]
                low = n // solver.SAMPLE * rng.randrange(solver.SAMPLE)
                rows[low] = [F(0)] * (dim - 1) + [F(rng.randint(-5, 5))]
                assert _check_capped(pts(*rows), monkeypatch) == 1
                # every point on the boundary of the bounding cube: every
                # cap is the half side, so every row is kept
                rows = [[F(rng.randint(-8, 8), 8) for _ in range(dim)]
                        for _ in range(rng.randint(65, 300))]
                for i, row in enumerate(rows):
                    row[i % dim] = F(rng.choice((-1, 1)))
                ps = pts(*rows)
                assert _check_capped(ps, monkeypatch) == len(ps)
                # a slab with two pins: all but the pins are kept
                n = rng.randint(65, 300)
                rows = [[F(rng.randint(-500, 500)) for _ in range(dim - 1)]
                        + [F(rng.randint(-2, 2))] for _ in range(n - 2)]
                rows += [[F(0)] * (dim - 1) + [F(s * 1000)] for s in (-1, 1)]
                rng.shuffle(rows)
                assert _check_capped(pts(*rows), monkeypatch) == n - 2
                # SAMPLE rows: no pass; SAMPLE + 1 rows: one pass
                n = solver.SAMPLE
                ps = _capped_family(rng, n, dim, k % 7)
                assert _check_capped(ps, monkeypatch) == n
                _check_capped(_capped_family(rng, n + 1, dim, k % 7), monkeypatch)
                # an odd midpoint: the kept rows are doubled into the frame
                rows = [[F(rng.randint(-40, 40)) for _ in range(dim - 1)]
                        + [F(rng.randint(-40, 41))] for _ in range(200)]
                rows[0][-1], rows[1][-1] = F(-40), F(41)
                ps = pts(*rows)
                assert frame_map(ps).s == 2
                assert _check_capped(ps, monkeypatch) < len(ps)

    def test_frames_only_the_kept_rows(self, monkeypatch):
        # no frame and no normalized set of every row is built; the
        # spies see every IntFrame and every scaled set made
        sizes = []
        init, scaled_by = IntFrame.__init__, PointSet._scaled_by.__func__

        def frame_spy(self, U, cols, *rest):
            sizes.append(len(cols[0]))
            init(self, U, cols, *rest)

        def set_spy(cls, U, cols, lo, hi):
            sizes.append(len(cols[0]))
            return scaled_by(cls, U, cols, lo, hi)

        for d in (2, 3):
            for s in (1, 2, 3):
                ps = generate_points(20_000, d, "uniform", s)
                with monkeypatch.context() as m:
                    m.setattr(IntFrame, "__init__", frame_spy)
                    m.setattr(PointSet, "_scaled_by", classmethod(set_spy))
                    solve(ps)
                assert sizes and max(sizes) < 20_000
                sizes.clear()

    def test_plateau_search_gets_the_kept_points(self, rng, monkeypatch):
        seen = []
        search = solver.solve_plateau_case
        monkeypatch.setattr(solver, "solve_plateau_case",
                            lambda fr, heights: seen.append((fr, heights))
                            or search(fr, heights))
        # the framed rows, and as candidates every height |z| <= B: a
        # 64-point sample's least cap keeps about 64 ** (-1 / 3), a
        # quarter, of uniform heights, and a second pass fewer
        for s in (1, 2, 3):
            ps = generate_points(20_000, 3, "uniform", s)
            solve(ps)
            fr, heights = seen.pop()
            sub, _, want = _capped(ps)
            assert (fr, heights) == (sub, want)
            assert len(fr) < len(heights) < 20_000 // 4
        # at most SAMPLE points: the whole frame, no pass, own heights
        for k in range(140):
            n = 64 - k % 62
            ps = _capped_family(rng, n, 3, k % 7)
            solve(ps)
            fr, heights = seen.pop()
            assert (len(fr), heights) == (len(ps), None)
        solve(generate_points(50, 3, "slab", 1))
        fr, heights = seen.pop()
        assert (len(fr), heights) == (50, None)

    def test_searches_get_only_rows_within_reach(self, monkeypatch):
        # Each pass keeps the rows with |z| <= B that lie within B + L of
        # the box, and passes repeat while they halve the rows: here both
        # searches get 9, 2 and 1 rows, against 925, 1,901 and 4,080 when
        # a pass keeps every row with |z| <= B
        seen = []
        plateau, diagram = solver.solve_plateau_case, solver.solve_voronoi_case
        monkeypatch.setattr(solver, "solve_plateau_case",
                            lambda fr, *rest: seen.append(len(fr))
                            or plateau(fr, *rest))
        monkeypatch.setattr(solver, "solve_voronoi_case",
                            lambda fr, r1: seen.append(len(fr))
                            or diagram(fr, r1))
        for s in (1, 2, 3):
            solve(generate_points(20_000, 3, "uniform", s))
            assert len(seen) == 2 and max(seen) <= solver.SAMPLE
            seen.clear()

    def test_low_site_beyond_b_of_a_wide_box(self):
        # The box is [-20, 20]^2 (L = 40) and the origin's cap, B = 20, is
        # the least. The low site (50, 0, 0) lies 30 from the box: beyond
        # B, within B + L. No square meets the box from there at a level
        # <= B, but the diagram search keeps it (its nearest site is the
        # origin, so it keeps the sites within 0 + L of the box) and adds
        # its gap and side distance to the candidates: dropping it changes
        # candidate_count. The other rows are higher than B.
        rows = [(0, 0, 0), (50, 0, 0), (0, 0, 100), (0, 0, -100)]
        rows += [(sx * 80, sy * 80, sz * 90) for sx in (-1, 1)
                 for sy in (-1, 1) for sz in (-1, 1)]
        rows += [((7 * k) % 161 - 80, (13 * k) % 161 - 80, 95 * (-1) ** k)
                 for k in range(60)]
        ps = pts(*rows)
        fr = int_frame(ps)
        assert fr.box == (-40, 40, -40, 40)  # U = 2
        assert solve(ps) == _staged_3d(fr)
        assert _capped(ps)[1:] == ([0, 1], None)


def _check_capped(ps, monkeypatch):
    """solve(ps) equals the solve of its whole frame, with contacts by
    scan; returns how many rows ``_capped`` kept."""
    res = solve(ps)
    fr = int_frame(ps)
    if ps.dimension == 3:
        want = _staged_3d(fr)
    else:
        # solve2d with the frame left whole: no pass runs
        monkeypatch.setattr(solver, "SAMPLE", len(fr))
        want = solve2d(ps)
        monkeypatch.undo()
    assert res == want
    c = [v * fr.U for v in fr.nrm.apply(res.shell.center)[:-1]]
    assert (res.outer_contacts, res.inner_contacts) == tuple(
        _brute_at(fr, (*c, 0), v * fr.U)
        for v in (res.shell.outer_radius, res.shell.inner_radius))
    sub, idx, heights = _capped(ps)
    assert list(sub) == [tuple(fr.cols[a][i] for a in range(ps.dimension))
                         for i in idx]
    n, spans = len(fr), list(zip(fr.box[0::2], fr.box[1::2]))
    if n <= solver.SAMPLE:
        assert (list(idx), heights) == (list(range(n)), None)
    else:
        # every framed row lies in the first pass's windows, and the
        # candidates are the heights |z| <= t for some t <= B, the framed
        # rows' among them (their own when heights is None)
        B = min(map(_cap, list(fr)[::n // solver.SAMPLE], repeat(fr.box)))
        reach = B + max(a1 - a0 for a0, a1 in spans)
        assert all(abs(p[-1]) <= B and all(a0 - reach <= x <= a1 + reach
                                           for x, (a0, a1) in zip(p, spans))
                   for p in sub)
        want = sorted(abs(z) for z in fr.cols[-1] if abs(z) <= B)
        own = sorted(map(abs, sub.cols[-1]))
        got = own if heights is None else heights
        assert got == want[:len(got)] and want[len(got):][:1] != got[-1:]
        assert set(own) <= set(got)
    assert set(res.inner_contacts) <= set(idx)
    assert res.inner_level * fr.U <= min(map(_cap, fr, repeat(fr.box)))
    return len(sub)


def _cap(p, box):
    """Farthest any center of the box gets from p, in the frame."""
    offsets = [max(x - a0, a1 - x) for x, a0, a1 in zip(p, box[0::2], box[1::2])]
    return max(abs(p[-1]), *offsets)


def _staged_3d(fr):
    """solve3d from the public stages on the whole frame, contacts by scan."""
    r1, c1 = solve_plateau_case(fr)
    (r2, c2), count = solve_voronoi_case(fr, r1)
    rstar, c = (r1, c1) if r1 >= r2 else (r2, c2)
    tag = "plateau" if r1 > r2 else "voronoi" if r2 > r1 else "both"
    outer = fr.value(fr.half)
    contacts = [_brute_at(fr, (*(v * fr.U for v in c), 0), u * fr.U)
                for u in (outer, rstar)]
    shell = Shell(fr.nrm.invert(lift(c)), outer, rstar)
    return SolveResult(shell, rstar, tag, count, *contacts, r1, r2)


def _capped_family(rng, n, dim, family):
    """Mixed denominators, grid ties, a slab, heights at +-span/2, rows
    sorted by height up or down, or repeated rows; z is the last axis."""
    span = 20
    if family == 0:
        return _mixed_points(rng, n, dim)
    if family == 1:
        rows = [[F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim)]
                for _ in range(n)]
    elif family == 2:
        rows = [[F(rng.randint(-8 * span, 8 * span), 16)
                 for _ in range(dim - 1)] + [F(s * span)] for s in (-1, 1)]
        rows += [[F(rng.randint(-8 * span, 8 * span), 16)
                  for _ in range(dim - 1)] + [F(rng.randint(-2, 2), 16)]
                 for _ in range(n - 2)]
        rng.shuffle(rows)
    elif family == 3:
        rows = [[F(0)] * (dim - 1) + [F(s * span)] for s in (-1, 1)]
        rows += [[F(rng.randint(-span, span), 2) for _ in range(dim - 1)]
                 + [F(rng.choice((-span, span)), 2)] for _ in range(n - 2)]
    elif family in (4, 5):
        rows = [[F(rng.randint(-4 * span, 4 * span), 4) for _ in range(dim)]
                for _ in range(n)]
        rows.sort(key=lambda r: abs(r[-1]), reverse=family == 5)
    else:
        rows = [[F(rng.randint(-span, span), rng.choice((1, 2, 3)))
                 for _ in range(dim)] for _ in range(max(2, n // 3))]
        rows += [rng.choice(rows) for _ in range(n - len(rows))]
    return pts(*rows)


class TestSolve2d:
    def test_diamond_zero_width(self):
        res = solve2d(pts((1, 0), (-1, 0), (0, 1), (0, -1)))
        assert res.width == 0
        assert res.shell.outer_radius == res.shell.inner_radius == 1
        assert res.shell.center == (0, 0)

    def test_collinear_pair(self):
        res = solve2d(pts((0, 0), (2, 0)))
        assert res.width == 0
        assert res.shell.outer_radius == 1
        assert res.shell.center[0] == 1

    def test_matches_breakpoint_brute(self, rng):
        for _ in range(40):
            ps = rand_points(rng, rng.randint(3, 30), dim=2)
            res = solve2d(ps)
            psn, _ = normalize(ps)
            want, _ = exact_oracle_2d(psn)
            assert res.shell.inner_radius == want

    def test_output_structure(self, rng):
        for _ in range(10):
            ps = rand_points(rng, rng.randint(1, 25), dim=2)
            res = solve2d(ps)
            assert shell_encloses(res.shell, ps)
            assert is_smallest_enclosing_cube(ps, res.shell.center,
                                              res.shell.outer_radius)

    def test_matches_cone_envelope(self, rng):
        # a lower-envelope method, kept as the reference for the center,
        # radii and contacts
        for k in range(320):
            ps = _planar_points(rng, rng.randint(3, 40), k % 4)
            res = solve2d(ps)
            sh = res.shell
            got = (sh.center, sh.outer_radius, sh.inner_radius,
                   res.inner_level, res.outer_contacts, res.inner_contacts)
            assert got == _envelope_2d(ps)

    def test_runs_both_regime_searches(self, monkeypatch):
        # one solver for d = 2 and 3: no 2D copy of either regime
        seen = []
        plateau, diagram = solver.solve_plateau_case, solver.solve_voronoi_case
        monkeypatch.setattr(solver, "solve_plateau_case",
                            lambda fr, heights: seen.append("plateau")
                            or plateau(fr, heights))
        monkeypatch.setattr(solver, "solve_voronoi_case",
                            lambda fr, r1: seen.append("voronoi")
                            or diagram(fr, r1))
        res = solve2d(pts((0, 0), (4, 1), (1, 3), (3, -2), (2, 4)))
        assert seen == ["plateau", "voronoi"]
        assert res.plateau_value is not None and res.voronoi_value is not None

    def test_scaling_distinct_x(self):
        # all x's distinct, so no two points share a per-x cone
        timings = {}
        for n in (25_000, 100_000):
            ps = _distinct_x_points(random.Random(n), n)
            best = None
            for _ in range(3):
                t0 = time.perf_counter()
                solve2d(ps)
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            timings[n] = best
        assert timings[100_000] < 5
        assert timings[100_000] / timings[25_000] < 8


def _planar_points(rng, n, family):
    """Mixed denominators, grid ties, repeated rows, or a point interval."""
    if family == 0:
        rows = [[F(rng.randint(-12 * q, 12 * q), q)
                 for q in (rng.randint(1, 12) for _ in range(2))]
                for _ in range(n)]
    elif family == 1:
        rows = [[F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(2)]
                for _ in range(n)]
    elif family == 2:
        # shared x's and a handful of equal heights, then repeated rows
        rows = [[F(rng.randint(-20, 20), rng.randint(1, 12)),
                 F(rng.choice((-3, -1, 0, 1, 3)), rng.choice((1, 2)))]
                for _ in range(n)]
        rows += rows[:rng.randint(0, n)]
    else:
        # x spans as far as z, so the center interval is a single point
        rows = [[F(-10), F(-10)], [F(10), F(10)]]
        rows += [[F(rng.randint(-10 * q, 10 * q), q),
                  F(rng.randint(-10, 10), rng.randint(1, 3))]
                 for q in (rng.randint(1, 12) for _ in range(n))]
    return pts(*rows)


def _distinct_x_points(rng, n):
    xs = rng.sample(range(-10**9, 10**9), n)
    nums = [v for x in xs for v in (x, rng.randint(-10**9, 10**9))]
    return PointSet.from_ratios(nums, [1] * (2 * n), 2)


def _switch_point(xi, wi, xj, wj):
    """First position where the later cone drops to or below the earlier."""
    for t in sorted({(xi + xj) // 2, xj - wi, xi + wj}):
        if max(abs(t - xj), wj) <= max(abs(t - xi), wi):
            return t
    raise AssertionError("cone functions failed to cross")


def _envelope_2d(ps):
    """Maximum of the lower envelope of max(|c - x|, |z|) over the interval.

    Returns what solve2d reports: center, outer and inner radius, inner
    level and both contact tuples. Candidate ties go to the leftmost
    center.
    """
    fr = int_frame(ps)
    lo_c, hi_c = fr.box
    X, Z = fr.cols
    narrow = {}
    for x, z in zip(X, Z):
        narrow[x] = min(abs(z), narrow.get(x, abs(z)))
    stack = []
    for x, w in sorted(narrow.items()):
        start = None
        while stack:
            t = _switch_point(stack[-1][0], stack[-1][1], x, w)
            if stack[-1][2] is not None and t <= stack[-1][2]:
                stack.pop()
            else:
                start = t
                break
        stack.append((x, w, start))
    best_v = best_c = None
    for k, (x, w, start) in enumerate(stack):
        seg_lo = lo_c if start is None else max(lo_c, start)
        seg_hi = hi_c if k + 1 == len(stack) else min(hi_c, stack[k + 1][2])
        cands = {seg_lo, seg_hi} | {t for t in (x - w, x + w)
                                    if seg_lo <= t <= seg_hi}
        for c in sorted(cands) if seg_lo <= seg_hi else ():
            v = max(abs(c - x), w)
            if best_v is None or v > best_v or (v == best_v and c < best_c):
                best_v, best_c = v, c
    rstar, center = fr.value(best_v), (fr.value(best_c),)
    outer, inner = _contacts(ps, (fr, range(len(fr))), center, rstar)
    shell_center = fr.nrm.invert(lift(center))
    return (shell_center, fr.value(fr.half), rstar, rstar, outer, inner)


class TestSolve1d:
    def test_interval_gap(self):
        res = solve1d(pts((0,), (1,), (9,), (10,)))
        assert res.shell.center == (5,)
        assert res.shell.outer_radius == 5
        assert res.shell.inner_radius == 4
        assert res.width == 1

    def test_midpoint_point(self):
        res = solve1d(pts((0,), (10,), (5,)))
        assert res.shell.center == (5,)
        assert res.shell.inner_radius == 0 and res.width == 5

    def test_single_point(self):
        res = solve1d(pts((7,)))
        assert res.shell.center == (7,) and res.width == 0


class TestDispatch:
    def test_d3(self):
        assert solve(CUBE8).width == solve3d(CUBE8).width

    def test_d2(self):
        ps = pts((1, 0), (-1, 0), (0, 1), (0, -1))
        assert solve(ps).width == solve2d(ps).width

    def test_d1(self):
        ps = pts((0,), (1,), (9,), (10,))
        assert solve(ps).width == 1

    def test_d4_rejected(self):
        with pytest.raises(UnsupportedDimensionError):
            solve(pts((0, 0, 0, 0), (1, 1, 1, 1)))


class TestEquivariance:
    def test_signed_permutation_translation_scale(self, rng):
        for _ in range(12):
            n = rng.randint(3, 18)
            ps = rand_points(rng, n)
            base = solve3d(ps).width
            perm = list(range(3))
            rng.shuffle(perm)
            signs = [rng.choice((-1, 1)) for _ in range(3)]
            shift = [F(rng.randint(-50, 50), 2) for _ in range(3)]
            scale = F(rng.randint(1, 12), rng.randint(1, 4))
            moved = pts(*[[signs[j] * scale * p[perm[j]] + shift[j]
                           for j in range(3)] for p in ps])
            assert solve3d(moved).width == scale * base
