import random
import time
from fractions import Fraction
from math import log

import pytest
from hypothesis import given, strategies as st

from conftest import CUBE8, pts, rand_points
from cubeshell.errors import UnsupportedDimensionError
from cubeshell.geometry import (PointSet, center_domain, int_frame,
                                is_smallest_enclosing_cube, linf_dist,
                                normalize, smallest_enclosing_box)
from cubeshell.oracle import (exact_oracle_2d, exact_oracle_3d,
                              oracle_plateau_level, oracle_voronoi_level)
from cubeshell.shell import inner_radius_at, lift, shell_encloses
from cubeshell.solver import (_contacts, solve, solve1d, solve2d, solve3d,
                              solve_plateau_case, solve_voronoi_case)
from cubeshell.voronoi import build_voronoi, make_sites, vd_candidates_in_rect

F = Fraction

coord = st.fractions(min_value=-30, max_value=30, max_denominator=8)


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
            low = [(fr.value(p[0]), fr.value(p[1])) for p in fr.pts
                   if fr.value(abs(p[2])) <= level]
            assert value == _diagram_value(low, fr.domain())
            assert min(linf_dist(center, s) for s in low) == value
            # each sweep drops a quarter of the m(m - 1) candidates left
            m = 3 * len(set(low))
            assert sweeps <= log(m * (m - 1), 4 / 3) + 2


def _slab_points(rng, n):
    """Two points pin z at +-20; the rest have |z| <= 1/8, mixed denominators."""
    def planar():
        return [F(rng.randint(-8 * q, 8 * q), q)
                for q in (rng.randint(1, 7) for _ in range(2))]

    rows = [planar() + [F(20)], planar() + [F(-20)]]
    rows += [planar() + [F(rng.randint(-2, 2), 16)] for _ in range(n - 2)]
    return pts(*rows)


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
        for _ in range(20):
            ps = rand_points(rng, rng.randint(3, 24))
            res = solve3d(ps)
            values = [v for v in (res.plateau_value, res.voronoi_value)
                      if v is not None]
            assert values
            assert max(values) == res.inner_level
            if res.case_tag == "plateau":
                assert res.plateau_value == res.inner_level
            elif res.case_tag == "voronoi":
                assert res.voronoi_value == res.inner_level
            else:
                assert res.plateau_value == res.voronoi_value

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
        # the lower-envelope method the gap scan replaced, kept as the
        # reference for the center, radii, tag and contacts
        for k in range(320):
            ps = _planar_points(rng, rng.randint(3, 40), k % 4)
            res = solve2d(ps)
            sh = res.shell
            got = (sh.center, sh.outer_radius, sh.inner_radius,
                   res.inner_level, res.case_tag, res.outer_contacts,
                   res.inner_contacts)
            assert got == _envelope_2d(ps)

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
    level, case tag and both contact tuples. Candidate ties go to the
    leftmost center.
    """
    fr = int_frame(ps)
    lo_c, hi_c = fr.box
    narrow = {}
    for x, z in fr.pts:
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
    outer, inner = _contacts(fr, center, rstar)
    heights = any(abs(fr.pts[i][1]) == best_v for i in inner)
    planar = any(abs(fr.pts[i][0] - best_c) == best_v for i in inner)
    tag = ("both" if heights and planar else
           "plateau" if heights else "voronoi")
    shell_center = fr.nrm.invert(lift(center))
    return (shell_center, fr.value(fr.half), rstar, rstar, tag, outer, inner)


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
