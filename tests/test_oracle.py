import random
from fractions import Fraction

import pytest

from conftest import CUBE8, pts, rand_fraction, rand_points
from cubeshell.errors import UsageError
from cubeshell.geometry import Box, center_domain, normalize
from cubeshell.oracle import (ORACLE_CAP_ENV, _Frame, _dist, _pair_pieces,
                              _roots_on_segment, _structural_pool,
                              candidate_pool, exact_oracle_2d,
                              exact_oracle_3d, grid_oracle,
                              oracle_plateau_level, oracle_voronoi_level,
                              vd_candidate_oracle)
from cubeshell.shell import inner_radius_at
from cubeshell.squares import decide

F = Fraction


class TestExactOracle3d:
    def test_cube_corners(self):
        assert exact_oracle_3d(CUBE8) == (1, (0, 0))

    def test_corners_plus_origin(self):
        psn = pts(*(CUBE8.points + ((0, 0, 0),)))
        assert exact_oracle_3d(psn) == (0, (0, 0))

    def test_center_attains_value(self, rng):
        for _ in range(10):
            psn, _ = normalize(rand_points(rng, rng.randint(3, 20)))
            rstar, c = exact_oracle_3d(psn)
            assert inner_radius_at(psn, c) == rstar
            assert center_domain(psn).box.contains(c)

    def test_threshold_sharp(self, rng):
        for _ in range(8):
            psn, _ = normalize(rand_points(rng, rng.randint(3, 16)))
            rstar, _ = exact_oracle_3d(psn)
            assert decide(psn, rstar)[0]
            assert not decide(psn, rstar + F(1, 10**9))[0]

    def test_local_maximality(self, rng):
        for _ in range(6):
            psn, _ = normalize(rand_points(rng, rng.randint(3, 14)))
            rstar, c = exact_oracle_3d(psn)
            dom = center_domain(psn)
            for _ in range(25):
                q = (c[0] + F(rng.randint(-8, 8), 64),
                     c[1] + F(rng.randint(-8, 8), 64))
                if dom.box.contains(q):
                    assert inner_radius_at(psn, q) <= rstar

    def test_large_n_refused(self, monkeypatch):
        monkeypatch.setenv(ORACLE_CAP_ENV, "10")
        psn, _ = normalize(rand_points(random.Random(1), 12))
        with pytest.raises(UsageError):
            exact_oracle_3d(psn)

    def test_cap_env_override(self, rng, monkeypatch):
        psn, _ = normalize(rand_points(rng, 12))
        monkeypatch.setenv(ORACLE_CAP_ENV, "12")
        rstar, _ = exact_oracle_3d(psn)
        assert rstar >= 0

    def test_cap_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv(ORACLE_CAP_ENV, "sixty")
        for oracle in (exact_oracle_3d, candidate_pool):
            with pytest.raises(UsageError, match=ORACLE_CAP_ENV):
                oracle(CUBE8)


class TestCandidatePool:
    def test_pool_points_stay_in_domain(self, rng):
        for _ in range(6):
            psn, _ = normalize(rand_points(rng, rng.randint(3, 12)))
            dom = center_domain(psn)
            pool = candidate_pool(psn)
            assert pool.points
            for p, tag in pool.points:
                assert dom.box.contains(p)
                assert tag in {"tripleEquidistant", "pairBisectorOnBoundary",
                               "cCorner", "plateauArrangement"}


class TestGridOracle:
    def test_point_domain_any_resolution(self):
        assert grid_oracle(CUBE8, 2) == 1
        assert grid_oracle(CUBE8, 17) == 1

    def test_resolution_two_hits_corners(self):
        psn, _ = normalize(pts((0, 0, 0), (2, 1, 4)))
        dom = center_domain(psn)
        want = max(inner_radius_at(psn, c) for c in dom.box.corners())
        assert grid_oracle(psn, 2) == want

    def test_lower_bound_tightening(self, rng):
        for _ in range(6):
            psn, _ = normalize(rand_points(rng, rng.randint(3, 16)))
            rstar, _ = exact_oracle_3d(psn)
            coarse = grid_oracle(psn, 4)
            fine = grid_oracle(psn, 16)
            assert coarse <= fine <= rstar

    def test_resolution_floor(self):
        with pytest.raises(UsageError):
            grid_oracle(CUBE8, 1)


class TestLevelOracles:
    def test_plateau_level_on_corners(self):
        assert oracle_plateau_level(CUBE8) == (1, (0, 0))

    def test_voronoi_level_on_corners(self):
        got = oracle_voronoi_level(CUBE8)
        assert got is not None and got[0] == 1

    def test_combination_reaches_optimum(self, rng):
        for _ in range(15):
            psn, _ = normalize(rand_points(rng, rng.randint(3, 22)))
            rstar, _ = exact_oracle_3d(psn)
            parts = [v[0] for v in (oracle_plateau_level(psn),
                                    oracle_voronoi_level(psn)) if v]
            assert parts and max(parts) == rstar


class TestExactOracle2d:
    def test_diamond(self):
        psn, _ = normalize(pts((1, 0), (-1, 0), (0, 1), (0, -1)))
        value, c = exact_oracle_2d(psn)
        assert value == 1

    def test_attains_value(self, rng):
        for _ in range(10):
            psn, _ = normalize(rand_points(rng, rng.randint(3, 20), dim=2))
            value, c = exact_oracle_2d(psn)
            assert inner_radius_at(psn, c) == value
            assert center_domain(psn).box.contains(c)


def _mixed_instances(rng, count):
    """Normalized 3D instances with mixed denominators, n 3 to 16."""
    for _ in range(count):
        rows = [[rand_fraction(rng, rng.choice((3, 100)), dens=(1, 2, 3, 5, 7))
                 for _ in range(3)] for _ in range(rng.randint(3, 16))]
        yield normalize(pts(*rows))[0]


def _is_int_pair(q) -> bool:
    return len(q) == 2 and all(type(c) is int for c in q)


class TestIntegerPath:
    def test_pool_keys_are_integer_points(self, rng):
        for psn in _mixed_instances(rng, 20):
            fr = _Frame(psn)
            pool = _structural_pool(fr.sites, fr.box)
            assert pool and all(_is_int_pair(q) for q in pool)

    def test_roots_are_integer_points(self, rng):
        for psn in _mixed_instances(rng, 20):
            fr = _Frame(psn)
            sites = fr.sites
            for i, a in enumerate(sites):
                for b in sites[i + 1:]:
                    for p0, p1 in _pair_pieces(a, b, fr.box):
                        for k in sites:
                            if k in (a, b):
                                continue
                            for q in _roots_on_segment(p0, p1, a, k):
                                assert _is_int_pair(q)
                                assert _dist(q, k) == _dist(q, a) == _dist(q, b)

    def test_big_integers_scale_exactly(self, rng):
        # far past 2**63: no fixed-width shortcut may change the answer
        big = 2**61
        for psn in _mixed_instances(rng, 8):
            scaled = pts(*[[c * big for c in p] for p in psn])
            value, (cx, cy) = exact_oracle_3d(psn)
            assert exact_oracle_3d(scaled) == (value * big, (cx * big, cy * big))
            level = oracle_plateau_level(psn)
            got = oracle_plateau_level(scaled)
            if level is None:
                assert got is None
            else:
                w, (wx, wy) = level
                assert got == (w * big, (wx * big, wy * big))


class TestVdCandidateOracle:
    def test_box_off_the_locations_frame(self):
        # thirds are not on the locations' integer frame; corners stay exact
        box = Box((F(1, 3), F(-1, 3)), (F(2), F(1, 3)))
        got = vd_candidate_oracle([(0, 0), (4, 1)], box)
        assert got == {(F(1, 3), F(-1, 3)), (F(1, 3), F(1, 3)),
                       (F(2), F(-1, 3)), (F(2), F(1, 3))}
