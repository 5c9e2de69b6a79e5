import random
from fractions import Fraction

import pytest

from conftest import rand_fraction
from cubeshell.errors import PreconditionError, UsageError
from cubeshell.geometry import Box, CenterDomain
from cubeshell.oracle import vd_candidate_oracle
from cubeshell.voronoi import (build_voronoi, locate, make_sites,
                               vd_candidates_in_rect)

F = Fraction


def _dist(a, b):
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _sites(*locs):
    return make_sites([tuple(F(c) for c in p) for p in locs])


def _rand_sites(rng, n, span=60):
    locs = {(rand_fraction(rng, span, dens=(1, 2, 4)),
             rand_fraction(rng, span, dens=(1, 2, 4))) for _ in range(n)}
    return make_sites(sorted(locs))


class TestMakeSites:
    def test_merges_coincident(self):
        sites = make_sites([(F(1), F(2)), (F(0), F(0)), (F(1), F(2))])
        assert [s.location for s in sites] == [(0, 0), (1, 2)]
        assert sites[1].source_indices == (0, 2)

    def test_distinct_required_by_builder(self):
        with pytest.raises(PreconditionError):
            build_voronoi([s for s in _sites((0, 0))] * 2)


class TestBuildVoronoi:
    def test_two_sites_vertical_bisector(self):
        vd = build_voronoi(_sites((0, 0), (2, 0)))
        assert vd.vertices == ()
        assert len(vd.edges) == 1
        assert all(p[0] == 1 for p in vd.edges[0].chain)
        assert vd.edges[0].nearest == frozenset({0, 1})

    def test_four_symmetric_sites_single_vertex(self):
        vd = build_voronoi(_sites((-1, -1), (-1, 1), (1, -1), (1, 1)))
        assert len(vd.vertices) == 1
        assert vd.vertices[0].point == (0, 0)
        assert vd.vertices[0].nearest == frozenset({0, 1, 2, 3})

    def test_single_site_owns_frame(self):
        vd = build_voronoi(_sites((3, 4)))
        assert vd.vertices == () and vd.edges == ()
        assert locate(vd, (F(3), F(17, 4))) == 0

    def test_no_sites_rejected(self):
        with pytest.raises(UsageError):
            build_voronoi([])

    def test_located_cell_is_nearest(self, rng):
        for _ in range(6):
            sites = _rand_sites(rng, 15)
            vd = build_voronoi(sites)
            lo_x = min(s.location[0] for s in sites)
            hi_x = max(s.location[0] for s in sites)
            lo_y = min(s.location[1] for s in sites)
            hi_y = max(s.location[1] for s in sites)
            for _ in range(100):
                q = (lo_x + (hi_x - lo_x) * F(rng.randint(0, 512), 512),
                     lo_y + (hi_y - lo_y) * F(rng.randint(0, 512), 512))
                owner = locate(vd, q)
                best = min(_dist(q, s.location) for s in sites)
                assert _dist(q, sites[owner].location) == best

    def test_sites_inside_own_cells(self, rng):
        sites = _rand_sites(rng, 20)
        vd = build_voronoi(sites)
        for i, s in enumerate(sites):
            assert locate(vd, s.location) == i

    def test_vertices_equidistant(self, rng):
        for _ in range(4):
            sites = _rand_sites(rng, 18)
            vd = build_voronoi(sites)
            for v in vd.vertices:
                assert len(v.nearest) >= 3
                dists = {_dist(v.point, sites[i].location) for i in v.nearest}
                assert len(dists) == 1
                d = dists.pop()
                assert all(_dist(v.point, s.location) >= d for s in sites)

    def test_linear_complexity(self, rng):
        for n in (10, 25, 50):
            sites = _rand_sites(rng, n)
            vd = build_voronoi(sites)
            assert len(vd.vertices) + len(vd.edges) <= 16 * len(sites)

    def test_edge_chains_equidistant_between_pair(self, rng):
        sites = _rand_sites(rng, 12)
        vd = build_voronoi(sites)
        assert vd.edges
        for e in vd.edges:
            assert len(e.nearest) >= 2
            for p in e.chain:
                dset = {_dist(p, sites[i].location) for i in e.nearest}
                assert len(dset) == 1


class TestOddDenominators:
    """Sites with denominator 3, and queries and boxes with denominators
    5 and 7, where the other tests use powers of 2: a query's own lcm
    then has factors that the diagram's scale lacks."""

    def _coord(self, rng, span):
        return rand_fraction(rng, span, dens=(5, 7))

    def _sites(self, rng, n):
        return make_sites(sorted({(rand_fraction(rng, 30, dens=(3,)),
                                   rand_fraction(rng, 30, dens=(3,)))
                                  for _ in range(n)}))

    def test_locate_is_nearest(self, rng):
        for _ in range(6):
            sites = self._sites(rng, 14)
            locs = [s.location for s in sites]
            vd = build_voronoi(sites)
            queries = [v.point for v in vd.vertices]
            for e in vd.edges:  # just off an edge, over 5 in x and 7 in y
                (ax, ay), (bx, by) = e.chain[:2]
                queries += [((ax + bx) / 2 + F(i, 320), (ay + by) / 2 + F(j, 448))
                            for i in (-1, 1) for j in (-1, 1)]
            for _ in range(60):
                a, b = rng.choice(locs), rng.choice(locs)
                queries += [(a[0], b[1]), (a[0], self._coord(rng, 30)),
                            (self._coord(rng, 30), b[1]),
                            (self._coord(rng, 30), self._coord(rng, 30))]
            for q in queries:
                best = min(_dist(q, s) for s in locs)
                assert _dist(q, locs[locate(vd, q)]) == best

    def test_candidates_reach_oracle_objective(self, rng):
        for k in range(6):
            sites = self._sites(rng, 12)
            locs = [s.location for s in sites]
            xs = sorted(self._coord(rng, 25) for _ in range(2))
            ys = sorted(self._coord(rng, 25) for _ in range(2))
            if k % 3 == 2:  # a segment box
                ys[1] = ys[0]
            box = Box((xs[0], ys[0]), (xs[1], ys[1]))
            vd = build_voronoi(sites, frame=box if k % 2 else None)
            cands = vd_candidates_in_rect(vd, CenterDomain(F(10), box, 0))

            def best(p):
                return min(_dist(p, s) for s in locs)
            for p, near in cands:
                assert box.contains(p)
                assert near == {i for i, s in enumerate(locs)
                                if _dist(p, s) == best(p)}
            want = vd_candidate_oracle(locs, box)
            assert max(best(p) for p, _ in cands) == max(map(best, want))


class TestVdCandidatesInRect:
    def test_symmetric_sites_in_square_domain(self):
        vd = build_voronoi(_sites((-1, -1), (-1, 1), (1, -1), (1, 1)))
        dom = CenterDomain(F(3), Box((F(-2), F(-2)), (F(2), F(2))), 0)
        got = {p for p, _ in vd_candidates_in_rect(vd, dom)}
        assert got == {(0, 0), (2, 0), (-2, 0), (0, 2), (0, -2),
                       (2, 2), (2, -2), (-2, 2), (-2, -2)}

    def test_degenerate_point_domain(self):
        vd = build_voronoi(_sites((-1, -1), (-1, 1), (1, -1), (1, 1)))
        dom = CenterDomain(F(3), Box((F(1, 2), F(1, 3)), (F(1, 2), F(1, 3))), 2)
        cands = vd_candidates_in_rect(vd, dom)
        assert [p for p, _ in cands] == [(F(1, 2), F(1, 3))]

    def test_candidate_nearest_sets_are_tight(self, rng):
        sites = _rand_sites(rng, 10)
        vd = build_voronoi(sites)
        dom = CenterDomain(F(10), Box((F(-20), F(-20)), (F(20), F(20))), 0)
        for p, near in vd_candidates_in_rect(vd, dom):
            best = min(_dist(p, s.location) for s in sites)
            assert all(_dist(p, sites[i].location) == best for i in near)

    def test_matches_brute_enumeration(self, rng):
        # Coordinate ties between sites make the equidistance locus fatten
        # into segments, and the two constructions may then pick different
        # representative points on it.  What both must deliver is the same
        # maximum of the nearest-site distance over the rectangle, so the
        # cross-check compares objective values, not raw point sets.
        for _ in range(8):
            sites = _rand_sites(rng, 15)
            locs = [s.location for s in sites]
            xs = sorted(rand_fraction(rng, 40) for _ in range(2))
            ys = sorted(rand_fraction(rng, 40) for _ in range(2))
            box = Box((xs[0], ys[0]), (xs[1], ys[1]))
            vd = build_voronoi(sites, frame=box)
            dom = CenterDomain(F(10), box, 0)
            got = {p for p, _ in vd_candidates_in_rect(vd, dom)}
            want = vd_candidate_oracle(locs, box)
            corners = {(x, y) for x in (box.lo[0], box.hi[0])
                       for y in (box.lo[1], box.hi[1])}
            assert corners <= got and corners <= want

            def best(p):
                return min(_dist(p, s) for s in locs)
            assert max(map(best, got)) == max(map(best, want))
