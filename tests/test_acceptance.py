"""Acceptance suite: one test per numbered criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get exactly one
PASSED/FAILED line per criterion. Each test prints a short detail line
(visible with -s or on failure).
"""

import random
import time
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from conftest import CUBE8, pts, rand_fraction, rand_points
from cubeshell.geometry import (center_domain, is_smallest_enclosing_cube,
                                normalize)
from cubeshell.oracle import (exact_oracle_2d, exact_oracle_3d,
                              union_area_brute)
from cubeshell.pointio import generate_points
from cubeshell.solver import solve1d, solve2d, solve3d
from cubeshell.squares import Square, decide, union_of_squares
from cubeshell.voronoi import build_voronoi, locate, make_sites

F = Fraction
SEED = 987654321


@pytest.fixture(scope="module")
def bank():
    """500 seeded instances solved both ways; reused by criteria 1, 3-5."""
    rng = random.Random(SEED)
    entries = []
    t0 = time.perf_counter()
    for _ in range(500):
        ps = rand_points(rng, rng.randint(3, 40))
        res = solve3d(ps)
        psn, nrm = normalize(ps)
        oracle_value, oracle_center = exact_oracle_3d(psn)
        entries.append((ps, psn, nrm, res, oracle_value))
    elapsed = time.perf_counter() - t0
    return {"entries": entries, "elapsed": elapsed}


def test_criterion_01_oracle_equivalence(bank):
    mismatches = [i for i, (_, _, _, res, want) in enumerate(bank["entries"])
                  if res.shell.inner_radius != want]
    assert mismatches == []
    assert bank["elapsed"] < 300
    print(f"criterion 1: 500/500 widths equal the brute-force oracle "
          f"exactly in {bank['elapsed']:.1f}s")


def test_criterion_02_trivial_suite():
    res = solve3d(CUBE8)
    assert res.width == 0 and res.shell.center == (0, 0, 0)
    assert res.shell.outer_radius == res.shell.inner_radius == 1

    res = solve3d(pts(*(CUBE8.points + ((0, 0, 0),))))
    assert res.width == 1 and res.shell.inner_radius == 0
    assert res.shell.center == (0, 0, 0)

    res = solve1d(pts((0,), (1,), (9,), (10,)))
    assert res.width == 1 and res.shell.center == (5,)
    assert res.shell.outer_radius == 5 and res.shell.inner_radius == 4

    res = solve1d(pts((0,), (10,), (5,)))
    assert res.width == 5 and res.shell.inner_radius == 0

    res = solve2d(pts((1, 0), (-1, 0), (0, 1), (0, -1)))
    assert res.width == 0 and res.shell.center == (0, 0)

    assert decide(CUBE8, F(1)) == (True, (0, 0))
    assert decide(CUBE8, F(3, 2)) == (False, None)
    assert exact_oracle_3d(CUBE8) == (1, (0, 0))
    print("criterion 2: trivial examples all exact")


def test_criterion_03_decision_monotone_and_sharp(bank):
    eps = F(1, 10**9)
    rng = random.Random(SEED + 3)
    for ps, psn, _, res, want in bank["entries"][:100]:
        levels = sorted(F(rng.randint(0, 4 * int(res.shell.outer_radius) + 4),
                          2) for _ in range(5))
        answers = [decide(psn, lv)[0] for lv in levels]
        assert answers == sorted(answers, reverse=True)
        assert decide(psn, want)[0]
        assert not decide(psn, want + eps)[0]
    print("criterion 3: decide monotone on 100 instances, "
          "sharp at r* vs r*+1e-9")


def test_criterion_04_outer_cube_tight_and_centered(bank):
    for ps, psn, nrm, res, _ in bank["entries"]:
        assert is_smallest_enclosing_cube(ps, res.shell.center,
                                          res.shell.outer_radius)
        dom = center_domain(psn)
        cn = nrm.apply(res.shell.center)
        assert dom.box.contains(cn[:2]) and cn[2] == 0
    print("criterion 4: all 500 outer cubes minimal, centers inside C")


def _grid_min_width(psn, res=64):
    dom = center_domain(psn)
    lo, hi = [], []
    for a, b in zip(dom.box.lo, dom.box.hi):
        s = b - a
        lo.append(a - s / 4)
        hi.append(b + s / 4)
    xs = [lo[0] + (hi[0] - lo[0]) * F(i, res) for i in range(res + 1)]
    ys = [lo[1] + (hi[1] - lo[1]) * F(j, res) for j in range(res + 1)]
    dens = {v.denominator for v in xs + ys}
    dens.update(c.denominator for p in psn for c in p)
    D = lcm(*dens)
    X = [int(v * D) for v in xs]
    Y = np.asarray([int(v * D) for v in ys], dtype=np.int64)
    P = np.asarray([[int(c * D) for c in p] for p in psn], dtype=np.int64)
    dz = np.abs(P[:, 2, None])
    best = None
    for x in X:
        dx = np.abs(P[:, 0, None] - x)
        dy = np.abs(P[:, 1, None] - Y[None, :])
        dist = np.maximum(np.maximum(dx, dy), dz)
        width = int((dist.max(axis=0) - dist.min(axis=0)).min())
        best = width if best is None else min(best, width)
    return F(best, D)


def test_criterion_05_grid_never_beats_solver(bank):
    for ps, psn, _, res, _ in bank["entries"][:100]:
        assert _grid_min_width(psn) >= res.width
    print("criterion 5: 64x64 grid over inflated C never beats the solver "
          "on 100 instances")


def test_criterion_06_union_area_and_complexity():
    rng = random.Random(SEED + 6)
    for _ in range(100):
        n = rng.randint(1, 50)
        w = F(rng.randint(1, 40), rng.choice((1, 2, 4)))
        squares = [Square((rand_fraction(rng, 60, dens=(1, 2, 4)),
                           rand_fraction(rng, 60, dens=(1, 2, 4))), w)
                   for _ in range(n)]
        ub = union_of_squares(squares)
        assert ub.area == union_area_brute(squares)
        assert len(ub.vertices) <= 16 * n
    print("criterion 6: 100 unions match the arrangement oracle exactly; "
          "vertex count <= 16n")


def test_criterion_07_voronoi_nearest_exact():
    rng = random.Random(SEED + 7)
    for _ in range(50):
        n = rng.randint(2, 100)
        locs = {(rand_fraction(rng, 80, dens=(1, 2, 4)),
                 rand_fraction(rng, 80, dens=(1, 2, 4))) for _ in range(n)}
        sites = make_sites(sorted(locs))
        vd = build_voronoi(sites)
        lo_x = min(s.location[0] for s in sites)
        hi_x = max(s.location[0] for s in sites)
        lo_y = min(s.location[1] for s in sites)
        hi_y = max(s.location[1] for s in sites)
        for _ in range(100):
            # queries inside the site bounding box stay in the frame
            q = (lo_x + (hi_x - lo_x) * F(rng.randint(0, 1024), 1024),
                 lo_y + (hi_y - lo_y) * F(rng.randint(0, 1024), 1024))
            owner = locate(vd, q)
            got = max(abs(q[0] - sites[owner].location[0]),
                      abs(q[1] - sites[owner].location[1]))
            want = min(max(abs(q[0] - s.location[0]),
                           abs(q[1] - s.location[1])) for s in sites)
            assert got == want
    print("criterion 7: 50 diagrams x 100 queries, nearest distances exact")


def test_criterion_08_equivariance():
    rng = random.Random(SEED + 8)
    for _ in range(50):
        ps = rand_points(rng, rng.randint(3, 20))
        base = solve3d(ps).width
        perm = list(range(3))
        rng.shuffle(perm)
        signs = [rng.choice((-1, 1)) for _ in range(3)]
        shift = [F(rng.randint(-200, 200), 4) for _ in range(3)]
        scale = F(rng.randint(1, 20), rng.randint(1, 5))
        moved = pts(*[[signs[j] * scale * p[perm[j]] + shift[j]
                       for j in range(3)] for p in ps])
        assert solve3d(moved).width == scale * base
    print("criterion 8: width equivariant under 50 random signed "
          "permutations, translations, scalings")


def test_criterion_09_performance_smoke():
    quarter = generate_points(25_000, 3, "uniform", seed=SEED)
    full = generate_points(100_000, 3, "uniform", seed=SEED + 1)
    t0 = time.perf_counter()
    solve3d(quarter)
    t_quarter = time.perf_counter() - t0
    t0 = time.perf_counter()
    solve3d(full)
    t_full = time.perf_counter() - t0
    assert t_full < 30
    assert t_full / t_quarter < 8
    print(f"criterion 9: n=1e5 in {t_full:.1f}s; "
          f"T(4n)/T(n) = {t_full / t_quarter:.2f} < 8")


def test_criterion_10_planar_solver():
    rng = random.Random(SEED + 10)
    for _ in range(200):
        ps = rand_points(rng, rng.randint(1, 40), dim=2)
        res = solve2d(ps)
        psn, _ = normalize(ps)
        want, _ = exact_oracle_2d(psn)
        assert res.shell.inner_radius == want
    big = generate_points(100_000, 2, "uniform", seed=SEED)
    t0 = time.perf_counter()
    solve2d(big)
    t_big = time.perf_counter() - t0
    assert t_big < 5
    print(f"criterion 10: 200 planar instances exact; n=1e5 in {t_big:.1f}s")


def test_criterion_11_diagram_regime_scaling():
    # two pins and n - 2 low points: the diagram regime decides the optimum
    timings = {}
    for low in (500, 2_000):
        ps = generate_points(low + 2, 3, "slab", seed=SEED + low)
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            res = solve3d(ps)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        assert res.case_tag in ("voronoi", "both")
        timings[low] = best
    ratio = timings[2_000] / timings[500]
    assert timings[2_000] < 5
    assert ratio < 8
    print(f"criterion 11: slab with 2,000 low sites in {timings[2_000]:.2f}s; "
          f"T(4n)/T(n) = {ratio:.2f} < 8")
