"""Fingerprint the solver's answers on fixed seeded banks.

    python3 tools/answer_bank.py SRC

SRC is the ``src`` directory of a checkout, and the package is imported
from there. Run it on two checkouts: they give the same answers on the
banks exactly when they print the same lines. Each line names a bank,
the number of answers in it and the first 16 hex digits of one sha256
over the answers in order. An answer is the ``repr`` of a result (a
``SolveResult``, or a diagram's records and query answers), or the
standard output of ``cubeshell solve FILE``, or the name of the error
raised. The banks:

- ``random-1d``, ``random-2d``, ``random-3d``: 1,000 small sets each, in
  turn with mixed denominators, on a small integer grid (many ties), as
  a slab pinned by two far points, and with repeated rows;
- ``capped-2d``, ``capped-3d``: 210 sets each of 65 to 400 points, in
  turn with mixed denominators, on a coarse grid, as a pinned slab, at
  heights +-h/2 under two pins, sorted by height up or down, and with
  repeated rows; their planar axes span half to twice the height axis,
  so each solve runs a cap pass, on wide and on narrow center boxes;
- ``voronoi``: 60 nearest-site diagrams of 1 to 30 sites, with site
  denominators in turn from {1, 2, 4}, {1, 3, 7} and {1, 2, 4, 8}, every
  other one built on a frame box; for each its ``as_dict()``, vertices and
  edges, the ``vd_candidates_in_rect`` lists over three boxes (one a
  point, one a segment), and the ``locate`` owners on 100 queries: random
  points, points on site coordinate lines, vertices, edge points and
  points outside the frame;
- ``large``: ``generate_points`` uniform at 20,000 and slab at 3,000
  points, in 2D and 3D, seeds 1 and 2;
- ``timed-W``: the sixteen timed instances of benchmark workload W for
  seeds 1 and 2, made by ``perfbench/workloads.py``;
- ``cli-W``: ``cubeshell solve`` on those instances' files;
- ``cli-gen``: ``cubeshell solve`` on ``gen --n 100000 --seed 1`` uniform
  2D, uniform 3D and slab 3D.

A run takes well under a minute. It writes its files to a temporary
directory and no bytecode.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]


def _answer(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:  # an error is an answer too
        return type(exc).__name__


def _random_rows(rng: random.Random, family: int, d: int):
    n = rng.randint(1, 40)
    if family == 0:  # mixed denominators
        def coord():
            q = rng.randint(1, 12)
            return Fraction(rng.randint(-50 * q, 50 * q), q)
        return [[coord() for _ in range(d)] for _ in range(n)]
    if family == 1:  # a small integer grid: ties everywhere
        return [[Fraction(rng.randint(-3, 3)) for _ in range(d)]
                for _ in range(n)]
    if family == 2:  # a slab: two far pins, the rest low
        rows = [[Fraction(rng.randint(-40, 40), 4) for _ in range(d - 1)]
                + [Fraction(rng.randint(-2, 2), 8)] for _ in range(n)]
        rows += [[Fraction(0)] * (d - 1) + [Fraction(s * 50)] for s in (1, -1)]
        rng.shuffle(rows)
        return rows
    base = [[Fraction(rng.randint(-20, 20), rng.randint(1, 3))
             for _ in range(d)] for _ in range(rng.randint(1, 6))]
    return [list(rng.choice(base)) for _ in range(n)]


def _capped_rows(rng: random.Random, family: int, d: int):
    """65 to 400 rows, more than the solver's cap sample, so every set runs
    a cap pass; the planar axes span half to twice the height axis, so the
    center box is wide or narrow and many points lie outside it."""
    n = rng.randint(65, 400)
    h = 20  # the height axis spans [-h, h]
    w = rng.randint(h // 2, 2 * h)  # the planar axes span [-w, w]

    def planar(q):
        return [Fraction(rng.randint(-w * q, w * q), q) for _ in range(d - 1)]

    if family == 0:  # mixed denominators
        return [planar(rng.randint(1, 7))
                + [Fraction(rng.randint(-7 * h, 7 * h), 7)] for _ in range(n)]
    if family == 1:  # a coarse grid: ties everywhere
        return [planar(1) + [Fraction(rng.randint(-h, h))] for _ in range(n)]
    if family == 2:  # a slab: two far pins, the rest low
        rows = [planar(16) + [Fraction(s * h)] for s in (-1, 1)]
        rows += [planar(16) + [Fraction(rng.randint(-2, 2), 16)]
                 for _ in range(n - 2)]
        rng.shuffle(rows)
        return rows
    if family == 3:  # two pins, the rest at heights +-h/2
        rows = [[Fraction(0)] * (d - 1) + [Fraction(s * h)] for s in (-1, 1)]
        return rows + [planar(2) + [Fraction(rng.choice((-h, h)), 2)]
                       for _ in range(n - 2)]
    if family in (4, 5):  # sorted by height, up or down
        rows = [planar(4) + [Fraction(rng.randint(-4 * h, 4 * h), 4)]
                for _ in range(n)]
        rows.sort(key=lambda r: abs(r[-1]), reverse=family == 5)
        return rows
    base = [planar(rng.randint(1, 3)) + [Fraction(rng.randint(-h, h))]
            for _ in range(max(2, n // 3))]  # repeated rows
    return base + [list(rng.choice(base)) for _ in range(n - len(base))]


def _voronoi_answers(rng: random.Random, k: int):
    from cubeshell.geometry import Box, CenterDomain
    from cubeshell.voronoi import (build_voronoi, locate, make_sites,
                                   vd_candidates_in_rect)
    dens = ((1, 2, 4), (1, 3, 7), (1, 2, 4, 8))[k % 3]

    def coord(span):
        q = rng.choice(dens)
        return Fraction(rng.randint(-span * q, span * q), q)

    def box(kind):
        xs = sorted(coord(30) for _ in range(2))
        ys = sorted(coord(30) for _ in range(2))
        if kind == 1:  # a point
            xs[1], ys[1] = xs[0], ys[0]
        elif kind == 2:  # a segment
            ys[1] = ys[0]
        return Box((xs[0], ys[0]), (xs[1], ys[1]))

    sites = make_sites(sorted({(coord(40), coord(40))
                               for _ in range(rng.randint(1, 30))}))
    vd = build_voronoi(sites, box(0) if k % 2 else None)
    yield repr(vd.as_dict())
    yield repr(vd.vertices)
    yield repr(vd.edges)
    for kind in range(3):
        yield _answer(vd_candidates_in_rect, vd,
                      CenterDomain(Fraction(10), box(kind), 0))
    locs = [s.location for s in sites]
    marks = [v.point for v in vd.vertices] + [p for e in vd.edges
                                              for p in e.chain]
    for i in range(100):
        if i % 4 == 0:  # on a site's coordinate lines
            q = (rng.choice(locs)[0], rng.choice(locs)[1])
        elif i % 4 == 1 and marks:  # a vertex or an edge point
            q = rng.choice(marks)
        elif i % 20 == 2:  # far outside the frame
            q = (coord(40) * 1000, coord(40))
        else:
            q = (coord(45), coord(45))
        yield _answer(locate, vd, q)


def _digest(answers) -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for a in answers:
        h.update(a.encode() + b"\n")
        count += 1
    return count, h.hexdigest()[:16]


def _cli_stdout(main, path: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["solve", str(path)])
    return f"{code}\n{out.getvalue()}"


def banks(tmp: Path):
    from cubeshell import generate_points, point_set, solve
    from cubeshell.cli import main
    from cubeshell.pointio import write_points
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, to_text

    for d in (1, 2, 3):
        rng = random.Random(1000 + d)
        yield f"random-{d}d", (
            _answer(solve, point_set(_random_rows(rng, k % 4, d)))
            for k in range(1000))
    for d in (2, 3):
        rng = random.Random(2000 + d)
        yield f"capped-{d}d", (
            _answer(solve, point_set(_capped_rows(rng, k % 7, d)))
            for k in range(210))
    rng = random.Random(3000)
    yield "voronoi", (a for k in range(60) for a in _voronoi_answers(rng, k))
    yield "large", (
        _answer(solve, generate_points(n, d, dist, seed))
        for dist, n in (("uniform", 20_000), ("slab", 3_000))
        for d in (2, 3) for seed in (1, 2))
    for wl in WORKLOADS.values():
        paths = []
        for seed in (1, 2):
            for i in range(16):
                pts = wl.make(wl.n, 32 * seed + 16 + i)
                path = tmp / f"{wl.name}-{seed}-{i}.txt"
                path.write_text(to_text(pts))
                paths.append((path, pts))
        yield f"timed-{wl.name}", (_answer(solve, point_set(pts))
                                   for _, pts in paths)
        yield f"cli-{wl.name}", (_cli_stdout(main, path) for path, _ in paths)
    gen = []
    for d, dist in ((2, "uniform"), (3, "uniform"), (3, "slab")):
        path = tmp / f"gen-{dist}{d}d.txt"
        path.write_text(write_points(generate_points(100_000, d, dist, 1)))
        gen.append(path)
    yield "cli-gen", (_cli_stdout(main, path) for path in gen)


def run(src: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    import cubeshell
    print(f"# cubeshell from {Path(cubeshell.__file__).parent}",
          file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for name, answers in banks(Path(tmp)):
            count, digest = _digest(answers)
            print(f"{name} {count} {digest}", flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} SRC")
    run(sys.argv[1])
