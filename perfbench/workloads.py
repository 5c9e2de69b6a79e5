"""Seeded instance generators for the benchmark workloads.

Every generator takes the point count and a seed and returns exact
rational points; the same (n, seed) always gives the same points. The
program under test only ever sees the text file written by ``to_text``.
The generators are the benchmark's own, so a change to the program's
``gen`` subcommand cannot change what is measured.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

_SPAN = 100


def uniform(n: int, seed: int, dim: int) -> list[tuple[Fraction, ...]]:
    """Coordinates k/8 with k uniform in [-800, 800], like ``gen --dist uniform``."""
    rng = random.Random(seed)
    return [tuple(Fraction(rng.randint(-8 * _SPAN, 8 * _SPAN), 8)
                  for _ in range(dim))
            for _ in range(n)]


def slab3d(n: int, seed: int) -> list[tuple[Fraction, ...]]:
    """A flat slab: two points pin z at +-100, the rest have |z| <= 1/8.

    x and y lie in [-50, 50], so the center domain (a 100 x 100 square)
    covers every point. The heights take the values k/16, |k| <= 2, so
    the plateau search has four levels and ends at 1/8; every point but
    the two pins is then a low site of the diagram regime.
    """
    rng = random.Random(seed)

    def planar():
        return (Fraction(rng.randint(-400, 400), 8),
                Fraction(rng.randint(-400, 400), 8))

    pts = [planar() + (Fraction(100),), planar() + (Fraction(-100),)]
    pts += [planar() + (Fraction(rng.randint(-2, 2), 16),)
            for _ in range(n - 2)]
    rng.shuffle(pts)
    return pts


def mixeden3d(n: int, seed: int) -> list[tuple[Fraction, ...]]:
    """Uniform in [-100, 100]^3, each coordinate with its own denominator.

    Denominators are drawn from 1..1000, so at a few thousand points the
    common scale 2*lcm has about 1,440 bits and the solver's int64 path
    cannot be used.
    """
    rng = random.Random(seed)
    pts = []
    for _ in range(n):
        row = []
        for _ in range(3):
            q = rng.randint(1, 1000)
            row.append(Fraction(rng.randint(-_SPAN * q, _SPAN * q), q))
        pts.append(tuple(row))
    return pts


def to_text(points) -> str:
    """One point per line, each coordinate as an exact "p/q" literal."""
    return "".join(" ".join(f"{c.numerator}/{c.denominator}" for c in p) + "\n"
                   for p in points)


class Workload(NamedTuple):
    """A named instance family and the sizes the benchmark runs it at.

    ``n`` is the size of the timed instance; the sizes in ``replay`` are
    small enough for the brute-force oracle, about a second per call.
    ``make(n, seed)`` returns the points.
    """

    name: str
    dim: int
    n: int
    replay: tuple[int, ...]
    make: Callable[[int, int], list[tuple[Fraction, ...]]]


WORKLOADS = {
    w.name: w for w in (
        Workload("uniform3d", 3, 1_500, (24, 40),
                 lambda n, s: uniform(n, s, 3)),
        Workload("slab3d", 3, 50, (12, 16), slab3d),
        Workload("uniform2d", 2, 5_000, (30, 60),
                 lambda n, s: uniform(n, s, 2)),
        Workload("mixeden3d", 3, 1_000, (24, 40), mixeden3d),
    )
}
