"""Point-file parsing and random instance generation.

The text format is one point per line. Fields are separated by commas,
whitespace, or both, and each field is a decimal or "a/b" rational
literal. Anything after '#' is a comment; blank lines are skipped. The
dimension is taken from the first data line unless the caller pins it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

from .errors import EmptyInputError, UsageError
from .geometry import Coords, PointSet
from .rational import parse_scalar


def parse_points(lines: Iterable[str], dimension: int | None = None) -> PointSet:
    """Parse an iterable of text lines into a PointSet.

    Raises UsageError naming the offending 1-based line for ragged rows
    or bad literals, and EmptyInputError when no data line is present.
    """
    rows: list[Coords] = []
    dim = dimension
    if dim is not None and dim < 1:
        raise UsageError("dimension must be a positive integer")
    for num, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].replace(",", " ")
        fields = text.split()
        if not fields:
            continue
        if dim is None:
            dim = len(fields)
        if len(fields) != dim:
            raise UsageError(
                f"line {num}: expected {dim} fields, found {len(fields)}")
        try:
            rows.append(tuple(parse_scalar(f) for f in fields))
        except UsageError as exc:
            raise UsageError(f"line {num}: {exc}") from exc
    if not rows:
        raise EmptyInputError("no points in input")
    return PointSet(tuple(rows), dim)


def load_points(path: str, dimension: int | None = None) -> PointSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_points(fh, dimension)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc


def write_points(ps: PointSet) -> str:
    """Render a PointSet in the text format; parse_points round-trips it."""
    return "".join(" ".join(str(c) for c in p) + "\n" for p in ps)


# ---------------------------------------------------------------------------
# Instance generation. Coordinates are rationals with small denominators in
# [-100, 100]; the same seed always yields the same file.

_SPAN = 100


def _uniform(rng: random.Random, dim: int, n: int) -> list[Coords]:
    return [tuple(Fraction(rng.randint(-8 * _SPAN, 8 * _SPAN), 8)
                  for _ in range(dim))
            for _ in range(n)]


def _clustered(rng: random.Random, dim: int, n: int) -> list[Coords]:
    hubs = max(1, round(n ** 0.5))
    centers = [tuple(Fraction(rng.randint(-(_SPAN - 10), _SPAN - 10))
                     for _ in range(dim))
               for _ in range(hubs)]
    pts: list[Coords] = []
    for _ in range(n):
        base = centers[rng.randrange(hubs)]
        pts.append(tuple(b + Fraction(rng.randint(-80, 80), 16) for b in base))
    return pts


def _slab(rng: random.Random, dim: int, n: int) -> list[Coords]:
    """A flat slab: two points pin the last axis at +-100, the rest are low.

    The other coordinates are k/8 in [-50, 50] and the low heights k/16
    with |k| <= 2, so in 3D nearly every point is a site of the diagram
    regime. Same seed, same points as the benchmark's slab family.
    """
    def planar():
        return tuple(Fraction(rng.randint(-4 * _SPAN, 4 * _SPAN), 8)
                     for _ in range(dim - 1))

    pts = [planar() + (Fraction(_SPAN),), planar() + (Fraction(-_SPAN),)]
    pts += [planar() + (Fraction(rng.randint(-2, 2), 16),)
            for _ in range(n - 2)]
    rng.shuffle(pts)
    return pts[:n]


DISTRIBUTIONS = {"uniform": _uniform, "clustered": _clustered, "slab": _slab}


def generate_points(n: int, dimension: int, distribution: str = "uniform",
                    seed: int = 0) -> PointSet:
    if n < 1:
        raise UsageError("instance size must be at least 1")
    if dimension not in (1, 2, 3):
        raise UsageError("generated dimension must be 1, 2, or 3")
    if distribution not in DISTRIBUTIONS:
        raise UsageError(f"unknown distribution {distribution!r}")
    rows = DISTRIBUTIONS[distribution](random.Random(seed), dimension, n)
    return PointSet(tuple(rows), dimension)
