"""Point-file parsing and random instance generation.

The text format is one point per line. Fields are separated by commas,
whitespace, or both, and each field is a decimal or "a/b" rational
literal. Anything after '#' is a comment; blank lines are skipped. The
dimension is taken from the first data line unless the caller pins it.
"""

from __future__ import annotations

import io
from collections.abc import Iterable
from fractions import Fraction

from .errors import EmptyInputError, UsageError
from .geometry import Coords, PointSet
from .rational import parse_scalar


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse a token as ``parse_scalar`` does, as (numerator, denominator).

    An integer or "a/b" token is read as two ints, not reduced: the
    digits must meet at the "/", the denominator must be nonzero, and a
    token with "_" is not read here. Every other token (decimals,
    exponents, and whatever the two ints refuse) goes to
    ``parse_scalar``, so the accepted tokens, their values and the error
    texts are its own.
    """
    num, slash, den = text.partition("/")
    if "_" not in text and (not slash
                            or num[-1:].isdigit() and den[:1].isdigit()):
        try:
            q = int(den) if slash else 1
            if q:
                return int(num), q
        except ValueError:
            pass
    value = parse_scalar(text)
    return value.numerator, value.denominator


def parse_points(lines: Iterable[str], dimension: int | None = None) -> PointSet:
    """Parse an iterable of text lines into a PointSet.

    Each token is read by ``parse_ratio`` into the set's integer frame
    input, so no Fraction is made per coordinate. Raises UsageError naming
    the offending 1-based line for ragged rows or bad literals, and
    EmptyInputError when no data line is present.
    """
    nums: list[int] = []
    dens: list[int] = []
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
            for f in fields:
                p, q = parse_ratio(f)
                nums.append(p)
                dens.append(q)
        except UsageError as exc:
            raise UsageError(f"line {num}: {exc}") from exc
    if not nums:
        raise EmptyInputError("no points in input")
    return PointSet.from_ratios(nums, dens, dim)


def parse_bytes(data: bytes, dimension: int | None = None,
                newline: str | None = None) -> PointSet:
    """Parse the bytes of a point file, which must be UTF-8 text.

    ``newline`` ends lines as the argument of ``open`` does: None splits
    at "\\n", "\\r" and "\\r\\n", as a file is read, and "\\n" only there,
    as standard input is read. Bytes that are not UTF-8 raise UsageError
    naming their 1-based line.
    """
    # checked whole before any line is parsed, then decoded again chunk by
    # chunk, so the text is never held whole next to the parsed points
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = io.StringIO(data[:exc.start].decode("utf-8"), newline=newline)
        line = head.read().count("\n") + 1
        raise UsageError(f"line {line}: not UTF-8 text "
                         f"(byte 0x{data[exc.start]:02x})") from exc
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                             newline=newline)
    return parse_points(lines, dimension)


def load_points(path: str, dimension: int | None = None) -> PointSet:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    return parse_bytes(data, dimension)


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
    import random  # only the generators use it; solve never loads it
    rows = DISTRIBUTIONS[distribution](random.Random(seed), dimension, n)
    return PointSet(tuple(rows), dimension)
