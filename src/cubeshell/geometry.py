"""Points, boxes, the Chebyshev metric, and the center domain.

All coordinates are exact rationals, so every predicate here is decided
without rounding. Dimensions 1..3 are what the solvers accept, but the
primitives in this module work for any d >= 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain, product, repeat
from math import lcm
from operator import mul, sub

from .errors import PreconditionError, UsageError
from .rational import Scalar

Coords = tuple[Scalar, ...]
# A point of the halving plane; one coordinate fewer than the input points.
PlanarPoint = tuple[Scalar, ...]


def _frozen(message: str) -> AttributeError:
    # dataclasses loads inspect, ast and dis, so only a failing write loads it
    from dataclasses import FrozenInstanceError
    return FrozenInstanceError(message)


class Record:
    """Base of the package's immutable records, as ``@dataclass(frozen=True)``.

    A subclass names its fields in ``__slots__``, which become its
    ``__match_args__`` too, and sets them in its own ``__init__`` with
    ``_fill``. Records of one class compare equal when their field tuples
    are, hash as that tuple, print as ``Name(field=value, ...)`` and raise
    FrozenInstanceError on assignment or deletion, all as a frozen
    dataclass does, without the start-up cost of importing ``dataclasses``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._astuple()

    def __setattr__(self, name, value):
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen(f"cannot delete field {name!r}")


def as_point(values: Iterable) -> Coords:
    """Coerce a coordinate sequence to a tuple of exact rationals."""
    return tuple(Fraction(v) for v in values)


class PointSet:
    """An ordered, nonempty collection of points sharing one dimension.

    A set made by ``from_ratios``, as the parser makes them, holds its
    points as the integer frame's input instead: a scale U and one column
    per axis of the coordinates times U. Its rows of Fractions are built
    on the first access to ``points``, which a solve never makes (one from
    ``normalize`` keeps its columns' extremes too). Either way the set is
    immutable and compares and hashes by its points and dimension.
    """

    __match_args__ = ("points", "dimension")

    def __init__(self, points: tuple[Coords, ...], dimension: int):
        if not points:
            raise UsageError("point set must be nonempty")
        for p in points:
            if len(p) != dimension:
                raise UsageError(
                    f"point {p} has dimension {len(p)}, expected {dimension}"
                )
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "_scaled", None)
        object.__setattr__(self, "dimension", dimension)

    @classmethod
    def from_ratios(cls, nums: list[int], dens: list[int],
                    dimension: int) -> PointSet:
        """The points whose coordinates are nums[k] / dens[k], row by row.

        The ratios need not be in lowest terms, but every den is positive.
        U is twice the lcm of the distinct denominators, and each column
        holds num * (U // den).
        """
        if (dimension < 1 or not nums or len(nums) != len(dens)
                or len(nums) % dimension):
            raise UsageError("point set must be nonempty rows of one dimension")
        distinct = set(dens)
        if min(distinct) < 1:
            raise UsageError("denominators must be positive")
        U = 2 * lcm(*distinct)
        mult = {q: U // q for q in distinct}
        cols = tuple(tuple([p * mult[q] for p, q in zip(nums[i::dimension],
                                                        dens[i::dimension])])
                     for i in range(dimension))
        return cls._scaled_by(U, cols)

    @classmethod
    def _scaled_by(cls, U: int, cols, bounds=None) -> PointSet:
        """The points whose coordinates are the columns' integers over U;
        cols is a tuple of tuples, and bounds their (minima, maxima) if known."""
        ps = cls.__new__(cls)
        object.__setattr__(ps, "_points", None)
        object.__setattr__(ps, "_scaled", (U, cols, bounds))
        object.__setattr__(ps, "dimension", len(cols))
        return ps

    @property
    def points(self) -> tuple[Coords, ...]:
        if self._points is None:
            U, cols, _ = self._scaled
            rows = tuple(zip(*[[Fraction(v, U) for v in col] for col in cols]))
            object.__setattr__(self, "_points", rows)
        return self._points

    def __len__(self) -> int:
        if self._points is None:
            return len(self._scaled[1][0])
        return len(self._points)

    def __iter__(self) -> Iterator[Coords]:
        return iter(self.points)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.points, self.dimension) == (other.points, other.dimension)

    def __hash__(self) -> int:
        return hash((self.points, self.dimension))

    def __repr__(self) -> str:
        return f"PointSet(points={self.points!r}, dimension={self.dimension!r})"

    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__


def point_set(rows: Iterable[Iterable]) -> PointSet:
    """Build a PointSet from raw coordinate rows, coercing to rationals."""
    pts = tuple(as_point(row) for row in rows)
    if not pts:
        raise UsageError("point set must be nonempty")
    return PointSet(pts, len(pts[0]))


class Box(Record):
    """Axis-aligned box given by closed per-axis intervals [lo_i, hi_i]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Coords, hi: Coords):
        if len(lo) != len(hi):
            raise PreconditionError("box lo/hi dimension mismatch")
        for a, b in zip(lo, hi):
            if a > b:
                raise PreconditionError("box interval has lo > hi")
        self._fill(lo, hi)

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def side(self, axis: int) -> Scalar:
        return self.hi[axis] - self.lo[axis]

    @property
    def sides(self) -> Coords:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def longest_side(self) -> Scalar:
        return max(self.sides, default=Fraction(0))

    @property
    def midpoint(self) -> Coords:
        return tuple((a + b) / 2 for a, b in zip(self.lo, self.hi))

    def contains(self, p: Coords) -> bool:
        if len(p) != self.dimension:
            raise UsageError("point/box dimension mismatch")
        return all(a <= x <= b for x, a, b in zip(p, self.lo, self.hi))

    def corners(self) -> tuple[Coords, ...]:
        """Distinct corners, lexicographically sorted (degenerate axes collapse)."""
        out = sorted(set(product(*zip(self.lo, self.hi))))
        return tuple(out)


def linf_dist(p: Coords, q: Coords) -> Scalar:
    """Chebyshev distance: the largest per-axis absolute difference."""
    if len(p) != len(q):
        raise UsageError(f"dimension mismatch: {len(p)} vs {len(q)}")
    return max(abs(a - b) for a, b in zip(p, q))


def smallest_enclosing_box(ps: PointSet) -> Box:
    lo = tuple(min(p[i] for p in ps) for i in range(ps.dimension))
    hi = tuple(max(p[i] for p in ps) for i in range(ps.dimension))
    return Box(lo, hi)


class Normalization(Record):
    """Axis relabeling plus a translation along the final axis.

    ``axis_order[j]`` is the source axis placed at position j; the box's
    longest axis always lands last, and the translation centers it at 0,
    so the halving plane becomes {last coordinate = 0}.
    """

    __slots__ = ("axis_order", "translation")

    def __init__(self, axis_order: tuple[int, ...], translation: Coords):
        self._fill(axis_order, translation)

    def apply(self, p: Coords) -> Coords:
        permuted = tuple(p[a] for a in self.axis_order)
        return tuple(x + t for x, t in zip(permuted, self.translation))

    def invert(self, p: Coords) -> Coords:
        shifted = tuple(x - t for x, t in zip(p, self.translation))
        out = [None] * len(shifted)
        for j, a in enumerate(self.axis_order):
            out[a] = shifted[j]
        return tuple(out)


def normalize(ps: PointSet) -> tuple[PointSet, Normalization]:
    """Relabel axes so the longest box side is axis d, centered at 0.

    Ties among longest sides go to the smallest axis index. The returned
    transform maps original points to normalized ones; ``invert`` undoes it.
    The normalized set holds its frame: a scale U, twice the lcm of the
    input denominators (doubled once more when the longest axis has an odd
    midpoint, which centering would otherwise leave in odd coordinates),
    its columns times U and their extremes, and Fraction rows only if read.
    """
    U, cols, lo, hi = _scaled_columns(ps)
    sides = list(map(sub, hi, lo))
    longest = sides.index(max(sides))
    mid = (lo[longest] + hi[longest]) // 2
    if mid % 2:
        U, mid = 2 * U, 2 * mid
        cols = [tuple(map(mul, col, repeat(2))) for col in cols]
        lo, hi = [2 * v for v in lo], [2 * v for v in hi]
    order = tuple(i for i in range(ps.dimension) if i != longest) + (longest,)
    cols = [cols[a] for a in order]
    cols[-1] = tuple(map(sub, cols[-1], repeat(mid)))
    lo, hi = [lo[a] for a in order], [hi[a] for a in order]
    lo[-1], hi[-1] = lo[-1] - mid, hi[-1] - mid
    translation = (Fraction(0),) * (ps.dimension - 1) + (Fraction(-mid, U),)
    return (PointSet._scaled_by(U, tuple(cols), (lo, hi)),
            Normalization(order, translation))


class CenterDomain(Record):
    """Centers of all smallest enclosing hypercubes, as a box in the plane.

    ``box`` lives in the halving plane {x_d = 0} (dimension d-1);
    ``half_side`` is the shared outer radius h/2; ``degeneracy_rank``
    counts the box axes with zero extent.
    """

    __slots__ = ("half_side", "box", "degeneracy_rank")

    def __init__(self, half_side: Scalar, box: Box, degeneracy_rank: int):
        self._fill(half_side, box, degeneracy_rank)


def center_domain(psn: PointSet) -> CenterDomain:
    """Center domain of a normalized point set.

    Per axis i < d the interval is [max_i - h/2, min_i + h/2]; every such
    interval is nonempty because h is the longest box side.
    """
    return scaled_frame(psn).domain()


def even_scale(values: Iterable[Scalar]) -> int:
    """Twice the lcm of the denominators: each value times it is an even int."""
    return 2 * lcm(*{v.denominator for v in values})


class IntFrame(Record):
    """A point set and its center domain on integers, scaled by one factor U.

    ``cols`` holds one tuple per axis of the frame's coordinates times U, in
    input order, and nothing is kept per point; ``half`` is the outer radius
    and ``box`` the center box (lo_0, hi_0, lo_1, hi_1, ...) times U. Every
    value is an even integer, so the midpoint of two of them is an integer
    too. ``nrm`` maps original points to the frame's unscaled ones. Like a
    PointSet, a frame has a length and iterates over its points (as rows).
    """

    __slots__ = ("U", "cols", "nrm", "half", "box")

    def __init__(self, U: int, cols: tuple[tuple[int, ...], ...],
                 nrm: Normalization, half: int, box: tuple[int, ...]):
        self._fill(U, cols, nrm, half, box)

    def __len__(self) -> int:
        return len(self.cols[0])

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return zip(*self.cols)

    def value(self, v: int) -> Fraction:
        """A frame integer as the rational it stands for."""
        return Fraction(v, self.U)

    def domain(self) -> CenterDomain:
        lo = tuple(self.value(v) for v in self.box[0::2])
        hi = tuple(self.value(v) for v in self.box[1::2])
        rank = sum(1 for a, b in zip(lo, hi) if a == b)
        return CenterDomain(self.value(self.half), Box(lo, hi), rank)


def _scaled_columns(ps: PointSet):
    """U, the columns times U as tuples, and the columns' minima and maxima."""
    if ps._scaled is not None:
        U, cols, bounds = ps._scaled
    else:
        U, bounds = even_scale(chain.from_iterable(ps)), None
        cols = tuple(tuple([c.numerator * (U // c.denominator) for c in col])
                     for col in zip(*ps))
    lo, hi = bounds or (list(map(min, cols)), list(map(max, cols)))
    return U, cols, lo, hi


def _frame(U, cols, lo, hi, nrm) -> IntFrame:
    # per axis i < d the center interval is [max_i - h/2, min_i + h/2]
    half = max(map(sub, hi, lo)) // 2
    box = tuple(v for a, b in zip(lo[:-1], hi[:-1]) for v in (b - half, a + half))
    return IntFrame(U, cols, nrm, half, box)


def int_frame(ps: PointSet) -> IntFrame:
    """The frame of ps normalized: ``normalize``'s columns, extremes and map."""
    psn, nrm = normalize(ps)
    return _frame(*_scaled_columns(psn), nrm)


def scaled_frame(psn: PointSet) -> IntFrame:
    """The frame of a point set taken as already normalized.

    A set that ``normalize`` or the parser made holds its U and columns,
    and the frame reuses them (and ``normalize``'s column extremes); a set
    of Fraction rows is scaled by twice the lcm of its denominators.
    """
    d = psn.dimension
    return _frame(*_scaled_columns(psn),
                  Normalization(tuple(range(d)), (Fraction(0),) * d))


def is_smallest_enclosing_cube(ps: PointSet, center: Coords, radius: Scalar) -> bool:
    """True iff the cube B(center, radius) encloses ps as tightly as possible.

    Tight means some axis has points on both of its facets. Raises if the
    cube does not enclose the set at all.
    """
    if len(center) != ps.dimension:
        raise UsageError("center/point dimension mismatch")
    for p in ps:
        if linf_dist(p, center) > radius:
            raise PreconditionError("cube does not enclose the point set")
    for i in range(ps.dimension):
        lo_face = center[i] - radius
        hi_face = center[i] + radius
        if any(p[i] == lo_face for p in ps) and any(p[i] == hi_face for p in ps):
            return True
    return False
