"""Points, boxes, the Chebyshev metric, and the center domain.

All coordinates are exact rationals, so every predicate here is decided
without rounding. Dimensions 1..3 are what the solvers accept, but the
primitives in this module work for any d >= 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import product, repeat
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

    Every set holds its points as the integer frame's input: a scale U,
    one column per axis of the coordinates times U, and the columns'
    minima and maxima. ``from_ratios`` is the one place where rationals
    become frame integers, and a set built from rows of rationals goes
    through it too, keeping the rows only as the cache that ``points``
    returns. A set the parser or ``normalize`` made builds those rows on
    the first access to ``points``, which a solve never makes. Either way
    the set is immutable and compares and hashes by its points and
    dimension.
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
        flat = [c for p in points for c in p]
        scaled = self.from_ratios([c.numerator for c in flat],
                                  [c.denominator for c in flat], dimension)
        self._hold(*scaled._scaled, points)

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
        return cls._scaled_by(U, cols, list(map(min, cols)),
                              list(map(max, cols)))

    @classmethod
    def _scaled_by(cls, U: int, cols, lo, hi) -> PointSet:
        """The points whose coordinates are the columns' integers over U;
        cols is a tuple of tuples, and lo and hi their minima and maxima."""
        ps = cls.__new__(cls)
        ps._hold(U, cols, lo, hi, None)
        return ps

    def _hold(self, U, cols, lo, hi, points) -> None:
        object.__setattr__(self, "_scaled", (U, cols, lo, hi))
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "dimension", len(cols))

    @property
    def points(self) -> tuple[Coords, ...]:
        if self._points is None:
            U, cols, _, _ = self._scaled
            rows = tuple(zip(*[[Fraction(v, U) for v in col] for col in cols]))
            object.__setattr__(self, "_points", rows)
        return self._points

    def __len__(self) -> int:
        return len(self._scaled[1][0])

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
    The normalized set holds its frame (``frame_map``): the input's scale U
    (doubled when the longest axis has an odd midpoint), its columns times
    U and their extremes, and Fraction rows only if read.
    """
    fm = frame_map(ps)
    _, cols, lo, hi = ps._scaled
    # the map is monotone per axis, so the extremes frame as two rows
    lo, hi = map(list, zip(*fm.frame(list(zip(lo, hi))).cols))
    return PointSet._scaled_by(fm.U, fm.frame(cols).cols, lo, hi), fm.nrm


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


class IntFrame(Record):
    """A point set and its center domain on integers, scaled by one factor U.

    ``cols`` holds one tuple per axis of the frame's coordinates times U, in
    input order, for the rows it was built from: all of them from
    ``int_frame``, and in a solve only the rows that can bound r*
    (``FrameMap.frame``). Nothing is kept per point; ``half`` is the outer radius
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


class FrameMap(Record):
    """How ``normalize`` takes a set's columns into its frame.

    Frame axis j holds source axis ``order[j]``, the longest last. A value
    v of a source column becomes ``s * v`` on a box axis and
    ``s * (v - mid)`` on the last one: mid is the longest axis's midpoint,
    and s is 2 when mid is odd (centering would leave odd values), else 1.
    ``U``, ``nrm``, ``half`` and ``box`` are the frame's, as in IntFrame.
    ``frame`` applies the map to any subset of the rows.
    """

    __slots__ = ("order", "mid", "s", "U", "nrm", "half", "box")

    def __init__(self, order: tuple[int, ...], mid: int, s: int, U: int,
                 nrm: Normalization, half: int, box: tuple[int, ...]):
        self._fill(order, mid, s, U, nrm, half, box)

    def frame(self, cols) -> IntFrame:
        """The frame of the rows whose columns, in source axis order, are cols."""
        cols = [cols[a] for a in self.order]
        cols[-1] = map(sub, cols[-1], repeat(self.mid))
        if self.s != 1:
            cols = [map(mul, col, repeat(self.s)) for col in cols]
        return IntFrame(self.U, tuple(map(tuple, cols)), self.nrm, self.half,
                        self.box)


def frame_map(ps: PointSet) -> FrameMap:
    """normalize's map of ps, from the extremes ps holds."""
    U, _, lo, hi = ps._scaled
    sides = list(map(sub, hi, lo))
    longest = sides.index(max(sides))
    mid = (lo[longest] + hi[longest]) // 2
    s = 1 + mid % 2
    order = tuple(i for i in range(ps.dimension) if i != longest) + (longest,)
    nrm = Normalization(order, (Fraction(0),) * (ps.dimension - 1)
                        + (Fraction(-mid, U),))
    # per box axis the center interval is [max - h/2, min + h/2]
    half = s * sides[longest] // 2
    box = tuple(v for a in order[:-1]
                for v in (s * hi[a] - half, s * lo[a] + half))
    return FrameMap(order, mid, s, s * U, nrm, half, box)


def int_frame(ps: PointSet) -> IntFrame:
    """The frame of every row of ps normalized: ``normalize``'s columns,
    extremes and map. A solve frames only the rows it keeps."""
    return frame_map(ps).frame(ps._scaled[1])


def scaled_frame(psn: PointSet) -> IntFrame:
    """The frame of a point set taken as already normalized: its own U,
    columns and their extremes, under the identity map."""
    U, cols, lo, hi = psn._scaled
    d = psn.dimension
    # per axis i < d the center interval is [max_i - h/2, min_i + h/2]
    half = max(map(sub, hi, lo)) // 2
    box = tuple(v for a, b in zip(lo[:-1], hi[:-1]) for v in (b - half, a + half))
    return IntFrame(U, cols, Normalization(tuple(range(d)), (Fraction(0),) * d),
                    half, box)


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
