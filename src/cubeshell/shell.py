"""Shells and the center-to-point distance functions they are built from.

A shell is the closed region between two concentric hypercubes. For a
center c constrained to the halving plane, the distance to a point p
splits into a planar part and the fixed height |x_d(p)|; the largest
usable inner radius at c is the minimum of those distances over P.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError, UsageError
from .geometry import Coords, PlanarPoint, PointSet, Record, linf_dist
from .rational import Scalar


class Shell(Record):
    __slots__ = ("center", "outer_radius", "inner_radius")

    def __init__(self, center: Coords, outer_radius: Scalar,
                 inner_radius: Scalar):
        if not (0 <= inner_radius <= outer_radius):
            raise PreconditionError("shell radii must satisfy 0 <= inner <= outer")
        self._fill(center, outer_radius, inner_radius)

    @property
    def width(self) -> Scalar:
        return self.outer_radius - self.inner_radius


def planar_dist(p: Coords, c: PlanarPoint) -> Scalar:
    """Chebyshev distance within the halving plane to p's projection.

    For d = 1 the plane is a single point and the distance is 0.
    """
    if len(c) != len(p) - 1:
        raise UsageError("center must have one coordinate fewer than the point")
    if not c:
        return Fraction(0)
    return max(abs(a - b) for a, b in zip(p, c))


def lifted_dist(p: Coords, c: PlanarPoint) -> Scalar:
    """Distance from p to the center c lifted back into the full space.

    Equals max(planar part, |last coordinate of p|); the second term is the
    floor the function plateaus at.
    """
    return max(planar_dist(p, c), abs(p[-1]))


def inner_radius_at(ps: PointSet, c: PlanarPoint) -> Scalar:
    """Largest inner radius usable at plane center c: min_p lifted_dist.

    Deliberately a linear scan; no envelope structure is built.
    """
    return min(lifted_dist(p, c) for p in ps)


def lift(c: PlanarPoint) -> Coords:
    """Embed a plane center into the full space at height 0."""
    return tuple(c) + (Fraction(0),)


def best_shell_at(ps: PointSet, center: Coords) -> Shell:
    """The unique minimum-width shell centered at a given full-space point."""
    dists = [linf_dist(p, center) for p in ps]
    return Shell(tuple(Fraction(x) for x in center), max(dists), min(dists))


def shell_encloses(shell: Shell, ps: PointSet) -> bool:
    """True iff every point lies between the inner and outer cube."""
    for p in ps:
        d = linf_dist(p, shell.center)
        if d > shell.outer_radius or d < shell.inner_radius:
            return False
    return True
