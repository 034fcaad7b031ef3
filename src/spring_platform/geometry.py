"""Planar geometry: points, lines, and the oriented surface treated as a
plane whose sign tells the two sides of the surface apart.

All angles are radians. Points are immutable value objects; every function
here is pure, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParallelLines

TOL_PARALLEL = 1e-9  # on the cross product of unit directions


@dataclass(frozen=True)
class Point2:
    """Planar point or vector. Solver stages may carry complex components."""

    x: float
    y: float

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> "Point2":
        return Point2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def dot(self, other: "Point2"):
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point2"):
        """z-component of the 3D cross product."""
        return self.x * other.y - self.y * other.x

    def norm(self):
        """Principal square root of x**2 + y**2 (Euclidean for real input)."""
        return (self.x * self.x + self.y * self.y) ** 0.5


def unit_vector(angle: float) -> Point2:
    return Point2(math.cos(angle), math.sin(angle))


class Line2(NamedTuple):
    """Line given by a unit direction and its moment about the origin.

    A point p lies on the line iff p.x * direction.y - p.y * direction.x
    equals the moment.
    """

    direction: Point2
    moment: float

    def residual(self, p: Point2):
        return p.x * self.direction.y - p.y * self.direction.x - self.moment


def line_through(point: Point2, angle: float) -> Line2:
    d = unit_vector(angle)
    return Line2(d, point.x * d.y - point.y * d.x)


def intersect_lines(l1: Line2, l2: Line2) -> Point2:
    """Intersection of two lines as the 2x2 linear solve.

    Raises ParallelLines when the unit directions are parallel within
    TOL_PARALLEL.
    """
    d1, d2 = l1.direction, l2.direction
    det = d1.cross(d2)  # equals the determinant of the 2x2 system below
    if abs(det) <= TOL_PARALLEL:
        raise ParallelLines(f"|cross| = {abs(det):.3e} <= {TOL_PARALLEL:.1e}")
    # rows: x*dy - y*dx = m
    x = (l1.moment * (-d2.x) - (-d1.x) * l2.moment) / det
    y = (d1.y * l2.moment - l1.moment * d2.y) / det
    return Point2(x, y)


class PlaneSpec(NamedTuple):
    """Oriented surface: unit normal plus offset, f(p) = p . normal + offset."""

    normal: Point2
    offset: float

    def evaluate(self, p: Point2):
        return p.dot(self.normal) + self.offset


def make_plane(angle: float, surface_point: Point2) -> PlaneSpec:
    """Plane through surface_point whose line direction is at `angle`;
    the normal is that direction rotated by -pi/2."""
    n = unit_vector(angle - math.pi / 2)
    return PlaneSpec(n, -surface_point.dot(n))
