"""Planar geometry: points and unit vectors.

All angles are radians. Points are immutable value objects; every function
here is pure, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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


def unit_vector(angle: float) -> Point2:
    return Point2(math.cos(angle), math.sin(angle))
