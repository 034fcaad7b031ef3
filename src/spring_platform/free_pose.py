"""Circle constructions for the top platform with springs at their free
lengths.

solve_a2 intersects the two circles traced by the legs from O1 and A1;
solve_o2 intersects a second circle pair for O2. The O2 stage runs
through the dialytic route: the 4x4 determinant condition collapses to a
quadratic in o2x whose coefficients are re-derived here (the closed forms
are cross-checked in tests against a radical-line intersection oracle).
Neither runs in an analysis: both supported cases have L02 = L03 = 0, for
which the legs to A2 cannot span O1-A1, so contact is assumed.
"""

from __future__ import annotations

import math

from .errors import NotAssemblable
from .geometry import Point2

TOL_TANGENT = 1e-12  # relative slack on circle-intersection boundaries


def solve_a2(r_from_o1: float, r_from_a1: float, d_o1a1: float) -> Point2:
    """Intersection, with positive y, of circles centred at the base origin
    (radius r_from_o1) and at (d_o1a1, 0) (radius r_from_a1)."""
    if d_o1a1 <= 0:
        raise NotAssemblable("base anchor separation must be positive")
    scale = max(r_from_o1, r_from_a1, d_o1a1)
    slack = TOL_TANGENT * scale
    if d_o1a1 > r_from_o1 + r_from_a1 + slack:
        raise NotAssemblable(
            f"legs too short: {r_from_o1} + {r_from_a1} < {d_o1a1}")
    if d_o1a1 < abs(r_from_o1 - r_from_a1) - slack:
        raise NotAssemblable("one leg circle contains the other")
    a2x = (r_from_o1 ** 2 - r_from_a1 ** 2 + d_o1a1 ** 2) / (2 * d_o1a1)
    t = r_from_o1 ** 2 - a2x ** 2
    if t < -slack * scale:
        raise NotAssemblable("leg circles do not intersect")
    return Point2(a2x, math.sqrt(max(t, 0.0)))


def dialytic_residual(a: float, b: float, c: float) -> float:
    """Expanded 4x4 determinant of the stacked circle equations; zero on
    the solution variety of the o2 circle pair."""
    return -b * b + 2 * b * c - a * a * c - c * c


def solve_o2(a2: Point2, r_o2: float, d_o2a2: float) -> list[tuple[Point2, float]]:
    """O2 candidates on the circle pair centred at the origin (radius r_o2)
    and at a2 (radius d_o2a2), each with the top-frame angle it implies.

    Candidates come from the quadratic in o2x obtained by eliminating o2y
    dialytically; o2y follows from the radical-line relation. Coincident
    candidates (tangency) collapse to one. Ordered by descending o2y.
    """
    cx, cy = a2.x, a2.y
    rho_sq = cx * cx + cy * cy
    scale = max(rho_sq, r_o2 ** 2, d_o2a2 ** 2, 1e-30)
    if rho_sq < TOL_TANGENT * scale:
        raise NotAssemblable("circle centres coincide; O2 is undetermined")
    g = r_o2 ** 2 + rho_sq - d_o2a2 ** 2
    points: list[Point2] = []
    if abs(cy) > math.sqrt(TOL_TANGENT * scale):
        # quadratic D x^2 + E x + F = 0 from the dialytic elimination
        qd = 4 * rho_sq
        qe = -4 * cx * g
        qf = g * g - 4 * cy * cy * r_o2 ** 2
        disc = qe * qe - 4 * qd * qf
        if disc < -TOL_TANGENT * scale ** 2 * 16:
            raise NotAssemblable("O2 circles do not intersect")
        root = math.sqrt(max(disc, 0.0))
        for sign in (1.0, -1.0):
            x = (-qe + sign * root) / (2 * qd)
            y = (g - 2 * cx * x) / (2 * cy)
            points.append(Point2(x, y))
    else:
        # radical line is vertical; intersections are symmetric in y
        x = g / (2 * cx)
        t = r_o2 ** 2 - x * x
        if t < -TOL_TANGENT * scale:
            raise NotAssemblable("O2 circles do not intersect")
        y = math.sqrt(max(t, 0.0))
        points.extend([Point2(x, y), Point2(x, -y)])
    # collapse a tangency to a single candidate
    if len(points) == 2:
        gap = (points[0] - points[1]).norm()
        if gap <= math.sqrt(TOL_TANGENT) * math.sqrt(scale):
            points = [points[0]]
    points.sort(key=lambda p: -p.y)
    return [(p, math.atan2(a2.y - p.y, a2.x - p.x)) for p in points]
