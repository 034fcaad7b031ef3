import dataclasses
import math

import numpy as np
import pytest

from _support import reference_params

from spring_platform import Point2


def with_axes(base_origin, base_angle, surface_point, surface_angle):
    """The reference mechanism with its base X axis and surface line moved."""
    return dataclasses.replace(
        reference_params(), base_origin=base_origin, base_angle=base_angle,
        surface_point=surface_point, surface_angle=surface_angle)


def moment_residual(p: Point2, point: Point2, angle: float) -> float:
    """Distance, signed, of p from the line through point at angle."""
    return ((p.x - point.x) * math.sin(angle)
            - (p.y - point.y) * math.cos(angle))


def test_line_through_origin():
    # a base axis through the origin along X has moment zero, so E sits
    # exactly on the X axis
    e = with_axes(Point2(0.0, 0.0), 0.0, Point2(4.0, 3.0),
                  math.radians(60.0)).point_e
    assert e.y == 0.0
    assert abs(e.x - (4.0 - 3.0 / math.tan(math.radians(60.0)))) < 1e-12


@pytest.mark.parametrize("point,angle_deg", [
    ((5.0, 3.5), 20.0),
    ((19.5, 6.25), 150.0),
])
def test_line_moment_formula(point, angle_deg):
    # E lies on the base axis through point at angle, whichever surface
    # it meets
    angle = math.radians(angle_deg)
    for surface_deg in (-40.0, 95.0):
        e = with_axes(Point2(*point), angle, Point2(1.0, -2.0),
                      math.radians(surface_deg)).point_e
        expected = point[0] * math.sin(angle) - point[1] * math.cos(angle)
        assert abs(e.x * math.sin(angle) - e.y * math.cos(angle)
                   - expected) < 1e-12


def test_intersect_perpendicular():
    e = with_axes(Point2(0.0, 0.0), 0.0, Point2(1.0, 0.0),
                  math.pi / 2).point_e
    assert abs(e.x - 1.0) < 1e-12 and abs(e.y) < 1e-12


def test_intersect_parallel_raises():
    with pytest.raises(ValueError, match="parallel"):
        with_axes(Point2(0.0, 0.0), 0.0, Point2(5.0, 0.0), 0.0)


def test_reference_intersection_against_two_by_two_solve():
    a1, a2 = math.radians(20.0), math.radians(150.0)
    o1, m = Point2(5.0, 3.5), Point2(19.5, 6.25)
    e = with_axes(o1, a1, m, a2).point_e
    rows = np.array([[math.sin(a1), -math.cos(a1)],
                     [math.sin(a2), -math.cos(a2)]])
    rhs = np.array([o1.x * math.sin(a1) - o1.y * math.cos(a1),
                    m.x * math.sin(a2) - m.y * math.cos(a2)])
    expected = np.linalg.solve(rows, rhs)
    assert abs(e.x - expected[0]) < 1e-12
    assert abs(e.y - expected[1]) < 1e-12


def test_intersection_lies_on_both_lines_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a1, a2 = rng.uniform(0, 2 * math.pi, 2)
        if abs(math.sin(a2 - a1)) < 1e-3:
            continue
        o1, m = (Point2(*rng.uniform(-20, 20, 2)) for _ in range(2))
        e = with_axes(o1, a1, m, a2).point_e
        assert abs(moment_residual(e, o1, a1)) <= 1e-9
        assert abs(moment_residual(e, m, a2)) <= 1e-9
