import math

import numpy as np
import pytest

from spring_platform import (ParallelLines, Point2, intersect_lines,
                             line_through, make_plane)


def test_line_through_origin():
    line = line_through(Point2(0.0, 0.0), 0.0)
    assert (line.direction.x, line.direction.y) == (1.0, 0.0)
    assert line.moment == 0.0


@pytest.mark.parametrize("point,angle_deg", [
    ((5.0, 3.5), 20.0),
    ((19.5, 6.25), 150.0),
])
def test_line_moment_formula(point, angle_deg):
    angle = math.radians(angle_deg)
    line = line_through(Point2(*point), angle)
    expected = point[0] * math.sin(angle) - point[1] * math.cos(angle)
    assert abs(line.moment - expected) < 1e-15


def test_intersect_perpendicular():
    l1 = line_through(Point2(0.0, 0.0), 0.0)
    l2 = line_through(Point2(1.0, 0.0), math.pi / 2)
    p = intersect_lines(l1, l2)
    assert abs(p.x - 1.0) < 1e-12 and abs(p.y) < 1e-12


def test_intersect_parallel_raises():
    l1 = line_through(Point2(0.0, 0.0), 0.0)
    l2 = line_through(Point2(5.0, 0.0), 0.0)
    with pytest.raises(ParallelLines):
        intersect_lines(l1, l2)


def test_reference_intersection_against_two_by_two_solve():
    l1 = line_through(Point2(5.0, 3.5), math.radians(20.0))
    l2 = line_through(Point2(19.5, 6.25), math.radians(150.0))
    p = intersect_lines(l1, l2)
    m = np.array([[math.sin(math.radians(20.0)), -math.cos(math.radians(20.0))],
                  [math.sin(math.radians(150.0)), -math.cos(math.radians(150.0))]])
    rhs = np.array([l1.moment, l2.moment])
    expected = np.linalg.solve(m, rhs)
    assert abs(p.x - expected[0]) < 1e-12
    assert abs(p.y - expected[1]) < 1e-12


def test_intersection_lies_on_both_lines_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a1, a2 = rng.uniform(0, 2 * math.pi, 2)
        if abs(math.sin(a2 - a1)) < 1e-3:
            continue
        l1 = line_through(Point2(*rng.uniform(-20, 20, 2)), a1)
        l2 = line_through(Point2(*rng.uniform(-20, 20, 2)), a2)
        p = intersect_lines(l1, l2)
        assert abs(l1.residual(p)) <= 1e-9
        assert abs(l2.residual(p)) <= 1e-9


def test_make_plane_basics():
    plane = make_plane(math.pi / 2, Point2(0.0, 0.0))
    assert abs(plane.normal.x - 1.0) < 1e-15
    assert abs(plane.normal.y) < 1e-15
    assert plane.offset == 0.0


def test_plane_contains_surface_points():
    angle = math.radians(150.0)
    anchor = Point2(19.5, 6.25)
    plane = make_plane(angle, anchor)
    assert abs(plane.evaluate(anchor)) < 1e-12
    # any point slid along the surface direction stays on the plane
    d = Point2(math.cos(angle), math.sin(angle))
    for t in (-3.0, 0.7, 12.0):
        p = anchor + t * d
        assert abs(plane.evaluate(p)) < 1e-12


def test_plane_normal_orthogonal_to_direction():
    rng = np.random.default_rng(11)
    for _ in range(20):
        angle = rng.uniform(0, 2 * math.pi)
        plane = make_plane(angle, Point2(*rng.uniform(-10, 10, 2)))
        d = Point2(math.cos(angle), math.sin(angle))
        assert abs(plane.normal.dot(d)) <= 1e-12
