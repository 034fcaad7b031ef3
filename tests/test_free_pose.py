import math

import numpy as np
import pytest

from spring_platform import (NotAssemblable, Point2, dialytic_residual,
                             solve_a2, solve_o2)


def radical_line_intersection(center, r1, r2):
    """Oracle: circle at origin radius r1, circle at `center` radius r2."""
    cx, cy = center
    d2 = cx * cx + cy * cy
    g = (r1 * r1 - r2 * r2 + d2) / 2.0
    # points satisfy x*cx + y*cy = g and x^2 + y^2 = r1^2
    n = math.hypot(cx, cy)
    base = g / n
    disc = r1 * r1 - base * base
    if disc < 0:
        return []
    ux, uy = cx / n, cy / n
    px, py = -uy, ux
    s = math.sqrt(max(disc, 0.0))
    return [(base * ux + s * px, base * uy + s * py),
            (base * ux - s * px, base * uy - s * py)]


def test_solve_a2_tangency():
    p = solve_a2(2.0, 3.5, 5.5)
    assert abs(p.x - 2.0) < 1e-12
    assert p.y == 0.0


def test_solve_a2_right_triangle():
    p = solve_a2(3.0, 4.0, 5.0)
    assert abs(p.x - 1.8) < 1e-12
    assert abs(p.y - 2.4) < 1e-12
    # oracle: both circle equations
    assert abs(p.x ** 2 + p.y ** 2 - 9.0) < 1e-12
    assert abs((p.x - 5.0) ** 2 + p.y ** 2 - 16.0) < 1e-12


def test_solve_a2_zero_lengths_not_assemblable():
    with pytest.raises(NotAssemblable):
        solve_a2(0.0, 0.0, 5.5)


def test_solve_o2_tangency_single_candidate():
    out = solve_o2(Point2(2.0, 0.0), 1.0, 1.0)
    assert len(out) == 1
    p, phi2 = out[0]
    assert abs(p.x - 1.0) < 1e-9 and abs(p.y) < 1e-9


def test_solve_o2_two_candidates_on_circles():
    a2 = Point2(1.8, 2.4)
    out = solve_o2(a2, 3.0, 3.0)
    assert len(out) == 2
    for p, phi2 in out:
        assert abs(p.x ** 2 + p.y ** 2 - 9.0) < 1e-9
        assert abs((p.x - a2.x) ** 2 + (p.y - a2.y) ** 2 - 9.0) < 1e-9
        # orientation points from the candidate towards a2
        assert abs(phi2 - math.atan2(a2.y - p.y, a2.x - p.x)) < 1e-12


def test_solve_o2_not_intersecting():
    with pytest.raises(NotAssemblable):
        solve_o2(Point2(10.0, 0.0), 1.0, 1.0)


def test_solve_o2_matches_radical_line_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a2 = Point2(rng.uniform(-5, 5), rng.uniform(0.3, 5))
        o2_target = Point2(rng.uniform(-5, 5), rng.uniform(-5, 5))
        r1 = o2_target.norm()
        r2 = (o2_target - a2).norm()
        got = solve_o2(a2, r1, r2)
        expected = radical_line_intersection((a2.x, a2.y), r1, r2)
        assert len(got) == len(set(
            (round(x, 6), round(y, 6)) for x, y in expected)) or len(got) == 2
        for p, _ in got:
            assert min(math.hypot(p.x - x, p.y - y) for x, y in expected) < 1e-8


def test_dialytic_residual_values():
    assert dialytic_residual(0.0, 1.0, 1.0) == 0.0
    assert dialytic_residual(2.0, 3.0, 1.0) == -8.0


def test_dialytic_residual_vanishes_at_solver_output():
    rng = np.random.default_rng(19)
    for _ in range(50):
        a2 = Point2(rng.uniform(-5, 5), rng.uniform(0.3, 5))
        o2_target = Point2(rng.uniform(-5, 5), rng.uniform(-5, 5))
        r1 = o2_target.norm()
        r2 = (o2_target - a2).norm()
        for p, _ in solve_o2(a2, r1, r2):
            a = -2.0 * a2.y
            b = p.x ** 2 - 2 * p.x * a2.x + (a2.x ** 2 + a2.y ** 2) - r2 ** 2
            c = p.x ** 2 - r1 ** 2
            scale = max(1.0, b * b, c * c, abs(a * a * c))
            assert abs(dialytic_residual(a, b, c)) <= 1e-9 * scale


def test_reference_zero_free_lengths_not_assemblable(params_zero):
    # zero-length legs from O1 and A1 cannot meet at an A2
    _, l02, l03 = params_zero.free_lengths
    with pytest.raises(NotAssemblable):
        solve_a2(l02, l03, params_zero.d_o1a1)


def test_free_pose_candidates_ordered_and_on_circles():
    # A2 from the leg circles about O1 and A1, then O2 from the circles
    # about O1 and A2, for a free pose built around random A2 and O2
    rng = np.random.default_rng(23)
    for _ in range(30):
        a2w = Point2(rng.uniform(-3, 3), rng.uniform(0.3, 4))
        o2w = Point2(rng.uniform(-3, 3), rng.uniform(-3, 3))
        d1 = rng.uniform(0.5, 6.0)
        l02 = a2w.norm()
        l03 = (a2w - Point2(d1, 0.0)).norm()
        l01 = o2w.norm()
        d2 = (o2w - a2w).norm()
        if min(l01, d2) < 1e-2 or l02 < 1e-2 or l03 < 1e-2:
            continue
        a2 = solve_a2(l02, l03, d1)
        candidates = [p for p, _ in solve_o2(a2, l01, d2)]
        assert 1 <= len(candidates) <= 2
        ys = [p.y for p in candidates]
        assert ys == sorted(ys, reverse=True)
        assert abs(a2.norm() - l02) <= 1e-9 * max(1.0, l02)
        assert abs((a2 - Point2(d1, 0.0)).norm() - l03) <= 1e-9 * max(1.0, l03)
        for o2 in candidates:
            assert abs(o2.norm() - l01) <= 1e-8 * max(1.0, l01)
            assert abs((o2 - a2).norm() - d2) <= 1e-8 * max(1.0, d2)
