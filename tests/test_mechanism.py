import cmath
import dataclasses
import math

import numpy as np
import pytest

from _support import TABLE_ZERO, reference_params

from spring_platform import Point2, ZeroLengthSpring
from spring_platform.mechanism import (MechanismParams, point_e, pose_from,
                                       residual_pair, spring_state)


def test_point_e_reference(params_zero):
    e = point_e(params_zero)
    # must lie on both the base axis and the surface line
    phi1, alpha = params_zero.base_angle, params_zero.surface_angle
    o1, m = params_zero.base_origin, params_zero.surface_point
    assert abs((e.x - o1.x) * math.sin(phi1) - (e.y - o1.y) * math.cos(phi1)) < 1e-9
    assert abs((e.x - m.x) * math.sin(alpha) - (e.y - m.y) * math.cos(alpha)) < 1e-9
    # computed once per mechanism
    assert point_e(params_zero) is e


def test_pose_lands_on_surface(params_zero):
    e = point_e(params_zero)
    alpha = params_zero.surface_angle
    n = Point2(math.cos(alpha - math.pi / 2), math.sin(alpha - math.pi / 2))
    d0 = -params_zero.surface_point.dot(n)
    rng = np.random.default_rng(2)
    for _ in range(25):
        pose = pose_from(rng.uniform(-5, 15), rng.uniform(-math.pi, math.pi),
                         params_zero, e)
        assert abs(pose.p.dot(n) + d0) < 1e-9


def test_pose_zero_length_at_matching_angle(params_zero):
    e = point_e(params_zero)
    alpha = params_zero.surface_angle
    beta = -alpha - math.pi  # makes the top-frame angle wrap to zero
    pose = pose_from(0.0, beta, params_zero, e)
    assert abs(pose.p.x - e.x) < 1e-12 and abs(pose.p.y - e.y) < 1e-12


def test_pose_round_trip_through_top_frame(params_zero):
    # transforming the pin coordinates through the derived top-platform
    # frame must land back on P
    e = point_e(params_zero)
    rng = np.random.default_rng(5)
    for _ in range(20):
        length = rng.uniform(0, 12)
        beta = rng.uniform(-math.pi, math.pi)
        pose = pose_from(length, beta, params_zero, e)
        phi2 = params_zero.surface_angle + beta + math.pi
        c, s = math.cos(phi2), math.sin(phi2)
        px2, py2 = params_zero.p_in_top.x, params_zero.p_in_top.y
        x = pose.o2.x + c * px2 - s * py2
        y = pose.o2.y + s * px2 + c * py2
        assert abs(x - pose.p.x) < 1e-9
        assert abs(y - pose.p.y) < 1e-9


def test_platform_rigidity(params_zero):
    e = point_e(params_zero)
    rng = np.random.default_rng(6)
    for _ in range(20):
        pose = pose_from(rng.uniform(-5, 15), rng.uniform(-4, 4), params_zero, e)
        d = (pose.o2 - pose.a2).norm()
        assert abs(d - params_zero.d_o2a2) <= 1e-12 * params_zero.d_o2a2


def test_spring_force_law():
    params = dataclasses.replace(reference_params(), stiffness=(2.0, 1.0, 1.0),
                                 free_lengths=(1.0, 0.0, 0.0))
    e = point_e(params)
    pose = pose_from(3.0, 0.3, params, e)
    state = spring_state(pose, params)
    assert abs(state.forces[0] - 2.0 * (state.lengths[0] - 1.0)) < 1e-12
    # force vanishes at the free length
    params2 = dataclasses.replace(params,
                                  free_lengths=(state.lengths[0], 0.0, 0.0))
    state2 = spring_state(pose, params2)
    assert abs(state2.forces[0]) < 1e-12


def test_spring_lengths_match_euclidean(params_zero):
    e = point_e(params_zero)
    pose = pose_from(7.0, -0.2, params_zero, e)
    state = spring_state(pose, params_zero)
    o1 = params_zero.base_origin
    a1 = params_zero.a1_fixed
    expected = [math.hypot(pose.o2.x - o1.x, pose.o2.y - o1.y),
                math.hypot(pose.a2.x - o1.x, pose.a2.y - o1.y),
                math.hypot(pose.a2.x - a1.x, pose.a2.y - a1.y)]
    for got, ref in zip(state.lengths, expected):
        assert abs(got - ref) < 1e-12


def test_unit_directions(params_zero):
    e = point_e(params_zero)
    pose = pose_from(6.0, 1.1, params_zero, e)
    state = spring_state(pose, params_zero)
    for s in state.directions:
        assert abs(s.norm() - 1.0) <= 1e-12


def test_zero_length_spring_raises():
    params = reference_params()
    e = point_e(params)
    pose = pose_from(5.0, 0.5, params, e)
    squeezed = pose._replace(o2=params.base_origin)
    with pytest.raises(ZeroLengthSpring):
        spring_state(squeezed, params)


def test_residuals_at_published_roots(params_zero):
    e = point_e(params_zero)
    for beta, length in TABLE_ZERO[:2]:
        pose = pose_from(length, beta, params_zero, e)
        f, m = residual_pair(pose, params_zero)
        # published values carry 4 decimals
        assert abs(f) < 1e-3 * 40
        assert abs(m) < 1e-3 * 400


def test_residuals_at_complex_published_root(params_zero):
    e = point_e(params_zero)
    beta, length = TABLE_ZERO[2]
    pose = pose_from(length, beta, params_zero, e)
    f, m = residual_pair(pose, params_zero)
    assert abs(f) < 1e-2 * 100
    assert abs(m) < 1e-2 * 1000


def test_force_projection_matches_componentwise(params_zero):
    rng = np.random.default_rng(8)
    e = point_e(params_zero)
    u = Point2(math.cos(params_zero.surface_angle),
               math.sin(params_zero.surface_angle))
    for _ in range(10):
        pose = pose_from(rng.uniform(0, 10), rng.uniform(-3, 3), params_zero, e)
        state = spring_state(pose, params_zero)
        total = sum(f * (s.x * u.x + s.y * u.y)
                    for f, s in zip(state.forces, state.directions))
        f, _ = residual_pair(pose, params_zero)
        assert abs(f - total) < 1e-12 * max(1.0, abs(total))


def test_rigid_frame_invariance(params_zero):
    rng = np.random.default_rng(9)
    e = point_e(params_zero)
    samples = [(rng.uniform(0, 10), rng.uniform(-3, 3)) for _ in range(5)]
    base_vals = [residual_pair(pose_from(l, b, params_zero, e), params_zero)
                 for l, b in samples]
    for _ in range(10):
        theta = rng.uniform(-math.pi, math.pi)
        t = Point2(*rng.uniform(-10, 10, 2))
        c, s = math.cos(theta), math.sin(theta)

        def rot(p):
            return Point2(c * p.x - s * p.y + t.x, s * p.x + c * p.y + t.y)

        moved = dataclasses.replace(
            params_zero,
            surface_point=rot(params_zero.surface_point),
            base_origin=rot(params_zero.base_origin),
            surface_angle=params_zero.surface_angle + theta,
            base_angle=params_zero.base_angle + theta)
        e2 = point_e(moved)
        for (l, b), (f0, m0) in zip(samples, base_vals):
            f1, m1 = residual_pair(pose_from(l, b, moved, e2), moved)
            assert abs(f1 - f0) <= 1e-9 * max(1.0, abs(f0))
            assert abs(m1 - m0) <= 1e-9 * max(1.0, abs(m0))


def test_scale_covariance(params_zero):
    s = 2.75
    scaled = MechanismParams(
        surface_point=s * params_zero.surface_point,
        surface_angle=params_zero.surface_angle,
        a1_in_base=s * params_zero.a1_in_base,
        a2_in_top=s * params_zero.a2_in_top,
        p_in_top=s * params_zero.p_in_top,
        base_origin=s * params_zero.base_origin,
        base_angle=params_zero.base_angle,
        stiffness=params_zero.stiffness,
        free_lengths=params_zero.free_lengths)
    e = point_e(params_zero)
    e2 = point_e(scaled)
    rng = np.random.default_rng(10)
    for _ in range(10):
        length = rng.uniform(0, 10)
        beta = rng.uniform(-3, 3)
        f0, m0 = residual_pair(pose_from(length, beta, params_zero, e),
                               params_zero)
        f1, m1 = residual_pair(pose_from(s * length, beta, scaled, e2), scaled)
        assert abs(f1 - s * f0) <= 1e-9 * max(1.0, abs(s * f0))
        assert abs(m1 - s * s * m0) <= 1e-9 * max(1.0, abs(s * s * m0))


def test_invalid_params_rejected():
    good = reference_params()
    with pytest.raises(ValueError):
        dataclasses.replace(good, stiffness=(0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        dataclasses.replace(good, free_lengths=(-1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        dataclasses.replace(good, a1_in_base=Point2(5.5, 0.1))
    with pytest.raises(ValueError):
        dataclasses.replace(good, a2_in_top=Point2(-4.5, 0.0))
    for a1 in (Point2(0.0, 0.0), Point2(-5.5, 0.0)):
        with pytest.raises(ValueError, match="distance O1-A1 must be positive"):
            dataclasses.replace(good, a1_in_base=a1)
    # two or four values of a three-value field fail here, not in the solve
    for name in ("stiffness", "free_lengths"):
        for values in ((1.5, 1.85), (1.5, 1.85, 1.45, 1.0)):
            with pytest.raises(ValueError, match=name):
                dataclasses.replace(good, **{name: values})
    # finite in radians but not in degrees, as report.json writes them
    for name in ("surface_angle", "base_angle"):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(good, **{name: 4e306})


# each coordinate and angle of MechanismParams, as (field, component)
COORDINATES = [(name, part) for name in ("surface_point", "a1_in_base",
                                         "a2_in_top", "p_in_top",
                                         "base_origin")
               for part in ("x", "y")] + [("surface_angle", None),
                                          ("base_angle", None)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "name, part", COORDINATES,
    ids=[name if part is None else f"{name}.{part}"
         for name, part in COORDINATES])
def test_non_finite_params_rejected(name, part, value):
    # a NaN anchor y passes the X-axis check (abs(nan) > 0 is False), so
    # finiteness is checked on its own, before the solve can trip on it
    good = reference_params()
    if part is not None:
        value = dataclasses.replace(getattr(good, name), **{part: value})
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(good, **{name: value})


def test_complex_pose_evaluation(params_zero):
    e = point_e(params_zero)
    pose = pose_from(6.0 + 8.0j, -0.4 + 1.8j, params_zero, e)
    f, m = residual_pair(pose, params_zero)
    assert isinstance(f, complex)
    assert cmath.isfinite(f) and cmath.isfinite(m)


def test_residual_pair_equals_single_residuals():
    # one spring evaluation serves both residuals, with the arithmetic of
    # the per-residual sums over the springs
    rng = np.random.default_rng(12)
    for params in (reference_params(l01=0.0), reference_params(l01=1.0)):
        e = point_e(params)
        u = Point2(math.cos(params.surface_angle),
                   math.sin(params.surface_angle))
        anchors = (params.base_origin, params.base_origin, params.a1_fixed)
        for _ in range(20):
            length = rng.uniform(-5, 15)
            beta = rng.uniform(-math.pi, math.pi)
            for pose in (pose_from(length, beta, params, e),
                         pose_from(complex(length, rng.uniform(-5, 5)),
                                   complex(beta, rng.uniform(-2, 2)),
                                   params, e)):
                state = spring_state(pose, params)
                force = moment = 0.0
                for f, s in zip(state.forces, state.directions):
                    force = force + f * s.dot(u)
                for anchor, f, s in zip(anchors, state.forces,
                                        state.directions):
                    moment = moment + (anchor - pose.p).cross(f * s)
                assert residual_pair(pose, params) == (force, moment)
