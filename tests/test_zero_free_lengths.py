import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest

from _support import TABLE_ZERO, nearest_match, random_params, reference_params

from spring_platform import (MechanismParams, Point2,
                             UnsupportedFreeLengthPattern, solve_equilibria,
                             solver)
from spring_platform.mechanism import (point_e, pose_from, residual_pair,
                                       spring_state)
from spring_platform.solver import TRIM_RELATIVE, UnsquaredPair


def trig_rows(params, beta):
    """(A0, A1), (C0, C1) with A = A0 + L A1 and C = C0 + L C1 the force
    and moment residuals at beta, from the pose forms at L = 0 and 1."""
    e = point_e(params)
    (f0, m0), (f1, m1) = (residual_pair(pose_from(length, beta, params, e),
                                        params) for length in (0.0, 1.0))
    return (f0, f1 - f0), (m0, m1 - m0)


def spring_residual(params, e, s) -> float:
    """Larger of the force and moment residuals of the pose forms at the
    solution s, independent of the solver's tensors, each over the
    magnitudes of the spring forces or of their moments."""
    pose = pose_from(s.length, s.beta, params, e)
    f, m = residual_pair(pose, params)
    state = spring_state(pose, params)
    forces = [abs(force) for force in state.forces]
    arms = [abs((anchor - pose.p).norm()) for anchor in (
        params.base_origin, params.base_origin, params.a1_fixed)]
    return max(abs(f) / sum(forces), abs(m) / sum(
        force * arm for force, arm in zip(forces, arms)))


def test_linearize_rejects_nonzero_free_length(monkeypatch):
    # a nonzero free length never reaches the quartic: L01 alone gives the
    # 48 rows of the eliminant, and L02 or L03 alone fits no case
    def quartic(*args):
        raise AssertionError("the quartic ran on a nonzero free length")

    monkeypatch.setattr(solver, "_solve_zero", quartic)
    assert len(solve_equilibria(reference_params(l01=1.0))) == 48
    for free_lengths in ((0.0, 0.5, 0.0), (0.0, 0.0, 0.5)):
        with pytest.raises(UnsupportedFreeLengthPattern):
            solve_equilibria(dataclasses.replace(reference_params(),
                                                 free_lengths=free_lengths))


def test_force_length_coefficient_is_total_stiffness(params_zero):
    # the L coefficient of z A is (k1 + k2 + k3) z
    pair = UnsquaredPair(params_zero)
    assert np.allclose(pair.tensors(pair.foot())[0, 1], [0.0, 4.8, 0.0],
                       rtol=0.0, atol=1e-12)


def test_quartic_formulations_agree(params_zero):
    # the 2x2 Sylvester determinant of the tensor rows of z A and z C
    # against e^{2 i beta} times the trigonometric form of the eliminant,
    # at complex beta
    pair = UnsquaredPair(params_zero)
    (a0, a1), (c0, c1) = pair.tensors(pair.foot())[[0, 2], :2]
    coeffs = np.convolve(a0, c1) - np.convolve(a1, c0)
    rng = np.random.default_rng(53)
    for _ in range(20):
        beta = complex(rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5))
        z = cmath.exp(1j * beta)
        poly_val = sum(c * z ** k for k, c in enumerate(coeffs))
        (f0, f1), (m0, m1) = trig_rows(params_zero, beta)
        direct = z * z * (f0 * m1 - f1 * m0)
        assert abs(poly_val - direct) <= 1e-10 * max(1.0, abs(direct))


def test_reference_solution_set(solutions_zero):
    assert len(solutions_zero) == 4
    betas = [s.beta for s in solutions_zero]
    lengths = [s.length for s in solutions_zero]
    for beta_ref, length_ref in TABLE_ZERO:
        assert nearest_match(beta_ref, betas) < 5e-4
        assert nearest_match(length_ref, lengths) < 5e-4
    assert sum(1 for s in solutions_zero if s.is_real) == 2
    assert all(s.accepted for s in solutions_zero)


def test_all_roots_satisfy_both_equations(solutions_zero, params_zero):
    e = point_e(params_zero)
    for s in solutions_zero:
        assert s.rel_residual <= 1e-8
        f, m = residual_pair(pose_from(s.length, s.beta, params_zero, e),
                             params_zero)
        assert abs(f) <= 1e-7 and abs(m) <= 1e-6


def test_complex_roots_conjugate_pair(solutions_zero):
    complexes = [s for s in solutions_zero if not s.is_real]
    assert len(complexes) == 2
    a, b = complexes
    assert a.beta == b.beta.conjugate()
    assert a.length == b.length.conjugate()


def test_deterministic_ordering(params_zero):
    a = solve_equilibria(params_zero)
    b = solve_equilibria(params_zero)
    assert [(s.beta, s.length) for s in a] == [(s.beta, s.length) for s in b]


def test_both_cleared_equations_give_same_length(solutions_zero, params_zero):
    # at each root the two linear-in-L equations agree on L
    for s in solutions_zero:
        (f0, f1), (m0, m1) = trig_rows(params_zero, s.beta)
        l_force = -f0 / f1
        l_moment = -m0 / m1
        assert abs(l_force - l_moment) <= 1e-8 * max(1.0, abs(l_force))
        assert abs(l_force - s.length) <= 1e-8 * max(1.0, abs(s.length))


def test_surface_pulls_on_second_real_solution(solutions_zero, params_zero):
    # passive contact can only push the platform back into its own side;
    # a negative reaction coefficient means the surface must pull on the
    # pin to keep the pose in contact
    e = point_e(params_zero)
    # the surface normal: its direction turned by -pi/2, zero on the surface
    alpha = params_zero.surface_angle
    normal = Point2(math.cos(alpha - math.pi / 2), math.sin(alpha - math.pi / 2))
    offset = -params_zero.surface_point.dot(normal)

    def reaction(sol):
        pose = pose_from(sol.length.real, sol.beta.real, params_zero, e)
        state = spring_state(pose, params_zero)
        # spring directions point from base anchors to platform anchors,
        # so the elastic force on the platform is minus this sum
        pull = Point2(
            sum(f * s.x for f, s in zip(state.forces, state.directions)),
            sum(f * s.y for f, s in zip(state.forces, state.directions)))
        side = 1.0 if pose.o2.dot(normal) + offset > 0 else -1.0
        return side * pull.dot(normal)

    reals = sorted((s for s in solutions_zero if s.is_real),
                   key=lambda s: s.beta.real)
    assert reaction(reals[0]) < 0   # beta near -0.19: surface pulls
    assert reaction(reals[1]) > 0   # beta near 2.89: ordinary contact
    # the two real poses sit on opposite sides of the surface
    sides = []
    for sol in reals:
        pose = pose_from(sol.length.real, sol.beta.real, params_zero, e)
        sides.append(pose.o2.dot(normal) + offset > 0)
    assert sides[0] != sides[1]


def test_mirrored_geometry_negates_beta(params_zero, solutions_zero):
    # reflect everything across the surface line
    alpha = params_zero.surface_angle
    m = params_zero.surface_point

    def reflect(p):
        d = Point2(math.cos(alpha), math.sin(alpha))
        rel = p - m
        along = rel.dot(d)
        perp = rel.dot(Point2(-d.y, d.x))
        return m + along * d + (-perp) * Point2(-d.y, d.x)

    mirrored = dataclasses.replace(
        params_zero,
        base_origin=reflect(params_zero.base_origin),
        base_angle=2 * alpha - params_zero.base_angle,
        p_in_top=Point2(params_zero.p_in_top.x, -params_zero.p_in_top.y))
    mirrored_solutions = solve_equilibria(mirrored)
    betas = sorted((s.beta for s in solutions_zero),
                   key=lambda z: (z.real, z.imag))
    betas_m = sorted((-s.beta for s in mirrored_solutions),
                     key=lambda z: (z.real, z.imag))
    for a, b in zip(betas, betas_m):
        assert abs(a - b) < 1e-8
    lengths = sorted((s.length for s in solutions_zero),
                     key=lambda z: (z.real, z.imag))
    lengths_m = sorted((s.length for s in mirrored_solutions),
                       key=lambda z: (z.real, z.imag))
    for a, b in zip(lengths, lengths_m):
        assert abs(a - b) < 1e-8


def test_random_parameter_sets_verified():
    rng = np.random.default_rng(59)
    for _ in range(25):
        params = random_params(rng)
        e = point_e(params)
        solutions = solve_equilibria(params)
        finite = [s for s in solutions if math.isfinite(s.rel_residual)]
        assert len(finite) >= 4
        for s in finite:
            assert s.rel_residual <= 1e-8
            assert spring_residual(params, e, s) <= 1e-8


@pytest.mark.parametrize("displace", ["z", "L"])
def test_displaced_roots_rejected_on_the_tensor_scale(monkeypatch, params_zero,
                                                      displace):
    # Newton's roots displaced by 1e-6 relative: in z, with L re-solved
    # from the force row so that only C is off, or in L, and returned with
    # the pair's terms at the displaced point. Each row must be rejected,
    # with rel_residual = max(|z A| / S_A, |z C| / S_C) and
    # S_T = sum |t_ij| |u|^i |z|^j over the tensor terms of z T
    refine = solver.newton

    def displaced(pair, tensors, origin, u, z, s, sign):
        u, z, s, _ = refine(pair, tensors, origin, u, z, s, sign)
        if displace == "z":
            z = z * cmath.exp(1e-6j)
            (a0, a1), _ = tensors[[0, 2], :2]
            u = -np.polyval(a0[::-1], z) / np.polyval(a1[::-1], z)
        else:
            u = u + 1e-6 * (1 + np.abs(origin + u))
        return u, z, s, pair.terms(origin + u, (z + 1 / z) / 2,
                                   (z - 1 / z) / 2j)

    monkeypatch.setattr(solver, "newton", displaced)
    rng = np.random.default_rng(61)
    for params in [params_zero] + [random_params(rng) for _ in range(20)]:
        e = point_e(params)
        pair = UnsquaredPair(params)
        origin = pair.foot()
        tensors = np.abs(pair.tensors(origin))
        finite = [s for s in solve_equilibria(params)
                  if cmath.isfinite(s.beta)]
        assert len(finite) >= 2
        for s in finite:
            assert not s.accepted
            z = cmath.exp(1j * s.beta)
            u = abs(s.length - origin)
            f, m = residual_pair(pose_from(s.length, s.beta, params, e),
                                 params)
            scale_a, scale_c = (
                sum(tensors[k, i, j] * u ** i * abs(z) ** j
                    for i in range(3) for j in range(3)) for k in (0, 2))
            expected = max(abs(z * f) / scale_a, abs(z * m) / scale_c)
            assert expected > 1e-8
            assert abs(s.rel_residual - expected) <= 1e-6 * expected


def beta_pi_params():
    """A mechanism with a real equilibrium at beta = pi."""
    return MechanismParams(
        surface_point=Point2(6.0786140476331285, 0.7505332117827734),
        surface_angle=3.237885993554064,
        a1_in_base=Point2(3.8593124379399906, 0.0),
        a2_in_top=Point2(1.3169263573171162, 0.0),
        p_in_top=Point2(0.971626778987843, 3.99711640272775),
        base_origin=Point2(3.4807984506438405, -1.9513673782922885),
        base_angle=1.7957430321414596,
        stiffness=(1.9093059432330257, 3.904488915059245, 3.6214071500016307),
        free_lengths=(0.0, 0.0, 0.0))


def balanced_pin_params(params, shift=0.0):
    """params with the pin on the top X axis at (1 + shift) times
    x = (k2 + k3) d_o2a2 / (k1 + k2 + k3), where the force residual does
    not depend on beta at shift 0."""
    k1, k2, k3 = params.stiffness
    x = (k2 + k3) * params.d_o2a2 / (k1 + k2 + k3)
    return dataclasses.replace(params, p_in_top=Point2(x * (1 + shift), 0.0))


def test_real_root_at_beta_pi():
    # a real equilibrium at beta = pi, where the tan-half variable has its
    # pole; the z form finds it among the quartic's roots with no special case
    solutions = solve_equilibria(beta_pi_params())
    assert len(solutions) == 4
    assert all(s.accepted and s.is_real and s.note == "" for s in solutions)
    at_pi = [s for s in solutions
             if abs(math.remainder(s.beta.real - math.pi, 2 * math.pi)) <= 1e-9]
    assert len(at_pi) == 1
    assert abs(at_pi[0].length - (-0.204368908200156)) <= 1e-9


def test_balanced_pin_has_no_finite_beta_roots(params_zero):
    # with the pin at x = (k2 + k3) d_o2a2 / (k1 + k2 + k3) on the top X
    # axis the force residual does not depend on beta: z^0 and z^4 vanish
    solutions = solve_equilibria(balanced_pin_params(params_zero))
    assert len(solutions) == 4
    infinite = [s for s in solutions if not cmath.isfinite(s.beta)]
    assert len(infinite) == 2
    for s in infinite:
        assert not s.accepted and math.isnan(s.length.real)
        assert s.note == "no finite beta"
    finite = [s for s in solutions if cmath.isfinite(s.beta)]
    assert all(s.accepted and s.rel_residual <= 1e-8 for s in finite)
    # a surface point far out on both axes leaves one coefficient of the
    # quartic above the cutoff: its four roots have no finite beta
    far = dataclasses.replace(params_zero, surface_point=Point2(1e24, 1e24))
    solutions = solve_equilibria(far)
    assert [s.note for s in solutions] == ["no finite beta"] * 4
    assert not any(s.accepted or cmath.isfinite(s.beta) for s in solutions)


@pytest.mark.parametrize("shift", [1e-6, -1e-6, 2e-6])
def test_rejected_quartic_roots_are_named(params_zero, shift):
    # just off the balanced pin z^0 and z^4 are kept just above the cutoff:
    # two roots lie near z = 0 and z = oo and do not refine to the
    # acceptance level. Each rejected row with a finite beta names its kind
    solutions = solve_equilibria(balanced_pin_params(params_zero, shift))
    rejected = [s for s in solutions
                if not s.accepted and cmath.isfinite(s.beta)]
    assert rejected
    assert all(s.note == "refinement not converged" for s in rejected)


def _quartic(params):
    pair = UnsquaredPair(params)
    (a0, a1), (c0, c1) = pair.tensors(pair.foot())[[0, 2], :2]
    return np.convolve(a0, c1) - np.convolve(a1, c0)


def _trimmed_roots(quartic):
    """The count of low coefficients at or below TRIM_RELATIVE of the
    largest, and the 60-digit mpmath.polyroots of the quartic with them and
    the high ones there dropped one by one from the ends."""
    cutoff = TRIM_RELATIVE * np.max(np.abs(quartic))
    kept = quartic
    while abs(kept[-1]) <= cutoff:
        kept = kept[:-1]
    low = 0
    while abs(kept[low]) <= cutoff:
        low += 1
    with mpmath.workdps(60):
        roots = mpmath.polyroots([mpmath.mpc(c) for c in kept[low:][::-1]],
                                 maxsteps=200, extraprec=200)
    return low, np.array(roots, dtype=complex)


def test_degree_drop_agrees_with_poly_roots(params_zero):
    # the companion roots after the written-out degree drop against a
    # 60-digit reference, which solves no companion eigenproblem, that
    # drops the end coefficients one by one and counts each low one
    # dropped as a root at 0. Pins moved off the balanced position
    # put |z^0| and |z^4| on both sides of TRIM_RELATIVE of the largest
    # coefficient
    rng = np.random.default_rng(59)
    quartics = [_quartic(random_params(rng)) for _ in range(100)]
    shifts = [0.0] + [sign * 10.0 ** k for sign in (1, -1)
                      for k in np.arange(-8.0, -4.9, 0.25)]
    quartics += [_quartic(balanced_pin_params(params_zero, shift))
                 for shift in shifts]
    drops = set()
    for quartic in quartics:
        roots, at_zero, at_infinity = solver._quartic_roots(quartic)
        low, expected = _trimmed_roots(quartic)
        assert at_zero == low
        assert at_infinity == 4 - low - len(expected)
        drops.add(at_zero + at_infinity)
        assert len(roots) == len(expected)
        # when z^0 and z^4 are kept just above the cutoff the companion
        # eigenvalues are accurate only in norm, off by up to 0.3 relative
        # at |z| ~ 1e-12. Three Newton steps on the quartic take both sets
        # to the roots its coefficients define
        roots, expected = (_polished(quartic, z) for z in (roots, expected))
        unmatched = list(expected)
        for root in roots:
            gaps = np.abs(np.array(unmatched) - root)
            assert gaps.min() <= 1e-10 * abs(root)
            unmatched.pop(int(np.argmin(gaps)))
    assert drops == {0, 2}


def _polished(quartic, z):
    slope = np.polynomial.polynomial.polyder(quartic)
    for _ in range(3):
        z = z - (np.polynomial.polynomial.polyval(z, quartic)
                 / np.polynomial.polynomial.polyval(z, slope))
    return z


def test_seeded_corpus_real_roots():
    # real accepted roots of the first 100 seed-59 mechanisms, as the
    # tan-half formulation found them
    rng = np.random.default_rng(59)
    real = sum(s.accepted and s.is_real
               for _ in range(100)
               for s in solve_equilibria(random_params(rng)))
    assert real == 242


def test_degenerate_inputs_raise():
    # with the pin at the top origin O2 does not turn with beta. The
    # one-nonzero eliminants lose their degree there and the solve raises
    # DegenerateQuartic (test_degenerate_pins); the zero case's quartic
    # keeps its four roots, and each is an equilibrium of the spring model
    for pin in (Point2(0.0, 0.0), Point2(1e-30, 1e-30)):
        params = dataclasses.replace(reference_params(), p_in_top=pin)
        solutions = solve_equilibria(params)
        assert len(solutions) == 4 and all(s.accepted for s in solutions)
        assert sum(s.is_real for s in solutions) == 2
        e = point_e(params)
        for s in solutions:
            assert spring_residual(params, e, s) <= 1e-12
