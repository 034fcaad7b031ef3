import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest

from _support import nearest_match, random_params, reference_params

from spring_platform import (CPolynomial, MechanismError,
                             WrongFreeLengthPattern, abcd_at, quartic_pair_at,
                             residual_margin, resultant_polynomial,
                             solve_one_nonzero_free_length)
from spring_platform.mechanism import (point_e, pose_from, pose_from_trig,
                                      residual_pair)
from spring_platform.one_nonzero import (_UnsquaredPair, _follow_branch,
                                         _gap_grid_rescue, _polish_squared,
                                         _quartic_pair_fast, _squared_rel,
                                         quartic_pair)
from spring_platform.polynomials import horner, poly_roots, poly_roots_batch


def test_pattern_enforced(params_zero):
    with pytest.raises(WrongFreeLengthPattern):
        solve_one_nonzero_free_length(params_zero)
    bad = dataclasses.replace(reference_params(), free_lengths=(0.0, 0.5, 0.0))
    with pytest.raises(WrongFreeLengthPattern):
        solve_one_nonzero_free_length(bad)


def test_unsquared_identity_against_residuals(params_one):
    # A L1 - B must equal L1 times the force residual (same for moments)
    e = point_e(params_one)
    rng = np.random.default_rng(61)
    for _ in range(50):
        length = rng.uniform(0.5, 12.0)
        beta = rng.uniform(-math.pi, math.pi)
        a, b, c, d = abcd_at(length, beta, params_one, e)
        pose = pose_from(length, beta, params_one, e)
        f_res, m_res = residual_pair(pose, params_one)
        o1 = params_one.base_origin
        l1 = math.hypot(pose.o2.x - o1.x, pose.o2.y - o1.y)
        assert abs(a * l1 - b - l1 * f_res) <= 1e-9 * max(1.0, abs(l1 * f_res))
        assert abs(c * l1 - d - l1 * m_res) <= 1e-9 * max(1.0, abs(l1 * m_res))


def test_free_length_terms_vanish_in_limit():
    params = reference_params(l01=1e-9)
    e = point_e(params)
    a, b, c, d = abcd_at(5.0, 0.7, params, e)
    assert abs(b) < 1e-7 and abs(d) < 1e-6


def test_unsquared_pair_at_true_equilibrium(params_one):
    # the true equilibrium nearest the published row (-0.2255, 7.355)
    # zeroes the unsquared pair; the published values themselves sit about
    # 1e-2 off these equations (a recorded source conflict), so the pair
    # is small there only at the percent level
    e = point_e(params_one)

    def scaled(beta, length):
        a, b, c, d = abcd_at(length, beta, params_one, e)
        pose = pose_from(length, beta, params_one, e)
        o1 = params_one.base_origin
        l1 = math.hypot(pose.o2.x - o1.x, pose.o2.y - o1.y)
        return (abs(a * l1 - b) / (abs(a * l1) + abs(b)),
                abs(c * l1 - d) / (abs(c * l1) + abs(d)))

    rf, rm = scaled(-0.23861, 7.32169)
    assert rf < 1e-4 and rm < 1e-4
    rf_pub, rm_pub = scaled(-0.2255, 7.355)
    assert rf_pub < 0.2 and rm_pub < 0.2


def test_quartic_pair_interpolates_exactly(params_one):
    e = point_e(params_one)
    rng = np.random.default_rng(67)
    for _ in range(10):
        beta = rng.uniform(-math.pi, math.pi)
        f_coeffs, m_coeffs = quartic_pair(math.cos(beta), math.sin(beta),
                                          params_one, e)
        for _ in range(5):
            length = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            a, b, c, d = abcd_at(length, beta, params_one, e)
            pose = pose_from(length, beta, params_one, e)
            o1 = params_one.base_origin
            l1sq = (pose.o2.x - o1.x) ** 2 + (pose.o2.y - o1.y) ** 2
            direct_f = a * a * l1sq - b * b
            direct_m = c * c * l1sq - d * d
            interp_f = sum(ck * length ** k for k, ck in enumerate(f_coeffs))
            interp_m = sum(ck * length ** k for k, ck in enumerate(m_coeffs))
            assert abs(interp_f - direct_f) <= 1e-8 * max(1.0, abs(direct_f))
            assert abs(interp_m - direct_m) <= 1e-8 * max(1.0, abs(direct_m))


def test_quartic_degree_bounded(params_one):
    # a sixth probe value must be consistent with the five-node quartic
    e = point_e(params_one)
    f_coeffs, m_coeffs = quartic_pair_at(0.37, params_one, e)
    assert len(f_coeffs) == 5 and len(m_coeffs) == 5


def test_published_root_nearly_zeroes_quartics(params_one):
    e = point_e(params_one)
    f_coeffs, m_coeffs = quartic_pair(math.cos(-0.2255), math.sin(-0.2255),
                                      params_one, e)
    scale_f = sum(abs(c) * 7.355 ** k for k, c in enumerate(f_coeffs))
    scale_m = sum(abs(c) * 7.355 ** k for k, c in enumerate(m_coeffs))
    f_val = sum(c * 7.355 ** k for k, c in enumerate(f_coeffs))
    m_val = sum(c * 7.355 ** k for k, c in enumerate(m_coeffs))
    assert abs(f_val) < 0.05 * scale_f
    assert abs(m_val) < 0.05 * scale_m


def test_resultant_degree(params_one):
    poly = resultant_polynomial(params_one)
    assert poly.degree == 48


def test_resultant_pole_factor(params_one):
    # the cleared eliminant contains the tan-half pole factor with
    # multiplicity six: exactly 12 of the 48 roots sit at +-i
    poly = resultant_polynomial(params_one)
    mult = 0
    work = poly
    while work.degree > 2:
        quotient, rem = work.deflate_unit_quadratic()
        if rem > 1e-6:
            break
        work = quotient
        mult += 1
    assert mult == 6
    roots = poly_roots(poly)
    near_pole = sum(1 for r in roots
                    if min(abs(r - 1j), abs(r + 1j)) < 0.15)
    assert near_pole == 12


def test_beta_pi_not_a_solution(params_one):
    # the quartic pair at the straight-back angle yields no accepted
    # solution (the near-shared large complex root is the first-spring
    # zero-length factor both quartics inherit, and the unsquared filter
    # rejects it)
    from spring_platform.one_nonzero import _beta_pi_solutions
    pair = _UnsquaredPair(params_one, point_e(params_one))
    candidates = _beta_pi_solutions(pair, 1e-6)
    assert all(not s.accepted for s in candidates)


def test_candidate_count_and_flags(solutions_one):
    assert len(solutions_one) == 48
    accepted = [s for s in solutions_one if s.accepted]
    rejected = [s for s in solutions_one if not s.accepted]
    assert len(accepted) + len(rejected) == 48
    assert all(s.rel_residual <= 1e-6 for s in accepted)
    assert all(s.rel_residual > 1e-6 for s in rejected)
    # both true equilibria present among the real accepted solutions
    real_accepted = [s for s in accepted if s.is_real]
    assert len(real_accepted) == 2
    betas = [s.beta for s in real_accepted]
    assert nearest_match(2.8577, betas) < 1e-3
    assert nearest_match(-0.2386, betas) < 1e-3


def test_real_candidates_count(solutions_one):
    # the squared pair admits eight real roots: the two equilibria plus
    # the sign-flipped combinations that squaring introduced
    real = [s for s in solutions_one if s.is_real]
    assert len(real) == 8
    expected = [(-0.2633, 7.1060), (-0.2386, 7.3217), (-0.1446, 7.4111),
                (-0.1191, 7.6393), (2.8577, 6.7974), (2.8761, 6.9575),
                (2.9001, 6.6859), (2.9184, 6.8462)]
    for beta_ref, length_ref in expected:
        assert nearest_match(beta_ref, [s.beta for s in real]) < 1e-3
        assert nearest_match(length_ref, [s.length for s in real]) < 1e-3


def test_rejected_satisfy_squared_pair(solutions_one):
    # extraneousness comes from squaring: converged rejected roots still
    # satisfy the squared quartic pair
    converged_rejected = [s for s in solutions_one
                          if not s.accepted and s.squared_residual < 1e-6]
    assert len(converged_rejected) >= 15
    for s in converged_rejected:
        assert s.rel_residual > 1e-2  # clearly extraneous, not borderline


def test_margin_separation(solutions_one):
    worst_acc, best_rej, ratio = residual_margin(solutions_one)
    assert worst_acc < 1e-9
    assert best_rej > 1e-2
    assert ratio > 100.0


def test_conjugate_closure(solutions_one):
    accepted = [(s.beta, s.length) for s in solutions_one if s.accepted]
    for beta, length in accepted:
        if abs(beta.imag) < 1e-9:
            continue
        assert any(abs(beta.conjugate() - b) + abs(length.conjugate() - l)
                   < 1e-9 for b, l in accepted)


def test_pole_artifacts_flagged(solutions_one):
    pole = [s for s in solutions_one if "pole artifact" in s.note]
    assert len(pole) == 12
    assert all(not s.accepted for s in pole)


def test_deterministic(params_one, solutions_one):
    again = solve_one_nonzero_free_length(params_one)
    # repr comparison keeps unconverged entries with nan lengths comparable
    assert [repr((s.beta, s.length, s.accepted)) for s in again] == \
        [repr((s.beta, s.length, s.accepted)) for s in solutions_one]


def test_continuity_to_zero_free_length_case(params_zero):
    # with a tiny first free length every real accepted solution stays
    # near one of the zero-free-length equilibria; the eliminant loses all
    # structure in this limit (the squared pair degenerates to a shared
    # factor), so conditioning may legitimately stop the solve
    from spring_platform import InterpolationMismatch, solve_zero_free_lengths
    tiny = dataclasses.replace(params_zero, free_lengths=(1e-4, 0.0, 0.0))
    reference = [s.beta.real for s in solve_zero_free_lengths(params_zero)
                 if s.is_real]
    try:
        solutions = solve_one_nonzero_free_length(tiny)
    except InterpolationMismatch as exc:
        pytest.skip(f"conditioning prevented the L01 = 1e-4 solve "
                    f"(documented limitation): {exc}")
    real_accepted = [s for s in solutions if s.accepted and s.is_real]
    if not real_accepted:
        pytest.skip("conditioning prevented real-solution recovery at "
                    "L01 = 1e-4 (documented limitation)")
    for s in real_accepted:
        assert min(abs(s.beta.real - b) for b in reference) < 1e-2


def test_random_case_sets_accepted_residuals():
    rng = np.random.default_rng(71)
    for _ in range(3):
        params = random_params(rng, l01=float(rng.uniform(0.2, 2.0)))
        solutions = solve_one_nonzero_free_length(params)
        assert len(solutions) >= 46
        for s in solutions:
            if s.accepted:
                assert s.rel_residual <= 1e-6


def pose_based_terms(length, cos_beta, sin_beta, params, e):
    """(A, B, C, D, L1^2) written against the pose and Point2 arithmetic:
    the reference the allocation-free evaluation reproduces bit for bit."""
    ca = math.cos(params.surface_angle)
    sa = math.sin(params.surface_angle)
    k1, k2, k3 = params.stiffness
    l01 = params.free_lengths[0]
    pose = pose_from_trig(length, cos_beta, sin_beta, params, e)
    o1 = params.base_origin
    a1 = params.a1_fixed
    d_o2 = pose.o2 - o1
    d_a2o1 = pose.a2 - o1
    d_a2a1 = pose.a2 - a1
    force_coef = ((k1 * d_o2.x + k2 * d_a2o1.x + k3 * d_a2a1.x) * ca
                  + (k1 * d_o2.y + k2 * d_a2o1.y + k3 * d_a2a1.y) * sa)
    r1 = o1 - pose.p
    r3 = a1 - pose.p
    moment_coef = (r1.cross(k1 * d_o2) + r1.cross(k2 * d_a2o1)
                   + r3.cross(k3 * d_a2a1))
    force_rhs = k1 * l01 * (d_o2.x * ca + d_o2.y * sa)
    moment_rhs = k1 * l01 * r1.cross(d_o2)
    l1_sq = d_o2.x * d_o2.x + d_o2.y * d_o2.y
    return force_coef, force_rhs, moment_coef, moment_rhs, l1_sq


def test_unsquared_pair_is_bit_identical_to_pose_forms(params_one):
    e = point_e(params_one)
    pair = _UnsquaredPair(params_one, e)
    rng = np.random.default_rng(67)
    lengths, betas = [], []
    for _ in range(40):
        length = complex(rng.uniform(-5, 15), rng.uniform(-8, 8))
        beta = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        for kind in (float, complex, np.complex128, np.clongdouble):
            value_l = kind(length.real) if kind is float else kind(length)
            value_b = beta.real if kind is float else beta
            trig = (math.cos, math.sin) if kind is float else (cmath.cos, cmath.sin)
            cb, sb = (kind(f(value_b)) for f in trig)
            got = pair.terms(value_l, cb, sb)
            want = pose_based_terms(value_l, cb, sb, params_one, e)
            for g, w in zip(got, want):
                assert type(g) is type(w) and g == w
        lengths.append(length)
        betas.append(beta)
    # elementwise over extended-precision arrays, as the eliminant samples
    wide = np.clongdouble
    ls = np.array(lengths, dtype=wide)
    cbs = np.array([cmath.cos(b) for b in betas], dtype=wide)
    sbs = np.array([cmath.sin(b) for b in betas], dtype=wide)
    arrays = pair.terms(ls, cbs, sbs)
    for k in range(len(lengths)):
        want = pose_based_terms(ls[k], cbs[k], sbs[k], params_one, e)
        assert all(g[k] == w for g, w in zip(arrays, want))
    # elementwise over complex128 stacks, as refinement evaluates them: the
    # terms and the squared pair, with one stack per argument and with a
    # column of lengths broadcast against a row of angles
    ls = np.array(lengths)
    cbs = np.array([cmath.cos(b) for b in betas])
    sbs = np.array([cmath.sin(b) for b in betas])
    arrays = pair.terms(ls, cbs, sbs)
    squares = pair.squared(ls, cbs, sbs)
    grid = pair.squared(ls[:8, None], cbs[None, :], sbs[None, :])
    for k in range(len(lengths)):
        want = pose_based_terms(ls[k], cbs[k], sbs[k], params_one, e)
        assert all(g[k] == w for g, w in zip(arrays, want))
        a, b, c, d, l1_sq = want
        assert squares[0][k] == a ** 2 * l1_sq - b ** 2
        assert squares[1][k] == c ** 2 * l1_sq - d ** 2
        for j in range(8):
            a, b, c, d, l1_sq = pose_based_terms(ls[j], cbs[k], sbs[k],
                                                 params_one, e)
            assert grid[0][j, k] == a ** 2 * l1_sq - b ** 2
            assert grid[1][j, k] == c ** 2 * l1_sq - d ** 2


# One-candidate references for the stacked refinement stages, in scalar
# arithmetic: Python complex where a point starts as one, numpy scalars
# elsewhere.

def _tan_half_one(x):
    return (1 - x * x) / (1 + x * x), 2 * x / (1 + x * x)


def _quartic_pair_one(x, pair):
    cb, sb = _tan_half_one(x)
    f_vals, m_vals = np.empty(5, dtype=complex), np.empty(5, dtype=complex)
    for i, node in enumerate(pair.fast_nodes):
        f_vals[i], m_vals[i] = pair.squared(complex(node), cb, sb)
    return pair.fast_inverse @ f_vals, pair.fast_inverse @ m_vals


def _squared_rel_one(x, length, pair):
    f, m, fs, ms = pair.squared_scaled(length, *_tan_half_one(x))
    return max(abs(f) / (fs + 1e-30), abs(m) / (ms + 1e-30))


def _polish_one(x, length, pair, steps=40):
    def values(xv, lv):
        return pair.squared(lv, *_tan_half_one(xv))

    f, m = values(x, length)
    norm = abs(f) + abs(m)
    for _ in range(steps):
        if norm == 0:
            break
        hx, hl = 1e-7 * (1 + abs(x)), 1e-7 * (1 + abs(length))
        fx, mx = values(x + hx, length)
        fl, ml = values(x, length + hl)
        j11, j12 = (fx - f) / hx, (fl - f) / hl
        j21, j22 = (mx - m) / hx, (ml - m) / hl
        det = j11 * j22 - j12 * j21
        if det == 0:
            break
        dx = (f * j22 - m * j12) / det
        dl = (j11 * m - j21 * f) / det
        cap = 1.0 + abs(x)
        if abs(dx) > cap:
            scale = cap / abs(dx)
            dx *= scale
            dl *= scale
        nf, nm = values(x - dx, length - dl)
        if abs(nf) + abs(nm) >= norm:
            break
        x, length = x - dx, length - dl
        f, m, norm = nf, nm, abs(nf) + abs(nm)
        if abs(dx) + abs(dl) < 1e-15 * (1 + abs(x) + abs(length)):
            break
    return x, length


def _branch_state_one(x, near, pair):
    delta = 1e-7 * (1 + abs(x))
    states = []
    for f, m in (_quartic_pair_one(x, pair), _quartic_pair_one(x + delta, pair)):
        try:
            roots = poly_roots(CPolynomial(f))
        except MechanismError:
            states.append(None)
            continue
        near = roots[int(np.argmin(np.abs(roots - near)))]
        states.append((near, horner(m, near),
                       float(np.sum(np.abs(m))) * max(1.0, abs(near)) ** 4))
    here, ahead = states
    if here is None:
        return None
    return here + (None if ahead is None else (ahead[1] - here[1]) / delta,)


def _follow_one(x0, seed, pair, steps=30):
    x = complex(x0)
    state = _branch_state_one(x, seed, pair)
    for _ in range(steps):
        if state is None:
            return None
        length, m_val, m_scale, slope = state
        if abs(m_val) <= 1e-12 * m_scale:
            return x, length
        if slope is None or slope == 0:
            return None
        step = m_val / slope
        cap = 0.1 * (1 + abs(x))
        if abs(step) > cap:
            step *= cap / abs(step)
        x = x - step
        if abs(x - x0) > 0.5 * (1 + abs(x0)):
            return None
        state = _branch_state_one(x, length, pair)
    if state is None or abs(state[1]) > 1e-10 * state[2]:
        return None
    return x, state[0]


def _grid_one(x0, radius, pair, grid=7):
    best = None
    for dx in np.linspace(-radius, radius, grid):
        for dy in np.linspace(-radius, radius, grid):
            x = x0 + dx + 1j * dy
            f, m = _quartic_pair_one(x, pair)
            try:
                roots = poly_roots(CPolynomial(f))
            except MechanismError:
                continue
            m_scale = float(np.sum(np.abs(m))) + 1e-30
            for root in roots:
                gap = abs(horner(m, root)) / (m_scale * max(1.0, abs(root)) ** 4)
                if best is None or gap < best[0]:
                    best = (gap, x, root)
    return best


def _same(got, want):
    """==, with NaN equal to NaN."""
    return got == want or (cmath.isnan(got) and cmath.isnan(want))


def test_refinement_stacks_equal_single_candidates(params_one):
    """Polishing, branch following and the grid rescue of a stack give
    each member what the one-candidate scalar iteration gives it,
    failures included."""
    rng = np.random.default_rng(2026)
    mechanisms = [params_one] + [
        random_params(rng, l01=float(rng.uniform(0.2, 2.0))) for _ in range(2)]
    for params in mechanisms:
        pair = _UnsquaredPair(params, point_e(params))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            roots = poly_roots(resultant_polynomial(params, pair.e))
        count = len(roots)
        # every other candidate starts as a Python complex
        cpython = np.arange(count) % 2 == 0
        starts = [complex(x) if cp else x for x, cp in zip(roots, cpython)]
        f_rows, m_rows = _quartic_pair_fast(roots, cpython, pair)
        # one branch seed per candidate, a different branch each time
        seeds = poly_roots_batch(f_rows)
        follow = [(x, found[k % len(found)])
                  for k, (x, found) in enumerate(zip(roots, seeds))
                  if not isinstance(found, Exception)]
        lengths = np.resize([seed for _, seed in follow], count)
        radius = 0.05 + 0.1 * rng.uniform(size=count)
        x, length, held = _polish_squared(roots, lengths, cpython, pair)
        rel = _squared_rel(roots, lengths, cpython, pair)
        grid_x, grid_length, grid_found = _gap_grid_rescue(roots, radius, pair)
        for k, start in enumerate(starts):
            f_one, m_one = _quartic_pair_one(start, pair)
            assert all(map(_same, f_rows[k], f_one))
            assert all(map(_same, m_rows[k], m_one))
            x_one, length_one = _polish_one(start, lengths[k], pair)
            assert _same(x[k], x_one) and _same(length[k], length_one)
            assert held[k] == (type(x_one) is complex)
            assert _same(rel[k], _squared_rel_one(start, lengths[k], pair))
            best = _grid_one(roots[k], radius[k], pair)
            assert grid_found[k] == (best is not None)
            if best is not None:
                assert grid_x[k] == best[1] and grid_length[k] == best[2]
        x, length, held, converged = _follow_branch(
            np.array([x for x, _ in follow]),
            np.array([seed for _, seed in follow]), pair)
        assert converged.any() and not converged.all()
        for k, (x0, seed) in enumerate(follow):
            one = _follow_one(x0, seed, pair)
            assert converged[k] == (one is not None)
            if one is not None:
                assert x[k] == one[0] and length[k] == one[1]
                assert held[k] == (type(one[0]) is complex)


# accepted roots of the first ten mechanisms of the seed-2026 corpus
CORPUS_ACCEPTED = (10, 10, 8, 6, 9, 8, 7, 10, 10, 6)


def test_seeded_corpus_recall():
    """Mechanism 8 used to accept a root averaged into NaN length with a
    pole-artifact candidate and lost its conjugate."""
    rng = np.random.default_rng(2026)
    for expected in CORPUS_ACCEPTED:
        params = random_params(rng, l01=float(rng.uniform(0.2, 2.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solutions = solve_one_nonzero_free_length(params)
        points = [(s.beta, s.length) for s in solutions if s.accepted]
        assert len(points) == expected
        for i, (beta, length) in enumerate(points):
            assert cmath.isfinite(beta) and cmath.isfinite(length)
            scale = 1.0 + abs(beta) + abs(length)
            distances = [abs(b - beta) + abs(l - length)
                         for b, l in points[i + 1:]]
            assert min(distances, default=1.0) > 1e-6 * scale
            if beta.imag != 0 or length.imag != 0:
                assert any(abs(b - beta.conjugate())
                           + abs(l - length.conjugate()) <= 1e-9 * scale
                           for b, l in points)
