import cmath
import dataclasses
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from _support import (nearest_match, product, random_params,
                      reference_params, squared, squared_pair, sylvester,
                      tan_half_degree, tan_half_eliminant)

from spring_platform import (DegenerateQuartic, MechanismError, Point2,
                             RunConfig, UnsupportedFreeLengthPattern,
                             emit_tables, load_config, render_svg,
                             residual_margin, run_analysis, solve_equilibria,
                             solver)
from spring_platform.errors import LostRoots
from spring_platform.mechanism import (point_e, pose_frame, pose_from,
                                      pose_points, residual_pair,
                                      spring_state)
from spring_platform.solver import UnsquaredPair


def test_pattern_enforced(monkeypatch, params_zero):
    # the eliminant runs only on the one-nonzero pattern: all-zero free
    # lengths give the quartic's 4 rows, and L02 > 0 fits no case
    def eliminant(*args):
        raise AssertionError("the eliminant ran on a zero first free length")

    monkeypatch.setattr(solver, "_solve_one", eliminant)
    assert len(solve_equilibria(params_zero)) == 4
    for free_lengths in ((0.0, 0.5, 0.0), (1.0, 0.5, 0.0)):
        with pytest.raises(UnsupportedFreeLengthPattern):
            solve_equilibria(dataclasses.replace(reference_params(),
                                                 free_lengths=free_lengths))


def test_degenerate_pins():
    # at the top-frame origin O2 does not turn with beta and the eliminants
    # in z lose their structural degree: the solve says so instead of
    # returning bad rows
    params = reference_params(l01=1.0)
    with pytest.raises(DegenerateQuartic):
        solve_equilibria(
            dataclasses.replace(params, p_in_top=Point2(0.0, 0.0)))
    # at the anchor A2 the moment equation factors; no equilibrium is
    # accepted twice, and the second start's repeated root sits on neither
    # side of the extraneous margin
    at_a2 = dataclasses.replace(params, p_in_top=params.a2_in_top)
    assert_distinct_and_closed(accepted_points(at_a2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert residual_margin(solve_equilibria(at_a2))[2] >= 100


def test_lost_roots_warn():
    # near the top-frame origin most same-sign starts no longer converge
    params = dataclasses.replace(reference_params(l01=1.0),
                                 p_in_top=Point2(1e-9, 0.0))
    with pytest.warns(LostRoots):
        solve_equilibria(params)


def test_lost_roots_name_the_caller():
    # the warning points at the code that asked for the solve: a direct
    # call names this file, and run_analysis names analysis.py
    params = reference_params(l01=1e-9)
    with pytest.warns(LostRoots) as direct:
        solve_equilibria(params)
    with pytest.warns(LostRoots) as analysed:
        run_analysis(RunConfig(params=params))
    assert [w.filename for w in direct] == [__file__]
    assert [Path(w.filename).name for w in analysed] == ["analysis.py"]


def test_no_lost_roots_on_generic_mechanisms(params_one):
    with warnings.catch_warnings():
        warnings.simplefilter("error", LostRoots)
        for params in [params_one] + corpus(2026, 40):
            solve_equilibria(params)


def _abs_point(p):
    return math.hypot(abs(p.x), abs(p.y))


def test_residual_fields_are_spring_model_residuals(params_one):
    # the solve reads the residuals off the pair as A - B / L1 and
    # C - D / L1; the spring model evaluates them pose by pose
    complex_rows = 0
    for params in [params_one] + corpus(2026, 5):
        e = point_e(params)
        rows = [s for s in solve_equilibria(params)
                if math.isfinite(s.residual_force)]
        assert len(rows) == 28
        for s in rows:
            pose = pose_from(s.length, s.beta, params, e)
            force, moment = residual_pair(pose, params)
            forces = spring_state(pose, params).forces
            arms = (params.base_origin, params.base_origin, params.a1_fixed)
            assert abs(abs(force) - s.residual_force) \
                <= 1e-9 * sum(abs(f) for f in forces)
            assert abs(abs(moment) - s.residual_moment) <= 1e-9 * sum(
                abs(f) * _abs_point(a - pose.p) for f, a in zip(forces, arms))
            complex_rows += not s.is_real
    assert complex_rows >= 100


def test_unsquared_identity_against_residuals(params_one):
    # A L1 - B must equal L1 times the force residual (same for moments)
    e = point_e(params_one)
    pair = UnsquaredPair(params_one)
    rng = np.random.default_rng(61)
    for _ in range(50):
        length = rng.uniform(0.5, 12.0)
        beta = rng.uniform(-math.pi, math.pi)
        a, b, c, d = pair.terms(length, math.cos(beta), math.sin(beta))[:4]
        pose = pose_from(length, beta, params_one, e)
        f_res, m_res = residual_pair(pose, params_one)
        o1 = params_one.base_origin
        l1 = math.hypot(pose.o2.x - o1.x, pose.o2.y - o1.y)
        assert abs(a * l1 - b - l1 * f_res) <= 1e-9 * max(1.0, abs(l1 * f_res))
        assert abs(c * l1 - d - l1 * m_res) <= 1e-9 * max(1.0, abs(l1 * m_res))


def test_free_length_terms_vanish_in_limit():
    params = reference_params(l01=1e-9)
    a, b, c, d = UnsquaredPair(params).terms(
        5.0, math.cos(0.7), math.sin(0.7))[:4]
    assert abs(b) < 1e-7 and abs(d) < 1e-6


def test_unsquared_pair_at_true_equilibrium(params_one):
    # the true equilibrium nearest the published row (-0.2255, 7.355)
    # zeroes the unsquared pair; the published values themselves sit about
    # 1e-2 off these equations (a recorded source conflict), so the pair
    # is small there only at the percent level
    e = point_e(params_one)
    pair = UnsquaredPair(params_one)

    def scaled(beta, length):
        a, b, c, d = pair.terms(length, math.cos(beta), math.sin(beta))[:4]
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
    pair = UnsquaredPair(params_one)
    rng = np.random.default_rng(67)
    for _ in range(10):
        beta = rng.uniform(-math.pi, math.pi)
        z = cmath.exp(1j * beta)
        f_coeffs, m_coeffs = squared_pair(pair.tensors(), z)
        for _ in range(5):
            length = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            a, b, c, d = pair.terms(length, math.cos(beta),
                                    math.sin(beta))[:4]
            pose = pose_from(length, beta, params_one, e)
            o1 = params_one.base_origin
            l1sq = (pose.o2.x - o1.x) ** 2 + (pose.o2.y - o1.y) ** 2
            direct_f = z ** 3 * (a * a * l1sq - b * b)
            direct_m = z ** 3 * (c * c * l1sq - d * d)
            interp_f = sum(ck * length ** k for k, ck in enumerate(f_coeffs))
            interp_m = sum(ck * length ** k for k, ck in enumerate(m_coeffs))
            assert abs(interp_f - direct_f) <= 1e-8 * max(1.0, abs(direct_f))
            assert abs(interp_m - direct_m) <= 1e-8 * max(1.0, abs(direct_m))


def test_quartic_degree_bounded(params_one):
    # a sixth probe value must be consistent with the five-node quartic
    pair = UnsquaredPair(params_one)
    f_coeffs, m_coeffs = squared_pair(pair.tensors(),
                                      (1 + 0.37j) / (1 - 0.37j))
    assert len(f_coeffs) == 5 and len(m_coeffs) == 5


def test_published_root_nearly_zeroes_quartics(params_one):
    pair = UnsquaredPair(params_one)
    f_coeffs, m_coeffs = squared_pair(pair.tensors(), cmath.exp(-0.2255j))
    scale_f = sum(abs(c) * 7.355 ** k for k, c in enumerate(f_coeffs))
    scale_m = sum(abs(c) * 7.355 ** k for k, c in enumerate(m_coeffs))
    f_val = sum(c * 7.355 ** k for k, c in enumerate(f_coeffs))
    m_val = sum(c * 7.355 ** k for k, c in enumerate(m_coeffs))
    assert abs(f_val) < 0.05 * scale_f
    assert abs(m_val) < 0.05 * scale_m


def test_resultant_degree(params_one):
    assert tan_half_degree(tan_half_eliminant(params_one)) == 48


def test_resultant_pole_factor(params_one):
    # the tan-half pole factor (1 + x^2)^6 is six vanishing coefficients at
    # each end in z: 12 of the 48 roots sit at z = 0 and z = oo, x = +-i
    coeffs = np.abs(tan_half_eliminant(params_one))
    vanishing = coeffs <= 1e-20 * np.max(coeffs)
    assert list(np.flatnonzero(~vanishing)[[0, -1]]) == [6, 42]
    assert np.count_nonzero(vanishing) == 12


def _matched(roots, rows, tol):
    """Pop from roots, for each z of rows, the root nearest to it, which
    must lie within tol relative."""
    for z in rows:
        gaps = np.abs(np.array(roots) - z)
        assert gaps.min() <= tol * abs(z)
        roots.pop(int(np.argmin(gaps)))


def test_tan_half_roots_are_the_ledger_rows(params_one, solutions_one):
    # the 36 finite roots of the paper's eliminant are, one to one, the
    # ledger's 14 same-sign and 14 mixed-sign rows and its two O2 = O1
    # points four times each; a fourfold root moves with the fourth root
    # of the coefficient rounding
    roots = list(np.roots(tan_half_eliminant(params_one)[6:43][::-1]))
    coincident = "O2 = O1 (first spring of zero length)"
    rows = {"": [], "mixed sign": [], coincident: []}
    for s in solutions_one:
        if "pole artifact" not in s.note:
            kind = s.note if s.note in rows else ""
            rows[kind].append(cmath.exp(1j * s.beta))
    assert [len(z) for z in rows.values()] == [14, 14, 8]
    _matched(roots, rows[""] + rows["mixed sign"], 1e-8)
    _matched(roots, rows[coincident], 5e-3)
    assert roots == []


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


def test_reference_ledger_split(solutions_one, solutions_zero):
    # the rows of each kind that _classify and the structural rows write
    one = Counter((s.accepted, s.note) for s in solutions_one)
    assert one == {(True, ""): 10, (False, "other branch"): 4,
                   (False, "mixed sign"): 14,
                   (False, "O2 = O1 (first spring of zero length)"): 8,
                   (False, "no finite beta (tan-half pole artifact)"): 12}
    assert sum(s.accepted and s.is_real for s in solutions_one) == 2
    zero = Counter((s.accepted, s.is_real, s.note) for s in solutions_zero)
    assert zero == {(True, True, ""): 2, (True, False, ""): 2}


def test_pole_artifacts_flagged(solutions_one):
    pole = [s for s in solutions_one if "pole artifact" in s.note]
    assert len(pole) == 12
    assert all(not s.accepted for s in pole)


def test_deterministic(params_one, solutions_one):
    again = solve_equilibria(params_one)
    # repr comparison keeps unconverged entries with nan lengths comparable
    assert [repr((s.beta, s.length, s.accepted)) for s in again] == \
        [repr((s.beta, s.length, s.accepted)) for s in solutions_one]


def test_continuity_to_zero_free_length_case(params_zero):
    # with a tiny first free length every real accepted solution stays
    # near one of the zero-free-length equilibria; the eliminant loses all
    # structure in this limit (the squared pair degenerates to a shared
    # factor), so conditioning may legitimately lose the real roots
    tiny = dataclasses.replace(params_zero, free_lengths=(1e-4, 0.0, 0.0))
    reference = [s.beta.real for s in solve_equilibria(params_zero)
                 if s.is_real]
    solutions = solve_equilibria(tiny)
    real_accepted = [s for s in solutions if s.accepted and s.is_real]
    if not real_accepted:
        pytest.skip("conditioning prevented real-solution recovery at "
                    "L01 = 1e-4 (documented limitation)")
    for s in real_accepted:
        assert min(abs(s.beta.real - b) for b in reference) < 1e-2


@pytest.mark.parametrize("l01", [1e-1, 1e-2, 1e-3])
def test_small_first_free_length_recall(l01):
    # below the corpus tests' L01 >= 0.2 and without the skip above, the
    # reference keeps the rows it has at L01 = 1: 10 accepted, 2 of them
    # real, and 4 same-sign roots on the other branch
    solutions = solve_equilibria(reference_params(l01=l01))
    assert len(solutions) == 48
    assert sum(s.accepted for s in solutions) == 10
    assert sum(s.note == "other branch" for s in solutions) == 4
    assert sum(s.accepted and s.is_real for s in solutions) == 2


def test_random_case_sets_accepted_residuals():
    rng = np.random.default_rng(71)
    for _ in range(3):
        params = random_params(rng, l01=float(rng.uniform(0.2, 2.0)))
        solutions = solve_equilibria(params)
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
    px, py, o2x, o2y, a2x, a2y = pose_points(pose_frame(params, e), length,
                                             cos_beta, sin_beta)
    p, o2, a2 = Point2(px, py), Point2(o2x, o2y), Point2(a2x, a2y)
    o1 = params.base_origin
    a1 = params.a1_fixed
    d_o2 = o2 - o1
    d_a2o1 = a2 - o1
    d_a2a1 = a2 - a1
    force_coef = ((k1 * d_o2.x + k2 * d_a2o1.x + k3 * d_a2a1.x) * ca
                  + (k1 * d_o2.y + k2 * d_a2o1.y + k3 * d_a2a1.y) * sa)
    r1 = o1 - p
    r3 = a1 - p
    moment_coef = (r1.cross(k1 * d_o2) + r1.cross(k2 * d_a2o1)
                   + r3.cross(k3 * d_a2a1))
    force_rhs = k1 * l01 * (d_o2.x * ca + d_o2.y * sa)
    moment_rhs = k1 * l01 * r1.cross(d_o2)
    l1_sq = d_o2.x * d_o2.x + d_o2.y * d_o2.y
    return force_coef, force_rhs, moment_coef, moment_rhs, l1_sq


def test_unsquared_pair_is_bit_identical_to_pose_forms(params_one):
    e = point_e(params_one)
    pair = UnsquaredPair(params_one)
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
    # elementwise over extended-precision arrays
    wide = np.clongdouble
    ls = np.array(lengths, dtype=wide)
    cbs = np.array([cmath.cos(b) for b in betas], dtype=wide)
    sbs = np.array([cmath.sin(b) for b in betas], dtype=wide)
    arrays = pair.terms(ls, cbs, sbs)
    for k in range(len(lengths)):
        want = pose_based_terms(ls[k], cbs[k], sbs[k], params_one, e)
        assert all(g[k] == w for g, w in zip(arrays, want))


# accepted roots of the first ten mechanisms of the seed-2026 corpus: the
# accepted-branch solutions of a homotopy oracle, which finds 14 same-sign
# solutions on every one of them
CORPUS_ACCEPTED = (10, 10, 10, 10, 10, 10, 10, 10, 10, 8)
# seed-777 draws that once accepted a complex root without its conjugate
CONJUGATE_DRAWS = (88, 122)


def corpus(seed, count):
    """The first count one-nonzero mechanisms of a seed, L01 drawn first."""
    rng = np.random.default_rng(seed)
    return [random_params(rng, l01=float(rng.uniform(0.2, 2.0)))
            for _ in range(count)]


def accepted_points(params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        solutions = solve_equilibria(params)
    return [(s.beta, s.length) for s in solutions if s.accepted]


def assert_distinct_and_closed(points):
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


def test_seeded_corpus_recall():
    """Mechanism 8 used to accept a root averaged into NaN length with a
    pole-artifact candidate and lost its conjugate."""
    for params, expected in zip(corpus(2026, len(CORPUS_ACCEPTED)),
                                CORPUS_ACCEPTED):
        points = accepted_points(params)
        assert len(points) == expected
        assert_distinct_and_closed(points)
    seed_777 = corpus(777, max(CONJUGATE_DRAWS) + 1)
    for draw in CONJUGATE_DRAWS:
        points = accepted_points(seed_777[draw])
        assert points
        assert_distinct_and_closed(points)


# real equilibria of the seed-2026 corpus, (mechanism, beta, L), that the
# tan-half refinement missed; each is confirmed by residual_pair directly
CORPUS_REAL_EQUILIBRIA = (
    (4, -1.04458, 20.6481), (6, 2.24464, 8.75664), (16, -0.74141, -2.25031),
    (17, -1.17861, -15.50165), (27, -2.72621, 15.06993),
    (29, 2.03383, 114.93376), (29, -1.08244, 114.48946),
    (30, 3.10504, -9.68602))


def test_seeded_corpus_real_equilibria():
    mechanisms = corpus(2026, 31)
    solved = {}
    for index, beta, length in CORPUS_REAL_EQUILIBRIA:
        params = mechanisms[index]
        if index not in solved:
            solved[index] = solve_equilibria(params)
        real = [s for s in solved[index] if s.accepted and s.is_real]
        gaps = [abs(s.beta.real - beta) + abs(s.length.real - length)
                for s in real]
        assert min(gaps, default=math.inf) <= 1e-4 * (1 + abs(length))
        found = real[int(np.argmin(gaps))]
        pose = pose_from(found.length.real, found.beta.real, params,
                         point_e(params))
        force, moment = residual_pair(pose, params)
        forces = spring_state(pose, params).forces
        arms = (params.base_origin, params.base_origin, params.a1_fixed)
        assert abs(force) <= 1e-9 * sum(abs(f) for f in forces)
        assert abs(moment) <= 1e-9 * sum(
            abs(f) * (a - pose.p).norm() for f, a in zip(forces, arms))


def test_eliminant_samples_do_not_alias(params_one):
    # the z eliminants have degree at most 28: a 64-point FFT of their
    # samples has nothing above z^28, and its structural support
    # z^3..z^25 is what the 32-point transform gives
    signs = np.array([1.0, -1.0])
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    for params in [params_one] + corpus(2026, 5):
        pair = UnsquaredPair(params)
        tensors = pair.tensors(pair.foot())
        support = solver._eliminants(tensors, pair.kl, signs)
        full = np.fft.fft(solver._resultant_samples(
            tensors, pair.kl, signs, z), axis=-1) / 64
        largest = np.max(np.abs(full), axis=1, keepdims=True)
        assert np.all(np.abs(full[:, 29:]) <= 1e-13 * largest)
        assert np.all(np.abs(full[:, 3:26] - support) <= 1e-12 * largest)


def test_operation_loads_no_fft(tmp_path):
    # one operation on the committed one-nonzero config as the CLI runs
    # it, in a fresh interpreter: the eliminant transform is a product by
    # a constant matrix, so numpy.fft, which numpy loads lazily, stays out
    root = Path(__file__).resolve().parents[1]
    code = ("import sys\n"
            "from spring_platform import (emit_tables, load_config, "
            "render_svg, run_analysis)\n"
            "report = run_analysis(load_config(sys.argv[1]))\n"
            "emit_tables(report, sys.argv[2], ('json', 'csv'))\n"
            "render_svg(report, sys.argv[2])\n"
            "print(report.counts['total'], 'numpy.fft' in sys.modules)")
    run = subprocess.run(
        [sys.executable, "-c", code,
         str(root / "configs" / "one_nonzero_free_length.json"),
         str(tmp_path)], capture_output=True, text=True, timeout=120,
        check=True, env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert run.stdout.split() == ["48", "False"]
    assert (tmp_path / "report.json").is_file()


def _operate_on_committed_configs(tmp_path):
    """One operation on each committed config as the CLI runs it."""
    root = Path(__file__).resolve().parents[1]
    for name, rows in (("one_nonzero_free_length", 48),
                       ("all_zero_free_lengths", 4)):
        out = tmp_path / name
        report = run_analysis(load_config(root / "configs" / f"{name}.json"))
        emit_tables(report, out, ("json", "csv"))
        render_svg(report, out)
        assert report.counts["total"] == rows
        assert len((out / "solutions.csv").read_text().splitlines()) == rows + 1


def test_operation_uses_no_svd(monkeypatch, tmp_path):
    # numpy's SVD-based solvers made to fail: the deflation is a QR solve
    def refuse(*args, **kwargs):
        raise AssertionError("an operation called an SVD-based solver")

    for module in (np.linalg, np.linalg._linalg):
        for name in ("lstsq", "svd", "pinv"):
            monkeypatch.setattr(module, name, refuse)
    _operate_on_committed_configs(tmp_path)


def test_operation_uses_no_stack_or_moveaxis(monkeypatch, tmp_path):
    # np.stack and np.moveaxis made to fail: on arrays of a few dozen
    # entries their Python-level checks cost more than the arithmetic, so
    # the solves build and split arrays with np.array and transposes
    def refuse(*args, **kwargs):
        raise AssertionError("an operation called np.stack or np.moveaxis")

    for name in ("stack", "moveaxis"):
        monkeypatch.setattr(np, name, refuse)
    _operate_on_committed_configs(tmp_path)


# mechanisms whose known factor has the worst-conditioned Toeplitz matrix
# in tools/candidate_rows.py's sets (condition numbers about 2.8e3 and
# 4.8e3), as (seed, draw)
ILL_CONDITIONED_FACTORS = ((2026, 38), (777, 15))


def test_deflate_is_the_least_squares_quotient(params_one):
    # both signs' rows against the least-squares quotient by the monic
    # known factor, that factor, its Toeplitz matrix and their Householder
    # QR solve all in 40 digits
    mechanisms = [params_one] + [corpus(seed, draw + 1)[draw]
                                 for seed, draw in ILL_CONDITIONED_FACTORS]
    for params in mechanisms:
        pair = UnsquaredPair(params)
        tensors = pair.tensors(pair.foot())
        known, _ = solver._known_points(pair, tensors)
        coeffs = solver._eliminants(tensors, pair.kl,
                                         np.array([1.0, -1.0]))
        got = solver._deflate(coeffs, known)
        with mpmath.workdps(40):
            factor = [mpmath.mpc(1)]
            for value in map(mpmath.mpc, known):
                factor = [sum(factor[k - i] * term
                              for i, term in enumerate(
                                  (value * value, -2 * value, 1))
                              if 0 <= k - i < len(factor))
                          for k in range(len(factor) + 2)]
            product = mpmath.matrix(coeffs.shape[-1], got.shape[-1])
            for shift in range(got.shape[-1]):
                for k, term in enumerate(factor):
                    product[shift + k, shift] = term
            want = np.array([[complex(x) for x in mpmath.qr_solve(
                product, mpmath.matrix(list(map(mpmath.mpc, row))))[0]]
                for row in coeffs])
        largest = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-11 * largest)


def test_companion_roots_are_numpy_roots(params_one, params_zero):
    # one eigvals call on the stacked companion matrices gives numpy.roots
    # of each row, bit for bit and in its order: both deflated eliminants
    # of the reference and of five corpus mechanisms, and the reference's
    # zero-case quartic trimmed to degree 4 down to 0, which has no roots
    stacks = []
    for params in [params_one] + corpus(2026, 5):
        pair = UnsquaredPair(params)
        tensors = pair.tensors(pair.foot())
        known, _ = solver._known_points(pair, tensors)
        stacks.append(solver._deflate(solver._eliminants(
            tensors, pair.kl, np.array([1.0, -1.0])), known))
    pair = UnsquaredPair(params_zero)
    (a0, a1), (c0, c1) = pair.tensors(pair.foot())[[0, 2], :2]
    quartic = np.convolve(a0, c1) - np.convolve(a1, c0)
    stacks += [quartic[None, :size] for size in range(5, 0, -1)]
    stacks.append(np.array([quartic[1:4], quartic[2:5]]))
    for rows in stacks:
        got = solver._companion_roots(rows)
        assert got.shape == (len(rows), rows.shape[1] - 1)
        for row, roots in zip(rows, got):
            assert np.array_equal(roots, np.roots(row[::-1]))
    assert np.array_equal(solver._quartic_roots(quartic)[0],
                          np.roots(quartic[::-1]))
    # a row that is not finite, or whose companion overflows, is the
    # solve's one MechanismError
    for row in ([1.0, np.inf, 1.0], [1.0, 2.0, np.inf], [1.0, np.nan],
                [1e300, 1e-300]):
        with np.errstate(all="ignore"), pytest.raises(MechanismError,
                                                      match="overflows"):
            solver._companion_roots(np.array([row], dtype=complex))


def test_classify_marks_repeated_accepted_roots_only():
    # five refined roots at one (L, z): an accepted root found again is a
    # repeated root, and a rejected root there keeps its own note, before
    # the accepted one or after it
    count = 5
    z = np.full(count, np.exp(0.3j))
    length = np.full(count, 2.0 + 0j)
    length[4] = 3.0  # a second accepted root, elsewhere
    one = np.ones(count, dtype=complex)
    b = np.array([3.0, 2.0, 2.0, 3.0, 2.0]) + 0j
    s = np.array([3.0, 2.0, 2.0, 3.0, 2.0]) + 0j
    same_sign = np.array([True, True, True, False, True])
    columns = solver._classify(length, z, s, (one, b, one, b, 4 * one),
                               same_sign)
    assert columns["accepted"].tolist() == [False, True, False, False, True]
    assert columns["note"].tolist() == ["other branch", "", "repeated root",
                                        "mixed sign", ""]


def test_pole_rows_are_built_once_and_read_only(params_one):
    # the 12 tan-half pole rows are shared by every solve: no solve may
    # write to them, and none does
    before = {name: column.tobytes()
              for name, column in solver._POLE_COLUMNS.items()}
    solutions = solve_equilibria(params_one)
    assert sum(s.note == "no finite beta (tan-half pole artifact)"
               for s in solutions) == 2 * solver.POLE_ROWS
    for name, column in solver._POLE_COLUMNS.items():
        assert len(column) == 2 * solver.POLE_ROWS
        assert column.tobytes() == before[name]
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]


def _sylvester_dets(tensors, kl, signs, z):
    """np.linalg.det of the 6x6 Sylvester matrices of F and G at z."""
    a, b, c, d, l1_sq = solver._split(solver._in_length(tensors, z))
    return np.linalg.det(sylvester(
        squared(a, b, l1_sq, z),
        solver._mixed(a, b, c, d, kl, signs[:, None, None])))


def _agree(got, want):
    largest = np.max(np.abs(want), axis=-1, keepdims=True)
    return np.all(np.abs(got - want) <= 1e-12 * largest)


def test_resultant_samples_are_sylvester_determinants(monkeypatch,
                                                      params_one):
    # the product form g2^4 F(r1) F(r2) at the unit-circle samples, where
    # the same-sign g2 nearly vanishes at z = +-1, and off the circle
    signs = np.array([1.0, -1.0])
    circle = np.exp(2j * np.pi * np.arange(16) / 16)
    for params in [params_one] + corpus(2026, 5):
        pair = UnsquaredPair(params)
        tensors = pair.tensors(pair.foot())
        for z in (solver._SAMPLE_Z, 0.5 * circle, 2 * circle):
            assert _agree(
                solver._resultant_samples(tensors, pair.kl, signs, z),
                _sylvester_dets(tensors, pair.kl, signs, z))

    # g2 exactly 0.0 at sample 0, for both signs: G's root at infinity
    mixed = solver._mixed

    def vanishing_g2(*args):
        g = mixed(*args)
        g[..., 0, 2] = 0.0
        return g

    monkeypatch.setattr(solver, "_mixed", vanishing_g2)
    pair = UnsquaredPair(params_one)
    tensors = pair.tensors(pair.foot())
    z = solver._SAMPLE_Z
    got = solver._resultant_samples(tensors, pair.kl, signs, z)
    assert np.all(np.isfinite(got[:, 0]))
    assert _agree(got, _sylvester_dets(tensors, pair.kl, signs, z))


def test_product_is_row_convolution():
    # the tests' product of coefficient rows, and the affine products of
    # G's coefficients, against np.convolve row by row
    rng = np.random.default_rng(71)
    for m, n in ((2, 2), (3, 3), (2, 3), (5, 3), (1, 4)):
        p = rng.normal(size=(4, 6, m)) + 1j * rng.normal(size=(4, 6, m))
        q = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
        got = product(p, q)
        for index in np.ndindex(p.shape[:-1]):
            want = np.convolve(p[index], q[index[1:]])
            assert np.allclose(got[index], want, rtol=1e-15, atol=1e-15 * (
                np.sum(np.abs(p[index])) * np.sum(np.abs(q[index[1:]]))))
    a, b, c, d = (rng.normal(size=(4, 6, 2)) + 1j * rng.normal(size=(4, 6, 2))
                  for _ in range(4))
    for sign in (1.0, -1.0):
        got = solver._mixed(a, b, c, d, 2.5, sign)
        for index in np.ndindex(a.shape[:-1]):
            ad, bc = np.convolve(a[index], d[index]), np.convolve(b[index],
                                                                  c[index])
            assert np.allclose(got[index], (ad - sign * bc) / 2.5, rtol=1e-15,
                               atol=1e-15 * np.sum(np.abs(ad) + np.abs(bc)))


def _newton_step(tensors, origin, u, z, s, sign, terms):
    """Newton's step at (u, z, s) on z (A s - B), z (C s - sign D) and
    z (s^2 - L1^2): the residuals from the terms, the Jacobian from the
    tensors by numpy's 2-d polynomial evaluation."""
    def at(coeffs):
        return np.array([P.polyval2d(u, z, c) for c in coeffs])

    a, b, c, d, l1_sq = terms
    residual = np.stack([z * (a * s - b), z * (c * s - sign * d),
                         z * (s * s - l1_sq)], axis=-1)
    za, _, zc, _, _ = at(tensors)
    au, bu, cu, du, lu = at(P.polyder(tensors, axis=1))
    az, bz, cz, dz, lz = at(P.polyder(tensors, axis=2))
    jacobian = np.stack([au * s - bu, az * s - bz, za,
                         cu * s - sign * du, cz * s - sign * dz, zc,
                         -lu, s * s - lz, 2 * z * s], axis=-1)
    return np.linalg.solve(jacobian.reshape(-1, 3, 3),
                           residual[..., None])[..., 0]


def test_newton_returns_its_last_evaluation(monkeypatch, params_zero,
                                            params_one):
    # newton stops at the first point where its step is at most STEP_TOL
    # relative, without taking it, and returns the pair's terms there: the
    # terms are those of the returned point, bit for bit, and one more
    # step from it is at most STEP_TOL relative
    calls, refine = [], solver.newton

    def recorded(*args):
        result = refine(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(solver, "newton", recorded)
    for params in [params_one, params_zero] + corpus(2026, 5):
        solve_equilibria(params)
    assert len(calls) == 7
    for (pair, tensors, origin, _, _, _, sign), (u, z, s, terms) in calls:
        want = pair.terms(origin + u, (z + 1 / z) / 2, (z - 1 / z) / 2j)
        for got, expected in zip(terms, want):
            assert got.tobytes() == expected.tobytes()
        step = _newton_step(tensors, origin, u, z, s, sign, terms)
        point = np.stack([u, z, s], axis=-1)
        assert np.all(np.abs(step) <= solver.STEP_TOL
                      * (1 + np.abs(point)))
