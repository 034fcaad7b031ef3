import math

import numpy as np
import pytest

from _support import polynomial_matrix

from spring_platform import (CPolynomial, InterpolationMismatch,
                             ZeroPolynomial, dialytic_matrix, poly_roots,
                             polymatrix_det)
from spring_platform import polynomials
from spring_platform.polynomials import equilibrate, lu_det


def sorted_roots(values):
    return sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def test_cpolynomial_trims_trailing_noise():
    p = CPolynomial([1.0, 2.0, 1e-20])
    assert p.degree == 1


def test_cpolynomial_zero():
    assert CPolynomial([0.0, 0.0]).is_zero()
    with pytest.raises(ZeroPolynomial):
        poly_roots(CPolynomial([0.0]))


def test_roots_of_unity():
    roots = poly_roots(CPolynomial([-1.0, 0.0, 0.0, 0.0, 1.0]))  # x^4 - 1
    expected = [1.0, -1.0, 1.0j, -1.0j]
    for e in expected:
        assert min(abs(r - e) for r in roots) < 1e-10


def test_double_root_recovery():
    # (x - 2)^2 (x + 3)
    p = CPolynomial.from_roots([2.0, 2.0, -3.0])
    roots = sorted_roots(list(poly_roots(p)))
    assert abs(roots[0] + 3.0) < 1e-8
    assert abs(roots[1] - 2.0) < 1e-6
    assert abs(roots[2] - 2.0) < 1e-6


def sample_recoverable_roots(rng, count, lo=0.1, hi=10.0, min_gap=0.15):
    """Annulus roots with a pairwise-separation floor, resampled until the
    expanded polynomial keeps its full degree: crowded sets and extreme
    coefficient ranges are unresolvable from coefficients in any finite
    working precision, so they cannot witness root-finder quality."""
    while True:
        roots = []
        while len(roots) < count:
            r = math.exp(rng.uniform(math.log(lo), math.log(hi))) \
                * np.exp(1j * rng.uniform(0, 2 * math.pi))
            if all(abs(r - q) >= min_gap for q in roots):
                roots.append(r)
        poly = CPolynomial.from_roots(roots)
        if poly.degree == count:
            return np.array(roots), poly


def test_degree_48_constructed_roots():
    rng = np.random.default_rng(31)
    roots, p = sample_recoverable_roots(rng, 48)
    got = poly_roots(p)
    assert len(got) == 48
    for r in roots:
        assert min(abs(g - r) for g in got) <= 1e-6 * max(1.0, abs(r))


def test_conjugate_closure_for_real_coefficients():
    rng = np.random.default_rng(33)
    coeffs = rng.uniform(-3, 3, 13)
    got = poly_roots(CPolynomial(coeffs))
    for r in got:
        if abs(r.imag) > 1e-9:
            assert min(abs(r.conjugate() - g) for g in got) < 1e-7


def test_roots_at_origin():
    p = CPolynomial([0.0, 0.0, 6.0, 1.0])  # x^2 (x + 6)
    roots = sorted_roots(list(poly_roots(p)))
    assert abs(roots[0] + 6.0) < 1e-10
    assert abs(roots[1]) < 1e-12 and abs(roots[2]) < 1e-12


# the wide-range inputs overflow inside the residual check
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_poly_roots_fallback_paths(monkeypatch):
    # a companion primary that fails the residual bound falls back to
    # Aberth, and a degree-70 input starts with Aberth; every root set
    # meets the residual bound
    aberth_degrees = []
    aberth = polynomials._aberth

    def spy(c, max_iter):
        aberth_degrees.append(len(c) - 1)
        return aberth(c, max_iter)

    monkeypatch.setattr(polynomials, "_aberth", spy)
    rng = np.random.default_rng(5)
    polys = [CPolynomial(10.0 ** rng.uniform(-7, 7, deg + 1)
                         * np.exp(2j * np.pi * rng.uniform(size=deg + 1)))
             for deg in rng.integers(3, 30, 250)]
    polys.append(CPolynomial([-1.0] + [0.0] * 69 + [1.0]))
    for p in polys:
        roots, c = poly_roots(p), p.coeffs
        assert len(roots) == p.degree
        bound = 1e-8 * np.sum(np.abs(c)) * np.maximum(1, np.abs(roots)) \
            ** p.degree
        assert np.all(np.abs(np.polyval(c[::-1], roots)) <= 1.01 * bound)
    assert min(aberth_degrees) <= 64 and 70 in aberth_degrees


def test_array_helpers_round_as_scalar_code():
    # each element of the stacked product equals the scalar product it
    # stands in for, bit for bit
    rng = np.random.default_rng(8)
    parts = rng.normal(size=(2, 2, 4000)) \
        * 10.0 ** rng.uniform(-4, 4, (2, 2, 4000))
    a, b = parts[:, 0] + 1j * parts[:, 1]
    products = polynomials._cmul(a, b)
    for k in range(len(a)):
        assert products[k] == complex(a[k]) * complex(b[k])


def test_stacked_dense_solvers_equal_single_calls():
    rng = np.random.default_rng(7)
    for dtype in (np.complex128, np.clongdouble):
        for n in (1, 3, 5, 8):
            shape = (6, n, n)
            a = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(dtype)
            a[:, 0] *= 1e9
            a[:, :, -1] *= 1e-7
            a[2, :, 0] = 0  # a singular member: zero determinant
            dets = lu_det(a)
            assert dets.dtype == dtype and dets[2] == 0
            for k in range(6):
                assert dets[k] == lu_det(a[k])


def test_dialytic_layout():
    p = CPolynomial([0.0, 1.0, 2.0, 3.0, 4.0])
    q = CPolynomial([5.0, 6.0, 7.0, 8.0, 9.0])
    m = dialytic_matrix(p, q)
    assert m.shape == (8, 8)
    # base rows occupy the low-order columns
    assert list(m[0].real) == [0, 0, 0, 4, 3, 2, 1, 0]
    assert list(m[1].real) == [0, 0, 0, 9, 8, 7, 6, 5]
    # each later pair shifts one column left
    assert list(m[6].real) == [4, 3, 2, 1, 0, 0, 0, 0]
    assert list(m[7].real) == [9, 8, 7, 6, 5, 0, 0, 0]


def test_dialytic_determinant_zero_for_identical_quartics():
    p = CPolynomial.from_roots([1.0, 2.5, -0.5, 4.0])
    det = lu_det(dialytic_matrix(p, p))
    assert abs(det) < 1e-9


def test_dialytic_determinant_shared_root():
    p = CPolynomial.from_roots([1.0, 2.0, 3.0, 4.0])
    q = CPolynomial.from_roots([1.0, 5.0, 6.0, 7.0])
    det = lu_det(dialytic_matrix(p, q))
    # Hadamard bound sets the achievable cancellation scale
    hadamard = np.prod([np.linalg.norm(r) for r in dialytic_matrix(p, q)])
    assert abs(det) <= 1e-10 * hadamard


def test_dialytic_determinant_matches_resultant_product():
    rng = np.random.default_rng(37)
    for _ in range(100):
        pr = rng.uniform(-3, 3, 4) + 1j * rng.uniform(-3, 3, 4)
        qr = rng.uniform(-3, 3, 4) + 1j * rng.uniform(-3, 3, 4)
        shared = bool(rng.integers(0, 2))
        if shared:
            qr[0] = pr[0]
        lead_p = complex(rng.uniform(0.5, 2.0))
        lead_q = complex(rng.uniform(0.5, 2.0))
        p = CPolynomial.from_roots(pr, leading=lead_p)
        q = CPolynomial.from_roots(qr, leading=lead_q)
        det = lu_det(dialytic_matrix(p, q))
        resultant = lead_p ** 4 * np.prod([q(r) for r in pr])
        if shared:
            hadamard = np.prod([np.linalg.norm(r)
                                for r in dialytic_matrix(p, q)])
            assert abs(det) <= 1e-8 * hadamard
        else:
            assert abs(det - resultant) <= 1e-8 * abs(resultant)


def test_polymatrix_det_two_by_two():
    x = CPolynomial([0.0, 1.0])
    one = CPolynomial([1.0])
    det = polymatrix_det(*polynomial_matrix([[x, one], [one, x]]))
    assert det.degree == 2
    assert abs(det.coeffs[2] - 1.0) < 1e-9
    assert abs(det.coeffs[1]) < 1e-9
    assert abs(det.coeffs[0] + 1.0) < 1e-9


def test_polymatrix_det_one_by_one():
    det = polymatrix_det(
        *polynomial_matrix([[CPolynomial([2.0, 0.0, 0.0, 1.0])]]))
    assert det.degree == 3
    assert abs(det.coeffs[0] - 2.0) < 1e-10
    assert abs(det.coeffs[3] - 1.0) < 1e-10


def test_polymatrix_det_agrees_with_direct_evaluation():
    rng = np.random.default_rng(41)
    entries = [[CPolynomial(rng.uniform(-2, 2, rng.integers(1, 4)))
                for _ in range(3)] for _ in range(3)]
    evaluate, bound = polynomial_matrix(entries)
    det = polymatrix_det(evaluate, bound)
    for _ in range(20):
        x = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        direct = np.linalg.det(evaluate(x))
        assert abs(det(x) - direct) <= 1e-8 * max(1.0, abs(direct))


def test_polymatrix_det_rejects_wrong_degree_bound():
    x = CPolynomial([0.0, 1.0])
    evaluate, _ = polynomial_matrix([[x * x * x, CPolynomial([1.0])],
                                     [CPolynomial([1.0]), x * x * x]])
    with pytest.raises(InterpolationMismatch):
        polymatrix_det(evaluate, degree_bound=3)  # true degree is 6


def test_lu_det_matches_numpy():
    rng = np.random.default_rng(47)
    for n in (2, 4, 8):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m[0] *= 1e9
        m[:, 1] *= 1e-7
        assert abs(lu_det(m) - np.linalg.det(m)) <= 1e-9 * abs(np.linalg.det(m))


def test_equilibrate_matches_two_pass_scaling():
    # bit for bit against rows scaled by their maxima, then columns by
    # theirs, on stacks spanning 24 decades with zero rows and columns
    def two_pass(m):
        shift = 0
        for axis in (-1, -2):
            _, exps = np.frexp(np.max(np.abs(m), axis=axis))
            m = m * np.expand_dims(np.ldexp(1.0, -exps), axis)
            shift = shift + np.sum(exps, axis=-1)
        return m, shift

    rng = np.random.default_rng(73)
    for _ in range(20):
        shape = (2, 16, 6, 6)
        m = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
            * 10.0 ** rng.uniform(-12, 12, shape)
        m[0, 3, 2] = 0
        m[1, 5, :, 4] = 0
        got, shift = equilibrate(m)
        want, want_shift = two_pass(m)
        assert np.array_equal(got, want) and np.array_equal(shift, want_shift)
        assert shift.shape == m.shape[:-2]
        for axis in (-1, -2):
            peak = np.max(np.abs(got), axis=axis)
            nonzero = peak[peak > 0]
            assert np.all((nonzero >= 0.5) & (nonzero < 1))


def test_deflate_unit_quadratic():
    base = CPolynomial([3.0, -1.0, 2.0])
    lifted = base * CPolynomial([1.0, 0.0, 1.0])
    quotient, rem = lifted.deflate_unit_quadratic()
    assert rem < 1e-14
    assert np.allclose(quotient.coeffs, base.coeffs)
