import numpy as np

from _support import dialytic, sample_recoverable_roots



def sorted_roots(values):
    return sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def test_roots_of_unity():
    roots = np.roots([1.0, 0.0, 0.0, 0.0, -1.0])  # x^4 - 1
    expected = [1.0, -1.0, 1.0j, -1.0j]
    for e in expected:
        assert min(abs(r - e) for r in roots) < 1e-10


def test_double_root_recovery():
    # (x - 2)^2 (x + 3)
    roots = sorted_roots(list(np.roots(np.poly([2.0, 2.0, -3.0]))))
    assert abs(roots[0] + 3.0) < 1e-8
    assert abs(roots[1] - 2.0) < 1e-6
    assert abs(roots[2] - 2.0) < 1e-6


def test_degree_48_constructed_roots():
    rng = np.random.default_rng(31)
    roots, coeffs = sample_recoverable_roots(rng, 48)
    got = np.roots(coeffs[::-1])
    assert len(got) == 48
    for r in roots:
        assert min(abs(g - r) for g in got) <= 1e-6 * max(1.0, abs(r))


def test_conjugate_closure_for_real_coefficients():
    rng = np.random.default_rng(33)
    coeffs = rng.uniform(-3, 3, 13)
    got = np.roots(coeffs[::-1])
    for r in got:
        if abs(r.imag) > 1e-9:
            assert min(abs(r.conjugate() - g) for g in got) < 1e-7


def test_roots_at_origin():
    # x^2 (x + 6)
    roots = sorted_roots(list(np.roots([1.0, 6.0, 0.0, 0.0])))
    assert abs(roots[0] + 6.0) < 1e-10
    assert abs(roots[1]) < 1e-12 and abs(roots[2]) < 1e-12


def test_dialytic_layout():
    p = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    q = np.array([5.0, 6.0, 7.0, 8.0, 9.0])
    m = dialytic(p, q)
    assert m.shape == (8, 8)
    # base rows occupy the low-order columns
    assert list(m[0]) == [0, 0, 0, 4, 3, 2, 1, 0]
    assert list(m[1]) == [0, 0, 0, 9, 8, 7, 6, 5]
    # each later pair shifts one column left
    assert list(m[6]) == [4, 3, 2, 1, 0, 0, 0, 0]
    assert list(m[7]) == [9, 8, 7, 6, 5, 0, 0, 0]


def test_dialytic_determinant_zero_for_identical_quartics():
    p = np.poly([1.0, 2.5, -0.5, 4.0])[::-1]
    det = np.linalg.det(dialytic(p, p))
    assert abs(det) < 1e-9


def test_dialytic_determinant_shared_root():
    p = np.poly([1.0, 2.0, 3.0, 4.0])[::-1]
    q = np.poly([1.0, 5.0, 6.0, 7.0])[::-1]
    det = np.linalg.det(dialytic(p, q))
    # Hadamard bound sets the achievable cancellation scale
    hadamard = np.prod([np.linalg.norm(r) for r in dialytic(p, q)])
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
        p = lead_p * np.poly(pr)[::-1]
        q = lead_q * np.poly(qr)[::-1]
        det = np.linalg.det(dialytic(p, q))
        resultant = lead_p ** 4 * np.prod(np.polyval(q[::-1], pr))
        if shared:
            hadamard = np.prod([np.linalg.norm(r) for r in dialytic(p, q)])
            assert abs(det) <= 1e-8 * hadamard
        else:
            assert abs(det - resultant) <= 1e-8 * abs(resultant)
