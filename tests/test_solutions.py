import cmath
import math

import numpy as np

from spring_platform.solutions import EquilibriumSolution, ledger


def records(*candidates):
    """The ledger of candidates (beta, L, accepted), none of them real."""
    beta, length, accepted = (np.array(column) for column in zip(*candidates))
    zeros = np.zeros(len(candidates))
    return ledger(dict(
        beta=beta.astype(complex), length=length.astype(complex),
        residual_force=zeros, residual_moment=zeros, rel_residual=zeros,
        accepted=accepted, squared_residual=zeros,
        note=np.full(len(candidates), "")))


def test_pair_conjugates_symmetrizes_a_near_pair():
    out = records((0.5 + 1j, 7 - 2j, True), (0.5 - 1j + 1e-9, 7 + 2j, True))
    assert out[0].beta == out[1].beta.conjugate()
    assert out[0].length == out[1].length.conjugate()
    # sorted by beta
    assert out[0].beta.imag < 0 < out[1].beta.imag


def test_pair_conjugates_skips_nan_candidates():
    # a NaN distance compares false against the tolerance, so without the
    # finiteness guard the accepted root would be averaged into NaN
    nan_row = (0.5 - 1j, complex("nan"), False)
    root = (0.5 + 1j, 7 - 2j, True)
    for candidates in ([nan_row, root], [root, nan_row]):
        out = records(*candidates)
        paired_root = next(s for s in out if s.accepted)
        assert (paired_root.beta, paired_root.length) == root[:2]
        assert all(math.isfinite(abs(s.beta)) for s in out)


def test_pair_conjugates_prefers_the_finite_partner():
    nan_row = (0.5 - 1j, complex("nan"), False)
    root = (0.5 + 1j, 7 - 2j, True)
    partner = (0.5 - 1j, 7 + 2j + 1e-9, True)
    out = records(root, nan_row, partner)
    first, second = (s for s in out if cmath.isfinite(s.length))
    assert first.length == second.length.conjugate()
    assert first.beta == second.beta.conjugate()
    (unpaired,) = (s for s in out if not cmath.isfinite(s.length))
    assert unpaired.beta == nan_row[0] and not unpaired.accepted


def test_ledger_order_is_the_record_key_order():
    # rows in the order of the key (beta.re, beta.im, L.re, L.im) over the
    # records: ties in beta.re, -0.0 against 0.0, and rows of infinite
    # beta_im and NaN length, which no pairing moves, found and known. The
    # found row (1.5 - 0j, 9 + 1j) is complex, so no cast drops its -0.0.
    # Of the known groups, the one real row comes out cast and the empty
    # group adds no row
    inf, nan = math.inf, math.nan
    candidates = [
        (complex(0.0, inf), complex(nan, nan)),
        (complex(1.5, 2.0), 3 + 1j),
        (complex(-0.0, 1.0), 4 + 0j),
        (complex(1.5, -2.0), 3 - 1j),
        (complex(0.0, -inf), complex(nan, nan)),
        (complex(1.5, 2.0), 2 + 5j),
        (complex(0.0, 0.5), 6 + 0j),
        (complex(1.5, -0.0), 9 + 1j),
        (complex(-3.0, 0.0), 1 + 0j),
        (complex(1.5, 0.0), 8 + 0j),
        (complex(0.0, -inf), complex(nan, nan)),
    ]
    beta, length = (np.array(column) for column in zip(*candidates))
    count = len(candidates)
    zeros = np.zeros(count)
    empty = np.zeros(0, dtype=complex)
    out = ledger(
        dict(beta=beta, length=length, residual_force=zeros,
             residual_moment=zeros, rel_residual=np.arange(count, dtype=float),
             accepted=zeros.astype(bool), squared_residual=zeros,
             note=np.full(count, "")),
        (np.array([complex(1.5, 1e-17)]), np.array([complex(8.0, -1e-17)]),
         0.5, "known"),
        (empty, empty, inf, "empty"))
    records = [EquilibriumSolution(b, l, 0.0, 0.0, float(k),
                                   b.imag == l.imag == 0, False)
               for k, (b, l) in enumerate(candidates)]
    records.append(EquilibriumSolution(complex(1.5, 0.0), complex(8.0, 0.0),
                                       inf, inf, inf, True, False, 0.5,
                                       "known"))
    expected = sorted(records, key=lambda s: (s.beta.real, s.beta.imag,
                                              s.length.real, s.length.imag))
    assert [s.rel_residual for s in out] == \
        [s.rel_residual for s in expected]
    assert repr(out) == repr(expected)


def test_ledger_puts_nan_keys_last():
    # where a NaN key decides, Python's sorted gives no defined order; the
    # ledger puts NaN after every number in its place
    nan = math.nan
    beta = np.array([2.0, 2.0, 2.0, complex(nan, 0.0), 1.0])
    length = np.array([complex(nan, 0.0), 5.0, complex(5.0, nan), 0.0, 7.0])
    zeros = np.zeros(len(beta))
    out = ledger(dict(
        beta=beta.astype(complex), length=length.astype(complex),
        residual_force=zeros, residual_moment=zeros,
        rel_residual=np.arange(len(beta), dtype=float),
        accepted=zeros.astype(bool), squared_residual=zeros,
        note=np.full(len(beta), "")))
    assert [s.rel_residual for s in out] == [4.0, 1.0, 2.0, 0.0, 3.0]
