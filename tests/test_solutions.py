import cmath
import math

import numpy as np

from spring_platform.solutions import ledger


def records(*candidates):
    """The ledger of candidates (beta, L, accepted), all flagged complex."""
    beta, length, accepted = (np.array(column) for column in zip(*candidates))
    zeros = np.zeros(len(candidates))
    return ledger(dict(
        beta=beta.astype(complex), length=length.astype(complex),
        residual_force=zeros, residual_moment=zeros, rel_residual=zeros,
        is_real=zeros.astype(bool), accepted=accepted, squared_residual=zeros,
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
