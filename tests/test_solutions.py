import math

from spring_platform.solutions import EquilibriumSolution, pair_conjugates


def candidate(beta, length, accepted=True):
    return EquilibriumSolution(
        beta=complex(beta), length=complex(length), residual_force=0.0,
        residual_moment=0.0, rel_residual=0.0, is_real=False,
        accepted=accepted)


def test_pair_conjugates_symmetrizes_a_near_pair():
    out = pair_conjugates([candidate(0.5 + 1j, 7 - 2j),
                           candidate(0.5 - 1j + 1e-9, 7 + 2j)])
    assert out[0].beta == out[1].beta.conjugate()
    assert out[0].length == out[1].length.conjugate()


def test_pair_conjugates_skips_nan_candidates():
    # a NaN distance compares false against the tolerance, so without the
    # finiteness guard the accepted root would be averaged into NaN
    nan_row = candidate(0.5 - 1j, complex("nan"), accepted=False)
    root = candidate(0.5 + 1j, 7 - 2j)
    for solutions in ([nan_row, root], [root, nan_row]):
        out = pair_conjugates(solutions)
        paired_root = next(s for s in out if s.accepted)
        assert paired_root == root
        assert all(math.isfinite(abs(s.beta)) for s in out)


def test_pair_conjugates_prefers_the_finite_partner():
    nan_row = candidate(0.5 - 1j, complex("nan"), accepted=False)
    root = candidate(0.5 + 1j, 7 - 2j)
    partner = candidate(0.5 - 1j, 7 + 2j + 1e-9)
    out = pair_conjugates([root, nan_row, partner])
    assert out[0].length == out[2].length.conjugate()
    assert math.isfinite(abs(out[0].length))
    assert out[1] == nan_row
