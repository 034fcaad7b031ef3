"""Equilibrium solver for the all-zero-free-length configuration.

It runs on the engine of the one-nonzero case at k1 L01 = 0. The
right-hand sides of the unsquared pair vanish (B = D = 0), so the force
and moment residuals are A and C themselves, affine in L. In
z = exp(i beta) the exact tensors give z A and z C as rows of degree 1 in
L and at most 2 in z, and the 2x2 Sylvester determinant of the two rows
is a quartic in z with no excluded angle.

The quartic's roots are the eigenvalues of its companion matrix, exact
roots of monic coefficients moved by a small multiple of their norm
(Edelman & Murakami, Math. Comp. 64, 1995), after a degree drop: the
coefficients at or below TRIM_RELATIVE of the largest are dropped from
both ends. Each coefficient dropped at the low end is a root at z = 0
and each one dropped at the high end a root at infinity; neither has a
finite beta. Each other root gives beta = -i log z and L from the force
row. Newton's method on the 3x3 system in (L, z, s) refines all roots at
once: with B = D = 0 its roots with s != 0 are exactly those of A = C = 0.
"""

from __future__ import annotations

import math

import numpy as np

from .config import CASE_PATTERNS, CASE_ZERO, free_length_case
from .errors import DegenerateQuartic, NonZeroFreeLength
from .mechanism import MechanismParams, point_e
from .one_nonzero import UnsquaredPair, newton, structural_rows
from .polynomials import TRIM_RELATIVE, companion_roots, horner
from .solutions import EquilibriumSolution, ledger, mark_real

RESIDUAL_REL_TOL = 1e-8


def _quartic_roots(quartic: np.ndarray) -> tuple[np.ndarray, int, int]:
    """(The other roots, the count at z = 0, the count at infinity) of the
    ascending coefficients quartic, after the degree drop described above."""
    size = np.abs(quartic)
    low, high = np.flatnonzero(size > TRIM_RELATIVE * size.max())[[0, -1]]
    return (companion_roots(quartic[low:high + 1]) if high > low else
            np.empty(0, dtype=complex)), low, len(quartic) - 1 - high


def solve_zero_free_lengths(
        params: MechanismParams) -> list[EquilibriumSolution]:
    """All equilibrium configurations for the all-zero-free-length case.

    Returns the quartic's four roots (with multiplicity, complex included)
    as verified solutions sorted by beta. A root is accepted when A and C
    vanish to RESIDUAL_REL_TOL relative to the sum of the magnitudes of their
    tensor terms there. The z^0 and z^4 coefficients vanish together,
    exactly when the force residual does not depend on beta; the roots at
    z = 0 and at infinity of that degree drop have no finite beta and are
    reported as rejected rows of NaN length.
    """
    if free_length_case(params.free_lengths) != CASE_ZERO:
        raise NonZeroFreeLength(
            f"need {CASE_PATTERNS[CASE_ZERO]}, got {params.free_lengths}")
    pair = UnsquaredPair(params, point_e(params))
    origin = pair.foot()
    tensors = pair.tensors(origin)
    rows = tensors[[0, 2], :2]
    (a0, a1), (c0, c1) = rows
    quartic = np.convolve(a0, c1) - np.convolve(a1, c0)
    magnitude = np.convolve(abs(a0), abs(c1)) + np.convolve(abs(a1), abs(c0))
    if np.max(np.abs(quartic)) <= 1e-14 * np.max(magnitude):
        raise DegenerateQuartic("eliminated polynomial is identically zero")

    z, at_zero, at_infinity = _quartic_roots(quartic)
    # L from the force row, whose L coefficient (k1 + k2 + k3) z vanishes
    # only at z = 0
    u = -horner(a0, z) / horner(a1, z)
    # L1^2 from its tensor, the rows of z L1^2 in L at each z
    l1_sq = horner(horner(tensors[4], z[:, None]), u) / z
    u, z, _, (force, _, moment, _, _) = newton(pair, tensors, origin, u, z,
                                               np.sqrt(l1_sq), 1.0)

    beta, length = -1j * np.log(z), origin + u
    # the sums of the magnitudes of the tensor terms of z A and z C
    scale = np.einsum("kij,ni,nj->kn", np.abs(rows),
                      np.abs(u)[:, None] ** np.arange(2),
                      np.abs(z)[:, None] ** np.arange(3))
    rel = np.maximum(np.abs(z * force) / scale[0],
                     np.abs(z * moment) / scale[1])
    real = mark_real(beta, length)
    # beta = -i log z runs to +i infinity at z = 0 and to -i infinity as z
    # does
    infinite = np.repeat([complex(0, math.inf), complex(0, -math.inf)],
                         [at_zero, at_infinity])
    return ledger(
        dict(beta=np.where(real, beta.real, beta),
             length=np.where(real, length.real, length),
             residual_force=np.abs(force), residual_moment=np.abs(moment),
             rel_residual=rel, is_real=real, accepted=rel <= RESIDUAL_REL_TOL,
             squared_residual=np.zeros(len(z)), note=np.full(len(z), "")),
        structural_rows(infinite, np.full(len(infinite), complex("nan")),
                        0.0, "no finite beta"))
