"""Complex polynomial helpers of the solvers: Horner evaluation of
coefficient stacks, stable quadratic roots and the roots of a stack of
polynomials by their companion matrices.
"""

from __future__ import annotations

import numpy as np

TRIM_RELATIVE = 1e-13  # end-coefficient cutoff, relative to the largest


def horner(coeffs, x):
    """Value at x of the ascending coefficients along the last axis of
    coeffs; a stack of coefficient rows gives the stack of values. One row
    at a scalar x evaluates in scalar arithmetic."""
    columns = coeffs.transpose(-1, *range(coeffs.ndim - 1))
    acc = columns[-1]
    for c in columns[-2::-1]:
        acc = acc * x + c
    return acc


def _quadratic_q(c0, c1, c2):
    """q = -(c1 +- sqrt(c1^2 - 4 c2 c0)) / 2, the sign chosen so that
    nothing cancels: the roots of c2 x^2 + c1 x + c0 are q / c2, c0 / q."""
    disc = np.sqrt(c1 * c1 - 4 * c2 * c0)
    return -(c1 + np.where(np.abs(c1 + disc) >= np.abs(c1 - disc), disc,
                           -disc)) / 2


def _quadratic_roots(c0, c1, c2):
    """Both roots of c2 x^2 + c1 x + c0, numerically stable, for complex
    scalars or elementwise for arrays of coefficients. Where q = 0 the
    division c0 / q is computed and discarded; solve_equilibria, the one
    caller, runs with numpy's floating-point warnings off."""
    c0, c1, c2 = (np.asarray(c, dtype=complex) for c in (c0, c1, c2))
    q = _quadratic_q(c0, c1, c2)
    r1 = q / c2
    r2 = np.where(q != 0, c0 / q, -c1 / c2 - r1)
    return r1[()], r2[()]


def companion_roots(stack: np.ndarray) -> np.ndarray:
    """Roots of a stack of polynomials of one degree >= 1, given as
    ascending coefficient rows with a nonzero leading entry: eigenvalues of
    their companion matrices, built as numpy.roots builds them and
    computed in one eigvals call. A stack of one is numpy.roots."""
    desc = np.asarray(stack)[..., ::-1]
    deg = desc.shape[-1] - 1
    companion = np.zeros(desc.shape[:-1] + (deg, deg), dtype=desc.dtype)
    companion[..., np.arange(1, deg), np.arange(deg - 1)] = 1
    companion[..., 0, :] = -desc[..., 1:] / desc[..., :1]
    return np.linalg.eigvals(companion)
