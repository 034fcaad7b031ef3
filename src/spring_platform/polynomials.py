"""Complex univariate polynomials and the elimination machinery built on
them: an all-roots simultaneous-iteration solver, the 8x8 dialytic matrix
of a quartic pair, and determinants of polynomial-valued matrices
recovered by evaluation plus interpolation on the unit circle.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable, Sequence

import numpy as np

from .errors import (InterpolationMismatch, InterpolationNoise,
                     NonConvergence, ZeroPolynomial)

TRIM_RELATIVE = 1e-13        # trailing-coefficient cutoff
ROOT_RESIDUAL_REL = 1e-8     # per-root residual bound for poly_roots
HOLDOUT_NODES = 16
HOLDOUT_REL = 1e-7           # target held-out accuracy
HOLDOUT_STRUCTURAL = 1e-3    # beyond this the degree bound itself is wrong


class CPolynomial:
    """Univariate polynomial with complex coefficients, index = degree.

    Trailing coefficients at or below TRIM_RELATIVE of the largest
    magnitude are dropped on construction, which defines the effective
    degree of interpolated data. A polynomial born from extended-precision
    data can keep those coefficients in `wide`; root finding then refines
    its answers against them, which matters for root sets whose
    sensitivity exceeds double-precision coefficient resolution.
    """

    __slots__ = ("coeffs", "wide")

    def __init__(self, coeffs: Sequence[complex], wide=None):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        keep_end = len(c)
        if c.size:
            top = np.max(np.abs(c))
            if top > 0:
                keep = np.nonzero(np.abs(c) > TRIM_RELATIVE * top)[0]
                keep_end = keep[-1] + 1 if keep.size else 0
                c = c[:keep_end]
            else:
                c = c[:0]
                keep_end = 0
        self.coeffs = c
        if wide is not None:
            wide = np.asarray(wide)[:keep_end]
        self.wide = wide

    @classmethod
    def from_roots(cls, roots: Sequence[complex],
                   leading: complex = 1.0) -> "CPolynomial":
        # accumulate in extended precision when available: for sensitive
        # root sets the double rounding of the expanded coefficients can
        # move roots far beyond the construction accuracy
        dtype = np.clongdouble if np.finfo(np.longdouble).eps < 1e-18 \
            else complex
        c = np.array([leading], dtype=dtype)
        for r in roots:
            c = np.convolve(c, np.array([-r, 1.0], dtype=dtype))
        if dtype is complex:
            return cls(c)
        return cls(c.astype(complex), wide=c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def __call__(self, x):
        if self.degree < 1:
            value = 0j if self.is_zero() else self.coeffs[0]
            return np.full_like(np.asarray(x, dtype=complex), value) \
                if np.ndim(x) else value
        return horner(self.coeffs, x)

    def __mul__(self, other: "CPolynomial") -> "CPolynomial":
        if self.is_zero() or other.is_zero():
            return CPolynomial([])
        return CPolynomial(np.convolve(self.coeffs, other.coeffs))

    def __add__(self, other: "CPolynomial") -> "CPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        c = np.zeros(n, dtype=complex)
        c[: len(self.coeffs)] += self.coeffs
        c[: len(other.coeffs)] += other.coeffs
        return CPolynomial(c)

    def __sub__(self, other: "CPolynomial") -> "CPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        c = np.zeros(n, dtype=complex)
        c[: len(self.coeffs)] += self.coeffs
        c[: len(other.coeffs)] -= other.coeffs
        return CPolynomial(c)

    @staticmethod
    def _divide_x2_plus_1(c: np.ndarray):
        n = len(c)
        q = np.zeros(n - 2, dtype=c.dtype)
        c = c.copy()
        for i in range(n - 3, -1, -1):
            q[i] = c[i + 2]
            c[i] = c[i] - q[i]  # subtract q[i] * (x^2 + 1) contribution at x^i
        return q, abs(c[0]) + abs(c[1])

    def deflate_unit_quadratic(self) -> tuple["CPolynomial", float]:
        """Divide by (x^2 + 1); returns (quotient, relative remainder)."""
        if len(self.coeffs) < 3:
            return CPolynomial([]), 1.0
        q, rem_abs = self._divide_x2_plus_1(self.coeffs)
        wide_q = None
        if self.wide is not None and len(self.wide) == len(self.coeffs):
            wide_q, _ = self._divide_x2_plus_1(self.wide)
        top = np.max(np.abs(self.coeffs))
        rem = float(rem_abs) / top if top > 0 else 0.0
        return CPolynomial(q, wide=wide_q), rem

    def __repr__(self) -> str:
        return f"CPolynomial(degree={self.degree})"


def horner(coeffs, x):
    """Value at x of the ascending coefficients along the last axis of
    coeffs; a stack of coefficient rows gives the stack of values. One row
    at a scalar x evaluates in scalar arithmetic."""
    columns = coeffs.transpose(-1, *range(coeffs.ndim - 1))
    acc = columns[-1]
    for c in columns[-2::-1]:
        acc = acc * x + c
    return acc


def _quadratic_roots(c0, c1, c2):
    """Both roots of c2 x^2 + c1 x + c0, numerically stable, for complex
    scalars or elementwise for arrays of coefficients."""
    c0, c1, c2 = (np.asarray(c, dtype=complex) for c in (c0, c1, c2))
    disc = np.sqrt(c1 * c1 - 4 * c2 * c0)
    q = -(c1 + np.where(np.abs(c1 + disc) >= np.abs(c1 - disc), disc,
                        -disc)) / 2
    r1 = q / c2
    with np.errstate(divide="ignore", invalid="ignore"):
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


def poly_roots(p: CPolynomial, max_iter: int = 500) -> np.ndarray:
    """All roots of p, with multiplicity, sorted by (real, imag).

    Degrees one and two use closed forms; moderate degrees use
    companion-matrix eigenvalues with Aberth simultaneous iteration as
    the fallback, and high degrees the reverse (the Aberth start is a
    deterministic perturbed circle scaled by a coefficient bound, so
    repeated runs are identical either way). Wide-precision coefficients,
    when carried, refine every root before the residual acceptance check.
    Raises ZeroPolynomial for an identically zero input and NonConvergence
    when any root fails the residual bound.
    """
    length = len(p.coeffs)
    if length < 2:
        raise ZeroPolynomial("all coefficients are numerically zero"
                             if length == 0 else
                             "constant polynomial has no roots")
    wide = p.wide if p.wide is not None and len(p.wide) == length else None
    # scaled to unit maximum; the leading entries up to the first one above
    # TRIM_RELATIVE are roots at the origin
    normalized = p.coeffs / np.max(np.abs(p.coeffs))
    low = int(np.argmax(np.abs(normalized) > TRIM_RELATIVE))
    # companion eigenvalues are the more accurate primary at moderate
    # degree (simultaneous iteration can land two iterates on one root of
    # a tight pair); Aberth covers high degrees and is the fallback
    companion_first = length - 1 - low <= 64
    for companion in (companion_first, not companion_first):
        roots = _attempt(normalized[low:], low, wide, companion, max_iter)
        ratio = _residual_excess(p.coeffs, roots)
        if not ratio > 1.0:
            return roots
    raise NonConvergence(
        f"root residuals exceed the bound (worst ratio {ratio:.2e})")


def _attempt(c: np.ndarray, zeros: int, wide, companion: bool,
             max_iter: int) -> np.ndarray:
    """Roots, sorted by (real, imag), of the polynomial with normalized
    coefficients c and `zeros` further roots at the origin: closed forms
    at degrees one and two, and above that the companion eigenvalues or
    Aberth iteration; refined on the wide coefficients when given."""
    deg = len(c) - 1
    if deg == 1:
        found = np.array([-c[0] / c[1]])
    elif deg == 2:
        found = np.array(_quadratic_roots(*c))
    elif deg > 2 and companion:
        found = companion_roots(c)
    elif deg > 2:
        found = np.array(_aberth(c, max_iter), dtype=complex)
    else:
        found = np.empty(0, dtype=complex)
    found = np.concatenate([np.zeros(zeros, dtype=complex), found])
    if wide is not None:
        found = np.array([_refine_wide(wide, z) for z in found])
    if np.isnan(found).any():
        # lexsort puts NaN last, where sorted leaves it in place
        return np.array(sorted(found, key=lambda z: (z.real, z.imag)))
    return found[np.lexsort((found.imag, found.real))]


def _residual_excess(coeffs: np.ndarray, roots: np.ndarray) -> float:
    """The largest ratio |p(r)| / (ROOT_RESIDUAL_REL * sum|c| *
    max(1, |r|)^deg) over the roots r of the polynomial with coefficients
    coeffs; acceptance needs it <= 1."""
    degree = len(coeffs) - 1
    values = np.abs(horner(coeffs, roots))
    bounds = ROOT_RESIDUAL_REL * np.sum(np.abs(coeffs)) \
        * np.maximum(1.0, np.abs(roots)) ** degree
    with np.errstate(invalid="ignore", over="ignore"):
        ratios = values / bounds
    return float(np.nanmax(ratios))


def _refine_wide(wide: np.ndarray, root: complex, steps: int = 6) -> complex:
    """Guarded Newton steps on the extended-precision coefficients. The
    double coefficients round to ~1e-16 relative, which sensitive root
    sets amplify far beyond that; the wide representation restores them."""
    dwide = wide[1:] * np.arange(1, len(wide), dtype=wide.dtype)
    x = wide.dtype.type(root)
    pv = horner(wide, x)
    for _ in range(steps):
        dv = horner(dwide, x)
        if dv == 0:
            break
        step = pv / dv
        nx = x - step
        npv = horner(wide, nx)
        if abs(npv) >= abs(pv):
            break
        x, pv = nx, npv
        if abs(step) < 1e-17 * (1 + abs(x)):
            break
    return complex(x)


def _aberth(c: np.ndarray, max_iter: int) -> list[complex]:
    deg = len(c) - 1
    dcoef = c[1:] * np.arange(1, len(c))
    bound = 1.0 + np.max(np.abs(c[:-1]) / abs(c[-1]))
    if abs(c[0]) > 0:
        radius = min(max(abs(c[0] / c[-1]) ** (1.0 / deg), 1e-3), bound)
    else:
        radius = min(1.0, bound)
    angles = 2 * np.pi * np.arange(deg) / deg + 0.7
    x = radius * np.exp(1j * angles)
    tiny = np.finfo(float).tiny
    csum = np.sum(np.abs(c))
    prev_step = math.inf
    stalled = 0
    for _ in range(max_iter):
        pv = horner(c, x)
        dv = horner(dcoef, x)
        dv = np.where(np.abs(dv) < tiny, tiny, dv)
        w = pv / dv
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, np.inf)
        small = np.abs(diff) < 1e-14 * (1 + np.abs(x[:, None]))
        if small.any():
            # split numerically coincident iterates
            jig = 1e-10 * (1 + np.abs(x)) * np.exp(1j * np.arange(deg))
            x = x + np.where(small.any(axis=1), jig, 0)
            continue
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < tiny, tiny, denom)
        delta = w / denom
        x = x - delta
        step = float(np.max(np.abs(delta) / (1.0 + np.abs(x))))
        if step < 5e-15:
            break
        # multiple roots stagnate above the step tolerance; stop once the
        # iteration plateaus with residuals at the attainable floor
        if step > 0.5 * prev_step:
            stalled += 1
            if stalled >= 8 and np.all(
                    np.abs(pv) <= 1e-13 * csum
                    * np.maximum(1.0, np.abs(x)) ** deg):
                break
        else:
            stalled = 0
        prev_step = step
    return list(x)


def _coefficients(p) -> np.ndarray:
    """Ascending coefficients of a CPolynomial or of a coefficient array."""
    return p.coeffs if isinstance(p, CPolynomial) else np.asarray(p)


def dialytic_matrix(p, q) -> np.ndarray:
    """8x8 matrix over the basis [L^7 .. L^0] whose singularity encodes a
    common root of the two quartics; the two base rows are shifted down in
    interleaved pairs (multiplication by L, L^2, L^3).

    Accepts CPolynomial instances or ascending coefficients of degree at
    most 4; stacks of coefficients (..., <=5) give the stack of matrices,
    in the coefficients' precision.
    """
    pc, qc = _coefficients(p), _coefficients(q)
    if max(pc.shape[-1], qc.shape[-1]) > 5:
        raise ValueError("degree exceeds 4")
    batch = np.broadcast_shapes(pc.shape[:-1], qc.shape[:-1])
    m = np.zeros(batch + (8, 8), dtype=np.result_type(pc, qc, complex))
    for shift in range(4):
        m[..., 2 * shift, 8 - shift - pc.shape[-1]: 8 - shift] = pc[..., ::-1]
        m[..., 2 * shift + 1, 8 - shift - qc.shape[-1]: 8 - shift] = \
            qc[..., ::-1]
    return m


def _cmul(a, b):
    """Elementwise complex product with separately rounded real products,
    which is how scalar complex arithmetic computes it; numpy's vectorised
    complex128 multiply fuses them and can differ in the last bit."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    re = ar * br
    out = np.empty(re.shape, dtype=np.result_type(a, b))
    np.subtract(re, ai * bi, out=out.real)
    np.add(ar * bi, ai * br, out=out.imag)
    return out


def _swap_rows(stack: np.ndarray, row: int, pivots: np.ndarray) -> None:
    """Exchange row `row` with row pivots[k] in each matrix k of a stack
    of matrices (or of vectors)."""
    moved = np.nonzero(pivots != row)[0]
    if moved.size:
        upper = stack[moved, row].copy()
        stack[moved, row] = stack[moved, pivots[moved]]
        stack[moved, pivots[moved]] = upper


def equilibrate(m: np.ndarray):
    """A stack of matrices with rows, then columns, scaled by powers of
    two (exact in binary floating point) to largest magnitudes in [1/2, 1),
    and the sum of the exponents taken out of each matrix.

    One magnitude pass: the maxima are elementwise maxima over the slices
    of the short axes, and those of the columns are taken from the
    row-scaled magnitudes, which the exact scaling makes those of the
    row-scaled matrix."""
    size = m.shape[-1]
    magnitude = np.abs(m)
    _, row_exps = np.frexp(functools.reduce(
        np.maximum, (magnitude[..., j] for j in range(size))))
    rows = np.ldexp(1.0, -row_exps)[..., None]
    magnitude *= rows
    _, col_exps = np.frexp(functools.reduce(
        np.maximum, (magnitude[..., i, :] for i in range(m.shape[-2]))))
    m = m * rows * np.ldexp(1.0, -col_exps)[..., None, :]
    return m, np.sum(row_exps, axis=-1) + np.sum(col_exps, axis=-1)


def lu_det(matrix: np.ndarray):
    """Determinant by LU with partial pivoting; works for any complex
    dtype, including extended precision.

    Rows and columns are pre-scaled by powers of two (exact in binary
    floating point) so a wide entry-magnitude spread does not inflate the
    condition number seen by the elimination. A stack of matrices
    (..., n, n) gives the stack of determinants; a single matrix is a
    stack of one.
    """
    batch = matrix.shape[:-2]
    n = matrix.shape[-1]
    m, shift = equilibrate(matrix.reshape(-1, n, n))
    vanishing = np.zeros(len(m), dtype=bool)  # a zero pivot
    det = np.ones(len(m), dtype=m.dtype)
    for i in range(n):
        pivots = i + np.argmax(np.abs(m[:, i:, i]), axis=-1)
        _swap_rows(m, i, pivots)
        flipped = pivots != i
        det[flipped] = -det[flipped]
        pivot = m[:, i, i]
        vanishing |= pivot == 0
        pivot = np.where(vanishing, 1, pivot)
        det = _cmul(det, pivot)
        # row by row: numpy buffers broadcast extended-precision operands
        # in full, which for a whole stack costs far more memory
        for j in range(i + 1, n):
            m[:, j, i:] -= (m[:, j, i] / pivot)[:, None] * m[:, i, i:]
    det = _cmul(det, np.power(m.dtype.type(2.0), shift))
    det[vanishing] = 0
    return det.reshape(batch)[()]


def _holdout_points(rng_seed: int = 20240817) -> np.ndarray:
    rng = np.random.default_rng(rng_seed)
    pts = []
    while len(pts) < HOLDOUT_NODES:
        x = rng.uniform(0.6, 1.4) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0))
        if min(abs(x - 1j), abs(x + 1j)) > 0.08:
            pts.append(x)
    return np.array(pts)


def polymatrix_det(evaluate: Callable[[np.ndarray], np.ndarray],
                   degree_bound: int,
                   clear: Callable[[np.ndarray], np.ndarray] | None = None,
                   ) -> CPolynomial:
    """Determinant of a matrix-valued function of x as a polynomial.

    Samples det(evaluate(x)) times the optional denominator-clearing
    factor at nodes on the unit circle (offset off the axes, 25 percent
    oversampled), recovers coefficients by the adjoint discrete transform
    (the least-squares solution on these nodes) and validates against 16
    held-out points at HOLDOUT_REL relative accuracy. Both callables take
    an array of x: evaluate returns the stack of matrices and clear the
    factors, one per x.
    """
    n_nodes = int(math.ceil(1.25 * (degree_bound + 1)))
    if n_nodes % 2:
        n_nodes += 1
    # keep nodes half a step away from +-i, where tan-half-cleared
    # determinants lose the most precision
    offset = 0.5 if n_nodes % 4 == 0 else 0.0
    # nodes and the adjoint transform in extended precision: the recovery
    # relies on root-of-unity orthogonality, and double-precision angles
    # would leak the coefficient dynamic range into every coefficient
    wide = np.clongdouble if np.finfo(np.longdouble).eps < 1e-18 else complex
    pi_wide = np.arccos(np.longdouble(-1.0)) if wide is np.clongdouble else np.pi
    angles = 2 * pi_wide * (np.arange(n_nodes) + offset) / n_nodes
    nodes = np.cos(angles).astype(wide) + 1j * np.sin(angles).astype(wide)

    def sample(xs):
        m = np.asarray(evaluate(xs))
        d = lu_det(m)
        if clear is not None:
            d = d * np.asarray(clear(xs)).astype(m.dtype)
        return d

    values = sample(nodes).astype(wide)
    inv_nodes = np.ones_like(nodes)
    step = 1.0 / nodes
    coeffs = np.zeros(degree_bound + 1, dtype=wide)
    for m_deg in range(degree_bound + 1):
        coeffs[m_deg] = np.mean(values * inv_nodes)
        inv_nodes = inv_nodes * step
    poly = CPolynomial(coeffs.astype(complex),
                       wide=coeffs if wide is not complex else None)

    # a wrong degree bound aliases the spectrum and mismatches at the scale
    # of the polynomial itself; deviations far below the coefficient scale
    # are sampling noise at cancelling points, so the floor sits at the
    # tolerance times the local magnitude bound
    scale = float(np.sum(np.abs(coeffs)))
    worst = 0.0
    held = _holdout_points()
    for x, direct in zip(held, sample(held)):
        approx = poly(x)
        magnitude = scale * max(1.0, abs(x)) ** degree_bound
        rel = float(abs(approx - direct) / (abs(direct) + HOLDOUT_REL * magnitude))
        worst = max(worst, rel)
    if worst > HOLDOUT_STRUCTURAL:
        raise InterpolationMismatch(
            f"held-out relative error {worst:.2e} exceeds "
            f"{HOLDOUT_STRUCTURAL:.0e} (degree bound {degree_bound} likely "
            f"wrong)")
    if worst > HOLDOUT_REL:
        # structurally consistent but noisier than the target accuracy
        warnings.warn(f"held-out relative error {worst:.2e} above the "
                      f"{HOLDOUT_REL:.0e} target", InterpolationNoise,
                      stacklevel=2)
    return poly
