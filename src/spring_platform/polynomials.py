"""Complex univariate polynomials and the elimination machinery built on
them: an all-roots simultaneous-iteration solver, the 8x8 dialytic matrix
of a quartic pair, determinants of polynomial-valued matrices recovered by
evaluation plus interpolation on the unit circle, and the linear
back-substitution that reads the second unknown off a 7x7 subsystem.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (IllConditionedBackSub, InterpolationMismatch,
                     InterpolationNoise, NonConvergence, ZeroPolynomial)

TRIM_RELATIVE = 1e-13        # trailing-coefficient cutoff
ROOT_RESIDUAL_REL = 1e-8     # per-root residual bound for poly_roots
BACKSUB_COND_LIMIT = 1e12
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
        if self.is_zero():
            return np.zeros_like(np.asarray(x, dtype=complex)) if np.ndim(x) else 0j
        acc = np.full_like(np.asarray(x, dtype=complex), self.coeffs[-1]) \
            if np.ndim(x) else self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            acc = acc * x + c
        return acc

    def derivative(self) -> "CPolynomial":
        if self.degree < 1:
            return CPolynomial([])
        k = np.arange(1, len(self.coeffs))
        return CPolynomial(self.coeffs[1:] * k)

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


def _quadratic_roots(c0, c1, c2):
    # numerically stable complex quadratic
    disc = cmath.sqrt(c1 * c1 - 4 * c2 * c0)
    if abs(c1 + disc) >= abs(c1 - disc):
        q = -(c1 + disc) / 2
    else:
        q = -(c1 - disc) / 2
    r1 = q / c2
    r2 = c0 / q if q != 0 else -c1 / c2 - r1
    return [r1, r2]


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
    (found,) = poly_roots_batch([p], max_iter)
    if isinstance(found, Exception):
        raise found
    return found


def poly_roots_batch(polys: Sequence[CPolynomial], max_iter: int = 500,
                     ) -> list:
    """poly_roots of every polynomial in polys, each entry either its root
    array or the exception poly_roots would raise for it.

    The companion eigenvalues of all moderate-degree members come from one
    companion_roots call per degree, and the residual bound is checked for
    all members of one degree at once.
    """
    out: list = [None] * len(polys)
    for i, p in enumerate(polys):
        if p.is_zero():
            out[i] = ZeroPolynomial("all coefficients are numerically zero")
        elif p.degree < 1:
            out[i] = ZeroPolynomial("constant polynomial has no roots")
    live = [i for i, item in enumerate(out) if item is None]
    normalized = {i: _normalized(polys[i].coeffs) for i in live}
    by_degree: dict[int, list[int]] = {}
    for i in live:
        if 3 <= len(normalized[i]) - 1 <= 64:
            by_degree.setdefault(len(normalized[i]) - 1, []).append(i)
    eigenvalues = {}
    for members in by_degree.values():
        stack = np.array([normalized[i] for i in members])
        eigenvalues.update(zip(members, companion_roots(stack)))

    # companion eigenvalues are the more accurate primary at moderate
    # degree (simultaneous iteration can land two iterates on one root of
    # a tight pair); Aberth covers high degrees and acts as the fallback
    def solvers(i):
        c = normalized[i]
        aberth = (lambda: _aberth(c, max_iter))
        if len(c) - 1 <= 64:
            return (lambda: eigenvalues[i]), aberth
        return aberth, (lambda: companion_roots(c))

    found = {i: _attempt(polys[i], normalized[i], solvers(i)[0])
             for i in live}
    excess = _residual_excess(polys, found)
    for i in live:
        if excess[i] > 1.0:
            found[i] = _attempt(polys[i], normalized[i], solvers(i)[1])
            excess.update(_residual_excess(polys, {i: found[i]}))
        out[i] = found[i] if not excess[i] > 1.0 else NonConvergence(
            f"root residuals exceed the bound (worst ratio {excess[i]:.2e})")
    return out


def _normalized(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients scaled to unit maximum, with ascending entries up to
    the first one above TRIM_RELATIVE dropped; the number dropped is the
    multiplicity of the root at the origin."""
    c = coeffs / np.max(np.abs(coeffs))
    return c[np.nonzero(np.abs(c) > TRIM_RELATIVE)[0][0]:]


def _attempt(p: CPolynomial, c: np.ndarray, solver) -> np.ndarray:
    """Roots of p, sorted, from its normalized coefficients c: the roots
    at the origin that c leaves out, closed forms at degrees one and two,
    and the solver's roots above; refined on p's wide coefficients when it
    carries them."""
    found = [0j] * (p.degree - (len(c) - 1))
    deg = len(c) - 1
    if deg == 1:
        found.append(-c[0] / c[1])
    elif deg == 2:
        found.extend(_quadratic_roots(c[0], c[1], c[2]))
    elif deg > 2:
        found.extend(solver())
    if p.wide is not None and len(p.wide) == len(p.coeffs):
        found = [_refine_wide(p.wide, r) for r in found]
    return np.array(sorted(found, key=lambda z: (z.real, z.imag)),
                    dtype=complex)


def _residual_excess(polys: Sequence[CPolynomial],
                     found: dict[int, np.ndarray]) -> dict[int, float]:
    """Largest ratio |p(r)| / (ROOT_RESIDUAL_REL * sum|c| * max(1, |r|)^deg)
    over the roots r found for each polys[i]; acceptance needs it <= 1.
    Polynomials of one degree are evaluated as one array."""
    groups: dict[int, list[int]] = {}
    for i in found:
        groups.setdefault(polys[i].degree, []).append(i)
    excess = {}
    for degree, members in groups.items():
        coeffs = np.array([polys[i].coeffs for i in members])
        roots = np.array([found[i] for i in members])
        values = np.repeat(coeffs[:, -1:], degree, axis=1)
        for k in range(degree - 1, -1, -1):
            values = values * roots + coeffs[:, k:k + 1]
        values = np.abs(values)
        csum = np.sum(np.abs(coeffs), axis=1, keepdims=True)
        bounds = ROOT_RESIDUAL_REL * csum \
            * np.maximum(1.0, np.abs(roots)) ** degree
        with np.errstate(invalid="ignore", over="ignore"):
            ratios = values / bounds
        excess.update(zip(members, np.nanmax(ratios, axis=1).tolist()))
    return excess


def _refine_wide(wide: np.ndarray, root: complex, steps: int = 6) -> complex:
    """Guarded Newton steps on the extended-precision coefficients. The
    double coefficients round to ~1e-16 relative, which sensitive root
    sets amplify far beyond that; the wide representation restores them."""
    dwide = wide[1:] * np.arange(1, len(wide), dtype=wide.dtype)

    def horner(coeffs, z):
        acc = coeffs[-1]
        for ck in coeffs[-2::-1]:
            acc = acc * z + ck
        return acc

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

    def horner(coeffs, z):
        acc = np.full_like(z, coeffs[-1])
        for ck in coeffs[-2::-1]:
            acc = acc * z + ck
        return acc

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


def _pad_descending(coeffs, length: int = 5) -> np.ndarray:
    """Ascending input padded to `length` and reversed to descending."""
    c = np.asarray(coeffs, dtype=complex)
    if len(c) > length:
        raise ValueError(f"degree exceeds {length - 1}")
    out = np.zeros(length, dtype=complex)
    out[: len(c)] = c
    return out[::-1]


def dialytic_matrix(p, q) -> np.ndarray:
    """8x8 matrix over the basis [L^7 .. L^0] whose singularity encodes a
    common root of the two quartics; the two base rows are shifted down in
    interleaved pairs (multiplication by L, L^2, L^3).

    Accepts CPolynomial instances or ascending coefficient sequences of
    degree at most 4.
    """
    pc = p.coeffs if isinstance(p, CPolynomial) else p
    qc = q.coeffs if isinstance(q, CPolynomial) else q
    pd = _pad_descending(pc)
    qd = _pad_descending(qc)
    m = np.zeros((8, 8), dtype=complex)
    for shift in range(4):
        m[2 * shift, 3 - shift: 8 - shift] = pd
        m[2 * shift + 1, 3 - shift: 8 - shift] = qd
    return m


def _cmul(a, b):
    """Elementwise complex product with separately rounded real products,
    which is how scalar complex arithmetic computes it; numpy's vectorised
    complex128 multiply fuses them and can differ in the last bit."""
    out = np.empty(np.broadcast(a, b).shape, dtype=np.result_type(a, b))
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _swap_rows(stack: np.ndarray, row: int, pivots: np.ndarray) -> None:
    """Exchange row `row` with row pivots[k] in each matrix k of a stack
    of matrices (or of vectors)."""
    moved = np.nonzero(pivots != row)[0]
    if moved.size:
        upper = stack[moved, row].copy()
        stack[moved, row] = stack[moved, pivots[moved]]
        stack[moved, pivots[moved]] = upper


def solve_dense(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting in the matrix dtype, for
    extended-precision systems the LAPACK wrappers cannot take.

    Solves a stack of systems over the leading axes of matrix (..., n, n)
    and rhs (..., n), which broadcast against each other; a single system
    is a stack of one, and a single matrix is eliminated once for a whole
    stack of right-hand sides. Every system gets the arithmetic of its own
    scalar elimination."""
    rhs = np.asarray(rhs)
    n = rhs.shape[-1]
    batch = np.broadcast_shapes(matrix.shape[:-2], rhs.shape[:-1])
    if matrix.ndim == 2:
        a = matrix[None].copy()
    else:
        a = np.broadcast_to(matrix, batch + (n, n)).reshape(-1, n, n).copy()
    b = np.broadcast_to(rhs, batch + (n,)).reshape(-1, n).copy()
    for i in range(n):
        pivots = i + np.argmax(np.abs(a[:, i:, i]), axis=-1)
        _swap_rows(a, i, pivots)
        _swap_rows(b, i, np.broadcast_to(pivots, len(b)))
        if np.any(a[:, i, i] == 0):
            raise ZeroDivisionError("singular system")
        # rows below the pivot are eliminated independently of each other
        factors = a[:, i + 1:, i] / a[:, i, i, None]
        a[:, i + 1:, i:] -= factors[:, :, None] * a[:, i, None, i:]
        b[:, i + 1:] -= _cmul(factors, b[:, i, None])
    x = np.zeros_like(b)
    for i in range(n - 1, -1, -1):
        dot = np.matmul(a[:, i, None, i + 1:], x[:, i + 1:, None])[:, 0, 0]
        x[:, i] = (b[:, i] - dot) / a[:, i, i]
    return x.reshape(batch + (n,))


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
    m = matrix.reshape(-1, n, n).copy()
    vanishing = np.zeros(len(m), dtype=bool)  # a zero row, column or pivot
    shift = 0
    for axis in (-1, -2):
        top = np.max(np.abs(m), axis=axis)
        vanishing |= np.any(top == 0, axis=-1)
        top[vanishing] = 1
        exps = np.floor(np.log2(top)).astype(int)
        scale = np.ldexp(np.ones_like(exps, dtype=float), exps)
        if axis == -1:
            m /= scale[:, :, None]
        else:
            m /= scale[:, None, :]
        shift = shift + np.sum(exps, axis=-1)
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


@dataclass
class PolyMatrix:
    """Square matrix whose entries are polynomials in one variable."""

    entries: list[list[CPolynomial]]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("entries must form a square matrix")

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def eval(self, x) -> np.ndarray:
        """Entry values at x, or the stack of them for an array of x."""
        n = self.dimension
        x = np.asarray(x)
        out = np.zeros(x.shape + (n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                out[..., i, j] = self.entries[i][j](x)
        return out

    def degree_bound(self) -> int:
        return sum(max(max(e.degree, 0) for e in row) for row in self.entries)

    def det_polynomial(self, degree_bound: int | None = None) -> CPolynomial:
        bound = self.degree_bound() if degree_bound is None else degree_bound
        return polymatrix_det(self.eval, bound)


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


@dataclass(frozen=True)
class BackSubResult:
    length: complex
    used_fallback: bool
    condition: float
    fallback_gap: float | None = None  # |linear - fallback| when both exist


def _nearest_pair(f_roots: np.ndarray, m_roots: np.ndarray):
    best = None
    for rf in f_roots:
        for rm in m_roots:
            d = abs(rf - rm)
            if best is None or d < best[0]:
                best = (d, rf, rm)
    return best


def back_substitute(f_coeffs, m_coeffs) -> BackSubResult:
    """Second-unknown recovery for a quartic pair that shares a root.

    Solves the square 7x7 system made of the first seven dialytic rows
    with the constant column moved to the right side and reads the shared
    root off the last component; cross-checked against (and replaced by,
    when ill-conditioned or in disagreement) the nearest pair among the
    two quartics' root sets.
    """
    fd = _pad_descending(f_coeffs if not isinstance(f_coeffs, CPolynomial)
                         else f_coeffs.coeffs)
    md = _pad_descending(m_coeffs if not isinstance(m_coeffs, CPolynomial)
                         else m_coeffs.coeffs)
    rows = []
    for shift in range(4):
        rf = np.zeros(8, dtype=complex)
        rf[3 - shift: 8 - shift] = fd
        rm = np.zeros(8, dtype=complex)
        rm[3 - shift: 8 - shift] = md
        rows.extend([rf, rm])
    m7 = np.array([rows[i][:7] for i in range(7)])
    rhs = np.zeros(7, dtype=complex)
    rhs[0] = -fd[4]  # constant coefficient of the first quartic
    rhs[1] = -md[4]

    # fallback: directly match roots of the two quartics
    pf = CPolynomial(np.asarray(f_coeffs if not isinstance(f_coeffs, CPolynomial)
                                else f_coeffs.coeffs, dtype=complex))
    pm = CPolynomial(np.asarray(m_coeffs if not isinstance(m_coeffs, CPolynomial)
                                else m_coeffs.coeffs, dtype=complex))
    fallback = None
    f_roots, m_roots = poly_roots_batch([pf, pm])
    if not isinstance(f_roots, Exception) \
            and not isinstance(m_roots, Exception):
        pair = _nearest_pair(f_roots, m_roots)
        if pair is not None:
            fallback = (pair[1] + pair[2]) / 2

    # equilibrate: rows by their largest entry, columns likewise (columns
    # span L^7 .. L, whose natural magnitude spread otherwise inflates the
    # condition number by orders of magnitude)
    row_scale = np.max(np.abs(m7), axis=1)
    row_scale[row_scale == 0] = 1.0
    m7_eq = m7 / row_scale[:, None]
    col_scale = np.max(np.abs(m7_eq), axis=0)
    col_scale[col_scale == 0] = 1.0
    m7_eq = m7_eq / col_scale[None, :]
    cond = float(np.linalg.cond(m7_eq))
    if math.isfinite(cond) and cond <= BACKSUB_COND_LIMIT:
        z = np.linalg.solve(m7_eq, rhs / row_scale) / col_scale
        length = z[-1]
        gap = None if fallback is None \
            else abs(length - fallback) / max(1.0, abs(fallback))
        # a large gap flags inexact input coefficients; the linear solve
        # stays the better seed and callers refine and filter
        return BackSubResult(length, False, cond, gap)
    if fallback is None:
        raise NonConvergence("back-substitution failed and no fallback pair")
    warnings.warn("back-substitution ill-conditioned; using quartic root "
                  "matching", IllConditionedBackSub, stacklevel=2)
    return BackSubResult(fallback, True, cond, None)
