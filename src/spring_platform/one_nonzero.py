"""Equilibrium solver for the configuration where only the first spring
(base origin to top origin) has a nonzero free length.

The free length makes the force and moment equations rational in the first
spring length L1. Multiplying through by L1 gives the unsquared pair
A L1 = B and C L1 = D, built here from the exact zero-free-length residual
forms so the defining identities hold to machine precision. Squaring and
substituting the closed form of L1 squared turns the pair into two
quartics in L whose coefficients depend on beta only; the 8x8 dialytic
determinant over the tan-half variable then yields a degree-48 polynomial.
Every root is back-substituted, polished on the exact squared pair, and
finally filtered by the unsquared residuals: squaring admits sign-flipped
root sets and the tan-half pole contributes its own factor, so a
substantial share of the 48 candidates is extraneous by construction.
"""

from __future__ import annotations

import cmath
import math
import operator
import warnings
from dataclasses import replace

import numpy as np

from .errors import (DegreeMismatch, InterpolationMismatch, MechanismError,
                     ProbeSingularity, WrongFreeLengthPattern)
from .geometry import Point2
from .mechanism import (MechanismParams, point_e, pose_from_trig,
                        residual_pair)
from .polynomials import (CPolynomial, _cabs, _cmul, _first_min, _mul,
                          _pydiv, _root_table, back_substitute_batch,
                          dialytic_matrix, horner, poly_roots,
                          poly_roots_batch, polymatrix_det, solve_dense)
from .solutions import (EquilibriumSolution, mark_real, pair_conjugates,
                        sort_solutions)

ACCEPT_REL_TOL = 1e-6
RESULTANT_DEGREE = 48
CLEAR_EXPONENT = 24          # trig-degree bound: three pole orders per row
CONVERGED_SQ_TOL = 1e-9      # squared-pair residual that counts as converged

_LONGDOUBLE_OK = np.finfo(np.longdouble).eps < 1e-18


def _require_pattern(params: MechanismParams) -> None:
    l01, l02, l03 = params.free_lengths
    if not (l01 > 0 and l02 == 0 and l03 == 0):
        raise WrongFreeLengthPattern(
            f"need L01 > 0 and L02 = L03 = 0, got {params.free_lengths}")


class _UnsquaredPair:
    """The pair A L1 = B, C L1 = D of one mechanism as a function of
    (L, cos beta, sin beta), with the squared first-spring length L1^2.

    The per-mechanism constants are read once, at construction. The
    arithmetic is that of pose_from_trig and Point2, operation for
    operation, without building the intermediate points, so the values
    are bit-identical to the pose-based residual forms. It accepts complex
    scalars and, elementwise, complex arrays. Complex products go through
    `mul`: the default _mul gives each element of a complex128 stack its
    scalar value, which refinement needs; the eliminant's sampling passes
    operator.mul, numpy's own product, which it has always used.
    """

    __slots__ = ("params", "e", "ca", "sa", "ex", "ey", "px2", "py2", "d2",
                 "o1x", "o1y", "a1x", "a1y", "k1", "k2", "k3", "kl",
                 "radius", "fast_nodes", "fast_inverse", "mul")

    def __init__(self, params: MechanismParams, e: Point2, mul=_mul):
        self.params, self.e, self.mul = params, e, mul
        self.ca = math.cos(params.surface_angle)
        self.sa = math.sin(params.surface_angle)
        self.ex, self.ey = e.x, e.y
        self.px2, self.py2 = params.p_in_top.x, params.p_in_top.y
        self.d2 = params.d_o2a2
        self.o1x, self.o1y = params.base_origin.x, params.base_origin.y
        a1 = params.a1_fixed
        self.a1x, self.a1y = a1.x, a1.y
        self.k1, self.k2, self.k3 = params.stiffness
        self.kl = self.k1 * params.free_lengths[0]
        self.radius = probe_radius(params, e)
        self.fast_nodes, self.fast_inverse = _fast_probe(self.radius)

    def terms(self, length, cos_beta, sin_beta):
        """(A, B, C, D, L1^2) at one sample."""
        ca, sa = self.ca, self.sa
        # the pose: rotation by (surface_angle + beta), pin P on the
        # surface at L, top origin O2 and anchor A2
        cab = ca * cos_beta - sa * sin_beta
        sab = sa * cos_beta + ca * sin_beta
        px = self.ex + length * ca
        py = self.ey + length * sa
        o2x = px + cab * self.px2 - sab * self.py2
        o2y = py + sab * self.px2 + cab * self.py2
        a2x = o2x - self.d2 * cab
        a2y = o2y - self.d2 * sab
        # spring vectors O1->O2, O1->A2, A1->A2 and arms P->O1, P->A1
        x1, y1 = o2x - self.o1x, o2y - self.o1y
        x2, y2 = a2x - self.o1x, a2y - self.o1y
        x3, y3 = a2x - self.a1x, a2y - self.a1y
        k1, k2, k3 = self.k1, self.k2, self.k3
        force_coef = ((k1 * x1 + k2 * x2 + k3 * x3) * ca
                      + (k1 * y1 + k2 * y2 + k3 * y3) * sa)
        r1x, r1y = self.o1x - px, self.o1y - py
        r3x, r3y = self.a1x - px, self.a1y - py
        moment_coef = ((self.mul(r1x, y1 * k1) - self.mul(r1y, x1 * k1))
                       + (self.mul(r1x, y2 * k2) - self.mul(r1y, x2 * k2))
                       + (self.mul(r3x, y3 * k3) - self.mul(r3y, x3 * k3)))
        force_rhs = self.kl * (x1 * ca + y1 * sa)
        moment_rhs = self.kl * (self.mul(r1x, y1) - self.mul(r1y, x1))
        l1_sq = self.mul(x1, x1) + self.mul(y1, y1)
        return force_coef, force_rhs, moment_coef, moment_rhs, l1_sq

    def _squared_terms(self, length, cos_beta, sin_beta):
        """(A^2 L1^2, B^2, C^2 L1^2, D^2)."""
        a, b, c, d, l1_sq = self.terms(length, cos_beta, sin_beta)
        return (self.mul(self.mul(a, a), l1_sq), self.mul(b, b),
                self.mul(self.mul(c, c), l1_sq), self.mul(d, d))

    def squared(self, length, cos_beta, sin_beta):
        """The squared pair (F, M) = (A^2 L1^2 - B^2, C^2 L1^2 - D^2)."""
        fa, fb, ma, mb = self._squared_terms(length, cos_beta, sin_beta)
        return fa - fb, ma - mb

    def squared_scaled(self, length, cos_beta, sin_beta):
        """(F, M, F scale, M scale), each scale the sum of the magnitudes
        of its two terms."""
        fa, fb, ma, mb = self._squared_terms(length, cos_beta, sin_beta)
        return (fa - fb, ma - mb, _cabs(fa) + _cabs(fb),
                _cabs(ma) + _cabs(mb))

    def quartic_pair(self, cos_beta, sin_beta, dtype=complex):
        """Ascending coefficients (F, M), each a quartic in L, at fixed
        beta trig values; arrays of them give stacks of coefficients.

        Coefficients are recovered from five probe evaluations on a circle
        of L values (an interpolation that is exact for a quartic) and
        validated at three held-out L nodes; samples that fail the
        validation are re-probed once on a shifted circle before
        ProbeSingularity is raised.
        """
        if np.ndim(cos_beta):
            cb = np.asarray(cos_beta, dtype=dtype)
            sb = np.asarray(sin_beta, dtype=dtype)
        else:
            cb, sb = dtype(cos_beta), dtype(sin_beta)
        f, m, ok = self._probe(cb, sb, self.radius, dtype)
        if np.all(ok):
            return f, m
        radius = 1.55 * self.radius
        f2, m2, ok2 = self._probe(cb, sb, radius, dtype)
        if not np.all(ok | ok2):
            raise ProbeSingularity(
                f"probe circle radius {radius} failed held-out check")
        keep = np.asarray(ok)[..., None]
        return np.where(keep, f, f2), np.where(keep, m, m2)

    def _probe(self, cb, sb, radius, dtype):
        """Quartic pair interpolated on one probe circle, and whether it
        passed the held-out check."""
        nodes = [dtype(radius) * dtype(cmath.exp(2j * cmath.pi * j / 5))
                 for j in range(5)]
        values = [self.squared(node, cb, sb) for node in nodes]
        # interpolate through the actual nodes (an exact Vandermonde solve,
        # so node roundoff cannot leak across the coefficient scales)
        vander = np.array([[node ** k for k in range(5)] for node in nodes],
                          dtype=dtype)
        samples = np.stack([np.stack(column, axis=-1)
                            for column in zip(*values)]).astype(dtype)
        f_coeffs, m_coeffs = solve_dense(vander, samples)
        f_sum = np.sum(np.abs(f_coeffs), axis=-1).astype(float)
        m_sum = np.sum(np.abs(m_coeffs), axis=-1).astype(float)
        ok = True
        for held in (0.61 * radius, dtype(1.42j) * dtype(radius) / 2,
                     dtype(-0.83 + 0.4j) * dtype(radius)):
            direct_f, direct_m = self.squared(dtype(held), cb, sb)
            interp_f = horner(f_coeffs, dtype(held), self.mul)
            interp_m = horner(m_coeffs, dtype(held), self.mul)
            # blend in the coefficient magnitude at the node so cancelling
            # held-out values do not turn roundoff into a spurious mismatch
            mag = float(max(1.0, abs(complex(held))) ** 4)
            scale_f = _cabs(direct_f) + 1e-3 * f_sum * mag
            scale_m = _cabs(direct_m) + 1e-3 * m_sum * mag
            ok = ok & ~((_cabs(interp_f - direct_f) > 1e-9 * scale_f)
                        | (_cabs(interp_m - direct_m) > 1e-9 * scale_m))
        return f_coeffs, m_coeffs, ok


def _tan_half_trig(x, cpython=None, mul=_mul):
    """(cos beta, sin beta) at the tan-half value x = tan(beta / 2).

    x * x is formed by `mul`, as in _UnsquaredPair. A complex128 stack
    divides as numpy scalars do, except the elements flagged in the
    boolean mask `cpython`: those divide as Python complex numbers do (see
    polynomials._pydiv). Branch following starts from Python complex
    points, and points it returns unmoved keep that rounding through
    polishing and classification.
    """
    xx = mul(x, x)
    num_c, num_s, den = 1 - xx, 2 * x, 1 + xx
    cos_b, sin_b = num_c / den, num_s / den
    if cpython is not None and cpython.any():
        cos_b[cpython] = _pydiv(num_c[cpython], den[cpython])
        sin_b[cpython] = _pydiv(num_s[cpython], den[cpython])
    return cos_b, sin_b


def abcd_at(length, beta, params: MechanismParams, e: Point2):
    """(A, B, C, D) of the unsquared pair at one (L, beta); complex
    arguments are fine. A and C are the zero-free-length residual forms,
    B and D carry the free-length correction."""
    _require_pattern(params)
    cb, sb = (cmath.cos(beta), cmath.sin(beta)) if isinstance(beta, complex) \
        else (math.cos(beta), math.sin(beta))
    return _UnsquaredPair(params, e).terms(length, cb, sb)[:4]


def probe_radius(params: MechanismParams, e: Point2) -> float:
    """L-probe circle radius matched to the geometry scale, which keeps
    the quartic coefficient extraction well balanced."""
    d = e - params.base_origin
    return max(2.0, 0.5 * abs(d.norm()) + params.d_o2a2)


def quartic_pair(cos_beta, sin_beta, params: MechanismParams, e: Point2,
                 dtype=complex):
    """Ascending coefficients (F, M), each a quartic in L, of the squared
    pair at fixed beta trig values (see _UnsquaredPair.quartic_pair)."""
    return _UnsquaredPair(params, e).quartic_pair(cos_beta, sin_beta, dtype)


def quartic_pair_at(x_beta, params: MechanismParams,
                    e: Point2 | None = None):
    """Quartic pair at a tan-half value (10 ascending complex numbers)."""
    _require_pattern(params)
    if e is None:
        e = point_e(params)
    return quartic_pair(*_tan_half_trig(x_beta), params, e)


def resultant_polynomial(params: MechanismParams,
                         e: Point2 | None = None) -> CPolynomial:
    """Eliminant of the squared quartic pair over the tan-half variable.

    Samples the 8x8 dialytic determinant, clears the tan-half denominators
    with (1 + x^2) to the trig-degree power, and interpolates; the clearing
    exponent starts at the structural bound and grows until the held-out
    validation passes. Factors of (1 + x^2) beyond the expected degree are
    deflated; if the effective degree still differs from the expected 48 a
    DegreeMismatch warning is issued and the actual-degree polynomial is
    returned. Determinant samples run in extended precision when the
    platform provides it, all sample points of one fit as one array.
    """
    _require_pattern(params)
    if e is None:
        e = point_e(params)
    pair = _UnsquaredPair(params, e, mul=operator.mul)
    dtype = np.clongdouble if _LONGDOUBLE_OK else complex

    def evaluate(xs):
        cb, sb = _tan_half_trig(np.asarray(xs).astype(dtype), mul=operator.mul)
        return dialytic_matrix(*pair.quartic_pair(cb, sb, dtype=dtype))

    last_exc: Exception | None = None
    for extra in range(3):
        exponent = CLEAR_EXPONENT + extra
        bound = RESULTANT_DEGREE + 2 * extra

        def clear(xs, _exp=exponent):
            xd = np.asarray(xs).astype(dtype)
            return (dtype(1) + xd * xd) ** _exp

        try:
            poly = polymatrix_det(evaluate, bound, clear=clear)
        except InterpolationMismatch as exc:
            last_exc = exc
            continue
        # all inputs are real, so the eliminant has real coefficients;
        # dropping the imaginary sampling noise restores exact conjugate
        # symmetry of the root set
        wide = None
        if poly.wide is not None:
            wide = poly.wide.real.astype(poly.wide.dtype)
        poly = CPolynomial(poly.coeffs.real, wide=wide)
        while poly.degree > RESULTANT_DEGREE:
            quotient, rem = poly.deflate_unit_quadratic()
            if rem > 1e-7:
                break
            poly = quotient
        if poly.degree != RESULTANT_DEGREE:
            warnings.warn(
                f"eliminant degree {poly.degree} after pole deflation "
                f"(expected {RESULTANT_DEGREE})", DegreeMismatch, stacklevel=2)
        return poly
    raise last_exc if last_exc is not None else InterpolationMismatch("no fit")


def _polish_squared(x, length, cpython, pair, steps: int = 40):
    """Damped Newton on the exact squared pair in (x, L), run in lockstep
    over a stack of starts; cpython is the _tan_half_trig mask of x.

    The iteration differentiates the raw (holomorphic) pair and keeps a
    step only when the residual magnitude drops, so candidates that are
    not actual solutions (pole artifacts) stay put. Returns (x, L,
    cpython), the mask cleared where a step was taken.
    """
    def evaluate(xs, ls, cp):
        """The pair at (x, L), (x + hx, L) and (x, L + hl), stacked (F or
        M, point, member), with the steps hx and hl. A trial point is
        evaluated with its difference points, which the next step needs
        exactly when the trial point is kept."""
        hx, hl = 1e-7 * (1 + _cabs(xs)), 1e-7 * (1 + _cabs(ls))
        f, m = pair.squared(np.concatenate([ls, ls, ls + hl]),
                            *_tan_half_trig(np.concatenate([xs, xs + hx, xs]),
                                            np.tile(cp, 3)))
        return np.stack([f, m]).reshape(2, 3, len(xs)), hx, hl

    x, length, cpython = x.copy(), length.copy(), cpython.copy()
    values, hx, hl = evaluate(x, length, cpython)
    norm = _cabs(values[0, 0]) + _cabs(values[1, 0])
    active = np.ones(len(x), dtype=bool)
    for _ in range(steps):
        active &= norm != 0
        idx = np.nonzero(active)[0]
        if not idx.size:
            break
        (f, fx, fl), (m, mx, ml) = values[:, :, idx]
        j11, j12 = (fx - f) / hx[idx], (fl - f) / hl[idx]
        j21, j22 = (mx - m) / hx[idx], (ml - m) / hl[idx]
        det = _cmul(j11, j22) - _cmul(j12, j21)
        live = det != 0
        if not live.all():
            active[idx[~live]] = False
            idx = idx[live]
            f, m, j11, j12, j21, j22, det = (
                v[live] for v in (f, m, j11, j12, j21, j22, det))
        xi, li = x[idx], length[idx]
        dx = (_cmul(f, j22) - _cmul(m, j12)) / det
        dl = (_cmul(j11, m) - _cmul(j21, f)) / det
        cap = 1.0 + _cabs(xi)
        size = _cabs(dx)
        big = size > cap
        scale = cap[big] / size[big]
        dx[big] *= scale
        dl[big] *= scale
        nx, nl = xi - dx, li - dl
        trial, nhx, nhl = evaluate(nx, nl, np.zeros(len(idx), dtype=bool))
        new_norm = _cabs(trial[0, 0]) + _cabs(trial[1, 0])
        take = ~(new_norm >= norm[idx])
        moved = idx[take]
        x[moved], length[moved], cpython[moved] = nx[take], nl[take], False
        values[:, :, moved], norm[moved] = trial[:, :, take], new_norm[take]
        hx[moved], hl[moved] = nhx[take], nhl[take]
        settled = _cabs(dx[take]) + _cabs(dl[take]) \
            < 1e-15 * (1 + _cabs(nx[take]) + _cabs(nl[take]))
        active[idx[~take]] = False
        active[moved[settled]] = False
    return x, length, cpython


def _squared_rel(x, length, cpython, pair):
    """Scale-normalized squared-pair residual of each point of a stack."""
    f, m, fs, ms = pair.squared_scaled(length, *_tan_half_trig(x, cpython))
    rel_f, rel_m = _cabs(f) / (fs + 1e-30), _cabs(m) / (ms + 1e-30)
    return np.where(rel_m > rel_f, rel_m, rel_f)  # max() keeps a NaN rel_f


def _fast_probe(radius: float):
    """Probe nodes on one circle plus the inverse of their Vandermonde."""
    nodes = [radius * cmath.exp(2j * cmath.pi * j / 5) for j in range(5)]
    inv = np.linalg.inv(np.array([[n ** k for k in range(5)] for n in nodes]))
    return np.array(nodes), inv


def _quartic_pair_fast(x, cpython, pair):
    """Quartic pairs (F, M), coefficient rows (n, 5), at a stack of tan-half
    values (cpython as in _tan_half_trig), without held-out validation;
    used inside refinement after the sampling stage has already validated
    the construction many times over."""
    cb, sb = _tan_half_trig(x, cpython)
    # all five probe nodes at once: (node, n) per function
    values = np.array(pair.squared(pair.fast_nodes[:, None], cb, sb))
    # one matrix-vector product per row, the product a single row gets
    # (a matrix-matrix product over the rows rounds differently)
    samples = values.transpose(0, 2, 1)[..., None]
    f_rows, m_rows = np.matmul(pair.fast_inverse, samples)[..., 0]
    return f_rows, m_rows


def _above_one_pow4(v):
    """max(1, v) ** 4 per element, with the rounding of Python's pow;
    numpy's vectorised power can differ in the last bit."""
    return np.array([t ** 4 if t > 1.0 else 1.0 for t in v.tolist()])


def _nearest_roots(roots, valid, near):
    """Per row, the root nearest to near (the first on ties)."""
    dist = np.where(valid, np.abs(roots - near[:, None]), np.inf)
    return roots[np.arange(len(roots)), np.argmin(dist, axis=1)]


def _branch_state(x, near_length, cpython, pair):
    """Per tan-half value of a stack, the state on the first-quartic root
    branch nearest to near_length: (ok, length, m_value, m_scale, slope,
    has_slope). slope is the finite-difference derivative of m_value along
    that branch; has_slope is False when the quartic at the offset point
    cannot be solved, ok False when the quartic at x cannot be. The
    quartics at x and at the offset points share one root solve."""
    count = len(x)
    delta = 1e-7 * (1 + _cabs(x))
    f_rows, m_rows = _quartic_pair_fast(np.concatenate([x, x + delta]),
                                        np.concatenate([cpython, cpython]),
                                        pair)
    roots, valid = _root_table(poly_roots_batch(f_rows), 4)
    ok = valid.any(axis=1)
    length = _nearest_roots(roots[:count], valid[:count], near_length)
    ahead = _nearest_roots(roots[count:], valid[count:], length)
    m_val = horner(m_rows, np.concatenate([length, ahead]), _cmul)
    m_scale = np.sum(np.abs(m_rows[:count]), axis=1) \
        * _above_one_pow4(_cabs(length))
    slope = (m_val[count:] - m_val[:count]) / delta
    return ok[:count], length, m_val[:count], m_scale, slope, ok[count:]


def _follow_branch(x0, length_seed, pair, steps: int = 30):
    """Refine squared-pair solutions by tracking one root branch of the
    first quartic while driving the second quartic to zero in x, in
    lockstep over a stack of starts (x0, length_seed).

    Along the branch the first equation holds exactly, so the problem is a
    one-dimensional root find for the second; this stays robust where the
    joint Newton stalls between near-double solutions. Returns (x, L,
    cpython, converged): converged is False where the iteration leaves the
    neighbourhood or fails to converge, and cpython marks the results
    still at their start, a Python complex point (see _tan_half_trig).
    """
    count = len(x0)
    x = x0.copy()
    cpython = np.ones(count, dtype=bool)
    ok, length, m_val, m_scale, slope, has_slope = _branch_state(
        x, length_seed, cpython, pair)
    converged = np.zeros(count, dtype=bool)
    active = ok
    for _ in range(steps):
        idx = np.nonzero(active)[0]
        if not idx.size:
            break
        done = _cabs(m_val[idx]) <= 1e-12 * m_scale[idx]
        converged[idx[done]] = True
        go = ~done & has_slope[idx] & (slope[idx] != 0)
        active[idx[~go]] = False
        idx = idx[go]
        step = m_val[idx] / slope[idx]
        cap = 0.1 * (1 + _cabs(x[idx]))
        size = _cabs(step)
        big = size > cap
        step[big] *= cap[big] / size[big]
        x[idx] = x[idx] - step
        cpython[idx] = False
        # leaving the candidate's neighbourhood ends the iteration
        left = _cabs(x[idx] - x0[idx]) > 0.5 * (1 + _cabs(x0[idx]))
        active[idx[left]] = False
        idx = idx[~left]
        if not idx.size:
            continue
        state = _branch_state(x[idx], length[idx], cpython[idx], pair)
        active[idx[~state[0]]] = False
        length[idx], m_val[idx], m_scale[idx], slope[idx], has_slope[idx] = \
            state[1:]
    idx = np.nonzero(active)[0]
    converged[idx] = _cabs(m_val[idx]) <= 1e-10 * m_scale[idx]
    return x, length, cpython, converged


def _gap_grid_rescue(x0, radius, pair, grid: int = 7):
    """Per start x0 of a stack, the best common-root point on a small grid
    around it: the grid point and first-quartic root with the smallest
    relative second-quartic value, the seed of a last-resort branch
    following for candidates whose neighbourhood holds near-double
    solutions. Returns (x, L, found)."""
    offsets = np.array([np.linspace(-r, r, grid) for r in radius])
    points = x0[:, None] + np.repeat(offsets, grid, axis=1) \
        + 1j * np.tile(offsets, grid)
    f_rows, m_rows = _quartic_pair_fast(
        points.ravel(), np.zeros(points.size, dtype=bool), pair)
    roots, valid = _root_table(poly_roots_batch(f_rows), 4)
    m_scale = np.sum(np.abs(m_rows), axis=1) + 1e-30
    gaps = _cabs(horner(m_rows[:, None, :], roots, _cmul)) \
        / (m_scale[:, None] * _above_one_pow4(_cabs(roots).ravel())
           .reshape(roots.shape))
    # (point, root) in the order of a scan over points, then their roots
    best = _first_min(gaps.reshape(len(x0), -1), valid.reshape(len(x0), -1))
    point, root = np.divmod(np.maximum(best, 0), roots.shape[1])
    every = np.arange(len(x0))
    return (points[every, point], roots[every * grid * grid + point, root],
            best >= 0)


def _relative_residuals(length, cb, sb, pair):
    """(unsquared, squared) scale-normalized residuals at one sample."""
    a, b, c, d, l1_sq = pair.terms(length, cb, sb)
    l1 = cmath.sqrt(l1_sq)
    rf = abs(a * l1 - b)
    rm = abs(c * l1 - d)
    f_scale = abs(a * l1) + abs(b) + 1e-30
    m_scale = abs(c * l1) + abs(d) + 1e-30
    rel = max(rf / f_scale, rm / m_scale)
    fsq, msq, fs, ms = pair.squared_scaled(length, cb, sb)
    return rel, max(abs(fsq) / (fs + 1e-30), abs(msq) / (ms + 1e-30))


def _mechanism_residuals(length, cb, sb, pair):
    """Magnitudes of the force and moment residuals of the pose, infinite
    where the springs are degenerate."""
    pose = pose_from_trig(length, cb, sb, pair.params, pair.e)
    try:
        fres, mres = residual_pair(pose, pair.params)
    except MechanismError:
        return math.inf, math.inf
    return abs(fres), abs(mres)


def _classify_root(x, length, pair, accept_tol) -> EquilibriumSolution:
    cb, sb = _tan_half_trig(x)
    rel, sq_rel = _relative_residuals(length, cb, sb, pair)
    beta = 2 * cmath.atan(x)
    real = mark_real(beta, complex(length))
    if real:
        beta = complex(beta.real)
        length = complex(complex(length).real)
    residual_force, residual_moment = _mechanism_residuals(length, cb, sb, pair)
    return EquilibriumSolution(
        beta=complex(beta), length=complex(length),
        residual_force=float(residual_force),
        residual_moment=float(residual_moment),
        rel_residual=float(rel), is_real=real,
        accepted=bool(rel <= accept_tol), squared_residual=float(sq_rel))


def solve_one_nonzero_free_length(params: MechanismParams,
                                  accept_tol: float = ACCEPT_REL_TOL,
                                  ) -> list[EquilibriumSolution]:
    """All equilibrium candidates for the one-nonzero-free-length case.

    Every root of the degree-48 eliminant is returned with accepted or
    rejected status: accepted roots satisfy the unsquared pair to
    accept_tol (scale-normalized), rejected ones are the extraneous roots
    that squaring and the tan-half pole introduced (their squared-pair
    residuals are recorded for reporting). A genuine beta = pi common root
    of the quartic pair, invisible to the tan-half variable, would be
    appended separately.
    """
    _require_pattern(params)
    pair = _UnsquaredPair(params, point_e(params))
    poly = resultant_polynomial(params, pair.e)
    roots = poly_roots(poly)

    # Refinement. Eliminant roots inside flat clusters carry errors far
    # above the coefficient noise, so converged points are pooled,
    # deduplicated, and assigned back to the nearest candidate roots (one
    # entry per root). A cheap first pass handles well-conditioned roots;
    # candidates still unassigned afterwards explore the root branches of
    # the first quartic, where the second quartic reduces to a
    # one-dimensional root find, plus a local grid rescue. Each stage runs
    # once over all the candidates that need it; the points it yields
    # enter the pool in candidate order.
    records = [{"x0": x0,
                "near_pole": min(abs(x0 - 1j), abs(x0 + 1j)) < 0.15,
                "note": "", "fail": None} for x0 in roots]
    pool: list[tuple[complex, complex, float]] = []

    def try_points(x, length, cpython):
        """Polished points (x, L, squared residual), with x a Python
        complex where cpython is still set."""
        x, length, cpython = _polish_squared(x, length, cpython, pair,
                                             steps=4)
        sq = _squared_rel(x, length, cpython, pair)
        return [(complex(x[k]) if cpython[k] else x[k], length[k], sq[k])
                for k in range(len(x))]

    def add_point(point, record):
        if point[2] <= CONVERGED_SQ_TOL:
            pool.append(point)
        elif record["fail"] is None or point[2] < record["fail"][2]:
            record["fail"] = point

    backs = back_substitute_batch(*pair.quartic_pair(*_tan_half_trig(roots)))
    solved = [i for i, back in enumerate(backs)
              if not isinstance(back, MechanismError)]
    unmoved = np.zeros(len(solved), dtype=bool)
    x, length, _ = _polish_squared(
        roots[solved], np.array([backs[i].length for i in solved],
                                dtype=complex), unmoved, pair)
    points = dict(zip(solved, try_points(x, length, unmoved)))
    for i, (record, back) in enumerate(zip(records, backs)):
        if isinstance(back, MechanismError):
            record["note"] = f"back-substitution failed: {back}"
            continue
        if back.used_fallback:
            record["note"] = "back-substitution fallback"
        add_point(points[i], record)

    def assign():
        distinct: list[tuple[complex, complex]] = []
        for x, length, sq in sorted(pool, key=lambda t: t[2]):
            if not any(abs(x - xd) + abs(length - ld)
                       < 1e-6 * (1 + abs(xd) + abs(ld))
                       for xd, ld in distinct):
                distinct.append((x, length))
        order = sorted(
            ((abs(records[i]["x0"] - xd), i, j)
             for j, (xd, ld) in enumerate(distinct)
             for i in range(len(records))),
            key=lambda t: t[0])
        assignment: dict[int, tuple[complex, complex]] = {}
        taken: set[int] = set()
        for _, i, j in order:
            if i in assignment or j in taken:
                continue
            assignment[i] = distinct[j]
            taken.add(j)
        return assignment

    assignment = assign()
    retry = [i for i, record in enumerate(records)
             if i not in assignment and not record["near_pole"]]
    if retry:
        x0 = roots[retry]
        # distance to the nearest other candidate sets the grid size
        spacing = [0.1] * len(retry)
        if len(roots) > 1:
            distance = _cabs(x0[:, None] - roots[None, :])
            distance[np.arange(len(retry)), retry] = np.inf
            spacing = np.min(distance, axis=1).tolist()
        radius = [min(max(0.05, 2.0 * gap), 0.15) for gap in spacing]
        seeds = poly_roots_batch(
            _quartic_pair_fast(x0, np.zeros(len(retry), dtype=bool), pair)[0])
        grid_x, grid_length, grid_found = _gap_grid_rescue(x0, radius, pair)
        # (retried candidate, start, length seed): every branch seed of
        # every candidate, then each grid optimum
        starts = [(k, x0[k], seed) for k, found in enumerate(seeds)
                  if not isinstance(found, MechanismError) for seed in found]
        starts += [(k, grid_x[k], grid_length[k])
                   for k in np.nonzero(grid_found)[0]]
        results = [None] * len(starts)
        if starts:
            _, x, length = (np.array(column) for column in zip(*starts))
            x, length, cpython, converged = _follow_branch(x, length, pair)
            kept = np.nonzero(converged)[0]
            for k, point in zip(kept, try_points(x[kept], length[kept],
                                                 cpython[kept])):
                results[k] = point
        # pool order: candidate by candidate, its seeds, then its grid
        for k in sorted(range(len(starts)), key=lambda k: starts[k][0]):
            if results[k] is not None:
                add_point(results[k], records[retry[starts[k][0]]])
        assignment = assign()

    solutions = []
    for i, record in enumerate(records):
        x0, note = record["x0"], record["note"]
        if i in assignment:
            x, length = assignment[i]
            sol = _classify_root(x, length, pair, accept_tol)
        elif record["fail"] is not None:
            sol = _classify_root(record["fail"][0], record["fail"][1],
                                 pair, accept_tol)
            note = (note + "; " if note else "") + "refinement not converged"
        else:
            sol = EquilibriumSolution(
                beta=2 * cmath.atan(x0) if abs(1 + x0 * x0) > 1e-12
                else complex(math.pi),
                length=complex("nan"), residual_force=math.inf,
                residual_moment=math.inf, rel_residual=math.inf,
                is_real=False, accepted=False, squared_residual=math.inf)
        if record["near_pole"] and not sol.accepted \
                and sol.squared_residual > accept_tol:
            note = (note + "; " if note else "") + "tan-half pole artifact"
        if note:
            sol = replace(sol, note=note)
        solutions.append(sol)

    solutions.extend(_beta_pi_solutions(pair, accept_tol))
    return sort_solutions(pair_conjugates(solutions))


def _beta_pi_solutions(pair, accept_tol):
    """Common roots of the quartic pair at beta = pi, checked directly.

    Both quartics inherit the zeros of the squared first-spring length (a
    zero-length spring annihilates the free-length terms on both sides),
    so roots there are always nearly common without being mechanism
    solutions; they are excluded explicitly.
    """
    f_coeffs, m_coeffs = pair.quartic_pair(-1.0, 0.0)
    out = []
    try:
        f_roots = poly_roots(CPolynomial(f_coeffs))
    except MechanismError:
        return out
    m_scale = float(np.sum(np.abs(m_coeffs))) + 1e-30
    for root in f_roots:
        m_val = horner(np.asarray(m_coeffs, dtype=complex), root)
        if abs(m_val) > 1e-8 * m_scale * max(1.0, abs(root)) ** 4:
            continue
        if abs(pair.terms(root, -1.0, 0.0)[4]) < 1e-6 * (1.0 + abs(root) ** 2):
            continue  # zero-length-spring artifact, not an equilibrium
        rel, sq_rel = _relative_residuals(root, -1.0, 0.0, pair)
        residual_force, residual_moment = _mechanism_residuals(
            root, -1.0, 0.0, pair)
        out.append(EquilibriumSolution(
            beta=complex(math.pi), length=complex(root),
            residual_force=float(residual_force),
            residual_moment=float(residual_moment),
            rel_residual=float(rel),
            is_real=bool(abs(complex(root).imag) <= 1e-8),
            accepted=bool(rel <= accept_tol), squared_residual=float(sq_rel),
            note="beta = pi branch"))
    return out
