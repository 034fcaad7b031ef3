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
import warnings
from dataclasses import replace

import numpy as np

from .errors import (DegreeMismatch, InterpolationMismatch, MechanismError,
                     ProbeSingularity, WrongFreeLengthPattern)
from .geometry import Point2
from .mechanism import (MechanismParams, point_e, pose_from_trig,
                        residual_pair)
from .polynomials import CPolynomial, back_substitute, poly_roots, \
    poly_roots_batch, polymatrix_det, solve_dense
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
    scalars and, elementwise, complex arrays.
    """

    __slots__ = ("params", "e", "ca", "sa", "ex", "ey", "px2", "py2", "d2",
                 "o1x", "o1y", "a1x", "a1y", "k1", "k2", "k3", "kl",
                 "radius", "fast_nodes", "fast_inverse")

    def __init__(self, params: MechanismParams, e: Point2):
        self.params, self.e = params, e
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
        moment_coef = ((r1x * (y1 * k1) - r1y * (x1 * k1))
                       + (r1x * (y2 * k2) - r1y * (x2 * k2))
                       + (r3x * (y3 * k3) - r3y * (x3 * k3)))
        force_rhs = self.kl * (x1 * ca + y1 * sa)
        moment_rhs = self.kl * (r1x * y1 - r1y * x1)
        l1_sq = x1 * x1 + y1 * y1
        return force_coef, force_rhs, moment_coef, moment_rhs, l1_sq

    def squared(self, length, cos_beta, sin_beta):
        """The squared pair (F, M) = (A^2 L1^2 - B^2, C^2 L1^2 - D^2)."""
        a, b, c, d, l1_sq = self.terms(length, cos_beta, sin_beta)
        return a ** 2 * l1_sq - b ** 2, c ** 2 * l1_sq - d ** 2

    def squared_scaled(self, length, cos_beta, sin_beta):
        """(F, M, F scale, M scale), each scale the sum of the magnitudes
        of its two terms."""
        a, b, c, d, l1_sq = self.terms(length, cos_beta, sin_beta)
        f = a ** 2 * l1_sq - b ** 2
        m = c ** 2 * l1_sq - d ** 2
        f_scale = abs(a ** 2 * l1_sq) + abs(b ** 2)
        m_scale = abs(c ** 2 * l1_sq) + abs(d ** 2)
        return f, m, f_scale, m_scale

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
            interp_f = _horner(f_coeffs, dtype(held))
            interp_m = _horner(m_coeffs, dtype(held))
            # blend in the coefficient magnitude at the node so cancelling
            # held-out values do not turn roundoff into a spurious mismatch
            mag = float(max(1.0, abs(complex(held))) ** 4)
            scale_f = abs(direct_f) + 1e-3 * f_sum * mag
            scale_m = abs(direct_m) + 1e-3 * m_sum * mag
            ok = ok & ~((abs(interp_f - direct_f) > 1e-9 * scale_f)
                        | (abs(interp_m - direct_m) > 1e-9 * scale_m))
        return f_coeffs, m_coeffs, ok


def _tan_half_trig(x):
    """(cos beta, sin beta) at the tan-half value x = tan(beta / 2)."""
    return (1 - x * x) / (1 + x * x), 2 * x / (1 + x * x)


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


def _horner(coeffs, x):
    """Value of ascending coefficients (..., n) at x; one-dimensional
    coefficients evaluate in scalar arithmetic."""
    columns = coeffs.T
    acc = columns[-1]
    for c in columns[-2::-1]:
        acc = acc * x + c
    return acc


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
    pair = _UnsquaredPair(params, e)
    dtype = np.clongdouble if _LONGDOUBLE_OK else complex

    def evaluate(xs):
        cb, sb = _tan_half_trig(np.asarray(xs).astype(dtype))
        f_coeffs, m_coeffs = pair.quartic_pair(cb, sb, dtype=dtype)
        matrix = np.zeros(cb.shape + (8, 8), dtype=dtype)
        fd = f_coeffs[..., ::-1]
        md = m_coeffs[..., ::-1]
        for shift in range(4):
            matrix[..., 2 * shift, 3 - shift: 8 - shift] = fd
            matrix[..., 2 * shift + 1, 3 - shift: 8 - shift] = md
        return matrix

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


def _polish_squared(x, length, pair, steps: int = 40):
    """Damped Newton on the exact squared pair in (x, L).

    The iteration differentiates the raw (holomorphic) pair and keeps a
    step only when the residual magnitude drops, so candidates that are
    not actual solutions (pole artifacts) stay put.
    """
    def values(xv, lv):
        return pair.squared(lv, *_tan_half_trig(xv))

    try:
        f, m = values(x, length)
    except ZeroDivisionError:
        return x, length
    norm = abs(f) + abs(m)
    for _ in range(steps):
        if norm == 0:
            break
        hx = 1e-7 * (1 + abs(x))
        hl = 1e-7 * (1 + abs(length))
        try:
            fx, mx = values(x + hx, length)
            fl, ml = values(x, length + hl)
        except ZeroDivisionError:
            break
        j11, j12 = (fx - f) / hx, (fl - f) / hl
        j21, j22 = (mx - m) / hx, (ml - m) / hl
        det = j11 * j22 - j12 * j21
        if det == 0:
            break
        dx = (f * j22 - m * j12) / det
        dl = (j11 * m - j21 * f) / det
        cap = 1.0 + abs(x)
        if abs(dx) > cap:
            scale = cap / abs(dx)
            dx *= scale
            dl *= scale
        try:
            nf, nm = values(x - dx, length - dl)
        except ZeroDivisionError:
            break
        if abs(nf) + abs(nm) >= norm:
            break
        x, length = x - dx, length - dl
        f, m, norm = nf, nm, abs(nf) + abs(nm)
        if abs(dx) + abs(dl) < 1e-15 * (1 + abs(x) + abs(length)):
            break
    return x, length


def _squared_rel(x, length, pair) -> float:
    f, m, fs, ms = pair.squared_scaled(length, *_tan_half_trig(x))
    return max(abs(f) / (fs + 1e-30), abs(m) / (ms + 1e-30))


def _fast_probe(radius: float):
    """Probe nodes on one circle plus the inverse of their Vandermonde."""
    nodes = tuple(radius * cmath.exp(2j * cmath.pi * j / 5) for j in range(5))
    inv = np.linalg.inv(np.array([[n ** k for k in range(5)] for n in nodes]))
    return nodes, inv


def _quartic_pair_fast(x, pair):
    """Quartic pair at a tan-half value without held-out validation; used
    inside refinement loops after the sampling stage has already validated
    the construction many times over."""
    cb, sb = _tan_half_trig(x)
    f_vals = np.empty(5, dtype=complex)
    m_vals = np.empty(5, dtype=complex)
    for i, node in enumerate(pair.fast_nodes):
        f_vals[i], m_vals[i] = pair.squared(node, cb, sb)
    return pair.fast_inverse @ f_vals, pair.fast_inverse @ m_vals


def _branch_state(x, near_length, pair):
    """(length, m_value, m_scale, slope) on the first-quartic root branch
    nearest to near_length, where slope is the finite-difference
    derivative of m_value along that branch (None when the quartic at the
    offset point cannot be solved); None when the quartic at x cannot be
    solved. The quartics at x and at the offset point share one root
    solve."""
    delta = 1e-7 * (1 + abs(x))
    quartics = [_quartic_pair_fast(x, pair), _quartic_pair_fast(x + delta, pair)]
    states = []
    for (f_coeffs, m_coeffs), roots in zip(quartics, poly_roots_batch(
            [CPolynomial(f_coeffs) for f_coeffs, _ in quartics])):
        if isinstance(roots, MechanismError):
            states.append(None)
            continue
        length = roots[int(np.argmin(np.abs(roots - near_length)))]
        m_val = _horner(m_coeffs, length)
        states.append((length, m_val, float(np.sum(np.abs(m_coeffs)))
                       * max(1.0, abs(length)) ** 4))
        near_length = length
    here, ahead = states
    if here is None:
        return None
    slope = None if ahead is None else (ahead[1] - here[1]) / delta
    return here + (slope,)


def _follow_branch(x0, length_seed, pair, steps: int = 30):
    """Refine a squared-pair solution by tracking one root branch of the
    first quartic while driving the second quartic to zero in x.

    Along the branch the first equation holds exactly, so the problem is a
    one-dimensional root find for the second; this stays robust where the
    joint Newton stalls between near-double solutions. Returns (x, L) or
    None when the iteration leaves the neighbourhood or fails to converge.
    """
    x = complex(x0)
    state = _branch_state(x, length_seed, pair)
    if state is None:
        return None
    for _ in range(steps):
        length, m_val, m_scale, derivative = state
        if abs(m_val) <= 1e-12 * m_scale:
            return x, length
        if derivative is None or derivative == 0:
            return None
        step = m_val / derivative
        cap = 0.1 * (1 + abs(x))
        if abs(step) > cap:
            step *= cap / abs(step)
        x = x - step
        if abs(x - x0) > 0.5 * (1 + abs(x0)):
            return None  # left the candidate's neighbourhood
        state = _branch_state(x, length, pair)
        if state is None:
            return None
    length, m_val, m_scale, _ = state
    return (x, length) if abs(m_val) <= 1e-10 * m_scale else None


def _gap_grid_rescue(x0, pair, radius: float, grid: int = 7):
    """Locate the best common-root point on a small grid around x0 and
    refine from there; the last resort for candidates whose neighbourhood
    holds near-double solutions."""
    points = [x0 + dx + 1j * dy
              for dx in np.linspace(-radius, radius, grid)
              for dy in np.linspace(-radius, radius, grid)]
    quartics = [_quartic_pair_fast(x, pair) for x in points]
    best = None
    for x, (f_coeffs, m_coeffs), roots in zip(points, quartics, poly_roots_batch(
            [CPolynomial(f_coeffs) for f_coeffs, _ in quartics])):
        if isinstance(roots, MechanismError):
            continue
        m_scale = float(np.sum(np.abs(m_coeffs))) + 1e-30
        for root in roots:
            gap = abs(_horner(m_coeffs, root)) / \
                (m_scale * max(1.0, abs(root)) ** 4)
            if best is None or gap < best[0]:
                best = (gap, x, root)
    if best is None:
        return None
    return _follow_branch(best[1], best[2], pair)


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
    # one-dimensional root find, plus a local grid rescue.
    records = []
    pool: list[tuple[complex, complex, float]] = []

    def try_point(point, record):
        if point is None:
            return
        x, length = _polish_squared(point[0], point[1], pair, steps=4)
        sq = _squared_rel(x, length, pair)
        if sq <= CONVERGED_SQ_TOL:
            pool.append((x, length, sq))
        elif record["fail"] is None or sq < record["fail"][2]:
            record["fail"] = (x, length, sq)

    for x0 in roots:
        record = {
            "x0": x0,
            "near_pole": min(abs(x0 - 1j), abs(x0 + 1j)) < 0.15,
            "note": "",
            "fail": None,
        }
        f_coeffs, m_coeffs = pair.quartic_pair(*_tan_half_trig(x0))
        try:
            back = back_substitute(f_coeffs, m_coeffs)
            if back.used_fallback:
                record["note"] = "back-substitution fallback"
            try_point(_polish_squared(x0, back.length, pair), record)
        except MechanismError as exc:
            record["note"] = f"back-substitution failed: {exc}"
        records.append(record)

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
    spacing = {}
    for i, record in enumerate(records):
        others = [abs(record["x0"] - r["x0"]) for k, r in enumerate(records)
                  if k != i]
        spacing[i] = min(others) if others else 0.1

    retry = [i for i, record in enumerate(records)
             if i not in assignment and not record["near_pole"]]
    for i in retry:
        record = records[i]
        x0 = record["x0"]
        f_coeffs, _ = _quartic_pair_fast(x0, pair)
        try:
            branch_seeds = poly_roots(CPolynomial(f_coeffs))
        except MechanismError:
            branch_seeds = []
        for seed in branch_seeds:
            try_point(_follow_branch(x0, seed, pair), record)
        radius = min(max(0.05, 2.0 * spacing[i]), 0.15)
        try_point(_gap_grid_rescue(x0, pair, radius), record)
    if retry:
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
        m_val = _horner(np.asarray(m_coeffs, dtype=complex), root)
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
