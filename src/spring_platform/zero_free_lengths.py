"""Equilibrium solver for the all-zero-free-length configuration.

With every free length zero both equilibrium residuals are affine in the
basis [L, L cos(beta), L sin(beta), cos(beta), sin(beta), 1]. The
coefficients are extracted by probing the exact residual functions at
canonical (L, beta) points rather than transcribing closed forms. In the
isotropic variable z = exp(i beta) every first-harmonic form times z is a
quadratic in z, so eliminating L through the force equation leaves a
quartic in z with no excluded angle. Its roots (complex included) give
beta = -i log z and L from the force equation, and are verified by
substitution back into the exact residuals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateQuartic, NonZeroFreeLength
from .geometry import Point2
from .mechanism import MechanismParams, point_e, pose_from_trig, residual_pair
from .polynomials import CPolynomial, poly_roots
from .solutions import (EquilibriumSolution, mark_real, pair_conjugates,
                        sort_solutions)

RESIDUAL_REL_TOL = 1e-8

# probe points; the moment equation needs (1, pi) to split the L*cos term
# from the pure-L term
_PROBES = ((0.0, 0.0), (1.0, 0.0), (0.0, math.pi / 2), (1.0, math.pi / 2),
           (0.0, math.pi), (1.0, math.pi))


@dataclass(frozen=True)
class LinearizedEquilibrium:
    """Probed coefficients of the two residuals.

    force(L, b)  = force_l * L + force_cos * cos b + force_sin * sin b
                   + force_const
    moment(L, b) = (moment_l + moment_l_cos * cos b + moment_l_sin * sin b) * L
                   + moment_cos * cos b + moment_sin * sin b
    """

    force_l: float
    force_cos: float
    force_sin: float
    force_const: float
    moment_l: float
    moment_l_cos: float
    moment_l_sin: float
    moment_cos: float
    moment_sin: float

    def force_value(self, length, cos_beta, sin_beta):
        return (self.force_l * length + self.force_cos * cos_beta
                + self.force_sin * sin_beta + self.force_const)

    def moment_value(self, length, cos_beta, sin_beta):
        coef = (self.moment_l + self.moment_l_cos * cos_beta
                + self.moment_l_sin * sin_beta)
        return coef * length + self.moment_cos * cos_beta + self.moment_sin * sin_beta

    def force_scale(self, length, cos_beta, sin_beta) -> float:
        return (abs(self.force_l * length) + abs(self.force_cos * cos_beta)
                + abs(self.force_sin * sin_beta) + abs(self.force_const))

    def moment_scale(self, length, cos_beta, sin_beta) -> float:
        return (abs(self.moment_l * length)
                + abs(self.moment_l_cos * cos_beta * length)
                + abs(self.moment_l_sin * sin_beta * length)
                + abs(self.moment_cos * cos_beta)
                + abs(self.moment_sin * sin_beta))


def linearize(params: MechanismParams, e: Point2) -> LinearizedEquilibrium:
    """Extract the affine residual coefficients by probing.

    The residuals of the zero-free-length system are exactly affine in
    [L, L cos b, L sin b, cos b, sin b, 1]; six probes determine both
    coefficient sets through one shared 6x6 solve.
    """
    if any(l0 != 0 for l0 in params.free_lengths):
        raise NonZeroFreeLength(f"free lengths {params.free_lengths}")
    rows, force_vals, moment_vals = [], [], []
    for length, beta in _PROBES:
        cb, sb = math.cos(beta), math.sin(beta)
        rows.append([length, length * cb, length * sb, cb, sb, 1.0])
        pose = pose_from_trig(length, cb, sb, params, e)
        f, m = residual_pair(pose, params)
        force_vals.append(f)
        moment_vals.append(m)
    matrix = np.array(rows)
    fc = np.linalg.solve(matrix, np.array(force_vals))
    mc = np.linalg.solve(matrix, np.array(moment_vals))
    return LinearizedEquilibrium(
        force_l=fc[0], force_cos=fc[3], force_sin=fc[4], force_const=fc[5],
        moment_l=mc[0], moment_l_cos=mc[1], moment_l_sin=mc[2],
        moment_cos=mc[3], moment_sin=mc[4])


def _harmonic(a0, a1, a2) -> np.ndarray:
    """a0 + a1 cos(beta) + a2 sin(beta), times z, as ascending coefficients
    of a quadratic in z = exp(i beta)."""
    return np.array([(a1 + 1j * a2) / 2, a0, (a1 - 1j * a2) / 2])


def quartic_coefficients(lin: LinearizedEquilibrium) -> np.ndarray:
    """Ascending coefficients of the quartic in z = exp(i beta) left after
    eliminating L through the force equation: z^2 times
    force_l * (moment_cos cos + moment_sin sin)
    - (moment_l + moment_l_cos cos + moment_l_sin sin)
    * (force_cos cos + force_sin sin + force_const)."""
    moment_free = _harmonic(0.0, lin.moment_cos, lin.moment_sin)
    moment_length = _harmonic(lin.moment_l, lin.moment_l_cos, lin.moment_l_sin)
    force_free = _harmonic(lin.force_const, lin.force_cos, lin.force_sin)
    # convolving with z keeps the first product at five coefficients
    return (lin.force_l * np.convolve(moment_free, [0.0, 1.0, 0.0])
            - np.convolve(moment_length, force_free))


def _polish(lin: LinearizedEquilibrium, beta, length, steps: int = 8):
    """Damped Newton refinement on the exact affine pair in (beta, L)."""
    def values(b, l):
        cb, sb = cmath.cos(b), cmath.sin(b)
        return (lin.force_value(l, cb, sb), lin.moment_value(l, cb, sb))

    f, m = values(beta, length)
    norm = abs(f) + abs(m)
    for _ in range(steps):
        cb, sb = cmath.cos(beta), cmath.sin(beta)
        j11 = -lin.force_cos * sb + lin.force_sin * cb
        j12 = lin.force_l
        j21 = ((-lin.moment_l_cos * sb + lin.moment_l_sin * cb) * length
               - lin.moment_cos * sb + lin.moment_sin * cb)
        j22 = lin.moment_l + lin.moment_l_cos * cb + lin.moment_l_sin * sb
        det = j11 * j22 - j12 * j21
        if det == 0:
            break
        db = (f * j22 - m * j12) / det
        dl = (j11 * m - j21 * f) / det
        new_beta, new_length = beta - db, length - dl
        nf, nm = values(new_beta, new_length)
        if abs(nf) + abs(nm) >= norm:
            break
        beta, length, f, m, norm = new_beta, new_length, nf, nm, abs(nf) + abs(nm)
        if norm == 0:
            break
    return beta, length


def _build_solution(params: MechanismParams, e: Point2,
                    lin: LinearizedEquilibrium, beta, length,
                    residual_tol: float) -> EquilibriumSolution:
    beta, length = _polish(lin, beta, length)
    pose = pose_from_trig(length, cmath.cos(beta), cmath.sin(beta), params, e)
    f, m = residual_pair(pose, params)
    cb, sb = cmath.cos(beta), cmath.sin(beta)
    f_scale = max(lin.force_scale(abs(length), abs(cb), abs(sb)), 1e-30)
    m_scale = max(lin.moment_scale(abs(length), abs(cb), abs(sb)), 1e-30)
    rel = max(abs(f) / f_scale, abs(m) / m_scale)
    real = mark_real(complex(beta), complex(length))
    if real:
        beta = complex(beta).real
        length = complex(length).real
    return EquilibriumSolution(
        beta=complex(beta), length=complex(length),
        residual_force=float(abs(f)), residual_moment=float(abs(m)),
        rel_residual=float(rel), is_real=real,
        accepted=bool(rel <= residual_tol))


def _no_finite_beta(beta) -> EquilibriumSolution:
    return EquilibriumSolution(
        beta=beta, length=complex("nan"), residual_force=math.inf,
        residual_moment=math.inf, rel_residual=math.inf, is_real=False,
        accepted=False, note="no finite beta")


def solve_zero_free_lengths(params: MechanismParams,
                            residual_tol: float = RESIDUAL_REL_TOL,
                            ) -> list[EquilibriumSolution]:
    """All equilibrium configurations for the all-zero-free-length case.

    Returns the quartic's four roots (with multiplicity, complex included)
    as verified solutions sorted by beta. The z^0 and z^4 coefficients
    vanish together, exactly when the force residual does not depend on
    beta; a root at z = 0, or one lost to that degree drop, has no finite
    beta and is reported as a rejected row of NaN length.
    """
    e = point_e(params)
    lin = linearize(params, e)
    coeffs = quartic_coefficients(lin)
    scale = max(abs(c) for c in coeffs)
    ref = (abs(lin.force_l) + abs(lin.force_const)) * \
          (abs(lin.moment_l) + abs(lin.moment_l_cos) + abs(lin.moment_cos) + 1)
    if scale <= 1e-14 * max(ref, 1.0):
        raise DegenerateQuartic("eliminated polynomial is identically zero")

    roots = poly_roots(CPolynomial(coeffs))
    # beta = -i log z runs to -i infinity as z does
    solutions = [_no_finite_beta(complex(0.0, -math.inf))] * (4 - len(roots))
    for z in roots:
        if z == 0:
            solutions.append(_no_finite_beta(complex(0.0, math.inf)))
            continue
        beta = -1j * cmath.log(z)
        # the L coefficient of the force equation is k1 + k2 + k3 > 0
        length = -lin.force_value(0.0, cmath.cos(beta), cmath.sin(beta)) \
            / lin.force_l
        solutions.append(_build_solution(params, e, lin, beta, length,
                                         residual_tol))
    return sort_solutions(pair_conjugates(solutions))
