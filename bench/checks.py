"""The benchmark's own verification of solver outputs.

Nothing here calls a solver or the elimination code: accepted roots are
substituted back into the mechanism's spring model, residuals are scaled by
magnitudes computed here, and real equilibria of the zero case are found
again by a plain scan over beta.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from spring_platform.mechanism import (point_e, pose_from, residual_pair,
                                       spring_state)

# the solver's own acceptance level; genuine roots sit near 1e-11 on these
# scales and extraneous ones near 1e-2 and above
ROOT_REL_TOL = 1e-6
CONJUGATE_REL_TOL = 1e-9
SCAN_BETA_STEPS = 2400
SCAN_LENGTH_LIMIT = 200.0    # |L| beyond this is left out of the scan
SCAN_MATCH_TOL = 1e-6


def _abs_point(p) -> float:
    return math.hypot(abs(p.x), abs(p.y))


def scaled_residual(params, beta, length, e=None) -> float:
    """Larger of the force and moment residuals of one pose, each divided
    by the sum of the magnitudes of the terms it adds up."""
    if e is None:
        e = point_e(params)
    pose = pose_from(length, beta, params, e)
    state = spring_state(pose, params)
    force, moment = residual_pair(pose, params)
    anchors = (params.base_origin, params.base_origin, params.a1_fixed)
    force_scale = sum(abs(f) for f in state.forces)
    moment_scale = sum(_abs_point(a - pose.p) * abs(f)
                       for a, f in zip(anchors, state.forces))
    return max(abs(force) / (force_scale + 1e-300),
               abs(moment) / (moment_scale + 1e-300))


def verify_accepted(params, solutions) -> tuple[float, list[str]]:
    """Worst scaled residual over the accepted roots and a list of
    problems (empty when every accepted root is an equilibrium)."""
    e = point_e(params)
    worst = 0.0
    problems = []
    for i, s in enumerate(solutions):
        if not s.accepted:
            continue
        try:
            rel = scaled_residual(params, s.beta, s.length, e)
        except Exception as exc:  # any failure to evaluate is a wrong root
            problems.append(f"accepted root {i} does not evaluate: {exc!r}")
            continue
        worst = max(worst, rel)
        if not rel <= ROOT_REL_TOL:
            problems.append(f"accepted root {i} residual {rel:.2e}")
    return worst, problems


def conjugate_problems(solutions) -> list[str]:
    """Accepted roots whose complex conjugate is not accepted as well.

    The equations have real coefficients and the principal square root
    commutes with conjugation off its cut, so accepted roots come in
    conjugate pairs. Unconverged candidates are not held to this: their
    refinement stopped at different points.
    """
    points = [(s.beta, s.length) for s in solutions if s.accepted]
    problems = []
    for beta, length in points:
        if not (cmath.isfinite(beta) and cmath.isfinite(length)):
            continue  # reported by verify_accepted
        if beta.imag == 0 and length.imag == 0:
            continue
        tol = CONJUGATE_REL_TOL * (1.0 + abs(beta) + abs(length))
        if not any(abs(b - beta.conjugate()) + abs(l - length.conjugate())
                   <= tol for b, l in points):
            problems.append(f"accepted root ({beta:.6g}, {length:.6g}) "
                            "has no accepted conjugate")
    return problems


def scan_real_equilibria(params):
    """Real equilibria of an all-zero-free-length mechanism by a scan.

    With zero free lengths the force residual is affine in L at fixed
    beta, so L follows from two samples; the moment residual along that
    curve is bisected between sign changes. Sign changes through a pole
    of L(beta) are dropped by re-checking the residual at the end.
    """
    e = point_e(params)

    def residuals(length, beta):
        return residual_pair(pose_from(length, beta, params, e), params)

    def length_at(beta):
        f0 = residuals(0.0, beta)[0]
        slope = residuals(1.0, beta)[0] - f0
        if slope == 0.0:
            return None
        length = -f0 / slope
        return length if abs(length) <= SCAN_LENGTH_LIMIT else None

    def moment_at(beta):
        length = length_at(beta)
        return None if length is None else residuals(length, beta)[1]

    betas = np.linspace(-math.pi, math.pi, SCAN_BETA_STEPS + 1)
    values = [moment_at(float(b)) for b in betas]
    found = []
    for i in range(SCAN_BETA_STEPS):
        g0, g1 = values[i], values[i + 1]
        if g0 is None or g1 is None or (g0 < 0) == (g1 < 0):
            continue
        lo, hi, glo = float(betas[i]), float(betas[i + 1]), g0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            gm = moment_at(mid)
            if gm is None:
                break
            if (glo < 0) == (gm < 0):
                lo, glo = mid, gm
            else:
                hi = mid
        beta = 0.5 * (lo + hi)
        length = length_at(beta)
        if length is None:
            continue
        if scaled_residual(params, beta, length, e) <= 1e-7:
            found.append((beta, length))
    return found


def scan_problems(params, solutions) -> list[str]:
    """Mismatches between the scan and the accepted real roots."""
    found = scan_real_equilibria(params)
    reals = [(s.beta.real, s.length.real) for s in solutions
             if s.accepted and s.is_real]
    problems = []

    def near(a, b):
        da = abs(cmath.exp(1j * a[0]) - cmath.exp(1j * b[0]))
        return da + abs(a[1] - b[1]) / max(1.0, abs(b[1])) <= SCAN_MATCH_TOL

    for point in found:
        if not any(near(point, r) for r in reals):
            problems.append(f"scan equilibrium beta={point[0]:.6f} "
                            f"L={point[1]:.6f} missing from the solver")
    for r in reals:
        if abs(r[1]) <= SCAN_LENGTH_LIMIT and \
                not any(near(r, point) for point in found):
            problems.append(f"solver equilibrium beta={r[0]:.6f} "
                            f"L={r[1]:.6f} not found by the scan")
    return problems
