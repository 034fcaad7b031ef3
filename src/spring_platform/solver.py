"""Equilibrium solver of both supported free-length cases: all three free
lengths zero, or only the first (base origin to top origin) nonzero. Both
run one procedure on one engine, and the free lengths pick the eliminant.

The free length makes the force and moment equations rational in the first
spring length L1. Multiplying through by the signed length s (s^2 = L1^2)
gives the unsquared pair A s = B and C s = D, built here from the exact
zero-free-length residual forms so the defining identities hold to
machine precision. In z = exp(i beta) each of z A, z B, z C, z D and
z L1^2 is a polynomial of degree at most 2 in L and in z, recovered
exactly from a 3x3 grid of samples.

Eliminating s leaves F = z^3 (A^2 L1^2 - B^2), quartic in L, and G = z^2
(A D - B C) / (k1 L01), quadratic in L. Their 6x6 Sylvester determinant,
sampled in the product form g2^4 F(r1) F(r2) over the roots r of G, is a
polynomial in z whose roots are the equilibria with one sign of s in both
equations; G with A D + B C gives the mixed-sign roots, which squaring the
pair also admits. Both eliminants carry two point pairs known in closed
form as double roots, O2 = O1 and A = B = 0, which are divided out; the
roots of both quotients come from one eigvals call on their stacked
companion matrices (as below), and each is refined by Newton's method on
the exact 3x3 system in (L, z, s). Each stage works on all roots at once,
down to the classification: Newton's last evaluation of the pair gives
every residual, the spring model's A - B / L1 and C - D / L1 included.

The paper squares the pair instead and eliminates over the tan-half
variable; its degree-48 eliminant has the same roots plus the O2 = O1
points four times each and 12 roots at the tan-half pole, where beta is
not finite. The solve reports all 48: 14 same-sign, 14 mixed-sign, 8
O2 = O1 and 12 pole rows.

With all free lengths zero, k1 L01 = 0 and the right-hand sides vanish
(B = D = 0), so the force and moment residuals are A and C themselves,
affine in L. The rows z A and z C have degree 1 in L and at most 2 in z,
and their 2x2 Sylvester determinant is a quartic in z with no excluded
angle. The quartic's roots are the eigenvalues of its companion matrix,
built as numpy.roots builds it, exact roots of monic coefficients moved
by a small multiple of their norm (Edelman & Murakami, Math. Comp. 64,
1995), after a degree drop: the coefficients at or below TRIM_RELATIVE
of the largest are dropped from both ends. Each coefficient dropped at
the low end is a root at z = 0 and each one dropped at the high end a
root at infinity; neither has a finite beta. Each other root gives
beta = -i log z and L from the force row. The same Newton's method
refines all roots at once: with B = D = 0 its roots with s != 0 are
exactly those of A = C = 0.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .config import (CASE_ZERO, UnsupportedFreeLengthPattern,
                     free_length_case)
from .errors import DegenerateQuartic, LostRoots, MechanismError
from .mechanism import (TOL_ZERO_LENGTH, MechanismParams, pose_frame,
                        pose_points)
from .solutions import EquilibriumSolution, ledger, mark_real

RESIDUAL_REL_TOL = 1e-8      # acceptance level of the all-zero case
ACCEPT_REL_TOL = 1e-6        # acceptance level of the one-nonzero case
SAMPLES = 32                 # unit-circle samples of the z eliminants
SUPPORT = np.arange(3, 26)   # their structural support, z^3 .. z^25
NEWTON_STEPS = 20            # at most; near-double roots converge slowly
STEP_TOL = 1e-12             # relative Newton step that ends the iteration
POLE_ROWS = 6                # tan-half pole roots at z = 0, and at infinity
COINCIDENT_MULTIPLICITY = 4  # of each O2 = O1 point in the degree-48 eliminant
SAME_SIGN_ROOTS = 14         # of a generic mechanism, on either branch of L1
TRIM_RELATIVE = 1e-13        # end-coefficient cutoff, relative to the largest

# the eliminants have degree at most 2 * 6 + 4 * 4 = 28 in z (F's rows have
# degree 6, G's 4), below SAMPLES, so their transform aliases nothing
_SAMPLE_Z = np.exp(2j * np.pi * np.arange(SAMPLES) / SAMPLES)
_SAMPLE_DFT = np.conj(_SAMPLE_Z)[:, None] ** SUPPORT / SAMPLES
# the third roots of unity, cos and sin beta there, and their inverse 3x3 DFT
_THIRD_ROOTS = np.exp(2j * np.pi * np.arange(3.0) / 3)
_THIRD_COS = (_THIRD_ROOTS + 1 / _THIRD_ROOTS) / 2
_THIRD_SIN = (_THIRD_ROOTS - 1 / _THIRD_ROOTS) / 2j
_THIRD_INVERSE = np.conj(_THIRD_ROOTS[None, :] ** np.arange(3)[:, None]) / 3


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


class UnsquaredPair:
    """The pair A L1 = B, C L1 = D of one mechanism as a function of
    (L, cos beta, sin beta), with the squared first-spring length L1^2.

    The per-mechanism constants are read once, at construction. The pose
    is that of pose_from, through the same pose_points, and the rest
    is the arithmetic of Point2, operation for operation, without building
    the points, so the values are bit-identical to the pose-based residual
    forms. It accepts complex scalars and, elementwise, complex arrays of
    any precision.
    """

    __slots__ = ("frame", "ca", "sa", "ex", "ey", "px2", "py2", "o1x", "o1y",
                 "a1x", "a1y", "k1", "k2", "k3", "kl")

    def __init__(self, params: MechanismParams):
        self.frame = pose_frame(params, params.point_e)
        self.ca, self.sa, self.ex, self.ey, self.px2, self.py2, _ = self.frame
        self.o1x, self.o1y = params.base_origin.x, params.base_origin.y
        self.a1x, self.a1y = params.a1_fixed.x, params.a1_fixed.y
        self.k1, self.k2, self.k3 = params.stiffness
        self.kl = self.k1 * params.free_lengths[0]

    def terms(self, length, cos_beta, sin_beta):
        """(A, B, C, D, L1^2) at one sample."""
        ca, sa = self.ca, self.sa
        px, py, o2x, o2y, a2x, a2y = pose_points(self.frame, length,
                                                 cos_beta, sin_beta)
        # spring vectors O1->O2, O1->A2, A1->A2 and arms P->O1, P->A1
        x1, y1 = o2x - self.o1x, o2y - self.o1y
        x2, y2 = a2x - self.o1x, a2y - self.o1y
        x3, y3 = a2x - self.a1x, a2y - self.a1y
        # the spring forces k (x, y), shared by the force and moment sums
        k1, k2, k3 = self.k1, self.k2, self.k3
        f1x, f1y, f2x, f2y = k1 * x1, k1 * y1, k2 * x2, k2 * y2
        f3x, f3y = k3 * x3, k3 * y3
        force_coef = (f1x + f2x + f3x) * ca + (f1y + f2y + f3y) * sa
        r1x, r1y = self.o1x - px, self.o1y - py
        r3x, r3y = self.a1x - px, self.a1y - py
        moment_coef = ((r1x * f1y - r1y * f1x) + (r1x * f2y - r1y * f2x)
                       + (r3x * f3y - r3y * f3x))
        force_rhs = self.kl * (x1 * ca + y1 * sa)
        moment_rhs = self.kl * (r1x * y1 - r1y * x1)
        l1_sq = x1 * x1 + y1 * y1
        return force_coef, force_rhs, moment_coef, moment_rhs, l1_sq

    def foot(self) -> float:
        """L of the pin position closest to O1, the origin that balances
        the coefficients of polynomials in L."""
        return (self.o1x - self.ex) * self.ca + (self.o1y - self.ey) * self.sa

    def tensors(self, origin=0.0) -> np.ndarray:
        """Coefficients t[k, i, j] of (L - origin)^i z^j in z T_k, for
        T = (A, B, C, D, L1^2) and z = exp(i beta), all of degree <= 2 in
        both: the inverse discrete transform of their values on a grid of
        third roots of unity."""
        values = np.array(self.terms(origin + _THIRD_ROOTS[:, None],
                                     _THIRD_COS, _THIRD_SIN))
        return _THIRD_INVERSE @ (values * _THIRD_ROOTS) @ _THIRD_INVERSE.T


def _in_length(tensors, z):
    """Rows (..., 5, 3): coefficients in L of each z T_k at the z values."""
    z = np.asarray(z)[..., None, None]
    return tensors[..., 0] + z * (tensors[..., 1] + z * tensors[..., 2])


def _split(rows):
    """(A, B, C, D, L1^2) coefficient rows; A to D are affine in L (the
    L^2 terms of the moment cross products cancel)."""
    a, b, c, d, l1_sq = (rows[..., k, :] for k in range(5))
    return a[..., :2], b[..., :2], c[..., :2], d[..., :2], l1_sq


def _mixed(a, b, c, d, kl, sign):
    """Coefficients in L of G = z^2 (A D - sign B C) / kl, a quadratic,
    from the affine rows of z A, z B, z C and z D, all of one shape."""
    def product(p, q):
        (p0, p1), (q0, q1) = p.T, q.T
        return np.array([p0 * q0, p0 * q1 + p1 * q0, p1 * q1]).T

    return (product(a, d) - sign * product(b, c)) / kl


def _eliminants(tensors, kl, signs):
    """Coefficients in z of the Sylvester eliminant of (F, G) for each sign
    of G: its samples on the unit circle, transformed and cut to the
    structural support. The end coefficients can sit many decades below
    the largest one, so no magnitude threshold decides the degree."""
    return _resultant_samples(tensors, kl, signs, _SAMPLE_Z) @ _SAMPLE_DFT


def _resultant_samples(tensors, kl, signs, z):
    """The 6x6 Sylvester determinant of F and G at the z values, for each
    sign of G, in product form: g2^4 F(r1) F(r2) over the roots r1 = q / g2
    and r2 = g0 / q of G = g0 + g1 L + g2 L^2, q from _quadratic_q, as
    _quadratic_roots takes it. Each factor is evaluated homogeneously, as
    g2^4 F(q / g2) and q^4 F(g0 / q), so g2 divides nothing; for the same
    sign it carries a factor sin beta and vanishes at z = +-1 up to
    rounding."""
    a, b, c, d, l1_sq = _split(_in_length(tensors, z))
    g = _mixed(a, b, c, d, kl, signs[:, None, None])
    g0, g1, g2 = g[..., 0], g[..., 1], g[..., 2]
    q = _quadratic_q(g0, g1, g2)
    (a0, a1), (b0, b1), (l0, l1, l2) = a.T, b.T, l1_sq.T

    def homogeneous(x, w):
        # w^4 F(x / w), F = (z A)^2 (z L1^2) - z (z B)^2 in L
        return ((a0 * w + a1 * x) ** 2 * (l0 * w * w + (l1 * w + l2 * x) * x)
                - z * (w * (b0 * w + b1 * x)) ** 2)

    return homogeneous(q, g2) * homogeneous(g0, q) / q ** 4


def _known_points(pair: UnsquaredPair, tensors):
    """z of the two poses where O2 coincides with O1, then of the two with
    A = B = 0, and L at the first two. In complex coordinates, w = exp(i
    alpha) along the surface, d = E - O1 and p = P in the top frame, with
    conjugates continued to complex beta, O2 - O1 = d + L w + w z p and its
    conjugate both vanish at the first; A - (k1 + k2 + k3) B / (k1 L01)
    does not depend on L and vanishes at the others."""
    w = complex(pair.ca, pair.sa)
    d = complex(pair.ex - pair.o1x, pair.ey - pair.o1y)
    p = complex(pair.px2, pair.py2)
    if p == 0:
        raise DegenerateQuartic("the pin is at the top-frame origin: O2 does "
                                "not turn with beta, so the eliminants in z "
                                "lose their structural degree")
    stiffness = pair.k1 + pair.k2 + pair.k3
    quadratics = np.array([
        [-p.conjugate(), w.conjugate() * d - w * d.conjugate(), p],
        tensors[0, 0] - stiffness / pair.kl * tensors[1, 0]])
    z = np.array(_quadratic_roots(*quadratics.T)).T.ravel()
    return z, -w.conjugate() * d - z[:2] * p


def _deflate(coeffs, known):
    """Coefficient rows divided by the product of (z - r)^2 over the known
    double roots r: the least-squares quotient, solved by Householder QR
    of the Toeplitz matrix that multiplies by that monic factor (full
    column rank, so R is invertible) and one solve of R q = Q^H c. Dividing
    the roots out exactly keeps the roots beside them well conditioned,
    which picking the computed roots nearest to r does not."""
    factor = np.ones(1, dtype=complex)
    for value in known:
        factor = np.convolve(factor, [value * value, -2 * value, 1])
    width = coeffs.shape[-1] - len(factor) + 1
    product = np.zeros((coeffs.shape[-1], width), dtype=complex)
    for shift in range(width):
        product[shift:shift + len(factor), shift] = factor
    q, r = np.linalg.qr(product)
    return np.linalg.solve(r, q.conj().T @ coeffs.T).T


def newton(pair, tensors, origin, u, z, s, sign):
    """Newton's method on z (A s - B), z (C s - sign D) and z (s^2 - L1^2)
    in (u, z, s), L = origin + u, run on a stack of starts. It stops at the
    first point where every step it computes is at most STEP_TOL relative,
    without taking that step, or at the point NEWTON_STEPS steps reach,
    and returns that point with the pair's terms there, (A, B, C, D, L1^2)
    as UnsquaredPair.terms gives them. The residuals are the exact pose
    forms; the Jacobian comes from the tensors."""
    powers = np.arange(3)
    # the tensors of z T, d(z T)/du and d(z T)/dz in the powers of u and z
    derived = np.zeros((3,) + tensors.shape, dtype=tensors.dtype)
    derived[0] = tensors
    derived[1, :, :2] = tensors[:, 1:] * powers[1:, None]
    derived[2, :, :, :2] = tensors[:, :, 1:] * powers[1:]
    terms = pair.terms(origin + u, (z + 1 / z) / 2, (z - 1 / z) / 2j)
    for _ in range(NEWTON_STEPS):
        a, b, c, d, l1_sq = terms
        d = sign * d
        residual = np.array([z * (a * s - b), z * (c * s - d),
                             z * (s * s - l1_sq)]).T
        parts = np.einsum("pkij,ni,nj->pkn", derived, u[:, None] ** powers,
                          z[:, None] ** powers)
        parts[:, 3] *= sign
        (za, _, zc, _, _), (au, bu, cu, du, lu), (az, bz, cz, dz, lz) = parts
        jacobian = np.array([au * s - bu, az * s - bz, za,
                             cu * s - du, cz * s - dz, zc,
                             -lu, s * s - lz, 2 * z * s]).T.reshape(-1, 3, 3)
        step = np.linalg.solve(jacobian, residual[..., None])[..., 0]
        if np.all(np.abs(step) <= STEP_TOL * (1 + np.abs(
                np.array([u, z, s]).T))):
            break
        u, z, s = u - step[:, 0], z - step[:, 1], s - step[:, 2]
        terms = pair.terms(origin + u, (z + 1 / z) / 2, (z - 1 / z) / 2j)
    return u, z, s, terms


def _classify(length, z, s, terms, same_sign) -> dict:
    """Ledger columns, keyed by EquilibriumSolution field, of the refined
    roots (L, z, s), from the pair's terms there, as newton returns them.

    A root is accepted when the unsquared pair holds with the principal
    L1 to ACCEPT_REL_TOL (scale-normalized); a rejected same-sign root lies
    on the other branch when the pair holds with its own s. The force and
    moment residuals A - B / L1 and C - D / L1 are those of the spring
    model, infinite where the first spring has no length.
    """
    a, b, c, d, l1_sq = terms
    l1 = np.sqrt(l1_sq)

    def relative(force, force_scale, moment, moment_scale):
        return np.maximum(np.abs(force) / (force_scale + 1e-30),
                          np.abs(moment) / (moment_scale + 1e-30))

    def unsquared(l1):
        return relative(a * l1 - b, np.abs(a * l1) + np.abs(b),
                        c * l1 - d, np.abs(c * l1) + np.abs(d))

    fa, fb, ma, mb = a * a * l1_sq, b * b, c * c * l1_sq, d * d
    rel, own = unsquared(np.array([l1, s]))  # principal L1, then own s
    spring = np.abs(l1) >= TOL_ZERO_LENGTH
    force = np.where(spring, np.abs(a - b / l1), math.inf)
    moment = np.where(spring, np.abs(c - d / l1), math.inf)
    beta, length, real = _pose_columns(z, length)
    # where the structure degenerates (a pin at an anchor, say), two
    # starts can converge onto one equilibrium; it is accepted once
    accepted = rel <= ACCEPT_REL_TOL
    b, l = beta[accepted], length[accepted]
    repeated = np.zeros_like(accepted)
    repeated[accepted] = np.any(np.tril(
        np.abs(b[:, None] - b) + np.abs(l[:, None] - l)
        <= 1e-8 * (1 + np.abs(b) + np.abs(l))[:, None], -1), axis=1)
    note = np.where(accepted, np.where(repeated, "repeated root", ""),
                    np.where(~same_sign, "mixed sign", np.where(
                        own <= ACCEPT_REL_TOL, "other branch",
                        "refinement not converged")))
    return dict(
        beta=beta, length=length, residual_force=force,
        residual_moment=moment, rel_residual=rel, is_real=real,
        accepted=accepted & ~repeated,
        squared_residual=relative(fa - fb, np.abs(fa) + np.abs(fb),
                                  ma - mb, np.abs(ma) + np.abs(mb)),
        note=note)


def _pose_columns(z, length):
    """(beta, L, real flag) of the refined roots (L, z): beta = -i log z,
    and both cast to real where mark_real finds them real."""
    beta = -1j * np.log(z)
    real = mark_real(beta, length)
    return (np.where(real, beta.real, beta),
            np.where(real, length.real, length), real)


def structural_rows(beta, length, squared_residual, note: str) -> dict:
    """Ledger columns of rejected candidates known in closed form, whose
    unsquared residuals are undefined (a zero-length first spring or no
    finite beta)."""
    undefined = np.full(len(beta), math.inf)
    return dict(beta=beta, length=length, residual_force=undefined,
                residual_moment=undefined, rel_residual=undefined,
                is_real=mark_real(beta, length),
                accepted=np.zeros(len(beta), dtype=bool),
                squared_residual=np.full(len(beta), squared_residual),
                note=np.full(len(beta), note))


def _no_finite_beta(at_zero, at_infinity, squared_residual, note: str):
    """structural_rows of NaN length of the roots at z = 0, where beta =
    -i log z is +i infinity, and at z = oo, where it is -i infinity."""
    beta = np.repeat([complex(0, math.inf), complex(0, -math.inf)],
                     [at_zero, at_infinity])
    return structural_rows(beta, np.full(len(beta), complex("nan")),
                           squared_residual, note)


# the 12 tan-half pole rows, the same for every mechanism
_POLE_COLUMNS = _no_finite_beta(POLE_ROWS, POLE_ROWS, math.inf,
                                "no finite beta (tan-half pole artifact)")
for _column in _POLE_COLUMNS.values():
    _column.flags.writeable = False


def _finite(eliminant):
    """The eliminant or its quotient, checked finite: the products of an
    extreme but finite mechanism (a stiffness of 1e160, say) overflow it,
    and its roots would then fail with no MechanismError."""
    if not np.all(np.isfinite(eliminant)):
        raise MechanismError("the eliminant in z overflows floating point")
    return eliminant


def _companion_roots(rows):
    """Roots of each row of ascending coefficients, all of one length with
    a nonzero leading entry, checked finite: the eigenvalues of their
    companion matrices, built as numpy.roots builds them, from one eigvals
    call. A row of one coefficient has no roots."""
    desc = _finite(rows)[:, ::-1]
    degree = desc.shape[1] - 1
    companion = np.zeros((len(desc), degree, degree), dtype=desc.dtype)
    companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1
    companion[:, :1] = _finite(-desc[:, 1:] / desc[:, :1])[:, None]
    return np.linalg.eigvals(companion)


def solve_equilibria(params: MechanismParams) -> list[EquilibriumSolution]:
    """All equilibrium candidates of the mechanism, sorted by beta.

    With all free lengths zero, the quartic's four roots (with
    multiplicity, complex included); with only L01 nonzero, the 48
    candidates of the degree-48 eliminant. A free-length pattern that fits
    neither case raises UnsupportedFreeLengthPattern. numpy's floating-point
    warnings are off for the whole solve: the zero divisions and the
    infinities of the spring model's residuals are values of the ledger,
    and an overflowing eliminant raises one MechanismError.
    """
    case = free_length_case(params.free_lengths)
    if case is None:
        raise UnsupportedFreeLengthPattern()
    with np.errstate(all="ignore"):
        pair = UnsquaredPair(params)
        origin = pair.foot()
        tensors = pair.tensors(origin)
        return (_solve_zero if case == CASE_ZERO else _solve_one)(
            pair, origin, tensors)


def _quartic_roots(quartic: np.ndarray) -> tuple[np.ndarray, int, int]:
    """(The other roots, the count at z = 0, the count at infinity) of the
    ascending coefficients quartic, after the degree drop described above."""
    size = np.abs(quartic)
    low, high = np.flatnonzero(size > TRIM_RELATIVE * size.max())[[0, -1]]
    return (_companion_roots(quartic[None, low:high + 1])[0], low,
            len(quartic) - 1 - high)


def _solve_zero(pair, origin, tensors) -> list[EquilibriumSolution]:
    """The all-zero-free-length case. A root is accepted when A and C
    vanish to RESIDUAL_REL_TOL relative to the sum of the magnitudes of
    their tensor terms there. The z^0 and z^4 coefficients vanish together,
    exactly when the force residual does not depend on beta; the roots at
    z = 0 and at infinity of that degree drop have no finite beta and are
    rejected rows of NaN length, the other rejected roots "refinement not
    converged"."""
    rows = tensors[[0, 2], :2]
    (a0, a1), (c0, c1) = rows
    quartic = _finite(np.convolve(a0, c1) - np.convolve(a1, c0))
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

    # the sums of the magnitudes of the tensor terms of z A and z C
    scale = np.einsum("kij,ni,nj->kn", np.abs(rows),
                      np.abs(u)[:, None] ** np.arange(2),
                      np.abs(z)[:, None] ** np.arange(3))
    rel = np.maximum(np.abs(z * force) / scale[0],
                     np.abs(z * moment) / scale[1])
    beta, length, real = _pose_columns(z, origin + u)
    accepted = rel <= RESIDUAL_REL_TOL
    return ledger(
        dict(beta=beta, length=length, residual_force=np.abs(force),
             residual_moment=np.abs(moment), rel_residual=rel, is_real=real,
             accepted=accepted, squared_residual=np.zeros(len(z)),
             note=np.where(accepted, "", "refinement not converged")),
        _no_finite_beta(at_zero, at_infinity, 0.0, "no finite beta"))


def _solve_one(pair, origin, tensors) -> list[EquilibriumSolution]:
    """The one-nonzero-free-length case: the 48 candidates of the
    degree-48 eliminant with accepted or rejected status. Accepted roots
    satisfy the unsquared pair with the principal L1 to ACCEPT_REL_TOL
    (scale-normalized), a fixed level. The rejected ones are same-sign
    roots on the other branch of L1, the mixed-sign roots that squaring
    introduces, the two O2 = O1 points four times each and the 12 tan-half
    pole roots with no finite beta; the squared-pair residual is recorded
    for reporting. A LostRoots warning, which names the caller of
    solve_equilibria, says when fewer than the 14 same-sign roots
    converged."""
    signs = np.array([1.0, -1.0])
    known_z, coincident_length = _known_points(pair, tensors)
    roots = _companion_roots(_deflate(
        _finite(_eliminants(tensors, pair.kl, signs)), known_z))

    # per root: of the two roots L of G the one where
    # F = (z A)^2 (z L1^2) - z (z B)^2 is smaller, and s = B / A there
    sign = np.repeat(signs, roots.shape[1])
    z = roots.ravel()
    a, b, c, d, l1_sq = _split(_in_length(tensors, z))
    candidates = np.array(_quadratic_roots(
        *_mixed(a, b, c, d, pair.kl, sign[:, None]).T)).T
    a, b, l1_sq = (horner(row[:, None, :], candidates)
                   for row in (a, b, l1_sq))
    pick = np.arange(len(z)), np.argmin(
        np.abs(a * a * l1_sq - z[:, None] * b * b), axis=1)
    u, z, s, terms = newton(pair, tensors, origin, candidates[pick], z,
                            b[pick] / a[pick], sign)

    same_sign = sign > 0
    columns = _classify(origin + u, z, s, terms, same_sign)
    converged = np.count_nonzero(same_sign & (
        columns["accepted"] | (columns["note"] == "other branch")))
    if converged < SAME_SIGN_ROOTS:
        warnings.warn(f"{converged} of the {SAME_SIGN_ROOTS} same-sign roots "
                      "converged", LostRoots, stacklevel=3)
    return ledger(
        columns,
        # both squared quartics vanish where O2 = O1
        structural_rows(
            np.repeat(-1j * np.log(known_z[:2]), COINCIDENT_MULTIPLICITY),
            np.repeat(coincident_length, COINCIDENT_MULTIPLICITY), 0.0,
            "O2 = O1 (first spring of zero length)"),
        _POLE_COLUMNS)
