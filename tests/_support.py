"""Shared fixtures-in-spirit: reference inputs, published solution tables,
random parameter generators, the brute-force equilibrium oracle and the
paper's degree-48 tan-half eliminant, and planted equilibria."""

import dataclasses
import functools
import math

import mpmath
import numpy as np

from spring_platform import MechanismParams, Point2
from spring_platform.geometry import unit_vector
from spring_platform.mechanism import point_e, pose_from, residual_pair
from spring_platform.solver import (TRIM_RELATIVE, UnsquaredPair, _in_length,
                                    _split)

# reference mechanism (angles in radians here; configs carry degrees)
def reference_params(l01=0.0):
    return MechanismParams(
        surface_point=Point2(19.5, 6.25),
        surface_angle=math.radians(150.0),
        a1_in_base=Point2(5.5, 0.0),
        a2_in_top=Point2(4.5, 0.0),
        p_in_top=Point2(2.25, 2.5),
        base_origin=Point2(5.0, 3.5),
        base_angle=math.radians(20.0),
        stiffness=(1.5, 1.85, 1.45),
        free_lengths=(l01, 0.0, 0.0),
    )


# published four-root solution set for the all-zero-free-length reference
TABLE_ZERO = (
    (2.8889, 6.8220),
    (-0.1904, 7.3693),
    (-0.4294 + 1.8668j, 6.1074 + 8.2840j),
    (-0.4294 - 1.8668j, 6.1074 - 8.2840j),
)

# published 36-row solution set for the one-nonzero-free-length reference
TABLE_ONE = (
    (2.9284, 6.8364), (2.8837, 6.953), (2.9468, 6.9906), (2.9023, 7.1073),
    (-0.2255, 7.355), (-0.1958, 7.6037), (-0.0970, 7.6834), (-0.0671, 7.9421),
    (-0.479931 - 1.778021j, 5.936438 - 7.867302j),
    (-0.479931 + 1.778021j, 5.936438 + 7.867302j),
    (-0.442435 - 1.882235j, 5.995607 - 7.933405j),
    (-0.442435 + 1.882235j, 5.995607 + 7.933405j),
    (-0.444923 - 1.757214j, 6.278938 - 7.749504j),
    (-0.444923 + 1.757214j, 6.278938 + 7.749504j),
    (-0.400698 - 1.867888j, 6.326189 - 7.839231j),
    (-0.400698 + 1.867888j, 6.326189 + 7.839231j),
    (0.148383 - 1.075567j, 7.441804 - 8.670424j),
    (0.148383 + 1.075567j, 7.441804 + 8.670424j),
    (-1.658747 - 1.330224j, 7.48042 - 10.277582j),
    (-1.658747 + 1.330224j, 7.48042 + 10.277582j),
    (0.711855 - 1.023609j, 7.868223 + 0.279091j),
    (0.711855 + 1.023609j, 7.868223 - 0.279091j),
    (0.731613 - 1.712544j, 8.081043 - 9.024726j),
    (0.731613 + 1.712544j, 8.081043 + 9.024726j),
    (0.732104 - 1.71446j, 8.08135 - 9.026026j),
    (0.732104 + 1.71446j, 8.08135 + 9.026026j),
    (0.733525 - 1.712055j, 8.082343 - 9.024419j),
    (0.733525 + 1.712055j, 8.082343 + 9.024419j),
    (0.734018 - 1.713966j, 8.08265 - 9.025719j),
    (0.734018 + 1.713966j, 8.08265 + 9.025719j),
    (0.768221 - 1.459601j, 8.107967 - 8.849827j),
    (0.768221 + 1.459601j, 8.107967 + 8.849827j),
    (-2.936115 - 1.174705j, 8.607065 - 10.526548j),
    (-2.936115 + 1.174705j, 8.607065 + 10.526548j),
    (1.111301 - 1.470257j, 13.473818 - 3.974404j),
    (1.111301 + 1.470257j, 13.473818 + 3.974404j),
)

REFERENCE_CONFIG = {
    "P_M": [19.5, 6.25],
    "alpha_deg": 150.0,
    "P_A1_in1": [5.5, 0.0],
    "P_A2_in2": [4.5, 0.0],
    "P_P_in2": [2.25, 2.5],
    "P_O1": [5.0, 3.5],
    "phi1_deg": 20.0,
    "k": [1.5, 1.85, 1.45],
    "L0": [0.0, 0.0, 0.0],
}


def sylvester(f, g):
    """6x6 Sylvester matrices of stacks of quartics f and quadratics g in
    L, given as ascending coefficient rows: two shifted rows of f above
    four of g, each descending."""
    m = np.zeros(np.broadcast_shapes(f.shape[:-1], g.shape[:-1]) + (6, 6),
                 dtype=np.result_type(f, g))
    for shift in range(2):
        m[..., shift, shift:shift + 5] = f[..., ::-1]
    for shift in range(4):
        m[..., 2 + shift, shift:shift + 3] = g[..., ::-1]
    return m


def dialytic(p, q):
    """8x8 dialytic matrices of stacks of quartics p and q in L, given as
    ascending coefficient rows, over the basis [L^7 .. L^0]: the two base
    rows shifted down in interleaved pairs (times L, L^2, L^3)."""
    m = np.zeros(np.broadcast_shapes(p.shape[:-1], q.shape[:-1]) + (8, 8),
                 dtype=np.result_type(p, q))
    for shift in range(4):
        m[..., 2 * shift, 3 - shift:8 - shift] = p[..., ::-1]
        m[..., 2 * shift + 1, 3 - shift:8 - shift] = q[..., ::-1]
    return m


def product(p, q):
    """Coefficient rows of the products of the polynomials p and q, given
    as ascending rows along the last axis, in their arithmetic (numpy or
    mpmath)."""
    n = q.shape[-1]
    out = np.zeros(np.broadcast_shapes(p.shape[:-1], q.shape[:-1])
                   + (p.shape[-1] + n - 1,), dtype=np.result_type(p, q))
    for i in range(p.shape[-1]):
        out[..., i:i + n] += p[..., i, None] * q
    return out


def squared(a, b, l1_sq, z):
    """Coefficients in L of z^3 (T^2 L1^2 - U^2) from the rows of z T,
    z U and z L1^2 at the z values, in their arithmetic (numpy or
    mpmath)."""
    out = product(product(a, a), l1_sq)
    out[..., :3] -= np.asarray(z)[..., None] * product(b, b)
    return out


# the third roots of unity and their inverse 3x3 discrete transform
THIRD_ROOTS = np.exp(2j * np.pi * np.arange(3.0) / 3)
THIRD_INVERSE = np.conj(THIRD_ROOTS[None, :] ** np.arange(3)[:, None]) / 3


def sampled_tensors(pair, origin=0.0):
    """UnsquaredPair.tensors by interpolation, the reference for its closed
    form: z T from UnsquaredPair.terms on the grid L = origin + w, z = w'
    of third roots of unity w and w', and the inverse discrete transform
    of those values, exact for degree <= 2 in both."""
    z = THIRD_ROOTS
    values = np.array(pair.terms(origin + THIRD_ROOTS[:, None],
                                 (z + 1 / z) / 2, (z - 1 / z) / 2j))
    return THIRD_INVERSE @ (values * z) @ THIRD_INVERSE.T


def squared_pair(tensors, z):
    """The paper's squared pair z^3 (A^2 L1^2 - B^2), z^3 (C^2 L1^2 - D^2)
    at the z values, as coefficients in L, from UnsquaredPair tensors."""
    a, b, c, d, l1_sq = _split(_in_length(tensors, z))
    return squared(a, b, l1_sq, z), squared(c, d, l1_sq, z)


@functools.cache
def tan_half_eliminant(params):
    """The paper's eliminant P(z), z = exp(i beta), as its 49 ascending
    coefficients: the determinant of the dialytic matrix of the squared
    pair (L from the foot point; a shift of L leaves it unchanged),
    sampled at the 64th roots of unity in 25-digit arithmetic and
    transformed there.

    In x = tan(beta / 2), z = (1 + i x) / (1 - i x) and the paper's
    eliminant is (1 - i x)^48 P(z). Its leading coefficient is P(-1), its
    pole factor (1 + x^2)^6 is six vanishing coefficients at each end of
    P, and its 36 finite roots are the roots of z^6 .. z^42."""
    pair = UnsquaredPair(params)
    with mpmath.workdps(25):
        tensors = np.vectorize(mpmath.mpc, otypes=[object])(
            pair.tensors(pair.foot()))
        nodes = np.array(mpmath.unitroots(64), dtype=object)
        values = np.array([mpmath.det(mpmath.matrix(m.tolist())) for m in
                           dialytic(*squared_pair(tensors, nodes))])
        transform = nodes[-np.outer(np.arange(49), np.arange(64)) % 64]
        return (transform @ values / 64).astype(complex)


def tan_half_degree(coeffs):
    """Degree in x = tan(beta / 2) of the eliminant with coefficients
    coeffs in z: 48 unless its leading coefficient P(-1) vanishes."""
    value = np.polyval(coeffs[::-1], -1.0)
    return 48 - int(abs(value) <= 1e-20 * np.max(np.abs(coeffs)))


def sample_recoverable_roots(rng, count, lo=0.1, hi=10.0, min_gap=0.15):
    """Annulus roots with a pairwise-separation floor and the ascending
    coefficients of their monic polynomial, resampled until the leading
    coefficient stays above TRIM_RELATIVE of the largest: crowded sets and
    extreme coefficient ranges are unresolvable from coefficients in any
    finite working precision, so they cannot witness root-finder
    quality."""
    while True:
        roots = []
        while len(roots) < count:
            r = math.exp(rng.uniform(math.log(lo), math.log(hi))) \
                * np.exp(1j * rng.uniform(0, 2 * math.pi))
            if all(abs(r - q) >= min_gap for q in roots):
                roots.append(r)
        coeffs = np.poly(roots)[::-1]
        if 1.0 > TRIM_RELATIVE * np.max(np.abs(coeffs)):
            return np.array(roots), coeffs


def random_params(rng, l01=0.0):
    """Random geometrically sane mechanism with the given first free
    length; the base axis is kept clearly non-parallel to the surface."""
    while True:
        alpha = rng.uniform(0.0, 2 * math.pi)
        phi1 = rng.uniform(0.0, 2 * math.pi)
        if abs(math.sin(alpha - phi1)) < 0.1:
            continue
        return MechanismParams(
            surface_point=Point2(rng.uniform(5.0, 25.0), rng.uniform(-5.0, 10.0)),
            surface_angle=alpha,
            a1_in_base=Point2(rng.uniform(1.0, 8.0), 0.0),
            a2_in_top=Point2(rng.uniform(1.0, 8.0), 0.0),
            p_in_top=Point2(rng.uniform(-4.0, 4.0), rng.uniform(0.5, 4.0)),
            base_origin=Point2(rng.uniform(-5.0, 8.0), rng.uniform(-5.0, 8.0)),
            base_angle=phi1,
            stiffness=tuple(rng.uniform(0.3, 4.0, 3)),
            free_lengths=(l01, 0.0, 0.0),
        )


def brute_force_real_equilibria(params, beta_span=(-math.pi, math.pi),
                                length_span=(0.0, 30.0), n_beta=2400):
    """Independent oracle: scan over beta, solve the force equation for L
    (it is affine in L when all free lengths vanish), and bisect the
    moment residual between sign changes. Uses only the direct mechanism
    residuals, no elimination machinery."""
    e = point_e(params)

    def residuals(length, beta):
        return residual_pair(pose_from(length, beta, params, e), params)

    def length_at(beta):
        f0 = residuals(0.0, beta)[0]
        f1 = residuals(1.0, beta)[0]
        slope = f1 - f0
        if slope == 0.0:
            return None
        # affine check: a third sample must sit on the same line
        f2 = residuals(2.0, beta)[0]
        assert abs(f2 - (2 * f1 - f0)) < 1e-9 * (abs(f0) + abs(f1) + 1.0)
        length = -f0 / slope
        if not length_span[0] <= length <= length_span[1]:
            return None
        return length

    def moment_on_curve(beta):
        length = length_at(beta)
        if length is None:
            return None, None
        return residuals(length, beta)[1], length

    betas = np.linspace(beta_span[0], beta_span[1], n_beta)
    values = [moment_on_curve(b) for b in betas]
    found = []
    for i in range(len(betas) - 1):
        g0, _ = values[i]
        g1, _ = values[i + 1]
        if g0 is None or g1 is None:
            continue
        if g0 == 0.0 or (g0 < 0) == (g1 < 0):
            continue
        lo, hi = betas[i], betas[i + 1]
        glo = g0
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            gm, _ = moment_on_curve(mid)
            if gm is None:
                break
            if (glo < 0) == (gm < 0):
                lo, glo = mid, gm
            else:
                hi = mid
        beta_star = 0.5 * (lo + hi)
        length_star = length_at(beta_star)
        if length_star is not None:
            found.append((beta_star, length_star))
    deduped = []
    for beta, length in found:
        if not any(abs(beta - b) < 1e-6 for b, _ in deduped):
            deduped.append((beta, length))
    return deduped


def plant(geometry, length, beta, l01=None):
    """The mechanism of the geometry's points with a real equilibrium at
    exactly (length, beta), or None: an oracle that uses no elimination,
    only mechanism.pose_from at the real pose.

    Per spring, X = end - anchor gives the force per unit stiffness X . u
    and the moment (anchor - P) x X, and the free-length column is minus
    spring 1's pair over its length l1: a 2 x 4 system in (k1, k2, k3,
    k1 L01), linear at a fixed pose. Its null space is 2-D; with l01
    given, k1 L01 is folded into column 1 and it is 1-D. In the 2-D case
    each component of cos(t) n1 + sin(t) n2 is positive on a half circle
    of t, and the plant is the middle of the arc where all four are. None
    when no positive vector exists or a stiffness is below 1e-2 of the
    largest."""
    pose = pose_from(length, beta, geometry, geometry.point_e)
    u = unit_vector(geometry.surface_angle)
    o1 = geometry.base_origin
    columns = [((end - anchor).dot(u), (anchor - pose.p).cross(end - anchor))
               for anchor, end in ((o1, pose.o2), (o1, pose.a2),
                                   (geometry.a1_fixed, pose.a2))]
    l1 = math.hypot(pose.o2.x - o1.x, pose.o2.y - o1.y)
    system = np.array(columns + [(-columns[0][0] / l1, -columns[0][1] / l1)]).T
    if l01 is not None:
        system = np.column_stack([system[:, 0] + l01 * system[:, 3],
                                  system[:, 1:3]])
    null = np.linalg.svd(system)[2][2:]
    if len(null) == 1:
        v = null[0] * np.sign(null[0][0])
    else:
        phase = np.arctan2(null[1], null[0])
        spread = np.angle(np.exp(1j * (phase - phase[0])))
        t = phase[0] + (spread.max() + spread.min()) / 2
        v = math.cos(t) * null[0] + math.sin(t) * null[1]
    k = v[:3]
    if not np.all(v > 0) or k.min() < 1e-2 * k.max():
        return None
    return dataclasses.replace(
        geometry, stiffness=tuple(map(float, k / k.max())),
        free_lengths=(float(v[3] / v[0]) if l01 is None else l01, 0.0, 0.0))


def nearest_match(target, values):
    """Distance from target to the closest entry of values (complex)."""
    return min(abs(target - v) for v in values)
