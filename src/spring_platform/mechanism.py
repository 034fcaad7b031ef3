"""Mechanism parameters with their point E, the contact-constrained pose,
spring state, and the two equilibrium residuals (force projection along
the surface and moment about the contact pin).

Every evaluation here is defined over complex numbers so that candidate
roots coming out of the elimination stage can be verified by direct
substitution; real inputs produce real values throughout. Spring lengths
for complex poses use the principal square root of the squared-distance
expression.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import ZeroLengthSpring
from .geometry import Point2, unit_vector

TOL_ZERO_LENGTH = 1e-12  # metres; below this a spring direction is undefined
TOL_PARALLEL = 1e-9      # on the cross product of the base and surface axes


def _cos_sin(angle):
    if isinstance(angle, complex):
        return cmath.cos(angle), cmath.sin(angle)
    return math.cos(angle), math.sin(angle)


def _sqrt(value):
    if isinstance(value, complex):
        return cmath.sqrt(value)
    return math.sqrt(value)


@dataclass(frozen=True)
class MechanismParams:
    """All given quantities of the mechanism.

    Anchor points a1/a2 are given in their own platform frames and must lie
    on the frame X axes; p_in_top locates the contact pin in the top frame.
    Angles in radians, lengths in metres, stiffness in N/m. Point E is
    computed at construction, so a base axis parallel to the surface is a
    ValueError here.
    """

    surface_point: Point2         # point M on the surface line
    surface_angle: float          # direction of the surface line
    a1_in_base: Point2            # anchor A1 in the base frame
    a2_in_top: Point2             # anchor A2 in the top frame
    p_in_top: Point2              # pin P in the top frame
    base_origin: Point2           # O1 in the fixed frame
    base_angle: float             # base frame orientation
    stiffness: tuple[float, float, float]
    free_lengths: tuple[float, float, float]

    def __post_init__(self):
        # an angle is written in degrees, which overflow above ~3.1e306 rad
        for name in ("surface_point", "surface_angle", "a1_in_base",
                     "a2_in_top", "p_in_top", "base_origin", "base_angle"):
            value = getattr(self, name)
            if not all(map(math.isfinite, (value.x, value.y) if isinstance(
                    value, Point2) else (math.degrees(value),))):
                raise ValueError(f"{name} must be finite, in degrees for an "
                                 f"angle, got {value}")
        for name in ("stiffness", "free_lengths"):
            values = getattr(self, name)
            if len(values) != 3:
                raise ValueError(f"{name} must hold 3 values, got {values}")
        for i, k in enumerate(self.stiffness, start=1):
            if not (k > 0 and math.isfinite(k)):
                raise ValueError(f"k{i} must be positive and finite, got {k}")
        for i, l0 in enumerate(self.free_lengths, start=1):
            if not (l0 >= 0 and math.isfinite(l0)):
                raise ValueError(f"L0{i} must be nonnegative, got {l0}")
        if abs(self.a1_in_base.y) > 0 or abs(self.a2_in_top.y) > 0:
            raise ValueError("anchor points must lie on their frame X axes")
        if not self.a1_in_base.x > 0:
            raise ValueError("distance O1-A1 must be positive")
        if not self.a2_in_top.x > 0:
            raise ValueError("distance O2-A2 must be positive")
        self.point_e  # cached here: a parallel base axis fails construction

    @property
    def d_o1a1(self) -> float:
        return self.a1_in_base.x

    @property
    def d_o2a2(self) -> float:
        return self.a2_in_top.x

    @cached_property
    def a1_fixed(self) -> Point2:
        """Anchor A1 in the fixed frame via the base pose."""
        return self.base_origin + self.d_o1a1 * unit_vector(self.base_angle)

    @cached_property
    def point_e(self) -> Point2:
        """Intersection of the base-frame X axis with the surface line.

        Each line is its unit direction (u through O1, v through M) and its
        moment about the origin, p.x * d.y - p.y * d.x; E solves the two
        moment equations by Cramer's rule. Raises ValueError when the axes
        are parallel within TOL_PARALLEL.
        """
        o1, m = self.base_origin, self.surface_point
        ux, uy = math.cos(self.base_angle), math.sin(self.base_angle)
        vx, vy = math.cos(self.surface_angle), math.sin(self.surface_angle)
        m1 = o1.x * uy - o1.y * ux
        m2 = m.x * vy - m.y * vx
        cross = ux * vy - uy * vx
        if abs(cross) <= TOL_PARALLEL:
            raise ValueError("the base X axis is parallel to the surface: "
                             f"|cross| = {abs(cross):.3e} <= {TOL_PARALLEL:.1e}")
        return Point2((m1 * -vx - -ux * m2) / cross,
                      (uy * m2 - m1 * vy) / cross)


def point_e(params: MechanismParams) -> Point2:
    """Point E of the mechanism, computed when it was built."""
    return params.point_e


class ContactPose(NamedTuple):
    """Fixed-frame points of the top platform at one (L, beta): the pin P,
    the top origin O2 and the anchor A2. Components may be complex during
    root verification."""

    p: Point2
    o2: Point2
    a2: Point2


def pose_frame(params: MechanismParams, e: Point2) -> tuple:
    """The constants of the pose map of one mechanism: the cosine and sine
    of the surface angle, point E, the pin P in the top frame and the
    distance O2-A2."""
    return (math.cos(params.surface_angle), math.sin(params.surface_angle),
            e.x, e.y, params.p_in_top.x, params.p_in_top.y, params.d_o2a2)


def pose_points(frame: tuple, length, cos_beta, sin_beta) -> tuple:
    """Fixed-frame (px, py, o2x, o2y, a2x, a2y) of the pin P, the top origin
    O2 and the anchor A2 at L and the cosine and sine of beta, from the
    constants of pose_frame; complex allowed, elementwise for arrays."""
    ca, sa, ex, ey, px2, py2, d2 = frame
    # rotation by (surface_angle + beta)
    cab = ca * cos_beta - sa * sin_beta
    sab = sa * cos_beta + ca * sin_beta
    px = ex + length * ca
    py = ey + length * sa
    o2x = px + cab * px2 - sab * py2
    o2y = py + sab * px2 + cab * py2
    # the top X axis points along phi2 = surface_angle + beta + pi
    return px, py, o2x, o2y, o2x - d2 * cab, o2y - d2 * sab


def pose_from_trig(length, cos_beta, sin_beta, params: MechanismParams,
                   e: Point2) -> ContactPose:
    """Pose from L and the cosine/sine of beta (complex allowed)."""
    px, py, o2x, o2y, a2x, a2y = pose_points(pose_frame(params, e), length,
                                             cos_beta, sin_beta)
    return ContactPose(Point2(px, py), Point2(o2x, o2y), Point2(a2x, a2y))


def pose_from(length, beta, params: MechanismParams, e: Point2) -> ContactPose:
    """Pose from the (L, beta) parametrization (complex allowed)."""
    return pose_from_trig(length, *_cos_sin(beta), params, e)


class SpringState(NamedTuple):
    """Lengths, unit directions and signed force magnitudes of the three
    springs (O1-O2, O1-A2, A1-A2)."""

    lengths: tuple
    directions: tuple[Point2, Point2, Point2]
    forces: tuple


def _spring_segments(pose: ContactPose, params: MechanismParams):
    o1 = params.base_origin
    a1 = params.a1_fixed
    return ((o1, pose.o2), (o1, pose.a2), (a1, pose.a2))


def spring_state(pose: ContactPose, params: MechanismParams) -> SpringState:
    lengths = []
    directions = []
    forces = []
    for i, (anchor, end) in enumerate(_spring_segments(pose, params)):
        d = end - anchor
        length = _sqrt(d.x * d.x + d.y * d.y)
        if abs(length) < TOL_ZERO_LENGTH:
            raise ZeroLengthSpring(f"spring {i + 1} has length {abs(length):.2e}")
        lengths.append(length)
        directions.append(Point2(d.x / length, d.y / length))
        forces.append(params.stiffness[i] * (length - params.free_lengths[i]))
    return SpringState(tuple(lengths), tuple(directions), tuple(forces))


def residual_pair(pose: ContactPose, params: MechanismParams):
    """Both equilibrium residuals from one spring evaluation."""
    state = spring_state(pose, params)
    u = unit_vector(params.surface_angle)
    anchors = (params.base_origin, params.base_origin, params.a1_fixed)
    force = moment = 0.0
    for anchor, f, s in zip(anchors, state.forces, state.directions):
        force = force + f * s.dot(u)
        moment = moment + (anchor - pose.p).cross(f * s)
    return force, moment
