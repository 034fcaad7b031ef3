"""Pipeline orchestration: free pose, contact classification, case
dispatch, solve, and verification bookkeeping."""

from __future__ import annotations

import time
from typing import NamedTuple

from .config import (CASE_ONE, CASE_ZERO, RunConfig,
                     UnsupportedFreeLengthPattern, free_length_case)
from .errors import AnalysisError, MechanismError, NotAssemblable
from .free_pose import free_pose, select_candidate, top_in_fixed
from .geometry import Contact, Point2, classify_contact, make_plane
from .mechanism import point_e
from .one_nonzero import ACCEPT_REL_TOL, solve_one_nonzero_free_length
from .solutions import EquilibriumSolution, residual_margin
from .zero_free_lengths import solve_zero_free_lengths

CONTACT_ASSUMED = "assumed"


class AnalysisReport(NamedTuple):
    config: RunConfig
    contact: str
    case: str | None
    point_e: Point2 | None
    free_pose: dict | None
    solutions: list[EquilibriumSolution]
    counts: dict
    margin: dict | None
    timing_s: float
    notes: list[str]


def _free_pose_stage(config: RunConfig):
    """Free-length assembly and contact classification; None when the
    assembly is degenerate and contact must be assumed."""
    params = config.params
    if not any(params.free_lengths[1:]):
        return None  # zero-length legs O1-A2 and A1-A2 cannot span O1-A1
    try:
        result = free_pose(params)
    except NotAssemblable:
        return None
    idx = select_candidate(result, config.free_pose_branch)
    fixed = top_in_fixed(params, result, idx)
    p_fixed = fixed.apply(params.p_in_top)
    o2_fixed = fixed.apply(Point2(0.0, 0.0))
    plane = make_plane(params.surface_angle, params.surface_point)
    contact = classify_contact(p_fixed, plane)
    info = {
        "a2_in_base": [result.a2_in_base.x, result.a2_in_base.y],
        "o2_candidates": [[p.x, p.y] for p in result.o2_candidates],
        "selected_branch": idx,
        "o2_fixed": [o2_fixed.x, o2_fixed.y],
        "p_fixed": [p_fixed.x, p_fixed.y],
        "phi2_in_base": result.phi2_candidates[idx],
    }
    return contact, info


def run_analysis(config: RunConfig) -> AnalysisReport:
    """Full analysis for one configuration.

    The unloaded (free-length) pose decides contact first: a pose on the
    origin side of the surface ends the run with no equilibrium solve. A
    degenerate free pose (zero-length legs) means the platform only exists
    pressed against the surface, so contact is assumed and the case solver
    runs directly.
    """
    t0 = time.perf_counter()
    notes: list[str] = []
    contact = CONTACT_ASSUMED
    free_info = None

    try:
        staged = _free_pose_stage(config)
    except MechanismError as exc:
        raise AnalysisError("free-pose", exc) from exc
    if staged is None:
        notes.append("free pose not assemblable; contact assumed")
    else:
        contact_enum, free_info = staged
        contact = contact_enum.value

    if contact == Contact.NO_CONTACT.value:
        return AnalysisReport(
            config=config, contact=contact, case=None, point_e=None,
            free_pose=free_info, solutions=[],
            counts={"total": 0, "accepted": 0, "rejected": 0, "real": 0},
            margin=None, timing_s=time.perf_counter() - t0, notes=notes)

    case = free_length_case(config.params.free_lengths)
    if case is None:
        raise AnalysisError("case-dispatch", UnsupportedFreeLengthPattern())

    try:
        e = point_e(config.params)
    except MechanismError as exc:
        raise AnalysisError("point-e", exc) from exc

    try:
        if case == CASE_ZERO:
            solutions = solve_zero_free_lengths(config.params)
        else:
            solutions = solve_one_nonzero_free_length(
                config.params, config.accept_tol or ACCEPT_REL_TOL)
    except MechanismError as exc:
        raise AnalysisError(f"solve-{case}", exc) from exc

    accepted = sum(1 for s in solutions if s.accepted)
    counts = {
        "total": len(solutions),
        "accepted": accepted,
        "rejected": len(solutions) - accepted,
        "real": sum(1 for s in solutions if s.is_real and s.accepted),
        "real_candidates": sum(1 for s in solutions if s.is_real),
    }
    margin = None
    if case == CASE_ONE:
        worst_acc, best_rej, ratio = residual_margin(solutions)
        margin = {"max_accepted_residual": worst_acc,
                  "min_rejected_residual": best_rej,
                  "ratio": ratio}
    return AnalysisReport(
        config=config, contact=contact, case=case, point_e=e,
        free_pose=free_info, solutions=solutions, counts=counts,
        margin=margin, timing_s=time.perf_counter() - t0, notes=notes)
