"""Pipeline orchestration: the solve and its verification bookkeeping."""

from __future__ import annotations

import time
from typing import NamedTuple

from .config import CASE_ONE, RunConfig
from .solutions import EquilibriumSolution, residual_margin
from .solver import solve_equilibria

CONTACT_ASSUMED = "assumed"


class AnalysisReport(NamedTuple):
    config: RunConfig
    contact: str
    free_pose: dict | None
    solutions: list[EquilibriumSolution]
    counts: dict
    margin: dict | None
    timing_s: float
    notes: list[str]


def run_analysis(config: RunConfig) -> AnalysisReport:
    """Full analysis for one configuration.

    Both supported cases have L02 = L03 = 0, so the legs O1-A2 and A1-A2
    cannot span O1-A1: the platform has no unloaded pose, exists only
    pressed against the surface, and contact is assumed. The solve runs
    directly; its MechanismError (DegenerateQuartic, say) is not caught.
    """
    t0 = time.perf_counter()
    solutions = solve_equilibria(config.params)

    accepted = real = real_candidates = 0
    for s in solutions:
        accepted += s.accepted
        if s.is_real:
            real_candidates += 1
            real += s.accepted
    counts = {"total": len(solutions), "accepted": accepted,
              "rejected": len(solutions) - accepted, "real": real,
              "real_candidates": real_candidates}
    margin = None
    if config.case == CASE_ONE:
        worst_acc, best_rej, ratio = residual_margin(solutions)
        margin = {"max_accepted_residual": worst_acc,
                  "min_rejected_residual": best_rej,
                  "ratio": ratio}
    return AnalysisReport(
        config=config, contact=CONTACT_ASSUMED, free_pose=None,
        solutions=solutions, counts=counts, margin=margin,
        timing_s=time.perf_counter() - t0,
        notes=["free pose not assemblable; contact assumed"])
