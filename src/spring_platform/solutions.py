"""Solution records shared by the two case solvers, plus ordering,
conjugate pairing and residual-margin helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

REAL_IMAG_TOL = 1e-8


@dataclass(frozen=True)
class EquilibriumSolution:
    """One candidate root of an equilibrium solve.

    residual_force / residual_moment are the magnitudes of the two
    equilibrium residuals at the root; rel_residual is the larger of the
    two after scale normalization and drives the accepted flag. For the
    one-nonzero-free-length case squared_residual records how well the
    root satisfies the squared quartic pair (the elimination object), so
    extraneous roots introduced by squaring or by the tan-half pole are
    distinguishable in reports.
    """

    beta: complex
    length: complex
    residual_force: float
    residual_moment: float
    rel_residual: float
    is_real: bool
    accepted: bool
    squared_residual: float = 0.0
    note: str = ""

    @property
    def rejected(self) -> bool:
        return not self.accepted


def mark_real(beta: complex, length: complex,
              tol: float = REAL_IMAG_TOL) -> bool:
    return bool(abs(beta.imag) <= tol and abs(length.imag) <= tol)


def sort_solutions(solutions: list[EquilibriumSolution]) -> list[EquilibriumSolution]:
    return sorted(solutions, key=lambda s: (s.beta.real, s.beta.imag,
                                            s.length.real, s.length.imag))


def pair_conjugates(solutions: list[EquilibriumSolution],
                    rel_tol: float = 1e-6) -> list[EquilibriumSolution]:
    """Symmetrize near-conjugate complex pairs so the returned set is
    exactly closed under conjugation of (beta, L).

    Real-flagged solutions are left untouched. Pairing is greedy on the
    joint distance between one solution and the conjugate of another;
    solutions with non-finite components are never paired.
    """
    out = list(solutions)
    used = [False] * len(out)
    for i, si in enumerate(out):
        if used[i] or si.is_real:
            continue
        best_j, best_d = None, None
        for j in range(len(out)):
            if j == i or used[j] or out[j].is_real:
                continue
            sj = out[j]
            d = (abs(si.beta - sj.beta.conjugate())
                 + abs(si.length - sj.length.conjugate()))
            if not math.isfinite(d):
                continue  # a NaN distance would pass the tolerance test
            if best_d is None or d < best_d:
                best_j, best_d = j, d
        if best_j is None:
            continue
        sj = out[best_j]
        scale = abs(si.beta) + abs(si.length) + 1.0
        if best_d > rel_tol * scale:
            continue
        beta = (si.beta + sj.beta.conjugate()) / 2
        length = (si.length + sj.length.conjugate()) / 2
        out[i] = replace(si, beta=beta, length=length)
        out[best_j] = replace(sj, beta=beta.conjugate(),
                              length=length.conjugate())
        used[i] = used[best_j] = True
    return out


def residual_margin(solutions: list[EquilibriumSolution]):
    """(max accepted rel residual, min rejected rel residual, ratio).

    Ratio is None when either side is empty or the accepted side sits at
    exactly zero.
    """
    acc = [s.rel_residual for s in solutions if s.accepted]
    rej = [s.rel_residual for s in solutions if not s.accepted]
    if not acc or not rej:
        return (max(acc) if acc else None,
                min(rej) if rej else None,
                None)
    worst_acc = max(acc)
    best_rej = min(rej)
    ratio = best_rej / worst_acc if worst_acc > 0 else None
    return worst_acc, best_rej, ratio
