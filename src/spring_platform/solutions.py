"""Solution records of both free-length cases, plus conjugate
pairing, the ledger that turns solver columns into ordered records, and
residual-margin helpers."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

REAL_IMAG_TOL = 1e-8
CONJUGATE_REL_TOL = 1e-6  # joint gap of a near-conjugate pair, relative


class EquilibriumSolution(NamedTuple):
    """One candidate root of an equilibrium solve.

    residual_force / residual_moment are the magnitudes of the two
    equilibrium residuals at the root; rel_residual is the larger of the
    two after scale normalization and drives the accepted flag. For the
    one-nonzero-free-length case squared_residual records how well the
    root satisfies the squared quartic pair (the paper's elimination
    object), so roots that squaring introduced are distinguishable in
    reports; note names the kind of a rejected row ("other branch",
    "mixed sign", "refinement not converged", "O2 = O1 (first spring of
    zero length)", "no finite beta", "no finite beta (tan-half pole
    artifact)") or of an accepted root found twice ("repeated root").
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


def mark_real(beta, length):
    """Whether (beta, L) is real to REAL_IMAG_TOL, elementwise."""
    return ((np.abs(np.imag(beta)) <= REAL_IMAG_TOL)
            & (np.abs(np.imag(length)) <= REAL_IMAG_TOL))


def pair_conjugate_points(beta: np.ndarray, length: np.ndarray,
                          is_real: np.ndarray):
    """Copies of the (beta, L) arrays with near-conjugate complex pairs
    symmetrized, so the set is exactly closed under conjugation.

    Real-flagged points are left untouched. Pairing is greedy in index
    order on the joint distance between one point and the conjugate of
    another; points with non-finite components are never paired.
    """
    live = np.flatnonzero(~is_real & np.isfinite(beta) & np.isfinite(length))
    b, l = beta[live], length[live]
    gap = np.abs(b[:, None] - np.conj(b)) + np.abs(l[:, None] - np.conj(l))
    np.fill_diagonal(gap, np.inf)
    rows, cols = np.nonzero(
        gap <= CONJUGATE_REL_TOL * (np.abs(b) + np.abs(l) + 1.0)[:, None])
    # row by row, each unused point takes its nearest unused partner
    # within the tolerance (the lower index on a tie)
    order = np.lexsort((cols, gap[rows, cols], rows))
    first, second, used = [], [], set()
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        if i not in used and j not in used:
            used.update((i, j))
            first.append(i)
            second.append(j)
    first, second = live[first], live[second]
    beta, length = beta.copy(), length.copy()
    for values in (beta, length):
        mean = (values[first] + np.conj(values[second])) / 2
        values[first], values[second] = mean, np.conj(mean)
    return beta, length


def ledger(*parts: dict) -> list[EquilibriumSolution]:
    """The records of the candidates in parts, each a dict of columns keyed
    by every EquilibriumSolution field: the parts joined, near-conjugate
    complex pairs symmetrized by pair_conjugate_points, and ordered by
    (beta.re, beta.im, L.re, L.im) in one np.lexsort. A NaN key sorts after
    every number in its place (numpy's order), and rows equal in all four
    keys keep the order of parts."""
    columns = {name: np.concatenate([part[name] for part in parts])
               for name in EquilibriumSolution._fields}
    beta, length = pair_conjugate_points(
        columns["beta"], columns["length"], columns["is_real"])
    columns["beta"], columns["length"] = beta, length
    order = np.lexsort((length.imag, length.real, beta.imag, beta.real))
    return list(map(EquilibriumSolution._make, zip(
        *(column[order].tolist() for column in columns.values()))))


def residual_margin(solutions: list[EquilibriumSolution]):
    """(max accepted rel residual, min rejected rel residual, ratio).

    A repeated root is an accepted equilibrium that a second start
    converged onto, so it sits on neither side. Ratio is None when either
    side is empty or the accepted side sits at exactly zero.
    """
    acc = [s.rel_residual for s in solutions if s.accepted]
    rej = [s.rel_residual for s in solutions
           if not s.accepted and s.note != "repeated root"]
    if not acc or not rej:
        return (max(acc) if acc else None,
                min(rej) if rej else None,
                None)
    worst_acc = max(acc)
    best_rej = min(rej)
    ratio = best_rej / worst_acc if worst_acc > 0 else None
    return worst_acc, best_rej, ratio
