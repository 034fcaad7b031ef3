"""Acceptance gate: one test per criterion, printing one PASS/FAIL line.

Two sub-criteria of the one-nonzero-free-length reproduction are known to
be unattainable: the published 36-row table is internally inconsistent
with the equations it was derived from (its own zero-free-length table
validates this implementation to all printed digits, while the 36-row
table's values satisfy neither the unsquared nor the squared system, and
its accepted/extraneous split matches the tan-half pole factor rather
than a residual filter). Those assertions are implemented exactly as
stated and fail with the reconciliation printed; see the repository
notes for the full analysis.
"""

import contextlib
import json
import math
import time
import warnings
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np

from _support import (REFERENCE_CONFIG, TABLE_ONE, TABLE_ZERO,
                      brute_force_real_equilibria, dialytic, nearest_match,
                      plant, random_params, sample_recoverable_roots,
                      tan_half_degree, tan_half_eliminant)

from spring_platform import Point2, residual_margin, solve_equilibria
from spring_platform.cli import main as cli_main
from spring_platform.errors import LostRoots
from spring_platform.solver import UnsquaredPair


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


def test_table_zero_reproduction(params_zero):
    with criterion("table-zero reproduction (4 roots, 5e-4, <0.1 s)"):
        start = time.perf_counter()
        solutions = solve_equilibria(params_zero)
        elapsed = time.perf_counter() - start
        assert len(solutions) == 4
        betas = [s.beta for s in solutions]
        lengths = [s.length for s in solutions]
        for beta_ref, length_ref in TABLE_ZERO:
            assert nearest_match(beta_ref, betas) < 5e-4
            assert nearest_match(length_ref, lengths) < 5e-4
        assert elapsed < 0.1, f"runtime {elapsed:.3f} s"


def test_table_one_reproduction(params_one):
    with criterion("table-one reproduction (deg 48, 48 cands, 36 acc, "
                   "8 real, 1e-3, <10 s)"):
        degree = tan_half_degree(tan_half_eliminant(params_one))
        start = time.perf_counter()
        solutions = solve_equilibria(params_one)
        elapsed = time.perf_counter() - start

        accepted = [s for s in solutions if s.accepted]
        real_accepted = [s for s in accepted if s.is_real]
        squared_ok = [s for s in solutions if s.squared_residual < 1e-6]
        pole = [s for s in solutions if "pole artifact" in s.note]
        print(f"  eliminant degree: {degree}")
        print(f"  candidates: {len(solutions)}, accepted by the unsquared "
              f"filter: {len(accepted)} ({len(real_accepted)} real)")
        print(f"  satisfying the squared pair: {len(squared_ok)}; tan-half "
              f"pole artifacts: {len(pole)} "
              f"(published split 36/12 matches candidates minus pole factor)")
        pair_gaps = sorted(
            min(abs(s.beta - b) + abs(s.length - l) for s in solutions)
            for b, l in TABLE_ONE)
        print(f"  nearest-candidate gaps to the 36 published rows: "
              f"median {pair_gaps[18]:.3f}, max {pair_gaps[-1]:.3f} "
              f"(published values carry ~1e-2 errors against these "
              f"equations; see notes)")

        assert degree == 48
        assert len(solutions) == 48
        assert elapsed < 10.0, f"runtime {elapsed:.3f} s"
        assert len(accepted) == 36, \
            f"accepted {len(accepted)} != 36: the published count matches " \
            f"the squared-pair/pole split, not the unsquared filter"
        assert len(real_accepted) == 8, \
            f"real accepted {len(real_accepted)} != 8: only the two true " \
            f"equilibria satisfy the unsquared pair"
        for beta_ref, length_ref in TABLE_ONE:
            gap = min(abs(s.beta - beta_ref) for s in accepted)
            assert gap < 1e-3, f"no accepted root within 1e-3 of {beta_ref}"


def test_extraneous_margin(solutions_one):
    with criterion("extraneous-root margin (>= 100x separation)"):
        worst_acc, best_rej, ratio = residual_margin(solutions_one)
        print(f"  max accepted residual {worst_acc:.2e}, min rejected "
              f"{best_rej:.2e}, ratio {ratio:.2e}")
        assert ratio is not None and ratio >= 100.0


def test_residual_property_suite():
    with criterion("residual suite (200 random zero-case, 20 one-nonzero)"):
        rng = np.random.default_rng(101)
        for _ in range(200):
            params = random_params(rng)
            for s in solve_equilibria(params):
                if math.isfinite(s.rel_residual):
                    assert s.rel_residual <= 1e-8
        for _ in range(20):
            params = random_params(rng, l01=float(rng.uniform(0.2, 2.0)))
            for s in solve_equilibria(params):
                if s.accepted:
                    assert s.rel_residual <= 1e-6


def test_brute_force_oracle_equivalence(params_zero, solutions_zero):
    with criterion("zero-case brute-force oracle equivalence (1e-3)"):
        found = brute_force_real_equilibria(params_zero)
        quartic_reals = [s.beta.real for s in solutions_zero if s.is_real]
        assert len(found) == len(quartic_reals), \
            f"scan found {len(found)} real equilibria, solver " \
            f"returned {len(quartic_reals)}"
        for beta, length in found:
            assert min(abs(beta - b) for b in quartic_reals) < 1e-3


def test_planted_equilibria_are_found():
    with criterion("planted recall (40 generic, 20 at L01 = 1e-3, 20 at "
                   "1e-5: each an accepted row to 1e-10, <1 s)"):
        rng = np.random.default_rng(18)
        start = time.perf_counter()
        tries = 0
        for l01, count in ((None, 40), (1e-3, 20), (1e-5, 20)):
            planted = 0
            while planted < count:
                tries += 1
                geometry = random_params(rng)
                length = UnsquaredPair(geometry).foot() + rng.uniform(-10, 10)
                beta = rng.uniform(-math.pi, math.pi)
                params = plant(geometry, length, beta, l01)
                if params is None:
                    continue
                planted += 1
                gap = min(abs(s.beta - beta) + abs(s.length - length)
                          for s in solve_equilibria(params) if s.accepted)
                assert gap <= 1e-10 * (1 + abs(beta) + abs(length)), \
                    f"planted root (L={length}, beta={beta}) of " \
                    f"{params} missed by {gap:.2e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"runtime {elapsed:.3f} s ({tries} tries)"


def moved(params, theta, shift):
    """params seen from a rigid frame: turned by theta, then shifted."""
    import dataclasses
    c, s = math.cos(theta), math.sin(theta)

    def rot(p):
        return Point2(c * p.x - s * p.y + shift.x,
                      s * p.x + c * p.y + shift.y)

    return dataclasses.replace(
        params, surface_point=rot(params.surface_point),
        base_origin=rot(params.base_origin),
        surface_angle=params.surface_angle + theta,
        base_angle=params.base_angle + theta)


def rigid_frame(params, rng):
    """params seen from a random rigid frame (rotation and shift)."""
    theta = rng.uniform(-math.pi, math.pi)
    return moved(params, theta, Point2(*rng.uniform(-20, 20, 2)))


def ledger_classes(params):
    """The solve's count of rows per (accepted, real, note), and its count
    of LostRoots warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solutions = solve_equilibria(params)
    return (Counter((s.accepted, s.is_real, s.note) for s in solutions),
            sum(w.category is LostRoots for w in caught))


def test_frame_invariance(params_zero, solutions_zero, params_one):
    with criterion("frame invariance (50 rigid transforms, 1e-9; 5 "
                   "one-nonzero mechanisms x 4, accepted sets to 1e-8; 5 "
                   "one-nonzero mechanisms shifted by 1e6 and 2 turned by "
                   "3.1416 and 1 rad, class counts, no LostRoots)"):
        rng = np.random.default_rng(107)
        reference = sorted(((s.beta, s.length) for s in solutions_zero),
                           key=lambda t: (t[0].real, t[0].imag))
        for _ in range(50):
            moved_zero = rigid_frame(params_zero, rng)
            got = sorted(((s.beta, s.length)
                          for s in solve_equilibria(moved_zero)),
                         key=lambda t: (t[0].real, t[0].imag))
            for (b0, l0), (b1, l1) in zip(reference, got):
                assert abs(b0 - b1) <= 1e-9 * max(1.0, abs(b0))
                assert abs(l0 - l1) <= 1e-9 * max(1.0, abs(l0))
        # one-nonzero mechanisms: the accepted set does not move either
        corpus = np.random.default_rng(2026)
        frames = np.random.default_rng(113)
        mechanisms = []
        for _ in range(5):
            params = random_params(corpus,
                                   l01=float(corpus.uniform(0.2, 2.0)))
            mechanisms.append(params)
            reference = [(s.beta, s.length)
                         for s in solve_equilibria(params)
                         if s.accepted]
            for _ in range(4):
                got = [(s.beta, s.length) for s in
                       solve_equilibria(rigid_frame(params, frames))
                       if s.accepted]
                assert len(got) == len(reference)
                for b0, l0 in reference:
                    assert min(abs(b0 - b1) + abs(l0 - l1) for b1, l1 in got) \
                        <= 1e-8 * (1.0 + abs(b0) + abs(l0))
        # far from the origin, or turned about it by a rounded pi and by
        # 1 rad, no row changes its class and no root is lost (mechanism 21
        # turned by a rounded pi once raised a false LostRoots)
        while len(mechanisms) < 22:
            mechanisms.append(random_params(
                corpus, l01=float(corpus.uniform(0.2, 2.0))))
        moves = [(params, 0.0, Point2(0.6e6, 0.8e6))
                 for params in [params_one] + mechanisms[:4]]
        moves += [(params, theta, Point2(0.0, 0.0))
                  for params in (params_one, mechanisms[21])
                  for theta in (3.1416, 1.0)]
        for params, theta, shift in moves:
            classes, lost = ledger_classes(params)
            assert ledger_classes(moved(params, theta, shift)) == (classes, 0)
            assert lost == 0


def test_resultant_engine():
    with criterion("resultant engine (vanish-iff, deg-48 root recovery)"):
        rng = np.random.default_rng(109)
        # dialytic determinant vanishes iff the quartics share a root
        for k in range(100):
            pr = rng.uniform(-3, 3, 4) + 1j * rng.uniform(-3, 3, 4)
            qr = rng.uniform(-3, 3, 4) + 1j * rng.uniform(-3, 3, 4)
            share = k % 2 == 0
            if share:
                qr[0] = pr[0]
            p, q = np.poly(pr)[::-1], np.poly(qr)[::-1]
            value = np.linalg.det(dialytic(p, q))
            resultant = np.prod(np.polyval(q[::-1], pr))
            hadamard = np.prod([np.linalg.norm(row)
                                for row in dialytic(p, q)])
            if share:
                assert abs(value) <= 1e-8 * hadamard
            else:
                assert abs(value - resultant) <= 1e-8 * abs(resultant)
        # constructed degree-48 root sets recovered
        for _ in range(3):
            roots, coeffs = sample_recoverable_roots(rng, 48)
            got = np.roots(coeffs[::-1])
            for r in roots:
                assert min(abs(g - r) for g in got) <= 1e-6 * max(1.0, abs(r))


def test_cli_end_to_end(tmp_path):
    with criterion("CLI end-to-end (counts, values, drawings)"):
        zero_cfg = tmp_path / "zero.json"
        zero_cfg.write_text(json.dumps(dict(REFERENCE_CONFIG)))
        one_cfg = tmp_path / "one.json"
        one_cfg.write_text(json.dumps(
            dict(REFERENCE_CONFIG, L0=[1.0, 0.0, 0.0])))

        out_zero = tmp_path / "out_zero"
        assert cli_main(["--config", str(zero_cfg), "--out", str(out_zero),
                         "--format", "json,csv,svg"]) == 0
        report = json.loads((out_zero / "report.json").read_text())
        assert report["counts"]["total"] == 4
        assert report["counts"]["real"] == 2
        csv_lines = (out_zero / "solutions.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 5
        betas = [float(line.split(",")[1]) for line in csv_lines[1:]]
        for beta_ref, _ in TABLE_ZERO[:2]:
            assert min(abs(b - beta_ref) for b in betas) < 5e-4
        zero_svgs = sorted(out_zero.glob("solution_*.svg"))
        assert len(zero_svgs) == 2
        for svg in list(zero_svgs) + [out_zero / "overview.svg"]:
            ET.parse(svg)

        out_one = tmp_path / "out_one"
        assert cli_main(["--config", str(one_cfg), "--out", str(out_one),
                         "--format", "json,csv,svg"]) == 0
        report = json.loads((out_one / "report.json").read_text())
        assert report["counts"]["total"] == 48
        one_svgs = sorted(out_one.glob("solution_*.svg"))
        for svg in list(one_svgs) + [out_one / "overview.svg"]:
            ET.parse(svg)
        overview = ET.parse(out_one / "overview.svg").getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        sides = {g.get("id"): int(g.get("data-solutions"))
                 for g in overview.findall("svg:g", ns)
                 if g.get("id", "").startswith("side_")}
        print(f"  one-nonzero report: accepted={report['counts']['accepted']} "
              f"real={report['counts']['real']} side split={sides}")
        assert report["counts"]["accepted"] == 36, \
            "unsquared filter accepts the true equilibria only (see notes)"
        assert len(one_svgs) == 8
        assert sides.get("side_positive") == 4
        assert sides.get("side_negative") == 4
