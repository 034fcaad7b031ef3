"""Print every candidate row of a fixed set of solves: a before/after
dump for comparing two versions of the solvers, or of their report files.

Solves both committed configs, the first 40 mechanisms of
``bench/inputs.one_nonzero_mechanisms`` (seed 2026), 160 mechanisms drawn
from ``numpy.random.default_rng(777)`` (L01 ~ U(0.2, 2) first, then
``inputs.random_mechanism``), the first ZERO_MECHANISMS all-zero
mechanisms of ``inputs.zero_corpus(1, ·)`` and, at each L01 of SMALL_L01
(10^-k for k = 2 .. 12), the committed one-nonzero config and the first
SMALL_L01_MECHANISMS mechanisms of ``inputs.one_nonzero_mechanisms`` with
their L01 set to it (the small-l01 set, 99 solves below the corpora's
0.2, down to where rounding loses roots), for each k of
SCALE_EXPONENTS, both committed configs with every length times 10^k (the
scale set) and, for each k of CIRCLE_SAMPLES, the committed one-nonzero
config and the first CIRCLE_MECHANISMS mechanisms of
``inputs.one_nonzero_mechanisms`` rebuilt so that an O2 = O1 pose sits on
the eliminants' sample angle beta = 2 pi k / SAMPLES (the circle set, 27
solves): O1 = M + w (3 + z_k p), with w = exp(i alpha), p the pin in the
top frame and the base angle arg(M - O1), so E = M and O2 = O1 at L = 3,
z = z_k. Last comes the invariance set (164 solves): the committed
one-nonzero config and the first MECHANISMS_2026 mechanisms of
``inputs.one_nonzero_mechanisms`` rotated by pi about the origin (points
negated, angles plus pi), mirrored in the x axis (y and angles negated,
the pin's top-frame y too), translated by INVARIANCE_SHIFT and turned by
TURN_ANGLE about the origin, where no coordinate keeps its value up to
sign. None of
these moves an equilibrium relative to the mechanism, so each solve
should have the count of rows per (accepted, real, note) of the
untransformed solve. It prints one ``repr`` line per candidate row, an
accepted count and an error count per set, and the warnings of all
solves counted by category. After each set's counts it prints how many
of its rows break either of two invariants: a row flagged real has beta
and L exactly real, and a complex row with finite beta and L has another
row at exactly its conjugate point::

    # seed-2026 invariants: 0 real rows not exactly real, 0 of 984 ...

After the invariance set's counts it prints, per transform, the number
of solves whose class counts differ from the untransformed solve's and
the number of LostRoots warnings of its own solves::

    # invariance: rotated 0 changed, 0 LostRoots; mirrored 0 changed, ...
    # ...; turned 0 changed, 0 LostRoots

A solve that raises a ``MechanismError`` prints one ``# error <set>
<index> <Class>: <message>`` line in place of its rows, and the next solve
runs. Dump the version before a change and the one after it, then compare
the two dumps::

    python3 tools/candidate_rows.py > after.txt
    python3 tools/candidate_rows.py --compare before.txt after.txt

The comparison matches the accepted roots of each solve as sets, to
MATCH_REL_TOL relative, since a change of rounding moves every residual
and a byte diff then shows nothing. For the same reason it compares, per
solve, the count of rows of each class (accepted, real, note), which
shows a row that changed its class. It prints the accepted and error counts
of each set in both dumps, every unmatched root with the other dump's row
at its point (its note and rel_residual) or the word that there is none,
every solve whose class counts changed, every solve that fails in one dump
only and the worst matched gap. An accepted root of the first dump with no
match in the second is "reclassified" when the second has a row at its
point and "lost" when it has none; the two are counted apart. It exits 1
when such a root exists, a solve's class counts changed or a solve fails
in one dump only.

``--digests`` prints the report files instead of the rows. It writes the
solves of each set in order into one temporary directory per set, as the
CLI writes them (``solutions.csv``, ``report.json`` and the SVG
drawings), so every solve after a set's first rewrites the files of the
one before it; the invariance set, whose reports are those of moved
copies of other sets' mechanisms, is left out. Right after each solve it
prints one ``sha256  <solve> <file>`` line per file it wrote; the last
line is the file count. A failing solve prints its error line and writes
nothing. A plain ``diff`` of the dumps of two versions is the
byte-identity check of the output layer, rewrites included::

    python3 tools/candidate_rows.py --digests > after.txt
    diff before.txt after.txt

The script reads the ``src/`` and ``bench/`` directories next to it, so a
copy placed in another checkout reports that checkout. It takes a few
seconds.
"""

from __future__ import annotations

import argparse
import ast
import cmath
import dataclasses
import hashlib
import math
import re
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402
from spring_platform import (MechanismError, Point2,  # noqa: E402
                             RunConfig, emit_tables, load_config, render_svg,
                             run_analysis)
from spring_platform.solver import SAMPLES  # noqa: E402

MECHANISMS_2026 = 40
MECHANISMS_777 = 160
ZERO_MECHANISMS = 100
SMALL_L01 = tuple(10.0 ** -k for k in range(2, 13))
SMALL_L01_MECHANISMS = 8
SCALE_EXPONENTS = range(-12, 17)
CIRCLE_SAMPLES = (1, 3, 5)
CIRCLE_MECHANISMS = 8
# the points of MechanismParams, the config's P_M, P_A1_in1, P_A2_in2,
# P_P_in2 and P_O1: with L0, every length of a mechanism
POINTS = ("surface_point", "a1_in_base", "a2_in_top", "p_in_top",
          "base_origin")
INVARIANCE_SHIFT = (0.6e6, 0.8e6)
TURN_ANGLE = 1.0
MATCH_REL_TOL = 1e-8         # on |d beta| + |d L| over 1 + |beta| + |L|

_SOLVE = re.compile(r"# (\S+) (\d+)$")
_ERROR = re.compile(r"# error (\S+) (\d+) (.*)$")
_ROW = re.compile(r"beta=([^,]+), length=([^,]+),.* rel_residual=([^,]+), "
                  r"is_real=(True|False), accepted=(True|False),.* "
                  r"note=(.*)\)$")


def seed_777_mechanisms(count: int):
    rng = np.random.default_rng(777)
    out = []
    for _ in range(count):
        l01 = float(rng.uniform(*inputs.L01_RANGE))
        out.append(inputs.random_mechanism(rng, l01))
    return out


def small_l01_configs() -> list[RunConfig]:
    reference = load_config(ROOT / inputs.REFERENCE_ONE).params
    mechanisms = [reference, *inputs.one_nonzero_mechanisms(
        SMALL_L01_MECHANISMS)]
    return [RunConfig(params=dataclasses.replace(
        params, free_lengths=(l01, 0.0, 0.0)))
        for l01 in SMALL_L01 for params in mechanisms]


def scale_configs() -> list[RunConfig]:
    """The two committed configs, zero first, with every length times 10^k
    for each k of SCALE_EXPONENTS."""
    mechanisms = [load_config(ROOT / path).params
                  for path in (inputs.REFERENCE_ZERO, inputs.REFERENCE_ONE)]
    configs = []
    for factor in (10.0 ** k for k in SCALE_EXPONENTS):
        for params in mechanisms:
            points = {name: factor * getattr(params, name) for name in POINTS}
            configs.append(RunConfig(params=dataclasses.replace(
                params, **points, free_lengths=tuple(
                    factor * l0 for l0 in params.free_lengths))))
    return configs


def on_sample(params, k: int):
    """The mechanism rebuilt so that O2 = O1 at L = 3 and beta = 2 pi k /
    SAMPLES: O1 = M + w (3 + z_k p), the base axis through M, so E = M."""
    m = complex(params.surface_point.x, params.surface_point.y)
    p = complex(params.p_in_top.x, params.p_in_top.y)
    o1 = m + cmath.exp(1j * params.surface_angle) * (
        3 + cmath.exp(2j * math.pi * k / SAMPLES) * p)
    return dataclasses.replace(params, base_origin=Point2(o1.real, o1.imag),
                               base_angle=cmath.phase(m - o1))


def circle_configs() -> list[RunConfig]:
    mechanisms = [load_config(ROOT / inputs.REFERENCE_ONE).params,
                  *inputs.one_nonzero_mechanisms(CIRCLE_MECHANISMS)]
    return [RunConfig(params=on_sample(params, k))
            for k in CIRCLE_SAMPLES for params in mechanisms]


def analyses(name: str, configs):
    """(index, report, warning categories) of each config of a set in
    order. A solve that raises a MechanismError prints its error line and
    gives report None."""
    for index, config in enumerate(configs):
        report = None
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            try:
                report = run_analysis(config)
            except MechanismError as exc:
                print(f"# error {name} {index} {type(exc).__name__}: {exc}")
        yield index, report, [w.category.__name__ for w in log]


def rotated(params):
    """params turned by pi about the origin: points negated, angles + pi."""
    return dataclasses.replace(
        params, surface_point=-1.0 * params.surface_point,
        base_origin=-1.0 * params.base_origin,
        surface_angle=params.surface_angle + math.pi,
        base_angle=params.base_angle + math.pi)


def mirrored(params):
    """params mirrored in the x axis: y and angles negated, the pin's
    top-frame y too, so beta becomes -beta."""
    def flip(point):
        return Point2(point.x, -point.y)

    return dataclasses.replace(
        params, surface_point=flip(params.surface_point),
        base_origin=flip(params.base_origin), p_in_top=flip(params.p_in_top),
        surface_angle=-params.surface_angle, base_angle=-params.base_angle)


def translated(params):
    """params shifted by INVARIANCE_SHIFT."""
    shift = Point2(*INVARIANCE_SHIFT)
    return dataclasses.replace(
        params, surface_point=params.surface_point + shift,
        base_origin=params.base_origin + shift)


def turned(params):
    """params turned by TURN_ANGLE about the origin."""
    c, s = math.cos(TURN_ANGLE), math.sin(TURN_ANGLE)

    def turn(point):
        return Point2(c * point.x - s * point.y, s * point.x + c * point.y)

    return dataclasses.replace(
        params, surface_point=turn(params.surface_point),
        base_origin=turn(params.base_origin),
        surface_angle=params.surface_angle + TURN_ANGLE,
        base_angle=params.base_angle + TURN_ANGLE)


TRANSFORMS = (rotated, mirrored, translated, turned)


def invariance_mechanisms():
    """The untransformed mechanisms of the invariance set."""
    return [load_config(ROOT / inputs.REFERENCE_ONE).params,
            *inputs.one_nonzero_mechanisms(MECHANISMS_2026)]


def _ledger(report):
    """A solve's count of rows per (accepted, real, note), or None."""
    if report is None:
        return None
    return Counter((row.accepted, row.is_real, row.note)
                   for row in report.solutions)


def invariants(report) -> tuple[int, int, int]:
    """A solve's count of rows flagged real whose beta or L has a nonzero
    imaginary part, of complex rows with finite beta and L, and of those
    with no other row at exactly their conjugate point."""
    if report is None:
        return 0, 0, 0
    inexact = sum(row.is_real and (row.beta.imag != 0 or row.length.imag != 0)
                  for row in report.solutions)
    points = Counter((row.beta, row.length) for row in report.solutions
                     if not row.is_real and cmath.isfinite(row.beta)
                     and cmath.isfinite(row.length))
    unpaired = 0
    for point, count in points.items():
        conjugate = tuple(value.conjugate() for value in point)
        # a point that is its own conjugate needs a second row there
        if points[conjugate] <= (conjugate == point):
            unpaired += count
    return inexact, sum(points.values()), unpaired


def invariance_summary(ledgers, lost_roots) -> str:
    """Per transform, the count of solves whose class counts differ from
    the untransformed solve's, and of their LostRoots warnings; ledgers
    and lost_roots hold the invariance set's solves in order."""
    originals = [_ledger(report) for _, report, _ in analyses(
        "invariance-original", [RunConfig(params=params)
                                for params in invariance_mechanisms()])]
    count = len(originals)
    parts = []
    for k, transform in enumerate(TRANSFORMS):
        solves = slice(k * count, (k + 1) * count)
        changed = sum(a != b for a, b in zip(ledgers[solves], originals))
        parts.append(f"{transform.__name__} {changed} changed, "
                     f"{sum(lost_roots[solves])} LostRoots")
    return "# invariance: " + "; ".join(parts)


def read_dump(path) -> tuple[dict, dict, dict]:
    """Every row of every solve of a dump as (beta, L, accepted,
    rel_residual, note), its count of rows per (accepted, real, note), and
    the error of every failed solve, all keyed by (set, index)."""
    solves: dict = {}
    classes: dict = {}
    errors: dict = {}
    for line in Path(path).read_text().splitlines():
        if error := _ERROR.match(line):
            errors[error[1], int(error[2])] = error[3]
        elif header := _SOLVE.match(line):
            key = (header[1], int(header[2]))
            solves[key], classes[key] = [], Counter()
        elif row := _ROW.search(line):
            accepted, note = row[5] == "True", ast.literal_eval(row[6])
            classes[key][accepted, row[4] == "True", note] += 1
            solves[key].append((complex(row[1]), complex(row[2]), accepted,
                                float(row[3]), note))
    return solves, classes, errors


def _gap(beta, length, row) -> float:
    """Distance from (beta, L) to a row's point, relative to its size."""
    return ((abs(beta - row[0]) + abs(length - row[1]))
            / (1 + abs(beta) + abs(length)))


def _row_at(rows, beta, length):
    """The row of rows nearest to (beta, L) within MATCH_REL_TOL, or None."""
    near = [row for row in rows if _gap(beta, length, row) <= MATCH_REL_TOL]
    return min(near, key=lambda row: _gap(beta, length, row), default=None)


def _describe(row, side: str) -> str:
    if row is None:
        return f"no row in {side}"
    return (f"{side}: accepted={row[2]}, note={row[4]!r}, "
            f"rel_residual={row[3]:.2e}")


def compare(before_path, after_path) -> int:
    (before, before_classes, before_errors), (
        after, after_classes, after_errors) = (
        read_dump(before_path), read_dump(after_path))
    for name in dict.fromkeys(name for name, _ in (
            before | after | before_errors | after_errors)):
        counts = [sum(row[2] for (set_name, _), rows in dump.items()
                      if set_name == name for row in rows)
                  for dump in (before, after)]
        failed = [sum(set_name == name for set_name, _ in errors)
                  for errors in (before_errors, after_errors)]
        print(f"# {name}: {counts[0]} accepted before, {counts[1]} after; "
              f"{failed[0]} errors before, {failed[1]} after")
    one_sided = before_errors.keys() ^ after_errors.keys()
    for key in sorted(one_sided):
        side, error = (("before", before_errors[key]) if key in before_errors
                       else ("after", after_errors[key]))
        print(f"fails in {side} only: {key[0]} {key[1]} {error}")
    reclassified = lost = worst = 0
    for key in sorted((before.keys() | after.keys()) - one_sided):
        old, new = before.get(key, []), after.get(key, [])
        unmatched = [row for row in new if row[2]]
        for beta, length, *_ in (row for row in old if row[2]):
            match = _row_at(unmatched, beta, length)
            if match is not None:
                worst = max(worst, _gap(beta, length, match))
                unmatched.remove(match)
                continue
            row = _row_at(new, beta, length)
            reclassified += row is not None
            lost += row is None
            print(f"missing in after: {key[0]} {key[1]} beta={beta} "
                  f"L={length}; {_describe(row, 'after')}")
        for beta, length, *_ in unmatched:
            print(f"new in after: {key[0]} {key[1]} beta={beta} L={length}; "
                  f"{_describe(_row_at(old, beta, length), 'before')}")
    changed = 0
    for key in sorted((before_classes.keys() | after_classes.keys())
                      - one_sided):
        old, new = before_classes.get(key), after_classes.get(key)
        if old != new:
            changed += 1
            print(f"classes changed: {key[0]} {key[1]} "
                  f"before {_classes(old)} after {_classes(new)}")
    missing = reclassified + lost
    print(f"# worst matched gap {worst:.2e}, {missing} missing "
          f"({reclassified} reclassified, {lost} lost), {changed} solves "
          f"with changed row classes, {len(one_sided)} solves failing in one "
          "dump only")
    return 1 if missing or changed or one_sided else 0


def _classes(counts) -> str:
    """(accepted, real, note): count pairs of one solve, or "absent"."""
    if counts is None:
        return "absent"
    return ", ".join(f"{key}: {n}" for key, n in sorted(counts.items()))


def digests(sets) -> int:
    """Print the sha256 of every report file each solve writes, the solves
    of a set written in turn into one directory."""
    files = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, configs in sets:
            out = Path(tmp) / name
            for index, report, _ in analyses(name, configs):
                if report is None:
                    continue
                for path in (emit_tables(report, out, ("json", "csv"))
                             + render_svg(report, out)):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {name}/{index} {path.name}")
                    files += 1
    print(f"# {files} files")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare the accepted roots of two dumps")
    parser.add_argument("--digests", action="store_true",
                        help="print the sha256 of every report file written")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    sets = [
        ("config", [load_config(ROOT / inputs.REFERENCE_ZERO),
                    load_config(ROOT / inputs.REFERENCE_ONE)]),
        ("seed-2026", [RunConfig(params=p) for p in
                       inputs.one_nonzero_mechanisms(MECHANISMS_2026)]),
        ("seed-777", [RunConfig(params=p) for p in
                      seed_777_mechanisms(MECHANISMS_777)]),
        ("zero-1", [RunConfig(params=p) for p in
                    inputs.zero_corpus(1, ZERO_MECHANISMS)]),
        ("small-l01", small_l01_configs()),
        ("scale", scale_configs()),
        ("circle", circle_configs()),
    ]
    if args.digests:
        return digests(sets)
    sets.append(("invariance", [
        RunConfig(params=transform(params)) for transform in TRANSFORMS
        for params in invariance_mechanisms()]))
    caught: Counter = Counter()
    for name, configs in sets:
        accepted = errors = 0
        ledgers, lost_roots = [], []
        totals = np.zeros(3, dtype=int)  # of invariants' counts
        for index, report, categories in analyses(name, configs):
            caught.update(categories)
            ledgers.append(_ledger(report))
            lost_roots.append(categories.count("LostRoots"))
            totals += invariants(report)
            if report is None:
                errors += 1
                continue
            print(f"# {name} {index}")
            for row in report.solutions:
                print(repr(row))
            accepted += report.counts["accepted"]
        print(f"# {name}: {accepted} accepted, {errors} errors")
        inexact, finite, unpaired = totals
        print(f"# {name} invariants: {inexact} real rows not exactly real, "
              f"{unpaired} of {finite} complex finite rows without an exact "
              "conjugate")
        if name == "invariance":
            print(invariance_summary(ledgers, lost_roots))
    for category, count in sorted(caught.items()):
        print(f"# warnings {category}: {count}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
