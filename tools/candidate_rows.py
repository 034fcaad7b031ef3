"""Print every candidate row of a fixed set of solves: a before/after
dump for comparing two versions of the solvers, or of their report files.

Solves both committed configs, the first 40 mechanisms of
``bench/inputs.one_nonzero_mechanisms`` (seed 2026), 160 mechanisms drawn
from ``numpy.random.default_rng(777)`` (L01 ~ U(0.2, 2) first, then
``inputs.random_mechanism``), the first ZERO_MECHANISMS all-zero
mechanisms of ``inputs.zero_corpus(1, ·)`` and, at each L01 of SMALL_L01,
the committed one-nonzero config and the first SMALL_L01_MECHANISMS
mechanisms of ``inputs.one_nonzero_mechanisms`` with their L01 set to it
(the small-l01 set, below the corpora's 0.2). It prints one ``repr`` line
per candidate row, an accepted count per set, and the warnings of all
solves counted by category. Dump the version before a change and the one
after it, then compare the two dumps::

    python3 tools/candidate_rows.py > after.txt
    python3 tools/candidate_rows.py --compare before.txt after.txt

The comparison matches the accepted roots of each solve as sets, to
MATCH_REL_TOL relative, since a change of rounding moves every residual
and a byte diff then shows nothing. For the same reason it compares, per
solve, the count of rows of each class (accepted, real, note), which
shows a row that changed its class. It prints the accepted count of each
set in both dumps, every unmatched root, every solve whose class counts
changed and the worst matched gap, and exits 1 when an accepted root of
the first dump has no match in the second or a solve's class counts
changed.

``--digests`` prints the report files instead of the rows. For each solve
of the corpus above it writes the files the CLI writes
(``solutions.csv``, ``report.json`` and the SVG drawings) into a temporary
directory and prints one ``sha256  <solve> <file>`` line per file, then
the file count. A plain ``diff`` of the dumps of two versions is the
byte-identity check of the output layer::

    python3 tools/candidate_rows.py --digests > after.txt
    diff before.txt after.txt

The script reads the ``src/`` and ``bench/`` directories next to it, so a
copy placed in another checkout reports that checkout. It takes a few
seconds.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
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
from spring_platform import (RunConfig, emit_tables, load_config,  # noqa: E402
                             render_svg, run_analysis)

MECHANISMS_2026 = 40
MECHANISMS_777 = 160
ZERO_MECHANISMS = 100
SMALL_L01 = (1e-2, 1e-3)
SMALL_L01_MECHANISMS = 8
MATCH_REL_TOL = 1e-8         # on |d beta| + |d L| over 1 + |beta| + |L|

_SOLVE = re.compile(r"# (\S+) (\d+)$")
_ROW = re.compile(r"beta=([^,]+), length=([^,]+),.* is_real=(True|False), "
                  r"accepted=(True|False),.* note=(.*)\)$")


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


def read_dump(path) -> tuple[dict, dict]:
    """Accepted (beta, L) of every solve of a dump, and its count of rows
    per (accepted, real, note), both keyed by (set, index)."""
    solves: dict = {}
    classes: dict = {}
    for line in Path(path).read_text().splitlines():
        if header := _SOLVE.match(line):
            key = (header[1], int(header[2]))
            solves[key], classes[key] = [], Counter()
        elif row := _ROW.search(line):
            classes[key][row[4] == "True", row[3] == "True",
                         ast.literal_eval(row[5])] += 1
            if row[4] == "True":
                solves[key].append((complex(row[1]), complex(row[2])))
    return solves, classes


def compare(before_path, after_path) -> int:
    (before, before_classes), (after, after_classes) = (
        read_dump(before_path), read_dump(after_path))
    for name in dict.fromkeys(name for name, _ in before | after):
        counts = [sum(len(points) for (set_name, _), points in dump.items()
                      if set_name == name) for dump in (before, after)]
        print(f"# {name}: {counts[0]} accepted before, {counts[1]} after")
    missing = worst = 0
    for key in sorted(before.keys() | after.keys()):
        unmatched = list(after.get(key, []))
        for beta, length in before.get(key, []):
            gaps = [(abs(beta - b) + abs(length - l))
                    / (1 + abs(beta) + abs(length)) for b, l in unmatched]
            best = min(range(len(gaps)), key=gaps.__getitem__, default=None)
            if best is not None and gaps[best] <= MATCH_REL_TOL:
                worst = max(worst, gaps[best])
                del unmatched[best]
            else:
                missing += 1
                print(f"missing in after: {key[0]} {key[1]} beta={beta} "
                      f"L={length}")
        for beta, length in unmatched:
            print(f"new in after: {key[0]} {key[1]} beta={beta} L={length}")
    changed = 0
    for key in sorted(before_classes.keys() | after_classes.keys()):
        old, new = before_classes.get(key), after_classes.get(key)
        if old != new:
            changed += 1
            print(f"classes changed: {key[0]} {key[1]} "
                  f"before {_classes(old)} after {_classes(new)}")
    print(f"# worst matched gap {worst:.2e}, {missing} missing, "
          f"{changed} solves with changed row classes")
    return 1 if missing or changed else 0


def _classes(counts) -> str:
    """(accepted, real, note): count pairs of one solve, or "absent"."""
    if counts is None:
        return "absent"
    return ", ".join(f"{key}: {n}" for key, n in sorted(counts.items()))


def digests(sets) -> int:
    """Print the sha256 of every report file each solve writes."""
    files = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, configs in sets:
            for index, config in enumerate(configs):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    report = run_analysis(config)
                out = Path(tmp) / f"{name}-{index}"
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
    ]
    if args.digests:
        return digests(sets)
    caught: Counter = Counter()
    for name, configs in sets:
        accepted = 0
        for index, config in enumerate(configs):
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                report = run_analysis(config)
            caught.update(w.category.__name__ for w in log)
            print(f"# {name} {index}")
            for row in report.solutions:
                print(repr(row))
            accepted += report.counts["accepted"]
        print(f"# {name}: {accepted} accepted")
    for category, count in sorted(caught.items()):
        print(f"# warnings {category}: {count}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
