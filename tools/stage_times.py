"""Print the stage times of one operation as the benchmark runs it:
``load_config``, ``run_analysis``, the ``report.json`` and
``solutions.csv`` text, the SVG text, the five file writes and the whole
operation, for the committed one-nonzero config (reference-one) and for
the first SWEEP_ZERO_INPUTS inputs of the sweep-zero workload (the
committed zero config, then ``inputs.zero_corpus(SWEEP_ZERO_SEED, ·)``),
and the times of ``import spring_platform`` and of the first operation
after it, which every CLI run and every benchmark set-up pay once, and
the peak resident set size after that first operation; then the solve's
sub-stages (SUB_STAGES) on the same inputs::

    python3 tools/stage_times.py

Each figure is the median over REPEATS rounds of the time per operation,
in milliseconds, wall clock and process CPU time (user + sys), unscaled.
In each round every stage runs once over the inputs (reference-one:
REFERENCE_CALLS calls), the stages in turn. The two text stages run with
the output layer's write primitive, ``output._write``, stubbed out. The
writes are not timed in isolation: they are the whole operation minus the
same operation with the writes stubbed, both run in the same round into
the same output directory, so that they pay for rewriting the files the
operation wrote before. The import and the first operation after it are
timed inside REPEATS fresh interpreters per workload. The import is
timed after numpy's and json's, which the library does not control and
which vary by more than the library's own import from one interpreter
to the next. The operation runs on the workload's first input and writes
into a new directory; it is the part of a benchmark set-up timed after
the import. The peak RSS row is the median over the same interpreters
of the peak resident set size after the first operation, in MB (KiB /
1024, as the benchmark's ``peak_rss_mb``): it shows what an operation
pages in, per workload, without running the benchmark. It reads
``VmHWM`` from ``/proc/self/status`` (Linux), the peak of the
interpreter's own memory, not ``ru_maxrss``: a process keeps its
spawner's ``ru_maxrss`` through ``exec``, so in an interpreter this
script starts it reads this script's peak. The sub-stages are timed
inside the solve (``sub_stage_times``): the calls that bound them
(SOLVES), none of which runs inside another, mark the clocks as each
starts and returns, and every interval between two marks goes to one
sub-stage, so the rows add up to the solve as the marks see it. Their
last row is the whole solve without the marks, each solve run so just
before its marked run: the rows' sum exceeds it by the marks' cost, a
few per cent.

The script reads the ``src/`` and ``bench/`` directories next to it, so a
copy placed in another checkout measures that checkout. It takes under a
minute.
"""

from __future__ import annotations

import os

# the solves are single-threaded; BLAS pools would only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402
from spring_platform import (emit_tables, load_config,  # noqa: E402
                             output, render_svg, run_analysis, solver)
from spring_platform.solver import UnsquaredPair  # noqa: E402

SWEEP_ZERO_SEED = 1
SWEEP_ZERO_INPUTS = 100
REFERENCE_CALLS = 100
REPEATS = 9
STAGES = ("`load_config`", "`run_analysis` (the solve)",
          "`report.json` and `solutions.csv` text", "SVG text",
          "5 file writes", "whole operation")
SUB_STAGES = ("set-up: `free_length_case`, `point_e`, `UnsquaredPair`, `foot`",
              "`UnsquaredPair.tensors`",
              "eliminants, deflation and companion roots",
              "candidates: the starts of `newton`", "`newton`",
              "`_classify`", "ledger: `structural_rows` and `ledger`")
# per workload, the solve and the calls that bound its sub-stages, in the
# order the solve makes them, as (owner, name, sub-stage of the call,
# sub-stage of the solve's own code that runs just before it), and the
# sub-stage of the code after the last call. Both workloads run the one
# solve, and its free-length dispatch is part of the set-up. The zero case
# has no eliminant to deflate and no _classify: those rows hold its
# quartic and companion roots and its inline residuals.
SOLVES = {
    "reference-one": (
        lambda config: solver.solve_equilibria(config.params),
        ((UnsquaredPair, "tensors", 1, 0),
         (solver, "_known_points", 2, 1),
         (solver, "_eliminants", 2, 2),
         (solver, "_deflate", 2, 2),
         (solver, "companion_roots", 2, 2),
         (solver, "newton", 4, 3),
         (solver, "_classify", 5, 4),
         (solver, "structural_rows", 6, 6),
         (solver, "ledger", 6, 6)), 6),
    "sweep-zero": (
        lambda config: solver.solve_equilibria(config.params),
        ((UnsquaredPair, "tensors", 1, 0),
         (solver, "_quartic_roots", 2, 2),
         (solver, "newton", 4, 3),
         (solver, "structural_rows", 6, 5),
         (solver, "ledger", 6, 6)), 6),
}


@contextmanager
def writes_stubbed():
    """output._write returns its path and writes nothing."""
    write = output._write
    output._write = lambda path, text: path
    try:
        yield
    finally:
        output._write = write


def operation(path: Path, out: Path) -> None:
    """One operation as the benchmark and the CLI run it."""
    report = run_analysis(load_config(path))
    emit_tables(report, out, ("json", "csv"))
    render_svg(report, out)


def per_op(calls) -> tuple[float, float]:
    """(Wall, CPU) seconds per call of the zero-argument callables."""
    wall, cpu = time.perf_counter(), time.process_time()
    for call in calls:
        call()
    return ((time.perf_counter() - wall) / len(calls),
            (time.process_time() - cpu) / len(calls))


def stage_times(paths: list[Path], out: Path) -> list[tuple[float, float]]:
    """Median (wall, CPU) milliseconds per operation of each of STAGES."""
    configs = [load_config(path) for path in paths]
    reports = [run_analysis(config) for config in configs]
    operation(paths[0], out)
    rounds = []
    for _ in range(REPEATS):
        load = per_op([lambda p=p: load_config(p) for p in paths])
        solve = per_op([lambda c=c: run_analysis(c) for c in configs])
        ops = [lambda p=p: operation(p, out) for p in paths]
        with writes_stubbed():
            tables = per_op([lambda r=r: emit_tables(r, out, ("json", "csv"))
                             for r in reports])
            svg = per_op([lambda r=r: render_svg(r, out) for r in reports])
            stubbed = per_op(ops)
        whole = per_op(ops)
        writes = tuple(w - s for w, s in zip(whole, stubbed))
        rounds.append((load, solve, tables, svg, writes, whole))
    return [tuple(1e3 * statistics.median(r[k][clock] for r in rounds)
                  for clock in (0, 1)) for k in range(len(STAGES))]


@contextmanager
def patched(bounds, make):
    """Each bounding callable replaced by make(its original, its bound)."""
    originals = [(owner, name, getattr(owner, name))
                 for owner, name, _, _ in bounds]
    for bound, (owner, name, function) in zip(bounds, originals):
        setattr(owner, name, make(function, bound))
    try:
        yield
    finally:
        for owner, name, function in originals:
            setattr(owner, name, function)


def sub_stage_times(workload: str, paths: list[Path],
                    ) -> list[tuple[float, float]]:
    """Median (wall, CPU) milliseconds per solve of each of SUB_STAGES,
    then of the whole solve, uncut.

    The sub-stages are timed where the solve runs them. Each bounding
    call is wrapped to mark the clocks when it starts, for the sub-stage
    of the solve's code before it, and when it returns, for its own; the
    solve's return marks the tail. Each interval between two marks goes
    to the sub-stage of the mark that closes it, so the rows add up to the
    wrapped solve. That holds while no bounding call runs inside another:
    the outer call's code before the inner one would go to the inner one's
    code-before row. Each solve also runs unwrapped just before, for the
    last row, so that both see the same load on the host; the rows' sum
    exceeds it by the cost of the marks."""
    solve, bounds, tail = SOLVES[workload]
    configs = [load_config(path) for path in paths]
    marks = []

    def mark(row):
        marks.append((row, time.perf_counter(), time.process_time()))

    def timed(function, bound):
        def call(*args, **kwargs):
            mark(bound[3])
            result = function(*args, **kwargs)
            mark(bound[2])
            return result
        return call

    rounds = []
    for _ in range(REPEATS):
        marks.clear()
        for config in configs:
            mark(None)
            solve(config)
            mark(len(SUB_STAGES))  # the whole solve, uncut
            with patched(bounds, timed):
                mark(None)
                solve(config)
                mark(tail)
        totals = np.zeros((len(SUB_STAGES) + 1, 2))
        for (_, wall, cpu), (row, wall_end, cpu_end) in zip(marks, marks[1:]):
            if row is not None:  # None closes the gap between two solves
                totals[row] += wall_end - wall, cpu_end - cpu
        rounds.append(1e3 * totals / len(configs))
    return [tuple(row) for row in np.median(rounds, axis=0)]


# in a fresh interpreter, prints the wall and CPU seconds of the import
# (src directory argv[1]) and then of one operation on the config argv[2]
# into the new directory argv[3], and the peak RSS in MB after it
_FIRST = """\
import json, sys, time, warnings
import numpy
sys.path.insert(0, sys.argv[1])
w, c = time.perf_counter(), time.process_time()
import spring_platform as lib
w1, c1 = time.perf_counter(), time.process_time()
warnings.simplefilter("ignore")
report = lib.run_analysis(lib.load_config(sys.argv[2]))
lib.emit_tables(report, sys.argv[3], ("json", "csv"))
lib.render_svg(report, sys.argv[3])
with open("/proc/self/status") as status:
    peak = next(line for line in status if line.startswith("VmHWM:"))
print(w1 - w, c1 - c, time.perf_counter() - w1, time.process_time() - c1,
      int(peak.split()[1]) / 1024.0)
"""


def first_times(paths: list[Path], tmp: Path) -> list[list[float]]:
    """Per config of paths, the median (wall, CPU) milliseconds of the
    import and then of the first operation, and the median peak RSS in MB
    after it, over REPEATS fresh interpreters each, which take the configs
    in turn."""
    runs = [[] for _ in paths]
    for k in range(REPEATS):
        for i, path in enumerate(paths):
            runs[i].append(tuple(map(float, subprocess.run(
                [sys.executable, "-c", _FIRST, str(ROOT / "src"), str(path),
                 str(tmp / f"first-{i}-{k}")], check=True,
                capture_output=True, text=True).stdout.split())))
    return [[1e3 * statistics.median(run[j] for run in column)
             for j in range(4)] + [statistics.median(run[4] for run in column)]
            for column in runs]


def main() -> int:
    print(f"# Python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} CPUs, {platform.machine()}; {ROOT}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        zero = [ROOT / inputs.REFERENCE_ZERO] + inputs.write_configs(
            inputs.zero_corpus(SWEEP_ZERO_SEED, SWEEP_ZERO_INPUTS - 1),
            tmp / "configs")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = [ROOT / inputs.REFERENCE_ONE] * REFERENCE_CALLS
            columns = [stage_times(reference, tmp / "reference-one"),
                       stage_times(zero, tmp / "sweep-zero")]
            sub_columns = [sub_stage_times("reference-one", reference),
                           sub_stage_times("sweep-zero", zero)]
        first = first_times([ROOT / inputs.REFERENCE_ONE, zero[0]], tmp)
    print("| stage | reference-one | CPU | sweep-zero | CPU |")
    print("|---|---:|---:|---:|---:|")
    for k, stage in enumerate(STAGES):
        cells = [f"{t:.2f}" for column in columns for t in column[k]]
        print(f"| {stage} | " + " | ".join(cells) + " |")
    for j, stage in ((0, "`import spring_platform` after numpy"),
                     (2, "first operation after it")):
        cells = [f"{t:.2f}" for column in first for t in column[j:j + 2]]
        print(f"| {stage} (once per process) | " + " | ".join(cells) + " |")
    cells = [cell for column in first for cell in (f"{column[4]:.2f} MB", "")]
    print("| peak RSS after the first operation (once per process) | "
          + " | ".join(cells) + " |")
    print()
    print("| solve sub-stage | reference-one | CPU | sweep-zero | CPU |")
    print("|---|---:|---:|---:|---:|")
    for k, stage in enumerate(SUB_STAGES + ("whole solve, uncut",)):
        cells = [f"{t:.3f}" for column in sub_columns for t in column[k]]
        print(f"| {stage} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
