"""Print the stage times of one operation as the benchmark runs it, timed
inside the operation: ``load_config``, the solve's sub-stages, the
``report.json`` and ``solutions.csv`` text, the SVG text and the file
writes (ROWS), for the committed one-nonzero config (reference-one) and
for the first SWEEP_ZERO_INPUTS inputs of the sweep-zero workload (the
committed zero config, then ``inputs.zero_corpus(SWEEP_ZERO_SEED, ·)``);
then the times of ``import spring_platform`` and of the first operation
after it, which every CLI run and every benchmark set-up pay once, and
the peak resident set size after that first operation::

    python3 tools/stage_times.py

An operation is ``load_config``, ``run_analysis``, ``emit_tables`` (json,
csv) and ``render_svg``, in the order of ``bench/run.py``'s
``Workload.run``. The calls that bound the rows (BOUNDS), none of which
runs inside another, mark the clocks as each starts and returns, and
every interval between two marks goes to one row, so the rows add up to
the operation as the marks see it. The output layer's marks are its
directory check, ``output._output_dir``, the first call of
``emit_tables`` and of ``render_svg``, and its write primitive,
``output._write``. Each operation also runs without the marks just
before its marked run, into the same output directory, for the "whole
operation, uncut" row: the rows' sum exceeds it by the marks' cost, a
few per cent.

Each figure is the median over REPEATS rounds of the time per operation,
in milliseconds, wall clock and process CPU time (user + sys), unscaled.
In each round every input runs once (reference-one: REFERENCE_CALLS
operations). The import and the first operation after it are timed
inside REPEATS fresh interpreters per workload. The import is timed
after numpy's and json's, which the library does not control and which
vary by more than the library's own import from one interpreter to the
next. The operation runs on the workload's first input and writes into
a new directory; it is the part of a benchmark set-up timed after the
import. The peak RSS row is the median over the same interpreters of
the peak resident set size after the first operation, in MB (KiB /
1024, as the benchmark's ``peak_rss_mb``): it shows what an operation
pages in, per workload, without running the benchmark. It reads
``VmHWM`` from ``/proc/self/status`` (Linux), the peak of the
interpreter's own memory, not ``ru_maxrss``: a process keeps its
spawner's ``ru_maxrss`` through ``exec``, so in an interpreter this
script starts it reads this script's peak.

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
import spring_platform as lib  # noqa: E402
from spring_platform import output, solver  # noqa: E402
from spring_platform.solver import UnsquaredPair  # noqa: E402

SWEEP_ZERO_SEED = 1
SWEEP_ZERO_INPUTS = 100
REFERENCE_CALLS = 100
REPEATS = 9
ROWS = ("`load_config`",
        "solve set-up: `free_length_case`, `UnsquaredPair`, `foot`",
        "`UnsquaredPair.tensors`",
        "eliminants, deflation and companion roots",
        "candidates: the starts of `newton`", "`newton`", "`_classify`",
        "ledger: `structural_rows`, `ledger`, the report's counts",
        "`report.json` and `solutions.csv` text",
        "SVG text and the stale-drawing scan",
        "file writes: `_write` and `_output_dir`")
LEDGER, WRITES = 7, 10
WRITER = "writer"  # as the row before a call: see OUTPUT
# per workload, the calls that bound the solve's sub-stages, in the order
# the solve makes them, as (owner, name, row of the call, row of the
# operation's own code that runs just before it). Both workloads run the
# one solve, and its free-length dispatch is part of the set-up. The zero
# case has no eliminant to deflate and no _classify: those rows hold its
# quartic and its roots and its inline residuals.
SOLVES = {
    "reference-one": (
        (UnsquaredPair, "tensors", 2, 1),
        (solver, "_known_points", 3, 2),
        (solver, "_eliminants", 3, 3),
        (solver, "_deflate", 3, 3),
        (solver, "_companion_roots", 3, 3),
        (solver, "newton", 5, 4),
        (solver, "_classify", 6, 5),
        (solver, "structural_rows", 7, 7),
        (solver, "ledger", 7, 7)),
    "sweep-zero": (
        (UnsquaredPair, "tensors", 2, 1),
        (solver, "_quartic_roots", 3, 3),
        (solver, "newton", 5, 4),
        (solver, "structural_rows", 7, 6),
        (solver, "ledger", 7, 7)),
}
# the output layer's bounds. The code before each goes to the row of the
# writer running: the ledger row until the first _output_dir call returns
# (the rest of run_analysis), then each _output_dir call opens the next
# row, the table text and then the SVG text, which also takes the code
# after the last call
OUTPUT = ((output, "_output_dir", WRITES, WRITER),
          (output, "_write", WRITES, WRITER))
BOUNDS = {workload: ((lib, "load_config", 0, 0),) + solve + OUTPUT
          for workload, solve in SOLVES.items()}


def operation(path: Path, out: Path) -> None:
    """One operation as the benchmark and the CLI run it."""
    report = lib.run_analysis(lib.load_config(path))
    lib.emit_tables(report, out, ("json", "csv"))
    lib.render_svg(report, out)


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


def operation_times(workload: str, paths: list[Path], out: Path,
                    ) -> list[tuple[float, float]]:
    """Median (wall, CPU) milliseconds per operation of each of ROWS,
    then of the whole operation, uncut.

    Each bounding call is wrapped to mark the clocks when it starts, for
    the row of the operation's code before it, and when it returns, for
    its own; the operation's return marks the tail. Each interval between
    two marks goes to the row of the mark that closes it, so the rows add
    up to the wrapped operation. That holds while no bounding call runs
    inside another: the outer call's code before the inner one would go
    to the inner one's code-before row."""
    marks = []
    writer = LEDGER

    def mark(row):
        marks.append((row, time.perf_counter(), time.process_time()))

    def timed(function, bound):
        _, name, row, before = bound

        def call(*args, **kwargs):
            nonlocal writer
            mark(writer if before == WRITER else before)
            result = function(*args, **kwargs)
            mark(row)
            if name == "_output_dir":
                writer += 1
            return result
        return call

    rounds = []
    for _ in range(REPEATS):
        marks.clear()
        for path in paths:
            mark(None)
            operation(path, out)
            mark(len(ROWS))  # the whole operation, uncut
            writer = LEDGER
            with patched(BOUNDS[workload], timed):
                mark(None)
                operation(path, out)
                mark(writer)
        totals = np.zeros((len(ROWS) + 1, 2))
        for (_, wall, cpu), (row, wall_end, cpu_end) in zip(marks, marks[1:]):
            if row is not None:  # None closes the gap between two runs
                totals[row] += wall_end - wall, cpu_end - cpu
        rounds.append(1e3 * totals / len(paths))
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
            columns = [operation_times("reference-one", reference,
                                       tmp / "reference-one"),
                       operation_times("sweep-zero", zero, tmp / "sweep-zero")]
        first = first_times([ROOT / inputs.REFERENCE_ONE, zero[0]], tmp)
    print("| stage | reference-one | CPU | sweep-zero | CPU |")
    print("|---|---:|---:|---:|---:|")
    for column in columns:
        column.insert(len(ROWS), tuple(map(sum, zip(*column[:len(ROWS)]))))
    for k, stage in enumerate(ROWS + ("the rows' sum: the marked operation",
                                      "whole operation, uncut")):
        cells = [f"{t:.3f}" for column in columns for t in column[k]]
        print(f"| {stage} | " + " | ".join(cells) + " |")
    for j, stage in ((0, "`import spring_platform` after numpy"),
                     (2, "first operation after it")):
        cells = [f"{t:.2f}" for column in first for t in column[j:j + 2]]
        print(f"| {stage} (once per process) | " + " | ".join(cells) + " |")
    cells = [cell for column in first for cell in (f"{column[4]:.2f} MB", "")]
    print("| peak RSS after the first operation (once per process) | "
          + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
