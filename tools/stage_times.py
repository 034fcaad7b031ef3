"""Print the stage times of one operation as the benchmark runs it:
``load_config``, ``run_analysis``, the ``report.json`` and
``solutions.csv`` text, the SVG text, the five file writes and the whole
operation, for the committed one-nonzero config (reference-one) and for
the first SWEEP_ZERO_INPUTS inputs of the sweep-zero workload (the
committed zero config, then ``inputs.zero_corpus(SWEEP_ZERO_SEED, ·)``),
and the times of ``import spring_platform`` and of the first operation
after it, which every CLI run and every benchmark set-up pay once, and
the peak resident set size after that first operation::

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
script starts it reads this script's peak.

The script reads the ``src/`` and ``bench/`` directories next to it, so a
copy placed in another checkout measures that checkout. It takes about a
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
                             output, render_svg, run_analysis)

SWEEP_ZERO_SEED = 1
SWEEP_ZERO_INPUTS = 100
REFERENCE_CALLS = 100
REPEATS = 9
STAGES = ("`load_config`", "`run_analysis` (the solve)",
          "`report.json` and `solutions.csv` text", "SVG text",
          "5 file writes", "whole operation")


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
            columns = [
                stage_times([ROOT / inputs.REFERENCE_ONE] * REFERENCE_CALLS,
                            tmp / "reference-one"),
                stage_times(zero, tmp / "sweep-zero")]
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
