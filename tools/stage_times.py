"""Print the stage times of one operation as the benchmark runs it:
``load_config``, ``run_analysis``, the ``report.json`` and
``solutions.csv`` text, the SVG text, the five file writes and the whole
operation, for the committed one-nonzero config (reference-one) and for
the first SWEEP_ZERO_INPUTS inputs of the sweep-zero workload (the
committed zero config, then ``inputs.zero_corpus(SWEEP_ZERO_SEED, ·)``),
and the time of ``import spring_platform``, which every CLI run and
every benchmark set-up pays once::

    python3 tools/stage_times.py

Each figure is the median over REPEATS rounds of the time per operation,
in milliseconds, wall clock and process CPU time (user + sys), unscaled.
In each round every stage runs once over the inputs (reference-one:
REFERENCE_CALLS calls), the stages in turn. The two text stages run with
the output layer's write primitive, ``output._write``, stubbed out. The
writes are not timed in isolation: they are the whole operation minus the
same operation with the writes stubbed, both run in the same round into
the same output directory, so that they pay for rewriting the files the
operation wrote before. The import is timed inside each of REPEATS fresh
interpreters, numpy's import included, and its row repeats the one figure
in both columns.

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


# prints the wall and CPU seconds of the import in a fresh interpreter
_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
           "w, c = time.perf_counter(), time.process_time(); "
           "import spring_platform; "
           "print(time.perf_counter() - w, time.process_time() - c)")


def import_times() -> tuple[float, float]:
    """Median (wall, CPU) milliseconds of ``import spring_platform`` over
    REPEATS fresh interpreters."""
    runs = [tuple(map(float, subprocess.run(
        [sys.executable, "-c", _IMPORT, str(ROOT / "src")], check=True,
        capture_output=True, text=True).stdout.split()))
        for _ in range(REPEATS)]
    return tuple(1e3 * statistics.median(run[clock] for run in runs)
                 for clock in (0, 1))


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
    print("| stage | reference-one | CPU | sweep-zero | CPU |")
    print("|---|---:|---:|---:|---:|")
    for k, stage in enumerate(STAGES):
        cells = [f"{t:.2f}" for column in columns for t in column[k]]
        print(f"| {stage} | " + " | ".join(cells) + " |")
    cells = [f"{t:.2f}" for t in import_times()] * 2
    print("| `import spring_platform` (once per process) | "
          + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
