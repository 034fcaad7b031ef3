"""Benchmark of the spring_platform library: one closed-loop caller runs a
workload for a fixed time and reports end-to-end metrics, or, with
``--trace 1``, per-layer metrics from the outside-in tracer.

Run from the repository root::

    python3 bench/run.py --workload reference-one --seed 1 --seconds 25 --trace 0

Workloads (the next operation starts when the last one ends; each
operation runs as the CLI does: load_config, run_analysis, emit_tables
json+csv, render_svg):

- ``reference-one``: the committed one-nonzero configuration. The paper's
  own case; it shows elimination cost and the refinement and rescue work
  that changes nothing on this input. The seed does not change this input.
- ``sweep-zero``: the committed zero configuration plus 299 seeded
  zero-free-length configurations, written to JSON at set-up. The solve
  is ~1 ms, so configuration, output and the degree-4 path of poly_roots
  dominate.

There is no seeded one-nonzero corpus among the workloads: on about one
random mechanism in twenty (mechanisms 8 and 34 of ``baseline.py``'s
corpus) the solver accepts a root of NaN length, which the checks count as
a failed operation.

A run repeats whole passes over its inputs, at least two so that every
input is solved twice and its report compared byte for byte, and stops at
the pass boundary nearest to ``--seconds``. Every accepted root is checked
by the benchmark's own residuals (``checks.py``); an operation fails when
it raises or when its output fails a check, and ``correct`` is true only
when no operation failed.

End-to-end metrics (``--trace 0``): ``setup_s`` (median of five set-ups:
import, inputs, one warm-up op; four in fresh processes),
``latency_p50_s`` and ``latency_tail_s`` (Harrell-Davis quantiles of the
per-op latencies; the tail percentile is fixed per workload),
``throughput_ops`` (ops per busy second), ``cpu_per_op_s``, the recall
counts ``accepted_roots`` and ``accepted_real`` per pass, and
``peak_rss_mb``. Times are scaled to a nominal machine speed by the
yardstick samples taken around each op (``yardstick.py``); the unscaled
values are printed on the line before the result. Per-layer metrics
(``--trace 1``) come from the outside-in tracer (``tracer.py``) on every
other pass and are per traced op.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it describe
the environment and the run.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP pools before numpy loads: the solves are
# single-threaded and pool start-up would only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"

WORKLOADS = ("reference-one", "sweep-zero")
SWEEP_ZERO_SIZE = 300        # files written at set-up; 1000 made set-up disk-bound
SCANNED_ZERO_INPUTS = 3      # sweep-zero inputs re-solved by the real scan
SETUP_REPEATS = 5            # this process plus four fresh ones
MIN_PASSES = 2
YARDSTICK_INTERVAL_S = 0.1   # op time between two yardstick samples
SETUP_YARDSTICK_SAMPLES = 5
# fixed tail percentile per workload: at least 10 samples lie beyond it in
# a 25 s run of the library as it was when this benchmark was defined
# (45-60 and 4000-6000 ops), and faster code only adds samples. The
# 11th-largest sample would move with the op count and, on sweep-zero,
# measure rare stalls of the host's disk rather than the library.
TAIL_PERCENTILE = {"reference-one": 75.0, "sweep-zero": 95.0}
KNOWN_WARNINGS = ("InterpolationNoise", "DegreeMismatch",
                  "IllConditionedBackSub")

# functions wrapped by the tracer, as <module>.<function>
TRACE_TARGETS = (
    "config.load_config",
    "free_pose.free_pose",
    "mechanism.point_e",
    "mechanism.pose_from_trig",
    "analysis.run_analysis",
    "zero_free_lengths.solve_zero_free_lengths",
    "zero_free_lengths.linearize",
    "zero_free_lengths.quartic_coefficients",
    "one_nonzero.solve_one_nonzero_free_length",
    "one_nonzero.resultant_polynomial",
    "one_nonzero.quartic_pair",
    "one_nonzero.quartic_pair_at",
    "polynomials.polymatrix_det",
    "polynomials.poly_roots",
    "polynomials.back_substitute",
    "solutions.pair_conjugates",
    "solutions.sort_solutions",
    "output.emit_tables",
    "output.render_svg",
)

# per-layer metrics of a traced run, all per traced operation
PER_LAYER = (
    ("one_nonzero.solve_one_nonzero_free_length.self_s", "s/op"),
    ("one_nonzero.resultant_polynomial.self_s", "s/op"),
    ("one_nonzero.resultant_polynomial.total_s", "s/op"),
    ("polynomials.polymatrix_det.total_s", "s/op"),
    ("polynomials.polymatrix_det.calls", "count/op"),
    ("one_nonzero.quartic_pair.calls", "count/op"),
    ("one_nonzero.quartic_pair.total_s", "s/op"),
    ("polynomials.poly_roots.calls", "count/op"),
    ("polynomials.poly_roots.total_s", "s/op"),
    ("polynomials.back_substitute.calls", "count/op"),
    ("polynomials.back_substitute.self_s", "s/op"),
    ("polynomials.back_substitute.fallback", "count/op"),
    ("one_nonzero.quartic_pair_at.calls", "count/op"),
    ("mechanism.pose_from_trig.calls", "count/op"),
    ("one_nonzero.accept_ratio", "ratio"),
    ("one_nonzero.candidates", "count/op"),
    ("one_nonzero.degree_mismatch", "count/op"),
    ("unresolved_candidates", "count/op"),
    ("warnings.InterpolationNoise", "count/op"),
    ("warnings.DegreeMismatch", "count/op"),
    ("warnings.IllConditionedBackSub", "count/op"),
    ("warnings.other", "count/op"),
    ("zero_free_lengths.solve_zero_free_lengths.self_s", "s/op"),
    ("zero_free_lengths.linearize.total_s", "s/op"),
    ("zero_free_lengths.quartic_coefficients.total_s", "s/op"),
    ("config.load_config.total_s", "s/op"),
    ("free_pose.free_pose.total_s", "s/op"),
    ("free_pose.free_pose.not_assemblable", "count/op"),
    ("mechanism.point_e.total_s", "s/op"),
    ("analysis.run_analysis.self_s", "s/op"),
    ("solutions.pair_conjugates.total_s", "s/op"),
    ("solutions.sort_solutions.total_s", "s/op"),
    ("output.emit_tables.total_s", "s/op"),
    ("output.render_svg.total_s", "s/op"),
    ("output.bytes_written", "B/op"),
    ("trace.overhead_s", "s/op"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh process and print it
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Workload:
    """Inputs of one workload and the operation run on each."""

    def __init__(self, name: str, seed: int, work: Path):
        import inputs
        import spring_platform

        self.lib = spring_platform
        self.out = work / "out"
        if name == "reference-one":
            self.items = [ROOT / inputs.REFERENCE_ONE]
        else:
            written = inputs.write_configs(
                inputs.zero_corpus(seed, SWEEP_ZERO_SIZE - 1), work / "configs")
            self.items = [ROOT / inputs.REFERENCE_ZERO] + written

    def run(self, i: int):
        """The timed operation on input i; returns the analysis report."""
        lib = self.lib
        config = lib.load_config(self.items[i])
        report = lib.run_analysis(config)
        lib.emit_tables(report, self.out, ("json", "csv"))
        lib.render_svg(report, self.out)
        return report

    def report_bytes(self) -> bytes:
        """report.json as the last operation wrote it."""
        return (self.out / "report.json").read_bytes()


def speed_scale(yardstick_samples) -> float:
    """Factor that scales a time measured next to these yardstick samples
    to the nominal machine speed."""
    import yardstick

    return yardstick.NOMINAL_S / statistics.fmean(yardstick_samples)


def set_up(name: str, seed: int, work: Path):
    """Import, build the inputs and run one warm-up operation; returns the
    workload and (seconds it took, the same scaled to nominal speed)."""
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = Workload(name, seed, work)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        workload.run(0)
    elapsed = time.perf_counter() - start
    import yardstick

    yardstick.measure()  # first-call costs stay out of the samples
    scale = speed_scale([yardstick.measure()
                         for _ in range(SETUP_YARDSTICK_SAMPLES)])
    return workload, (elapsed, elapsed * scale)


def setup_in_fresh_process(name: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    raw, scaled = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    return raw, scaled


def unresolved(report) -> int:
    return sum(1 for s in report.solutions
               if "not converged" in s.note or not math.isfinite(s.rel_residual))


class Ledger:
    """Per-input results: first-pass counts, check verdicts and report
    digests, against which every later pass is compared."""

    def __init__(self, n: int):
        self.counts = [None] * n
        self.digest = [None] * n
        self.ops = [0] * n
        self.problems: dict[int, list[str]] = {}
        self.worst_residual = 0.0

    def bad(self, i: int, message: str) -> None:
        self.problems.setdefault(i, []).append(message)

    def record(self, workload: Workload, i: int, report) -> None:
        import checks

        counts = (report.counts["accepted"], report.counts["real"],
                  unresolved(report))
        digest = hashlib.sha256(workload.report_bytes()).hexdigest()
        if self.counts[i] is None:
            self.counts[i], self.digest[i] = counts, digest
            params = report.config.params
            worst, problems = checks.verify_accepted(params, report.solutions)
            self.worst_residual = max(self.worst_residual, worst)
            for message in problems + checks.conjugate_problems(report.solutions):
                self.bad(i, message)
            return
        if counts != self.counts[i]:
            self.bad(i, f"counts {counts} differ from first pass {self.counts[i]}")
        if digest != self.digest[i]:
            self.bad(i, "report.json differs from the first pass")

    def failed(self) -> int:
        """Ops on inputs whose output raised or failed a check."""
        return sum(self.ops[i] for i in self.problems)

    def per_pass(self, column: int) -> int:
        return sum(c[column] for c in self.counts if c is not None)


@dataclass
class RunResult:
    samples: list          # (input index, seconds, traced, yardstick index)
    busy_wall: float       # loop seconds without the benchmark's own work
    busy_cpu: float
    ledger: Ledger
    passes: int
    yardstick: list        # yardstick seconds sampled between ops
    warnings: Counter      # by category, all ops
    traced_warnings: Counter
    traced_unresolved: int
    peak_rss_mb: float     # at the end of the loop, before post-processing

    def scaled(self, traced: bool | None = None):
        """(input index, seconds scaled to nominal speed, raw seconds) of
        each op; an op is scaled by the yardstick samples around it."""
        out = []
        for i, seconds, was_traced, k in self.samples:
            if traced is None or was_traced == traced:
                scale = speed_scale(self.yardstick[k:k + 2])
                out.append((i, seconds * scale, seconds))
        return out

    def mean_scale(self, traced: bool | None = None) -> float:
        ops = self.scaled(traced)
        return sum(s for _, s, _ in ops) / sum(r for _, _, r in ops)


def run_passes(workload: Workload, seconds: float, tracer=None) -> RunResult:
    """Closed loop over whole passes, ending at the pass boundary nearest
    to ``seconds`` after at least MIN_PASSES. With a tracer, even passes
    are traced and odd ones are not."""
    import yardstick

    n = len(workload.items)
    ledger = Ledger(n)
    samples = []
    yard = []
    traced_warnings = Counter()
    all_warnings = Counter()
    traced_unresolved = 0
    check_wall = check_cpu = 0.0
    yardstick.measure()  # first-call costs stay out of the samples
    wall0, cpu0 = time.perf_counter(), time.process_time()
    since_yard = math.inf
    passes = 0
    while True:
        traced = tracer is not None and passes % 2 == 0
        for i in range(n):
            if since_yard >= YARDSTICK_INTERVAL_S:
                c_wall, c_cpu = time.perf_counter(), time.process_time()
                yard.append(yardstick.measure())
                since_yard = 0.0
                check_wall += time.perf_counter() - c_wall
                check_cpu += time.process_time() - c_cpu
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if traced:
                    tracer.install()
                start = time.perf_counter_ns()
                try:
                    report = workload.run(i)
                except Exception as exc:
                    report = None
                    error = exc
                elapsed = (time.perf_counter_ns() - start) * 1e-9
                if traced:
                    tracer.uninstall()
            since_yard += elapsed
            c_wall, c_cpu = time.perf_counter(), time.process_time()
            ledger.ops[i] += 1
            kinds = Counter(w.category.__name__ for w in caught)
            all_warnings.update(kinds)
            if report is None:
                ledger.bad(i, f"raised {error!r}")
            else:
                samples.append((i, elapsed, traced, len(yard) - 1))
                if traced:
                    traced_warnings.update(kinds)
                    traced_unresolved += unresolved(report)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    ledger.record(workload, i, report)
            check_wall += time.perf_counter() - c_wall
            check_cpu += time.process_time() - c_cpu
        passes += 1
        elapsed = time.perf_counter() - wall0
        if passes >= MIN_PASSES and elapsed + 0.5 * elapsed / passes >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    c_wall, c_cpu = time.perf_counter(), time.process_time()
    yard.append(yardstick.measure())
    check_wall += time.perf_counter() - c_wall
    check_cpu += time.process_time() - c_cpu
    return RunResult(samples, time.perf_counter() - wall0 - check_wall,
                     time.process_time() - cpu0 - check_cpu, ledger, passes,
                     yard, all_warnings, traced_warnings, traced_unresolved,
                     peak_rss_mb)


def scan_zero_inputs(workload: Workload, ledger: Ledger) -> None:
    """Real-root scan of a fixed subset of sweep-zero, outside the loop."""
    import checks

    for i in range(min(SCANNED_ZERO_INPUTS, len(workload.items))):
        config = workload.lib.load_config(workload.items[i])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = workload.lib.run_analysis(config)
        for message in checks.scan_problems(config.params, report.solutions):
            ledger.bad(i, message)


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of
    all order statistics. Unlike a single order statistic it does not jump
    between the costs of neighbouring inputs when a few of them shift."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n,
                      np.concatenate(([0.0], grid)), cdf)
    edges[-1] = 1.0
    return float(np.diff(edges) @ x)


def end_to_end(workload_name: str, run: RunResult, setups):
    """End-to-end metrics; times are scaled to nominal machine speed and
    printed unscaled as well."""
    ops = run.scaled()
    latencies = [s for _, s, _ in ops]
    raw_latencies = [r for _, _, r in ops]
    n = len(latencies)
    pct = TAIL_PERCENTILE[workload_name]
    beyond = n - math.ceil(pct / 100.0 * n)
    attempted = sum(run.ledger.ops)
    scale = run.mean_scale()
    raw = {
        "setup_s": statistics.median(raw for raw, _ in setups),
        "latency_p50_s": harrell_davis(raw_latencies, 0.5),
        "latency_tail_s": harrell_davis(raw_latencies, pct / 100.0),
        "throughput_ops": attempted / run.busy_wall,
        "cpu_per_op_s": run.busy_cpu / attempted,
    }
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "latency_p50_s": (harrell_davis(latencies, 0.5), "s"),
        "latency_tail_s": (harrell_davis(latencies, pct / 100.0), "s"),
        "throughput_ops": (raw["throughput_ops"] / scale, "1/s"),
        "cpu_per_op_s": (raw["cpu_per_op_s"] * scale, "s"),
        "accepted_roots": (run.ledger.per_pass(0), "count"),
        "accepted_real": (run.ledger.per_pass(1), "count"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    print(f"mean speed scale {scale:.4f} from {len(run.yardstick)} yardstick "
          f"samples; unscaled: " + ", ".join(f"{k}={v:.6g}"
                                             for k, v in raw.items()))
    print(f"latency_tail_s is the p{pct:g} of {n} samples "
          f"({beyond} beyond it)")
    print("setup_s samples (unscaled/scaled): "
          + ", ".join(f"{a:.4f}/{b:.4f}" for a, b in setups))
    print(f"unresolved_candidates per pass: {run.ledger.per_pass(2)}")
    return metrics


def per_layer(tracer, run: RunResult):
    """Per-layer metrics per traced op; times scaled like end_to_end's."""
    ops = len(run.scaled(traced=True))
    scale = run.mean_scale(traced=True)
    values = {}
    for key, st in tracer.stats.items():
        values[f"{key}.calls"] = st.calls / ops
        values[f"{key}.total_s"] = st.total_ns * 1e-9 * scale / ops
        values[f"{key}.self_s"] = st.self_ns * 1e-9 * scale / ops
    solve = tracer.stats["one_nonzero.solve_one_nonzero_free_length"].counters
    values["one_nonzero.candidates"] = solve["candidates"] / ops
    values["one_nonzero.accept_ratio"] = \
        solve["accepted"] / solve["candidates"] if solve["candidates"] else 0.0
    values["one_nonzero.degree_mismatch"] = \
        tracer.stats["one_nonzero.resultant_polynomial"].counters[
            "degree_mismatch"] / ops
    values["polynomials.back_substitute.fallback"] = \
        tracer.stats["polynomials.back_substitute"].counters["fallback"] / ops
    values["free_pose.free_pose.not_assemblable"] = \
        tracer.stats["free_pose.free_pose"].errors["NotAssemblable"] / ops
    values["output.bytes_written"] = sum(
        tracer.stats[k].counters["bytes"]
        for k in ("output.emit_tables", "output.render_svg")) / ops
    values["unresolved_candidates"] = run.traced_unresolved / ops
    caught = run.traced_warnings
    for kind in KNOWN_WARNINGS:
        values[f"warnings.{kind}"] = caught[kind] / ops
    values["warnings.other"] = sum(count for kind, count in caught.items()
                                   if kind not in KNOWN_WARNINGS) / ops

    # overhead: per input, mean traced minus mean untraced scaled latency
    by_input: dict[int, tuple[list, list]] = {}
    for traced in (True, False):
        for i, s, _ in run.scaled(traced):
            by_input.setdefault(i, ([], []))[0 if traced else 1].append(s)
    gaps = [statistics.fmean(a) - statistics.fmean(b)
            for a, b in by_input.values() if a and b]
    values["trace.overhead_s"] = statistics.median(gaps) if gaps else 0.0
    accept = values["one_nonzero.accept_ratio"]
    print(f"traced ops: {ops}; one_nonzero.accept_ratio base: "
          f"{solve['candidates']} candidates, {solve['accepted']} accepted "
          f"({accept:.4f})")
    print(f"patched sites: {', '.join(tracer.sites())}")
    if tracer.absent:
        print(f"absent sites (reported as 0): {', '.join(tracer.absent)}")
    return {name: (values.get(name, 0.0), unit) for name, unit in PER_LAYER}


def describe_environment() -> None:
    import numpy

    threads = ",".join(f"{v}={os.environ[v]}" for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS"))
    print(f"python {platform.python_version()}, numpy {numpy.__version__}, "
          f"nproc {os.cpu_count()}, {threads}, {platform.machine()}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spring_platform" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from the repository "
              "root", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"spring-{args.workload}-{os.getpid()}"
    try:
        workload, setup = set_up(args.workload, args.seed, work)
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        return measure(args, workload, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload: Workload, setup) -> int:
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(TRACE_TARGETS)
    run = run_passes(workload, args.seconds, tracer)
    ledger = run.ledger
    if args.workload == "sweep-zero":
        scan_zero_inputs(workload, ledger)

    describe_environment()
    ops, failed = sum(ledger.ops), ledger.failed()
    print(f"workload {args.workload}, seed {args.seed}: {len(workload.items)} "
          f"inputs, {run.passes} passes, {ops} ops, {failed} failed "
          f"(failed_share {failed / ops:.4f}), worst accepted-root residual "
          f"{ledger.worst_residual:.3e}")
    print("warnings: " + (", ".join(f"{k}={v}" for k, v in
                                     sorted(run.warnings.items())) or "none"))
    for i, problems in sorted(ledger.problems.items()):
        print(f"input {i}: " + "; ".join(problems[:3]))

    if args.trace:
        metrics = per_layer(tracer, run)
    else:
        setups = [setup] + [setup_in_fresh_process(args.workload, args.seed)
                            for _ in range(SETUP_REPEATS - 1)]
        metrics = end_to_end(args.workload, run, setups)
    result = {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
