import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stage_times.py"

# loads tools/stage_times.py (argv[1]) and runs two operations on each
# workload's committed config, into the directory argv[2], with every
# bounding call of its BOUNDS entry counted on the second, so that a bound
# reached only on a cache miss of the first fails. A bound called inside
# another fails, since the in-context timer could not split the two, and
# so does an _output_dir called other than once per writer, since each
# call opens the next writer's row. Prints each workload with the bounds
# no call reached.
_BOUNDS = """\
import runpy, sys
from collections import Counter
tool = runpy.run_path(sys.argv[1])
calls, running = Counter(), []

def counted(function, bound):
    def call(*args, **kwargs):
        assert not running, f"{bound[1]} called inside {running[-1]}"
        calls[bound[1]] += 1
        running.append(bound[1])
        try:
            return function(*args, **kwargs)
        finally:
            running.pop()
    return call

for workload, config in (("reference-one", tool["inputs"].REFERENCE_ONE),
                         ("sweep-zero", tool["inputs"].REFERENCE_ZERO)):
    bounds = tool["BOUNDS"][workload]
    with tool["patched"](bounds, counted):
        for _ in range(2):
            calls.clear()
            tool["operation"](tool["ROOT"] / config, sys.argv[2])
    assert calls["_output_dir"] == 2, calls
    print(workload, *[name for _, name, _, _ in bounds if name not in calls])
"""


def test_stage_times_bounds_are_called(tmp_path):
    # the stage table wraps library calls by name: each must still exist
    # and be called by the operation, outside every other one. The tool
    # edits sys.path and the BLAS environment when it loads, so it runs in
    # a fresh interpreter
    run = subprocess.run([sys.executable, "-c", _BOUNDS, str(TOOL),
                          str(tmp_path)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["reference-one", "sweep-zero"]
