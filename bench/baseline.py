"""Cross-check of the frozen corpus against the roadmap's recall baseline.

Solves the first 40 one-nonzero mechanisms of seed 2026 in their drawn
frame and compares the accepted-root total with the 353 recorded when the
corpus was defined. A mismatch means either the generator moved (fix the
generator) or the solver's recall changed (report it). Run from the
repository root; takes about 40 s::

    python3 bench/baseline.py
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import inputs  # noqa: E402
from spring_platform import RunConfig, run_analysis  # noqa: E402

BASELINE_CONFIGS = 40
BASELINE_ACCEPTED = 353


def main() -> int:
    total = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for params in inputs.one_nonzero_mechanisms(BASELINE_CONFIGS):
            total += run_analysis(RunConfig(params=params)).counts["accepted"]
    print(f"accepted roots over the first {BASELINE_CONFIGS} mechanisms of "
          f"seed {inputs.ONE_NONZERO_MECHANISM_SEED}: {total} "
          f"(baseline {BASELINE_ACCEPTED})")
    return 0 if total == BASELINE_ACCEPTED else 1


if __name__ == "__main__":
    raise SystemExit(main())
