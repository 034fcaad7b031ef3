"""Print every candidate row of a fixed set of solves: a before/after
dump for comparing two versions of the solvers.

Solves both committed configs, the first 40 mechanisms of
``bench/inputs.one_nonzero_mechanisms`` (seed 2026) and 160 mechanisms
drawn from ``numpy.random.default_rng(777)`` (L01 ~ U(0.2, 2) first, then
``inputs.random_mechanism``). It prints one ``repr`` line per candidate
row, an accepted count per set, and the warnings of all solves counted by
category. Dump the version before a change and the one after it and
compare their rows, for example that every accepted root before is an
accepted root after::

    python3 tools/candidate_rows.py > after.txt

The script reads the ``src/`` and ``bench/`` directories next to it, so a
copy placed in another checkout reports that checkout. It takes a few
seconds.
"""

from __future__ import annotations

import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402
from spring_platform import RunConfig, load_config, run_analysis  # noqa: E402

MECHANISMS_2026 = 40
MECHANISMS_777 = 160


def seed_777_mechanisms(count: int):
    rng = np.random.default_rng(777)
    out = []
    for _ in range(count):
        l01 = float(rng.uniform(*inputs.L01_RANGE))
        out.append(inputs.random_mechanism(rng, l01))
    return out


def main() -> int:
    sets = [
        ("config", [load_config(ROOT / inputs.REFERENCE_ZERO),
                    load_config(ROOT / inputs.REFERENCE_ONE)]),
        ("seed-2026", [RunConfig(params=p) for p in
                       inputs.one_nonzero_mechanisms(MECHANISMS_2026)]),
        ("seed-777", [RunConfig(params=p) for p in
                      seed_777_mechanisms(MECHANISMS_777)]),
    ]
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
