"""A fixed unit of work that scales the benchmark's times to a nominal
machine speed.

On a shared host the speed of the CPU drifts by up to ~1.8x, in CPU time
as well as wall time, in phases of seconds to minutes, so repeating work
within a run does not average it out. The benchmark times this yardstick
between operations and divides each operation's time by the mean of the
yardstick samples taken just before and just after it, times
``NOMINAL_S``. A change that makes the library faster lowers the scaled
times in proportion; a slower phase of the host slows the operation and
its neighbouring yardstick samples together and cancels.

The work is what the solvers' time goes to outside the interpreter: small
extended-precision eliminations, small complex solves and companion-matrix
root finding. On the reference solve, 25-second medians of the paired
ratio varied by 2.7% (standard deviation) while the raw medians varied by
15% (2-vCPU x86-64 host, Python 3.11.7, numpy 2.4.6). Editing this file
rescales every reported time, so it must stay fixed once a baseline has
been measured.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.006  # yardstick time that reported times are scaled to

_RNG = np.random.default_rng(20260101)
_LONG = (_RNG.standard_normal((8, 8)) + 1j).astype(np.clongdouble)
_SQUARE = _RNG.standard_normal((7, 7)) + 1j * np.eye(7)
_RHS = np.ones(7, dtype=complex)
_POLY = np.arange(1.0, 10.0)


def _work() -> None:
    for _ in range(40):
        m = _LONG.copy()
        for i in range(7):
            m[i + 1:, i:] -= np.outer(m[i + 1:, i] / m[i, i], m[i, i:])
    for _ in range(150):
        np.linalg.solve(_SQUARE, _RHS)
    for _ in range(30):
        np.roots(_POLY)


def measure() -> float:
    """Seconds taken by one yardstick unit."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
