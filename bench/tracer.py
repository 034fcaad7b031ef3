"""Outside-in tracer: wraps public functions of the library's modules from
the benchmark process, without editing any source file.

A function is called through the module globals of its callers, so each
target is replaced in every loaded ``spring_platform`` module that holds
it: ``poly_roots`` is called as ``one_nonzero.poly_roots``,
``zero_free_lengths.poly_roots`` and, inside ``back_substitute``,
``polynomials.poly_roots``. A target that a refactor removed is recorded
as absent rather than failing the run.

Each call records its duration; a span stack subtracts the time of traced
children, which gives self time. Only aggregates are kept: calls, total
time (outermost calls only, so recursion is not double counted), self
time, exceptions by class, and target-specific counters.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field

PACKAGE = "spring_platform"


@dataclass
class SiteStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    depth: int = 0
    errors: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)


def _result_counters(key: str, result) -> dict:
    """Counters read off a target's return value."""
    if key == "polynomials.back_substitute":
        return {"fallback": int(bool(result.used_fallback))}
    if key == "one_nonzero.resultant_polynomial":
        expected = getattr(sys.modules.get(f"{PACKAGE}.one_nonzero"),
                           "RESULTANT_DEGREE", 48)
        return {"degree_mismatch": int(result.degree != expected)}
    if key == "one_nonzero.solve_one_nonzero_free_length":
        return {"candidates": len(result),
                "accepted": sum(1 for s in result if s.accepted)}
    if key in ("output.emit_tables", "output.render_svg"):
        return {"bytes": sum(path.stat().st_size for path in result)}
    return {}


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self.stats = {key: SiteStats() for key in self.targets}
        self.absent: list[str] = []
        self._stack: list[list[int]] = []
        self._patches = []  # (module, attribute, original, wrapper)
        self._resolve()

    def _resolve(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for key in self.targets:
            module_name, func_name = key.split(".")
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None) if home else None
            if original is None:
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _wrap(self, key: str, fn):
        stats = self.stats[key]
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            stats.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                stats.errors[type(exc).__name__] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.depth -= 1
                stats.calls += 1
                stats.self_ns += elapsed - frame[0]
                if stats.depth == 0:
                    stats.total_ns += elapsed
                if stack:
                    stack[-1][0] += elapsed
            stats.counters.update(_result_counters(key, result))
            return result

        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def sites(self) -> list[str]:
        return sorted({f"{m.__name__}.{attr}" for m, attr, _, _ in self._patches})
