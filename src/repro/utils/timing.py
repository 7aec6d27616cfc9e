"""Timing utilities for the benchmark harness.

The paper reports cycles-per-byte measured with ``rdtsc`` on a 1.8–3 GHz
i7-4500U.  Pure Python has no ``rdtsc``; we measure wall nanoseconds with
``perf_counter_ns`` and convert at the paper machine's clock so results
appear in the paper's unit.  Absolute values are meaningless to compare
against a compiled OCaml engine — relative values between our engines are
the reproduction target (DESIGN.md §4).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = ["CYCLES_PER_NS", "Stopwatch", "cycles_per_byte", "time_call"]

# i7-4500U nominal turbo clock.
CYCLES_PER_NS = 2.4


@dataclass
class Stopwatch:
    """Accumulating nanosecond timer."""

    elapsed_ns: int = 0

    @contextmanager
    def measure(self) -> Iterator[None]:
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.elapsed_ns += time.perf_counter_ns() - start

    @property
    def seconds(self) -> float:
        return self.elapsed_ns / 1e9


def time_call(fn: Callable[[], object]) -> tuple[object, int]:
    """Run ``fn`` once; returns (result, elapsed nanoseconds)."""
    start = time.perf_counter_ns()
    result = fn()
    return result, time.perf_counter_ns() - start


def cycles_per_byte(elapsed_ns: int, n_bytes: int) -> float:
    """Convert a wall-time measurement into the paper's CpB unit."""
    if n_bytes == 0:
        return 0.0
    return elapsed_ns * CYCLES_PER_NS / n_bytes
