"""Interpreter-speed reference for the benchmark's Python-bound timings.

On a shared host the interpreter's speed changes in phases that last from
seconds to many minutes, while the process keeps its core (CPU time tracks
wall time).  Repeated ``api.estimate`` calls took ~30 ms in one phase and
~55 ms in the next; numpy-bound work (a paper-scale search, the serving
engine) moved by 5-9% between the same phases.  A fixed pure-Python routine,
timed next to each unit of Python-bound work, slows with it, so the ratio
holds: over 25-second windows of one 7-minute process, the median
``api.estimate`` call spread 0.11 (quartile distance over median) and the
median call over the adjacent routine time 0.05.

A Python-bound timing is reported at reference speed: the measured time
scaled by :data:`REFERENCE_S` over the routine's time measured next to it.
The routine uses no numpy and nothing of the program, so a change to the
program cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

#: Nominal time of one :func:`reference` call: a timing at reference speed
#: reads as on a host where the routine takes this long.
REFERENCE_S = 0.005


class _Item:
    __slots__ = ("a", "b", "name")

    def __init__(self, a: float, b: float, name: str) -> None:
        self.a = a
        self.b = b
        self.name = name

    def cost(self, k: int) -> float:
        return self.a * k + math.sqrt(self.b + k)


def reference() -> float:
    """Fixed interpreter work: objects, attribute and dict access, floats."""
    table: dict[str, float] = {}
    total = 0.0
    for i in range(3000):
        item = _Item(i * 0.5, i + 1.0, f"l{i % 17}")
        table[item.name] = table.get(item.name, 0.0) + item.cost(3)
        total += max(item.a, item.b) / (1 + len(table))
    return sorted(table.items())[0][1] + total


def reference_seconds(calls: int = 3) -> float:
    """Median wall time of ``calls`` :func:`reference` calls."""
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        reference()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def at_reference_speed(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while :func:`reference` took ``reference_s``."""
    return seconds * REFERENCE_S / reference_s
