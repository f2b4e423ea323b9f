"""In-memory span recording around calls into the program, and self time.

The benchmark never patches a module: :meth:`SpanRecorder.wrap` replaces
one *instance* attribute (``searcher.weight_step``, ``supernet.forward``,
``optimizer.step``, ...) with a wrapper that records a span around the
original bound callable.  Spans nest by call order on one thread, so each
span's parent is the span open when it started.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    """One timed call: name, start/end (seconds), parent index and run id."""

    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans on one thread; ``run`` tags spans of one run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, /, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._open[-1] if self._open else None
        span = Span(name, self.clock(), math.nan, parent, self.run)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            span.end = self.clock()

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Record a span around every call of ``obj.attr`` (this instance only)."""
        original = getattr(obj, attr)

        @functools.wraps(original)
        def recorded(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        setattr(obj, attr, recorded)


def write_spans(spans: list[Span], path: Path) -> None:
    """Write every span as one JSON object per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval, and overlapping
    children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return [
        span.duration - _covered(children.get(index, ()))
        for index, span in enumerate(spans)
    ]
