"""Self time on hand-built span trees, tail percentiles, the SLO rule and the
host-speed rescaling."""

import math

import numpy as np
import pytest

from perfbench.hostspeed import REFERENCE_S, at_reference_speed, reference, reference_seconds
from perfbench.spans import Span, SpanRecorder, self_times
from perfbench.stats import (
    backlog_growing,
    max_rate_at_slo,
    percentile,
    summarize,
    tail_percentile,
)


def test_self_time_of_hand_built_tree():
    spans = [
        Span("run", 0.0, 10.0, None, 1),
        Span("step", 1.0, 5.0, 0, 1),
        Span("forward", 1.5, 3.0, 1, 1),
        Span("optim", 4.0, 4.5, 1, 1),
        Span("step", 6.0, 9.0, 0, 1),
        Span("forward", 6.0, 9.0, 4, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.5, 0.5, 0.0, 3.0])
    # Self times of a tree add up to its root's duration.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("parent", 0.0, 4.0, None, 1),
        Span("a", 1.0, 3.0, 0, 1),
        Span("b", 2.0, 3.5, 0, 1),
        Span("late", 3.8, 6.0, 0, 1),
    ]
    assert self_times(spans)[0] == pytest.approx(4.0 - 2.5 - 0.2)


def test_recorder_nests_spans_and_wraps_one_instance_only():
    class Layer:
        def work(self, x):
            return x + 1

    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    traced, plain = Layer(), Layer()
    recorder.wrap(traced, "work", "layer.work")
    assert recorder.call("run", lambda: traced.work(1) + plain.work(1)) == 4
    assert [(s.name, s.parent) for s in recorder.spans] == [
        ("run", None), ("layer.work", 0),
    ]
    assert "work" not in vars(plain)
    assert recorder.spans[1].duration == 1.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(1000) == 99.0
    summary = summarize(np.arange(1, 101, dtype=float))
    assert summary["n"] == 100 and summary["tail_pct"] == 90.0
    assert summary["p50"] == pytest.approx(50.5)


def test_percentile_reaching_refused_requests_is_infinite():
    samples = [1.0] * 95 + [math.inf] * 5
    assert percentile(samples, 50) == 1.0
    assert percentile(samples, 99) == math.inf


def _point(rate, latencies, refused=0):
    return {
        "rate": rate,
        "p99_ms": percentile(latencies, 99),
        "refused": refused,
        "backlog_growing": backlog_growing(latencies),
    }


def test_max_rate_at_slo_on_synthetic_latencies():
    rng = np.random.default_rng(0)
    steady = list(rng.uniform(2.0, 8.0, size=2000))
    tail_heavy = steady[:1900] + [40.0] * 100
    growing = list(np.linspace(2.0, 200.0, 2000))
    points = [
        _point(250, steady),
        _point(500, steady),
        _point(1000, tail_heavy),
        _point(2000, steady, refused=3),
    ]
    assert max_rate_at_slo(points, slo_ms=25.0) == 500.0
    assert max_rate_at_slo(points, slo_ms=50.0) == 1000.0
    assert backlog_growing(growing) and not backlog_growing(steady)
    assert max_rate_at_slo([_point(250, growing)], slo_ms=1e9) == 0.0


def test_reference_speed_rescales_by_the_routine_time():
    # Measured while the routine ran twice as slow as nominal: half the time.
    assert at_reference_speed(2.0, 2 * REFERENCE_S) == pytest.approx(1.0)
    assert at_reference_speed(2.0, REFERENCE_S) == pytest.approx(2.0)


def test_reference_routine_is_fixed_work():
    assert reference() == reference()
    assert reference_seconds(1) > 0
