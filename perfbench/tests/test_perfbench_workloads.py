"""Workload inputs, traced-search attribution and the metric list."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, workloads
from perfbench.spans import SpanRecorder
from repro.core.config import EDDConfig
from repro.data.synthetic import SyntheticTaskConfig, make_synthetic_task
from repro.nas.space import SearchSpaceConfig

ROOT = Path(__file__).resolve().parents[2]


def test_serve_schedule_is_deterministic_per_seed():
    first = workloads.serve_schedule(3, 1000, 0.5)
    again = workloads.serve_schedule(3, 1000, 0.5)
    other = workloads.serve_schedule(4, 1000, 0.5)
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(first[0], other[0])
    due = first[0]
    assert np.all(np.diff(due) > 0) and due[-1] < 0.5
    assert 400 < due.size < 600


def test_estimate_request_order_is_deterministic_per_seed():
    first = workloads.estimate_request(5)
    assert first.models == workloads.estimate_request(5).models
    assert sorted(first.models) == sorted(workloads.estimate_request(6).models)
    assert len(first.targets) == 4 and tuple(first.bits) == workloads.ESTIMATE_BITS


def _small_search(seed):
    space = SearchSpaceConfig.reduced(num_blocks=2, num_classes=4, input_size=8)
    splits = make_synthetic_task(SyntheticTaskConfig(
        num_classes=4, image_size=8, train_per_class=6, val_per_class=3,
        test_per_class=1, seed=seed,
    ))
    config = EDDConfig(target=workloads.SEARCH_TARGET, epochs=2, batch_size=8,
                       seed=seed, arch_start_epoch=1)
    return workloads.construct(space, splits, config, workloads.SEARCH_TARGET, "t")


def _traced(seed, sleep_s=0.0):
    built = _small_search(seed)
    if sleep_s:
        sample = built.searcher.supernet.sample

        def slow_sample(*args, **kwargs):
            time.sleep(sleep_s)
            return sample(*args, **kwargs)

        built.searcher.supernet.sample = slow_sample
    recorder = SpanRecorder()
    result, _ = workloads.traced_search(recorder, built)
    layers, rows = workloads.search_layers(recorder.spans, [result])
    return result, layers, rows, [span.name for span in recorder.spans]


def test_traced_search_matches_untraced_and_adds_up():
    plain = _small_search(0).searcher.search(name="t")
    result, layers, rows, names = _traced(0)
    assert workloads.fingerprint(result) == workloads.fingerprint(plain)
    assert names == _traced(0)[3]
    wall, _, note = rows["reconcile.search_ms"]
    assert wall == pytest.approx(layers["search.traced_wall_ms"])
    assert float(note.rsplit("sum ", 1)[1].rstrip(")")) == pytest.approx(wall, rel=1e-3)


def test_injected_sleep_shows_in_layer_self_time_and_wall():
    _, base, _, _ = _traced(0)
    # Long enough that host-speed noise in the rest of the search (a few
    # hundred ms) cannot hide it in the wall time.
    delay = 0.05
    slow_result, slow, _, _ = _traced(0, sleep_s=delay)
    calls = slow["core.cosearch.weight_steps"] + slow["core.cosearch.arch_steps"]
    injected_ms = calls * delay * 1e3
    sample_gain = slow["nas.sample_ms"] - base["nas.sample_ms"]
    wall_gain = slow["search.traced_wall_ms"] - base["search.traced_wall_ms"]
    assert 0.95 * injected_ms <= sample_gain <= 1.25 * injected_ms
    assert wall_gain >= 0.5 * injected_ms
    plain = _small_search(0).searcher.search(name="t")
    assert workloads.fingerprint(slow_result) == workloads.fingerprint(plain)


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["command"] == ["python3", "perfbench/run.py"]
