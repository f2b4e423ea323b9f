"""Unit tests for the numerics benchmark harness (repro.bench).

The full suite is exercised by CI's bench-smoke job; here we test the
harness mechanics — baseline emulation fidelity, report rendering and
serialisation — without paying for a whole benchmark run.
"""

import json

import numpy as np
import pytest

from repro import bench
from repro.autograd import ops_nn
from repro.autograd.tensor import Tensor, get_default_dtype, tensor


class TestBaselineEmulation:
    def test_restores_patched_symbols(self):
        import repro.nas.quantization as quantization
        from repro.nn.layers import BatchNorm2d

        before = (ops_nn.conv2d, BatchNorm2d.forward, quantization.fake_quantize)
        with bench.pre_refactor_numerics():
            assert ops_nn.conv2d is ops_nn._reference_conv2d
            assert get_default_dtype() == np.dtype(np.float64)
        assert (
            ops_nn.conv2d,
            BatchNorm2d.forward,
            quantization.fake_quantize,
        ) == before
        assert get_default_dtype() == np.dtype(np.float32)

    def test_composite_bn_matches_fused(self):
        from repro.nn.layers import BatchNorm2d

        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3, 5, 5))
        fused = BatchNorm2d(3)(Tensor(x))
        composite_bn = BatchNorm2d(3)
        composite = bench._composite_bn_forward(composite_bn, Tensor(x))
        np.testing.assert_allclose(fused.data, composite.data, atol=1e-5)

    def test_composite_fake_quantize_matches_fused(self):
        from repro.nas.quantization import fake_quantize

        rng = np.random.default_rng(1)
        x = rng.normal(size=(6,))
        fused = fake_quantize(tensor(x), 8)
        composite = bench._composite_fake_quantize(tensor(x), 8)
        np.testing.assert_allclose(fused.data, composite.data, atol=1e-6)


class TestReport:
    @pytest.fixture
    def report(self):
        return {
            "meta": {"quick": True, "dtype_policy": "float32",
                     "numpy": np.__version__, "python": "3.x", "machine": "x"},
            "conv": {
                "cases": [{
                    "name": "dense3x3",
                    "shape": {"batch": 2, "c_in": 3, "hw": 8, "c_out": 4,
                              "kernel": 3, "stride": 1, "groups": 1},
                    "current_ms": 1.0, "baseline_ms": 3.0,
                    "current_ops_per_sec": 1000.0, "speedup": 3.0,
                }],
                "geomean_speedup": 3.0,
                "total_speedup": 3.0,
            },
            "supernet": {
                "weight_step_ms": 10.0, "arch_step_ms": 20.0,
                "baseline_weight_step_ms": 20.0, "baseline_arch_step_ms": 50.0,
                "weight_step_speedup": 2.0, "arch_step_speedup": 2.5,
                "weight_steps_per_sec": 100.0,
            },
            "search": {
                "epochs": 2, "blocks": 2, "wall_seconds": 0.5,
                "baseline_wall_seconds": 1.0, "speedup": 2.0,
                "phase_seconds": {"anneal": 0.0, "weight": 0.3,
                                  "arch": 0.15, "derive": 0.01},
            },
        }

    def test_write_report_round_trips(self, report, tmp_path):
        path = bench.write_report(report, tmp_path / "BENCH_numerics.json")
        assert json.loads(path.read_text()) == report

    def test_render_report_mentions_key_numbers(self, report):
        text = bench.render_report(report)
        assert "dense3x3" in text
        assert "3.0x" in text
        assert "api.search" in text
        assert "engine phases" in text

    def test_conv_cases_are_valid_shapes(self):
        for name, (n, c_in, h, w, c_out, k, s, p, g) in bench.CONV_CASES.items():
            assert c_in % g == 0 and c_out % g == 0, name
            assert (h + 2 * p - k) // s + 1 >= 1, name


def test_conv_bench_single_case_runs(monkeypatch):
    """One tiny case through the real timing loop (fast smoke)."""
    monkeypatch.setattr(
        bench, "CONV_CASES", {"tiny": (1, 2, 5, 5, 2, 3, 1, 1, 1)}
    )
    out = bench.bench_conv(quick=True)
    assert len(out["cases"]) == 1
    case = out["cases"][0]
    assert case["current_ms"] > 0 and case["baseline_ms"] > 0
    assert out["geomean_speedup"] > 0


class TestRuntimeSuite:
    @pytest.fixture(scope="class")
    def report(self):
        """One small model through the real runtime timing loop."""
        return bench.run_runtime_benchmarks(quick=True, models=["MobileNet-V2"])

    def test_report_structure(self, report):
        assert report["meta"]["suite"] == "runtime"
        section = report["runtime"]
        assert section["batch_sizes"] == [1, 8]
        (record,) = section["models"]
        assert record["name"] == "MobileNet-V2"
        assert record["arena_reuse"] > 1.0
        for row in record["batches"]:
            assert row["engine_ms"] > 0 and row["forward_ms"] > 0
            assert row["max_abs_diff"] <= 1e-4

    def test_geomean_is_batch1(self, report):
        section = report["runtime"]
        (record,) = section["models"]
        batch1 = next(r for r in record["batches"] if r["batch"] == 1)
        assert section["geomean_batch1_speedup"] == pytest.approx(
            batch1["speedup"]
        )

    def test_render_runtime_report(self, report):
        text = bench.render_runtime_report(report)
        assert "MobileNet-V2" in text
        assert "geomean batch-1 speedup" in text
        assert "arena" in text

    def test_round_trips_through_json(self, report, tmp_path):
        path = bench.write_report(report, tmp_path / "BENCH_runtime.json")
        assert json.loads(path.read_text())["meta"]["suite"] == "runtime"

    def test_runtime_zoo_names_excludes_shuffle(self):
        names = bench.runtime_zoo_names()
        assert "ShuffleNet-V2" not in names
        assert "MobileNet-V2" in names
        assert len(names) == 12


def test_arch_step_dw_shapes_are_the_convs_an_arch_step_runs(monkeypatch):
    """The search kernel table derives its shapes from the supernet: exactly
    the candidate blocks' depthwise convs that a soft arch step runs (the
    stem's fixed depthwise conv is the only other one)."""
    searcher, splits = bench._make_searcher()
    ran = set()
    kernel = ops_nn._depthwise_conv

    def spy(x, w, stride, padding):
        ran.add((x.shape[1], x.shape[2], w.shape[2], stride))
        return kernel(x, w, stride, padding)

    monkeypatch.setattr(ops_nn, "_depthwise_conv", spy)
    searcher.arch_step(splits.val.images[:4], splits.val.labels[:4])
    derived = set(bench._arch_step_dw_shapes(searcher))
    assert derived and derived <= ran
    stem_channels = searcher.supernet.stem_dw.weight.shape[0]
    assert {shape[0] for shape in ran - derived} == {stem_channels}


class TestTrainingSuite:
    def test_tconv_grad_section(self):
        section = bench.bench_tconv_grad(quick=True)
        assert section["cases"], "no tconv cases recorded"
        for case in section["cases"]:
            assert case["stride"] > 1
            assert case["max_abs_diff"] <= 1e-4
            assert case["phased_ms"] > 0 and case["dilated_ms"] > 0
        assert np.isfinite(section["geomean_speedup"])

    def test_dilated_input_grads_context_restores(self):
        from repro.autograd import ops_nn

        original = ops_nn._conv_input_grad
        with bench._dilated_input_grads():
            assert ops_nn._conv_input_grad is not original
        assert ops_nn._conv_input_grad is original

    def test_render_training_report(self):
        report = {
            "meta": {"quick": True, "suite": "training", "dtype_policy": "float32",
                     "numpy": np.__version__, "python": "3", "machine": "x"},
            "conv": {
                "cases": [{"name": "r_dw3x3", "small": True, "current_ms": 1.0,
                           "baseline_ms": 2.0, "speedup": 2.0,
                           "shape": {}}],
                "geomean_speedup_small": 2.0,
                "geomean_speedup": 2.0,
            },
            "tconv_grad": {
                "cases": [{"name": "dw3x3_s2", "stride": 2, "kernel": 3,
                           "dilated_ms": 2.0, "phased_ms": 1.0, "speedup": 2.0,
                           "max_abs_diff": 0.0}],
                "geomean_speedup": 2.0,
            },
            "step": {"weight_step_ms": 10.0, "arch_step_ms": 20.0},
            "search": {"epochs": 2, "blocks": 2, "wall_seconds": 1.0,
                       "epoch_seconds": 0.5, "loss_parity": True},
        }
        text = bench.render_training_report(report)
        assert "r_dw3x3" in text
        assert "arch step    20.0ms" in text
        assert "loss parity: True" in text
        path_suite = json.dumps(report)
        assert json.loads(path_suite)["meta"]["suite"] == "training"
