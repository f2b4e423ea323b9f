"""Headless numerics benchmark suite (``repro bench``).

Measures the hot paths this library lives on and writes a machine-readable
``BENCH_numerics.json`` so the performance trajectory is tracked per PR:

* ``conv``      — conv2d forward+backward microbenchmarks over the supernet's
  actual workload shapes (MBConv expand/depthwise/project, stem, grouped);
* ``supernet``  — one bilevel weight step and one architecture step of
  :class:`repro.core.cosearch.EDDSearcher`;
* ``search``    — a small end-to-end ``repro.api.search()`` run, with the
  engine's per-phase wall-clock split.

Every section reports the *current* implementation next to a faithful
**pre-refactor baseline** emulated in-process: float64 tensor policy, the
original shift-and-accumulate convolutions (:func:`_reference_conv2d`), the
composite (unfused) BatchNorm and the composite straight-through
fake-quantisation — i.e. the hot path exactly as it was before the fast
numerics core landed.  Speedups are therefore measured in the same
environment on the same machine, as like-for-like as an in-repo harness can
make them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.autograd import ops_nn
from repro.autograd.ops_basic import clip_ste, round_ste
from repro.autograd.tensor import Tensor, default_dtype, get_default_dtype, tensor

# (batch, c_in, h, w, c_out, kernel, stride, padding, groups) — the conv
# population of a supernet step at reduced scale ("r_") and at the paper's
# MBConv widths ("p_"), plus a grouped-conv case (where the old
# implementation looped over groups *and* offsets).
CONV_CASES: dict[str, tuple[int, ...]] = {
    "r_stem3x3_s2": (12, 3, 12, 12, 8, 3, 2, 1, 1),
    "r_expand1x1": (12, 16, 6, 6, 64, 1, 1, 0, 1),
    "r_dw3x3": (12, 64, 6, 6, 64, 3, 1, 1, 64),
    "r_dw5x5_s2": (12, 64, 6, 6, 64, 5, 2, 2, 64),
    "r_project1x1": (12, 64, 3, 3, 32, 1, 1, 0, 1),
    "p_expand1x1": (12, 16, 12, 12, 96, 1, 1, 0, 1),
    "p_dw3x3": (12, 96, 12, 12, 96, 3, 1, 1, 96),
    "p_dw5x5": (12, 96, 12, 12, 96, 5, 1, 2, 96),
    "p_project1x1": (12, 96, 12, 12, 32, 1, 1, 0, 1),
    "dense3x3": (16, 32, 14, 14, 64, 3, 1, 1, 1),
    "grouped3x3_g4": (16, 32, 14, 14, 64, 3, 1, 1, 4),
}


def _median_seconds(fn: Callable[[], Any], repeats: int, warmup: int = 2) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


# ------------------------------------------------------- baseline emulation
def _composite_bn_forward(self, x):
    """The pre-refactor BatchNorm2d.forward (unfused autograd composite)."""
    if x.ndim != 4:
        raise ValueError(f"BatchNorm2d expects NCHW input, got {x.shape}")
    if self.training:
        batch_mean = x.data.mean(axis=(0, 2, 3))
        batch_var = x.data.var(axis=(0, 2, 3))
        self.running_mean = (
            (1.0 - self.momentum) * self.running_mean + self.momentum * batch_mean
        )
        self.running_var = (
            (1.0 - self.momentum) * self.running_var + self.momentum * batch_var
        )
        mean_t = x.mean(axis=(0, 2, 3), keepdims=True)
        centered = x - mean_t
        var_t = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
        inv_std = (var_t + self.eps) ** -0.5
        normalised = centered * inv_std
    else:
        mean = self.running_mean.reshape(1, -1, 1, 1)
        inv_std = 1.0 / np.sqrt(self.running_var.reshape(1, -1, 1, 1) + self.eps)
        normalised = (x - Tensor(mean)) * Tensor(inv_std)
    gamma = self.gamma.reshape(1, self.channels, 1, 1)
    beta = self.beta.reshape(1, self.channels, 1, 1)
    return normalised * gamma + beta


def _composite_fake_quantize(x, bits, max_abs=None):
    """The pre-refactor fake_quantize (clip_ste -> scale -> round_ste)."""
    if bits >= 32:
        return x
    if bits < 2:
        raise ValueError(f"cannot quantise to {bits} bits")
    if max_abs is None:
        max_abs = float(np.max(np.abs(x.data))) or 1.0
    if max_abs < 1e-30:
        return x
    levels = float(2 ** (bits - 1) - 1)
    scale = max_abs / levels
    clipped = clip_ste(x, -max_abs, max_abs)
    return round_ste(clipped * (1.0 / scale)) * scale


@contextlib.contextmanager
def pre_refactor_numerics() -> Iterator[None]:
    """Emulate the pre-refactor hot path: float64 policy, loop convolutions,
    composite BatchNorm and composite fake-quantisation."""
    import repro.nas.network as network
    import repro.nas.quantization as quantization
    import repro.nas.supernet as supernet
    from repro.nn.layers import BatchNorm2d

    # Every module that imported fake_quantize by value needs its own patch.
    quantize_holders = (quantization, supernet, network)
    saved_quantize = [m.fake_quantize for m in quantize_holders]
    saved = (ops_nn.conv2d, BatchNorm2d.forward)
    ops_nn.conv2d = ops_nn._reference_conv2d
    BatchNorm2d.forward = _composite_bn_forward
    for module in quantize_holders:
        module.fake_quantize = _composite_fake_quantize
    try:
        with default_dtype(np.float64):
            yield
    finally:
        ops_nn.conv2d, BatchNorm2d.forward = saved
        for module, original in zip(quantize_holders, saved_quantize):
            module.fake_quantize = original


# ------------------------------------------------------------------ sections
def bench_conv(quick: bool = False) -> dict[str, Any]:
    """Conv fwd+bwd per case: current vs pre-refactor, interleaved."""
    repeats = 5 if quick else 15
    rng = np.random.default_rng(2026)
    cases = []
    for name, (n, c_in, h, w, c_out, k, s, p, g) in CONV_CASES.items():
        x = rng.normal(size=(n, c_in, h, w))
        weight = rng.normal(size=(c_out, c_in // g, k, k))

        def fwd_bwd(conv_fn):
            xt = tensor(x, requires_grad=True)
            wt = tensor(weight, requires_grad=True)
            out = conv_fn(xt, wt, stride=s, padding=p, groups=g)
            out.backward(np.ones(out.shape, dtype=xt.data.dtype))

        current = _median_seconds(lambda: fwd_bwd(ops_nn.conv2d), repeats)

        def baseline_once():
            with default_dtype(np.float64):
                fwd_bwd(ops_nn._reference_conv2d)

        baseline = _median_seconds(baseline_once, max(3, repeats // 3))
        cases.append({
            "name": name,
            "shape": {"batch": n, "c_in": c_in, "hw": h, "c_out": c_out,
                      "kernel": k, "stride": s, "groups": g},
            "current_ms": current * 1e3,
            "baseline_ms": baseline * 1e3,
            "current_ops_per_sec": 1.0 / current,
            "speedup": baseline / current,
        })
    speedups = [c["speedup"] for c in cases]
    return {
        "cases": cases,
        "geomean_speedup": float(np.exp(np.mean(np.log(speedups)))),
        "total_speedup": float(
            sum(c["baseline_ms"] for c in cases) / sum(c["current_ms"] for c in cases)
        ),
    }


def _make_searcher():
    from repro.core.config import EDDConfig
    from repro.core.cosearch import EDDSearcher
    from repro.data.synthetic import SyntheticTaskConfig, make_synthetic_task
    from repro.nas.space import SearchSpaceConfig

    space = SearchSpaceConfig.reduced(num_blocks=3, num_classes=6, input_size=12)
    splits = make_synthetic_task(SyntheticTaskConfig(
        num_classes=6, image_size=12, train_per_class=16, val_per_class=8,
        test_per_class=8, seed=0,
    ))
    config = EDDConfig(target="fpga_pipelined", epochs=4, batch_size=12,
                       seed=0, arch_start_epoch=1)
    searcher = EDDSearcher(space, splits, config)
    searcher.calibrate_alpha()
    return searcher, splits


def bench_supernet_step(quick: bool = False) -> dict[str, Any]:
    """One bilevel weight step + one architecture step, current vs baseline."""
    repeats = 4 if quick else 10

    def measure():
        searcher, splits = _make_searcher()
        x, y = splits.train.images[:12], splits.train.labels[:12]
        xv, yv = splits.val.images[:12], splits.val.labels[:12]
        weight = _median_seconds(lambda: searcher.weight_step(x, y), repeats)
        arch = _median_seconds(lambda: searcher.arch_step(xv, yv), repeats)
        return weight, arch

    weight_now, arch_now = measure()
    with pre_refactor_numerics():
        weight_base, arch_base = measure()
    return {
        "weight_step_ms": weight_now * 1e3,
        "arch_step_ms": arch_now * 1e3,
        "baseline_weight_step_ms": weight_base * 1e3,
        "baseline_arch_step_ms": arch_base * 1e3,
        "weight_step_speedup": weight_base / weight_now,
        "arch_step_speedup": arch_base / arch_now,
        "weight_steps_per_sec": 1.0 / weight_now,
    }


def bench_search(quick: bool = False) -> dict[str, Any]:
    """End-to-end ``api.search()`` wall time, current vs baseline."""
    from repro import api

    request = api.SearchRequest(
        target="fpga_pipelined",
        epochs=2 if quick else 4,
        blocks=2 if quick else 3,
        seed=0,
        batch_size=12,
        arch_start_epoch=1,
        name="bench",
    )

    def run() -> tuple[float, dict | None]:
        start = time.perf_counter()
        report = api.search(request)
        return time.perf_counter() - start, report.result.phase_seconds

    wall_now, phases = run()
    with pre_refactor_numerics():
        wall_base, _ = run()
    return {
        "epochs": request.epochs,
        "blocks": request.blocks,
        "wall_seconds": wall_now,
        "baseline_wall_seconds": wall_base,
        "speedup": wall_base / wall_now,
        "phase_seconds": phases,
    }


def run_benchmarks(quick: bool = False) -> dict[str, Any]:
    """Run every section; returns the JSON-serialisable report."""
    return {
        "meta": {
            "quick": quick,
            "suite": "numerics",
            "dtype_policy": get_default_dtype().name,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "conv": bench_conv(quick),
        "supernet": bench_supernet_step(quick),
        "search": bench_search(quick),
    }


# ----------------------------------------------------- runtime bench suite
#: Reduced-scale geometry the runtime suite times the zoo at (full 224px
#: ImageNet shapes are not a single-CPU microbenchmark).
RUNTIME_BENCH_SCALE = {"width_mult": 0.25, "input_size": 32, "num_classes": 8}


def runtime_zoo_names() -> list[str]:
    """Zoo models the network builder (and thus the runtime) can instantiate."""
    from repro.baselines.model_zoo import buildable_models

    return buildable_models()


def bench_runtime(
    quick: bool = False, models: list[str] | None = None
) -> dict[str, Any]:
    """Engine.run vs ``BuiltNetwork.forward`` across the zoo at batch 1/8/32.

    The baseline is the only pre-runtime way to execute a derived spec: the
    eval-mode module forward, autograd graph and per-op allocations included.
    Each record carries both latencies, the speedup, the parity deviation
    (``max_abs_diff``) and the arena planner's footprint/reuse numbers; the
    headline is the geometric-mean batch-1 speedup across models.
    """
    from repro.autograd.tensor import Tensor
    from repro.baselines.model_zoo import get_model
    from repro.nas.arch_spec import scale_spec
    from repro.nas.network import build_network
    from repro.runtime import Engine, compile_spec

    batches = (1, 8) if quick else (1, 8, 32)
    repeats = 3 if quick else 7
    names = models if models is not None else runtime_zoo_names()
    rng = np.random.default_rng(7)
    records = []
    batch1_speedups = []
    for name in names:
        spec = scale_spec(get_model(name), **RUNTIME_BENCH_SCALE)
        net = build_network(spec, seed=0)
        # A couple of training-mode forwards give BN non-trivial running
        # stats, so the folded plan is exercised on realistic parameters.
        for _ in range(2):
            net(Tensor(rng.normal(size=(4, 3, spec.input_size, spec.input_size))))
        net.eval()
        engine = Engine(compile_spec(net))
        layout = engine.layout
        record: dict[str, Any] = {
            "name": name,
            "ops": len(engine.plan.ops),
            "arena_kib": engine.arena_bytes(1) / 1024.0,
            "arena_reuse": layout.reuse_factor,
            "arena_fragmentation": layout.fragmentation,
            "batches": [],
        }
        for batch in batches:
            x = rng.normal(size=(batch, 3, spec.input_size, spec.input_size))
            xt = Tensor(x)
            forward_s = _median_seconds(lambda: net(xt), repeats, warmup=1)
            engine_s = _median_seconds(lambda: engine.run(x), repeats, warmup=1)
            diff = float(np.max(np.abs(net(xt).data - engine.run(x))))
            speedup = forward_s / engine_s
            record["batches"].append({
                "batch": batch,
                "forward_ms": forward_s * 1e3,
                "engine_ms": engine_s * 1e3,
                "speedup": speedup,
                "max_abs_diff": diff,
            })
            if batch == 1:
                batch1_speedups.append(speedup)
        records.append(record)
    return {
        "scale": dict(RUNTIME_BENCH_SCALE),
        "batch_sizes": list(batches),
        "models": records,
        "geomean_batch1_speedup": float(
            np.exp(np.mean(np.log(batch1_speedups)))
        ) if batch1_speedups else float("nan"),
    }


def run_runtime_benchmarks(
    quick: bool = False, models: list[str] | None = None
) -> dict[str, Any]:
    """Run the runtime suite; returns the ``BENCH_runtime.json`` payload."""
    return {
        "meta": {
            "quick": quick,
            "suite": "runtime",
            "dtype_policy": get_default_dtype().name,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "runtime": bench_runtime(quick, models=models),
    }


def render_runtime_report(report: dict[str, Any]) -> str:
    """Human-readable summary of :func:`run_runtime_benchmarks` output."""
    section = report["runtime"]
    scale = section["scale"]
    lines = [
        f"runtime bench (dtype={report['meta']['dtype_policy']}, "
        f"width x{scale['width_mult']}, {scale['input_size']}px, "
        f"quick={report['meta']['quick']})",
        "",
        f"{'model':18s} {'batch':>5s} {'engine':>9s} {'forward':>9s} "
        f"{'speedup':>8s} {'max diff':>9s}",
    ]
    for record in section["models"]:
        for row in record["batches"]:
            lines.append(
                f"{record['name']:18s} {row['batch']:5d} "
                f"{row['engine_ms']:7.2f}ms {row['forward_ms']:7.2f}ms "
                f"{row['speedup']:7.1f}x {row['max_abs_diff']:9.1e}"
            )
        lines.append(
            f"{'':18s} arena {record['arena_kib']:.0f} KiB/sample, "
            f"reuse {record['arena_reuse']:.1f}x"
        )
    lines.append(
        f"\ngeomean batch-1 speedup: "
        f"{section['geomean_batch1_speedup']:.1f}x"
    )
    return "\n".join(lines)


# ---------------------------------------------------- training bench suite
#
# ``repro bench --suite training`` -> BENCH_training.json.  The conv sections
# compare the current hot path against stride>1 transposed-conv input
# gradients through the dilate-then-correlate oracle; the step and search
# sections record the supernet step and end-to-end search wall clock.

#: (batch, c_in, h/w, c_out, kernel, stride, padding, groups, small) — the
#: supernet's training conv population: search scale ("r_"), paper MBConv
#: widths ("p_"), and retrain-scale batch-32 cases ("t_").  ``small`` marks
#: the allocation-bound small-shape set the headline geomean covers.
TRAINING_CONV_CASES: dict[str, tuple[int, int, int, int, int, int, int, int, bool]] = {
    "r_expand1x1": (12, 16, 6, 64, 1, 1, 0, 1, True),
    "r_dw3x3": (12, 64, 6, 64, 3, 1, 1, 64, True),
    "r_dw5x5_s2": (12, 64, 6, 64, 5, 2, 2, 64, True),
    "r_stem3x3_s2": (12, 3, 12, 8, 3, 2, 1, 1, True),
    "p_expand1x1": (12, 16, 12, 96, 1, 1, 0, 1, True),
    "p_dw3x3": (12, 96, 12, 96, 3, 1, 1, 96, True),
    "p_dw5x5": (12, 96, 12, 96, 5, 1, 2, 96, True),
    "p_dw3x3_s2": (12, 96, 12, 96, 3, 2, 1, 96, True),
    "p_dw5x5_s2": (12, 96, 12, 96, 5, 2, 2, 96, True),
    "p_project1x1": (12, 96, 12, 32, 1, 1, 0, 1, True),
    "t_dw5x5_s2_b32": (32, 96, 14, 96, 5, 2, 2, 96, False),
    "t_dense3x3_s2_b32": (32, 32, 14, 64, 3, 2, 1, 1, False),
}

#: (batch, c_in, c_out, h, kernel, stride, groups) — stride>1 input-gradient
#: kernels timed head-to-head: phase decomposition vs the dilated oracle.
TCONV_GRAD_CASES: dict[str, tuple[int, int, int, int, int, int, int]] = {
    "dw3x3_s2": (12, 64, 64, 12, 3, 2, 64),
    "dw5x5_s2": (12, 64, 64, 12, 5, 2, 64),
    "dense3x3_s2": (16, 32, 64, 14, 3, 2, 1),
    "dense3x3_s3": (16, 32, 64, 15, 3, 3, 1),
    "dw5x5_s2_b32": (32, 96, 96, 14, 5, 2, 96),
}


@contextlib.contextmanager
def _dilated_input_grads() -> Iterator[None]:
    """Force stride>1 input gradients through the pre-PR dilated oracle."""
    original = ops_nn._conv_input_grad

    def dilated(grad, w_data, x_shape, stride, groups):
        return ops_nn._conv_input_grad_dilated(grad, w_data, x_shape, stride, groups)

    ops_nn._conv_input_grad = dilated
    try:
        yield
    finally:
        ops_nn._conv_input_grad = original


def bench_training_conv(quick: bool = False) -> dict[str, Any]:
    """Conv fwd+bwd per training case: phased vs dilated input gradients.

    Each case runs a leaf-to-scalar step (persistent parameter-style leaves,
    ``zero_grad`` per iteration, scalar root) as in the training loop.  The
    headline is the geometric-mean speedup over the small-shape
    (``small=True``) set, with the full-set geomean reported alongside.
    """
    repeats = 6 if quick else 15
    rng = np.random.default_rng(2026)
    cases = []
    for name, (n, c_in, h, c_out, k, s, p, g, small) in TRAINING_CONV_CASES.items():
        if quick and not small:
            continue
        xt = tensor(rng.normal(size=(n, c_in, h, h)), requires_grad=True)
        wt = tensor(rng.normal(size=(c_out, c_in // g, k, k)), requires_grad=True)

        def fwd_bwd():
            xt.zero_grad()
            wt.zero_grad()
            out = ops_nn.conv2d(xt, wt, stride=s, padding=p, groups=g)
            out.sum().backward()

        reps = max(3, repeats // 2) if n >= 32 else repeats
        # Interleave baseline/current samples so allocator drift and box
        # noise hit both sides equally.
        with _dilated_input_grads():
            fwd_bwd()
        fwd_bwd()
        base_samples, cur_samples = [], []
        for _ in range(reps):
            with _dilated_input_grads():
                start = time.perf_counter()
                fwd_bwd()
                base_samples.append(time.perf_counter() - start)
            start = time.perf_counter()
            fwd_bwd()
            cur_samples.append(time.perf_counter() - start)
        baseline = float(np.median(base_samples))
        current = float(np.median(cur_samples))
        xt.zero_grad()
        wt.zero_grad()
        cases.append({
            "name": name,
            "small": small,
            "shape": {"batch": n, "c_in": c_in, "hw": h, "c_out": c_out,
                      "kernel": k, "stride": s, "groups": g},
            "current_ms": current * 1e3,
            "baseline_ms": baseline * 1e3,
            "speedup": baseline / current,
        })
    small_speedups = [c["speedup"] for c in cases if c["small"]]
    all_speedups = [c["speedup"] for c in cases]
    return {
        "cases": cases,
        "geomean_speedup_small": float(np.exp(np.mean(np.log(small_speedups)))),
        "geomean_speedup": float(np.exp(np.mean(np.log(all_speedups)))),
    }


def bench_tconv_grad(quick: bool = False) -> dict[str, Any]:
    """Stride>1 transposed-conv input-grad kernels: phased vs dilated oracle.

    This is the kernel-level view of the phase decomposition — the same
    gradient computed both ways on identical inputs, plus the parity error
    (summation-order tolerance only).
    """
    repeats = 8 if quick else 20
    rng = np.random.default_rng(7)
    cases = []
    for name, (n, c_in, c_out, h, k, s, g) in TCONV_GRAD_CASES.items():
        if quick and n >= 32:
            continue
        out_h = (h - k) // s + 1
        grad = rng.normal(size=(n, c_out, out_h, out_h)).astype(get_default_dtype())
        weight = rng.normal(size=(c_out, c_in // g, k, k)).astype(get_default_dtype())
        x_shape = (n, c_in, h, h)
        reps = max(3, repeats // 2) if n >= 32 else repeats
        dilated = _median_seconds(
            lambda: ops_nn._conv_input_grad_dilated(grad, weight, x_shape, s, g),
            reps,
        )
        phased = _median_seconds(
            lambda: ops_nn._conv_input_grad_phased(grad, weight, x_shape, s, g),
            reps,
        )
        diff = float(np.max(np.abs(
            ops_nn._conv_input_grad_phased(grad, weight, x_shape, s, g)
            - ops_nn._conv_input_grad_dilated(grad, weight, x_shape, s, g)
        )))
        cases.append({
            "name": name,
            "stride": s,
            "kernel": k,
            "dilated_ms": dilated * 1e3,
            "phased_ms": phased * 1e3,
            "speedup": dilated / phased,
            "max_abs_diff": diff,
        })
    speedups = [c["speedup"] for c in cases]
    return {
        "cases": cases,
        "geomean_speedup": float(np.exp(np.mean(np.log(speedups)))),
    }


def bench_training_step(quick: bool = False) -> dict[str, Any]:
    """Median wall clock of one supernet weight step and one arch step."""
    repeats = 6 if quick else 16
    searcher, splits = _make_searcher()
    x, y = splits.train.images[:12], splits.train.labels[:12]
    xv, yv = splits.val.images[:12], splits.val.labels[:12]
    return {
        "weight_step_ms": _median_seconds(lambda: searcher.weight_step(x, y), repeats) * 1e3,
        "arch_step_ms": _median_seconds(lambda: searcher.arch_step(xv, yv), repeats) * 1e3,
    }


def bench_training_search(quick: bool = False) -> dict[str, Any]:
    """End-to-end ``api.search`` epoch wall clock.

    The same request runs twice; the two epoch histories must be
    bit-identical (``loss_parity``: same seed, same losses).
    """
    from repro import api

    request = api.SearchRequest(
        target="fpga_pipelined",
        epochs=2 if quick else 4,
        blocks=2 if quick else 3,
        seed=0,
        batch_size=12,
        arch_start_epoch=1,
        name="bench-training",
    )

    def run() -> tuple[float, list[tuple[float, ...]]]:
        start = time.perf_counter()
        report = api.search(request)
        wall = time.perf_counter() - start
        return wall, [
            (r.train_loss, r.val_acc_loss, r.total_loss)
            for r in report.result.history
        ]

    wall_a, history_a = run()
    wall_b, history_b = run()
    wall = min(wall_a, wall_b)

    def _same(a, b):
        return all(
            x == y or (np.isnan(x) and np.isnan(y))
            for ra, rb in zip(a, b) for x, y in zip(ra, rb)
        )

    return {
        "epochs": request.epochs,
        "blocks": request.blocks,
        "wall_seconds": wall,
        "epoch_seconds": wall / request.epochs,
        "loss_parity": len(history_a) == len(history_b)
        and _same(history_a, history_b),
    }


def run_training_benchmarks(quick: bool = False) -> dict[str, Any]:
    """Run the training suite; returns the ``BENCH_training.json`` payload."""
    return {
        "meta": {
            "quick": quick,
            "suite": "training",
            "dtype_policy": get_default_dtype().name,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "conv": bench_training_conv(quick),
        "tconv_grad": bench_tconv_grad(quick),
        "step": bench_training_step(quick),
        "search": bench_training_search(quick),
    }


def render_training_report(report: dict[str, Any]) -> str:
    """Human-readable summary of :func:`run_training_benchmarks` output."""
    lines = [
        f"training bench (dtype={report['meta']['dtype_policy']}, "
        f"numpy {report['meta']['numpy']}, quick={report['meta']['quick']})",
        "",
        f"{'conv case':20s} {'current':>10s} {'dilated':>10s} {'speedup':>8s}",
    ]
    for case in report["conv"]["cases"]:
        lines.append(
            f"{case['name']:20s} {case['current_ms']:8.2f}ms "
            f"{case['baseline_ms']:8.2f}ms {case['speedup']:7.2f}x"
        )
    lines.append(
        f"{'geomean (small set)':20s} {'':>10s} {'':>10s} "
        f"{report['conv']['geomean_speedup_small']:7.2f}x"
    )
    lines.append(
        f"{'geomean (all)':20s} {'':>10s} {'':>10s} "
        f"{report['conv']['geomean_speedup']:7.2f}x"
    )
    lines += ["", f"{'tconv grad case':20s} {'phased':>10s} {'dilated':>10s} {'speedup':>8s}"]
    for case in report["tconv_grad"]["cases"]:
        lines.append(
            f"{case['name']:20s} {case['phased_ms']:8.2f}ms "
            f"{case['dilated_ms']:8.2f}ms {case['speedup']:7.2f}x"
        )
    step = report["step"]
    search = report["search"]
    lines += [
        "",
        f"weight step {step['weight_step_ms']:7.1f}ms   "
        f"arch step {step['arch_step_ms']:7.1f}ms",
        f"api.search ({search['epochs']} epochs, {search['blocks']} blocks) "
        f"{search['epoch_seconds']:.2f}s/epoch  "
        f"same-seed loss parity: {search['loss_parity']}",
    ]
    return "\n".join(lines)


# ---------------------------------------------------- serving bench suite
#
# ``repro bench --suite serving`` -> BENCH_serving.json: replay deterministic
# open-loop traffic (Poisson steady load + bursts) against a ServingFleet at
# increasing worker counts, measuring served throughput, tail latency per
# model, admission-control behaviour (rejected/shed) and the weight-sharing
# memory ledger.  Offered load is calibrated from the measured single-engine
# batched throughput so the 1-worker fleet saturates — scaling headroom is
# then visible as served throughput, not hidden by an idle fleet.

SERVING_BENCH_SCALE = {"width_mult": 0.25, "input_size": 16, "num_classes": 8}


def bench_serving(
    quick: bool = False,
    workers_sweep: list[int] | None = None,
    kinds: tuple[str, ...] = ("thread", "process"),
) -> dict[str, Any]:
    """Traffic-replay serving benchmark: throughput/latency vs worker count.

    Sweeps the worker count for each worker tier in ``kinds`` (thread
    workers overlap only while BLAS releases the GIL; process workers own
    whole cores) and reports per-tier scaling plus a process-vs-thread
    comparison at the largest sweep point.
    """
    from repro.baselines.model_zoo import get_model
    from repro.nas.arch_spec import scale_spec
    from repro.runtime import Engine, compile_spec
    from repro.runtime.fleet import (
        ServingFleet,
        burst_trace,
        merge_traces,
        poisson_trace,
        replay,
    )

    names = runtime_zoo_names()[:2]
    max_batch = 8
    duration_s = 0.4 if quick else 1.5
    if workers_sweep is None:
        workers_sweep = [1, 2] if quick else [1, 2, 4]

    plans = {}
    inputs = {}
    arena_bytes = {}
    rng = np.random.default_rng(11)
    for name in names:
        spec = scale_spec(get_model(name), **SERVING_BENCH_SCALE)
        plans[name] = compile_spec(spec, seed=0)
        inputs[name] = rng.normal(
            size=(3, spec.input_size, spec.input_size)
        )
        arena_bytes[name] = Engine(plans[name]).arena_bytes(max_batch)

    # Calibrate offered load: measure each model's batched engine throughput
    # and offer ~75% of one worker's aggregate capacity per model, so two
    # tenants together oversubscribe a single worker by ~1.5x.
    rates = {}
    for name in names:
        engine = Engine(plans[name])
        batch = np.stack([inputs[name]] * max_batch)
        batch_s = _median_seconds(lambda: engine.run(batch), 3, warmup=1)
        rates[name] = 0.75 * max_batch / batch_s

    trace = merge_traces(*(
        [poisson_trace(name, rates[name], duration_s, seed=index)
         for index, name in enumerate(names)]
        + [burst_trace(name, bursts=2, burst_size=2 * max_batch,
                       gap_s=duration_s / 2)
           for name in names]
    ))

    tiers: dict[str, Any] = {}
    for kind in kinds:
        runs = []
        for workers in workers_sweep:
            with ServingFleet(
                plans, workers=workers, max_batch=max_batch, kind=kind
            ) as fleet:
                # Warm-up: every worker builds its engines before measuring
                # (process workers also pay their cold start here).
                warm = merge_traces(*(
                    [burst_trace(name, bursts=1, burst_size=workers * 2,
                                 gap_s=1.0)
                     for name in names]
                ))
                warm_record = replay(fleet, warm, inputs)
                record = replay(fleet, trace, inputs)
                stats = fleet.stats()
            per_model_p99 = {
                name: block["latency_ms"]["p99"]
                for name, block in record.get("per_model", {}).items()
            }
            shared = stats["weights"]["shared_bytes"]
            runs.append({
                "workers": workers,
                "kind": kind,
                "throughput_rps": record["throughput_rps"],
                "replay": record,
                "per_model_p99_ms": per_model_p99,
                "mean_batch": float(np.mean([
                    block["mean_batch"] for block in stats["models"].values()
                    if "mean_batch" in block
                ])),
                "warmup_requests": warm_record["completed"],
                "memory": {
                    "weights_shared_bytes": shared,
                    "weights_unshared_bytes": shared * workers,
                    "arena_bytes_per_worker": sum(arena_bytes.values()),
                    "est_fleet_bytes": shared
                    + workers * sum(arena_bytes.values()),
                },
            })
        base = runs[0]["throughput_rps"]
        tiers[kind] = {
            "runs": runs,
            "throughput_scaling_vs_1_worker": {
                str(run["workers"]): (
                    run["throughput_rps"] / base if base else 0.0
                )
                for run in runs
            },
        }
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus = os.cpu_count() or 1
    out: dict[str, Any] = {
        "scale": dict(SERVING_BENCH_SCALE),
        "models": names,
        "max_batch": max_batch,
        "duration_s": duration_s,
        "offered_rps": {name: rates[name] for name in names},
        "trace_events": len(trace),
        "kinds": list(kinds),
        "tiers": tiers,
        "host_cpus": cpus,
    }
    if len(tiers) > 1:
        top = str(max(workers_sweep))
        thread_top = tiers["thread"]["throughput_scaling_vs_1_worker"][top]
        process_top = tiers["process"]["throughput_scaling_vs_1_worker"][top]
        out["process_vs_thread_scaling_at_max_workers"] = (
            process_top / thread_top if thread_top else 0.0
        )
    if cpus < max(workers_sweep):
        out["note"] = (
            f"host exposes {cpus} CPU(s); worker counts beyond that cannot "
            "scale throughput here for either tier — thread workers overlap "
            "only when numpy kernels run on distinct cores (BLAS releases "
            "the GIL), and process workers still share the one core while "
            "paying pipe IPC per batch.  The process tier's scaling claim "
            "is only measurable on a multi-core host."
        )
    return out


def run_serving_benchmarks(
    quick: bool = False, workers_sweep: list[int] | None = None
) -> dict[str, Any]:
    """Run the serving suite; returns the ``BENCH_serving.json`` payload."""
    return {
        "meta": {
            "quick": quick,
            "suite": "serving",
            "dtype_policy": get_default_dtype().name,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "serving": bench_serving(quick, workers_sweep=workers_sweep),
    }


def render_serving_report(report: dict[str, Any]) -> str:
    """Human-readable summary of :func:`run_serving_benchmarks` output."""
    section = report["serving"]
    lines = [
        f"serving bench (models {', '.join(section['models'])}, "
        f"max_batch {section['max_batch']}, "
        f"{section['trace_events']} events over {section['duration_s']:.1f}s, "
        f"host cpus {section['host_cpus']}, quick={report['meta']['quick']})",
    ]
    last = None
    for kind in section["kinds"]:
        tier = section["tiers"][kind]
        lines += [
            "",
            f"[{kind} workers]",
            f"{'workers':>7s} {'served rps':>11s} {'scaling':>8s} "
            f"{'p50':>8s} {'p99':>8s} {'rej':>5s} {'shed':>5s} {'batch':>6s}",
        ]
        for run in tier["runs"]:
            replay_rec = run["replay"]
            lat = replay_rec.get("latency_ms", {})
            scaling = tier["throughput_scaling_vs_1_worker"][
                str(run["workers"])
            ]
            lines.append(
                f"{run['workers']:7d} {run['throughput_rps']:11.1f} "
                f"{scaling:7.2f}x {lat.get('p50', float('nan')):7.2f} "
                f"{lat.get('p99', float('nan')):7.2f} "
                f"{replay_rec['rejected']:5d} {replay_rec['shed']:5d} "
                f"{run['mean_batch']:6.2f}"
            )
        last = tier["runs"][-1]
    memory = last["memory"]
    lines.append(
        f"\nweights: {memory['weights_shared_bytes'] / 1024:.0f} KiB mapped "
        f"once (vs {memory['weights_unshared_bytes'] / 1024:.0f} KiB "
        f"unshared at {last['workers']} workers); arenas "
        f"{memory['arena_bytes_per_worker'] / 1024:.0f} KiB/worker"
    )
    for name, p99 in sorted(last["per_model_p99_ms"].items()):
        lines.append(f"p99[{name}] @ {last['workers']} workers: {p99:.2f} ms")
    if "process_vs_thread_scaling_at_max_workers" in section:
        lines.append(
            "process vs thread scaling at max workers: "
            f"{section['process_vs_thread_scaling_at_max_workers']:.2f}x"
        )
    if "note" in section:
        lines.append(f"note: {section['note']}")
    return "\n".join(lines)


# ----------------------------------------------------- search bench suite
#
# ``repro bench --suite search`` -> BENCH_search.json: the channels-last
# depthwise kernel against the im2col GEMM per arch-step depthwise shape,
# and the batched soft-mode evaluator (:mod:`repro.nas.batched`) against
# the serial per-candidate oracle it replaces — per block shape at the
# paper's MBConv widths, over full soft architecture steps, and over a
# bilevel epoch.  Serial numbers
# come from the same binary with ``REPRO_BATCHED_SOFT=0``, so the comparison
# is the kill-switch itself.  Weight steps sample hard architectures
# (``hard_weight_step=True``), so only the architecture half of the epoch is
# expected to move.

#: Paper-width channels at CPU-benchmarkable spatial size: the per-block
#: compute matches the N=20/M=9 search, only the resolution is scaled down.
SEARCH_BENCH_SCALE = {"input_size": 32, "num_classes": 16}


@contextlib.contextmanager
def _batched_soft(enabled: bool) -> Iterator[None]:
    """Scoped ``REPRO_BATCHED_SOFT`` toggle (restores the prior value)."""
    from repro.nas.batched import BATCHED_SOFT_ENV

    saved = os.environ.get(BATCHED_SOFT_ENV)
    os.environ[BATCHED_SOFT_ENV] = "1" if enabled else "0"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(BATCHED_SOFT_ENV, None)
        else:
            os.environ[BATCHED_SOFT_ENV] = saved


def _interleaved_min_cpu(
    fns: "dict[str, Callable[[], Any]]", rounds: int, warmup: int = 1
) -> dict[str, float]:
    """Minimum CPU seconds per config, sampled in interleaved rounds.

    Single-sample wall-clock comparisons on a shared box swing by 3x
    between runs; sequential per-config sampling then attributes machine
    noise to whichever config ran in the bad window.  Rotating through the
    configs each round and taking the per-config minimum of
    ``time.process_time()`` (CPU time is immune to scheduler gaps) makes
    the serial/batched ratios reproducible to a few percent.
    """
    for fn in fns.values():
        for _ in range(warmup):
            fn()
    samples: dict[str, list[float]] = {name: [] for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            start = time.process_time()
            fn()
            samples[name].append(time.process_time() - start)
    return {name: float(min(ts)) for name, ts in samples.items()}


def _paper_width_supernet():
    import dataclasses

    from repro.nas.quantization import QuantizationConfig
    from repro.nas.space import SearchSpaceConfig
    from repro.nas.supernet import SuperNet

    space = dataclasses.replace(
        SearchSpaceConfig.paper_scale(), **SEARCH_BENCH_SCALE
    )
    net = SuperNet(space, quant=QuantizationConfig.fpga(), seed=0)
    net.train()
    return space, net


def bench_search_blocks(quick: bool = False) -> dict[str, Any]:
    """Soft mixture forward+backward per block shape, serial vs batched.

    Walks the paper-scale supernet's stem and blocks once to capture each
    block's real input activations, then times one representative block per
    distinct ``(c_in, c_out, stride, resolution)`` shape through both the
    serial oracle (``SuperNet._soft_mixture_serial``) and the batched
    evaluator (:func:`repro.nas.batched.soft_block_mixture`).
    """
    from repro.nas.batched import soft_block_mixture
    from repro.nas.gumbel import GumbelSoftmax

    space, net = _paper_width_supernet()
    sampler = GumbelSoftmax(seed=7)
    sample = net.sample(sampler, hard=False)
    rng = np.random.default_rng(0)
    batch = 2 if quick else 4
    x = Tensor(rng.standard_normal(
        (batch, space.input_channels, space.input_size, space.input_size)
    ))
    # Stem prologue mirrors SuperNet.forward so block inputs are authentic.
    out = net.stem_conv(x)
    out = ops_nn.relu6(net.stem_dw_bn(
        ops_nn.conv2d(out, net.stem_dw.weight, stride=1,
                      padding=net.stem_dw.padding, groups=net.stem_dw.groups)
    ))
    out = net.stem_pw(out)
    out = net.stem_out(out)
    inputs: list[np.ndarray] = []
    for i, row in enumerate(net._candidates):
        inputs.append(out.data.copy())
        out = net._soft_mixture_serial(i, row, out, sample)

    representative: dict[tuple[int, int, int, int], int] = {}
    for i in range(space.num_blocks):
        key = (inputs[i].shape[1], space.block_channels[i],
               space.block_strides[i], inputs[i].shape[2])
        representative.setdefault(key, i)
    params = [p for _, p in net.named_parameters()]
    rounds = 2 if quick else 5
    cases = []
    for (c_in, c_out, stride, res), i in sorted(
        representative.items(), key=lambda kv: kv[1]
    ):
        row = net._candidates[i]
        xin = inputs[i]

        def serial_once(i=i, row=row, xin=xin):
            for p in params:
                p.zero_grad()
            y = net._soft_mixture_serial(i, row, Tensor(xin.copy()), sample)
            y.backward(np.ones_like(y.data))

        def batched_once(i=i, row=row, xin=xin):
            for p in params:
                p.zero_grad()
            y = soft_block_mixture(i, row, Tensor(xin.copy()), sample, net.quant)
            y.backward(np.ones_like(y.data))

        timed = _interleaved_min_cpu(
            {"serial": serial_once, "batched": batched_once}, rounds
        )
        cases.append({
            "name": f"b{i:02d}_{c_in}to{c_out}_s{stride}_r{res}",
            "serial_ms": timed["serial"] * 1e3,
            "batched_ms": timed["batched"] * 1e3,
            "speedup": timed["serial"] / timed["batched"],
        })
    geomean = float(np.exp(np.mean([np.log(c["speedup"]) for c in cases])))
    return {"batch": batch, "cases": cases, "geomean_speedup": geomean}


def _arch_step_dw_shapes(searcher) -> list[tuple[int, int, int, int]]:
    """(channels, resolution, k, stride) of every depthwise conv that one
    soft arch step of ``searcher`` runs, sorted.

    Walks the supernet's candidate rows as
    :func:`repro.nas.batched.soft_block_mixture` buckets them: a kernel-size
    bucket of at least ``MIN_BUCKET_CANDIDATES`` MBConv candidates runs one
    conv over its stacked expanded channels, a smaller bucket runs each
    candidate's own conv.
    """
    from repro.nas.batched import MIN_BUCKET_CANDIDATES, _is_mbconv

    net = searcher.supernet
    shapes = set()
    for geom, row in zip(net.space.block_geometries(), net._candidates):
        buckets: dict[int, list[int]] = {}
        for cand in row:
            if _is_mbconv(cand):
                buckets.setdefault(cand.op.kernel, []).append(
                    cand.expand.out_channels
                )
        for k, widths in buckets.items():
            if len(widths) >= MIN_BUCKET_CANDIDATES:
                widths = [sum(widths)]
            shapes.update((c, geom.in_h, k, geom.stride) for c in widths)
    return sorted(shapes)


def bench_search_kernel(quick: bool = False) -> dict[str, Any]:
    """Depthwise conv fwd+bwd per arch-step shape: kernel vs im2col GEMM.

    Times ``ops_nn._depthwise_conv`` (the kernel every depthwise conv runs)
    against ``ops_nn._im2col_conv`` (the grouped-conv path, which depthwise
    convs ran before the kernel) on the same leaves, over the depthwise
    shapes of the paper-width arch step (:func:`_arch_step_dw_shapes` of :func:`_make_paper_searcher`, at
    its batch size).  Samples interleave (see
    :func:`_interleaved_min_cpu`); ``kernel_speedup`` is the geometric mean
    of the per-shape ratios.
    """
    rounds = 3 if quick else 7
    rng = np.random.default_rng(0)
    searcher, _ = _make_paper_searcher()
    batch = searcher.config.batch_size
    shapes = _arch_step_dw_shapes(searcher)
    del searcher

    def fwd_bwd(conv, x, w, stride, pad):
        x.zero_grad()
        w.zero_grad()
        if conv == "im2col":
            out = ops_nn._im2col_conv(ops_nn.pad2d(x, pad), w, stride,
                                      x.shape[1], "dwconv2d")
        else:
            out = ops_nn._depthwise_conv(x, w, stride, pad)
        out.sum().backward()

    cases = []
    for channels, res, k, stride in shapes:
        x = tensor(rng.standard_normal((batch, channels, res, res)),
                   requires_grad=True)
        w = tensor(rng.standard_normal((channels, 1, k, k)),
                   requires_grad=True)
        timed = _interleaved_min_cpu({
            conv: functools.partial(fwd_bwd, conv, x, w, stride, k // 2)
            for conv in ("im2col", "kernel")
        }, rounds)
        x.zero_grad()
        w.zero_grad()
        cases.append({
            "name": f"c{channels}_r{res}_k{k}_s{stride}",
            "im2col_ms": timed["im2col"] * 1e3,
            "kernel_ms": timed["kernel"] * 1e3,
            "speedup": timed["im2col"] / timed["kernel"],
        })
    geomean = float(np.exp(np.mean([np.log(c["speedup"]) for c in cases])))
    return {"batch": batch, "cases": cases, "kernel_speedup": geomean}


def _make_paper_searcher():
    import dataclasses

    from repro.core.config import EDDConfig
    from repro.core.cosearch import EDDSearcher
    from repro.data.synthetic import SyntheticTaskConfig, make_synthetic_task
    from repro.nas.space import SearchSpaceConfig

    space = dataclasses.replace(
        SearchSpaceConfig.paper_scale(), **SEARCH_BENCH_SCALE
    )
    splits = make_synthetic_task(SyntheticTaskConfig(
        num_classes=SEARCH_BENCH_SCALE["num_classes"],
        image_size=SEARCH_BENCH_SCALE["input_size"],
        train_per_class=2, val_per_class=2, test_per_class=1, seed=0,
    ))
    config = EDDConfig(target="fpga_pipelined", epochs=2, batch_size=4,
                       seed=0, arch_start_epoch=0)
    searcher = EDDSearcher(space, splits, config)
    searcher.calibrate_alpha()
    return searcher, splits


def bench_search_arch_step(quick: bool = False) -> dict[str, Any]:
    """Full soft architecture steps at paper widths, serial vs batched.

    ``EDDSearcher.arch_step`` draws a soft sample (``hard_arch_step=False``)
    and runs forward+backward over all M candidates of every block.  Two
    configurations:

    * ``serial`` — the per-candidate loop (the always-on oracle);
    * ``batched`` — the fused multi-candidate evaluator.

    Each configuration steps its own identically-seeded searcher; the
    toggle wraps only the timed call, and the rounds interleave (see
    :func:`_interleaved_min_cpu`).
    """
    rounds = 2 if quick else 7
    setups = {"serial": False, "batched": True}
    searchers = {}
    for name in setups:
        searcher, splits = _make_paper_searcher()
        xv = splits.val.images[:4]
        yv = splits.val.labels[:4]
        searchers[name] = (searcher, xv, yv)

    def step(name: str):
        searcher, xv, yv = searchers[name]
        with _batched_soft(setups[name]):
            searcher.arch_step(xv, yv)

    timed = _interleaved_min_cpu(
        {name: (lambda name=name: step(name)) for name in setups}, rounds
    )
    return {
        "serial_ms": timed["serial"] * 1e3,
        "batched_ms": timed["batched"] * 1e3,
        "speedup": timed["serial"] / timed["batched"],
    }


def bench_search_epoch(quick: bool = False) -> dict[str, Any]:
    """Bilevel epoch CPU time (weight steps + arch steps), serial vs batched.

    Paper widths at truncated depth so a full epoch stays a CPU benchmark.
    Weight steps use hard samples and are unaffected by the batched soft
    path, so only the architecture half of the epoch is expected to move.
    """
    import dataclasses

    from repro.core.config import EDDConfig
    from repro.core.cosearch import EDDSearcher
    from repro.data.synthetic import SyntheticTaskConfig, make_synthetic_task
    from repro.nas.space import SearchSpaceConfig

    space = dataclasses.replace(
        SearchSpaceConfig.paper_scale(),
        block_channels=(32, 40, 80, 96),
        block_strides=(1, 2, 2, 1),
        **SEARCH_BENCH_SCALE,
    )
    splits = make_synthetic_task(SyntheticTaskConfig(
        num_classes=SEARCH_BENCH_SCALE["num_classes"],
        image_size=SEARCH_BENCH_SCALE["input_size"],
        train_per_class=1 if quick else 2,
        val_per_class=1, test_per_class=1, seed=0,
    ))
    batch = 8
    setups = {"serial": False, "batched": True}
    searchers = {}
    for name in setups:
        config = EDDConfig(target="fpga_pipelined", epochs=2,
                           batch_size=batch, seed=0, arch_start_epoch=0)
        searcher = EDDSearcher(space, splits, config)
        searcher.calibrate_alpha()
        searchers[name] = searcher
    train, val = splits.train, splits.val
    steps: dict[str, int] = {}

    def epoch(name: str):
        searcher = searchers[name]
        n_w = n_a = 0
        with _batched_soft(setups[name]):
            for lo in range(0, len(train.labels), batch):
                searcher.weight_step(train.images[lo:lo + batch],
                                     train.labels[lo:lo + batch])
                n_w += 1
            for lo in range(0, len(val.labels), batch):
                searcher.arch_step(val.images[lo:lo + batch],
                                   val.labels[lo:lo + batch])
                n_a += 1
        steps["weight_steps"] = n_w
        steps["arch_steps"] = n_a

    timed = _interleaved_min_cpu(
        {name: (lambda name=name: epoch(name)) for name in setups},
        rounds=1 if quick else 2, warmup=0 if quick else 1,
    )
    return {
        "blocks": space.num_blocks,
        **steps,
        "serial_seconds": timed["serial"],
        "batched_seconds": timed["batched"],
        "speedup": timed["serial"] / timed["batched"],
    }


def bench_search_parity(quick: bool = False) -> dict[str, Any]:
    """Batched-vs-serial parity in float64: loss, every grad, every buffer.

    Runs the same soft forward+backward through both evaluators on fresh
    identically-seeded supernets (reduced space with a stride-2 block, with
    and without skip candidates) and reports worst-case absolute
    differences.  Only GEMM/sum association differs between the paths, so
    the float64 tolerance is 1e-11; ``parity_ok`` is the CI guard.
    """
    import dataclasses

    from repro.nas.gumbel import GumbelSoftmax
    from repro.nas.quantization import QuantizationConfig
    from repro.nas.space import SearchSpaceConfig
    from repro.nas.supernet import SuperNet
    from repro.nn.functional import cross_entropy

    worst = {"loss": 0.0, "grad": 0.0, "buffer": 0.0}
    with default_dtype(np.float64):
        base = SearchSpaceConfig.reduced()
        spaces = [base, dataclasses.replace(base, allow_skip=True)]
        quants = [QuantizationConfig.fpga(), None]
        rng = np.random.default_rng(42)
        for space in spaces:
            for quant in quants:
                x = rng.standard_normal((3, 3, space.input_size,
                                         space.input_size))
                y = rng.integers(0, space.num_classes, size=3)
                outs = {}
                for batched in (False, True):
                    with _batched_soft(batched):
                        net = SuperNet(space, quant=quant, seed=0)
                        net.train()
                        sample = net.sample(GumbelSoftmax(seed=7), hard=False)
                        loss = cross_entropy(net(Tensor(x.copy()),
                                                 sample=sample), y)
                        loss.backward()
                        outs[batched] = (
                            float(loss.data),
                            {n: None if p.grad is None else p.grad.copy()
                             for n, p in net.named_parameters()},
                            {n: b.copy() for n, b in net.named_buffers()},
                        )
                l0, g0, b0 = outs[False]
                l1, g1, b1 = outs[True]
                worst["loss"] = max(worst["loss"], abs(l0 - l1))
                for n in g0:
                    if g0[n] is None or g1[n] is None:
                        if g0[n] is not g1[n]:
                            worst["grad"] = float("inf")
                        continue
                    worst["grad"] = max(
                        worst["grad"], float(np.max(np.abs(g0[n] - g1[n])))
                    )
                for n in b0:
                    worst["buffer"] = max(
                        worst["buffer"], float(np.max(np.abs(b0[n] - b1[n])))
                    )
    tol = 1e-11
    return {
        "worst_loss_diff": worst["loss"],
        "worst_grad_diff": worst["grad"],
        "worst_buffer_diff": worst["buffer"],
        "tolerance": tol,
        "parity_ok": all(v <= tol for v in worst.values()),
    }


#: Honest reading of the committed numbers, embedded in the report: what
#: sped the search up, what did not, and which candidates never batch.
SEARCH_BENCH_NOTE = (
    "Per-op profiling at paper widths showed the soft step is "
    "compute-bound, not dispatch-bound, and dominated by depthwise convs: "
    "before the channels-last kernel they were ~64% of search time, in an "
    "NCHW einsum and the im2col grouped GEMM that each ran at tens of "
    "M MAC/s. Every depthwise conv now runs one channels-last kernel "
    "(ops_nn._depthwise_conv); 'kernel.kernel_speedup' is its op-level "
    "fwd+bwd geomean against the im2col GEMM over this arch step's "
    "depthwise shapes. 'speedup' (batched vs the serial oracle, both on "
    "the kernel) stays near 1.0 at paper widths, where arithmetic, "
    "identical in both evaluators, dominates and fusing M dispatches buys "
    "little. Fallbacks that always run serial: skip candidates, eval-mode "
    "passes, and singleton kernel buckets (a space with one expansion "
    "ratio per kernel batches nothing)."
)


def run_search_benchmarks(quick: bool = False) -> dict[str, Any]:
    """Run the search suite; returns the ``BENCH_search.json`` payload."""
    blocks = bench_search_blocks(quick)
    kernel = bench_search_kernel(quick)
    arch = bench_search_arch_step(quick)
    epoch = bench_search_epoch(quick)
    parity = bench_search_parity(quick)
    return {
        "meta": {
            "quick": quick,
            "suite": "search",
            "dtype_policy": get_default_dtype().name,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "note": SEARCH_BENCH_NOTE,
        "blocks": blocks,
        "kernel": kernel,
        "arch_step": arch,
        "epoch": epoch,
        "parity": parity,
    }


def render_search_report(report: dict[str, Any]) -> str:
    """Human-readable summary of :func:`run_search_benchmarks` output."""
    lines = [
        f"search bench (dtype={report['meta']['dtype_policy']}, "
        f"numpy {report['meta']['numpy']}, quick={report['meta']['quick']})",
        "",
        f"{'block shape':26s} {'serial':>10s} {'batched':>10s} {'speedup':>8s}",
    ]
    for case in report["blocks"]["cases"]:
        lines.append(
            f"{case['name']:26s} {case['serial_ms']:8.1f}ms "
            f"{case['batched_ms']:8.1f}ms {case['speedup']:7.2f}x"
        )
    lines.append(
        f"{'geomean':26s} {'':>10s} {'':>10s} "
        f"{report['blocks']['geomean_speedup']:7.2f}x"
    )
    kernel = report["kernel"]
    lines += [
        "",
        f"{'depthwise fwd+bwd':26s} {'im2col':>10s} {'kernel':>10s} {'speedup':>8s}",
    ]
    for case in kernel["cases"]:
        lines.append(
            f"{case['name']:26s} {case['im2col_ms']:8.2f}ms "
            f"{case['kernel_ms']:8.2f}ms {case['speedup']:7.2f}x"
        )
    lines.append(
        f"{'geomean (kernel_speedup)':26s} {'':>10s} {'':>10s} "
        f"{kernel['kernel_speedup']:7.2f}x"
    )
    arch = report["arch_step"]
    epoch = report["epoch"]
    parity = report["parity"]
    lines += [
        "",
        f"soft arch step (paper widths) {arch['serial_ms']:8.0f}ms serial -> "
        f"{arch['batched_ms']:8.0f}ms batched ({arch['speedup']:.2f}x)",
        f"bilevel epoch ({epoch['blocks']} blocks, {epoch['weight_steps']}w+"
        f"{epoch['arch_steps']}a steps) {epoch['serial_seconds']:.2f}s -> "
        f"{epoch['batched_seconds']:.2f}s ({epoch['speedup']:.2f}x batched "
        f"vs serial; weight steps are hard-sampled and unaffected)",
        f"float64 parity: loss {parity['worst_loss_diff']:.2e}, grad "
        f"{parity['worst_grad_diff']:.2e}, buffers "
        f"{parity['worst_buffer_diff']:.2e} (tol {parity['tolerance']:.0e}) "
        f"-> {'OK' if parity['parity_ok'] else 'FAIL'}",
        "",
        f"note: {report['note']}",
    ]
    return "\n".join(lines)


def write_report(report: dict[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def render_report(report: dict[str, Any]) -> str:
    """Human-readable summary of :func:`run_benchmarks` output."""
    lines = [
        f"numerics bench (dtype={report['meta']['dtype_policy']}, "
        f"numpy {report['meta']['numpy']}, quick={report['meta']['quick']})",
        "",
        f"{'conv case':16s} {'current':>10s} {'baseline':>10s} {'speedup':>8s}",
    ]
    for case in report["conv"]["cases"]:
        lines.append(
            f"{case['name']:16s} {case['current_ms']:8.2f}ms "
            f"{case['baseline_ms']:8.2f}ms {case['speedup']:7.1f}x"
        )
    lines.append(
        f"{'geomean':16s} {'':>10s} {'':>10s} "
        f"{report['conv']['geomean_speedup']:7.1f}x"
    )
    sup = report["supernet"]
    lines += [
        "",
        f"supernet weight step {sup['weight_step_ms']:7.1f}ms "
        f"(baseline {sup['baseline_weight_step_ms']:.1f}ms, "
        f"{sup['weight_step_speedup']:.1f}x)",
        f"supernet arch step   {sup['arch_step_ms']:7.1f}ms "
        f"(baseline {sup['baseline_arch_step_ms']:.1f}ms, "
        f"{sup['arch_step_speedup']:.1f}x)",
    ]
    search = report["search"]
    lines.append(
        f"api.search ({search['epochs']} epochs, {search['blocks']} blocks) "
        f"{search['wall_seconds']:.2f}s (baseline "
        f"{search['baseline_wall_seconds']:.2f}s, {search['speedup']:.1f}x)"
    )
    if search.get("phase_seconds"):
        shares = ", ".join(
            f"{phase}={seconds:.2f}s"
            for phase, seconds in search["phase_seconds"].items()
        )
        lines.append(f"  engine phases: {shares}")
    return "\n".join(lines)
