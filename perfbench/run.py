"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload search-reduced --seed 1 --seconds 25 --trace 0

It prints a human-readable table, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics with the program's tracing off; ``--trace 1`` repeats the
work with spans recorded around each layer and reports the per-layer
metrics.  Full results (and, traced, the spans) go to ``perfbench/out/``.
Exit status: 0 when every output check passed, 1 when one failed, 2 when the
program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"

#: BLAS/OpenMP thread variables pinned to 1 before numpy loads: one thread
#: per process keeps the fleet worker and the load generator off each
#: other's cores and makes runs comparable across hosts.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

WORKLOAD_NAMES = ("search-reduced", "search-paper", "serve-open", "estimate-zoo")

#: End-to-end metrics every workload reports: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
)

_TENANTS = ("EDD-Net-1", "MobileNet-V2")
_RATES = (250, 500, 1000, 2000)

#: Per-layer metrics of a traced run: (name, unit).  A workload that never
#: enters a layer reports 0 for it.
PER_LAYER = (
    ("core.engine.weight_phase_s", "s"),
    ("core.engine.arch_phase_s", "s"),
    ("core.engine.other_s", "s"),
    ("core.engine.unattributed_ms", "ms"),
    ("core.cosearch.weight_step_ms.p50", "ms"),
    ("core.cosearch.weight_step_ms.p90", "ms"),
    ("core.cosearch.arch_step_ms.p50", "ms"),
    ("core.cosearch.arch_step_ms.p90", "ms"),
    ("core.cosearch.weight_steps", "count"),
    ("core.cosearch.arch_steps", "count"),
    ("nas.forward_ms.weight", "ms"),
    ("nas.forward_ms.arch", "ms"),
    ("autograd.backward_ms.weight", "ms"),
    ("autograd.backward_ms.arch", "ms"),
    ("nn.optim.sgd_step_ms", "ms"),
    ("nn.optim.adam_step_ms", "ms"),
    ("nas.sample_ms", "ms"),
    ("hw.evaluate_ms", "ms"),
    ("hw.project_ms", "ms"),
    ("nas.supernet_init_ms", "ms"),
    ("hw.build_model_ms", "ms"),
    ("search.traced_wall_ms", "ms"),
    ("runtime.compile_ms", "ms"),
    ("fleet.start_ms", "ms"),
    *(
        (f"runtime.engine.run_ms.b{batch}.{tenant}", "ms")
        for tenant in _TENANTS for batch in (1, 8)
    ),
    *(
        (f"runtime.op_ms.{kind}.{tenant}", "ms")
        for tenant in _TENANTS for kind in ("conv", "gap", "linear", "other")
    ),
    *(
        (f"fleet.{name}.r{rate}", unit)
        for rate in _RATES
        for name, unit in (
            ("queue_wait_ms.p50", "ms"), ("queue_wait_ms.p99", "ms"),
            ("dispatch_ms.p50", "ms"), ("compute_ms.p50", "ms"),
            ("batch_size.mean", "count"), ("utilization", "share"),
            ("rejected", "count"), ("shed", "count"), ("failed", "count"),
        )
    ),
    ("serve.generator_late_ms.p99", "ms"),
    ("hw.analytic.gpu_ms", "ms"),
    ("hw.analytic.fpga_recursive_ms", "ms"),
    ("hw.analytic.fpga_pipelined_ms", "ms"),
    ("hw.analytic.accel_ms", "ms"),
    ("api.estimate.overhead_ms", "ms"),
    ("trace.overhead", "ratio"),
)

#: Fresh interpreters timing the program's imports for ``setup_s``: how many
#: run before the workload and how many after it.  Importing is Python-bound,
#: so each probe also times the host-speed reference right after importing.
IMPORT_PROBES = (3, 2)
_IMPORT_CODE = (
    "import time; t = time.perf_counter(); "
    "import repro.api, repro.core, repro.nas, repro.hw, repro.runtime, "
    "repro.runtime.fleet; seconds = time.perf_counter() - t; "
    "from perfbench.hostspeed import reference_seconds; "
    "print(seconds, reference_seconds())"
)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def import_seconds(env: dict[str, str], probes: int) -> list[tuple[float, float]]:
    """Import time of the program's packages in ``probes`` fresh interpreters.

    Each sample is ``(seconds, reference_s)``: the import time and the
    host-speed reference time measured in the same interpreter.
    """
    samples = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120,
        )
        seconds, reference_s = out.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(reference_s)))
    return samples


def manifest(args: argparse.Namespace) -> dict:
    """Revision, interpreter, numpy/BLAS, CPUs, thread and REPRO_* variables."""
    import numpy as np

    from repro.autograd.tensor import get_default_dtype

    revision = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
        revision = git.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "revision": revision,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads_pinned": 1,
        "repro_vars": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "dtype_policy": str(get_default_dtype()),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [env.get("PYTHONPATH")])]
    )
    sys.path[:0] = [str(src), str(ROOT)]

    imports = import_seconds(env, IMPORT_PROBES[0])
    from perfbench.hostspeed import at_reference_speed
    from perfbench.workloads import WORKLOADS

    info = manifest(args)
    started = time.perf_counter()
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    elapsed = time.perf_counter() - started
    imports += import_seconds(env, IMPORT_PROBES[1])

    import_s = statistics.median(at_reference_speed(s, ref) for s, ref in imports)
    import_raw_s = statistics.median(s for s, _ in imports)
    build_s = statistics.median(outcome.setup_samples)
    end_to_end = {
        "setup_s": import_s + build_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_s": outcome.throughput_per_s,
    }
    correct = all(outcome.checks.values())
    problems = [name for name, value in {**end_to_end, **outcome.per_layer}.items()
                if not math.isfinite(value)]
    if problems:
        outcome.checks["metrics_finite"] = correct = False

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ({elapsed:.1f} s)")
    print(f"# manifest {json.dumps(info, sort_keys=True)}")
    print("end-to-end:")
    notes = {
        "setup_s": f"imports {import_s:.4g} s at reference speed ({import_raw_s:.4g} s "
                   f"measured, median of {len(imports)}) + "
                   f"build {build_s:.4g} s (median of {len(outcome.setup_samples)})",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for name, unit in END_TO_END:
        print(f"  {name:<34} {end_to_end[name]:>12.6g} {unit:<6} {notes.get(name, '')}")
    print("workload figures:")
    for name, (value, unit, note) in outcome.details.items():
        print(f"  {name:<34} {value:>12.6g} {unit:<6} {note}")
    print("checks:")
    for name, ok in outcome.checks.items():
        print(f"  {name:<34} {'ok' if ok else 'FAILED'}")
    if problems:
        print(f"  non-finite metrics: {', '.join(problems)}")

    metrics: dict[str, dict] = {}
    if args.trace:
        print("per-layer:")
        for name, unit in PER_LAYER:
            value = outcome.per_layer.get(name, 0.0)
            metrics[name] = {"value": value, "unit": unit}
            if name in outcome.per_layer:
                print(f"  {name:<34} {value:>12.6g} {unit}")
        extra = sorted(set(outcome.per_layer) - {name for name, _ in PER_LAYER})
        for name in extra:
            print(f"  {name:<34} {outcome.per_layer[name]:>12.6g} (not a listed metric)")
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "manifest": info,
        "end_to_end": end_to_end,
        "details": {k: list(v) for k, v in outcome.details.items()},
        "checks": outcome.checks,
        "per_layer": outcome.per_layer,
        "import_s": imports,
        "setup_samples_s": outcome.setup_samples,
    }, indent=1, default=str))
    if args.trace:
        from perfbench.spans import write_spans

        write_spans(outcome.spans, OUT_DIR / f"{stem}.spans.jsonl")

    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
