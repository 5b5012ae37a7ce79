"""Built-in benchmark suites over the repo's hot paths.

The suites cover every headline speed claim from PRs 2–7:

* ``throughput``        — training steps/sec, ``numpy`` vs ``numpy-fast``
  (PR 2);
* ``pipeline``          — loader samples/sec, legacy per-sample loader vs
  the vectorized ``PipelineLoader`` (PR 4);
* ``dataparallel-proc`` — data-parallel (forked workers, shared-memory
  gradient exchange) samples/sec at world_size 1 and 2 (PR 7);
* ``serving``           — dynamic micro-batching vs batch-1 requests/sec
  (PR 3);
* ``telemetry-overhead`` — span-tracing cost on the Trainer hot loop,
  steps/sec enabled vs disabled (PR 8).

Each body performs ONE measurement at the resolved budget; warmup/repeat and
the noise summary live in :mod:`repro.bench.runner`.  Budgets are deliberately
small even at the full setting — these suites exist to detect *relative*
regressions between two commits on one host, not to reproduce the paper's
absolute numbers (the standalone ``benchmarks/bench_*.py`` scripts keep the
richer one-off analyses: seed-engine baselines, parity asserts, HTTP
transport, artifact-size comparisons).
"""

from __future__ import annotations

from typing import Dict

from repro.bench.contract import MetricSpec
from repro.bench.registry import SuiteBudget, register_suite

STEPS_PER_SEC = "steps/s"
SAMPLES_PER_SEC = "samples/s"
REQUESTS_PER_SEC = "req/s"
RATIO = "x"
MILLISECONDS = "ms"


@register_suite(
    "throughput",
    "training steps/sec on the ResNet cell: numpy vs numpy-fast backends",
    metrics=(
        MetricSpec("numpy_steps_per_sec", STEPS_PER_SEC),
        MetricSpec("numpy_fast_steps_per_sec", STEPS_PER_SEC),
        MetricSpec("numpy_fast_speedup", RATIO,
                   description="numpy-fast over numpy steps/sec"),
    ),
    default_backend="numpy-fast",
    tags=("training", "hot"),
)
def throughput_suite(budget: SuiteBudget) -> Dict[str, float]:
    from repro.bench.workloads import training_step_rate

    steps = budget.resolve_iters(full_default=8, tiny_default=2)
    slow = training_step_rate(backend="numpy", steps=steps)
    fast = training_step_rate(backend="numpy-fast", steps=steps)
    return {
        "numpy_steps_per_sec": slow["steps_per_sec"],
        "numpy_fast_steps_per_sec": fast["steps_per_sec"],
        "numpy_fast_speedup": fast["steps_per_sec"] / max(slow["steps_per_sec"], 1e-9),
    }


@register_suite(
    "compiled-throughput",
    "training steps/sec, numpy-fast vs the graph-captured numpy-compiled "
    "backend, measured in drift-cancelling A-B-B-A blocks on the ResNet "
    "and DeiT cells",
    metrics=(
        MetricSpec("numpy_fast_steps_per_sec", STEPS_PER_SEC),
        MetricSpec("numpy_compiled_steps_per_sec", STEPS_PER_SEC),
        MetricSpec("compiled_speedup", RATIO,
                   description="numpy-compiled over numpy-fast steps/sec (ResNet cell)"),
        MetricSpec("deit_compiled_speedup", RATIO,
                   description="numpy-compiled over numpy-fast steps/sec (DeiT cell)"),
    ),
    default_backend="numpy-compiled",
    tags=("training", "hot"),
)
def compiled_throughput_suite(budget: SuiteBudget) -> Dict[str, float]:
    from repro.bench.workloads import training_step_pair

    steps = budget.resolve_iters(full_default=2, tiny_default=1)
    blocks = 2 if budget.tiny else 4
    resnet = training_step_pair(steps=steps, blocks=blocks)
    deit = training_step_pair("deit_micro", width_mult=None, batch_size=8,
                              image_size=16, num_classes=8,
                              optimizer_name="adamw", steps=steps, blocks=blocks)
    return {
        "numpy_fast_steps_per_sec": resnet["a_steps_per_sec"],
        "numpy_compiled_steps_per_sec": resnet["b_steps_per_sec"],
        "compiled_speedup": resnet["b_steps_per_sec"] / max(resnet["a_steps_per_sec"], 1e-9),
        "deit_compiled_speedup": deit["b_steps_per_sec"] / max(deit["a_steps_per_sec"], 1e-9),
    }


@register_suite(
    "pipeline",
    "input-pipeline samples/sec: legacy per-sample loader vs vectorized",
    metrics=(
        MetricSpec("legacy_samples_per_sec", SAMPLES_PER_SEC),
        MetricSpec("vectorized_samples_per_sec", SAMPLES_PER_SEC),
        MetricSpec("vectorized_speedup", RATIO,
                   description="vectorized over legacy loader-only samples/sec"),
    ),
    tags=("data", "hot"),
)
def pipeline_suite(budget: SuiteBudget) -> Dict[str, float]:
    from repro.bench.workloads import loader_throughput

    epochs = budget.resolve_iters(full_default=2, tiny_default=1)
    samples = 256 if budget.tiny else 1024
    results = loader_throughput(samples=samples, epochs=epochs)
    legacy = results["legacy"]["samples_per_sec"]
    vectorized = results["vectorized"]["samples_per_sec"]
    return {
        "legacy_samples_per_sec": legacy,
        "vectorized_samples_per_sec": vectorized,
        "vectorized_speedup": vectorized / max(legacy, 1e-9),
    }


@register_suite(
    "dataparallel-proc",
    "data-parallel samples/sec at world_size 1 and 2 "
    "(forked workers, shared-memory gradient exchange)",
    metrics=(
        MetricSpec("proc_ws1_samples_per_sec", SAMPLES_PER_SEC),
        MetricSpec("proc_ws2_samples_per_sec", SAMPLES_PER_SEC),
        MetricSpec("proc_ws2_scaling", RATIO,
                   description="world_size 2 over world_size 1 samples/sec"),
    ),
    tags=("training", "distributed", "hot"),
)
def dataparallel_proc_suite(budget: SuiteBudget) -> Dict[str, float]:
    from repro.bench.workloads import build_dp_dataset, dataparallel_throughput

    epochs = budget.resolve_iters(full_default=2, tiny_default=1)
    n = 128 if budget.tiny else 512
    image_size = 8 if budget.tiny else 16
    width_mult = 0.125 if budget.tiny else 0.25
    dataset = build_dp_dataset(n, image_size)
    ws1 = dataparallel_throughput(dataset, batch_size=32, width_mult=width_mult,
                                  world_size=1, epochs=epochs)
    ws2 = dataparallel_throughput(dataset, batch_size=32, width_mult=width_mult,
                                  world_size=2, epochs=epochs)
    return {
        "proc_ws1_samples_per_sec": ws1["samples_per_sec"],
        "proc_ws2_samples_per_sec": ws2["samples_per_sec"],
        "proc_ws2_scaling": ws2["samples_per_sec"] / max(ws1["samples_per_sec"], 1e-9),
    }


@register_suite(
    "telemetry-overhead",
    "span-tracing cost on the Trainer hot loop: steps/sec enabled vs disabled",
    metrics=(
        MetricSpec("disabled_steps_per_sec", STEPS_PER_SEC),
        MetricSpec("enabled_steps_per_sec", STEPS_PER_SEC),
        MetricSpec("slowdown_ratio", RATIO, higher_is_better=False,
                   description="disabled over enabled steps/sec; ~1.0 when "
                               "the instrumentation is free"),
    ),
    tags=("training", "observability"),
)
def telemetry_overhead_suite(budget: SuiteBudget) -> Dict[str, float]:
    from repro.bench.workloads import telemetry_overhead

    steps = budget.resolve_iters(full_default=16, tiny_default=4)
    return telemetry_overhead(steps=steps,
                              samples=128 if budget.tiny else 512,
                              image_size=8 if budget.tiny else 16)


@register_suite(
    "serving",
    "inference requests/sec: dynamic micro-batching vs batch-1 (engine transport)",
    metrics=(
        MetricSpec("batched_rps", REQUESTS_PER_SEC),
        MetricSpec("batch1_rps", REQUESTS_PER_SEC),
        MetricSpec("batching_speedup", RATIO,
                   description="batched over batch-1 requests/sec"),
        MetricSpec("batched_p99_ms", MILLISECONDS, higher_is_better=False,
                   description="p99 end-to-end latency under the batching policy"),
    ),
    default_backend="numpy-fast",
    tags=("serving", "hot"),
)
def serving_suite(budget: SuiteBudget) -> Dict[str, float]:
    from repro.bench.workloads import serving_throughput

    duration = float(budget.resolve_iters(full_default=3, tiny_default=1))
    result = serving_throughput(
        duration_s=duration,
        concurrency=8 if budget.tiny else 32,
        backend=budget.backend or "numpy-fast",
        warmup_s=0.25 if budget.tiny else 0.5,
    )
    return {
        "batched_rps": float(result["batched_rps"]),
        "batch1_rps": float(result["batch1_rps"]),
        "batching_speedup": float(result["batching_speedup"]),
        "batched_p99_ms": float(result["batched_p99_ms"]),
    }


@register_suite(
    "serving-pool",
    "replicated predictor-pool scaling: requests/sec at pool sizes 1/2/4",
    metrics=(
        MetricSpec("pool1_rps", REQUESTS_PER_SEC),
        MetricSpec("pool2_rps", REQUESTS_PER_SEC),
        MetricSpec("pool4_rps", REQUESTS_PER_SEC),
        MetricSpec("pool4_scaling", RATIO,
                   description="pool-4 over pool-1 requests/sec, same policy "
                               "and execution mode"),
        MetricSpec("pool4_p99_ms", MILLISECONDS, higher_is_better=False,
                   description="p99 end-to-end latency at pool size 4"),
    ),
    default_backend="numpy-fast",
    tags=("serving", "pool"),
)
def serving_pool_suite(budget: SuiteBudget) -> Dict[str, float]:
    from repro.bench.workloads import serving_pool_throughput

    duration = float(budget.resolve_iters(full_default=3, tiny_default=1))
    result = serving_pool_throughput(
        duration_s=duration,
        concurrency=8 if budget.tiny else 32,
        backend=budget.backend or "numpy-fast",
        warmup_s=0.25 if budget.tiny else 0.5,
    )
    return {
        "pool1_rps": float(result["pool1_rps"]),
        "pool2_rps": float(result["pool2_rps"]),
        "pool4_rps": float(result["pool4_rps"]),
        "pool4_scaling": float(result["pool4_scaling"]),
        "pool4_p99_ms": float(result["pool4_p99_ms"]),
    }
