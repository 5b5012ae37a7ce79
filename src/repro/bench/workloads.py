"""Reusable benchmark workloads shared by registered suites and bench scripts.

Each function here performs ONE measurement of one workload and returns plain
floats; the suite layer (``repro.bench.suites``) maps them onto declared
metrics and the runner handles warmup/repeats.  The standalone
``benchmarks/bench_*.py`` scripts import the same functions for their core
measurements, so a number printed by a script and a number recorded by
``repro bench run`` come from identical code paths.

Heavy imports stay inside the functions: importing this module must not pull
in models, the serving stack or the distributed engine.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Dict, Optional, Sequence

import numpy as np


# --------------------------------------------------------------------------- #
# Training-step throughput (bench_throughput's cell, in-process)
# --------------------------------------------------------------------------- #
def training_step_rate(
    model_name: str = "resnet18",
    *,
    width_mult: Optional[float] = 0.125,
    batch_size: int = 32,
    image_size: int = 32,
    num_classes: int = 10,
    optimizer_name: str = "sgd",
    backend: str = "numpy",
    steps: int = 4,
    warmup_steps: int = 2,
) -> Dict[str, float]:
    """Steps/sec of the full train step (forward, backward, optimizer).

    Runs under :func:`repro.tensor.use_backend` so the calling thread's
    backend is restored; ``benchmarks/bench_throughput.py`` wraps this in a
    subprocess per measurement when full allocator isolation (or the
    historical seed engine) is wanted.
    """
    from repro.tensor import use_backend

    with use_backend(backend) as be:
        step = _build_train_step(model_name, width_mult, batch_size, image_size,
                                 num_classes, optimizer_name, be)
        for _ in range(max(warmup_steps, 0)):
            step()  # allocator, BLAS threads, arena buffers (and plan capture)
        start = time.perf_counter()
        final_loss = 0.0
        for _ in range(steps):
            final_loss = step()
        elapsed = time.perf_counter() - start

    return {
        "steps_per_sec": steps / elapsed if elapsed > 0 else 0.0,
        "elapsed_seconds": elapsed,
        "final_loss": final_loss,
        "steps": float(steps),
    }


def _build_train_step(model_name, width_mult, batch_size, image_size,
                      num_classes, optimizer_name, be):
    """One training-step closure for the *active* backend ``be``.

    On a plan-compiling backend the closure drives a private
    :class:`repro.compile.StepCompiler` (capture on first call, replay
    after); otherwise it is the plain eager step.  Model, optimizer and
    batch are built under fixed seeds so closures for different backends
    perform bit-identical arithmetic.
    """
    from repro.models import build_model
    from repro.tensor import functional as F
    from repro.utils import seed_everything

    seed_everything(0)
    kwargs = {"num_classes": num_classes}
    if width_mult is not None:
        kwargs["width_mult"] = width_mult
    model = build_model(model_name, **kwargs)

    if optimizer_name == "sgd":
        from repro.optim import SGD
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-3)
    elif optimizer_name == "adamw":
        from repro.optim import AdamW
        optimizer = AdamW(model.parameters(), lr=1e-3, weight_decay=0.01)
    else:
        raise ValueError(f"unknown optimizer {optimizer_name!r} (use 'sgd' or 'adamw')")

    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch_size, 3, image_size, image_size)).astype(np.float32)
    y = rng.integers(0, num_classes, size=batch_size)

    if getattr(be, "compiled_plans", False):
        from repro.compile import StepCompiler

        compiler = StepCompiler()

        def step() -> float:
            optimizer.zero_grad()
            handle = compiler.forward(
                model, (x, y), lambda: F.cross_entropy(model(x), y))
            handle.backward()
            optimizer.step()
            return float(handle.loss.data)
    else:
        def step() -> float:
            optimizer.zero_grad()
            loss = F.cross_entropy(model(x), y)
            loss.backward()
            optimizer.step()
            return float(loss.data)
    return step


def training_step_pair(
    model_name: str = "resnet18",
    *,
    width_mult: Optional[float] = 0.125,
    batch_size: int = 32,
    image_size: int = 32,
    num_classes: int = 10,
    optimizer_name: str = "sgd",
    backend_a: str = "numpy-fast",
    backend_b: str = "numpy-compiled",
    steps: int = 2,
    blocks: int = 4,
    warmup_steps: int = 2,
) -> Dict[str, float]:
    """Drift-cancelling paired throughput of two backends on one cell.

    A sequential A-then-B measurement charges any slow host drift (thermal
    throttling, noisy neighbours) entirely to whichever side runs second.
    This instead alternates short timed blocks in an A-B-B-A pattern, so
    linear drift lands evenly on both sides, and aggregates each side's
    elapsed time across all blocks.  Both closures train their own model
    replica from identical seeds, so their final losses must agree exactly
    when the backends are bit-identical (reported for the caller to check).
    """
    from repro.tensor import use_backend

    sides = []
    for backend in (backend_a, backend_b):
        with use_backend(backend) as be:
            step = _build_train_step(model_name, width_mult, batch_size,
                                     image_size, num_classes, optimizer_name, be)
            for _ in range(max(warmup_steps, 0)):
                step()  # warm caches; capture + record on compiling backends
        sides.append((backend, step))

    def timed_block(side):
        backend, step = side
        with use_backend(backend):
            start = time.perf_counter()
            loss = 0.0
            for _ in range(steps):
                loss = step()
            return time.perf_counter() - start, loss

    elapsed = [0.0, 0.0]
    losses = [0.0, 0.0]
    for _ in range(max(blocks, 1)):
        for i in (0, 1, 1, 0):
            dt, losses[i] = timed_block(sides[i])
            elapsed[i] += dt
    n = 2 * max(blocks, 1) * steps
    return {
        "a_steps_per_sec": n / elapsed[0] if elapsed[0] > 0 else 0.0,
        "b_steps_per_sec": n / elapsed[1] if elapsed[1] > 0 else 0.0,
        "a_final_loss": losses[0],
        "b_final_loss": losses[1],
        "steps_per_side": float(n),
    }


# --------------------------------------------------------------------------- #
# Input-pipeline throughput (bench_pipeline's loaders)
# --------------------------------------------------------------------------- #
def build_pipeline_dataset(n: int, image_size: int = 32):
    """CIFAR-shaped synthetic dataset with the standard train transform."""
    from repro.data import ArrayDataset, standard_train_transform
    from repro.utils import get_rng

    rng = get_rng(offset=31)
    images = rng.random((n, 3, image_size, image_size), dtype=np.float64).astype(np.float32)
    labels = rng.integers(0, 10, size=n).astype(np.int64)
    return ArrayDataset(images, labels,
                        transform=standard_train_transform(image_size, crop_padding=2))


def build_pipeline_loaders(dataset, batch_size: int) -> Dict[str, object]:
    """Factories for every loader the pipeline bench measures."""
    from repro.data import DataLoader, PipelineLoader

    return {
        "legacy": lambda: DataLoader(dataset, batch_size, shuffle=True),
        "vectorized": lambda: PipelineLoader(dataset, batch_size, shuffle=True),
    }


def drain_loader(loader, epochs: int) -> Dict[str, float]:
    """Iterate ``epochs`` epochs; return the loader's time split as a dict."""
    from repro.profiling import PipelineStats, instrument

    stats = PipelineStats()
    for epoch in range(epochs):
        set_epoch = getattr(loader, "set_epoch", None)
        if set_epoch is not None:
            set_epoch(epoch)
        for _ in instrument(loader, stats):
            pass
    return stats.as_dict()


def loader_throughput(
    *,
    samples: int = 2048,
    batch_size: int = 32,
    epochs: int = 3,
    image_size: int = 32,
) -> Dict[str, Dict[str, float]]:
    """Loader-only samples/sec (and time split) of each loader the pipeline
    bench measures."""
    from repro.utils import seed_everything

    seed_everything(0)
    dataset = build_pipeline_dataset(samples, image_size)
    results: Dict[str, Dict[str, float]] = {}
    for name, factory in build_pipeline_loaders(dataset, batch_size).items():
        drain_loader(factory(), 1)  # warm-up epoch (allocator, caches)
        results[name] = drain_loader(factory(), epochs)
    return results


# --------------------------------------------------------------------------- #
# Data-parallel training throughput (bench_dataparallel's cell)
# --------------------------------------------------------------------------- #
def build_dp_dataset(n: int, image_size: int, num_classes: int = 4):
    from repro.data import ArrayDataset
    from repro.utils import get_rng

    rng = get_rng(offset=31)
    images = rng.standard_normal((n, 3, image_size, image_size)).astype(np.float32)
    labels = rng.integers(0, num_classes, size=n).astype(np.int64)
    return ArrayDataset(images, labels)


def build_dp_training(dataset, batch_size: int, width_mult: float, world_size: int):
    from repro.data import PipelineLoader
    from repro.distributed import DataParallelTrainer
    from repro.models import build_model
    from repro.optim import SGD
    from repro.utils import get_rng, seed_everything

    seed_everything(0)
    model = build_model("resnet18", num_classes=4, width_mult=width_mult,
                        small_input=True, rng=get_rng(offset=1))
    optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
    train_loader = PipelineLoader(dataset, batch_size, shuffle=True)
    return DataParallelTrainer(model, optimizer, train_loader, world_size=world_size)


def dataparallel_throughput(dataset, *, batch_size: int, width_mult: float,
                            world_size: int, epochs: int) -> Dict[str, object]:
    """Samples/sec of data-parallel training at one world size.

    The warm-up epoch absorbs one-time costs (allocator, caches, the fork +
    shared-segment setup), so the timed epochs measure steady-state lockstep
    throughput.
    """
    trainer = build_dp_training(dataset, batch_size, width_mult, world_size)
    try:
        trainer.train_epoch()  # warm-up (allocator, caches, worker spawn)
        start = time.perf_counter()
        samples = 0
        last = {}
        for _ in range(epochs):
            last = trainer.train_epoch()
            samples += trainer.last_epoch_pipeline_stats.samples
        wall = time.perf_counter() - start
        stats = trainer.last_epoch_pipeline_stats
    finally:
        trainer.shutdown()
    return {
        "world_size": world_size,
        "samples_per_sec": samples / wall if wall > 0 else 0.0,
        "wall_seconds": wall,
        "final_loss": last.get("loss"),
        "replica_stall_seconds": [
            stats.extra.get(f"replica{rank}_stall_seconds", 0.0)
            for rank in range(world_size)],
        "replica_compute_seconds": [
            stats.extra.get(f"replica{rank}_compute_seconds", 0.0)
            for rank in range(world_size)],
    }


# --------------------------------------------------------------------------- #
# Telemetry overhead (tracing enabled vs disabled on the Trainer hot loop)
# --------------------------------------------------------------------------- #
def telemetry_overhead(
    *,
    width_mult: float = 0.125,
    batch_size: int = 32,
    image_size: int = 16,
    samples: int = 128,
    num_classes: int = 4,
    steps: int = 8,
) -> Dict[str, float]:
    """Trainer steps/sec with span tracing enabled vs disabled.

    Exercises the real ``Trainer.train_epoch`` loop (the instrumented path:
    data_wait / forward / backward / optimizer spans per step); the enabled
    measurement records into an in-memory session, no file I/O in the timed
    region.  ``slowdown_ratio`` is the number the overhead budget in
    DESIGN.md §14 is written against: disabled over enabled steps/sec,
    ~1.0 when the instrumentation is free.
    """
    from repro.data import PipelineLoader
    from repro.models import build_model
    from repro.optim import SGD
    from repro.telemetry import tracing
    from repro.train.trainer import Trainer
    from repro.utils import get_rng, seed_everything

    def build() -> Trainer:
        seed_everything(0)
        model = build_model("resnet18", num_classes=num_classes,
                            width_mult=width_mult, small_input=True,
                            rng=get_rng(offset=1))
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        dataset = build_dp_dataset(samples, image_size, num_classes)
        loader = PipelineLoader(dataset, batch_size, shuffle=True)
        return Trainer(model, optimizer, loader, max_batches_per_epoch=steps)

    def measure(traced: bool) -> float:
        trainer = build()
        trainer.train_epoch()  # warm-up (allocator, caches)
        if traced:
            tracing.enable("bench")
        try:
            start = time.perf_counter()
            trainer.train_epoch()
            elapsed = time.perf_counter() - start
        finally:
            if traced:
                tracing.disable()
        return steps / elapsed if elapsed > 0 else 0.0

    disabled_rate = measure(False)
    enabled_rate = measure(True)
    return {
        "disabled_steps_per_sec": disabled_rate,
        "enabled_steps_per_sec": enabled_rate,
        "slowdown_ratio": disabled_rate / max(enabled_rate, 1e-9),
    }


# --------------------------------------------------------------------------- #
# Serving throughput (bench_serving's cell, engine transport)
# --------------------------------------------------------------------------- #
def export_serving_artifact(path: str, *, width_mult: float = 0.125,
                            num_classes: int = 10, image_size: int = 32) -> str:
    """Export a dense ResNet-cell artifact for serving benchmarks."""
    from repro.models import build_model
    from repro.serve import export_artifact
    from repro.utils import get_rng, seed_everything

    seed_everything(0)
    model = build_model("resnet18", num_classes=num_classes, width_mult=width_mult)
    model.eval()
    shape = (3, image_size, image_size)
    example = get_rng(offset=123).standard_normal((8,) + shape).astype(np.float32)
    export_artifact(path, model,
                    model_spec={"name": "resnet18",
                                "kwargs": {"num_classes": num_classes,
                                           "width_mult": width_mult}},
                    input_shape=shape, example_batch=example,
                    metadata={"cell": "resnet", "variant": "dense"})
    return path


def serving_throughput(
    *,
    duration_s: float = 1.0,
    concurrency: int = 8,
    max_batch_size: int = 32,
    max_wait_ms: float = 2.0,
    backend: Optional[str] = "numpy-fast",
    warmup_s: float = 0.25,
    artifact_path: Optional[str] = None,
) -> Dict[str, object]:
    """Closed-loop engine-transport load test: batched vs batch-1 serving."""
    from repro.serve import bench_artifact

    def run(path: str) -> Dict[str, object]:
        result = bench_artifact(
            path,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            duration_s=duration_s,
            concurrency=concurrency,
            transports=["engine"],
            backend=backend,
            warmup_s=warmup_s,
        )
        engine = result["transports"]["engine"]
        return {
            "batched_rps": engine["batched"]["throughput_rps"],
            "batch1_rps": engine["batch1"]["throughput_rps"],
            "batching_speedup": engine["speedup"],
            "batched_p99_ms": engine["batched"]["latency_ms"]["p99"],
            "raw": result,
        }

    if artifact_path is not None:
        return run(artifact_path)
    with tempfile.TemporaryDirectory(prefix="bench-serving-") as tmpdir:
        return run(export_serving_artifact(os.path.join(tmpdir, "dense.npz")))


def serving_pool_throughput(
    *,
    pool_sizes: Sequence[int] = (1, 2, 4),
    duration_s: float = 1.0,
    concurrency: int = 16,
    max_batch_size: int = 16,
    max_wait_ms: float = 1.0,
    backend: Optional[str] = "numpy-fast",
    warmup_s: float = 0.25,
    mode: str = "auto",
    artifact_path: Optional[str] = None,
) -> Dict[str, object]:
    """Closed-loop engine-transport scaling curve across predictor-pool sizes.

    Every pool size runs the *same* batching policy and the *same* execution
    mode (``auto`` resolves to ``process`` when fork is available), so the
    pool-N over pool-1 ratio isolates what worker replication buys on top of
    micro-batching.  Bit-invariance across pool sizes is asserted per run:
    one probe batch must come back byte-identical from every configuration.
    """
    from repro.distributed.process import fork_available
    from repro.serve import BatchingPolicy, DynamicBatcher, load_artifact
    from repro.serve.loadgen import bench_engine
    from repro.utils import get_rng

    if mode == "auto":
        mode = "process" if fork_available() else "thread"

    def run(path: str) -> Dict[str, object]:
        per_size: Dict[int, Dict[str, object]] = {}
        probe_outputs: Dict[int, np.ndarray] = {}
        for size in pool_sizes:
            predictor = load_artifact(path, backend=backend)
            shape = predictor.input_shape
            samples = get_rng(offset=7).standard_normal(
                (max(64, 2 * concurrency),) + shape).astype(np.float32)
            probe = samples[:5]
            policy = BatchingPolicy(max_batch_size=max_batch_size,
                                    max_wait_ms=max_wait_ms)
            batcher = DynamicBatcher(predictor, policy=policy,
                                     name=f"pool{size}", workers=size, mode=mode)
            try:
                probe_outputs[size] = batcher.submit_batch(probe).result(timeout=60.0)
                result = bench_engine(batcher, samples, concurrency=concurrency,
                                      duration_s=duration_s, warmup_s=warmup_s)
            finally:
                batcher.close(drain=True)
            per_size[size] = result.as_dict()
        reference = probe_outputs[pool_sizes[0]]
        for size, outputs in probe_outputs.items():
            if not np.array_equal(reference, outputs):
                raise AssertionError(
                    f"pool size {size} ({mode} mode) changed predictions "
                    f"vs pool size {pool_sizes[0]} — bit-invariance broken")
        base = per_size[pool_sizes[0]]["throughput_rps"]
        top = pool_sizes[-1]
        return {
            "mode": mode,
            **{f"pool{size}_rps": per_size[size]["throughput_rps"]
               for size in pool_sizes},
            f"pool{top}_scaling": per_size[top]["throughput_rps"] / max(base, 1e-9),
            f"pool{top}_p99_ms": per_size[top]["latency_ms"]["p99"],
            "raw": {str(size): per_size[size] for size in pool_sizes},
        }

    if artifact_path is not None:
        return run(artifact_path)
    with tempfile.TemporaryDirectory(prefix="bench-serving-pool-") as tmpdir:
        return run(export_serving_artifact(os.path.join(tmpdir, "dense.npz")))
