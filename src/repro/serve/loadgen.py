"""Closed-loop load generation against the serving stack.

``run_closed_loop`` drives N concurrent clients, each repeating
send-one-sample → wait-for-the-answer for a fixed duration; throughput is the
completed-request rate and the latency distribution comes straight from the
client-side clock.  Two transports share the harness:

* **engine** — clients call :meth:`DynamicBatcher.submit` directly.  This
  isolates the batching policy from HTTP transport cost (which on a
  single-core host adds the same constant to every request regardless of
  policy) and is the configuration the headline batched-vs-batch-1 speedup
  is measured in.
* **http** — clients go through :class:`~repro.serve.client.ServeClient`
  and the full ``ThreadingHTTPServer`` path, measuring what a network
  client actually observes.

Closed-loop means offered load adapts to service rate, so the comparison
between policies is fair: every configuration is driven to saturation.

The client fleet itself is the shared :func:`repro.utils.concurrency.
run_worker_threads` fan-out.

Open-loop drivers fire requests on a fixed **arrival schedule** instead:
:func:`arrival_times` over a constant-rate :class:`TrafficShape` gives
Poisson arrival offsets drawn with the counter-based RNG in
:mod:`repro.utils.seed`, so a schedule is a pure function of its rate,
duration and seed: bit-reproducible across runs, hosts and processes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.serve.batcher import DynamicBatcher, QueueFullError
from repro.serve.client import ServeClient, ServeClientError
from repro.telemetry import LatencyTracker
from repro.utils.concurrency import run_worker_threads
from repro.utils.seed import counter_uniforms


@dataclass
class LoadgenResult:
    """Aggregate view of one closed-loop run."""

    transport: str
    concurrency: int
    duration_s: float
    requests: int
    errors: int
    throughput_rps: float
    latency_ms: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "transport": self.transport,
            "concurrency": self.concurrency,
            "duration_s": self.duration_s,
            "requests": self.requests,
            "errors": self.errors,
            "throughput_rps": self.throughput_rps,
            "latency_ms": self.latency_ms,
        }


def run_closed_loop(
    send: Callable[[np.ndarray], Any],
    samples: np.ndarray,
    concurrency: int,
    duration_s: float,
    transport: str = "custom",
    warmup_s: float = 0.0,
) -> LoadgenResult:
    """Drive ``send`` from ``concurrency`` threads for ``duration_s`` seconds.

    ``send`` receives one sample (no batch axis) and must block until the
    answer is available.  ``samples`` is a pool the clients cycle through.
    Transient overload errors (queue full / HTTP 503) count as errors and the
    client retries after a short backoff — closed-loop clients must not die
    on backpressure.
    """
    latency = LatencyTracker(window=1 << 16)
    counters = {"requests": 0, "errors": 0}
    lock = threading.Lock()
    stop_at = time.perf_counter() + warmup_s + duration_s
    measure_from = time.perf_counter() + warmup_s

    def client(worker_id: int) -> None:
        index = worker_id
        while True:
            now = time.perf_counter()
            if now >= stop_at:
                return
            sample = samples[index % len(samples)]
            index += concurrency
            started = time.perf_counter()
            try:
                send(sample)
            except (QueueFullError, ServeClientError):
                if started >= measure_from:
                    with lock:
                        counters["errors"] += 1
                time.sleep(0.002)
                continue
            finished = time.perf_counter()
            if started >= measure_from:
                latency.observe(finished - started)
                with lock:
                    counters["requests"] += 1

    started_wall = time.perf_counter()
    run_worker_threads(client, concurrency, name=f"loadgen-{transport}")
    elapsed = max(time.perf_counter() - max(started_wall, measure_from - warmup_s) - warmup_s,
                  1e-9)
    with lock:
        requests, errors = counters["requests"], counters["errors"]
    return LoadgenResult(
        transport=transport,
        concurrency=concurrency,
        duration_s=elapsed,
        requests=requests,
        errors=errors,
        throughput_rps=requests / elapsed,
        latency_ms=latency.summary(unit="ms"),
    )


#: Salt so arrival-time uniforms never collide with other counter_uniforms
#: users sharing a seed.
_ARRIVAL_SALT = 0x41525256  # "ARRV"


@dataclass(frozen=True)
class TrafficShape:
    """A bit-reproducible open-loop arrival pattern: Poisson arrivals at
    ``mean_rps`` for ``duration_s`` seconds.

    The schedule is a pure function of the fields below — no global RNG, no
    wall clock — so two hosts running the same shape offer byte-identical
    load.  ``kind`` accepts only ``"constant"``.
    """

    kind: str = "constant"
    mean_rps: float = 100.0
    duration_s: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind != "constant":
            raise ValueError(f"unknown traffic shape {self.kind!r}; "
                             f"only 'constant' is supported")
        if self.mean_rps <= 0:
            raise ValueError(f"mean_rps must be > 0, got {self.mean_rps}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")


def _shape_uniforms(shape: TrafficShape, start: int, count: int) -> np.ndarray:
    """``count`` deterministic U[0,1) draws from counter ``start`` onward."""
    # The key's trailing (kind id, stream) pair stays (0, 0): changing it
    # would change every schedule's bytes.
    key = (_ARRIVAL_SALT, int(shape.seed), 0, 0)
    counters = np.arange(start, start + count, dtype=np.uint64)
    return counter_uniforms(key, counters, draws=1)[:, 0]


def arrival_times(shape: TrafficShape) -> np.ndarray:
    """Absolute arrival offsets (seconds, ascending) covering ``duration_s``.

    Exponential inter-arrival gaps by inverse-CDF of counter-based uniforms,
    indexed by arrival ordinal, so the schedule is a pure function of the
    shape.
    """
    block = max(256, int(np.ceil(shape.mean_rps * shape.duration_s * 2)) + 64)
    gaps_done: list = []
    total = 0.0
    start = 0
    while total < shape.duration_s:
        u = _shape_uniforms(shape, start=start, count=block)
        start += block
        gaps = -np.log1p(-u) / shape.mean_rps
        gaps_done.append(gaps)
        total += float(gaps.sum())
    times = np.concatenate(gaps_done).cumsum()
    return times[times < shape.duration_s]


def bench_engine(
    batcher: DynamicBatcher,
    samples: np.ndarray,
    concurrency: int = 32,
    duration_s: float = 5.0,
    warmup_s: float = 0.5,
) -> LoadgenResult:
    """Closed-loop load directly against the micro-batching engine."""

    def send(sample: np.ndarray) -> None:
        batcher.submit(sample, timeout=None).result(timeout=60.0)

    return run_closed_loop(send, samples, concurrency, duration_s,
                           transport="engine", warmup_s=warmup_s)


def bench_http(
    url: str,
    samples: np.ndarray,
    concurrency: int = 16,
    duration_s: float = 5.0,
    warmup_s: float = 0.5,
    timeout: float = 60.0,
) -> LoadgenResult:
    """Closed-loop load through the HTTP front end (one client, and so one
    kept-alive connection, per thread)."""
    local = threading.local()
    clients: List[ServeClient] = []

    def send(sample: np.ndarray) -> None:
        client: Optional[ServeClient] = getattr(local, "client", None)
        if client is None:
            client = local.client = ServeClient(url, timeout=timeout)
            clients.append(client)
        client.predict_one(sample)

    try:
        return run_closed_loop(send, samples, concurrency, duration_s,
                               transport="http", warmup_s=warmup_s)
    finally:
        for client in clients:
            client.close()


def bench_artifact(
    artifact_path: str,
    max_batch_size: int = 32,
    duration_s: float = 3.0,
    concurrency: int = 32,
    transports: Sequence[str] = ("engine", "http"),
    backend: Optional[str] = None,
    warmup_s: float = 0.5,
    rng_seed: int = 0,
    workers: int = 1,
    mode: str = "thread",
) -> Dict[str, Any]:
    """Benchmark one artifact: dynamic micro-batching vs batch-size-1 serving.

    For every transport the same closed-loop load (single-sample requests,
    ``concurrency`` clients) is driven against two policies — the batching
    policy under test and a ``max_batch_size=1`` baseline — and the
    throughput ratio is reported as ``speedup``.  Both policies run the same
    predictor (same canonicalization, same backend), so the ratio isolates
    exactly what request coalescing buys.  ``workers``/``mode`` size the
    predictor pool behind the *batched* policy (the batch-1 baseline always
    runs a single inline worker, so the ratio folds in pool scaling too).
    """
    from repro.serve.artifact import load_artifact
    from repro.serve.batcher import BatchingPolicy
    from repro.serve.server import ModelServer

    predictor = load_artifact(artifact_path, backend=backend)
    shape = predictor.input_shape
    if shape is None:
        raise ValueError(f"artifact {artifact_path!r} records no input_shape; "
                         f"re-export with input_shape=... to benchmark it")
    rng = np.random.default_rng(rng_seed)
    samples = rng.standard_normal((max(64, 2 * concurrency),) + shape).astype(np.float32)

    policies = {
        "batched": BatchingPolicy(max_batch_size=max_batch_size),
        "batch1": BatchingPolicy(max_batch_size=1),
    }
    results: Dict[str, Any] = {
        "artifact": artifact_path,
        "model": (predictor.manifest.get("model") or {}).get("name"),
        "batch_invariant": predictor.manifest.get("batch_invariant"),
        "policy": {"max_batch_size": max_batch_size},
        "concurrency": concurrency,
        "duration_s": duration_s,
        "pool": {"workers": workers, "mode": mode},
        "transports": {},
    }
    for transport in transports:
        per_policy: Dict[str, Any] = {}
        for label, policy in policies.items():
            pool_kwargs: Dict[str, Any] = (
                {"workers": workers, "mode": mode} if label == "batched" else {})
            if transport == "engine":
                batcher = DynamicBatcher(predictor, policy=policy,
                                         name=f"bench-{label}", **pool_kwargs)
                try:
                    run = bench_engine(batcher, samples, concurrency=concurrency,
                                       duration_s=duration_s, warmup_s=warmup_s)
                finally:
                    batcher.close(drain=True)
            elif transport == "http":
                server = ModelServer(predictor, policy=policy, port=0, **pool_kwargs)
                server.start()
                try:
                    run = bench_http(server.url, samples, concurrency=concurrency,
                                     duration_s=duration_s, warmup_s=warmup_s)
                finally:
                    server.stop()
            else:
                raise ValueError(f"unknown transport {transport!r}; use 'engine' or 'http'")
            per_policy[label] = run.as_dict()
        batched = per_policy["batched"]["throughput_rps"]
        baseline = per_policy["batch1"]["throughput_rps"]
        per_policy["speedup"] = batched / baseline if baseline > 0 else float("inf")
        results["transports"][transport] = per_policy
    return results


__all__ = [
    "LoadgenResult",
    "TrafficShape",
    "arrival_times",
    "bench_artifact",
    "bench_engine",
    "bench_http",
    "run_closed_loop",
]
