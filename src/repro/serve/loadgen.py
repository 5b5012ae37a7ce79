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

Open-loop load (:func:`run_open_loop`) is the complement: requests fire on
a fixed **arrival schedule** regardless of how fast the server answers, so
queueing delay shows up in the latency numbers instead of silently throttling
the offered rate (the coordinated-omission trap).  Schedules come from
:func:`arrival_times` over a :class:`TrafficShape` — constant, diurnal,
burst, or heavy-tail — generated with the counter-based RNG in
:mod:`repro.utils.seed`, so a load pattern is a pure function of its shape
parameters and seed: bit-reproducible across runs, hosts and processes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from repro.serve.batcher import DynamicBatcher, QueueFullError
from repro.serve.client import ServeClient, ServeClientError
from repro.telemetry import LatencyTracker
from repro.utils.concurrency import run_worker_threads
from repro.utils.seed import counter_uniforms


@dataclass
class LoadgenResult:
    """Aggregate view of one closed- or open-loop run."""

    transport: str
    concurrency: int
    duration_s: float
    requests: int
    errors: int
    throughput_rps: float
    latency_ms: Dict[str, float] = field(default_factory=dict)
    offered_rps: float = 0.0          # open-loop only: the scheduled rate

    def as_dict(self) -> Dict[str, Any]:
        return {
            "transport": self.transport,
            "concurrency": self.concurrency,
            "duration_s": self.duration_s,
            "requests": self.requests,
            "errors": self.errors,
            "throughput_rps": self.throughput_rps,
            "latency_ms": self.latency_ms,
            "offered_rps": self.offered_rps,
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


_SHAPE_KINDS = ("constant", "diurnal", "burst", "heavy_tail")
#: Salt so arrival-time uniforms never collide with other counter_uniforms
#: users sharing a seed (each kind also gets a distinct stream id).
_ARRIVAL_SALT = 0x41525256  # "ARRV"


@dataclass(frozen=True)
class TrafficShape:
    """A bit-reproducible open-loop arrival pattern.

    The schedule is a pure function of the fields below — no global RNG, no
    wall clock — so two hosts running the same shape offer byte-identical
    load.  Kinds:

    * ``constant`` — Poisson arrivals at ``mean_rps``.
    * ``diurnal`` — sinusoidal rate ``mean_rps * (1 + amplitude*sin(2*pi*t/period_s))``,
      a compressed day/night cycle.
    * ``burst`` — square wave: ``burst_factor * mean_rps`` for the first
      ``burst_duty`` fraction of each ``period_s``, and whatever lower rate
      keeps the long-run mean at ``mean_rps`` for the rest.
    * ``heavy_tail`` — Lomax (Pareto-II) inter-arrival gaps with tail index
      ``pareto_alpha``: long silences punctuated by arrival clumps, mean
      rate still ``mean_rps`` (requires ``pareto_alpha > 1``).
    """

    kind: str = "constant"
    mean_rps: float = 100.0
    duration_s: float = 10.0
    seed: int = 0
    period_s: float = 4.0
    amplitude: float = 0.8
    burst_factor: float = 4.0
    burst_duty: float = 0.2
    pareto_alpha: float = 1.5

    def __post_init__(self) -> None:
        if self.kind not in _SHAPE_KINDS:
            raise ValueError(f"unknown traffic shape {self.kind!r}; "
                             f"choose from {_SHAPE_KINDS}")
        if self.mean_rps <= 0:
            raise ValueError(f"mean_rps must be > 0, got {self.mean_rps}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {self.period_s}")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError(f"amplitude must be in [0, 1], got {self.amplitude}")
        if self.burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1, got {self.burst_factor}")
        if not 0.0 < self.burst_duty < 1.0:
            raise ValueError(f"burst_duty must be in (0, 1), got {self.burst_duty}")
        if self.burst_duty * self.burst_factor > 1.0:
            raise ValueError(
                f"burst_duty * burst_factor must be <= 1 so the off-burst "
                f"rate stays non-negative, got "
                f"{self.burst_duty} * {self.burst_factor}")
        if self.kind == "heavy_tail" and self.pareto_alpha <= 1.0:
            raise ValueError(
                f"pareto_alpha must be > 1 for a finite mean rate, "
                f"got {self.pareto_alpha}")


def _shape_uniforms(shape: TrafficShape, stream: int, start: int,
                    count: int) -> np.ndarray:
    """``count`` deterministic U[0,1) draws from counter ``start`` onward."""
    kind_id = _SHAPE_KINDS.index(shape.kind)
    key = (_ARRIVAL_SALT, int(shape.seed), kind_id, int(stream))
    counters = np.arange(start, start + count, dtype=np.uint64)
    return counter_uniforms(key, counters, draws=1)[:, 0]


def _rate_at(shape: TrafficShape, t: np.ndarray) -> np.ndarray:
    """Instantaneous arrival rate lambda(t) for time-varying shapes."""
    if shape.kind == "diurnal":
        return shape.mean_rps * (
            1.0 + shape.amplitude * np.sin(2.0 * np.pi * t / shape.period_s))
    if shape.kind == "burst":
        high = shape.burst_factor * shape.mean_rps
        low = (shape.mean_rps * (1.0 - shape.burst_duty * shape.burst_factor)
               / (1.0 - shape.burst_duty))
        phase = np.mod(t, shape.period_s) / shape.period_s
        return np.where(phase < shape.burst_duty, high, low)
    raise ValueError(f"{shape.kind!r} has no time-varying rate")  # pragma: no cover


def arrival_times(shape: TrafficShape) -> np.ndarray:
    """Absolute arrival offsets (seconds, ascending) covering ``duration_s``.

    ``constant`` and ``heavy_tail`` draw inter-arrival gaps directly
    (exponential and Lomax respectively, by inverse-CDF of counter-based
    uniforms); the time-varying shapes use **Poisson thinning**: candidate
    arrivals are generated at the peak rate and each is kept with
    probability ``rate(t) / peak``.  Everything indexes the counter RNG by
    candidate ordinal, so the schedule is a pure function of the shape.
    """
    block = max(256, int(np.ceil(shape.mean_rps * shape.duration_s * 2)) + 64)

    if shape.kind in ("constant", "heavy_tail"):
        gaps_done: list = []
        total = 0.0
        start = 0
        while total < shape.duration_s:
            u = _shape_uniforms(shape, stream=0, start=start, count=block)
            start += block
            if shape.kind == "constant":
                gaps = -np.log1p(-u) / shape.mean_rps
            else:
                alpha = shape.pareto_alpha
                scale = (alpha - 1.0) / shape.mean_rps   # Lomax mean = scale/(alpha-1)
                gaps = scale * ((1.0 - u) ** (-1.0 / alpha) - 1.0)
            gaps_done.append(gaps)
            total += float(gaps.sum())
        times = np.concatenate(gaps_done).cumsum()
        return times[times < shape.duration_s]

    # Time-varying: thin a homogeneous Poisson process at the peak rate.
    if shape.kind == "diurnal":
        peak = shape.mean_rps * (1.0 + shape.amplitude)
    else:  # burst
        peak = shape.mean_rps * shape.burst_factor
    kept: list = []
    t = 0.0
    start = 0
    while t < shape.duration_s:
        u_gap = _shape_uniforms(shape, stream=0, start=start, count=block)
        u_keep = _shape_uniforms(shape, stream=1, start=start, count=block)
        start += block
        candidates = t + (-np.log1p(-u_gap) / peak).cumsum()
        accept = u_keep * peak < _rate_at(shape, candidates)
        kept.append(candidates[accept])
        t = float(candidates[-1])
    times = np.concatenate(kept)
    return times[times < shape.duration_s]


def run_open_loop(
    send: Callable[[np.ndarray], Any],
    samples: np.ndarray,
    arrivals: np.ndarray,
    max_inflight: int = 64,
    transport: str = "custom",
) -> LoadgenResult:
    """Fire ``send`` on the fixed schedule ``arrivals`` (seconds from start).

    Open-loop semantics: the schedule does not slow down when the server
    does.  Latency for request *i* is measured from its **scheduled**
    arrival time, so time spent queued behind a slow server counts — the
    standard fix for coordinated omission.  ``max_inflight`` worker threads
    bound memory, and when all are busy past a request's slot the wait shows
    up in that request's latency rather than being silently dropped.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    if arrivals.ndim != 1 or len(arrivals) == 0:
        raise ValueError("arrivals must be a non-empty 1-D array of offsets")
    latency = LatencyTracker(window=1 << 16)
    counters = {"requests": 0, "errors": 0, "next": 0}
    lock = threading.Lock()
    epoch = time.perf_counter()

    def worker(worker_id: int) -> None:
        while True:
            with lock:
                index = counters["next"]
                if index >= len(arrivals):
                    return
                counters["next"] = index + 1
            scheduled = epoch + arrivals[index]
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sample = samples[index % len(samples)]
            try:
                send(sample)
            except (QueueFullError, ServeClientError):
                with lock:
                    counters["errors"] += 1
                continue
            latency.observe(time.perf_counter() - scheduled)
            with lock:
                counters["requests"] += 1

    workers = max(1, min(int(max_inflight), len(arrivals)))
    run_worker_threads(worker, workers, name=f"openloop-{transport}")
    elapsed = max(time.perf_counter() - epoch, 1e-9)
    span = max(float(arrivals[-1]), 1e-9)
    with lock:
        requests, errors = counters["requests"], counters["errors"]
    return LoadgenResult(
        transport=transport,
        concurrency=workers,
        duration_s=elapsed,
        requests=requests,
        errors=errors,
        throughput_rps=requests / elapsed,
        latency_ms=latency.summary(unit="ms"),
        offered_rps=len(arrivals) / span,
    )


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
    """Closed-loop load through the HTTP front end (one client per thread)."""
    local = threading.local()

    def send(sample: np.ndarray) -> None:
        client: Optional[ServeClient] = getattr(local, "client", None)
        if client is None:
            client = ServeClient(url, timeout=timeout)
            local.client = client
        client.predict_one(sample)

    return run_closed_loop(send, samples, concurrency, duration_s,
                           transport="http", warmup_s=warmup_s)


def bench_artifact(
    artifact_path: str,
    max_batch_size: int = 32,
    max_wait_ms: float = 2.0,
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
        "batched": BatchingPolicy(max_batch_size=max_batch_size, max_wait_ms=max_wait_ms),
        "batch1": BatchingPolicy(max_batch_size=1, max_wait_ms=0.0),
    }
    results: Dict[str, Any] = {
        "artifact": artifact_path,
        "model": (predictor.manifest.get("model") or {}).get("name"),
        "batch_invariant": predictor.manifest.get("batch_invariant"),
        "policy": {"max_batch_size": max_batch_size, "max_wait_ms": max_wait_ms},
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
    "run_open_loop",
]
