"""Dynamic micro-batching over a replicated predictor pool.

``DynamicBatcher`` is the serving engine's facade.  PR 3 fused queueing,
batching policy, execution and lifecycle into one class with one hardcoded
worker thread; those concerns are now separate layers that this class only
wires together:

* **admission** (:mod:`repro.serve.admission`) — a policy object in front
  of the bounded queue: fail-fast reject (the default, bit-compatible with
  the original backpressure), blocking, or priority-aware load shedding.
* **batching** — the coalescing loop itself lives in
  :class:`repro.serve.pool.PoolWorker`: block for the first request, drain
  companions until ``max_batch_size`` samples or ``max_wait_ms`` since the
  *first* request (a latency bound, not a rate bound), run the batch once,
  give each future its slice.
* **execution** (:mod:`repro.serve.engine`) — where the forward runs: on
  the worker thread (``mode="thread"``) or in a forked child over shared
  memory (``mode="process"``), with artifact weights mapped once into a
  pool-wide read-only segment.
* **replication** (:mod:`repro.serve.pool`) — ``workers=N`` such loops
  share the queue.  Pool size 1 in thread mode is byte-for-byte the
  pre-pool engine; outputs are bit-invariant across pool sizes because the
  :class:`~repro.serve.artifact.Predictor` padding rule makes predictions a
  pure function of each request's samples (DESIGN.md §9, §16).
* **adaptation** (:mod:`repro.serve.slo`) — an optional controller tunes
  ``max_batch_size``/``max_wait_ms`` live against a p99 target; an optional
  :class:`~repro.serve.cache.ResponseCache` answers byte-identical repeat
  requests without a forward.

Requests may carry several samples; one carrying more than
``max_batch_size`` is executed alone, chunked into max-batch-size pieces.
:meth:`close` stops intake, optionally drains queued work, and fails any
futures that remain.  A worker that dies (killed child process, escaping
non-``Exception``) fails its in-flight futures loudly, degrades
``/healthz`` and can be replaced with :meth:`respawn_workers`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro import nn
from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    LoadShedError,
    QueueFullError,
)
from repro.serve.artifact import Predictor
from repro.serve.cache import ResponseCache
from repro.serve.engine import (
    InlineEngine,
    ProcessEngine,
    SharedModelWeights,
    WorkerDiedError,
    probe_output_shape,
)
from repro.serve.pool import PredictorPool, WorkerContext
from repro.serve.slo import SLOController, SLOPolicy
from repro.telemetry import MetricsRegistry
from repro.utils.concurrency import ClosableQueue, usable_cores

_MODES = ("thread", "process")


class BatcherClosedError(RuntimeError):
    """The batcher no longer accepts requests."""


@dataclass
class BatchingPolicy:
    """Knobs of the coalescing loop.

    ``max_batch_size``  — largest number of samples fused into one forward.
    ``max_wait_ms``     — longest a request may sit waiting for companions,
                          measured from its enqueue time.
    ``max_queue``       — bound on queued requests (backpressure).

    ``max_batch_size`` and ``max_wait_ms`` may be mutated on a live policy
    (the SLO controller does); workers read them every coalescing cycle.
    """

    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    max_queue: int = 256

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")


class _Request:
    __slots__ = ("samples", "n", "priority", "future", "enqueued_at")

    def __init__(self, samples: np.ndarray, priority: int = 0):
        self.samples = samples                   # always (n, *sample_shape)
        self.n = samples.shape[0]
        self.priority = int(priority)
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()


class DynamicBatcher:
    """Thread-safe request coalescing in front of a predictor pool."""

    def __init__(
        self,
        predictor: Union[Predictor, nn.Module, Callable[[np.ndarray], np.ndarray]],
        policy: Optional[BatchingPolicy] = None,
        name: str = "batcher",
        registry: Optional[MetricsRegistry] = None,
        *,
        workers: int = 1,
        mode: str = "thread",
        admission: Optional[AdmissionPolicy] = None,
        cache_size: int = 0,
        slo: Optional[Union[SLOPolicy, float]] = None,
        input_shape: Optional[Sequence[int]] = None,
    ):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if isinstance(predictor, nn.Module):
            predictor = Predictor(predictor)
        self.predict = predictor
        self.policy = policy or BatchingPolicy()
        self.name = name
        self.mode = mode
        self.workers = int(workers)
        self._queue = ClosableQueue(maxsize=self.policy.max_queue)
        self._closed = False
        self._lock = threading.Lock()

        # Observability (exposed via the server's /metrics endpoint).  All
        # instruments are created through the unified registry — pass one in
        # (the server shares its own) or let the batcher own a private one.
        self.metrics = registry if registry is not None else MetricsRegistry("serve")
        self.queue_latency = self.metrics.latency("queue_wait")        # enqueue → batch start
        self.compute_latency = self.metrics.latency("compute")         # forward pass per batch
        self.request_latency = self.metrics.latency("request_latency")  # enqueue → future resolved
        self._requests = self.metrics.counter("requests_total")
        self._errors = self.metrics.counter("errors_total")
        self.metrics.register_collector("batcher_worker", self._worker_snapshot)

        # Optional adaptation layer.  The controller resolves its knob
        # ceilings before the pool sizes any shared-memory slabs.
        if isinstance(slo, (int, float)):
            slo = SLOPolicy(target_p99_ms=float(slo))
        self.slo = SLOController(self.policy, slo, registry=self.metrics,
                                 name=name) if slo is not None else None
        batch_ceiling = self.slo.slo.max_batch_size if self.slo is not None \
            else self.policy.max_batch_size
        self.batch_sizes = self.metrics.histogram(
            "batch_sizes", max_batch_size=batch_ceiling)

        self.admission = AdmissionController(
            self._queue, self.policy.max_queue, admission,
            registry=self.metrics, name=name)
        self.cache = ResponseCache(cache_size, registry=self.metrics) \
            if cache_size > 0 else None

        self._shared_weights: Optional[SharedModelWeights] = None
        self.pool: Optional[PredictorPool] = None
        try:
            engine_factory = self._build_engine_factory(input_shape, batch_ceiling)
            context = WorkerContext(
                name=name,
                queue=self._queue,
                policy=self.policy,
                queue_latency=self.queue_latency,
                compute_latency=self.compute_latency,
                request_latency=self.request_latency,
                batch_sizes=self.batch_sizes,
                errors=self._errors,
                cache=self.cache,
                slo=self.slo,
            )
            pool = PredictorPool(engine_factory, self.workers, context,
                                 registry=self.metrics)
            pool.start()  # releases its own engines and threads on failure
            self.pool = pool
            if self.slo is not None:
                self.slo.start()
        except BaseException:
            # Stop the pool and the controller, put the weights back on the
            # heap and unlink their segment.
            self.close(drain=False)
            raise

    # ------------------------------------------------------------------ #
    def _build_engine_factory(self, input_shape, batch_ceiling: int):
        if self.mode == "thread":
            # Every worker runs the caller's predictor: it is stateless, so
            # threads share it (DESIGN.md §16.1).
            return lambda index: InlineEngine(self.predict)

        from repro.distributed.process import fork_available

        if not fork_available():  # pragma: no cover — all target platforms fork
            raise ValueError(
                f"{self.name}: mode='process' requires the fork start method; "
                f"use mode='thread' on this platform")
        shape = tuple(input_shape) if input_shape is not None else (
            self.predict.input_shape if isinstance(self.predict, Predictor)
            else None)
        if shape is None:
            raise ValueError(
                f"{self.name}: mode='process' needs the per-sample input shape "
                f"to size its shared-memory slabs — serve an artifact exported "
                f"with input_shape=..., or pass input_shape= explicitly")
        if isinstance(self.predict, Predictor):
            # Map the weights into one read-only segment *before* forking so
            # every child addresses the same physical pages.
            self._shared_weights = SharedModelWeights(self.predict.model)
        output_shape = probe_output_shape(self.predict, shape)
        # Each child gets its share of the cores for BLAS, so N engines do
        # not each run a pool sized for the whole host.
        blas_threads = max(1, usable_cores() // self.workers)

        def process_factory(index: int) -> ProcessEngine:
            return ProcessEngine(self.predict, shape, output_shape,
                                 max_rows=batch_ceiling,
                                 name=f"{self.name}-engine{index}",
                                 blas_threads=blas_threads)

        return process_factory

    # ------------------------------------------------------------------ #
    # Liveness / load signals (consumed by /healthz and load shedding)
    # ------------------------------------------------------------------ #
    @property
    def requests_total(self) -> int:
        return self._requests.value

    @property
    def errors_total(self) -> int:
        return self._errors.value

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def worker_alive(self) -> bool:
        """``True`` iff the pool is at full strength (every worker alive)."""
        return self.pool.alive_workers == self.workers

    @property
    def alive_workers(self) -> int:
        return self.pool.alive_workers

    def worker_pids(self) -> List[Optional[int]]:
        """Child PIDs per pool worker (``None`` in thread mode)."""
        return self.pool.worker_pids()

    def _worker_snapshot(self) -> Dict[str, Any]:
        aggregate = self.pool.aggregate_stats()
        return {
            **aggregate.as_dict(),
            "utilization": 1.0 - aggregate.stall_fraction,
            "queue_depth": self.queue_depth,
            "alive": self.worker_alive,
        }

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def submit(self, sample: np.ndarray, timeout: Optional[float] = 0.0,
               priority: int = 0) -> Future:
        """Enqueue one sample (shape ``sample_shape``); returns its future.

        ``timeout`` bounds how long to wait for queue space: ``0`` fails
        immediately when full (the server's behaviour — shed load), ``None``
        blocks until space frees up.  ``priority`` feeds the admission
        policy (higher = more important; only the ``priority`` kind uses it).
        """
        array = np.asarray(sample, dtype=np.float32)
        return self._enqueue(array[None, ...], timeout, priority)

    def submit_batch(self, samples: np.ndarray, timeout: Optional[float] = 0.0,
                     priority: int = 0) -> Future:
        """Enqueue a multi-sample request of shape ``(n, *sample_shape)``.

        The whole request resolves through one future; requests wider than
        ``max_batch_size`` are executed alone, in max-batch-size chunks.
        """
        array = np.asarray(samples, dtype=np.float32)
        if array.ndim < 1 or array.shape[0] < 1:
            raise ValueError("submit_batch expects at least one sample")
        return self._enqueue(array, timeout, priority)

    def _enqueue(self, samples: np.ndarray, timeout: Optional[float],
                 priority: int = 0) -> Future:
        with self._lock:
            if self._closed:
                raise BatcherClosedError(f"{self.name} is shut down")
        self._requests.inc()
        request = _Request(samples, priority)
        if self.cache is not None:
            hit = self.cache.get(samples)
            if hit is not None:
                self.request_latency.observe(
                    time.perf_counter() - request.enqueued_at)
                request.future.set_result(hit)
                return request.future
        try:
            self.admission.admit(request, timeout)
        except QueueFullError:
            self._errors.inc()
            raise
        # close() — or the death of the last worker — may have raced us
        # between the _closed check and the put: if no worker remains,
        # nothing will ever drain this request — sweep the queue so the
        # future fails instead of hanging its caller.
        if self.pool.alive_workers == 0:
            if self._closed:
                self._fail_pending(BatcherClosedError(f"{self.name} is shut down"))
            elif self.pool.any_failed:
                self._fail_pending(WorkerDiedError(
                    f"{self.name}: all {self.workers} inference workers are "
                    f"dead; call respawn_workers() to recover"))
        return request.future

    def __call__(self, samples: np.ndarray, timeout: Optional[float] = None) -> np.ndarray:
        """Synchronous convenience: submit and wait for the result."""
        future = self.submit_batch(samples, timeout=None)
        return future.result(timeout=timeout)

    def _fail_pending(self, error: Exception) -> None:
        def fail(item) -> None:
            if item.future.set_running_or_notify_cancel():
                item.future.set_exception(error)

        self._queue.drain(fail)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def respawn_workers(self) -> int:
        """Replace dead pool workers (re-forking process engines); returns
        how many were respawned.  No-op on a closed batcher."""
        with self._lock:
            if self._closed:
                return 0
        return self.pool.respawn_dead()

    def close(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Stop accepting requests and shut the pool down.

        ``drain=True`` lets every queued request finish first; ``False``
        fails queued-but-unstarted requests with :class:`BatcherClosedError`.
        Safe to call more than once.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self.slo is not None:
            self.slo.stop()
        if not drain:
            self._fail_pending(BatcherClosedError(f"{self.name} closed without draining"))
        if self.pool is not None:
            self.pool.request_stop()
            if not self.pool.join(timeout=timeout):
                raise RuntimeError(f"{self.name}: worker did not stop within {timeout}s")
        # Final sweep: fail anything a racing submit slipped in after the
        # workers drained past their sentinels (see _enqueue).
        self._fail_pending(BatcherClosedError(f"{self.name} is shut down"))
        if self._shared_weights is not None:
            self._shared_weights.restore()
            self._shared_weights = None

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __enter__(self) -> "DynamicBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(drain=True)

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Snapshot of the engine counters (feeds the /metrics endpoint)."""
        aggregate = self.pool.aggregate_stats()
        stats: Dict[str, Any] = {
            "requests_total": self.requests_total,
            "errors_total": self.errors_total,
            "queue_depth": self.queue_depth,
            "batches_total": self.batch_sizes.batches,
            "samples_total": self.batch_sizes.samples,
            "mean_batch_size": self.batch_sizes.mean_batch_size(),
            "batch_size_histogram": self.batch_sizes.as_dict(),
            "queue_wait_ms": self.queue_latency.summary(unit="ms"),
            "compute_ms": self.compute_latency.summary(unit="ms"),
            "request_latency_ms": self.request_latency.summary(unit="ms"),
            "worker": {
                **aggregate.as_dict(),
                "utilization": 1.0 - aggregate.stall_fraction,
            },
            "pool": {
                "size": self.workers,
                "mode": self.mode,
                "alive": self.pool.alive_workers,
                "respawns_total": self.pool.respawns_total,
            },
            "workers": [worker.snapshot() for worker in self.pool.workers],
            "admission": self.admission.stats(),
        }
        if self.cache is not None:
            stats["cache"] = self.cache.stats()
        if self.slo is not None:
            stats["slo"] = self.slo.stats()
        return stats

    def snapshot(self) -> Dict[str, Any]:
        """The unified versioned snapshot (see :mod:`repro.telemetry`)."""
        return self.metrics.snapshot()


__all__ = [
    "AdmissionPolicy",
    "BatcherClosedError",
    "BatchingPolicy",
    "DynamicBatcher",
    "LoadShedError",
    "QueueFullError",
    "SLOPolicy",
    "WorkerDiedError",
]
