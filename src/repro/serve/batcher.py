"""Dynamic micro-batching over N inference workers.

``DynamicBatcher`` is the serving engine: one bounded request queue, an
admission policy in front of it, and ``workers=N`` :class:`PoolWorker`
threads draining it.  The batcher owns the whole lifecycle — one lock, one
``closed`` flag, the workers, their respawn, and the stats of the workers
it retired:

* **admission** (:mod:`repro.serve.admission`) — fail-fast ``reject`` (the
  default) or priority-aware load shedding, decided before a request takes
  a queue slot.
* **batching** — each :class:`PoolWorker` runs the coalescing loop: yield
  the interpreter once, block for the first request, take the requests
  already queued behind it up to ``max_batch_size`` samples, run the batch
  at once, give each future its slice.  Batching is work-conserving: a
  worker never waits for arrivals, and batches form from the backlog that
  builds while workers compute.
* **execution** (:mod:`repro.serve.engine`) — where the forward runs: on
  the worker thread (``mode="thread"``) or in a forked child over shared
  memory (``mode="process"``), with artifact weights mapped once into one
  read-only segment.

Workers share the queue.  One thread-mode worker is byte-for-byte the
single-worker engine, and outputs are bit-invariant across worker counts
because the :class:`~repro.serve.artifact.Predictor` padding rule makes
predictions a pure function of each request's samples (DESIGN.md §9, §16).

Requests may carry several samples; one carrying more than
``max_batch_size`` is executed alone, chunked into max-batch-size pieces.
:meth:`DynamicBatcher.close` stops intake, optionally drains queued work,
and fails any futures that remain.

Worker failure is a first-class state, not an accident:

* a *recoverable* inference error (the model raised) fails that batch's
  futures and the worker keeps serving;
* a *fatal* error (:class:`~repro.serve.engine.WorkerDiedError` from a dead
  child process, or any non-``Exception`` escaping the predictor) fails the
  in-flight futures loudly, retires the worker and drops the
  ``pool_workers_alive`` gauge, so ``/healthz`` degrades;
* when the *last* worker retires, queued requests are swept and failed —
  nothing ever hangs waiting for a worker that is not coming back;
* :meth:`DynamicBatcher.respawn_workers` replaces dead workers (re-forking
  process engines) without touching live ones.

Per-worker ``PipelineStats`` keep the stall-vs-compute split the trainer
uses; a retired worker's stats fold into an accumulator once its
replacement runs, so the ``worker`` metrics never move backwards across a
respawn.
"""

from __future__ import annotations

import queue as _stdlib_queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import nn
from repro.profiling.pipeline import PipelineStats
from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    LoadShedError,
    QueueFullError,
)
from repro.serve.artifact import Predictor
from repro.serve.engine import (
    InlineEngine,
    ProcessEngine,
    SharedModelWeights,
    WorkerDiedError,
    probe_output_shape,
)
from repro.telemetry import MetricsRegistry
from repro.telemetry import tracing as _tracing
from repro.utils.concurrency import CLOSED, ClosableQueue, fork_available, usable_cores
from repro.utils.logging import get_logger

logger = get_logger("serve.batcher")

_MODES = ("thread", "process")


class BatcherClosedError(RuntimeError):
    """The batcher no longer accepts requests."""


@dataclass(frozen=True)
class BatchingPolicy:
    """Knobs of the coalescing loop.

    ``max_batch_size``  — largest number of samples fused into one forward;
                          it also sizes the process engines' shm slabs.
    ``max_queue``       — bound on queued requests (backpressure).

    There is no wait window: a worker dispatches what is queued as soon as
    it is free (DESIGN.md §9.2).
    """

    max_batch_size: int = 32
    max_queue: int = 256

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
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


class PoolWorker:
    """One batching worker: a thread coalescing requests into one engine."""

    def __init__(self, batcher: "DynamicBatcher", index: int, engine):
        self.batcher = batcher
        self.index = index
        self.engine = engine
        self.stats = PipelineStats()
        self.failed = False
        self.exited = False
        self._thread = threading.Thread(
            target=self._run, name=f"{batcher.name}-worker{index}", daemon=True)

    def start(self) -> "PoolWorker":
        self._thread.start()
        return self

    @property
    def alive(self) -> bool:
        """Started and not yet retired.  ``exited`` turns true before the
        batcher hears of the exit, so the exiting worker never counts itself
        among the live ones."""
        return self._thread.is_alive() and not self.exited

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread.ident is not None:  # a never-started thread has nothing to join
            self._thread.join(timeout=timeout)

    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        try:
            self._loop()
        except BaseException as error:  # noqa: BLE001 — reported via futures
            self.failed = True
            logger.error("%s-worker%d died: %r", self.batcher.name, self.index, error)
        finally:
            try:
                self.engine.close()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
            self.exited = True
            self.batcher._on_worker_exit(self)

    def _loop(self) -> None:
        queue = self.batcher._queue
        max_batch_size = self.batcher.policy.max_batch_size
        carry: Optional[Any] = None
        while True:
            waited_from = time.perf_counter()
            # Yield the interpreter once before forming a batch: callers the
            # last batch answered then queue their next requests first, and
            # a closed loop of in-process callers keeps riding one batch
            # instead of splitting into convoys that leave a batch of one.
            time.sleep(0)
            if carry is not None:
                item, carry = carry, None
            else:
                item = queue.get()
            if item is CLOSED:
                return
            if item.n >= max_batch_size:
                batch = [item]
            else:
                batch, carry = self._collect(item)
            # Idle-plus-collecting time is "stall", the forward pass is
            # "compute" — the serving twin of the trainer's data-stall split.
            executing_from = time.perf_counter()
            self.stats.observe_stall(executing_from - waited_from)
            if _tracing.enabled():
                _tracing.record_span("batch_assembly", waited_from,
                                     executing_from, cat="serve",
                                     requests=len(batch))
            try:
                self._execute(batch)
            except BaseException as error:
                # The worker is dying with a batch in flight: fail every
                # unresolved future loudly before unwinding — callers must
                # never hang on a batch nobody will compute.
                self._fail_batch(batch, error)
                raise
            self.stats.observe_compute(time.perf_counter() - executing_from,
                                       samples=sum(r.n for r in batch))

    def _collect(self, first) -> Tuple[List[Any], Optional[Any]]:
        """Add the requests queued behind ``first``, up to ``max_batch_size``
        samples, without waiting for more to arrive.

        Returns ``(batch, carry)`` — ``carry`` holds an item that must be
        handled next cycle (the shutdown sentinel, or a request that would
        overflow this batch); re-queueing either could block on a full
        bounded queue or reorder requests.
        """
        queue = self.batcher._queue
        max_batch_size = self.batcher.policy.max_batch_size
        batch, total = [first], first.n
        while total < max_batch_size:
            try:
                item = queue.get_nowait()
            except _stdlib_queue.Empty:
                break
            if item is CLOSED or total + item.n > max_batch_size:
                return batch, item
            batch.append(item)
            total += item.n
        return batch, None

    def _execute(self, batch: List[Any]) -> None:
        batcher = self.batcher
        started = time.perf_counter()
        for request in batch:
            batcher.queue_latency.observe(started - request.enqueued_at)
        total = sum(request.n for request in batch)
        batcher.batch_sizes.observe(total)
        try:
            stacked = batch[0].samples if len(batch) == 1 else \
                np.concatenate([request.samples for request in batch], axis=0)
            step = batcher.policy.max_batch_size
            if total > step:
                # A single oversized request: chunk it so memory stays bounded.
                outputs = np.concatenate(
                    [self.engine.predict(stacked[i:i + step])
                     for i in range(0, total, step)],
                    axis=0,
                )
            else:
                outputs = self.engine.predict(stacked)
        except WorkerDiedError:
            raise  # fatal: _loop fails the batch and retires this worker
        except Exception as error:  # noqa: BLE001 — forwarded to the callers
            batcher._errors.inc(len(batch))
            for request in batch:
                if not request.future.set_running_or_notify_cancel():
                    continue
                request.future.set_exception(error)
            return
        compute_end = time.perf_counter()
        batcher.compute_latency.observe(compute_end - started)
        offset = 0
        for request in batch:
            slice_ = outputs[offset:offset + request.n]
            offset += request.n
            batcher.request_latency.observe(compute_end - request.enqueued_at)
            if request.future.set_running_or_notify_cancel():
                request.future.set_result(slice_)
        if _tracing.enabled():
            _tracing.record_span("inference", started, compute_end,
                                 cat="serve", samples=total)
            _tracing.record_span("respond", compute_end, time.perf_counter(),
                                 cat="serve")

    def _fail_batch(self, batch: List[Any], error: BaseException) -> None:
        cause = error if isinstance(error, Exception) else None
        failure = error if isinstance(error, WorkerDiedError) else WorkerDiedError(
            f"{self.batcher.name}-worker{self.index} died mid-batch: {error!r}")
        if cause is not None and failure is not cause:
            failure.__cause__ = cause
        failed = 0
        for request in batch:
            if request.future.done():
                continue
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(failure)
                failed += 1
        if failed:
            self.batcher._errors.inc(failed)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "alive": self.alive,
            "failed": self.failed,
            "engine": self.engine.mode,
            "pid": self.engine.pid,
            **self.stats.as_dict(),
            "utilization": 1.0 - self.stats.stall_fraction,
        }


class DynamicBatcher:
    """Thread-safe request coalescing in front of N inference workers."""

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
        self._pool: List[PoolWorker] = []
        self._retired = PipelineStats()
        self.respawns_total = 0

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
        self.batch_sizes = self.metrics.histogram(
            "batch_sizes", max_batch_size=self.policy.max_batch_size)
        self.admission = AdmissionController(
            self._queue, self.policy.max_queue, admission,
            registry=self.metrics, name=name)
        self.metrics.gauge("pool_workers").set(self.workers)
        self._g_alive = self.metrics.gauge("pool_workers_alive")
        self.metrics.register_collector("pool", self._pool_snapshot)

        self._shared_weights: Optional[SharedModelWeights] = None
        try:
            self._engine_factory = self._build_engine_factory(input_shape)
            for index in range(self.workers):
                self._pool.append(PoolWorker(self, index, self._engine_factory(index)))
            for worker in self._pool:
                worker.start()
        except BaseException:
            # Stop the workers that started, close every engine built so
            # far, put the weights back on the heap and unlink their segment.
            self.close(drain=False)
            raise
        self._g_alive.set(self.alive_workers)

    # ------------------------------------------------------------------ #
    def _build_engine_factory(self, input_shape) -> Callable[[int], Any]:
        if self.mode == "thread":
            # Every worker runs the caller's predictor: it is stateless, so
            # threads share it (DESIGN.md §16.1).
            return lambda index: InlineEngine(self.predict)

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
                                 max_rows=self.policy.max_batch_size,
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
    def pool_workers(self) -> List[PoolWorker]:
        """The current worker of every slot (a copy of the list)."""
        return list(self._pool)

    @property
    def worker_alive(self) -> bool:
        """``True`` iff every worker is alive."""
        return self.alive_workers == self.workers

    @property
    def alive_workers(self) -> int:
        return sum(1 for worker in self._pool if worker.alive)

    def worker_pids(self) -> List[Optional[int]]:
        """Child PIDs per worker (``None`` in thread mode and for dead children)."""
        return [worker.engine.pid for worker in self._pool]

    def _aggregate_stats(self) -> PipelineStats:
        merged = PipelineStats()
        merged.merge(self._retired)
        for worker in self._pool:
            merged.merge(worker.stats)
        return merged

    def _worker_snapshot(self) -> Dict[str, Any]:
        aggregate = self._aggregate_stats()
        return {
            **aggregate.as_dict(),
            "utilization": 1.0 - aggregate.stall_fraction,
            "queue_depth": self.queue_depth,
            "alive": self.worker_alive,
        }

    def _pool_snapshot(self) -> Dict[str, Any]:
        return {
            "size": self.workers,
            "alive": self.alive_workers,
            "respawns_total": self.respawns_total,
            "workers": [worker.snapshot() for worker in self._pool],
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
        try:
            self.admission.admit(request, timeout)
        except QueueFullError:
            self._errors.inc()
            raise
        # close() — or the exit of the last worker — may have raced us
        # between the _closed check and the put: if no worker remains,
        # nothing will ever drain this request — sweep the queue so the
        # future fails instead of hanging its caller.
        if self.alive_workers == 0:
            if self._closed:
                self._fail_pending(BatcherClosedError(f"{self.name} is shut down"))
            elif any(worker.failed for worker in self._pool):
                self._fail_pending(self._all_dead_error())
        return request.future

    def __call__(self, samples: np.ndarray, timeout: Optional[float] = None) -> np.ndarray:
        """Synchronous convenience: submit and wait for the result."""
        future = self.submit_batch(samples, timeout=None)
        return future.result(timeout=timeout)

    def _fail_pending(self, error: Exception) -> int:
        """Fail every queued request with ``error``; returns how many."""
        failed = 0

        def fail(item) -> None:
            nonlocal failed
            if item.future.set_running_or_notify_cancel():
                item.future.set_exception(error)
                failed += 1

        self._queue.drain(fail)
        return failed

    def _all_dead_error(self) -> WorkerDiedError:
        return WorkerDiedError(
            f"{self.name}: all {self.workers} inference workers are dead; "
            f"call respawn_workers() to recover")

    def _on_worker_exit(self, worker: PoolWorker) -> None:
        """Called on the exiting worker's own thread, after it has marked
        itself exited."""
        alive = self.alive_workers
        self._g_alive.set(alive)
        if worker.failed and not self._closed and alive == 0:
            # The last worker is gone: nothing will ever drain the queue, so
            # fail whatever is pending instead of hanging its callers.
            self._errors.inc(self._fail_pending(self._all_dead_error()))

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def respawn_workers(self) -> int:
        """Replace every dead worker with a fresh one; returns the count.

        Process engines are re-forked (their model weights are still mapped
        in the shared segment).  A retired worker's stats fold into the
        accumulator only once its replacement runs, so a failed respawn
        leaves the counters as they were.  No-op on a closed batcher.
        """
        respawned = 0
        with self._lock:
            if self._closed:
                return 0
            try:
                for index, worker in enumerate(self._pool):
                    if worker.alive:
                        continue
                    engine = worker.engine
                    if not engine.alive:
                        engine = self._engine_factory(index)
                    self._pool[index] = PoolWorker(self, index, engine).start()
                    self._retired.merge(worker.stats)
                    respawned += 1
                    self.respawns_total += 1
            finally:
                if respawned:
                    logger.info("%s: respawned %d dead worker(s)", self.name, respawned)
                    self._g_alive.set(self.alive_workers)
        return respawned

    def close(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Stop accepting requests and stop the workers.

        ``drain=True`` lets every queued request finish first; ``False``
        fails queued-but-unstarted requests with :class:`BatcherClosedError`.
        Raises ``RuntimeError`` when a worker is still busy after
        ``timeout`` seconds; that worker exits, and closes its engine, once
        its batch returns.  Safe to call more than once.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool = list(self._pool)
        try:
            if not drain:
                self._fail_pending(BatcherClosedError(f"{self.name} closed without draining"))
            # One shutdown sentinel per live worker; a spare one (for a
            # worker that dies while stopping) is harmless — drain discards it.
            for _ in range(max(1, self.alive_workers)):
                self._queue.close()
            deadline = None if timeout is None else time.perf_counter() + timeout
            for worker in pool:
                worker.join(None if deadline is None
                            else max(0.0, deadline - time.perf_counter()))
            self._g_alive.set(self.alive_workers)
            if any(worker.alive for worker in pool):
                raise RuntimeError(f"{self.name}: worker did not stop within {timeout}s")
            # Workers close their engines as they exit; this closes the
            # engines of workers that never started (a failed constructor).
            for worker in pool:
                worker.engine.close()
            # Final sweep: fail anything a racing submit slipped in after the
            # workers drained past their sentinels (see _enqueue).  Only once
            # every worker is gone: a busy one still needs its sentinel.
            self._fail_pending(BatcherClosedError(f"{self.name} is shut down"))
        finally:
            # Every child maps the weights already, so the segment can be
            # unlinked even while a busy child still reads it.
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
        aggregate = self._aggregate_stats()
        return {
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
                "alive": self.alive_workers,
                "respawns_total": self.respawns_total,
            },
            "workers": [worker.snapshot() for worker in self._pool],
            "admission": self.admission.stats(),
        }

    def snapshot(self) -> Dict[str, Any]:
        """The unified versioned snapshot (see :mod:`repro.telemetry`)."""
        return self.metrics.snapshot()


__all__ = [
    "AdmissionPolicy",
    "BatcherClosedError",
    "BatchingPolicy",
    "DynamicBatcher",
    "LoadShedError",
    "PoolWorker",
    "QueueFullError",
    "WorkerDiedError",
]
