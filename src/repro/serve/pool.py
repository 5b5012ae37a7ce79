"""Predictor pool: N batching workers draining one shared request queue.

This is the replication layer the PR 3 engine lacked.  The queue, the
batching policy and the metrics instruments are shared; each
:class:`PoolWorker` runs the coalescing loop (collect → execute → respond)
on its own thread against its own :mod:`~repro.serve.engine` — an inline
engine for thread mode, a forked shared-memory engine for process mode.
Thread-mode engines all call the one stateless predictor they were given.
Pool size 1 with an inline engine reproduces the single-worker engine
byte-for-byte, and because the :class:`~repro.serve.artifact.Predictor`
canonicalizes batch geometry, predictions are bit-invariant across pool
sizes: which worker coalesced a request (and with whom) can never change
its answer, only its latency.

Worker failure is a first-class state, not an accident:

* a *recoverable* inference error (the model raised) fails that batch's
  futures and the worker keeps serving — exactly the pre-pool behaviour;
* a *fatal* error (:class:`~repro.serve.engine.WorkerDiedError` from a dead
  child process, or any non-``Exception`` escaping the predictor) fails the
  in-flight futures loudly, retires the worker, and drops the pool's
  ``pool_workers_alive`` gauge so ``/healthz`` degrades;
* when the *last* worker dies, queued requests are swept and failed —
  nothing ever hangs waiting for a worker that is not coming back;
* :meth:`PredictorPool.respawn_dead` rebuilds dead workers (reforking
  process engines) and restores full throughput without touching live ones.

Per-worker ``PipelineStats`` keep the stall-vs-compute split the trainer
uses; the pool aggregates them (including stats of retired generations) so
the engine-level ``worker`` metrics never move backwards across a respawn.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.profiling.pipeline import PipelineStats
from repro.serve.engine import WorkerDiedError
from repro.telemetry import MetricsRegistry
from repro.telemetry import tracing as _tracing
from repro.utils.concurrency import CLOSED, ClosableQueue
from repro.utils.logging import get_logger

logger = get_logger("serve.pool")


@dataclass
class WorkerContext:
    """Everything a pool worker shares with its siblings."""

    name: str
    queue: ClosableQueue
    policy: Any                       # BatchingPolicy (read every cycle)
    queue_latency: Any                # LatencyTracker
    compute_latency: Any
    request_latency: Any
    batch_sizes: Any                  # BatchSizeHistogram
    errors: Any                       # Counter
    cache: Optional[Any] = None       # ResponseCache
    slo: Optional[Any] = None         # SLOController


class PoolWorker:
    """One batching worker: a thread coalescing requests into one engine."""

    def __init__(self, index: int, engine, ctx: WorkerContext,
                 on_exit: Callable[["PoolWorker"], None]):
        self.index = index
        self.engine = engine
        self.ctx = ctx
        self.stats = PipelineStats()
        self.failed = False
        self._on_exit = on_exit
        self._thread = threading.Thread(
            target=self._run, name=f"{ctx.name}-worker{index}", daemon=True)

    def start(self) -> "PoolWorker":
        self._thread.start()
        return self

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout=timeout)

    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        try:
            self._loop()
        except BaseException as error:  # noqa: BLE001 — reported via futures
            self.failed = True
            logger.error("%s-worker%d died: %r", self.ctx.name, self.index, error)
        finally:
            try:
                self.engine.close()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
            self._on_exit(self)

    def _loop(self) -> None:
        ctx = self.ctx
        carry: Optional[Any] = None
        while True:
            waited_from = time.perf_counter()
            if carry is not None:
                item, carry = carry, None
            else:
                item = ctx.queue.get()
            if item is CLOSED:
                return
            first = item
            if first.n >= ctx.policy.max_batch_size:
                batch = [first]
            else:
                batch, carry = self._collect(first)
            # Idle-plus-coalescing wait is "stall", the forward pass is
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
        """Coalesce up to ``max_batch_size`` samples, bounded by max_wait_ms.

        Returns ``(batch, carry)`` — ``carry`` holds an item that must be
        handled next cycle (the shutdown sentinel, or a request that would
        overflow this batch); re-queueing either could block on a full
        bounded queue or reorder requests.
        """
        import queue as _stdlib_queue

        ctx = self.ctx
        batch = [first]
        carry: Optional[Any] = None
        total = first.n
        deadline = first.enqueued_at + ctx.policy.max_wait_ms / 1e3
        while total < ctx.policy.max_batch_size:
            remaining = deadline - time.perf_counter()
            try:
                item = ctx.queue.get_nowait() if remaining <= 0 else \
                    ctx.queue.get(timeout=remaining)
            except _stdlib_queue.Empty:
                break
            if item is CLOSED:
                carry = item
                break
            if total + item.n > ctx.policy.max_batch_size:
                carry = item
                break
            batch.append(item)
            total += item.n
        return batch, carry

    def _execute(self, batch: List[Any]) -> None:
        ctx = self.ctx
        started = time.perf_counter()
        for request in batch:
            ctx.queue_latency.observe(started - request.enqueued_at)
        total = sum(request.n for request in batch)
        ctx.batch_sizes.observe(total)
        try:
            stacked = batch[0].samples if len(batch) == 1 else \
                np.concatenate([request.samples for request in batch], axis=0)
            if total > ctx.policy.max_batch_size:
                # A single oversized request: chunk it so memory stays bounded.
                step = ctx.policy.max_batch_size
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
            ctx.errors.inc(len(batch))
            for request in batch:
                if not request.future.set_running_or_notify_cancel():
                    continue
                request.future.set_exception(error)
            return
        compute_end = time.perf_counter()
        ctx.compute_latency.observe(compute_end - started)
        offset = 0
        done = compute_end
        for request in batch:
            slice_ = outputs[offset:offset + request.n]
            offset += request.n
            latency = done - request.enqueued_at
            ctx.request_latency.observe(latency)
            if ctx.slo is not None:
                ctx.slo.observe(latency)
            if ctx.cache is not None and ctx.cache.enabled:
                ctx.cache.put(request.samples, slice_)
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
            f"{self.ctx.name}-worker{self.index} died mid-batch: {error!r}")
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
            self.ctx.errors.inc(failed)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "alive": self.alive,
            "failed": self.failed,
            "engine": getattr(self.engine, "mode", "unknown"),
            "pid": getattr(self.engine, "pid", None),
            **self.stats.as_dict(),
            "utilization": 1.0 - self.stats.stall_fraction,
        }


class PredictorPool:
    """N :class:`PoolWorker`\\ s over one queue, with liveness accounting."""

    def __init__(
        self,
        engine_factory: Callable[[int], Any],
        size: int,
        ctx: WorkerContext,
        registry: Optional[MetricsRegistry] = None,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = int(size)
        self.ctx = ctx
        self._engine_factory = engine_factory
        self._workers: List[PoolWorker] = []
        self._retired = PipelineStats()
        self._lock = threading.Lock()
        self.closed = False
        self.respawns_total = 0
        registry = registry or MetricsRegistry("serve")
        self._g_size = registry.gauge("pool_workers")
        self._g_alive = registry.gauge("pool_workers_alive")
        self._g_size.set(self.size)
        registry.register_collector("pool", self.snapshot)

    # ------------------------------------------------------------------ #
    def start(self) -> "PredictorPool":
        """Build every worker's engine, then start the workers.  On failure,
        stop what started and close every engine built so far."""
        started: List[PoolWorker] = []
        try:
            for index in range(self.size):
                worker = PoolWorker(index, self._engine_factory(index), self.ctx,
                                    self._on_worker_exit)
                self._workers.append(worker)
            for worker in self._workers:
                worker.start()
                started.append(worker)
        except BaseException:
            self.request_stop()
            for worker in started:
                worker.join()
            for worker in self._workers:
                worker.engine.close()  # idempotent for the started ones
            raise
        self._g_alive.set(self.alive_workers)
        return self

    @property
    def workers(self) -> List[PoolWorker]:
        return list(self._workers)

    @property
    def alive_workers(self) -> int:
        return sum(1 for worker in self._workers if worker.alive)

    @property
    def any_failed(self) -> bool:
        return any(worker.failed for worker in self._workers)

    def worker_pids(self) -> List[Optional[int]]:
        """Child PIDs per worker (``None`` for inline engines / dead workers)."""
        return [getattr(worker.engine, "pid", None) for worker in self._workers]

    # ------------------------------------------------------------------ #
    def _on_worker_exit(self, worker: PoolWorker) -> None:
        self._g_alive.set(self.alive_workers)
        if worker.failed and not self.closed and self.alive_workers == 0:
            # The last worker is gone: nothing will ever drain the queue, so
            # fail whatever is pending instead of hanging its callers.
            error = WorkerDiedError(
                f"{self.ctx.name}: all {self.size} inference workers are dead; "
                f"call respawn_workers() to recover")

            def fail(item) -> None:
                if item.future.set_running_or_notify_cancel():
                    item.future.set_exception(error)
                    self.ctx.errors.inc()

            self.ctx.queue.drain(fail)

    def respawn_dead(self) -> int:
        """Replace every dead worker with a fresh one; returns the count.

        Process engines are re-forked (their model weights are still mapped
        in the pool's shared segment); retired workers' stats fold into the
        pool accumulator so aggregate counters never move backwards.
        """
        respawned = 0
        with self._lock:
            if self.closed:
                return 0
            for index, worker in enumerate(self._workers):
                if worker.alive:
                    continue
                self._retired.merge(worker.stats)
                engine = worker.engine
                if not getattr(engine, "alive", False):
                    engine = self._engine_factory(index)
                replacement = PoolWorker(index, engine, self.ctx,
                                         self._on_worker_exit)
                self._workers[index] = replacement
                replacement.start()
                respawned += 1
                self.respawns_total += 1
        if respawned:
            logger.info("%s: respawned %d dead worker(s)", self.ctx.name, respawned)
            self._g_alive.set(self.alive_workers)
        return respawned

    # ------------------------------------------------------------------ #
    def request_stop(self) -> None:
        """Enqueue one shutdown sentinel per live worker.

        Extra sentinels (for workers that die while stopping) are harmless —
        ``drain`` discards them.
        """
        with self._lock:
            self.closed = True
        for _ in range(max(1, self.alive_workers)):
            self.ctx.queue.close()

    def join(self, timeout: Optional[float] = 30.0) -> bool:
        """Join every worker thread; ``True`` when all stopped in time."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        for worker in self._workers:
            remaining = None if deadline is None else \
                max(0.0, deadline - time.perf_counter())
            worker.join(timeout=remaining)
        self._g_alive.set(self.alive_workers)
        return self.alive_workers == 0

    # ------------------------------------------------------------------ #
    def aggregate_stats(self) -> PipelineStats:
        merged = PipelineStats()
        merged.merge(self._retired)
        for worker in self._workers:
            merged.merge(worker.stats)
        return merged

    def snapshot(self) -> Dict[str, Any]:
        return {
            "size": self.size,
            "alive": self.alive_workers,
            "respawns_total": self.respawns_total,
            "workers": [worker.snapshot() for worker in self._workers],
        }


__all__ = ["PoolWorker", "PredictorPool", "WorkerContext"]
