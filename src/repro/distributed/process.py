"""Process-based replica workers with shared-memory gradient exchange.

:class:`ProcessReplicaGroup` is the transport layer behind
:class:`~repro.distributed.DataParallelTrainer`: it owns one shared-memory
segment per worker generation, forks ``world_size`` replica processes, and
runs the lockstep arrive/resume protocol over semaphores — nothing crosses
a pickle boundary per step.

Segment layout (carved once per generation by :class:`~repro.utils.shm.ShmArena`)::

    [ param block   | one view per master parameter — the master's p.data is
                    | rebound onto these views *before* forking, so the
                    | parent's in-place optimizer step IS the broadcast      ]
    [ grad blocks   | world_size × (one view per parameter) — each worker
                    | copies its backward results here each step             ]
    [ presence      | world_size × n_params uint8 — which params produced a
                    | gradient this step (preserves None-grad semantics)     ]
    [ stats         | world_size × 8 float64 — per-step loss/acc/n plus
                    | cumulative stall/compute/samples/batches               ]
    [ buffer blocks | world_size × (one view per model buffer) — BatchNorm
                    | running stats cross the epoch boundary here            ]

Why fork + inheritance instead of named attach
----------------------------------------------
Workers never construct ``SharedMemory`` objects: they are forked *after*
the parent carves its numpy views and simply inherit the mapping.  On
Python <= 3.12 an attach-only ``SharedMemory(name)`` registers the segment
with the resource tracker, so a worker dying mid-step would trigger a
spurious tracker unlink of a segment the parent still owns.  With pure
inheritance the parent is the sole owner and
:mod:`repro.utils.shm`'s registry + ``atexit`` sweep can guarantee unlink
on normal *and* abnormal exit.

BLAS budget
-----------
A forked worker inherits the parent's OpenBLAS thread pools, sized for the
whole host; ``world_size`` such pools oversubscribe the cores several times
over.  Each worker therefore shrinks every loaded pool to at most
``max(1, usable_cores // world_size)`` threads at start-up — never growing
one, so an explicit ``OPENBLAS_NUM_THREADS`` below the budget stands.

Synchronisation
---------------
Not ``multiprocessing.Barrier`` — a timed-out barrier wait breaks the
barrier permanently, turning a slow step into an unrecoverable epoch.
Instead: one shared *arrive* semaphore (workers release, the parent
acquires ``world_size`` tokens in a short-interval poll loop that also
checks worker liveness and drains error reports from per-worker pipes) and
one *resume* semaphore **per worker** (a single shared resume semaphore
would let a fast worker steal a second token and run two steps ahead).
Commands (epoch start, stop) travel over the per-worker pipes; they are
small tuples, sent once per epoch — never per step.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from typing import List, Optional, Tuple

import numpy as np

from repro.profiling.pipeline import PipelineStats
from repro.telemetry import tracing as _tracing
from repro.utils import get_logger
from repro.utils.concurrency import cap_blas_threads, usable_cores
from repro.utils.shm import ShmArena, arena_bytes_for

logger = get_logger("distributed.process")

#: Liveness-poll interval for semaphore waits on both sides.
_POLL_S = 0.2

#: Generous per-step timeout: a replica that exceeds it is presumed hung.
DEFAULT_STEP_TIMEOUT_S = 600.0

#: Per-rank stats row layout (float64 slots).
_STAT_LOSS, _STAT_ACC, _STAT_HAS_ACC, _STAT_N = 0, 1, 2, 3
_STAT_STALL, _STAT_COMPUTE, _STAT_SAMPLES, _STAT_BATCHES = 4, 5, 6, 7
_STAT_SLOTS = 8


class ReplicaError(RuntimeError):
    """A replica worker process died or raised during a lockstep epoch."""


class _ParentGone(Exception):
    """Worker-side: the parent process disappeared; exit quietly."""


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class ProcessReplicaGroup:
    """One generation of forked replica workers over one shared segment.

    The group snapshots the trainer's model structure at construction; when
    an epoch callback restructures the master (Cuttlefish's low-rank switch,
    head widening, ...), :meth:`matches` returns ``False`` and the engine
    shuts this generation down and forks a fresh one against the new layout.
    """

    def __init__(self, trainer):
        self.trainer = trainer
        self.world = trainer.world_size
        self._shutdown_done = False
        self._parent_pid = os.getpid()
        #: rank → non-error pipe messages consumed by a health poll before
        #: their consumer asked for them (telemetry payloads).
        self._stashed: dict = {}

        model = trainer.model
        self._params = list(model.parameters())
        self._buffers = [buf for _, buf in model.named_buffers()]
        self._buffer_specs = [(tuple(buf.data.shape), buf.data.dtype.str)
                              for buf in self._buffers]
        n_params = len(self._params)

        specs = [(p.data.shape, p.data.dtype) for p in self._params]
        specs += [(p.data.shape, p.data.dtype)
                  for _ in range(self.world) for p in self._params]
        specs.append(((self.world, max(n_params, 1)), np.uint8))
        specs.append(((self.world, _STAT_SLOTS), np.float64))
        specs += [(buf.data.shape, buf.data.dtype)
                  for _ in range(self.world) for buf in self._buffers]
        self.arena = ShmArena(arena_bytes_for(specs))
        self._param_views: List[np.ndarray] = []
        self._grad_views: List[List[np.ndarray]] = []
        self._buffer_views: List[List[np.ndarray]] = []
        self._conns = []
        self._procs = []
        child_ends = []
        try:
            # Rebind master parameters onto segment views.  The optimizers
            # update p.data strictly in place, so every post-step value is
            # immediately visible to the forked workers — the broadcast
            # costs zero copies.
            for p in self._params:
                view = self.arena.alloc(p.data.shape, p.data.dtype)
                np.copyto(view, p.data)
                p.data = view
                self._param_views.append(view)

            for _ in range(self.world):
                self._grad_views.append([self.arena.alloc(p.data.shape, p.data.dtype)
                                         for p in self._params])
            self._presence = self.arena.alloc((self.world, max(n_params, 1)), np.uint8)
            self._presence[:] = 0
            self._stats = self.arena.alloc((self.world, _STAT_SLOTS), np.float64)
            self._stats[:] = 0.0
            for _ in range(self.world):
                self._buffer_views.append([self.arena.alloc(buf.data.shape, buf.data.dtype)
                                           for buf in self._buffers])

            ctx = multiprocessing.get_context("fork")
            self._arrive = ctx.Semaphore(0)
            self._resume = [ctx.Semaphore(0) for _ in range(self.world)]
            for rank in range(self.world):
                parent_end, child_end = ctx.Pipe()
                self._conns.append(parent_end)
                child_ends.append(child_end)
            for rank in range(self.world):
                proc = ctx.Process(target=self._worker_main,
                                   args=(rank, child_ends[rank]),
                                   daemon=True, name=f"dp-proc-{rank}")
                proc.start()
                self._procs.append(proc)
        except BaseException:
            # Release what was acquired so far — started workers, pipes,
            # the parameters' segment binding, the segment itself.
            self.shutdown(force=True)
            raise
        finally:
            for child_end in child_ends:
                child_end.close()
        logger.info("forked %d replica workers over shm segment %s (%d bytes)",
                    self.world, self.arena.segment.name, self.arena.segment.size)

    # ------------------------------------------------------------------ #
    # Structure tracking
    # ------------------------------------------------------------------ #
    def matches(self, model) -> bool:
        """Does ``model`` still have the structure this generation forked?

        Parameter *identity* is the check — a callback that swaps a layer
        rebinds ``p.data`` off the segment views even when shapes coincide,
        and workers would silently train the old weights.
        """
        params = list(model.parameters())
        if len(params) != len(self._param_views):
            return False
        if any(p.data is not view for p, view in zip(params, self._param_views)):
            return False
        buffer_specs = [(tuple(buf.data.shape), buf.data.dtype.str)
                        for _, buf in model.named_buffers()]
        return buffer_specs == self._buffer_specs

    # ------------------------------------------------------------------ #
    # Worker side (runs in the forked child)
    # ------------------------------------------------------------------ #
    def _worker_main(self, rank: int, conn) -> None:
        status = 1
        try:
            cap_blas_threads(max(1, usable_cores() // self.world))
            trainer = self.trainer
            model = trainer.model
            loader = trainer.replica_loaders[rank]
            params = self._params
            grad_views = self._grad_views[rank]
            presence = self._presence[rank]
            stats_row = self._stats[rank]
            buffer_views = self._buffer_views[rank]
            trace_ready = False
            while True:
                command = self._recv_command(conn)
                if command[0] == "stop":
                    status = 0
                    return
                _, epoch, steps, readback_buffers, trace = command
                if trace and not trace_ready:
                    # The fork inherited the parent's enabled tracer and a
                    # copy of its event buffer — re-home it as this rank's
                    # lane (or start fresh if tracing was enabled post-fork).
                    if _tracing.enabled():
                        _tracing.reset_after_fork(f"rank {rank}")
                    else:
                        _tracing.enable(f"rank {rank}")
                    trace_ready = True
                model.train()
                set_epoch = getattr(loader, "set_epoch", None)
                if set_epoch is not None:
                    set_epoch(epoch)
                stall = compute = 0.0
                samples = batches = 0
                iterator = iter(loader)
                for _ in range(steps):
                    requested = time.perf_counter()
                    batch = next(iterator)
                    delivered = time.perf_counter()
                    stall += delivered - requested
                    batches += 1
                    loss, accuracy, n = trainer._replica_step(batch)
                    for i, p in enumerate(params):
                        grad = p.grad
                        if grad is None:
                            presence[i] = 0
                        else:
                            presence[i] = 1
                            np.copyto(grad_views[i], grad)
                    compute_end = time.perf_counter()
                    compute += compute_end - delivered
                    samples += n
                    stats_row[_STAT_LOSS] = loss
                    stats_row[_STAT_ACC] = accuracy if accuracy is not None else 0.0
                    stats_row[_STAT_HAS_ACC] = 1.0 if accuracy is not None else 0.0
                    stats_row[_STAT_N] = float(n)
                    stats_row[_STAT_STALL] = stall
                    stats_row[_STAT_COMPUTE] = compute
                    stats_row[_STAT_SAMPLES] = float(samples)
                    stats_row[_STAT_BATCHES] = float(batches)
                    if trace:
                        _tracing.record_span("step", requested, compute_end,
                                             cat="dp", rank=rank)
                        _tracing.record_span("data_wait", requested,
                                             delivered, cat="dp",
                                             parent="step")
                    self._arrive.release()
                    self._await_resume(rank)
                    if trace:
                        _tracing.record_span("sync_wait", compute_end,
                                             time.perf_counter(), cat="dp")
                # Epoch-end buffer phase: expose this replica's buffers (BN
                # running stats), wait for the parent to reduce, and — when
                # syncing — adopt the reduced values for the next epoch.
                buffers = [buf for _, buf in model.named_buffers()]
                for view, buf in zip(buffer_views, buffers):
                    np.copyto(view, buf.data)
                self._arrive.release()
                if trace:
                    # Ship this epoch's spans AFTER the arrive release: the
                    # parent is then actively draining pipes (a send larger
                    # than the pipe buffer would otherwise deadlock against
                    # a parent still blocked on the arrive semaphore).
                    session = _tracing.current_session()
                    conn.send(("telemetry", rank,
                               session.drain_payload() if session else None))
                self._await_resume(rank)
                if readback_buffers:
                    for view, buf in zip(buffer_views, buffers):
                        np.copyto(buf.data, view)
        except _ParentGone:
            status = 2
        except BaseException:  # noqa: BLE001 — shipped to the parent verbatim
            try:
                conn.send(("error", rank, traceback.format_exc()))
            except Exception:  # noqa: BLE001
                pass
        finally:
            try:
                conn.close()
            except Exception:  # noqa: BLE001
                pass
            # _exit: never run parent-registered atexit hooks (the shm
            # registry's PID guard is belt; this is braces) and never flush
            # inherited stdio buffers twice.
            os._exit(status)

    def _recv_command(self, conn) -> Tuple:
        while not conn.poll(_POLL_S):
            if os.getppid() != self._parent_pid:
                raise _ParentGone()
        try:
            return conn.recv()
        except (EOFError, OSError) as error:
            raise _ParentGone() from error

    def _await_resume(self, rank: int) -> None:
        sem = self._resume[rank]
        while not sem.acquire(timeout=_POLL_S):
            if os.getppid() != self._parent_pid:
                raise _ParentGone()

    # ------------------------------------------------------------------ #
    # Parent side: the lockstep protocol
    # ------------------------------------------------------------------ #
    def begin_epoch(self, epoch: int, steps: int, readback_buffers: bool,
                    trace: bool = False) -> None:
        for conn in self._conns:
            conn.send(("epoch", epoch, steps, readback_buffers, trace))

    def await_replicas(self, timeout: float = DEFAULT_STEP_TIMEOUT_S) -> None:
        """Block until every worker has arrived; raise on death or error."""
        deadline = time.monotonic() + timeout
        for _ in range(self.world):
            while not self._arrive.acquire(timeout=_POLL_S):
                self._check_health()
                if time.monotonic() > deadline:
                    raise ReplicaError(
                        f"replica workers did not arrive within {timeout:.0f}s "
                        "(worker hung?)")

    def release_replicas(self) -> None:
        for sem in self._resume:
            sem.release()

    def _check_health(self) -> None:
        for rank, (proc, conn) in enumerate(zip(self._procs, self._conns)):
            message = None
            try:
                if conn.poll(0):
                    message = conn.recv()
            except (EOFError, OSError):
                message = None
            if message is not None:
                if message[0] == "error":
                    raise ReplicaError(
                        f"replica worker {message[1]} failed:\n{message[2]}")
                # Non-error traffic (a telemetry payload from a fast rank)
                # must survive the health poll for collect_telemetry.
                self._stashed.setdefault(rank, []).append(message)
            if not proc.is_alive():
                raise ReplicaError(
                    f"replica worker {rank} died (exitcode={proc.exitcode}) "
                    "without reporting an error")

    def collect_telemetry(self, timeout: float = 30.0) -> List[Optional[dict]]:
        """One ``drain_payload`` dict per rank (sent after the buffer-phase
        arrive); call between ``await_replicas`` and ``release_replicas``."""
        payloads: List[Optional[dict]] = [None] * self.world
        deadline = time.monotonic() + timeout
        for rank, conn in enumerate(self._conns):
            message = None
            stash = self._stashed.get(rank)
            while stash:
                candidate = stash.pop(0)
                if candidate[0] == "telemetry":
                    message = candidate
                    break
            while message is None:
                if conn.poll(_POLL_S):
                    candidate = conn.recv()
                    if candidate[0] == "error":
                        raise ReplicaError(
                            f"replica worker {candidate[1]} failed:\n{candidate[2]}")
                    if candidate[0] == "telemetry":
                        message = candidate
                elif time.monotonic() > deadline:
                    raise ReplicaError(
                        f"replica worker {rank} sent no telemetry within "
                        f"{timeout:.0f}s")
            payloads[rank] = message[2]
        return payloads

    # ------------------------------------------------------------------ #
    # Parent side: shared-state accessors
    # ------------------------------------------------------------------ #
    def replica_grads(self) -> List[List[Optional[np.ndarray]]]:
        """Rank-major per-parameter gradient views (``None`` where absent)."""
        return [[self._grad_views[rank][i] if self._presence[rank, i] else None
                 for i in range(len(self._params))]
                for rank in range(self.world)]

    def read_step(self, rank: int) -> Tuple[float, Optional[float], int]:
        row = self._stats[rank]
        accuracy = float(row[_STAT_ACC]) if row[_STAT_HAS_ACC] else None
        return float(row[_STAT_LOSS]), accuracy, int(row[_STAT_N])

    def epoch_replica_stats(self) -> List[PipelineStats]:
        out = []
        for rank in range(self.world):
            row = self._stats[rank]
            stats = PipelineStats(
                stall_seconds=float(row[_STAT_STALL]),
                compute_seconds=float(row[_STAT_COMPUTE]),
                batches=int(row[_STAT_BATCHES]),
                samples=int(row[_STAT_SAMPLES]))
            out.append(stats)
        return out

    def rank_buffer_views(self) -> List[List[np.ndarray]]:
        return self._buffer_views

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #
    def shutdown(self, *, force: bool = False) -> None:
        """Stop workers, detach master params to private memory, unlink.

        ``force=True`` skips the graceful stop (used when the epoch aborted
        mid-step and workers are blocked awaiting a resume that will never
        come).  Idempotent; safe from ``finally`` and ``__del__``.
        """
        if self._shutdown_done:
            return
        self._shutdown_done = True
        if not force:
            for conn in self._conns:
                try:
                    conn.send(("stop",))
                except Exception:  # noqa: BLE001
                    pass
            for proc in self._procs:
                proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover — ignored SIGTERM
                proc.kill()
                proc.join()
            # Reaped: release the sentinel pipe now, not when a traceback
            # that still references the process object is collected.
            proc.close()
        for conn in self._conns:
            try:
                conn.close()
            except Exception:  # noqa: BLE001
                pass
        self._detach_params()
        self.arena.close()

    def _detach_params(self) -> None:
        """Copy master params (and any aliased grads) back to private heap
        arrays so the model outlives the segment (export, checkpoint, eval)."""
        rank0_grads = self._grad_views[0] if self._grad_views else []
        for i, (p, view) in enumerate(zip(self._params, self._param_views)):
            if p.data is view:
                p.data = view.copy()
            if i < len(rank0_grads) and p.grad is not None \
                    and p.grad is rank0_grads[i]:
                p.grad = p.grad.copy()

    def __del__(self):  # pragma: no cover — GC safety net
        try:
            self.shutdown(force=True)
        except Exception:  # noqa: BLE001
            pass


__all__ = [
    "DEFAULT_STEP_TIMEOUT_S",
    "ProcessReplicaGroup",
    "ReplicaError",
    "fork_available",
]
