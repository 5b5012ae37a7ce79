"""Execution engines: where a coalesced batch actually runs.

The predictor pool (:mod:`repro.serve.pool`) separates *batching* from
*execution*.  A pool worker thread owns exactly one engine and funnels every
batch it assembles through :meth:`InferenceEngine.predict`:

* :class:`InlineEngine` — the forward pass runs on the worker thread itself.
  Pool size 1 with an inline engine is byte-for-byte the pre-pool
  ``DynamicBatcher`` behaviour; larger thread pools give each worker its own
  :meth:`Predictor.clone() <repro.serve.artifact.Predictor.clone>` so the
  lazily-built inference plan (whose replay value table is single-threaded
  state) is never shared across threads.
* :class:`ProcessEngine` — the forward pass runs in a forked child process,
  which sidesteps the GIL for the numpy-released BLAS *and* the Python glue
  around it.  The parent and child exchange batches through a per-engine
  shared-memory segment (input slab, output slab, a tiny int64 control
  block) guarded by a work/done semaphore pair; model weights live in a
  pool-wide read-only segment (:class:`SharedModelWeights`) carved *before*
  the fork, so N workers map one copy of the artifact instead of holding N.

Failure semantics are deliberately loud.  A child that disappears
mid-request (SIGKILL, OOM, crash) surfaces as :class:`WorkerDiedError` from
``predict`` — the pool retires that worker, fails its in-flight futures, and
``/healthz`` degrades until :meth:`respawn` forks a replacement.  A child
that merely *raises* (bad input, numerical error) ships the traceback back
over a pipe and keeps serving: model bugs are recoverable, dead processes
are not.

Determinism: the child copies the inbound shm view to a fresh C-contiguous
heap array before the forward, so the predictor sees exactly the kind of
array the inline engine passes (same layout, same alignment class) and the
bit-invariance argument of DESIGN.md §9 carries over unchanged.
"""

from __future__ import annotations

import os
import traceback
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.utils.concurrency import cap_blas_threads
from repro.utils.logging import get_logger
from repro.utils.shm import ShmArena, arena_bytes_for

logger = get_logger("serve.engine")

#: Liveness poll period while waiting on a child (same cadence as the
#: process data-parallel drive mode).
_POLL_S = 0.2

_CTRL_WORDS = 4          # [n_rows, error_flag, reserved, reserved]
_STOP = -1               # n_rows value that asks the child to exit


class WorkerDiedError(RuntimeError):
    """An inference worker is gone (killed, crashed, or never respawned).

    Raised from :meth:`ProcessEngine.predict` when the child dies
    mid-request, and set on every future the dead worker had in flight —
    callers fail loudly instead of hanging on a batch nobody will compute.
    """


class InlineEngine:
    """Run the predictor on the calling (pool-worker) thread."""

    mode = "thread"

    def __init__(self, predict_fn: Callable[[np.ndarray], np.ndarray]):
        self._predict = predict_fn

    @property
    def alive(self) -> bool:
        return True

    @property
    def pid(self) -> Optional[int]:
        return None

    def predict(self, batch: np.ndarray) -> np.ndarray:
        return self._predict(batch)

    def respawn(self) -> bool:
        """Inline engines have no separate process; nothing to respawn."""
        return False

    def close(self) -> None:
        pass


def _engine_child_main(predict_fn, inp, out, ctrl, work_sem, done_sem,
                       err_conn, parent_pid: int, blas_threads: Optional[int]) -> None:
    """Child loop: wait for work, run one forward, signal done.

    Runs in a forked process — ``inp``/``out``/``ctrl`` are inherited
    shared-memory views, ``predict_fn`` (and the model behind it) arrived
    via fork with its weights rebound onto the pool's read-only segment.
    The child first shrinks the OpenBLAS pools it inherited (sized for the
    whole host) to its ``blas_threads`` budget.  Exceptions are
    recoverable: the traceback travels back over the pipe and the loop keeps
    serving.  Exit paths: a stop command, or the parent disappearing (poll
    ``getppid`` so an orphan never lingers).
    """
    if blas_threads is not None:
        cap_blas_threads(blas_threads)
    while True:
        while not work_sem.acquire(timeout=_POLL_S):
            if os.getppid() != parent_pid:
                os._exit(0)
        n = int(ctrl[0])
        if n == _STOP:
            os._exit(0)
        try:
            # Fresh heap copy: the predictor must see the same array layout
            # the inline engine feeds it (see module docstring).
            result = predict_fn(inp[:n].copy())
            out[:n] = np.asarray(result, dtype=np.float32)
        except Exception as error:  # noqa: BLE001 — shipped to the parent
            ctrl[1] = 1
            try:
                err_conn.send(f"{type(error).__name__}: {error}\n"
                              f"{traceback.format_exc()}")
            except OSError:
                pass
        else:
            ctrl[1] = 0
        done_sem.release()


class ProcessEngine:
    """Run the predictor in a forked worker process over shared memory.

    One engine ↔ one child.  The parent-side :meth:`predict` is only ever
    called from the single pool-worker thread that owns this engine, so the
    slabs need no locking.  ``max_rows`` bounds the largest batch the slabs
    can carry — the pool sizes it to the batching policy's ceiling
    (including any SLO-controller headroom).  ``blas_threads`` caps each
    OpenBLAS pool in the child (the pool passes ``cores // workers``);
    ``None`` leaves the inherited pools as they are.
    """

    mode = "process"

    def __init__(
        self,
        predict_fn: Callable[[np.ndarray], np.ndarray],
        input_shape: Sequence[int],
        output_shape: Sequence[int],
        max_rows: int,
        name: str = "engine",
        blas_threads: Optional[int] = None,
    ):
        import multiprocessing

        if max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {max_rows}")
        self.name = name
        self.max_rows = int(max_rows)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.output_shape = tuple(int(s) for s in output_shape)
        self._predict = predict_fn
        self._blas_threads = blas_threads
        self._ctx = multiprocessing.get_context("fork")
        in_spec = ((self.max_rows, *self.input_shape), np.float32)
        out_spec = ((self.max_rows, *self.output_shape), np.float32)
        ctl_spec = ((_CTRL_WORDS,), np.int64)
        self._arena = ShmArena(arena_bytes_for([in_spec, out_spec, ctl_spec]))
        self._inp = self._arena.alloc(*in_spec)
        self._out = self._arena.alloc(*out_spec)
        self._ctrl = self._arena.alloc(*ctl_spec)
        self._proc = None
        self._err_r = None
        self._closed = False
        try:
            self.respawn()
        except BaseException:
            self.close()  # the slabs must not outlive a failed first fork
            raise

    # ------------------------------------------------------------------ #
    @property
    def alive(self) -> bool:
        return self.pid is not None

    @property
    def pid(self) -> Optional[int]:
        proc = self._proc
        try:
            return proc.pid if proc is not None and proc.is_alive() else None
        except ValueError:  # closed by a concurrent respawn/close: it is gone
            return None

    def respawn(self) -> bool:
        """Fork a fresh child (fresh semaphores, fresh error pipe).

        Returns ``True`` when a new child was started, ``False`` when the
        current one is still alive or the engine is closed.  Fresh
        synchronisation state matters: a SIGKILLed child can die holding a
        stale ``done`` token that would corrupt the next request's
        handshake.
        """
        if self._closed or self.alive:
            return False
        self._reap()
        self._work = self._ctx.Semaphore(0)
        self._done = self._ctx.Semaphore(0)
        err_r, err_w = self._ctx.Pipe(duplex=False)
        self._ctrl[:] = 0
        proc = self._ctx.Process(
            target=_engine_child_main,
            args=(self._predict, self._inp, self._out, self._ctrl,
                  self._work, self._done, err_w, os.getpid(),
                  self._blas_threads),
            name=f"{self.name}-proc",
            daemon=True,
        )
        try:
            proc.start()
        except BaseException:
            err_r.close()
            raise
        finally:
            err_w.close()
        self._proc = proc
        self._err_r = err_r
        return True

    def _reap(self) -> None:
        """Release the current child and its error pipe: stop it politely,
        then by force, and close the reaped process object (its sentinel
        pipe would otherwise live as long as any traceback that holds it)."""
        proc, self._proc = self._proc, None
        if proc is not None:
            if proc.is_alive():
                self._ctrl[0] = _STOP
                self._work.release()
                proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover — stuck child
                proc.terminate()
                proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover — ignored SIGTERM
                proc.kill()
                proc.join()
            proc.close()
        if self._err_r is not None:
            self._err_r.close()
            self._err_r = None

    # ------------------------------------------------------------------ #
    def predict(self, batch: np.ndarray) -> np.ndarray:
        proc = self._proc
        if proc is None or not proc.is_alive():
            raise WorkerDiedError(
                f"{self.name}: inference process is not running "
                f"(killed or never respawned)")
        batch = np.ascontiguousarray(batch, dtype=np.float32)
        n = batch.shape[0]
        if n > self.max_rows:
            raise ValueError(
                f"{self.name}: batch of {n} rows exceeds the engine's "
                f"{self.max_rows}-row shm slab")
        if tuple(batch.shape[1:]) != self.input_shape:
            raise ValueError(
                f"{self.name}: batch sample shape {tuple(batch.shape[1:])} "
                f"!= engine input shape {self.input_shape}")
        self._inp[:n] = batch
        self._ctrl[0] = n
        self._ctrl[1] = 0
        self._work.release()
        while not self._done.acquire(timeout=_POLL_S):
            if not proc.is_alive():
                raise WorkerDiedError(
                    f"{self.name}: inference process pid {proc.pid} died "
                    f"mid-request (exitcode {proc.exitcode})")
        if int(self._ctrl[1]) != 0:
            message = "inference failed in worker (no traceback received)"
            try:
                if self._err_r is not None and self._err_r.poll(1.0):
                    message = self._err_r.recv()
            except (EOFError, OSError):
                pass
            raise RuntimeError(f"{self.name}: {message}")
        return self._out[:n].copy()

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the child (politely, then by force) and unlink the slabs."""
        self._closed = True
        self._reap()
        self._arena.close()


class SharedModelWeights:
    """Rebind a model's parameters and buffers onto one read-only shm segment.

    Construct in the parent *before* forking process engines: every
    ``Parameter.data`` / ``Buffer.data`` array is copied into an aligned
    view of a single segment and the tensor is rebound to that view, so all
    forked children address the same physical pages — the artifact's weights
    are mapped once per host, not copied once per worker.  :meth:`restore`
    puts the original heap arrays back and unlinks the segment (safe while
    children still hold the mapping: the name disappears now, the pages when
    the last process unmaps).
    """

    def __init__(self, model):
        tensors = list(model.parameters())
        tensors += [buf for _, buf in model.named_buffers()]
        specs = [(t.data.shape, t.data.dtype) for t in tensors]
        self._arena = ShmArena(arena_bytes_for(specs))
        self._originals = []
        self.nbytes = 0
        for tensor in tensors:
            original = tensor.data
            view = self._arena.put(original)
            tensor.data = view
            self._originals.append((tensor, original))
            self.nbytes += original.nbytes
        self._restored = False

    @property
    def segment_name(self) -> str:
        return self._arena.segment.name

    def restore(self) -> None:
        """Rebind the original arrays and unlink the segment (idempotent)."""
        if self._restored:
            return
        self._restored = True
        for tensor, original in self._originals:
            tensor.data = original
        self._originals = []
        self._arena.close()


def probe_output_shape(predict_fn: Callable[[np.ndarray], np.ndarray],
                       input_shape: Sequence[int],
                       rows: int = 4) -> Tuple[int, ...]:
    """Per-sample output shape of ``predict_fn``, measured with one forward.

    Process engines must size their output slab before forking; the probe
    also warms any lazily-built inference plan in the parent so children
    inherit it pre-deserialized (copy-on-write) instead of each paying the
    build cost.
    """
    out = predict_fn(np.zeros((rows, *input_shape), dtype=np.float32))
    out = np.asarray(out)
    if out.ndim < 1 or out.shape[0] != rows:
        raise ValueError(
            f"predictor returned shape {out.shape} for a {rows}-row probe "
            f"batch; expected a leading batch axis")
    return tuple(out.shape[1:])


__all__ = [
    "InlineEngine",
    "ProcessEngine",
    "SharedModelWeights",
    "WorkerDiedError",
    "probe_output_shape",
]
