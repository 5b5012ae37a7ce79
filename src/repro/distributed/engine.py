"""Data-parallel training: forked replica workers + deterministic all-reduce.

``DataParallelTrainer`` drives ``world_size`` replica workers in lockstep,
one forked worker process per rank, with every per-step exchange going
through one shared-memory segment (the transport lives in
:mod:`repro.distributed.process`).  Each step:

1. every worker pulls the next batch of *its* rank's shard (a
   :class:`~repro.data.sampler.ShardedSampler`-backed pipeline loader), runs
   forward/backward on its forked copy of the model and writes the
   gradients into its rank's shared block;
2. the parent mean-reduces the rank blocks with the fixed-tree bucketed
   all-reduce (:mod:`repro.distributed.reduce`) into the master model's
   accumulators, applies the trainer's ``grad_hook``, and takes a
   **single** optimizer step on the master parameters;
3. the master parameters live in the segment and are stepped in place, so
   the workers see the new weights without a copy and resume with the next
   batch.

Determinism contract
--------------------
Per-replica computation is sequential numpy; the reduction tree's float-op
order depends only on ``world_size``; meters and buffer synchronisation walk
ranks in order.  Nothing observes worker arrival order, so results are
bit-stable across reruns, and a ``world_size=1`` run executes the exact
float-op sequence of the single-process pipeline-loader
:class:`~repro.train.trainer.Trainer` (the master's gradients alias rank 0's
shared block — zero float ops).

Scope
-----
Epoch-level callbacks work unchanged (they run in the parent between epochs
and may mutate the master model — the worker generation is re-forked when
the master's parameter structure changes).  Step-level callbacks fire in the
parent around the optimizer step with rank 0's batch; callbacks that mutate
model weights *per batch* (e.g. XNOR re-binarisation) are not supported
under ``world_size > 1``.  Custom ``loss_fn``/``loss_hook`` callables run in
the workers against the forked replica model.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.data.pipeline import BatchStream
from repro.distributed.reduce import (
    DEFAULT_BUCKET_ELEMS,
    allreduce_gradients,
    broadcast_arrays,
    mean_reduce_buffers,
)
from repro.profiling.pipeline import PipelineStats
from repro.telemetry import tracing as _tracing
from repro.train.metrics import AverageMeter
from repro.train.trainer import Callback, Trainer
from repro.utils import get_logger
from repro.utils.concurrency import fork_available

logger = get_logger("distributed")


class DataParallelTrainer(Trainer):
    """Trainer drive mode running ``world_size`` forked replica workers.

    Holds OS resources (worker processes + a ``/dev/shm`` segment) from the
    first :meth:`train_epoch` on; call :meth:`shutdown` when done
    (``run_experiment`` does).

    Parameters (beyond :class:`~repro.train.trainer.Trainer`'s)
    ----------------------------------------------------------
    world_size:
        Number of replicas.  ``1`` reproduces the single-process pipeline
        path bit-for-bit through the same lockstep machinery.
    replica_loaders:
        One :class:`BatchStream` per rank, each yielding that rank's shard.
        Defaults to sharding ``train_loader`` via
        :func:`repro.data.pipeline.shard_loader`.
    bucket_elems:
        All-reduce bucket capacity in elements (default 2^18 ≈ 1 MiB of
        float32 gradients per reduction tree).
    sync_buffers_each_epoch:
        Deterministically average float buffers (BatchNorm running stats)
        across replicas after every training epoch so the master model —
        the one ``evaluate`` sees — reflects all shards, not just rank 0's.
    """

    def __init__(
        self,
        model,
        optimizer,
        train_loader: BatchStream,
        val_loader: Optional[BatchStream] = None,
        *,
        world_size: int = 1,
        replica_loaders: Optional[Sequence[BatchStream]] = None,
        bucket_elems: int = DEFAULT_BUCKET_ELEMS,
        sync_buffers_each_epoch: bool = True,
        **trainer_kwargs,
    ):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if not fork_available():  # pragma: no cover — all targets fork
            raise RuntimeError(
                "DataParallelTrainer needs the 'fork' start method, which this "
                "platform lacks; train with world_size=1 (the plain Trainer)")
        if replica_loaders is None:
            if world_size == 1:
                replica_loaders = [train_loader]
            else:
                from repro.data.pipeline import shard_loader

                replica_loaders = [shard_loader(train_loader, rank, world_size)
                                   for rank in range(world_size)]
        replica_loaders = list(replica_loaders)
        if len(replica_loaders) != world_size:
            raise ValueError(
                f"expected {world_size} replica loaders, got {len(replica_loaders)}")
        super().__init__(model, optimizer, train_loader, val_loader, **trainer_kwargs)
        self.world_size = world_size
        self.replica_loaders = replica_loaders
        self.bucket_elems = bucket_elems
        self.sync_buffers_each_epoch = sync_buffers_each_epoch
        # Replicas are forked lazily at the first train_epoch (callbacks may
        # still restructure the master before then).
        self._process_group = None

    # ------------------------------------------------------------------ #
    # Per-replica step (runs in the forked worker, where self.model is
    # that rank's replica)
    # ------------------------------------------------------------------ #
    def _replica_step(self, batch) -> Tuple[float, Optional[float], int]:
        """Forward + backward on this process's replica; returns (loss,
        accuracy, n).  The base trainer's float-op sequence: loss (+
        ``loss_hook`` term) → zero grads → backward."""
        traced = _tracing.enabled()
        if traced:
            start = time.perf_counter()
        self._last_train_logits = None
        loss = self._loss_with_hook(batch)
        if traced:
            forward_end = time.perf_counter()
        self.model.zero_grad()
        loss.backward()
        if traced:
            backward_end = time.perf_counter()
        accuracy = self._batch_accuracy(batch)
        self._last_train_logits = None
        if traced:
            _tracing.record_span("forward", start, forward_end, cat="dp",
                                 parent="step")
            _tracing.record_span("backward", forward_end, backward_end,
                                 cat="dp", parent="step")
            _tracing.record_span("accounting", backward_end,
                                 time.perf_counter(), cat="dp", parent="step")
        return loss.item(), accuracy, len(batch[-1])

    # ------------------------------------------------------------------ #
    # Parent-side synchronisation
    # ------------------------------------------------------------------ #
    def _ensure_process_group(self):
        """Fork (or re-fork after a structural change) the worker generation."""
        from repro.distributed.process import ProcessReplicaGroup

        group = self._process_group
        if group is not None and not group.matches(self.model):
            logger.info("master model structure changed; re-forking %d replica "
                        "workers", self.world_size)
            group.shutdown()
            group = self._process_group = None
        if group is None:
            group = self._process_group = ProcessReplicaGroup(self)
        return group

    def _rank0_random_access_loader(self):
        """Rank 0's loader, for parent-side batch reload when a step
        callback actually consumes the batch (``None`` without random
        access)."""
        loader = self.replica_loaders[0]
        return loader if hasattr(loader, "load_batch") else None

    def _reduce_gradients(self, group, params) -> None:
        replica_grads = group.replica_grads()
        if self.world_size == 1:
            # Rank 0's shared block holds the only contribution — alias it
            # into the master accumulators: zero copies, zero float ops, so
            # ws=1 stays bit-identical to the single-process Trainer.
            for p, grad in zip(params, replica_grads[0]):
                p.grad = grad
            return
        for p, grad0 in zip(params, replica_grads[0]):
            if grad0 is None:
                p.grad = None
            elif p.grad is None or p.grad.shape != grad0.shape \
                    or p.grad.dtype != grad0.dtype:
                p.grad = np.empty_like(grad0)
        allreduce_gradients(replica_grads, [p.grad for p in params],
                            bucket_elems=self.bucket_elems)

    def _sync_buffers(self, group) -> None:
        """Epoch-end buffer exchange (workers are parked at the buffer phase).

        With syncing on and ``world_size > 1``: deterministically average
        float buffers across ranks and write the result to the master *and*
        back to every worker.  Otherwise the master adopts rank 0's buffers.
        """
        buffer_sets = group.rank_buffer_views()
        master = [buf.data for _, buf in self.model.named_buffers()]
        if self.world_size == 1 or not self.sync_buffers_each_epoch:
            broadcast_arrays(buffer_sets[0], [master])
            return
        broadcast_arrays(mean_reduce_buffers(buffer_sets), [master] + buffer_sets)

    # ------------------------------------------------------------------ #
    # The lockstep epoch
    # ------------------------------------------------------------------ #
    def train_epoch(self) -> Dict[str, float]:
        group = self._ensure_process_group()
        epoch = self.epochs_completed
        steps = min(len(loader) for loader in self.replica_loaders)
        if self.max_batches_per_epoch is not None:
            steps = min(steps, self.max_batches_per_epoch)
        world = self.world_size
        params = list(self.model.parameters())
        loss_meter, acc_meter = AverageMeter(), AverageMeter()
        # Reloading rank 0's batch costs a full materialisation — only pay
        # it when a step callback actually overrides on_batch_begin.
        needs_batch = any(type(cb).on_batch_begin is not Callback.on_batch_begin
                          for cb in self.callbacks)
        rank0_loader = self._rank0_random_access_loader() if needs_batch else None
        readback = self.sync_buffers_each_epoch and world > 1

        traced = _tracing.enabled()
        wall_start = time.perf_counter()
        try:
            group.begin_epoch(epoch, steps, readback, trace=traced)
            for step in range(steps):
                group.await_replicas()
                batch = (rank0_loader.load_batch(step, epoch)
                         if rank0_loader is not None else None)
                for callback in self.callbacks:
                    callback.on_batch_begin(self, step, batch)
                with _tracing.span("allreduce", cat="dp"):
                    self._reduce_gradients(group, params)
                    if self.grad_hook is not None:
                        self.grad_hook(self.model)
                with _tracing.span("optimizer", cat="dp"):
                    self.optimizer.step()
                # Parameters live in shared memory and were stepped in
                # place — the workers already see them; no broadcast.
                # Meters walk ranks in order — fixed accumulation order
                # regardless of which worker finished first.
                for rank in range(world):
                    loss, accuracy, n = group.read_step(rank)
                    loss_meter.update(loss, n)
                    if accuracy is not None:
                        acc_meter.update(accuracy, n)
                loss0, acc0, _ = group.read_step(0)
                batch_logs = {"loss": loss0}
                if acc0 is not None:
                    batch_logs["accuracy"] = acc0
                for callback in self.callbacks:
                    callback.on_batch_end(self, step, batch_logs)
                group.release_replicas()
            group.await_replicas()
            self._sync_buffers(group)
            if traced:
                # Each worker shipped its per-rank span buffer over its pipe
                # right after the buffer-phase arrive; merge them onto this
                # process's timeline before waking the workers.
                session = _tracing.current_session()
                for payload in group.collect_telemetry():
                    session.absorb(payload)
            group.release_replicas()
        except BaseException:
            # Workers may be desynced mid-step: tear the generation down
            # hard (terminate + unlink) rather than leave zombies + segment.
            group.shutdown(force=True)
            self._process_group = None
            raise
        wall_seconds = time.perf_counter() - wall_start

        stats = PipelineStats()
        for rank, replica in enumerate(group.epoch_replica_stats()):
            stats.merge(replica)
            stats.extra[f"replica{rank}_stall_seconds"] = replica.stall_seconds
            stats.extra[f"replica{rank}_compute_seconds"] = replica.compute_seconds
        stats.extra["world_size"] = float(world)
        stats.extra["wall_seconds"] = wall_seconds
        self.epochs_completed += 1
        self.last_epoch_pipeline_stats = stats
        self.pipeline_stats.merge(stats)
        # merge() sums the per-replica stall/compute (which overlap in wall
        # time); keep a cumulative wall clock so consumers can report true
        # data-parallel throughput (samples / wall, not samples / worker-time).
        self.pipeline_stats.extra["wall_seconds"] = (
            self.pipeline_stats.extra.get("wall_seconds", 0.0) + wall_seconds)
        self.pipeline_stats.extra["world_size"] = float(world)
        return {
            "loss": loss_meter.average,
            "accuracy": acc_meter.average,
            "data_stall_seconds": stats.stall_seconds,
            "data_compute_seconds": stats.compute_seconds,
            # Replicas overlap, so throughput is samples over *wall* time —
            # the per-replica stall/compute sums live in the stats.
            "samples_per_sec": stats.samples / wall_seconds if wall_seconds > 0 else 0.0,
        }

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Release the worker generation: stop workers, detach the master's
        parameters back to private memory, unlink the shared segment.

        Idempotent; training can resume afterwards (the next epoch forks a
        fresh generation).  ``run_experiment`` calls this in a ``finally``;
        direct users should too.
        """
        group = self._process_group
        if group is not None:
            self._process_group = None
            group.shutdown()

    def __del__(self):  # pragma: no cover — GC safety net
        try:
            self.shutdown()
        except Exception:  # noqa: BLE001
            pass


__all__ = ["DataParallelTrainer"]
