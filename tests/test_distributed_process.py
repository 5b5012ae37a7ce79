"""Tests for the forked-worker transport behind ``DataParallelTrainer``.

The contract under test (DESIGN.md §11): one forked worker per rank, all
parameter/gradient traffic through one shared-memory segment — and the
numerics must not notice.  Covered here:

* bit-parity — ``world_size=1`` identical to the plain pipeline ``Trainer``;
  ``world_size=2`` bit-stable across reruns; at world sizes 2 and 3, across
  bucket-boundary configurations (tiny ``bucket_elems``, single-parameter
  models) and with buffer sync off, identical to a sequential lockstep
  reference written here (parameters, losses, and BatchNorm buffers);
* lifecycle — segments unlink on shutdown, on worker crash, on worker
  exception, and when forking fails part-way; shutdown is idempotent;
  training resumes after shutdown; structural callbacks re-fork the worker
  generation;
* failure semantics — a worker exception propagates with its traceback, a
  worker killed mid-step raises ``ReplicaError``, and neither leaks a
  ``/dev/shm`` segment (the autouse leak ledger checks every test);
* the BLAS budget — each forked worker caps its OpenBLAS pools;
* integration — ``fit``/``evaluate``, ``max_batches_per_epoch``, per-replica
  pipeline stats, ``run_experiment`` rows, and the CLI flag.
"""

import copy
import glob
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro import nn
from repro.data import ArrayDataset, PipelineLoader, ShardedSampler
from repro.distributed import (
    DEFAULT_BUCKET_ELEMS,
    DataParallelTrainer,
    ReplicaError,
    allreduce_gradients,
    broadcast_arrays,
    mean_reduce_buffers,
)
from repro.models import build_model
from repro.optim import SGD
from repro.tensor import functional as F
from repro.train.metrics import AverageMeter
from repro.train.trainer import Callback, Trainer
from repro.utils import get_rng, seed_everything
from repro.utils.concurrency import blas_thread_counts, cap_blas_threads, usable_cores
from repro.utils.shm import SEGMENT_PREFIX, active_owned_segments


def make_dataset(n=64, image=8, num_classes=4, seed=0):
    seed_everything(seed)
    rng = get_rng(offset=5)
    images = rng.standard_normal((n, 3, image, image)).astype(np.float32)
    labels = rng.integers(0, num_classes, size=n).astype(np.int64)
    return ArrayDataset(images, labels)


def make_model(num_classes=4, seed=0):
    return build_model("resnet18", num_classes=num_classes, width_mult=0.125,
                       small_input=True, rng=get_rng(offset=seed + 1))


def build_resnet():
    seed_everything(0)
    model = make_model()
    return model, SGD(model.parameters(), lr=0.05, momentum=0.9)


def build_linear():
    """One bias-free Linear: one parameter, one bucket, no buffers — the
    degenerate layout for the shared-segment carve."""
    seed_everything(0)
    model = nn.Linear(12, 3, bias=False, rng=get_rng(offset=2))
    return model, SGD(model.parameters(), lr=0.1)


def linear_dataset():
    seed_everything(0)
    rng = get_rng(offset=5)
    features = rng.standard_normal((48, 12)).astype(np.float32)
    labels = rng.integers(0, 3, size=48).astype(np.int64)
    return ArrayDataset(features, labels)


def make_trainer(dataset, world_size, build=build_resnet, batch_size=8, **kwargs):
    model, optimizer = build()
    train_loader = PipelineLoader(dataset, batch_size, shuffle=True)
    return DataParallelTrainer(model, optimizer, train_loader,
                               world_size=world_size, **kwargs)


def params_of(model):
    return [p.data.copy() for p in model.parameters()]


def buffers_of(model):
    return [buf.data.copy() for _, buf in model.named_buffers()]


def own_segments_on_disk():
    return glob.glob(os.path.join("/dev/shm", f"{SEGMENT_PREFIX}-{os.getpid()}-*"))


def run_epochs(trainer, epochs=2):
    try:
        losses = [trainer.train_epoch()["loss"] for _ in range(epochs)]
        return losses, params_of(trainer.model), buffers_of(trainer.model)
    finally:
        trainer.shutdown()


def lockstep_reference(dataset, world_size, build=build_resnet, epochs=2,
                       batch_size=8, bucket_elems=DEFAULT_BUCKET_ELEMS,
                       sync_buffers_each_epoch=True):
    """Data-parallel training without workers: the arithmetic the forked
    engine must reproduce bit for bit.

    Each step runs deep-copied replicas in rank order, mean-reduces their
    gradients into the master with ``allreduce_gradients``, takes one
    optimizer step and copies the parameters back with ``broadcast_arrays``.
    At each epoch's end the master takes the ``mean_reduce_buffers`` average
    of the replicas' buffers (and the replicas adopt it) — or, with syncing
    off, rank 0's buffers.
    """
    model, optimizer = build()
    replicas = [copy.deepcopy(model) for _ in range(world_size)]
    loaders = [PipelineLoader(dataset, batch_size, sampler=ShardedSampler(
                   len(dataset), rank=rank, world_size=world_size, shuffle=True))
               for rank in range(world_size)]
    params = list(model.parameters())
    master_buffers = [buf.data for _, buf in model.named_buffers()]
    losses = []
    for epoch in range(epochs):
        meter = AverageMeter()
        for replica, loader in zip(replicas, loaders):
            replica.train()
            loader.set_epoch(epoch)
        for batches in zip(*loaders):
            for replica, batch in zip(replicas, batches):
                loss = F.softmax_cross_entropy(replica(batch[0]), batch[-1])
                replica.zero_grad()
                loss.backward()
                meter.update(loss.item(), len(batch[-1]))
            grads = [[p.grad for p in replica.parameters()] for replica in replicas]
            for p, grad0 in zip(params, grads[0]):
                p.grad = np.empty_like(grad0)
            allreduce_gradients(grads, [p.grad for p in params], bucket_elems)
            optimizer.step()
            broadcast_arrays([p.data for p in params],
                             [[p.data for p in replica.parameters()] for replica in replicas])
        buffer_sets = [[buf.data for _, buf in replica.named_buffers()]
                       for replica in replicas]
        if sync_buffers_each_epoch:
            broadcast_arrays(mean_reduce_buffers(buffer_sets), [master_buffers] + buffer_sets)
        else:
            broadcast_arrays(buffer_sets[0], [master_buffers])
        losses.append(meter.average)
    return losses, params_of(model), buffers_of(model)


def assert_bit_identical(got, want):
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1]) and len(got[2]) == len(want[2])
    for a, b in zip(got[1] + got[2], want[1] + want[2]):
        assert np.array_equal(a, b)


# --------------------------------------------------------------------------- #
# Bit-parity
# --------------------------------------------------------------------------- #
class TestProcessModeParity:
    def test_world_size_one_bit_identical_to_trainer(self):
        dataset = make_dataset()
        model, optimizer = build_resnet()
        trainer = Trainer(model, optimizer,
                          PipelineLoader(dataset, 8, shuffle=True))
        ref_losses = [trainer.train_epoch()["loss"] for _ in range(2)]
        got = run_epochs(make_trainer(dataset, 1))
        assert_bit_identical(got, (ref_losses, params_of(model), buffers_of(model)))

    @pytest.mark.parametrize("world_size", [2, 3])
    def test_bit_stable_across_reruns(self, world_size):
        dataset = make_dataset()
        first = run_epochs(make_trainer(dataset, world_size))
        second = run_epochs(make_trainer(dataset, world_size))
        assert_bit_identical(first, second)

    @pytest.mark.parametrize("world_size", [2, 3])
    def test_matches_sequential_reference(self, world_size):
        dataset = make_dataset()
        assert_bit_identical(run_epochs(make_trainer(dataset, world_size)),
                             lockstep_reference(dataset, world_size))

    @pytest.mark.parametrize("bucket_elems", [1, 64, 1 << 18])
    def test_bucket_boundaries_cross_mode(self, bucket_elems):
        # Gradients far over, straddling, and far under the bucket cap must
        # reduce to the same bits in the forked workers and the sequential
        # reference.
        dataset = make_dataset(n=32)
        got = run_epochs(make_trainer(dataset, 2, bucket_elems=bucket_elems), epochs=1)
        assert_bit_identical(got, lockstep_reference(dataset, 2, epochs=1,
                                                     bucket_elems=bucket_elems))

    def test_single_parameter_model_cross_mode(self):
        dataset = linear_dataset()
        got = run_epochs(make_trainer(dataset, 2, build=build_linear))
        assert len(got[1]) == 1
        assert_bit_identical(got, lockstep_reference(dataset, 2, build=build_linear))

    def test_buffer_sync_disabled_matches_reference(self):
        dataset = make_dataset()
        got = run_epochs(make_trainer(dataset, 2, sync_buffers_each_epoch=False))
        assert_bit_identical(got, lockstep_reference(dataset, 2,
                                                     sync_buffers_each_epoch=False))


# --------------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------------- #
class TestProcessModeLifecycle:
    def test_shutdown_unlinks_and_is_idempotent(self):
        dataset = make_dataset(n=16)
        dp = make_trainer(dataset, 2)
        dp.train_epoch()
        assert len(active_owned_segments()) == 1
        dp.shutdown()
        assert active_owned_segments() == []
        dp.shutdown()  # second call is a no-op

    def test_training_resumes_after_shutdown(self):
        dataset = make_dataset(n=16)
        dp = make_trainer(dataset, 2)
        first = dp.train_epoch()["loss"]
        dp.shutdown()
        second = dp.train_epoch()["loss"]  # fresh generation forked
        dp.shutdown()
        assert np.isfinite(first) and np.isfinite(second)
        assert dp.epochs_completed == 2

    def test_params_detached_after_shutdown(self):
        dataset = make_dataset(n=16)
        dp = make_trainer(dataset, 1)
        dp.train_epoch()
        stepped = params_of(dp.model)
        dp.shutdown()
        # Values survive the unlink, on private memory.
        for a, p in zip(stepped, dp.model.parameters()):
            assert np.array_equal(a, p.data)
            assert p.data.base is None

    def test_failed_fork_releases_everything(self, monkeypatch):
        # Rank 1's fork fails after rank 0's worker started: the constructor
        # must stop rank 0, detach the parameters and unlink the segment.
        fork_process = multiprocessing.get_context("fork").Process
        start = fork_process.start
        starts = []

        def failing_start(proc):
            starts.append(proc.name)
            if len(starts) == 2:
                raise OSError("fork refused")
            start(proc)

        monkeypatch.setattr(fork_process, "start", failing_start)
        dp = make_trainer(make_dataset(n=16), 2)
        segments = set(active_owned_segments())
        # Holding the traceback keeps the half-built group alive, so its
        # __del__ safety net cannot do the constructor's job.
        with pytest.raises(OSError, match="fork refused") as failure:
            dp.train_epoch()
        assert failure.traceback
        assert starts == ["dp-proc-0", "dp-proc-1"]
        assert set(active_owned_segments()) == segments
        assert not [child for child in multiprocessing.active_children()
                    if child.name.startswith("dp-proc-")]
        assert all(p.data.base is None for p in dp.model.parameters())
        dp.shutdown()

    def test_structure_change_reforks_generation(self):
        dataset = make_dataset()

        class WidenHead(Callback):
            def on_epoch_end(self, trainer, epoch, logs):
                if epoch == 0:
                    old = trainer.model.fc
                    hidden = old.weight.data.shape[1]
                    trainer.model.fc = nn.Sequential(
                        nn.Linear(hidden, 8, rng=get_rng(offset=3)),
                        nn.Linear(8, old.weight.data.shape[0],
                                  rng=get_rng(offset=4)),
                    )
                    trainer.rebuild_optimizer_params()

        dp = make_trainer(dataset, 2, callbacks=[WidenHead()])
        try:
            history = dp.fit(epochs=2)
            assert len(history) == 2
            assert all(np.isfinite(r.train_loss) for r in history)
        finally:
            dp.shutdown()

    def test_fit_and_evaluate_on_master(self):
        dataset = make_dataset()
        val = make_dataset(n=16)
        seed_everything(0)
        model = make_model()
        dp = DataParallelTrainer(
            model, SGD(model.parameters(), lr=0.05, momentum=0.9),
            PipelineLoader(dataset, 8, shuffle=True), PipelineLoader(val, 8),
            world_size=2)
        try:
            history = dp.fit(epochs=2)
            assert len(history) == 2
            assert all(r.val_accuracy is not None for r in history)
        finally:
            dp.shutdown()

    def test_max_batches_caps_lockstep_steps(self):
        dataset = make_dataset()
        dp = make_trainer(dataset, 2, max_batches_per_epoch=2)
        try:
            dp.train_epoch()
            assert dp.last_epoch_pipeline_stats.samples == 2 * 2 * 8
        finally:
            dp.shutdown()

    def test_epoch_stats_carry_per_replica_split(self):
        dataset = make_dataset()
        dp = make_trainer(dataset, 2)
        try:
            logs = dp.train_epoch()
            stats = dp.last_epoch_pipeline_stats
            assert stats.extra["world_size"] == 2.0
            assert "replica0_stall_seconds" in stats.extra
            assert "replica1_compute_seconds" in stats.extra
            assert stats.extra["wall_seconds"] > 0
            assert logs["samples_per_sec"] > 0
        finally:
            dp.shutdown()

    def test_step_callbacks_see_rank0_batch(self):
        dataset = make_dataset()
        seen = []

        class Recorder(Callback):
            def on_batch_begin(self, trainer, step, batch):
                seen.append(None if batch is None else batch[0].shape)

            def on_batch_end(self, trainer, step, logs):
                assert "loss" in logs

        dp = make_trainer(dataset, 2, callbacks=[Recorder()])
        try:
            dp.train_epoch()
        finally:
            dp.shutdown()
        assert seen and all(shape == (8, 3, 8, 8) for shape in seen)


# --------------------------------------------------------------------------- #
# Failure semantics
# --------------------------------------------------------------------------- #
class TestProcessModeFailures:
    def test_worker_exception_propagates_with_traceback(self):
        dataset = make_dataset()

        def exploding_loss(model, batch):
            raise ValueError("replica blew up in the child")

        dp = make_trainer(dataset, 2, loss_fn=exploding_loss)
        with pytest.raises(ReplicaError, match="replica blew up in the child"):
            dp.train_epoch()
        # The failed epoch tore the generation down hard — nothing leaked.
        assert active_owned_segments() == []
        dp.shutdown()

    def test_worker_crash_raises_and_unlinks(self):
        # os._exit skips every finally and atexit in the child: the parent's
        # liveness poll must catch the death, and the parent's teardown must
        # still unlink (crash-injection satellite).
        dataset = make_dataset()

        def dying_loss(model, batch):
            os._exit(3)

        dp = make_trainer(dataset, 2, loss_fn=dying_loss)
        with pytest.raises(ReplicaError, match="died"):
            dp.train_epoch()
        assert active_owned_segments() == []
        assert own_segments_on_disk() == []
        dp.shutdown()  # idempotent after the forced teardown

    def test_one_rank_crashing_is_still_detected(self, tmp_path):
        # Exactly ONE worker dies (first to create the flag file wins); the
        # surviving rank parks at the lockstep barrier and the parent's
        # liveness poll must still notice and raise.
        dataset = make_dataset()
        flag = str(tmp_path / "crash-once")

        def die_once_loss(model, batch):
            try:
                os.close(os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                os._exit(5)
            except FileExistsError:
                pass
            logits = model(batch[0])
            return F.softmax_cross_entropy(logits, batch[-1])

        dp = make_trainer(dataset, 2, loss_fn=die_once_loss)
        try:
            with pytest.raises(ReplicaError, match="died"):
                dp.train_epoch()
        finally:
            dp.shutdown()


# --------------------------------------------------------------------------- #
# Experiment harness + CLI integration
# --------------------------------------------------------------------------- #
class TestProcessModeIntegration:
    def _config(self, **overrides):
        from repro.train.experiments import VisionExperimentConfig

        defaults = dict(epochs=1, batch_size=16, max_batches_per_epoch=2,
                        width_mult=0.125)
        defaults.update(overrides)
        return VisionExperimentConfig(**defaults)

    def test_dp_mode_validation(self):
        # dp_mode is still checked, at construction, but picks neither the
        # loader nor the trainer: world_size alone picks the trainer.
        self._config(dp_mode="process")
        self._config(dp_mode="thread", world_size=2)
        with pytest.raises(ValueError, match="dp_mode"):
            self._config(dp_mode="fiber")
        with pytest.raises(ValueError, match="loader"):
            self._config(dp_mode="process", world_size=2, loader="legacy")

    def test_run_experiment_process_rows_match_thread(self):
        from repro.train.experiments import ExperimentSpec, run_experiment

        def row(dp_mode):
            result = run_experiment(ExperimentSpec(
                method="full_rank",
                config=self._config(world_size=2, dp_mode=dp_mode)))
            d = result.as_dict()
            d.pop("wallclock_seconds")
            return d

        assert row("thread") == row("process")

    def test_run_experiment_world_size_one_process(self):
        from repro.train.experiments import ExperimentSpec, run_experiment

        _, context = run_experiment(
            ExperimentSpec(method="full_rank",
                           config=self._config(dp_mode="process")),
            return_context=True)
        assert type(context.trainer) is Trainer

    def test_cli_world_size_flag(self):
        import io

        from repro.cli import main

        stream = io.StringIO()
        code = main(["train", "--method", "full_rank", "--epochs", "1",
                     "--max-batches", "2", "--batch-size", "16",
                     "--world-size", "2"],
                    stream=stream)
        assert code == 0
        out = stream.getvalue()
        assert "world_size=2)" in out
        assert "data-parallel throughput" in out


# --------------------------------------------------------------------------- #
# BLAS budget
# --------------------------------------------------------------------------- #
def in_forked_child(fn):
    """``fn()``'s result, computed in a forked child process."""
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=lambda: send.send(fn()))
    proc.start()
    try:
        assert receive.poll(30.0), "the forked child sent no result"
        return receive.recv()
    finally:
        proc.join(timeout=30.0)
        receive.close()
        send.close()


class TestBlasBudget:
    def test_forked_child_caps_each_pool_at_the_budget(self):
        budget = max(1, usable_cores() // 2)
        before, after = in_forked_child(
            lambda: (blas_thread_counts(), cap_blas_threads(budget)))
        if not before:
            pytest.skip("no OpenBLAS library loaded")
        assert after == {path: min(n, budget) for path, n in before.items()}

    def test_pool_at_one_stays_at_one(self):
        def shrink_then_cap():
            cap_blas_threads(1)
            return cap_blas_threads(max(2, usable_cores()))

        after = in_forked_child(shrink_then_cap)
        assert all(n == 1 for n in after.values())

    def test_replicas_train_within_the_budget(self, tmp_path):
        def reporting_loss(model, batch):
            with open(tmp_path / f"{os.getpid()}.json", "w") as report:
                json.dump(blas_thread_counts(), report)
            return F.softmax_cross_entropy(model(batch[0]), batch[-1])

        dp = make_trainer(make_dataset(n=16), 2, loss_fn=reporting_loss,
                          max_batches_per_epoch=1)
        try:
            dp.train_epoch()
        finally:
            dp.shutdown()
        budget = max(1, usable_cores() // 2)
        reports = [json.loads(path.read_text()) for path in tmp_path.glob("*.json")]
        assert len(reports) == 2
        for counts in reports:
            assert all(n <= budget for n in counts.values())
