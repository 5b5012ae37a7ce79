"""Tests for the data-parallel training engine.

Covers the deterministic reduction primitives (fixed-tree sum, bucket
planning, gradient mean-reduce, buffer averaging), cross-rank shard
semantics (disjoint-before-padding, full coverage, equal lengths, and the
padding rule matching single-rank gradient sums on the tiny ResNet cell),
and the ``DataParallelTrainer`` contract: ``world_size=1`` bit-identical to
the plain pipeline-loader ``Trainer``, ``world_size=N`` bit-stable across
reruns, workers stepping from the master's parameters and averaged
BatchNorm buffers (seen from inside the forked workers), a fresh worker
generation after epoch callbacks restructure the master, and loud
worker-error propagation.  Transport-level behaviour (shared-memory
lifecycle, crashes, the BLAS budget) lives in test_distributed_process.py.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    DataLoader,
    PipelineLoader,
    ShardedSampler,
    shard_loader,
)
from repro.distributed import (
    DataParallelTrainer,
    ReplicaError,
    allreduce_gradients,
    mean_reduce_buffers,
    plan_buckets,
    tree_reduce,
)
from repro.distributed.reduce import DEFAULT_BUCKET_ELEMS
from repro.models import build_model
from repro.optim import SGD
from repro.tensor import functional as F
from repro.train.trainer import Callback, Trainer
from repro.utils import get_rng, seed_everything


# --------------------------------------------------------------------------- #
# Fixtures
# --------------------------------------------------------------------------- #
def make_dataset(n=64, image=8, num_classes=4, seed=0):
    seed_everything(seed)
    rng = get_rng(offset=5)
    images = rng.standard_normal((n, 3, image, image)).astype(np.float32)
    labels = rng.integers(0, num_classes, size=n).astype(np.int64)
    return ArrayDataset(images, labels)


def make_model(num_classes=4, seed=0):
    """The tiny ResNet cell: resnet18 at 1/8 width."""
    return build_model("resnet18", num_classes=num_classes, width_mult=0.125,
                       small_input=True, rng=get_rng(offset=seed + 1))


def make_trainer(dataset, world_size, batch_size=8, lr=0.05, **kwargs):
    model = make_model()
    optimizer = SGD(model.parameters(), lr=lr, momentum=0.9)
    train_loader = PipelineLoader(dataset, batch_size, shuffle=True)
    return DataParallelTrainer(model, optimizer, train_loader,
                               world_size=world_size, **kwargs)


def params_of(model):
    return [p.data.copy() for p in model.parameters()]


# --------------------------------------------------------------------------- #
# Reduction primitives
# --------------------------------------------------------------------------- #
class TestTreeReduce:
    def test_matches_sum(self):
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal(37).astype(np.float32) for _ in range(5)]
        # Different association order than np.sum — equal to float tolerance.
        np.testing.assert_allclose(tree_reduce(arrays), np.sum(arrays, axis=0),
                                   rtol=1e-5, atol=1e-6)

    def test_order_is_a_function_of_count_only(self):
        # The float-op sequence must not depend on anything but the inputs in
        # index order: summing the same list twice is bitwise identical.
        rng = np.random.default_rng(1)
        arrays = [rng.standard_normal(1001).astype(np.float32) for _ in range(7)]
        first = tree_reduce([a.copy() for a in arrays])
        second = tree_reduce([a.copy() for a in arrays])
        assert np.array_equal(first, second)

    def test_single_input_returned_unchanged(self):
        a = np.arange(4.0)
        assert tree_reduce([a]) is a

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            tree_reduce([])


class TestPlanBuckets:
    def test_respects_capacity(self):
        buckets = plan_buckets([10, 10, 10, 10], bucket_elems=25)
        assert buckets == [[0, 1], [2, 3]]

    def test_oversized_tensor_gets_own_bucket(self):
        buckets = plan_buckets([100, 3, 3], bucket_elems=10)
        assert buckets == [[0], [1, 2]]

    def test_covers_all_indices_in_order(self):
        sizes = [7, 1, 19, 4, 2]
        flat = [i for bucket in plan_buckets(sizes, bucket_elems=8) for i in bucket]
        assert flat == list(range(len(sizes)))

    def test_invalid_capacity_raises(self):
        with pytest.raises(ValueError):
            plan_buckets([1], bucket_elems=0)

    def test_exact_fit_closes_bucket(self):
        # A tensor landing exactly on the cap fills the bucket; the next
        # tensor starts a fresh one.
        assert plan_buckets([10, 3], bucket_elems=10) == [[0], [1]]
        assert plan_buckets([7, 3, 1], bucket_elems=10) == [[0, 1], [2]]

    def test_one_over_capacity_spills(self):
        assert plan_buckets([7, 4], bucket_elems=10) == [[0], [1]]

    def test_zero_size_tensors_cost_nothing(self):
        assert plan_buckets([0, 10, 0], bucket_elems=10) == [[0, 1, 2]]


class TestAllreduceGradients:
    def _grads(self, world_size, shapes, seed=0):
        rng = np.random.default_rng(seed)
        return [[rng.standard_normal(shape).astype(np.float32) for shape in shapes]
                for _ in range(world_size)]

    def test_mean_reduction(self):
        shapes = [(3, 4), (7,), (2, 2, 2)]
        replicas = self._grads(4, shapes)
        out = [np.empty(shape, dtype=np.float32) for shape in shapes]
        reduced = allreduce_gradients(replicas, out)
        assert reduced == len(shapes)
        for i, shape in enumerate(shapes):
            expected = np.mean([replicas[r][i] for r in range(4)], axis=0)
            np.testing.assert_allclose(out[i], expected, rtol=1e-5, atol=1e-6)

    def test_bucket_boundaries_do_not_change_values(self):
        shapes = [(5,), (11,), (3,), (8,)]
        replicas = self._grads(3, shapes, seed=2)
        big = [np.empty(s, dtype=np.float32) for s in shapes]
        small = [np.empty(s, dtype=np.float32) for s in shapes]
        allreduce_gradients(replicas, big, bucket_elems=1 << 20)
        allreduce_gradients(replicas, small, bucket_elems=4)
        for a, b in zip(big, small):
            np.testing.assert_allclose(a, b, rtol=1e-6)

    def test_none_everywhere_is_skipped(self):
        replicas = [[None, np.ones(3, dtype=np.float32)] for _ in range(2)]
        out = [None, np.empty(3, dtype=np.float32)]
        assert allreduce_gradients(replicas, out) == 1
        np.testing.assert_allclose(out[1], np.ones(3))

    def test_rank_dependent_none_raises(self):
        replicas = [[np.ones(3, dtype=np.float32)], [None]]
        with pytest.raises(RuntimeError, match="presence mismatch"):
            allreduce_gradients(replicas, [np.empty(3, dtype=np.float32)])

    def test_length_mismatch_raises(self):
        replicas = [[np.ones(3, dtype=np.float32)], []]
        with pytest.raises(ValueError, match="structure diverged"):
            allreduce_gradients(replicas, [np.empty(3, dtype=np.float32)])

    def test_default_bucket_boundary_sizes(self):
        # Tensors exactly at, one under, and one over the default bucket
        # capacity: the exact/under tensors each fill (or nearly fill) a
        # bucket and the over-sized one gets a bucket of its own — and the
        # reduced values must be bitwise identical to the unbucketed reduce.
        shapes = [(DEFAULT_BUCKET_ELEMS,), (DEFAULT_BUCKET_ELEMS - 1,),
                  (DEFAULT_BUCKET_ELEMS + 1,)]
        assert plan_buckets([s[0] for s in shapes]) == [[0], [1], [2]]
        replicas = self._grads(2, shapes, seed=7)
        bucketed = [np.empty(s, dtype=np.float32) for s in shapes]
        whole = [np.empty(s, dtype=np.float32) for s in shapes]
        assert allreduce_gradients(replicas, bucketed) == 3
        allreduce_gradients(replicas, whole, bucket_elems=1 << 30)
        for a, b in zip(bucketed, whole):
            assert np.array_equal(a, b)

    def test_zero_size_gradients(self):
        # A zero-element parameter (e.g. an empty bias after pruning) must
        # ride through packing untouched and not perturb its bucket-mates.
        shapes = [(3,), (0,), (5,)]
        replicas = self._grads(3, shapes, seed=4)
        out = [np.empty(s, dtype=np.float32) for s in shapes]
        assert allreduce_gradients(replicas, out) == 3
        for i in (0, 2):
            expected = np.mean([replicas[r][i] for r in range(3)], axis=0)
            np.testing.assert_allclose(out[i], expected, rtol=1e-5, atol=1e-6)
        assert out[1].size == 0

    def test_single_parameter_model(self):
        # One tensor, one bucket: the degenerate single-param path.
        replicas = self._grads(4, [(9, 9)], seed=5)
        out = [np.empty((9, 9), dtype=np.float32)]
        assert allreduce_gradients(replicas, out) == 1
        expected = np.mean([replicas[r][0] for r in range(4)], axis=0)
        np.testing.assert_allclose(out[0], expected, rtol=1e-5, atol=1e-6)


class TestMeanReduceBuffers:
    def test_float_buffers_averaged(self):
        sets = [[np.full(4, float(rank), dtype=np.float32)] for rank in range(4)]
        reduced = mean_reduce_buffers(sets)
        np.testing.assert_allclose(reduced[0], np.full(4, 1.5))

    def test_integer_buffers_take_rank0(self):
        sets = [[np.array([1, 2])], [np.array([9, 9])]]
        reduced = mean_reduce_buffers(sets)
        np.testing.assert_array_equal(reduced[0], [1, 2])

    def test_inputs_untouched(self):
        first = np.ones(3, dtype=np.float32)
        sets = [[first], [np.full(3, 3.0, dtype=np.float32)]]
        mean_reduce_buffers(sets)
        np.testing.assert_allclose(first, np.ones(3))


# --------------------------------------------------------------------------- #
# Cross-rank shard semantics (the all-reduce's data contract)
# --------------------------------------------------------------------------- #
class TestShardSemantics:
    @pytest.mark.parametrize("n,world_size", [(64, 2), (64, 4), (33, 2),
                                              (10, 3), (7, 4), (2, 5)])
    def test_shards_partition_the_epoch(self, n, world_size):
        seed_everything(0)
        shards = [ShardedSampler(n, rank=r, world_size=world_size).indices(epoch=3)
                  for r in range(world_size)]
        lengths = {len(s) for s in shards}
        assert lengths == {(n + world_size - 1) // world_size}, \
            "all ranks must run the same number of steps"
        union = np.concatenate(shards)
        assert set(union.tolist()) == set(range(n)), "shards must cover every index"
        # Disjoint before padding: every index appears exactly once, plus the
        # cyclic repetitions the padding rule adds — spread as evenly as the
        # cycle allows (counts differ by at most one, never a starved rank).
        pad = (-n) % world_size
        counts = np.bincount(union, minlength=n)
        assert counts.sum() == n + pad
        assert counts.min() >= 1
        if pad == 0:
            assert (counts == 1).all()
        else:
            assert counts.max() - counts.min() <= 1

    def test_bad_rank_and_world_size_raise_loudly(self):
        with pytest.raises(ValueError, match="rank"):
            ShardedSampler(8, rank=2, world_size=2)
        with pytest.raises(ValueError, match="rank"):
            ShardedSampler(8, rank=-1, world_size=2)
        with pytest.raises(ValueError, match="world_size"):
            ShardedSampler(8, rank=0, world_size=0)
        with pytest.raises(ValueError, match="at least one sample"):
            ShardedSampler(0, rank=0, world_size=1)

    @pytest.mark.parametrize("n,world_size", [(24, 2), (22, 4)])
    def test_padding_rule_matches_single_rank_gradient_sums(self, n, world_size):
        """Averaging per-shard mean gradients == the gradient over the padded
        global batch on the tiny ResNet cell (the identity the all-reduce
        loop's lockstep padding exists to preserve).

        Eval-mode BatchNorm: the identity requires a batch-independent model
        function, and train-mode BN normalises with *local* batch statistics
        (data-parallel BN is local-BN here, exactly like torch DDP).
        """
        dataset = make_dataset(n=n)
        model = make_model()
        model.eval()

        def grad_for(indices):
            images = np.stack([dataset[i][0] for i in indices])
            labels = np.asarray([dataset[i][1] for i in indices])
            model.zero_grad()
            loss = F.softmax_cross_entropy(model(images), labels)
            loss.backward()
            return [p.grad.copy() for p in model.parameters()]

        shards = [ShardedSampler(n, rank=r, world_size=world_size).indices(epoch=0)
                  for r in range(world_size)]
        per_rank = [grad_for(shard) for shard in shards]
        averaged = [np.mean([per_rank[r][i] for r in range(world_size)], axis=0)
                    for i in range(len(per_rank[0]))]
        global_order = np.concatenate([
            ShardedSampler(n, rank=r, world_size=world_size).indices(epoch=0)
            for r in range(world_size)])
        reference = grad_for(global_order)
        for mean_grad, ref_grad in zip(averaged, reference):
            np.testing.assert_allclose(mean_grad, ref_grad, rtol=2e-4, atol=1e-6)


# --------------------------------------------------------------------------- #
# shard_loader
# --------------------------------------------------------------------------- #
class TestShardLoader:
    def test_shards_a_pipeline_loader(self):
        dataset = make_dataset()
        loader = PipelineLoader(dataset, 8, shuffle=True)
        sharded = shard_loader(loader, rank=1, world_size=2)
        assert isinstance(sharded.sampler, ShardedSampler)
        assert sharded.sampler.rank == 1
        assert len(sharded.sampler) == len(dataset) // 2

    def test_legacy_loader_rejected(self):
        dataset = make_dataset()
        with pytest.raises(TypeError, match="PipelineLoader"):
            shard_loader(DataLoader(dataset, 8), rank=0, world_size=2)

    def test_world_size_one_matches_unsharded_order(self):
        dataset = make_dataset()
        loader = PipelineLoader(dataset, 8, shuffle=True)
        sharded = shard_loader(loader, rank=0, world_size=1)
        np.testing.assert_array_equal(loader.sampler.indices(4),
                                      sharded.sampler.indices(4))


# --------------------------------------------------------------------------- #
# DataParallelTrainer
# --------------------------------------------------------------------------- #
def digest(arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def recording_loss(directory):
    """Default loss that first logs, per worker process, a digest of the
    replica's parameters and buffers as that step sees them."""

    def loss_fn(model, batch):
        line = (digest(p.data for p in model.parameters()) + " "
                + digest(buf.data for _, buf in model.named_buffers()))
        with open(os.path.join(directory, f"{os.getpid()}.log"), "a") as log:
            log.write(line + "\n")
        return F.softmax_cross_entropy(model(batch[0]), batch[-1])

    return loss_fn


def worker_logs(directory):
    """One list of (param digest, buffer digest) per worker process."""
    return [[tuple(line.split()) for line in path.read_text().splitlines()]
            for path in sorted(directory.glob("*.log"))]


def epochs_of(trainer, epochs):
    try:
        return [trainer.train_epoch() for _ in range(epochs)]
    finally:
        trainer.shutdown()


class TestDataParallelTrainer:
    def test_world_size_one_bit_identical_to_trainer(self):
        dataset = make_dataset()
        seed_everything(0)
        model = make_model()
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        trainer = Trainer(model, optimizer, PipelineLoader(dataset, 8, shuffle=True))
        ref = [trainer.train_epoch() for _ in range(2)]
        ref_params = params_of(model)

        seed_everything(0)
        dp = make_trainer(dataset, world_size=1)
        got = epochs_of(dp, 2)
        for r, g in zip(ref, got):
            assert r["loss"] == g["loss"]
            assert r["accuracy"] == g["accuracy"]
        for a, b in zip(ref_params, params_of(dp.model)):
            assert np.array_equal(a, b)

    def test_default_loaders_from_shard_loader(self):
        # replica_loaders=None exercises the shard_loader default path.
        dataset = make_dataset()
        seed_everything(0)
        model = make_model()
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        dp = DataParallelTrainer(model, optimizer,
                                 PipelineLoader(dataset, 8, shuffle=True),
                                 world_size=2)
        assert len(dp.replica_loaders) == 2
        (logs,) = epochs_of(dp, 1)
        assert np.isfinite(logs["loss"])

    def test_default_shards_are_the_explicit_sharded_loaders(self):
        # Without replica_loaders each rank trains on exactly the batches of
        # PipelineLoader(ds, bs, sampler=ShardedSampler(...)) for its rank.
        dataset = make_dataset()
        explicit = [PipelineLoader(dataset, 8, sampler=ShardedSampler(
                        len(dataset), rank=rank, world_size=2, shuffle=True,
                        seed_offset=7))
                    for rank in range(2)]
        seed_everything(0)
        default = make_trainer(dataset, world_size=2)
        for epoch in range(2):
            for derived, given in zip(default.replica_loaders, explicit):
                derived.set_epoch(epoch)
                given.set_epoch(epoch)
                assert len(derived) == len(given)
                for a, b in zip(derived, given):
                    for field_a, field_b in zip(a, b):
                        assert np.array_equal(field_a, field_b)

        seed_everything(0)
        model = make_model()
        reference = DataParallelTrainer(
            model, SGD(model.parameters(), lr=0.05, momentum=0.9),
            PipelineLoader(dataset, 8, shuffle=True), world_size=2,
            replica_loaders=explicit)
        got, want = epochs_of(default, 2), epochs_of(reference, 2)
        assert [logs["loss"] for logs in got] == [logs["loss"] for logs in want]
        for a, b in zip(params_of(default.model), params_of(reference.model)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("world_size", [2, 4])
    def test_bit_stable_across_reruns(self, world_size):
        # Three reruns: any arrival-order leak into the reduction would show
        # up as bit drift between independently scheduled executions.
        dataset = make_dataset()

        def run():
            seed_everything(0)
            dp = make_trainer(dataset, world_size=world_size)
            losses = [logs["loss"] for logs in epochs_of(dp, 2)]
            return losses, params_of(dp.model)

        first_losses, first_params = run()
        for _ in range(2):
            losses, params = run()
            assert losses == first_losses
            for a, b in zip(first_params, params):
                assert np.array_equal(a, b)

    def test_replicas_and_master_agree_after_epoch(self, tmp_path):
        # Every worker's first step of epoch 2 must see the master's
        # parameters as the optimizer left them at the end of epoch 1.
        dataset = make_dataset()
        dp = make_trainer(dataset, world_size=3, loss_fn=recording_loss(str(tmp_path)))
        try:
            dp.train_epoch()
            master = digest(params_of(dp.model))
            dp.train_epoch()
        finally:
            dp.shutdown()
        steps = len(dp.replica_loaders[0])
        logs = worker_logs(tmp_path)
        assert len(logs) == 3
        for log in logs:
            assert len(log) == 2 * steps
            assert log[steps][0] == master

    def test_buffers_are_mean_synced(self, tmp_path):
        # Epoch 1's averaged BatchNorm statistics reach the master and are
        # what every worker starts epoch 2 from.
        dataset = make_dataset()
        dp = make_trainer(dataset, world_size=2, loss_fn=recording_loss(str(tmp_path)))
        try:
            dp.train_epoch()
            master = digest(buf.data for _, buf in dp.model.named_buffers())
            dp.train_epoch()
        finally:
            dp.shutdown()
        steps = len(dp.replica_loaders[0])
        logs = worker_logs(tmp_path)
        assert len(logs) == 2
        assert logs[0][0][1] == logs[1][0][1]  # both start from the master's
        assert logs[0][steps - 1][1] != logs[1][steps - 1][1]  # local BN drift
        for log in logs:
            assert log[steps][1] == master

    def test_fit_runs_evaluate_on_master(self):
        dataset = make_dataset()
        val = make_dataset(n=16, seed=0)
        seed_everything(0)
        model = make_model()
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        dp = DataParallelTrainer(model, optimizer,
                                 PipelineLoader(dataset, 8, shuffle=True),
                                 PipelineLoader(val, 8),
                                 world_size=2)
        try:
            history = dp.fit(epochs=2)
        finally:
            dp.shutdown()
        assert len(history) == 2
        assert all(r.val_accuracy is not None for r in history)
        # The master, detached from the segment, still holds the weights
        # the last evaluation scored.
        assert dp.evaluate()["accuracy"] == history[-1].val_accuracy

    def test_world_size_validation(self):
        dataset = make_dataset()
        model = make_model()
        optimizer = SGD(model.parameters(), lr=0.05)
        with pytest.raises(ValueError, match="world_size"):
            DataParallelTrainer(model, optimizer,
                                PipelineLoader(dataset, 8), world_size=0)
        with pytest.raises(ValueError, match="replica loaders"):
            DataParallelTrainer(model, optimizer,
                                PipelineLoader(dataset, 8), world_size=2,
                                replica_loaders=[PipelineLoader(dataset, 8)])

    def test_worker_error_propagates(self):
        # Each worker process counts its own calls: both fail on their third
        # step, after two good lockstep steps.
        dataset = make_dataset()
        seed_everything(0)
        model = make_model()
        optimizer = SGD(model.parameters(), lr=0.05)

        calls = []

        def exploding_loss(model_, batch):
            calls.append(1)
            if len(calls) > 2:
                raise RuntimeError("replica blew up")
            logits = model_(batch[0])
            return F.softmax_cross_entropy(logits, batch[-1])

        dp = DataParallelTrainer(model, optimizer,
                                 PipelineLoader(dataset, 8, shuffle=True),
                                 world_size=2,
                                 loss_fn=exploding_loss)
        try:
            with pytest.raises(ReplicaError, match="replica blew up"):
                dp.train_epoch()
        finally:
            dp.shutdown()

    def test_structure_resync_after_epoch_callback(self, tmp_path):
        # Simulate a Cuttlefish-style structural change: an epoch callback
        # that re-initialises the classifier head with a new shape.
        from repro import nn

        dataset = make_dataset()
        seed_everything(0)
        model = make_model()
        optimizer = SGD(model.parameters(), lr=0.05)
        widened = []

        class WidenHead(Callback):
            def on_epoch_end(self, trainer, epoch, logs):
                if epoch == 0:
                    old = trainer.model.fc
                    hidden = old.weight.data.shape[1]
                    trainer.model.fc = nn.Sequential(
                        nn.Linear(hidden, 8, rng=get_rng(offset=3)),
                        nn.Linear(8, old.weight.data.shape[0], rng=get_rng(offset=4)),
                    )
                    trainer.rebuild_optimizer_params()
                    widened.append(digest(params_of(trainer.model)))

        dp = DataParallelTrainer(model, optimizer,
                                 PipelineLoader(dataset, 8, shuffle=True),
                                 world_size=2,
                                 callbacks=[WidenHead()],
                                 loss_fn=recording_loss(str(tmp_path)))
        try:
            history = dp.fit(epochs=2)
        finally:
            dp.shutdown()
        assert len(history) == 2
        # A fresh worker generation was forked against the new structure
        # and trained the widened master's weights.
        logs = worker_logs(tmp_path)
        assert len(logs) == 4
        assert sum(log[0][0] == widened[0] for log in logs) == 2

    def test_epoch_stats_carry_per_replica_split(self):
        dataset = make_dataset()
        dp = make_trainer(dataset, world_size=3)
        (logs,) = epochs_of(dp, 1)
        stats = dp.last_epoch_pipeline_stats
        assert stats.extra["world_size"] == 3.0
        assert "replica0_stall_seconds" in stats.extra
        assert "replica2_compute_seconds" in stats.extra
        assert stats.extra["wall_seconds"] > 0
        assert logs["samples_per_sec"] > 0

    def test_max_batches_caps_lockstep_steps(self):
        dataset = make_dataset()
        dp = make_trainer(dataset, world_size=3, max_batches_per_epoch=1)
        epochs_of(dp, 1)
        # 1 step x 3 replicas x batch 8 samples.
        assert dp.last_epoch_pipeline_stats.samples == 1 * 3 * 8


# --------------------------------------------------------------------------- #
# Experiment harness integration
# --------------------------------------------------------------------------- #
class TestExperimentIntegration:
    def _config(self, **overrides):
        from repro.train.experiments import VisionExperimentConfig

        defaults = dict(epochs=1, batch_size=16, max_batches_per_epoch=2,
                        width_mult=0.125)
        defaults.update(overrides)
        return VisionExperimentConfig(**defaults)

    def test_world_size_implies_pipeline_loader(self):
        from repro.train.experiments import _build_task

        train_loader, val_loader, _ = _build_task(self._config(world_size=2))
        assert isinstance(train_loader, PipelineLoader)
        assert isinstance(val_loader, PipelineLoader)
        with pytest.raises(ValueError, match="loader"):
            self._config(world_size=2, loader="legacy")

    def test_goyal_lr_scaling(self):
        assert self._config(world_size=4, peak_lr=0.1).effective_peak_lr() == \
            pytest.approx(0.4)
        assert self._config(world_size=4, peak_lr=0.1,
                            dp_lr_scaling=False).effective_peak_lr() == \
            pytest.approx(0.1)
        assert self._config(world_size=1, peak_lr=0.1).effective_peak_lr() == \
            pytest.approx(0.1)

    def test_run_experiment_world_size_rows_bit_stable(self):
        from repro.train.experiments import ExperimentSpec, run_experiment

        def row():
            result = run_experiment(ExperimentSpec(
                method="full_rank", config=self._config(world_size=2)))
            d = result.as_dict()
            d.pop("wallclock_seconds")
            return d

        assert row() == row()

    def test_run_experiment_uses_dp_trainer(self):
        from repro.train.experiments import ExperimentSpec, run_experiment

        _, context = run_experiment(
            ExperimentSpec(method="full_rank", config=self._config(world_size=2)),
            return_context=True)
        assert isinstance(context.trainer, DataParallelTrainer)
        assert context.trainer.world_size == 2
