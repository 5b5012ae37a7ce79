"""Tests for the streaming data pipeline.

Covers the counter-based per-sample RNG, vectorized batch transforms, the
synchronous ``PipelineLoader`` (epoch-keyed replay, mid-epoch resume,
subset identity, the per-sample fallback), epoch-sharded sampling, and the
trainer-level guarantees: epoch logs carry the stall-vs-compute split and
the batch cap fetches exactly like the seed-era loop.
"""

import time

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    DataLoader,
    Normalize,
    PipelineLoader,
    RandomCrop,
    RandomHorizontalFlip,
    SequentialSampler,
    ShardedSampler,
    ShuffledSampler,
    Subset,
    build_loaders,
    standard_train_transform,
)
from repro.data.dataset import Dataset
from repro.models import MLP
from repro.optim import SGD
from repro.profiling import PipelineStats, instrument
from repro.train.trainer import Trainer
from repro.utils import (
    counter_uniforms,
    sample_integers,
    sample_uniforms,
    seed_everything,
)


def image_dataset(n=96, size=16, classes=4, transform="train"):
    rng = np.random.default_rng(11)
    images = rng.random((n, 3, size, size)).astype(np.float32)
    labels = rng.integers(0, classes, size=n).astype(np.int64)
    t = standard_train_transform(size) if transform == "train" else None
    return ArrayDataset(images, labels, transform=t)


def batches_equal(a, b):
    assert len(a) == len(b)
    for batch_a, batch_b in zip(a, b):
        assert len(batch_a) == len(batch_b)
        for field_a, field_b in zip(batch_a, batch_b):
            np.testing.assert_array_equal(field_a, field_b)


class TestCounterRNG:
    def test_pure_function_of_key_and_counter(self):
        a = counter_uniforms((1, 2, 3), np.arange(50), draws=4)
        b = counter_uniforms((1, 2, 3), np.arange(50), draws=4)
        np.testing.assert_array_equal(a, b)

    def test_subsets_evaluate_identically(self):
        full = counter_uniforms((7,), np.arange(100), draws=2)
        some = counter_uniforms((7,), [13, 42, 99], draws=2)
        np.testing.assert_array_equal(full[[13, 42, 99]], some)

    def test_keys_and_streams_separate(self):
        base = counter_uniforms((0, 1), np.arange(64))
        assert not np.array_equal(base, counter_uniforms((0, 2), np.arange(64)))
        assert not np.array_equal(base, counter_uniforms((1, 1), np.arange(64)))

    def test_uniform_range_and_mean(self):
        u = counter_uniforms((3,), np.arange(20000))
        assert (u >= 0).all() and (u < 1).all()
        assert abs(u.mean() - 0.5) < 0.01

    def test_integers_cover_range(self):
        draws = sample_integers(np.arange(5000), high=5, stream=9)
        assert set(np.unique(draws)) == {0, 1, 2, 3, 4}

    def test_root_seed_in_key(self):
        seed_everything(1)
        a = sample_uniforms(np.arange(16), epoch=0, stream=5)
        seed_everything(2)
        b = sample_uniforms(np.arange(16), epoch=0, stream=5)
        assert not np.array_equal(a, b)
        seed_everything(1)
        np.testing.assert_array_equal(a, sample_uniforms(np.arange(16), epoch=0, stream=5))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            counter_uniforms((1,), np.arange(4), draws=0)
        with pytest.raises(ValueError):
            sample_integers(np.arange(4), high=0)


class TestBatchTransforms:
    def test_batch_of_one_matches_full_batch(self):
        rng = np.random.default_rng(0)
        images = rng.random((24, 3, 16, 16)).astype(np.float32)
        ids = np.arange(100, 124)
        transform = standard_train_transform(16)
        full = transform.apply_batch(images, ids, epoch=2)
        for i in range(len(images)):
            single = transform.apply_batch(images[i:i + 1], ids[i:i + 1], epoch=2)
            np.testing.assert_array_equal(full[i], single[0])

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(3)
        images = rng.random((32, 3, 16, 16)).astype(np.float32)
        ids = np.arange(32)
        transform = standard_train_transform(16)
        full = transform.apply_batch(images, ids, epoch=1)
        perm = rng.permutation(32)
        shuffled = transform.apply_batch(images[perm], ids[perm], epoch=1)
        np.testing.assert_array_equal(full[perm], shuffled)

    def test_epoch_changes_augmentation(self):
        rng = np.random.default_rng(4)
        images = rng.random((16, 3, 16, 16)).astype(np.float32)
        transform = standard_train_transform(16)
        a = transform.apply_batch(images, np.arange(16), epoch=0)
        b = transform.apply_batch(images, np.arange(16), epoch=1)
        assert not np.array_equal(a, b)

    def test_normalize_batch_bitwise_matches_per_sample(self):
        rng = np.random.default_rng(5)
        images = rng.random((8, 3, 8, 8)).astype(np.float32)
        normalize = Normalize()
        np.testing.assert_array_equal(
            normalize.apply_batch(images),
            np.stack([normalize(image) for image in images]))

    def test_flip_probability_extremes(self):
        rng = np.random.default_rng(6)
        images = rng.random((8, 3, 4, 4)).astype(np.float32)
        never = RandomHorizontalFlip(p=0.0).apply_batch(images, np.arange(8))
        np.testing.assert_array_equal(never, images)
        always = RandomHorizontalFlip(p=1.0).apply_batch(images, np.arange(8))
        np.testing.assert_array_equal(always, images[..., ::-1])

    def test_crop_preserves_shape_and_content_origin(self):
        rng = np.random.default_rng(7)
        images = rng.random((8, 3, 16, 16)).astype(np.float32)
        out = RandomCrop(16, padding=2).apply_batch(images, np.arange(8))
        assert out.shape == images.shape
        # padding=0 forces offset 0 — identity crop.
        np.testing.assert_array_equal(
            RandomCrop(16, padding=0).apply_batch(images, np.arange(8)), images)

    def test_sample_id_length_mismatch_raises(self):
        images = np.zeros((4, 3, 8, 8), dtype=np.float32)
        with pytest.raises(ValueError):
            RandomHorizontalFlip().apply_batch(images, np.arange(3))


class TestPipelineLoader:
    def test_batches_cover_dataset(self):
        ds = image_dataset(n=50, transform=None)
        loader = PipelineLoader(ds, batch_size=16)
        assert len(loader) == 4
        batches = list(loader)
        assert sum(len(b[0]) for b in batches) == 50
        assert loader.vectorized

    def test_drop_last(self):
        ds = image_dataset(n=50, transform=None)
        loader = PipelineLoader(ds, batch_size=16, drop_last=True)
        assert len(loader) == 3
        assert all(len(b[0]) == 16 for b in loader)

    def test_epoch_keyed_shuffle_is_replayable(self):
        ds = image_dataset(transform=None)
        loader = PipelineLoader(ds, batch_size=32, shuffle=True)
        loader.set_epoch(3)
        first = list(loader)
        again = PipelineLoader(ds, batch_size=32, shuffle=True)
        again.set_epoch(3)
        batches_equal(first, list(again))
        loader.set_epoch(4)
        other_epoch = list(loader)
        assert not np.array_equal(first[0][0], other_epoch[0][0])

    def test_resume_mid_epoch_via_load_batch(self):
        ds = image_dataset()
        loader = PipelineLoader(ds, batch_size=16, shuffle=True)
        loader.set_epoch(2)
        consumed = [loader.load_batch(i) for i in range(2)]
        resumed = PipelineLoader(ds, batch_size=16, shuffle=True)
        resumed.set_epoch(2)
        batches_equal(consumed, [resumed.load_batch(i) for i in range(2)])

    def test_subset_keeps_base_sample_identity(self):
        ds = image_dataset(n=64)
        whole = PipelineLoader(ds, batch_size=64)
        whole.set_epoch(1)
        (all_images, _), = list(whole)
        view = PipelineLoader(Subset(ds, range(32, 64)), batch_size=32)
        view.set_epoch(1)
        (subset_images, _), = list(view)
        np.testing.assert_array_equal(subset_images, all_images[32:])

    def test_generic_dataset_fallback(self):
        class Tenfold(Dataset):
            def __len__(self):
                return 10

            def __getitem__(self, index):
                return np.full(3, index, dtype=np.float32), np.int64(index)

        loader = PipelineLoader(Tenfold(), batch_size=4)
        assert not loader.vectorized
        batches = list(loader)
        assert sum(len(b[0]) for b in batches) == 10
        np.testing.assert_array_equal(batches[0][1], np.arange(4))

    def test_out_of_range_batch_raises(self):
        loader = PipelineLoader(image_dataset(n=32, transform=None), batch_size=16)
        with pytest.raises(IndexError):
            loader.load_batch(2)


class TestShardedSampler:
    def test_shards_partition_and_pad(self):
        shards = [ShardedSampler(10, rank=r, world_size=3).indices(epoch=5) for r in range(3)]
        assert all(len(s) == 4 for s in shards)
        assert set(np.concatenate(shards).tolist()) == set(range(10))

    def test_deterministic_per_epoch_and_rank(self):
        sampler = ShardedSampler(32, rank=1, world_size=4)
        np.testing.assert_array_equal(sampler.indices(2), sampler.indices(2))
        assert not np.array_equal(sampler.indices(2), sampler.indices(3))

    def test_no_shuffle_mode_is_strided(self):
        sampler = ShardedSampler(8, rank=1, world_size=2, shuffle=False)
        np.testing.assert_array_equal(sampler.indices(0), [1, 3, 5, 7])

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedSampler(8, rank=2, world_size=2)
        with pytest.raises(ValueError):
            ShardedSampler(8, rank=0, world_size=0)
        with pytest.raises(ValueError):
            ShardedSampler(0, rank=0, world_size=1)

    def test_loader_integration_covers_every_sample(self):
        ds = image_dataset(n=33, transform=None)
        seen = []
        for rank in range(2):
            sampler = ShardedSampler(33, rank=rank, world_size=2)
            loader = PipelineLoader(ds, batch_size=8, sampler=sampler)
            loader.set_epoch(1)
            for images, _ in loader:
                seen.append(images)
        stacked = np.concatenate(seen)
        assert len(stacked) == 34          # 33 + 1 deterministic pad
        unique = {im.tobytes() for im in stacked}
        assert len(unique) == 33

    def test_plain_samplers(self):
        assert SequentialSampler(5).indices(9).tolist() == [0, 1, 2, 3, 4]
        shuffled = ShuffledSampler(16)
        np.testing.assert_array_equal(shuffled.indices(1), shuffled.indices(1))
        assert sorted(shuffled.indices(1).tolist()) == list(range(16))


def feature_loaders(n=128, dim=12, classes=3):
    rng = np.random.default_rng(21)
    centers = 4 * rng.standard_normal((classes, dim))
    labels = rng.integers(0, classes, size=n)
    features = (centers[labels] + rng.standard_normal((n, dim))).astype(np.float32)
    ds = ArrayDataset(features, labels.astype(np.int64))
    split = int(0.75 * n)
    return build_loaders(Subset(ds, range(split)), Subset(ds, range(split, n)),
                         batch_size=32)


def run_training(epochs=2):
    seed_everything(77)
    train_loader, val_loader = feature_loaders()
    model = MLP(12, [16], 3)
    trainer = Trainer(model, SGD(model.parameters(), lr=0.1, momentum=0.9),
                      train_loader, val_loader)
    trainer.fit(epochs)
    return trainer


class TestTrainerPipeline:
    def test_epoch_records_carry_stall_compute_split(self):
        trainer = run_training()
        for record in trainer.history:
            assert "data_stall_seconds" in record.extra
            assert "data_compute_seconds" in record.extra
            assert record.extra["data_compute_seconds"] > 0
            assert record.extra["samples_per_sec"] > 0
        stats = trainer.pipeline_stats
        assert stats.batches == sum(len(trainer.train_loader) for _ in range(2))
        assert stats.samples > 0
        assert trainer.epochs_completed == 2

    def test_legacy_loader_still_reports_split(self):
        seed_everything(3)
        rng = np.random.default_rng(1)
        ds = ArrayDataset(rng.random((64, 8)).astype(np.float32),
                          rng.integers(0, 2, 64).astype(np.int64))
        model = MLP(8, [4], 2)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1),
                          DataLoader(ds, batch_size=16, shuffle=True))
        trainer.fit(1)
        assert trainer.history[0].extra["data_compute_seconds"] > 0

    def test_max_batches_cap_counts_one_batch(self):
        seed_everything(5)
        train_loader, _ = feature_loaders()
        model = MLP(12, [8], 3)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1), train_loader,
                          max_batches_per_epoch=1)
        trainer.fit(1)
        assert trainer.pipeline_stats.batches == 1
        assert trainer.pipeline_stats.samples == 32


class TestReviewRegressions:
    """Pins for defects found in review: legacy RNG consumption at the batch
    cap and shard padding when world_size exceeds the dataset."""

    def test_legacy_batch_cap_consumes_rng_like_enumerate(self):
        """The capped training loop must fetch (and discard) the batch at the
        cap exactly as the old enumerate loop did — the legacy loader's
        stateful per-sample transforms mean one skipped fetch shifts every
        later epoch's augmentation bits away from the seed capture."""
        from repro.train.trainer import Callback

        def build_loader():
            seed_everything(9)
            rng = np.random.default_rng(2)
            images = rng.random((64, 3, 8, 8)).astype(np.float32)
            labels = rng.integers(0, 2, 64).astype(np.int64)
            ds = ArrayDataset(images, labels, transform=standard_train_transform(8))
            return DataLoader(ds, batch_size=8, shuffle=True)

        reference = []
        loader = build_loader()
        for _ in range(2):                      # the seed-era loop shape
            for index, batch in enumerate(loader):
                if index >= 2:
                    break
                reference.append(batch[0])

        seen = []

        class Capture(Callback):
            def on_batch_begin(self, trainer, batch_index, batch):
                seen.append(batch[0])

        loader = build_loader()
        model = MLP(3 * 8 * 8, [4], 2)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.01), loader,
                          callbacks=[Capture()], max_batches_per_epoch=2)
        trainer.fit(2)
        batches_equal([(b,) for b in reference], [(b,) for b in seen])

    def test_shard_padding_when_world_size_exceeds_n(self):
        shards = [ShardedSampler(2, rank=r, world_size=5).indices(0) for r in range(5)]
        assert all(len(s) == 1 for s in shards)
        assert set(np.concatenate(shards).tolist()) == {0, 1}


class TestPipelineStats:
    def test_instrument_attributes_time(self):
        stats = PipelineStats()

        def slow_stream():
            for _ in range(3):
                time.sleep(0.005)
                yield (np.zeros((4, 2)),)

        for _ in instrument(slow_stream(), stats):
            time.sleep(0.002)
        assert stats.batches == 3
        assert stats.samples == 12
        assert stats.stall_seconds > stats.compute_seconds > 0
        described = stats.describe()
        assert "stall=" in described and "compute=" in described

    def test_merge_accumulates(self):
        a = PipelineStats(stall_seconds=1.0, compute_seconds=2.0, batches=3, samples=30)
        b = PipelineStats(stall_seconds=0.5, compute_seconds=0.5, batches=1, samples=10)
        a.merge(b)
        assert a.total_seconds == 4.0 and a.batches == 4 and a.samples == 40
        assert a.stall_fraction == pytest.approx(1.5 / 4.0)
