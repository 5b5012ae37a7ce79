"""Streaming data pipeline: vectorized loading, deterministic bits.

Demonstrates the properties the pipeline subsystem adds:

1. **Speed** — the vectorized ``PipelineLoader`` materialises whole batches
   by fancy indexing + batch-level transforms, several times faster than the
   per-sample legacy ``DataLoader``;
2. **Determinism** — augmentation randomness is counter-based, keyed on
   ``(root_seed, epoch, sample_id)``, so a sample's augmented pixels do not
   depend on batch size or iteration order;
3. **Accounting** — the ``Trainer`` reports how much of each epoch was data
   stall vs step compute.

Run with:  python examples/data_pipeline.py
"""

import time

import numpy as np

from repro.data import DataLoader, PipelineLoader, make_vision_task
from repro.models import resnet18
from repro.optim import SGD
from repro.train.trainer import Trainer
from repro.utils import seed_everything


def main():
    seed_everything(0)
    train_ds, val_ds, spec = make_vision_task("cifar10_small")

    # 1. Loader-only throughput: legacy vs vectorized.
    def drain(loader, epochs=3):
        samples = 0
        start = time.perf_counter()
        for epoch in range(epochs):
            loader.set_epoch(epoch)
            for batch in loader:
                samples += len(batch[0])
        return samples / (time.perf_counter() - start)

    legacy = drain(DataLoader(train_ds, batch_size=64, shuffle=True))
    vectorized = drain(PipelineLoader(train_ds, batch_size=64, shuffle=True))
    print(f"loader samples/sec   legacy={legacy:8.0f}  vectorized={vectorized:8.0f} "
          f"({vectorized / legacy:.2f}x)")

    # 2. Determinism: the same sample gets the same augmentation bits no
    #    matter how it is batched.
    by_64 = PipelineLoader(train_ds, batch_size=64, shuffle=True)
    by_64.set_epoch(1)
    by_16 = PipelineLoader(train_ds, batch_size=16, shuffle=True)
    by_16.set_epoch(1)
    np.testing.assert_array_equal(np.concatenate([b[0] for b in by_64]),
                                  np.concatenate([b[0] for b in by_16]))
    print("batch size 64 and 16 deliver bit-identical augmented samples")

    # 3. A short training run with the stall/compute split.
    model = resnet18(num_classes=spec.num_classes, width_mult=0.125)
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
    train_loader = PipelineLoader(train_ds, batch_size=64, shuffle=True)
    val_loader = PipelineLoader(val_ds, batch_size=128)
    trainer = Trainer(model, optimizer, train_loader, val_loader)
    trainer.fit(epochs=2)
    print(f"trained 2 epochs: val_acc={trainer.final_val_accuracy():.4f}")
    print(f"pipeline: {trainer.pipeline_stats.describe()}")


if __name__ == "__main__":
    main()
