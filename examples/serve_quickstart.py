"""Serving quickstart: train → factorize → export → serve → query.

The end-to-end deployment path the paper's compression argument pays off on:

1. train a small ResNet briefly (full-rank),
2. factorize its large-spatial stacks Cuttlefish-style (truncated SVD at the
   selected ranks),
3. export a versioned serving artifact — the low-rank factors stay
   factorized, so the artifact is smaller and the served FLOP path is the
   compressed one,
4. boot the micro-batching HTTP server on an ephemeral port,
5. fire concurrent single-sample requests and read back ``/metrics``.

Run with::

    PYTHONPATH=src python examples/serve_quickstart.py
"""

import os
import tempfile
import threading

import numpy as np

from repro.core import factorize_model, full_rank_of
from repro.data import DataLoader, make_vision_task
from repro.models import build_model
from repro.optim import SGD
from repro.serve import (
    BatchingPolicy,
    ModelServer,
    ServeClient,
    artifact_size_bytes,
    export_artifact,
)
from repro.train.trainer import Trainer
from repro.utils import get_rng, seed_everything


def main():
    seed_everything(0)

    # 1. A quick full-rank training run on the synthetic CIFAR stand-in.
    #    The 32x32 task keeps the conv GEMMs in the geometry regime where the
    #    serving path is bit-reproducible across batch compositions (see
    #    DESIGN.md §9.3); the batch-invariance self-check below verifies it.
    train_ds, val_ds, spec = make_vision_task("cifar10")
    model = build_model("resnet18", num_classes=spec.num_classes, width_mult=0.125)
    trainer = Trainer(model, SGD(model.parameters(), lr=0.05, momentum=0.9),
                      DataLoader(train_ds, batch_size=32, shuffle=True),
                      DataLoader(val_ds, batch_size=32),
                      max_batches_per_epoch=40)
    trainer.fit(epochs=1)
    accuracy = float(trainer.evaluate().get("accuracy", 0.0))
    print(f"trained: val_accuracy={accuracy:.3f}")

    # 2. Factorize the large-spatial stacks at rank ~1/4 (the regime where
    #    serving stays bit-reproducible across batch compositions).
    paths = [p for p in model.factorization_candidates()
             if p.startswith(("layer1.", "layer2.", "layer3."))]
    ranks = {p: max(1, full_rank_of(model.get_submodule(p)) // 4) for p in paths}
    factorized = factorize_model(model, ranks, skip_non_reducing=False)
    model.eval()
    print(f"factorized {len(factorized)} layers; params now {model.num_parameters():,}")

    # 3. Export the artifact (factors stay factorized; invariance self-check).
    shape = (3, spec.image_size, spec.image_size)
    example = get_rng(offset=42).standard_normal((8,) + shape).astype(np.float32)
    artifact = os.path.join(tempfile.mkdtemp(prefix="repro-serve-"), "resnet_lowrank.npz")
    manifest = export_artifact(
        artifact, model,
        model_spec={"name": "resnet18",
                    "kwargs": {"num_classes": spec.num_classes, "width_mult": 0.125}},
        input_shape=shape,
        metadata={"val_accuracy": accuracy},
        example_batch=example,
    )
    print(f"exported {artifact} ({artifact_size_bytes(artifact):,} bytes, "
          f"batch_invariant={manifest['batch_invariant']})")

    # 4 + 5. Serve it and hit it with concurrent single-sample requests.
    policy = BatchingPolicy(max_batch_size=16)
    with ModelServer(artifact, policy=policy, port=0) as server, \
            ServeClient(server.url) as client:
        print(f"serving on {server.url}")
        print("healthz:", client.healthz())

        queries = get_rng(offset=7).standard_normal((24,) + shape).astype(np.float32)
        predictions = [None] * len(queries)

        def ask(i):
            # One client per thread: each keeps its own connection open.
            with ServeClient(server.url) as own:
                predictions[i] = int(np.argmax(own.predict_one(queries[i])))

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(queries))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        print("predicted classes:", predictions)

        metrics = client.metrics()
        engine = metrics["engine"]
        print(f"served {engine['samples_total']} samples in {engine['batches_total']} batches "
              f"(mean batch {engine['mean_batch_size']:.1f}); "
              f"p50={metrics['e2e_latency_ms']['p50']:.1f}ms "
              f"p99={metrics['e2e_latency_ms']['p99']:.1f}ms")


if __name__ == "__main__":
    main()
