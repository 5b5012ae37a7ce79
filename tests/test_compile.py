"""Tests for the ``numpy-compiled`` capture-and-replay backend.

Covers bit-identity of replayed training steps against the ``numpy``
reference (including dropout mask streams and batch-norm running
statistics), capture invalidation on every guard the plan key encodes
(shape, dtype, grad mode, Cuttlefish-style parameter restructure), chain
fusion, the derived-input eager fallback, and the CLI's loud unknown-backend
error.
"""

import numpy as np
import pytest

from repro import nn
from repro.compile import StepCompiler, backend_compiles
from repro.optim import SGD
from repro.tensor import Tensor, functional as F, no_grad, use_backend
from repro.utils import seed_everything


def _mlp(seed: int = 0) -> nn.Module:
    seed_everything(seed)
    return nn.Sequential(nn.Linear(12, 24), nn.ReLU(), nn.Linear(24, 6))


def _batch(rng: np.random.Generator, n: int = 8, dim: int = 12, classes: int = 6):
    x = rng.standard_normal((n, dim)).astype(np.float32)
    y = rng.integers(0, classes, size=n)
    return x, y


def _train_eager(backend: str, build, batches, steps: int):
    model = build()
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-3)
    losses = []
    with use_backend(backend):
        for i in range(steps):
            x, y = batches[i % len(batches)]
            opt.zero_grad()
            loss = F.cross_entropy(model(x), y)
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
    return losses, model


def _train_compiled(build, batches, steps: int, compiler=None):
    model = build()
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-3)
    compiler = compiler or StepCompiler()
    losses = []
    with use_backend("numpy-compiled"):
        for i in range(steps):
            x, y = batches[i % len(batches)]
            opt.zero_grad()
            handle = compiler.forward(model, (x, y),
                                      lambda: F.cross_entropy(model(x), y))
            handle.backward()
            opt.step()
            losses.append(float(handle.loss.data))
    return losses, model, compiler


# --------------------------------------------------------------------------- #
# Bit-identity vs the numpy reference
# --------------------------------------------------------------------------- #
class TestBitIdentity:
    def test_mlp_multi_step_bit_identical(self):
        rng = np.random.default_rng(0)
        batches = [_batch(rng)]
        ref_losses, ref_model = _train_eager("numpy", _mlp, batches, steps=4)
        losses, model, compiler = _train_compiled(_mlp, batches, steps=4)
        assert losses == ref_losses
        for a, b in zip(ref_model.parameters(), model.parameters()):
            assert np.array_equal(a.data, b.data)
        assert compiler.stats == {"captures": 1, "replays": 3, "fallbacks": 0}

    def test_conv_bn_dropout_bit_identical_with_running_stats(self):
        def build():
            seed_everything(0)
            return nn.Sequential(
                nn.Conv2d(3, 8, 3, padding=1),
                nn.BatchNorm2d(8),
                nn.ReLU(),
                nn.MaxPool2d(2),
                nn.Dropout(0.25),
                nn.Flatten(),
                nn.Linear(8 * 8 * 8, 10),
            )

        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        y = rng.integers(0, 10, size=4)
        batches = [(x, y)]
        ref_losses, ref_model = _train_eager("numpy", build, batches, steps=4)
        losses, model, _ = _train_compiled(build, batches, steps=4)
        assert losses == ref_losses
        for a, b in zip(ref_model.parameters(), model.parameters()):
            assert np.array_equal(a.data, b.data)
        ref_state, state = ref_model.state_dict(), model.state_dict()
        for key in ref_state:
            if "running" in key:
                assert np.array_equal(ref_state[key], state[key]), key

    def test_replay_sees_fresh_batch_data(self):
        # Same shapes, different contents: each replay must consume the new
        # arrays (feeds + the cross-entropy target patch), not stale capture
        # data.
        rng = np.random.default_rng(2)
        batches = [_batch(rng) for _ in range(3)]
        ref_losses, _ = _train_eager("numpy", _mlp, batches, steps=3)
        losses, _, compiler = _train_compiled(_mlp, batches, steps=3)
        assert losses == ref_losses
        assert compiler.stats["captures"] == 1
        assert compiler.stats["replays"] == 2


# --------------------------------------------------------------------------- #
# Capture invalidation (satellite: every guard forces a recapture)
# --------------------------------------------------------------------------- #
class TestInvalidation:
    def _step(self, compiler, model, opt, x, y):
        opt.zero_grad()
        handle = compiler.forward(model, (x, y),
                                  lambda: F.cross_entropy(model(x), y))
        handle.backward()
        opt.step()
        return float(handle.loss.data)

    def _eager_reference(self, build, batch_seq):
        model = build()
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-3)
        losses = []
        with use_backend("numpy"):
            for x, y in batch_seq:
                opt.zero_grad()
                loss = F.cross_entropy(model(x), y)
                loss.backward()
                opt.step()
                losses.append(float(loss.data))
        return losses

    def test_shape_change_recaptures_bit_identically(self):
        rng = np.random.default_rng(3)
        seq = [_batch(rng, n=8), _batch(rng, n=8), _batch(rng, n=4),
               _batch(rng, n=8)]
        ref = self._eager_reference(_mlp, seq)
        model = _mlp()
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-3)
        compiler = StepCompiler()
        with use_backend("numpy-compiled"):
            losses = [self._step(compiler, model, opt, x, y) for x, y in seq]
        assert losses == ref
        # 8-row capture, 8-row replay, 4-row capture, 8-row replay: shape
        # lands on a different key but the old plan stays warm.
        assert compiler.stats["captures"] == 2
        assert compiler.stats["replays"] == 2

    def test_dtype_change_recaptures(self):
        rng = np.random.default_rng(4)
        x, y = _batch(rng)
        model = _mlp()
        opt = SGD(model.parameters(), lr=0.05)
        compiler = StepCompiler()
        with use_backend("numpy-compiled"):
            self._step(compiler, model, opt, x, y)
            self._step(compiler, model, opt, x, y.astype(np.int32))
        assert compiler.stats["captures"] == 2

    def test_no_grad_mode_is_a_separate_key(self):
        rng = np.random.default_rng(5)
        x, y = _batch(rng)
        model = _mlp()
        compiler = StepCompiler()
        with use_backend("numpy"):
            ref_train = F.cross_entropy(model(x), y)
            with no_grad():
                ref_eval = model(x)
        with use_backend("numpy-compiled"):
            h_train = compiler.forward(model, (x, y),
                                       lambda: F.cross_entropy(model(x), y))
            with no_grad():
                h_eval = compiler.forward(model, (x,), lambda: model(x))
                h_eval2 = compiler.forward(model, (x,), lambda: model(x))
        assert compiler.stats["captures"] == 2
        assert h_eval2.was_replay
        assert np.array_equal(h_train.loss.data, ref_train.data)
        assert np.array_equal(h_eval.loss.data, ref_eval.data)
        assert np.array_equal(h_eval2.loss.data, ref_eval.data)

    def test_cuttlefish_rank_switch_recaptures_bit_identically(self):
        from repro.core import factorize_model

        def build():
            seed_everything(7)
            return nn.Sequential(nn.Linear(16, 32), nn.ReLU(), nn.Linear(32, 8))

        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 16)).astype(np.float32)
        y = rng.integers(0, 8, size=8)

        def run(backend, compiled):
            model = build()
            opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
            losses = []
            compiler = StepCompiler() if compiled else None
            with use_backend(backend):
                for step in range(4):
                    if step == 2:
                        # Mid-run rank switch: swaps modules and parameters.
                        factorize_model(model, {"0": 4, "2": 4},
                                        skip_non_reducing=False)
                        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
                    opt.zero_grad()
                    if compiled:
                        handle = compiler.forward(
                            model, (x, y), lambda: F.cross_entropy(model(x), y))
                        handle.backward()
                        loss_value = float(handle.loss.data)
                    else:
                        loss = F.cross_entropy(model(x), y)
                        loss.backward()
                        loss_value = float(loss.data)
                    opt.step()
                    losses.append(loss_value)
            return losses, compiler

        ref, _ = run("numpy", compiled=False)
        losses, compiler = run("numpy-compiled", compiled=True)
        assert losses == ref
        assert compiler.stats["captures"] == 2  # pre- and post-switch graphs
        assert compiler.stats["replays"] == 2

    def test_rank_switch_releases_the_full_rank_plan(self):
        """The switch leaves the full-rank plan's key unmatchable; the
        post-switch capture releases it instead of keeping it until eight
        newer plans push it out."""
        from repro.core import factorize_model

        seed_everything(7)
        model = nn.Sequential(nn.Linear(16, 32), nn.ReLU(), nn.Linear(32, 8))
        other = _mlp()
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 16)).astype(np.float32)
        y = rng.integers(0, 8, size=8)
        x_other, y_other = _batch(rng)
        compiler = StepCompiler()
        with use_backend("numpy-compiled") as be:
            opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
            for _ in range(2):
                self._step(compiler, model, opt, x, y)
            with no_grad():
                compiler.forward(model, (x,), lambda: model(x))
            self._step(compiler, other, SGD(other.parameters(), lr=0.05), x_other, y_other)
            full_rank_plans = list(compiler._plans.values())[:2]
            buffers = [id(buf) for plan in full_rank_plans
                       for buf in plan._fwd_takes + plan._bwd_takes + plan._leafbufs]
            assert buffers and set(buffers) <= be._owned

            factorize_model(model, {"0": 4, "2": 4}, skip_non_reducing=False)
            opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
            for _ in range(2):
                self._step(compiler, model, opt, x, y)

        # One plan for the model (the low-rank one); the other model's stays.
        assert len(compiler._plans) == 2
        assert sum(key[0] == id(model) for key in compiler._plans) == 1
        assert not set(buffers) & be._owned
        assert compiler.stats["captures"] == 4 and compiler.stats["replays"] == 2


# --------------------------------------------------------------------------- #
# Plan internals
# --------------------------------------------------------------------------- #
class TestPlanInternals:
    def test_elementwise_chains_are_fused(self):
        def build():
            seed_everything(0)
            return nn.Sequential(nn.Linear(6, 6), nn.Tanh(), nn.Sigmoid(),
                                 nn.GELU(), nn.Linear(6, 4))

        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        y = rng.integers(0, 4, size=4)
        model = build()
        compiler = StepCompiler()
        with use_backend("numpy-compiled"):
            h = compiler.forward(model, (x, y),
                                 lambda: F.cross_entropy(model(x), y))
            h.backward()
        plan = next(iter(compiler._plans.values()))
        assert plan.ready and plan.has_backward
        assert plan.num_chain_steps >= 1

    def test_backward_buffers_are_liveness_pooled(self):
        model = _mlp()
        rng = np.random.default_rng(9)
        x, y = _batch(rng)
        compiler = StepCompiler()
        with use_backend("numpy-compiled"):
            h = compiler.forward(model, (x, y),
                                 lambda: F.cross_entropy(model(x), y))
            h.backward()
        plan = next(iter(compiler._plans.values()))
        # Fewer static buffers than backward steps: lifetimes are reused.
        assert 0 < plan.num_grad_buffers <= plan.num_backward_steps

    @pytest.mark.parametrize("cell, stolen, slots", [
        # ResNet-18 at width 0.125: the fresh, take_like-shaped gradients.
        ("resnet", 19, 32),
        # Post-norm: the layer norm's first part is the first touch of the
        # linear layer's output, so it is stolen and parts 1-3 add into it.
        ("post_norm", 3, 3),
    ])
    def test_fresh_gradients_are_stolen(self, cell, stolen, slots):
        from repro.models import resnet18

        seed_everything(0)
        rng = np.random.default_rng(0)
        if cell == "resnet":
            model = resnet18(num_classes=10, width_mult=0.125, small_input=True, rng=rng)
            x = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        else:
            model = nn.Sequential(nn.Linear(12, 16), nn.LayerNorm(16), nn.Linear(16, 6))
            x = rng.standard_normal((8, 12)).astype(np.float32)
        y = rng.integers(0, 6, size=len(x))
        compiler = StepCompiler()
        with use_backend("numpy-compiled"):
            for _ in range(2):
                h = compiler.forward(model, (x, y),
                                     lambda: F.cross_entropy(model(Tensor(x)), y))
                h.backward()
        assert compiler.stats["captures"] == 1 and compiler.stats["replays"] == 1
        plan = next(iter(compiler._plans.values()))
        assert (plan.num_stolen_grads, plan.num_grad_buffers) == (stolen, slots)

    def test_derived_input_falls_back_to_eager(self):
        # The loss consumes x + 1 (a derived array the capture cannot see as
        # a leaf), so the strict input-match guard must blacklist the key and
        # run eagerly — with correct results — forever.
        model = _mlp()
        rng = np.random.default_rng(10)
        x, y = _batch(rng)
        compiler = StepCompiler()

        def thunk():
            return F.cross_entropy(model(x + 1.0), y)

        with use_backend("numpy"):
            ref = F.cross_entropy(model(x + 1.0), y)
        with use_backend("numpy-compiled"):
            h1 = compiler.forward(model, (x, y), thunk)
            h1.backward()
            model.zero_grad()
            h2 = compiler.forward(model, (x, y), thunk)
        assert compiler.stats["captures"] == 0
        assert compiler.stats["fallbacks"] >= 1
        assert np.array_equal(h1.loss.data, ref.data)
        assert np.array_equal(h2.loss.data, ref.data)

    def test_backend_compiles_flag(self):
        with use_backend("numpy-compiled"):
            assert backend_compiles()
        with use_backend("numpy-fast"):
            assert not backend_compiles()


# --------------------------------------------------------------------------- #
# Registry / CLI surface
# --------------------------------------------------------------------------- #
class TestSurface:
    def test_backend_is_registered(self):
        from repro.tensor import available_backends, backend_descriptions

        assert "numpy-compiled" in available_backends()
        assert backend_descriptions()["numpy-compiled"]

    def test_compiled_throughput_suite_is_registered(self):
        from repro import bench

        suite = bench.get_suite("compiled-throughput")
        names = {m.name for m in suite.metrics}
        assert names == {"numpy_fast_steps_per_sec",
                         "numpy_compiled_steps_per_sec", "compiled_speedup",
                         "deit_compiled_speedup"}
        assert suite.default_backend == "numpy-compiled"

    def test_bench_run_unknown_backend_is_a_loud_error(self):
        import io

        from repro.cli import main

        stream = io.StringIO()
        code = main(["bench", "run", "--suite", "compiled-throughput",
                     "--tiny", "--backend", "no-such-backend"],
                    stream=stream)
        out = stream.getvalue()
        assert code == 2
        assert "unknown backend 'no-such-backend'" in out
        assert "numpy-compiled" in out  # lists registered names

    def test_training_step_pair_sides_are_bit_identical(self):
        from repro.bench.workloads import training_step_pair

        out = training_step_pair(batch_size=4, image_size=16,
                                 steps=1, blocks=1, warmup_steps=1)
        # Both sides trained a private replica from identical seeds; the
        # backends share one float-op sequence, so the losses must agree
        # exactly after the same number of steps.
        assert out["a_final_loss"] == out["b_final_loss"]
        assert out["a_steps_per_sec"] > 0 and out["b_steps_per_sec"] > 0
        assert out["steps_per_side"] == 2.0

    def test_trainer_uses_compiler_under_compiled_backend(self):
        from repro.data import ArrayDataset, DataLoader
        from repro.train.trainer import Trainer

        seed_everything(0)
        model = _mlp()
        rng = np.random.default_rng(13)
        images = rng.standard_normal((16, 12)).astype(np.float32)
        labels = rng.integers(0, 6, size=16).astype(np.int64)
        loader = DataLoader(ArrayDataset(images, labels), batch_size=8,
                            shuffle=False)
        opt = SGD(model.parameters(), lr=0.05)
        with use_backend("numpy-compiled"):
            trainer = Trainer(model, opt, loader)
            logs = trainer.train_epoch()
            logs2 = trainer.train_epoch()
        assert trainer._compiler is not None
        assert trainer._compiler.stats["captures"] >= 1
        assert trainer._compiler.stats["replays"] >= 1
        assert np.isfinite(logs["loss"]) and np.isfinite(logs2["loss"])
