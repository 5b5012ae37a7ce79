"""Tests for the execution-backend layer.

Covers the registry surface and per-thread backend selection, exact
numerical equivalence between the ``numpy`` and ``numpy-fast`` backends on a
real training run, bit-exact fused-vs-unfused kernel parity, ordered
gradient parts and the fused layer norm on a residual stream, the one GELU
kernel, per-op counters, the arena allocator, the graph-free inference mode,
and the small Tensor API fixes that rode along (``item()`` errors, numpy
scalar exponents, deterministic dropout fallback).
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from repro import nn
from repro.profiling import count_ops
from repro.tensor import (
    Tensor,
    available_backends,
    backend_descriptions,
    functional as F,
    get_backend,
    is_grad_enabled,
    no_grad,
    set_backend,
    use_backend,
)
from repro.tensor.backend import Backend, NumpyFastBackend, register_backend
from repro.tensor.ops import Op
from repro.tensor.tensor import apply_op
from repro.utils import seed_everything


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_backends_registered(self):
        assert "numpy" in available_backends()
        assert "numpy-fast" in available_backends()

    def test_descriptions_are_non_empty(self):
        descriptions = backend_descriptions()
        assert descriptions["numpy"]
        assert descriptions["numpy-fast"]

    def test_default_backend_is_numpy(self):
        assert get_backend().name == "numpy"

    def test_set_backend_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown backend"):
            set_backend("no-such-backend")

    def test_set_backend_bad_type_raises(self):
        with pytest.raises(TypeError):
            set_backend(42)

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_backend("numpy")
            class Duplicate(Backend):
                pass

    def test_register_non_backend_raises(self):
        with pytest.raises(TypeError):
            register_backend("bogus-backend")(dict)

    def test_use_backend_restores_previous(self):
        assert get_backend().name == "numpy"
        with use_backend("numpy-fast") as be:
            assert be.name == "numpy-fast"
            assert get_backend() is be
        assert get_backend().name == "numpy"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("numpy-fast"):
                raise RuntimeError("boom")
        assert get_backend().name == "numpy"

    def test_use_backend_is_per_thread(self):
        # A enters, B enters, A exits, B exits: with one process-wide slot A's
        # exit would put B back on "numpy" and B's exit would leave the main
        # thread on "numpy-fast".
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {"a": [], "b": []}

        def thread_a():
            with use_backend("numpy-fast"):
                seen["a"].append(_dispatched_backends())
                a_in.set()
                b_in.wait(30.0)
                seen["a"].append(_dispatched_backends())
            a_out.set()

        def thread_b():
            a_in.wait(30.0)
            with use_backend("numpy-compiled"):
                seen["b"].append(_dispatched_backends())
                b_in.set()
                a_out.wait(30.0)
                seen["b"].append(_dispatched_backends())

        main = get_backend()
        workers = [threading.Thread(target=thread_a, name="backend-a"),
                   threading.Thread(target=thread_b, name="backend-b")]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
        assert not any(worker.is_alive() for worker in workers)
        assert seen["a"] == [("numpy-fast", "numpy-fast")] * 2
        assert seen["b"] == [("numpy-compiled", "numpy-compiled")] * 2
        assert get_backend() is main

    def test_set_backend_is_every_threads_default(self):
        seen = []
        try:
            with use_backend("numpy-compiled"):
                set_backend("numpy-fast")
                # This thread's block still overrides the new default ...
                assert get_backend().name == "numpy-compiled"
                # ... which a thread without a block of its own picks up.
                worker = threading.Thread(target=lambda: seen.append(get_backend().name))
                worker.start()
                worker.join(timeout=30.0)
            assert get_backend().name == "numpy-fast"
        finally:
            set_backend("numpy")
        assert seen == ["numpy-fast"]

    def test_forked_child_keeps_the_forking_threads_backend(self):
        read_fd, write_fd = os.pipe()

        def fork_inside_block():
            with use_backend("numpy-fast"):
                pid = os.fork()
                if pid == 0:  # the child: one thread, a copy of this one
                    os.write(write_fd, get_backend().name.encode())
                    os._exit(0)
            os.waitpid(pid, 0)

        try:
            worker = threading.Thread(target=fork_inside_block, name="forker")
            worker.start()
            worker.join(timeout=30.0)
            os.close(write_fd)
            write_fd = None
            with os.fdopen(read_fd, "rb") as reader:
                read_fd = None
                assert reader.read() == b"numpy-fast"
        finally:
            for fd in (read_fd, write_fd):
                if fd is not None:
                    os.close(fd)
        assert get_backend().name == "numpy"


class _DispatchProbe(Op):
    """Identity op that records the backend its forward and backward get."""

    __slots__ = ("seen",)
    name = "dispatch_probe"

    def forward(self, be, a):
        self.seen = [be.name]
        return a.copy()

    def backward(self, be, grad):
        self.seen.append(be.name)
        return (grad,)


def _dispatched_backends():
    """(forward, backward) backend names one op sees on the calling thread."""
    probe = _DispatchProbe()
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    apply_op(probe, x).sum().backward()
    return tuple(probe.seen)


# --------------------------------------------------------------------------- #
# Backend equivalence on a real training run
# --------------------------------------------------------------------------- #
def _train_small_model(backend, steps=6):
    """Train a conv+bn+linear model for a few steps; return losses + params."""
    from repro.optim import SGD

    with use_backend(backend):
        seed_everything(123)
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1),
            nn.BatchNorm2d(4),
            nn.ReLU(),
            nn.AvgPool2d(2),
            nn.Flatten(),
            nn.Linear(4 * 4 * 4, 5),
        )
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-3)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 5, size=8)
        losses = []
        for _ in range(steps):
            optimizer.zero_grad()
            loss = F.softmax_cross_entropy(model(x), y)
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
        with no_grad():
            eval_logits = model(x).data.copy()
        return losses, [p.data.copy() for p in model.parameters()], eval_logits


class TestBackendEquivalence:
    def test_training_run_is_bit_identical(self):
        losses_np, params_np, eval_np = _train_small_model("numpy")
        losses_fast, params_fast, eval_fast = _train_small_model("numpy-fast")
        # *Identical*, not allclose: the fused kernels and the arena replicate
        # the reference float-op sequence exactly.
        assert losses_np == losses_fast
        for a, b in zip(params_np, params_fast):
            assert np.array_equal(a, b)
        assert np.array_equal(eval_np, eval_fast)

    def test_adamw_transformer_step_is_bit_identical(self):
        from repro.optim import AdamW

        def run(backend):
            with use_backend(backend):
                seed_everything(5)
                attn = nn.MultiHeadAttention(8, 2)
                optimizer = AdamW(attn.parameters(), lr=1e-3, weight_decay=0.01)
                rng = np.random.default_rng(2)
                x = rng.standard_normal((2, 5, 8)).astype(np.float32)
                mask = np.array([[True] * 5, [True, True, True, False, False]])
                for _ in range(3):
                    optimizer.zero_grad()
                    out = attn(Tensor(x), attn_mask=mask)
                    (out * out).mean().backward()
                    optimizer.step()
                return [p.data.copy() for p in attn.parameters()]

        for a, b in zip(run("numpy"), run("numpy-fast")):
            assert np.array_equal(a, b)


# --------------------------------------------------------------------------- #
# Fused vs unfused kernel parity (bit-exact)
# --------------------------------------------------------------------------- #
class TestFusedKernelParity:
    def _forward_backward(self, fn, arrays, backend):
        with use_backend(backend):
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            out = fn(*tensors)
            loss = out if out.size == 1 else out.sum()
            loss.backward()
            return out.data.copy(), [t.grad.copy() for t in tensors]

    def _assert_bit_equal(self, fn, arrays):
        out_np, grads_np = self._forward_backward(fn, arrays, "numpy")
        out_fast, grads_fast = self._forward_backward(fn, arrays, "numpy-fast")
        assert np.array_equal(out_np, out_fast)
        for a, b in zip(grads_np, grads_fast):
            assert np.array_equal(a, b)

    def test_linear(self):
        rng = np.random.default_rng(0)
        self._assert_bit_equal(
            lambda x, w, b: F.linear(x, w, b),
            [rng.standard_normal((6, 4)).astype(np.float32),
             rng.standard_normal((3, 4)).astype(np.float32),
             rng.standard_normal(3).astype(np.float32)])

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((16, 7)).astype(np.float32)
        targets = rng.integers(0, 7, size=16)
        self._assert_bit_equal(
            lambda x: F.softmax_cross_entropy(x, targets, label_smoothing=0.1), [logits])

    def test_attention_weights(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((2, 2, 5, 3)).astype(np.float32)
        k = rng.standard_normal((2, 2, 5, 3)).astype(np.float32)
        probe = rng.random((2, 2, 5, 5)).astype(np.float32)
        self._assert_bit_equal(
            lambda qt, kt: (F.attention_weights(qt, kt, scale=0.4) * Tensor(probe)).sum(),
            [q, k])

    def test_batch_norm2d(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3, 6, 6)).astype(np.float32)
        w = rng.random(3).astype(np.float32) + 0.5
        b = rng.standard_normal(3).astype(np.float32)
        probe = rng.random(x.shape).astype(np.float32)

        def fn(xt, wt, bt):
            out, _, _ = F.batch_norm2d_train(xt, wt, bt, eps=1e-5)
            return (out * Tensor(probe)).sum()

        self._assert_bit_equal(fn, [x, w, b])

        # Channels-last memory, the layout every conv output has: the fused
        # op's rows path against the numpy chain, statistics and all three
        # gradients included.
        def run(backend, x, w, b, probe):
            with use_backend(backend):
                xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
                out, mean, var = F.batch_norm2d_train(xt, wt, bt, eps=1e-5)
                (out * Tensor(probe)).sum().backward()
                return [a.copy() for a in (out.data, mean, var, xt.grad, wt.grad, bt.grad)]

        conv_w = rng.standard_normal((8, 3, 3, 3)).astype(np.float32)
        for c, h, w_ in [(1, 5, 4), (2, 6, 6), (8, 4, 4), (8, 1, 1)]:
            nhwc = (rng.standard_normal((6, h, w_, c)) * 3 + 1).astype(np.float32)
            image = rng.standard_normal((6, 3, h, w_)).astype(np.float32)
            with no_grad():
                conv_out = F.conv2d(Tensor(image), Tensor(conv_w[:c]), padding=1).data
            for x_cl in (nhwc.transpose(0, 3, 1, 2), conv_out):
                assert x_cl.transpose(0, 2, 3, 1).flags.c_contiguous
                w_c = rng.random(c).astype(np.float32) + 0.5
                b_c = rng.standard_normal(c).astype(np.float32)
                probe_c = rng.random(x_cl.shape).astype(np.float32)
                expected = run("numpy", x_cl, w_c, b_c, probe_c)
                got = run("numpy-fast", x_cl, w_c, b_c, probe_c)
                for want, have in zip(expected, got):
                    assert want.shape == have.shape
                    assert want.tobytes() == have.tobytes(), (c, h, w_)

    @pytest.mark.parametrize("backend", ["numpy", "numpy-fast", "numpy-compiled"])
    def test_linear_act_matches_manual_chain(self, backend):
        # Explicit fused call vs the composed matmul+bias graph, on a tiny
        # batch and on a (64, 32) one.
        rng = np.random.default_rng(4)
        for n, d_in, d_out in [(5, 4, 3), (64, 32, 48)]:
            x = rng.standard_normal((n, d_in)).astype(np.float32)
            w = rng.standard_normal((d_out, d_in)).astype(np.float32)
            b = rng.standard_normal(d_out).astype(np.float32)
            with use_backend(backend):
                xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
                fused = F.linear_act(xt, wt, bt)
                fused.sum().backward()

                xc, wc, bc = (Tensor(a, requires_grad=True) for a in (x, w, b))
                chain = xc.matmul(wc.transpose()) + bc
                chain.sum().backward()

            assert np.array_equal(fused.data, chain.data)
            assert np.array_equal(xt.grad, xc.grad)
            assert np.array_equal(wt.grad, wc.grad)
            assert np.array_equal(bt.grad, bc.grad)


# --------------------------------------------------------------------------- #
# Ordered gradient parts and the fused layer norm on the residual stream
# --------------------------------------------------------------------------- #
class _PartsProbe(Op):
    """Identity whose input gradient comes back as three ordered parts.

    Added in order onto a gradient that already holds 1, the parts
    (1e8, -1e8, 1) give ((1 + 1e8) - 1e8) + 1 = 1 in float32; summed first
    they give 1 + 1 = 2, and in reverse order 0.
    """

    __slots__ = ()
    name = "parts_probe"

    def forward(self, be, a):
        return a.copy()

    def backward(self, be, grad):
        return ((grad * np.float32(1e8), grad * np.float32(-1e8), grad),)


class _Residual(nn.Module):
    """``h = x + pos`` feeds a residual add and ``block``, like a transformer's
    residual stream; ``pos`` has ``h``'s shape, so its gradient is ``h``'s."""

    def __init__(self, shape, block):
        super().__init__()
        self.pos = nn.Parameter(np.random.default_rng(7).standard_normal(shape)
                                .astype(np.float32))
        self.block = block

    def forward(self, x):
        h = x + self.pos
        return h + self.block(h)


def _residual_steps(backend, model, x, probe, steps=3):
    """Output and every parameter gradient of ``steps`` identical steps;
    ``numpy-compiled`` runs them through a captured and replayed plan."""
    from repro.compile import StepCompiler

    def loss():
        return (model(Tensor(x)) * Tensor(probe)).sum()

    compiler = StepCompiler() if backend == "numpy-compiled" else None
    results = []
    with use_backend(backend):
        for _ in range(steps):
            for p in model.parameters():
                p.grad = None
            if compiler is None:
                out = loss()
                out.backward()
            else:
                handle = compiler.forward(model, (x,), loss)
                handle.backward()
                out = handle.loss
            results.append([out.data.copy()] + [p.grad.copy() for p in model.parameters()])
    if compiler is not None:
        assert compiler.stats["captures"] == 1 and compiler.stats["replays"] == steps - 1
    return results


class TestOrderedGradientParts:
    @pytest.mark.parametrize("backend", ["numpy", "numpy-fast", "numpy-compiled"])
    def test_parts_are_added_one_by_one_in_order(self, backend):
        class Probe(nn.Module):
            def forward(self, h):
                return apply_op(_PartsProbe(), h)

        x = np.zeros((2, 3), dtype=np.float32)
        model = _Residual(x.shape, Probe())
        for _, pos_grad in _residual_steps(backend, model, x, np.ones_like(x)):
            assert pos_grad.tobytes() == np.ones_like(x).tobytes(), pos_grad

    @pytest.mark.parametrize("backend", ["numpy-fast", "numpy-compiled"])
    @pytest.mark.parametrize("shape", [(16,), (6, 16), (4, 5, 16)], ids=["1d", "2d", "3d"])
    def test_layer_norm_on_the_residual_stream_is_bit_equal(self, backend, shape):
        rng = np.random.default_rng(11)
        x = (rng.standard_normal(shape) * np.logspace(-2, 2, shape[-1])).astype(np.float32)
        probe = rng.random(shape).astype(np.float32)
        gamma = rng.random(shape[-1]).astype(np.float32) + 0.5
        beta = rng.standard_normal(shape[-1]).astype(np.float32)

        def model():
            norm = nn.LayerNorm(shape[-1])
            norm.weight.data, norm.bias.data = gamma.copy(), beta.copy()
            return _Residual(shape, norm)

        expected = _residual_steps("numpy", model(), x, probe)
        got = _residual_steps(backend, model(), x, probe)
        # Output, h's gradient (residual add plus the norm's four parts), γ, β.
        for want_step, got_step in zip(expected, got):
            assert len(got_step) == 4
            for want, have in zip(want_step, got_step):
                assert want.shape == have.shape
                assert want.tobytes() == have.tobytes()

    def test_layer_norm_is_one_op_per_call_on_fusing_backends(self):
        from repro.models import deit_micro

        seed_everything(0)
        model = deit_micro(image_size=8, num_classes=3, depth=2, embed_dim=16, num_heads=2)
        norms = sum(isinstance(m, nn.LayerNorm) for m in model.modules())
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(np.float32)
        with use_backend("numpy-fast"), count_ops() as counts:
            model(Tensor(x)).sum().backward()
        assert counts["layer_norm"].calls == norms == 5
        assert "pow" not in counts and "div" not in counts
        with use_backend("numpy-fast"), no_grad(), count_ops() as counts:
            model(Tensor(x))
        assert counts["layer_norm"].calls == norms
        with use_backend("numpy"), count_ops() as counts:
            model(Tensor(x))
        assert "layer_norm" not in counts and counts["pow"].calls == norms


# --------------------------------------------------------------------------- #
# Batch norm on channels-last rows
# --------------------------------------------------------------------------- #
def _channels_last(rng, n, c, h, w):
    """An NCHW-shaped array with NHWC memory and per-channel scales 1e-3..1e3."""
    scales = np.logspace(-3, 3, c).astype(np.float32)
    return (rng.standard_normal((n, h, w, c)).astype(np.float32) * scales).transpose(0, 3, 1, 2)


class TestChannelsLastBatchNorm:
    def test_channel_sum_is_the_reduce_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for n in (1, 3, 32):
            for c in (2, 3, 8, 64, 129):
                for h in (1, 2, 5, 16):
                    for w in (1, 2, 5, 16):
                        x = _channels_last(rng, n, c, h, w)
                        expected = x.sum(axis=(0, 2, 3), keepdims=True)
                        got = F._channel_sum(x)
                        assert got.shape == expected.shape == (1, c, 1, 1)
                        assert got.tobytes() == expected.tobytes(), (n, c, h, w)

    def test_channel_sum_keeps_the_reduce_where_einsum_differs(self):
        rng = np.random.default_rng(1)
        # C == 1: the reduced axis is contiguous, the reduce sums it pairwise
        # and einsum does not, so their bits differ on this input.
        x = _channels_last(rng, 32, 1, 16, 16)
        reduce = x.sum(axis=(0, 2, 3), keepdims=True)
        assert np.einsum("mc->c", x.reshape(-1, 1)).tobytes() != reduce.tobytes()
        assert F._channel_sum(x).tobytes() == reduce.tobytes()
        # Layouts without a (N·H·W, C) rows view.
        nchw = rng.standard_normal((4, 8, 5, 5)).astype(np.float32)
        strided = _channels_last(rng, 4, 8, 10, 10)[:, :, ::2, 1::2]
        for x in (nchw, strided):
            assert F._channel_rows(x) is None
            assert F._channel_sum(x).tobytes() == x.sum(axis=(0, 2, 3), keepdims=True).tobytes()

    def _model(self):
        seed_everything(0)
        model = nn.Sequential(nn.BatchNorm2d(3), nn.Conv2d(3, 8, 3, padding=1),
                              nn.BatchNorm2d(8), nn.ReLU(), nn.Flatten(),
                              nn.Linear(8 * 6 * 6, 5))
        rng = np.random.default_rng(2)
        for bn, c in ((model[0], 3), (model[2], 8)):
            bn.running_mean.data = rng.standard_normal(c).astype(np.float32)
            bn.running_var.data = rng.random(c).astype(np.float32) + 0.1
            bn.weight.data = rng.random(c).astype(np.float32) + 0.5
            bn.bias.data = rng.standard_normal(c).astype(np.float32)
        return model.eval()

    def test_no_grad_eval_is_one_op_per_layer_and_bit_equal(self):
        # The first BN sees the model input (NCHW or channels-last memory),
        # the second a channels-last conv output.
        model = self._model()
        nchw = np.random.default_rng(3).standard_normal((4, 3, 6, 6)).astype(np.float32)
        nhwc = np.ascontiguousarray(nchw.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        for x in (nchw, nhwc):
            logits = {}
            for backend in ("numpy", "numpy-fast"):
                with use_backend(backend), no_grad(), count_ops() as counts:
                    logits[backend] = model(Tensor(x)).data.copy()
                eval_ops = counts.get("batch_norm2d_eval")
                if backend == "numpy-fast":
                    assert eval_ops is not None and eval_ops.calls == 2
                    assert "div" not in counts and "pow" not in counts
                else:
                    assert eval_ops is None
            assert logits["numpy"].tobytes() == logits["numpy-fast"].tobytes()

    def test_grad_enabled_eval_keeps_the_chain(self):
        model = self._model()
        x = np.random.default_rng(4).standard_normal((4, 3, 6, 6)).astype(np.float32)
        with use_backend("numpy-fast"), count_ops() as counts:
            xt = Tensor(x, requires_grad=True)
            graphed = model(xt)
            graphed.sum().backward()
        assert "batch_norm2d_eval" not in counts and counts["pow"].calls == 2
        assert xt.grad is not None
        with use_backend("numpy-fast"), no_grad():
            graph_free = model(Tensor(x)).data
        assert graphed.data.tobytes() == graph_free.tobytes()


# --------------------------------------------------------------------------- #
# The one GELU kernel
# --------------------------------------------------------------------------- #
_GELU_C = np.float32(np.sqrt(2.0 / np.pi))


def _gelu_by_formula(x):
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * (x * x * x))))


def _gelu_inputs():
    """(1024, 64) float32: signed magnitudes from 1e-20 to 1e13, a dense band
    around zero, and both zeros."""
    rng = np.random.default_rng(18)
    wide = np.logspace(-20, 13, 64 * 64) * rng.choice([-1.0, 1.0], size=64 * 64)
    band = rng.standard_normal(64 * 960 - 2) * 4.0
    x = np.concatenate([wide, band, [0.0, -0.0]]).astype(np.float32)
    rng.shuffle(x)
    return x.reshape(1024, 64)


def _dispatched_avx512_targets():
    """The AVX-512 targets numpy dispatches kernels to on this host."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [target for target in __cpu_dispatch__
            if (target.startswith("AVX512") or target == "X86_V4")
            and __cpu_features__.get(target)]


class TestGeluKernel:
    @pytest.mark.parametrize("backend", ["numpy", "numpy-fast", "numpy-compiled"])
    def test_gelu_is_the_explicit_formula(self, backend):
        x = _gelu_inputs()
        with np.errstate(over="ignore"), use_backend(backend):  # (1e13)**3 is inf
            expected = _gelu_by_formula(x)
            out = Tensor(x).gelu().data
        assert out.tobytes() == expected.tobytes()

    def test_gelu_bytes_do_not_depend_on_simd_dispatch(self, tmp_path):
        targets = _dispatched_avx512_targets()
        if not targets:
            pytest.skip("numpy dispatches no AVX-512 kernels on this host")
        x = _gelu_inputs()
        np.save(tmp_path / "x.npy", x)
        with np.errstate(over="ignore"):
            here = Tensor(x).gelu().data
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__)), env.get("PYTHONPATH", "")])
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.tensor import Tensor\n"
            "try:\n"
            "    from numpy._core._multiarray_umath import __cpu_features__\n"
            "except ImportError:\n"
            "    from numpy.core._multiarray_umath import __cpu_features__\n"
            "assert not any(__cpu_features__[t] for t in sys.argv[3:]), 'still dispatched'\n"
            "with np.errstate(over='ignore'):\n"
            "    np.save(sys.argv[2], Tensor(np.load(sys.argv[1])).gelu().data)\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "x.npy"), str(tmp_path / "out.npy"),
             *targets],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert np.load(tmp_path / "out.npy").tobytes() == here.tobytes()


# --------------------------------------------------------------------------- #
# Per-op counters
# --------------------------------------------------------------------------- #
class TestOpCounters:
    def test_counts_and_flops_recorded(self):
        from repro.profiling import count_ops

        x = Tensor(np.ones((4, 8), dtype=np.float32), requires_grad=True)
        w = Tensor(np.ones((8, 3), dtype=np.float32), requires_grad=True)
        with count_ops() as counts:
            (x @ w).sum().backward()
        assert counts["matmul"].calls == 1
        assert counts["matmul"].flops == pytest.approx(2.0 * 4 * 3 * 8)
        assert counts["sum"].calls == 1

    def test_conv_flops_match_analytic_count(self):
        from repro.profiling import conv2d_cost, count_ops

        x = Tensor(np.ones((2, 3, 8, 8), dtype=np.float32))
        w = Tensor(np.ones((4, 3, 3, 3), dtype=np.float32), requires_grad=True)
        with count_ops() as counts:
            F.conv2d(x, w, stride=1, padding=1)
        analytic = conv2d_cost(batch=2, in_channels=3, out_channels=4, kernel=3,
                               out_h=8, out_w=8)
        assert counts["conv2d"].calls == 1
        assert counts["conv2d"].flops == pytest.approx(analytic.flops)

    def test_optimizer_steps_counted(self):
        from repro.optim import SGD
        from repro.profiling import count_ops

        p = nn.Parameter(np.ones(4, dtype=np.float32))
        optimizer = SGD([p], lr=0.1)
        p.grad = np.ones(4, dtype=np.float32)
        with count_ops() as counts:
            optimizer.step()
        assert counts["sgd_step"].calls == 1

    def test_reset(self):
        from repro.profiling import op_counters, reset_op_counters

        Tensor(np.ones(3)) + Tensor(np.ones(3))
        assert op_counters()
        reset_op_counters()
        assert not op_counters()


# --------------------------------------------------------------------------- #
# Arena allocator
# --------------------------------------------------------------------------- #
class TestArena:
    def test_take_give_roundtrip(self):
        be = NumpyFastBackend()
        buf = be.take((4, 4))
        be.give(buf)
        assert be.take((4, 4)) is buf

    def test_views_are_not_pooled(self):
        be = NumpyFastBackend()
        base = np.empty((4, 4), dtype=np.float32)
        be.give(base[:2])
        assert be.take((2, 4)) is not base

    def test_layout_is_part_of_the_key(self):
        be = NumpyFastBackend()
        proto = np.empty((2, 3, 4, 5), dtype=np.float32).transpose(0, 2, 3, 1)
        buf = be.take_like(proto)
        assert buf.strides == np.zeros_like(proto).strides
        be.give(buf)
        assert be.take_like(proto) is buf
        # A C-contiguous request of the same shape must not receive it.
        c_buf = be.take(proto.shape)
        assert c_buf.flags.c_contiguous

    def test_intermediate_grads_released_and_recycled(self):
        with use_backend("numpy-fast") as be:
            be.clear_arena()
            x = Tensor(np.ones((32, 32), dtype=np.float32), requires_grad=True)
            y = (x * 2.0)
            y.sum().backward()
            # Leaf keeps its grad; the intermediate's buffer went to the arena.
            assert x.grad is not None
            assert y.grad is None
            assert any(bucket for bucket in be._arena.values())

    def test_double_backward_raises_on_pooling_backend(self):
        with use_backend("numpy-fast"):
            x = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
            loss = (x * 2.0).sum()
            loss.backward()
            with pytest.raises(RuntimeError, match="already backpropagated"):
                loss.backward()

    def test_double_backward_still_allowed_on_reference_backend(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        loss = (x * 2.0).sum()
        loss.backward()
        loss.backward()
        # Historical semantics: intermediate grads persist, so the second
        # pass compounds through them (2 + 4).
        np.testing.assert_allclose(x.grad, 6 * np.ones(3))

    def test_zero_grad_recycles_parameter_grads(self):
        with use_backend("numpy-fast") as be:
            be.clear_arena()
            p = nn.Parameter(np.ones((8, 8), dtype=np.float32))
            (p * 3.0).sum().backward()
            buf = p.grad
            p.zero_grad()
            assert p.grad is None
            assert be.take_like(p.data) is buf


# --------------------------------------------------------------------------- #
# Graph-free inference mode
# --------------------------------------------------------------------------- #
class TestGraphFreeInference:
    @pytest.mark.parametrize("backend", ["numpy", "numpy-fast"])
    def test_no_grad_builds_no_graph(self, backend):
        with use_backend(backend):
            x = Tensor(np.ones((2, 3)), requires_grad=True)
            with no_grad():
                out = (x * 2.0).relu().sum()
            assert out._op_obj is None
            assert out._prev == ()
            assert not out.requires_grad

    def test_no_grad_is_per_thread(self):
        entered, leave = threading.Event(), threading.Event()
        inside = []

        def hold_no_grad():
            with no_grad():
                inside.append(is_grad_enabled())
                entered.set()
                leave.wait(30.0)

        worker = threading.Thread(target=hold_no_grad, name="no-grad-holder")
        worker.start()
        try:
            assert entered.wait(30.0)
            assert is_grad_enabled()
            x = Tensor(np.ones((2, 3)), requires_grad=True)
            assert (x * 2.0)._op_obj is not None
        finally:
            leave.set()
            worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert inside == [False]
        assert is_grad_enabled()

    def test_conv_inference_returns_its_buffers_to_the_arena(self):
        conv = nn.Conv2d(3, 4, 3, padding=1)
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(np.float32)
        with use_backend("numpy"):
            with no_grad():
                expected = conv(Tensor(x)).data.copy()
        with use_backend("numpy-fast") as be:
            be.clear_arena()
            col = be.take((2 * 8 * 8, 3 * 3 * 3))
            image = be.take((2, 10, 10, 3))   # the zero-bordered NHWC input
            col.fill(np.nan)
            image.fill(np.nan)
            be.give(col)
            be.give(image)
            with no_grad():
                first = conv(Tensor(x)).data.copy()
                second = conv(Tensor(x)).data.copy()
            # Both forwards gathered through these two buffers and gave them back.
            assert be.take(col.shape) is col
            assert be.take(image.shape) is image
            be.clear_arena()
        assert np.array_equal(col, F.im2col(x, 3, 3, (1, 1), (1, 1)))
        assert np.array_equal(image[:, 1:9, 1:9], x.transpose(0, 2, 3, 1))
        assert np.array_equal(first, expected)
        assert np.array_equal(second, expected)

    def test_inference_forward_matches_training_forward(self):
        seed_everything(0)
        model = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1), nn.ReLU(),
                              nn.Flatten(), nn.Linear(4 * 64, 5))
        model.eval()
        x = np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(np.float32)
        with no_grad():
            graph_free = model(Tensor(x)).data.copy()
        graphed = model(Tensor(x, requires_grad=True)).data
        np.testing.assert_array_equal(graph_free, graphed)


# --------------------------------------------------------------------------- #
# Satellite API fixes
# --------------------------------------------------------------------------- #
class TestTensorApiFixes:
    def test_item_multi_element_raises_value_error(self):
        with pytest.raises(ValueError, match="one element"):
            Tensor(np.ones((2, 3))).item()

    def test_item_scalar_still_works(self):
        assert Tensor(np.asarray(2.5)).item() == 2.5
        assert Tensor(np.asarray([[4.0]])).item() == 4.0

    @pytest.mark.parametrize("exponent", [np.int64(2), np.float32(2.0), np.float64(2.0)])
    def test_pow_accepts_numpy_scalars(self, exponent):
        t = Tensor([2.0, 3.0], requires_grad=True)
        out = t ** exponent
        np.testing.assert_allclose(out.data, [4.0, 9.0])
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [4.0, 6.0])

    def test_pow_still_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_dropout_fallback_rng_is_seeded(self):
        x = Tensor(np.ones((64, 64)))

        seed_everything(77)
        a = F.dropout(x, 0.5, training=True).data.copy()
        seed_everything(77)
        b = F.dropout(x, 0.5, training=True).data.copy()
        assert np.array_equal(a, b)

        # Consecutive calls under one seed draw different masks.
        seed_everything(77)
        first = F.dropout(x, 0.5, training=True).data.copy()
        second = F.dropout(x, 0.5, training=True).data.copy()
        assert not np.array_equal(first, second)

    def test_dropout_explicit_rng_still_honoured(self):
        x = Tensor(np.ones((16, 16)))
        a = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(3)).data
        b = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(3)).data
        assert np.array_equal(a, b)
