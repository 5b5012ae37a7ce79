"""Numerical gradient checks for every autograd Op, on both backends.

Each case builds a scalar loss from one op, backpropagates analytically and
compares against central-difference numeric gradients.  Every case runs on
the ``numpy`` backend (unfused reference chains) and on ``numpy-fast``
(arena buffers + fused kernels), so fused and pooled execution paths are
grad-checked too.
"""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, functional as F, use_backend

BACKENDS = ["numpy", "numpy-fast"]


def _numeric_gradient(fn, array, eps=1e-3):
    grad = np.zeros_like(array, dtype=np.float64)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + eps
        plus = fn()
        array[idx] = original - eps
        minus = fn()
        array[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


def check_gradients(op_fn, arrays, backend, atol=2e-2, rtol=1e-2):
    """Grad-check ``op_fn(*tensors) -> Tensor`` against numeric differences."""
    with use_backend(backend):
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        loss = op_fn(*tensors)
        if loss.size != 1:
            loss = loss.sum()
        loss.backward()
        analytic = [t.grad for t in tensors]

        for i, array in enumerate(arrays):
            def scalar():
                out = op_fn(*[Tensor(a) for a in arrays])
                if out.size != 1:
                    out = out.sum()
                return float(out.data)

            numeric = _numeric_gradient(scalar, array)
            assert analytic[i] is not None, f"missing grad for input {i}"
            np.testing.assert_allclose(
                analytic[i], numeric, atol=atol, rtol=rtol,
                err_msg=f"input {i} on backend {backend}",
            )


@pytest.fixture
def arr():
    rng = np.random.default_rng(42)

    def make(*shape, positive=False, spread=1.0):
        data = rng.random(shape) * spread + (0.5 if positive else -spread / 2)
        return data.astype(np.float64)

    return make


# --------------------------------------------------------------------------- #
# Core elementwise / reduction / shape / linalg ops
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
class TestCoreOps:
    def test_add_broadcast(self, arr, backend):
        check_gradients(lambda a, b: a + b, [arr(3, 4), arr(4)], backend)

    def test_mul(self, arr, backend):
        check_gradients(lambda a, b: a * b, [arr(3, 4), arr(3, 4)], backend)

    def test_neg(self, arr, backend):
        check_gradients(lambda a: -a, [arr(5)], backend)

    def test_div(self, arr, backend):
        check_gradients(lambda a, b: a / b, [arr(3, 3, positive=True), arr(3, 3, positive=True)], backend)

    def test_pow(self, arr, backend):
        check_gradients(lambda a: a ** 3, [arr(4, positive=True)], backend)

    def test_pow_numpy_scalar_exponent(self, arr, backend):
        check_gradients(lambda a: a ** np.int64(2), [arr(4, positive=True)], backend)

    @pytest.mark.parametrize("name, positive", [
        *(pytest.param(n, True, id=n)
          for n in ["exp", "log", "tanh", "sigmoid", "relu", "gelu", "abs", "sqrt"]),
        # Left of zero GELU cubes negatives and tanh saturates towards -1.
        pytest.param("gelu", False, id="gelu-mixed-sign"),
    ])
    def test_unary(self, arr, backend, name, positive):
        data = arr(4, 3, positive=True) if positive else arr(4, 3, spread=6.0)
        check_gradients(lambda a: getattr(a, name)(), [data], backend)

    def test_clip(self, arr, backend):
        # Stay away from the clip boundaries so numeric grads are clean.
        data = np.array([-2.0, -0.4, 0.3, 1.8], dtype=np.float64)
        check_gradients(lambda a: a.clip(-1.0, 1.0), [data], backend)

    def test_sum_axis(self, arr, backend):
        check_gradients(lambda a: a.sum(axis=1), [arr(3, 4)], backend)

    def test_sum_keepdims(self, arr, backend):
        check_gradients(lambda a: a.sum(axis=(0, 2), keepdims=True), [arr(2, 3, 4)], backend)

    def test_mean(self, arr, backend):
        check_gradients(lambda a: a.mean(axis=0), [arr(3, 4)], backend)

    def test_var(self, arr, backend):
        check_gradients(lambda a: a.var(axis=1), [arr(3, 4)], backend)

    def test_max(self, arr, backend):
        data = np.array([[1.0, 5.0, 3.0], [0.2, 0.1, 7.0]], dtype=np.float64)
        check_gradients(lambda a: a.max(axis=1), [data], backend)

    def test_reshape(self, arr, backend):
        check_gradients(lambda a: (a.reshape((2, 6)) * 2.0), [arr(3, 4)], backend)

    def test_transpose(self, arr, backend):
        check_gradients(lambda a: a.transpose((2, 0, 1)) * 3.0, [arr(2, 3, 4)], backend)

    def test_getitem(self, arr, backend):
        check_gradients(lambda a: a[1:3] * 2.0, [arr(5, 2)], backend)

    def test_pad(self, arr, backend):
        check_gradients(lambda a: a.pad(((1, 1), (0, 2))) * 2.0, [arr(2, 3)], backend)

    def test_clone(self, arr, backend):
        check_gradients(lambda a: a.clone() * 2.0, [arr(4)], backend)

    def test_concat(self, arr, backend):
        check_gradients(lambda a, b: Tensor.concatenate([a, b], axis=0) * 2.0,
                        [arr(2, 3), arr(4, 3)], backend)

    def test_matmul_2d(self, arr, backend):
        check_gradients(lambda a, b: a @ b, [arr(3, 4), arr(4, 2)], backend)

    def test_matmul_batched(self, arr, backend):
        check_gradients(lambda a, b: a @ b, [arr(2, 3, 4), arr(2, 4, 2)], backend)

    def test_matmul_broadcast(self, arr, backend):
        check_gradients(lambda a, b: a @ b, [arr(2, 3, 4), arr(4, 2)], backend)

    def test_matmul_vector(self, arr, backend):
        check_gradients(lambda a, b: a @ b, [arr(4), arr(4)], backend)


# --------------------------------------------------------------------------- #
# NN ops (conv, pooling, softmax family, fused kernels)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
class TestNNOps:
    def test_conv2d(self, arr, backend):
        check_gradients(
            lambda x, w, b: F.conv2d(x, w, b, stride=1, padding=1),
            [arr(2, 3, 5, 5), arr(4, 3, 3, 3), arr(4)], backend)

    def test_conv2d_strided(self, arr, backend):
        check_gradients(
            lambda x, w: F.conv2d(x, w, stride=2, padding=0),
            [arr(2, 2, 6, 6), arr(3, 2, 2, 2)], backend)

    def test_max_pool2d(self, arr, backend):
        check_gradients(lambda x: F.max_pool2d(x, 2, stride=2), [arr(2, 2, 4, 4, spread=4.0)], backend)

    def test_avg_pool2d(self, arr, backend):
        check_gradients(lambda x: F.avg_pool2d(x, 2, stride=2), [arr(2, 2, 4, 4)], backend)

    def test_softmax(self, arr, backend):
        check_gradients(lambda x: (F.softmax(x, axis=-1) * Tensor(np.arange(4.0))).sum(),
                        [arr(3, 4)], backend)

    def test_log_softmax(self, arr, backend):
        check_gradients(lambda x: (F.log_softmax(x, axis=-1) * Tensor(np.arange(4.0))).sum(),
                        [arr(3, 4)], backend)

    def test_softmax_cross_entropy(self, arr, backend):
        targets = np.array([0, 2, 1])
        check_gradients(lambda x: F.softmax_cross_entropy(x, targets), [arr(3, 4)], backend)

    def test_softmax_cross_entropy_smoothed(self, arr, backend):
        targets = np.array([3, 1, 0])
        check_gradients(lambda x: F.softmax_cross_entropy(x, targets, label_smoothing=0.1),
                        [arr(3, 4)], backend)

    def test_softmax_cross_entropy_ignore_index(self, arr, backend):
        targets = np.array([0, -100, 1])
        check_gradients(lambda x: F.softmax_cross_entropy(x, targets, ignore_index=-100),
                        [arr(3, 4)], backend)

    @pytest.mark.parametrize("activation", [None, "relu", "gelu"])
    def test_linear_act(self, arr, backend, activation):
        check_gradients(
            lambda x, w, b: F.linear_act(x, w, b, activation=activation),
            [arr(3, 4), arr(5, 4), arr(5)], backend)

    def test_linear_act_no_bias_3d(self, arr, backend):
        check_gradients(
            lambda x, w: F.linear_act(x, w, activation="relu"),
            [arr(2, 3, 4), arr(5, 4)], backend)

    def test_linear_dispatch(self, arr, backend):
        check_gradients(lambda x, w, b: F.linear(x, w, b), [arr(3, 4), arr(5, 4), arr(5)], backend)

    def test_attention_weights(self, arr, backend):
        probe = np.random.default_rng(3).random((1, 2, 4, 4))

        def fn(q, k):
            return (F.attention_weights(q, k, scale=0.5) * Tensor(probe)).sum()

        check_gradients(fn, [arr(1, 2, 4, 3), arr(1, 2, 4, 3)], backend,
                        atol=3e-2)

    def test_attention_weights_masked(self, arr, backend):
        bias = np.where(np.array([[True, True, False]])[:, None, None, :], 0.0, -1e9).astype(np.float32)
        probe = np.random.default_rng(0).random((1, 2, 3, 3))

        def fn(q, k):
            return (F.attention_weights(q, k, scale=0.7, bias=bias) * Tensor(probe)).sum()

        check_gradients(fn, [arr(1, 2, 3, 2), arr(1, 2, 3, 2)], backend, atol=3e-2)

    def test_batch_norm2d_train(self, arr, backend):
        def fn(x, w, b):
            out, _, _ = F.batch_norm2d_train(x, w, b, eps=1e-5)
            return (out * Tensor(np.random.default_rng(1).random(out.shape).astype(np.float32))).sum()

        check_gradients(fn, [arr(3, 2, 4, 4, spread=2.0), arr(2, positive=True), arr(2)],
                        backend, atol=5e-2)

    def test_batch_norm2d_eval_with_grad_enabled(self, arr, backend):
        # Eval mode outside no_grad records the op chain, so it differentiates.
        mean, var = arr(2), arr(2, positive=True)
        probe = np.random.default_rng(1).random((3, 2, 4, 4)).astype(np.float32)

        def fn(x, w, b):
            out = F.batch_norm2d_eval(x, mean, var, w, b, eps=1e-5)
            return (out * Tensor(probe)).sum()

        check_gradients(fn, [arr(3, 2, 4, 4, spread=2.0), arr(2, positive=True), arr(2)],
                        backend)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 5)], ids=["1d", "3d"])
    def test_layer_norm(self, arr, backend, shape):
        # x also feeds a residual add: its gradient is the add's contribution
        # plus, on fusing backends, the fused op's four ordered parts.
        probe = np.random.default_rng(2).random(shape).astype(np.float32)

        def fn(x, w, b):
            return ((x + F.layer_norm(x, w, b, eps=1e-5)) * Tensor(probe)).sum()

        check_gradients(fn, [arr(*shape, spread=2.0), arr(5, positive=True), arr(5)],
                        backend, atol=5e-2)


# --------------------------------------------------------------------------- #
# Whole-module smoke gradcheck (fused kernels composed end to end)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_small_mlp_end_to_end(backend):
    rng = np.random.default_rng(0)
    x = rng.random((4, 6)).astype(np.float64)
    targets = np.array([0, 1, 2, 1])

    with use_backend(backend):
        from repro.utils import seed_everything
        seed_everything(7)
        model = nn.Sequential(nn.Linear(6, 8), nn.ReLU(), nn.Linear(8, 3))
        loss = F.softmax_cross_entropy(model(Tensor(x)), targets)
        loss.backward()
        grads = [p.grad.copy() for p in model.parameters()]
        assert all(g is not None and np.isfinite(g).all() for g in grads)

        # Numeric check on the first weight matrix only (cost).
        w = model.parameters()[0]
        numeric = np.zeros_like(w.data, dtype=np.float64)
        eps = 1e-2
        it = np.nditer(w.data, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = w.data[idx]
            w.data[idx] = orig + eps
            plus = float(F.softmax_cross_entropy(model(Tensor(x)), targets).data)
            w.data[idx] = orig - eps
            minus = float(F.softmax_cross_entropy(model(Tensor(x)), targets).data)
            w.data[idx] = orig
            numeric[idx] = (plus - minus) / (2 * eps)
            it.iternext()
        np.testing.assert_allclose(grads[0], numeric, atol=5e-2, rtol=5e-2)
