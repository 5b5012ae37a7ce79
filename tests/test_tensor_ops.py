"""Unit tests for the core autograd engine (repro.tensor.tensor)."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, is_grad_enabled


def _grads_close(analytic, numeric, atol=2e-2):
    assert analytic is not None
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-2)


class TestBasicArithmetic:
    def test_add_forward(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        np.testing.assert_allclose((a + b).data, [4.0, 6.0])

    def test_add_backward_broadcast(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, 3 * np.ones(4))

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 7.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_sub_and_neg(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([0.5, 0.5], requires_grad=True)
        (a - b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [-1.0, -1.0])

    def test_div_backward(self, rng, gradcheck):
        a = rng.random((3, 3)).astype(np.float64) + 0.5
        b = rng.random((3, 3)).astype(np.float64) + 0.5
        at = Tensor(a, requires_grad=True)
        bt = Tensor(b, requires_grad=True)
        (at / bt).sum().backward()
        numeric_a = gradcheck(lambda: float((Tensor(a) / Tensor(b)).sum().data), a)
        numeric_b = gradcheck(lambda: float((Tensor(a) / Tensor(b)).sum().data), b)
        _grads_close(at.grad, numeric_a)
        _grads_close(bt.grad, numeric_b)

    def test_pow_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        (a ** 3).sum().backward()
        np.testing.assert_allclose(a.grad, [12.0, 27.0])

    def test_pow_requires_scalar_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_radd_rmul_with_scalars(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = 2.0 * a + 1.0
        np.testing.assert_allclose(out.data, [3.0, 5.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 2.0])

    def test_rsub_rdiv(self):
        a = Tensor([2.0, 4.0])
        np.testing.assert_allclose((10.0 - a).data, [8.0, 6.0])
        np.testing.assert_allclose((8.0 / a).data, [4.0, 2.0])


class TestElementwiseFunctions:
    @pytest.mark.parametrize("name, positive", [
        *(pytest.param(n, True, id=n)
          for n in ["exp", "log", "tanh", "sigmoid", "relu", "gelu", "abs", "sqrt"]),
        pytest.param("gelu", False, id="gelu-mixed-sign"),
    ])
    def test_unary_gradients_match_numeric(self, name, positive, rng, gradcheck):
        if positive:   # for log/sqrt
            x = (rng.random((4, 3)) + 0.5).astype(np.float64)
        else:
            x = (rng.random((4, 3)) * 6.0 - 3.0).astype(np.float64)
        xt = Tensor(x, requires_grad=True)
        getattr(xt, name)().sum().backward()
        numeric = gradcheck(lambda: float(getattr(Tensor(x), name)().sum().data), x)
        _grads_close(xt.grad, numeric)

    def test_relu_zeroes_negative(self):
        x = Tensor([-1.0, 0.5], requires_grad=True)
        out = x.relu()
        np.testing.assert_allclose(out.data, [0.0, 0.5])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_clip_gradient_masked(self):
        x = Tensor([-2.0, 0.0, 2.0], requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_all(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        out = x.sum()
        assert out.item() == 15.0
        out.backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1, 4)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))

    def test_mean(self):
        x = Tensor(np.arange(4, dtype=np.float32), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, 0.25 * np.ones(4))

    def test_mean_axis(self):
        x = Tensor(np.ones((2, 4)), requires_grad=True)
        out = x.mean(axis=1)
        assert out.shape == (2,)
        np.testing.assert_allclose(out.data, [1.0, 1.0])

    def test_var_matches_numpy(self, rng):
        x = rng.random((5, 6)).astype(np.float32)
        np.testing.assert_allclose(Tensor(x).var(axis=0).data, x.var(axis=0), atol=1e-5)

    def test_max_gradient_goes_to_argmax(self):
        x = Tensor([[1.0, 5.0, 3.0]], requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0, 0.0]])

    def test_max_ties_split_gradient(self):
        x = Tensor([[2.0, 2.0]], requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5]])


class TestShapeOps:
    def test_reshape_backward(self):
        x = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        x.reshape((2, 3)).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(6))

    def test_transpose_roundtrip(self, rng):
        x = rng.random((2, 3, 4)).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        out = xt.transpose((2, 0, 1))
        assert out.shape == (4, 2, 3)
        out.sum().backward()
        np.testing.assert_allclose(xt.grad, np.ones_like(x))

    def test_default_transpose_reverses(self):
        x = Tensor(np.zeros((2, 5)))
        assert x.T.shape == (5, 2)

    def test_swapaxes(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.swapaxes(0, 2).shape == (4, 3, 2)

    def test_getitem_backward_scatter(self):
        x = Tensor(np.arange(10, dtype=np.float32), requires_grad=True)
        x[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_integer_index_accumulates(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0, 0.0])

    def test_pad_backward(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        out = x.pad(((1, 1), (0, 0)))
        assert out.shape == (4, 2)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 2)))

    def test_flatten(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.flatten(start_dim=1).shape == (2, 12)

    def test_concatenate_backward(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = Tensor.concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((3, 2)))

    def test_stack(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.ones((2, 3)))
        out = Tensor.stack([a, b], axis=0)
        assert out.shape == (2, 2, 3)


class TestMatmul:
    def test_2d_matmul_gradients(self, rng, gradcheck):
        a = rng.random((3, 4)).astype(np.float64)
        b = rng.random((4, 2)).astype(np.float64)
        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (at @ bt).sum().backward()
        _grads_close(at.grad, gradcheck(lambda: float((Tensor(a) @ Tensor(b)).sum().data), a))
        _grads_close(bt.grad, gradcheck(lambda: float((Tensor(a) @ Tensor(b)).sum().data), b))

    def test_batched_matmul(self, rng):
        a = rng.random((5, 3, 4)).astype(np.float32)
        b = rng.random((5, 4, 2)).astype(np.float32)
        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = at @ bt
        assert out.shape == (5, 3, 2)
        out.sum().backward()
        assert at.grad.shape == a.shape
        assert bt.grad.shape == b.shape

    def test_broadcast_matmul_unbroadcasts_grad(self, rng):
        a = rng.random((5, 3, 4)).astype(np.float32)
        b = rng.random((4, 2)).astype(np.float32)
        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (at @ bt).sum().backward()
        assert bt.grad.shape == (4, 2)


class TestGraphMechanics:
    def test_backward_on_non_scalar_requires_grad_argument(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_without_requires_grad_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.sum().backward()

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss1 = (x * 2).sum()
        loss1.backward()
        loss2 = (x * 3).sum()
        loss2.backward()
        np.testing.assert_allclose(x.grad, 5 * np.ones(3))

    def test_detach_stops_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x.detach() * 2).sum()
        assert x.grad is None

    def test_clone_passes_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        x.clone().sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(3))

    def test_no_grad_context(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = x * 2
        assert is_grad_enabled()
        assert not out.requires_grad

    def test_diamond_graph_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3
        b = x * 4
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        x.sum().backward()
        x.zero_grad()
        assert x.grad is None


class TestConstructors:
    def test_zeros_ones(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones((4,)).data.sum() == 4.0

    def test_randn_seeded(self, rng):
        a = Tensor.randn(3, 3, rng=np.random.default_rng(0))
        b = Tensor.randn(3, 3, rng=np.random.default_rng(0))
        np.testing.assert_allclose(a.data, b.data)

    def test_dtype_is_float32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32
