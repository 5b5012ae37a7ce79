"""Unit tests for stateless NN operations (repro.tensor.functional)."""

import itertools

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F, use_backend


def _reference_conv2d(x, w, b, stride, pad):
    """Naive direct convolution used as the gold standard for im2col conv."""
    n, c, h, width = x.shape
    out_c, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = pad
    xp = np.pad(x, [(0, 0), (0, 0), (ph, ph), (pw, pw)])
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (width + 2 * pw - kw) // sw + 1
    out = np.zeros((n, out_c, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oc in range(out_c):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[ni, :, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    out[ni, oc, i, j] = np.sum(patch * w[oc]) + (b[oc] if b is not None else 0.0)
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_matches_reference_implementation(self, rng, stride, pad):
        x = rng.random((2, 3, 6, 6)).astype(np.float32)
        w = rng.random((4, 3, 3, 3)).astype(np.float32) * 0.2
        b = rng.random(4).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=pad)
        ref = _reference_conv2d(x, w, b, (stride, stride), (pad, pad))
        np.testing.assert_allclose(out.data, ref, atol=1e-4)

    def test_weight_gradient_matches_numeric(self, rng, gradcheck):
        x = rng.random((1, 2, 5, 5)).astype(np.float64)
        w = rng.random((3, 2, 3, 3)).astype(np.float64) * 0.3
        wt = Tensor(w, requires_grad=True)
        loss = (F.conv2d(Tensor(x), wt, None, padding=1) ** 2).sum()
        loss.backward()
        numeric = gradcheck(lambda: float((F.conv2d(Tensor(x), Tensor(w), None, padding=1) ** 2).sum().data), w)
        np.testing.assert_allclose(wt.grad, numeric, atol=5e-2, rtol=1e-2)

    def test_input_gradient_matches_numeric(self, rng, gradcheck):
        x = rng.random((1, 2, 4, 4)).astype(np.float64)
        w = rng.random((2, 2, 3, 3)).astype(np.float64) * 0.3
        xt = Tensor(x, requires_grad=True)
        (F.conv2d(xt, Tensor(w), None, stride=2, padding=1) ** 2).sum().backward()
        numeric = gradcheck(
            lambda: float((F.conv2d(Tensor(x), Tensor(w), None, stride=2, padding=1) ** 2).sum().data), x)
        np.testing.assert_allclose(xt.grad, numeric, atol=5e-2, rtol=1e-2)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))

    def test_bias_gradient_is_output_sum(self, rng):
        x = rng.random((2, 1, 4, 4)).astype(np.float32)
        w = rng.random((2, 1, 3, 3)).astype(np.float32)
        b = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        out = F.conv2d(Tensor(x), Tensor(w), b, padding=1)
        out.sum().backward()
        np.testing.assert_allclose(b.grad, [np.prod(out.shape[0:1] + out.shape[2:])] * 2)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data.reshape(2, 2), [[5, 7], [13, 15]])

    def test_max_pool_gradient_routes_to_max(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad.reshape(4, 4), expected)

    def test_avg_pool_matches_mean(self, rng):
        x = rng.random((2, 3, 4, 4)).astype(np.float32)
        out = F.avg_pool2d(Tensor(x), 4)
        np.testing.assert_allclose(out.data.reshape(2, 3), x.mean(axis=(2, 3)), atol=1e-5)

    def test_avg_pool_gradient_uniform(self):
        x = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
        F.avg_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, 0.25 * np.ones((1, 1, 4, 4)))

    def test_adaptive_avg_pool_to_one(self, rng):
        x = rng.random((2, 5, 6, 6)).astype(np.float32)
        out = F.adaptive_avg_pool2d(Tensor(x), 1)
        assert out.shape == (2, 5, 1, 1)
        np.testing.assert_allclose(out.data.reshape(2, 5), x.mean(axis=(2, 3)), atol=1e-5)

    def test_adaptive_avg_pool_indivisible_raises(self):
        with pytest.raises(ValueError):
            F.adaptive_avg_pool2d(Tensor(np.zeros((1, 1, 5, 5))), 2)

    def test_max_pool_with_stride_and_padding(self, rng):
        x = rng.random((1, 2, 5, 5)).astype(np.float32)
        out = F.max_pool2d(Tensor(x), 3, stride=2, padding=1)
        assert out.shape == (1, 2, 3, 3)


class TestSoftmaxAndLosses:
    def test_softmax_sums_to_one(self, rng):
        x = rng.random((4, 7)).astype(np.float32)
        out = F.softmax(Tensor(x), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-6)

    def test_softmax_shift_invariance(self, rng):
        x = rng.random((3, 5)).astype(np.float32)
        np.testing.assert_allclose(F.softmax(Tensor(x)).data, F.softmax(Tensor(x + 100.0)).data, atol=1e-5)

    def test_log_softmax_consistent_with_softmax(self, rng):
        x = rng.random((3, 5)).astype(np.float32)
        np.testing.assert_allclose(np.exp(F.log_softmax(Tensor(x)).data), F.softmax(Tensor(x)).data, atol=1e-6)

    def test_softmax_gradient_matches_numeric(self, rng, gradcheck):
        x = rng.random((2, 4)).astype(np.float64)
        xt = Tensor(x, requires_grad=True)
        (F.softmax(xt, axis=-1) ** 2).sum().backward()
        numeric = gradcheck(lambda: float((F.softmax(Tensor(x), axis=-1) ** 2).sum().data), x)
        np.testing.assert_allclose(xt.grad, numeric, atol=2e-2)

    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.random((5, 3)).astype(np.float32)
        targets = np.array([0, 1, 2, 1, 0])
        loss = F.cross_entropy(Tensor(logits), targets)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(5), targets].mean()
        np.testing.assert_allclose(loss.item(), expected, rtol=1e-5)

    def test_cross_entropy_gradient_is_probs_minus_onehot(self, rng):
        logits = rng.random((4, 3)).astype(np.float32)
        targets = np.array([0, 2, 1, 1])
        lt = Tensor(logits, requires_grad=True)
        F.cross_entropy(lt, targets).backward()
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        onehot = np.zeros_like(probs)
        onehot[np.arange(4), targets] = 1.0
        np.testing.assert_allclose(lt.grad, (probs - onehot) / 4, atol=1e-5)

    def test_cross_entropy_label_smoothing_increases_loss_on_confident_logits(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]], dtype=np.float32)
        targets = np.array([0, 1])
        plain = F.cross_entropy(Tensor(logits), targets).item()
        smoothed = F.cross_entropy(Tensor(logits), targets, label_smoothing=0.1).item()
        assert smoothed > plain

    def test_cross_entropy_ignore_index_masks_positions(self, rng):
        logits = rng.random((4, 3)).astype(np.float32)
        targets = np.array([0, -100, 2, -100])
        loss = F.cross_entropy(Tensor(logits), targets, ignore_index=-100)
        valid = F.cross_entropy(Tensor(logits[[0, 2]]), np.array([0, 2]))
        np.testing.assert_allclose(loss.item(), valid.item(), rtol=1e-5)

    def test_cross_entropy_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3, 4))), np.zeros(2, dtype=int))

    def test_nll_loss(self, rng):
        logits = rng.random((3, 4)).astype(np.float32)
        targets = np.array([1, 0, 3])
        log_probs = F.log_softmax(Tensor(logits))
        np.testing.assert_allclose(F.nll_loss(log_probs, targets).item(),
                                   F.cross_entropy(Tensor(logits), targets).item(), rtol=1e-5)

    def test_mse_loss(self):
        pred = Tensor([1.0, 2.0], requires_grad=True)
        loss = F.mse_loss(pred, np.array([0.0, 0.0], dtype=np.float32))
        np.testing.assert_allclose(loss.item(), 2.5)
        loss.backward()
        np.testing.assert_allclose(pred.grad, [1.0, 2.0])

    def test_bce_with_logits_matches_reference(self, rng):
        logits = rng.standard_normal(10).astype(np.float32)
        targets = (rng.random(10) > 0.5).astype(np.float32)
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), targets)
        probs = 1 / (1 + np.exp(-logits))
        expected = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs)).mean()
        np.testing.assert_allclose(loss.item(), expected, rtol=1e-4)


class TestDropoutAndHelpers:
    def test_dropout_identity_in_eval(self, rng):
        x = Tensor(rng.random((10, 10)).astype(np.float32))
        out = F.dropout(x, p=0.5, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_preserves_expectation(self, rng):
        x = Tensor(np.ones((200, 200), dtype=np.float32))
        out = F.dropout(x, p=0.3, training=True, rng=np.random.default_rng(0))
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_dropout_zero_probability_is_identity(self, rng):
        x = Tensor(rng.random((4, 4)).astype(np.float32))
        assert F.dropout(x, p=0.0, training=True) is x

    def test_linear_matches_manual(self, rng):
        x = rng.random((3, 5)).astype(np.float32)
        w = rng.random((2, 5)).astype(np.float32)
        b = rng.random(2).astype(np.float32)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b, atol=1e-5)

    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1]])

    def test_im2col_col2im_adjoint(self, rng):
        """col2im is the transpose of im2col: <im2col(x), y> == <x, col2im(y)>."""
        x = rng.random((2, 3, 6, 6)).astype(np.float64)
        cols = F.im2col(x, 3, 3, (2, 2), (1, 1))
        y = rng.random(cols.shape).astype(np.float64)
        lhs = float((cols * y).sum())
        rhs = float((x * F.col2im(y, x.shape, 3, 3, (2, 2), (1, 1))).sum())
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6)


# --------------------------------------------------------------------------- #
# Fast gathers vs the seed loops
# --------------------------------------------------------------------------- #
def _input_layouts(rng, c, h, w):
    """One NCHW-shaped input in each memory layout a gather meets."""
    base = rng.standard_normal((2, c, h, w)).astype(np.float32)
    return {
        "nchw": base,  # loader batches
        "nhwc": np.ascontiguousarray(base.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
        "channel-slice": rng.standard_normal((2, c + 2, h, w)).astype(np.float32)[:, 1:c + 1],
    }


def _bits(array):
    return np.ascontiguousarray(array).view(np.int32)


class TestFastGatherParity:
    """``fast=True`` must reproduce the seed loops bit for bit, including
    from dirty (recycled) scratch images."""

    @pytest.mark.parametrize("stride", [1, 2, 4])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4])
    def test_im2col_and_col2im_match_the_seed_loops(self, rng, kernel, stride):
        maps = [(2, 2), (3, 5), (8, 8), (7, 4)]
        for pad, (h, w), c in itertools.product(range(3), maps, [1, 3, 8, 64]):
            if h + 2 * pad < kernel or w + 2 * pad < kernel:
                continue
            geometry = (kernel, kernel, (stride, stride), (pad, pad))
            for layout, x in _input_layouts(rng, c, h, w).items():
                case = (layout, pad, h, w, c)
                dirty = np.full(F.padded_image_shape(x.shape, (pad, pad)), np.nan,
                                dtype=np.float32)
                cols = F.im2col(x, *geometry)
                fast = F.im2col(x, *geometry, fast=True, scratch=dirty)
                assert cols.shape == fast.shape and np.array_equal(_bits(cols), _bits(fast)), case
                grad = rng.standard_normal(cols.shape).astype(np.float32)
                image = F.col2im(grad, x.shape, *geometry)
                dirty.fill(np.nan)
                fast = F.col2im(grad, x.shape, *geometry, fast=True, scratch=dirty)
                assert image.shape == fast.shape and np.array_equal(_bits(image), _bits(fast)), case

    @pytest.mark.parametrize("op,kernel,stride,pad", [
        ("conv", 3, 1, 1), ("conv", 3, 2, 1), ("conv", 1, 2, 0), ("conv", 4, 4, 0),
        ("conv_pair", 3, 1, 1),  # the second conv gathers into buffers of the first's shape
        ("max_pool", 3, 2, 1), ("max_pool", 2, 2, 0),
        ("avg_pool", 2, 2, 0), ("avg_pool", 4, 4, 0),
    ])
    def test_ops_match_between_backends(self, rng, op, kernel, stride, pad):
        weights = [rng.standard_normal((6, 6, kernel, kernel)).astype(np.float32)
                   for _ in range(2 if op == "conv_pair" else 1)]
        bias = rng.standard_normal(6).astype(np.float32)
        for x0 in _input_layouts(rng, 6, 8, 8).values():
            results = []
            for backend in ("numpy", "numpy-fast"):
                with use_backend(backend):
                    x = Tensor(x0, requires_grad=True)
                    params = []
                    if op.startswith("conv"):
                        out = x
                        for weight in weights:
                            params += [Tensor(weight, requires_grad=True), Tensor(bias, requires_grad=True)]
                            out = F.conv2d(out, *params[-2:], stride=stride, padding=pad)
                    elif op == "max_pool":
                        out = F.max_pool2d(x, kernel, stride, pad)
                    else:
                        out = F.avg_pool2d(x, kernel, stride, pad)
                    upstream = np.random.default_rng(1).standard_normal(out.shape)
                    (out * Tensor(upstream.astype(np.float32))).sum().backward()
                    results.append([out.data, x.grad] + [p.grad for p in params])
            for reference, fast in zip(*results):
                assert reference.shape == fast.shape
                assert np.array_equal(_bits(reference), _bits(fast))
