"""Tests for concrete layers: Linear, Conv2d, norms, pooling, embedding, attention."""

import threading

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor, no_grad, use_backend


class TestLinearConv:
    def test_linear_shapes_and_bias(self, rng):
        layer = nn.Linear(6, 3)
        out = layer(Tensor(rng.random((4, 6)).astype(np.float32)))
        assert out.shape == (4, 3)
        assert layer.bias is not None and layer.bias.shape == (3,)

    def test_linear_no_bias(self):
        layer = nn.Linear(4, 2, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_linear_3d_input(self, rng):
        layer = nn.Linear(8, 4)
        out = layer(Tensor(rng.random((2, 5, 8)).astype(np.float32)))
        assert out.shape == (2, 5, 4)

    def test_conv_output_shape(self, rng):
        conv = nn.Conv2d(3, 8, 3, stride=2, padding=1)
        out = conv(Tensor(rng.random((2, 3, 8, 8)).astype(np.float32)))
        assert out.shape == (2, 8, 4, 4)

    def test_conv_backward_produces_grads(self, rng):
        conv = nn.Conv2d(2, 4, 3, padding=1)
        out = conv(Tensor(rng.random((1, 2, 5, 5)).astype(np.float32)))
        out.sum().backward()
        assert conv.weight.grad is not None and conv.weight.grad.shape == conv.weight.shape

    def test_flatten(self, rng):
        out = nn.Flatten()(Tensor(rng.random((2, 3, 4)).astype(np.float32)))
        assert out.shape == (2, 12)


class TestNormalisation:
    def test_batchnorm2d_normalises_training_batch(self, rng):
        bn = nn.BatchNorm2d(5)
        x = Tensor(rng.random((8, 5, 4, 4)).astype(np.float32) * 3 + 2)
        out = bn(x)
        assert abs(out.data.mean()) < 1e-4
        assert abs(out.data.std() - 1.0) < 1e-2

    def test_batchnorm2d_updates_running_stats(self, rng):
        bn = nn.BatchNorm2d(3)
        x = Tensor(rng.random((4, 3, 4, 4)).astype(np.float32) + 5.0)
        bn(x)
        assert bn.running_mean.data.mean() > 0.0

    def test_batchnorm2d_eval_uses_running_stats(self, rng):
        bn = nn.BatchNorm2d(3)
        x = Tensor(rng.random((4, 3, 4, 4)).astype(np.float32))
        # With momentum 0.1, ~70 updates bring the running stats within <0.1% of
        # the (constant) batch statistics.
        for _ in range(70):
            bn(x)
        bn.eval()
        out_eval = bn(x)
        bn.train()
        out_train = bn(x)
        np.testing.assert_allclose(out_eval.data, out_train.data, atol=0.1)

    @pytest.mark.parametrize("shape", [(4, 16, 5, 5), (4, 1), (4, 1, 5)],
                             ids=["channels", "2d", "3d"])
    @pytest.mark.parametrize("mode", ["train", "eval", "eval-no-grad"])
    @pytest.mark.parametrize("backend", ["numpy", "numpy-fast"])
    def test_batchnorm2d_rejects_input_it_cannot_normalise(self, backend, mode, shape):
        bn = nn.BatchNorm2d(1)
        bn.train(mode == "train")
        x = Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)
        with use_backend(backend), pytest.raises(ValueError) as error:
            if mode == "eval-no-grad":
                with no_grad():
                    bn(x)
            else:
                bn(x)
        assert "BatchNorm2d(1)" in str(error.value) and str(shape[1]) in str(error.value)
        assert bn.running_mean.data.shape == bn.running_var.data.shape == (1,)
        assert bn.running_mean.data[0] == 0.0 and bn.running_var.data[0] == 1.0

    @pytest.mark.parametrize("layer, shape", [
        ("BatchNorm1d", (4, 16)), ("BatchNorm1d", (4, 1, 5)), ("BatchNorm1d", (4,)),
        ("LayerNorm", (4, 16)), ("LayerNorm", (4, 7, 16)),
    ], ids=["bn1d-features", "bn1d-3d", "bn1d-1d", "ln-2d", "ln-3d"])
    @pytest.mark.parametrize("mode", ["train", "eval", "eval-no-grad"])
    @pytest.mark.parametrize("backend", ["numpy", "numpy-fast"])
    def test_norm_layers_reject_input_they_cannot_normalise(self, backend, mode, layer, shape):
        # With one feature every bad shape broadcasts, so without the check
        # the layer would train on it silently.
        norm = getattr(nn, layer)(1)
        norm.train(mode == "train")
        x = Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)
        with use_backend(backend), pytest.raises(ValueError) as error:
            if mode == "eval-no-grad":
                with no_grad():
                    norm(x)
            else:
                norm(x)
        assert f"{layer}(1)" in str(error.value) and str(shape) in str(error.value)
        assert norm.weight.data.shape == norm.bias.data.shape == (1,)
        if layer == "BatchNorm1d":
            assert norm.running_mean.data.shape == norm.running_var.data.shape == (1,)
            assert norm.running_mean.data[0] == 0.0 and norm.running_var.data[0] == 1.0

    def test_batchnorm1d(self, rng):
        bn = nn.BatchNorm1d(6)
        out = bn(Tensor(rng.random((16, 6)).astype(np.float32) * 2 + 1))
        assert abs(out.data.mean()) < 1e-4

    def test_layernorm_normalises_last_dim(self, rng):
        ln = nn.LayerNorm(10)
        out = ln(Tensor(rng.random((4, 7, 10)).astype(np.float32) * 4 - 2))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros((4, 7)), atol=1e-4)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones((4, 7)), atol=1e-2)

    def test_norm_parameters_trainable(self):
        bn = nn.BatchNorm2d(4)
        assert len(bn.parameters()) == 2
        assert all(p.requires_grad for p in bn.parameters())


class TestEmbeddingDropoutPooling:
    def test_embedding_lookup_shape(self):
        emb = nn.Embedding(50, 8)
        out = emb(np.array([[1, 2, 3], [4, 5, 6]]))
        assert out.shape == (2, 3, 8)

    def test_embedding_gradient_accumulates_per_token(self):
        emb = nn.Embedding(10, 4)
        out = emb(np.array([[1, 1, 2]]))
        out.sum().backward()
        np.testing.assert_allclose(emb.weight.grad[1], 2 * np.ones(4))
        np.testing.assert_allclose(emb.weight.grad[2], np.ones(4))
        np.testing.assert_allclose(emb.weight.grad[3], np.zeros(4))

    def test_dropout_module_respects_eval(self, rng):
        drop = nn.Dropout(0.9)
        drop.eval()
        x = Tensor(rng.random((5, 5)).astype(np.float32))
        np.testing.assert_allclose(drop(x).data, x.data)

    def test_pooling_modules(self, rng):
        x = Tensor(rng.random((2, 3, 8, 8)).astype(np.float32))
        assert nn.MaxPool2d(2)(x).shape == (2, 3, 4, 4)
        assert nn.AvgPool2d(2)(x).shape == (2, 3, 4, 4)
        assert nn.AdaptiveAvgPool2d(1)(x).shape == (2, 3, 1, 1)

    def test_activation_modules(self, rng):
        x = Tensor(rng.standard_normal((3, 3)).astype(np.float32))
        assert nn.ReLU()(x).data.min() >= 0
        assert np.all(np.abs(nn.Tanh()(x).data) <= 1)
        assert np.all((nn.Sigmoid()(x).data > 0) & (nn.Sigmoid()(x).data < 1))
        assert nn.GELU()(x).shape == x.shape


class TestAttention:
    def test_output_shape(self, rng):
        mha = nn.MultiHeadAttention(16, 4)
        out = mha(Tensor(rng.random((2, 6, 16)).astype(np.float32)))
        assert out.shape == (2, 6, 16)

    def test_invalid_head_count_raises(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(10, 3)

    def test_padding_mask_blocks_attention(self, rng):
        """Changing a masked token's content must not change unmasked outputs."""
        mha = nn.MultiHeadAttention(8, 2)
        mha.eval()
        x = rng.random((1, 4, 8)).astype(np.float32)
        mask = np.array([[True, True, True, False]])
        out1 = mha(Tensor(x), attn_mask=mask).data.copy()
        x_perturbed = x.copy()
        x_perturbed[0, 3] += 10.0
        out2 = mha(Tensor(x_perturbed), attn_mask=mask).data
        np.testing.assert_allclose(out1[:, :3], out2[:, :3], atol=1e-5)

    def test_backward_reaches_all_projections(self, rng):
        mha = nn.MultiHeadAttention(8, 2)
        out = mha(Tensor(rng.random((2, 3, 8)).astype(np.float32), requires_grad=True))
        out.sum().backward()
        for proj in (mha.q_proj, mha.k_proj, mha.v_proj, mha.out_proj):
            assert proj.weight.grad is not None

    def test_attention_is_permutation_sensitive_to_values(self, rng):
        mha = nn.MultiHeadAttention(8, 2)
        mha.eval()
        x = rng.random((1, 5, 8)).astype(np.float32)
        out1 = mha(Tensor(x)).data
        out2 = mha(Tensor(x[:, ::-1].copy())).data
        assert not np.allclose(out1, out2)


class TestInitializers:
    def test_kaiming_normal_std(self):
        w = nn.init.kaiming_normal((256, 128), rng=np.random.default_rng(0))
        expected = np.sqrt(2.0 / 128)
        assert abs(w.std() - expected) / expected < 0.1

    def test_xavier_uniform_bound(self):
        w = nn.init.xavier_uniform((64, 64), rng=np.random.default_rng(0))
        bound = np.sqrt(6.0 / 128)
        assert np.abs(w).max() <= bound + 1e-6

    def test_truncated_normal_clipped(self):
        w = nn.init.truncated_normal((1000,), std=0.02, rng=np.random.default_rng(0))
        assert np.abs(w).max() <= 0.04 + 1e-6

    def test_spectral_init_reconstructs_at_full_rank(self):
        u, v = nn.init.spectral_init((12, 8), rank=8, rng=np.random.default_rng(0))
        assert u.shape == (12, 8) and v.shape == (8, 8)
        # At full rank the product has the same Frobenius norm as a kaiming draw would.
        assert np.isfinite(u @ v).all()

    def test_spectral_init_rank_capped(self):
        u, v = nn.init.spectral_init((6, 4), rank=100, rng=np.random.default_rng(0))
        assert u.shape[1] == 4 and v.shape[0] == 4

    def test_conv_fan_in(self):
        w = nn.init.kaiming_normal((32, 16, 3, 3), rng=np.random.default_rng(0))
        expected = np.sqrt(2.0 / (16 * 9))
        assert abs(w.std() - expected) / expected < 0.15


_RANDOM_INITIALIZERS = ["kaiming_normal", "kaiming_uniform", "xavier_normal",
                        "xavier_uniform", "truncated_normal"]


class TestShapesOnly:
    @pytest.mark.parametrize("name", _RANDOM_INITIALIZERS)
    @pytest.mark.parametrize("shape", [(6, 4), (8, 3, 3, 3)], ids=["linear", "conv"])
    def test_initializer_returns_zeros_and_draws_nothing(self, name, shape):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with nn.init.shapes_only():
            weight = getattr(nn.init, name)(shape, rng=rng)
        assert weight.shape == shape and weight.dtype == np.float32
        assert not weight.any()
        assert rng.bit_generator.state == before

    def test_spectral_init_returns_zero_factors_and_draws_nothing(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with nn.init.shapes_only():
            u, v = nn.init.spectral_init((12, 8), rank=100, rng=rng)
        assert u.shape == (12, 8) and v.shape == (8, 8)
        assert u.dtype == v.dtype == np.float32
        assert not u.any() and not v.any()
        assert rng.bit_generator.state == before

    def test_yields_a_generator_that_fails_on_any_draw(self):
        with nn.init.shapes_only() as no_draws:
            layer = nn.Linear(6, 4, rng=no_draws)
        assert layer.weight.data.shape == (4, 6) and not layer.weight.data.any()
        with pytest.raises(RuntimeError, match="no random generator"):
            no_draws.standard_normal((2, 2))

    def test_restores_on_exit_and_after_an_exception(self):
        with nn.init.shapes_only():
            with nn.init.shapes_only():
                pass
            assert not nn.init.kaiming_normal((4, 4), rng=np.random.default_rng(0)).any()
        assert nn.init.kaiming_normal((4, 4), rng=np.random.default_rng(0)).all()
        with pytest.raises(RuntimeError):
            with nn.init.shapes_only():
                raise RuntimeError("build failed")
        assert nn.init.kaiming_normal((4, 4), rng=np.random.default_rng(0)).all()

    def test_is_per_thread(self):
        entered, leave = threading.Event(), threading.Event()
        inside = []

        def hold_shapes_only():
            with nn.init.shapes_only():
                inside.append(nn.init.xavier_normal((4, 4), rng=np.random.default_rng(0)))
                entered.set()
                leave.wait(30.0)

        worker = threading.Thread(target=hold_shapes_only, name="shapes-only-holder")
        worker.start()
        try:
            assert entered.wait(30.0)
            assert nn.Linear(4, 4, rng=np.random.default_rng(0)).weight.data.all()
        finally:
            leave.set()
            worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert len(inside) == 1 and not inside[0].any()
