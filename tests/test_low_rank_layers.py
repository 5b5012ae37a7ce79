"""Tests for factorized layers and the SVD factorization step."""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    LowRankConv2d,
    LowRankLinear,
    factorize_conv2d,
    factorize_linear,
    factorize_model,
    factorize_module,
    hybrid_parameter_count,
    is_low_rank,
    reconstruction_error,
    svd_factorize,
    would_reduce_parameters,
)
from repro.models import MLP, resnet18
from repro.tensor import Tensor


class TestSVDFactorize:
    def test_full_rank_reconstruction_exact(self, rng):
        matrix = rng.standard_normal((10, 6)).astype(np.float32)
        u, vt = svd_factorize(matrix, rank=6)
        np.testing.assert_allclose(u @ vt, matrix, atol=1e-4)

    def test_error_decreases_with_rank(self, rng):
        matrix = rng.standard_normal((20, 20))
        errors = [reconstruction_error(matrix, *svd_factorize(matrix, r)) for r in (2, 5, 10, 20)]
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-4

    def test_rank_clamped_to_valid_range(self, rng):
        matrix = rng.standard_normal((5, 3))
        u, vt = svd_factorize(matrix, rank=100)
        assert u.shape == (5, 3) and vt.shape == (3, 3)
        u, vt = svd_factorize(matrix, rank=0)
        assert u.shape == (5, 1)

    def test_factors_balanced_by_sqrt_sigma(self, rng):
        """Both factors carry Σ^{1/2}, so their norms are comparable (not U=orthogonal)."""
        matrix = 10 * rng.standard_normal((16, 16))
        u, vt = svd_factorize(matrix, rank=4)
        assert 0.2 < np.linalg.norm(u) / np.linalg.norm(vt) < 5.0


class TestLowRankLinear:
    def test_forward_shape(self, rng):
        layer = LowRankLinear(12, 8, rank=3)
        out = layer(Tensor(rng.random((5, 12)).astype(np.float32)))
        assert out.shape == (5, 8)

    def test_parameter_count_smaller_than_dense(self):
        dense = nn.Linear(64, 64)
        low = LowRankLinear(64, 64, rank=8)
        assert low.num_parameters() < dense.num_parameters()

    def test_rank_clamped(self):
        layer = LowRankLinear(6, 4, rank=100)
        assert layer.rank == 4

    def test_composed_weight_matches_forward(self, rng):
        layer = LowRankLinear(10, 7, rank=4, bias=False)
        x = rng.random((3, 10)).astype(np.float32)
        manual = x @ layer.composed_weight()
        np.testing.assert_allclose(layer(Tensor(x)).data, manual, atol=1e-4)

    def test_from_factors_roundtrip(self, rng):
        u = rng.random((9, 3)).astype(np.float32)
        vt = rng.random((3, 5)).astype(np.float32)
        bias = rng.random(5).astype(np.float32)
        layer = LowRankLinear.from_factors(u, vt, bias=bias)
        x = rng.random((2, 9)).astype(np.float32)
        np.testing.assert_allclose(layer(Tensor(x)).data, x @ u @ vt + bias, atol=1e-4)

    @pytest.mark.parametrize("extra_bn", [False, True])
    def test_from_factors_copies_factors_without_svd(self, rng, svd_calls, extra_bn):
        u = rng.standard_normal((9, 3)).astype(np.float32)
        vt = rng.standard_normal((3, 5)).astype(np.float32)
        bias = rng.standard_normal(5).astype(np.float32)
        layer = LowRankLinear.from_factors(u, vt, bias=bias, extra_bn=extra_bn)
        assert svd_calls == []
        assert (layer.in_features, layer.out_features, layer.rank) == (9, 5, 3)
        for got, given in ((layer.u, u), (layer.vt, vt), (layer.bias, bias)):
            assert got.data.dtype == np.float32
            assert got.data.tobytes() == given.tobytes()
            assert not np.shares_memory(got.data, given)
        assert [name for name, _ in layer.named_parameters()][:3] == ["u", "vt", "bias"]
        assert (layer.bn is not None) == extra_bn

    def test_extra_bn_inserted(self, rng):
        layer = LowRankLinear(8, 8, rank=2, extra_bn=True)
        assert isinstance(layer.bn, nn.BatchNorm1d)
        out = layer(Tensor(rng.random((4, 8)).astype(np.float32)))
        assert out.shape == (4, 8)

    def test_extra_bn_handles_3d_input(self, rng):
        layer = LowRankLinear(8, 8, rank=2, extra_bn=True)
        out = layer(Tensor(rng.random((2, 5, 8)).astype(np.float32)))
        assert out.shape == (2, 5, 8)

    def test_backward_reaches_both_factors(self, rng):
        layer = LowRankLinear(6, 6, rank=2)
        layer(Tensor(rng.random((3, 6)).astype(np.float32))).sum().backward()
        assert layer.u.grad is not None and layer.vt.grad is not None

    def test_factor_parameters(self):
        layer = LowRankLinear(4, 4, rank=2)
        u, vt = layer.factor_parameters()
        assert u is layer.u and vt is layer.vt


class TestLowRankConv2d:
    def test_forward_shape_matches_dense(self, rng):
        dense = nn.Conv2d(4, 8, 3, stride=2, padding=1)
        low = LowRankConv2d(4, 8, 3, rank=2, stride=2, padding=1)
        x = Tensor(rng.random((2, 4, 8, 8)).astype(np.float32))
        assert low(x).shape == dense(x).shape

    def test_parameter_reduction(self):
        dense = nn.Conv2d(32, 32, 3, bias=False)
        low = LowRankConv2d(32, 32, 3, rank=4, bias=False)
        assert low.num_parameters() < dense.num_parameters() / 3

    def test_composed_weight_consistent_with_forward(self, rng):
        """Composing U·Vᵀ back into a dense kernel reproduces the factorized output."""
        low = LowRankConv2d(3, 6, 3, rank=2, padding=1, bias=False)
        composed = low.composed_weight()            # (in·k², out)
        dense_weight = composed.reshape(3, 3, 3, 6).transpose(3, 0, 1, 2)
        dense = nn.Conv2d(3, 6, 3, padding=1, bias=False)
        dense.weight.data = dense_weight.astype(np.float32)
        x = Tensor(rng.random((2, 3, 5, 5)).astype(np.float32))
        np.testing.assert_allclose(low(x).data, dense(x).data, atol=1e-4)

    def test_from_factors_copies_factors_without_svd(self, rng, svd_calls):
        reference = nn.Conv2d(3, 6, 3, stride=2, padding=1)
        reference.bias.data = rng.standard_normal(6).astype(np.float32)
        u = rng.standard_normal((3 * 9, 2)).astype(np.float32)
        vt = rng.standard_normal((2, 6)).astype(np.float32)
        layer = LowRankConv2d.from_factors(reference, u, vt)
        assert svd_calls == []
        assert (layer.rank, layer.stride, layer.padding) == (2, 2, 1)
        # Undo the conv layouts: U (in·k², r) ← (r, in, k, k), Vᵀ (r, out) ← (out, r, 1, 1).
        got_u = layer.u_weight.data.transpose(1, 2, 3, 0).reshape(27, 2)
        got_vt = layer.v_weight.data.reshape(6, 2).T
        assert got_u.tobytes() == u.tobytes() and got_vt.tobytes() == vt.tobytes()
        assert layer.bias.data.tobytes() == reference.bias.data.tobytes()
        assert not np.shares_memory(layer.bias.data, reference.bias.data)

    def test_extra_bn(self, rng):
        low = LowRankConv2d(3, 6, 3, rank=2, padding=1, extra_bn=True)
        assert isinstance(low.bn, nn.BatchNorm2d)
        assert low(Tensor(rng.random((2, 3, 5, 5)).astype(np.float32))).shape == (2, 6, 5, 5)

    def test_is_low_rank_helper(self):
        assert is_low_rank(LowRankLinear(4, 4, 2))
        assert is_low_rank(LowRankConv2d(2, 2, 3, 1))
        assert not is_low_rank(nn.Linear(4, 4))


class TestFactorizeModules:
    def test_factorize_linear_preserves_function_at_full_rank(self, rng):
        dense = nn.Linear(10, 8)
        low = factorize_linear(dense, rank=8)
        x = Tensor(rng.random((4, 10)).astype(np.float32))
        np.testing.assert_allclose(low(x).data, dense(x).data, atol=1e-4)

    def test_factorize_conv_preserves_function_at_full_rank(self, rng):
        dense = nn.Conv2d(3, 5, 3, padding=1)
        low = factorize_conv2d(dense, rank=min(3 * 9, 5))
        x = Tensor(rng.random((2, 3, 6, 6)).astype(np.float32))
        np.testing.assert_allclose(low(x).data, dense(x).data, atol=1e-3)

    def test_factorize_low_rank_weight_is_near_lossless(self, rng):
        dense = nn.Linear(20, 20, bias=False)
        u = rng.standard_normal((20, 3)).astype(np.float32)
        v = rng.standard_normal((3, 20)).astype(np.float32)
        dense.weight.data = (u @ v).T.astype(np.float32) / 5
        low = factorize_linear(dense, rank=3)
        x = Tensor(rng.random((4, 20)).astype(np.float32))
        np.testing.assert_allclose(low(x).data, dense(x).data, atol=1e-3)

    def test_factorize_module_dispatch(self):
        assert isinstance(factorize_module(nn.Linear(4, 4), 2), LowRankLinear)
        assert isinstance(factorize_module(nn.Conv2d(2, 2, 3), 1), LowRankConv2d)
        with pytest.raises(TypeError):
            factorize_module(nn.ReLU(), 2)

    def test_would_reduce_parameters(self):
        assert would_reduce_parameters(nn.Linear(64, 64), 8)
        assert not would_reduce_parameters(nn.Linear(64, 64), 64)
        assert would_reduce_parameters(nn.Conv2d(32, 32, 3), 8)
        assert not would_reduce_parameters(nn.ReLU(), 1)

    def test_factorize_model_in_place(self):
        model = MLP(16, [32, 32], 4)
        candidates = model.factorization_candidates()
        before = model.num_parameters()
        factorized = factorize_model(model, {p: 2 for p in candidates})
        assert set(factorized) == set(candidates)
        assert model.num_parameters() < before
        for path in candidates:
            assert is_low_rank(model.get_submodule(path))

    @pytest.mark.parametrize("activation", [nn.ReLU, nn.GELU])
    def test_full_rank_switch_keeps_the_activations(self, rng, activation):
        """The switch replaces only the Linear modules: the nonlinearity
        between two factorized layers stays, so a full-rank switch keeps the
        function."""
        model = nn.Sequential(nn.Linear(12, 24), activation(), nn.Linear(24, 24),
                              activation(), nn.Linear(24, 4))
        x = Tensor(rng.standard_normal((8, 12)).astype(np.float32))
        before = model(x).data.copy()
        factorized = factorize_model(model, {"0": 12, "2": 24, "4": 4},
                                     skip_non_reducing=False)
        assert sorted(factorized) == ["0", "2", "4"]
        assert [type(m) for m in model] == [LowRankLinear, activation] * 2 + [LowRankLinear]
        np.testing.assert_allclose(model(x).data, before, atol=1e-4)

    def test_factorize_model_skips_non_reducing(self):
        model = MLP(16, [32, 32], 4)
        candidates = model.factorization_candidates()
        factorized = factorize_model(model, {candidates[0]: 32})
        assert factorized == []

    def test_factorize_model_idempotent_on_low_rank_layers(self):
        model = MLP(16, [32, 32], 4)
        candidates = model.factorization_candidates()
        factorize_model(model, {candidates[0]: 2})
        again = factorize_model(model, {candidates[0]: 2})
        assert again == []

    def test_factorized_resnet_still_trains(self, rng):
        model = resnet18(num_classes=4, width_mult=0.125)
        candidates = model.factorization_candidates()[-4:]
        factorize_model(model, {p: 4 for p in candidates})
        out = model(rng.random((2, 3, 16, 16)).astype(np.float32))
        from repro.tensor import functional as F
        F.cross_entropy(out, np.array([0, 1])).backward()
        low_rank_modules = [m for m in model.modules() if is_low_rank(m)]
        assert low_rank_modules
        assert all(m.u_weight.grad is not None for m in low_rank_modules)

    def test_hybrid_parameter_count(self):
        model = MLP(16, [32, 32], 4)
        candidates = model.factorization_candidates()
        factorize_model(model, {p: 2 for p in candidates})
        counts = hybrid_parameter_count(model)
        assert counts["total"] == counts["full_rank"] + counts["low_rank"]
        assert counts["low_rank"] > 0
