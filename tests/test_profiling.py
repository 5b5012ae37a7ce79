"""Tests for the performance-accounting package (tracer, FLOPs, roofline)."""

import numpy as np
import pytest

from repro import nn
from repro.core import LowRankConv2d, LowRankLinear, factorize_model
from repro.models import MLP, resnet18
from repro.profiling import (
    CPU,
    DeviceSpec,
    V100,
    conv2d_cost,
    count_model_flops,
    count_parameters,
    factorized_conv2d_cost,
    factorized_linear_cost,
    get_device,
    linear_cost,
    model_layer_costs,
    predict_iteration_time,
    predict_layer_times,
    predict_model_time,
    price_layer_times,
    time_callable,
    time_forward,
    time_training_iteration,
    trace_shapes,
)


class TestTracer:
    def test_records_leaf_module_shapes(self, rng):
        model = nn.Sequential(nn.Linear(8, 16), nn.ReLU(), nn.Linear(16, 4))
        traces = trace_shapes(model, rng.random((3, 8)).astype(np.float32))
        assert traces["0"].input_shape == (3, 8)
        assert traces["0"].output_shape == (3, 16)
        assert traces["2"].output_shape == (3, 4)

    def test_restores_original_forward(self, rng):
        model = nn.Sequential(nn.Linear(4, 4))
        trace_shapes(model, rng.random((2, 4)).astype(np.float32))
        assert "forward" not in model[0].__dict__

    def test_does_not_change_training_mode(self, rng):
        model = nn.Sequential(nn.Linear(4, 4), nn.Dropout(0.5))
        model.train()
        trace_shapes(model, rng.random((2, 4)).astype(np.float32))
        assert model.training

    def test_restores_training_mode_when_the_forward_raises(self, rng):
        class Exploding(nn.Module):
            def __init__(self):
                super().__init__()
                self.fc = nn.Linear(4, 4)

            def forward(self, x):
                self.fc(x)
                raise RuntimeError("forward failed")

        model = Exploding()
        model.train()
        with pytest.raises(RuntimeError, match="forward failed"):
            trace_shapes(model, rng.random((2, 4)).astype(np.float32))
        assert model.training and model.fc.training
        assert "forward" not in model.fc.__dict__

    def test_conv_model_traced(self, rng):
        model = resnet18(num_classes=4, width_mult=0.125)
        traces = trace_shapes(model, rng.random((2, 3, 16, 16)).astype(np.float32))
        assert "conv1" in traces and "fc" in traces
        assert traces["conv1"].input_shape == (2, 3, 16, 16)


class TestFlopFormulas:
    def test_conv_cost_formula(self):
        cost = conv2d_cost(batch=4, in_channels=3, out_channels=8, kernel=3, out_h=10, out_w=10)
        assert cost.flops == 2 * 4 * 8 * 3 * 9 * 100
        assert cost.params == 8 * 3 * 9
        assert cost.gemm_n == 8 and cost.gemm_k == 27

    def test_linear_cost_formula(self):
        cost = linear_cost(batch_tokens=10, in_features=32, out_features=16)
        assert cost.flops == 2 * 10 * 32 * 16
        assert cost.params == 512

    def test_factorized_costs_cheaper_at_low_rank(self):
        full = conv2d_cost(8, 64, 64, 3, 8, 8)
        low = factorized_conv2d_cost(8, 64, 64, 3, rank=8, out_h=8, out_w=8)
        assert low.flops < full.flops
        assert low.params < full.params
        full_lin = linear_cost(16, 128, 128)
        low_lin = factorized_linear_cost(16, 128, 128, rank=8)
        assert low_lin.flops < full_lin.flops

    def test_arithmetic_intensity_grows_with_batch(self):
        small = conv2d_cost(1, 64, 64, 3, 8, 8)
        large = conv2d_cost(1024, 64, 64, 3, 8, 8)
        assert large.arithmetic_intensity > small.arithmetic_intensity

    def test_scale_batch(self):
        cost = conv2d_cost(2, 16, 16, 3, 4, 4)
        scaled = cost.scale_batch(8.0)
        assert scaled.flops == pytest.approx(8 * cost.flops)
        assert scaled.param_bytes == cost.param_bytes
        assert scaled.activation_bytes == pytest.approx(8 * cost.activation_bytes)

    def test_cost_addition_keeps_narrowest_gemm(self):
        a = conv2d_cost(2, 64, 8, 3, 4, 4)     # N=8
        b = conv2d_cost(2, 8, 64, 1, 4, 4)     # K=8
        combined = a + b
        assert combined.flops == a.flops + b.flops
        assert combined.gemm_n == 8


class TestModelCosts:
    def test_model_layer_costs_cover_compute_layers(self, rng):
        model = MLP(8, [16, 16], 4)
        costs = model_layer_costs(model, rng.random((2, 8)).astype(np.float32))
        linear_paths = [n for n, m in model.named_modules() if isinstance(m, nn.Linear)]
        assert set(linear_paths) <= set(costs)

    def test_count_model_flops_positive_and_scales_with_batch(self, rng):
        model = MLP(8, [16], 4)
        one = count_model_flops(model, rng.random((1, 8)).astype(np.float32))
        four = count_model_flops(model, rng.random((4, 8)).astype(np.float32))
        assert four == pytest.approx(4 * one)

    def test_count_parameters_matches_module(self):
        model = MLP(8, [16], 4)
        assert count_parameters(model) == model.num_parameters()

    def test_factorized_model_has_fewer_flops(self, rng):
        model = MLP(32, [64, 64], 4)
        x = rng.random((2, 32)).astype(np.float32)
        before = count_model_flops(model, x)
        factorize_model(model, {p: 4 for p in model.factorization_candidates()})
        after = count_model_flops(model, x)
        assert after < before

    def test_paper_flops_ordering_resnet_vs_factorized(self, rng):
        """Factorizing the deep stacks reduces total FLOPs, as in Tables 2/3."""
        model = resnet18(num_classes=10, width_mult=0.25)
        x = rng.random((1, 3, 16, 16)).astype(np.float32)
        before = count_model_flops(model, x)
        ranks = {p: 8 for p in model.layer_stack_paths()["layer4"]}
        factorize_model(model, ranks)
        assert count_model_flops(model, x) < before


class TestRoofline:
    def test_device_lookup(self):
        assert get_device("v100") is V100
        with pytest.raises(KeyError):
            get_device("h100")

    def test_layer_time_positive_and_monotone_in_flops(self):
        small = conv2d_cost(1, 16, 16, 3, 4, 4)
        large = conv2d_cost(64, 16, 16, 3, 4, 4)
        assert V100.layer_time(large) > V100.layer_time(small) > 0

    def test_gemm_efficiency_penalises_thin_layers(self):
        thin = conv2d_cost(64, 64, 4, 3, 8, 8)
        wide = conv2d_cost(64, 64, 256, 3, 8, 8)
        assert V100.gemm_efficiency(thin) < V100.gemm_efficiency(wide)
        assert V100.gemm_efficiency(wide) == 1.0

    def test_non_gemm_cost_full_efficiency(self):
        from repro.profiling.flops import LayerCost
        cost = LayerCost(flops=1e6, param_bytes=10, activation_bytes=10, params=1)
        assert V100.gemm_efficiency(cost) == 1.0

    def test_predict_layer_times_and_model_time(self, rng):
        model = MLP(16, [32], 4)
        x = rng.random((2, 16)).astype(np.float32)
        per_layer = predict_layer_times(model, x, device=V100)
        assert all(t > 0 for t in per_layer.values())
        assert predict_model_time(model, x, device=V100) == pytest.approx(sum(per_layer.values()))

    def test_iteration_time_includes_backward(self, rng):
        model = MLP(16, [32], 4)
        x = rng.random((2, 16)).astype(np.float32)
        fwd = predict_model_time(model, x)
        assert predict_iteration_time(model, x) == pytest.approx(3 * fwd)

    def test_batch_scale_increases_time(self, rng):
        model = MLP(16, [32], 4)
        x = rng.random((2, 16)).astype(np.float32)
        assert predict_model_time(model, x, batch_scale=64.0) > predict_model_time(model, x)

    def test_low_rank_layer_priced_as_two_kernels(self, rng):
        model = nn.Sequential(LowRankLinear(64, 64, rank=32))
        x = rng.random((4, 64)).astype(np.float32)
        times = predict_layer_times(model, x, device=V100)
        dense = nn.Sequential(nn.Linear(64, 64))
        dense_times = predict_layer_times(dense, x, device=V100)
        # rank = n/2 means the same FLOPs but one extra kernel launch: not faster.
        assert times["0"] >= dense_times["0"]

    def test_ranks_price_layers_as_a_factorized_copy(self, rng):
        model = MLP(16, [32, 32], 4)
        x = rng.random((2, 16)).astype(np.float32)
        path = model.factorization_candidates()[0]
        shape_only = price_layer_times(model, trace_shapes(model, x), V100, 8.0, ranks={path: 3})
        factorize_model(model, {path: 3})
        assert shape_only == predict_layer_times(model, x, device=V100, batch_scale=8.0)

    def test_rank_for_a_layer_without_factors_raises(self, rng):
        model = nn.Sequential(nn.BatchNorm1d(4))
        traces = trace_shapes(model, rng.random((2, 4)).astype(np.float32))
        with pytest.raises(TypeError, match="factorization of BatchNorm1d"):
            price_layer_times(model, traces, ranks={"0": 2})


class TestWallClockTimers:
    def test_time_callable_returns_positive(self):
        assert time_callable(lambda: sum(range(1000)), iterations=2) > 0

    def test_time_forward_and_training_iteration(self, rng):
        model = MLP(8, [16], 4)
        x = rng.random((4, 8)).astype(np.float32)
        y = np.zeros(4, dtype=np.int64)
        assert time_forward(model, x, iterations=1) > 0
        assert time_training_iteration(model, x, y, iterations=1) > 0
