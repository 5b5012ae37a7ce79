"""Tests for stable-rank estimation (the heart of Cuttlefish's R selection)."""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    accumulative_rank,
    full_rank_of,
    initial_scale_factor,
    module_rank_estimate,
    module_stable_rank,
    scaled_stable_rank,
    singular_value_cdf,
    singular_values,
    stable_rank,
    weight_to_matrix,
)
from repro.models import build_model


def low_rank_matrix(m, n, r, rng, noise=0.0):
    base = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    if noise:
        base = base + noise * rng.standard_normal((m, n))
    return base


class TestStableRank:
    def test_identity_matrix_has_full_stable_rank(self):
        sigma = singular_values(np.eye(8))
        assert stable_rank(sigma) == pytest.approx(8.0)

    def test_rank_one_matrix(self, rng):
        matrix = np.outer(rng.random(6), rng.random(9))
        assert stable_rank(singular_values(matrix)) == pytest.approx(1.0, abs=1e-6)

    def test_stable_rank_bounded_by_true_rank(self, rng):
        matrix = low_rank_matrix(20, 15, 5, rng)
        sr = stable_rank(singular_values(matrix))
        assert 1.0 <= sr <= 5.0 + 1e-6

    def test_stable_rank_ignores_tiny_singular_values(self, rng):
        matrix = low_rank_matrix(20, 20, 3, rng, noise=1e-4)
        assert stable_rank(singular_values(matrix)) < 4.0

    def test_scale_invariance(self, rng):
        matrix = rng.standard_normal((10, 10))
        sigma = singular_values(matrix)
        sigma_scaled = singular_values(5.0 * matrix)
        assert stable_rank(sigma) == pytest.approx(stable_rank(sigma_scaled), rel=1e-6)

    def test_zero_matrix(self):
        assert stable_rank(singular_values(np.zeros((4, 4)))) == 0.0

    def test_empty_sigma(self):
        assert stable_rank(np.array([])) == 0.0

    def test_singular_values_requires_2d(self):
        with pytest.raises(ValueError):
            singular_values(np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_singular_values_rejects_non_finite(self, bad):
        """A bare LAPACK SVD fails on NaN and returns NaN singular values on
        inf (a silent stable rank of 0); both must raise ValueError first."""
        matrix = np.eye(4)
        matrix[2, 1] = bad
        with pytest.raises(ValueError, match="NaN"):
            singular_values(matrix)

    def test_bit_identical_to_scipy_svdvals_on_resnet_cell_shapes(self, rng):
        """Swapping scipy's ``svdvals`` for numpy's SVD moves no stable rank:
        same bits on every candidate layer of the ResNet-18 x0.125 cell, at
        init and on Gaussian matrices of the same shapes."""
        linalg = pytest.importorskip("scipy.linalg", exc_type=ImportError)
        model = build_model("resnet18", num_classes=10, width_mult=0.125, small_input=True)
        for path in model.factorization_candidates():
            weight = np.asarray(weight_to_matrix(model.get_submodule(path)), dtype=np.float64)
            for matrix in (weight, rng.standard_normal(weight.shape)):
                np.testing.assert_array_equal(singular_values(matrix), linalg.svdvals(matrix))


class TestScaledStableRank:
    def test_scaling_recovers_full_rank_at_init(self, rng):
        matrix = rng.standard_normal((64, 64))
        sigma0 = singular_values(matrix)
        xi = initial_scale_factor(sigma0, 64)
        assert scaled_stable_rank(sigma0, xi) == pytest.approx(64.0, rel=1e-6)

    def test_cap_limits_to_full_rank(self, rng):
        matrix = rng.standard_normal((16, 16))
        sigma = singular_values(matrix)
        assert scaled_stable_rank(sigma, xi=100.0, cap=16) == 16.0

    def test_scaled_larger_than_vanilla(self, rng):
        """ξ ≥ 1 for random init, so scaled stable rank never under-shoots vanilla."""
        matrix = rng.standard_normal((32, 32))
        sigma = singular_values(matrix)
        xi = initial_scale_factor(sigma, 32)
        assert xi >= 1.0
        assert scaled_stable_rank(sigma, xi) >= stable_rank(sigma)

    def test_zero_initial_rank_gives_unit_scale(self):
        assert initial_scale_factor(np.zeros(4), 10) == 1.0


class TestAccumulativeRank:
    def test_uniform_spectrum(self):
        sigma = np.ones(10)
        assert accumulative_rank(sigma, p=0.8) == 8

    def test_concentrated_spectrum(self):
        sigma = np.array([100.0, 1.0, 1.0, 1.0])
        assert accumulative_rank(sigma, p=0.8) == 1

    def test_zero_spectrum(self):
        assert accumulative_rank(np.zeros(5)) == 0

    def test_monotone_in_p(self, rng):
        sigma = np.sort(rng.random(20))[::-1]
        assert accumulative_rank(sigma, 0.5) <= accumulative_rank(sigma, 0.9)

    def test_p_one_is_full_rank(self, rng):
        """The normalised cumsum of ten 0.1s ends just below 1.0."""
        assert accumulative_rank(np.full(10, 0.1), p=1.0) == 10
        for _ in range(50):
            sigma = rng.random(int(rng.integers(1, 64)))
            assert accumulative_rank(sigma, p=1.0) == sigma.size

    @pytest.mark.parametrize("p", [0.0, -0.2, 1.5, float("nan")])
    def test_p_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="0 < p <= 1"):
            accumulative_rank(np.array([3.0, 2.0, 1.0]), p=p)


class TestModuleRankEstimation:
    def test_weight_to_matrix_linear(self):
        layer = nn.Linear(6, 4)
        assert weight_to_matrix(layer).shape == (4, 6)

    def test_weight_to_matrix_conv_unrolls_paper_orientation(self):
        conv = nn.Conv2d(3, 8, 3)
        matrix = weight_to_matrix(conv)
        assert matrix.shape == (3 * 3 * 3, 8)

    def test_weight_to_matrix_rejects_unknown(self):
        with pytest.raises(TypeError):
            weight_to_matrix(nn.ReLU())

    def test_full_rank_of(self):
        assert full_rank_of(nn.Linear(10, 4)) == 4
        assert full_rank_of(nn.Conv2d(3, 64, 3)) == 27

    def test_module_stable_rank_positive(self):
        assert module_stable_rank(nn.Linear(16, 16)) > 1.0

    @pytest.mark.parametrize("mode", ["stable", "scaled_stable", "accumulative",
                                      "scaled_stable_or_accumulative"])
    def test_estimate_modes_within_bounds(self, mode):
        layer = nn.Linear(24, 24)
        estimate = module_rank_estimate(layer, xi=1.3, mode=mode)
        assert 0 < estimate <= 24

    def test_accumulative_estimate_capped_at_full_rank(self, rng):
        layer = nn.Linear(12, 8)
        for _ in range(20):
            layer.weight.data = rng.standard_normal((8, 12)).astype(np.float32)
            assert module_rank_estimate(layer, mode="accumulative", accumulative_p=1.0) == 8.0

    def test_unknown_mode_raises(self):
        with pytest.raises(KeyError):
            module_rank_estimate(nn.Linear(4, 4), mode="spectral")

    def test_transformer_rule_takes_max(self):
        layer = nn.Linear(32, 32)
        scaled = module_rank_estimate(layer, xi=0.01, mode="scaled_stable")
        combined = module_rank_estimate(layer, xi=0.01, mode="scaled_stable_or_accumulative")
        assert combined >= scaled

    def test_trained_low_rank_weight_detected(self, rng):
        """A layer whose weight is genuinely low rank gets a low estimate."""
        layer = nn.Linear(32, 32)
        layer.weight.data = low_rank_matrix(32, 32, 4, rng).astype(np.float32)
        assert module_stable_rank(layer) < 6.0


class TestSingularValueCDF:
    def test_monotone_and_normalised(self, rng):
        cdf = singular_value_cdf(rng.standard_normal((12, 20)))
        assert np.all(np.diff(cdf) >= -1e-9)
        assert cdf[-1] == pytest.approx(1.0)

    def test_low_rank_matrix_has_steep_cdf(self, rng):
        low = singular_value_cdf(low_rank_matrix(30, 30, 2, rng, noise=1e-3))
        full = singular_value_cdf(rng.standard_normal((30, 30)))
        # The low-rank matrix accumulates its mass in far fewer directions.
        assert low[1] > full[1]
