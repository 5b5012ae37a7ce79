"""The shared experiment harness behind the benchmark tables
(repro.train.experiments), exercised at smoke-test scale."""

import contextlib

import numpy as np
import pytest

from repro import nn
from repro.core import factorize_model, full_rank_of
from repro.profiling import predict_iteration_time
from repro.tensor import use_backend
from repro.tensor.backend import NumpyFastBackend
from repro.train import experiments
from repro.train.experiments import (
    VisionExperimentConfig,
    format_rows,
    projected_training_hours,
    reference_profiling,
    run_vision_method,
)


def _tiny_config(**overrides):
    defaults = dict(
        task="cifar10_small", model="resnet18", width_mult=0.125,
        epochs=2, batch_size=32, peak_lr=0.2, warmup_epochs=1,
        weight_decay=1e-3, max_batches_per_epoch=2,
    )
    defaults.update(overrides)
    return VisionExperimentConfig(**defaults)


class TestRunVisionMethod:
    def test_pufferfish_row_reports_compression(self):
        row = run_vision_method("pufferfish", _tiny_config())
        assert row.method == "pufferfish"
        assert 0 < row.params_fraction < 1.0
        assert row.extra["switch_epoch"] >= 1

    def test_si_fd_row_trains_factorized_from_scratch(self):
        row = run_vision_method("si_fd", _tiny_config())
        assert row.params_fraction < 1.0
        assert row.wallclock_seconds > 0

    def test_xnor_row_reports_bit_compression(self):
        row = run_vision_method("xnor", _tiny_config())
        assert row.params_fraction == pytest.approx(1 / 32)
        assert row.speedup_vs_full_rank < 1.0   # binarisation overhead

    def test_grasp_row_reports_sparsity(self):
        row = run_vision_method("grasp", _tiny_config())
        assert 0 < row.extra["sparsity"] < 1
        assert row.params < 176012              # fewer effective params than dense

    def test_unknown_method_raises(self):
        with pytest.raises(KeyError):
            run_vision_method("magic", _tiny_config())

    def test_rows_share_the_same_budget(self):
        full = run_vision_method("full_rank", _tiny_config())
        cuttle = run_vision_method("cuttlefish", _tiny_config())
        # Same full-rank architecture at the start ⇒ identical baseline size.
        assert full.params == pytest.approx(cuttle.params / cuttle.params_fraction, rel=1e-6)


class TestProjectedTime:
    def test_projection_monotone_in_epochs(self):
        config = _tiny_config()
        short = projected_training_hours(config, 4, None, epochs_full=2, epochs_low=0)
        long = projected_training_hours(config, 4, None, epochs_full=4, epochs_low=0)
        assert long > short

    def test_low_rank_epochs_cheaper_than_full_rank_epochs(self):
        config = _tiny_config()
        ratios = {"layer3.0.conv1": 0.25, "layer3.0.conv2": 0.25,
                  "layer4.0.conv1": 0.25, "layer4.0.conv2": 0.25,
                  "layer4.1.conv1": 0.25, "layer4.1.conv2": 0.25}
        all_full = projected_training_hours(config, 4, ratios, epochs_full=4, epochs_low=0)
        half_low = projected_training_hours(config, 4, ratios, epochs_full=2, epochs_low=2)
        assert half_low < all_full

    def test_overhead_multiplier_scales_linearly(self):
        config = _tiny_config()
        base = projected_training_hours(config, 4, None, 2, 0)
        doubled = projected_training_hours(config, 4, None, 2, 0, overhead_multiplier=2.0)
        assert doubled == pytest.approx(2 * base, rel=1e-9)

    @pytest.mark.parametrize("ratios", [
        None,
        {"layer3.1.conv2": 0.3, "layer4.0.conv1": 0.2, "layer4.1.conv2": 0.45,
         "layer4.0.downsample.0": 0.5, "no.such.layer": 0.5},
        {"layer1.0.conv1": 1.0, "layer4.1.conv2": 1.0},
    ], ids=["none", "partial", "all-full-rank"])
    def test_equals_materialized_projection(self, ratios):
        """Pricing from the shape trace equals factorizing a reference copy
        and tracing it again, bit for bit."""
        config = _tiny_config()
        reference = experiments._build_model(config, 10, width_mult=config.reference_width_mult)
        example = experiments._reference_input(config)
        batch_scale = config.paper_batch_size / config.reference_batch
        full = predict_iteration_time(reference, example, device=config.device,
                                      batch_scale=batch_scale)
        low = full
        if ratios:
            factorize_model(reference, {
                path: max(1, int(round(full_rank_of(reference.get_submodule(path)) * ratio)))
                for path, ratio in ratios.items() if path != "no.such.layer"})
            low = predict_iteration_time(reference, example, device=config.device,
                                         batch_scale=batch_scale)
        seconds = config.paper_steps_per_epoch * (3.0 * full + 5.0 * low)
        expected = 1.5 * seconds / 3600.0
        assert projected_training_hours(config, 10, ratios, 3.0, 5.0, 1.5) == expected

    def test_profiling_and_projection_share_one_build_and_run_no_svd(self, monkeypatch,
                                                                     svd_calls):
        monkeypatch.setattr(experiments, "_REFERENCE_PROFILE_CACHE", {})
        monkeypatch.setattr(experiments, "_REFERENCE_TRACE", {})
        builds = []
        build = experiments._build_model

        def counted_build(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(experiments, "_build_model", counted_build)
        ratios = {"layer3.0.conv1": 0.25, "layer4.1.conv2": 0.125}
        assert reference_profiling(_tiny_config(), num_classes=10) is not None
        projected_training_hours(_tiny_config(), 10, ratios, 2, 2)
        projected_training_hours(_tiny_config(), 10, None, 4, 0)
        # Seed, rho-bar and upsilon fix no shape: the same reference serves them.
        reference_profiling(_tiny_config(seed=3, profile_rank_ratio=0.5), num_classes=10)
        assert len(builds) == 1
        assert svd_calls == []


class TestWeightFreeReference:
    """The reference is built inside ``nn.init.shapes_only``: no weight is
    drawn, and every price equals one taken from a reference with real
    weights."""

    @pytest.fixture(autouse=True)
    def _fresh_caches(self, monkeypatch):
        monkeypatch.setattr(experiments, "_REFERENCE_TRACE", {})
        monkeypatch.setattr(experiments, "_REFERENCE_PROFILE_CACHE", {})

    @staticmethod
    def _price(config, ratios):
        experiments._REFERENCE_TRACE.clear()
        experiments._REFERENCE_PROFILE_CACHE.clear()
        decision = reference_profiling(config, num_classes=10)
        hours = projected_training_hours(config, 10, ratios, 2.0, 3.0)
        (reference, _), = experiments._REFERENCE_TRACE.values()
        return decision, hours, reference

    @staticmethod
    def _layer_weights(model):
        return [module.weight.data for module in model.modules()
                if isinstance(module, (nn.Conv2d, nn.Linear))]

    def test_cached_reference_holds_no_drawn_weight(self):
        *_, reference = self._price(_tiny_config(), None)
        for name, param in reference.named_parameters():
            owner = reference.get_submodule(name.rpartition(".")[0])
            # BatchNorm scales start at one without a draw; everything else is zero.
            drawn = not (isinstance(owner, nn.BatchNorm2d) and name.endswith(".weight"))
            assert np.all(param.data == (0.0 if drawn else 1.0)), name

    @pytest.mark.parametrize("model", ["resnet18", "vgg19"])
    def test_prices_equal_a_reference_with_real_weights(self, monkeypatch, model):
        config = _tiny_config(model=model, reference_width_mult=0.25)
        candidates = experiments._build_model(config, 10).factorization_candidates()
        ratios = {path: (0.1, 0.25, 0.5)[i % 3] for i, path in enumerate(candidates)}
        decision, hours, weight_free = self._price(config, ratios)
        monkeypatch.setattr(nn.init, "shapes_only", contextlib.nullcontext)
        real_decision, real_hours, real = self._price(config, ratios)
        assert not any(weight.any() for weight in self._layer_weights(weight_free))
        assert all(weight.any() for weight in self._layer_weights(real))
        assert decision == real_decision
        assert hours == real_hours

    def test_reference_trace_runs_no_gemm(self, monkeypatch):
        """The width-1.0 ResNet-18's 20 convolutions and its classifier are
        shaped from their attributes: the backend instance the trace runs on
        counts no conv2d and no linear_act call (an executed trace counts 20
        and 1, 2.2 GFLOP)."""
        trace_backends = []

        def recording_use_backend(backend):
            trace_backends.append(backend)
            return use_backend(backend)

        monkeypatch.setattr(experiments, "use_backend", recording_use_backend)
        with use_backend(NumpyFastBackend()):
            self._price(_tiny_config(), None)
        (traced_on,) = trace_backends
        assert isinstance(traced_on, NumpyFastBackend)
        counts = traced_on.counters()
        assert "conv2d" not in counts and "linear_act" not in counts
        (_, traces), = experiments._REFERENCE_TRACE.values()
        types = [trace.module_type for trace in traces.values()]
        assert types.count("Conv2d") == 20 and types.count("Linear") == 1

    def test_trace_leaves_the_active_arena_alone(self, monkeypatch):
        """The trace runs on a fresh instance of the active backend's class,
        so the training arena holds the same buffers before and after, and
        K-hat and the prices equal a trace on the active backend itself."""
        config = _tiny_config()
        ratios = {"layer3.0.conv1": 0.25, "layer4.1.conv2": 0.125}

        def pooled(be):
            return {key: [id(buf) for buf in bucket] for key, bucket in be._arena.items()}

        with use_backend(NumpyFastBackend()) as active:
            active.give(np.empty((8, 4), dtype=np.float32))
            before = pooled(active)
            decision, hours, _ = self._price(config, ratios)
            assert pooled(active) == before
            monkeypatch.setattr(experiments, "use_backend",
                                lambda backend: contextlib.nullcontext())
            on_active = self._price(config, ratios)
            assert pooled(active) != before
        assert (decision, hours) == on_active[:2]


class TestReferenceProfiling:
    def test_reference_decision_skips_first_stack(self):
        """At paper width and batch 1024, Algorithm 2 keeps the first ResNet stack full rank."""
        result = reference_profiling(_tiny_config(), num_classes=10)
        assert result is not None
        assert "layer1" in result.skip_stacks
        assert set(result.factorize_stacks) >= {"layer3", "layer4"}

    def test_reference_decision_is_memoised(self):
        config = _tiny_config()
        first = reference_profiling(config, num_classes=10)
        second = reference_profiling(config, num_classes=10)
        assert first is second

    def test_cache_distinguishes_probe_rank_ratio_and_threshold(self):
        """Ablations that vary rho-bar / upsilon must not reuse a stale K decision."""
        base = reference_profiling(_tiny_config(), num_classes=10)
        other_ratio = reference_profiling(_tiny_config(profile_rank_ratio=0.5), num_classes=10)
        other_threshold = reference_profiling(
            _tiny_config(profile_speedup_threshold=4.0), num_classes=10)
        assert other_ratio is not base
        assert other_threshold is not base
        # A stricter threshold can only shrink the set of factorized stacks.
        assert set(other_threshold.factorize_stacks) <= set(base.factorize_stacks)


class TestConfig:
    def test_build_task_returns_pipeline_loaders(self):
        from repro.data import PipelineLoader

        train_loader, val_loader, spec = experiments._build_task(VisionExperimentConfig())
        assert isinstance(train_loader, PipelineLoader)
        assert isinstance(val_loader, PipelineLoader)
        assert spec.num_classes > 0

    @pytest.mark.parametrize("overrides", [
        {"loader": "legacy"}, {"loader": "auto"}, {"world_size": 0},
        {"dp_mode": "fiber"},
    ], ids=["loader-legacy", "loader-auto", "world-size-0", "dp-mode-fiber"])
    def test_invalid_config_raises_at_construction(self, overrides):
        with pytest.raises(ValueError, match=next(iter(overrides))):
            VisionExperimentConfig(**overrides)


class TestFormatting:
    def test_format_rows_contains_headers_and_methods(self):
        row = run_vision_method("full_rank", _tiny_config())
        text = format_rows([row])
        assert "method" in text and "full_rank" in text
        assert "params" in text and "speedup" in text
