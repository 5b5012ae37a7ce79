"""Tests for Algorithm 2 (layer-stack profiling / K selection)."""

import numpy as np
import pytest

from repro import nn
from repro.core import profile_layer_stacks, profiler
from repro.core.profiler import _temporarily_factorized
from repro.models import build_model, resnet18
from repro.profiling import CPU, V100, predict_layer_times, trace_shapes


@pytest.fixture(scope="module")
def paper_scale_profile():
    """Roofline profile of a full-width ResNet-18 at the paper's batch size.

    Module-scoped because it is the slowest fixture in the suite and several
    tests only inspect different aspects of the same result.
    """
    model = resnet18(num_classes=10, width_mult=1.0, small_input=True)
    x = np.random.default_rng(0).random((2, 3, 32, 32)).astype(np.float32)
    y = np.zeros(2, dtype=np.int64)
    return profile_layer_stacks(model, model.layer_stack_paths(), (x, y),
                                mode="roofline", device=V100, batch_scale=512.0)


class TestTemporaryFactorization:
    def test_model_restored_after_context(self, rng):
        model = resnet18(num_classes=4, width_mult=0.125)
        paths = model.layer_stack_paths()["layer4"]
        originals = {p: model.get_submodule(p) for p in paths}
        with _temporarily_factorized(model, paths, rank_ratio=0.25):
            assert any(type(model.get_submodule(p)).__name__.startswith("LowRank") for p in paths)
        for path, module in originals.items():
            assert model.get_submodule(path) is module

    def test_model_output_unchanged_after_restore(self, rng):
        model = resnet18(num_classes=4, width_mult=0.125)
        model.eval()
        x = rng.random((1, 3, 16, 16)).astype(np.float32)
        before = model(x).data.copy()
        with _temporarily_factorized(model, model.layer_stack_paths()["layer3"], 0.25):
            pass
        np.testing.assert_allclose(model(x).data, before, atol=1e-6)

    def test_non_factorizable_paths_skipped(self):
        model = resnet18(num_classes=4, width_mult=0.125)
        with _temporarily_factorized(model, ["bn1"], 0.25):
            assert isinstance(model.get_submodule("bn1"), nn.BatchNorm2d)


class TestPaperScaleProfiling:
    def test_first_stack_has_lowest_speedup(self, paper_scale_profile):
        """Figure 4: the first ResNet-18 stack gains the least from factorization."""
        table = paper_scale_profile.speedup_table()
        assert table["layer1"] == min(table.values())

    def test_speedups_increase_with_depth(self, paper_scale_profile):
        table = paper_scale_profile.speedup_table()
        values = [table[f"layer{i}"] for i in range(1, 5)]
        assert all(b >= a - 0.05 for a, b in zip(values, values[1:]))

    def test_first_stack_excluded_at_paper_threshold(self, paper_scale_profile):
        assert "layer1" in paper_scale_profile.skip_stacks
        assert set(paper_scale_profile.factorize_stacks) == {"layer2", "layer3", "layer4"}

    def test_k_hat_counts_leading_full_rank_layers(self, paper_scale_profile):
        skipped = len(paper_scale_profile.skipped_layer_paths)
        assert paper_scale_profile.k_hat == 1 + skipped
        assert paper_scale_profile.k_hat >= 5   # conv1 + the 4 convs of stack 1

    def test_deeper_stacks_beat_threshold(self, paper_scale_profile):
        table = paper_scale_profile.speedup_table()
        assert table["layer4"] > 1.5


def _materialized_stack_times(model, stack_paths, x, rank_ratio, device, batch_scale):
    """The reference the shape-only roofline must match bit for bit: factorize
    each stack for real, trace the model again and price it."""
    times = []
    for paths in stack_paths.values():
        full = predict_layer_times(model, x, device=device, batch_scale=batch_scale)
        with _temporarily_factorized(model, paths, rank_ratio):
            factorized = predict_layer_times(model, x, device=device, batch_scale=batch_scale)
        times.append((sum(full.get(p, 0.0) for p in paths) * (1.0 + 2.0),
                      sum(factorized.get(p, 0.0) for p in paths) * (1.0 + 2.0)))
    return times


class TestShapeOnlyRoofline:
    @pytest.mark.parametrize("arch", ["resnet18", "vgg19"])
    @pytest.mark.parametrize("width, rank_ratio, threshold",
                             [(1.0, 0.25, 1.5), (0.25, 0.5, 1.2), (0.25, 0.125, 3.0)])
    def test_equals_materialized_path(self, arch, width, rank_ratio, threshold):
        model = build_model(arch, num_classes=10, width_mult=width)
        stacks = model.layer_stack_paths()
        x = np.random.default_rng(0).random((2, 3, 32, 32)).astype(np.float32)
        result = profile_layer_stacks(model, stacks, (x, np.zeros(2, dtype=np.int64)),
                                      rank_ratio=rank_ratio, speedup_threshold=threshold,
                                      device=V100, batch_scale=512.0)
        expected = _materialized_stack_times(model, stacks, x, rank_ratio, V100, 512.0)
        assert [(p.full_rank_time, p.factorized_time) for p in result.stack_profiles] == expected

    def test_prices_without_svd(self, svd_calls):
        model = resnet18(num_classes=10, width_mult=0.25, small_input=True)
        x = np.random.default_rng(0).random((2, 3, 32, 32)).astype(np.float32)
        profile_layer_stacks(model, model.layer_stack_paths(), (x, np.zeros(2, dtype=np.int64)),
                             device=V100, batch_scale=512.0)
        assert svd_calls == []

    def test_given_trace_replaces_tracing(self, monkeypatch):
        model = resnet18(num_classes=10, width_mult=0.25, small_input=True)
        x = np.random.default_rng(0).random((2, 3, 32, 32)).astype(np.float32)
        traces = trace_shapes(model, x)
        traced = profile_layer_stacks(model, model.layer_stack_paths(), (x, None),
                                      batch_scale=512.0)

        def no_trace(*args, **kwargs):
            raise AssertionError("traced again")

        monkeypatch.setattr(profiler, "trace_shapes", no_trace)
        given = profile_layer_stacks(model, model.layer_stack_paths(), None,
                                     batch_scale=512.0, traces=traces)
        assert given.stack_profiles == traced.stack_profiles


class TestProfilingMechanics:
    def test_contiguous_prefix_forces_deeper_stacks(self):
        """Once a stack passes, every deeper stack is factorized even if it is slow."""
        model = resnet18(num_classes=4, width_mult=0.125, small_input=True)
        x = np.random.default_rng(0).random((2, 3, 16, 16)).astype(np.float32)
        y = np.zeros(2, dtype=np.int64)
        result = profile_layer_stacks(model, model.layer_stack_paths(), (x, y),
                                      mode="roofline", device=V100, batch_scale=512.0,
                                      speedup_threshold=0.5, contiguous_prefix=True)
        assert result.skip_stacks == []

    def test_independent_mode_judges_each_stack(self):
        model = resnet18(num_classes=4, width_mult=0.125, small_input=True)
        x = np.random.default_rng(0).random((2, 3, 16, 16)).astype(np.float32)
        y = np.zeros(2, dtype=np.int64)
        result = profile_layer_stacks(model, model.layer_stack_paths(), (x, y),
                                      mode="roofline", device=V100,
                                      speedup_threshold=10.0, contiguous_prefix=False)
        assert result.factorize_stacks == []
        assert result.k_hat == 1 + sum(len(v) for v in model.layer_stack_paths().values())

    def test_wallclock_mode_runs(self):
        model = resnet18(num_classes=4, width_mult=0.125, small_input=True)
        x = np.random.default_rng(0).random((2, 3, 16, 16)).astype(np.float32)
        y = np.zeros(2, dtype=np.int64)
        stacks = {"layer4": model.layer_stack_paths()["layer4"]}
        result = profile_layer_stacks(model, stacks, (x, y), mode="wallclock", iterations=1)
        assert result.stack_profiles[0].full_rank_time > 0

    def test_unknown_mode_raises(self):
        model = resnet18(num_classes=4, width_mult=0.125)
        x = np.zeros((1, 3, 16, 16), dtype=np.float32)
        with pytest.raises(KeyError):
            profile_layer_stacks(model, model.layer_stack_paths(), (x, np.zeros(1, dtype=int)),
                                 mode="gpu")

    def test_cpu_device_less_picky_than_gpu(self):
        """On the CPU spec (tiny saturation constants) even the first stack can win."""
        model = resnet18(num_classes=10, width_mult=1.0, small_input=True)
        x = np.random.default_rng(0).random((2, 3, 32, 32)).astype(np.float32)
        y = np.zeros(2, dtype=np.int64)
        stacks = {"layer1": model.layer_stack_paths()["layer1"]}
        cpu = profile_layer_stacks(model, stacks, (x, y), mode="roofline", device=CPU,
                                   batch_scale=512.0)
        gpu = profile_layer_stacks(model, stacks, (x, y), mode="roofline", device=V100,
                                   batch_scale=512.0)
        assert cpu.speedup_table()["layer1"] > gpu.speedup_table()["layer1"]
