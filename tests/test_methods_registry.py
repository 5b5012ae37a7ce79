"""The unified method registry (repro.train.methods) and the spec-based
experiment runner built on top of it."""

import pytest

from repro.train.experiments import (
    ExperimentSpec,
    VisionExperimentConfig,
    run_experiment,
    run_vision_method,
)
from repro.train.methods import (
    Method,
    MethodResult,
    available_methods,
    build_method,
    method_descriptions,
    register_method,
)

ALL_METHODS = ["cuttlefish", "early_bird", "full_rank", "grasp", "imp",
               "lc", "pufferfish", "si_fd", "xnor"]


def _tiny_config(**overrides):
    defaults = dict(
        task="cifar10_small", model="resnet18", width_mult=0.125,
        epochs=2, batch_size=32, peak_lr=0.2, warmup_epochs=1,
        weight_decay=1e-3, max_batches_per_epoch=2,
    )
    defaults.update(overrides)
    return VisionExperimentConfig(**defaults)


class TestRegistry:
    def test_all_nine_methods_registered(self):
        assert available_methods() == ALL_METHODS

    def test_every_method_has_a_description(self):
        descriptions = method_descriptions()
        assert set(descriptions) == set(ALL_METHODS)
        assert all(descriptions[name] for name in ALL_METHODS)

    def test_the_name_table_names_exactly_the_built_ins(self):
        """Once every built-in is imported, the name table lists exactly the
        registered built-ins, each under the module that registers it."""
        from repro.train import methods as methods_module

        method_descriptions()             # imports every module the table names
        registered = {name: cls.__module__
                      for name, cls in methods_module._METHOD_REGISTRY.items()
                      if cls.__module__.split(".")[0] == "repro"}
        assert methods_module._BUILTIN_METHODS == registered

    def test_build_method_round_trip(self):
        for name in available_methods():
            method = build_method(name)
            assert isinstance(method, Method)
            assert method.name == name

    def test_build_method_rejects_unknown_name(self):
        with pytest.raises(KeyError, match="magic"):
            build_method("magic")

    def test_build_method_rejects_unknown_kwargs(self):
        with pytest.raises(ValueError) as excinfo:
            build_method("cuttlefish", cuttelfish_config=object())
        assert "cuttelfish_config" in str(excinfo.value)
        assert "cuttlefish_config" in str(excinfo.value)  # the accepted spelling is suggested

    def test_register_method_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="full_rank"):
            @register_method("full_rank")
            class Imposter(Method):
                pass

    def test_register_method_rejects_non_method_classes(self):
        with pytest.raises(TypeError):
            register_method("not_a_method")(object)


class TestRunExperiment:
    def test_spec_runs_any_registered_method(self):
        row = run_experiment(ExperimentSpec(method="pufferfish", config=_tiny_config()))
        assert row.method == "pufferfish"
        assert 0 < row.params_fraction < 1.0

    def test_method_kwargs_reach_the_method(self):
        from repro.baselines import PufferfishConfig
        row = run_experiment(ExperimentSpec(
            method="pufferfish", config=_tiny_config(),
            method_kwargs=dict(pufferfish_config=PufferfishConfig(full_rank_epochs=1,
                                                                  rank_ratio=0.125))))
        assert row.extra["switch_epoch"] == 1.0

    def test_unknown_method_kwargs_fail_loudly(self):
        # Regression: the legacy dispatch silently ignored typos after its
        # ``.pop()`` calls; the registry must name the offending keys instead.
        with pytest.raises(ValueError) as excinfo:
            run_vision_method("cuttlefish", _tiny_config(), cuttelfish_config=object())
        assert "cuttelfish_config" in str(excinfo.value)

    def test_unknown_kwargs_fail_before_any_training(self):
        config = _tiny_config()
        with pytest.raises(ValueError):
            run_experiment(ExperimentSpec(method="full_rank", config=config,
                                          method_kwargs={"bogus": 1}))

    def test_legacy_wrapper_matches_spec_runner(self):
        legacy = run_vision_method("si_fd", _tiny_config())
        spec = run_experiment(ExperimentSpec(method="si_fd", config=_tiny_config()))
        assert legacy.params == spec.params
        assert legacy.val_accuracy == pytest.approx(spec.val_accuracy)
        assert legacy.projected_gpu_hours == pytest.approx(spec.projected_gpu_hours)

    def test_custom_registered_method_is_runnable(self):
        # Downstream users can plug a new method into the same harness.
        name = "test_only_noop"
        try:
            @register_method(name)
            class NoOpMethod(Method):
                description = "full-rank training under a different name"
                uses_label_smoothing = True

            row = run_experiment(ExperimentSpec(method=name, config=_tiny_config()))
            assert row.method == name
            assert row.params_fraction == pytest.approx(1.0)
        finally:
            from repro.train import methods as methods_module
            methods_module._METHOD_REGISTRY.pop(name, None)


class TestMethodLifecycleContracts:
    def test_xnor_reports_step_level_binarisation(self):
        config = _tiny_config(epochs=2, max_batches_per_epoch=2)
        row = run_experiment(ExperimentSpec(method="xnor", config=config))
        # 2 epochs x 2 batches, counted through the on_batch_end event.
        assert row.extra["binarized_batches"] == 4.0

    def test_imp_overrides_the_training_loop(self):
        method = build_method("imp")
        assert type(method).execute is not Method.execute

    def test_finalize_returns_method_result(self):
        method = build_method("full_rank")
        assert method.uses_label_smoothing
        assert MethodResult(params=1, accuracy=0.0, wallclock_seconds=0.0,
                            epochs_full=1.0).overhead_multiplier == 1.0
