"""Command-line interface (repro.cli)."""

import argparse
import io
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.cli import COMMANDS, build_parser, main
from repro.core import profile_layer_stacks
from repro.models import build_model
from repro.profiling import get_device
from repro.train.methods import available_methods
from repro.utils import get_rng


def _run(argv):
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


#: Runs three steps in one fresh interpreter and prints, as JSON, the
#: ``scipy`` modules loaded after each, plus how many singular-value-only SVDs
#: (the stable-rank kind) the training run made.
_SCIPY_PROBE = textwrap.dedent("""
    import io, json, sys
    import numpy as np

    svd, stable_rank_svds = np.linalg.svd, []
    def counted_svd(*args, **kwargs):
        if kwargs.get("compute_uv") is False:
            stable_rank_svds.append(1)
        return svd(*args, **kwargs)
    np.linalg.svd = counted_svd

    def scipy_modules():
        return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

    loaded = {}
    import repro.cli
    loaded["import repro.cli"] = scipy_modules()
    import repro.serve.server
    loaded["import repro.serve.server"] = scipy_modules()
    code = repro.cli.main(["train", "--method", "cuttlefish", "--epochs", "2",
                           "--max-batches", "2"], stream=io.StringIO())
    loaded["train --method cuttlefish"] = scipy_modules()
    print(json.dumps({"loaded": loaded, "code": code, "svds": len(stable_rank_svds)}))
""")

#: Runs Cuttlefish through the harness, then builds ``full_rank`` and
#: ``pufferfish``, in one fresh interpreter, and prints, as JSON, the
#: ``repro.baselines`` modules loaded after each.
_BASELINES_PROBE = textwrap.dedent("""
    import json, sys
    from repro.train.experiments import ExperimentSpec, VisionExperimentConfig, run_experiment
    from repro.train.methods import build_method

    def baselines():
        return sorted(name for name in sys.modules if name.split(".")[:2] == ["repro", "baselines"])

    config = VisionExperimentConfig(task="cifar10_small", model="resnet18", width_mult=0.125,
                                    epochs=2, max_batches_per_epoch=2)
    run_experiment(ExperimentSpec(method="cuttlefish", config=config))
    loaded = {"cuttlefish run": baselines()}
    build_method("full_rank")
    loaded["build full_rank"] = baselines()
    built = type(build_method("pufferfish")).__name__
    loaded["build pufferfish"] = baselines()
    print(json.dumps({"loaded": loaded, "pufferfish": built}))
""")


#: Lists the method names, then builds ``pufferfish``, in one fresh
#: interpreter, and prints, as JSON, the names and the ``repro.baselines`` and
#: ``repro.core.cuttlefish`` modules loaded after each step.
_METHOD_TABLE_PROBE = textwrap.dedent("""
    import json, sys
    from repro.train.methods import available_methods, build_method

    def methods():
        return sorted(name for name in sys.modules
                      if name.split(".")[:2] == ["repro", "baselines"]
                      or name == "repro.core.cuttlefish")

    names = available_methods()
    loaded = {"available_methods": methods()}
    build_method("pufferfish")
    loaded["build pufferfish"] = methods()
    print(json.dumps({"names": names, "loaded": loaded}))
""")

#: Builds the CLI parser, parses a ``serve`` command line, loads the artifact
#: it names and starts and closes a process-mode batcher on it, in one fresh
#: interpreter, and prints, as JSON, every ``repro`` and ``numpy.random``
#: module then loaded.
_SERVE_PROBE = textwrap.dedent("""
    import json, sys
    from repro.cli import build_parser
    from repro.serve import BatchingPolicy, DynamicBatcher, load_artifact

    args = build_parser().parse_args(["serve", "--artifact", sys.argv[1],
                                      "--workers", "1", "--mode", "process"])
    batcher = DynamicBatcher(load_artifact(args.artifact), BatchingPolicy(),
                             workers=args.workers, mode=args.mode)
    batcher.close()
    print(json.dumps(sorted(name for name in sys.modules
                            if name.split(".")[0] == "repro"
                            or name.startswith("numpy.random"))))
""")

#: Runs ``profile --model resnet18 --json`` in one fresh interpreter and
#: prints, as JSON, its exit code and every ``numpy.random`` module loaded.
_PROFILE_PROBE = textwrap.dedent("""
    import io, json, sys
    from repro.cli import main

    code = main(["profile", "--model", "resnet18", "--json"], stream=io.StringIO())
    print(json.dumps({"code": code, "loaded": sorted(
        name for name in sys.modules if name.startswith("numpy.random"))}))
""")

#: What serving must not import: the training stack, the client side of
#: serve, every model family but the served one, and a random generator.
_NOT_SERVING = (
    "numpy.random",
    "repro.train", "repro.baselines", "repro.data", "repro.optim", "repro.distributed",
    "repro.compile",
    "repro.core.cuttlefish", "repro.core.profiler", "repro.core.rank_tracker",
    "repro.core.frobenius_decay",
    "repro.serve.client", "repro.serve.loadgen",
    "repro.profiling.flops", "repro.profiling.roofline", "repro.profiling.tracer",
    "repro.profiling.timer", "repro.profiling.counters",
    "repro.models.bert", "repro.models.deit", "repro.models.mlp", "repro.models.resmlp",
    "repro.models.vgg",
)


def _probe(source: str, *args: str):
    """Run ``source`` with ``args`` in a fresh interpreter on this tree; its
    last stdout line, as JSON."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", source, *args],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class TestImport:
    def test_no_scipy_module_is_loaded(self):
        """numpy is the only runtime dependency: importing the CLI, importing
        the server, and a Cuttlefish run that computes stable ranks each leave
        ``sys.modules`` free of scipy (and its second OpenBLAS)."""
        report = _probe(_SCIPY_PROBE)
        assert report["code"] == 0 and report["svds"] > 0
        assert report["loaded"] == {"import repro.cli": [], "import repro.serve.server": [],
                                    "train --method cuttlefish": []}

    def test_a_cuttlefish_run_imports_no_baseline(self):
        """The registry imports the baselines only for a name not registered
        yet: a Cuttlefish run and a full-rank build load none of them, and
        the first baseline built afterwards still resolves."""
        report = _probe(_BASELINES_PROBE)
        assert report["loaded"]["cuttlefish run"] == []
        assert report["loaded"]["build full_rank"] == []
        assert report["pufferfish"] == "PufferfishMethod"
        assert "repro.baselines.pufferfish" in report["loaded"]["build pufferfish"]

    def test_method_names_import_no_method(self):
        """``available_methods`` names the nine built-ins from a table without
        importing any of them, and building one imports that one alone."""
        report = _probe(_METHOD_TABLE_PROBE)
        assert report["names"] == ["cuttlefish", "early_bird", "full_rank", "grasp", "imp",
                                   "lc", "pufferfish", "si_fd", "xnor"]
        assert report["loaded"]["available_methods"] == []
        assert report["loaded"]["build pufferfish"] == ["repro.baselines",
                                                        "repro.baselines.pufferfish"]

    def test_the_serving_path_loads_no_training_module(self, tmp_path):
        """Parsing ``serve``, loading a factorized ResNet artifact and forking
        a process-mode worker load only the serving stack (DESIGN.md §2),
        and the weight-free skeleton never imports ``numpy.random`` (§9.1)."""
        from repro.core import factorize_model, full_rank_of
        from repro.serve import export_artifact

        spec = {"name": "resnet18", "kwargs": {"num_classes": 10, "width_mult": 0.125}}
        model = build_model(spec["name"], **spec["kwargs"])
        ranks = {path: max(1, full_rank_of(model.get_submodule(path)) // 4)
                 for path in model.factorization_candidates() if path.startswith("layer2.")}
        factorize_model(model, ranks, skip_non_reducing=False)
        path = str(tmp_path / "low.npz")
        export_artifact(path, model, model_spec=spec, input_shape=(3, 32, 32))

        loaded = _probe(_SERVE_PROBE, path)
        assert {"repro.core.low_rank_layers", "repro.models.resnet",
                "repro.serve.batcher"} <= set(loaded)
        below = tuple(f"{prefix}." for prefix in _NOT_SERVING)
        assert [name for name in loaded if name in _NOT_SERVING or name.startswith(below)] == []


    def test_profile_draws_no_random_numbers(self):
        """The roofline reads only the probe batch's shape, so ``profile``
        builds it from zeros and never imports ``numpy.random``."""
        assert _probe(_PROFILE_PROBE) == {"code": 0, "loaded": []}


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serving_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["export", "--checkpoint", "c.npz", "--output", "a.npz"])
        assert args.command == "export" and args.model == "resnet18"
        args = parser.parse_args(["serve", "--artifact", "a.npz", "--port", "0"])
        assert args.command == "serve" and args.max_batch_size == 32
        args = parser.parse_args(["bench-serve", "--artifact", "a.npz",
                                  "--transports", "engine"])
        assert args.command == "bench-serve" and args.transports == ["engine"]

    @pytest.mark.parametrize("verb", ["serve", "bench-serve"])
    def test_batching_has_no_wait_flag(self, verb, capsys):
        """Workers dispatch as soon as they are free (DESIGN.md §9.2)."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([verb, "--artifact", "a.npz", "--max-wait-ms", "2"])
        assert excinfo.value.code == 2
        assert "--max-wait-ms" in capsys.readouterr().err

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.command == "train"
        assert args.method == "cuttlefish"
        assert args.task == "cifar10_small"

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--method", "does_not_exist"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--model", "alexnet"])

    def test_compare_accepts_multiple_methods(self):
        args = build_parser().parse_args(["compare", "--methods", "full_rank", "pufferfish"])
        assert args.methods == ["full_rank", "pufferfish"]

    def test_train_accepts_every_registered_method(self):
        for method in available_methods():
            args = build_parser().parse_args(["train", "--method", method])
            assert args.method == method

    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value)
        for command in ("train", "compare")
        for flag in ("--batch-size", "--epochs", "--max-batches", "--world-size")
        for value in ("0", "-1")
    ] + [
        ("rank-trace", flag, value)
        for flag in ("--batch-size", "--epochs") for value in ("0", "-1")
    ] + [("train", "--batch-size", "two")])
    def test_bad_integer_flag_exits_2_before_running(self, command, flag, value,
                                                     monkeypatch, capsys):
        def must_not_run(args, stream):
            raise AssertionError(f"{command} ran with {flag} {value}")

        monkeypatch.setitem(COMMANDS, command, must_not_run)
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, value], stream=io.StringIO())
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["deit_micro", "bert_micro", "mlp"])
    @pytest.mark.parametrize("command", ["train", "compare", "rank-trace", "export"])
    def test_models_the_harness_cannot_build_exit_2(self, command, model,
                                                    monkeypatch, capsys):
        def must_not_run(args, stream):
            raise AssertionError(f"{command} ran with --model {model}")

        monkeypatch.setitem(COMMANDS, command, must_not_run)
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--model", model], stream=io.StringIO())
        assert exit_info.value.code == 2
        assert "argument --model: invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, error", [
        (["trace", "export", "run.json", "run.jsonl"], "invalid choice: 'export'"),
        (["export", "--checkpoint", "c.npz", "--output", "a.npz", "--fuse"],
         "unrecognized arguments: --fuse"),
    ], ids=["trace-export", "export-fuse"])
    def test_removed_verb_and_flag_exit_2(self, argv, error, monkeypatch, capsys):
        def must_not_run(args, stream):
            raise AssertionError(f"{argv[0]} ran")

        monkeypatch.setitem(COMMANDS, argv[0], must_not_run)
        with pytest.raises(SystemExit) as exit_info:
            main(argv, stream=io.StringIO())
        assert exit_info.value.code == 2
        assert error in capsys.readouterr().err

    def test_train_compare_and_rank_trace_offer_the_same_models(self):
        offered = _model_choices("train")
        assert sorted(offered) == ["resnet18", "resnet50", "vgg19", "wide_resnet50_2"]
        assert _model_choices("compare") == _model_choices("rank-trace") == offered
        assert _model_choices("export") == offered

    @pytest.mark.parametrize("flags", [
        ["--prefetch", "2"], ["--loader", "legacy"], ["--loader-workers", "2"],
    ], ids=["prefetch", "loader", "loader-workers"])
    def test_removed_loader_flags_are_argparse_errors(self, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["train", *flags])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestListMethodsCommand:
    def test_table_lists_all_methods(self):
        code, out = _run(["list-methods"])
        assert code == 0
        for method in available_methods():
            assert method in out

    def test_json_maps_names_to_descriptions(self):
        code, out = _run(["list-methods", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == available_methods()
        assert all(isinstance(text, str) and text for text in payload.values())


def _model_choices(command):
    """The ``--model`` choices ``repro <command>`` offers."""
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    parser = commands.choices[command]
    return next(action.choices for action in parser._actions if action.dest == "model")


class TestProfileCommand:
    @pytest.mark.parametrize("model", _model_choices("profile"))
    def test_every_offered_model_profiles(self, model):
        code, out = _run(["profile", "--model", model, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["k_hat"] >= 1 and payload["speedups"]
        assert sorted(payload["factorize_stacks"] + payload["skip_stacks"]) == \
            sorted(payload["speedups"])

    @pytest.mark.parametrize("model, kwargs", [
        ("resnet18", {}), ("vgg19", {}), ("deit_tiny", {"image_size": 32}),
    ], ids=["resnet18", "vgg19", "deit_tiny"])
    def test_json_equals_profiling_a_model_with_real_weights(self, model, kwargs):
        """The command builds weight-free; the roofline reads only shapes, so
        its answer equals Algorithm 2 on the model with drawn weights."""
        code, out = _run(["profile", "--model", model, "--json"])
        assert code == 0
        real = build_model(model, num_classes=10, rng=get_rng(offset=1), **kwargs)
        probe = get_rng(offset=2).standard_normal((2, 3, 32, 32)).astype(np.float32)
        result = profile_layer_stacks(
            real, real.layer_stack_paths(), (probe, np.zeros(2, dtype=np.int64)),
            rank_ratio=0.25, speedup_threshold=1.5, mode="roofline",
            device=get_device("v100"), batch_scale=1024 / 2)
        expected = {"k_hat": result.k_hat, "factorize_stacks": result.factorize_stacks,
                    "skip_stacks": result.skip_stacks, "speedups": result.speedup_table()}
        assert json.loads(out) == json.loads(json.dumps(expected, default=float))

    @pytest.mark.parametrize("flag, value", [
        ("--batch-size", "0"), ("--batch-size", "-4"), ("--image-size", "0"),
        ("--num-classes", "0"), ("--rank-ratio", "0"), ("--rank-ratio", "1.5"),
        ("--rank-ratio", "nan"), ("--speedup-threshold", "0"),
        ("--speedup-threshold", "-1"), ("--device", "h100"),
    ])
    def test_bad_flag_value_is_an_argparse_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["profile", flag, value, "--json"], stream=io.StringIO())
        assert exit_info.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_image_size_the_patch_does_not_divide_is_an_error(self):
        code, out = _run(["profile", "--model", "deit_tiny", "--image-size", "30"])
        assert code == 2
        assert out == "error: image_size 30 not divisible by patch_size 16\n"

    def test_table_output_contains_stacks_and_khat(self):
        code, out = _run(["profile", "--model", "resnet18", "--batch-size", "256"])
        assert code == 0
        assert "layer1" in out and "layer4" in out
        assert "K̂ =" in out

    def test_json_output_is_machine_readable(self):
        code, out = _run(["profile", "--model", "resnet18", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"k_hat", "factorize_stacks", "skip_stacks", "speedups"}
        assert payload["k_hat"] >= 1
        assert set(payload["speedups"]) == {"layer1", "layer2", "layer3", "layer4"}

    def test_cpu_device_accepted(self):
        code, out = _run(["profile", "--model", "resnet18", "--device", "cpu", "--json"])
        assert code == 0
        assert json.loads(out)["k_hat"] >= 1


class TestTrainCommand:
    def test_smoke_full_rank_json_row(self):
        code, out = _run([
            "train", "--method", "full_rank", "--epochs", "1", "--max-batches", "2",
            "--width-mult", "0.125", "--json",
        ])
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1 and rows[0]["method"] == "full_rank"
        assert rows[0]["params"] > 0

    def test_default_train_reports_the_pipeline_split(self):
        code, out = _run([
            "train", "--method", "full_rank", "--epochs", "1", "--max-batches", "2",
            "--width-mult", "0.125",
        ])
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("pipeline:"))
        assert "stall=" in line and "compute=" in line
        assert "prefetch=" not in line and "workers=" not in line

    def test_smoke_cuttlefish_table_row(self):
        code, out = _run([
            "train", "--method", "cuttlefish", "--epochs", "2", "--max-batches", "2",
            "--width-mult", "0.125",
        ])
        assert code == 0
        assert "cuttlefish" in out
        assert "params" in out  # table header

    @pytest.mark.parametrize("model", _model_choices("train"))
    def test_every_offered_model_trains(self, model):
        code, out = _run(["train", "--model", model, "--epochs", "1", "--max-batches", "1",
                          "--json"])
        assert code == 0
        (row,) = json.loads(out)
        assert row["method"] == "cuttlefish" and row["params"] > 0

    @pytest.mark.parametrize("method", sorted(set(available_methods())
                                              - {"full_rank", "cuttlefish"}))
    def test_smoke_every_registered_method(self, method):
        code, out = _run([
            "train", "--method", method, "--epochs", "2", "--max-batches", "2",
            "--width-mult", "0.125", "--json",
        ])
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1 and rows[0]["method"] == method
        assert rows[0]["params"] > 0


class TestCompareCommand:
    def test_compare_emits_one_row_per_method(self):
        code, out = _run([
            "compare", "--methods", "full_rank", "pufferfish", "--epochs", "2",
            "--max-batches", "2", "--width-mult", "0.125", "--json",
        ])
        assert code == 0
        rows = json.loads(out)
        assert [r["method"] for r in rows] == ["full_rank", "pufferfish"]


class TestRankTraceCommand:
    def test_trace_table_lists_candidate_layers(self):
        code, out = _run([
            "rank-trace", "--model", "resnet18", "--epochs", "2", "--width-mult", "0.125",
        ])
        assert code == 0
        assert "layer1.0.conv1" in out
        assert "ep 1" in out or "ep1" in out.replace(" ", "")

    def test_trace_json_has_one_series_per_layer(self):
        code, out = _run([
            "rank-trace", "--model", "resnet18", "--epochs", "2", "--width-mult", "0.125", "--json",
        ])
        assert code == 0
        table = json.loads(out)
        assert all(len(series) == 2 for series in table.values())
        assert all(0.0 < ratio <= 1.0 for series in table.values() for ratio in series)


class TestServingCommands:
    def _train_artifact(self, tmp_path):
        """Train a tiny model and export checkpoint + artifact in one CLI call."""
        checkpoint = str(tmp_path / "ckpt.npz")
        artifact = str(tmp_path / "model.npz")
        code, out = _run([
            "train", "--method", "full_rank", "--epochs", "1", "--max-batches", "2",
            "--width-mult", "0.125", "--save-checkpoint", checkpoint,
            "--export", artifact,
        ])
        assert code == 0
        assert "checkpoint written" in out and "artifact written" in out
        return checkpoint, artifact

    def test_train_exports_checkpoint_and_artifact(self, tmp_path):
        import numpy as np

        from repro.serve import load_artifact
        from repro.utils import read_checkpoint_meta

        checkpoint, artifact = self._train_artifact(tmp_path)
        meta = read_checkpoint_meta(checkpoint)
        assert meta["metadata"]["method"] == "full_rank"
        predictor = load_artifact(artifact)
        assert predictor.input_shape is not None    # recorded from the task spec
        out = predictor(np.zeros((4,) + predictor.input_shape, dtype=np.float32))
        assert out.shape[0] == 4

    def test_export_command_roundtrips_a_checkpoint(self, tmp_path):
        checkpoint, _ = self._train_artifact(tmp_path)
        artifact = str(tmp_path / "exported.npz")
        code, out = _run([
            "export", "--checkpoint", checkpoint, "--output", artifact,
        ])
        assert code == 0
        assert "artifact written" in out

        from repro.serve import read_manifest

        # Builder spec and input shape come from the checkpoint metadata.
        manifest = read_manifest(artifact)
        assert manifest["model"]["name"] == "resnet18"
        assert manifest["input_shape"] == [3, 16, 16]

    @pytest.mark.parametrize("model", ["resnet18", "resnet50", "vgg19", "wide_resnet50_2"])
    def test_export_rebuilds_a_checkpoint_without_a_model_spec(self, tmp_path, model):
        """A checkpoint saved without a builder spec is rebuilt from
        ``--model`` and ``--width-mult``, for every model ``export`` offers."""
        from repro.serve import Predictor, load_artifact
        from repro.utils import save_checkpoint

        small_input = {} if model == "vgg19" else {"small_input": True}
        reference = build_model(model, num_classes=10, width_mult=0.125,
                                rng=get_rng(offset=5), **small_input)
        reference.eval()
        checkpoint = str(tmp_path / "bare.npz")
        artifact = str(tmp_path / "bare-artifact.npz")
        save_checkpoint(checkpoint, reference)
        code, out = _run([
            "export", "--checkpoint", checkpoint, "--output", artifact,
            "--model", model, "--input-shape", "3", "16", "16",
        ])
        assert code == 0
        assert "artifact written" in out
        x = get_rng(offset=6).standard_normal((2, 3, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(load_artifact(artifact)(x), Predictor(reference)(x))

    def test_bench_serve_emits_speedup_json(self, tmp_path):
        _, artifact = self._train_artifact(tmp_path)
        code, out = _run([
            "bench-serve", "--artifact", artifact, "--duration", "0.3",
            "--concurrency", "4", "--transports", "engine",
        ])
        assert code == 0
        payload = json.loads(out)
        engine = payload["transports"]["engine"]
        assert engine["batched"]["requests"] > 0
        assert engine["batch1"]["requests"] > 0
        assert engine["speedup"] > 0.0


class TestTraceFlagAndCommand:
    def _traced_train(self, path):
        return _run([
            "train", "--method", "full_rank", "--epochs", "1", "--max-batches", "2",
            "--width-mult", "0.125", "--trace", path,
        ])

    def test_trace_flag_registered_on_all_four_verbs(self):
        parser = build_parser()
        for argv in (["train", "--trace", "t.json"],
                     ["compare", "--trace", "t.json"],
                     ["serve", "--artifact", "a.npz", "--trace", "t.json"],
                     ["bench-serve", "--artifact", "a.npz", "--trace", "t.json"]):
            assert parser.parse_args(argv).trace == "t.json"

    def test_train_trace_writes_loadable_chrome_trace(self, tmp_path):
        from repro.telemetry import tracing

        path = str(tmp_path / "run.json")
        code, out = self._traced_train(path)
        assert code == 0
        assert f"spans written to {path}" in out
        assert not tracing.enabled()  # the CLI turned recording back off
        events, meta = tracing.load_trace(path)
        assert meta["schema"] == "repro.telemetry.trace"
        names = {ev["name"] for ev in events}
        assert {"step", "forward", "backward", "optimizer", "data_wait"} <= names
        summary = tracing.summarize_trace(events)
        assert summary["coverage"]["fraction"] >= 0.95

    def test_trace_flag_writes_chrome_json_whatever_the_extension(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        code, _ = self._traced_train(path)
        assert code == 0
        with open(path) as handle:
            document = json.load(handle)
        assert document["otherData"]["schema"] == "repro.telemetry.trace"
        assert any(ev["name"] == "step" for ev in document["traceEvents"])

    def test_json_mode_keeps_stdout_machine_readable(self, tmp_path):
        path = str(tmp_path / "run.json")
        code, out = _run([
            "train", "--method", "full_rank", "--epochs", "1", "--max-batches", "2",
            "--width-mult", "0.125", "--trace", path, "--json",
        ])
        assert code == 0
        rows = json.loads(out)  # the trace line went to stderr, not stdout
        assert rows[0]["method"] == "full_rank"

    def test_trace_summary_table(self, tmp_path):
        path = str(tmp_path / "run.json")
        self._traced_train(path)
        code, out = _run(["trace", "summary", path])
        assert code == 0
        assert "step coverage:" in out
        assert "forward" in out and "backward" in out

    def test_trace_summary_json(self, tmp_path):
        path = str(tmp_path / "run.json")
        self._traced_train(path)
        code, out = _run(["trace", "summary", path, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["session"] == "trainer"
        assert payload["summary"]["coverage"]["fraction"] >= 0.95

    def test_trace_summary_missing_file_is_clean_error(self, tmp_path):
        code, out = _run(["trace", "summary", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in out
