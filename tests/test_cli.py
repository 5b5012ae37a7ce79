"""Command-line interface (repro.cli)."""

import io
import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.train.methods import available_methods


def _run(argv):
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


class TestImport:
    def test_import_leaves_scipy_stats_unloaded(self):
        """scipy.stats costs ~0.4 s to import and only spearman_correlation
        uses it, so a CLI process (``repro serve`` included) must not pay
        for it at start-up."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, repro.cli; print('scipy.stats' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        assert proc.stdout.strip() == "False"


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


class TestProfileCommand:
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

    def test_trace_flag_jsonl_format_by_extension(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        code, _ = self._traced_train(path)
        assert code == 0
        header = json.loads(open(path).readline())
        assert header["schema"] == "repro.telemetry.trace"

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

    def test_trace_export_converts_formats(self, tmp_path):
        src = str(tmp_path / "run.json")
        dst = str(tmp_path / "run.jsonl")
        self._traced_train(src)
        code, out = _run(["trace", "export", src, dst])
        assert code == 0
        assert f"events to {dst}" in out
        from repro.telemetry import tracing

        original, _ = tracing.load_trace(src)
        converted, _ = tracing.load_trace(dst)
        assert len(original) == len(converted)

    def test_trace_summary_missing_file_is_clean_error(self, tmp_path):
        code, out = _run(["trace", "summary", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in out
