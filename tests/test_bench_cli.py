"""CLI surface of the perf-regression harness: repro bench run/compare/history/list."""

import io
import json
import os

import pytest

from repro.bench.contract import MetricSpec, build_result, write_result
from repro.bench.registry import _REGISTRY, available_suites, register_suite
from repro.cli import main


def _run(argv):
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


@pytest.fixture
def dummy_suite():
    """Register a fast synthetic suite; restore the registry afterwards."""
    available_suites()  # force the one-shot builtin import before snapshotting
    saved = dict(_REGISTRY)
    counter = {"calls": 0}

    @register_suite("cli-dummy", "synthetic suite for CLI tests",
                    [MetricSpec("score", "pts")], default_backend="numpy")
    def cli_dummy(budget):
        counter["calls"] += 1
        return {"score": 100.0 + counter["calls"]}

    try:
        yield "cli-dummy"
    finally:
        _REGISTRY.clear()
        _REGISTRY.update(saved)


def _write_doc(path, suite="cli-dummy", value=100.0, **overrides):
    doc = build_result(suite, {"score": {"unit": "pts", "higher_is_better": True,
                                         "samples": [value]}},
                       backend="numpy", commit="feedface")
    doc.update(overrides)
    write_result(str(path), doc)
    return str(path)


class TestBenchList:
    def test_lists_builtin_suites(self):
        code, out = _run(["bench", "list"])
        assert code == 0
        for name in ("throughput", "pipeline", "dataparallel-proc", "serving"):
            assert name in out

    def test_json_includes_metric_declarations(self):
        code, out = _run(["bench", "list", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["serving"]["metrics"][-1]["higher_is_better"] is False


class TestBenchRun:
    def test_run_writes_contract_and_history(self, dummy_suite, tmp_path):
        out_dir = str(tmp_path)
        code, out = _run(["bench", "run", "--suite", dummy_suite,
                          "--out", out_dir, "--warmup", "1", "--repeat", "2"])
        assert code == 0
        doc = json.load(open(os.path.join(out_dir, "cli-dummy.bench.json")))
        assert doc["suite"] == dummy_suite
        assert len(doc["metrics"]["score"]["samples"]) == 2
        history = open(os.path.join(out_dir, "history.jsonl")).read().splitlines()
        assert len(history) == 1
        assert json.loads(history[0])["metric"] == "score"
        assert "score" in out and "wrote" in out

    def test_json_output_is_the_contract(self, dummy_suite, tmp_path):
        code, out = _run(["bench", "run", "--suite", dummy_suite,
                          "--out", str(tmp_path), "--warmup", "0",
                          "--repeat", "1", "--json"])
        assert code == 0
        assert json.loads(out)["schema_version"] == 1

    def test_no_history_skips_the_store(self, dummy_suite, tmp_path):
        code, _ = _run(["bench", "run", "--suite", dummy_suite,
                        "--out", str(tmp_path), "--warmup", "0",
                        "--repeat", "1", "--no-history"])
        assert code == 0
        assert not os.path.exists(os.path.join(str(tmp_path), "history.jsonl"))

    def test_unknown_suite_is_a_usage_error(self, tmp_path):
        code, out = _run(["bench", "run", "--suite", "no-such-suite",
                          "--out", str(tmp_path)])
        assert code == 2
        assert "unknown benchmark suite" in out

    def test_invalid_repeat_is_a_usage_error(self, dummy_suite, tmp_path):
        code, out = _run(["bench", "run", "--suite", dummy_suite,
                          "--out", str(tmp_path), "--repeat", "0"])
        assert code == 2
        assert "repeat" in out


class TestBenchCompare:
    def test_regression_exits_nonzero_with_markdown_table(self, tmp_path):
        base = _write_doc(tmp_path / "base.json", value=100.0)
        cand = _write_doc(tmp_path / "cand.json", value=50.0)
        code, out = _run(["bench", "compare", base, cand,
                          "--noise-threshold", "0.1"])
        assert code == 1
        assert "| metric | base | candidate |" in out
        assert "regressed" in out

    def test_within_noise_exits_zero(self, tmp_path):
        base = _write_doc(tmp_path / "base.json", value=100.0)
        cand = _write_doc(tmp_path / "cand.json", value=104.0)
        code, out = _run(["bench", "compare", base, cand,
                          "--noise-threshold", "0.1"])
        assert code == 0
        assert "within-noise" in out

    def test_improvement_exits_zero(self, tmp_path):
        base = _write_doc(tmp_path / "base.json", value=100.0)
        cand = _write_doc(tmp_path / "cand.json", value=150.0)
        code, out = _run(["bench", "compare", base, cand])
        assert code == 0
        assert "improved" in out

    def test_schema_mismatch_is_a_hard_error(self, tmp_path):
        base = _write_doc(tmp_path / "base.json")
        cand = str(tmp_path / "cand.json")
        doc = json.load(open(base))
        doc["schema_version"] = 999
        json.dump(doc, open(cand, "w"))
        code, out = _run(["bench", "compare", base, cand])
        assert code == 2
        assert "error" in out

    def test_missing_file_is_a_hard_error(self, tmp_path):
        base = _write_doc(tmp_path / "base.json")
        code, out = _run(["bench", "compare", base,
                          str(tmp_path / "absent.json")])
        assert code == 2
        assert "not found" in out

    def test_json_report(self, tmp_path):
        base = _write_doc(tmp_path / "base.json", value=100.0)
        cand = _write_doc(tmp_path / "cand.json", value=50.0)
        code, out = _run(["bench", "compare", base, cand, "--json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["regressed"] == ["score"]
        assert payload["exit_code"] == 1


class TestBenchHistory:
    def _store(self, tmp_path):
        store = str(tmp_path / "history.jsonl")
        from repro.bench.history import append_result

        for value in (1.0, 2.0):
            append_result(store, json.load(open(
                _write_doc(tmp_path / "doc.json", value=value))))
        return store

    def test_history_view(self, tmp_path):
        store = self._store(tmp_path)
        code, out = _run(["bench", "history", "--store", store])
        assert code == 0
        assert "score" in out and "feedface" in out

    def test_history_json_and_filters(self, tmp_path):
        store = self._store(tmp_path)
        code, out = _run(["bench", "history", "--store", store,
                          "--suite", "cli-dummy", "--metric", "score",
                          "--last", "1", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["entries"]) == 1
        assert payload["entries"][0]["value"] == 2.0

    def test_missing_store_is_empty_not_fatal(self, tmp_path):
        code, out = _run(["bench", "history", "--store",
                          str(tmp_path / "none.jsonl")])
        assert code == 0
        assert "no history entries" in out

    def test_bad_last_is_a_usage_error(self, tmp_path):
        code, out = _run(["bench", "history", "--store",
                          str(tmp_path / "none.jsonl"), "--last", "0"])
        assert code == 2
