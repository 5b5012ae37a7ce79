"""Suite registry, runner and longitudinal history (repro.bench)."""

import importlib.util
import json
import os

import pytest

from repro.bench.contract import ContractError, MetricSpec, validate_result
from repro.bench.history import append_result, format_history, read_history
from repro.bench.registry import (
    SuiteBudget,
    _REGISTRY,
    available_suites,
    get_suite,
    register_suite,
    suite_descriptions,
)
from repro.bench.runner import RunConfig, format_result_table, run_suite

SPEED = MetricSpec("speed", "ops/s")
LATENCY = MetricSpec("latency", "ms", higher_is_better=False)


@pytest.fixture
def registry():
    """Snapshot/restore the global suite registry around each test."""
    available_suites()  # force the one-shot builtin import before snapshotting
    saved = dict(_REGISTRY)
    try:
        yield _REGISTRY
    finally:
        _REGISTRY.clear()
        _REGISTRY.update(saved)


class TestRegistry:
    def test_register_and_lookup(self, registry):
        @register_suite("toy", "a toy suite", [SPEED], tags=("smoke",))
        def toy(budget):
            return {"speed": 1.0}

        suite = get_suite("toy")
        assert suite.fn is toy
        assert suite.metric("speed").unit == "ops/s"
        assert "toy" in available_suites()
        assert suite_descriptions()["toy"] == "a toy suite"

    def test_duplicate_name_rejected(self, registry):
        register_suite("dup", "first", [SPEED])(lambda budget: {"speed": 1.0})
        with pytest.raises(ValueError, match="already registered"):
            register_suite("dup", "second", [SPEED])(lambda budget: {"speed": 1.0})

    def test_empty_metrics_rejected(self, registry):
        with pytest.raises(ValueError, match="at least one metric"):
            register_suite("bare", "no metrics", [])

    def test_duplicate_metric_rejected(self, registry):
        with pytest.raises(ValueError, match="twice"):
            register_suite("twice", "dup metric", [SPEED, SPEED])

    def test_unknown_suite_lists_available(self, registry):
        with pytest.raises(KeyError, match="unknown benchmark suite"):
            get_suite("no-such-suite")

    def test_builtin_suites_are_discoverable(self):
        names = available_suites()
        for expected in ("throughput", "pipeline", "dataparallel-proc", "serving"):
            assert expected in names

    def test_unknown_metric_lookup_raises(self, registry):
        register_suite("m", "one metric", [SPEED])(lambda budget: {"speed": 1.0})
        with pytest.raises(KeyError, match="declares no metric"):
            get_suite("m").metric("nope")


class TestSuiteBudget:
    def test_explicit_iters_win(self):
        assert SuiteBudget(iters=7).resolve_iters(10, 2) == 7

    def test_tiny_falls_back_to_tiny_default(self):
        assert SuiteBudget(tiny=True).resolve_iters(10, 2) == 2

    def test_full_falls_back_to_full_default(self):
        assert SuiteBudget().resolve_iters(10, 2) == 10


class TestRunner:
    def _register_counting(self, name, values=(10.0, 12.0, 11.0)):
        calls = []

        @register_suite(name, "counting suite", [SPEED, LATENCY],
                        default_backend="numpy")
        def counting(budget):
            calls.append(budget)
            value = values[min(len(calls) - 1, len(values) - 1)]
            return {"speed": value, "latency": 1.0}

        return calls

    def test_warmup_runs_are_discarded(self, registry):
        calls = self._register_counting("count")
        result = run_suite("count", RunConfig(warmup=2, repeat=3))
        assert len(calls) == 5
        # First measured repeat is the third call overall → samples start at
        # values[2], so a warmup-polluted median would differ.
        assert len(result["metrics"]["speed"]["samples"]) == 3

    def test_result_is_schema_valid_and_records_budget(self, registry):
        self._register_counting("budgeted")
        result = run_suite("budgeted",
                           RunConfig(tiny=True, warmup=0, repeat=2, iters=5,
                                     extra_budget={"note": "test"}))
        validate_result(result)
        assert result["budget"] == {"tiny": True, "warmup": 0, "repeat": 2,
                                    "iters": 5, "note": "test"}
        assert result["backend"] == "numpy"

    def test_backend_override_reaches_suite_body(self, registry):
        calls = self._register_counting("backendy")
        run_suite("backendy", RunConfig(warmup=0, repeat=1, backend="custom"))
        assert calls[0].backend == "custom"

    def test_metric_declaration_violation_is_loud(self, registry):
        register_suite("liar", "wrong metrics", [SPEED])(
            lambda budget: {"other": 1.0})
        with pytest.raises(ContractError, match="violated its metric declaration"):
            run_suite("liar", RunConfig(warmup=0, repeat=1))

    def test_progress_callback_sees_every_stage(self, registry):
        self._register_counting("progress")
        stages = []
        run_suite("progress", RunConfig(warmup=1, repeat=2),
                  progress=lambda stage, i, n: stages.append((stage, i, n)))
        assert stages == [("warmup", 0, 1), ("repeat", 0, 2), ("repeat", 1, 2)]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            RunConfig(warmup=-1)
        with pytest.raises(ValueError, match="repeat"):
            RunConfig(repeat=0)

    def test_format_result_table_lists_metrics(self, registry):
        self._register_counting("tabled")
        text = format_result_table(run_suite("tabled", RunConfig(warmup=0, repeat=1)))
        assert "speed" in text and "latency" in text and "↓" in text


class TestHistory:
    def _result(self, suite="demo", value=10.0, commit="cafe1234"):
        from repro.bench.contract import build_result

        return build_result(
            suite, {"speed": {"unit": "ops/s", "higher_is_better": True,
                              "samples": [value]}},
            backend="numpy", budget={"tiny": True}, commit=commit,
            created_unix=1000.0)

    def test_append_is_additive(self, tmp_path):
        store = str(tmp_path / "history.jsonl")
        assert append_result(store, self._result(value=1.0)) == 1
        assert append_result(store, self._result(value=2.0)) == 1
        entries, skipped = read_history(store)
        assert [e["value"] for e in entries] == [1.0, 2.0]
        assert skipped == 0
        assert entries[0]["tiny"] is True

    def test_missing_store_reads_empty(self, tmp_path):
        entries, skipped = read_history(str(tmp_path / "absent.jsonl"))
        assert entries == [] and skipped == 0

    def test_malformed_lines_are_skipped_and_counted(self, tmp_path):
        store = str(tmp_path / "history.jsonl")
        append_result(store, self._result())
        with open(store, "a") as handle:
            handle.write("{broken json\n")
            handle.write(json.dumps({"suite": "demo"}) + "\n")  # no metric/value
        append_result(store, self._result(value=3.0))
        entries, skipped = read_history(store)
        assert len(entries) == 2
        assert skipped == 2

    def test_filters_and_last(self, tmp_path):
        store = str(tmp_path / "history.jsonl")
        for value in (1.0, 2.0, 3.0):
            append_result(store, self._result(suite="a", value=value))
        append_result(store, self._result(suite="b", value=9.0))
        entries, _ = read_history(store, suite="a", last=2)
        assert [e["value"] for e in entries] == [2.0, 3.0]
        entries, _ = read_history(store, metric="speed", suite="b")
        assert [e["value"] for e in entries] == [9.0]

    def test_last_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="last"):
            read_history(str(tmp_path / "h.jsonl"), last=0)

    def test_format_history_renders_rows_and_skips(self, tmp_path):
        store = str(tmp_path / "history.jsonl")
        append_result(store, self._result())
        entries, _ = read_history(store)
        text = format_history(entries, skipped=1)
        assert "cafe1234" in text
        assert "speed" in text
        assert "1 malformed line skipped" in text

    def test_format_history_empty(self):
        assert "no history entries" in format_history([], 0)


class TestBenchmarksCommonReport:
    """Satellite: benchmarks/common.py report() must append, not overwrite."""

    @pytest.fixture
    def common(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "benchmarks", "common.py")
        spec = importlib.util.spec_from_file_location("_bench_common_under_test",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_report_appends_with_timestamped_banner(self, common, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setattr(common, "OUTPUT_DIR", str(tmp_path))
        common.report("demo", "first run")
        common.report("demo", "second run")
        capsys.readouterr()
        text = (tmp_path / "demo.txt").read_text()
        assert text.count("===== demo @ ") == 2
        assert "first run" in text and "second run" in text

    def test_report_writes_contract_twin_when_given(self, common, tmp_path,
                                                    monkeypatch, capsys):
        from repro.bench.contract import build_result, load_result

        monkeypatch.setattr(common, "OUTPUT_DIR", str(tmp_path))
        result = build_result(
            "demo", {"m": {"unit": "x", "higher_is_better": True,
                           "samples": [1.0]}})
        common.report("demo", "with contract", suite_result=result)
        capsys.readouterr()
        loaded = load_result(str(tmp_path / "demo.bench.json"))
        assert loaded["suite"] == "demo"
