"""Unified perf-regression harness (DESIGN.md §12).

Layers:

* :mod:`repro.bench.contract`  — the versioned JSON results contract;
* :mod:`repro.bench.registry`  — ``@register_suite`` + discovery;
* :mod:`repro.bench.runner`    — warmup/iters/repeat execution + noise summary;
* :mod:`repro.bench.compare`   — noise-aware base-vs-candidate verdicts;
* :mod:`repro.bench.history`   — append-only longitudinal JSONL store;
* :mod:`repro.bench.workloads` — measurement bodies shared with the
  standalone ``benchmarks/bench_*.py`` scripts;
* :mod:`repro.bench.suites`    — the built-in throughput / pipeline /
  dataparallel-proc / serving suites (imported lazily on first registry
  access);
* :mod:`repro.bench.script_utils` — shared flags + emission for the scripts.

Driven by the ``repro bench run|compare|history|list`` CLI verbs.
"""

from repro.bench.contract import (
    SCHEMA_VERSION,
    ContractError,
    MetricSpec,
    build_result,
    git_commit,
    host_fingerprint,
    load_result,
    summarize_samples,
    validate_result,
    write_result,
)
from repro.bench.registry import (
    Suite,
    SuiteBudget,
    available_suites,
    get_suite,
    register_suite,
    suite_descriptions,
)
from repro.bench.runner import RunConfig, format_result_table, run_suite
from repro.bench.compare import (
    CompareError,
    CompareReport,
    MetricVerdict,
    classify_metric,
    compare_results,
    format_markdown,
)
from repro.bench.history import (
    DEFAULT_STORE,
    append_result,
    format_history,
    read_history,
)
from repro.bench.script_utils import add_standard_flags, emit_script_result

__all__ = [
    "SCHEMA_VERSION",
    "ContractError",
    "MetricSpec",
    "build_result",
    "git_commit",
    "host_fingerprint",
    "load_result",
    "summarize_samples",
    "validate_result",
    "write_result",
    "Suite",
    "SuiteBudget",
    "available_suites",
    "get_suite",
    "register_suite",
    "suite_descriptions",
    "RunConfig",
    "format_result_table",
    "run_suite",
    "CompareError",
    "CompareReport",
    "MetricVerdict",
    "classify_metric",
    "compare_results",
    "format_markdown",
    "DEFAULT_STORE",
    "append_result",
    "format_history",
    "read_history",
    "add_standard_flags",
    "emit_script_result",
]
