#!/usr/bin/env bash
# Branch-vs-branch perf compare (ROADMAP item 4's driver, modeled on
# delta-rs-benchmarking's compare_branch.sh).
#
# Runs the requested repro.bench suites twice — once in a detached git
# worktree at --base-ref, once in the current working tree — and prints the
# noise-aware verdict table per suite via `repro bench compare`.  Exits
# nonzero if any suite regressed past the noise threshold (or errored).
#
# Usage:
#   benchmarks/compare_branch.sh [--base-ref REF] [--suites "a b c"]
#                                [--full] [--warmup N] [--repeat N]
#                                [--noise-threshold FRAC] [--keep-worktree]
#
# Defaults: base-ref HEAD~1, tiny budget, warmup 1, repeat 3, threshold 0.1,
# suites "throughput pipeline dataparallel-proc serving".
set -euo pipefail

BASE_REF="HEAD~1"
SUITES="throughput pipeline dataparallel-proc serving"
TINY="--tiny"
WARMUP=1
REPEAT=3
NOISE=0.1
KEEP_WORKTREE=0

while [[ $# -gt 0 ]]; do
    case "$1" in
        --base-ref) BASE_REF="$2"; shift 2 ;;
        --suites) SUITES="$2"; shift 2 ;;
        --full) TINY=""; shift ;;
        --warmup) WARMUP="$2"; shift 2 ;;
        --repeat) REPEAT="$2"; shift 2 ;;
        --noise-threshold) NOISE="$2"; shift 2 ;;
        --keep-worktree) KEEP_WORKTREE=1; shift ;;
        -h|--help) sed -n '2,16p' "$0"; exit 0 ;;
        *) echo "unknown flag: $1" >&2; exit 2 ;;
    esac
done

REPO_ROOT="$(git rev-parse --show-toplevel)"
BASE_SHA="$(git -C "$REPO_ROOT" rev-parse --short "$BASE_REF")"
WORKDIR="$(mktemp -d "${TMPDIR:-/tmp}/compare-branch.XXXXXX")"
BASE_TREE="$WORKDIR/base"
OUT="$WORKDIR/results"
mkdir -p "$OUT"

cleanup() {
    if [[ "$KEEP_WORKTREE" -eq 0 ]]; then
        git -C "$REPO_ROOT" worktree remove --force "$BASE_TREE" 2>/dev/null || true
        rm -rf "$WORKDIR"
    else
        echo "kept worktree: $BASE_TREE (results in $OUT)"
    fi
}
trap cleanup EXIT

echo "== compare_branch: base=$BASE_REF ($BASE_SHA) vs working tree =="
git -C "$REPO_ROOT" worktree add --detach "$BASE_TREE" "$BASE_REF" >/dev/null

run_suite() {
    # run_suite <tree> <suite> <out.json>; nonzero if the ref can't run it.
    local tree="$1" suite="$2" out="$3"
    (cd "$tree" && PYTHONPATH=src python -m repro.cli bench run \
        --suite "$suite" $TINY --warmup "$WARMUP" --repeat "$REPEAT" \
        --json-path "$out" --no-history >/dev/null)
}

FAILED=0
SKIPPED=()
for suite in $SUITES; do
    echo
    echo "== suite: $suite =="
    if ! run_suite "$BASE_TREE" "$suite" "$OUT/base-$suite.json"; then
        echo "suite '$suite' does not run at $BASE_REF (predates it?); skipping"
        SKIPPED+=("$suite")
        continue
    fi
    run_suite "$REPO_ROOT" "$suite" "$OUT/cand-$suite.json"
    if ! (cd "$REPO_ROOT" && PYTHONPATH=src python -m repro.cli bench compare \
            "$OUT/base-$suite.json" "$OUT/cand-$suite.json" \
            --noise-threshold "$NOISE"); then
        FAILED=1
    fi
done

echo
if [[ ${#SKIPPED[@]} -gt 0 ]]; then
    echo "skipped (not runnable at base): ${SKIPPED[*]}"
fi
if [[ "$FAILED" -ne 0 ]]; then
    echo "RESULT: regression past the ${NOISE} noise threshold"
    exit 1
fi
echo "RESULT: no regressions past the ${NOISE} noise threshold"
