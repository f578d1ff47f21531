#!/usr/bin/env bash
# Runs the Datalog-relevant benchmarks and assembles BENCH_datalog.json at
# the repository root: one entry per benchmark with the median ns/iter, for
# the `datalog_engine` (scan vs indexed before/after, plus warm-plan runs),
# `nl_vs_ptime`, `certainty_scaling`, `session_batch` (warm sessions vs
# cold per-call dispatch, including a 4-thread batch fan-out),
# `session_cow` (copy-on-write shared-prefix families vs fresh-load,
# store-build amortization isolated), `demand_transform` (demand-driven
# derivation off vs magic on goal-sparse, route-level and family
# workloads), `binary_kernels` (shape-specialized kernels off vs on over
# tc chains, the warm RRX route and shared-prefix family batches) and
# `incremental` (checkpointed base derivation vs from-scratch on warm
# resident-family batches and live mutate-requery loops) suites. End-to-end
# serving throughput, queue-wait vs service time and the trace-knob
# overhead (`obs.trace_overhead_pct`) are measured by perfbench instead
# (see BENCHMARK.json).
# Before overwriting BENCH_datalog.json, fresh medians are diffed against the
# checked-in baseline with per-entry ratios, so regressions are visible in
# the run's own output instead of only in the git diff.
# Future PRs re-run this script to extend the perf trajectory; the 4-thread
# batch fan-out entries are only comparable against same-host baselines.
#
# Usage: scripts/bench_datalog.sh
# Knobs: CQA_BENCH_TARGET_MS (per-benchmark budget, default 300),
#        CQA_BENCH_MAX_FACTS / CQA_BENCH_SCAN_CUTOFF (instance-size caps,
#        used by the CI smoke job to stay at ~10^3 facts).

set -euo pipefail
cd "$(dirname "$0")/.."

# Absolute path: cargo runs bench binaries with their package directory as
# cwd, so a relative path would land inside crates/bench/.
jsonl="$(pwd)/target/bench_datalog.jsonl"
mkdir -p target
rm -f "$jsonl"

CQA_BENCH_JSON="$jsonl" cargo bench -p cqa-bench \
    --bench datalog_engine \
    --bench nl_vs_ptime \
    --bench certainty_scaling \
    --bench session_batch \
    --bench session_cow \
    --bench demand_transform \
    --bench binary_kernels \
    --bench incremental

# Per-entry ratio diff against the checked-in baseline (fresh/baseline: < 1
# is faster, > 1 slower). New entries print "(new)"; nothing fails here —
# the numbers are for the operator re-anchoring the baseline.
if [ -f BENCH_datalog.json ]; then
    echo "--- vs checked-in BENCH_datalog.json (fresh/baseline) ---"
    python3 - "$jsonl" <<'EOF'
import json, sys
fresh = [json.loads(line) for line in open(sys.argv[1])]
baseline = {
    (b["group"], b["id"]): b["median_ns"]
    for b in json.load(open("BENCH_datalog.json"))["benches"]
}
for b in fresh:
    key = (b["group"], b["id"])
    name = f'{b["group"]}/{b["id"]}'
    if key in baseline and baseline[key] > 0:
        print(f'  {name}: {b["median_ns"] / baseline[key]:.2f}x')
    else:
        print(f'  {name}: (new)')
EOF
fi

rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
{
    echo '{'
    echo "  \"revision\": \"${rev}\","
    echo '  "unit": "median_ns_per_iter",'
    echo '  "benches": ['
    sed 's/^/    /' "$jsonl" | sed '$!s/$/,/'
    echo '  ]'
    echo '}'
} > BENCH_datalog.json

echo "wrote BENCH_datalog.json ($(grep -c median_ns "$jsonl") benchmarks, revision ${rev})"
