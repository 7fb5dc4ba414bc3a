#!/usr/bin/env bash
# Quick walker-throughput regression check against the committed baseline.
#
# Re-measures the (graph, algorithm, execution path) steps/sec matrix in
# quick mode and diffs it against BENCH_walkers.json. Cells more than 15%
# below the baseline's best rep print a `::warning::` line (rendered as an
# annotation on GitHub Actions). GNRW is called out specifically: the
# plan-over-scratch speedup (plan-backed arena cell vs the per-step
# partition reference cell) is printed for every graph on every run, and
# warns when that within-run ratio falls below the committed baseline's —
# it is the machine-independent signal of the check, and the headline of
# the group-plan fast path.
# The check is NON-BLOCKING by design — CI
# runners are noisy shared machines — so this script always exits 0 when
# the measurement itself succeeds; regenerate the baseline on a quiet
# machine with:
#
#   cargo run --release -p osn-bench --bin repro -- perf --record BENCH_walkers.json
set -uo pipefail
cd "$(dirname "$0")/.."

if [[ ! -f BENCH_walkers.json ]]; then
  echo "::warning::perf: BENCH_walkers.json baseline missing; skipping check"
  exit 0
fi

cargo run --release -p osn-bench --bin repro -- perf --quick --baseline BENCH_walkers.json
