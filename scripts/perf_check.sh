#!/usr/bin/env bash
# Quick walker-throughput regression check against the committed baseline.
#
# Re-measures the (graph, algorithm, execution path) steps/sec matrix with
# the settings the baseline was recorded with (best of 3 reps per cell,
# about 1.5 s) and diffs it against BENCH_walkers.json. Cells more than 15%
# below the baseline's best rep print a `::warning::` line (rendered as an
# annotation on GitHub Actions). Absolute steps/sec mostly measures the
# host, so a run on another machine class can warn on every cell.
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

cargo run --release -p osn-bench --bin repro -- perf --baseline BENCH_walkers.json
