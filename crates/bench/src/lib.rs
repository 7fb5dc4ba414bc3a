//! # osn-bench
//!
//! Criterion benchmarks and reproduction binaries for every table and figure
//! of the paper's evaluation. See `benches/` for the per-figure benchmark
//! targets and `src/bin/repro.rs` for the full reproduction CLI.
//!
//! The [`perf`] module backs the `repro perf` subcommand: it measures
//! walker steps/sec per (graph, algorithm, execution path) and records the
//! result to `BENCH_walkers.json`, the committed perf baseline that
//! `scripts/perf_check.sh` diffs against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;
