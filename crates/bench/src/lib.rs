//! # osn-bench
//!
//! Reproduction binaries for every table and figure of the paper's
//! evaluation: `src/bin/repro.rs` is the full reproduction CLI, and the
//! `*_soak` binaries are the CI soak checks.
//!
//! The [`perf`] module backs the `repro perf` subcommand: it measures
//! walker steps/sec per (graph, algorithm, execution path) and records the
//! result to `BENCH_walkers.json`, the committed perf baseline that
//! `scripts/perf_check.sh` diffs against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;
