//! Walker-throughput measurement behind `repro perf`: the machine-readable
//! perf baseline (`BENCH_walkers.json`) and its regression check.
//!
//! This module times a walker matrix with plain `Instant` timing and
//! records **steps per second** into an [`ExperimentResult`] — one series
//! per `graph/algorithm/path`, one point per repetition — so the numbers
//! can be committed, diffed, and trended across PRs.
//! `scripts/perf_check.sh` re-measures with the same plan and [`compare`]s
//! against the committed baseline, warning (non-blocking) past
//! [`REGRESSION_TOLERANCE`].

use std::sync::Arc;
use std::time::Instant;

use osn_datasets::{facebook_like, gplus_like, Scale};
use osn_experiments::runner::TrialPlan;
use osn_experiments::{Algorithm, ExperimentResult, Series};
use osn_graph::attributes::AttributedGraph;
use osn_walks::Grouping;

/// Relative steps/sec drop beyond which [`compare`] emits a warning.
pub const REGRESSION_TOLERANCE: f64 = 0.15;

/// The two benchmark graphs.
fn bench_graphs() -> [(&'static str, Arc<AttributedGraph>); 2] {
    [
        ("facebook", Arc::new(facebook_like(Scale::Test, 1).network)),
        ("gplus", Arc::new(gplus_like(Scale::Test, 2).network)),
    ]
}

/// Measurement plan for one `repro perf` run.
#[derive(Clone, Copy, Debug)]
pub struct PerfConfig {
    /// Transitions per timed walk.
    pub steps: usize,
    /// Timed repetitions per (graph, algorithm, path) cell; the *best*
    /// rep is what [`compare`] uses (least scheduler noise).
    pub reps: usize,
}

impl PerfConfig {
    /// The plan `repro perf` records and checks with (about 1.5 s): long
    /// enough walks for stable steps/sec, and best of 3 reps, so a check
    /// compares the same statistic the baseline recorded.
    pub fn new() -> Self {
        PerfConfig {
            steps: 200_000,
            reps: 3,
        }
    }
}

impl Default for PerfConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The measured walkers: the history-keeping ones, plus SRW as the
/// no-history reference.
fn algorithms() -> [Algorithm; 4] {
    [
        Algorithm::Srw,
        Algorithm::Cnrw,
        Algorithm::Gnrw(Grouping::by_degree()),
        Algorithm::NbCnrw,
    ]
}

/// Time one trial plan: warm-up walk, then `reps` timed walks, recorded as
/// steps/sec per repetition.
fn time_cell(plan: &TrialPlan, alg: &Algorithm, reps: usize) -> (Vec<f64>, Vec<f64>) {
    // One untimed warm-up walk per cell (page in the snapshot).
    plan.run(alg, 0);
    let mut xs = Vec::with_capacity(reps);
    let mut ys = Vec::with_capacity(reps);
    for rep in 0..reps {
        let started = Instant::now();
        let done = plan.run(alg, rep as u64 + 1).len();
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        xs.push(rep as f64);
        ys.push(done as f64 / secs);
    }
    (xs, ys)
}

/// Run the full matrix and return the recorded steps/sec document: a
/// `graph/ALG/arena` cell per walker, and a `graph/CNRW/compact` cell per
/// graph.
pub fn measure(config: &PerfConfig) -> ExperimentResult {
    let graphs = bench_graphs();
    let mut result = ExperimentResult::new(
        "BENCH_walkers",
        "Walker throughput baseline: steps/sec per graph, algorithm, and execution path",
        "repetition",
        "steps per second",
    )
    .with_note(format!(
        "steps={} reps={}; best rep is the comparison statistic; \
         regression tolerance {:.0}% (scripts/perf_check.sh, non-blocking); \
         GNRW cells read cold edges' partitions from each walker's partition memo",
        config.steps,
        config.reps,
        REGRESSION_TOLERANCE * 100.0
    ));
    for (gname, network) in &graphs {
        for alg in algorithms() {
            let plan = TrialPlan::steps(network.clone(), config.steps);
            let (xs, ys) = time_cell(&plan, &alg, config.reps);
            result = result.with_series(Series::new(
                format!("{gname}/{}/arena", alg.label()),
                xs,
                ys,
            ));
        }
        // The compact-substrate cell: CNRW over the delta-varint snapshot
        // (bit-identical traces to the `/arena` twin above; the gap is
        // decode overhead). Paired with `graph/CNRW/arena` the ratio is
        // machine-independent: both cells come from one run on one host.
        let compact = Arc::new(osn_graph::compact::CompactCsr::from_csr(&network.graph));
        let plan = TrialPlan::from_compact(compact).with_max_steps(config.steps);
        let (xs, ys) = time_cell(&plan, &Algorithm::Cnrw, config.reps);
        result = result.with_series(Series::new(format!("{gname}/CNRW/compact"), xs, ys));
    }
    result
}

/// Best (maximum) steps/sec across a series' repetitions.
fn best(series: &Series) -> f64 {
    series.y.iter().copied().fold(f64::NAN, f64::max)
}

/// Outcome of one baseline comparison.
#[derive(Clone, Debug)]
pub struct PerfDelta {
    /// `graph/ALG/path`.
    pub label: String,
    /// Best steps/sec in the current run.
    pub current: f64,
    /// Best steps/sec in the baseline.
    pub baseline: f64,
    /// `current / baseline - 1` (negative = slower than baseline).
    pub ratio_delta: f64,
    /// Whether the drop exceeds the tolerance.
    pub regressed: bool,
}

/// Diff `current` against `baseline`, flagging cells whose best steps/sec
/// dropped more than `tolerance` (e.g. [`REGRESSION_TOLERANCE`]). Cells
/// present on only one side are skipped — adding or retiring a walker must
/// not trip the check.
pub fn compare(
    current: &ExperimentResult,
    baseline: &ExperimentResult,
    tolerance: f64,
) -> Vec<PerfDelta> {
    let mut deltas = Vec::new();
    for base in &baseline.series {
        let Some(cur) = current.series_by_label(&base.label) else {
            continue;
        };
        let (b, c) = (best(base), best(cur));
        if !(b.is_finite() && c.is_finite()) || b <= 0.0 {
            continue;
        }
        let ratio_delta = c / b - 1.0;
        deltas.push(PerfDelta {
            label: base.label.clone(),
            current: c,
            baseline: b,
            ratio_delta,
            regressed: ratio_delta < -tolerance,
        });
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(label: &str, ys: &[f64]) -> ExperimentResult {
        ExperimentResult::new("BENCH_walkers", "t", "x", "y").with_series(Series::new(
            label,
            (0..ys.len()).map(|i| i as f64).collect(),
            ys.to_vec(),
        ))
    }

    #[test]
    fn quick_measure_records_full_matrix() {
        let result = measure(&PerfConfig {
            steps: 300,
            reps: 1,
        });
        // 2 graphs x (4 walkers + 1 CNRW compact-substrate cell) = 10
        // series.
        assert_eq!(result.series.len(), 10);
        for s in &result.series {
            assert!(best(s) > 0.0, "{} recorded no throughput", s.label);
        }
        for g in ["facebook", "gplus"] {
            assert!(
                result
                    .series_by_label(&format!("{g}/CNRW/compact"))
                    .is_some(),
                "missing {g} compact-substrate series"
            );
        }
        // Round-trips through the JSON the baseline file uses.
        let parsed = ExperimentResult::from_json(&result.to_json()).unwrap();
        assert_eq!(parsed.series.len(), result.series.len());
    }

    #[test]
    fn compare_flags_only_regressions_beyond_tolerance() {
        let baseline = doc("g/CNRW/arena", &[100.0, 120.0]);
        let ok = compare(&doc("g/CNRW/arena", &[110.0]), &baseline, 0.15);
        assert_eq!(ok.len(), 1);
        assert!(!ok[0].regressed, "faster run must not warn");
        let slight = compare(&doc("g/CNRW/arena", &[105.0]), &baseline, 0.15);
        assert!(!slight[0].regressed, "12.5% drop is inside tolerance");
        let bad = compare(&doc("g/CNRW/arena", &[90.0]), &baseline, 0.15);
        assert!(bad[0].regressed, "25% drop must warn");
    }

    #[test]
    fn compare_skips_unmatched_series() {
        let baseline = doc("g/CNRW/arena", &[100.0]);
        let deltas = compare(&doc("g/CNRW/compact", &[10.0]), &baseline, 0.15);
        assert!(deltas.is_empty());
    }
}
