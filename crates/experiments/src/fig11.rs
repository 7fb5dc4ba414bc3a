//! Figure 11 — barbell graphs of varying size (paper: 20–56 nodes): KL
//! divergence, ℓ2 distance and relative error **vs graph size** at a fixed
//! query budget, for SRW / CNRW / GNRW.
//!
//! The barbell is *asymmetric*: the left bell stays at [`LEFT_BELL`] nodes
//! while the right bell grows with the sweep. A symmetric barbell is
//! near-regular, which makes the average-degree aggregate trivially easy at
//! any budget; with asymmetric bells the degree distribution is bimodal and
//! a walk trapped in one bell reports that bell's mode — precisely the
//! failure Figure 11 charts against graph size.

use std::sync::Arc;

use osn_datasets::barbell_graph_sized;
use osn_estimate::estimators::RatioEstimator;
use osn_estimate::metrics::{l2_distance, relative_error, symmetric_kl, EmpiricalDistribution};
use osn_walks::Grouping;

use crate::algorithms::Algorithm;
use crate::output::{ExperimentResult, Series};
use crate::runner::{parallel_map, trial_seed, TrialPlan};

/// Fixed size of the left bell across the sweep.
pub const LEFT_BELL: usize = 10;

/// Configuration for the Figure 11 reproduction.
#[derive(Clone, Debug)]
pub struct Fig11Config {
    /// Total barbell sizes to sweep (paper: 20..=56).
    pub sizes: Vec<usize>,
    /// Fixed unique-query budget per walk.
    pub budget: u64,
    /// Trials per (algorithm, size) point.
    pub trials: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for Fig11Config {
    fn default() -> Self {
        Fig11Config {
            sizes: (5..=14).map(|i| i * 4).collect(), // 20, 24, ..., 56
            // Below the smallest graph size: the sweep then measures how
            // sampling difficulty grows with the graph (paper Figure 11);
            // a budget above the node count covers every node and collapses
            // all metrics to ~0 for every walker.
            budget: 25,
            trials: 1200,
            seed: 0x000F_1611,
            threads: crate::runner::default_threads(),
        }
    }
}

impl Fig11Config {
    /// Reduced profile for CI and quick runs.
    pub fn quick() -> Self {
        Fig11Config {
            sizes: vec![20, 40],
            budget: 15,
            trials: 24,
            seed: 0x000F_1611,
            threads: crate::runner::default_threads(),
        }
    }
}

/// The three panels of Figure 11.
pub struct Fig11Results {
    /// 11a: KL divergence vs graph size.
    pub kl: ExperimentResult,
    /// 11b: ℓ2 distance vs graph size.
    pub l2: ExperimentResult,
    /// 11c: relative error vs graph size.
    pub error: ExperimentResult,
}

/// Run all three panels.
pub fn run(config: &Fig11Config) -> Fig11Results {
    let algorithms = vec![
        Algorithm::Srw,
        Algorithm::Cnrw,
        Algorithm::Gnrw(Grouping::by_degree()),
    ];
    let xs: Vec<f64> = config.sizes.iter().map(|&s| s as f64).collect();

    let mut kl_panel = ExperimentResult::new(
        "fig11a",
        "Barbell graphs: KL divergence vs size",
        "Graph size",
        "KL-Divergence",
    );
    let mut l2_panel = ExperimentResult::new(
        "fig11b",
        "Barbell graphs: l2 distance vs size",
        "Graph size",
        "2-Norm Distance",
    );
    let mut error_panel = ExperimentResult::new(
        "fig11c",
        "Barbell graphs: relative error vs size",
        "Graph size",
        "Relative Error",
    );
    let note = format!(
        "budget {} unique queries, {} trials/point; barbell split 10 + (size-10)",
        config.budget, config.trials
    );
    kl_panel.notes.push(note.clone());
    l2_panel.notes.push(note.clone());
    error_panel.notes.push(note);

    for alg in &algorithms {
        let mut kl_y = Vec::with_capacity(config.sizes.len());
        let mut l2_y = Vec::with_capacity(config.sizes.len());
        let mut err_y = Vec::with_capacity(config.sizes.len());
        for &size in &config.sizes {
            let dataset = barbell_graph_sized(LEFT_BELL, size - LEFT_BELL);
            let network = Arc::new(dataset.network);
            let n = network.graph.node_count();
            let target_dist = network.graph.degree_stationary_distribution();
            let truth = network.graph.average_degree();
            let plan = TrialPlan::budgeted(network.clone(), config.budget);

            let per_trial = parallel_map(config.trials, config.threads, |t| {
                let seed = trial_seed(config.seed ^ size as u64, t as u64);
                let trace = plan.run(alg, seed);
                let mut dist = EmpiricalDistribution::new(n);
                dist.record_all(trace.nodes());
                let mut est = RatioEstimator::new();
                for &v in trace.nodes() {
                    let k = plan.network.graph.degree(v);
                    est.push(k as f64, k);
                }
                let err = est.mean().map(|e| relative_error(e, truth)).unwrap_or(1.0);
                (dist, err)
            });

            let mut pooled = EmpiricalDistribution::new(n);
            let mut err_sum = 0.0;
            for (d, e) in &per_trial {
                pooled.merge(d);
                err_sum += e;
            }
            kl_y.push(symmetric_kl(
                &target_dist,
                &pooled.probabilities_smoothed(0.5),
            ));
            l2_y.push(l2_distance(&target_dist, &pooled.probabilities()));
            err_y.push(err_sum / per_trial.len() as f64);
        }
        kl_panel
            .series
            .push(Series::new(alg.label(), xs.clone(), kl_y));
        l2_panel
            .series
            .push(Series::new(alg.label(), xs.clone(), l2_y));
        error_panel
            .series
            .push(Series::new(alg.label(), xs.clone(), err_y));
    }
    Fig11Results {
        kl: kl_panel,
        l2: l2_panel,
        error: error_panel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_three_curves_per_panel() {
        let r = run(&Fig11Config::quick());
        for panel in [&r.kl, &r.l2, &r.error] {
            assert_eq!(panel.series.len(), 3);
            for s in &panel.series {
                assert_eq!(s.len(), 2);
                assert!(s.y.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn cnrw_no_worse_than_srw_on_small_barbell() {
        let r = run(&Fig11Config::quick());
        let srw = r.kl.series_by_label("SRW").unwrap().mean_y();
        let cnrw = r.kl.series_by_label("CNRW").unwrap().mean_y();
        assert!(cnrw < srw * 1.1, "CNRW {cnrw} vs SRW {srw}");
    }
}
