//! Figure 7 — public benchmark datasets:
//!
//! * 7a/7b/7c: Facebook — KL divergence, ℓ2 distance and estimation error vs
//!   query cost for SRW / NB-SRW / CNRW / GNRW;
//! * 7d: Youtube — estimation error vs query cost for SRW / CNRW / GNRW.

use std::sync::Arc;

use osn_datasets::{facebook_like, youtube_like, Scale};
use osn_walks::Grouping;

use crate::algorithms::Algorithm;
use crate::output::{ExperimentResult, Series};
use crate::sweeps::{bias_vs_budget, error_vs_budget, AggregateTarget, SweepConfig};

/// Configuration for the Figure 7 reproduction.
#[derive(Clone, Debug)]
pub struct Fig7Config {
    /// Dataset scale.
    pub scale: Scale,
    /// Sweep for the Facebook panels (paper: budgets 20..140).
    pub facebook_sweep: SweepConfig,
    /// Sweep for the Youtube panel (paper: budgets up to 1000).
    pub youtube_sweep: SweepConfig,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            scale: Scale::Default,
            facebook_sweep: SweepConfig::small_graph(1000, 0xF167),
            youtube_sweep: SweepConfig::large_graph(300, 0xF167D),
        }
    }
}

impl Fig7Config {
    /// Reduced profile for CI and quick runs.
    pub fn quick() -> Self {
        Fig7Config {
            scale: Scale::Test,
            facebook_sweep: SweepConfig {
                budgets: vec![20, 60, 100],
                trials: 16,
                seed: 0xF167,
                threads: crate::runner::default_threads(),
            },
            youtube_sweep: SweepConfig {
                budgets: vec![100, 300],
                trials: 8,
                seed: 0xF167D,
                threads: crate::runner::default_threads(),
            },
        }
    }
}

/// The four panels of Figure 7.
pub struct Fig7Results {
    /// 7a: Facebook KL divergence vs query cost.
    pub facebook_kl: ExperimentResult,
    /// 7b: Facebook ℓ2 distance vs query cost.
    pub facebook_l2: ExperimentResult,
    /// 7c: Facebook estimation error vs query cost.
    pub facebook_error: ExperimentResult,
    /// 7d: Youtube estimation error vs query cost.
    pub youtube_error: ExperimentResult,
}

/// Run all four panels.
pub fn run(config: &Fig7Config) -> Fig7Results {
    // --- Facebook panels (bias metrics need the full distribution). ---
    let fb = Arc::new(facebook_like(config.scale, config.facebook_sweep.seed).network);
    let algorithms = Algorithm::srw_family_set();
    let xs: Vec<f64> = config
        .facebook_sweep
        .budgets
        .iter()
        .map(|&b| b as f64)
        .collect();

    let mut kl = ExperimentResult::new(
        "fig7a",
        "Facebook stand-in: KL divergence",
        "Query Cost",
        "KL-Divergence",
    );
    let mut l2 = ExperimentResult::new(
        "fig7b",
        "Facebook stand-in: l2 distance",
        "Query Cost",
        "2-Norm Distance",
    );
    let mut err = ExperimentResult::new(
        "fig7c",
        "Facebook stand-in: estimation error (average degree)",
        "Query Cost",
        "Relative Error",
    );
    for alg in &algorithms {
        let metrics = bias_vs_budget(fb.clone(), alg, &config.facebook_sweep);
        kl.series
            .push(Series::new(alg.label(), xs.clone(), metrics.kl));
        l2.series
            .push(Series::new(alg.label(), xs.clone(), metrics.l2));
        err.series
            .push(Series::new(alg.label(), xs.clone(), metrics.error));
    }
    let note = format!(
        "facebook stand-in: {} nodes, {} edges; {} trials/point; \
         KL computed on the trial-pooled empirical distribution (Jeffreys-smoothed)",
        fb.graph.node_count(),
        fb.graph.edge_count(),
        config.facebook_sweep.trials
    );
    kl.notes.push(note.clone());
    l2.notes.push(note.clone());
    err.notes.push(note);

    // --- Youtube panel (error only; SRW vs CNRW vs GNRW as in the paper). ---
    let yt = Arc::new(youtube_like(config.scale, config.youtube_sweep.seed).network);
    let yt_algorithms = vec![
        Algorithm::Srw,
        Algorithm::Cnrw,
        Algorithm::Gnrw(Grouping::by_degree()),
    ];
    let series = error_vs_budget(
        yt.clone(),
        &yt_algorithms,
        &AggregateTarget::AverageDegree,
        &config.youtube_sweep,
    );
    let mut youtube_error = ExperimentResult::new(
        "fig7d",
        "Youtube stand-in: estimation error (average degree)",
        "Query Cost",
        "Estimation Error",
    )
    .with_note(format!(
        "youtube stand-in: {} nodes, {} edges; {} trials/point",
        yt.graph.node_count(),
        yt.graph.edge_count(),
        config.youtube_sweep.trials
    ));
    for s in series {
        youtube_error.series.push(s);
    }

    Fig7Results {
        facebook_kl: kl,
        facebook_l2: l2,
        facebook_error: err,
        youtube_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_all_panels() {
        let r = run(&Fig7Config::quick());
        assert_eq!(r.facebook_kl.series.len(), 4);
        assert_eq!(r.facebook_l2.series.len(), 4);
        assert_eq!(r.facebook_error.series.len(), 4);
        assert_eq!(r.youtube_error.series.len(), 3);
        // KL must shrink with budget for every algorithm.
        for s in &r.facebook_kl.series {
            assert!(
                s.y.last().unwrap() < s.y.first().unwrap(),
                "{}: {:?}",
                s.label,
                s.y
            );
        }
        // History-aware walks should not lose to SRW on the KL sweep.
        let auc = |label: &str| r.facebook_kl.series_by_label(label).unwrap().auc();
        assert!(
            auc("CNRW") < auc("SRW") * 1.1,
            "CNRW {} SRW {}",
            auc("CNRW"),
            auc("SRW")
        );
    }
}
