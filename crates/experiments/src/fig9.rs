//! Figure 9 — Yelp: GNRW grouping strategies vs SRW, for two aggregates.
//!
//! The design-space study of §4.1: grouping by the attribute you intend to
//! aggregate should win *that* aggregate. Panel (a) estimates average
//! degree; panel (b) estimates average `reviews_count`.
//!
//! Measured outcome (see EXPERIMENTS.md): all GNRW variants beat SRW at
//! moderate-to-large budgets, and `GNRW_By_Degree` does win the degree
//! aggregate; on the reviews panel the aligned strategy is among the best
//! but within noise of hash grouping at our stand-in's scale — the
//! attribute's neighborhood-level variation is tied to degree and
//! community, so the strategies overlap.

use std::sync::Arc;
use std::time::Instant;

use osn_datasets::{yelp_like, Scale};
use osn_estimate::estimators::RatioEstimator;
use osn_estimate::metrics::relative_error;
use osn_walks::Grouping;

use crate::algorithms::Algorithm;
use crate::output::{ExperimentResult, Series};
use crate::runner::{parallel_map, trial_seed, TrialPlan};
use crate::sweeps::{error_vs_budget, AggregateTarget, SweepConfig};

/// Configuration for the Figure 9 reproduction.
#[derive(Clone, Debug)]
pub struct Fig9Config {
    /// Dataset scale for the Yelp stand-in.
    pub scale: Scale,
    /// Sweep parameters.
    pub sweep: SweepConfig,
    /// Group count for the hash (MD5 stand-in) strategy.
    pub hash_groups: u64,
}

impl Default for Fig9Config {
    fn default() -> Self {
        Fig9Config {
            scale: Scale::Default,
            sweep: SweepConfig::large_graph(1000, 0xF169),
            hash_groups: 8,
        }
    }
}

impl Fig9Config {
    /// Reduced profile for CI and quick runs.
    pub fn quick() -> Self {
        Fig9Config {
            scale: Scale::Test,
            sweep: SweepConfig {
                budgets: vec![50, 150],
                trials: 12,
                seed: 0xF169,
                threads: crate::runner::default_threads(),
            },
            hash_groups: 8,
        }
    }

    fn algorithms(&self) -> Vec<Algorithm> {
        vec![
            Algorithm::Srw,
            Algorithm::Gnrw(Grouping::by_degree()),
            Algorithm::Gnrw(Grouping::by_hash(self.hash_groups)),
            Algorithm::Gnrw(Grouping::by_attribute("reviews_count")),
        ]
    }
}

/// The two panels of Figure 9.
pub struct Fig9Results {
    /// 9a: estimating average degree.
    pub average_degree: ExperimentResult,
    /// 9b: estimating average reviews count.
    pub average_reviews: ExperimentResult,
}

/// Run both panels over one Yelp stand-in snapshot.
pub fn run(config: &Fig9Config) -> Fig9Results {
    let network = Arc::new(yelp_like(config.scale, config.sweep.seed).network);
    let algorithms = config.algorithms();

    let build = |id: &str, title: &str, target: AggregateTarget| {
        let series = error_vs_budget(network.clone(), &algorithms, &target, &config.sweep);
        let mut r =
            ExperimentResult::new(id, title, "Query Cost", "Relative Error").with_note(format!(
                "yelp stand-in: {} nodes, {} edges, attribute `reviews_count`; {} trials/point",
                network.graph.node_count(),
                network.graph.edge_count(),
                config.sweep.trials
            ));
        for s in series {
            r.series.push(s);
        }
        r
    };

    Fig9Results {
        average_degree: build(
            "fig9a",
            "Yelp stand-in: estimate average degree (GNRW strategies)",
            AggregateTarget::AverageDegree,
        ),
        average_reviews: build(
            "fig9b",
            "Yelp stand-in: estimate average reviews count (GNRW strategies)",
            AggregateTarget::AttributeMean("reviews_count".to_string()),
        ),
    }
}

/// The "equal wall-clock" arm of the plan ablation: planless (scratch) GNRW
/// vs plan-backed GNRW over the same yelp stand-in, where each arm is
/// granted the number of steps *it* completes in the same wall-clock window
/// rather than the same step count. The two arms walk identically step for
/// step, so the plan arm's gain is the extra steps its cheaper cold edges
/// buy. Throughput is calibrated with one
/// warm timed walk per arm; the plan arm's step allowance at each point is
/// scaled by the measured rate ratio, so the y values answer the operational
/// question: at a fixed time budget, which execution path estimates better?
///
/// Reported as NRMSE (root-mean-square of the per-trial relative errors) of
/// the average-degree estimate. `base_steps` are the scratch arm's step
/// allowances (the x axis is the implied wall-clock per point).
pub fn plan_equal_walltime(config: &Fig9Config, base_steps: &[usize]) -> ExperimentResult {
    let network = Arc::new(yelp_like(config.scale, config.sweep.seed).network);
    let alg = Algorithm::Gnrw(Grouping::by_degree());
    let plan = Arc::new(alg.build_group_plan(&network).expect("GNRW has a plan"));
    let truth = network.graph.average_degree();

    let scratch_arm = TrialPlan::new(network.clone());
    let plan_arm = TrialPlan::new(network.clone()).with_group_plan(Arc::clone(&plan));

    // One warm run to settle allocations/caches, then one timed run.
    let calibrate = |arm: &TrialPlan| {
        let steps = base_steps.iter().copied().max().unwrap_or(1_000).max(1_000);
        let _ = arm
            .clone()
            .with_max_steps(steps.min(2_000))
            .run(&alg, config.sweep.seed);
        let started = Instant::now();
        let _ = arm
            .clone()
            .with_max_steps(steps)
            .run(&alg, config.sweep.seed);
        steps as f64 / started.elapsed().as_secs_f64().max(1e-9)
    };
    let scratch_rate = calibrate(&scratch_arm);
    let plan_rate = calibrate(&plan_arm);

    let nrmse = |arm: &TrialPlan, steps: usize, salt: u64| {
        let arm = arm.clone().with_max_steps(steps.max(1));
        let errors = parallel_map(config.sweep.trials, config.sweep.threads, |t| {
            let trace = arm.run(&alg, trial_seed(config.sweep.seed ^ salt, t as u64));
            let mut est = RatioEstimator::new();
            for &v in trace.nodes() {
                est.push(
                    arm.network.graph.degree(v) as f64,
                    arm.network.graph.degree(v),
                );
            }
            est.mean().map(|e| relative_error(e, truth)).unwrap_or(1.0)
        });
        (errors.iter().map(|e| e * e).sum::<f64>() / errors.len() as f64).sqrt()
    };

    let mut xs = Vec::new();
    let mut scratch_y = Vec::new();
    let mut plan_y = Vec::new();
    let mut plan_steps_used = Vec::new();
    for (i, &base) in base_steps.iter().enumerate() {
        let wall_secs = base as f64 / scratch_rate;
        let plan_steps = ((wall_secs * plan_rate).round() as usize).max(1);
        xs.push(wall_secs * 1e3);
        scratch_y.push(nrmse(&scratch_arm, base, i as u64));
        plan_y.push(nrmse(&plan_arm, plan_steps, i as u64));
        plan_steps_used.push(plan_steps);
    }

    let mut r = ExperimentResult::new(
        "fig9c",
        "Yelp stand-in: scratch vs plan-backed GNRW at equal wall-clock",
        "Wall-clock budget (ms)",
        "NRMSE (average degree)",
    )
    .with_note(format!(
        "calibrated throughput: scratch {scratch_rate:.0} steps/s, plan \
         {plan_rate:.0} steps/s (one Algorithm-2 walk, same trace per step); \
         scratch steps per point: {base_steps:?}; plan steps per point: \
         {plan_steps_used:?}"
    ));
    r.series
        .push(Series::new("GNRW_By_Degree/scratch", xs.clone(), scratch_y));
    r.series
        .push(Series::new("GNRW_By_Degree/plan", xs, plan_y));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_four_strategies_per_panel() {
        let r = run(&Fig9Config::quick());
        assert_eq!(r.average_degree.series.len(), 4);
        assert_eq!(r.average_reviews.series.len(), 4);
        let labels: Vec<&str> = r
            .average_degree
            .series
            .iter()
            .map(|s| s.label.as_str())
            .collect();
        assert!(labels.contains(&"SRW"));
        assert!(labels.contains(&"GNRW_By_Degree"));
        assert!(labels.contains(&"GNRW_By_MD5"));
        assert!(labels.contains(&"GNRW_By_reviews_count"));
    }

    #[test]
    fn equal_walltime_arm_compares_both_paths() {
        let r = plan_equal_walltime(&Fig9Config::quick(), &[300, 900]);
        assert_eq!(r.id, "fig9c");
        assert_eq!(r.series.len(), 2);
        let labels: Vec<&str> = r.series.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"GNRW_By_Degree/scratch"));
        assert!(labels.contains(&"GNRW_By_Degree/plan"));
        for s in &r.series {
            assert_eq!(s.len(), 2);
            assert!(
                s.y.iter().all(|y| y.is_finite() && *y >= 0.0),
                "{}: {:?}",
                s.label,
                s.y
            );
            assert!(s.x.iter().all(|x| *x > 0.0));
        }
        // The calibration note records both arms' throughput and step grants.
        assert!(r.notes.iter().any(|n| n.contains("plan steps per point")));
    }

    #[test]
    fn errors_are_bounded() {
        let r = run(&Fig9Config::quick());
        for panel in [&r.average_degree, &r.average_reviews] {
            for s in &panel.series {
                for &y in &s.y {
                    assert!(y.is_finite() && y >= 0.0, "{}: {y}", s.label);
                }
            }
        }
    }
}
