//! Figure 8 — sampling distributions of SRW, CNRW and GNRW against the
//! theoretical `k_v / 2|E|`, nodes ordered by degree.
//!
//! The paper runs 100 instances of each walk for 10,000 steps on two
//! Facebook snapshots and shows all three walks converging to the same
//! stationary distribution — the empirical face of Theorems 1 and 4.

use std::sync::Arc;

use osn_datasets::{facebook_like, Scale};
use osn_estimate::metrics::EmpiricalDistribution;
use osn_graph::attributes::AttributedGraph;
use osn_walks::Grouping;

use crate::algorithms::Algorithm;
use crate::output::{ExperimentResult, Series};
use crate::runner::{parallel_map, trial_seed, TrialPlan};

/// Configuration for the Figure 8 reproduction.
#[derive(Clone, Debug)]
pub struct Fig8Config {
    /// Dataset scale.
    pub scale: Scale,
    /// Independent walk instances (paper: 100).
    pub instances: usize,
    /// Steps per instance (paper: 10,000).
    pub steps: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Fig8Config {
            scale: Scale::Default,
            instances: 100,
            steps: 10_000,
            seed: 0xF168,
            threads: crate::runner::default_threads(),
        }
    }
}

impl Fig8Config {
    /// Reduced profile for CI and quick runs.
    pub fn quick() -> Self {
        Fig8Config {
            scale: Scale::Test,
            instances: 30,
            steps: 5_000,
            seed: 0xF168,
            threads: crate::runner::default_threads(),
        }
    }
}

/// Run one panel (one dataset snapshot): returns the distribution of each
/// algorithm plus the theoretical line, with nodes ordered by degree.
pub fn run_panel(
    network: Arc<AttributedGraph>,
    config: &Fig8Config,
    panel_id: &str,
    title: &str,
) -> ExperimentResult {
    let n = network.graph.node_count();

    // Degree-ascending node order (the paper's x axis).
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| network.graph.degree(osn_graph::NodeId(v)));
    let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();

    let theoretical = network.graph.degree_stationary_distribution();
    let theo_sorted: Vec<f64> = order.iter().map(|&v| theoretical[v as usize]).collect();

    let algorithms = vec![
        Algorithm::Srw,
        Algorithm::Cnrw,
        Algorithm::Gnrw(Grouping::by_degree()),
    ];

    let mut result = ExperimentResult::new(
        panel_id,
        title,
        "Nodes ordered by degree (rank)",
        "Distribution",
    )
    .with_note(format!(
        "{} instances x {} steps on {} nodes",
        config.instances, config.steps, n
    ))
    .with_series(Series::new("Theo", xs.clone(), theo_sorted));

    for alg in algorithms {
        let plan = TrialPlan::steps(network.clone(), config.steps);
        let dists = parallel_map(config.instances, config.threads, |t| {
            let trace = plan.run(&alg, trial_seed(config.seed, t as u64));
            let mut d = EmpiricalDistribution::new(n);
            d.record_all(trace.nodes());
            d
        });
        let mut pooled = EmpiricalDistribution::new(n);
        for d in &dists {
            pooled.merge(d);
        }
        let probs = pooled.probabilities();
        let sorted: Vec<f64> = order.iter().map(|&v| probs[v as usize]).collect();
        result
            .series
            .push(Series::new(alg.label(), xs.clone(), sorted));
    }
    result
}

/// Run both panels (two snapshot seeds standing in for the paper's two
/// Facebook ego-nets).
pub fn run(config: &Fig8Config) -> Vec<ExperimentResult> {
    let panels = [
        (config.seed, "fig8a", "facebook dataset 1: distribution"),
        (
            config.seed ^ 0x5eed,
            "fig8b",
            "facebook dataset 2: distribution",
        ),
    ];
    panels
        .iter()
        .map(|&(seed, id, title)| {
            let network = Arc::new(facebook_like(config.scale, seed).network);
            run_panel(network, config, id, title)
        })
        .collect()
}

/// Maximum absolute deviation between an algorithm's series and the
/// theoretical one, per panel.
pub fn max_deviation(result: &ExperimentResult, label: &str) -> Option<f64> {
    let theo = result.series_by_label("Theo")?;
    let alg = result.series_by_label(label)?;
    Some(
        theo.y
            .iter()
            .zip(&alg.y)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_walks_converge_to_theoretical() {
        let config = Fig8Config::quick();
        let panels = run(&config);
        assert_eq!(panels.len(), 2);
        for panel in &panels {
            assert_eq!(panel.series.len(), 4); // Theo + 3 algorithms
            let theo = &panel.series_by_label("Theo").unwrap().y;
            for label in ["SRW", "CNRW", "GNRW_By_Degree"] {
                // Total variation aggregates the convergence claim; the
                // per-node maximum is noisy for autocorrelated walk samples.
                let alg = &panel.series_by_label(label).unwrap().y;
                let tv: f64 = 0.5
                    * theo
                        .iter()
                        .zip(alg)
                        .map(|(&a, &b)| (a - b).abs())
                        .sum::<f64>();
                assert!(tv < 0.08, "{label}: TV distance {tv}");
                let dev = max_deviation(panel, label).unwrap();
                assert!(dev < 0.02, "{label}: max per-node deviation {dev}");
            }
        }
    }

    #[test]
    fn distributions_sum_to_one() {
        let config = Fig8Config::quick();
        let panel = &run(&config)[0];
        for s in &panel.series {
            let sum: f64 = s.y.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{} sums to {sum}", s.label);
        }
    }
}
