//! Figure 9 — Yelp: GNRW grouping strategies vs SRW, for two aggregates.
//!
//! The design-space study of §4.1: grouping by the attribute you intend to
//! aggregate should win *that* aggregate. Panel (a) estimates average
//! degree; panel (b) estimates average `reviews_count`.
//!
//! Measured outcome (`repro fig9`; see README, "Reproducing the paper's
//! evaluation"): all GNRW variants beat SRW at moderate-to-large budgets,
//! and `GNRW_By_Degree` does win the degree aggregate; on the reviews
//! panel the aligned strategy is among the best but within noise of hash
//! grouping at our stand-in's scale — the attribute's neighborhood-level
//! variation is tied to degree and community, so the strategies overlap.

use std::sync::Arc;

use osn_datasets::{yelp_like, Scale};
use osn_walks::Grouping;

use crate::algorithms::Algorithm;
use crate::output::ExperimentResult;
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
