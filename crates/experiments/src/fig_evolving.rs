//! Evolving-graph figure: **delta-corrected continuation vs
//! restart-from-scratch** on a mutating network.
//!
//! The paper samples a *static* snapshot; real OSNs mutate under the
//! sampler. This experiment drives a seeded
//! [`osn_graph::MutationSchedule`] against the Google Plus stand-in and
//! compares two ways of keeping an average-degree estimate current:
//!
//! * **delta** — one continuous CNRW walk over the
//!   [`osn_client::SimulatedOsn`] delta overlay. After each mutation epoch
//!   the walker drops the circulation state of touched nodes
//!   ([`osn_walks::RandomWalk::invalidate_nodes`] — Theorem 4's exactly-once
//!   coverage restarts on the new neighborhood) and the
//!   [`osn_estimate::DeltaCorrectedEstimator`] re-weights the touched
//!   nodes' past samples to their new degrees instead of discarding them.
//!   The query cache persists: only mutated endpoints re-charge.
//! * **restart** — the honest baseline: every epoch throws the walk,
//!   estimator, *and cache* away and starts a fresh walk over the current
//!   graph, re-paying the query budget from zero.
//!
//! Both arms see the identical mutation stream and walk the same number of
//! steps per epoch; the figure reports per-epoch relative error against
//! the live ground truth (the rebuilt graph's true average degree) and the
//! cumulative charged unique queries. The acceptance bar — pinned by this
//! module's test — is that the delta arm tracks the mutating truth at
//! **no more than half** the restart arm's queries.

use osn_client::{OsnClient, SimulatedOsn};
use osn_datasets::{gplus_like, Scale};
use osn_estimate::DeltaCorrectedEstimator;
use osn_graph::{MutationSchedule, NodeId, ScheduleSpec};
use osn_walks::{Cnrw, RandomWalk, TouchedNodes};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::output::{ExperimentResult, Series};

/// Configuration for the evolving-graph figure.
#[derive(Clone, Debug)]
pub struct FigEvolvingConfig {
    /// Dataset scale for the Google Plus stand-in.
    pub scale: Scale,
    /// Mutation epochs (schedule drains once per epoch).
    pub epochs: usize,
    /// Edge mutations per epoch.
    pub mutations_per_epoch: usize,
    /// Fraction of mutations that delete (vs insert) an edge.
    pub delete_fraction: f64,
    /// Walk steps both arms take per epoch.
    pub steps_per_epoch: usize,
    /// Experiment seed (graph, schedule, and walk streams derive from it).
    pub seed: u64,
}

impl Default for FigEvolvingConfig {
    fn default() -> Self {
        FigEvolvingConfig {
            scale: Scale::Default,
            epochs: 12,
            mutations_per_epoch: 400,
            delete_fraction: 0.45,
            steps_per_epoch: 4_000,
            seed: 0xE701_5EED,
        }
    }
}

impl FigEvolvingConfig {
    /// Reduced profile for CI and quick runs.
    pub fn quick() -> Self {
        FigEvolvingConfig {
            scale: Scale::Test,
            epochs: 6,
            mutations_per_epoch: 60,
            delete_fraction: 0.45,
            steps_per_epoch: 1_200,
            seed: 0xE701_5EED,
        }
    }
}

/// Per-epoch measurements of one arm.
struct ArmTrack {
    /// Relative error of the arm's estimate vs the live true average
    /// degree, one entry per epoch.
    errors: Vec<f64>,
    /// Cumulative charged unique queries after each epoch.
    queries: Vec<f64>,
}

/// True average degree of the client's **current** (base + overlay) graph.
fn live_truth(client: &SimulatedOsn) -> f64 {
    let g = client.rebuilt_graph();
    2.0 * g.edge_count() as f64 / g.node_count() as f64
}

/// The delta arm: one continuous walk, invalidation + estimator
/// corrections at each epoch boundary, cache kept.
fn run_delta(
    base: &SimulatedOsn,
    schedule: &MutationSchedule,
    config: &FigEvolvingConfig,
) -> ArmTrack {
    let mut client = base.clone();
    let mut schedule = schedule.clone();
    let mut walker = Cnrw::new(NodeId(0));
    let mut rng = ChaCha12Rng::seed_from_u64(config.seed ^ 0xDE17A);
    let mut est = DeltaCorrectedEstimator::new();
    let mut errors = Vec::with_capacity(config.epochs);
    let mut queries = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        for _ in 0..config.steps_per_epoch {
            let v = walker.step(&mut client, &mut rng).expect("no budget");
            let k = client.peek_degree(v);
            est.push(v, k as f64, k);
        }
        let due = schedule.due((epoch + 1) as f64).to_vec();
        let touched = client.apply_mutations(&due);
        walker.invalidate_nodes(&TouchedNodes::new(&touched));
        for &v in &touched {
            let k = client.peek_degree(v);
            est.apply_degree_delta(v, k as f64, k);
        }
        let truth = live_truth(&client);
        let mean = est.mean().expect("samples recorded");
        errors.push((mean - truth).abs() / truth);
        queries.push(client.stats().unique as f64);
    }
    ArmTrack { errors, queries }
}

/// The restart arm: per epoch, a fresh walk + estimator + accounting over
/// the current graph — every query re-charges.
fn run_restart(
    base: &SimulatedOsn,
    schedule: &MutationSchedule,
    config: &FigEvolvingConfig,
) -> ArmTrack {
    let mut client = base.clone();
    let mut schedule = schedule.clone();
    let mut errors = Vec::with_capacity(config.epochs);
    let mut queries = Vec::with_capacity(config.epochs);
    let mut cumulative = 0u64;
    for epoch in 0..config.epochs {
        client.reset(); // discard the cache: restart re-pays its budget
        let mut walker = Cnrw::new(NodeId(0));
        let mut rng = ChaCha12Rng::seed_from_u64(config.seed ^ 0x2E57A27 ^ (epoch as u64) << 32);
        let mut est = osn_estimate::RatioEstimator::new();
        for _ in 0..config.steps_per_epoch {
            let v = walker.step(&mut client, &mut rng).expect("no budget");
            let k = client.peek_degree(v);
            est.push(k as f64, k);
        }
        cumulative += client.stats().unique;
        let due = schedule.due((epoch + 1) as f64).to_vec();
        client.apply_mutations(&due);
        // The estimate was collected on the pre-mutation epoch graph; it
        // goes stale the moment the epoch's mutations land — exactly the
        // staleness the error is measured against.
        let truth = live_truth(&client);
        let mean = est.mean().expect("samples recorded");
        errors.push((mean - truth).abs() / truth);
        queries.push(cumulative as f64);
    }
    ArmTrack { errors, queries }
}

/// Run the evolving-graph comparison.
pub fn run(config: &FigEvolvingConfig) -> ExperimentResult {
    let dataset = gplus_like(config.scale, config.seed);
    let base = SimulatedOsn::new(dataset.network);
    let spec = ScheduleSpec::new(
        config.epochs * config.mutations_per_epoch,
        config.epochs as f64,
        config.seed ^ 0x5C4ED,
    )
    .with_delete_fraction(config.delete_fraction);
    let schedule = MutationSchedule::generate(base.graph(), &spec);

    let delta = run_delta(&base, &schedule, config);
    let restart = run_restart(&base, &schedule, config);

    let epochs_x: Vec<f64> = (1..=config.epochs).map(|e| e as f64).collect();
    let delta_total = *delta.queries.last().expect("epochs > 0");
    let restart_total = *restart.queries.last().expect("epochs > 0");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

    ExperimentResult::new(
        "fig_evolving",
        format!(
            "Evolving {}: delta-corrected continuation vs restart-from-scratch ({} epochs × {} mutations)",
            dataset.name, config.epochs, config.mutations_per_epoch
        ),
        "epoch",
        "avg-degree relative error / cumulative unique queries",
    )
    .with_series(Series::new("delta error", epochs_x.clone(), delta.errors.clone()))
    .with_series(Series::new("restart error", epochs_x.clone(), restart.errors.clone()))
    .with_series(Series::new("delta queries", epochs_x.clone(), delta.queries.clone()))
    .with_series(Series::new("restart queries", epochs_x, restart.queries.clone()))
    .with_note(format!(
        "total queries: delta {delta_total:.0} vs restart {restart_total:.0} ({:.2}x)",
        restart_total / delta_total
    ))
    .with_note(format!(
        "mean relative error: delta {:.4} vs restart {:.4}",
        mean(&delta.errors),
        mean(&restart.errors)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_tracks_at_half_the_queries() {
        let result = run(&FigEvolvingConfig::quick());
        let delta_q = result
            .series_by_label("delta queries")
            .expect("series present");
        let restart_q = result
            .series_by_label("restart queries")
            .expect("series present");
        let (d, r) = (*delta_q.y.last().unwrap(), *restart_q.y.last().unwrap());
        assert!(
            d <= r / 2.0,
            "delta arm must track at ≤ half the queries: delta {d} vs restart {r}"
        );
        // And the savings cannot come from giving up on accuracy: the
        // delta arm's tracking error stays in the same band as the
        // restart baseline's (generous 2x + absolute floor — both arms
        // are a single 1.2k-step walk per epoch at quick scale).
        let delta_e = result.series_by_label("delta error").unwrap();
        let restart_e = result.series_by_label("restart error").unwrap();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (de, re) = (mean(&delta_e.y), mean(&restart_e.y));
        assert!(
            de <= (2.0 * re).max(0.15),
            "delta mean error {de:.4} out of band vs restart {re:.4}"
        );
    }
}
