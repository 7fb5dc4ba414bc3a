//! Batched variant of the Figure 6 setting: **charged unique queries vs
//! walker count**, coalesced batch requests against independent walkers.
//!
//! The paper charges one unit per unique neighbor-list fetch (§2.3). A
//! production crawler running `k` walkers can pay that bill two ways:
//!
//! * **independent** — each walker crawls with its own cache (the naive
//!   fleet): a node visited by `j` walkers is charged `j` times;
//! * **coalesced batches** (this sweep) — walkers park their neighbor
//!   requests on the reactor, which dedups in-flight ids across walkers
//!   before fanning them out in batches of at most `B` over the
//!   rate-limited batch endpoint
//!   ([`osn_walks::WalkOrchestrator::run_reactor`] over
//!   [`osn_client::SimulatedBatchOsn`]).
//!
//! Per-walker trajectories are **identical across the arms** (same
//! SplitMix64 RNG streams, same snapshot), so the sweep isolates the I/O
//! architecture: the charged-query gap is pure cache sharing + request
//! dedup, at exactly equal steps. The batch size cannot change what is
//! charged (unique nodes are unique nodes) — it divides the *request*
//! count, which is what a per-call rate limit meters; the request totals
//! are reported in the notes.

use std::sync::Arc;

use osn_client::{BatchConfig, SimulatedBatchOsn, SimulatedOsn};
use osn_datasets::{gplus_like, Scale};
use osn_graph::attributes::AttributedGraph;
use osn_graph::mix::splitmix64_stream;
use osn_graph::NodeId;
use osn_walks::{Cnrw, Never, RandomWalk, WalkConfig, WalkOrchestrator, WalkSession};

use crate::output::{ExperimentResult, Series};
use crate::runner::trial_seed;

/// Configuration for the batched Figure 6 sweep.
#[derive(Clone, Debug)]
pub struct Fig6BatchConfig {
    /// Dataset scale for the Google Plus stand-in.
    pub scale: Scale,
    /// Concurrent walker counts (the x axis).
    pub walkers: Vec<usize>,
    /// Batch sizes to sweep, one coalesced curve each.
    pub batch_sizes: Vec<usize>,
    /// Steps per walker — equal across every arm.
    pub steps_per_walker: usize,
    /// In-flight request window of the simulated endpoint.
    pub max_in_flight: usize,
    /// Independent trials per point.
    pub trials: usize,
    /// Experiment seed (trial seeds derive from it).
    pub seed: u64,
}

impl Default for Fig6BatchConfig {
    fn default() -> Self {
        Fig6BatchConfig {
            scale: Scale::Default,
            walkers: vec![1, 2, 4, 8],
            batch_sizes: vec![1, 4, 16],
            steps_per_walker: 2_000,
            max_in_flight: 4,
            trials: 8,
            seed: 0x0F16_BA7C,
        }
    }
}

impl Fig6BatchConfig {
    /// Reduced profile for CI and quick runs.
    pub fn quick() -> Self {
        Fig6BatchConfig {
            scale: Scale::Test,
            walkers: vec![1, 4, 8],
            batch_sizes: vec![4],
            steps_per_walker: 300,
            max_in_flight: 4,
            trials: 4,
            seed: 0x0F16_BA7C,
        }
    }
}

/// Start node for walker `i` of a trial (spread deterministically).
fn start_node(seed: u64, i: usize, n: usize) -> NodeId {
    NodeId(((seed as usize + i * 31) % n) as u32)
}

/// Independent arm: `k` walkers, each with its **own** cache, summing their
/// per-walker charged queries at equal steps. RNG streams match the
/// coalesced arm's exactly.
fn independent_charged(network: &Arc<AttributedGraph>, k: usize, steps: usize, seed: u64) -> u64 {
    let n = network.graph.node_count();
    (0..k)
        .map(|i| {
            let mut client = SimulatedOsn::new_shared(network.clone());
            let mut walker = Cnrw::new(start_node(seed, i, n));
            let config = WalkConfig::steps(steps).with_seed(splitmix64_stream(seed, i as u64));
            WalkSession::new(config)
                .run(&mut walker, &mut client)
                .stats
                .unique
        })
        .sum()
}

/// Coalesced arm: the same `k` trajectories through the reactor; returns
/// `(charged unique, requests issued)`.
fn coalesced_charged(
    network: &Arc<AttributedGraph>,
    k: usize,
    batch_size: usize,
    in_flight: usize,
    steps: usize,
    seed: u64,
) -> (u64, u64) {
    let n = network.graph.node_count();
    let mut client = SimulatedBatchOsn::new(
        SimulatedOsn::new_shared(network.clone()),
        BatchConfig::new(batch_size).with_in_flight(in_flight),
    );
    let report = WalkOrchestrator::new(k, steps, seed).run_reactor(
        &mut client,
        |i, _| Box::new(Cnrw::new(start_node(seed, i, n))) as Box<dyn RandomWalk + Send>,
        |v| v.index() as f64,
        &Never,
    );
    let charged = report
        .interface
        .expect("the reactor reports interface stats");
    (charged.unique, client.batch_stats().submitted)
}

/// Run the batched Figure 6 sweep: charged queries vs walker count, one
/// curve per batch size plus the independent-walkers baseline.
pub fn run(config: &Fig6BatchConfig) -> ExperimentResult {
    let network = Arc::new(gplus_like(config.scale, config.seed).network);
    let steps = config.steps_per_walker;
    let mut result = ExperimentResult::new(
        "fig6_batch",
        "Google Plus stand-in: charged unique queries at equal steps — coalesced batch \
         requests vs independent CNRW walkers",
        "Concurrent Walkers",
        "Charged Unique Queries (mean)",
    )
    .with_note(format!(
        "graph: {} nodes, {} edges; {} steps/walker; {} trials/point; in-flight window {}",
        network.graph.node_count(),
        network.graph.edge_count(),
        steps,
        config.trials,
        config.max_in_flight
    ))
    .with_note(
        "identical per-walker RNG streams in every arm: the gap is pure request \
         coalescing (queue -> dedup -> charge -> fan-out), not different walks",
    );
    let xs: Vec<f64> = config.walkers.iter().map(|&k| k as f64).collect();

    let mean = |values: Vec<u64>| values.iter().sum::<u64>() as f64 / values.len() as f64;
    let independent: Vec<f64> = config
        .walkers
        .iter()
        .map(|&k| {
            mean(
                (0..config.trials)
                    .map(|t| {
                        independent_charged(&network, k, steps, trial_seed(config.seed, t as u64))
                    })
                    .collect(),
            )
        })
        .collect();
    result.series.push(Series::new(
        "independent walkers".to_string(),
        xs.clone(),
        independent,
    ));

    for &batch_size in &config.batch_sizes {
        let mut requests_note: Option<String> = None;
        let ys: Vec<f64> = config
            .walkers
            .iter()
            .map(|&k| {
                let mut charged = Vec::with_capacity(config.trials);
                let mut requests = Vec::with_capacity(config.trials);
                for t in 0..config.trials {
                    let (c, r) = coalesced_charged(
                        &network,
                        k,
                        batch_size,
                        config.max_in_flight,
                        steps,
                        trial_seed(config.seed, t as u64),
                    );
                    charged.push(c);
                    requests.push(r);
                }
                if k == *config.walkers.iter().max().unwrap() {
                    requests_note = Some(format!(
                        "B={batch_size}, k={k}: {:.0} charged nodes in {:.0} batch requests \
                         (vs {} per-node calls the serial path would issue)",
                        mean(charged.clone()),
                        mean(requests),
                        k * steps
                    ));
                }
                mean(charged)
            })
            .collect();
        result.series.push(Series::new(
            format!("coalesced B={batch_size}"),
            xs.clone(),
            ys,
        ));
        if let Some(note) = requests_note {
            result.notes.push(note);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shapes_and_sanity() {
        let config = Fig6BatchConfig::quick();
        let r = run(&config);
        assert_eq!(r.series.len(), 1 + config.batch_sizes.len());
        for s in &r.series {
            assert_eq!(s.len(), config.walkers.len());
            assert!(s.y.iter().all(|v| v.is_finite() && *v > 0.0), "{}", s.label);
        }
    }

    #[test]
    fn coalescing_charges_measurably_fewer_queries_than_independent_walkers() {
        // The acceptance property: with 8 walkers on the gplus-like graph
        // at equal steps, the coalesced fleet's charged unique count is
        // measurably below 8 independent walkers' summed bill.
        let network = Arc::new(gplus_like(Scale::Test, 0x0F16_BA7C).network);
        let (steps, seed) = (400usize, trial_seed(0x0F16_BA7C, 1));
        let independent = independent_charged(&network, 8, steps, seed);
        let (coalesced, requests) = coalesced_charged(&network, 8, 8, 4, steps, seed);
        assert!(
            (coalesced as f64) < independent as f64 * 0.9,
            "coalesced {coalesced} should be <90% of independent {independent}"
        );
        // Dedup also compresses the request stream: batches of 8 need far
        // fewer calls than one per charged node.
        assert!(
            requests < coalesced,
            "requests {requests} should be fewer than charged nodes {coalesced} at B=8"
        );
    }

    #[test]
    fn batch_size_does_not_change_what_is_charged() {
        // Charged cost is a property of the unique-node set; the batch size
        // only divides the request count.
        let network = Arc::new(gplus_like(Scale::Test, 7).network);
        let seed = trial_seed(7, 0);
        let (charged_1, requests_1) = coalesced_charged(&network, 4, 1, 4, 200, seed);
        let (charged_16, requests_16) = coalesced_charged(&network, 4, 16, 4, 200, seed);
        assert_eq!(charged_1, charged_16);
        assert!(requests_16 < requests_1);
    }
}
