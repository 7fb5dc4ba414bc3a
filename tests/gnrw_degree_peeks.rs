//! How many degrees a GNRW step reads, counted through the client.
//!
//! Under `Grouping::degree_log2()`, a node's group key is its own degree
//! bucket, so a cold step keys only the neighbors it proposes, and none
//! while the edge's sub-cycle is empty. On a short walk over a large graph
//! almost every edge is new, and the walk reads almost no degree at all;
//! on a long walk over a small graph, edges come back and their sub-cycles
//! fill. Rank-quantile `Grouping::by_degree()` ranks a node within its
//! neighborhood, so a cold step reads every neighbor's degree the first
//! time its walker partitions `N(v)`, and none while the walker's
//! partition memo holds `N(v)`: its totals are pinned exactly. Walkers are
//! serial and each keeps its own memo, so every count is deterministic.

use std::cell::Cell;
use std::sync::Arc;

use osn_sampling::client::{BudgetExhausted, OsnClient, QueryStats, SimulatedOsn};
use osn_sampling::datasets::{gplus_like, web_like, Scale};
use osn_sampling::graph::NodeId;
use osn_sampling::walks::{Gnrw, Grouping, RandomWalk};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// A client that counts the degree peeks made through it.
struct CountingPeeks {
    inner: SimulatedOsn,
    peeks: Cell<u64>,
}

impl OsnClient for CountingPeeks {
    fn neighbors(&mut self, u: NodeId) -> Result<&[NodeId], BudgetExhausted> {
        self.inner.neighbors(u)
    }

    fn peek_degree(&self, u: NodeId) -> usize {
        self.peeks.set(self.peeks.get() + 1);
        self.inner.peek_degree(u)
    }

    fn peek_attribute(&self, u: NodeId, name: &str) -> Option<f64> {
        self.inner.peek_attribute(u, name)
    }

    fn stats(&self) -> QueryStats {
        self.inner.stats()
    }
}

/// Degree peeks made by `walkers` GNRW walkers under `grouping`,
/// started evenly over the `nodes` ids and walked one after another for
/// `steps` steps each, walker `i` on its own RNG seeded `i`.
fn degree_peeks(
    inner: SimulatedOsn,
    nodes: usize,
    grouping: &Grouping,
    walkers: usize,
    steps: usize,
) -> u64 {
    let mut client = CountingPeeks {
        inner,
        peeks: Cell::new(0),
    };
    let stride = (nodes / walkers).max(1);
    for i in 0..walkers {
        let start = NodeId(((i * stride) % nodes) as u32);
        let mut walker = Gnrw::new(start, grouping.clone());
        let mut rng = ChaCha12Rng::seed_from_u64(i as u64);
        for _ in 0..steps {
            walker.step(&mut client, &mut rng).expect("no budget");
        }
    }
    client.peeks.get()
}

/// The `Scale::Test` web stand-in (2,000 nodes) as a compact graph: 200
/// walkers × 64 steps, so almost every edge a walker takes is new.
fn web_fleet(grouping: &Grouping) -> (u64, u64) {
    let graph = Arc::new(web_like(Scale::Test, 7));
    let nodes = graph.node_count();
    let client = SimulatedOsn::from_compact(graph);
    (degree_peeks(client, nodes, grouping, 200, 64), 200 * 64)
}

/// Test-scale gplus-like (500 nodes): 8 walkers × 20,000 steps, so edges
/// come back and their sub-cycles fill.
fn gplus_walks(grouping: &Grouping) -> (u64, u64) {
    let network = gplus_like(Scale::Test, 7).network;
    let nodes = network.graph.node_count();
    let client = SimulatedOsn::new(network);
    (degree_peeks(client, nodes, grouping, 8, 20_000), 8 * 20_000)
}

#[test]
fn log2_degree_steps_read_almost_no_degree_on_new_edges() {
    let (peeks, steps) = web_fleet(&Grouping::degree_log2());
    let per_step = peeks as f64 / steps as f64;
    assert!(
        per_step <= 0.1,
        "{peeks} degree peeks in {steps} steps: {per_step:.3} per step"
    );
}

#[test]
fn log2_degree_steps_read_few_degrees_on_revisited_edges() {
    let (peeks, steps) = gplus_walks(&Grouping::degree_log2());
    let per_step = peeks as f64 / steps as f64;
    assert!(
        per_step <= 10.0,
        "{peeks} degree peeks in {steps} steps: {per_step:.3} per step"
    );
}

#[test]
fn quantile_degree_steps_rank_each_neighborhood_once_per_walker() {
    assert_eq!(web_fleet(&Grouping::by_degree()).0, WEB_BY_DEGREE);
    assert_eq!(gplus_walks(&Grouping::by_degree()).0, GPLUS_BY_DEGREE);
}

/// `by_degree()`'s totals: 16.74 and 0.28 peeks per step. When every cold
/// step ranked all of `N(v)` anew, the same walks read 262,950 and
/// 2,631,639 degrees (20.54 and 16.45 per step); under `degree_log2()`
/// they read 265,186 and 2,352,607 (20.72 and 14.70) when every cold step
/// partitioned all of `N(v)`.
const WEB_BY_DEGREE: u64 = 214_215;
const GPLUS_BY_DEGREE: u64 = 45_309;
