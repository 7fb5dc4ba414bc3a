//! Property tests for the precomputed [`GroupPlan`] layer behind plan-backed
//! GNRW.
//!
//! The plan is a build-time artifact the walker trusts blindly — a wrong
//! partition silently biases every plan-backed walk — so its invariants are
//! pinned over *arbitrary* graphs and grouping strategies, not just the
//! hand-built fixtures:
//!
//! * each node's flat partition is a valid permutation of its neighbor
//!   indices, grouped exactly as the live strategy would assign, with keys
//!   ascending and members ascending within each group (the order the
//!   planless step derives);
//! * the circulation engine's GNRW step covers the population exactly once
//!   per super-cycle — Theorem 4's b(u,v) invariant — for arbitrary group
//!   shapes;
//! * a plan-backed walker is the planless walker bit for bit — trace,
//!   accounting and snapshot — for every grouping arm, past 64 groups at a
//!   node too, and reproduces CNRW draw-for-draw when the grouping
//!   degenerates (every group a singleton, or one group per neighborhood).

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use osn_sampling::graph::attributes::{AttributedGraph, NodeAttributes};
use osn_sampling::prelude::*;
use osn_sampling::walks::circulation::GroupEngine;
use osn_sampling::walks::grouping::{GroupingStrategy, ValueBucketing};
use osn_sampling::walks::groupplan::NodeGroups;

/// A connected attributed graph: a ring over `n` nodes (no isolated nodes,
/// no dead ends) plus arbitrary chords, with a small-cardinality uint
/// attribute for the attribute-grouping arm.
fn build_network(n: usize, extra: &[(u32, u32)], tags: &[u64]) -> AttributedGraph {
    let mut b = GraphBuilder::new();
    for i in 0..n as u32 {
        b.push_edge(i, (i + 1) % n as u32);
    }
    for &(u, v) in extra {
        // The builder drops self loops and duplicate edges itself.
        b.push_edge(u % n as u32, v % n as u32);
    }
    let g = b.build().unwrap();
    let mut attrs = NodeAttributes::for_graph(&g);
    attrs
        .insert_uint("tag", tags.iter().cycle().take(n).copied().collect())
        .unwrap();
    AttributedGraph::new(g, attrs).unwrap()
}

/// A hub over `spokes` ring-linked spokes whose `tag` is `i % tags`:
/// exact bucketing of `tag` gives the hub `tags` groups, more than 64 and
/// not all singletons.
fn hub_network(spokes: u32, tags: u32) -> AttributedGraph {
    let mut b = GraphBuilder::new();
    for i in 0..spokes {
        b.push_edge(i, spokes);
        b.push_edge(i, (i + 1) % spokes);
    }
    let g = b.build().unwrap();
    let mut attrs = NodeAttributes::for_graph(&g);
    attrs
        .insert_uint("tag", (0..=spokes).map(|i| u64::from(i % tags)).collect())
        .unwrap();
    AttributedGraph::new(g, attrs).unwrap()
}

fn network_strategy() -> impl Strategy<Value = AttributedGraph> {
    (
        3usize..28,
        prop::collection::vec((0u32..28, 0u32..28), 0..60),
        prop::collection::vec(0u64..4, 1..28),
    )
        .prop_map(|(n, extra, tags)| build_network(n, &extra, &tags))
}

/// The grouping arms under test: degree quantiles (the paper's default),
/// hashing, and exact-value attribute grouping.
fn mk_strategy(idx: usize) -> Box<dyn GroupingStrategy + Send> {
    match idx {
        0 => Box::new(ByDegree::new()),
        1 => Box::new(ByHash::new(3)),
        _ => Box::new(ByAttribute::with_bucketing("tag", ValueBucketing::Exact)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plan_partitions_every_neighborhood_validly(
        network in network_strategy(),
        strat in 0usize..3,
    ) {
        let strategy = mk_strategy(strat);
        let plan = GroupPlan::build(&network, strategy.as_ref());
        prop_assert_eq!(plan.node_count(), network.graph.node_count());
        let client = SimulatedOsn::new(network.clone());
        let mut keys = Vec::new();
        let mut max_groups = 0usize;
        for v in 0..network.graph.node_count() {
            let v = NodeId(v as u32);
            let neighbors = network.graph.neighbors(v);
            let groups = plan.groups(v);
            prop_assert_eq!(groups.len(), neighbors.len());
            max_groups = max_groups.max(groups.group_count());

            // The flat partition is a permutation of the local indices.
            let mut seen: Vec<u32> = groups.members.to_vec();
            seen.sort_unstable();
            let expected: Vec<u32> = (0..neighbors.len() as u32).collect();
            prop_assert_eq!(seen, expected);

            // Keys strictly ascending; groups contiguous, non-empty, and
            // internally ascending (the scratch derivation's order).
            let mut prev_end = 0usize;
            for g in 0..groups.group_count() {
                if g > 0 {
                    prop_assert!(groups.keys[g - 1] < groups.keys[g]);
                }
                let (start, end) = groups.bounds(g);
                prop_assert_eq!(start, prev_end);
                prop_assert!(end > start, "group {} of {:?} is empty", g, v);
                prev_end = end;
                let members = groups.members_of(g);
                prop_assert!(members.windows(2).all(|w| w[0] < w[1]));
            }
            prop_assert_eq!(prev_end, neighbors.len());

            // The partition groups exactly as the live strategy assigns.
            strategy.assign(&client, neighbors, &mut keys);
            for g in 0..groups.group_count() {
                for &idx in groups.members_of(g) {
                    prop_assert_eq!(keys[idx as usize], groups.keys[g]);
                }
            }

        }
        prop_assert_eq!(plan.max_groups(), max_groups);
        prop_assert!(plan.heap_bytes() > 0);
    }

    #[test]
    fn group_steps_cover_the_population_exactly_once(
        sizes in prop::collection::vec(1usize..8, 1..6),
        seed in 0u64..512,
    ) {
        // An arbitrary partition, fed to the circulation engine's GNRW
        // step directly: every super-cycle must cover the population
        // exactly once (Theorem 4's b(u,v) invariant), before and after
        // the edge promotes.
        let total: usize = sizes.iter().sum();
        let members: Vec<u32> = (0..total as u32).collect();
        let mut ends = Vec::new();
        let mut acc = 0u32;
        for &s in &sizes {
            acc += s as u32;
            ends.push(acc);
        }
        let keys: Vec<u64> = (1..=sizes.len() as u64).map(|k| 10 * k).collect();
        let groups = NodeGroups { members: &members, ends: &ends, keys: &keys };

        let mut engine = GroupEngine::default();
        let mut counts = Vec::new();
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        for cycle in 0..3 {
            let mut drawn = HashSet::new();
            for _ in 0..total {
                let idx = engine.view(7, total).step(Some(&groups), &mut counts, &mut rng);
                prop_assert!(idx < total);
                prop_assert!(drawn.insert(idx), "repeat in super-cycle {}", cycle);
            }
            prop_assert_eq!(drawn.len(), total);
            // The completing draw rewound the cycle: accounting reads zero.
            prop_assert_eq!(engine.total_entries(), 0);
        }
    }
}

/// Walk `steps` steps of `w` from seed `seed` over `network`: the trace,
/// then `tracked_edges`, `history_entries` and the exported state.
fn gnrw_walk(
    network: &AttributedGraph,
    mut w: Gnrw,
    steps: usize,
    seed: u64,
) -> (Vec<NodeId>, usize, usize, String) {
    let mut client = SimulatedOsn::new(network.clone());
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let trace = (0..steps)
        .map(|_| w.step(&mut client, &mut rng).unwrap())
        .collect();
    (
        trace,
        w.tracked_edges(),
        w.history_entries(),
        w.export_state().to_pretty(),
    )
}

/// `steps` CNRW steps over `network` from seed `seed`.
fn cnrw_trace(network: &AttributedGraph, steps: usize, seed: u64) -> Vec<NodeId> {
    let mut client = SimulatedOsn::new(network.clone());
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut w = Cnrw::new(NodeId(0));
    (0..steps)
        .map(|_| w.step(&mut client, &mut rng).unwrap())
        .collect()
}

proptest! {
    // Full walker traces are the expensive arm; fewer cases, same coverage
    // of the graph/strategy/seed space across runs.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn plan_walks_match_cnrw_when_the_grouping_degenerates(
        network in network_strategy(),
        strat in 0usize..3,
        seed in 0u64..256,
    ) {
        // Degenerate groupings collapse GNRW to CNRW; the plan walker must
        // reproduce CNRW draw-for-draw. (Other plans are pinned to the
        // planless walk below.)
        let plan = Arc::new(GroupPlan::build(&network, mk_strategy(strat).as_ref()));
        if plan.degenerate().is_some() {
            let planned = gnrw_walk(&network, Gnrw::with_plan(NodeId(0), plan), 200, seed);
            prop_assert_eq!(planned.0, cnrw_trace(&network, 200, seed));
        }
    }

    /// A plan only changes where a cold edge's partition comes from, so a
    /// non-degenerate plan walker equals the planless walker — trace,
    /// accounting and snapshot — on every grouping arm, and on a hub past
    /// 64 groups walked long enough for its edges to promote.
    #[test]
    fn plan_walks_equal_planless_walks_bit_for_bit(
        network in network_strategy(),
        strat in 0usize..4,
        (spokes, tags) in (66u32..76, 0u32..1000).prop_map(|(s, r)| (s, 65 + r % (s - 65))),
        seed in 0u64..256,
    ) {
        let (network, strategy, steps) = match strat {
            3 => (hub_network(spokes, tags), mk_strategy(2), 4000),
            _ => (network, mk_strategy(strat), 200),
        };
        let plan = Arc::new(GroupPlan::build(&network, strategy.as_ref()));
        if strat == 3 {
            prop_assert!(plan.max_groups() > 64, "{}", plan.max_groups());
        }
        if plan.degenerate().is_none() {
            let planned = gnrw_walk(&network, Gnrw::with_plan(NodeId(0), plan), steps, seed);
            let planless = gnrw_walk(&network, Gnrw::new(NodeId(0), strategy), steps, seed);
            prop_assert_eq!(planned, planless);
        }
    }
}
