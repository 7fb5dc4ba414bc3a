//! Property tests for the precomputed [`GroupPlan`] layer behind plan-backed
//! GNRW.
//!
//! The plan is a build-time artifact the hot loop trusts blindly — a wrong
//! partition silently biases every plan-backed walk — so its invariants are
//! pinned over *arbitrary* graphs and grouping strategies, not just the
//! hand-built fixtures:
//!
//! * each node's flat partition is a valid permutation of its neighbor
//!   indices, grouped exactly as the live strategy would assign, with keys
//!   ascending and members ascending within each group (the order the
//!   planless step derives, which the >64-group fallback's bit-identity
//!   leans on);
//! * alias tables sample groups proportionally to their member counts
//!   (chi-square-ish frequency bound);
//! * the circulation engine's plan path covers the population exactly once
//!   per super-cycle — Theorem 4's b(u,v) invariant — with and without an
//!   alias table, for arbitrary group shapes;
//! * a plan-backed walker reproduces CNRW draw-for-draw when the grouping
//!   degenerates (every group a singleton, or one group per
//!   neighborhood), and otherwise walks the graph's edges.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

use osn_sampling::graph::attributes::{AttributedGraph, NodeAttributes};
use osn_sampling::prelude::*;
use osn_sampling::walks::circulation::GroupEngine;
use osn_sampling::walks::grouping::{GroupingStrategy, ValueBucketing};
use osn_sampling::walks::groupplan::{AliasTable, DrawBatch, NodeGroups};

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

            // An alias table exists exactly when there is a group choice.
            match plan.alias(v) {
                Some(table) => prop_assert_eq!(table.len(), groups.group_count()),
                None => prop_assert!(groups.group_count() < 2),
            }
        }
        prop_assert_eq!(plan.max_groups(), max_groups);
        prop_assert!(plan.heap_bytes() > 0);
    }

    #[test]
    fn alias_tables_sample_groups_proportionally_to_weight(
        weights in prop::collection::vec(1u64..40, 1..7),
        seed in 0u64..512,
    ) {
        let table = AliasTable::new(&weights);
        prop_assert_eq!(table.len(), weights.len());
        let total: u64 = weights.iter().sum();
        let draws = 6000usize;
        let mut rng = ChaCha12Rng::seed_from_u64(0xA11A5 ^ seed);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            let g = table.sample(rng.next_u64());
            prop_assert!(g < weights.len());
            counts[g] += 1;
        }
        for (g, &w) in weights.iter().enumerate() {
            let p = w as f64 / total as f64;
            let f = counts[g] as f64 / draws as f64;
            // ~6 sigma at 6000 draws — tight enough to catch a mis-built
            // column, loose enough to never flake across the case sweep.
            prop_assert!(
                (f - p).abs() < 0.045 + 0.05 * p,
                "group {} drew {:.4}, expected {:.4} (weights {:?})",
                g, f, p, &weights
            );
        }
    }

    #[test]
    fn plan_path_super_cycles_cover_population_exactly_once(
        sizes in prop::collection::vec(1usize..8, 1..6),
        seed in 0u64..512,
        with_alias in prop::bool::ANY,
    ) {
        // An arbitrary partition, fed to the circulation engine's plan path
        // directly: every super-cycle must cover the population exactly
        // once (Theorem 4's b(u,v) invariant), whether groups are proposed
        // through the alias table or the remaining-weighted scan.
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
        let weights: Vec<u64> = sizes.iter().map(|&s| s as u64).collect();
        let alias = AliasTable::new(&weights);
        let alias_ref = if with_alias { Some(&alias) } else { None };

        let mut engine = GroupEngine::default();
        let mut batch = DrawBatch::new();
        let mut rem = Vec::new();
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        for cycle in 0..3 {
            let mut drawn = HashSet::new();
            for _ in 0..total {
                let idx = engine
                    .plan_view(7, &groups)
                    .draw(&groups, alias_ref, &mut batch, &mut rng, &mut rem);
                prop_assert!(idx < total);
                prop_assert!(drawn.insert(idx), "repeat in super-cycle {}", cycle);
            }
            prop_assert_eq!(drawn.len(), total);
            // The completing draw rewound the cycle: accounting reads zero.
            prop_assert_eq!(engine.total_entries(), 0);
        }
    }
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
        let plan = Arc::new(GroupPlan::build(&network, mk_strategy(strat).as_ref()));
        let steps = 200usize;
        let trace = |mut w: Box<dyn RandomWalk + Send>| {
            let mut client = SimulatedOsn::new(network.clone());
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut out = Vec::with_capacity(steps);
            for _ in 0..steps {
                out.push(w.step(&mut client, &mut rng).unwrap());
            }
            out
        };
        let planned = trace(Box::new(Gnrw::with_plan(NodeId(0), Arc::clone(&plan))));
        if plan.degenerate().is_some() {
            // Degenerate groupings collapse GNRW to CNRW; the plan walker
            // must reproduce CNRW draw-for-draw.
            let cnrw = trace(Box::new(Cnrw::new(NodeId(0))));
            prop_assert_eq!(planned, cnrw);
        } else {
            // Alias draws reorder the planless walk's draws — Theorem 4
            // keeps the distribution, not the trace — and every transition
            // still follows an edge.
            let mut at = NodeId(0);
            for &v in &planned {
                prop_assert!(network.graph.neighbors(at).contains(&v), "{:?} -> {:?}", at, v);
                at = v;
            }
        }
    }
}
