//! Property tests for the partitions of `N(v)` that GNRW's exact cold
//! step reads, and for the per-walker memo that keeps them.
//!
//! A wrong partition silently biases every walk, and a memo entry is read
//! back for every later cold visit to its node, so the invariants are
//! pinned over *arbitrary* graphs and groupings, not just the hand-built
//! fixtures:
//!
//! * each node's partition, as the memo stores it — the grouping's keys,
//!   then `partition_by_key` — is a valid permutation of its neighbor
//!   indices, grouped exactly as the grouping assigns, with keys ascending
//!   across groups and members ascending within each group;
//! * the circulation engine's GNRW step covers the population exactly once
//!   per super-cycle — Theorem 4's b(u,v) invariant — for arbitrary group
//!   shapes;
//! * a walker that reads its memo is the walker that derives every
//!   partition anew, bit for bit — trace, accounting and snapshot — for
//!   every grouping arm, the two extremes where GNRW walks CNRW's law
//!   (every group a singleton, or one group per neighborhood) included,
//!   and past 64 groups at a node.

use std::collections::HashSet;

use proptest::prelude::*;

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use osn_sampling::graph::attributes::{AttributedGraph, NodeAttributes};
use osn_sampling::graph::partition::{partition_by_key, FlatPartition};
use osn_sampling::prelude::*;
use osn_sampling::walks::circulation::{GroupEngine, NodeGroups};
use osn_sampling::walks::grouping::ValueBucketing;

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

/// Number of grouping arms [`mk_grouping`] builds.
const GROUPINGS: usize = 5;

/// The grouping arms under test: degree quantiles (the paper's default),
/// hashing, exact-value attribute grouping, and the two extremes where GNRW
/// walks CNRW's law — every neighbor its own group, and one group.
fn mk_grouping(idx: usize) -> Grouping {
    match idx {
        0 => Grouping::by_degree(),
        1 => Grouping::by_hash(3),
        2 => Grouping::attribute_bucketed("tag", ValueBucketing::Exact),
        3 => Grouping::by_node(),
        _ => Grouping::by_hash(1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn partitions_cover_every_neighborhood_validly(
        network in network_strategy(),
        strat in 0usize..GROUPINGS,
    ) {
        let grouping = mk_grouping(strat);
        let client = SimulatedOsn::new(network.clone());
        let mut keys = Vec::new();
        let mut part = FlatPartition::default();
        for v in 0..network.graph.node_count() {
            let v = NodeId(v as u32);
            let neighbors = network.graph.neighbors(v);
            // The derivation a memo miss runs and stores.
            grouping.assign(&client, neighbors, &mut keys);
            partition_by_key(&keys, &mut part);
            let groups = NodeGroups { members: &part.perm, ends: &part.ends };
            prop_assert_eq!(groups.len(), neighbors.len());

            // The flat partition is a permutation of the local indices.
            let mut seen: Vec<u32> = groups.members.to_vec();
            seen.sort_unstable();
            let expected: Vec<u32> = (0..neighbors.len() as u32).collect();
            prop_assert_eq!(seen, expected);

            // Groups contiguous, non-empty, and internally ascending (the
            // scratch derivation's order).
            let mut prev_end = 0usize;
            for g in 0..groups.group_count() {
                let (start, end) = groups.bounds(g);
                prop_assert_eq!(start, prev_end);
                prop_assert!(end > start, "group {} of {:?} is empty", g, v);
                prev_end = end;
                let members = groups.members_of(g);
                prop_assert!(members.windows(2).all(|w| w[0] < w[1]));
            }
            prop_assert_eq!(prev_end, neighbors.len());

            // The partition groups exactly as the grouping assigns: one key
            // per group, keys strictly ascending across groups.
            let mut prev_key = None;
            for g in 0..groups.group_count() {
                let key = keys[groups.members_of(g)[0] as usize];
                prop_assert!(prev_key < Some(key), "group {} of {:?} out of key order", g, v);
                for &idx in groups.members_of(g) {
                    prop_assert_eq!(keys[idx as usize], key);
                }
                prev_key = Some(key);
            }
        }
    }

    #[test]
    fn group_steps_cover_the_population_exactly_once(
        sizes in prop::collection::vec(1usize..8, 1..6),
        seed in 0u64..512,
        rejection in prop::bool::ANY,
    ) {
        // An arbitrary partition, fed to the circulation engine's GNRW
        // step directly: every super-cycle must cover the population
        // exactly once (Theorem 4's b(u,v) invariant), before and after
        // the edge promotes. With `rejection`, each step first tries the
        // step by rejection, keyed by group index, and takes the exact
        // step only when that one declines: every pick it accepts must be
        // unvisited, in a group outside the current sub-cycle's.
        let total: usize = sizes.iter().sum();
        let members: Vec<u32> = (0..total as u32).collect();
        let mut ends = Vec::new();
        let mut acc = 0u32;
        for &s in &sizes {
            acc += s as u32;
            ends.push(acc);
        }
        let groups = NodeGroups { members: &members, ends: &ends };
        let group_of = |i: usize| ends.iter().position(|&end| i < end as usize).unwrap() as u64;

        let mut engine = GroupEngine::default();
        let (mut counts, mut keys) = (Vec::new(), Vec::new());
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        for cycle in 0..3 {
            let mut drawn = HashSet::new();
            // S(u, v): the groups of the current sub-cycle's picks.
            let mut attempted = HashSet::new();
            for _ in 0..total {
                let mut view = engine.view(7, total);
                let accepted = if rejection {
                    view.step_by_rejection(total, group_of, &mut keys, &mut rng)
                } else {
                    None
                };
                let idx = match accepted {
                    Some(idx) => {
                        prop_assert!(!drawn.contains(&idx), "accepted visited {}", idx);
                        prop_assert!(
                            !attempted.contains(&group_of(idx)),
                            "accepted {} of an attempted group", idx
                        );
                        idx
                    }
                    None => view.step(Some(&groups), &mut counts, &mut rng),
                };
                prop_assert!(idx < total);
                // The sub-cycle resets when no unvisited member is outside
                // the attempted groups.
                if (0..total).all(|m| drawn.contains(&m) || attempted.contains(&group_of(m))) {
                    attempted.clear();
                }
                prop_assert!(drawn.insert(idx), "repeat in super-cycle {}", cycle);
                attempted.insert(group_of(idx));
                if drawn.len() < total {
                    prop_assert_eq!(engine.probe(7), Some((drawn.len(), attempted.len())));
                }
            }
            prop_assert_eq!(drawn.len(), total);
            // The completing draw rewound the cycle: accounting reads zero.
            prop_assert_eq!(engine.total_entries(), 0);
        }
    }
}

/// Walk `steps` steps of a `grouping` walker from seed `seed` over
/// `network`: the trace, then `tracked_edges`, `history_entries` and the
/// exported state. With `uncached`, the walker invalidates an empty node
/// set before every step, which clears its memo and drops no edge, so each
/// exact cold step derives its partition anew.
fn gnrw_walk(
    network: &AttributedGraph,
    grouping: &Grouping,
    uncached: bool,
    steps: usize,
    seed: u64,
) -> (Vec<NodeId>, usize, usize, String) {
    let mut w = Gnrw::new(NodeId(0), grouping.clone());
    let mut client = SimulatedOsn::new(network.clone());
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let nothing = TouchedNodes::new(&[]);
    let trace = (0..steps)
        .map(|_| {
            if uncached {
                assert_eq!(w.invalidate_nodes(&nothing), 0);
            }
            w.step(&mut client, &mut rng).unwrap()
        })
        .collect();
    (
        trace,
        w.tracked_edges(),
        w.history_entries(),
        w.export_state().to_pretty(),
    )
}

proptest! {
    // Full walker traces are the expensive arm; fewer cases, same coverage
    // of the graph/grouping/seed space across runs.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A memo hit gives the partition a miss derives, so a walker that
    /// reads its memo equals one whose memo is cleared before every step —
    /// trace, accounting and snapshot — on every grouping arm, the two
    /// extremes where GNRW walks CNRW's law included, and, one case in
    /// four, on a hub past 64 groups walked long enough for its edges to
    /// promote.
    #[test]
    fn memo_walks_equal_uncached_walks_bit_for_bit(
        network in network_strategy(),
        hub in 0usize..4,
        (spokes, tags) in (66u32..76, 0u32..1000).prop_map(|(s, r)| (s, 65 + r % (s - 65))),
        seed in 0u64..256,
    ) {
        let mut arms: Vec<_> = (0..GROUPINGS)
            .map(|i| (network.clone(), mk_grouping(i), 200))
            .collect();
        if hub == 0 {
            let network = hub_network(spokes, tags);
            let client = SimulatedOsn::new(network.clone());
            let mut keys = Vec::new();
            mk_grouping(2).assign(&client, network.graph.neighbors(NodeId(spokes)), &mut keys);
            let mut part = FlatPartition::default();
            partition_by_key(&keys, &mut part);
            prop_assert!(part.group_count() > 64, "{}", part.group_count());
            arms.push((network, mk_grouping(2), 4000));
        }
        for (network, grouping, steps) in arms {
            prop_assert_eq!(
                gnrw_walk(&network, &grouping, false, steps, seed),
                gnrw_walk(&network, &grouping, true, steps, seed)
            );
        }
    }
}
