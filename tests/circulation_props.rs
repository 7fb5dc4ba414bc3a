//! Property tests for the circulation engine behind CNRW/GNRW history.
//!
//! The invariants pinned here are exactly what Theorems 1–4 lean on, so they
//! must hold for **every** population size and promotion threshold:
//!
//! * each circulation cycle covers the population exactly once;
//! * the first draw of each cycle is uniform over the population;
//! * the hybrid promotion threshold changes *when* the engine materializes
//!   arena slices, never the drawn coverage;
//! * the engine agrees with the paper's hash-set layout ([`oracle`]) on
//!   the `O(K)` accounting (`tracked_edges` / `total_entries`) under
//!   identical draw schedules, and GNRW's traces equal the oracle's bit for
//!   bit.

use proptest::prelude::*;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

use osn_sampling::prelude::*;
use osn_sampling::walks::circulation::{CirculationEngine, INLINE_CAP};
use osn_sampling::walks::history::EdgeHistory;

/// The paper's suggested layout for the walk history (§3.3): a hash map
/// keyed by directed edge whose values are hash sets — the reference the
/// engine is checked against.
mod oracle {
    use std::collections::{BTreeMap, HashMap, HashSet};

    use osn_sampling::prelude::{NodeId, OsnClient};
    use osn_sampling::walks::Grouping;
    use rand::{Rng, RngCore};

    /// CNRW's `b(u, v)`: the neighbors used since the last reset.
    #[derive(Default)]
    pub struct Circulation {
        used: HashMap<(NodeId, NodeId), HashSet<NodeId>>,
    }

    impl Circulation {
        /// Draw uniformly from `population \ b(u, v)`, record the draw, and
        /// reset once the population is covered.
        pub fn draw(
            &mut self,
            u: NodeId,
            v: NodeId,
            population: &[NodeId],
            rng: &mut impl Rng,
        ) -> NodeId {
            let used = self.used.entry((u, v)).or_default();
            let rank = rng.gen_range(0..population.len() - used.len());
            let pick = *population
                .iter()
                .filter(|w| !used.contains(w))
                .nth(rank)
                .expect("rank < unused");
            if used.len() + 1 == population.len() {
                used.clear();
            } else {
                used.insert(pick);
            }
            pick
        }

        pub fn tracked_edges(&self) -> usize {
            self.used.len()
        }

        pub fn total_entries(&self) -> usize {
            self.used.values().map(HashSet::len).sum()
        }

        pub fn used_len(&self, u: NodeId, v: NodeId) -> Option<usize> {
            self.used.get(&(u, v)).map(HashSet::len)
        }
    }

    /// GNRW (Algorithm 2) with `b(u, v)` and `S(u, v)` as hash sets,
    /// drawing from the RNG in the order `Gnrw::new` does: one draw for
    /// the group, one for the member.
    pub struct Gnrw {
        prev: Option<NodeId>,
        current: NodeId,
        edges: HashMap<(NodeId, NodeId), (HashSet<NodeId>, HashSet<u64>)>,
    }

    impl Gnrw {
        pub fn new(start: NodeId) -> Self {
            Gnrw {
                prev: None,
                current: start,
                edges: HashMap::new(),
            }
        }

        pub fn step(
            &mut self,
            client: &mut dyn OsnClient,
            grouping: &Grouping,
            rng: &mut dyn RngCore,
        ) -> NodeId {
            let v = self.current;
            let neighbors = client.neighbors(v).expect("unbudgeted").to_vec();
            let Some(u) = self.prev else {
                self.prev = Some(v);
                self.current = neighbors[rng.gen_range(0..neighbors.len())];
                return self.current;
            };
            let mut keys = Vec::new();
            grouping.assign(&*client, &neighbors, &mut keys);
            let mut groups: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
            for (&key, &w) in keys.iter().zip(&neighbors) {
                groups.entry(key).or_default().push(w);
            }
            let (used, attempted) = self.edges.entry((u, v)).or_default();
            let unvisited =
                |members: &[NodeId]| members.iter().filter(|w| !used.contains(w)).count();
            let candidates = |attempted: &HashSet<u64>| -> Vec<(u64, usize)> {
                groups
                    .iter()
                    .filter(|(key, _)| !attempted.contains(key))
                    .map(|(&key, members)| (key, unvisited(members)))
                    .filter(|&(_, left)| left > 0)
                    .collect()
            };
            let mut open = candidates(attempted);
            if open.is_empty() {
                attempted.clear();
                open = candidates(attempted);
            }
            let mut pick = rng.gen_range(0..open.iter().map(|&(_, left)| left).sum::<usize>());
            let &(key, left) = open
                .iter()
                .find(|&&(_, left)| {
                    let hit = pick < left;
                    if !hit {
                        pick -= left;
                    }
                    hit
                })
                .expect("pick < total");
            let rank = rng.gen_range(0..left);
            let next = *groups[&key]
                .iter()
                .filter(|w| !used.contains(w))
                .nth(rank)
                .expect("rank < unvisited");
            attempted.insert(key);
            used.insert(next);
            if used.len() == neighbors.len() {
                used.clear();
                attempted.clear();
            }
            self.prev = Some(v);
            self.current = next;
            next
        }

        pub fn tracked_edges(&self) -> usize {
            self.edges.len()
        }

        pub fn history_entries(&self) -> usize {
            self.edges.values().map(|(used, _)| used.len()).sum()
        }
    }
}

fn population(n: usize) -> Vec<NodeId> {
    (0..n as u32).map(NodeId).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_cycle_covers_the_population_exactly_once(
        // Up to 150 so populations beyond PROMOTION_SPAN * INLINE_CAP = 64
        // exercise the spill stage, not just inline -> promoted.
        n in 1usize..150,
        threshold in 1usize..9,
        seed in 0u64..1000,
    ) {
        let pop = population(n);
        let mut engine = CirculationEngine::with_threshold(threshold);
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        for cycle in 0..3 {
            let mut seen = std::collections::HashSet::new();
            for _ in 0..n {
                let d = engine.draw(7, &pop, &mut rng).unwrap();
                prop_assert!(seen.insert(d), "repeat in cycle {} (t={})", cycle, threshold);
            }
            prop_assert_eq!(seen.len(), n);
            // The completing draw rewound the cycle: accounting reads zero.
            prop_assert_eq!(engine.used_len(7), Some(0));
        }
    }

    #[test]
    fn first_draw_of_each_cycle_is_uniform(
        n in 2usize..9,
        threshold in 1usize..9,
    ) {
        // Chi-square-ish bound: 600 fresh engines, each first draw must be
        // uniform over the population. With 600/n expected per item, a 0.45x
        // to 1.8x band is ~10 sigma — loose enough to never flake, tight
        // enough to catch any positional bias.
        let pop = population(n);
        let mut counts = vec![0usize; n];
        for seed in 0..600u64 {
            let mut engine = CirculationEngine::with_threshold(threshold);
            let mut rng = ChaCha12Rng::seed_from_u64(9000 + seed);
            let d = engine.draw(1, &pop, &mut rng).unwrap();
            counts[d.index()] += 1;
        }
        let expected = 600.0 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            prop_assert!(
                (c as f64) > 0.45 * expected && (c as f64) < 1.8 * expected,
                "item {} drawn {} times, expected ~{:.0}",
                i, c, expected
            );
        }
    }

    #[test]
    fn promotion_threshold_never_changes_the_drawn_set(
        // Crosses the spill boundary (n > 64) for part of the range.
        n in 2usize..120,
        seed in 0u64..500,
    ) {
        // Any threshold yields the same per-cycle coverage guarantee: after
        // k draws, the current cycle holds exactly (k mod n) distinct items
        // and every completed cycle covered all n. Run every admissible
        // threshold over the same population and check the cycle-set
        // invariant at every prefix length.
        for threshold in 1..=INLINE_CAP {
            let pop = population(n);
            let mut engine = CirculationEngine::with_threshold(threshold);
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut cycle: Vec<NodeId> = Vec::new();
            for k in 1..=(2 * n + 3) {
                let d = engine.draw(3, &pop, &mut rng).unwrap();
                prop_assert!(!cycle.contains(&d), "repeat mid-cycle (t={})", threshold);
                cycle.push(d);
                if cycle.len() == n {
                    let mut ids: Vec<u32> = cycle.iter().map(|v| v.0).collect();
                    ids.sort_unstable();
                    let want: Vec<u32> = (0..n as u32).collect();
                    prop_assert_eq!(ids, want, "cycle not a cover (t={})", threshold);
                    cycle.clear();
                }
                prop_assert_eq!(engine.used_len(3), Some(k % n), "t={}", threshold);
            }
        }
    }

    #[test]
    fn backends_agree_on_accounting(
        seed in 0u64..500,
        edges in 2usize..6,
    ) {
        // Identical draw schedules over several edges with different
        // degrees: the O(K) bookkeeping the memory-profile experiments
        // read must match the paper's layout at every step.
        let populations: Vec<Vec<NodeId>> =
            (0..edges).map(|e| population(1 + e * 7)).collect();
        let mut oracle = oracle::Circulation::default();
        let mut engine = EdgeHistory::new();
        let mut rng_o = ChaCha12Rng::seed_from_u64(seed);
        let mut rng_e = ChaCha12Rng::seed_from_u64(seed ^ 0xabcd);
        let mut schedule = ChaCha12Rng::seed_from_u64(seed.wrapping_mul(31));
        for _ in 0..300 {
            let e = schedule.gen_range(0..edges);
            let (u, v) = (NodeId(e as u32), NodeId(e as u32 + 100));
            oracle.draw(u, v, &populations[e], &mut rng_o);
            engine.draw(u, v, &populations[e], &mut rng_e).unwrap();
            prop_assert_eq!(oracle.tracked_edges(), engine.tracked_edges());
            prop_assert_eq!(oracle.total_entries(), engine.total_entries());
            prop_assert_eq!(oracle.used_len(u, v), engine.get_used_len(u, v));
        }
    }

    #[test]
    fn cnrw_and_the_oracle_circulate_hot_edges_alike(
        seed in 0u64..40,
    ) {
        // Walk the same graph with CNRW and with the oracle's circulation:
        // different RNG consumption means different traces, but windows of
        // deg(v) choices after repeated (u,v)-transits must be permutations
        // of N(v) for both. The graph forces every 0->1 transit through one
        // hot edge.
        let g = osn_sampling::graph::GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(1, 3)
            .add_edge(1, 4)
            .add_edge(2, 0)
            .add_edge(3, 0)
            .add_edge(4, 0)
            .build()
            .unwrap();
        let mut engine = Cnrw::new(NodeId(0));
        let mut oracle = oracle::Circulation::default();
        let mut oracle_at = (None, NodeId(0));
        for use_oracle in [false, true] {
            let mut client = SimulatedOsn::from_graph(g.clone());
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut step = |client: &mut SimulatedOsn, rng: &mut ChaCha12Rng| {
                if !use_oracle {
                    return engine.step(client, rng).unwrap();
                }
                let (prev, v) = oracle_at;
                let neighbors = client.neighbors(v).unwrap();
                let next = match prev {
                    None => neighbors[rng.gen_range(0..neighbors.len())],
                    Some(u) => oracle.draw(u, v, neighbors, rng),
                };
                oracle_at = (Some(v), next);
                next
            };
            let mut after = Vec::new();
            let mut prev = NodeId(0);
            for _ in 0..1500 {
                let curr = step(&mut client, &mut rng);
                if prev == NodeId(0) && curr == NodeId(1) {
                    let nxt = step(&mut client, &mut rng);
                    after.push(nxt);
                    prev = nxt;
                    continue;
                }
                prev = curr;
            }
            for win in after.chunks_exact(4) {
                let mut ids: Vec<u32> = win.iter().map(|n| n.0).collect();
                ids.sort_unstable();
                prop_assert_eq!(ids, vec![0, 2, 3, 4], "window not a cover");
            }
        }
    }
}

/// GNRW draws the RNG in the same order as the oracle, so full traces (not
/// just distributions) must agree — the strongest possible equivalence
/// witness for the group engine. Plain test (one seeded graph sweep, no
/// strategies needed from proptest).
#[test]
fn gnrw_backends_agree_bit_for_bit_on_random_graphs() {
    use osn_sampling::graph::generators::erdos_renyi;
    for seed in 0..8u64 {
        let g = erdos_renyi(40, 0.2, seed).unwrap();
        let walk = |use_oracle: bool| {
            let mut client = SimulatedOsn::from_graph(g.clone());
            let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x5a5a);
            if use_oracle {
                let grouping = Grouping::by_degree();
                let mut w = oracle::Gnrw::new(NodeId(0));
                let trace: Vec<NodeId> = (0..4000)
                    .map(|_| w.step(&mut client, &grouping, &mut rng))
                    .collect();
                (trace, w.tracked_edges(), w.history_entries())
            } else {
                let mut w = Gnrw::new(NodeId(0), Grouping::by_degree());
                let trace: Vec<NodeId> = (0..4000)
                    .map(|_| w.step(&mut client, &mut rng).unwrap())
                    .collect();
                (trace, w.tracked_edges(), w.history_entries())
            }
        };
        assert_eq!(walk(true), walk(false), "seed {seed}");
    }
}

/// ROADMAP arena follow-up: `restart()` must *reuse* the circulation arena
/// slab, not drop it. The observable is `Vec::capacity`: after a restart
/// the arena reads empty but keeps its buffer, and replaying an identical
/// walk fills it back up without a single re-allocation.
#[test]
fn arena_slab_is_reused_across_restarts() {
    use osn_sampling::graph::generators::erdos_renyi;
    let g = erdos_renyi(60, 0.25, 5).unwrap();
    let walk = |w: &mut Cnrw, seed: u64| {
        let mut client = SimulatedOsn::from_graph(g.clone());
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        for _ in 0..3_000 {
            w.step(&mut client, &mut rng).unwrap();
        }
    };
    let mut w = Cnrw::new(NodeId(0));
    walk(&mut w, 11);
    let capacity = w.arena_capacity();
    assert!(capacity > 0, "walk long enough to promote edges");
    assert!(w.tracked_edges() > 0);

    w.restart(NodeId(0));
    // History is gone; the slab is not.
    assert_eq!(w.tracked_edges(), 0);
    assert_eq!(
        w.arena_capacity(),
        capacity,
        "restart() dropped the arena slab instead of reusing it"
    );

    // The identical walk replays entirely inside the retained buffer.
    walk(&mut w, 11);
    assert_eq!(
        w.arena_capacity(),
        capacity,
        "replaying the same walk re-allocated the arena"
    );
}

/// Same contract for GNRW's twin-arena group engine.
#[test]
fn group_arena_slab_is_reused_across_restarts() {
    use osn_sampling::graph::generators::erdos_renyi;
    let g = erdos_renyi(60, 0.25, 6).unwrap();
    let walk = |w: &mut Gnrw, seed: u64| {
        let mut client = SimulatedOsn::from_graph(g.clone());
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        for _ in 0..3_000 {
            w.step(&mut client, &mut rng).unwrap();
        }
    };
    let mut w = Gnrw::new(NodeId(0), Grouping::by_degree());
    walk(&mut w, 12);
    let capacity = w.arena_capacity();
    assert!(capacity > 0, "walk long enough to promote edges");

    w.restart(NodeId(0));
    assert_eq!(w.tracked_edges(), 0);
    assert_eq!(w.arena_capacity(), capacity);
    walk(&mut w, 12);
    assert_eq!(
        w.arena_capacity(),
        capacity,
        "replaying the same walk re-allocated the group arenas"
    );
}

/// Engine-level pin of the same contract.
#[test]
fn engine_clear_preserves_arena_capacity() {
    let pop = population(40);
    let mut engine = CirculationEngine::with_threshold(1);
    let mut rng = ChaCha12Rng::seed_from_u64(3);
    for _ in 0..10 {
        engine.draw(0, &pop, &mut rng).unwrap();
    }
    let capacity = engine.arena_capacity();
    assert!(capacity >= 40);
    engine.clear();
    assert_eq!(engine.tracked(), 0);
    assert_eq!(engine.arena_capacity(), capacity);
    assert_eq!(EdgeHistory::new().arena_capacity(), 0);
}
