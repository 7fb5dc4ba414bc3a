//! History state for circulated (without-replacement) transitions.
//!
//! CNRW's entire memory is the map `b(u, v)` (paper Algorithm 1): for every
//! directed edge `(u, v)` the walk has traversed, the neighbors of `v`
//! already chosen as outgoing transitions since the last reset. GNRW extends
//! this with a per-edge set of *groups* already attempted, `S(u, v)`
//! (Algorithm 2). [`EdgeHistory`] and [`GroupHistory`] key both by directed
//! edge over the [`crate::circulation`] engine: every hot edge owns a slice
//! of one shared arena holding a permutation of its candidate population
//! plus a cursor, so a draw is one partial-Fisher–Yates step (one
//! `gen_range`, one swap) and a reset is a cursor rewind. Cold edges stage
//! through an inline state that allocates nothing per edge, then a spill
//! state (`O(draws)` memory each), and promote only once the slice would
//! cost at most
//! [`crate::circulation::PROMOTION_SPAN`]` ×` their recorded draws — so
//! arena memory stays `O(K)` (within that constant) even on heavy-tailed
//! graphs.
//!
//! The paper suggests a hash map of hash sets for this state (§3.3). The
//! engine keeps its semantics — each cycle covers the population exactly
//! once, the first pick of each cycle is uniform — so Theorems 1–4 apply
//! unchanged; it differs only in cost. Per-draw cost, on top of the one
//! edge-key map lookup both layouts pay:
//!
//! | Operation | Hash set per edge (§3.3) | Arena (partial Fisher–Yates) |
//! |---|---|---|
//! | draw, pre-promotion (cold edge) | `O(1)` **expected** (rejection + hash probes) | `O(1)` **expected** (bounded rejection; inline probes are hash-free) |
//! | draw, promoted (hot edge) | — (never promotes) | `O(1)` **exact**, no membership hashing |
//! | draw, `≥ ½` population used | `O(deg)` rank scan | `O(1)` **exact** (half-used always promotes) |
//! | cycle reset | `O(deg)` set clear | `O(1)` cursor rewind |
//! | GNRW step | `O(deg)` hash probes | while cold, `O(1)` expected proposals by rejection under a grouping that keys each node alone, else `O(deg)` probes (inline ones hash-free); `O(groups)` and none once promoted |
//! | per-edge memory after `k` draws | `O(k)` set entries behind a 40-byte map entry and a table of its own | a 24-byte map entry (32 for GNRW) holding up to 3 picks (GNRW: 4), then all `k ≤ 8` in a 32-byte pool chunk, then `O(k)` spill-set entries → slice `≤ PROMOTION_SPAN·k` once promoted |
//!
//! Space grows by at most one entry per walk step between resets, giving
//! the `O(K)` bound of §3.3; [`EdgeHistory::total_entries`] and
//! [`EdgeHistory::tracked_edges`] report it. The hash-set layout survives
//! as the reference the property tests compare the engine against.
//!
//! A GNRW edge's exact step runs on `N(v)`'s partition. [`GroupHistory`]
//! takes it from the walker while the edge is cold — unless the edge's
//! step by rejection, which reads only the keys of the members it
//! proposes, accepts a pick first — and freezes it when the edge promotes,
//! so a hot edge never asks for it again; a snapshot carries the frozen
//! partition with the rest of the edge's state.

use osn_graph::NodeId;
use osn_serde::Value;
use rand::Rng;

use crate::circulation::{CirculationEngine, GroupEngine};
pub use crate::circulation::{GroupEdgeView, INLINE_CAP};

#[inline]
pub(crate) fn edge_key(u: NodeId, v: NodeId) -> u64 {
    (u64::from(u.0) << 32) | u64::from(v.0)
}

/// The nodes whose neighbor lists one batch of mutations changed, as a set
/// every history can probe — the argument of
/// [`RandomWalk::invalidate_nodes`](crate::RandomWalk::invalidate_nodes).
///
/// Built once per batch and shared by every walker of a fleet, so the
/// fleet pays one sweep per walker history (one probe per slot) instead of
/// one sweep per touched node. The constructor accepts any order and
/// duplicates; it sorts and deduplicates, which is what makes
/// [`contains`](Self::contains) exact — no caller-side precondition.
#[derive(Clone, Debug)]
pub struct TouchedNodes {
    /// Ascending, no duplicates.
    sorted: Vec<NodeId>,
    /// One bit per [`filter_bit`] value, set for every member: about 16
    /// bits per member, so one load rejects almost every non-member —
    /// which is almost every slot a sweep probes — before the binary
    /// search.
    filter: Vec<u64>,
    /// `32 − log2(filter bits)`.
    shift: u32,
}

/// Filter bit of `v`: the top bits of a multiplicative hash, so ids that
/// share low bits still spread.
#[inline]
fn filter_bit(v: NodeId, shift: u32) -> usize {
    (v.0.wrapping_mul(0x9E37_79B9) >> shift) as usize
}

impl TouchedNodes {
    /// The set of `nodes`, in any order, duplicates allowed.
    pub fn new(nodes: &[NodeId]) -> Self {
        let mut sorted = nodes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let log2_bits = sorted
            .len()
            .saturating_mul(16)
            .next_power_of_two()
            .trailing_zeros()
            .clamp(6, 31);
        let shift = 32 - log2_bits;
        let mut filter = vec![0u64; 1 << (log2_bits - 6)];
        for &v in &sorted {
            let b = filter_bit(v, shift);
            filter[b / 64] |= 1 << (b % 64);
        }
        TouchedNodes {
            sorted,
            filter,
            shift,
        }
    }

    /// Whether `node` is in the set: one filter load, then a binary search
    /// for the few that pass it.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let b = filter_bit(node, self.shift);
        self.filter[b / 64] & (1 << (b % 64)) != 0 && self.sorted.binary_search(&node).is_ok()
    }

    /// The members, ascending, each once.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.sorted.iter().copied()
    }
}

/// CNRW's full history: `(u, v) -> b(u, v)`.
///
/// Keys are directed edges packed into a `u64`; the node-keyed ablation
/// walker reuses the same structure with `u = v`.
#[derive(Clone, Debug, Default)]
pub struct EdgeHistory {
    engine: CirculationEngine,
}

impl EdgeHistory {
    /// New empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draw the next transition for directed edge `(u, v)` uniformly from
    /// the unused part of `population`, creating the edge's circulation
    /// state on first touch. Returns `None` only for an empty population.
    ///
    /// `population` must be identical across draws of the same edge (true
    /// for static snapshots).
    pub fn draw<R: Rng + ?Sized>(
        &mut self,
        u: NodeId,
        v: NodeId,
        population: &[NodeId],
        rng: &mut R,
    ) -> Option<NodeId> {
        self.engine.draw(edge_key(u, v), population, rng)
    }

    /// Used-item count of edge `(u, v)`'s current cycle, or `None` if the
    /// edge has no live state. Never creates state (read-only probe).
    pub fn get_used_len(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.engine.used_len(edge_key(u, v))
    }

    /// Number of directed edges with live history.
    pub fn tracked_edges(&self) -> usize {
        self.engine.tracked()
    }

    /// Total number of recorded used-entries across all edges (the `O(K)`
    /// quantity of §3.3).
    pub fn total_entries(&self) -> usize {
        self.engine.total_entries()
    }

    /// Drop all history (the walker becomes memoryless again). The arena
    /// buffer survives at full capacity (see [`CirculationEngine::clear`]),
    /// so a restarted walk re-promotes without re-allocating.
    pub fn clear(&mut self) {
        self.engine.clear();
    }

    /// Allocated arena capacity in entries. Unchanged by [`Self::clear`] —
    /// the observable of the restart slab-reuse contract.
    pub fn arena_capacity(&self) -> usize {
        self.engine.arena_capacity()
    }

    /// Drop the circulation state of every directed edge `(*, v)` with `v`
    /// accepted by `is_touched` — every key whose population is such an
    /// `N(v)`. The evolving-graph invalidation rule: after a mutation at
    /// `v`, the old circulations tracked subsets of a population that no
    /// longer exists, so they are dropped and Theorem 4's exactly-once
    /// coverage restarts on the post-mutation neighborhood. One pass over
    /// the history, however many nodes the predicate accepts. Returns the
    /// number of edges dropped.
    pub fn invalidate_targets(&mut self, is_touched: impl Fn(NodeId) -> bool) -> usize {
        self.engine.invalidate_targets(|v| is_touched(NodeId(v)))
    }

    /// Serialize the full history — the engine's state — to a [`Value`]
    /// tree. [`import_state`](Self::import_state) restores it exactly, so a
    /// resumed walker continues **bit-identically** on the same RNG stream.
    pub fn export_state(&self) -> Value {
        self.engine.export_state()
    }

    /// Rebuild a history from [`export_state`](Self::export_state) output.
    ///
    /// # Errors
    /// Returns a message when the tree is malformed or fails the engine's
    /// consistency checks.
    pub fn import_state(state: &Value) -> Result<Self, String> {
        Ok(EdgeHistory {
            engine: CirculationEngine::import_state(state)?,
        })
    }
}

/// Read-only summary of one edge's GNRW state (what a non-creating probe
/// can tell without exposing engine internals).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupEdgeSnapshot {
    /// Neighbors chosen in the current super-cycle (`|b(u, v)|`).
    pub used_nodes: usize,
    /// Groups attempted in the current sub-cycle (`|S(u, v)|`).
    pub attempted_groups: usize,
}

/// GNRW's full history: `(u, v) -> (b(u, v), S(u, v))` (paper Algorithm 2
/// / §4.1 steps 1–4).
///
/// * `b(u, v)` is **global**: every neighbor chosen in the current
///   super-cycle; it resets when it reaches `N(v)`. This global circulation
///   is what guarantees every neighbor is chosen exactly once per
///   super-cycle and hence preserves the stationary distribution
///   (Theorem 4) for *any* group sizes.
/// * `S(u, v)` holds the groups attempted in the current group sub-cycle;
///   it resets whenever no un-attempted group still has unvisited members
///   (and along with `b(u, v)` at super-cycle end). The group circulation
///   only shapes the *order* in which the super-cycle covers `N(v)` — the
///   stratified alternation of Figure 5.
#[derive(Clone, Debug, Default)]
pub struct GroupHistory {
    engine: GroupEngine,
}

impl GroupHistory {
    /// New empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable view of directed edge `(u, v)`'s state, created on first
    /// touch, through which the walker runs Algorithm 2's step
    /// ([`GroupEdgeView::step`]). `population_len` (`|N(v)|`) must be
    /// stable across visits.
    pub fn edge_view(&mut self, u: NodeId, v: NodeId, population_len: usize) -> GroupEdgeView<'_> {
        self.engine.view(edge_key(u, v), population_len)
    }

    /// The state of `(u, v)` if it exists. Never creates state — use this
    /// (not [`edge_view`](Self::edge_view)) for read-only probes.
    pub fn get(&self, u: NodeId, v: NodeId) -> Option<GroupEdgeSnapshot> {
        self.engine
            .probe(edge_key(u, v))
            .map(|(used_nodes, attempted_groups)| GroupEdgeSnapshot {
                used_nodes,
                attempted_groups,
            })
    }

    /// Number of directed edges with live state.
    pub fn tracked_edges(&self) -> usize {
        self.engine.tracked()
    }

    /// Total recorded node entries across all edges (the `O(K)` quantity).
    pub fn total_entries(&self) -> usize {
        self.engine.total_entries()
    }

    /// Drop all history, keeping slab allocations for reuse (see
    /// [`EdgeHistory::clear`]).
    pub fn clear(&mut self) {
        self.engine.clear();
    }

    /// Allocated arena capacity in entries. Unchanged by [`Self::clear`].
    pub fn arena_capacity(&self) -> usize {
        self.engine.arena_capacity()
    }

    /// Drop the state of every directed edge `(*, v)` with `v` accepted by
    /// `is_touched`, in one pass — the evolving-graph invalidation rule,
    /// mirroring [`EdgeHistory::invalidate_targets`]. A dropped edge's
    /// frozen partition goes with it; the next visit starts the edge cold,
    /// on the partition of the live `N(v)`. Returns the number of edges
    /// dropped.
    pub fn invalidate_targets(&mut self, is_touched: impl Fn(NodeId) -> bool) -> usize {
        self.engine.invalidate_targets(|v| is_touched(NodeId(v)))
    }

    /// Serialize the full history — the engine's state — to a [`Value`]
    /// tree; the [`EdgeHistory::export_state`] contract (bit-identical
    /// resume) applies.
    pub fn export_state(&self) -> Value {
        self.engine.export_state()
    }

    /// Rebuild a history from [`export_state`](Self::export_state) output.
    ///
    /// # Errors
    /// Returns a message when the tree is malformed or fails the engine's
    /// consistency checks.
    pub fn import_state(state: &Value) -> Result<Self, String> {
        Ok(GroupHistory {
            engine: GroupEngine::import_state(state)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn pop(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn touched_nodes_membership_is_exact_for_any_input() {
        // Unsorted input with repeats, at sizes on both sides of the
        // filter's 64-bit floor.
        for len in [0u32, 1, 3, 50, 5_000] {
            let mut rng = ChaCha12Rng::seed_from_u64(u64::from(len));
            let nodes: Vec<NodeId> = (0..2 * len)
                .map(|_| NodeId(rng.gen_range(0..=4 * len)))
                .collect();
            let set = TouchedNodes::new(&nodes);
            let want: std::collections::BTreeSet<NodeId> = nodes.iter().copied().collect();
            assert!(set.iter().eq(want.iter().copied()), "len {len}");
            for v in (0..8 * len + 64).map(NodeId) {
                assert_eq!(set.contains(v), want.contains(&v), "len {len}, node {v:?}");
            }
        }
        let ends = TouchedNodes::new(&[NodeId(u32::MAX), NodeId(0), NodeId(u32::MAX)]);
        assert!(ends.iter().eq([NodeId(0), NodeId(u32::MAX)]));
        assert!(ends.contains(NodeId(u32::MAX)) && !ends.contains(NodeId(1)));
    }

    #[test]
    fn draw_covers_population_each_cycle() {
        // Every cycle passes its half-used point, so its later draws run on
        // the promoted arena slice.
        for n in [7, 10] {
            let mut rng = ChaCha12Rng::seed_from_u64(1);
            let population = pop(n);
            let mut h = EdgeHistory::new();
            for cycle in 0..5 {
                let mut seen = std::collections::HashSet::new();
                for _ in 0..population.len() {
                    let d = h.draw(NodeId(0), NodeId(1), &population, &mut rng).unwrap();
                    assert!(seen.insert(d), "duplicate within cycle {cycle} of pop({n})");
                }
                assert_eq!(seen.len(), population.len());
            }
            assert!(h.arena_capacity() > 0, "pop({n}) never promoted");
        }
    }

    #[test]
    fn reset_happens_on_completion() {
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let population = pop(3);
        let mut h = EdgeHistory::new();
        for _ in 0..3 {
            h.draw(NodeId(0), NodeId(1), &population, &mut rng).unwrap();
        }
        // After a full cycle the state must be reset, not full.
        assert_eq!(h.total_entries(), 0);
        assert_eq!(h.get_used_len(NodeId(0), NodeId(1)), Some(0));
    }

    #[test]
    fn empty_population_returns_none() {
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let mut h = EdgeHistory::new();
        assert_eq!(h.draw(NodeId(0), NodeId(1), &[], &mut rng), None);
        assert_eq!(h.tracked_edges(), 0);
    }

    #[test]
    fn singleton_population_always_draws_it() {
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let population = pop(1);
        let mut h = EdgeHistory::new();
        for _ in 0..10 {
            assert_eq!(
                h.draw(NodeId(0), NodeId(1), &population, &mut rng),
                Some(NodeId(0))
            );
        }
    }

    #[test]
    fn draws_are_uniform_over_first_pick() {
        // The first draw of each cycle must be uniform over the population.
        let population = pop(4);
        let mut counts = [0usize; 4];
        for seed in 0..4000u64 {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut h = EdgeHistory::new();
            let d = h.draw(NodeId(0), NodeId(1), &population, &mut rng).unwrap();
            counts[d.index()] += 1;
        }
        for &c in &counts {
            assert!(c > 850 && c < 1150, "count {c} not uniform");
        }
    }

    #[test]
    fn edge_history_separates_directed_edges() {
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let mut h = EdgeHistory::new();
        let population = pop(5);
        let a = h.draw(NodeId(0), NodeId(1), &population, &mut rng);
        assert!(a.is_some());
        // The reverse edge has independent, empty history; probing it must
        // not create state.
        assert_eq!(h.get_used_len(NodeId(1), NodeId(0)), None);
        assert_eq!(h.tracked_edges(), 1);
        assert_eq!(h.total_entries(), 1);
        h.clear();
        assert_eq!(h.tracked_edges(), 0);
    }

    #[test]
    fn group_history_separates_directed_edges() {
        let mut h = GroupHistory::new();
        let groups = crate::circulation::NodeGroups {
            members: &[0, 2, 1, 3],
            ends: &[2, 4],
        };
        let mut rng = ChaCha12Rng::seed_from_u64(6);
        h.edge_view(NodeId(0), NodeId(1), 4)
            .step(Some(&groups), &mut Vec::new(), &mut rng);
        // Read-only probe of the reverse edge: no state is created.
        assert_eq!(h.get(NodeId(1), NodeId(0)), None);
        assert_eq!(h.tracked_edges(), 1);
        assert_eq!(h.total_entries(), 1);
        assert_eq!(
            h.get(NodeId(0), NodeId(1)),
            Some(GroupEdgeSnapshot {
                used_nodes: 1,
                attempted_groups: 1
            })
        );
        h.clear();
        assert_eq!(h.tracked_edges(), 0);
    }

    #[test]
    fn snapshot_without_the_engine_fields_is_refused() {
        // Histories were once wrapped as `{"backend": …, "engine": …}`;
        // such a tree names the first engine field it lacks.
        let wrapped = Value::obj([
            ("backend", Value::Str("arena".into())),
            ("engine", EdgeHistory::new().export_state()),
        ]);
        let err = EdgeHistory::import_state(&wrapped).unwrap_err();
        assert!(err.contains("threshold"), "{err}");
        let wrapped = Value::obj([
            ("backend", Value::Str("arena".into())),
            ("engine", GroupHistory::new().export_state()),
        ]);
        let err = GroupHistory::import_state(&wrapped).unwrap_err();
        assert!(err.contains("keys"), "{err}");
        // Later they held one object per edge: CNRW `slots` and GNRW
        // `edges` of `{key, kind, …}`. Those name the first missing column.
        let entry = |extra: &[&str]| {
            let mut fields = vec![
                ("key", Value::Uint(1)),
                ("kind", Value::Str("inline".into())),
                ("used", Value::arr(&[0u32])),
            ];
            fields.extend(extra.iter().map(|&name| (name, Value::Arr(Vec::new()))));
            Value::Arr(vec![Value::obj(fields)])
        };
        let per_entry = Value::obj([
            ("threshold", Value::Uint(INLINE_CAP as u64)),
            ("arena", Value::Arr(Vec::new())),
            ("slots", entry(&[])),
        ]);
        let err = EdgeHistory::import_state(&per_entry).unwrap_err();
        assert!(err.contains("missing field `keys`"), "{err}");
        let per_entry = Value::obj([("edges", entry(&["sub_cycle"]))]);
        let err = GroupHistory::import_state(&per_entry).unwrap_err();
        assert!(err.contains("missing field `keys`"), "{err}");
    }
}
