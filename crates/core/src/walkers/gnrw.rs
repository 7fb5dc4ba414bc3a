//! GroupBy Neighbors Random Walk (GNRW) — paper §4.

use osn_client::{BudgetExhausted, OsnClient};
use osn_graph::partition::{partition_by_key, FlatPartition};
use osn_graph::NodeId;
use osn_serde::Value;
use rand::RngCore;

use crate::circulation::{HistoryBackend, NodeGroups};
use crate::fnv::FnvHashMap;
use crate::grouping::Grouping;
use crate::history::{GroupHistory, TouchedNodes};
use crate::walker::{prev_from_value, prev_to_value, uniform_pick, RandomWalk};

/// GroupBy Neighbors Random Walk (paper §4, Algorithm 2).
///
/// Given the incoming transition `u → v`, the neighbors of `v` are first
/// partitioned into groups by a [`Grouping`] `g(·)`; the walk then
///
/// 1. maintains a **global** without-replacement set `b(u, v)` over `N(v)`
///    (reset once it reaches `N(v)`, as in CNRW — Algorithm 2's step 4):
///    every super-cycle of `deg(v)` transits through `(u, v)` covers each
///    neighbor exactly once, which is what preserves the stationary
///    distribution for arbitrary group sizes (Theorem 4);
/// 2. within the super-cycle, circulates **among groups**: the set
///    `S(u, v)` of groups attempted in the current sub-cycle is excluded
///    (resetting when no un-attempted group still has unvisited members),
///    and each candidate group is chosen with probability proportional to
///    its number of not-yet-attempted transitions (Figure 4's weighting);
/// 3. chooses uniformly among the chosen group's unvisited members.
///
/// The group circulation therefore only shapes the *order* in which the
/// super-cycle covers `N(v)`: the walk alternates between strata as fast as
/// possible — the stratified-sampling effect of Figure 5 — without touching
/// the per-neighbor marginal.
///
/// Theorem 4: same stationary distribution as SRW (`k_v / 2|E|`) for *any*
/// grouping, and asymptotic variance never above SRW's. When the grouping
/// is aligned with the aggregate of interest (group by the measure
/// attribute), GNRW beats CNRW because it alternates between attribute
/// strata faster.
///
/// With per-node groups or a single group GNRW walks CNRW's transition law:
/// every window of `deg(v)` draws off one edge covers `N(v)`. The
/// interesting regime is a handful of value-homogeneous groups.
///
/// ## One step: by rejection where it can, else on one partition read
///
/// Every historied step is Algorithm 2's, run by the edge's
/// [`GroupEdgeView`](crate::history::GroupEdgeView). It needs `N(v)`'s
/// groups only while the edge is cold: an edge that promotes freezes its
/// partition in the walker's history, and a hot edge's step reads no
/// grouping and no partition, with two `gen_range` draws.
///
/// On a cold edge, a grouping whose key of a node depends on that node
/// alone — degree or attribute buckets, hash, per-node — first steps by
/// exact rejection
/// ([`step_by_rejection`](crate::history::GroupEdgeView::step_by_rejection)):
/// uniform proposals of `N(v)`, accepting the first that is outside
/// `b(u, v)` and whose group is not in `S(u, v)`, the groups of the current
/// sub-cycle's picks. Each proposal is one `gen_range` draw. Keys are read
/// only for proposals that need them, and
/// none while the sub-cycle is empty, so a walk over new edges reads almost
/// no degree where a partition would read all of `N(v)`'s. When the
/// step declines — after `min(32, deg(v))` misses, certain when the
/// sub-cycle must reset — and always under a rank-quantile grouping, the
/// edge takes the exact step on `N(v)`'s partition, with two more draws.
///
/// ## The partition memo
///
/// The partition of `N(v)` depends on `v` alone — its list and its
/// members' keys — not on the incoming edge, so each walker keeps the
/// partitions its exact cold steps derive in a private memo keyed by `v`.
/// On a miss the step derives the partition — the grouping's keys over a
/// copy of `N(v)`, then [`partition_by_key`], in buffers reused across
/// steps — and stores it. A hit gives the partition a miss would derive,
/// so the memo changes what a walk costs, never its trace: a quantile
/// walker ranks each neighborhood it reaches once instead of at every
/// cold visit.
///
/// The memo holds at most 256 KiB, or one larger entry: an insert that
/// would pass that budget clears it first. Every invalidation clears it
/// whole, whatever nodes it names, since a quantile or bucket partition of
/// `N(x)` reads each member's degree and a mutation at `w` can move the
/// partition of every neighbor of `w`. [`RandomWalk::restart`] keeps it,
/// as the graph has not changed, and a snapshot never holds it.
pub struct Gnrw {
    prev: Option<NodeId>,
    current: NodeId,
    grouping: Grouping,
    history: GroupHistory,
    memo: PartitionMemo,
    label: String,
    // Per-step buffers, reused across the walk. A cold step works on
    // `scratch_neighbors`, a copy of `N(v)`. The step by rejection reads
    // the keys of `S(u, v)` into `scratch_keys`; a memo miss is
    // partitioned in `scratch_partition` from `scratch_keys`, the
    // grouping's keys over the copy, which quantile groupings rank in
    // `scratch_ranks`; `counts` holds an exact cold step's per-group
    // (unvisited, attempted) counts.
    scratch_neighbors: Vec<NodeId>,
    scratch_keys: Vec<u64>,
    scratch_ranks: Vec<(f64, usize)>,
    scratch_partition: FlatPartition,
    counts: Vec<(u32, bool)>,
}

impl Gnrw {
    /// Start a walk at `start` that partitions cold edges' `N(v)` with
    /// `grouping`.
    pub fn new(start: NodeId, grouping: Grouping) -> Self {
        Gnrw {
            prev: None,
            current: start,
            label: format!("GNRW[{}]", grouping.label()),
            grouping,
            history: GroupHistory::new(),
            memo: PartitionMemo::default(),
            scratch_neighbors: Vec::new(),
            scratch_keys: Vec::new(),
            scratch_ranks: Vec::new(),
            scratch_partition: FlatPartition::default(),
            counts: Vec::new(),
        }
    }

    /// [`Self::new`], for callers that still pass a boxed grouping and the
    /// [`HistoryBackend`] shim; the backend is ignored.
    pub fn with_backend(
        start: NodeId,
        grouping: impl Into<Grouping>,
        _backend: HistoryBackend,
    ) -> Self {
        Self::new(start, grouping.into())
    }

    /// The grouping `g(·)` this walker partitions neighborhoods with.
    pub fn grouping(&self) -> &Grouping {
        &self.grouping
    }

    /// Number of directed edges with live circulation state.
    pub fn tracked_edges(&self) -> usize {
        self.history.tracked_edges()
    }

    /// Total recorded history entries (memory-profile metric).
    pub fn history_entries(&self) -> usize {
        self.history.total_entries()
    }

    /// Allocated history-arena capacity in entries. [`RandomWalk::restart`]
    /// keeps this unchanged — the slab is reused, not re-allocated.
    pub fn arena_capacity(&self) -> usize {
        self.history.arena_capacity()
    }
}

impl RandomWalk for Gnrw {
    fn name(&self) -> &str {
        &self.label
    }

    fn current(&self) -> NodeId {
        self.current
    }

    fn step(
        &mut self,
        client: &mut dyn OsnClient,
        rng: &mut dyn RngCore,
    ) -> Result<NodeId, BudgetExhausted> {
        let v = self.current;
        let neighbors = client.neighbors(v)?;
        if neighbors.is_empty() {
            return Ok(v);
        }
        let next = match self.prev {
            // No incoming edge yet: plain SRW step.
            None => uniform_pick(neighbors, rng),
            Some(u) => {
                let mut view = self.history.edge_view(u, v, neighbors.len());
                if view.is_frozen() {
                    neighbors[view.step(None, &mut self.counts, rng)]
                } else {
                    // Keys peek through the client, which `N(v)` borrows:
                    // a cold step works on a copy of the list (metadata
                    // peeks are free).
                    let copy = &mut self.scratch_neighbors;
                    copy.clear();
                    copy.extend_from_slice(neighbors);
                    let client = &*client;
                    let by_rejection = self.grouping.node_key().and_then(|key| {
                        let key = |i: usize| key.of(client, copy[i]);
                        view.step_by_rejection(copy.len(), key, &mut self.scratch_keys, rng)
                    });
                    let pick = match by_rejection {
                        Some(pick) => pick,
                        None => {
                            let part = &mut self.scratch_partition;
                            let groups = self.memo.get_or_derive(v, part, |part| {
                                let keys = &mut self.scratch_keys;
                                let ranks = &mut self.scratch_ranks;
                                self.grouping.assign_ranked(client, copy, keys, ranks);
                                partition_by_key(keys, part);
                            });
                            // Invalidation clears the memo whenever the
                            // graph changes, so an entry is of the live list.
                            debug_assert_eq!(groups.len(), copy.len(), "stale memo entry");
                            view.step(Some(&groups), &mut self.counts, rng)
                        }
                    };
                    copy[pick]
                }
            }
        };
        self.prev = Some(v);
        self.current = next;
        Ok(next)
    }

    fn restart(&mut self, start: NodeId) {
        self.prev = None;
        self.current = start;
        self.history.clear();
    }

    fn export_state(&self) -> Value {
        // The grouping and label are construction-time spec, and the memo
        // and per-step buffers are transients — the walk position and the
        // circulation history (frozen partitions included) are the
        // resumable state.
        Value::obj([
            ("prev", prev_to_value(self.prev)),
            ("current", Value::Uint(u64::from(self.current.0))),
            ("history", self.history.export_state()),
        ])
    }

    fn import_state(&mut self, state: &Value) -> Result<(), String> {
        let history = state.field("history")?;
        let prev = prev_from_value(state.field("prev")?)?;
        let current = NodeId(state.field("current")?.decode()?);
        self.history = GroupHistory::import_state(history)?;
        self.prev = prev;
        self.current = current;
        self.memo.clear();
        Ok(())
    }

    // Both the group circulation `S(u, v)` and the global set `b(u, v)` are
    // populations derived from `N(v)`: a mutation at `v` drops every edge
    // `(*, v)`. The memo goes whole (see the type docs).
    fn invalidate_node(&mut self, node: NodeId) -> usize {
        self.memo.clear();
        self.history.invalidate_targets(|v| v == node)
    }

    fn invalidate_nodes(&mut self, nodes: &TouchedNodes) -> usize {
        self.memo.clear();
        self.history.invalidate_targets(|v| nodes.contains(v))
    }
}

/// Byte budget of a walker's [`PartitionMemo`].
const MEMO_BUDGET: usize = 256 * 1024;

/// Where one node's partition sits in a [`PartitionMemo`]'s arrays.
#[derive(Clone, Copy, Debug)]
struct MemoSpan {
    /// Offset of the node's first member index in `members`.
    members: u32,
    /// Offset of its first group end in `ends`.
    ends: u32,
    /// `deg(v)`.
    len: u32,
    /// Its number of groups.
    groups: u32,
}

/// The partitions of `N(v)` a walker has derived, keyed by `v`, in the
/// flat layout [`NodeGroups`] borrows: each node's member indices and
/// group ends, appended to two arrays shared by all entries.
#[derive(Debug, Default)]
struct PartitionMemo {
    spans: FnvHashMap<u32, MemoSpan>,
    members: Vec<u32>,
    ends: Vec<u32>,
}

/// Counted bytes of `entries` memo entries holding `ids` member indices
/// and group ends in all: the ids and each entry's map slot.
fn counted_bytes(ids: usize, entries: usize) -> usize {
    ids * std::mem::size_of::<u32>() + entries * std::mem::size_of::<(u32, MemoSpan)>()
}

impl PartitionMemo {
    /// `v`'s partition: the memo's entry, or on a miss the one `derive`
    /// leaves in `part`, stored first.
    fn get_or_derive(
        &mut self,
        v: NodeId,
        part: &mut FlatPartition,
        derive: impl FnOnce(&mut FlatPartition),
    ) -> NodeGroups<'_> {
        let span = match self.span(v) {
            Some(span) => span,
            None => {
                derive(part);
                self.insert(v, part)
            }
        };
        self.groups(span)
    }

    /// `v`'s entry, if the memo holds one.
    fn span(&self, v: NodeId) -> Option<MemoSpan> {
        self.spans.get(&v.0).copied()
    }

    /// The partition at `span`.
    fn groups(&self, span: MemoSpan) -> NodeGroups<'_> {
        let (m, e) = (span.members as usize, span.ends as usize);
        NodeGroups {
            members: &self.members[m..m + span.len as usize],
            ends: &self.ends[e..e + span.groups as usize],
        }
    }

    /// Store `part` as `v`'s partition, first clearing the memo if the
    /// entry would take it past [`MEMO_BUDGET`].
    fn insert(&mut self, v: NodeId, part: &FlatPartition) -> MemoSpan {
        if self.bytes() + counted_bytes(part.perm.len() + part.ends.len(), 1) > MEMO_BUDGET {
            self.clear();
        }
        // The offsets fit `u32`: the arrays hold at most the budget, or one
        // entry, which `partition_by_key` caps at `u32::MAX` members.
        let span = MemoSpan {
            members: self.members.len() as u32,
            ends: self.ends.len() as u32,
            len: part.perm.len() as u32,
            groups: part.ends.len() as u32,
        };
        self.members.extend_from_slice(&part.perm);
        self.ends.extend_from_slice(&part.ends);
        self.spans.insert(v.0, span);
        span
    }

    fn bytes(&self) -> usize {
        counted_bytes(self.members.len() + self.ends.len(), self.spans.len())
    }

    fn clear(&mut self) {
        self.spans.clear();
        self.members.clear();
        self.ends.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::ValueBucketing;
    use osn_client::SimulatedOsn;
    use osn_graph::attributes::{AttributedGraph, NodeAttributes};
    use osn_graph::GraphBuilder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn two_community_network() -> AttributedGraph {
        // Two K4 cliques bridged; attribute = community id.
        let mut b = GraphBuilder::new();
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.push_edge(i, j);
                b.push_edge(i + 4, j + 4);
            }
        }
        b.push_edge(3, 4);
        let g = b.build().unwrap();
        let mut attrs = NodeAttributes::for_graph(&g);
        attrs
            .insert_uint("community", vec![0, 0, 0, 0, 1, 1, 1, 1])
            .unwrap();
        AttributedGraph::new(g, attrs).unwrap()
    }

    fn two_community_client() -> SimulatedOsn {
        SimulatedOsn::new(two_community_network())
    }

    #[test]
    fn stationary_matches_srw_target() {
        let mut client = two_community_client();
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let mut w = Gnrw::new(NodeId(0), Grouping::by_attribute("community"));
        let steps = 150_000;
        let mut visits = vec![0usize; client.graph().node_count()];
        for _ in 0..steps {
            visits[w.step(&mut client, &mut rng).unwrap().index()] += 1;
        }
        let pi = client.graph().degree_stationary_distribution();
        for (i, &c) in visits.iter().enumerate() {
            let freq = c as f64 / steps as f64;
            assert!(
                (freq - pi[i]).abs() < 0.015,
                "node {i}: freq {freq} vs pi {}",
                pi[i]
            );
        }
    }

    #[test]
    fn by_hash_stationary_also_unbiased() {
        let mut client = two_community_client();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let mut w = Gnrw::new(NodeId(0), Grouping::by_hash(3));
        let steps = 150_000;
        let mut visits = vec![0usize; client.graph().node_count()];
        for _ in 0..steps {
            visits[w.step(&mut client, &mut rng).unwrap().index()] += 1;
        }
        let pi = client.graph().degree_stationary_distribution();
        for (i, &c) in visits.iter().enumerate() {
            let freq = c as f64 / steps as f64;
            assert!((freq - pi[i]).abs() < 0.015, "node {i}");
        }
    }

    #[test]
    fn group_circulation_alternates_groups() {
        // Node 1's neighbors from node 0 split into three degree groups;
        // the walk from 0->1 must alternate between groups rather than
        // repeat.
        // Graph: 0-1; 1-{2,3} (low degree), 1-4 where 4 is a hub.
        let mut b = GraphBuilder::new();
        b.push_edge(0, 1);
        b.push_edge(1, 2);
        b.push_edge(1, 3);
        b.push_edge(1, 4);
        // make 4 a hub
        for i in 5..12 {
            b.push_edge(4, i);
        }
        // return edges so walk can come back
        b.push_edge(2, 0);
        b.push_edge(3, 0);
        b.push_edge(4, 0);
        // Log2 value buckets give the specific partition this test pins
        // down: {0} (deg 4), {2,3} (deg 2), {4} (deg 9).
        let mut w = Gnrw::new(NodeId(0), Grouping::degree_log2());
        let mut client = SimulatedOsn::from_graph(b.build().unwrap());
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        // Gather the first node after each 0->1 transit.
        let mut after = Vec::new();
        let mut prev = w.current();
        for _ in 0..6000 {
            let curr = w.step(&mut client, &mut rng).unwrap();
            if prev == NodeId(0) && curr == NodeId(1) {
                let nxt = w.step(&mut client, &mut rng).unwrap();
                after.push(nxt);
                prev = nxt;
                continue;
            }
            prev = curr;
        }
        assert!(after.len() > 20);
        // N(1) = {0, 2, 3, 4}: log2 degree buckets give groups {0},
        // {2,3}, {4} (deg 4 -> 2, deg 2 -> 1, deg 9 -> 3). Each
        // super-cycle of 4 choices covers N(1) exactly once (Theorem
        // 4's invariant), and its first 3 choices touch 3 distinct
        // groups (the stratified alternation).
        let group = |n: NodeId| match n.0 {
            0 => 0,
            2 | 3 => 1,
            4 => 2,
            _ => unreachable!(),
        };
        for win in after.chunks_exact(4) {
            let mut ids: Vec<u32> = win.iter().map(|n| n.0).collect();
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 2, 3, 4], "super-cycle {win:?} not a cover");
            let mut gs: Vec<u32> = win[..3].iter().map(|&n| group(n)).collect();
            gs.sort_unstable();
            gs.dedup();
            assert_eq!(gs.len(), 3, "first 3 of {win:?} repeat a group");
        }
    }

    #[test]
    fn restart_clears_group_history() {
        let mut client = two_community_client();
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let mut w = Gnrw::new(NodeId(0), Grouping::by_degree());
        for _ in 0..100 {
            w.step(&mut client, &mut rng).unwrap();
        }
        assert!(w.tracked_edges() > 0);
        w.restart(NodeId(1));
        assert_eq!(w.tracked_edges(), 0);
        assert_eq!(w.history_entries(), 0);
        assert_eq!(w.current(), NodeId(1));
    }

    #[test]
    fn walker_state_roundtrips() {
        // Export mid-walk, import into a fresh walker, and check the two
        // continue bit-identically on the same RNG stream: the resumed
        // walker starts with an empty memo, the original with a warm one.
        let grouping = Grouping::attribute_bucketed("community", ValueBucketing::Exact);
        let mut w = Gnrw::new(NodeId(0), grouping.clone());
        let mut client = two_community_client();
        let mut rng = ChaCha12Rng::seed_from_u64(77);
        for _ in 0..501 {
            w.step(&mut client, &mut rng).unwrap();
        }
        let mut resumed = Gnrw::new(NodeId(3), grouping);
        resumed.import_state(&w.export_state()).unwrap();
        let mut resumed_rng = rng.clone();
        for i in 0..500 {
            assert_eq!(
                resumed.step(&mut client, &mut resumed_rng).unwrap(),
                w.step(&mut client, &mut rng).unwrap(),
                "step {i}"
            );
        }
    }

    #[test]
    fn invalidation_clears_the_memo_and_restart_keeps_it() {
        let mut client = two_community_client();
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let mut w = Gnrw::new(NodeId(0), Grouping::by_degree());
        for _ in 0..100 {
            w.step(&mut client, &mut rng).unwrap();
        }
        let entries = w.memo.spans.len();
        assert!(entries > 0);
        w.restart(NodeId(2));
        assert_eq!(w.memo.spans.len(), entries);
        for _ in 0..100 {
            w.step(&mut client, &mut rng).unwrap();
        }
        // An empty node set drops no edge, and still clears the memo.
        let tracked = w.tracked_edges();
        assert_eq!(w.invalidate_nodes(&TouchedNodes::new(&[])), 0);
        assert_eq!(w.tracked_edges(), tracked);
        assert_eq!(w.memo.bytes(), 0);
        w.step(&mut client, &mut rng).unwrap();
        w.invalidate_node(NodeId(77));
        assert!(w.memo.spans.is_empty());
    }

    #[test]
    fn memo_stays_within_its_budget() {
        // Synthetic partitions of growing neighborhoods, one past the
        // budget alone: the counted bytes never exceed the larger of the
        // budget and the largest entry, and each entry reads back as
        // stored. Entries a full memo cleared miss, and are derived anew.
        let derive = |v: u32, part: &mut FlatPartition| {
            let len = if v == 150 {
                100_000
            } else {
                1 + (v * 97) % 2_000
            };
            let keys: Vec<u64> = (0..len).map(|i| u64::from((i * 7 + v) % 5)).collect();
            partition_by_key(&keys, part);
        };
        let mut memo = PartitionMemo::default();
        let mut part = FlatPartition::default();
        let mut largest = 0;
        for v in 0..300 {
            derive(v, &mut part);
            largest = largest.max(counted_bytes(part.perm.len() + part.ends.len(), 1));
            let span = memo.insert(NodeId(v), &part);
            let groups = memo.groups(span);
            assert_eq!(
                (groups.members, groups.ends),
                (&part.perm[..], &part.ends[..])
            );
            assert!(
                memo.bytes() <= MEMO_BUDGET.max(largest),
                "{} bytes",
                memo.bytes()
            );
            if v == 150 {
                assert_eq!(
                    memo.spans.len(),
                    1,
                    "an entry past the budget is kept alone"
                );
            }
        }
        assert!(memo.span(NodeId(0)).is_none());
        derive(0, &mut part);
        let span = memo.insert(NodeId(0), &part);
        assert_eq!(memo.span(NodeId(0)).map(|s| s.members), Some(span.members));
        assert_eq!(memo.groups(span).members, &part.perm[..]);
    }

    fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        match v {
            Value::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
            other => panic!("expected an object, got {}", other.type_name()),
        }
    }

    #[test]
    fn restored_promoted_edges_are_validated_in_full() {
        // Edges into the bridge nodes 3 and 4 (degree 4, two communities)
        // promote. Each inconsistent edit of such an edge's snapshot gives
        // an `Err` and leaves the walker unchanged.
        let mut client = two_community_client();
        let mut rng = ChaCha12Rng::seed_from_u64(8);
        let grouping = Grouping::attribute_bucketed("community", ValueBucketing::Exact);
        let mut w = Gnrw::new(NodeId(0), grouping);
        for _ in 0..300 {
            w.step(&mut client, &mut rng).unwrap();
        }
        let state = w.export_state();
        let history = state.field("history").unwrap();
        let column = |name: &str| -> Vec<u32> { history.field(name).unwrap().decode().unwrap() };
        // A promoted edge mid-super-cycle, and where its runs start in the
        // concatenated `members` and `groups` columns.
        let used = column("used_counts");
        let p = used
            .iter()
            .position(|&n| n > 0)
            .expect("a promoted edge mid-super-cycle");
        let members_at: u32 = column("member_counts")[..p].iter().sum();
        let groups_at: u32 = 3 * column("group_counts")[..p].iter().sum::<u32>();
        let edit = |name: &str, at: u32, f: &dyn Fn(&mut [u32])| {
            let mut tampered = state.clone();
            let field = field_mut(field_mut(&mut tampered, "history"), name);
            let mut values: Vec<u32> = field.decode().unwrap();
            f(&mut values[at as usize..]);
            *field = Value::arr(&values);
            tampered
        };
        // `groups` holds `[end, cursor, attempted]` per group; these edges
        // have two groups over four members.
        let edits = [
            ("ends", edit("groups", groups_at, &|g| g[0] = g[3])),
            ("ends", edit("groups", groups_at, &|g| g[3] += 1)),
            ("cursor", edit("groups", groups_at, &|g| g[1] = 4)),
            ("sum", edit("groups", groups_at, &|g| (g[1], g[4]) = (0, 0))),
            ("attempted", edit("groups", groups_at, &|g| g[2] = 2)),
            ("permutation", edit("members", members_at, &|m| m[0] = m[1])),
            ("used count", edit("used_counts", p as u32, &|u| u[0] += 1)),
            (
                "member count",
                edit("member_counts", p as u32, &|c| c[0] -= 1),
            ),
            (
                "group count",
                edit("group_counts", p as u32, &|c| c[0] += 1),
            ),
        ];
        for (what, tampered) in edits {
            assert!(w.import_state(&tampered).is_err(), "{what} edit imported");
            assert_eq!(
                w.export_state().to_pretty(),
                state.to_pretty(),
                "{what} edit mutated"
            );
        }
        assert!(w.import_state(&state).is_ok());
    }

    #[test]
    fn labels() {
        let w = Gnrw::new(NodeId(0), Grouping::by_degree());
        assert_eq!(w.name(), "GNRW[GNRW_By_Degree]");
        assert_eq!(w.grouping(), &Grouping::by_degree());
        // Quantile and log2 degree groupings share a label, not an identity.
        let w = Gnrw::new(NodeId(0), Grouping::degree_log2());
        assert_eq!(w.name(), "GNRW[GNRW_By_Degree]");
        assert_ne!(w.grouping(), &Grouping::by_degree());
    }

    #[test]
    fn single_group_behaves_like_cnrw() {
        // The two extremes of the design space — one group (hash into 1
        // group) and every neighbor its own group — walk CNRW's law:
        // windows of |N| after-transit choices must be permutations, as in
        // the CNRW test.
        let mut b = GraphBuilder::new();
        b.push_edge(0, 1);
        b.push_edge(1, 2);
        b.push_edge(1, 3);
        b.push_edge(2, 0);
        b.push_edge(3, 0);
        let g = b.build().unwrap();
        for grouping in [Grouping::by_hash(1), Grouping::by_node()] {
            let mut client = SimulatedOsn::from_graph(g.clone());
            let mut rng = ChaCha12Rng::seed_from_u64(4);
            let mut w = Gnrw::new(NodeId(0), grouping.clone());
            let mut after = Vec::new();
            let mut prev = w.current();
            for _ in 0..4000 {
                let curr = w.step(&mut client, &mut rng).unwrap();
                if prev == NodeId(0) && curr == NodeId(1) {
                    let nxt = w.step(&mut client, &mut rng).unwrap();
                    after.push(nxt);
                    prev = nxt;
                    continue;
                }
                prev = curr;
            }
            assert!(after.len() > 100, "{grouping:?}");
            // N(1) = {0, 2, 3}; windows of 3 must be permutations.
            for win in after.chunks_exact(3) {
                let mut ids: Vec<u32> = win.iter().map(|n| n.0).collect();
                ids.sort_unstable();
                assert_eq!(ids, vec![0, 2, 3], "{grouping:?}: window {win:?}");
            }
        }
    }
}
