//! GroupBy Neighbors Random Walk (GNRW) — paper §4.

use std::sync::Arc;

use osn_client::{BudgetExhausted, OsnClient};
use osn_graph::partition::{partition_by_key, FlatPartition};
use osn_graph::NodeId;
use osn_serde::Value;
use rand::RngCore;

use crate::circulation::HistoryBackend;
use crate::grouping::Grouping;
use crate::groupplan::{GroupPlan, NodeGroups};
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
/// grouping and no plan, with two `gen_range` draws.
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
/// It reads the partition from the node's slice of a shared precomputed
/// [`GroupPlan`] ([`Gnrw::with_plan`]) when that slice covers the live
/// `N(v)`, else from the grouping's keys over a copy of `N(v)` and
/// [`partition_by_key`], in buffers reused across steps. On a static
/// snapshot the two give the same partition, and plan and planless walkers
/// try the step by rejection alike, so a plan walker is the planless
/// walker ([`Gnrw::new`]) bit for bit. On an evolving graph the plan keeps
/// the partition of each `N(v)` it was built over: at a node whose live
/// degree no longer matches it, the walker partitions the live `N(v)`
/// exactly as the planless walker does, so the walk stays correct after
/// [`RandomWalk::invalidate_node`] without a rebuilt plan.
pub struct Gnrw {
    prev: Option<NodeId>,
    current: NodeId,
    grouping: Grouping,
    plan: Option<Arc<GroupPlan>>,
    history: GroupHistory,
    label: String,
    // Per-step buffers, reused across the walk. A cold step works on
    // `scratch_neighbors`, a copy of `N(v)`. The step by rejection reads
    // the keys of `S(u, v)` into `scratch_keys`; a cold edge off the plan
    // is partitioned in `scratch_partition` from `scratch_keys`, the
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
        Self::build(start, grouping, None)
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

    /// Start a plan-backed walk at `start` with the plan's grouping: cold
    /// edges read their partition from the plan where it covers the live
    /// `N(v)`. The plan is shared read-only; per-edge circulation state
    /// stays in this walker.
    pub fn with_plan(start: NodeId, plan: Arc<GroupPlan>) -> Self {
        Self::build(start, plan.grouping().clone(), Some(plan))
    }

    fn build(start: NodeId, grouping: Grouping, plan: Option<Arc<GroupPlan>>) -> Self {
        Gnrw {
            prev: None,
            current: start,
            label: format!("GNRW[{}]", grouping.label()),
            grouping,
            plan,
            history: GroupHistory::new(),
            scratch_neighbors: Vec::new(),
            scratch_keys: Vec::new(),
            scratch_ranks: Vec::new(),
            scratch_partition: FlatPartition::default(),
            counts: Vec::new(),
        }
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
                        None => match self.plan.as_ref().map(|plan| plan.groups(v)) {
                            // The plan's slice covers the live `N(v)` unless
                            // a mutation has changed `deg(v)` since the
                            // build; invalidation then dropped the edge
                            // state built on the old list.
                            Some(groups) if groups.len() == copy.len() => {
                                view.step(Some(&groups), &mut self.counts, rng)
                            }
                            _ => {
                                self.grouping.assign_ranked(
                                    client,
                                    copy,
                                    &mut self.scratch_keys,
                                    &mut self.scratch_ranks,
                                );
                                partition_by_key(&self.scratch_keys, &mut self.scratch_partition);
                                let groups = NodeGroups::from(&self.scratch_partition);
                                view.step(Some(&groups), &mut self.counts, rng)
                            }
                        },
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
        // The grouping, plan and label are construction-time spec, and the
        // per-step buffers are transients — the walk position and the
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
        Ok(())
    }

    // Both the group circulation `S(u, v)` and the global set `b(u, v)` are
    // populations derived from `N(v)`: a mutation at `v` drops every edge
    // `(*, v)`.
    fn invalidate_node(&mut self, node: NodeId) -> usize {
        self.history.invalidate_targets(|v| v == node)
    }

    fn invalidate_nodes(&mut self, nodes: &TouchedNodes) -> usize {
        self.history.invalidate_targets(|v| nodes.contains(v))
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
    fn plan_stationary_matches_srw_target() {
        // Per-node visit frequencies of a plan-backed walk converge to the
        // SRW target (Theorem 4).
        let network = two_community_network();
        let plan = Arc::new(GroupPlan::build(
            &network,
            &Grouping::attribute_bucketed("community", ValueBucketing::Exact),
        ));
        let mut client = SimulatedOsn::new(network);
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let mut w = Gnrw::with_plan(NodeId(0), plan);
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
    fn group_circulation_alternates_groups() {
        // Node 1's neighbors from node 0 split into three degree groups;
        // the walk from 0->1 must alternate between groups rather than
        // repeat — planless and plan-backed alike.
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
        let network = AttributedGraph::bare(b.build().unwrap());
        // Log2 value buckets give the specific partition this test pins
        // down: {0} (deg 4), {2,3} (deg 2), {4} (deg 9).
        let plan = Arc::new(GroupPlan::build(&network, &Grouping::degree_log2()));
        let walkers = [
            Gnrw::new(NodeId(0), Grouping::degree_log2()),
            Gnrw::with_plan(NodeId(0), plan),
        ];
        for mut w in walkers {
            let mut client = SimulatedOsn::new(network.clone());
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
    fn walker_state_roundtrips_and_plan_exports_equal_planless() {
        // Export mid-walk, import into a fresh walker, and check the two
        // continue bit-identically on the same RNG stream; the plan-backed
        // walker's export equals the planless walker's throughout.
        let grouping = Grouping::attribute_bucketed("community", ValueBucketing::Exact);
        let plan = Arc::new(GroupPlan::build(&two_community_network(), &grouping));
        let mut walkers = [
            Gnrw::new(NodeId(0), grouping),
            Gnrw::with_plan(NodeId(0), Arc::clone(&plan)),
        ];
        let mut client = two_community_client();
        let mut rngs = [0, 1].map(|_| ChaCha12Rng::seed_from_u64(77));
        for (w, rng) in walkers.iter_mut().zip(&mut rngs) {
            for _ in 0..501 {
                w.step(&mut client, rng).unwrap();
            }
        }
        let state = walkers[0].export_state();
        assert_eq!(walkers[1].export_state().to_pretty(), state.to_pretty());
        let mut resumed = Gnrw::with_plan(NodeId(3), plan);
        resumed.import_state(&state).unwrap();
        let mut rng = rngs[0].clone();
        for i in 0..500 {
            let want = walkers[0].step(&mut client, &mut rngs[0]).unwrap();
            assert_eq!(
                walkers[1].step(&mut client, &mut rngs[1]).unwrap(),
                want,
                "step {i}"
            );
            assert_eq!(
                resumed.step(&mut client, &mut rng).unwrap(),
                want,
                "step {i}"
            );
        }
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
        // A plan walker walks the plan's grouping; quantile and log2 degree
        // groupings share a label, not an identity.
        let network = two_community_network();
        let plan = Arc::new(GroupPlan::build(&network, &Grouping::degree_log2()));
        let w = Gnrw::with_plan(NodeId(0), plan);
        assert_eq!(w.name(), "GNRW[GNRW_By_Degree]");
        assert_eq!(w.grouping(), &Grouping::degree_log2());
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
