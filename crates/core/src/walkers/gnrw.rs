//! GroupBy Neighbors Random Walk (GNRW) — paper §4.

use std::sync::Arc;

use osn_client::{BudgetExhausted, OsnClient};
use osn_graph::partition::{partition_by_key, FlatPartition};
use osn_graph::NodeId;
use osn_serde::Value;
use rand::{Rng, RngCore};

use crate::circulation::HistoryBackend;
use crate::grouping::GroupingStrategy;
use crate::groupplan::{DrawBatch, GroupPlan, NodeGroups};
use crate::history::{EdgeHistory, GroupEdgeView, GroupHistory, TouchedNodes};
use crate::walker::{prev_from_value, prev_to_value, uniform_pick, RandomWalk};

/// GroupBy Neighbors Random Walk (paper §4, Algorithm 2).
///
/// Given the incoming transition `u → v`, the neighbors of `v` are first
/// partitioned into groups by a [`GroupingStrategy`] `g(·)`; the walk then
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
/// grouping strategy, and asymptotic variance never above SRW's. When the
/// grouping is aligned with the aggregate of interest (group by the measure
/// attribute), GNRW beats CNRW because it alternates between attribute
/// strata faster.
///
/// With per-node groups or a single group GNRW degenerates to CNRW. The
/// interesting regime is a handful of value-homogeneous groups.
///
/// ## Execution paths
///
/// * **Planless** ([`Gnrw::new`]) — each historied step partitions `N(v)`
///   with the strategy and [`partition_by_key`] into buffers reused across
///   steps, then runs the Algorithm-2 step, drawing straight off the RNG.
///   Always available; the paper's step as written.
/// * **Plan-backed** ([`Gnrw::with_plan`]) — the partition comes from a
///   shared precomputed [`GroupPlan`], RNG is consumed in batches, and the
///   step does zero hashing and zero allocation. Groups are drawn from the
///   plan's alias tables and members by partial Fisher–Yates within a
///   group: equivalent to the planless walk in distribution (Theorem 4),
///   not in trace. A plan with more than 64 groups at some node (the
///   attempted-set bitmask bound) runs the Algorithm-2 step over the plan's
///   groups instead, which is bit-identical to the planless walk.
///   Degenerate groupings (single group / all singletons) are detected by
///   the plan and the walker then delegates wholesale to the CNRW
///   circulation — bit-identical to [`Cnrw`](crate::walkers::Cnrw) by
///   construction. On an evolving graph the plan keeps the partition of
///   each `N(v)` it was built over: at a node whose live degree no longer
///   matches the plan, the step uses the one-group partition of the live
///   `N(v)` (any grouping keeps Theorem 4), so the walk stays correct after
///   [`RandomWalk::invalidate_node`] without a rebuilt plan.
pub struct Gnrw {
    prev: Option<NodeId>,
    current: NodeId,
    /// `None` for plan-backed walkers: the plan already materializes every
    /// assignment the strategy would make.
    strategy: Option<Box<dyn GroupingStrategy + Send>>,
    strategy_label: String,
    history: GroupHistory,
    label: String,
    plan: Option<PlanState>,
    // Per-step buffers, reused across the walk. The planless path copies
    // `N(v)` out of the client (the strategy peeks through it) and
    // partitions it; both paths count unvisited members per group in `rem`.
    scratch_neighbors: Vec<NodeId>,
    scratch_assignments: Vec<u64>,
    scratch_partition: FlatPartition,
    rem: Vec<u32>,
}

/// The plan-backed execution state: shared plan, batched RNG buffer, and
/// (for degenerate groupings) the CNRW delegate history.
struct PlanState {
    plan: Arc<GroupPlan>,
    /// Whether group draws go through the plan's alias tables: only when
    /// no node has more than 64 groups. Otherwise steps run the
    /// Algorithm-2 step over the plan's groups.
    alias: bool,
    batch: DrawBatch,
    /// `Some` when the plan detected a CNRW-degenerate grouping: the step
    /// replicates `Cnrw::step` against this history verbatim.
    cnrw: Option<EdgeHistory>,
    /// Members `0..deg(v)` of the one-group partition a step uses where the
    /// plan no longer matches the live degree, reused across steps.
    live_members: Vec<u32>,
}

/// Algorithm 2's step at `v` once the walk arrived over `(u, v)`, on that
/// edge's `view` and `N(v)`'s partition `groups` (ascending keys, members
/// ascending by index): count the unvisited members of each un-attempted
/// group into `rem`, reset the group sub-cycle (and count every group)
/// when none has any left, pick a group weighted by its unvisited members,
/// take the rank-th unvisited member in index order, and record the pick
/// (the view resets the super-cycle once `N(v)` is covered). `draw(n)` is
/// uniform over `0..n`; it is called exactly twice. Returns the index into
/// `N(v)`.
fn algorithm2_step(
    groups: &NodeGroups<'_>,
    view: &mut GroupEdgeView<'_>,
    rem: &mut Vec<u32>,
    draw: &mut dyn FnMut(usize) -> usize,
) -> usize {
    let unvisited = |view: &GroupEdgeView<'_>, g: usize| {
        groups
            .members_of(g)
            .iter()
            .filter(|&&i| !view.is_used(i as usize))
            .count() as u32
    };
    // Candidate groups are the un-attempted (not in S(u, v)) ones with
    // unvisited members; an attempted group counts as empty.
    rem.clear();
    rem.extend((0..groups.group_count()).map(|g| {
        if view.group_attempted(groups.keys[g]) {
            0
        } else {
            unvisited(view, g)
        }
    }));
    let mut total: usize = rem.iter().map(|&r| r as usize).sum();
    if total == 0 {
        view.clear_attempted();
        for (g, r) in rem.iter_mut().enumerate() {
            *r = unvisited(view, g);
        }
        total = rem.iter().map(|&r| r as usize).sum();
    }
    debug_assert!(total > 0, "global b(u,v) resets before covering N(v)");
    // Group chosen with probability proportional to its not-yet-attempted
    // transitions (Figure 4).
    let mut pick = draw(total);
    let chosen = (0..groups.group_count())
        .find(|&g| {
            if pick < rem[g] as usize {
                true
            } else {
                pick -= rem[g] as usize;
                false
            }
        })
        .expect("pick < total remaining");
    // Uniform among the chosen group's unvisited members.
    let rank = draw(rem[chosen] as usize);
    let idx = groups
        .members_of(chosen)
        .iter()
        .filter(|&&i| !view.is_used(i as usize))
        .nth(rank)
        .copied()
        .expect("rank < remaining") as usize;
    view.record(idx, groups.keys[chosen]);
    idx
}

impl Gnrw {
    /// Start a walk at `start` with the given grouping strategy.
    pub fn new(start: NodeId, strategy: Box<dyn GroupingStrategy + Send>) -> Self {
        let strategy_label = strategy.label();
        Self::build(start, Some(strategy), strategy_label, None)
    }

    /// [`Self::new`], for callers that still pass the [`HistoryBackend`]
    /// shim; the value is ignored.
    pub fn with_backend(
        start: NodeId,
        strategy: Box<dyn GroupingStrategy + Send>,
        _backend: HistoryBackend,
    ) -> Self {
        Self::new(start, strategy)
    }

    /// Start a plan-backed walk at `start` — the fast path. The plan is
    /// shared read-only; per-edge circulation state stays in this walker.
    ///
    /// A plan with more than 64 groups at some node runs the Algorithm-2
    /// step over its groups instead of alias draws; degenerate groupings
    /// delegate to CNRW.
    pub fn with_plan(start: NodeId, plan: Arc<GroupPlan>) -> Self {
        let alias = plan.max_groups() <= 64;
        let cnrw = plan.degenerate().map(|_| EdgeHistory::new());
        let strategy_label = plan.strategy_label().to_string();
        Self::build(
            start,
            None,
            strategy_label,
            Some(PlanState {
                plan,
                alias,
                batch: DrawBatch::new(),
                cnrw,
                live_members: Vec::new(),
            }),
        )
    }

    fn build(
        start: NodeId,
        strategy: Option<Box<dyn GroupingStrategy + Send>>,
        strategy_label: String,
        plan: Option<PlanState>,
    ) -> Self {
        let label = format!("GNRW[{strategy_label}]");
        Gnrw {
            prev: None,
            current: start,
            strategy,
            strategy_label,
            history: GroupHistory::new(),
            label,
            plan,
            scratch_neighbors: Vec::new(),
            scratch_assignments: Vec::new(),
            scratch_partition: FlatPartition::default(),
            rem: Vec::new(),
        }
    }

    /// Whether this walker delegates to the CNRW circulation because its
    /// plan detected a degenerate grouping.
    pub fn is_cnrw_degenerate(&self) -> bool {
        self.plan.as_ref().is_some_and(|p| p.cnrw.is_some())
    }

    /// The strategy's own label (e.g. `GNRW_By_Degree`), used by the
    /// Figure 9 experiment to distinguish variants.
    pub fn strategy_label(&self) -> String {
        self.strategy_label.clone()
    }

    /// Number of directed edges with live circulation state.
    pub fn tracked_edges(&self) -> usize {
        match self.plan.as_ref().and_then(|p| p.cnrw.as_ref()) {
            Some(cnrw) => cnrw.tracked_edges(),
            None => self.history.tracked_edges(),
        }
    }

    /// Total recorded history entries (memory-profile metric).
    pub fn history_entries(&self) -> usize {
        match self.plan.as_ref().and_then(|p| p.cnrw.as_ref()) {
            Some(cnrw) => cnrw.total_entries(),
            None => self.history.total_entries(),
        }
    }

    /// Allocated history-arena capacity in entries. [`RandomWalk::restart`]
    /// keeps this unchanged — the slab is reused, not re-allocated.
    pub fn arena_capacity(&self) -> usize {
        self.history.arena_capacity()
    }

    /// Drop the state of every edge `(*, v)` with `v` accepted by
    /// `is_touched`: both the group circulation `S(u, v)` and the global set
    /// `b(u, v)` are populations derived from `N(v)`. On the degenerate plan
    /// path the state lives in the CNRW delegate instead.
    fn invalidate_targets(&mut self, is_touched: impl Fn(NodeId) -> bool) -> usize {
        let mut dropped = self.history.invalidate_targets(&is_touched);
        if let Some(cnrw) = self.plan.as_mut().and_then(|ps| ps.cnrw.as_mut()) {
            dropped += cnrw.invalidate_targets(&is_touched);
        }
        dropped
    }

    /// One plan-backed step (`self.plan` is `Some`). Split out of
    /// [`RandomWalk::step`] to keep field borrows tractable.
    fn plan_step(
        &mut self,
        client: &mut dyn OsnClient,
        rng: &mut dyn RngCore,
    ) -> Result<NodeId, BudgetExhausted> {
        let v = self.current;
        let PlanState {
            plan,
            alias,
            batch,
            cnrw,
            live_members,
        } = self.plan.as_mut().expect("plan_step requires a plan");
        let neighbors = client.neighbors(v)?;
        if neighbors.is_empty() {
            return Ok(v);
        }
        let next = if let Some(cnrw) = cnrw {
            // Degenerate grouping: replicate `Cnrw::step` verbatim (same
            // draws straight off `rng`), so traces are bit-identical to a
            // CNRW walker on the same seed.
            match self.prev {
                None => uniform_pick(neighbors, rng),
                Some(u) => cnrw
                    .draw(u, v, neighbors, rng)
                    .expect("non-empty neighbor list"),
            }
        } else {
            // The plan partitions `N(v)` as it was when the plan was built.
            // If a mutation has since changed `deg(v)`, its member indices
            // no longer cover the live list: step with the one-group
            // partition of the live `N(v)` instead. Theorem 4 holds for any
            // grouping, and invalidation already dropped the edge state
            // built on the old list.
            let planned = plan.groups(v);
            let stale = planned.len() != neighbors.len();
            let live_end = [neighbors.len() as u32];
            let groups = if stale {
                live_members.clear();
                live_members.extend(0..neighbors.len() as u32);
                NodeGroups {
                    members: live_members,
                    ends: &live_end,
                    keys: &[0],
                }
            } else {
                planned
            };
            match self.prev {
                // No incoming edge yet: plain SRW step. Drawn through the
                // batch — the k-th ranged draw consumes the k-th u64 of the
                // stream exactly as `uniform_pick` would.
                None => neighbors[batch.range(neighbors.len(), rng)],
                Some(u) if *alias => {
                    let alias = if stale { None } else { plan.alias(v) };
                    let mut view = self.history.plan_view(u, v, &groups);
                    neighbors[view.draw(&groups, alias, batch, rng, &mut self.rem)]
                }
                Some(u) => {
                    let mut view = self.history.edge_view(u, v, neighbors.len());
                    let mut draw = |n: usize| batch.range(n, rng);
                    neighbors[algorithm2_step(&groups, &mut view, &mut self.rem, &mut draw)]
                }
            }
        };
        self.prev = Some(v);
        self.current = next;
        Ok(next)
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
        if self.plan.is_some() {
            return self.plan_step(client, rng);
        }
        let v = self.current;
        {
            let neighbors = client.neighbors(v)?;
            if neighbors.is_empty() {
                return Ok(v);
            }
            self.scratch_neighbors.clear();
            self.scratch_neighbors.extend_from_slice(neighbors);
        }
        let next = match self.prev {
            // No incoming edge yet: plain SRW step.
            None => uniform_pick(&self.scratch_neighbors, rng),
            Some(u) => {
                // Partition N(v) into groups (metadata peeks are free).
                self.strategy
                    .as_ref()
                    .expect("planless walker keeps its strategy")
                    .assign(
                        &*client,
                        &self.scratch_neighbors,
                        &mut self.scratch_assignments,
                    );
                let part = &mut self.scratch_partition;
                partition_by_key(&self.scratch_assignments, part);
                let groups = NodeGroups {
                    members: &part.perm,
                    ends: &part.ends,
                    keys: &part.keys,
                };
                let mut view = self.history.edge_view(u, v, groups.len());
                let mut draw = |n: usize| rng.gen_range(0..n);
                self.scratch_neighbors
                    [algorithm2_step(&groups, &mut view, &mut self.rem, &mut draw)]
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
        if let Some(ps) = &mut self.plan {
            // Discarding buffered draws is part of the restart contract (a
            // documented equivalence boundary: the fresh walk re-fills from
            // the live RNG position, as an unbatched walker would).
            ps.batch.clear();
            if let Some(cnrw) = &mut ps.cnrw {
                cnrw.clear();
            }
        }
    }

    fn export_state(&self) -> Value {
        // The grouping strategy/plan and label are construction-time spec,
        // and the per-step buffers are transients — the walk position, the
        // circulation history, and (plan path) the buffered RNG draws are
        // the resumable state.
        let history = match self.plan.as_ref().and_then(|p| p.cnrw.as_ref()) {
            Some(cnrw) => cnrw.export_state(),
            None => self.history.export_state(),
        };
        let mut fields = vec![
            ("prev", prev_to_value(self.prev)),
            ("current", Value::Uint(u64::from(self.current.0))),
            ("history", history),
        ];
        if let Some(ps) = &self.plan {
            fields.push(("draws", Value::arr(ps.batch.pending())));
        }
        Value::obj(fields)
    }

    fn import_state(&mut self, state: &Value) -> Result<(), String> {
        let history_state = state.field("history")?;
        let prev = prev_from_value(state.field("prev")?)?;
        let current = NodeId(state.field("current")?.decode()?);
        // The pending draw buffer (absent in planless exports: resume with
        // an empty buffer).
        let draws: Vec<u64> = match state.field("draws") {
            Ok(v) => v.decode()?,
            Err(_) => Vec::new(),
        };
        match &mut self.plan {
            Some(ps) => {
                let batch = DrawBatch::restore(&draws)?;
                match &mut ps.cnrw {
                    Some(cnrw) => *cnrw = EdgeHistory::import_state(history_state)?,
                    None => self.history = GroupHistory::import_state(history_state)?,
                }
                ps.batch = batch;
            }
            None => {
                if !draws.is_empty() {
                    return Err("planless GNRW cannot resume buffered draws".into());
                }
                self.history = GroupHistory::import_state(history_state)?;
            }
        }
        self.prev = prev;
        self.current = current;
        Ok(())
    }

    fn invalidate_node(&mut self, node: NodeId) -> usize {
        self.invalidate_targets(|v| v == node)
    }

    fn invalidate_nodes(&mut self, nodes: &TouchedNodes) -> usize {
        self.invalidate_targets(|v| nodes.contains(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::{ByAttribute, ByDegree, ByHash, ByNode, ValueBucketing};
    use crate::walkers::Cnrw;
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
        let mut w = Gnrw::new(NodeId(0), Box::new(ByAttribute::new("community")));
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
        let mut w = Gnrw::new(NodeId(0), Box::new(ByHash::new(3)));
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
    fn plan_alias_stationary_matches_srw_target() {
        // The alias path reorders draws; its per-node visit frequencies must
        // still converge to the SRW target (Theorem 4 — the super-cycle
        // coverage is untouched). Exact value bucketing keeps the plan
        // non-degenerate (the default quantile bucketing splits these small
        // neighborhoods into singletons, which would delegate to CNRW).
        let network = two_community_network();
        let plan = Arc::new(GroupPlan::build(
            &network,
            &ByAttribute::with_bucketing("community", ValueBucketing::Exact),
        ));
        assert_eq!(plan.degenerate(), None);
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
        // Node 1's neighbors from node 0 split into two degree groups; the
        // walk from 0->1 must alternate between groups rather than repeat.
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
        let g = b.build().unwrap();
        let mut client = SimulatedOsn::from_graph(g);
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        // Log2 value buckets give the specific partition this test pins
        // down: {0} (deg 4), {2,3} (deg 2), {4} (deg 9).
        let mut w = Gnrw::new(NodeId(0), Box::new(ByDegree::log2()));

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
        // N(1) = {0, 2, 3, 4}: log2 degree buckets give groups {0}, {2,3},
        // {4} (deg 4 -> 2, deg 2 -> 1, deg 9 -> 3). Each super-cycle of 4
        // choices covers N(1) exactly once, and its first 3 choices touch 3
        // distinct groups (the stratified alternation).
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
    fn alias_path_preserves_super_cycle_coverage() {
        // Same pinned topology as `group_circulation_alternates_groups`,
        // driven through the alias plan path: windows of |N(1)| choices
        // after each 0->1 transit must still cover N(1) exactly once
        // (Theorem 4's invariant — what the alias path must NOT change),
        // and the sub-cycle alternation must still touch all three groups.
        let mut b = GraphBuilder::new();
        b.push_edge(0, 1);
        b.push_edge(1, 2);
        b.push_edge(1, 3);
        b.push_edge(1, 4);
        for i in 5..12 {
            b.push_edge(4, i);
        }
        b.push_edge(2, 0);
        b.push_edge(3, 0);
        b.push_edge(4, 0);
        let network = AttributedGraph::bare(b.build().unwrap());
        let plan = Arc::new(GroupPlan::build(&network, &ByDegree::log2()));
        assert_eq!(plan.degenerate(), None);
        let mut client = SimulatedOsn::new(network);
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let mut w = Gnrw::with_plan(NodeId(0), plan);
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
        let mut w = Gnrw::new(NodeId(0), Box::new(ByDegree::new()));
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
    fn degenerate_plans_are_bit_identical_to_cnrw() {
        // Singleton groups (ByNode) and a single group (ByHash(1)) both
        // collapse GNRW to CNRW; the plan detects it and the walker must
        // delegate, making traces bit-identical to a CNRW walker — the
        // planless walk is NOT (it burns two draws per step to CNRW's one),
        // so delegation is what delivers the paper's §4.1 equivalence.
        let network = two_community_network();
        let cnrw_trace = {
            let mut client = SimulatedOsn::new(two_community_network());
            let mut rng = ChaCha12Rng::seed_from_u64(33);
            let mut w = Cnrw::new(NodeId(0));
            (0..3000)
                .map(|_| w.step(&mut client, &mut rng).unwrap())
                .collect::<Vec<_>>()
        };
        for strategy in [
            Box::new(ByNode::new()) as Box<dyn GroupingStrategy>,
            Box::new(ByHash::new(1)),
        ] {
            let plan = Arc::new(GroupPlan::build(&network, strategy.as_ref()));
            assert!(plan.degenerate().is_some(), "{}", strategy.label());
            let mut client = SimulatedOsn::new(two_community_network());
            let mut rng = ChaCha12Rng::seed_from_u64(33);
            let mut w = Gnrw::with_plan(NodeId(0), plan);
            assert!(w.is_cnrw_degenerate());
            let trace: Vec<NodeId> = (0..3000)
                .map(|_| w.step(&mut client, &mut rng).unwrap())
                .collect();
            assert_eq!(trace, cnrw_trace, "{} diverged from CNRW", strategy.label());
        }
    }

    /// A hub (node 120) linked to 120 ring-linked spokes whose `tag` is
    /// `i % 70`: exact bucketing gives the hub 70 groups, 50 of them with
    /// two members — past the alias path's 64-group bitmask, and not
    /// degenerate.
    fn many_groups_network() -> AttributedGraph {
        let spokes = 120u32;
        let mut b = GraphBuilder::new();
        for i in 0..spokes {
            b.push_edge(i, spokes);
            b.push_edge(i, (i + 1) % spokes);
        }
        let g = b.build().unwrap();
        let mut attrs = NodeAttributes::for_graph(&g);
        attrs
            .insert_uint("tag", (0..=u64::from(spokes)).map(|i| i % 70).collect())
            .unwrap();
        AttributedGraph::new(g, attrs).unwrap()
    }

    fn many_groups_strategy() -> ByAttribute {
        ByAttribute::with_bucketing("tag", ValueBucketing::Exact)
    }

    #[test]
    fn plans_over_64_groups_run_the_algorithm2_step() {
        // Such a plan cannot use the u64 attempted set, so it steps with the
        // Algorithm-2 step over its groups: the planless walk's trace, bit
        // for bit.
        let network = many_groups_network();
        let plan = Arc::new(GroupPlan::build(&network, &many_groups_strategy()));
        assert!(plan.max_groups() > 64, "{}", plan.max_groups());
        assert_eq!(plan.degenerate(), None);
        let trace = |mut w: Gnrw| {
            let mut client = SimulatedOsn::new(many_groups_network());
            let mut rng = ChaCha12Rng::seed_from_u64(7);
            (0..3000)
                .map(|_| w.step(&mut client, &mut rng).unwrap())
                .collect::<Vec<_>>()
        };
        let planned = trace(Gnrw::with_plan(NodeId(0), plan));
        let planless = trace(Gnrw::new(NodeId(0), Box::new(many_groups_strategy())));
        assert!(planned.iter().filter(|&&v| v == NodeId(120)).count() > 500);
        assert_eq!(planned, planless);
    }

    #[test]
    fn plan_walker_state_roundtrips_mid_batch() {
        // Export after an odd number of steps (draw buffer partially
        // consumed), import into a fresh walker, and check the two continue
        // bit-identically on the same RNG stream — on an alias plan and on
        // one past the 64-group bound.
        let cases = [
            (
                two_community_network(),
                GroupPlan::build(
                    &two_community_network(),
                    &ByAttribute::with_bucketing("community", ValueBucketing::Exact),
                ),
            ),
            (
                many_groups_network(),
                GroupPlan::build(&many_groups_network(), &many_groups_strategy()),
            ),
        ];
        for (network, plan) in cases {
            assert_eq!(plan.degenerate(), None);
            let plan = Arc::new(plan);
            let mut client = SimulatedOsn::new(network);
            let mut rng = ChaCha12Rng::seed_from_u64(77);
            let mut w = Gnrw::with_plan(NodeId(0), Arc::clone(&plan));
            for _ in 0..501 {
                w.step(&mut client, &mut rng).unwrap();
            }
            let state = w.export_state();
            let mut w2 = Gnrw::with_plan(NodeId(3), Arc::clone(&plan));
            w2.import_state(&state).unwrap();
            let mut rng2 = rng.clone();
            for i in 0..500 {
                let a = w.step(&mut client, &mut rng).unwrap();
                let b = w2.step(&mut client, &mut rng2).unwrap();
                assert_eq!(a, b, "diverged at step {i} ({} groups)", plan.max_groups());
            }
        }
    }

    #[test]
    fn labels() {
        let w = Gnrw::new(NodeId(0), Box::new(ByDegree::new()));
        assert_eq!(w.name(), "GNRW[GNRW_By_Degree]");
        assert_eq!(w.strategy_label(), "GNRW_By_Degree");
        let network = two_community_network();
        let plan = Arc::new(GroupPlan::build(&network, &ByDegree::new()));
        let w = Gnrw::with_plan(NodeId(0), plan);
        assert_eq!(w.name(), "GNRW[GNRW_By_Degree]");
        assert_eq!(w.strategy_label(), "GNRW_By_Degree");
    }

    #[test]
    fn single_group_behaves_like_cnrw() {
        // ByHash with 1 group: all neighbors in one group -> pure CNRW
        // circulation. Windows of |N| after-transit choices must be
        // permutations, as in the CNRW test.
        let mut b = GraphBuilder::new();
        b.push_edge(0, 1);
        b.push_edge(1, 2);
        b.push_edge(1, 3);
        b.push_edge(2, 0);
        b.push_edge(3, 0);
        let g = b.build().unwrap();
        let mut client = SimulatedOsn::from_graph(g);
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let mut w = Gnrw::new(NodeId(0), Box::new(ByHash::new(1)));
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
        // N(1) = {0, 2, 3}; windows of 3 must be permutations.
        for win in after.chunks_exact(3) {
            let mut ids: Vec<u32> = win.iter().map(|n| n.0).collect();
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 2, 3], "window {win:?}");
        }
    }
}
