//! GroupBy Neighbors Random Walk (GNRW) — paper §4.

use std::sync::Arc;

use osn_client::{BudgetExhausted, OsnClient};
use osn_graph::NodeId;
use osn_serde::Value;
use rand::{Rng, RngCore};

use crate::fnv::FnvHashMap;
use crate::grouping::GroupingStrategy;
use crate::groupplan::{DrawBatch, GroupPlan, NodeGroups, PlanMode};
use crate::history::{EdgeHistory, GroupEdgeView, GroupHistory, HistoryBackend, TouchedNodes};
use crate::walker::{check_backend, prev_from_value, prev_to_value, uniform_pick, RandomWalk};

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
/// The walker runs in one of two configurations:
///
/// * **Scratch** ([`Gnrw::new`] / [`Gnrw::with_backend`]) — the partition
///   of `N(v)` is re-derived on every historied step by calling the
///   strategy and re-bucketing into a reused hash map. Always available;
///   the reference implementation.
/// * **Plan-backed** ([`Gnrw::with_plan`]) — the partition comes from a
///   shared precomputed [`GroupPlan`], RNG is consumed in batches, and the
///   step does zero hashing and zero allocation. [`PlanMode::Exact`]
///   preserves the scratch path's RNG order (bit-identical traces);
///   [`PlanMode::Alias`] adds `O(1)` alias-table group selection and
///   within-group partial-Fisher–Yates member picks (equivalent in
///   distribution by Theorem 4, not in trace). Degenerate groupings
///   (single group / all singletons) are detected by the plan and the
///   walker then delegates wholesale to the CNRW circulation —
///   bit-identical to [`Cnrw`](crate::walkers::Cnrw) by construction.
///   On an evolving graph the plan keeps the partition of each `N(v)` it
///   was built over: at a node whose live degree no longer matches the
///   plan, the step uses the one-group partition of the live `N(v)` (any
///   grouping keeps Theorem 4), so the walk stays correct after
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
    // Reused scratch state (one allocation amortized over the walk).
    // Groups hold neighbor *indices* into `scratch_neighbors`, which is what
    // the arena backend's membership probes are keyed by.
    scratch_neighbors: Vec<NodeId>,
    scratch_assignments: Vec<u64>,
    scratch_groups: FnvHashMap<u64, Vec<u32>>,
    scratch_keys: Vec<u64>,
    scratch_candidates: Vec<(u64, usize)>,
    /// Cleared member vectors recycled across `scratch_groups` evictions,
    /// so steady-state steps never allocate (see
    /// [`Self::fresh_group_allocs`]).
    scratch_freelist: Vec<Vec<u32>>,
    fresh_group_allocs: usize,
}

/// The plan-backed execution state: shared plan, effective mode, batched
/// RNG buffer, and (for degenerate groupings) the CNRW delegate history.
struct PlanState {
    plan: Arc<GroupPlan>,
    mode: PlanMode,
    batch: DrawBatch,
    /// `Some` when the plan detected a CNRW-degenerate grouping: the step
    /// replicates `Cnrw::step` against this history verbatim.
    cnrw: Option<EdgeHistory>,
    /// Per-group remaining counts, reused across steps.
    rem_scratch: Vec<u32>,
    /// Members `0..deg(v)` of the one-group partition a step uses where the
    /// plan no longer matches the live degree, reused across steps.
    live_members: Vec<u32>,
}

impl Gnrw {
    /// Start a walk at `start` with the given grouping strategy, on the
    /// default (arena) history backend.
    pub fn new(start: NodeId, strategy: Box<dyn GroupingStrategy + Send>) -> Self {
        Self::with_backend(start, strategy, HistoryBackend::default())
    }

    /// Start a walk at `start` with the given grouping strategy and an
    /// explicit history backend.
    pub fn with_backend(
        start: NodeId,
        strategy: Box<dyn GroupingStrategy + Send>,
        backend: HistoryBackend,
    ) -> Self {
        let strategy_label = strategy.label();
        Self::build(start, Some(strategy), strategy_label, backend, None)
    }

    /// Start a plan-backed walk at `start` on the default (arena) history
    /// backend — the fast path. The plan is shared read-only; per-edge
    /// circulation state stays in this walker.
    ///
    /// [`PlanMode::Alias`] silently downgrades to [`PlanMode::Exact`] when
    /// the plan has a node with more than 64 groups (the attempted-set
    /// bitmask bound); degenerate groupings delegate to CNRW regardless of
    /// `mode`.
    pub fn with_plan(start: NodeId, plan: Arc<GroupPlan>, mode: PlanMode) -> Self {
        Self::with_plan_backend(start, plan, mode, HistoryBackend::default())
    }

    /// Plan-backed walk with an explicit history backend. Exists so
    /// equivalence tests can pin `Exact` mode against the legacy backend
    /// too; alias mode's per-edge state is an arena-engine representation.
    ///
    /// # Panics
    /// Panics on `Alias` + [`HistoryBackend::Legacy`] (after the ≤ 64-group
    /// downgrade and degenerate delegation are applied).
    pub fn with_plan_backend(
        start: NodeId,
        plan: Arc<GroupPlan>,
        mode: PlanMode,
        backend: HistoryBackend,
    ) -> Self {
        let mode = match mode {
            PlanMode::Alias if plan.max_groups() > 64 => PlanMode::Exact,
            m => m,
        };
        let cnrw = plan
            .degenerate()
            .map(|_| EdgeHistory::with_backend(backend));
        assert!(
            !(mode == PlanMode::Alias && cnrw.is_none() && backend == HistoryBackend::Legacy),
            "alias plan mode requires the arena history backend"
        );
        let strategy_label = plan.strategy_label().to_string();
        Self::build(
            start,
            None,
            strategy_label,
            backend,
            Some(PlanState {
                plan,
                mode,
                batch: DrawBatch::new(),
                cnrw,
                rem_scratch: Vec::new(),
                live_members: Vec::new(),
            }),
        )
    }

    fn build(
        start: NodeId,
        strategy: Option<Box<dyn GroupingStrategy + Send>>,
        strategy_label: String,
        backend: HistoryBackend,
        plan: Option<PlanState>,
    ) -> Self {
        let label = format!("GNRW[{strategy_label}]");
        Gnrw {
            prev: None,
            current: start,
            strategy,
            strategy_label,
            history: GroupHistory::with_backend(backend),
            label,
            plan,
            scratch_neighbors: Vec::new(),
            scratch_assignments: Vec::new(),
            scratch_groups: FnvHashMap::default(),
            scratch_keys: Vec::new(),
            scratch_candidates: Vec::new(),
            scratch_freelist: Vec::new(),
            fresh_group_allocs: 0,
        }
    }

    /// Which history backend this walker runs on.
    pub fn backend(&self) -> HistoryBackend {
        self.history.backend()
    }

    /// The plan mode this walker effectively runs in (`None` on the scratch
    /// path) — after the ≤ 64-group alias downgrade; degenerate plans
    /// report their nominal mode while delegating to CNRW.
    pub fn plan_mode(&self) -> Option<PlanMode> {
        self.plan.as_ref().map(|p| p.mode)
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

    /// Allocated history-arena capacity in entries (`None` on the legacy
    /// backend). [`RandomWalk::restart`] keeps this unchanged — the slab is
    /// reused, not re-allocated.
    pub fn arena_capacity(&self) -> Option<usize> {
        self.history.arena_capacity()
    }

    /// How many group-member vectors the scratch path has allocated fresh
    /// (rather than recycled from the eviction freelist). Plateaus once the
    /// walk reaches steady state — the observable behind the
    /// zero-allocation claim of the scratch hot loop. Always 0 on
    /// plan-backed walkers.
    pub fn fresh_group_allocs(&self) -> usize {
        self.fresh_group_allocs
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
            mode,
            batch,
            cnrw,
            rem_scratch,
            live_members,
        } = self.plan.as_mut().expect("plan_step requires a plan");
        let neighbors = client.neighbors(v)?;
        if neighbors.is_empty() {
            return Ok(v);
        }
        let next = if let Some(cnrw) = cnrw {
            // Degenerate grouping: replicate `Cnrw::step` verbatim (same
            // draws straight off `rng`), so traces are bit-identical to a
            // CNRW walker on the same seed/backend.
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
                // stream exactly as `uniform_pick` would, keeping Exact
                // mode bit-identical to the scratch walker.
                None => neighbors[batch.range(neighbors.len(), rng)],
                Some(u) => match mode {
                    PlanMode::Alias => {
                        let alias = if stale { None } else { plan.alias(v) };
                        let mut view = self.history.plan_view(u, v, &groups);
                        let idx = view.draw(&groups, alias, batch, rng, rem_scratch);
                        neighbors[idx]
                    }
                    PlanMode::Exact => {
                        // The scratch algorithm verbatim, with the partition
                        // read from the plan (groups ascending by key,
                        // members ascending by index — the same ordering the
                        // scratch path derives) and draws through the batch.
                        let mut view = self.history.edge_view(u, v, neighbors.len());
                        rem_scratch.clear();
                        rem_scratch.extend((0..groups.group_count()).map(|g| {
                            groups
                                .members_of(g)
                                .iter()
                                .filter(|&&i| !view.is_used(i as usize, neighbors[i as usize]))
                                .count() as u32
                        }));
                        // Candidate groups: un-attempted with unvisited
                        // members; if none, reset the group sub-cycle.
                        let candidate = |view: &GroupEdgeView<'_>, g: usize| {
                            rem_scratch[g] > 0 && !view.group_attempted(groups.keys[g])
                        };
                        let mut total: usize = (0..groups.group_count())
                            .filter(|&g| candidate(&view, g))
                            .map(|g| rem_scratch[g] as usize)
                            .sum();
                        if total == 0 {
                            view.clear_attempted();
                            total = rem_scratch.iter().map(|&r| r as usize).sum();
                        }
                        debug_assert!(total > 0, "global b(u,v) resets before covering N(v)");
                        // Group chosen with probability proportional to its
                        // not-yet-attempted transitions (Figure 4).
                        let mut pick = batch.range(total, rng);
                        let chosen = (0..groups.group_count())
                            .filter(|&g| candidate(&view, g))
                            .find(|&g| {
                                if pick < rem_scratch[g] as usize {
                                    true
                                } else {
                                    pick -= rem_scratch[g] as usize;
                                    false
                                }
                            })
                            .expect("pick < total remaining");
                        // Uniform among the chosen group's unvisited members.
                        let (idx, node) = view.pick_member(
                            groups.members_of(chosen),
                            neighbors,
                            rem_scratch[chosen] as usize,
                            batch,
                            rng,
                        );
                        view.record(idx, node, groups.keys[chosen]);
                        node
                    }
                },
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
                    .expect("scratch walker keeps its strategy")
                    .assign(
                        &*client,
                        &self.scratch_neighbors,
                        &mut self.scratch_assignments,
                    );
                // The scratch map is reused across steps; under `Exact`
                // bucketing distinct value keys could otherwise accumulate
                // without bound, so shed stale *entries* when the map
                // balloons — parking the cleared member vectors on a
                // freelist so their buffers are recycled, not re-allocated.
                if self.scratch_groups.len() > 64 {
                    self.scratch_freelist
                        .extend(self.scratch_groups.drain().map(|(_, mut members)| {
                            members.clear();
                            members
                        }));
                } else {
                    self.scratch_groups.values_mut().for_each(Vec::clear);
                }
                let freelist = &mut self.scratch_freelist;
                let fresh = &mut self.fresh_group_allocs;
                for (i, &key) in self.scratch_assignments.iter().enumerate() {
                    self.scratch_groups
                        .entry(key)
                        .or_insert_with(|| {
                            freelist.pop().unwrap_or_else(|| {
                                *fresh += 1;
                                Vec::new()
                            })
                        })
                        .push(i as u32);
                }
                // Deterministic group ordering (sorted keys) so RNG
                // consumption does not depend on hash-map iteration order.
                self.scratch_keys.clear();
                self.scratch_keys.extend(
                    self.scratch_groups
                        .iter()
                        .filter(|(_, m)| !m.is_empty())
                        .map(|(&k, _)| k),
                );
                self.scratch_keys.sort_unstable();

                let neighbors = &self.scratch_neighbors;
                let mut view = self.history.edge_view(u, v, neighbors.len());
                // Unvisited members of group `k` in the current super-cycle.
                let remaining =
                    |groups: &FnvHashMap<u64, Vec<u32>>, view: &GroupEdgeView<'_>, k: u64| {
                        groups[&k]
                            .iter()
                            .filter(|&&i| !view.is_used(i as usize, neighbors[i as usize]))
                            .count()
                    };
                // Candidate groups: un-attempted (not in S(u,v)) with
                // unvisited members; if none, reset the group sub-cycle.
                self.scratch_candidates.clear();
                self.scratch_candidates.extend(
                    self.scratch_keys
                        .iter()
                        .filter(|&&k| !view.group_attempted(k))
                        .map(|&k| (k, remaining(&self.scratch_groups, &view, k)))
                        .filter(|&(_, r)| r > 0),
                );
                if self.scratch_candidates.is_empty() {
                    view.clear_attempted();
                    self.scratch_candidates.extend(
                        self.scratch_keys
                            .iter()
                            .map(|&k| (k, remaining(&self.scratch_groups, &view, k)))
                            .filter(|&(_, r)| r > 0),
                    );
                }
                let candidates = &self.scratch_candidates;
                debug_assert!(
                    !candidates.is_empty(),
                    "global b(u,v) resets before covering N(v)"
                );

                // Group chosen with probability proportional to its
                // not-yet-attempted transitions (Figure 4).
                let total: usize = candidates.iter().map(|&(_, r)| r).sum();
                let mut pick = (*rng).gen_range(0..total);
                let mut chosen = candidates[0].0;
                let mut chosen_remaining = candidates[0].1;
                for &(k, r) in candidates {
                    if pick < r {
                        chosen = k;
                        chosen_remaining = r;
                        break;
                    }
                    pick -= r;
                }

                // Uniform among the chosen group's unvisited members.
                let rank = (*rng).gen_range(0..chosen_remaining);
                let idx = self.scratch_groups[&chosen]
                    .iter()
                    .filter(|&&i| !view.is_used(i as usize, neighbors[i as usize]))
                    .nth(rank)
                    .copied()
                    .expect("rank < remaining") as usize;
                let node = neighbors[idx];

                // Record; the view resets the super-cycle once N(v) is
                // covered (Algorithm 2 step 4).
                view.record(idx, node, chosen);
                node
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
        // and all `scratch_*` fields are per-step transients — the walk
        // position, the circulation history, and (plan path) the buffered
        // RNG draws are the resumable state.
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
        check_backend(history_state, self.backend())?;
        let prev = prev_from_value(state.field("prev")?)?;
        let current = NodeId(state.field("current")?.decode()?);
        // Restore the pending draw buffer first (absent in scratch-walker
        // exports: resume with an empty buffer).
        let draws: Vec<u64> = match state.field("draws") {
            Ok(v) => v.decode()?,
            Err(_) => Vec::new(),
        };
        match &mut self.plan {
            Some(ps) => {
                ps.batch = DrawBatch::restore(&draws)?;
                match &mut ps.cnrw {
                    Some(cnrw) => *cnrw = EdgeHistory::import_state(history_state)?,
                    None => self.history = GroupHistory::import_state(history_state)?,
                }
            }
            None => {
                if !draws.is_empty() {
                    return Err("scratch GNRW cannot resume buffered draws".into());
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
        let mut w = Gnrw::with_plan(NodeId(0), plan, PlanMode::Alias);
        assert_eq!(w.plan_mode(), Some(PlanMode::Alias));
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
        let mut w = Gnrw::with_plan(NodeId(0), plan, PlanMode::Alias);
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
    fn backends_produce_identical_traces() {
        // GNRW's draw consumes exactly two `gen_range` calls per historied
        // step on either backend, and both backends track the same used
        // sets — so unlike CNRW the traces must be bit-identical, not just
        // distributionally equivalent.
        let run = |backend: HistoryBackend| {
            let mut client = two_community_client();
            let mut rng = ChaCha12Rng::seed_from_u64(21);
            let mut w =
                Gnrw::with_backend(NodeId(0), Box::new(ByAttribute::new("community")), backend);
            let trace: Vec<NodeId> = (0..3000)
                .map(|_| w.step(&mut client, &mut rng).unwrap())
                .collect();
            (trace, w.tracked_edges(), w.history_entries())
        };
        assert_eq!(run(HistoryBackend::Legacy), run(HistoryBackend::Arena));
    }

    #[test]
    fn plan_exact_is_bit_identical_to_scratch() {
        // The keystone of the Exact mode: plan-provided groups + batched
        // draws consume the same u64 stream in the same order as the
        // per-step scratch derivation, on both backends. Exact value
        // bucketing keeps the plan non-degenerate so the comparison
        // exercises the real group circulation, not the CNRW delegate.
        let network = two_community_network();
        let plan = Arc::new(GroupPlan::build(
            &network,
            &ByAttribute::with_bucketing("community", ValueBucketing::Exact),
        ));
        assert_eq!(plan.degenerate(), None);
        for backend in HistoryBackend::ALL {
            let scratch = {
                let mut client = two_community_client();
                let mut rng = ChaCha12Rng::seed_from_u64(21);
                let mut w = Gnrw::with_backend(
                    NodeId(0),
                    Box::new(ByAttribute::with_bucketing(
                        "community",
                        ValueBucketing::Exact,
                    )),
                    backend,
                );
                (0..3000)
                    .map(|_| w.step(&mut client, &mut rng).unwrap())
                    .collect::<Vec<_>>()
            };
            let planned = {
                let mut client = two_community_client();
                let mut rng = ChaCha12Rng::seed_from_u64(21);
                let mut w =
                    Gnrw::with_plan_backend(NodeId(0), Arc::clone(&plan), PlanMode::Exact, backend);
                (0..3000)
                    .map(|_| w.step(&mut client, &mut rng).unwrap())
                    .collect::<Vec<_>>()
            };
            assert_eq!(scratch, planned, "trace diverged on {backend}");
        }
    }

    #[test]
    fn degenerate_plans_are_bit_identical_to_cnrw() {
        // Singleton groups (ByNode) and a single group (ByHash(1)) both
        // collapse GNRW to CNRW; the plan detects it and the walker must
        // delegate, making traces bit-identical to a CNRW walker — the
        // scratch path is NOT (it burns two draws per step to CNRW's one),
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
            let mut w = Gnrw::with_plan(NodeId(0), plan, PlanMode::Alias);
            assert!(w.is_cnrw_degenerate());
            let trace: Vec<NodeId> = (0..3000)
                .map(|_| w.step(&mut client, &mut rng).unwrap())
                .collect();
            assert_eq!(trace, cnrw_trace, "{} diverged from CNRW", strategy.label());
        }
    }

    #[test]
    fn alias_downgrades_when_groups_exceed_bitmask() {
        // A grouping with more than 64 groups on some node cannot use the
        // u64 attempted-set; the walker must fall back to Exact silently.
        let mut b = GraphBuilder::new();
        for i in 1..=80u32 {
            b.push_edge(0, i);
            // Give every spoke a second edge so degrees differ from 1 and
            // the walk can leave.
            b.push_edge(i, if i == 80 { 1 } else { i + 1 });
        }
        let network = AttributedGraph::bare(b.build().unwrap());
        let plan = Arc::new(GroupPlan::build(&network, &ByNode::new()));
        // ByNode is degenerate — use a quantile strategy with many strata
        // to exceed 64 groups without degenerating.
        let plan_many = Arc::new(GroupPlan::build(&network, &ByDegree::quantile(80)));
        if plan_many.max_groups() > 64 {
            let w = Gnrw::with_plan(NodeId(0), plan_many, PlanMode::Alias);
            assert_eq!(w.plan_mode(), Some(PlanMode::Exact));
        }
        // The degenerate singleton plan stays whatever mode it was given
        // but delegates to CNRW.
        let w = Gnrw::with_plan(NodeId(0), plan, PlanMode::Alias);
        assert!(w.is_cnrw_degenerate());
    }

    #[test]
    fn scratch_freelist_recycles_group_vectors() {
        // Exact bucketing over a high-cardinality attribute churns >64
        // distinct group keys through the scratch map, forcing evictions;
        // the freelist must recycle the member vectors so fresh allocations
        // plateau instead of growing with the walk.
        let mut b = GraphBuilder::new();
        let n = 120u32;
        for i in 0..n {
            b.push_edge(i, (i + 1) % n);
            b.push_edge(i, (i + 7) % n);
        }
        let g = b.build().unwrap();
        let mut attrs = NodeAttributes::for_graph(&g);
        attrs
            .insert_uint("id", (0..u64::from(n)).collect())
            .unwrap();
        let mut client = SimulatedOsn::new(AttributedGraph::new(g, attrs).unwrap());
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        let mut w = Gnrw::new(
            NodeId(0),
            Box::new(ByAttribute::with_bucketing("id", ValueBucketing::Exact)),
        );
        for _ in 0..2000 {
            w.step(&mut client, &mut rng).unwrap();
        }
        let warm = w.fresh_group_allocs();
        assert!(warm > 0, "churn must have allocated something to recycle");
        for _ in 0..4000 {
            w.step(&mut client, &mut rng).unwrap();
        }
        assert_eq!(
            w.fresh_group_allocs(),
            warm,
            "steady-state steps allocated fresh group vectors"
        );
    }

    #[test]
    fn plan_walker_state_roundtrips_mid_batch() {
        // Export after an odd number of steps (draw buffer partially
        // consumed), import into a fresh walker, and check the two continue
        // bit-identically on the same RNG stream.
        let network = two_community_network();
        let plan = Arc::new(GroupPlan::build(
            &network,
            &ByAttribute::with_bucketing("community", ValueBucketing::Exact),
        ));
        assert_eq!(plan.degenerate(), None);
        for mode in [PlanMode::Exact, PlanMode::Alias] {
            let mut client = two_community_client();
            let mut rng = ChaCha12Rng::seed_from_u64(77);
            let mut w = Gnrw::with_plan(NodeId(0), Arc::clone(&plan), mode);
            for _ in 0..501 {
                w.step(&mut client, &mut rng).unwrap();
            }
            let state = w.export_state();
            let mut w2 = Gnrw::with_plan(NodeId(3), Arc::clone(&plan), mode);
            w2.import_state(&state).unwrap();
            let mut rng2 = rng.clone();
            for i in 0..500 {
                let a = w.step(&mut client, &mut rng).unwrap();
                let b = w2.step(&mut client, &mut rng2).unwrap();
                assert_eq!(a, b, "diverged at step {i} ({mode:?})");
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
        let w = Gnrw::with_plan(NodeId(0), plan, PlanMode::Alias);
        assert_eq!(w.name(), "GNRW[GNRW_By_Degree]");
        assert_eq!(w.strategy_label(), "GNRW_By_Degree");
        assert_eq!(w.fresh_group_allocs(), 0);
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
