//! Precomputed group plans for GNRW.
//!
//! The planless GNRW step re-derives the neighborhood partition on **every
//! historied transition**: one strategy `assign` pass and a partition by
//! key — work proportional to `deg(v)` with heavy constant factors, repeated
//! millions of times over the same static snapshot. A [`GroupPlan`] hoists
//! all of it into a one-off streaming pass over the graph:
//!
//! * **Flat CSR-style storage** — per node, `member_perm` holds the local
//!   neighbor indices grouped contiguously (groups in ascending key order,
//!   members in ascending index order within a group — the partition
//!   [`partition_by_key`] gives the planless step too), with
//!   `adj_offsets`/`group_index` offset arrays locating each node's slice.
//!   Memory is `O(E)` `u32`s.
//! * **Alias tables** — size-proportional group selection in `O(1)` per
//!   draw ([`AliasTable`], integer Vose construction), built lazily on
//!   first touch of a node or eagerly via
//!   [`GroupPlan::warm_alias_tables`].
//! * **Degenerate-grouping detection** — per-node singleton groups or a
//!   single group per node make GNRW *equal* to CNRW (paper §4.1's two
//!   extremes); the plan detects both at build time so the walker can
//!   delegate to the plain CNRW circulation, bit-identical to [`Cnrw`].
//! * **Batched RNG** — [`DrawBatch`] buffers a block of `u64`s per walker
//!   (filled through [`rand::RngCore::fill_u64s`], one virtual call per
//!   block instead of per draw) and serves both the group pick and the
//!   member pick.
//!
//! A plan is immutable and shared (`Arc`) across walkers and threads;
//! per-edge circulation state stays in the walker's own
//! [`GroupEngine`](crate::circulation::GroupEngine).
//!
//! ## Equivalence boundaries
//!
//! A plan-backed walker deliberately reorders draws relative to the
//! planless one: group proposals come from the alias table (∝ full group
//! size, rejecting attempted/exhausted groups) instead of a weighted scan
//! over not-yet-attempted transitions, so mid-super-cycle group choice has
//! a different conditional distribution. The super-cycle invariant —
//! `b(u, v)` covers `N(v)` exactly once per cycle — is untouched, and by
//! Theorem 4 that is the only property the stationary distribution needs;
//! the alias path is therefore pinned by per-cycle exact-coverage and
//! stationarity tests rather than trace equality. A plan with more than 64
//! groups at some node runs the planless walker's Algorithm-2 step over its
//! groups, through the batch, and is pinned bit-identical to it.
//!
//! [`Cnrw`]: crate::walkers::Cnrw

use std::sync::OnceLock;

use osn_client::{BudgetExhausted, OsnClient, QueryStats};
use osn_graph::attributes::AttributedGraph;
use osn_graph::partition::{partition_by_key, FlatPartition};
use osn_graph::NodeId;
use rand::RngCore;

use crate::grouping::GroupingStrategy;

/// A grouping that makes GNRW collapse to CNRW (paper §4.1's two extremes
/// of the grouping design space).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegenerateGrouping {
    /// Every node's neighbors fall in one group: group circulation is
    /// vacuous and the walk is exactly CNRW.
    SingleGroup,
    /// Every neighbor is its own group: the group pick *is* the member
    /// pick, again exactly CNRW.
    Singletons,
}

/// Number of `u64`s a [`DrawBatch`] requests per refill.
pub const DRAW_BATCH: usize = 8;

/// A small per-walker buffer of raw RNG output, refilled a block at a time
/// through [`RngCore::fill_u64s`] — so a walker stepping through
/// `&mut dyn RngCore` pays one virtual call per [`DRAW_BATCH`] draws
/// instead of one per draw.
///
/// Draw *values* are identical to calling the generator directly: the
/// `k`-th ranged draw uses the `k`-th `next_u64` output under the same
/// widening-multiply reduction `gen_range` uses. Buffered-but-unused draws
/// are part of a walker's resumable state ([`Self::pending`] /
/// [`Self::restore`]); discarding them (e.g. on restart) is a documented
/// equivalence boundary.
#[derive(Clone, Debug, Default)]
pub struct DrawBatch {
    buf: [u64; DRAW_BATCH],
    pos: u8,
    len: u8,
}

impl DrawBatch {
    /// An empty buffer (first draw triggers a refill).
    pub fn new() -> Self {
        Self::default()
    }

    /// The next raw `u64`, refilling from `rng` when the buffer is empty.
    #[inline]
    pub fn next_u64(&mut self, rng: &mut dyn RngCore) -> u64 {
        if self.pos == self.len {
            rng.fill_u64s(&mut self.buf);
            self.pos = 0;
            self.len = DRAW_BATCH as u8;
        }
        let draw = self.buf[usize::from(self.pos)];
        self.pos += 1;
        draw
    }

    /// Uniform draw from `0..span` consuming exactly one buffered `u64`,
    /// via the same widening-multiply reduction as `gen_range` — so a
    /// batched consumer reproduces an unbatched one bit-for-bit.
    #[inline]
    pub fn range(&mut self, span: usize, rng: &mut dyn RngCore) -> usize {
        debug_assert!(span > 0, "cannot sample empty range");
        ((u128::from(self.next_u64(rng)) * span as u128) >> 64) as usize
    }

    /// Buffered draws not yet consumed — the state to serialize on export.
    pub fn pending(&self) -> &[u64] {
        &self.buf[usize::from(self.pos)..usize::from(self.len)]
    }

    /// Discard any buffered draws (used on restart; see the struct docs).
    pub fn clear(&mut self) {
        self.pos = 0;
        self.len = 0;
    }

    /// Rebuild a buffer from [`pending`](Self::pending) output, preserving
    /// consumption order.
    ///
    /// # Errors
    /// Returns a message when more than [`DRAW_BATCH`] draws are supplied.
    pub fn restore(pending: &[u64]) -> Result<Self, String> {
        if pending.len() > DRAW_BATCH {
            return Err(format!(
                "pending draw buffer holds {} > {DRAW_BATCH}",
                pending.len()
            ));
        }
        let mut buf = [0u64; DRAW_BATCH];
        buf[..pending.len()].copy_from_slice(pending);
        Ok(DrawBatch {
            buf,
            pos: 0,
            len: pending.len() as u8,
        })
    }
}

/// An alias table over integer weights: `O(1)` draws from the distribution
/// `P(i) = w_i / Σw`, built in `O(n)` with Vose's method on 64-bit
/// fixed-point thresholds (exact up to 1 part in 2⁶⁴).
#[derive(Clone, Debug)]
pub struct AliasTable {
    /// Acceptance threshold of each slot, as a 2⁻⁶⁴ fixed-point fraction.
    prob: Vec<u64>,
    /// Donor column for rejected slots (self-alias when the slot is full).
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build the table for `weights` (all nonzero).
    ///
    /// # Panics
    /// Panics on empty input or a zero weight.
    pub fn new(weights: &[u64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let n = weights.len();
        let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
        assert!(total > 0, "alias table weights must not all be zero");
        // Scale each weight by n so the average column is exactly `total`.
        let mut scaled: Vec<u128> = weights
            .iter()
            .map(|&w| {
                assert!(w > 0, "alias table weights must be nonzero");
                u128::from(w) * n as u128
            })
            .collect();
        let mut prob = vec![u64::MAX; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < total {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            let (s, l) = (s as usize, l as usize);
            debug_assert!(scaled[s] < (1u128 << 64), "underfull column overflows");
            prob[s] = ((scaled[s] << 64) / total) as u64;
            alias[s] = l as u32;
            scaled[l] -= total - scaled[s];
            if scaled[l] < total {
                large.pop();
                small.push(l as u32);
            }
        }
        // Leftover columns (either queue) are exactly full up to rounding:
        // keep their initialized always-accept state.
        AliasTable { prob, alias }
    }

    /// Number of weights the table was built over.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Map one uniform `u64` to a weighted index: the high bits pick the
    /// column, the low bits run the accept/alias test — one multiply, one
    /// compare, no second draw.
    #[inline]
    pub fn sample(&self, r: u64) -> usize {
        let wide = u128::from(r) * self.prob.len() as u128;
        let col = (wide >> 64) as usize;
        let frac = wide as u64;
        if frac < self.prob[col] {
            col
        } else {
            self.alias[col] as usize
        }
    }
}

/// One node's slice of a [`GroupPlan`]: the neighbor partition in flat
/// form. `members` holds **local neighbor indices** (positions in `N(v)`),
/// grouped contiguously; `ends`/`keys` describe the groups.
#[derive(Clone, Copy, Debug)]
pub struct NodeGroups<'a> {
    /// Local neighbor indices, group-major; a permutation of `0..deg(v)`.
    pub members: &'a [u32],
    /// Per-group end offset (exclusive) into `members`.
    pub ends: &'a [u32],
    /// Per-group strategy key, ascending — the `S(u, v)` identity of each
    /// group, identical to what the planless step derives.
    pub keys: &'a [u64],
}

impl NodeGroups<'_> {
    /// `deg(v)`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the node has no neighbors.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.ends.len()
    }

    /// Half-open `members` range of group `g`.
    #[inline]
    pub fn bounds(&self, g: usize) -> (usize, usize) {
        let start = if g == 0 { 0 } else { self.ends[g - 1] as usize };
        (start, self.ends[g] as usize)
    }

    /// Size of group `g`.
    #[inline]
    pub fn group_len(&self, g: usize) -> usize {
        let (start, end) = self.bounds(g);
        end - start
    }

    /// The local neighbor indices of group `g`, ascending.
    #[inline]
    pub fn members_of(&self, g: usize) -> &[u32] {
        let (start, end) = self.bounds(g);
        &self.members[start..end]
    }
}

/// Free-peek [`OsnClient`] over a borrowed snapshot, used to drive
/// [`GroupingStrategy::assign`] during plan construction. Neighbor queries
/// answer from the graph without accounting — the plan is built by the
/// *operator* of the snapshot, not by the budget-limited sampler; strategy
/// peeks (degree, attributes) are free through any client anyway.
struct PlanProbe<'a> {
    network: &'a AttributedGraph,
}

impl OsnClient for PlanProbe<'_> {
    fn neighbors(&mut self, u: NodeId) -> Result<&[NodeId], BudgetExhausted> {
        Ok(self.network.graph.neighbors(u))
    }

    fn peek_degree(&self, u: NodeId) -> usize {
        self.network.graph.degree(u)
    }

    fn peek_attribute(&self, u: NodeId, name: &str) -> Option<f64> {
        // Same lookup as `SimulatedOsn::peek_attribute`: the plan's group
        // keys must equal what the walker-facing client would produce.
        self.network.attributes.value_f64(name, u).ok()
    }

    fn stats(&self) -> QueryStats {
        QueryStats::default()
    }
}

/// The per-graph, per-strategy precomputed grouping: every node's neighbor
/// partition in CSR-style flat storage, plus lazily built alias tables for
/// size-proportional group selection. See the module docs for layout and
/// equivalence guarantees.
#[derive(Debug)]
pub struct GroupPlan {
    strategy_label: String,
    /// `node_count + 1` offsets into `member_perm` (== the graph's CSR
    /// offsets, re-derived so the plan is self-contained).
    adj_offsets: Vec<u32>,
    /// Local neighbor indices, group-major per node (see [`NodeGroups`]).
    member_perm: Vec<u32>,
    /// `node_count + 1` offsets into `group_ends` / `group_keys`.
    group_index: Vec<u32>,
    /// Per-group end offsets, local to the owning node's `members` slice.
    group_ends: Vec<u32>,
    /// Per-group strategy keys, ascending per node.
    group_keys: Vec<u64>,
    /// Lazily built per-node alias tables (nodes with ≥ 2 groups only).
    alias: Vec<OnceLock<AliasTable>>,
    max_groups: usize,
    degenerate: Option<DegenerateGrouping>,
}

impl GroupPlan {
    /// Build the plan: one streaming pass over the adjacency, running the
    /// strategy's `assign` per neighborhood (attribute peeks answered from
    /// the snapshot's real columns) and flattening each partition.
    ///
    /// # Panics
    /// Panics if the graph holds more than `u32::MAX` directed edges (the
    /// flat `u32` offsets — and the alias tables' overflow-free integer
    /// arithmetic — assume arc counts fit 32 bits).
    pub fn build(network: &AttributedGraph, strategy: &dyn GroupingStrategy) -> Self {
        let graph = &network.graph;
        let n = graph.node_count();
        assert!(
            graph.total_degree() <= u64::from(u32::MAX),
            "group plan requires arc count to fit u32"
        );
        let probe = PlanProbe { network };
        let mut keys = Vec::new();
        let mut part = FlatPartition::default();
        let total_arcs = graph.total_degree() as usize;
        let mut plan = GroupPlan {
            strategy_label: strategy.label(),
            adj_offsets: Vec::with_capacity(n + 1),
            member_perm: Vec::with_capacity(total_arcs),
            group_index: Vec::with_capacity(n + 1),
            group_ends: Vec::new(),
            group_keys: Vec::new(),
            alias: Vec::new(),
            max_groups: 0,
            degenerate: None,
        };
        plan.adj_offsets.push(0);
        plan.group_index.push(0);
        plan.alias.resize_with(n, OnceLock::new);
        // A grouping is degenerate only if it is so on every node where the
        // distinction matters (deg ≥ 2); trivial neighborhoods are
        // compatible with both forms.
        let mut all_single = true;
        let mut all_singleton = true;
        for v in 0..n {
            let neighbors = graph.neighbors(NodeId(v as u32));
            strategy.assign(&probe, neighbors, &mut keys);
            debug_assert_eq!(keys.len(), neighbors.len(), "assign fills one key per node");
            partition_by_key(&keys, &mut part);
            plan.member_perm.extend_from_slice(&part.perm);
            plan.group_ends.extend_from_slice(&part.ends);
            plan.group_keys.extend_from_slice(&part.keys);
            plan.adj_offsets.push(plan.member_perm.len() as u32);
            plan.group_index.push(plan.group_ends.len() as u32);
            let g = part.group_count();
            plan.max_groups = plan.max_groups.max(g);
            if neighbors.len() >= 2 {
                all_single &= g == 1;
                all_singleton &= g == neighbors.len();
            }
        }
        plan.degenerate = if n == 0 {
            None
        } else if all_single {
            Some(DegenerateGrouping::SingleGroup)
        } else if all_singleton {
            Some(DegenerateGrouping::Singletons)
        } else {
            None
        };
        plan
    }

    /// The strategy's label (e.g. `GNRW_By_Degree`), for walker naming.
    pub fn strategy_label(&self) -> &str {
        &self.strategy_label
    }

    /// Number of nodes the plan covers.
    pub fn node_count(&self) -> usize {
        self.alias.len()
    }

    /// Largest per-node group count — the alias path's `u64` attempted-set
    /// bitmask needs this ≤ 64 (the walker runs the Algorithm-2 step over
    /// the plan's groups otherwise).
    pub fn max_groups(&self) -> usize {
        self.max_groups
    }

    /// The CNRW-equivalent degeneration this grouping exhibits, if any.
    pub fn degenerate(&self) -> Option<DegenerateGrouping> {
        self.degenerate
    }

    /// Node `v`'s flat partition.
    #[inline]
    pub fn groups(&self, v: NodeId) -> NodeGroups<'_> {
        let i = v.index();
        let (ms, me) = (
            self.adj_offsets[i] as usize,
            self.adj_offsets[i + 1] as usize,
        );
        let (gs, ge) = (
            self.group_index[i] as usize,
            self.group_index[i + 1] as usize,
        );
        NodeGroups {
            members: &self.member_perm[ms..me],
            ends: &self.group_ends[gs..ge],
            keys: &self.group_keys[gs..ge],
        }
    }

    /// Node `v`'s alias table over group sizes, built on first touch;
    /// `None` when the node has fewer than two groups (nothing to select).
    #[inline]
    pub fn alias(&self, v: NodeId) -> Option<&AliasTable> {
        let groups = self.groups(v);
        if groups.group_count() < 2 {
            return None;
        }
        Some(self.alias[v.index()].get_or_init(|| {
            let sizes: Vec<u64> = (0..groups.group_count())
                .map(|g| groups.group_len(g) as u64)
                .collect();
            AliasTable::new(&sizes)
        }))
    }

    /// Eagerly build every node's alias table (the `Scale::Full` posture:
    /// pay construction once up front instead of on first touch).
    pub fn warm_alias_tables(&self) {
        for v in 0..self.node_count() {
            let _ = self.alias(NodeId(v as u32));
        }
    }

    /// Approximate heap footprint in bytes: the `O(E)` flat arrays plus
    /// whatever alias tables have been built so far.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let flat = (self.adj_offsets.capacity()
            + self.member_perm.capacity()
            + self.group_index.capacity()
            + self.group_ends.capacity())
            * size_of::<u32>()
            + self.group_keys.capacity() * size_of::<u64>();
        let alias: usize = self
            .alias
            .iter()
            .filter_map(|cell| cell.get())
            .map(|t| t.len() * (size_of::<u64>() + size_of::<u32>()))
            .sum::<usize>()
            + self.alias.capacity() * size_of::<OnceLock<AliasTable>>();
        flat + alias
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::{ByAttribute, ByDegree, ByHash};
    use osn_graph::attributes::NodeAttributes;
    use osn_graph::GraphBuilder;
    use rand::{RngCore, SeedableRng, SplitMix64};

    fn reviews_network() -> AttributedGraph {
        // Two K4 cliques bridged at 3-4, with a skewed "reviews" column.
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
            .insert_uint("reviews", vec![0, 1, 2, 3, 10, 20, 30, 40])
            .unwrap();
        AttributedGraph::new(g, attrs).unwrap()
    }

    #[test]
    fn plan_partition_matches_scratch_derivation() {
        // For each node, the plan's (keys, members) must equal what the
        // planless step computes: sorted keys, ascending member indices
        // within a group.
        let network = reviews_network();
        let strategy = ByAttribute::quantile("reviews", 2);
        let plan = GroupPlan::build(&network, &strategy);
        assert_eq!(plan.strategy_label(), "GNRW_By_reviews");
        let probe = PlanProbe { network: &network };
        for v in 0..network.graph.node_count() {
            let v = NodeId(v as u32);
            let neighbors = network.graph.neighbors(v);
            let mut keys = Vec::new();
            strategy.assign(&probe, neighbors, &mut keys);
            let groups = plan.groups(v);
            assert_eq!(groups.len(), neighbors.len());
            let mut sorted_keys: Vec<u64> = keys.clone();
            sorted_keys.sort_unstable();
            sorted_keys.dedup();
            assert_eq!(groups.keys, &sorted_keys[..], "node {v:?} keys");
            for g in 0..groups.group_count() {
                let members = groups.members_of(g);
                assert!(!members.is_empty());
                assert!(members.windows(2).all(|w| w[0] < w[1]), "ascending");
                for &m in members {
                    assert_eq!(keys[m as usize], groups.keys[g], "member in group");
                }
            }
        }
    }

    #[test]
    fn plan_members_are_permutations() {
        let network = reviews_network();
        let plan = GroupPlan::build(&network, &ByDegree::new());
        for v in 0..network.graph.node_count() {
            let v = NodeId(v as u32);
            let groups = plan.groups(v);
            let mut seen: Vec<u32> = groups.members.to_vec();
            seen.sort_unstable();
            let expect: Vec<u32> = (0..network.graph.degree(v) as u32).collect();
            assert_eq!(seen, expect, "node {v:?}");
        }
    }

    #[test]
    fn degenerate_detection() {
        let network = reviews_network();
        assert_eq!(
            GroupPlan::build(&network, &ByHash::new(1)).degenerate(),
            Some(DegenerateGrouping::SingleGroup)
        );
        // Exact bucketing of distinct per-node values: every neighbor its
        // own group on every neighborhood of this network.
        let singleton = ByAttribute::with_bucketing("reviews", crate::ValueBucketing::Exact);
        assert_eq!(
            GroupPlan::build(&network, &singleton).degenerate(),
            Some(DegenerateGrouping::Singletons)
        );
        assert_eq!(
            GroupPlan::build(&network, &ByAttribute::quantile("reviews", 2)).degenerate(),
            None
        );
    }

    #[test]
    fn alias_table_frequencies_match_weights() {
        let weights = [1u64, 2, 5, 12];
        let table = AliasTable::new(&weights);
        assert_eq!(table.len(), 4);
        let total: u64 = weights.iter().sum();
        let mut rng = SplitMix64::seed_from_u64(7);
        let n = 200_000usize;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[table.sample(rng.next_u64())] += 1;
        }
        // Chi-square with 3 dof: 16.27 is the 0.1% critical value; stay an
        // order of magnitude under it for a deterministic seed.
        let chi2: f64 = counts
            .iter()
            .zip(&weights)
            .map(|(&c, &w)| {
                let expect = n as f64 * w as f64 / total as f64;
                (c as f64 - expect).powi(2) / expect
            })
            .sum();
        assert!(chi2 < 16.27, "chi-square {chi2} too large: {counts:?}");
    }

    #[test]
    fn alias_table_single_weight_always_returns_it() {
        let table = AliasTable::new(&[42]);
        let mut rng = SplitMix64::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(table.sample(rng.next_u64()), 0);
        }
        assert!(!table.is_empty());
    }

    #[test]
    fn plan_alias_lazy_and_warm() {
        let network = reviews_network();
        let plan = GroupPlan::build(&network, &ByAttribute::quantile("reviews", 2));
        let before = plan.heap_bytes();
        plan.warm_alias_tables();
        assert!(plan.heap_bytes() > before, "warming builds tables");
        for v in 0..network.graph.node_count() {
            let v = NodeId(v as u32);
            let groups = plan.groups(v);
            match plan.alias(v) {
                Some(table) => {
                    assert!(groups.group_count() >= 2);
                    assert_eq!(table.len(), groups.group_count());
                }
                None => assert!(groups.group_count() < 2),
            }
        }
    }

    #[test]
    fn draw_batch_reproduces_direct_draws() {
        // The k-th ranged draw through a batch must equal the k-th direct
        // gen_range on a twin generator: same u64 stream, same reduction.
        use rand::Rng;
        let mut direct = SplitMix64::seed_from_u64(99);
        let mut batched_rng = SplitMix64::seed_from_u64(99);
        let mut batch = DrawBatch::new();
        for span in [3usize, 10, 7, 1, 100, 64, 2, 9, 31, 5, 17, 4] {
            let expect = direct.gen_range(0..span);
            let got = batch.range(span, &mut batched_rng);
            assert_eq!(got, expect, "span {span}");
        }
    }

    #[test]
    fn draw_batch_pending_roundtrip() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let mut batch = DrawBatch::new();
        batch.next_u64(&mut rng);
        batch.next_u64(&mut rng);
        let pending = batch.pending().to_vec();
        assert_eq!(pending.len(), DRAW_BATCH - 2);
        let mut restored = DrawBatch::restore(&pending).unwrap();
        // Both buffers must now yield the same remaining draws before
        // refilling.
        let mut rng2 = SplitMix64::seed_from_u64(3);
        for _ in 0..pending.len() {
            assert_eq!(restored.next_u64(&mut rng2), batch.next_u64(&mut rng));
        }
        assert!(DrawBatch::restore(&[0; DRAW_BATCH + 1]).is_err());
        let mut empty = DrawBatch::new();
        assert!(empty.pending().is_empty());
        empty.clear();
        assert!(empty.pending().is_empty());
    }

    #[test]
    fn edgeless_graph_plan_is_trivially_degenerate() {
        let g = GraphBuilder::new().with_nodes(3).build().unwrap();
        let network = AttributedGraph::bare(g);
        let plan = GroupPlan::build(&network, &ByDegree::new());
        assert_eq!(plan.node_count(), 3);
        // No node has ≥ 2 neighbors, so grouping cannot matter anywhere:
        // trivially the single-group degeneration.
        assert_eq!(plan.degenerate(), Some(DegenerateGrouping::SingleGroup));
        assert_eq!(plan.max_groups(), 0);
        assert!(plan.groups(NodeId(0)).is_empty());
        assert!(plan.alias(NodeId(0)).is_none());
    }
}
