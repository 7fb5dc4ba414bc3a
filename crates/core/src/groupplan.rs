//! Precomputed group plans for GNRW.
//!
//! A cold GNRW edge's exact step runs on the partition of `N(v)`; the
//! planless walker re-derives it at every such step — one
//! [`Grouping::assign`] pass and a partition by key, work proportional to
//! `deg(v)`. (Under a grouping that keys each node alone, a cold edge
//! first tries a step by rejection that needs no partition, and reads one
//! only when that step declines.) A [`GroupPlan`]
//! hoists that work into one streaming pass over a static snapshot: per
//! node, `member_perm` holds the local neighbor indices grouped
//! contiguously (groups in ascending key order, members in ascending index
//! order within a group — the partition [`partition_by_key`] gives the
//! planless step too), with `adj_offsets`/`group_index` offset arrays
//! locating each node's slice. Memory is `O(E)` `u32`s.
//!
//! A plan is immutable and shared (`Arc`) across walkers and threads;
//! per-edge circulation state stays in the walker's own
//! [`GroupEngine`](crate::circulation::GroupEngine), which freezes an
//! edge's partition when the edge promotes and reads the plan no more for
//! it.
//!
//! ## Equivalence
//!
//! A plan only changes where a cold edge's partition comes from. The
//! plan's partition of each `N(v)` is the one the planless step derives,
//! and both walkers run the same Algorithm-2 steps on the same edge state
//! — the step by rejection first wherever the grouping allows it,
//! so on a static snapshot a plan-backed walker's trace, accounting and
//! snapshots equal the planless walker's bit for bit — for every grouping,
//! the two extremes where GNRW walks CNRW's law included.

use osn_client::{BudgetExhausted, OsnClient, QueryStats};
use osn_graph::attributes::AttributedGraph;
use osn_graph::partition::{partition_by_key, FlatPartition};
use osn_graph::NodeId;

use crate::grouping::Grouping;

/// The partition of one node's neighbor list in flat form — a node's slice
/// of a [`GroupPlan`], or what the planless step derives. `members` holds
/// **local neighbor indices** (positions in `N(v)`), grouped contiguously
/// in ascending key order; `ends` closes each group.
#[derive(Clone, Copy, Debug)]
pub struct NodeGroups<'a> {
    /// Local neighbor indices, group-major; a permutation of `0..deg(v)`.
    pub members: &'a [u32],
    /// Per-group end offset (exclusive) into `members`.
    pub ends: &'a [u32],
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

    /// The local neighbor indices of group `g`, ascending.
    #[inline]
    pub fn members_of(&self, g: usize) -> &[u32] {
        let (start, end) = self.bounds(g);
        &self.members[start..end]
    }
}

impl<'a> From<&'a FlatPartition> for NodeGroups<'a> {
    /// The partition [`partition_by_key`] left in `part`.
    fn from(part: &'a FlatPartition) -> Self {
        NodeGroups {
            members: &part.perm,
            ends: &part.ends,
        }
    }
}

/// Free-peek [`OsnClient`] over a borrowed snapshot, used to drive
/// [`Grouping::assign`] during plan construction. Neighbor queries
/// answer from the graph without accounting — the plan is built by the
/// *operator* of the snapshot, not by the budget-limited sampler; grouping
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

/// The per-graph, per-grouping precomputed partitions: every node's
/// neighbor partition in CSR-style flat storage. See the module docs for
/// layout and equivalence guarantees.
#[derive(Debug)]
pub struct GroupPlan {
    grouping: Grouping,
    /// `node_count + 1` offsets into `member_perm` (== the graph's CSR
    /// offsets, re-derived so the plan is self-contained).
    adj_offsets: Vec<u32>,
    /// Local neighbor indices, group-major per node (see [`NodeGroups`]).
    member_perm: Vec<u32>,
    /// `node_count + 1` offsets into `group_ends`.
    group_index: Vec<u32>,
    /// Per-group end offsets, local to the owning node's `members` slice.
    group_ends: Vec<u32>,
    max_groups: usize,
}

impl GroupPlan {
    /// Build the plan: one streaming pass over the adjacency, running the
    /// grouping's `assign` per neighborhood (attribute peeks answered from
    /// the snapshot's real columns) and flattening each partition. The
    /// plan keeps a copy of `grouping`.
    ///
    /// # Panics
    /// Panics if the graph holds more than `u32::MAX` directed edges (the
    /// flat `u32` offsets assume arc counts fit 32 bits).
    pub fn build(network: &AttributedGraph, grouping: &Grouping) -> Self {
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
            grouping: grouping.clone(),
            adj_offsets: Vec::with_capacity(n + 1),
            member_perm: Vec::with_capacity(total_arcs),
            group_index: Vec::with_capacity(n + 1),
            group_ends: Vec::new(),
            max_groups: 0,
        };
        plan.adj_offsets.push(0);
        plan.group_index.push(0);
        for v in 0..n {
            let neighbors = graph.neighbors(NodeId(v as u32));
            grouping.assign(&probe, neighbors, &mut keys);
            debug_assert_eq!(keys.len(), neighbors.len(), "assign fills one key per node");
            partition_by_key(&keys, &mut part);
            plan.member_perm.extend_from_slice(&part.perm);
            plan.group_ends.extend_from_slice(&part.ends);
            plan.adj_offsets.push(plan.member_perm.len() as u32);
            plan.group_index.push(plan.group_ends.len() as u32);
            plan.max_groups = plan.max_groups.max(part.group_count());
        }
        plan
    }

    /// The grouping the plan was built from.
    pub fn grouping(&self) -> &Grouping {
        &self.grouping
    }

    /// Number of nodes the plan covers.
    pub fn node_count(&self) -> usize {
        self.adj_offsets.len() - 1
    }

    /// Largest per-node group count.
    pub fn max_groups(&self) -> usize {
        self.max_groups
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
        }
    }

    /// Approximate heap footprint in bytes: the `O(E)` flat arrays.
    pub fn heap_bytes(&self) -> usize {
        (self.adj_offsets.capacity()
            + self.member_perm.capacity()
            + self.group_index.capacity()
            + self.group_ends.capacity())
            * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::attributes::NodeAttributes;
    use osn_graph::GraphBuilder;

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
        // For each node, the plan's groups must be what the planless step
        // computes: one key per group, keys ascending across groups,
        // ascending member indices within a group.
        let network = reviews_network();
        let grouping = Grouping::attribute_quantile("reviews", 2);
        let plan = GroupPlan::build(&network, &grouping);
        assert_eq!(plan.grouping(), &grouping);
        let probe = PlanProbe { network: &network };
        for v in 0..network.graph.node_count() {
            let v = NodeId(v as u32);
            let neighbors = network.graph.neighbors(v);
            let mut keys = Vec::new();
            grouping.assign(&probe, neighbors, &mut keys);
            let groups = plan.groups(v);
            assert_eq!(groups.len(), neighbors.len());
            let mut sorted_keys: Vec<u64> = keys.clone();
            sorted_keys.sort_unstable();
            sorted_keys.dedup();
            assert_eq!(groups.group_count(), sorted_keys.len(), "node {v:?} groups");
            for (g, &key) in sorted_keys.iter().enumerate() {
                let members = groups.members_of(g);
                assert!(!members.is_empty());
                assert!(members.windows(2).all(|w| w[0] < w[1]), "ascending");
                for &m in members {
                    assert_eq!(keys[m as usize], key, "member in group");
                }
            }
        }
    }

    #[test]
    fn plan_members_are_permutations() {
        let network = reviews_network();
        let plan = GroupPlan::build(&network, &Grouping::by_degree());
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
    fn edgeless_graph_plan_is_empty() {
        let g = GraphBuilder::new().with_nodes(3).build().unwrap();
        let network = AttributedGraph::bare(g);
        let plan = GroupPlan::build(&network, &Grouping::by_degree());
        assert_eq!(plan.node_count(), 3);
        assert_eq!(plan.max_groups(), 0);
        assert!(plan.groups(NodeId(0)).is_empty());
    }
}
