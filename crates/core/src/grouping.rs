//! GNRW's grouping `g(·)`.
//!
//! GNRW stratifies the neighbors of the current node into groups and
//! circulates among groups before circulating within them. *Which* grouping
//! to use is a modelling decision the paper studies directly (§4.1, Figure
//! 9): group by the attribute you intend to aggregate and the walk
//! propagates across attribute values faster, improving exactly the estimate
//! you care about. [`Grouping`] is that one function of interface-visible
//! metadata; its constructors name the evaluated choices:
//!
//! * [`Grouping::by_degree`] — `GNRW_By_Degree`: similar-degree neighbors
//!   together;
//! * [`Grouping::by_attribute`] — `GNRW_By_ReviewsCount` etc.: group by a
//!   profile attribute (visible as listing metadata, see `osn-client`);
//! * [`Grouping::by_hash`] — `GNRW_By_MD5`: pseudorandom
//!   attribute-independent groups (our stand-in hashes ids with FNV-1a
//!   instead of MD5; only uniformity matters);
//! * [`Grouping::by_node`] — singleton groups, one extreme of the design
//!   space; `by_hash(1)`, one group, is the other. At both GNRW walks
//!   CNRW's transition law (§4.1).
//!
//! ## Keys of one node, and keys of a neighborhood
//!
//! Value buckets of degree or an attribute ([`Grouping::degree_log2`],
//! [`Grouping::degree_bucketed`], [`Grouping::attribute_bucketed`]), hash
//! and per-node groupings key a node by that node alone, so a cold GNRW
//! step can key just the neighbors it proposes instead of all of `N(v)`
//! (see [`Gnrw`](crate::walkers::Gnrw)). Rank-quantile groupings
//! ([`Grouping::by_degree`], [`Grouping::degree_quantile`],
//! [`Grouping::by_attribute`], [`Grouping::attribute_quantile`]) key a
//! node by its rank in the neighborhood, which takes every neighbor's
//! value.
//!
//! ## Balanced strata and the singleton-group transient
//!
//! The paper leaves the bucketing of numeric values unspecified. This
//! matters more than it looks: value-based buckets (e.g. `log2(degree)`) on
//! heavy-tailed attributes put hub nodes in **singleton groups**, and the
//! group circulation visits every group once before repeating any — so in
//! walks short enough that super-cycles rarely complete, members of tiny
//! groups are sampled earlier (and thus more often) than uniform. The
//! stationary distribution is untouched (circulations cover every neighbor
//! exactly once), but the *transient* over-samples hubs, which is exactly
//! the regime budget-limited sampling lives in.
//!
//! The default here is therefore **rank-quantile grouping**: neighbors are
//! sorted by value and dealt into `k` equal-size strata per neighborhood.
//! This honors "group similar values together" while keeping strata
//! balanced, making the early-cycle marginal essentially uniform. The
//! value-bucketed variants remain available ([`Grouping::degree_log2`],
//! [`Grouping::attribute_bucketed`]) — the ablation bench compares them.

use osn_client::OsnClient;
use osn_graph::NodeId;

use crate::fnv::hash_node_id;

/// How to quantize a numeric value into a group key (value-based modes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ValueBucketing {
    /// Every distinct value is its own group.
    Exact,
    /// Fixed-width buckets: `floor(value / width)`. The [`Grouping`]
    /// constructors refuse a width that is not finite and positive.
    Linear(f64),
    /// Logarithmic buckets: `floor(log2(1 + value))` — natural for
    /// heavy-tailed attributes like degree or review counts.
    Log2,
}

impl ValueBucketing {
    /// Map a non-negative value to its bucket id.
    pub fn bucket(&self, value: f64) -> u64 {
        let v = if value.is_finite() {
            value.max(0.0)
        } else {
            0.0
        };
        match self {
            ValueBucketing::Exact => v.to_bits(),
            ValueBucketing::Linear(width) => (v / width).floor() as u64,
            ValueBucketing::Log2 => (1.0 + v).log2().floor() as u64,
        }
    }

    /// `self`, once its width is known to be finite and positive.
    ///
    /// # Panics
    /// Panics on a `Linear` width that is zero, negative, NaN or infinite:
    /// zero would send every positive value to the missing-attribute group
    /// `u64::MAX`, and the others every value to bucket 0.
    fn checked(self) -> Self {
        if let ValueBucketing::Linear(width) = self {
            assert!(
                width.is_finite() && width > 0.0,
                "bucket width must be finite and positive, got {width}"
            );
        }
        self
    }
}

/// The value a rank-quantile [`Grouping`] sorts a neighborhood by.
#[derive(Clone, Debug, PartialEq)]
enum Measure {
    Degree,
    /// Nodes missing the attribute read as value 0.
    Attribute(String),
}

impl Measure {
    fn value(&self, client: &dyn OsnClient, node: NodeId) -> f64 {
        match self {
            Measure::Degree => client.peek_degree(node) as f64,
            Measure::Attribute(name) => client.peek_attribute(node, name).unwrap_or(0.0),
        }
    }
}

/// Sort `nodes` by `measure` and deal them into `k` equal strata, filling
/// `out` with one stratum key per node. `(value, index)` pairs are ranked
/// in `ranked`, a buffer callers keep across calls.
fn assign_quantile(
    measure: &Measure,
    k: usize,
    client: &dyn OsnClient,
    nodes: &[NodeId],
    out: &mut Vec<u64>,
    ranked: &mut Vec<(f64, usize)>,
) {
    let k = k.max(1);
    // Rank by (value, id, index): a total order, so the in-place unstable
    // sort ranks exactly as a stable sort by (value, id) would. `total_cmp`
    // orders NaN after +∞ (before −∞ when negative).
    ranked.clear();
    ranked.extend(
        nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (measure.value(client, n), i)),
    );
    ranked.sort_unstable_by(|&(va, a), &(vb, b)| {
        va.total_cmp(&vb)
            .then(nodes[a].cmp(&nodes[b]))
            .then(a.cmp(&b))
    });
    out.resize(nodes.len(), 0);
    for (rank, &(_, i)) in ranked.iter().enumerate() {
        out[i] = (rank * k / nodes.len().max(1)) as u64;
    }
}

/// The group key of a node under a grouping whose key depends on that node
/// alone: [`Grouping::node_key`].
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum NodeKey {
    Degree(ValueBucketing),
    /// Nodes missing the attribute share the sentinel group `u64::MAX`.
    Attribute(String, ValueBucketing),
    Hash(u64),
    Id,
}

impl NodeKey {
    /// `node`'s group key, peeking its degree or attribute through
    /// `client`.
    #[inline]
    pub(crate) fn of(&self, client: &dyn OsnClient, node: NodeId) -> u64 {
        match self {
            NodeKey::Degree(bucketing) => bucketing.bucket(client.peek_degree(node) as f64),
            NodeKey::Attribute(name, bucketing) => client
                .peek_attribute(node, name)
                .map_or(u64::MAX, |v| bucketing.bucket(v)),
            NodeKey::Hash(groups) => hash_node_id(node.0) % groups,
            NodeKey::Id => u64::from(node.0),
        }
    }
}

/// What a [`Grouping`] reads to key a node.
#[derive(Clone, Debug, PartialEq)]
enum Rule {
    /// A key of the node alone.
    Node(NodeKey),
    /// The node's rank-quantile stratum, one of `k`, in its neighborhood.
    Quantile(Measure, usize),
}

/// GNRW's grouping `g(·)`: a deterministic assignment of nodes to groups,
/// computable by the sampler from interface-visible metadata only.
///
/// Keys are assigned for a whole neighbor list at once
/// ([`assign`](Self::assign)) because balanced (quantile) groupings need
/// the neighborhood context; the group key of a node may therefore differ
/// between neighborhoods, which is fine — GNRW's history is keyed per
/// directed edge, where the neighborhood is fixed.
///
/// A `Grouping` is plain data: walkers and experiment specs carry it by
/// value and compare it with `==`.
#[derive(Clone, Debug, PartialEq)]
pub struct Grouping(Rule);

impl Grouping {
    /// The paper's `GNRW_By_Degree`, as rank-quantile grouping into 4 equal
    /// strata per neighborhood (see the module discussion of balanced
    /// strata).
    pub fn by_degree() -> Self {
        Self::degree_quantile(4)
    }

    /// Degree, rank-quantile grouping into `k` strata.
    pub fn degree_quantile(k: usize) -> Self {
        Grouping(Rule::Quantile(Measure::Degree, k))
    }

    /// Degree, value-bucketed: `floor(log2(1 + degree))`.
    pub fn degree_log2() -> Self {
        Self::degree_bucketed(ValueBucketing::Log2)
    }

    /// Degree, value-bucketed with custom bucketing.
    ///
    /// # Panics
    /// Panics on a `Linear` width that is not finite and positive.
    pub fn degree_bucketed(bucketing: ValueBucketing) -> Self {
        Grouping(Rule::Node(NodeKey::Degree(bucketing.checked())))
    }

    /// A profile attribute — e.g. the paper's `GNRW_By_ReviewsCount` on
    /// Yelp — with the default rank-quantile (4 strata) mode. Nodes missing
    /// the attribute read as value 0.
    pub fn by_attribute(name: impl Into<String>) -> Self {
        Self::attribute_quantile(name, 4)
    }

    /// A profile attribute, rank-quantile grouping into `k` strata.
    pub fn attribute_quantile(name: impl Into<String>, k: usize) -> Self {
        Grouping(Rule::Quantile(Measure::Attribute(name.into()), k))
    }

    /// A profile attribute, value-bucketed. Nodes missing the attribute
    /// share the sentinel group `u64::MAX`.
    ///
    /// # Panics
    /// Panics on a `Linear` width that is not finite and positive.
    pub fn attribute_bucketed(name: impl Into<String>, bucketing: ValueBucketing) -> Self {
        Grouping(Rule::Node(NodeKey::Attribute(
            name.into(),
            bucketing.checked(),
        )))
    }

    /// Pseudorandom attribute-independent grouping into `groups` groups —
    /// the paper's `GNRW_By_MD5` (we hash ids with FNV-1a; only the
    /// uniform, attribute-independent property of the hash is exercised).
    ///
    /// # Panics
    /// Panics if `groups == 0`.
    pub fn by_hash(groups: u64) -> Self {
        assert!(groups > 0, "need at least one group");
        Grouping(Rule::Node(NodeKey::Hash(groups)))
    }

    /// Every neighbor in its own group: the group pick is the member pick,
    /// so GNRW walks CNRW's transition law (§4.1).
    pub fn by_node() -> Self {
        Grouping(Rule::Node(NodeKey::Id))
    }

    /// Human-readable name for reports (e.g. `"GNRW_By_Degree"`).
    pub fn label(&self) -> String {
        match &self.0 {
            Rule::Node(NodeKey::Degree(_)) | Rule::Quantile(Measure::Degree, _) => {
                "GNRW_By_Degree".to_string()
            }
            Rule::Node(NodeKey::Attribute(name, _))
            | Rule::Quantile(Measure::Attribute(name), _) => {
                format!("GNRW_By_{name}")
            }
            Rule::Node(NodeKey::Hash(_)) => "GNRW_By_MD5".to_string(),
            Rule::Node(NodeKey::Id) => "GNRW_By_Node".to_string(),
        }
    }

    /// Fill `out` with one group key per node in `nodes`, peeking degrees
    /// and attributes through `client`. Deterministic for a fixed `nodes`
    /// slice on a static snapshot.
    pub fn assign(&self, client: &dyn OsnClient, nodes: &[NodeId], out: &mut Vec<u64>) {
        self.assign_ranked(client, nodes, out, &mut Vec::new());
    }

    /// [`Self::assign`], ranking quantile groupings in `ranked` — a buffer
    /// a walker keeps, so that a cold step allocates nothing once its
    /// buffers fit the largest neighborhood seen.
    pub(crate) fn assign_ranked(
        &self,
        client: &dyn OsnClient,
        nodes: &[NodeId],
        out: &mut Vec<u64>,
        ranked: &mut Vec<(f64, usize)>,
    ) {
        out.clear();
        match &self.0 {
            Rule::Node(key) => out.extend(nodes.iter().map(|&n| key.of(client, n))),
            Rule::Quantile(measure, k) => assign_quantile(measure, *k, client, nodes, out, ranked),
        }
    }

    /// The key function of a grouping whose key of a node depends on that
    /// node alone — degree or attribute buckets, hash, per-node — or `None`
    /// for a rank-quantile grouping, whose key ranks a node within its
    /// neighborhood. A cold GNRW step can then key only the neighbors it
    /// proposes ([`GroupEdgeView::step_by_rejection`]).
    ///
    /// [`GroupEdgeView::step_by_rejection`]: crate::history::GroupEdgeView::step_by_rejection
    pub(crate) fn node_key(&self) -> Option<&NodeKey> {
        match &self.0 {
            Rule::Node(key) => Some(key),
            Rule::Quantile(..) => None,
        }
    }
}

/// Lets [`Gnrw::with_backend`](crate::walkers::Gnrw::with_backend) keep
/// taking a boxed grouping, as its callers pass one.
impl From<Box<Grouping>> for Grouping {
    fn from(grouping: Box<Grouping>) -> Self {
        *grouping
    }
}

/// A source-compatible spelling of [`Grouping::degree_log2`], for callers
/// not yet moved to [`Grouping`].
pub enum ByDegree {}

impl ByDegree {
    /// [`Grouping::degree_log2`].
    pub fn log2() -> Grouping {
        Grouping::degree_log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_client::SimulatedOsn;
    use osn_graph::attributes::{AttributedGraph, NodeAttributes};
    use osn_graph::GraphBuilder;

    fn client_with_reviews() -> SimulatedOsn {
        // Star: hub 0, spokes 1..=4 with reviews 0, 1, 10, 100.
        let g = GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(0, 3)
            .add_edge(0, 4)
            .build()
            .unwrap();
        let mut attrs = NodeAttributes::for_graph(&g);
        attrs
            .insert_uint("reviews", vec![5, 0, 1, 10, 100])
            .unwrap();
        SimulatedOsn::new(AttributedGraph::new(g, attrs).unwrap())
    }

    fn groups_of(grouping: &Grouping, client: &SimulatedOsn, ids: &[u32]) -> Vec<u64> {
        let nodes: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
        let mut out = Vec::new();
        grouping.assign(client, &nodes, &mut out);
        out
    }

    #[test]
    fn bucketing_modes() {
        assert_eq!(ValueBucketing::Log2.bucket(0.0), 0);
        assert_eq!(ValueBucketing::Log2.bucket(1.0), 1);
        assert_eq!(ValueBucketing::Log2.bucket(7.0), 3);
        assert_eq!(ValueBucketing::Linear(10.0).bucket(35.0), 3);
        assert_eq!(ValueBucketing::Linear(10.0).bucket(9.99), 0);
        let e = ValueBucketing::Exact;
        assert_eq!(e.bucket(2.5), e.bucket(2.5));
        assert_ne!(e.bucket(2.5), e.bucket(2.6));
        assert_eq!(ValueBucketing::Log2.bucket(-3.0), 0);
        assert_eq!(ValueBucketing::Linear(1.0).bucket(f64::NAN), 0);
    }

    #[test]
    fn by_degree_log2_groups_hub_apart_from_spokes() {
        let c = client_with_reviews();
        let s = Grouping::degree_log2();
        let g = groups_of(&s, &c, &[0, 1, 2]);
        assert_ne!(g[0], g[1], "hub and spoke share a log2 bucket");
        assert_eq!(g[1], g[2]);
        assert_eq!(s.label(), "GNRW_By_Degree");
    }

    #[test]
    fn quantile_groups_are_balanced() {
        let c = client_with_reviews();
        let s = Grouping::degree_quantile(2);
        // Neighborhood of 4 spokes (all degree 1) + conceptually the hub:
        // with equal values the split is still into equal halves.
        let g = groups_of(&s, &c, &[1, 2, 3, 4]);
        let zeros = g.iter().filter(|&&x| x == 0).count();
        let ones = g.iter().filter(|&&x| x == 1).count();
        assert_eq!(zeros, 2);
        assert_eq!(ones, 2);
    }

    #[test]
    fn quantile_orders_by_value() {
        let c = client_with_reviews();
        let s = Grouping::attribute_quantile("reviews", 2);
        // Reviews: node1=0, node2=1, node3=10, node4=100.
        let g = groups_of(&s, &c, &[1, 2, 3, 4]);
        assert_eq!(g[0], g[1], "low-review nodes together");
        assert_eq!(g[2], g[3], "high-review nodes together");
        assert_ne!(g[0], g[2]);
    }

    #[test]
    fn by_attribute_bucketed_reads_reviews() {
        let c = client_with_reviews();
        let s = Grouping::attribute_bucketed("reviews", ValueBucketing::Log2);
        assert_eq!(s.label(), "GNRW_By_reviews");
        // reviews 0 -> bucket 0; 1 -> 1; 10 -> 3; 100 -> 6
        assert_eq!(groups_of(&s, &c, &[1, 2, 3, 4]), vec![0, 1, 3, 6]);
    }

    #[test]
    fn missing_attribute_sentinel_or_zero() {
        let c = client_with_reviews();
        let bucketed = Grouping::attribute_bucketed("nope", ValueBucketing::Log2);
        assert_eq!(groups_of(&bucketed, &c, &[1]), vec![u64::MAX]);
        let quantile = Grouping::by_attribute("nope");
        // All values read 0 -> still dealt into quantile strata.
        let g = groups_of(&quantile, &c, &[1, 2, 3, 4]);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn by_hash_spreads_and_is_deterministic() {
        let c = client_with_reviews();
        let s = Grouping::by_hash(3);
        let a = groups_of(&s, &c, &[1, 2, 3, 4]);
        let b = groups_of(&s, &c, &[1, 2, 3, 4]);
        assert_eq!(a, b);
        assert!(a.iter().all(|&g| g < 3));
        assert_eq!(s.label(), "GNRW_By_MD5");
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn by_hash_zero_groups_panics() {
        let _ = Grouping::by_hash(0);
    }

    #[test]
    fn quantile_deterministic_under_ties() {
        let c = client_with_reviews();
        let s = Grouping::degree_quantile(2);
        // All spokes have degree 1: ties broken by node id, stable.
        let a = groups_of(&s, &c, &[4, 3, 2, 1]);
        let b = groups_of(&s, &c, &[4, 3, 2, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn quantile_strata_are_total_over_nan() {
        // A float column with NaNs among finite values: quantile grouping
        // must not panic, must keep strata monotone in value (NaN above
        // every finite value), and must repeat itself exactly.
        for spokes in [8u32, 200] {
            let mut b = GraphBuilder::new();
            for i in 1..=spokes {
                b.push_edge(0, i);
            }
            let g = b.build().unwrap();
            let score: Vec<f64> = (0..=spokes)
                .map(|i| match i % 5 {
                    0 => f64::NAN,
                    1 => -f64::from(i),
                    _ => f64::from(i * 7 % 13),
                })
                .collect();
            let mut attrs = NodeAttributes::for_graph(&g);
            attrs.insert_float("score", score.clone()).unwrap();
            let c = SimulatedOsn::new(AttributedGraph::new(g, attrs).unwrap());
            let s = Grouping::attribute_quantile("score", 4);
            let ids: Vec<u32> = (1..=spokes).rev().collect();
            let keys = groups_of(&s, &c, &ids);
            assert_eq!(
                keys,
                groups_of(&s, &c, &ids),
                "{spokes} spokes: not repeatable"
            );
            for (a, &ka) in ids.iter().zip(&keys) {
                for (b, &kb) in ids.iter().zip(&keys) {
                    if score[*a as usize].total_cmp(&score[*b as usize]).is_lt() {
                        assert!(ka <= kb, "{spokes} spokes: node {a} above node {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn by_node_assigns_singleton_groups() {
        let c = client_with_reviews();
        let s = Grouping::by_node();
        let g = groups_of(&s, &c, &[4, 1, 2]);
        assert_eq!(g, vec![4, 1, 2]);
        assert_eq!(s.label(), "GNRW_By_Node");
    }

    #[test]
    #[should_panic(expected = "bucket width must be finite and positive")]
    fn linear_bucket_width_must_be_finite_and_positive() {
        for width in [0.0, -1.0, f64::NAN] {
            let made = std::panic::catch_unwind(|| {
                Grouping::degree_bucketed(ValueBucketing::Linear(width))
            });
            assert!(made.is_err(), "width {width} accepted");
        }
        Grouping::attribute_bucketed("reviews", ValueBucketing::Linear(f64::INFINITY));
    }

    #[test]
    fn linear_bucketing_of_attribute() {
        let c = client_with_reviews();
        let s = Grouping::attribute_bucketed("reviews", ValueBucketing::Linear(50.0));
        assert_eq!(groups_of(&s, &c, &[1, 3, 4]), vec![0, 0, 2]);
    }
}
