//! The `OsnClient` trait and its in-memory simulation.

use std::sync::Arc;

use osn_graph::attributes::AttributedGraph;
use osn_graph::compact::{CompactCsr, DecodeCache};
use osn_graph::{AdjacencyRead, CsrGraph, DeltaOverlay, EdgeMutation, NodeId, NodeSet};

use crate::budget::BudgetExhausted;
use crate::stats::QueryStats;

/// The restricted access interface of an online social network (paper §2.1).
///
/// A query takes a user id and returns the user's neighbor list; the paper's
/// experiments charge **one unit per unique node queried** (repeats are free,
/// served from the sampler's local cache).
///
/// ### Metadata visibility
///
/// `peek_degree` / `peek_attribute` model the profile metadata a neighbor
/// listing exposes *without* a dedicated query (follower counts, displayed
/// attributes). The paper's cost accounting implies this visibility: GNRW
/// groups the neighbors of the current node by degree or by an attribute and
/// MHRW needs the proposed neighbor's degree for its acceptance test, yet
/// neither is charged extra queries in the evaluation. We make that rule
/// explicit and uniform across all algorithms.
pub trait OsnClient {
    /// Neighbor-list query for `u`.
    ///
    /// # Errors
    /// [`BudgetExhausted`] when a wrapper enforces a unique-query budget and
    /// the call would exceed it; the bare simulator never fails.
    fn neighbors(&mut self, u: NodeId) -> Result<&[NodeId], BudgetExhausted>;

    /// Degree of `u` as listing metadata (free of query cost).
    fn peek_degree(&self, u: NodeId) -> usize;

    /// Attribute value of `u` as listing metadata (free of query cost);
    /// `None` when the attribute does not exist.
    fn peek_attribute(&self, u: NodeId, name: &str) -> Option<f64>;

    /// Snapshot of the query accounting so far.
    fn stats(&self) -> QueryStats;

    /// Remaining charged queries before a budget wrapper cuts the walk off;
    /// `None` means unlimited.
    fn remaining_budget(&self) -> Option<u64> {
        None
    }

    /// Whether `u`'s neighbor list has already been fetched through this
    /// client — i.e. a further [`neighbors`](Self::neighbors) call for it is
    /// free. Advisory: the restart policies of the walk orchestrator use it
    /// to prefer relocation targets that cost nothing to re-query. The
    /// default `false` is always safe; caching implementations override it.
    fn is_cached(&self, _u: NodeId) -> bool {
        false
    }
}

/// In-memory simulation of an OSN's restricted interface over an
/// [`AttributedGraph`] snapshot, with unique-query accounting.
///
/// This mirrors the paper's setup exactly: *"we simulated a restricted-access
/// web interface precisely according to the definition in Section 2.1, and
/// ran our algorithms over the simulated interface."*
/// The snapshot is held behind an `Arc`, so cloning a `SimulatedOsn` (or
/// building many from [`SimulatedOsn::new_shared`]) shares the graph memory:
/// experiment harnesses run thousands of independent trials against one
/// loaded snapshot without duplication.
/// ### Evolving graphs
///
/// The simulated network can evolve mid-walk: [`Self::apply_mutation`] /
/// [`Self::apply_mutations`] record timestamped edge insertions and
/// deletions in a [`DeltaOverlay`] over the shared snapshot (which stays
/// immutable — other clients on the same `Arc` are unaffected). Every
/// neighbor query and degree peek reads through the overlay, and a mutated
/// node's cached flag is cleared so its next query is **re-charged** as a
/// fresh unique query — a real interface would have to be re-asked for the
/// changed listing.
///
/// ### Accounting
///
/// The queried nodes are one [`NodeSet`], which every query and the batch
/// endpoint's charge test read: a hash set while few nodes have been
/// queried, and a bit per node once one in 64 has — 256 KiB over a
/// 2M-node graph, where a flag byte per node took 2 MiB. A client that
/// queried a few dozen nodes holds a few dozen ids.
#[derive(Clone, Debug)]
pub struct SimulatedOsn {
    network: Arc<AttributedGraph>,
    /// Compressed topology, when this client was built with
    /// [`Self::from_compact`]. Adjacency then decodes from here (through
    /// the scratch cache) and `network.graph` is an edgeless placeholder
    /// that only carries the node count for accounting.
    compact: Option<CompactTopology>,
    /// Live edge mutations over the immutable snapshot (empty until the
    /// driver applies a mutation schedule).
    overlay: DeltaOverlay,
    /// The nodes queried so far: the unique queries charged.
    queried: NodeSet,
    stats: QueryStats,
}

/// A shared compressed snapshot plus this client's private decode cache.
#[derive(Clone, Debug)]
struct CompactTopology {
    graph: Arc<CompactCsr>,
    cache: DecodeCache,
}

/// Decode-cache slots per compact-backed client: covers a walker wave's hot
/// set while costing well under a megabyte on typical degrees.
const COMPACT_CACHE_SLOTS: usize = 1024;

impl SimulatedOsn {
    /// Wrap an attributed graph snapshot.
    pub fn new(network: AttributedGraph) -> Self {
        Self::new_shared(Arc::new(network))
    }

    /// Wrap an already-shared snapshot (no copy).
    pub fn new_shared(network: Arc<AttributedGraph>) -> Self {
        SimulatedOsn {
            network,
            compact: None,
            overlay: DeltaOverlay::new(),
            queried: NodeSet::new(),
            stats: QueryStats::default(),
        }
    }

    /// Wrap a bare graph (no attributes).
    pub fn from_graph(graph: CsrGraph) -> Self {
        Self::new(AttributedGraph::bare(graph))
    }

    /// Wrap a shared **compressed** snapshot: neighbor queries decode
    /// through a per-client scratch cache instead of borrowing CSR slices,
    /// and answers (hence walks) are bit-identical to a plain client over
    /// the decompressed graph. No attributes; [`Self::graph`] returns an
    /// edgeless placeholder — use [`Self::compact_graph`] for topology.
    pub fn from_compact(graph: Arc<CompactCsr>) -> Self {
        let n = graph.node_count();
        let placeholder = CsrGraph::edgeless(n).expect("compact snapshot is non-empty");
        SimulatedOsn {
            network: Arc::new(AttributedGraph::bare(placeholder)),
            compact: Some(CompactTopology {
                graph,
                cache: DecodeCache::new(COMPACT_CACHE_SLOTS),
            }),
            overlay: DeltaOverlay::new(),
            queried: NodeSet::new(),
            stats: QueryStats::default(),
        }
    }

    /// The compressed snapshot backing this client, when built with
    /// [`Self::from_compact`].
    pub fn compact_graph(&self) -> Option<&Arc<CompactCsr>> {
        self.compact.as_ref().map(|t| &t.graph)
    }

    /// Decode-cache `(hits, misses)` of a compact-backed client; `None`
    /// for plain clients (their neighbor reads are zero-copy borrows).
    pub fn decode_cache_stats(&self) -> Option<(u64, u64)> {
        self.compact.as_ref().map(|t| t.cache.stats())
    }

    /// The underlying **base** topology (ground-truth side of experiments; a
    /// real third party would not have this). Pre-mutation: when an overlay
    /// is live, [`Self::rebuilt_graph`] materializes the current topology.
    /// For a compact-backed client this is an edgeless placeholder — use
    /// [`Self::compact_graph`] instead.
    pub fn graph(&self) -> &CsrGraph {
        &self.network.graph
    }

    /// Record one edge mutation in the client's [`DeltaOverlay`], returning
    /// whether it was effective (inserting an existing edge or deleting an
    /// absent one is a no-op). An effective mutation clears both endpoints'
    /// queried flags: their neighbor lists changed, so the next query is
    /// re-charged as a fresh unique query.
    pub fn apply_mutation(&mut self, m: EdgeMutation) -> bool {
        let effective = match &mut self.compact {
            Some(t) => {
                let e = self.overlay.apply(t.graph.as_ref(), m);
                if e {
                    // Patched nodes are served from the overlay from now
                    // on; dropping stale slices just frees the slots.
                    t.cache.evict(m.u);
                    t.cache.evict(m.v);
                }
                e
            }
            None => self.overlay.apply(&self.network.graph, m),
        };
        if effective {
            self.uncache(m.u);
            self.uncache(m.v);
        }
        effective
    }

    /// Record a batch of mutations (e.g. one
    /// [`osn_graph::MutationSchedule`] drain), returning the sorted,
    /// deduplicated nodes whose neighbor lists changed — the list drivers
    /// feed to the walk backends' `invalidate_nodes`.
    pub fn apply_mutations(&mut self, ms: &[EdgeMutation]) -> Vec<NodeId> {
        let touched = match &mut self.compact {
            Some(t) => {
                let touched = self.overlay.apply_batch(t.graph.as_ref(), ms);
                for &v in &touched {
                    t.cache.evict(v);
                }
                touched
            }
            None => self.overlay.apply_batch(&self.network.graph, ms),
        };
        for &v in &touched {
            self.uncache(v);
        }
        touched
    }

    fn uncache(&mut self, v: NodeId) {
        self.queried.remove(v.0);
    }

    /// Replace the overlay by replaying `log` over the base snapshot — the
    /// restore side of the batch endpoint's snapshot import. Queried flags
    /// are untouched: the snapshot's `cached` set already reflects the
    /// evictions performed when the log was recorded live.
    ///
    /// # Errors
    /// When some logged mutation does not replay effectively over the base
    /// snapshot (a snapshot/graph mismatch). `self` is unchanged on error.
    pub(crate) fn restore_overlay(&mut self, log: &[EdgeMutation]) -> Result<(), String> {
        let overlay = match &self.compact {
            Some(t) => DeltaOverlay::from_log(t.graph.as_ref(), log),
            None => DeltaOverlay::from_log(&self.network.graph, log),
        };
        if overlay.log().len() != log.len() {
            return Err(format!(
                "mutation log does not replay over this snapshot: {} of {} effective",
                overlay.log().len(),
                log.len()
            ));
        }
        self.overlay = overlay;
        Ok(())
    }

    /// The live mutation overlay (empty until a mutation is applied).
    pub fn overlay(&self) -> &DeltaOverlay {
        &self.overlay
    }

    /// The effective mutations applied so far, in application order — the
    /// batch endpoint serializes this in its snapshot export.
    pub fn mutation_log(&self) -> &[EdgeMutation] {
        self.overlay.log()
    }

    /// Materialize the **current** topology (base snapshot plus overlay) as
    /// a fresh CSR — the ground truth an evolving-graph experiment compares
    /// its estimates against, and what the differential tests walk to check
    /// overlay reads are exact.
    pub fn rebuilt_graph(&self) -> CsrGraph {
        match &self.compact {
            Some(t) => t
                .graph
                .rebuilt(&self.overlay)
                .and_then(|g| g.to_csr())
                .expect("mutations were validated when applied"),
            None => self
                .network
                .graph
                .rebuilt(&self.overlay)
                .expect("mutations were validated when applied"),
        }
    }

    /// The underlying attributes (ground-truth side of experiments).
    pub fn network(&self) -> &AttributedGraph {
        &self.network
    }

    /// A shared handle to the snapshot (no copy) — lets drivers build
    /// value functions or ground truths over the same graph without
    /// borrowing the client.
    pub fn network_shared(&self) -> Arc<AttributedGraph> {
        Arc::clone(&self.network)
    }

    /// Reset all accounting, keeping the snapshot **and** any applied
    /// mutations (the overlay is world state, not accounting). Lets one
    /// loaded graph serve many independent trials without rebuilding.
    pub fn reset(&mut self) {
        self.queried.clear();
        self.stats = QueryStats::default();
    }

    /// Number of distinct nodes queried so far.
    pub fn unique_queries(&self) -> u64 {
        self.stats.unique
    }

    /// Whether `u` has been queried before (a further query is free). The
    /// batch endpoint uses this to decide budget charging *before* a fetch.
    pub fn is_cached(&self, u: NodeId) -> bool {
        self.queried.contains(u.0)
    }

    /// The current neighbor list of `u` — through the overlay, and through
    /// the decode cache on a compact snapshot — **without** recording a
    /// query; `None` when `u` is outside the graph. [`OsnClient::neighbors`]
    /// is this read plus the accounting, and the batch endpoint's free
    /// read-back of a delivered list is this read alone.
    pub(crate) fn current_neighbors(&mut self, u: NodeId) -> Option<&[NodeId]> {
        if u.index() >= self.network.graph.node_count() {
            return None;
        }
        Some(match &mut self.compact {
            // Mutated nodes are served from the overlay's patch; everything
            // else decodes through the slice cache.
            Some(t) => match self.overlay.patched(u) {
                Some(patch) => patch,
                None => t.cache.neighbors(&t.graph, u),
            },
            None => self.overlay.neighbors(&self.network.graph, u),
        })
    }

    /// The queried nodes (cache membership) — used by the batch
    /// endpoint's snapshot export.
    pub(crate) fn queried(&self) -> &NodeSet {
        &self.queried
    }

    /// Overwrite the accounting state — the restore side of the batch
    /// endpoint's snapshot import. Every id in `queried` must be a node of
    /// the graph.
    pub(crate) fn restore_accounting(&mut self, queried: NodeSet, stats: QueryStats) {
        debug_assert!(queried
            .max()
            .is_none_or(|u| (u as usize) < self.network.graph.node_count()));
        self.queried = queried;
        self.stats = stats;
    }
}

impl OsnClient for SimulatedOsn {
    fn neighbors(&mut self, u: NodeId) -> Result<&[NodeId], BudgetExhausted> {
        let n = self.network.graph.node_count();
        assert!(u.index() < n, "node {u} outside the {n}-node graph");
        self.stats.record(self.queried.insert(u.0));
        Ok(self.current_neighbors(u).expect("in range: checked above"))
    }

    fn peek_degree(&self, u: NodeId) -> usize {
        match &self.compact {
            Some(t) => self.overlay.degree(t.graph.as_ref(), u),
            None => self.overlay.degree(&self.network.graph, u),
        }
    }

    fn peek_attribute(&self, u: NodeId, name: &str) -> Option<f64> {
        self.network.attributes.value_f64(name, u).ok()
    }

    fn stats(&self) -> QueryStats {
        self.stats
    }

    fn is_cached(&self, u: NodeId) -> bool {
        SimulatedOsn::is_cached(self, u)
    }
}

// Allow `&mut C` to be used wherever an `OsnClient` is expected, so drivers
// can hand walkers a reborrowed client.
impl<C: OsnClient + ?Sized> OsnClient for &mut C {
    fn neighbors(&mut self, u: NodeId) -> Result<&[NodeId], BudgetExhausted> {
        (**self).neighbors(u)
    }
    fn peek_degree(&self, u: NodeId) -> usize {
        (**self).peek_degree(u)
    }
    fn peek_attribute(&self, u: NodeId, name: &str) -> Option<f64> {
        (**self).peek_attribute(u, name)
    }
    fn stats(&self) -> QueryStats {
        (**self).stats()
    }
    fn remaining_budget(&self) -> Option<u64> {
        (**self).remaining_budget()
    }
    fn is_cached(&self, u: NodeId) -> bool {
        (**self).is_cached(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::attributes::NodeAttributes;
    use osn_graph::GraphBuilder;

    fn triangle_client() -> SimulatedOsn {
        let g = GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(0, 2)
            .build()
            .unwrap();
        SimulatedOsn::from_graph(g)
    }

    #[test]
    fn unique_accounting() {
        let mut c = triangle_client();
        c.neighbors(NodeId(0)).unwrap();
        c.neighbors(NodeId(1)).unwrap();
        c.neighbors(NodeId(0)).unwrap(); // cached
        let s = c.stats();
        assert_eq!(s.issued, 3);
        assert_eq!(s.unique, 2);
        assert_eq!(s.cache_hits, 1);
    }

    #[test]
    fn neighbors_match_graph() {
        let mut c = triangle_client();
        let ns = c.neighbors(NodeId(1)).unwrap().to_vec();
        assert_eq!(ns, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn peeks_are_free() {
        let c = triangle_client();
        assert_eq!(c.peek_degree(NodeId(0)), 2);
        assert_eq!(c.stats().issued, 0);
        assert_eq!(c.peek_attribute(NodeId(0), "nope"), None);
    }

    #[test]
    fn peek_attribute_reads_columns() {
        let g = GraphBuilder::new().add_edge(0, 1).build().unwrap();
        let mut attrs = NodeAttributes::for_graph(&g);
        attrs.insert_uint("reviews", vec![3, 9]).unwrap();
        let c = SimulatedOsn::new(AttributedGraph::new(g, attrs).unwrap());
        assert_eq!(c.peek_attribute(NodeId(1), "reviews"), Some(9.0));
    }

    #[test]
    fn reset_clears_accounting() {
        let mut c = triangle_client();
        c.neighbors(NodeId(0)).unwrap();
        c.reset();
        assert_eq!(c.stats(), QueryStats::default());
        c.neighbors(NodeId(0)).unwrap();
        assert_eq!(c.stats().unique, 1);
    }

    #[test]
    fn mutations_read_through_and_recharge() {
        let mut c = triangle_client();
        c.neighbors(NodeId(0)).unwrap();
        c.neighbors(NodeId(1)).unwrap();
        assert_eq!(c.stats().unique, 2);

        // Delete 0-1: both endpoints drop out of the cache and re-charge.
        assert!(c.apply_mutation(EdgeMutation::delete(1.0, NodeId(0), NodeId(1))));
        assert!(!c.is_cached(NodeId(0)) && !c.is_cached(NodeId(1)));
        assert_eq!(c.neighbors(NodeId(0)).unwrap(), &[NodeId(2)]);
        assert_eq!(c.neighbors(NodeId(1)).unwrap(), &[NodeId(2)]);
        assert_eq!(c.stats().unique, 4, "mutated endpoints re-charge");
        assert_eq!(c.peek_degree(NodeId(0)), 1);

        // Re-deleting is ineffective: no cache eviction, no log growth.
        c.neighbors(NodeId(0)).unwrap();
        assert!(!c.apply_mutation(EdgeMutation::delete(2.0, NodeId(1), NodeId(0))));
        assert!(c.is_cached(NodeId(0)));
        assert_eq!(c.mutation_log().len(), 1);

        // The base snapshot is untouched; the rebuilt graph reflects the
        // overlay and matches what queries see.
        assert_eq!(c.graph().degree(NodeId(0)), 2);
        let rebuilt = c.rebuilt_graph();
        assert_eq!(rebuilt.neighbors(NodeId(0)), &[NodeId(2)]);
        assert_eq!(rebuilt.edge_count(), 2);
    }

    #[test]
    fn apply_mutations_returns_touched_nodes() {
        let mut c = triangle_client();
        let batch = [
            EdgeMutation::delete(0.5, NodeId(0), NodeId(1)),
            EdgeMutation::insert(0.7, NodeId(0), NodeId(1)), // net no-op, still touches
            EdgeMutation::delete(0.9, NodeId(1), NodeId(2)),
        ];
        let touched = c.apply_mutations(&batch);
        assert_eq!(touched, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(c.peek_degree(NodeId(2)), 1);
    }

    #[test]
    fn mut_ref_forwards() {
        let mut c = triangle_client();
        let r = &mut c;
        r.neighbors(NodeId(0)).unwrap();
        assert_eq!(r.stats().unique, 1);
        assert_eq!(r.remaining_budget(), None);
    }

    fn compact_pair() -> (SimulatedOsn, SimulatedOsn) {
        // A graph with hubs, a chain and varied degrees.
        let g = GraphBuilder::new()
            .with_nodes(8)
            .add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(0, 3)
            .add_edge(0, 7)
            .add_edge(1, 2)
            .add_edge(3, 4)
            .add_edge(4, 5)
            .add_edge(5, 6)
            .build()
            .unwrap();
        let compact = Arc::new(CompactCsr::from_csr(&g));
        (
            SimulatedOsn::from_compact(compact),
            SimulatedOsn::from_graph(g),
        )
    }

    #[test]
    fn compact_client_matches_plain() {
        let (mut compact, mut plain) = compact_pair();
        assert_eq!(compact.compact_graph().unwrap().node_count(), 8);
        for u in 0..8u32 {
            assert_eq!(compact.peek_degree(NodeId(u)), plain.peek_degree(NodeId(u)));
            assert_eq!(
                compact.neighbors(NodeId(u)).unwrap().to_vec(),
                plain.neighbors(NodeId(u)).unwrap().to_vec(),
                "node {u}"
            );
        }
        assert_eq!(compact.stats(), plain.stats());
        // Repeat reads hit both the budget cache and the decode cache.
        compact.neighbors(NodeId(0)).unwrap();
        let (hits, misses) = compact.decode_cache_stats().unwrap();
        assert!(hits >= 1, "decode cache hits {hits} / misses {misses}");
        assert!(plain.decode_cache_stats().is_none());
    }

    #[test]
    fn compact_client_mutations_match_plain() {
        let (mut compact, mut plain) = compact_pair();
        let batch = [
            EdgeMutation::delete(0.1, NodeId(0), NodeId(1)),
            EdgeMutation::insert(0.2, NodeId(2), NodeId(6)),
            EdgeMutation::delete(0.3, NodeId(4), NodeId(5)),
        ];
        assert_eq!(
            compact.apply_mutations(&batch),
            plain.apply_mutations(&batch)
        );
        for u in 0..8u32 {
            assert_eq!(compact.peek_degree(NodeId(u)), plain.peek_degree(NodeId(u)));
            assert_eq!(
                compact.neighbors(NodeId(u)).unwrap().to_vec(),
                plain.neighbors(NodeId(u)).unwrap().to_vec(),
                "node {u} after mutations"
            );
        }
        assert_eq!(compact.rebuilt_graph(), plain.rebuilt_graph());
        // Ineffective mutations are ineffective on both backends.
        assert!(!compact.apply_mutation(EdgeMutation::insert(0.4, NodeId(2), NodeId(6))));
        assert!(!plain.apply_mutation(EdgeMutation::insert(0.4, NodeId(2), NodeId(6))));
    }
}
