//! # osn-graph
//!
//! Compact, immutable, undirected graph substrate for random-walk sampling of
//! online social networks.
//!
//! This crate provides everything the walkers in `osn-walks` and the simulated
//! access interface in `osn-client` need from a graph:
//!
//! * [`CsrGraph`] — an immutable compressed-sparse-row adjacency structure
//!   with `O(1)` degree lookup and contiguous neighbor slices.
//! * [`GraphBuilder`] — deduplicating, self-loop-filtering construction from
//!   arbitrary edge streams, plus [`DirectedEdgeList`]
//!   with the paper's mutual-edge directed→undirected conversion.
//! * [`generators`] — synthetic topologies used in the paper's evaluation
//!   (barbell, clustered cliques) and generators used to stand in for the
//!   real OSN snapshots (powerlaw configuration model, attribute homophily).
//! * [`analysis`] — degree distributions, clustering coefficients, triangle
//!   counts, connected components (Table 1 statistics).
//! * [`attributes`] — typed per-node attribute columns (e.g. `reviews_count`)
//!   used by GNRW grouping and aggregate estimation.
//! * [`compact`] — the web-scale substrate: [`CompactCsr`], a delta-encoded
//!   varint compression of the adjacency with an mmap-friendly flat on-disk
//!   layout, a bounded-memory streaming builder
//!   ([`CompactBuilder`]), and a decoded-slice scratch cache
//!   ([`DecodeCache`]) for hot nodes.
//! * [`overlay`] — evolving graphs: the [`DeltaOverlay`] patch layer over
//!   the immutable snapshot (timestamped insert/delete log, per-node patch
//!   lists, zero-cost passthrough for untouched nodes) and the seeded
//!   [`MutationSchedule`] replayed against a virtual clock. Routed
//!   generically over [`CsrGraph`], [`DirectedCsr`], and [`CompactCsr`]
//!   via [`AdjacencyRead`] / [`AdjacencySnapshot`].
//! * [`partition`] — flat stable partitions of index ranges by key, the
//!   layout GNRW's cold step reads a neighborhood's groups in.
//! * [`io`] — plain-text edge-list reading/writing.
//! * [`fnv`] — deterministic FNV-1a hashing, shared by the walkers' history
//!   maps and the frontier pool's stripes (stripe = `fnv(node) % N`).
//!
//! All randomized construction is seeded and deterministic.
//!
//! ## Quick example
//!
//! ```
//! use osn_graph::{GraphBuilder, NodeId};
//!
//! let g = GraphBuilder::new()
//!     .add_edge(0, 1)
//!     .add_edge(1, 2)
//!     .add_edge(2, 0)
//!     .build()
//!     .unwrap();
//! assert_eq!(g.node_count(), 3);
//! assert_eq!(g.edge_count(), 3);
//! assert_eq!(g.degree(NodeId(0)), 2);
//! ```

// `compact::mmap` wraps two libc calls behind a safe view; everything else
// in the crate stays statically unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod attributes;
mod builder;
pub mod compact;
mod csr;
pub mod directed;
mod error;
pub mod fnv;
pub mod generators;
mod ids;
pub mod io;
pub mod mix;
pub mod overlay;
pub mod partition;

pub use builder::GraphBuilder;
pub use compact::{CompactBuilder, CompactCsr, DecodeCache};
pub use csr::CsrGraph;
pub use directed::{DirectedCsr, DirectedEdgeList, UndirectedCast};
pub use error::GraphError;
pub use ids::{NodeId, NodeSet};
pub use overlay::{
    AdjacencyRead, AdjacencySnapshot, DeltaOverlay, EdgeMutation, MutationOp, MutationSchedule,
    ScheduleSpec,
};

/// Convenience result alias for fallible graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;
