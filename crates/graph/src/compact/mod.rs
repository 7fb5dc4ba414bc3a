//! Compressed adjacency snapshots: delta-encoded varint CSR with an
//! mmap-friendly on-disk layout.
//!
//! [`CompactCsr`] is the web-scale counterpart of [`CsrGraph`]: node ids are
//! `u32`, and each node's sorted neighbor list is stored as its degree, its
//! first neighbor id, and then strictly positive *gaps* between consecutive
//! ids — all as LEB128 varints ([`varint`]). On community-local graphs most
//! gaps fit one byte, so the packed form is typically 2–4× smaller than the
//! 4-bytes-per-arc plain CSR, small enough that a ~10⁸-edge snapshot is
//! practical where its uncompressed form is not.
//!
//! ## One flat buffer, in memory and on disk
//!
//! A snapshot is a single little-endian byte buffer:
//!
//! ```text
//! ┌────────────────────────── header (48 bytes) ──────────────────────────┐
//! │ magic "OSNCC001" │ node_count u64 │ edge_count u64 │ data_len u64     │
//! │ offset_width u32 (4|8) │ reserved u32 │ fnv1a(data) u64               │
//! ├──────────────────────── offset index ─────────────────────────────────┤
//! │ (node_count + 1) × offset_width bytes; offsets[v] is the byte         │
//! │ position of node v's run inside the data section                      │
//! ├──────────────────────── packed data ──────────────────────────────────┤
//! │ per node: varint(degree) varint(first_id) varint(gap≥1) …             │
//! └───────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! [`CompactCsr::write_to`] dumps the buffer verbatim and
//! [`CompactCsr::open_mmap`] maps it back in `O(1)` — no deserialization
//! pass, the kernel pages neighbor bytes in lazily as walks touch them
//! ([`mmap`]). A gap of zero (a duplicate neighbor) is a format error, as is
//! an id at or above `node_count`; [`CompactCsr::validate`] checks every run.
//!
//! ## Decode cost and the scratch cache
//!
//! | operation | plain [`CsrGraph`] | [`CompactCsr`] |
//! |---|---|---|
//! | `degree(v)` | `O(1)` | `O(1)` (one varint) |
//! | neighbor slice | `O(1)` borrow | `O(deg v)` decode |
//! | via [`DecodeCache`] hit | — | `O(1)` borrow |
//! | memory / arc (heavy-tailed stand-in) | 4 B + offsets | ≈1–2 B + offsets |
//!
//! Walkers re-query the current node every step wave, so the simulated
//! client keeps a small direct-mapped [`DecodeCache`] in front of the
//! decoder: hot nodes decode once and are then served as borrowed slices,
//! which is what keeps walks over `CompactCsr` bit-identical to — and
//! nearly as fast as — the same seed over `CsrGraph`.
//!
//! ```
//! use osn_graph::compact::{CompactCsr, DecodeCache};
//! use osn_graph::{GraphBuilder, NodeId};
//!
//! let plain = GraphBuilder::new()
//!     .add_edge(0, 1)
//!     .add_edge(1, 2)
//!     .add_edge(2, 0)
//!     .build()
//!     .unwrap();
//! let compact = CompactCsr::from_csr(&plain);
//! assert_eq!(compact.degree(NodeId(0)), 2);
//!
//! let mut cache = DecodeCache::new(64);
//! assert_eq!(cache.neighbors(&compact, NodeId(0)), plain.neighbors(NodeId(0)));
//! assert_eq!(compact.to_csr().unwrap(), plain);
//! ```

mod builder;
pub mod mmap;
pub mod varint;

pub use builder::CompactBuilder;

use crate::overlay::{AdjacencyRead, DeltaOverlay};
use crate::{CsrGraph, GraphError, NodeId, Result};

/// Magic bytes opening every serialized snapshot (format version 001).
pub const MAGIC: [u8; 8] = *b"OSNCC001";
/// Byte length of the fixed header.
pub const HEADER_LEN: usize = 48;

/// A compressed, immutable, undirected adjacency snapshot (see module docs).
#[derive(Debug)]
pub struct CompactCsr {
    bytes: mmap::Bytes,
    node_count: usize,
    edge_count: u64,
    offset_width: usize,
    data_at: usize,
}

impl CompactCsr {
    /// Compress a plain CSR graph. Lossless: [`Self::to_csr`] returns an
    /// equal graph, and every walk over the result is bit-identical.
    pub fn from_csr(graph: &CsrGraph) -> Self {
        let mut enc = Encoder::new(graph.node_count());
        for v in graph.nodes() {
            enc.push_run(graph.neighbors(v));
        }
        enc.finish().expect("a valid CsrGraph always encodes")
    }

    /// Decompress into a plain [`CsrGraph`].
    ///
    /// # Errors
    /// Propagates CSR construction errors (practically unreachable for a
    /// validated snapshot).
    pub fn to_csr(&self) -> Result<CsrGraph> {
        let n = self.node_count;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut neighbors = Vec::with_capacity(self.total_degree() as usize);
        for v in 0..n as u32 {
            self.decode_into(NodeId(v), &mut neighbors);
            offsets.push(neighbors.len() as u64);
        }
        CsrGraph::from_parts(offsets, neighbors)
    }

    /// Adopt a serialized snapshot buffer, validating the header **and**
    /// every neighbor run (gap-zero and out-of-range ids are rejected).
    ///
    /// # Errors
    /// [`GraphError::Format`] on any malformed byte.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        let g = Self::parse(mmap::Bytes::Owned(bytes))?;
        g.validate()?;
        Ok(g)
    }

    /// The underlying flat buffer — exactly what [`Self::write_to`] writes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Write the snapshot to `path` (the flat section format above).
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        std::fs::write(path, self.as_bytes())?;
        Ok(())
    }

    /// Read a snapshot eagerly into memory, fully validating it.
    ///
    /// # Errors
    /// I/O failures or [`GraphError::Format`] on malformed bytes.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self> {
        Self::from_bytes(std::fs::read(path)?)
    }

    /// Map a snapshot file read-only in `O(1)`: only the header and the
    /// offset-index bounds are checked up front; neighbor bytes page in
    /// lazily as runs are decoded (each decode is still bounds-checked).
    /// Use [`Self::validate`] to force a full integrity scan.
    ///
    /// # Errors
    /// I/O failures or [`GraphError::Format`] on a malformed header.
    pub fn open_mmap(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let mut file = std::fs::File::open(path)?;
        Self::parse(mmap::map_file(&mut file)?)
    }

    /// Parse and sanity-check the header without touching neighbor bytes.
    fn parse(bytes: mmap::Bytes) -> Result<Self> {
        let err = |msg: String| GraphError::Format(msg);
        if bytes.len() < HEADER_LEN {
            return Err(err(format!(
                "{} bytes is too short for a header",
                bytes.len()
            )));
        }
        if bytes[0..8] != MAGIC {
            return Err(err("bad magic: not a CompactCsr snapshot".into()));
        }
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let node_count_raw = u64_at(8);
        let edge_count = u64_at(16);
        let data_len = u64_at(24);
        let offset_width = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize;
        if offset_width != 4 && offset_width != 8 {
            return Err(err(format!("unsupported offset width {offset_width}")));
        }
        let node_count = usize::try_from(node_count_raw)
            .ok()
            .filter(|&n| n > 0 && n <= (u32::MAX as usize) + 1)
            .ok_or_else(|| err(format!("node count {node_count_raw} out of range")))?;
        let index_len = (node_count + 1)
            .checked_mul(offset_width)
            .ok_or_else(|| err("offset index overflows".into()))?;
        let data_at = HEADER_LEN + index_len;
        let expected = data_at as u64 + data_len;
        if bytes.len() as u64 != expected {
            return Err(err(format!(
                "buffer is {} bytes, layout requires {expected}",
                bytes.len()
            )));
        }
        let g = CompactCsr {
            bytes,
            node_count,
            edge_count,
            offset_width,
            data_at,
        };
        if g.offset(0) != 0 || g.offset(node_count) != data_len {
            return Err(err("offset index does not span the data section".into()));
        }
        Ok(g)
    }

    /// Full integrity scan: offset monotonicity, the data checksum, and
    /// every neighbor run (exact degree, strictly increasing in-range ids —
    /// a gap of zero is a format error), plus the arc/edge-count invariant.
    ///
    /// # Errors
    /// [`GraphError::Format`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        let err = |msg: String| Err(GraphError::Format(msg));
        let stored = u64::from_le_bytes(self.bytes[40..48].try_into().unwrap());
        let actual = crate::fnv::fnv1a(self.data());
        if stored != actual {
            return err(format!(
                "data checksum mismatch: stored {stored:#x}, computed {actual:#x}"
            ));
        }
        // The checksum covers the data, not the offset index, so each
        // offset is checked against the data before it is sliced by.
        let data_len = self.data().len() as u64;
        let mut arcs = 0u64;
        for v in 0..self.node_count {
            let (start, end) = (self.offset(v), self.offset(v + 1));
            if start > end {
                return err(format!("offset index not monotone at node {v}"));
            }
            if end > data_len {
                return err(format!(
                    "node {v}'s run ends at byte {end}, past the {data_len}-byte data section"
                ));
            }
            let run = &self.data()[start as usize..end as usize];
            let mut pos = 0;
            let degree = varint::read_u64(run, &mut pos)?;
            let mut prev: Option<u32> = None;
            for _ in 0..degree {
                let id = match prev {
                    None => varint::read_u32(run, &mut pos)?,
                    Some(p) => {
                        let gap = varint::read_u32(run, &mut pos)?;
                        if gap == 0 {
                            return err(format!("zero gap (duplicate neighbor) in node {v}'s run"));
                        }
                        p.checked_add(gap).ok_or_else(|| {
                            GraphError::Format(format!("neighbor id overflow in node {v}'s run"))
                        })?
                    }
                };
                if id as usize >= self.node_count {
                    return err(format!(
                        "neighbor {id} of node {v} out of range for {} nodes",
                        self.node_count
                    ));
                }
                prev = Some(id);
            }
            if pos != run.len() {
                return err(format!(
                    "node {v}'s run has {} trailing byte(s)",
                    run.len() - pos
                ));
            }
            arcs += degree;
        }
        if arcs != self.edge_count * 2 {
            return err(format!(
                "{arcs} arcs stored but header claims {} undirected edges",
                self.edge_count
            ));
        }
        Ok(())
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> u64 {
        self.edge_count
    }

    /// Sum of degrees, i.e. `2|E|`.
    #[inline]
    pub fn total_degree(&self) -> u64 {
        self.edge_count * 2
    }

    /// Average degree `2|E| / |V|`.
    pub fn average_degree(&self) -> f64 {
        self.total_degree() as f64 / self.node_count as f64
    }

    /// Total size of the flat buffer (header + offsets + packed data) —
    /// the on-disk footprint, and the resident ceiling when owned.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Heap-resident bytes: the whole buffer when owned, `0` when the
    /// snapshot is a lazily paged file mapping.
    pub fn heap_bytes(&self) -> usize {
        match self.bytes {
            mmap::Bytes::Owned(_) => self.bytes.len(),
            #[cfg(unix)]
            mmap::Bytes::Mapped(_) => 0,
        }
    }

    /// Whether the snapshot is served from a file mapping.
    pub fn is_mapped(&self) -> bool {
        match self.bytes {
            mmap::Bytes::Owned(_) => false,
            #[cfg(unix)]
            mmap::Bytes::Mapped(_) => true,
        }
    }

    /// Compression ratio versus the plain CSR heap footprint
    /// (`8 B × (n+1)` offsets + `4 B` per arc).
    pub fn compression_ratio(&self) -> f64 {
        let plain = (self.node_count + 1) as f64 * 8.0 + self.total_degree() as f64 * 4.0;
        plain / self.byte_len() as f64
    }

    /// Degree `k_v` of node `v` — `O(1)`: one varint at the run start.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let run = self.run(v);
        let mut pos = 0;
        varint::read_u64(run, &mut pos).expect("validated run") as usize
    }

    /// Lazily decoding iterator over `N(v)` in ascending order.
    ///
    /// # Panics
    /// Panics if `v` is out of range (or, for an unvalidated mapping, on
    /// corrupt bytes mid-iteration).
    #[inline]
    pub fn neighbors_iter(&self, v: NodeId) -> NeighborIter<'_> {
        let run = self.run(v);
        let mut pos = 0;
        let remaining = varint::read_u64(run, &mut pos).expect("validated run");
        NeighborIter {
            run,
            pos,
            remaining,
            prev: None,
        }
    }

    /// Append `N(v)` to `out` (sorted ascending).
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn decode_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        out.extend(self.neighbors_iter(v));
    }

    /// Whether the arc `u → v` exists. `O(deg u)` decode with early exit
    /// (ids are ascending).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        for w in self.neighbors_iter(u) {
            if w >= v {
                return w == v;
            }
        }
        false
    }

    /// Whether node `v` is a valid id for this graph.
    #[inline]
    pub fn contains_node(&self, v: NodeId) -> bool {
        v.index() < self.node_count
    }

    /// Iterator over all node ids `0..node_count`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count as u32).map(NodeId)
    }

    #[inline]
    fn offset(&self, i: usize) -> u64 {
        let at = HEADER_LEN + i * self.offset_width;
        if self.offset_width == 4 {
            u64::from(u32::from_le_bytes(
                self.bytes[at..at + 4].try_into().unwrap(),
            ))
        } else {
            u64::from_le_bytes(self.bytes[at..at + 8].try_into().unwrap())
        }
    }

    #[inline]
    fn data(&self) -> &[u8] {
        &self.bytes[self.data_at..]
    }

    /// The packed byte run of node `v`.
    #[inline]
    fn run(&self, v: NodeId) -> &[u8] {
        assert!(
            v.index() < self.node_count,
            "node {v} out of range (node count {})",
            self.node_count
        );
        let start = self.offset(v.index()) as usize;
        let end = self.offset(v.index() + 1) as usize;
        &self.data()[start..end]
    }
}

impl PartialEq for CompactCsr {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}
impl Eq for CompactCsr {}

impl AdjacencyRead for CompactCsr {
    const SYMMETRIC: bool = true;

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn read_degree(&self, v: NodeId) -> usize {
        self.degree(v)
    }

    fn push_neighbors(&self, v: NodeId, out: &mut Vec<NodeId>) {
        self.decode_into(v, out);
    }

    fn contains_arc(&self, u: NodeId, v: NodeId) -> bool {
        self.has_edge(u, v)
    }

    fn rebuilt(&self, overlay: &DeltaOverlay) -> Result<Self> {
        let mut enc = Encoder::new(self.node_count);
        let mut scratch = Vec::new();
        for v in self.nodes() {
            match overlay.patched(v) {
                Some(patch) => enc.push_run(patch),
                None => {
                    scratch.clear();
                    self.decode_into(v, &mut scratch);
                    enc.push_run(&scratch);
                }
            }
        }
        enc.finish()
    }
}

/// Lazily decoding iterator over one node's neighbor run.
#[derive(Clone, Debug)]
pub struct NeighborIter<'a> {
    run: &'a [u8],
    pos: usize,
    remaining: u64,
    prev: Option<u32>,
}

impl Iterator for NeighborIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let delta = varint::read_u32(self.run, &mut self.pos).expect("validated run");
        let id = match self.prev {
            None => delta,
            Some(p) => p
                .checked_add(delta)
                .expect("validated run: gap never overflows"),
        };
        self.prev = Some(id);
        Some(NodeId(id))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

/// A small direct-mapped cache of decoded neighbor slices.
///
/// Walkers touch the *current* node's list several times per step (degree
/// peeks, neighbor pick, history bookkeeping), and batch waves re-touch a
/// working set of hot nodes; a few hundred slots make those decodes `O(1)`
/// borrows. Slots are direct-mapped by a Fibonacci hash of the node id;
/// a colliding node simply re-decodes into the slot.
#[derive(Clone, Debug)]
pub struct DecodeCache {
    slots: Vec<Slot>,
    mask: usize,
    hits: u64,
    misses: u64,
}

#[derive(Clone, Debug)]
struct Slot {
    /// `u32::MAX` marks an empty slot (ids that large collide harmlessly:
    /// they re-decode on every touch).
    node: u32,
    list: Vec<NodeId>,
}

impl DecodeCache {
    /// A cache with at least `slots` slots (rounded up to a power of two).
    pub fn new(slots: usize) -> Self {
        let n = slots.max(1).next_power_of_two();
        DecodeCache {
            slots: vec![
                Slot {
                    node: u32::MAX,
                    list: Vec::new(),
                };
                n
            ],
            mask: n - 1,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn slot_of(&self, v: NodeId) -> usize {
        (v.0.wrapping_mul(0x9e37_79b1) as usize) & self.mask
    }

    /// The decoded neighbor slice of `v`, served from the cache when hot.
    ///
    /// # Panics
    /// Panics if `v` is out of range for `graph`.
    pub fn neighbors(&mut self, graph: &CompactCsr, v: NodeId) -> &[NodeId] {
        let i = self.slot_of(v);
        let slot = &mut self.slots[i];
        if slot.node == v.0 {
            self.hits += 1;
        } else {
            self.misses += 1;
            slot.list.clear();
            graph.decode_into(v, &mut slot.list);
            slot.node = v.0;
        }
        &self.slots[i].list
    }

    /// Drop `v`'s cached slice (after a mutation touched it).
    pub fn evict(&mut self, v: NodeId) {
        let i = self.slot_of(v);
        if self.slots[i].node == v.0 {
            self.slots[i].node = u32::MAX;
            self.slots[i].list.clear();
        }
    }

    /// Drop every cached slice.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.node = u32::MAX;
            slot.list.clear();
        }
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Streaming run encoder shared by [`CompactCsr::from_csr`],
/// [`CompactBuilder::finish`], and overlay rebuilds. It writes the
/// snapshot's one buffer in place: the header and a 4-byte offset index
/// are reserved ahead of the data when the encoder is created and filled
/// in by [`Self::finish`], so the data section is never copied unless it
/// outgrows 4-byte offsets.
pub(crate) struct Encoder {
    node_count: usize,
    /// The snapshot: header and offset index (zero until `finish`), then
    /// the data section, appended run by run.
    bytes: Vec<u8>,
    /// Where the data section starts in `bytes`.
    data_at: usize,
    /// Each run's start in the data section, then the section's end.
    offsets: Vec<u64>,
    arcs: u64,
    prev_node: usize,
}

impl Encoder {
    pub(crate) fn new(node_count: usize) -> Self {
        let mut offsets = Vec::with_capacity(node_count + 1);
        offsets.push(0);
        let data_at = HEADER_LEN + (node_count + 1) * 4;
        Encoder {
            node_count,
            bytes: vec![0; data_at],
            data_at,
            offsets,
            arcs: 0,
            prev_node: 0,
        }
    }

    /// Append the run of the next node. `neighbors` must be sorted
    /// ascending (checked in debug builds); a repeated id is encoded once.
    pub(crate) fn push_run(&mut self, neighbors: &[NodeId]) {
        debug_assert!(self.prev_node < self.node_count, "more runs than nodes");
        debug_assert!(neighbors.is_sorted(), "unsorted neighbors");
        self.prev_node += 1;
        let degree = neighbors.len() - neighbors.windows(2).filter(|w| w[0] == w[1]).count();
        varint::write_u64(&mut self.bytes, degree as u64);
        let mut prev = None;
        for &NodeId(id) in neighbors {
            if prev != Some(id) {
                varint::write_u64(&mut self.bytes, u64::from(id - prev.unwrap_or(0)));
                prev = Some(id);
            }
        }
        self.arcs += degree as u64;
        self.offsets.push((self.bytes.len() - self.data_at) as u64);
    }

    /// Fill in the header and the offset index.
    pub(crate) fn finish(self) -> Result<CompactCsr> {
        self.finish_within(u64::from(u32::MAX))
    }

    /// [`Self::finish`] with 4-byte offsets while the data section is at
    /// most `narrow` bytes long, and 8-byte ones past it.
    fn finish_within(mut self, narrow: u64) -> Result<CompactCsr> {
        debug_assert_eq!(self.prev_node, self.node_count, "missing runs");
        if self.node_count == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if !self.arcs.is_multiple_of(2) {
            return Err(GraphError::Format(format!(
                "{} arcs: an undirected snapshot stores arcs in pairs",
                self.arcs
            )));
        }
        let data_len = (self.bytes.len() - self.data_at) as u64;
        let offset_width: usize = if data_len <= narrow { 4 } else { 8 };
        if offset_width == 8 {
            // The only move of the data: past an index twice as wide.
            let (from, end) = (self.data_at, self.bytes.len());
            self.data_at = HEADER_LEN + (self.node_count + 1) * 8;
            self.bytes.resize(end + self.data_at - from, 0);
            self.bytes.copy_within(from..end, self.data_at);
        }
        let checksum = crate::fnv::fnv1a(&self.bytes[self.data_at..]);
        let (header, index) = self.bytes[..self.data_at].split_at_mut(HEADER_LEN);
        let fields: [&[u8]; 7] = [
            &MAGIC,
            &(self.node_count as u64).to_le_bytes(),
            &(self.arcs / 2).to_le_bytes(),
            &data_len.to_le_bytes(),
            &(offset_width as u32).to_le_bytes(),
            &0u32.to_le_bytes(),
            &checksum.to_le_bytes(),
        ];
        let mut at = 0;
        for field in fields {
            header[at..at + field.len()].copy_from_slice(field);
            at += field.len();
        }
        debug_assert_eq!(at, HEADER_LEN);
        for (slot, &off) in index.chunks_exact_mut(offset_width).zip(&self.offsets) {
            if offset_width == 4 {
                slot.copy_from_slice(&(off as u32).to_le_bytes());
            } else {
                slot.copy_from_slice(&off.to_le_bytes());
            }
        }
        CompactCsr::parse(mmap::Bytes::Owned(self.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> CsrGraph {
        let mut b = GraphBuilder::new().with_nodes(10); // nodes 8..=9 isolated
                                                        // A hub, a chain, and isolated tail nodes to cover degree 0.
        for i in 1..=6u32 {
            b.push_edge(0, i);
        }
        b.push_edge(1, 2);
        b.push_edge(2, 3);
        b.push_edge(5, 6);
        b.push_edge(7, 0);
        b.build().unwrap()
    }

    #[test]
    fn data_past_the_narrow_limit_moves_once_behind_eight_byte_offsets() {
        let plain = sample();
        let encode = |narrow: u64| {
            let mut enc = Encoder::new(plain.node_count());
            for v in plain.nodes() {
                enc.push_run(plain.neighbors(v));
            }
            enc.finish_within(narrow).unwrap()
        };
        let narrow = CompactCsr::from_csr(&plain);
        let data_len = (narrow.bytes.len() - narrow.data_at) as u64;
        assert_eq!(narrow.offset_width, 4);
        assert_eq!(
            encode(data_len).bytes[..],
            narrow.bytes[..],
            "the limit is inclusive"
        );
        let wide = encode(data_len - 1);
        assert_eq!(wide.offset_width, 8);
        assert_eq!(wide.bytes[wide.data_at..], narrow.bytes[narrow.data_at..]);
        wide.validate().unwrap();
        assert_eq!(wide.to_csr().unwrap(), plain);
        for v in plain.nodes() {
            assert_eq!(
                wide.neighbors_iter(v).collect::<Vec<_>>(),
                plain.neighbors(v)
            );
        }
    }

    #[test]
    fn round_trips_through_csr() {
        let plain = sample();
        let compact = CompactCsr::from_csr(&plain);
        assert_eq!(compact.node_count(), plain.node_count());
        assert_eq!(compact.edge_count() as usize, plain.edge_count());
        for v in plain.nodes() {
            assert_eq!(compact.degree(v), plain.degree(v), "degree of {v}");
            let decoded: Vec<NodeId> = compact.neighbors_iter(v).collect();
            assert_eq!(decoded, plain.neighbors(v), "neighbors of {v}");
        }
        assert_eq!(compact.to_csr().unwrap(), plain);
        compact.validate().unwrap();
    }

    #[test]
    fn round_trips_through_bytes_and_disk() {
        let compact = CompactCsr::from_csr(&sample());
        let reparsed = CompactCsr::from_bytes(compact.as_bytes().to_vec()).unwrap();
        assert_eq!(reparsed, compact);

        let path = std::env::temp_dir().join(format!(
            "osn-compact-test-{}-roundtrip.graph",
            std::process::id()
        ));
        compact.write_to(&path).unwrap();
        let opened = CompactCsr::open(&path).unwrap();
        assert_eq!(opened, compact);
        let mapped = CompactCsr::open_mmap(&path).unwrap();
        assert!(mapped.is_mapped() || cfg!(not(unix)));
        assert_eq!(
            mapped.heap_bytes(),
            if mapped.is_mapped() {
                0
            } else {
                mapped.byte_len()
            }
        );
        mapped.validate().unwrap();
        assert_eq!(mapped.as_bytes(), compact.as_bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_adjacency_and_bounds() {
        let compact = CompactCsr::from_csr(&sample());
        assert_eq!(compact.degree(NodeId(8)), 0);
        assert_eq!(compact.neighbors_iter(NodeId(8)).count(), 0);
        assert!(compact.contains_node(NodeId(9)));
        assert!(!compact.contains_node(NodeId(10)));
        assert!(compact.has_edge(NodeId(0), NodeId(3)));
        assert!(!compact.has_edge(NodeId(3), NodeId(4)));
    }

    #[test]
    fn corrupt_bytes_are_rejected() {
        let compact = CompactCsr::from_csr(&sample());
        let good = compact.as_bytes().to_vec();

        // Truncated header.
        assert!(CompactCsr::from_bytes(good[..HEADER_LEN - 1].to_vec()).is_err());
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(CompactCsr::from_bytes(bad).is_err());
        // Flip a data byte: checksum catches it.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(CompactCsr::from_bytes(bad).is_err());
        // Truncated buffer.
        assert!(CompactCsr::from_bytes(good[..good.len() - 1].to_vec()).is_err());
    }

    #[test]
    fn an_offset_past_the_data_is_a_format_error() {
        let mut b = GraphBuilder::new();
        for i in 0..4u32 {
            b.push_edge(i, (i + 1) % 4);
        }
        let compact = CompactCsr::from_csr(&b.build().unwrap());
        assert_eq!(compact.offset_width, 4);
        let mut bytes = compact.as_bytes().to_vec();
        let data_len = (bytes.len() - compact.data_at) as u32;
        let at = HEADER_LEN + 4;
        bytes[at..at + 4].copy_from_slice(&(data_len + 1000).to_le_bytes());
        let e = CompactCsr::from_bytes(bytes).unwrap_err();
        assert!(matches!(e, GraphError::Format(_)), "{e}");
        assert!(e.to_string().contains("past the"), "{e}");
    }

    #[test]
    fn zero_gap_is_a_format_error() {
        // Hand-build a 2-node snapshot whose node 0 run encodes the
        // duplicate list [1, 1] as first=1, gap=0.
        let mut data = Vec::new();
        varint::write_u64(&mut data, 2); // degree 2
        varint::write_u64(&mut data, 1); // first neighbor: 1
        varint::write_u64(&mut data, 0); // gap 0 — forbidden
        let split = data.len() as u64;
        varint::write_u64(&mut data, 2); // node 1: degree 2
        varint::write_u64(&mut data, 0);
        varint::write_u64(&mut data, 0);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&(data.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&crate::fnv::fnv1a(&data).to_le_bytes());
        for off in [0u32, split as u32, data.len() as u32] {
            bytes.extend_from_slice(&off.to_le_bytes());
        }
        bytes.extend_from_slice(&data);
        let e = CompactCsr::from_bytes(bytes).unwrap_err();
        assert!(e.to_string().contains("zero gap"), "{e}");
    }

    #[test]
    fn decode_cache_serves_hits_and_evicts() {
        let plain = sample();
        let compact = CompactCsr::from_csr(&plain);
        let mut cache = DecodeCache::new(4);
        for _ in 0..3 {
            for v in plain.nodes() {
                assert_eq!(cache.neighbors(&compact, v), plain.neighbors(v));
            }
        }
        // Consecutive touches of one node always hit, whatever collides.
        cache.neighbors(&compact, NodeId(0));
        let hits_before = cache.stats().0;
        cache.neighbors(&compact, NodeId(0));
        let (hits, misses) = cache.stats();
        assert_eq!(hits, hits_before + 1, "repeat touch must hit");
        assert!(misses >= plain.node_count() as u64);
        cache.evict(NodeId(0));
        assert_eq!(
            cache.neighbors(&compact, NodeId(0)),
            plain.neighbors(NodeId(0))
        );
        cache.clear();
        assert_eq!(
            cache.neighbors(&compact, NodeId(3)),
            plain.neighbors(NodeId(3))
        );
    }

    #[test]
    fn overlay_reads_and_rebuild_work_over_compact() {
        use crate::{DeltaOverlay, EdgeMutation};
        let plain = sample();
        let compact = CompactCsr::from_csr(&plain);
        let mutations = [
            EdgeMutation::insert(0.5, NodeId(3), NodeId(8)),
            EdgeMutation::delete(1.0, NodeId(0), NodeId(4)),
        ];
        let mut overlay = DeltaOverlay::new();
        for m in mutations {
            assert!(overlay.apply(&compact, m));
        }
        assert_eq!(overlay.degree(&compact, NodeId(8)), 1);
        assert!(overlay.has_edge(&compact, NodeId(8), NodeId(3)));
        assert!(!overlay.has_edge(&compact, NodeId(0), NodeId(4)));

        // Same mutations over the plain base must rebuild the same graph.
        let mut plain_overlay = DeltaOverlay::new();
        for m in mutations {
            assert!(plain_overlay.apply(&plain, m));
        }
        let rebuilt = compact.rebuilt(&overlay).unwrap();
        rebuilt.validate().unwrap();
        let expected = plain.rebuilt(&plain_overlay).unwrap();
        assert_eq!(rebuilt.to_csr().unwrap(), expected);
        assert_eq!(rebuilt, CompactCsr::from_csr(&expected));
    }

    #[test]
    fn compression_wins_on_local_ids() {
        // A long ring: every gap is tiny, so the packed form must be well
        // under the plain footprint.
        let mut b = GraphBuilder::new();
        for i in 0..5_000u32 {
            b.push_edge(i, (i + 1) % 5_000);
        }
        let plain = b.build().unwrap();
        let compact = CompactCsr::from_csr(&plain);
        assert!(
            compact.compression_ratio() > 2.0,
            "ratio {:.2}",
            compact.compression_ratio()
        );
        assert!(compact.byte_len() < plain.heap_bytes() / 2);
    }
}
