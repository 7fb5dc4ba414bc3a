//! Bounded-memory streaming construction of [`CompactCsr`] snapshots.
//!
//! [`CompactBuilder`] turns an arbitrary-order edge stream into the bytes
//! [`CompactCsr::from_csr`] would produce, without ever holding the
//! uncompressed adjacency. It is a partitioned bulk load:
//!
//! 1. **Stage.** Each edge `{u, v}` becomes two arcs packed as `u64`
//!    values `(src << 32) | dst` in the stage buffer.
//! 2. **Spill.** A full stage is scattered by bucket, `src >> shift`,
//!    through one write buffer per bucket, each appended to the builder's
//!    spill file as an unsorted extent when it fills. The first spill fixes
//!    `shift` so that the larger of the largest id seen and `min_nodes − 1`
//!    falls in one of at most 256 buckets; when later ids outgrow that
//!    range the width doubles and adjacent buckets merge, so no input order
//!    raises the bucket count past 256.
//! 3. **Finish.** The rest of the stage is spilled and the buckets are read
//!    back in id order. Each is counting-sorted by source, then every node's
//!    run is sorted and encoded, a repeated neighbor once. A build that
//!    never spilled and fits one load sorts its stage the same way, in
//!    memory, and never touches the disk.
//!
//! **Memory.** `chunk_capacity` arcs of 8 B is the whole staging budget:
//! 15/16 of it stages, and the write buffers share the rest (at least one
//! arc per bucket). `finish` frees both, then holds one load at a time,
//! whose arcs (8 B) and sorted ids (4 B) fit the budget. A bigger bucket is
//! loaded in source sub-ranges that fit, re-reading its extents, so only a
//! node with more arcs than a load passes the budget, by its own arcs. On
//! top come the `8 B × (n + 1)` offset table and the output being encoded.
//!
//! **Any chunk capacity and input order give the same bytes**: each run is
//! encoded from the multiset of arcs leaving its node, sorted; the spill
//! pattern only decides which extents and loads carry those arcs.
//!
//! **Spill file.** A builder spills into `osn-compact-spill-{pid}-{k}.arcs`
//! in its temp dir, `k` from a process-wide counter. It is opened with
//! `create_new`, so it never truncates a file (a taken name moves on to the
//! next `k`), and it is removed when the builder is finished or dropped.

use std::fs::File;
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use super::{CompactCsr, Encoder};
use crate::{GraphError, NodeId, Result};

/// Default staging budget in arcs (= 2× edges): 16 Mi arcs ≈ 128 MiB, for
/// the stage buffer and the spill's write buffers together.
pub const DEFAULT_CHUNK_CAPACITY: usize = 16 << 20;

/// Most buckets a spill partitions the ids into.
const MAX_BUCKETS: usize = 256;
/// The write buffers take `1 / WINDOW_SHARE` of the budget.
const WINDOW_SHARE: usize = 16;
/// The `k` of spill file names (`Relaxed`: it publishes only itself).
static SPILL_FILES: AtomicU64 = AtomicU64::new(0);

/// Streaming, bounded-memory builder for [`CompactCsr`] (see module docs).
///
/// ```
/// use osn_graph::compact::CompactBuilder;
/// use osn_graph::NodeId;
///
/// let mut b = CompactBuilder::new();
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g = b.finish().unwrap();
/// assert_eq!(g.degree(NodeId(1)), 2);
/// ```
pub struct CompactBuilder {
    stage: Vec<u64>,
    chunk_capacity: usize,
    spill: Option<Spill>,
    temp_dir: PathBuf,
    min_nodes: usize,
    max_node: Option<u32>,
    staged_edges: u64,
}

impl Default for CompactBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CompactBuilder {
    /// Builder with the default chunk capacity and the system temp dir.
    pub fn new() -> Self {
        Self::with_chunk_capacity(DEFAULT_CHUNK_CAPACITY)
    }

    /// Builder whose whole staging budget is `arcs` arcs (min 2): the stage
    /// buffer plus the write buffers a spill goes through. It also bounds
    /// what `finish` loads at a time.
    pub fn with_chunk_capacity(arcs: usize) -> Self {
        CompactBuilder {
            stage: Vec::new(),
            chunk_capacity: arcs.max(2),
            spill: None,
            temp_dir: std::env::temp_dir(),
            min_nodes: 0,
            max_node: None,
            staged_edges: 0,
        }
    }

    /// Spill to `dir` instead of the system temp dir.
    #[must_use]
    pub fn with_temp_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.temp_dir = dir.into();
        self
    }

    /// Ensure the built graph has at least `n` nodes, even if the trailing
    /// ids never appear in an edge.
    #[must_use]
    pub fn with_min_nodes(mut self, n: usize) -> Self {
        self.min_nodes = self.min_nodes.max(n);
        self
    }

    /// Stage the undirected edge `{u, v}`. Self-loops are dropped and
    /// duplicates collapse in `finish`, mirroring
    /// [`GraphBuilder`](crate::GraphBuilder).
    ///
    /// # Errors
    /// Propagates I/O failures from spilling a full stage.
    pub fn add_edge(&mut self, u: u32, v: u32) -> Result<()> {
        if u == v {
            return Ok(());
        }
        let stage_capacity = (self.chunk_capacity - self.chunk_capacity / WINDOW_SHARE).max(2);
        if self.stage.capacity() == 0 {
            self.stage.reserve_exact(stage_capacity);
        }
        let hi = u.max(v);
        self.max_node = Some(self.max_node.map_or(hi, |m| m.max(hi)));
        self.staged_edges += 1;
        self.stage.push(pack(u, v));
        self.stage.push(pack(v, u));
        if self.stage.len() + 1 >= stage_capacity {
            self.spill()?;
        }
        Ok(())
    }

    /// Stage every edge from an iterator of `(u, v)` pairs.
    ///
    /// # Errors
    /// Propagates I/O failures from spilling.
    pub fn add_edges<I: IntoIterator<Item = (u32, u32)>>(&mut self, iter: I) -> Result<()> {
        for (u, v) in iter {
            self.add_edge(u, v)?;
        }
        Ok(())
    }

    /// Raw (pre-dedup) edges staged so far.
    pub fn staged_edges(&self) -> u64 {
        self.staged_edges
    }

    /// Full stage buffers appended to the spill file so far (every spill of
    /// a builder goes to its one file).
    pub fn spilled_runs(&self) -> usize {
        self.spill.as_ref().map_or(0, |s| s.runs)
    }

    fn spill(&mut self) -> Result<()> {
        if self.spill.is_none() {
            self.spill = Some(Spill::create(&self.temp_dir)?);
        }
        let floor = u32::try_from(self.min_nodes.saturating_sub(1)).unwrap_or(u32::MAX);
        let bound = self.max_node.map_or(floor, |m| m.max(floor));
        let window = self.chunk_capacity / WINDOW_SHARE;
        let spill = self.spill.as_mut().expect("spill file created above");
        spill.append(&self.stage, bound, window)?;
        self.stage.clear();
        Ok(())
    }

    /// Encode every node's run and assemble the snapshot. Validation is
    /// implicit: the encoder only ever sees sorted runs.
    ///
    /// # Errors
    /// [`GraphError::EmptyGraph`] when no nodes would result, otherwise
    /// I/O failures from the spill file.
    pub fn finish(mut self) -> Result<CompactCsr> {
        let ids = self.max_node.map_or(0, |m| m as usize + 1);
        let n = ids.max(self.min_nodes);
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        let mut enc = Encoder::new(n);
        // Each run and each distinct arc take a byte at least. Reserved
        // before the stage is freed, the output does not grow by copies into
        // freed memory; a reservation the allocator refuses is skipped.
        let _ = enc.bytes.try_reserve(2 * self.staged_edges as usize + n);
        // A load's arcs (8 B each) and sorted ids (4 B each) fit the budget.
        let limit = (self.chunk_capacity / 3 * 2).max(1);
        if self.spill.is_some() || self.stage.len() > limit {
            self.spill()?;
            self.stage = Vec::new();
        }
        let encoded = match self.spill.take() {
            Some(spill) => spill.encode(&mut enc, n, limit)?,
            None => {
                Runs::default().encode(&mut enc, &std::mem::take(&mut self.stage), 0..ids);
                ids
            }
        };
        (encoded..n).for_each(|_| enc.push_run(&[]));
        enc.finish()
    }
}

#[inline]
fn pack(src: u32, dst: u32) -> u64 {
    (u64::from(src) << 32) | u64::from(dst)
}

/// Split consecutive sources, `counts[i]` arcs each, into ranges of at most
/// `limit` arcs; a source with more arcs than that gets a range of its own.
fn plan_loads(counts: &[usize], limit: usize) -> Vec<Range<usize>> {
    let (mut ranges, mut start, mut sum) = (Vec::new(), 0, 0);
    for (i, &count) in counts.iter().enumerate() {
        if sum + count > limit && i > start {
            ranges.push(start..i);
            (start, sum) = (i, 0);
        }
        sum += count;
    }
    ranges.push(start..counts.len());
    ranges
}

/// Buffers reused to counting-sort arcs by source.
#[derive(Default)]
struct Runs {
    /// Per source: its arc count, then where its run ends in `ids`.
    ends: Vec<usize>,
    ids: Vec<NodeId>,
}

impl Runs {
    /// Encode the nodes `sources` from every arc leaving them, in any order.
    fn encode(&mut self, enc: &mut Encoder, arcs: &[u64], sources: Range<usize>) {
        let lo = sources.start;
        self.ends.clear();
        self.ends.resize(sources.len() + 1, 0);
        for &arc in arcs {
            self.ends[(arc >> 32) as usize - lo + 1] += 1;
        }
        for i in 1..self.ends.len() {
            self.ends[i] += self.ends[i - 1];
        }
        self.ids.clear();
        self.ids.resize(arcs.len(), NodeId(0));
        for &arc in arcs {
            let at = &mut self.ends[(arc >> 32) as usize - lo];
            self.ids[*at] = NodeId(arc as u32);
            *at += 1;
        }
        let mut start = 0;
        for &end in &self.ends[..sources.len()] {
            self.ids[start..end].sort_unstable();
            enc.push_run(&self.ids[start..end]);
            start = end;
        }
    }
}

/// The spill file, and where each bucket's arcs lie in it.
struct Spill {
    file: File,
    path: PathBuf,
    /// Bucket `b` holds the sources `b << shift .. (b + 1) << shift`.
    shift: u32,
    extents: Vec<Extent>,
    runs: usize,
}

/// `arcs` unsorted arcs of `bucket` at byte `offset` of the spill file.
struct Extent {
    bucket: u32,
    offset: u64,
    arcs: usize,
}

impl Spill {
    fn create(dir: &Path) -> Result<Spill> {
        let mut options = File::options();
        options.read(true).write(true).create_new(true);
        loop {
            let k = SPILL_FILES.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("osn-compact-spill-{}-{k}.arcs", std::process::id()));
            match options.open(&path) {
                Ok(file) => {
                    let (shift, extents, runs) = (0, Vec::new(), 0);
                    return Ok(Spill {
                        file,
                        path,
                        shift,
                        extents,
                        runs,
                    });
                }
                Err(e) if e.kind() != ErrorKind::AlreadyExists => return Err(e.into()),
                Err(_) => {} // the name is taken: try the next `k`
            }
        }
    }

    /// Append `arcs`, whose sources are at most `bound`, through one write
    /// buffer per bucket: `window` arcs in all, one per bucket at least.
    /// Extents are recorded only once every arc is written, so a failed
    /// spill can be retried.
    fn append(&mut self, arcs: &[u64], bound: u32, window: usize) -> Result<()> {
        while (bound >> self.shift) as usize >= MAX_BUCKETS {
            self.shift += 1;
            self.extents.iter_mut().for_each(|e| e.bucket >>= 1);
        }
        let (shift, buckets) = (32 + self.shift, (bound >> self.shift) as usize + 1);
        let per = 8 * (window / buckets).max(1);
        let mut bufs: Vec<Vec<u8>> = (0..buckets).map(|_| Vec::with_capacity(per)).collect();
        let mut extents = Vec::new();
        for &arc in arcs {
            let b = (arc >> shift) as usize;
            bufs[b].extend_from_slice(&arc.to_le_bytes());
            if bufs[b].len() == per {
                self.flush(b, &mut bufs[b], &mut extents)?;
            }
        }
        for (b, buf) in bufs.iter_mut().enumerate() {
            self.flush(b, buf, &mut extents)?;
        }
        self.extents.extend(extents);
        self.runs += 1;
        Ok(())
    }

    /// Append `buf`, if it holds any arcs, to the file as an extent of
    /// bucket `b`, recorded in `out`.
    fn flush(&mut self, b: usize, buf: &mut Vec<u8>, out: &mut Vec<Extent>) -> Result<()> {
        if !buf.is_empty() {
            let offset = self.file.seek(SeekFrom::End(0))?;
            self.file.write_all(buf)?;
            out.push(Extent {
                bucket: b as u32,
                offset,
                arcs: buf.len() / 8,
            });
            buf.clear();
        }
        Ok(())
    }

    /// Read the buckets back in id order and encode their nodes, returning
    /// how many nodes that covers. Consumes `self`, so the file is removed
    /// before the output is assembled.
    fn encode(mut self, enc: &mut Encoder, n: usize, limit: usize) -> Result<usize> {
        let mut extents = std::mem::take(&mut self.extents);
        extents.sort_by_key(|e| e.bucket);
        let (mut runs, mut load, mut next) = (Runs::default(), Vec::new(), 0);
        for bucket in extents.chunk_by(|a, b| a.bucket == b.bucket) {
            let lo = (bucket[0].bucket as usize) << self.shift;
            let hi = (lo + (1 << self.shift)).min(n);
            (next..lo).for_each(|_| enc.push_run(&[]));
            let loads = if bucket.iter().map(|e| e.arcs).sum::<usize>() > limit {
                let mut counts = vec![0; hi - lo];
                self.scan(bucket, |arc| counts[(arc >> 32) as usize - lo] += 1)?;
                plan_loads(&counts, limit)
            } else {
                std::iter::once(0..hi - lo).collect()
            };
            for sources in loads {
                let sources = lo + sources.start..lo + sources.end;
                load.clear();
                self.scan(bucket, |arc| {
                    if sources.contains(&((arc >> 32) as usize)) {
                        load.push(arc);
                    }
                })?;
                runs.encode(enc, &load, sources);
            }
            next = hi;
        }
        Ok(next)
    }

    /// Feed every arc of `extents` to `visit`.
    fn scan(&mut self, extents: &[Extent], mut visit: impl FnMut(u64)) -> Result<()> {
        let mut bytes = Vec::new();
        for e in extents {
            bytes.resize(8 * e.arcs, 0);
            self.file.seek(SeekFrom::Start(e.offset))?;
            self.file.read_exact(&mut bytes)?;
            for arc in bytes.chunks_exact(8) {
                visit(u64::from_le_bytes(arc.try_into().expect("8-byte chunk")));
            }
        }
        Ok(())
    }
}

impl Drop for Spill {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn edges(seed: u64, n: u32, count: usize) -> Vec<(u32, u32)> {
        // Deterministic pseudo-random edge list with duplicates/self-loops.
        let mut out = Vec::with_capacity(count);
        for i in 0..count as u64 {
            let r = crate::mix::splitmix64_stream(seed, i);
            out.push(((r % u64::from(n)) as u32, ((r >> 32) % u64::from(n)) as u32));
        }
        out
    }

    fn reference(edge_list: &[(u32, u32)], min_nodes: usize) -> crate::CsrGraph {
        GraphBuilder::new()
            .with_nodes(min_nodes)
            .extend_edges(edge_list.iter().copied())
            .build()
            .unwrap()
    }

    /// A fresh, empty spill directory private to one test.
    fn spill_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("osn-compact-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn matches_graph_builder_without_spilling() {
        let list = edges(7, 50, 400);
        let mut b = CompactBuilder::new().with_min_nodes(55);
        b.add_edges(list.iter().copied()).unwrap();
        assert_eq!(b.spilled_runs(), 0);
        let compact = b.finish().unwrap();
        compact.validate().unwrap();
        assert_eq!(compact.to_csr().unwrap(), reference(&list, 55));
        assert_eq!(compact, CompactCsr::from_csr(&reference(&list, 55)));
    }

    #[test]
    fn spilled_build_is_byte_identical_to_resident_build() {
        let list = edges(11, 300, 5_000);
        let resident = {
            let mut b = CompactBuilder::new();
            b.add_edges(list.iter().copied()).unwrap();
            b.finish().unwrap()
        };
        // Tiny chunks force many spills; result must not change.
        for cap in [64usize, 257, 1024] {
            let mut b = CompactBuilder::with_chunk_capacity(cap);
            b.add_edges(list.iter().copied()).unwrap();
            assert!(b.spilled_runs() > 1, "cap {cap} must spill");
            let spilled = b.finish().unwrap();
            assert_eq!(
                spilled.as_bytes(),
                resident.as_bytes(),
                "chunk capacity {cap} changed the output"
            );
        }
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let mut list = edges(13, 120, 2_000);
        let a = {
            let mut b = CompactBuilder::with_chunk_capacity(512);
            b.add_edges(list.iter().copied()).unwrap();
            b.finish().unwrap()
        };
        list.reverse();
        let b = {
            let mut bld = CompactBuilder::with_chunk_capacity(700);
            bld.add_edges(list.iter().copied()).unwrap();
            bld.finish().unwrap()
        };
        assert_eq!(a.as_bytes(), b.as_bytes());
    }

    #[test]
    fn empty_and_isolated_nodes() {
        assert!(matches!(
            CompactBuilder::new().finish(),
            Err(GraphError::EmptyGraph)
        ));
        let g = CompactBuilder::new().with_min_nodes(4).finish().unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 0);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 0);
        }
    }

    #[test]
    fn spill_files_are_cleaned_up() {
        let dir = std::env::temp_dir().join(format!("osn-compact-spilldir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut b = CompactBuilder::with_chunk_capacity(64).with_temp_dir(&dir);
        b.add_edges(edges(17, 40, 1_000)).unwrap();
        assert!(b.spilled_runs() > 0);
        let _ = b.finish().unwrap();
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "spill files must be removed after the merge"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn builders_sharing_a_memory_slot_keep_their_own_spills() {
        // A builder that spilled, then left its `Vec` slot to a second
        // builder that spills from the same address, must still read back
        // its own arcs.
        let dir = spill_dir("slot");
        let path: Vec<(u32, u32)> = (0..99).map(|i| (i, i + 1)).collect();
        let star: Vec<(u32, u32)> = (1..100).map(|i| (0, i)).collect();
        let mut slot = Vec::with_capacity(1);
        slot.push(CompactBuilder::with_chunk_capacity(16).with_temp_dir(&dir));
        slot[0].add_edges(path.iter().copied()).unwrap();
        assert!(slot[0].spilled_runs() >= 12);
        let a = slot.pop().unwrap();
        slot.push(CompactBuilder::with_chunk_capacity(16).with_temp_dir(&dir));
        slot[0].add_edges(star.iter().copied()).unwrap();
        assert!(slot[0].spilled_runs() >= 12);
        let b = slot.pop().unwrap();
        assert_eq!(
            a.finish().unwrap(),
            CompactCsr::from_csr(&reference(&path, 0))
        );
        assert_eq!(
            b.finish().unwrap(),
            CompactCsr::from_csr(&reference(&star, 0))
        );
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ascending_ids_widen_buckets_without_raising_their_count() {
        // Edges sorted by their smaller endpoint, both endpoints close: the
        // first spill sees only small ids, and later ones keep outgrowing
        // the bucket range.
        let n = 5_000u32;
        let mut list: Vec<(u32, u32)> = (0..n - 1)
            .flat_map(|u| {
                let r = crate::mix::splitmix64_stream(23, u64::from(u));
                (1..=3).map(move |k| (u, (u + 1 + ((r >> (8 * k)) % 8) as u32).min(n - 1)))
            })
            .collect();
        list.sort_unstable();
        let mut b = CompactBuilder::with_chunk_capacity(64);
        let (mut first_shift, mut runs) = (None, 0);
        for &(u, v) in &list {
            b.add_edge(u, v).unwrap();
            if b.spilled_runs() > runs {
                runs = b.spilled_runs();
                let spill = b.spill.as_ref().unwrap();
                first_shift.get_or_insert(spill.shift);
                let buckets = spill.extents.iter().map(|e| e.bucket as usize + 1).max();
                assert!(buckets.unwrap_or(0) <= MAX_BUCKETS, "{buckets:?} buckets");
                assert!((b.max_node.unwrap() >> spill.shift) < MAX_BUCKETS as u32);
            }
        }
        let last_shift = b.spill.as_ref().unwrap().shift;
        assert_eq!(first_shift, Some(0), "the first spill sees ids below 256");
        assert!(
            last_shift >= 5,
            "buckets widened only to shift {last_shift}"
        );
        assert_eq!(
            b.finish().unwrap().as_bytes(),
            CompactCsr::from_csr(&reference(&list, 0)).as_bytes()
        );
    }

    #[test]
    fn a_hub_bucket_loads_in_sub_ranges_within_the_budget() {
        // Node 0 links 20,000 leaves, which also form a ring: bucket 0 holds
        // the hub's arcs, about 20 budgets' worth.
        let leaves = 20_000u32;
        let mut list: Vec<(u32, u32)> = (1..=leaves).map(|i| (0, i)).collect();
        list.extend((1..=leaves).map(|i| (i, i % leaves + 1)));
        let chunk = 1_024;
        let want = CompactCsr::from_csr(&reference(&list, 0));
        let mut b = CompactBuilder::with_chunk_capacity(chunk);
        b.add_edges(list.iter().rev().copied()).unwrap();
        let shift = b.spill.as_ref().unwrap().shift;
        assert_eq!(b.finish().unwrap().as_bytes(), want.as_bytes());

        // The plan for bucket 0, from its sources' arc counts.
        let width = 1usize << shift;
        let mut counts = vec![0; width];
        for &(u, v) in &list {
            for src in [u, v] {
                if (src as usize) < width {
                    counts[src as usize] += 1;
                }
            }
        }
        let hub = counts[0];
        assert_eq!(hub, leaves as usize);
        assert!(counts.iter().sum::<usize>() > 19 * chunk);
        let plan = plan_loads(&counts, chunk / 3 * 2); // `finish`'s load limit
        assert!(plan.len() > 1);
        assert_eq!(plan.first().unwrap().start, 0);
        assert_eq!(plan.last().unwrap().end, width);
        for (range, next) in plan.iter().zip(plan.iter().skip(1)) {
            assert_eq!(range.end, next.start, "ranges tile the bucket");
        }
        for range in &plan {
            let load: usize = counts[range.clone()].iter().sum();
            assert!(load <= chunk + hub, "{range:?} loads {load} arcs");
            assert!(
                load <= chunk || range.len() == 1,
                "{range:?} loads {load} arcs"
            );
        }
    }

    #[test]
    fn min_nodes_far_past_the_largest_id_pads_empty_buckets() {
        let list = edges(29, 100, 600);
        let nodes = 70_000;
        let mut b = CompactBuilder::with_chunk_capacity(64).with_min_nodes(nodes);
        b.add_edges(list.iter().copied()).unwrap();
        assert!(b.spilled_runs() > 1);
        assert!(
            b.spill.as_ref().unwrap().shift > 0,
            "buckets span min_nodes"
        );
        let g = b.finish().unwrap();
        assert_eq!(g.node_count(), nodes);
        assert_eq!(
            g.as_bytes(),
            CompactCsr::from_csr(&reference(&list, nodes)).as_bytes()
        );
    }

    #[test]
    fn a_dropped_builder_removes_its_spill_file() {
        let dir = spill_dir("dropped");
        let mut b = CompactBuilder::with_chunk_capacity(64).with_temp_dir(&dir);
        b.add_edges(edges(31, 40, 1_000)).unwrap();
        assert!(b.spilled_runs() > 0);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "one spill file"
        );
        drop(b);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
