//! Differential property tests for the compressed graph substrate — the
//! acceptance gate for [`osn_sampling::graph::compact::CompactCsr`].
//!
//! The contract: the delta-varint snapshot is a **lossless, canonical**
//! encoding of the plain CSR, and every walker-facing read path over it is
//! observationally identical to the uncompressed graph. Pinned here as
//! properties over arbitrary graphs:
//!
//! * **Round trip** — `CsrGraph → CompactCsr → CsrGraph` preserves every
//!   degree and neighbor list, and re-encoding the decompressed graph
//!   reproduces the identical bytes (the encoding is canonical).
//! * **Disk bytes** — `as_bytes`/`from_bytes` and `write_to`/`open`/
//!   `open_mmap` round-trip byte-for-byte, pass checksum validation, and
//!   the mapped snapshot serves the same reads as the in-memory one.
//! * **Streaming builder** — [`CompactBuilder`] fed the edge list in an
//!   arbitrary permutation, under an arbitrary (tiny) chunk capacity, is
//!   byte-identical to `from_csr` of the same graph: spill pattern and
//!   input order never leak into the output.
//! * **Decode cache** — [`DecodeCache`] of any slot count serves exactly
//!   the slices a direct decode produces, for any probe schedule.
//! * **Walks** — serial CNRW / NB-CNRW / GNRW step loops over a
//!   compact-backed [`SimulatedOsn`] are bit-identical to the plain client,
//!   with identical charged accounting.
//!
//! Varint boundary cases (1..4-byte lengths, huge gaps, trailing isolated
//! nodes) get a dedicated deterministic test on a sparse wide-id hub.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::sync::Arc;

use osn_sampling::graph::generators::{barabasi_albert, erdos_renyi};
use osn_sampling::graph::GraphBuilder;
use osn_sampling::prelude::*;

/// A connected-ish random graph with 5..60 nodes (same recipe as
/// `tests/overlay_props.rs`).
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (5usize..60, 0u64..1000).prop_map(|(n, seed)| {
        let p = (2.0 * (n as f64).ln() / n as f64).min(0.9);
        erdos_renyi(n, p, seed).expect("valid config")
    })
}

/// The builder's inputs: `arb_graph`'s small graphs, or Barabási–Albert
/// graphs of 300..3,000 nodes, whose spill buckets hold several sources
/// each and whose oldest nodes are hubs.
fn arb_builder_graph() -> impl Strategy<Value = CsrGraph> {
    (
        proptest::bool::ANY,
        arb_graph(),
        300usize..3_000,
        1usize..6,
        0u64..1000,
    )
        .prop_map(|(scale_free, small, n, m, seed)| {
            if scale_free {
                barabasi_albert(n, m, seed).expect("valid config")
            } else {
                small
            }
        })
}

/// The undirected edge list of `g`, one `(u, v)` per edge with `u < v`.
fn edge_list(g: &CsrGraph) -> Vec<(u32, u32)> {
    g.nodes()
        .flat_map(|u| {
            g.neighbors(u)
                .iter()
                .filter(move |&&v| u.0 < v.0)
                .map(move |&v| (u.0, v.0))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Node-for-node equality of a compact snapshot against a plain CSR.
fn assert_same_topology(compact: &CompactCsr, g: &CsrGraph) {
    assert_eq!(compact.node_count(), g.node_count());
    assert_eq!(compact.edge_count(), g.edge_count() as u64);
    for v in g.nodes() {
        assert_eq!(compact.degree(v), g.degree(v), "degree of {}", v.0);
        let decoded: Vec<NodeId> = compact.neighbors_iter(v).collect();
        assert_eq!(decoded.as_slice(), g.neighbors(v), "neighbors of {}", v.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `CsrGraph → CompactCsr → CsrGraph` is lossless, and re-encoding the
    /// decompressed graph is byte-identical (the encoding is canonical).
    #[test]
    fn compact_round_trips_arbitrary_graphs(g in arb_graph()) {
        let compact = CompactCsr::from_csr(&g);
        assert_same_topology(&compact, &g);
        prop_assert!(compact.validate().is_ok());
        let back = compact.to_csr().expect("snapshots decompress");
        for v in g.nodes() {
            prop_assert_eq!(back.neighbors(v), g.neighbors(v));
        }
        let reencoded = CompactCsr::from_csr(&back);
        prop_assert_eq!(reencoded.as_bytes(), compact.as_bytes());
    }

    /// Memory and disk round trips preserve every byte; both load paths
    /// (full read and mmap) validate and serve identical reads.
    #[test]
    fn disk_bytes_round_trip(g in arb_graph(), tag in 0u64..u64::MAX) {
        let compact = CompactCsr::from_csr(&g);
        let from_vec = CompactCsr::from_bytes(compact.as_bytes().to_vec())
            .expect("own bytes parse");
        prop_assert_eq!(from_vec.as_bytes(), compact.as_bytes());

        let path = std::env::temp_dir().join(format!(
            "compact_props_{}_{tag:x}.osncc",
            std::process::id()
        ));
        compact.write_to(&path).expect("write_to");
        let opened = CompactCsr::open(&path).expect("open");
        let mapped = CompactCsr::open_mmap(&path).expect("open_mmap");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(opened.as_bytes(), compact.as_bytes());
        prop_assert!(mapped.validate().is_ok());
        assert_same_topology(&mapped, &g);
    }

    /// The streaming builder is input-order- and chunk-capacity-invariant:
    /// any permutation of the edge list through any (tiny) stage buffer
    /// produces the exact bytes `from_csr` does.
    #[test]
    fn streaming_builder_is_order_and_chunk_invariant(
        g in arb_builder_graph(),
        chunk in 2usize..64,
        seed in 0u64..1000,
    ) {
        let want = CompactCsr::from_csr(&g);
        let mut edges = edge_list(&g);
        edges.shuffle(&mut ChaCha12Rng::seed_from_u64(seed));
        let mut builder =
            CompactBuilder::with_chunk_capacity(chunk).with_min_nodes(g.node_count());
        builder.add_edges(edges).expect("in-range ids");
        let built = builder.finish().expect("non-empty build");
        prop_assert_eq!(built.as_bytes(), want.as_bytes());
    }

    /// A decode cache of any slot count is transparent: every probe serves
    /// exactly the slice a direct decode produces.
    #[test]
    fn decode_cache_is_transparent(
        g in arb_graph(),
        slots in 1usize..16,
        probes in proptest::collection::vec(0usize..1000, 1..200),
    ) {
        let compact = CompactCsr::from_csr(&g);
        let mut cache = DecodeCache::new(slots);
        for p in probes {
            let v = NodeId((p % g.node_count()) as u32);
            let direct: Vec<NodeId> = compact.neighbors_iter(v).collect();
            prop_assert_eq!(cache.neighbors(&compact, v), direct.as_slice());
        }
        let (hits, misses) = cache.stats();
        prop_assert!(hits + misses > 0);
    }

    /// Serial step loops over a compact-backed client are bit-identical to
    /// the plain client — CNRW, NB-CNRW, and GNRW, with identical charged
    /// accounting.
    #[test]
    fn serial_walks_are_bit_identical_over_compact(
        g in arb_graph(),
        seed in 0u64..1000,
        steps in 1usize..300,
    ) {
        let compact = Arc::new(CompactCsr::from_csr(&g));
        let Some(start) = g.nodes().find(|&v| g.degree(v) > 0) else {
            return Ok(());
        };
        let walkers: [fn(NodeId) -> Box<dyn RandomWalk + Send>; 3] = [
            |s| Box::new(Cnrw::new(s)) as _,
            |s| Box::new(NbCnrw::new(s)) as _,
            |s| Box::new(Gnrw::new(s, Grouping::degree_log2())) as _,
        ];
        for make in walkers {
            let mut packed = SimulatedOsn::from_compact(Arc::clone(&compact));
            let mut plain = SimulatedOsn::from_graph(g.clone());
            let mut a = make(start);
            let mut b = make(start);
            let mut rng_a = ChaCha12Rng::seed_from_u64(seed ^ 0xC0DE);
            let mut rng_b = ChaCha12Rng::seed_from_u64(seed ^ 0xC0DE);
            for step in 0..steps {
                let va = a.step(&mut packed, &mut rng_a).unwrap();
                let vb = b.step(&mut plain, &mut rng_b).unwrap();
                prop_assert_eq!(va, vb, "diverged at step {}", step);
            }
            prop_assert_eq!(packed.stats().unique, plain.stats().unique);
            prop_assert_eq!(packed.stats().issued, plain.stats().issued);
        }
    }
}

/// Varint boundary cases the random band misses: neighbor ids and gaps
/// straddling every 7-bit length boundary (1..4-byte varints), a sparse
/// hub whose gap list is almost all multi-byte, and trailing isolated
/// nodes past the last edge.
#[test]
fn wide_id_hub_exercises_varint_boundaries() {
    // 2^7 ± 1, 2^14 ± 1, 2^21 ± 1 — first ids and gaps on both sides of
    // each continuation-byte threshold.
    let spokes: [u32; 9] = [
        1, 127, 128, 129, 16_383, 16_384, 16_385, 2_097_151, 2_097_152,
    ];
    let mut b = GraphBuilder::new();
    for &s in &spokes {
        b = b.add_edge(0, s);
    }
    // A second hub so one spoke has degree 2 (a gap after the first id).
    let g = b.add_edge(127, 2_097_152).build().unwrap();
    let compact = CompactCsr::from_csr(&g);
    assert_eq!(compact.node_count(), 2_097_153);
    assert_eq!(compact.degree(NodeId(0)), spokes.len());
    let hub: Vec<u32> = compact.neighbors_iter(NodeId(0)).map(|v| v.0).collect();
    assert_eq!(hub, spokes);
    compact.validate().expect("checksum");
    let back = compact.to_csr().expect("decompress");
    for v in g.nodes() {
        assert_eq!(back.neighbors(v), g.neighbors(v));
    }
    // The same graph through the streaming builder, edges reversed.
    let mut builder = CompactBuilder::with_chunk_capacity(4);
    builder
        .add_edges(spokes.iter().rev().map(|&s| (s, 0)))
        .unwrap();
    builder.add_edge(2_097_152, 127).unwrap();
    let streamed = builder.finish().unwrap();
    assert_eq!(streamed.as_bytes(), compact.as_bytes());
}
