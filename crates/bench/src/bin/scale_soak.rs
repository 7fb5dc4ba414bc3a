//! `scale_soak` — CI smoke for the web-scale compressed substrate.
//!
//! ```text
//! scale_soak [--edges E] [--degree D] [--chunk ARCS] [--steps N]
//!            [--seed S] [--max-secs SECS]
//! ```
//!
//! Streams a multi-million-edge web stand-in (default 4M edges) through
//! the partitioned [`CompactBuilder`] with a deliberately small chunk
//! capacity so its buckets actually spill to disk, then asserts the four
//! claims the substrate makes:
//!
//! 1. **memory bound** — the build's peak-RSS growth (`VmHWM` from
//!    `/proc/self/status`) stays within the documented budget: the staging
//!    budget (`chunk × 8 B`), the offset table (`8 B × (n+1)`), the
//!    compressed output (with allocator headroom), and a fixed slack —
//!    never the `≈12 B/arc` a plain CSR build would need;
//! 2. **build determinism** — rebuilding the same stream with a different
//!    chunk capacity (different spill pattern) is byte-identical;
//! 3. **disk round trip** — `write_to` → `open` / `open_mmap` preserves
//!    every byte, passes checksum validation, and serves identical
//!    degrees and neighbor lists on a sampled node schedule;
//! 4. **walk bit-identity** — CNRW traces over the compact substrate
//!    match the decompressed plain CSR step-for-step across seeds.
//!
//! Both builds spill into a private directory that must hold no file once
//! each build returns, and each build's wall seconds are printed (for
//! information; no bound applies). Any violated assert exits non-zero.
//! The `--max-secs` wall-clock guard is polled between phases: a slow
//! runner skips remaining phases with a notice and exits 0 (inconclusive,
//! never red).

use std::sync::Arc;
use std::time::Instant;

use osn_experiments::runner::TrialPlan;
use osn_experiments::{Algorithm, Deadline};
use osn_graph::attributes::AttributedGraph;
use osn_graph::compact::{CompactBuilder, CompactCsr};
use osn_graph::generators::{web_graph_compact_with, WebGraphConfig};
use osn_graph::NodeId;

struct Options {
    edges: u64,
    degree: f64,
    chunk: usize,
    steps: usize,
    seed: u64,
    max_secs: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            edges: 4_000_000,
            degree: 16.0,
            chunk: 1 << 20,
            steps: 100_000,
            seed: 0x5CA1_E50AC,
            max_secs: 600,
        }
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .unwrap_or_else(|| panic!("{flag} requires a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--edges" => opts.edges = value(&mut args, "--edges").parse().expect("--edges"),
            "--degree" => opts.degree = value(&mut args, "--degree").parse().expect("--degree"),
            "--chunk" => opts.chunk = value(&mut args, "--chunk").parse().expect("--chunk"),
            "--steps" => opts.steps = value(&mut args, "--steps").parse().expect("--steps"),
            "--seed" => opts.seed = value(&mut args, "--seed").parse().expect("--seed"),
            "--max-secs" => {
                opts.max_secs = value(&mut args, "--max-secs").parse().expect("--max-secs")
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: scale_soak [--edges E] [--degree D] [--chunk ARCS] \
                     [--steps N] [--seed S] [--max-secs SECS]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag `{other}` (see --help)");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn fail(message: String) -> ! {
    eprintln!("scale_soak FAIL: {message}");
    std::process::exit(1);
}

fn guard(deadline: &Deadline, phase: &str) {
    if deadline.exceeded() {
        eprintln!(
            "scale_soak: wall-clock guard fired after {:.1?} before `{phase}` — \
             skipping remaining phases (inconclusive, not a failure)",
            deadline.elapsed()
        );
        std::process::exit(0);
    }
}

/// Peak resident set (`VmHWM`) in bytes, from `/proc/self/status`.
/// `None` off Linux — the memory assert is then skipped as inconclusive.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: u64 = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib * 1024)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Stream the stand-in through a builder of `chunk` arcs that spills into
/// a private directory; fails if a spill file outlives the build.
fn build(config: &WebGraphConfig, chunk: usize) -> osn_graph::Result<CompactCsr> {
    let spill_dir = std::env::temp_dir().join(format!("scale_soak_spill_{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).unwrap_or_else(|e| fail(format!("spill dir: {e}")));
    let started = Instant::now();
    let builder = CompactBuilder::with_chunk_capacity(chunk).with_temp_dir(&spill_dir);
    let built = web_graph_compact_with(config, builder);
    eprintln!(
        "scale_soak: build with chunk {chunk} took {:.2} s",
        started.elapsed().as_secs_f64()
    );
    let left = std::fs::read_dir(&spill_dir)
        .unwrap_or_else(|e| fail(format!("spill dir: {e}")))
        .count();
    if left > 0 {
        fail(format!(
            "{left} spill file(s) left in {} after a build",
            spill_dir.display()
        ));
    }
    std::fs::remove_dir(&spill_dir).unwrap_or_else(|e| fail(format!("spill dir: {e}")));
    built
}

fn main() {
    let opts = parse_args();
    let deadline = Deadline::after_secs(opts.max_secs);
    let nodes = ((2.0 * opts.edges as f64) / opts.degree).round() as usize;
    let communities = (nodes / 2_000).clamp(8, 2_048);
    let config = WebGraphConfig::new(nodes, opts.degree, opts.seed).with_communities(communities);
    eprintln!(
        "scale_soak: {} target edges over {nodes} nodes ({communities} communities), \
         chunk {} arcs, seed {:#x}",
        config.target_edges(),
        opts.chunk,
        opts.seed
    );

    // Phase 1: streaming build under the documented memory bound. The
    // chunk is far smaller than the arc count, so the builder must spill
    // its buckets and read them back one at a time; peak-RSS growth may
    // cover the staging budget, the offset table, and the compressed
    // output (with allocator headroom + fixed slack) — never the plain
    // CSR's ≈12 B/arc.
    let rss_before = peak_rss_bytes();
    let built =
        build(&config, opts.chunk).unwrap_or_else(|e| fail(format!("streaming build failed: {e}")));
    let rss_after = peak_rss_bytes();
    // Duplicate draws collapse when runs are encoded, so the built count
    // sits a little under the raw stream target — but never above it, and
    // a large shortfall would mean the spill lost arcs.
    if built.edge_count() > config.target_edges()
        || (built.edge_count() as f64) < 0.9 * config.target_edges() as f64
    {
        fail(format!(
            "built {} of {} target edges",
            built.edge_count(),
            config.target_edges()
        ));
    }
    match (rss_before, rss_after) {
        (Some(before), Some(after)) => {
            let growth = after.saturating_sub(before);
            let budget = (opts.chunk as u64) * 8
                + 8 * (nodes as u64 + 1)
                + 4 * built.byte_len() as u64
                + (48 << 20);
            if growth > budget {
                fail(format!(
                    "build grew peak RSS by {:.1} MiB, budget {:.1} MiB \
                     (chunk {:.1} MiB, offsets {:.1} MiB, output {:.1} MiB)",
                    mib(growth),
                    mib(budget),
                    mib(opts.chunk as u64 * 8),
                    mib(8 * (nodes as u64 + 1)),
                    mib(built.byte_len() as u64),
                ));
            }
            eprintln!(
                "scale_soak: memory bound OK — {} edges into {:.1} MiB compact \
                 ({:.2}x ratio), peak-RSS growth {:.1} MiB within {:.1} MiB budget",
                built.edge_count(),
                mib(built.byte_len() as u64),
                built.compression_ratio(),
                mib(growth),
                mib(budget),
            );
        }
        _ => eprintln!("scale_soak: /proc/self/status unavailable — memory bound skipped"),
    }

    // Phase 2: build determinism — a different chunk capacity changes the
    // spill pattern but must not change a single output byte.
    guard(&deadline, "determinism rebuild");
    let other_chunk = (opts.chunk / 3).max(2) | 1;
    let rebuilt =
        build(&config, other_chunk).unwrap_or_else(|e| fail(format!("rebuild failed: {e}")));
    if rebuilt.as_bytes() != built.as_bytes() {
        fail(format!(
            "rebuild with chunk {other_chunk} is not byte-identical to chunk {}",
            opts.chunk
        ));
    }
    eprintln!(
        "scale_soak: build determinism OK (chunk {other_chunk} vs {})",
        opts.chunk
    );

    // Phase 3: disk round trip through both load paths.
    guard(&deadline, "disk round trip");
    let dir = std::env::temp_dir().join(format!("scale_soak_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| fail(format!("temp dir: {e}")));
    let path = dir.join("web.osncc");
    built
        .write_to(&path)
        .unwrap_or_else(|e| fail(format!("write_to: {e}")));
    let loaded = CompactCsr::open(&path).unwrap_or_else(|e| fail(format!("open: {e}")));
    let mapped = CompactCsr::open_mmap(&path).unwrap_or_else(|e| fail(format!("open_mmap: {e}")));
    if loaded.as_bytes() != built.as_bytes() {
        fail("`open` did not read back identical bytes".into());
    }
    if let Err(e) = mapped.validate() {
        fail(format!("mapped snapshot failed checksum validation: {e}"));
    }
    let mut probe = 0usize;
    for _ in 0..4_096 {
        probe = (probe.wrapping_mul(48271) + 11) % nodes;
        let v = NodeId(probe as u32);
        if built.degree(v) != mapped.degree(v)
            || !built.neighbors_iter(v).eq(mapped.neighbors_iter(v))
        {
            fail(format!(
                "mapped snapshot disagrees with the in-memory build at node {v:?}"
            ));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    eprintln!(
        "scale_soak: disk round trip OK — {:.1} MiB file, mmap load is_mapped={}",
        mib(built.byte_len() as u64),
        mapped.is_mapped()
    );

    // Phase 4: walk bit-identity against the decompressed plain CSR.
    guard(&deadline, "walk bit-identity");
    let compact = Arc::new(built);
    let plain = compact
        .to_csr()
        .unwrap_or_else(|e| fail(format!("decompress: {e}")));
    let packed_plan = TrialPlan::from_compact(Arc::clone(&compact)).with_max_steps(opts.steps);
    let plain_plan =
        TrialPlan::new(Arc::new(AttributedGraph::bare(plain))).with_max_steps(opts.steps);
    for round in 0..3u64 {
        let seed = opts.seed ^ (round * 0x9E37_79B9);
        let a = packed_plan.run(&Algorithm::Cnrw, seed);
        let b = plain_plan.run(&Algorithm::Cnrw, seed);
        if a.nodes() != b.nodes() || a.start != b.start {
            fail(format!(
                "CNRW over compact diverged from plain at seed {seed:#x} \
                 ({} vs {} steps)",
                a.len(),
                b.len()
            ));
        }
    }
    eprintln!(
        "scale_soak: walk bit-identity OK — 3 seeds x {} CNRW steps",
        opts.steps
    );
    eprintln!(
        "scale_soak: all checks passed in {:.1?}",
        deadline.elapsed()
    );
}
