//! `fleet_compact`: reactor fleets of CNRW and then GNRW walkers over the
//! mmap'd web-scale compact snapshot, behind the batch endpoint with every
//! realism knob on.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use osn_client::batch::SimulatedBatchOsn;
use osn_client::SimulatedOsn;
use osn_datasets::web_like_config;
use osn_graph::attributes::AttributedGraph;
use osn_graph::compact::{CompactBuilder, CompactCsr};
use osn_graph::generators::web_graph_compact_with;
use osn_graph::NodeId;
use osn_walks::{ByDegree, Cnrw, Gnrw, HistoryBackend, Never, RandomWalk, WalkOrchestrator};

use crate::decorators::{TracedBatch, TracedWalk};
use crate::reactor::{batch_config, RunCounts, IN_FLIGHT};
use crate::stats::{median, ratio};
use crate::trace::{self, TracedPasses};
use crate::{fnv, throughput, timed, Checks, Metrics, Options};

/// The walk algorithm of one fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Alg {
    /// Circulated neighbors random walk.
    Cnrw,
    /// GroupBy neighbors random walk, grouped by log2 degree.
    Gnrw,
}

impl Alg {
    fn step_call(self) -> &'static str {
        match self {
            Alg::Cnrw => "walks.step.cnrw",
            Alg::Gnrw => "walks.step.gnrw",
        }
    }
}

/// Where the endpoint reads adjacency from.
#[derive(Clone)]
pub enum Topology {
    /// The compressed snapshot (the measured path).
    Compact(Arc<CompactCsr>),
    /// Its decompressed plain CSR (the decode differential).
    Plain(Arc<AttributedGraph>),
}

impl Topology {
    fn node_count(&self) -> usize {
        match self {
            Topology::Compact(g) => g.node_count(),
            Topology::Plain(g) => g.graph.node_count(),
        }
    }

    fn endpoint(&self, seed: u64) -> SimulatedBatchOsn {
        let osn = match self {
            Topology::Compact(g) => SimulatedOsn::from_compact(Arc::clone(g)),
            Topology::Plain(g) => SimulatedOsn::new_shared(Arc::clone(g)),
        };
        SimulatedBatchOsn::new(osn, batch_config(seed))
    }
}

/// What one fleet run reports.
#[derive(Clone, Debug)]
pub struct FleetRun {
    /// Wall seconds from endpoint construction to the settled report.
    pub wall_s: f64,
    /// The deterministic outcome.
    pub counts: RunCounts,
    /// Decode-cache `(hits, misses)`; zero for a plain topology.
    pub decode: (u64, u64),
}

/// Run one fleet of `walkers` walkers for `steps` steps each, starting
/// spread evenly over the id space, through a fresh endpoint.
pub fn fleet_run(
    topology: &Topology,
    alg: Alg,
    walkers: usize,
    steps: usize,
    seed: u64,
    traced: bool,
) -> FleetRun {
    let n = topology.node_count();
    let stride = (n / walkers.max(1)).max(1);
    let orch = WalkOrchestrator::new(walkers, steps, seed ^ 0x000F_1EE7);
    let make = move |i: usize, backend: HistoryBackend| -> Box<dyn RandomWalk + Send> {
        let start = NodeId(((i * stride) % n) as u32);
        let walker: Box<dyn RandomWalk + Send> = match alg {
            Alg::Cnrw => Box::new(Cnrw::with_backend(start, backend)),
            Alg::Gnrw => Box::new(Gnrw::with_backend(
                start,
                Box::new(ByDegree::log2()),
                backend,
            )),
        };
        if traced {
            Box::new(TracedWalk::new(walker, alg.step_call()))
        } else {
            walker
        }
    };
    let value = |v: NodeId| v.index() as f64;
    let started = Instant::now();
    let (report, reactor, endpoint) = if traced {
        let mut client = TracedBatch::new(topology.endpoint(seed));
        let (report, reactor) = trace::span("reactor.run", || {
            orch.run_reactor_with_stats(&mut client, make, value, &Never)
        });
        (report, reactor, client.into_inner())
    } else {
        let mut client = topology.endpoint(seed);
        let (report, reactor) = orch.run_reactor_with_stats(&mut client, make, value, &Never);
        (report, reactor, client)
    };
    let wall_s = started.elapsed().as_secs_f64();
    FleetRun {
        wall_s,
        counts: RunCounts::settle(&report, reactor, &endpoint, walkers, steps),
        decode: endpoint.inner().decode_cache_stats().unwrap_or((0, 0)),
    }
}

/// Graph set-up timings, one entry per set-up.
#[derive(Default)]
struct Setup {
    total_s: Vec<f64>,
    build_s: Vec<f64>,
    open_s: Vec<f64>,
}

/// Stream the web stand-in through the external-sort builder, write it,
/// then map and validate it — `sizes.graph_setups` times; returns the last
/// mapping.
fn set_up(
    opts: &Options,
    work: &Path,
    checks: &mut Checks,
    setup: &mut Setup,
) -> Option<CompactCsr> {
    let config = web_like_config(opts.sizes.web_scale, opts.seed);
    let path = work.join("web.osncc");
    let mut graph: Option<CompactCsr> = None;
    let mut hashes = Vec::new();
    for _ in 0..opts.sizes.graph_setups.max(1) {
        // Unmap before the file is rewritten.
        drop(graph.take());
        let started = Instant::now();
        let (build_s, built) = timed(|| {
            trace::span("graph.build", || {
                web_graph_compact_with(&config, CompactBuilder::new().with_temp_dir(work))
            })
        });
        let built = checks.ok(built, "streaming build")?;
        checks.ok(
            trace::span("graph.write", || built.write_to(&path)),
            "write compact snapshot",
        )?;
        drop(built);
        let (open_s, opened) = timed(|| {
            trace::span("graph.open_validate", || {
                CompactCsr::open_mmap(&path).and_then(|g| g.validate().map(|()| g))
            })
        });
        let mapped = checks.ok(opened, "open_mmap + validate")?;
        setup.total_s.push(started.elapsed().as_secs_f64());
        setup.build_s.push(build_s);
        setup.open_s.push(open_s);
        let words = mapped.as_bytes().chunks(8).map(|chunk| {
            chunk
                .iter()
                .rev()
                .fold(0u64, |word, &b| (word << 8) | u64::from(b))
        });
        hashes.push(fnv(words));
        graph = Some(mapped);
    }
    checks.check(hashes.windows(2).all(|w| w[0] == w[1]), || {
        "repeated streaming builds produced different snapshots".into()
    });
    graph
}

/// One CNRW fleet followed by one GNRW fleet.
type Rep = (FleetRun, FleetRun);

fn rep(topology: &Topology, opts: &Options, traced: bool) -> Rep {
    let s = opts.sizes;
    (
        fleet_run(
            topology,
            Alg::Cnrw,
            s.cnrw_walkers,
            s.fleet_steps,
            opts.seed,
            traced,
        ),
        fleet_run(
            topology,
            Alg::Gnrw,
            s.gnrw_walkers,
            s.fleet_steps,
            opts.seed,
            traced,
        ),
    )
}

/// Steps and wall seconds of both fleets of a repetition.
fn both(r: &Rep) -> (u64, f64) {
    (r.0.counts.steps + r.1.counts.steps, r.0.wall_s + r.1.wall_s)
}

/// Completion, the in-flight bound, and exact repetition of every count
/// against the first repetition's.
fn check_reps(checks: &mut Checks, reps: &[Rep], reference: &Rep, what: &str) {
    for (i, r) in reps.iter().enumerate() {
        for (run, want, alg) in [(&r.0, &reference.0, "CNRW"), (&r.1, &reference.1, "GNRW")] {
            checks.operations(1);
            checks.check(run.counts.complete, || {
                format!("{what} {alg} fleet {i}: a walker settled short of its step count")
            });
            checks.check(run.counts.reactor.peak_in_flight <= IN_FLIGHT, || {
                format!(
                    "{what} {alg} fleet {i}: {} batches in flight, window {IN_FLIGHT}",
                    run.counts.reactor.peak_in_flight
                )
            });
            checks.check(run.counts == want.counts, || {
                format!("{what} {alg} fleet {i}: trace fingerprint or counts differ from the first plain fleet")
            });
        }
    }
}

/// Run the workload; returns what the traced repetitions recorded.
pub fn run(
    opts: &Options,
    work: &Path,
    checks: &mut Checks,
    metrics: &mut Metrics,
) -> Option<TracedPasses> {
    let mut passes = TracedPasses::default();
    if opts.trace {
        trace::start();
    }
    let mut setup = Setup::default();
    let graph = set_up(opts, work, checks, &mut setup);
    passes.trace.absorb(trace::finish());
    let graph = Arc::new(graph?);
    let topology = Topology::Compact(Arc::clone(&graph));
    metrics.set("setup_s", median(&mut setup.total_s));

    // One untimed repetition faults the mapped file in and lets the core
    // reach its sustained clock before anything is measured.
    rep(&topology, opts, false);
    let mut plain: Vec<Rep> = Vec::new();
    if !opts.trace {
        crate::repeat_for(opts.seconds, || plain.push(rep(&topology, opts, false)));
        let reference = plain[0].clone();
        check_reps(checks, &plain, &reference, "plain");
        metrics.set(
            "steps_per_s",
            throughput("fleet_compact", plain.iter().map(both)),
        );
        let (c, g) = (&reference.0.counts, &reference.1.counts);
        let unique = (c.interface.unique + g.interface.unique) as f64;
        metrics.set(
            "queries_per_kstep",
            1000.0 * ratio(unique, (c.steps + g.steps) as f64),
        );
        metrics.set("virtual_s", c.virtual_s + g.virtual_s);
        return None;
    }

    // Traced run: alternate a plain repetition, a traced one and the
    // decode differential (the CNRW fleet over the decompressed graph).
    let plain_graph = checks.ok(graph.to_csr(), "decompress to plain CSR")?;
    let csr = Topology::Plain(Arc::new(AttributedGraph::bare(plain_graph)));
    let mut traced: Vec<Rep> = Vec::new();
    let mut differential: Vec<FleetRun> = Vec::new();
    crate::repeat_for(opts.seconds, || {
        plain.push(rep(&topology, opts, false));
        traced.push(passes.run(|| rep(&topology, opts, true)));
        let s = opts.sizes;
        differential.push(fleet_run(
            &csr,
            Alg::Cnrw,
            s.cnrw_walkers,
            s.fleet_steps,
            opts.seed,
            false,
        ));
    });
    let reference = plain[0].clone();
    check_reps(checks, &plain, &reference, "plain");
    check_reps(checks, &traced, &reference, "traced");
    for (i, d) in differential.iter().enumerate() {
        checks.operations(1);
        checks.check(
            d.counts.fingerprint == reference.0.counts.fingerprint,
            || format!("decode differential {i}: CNRW over plain CSR diverged from compact"),
        );
    }

    let plain_rate = throughput("plain", plain.iter().map(both));
    let cnrw = throughput(
        "plain CNRW",
        plain.iter().map(|r| (r.0.counts.steps, r.0.wall_s)),
    );
    let gnrw = throughput(
        "plain GNRW",
        plain.iter().map(|r| (r.1.counts.steps, r.1.wall_s)),
    );
    metrics.set("steps_per_s.cnrw", cnrw);
    metrics.set("steps_per_s.gnrw", gnrw);

    // osn-graph
    let build_s = median(&mut setup.build_s);
    metrics.set("graph.build_s", build_s);
    metrics.set(
        "graph.build_mb_s",
        ratio(graph.byte_len() as f64 / 1e6, build_s),
    );
    metrics.set("graph.open_validate_s", median(&mut setup.open_s));
    metrics.set(
        "graph.compact_mib",
        graph.byte_len() as f64 / (1024.0 * 1024.0),
    );
    metrics.set("graph.compression_ratio", graph.compression_ratio());
    // Both topologies walk identical traces, so the wall-time gap is decode.
    let csr_rate = throughput(
        "CNRW over plain CSR",
        differential.iter().map(|d| (d.counts.steps, d.wall_s)),
    );
    metrics.set("graph.decode_share", 1.0 - ratio(cnrw, csr_rate));
    let (c, g) = (&reference.0, &reference.1);
    let (hits, misses) = (c.decode.0 + g.decode.0, c.decode.1 + g.decode.1);
    metrics.set(
        "graph.decode_cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );

    let traced_ns: f64 = traced.iter().map(|r| r.0.wall_s + r.1.wall_s).sum::<f64>() * 1e9;
    let seams = crate::reactor::set_metrics(
        metrics,
        &[c.counts, g.counts],
        &passes.trace,
        traced_ns,
        "reactor.run",
    );
    let traced_steps = traced.iter().map(|r| both(r).0).sum();
    let traced_rate = throughput("traced", traced.iter().map(both));
    crate::set_trace_metrics(
        metrics,
        &passes,
        traced_steps,
        plain_rate,
        traced_rate,
        seams / traced_ns,
    );
    Some(passes)
}
