//! `overlay_soak` — CI smoke for the evolving-graph delta overlay under a
//! reactor fleet at scale.
//!
//! ```text
//! overlay_soak [--walkers K] [--steps N] [--epochs E] [--mutations M]
//!              [--seed S] [--max-secs SECS]
//! ```
//!
//! Drives `--walkers` (default 10_000) CNRW walkers as reactor state
//! machines over a 20k-node Google Plus stand-in through one batch
//! endpoint (latency, jitter, per-id latency, whole-request failures,
//! per-id drops) while a seeded mutation schedule fires **between event
//! slices**: each epoch applies its due edge mutations to the endpoint's
//! delta overlay and drops the touched nodes' circulation state across
//! the whole fleet. Asserts:
//!
//! 1. **completion** — every walker settles with its full step count
//!    despite the graph changing under it;
//! 2. **memory bounds** — the reactor's peak in-flight batches never
//!    exceed the endpoint window (O(active batches), not O(fleet)), and
//!    the overlay's footprint stays proportional to the mutation count,
//!    never to the graph;
//! 3. **replay determinism** — the identical mutating run from the same
//!    seed reproduces traces and interface accounting bit-for-bit.
//!
//! Any violated assert exits non-zero. The `--max-secs` wall-clock guard
//! is polled between phases: a slow runner skips remaining phases with a
//! notice and exits 0 (inconclusive, never red).

use osn_client::{BatchConfig, SimulatedBatchOsn, SimulatedOsn};
use osn_datasets::{gplus_like, Scale};
use osn_experiments::Deadline;
use osn_graph::{DeltaOverlay, EdgeMutation, MutationOp, MutationSchedule, NodeId, ScheduleSpec};
use osn_walks::{Cnrw, HistoryBackend, RandomWalk, WalkOrchestrator};

struct Options {
    walkers: usize,
    steps: usize,
    epochs: usize,
    mutations: usize,
    seed: u64,
    max_secs: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            walkers: 10_000,
            steps: 64,
            epochs: 8,
            mutations: 1_600,
            seed: 0x0E7A_50AC,
            max_secs: 300,
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
            "--walkers" => opts.walkers = value(&mut args, "--walkers").parse().expect("--walkers"),
            "--steps" => opts.steps = value(&mut args, "--steps").parse().expect("--steps"),
            "--epochs" => opts.epochs = value(&mut args, "--epochs").parse().expect("--epochs"),
            "--mutations" => {
                opts.mutations = value(&mut args, "--mutations")
                    .parse()
                    .expect("--mutations")
            }
            "--seed" => opts.seed = value(&mut args, "--seed").parse().expect("--seed"),
            "--max-secs" => {
                opts.max_secs = value(&mut args, "--max-secs").parse().expect("--max-secs")
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: overlay_soak [--walkers K] [--steps N] [--epochs E] \
                     [--mutations M] [--seed S] [--max-secs SECS]"
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

const IN_FLIGHT: usize = 4;

fn endpoint(
    network: &std::sync::Arc<osn_graph::attributes::AttributedGraph>,
    opts: &Options,
) -> SimulatedBatchOsn {
    let batch = BatchConfig::new(256)
        .with_in_flight(IN_FLIGHT)
        .with_latency(0.005, 0.002)
        .with_per_id_latency(0.0001)
        .with_failure_every(23)
        .with_drop_node_every(37)
        .with_seed(opts.seed ^ 0x5EED);
    SimulatedBatchOsn::new(SimulatedOsn::new_shared(network.clone()), batch)
}

fn make_walker(n: usize) -> impl Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send> {
    move |i, _| Box::new(Cnrw::new(NodeId(((i * 13) % n) as u32))) as Box<dyn RandomWalk + Send>
}

/// The schedule's events, pre-filtered so no delete strands a walker on a
/// degree-zero node (the walkers assert full completion).
fn safe_events(g: &osn_graph::CsrGraph, opts: &Options) -> Vec<EdgeMutation> {
    let spec = ScheduleSpec::new(opts.mutations, opts.epochs as f64, opts.seed ^ 0x0E7)
        .with_delete_fraction(0.4);
    let schedule = MutationSchedule::generate(g, &spec);
    let mut overlay = DeltaOverlay::new();
    let mut events = Vec::new();
    for &m in schedule.events() {
        if m.op == MutationOp::Delete
            && (overlay.degree(g, m.u) <= 1 || overlay.degree(g, m.v) <= 1)
        {
            continue;
        }
        if overlay.apply(g, m) {
            events.push(m);
        }
    }
    events
}

struct SoakRun {
    traces: Vec<Vec<NodeId>>,
    issued: u64,
    unique: u64,
    peak_in_flight: usize,
    peak_parked: usize,
    events: usize,
    overlay_log: usize,
    overlay_patched: usize,
    overlay_heap: usize,
    dropped: usize,
}

/// One full mutating run: `epochs` slices of reactor events, the due
/// mutations applied and invalidated at every boundary, then run to
/// completion.
fn mutating_run(
    network: &std::sync::Arc<osn_graph::attributes::AttributedGraph>,
    events: &[EdgeMutation],
    opts: &Options,
) -> SoakRun {
    let n = network.graph.node_count();
    let orch = WalkOrchestrator::new(opts.walkers, opts.steps, opts.seed);
    let mut client = endpoint(network, opts);
    let mut schedule = MutationSchedule::from_events(events.to_vec());
    let mut run = orch.start_reactor(make_walker(n));
    let value = |v: NodeId| v.index() as f64;
    // Roughly `epochs + 1` equal slices of the expected event count, so
    // every epoch's mutations land while the fleet is genuinely mid-walk.
    let slice_events = (opts.walkers * opts.steps / 256 / (opts.epochs + 1)).max(1);
    let mut dropped = 0;
    for epoch in 1..=opts.epochs {
        run.run_events(&mut client, &value, slice_events);
        let due = schedule.due(epoch as f64).to_vec();
        let touched = client.apply_mutations(&due);
        dropped += run.invalidate_nodes(&touched);
    }
    run.run_events(&mut client, &value, usize::MAX);
    let stats = run.reactor_stats();
    let inner = client.inner();
    let (overlay_log, overlay_patched, overlay_heap) = (
        inner.mutation_log().len(),
        inner.overlay().patched_nodes(),
        inner.overlay().heap_bytes(),
    );
    let report = run.into_report(&client);
    let interface = report.interface.expect("reactor reports interface stats");
    SoakRun {
        traces: report.trace.per_walker,
        issued: interface.issued,
        unique: interface.unique,
        peak_in_flight: stats.peak_in_flight,
        peak_parked: stats.peak_parked,
        events: stats.events,
        overlay_log,
        overlay_patched,
        overlay_heap,
        dropped,
    }
}

fn fail(message: String) -> ! {
    eprintln!("overlay_soak FAIL: {message}");
    std::process::exit(1);
}

fn guard(deadline: &Deadline, phase: &str) {
    if deadline.exceeded() {
        eprintln!(
            "overlay_soak: wall-clock guard fired after {:.1?} before `{phase}` — \
             skipping remaining phases (inconclusive, not a failure)",
            deadline.elapsed()
        );
        std::process::exit(0);
    }
}

fn main() {
    let opts = parse_args();
    let deadline = Deadline::after_secs(opts.max_secs);
    let network = std::sync::Arc::new(gplus_like(Scale::Default, opts.seed).network);
    let n = network.graph.node_count();
    let events = safe_events(&network.graph, &opts);
    eprintln!(
        "overlay_soak: {} walkers x {} steps over {n} nodes, {} mutations in {} epochs, seed {:#x}",
        opts.walkers,
        opts.steps,
        events.len(),
        opts.epochs,
        opts.seed
    );

    // Phase 1: the mutating reference run — completion + memory bounds.
    let reference = mutating_run(&network, &events, &opts);
    if reference.traces.len() != opts.walkers {
        fail(format!(
            "{} walkers reported, {} launched",
            reference.traces.len(),
            opts.walkers
        ));
    }
    for (i, trace) in reference.traces.iter().enumerate() {
        if trace.len() != opts.steps {
            fail(format!(
                "walker {i} settled with {} of {} steps under mutation",
                trace.len(),
                opts.steps
            ));
        }
    }
    if reference.dropped == 0 {
        fail(
            "no circulation state was ever invalidated — the schedule never hit warm walkers"
                .into(),
        );
    }
    if reference.peak_in_flight > IN_FLIGHT {
        fail(format!(
            "peak in-flight batches {} exceeds the {IN_FLIGHT}-batch window — \
             the O(active batches) memory bound is broken",
            reference.peak_in_flight
        ));
    }
    if reference.overlay_log != events.len() {
        fail(format!(
            "overlay log holds {} of {} applied mutations",
            reference.overlay_log,
            events.len()
        ));
    }
    if reference.overlay_patched > 2 * events.len() {
        fail(format!(
            "{} patched nodes from {} mutations — the overlay is patching \
             untouched nodes",
            reference.overlay_patched,
            events.len()
        ));
    }
    // Patch lists hold whole neighbor copies of touched nodes only: the
    // footprint must scale with mutations x degree, never with the graph.
    // 64 KiB per mutation is orders of magnitude above any honest layout.
    if reference.overlay_heap > events.len() * 65_536 {
        fail(format!(
            "overlay heap {} bytes for {} mutations — footprint is not O(touched)",
            reference.overlay_heap,
            events.len()
        ));
    }
    eprintln!(
        "overlay_soak: completion OK — {} events, {} issued / {} unique queries, \
         {} histories dropped across {} patched nodes ({} overlay bytes), \
         peaks: {} in-flight batches (window {IN_FLIGHT}), {} parked walkers",
        reference.events,
        reference.issued,
        reference.unique,
        reference.dropped,
        reference.overlay_patched,
        reference.overlay_heap,
        reference.peak_in_flight,
        reference.peak_parked,
    );

    // Phase 2: replay determinism of the whole mutating run.
    guard(&deadline, "replay");
    let replay = mutating_run(&network, &events, &opts);
    if replay.traces != reference.traces {
        fail("an identical mutating run produced different traces".into());
    }
    if (replay.issued, replay.unique) != (reference.issued, reference.unique)
        || replay.dropped != reference.dropped
    {
        fail("an identical mutating run reached different accounting".into());
    }
    eprintln!("overlay_soak: replay determinism OK");
    eprintln!(
        "overlay_soak: all checks passed in {:.1?}",
        deadline.elapsed()
    );
}
