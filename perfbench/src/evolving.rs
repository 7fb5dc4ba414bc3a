//! `evolving_fleet`: a reactor fleet of CNRW walkers over the plain gplus
//! stand-in while a seeded mutation schedule lands between event slices —
//! applied to the endpoint's delta overlay, then invalidated across the
//! fleet.

use std::sync::Arc;
use std::time::Instant;

use osn_client::batch::{BatchOsnClient, SimulatedBatchOsn};
use osn_client::SimulatedOsn;
use osn_datasets::gplus_like;
use osn_graph::attributes::AttributedGraph;
use osn_graph::{
    CsrGraph, DeltaOverlay, EdgeMutation, MutationOp, MutationSchedule, NodeId, ScheduleSpec,
};
use osn_walks::orchestrator::OrchestratorReport;
use osn_walks::{Cnrw, HistoryBackend, RandomWalk, ReactorStats, WalkOrchestrator};

use crate::decorators::{TracedBatch, TracedWalk};
use crate::reactor::{batch_config, RunCounts, IN_FLIGHT};
use crate::stats::{median, ratio};
use crate::trace::{self, TracedPasses};
use crate::{throughput, timed, Checks, Metrics, Options};

fn endpoint(network: &Arc<AttributedGraph>, seed: u64) -> SimulatedBatchOsn {
    SimulatedBatchOsn::new(
        SimulatedOsn::new_shared(Arc::clone(network)),
        batch_config(seed),
    )
}

/// The schedule's events, keeping only deletes that leave both endpoints
/// with a neighbor (walkers must be able to finish) and events that change
/// the graph.
pub fn safe_events(g: &CsrGraph, opts: &Options) -> Vec<EdgeMutation> {
    let spec = ScheduleSpec::new(
        opts.sizes.mutations,
        opts.sizes.epochs as f64,
        opts.seed ^ 0x0E7,
    )
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

/// What one mutating fleet run reports.
#[derive(Clone, Debug)]
pub struct EvolvingRun {
    /// Wall seconds from endpoint construction to the settled report.
    pub wall_s: f64,
    /// The deterministic outcome of the fleet.
    pub counts: RunCounts,
    /// Mutations in the endpoint's overlay log.
    pub overlay_log: usize,
    /// Nodes the overlay patched.
    pub overlay_patched: usize,
    /// Overlay heap footprint in bytes.
    pub overlay_heap: usize,
    /// Per-edge histories dropped across the fleet.
    pub dropped: u64,
    /// Touched nodes summed over epochs.
    pub touched: u64,
}

impl EvolvingRun {
    /// Everything that must repeat exactly for one seed.
    fn deterministic(&self) -> (RunCounts, usize, usize, u64, u64) {
        (
            self.counts,
            self.overlay_log,
            self.overlay_heap,
            self.dropped,
            self.touched,
        )
    }
}

/// Drive the fleet through every epoch: an event slice, the epoch's due
/// mutations applied through `mutate`, then fleet-wide invalidation; then
/// run to completion. Returns the report, loop stats, histories dropped
/// and nodes touched.
fn drive<B: BatchOsnClient>(
    client: &mut B,
    mutate: impl Fn(&mut B, &[EdgeMutation]) -> Vec<NodeId>,
    n: usize,
    events: &[EdgeMutation],
    opts: &Options,
    traced: bool,
) -> (OrchestratorReport, ReactorStats, u64, u64) {
    let s = opts.sizes;
    let orch = WalkOrchestrator::new(s.evolving_walkers, s.evolving_steps, opts.seed ^ 0x0E7A);
    let make = move |i: usize, backend: HistoryBackend| -> Box<dyn RandomWalk + Send> {
        let walker: Box<dyn RandomWalk + Send> =
            Box::new(Cnrw::with_backend(NodeId(((i * 13) % n) as u32), backend));
        if traced {
            Box::new(TracedWalk::new(walker, "walks.step.cnrw"))
        } else {
            walker
        }
    };
    let value = |v: NodeId| v.index() as f64;
    let mut schedule = MutationSchedule::from_events(events.to_vec());
    let mut run = orch.start_reactor(make);
    // About `epochs + 1` equal slices of the expected event count, so
    // every epoch's mutations land while the fleet is mid-walk.
    let slice_events = (s.evolving_walkers * s.evolving_steps / 256 / (s.epochs + 1)).max(1);
    let (mut dropped, mut touched_total) = (0u64, 0u64);
    for epoch in 1..=s.epochs {
        trace::span("reactor.run_events", || {
            run.run_events(client, &value, slice_events)
        });
        let due = schedule.due(epoch as f64).to_vec();
        let touched = trace::span("client.apply_mutations", || mutate(client, &due));
        touched_total += touched.len() as u64;
        dropped += trace::span("walks.invalidate_nodes", || run.invalidate_nodes(&touched)) as u64;
    }
    trace::span("reactor.run_events", || {
        run.run_events(client, &value, usize::MAX)
    });
    let stats = run.reactor_stats();
    (run.into_report(client), stats, dropped, touched_total)
}

/// One mutating fleet run through a fresh endpoint.
pub fn evolving_run(
    network: &Arc<AttributedGraph>,
    events: &[EdgeMutation],
    opts: &Options,
    traced: bool,
) -> EvolvingRun {
    let n = network.graph.node_count();
    let started = Instant::now();
    let (report, reactor, dropped, touched, endpoint) = if traced {
        let mut client = TracedBatch::new(endpoint(network, opts.seed));
        let mutate = |c: &mut TracedBatch<SimulatedBatchOsn>, ms: &[EdgeMutation]| {
            c.inner_mut().apply_mutations(ms)
        };
        let (report, reactor, dropped, touched) = drive(&mut client, mutate, n, events, opts, true);
        (report, reactor, dropped, touched, client.into_inner())
    } else {
        let mut client = endpoint(network, opts.seed);
        let mutate = |c: &mut SimulatedBatchOsn, ms: &[EdgeMutation]| c.apply_mutations(ms);
        let (report, reactor, dropped, touched) =
            drive(&mut client, mutate, n, events, opts, false);
        (report, reactor, dropped, touched, client)
    };
    let wall_s = started.elapsed().as_secs_f64();
    let s = opts.sizes;
    let inner = endpoint.inner();
    EvolvingRun {
        wall_s,
        counts: RunCounts::settle(
            &report,
            reactor,
            &endpoint,
            s.evolving_walkers,
            s.evolving_steps,
        ),
        overlay_log: inner.mutation_log().len(),
        overlay_patched: inner.overlay().patched_nodes(),
        overlay_heap: inner.overlay().heap_bytes(),
        dropped,
        touched,
    }
}

fn check_runs(
    checks: &mut Checks,
    runs: &[EvolvingRun],
    reference: &EvolvingRun,
    events: usize,
    what: &str,
) {
    for (i, r) in runs.iter().enumerate() {
        checks.operations(1);
        checks.check(r.counts.complete, || {
            format!("{what} fleet {i}: a walker settled short of its step count under mutation")
        });
        checks.check(r.overlay_log == events, || {
            format!(
                "{what} fleet {i}: overlay log holds {} of {events} applied mutations",
                r.overlay_log
            )
        });
        checks.check(r.dropped > 0, || {
            format!("{what} fleet {i}: no history was invalidated; the schedule never hit a warm walker")
        });
        checks.check(r.counts.reactor.peak_in_flight <= IN_FLIGHT, || {
            format!(
                "{what} fleet {i}: {} batches in flight, window {IN_FLIGHT}",
                r.counts.reactor.peak_in_flight
            )
        });
        checks.check(r.deterministic() == reference.deterministic(), || {
            format!(
                "{what} fleet {i}: trace fingerprint or counts differ from the first plain fleet"
            )
        });
    }
}

/// Run the workload; returns what the traced repetitions recorded.
pub fn run(opts: &Options, checks: &mut Checks, metrics: &mut Metrics) -> Option<TracedPasses> {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut inputs = None;
    for _ in 0..opts.sizes.gplus_setups.max(1) {
        let started = Instant::now();
        let (gen_s, dataset) = timed(|| gplus_like(opts.sizes.gplus_scale, opts.seed));
        let events = safe_events(&dataset.network.graph, opts);
        setup_s.push(started.elapsed().as_secs_f64());
        generate_s.push(gen_s);
        inputs = Some((Arc::new(dataset.network), events));
    }
    let (network, events) = inputs.expect("at least one set-up ran");
    metrics.set("setup_s", median(&mut setup_s));

    // One untimed run lets the core reach its sustained clock.
    evolving_run(&network, &events, opts, false);
    let mut plain: Vec<EvolvingRun> = Vec::new();
    let mut traced: Vec<EvolvingRun> = Vec::new();
    let mut passes = TracedPasses::default();
    crate::repeat_for(opts.seconds, || {
        plain.push(evolving_run(&network, &events, opts, false));
        if opts.trace {
            traced.push(passes.run(|| evolving_run(&network, &events, opts, true)));
        }
    });
    let reference = plain[0].clone();
    check_runs(checks, &plain, &reference, events.len(), "plain");
    check_runs(checks, &traced, &reference, events.len(), "traced");
    let plain_rate = throughput(
        "evolving_fleet",
        plain.iter().map(|r| (r.counts.steps, r.wall_s)),
    );
    let r = &reference;
    metrics.set("steps_per_s", plain_rate);
    metrics.set(
        "queries_per_kstep",
        1000.0 * ratio(r.counts.interface.unique as f64, r.counts.steps as f64),
    );
    metrics.set("virtual_s", r.counts.virtual_s);
    if !opts.trace {
        return None;
    }

    let reps = traced.len() as f64;
    let traced_ns: f64 = traced.iter().map(|t| t.wall_s).sum::<f64>() * 1e9;
    metrics.set("steps_per_s.cnrw", plain_rate);
    metrics.set("datasets.generate_s", median(&mut generate_s));

    // osn-graph: the overlay.
    let recorded = &passes.trace;
    let apply_ns = recorded.span_ns("client.apply_mutations") as f64;
    metrics.set(
        "graph.overlay_apply_us",
        ratio(apply_ns / 1e3, events.len() as f64 * reps),
    );
    metrics.set("graph.overlay_patched_nodes", r.overlay_patched as f64);
    metrics.set("graph.overlay_heap_kib", r.overlay_heap as f64 / 1024.0);

    // osn-client, the reactor and walker steps.
    let seams = crate::reactor::set_metrics(
        metrics,
        &[r.counts],
        recorded,
        traced_ns,
        "reactor.run_events",
    );

    // osn-walks: invalidation.
    let invalidate_ns = recorded.span_ns("walks.invalidate_nodes") as f64;
    metrics.set(
        "walks.invalidate_ms",
        ratio(invalidate_ns / 1e6, opts.sizes.epochs as f64 * reps),
    );
    let walker_nodes = r.touched as f64 * opts.sizes.evolving_walkers as f64 * reps;
    metrics.set(
        "walks.invalidate_ns_per_walker_node",
        ratio(invalidate_ns, walker_nodes),
    );
    metrics.set("walks.histories_dropped", r.dropped as f64);

    let traced_steps = traced.iter().map(|t| t.counts.steps).sum();
    let traced_rate = throughput("traced", traced.iter().map(|t| (t.counts.steps, t.wall_s)));
    let attributed = (seams + apply_ns + invalidate_ns) / traced_ns;
    crate::set_trace_metrics(
        metrics,
        &passes,
        traced_steps,
        plain_rate,
        traced_rate,
        attributed,
    );
    Some(passes)
}
