//! Golden-trace regression test for mid-walk graph mutation through the
//! delta overlay.
//!
//! A committed fixture (`tests/fixtures/cnrw_overlay_clustered.txt`) pins
//! the exact node sequences of three CNRW walkers driven by the
//! poll-driven reactor over the clustered graph while a **seeded
//! mutation schedule fires between event slices**: at each boundary the
//! due mutations are applied to the endpoint's overlay, the touched
//! nodes' circulation state is dropped via
//! [`osn_sampling::walks::ReactorWalkRun::invalidate_nodes`], and the
//! dispatcher re-fetches (and re-charges) the mutated neighbor lists.
//! Any refactor of the overlay read path, the invalidation plumbing, the
//! schedule generator, or the reactor's cache eviction that leaks into
//! trajectories or accounting will fail this test instead of silently
//! drifting.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! UPDATE_FIXTURES=1 cargo test --test overlay_golden_trace
//! ```
//!
//! and commit the diff with an explanation of why the trace moved.

use std::fmt::Write as _;
use std::sync::Arc;

use osn_sampling::prelude::*;

const WALKERS: usize = 3;
const STEPS: usize = 60;
const SEED: u64 = 0x0E7A;
const SLICES: usize = 4;
const EVENTS_PER_SLICE: usize = 18;
const MUTATIONS: usize = 40;
const FIXTURE: &str = "tests/fixtures/cnrw_overlay_clustered.txt";

fn render_golden() -> String {
    let network = Arc::new(osn_sampling::datasets::clustered_graph().network);
    let n = network.graph.node_count();
    let spec = ScheduleSpec::new(MUTATIONS, SLICES as f64, 0x5EED).with_delete_fraction(0.4);
    let mut schedule = MutationSchedule::generate(&network.graph, &spec);
    let config = BatchConfig::new(2)
        .with_in_flight(3)
        .with_latency(0.02, 0.005)
        .with_per_id_latency(0.002)
        .with_seed(13);
    let mut client = SimulatedBatchOsn::new(SimulatedOsn::new_shared(network.clone()), config);
    let orch = WalkOrchestrator::new(WALKERS, STEPS, SEED);
    let mut run = orch.start_reactor(|i, _| {
        Box::new(Cnrw::new(NodeId(((i * 17) % n) as u32))) as Box<dyn RandomWalk + Send>
    });
    let value = |v: NodeId| v.index() as f64;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# CNRW over the clustered graph through the reactor while the graph mutates."
    );
    let _ = writeln!(
        out,
        "# {WALKERS} walkers x {STEPS} steps, batch size 2, in-flight window 3,"
    );
    let _ = writeln!(
        out,
        "# {MUTATIONS}-event seeded schedule (40% deletes) drained over {SLICES} slice boundaries"
    );
    let _ = writeln!(
        out,
        "# of {EVENTS_PER_SLICE} reactor events each, run seed {SEED:#x}."
    );
    let _ = writeln!(
        out,
        "# Regenerate: UPDATE_FIXTURES=1 cargo test --test overlay_golden_trace"
    );
    for slice in 0..SLICES {
        run.run_events(&mut client, &value, EVENTS_PER_SLICE);
        let due = schedule.due((slice + 1) as f64).to_vec();
        let touched = client.apply_mutations(&due);
        let dropped = run.invalidate_nodes(&touched);
        let _ = writeln!(
            out,
            "boundary{}: due {} touched {} dropped {}",
            slice,
            due.len(),
            touched.len(),
            dropped
        );
    }
    run.run_events(&mut client, &value, usize::MAX);
    let _ = writeln!(
        out,
        "overlay: log {} patched_nodes {}",
        client.inner().mutation_log().len(),
        client.inner().overlay().patched_nodes()
    );
    let report = run.into_report(&client);
    for (i, trace) in report.trace.per_walker.iter().enumerate() {
        let nodes: Vec<String> = trace.iter().map(|v| v.0.to_string()).collect();
        let _ = writeln!(out, "walker{i}: {}", nodes.join(" "));
    }
    let _ = writeln!(
        out,
        "charged_unique: {}",
        report
            .interface
            .expect("reactor reports interface stats")
            .unique
    );
    let batch = client.batch_stats();
    let _ = writeln!(out, "requests: {}", batch.submitted);
    let _ = writeln!(out, "attempts: {}", batch.attempts);
    out
}

#[test]
fn overlay_cnrw_reproduces_committed_golden_trace() {
    let fixture_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    let rendered = render_golden();
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        std::fs::write(&fixture_path, &rendered).expect("write fixture");
    }
    let committed = std::fs::read_to_string(&fixture_path)
        .expect("fixture missing — run with UPDATE_FIXTURES=1 to create it");
    assert_eq!(
        rendered, committed,
        "overlay CNRW trace diverged from the committed fixture; if the change \
         is intentional, regenerate with UPDATE_FIXTURES=1 and explain the move"
    );
}

/// The mutating run is a pure function of its seeds: rendering twice
/// gives identical bytes (the fixture is regenerable on any machine).
#[test]
fn overlay_golden_render_is_deterministic() {
    assert_eq!(render_golden(), render_golden());
}
