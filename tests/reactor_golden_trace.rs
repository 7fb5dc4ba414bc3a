//! Golden-trace regression test for the reactor backend.
//!
//! A committed fixture (`tests/fixtures/cnrw_reactor_clustered.txt`) pins
//! the exact node sequences of three CNRW walkers driven by the poll-driven
//! reactor over the clustered graph — narrow batches, a small in-flight
//! window, heterogeneous latency, and fault injection, so events genuinely
//! interleave. Any future reactor refactor that reorders event delivery,
//! RNG consumption, or the queue discipline in a way that leaks into
//! trajectories, event counts, or charged accounting will fail this test
//! instead of silently drifting.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! UPDATE_FIXTURES=1 cargo test --test reactor_golden_trace
//! ```
//!
//! and commit the diff with an explanation of why the trace moved.

use std::fmt::Write as _;
use std::sync::Arc;

use osn_sampling::prelude::*;

const WALKERS: usize = 3;
const STEPS: usize = 40;
const SEED: u64 = 0xEAC7;
const FIXTURE: &str = "tests/fixtures/cnrw_reactor_clustered.txt";

fn render_golden() -> String {
    let network = Arc::new(osn_sampling::datasets::clustered_graph().network);
    let n = network.graph.node_count();
    let config = BatchConfig::new(2)
        .with_in_flight(3)
        .with_latency(0.02, 0.005)
        .with_per_id_latency(0.002)
        .with_failure_every(7)
        .with_drop_node_every(11)
        .with_max_retries(2)
        .with_seed(13);
    let mut client = SimulatedBatchOsn::new(SimulatedOsn::new_shared(network.clone()), config);
    let orch = WalkOrchestrator::new(WALKERS, STEPS, SEED);
    let (report, stats) = orch.run_reactor_with_stats(
        &mut client,
        |i, _| Box::new(Cnrw::new(NodeId(((i * 17) % n) as u32))) as Box<dyn RandomWalk + Send>,
        |v| v.index() as f64,
        &Never,
    );
    let batch = client.batch_stats();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# CNRW over the clustered graph through the poll-driven reactor."
    );
    let _ = writeln!(
        out,
        "# {WALKERS} walkers x {STEPS} steps, batch size 2, in-flight window 3,"
    );
    let _ = writeln!(
        out,
        "# latency 0.02s +/- 0.005s jitter + 0.002s/id, failure every 7th attempt,"
    );
    let _ = writeln!(
        out,
        "# per-id drop every 11th delivery, 2 retries, run seed {SEED:#x}."
    );
    let _ = writeln!(
        out,
        "# Regenerate: UPDATE_FIXTURES=1 cargo test --test reactor_golden_trace"
    );
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
    let _ = writeln!(out, "events: {}", stats.events);
    let _ = writeln!(out, "peak_in_flight: {}", stats.peak_in_flight);
    let _ = writeln!(out, "requests: {}", batch.submitted);
    let _ = writeln!(out, "attempts: {}", batch.attempts);
    let _ = writeln!(out, "retries: {}", batch.retries);
    let _ = writeln!(out, "node_drops: {}", batch.node_drops);
    out
}

#[test]
fn reactor_cnrw_reproduces_committed_golden_trace() {
    let fixture_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    let rendered = render_golden();
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        std::fs::write(&fixture_path, &rendered).expect("write fixture");
    }
    let committed = std::fs::read_to_string(&fixture_path)
        .expect("fixture missing — run with UPDATE_FIXTURES=1 to create it");
    assert_eq!(
        rendered, committed,
        "reactor CNRW trace diverged from the committed fixture; if the change \
         is intentional, regenerate with UPDATE_FIXTURES=1 and explain the move"
    );
}
