//! Golden-trace regression test for the batched dispatch path.
//!
//! A committed fixture (`tests/fixtures/cnrw_batch_clustered.txt`) pins the
//! exact node sequences of two CNRW walkers driven by the reactor over the
//! clustered graph, fault injection included. Any future reactor refactor
//! that reorders RNG consumption, changes batch composition in a way that
//! leaks into trajectories, or perturbs the charged accounting will fail
//! this test instead of silently drifting.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! UPDATE_FIXTURES=1 cargo test --test batch_golden_trace
//! ```
//!
//! and commit the diff with an explanation of why the trace moved.

use std::fmt::Write as _;
use std::sync::Arc;

use osn_sampling::prelude::*;

const WALKERS: usize = 2;
const STEPS: usize = 48;
const SEED: u64 = 0x601D;
const FIXTURE: &str = "tests/fixtures/cnrw_batch_clustered.txt";

fn render_golden() -> String {
    let network = Arc::new(osn_sampling::datasets::clustered_graph().network);
    let n = network.graph.node_count();
    let config = BatchConfig::new(4)
        .with_in_flight(2)
        .with_failure_every(7)
        .with_max_retries(2);
    let mut client = SimulatedBatchOsn::new(SimulatedOsn::new_shared(network.clone()), config);
    let report = WalkOrchestrator::new(WALKERS, STEPS, SEED).run_reactor(
        &mut client,
        |i, _| Box::new(Cnrw::new(NodeId(((i * 17) % n) as u32))) as Box<dyn RandomWalk + Send>,
        |v| v.index() as f64,
        &Never,
    );
    let charged = report
        .interface
        .expect("the reactor reports interface stats");
    let stats = client.batch_stats();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# CNRW over the clustered graph through the reactor's batch endpoint."
    );
    let _ = writeln!(
        out,
        "# {WALKERS} walkers x {STEPS} steps, batch size 4, in-flight window 2,"
    );
    let _ = writeln!(
        out,
        "# failure every 7th attempt with 2 retries, run seed {SEED:#x}."
    );
    let _ = writeln!(
        out,
        "# Regenerate: UPDATE_FIXTURES=1 cargo test --test batch_golden_trace"
    );
    for (i, trace) in report.trace.per_walker.iter().enumerate() {
        let nodes: Vec<String> = trace.iter().map(|v| v.0.to_string()).collect();
        let _ = writeln!(out, "walker{i}: {}", nodes.join(" "));
    }
    let _ = writeln!(out, "charged_unique: {}", charged.unique);
    let _ = writeln!(out, "requests: {}", stats.submitted);
    let _ = writeln!(out, "attempts: {}", stats.attempts);
    let _ = writeln!(out, "retries: {}", stats.retries);
    out
}

#[test]
fn batched_cnrw_reproduces_committed_golden_trace() {
    let fixture_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    let rendered = render_golden();
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        std::fs::write(&fixture_path, &rendered).expect("write fixture");
    }
    let committed = std::fs::read_to_string(&fixture_path)
        .expect("fixture missing — run with UPDATE_FIXTURES=1 to create it");
    assert_eq!(
        rendered, committed,
        "batched CNRW trace diverged from the committed fixture; if the change \
         is intentional, regenerate with UPDATE_FIXTURES=1 and explain the move"
    );
}
