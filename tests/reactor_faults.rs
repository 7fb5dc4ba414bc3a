//! Fault-injection tests for the reactor backend, mirroring
//! `tests/batch_faults.rs` through the poll-driven event loop:
//!
//! * per-id drops and whole-request failures are **invisible to the
//!   trajectories** — the retry/requeue machinery never changes a step,
//!   never double-charges, never loses a walker;
//! * heterogeneous per-batch latency reorders *events*, never *traces*
//!   (schedule independence under [`Never`] with no budget);
//! * budget refusals under [`WorkStealing`] rescue walkers into cached
//!   territory via the [`SharedFrontier`] instead of terminating them;
//! * an endpoint that fails **every** attempt terminates the whole fleet
//!   with bounded attempts and nothing charged — no hang, no spin.

use std::sync::Arc;

use osn_sampling::graph::attributes::AttributedGraph;
use osn_sampling::prelude::*;
use osn_sampling::walks::{RestartReason, WalkStop};

fn clustered_network() -> Arc<AttributedGraph> {
    Arc::new(osn_sampling::datasets::clustered_graph().network)
}

fn make_cnrw(n: usize) -> impl Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send> {
    move |i, _| Box::new(Cnrw::new(NodeId(((i * 17) % n) as u32))) as Box<dyn RandomWalk + Send>
}

#[test]
fn reactor_drops_and_failures_are_invisible_to_trajectories() {
    let network = clustered_network();
    let n = network.graph.node_count();
    let orch = WalkOrchestrator::new(6, 400, 9);
    let run = |config: BatchConfig| {
        let mut client = SimulatedBatchOsn::new(SimulatedOsn::new_shared(network.clone()), config);
        let report = orch.run_reactor(&mut client, make_cnrw(n), |v| v.index() as f64, &Never);
        (report, client.batch_stats(), client.stats())
    };

    let reliable = BatchConfig::new(4).with_in_flight(3);
    let flaky = reliable
        .clone()
        .with_failure_every(3)
        .with_drop_node_every(5)
        .with_max_retries(2)
        .with_seed(7);
    let (clean, _, clean_iface) = run(reliable);
    let (faulty, faulty_stats, faulty_iface) = run(flaky);

    // Both fault models actually fired.
    assert!(faulty_stats.retries > 0, "whole-request failures never hit");
    assert!(faulty_stats.node_drops > 0, "per-id drops never hit");

    // No walker lost a step, no trajectory changed, no extra charge.
    assert_eq!(faulty.trace.per_walker, clean.trace.per_walker);
    assert_eq!(faulty.stops, clean.stops);
    assert_eq!(faulty_iface.unique, clean_iface.unique);
    assert_eq!(faulty.abandoned_nodes, 0);
    for (i, trace) in faulty.trace.per_walker.iter().enumerate() {
        assert_eq!(trace.len(), 400, "walker {i} lost steps to faults");
    }
}

#[test]
fn heterogeneous_latency_reorders_events_not_traces() {
    // Three endpoints with wildly different timing models: batch latency,
    // per-id latency, heavy jitter. Completion order — and therefore the
    // reactor's event schedule — differs, but every trajectory is the
    // same, because under `Never` with no budget the walk depends only on
    // the walk randomness.
    let network = clustered_network();
    let n = network.graph.node_count();
    let orch = WalkOrchestrator::new(5, 300, 21);
    let run = |config: BatchConfig| {
        let mut client = SimulatedBatchOsn::new(SimulatedOsn::new_shared(network.clone()), config);
        let (report, stats) =
            orch.run_reactor_with_stats(&mut client, make_cnrw(n), |v| v.index() as f64, &Never);
        (report, stats, client.clock().elapsed_secs())
    };

    let (flat, _, _) = run(BatchConfig::new(3).with_in_flight(2));
    let (slow, slow_stats, slow_elapsed) = run(BatchConfig::new(3)
        .with_in_flight(2)
        .with_latency(0.5, 0.4)
        .with_per_id_latency(0.05)
        .with_seed(3));
    let (jittery, _, _) = run(BatchConfig::new(3)
        .with_in_flight(2)
        .with_latency(0.01, 0.25)
        .with_seed(8));

    assert!(slow_elapsed > 0.0, "latency model must advance the clock");
    assert!(slow_stats.peak_in_flight > 1, "window should pipeline");
    assert_eq!(flat.trace.per_walker, slow.trace.per_walker);
    assert_eq!(flat.trace.per_walker, jittery.trace.per_walker);
    assert_eq!(flat.stops, slow.stops);
    assert_eq!(flat.stops, jittery.stops);
}

#[test]
fn budget_refusals_rescue_via_the_shared_frontier() {
    // A tight shared budget refuses walkers mid-walk; under WorkStealing
    // the reactor must rescue them into territory the fleet already paid
    // for instead of stopping them at the first refusal.
    let network = clustered_network();
    let n = network.graph.node_count();
    let orch = WalkOrchestrator::new(6, 2000, 5);
    let policy = WorkStealing::new(1.05, 16, SharedFrontier::with_stripes(8, 16));
    let mut client = SimulatedBatchOsn::configured(
        SimulatedOsn::new_shared(network.clone()),
        BatchConfig::new(8).with_in_flight(3),
        Some(45),
    );
    let report = orch.run_reactor(&mut client, make_cnrw(n), |v| v.index() as f64, &policy);

    assert_eq!(client.remaining_budget(), Some(0), "budget must bind");
    let rescues = report
        .restarts
        .iter()
        .filter(|r| r.reason == RestartReason::Refused)
        .count();
    assert!(rescues > 0, "no refused walker was rescued");
    // Rescued walkers kept walking: some trace extends past its rescue step.
    assert!(
        report
            .restarts
            .iter()
            .filter(|r| r.reason == RestartReason::Refused)
            .any(|r| report.trace.per_walker[r.walker].len() > r.step),
        "rescue never bought another step"
    );
    // The run still terminates with every walker settled.
    assert_eq!(report.stops.len(), 6);
    assert!(report.refused_nodes > 0);
    // Rescues only relocate into already-cached nodes: nothing about the
    // rescue machinery can leak past the exhausted budget.
    assert_eq!(client.stats().unique, 45);
}

#[test]
fn always_failing_endpoint_terminates_with_bounded_attempts() {
    // failure_every = 1 with zero retries: every request permanently
    // drops. The reactor must abandon each node at its resubmission cap
    // and settle every walker — not hang, not spin, not charge.
    let network = clustered_network();
    let orch = WalkOrchestrator::new(3, 100, 2);
    let mut client = SimulatedBatchOsn::new(
        SimulatedOsn::new_shared(network.clone()),
        BatchConfig::new(4)
            .with_failure_every(1)
            .with_max_retries(0),
    );
    let mut run = orch
        .start_reactor(|i, _| Box::new(Cnrw::new(NodeId(i as u32))) as Box<dyn RandomWalk + Send>)
        .with_node_attempt_cap(4);
    let value = |v: NodeId| v.index() as f64;
    while !run.done() {
        run.run_events(&mut client, &value, usize::MAX);
    }
    let report = run.into_report(&client);

    assert_eq!(report.abandoned_nodes, 3, "every start node abandoned");
    assert!(report.trace.per_walker.iter().all(Vec::is_empty));
    assert!(report.stops.iter().all(|s| *s == WalkStop::BudgetExhausted));
    assert_eq!(client.stats().unique, 0, "nothing was ever charged");
    // Bounded work: the 3 start nodes coalesce into one batch (B = 4)
    // resubmitted up to the 4-resubmission cap, one attempt each.
    assert_eq!(client.batch_stats().attempts, 4);
    assert_eq!(client.batch_stats().dropped, 4);
}
