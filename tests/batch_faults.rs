//! Fault-injection tests for the batch endpoint + the reactor.
//!
//! The failure model is deterministic and seeded (every `k`-th request
//! attempt drops), so each scenario here replays exactly. The invariants:
//!
//! * transient failures are **invisible to the walk** — retries never
//!   double-charge the budget, never duplicate a fetch, never change a
//!   trajectory, and never lose a walker;
//! * retries go through the **same rate limiter** as first attempts — each
//!   consumes a token, and the virtual clock shows the wait;
//! * a shared budget is never oversold, drops or not;
//! * even an interface that fails **every** attempt terminates the run
//!   cleanly (bounded abandon, no hang, nothing charged).

use std::collections::HashSet;
use std::sync::Arc;

use osn_sampling::client::batch::BatchStats;
use osn_sampling::client::QueryStats;
use osn_sampling::graph::attributes::AttributedGraph;
use osn_sampling::prelude::*;
use osn_sampling::walks::OrchestratorReport;

fn clustered_network() -> Arc<AttributedGraph> {
    Arc::new(osn_sampling::datasets::clustered_graph().network)
}

/// The nodes the reactor actually fetched: each walker's start plus every
/// node it *departed from*. A walker's final position is never fetched —
/// it would only be needed for the step that never happened.
fn fetched_set(report: &OrchestratorReport, starts: impl Iterator<Item = u32>) -> HashSet<u32> {
    let mut set: HashSet<u32> = starts.collect();
    for trace in &report.trace.per_walker {
        set.extend(trace[..trace.len().saturating_sub(1)].iter().map(|v| v.0));
    }
    set
}

fn run_dispatch(
    network: &Arc<AttributedGraph>,
    config: BatchConfig,
    budget: Option<u64>,
    walkers: usize,
    steps: usize,
    seed: u64,
) -> (OrchestratorReport, QueryStats, BatchStats, Option<u64>, f64) {
    let n = network.graph.node_count();
    let mut client =
        SimulatedBatchOsn::configured(SimulatedOsn::new_shared(network.clone()), config, budget);
    let report = WalkOrchestrator::new(walkers, steps, seed).run_reactor(
        &mut client,
        |i, _| Box::new(Cnrw::new(NodeId(((i * 17) % n) as u32))) as Box<dyn RandomWalk + Send>,
        |v| v.index() as f64,
        &Never,
    );
    let interface = report
        .interface
        .expect("the reactor reports interface stats");
    let remaining = client.remaining_budget();
    let elapsed = client.clock().elapsed_secs();
    (report, interface, client.batch_stats(), remaining, elapsed)
}

#[test]
fn injected_drops_are_invisible_to_the_walk_and_charge_nothing_extra() {
    let network = clustered_network();
    const WALKERS: usize = 6;
    const STEPS: usize = 400;

    let reliable = BatchConfig::new(4).with_in_flight(3);
    let flaky = reliable.clone().with_failure_every(3).with_max_retries(2);
    let (clean, clean_charged, clean_stats, _, _) =
        run_dispatch(&network, reliable, None, WALKERS, STEPS, 9);
    let (faulty, faulty_charged, faulty_stats, _, _) =
        run_dispatch(&network, flaky, None, WALKERS, STEPS, 9);

    // The failure model was actually exercised (clustered_graph has 90
    // nodes, all covered in ~40 requests; every third attempt dropped).
    assert!(
        faulty_stats.retries > 10,
        "retries: {}",
        faulty_stats.retries
    );

    // No walker lost: every walker completed its full step count.
    assert_eq!(faulty.trace.per_walker.len(), WALKERS);
    for (i, trace) in faulty.trace.per_walker.iter().enumerate() {
        assert_eq!(trace.len(), STEPS, "walker {i} lost steps to drops");
    }

    // Drops and retries changed *nothing* observable: identical
    // trajectories, identical charged cost, zero double-charges.
    assert_eq!(faulty.trace.per_walker, clean.trace.per_walker);
    assert_eq!(faulty_charged.unique, clean_charged.unique);
    let fetched = fetched_set(
        &faulty,
        (0..WALKERS).map(|i| ((i * 17) % network.graph.node_count()) as u32),
    );
    assert_eq!(faulty_charged.unique, fetched.len() as u64);
    // Every delivered id was delivered exactly once (the charged requests
    // are conserved; only the attempt count grew).
    assert_eq!(faulty_stats.submitted_ids, faulty_charged.issued);
    assert_eq!(clean_stats.submitted_ids, faulty_stats.submitted_ids);
    assert_eq!(
        faulty_stats.attempts,
        faulty_stats.submitted + faulty_stats.retries
    );
}

#[test]
fn retries_respect_the_rate_limiter() {
    // 5 calls per 10-second window, zero latency: attempt n can only
    // happen at t = floor((n-1)/5) * 10, retries included. If retries
    // bypassed the limiter, the clock would end earlier.
    let network = clustered_network();
    let rate = RateLimitConfig {
        calls_per_window: 5,
        window_secs: 10.0,
    };
    let config = BatchConfig::new(2)
        .with_in_flight(2)
        .with_rate_limit(rate)
        .with_failure_every(4)
        .with_max_retries(3);
    let (report, _, stats, _, elapsed) = run_dispatch(&network, config, None, 3, 60, 4);

    assert!(stats.retries > 0, "failure model must fire");
    assert_eq!(stats.attempts, stats.submitted + stats.retries);
    // The virtual clock advanced exactly as many windows as the *attempt*
    // count (not the request count) requires.
    let expected = ((stats.attempts - 1) / rate.calls_per_window) as f64 * rate.window_secs;
    assert_eq!(elapsed, expected, "attempts={}", stats.attempts);
    // Sanity: retries cost real windows — the same workload without
    // failures finishes sooner on the virtual clock.
    let quiet = BatchConfig::new(2).with_in_flight(2).with_rate_limit(rate);
    let (_, _, quiet_stats, _, quiet_elapsed) = run_dispatch(&network, quiet, None, 3, 60, 4);
    assert!(quiet_stats.attempts < stats.attempts);
    assert!(quiet_elapsed < elapsed);
    assert_eq!(report.trace.total_steps(), 3 * 60);
}

#[test]
fn shared_budget_is_never_oversold_under_failures() {
    // Eight walkers racing for one budget through the batched path, with
    // drops flying.
    let network = clustered_network();
    const BUDGET: u64 = 40;
    let config = BatchConfig::new(4)
        .with_in_flight(4)
        .with_failure_every(3)
        .with_max_retries(2);
    let (report, charged, _, remaining, _) =
        run_dispatch(&network, config, Some(BUDGET), 8, 10_000, 0xBEEF);

    assert_eq!(charged.unique, BUDGET, "exactly the budget, never more");
    assert_eq!(remaining, Some(0));
    // Each charged node is a distinct fetched one (no double-charging hid
    // inside the retry machinery).
    let fetched = fetched_set(
        &report,
        (0..8).map(|i| ((i * 17) % network.graph.node_count()) as u32),
    );
    assert_eq!(fetched.len() as u64, BUDGET);
    // Every walker terminated with a budget stop; none is lost in limbo.
    assert_eq!(report.stops.len(), 8);
    assert!(report
        .stops
        .iter()
        .all(|s| *s == osn_sampling::walks::WalkStop::BudgetExhausted));
    assert!(report.refused_nodes > 0);
}

#[test]
fn always_failing_interface_terminates_cleanly_without_charging() {
    // failure_every = 1 with zero retries: every request permanently
    // drops. The reactor must abandon each node after its bounded
    // resubmission cap and terminate every walker — not hang, not charge.
    let network = clustered_network();
    let mut client = SimulatedBatchOsn::new(
        SimulatedOsn::new_shared(network.clone()),
        BatchConfig::new(4)
            .with_failure_every(1)
            .with_max_retries(0),
    );
    let mut run = WalkOrchestrator::new(3, 100, 0)
        .start_reactor(|i, _| Box::new(Cnrw::new(NodeId(i as u32))) as Box<dyn RandomWalk + Send>)
        .with_node_attempt_cap(4);
    while !run.done() {
        run.run_events(&mut client, &|_| 1.0, usize::MAX);
    }
    let report = run.into_report(&client);

    assert_eq!(report.abandoned_nodes, 3, "every start node abandoned");
    assert!(report.trace.per_walker.iter().all(Vec::is_empty));
    assert!(report
        .stops
        .iter()
        .all(|s| *s == osn_sampling::walks::WalkStop::BudgetExhausted));
    assert_eq!(client.stats().unique, 0, "nothing was ever charged");
    // Bounded work: the 3 start nodes coalesce into one batch (B = 4) that
    // is resubmitted up to the 4-resubmission cap, one attempt each
    // (0 retries) — then everything is abandoned.
    assert_eq!(client.batch_stats().attempts, 4);
    assert_eq!(client.batch_stats().dropped, 4);
}
