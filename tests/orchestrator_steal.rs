//! Integration contract of the unified orchestrator's work-stealing
//! restart policy.
//!
//! Three properties pin the subsystem:
//!
//! * **Provenance** — every node the [`SharedFrontier`] pool ever serves
//!   (remaining entries, steal targets, rescue targets, and the positions
//!   restarts abandoned) is a node some walker actually occupied: a start,
//!   a visited trace node, or a previously stolen target — which by
//!   induction bottoms out in starts and trace nodes. The frontier can
//!   never invent territory the fleet did not pay to discover.
//! * **Seeded determinism** — the serial core's whole run, restart
//!   schedule included, is a pure function of the seed.
//! * **Cross-engine schedule equality** — when one batch holds the fleet,
//!   the reactor consults the policy at the serial core's round
//!   boundaries over the same RNG streams, so the two engines produce
//!   identical traces *and* identical restart schedules. With smaller
//!   batches the schedules may part ways, but budget and provenance hold.

use proptest::prelude::*;

use std::collections::HashSet;
use std::sync::Arc;

use osn_sampling::graph::attributes::AttributedGraph;
use osn_sampling::graph::generators::erdos_renyi;
use osn_sampling::graph::NodeId;
use osn_sampling::prelude::*;
use osn_sampling::walks::{
    OrchestratorReport, RestartPolicy, RestartReason, SharedFrontier, WalkOrchestrator,
    WorkStealing,
};

/// Strategy: a connected random graph with 5..60 nodes (same recipe as the
/// other property suites in this directory).
fn arb_graph() -> impl Strategy<Value = osn_sampling::graph::CsrGraph> {
    (5usize..60, 0u64..1000).prop_map(|(n, seed)| {
        let p = (2.0 * (n as f64).ln() / n as f64).min(0.9);
        erdos_renyi(n, p, seed).expect("valid config")
    })
}

fn clustered_network() -> Arc<AttributedGraph> {
    Arc::new(osn_sampling::datasets::clustered_graph().network)
}

/// Run the clumped-start clustered scenario on the serial core.
fn serial_steal_run(
    network: &Arc<AttributedGraph>,
    k: usize,
    steps: usize,
    budget: Option<u64>,
    seed: u64,
    policy: &dyn RestartPolicy,
) -> OrchestratorReport {
    let n = network.graph.node_count();
    let graph = &network.graph;
    let make =
        |i: usize, _| Box::new(Cnrw::new(NodeId((i % 10) as u32))) as Box<dyn RandomWalk + Send>;
    let orch = WalkOrchestrator::new(k, steps, seed);
    match budget {
        Some(budget) => {
            let mut client =
                BudgetedClient::new(SimulatedOsn::new_shared(network.clone()), budget, n);
            orch.run_serial(&mut client, make, |v| graph.degree(v) as f64, policy)
        }
        None => {
            let mut client = SimulatedOsn::new_shared(network.clone());
            orch.run_serial(&mut client, make, |v| graph.degree(v) as f64, policy)
        }
    }
}

/// Starts ∪ trace nodes — the territory the fleet actually occupied.
fn occupied(report: &OrchestratorReport, k: usize) -> HashSet<u32> {
    let mut seen: HashSet<u32> = (0..k as u32).map(|i| i % 10).collect();
    seen.extend(report.trace.pooled().map(|v| v.0));
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Frontier provenance on arbitrary connected graphs: everything the
    /// pool serves (and retains) was visited by some walker.
    #[test]
    fn frontier_only_serves_visited_nodes(
        g in arb_graph(),
        k in 2usize..5,
        steps in 50usize..200,
        seed in 0u64..500,
    ) {
        let network = Arc::new(AttributedGraph::bare(g));
        let n = network.graph.node_count();
        let frontier = SharedFrontier::with_stripes(4, 8);
        let policy = WorkStealing::new(1.05, 8, frontier.clone());
        let graph = network.graph.clone();
        let mut client = SimulatedOsn::new_shared(network.clone());
        let report = WalkOrchestrator::new(k, steps, seed).run_serial(
            &mut client,
            |i, _| Box::new(Cnrw::new(NodeId((i % n) as u32))) as _,
            |v| graph.degree(v) as f64,
            &policy,
        );
        let mut seen: HashSet<u32> = (0..k).map(|i| (i % n) as u32).collect();
        seen.extend(report.trace.pooled().map(|v| v.0));
        for entry in frontier.entries() {
            prop_assert!(
                seen.contains(&entry.node.0),
                "pooled entry {:?} was never visited",
                entry.node
            );
            prop_assert_eq!(entry.degree, network.graph.degree(entry.node));
            prop_assert!(entry.owner < k);
        }
        for event in &report.restarts {
            prop_assert!(
                seen.contains(&event.to.0),
                "restart target {:?} was never visited",
                event.to
            );
            prop_assert!(
                seen.contains(&event.from.0),
                "abandoned position {:?} was never occupied",
                event.from
            );
        }
    }
}

#[test]
fn work_stealing_schedule_is_a_function_of_the_seed() {
    // Same seed -> identical traces, stops, AND restart schedule; a
    // different seed moves the schedule (the run is not degenerate).
    let network = clustered_network();
    let run = |seed: u64| {
        let policy = WorkStealing::new(1.1, 16, SharedFrontier::with_stripes(8, 16));
        let report = serial_steal_run(&network, 6, 600, Some(45), seed, &policy);
        (
            report.trace.per_walker.clone(),
            report.stops.clone(),
            report.restarts.clone(),
        )
    };
    let (traces_a, stops_a, restarts_a) = run(7);
    let (traces_b, stops_b, restarts_b) = run(7);
    assert_eq!(traces_a, traces_b);
    assert_eq!(stops_a, stops_b);
    assert_eq!(restarts_a, restarts_b);
    assert!(
        !restarts_a.is_empty(),
        "budgeted clumped starts must exercise restarts"
    );
    let (_, _, restarts_c) = run(8);
    assert_ne!(
        restarts_a, restarts_c,
        "a different seed must reschedule the restarts"
    );
}

#[test]
fn rescues_target_cached_territory_and_respect_the_budget() {
    let network = clustered_network();
    let budget = 40u64;
    let policy = WorkStealing::new(1.1, 16, SharedFrontier::with_stripes(8, 16));
    let report = serial_steal_run(&network, 6, 800, Some(budget), 11, &policy);
    let seen = occupied(&report, 6);
    let rescues: Vec<_> = report
        .restarts
        .iter()
        .filter(|e| e.reason == RestartReason::Refused)
        .collect();
    assert!(!rescues.is_empty(), "budget must trigger rescues here");
    for rescue in rescues {
        // A rescue target is published territory: its neighbor list was
        // fetched when its owner departed it, i.e. it is cached — the
        // rescued walker keeps sampling without burning budget.
        assert!(seen.contains(&rescue.to.0));
    }
    // The budget invariant is untouched by all the relocation churn.
    assert!(report.trace.stats.unique <= budget);
}

#[test]
fn serial_and_reactor_engines_agree_on_traces_and_restart_schedule() {
    // The headline cross-engine property, exercised with an *active*
    // policy (the `Never` equivalences are pinned elsewhere): with one
    // batch holding the fleet, reactor events are serial rounds, sharing
    // boundaries, streams, and steal outcomes.
    let network = clustered_network();
    let graph = network.graph.clone();
    let make =
        |i: usize, _| Box::new(Cnrw::new(NodeId((i % 10) as u32))) as Box<dyn RandomWalk + Send>;
    let orch = WalkOrchestrator::new(5, 400, 21);

    let serial_policy = WorkStealing::new(1.1, 16, SharedFrontier::with_stripes(8, 16));
    let mut serial_client = SimulatedOsn::new_shared(network.clone());
    let serial = orch.run_serial(
        &mut serial_client,
        make,
        |v| graph.degree(v) as f64,
        &serial_policy,
    );

    for batch_size in [5usize, 16] {
        let reactor_policy = WorkStealing::new(1.1, 16, SharedFrontier::with_stripes(8, 16));
        let mut batch_client = SimulatedBatchOsn::new(
            SimulatedOsn::new_shared(network.clone()),
            BatchConfig::new(batch_size).with_in_flight(2),
        );
        let reactor = orch.run_reactor(
            &mut batch_client,
            make,
            |v| graph.degree(v) as f64,
            &reactor_policy,
        );
        assert_eq!(
            serial.trace.per_walker, reactor.trace.per_walker,
            "batch_size={batch_size}"
        );
        assert_eq!(serial.restarts, reactor.restarts, "batch_size={batch_size}");
        assert_eq!(serial.estimate.count(), reactor.estimate.count());
        assert_eq!(serial.estimate.mean(), reactor.estimate.mean());
    }
    assert!(
        !serial.restarts.is_empty(),
        "scenario must exercise the policy"
    );
}

#[test]
fn reactor_below_fleet_batch_runs_work_stealing_without_perturbing_accounting() {
    // With batches smaller than the fleet, reactor events split serial
    // rounds, so the restart schedule may differ from the serial core's —
    // but the run must still complete, never charge past the shared
    // budget, and only relocate walkers into territory the fleet occupied.
    let network = clustered_network();
    let graph = network.graph.clone();
    let budget = 45u64;
    let k = 4usize;
    for batch_size in [1usize, 2] {
        let policy = WorkStealing::new(1.1, 16, SharedFrontier::with_stripes(8, 16));
        let mut client = SimulatedBatchOsn::configured(
            SimulatedOsn::new_shared(network.clone()),
            BatchConfig::new(batch_size).with_in_flight(2),
            Some(budget),
        );
        let report = WalkOrchestrator::new(k, 500, 3).run_reactor(
            &mut client,
            |i, _| Box::new(Cnrw::new(NodeId((i % 10) as u32))) as _,
            |v| graph.degree(v) as f64,
            &policy,
        );
        assert!(
            !report.restarts.is_empty(),
            "batch_size={batch_size}: scenario must exercise the policy"
        );
        let interface = report
            .interface
            .expect("the reactor reports interface stats");
        assert!(interface.unique <= budget, "batch_size={batch_size}");
        assert_eq!(report.trace.stats.unique, interface.unique);
        assert_eq!(report.stops.len(), k);
        for trace in &report.trace.per_walker {
            assert!(trace.len() <= 500);
        }
        let seen = occupied(&report, k);
        for event in &report.restarts {
            assert!(
                seen.contains(&event.to.0),
                "batch_size={batch_size}: target {:?} unvisited",
                event.to
            );
        }
    }
}
