//! Property tests for the batched client + the reactor.
//!
//! The invariants pinned here are the contract of the batch subsystem:
//!
//! * **charged queries == unique nodes fetched**, for every graph, batch
//!   size, in-flight window, and walker count — batching reshapes request
//!   traffic, never the paper's §2.3 unique-query cost;
//! * the batched path is a **pure I/O transformation** of the walk: with
//!   one walker it replays the serial walk bit-identically, and with K
//!   walkers every per-walker trace (and the merged estimator) matches the
//!   serial core's round-robin run exactly;
//! * a caller-built walker and RNG handed to
//!   [`drive_reactor`] replay a [`WalkSession`] step for step, budget
//!   cut-off and accounting included;
//! * the endpoint is the **one cache a fleet shares**: any batch shape
//!   returns the plain client's lists, hit counts and budget refusals, and
//!   fleets reusing a warm endpoint each report only the interface traffic
//!   they caused.

use proptest::prelude::*;

use std::collections::HashSet;
use std::sync::Arc;

use osn_sampling::client::{BatchNodeError, QueryStats};
use osn_sampling::graph::attributes::AttributedGraph;
use osn_sampling::graph::generators::erdos_renyi;
use osn_sampling::prelude::*;
use osn_sampling::walks::reactor::drive_reactor;
use osn_sampling::walks::OrchestratorReport;

/// Strategy: a connected random graph with 5..60 nodes (same recipe as
/// `tests/property_based.rs`).
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (5usize..60, 0u64..1000).prop_map(|(n, seed)| {
        let p = (2.0 * (n as f64).ln() / n as f64).min(0.9);
        erdos_renyi(n, p, seed).expect("valid config")
    })
}

fn make_cnrw(n: usize) -> impl Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send> {
    move |i, _| Box::new(Cnrw::new(NodeId(((i * 13) % n) as u32))) as Box<dyn RandomWalk + Send>
}

fn batched_report(
    network: &Arc<AttributedGraph>,
    k: usize,
    steps: usize,
    batch_size: usize,
    window: usize,
    seed: u64,
) -> (OrchestratorReport, QueryStats, SimulatedBatchOsn) {
    let n = network.graph.node_count();
    let mut client = SimulatedBatchOsn::new(
        SimulatedOsn::new_shared(network.clone()),
        BatchConfig::new(batch_size).with_in_flight(window),
    );
    let report = WalkOrchestrator::new(k, steps, seed).run_reactor(
        &mut client,
        make_cnrw(n),
        |v| v.index() as f64,
        &Never,
    );
    let interface = report
        .interface
        .expect("the reactor reports interface stats");
    (report, interface, client)
}

/// The nodes a `make_cnrw` fleet of `k` fetched: each start (fetched for
/// the first step) plus every node a walker *departed from*. A walker's
/// final position is never fetched — no step follows it.
fn fetched(report: &OrchestratorReport, k: usize, n: usize) -> HashSet<u32> {
    let mut fetched: HashSet<u32> = (0..k).map(|i| ((i * 13) % n) as u32).collect();
    for trace in &report.trace.per_walker {
        fetched.extend(trace[..trace.len().saturating_sub(1)].iter().map(|v| v.0));
    }
    fetched
}

/// Push `workload` through `endpoint` in max-size batches, keeping the
/// in-flight window full. With no latency configured every request
/// completes at once and `poll` delivers in ticket order, so the per-node
/// results come back in workload order.
fn fetch_through(
    endpoint: &mut SimulatedBatchOsn,
    workload: &[NodeId],
) -> Vec<Result<Vec<NodeId>, BatchNodeError>> {
    let limits = endpoint.limits();
    let mut chunks = workload.chunks(limits.max_batch_size);
    let mut results = Vec::with_capacity(workload.len());
    loop {
        while endpoint.in_flight() < limits.max_in_flight {
            let Some(chunk) = chunks.next() else { break };
            endpoint.submit(chunk).expect("the window has room");
        }
        let Some(outcome) = endpoint.poll() else {
            break;
        };
        results.extend(outcome.per_node);
    }
    let order: Vec<NodeId> = results.iter().map(|(u, _)| *u).collect();
    assert_eq!(order, workload, "deliveries left submission order");
    results.into_iter().map(|(_, result)| result).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn charged_queries_equal_unique_nodes_fetched(
        g in arb_graph(),
        seed in 0u64..300,
        k in 1usize..6,
        batch_size in 1usize..20,
        window in 1usize..5,
    ) {
        let network = Arc::new(AttributedGraph::bare(g));
        let n = network.graph.node_count();
        let (report, interface, client) = batched_report(&network, k, 150, batch_size, window, seed);
        prop_assert_eq!(interface.unique, fetched(&report, k, n).len() as u64);
        // Walker-side and interface-side agree on the charged cost, and the
        // interface never saw a node twice (the run's delivered ids absorb
        // every revisit).
        prop_assert_eq!(report.trace.stats.unique, interface.unique);
        prop_assert_eq!(interface.cache_hits, 0);
        // Request accounting is conserved: every accepted id was delivered
        // exactly once (no failures were configured).
        prop_assert_eq!(client.batch_stats().submitted_ids, interface.issued);
    }

    #[test]
    fn one_walker_batched_is_bit_identical_to_serial_replay(
        g in arb_graph(),
        seed in 0u64..300,
        batch_size in 1usize..10,
    ) {
        use rand::SeedableRng;
        let network = Arc::new(AttributedGraph::bare(g));
        let orch = WalkOrchestrator::new(1, 200, seed);
        let (report, _, _) = batched_report(&network, 1, 200, batch_size, 2, seed);
        // Serial replay with the same derived RNG stream.
        let mut client = SimulatedOsn::new_shared(network.clone());
        let mut walker = Cnrw::new(NodeId(0));
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(orch.walker_seed(0));
        let mut serial = Vec::new();
        for _ in 0..200 {
            serial.push(walker.step(&mut client, &mut rng).unwrap());
        }
        prop_assert_eq!(&report.trace.per_walker[0], &serial);
        // Accounting matches the serial client's too.
        prop_assert_eq!(report.trace.stats, client.stats());
    }

    #[test]
    fn k_walker_batched_matches_serial_core_exactly(
        g in arb_graph(),
        seed in 0u64..300,
        k in 2usize..6,
        batch_size in 1usize..12,
    ) {
        let network = Arc::new(AttributedGraph::bare(g));
        let n = network.graph.node_count();
        let serial = WalkOrchestrator::new(k, 150, seed).run_serial(
            &mut SimulatedOsn::new_shared(network.clone()),
            make_cnrw(n),
            |v| v.index() as f64,
            &Never,
        );
        let (batched, interface, _) = batched_report(&network, k, 150, batch_size, 3, seed);
        prop_assert_eq!(&batched.trace.per_walker, &serial.trace.per_walker);
        // Merged in the same walker order: the pooled estimator is
        // bit-identical, which is (much) stronger than the merged-estimator
        // tolerance the estimators otherwise guarantee.
        prop_assert_eq!(batched.estimate.count(), serial.estimate.count());
        prop_assert_eq!(batched.estimate.mean(), serial.estimate.mean());
        // And the charged cost equals the shared-cache serial run's.
        prop_assert_eq!(interface.unique, serial.trace.stats.unique);
    }

    #[test]
    fn drive_reactor_replays_a_walk_session_under_budget(
        g in arb_graph(),
        seed in 0u64..300,
        budget in 1u64..40,
        batch_size in 1usize..10,
    ) {
        use rand::SeedableRng;
        let network = Arc::new(AttributedGraph::bare(g));
        let n = network.graph.node_count();
        // The synchronous reference: one walker in a `WalkSession`, which
        // seeds its RNG straight from the config, behind a hard budget.
        let mut walker = Cnrw::new(NodeId(0));
        let mut client = BudgetedClient::new(SimulatedOsn::new_shared(network.clone()), budget, n);
        let session = WalkSession::new(WalkConfig::steps(200).with_seed(seed));
        let serial = session.run(&mut walker, &mut client);

        // The same caller-built walker and RNG on the reactor, behind a
        // batch endpoint charging the same budget.
        let mut walker = Cnrw::new(NodeId(0));
        let mut endpoint = SimulatedBatchOsn::configured(
            SimulatedOsn::new_shared(network.clone()),
            BatchConfig::new(batch_size).with_in_flight(2),
            Some(budget),
        );
        let (report, _) = drive_reactor(
            &mut endpoint,
            &mut [&mut walker as &mut dyn RandomWalk],
            &mut [rand_chacha::ChaCha12Rng::seed_from_u64(seed)],
            200,
            |_| 1.0,
            &Never,
        );
        prop_assert_eq!(&report.trace.per_walker[0][..], serial.nodes());
        prop_assert_eq!(report.stops[0], serial.stop);
        prop_assert_eq!(report.trace.stats, serial.stats);
        prop_assert!(endpoint.stats().unique <= budget);
    }

    #[test]
    fn endpoint_is_a_pure_transport_over_the_plain_client(
        g in arb_graph(),
        ids in prop::collection::vec(0u32..1000, 1..400),
        batch_size in 1usize..20,
        window in 1usize..5,
    ) {
        let n = g.node_count() as u32;
        let workload: Vec<NodeId> = ids.iter().map(|&i| NodeId(i % n)).collect();
        let mut plain = SimulatedOsn::from_graph(g.clone());
        let mut endpoint = SimulatedBatchOsn::new(
            SimulatedOsn::from_graph(g),
            BatchConfig::new(batch_size).with_in_flight(window),
        );
        for (&u, result) in workload.iter().zip(fetch_through(&mut endpoint, &workload)) {
            prop_assert_eq!(result.as_deref(), Ok(plain.neighbors(u).unwrap()));
        }
        // Identical accounting: issued / unique (charged) / cache hits.
        prop_assert_eq!(endpoint.stats(), plain.stats());
        let requests = endpoint.batch_stats();
        prop_assert_eq!(requests.submitted, workload.len().div_ceil(batch_size) as u64);
        prop_assert_eq!(requests.attempts, requests.submitted);
    }

    #[test]
    fn endpoint_refuses_exactly_what_a_budgeted_client_refuses(
        g in arb_graph(),
        ids in prop::collection::vec(0u32..1000, 1..400),
        budget in 0u64..30,
        batch_size in 1usize..20,
        window in 1usize..5,
    ) {
        let n = g.node_count();
        let workload: Vec<NodeId> = ids.iter().map(|&i| NodeId(i % n as u32)).collect();
        let mut budgeted = BudgetedClient::new(SimulatedOsn::from_graph(g.clone()), budget, n);
        let mut endpoint = SimulatedBatchOsn::configured(
            SimulatedOsn::from_graph(g),
            BatchConfig::new(batch_size).with_in_flight(window),
            Some(budget),
        );
        // New nodes past the budget are refused, never a cached one.
        for (&u, result) in workload.iter().zip(fetch_through(&mut endpoint, &workload)) {
            match (budgeted.neighbors(u), result) {
                (Ok(want), Ok(got)) => prop_assert_eq!(want, got.as_slice()),
                (Err(_), Err(BatchNodeError::Budget(_))) => {}
                (want, got) => prop_assert!(false, "node {}: {:?} vs {:?}", u.0, want, got),
            }
        }
        prop_assert_eq!(endpoint.stats(), budgeted.stats());
        prop_assert_eq!(endpoint.remaining_budget(), budgeted.remaining_budget());
    }

    #[test]
    fn fleets_on_a_warm_endpoint_report_their_own_interface_delta(
        g in arb_graph(),
        seed in 0u64..300,
        k in 1usize..6,
        batch_size in 1usize..12,
    ) {
        let network = Arc::new(AttributedGraph::bare(g));
        let n = network.graph.node_count();
        let mut endpoint = SimulatedBatchOsn::new(
            SimulatedOsn::new_shared(network),
            BatchConfig::new(batch_size).with_in_flight(2),
        );
        let run = |endpoint: &mut SimulatedBatchOsn, seed| {
            WalkOrchestrator::new(k, 100, seed).run_reactor(endpoint, make_cnrw(n), |_| 1.0, &Never)
        };
        let first = run(&mut endpoint, seed);
        let warm = endpoint.stats();
        let second = run(&mut endpoint, seed + 1);
        let (a, b) = (first.interface.unwrap(), second.interface.unwrap());
        // A cold endpoint's delta is its whole traffic; the second fleet
        // sees only the traffic it caused.
        prop_assert_eq!(a, warm);
        prop_assert_eq!(b, endpoint.stats().since(&warm));
        // Each node the second fleet needs crosses the interface once, and
        // those the first fleet fetched are cache hits, charged nothing.
        let (theirs, mine) = (fetched(&first, k, n), fetched(&second, k, n));
        prop_assert_eq!(b.issued, mine.len() as u64);
        prop_assert_eq!(b.unique, mine.difference(&theirs).count() as u64);
        prop_assert_eq!(b.cache_hits, mine.intersection(&theirs).count() as u64);
        prop_assert!(b.cache_hits > 0, "the fleets share their starts");
        prop_assert_eq!(second.trace.stats.unique, mine.len() as u64);
    }
}
