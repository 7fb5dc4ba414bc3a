//! The reactor's determinism/equivalence pin (see
//! `osn_sampling::walks::reactor`), against the serial core as reference.
//!
//! Three equivalence arms, each a property over arbitrary graphs, fleet
//! sizes, budgets, and endpoint shapes:
//!
//! * **Arm A — schedule independence.** Under [`Never`] with no budget,
//!   traces depend only on the walk randomness, not on how I/O is
//!   scheduled: for *any* batch shape, latency model, whole-request
//!   failure injection, and per-id drops (as long as nothing is
//!   abandoned), the reactor reproduces the serial core's traces, stops,
//!   walker-side accounting, and estimate bit-for-bit.
//! * **Arm B — budget cut-off.** Under a shared budget the endpoint
//!   charges nodes in batch order, so which walker meets the cut-off first
//!   is the reactor's own; the reference needs no second engine: every
//!   walker's trace is a prefix of its unbudgeted serial trace, a walker
//!   that stopped on its step cap walked all of it, and the endpoint never
//!   charges past the budget.
//! * **Arm C — restart schedules.** With `max_batch_size >= K` every
//!   reactor event is one serial round, so under [`WorkStealing`] the full
//!   restart schedule (who, when, where to) matches the serial core's,
//!   restart for restart.
//!
//! Plus seeded determinism (same seed → same run, different seed →
//! different run), a 10k-walker case witnessing the O(active batches)
//! memory bound, and the shim for endpoints that cannot read a delivered
//! list back: a fleet behind such an endpoint runs exactly as it does
//! directly, and a run resumed over one fetches its lists again.

use proptest::prelude::*;

use osn_sampling::client::batch::{BatchLimits, BatchOutcome, SubmitError, TicketId};
use osn_sampling::client::QueryStats;
use osn_sampling::graph::generators::erdos_renyi;
use osn_sampling::prelude::*;
use osn_sampling::walks::{OrchestratorReport, ReactorStats, WalkStop};

/// A connected random graph with 5..60 nodes (same recipe as
/// `tests/property_based.rs`).
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (5usize..60, 0u64..1000).prop_map(|(n, seed)| {
        let p = (2.0 * (n as f64).ln() / n as f64).min(0.9);
        erdos_renyi(n, p, seed).expect("valid config")
    })
}

/// An endpoint shape: batch size, in-flight window, latency, jitter,
/// per-id latency, whole-request failure cadence, per-id drop cadence.
#[derive(Clone, Debug)]
struct Shape {
    batch: usize,
    window: usize,
    latency: (f64, f64),
    per_id: f64,
    failure_every: u64,
    drop_every: u64,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        1usize..12,
        1usize..5,
        (0u8..3, 0u8..3),
        0u8..2,
        // 0 or 1 disables the fault; >= 2 is a live cadence.
        0u64..9,
        0u64..9,
    )
        .prop_map(
            |(batch, window, (lat, jit), per_id, failure_every, drop_every)| Shape {
                batch,
                window,
                latency: (lat as f64 * 0.01, jit as f64 * 0.002),
                per_id: per_id as f64 * 0.001,
                failure_every: if failure_every < 2 { 0 } else { failure_every },
                drop_every: if drop_every < 2 { 0 } else { drop_every },
            },
        )
}

fn endpoint(g: &CsrGraph, shape: &Shape, budget: Option<u64>) -> SimulatedBatchOsn {
    let mut config = BatchConfig::new(shape.batch)
        .with_in_flight(shape.window)
        .with_latency(shape.latency.0, shape.latency.1)
        .with_per_id_latency(shape.per_id)
        .with_seed(5);
    if shape.failure_every > 0 {
        config = config.with_failure_every(shape.failure_every);
    }
    if shape.drop_every > 0 {
        config = config.with_drop_node_every(shape.drop_every);
    }
    SimulatedBatchOsn::configured(SimulatedOsn::from_graph(g.clone()), config, budget)
}

fn make_cnrw(n: usize) -> impl Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send> {
    move |i, _| Box::new(Cnrw::new(NodeId(((i * 13) % n) as u32))) as Box<dyn RandomWalk + Send>
}

/// The serial core's run of the same spec over the plain client — the
/// reference every arm compares the reactor against.
fn serial_run<P: RestartPolicy>(
    orch: &WalkOrchestrator,
    g: &CsrGraph,
    policy: &P,
) -> OrchestratorReport {
    let mut client = SimulatedOsn::from_graph(g.clone());
    orch.run_serial(
        &mut client,
        make_cnrw(g.node_count()),
        |v| v.index() as f64,
        policy,
    )
}

/// Equality with the serial reference: traces, stops, walker-side stats,
/// estimate, restart schedule — and nothing refused or abandoned.
fn assert_matches_serial(serial: &OrchestratorReport, reactor: &OrchestratorReport) {
    assert_eq!(serial.trace.per_walker, reactor.trace.per_walker);
    assert_eq!(serial.stops, reactor.stops);
    assert_eq!(serial.trace.stats, reactor.trace.stats);
    assert_eq!(serial.restarts, reactor.restarts);
    assert_eq!(reactor.refused_nodes, 0);
    assert_eq!(reactor.abandoned_nodes, 0);
    assert_eq!(
        serial.estimate.mean().map(f64::to_bits),
        reactor.estimate.mean().map(f64::to_bits)
    );
    assert_eq!(serial.estimate.count(), reactor.estimate.count());
}

/// An endpoint that forwards every method except
/// [`BatchOsnClient::delivered`], as a decorator written before that
/// method existed does: it cannot read a delivered list back, so the
/// reactor has to keep its own copy of each list it is delivered.
struct NoReadBack<B>(B);

impl<B: BatchOsnClient> BatchOsnClient for NoReadBack<B> {
    fn limits(&self) -> BatchLimits {
        self.0.limits()
    }
    fn in_flight(&self) -> usize {
        self.0.in_flight()
    }
    fn submit(&mut self, ids: &[NodeId]) -> Result<TicketId, SubmitError> {
        self.0.submit(ids)
    }
    fn poll(&mut self) -> Option<BatchOutcome> {
        self.0.poll()
    }
    fn next_ready_at(&self) -> Option<f64> {
        self.0.next_ready_at()
    }
    fn stats(&self) -> QueryStats {
        self.0.stats()
    }
    fn remaining_budget(&self) -> Option<u64> {
        self.0.remaining_budget()
    }
    fn peek_degree(&self, u: NodeId) -> usize {
        self.0.peek_degree(u)
    }
    fn peek_attribute(&self, u: NodeId, name: &str) -> Option<f64> {
        self.0.peek_attribute(u, name)
    }
    fn is_cached(&self, u: NodeId) -> bool {
        self.0.is_cached(u)
    }
}

/// One reactor fleet over `client`, under `WorkStealing` when `steal`.
fn run_fleet<B: BatchOsnClient>(
    orch: &WalkOrchestrator,
    client: &mut B,
    n: usize,
    steal: bool,
) -> (OrchestratorReport, ReactorStats) {
    let value = |v: NodeId| v.index() as f64;
    if steal {
        let policy = WorkStealing::new(1.05, 16, SharedFrontier::with_stripes(8, 16));
        orch.run_reactor_with_stats(client, make_cnrw(n), value, &policy)
    } else {
        orch.run_reactor_with_stats(client, make_cnrw(n), value, &Never)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arm A: under `Never` with no budget, traces are schedule-independent
    /// — any batch shape, any latency, any recoverable fault pattern.
    #[test]
    fn arm_a_traces_survive_any_endpoint_shape(
        g in arb_graph(),
        shape in arb_shape(),
        k in 1usize..8,
        steps in 1usize..120,
        seed in 0u64..500,
    ) {
        let n = g.node_count();
        let orch = WalkOrchestrator::new(k, steps, seed);
        let serial = serial_run(&orch, &g, &Never);
        let mut subject = endpoint(&g, &shape, None);
        let reactor =
            orch.run_reactor(&mut subject, make_cnrw(n), |v| v.index() as f64, &Never);

        // Abandonment (a node dropped past the attempt cap) is the one
        // fault that may legitimately alter a trajectory; skip such cases.
        if reactor.abandoned_nodes > 0 {
            return Ok(());
        }
        assert_matches_serial(&serial, &reactor);
        // The run's delivered ids absorb every revisit: the interface
        // charged each node the walkers queried exactly once.
        prop_assert_eq!(
            reactor.interface.map(|s| s.unique),
            Some(reactor.trace.stats.unique)
        );
    }

    /// Arm B: under a shared budget every walker's trace is a prefix of
    /// its unbudgeted serial trace, and the endpoint never charges past
    /// the budget.
    #[test]
    fn arm_b_budgeted_traces_are_prefixes_of_the_serial_run(
        g in arb_graph(),
        k in 1usize..10,
        steps in 1usize..150,
        seed in 0u64..500,
        budget in 1u64..200,
        batch in 1usize..12,
        latency in 0u8..3,
    ) {
        let n = g.node_count();
        let orch = WalkOrchestrator::new(k, steps, seed);
        let shape = Shape {
            batch,
            window: 4,
            latency: (latency as f64 * 0.01, 0.002),
            per_id: 0.0,
            failure_every: 0,
            drop_every: 0,
        };
        let unbudgeted = serial_run(&orch, &g, &Never);
        let mut subject = endpoint(&g, &shape, Some(budget));
        let reactor =
            orch.run_reactor(&mut subject, make_cnrw(n), |v| v.index() as f64, &Never);

        let charged = reactor.interface.expect("the reactor reports interface stats");
        prop_assert!(charged.unique <= budget, "charged {} > budget {budget}", charged.unique);
        prop_assert!(reactor.trace.stats.unique <= budget);
        for (i, (trace, full)) in reactor
            .trace
            .per_walker
            .iter()
            .zip(&unbudgeted.trace.per_walker)
            .enumerate()
        {
            prop_assert!(
                full.starts_with(trace),
                "walker {i}: budgeted trace is not a prefix of the serial trace"
            );
            if reactor.stops[i] == WalkStop::MaxSteps {
                prop_assert_eq!(trace.len(), steps, "walker {} stopped early", i);
            } else {
                prop_assert!(trace.len() < steps, "walker {} refused at its cap", i);
            }
        }
        if reactor.stops.contains(&WalkStop::BudgetExhausted) {
            prop_assert!(reactor.refused_nodes > 0, "a walker stopped with nothing refused");
        }
    }

    /// Arm C: with one batch holding the fleet, the `WorkStealing` restart
    /// schedule matches the serial core's, restart for restart.
    #[test]
    fn arm_c_work_stealing_schedules_match(
        g in arb_graph(),
        k in 2usize..8,
        steps in 50usize..250,
        seed in 0u64..500,
        threshold in 0u8..3,
    ) {
        let n = g.node_count();
        let orch = WalkOrchestrator::new(k, steps, seed);
        let shape = Shape {
            batch: k,
            window: 4,
            latency: (0.0, 0.0),
            per_id: 0.0,
            failure_every: 0,
            drop_every: 0,
        };
        let rhat = 1.02 + threshold as f64 * 0.04;

        let policy = WorkStealing::new(rhat, 16, SharedFrontier::with_stripes(8, 16));
        let serial = serial_run(&orch, &g, &policy);
        let mut subject = endpoint(&g, &shape, None);
        let policy2 = WorkStealing::new(rhat, 16, SharedFrontier::with_stripes(8, 16));
        let reactor =
            orch.run_reactor(&mut subject, make_cnrw(n), |v| v.index() as f64, &policy2);

        assert_matches_serial(&serial, &reactor);
    }

    /// Seeded determinism: the reactor is a pure function of (spec, seed,
    /// endpoint config) — and the seed actually matters.
    #[test]
    fn seeds_pin_and_distinguish_runs(
        g in arb_graph(),
        shape in arb_shape(),
        k in 2usize..6,
        seed in 0u64..500,
    ) {
        let n = g.node_count();
        let run = |s: u64| {
            let orch = WalkOrchestrator::new(k, 80, s);
            let mut client = endpoint(&g, &shape, None);
            orch.run_reactor(&mut client, make_cnrw(n), |v| v.index() as f64, &Never)
        };
        let first = run(seed);
        let again = run(seed);
        prop_assert_eq!(&first.trace.per_walker, &again.trace.per_walker);
        prop_assert_eq!(first.interface, again.interface);
        prop_assert_eq!(
            first.estimate.mean().map(f64::to_bits),
            again.estimate.mean().map(f64::to_bits)
        );
        let other = run(seed ^ 0xdead_beef);
        prop_assert!(
            first.trace.per_walker != other.trace.per_walker,
            "different seeds produced identical traces"
        );
    }
}

/// The headline: 10k+ walkers through one reactor loop, bit-identical to
/// the serial core, with in-flight memory bounded by the endpoint's
/// window — not the fleet size.
#[test]
fn ten_thousand_walkers_match_serial_bit_identically() {
    let g = erdos_renyi(2000, 0.01, 77).unwrap();
    let n = g.node_count();
    let k = 10_000;
    let orch = WalkOrchestrator::new(k, 8, 1234);
    let shape = Shape {
        batch: k,
        window: 4,
        latency: (0.005, 0.001),
        per_id: 0.0,
        failure_every: 0,
        drop_every: 0,
    };

    let serial = serial_run(&orch, &g, &Never);
    let mut subject = endpoint(&g, &shape, None);
    let (reactor, stats) =
        orch.run_reactor_with_stats(&mut subject, make_cnrw(n), |v| v.index() as f64, &Never);

    assert_matches_serial(&serial, &reactor);
    assert_eq!(serial.rounds, stats.events);
    assert_eq!(
        reactor.interface.map(|s| s.unique),
        Some(serial.trace.stats.unique)
    );
    assert_eq!(reactor.trace.per_walker.len(), k);
    // The memory bound: in-flight batches track the endpoint window, and
    // at least once the whole 10k fleet was parked on pending I/O.
    assert!(
        stats.peak_in_flight <= shape.window,
        "peak in-flight {} exceeds the {}-batch window",
        stats.peak_in_flight,
        shape.window
    );
    assert!(stats.peak_parked > 0, "nothing ever parked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The shim: behind an endpoint that cannot read lists back, the same
    /// fleet — any endpoint shape, budget or not, `Never` or
    /// `WorkStealing` — gives the identical report (traces, stops, restart
    /// schedule, walker- and interface-side accounting, refusals,
    /// estimate), reactor stats, batch counters and virtual clock as it
    /// does directly. Without its copies the run would find no list to
    /// read, so this fails if the shim stops keeping them.
    #[test]
    fn endpoints_that_cannot_read_back_run_the_identical_fleet(
        g in arb_graph(),
        shape in arb_shape(),
        k in 1usize..8,
        steps in 1usize..120,
        seed in 0u64..500,
        // 0 runs without a budget.
        budget in 0u64..40,
        steal in 0u8..2,
    ) {
        let n = g.node_count();
        let orch = WalkOrchestrator::new(k, steps, seed);
        let budget = (budget > 0).then_some(budget);
        let steal = steal == 1;
        let mut direct = endpoint(&g, &shape, budget);
        let mut wrapped = NoReadBack(endpoint(&g, &shape, budget));
        let (expected, expected_stats) = run_fleet(&orch, &mut direct, n, steal);
        let (report, stats) = run_fleet(&orch, &mut wrapped, n, steal);

        prop_assert_eq!(&report.trace.per_walker, &expected.trace.per_walker);
        prop_assert_eq!(&report.stops, &expected.stops);
        prop_assert_eq!(&report.restarts, &expected.restarts);
        prop_assert_eq!(report.trace.stats, expected.trace.stats);
        prop_assert_eq!(report.interface, expected.interface);
        prop_assert_eq!(report.rounds, expected.rounds);
        prop_assert_eq!(report.refused_nodes, expected.refused_nodes);
        prop_assert_eq!(report.abandoned_nodes, expected.abandoned_nodes);
        prop_assert_eq!(
            report.estimate.mean().map(f64::to_bits),
            expected.estimate.mean().map(f64::to_bits)
        );
        prop_assert_eq!(stats, expected_stats);
        prop_assert_eq!(wrapped.0.batch_stats(), direct.batch_stats());
        prop_assert_eq!(
            wrapped.0.clock().elapsed_secs().to_bits(),
            direct.clock().elapsed_secs().to_bits()
        );
    }
}

/// A snapshot holds delivered ids, not lists, and the shim's copies do not
/// ride it: a run resumed over an endpoint that cannot read back finds no
/// list for those ids, fetches each again on demand, and still finishes on
/// the uninterrupted run's traces, stops, walker-side accounting and
/// estimate.
#[test]
fn a_run_resumed_over_an_endpoint_that_cannot_read_back_fetches_again() {
    let g = erdos_renyi(40, 0.15, 3).unwrap();
    let n = g.node_count();
    let orch = WalkOrchestrator::new(5, 200, 11);
    let shape = Shape {
        batch: 3,
        window: 2,
        latency: (0.01, 0.002),
        per_id: 0.0,
        failure_every: 0,
        drop_every: 0,
    };
    let value = |v: NodeId| v.index() as f64;
    let mut reference_client = endpoint(&g, &shape, None);
    let reference = orch.run_reactor(&mut reference_client, make_cnrw(n), value, &Never);

    let mut client = NoReadBack(endpoint(&g, &shape, None));
    let mut run = orch.start_reactor(make_cnrw(n));
    run.run_events(&mut client, &value, 40);
    let text = run.snapshot().to_pretty();
    let held = Value::parse(&text)
        .unwrap()
        .field("dispatch")
        .unwrap()
        .field("delivered")
        .unwrap()
        .as_array()
        .unwrap()
        .len();
    assert!(held > 0, "the killed run held no delivered ids");

    let mut resumed = orch
        .resume_reactor(&Value::parse(&text).unwrap(), make_cnrw(n))
        .unwrap();
    let mut fresh = NoReadBack(endpoint(&g, &shape, None));
    while resumed.run_events(&mut fresh, &value, 7) > 0 {}
    assert!(resumed.done());
    let report = resumed.into_report(&fresh);
    assert_eq!(report.trace.per_walker, reference.trace.per_walker);
    assert_eq!(report.stops, reference.stops);
    assert_eq!(report.trace.stats, reference.trace.stats);
    assert_eq!(
        report.estimate.mean().map(f64::to_bits),
        reference.estimate.mean().map(f64::to_bits)
    );
}
