//! Differential property tests for the evolving-graph delta overlay —
//! the acceptance gate for [`osn_graph::DeltaOverlay`].
//!
//! The contract: a mutated [`SimulatedOsn`] (base CSR + overlay) must be
//! **observationally identical** to a client over a freshly rebuilt CSR
//! snapshot of the mutated graph. Pinned here as properties over
//! arbitrary graphs and mutation batches:
//!
//! * **Reads** — neighbor lists and degrees through the overlay match the
//!   rebuilt graph node for node (undirected and directed snapshots).
//! * **Walks** — traces over the overlay client are bit-identical to
//!   traces over the rebuilt client, for CNRW, NB-CNRW, and GNRW, on both
//!   execution engines: the serial step loop and the poll-driven reactor
//!   (full-report equality, accounting included, for a pipelining and a
//!   lockstep batch shape).
//! * **Mid-walk mutation** — applying a batch between slices and calling
//!   `invalidate_nodes` keeps serial and reactor runs in lockstep with
//!   each other (trace-for-trace), so no cache can serve a stale neighbor
//!   list.
//! * **Coverage after invalidation** — Theorem 4's exactly-once
//!   circulation guarantee restarts on the *post-mutation* neighborhood:
//!   windows of draws after repeated transits of a hot edge are exact
//!   permutations of the new neighbor set (CNRW, planless GNRW, and
//!   plan-backed GNRW, including a plan past the alias path's 64-group
//!   bitmask).
//! * **Batched invalidation** — `invalidate_nodes` over a node set equals
//!   `invalidate_node` per node for every history-keeping walker (count,
//!   snapshot, later trace), on random graphs and on a hub with more than
//!   64 groups whose degree the batch changes, and the reactor's
//!   `invalidate_nodes` ignores the order and repeats of its input.
//! * **Compact graphs under mutation** — a reactor run over a
//!   compact-backed endpoint, with mutation batches, `invalidate_nodes`
//!   and a kill and resume through the snapshot text, is bit-identical to
//!   the same run over the decompressed plain CSR. The run reads every
//!   list back from the endpoint, through the overlay's patches and then
//!   the decode cache, so a stale decode slot would show here.

use std::sync::Arc;

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use osn_sampling::client::BatchStats;
use osn_sampling::graph::attributes::{AttributedGraph, NodeAttributes};
use osn_sampling::graph::compact::CompactCsr;
use osn_sampling::graph::generators::erdos_renyi;
use osn_sampling::prelude::*;
use osn_sampling::walks::grouping::ValueBucketing;
use osn_sampling::walks::{OrchestratorReport, WalkStop};

/// A connected-ish random graph with 5..60 nodes (same recipe as
/// `tests/reactor_equivalence.rs`).
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (5usize..60, 0u64..1000).prop_map(|(n, seed)| {
        let p = (2.0 * (n as f64).ln() / n as f64).min(0.9);
        erdos_renyi(n, p, seed).expect("valid config")
    })
}

/// A seeded, *effective* mutation batch over `g` that never strands a
/// walker: deletes that would drop an endpoint to degree zero are
/// filtered out, so every node that starts reachable stays steppable and
/// the walks below can run unconditionally.
fn safe_batch(g: &CsrGraph, events: usize, delete_fraction: f64, seed: u64) -> Vec<EdgeMutation> {
    let spec = ScheduleSpec::new(events, 1.0, seed).with_delete_fraction(delete_fraction);
    let schedule = MutationSchedule::generate(g, &spec);
    let mut overlay = DeltaOverlay::new();
    let mut batch = Vec::new();
    for &m in schedule.events() {
        if m.op == MutationOp::Delete
            && (overlay.degree(g, m.u) <= 1 || overlay.degree(g, m.v) <= 1)
        {
            continue;
        }
        if overlay.apply(g, m) {
            batch.push(m);
        }
    }
    batch
}

/// An overlay client with `batch` applied, plus the reference client over
/// the freshly rebuilt CSR of the same mutated graph.
fn mutated_pair(g: &CsrGraph, batch: &[EdgeMutation]) -> (SimulatedOsn, SimulatedOsn) {
    let mut overlay = SimulatedOsn::from_graph(g.clone());
    overlay.apply_mutations(batch);
    let rebuilt = SimulatedOsn::from_graph(overlay.rebuilt_graph());
    (overlay, rebuilt)
}

/// Start nodes with nonzero degree in the mutated graph, so every walker
/// in a fleet has somewhere to step.
fn alive_starts(g: &CsrGraph) -> Vec<NodeId> {
    g.nodes().filter(|&v| g.degree(v) > 0).collect()
}

/// The three history-aware walkers under differential test.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Cnrw,
    NbCnrw,
    Gnrw,
}

const KINDS: [Kind; 3] = [Kind::Cnrw, Kind::NbCnrw, Kind::Gnrw];

fn make_fleet(
    kind: Kind,
    starts: Vec<NodeId>,
) -> impl Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send> {
    move |i, _| {
        let start = starts[(i * 13) % starts.len()];
        match kind {
            Kind::Cnrw => Box::new(Cnrw::new(start)) as _,
            Kind::NbCnrw => Box::new(NbCnrw::new(start)) as _,
            Kind::Gnrw => Box::new(Gnrw::new(start, Box::new(ByDegree::log2()))) as _,
        }
    }
}

/// One hand-stepped serial walker: the walker, its RNG stream, its trace.
type SerialWalker = (Box<dyn RandomWalk + Send>, ChaCha12Rng, Vec<NodeId>);

/// Step every walker of `fleet` until its trace holds `upto` nodes.
fn step_fleet(fleet: &mut [SerialWalker], client: &mut SimulatedOsn, upto: usize) {
    for (walker, rng, trace) in fleet {
        while trace.len() < upto {
            trace.push(walker.step(client, rng).expect("no budget"));
        }
    }
}

/// Full-report equality: traces, stops, walker- and interface-side
/// accounting, refusals, estimate.
fn assert_reports_identical(a: &OrchestratorReport, b: &OrchestratorReport) {
    assert_eq!(a.trace.per_walker, b.trace.per_walker);
    assert_eq!(a.stops, b.stops);
    assert_eq!(a.trace.stats, b.trace.stats);
    assert_eq!(a.interface, b.interface);
    assert_eq!(a.refused_nodes, b.refused_nodes);
    assert_eq!(a.abandoned_nodes, b.abandoned_nodes);
    assert_eq!(
        a.estimate.mean().map(f64::to_bits),
        b.estimate.mean().map(f64::to_bits)
    );
}

fn endpoint(inner: SimulatedOsn, batch_size: usize) -> SimulatedBatchOsn {
    let config = BatchConfig::new(batch_size)
        .with_in_flight(3)
        .with_latency(0.01, 0.002)
        .with_seed(5);
    SimulatedBatchOsn::new(inner, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reads through the overlay are indistinguishable from the rebuilt
    /// CSR — every node, neighbors and degree, on the undirected snapshot.
    #[test]
    fn overlay_reads_match_rebuilt_graph(
        g in arb_graph(),
        events in 1usize..80,
        delete_pct in 0u8..10,
        seed in 0u64..1000,
    ) {
        let batch = safe_batch(&g, events, delete_pct as f64 / 10.0, seed);
        let (mut client, rebuilt) = mutated_pair(&g, &batch);
        let csr = rebuilt.graph().clone();
        for v in g.nodes() {
            prop_assert_eq!(client.peek_degree(v), csr.degree(v));
            prop_assert_eq!(
                client.neighbors(v).unwrap(),
                csr.neighbors(v),
                "node {} neighbor list diverged", v.0
            );
        }
    }

    /// Serial step loops over the overlay are bit-identical to the same
    /// walk over the rebuilt snapshot — CNRW, NB-CNRW, and GNRW, with
    /// identical charged accounting.
    #[test]
    fn serial_walks_are_bit_identical_over_overlay(
        g in arb_graph(),
        events in 1usize..60,
        delete_pct in 0u8..10,
        seed in 0u64..1000,
        steps in 1usize..300,
    ) {
        let batch = safe_batch(&g, events, delete_pct as f64 / 10.0, seed);
        let (mut client, mut rebuilt) = mutated_pair(&g, &batch);
        let starts = alive_starts(rebuilt.graph());
        if starts.is_empty() {
            return Ok(());
        }
        let start = starts[0];
        for kind in KINDS {
            let make = make_fleet(kind, vec![start]);
            let mut a = make(0, HistoryBackend);
            let mut b = make(0, HistoryBackend);
            let mut rng_a = ChaCha12Rng::seed_from_u64(seed ^ 0xA11CE);
            let mut rng_b = ChaCha12Rng::seed_from_u64(seed ^ 0xA11CE);
            for step in 0..steps {
                let va = a.step(&mut client, &mut rng_a).unwrap();
                let vb = b.step(&mut rebuilt, &mut rng_b).unwrap();
                prop_assert_eq!(va, vb, "{:?} diverged at step {}", kind, step);
            }
            prop_assert_eq!(client.stats().unique, rebuilt.stats().unique, "{:?}", kind);
            client.reset();
            rebuilt.reset();
        }
    }

    /// Orchestrated reactor runs over the overlay — pipelined (batch 2)
    /// and lockstep (batch K) — produce the full report — traces, stops,
    /// interface accounting, estimate — of the identical run over the
    /// rebuilt snapshot.
    #[test]
    fn orchestrated_backends_are_bit_identical_over_overlay(
        g in arb_graph(),
        events in 1usize..60,
        delete_pct in 0u8..10,
        seed in 0u64..1000,
        k in 1usize..6,
        steps in 1usize..100,
        kind_ix in 0usize..3,
    ) {
        let batch = safe_batch(&g, events, delete_pct as f64 / 10.0, seed);
        let (client, rebuilt) = mutated_pair(&g, &batch);
        let starts = alive_starts(rebuilt.graph());
        if starts.is_empty() {
            return Ok(());
        }
        let kind = KINDS[kind_ix];
        let orch = WalkOrchestrator::new(k, steps, seed);
        let value = |v: NodeId| v.index() as f64;

        for batch in [2, k] {
            let mut a = endpoint(client.clone(), batch);
            let mut b = endpoint(rebuilt.clone(), batch);
            let react_a = orch.run_reactor(&mut a, make_fleet(kind, starts.clone()), value, &Never);
            let react_b = orch.run_reactor(&mut b, make_fleet(kind, starts.clone()), value, &Never);
            assert_reports_identical(&react_a, &react_b);
        }
    }

    /// Mid-walk mutation: apply the same batch to each engine's client at
    /// the same slice boundary, invalidate the touched set, and the two
    /// engines stay in lockstep — trace for trace, stop for stop. No
    /// reactor cache may serve a stale list.
    #[test]
    fn midwalk_mutation_keeps_backends_in_lockstep(
        g in arb_graph(),
        events in 1usize..40,
        delete_pct in 0u8..10,
        seed in 0u64..1000,
        k in 1usize..6,
        steps in 4usize..80,
        cut in 1usize..40,
        kind_ix in 0usize..3,
    ) {
        let batch = safe_batch(&g, events, delete_pct as f64 / 10.0, seed);
        let base = SimulatedOsn::from_graph(g.clone());
        let starts = alive_starts(&g);
        if starts.is_empty() {
            return Ok(());
        }
        // Mid-walk deletes must also never strand a *mutated* walker:
        // safe_batch keeps every endpoint's degree positive, which is
        // exactly the invariant the walkers need.
        let kind = KINDS[kind_ix];
        let orch = WalkOrchestrator::new(k, steps, seed);
        let value = |v: NodeId| v.index() as f64;
        let cut = cut.min(steps.saturating_sub(1)).max(1);

        // Serial core, stepped by hand: with no budget every walker steps
        // once per round, so `cut` rounds are each walker's first `cut`
        // steps. Mutate, invalidate every walker, finish.
        let mut sc = base.clone();
        let make = make_fleet(kind, starts.clone());
        let mut serial: Vec<SerialWalker> = (0..k)
            .map(|i| {
                let rng = ChaCha12Rng::seed_from_u64(orch.walker_seed(i));
                (make(i, HistoryBackend), rng, Vec::new())
            })
            .collect();
        step_fleet(&mut serial, &mut sc, cut);
        let touched = sc.apply_mutations(&batch);
        for (walker, _, _) in &mut serial {
            for &v in &touched {
                walker.invalidate_node(v);
            }
        }
        step_fleet(&mut serial, &mut sc, steps);
        let serial_traces: Vec<Vec<NodeId>> =
            serial.into_iter().map(|(_, _, trace)| trace).collect();

        // Reactor, lockstep shape (batch >= K): slices quiesce in-flight
        // I/O, so `cut` events land on the same step boundary as `cut`
        // serial rounds.
        let mut rc = endpoint(base.clone(), k);
        let mut reactor = orch.start_reactor(make_fleet(kind, starts.clone()));
        reactor.run_events(&mut rc, &value, cut);
        let touched_r = rc.apply_mutations(&batch);
        prop_assert_eq!(&touched, &touched_r);
        reactor.invalidate_nodes(&touched_r);
        reactor.run_events(&mut rc, &value, usize::MAX);
        let reactor_report = reactor.into_report(&rc);

        prop_assert_eq!(&serial_traces, &reactor_report.trace.per_walker);
        prop_assert!(reactor_report.stops.iter().all(|s| *s == WalkStop::MaxSteps));
    }

    /// Batched invalidation is the per-node invalidation, done once: for
    /// every history-keeping walker, `invalidate_nodes` over a node set
    /// (the touched nodes of a mutation batch plus arbitrary ids, some
    /// never visited or outside the graph, repeats included) drops the
    /// same number of histories as `invalidate_node` once per listed node,
    /// leaves a byte-identical snapshot, and the two walkers then walk the
    /// mutated graph step for step.
    #[test]
    fn batched_invalidation_matches_per_node(
        g in arb_graph(),
        events in 0usize..30,
        seed in 0u64..1000,
        warm in 1usize..200,
        after in 1usize..100,
        extra in prop::collection::vec(0u32..80, 0..12),
    ) {
        let batch = safe_batch(&g, events, 0.4, seed);
        let starts = alive_starts(&g);
        if starts.is_empty() {
            return Ok(());
        }
        let network = AttributedGraph::new(g.clone(), NodeAttributes::for_graph(&g)).unwrap();
        let plan = Arc::new(GroupPlan::build(&network, &ByDegree::log2()));
        let single = Arc::new(GroupPlan::build(&network, &ByHash::new(1)));
        let start = starts[seed as usize % starts.len()];
        check_batched_invalidation(
            &SimulatedOsn::from_graph(g),
            [
                historied_walkers(start, &plan, &single),
                historied_walkers(start, &plan, &single),
            ],
            &batch,
            &extra,
            seed,
            (warm, after),
        )?;
    }

    /// The same over a plan past the alias path's 64-group bitmask, whose
    /// walker runs the Algorithm-2 step through its draw batch. The batch
    /// first deletes a hub edge, so the plan no longer covers the hub's live
    /// list and the plan walker steps there on the one-group partition.
    #[test]
    fn batched_invalidation_matches_per_node_past_64_groups(
        events in 0usize..30,
        seed in 0u64..1000,
        spoke in 0u32..HUB,
        warm in 1usize..400,
        after in 1usize..200,
        extra in prop::collection::vec(0u32..100, 0..12),
    ) {
        let network = many_groups_network();
        let plan = Arc::new(GroupPlan::build(&network, &many_groups_strategy()));
        let mut batch = vec![EdgeMutation::delete(0.0, NodeId(spoke), NodeId(HUB))];
        batch.extend(safe_batch(&network.graph, events, 0.5, seed));
        let start = NodeId(seed as u32 % HUB);
        let walkers = || -> Vec<Box<dyn RandomWalk>> {
            vec![
                Box::new(Gnrw::with_plan(start, Arc::clone(&plan))),
                Box::new(Gnrw::new(start, Box::new(many_groups_strategy()))),
            ]
        };
        let osn = SimulatedOsn::new(network);
        check_batched_invalidation(&osn, [walkers(), walkers()], &batch, &extra, seed, (warm, after))?;
    }

    /// The reactor's `invalidate_nodes` takes the touched list in any order
    /// and with repeats: a shuffled, duplicated list drops the same count
    /// and leaves the same run snapshot — fleet, delivered ids, `seen`
    /// marks — as the sorted, deduplicated one.
    #[test]
    fn reactor_invalidation_ignores_order_and_repeats(
        g in arb_graph(),
        events in 1usize..40,
        seed in 0u64..1000,
        k in 1usize..6,
        steps in 4usize..80,
        cut in 1usize..40,
        extra in prop::collection::vec(0u32..80, 0..8),
    ) {
        let batch = safe_batch(&g, events, 0.4, seed);
        let starts = alive_starts(&g);
        if starts.is_empty() {
            return Ok(());
        }
        let orch = WalkOrchestrator::new(k, steps, seed);
        let value = |v: NodeId| v.index() as f64;
        let [(mut run_a, mut client_a, touched), (mut run_b, mut client_b, _)] =
            [(); 2].map(|_| {
                let mut client = endpoint(SimulatedOsn::from_graph(g.clone()), 2);
                let mut run = orch.start_reactor(make_fleet(Kind::Cnrw, starts.clone()));
                run.run_events(&mut client, &value, cut);
                let touched = client.apply_mutations(&batch);
                (run, client, touched)
            });
        let mut clean = touched;
        clean.extend(extra.iter().map(|&v| NodeId(v)));
        let mut messy = clean.clone();
        messy.extend(clean.iter().rev());
        messy.shuffle(&mut ChaCha12Rng::seed_from_u64(seed));
        clean.sort_unstable();
        clean.dedup();
        prop_assert_eq!(run_a.invalidate_nodes(&clean), run_b.invalidate_nodes(&messy));
        prop_assert_eq!(run_a.snapshot().to_compact(), run_b.snapshot().to_compact());
        run_a.run_events(&mut client_a, &value, usize::MAX);
        run_b.run_events(&mut client_b, &value, usize::MAX);
        assert_reports_identical(&run_a.into_report(&client_a), &run_b.into_report(&client_b));
    }
}

/// Pair each walker of `batched` with its twin in `per_node` and walk both
/// `warm` steps over one copy of `osn`. Then apply `batch` and drop the
/// touched nodes plus `extra` (ids that may be unvisited, repeated or
/// outside the graph), through `invalidate_nodes` on one twin and
/// `invalidate_node` per node on the other. The twins must drop the same
/// count, export the same snapshot and take the same next `after` steps.
fn check_batched_invalidation(
    osn: &SimulatedOsn,
    [batched, per_node]: [Vec<Box<dyn RandomWalk>>; 2],
    batch: &[EdgeMutation],
    extra: &[u32],
    seed: u64,
    (warm, after): (usize, usize),
) -> Result<(), String> {
    for (i, (mut a, mut b)) in batched.into_iter().zip(per_node).enumerate() {
        let mut client = osn.clone();
        let mut rng_a = ChaCha12Rng::seed_from_u64(seed ^ i as u64);
        let mut rng_b = rng_a.clone();
        for _ in 0..warm {
            a.step(&mut client, &mut rng_a).unwrap();
            b.step(&mut client, &mut rng_b).unwrap();
        }
        let mut nodes = client.apply_mutations(batch);
        nodes.extend(extra.iter().map(|&v| NodeId(v)));
        let dropped_a = a.invalidate_nodes(&TouchedNodes::new(&nodes));
        let dropped_b: usize = nodes.iter().map(|&v| b.invalidate_node(v)).sum();
        prop_assert_eq!(dropped_a, dropped_b, "walker {} ({})", i, a.name());
        prop_assert_eq!(
            a.export_state().to_compact(),
            b.export_state().to_compact(),
            "walker {} ({})",
            i,
            a.name()
        );
        for step in 0..after {
            let va = a.step(&mut client, &mut rng_a).unwrap();
            let vb = b.step(&mut client, &mut rng_b).unwrap();
            prop_assert_eq!(va, vb, "walker {} ({}) step {}", i, a.name(), step);
        }
    }
    Ok(())
}

/// Everything a mutating, killed-and-resumed reactor run leaves behind: the
/// final report, the endpoint's batch counters and clock bits, the run and
/// endpoint snapshot texts at the kill, and the final endpoint state.
type MutatingRun = (OrchestratorReport, BatchStats, u64, [String; 2], String);

/// Drive a reactor fleet over `osn()` in `slice`-event slices. After each
/// slice the next mutation batch lands on the endpoint and the run drops
/// the touched nodes; after `kill` slices the run and the endpoint are
/// snapshotted through their text forms and resumed into a fresh endpoint.
fn mutating_run(
    osn: &dyn Fn() -> SimulatedOsn,
    orch: &WalkOrchestrator,
    make: &dyn Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send>,
    batches: &[Vec<EdgeMutation>],
    slice: usize,
    kill: usize,
) -> MutatingRun {
    let value = |v: NodeId| v.index() as f64;
    let mut client = endpoint(osn(), 2);
    let mut run = orch.start_reactor(make);
    let mut texts = [String::new(), String::new()];
    let mut slices = 0;
    loop {
        if slices == kill {
            texts = [
                run.snapshot().to_pretty(),
                client.export_state().unwrap().to_pretty(),
            ];
            client = endpoint(osn(), 2);
            client
                .import_state(&Value::parse(&texts[1]).unwrap())
                .unwrap();
            run = orch
                .resume_reactor(&Value::parse(&texts[0]).unwrap(), make)
                .unwrap();
        }
        if run.run_events(&mut client, &value, slice) == 0 {
            break;
        }
        if let Some(batch) = batches.get(slices) {
            let touched = client.apply_mutations(batch);
            run.invalidate_nodes(&touched);
        }
        slices += 1;
    }
    let batch_stats = client.batch_stats();
    let clock = client.clock().elapsed_secs().to_bits();
    let state = client.export_state().unwrap().to_compact();
    (run.into_report(&client), batch_stats, clock, texts, state)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compact graphs under mutation: the same fleet, mutation batches,
    /// invalidations and kill point over a compact-backed endpoint and
    /// over the decompressed plain CSR give bit-identical reports, batch
    /// counters, clocks, snapshot texts and final endpoint states.
    #[test]
    fn compact_reactor_runs_under_mutation_match_plain(
        g in arb_graph(),
        events in 1usize..60,
        seed in 0u64..1000,
        k in 1usize..6,
        steps in 4usize..120,
        slice in 1usize..6,
        kill in 0usize..8,
        kind_ix in 0usize..3,
    ) {
        let starts = alive_starts(&g);
        if starts.is_empty() {
            return Ok(());
        }
        let compact = Arc::new(CompactCsr::from_csr(&g));
        let plain = compact.to_csr().unwrap();
        prop_assert_eq!(&plain, &g);
        // Three batches, applied after the first three slices.
        let all = safe_batch(&g, events, 0.4, seed);
        let batches: Vec<Vec<EdgeMutation>> =
            all.chunks(all.len().div_ceil(3).max(1)).map(<[_]>::to_vec).collect();
        let orch = WalkOrchestrator::new(k, steps, seed);
        let make = make_fleet(KINDS[kind_ix], starts);

        let over_compact = mutating_run(
            &|| SimulatedOsn::from_compact(Arc::clone(&compact)),
            &orch,
            &make,
            &batches,
            slice,
            kill,
        );
        let over_plain = mutating_run(
            &|| SimulatedOsn::from_graph(plain.clone()),
            &orch,
            &make,
            &batches,
            slice,
            kill,
        );
        assert_reports_identical(&over_compact.0, &over_plain.0);
        prop_assert_eq!(over_compact.1, over_plain.1);
        prop_assert_eq!(over_compact.2, over_plain.2);
        prop_assert_eq!(&over_compact.3, &over_plain.3);
        prop_assert_eq!(&over_compact.4, &over_plain.4);
        prop_assert!(over_compact.0.stops.iter().all(|s| *s == WalkStop::MaxSteps));
    }
}

/// One walker of every history-keeping configuration: CNRW, NB-CNRW,
/// node-keyed CNRW, planless GNRW, plan GNRW, and a degenerate
/// (single-group, CNRW-delegating) plan GNRW.
fn historied_walkers(
    start: NodeId,
    plan: &Arc<GroupPlan>,
    single: &Arc<GroupPlan>,
) -> Vec<Box<dyn RandomWalk>> {
    vec![
        Box::new(Cnrw::new(start)),
        Box::new(NbCnrw::new(start)),
        Box::new(NodeCnrw::new(start)),
        Box::new(Gnrw::new(start, Box::new(ByDegree::log2()))),
        Box::new(Gnrw::with_plan(start, Arc::clone(plan))),
        Box::new(Gnrw::with_plan(start, Arc::clone(single))),
    ]
}

/// The hub of [`many_groups_network`].
const HUB: u32 = 70;

/// A hub over 70 spokes whose `tag` is `i % 66`: exact bucketing of `tag`
/// gives the hub 66 groups, four of them with two members — past the alias
/// path's 64-group bitmask, and not degenerate. Spokes 68 and 69 are
/// linked, and node 71 hangs off spoke 68, outside `N(hub)`.
fn many_groups_network() -> AttributedGraph {
    let mut b = GraphBuilder::new();
    for i in 0..HUB {
        b.push_edge(i, HUB);
    }
    b.push_edge(68, 69);
    b.push_edge(71, 68);
    let g = b.build().unwrap();
    let mut attrs = NodeAttributes::for_graph(&g);
    attrs
        .insert_uint("tag", (0..72).map(|i| i % 66).collect())
        .unwrap();
    AttributedGraph::new(g, attrs).unwrap()
}

fn many_groups_strategy() -> ByAttribute {
    ByAttribute::with_bucketing("tag", ValueBucketing::Exact)
}

/// Walk `w` (started at the hot edge's source) `warm` steps over `g`, apply
/// `mutations` and invalidate the touched nodes. Every step from `hot.1`
/// with predecessor `hot.0` then draws the next element of the `hot`
/// circulation: each of the first `windows` windows of `want.len()` such
/// draws must be a permutation of `want`, the new `N(hot.1)`.
fn assert_coverage_restarts(
    g: &CsrGraph,
    mut w: Box<dyn RandomWalk>,
    seed: u64,
    hot: (NodeId, NodeId),
    mutations: &[EdgeMutation],
    want: &[u32],
    (warm, windows): (usize, usize),
) {
    let mut client = SimulatedOsn::from_graph(g.clone());
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    // Track (predecessor, position) so a draw from the hot circulation is
    // recognized even when the invalidation lands while the walker is
    // already sitting on its target.
    let mut before = w.current();
    let mut pos = w.current();
    // Warm up: populate circulation state on the old neighborhood.
    for _ in 0..warm {
        let nxt = w.step(&mut client, &mut rng).unwrap();
        before = pos;
        pos = nxt;
    }
    let touched = client.apply_mutations(mutations);
    let mut dropped = 0;
    for &v in &touched {
        dropped += w.invalidate_node(v);
    }
    assert!(dropped > 0, "warm walk must have had state to drop");
    // Record every draw off the hot edge, starting from the very first
    // post-invalidation draw.
    let mut after = Vec::new();
    while after.len() < windows * want.len() {
        let nxt = w.step(&mut client, &mut rng).unwrap();
        if (before, pos) == hot {
            after.push(nxt);
        }
        before = pos;
        pos = nxt;
    }
    for win in after.chunks_exact(want.len()) {
        let mut ids: Vec<u32> = win.iter().map(|n| n.0).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            want,
            "window not a cover of the new N({}) ({}, seed {seed}, {mutations:?})",
            hot.1 .0,
            w.name()
        );
    }
}

/// Theorem 4's exactly-once coverage restarts on the **post-mutation**
/// neighborhood after `invalidate_node`. The graph funnels every `0 → 1`
/// transit through one hot edge (as in `tests/circulation_props.rs`);
/// after mutating `N(1)` mid-walk and invalidating, windows of draws
/// following subsequent transits must be exact permutations of the *new*
/// `N(1)` — for CNRW, for planless GNRW, and for plan-backed GNRW, whose
/// plan still partitions the pre-mutation neighborhoods.
#[test]
fn invalidation_restarts_coverage_on_the_new_neighborhood() {
    let g = GraphBuilder::new()
        .add_edge(0, 1)
        .add_edge(1, 2)
        .add_edge(1, 3)
        .add_edge(1, 4)
        .add_edge(2, 0)
        .add_edge(3, 0)
        .add_edge(4, 0)
        .add_edge(5, 0)
        .build()
        .unwrap();
    // Two mutation shapes: shrink N(1) by deleting {1,4}, grow it by
    // inserting {1,5}. Both change deg(1), so a stale circulation would
    // either repeat a neighbor or never draw the new one.
    let cases: [(EdgeMutation, &[u32]); 2] = [
        (EdgeMutation::delete(0.5, NodeId(1), NodeId(4)), &[0, 2, 3]),
        (
            EdgeMutation::insert(0.5, NodeId(1), NodeId(5)),
            &[0, 2, 3, 4, 5],
        ),
    ];
    // Degree-log2 groups split N(1) into {0} and {2, 3, 4}: not degenerate,
    // so the GNRW walkers run their own group circulation.
    let network = AttributedGraph::new(g.clone(), NodeAttributes::for_graph(&g)).unwrap();
    let plan = Arc::new(GroupPlan::build(&network, &ByDegree::log2()));
    assert!(plan.degenerate().is_none());
    let make = |walker: usize| -> Box<dyn RandomWalk> {
        match walker {
            0 => Box::new(Cnrw::new(NodeId(0))),
            1 => Box::new(Gnrw::new(NodeId(0), Box::new(ByDegree::log2()))),
            _ => Box::new(Gnrw::with_plan(NodeId(0), Arc::clone(&plan))),
        }
    };
    for (mutation, want) in cases {
        for (walker, seed) in (0..3).flat_map(|w| (0..12u64).map(move |s| (w, s))) {
            let hot = (NodeId(0), NodeId(1));
            assert_coverage_restarts(&g, make(walker), seed, hot, &[mutation], want, (400, 6));
        }
    }
}

/// The same past the alias path's 64-group bitmask, where the plan walker
/// runs the Algorithm-2 step through its draw batch. Spoke 0 hangs off the
/// hub alone, so every visit to it is a transit of the hot edge `0 → hub`.
/// Deleting or adding a hub edge changes `deg(hub)`, and the plan walker
/// then steps at the hub on the one-group partition of the live list;
/// swapping one hub edge for another keeps the degree, and it steps on the
/// planned partition over the new list.
#[test]
fn invalidation_restarts_coverage_past_64_groups() {
    let network = many_groups_network();
    let plan = Arc::new(GroupPlan::build(&network, &many_groups_strategy()));
    assert!(plan.max_groups() > 64, "{}", plan.max_groups());
    assert_eq!(plan.degenerate(), None);
    let drop_69 = EdgeMutation::delete(0.5, NodeId(69), NodeId(HUB));
    let add_71 = EdgeMutation::insert(0.5, NodeId(71), NodeId(HUB));
    let cases: [(Vec<EdgeMutation>, Vec<u32>); 3] = [
        (vec![drop_69], (0..69).collect()),
        (vec![add_71], (0..HUB).chain([71]).collect()),
        (vec![drop_69, add_71], (0..69).chain([71]).collect()),
    ];
    for (mutations, want) in &cases {
        for seed in 0..4u64 {
            let w = Box::new(Gnrw::with_plan(NodeId(0), Arc::clone(&plan)));
            let hot = (NodeId(0), NodeId(HUB));
            assert_coverage_restarts(&network.graph, w, seed, hot, mutations, want, (3000, 3));
        }
    }
}

/// The overlay is representation-generic: a directed snapshot patches
/// only the arc's source list, and the rebuilt `DirectedCsr` agrees with
/// the overlay read path arc for arc.
#[test]
fn directed_overlay_matches_rebuilt_directed_csr() {
    let base =
        DirectedCsr::from_arcs([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (0, 4), (4, 2)]).unwrap();
    let mut overlay = DeltaOverlay::new();
    assert!(overlay.apply(&base, EdgeMutation::insert(0.1, NodeId(3), NodeId(4))));
    assert!(overlay.apply(&base, EdgeMutation::delete(0.2, NodeId(2), NodeId(0))));
    // Directed semantics: deleting 2 -> 0 must not touch 0's out-list.
    assert!(overlay.has_edge(&base, NodeId(0), NodeId(1)));
    assert!(!overlay.has_edge(&base, NodeId(2), NodeId(0)));
    let rebuilt = base.rebuilt(&overlay).unwrap();
    for v in 0..base.node_count() as u32 {
        assert_eq!(
            overlay.neighbors(&base, NodeId(v)),
            rebuilt.neighbor_slice(NodeId(v)),
            "out-list of {v} diverged"
        );
    }
}
