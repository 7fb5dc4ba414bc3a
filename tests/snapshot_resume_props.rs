//! Snapshot/resume round-trip property tests for every walker.
//!
//! The contract pinned here is the foundation of the service layer's
//! kill-and-resume story: snapshot a walker at an **arbitrary** step `k`
//! (serializing through the `osn-serde` text form, exactly as a server
//! would persist it), restore into a freshly constructed walker plus a
//! state-restored RNG, and the continued trace must be **bit-identical**
//! to the uninterrupted run — for every algorithm, including mid-cycle
//! circulation state and promoted arena slices.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use osn_sampling::prelude::*;
use osn_sampling::serde::Value;

/// A 60-node graph with hubs (degree ≫ `INLINE_CAP`) so circulation
/// states exercise all three arena stages (inline, spill, promoted)
/// within a few hundred steps.
fn test_graph() -> CsrGraph {
    let mut b = GraphBuilder::new();
    for i in 0..60u32 {
        b.push_edge(i, (i + 1) % 60);
        b.push_edge(i, (i * 7 + 3) % 60);
    }
    // Hubs: node 0 reaches every third node, node 1 every fifth.
    for i in (3..60u32).step_by(3) {
        b.push_edge(0, i);
    }
    for i in (5..60u32).step_by(5) {
        b.push_edge(1, i);
    }
    b.build().unwrap()
}

type Make = Box<dyn Fn() -> Box<dyn RandomWalk>>;

/// Every walker under test, with a stable label.
fn walker_zoo() -> Vec<(String, Make)> {
    vec![
        ("SRW".into(), Box::new(|| Box::new(Srw::new(NodeId(0))))),
        ("MHRW".into(), Box::new(|| Box::new(Mhrw::new(NodeId(0))))),
        (
            "NB-SRW".into(),
            Box::new(|| Box::new(NbSrw::new(NodeId(0)))),
        ),
        ("CNRW".into(), Box::new(|| Box::new(Cnrw::new(NodeId(0))))),
        (
            "CNRW-node".into(),
            Box::new(|| Box::new(NodeCnrw::new(NodeId(0)))),
        ),
        (
            "NB-CNRW".into(),
            Box::new(|| Box::new(NbCnrw::new(NodeId(0)))),
        ),
        (
            "GNRW".into(),
            Box::new(|| Box::new(Gnrw::new(NodeId(0), Grouping::degree_log2()))),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn resume_at_arbitrary_step_is_bit_identical(
        w in 0usize..7,
        k in 0usize..300,
        seed in 0u64..5000,
    ) {
        let zoo = walker_zoo();
        let (name, make) = &zoo[w];
        let tail_len = 150usize;

        // Uninterrupted reference run.
        let mut client = SimulatedOsn::from_graph(test_graph());
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut walker = make();
        let mut full = Vec::with_capacity(k + tail_len);
        for _ in 0..k + tail_len {
            full.push(walker.step(&mut client, &mut rng).unwrap());
        }

        // Same run, killed at step k: snapshot through the serialized text
        // form (as the job server persists it), then resume in a fresh
        // walker + state-restored RNG and a cold client.
        let mut client = SimulatedOsn::from_graph(test_graph());
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut walker = make();
        let mut trace = Vec::with_capacity(k + tail_len);
        for _ in 0..k {
            trace.push(walker.step(&mut client, &mut rng).unwrap());
        }
        let snapshot = walker.export_state().to_pretty();
        let rng_words = rng.get_state();
        drop(walker);

        let parsed = Value::parse(&snapshot).map_err(|e| format!("{name}: {e}"))?;
        let mut resumed = make();
        resumed
            .import_state(&parsed)
            .map_err(|e| format!("{name}: import failed: {e}"))?;
        prop_assert_eq!(
            resumed.current(),
            *full.get(k.wrapping_sub(1)).unwrap_or(&NodeId(0)),
            "{}: position after import", name
        );
        let mut rng = ChaCha12Rng::from_state(rng_words);
        let mut client = SimulatedOsn::from_graph(test_graph());
        for _ in 0..tail_len {
            trace.push(resumed.step(&mut client, &mut rng).unwrap());
        }
        prop_assert_eq!(&trace, &full, "{}: resumed trace diverged (k={})", name, k);
    }
}

/// A seeded mutation schedule over `g`, split at the half-way timestamp
/// into two *effective* batches (deletes that would strand a walker on a
/// degree-zero node are filtered out).
fn split_batches(g: &CsrGraph, events: usize, seed: u64) -> (Vec<EdgeMutation>, Vec<EdgeMutation>) {
    let spec = ScheduleSpec::new(events, 2.0, seed).with_delete_fraction(0.4);
    let schedule = MutationSchedule::generate(g, &spec);
    let mut overlay = DeltaOverlay::new();
    let (mut first, mut second) = (Vec::new(), Vec::new());
    for &m in schedule.events() {
        if m.op == MutationOp::Delete
            && (overlay.degree(g, m.u) <= 1 || overlay.degree(g, m.v) <= 1)
        {
            continue;
        }
        if overlay.apply(g, m) {
            if m.at <= 1.0 {
                first.push(m);
            } else {
                second.push(m);
            }
        }
    }
    (first, second)
}

/// The jittered batch endpoint the mid-schedule resume properties walk.
fn jittered_endpoint(g: &CsrGraph) -> SimulatedBatchOsn {
    SimulatedBatchOsn::new(
        SimulatedOsn::from_graph(g.clone()),
        BatchConfig::new(2)
            .with_in_flight(3)
            .with_latency(0.01, 0.002)
            .with_seed(9),
    )
}

/// CNRW walkers spread over the test graph's 60 nodes.
fn spread_cnrw(i: usize, _: HistoryBackend) -> Box<dyn RandomWalk + Send> {
    Box::new(Cnrw::new(NodeId(((i * 7) % 60) as u32)))
}

/// Kill a run and its endpoint as a server would: persist both through
/// their serialized text forms, then restore them over a pristine endpoint.
fn kill_and_resume(
    orch: &WalkOrchestrator,
    g: &CsrGraph,
    run: ReactorWalkRun,
    client: SimulatedBatchOsn,
) -> Result<(ReactorWalkRun, SimulatedBatchOsn), String> {
    let run_text = run.snapshot().to_pretty();
    let client_text = client.export_state()?.to_pretty();
    drop(run);
    drop(client);
    let mut client = jittered_endpoint(g);
    client.import_state(&Value::parse(&client_text).map_err(|e| e.to_string())?)?;
    let run = orch.resume_reactor(
        &Value::parse(&run_text).map_err(|e| e.to_string())?,
        spread_cnrw,
    )?;
    Ok((run, client))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Kill-and-resume **mid mutation schedule**: a reactor fleet walks
    /// while seeded batches mutate the endpoint's overlay between event
    /// slices. Snapshotting after the first batch (run state and endpoint
    /// state both through the serialized text form), resuming over a
    /// pristine endpoint, and replaying the rest of the schedule yields
    /// traces bit-identical to the uninterrupted run — the overlay log
    /// rides the endpoint snapshot and the invalidated circulation state
    /// rides the walker snapshots.
    #[test]
    fn reactor_resume_mid_mutation_schedule_is_bit_identical(
        seed in 0u64..2000,
        k in 1usize..5,
        steps in 8usize..60,
        e1 in 1usize..24,
        e2 in 1usize..24,
        events in 4usize..40,
    ) {
        let g = test_graph();
        let (batch1, batch2) = split_batches(&g, events, seed ^ 0x5EED);
        let value = |v: NodeId| v.index() as f64;
        let orch = WalkOrchestrator::new(k, steps, seed);

        // Uninterrupted reference: slice, mutate, slice, mutate, finish.
        let mut client = jittered_endpoint(&g);
        let mut run = orch.start_reactor(spread_cnrw);
        run.run_events(&mut client, &value, e1);
        let touched = client.apply_mutations(&batch1);
        run.invalidate_nodes(&touched);
        run.run_events(&mut client, &value, e2);
        let touched = client.apply_mutations(&batch2);
        run.invalidate_nodes(&touched);
        run.run_events(&mut client, &value, usize::MAX);
        let full = run.into_report(&client);

        // Killed after the first batch + e2 more events, persisted as text.
        let mut client = jittered_endpoint(&g);
        let mut run = orch.start_reactor(spread_cnrw);
        run.run_events(&mut client, &value, e1);
        let touched = client.apply_mutations(&batch1);
        run.invalidate_nodes(&touched);
        run.run_events(&mut client, &value, e2);

        // Resume over a pristine endpoint and replay the schedule's tail.
        let (mut run, mut client) = kill_and_resume(&orch, &g, run, client)?;
        prop_assert_eq!(client.inner().mutation_log(), batch1.as_slice());
        let touched = client.apply_mutations(&batch2);
        run.invalidate_nodes(&touched);
        run.run_events(&mut client, &value, usize::MAX);
        let resumed = run.into_report(&client);

        prop_assert_eq!(&resumed.trace.per_walker, &full.trace.per_walker);
        prop_assert_eq!(&resumed.stops, &full.stops);
        prop_assert_eq!(resumed.trace.stats, full.trace.stats);
        prop_assert_eq!(
            resumed.estimate.mean().map(f64::to_bits),
            full.estimate.mean().map(f64::to_bits)
        );
    }

    /// Killed **between** `invalidate_nodes` and the next slice — the
    /// moment a ready walker can sit on a node whose list was just
    /// evicted. The resumed run keeps that walker ready (it re-fetches
    /// through the synchronous fallback, as the uninterrupted run does)
    /// instead of re-parking it on a fresh batch, so the charge schedule
    /// matches too: same completion events, same endpoint accounting,
    /// same request traffic, same virtual clock.
    #[test]
    fn reactor_resume_right_after_invalidation_is_bit_identical(
        seed in 0u64..2000,
        k in 1usize..7,
        steps in 8usize..60,
        e1 in 1usize..24,
        events in 4usize..40,
    ) {
        let g = test_graph();
        let (batch1, _) = split_batches(&g, events, seed ^ 0x1A7E);
        let value = |v: NodeId| v.index() as f64;
        let orch = WalkOrchestrator::new(k, steps, seed);
        let slice_and_invalidate = || {
            let mut client = jittered_endpoint(&g);
            let mut run = orch.start_reactor(spread_cnrw);
            run.run_events(&mut client, &value, e1);
            let touched = client.apply_mutations(&batch1);
            run.invalidate_nodes(&touched);
            (run, client)
        };

        // Uninterrupted reference.
        let (mut run, mut client) = slice_and_invalidate();
        run.run_events(&mut client, &value, usize::MAX);
        let full = run.into_report(&client);
        let full_endpoint = (client.stats(), client.batch_stats(), client.clock().elapsed_secs());

        // Same run, killed right after the invalidation.
        let (run, client) = slice_and_invalidate();
        let (mut run, mut client) = kill_and_resume(&orch, &g, run, client)?;
        run.run_events(&mut client, &value, usize::MAX);
        prop_assert!(run.done());
        let resumed = run.into_report(&client);

        prop_assert_eq!(&resumed.trace.per_walker, &full.trace.per_walker);
        prop_assert_eq!(&resumed.stops, &full.stops);
        prop_assert_eq!(resumed.trace.stats, full.trace.stats);
        prop_assert_eq!(resumed.rounds, full.rounds, "completion events");
        prop_assert_eq!(
            resumed.estimate.mean().map(f64::to_bits),
            full.estimate.mean().map(f64::to_bits)
        );
        let (stats, batch_stats, clock) = full_endpoint;
        prop_assert_eq!(client.stats(), stats);
        prop_assert_eq!(client.batch_stats(), batch_stats);
        prop_assert_eq!(client.clock().elapsed_secs().to_bits(), clock.to_bits());
    }
}

#[test]
fn snapshot_text_is_deterministic() {
    // Hash-map iteration order must never leak into the serialized form:
    // two walkers driven identically export identical bytes.
    for (name, make) in &walker_zoo() {
        let run = || {
            let mut client = SimulatedOsn::from_graph(test_graph());
            let mut rng = ChaCha12Rng::seed_from_u64(11);
            let mut walker = make();
            for _ in 0..400 {
                walker.step(&mut client, &mut rng).unwrap();
            }
            walker.export_state().to_pretty()
        };
        assert_eq!(run(), run(), "{name}: non-deterministic snapshot");
    }
}

#[test]
fn pre_change_history_snapshots_are_refused_without_mutation() {
    // A walker's `history` is the circulation engine's state, column-wise.
    // Snapshots taken before the engine became the only one wrap it as
    // `{"backend": …, "engine": …}`, and later ones hold one object per
    // edge (CNRW's `slots`, GNRW's `edges`). Either gives an `Err` naming
    // the first field it lacks, and the walker is left unchanged.
    for (name, make) in walker_zoo().into_iter().skip(3) {
        let mut client = SimulatedOsn::from_graph(test_graph());
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let mut walker = make();
        for _ in 0..300 {
            walker.step(&mut client, &mut rng).unwrap();
        }
        let state = walker.export_state();
        let with_history = |edit: &dyn Fn(&mut Value)| {
            let Value::Obj(mut fields) = state.clone() else {
                panic!("{name}: walker state is not an object");
            };
            let (_, history) = fields.iter_mut().find(|(k, _)| k == "history").unwrap();
            edit(history);
            Value::Obj(fields)
        };
        let wrapped = with_history(&|history| {
            let engine = std::mem::replace(history, Value::Null);
            *history = Value::obj([("backend", Value::Str("arena".into())), ("engine", engine)]);
        });
        let per_entry = with_history(&|history| {
            let Value::Obj(columns) = history else {
                panic!("history is not an object");
            };
            let list = if columns.iter().any(|(k, _)| k == "threshold") {
                "slots"
            } else {
                "edges"
            };
            columns.retain(|(k, _)| k == "threshold" || k == "arena");
            let entry = Value::obj([
                ("key", Value::Uint(1)),
                ("kind", Value::Str("inline".into())),
                ("used", Value::Arr(Vec::new())),
            ]);
            columns.push((list.into(), Value::Arr(vec![entry])));
        });
        for (layout, old, missing) in [
            ("wrapped", wrapped, ["threshold", "keys"].as_slice()),
            ("per-entry", per_entry, ["keys"].as_slice()),
        ] {
            let err = walker.import_state(&old).unwrap_err();
            assert!(
                missing
                    .iter()
                    .any(|field| err.contains(&format!("missing field `{field}`"))),
                "{name}, {layout}: unexpected error: {err}"
            );
            assert_eq!(
                walker.export_state().to_pretty(),
                state.to_pretty(),
                "{name}, {layout}: walker mutated on error"
            );
        }
    }
}

#[test]
fn history_column_edits_are_refused_without_mutation() {
    // Each edit of a history's columns that breaks its consistency gives
    // an `Err` and leaves the walker unchanged, for both engines: CNRW's
    // (with `promoted` triples into its `arena`) and GNRW's (with frozen
    // `members`).
    for (name, make) in walker_zoo().into_iter().skip(3) {
        let mut client = SimulatedOsn::from_graph(test_graph());
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let mut walker = make();
        for _ in 0..300 {
            walker.step(&mut client, &mut rng).unwrap();
        }
        let state = walker.export_state();
        let history = state.field("history").unwrap();
        let column = |field: &str| -> Vec<u64> { history.field(field).unwrap().decode().unwrap() };
        let Value::Obj(fields) = history else {
            panic!("{name}: history is not an object");
        };
        // Every column but the shared arena has one row per edge or per
        // counted item; the arena may hold slices invalidation freed.
        let per_edge: Vec<&str> = fields
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|&k| k != "threshold" && k != "arena")
            .collect();
        let edit = |field: &str, f: &dyn Fn(&mut Vec<u64>)| {
            let mut tampered = state.clone();
            let Value::Obj(fields) = &mut tampered else {
                unreachable!("checked above")
            };
            let (_, history) = fields.iter_mut().find(|(k, _)| k == "history").unwrap();
            let Value::Obj(columns) = history else {
                unreachable!("checked above")
            };
            let (_, values) = columns.iter_mut().find(|(k, _)| k == field).unwrap();
            let mut items: Vec<u64> = values.decode().unwrap();
            f(&mut items);
            *values = Value::arr(&items);
            tampered
        };
        let mut edits = Vec::new();
        for &field in &per_edge {
            edits.push((format!("{field} one longer"), edit(field, &|c| c.push(0))));
            if !column(field).is_empty() {
                edits.push((
                    format!("{field} one shorter"),
                    edit(field, &|c| {
                        c.pop();
                    }),
                ));
            }
        }
        edits.push((
            "a pick count past the picks".into(),
            edit("pick_counts", &|c| *c.last_mut().unwrap() += 1),
        ));
        edits.push(("an unknown stage".into(), edit("stages", &|c| c[0] = 3)));
        edits.push(("a duplicate key".into(), edit("keys", &|c| c[1] = c[0])));
        if per_edge.contains(&"promoted") {
            let arena = column("arena").len() as u64;
            assert!(!column("promoted").is_empty(), "{name}: no promoted edge");
            edits.push((
                "a slice outside the arena".into(),
                edit("promoted", &|c| c[0] = arena),
            ));
        } else {
            assert!(!column("members").is_empty(), "{name}: no promoted edge");
            edits.push((
                "members not a permutation".into(),
                edit("members", &|c| c[1] = c[0]),
            ));
        }
        for (what, tampered) in edits {
            assert!(
                walker.import_state(&tampered).is_err(),
                "{name}: {what} imported"
            );
            assert_eq!(
                walker.export_state().to_pretty(),
                state.to_pretty(),
                "{name}: {what} mutated the walker"
            );
        }
        assert!(walker.import_state(&state).is_ok(), "{name}");
    }
}

#[test]
fn malformed_snapshots_are_rejected_without_mutation() {
    let mut w = Cnrw::new(NodeId(7));
    let before = w.export_state().to_pretty();
    assert!(w.import_state(&Value::Null).is_err());
    assert!(w
        .import_state(&Value::obj([("history", Value::Null)]))
        .is_err());
    assert_eq!(
        w.export_state().to_pretty(),
        before,
        "walker mutated on error"
    );
}
