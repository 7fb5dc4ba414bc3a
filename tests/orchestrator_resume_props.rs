//! Orchestrator-level snapshot/resume: pause a multi-walker reactor run
//! between completion events, serialize the **whole run** (walker
//! circulation state, RNG stream words, traces, estimator accumulators,
//! delivered ids, fetch queues) through the `osn-serde` text form, and
//! resume — the completed run must be bit-identical to the uninterrupted
//! one, and to the serial core's run of the same spec. [`ReactorWalkRun`]
//! is the one resumable run; this is the
//! contract the `osn-service` job server's kill-and-resume story stands on.

use proptest::prelude::*;

use osn_sampling::prelude::*;
use osn_sampling::serde::Value;

/// An 80-node graph with a hub so circulation arenas grow past the inline
/// stage within a few hundred steps.
fn test_graph() -> CsrGraph {
    let mut b = GraphBuilder::new();
    for i in 0..80u32 {
        b.push_edge(i, (i + 1) % 80);
        b.push_edge(i, (i * 11 + 5) % 80);
    }
    for i in (2..80u32).step_by(2) {
        b.push_edge(0, i);
    }
    b.build().unwrap()
}

/// A mixed fleet: edge-circulation, group-circulation, and
/// non-backtracking circulation walkers all ride the same snapshot.
fn make_walker(i: usize, _: HistoryBackend) -> Box<dyn RandomWalk + Send> {
    match i % 3 {
        0 => Box::new(Cnrw::new(NodeId(i as u32))),
        1 => Box::new(Gnrw::new(NodeId(i as u32), Box::new(ByDegree::log2()))),
        _ => Box::new(NbCnrw::new(NodeId(i as u32))),
    }
}

fn value_of(v: NodeId) -> f64 {
    v.index() as f64
}

fn batch_endpoint() -> SimulatedBatchOsn {
    SimulatedBatchOsn::new(
        SimulatedOsn::from_graph(test_graph()),
        BatchConfig::new(3).with_in_flight(2),
    )
}

fn assert_matches_reference(report: &OrchestratorReport, reference: &OrchestratorReport) {
    assert_eq!(report.trace.per_walker, reference.trace.per_walker);
    assert_eq!(
        report.estimate.mean().map(f64::to_bits),
        reference.estimate.mean().map(f64::to_bits),
        "estimator accumulators must survive resume bit-for-bit"
    );
    assert_eq!(report.estimate.count(), reference.estimate.count());
    assert_eq!(report.stops, reference.stops);
    // Walker-side accounting rides the snapshot too.
    assert_eq!(report.trace.stats, reference.trace.stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reactor_resume_is_bit_identical(
        pause in 0usize..300,
        slice in 1usize..7,
        seed in 0u64..1000,
    ) {
        let orch = WalkOrchestrator::new(4, 250, seed);

        // Uninterrupted reference run.
        let mut endpoint = batch_endpoint();
        let reference = orch.run_reactor(&mut endpoint, make_walker, value_of, &Never);

        // Killed after `pause` events: snapshot through the text form (as
        // the job server persists it), then resume against a *fresh*
        // endpoint — the delivered ids ride the snapshot and their lists
        // are read back from the fresh endpoint, so nothing already fetched
        // is re-requested — and drive to completion in `slice`-event
        // increments.
        let mut endpoint = batch_endpoint();
        let mut run = orch.start_reactor(make_walker);
        run.run_events(&mut endpoint, &value_of, pause);
        let text = run.snapshot().to_pretty();
        drop(run);

        let parsed = Value::parse(&text).map_err(|e| e.to_string())?;
        let mut resumed = orch
            .resume_reactor(&parsed, make_walker)
            .map_err(|e| format!("resume failed: {e}"))?;
        let mut endpoint = batch_endpoint();
        while resumed.run_events(&mut endpoint, &value_of, slice) > 0 {}
        prop_assert!(resumed.done());
        let report = resumed.into_report(&endpoint);
        assert_matches_reference(&report, &reference);
    }

    /// The serial core is the reference a resumed run answers to as well:
    /// under `Never` with no budget, traces are schedule-independent, so a
    /// reactor run killed after `pause` events and resumed over a fresh
    /// endpoint of any batch shape finishes on the serial core's traces,
    /// stops, walker-side accounting and estimate.
    #[test]
    fn reactor_resume_matches_the_serial_core(
        pause in 0usize..300,
        batch_size in 1usize..6,
        window in 1usize..4,
        seed in 0u64..1000,
    ) {
        let orch = WalkOrchestrator::new(4, 250, seed);
        let mut client = SimulatedOsn::from_graph(test_graph());
        let reference = orch.run_serial(&mut client, make_walker, value_of, &Never);

        let endpoint = || {
            SimulatedBatchOsn::new(
                SimulatedOsn::from_graph(test_graph()),
                BatchConfig::new(batch_size).with_in_flight(window),
            )
        };
        let mut client = endpoint();
        let mut run = orch.start_reactor(make_walker);
        run.run_events(&mut client, &value_of, pause);
        let text = run.snapshot().to_pretty();
        drop(run);

        let parsed = Value::parse(&text).map_err(|e| e.to_string())?;
        let mut resumed = orch
            .resume_reactor(&parsed, make_walker)
            .map_err(|e| format!("resume failed: {e}"))?;
        let mut client = endpoint();
        resumed.run_events(&mut client, &value_of, usize::MAX);
        prop_assert!(resumed.done());
        let report = resumed.into_report(&client);
        assert_matches_reference(&report, &reference);
        prop_assert_eq!(report.refused_nodes, 0);
        prop_assert_eq!(report.abandoned_nodes, 0);
    }
}

#[test]
fn sliced_reactor_run_equals_one_shot() {
    let orch = WalkOrchestrator::new(5, 300, 23);
    let mut endpoint = batch_endpoint();
    let reference = orch.run_reactor(&mut endpoint, make_walker, value_of, &Never);

    let mut endpoint = batch_endpoint();
    let mut run = orch.start_reactor(make_walker);
    let mut slice = 1;
    while run.run_events(&mut endpoint, &value_of, slice) > 0 {
        slice = slice % 5 + 1; // uneven slices: 1,2,…,5,1,…
    }
    let report = run.into_report(&endpoint);
    assert_matches_reference(&report, &reference);
    assert_eq!(report.interface, reference.interface);
}

#[test]
fn run_snapshots_are_byte_deterministic() {
    let snap = || {
        let orch = WalkOrchestrator::new(4, 200, 31);
        let mut endpoint = batch_endpoint();
        let mut run = orch.start_reactor(make_walker);
        run.run_events(&mut endpoint, &value_of, 120);
        run.snapshot().to_pretty()
    };
    assert_eq!(snap(), snap(), "hash-map order leaked into a run snapshot");
}

#[test]
fn resume_rejects_mismatched_spec_and_kind() {
    let orch = WalkOrchestrator::new(3, 100, 7);
    let mut endpoint = batch_endpoint();
    let mut run = orch.start_reactor(make_walker);
    run.run_events(&mut endpoint, &value_of, 5);
    let snap = run.snapshot();

    for wrong in [
        WalkOrchestrator::new(4, 100, 7), // fleet size
        WalkOrchestrator::new(3, 101, 7), // step cap
        WalkOrchestrator::new(3, 100, 8), // seed
    ] {
        let err = wrong.resume_reactor(&snap, make_walker).err().unwrap();
        assert!(err.contains("mismatch"), "unexpected error: {err}");
    }
    // Snapshots of the retired serial/coalesced run kinds are refused by
    // name.
    for kind in ["serial", "coalesced"] {
        let Value::Obj(mut fields) = snap.clone() else {
            panic!("run snapshots are objects");
        };
        fields[0] = ("kind".into(), Value::Str(kind.into()));
        let err = orch
            .resume_reactor(&Value::Obj(fields), make_walker)
            .err()
            .unwrap();
        assert!(err.contains(kind), "unexpected error: {err}");
    }
    // The matching spec resumes fine.
    assert!(orch.resume_reactor(&snap, make_walker).is_ok());
}
