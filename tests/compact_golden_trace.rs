//! Golden-trace regression test for walks over the **compressed graph
//! substrate**.
//!
//! A committed fixture (`tests/fixtures/walks_compact_clustered.txt`) pins
//! the exact node sequences of CNRW, GNRW, and NB-CNRW over the clustered
//! graph's [`CompactCsr`] snapshot — both the serial step loop and the
//! reactor behind a batch endpoint — plus the charged accounting. The same
//! run is also asserted bit-identical to the plain-CSR client in-process,
//! so the fixture pins *absolute* trajectories while the differential
//! check localizes a failure: fixture-only drift means the walk stack
//! moved, a differential failure means the compact read path broke.
//!
//! Any refactor of the varint encoding, the decode cache, the builder's
//! merge order, or the client's compact routing that leaks into
//! trajectories will fail here instead of silently drifting.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! UPDATE_FIXTURES=1 cargo test --test compact_golden_trace
//! ```
//!
//! and commit the diff with an explanation of why the trace moved.

use std::fmt::Write as _;
use std::sync::Arc;

use osn_sampling::experiments::{Algorithm, TrialPlan};
use osn_sampling::graph::attributes::AttributedGraph;
use osn_sampling::prelude::*;

const STEPS: usize = 60;
const SEED: u64 = 0x0C5A;
const FIXTURE: &str = "tests/fixtures/walks_compact_clustered.txt";

fn algorithms() -> [Algorithm; 3] {
    [
        Algorithm::Cnrw,
        Algorithm::Gnrw(Grouping::by_degree()),
        Algorithm::NbCnrw,
    ]
}

fn plans() -> (TrialPlan, TrialPlan) {
    let g = osn_sampling::datasets::clustered_graph().network.graph;
    let compact = Arc::new(CompactCsr::from_csr(&g));
    let packed = TrialPlan::from_compact(compact).with_max_steps(STEPS);
    let plain = TrialPlan::new(Arc::new(AttributedGraph::bare(g))).with_max_steps(STEPS);
    (packed, plain)
}

fn batched(plan: &TrialPlan) -> TrialPlan {
    let config = BatchConfig::new(2)
        .with_in_flight(3)
        .with_latency(0.02, 0.005)
        .with_seed(13);
    plan.clone().with_batch(config)
}

fn render_golden() -> String {
    let (packed, _) = plans();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# CNRW / GNRW / NB-CNRW over the clustered graph's CompactCsr snapshot."
    );
    let _ = writeln!(
        out,
        "# {STEPS} steps, run seed {SEED:#x}; `serial` is the step loop, `reactor`"
    );
    let _ = writeln!(
        out,
        "# the batch engine (size 2, in-flight window 3, endpoint seed 13)."
    );
    let _ = writeln!(
        out,
        "# Regenerate: UPDATE_FIXTURES=1 cargo test --test compact_golden_trace"
    );
    for alg in algorithms() {
        for (mode, plan) in [("serial", packed.clone()), ("reactor", batched(&packed))] {
            let trace = plan.run(&alg, SEED);
            let nodes: Vec<String> = trace.nodes().iter().map(|v| v.0.to_string()).collect();
            let _ = writeln!(out, "{}[{mode}]: {}", alg.label(), nodes.join(" "));
            let _ = writeln!(
                out,
                "{}[{mode}] charged: issued {} unique {}",
                alg.label(),
                trace.stats.issued,
                trace.stats.unique
            );
        }
    }
    out
}

#[test]
fn compact_walks_reproduce_committed_golden_trace() {
    let fixture_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    let rendered = render_golden();
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        std::fs::write(&fixture_path, &rendered).expect("write fixture");
    }
    let committed = std::fs::read_to_string(&fixture_path)
        .expect("fixture missing — run with UPDATE_FIXTURES=1 to create it");
    assert_eq!(
        rendered, committed,
        "compact-substrate trace diverged from the committed fixture; if the \
         change is intentional, regenerate with UPDATE_FIXTURES=1 and explain \
         the move"
    );
}

/// The differential half: the identical seeds over the plain CSR produce
/// the identical traces and accounting, serial and reactor, so the
/// compressed substrate is a drop-in replacement for the walk stack.
#[test]
fn compact_walks_are_bit_identical_to_plain() {
    let (packed, plain) = plans();
    for alg in algorithms() {
        for seed in [SEED, SEED ^ 0x9E37_79B9] {
            let a = packed.run(&alg, seed);
            let b = plain.run(&alg, seed);
            assert_eq!(a.nodes(), b.nodes(), "{} serial", alg.label());
            assert_eq!(a.stats, b.stats, "{} serial accounting", alg.label());
            let a = batched(&packed).run(&alg, seed);
            let b = batched(&plain).run(&alg, seed);
            assert_eq!(a.nodes(), b.nodes(), "{} reactor", alg.label());
            assert_eq!(a.stats, b.stats, "{} reactor accounting", alg.label());
        }
    }
}

/// Rendering twice gives identical bytes (the fixture is regenerable on
/// any machine).
#[test]
fn compact_golden_render_is_deterministic() {
    assert_eq!(render_golden(), render_golden());
}
