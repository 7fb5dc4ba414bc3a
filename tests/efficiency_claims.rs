//! Integration: the paper's efficiency theorems, verified end to end.
//!
//! Theorem 2 (CNRW asymptotic variance ≤ SRW's) and its GNRW analogue
//! (Theorem 4) are checked empirically with batch-means variance estimation
//! on long traces, against the exact fundamental-matrix value for SRW.

use std::sync::Arc;

use osn_sampling::datasets::{clustered_graph, facebook_like, Scale};
use osn_sampling::estimate::variance::batch_means_variance;
use osn_sampling::prelude::*;
use osn_sampling::walks::markov::{asymptotic_variance, TransitionKernel};

/// Long-trace f-sequence of a walker, f = degree of the visited node.
fn degree_sequence(
    network: &Arc<osn_sampling::graph::attributes::AttributedGraph>,
    mut walker: Box<dyn RandomWalk>,
    steps: usize,
    seed: u64,
) -> Vec<f64> {
    let mut client = SimulatedOsn::new_shared(network.clone());
    let trace = WalkSession::new(WalkConfig::steps(steps).with_seed(seed))
        .run(walker.as_mut(), &mut client);
    trace
        .nodes()
        .iter()
        .map(|&v| network.graph.degree(v) as f64)
        .collect()
}

#[test]
fn cnrw_variance_at_most_srw_on_clustered_graph() {
    // The ill-formed topology with the largest expected gap. A single
    // batch-means estimate has ~20% relative noise on this graph, so the
    // theorem's `<=` is checked on means over several seeded replications
    // (with the same slack the GNRW check below uses).
    let network = Arc::new(clustered_graph().network);
    let steps = 200_000;
    let batches = 100;
    let seeds = 1..=6u64;

    let mut srw_sum = 0.0;
    let mut cnrw_sum = 0.0;
    for seed in seeds {
        srw_sum += batch_means_variance(
            &degree_sequence(&network, Box::new(Srw::new(NodeId(0))), steps, seed),
            batches,
        )
        .unwrap();
        cnrw_sum += batch_means_variance(
            &degree_sequence(&network, Box::new(Cnrw::new(NodeId(0))), steps, seed),
            batches,
        )
        .unwrap();
    }
    assert!(
        cnrw_sum < srw_sum * 1.05,
        "Theorem 2 violated empirically: CNRW {cnrw_sum} vs SRW {srw_sum} (sums over 6 seeds)"
    );
}

#[test]
fn gnrw_variance_at_most_srw_on_clustered_graph() {
    let network = Arc::new(clustered_graph().network);
    let steps = 400_000;
    let batches = 200;
    let srw = batch_means_variance(
        &degree_sequence(&network, Box::new(Srw::new(NodeId(0))), steps, 2),
        batches,
    )
    .unwrap();
    let gnrw = batch_means_variance(
        &degree_sequence(
            &network,
            Box::new(Gnrw::new(NodeId(0), Grouping::by_degree())),
            steps,
            2,
        ),
        batches,
    )
    .unwrap();
    assert!(
        gnrw < srw * 1.05,
        "Theorem 4 violated empirically: GNRW {gnrw} vs SRW {srw}"
    );
}

#[test]
fn batch_means_agrees_with_fundamental_matrix_for_srw() {
    // Calibration check: the empirical variance estimator must land near
    // the exact fundamental-matrix value for the order-1 SRW chain.
    let network = Arc::new(facebook_like(Scale::Test, 9).network);
    let graph = &network.graph;
    let kernel = TransitionKernel::srw(graph);
    let pi = graph.degree_stationary_distribution();
    let f: Vec<f64> = graph.nodes().map(|v| graph.degree(v) as f64).collect();
    let exact = asymptotic_variance(&kernel, &pi, &f);

    let seq = degree_sequence(&network, Box::new(Srw::new(NodeId(0))), 600_000, 3);
    let empirical = batch_means_variance(&seq, 300).unwrap();
    let ratio = empirical / exact;
    assert!(
        (0.7..1.4).contains(&ratio),
        "batch means {empirical} vs exact {exact} (ratio {ratio})"
    );
}

#[test]
fn cnrw_beats_srw_variance_on_facebook_standin() {
    let network = Arc::new(facebook_like(Scale::Test, 10).network);
    let steps = 300_000;
    let srw = batch_means_variance(
        &degree_sequence(&network, Box::new(Srw::new(NodeId(0))), steps, 4),
        150,
    )
    .unwrap();
    let cnrw = batch_means_variance(
        &degree_sequence(&network, Box::new(Cnrw::new(NodeId(0))), steps, 4),
        150,
    )
    .unwrap();
    // Theorem 2 guarantees <=; on a real-shaped graph we expect a strict win.
    assert!(cnrw < srw, "CNRW {cnrw} vs SRW {srw}");
}
