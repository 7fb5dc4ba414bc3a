//! Integration: the paper's "drop-in replacement" contract.
//!
//! Every SRW-family walker must (a) run through the same generic driver,
//! (b) converge to the same degree-proportional stationary distribution,
//! and (c) plug into the same estimator pipeline unchanged.

use std::sync::Arc;

use osn_sampling::datasets::{facebook_like, Scale};
use osn_sampling::estimate::metrics::{total_variation, EmpiricalDistribution};
use osn_sampling::prelude::*;

fn srw_family(start: NodeId) -> Vec<(String, Box<dyn RandomWalk>)> {
    vec![
        ("SRW".into(), Box::new(Srw::new(start))),
        ("NB-SRW".into(), Box::new(NbSrw::new(start))),
        ("CNRW".into(), Box::new(Cnrw::new(start))),
        (
            "GNRW(degree)".into(),
            Box::new(Gnrw::new(start, Grouping::by_degree())),
        ),
        (
            "GNRW(log2 degree)".into(),
            Box::new(Gnrw::new(start, Grouping::degree_log2())),
        ),
        (
            "GNRW(hash)".into(),
            Box::new(Gnrw::new(start, Grouping::by_hash(5))),
        ),
        ("NB-CNRW".into(), Box::new(NbCnrw::new(start))),
    ]
}

#[test]
fn all_walkers_share_the_stationary_distribution() {
    let network = Arc::new(facebook_like(Scale::Test, 3).network);
    let theo = network.graph.degree_stationary_distribution();
    let n = network.graph.node_count();

    for (name, mut walker) in srw_family(NodeId(0)) {
        let mut client = SimulatedOsn::new_shared(network.clone());
        let trace = WalkSession::new(WalkConfig::steps(400_000).with_seed(1))
            .run(walker.as_mut(), &mut client);
        let mut dist = EmpiricalDistribution::new(n);
        dist.record_all(trace.nodes());
        let tv = total_variation(&theo, &dist.probabilities());
        assert!(tv < 0.03, "{name}: TV distance {tv} from k_v/2|E|");
    }
}

#[test]
fn walkers_are_interchangeable_in_the_driver() {
    let network = Arc::new(facebook_like(Scale::Test, 4).network);
    for (name, mut walker) in srw_family(NodeId(5)) {
        let client = SimulatedOsn::new_shared(network.clone());
        let mut client = BudgetedClient::new(client, 40, network.graph.node_count());
        let trace = WalkSession::new(WalkConfig::steps(100_000).with_seed(2))
            .run(walker.as_mut(), &mut client);
        assert!(trace.stats.unique <= 40, "{name} overspent the budget");
        assert!(!trace.is_empty(), "{name} made no progress");
        // Estimator pipeline identical for every walker.
        let mut est = RatioEstimator::new();
        for &v in trace.nodes() {
            let k = client.peek_degree(v);
            est.push(k as f64, k);
        }
        let estimate = est.average_degree().expect("non-empty trace");
        let truth = network.graph.average_degree();
        assert!(
            (estimate - truth).abs() / truth < 1.0,
            "{name}: estimate {estimate} wildly off from {truth}"
        );
    }
}

#[test]
fn mhrw_targets_uniform_instead() {
    let network = Arc::new(facebook_like(Scale::Test, 5).network);
    let n = network.graph.node_count();
    let mut client = SimulatedOsn::new_shared(network.clone());
    let mut walker = Mhrw::new(NodeId(0));
    let trace =
        WalkSession::new(WalkConfig::steps(400_000).with_seed(3)).run(&mut walker, &mut client);
    let mut dist = EmpiricalDistribution::new(n);
    dist.record_all(trace.nodes());
    let uniform = vec![1.0 / n as f64; n];
    let tv_uniform = total_variation(&uniform, &dist.probabilities());
    let tv_degree = total_variation(
        &network.graph.degree_stationary_distribution(),
        &dist.probabilities(),
    );
    assert!(tv_uniform < 0.05, "MHRW TV from uniform {tv_uniform}");
    assert!(
        tv_uniform < tv_degree,
        "MHRW should be closer to uniform ({tv_uniform}) than to degree ({tv_degree})"
    );
}

#[test]
fn identical_seed_identical_trace_for_every_walker() {
    let network = Arc::new(facebook_like(Scale::Test, 6).network);
    for (name, _) in srw_family(NodeId(1)) {
        let run = |seed: u64| {
            let (_, mut walker) = srw_family(NodeId(1))
                .into_iter()
                .find(|(n, _)| *n == name)
                .unwrap();
            let mut client = SimulatedOsn::new_shared(network.clone());
            WalkSession::new(WalkConfig::steps(2_000).with_seed(seed))
                .run(walker.as_mut(), &mut client)
                .nodes()
                .to_vec()
        };
        assert_eq!(run(7), run(7), "{name} is not reproducible");
        assert_ne!(run(7), run(8), "{name} ignores the seed");
    }
}
