//! Workspace smoke test: every walker completes a seeded walk on a small
//! generated graph, moves only along real edges, is deterministic under its
//! seed, and the history-aware walkers keep the SRW stationary distribution
//! (Theorem 1: visit frequency proportional to degree).

use std::collections::HashMap;
use std::sync::Arc;

use osn_sampling::graph::attributes::AttributedGraph;
use osn_sampling::graph::generators::erdos_renyi;
use osn_sampling::prelude::*;

fn small_network() -> Arc<AttributedGraph> {
    let g = erdos_renyi(60, 0.15, 42).expect("valid generator config");
    Arc::new(AttributedGraph::bare(g))
}

/// One instance of every walker the paper evaluates.
fn all_walkers(start: NodeId) -> Vec<Box<dyn RandomWalk>> {
    vec![
        Box::new(Srw::new(start)),
        Box::new(Mhrw::new(start)),
        Box::new(NbSrw::new(start)),
        Box::new(Cnrw::new(start)),
        Box::new(Gnrw::new(start, Grouping::by_degree())),
        Box::new(NbCnrw::new(start)),
    ]
}

#[test]
fn every_walker_completes_a_seeded_10k_step_walk() {
    let network = small_network();
    for mut walker in all_walkers(NodeId(0)) {
        let name = walker.name().to_string();
        let mut client = SimulatedOsn::new_shared(network.clone());
        let trace = WalkSession::new(WalkConfig::steps(10_000).with_seed(7))
            .run(walker.as_mut(), &mut client);
        assert_eq!(trace.len(), 10_000, "{name} finished early");

        // Every transition must follow a real edge (MHRW may self-loop on
        // rejection).
        let mut prev = trace.start;
        for &v in trace.nodes() {
            assert!(
                v == prev || network.graph.has_edge(prev, v),
                "{name} made an illegal move {prev} -> {v}"
            );
            prev = v;
        }
    }
}

#[test]
fn every_walker_is_deterministic_under_its_seed() {
    let network = small_network();
    for (mut a, mut b) in all_walkers(NodeId(3))
        .into_iter()
        .zip(all_walkers(NodeId(3)))
    {
        let name = a.name().to_string();
        let run = |w: &mut dyn RandomWalk| {
            let mut client = SimulatedOsn::new_shared(network.clone());
            WalkSession::new(WalkConfig::steps(2_000).with_seed(99)).run(w, &mut client)
        };
        assert_eq!(
            run(a.as_mut()).nodes(),
            run(b.as_mut()).nodes(),
            "{name} not deterministic under fixed seed"
        );
    }
}

/// Total variation distance between a trace's empirical visit distribution
/// and the degree-proportional stationary distribution `k_v / 2|E|`.
fn tv_distance_from_degree_stationary(network: &AttributedGraph, nodes: &[NodeId]) -> f64 {
    let mut visits: HashMap<u32, f64> = HashMap::new();
    for &v in nodes {
        *visits.entry(v.0).or_insert(0.0) += 1.0;
    }
    let total = nodes.len() as f64;
    let two_m = (2 * network.graph.edge_count()) as f64;
    network
        .graph
        .nodes()
        .map(|v| {
            let empirical = visits.get(&v.0).copied().unwrap_or(0.0) / total;
            let pi = network.graph.degree(v) as f64 / two_m;
            (empirical - pi).abs()
        })
        .sum::<f64>()
        / 2.0
}

#[test]
fn cnrw_and_gnrw_visit_frequency_tracks_degree() {
    // Theorem 1 sanity check: the history-aware walkers must keep SRW's
    // stationary distribution. 200k steps on a 60-node graph gives TV
    // distance well under 0.03 for an unbiased sampler; a biased one (e.g.
    // uniform) sits above 0.15 on this topology.
    let network = small_network();
    let walkers: Vec<(&str, Box<dyn RandomWalk>)> = vec![
        ("CNRW", Box::new(Cnrw::new(NodeId(0)))),
        (
            "GNRW",
            Box::new(Gnrw::new(NodeId(0), Grouping::by_degree())),
        ),
        (
            "GNRW(log2 degree)",
            Box::new(Gnrw::new(NodeId(0), Grouping::degree_log2())),
        ),
    ];
    for (name, mut walker) in walkers {
        let mut client = SimulatedOsn::new_shared(network.clone());
        let trace = WalkSession::new(WalkConfig::steps(200_000).with_seed(11))
            .run(walker.as_mut(), &mut client);
        let tv = tv_distance_from_degree_stationary(&network, trace.nodes());
        assert!(
            tv < 0.03,
            "{name} visit frequency far from degree-proportional: TV {tv}"
        );
    }
}
