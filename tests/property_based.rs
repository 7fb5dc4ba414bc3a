//! Property-based tests over random graphs and walk configurations.
//!
//! These exercise the core invariants on arbitrary topologies:
//! * builders always produce simple, symmetric CSR graphs;
//! * circulation covers each neighbor exactly once per cycle on any graph;
//! * every walker stays on edges of the graph and respects budgets;
//! * the ratio estimator is exact under exact degree-proportional visits.

use proptest::prelude::*;

use std::sync::Arc;

use osn_sampling::graph::analysis::components::is_connected;
use osn_sampling::graph::generators::erdos_renyi;
use osn_sampling::prelude::*;

/// Strategy: a connected random graph with 5..60 nodes.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (5usize..60, 0u64..1000).prop_map(|(n, seed)| {
        // Density above the connectivity threshold most of the time; the
        // generator stitches the rest.
        let p = (2.0 * (n as f64).ln() / n as f64).min(0.9);
        erdos_renyi(n, p, seed).expect("valid config")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_graphs_are_simple_and_symmetric(g in arb_graph()) {
        prop_assert!(is_connected(&g));
        for v in g.nodes() {
            let ns = g.neighbors(v);
            // sorted, no dup, no self-loop
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!ns.contains(&v));
            for &u in ns {
                prop_assert!(g.has_edge(u, v));
            }
        }
        let total: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, 2 * g.edge_count());
    }

    #[test]
    fn walkers_only_traverse_real_edges(
        g in arb_graph(),
        seed in 0u64..500,
        algo in 0usize..6,
    ) {
        let network = Arc::new(osn_sampling::graph::attributes::AttributedGraph::bare(g));
        let start = NodeId(0);
        let mut walker: Box<dyn RandomWalk> = match algo {
            0 => Box::new(Srw::new(start)),
            1 => Box::new(Mhrw::new(start)),
            2 => Box::new(NbSrw::new(start)),
            3 => Box::new(Cnrw::new(start)),
            4 => Box::new(Gnrw::new(start, Grouping::by_degree())),
            _ => Box::new(NbCnrw::new(start)),
        };
        let mut client = SimulatedOsn::new_shared(network.clone());
        let trace = WalkSession::new(WalkConfig::steps(200).with_seed(seed))
            .run(walker.as_mut(), &mut client);
        let mut prev = trace.start;
        for &v in trace.nodes() {
            prop_assert!(
                v == prev || network.graph.has_edge(prev, v),
                "illegal move {prev} -> {v}"
            );
            prev = v;
        }
    }

    #[test]
    fn budget_is_never_exceeded(
        g in arb_graph(),
        budget in 1u64..40,
        seed in 0u64..200,
    ) {
        let n = g.node_count();
        let network = Arc::new(osn_sampling::graph::attributes::AttributedGraph::bare(g));
        let client = SimulatedOsn::new_shared(network);
        let mut client = BudgetedClient::new(client, budget, n);
        let mut walker = Cnrw::new(NodeId(0));
        let trace = WalkSession::new(WalkConfig::steps(50_000).with_seed(seed))
            .run(&mut walker, &mut client);
        prop_assert!(trace.stats.unique <= budget);
    }

    #[test]
    fn ratio_estimator_exact_under_exact_stationary_visits(
        g in arb_graph(),
    ) {
        // Visit node v exactly deg(v) times: the empirical distribution is
        // exactly pi. The ratio estimator must recover the exact average
        // degree.
        let mut est = RatioEstimator::new();
        for v in g.nodes() {
            let k = g.degree(v);
            for _ in 0..k {
                est.push(k as f64, k);
            }
        }
        let truth = g.average_degree();
        let got = est.average_degree().unwrap();
        prop_assert!((got - truth).abs() < 1e-9, "{} vs {}", got, truth);
    }

    #[test]
    fn cnrw_circulation_covers_neighbors_once_per_cycle(
        g in arb_graph(),
        seed in 0u64..100,
    ) {
        use osn_sampling::walks::history::EdgeHistory;
        use rand::SeedableRng;
        // Pick the highest-degree node's neighbor list as the population.
        let v = g.nodes().max_by_key(|&v| g.degree(v)).unwrap();
        let population = g.neighbors(v);
        let mut c = EdgeHistory::new();
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
        for _ in 0..3 {
            let mut seen = std::collections::HashSet::new();
            for _ in 0..population.len() {
                let d = c.draw(NodeId(0), v, population, &mut rng).unwrap();
                prop_assert!(seen.insert(d), "repeat within a cycle");
            }
        }
    }
}
