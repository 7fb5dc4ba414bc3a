//! History-aware walks on "ill-formed" low-conductance graphs.
//!
//! ```text
//! cargo run --release --example ill_formed_graphs
//! ```
//!
//! Barbell and clustered-clique graphs are the worst case for random-walk
//! burn-in: a memoryless walk gets trapped inside a dense cluster. The
//! paper's Theorem 3 explains why CNRW escapes faster — revisiting an edge
//! redirects the walk to untried neighbors. This example measures the
//! escape behaviour and the resulting estimation quality.

use std::sync::Arc;

use osn_sampling::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

fn mean_escape_steps<F>(make: F, bell: usize, trials: u64) -> f64
where
    F: Fn(NodeId) -> Box<dyn RandomWalk>,
{
    let dataset = osn_sampling::datasets::barbell_graph_sized(bell, bell);
    let network = Arc::new(dataset.network);
    let mut total = 0u64;
    for t in 0..trials {
        let mut client = SimulatedOsn::new_shared(network.clone());
        let mut rng = ChaCha12Rng::seed_from_u64(t);
        let mut walker = make(NodeId(0));
        let mut steps = 0u64;
        loop {
            steps += 1;
            let v = walker
                .step(&mut client, &mut rng)
                .expect("unbudgeted client");
            if v.index() >= bell || steps > 500_000 {
                break;
            }
        }
        total += steps;
    }
    total as f64 / trials as f64
}

/// A labeled walker factory, boxed for heterogeneous comparison lists.
type WalkerFactory<'a> = (&'a str, Box<dyn Fn(NodeId) -> Box<dyn RandomWalk>>);

fn main() {
    println!("== Barbell escape (Theorem 3) ==\n");
    println!("start in the left bell; count steps until the right bell is reached\n");
    println!(
        "{:>6} {:>12} {:>12} {:>9}",
        "|G1|", "SRW steps", "CNRW steps", "speedup"
    );
    for bell in [10usize, 20, 30] {
        let srw = mean_escape_steps(|s| Box::new(Srw::new(s)), bell, 300);
        let cnrw = mean_escape_steps(|s| Box::new(Cnrw::new(s)), bell, 300);
        println!("{bell:>6} {srw:>12.1} {cnrw:>12.1} {:>8.2}x", srw / cnrw);
    }

    println!("\n== Clustered graph estimation (Figure 10 setting) ==\n");
    let dataset = osn_sampling::datasets::clustered_graph();
    let network = Arc::new(dataset.network);
    let truth = network.graph.average_degree();
    println!("three cliques (10/30/50 nodes) chained by bridges; true avg degree {truth:.2}\n");

    let budget = 80u64;
    let trials = 60;
    let algorithms: Vec<WalkerFactory> = vec![
        ("SRW   ", Box::new(|s| Box::new(Srw::new(s)))),
        ("NB-SRW", Box::new(|s| Box::new(NbSrw::new(s)))),
        ("CNRW  ", Box::new(|s| Box::new(Cnrw::new(s)))),
        (
            "GNRW  ",
            Box::new(|s| Box::new(Gnrw::new(s, Grouping::by_degree()))),
        ),
    ];
    for (name, make) in &algorithms {
        let mut total_err = 0.0;
        for t in 0..trials {
            let n = network.graph.node_count();
            let start = NodeId(((t * 7) % n as u64) as u32);
            let mut walker = make(start);
            let client = SimulatedOsn::new_shared(network.clone());
            let mut client = BudgetedClient::new(client, budget, n);
            let trace = WalkSession::new(WalkConfig::steps(200_000).with_seed(1000 + t))
                .run(walker.as_mut(), &mut client);
            let mut est = RatioEstimator::new();
            for &v in trace.nodes() {
                let k = client.peek_degree(v);
                est.push(k as f64, k);
            }
            total_err += est
                .average_degree()
                .map(|e| (e - truth).abs() / truth)
                .unwrap_or(1.0);
        }
        println!(
            "{name} mean relative error at {budget} queries: {:.4}",
            total_err / trials as f64
        );
    }
}
