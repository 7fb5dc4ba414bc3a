//! Aggregate estimation with attribute-aligned GNRW grouping.
//!
//! ```text
//! cargo run --release --example aggregate_estimation
//! ```
//!
//! The paper's §4.1 design insight: if you know which aggregate your samples
//! will feed (here: the average `reviews_count` of all users of a Yelp-like
//! network), choose the GNRW grouping strategy that stratifies neighbors by
//! that same attribute. The walk then alternates across attribute strata
//! instead of lingering inside a community of similar users.

use std::sync::Arc;

use osn_sampling::prelude::*;

/// A labeled walker factory, boxed for heterogeneous comparison lists.
type WalkerFactory<'a> = (&'a str, Box<dyn Fn(NodeId) -> Box<dyn RandomWalk>>);

fn main() {
    // Yelp-like network: heavy-tailed `reviews_count` correlated with
    // community structure (homophily).
    let dataset = osn_sampling::datasets::yelp_like(Scale::Test, 7);
    let network = Arc::new(dataset.network);
    let truth = network
        .attributes
        .population_mean("reviews_count")
        .expect("attribute exists");
    println!(
        "network: {} users, {} friendships",
        network.graph.node_count(),
        network.graph.edge_count()
    );
    println!("ground truth average reviews_count: {truth:.2}\n");

    let budget = 150u64;
    let trials = 30;
    println!("estimating with {budget} unique queries, {trials} trials each:\n");

    // Three strategies: plain SRW, GNRW grouped by an unrelated hash, and
    // GNRW grouped by the aggregated attribute itself.
    let strategies: Vec<WalkerFactory> = vec![
        (
            "SRW                      ",
            Box::new(|s| Box::new(Srw::new(s))),
        ),
        (
            "GNRW grouped by hash     ",
            Box::new(|s| Box::new(Gnrw::new(s, Grouping::by_hash(4)))),
        ),
        (
            "GNRW grouped by attribute",
            Box::new(|s| Box::new(Gnrw::new(s, Grouping::by_attribute("reviews_count")))),
        ),
    ];

    for (name, make) in &strategies {
        let mut total_err = 0.0;
        for t in 0..trials {
            let n = network.graph.node_count();
            let start = NodeId(((t as usize * 37) % n) as u32);
            let mut walker = make(start);
            let client = SimulatedOsn::new_shared(network.clone());
            let mut client = BudgetedClient::new(client, budget, n);
            let trace = WalkSession::new(WalkConfig::steps(500_000).with_seed(t as u64))
                .run(walker.as_mut(), &mut client);

            let mut est = RatioEstimator::new();
            for &v in trace.nodes() {
                let reviews = client
                    .peek_attribute(v, "reviews_count")
                    .expect("attribute visible via the interface");
                est.push(reviews, client.peek_degree(v));
            }
            if let Some(estimate) = est.mean() {
                total_err += (estimate - truth).abs() / truth;
            } else {
                total_err += 1.0;
            }
        }
        println!(
            "{name}  mean relative error: {:.4}",
            total_err / trials as f64
        );
    }

    println!("\nBoth GNRW variants beat SRW: stratified circulation spreads the");
    println!("walk across neighbor groups instead of lingering in one community.");
    println!("At this scale hash- and attribute-grouping are within noise of each");
    println!("other; the full Figure 9 sweep (`repro fig9`) runs the comparison");
    println!("with 1000 trials per point.");
}
