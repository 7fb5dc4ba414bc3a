//! Integration: the paper's cost model, end to end.
//!
//! Unique queries are the only charged resource; caches make repeats free;
//! rate limits translate unique queries into virtual wall-clock time; and
//! all of it composes with any walker and the multi-walker driver.

use std::sync::Arc;

use osn_sampling::client::{RateLimitConfig, RateLimitedOsn};
use osn_sampling::datasets::{clustered_graph, facebook_like, Scale};
use osn_sampling::prelude::*;

#[test]
fn unique_queries_equal_distinct_visited_nodes() {
    let network = Arc::new(facebook_like(Scale::Test, 1).network);
    let mut client = SimulatedOsn::new_shared(network.clone());
    let mut walker = Cnrw::new(NodeId(0));
    let trace =
        WalkSession::new(WalkConfig::steps(3_000).with_seed(2)).run(&mut walker, &mut client);

    // Every queried node is a visited node (plus the start).
    let mut distinct: std::collections::HashSet<NodeId> = trace.nodes().iter().copied().collect();
    distinct.insert(trace.start);
    assert_eq!(trace.stats.unique as usize, distinct.len());
    // Everything else was a cache hit.
    assert_eq!(
        trace.stats.issued,
        trace.stats.unique + trace.stats.cache_hits
    );
    // Exactly one neighbor query per step for CNRW.
    assert_eq!(trace.stats.issued as usize, trace.len());
}

#[test]
fn rate_limit_time_is_proportional_to_unique_queries() {
    let network = clustered_graph().network;
    let limit = RateLimitConfig {
        calls_per_window: 1,
        window_secs: 60.0,
    };
    let inner = SimulatedOsn::new(network);
    let mut client = RateLimitedOsn::new(inner, limit);
    let mut walker = Srw::new(NodeId(0));
    let trace = WalkSession::new(WalkConfig::steps(400).with_seed(3)).run(&mut walker, &mut client);
    let unique = trace.stats.unique;
    // First query is free (token available); each further unique query waits
    // one 60s window.
    let expected = 60.0 * (unique.saturating_sub(1)) as f64;
    assert_eq!(client.clock().elapsed_secs(), expected);
}

#[test]
fn budget_composes_with_rate_limit_and_multiwalk() {
    let network = Arc::new(facebook_like(Scale::Test, 4).network);
    let n = network.graph.node_count();
    let inner = SimulatedOsn::new_shared(network.clone());
    let limited = RateLimitedOsn::new(inner, RateLimitConfig::twitter());
    let mut client = BudgetedClient::new(limited, 30, n);

    let trace = WalkOrchestrator::new(3, 2_000, 5)
        .run_serial(
            &mut client,
            |i, _| Box::new(Cnrw::new(NodeId(i as u32 * 7))) as _,
            |_| 1.0,
            &Never,
        )
        .trace;
    assert!(
        trace.stats.unique <= 30,
        "budget leaked: {}",
        trace.stats.unique
    );
    assert!(trace.total_steps() > 0);
    // Cache sharing: pooled distinct nodes <= budget + starts.
    let distinct: std::collections::HashSet<NodeId> = trace.pooled().collect();
    assert!(distinct.len() <= 33);
}

#[test]
fn walkers_cannot_observe_uncached_topology() {
    // A budget-limited client refuses new nodes; a walk that exhausted its
    // budget can only revisit what it paid for — the trace's node set must
    // therefore be bounded by budget + 1 regardless of walk length.
    let network = Arc::new(clustered_graph().network);
    let n = network.graph.node_count();
    for budget in [5u64, 15, 40] {
        let client = SimulatedOsn::new_shared(network.clone());
        let mut client = BudgetedClient::new(client, budget, n);
        let mut walker = Srw::new(NodeId(0));
        let trace = WalkSession::new(WalkConfig::steps(100_000).with_seed(budget))
            .run(&mut walker, &mut client);
        let mut distinct: std::collections::HashSet<NodeId> =
            trace.nodes().iter().copied().collect();
        distinct.insert(trace.start);
        assert!(
            distinct.len() as u64 <= budget + 1,
            "budget {budget}: saw {} distinct nodes",
            distinct.len()
        );
    }
}
