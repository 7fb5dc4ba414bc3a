//! Figure 9 workload benchmark: GNRW step cost per grouping on the
//! Yelp stand-in — the ablation for the grouping design space (§4.1),
//! including the balanced-quantile vs value-bucketed variants.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;

use osn_datasets::{yelp_like, Scale};
use osn_graph::NodeId;
use osn_walks::{Gnrw, Grouping, RandomWalk, ValueBucketing, WalkConfig, WalkSession};

fn fig9_grouping(c: &mut Criterion) {
    let network = Arc::new(yelp_like(Scale::Test, 1).network);
    let steps = 10_000usize;

    let groupings = [
        ("by_degree_quantile", Grouping::by_degree()),
        ("by_degree_log2", Grouping::degree_log2()),
        ("by_attr_quantile", Grouping::by_attribute("reviews_count")),
        (
            "by_attr_log2",
            Grouping::attribute_bucketed("reviews_count", ValueBucketing::Log2),
        ),
        ("by_hash_8", Grouping::by_hash(8)),
    ];

    let mut group = c.benchmark_group("fig9_grouping");
    group.throughput(Throughput::Elements(steps as u64));
    for (name, grouping) in &groupings {
        group.bench_with_input(BenchmarkId::new("gnrw", name), name, |b, _| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut client = osn_client::SimulatedOsn::new_shared(network.clone());
                let mut walker = Gnrw::new(NodeId(0), grouping.clone());
                WalkSession::new(WalkConfig::steps(steps).with_seed(seed))
                    .run(&mut walker as &mut dyn RandomWalk, &mut client)
                    .len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, fig9_grouping);
criterion_main!(benches);
