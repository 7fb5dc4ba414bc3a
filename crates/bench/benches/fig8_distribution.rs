//! Figure 8 workload benchmark: one 10,000-step walk instance plus
//! distribution accumulation, for each of the three algorithms the paper
//! plots (SRW, CNRW, GNRW).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;

use osn_datasets::{facebook_like, Scale};
use osn_estimate::metrics::EmpiricalDistribution;
use osn_experiments::runner::TrialPlan;
use osn_experiments::Algorithm;
use osn_walks::Grouping;

fn fig8_instance(c: &mut Criterion) {
    let network = Arc::new(facebook_like(Scale::Default, 1).network);
    let n = network.graph.node_count();
    let steps = 10_000usize;

    let mut group = c.benchmark_group("fig8_instance");
    group.throughput(Throughput::Elements(steps as u64));
    for alg in [
        Algorithm::Srw,
        Algorithm::Cnrw,
        Algorithm::Gnrw(Grouping::by_degree()),
    ] {
        let plan = TrialPlan::steps(network.clone(), steps);
        group.bench_with_input(BenchmarkId::new(alg.label(), steps), &plan, |b, plan| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let trace = plan.run(&alg, seed);
                let mut d = EmpiricalDistribution::new(n);
                d.record_all(trace.nodes());
                d.total()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, fig8_instance);
criterion_main!(benches);
