//! Microbenchmark: transition throughput of every walker.
//!
//! The paper's §3.3/§4.2 complexity claims — amortized `O(1)` expected time
//! per CNRW step, `O(deg)` for GNRW — show up here as steps/second. This is
//! the ablation that justifies "history costs almost nothing locally while
//! saving remote queries". `repro perf` records the same walkers to
//! `BENCH_walkers.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use osn_bench::perf::bench_graphs;
use osn_experiments::runner::TrialPlan;
use osn_experiments::{Algorithm, GroupingSpec};

fn walker_throughput(c: &mut Criterion) {
    let graphs = bench_graphs();
    let algorithms = [
        Algorithm::Srw,
        Algorithm::Mhrw,
        Algorithm::NbSrw,
        Algorithm::Cnrw,
        Algorithm::Gnrw(GroupingSpec::ByDegree),
        Algorithm::Gnrw(GroupingSpec::ByHash(8)),
        Algorithm::NbCnrw,
    ];
    let steps = 20_000usize;

    let mut group = c.benchmark_group("walker_throughput");
    group.throughput(Throughput::Elements(steps as u64));
    for (gname, network) in &graphs {
        for alg in &algorithms {
            let plan = TrialPlan::steps(network.clone(), steps);
            group.bench_with_input(BenchmarkId::new(alg.label(), gname), &plan, |b, plan| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    plan.run(alg, seed).len()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, walker_throughput);
criterion_main!(benches);
