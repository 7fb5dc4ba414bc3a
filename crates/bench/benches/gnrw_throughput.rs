//! Microbenchmark: planless GNRW vs plan-backed GNRW, per degree profile.
//!
//! Both arms run the same walk — `GNRW_By_Degree`, Algorithm 2's step with
//! two `gen_range` draws on one edge-state layout, bit-identical traces —
//! and differ only in where a cold edge's neighbor partition comes from:
//!
//! * **scratch** — the planless path: the strategy and a partition by key
//!   over a copy of `N(v)`, at every step on a cold edge.
//! * **plan** — a precomputed [`GroupPlan`] (CSR partition, shared
//!   read-only): a cold edge reads the node's slice.
//!
//! Once an edge promotes it freezes its partition, so on hot edges the two
//! arms do the same work; the gap is the cold-edge partition cost. The two
//! dataset stand-ins are the degree profiles: facebook-like keeps
//! neighborhoods moderate (edges promote early, inline picks), gplus-like's
//! heavy tail exercises wide partitions, spilled cold edges and long
//! frozen group spans. Plans are built once per graph outside the timed
//! region — `repro perf` records the same arms to `BENCH_walkers.json`, so
//! regressions here show up in the committed baseline too.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use osn_bench::perf::bench_graphs;
use osn_experiments::runner::TrialPlan;
use osn_experiments::Algorithm;
use osn_walks::Grouping;

/// Full GNRW walks per graph: scratch vs plan.
fn gnrw_walks(c: &mut Criterion) {
    let graphs = bench_graphs();
    let alg = Algorithm::Gnrw(Grouping::by_degree());
    let steps = 20_000usize;

    let mut group = c.benchmark_group("gnrw_throughput");
    group.throughput(Throughput::Elements(steps as u64));
    for (gname, network) in &graphs {
        // Per-graph precomputation, shared read-only — never timed.
        let plan = Arc::new(alg.build_group_plan(network).expect("GNRW has a plan"));
        let arms: [(&str, TrialPlan); 2] = [
            ("scratch", TrialPlan::steps(network.clone(), steps)),
            (
                "plan",
                TrialPlan::steps(network.clone(), steps).with_group_plan(Arc::clone(&plan)),
            ),
        ];
        for (arm, trial) in &arms {
            group.bench_with_input(BenchmarkId::new(*arm, gname), trial, |b, trial| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    trial.run(&alg, seed).len()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, gnrw_walks);
criterion_main!(benches);
