//! Microbenchmark: scratch GNRW vs plan-backed GNRW, per degree profile.
//!
//! The plan ablation in vitro — two execution paths for the same
//! `GNRW_By_Degree` walk:
//!
//! * **scratch** — the planless path: partition `N(v)` by key on every
//!   historied step, two `gen_range` draws straight off the stream.
//! * **plan_alias** — the production fast path: a precomputed
//!   [`GroupPlan`] (CSR partition, zero hashing/allocation per step),
//!   batched draws, and alias-table group proposals with rejection against
//!   the attempted/exhausted sets.
//!
//! The two dataset stand-ins are the degree profiles: facebook-like keeps
//! neighborhoods moderate (inline-friendly group sets), gplus-like's heavy
//! tail exercises wide partitions, sliced plan slots, and the alias
//! tables' rejection bound. Plans are built once per graph outside the
//! timed region — `repro perf` records the same arms to
//! `BENCH_walkers.json`, so regressions here show up in the committed
//! baseline too.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use osn_bench::perf::bench_graphs;
use osn_experiments::runner::TrialPlan;
use osn_experiments::{Algorithm, GroupingSpec};

/// Full GNRW walks per graph: scratch vs plan-alias.
fn gnrw_walks(c: &mut Criterion) {
    let graphs = bench_graphs();
    let alg = Algorithm::Gnrw(GroupingSpec::ByDegree);
    let steps = 20_000usize;

    let mut group = c.benchmark_group("gnrw_throughput");
    group.throughput(Throughput::Elements(steps as u64));
    for (gname, network) in &graphs {
        // Per-graph precomputation, shared read-only — never timed.
        let plan = Arc::new(alg.build_group_plan(network).expect("GNRW has a plan"));
        let arms: [(&str, TrialPlan); 2] = [
            ("scratch", TrialPlan::steps(network.clone(), steps)),
            (
                "plan_alias",
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
