//! Microbenchmark: the orchestrator's loop overhead against a hand-rolled
//! walk loop, plus the cost of an active restart policy.
//!
//! Both execution engines — the serial core (`WalkSession`,
//! `WalkOrchestrator::run_serial`) and the reactor — run one step core
//! (`osn_walks::orchestrator`). This bench pins what that sharing costs on
//! the hot path:
//!
//! * `handrolled_serial` — a plain walk loop (match on `walker.step`, push
//!   to a `Vec`), inlined here as the baseline;
//! * `orchestrator_serial_never` — the same walk through
//!   `WalkOrchestrator::run_serial` under the `Never` policy (identical
//!   trace; measures cell/driver bookkeeping);
//! * `orchestrator_serial_k4_never` — 4 walkers round-robin, the active-set
//!   scheduling the serial core adds;
//! * `orchestrator_serial_k4_steal` — the same fleet with `WorkStealing`
//!   enabled: per-step observation (window push, visited-set insert,
//!   frontier publish) plus cadence checks — the price of the policy, not
//!   of the refactor;
//! * `orchestrator_reactor_never` — the same 4-walker fleet on the reactor
//!   at B=8: the dispatch cost of the batch engine.
//!
//! `scripts/perf_check.sh` tracks the serial path's steps/sec through
//! `repro perf` (the committed `BENCH_walkers.json` baseline, 15% warn
//! tolerance); this bench is the microscope for *where* any regression
//! lives.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use osn_client::{BatchConfig, SimulatedBatchOsn, SimulatedOsn};
use osn_datasets::{gplus_like, Scale};
use osn_graph::NodeId;
use osn_walks::{
    Cnrw, Never, RandomWalk, SharedFrontier, WalkOrchestrator, WalkStop, WorkStealing,
};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

const STEPS: usize = 20_000;

fn orchestrator_overhead(c: &mut Criterion) {
    let network = Arc::new(gplus_like(Scale::Test, 2).network);
    let n = network.graph.node_count();
    let make_walker = |i: usize, _| {
        let start = NodeId(((i * 31) % n) as u32);
        Box::new(Cnrw::new(start)) as Box<dyn RandomWalk + Send>
    };

    let mut group = c.benchmark_group("orchestrator_overhead");
    group.throughput(Throughput::Elements(STEPS as u64));

    // A plain serial loop: the baseline every orchestrated number is read
    // against.
    group.bench_function(BenchmarkId::from_parameter("handrolled_serial"), |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut client = SimulatedOsn::new_shared(network.clone());
            let mut walker = Cnrw::new(NodeId(0));
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut nodes = Vec::with_capacity(STEPS);
            let mut stop = WalkStop::MaxSteps;
            for _ in 0..STEPS {
                match walker.step(&mut client, &mut rng) {
                    Ok(v) => nodes.push(v),
                    Err(_) => {
                        stop = WalkStop::BudgetExhausted;
                        break;
                    }
                }
            }
            (nodes.len(), stop)
        });
    });

    group.bench_function(
        BenchmarkId::from_parameter("orchestrator_serial_never"),
        |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut client = SimulatedOsn::new_shared(network.clone());
                WalkOrchestrator::new(1, STEPS, seed)
                    .run_serial(
                        &mut client,
                        |_, _| Box::new(Cnrw::new(NodeId(0))) as _,
                        |_| 0.0,
                        &Never,
                    )
                    .trace
                    .total_steps()
            });
        },
    );

    group.bench_function(
        BenchmarkId::from_parameter("orchestrator_serial_k4_never"),
        |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut client = SimulatedOsn::new_shared(network.clone());
                WalkOrchestrator::new(4, STEPS / 4, seed)
                    .run_serial(&mut client, make_walker, |v| v.index() as f64, &Never)
                    .trace
                    .total_steps()
            });
        },
    );

    group.bench_function(
        BenchmarkId::from_parameter("orchestrator_serial_k4_steal"),
        |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut client = SimulatedOsn::new_shared(network.clone());
                let policy = WorkStealing::new(1.1, 64, SharedFrontier::new());
                let report = WalkOrchestrator::new(4, STEPS / 4, seed).run_serial(
                    &mut client,
                    make_walker,
                    |v| v.index() as f64,
                    &policy,
                );
                (report.trace.total_steps(), report.restarts.len())
            });
        },
    );

    group.bench_function(
        BenchmarkId::from_parameter("orchestrator_reactor_never"),
        |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut client = SimulatedBatchOsn::new(
                    SimulatedOsn::new_shared(network.clone()),
                    BatchConfig::new(8).with_in_flight(4),
                );
                WalkOrchestrator::new(4, STEPS / 4, seed)
                    .run_reactor(&mut client, make_walker, |v| v.index() as f64, &Never)
                    .trace
                    .total_steps()
            });
        },
    );

    group.finish();
}

criterion_group!(benches, orchestrator_overhead);
criterion_main!(benches);
