//! Microbenchmark: session-server scheduling overhead.
//!
//! The grid runs one generated multi-tenant workload to completion at
//! several `rounds_per_slice` settings. Small slices maximize fairness
//! granularity but pay the scheduler (admission, tenant pick, cursor
//! rotation, stats deltas, re-keying the picked tenant) once per slice;
//! large slices amortize it toward the bare orchestrator cost. Throughput
//! is walker steps/sec across the whole fleet, so the spread between
//! `slice_1` and `slice_64` *is* the scheduling tax. A second group runs
//! `slice_1` over a growing tenant count: the scheduler's index makes a
//! slice cost O(log tenants), so steps/sec should stay roughly flat as the
//! fleet grows. A third group prices the snapshot/resume path: serialize a
//! mid-flight server to the osn-serde text form and restore it.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use osn_client::{BatchConfig, SimulatedBatchOsn, SimulatedOsn};
use osn_datasets::{gplus_like, Scale};
use osn_graph::attributes::AttributedGraph;
use osn_serde::Value;
use osn_service::traffic::{populate, TrafficConfig};
use osn_service::{ServerConfig, SessionServer};

const TENANTS: usize = 12;
const JOBS_PER_TENANT: usize = 2;
const BUDGET: u64 = 1_500;

/// Tenant counts of the scaling group.
const TENANT_COUNTS: [usize; 4] = [12, 48, 192, 480];
/// Shared budget per tenant in the scaling group: on the 20k-node stand-in
/// even 480 tenants exhaust it, so every size runs until the budget binds.
const BUDGET_PER_TENANT: u64 = 35;

fn endpoint(network: &Arc<AttributedGraph>, budget: u64) -> SimulatedBatchOsn {
    SimulatedBatchOsn::configured(
        SimulatedOsn::new_shared(network.clone()),
        BatchConfig::new(8).with_in_flight(4),
        Some(budget),
    )
}

fn server(
    network: &Arc<AttributedGraph>,
    tenants: usize,
    budget: u64,
    rounds_per_slice: usize,
    seed: u64,
) -> SessionServer {
    let mut server = SessionServer::new(
        endpoint(network, budget),
        ServerConfig::new().with_rounds_per_slice(rounds_per_slice),
    );
    populate(
        &mut server,
        &TrafficConfig::new(tenants, JOBS_PER_TENANT).with_seed(seed),
    );
    server
}

fn total_steps(server: &SessionServer) -> u64 {
    (0..server.tenants().len())
        .map(|t| server.tenant_stats(t).steps)
        .sum()
}

/// One throughput cell: probe the cell's step count once for the unit, then
/// time whole workloads run to completion on fresh seeds.
fn bench_cell(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: String,
    build: impl Fn(u64) -> SessionServer,
) {
    // Steps per completed workload are slice-size-independent only in
    // aggregate spirit, not exactly (the budget lands on different walks),
    // so measure each cell's own step count once for the throughput unit.
    let mut probe = build(7);
    probe.run_to_completion();
    group.throughput(Throughput::Elements(total_steps(&probe).max(1)));
    group.bench_function(BenchmarkId::from_parameter(id), |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut s = build(seed);
            s.run_to_completion();
            total_steps(&s)
        });
    });
}

fn service_throughput(c: &mut Criterion) {
    let network = Arc::new(gplus_like(Scale::Test, 2).network);

    let mut group = c.benchmark_group("service_throughput");
    for &rounds in &[1usize, 8, 64] {
        bench_cell(&mut group, format!("slice_{rounds}"), |seed| {
            server(&network, TENANTS, BUDGET, rounds, seed)
        });
    }
    group.finish();

    let large = Arc::new(gplus_like(Scale::Default, 2).network);
    let mut group = c.benchmark_group("service_tenant_scaling");
    for &tenants in &TENANT_COUNTS {
        bench_cell(&mut group, format!("slice_1_tenants_{tenants}"), |seed| {
            server(&large, tenants, BUDGET_PER_TENANT * tenants as u64, 1, seed)
        });
    }
    group.finish();

    // Snapshot/resume round-trip of a mid-flight server (the kill/resume
    // path the service soak exercises for correctness, priced here).
    let mut mid = server(&network, TENANTS, BUDGET, 8, 7);
    for _ in 0..30 {
        if !mid.step() {
            break;
        }
    }
    let text = mid.snapshot().expect("snapshot").to_pretty();
    let mut group = c.benchmark_group("service_snapshot");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function(BenchmarkId::from_parameter("snapshot_to_text"), |b| {
        b.iter(|| mid.snapshot().expect("snapshot").to_pretty().len());
    });
    group.bench_function(BenchmarkId::from_parameter("parse_and_resume"), |b| {
        b.iter(|| {
            let parsed = Value::parse(&text).expect("parse");
            SessionServer::resume(
                endpoint(&network, BUDGET),
                ServerConfig::new().with_rounds_per_slice(8),
                &parsed,
            )
            .expect("resume")
            .job_count()
        });
    });
    group.finish();
}

criterion_group!(benches, service_throughput);
criterion_main!(benches);
