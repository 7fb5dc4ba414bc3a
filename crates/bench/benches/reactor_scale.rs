//! Microbenchmark: how both execution engines scale with fleet size.
//!
//! The grid runs CNRW fleets of 1 / 100 / 10_000 walkers at fixed
//! steps-per-walker through (a) the poll-driven reactor against a batch
//! endpoint and (b) the serial core's round-robin waves against the plain
//! client — the same traces, so the gap is the reactor's dispatch cost
//! (dedup, parking, batch I/O simulation). Throughput is normalized to
//! walker-steps so the two arms are comparable at every fleet size.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use osn_client::{BatchConfig, SimulatedBatchOsn, SimulatedOsn};
use osn_datasets::{gplus_like, Scale};
use osn_graph::NodeId;
use osn_walks::{Cnrw, HistoryBackend, Never, RandomWalk, WalkOrchestrator};

const STEPS_PER_WALKER: usize = 64;
const FLEETS: [usize; 3] = [1, 100, 10_000];

fn endpoint(network: &Arc<osn_graph::attributes::AttributedGraph>) -> SimulatedBatchOsn {
    SimulatedBatchOsn::new(
        SimulatedOsn::new_shared(network.clone()),
        BatchConfig::new(256).with_in_flight(4),
    )
}

fn make_walker(n: usize) -> impl Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send> + Copy {
    move |i, _| Box::new(Cnrw::new(NodeId(((i * 13) % n) as u32))) as Box<dyn RandomWalk + Send>
}

fn reactor_scale(c: &mut Criterion) {
    let network = Arc::new(gplus_like(Scale::Test, 5).network);
    let n = network.graph.node_count();

    let mut group = c.benchmark_group("reactor_scale");
    for &walkers in &FLEETS {
        group.throughput(Throughput::Elements((walkers * STEPS_PER_WALKER) as u64));

        group.bench_function(
            BenchmarkId::from_parameter(format!("reactor_k{walkers}")),
            |b| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let mut client = endpoint(&network);
                    WalkOrchestrator::new(walkers, STEPS_PER_WALKER, seed)
                        .run_reactor(&mut client, make_walker(n), |v| v.index() as f64, &Never)
                        .trace
                        .total_steps()
                });
            },
        );

        group.bench_function(
            BenchmarkId::from_parameter(format!("serial_k{walkers}")),
            |b| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let mut client = SimulatedOsn::new_shared(network.clone());
                    WalkOrchestrator::new(walkers, STEPS_PER_WALKER, seed)
                        .run_serial(&mut client, make_walker(n), |v| v.index() as f64, &Never)
                        .trace
                        .total_steps()
                });
            },
        );
    }
    group.finish();

    // One instrumented run at the largest fleet: the memory story the
    // timings can't show — peaks stay pinned to the endpoint's in-flight
    // window no matter how many walkers are parked behind it.
    let walkers = FLEETS[FLEETS.len() - 1];
    let mut client = endpoint(&network);
    let (report, stats) = WalkOrchestrator::new(walkers, STEPS_PER_WALKER, 7)
        .run_reactor_with_stats(&mut client, make_walker(n), |v| v.index() as f64, &Never);
    eprintln!(
        "\nreactor at k={walkers} x {STEPS_PER_WALKER} steps: {} events for {} walker-steps; \
         peaks {} in-flight batches / {} queued ids / {} parked walkers",
        stats.events,
        report.trace.total_steps(),
        stats.peak_in_flight,
        stats.peak_queued,
        stats.peak_parked,
    );
}

criterion_group!(benches, reactor_scale);
criterion_main!(benches);
