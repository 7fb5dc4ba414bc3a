//! Microbenchmark: what does reading the graph **through the delta
//! overlay** cost, relative to the raw CSR slice?
//!
//! Three read paths over the same 20k-node Google Plus stand-in:
//!
//! * `base` — `CsrGraph::neighbors`, the floor;
//! * `overlay_empty` — `DeltaOverlay::neighbors` with no mutations: the
//!   advertised zero-cost passthrough (one empty-map probe);
//! * `overlay_patched` — the same read after a seeded mutation schedule
//!   patched ~5% of the nodes: untouched nodes still take the
//!   passthrough, touched ones serve their patch list.
//!
//! Plus the end-to-end view: a CNRW walk over a `SimulatedOsn` with a
//! pristine vs a patched overlay, which is the per-step price
//! `fig_evolving`'s delta arm actually pays.
//!
//! And the write side: `fleet_invalidate` drops one mutation epoch's
//! touched set from a warm CNRW fleet three ways — node-major per-node
//! calls, walker-major per-node calls, and one batched
//! `RandomWalk::invalidate_nodes` call per walker.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use osn_client::SimulatedOsn;
use osn_datasets::{gplus_like, Scale};
use osn_graph::{CsrGraph, DeltaOverlay, MutationSchedule, NodeId, ScheduleSpec};
use osn_walks::{Cnrw, RandomWalk, TouchedNodes};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

const SEED: u64 = 0x0E7A_BE4C;

fn patched_overlay(g: &CsrGraph, events: usize) -> DeltaOverlay {
    let spec = ScheduleSpec::new(events, 1.0, SEED).with_delete_fraction(0.4);
    let schedule = MutationSchedule::generate(g, &spec);
    DeltaOverlay::from_log(g, schedule.events())
}

/// Raw neighbor-slice reads: base CSR vs overlay passthrough vs patched.
fn neighbor_reads(c: &mut Criterion) {
    let g = gplus_like(Scale::Default, SEED).network.graph;
    let n = g.node_count();
    let reads = 65_536usize;
    let empty = DeltaOverlay::new();
    let patched = patched_overlay(&g, n / 20);
    let mut group = c.benchmark_group("overlay_reads");
    group.throughput(Throughput::Elements(reads as u64));
    let scan = |f: &dyn Fn(NodeId) -> usize| {
        let mut acc = 0usize;
        let mut v = 1usize;
        for _ in 0..reads {
            // Cheap LCG-ish node schedule, identical across variants.
            v = (v.wrapping_mul(48271)) % n;
            acc = acc.wrapping_add(f(NodeId(v as u32)));
        }
        acc
    };
    group.bench_function(BenchmarkId::new("neighbors", "base"), |b| {
        b.iter(|| scan(&|v| g.neighbors(v).len()))
    });
    group.bench_function(BenchmarkId::new("neighbors", "overlay_empty"), |b| {
        b.iter(|| scan(&|v| empty.neighbors(&g, v).len()))
    });
    group.bench_function(BenchmarkId::new("neighbors", "overlay_patched"), |b| {
        b.iter(|| scan(&|v| patched.neighbors(&g, v).len()))
    });
    group.finish();
}

/// End-to-end: CNRW steps through a `SimulatedOsn` whose overlay is
/// pristine vs patched — the per-step price of an evolving graph.
fn walk_overhead(c: &mut Criterion) {
    let g = gplus_like(Scale::Default, SEED).network.graph;
    let n = g.node_count();
    let steps = 8_192usize;
    let mut group = c.benchmark_group("overlay_walk");
    group.throughput(Throughput::Elements(steps as u64));
    for (label, events) in [("pristine", 0usize), ("patched", n / 20)] {
        let mut client = SimulatedOsn::from_graph(g.clone());
        if events > 0 {
            let spec = ScheduleSpec::new(events, 1.0, SEED).with_delete_fraction(0.4);
            let schedule = MutationSchedule::generate(client.graph(), &spec);
            client.apply_mutations(schedule.events());
        }
        group.bench_function(BenchmarkId::new("cnrw", label), |b| {
            b.iter(|| {
                let mut client = client.clone();
                let mut walker = Cnrw::new(NodeId(0));
                let mut rng = ChaCha12Rng::seed_from_u64(SEED);
                let mut acc = 0u64;
                for _ in 0..steps {
                    acc =
                        acc.wrapping_add(u64::from(walker.step(&mut client, &mut rng).unwrap().0));
                }
                acc
            })
        });
    }
    group.finish();
}

/// Fleet-wide history invalidation after one mutation epoch: 2,000 CNRW
/// walkers warmed 256 steps each (the `evolving_fleet` fleet), then the
/// touched set of the first of 8 epochs of a 200-event schedule. Arms:
///
/// * `node_major` — for each touched node, every walker's
///   `invalidate_node`: one history sweep per node per walker;
/// * `walker_major` — for each walker, `invalidate_node` per touched node:
///   the same sweeps in walker order, which is what the trait's default
///   `invalidate_nodes` gives a wrapper that overrides only the per-node
///   method;
/// * `batched` — the touched set built once, then one `invalidate_nodes`
///   sweep per walker.
///
/// A sweep costs the same whether or not a slot matches, so every
/// iteration after the first (which drops the matches) measures the same
/// work on the same fleet.
fn fleet_invalidate(c: &mut Criterion) {
    const WALKERS: usize = 2_000;
    const WARM_STEPS: usize = 256;
    let g = gplus_like(Scale::Default, SEED).network.graph;
    let n = g.node_count();
    let mut client = SimulatedOsn::from_graph(g);
    let mut rng = ChaCha12Rng::seed_from_u64(SEED);
    let mut fleet: Vec<Cnrw> = (0..WALKERS)
        .map(|i| Cnrw::new(NodeId(((i * 13) % n) as u32)))
        .collect();
    for walker in &mut fleet {
        for _ in 0..WARM_STEPS {
            walker.step(&mut client, &mut rng).unwrap();
        }
    }
    let spec = ScheduleSpec::new(200, 8.0, SEED).with_delete_fraction(0.4);
    let mut schedule = MutationSchedule::generate(client.graph(), &spec);
    let touched = client.apply_mutations(schedule.due(1.0));
    let mut group = c.benchmark_group("fleet_invalidate");
    group.throughput(Throughput::Elements(WALKERS as u64));
    group.bench_function(BenchmarkId::new("cnrw", "node_major"), |b| {
        b.iter(|| {
            let mut dropped = 0;
            for &v in &touched {
                for walker in &mut fleet {
                    dropped += walker.invalidate_node(v);
                }
            }
            dropped
        })
    });
    group.bench_function(BenchmarkId::new("cnrw", "walker_major"), |b| {
        b.iter(|| {
            let mut dropped = 0;
            for walker in &mut fleet {
                for &v in &touched {
                    dropped += walker.invalidate_node(v);
                }
            }
            dropped
        })
    });
    group.bench_function(BenchmarkId::new("cnrw", "batched"), |b| {
        b.iter(|| {
            let set = TouchedNodes::new(&touched);
            fleet
                .iter_mut()
                .map(|walker| walker.invalidate_nodes(&set))
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, neighbor_reads, walk_overhead, fleet_invalidate);
criterion_main!(benches);
