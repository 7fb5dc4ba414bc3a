//! A reactor fleet allocates well under one heap block per step: parking a
//! walker on a node links it into that node's waiter list and allocates
//! nothing, and the run's id sets grow as bitsets, a word per 64 ids. The
//! fleets run through the endpoint shape of the benchmark's reactor
//! workloads (batch 256, in-flight 4, latency with jitter, per-id latency,
//! a failed attempt every 23rd and a dropped id every 37th), and starts are
//! spread over the id space. Allocations are counted on this test's thread
//! only, by a counting global allocator, so the harness's other threads do
//! not add to them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use osn_sampling::client::batch::{BatchConfig, SimulatedBatchOsn};
use osn_sampling::client::SimulatedOsn;
use osn_sampling::datasets::{gplus_like, Scale};
use osn_sampling::graph::NodeId;
use osn_sampling::walks::{
    Cnrw, Gnrw, Grouping, HistoryBackend, Never, RandomWalk, WalkOrchestrator,
};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations and
/// reallocations.
struct ThreadCounting;

fn count() {
    // `try_with`: a thread's allocations after its locals are gone are
    // not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter only observes calls.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ThreadCounting = ThreadCounting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

const WALKERS: usize = 2_000;
const STEPS: usize = 64;
const SEED: u64 = 7;

/// Allocations per step of one reactor fleet run of walkers `make(start)`
/// over a fresh endpoint, fleet construction included.
fn per_step(client: &SimulatedOsn, make: fn(NodeId) -> Box<dyn RandomWalk + Send>) -> f64 {
    let n = client.graph().node_count();
    let stride = n / WALKERS;
    let config = BatchConfig::new(256)
        .with_in_flight(4)
        .with_latency(0.005, 0.002)
        .with_per_id_latency(0.0001)
        .with_failure_every(23)
        .with_drop_node_every(37)
        .with_seed(SEED ^ 0x5EED);
    let mut endpoint = SimulatedBatchOsn::new(client.clone(), config);
    let orch = WalkOrchestrator::new(WALKERS, STEPS, SEED);
    let before = allocations();
    let (report, _) = orch.run_reactor_with_stats(
        &mut endpoint,
        |i: usize, _: HistoryBackend| make(NodeId::from_index(i * stride % n)),
        |v: NodeId| v.index() as f64,
        &Never,
    );
    let allocs = allocations() - before;
    let steps = report.trace.total_steps();
    assert_eq!(steps, WALKERS * STEPS, "every walker walks its full length");
    allocs as f64 / steps as f64
}

#[test]
fn reactor_fleets_allocate_nothing_to_park_a_walker() {
    let client = SimulatedOsn::new(gplus_like(Scale::Default, SEED).network);
    let cnrw = per_step(&client, |start| Box::new(Cnrw::new(start)));
    let gnrw = per_step(&client, |start| {
        Box::new(Gnrw::new(start, Grouping::degree_log2()))
    });
    assert!(
        cnrw <= 0.36 && gnrw <= 0.48,
        "allocations per step: CNRW {cnrw:.3} (bound 0.36), GNRW by log2 degree {gnrw:.3} (bound 0.48)"
    );
}
