//! History-aware walkers allocate nothing on a cold step once their
//! buffers fit the neighborhoods they meet. A GNRW walker with rank-quantile
//! grouping sorts its ranks in a buffer it keeps, as it keeps its keys, its
//! partition and its partition memo. A CNRW walker's cold edges keep their
//! first picks in the history's map entry and their later ones in chunks of
//! a pool the history keeps, so an edge allocates only when it spills to a
//! hash set. Allocations are counted on this test's thread only, by a
//! counting global allocator, so the harness's other threads do not add to
//! them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use osn_sampling::client::SimulatedOsn;
use osn_sampling::datasets::{gplus_like, Scale};
use osn_sampling::graph::NodeId;
use osn_sampling::walks::{Cnrw, Gnrw, Grouping, RandomWalk};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

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

const WINDOW: u64 = 200_000;

/// Allocations per step over `WINDOW` steps.
fn per_step(walker: &mut dyn RandomWalk, client: &mut SimulatedOsn, rng: &mut ChaCha12Rng) -> f64 {
    let before = allocations();
    for _ in 0..WINDOW {
        walker.step(client, rng).expect("no budget");
    }
    (allocations() - before) as f64 / WINDOW as f64
}

/// Allocations per step of `walker` on `gplus_like(Scale::Test, 7)` over
/// two consecutive windows, both at most 0.001.
fn assert_cold_steps_allocate_nothing(mut walker: impl RandomWalk) {
    let network = gplus_like(Scale::Test, 7).network;
    let mut client = SimulatedOsn::new(network);
    let mut rng = ChaCha12Rng::seed_from_u64(7);
    let first = per_step(&mut walker, &mut client, &mut rng);
    let next = per_step(&mut walker, &mut client, &mut rng);
    assert!(
        first <= 0.001 && next <= 0.001,
        "allocations per step: {first:.4} over the first {WINDOW} steps, {next:.4} over the next"
    );
}

#[test]
fn quantile_grouping_allocates_nothing_per_cold_step() {
    assert_cold_steps_allocate_nothing(Gnrw::new(NodeId(0), Grouping::by_degree()));
}

#[test]
fn cnrw_allocates_nothing_per_cold_step() {
    assert_cold_steps_allocate_nothing(Cnrw::new(NodeId(0)));
}
