//! A session server's scheduling slices and checkpoint cycles allocate
//! per job, not per id or per item: a slice reuses the reactor's act and
//! classify buffers and the id lists of completed batches, `parse` moves
//! each object and integer column out of its scratch stacks as one block
//! of exact size, and `resume` builds each dispatch id set at once. The
//! server is the benchmark's multi-tenant shape (one-round slices, every
//! endpoint realism knob on, a contended shared budget) over the Test-scale
//! gplus stand-in. Allocations are counted on this test's thread only, by a
//! counting global allocator, so the harness's other threads do not add to
//! them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use osn_sampling::datasets::{gplus_like, Scale};
use osn_sampling::graph::attributes::AttributedGraph;
use osn_sampling::prelude::*;
use osn_sampling::service::traffic::populate;

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

const SEED: u64 = 7;
const TENANTS: usize = 24;
/// Slices run before the checkpoint cycle.
const SLICES: usize = 1_500;

fn endpoint(network: &Arc<AttributedGraph>) -> SimulatedBatchOsn {
    let batch = BatchConfig::new(8)
        .with_in_flight(4)
        .with_rate_limit(RateLimitConfig {
            calls_per_window: 200,
            window_secs: 1.0,
        })
        .with_latency(0.002, 0.001)
        .with_per_id_latency(0.0002)
        .with_failure_every(23)
        .with_drop_node_every(37)
        .with_seed(SEED ^ 0x5EED);
    SimulatedBatchOsn::configured(
        SimulatedOsn::new_shared(Arc::clone(network)),
        batch,
        Some(600),
    )
}

fn config() -> ServerConfig {
    ServerConfig::new().with_rounds_per_slice(1)
}

/// Allocations of `f`, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocations();
    let out = f();
    (allocations() - before, out)
}

#[test]
fn slices_and_checkpoint_cycles_allocate_per_job() {
    let network = Arc::new(gplus_like(Scale::Test, SEED).network);
    let mut server = SessionServer::new(endpoint(&network), config());
    populate(
        &mut server,
        &TrafficConfig::new(TENANTS, 2)
            .with_seed(SEED)
            .with_max_steps(1200)
            .with_max_walkers(1),
    );
    let (slice_allocs, ran) = counted(|| (0..SLICES).take_while(|_| server.step()).count());
    assert_eq!(ran, SLICES, "the server settled before the checkpoint");
    let running = (0..server.job_count())
        .filter(|&id| server.job_state(id) == JobState::Running)
        .count();

    let text = server.snapshot().unwrap().to_pretty();
    let (parse_allocs, parsed) = counted(|| Value::parse(&text).unwrap());
    let (resume_allocs, resumed) =
        counted(|| SessionServer::resume(endpoint(&network), config(), &parsed).unwrap());
    assert_eq!(
        resumed.snapshot().unwrap().to_pretty(),
        text,
        "the resumed server's snapshot differs from the text it was resumed from"
    );
    assert!(running >= 40, "only {running} jobs run at the checkpoint");
    // The counts were 2.99, 3,871 and 808 when pinned; before the buffers
    // were reused they were 6.48, 4,710 and 1,213.
    let per_slice = slice_allocs as f64 / SLICES as f64;
    let at = format!("{running} running jobs, {} bytes of text", text.len());
    assert!(
        per_slice <= 3.2,
        "{at}: {per_slice:.3} allocations per slice (bound 3.2)"
    );
    assert!(
        parse_allocs <= 4_000,
        "{at}: parse made {parse_allocs} allocations (bound 4,000)"
    );
    assert!(
        resume_allocs <= 850,
        "{at}: resume made {resume_allocs} allocations (bound 850)"
    );
}
