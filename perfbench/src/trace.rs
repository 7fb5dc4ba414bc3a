//! In-memory tracing for the benchmark's traced run.
//!
//! Two kinds of records, both kept in memory and written out once the run
//! ends:
//!
//! * **spans** around coarse calls into a layer (a reactor run, one
//!   service slice, a snapshot) — name, start, end and the enclosing span;
//! * **calls** of the fine-grained seams the decorators wrap (a walker
//!   `step`, a batch `submit`/`poll`) — only the duration is kept, so
//!   millions of them fit in a few tens of MiB.
//!
//! Both charge their duration to the enclosing span's child time, so a
//! span's *self* time is its duration minus the time its children cover.
//! Recording is off by default: [`span`] then costs one thread-local read,
//! and the decorators are only installed in traced passes.
//!
//! The module also hosts the counting global allocator, which counts only
//! while [`set_alloc_counting`] is on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `reactor.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since recording was enabled.
    pub start_ns: u64,
    /// End, in nanoseconds since recording was enabled.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Trace::spans`].
    pub parent: Option<usize>,
    /// Time covered by child spans and calls.
    pub child_ns: u64,
}

impl Span {
    /// Duration minus the time covered by children.
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns)
    }
}

/// Durations of one wrapped seam.
#[derive(Clone, Debug, Default)]
pub struct Calls {
    /// Per-call durations, in nanoseconds, in call order.
    pub durations_ns: Vec<u32>,
    /// Sum of `durations_ns`.
    pub total_ns: u64,
}

impl Calls {
    /// Median per-call duration in nanoseconds (0 without calls).
    pub fn median_ns(&self) -> f64 {
        let mut ns: Vec<f64> = self.durations_ns.iter().map(|&d| f64::from(d)).collect();
        crate::stats::median(&mut ns)
    }
}

/// Everything recorded between [`start`] and [`finish`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Spans in opening order.
    pub spans: Vec<Span>,
    /// Wrapped seams by name.
    pub calls: BTreeMap<&'static str, Calls>,
    /// When recording started; span times count from here.
    pub origin: Option<Instant>,
}

impl Trace {
    /// Append `other`, recorded later, re-basing its span times and
    /// parent indices onto this trace.
    pub fn absorb(&mut self, other: Trace) {
        let shift = match (self.origin, other.origin) {
            (Some(mine), Some(theirs)) => {
                u64::try_from(theirs.saturating_duration_since(mine).as_nanos()).unwrap_or(0)
            }
            _ => 0,
        };
        if self.origin.is_none() {
            self.origin = other.origin;
        }
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (name, calls) in other.calls {
            let mine = self.calls.entry(name).or_default();
            mine.durations_ns.extend(calls.durations_ns);
            mine.total_ns += calls.total_ns;
        }
    }

    /// Total duration of every span named `name`.
    pub fn span_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Total self time of every span named `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::self_ns)
            .sum()
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn span_durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// The calls recorded for seam `name` (empty when never called).
    pub fn calls(&self, name: &str) -> Calls {
        self.calls.get(name).cloned().unwrap_or_default()
    }

    /// Total time spent in seam `name`.
    pub fn call_ns(&self, name: &str) -> u64 {
        self.calls.get(name).map_or(0, |c| c.total_ns)
    }
}

/// The traced repetitions of one run: everything they recorded and the
/// allocations they made.
#[derive(Debug, Default)]
pub struct TracedPasses {
    /// Spans and calls of every traced repetition.
    pub trace: Trace,
    /// Allocations counted.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
}

impl TracedPasses {
    /// Run one traced repetition `f`, recording and counting allocations.
    pub fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        start();
        set_alloc_counting(true);
        let out = f();
        set_alloc_counting(false);
        self.trace.absorb(finish());
        let (allocs, bytes) = alloc_counts();
        self.allocs += allocs;
        self.alloc_bytes += bytes;
        out
    }
}

struct Recorder {
    origin: Instant,
    open: Vec<usize>,
    trace: Trace,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Begin recording on this thread, discarding anything recorded before.
pub fn start() {
    RECORDER.with(|r| {
        let origin = Instant::now();
        *r.borrow_mut() = Some(Recorder {
            origin,
            open: Vec::new(),
            trace: Trace {
                origin: Some(origin),
                ..Trace::default()
            },
        });
    });
}

/// Stop recording and return the trace (empty when never started).
pub fn finish() -> Trace {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.trace)
            .unwrap_or_default()
    })
}

fn nanos_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Run `f` inside a span named `name` when recording, or plainly when not.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let paused = pause_alloc_counting();
        let index = rec.trace.spans.len();
        let start_ns = nanos_since(rec.origin);
        let parent = rec.open.last().copied();
        rec.trace.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            child_ns: 0,
        });
        rec.open.push(index);
        resume_alloc_counting(paused);
        Some(index)
    });
    let out = f();
    if let Some(index) = opened {
        RECORDER.with(|r| {
            let mut guard = r.borrow_mut();
            let rec = guard.as_mut().expect("recording stopped inside a span");
            let end_ns = nanos_since(rec.origin);
            rec.open.pop();
            let span = &mut rec.trace.spans[index];
            span.end_ns = end_ns;
            let duration = end_ns - span.start_ns;
            if let Some(parent) = span.parent {
                rec.trace.spans[parent].child_ns += duration;
            }
        });
    }
    out
}

/// Time one call of the wrapped seam `name` and record it when
/// recording. Only the decorators call this.
pub fn call<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        if let Some(rec) = guard.as_mut() {
            let paused = pause_alloc_counting();
            let calls = rec.trace.calls.entry(name).or_default();
            calls
                .durations_ns
                .push(u32::try_from(elapsed).unwrap_or(u32::MAX));
            calls.total_ns += elapsed;
            if let Some(&parent) = rec.open.last() {
                rec.trace.spans[parent].child_ns += elapsed;
            }
            resume_alloc_counting(paused);
        }
    });
    out
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations (and reallocations) and
/// their requested bytes while counting is on. The counters are
/// statistics that publish no other data, hence `Relaxed`.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Turn allocation counting on (after zeroing the counters) or off.
pub fn set_alloc_counting(on: bool) {
    if on {
        ALLOCS.store(0, Ordering::Relaxed);
        ALLOC_BYTES.store(0, Ordering::Relaxed);
    }
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes)` counted since counting was last turned on.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// The recorder's own bookkeeping must not show up as workload
/// allocations.
fn pause_alloc_counting() -> bool {
    COUNTING.swap(false, Ordering::Relaxed)
}

fn resume_alloc_counting(was_on: bool) {
    if was_on {
        COUNTING.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start();
        span("outer", || {
            call("leaf", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let trace = finish();
        assert_eq!(trace.spans.len(), 2);
        let outer = &trace.spans[0];
        assert_eq!(trace.spans[1].parent, Some(0));
        assert!(outer.child_ns >= 4_000_000);
        assert_eq!(
            outer.child_ns,
            trace.call_ns("leaf") + trace.span_ns("inner")
        );
        assert!(outer.self_ns() < outer.end_ns - outer.start_ns);
    }

    #[test]
    fn spans_are_free_when_not_recording() {
        assert_eq!(span("unrecorded", || 7), 7);
        assert!(finish().spans.is_empty());
    }
}
