//! `reactor_soak` — CI smoke for the poll-driven reactor at fleet sizes a
//! thread-per-walker or lockstep design could not carry.
//!
//! ```text
//! reactor_soak [--walkers K] [--steps N] [--seed S] [--max-secs SECS]
//! ```
//!
//! Drives `--walkers` (default 10_000) walkers as reactor state machines,
//! alternately CNRW and GNRW grouped by log2 degree (the grouping the
//! service's by-degree jobs run), over a 20k-node Google Plus stand-in
//! through one batch endpoint (latency, jitter, per-id latency,
//! whole-request failures, per-id drops — every realism knob on). GNRW's
//! cold steps peek degrees through the reactor's client view. The soak
//! **asserts**:
//!
//! 1. **completion** — every walker settles with its full step count, no
//!    walker lost to the event loop's queue discipline;
//! 2. **memory bound** — the loop's peak in-flight batches never exceed
//!    the endpoint's in-flight window: reactor memory is O(active
//!    batches), not O(fleet). The fleet's own memory, phase 1's peak-RSS
//!    growth (`VmHWM` from `/proc/self/status`), stays within
//!    `8 MiB + walkers × steps × 85 B`: 59.9 MiB for the default fleet,
//!    which grows it by 47.7–47.8 MiB. Walker histories with 48- and
//!    64-byte map entries grew it by 86.0 MiB. Off Linux the check is
//!    skipped with a notice;
//! 3. **equivalence spot-check** — the identical spec replayed on the
//!    serial core produces bit-identical traces, stops, and estimate
//!    (schedule independence under `Never` with no budget);
//! 4. **replay determinism** — a second reactor run from the same seed
//!    reproduces the first bit-for-bit;
//! 5. **resume at scale** — the same spec as a pausable `ReactorWalkRun`,
//!    snapshotted halfway through compact text and `Value::parse`, resumes
//!    to a snapshot with the same text and runs on to phase 1's traces. By
//!    then its delivered and seen id sets are bitsets (thousands of ids of
//!    a 20k range), the form the tests' small runs seldom reach.
//!
//! Any violated assert exits non-zero. The `--max-secs` wall-clock guard
//! is polled between phases: a slow runner skips remaining phases with a
//! notice and exits 0 (inconclusive, never red).

use osn_client::{BatchConfig, SimulatedBatchOsn, SimulatedOsn};
use osn_datasets::{gplus_like, Scale};
use osn_experiments::Deadline;
use osn_graph::NodeId;
use osn_serde::Value;
use osn_walks::{Cnrw, Gnrw, Grouping, HistoryBackend, Never, RandomWalk, WalkOrchestrator};

struct Options {
    walkers: usize,
    steps: usize,
    seed: u64,
    max_secs: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            walkers: 10_000,
            steps: 64,
            seed: 0xEAC7_50AC,
            max_secs: 300,
        }
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .unwrap_or_else(|| panic!("{flag} requires a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--walkers" => opts.walkers = value(&mut args, "--walkers").parse().expect("--walkers"),
            "--steps" => opts.steps = value(&mut args, "--steps").parse().expect("--steps"),
            "--seed" => opts.seed = value(&mut args, "--seed").parse().expect("--seed"),
            "--max-secs" => {
                opts.max_secs = value(&mut args, "--max-secs").parse().expect("--max-secs")
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: reactor_soak [--walkers K] [--steps N] [--seed S] [--max-secs SECS]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag `{other}` (see --help)");
                std::process::exit(2);
            }
        }
    }
    opts
}

const IN_FLIGHT: usize = 4;

fn endpoint(
    network: &std::sync::Arc<osn_graph::attributes::AttributedGraph>,
    opts: &Options,
) -> SimulatedBatchOsn {
    let batch = BatchConfig::new(256)
        .with_in_flight(IN_FLIGHT)
        .with_latency(0.005, 0.002)
        .with_per_id_latency(0.0001)
        .with_failure_every(23)
        .with_drop_node_every(37)
        .with_seed(opts.seed ^ 0x5EED);
    SimulatedBatchOsn::new(SimulatedOsn::new_shared(network.clone()), batch)
}

/// Walker `i`: CNRW when `i` is even, GNRW grouped by log2 degree when odd.
fn make_walker(n: usize) -> impl Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send> {
    move |i, _| {
        let start = NodeId(((i * 13) % n) as u32);
        if i % 2 == 0 {
            Box::new(Cnrw::new(start)) as Box<dyn RandomWalk + Send>
        } else {
            Box::new(Gnrw::new(start, Grouping::degree_log2()))
        }
    }
}

/// Phase 1's peak-RSS budget in bytes, `8 MiB + walkers × steps × 85 B`:
/// the endpoint, the event loop and allocator slack, then per walker step
/// the history entry of the edge it crossed, its trace and its share of
/// the dispatch state. The default fleet's budget is 1.25 times the growth
/// it measures.
fn fleet_budget(opts: &Options) -> u64 {
    (8 << 20) + (opts.walkers * opts.steps) as u64 * 85
}

/// Peak resident set (`VmHWM`) in bytes, from `/proc/self/status`.
/// `None` off Linux — the memory assert is then skipped as inconclusive.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: u64 = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib * 1024)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn fail(message: String) -> ! {
    eprintln!("reactor_soak FAIL: {message}");
    std::process::exit(1);
}

fn guard(deadline: &Deadline, phase: &str) {
    if deadline.exceeded() {
        eprintln!(
            "reactor_soak: wall-clock guard fired after {:.1?} before `{phase}` — \
             skipping remaining phases (inconclusive, not a failure)",
            deadline.elapsed()
        );
        std::process::exit(0);
    }
}

fn main() {
    let opts = parse_args();
    let deadline = Deadline::after_secs(opts.max_secs);
    let network = std::sync::Arc::new(gplus_like(Scale::Default, opts.seed).network);
    let n = network.graph.node_count();
    let orch = WalkOrchestrator::new(opts.walkers, opts.steps, opts.seed);
    eprintln!(
        "reactor_soak: {} walkers x {} steps over {n} nodes, seed {:#x}",
        opts.walkers, opts.steps, opts.seed
    );

    // Phase 1: the reference reactor run — completion + memory bound.
    let rss_before = peak_rss_bytes();
    let mut client = endpoint(&network, &opts);
    let (reference, stats) =
        orch.run_reactor_with_stats(&mut client, make_walker(n), |v| v.index() as f64, &Never);
    let rss_after = peak_rss_bytes();
    if reference.trace.per_walker.len() != opts.walkers {
        fail(format!(
            "{} walkers reported, {} launched",
            reference.trace.per_walker.len(),
            opts.walkers
        ));
    }
    for (i, trace) in reference.trace.per_walker.iter().enumerate() {
        if trace.len() != opts.steps {
            fail(format!(
                "walker {i} settled with {} of {} steps (abandoned={})",
                trace.len(),
                opts.steps,
                reference.abandoned_nodes
            ));
        }
    }
    if stats.peak_in_flight > IN_FLIGHT {
        fail(format!(
            "peak in-flight batches {} exceeds the {IN_FLIGHT}-batch window — \
             the O(active batches) memory bound is broken",
            stats.peak_in_flight
        ));
    }
    if stats.peak_parked < opts.walkers / 2 {
        fail(format!(
            "peak parked {} — the fleet never actually waited on I/O; the \
             soak is not exercising the reactor",
            stats.peak_parked
        ));
    }
    eprintln!(
        "reactor_soak: completion OK — {} events for {} steps; peaks: {} in-flight \
         batches (window {IN_FLIGHT}), {} queued ids, {} parked walkers; {:.1}s virtual",
        stats.events,
        reference.trace.total_steps(),
        stats.peak_in_flight,
        stats.peak_queued,
        stats.peak_parked,
        client.clock().elapsed_secs()
    );
    match (rss_before, rss_after) {
        (Some(before), Some(after)) => {
            let growth = after.saturating_sub(before);
            let budget = fleet_budget(&opts);
            if growth > budget {
                fail(format!(
                    "phase 1 grew peak RSS by {:.1} MiB, over its budget of {:.1} MiB \
                     ({} walkers x {} steps)",
                    mib(growth),
                    mib(budget),
                    opts.walkers,
                    opts.steps
                ));
            }
            eprintln!(
                "reactor_soak: fleet memory OK — phase 1 grew peak RSS by {:.1} MiB, \
                 budget {:.1} MiB",
                mib(growth),
                mib(budget)
            );
        }
        _ => eprintln!("reactor_soak: /proc/self/status unavailable — memory bound skipped"),
    }

    // Phase 2: equivalence spot-check against the serial core.
    guard(&deadline, "equivalence");
    let mut subject = SimulatedOsn::new_shared(network.clone());
    let serial = orch.run_serial(&mut subject, make_walker(n), |v| v.index() as f64, &Never);
    if serial.trace.per_walker != reference.trace.per_walker {
        fail("reactor traces diverged from the serial core".into());
    }
    if serial.stops != reference.stops {
        fail("reactor stops diverged from the serial core".into());
    }
    if serial.estimate.mean().map(f64::to_bits) != reference.estimate.mean().map(f64::to_bits) {
        fail("reactor estimate diverged from the serial core".into());
    }
    eprintln!(
        "reactor_soak: equivalence OK — {} walkers bit-identical to run_serial",
        opts.walkers
    );

    // Phase 3: replay determinism.
    guard(&deadline, "replay");
    let mut again = endpoint(&network, &opts);
    let replay = orch.run_reactor(&mut again, make_walker(n), |v| v.index() as f64, &Never);
    if replay.trace.per_walker != reference.trace.per_walker
        || replay.interface != reference.interface
    {
        fail("an identical reactor run reached a different state".into());
    }
    eprintln!("reactor_soak: replay determinism OK");

    // Phase 4: resume at scale, halfway through the reference's events.
    guard(&deadline, "resume");
    let value = |v: NodeId| v.index() as f64;
    let mut client = endpoint(&network, &opts);
    let mut run = orch.start_reactor(make_walker(n));
    run.run_events(&mut client, &value, stats.events / 2);
    let text = run.snapshot().to_compact();
    let parsed = Value::parse(&text).unwrap_or_else(|e| fail(format!("snapshot text: {e}")));
    let mut resumed = orch
        .resume_reactor(&parsed, make_walker(n))
        .unwrap_or_else(|e| fail(format!("resume: {e}")));
    if resumed.snapshot().to_compact() != text {
        fail("a resumed run's snapshot differs from the one it resumed".into());
    }
    while !resumed.done() {
        resumed.run_events(&mut client, &value, usize::MAX);
    }
    let report = resumed.into_report(&client);
    if report.trace.per_walker != reference.trace.per_walker {
        fail("a run resumed halfway diverged from the reference traces".into());
    }
    eprintln!(
        "reactor_soak: resume OK — a {} KiB snapshot at event {} resumed bit-identically",
        text.len() / 1024,
        stats.events / 2
    );
    eprintln!(
        "reactor_soak: all checks passed in {:.1?}",
        deadline.elapsed()
    );
}
