//! `service_soak` — CI smoke for the sampling service under a generated
//! multi-tenant workload.
//!
//! ```text
//! service_soak [--tenants N] [--jobs J] [--budget B] [--seed S]
//!              [--kill-slices K] [--tolerance FRAC] [--max-secs SECS]
//! ```
//!
//! Populates a [`SessionServer`] with hundreds of weighted tenants from the
//! seeded traffic generator (every endpoint realism knob on: rate limit,
//! heterogeneous latency, whole-request failures, per-id partial drops),
//! runs the fleet against one shared unique-query budget, and **asserts**:
//!
//! 1. **fair share** — every tenant's charged-query share lands within
//!    `--tolerance` (default 10%) relative of its configured weight share;
//! 2. **replay determinism** — an identically-constructed server reaches a
//!    byte-identical final snapshot;
//! 3. **resume determinism** — a server killed after `--kill-slices`
//!    scheduling slices, persisted through the `osn-serde` text form, and
//!    resumed into a fresh endpoint snapshots to that same text before it
//!    runs on, and finishes byte-identical to the uninterrupted run.
//!
//! Any violated assert exits non-zero. The `--max-secs` wall-clock guard is
//! polled between phases: a slow runner skips remaining phases with a
//! notice and exits 0 (inconclusive, never red).

use osn_client::{BatchConfig, RateLimitConfig, SimulatedBatchOsn, SimulatedOsn};
use osn_datasets::{gplus_like, Scale};
use osn_experiments::Deadline;
use osn_serde::Value;
use osn_service::traffic::{populate, TrafficConfig};
use osn_service::{ServerConfig, SessionServer};

struct Options {
    tenants: usize,
    jobs: usize,
    budget: u64,
    seed: u64,
    kill_slices: usize,
    tolerance: f64,
    max_secs: u64,
}

impl Default for Options {
    fn default() -> Self {
        // 240 tenants (weights cycling 1:2:4) over a 20k-node snapshot:
        // the weight-1 charged target is 16_800/560 = 30 queries, well
        // above the single-round slice granularity, and per-tenant demand
        // (2 jobs x at least 600 steps each) dwarfs even the weight-4
        // target of 120, keeping every tenant backlogged until the shared
        // budget dies — the regime where fair share is exact.
        Options {
            tenants: 240,
            jobs: 2,
            budget: 16_800,
            seed: 0x50AC,
            kill_slices: 500,
            tolerance: 0.10,
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
            "--tenants" => opts.tenants = value(&mut args, "--tenants").parse().expect("--tenants"),
            "--jobs" => opts.jobs = value(&mut args, "--jobs").parse().expect("--jobs"),
            "--budget" => opts.budget = value(&mut args, "--budget").parse().expect("--budget"),
            "--seed" => opts.seed = value(&mut args, "--seed").parse().expect("--seed"),
            "--kill-slices" => {
                opts.kill_slices = value(&mut args, "--kill-slices")
                    .parse()
                    .expect("--kill-slices")
            }
            "--tolerance" => {
                opts.tolerance = value(&mut args, "--tolerance")
                    .parse()
                    .expect("--tolerance")
            }
            "--max-secs" => {
                opts.max_secs = value(&mut args, "--max-secs").parse().expect("--max-secs")
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: service_soak [--tenants N] [--jobs J] [--budget B] [--seed S] \
                     [--kill-slices K] [--tolerance FRAC] [--max-secs SECS]"
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

fn endpoint(
    network: &std::sync::Arc<osn_graph::attributes::AttributedGraph>,
    opts: &Options,
) -> SimulatedBatchOsn {
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
        .with_seed(opts.seed ^ 0x5EED);
    SimulatedBatchOsn::configured(
        SimulatedOsn::new_shared(network.clone()),
        batch,
        Some(opts.budget),
    )
}

fn build_server(
    network: &std::sync::Arc<osn_graph::attributes::AttributedGraph>,
    opts: &Options,
) -> SessionServer {
    let mut server = SessionServer::new(
        endpoint(network, opts),
        ServerConfig::new().with_rounds_per_slice(1),
    );
    populate(
        &mut server,
        &TrafficConfig::new(opts.tenants, opts.jobs)
            .with_seed(opts.seed)
            .with_max_steps(1200)
            .with_max_walkers(1),
    );
    server
}

fn fail(message: String) -> ! {
    eprintln!("service_soak FAIL: {message}");
    std::process::exit(1);
}

fn guard(deadline: &Deadline, phase: &str) {
    if deadline.exceeded() {
        eprintln!(
            "service_soak: wall-clock guard fired after {:.1?} before `{phase}` — \
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
    eprintln!(
        "service_soak: {} tenants x {} jobs over {} nodes, shared budget {}, seed {:#x}",
        opts.tenants,
        opts.jobs,
        network.graph.node_count(),
        opts.budget,
        opts.seed
    );

    // Phase 1: the reference run + fair-share assert.
    let mut reference = build_server(&network, &opts);
    reference.run_to_completion();
    if reference.remaining_budget() != Some(0) {
        fail(format!(
            "budget never contended ({:?} remaining) — the workload is too small \
             for a fair-share assertion",
            reference.remaining_budget()
        ));
    }
    let charged: Vec<u64> = (0..opts.tenants)
        .map(|t| reference.tenant_stats(t).charged)
        .collect();
    let total: u64 = charged.iter().sum();
    let weight_total: f64 = reference.tenants().iter().map(|t| t.weight).sum();
    let mut worst = (0.0f64, 0usize);
    for (t, spec) in reference.tenants().iter().enumerate() {
        let share = charged[t] as f64 / total as f64;
        let target = spec.weight / weight_total;
        let rel = (share - target).abs() / target;
        if rel > worst.0 {
            worst = (rel, t);
        }
        if rel > opts.tolerance {
            fail(format!(
                "tenant {t} (weight {}) charged share {share:.4} vs weight share \
                 {target:.4} — relative deviation {:.1}% exceeds the {:.0}% tolerance",
                spec.weight,
                rel * 100.0,
                opts.tolerance * 100.0
            ));
        }
    }
    let done = (0..reference.job_count())
        .filter(|&id| reference.job_result(id).is_some())
        .count();
    eprintln!(
        "service_soak: fair share OK — worst tenant {} deviates {:.1}% (tolerance {:.0}%); \
         {done}/{} jobs completed, {} unique queries charged in {:.1}s of virtual time",
        worst.1,
        worst.0 * 100.0,
        opts.tolerance * 100.0,
        reference.job_count(),
        total,
        reference.elapsed_secs()
    );
    let reference_final = reference
        .snapshot()
        .unwrap_or_else(|e| fail(format!("reference snapshot: {e}")))
        .to_pretty();

    // Phase 2: replay determinism.
    guard(&deadline, "replay");
    let mut replay = build_server(&network, &opts);
    replay.run_to_completion();
    let replay_final = replay
        .snapshot()
        .unwrap_or_else(|e| fail(format!("replay snapshot: {e}")))
        .to_pretty();
    if replay_final != reference_final {
        fail("an identically-constructed server reached a different final state".into());
    }
    eprintln!(
        "service_soak: replay determinism OK ({} snapshot bytes)",
        replay_final.len()
    );

    // Phase 3: kill mid-flight, resume from the text form, finish.
    guard(&deadline, "kill/resume");
    let mut killed = build_server(&network, &opts);
    let mut slices = 0usize;
    for _ in 0..opts.kill_slices {
        if !killed.step() {
            break;
        }
        slices += 1;
    }
    let text = killed
        .snapshot()
        .unwrap_or_else(|e| fail(format!("mid-flight snapshot: {e}")))
        .to_pretty();
    drop(killed);
    let parsed =
        Value::parse(&text).unwrap_or_else(|e| fail(format!("snapshot text re-parse: {e}")));
    let mut resumed = SessionServer::resume(
        endpoint(&network, &opts),
        ServerConfig::new().with_rounds_per_slice(1),
        &parsed,
    )
    .unwrap_or_else(|e| fail(format!("resume: {e}")));
    let again = resumed
        .snapshot()
        .unwrap_or_else(|e| fail(format!("resumed snapshot before running on: {e}")))
        .to_pretty();
    if again != text {
        fail(format!(
            "the server resumed after {slices} slices snapshots to other text than \
             it was resumed from"
        ));
    }
    resumed.run_to_completion();
    let resumed_final = resumed
        .snapshot()
        .unwrap_or_else(|e| fail(format!("resumed snapshot: {e}")))
        .to_pretty();
    if resumed_final != reference_final {
        fail(format!(
            "a server killed after {slices} slices and resumed from its snapshot \
             diverged from the uninterrupted run"
        ));
    }
    eprintln!(
        "service_soak: resume determinism OK — killed after {slices} slices \
         ({} snapshot bytes), resumed to the same text and finished bit-identical",
        text.len()
    );
    eprintln!(
        "service_soak: all checks passed in {:.1?}",
        deadline.elapsed()
    );
}
