//! The repository benchmark: three closed-loop, single-threaded workloads
//! driven through the public APIs of the workspace crates, reporting
//! end-to-end metrics from plain passes and a per-layer breakdown from a
//! traced pass. See `perfbench/README.md` for the workloads, the metric map
//! and how to run it.

pub mod decorators;
pub mod evolving;
pub mod fleet;
pub mod host;
pub mod metrics;
pub mod reactor;
pub mod service;
pub mod stats;
pub mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use osn_graph::NodeId;
use osn_walks::orchestrator::OrchestratorReport;

pub use metrics::{Metrics, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["fleet_compact", "service_tenants", "evolving_fleet"];

/// Workload sizes. [`Sizes::full`] is what the command line runs; the
/// tests shrink everything with [`Sizes::smoke`].
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// fleet_compact: graph set-ups per run; `setup_s` is their median.
    pub graph_setups: usize,
    /// service_tenants and evolving_fleet: set-ups per run (these are
    /// quick, so more of them steady the median).
    pub gplus_setups: usize,
    /// fleet_compact: web stand-in tier.
    pub web_scale: osn_datasets::Scale,
    /// fleet_compact: CNRW fleet size.
    pub cnrw_walkers: usize,
    /// fleet_compact: GNRW fleet size.
    pub gnrw_walkers: usize,
    /// fleet_compact: steps per walker.
    pub fleet_steps: usize,
    /// service_tenants and evolving_fleet: gplus stand-in tier.
    pub gplus_scale: osn_datasets::Scale,
    /// service_tenants: tenants, each submitting two jobs.
    pub tenants: usize,
    /// service_tenants: shared unique-query budget.
    pub budget: u64,
    /// service_tenants: slices between checkpoint cycles.
    pub checkpoint_every: usize,
    /// evolving_fleet: fleet size.
    pub evolving_walkers: usize,
    /// evolving_fleet: steps per walker.
    pub evolving_steps: usize,
    /// evolving_fleet: mutation epochs.
    pub epochs: usize,
    /// evolving_fleet: scheduled mutations (before delete-safety filtering).
    pub mutations: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Sizes {
            graph_setups: 3,
            gplus_setups: 15,
            web_scale: osn_datasets::Scale::Full,
            cnrw_walkers: 5_000,
            gnrw_walkers: 1_000,
            fleet_steps: 256,
            gplus_scale: osn_datasets::Scale::Default,
            tenants: 240,
            budget: 16_800,
            checkpoint_every: 12_000,
            evolving_walkers: 2_000,
            evolving_steps: 256,
            epochs: 8,
            mutations: 200,
        }
    }

    /// Sizes small enough for a debug-build test.
    pub fn smoke() -> Self {
        Sizes {
            graph_setups: 2,
            gplus_setups: 2,
            web_scale: osn_datasets::Scale::Test,
            cnrw_walkers: 40,
            gnrw_walkers: 16,
            fleet_steps: 24,
            gplus_scale: osn_datasets::Scale::Test,
            tenants: 12,
            budget: 300,
            checkpoint_every: 40,
            evolving_walkers: 60,
            evolving_steps: 24,
            epochs: 3,
            mutations: 60,
        }
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Wall seconds the timed phase keeps repeating for (at least one
    /// repetition always runs).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Workload sizes.
    pub sizes: Sizes,
    /// Directory for the graph file, builder spills and the trace dump.
    pub out_dir: PathBuf,
}

/// Output checks and operation counts; `failed / attempted` is the
/// workload's error rate.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated plus operations attempted.
    pub attempted: u64,
    /// Checks that failed plus operations that returned `Err`.
    pub failed: u64,
    /// One message per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Record one fallible operation, returning its value on success.
    pub fn ok<T, E: std::fmt::Display>(&mut self, result: Result<T, E>, what: &str) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Record `n` operations that cannot fail by construction (one per
    /// service slice, fleet run or mutation epoch).
    pub fn operations(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// What one invocation produced.
#[derive(Debug)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// Every metric of the run's kind, with its value.
    pub metrics: Metrics,
    /// What a traced run recorded.
    pub traced: Option<trace::TracedPasses>,
}

/// Run one workload.
///
/// # Errors
/// On an unknown workload name or when the output directory cannot be
/// created; failures inside the workload are reported through
/// [`Outcome::checks`] instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let work = opts
        .out_dir
        .join(format!("work-{}-{}", opts.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let mut checks = Checks::default();
    let mut metrics = Metrics::new(opts.trace);
    host::warm_up();
    let recorded = match opts.workload.as_str() {
        "fleet_compact" => Ok(fleet::run(opts, &work, &mut checks, &mut metrics)),
        "service_tenants" => Ok(service::run(opts, &mut checks, &mut metrics)),
        "evolving_fleet" => Ok(evolving::run(opts, &mut checks, &mut metrics)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    };
    std::fs::remove_dir_all(&work).ok();
    let traced = recorded?;
    if !opts.trace {
        metrics.set("peak_rss_mb", host::peak_rss_mib());
    }
    for failure in &checks.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    Ok(Outcome {
        checks,
        metrics,
        traced,
    })
}

/// Repeat `rep` until `seconds` of wall time have passed, at least once.
pub fn repeat_for(seconds: f64, mut rep: impl FnMut()) {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    loop {
        rep();
        if started.elapsed() >= budget {
            break;
        }
    }
}

/// Throughput over the whole timed phase — total steps over total wall
/// seconds of `(steps, wall_s)` repetitions — after printing each
/// repetition's rate to standard error. On a shared machine the host's
/// speed drifts over tens of seconds, so pooling every repetition is
/// steadier than a per-repetition median.
pub fn throughput(label: &str, reps: impl IntoIterator<Item = (u64, f64)>) -> f64 {
    let (mut steps, mut secs, mut rates) = (0u64, 0.0f64, Vec::new());
    for (n, wall_s) in reps {
        steps += n;
        secs += wall_s;
        rates.push(format!("{:.0}", stats::ratio(n as f64, wall_s)));
    }
    eprintln!(
        "perfbench: {label} steps/s per repetition: {}",
        rates.join(" ")
    );
    stats::ratio(steps as f64, secs)
}

/// Set what every traced run reports about itself: allocations per step
/// of the traced repetitions, the tracing overhead (plain over traced
/// throughput) and the share of traced wall time the decorated calls and
/// leaf spans timed directly. The rest is unattributed; on the reactor
/// workloads most of it is reactor self time, which is only ever the
/// remainder of the reactor span.
pub fn set_trace_metrics(
    metrics: &mut Metrics,
    passes: &trace::TracedPasses,
    traced_steps: u64,
    plain_rate: f64,
    traced_rate: f64,
    attributed_share: f64,
) {
    let steps = traced_steps as f64;
    metrics.set(
        "walks.allocs_per_step",
        stats::ratio(passes.allocs as f64, steps),
    );
    metrics.set(
        "walks.alloc_bytes_per_step",
        stats::ratio(passes.alloc_bytes as f64, steps),
    );
    metrics.set("trace_overhead", stats::ratio(plain_rate, traced_rate));
    metrics.set("trace.attributed_share", attributed_share);
    metrics.set("trace.unattributed_share", 1.0 - attributed_share);
}

/// Seconds elapsed while running `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// 64-bit FNV-1a over a stream of words.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Fingerprint of a fleet run: every walker's trace, the number of
/// stops and the pooled estimate, bit for bit.
pub fn report_fingerprint(report: &OrchestratorReport) -> u64 {
    let traces = report.trace.per_walker.iter().flat_map(|t| {
        std::iter::once(t.len() as u64).chain(t.iter().map(|v: &NodeId| u64::from(v.0)))
    });
    let estimate = [
        report.estimate.mean().map_or(u64::MAX, f64::to_bits),
        report.stops.len() as u64,
    ];
    fnv(traces.chain(estimate))
}

/// Span names recorded more often than this (one per service slice, say)
/// are written as totals only, keeping the dump to a few MiB.
const SPAN_LIST_LIMIT: usize = 10_000;

/// Write the traced run's spans and host record next to the other run
/// outputs; returns the file written. Every span name gets totals; spans
/// of the rarer names are also listed one by one.
///
/// # Errors
/// On I/O failure.
pub fn write_trace(
    dir: &Path,
    opts: &Options,
    host: &osn_serde::Value,
    trace: &trace::Trace,
) -> std::io::Result<PathBuf> {
    use osn_serde::Value;
    use std::collections::BTreeMap;
    let mut totals: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in &trace.spans {
        let t = totals.entry(s.name).or_default();
        *t = (t.0 + 1, t.1 + (s.end_ns - s.start_ns), t.2 + s.self_ns());
    }
    let spans: Vec<Value> = trace
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| totals[s.name].0 as usize <= SPAN_LIST_LIMIT)
        .map(|(i, s)| {
            Value::Arr(vec![
                Value::Uint(i as u64),
                Value::Str(s.name.to_string()),
                Value::Uint(s.start_ns),
                Value::Uint(s.end_ns),
                s.parent.map_or(Value::Null, |p| Value::Uint(p as u64)),
                Value::Uint(s.self_ns()),
            ])
        })
        .collect();
    let span_totals: Vec<(&str, Value)> = totals
        .iter()
        .map(|(name, &(count, total_ns, self_ns))| {
            (
                *name,
                Value::obj([
                    ("count", Value::Uint(count)),
                    ("total_ns", Value::Uint(total_ns)),
                    ("self_ns", Value::Uint(self_ns)),
                ]),
            )
        })
        .collect();
    let calls: Vec<(&str, Value)> = trace
        .calls
        .iter()
        .map(|(name, c)| {
            (
                *name,
                Value::obj([
                    ("count", Value::Uint(c.durations_ns.len() as u64)),
                    ("total_ns", Value::Uint(c.total_ns)),
                    ("median_ns", Value::Num(c.median_ns())),
                ]),
            )
        })
        .collect();
    let doc = Value::obj([
        ("host", host.clone()),
        ("span_totals", Value::obj(span_totals)),
        (
            "span_fields",
            Value::Str("index,name,start_ns,end_ns,parent,self_ns".into()),
        ),
        ("spans", Value::Arr(spans)),
        ("calls", Value::obj(calls)),
    ]);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{}-{}.json", opts.workload, opts.seed));
    std::fs::write(&path, doc.to_compact())?;
    Ok(path)
}
