//! `service_tenants`: a multi-tenant `SessionServer` driven by back-to-back
//! one-round slices, with a snapshot → text → parse → resume checkpoint
//! cycle every few thousand slices.

use std::sync::Arc;
use std::time::Instant;

use osn_client::{BatchConfig, RateLimitConfig, SimulatedBatchOsn, SimulatedOsn};
use osn_datasets::gplus_like;
use osn_graph::attributes::AttributedGraph;
use osn_serde::Value;
use osn_service::traffic::{populate, TrafficConfig};
use osn_service::{ServerConfig, SessionServer};

use crate::stats::{median, quantile, ratio};
use crate::trace::{self, TracedPasses};
use crate::{fnv, throughput, timed, Checks, Metrics, Options};

/// Largest relative deviation of a tenant's charged share from its weight
/// share that still counts as fair.
pub const FAIR_SHARE_TOLERANCE: f64 = 0.10;

fn endpoint(network: &Arc<AttributedGraph>, opts: &Options) -> SimulatedBatchOsn {
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
        SimulatedOsn::new_shared(Arc::clone(network)),
        batch,
        Some(opts.sizes.budget),
    )
}

fn server_config() -> ServerConfig {
    ServerConfig::new().with_rounds_per_slice(1)
}

fn build_server(network: &Arc<AttributedGraph>, opts: &Options) -> SessionServer {
    let mut server = SessionServer::new(endpoint(network, opts), server_config());
    populate(
        &mut server,
        &TrafficConfig::new(opts.sizes.tenants, 2)
            .with_seed(opts.seed)
            .with_max_steps(1200)
            .with_max_walkers(1),
    );
    server
}

/// What one server run, from population to the last settled job, reports.
#[derive(Clone, Debug, Default)]
pub struct ServerRun {
    /// Wall seconds of every slice and checkpoint cycle.
    pub wall_s: f64,
    /// Wall microseconds of each slice (checkpoint cycles excluded).
    pub slice_us: Vec<f64>,
    /// Wall seconds of `snapshot` + `to_pretty`, summed over cycles.
    pub snapshot_s: f64,
    /// Wall seconds of `parse` + `resume`, summed over cycles.
    pub resume_s: f64,
    /// Snapshot text bytes, summed over cycles.
    pub checkpoint_bytes: u64,
    /// Checkpoint cycles run.
    pub checkpoints: u64,
    /// Slices that did work.
    pub slices: u64,
    /// Walk transitions across every job.
    pub steps: u64,
    /// Unique queries charged to the shared budget.
    pub charged: u64,
    /// Cache hits jobs rode.
    pub cache_hits: u64,
    /// Interface-side unique / issued queries.
    pub unique_per_issued: f64,
    /// Simulated interface seconds to finish.
    pub virtual_s: f64,
    /// Jobs run to completion.
    pub jobs_completed: u64,
    /// Jobs refused at admission.
    pub jobs_refused: u64,
    /// Worst relative deviation of a tenant's charged share from its
    /// weight share.
    pub fair_share_max_dev: f64,
    /// Whether the shared budget was exhausted (fair share is exact only
    /// while every tenant stays backlogged).
    pub budget_spent: bool,
    /// NRMSE of completed jobs' estimates against their estimand's truth.
    pub nrmse: f64,
    /// Fingerprint of every tenant's accounting and every job's result.
    pub fingerprint: u64,
}

impl ServerRun {
    /// The deterministic part, for repeat-exactly checks.
    pub fn counts(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.fingerprint,
            self.slices,
            self.steps,
            self.checkpoint_bytes,
            self.checkpoints,
            self.virtual_s.to_bits(),
        )
    }
}

/// One checkpoint cycle; `None` (with the failure recorded) when any
/// stage returns an error, in which case the caller keeps its server.
/// With `verify`, the resumed server's own snapshot text must equal the
/// text it was resumed from (checked outside the timed stages), so a
/// resume that lost state would fail rather than quietly change the
/// workload.
fn checkpoint(
    server: &SessionServer,
    network: &Arc<AttributedGraph>,
    opts: &Options,
    checks: &mut Checks,
    run: &mut ServerRun,
    verify: bool,
) -> Option<SessionServer> {
    let (snapshot_s, text) = timed(|| {
        trace::span("service.snapshot", || server.snapshot())
            .map(|value| trace::span("serde.to_pretty", || value.to_pretty()))
    });
    let text = checks.ok(text, "checkpoint snapshot")?;
    let (resume_s, resumed) = timed(|| {
        trace::span("serde.parse", || Value::parse(&text))
            .map_err(|e| e.to_string())
            .and_then(|value| {
                trace::span("service.resume", || {
                    SessionServer::resume(endpoint(network, opts), server_config(), &value)
                })
            })
    });
    let resumed = checks.ok(resumed, "checkpoint parse + resume")?;
    if verify {
        let again = checks.ok(resumed.snapshot(), "resumed server snapshot")?;
        checks.check(again.to_pretty() == text, || {
            "the resumed server's snapshot differs from the text it was resumed from".into()
        });
    }
    run.snapshot_s += snapshot_s;
    run.resume_s += resume_s;
    run.wall_s += snapshot_s + resume_s;
    run.checkpoint_bytes += text.len() as u64;
    run.checkpoints += 1;
    Some(resumed)
}

/// Populate a fresh server and drive it to completion. With
/// `verify_resume`, the first checkpoint cycle also checks that resuming
/// lost nothing (see [`checkpoint`]).
pub fn server_run(
    network: &Arc<AttributedGraph>,
    opts: &Options,
    checks: &mut Checks,
    verify_resume: bool,
) -> ServerRun {
    let mut run = ServerRun::default();
    let mut server = build_server(network, opts);
    let every = opts.sizes.checkpoint_every.max(1) as u64;
    loop {
        let started = Instant::now();
        let more = trace::span("service.step", || server.step());
        let elapsed = started.elapsed().as_secs_f64();
        run.wall_s += elapsed;
        if !more {
            break;
        }
        run.slice_us.push(elapsed * 1e6);
        run.slices += 1;
        if run.slices % every == 0 {
            let verify = verify_resume && run.checkpoints == 0;
            if let Some(resumed) = checkpoint(&server, network, opts, checks, &mut run, verify) {
                server = resumed;
            }
        }
    }
    checks.operations(run.slices);

    let tenants = server.tenants().len();
    let stats: Vec<_> = (0..tenants).map(|t| server.tenant_stats(t)).collect();
    run.steps = stats.iter().map(|s| s.steps).sum();
    run.charged = stats.iter().map(|s| s.charged).sum();
    run.cache_hits = stats.iter().map(|s| s.cache_hits).sum();
    run.jobs_completed = stats.iter().map(|s| s.jobs_completed).sum();
    run.jobs_refused = stats.iter().map(|s| s.jobs_refused).sum();
    let interface = server.endpoint_stats();
    run.unique_per_issued = ratio(interface.unique as f64, interface.issued as f64);
    run.virtual_s = server.elapsed_secs();
    run.budget_spent = server.remaining_budget() == Some(0);
    let weight_total: f64 = server.tenants().iter().map(|t| t.weight).sum();
    run.fair_share_max_dev = server
        .tenants()
        .iter()
        .zip(&stats)
        .map(|(spec, s)| {
            let share = ratio(s.charged as f64, run.charged as f64);
            let target = spec.weight / weight_total;
            (share - target).abs() / target
        })
        .fold(0.0, f64::max);

    let mut squared = Vec::new();
    let mut words: Vec<u64> = stats
        .iter()
        .flat_map(|s| {
            [
                s.charged,
                s.cache_hits,
                s.steps,
                s.jobs_completed,
                s.jobs_refused,
            ]
        })
        .collect();
    for id in 0..server.job_count() {
        if let Some(result) = server.job_result(id) {
            words.extend([result.steps as u64, result.rounds as u64]);
            if let Some(estimate) = result.estimate {
                words.push(estimate.to_bits());
                let truth = server.job_spec(id).estimand.truth(&network.graph);
                squared.push(((estimate - truth) / truth).powi(2));
            }
        }
    }
    run.nrmse = ratio(squared.iter().sum::<f64>(), squared.len() as f64).sqrt();
    run.fingerprint = fnv(words);
    run
}

fn check_runs(checks: &mut Checks, runs: &[ServerRun], reference: &ServerRun, what: &str) {
    for (i, r) in runs.iter().enumerate() {
        checks.check(r.budget_spent, || {
            format!("{what} server {i}: the shared budget was never contended")
        });
        checks.check(r.fair_share_max_dev <= FAIR_SHARE_TOLERANCE, || {
            format!(
                "{what} server {i}: a tenant's charged share deviates {:.1}% from its weight share",
                100.0 * r.fair_share_max_dev
            )
        });
        checks.check(r.checkpoints > 0, || {
            format!("{what} server {i}: no checkpoint cycle ran")
        });
        checks.check(r.counts() == reference.counts(), || {
            format!("{what} server {i}: results or counts differ from the first plain server")
        });
    }
}

/// Run the workload; returns what the traced repetitions recorded.
pub fn run(opts: &Options, checks: &mut Checks, metrics: &mut Metrics) -> Option<TracedPasses> {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut network = None;
    for _ in 0..opts.sizes.gplus_setups.max(1) {
        let started = Instant::now();
        let (gen_s, dataset) = timed(|| gplus_like(opts.sizes.gplus_scale, opts.seed));
        let shared = Arc::new(dataset.network);
        drop(build_server(&shared, opts));
        setup_s.push(started.elapsed().as_secs_f64());
        generate_s.push(gen_s);
        network = Some(shared);
    }
    let network = network.expect("at least one set-up ran");
    metrics.set("setup_s", median(&mut setup_s));

    // One untimed server run lets the core reach its sustained clock.
    server_run(&network, opts, &mut Checks::default(), false);
    let mut plain: Vec<ServerRun> = Vec::new();
    let mut traced: Vec<ServerRun> = Vec::new();
    let mut passes = TracedPasses::default();
    crate::repeat_for(opts.seconds, || {
        // The first plain run is the reference every other run is compared
        // with; it alone checks that resuming loses nothing.
        let mut run = server_run(&network, opts, checks, plain.is_empty());
        if !opts.trace {
            // Only traced runs report slice latencies; keeping the samples
            // would tie peak memory to how many repetitions fit.
            run.slice_us = Vec::new();
        }
        plain.push(run);
        if opts.trace {
            traced.push(passes.run(|| server_run(&network, opts, checks, false)));
        }
    });
    let reference = plain[0].clone();
    check_runs(checks, &plain, &reference, "plain");
    check_runs(checks, &traced, &reference, "traced");
    let plain_rate = throughput("service_tenants", plain.iter().map(|r| (r.steps, r.wall_s)));
    metrics.set("steps_per_s", plain_rate);
    metrics.set(
        "queries_per_kstep",
        1000.0 * ratio(reference.charged as f64, reference.steps as f64),
    );
    metrics.set("virtual_s", reference.virtual_s);
    if !opts.trace {
        return None;
    }

    let mut slices: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.slice_us.iter().copied())
        .collect();
    metrics.set("slice_samples", slices.len() as f64);
    metrics.set("slice_p50_us", quantile(&mut slices, 0.5));
    metrics.set("slice_p99_us", quantile(&mut slices, 0.99));
    let bytes_mb: f64 = plain.iter().map(|r| r.checkpoint_bytes as f64).sum::<f64>() / 1e6;
    let snapshot_s: f64 = plain.iter().map(|r| r.snapshot_s).sum();
    let resume_s: f64 = plain.iter().map(|r| r.resume_s).sum();
    metrics.set("snapshot_mb_s", ratio(bytes_mb, snapshot_s));
    metrics.set("resume_mb_s", ratio(bytes_mb, resume_s));
    metrics.set("estimate_nrmse", reference.nrmse);
    metrics.set("datasets.generate_s", median(&mut generate_s));
    metrics.set("client.unique_per_issued", reference.unique_per_issued);

    let recorded = &passes.trace;
    let ms = |ns: Vec<u64>| {
        let mut v: Vec<f64> = ns.into_iter().map(|n| n as f64 / 1e6).collect();
        median(&mut v)
    };
    metrics.set(
        "service.snapshot_ms",
        ms(recorded.span_durations("service.snapshot")),
    );
    metrics.set(
        "service.resume_ms",
        ms(recorded.span_durations("service.resume")),
    );
    metrics.set("service.checkpoints", reference.checkpoints as f64);
    metrics.set("service.slices", reference.slices as f64);
    metrics.set(
        "service.steps_per_slice",
        ratio(reference.steps as f64, reference.slices as f64),
    );
    metrics.set(
        "service.cache_hit_share",
        ratio(
            reference.cache_hits as f64,
            (reference.cache_hits + reference.charged) as f64,
        ),
    );
    metrics.set("service.jobs_completed", reference.jobs_completed as f64);
    metrics.set("service.jobs_refused", reference.jobs_refused as f64);
    metrics.set("service.fair_share_max_dev", reference.fair_share_max_dev);

    let traced_bytes_mb: f64 = traced
        .iter()
        .map(|r| r.checkpoint_bytes as f64)
        .sum::<f64>()
        / 1e6;
    let secs = |name: &str| recorded.span_ns(name) as f64 / 1e9;
    metrics.set(
        "serde.to_pretty_mb_s",
        ratio(traced_bytes_mb, secs("serde.to_pretty")),
    );
    metrics.set(
        "serde.parse_mb_s",
        ratio(traced_bytes_mb, secs("serde.parse")),
    );
    metrics.set(
        "serde.snapshot_bytes",
        ratio(
            reference.checkpoint_bytes as f64,
            reference.checkpoints as f64,
        ),
    );

    let traced_steps = traced.iter().map(|r| r.steps).sum();
    let traced_rate = throughput("traced", traced.iter().map(|r| (r.steps, r.wall_s)));
    let traced_wall: f64 = traced.iter().map(|r| r.wall_s).sum();
    let spans = [
        "service.step",
        "service.snapshot",
        "serde.to_pretty",
        "serde.parse",
        "service.resume",
    ];
    let attributed = spans.iter().map(|name| secs(name)).sum::<f64>() / traced_wall;
    crate::set_trace_metrics(
        metrics,
        &passes,
        traced_steps,
        plain_rate,
        traced_rate,
        attributed,
    );
    Some(passes)
}
