//! What the two reactor workloads (`fleet_compact`, `evolving_fleet`)
//! share: the deterministic outcome of one fleet run, and the client,
//! reactor and walker metrics derived from it.

use osn_client::batch::{BatchConfig, BatchStats, SimulatedBatchOsn};
use osn_client::QueryStats;
use osn_walks::orchestrator::OrchestratorReport;
use osn_walks::ReactorStats;

use crate::stats::ratio;
use crate::trace::Trace;
use crate::{report_fingerprint, Metrics};

/// Requests the endpoint keeps in flight; the reactor must never exceed it.
pub const IN_FLIGHT: usize = 4;

/// The batch endpoint both reactor workloads talk to: 256 ids per request,
/// latency with jitter, per-id latency, a failed attempt every 23rd and a
/// dropped id every 37th — every realism knob on.
pub fn batch_config(seed: u64) -> BatchConfig {
    BatchConfig::new(256)
        .with_in_flight(IN_FLIGHT)
        .with_latency(0.005, 0.002)
        .with_per_id_latency(0.0001)
        .with_failure_every(23)
        .with_drop_node_every(37)
        .with_seed(seed ^ 0x5EED)
}

/// The deterministic outcome of one reactor fleet run: identical for
/// every run of one seed, traced or not.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunCounts {
    /// [`report_fingerprint`] of the run.
    pub fingerprint: u64,
    /// Transitions across the fleet.
    pub steps: u64,
    /// Every walker settled with its full step count.
    pub complete: bool,
    /// The reactor loop's diagnostics.
    pub reactor: ReactorStats,
    /// Request-level endpoint counters.
    pub batch: BatchStats,
    /// Interface-side query accounting.
    pub interface: QueryStats,
    /// Walker-side query accounting (over the dispatcher cache).
    pub walker_side: QueryStats,
    /// Simulated interface seconds.
    pub virtual_s: f64,
}

impl RunCounts {
    /// Read a settled run of `walkers` walkers capped at `steps` steps.
    pub fn settle(
        report: &OrchestratorReport,
        reactor: ReactorStats,
        endpoint: &SimulatedBatchOsn,
        walkers: usize,
        steps: usize,
    ) -> Self {
        RunCounts {
            fingerprint: report_fingerprint(report),
            steps: report.trace.total_steps() as u64,
            complete: report.trace.per_walker.len() == walkers
                && report.trace.per_walker.iter().all(|t| t.len() == steps),
            reactor,
            batch: endpoint.batch_stats(),
            interface: report.interface.unwrap_or_default(),
            walker_side: report.trace.stats,
            virtual_s: endpoint.clock().elapsed_secs(),
        }
    }
}

/// Set the client, reactor and walker metrics from the fleets of one
/// repetition (`runs`, counts summed and peaks maximised) and from the
/// traced repetitions (`recorded`, `traced_ns` of wall time) in which the
/// reactor loop ran under spans named `reactor_span`. Returns the traced
/// time the decorators timed directly: batch calls and walker steps.
/// Reactor self time is not among it — it is the remainder of the reactor
/// span once those calls are taken out, not a measurement of its own.
pub fn set_metrics(
    metrics: &mut Metrics,
    runs: &[RunCounts],
    recorded: &Trace,
    traced_ns: f64,
    reactor_span: &str,
) -> f64 {
    let sum = |f: fn(&RunCounts) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let max = |f: fn(&RunCounts) -> usize| runs.iter().map(f).max().unwrap_or(0) as f64;

    // osn-client
    let submit = recorded.calls("client.submit");
    let poll = recorded.calls("client.poll");
    metrics.set("client.submit_ns", submit.median_ns());
    metrics.set(
        "client.submit_busy_share",
        submit.total_ns as f64 / traced_ns,
    );
    metrics.set("client.poll_ns", poll.median_ns());
    metrics.set("client.poll_busy_share", poll.total_ns as f64 / traced_ns);
    let submitted = sum(|r| r.batch.submitted);
    let submitted_ids = sum(|r| r.batch.submitted_ids);
    metrics.set("client.batches", submitted);
    metrics.set("client.ids_per_batch", ratio(submitted_ids, submitted));
    metrics.set("client.retries", sum(|r| r.batch.retries));
    metrics.set("client.node_drops", sum(|r| r.batch.node_drops));
    metrics.set(
        "client.attempts_per_batch",
        ratio(sum(|r| r.batch.attempts), submitted),
    );
    metrics.set(
        "client.unique_per_issued",
        ratio(sum(|r| r.interface.unique), sum(|r| r.interface.issued)),
    );

    // osn-walks reactor
    let reactor_self = recorded.self_ns(reactor_span) as f64;
    metrics.set("reactor.self_share", reactor_self / traced_ns);
    metrics.set("reactor.events", sum(|r| r.reactor.events as u64));
    metrics.set(
        "reactor.synthetic_ticks",
        sum(|r| r.reactor.synthetic_ticks as u64),
    );
    metrics.set("reactor.peak_in_flight", max(|r| r.reactor.peak_in_flight));
    metrics.set("reactor.peak_queued", max(|r| r.reactor.peak_queued));
    metrics.set("reactor.peak_parked", max(|r| r.reactor.peak_parked));
    metrics.set(
        "reactor.dedup_ratio",
        ratio(sum(|r| r.walker_side.issued), submitted_ids),
    );

    // osn-walks walkers
    let step_cnrw = recorded.calls("walks.step.cnrw");
    let step_gnrw = recorded.calls("walks.step.gnrw");
    metrics.set("walks.step_ns.cnrw", step_cnrw.median_ns());
    metrics.set("walks.step_ns.gnrw", step_gnrw.median_ns());
    let step_ns = (step_cnrw.total_ns + step_gnrw.total_ns) as f64;
    metrics.set("walks.step_busy_share", step_ns / traced_ns);

    (submit.total_ns + poll.total_ns) as f64 + step_ns
}
