//! Reactor figure: **fleet size vs throughput and memory** on the
//! poll-driven reactor backend, plus an event-granularity mixing probe.
//!
//! One [`osn_walks::WalkOrchestrator::run_reactor`]-style event loop (the
//! sliced [`osn_walks::ReactorWalkRun`] form, so probes can run between
//! event slices) drives fleets from 1 to 10k+ walkers against one batch
//! endpoint with latency and a bounded in-flight window. Per fleet size
//! the figure reports:
//!
//! * **throughput** — walk steps per virtual second on the endpoint clock
//!   (the paper's cost axis is queries, but wall-time-per-step is what a
//!   reactor backend buys: many walkers amortize each batch round-trip);
//! * **memory witnesses** — the loop's peak in-flight batches (bounded by
//!   the endpoint window, *not* the fleet size: the O(active batches)
//!   claim), peak queued node ids, and peak parked walkers;
//! * **events** — completion events processed, vs the fleet's total steps.
//!
//! The **mixing probe** feeds the first few walkers' trajectories into a
//! [`WindowedSplitRhat::exact`] window *as events complete* — the
//! event-granularity convergence check the reactor's restart policies
//! hook into. Degenerate slices (fleet entirely parked on in-flight
//! batches, window not yet filled) must yield `None`, never a fabricated
//! verdict; the figure counts both.
//!
//! A per-fleet **equivalence spot-check** reruns small fleets on the serial
//! core ([`osn_walks::WalkOrchestrator::run_serial`]) and asserts trace
//! bit-identity (under `Never` with no budget, traces are
//! schedule-independent).

use osn_client::{BatchConfig, SimulatedBatchOsn, SimulatedOsn};
use osn_datasets::{gplus_like, Scale};
use osn_estimate::WindowedSplitRhat;
use osn_graph::NodeId;
use osn_walks::{Cnrw, HistoryBackend, Never, RandomWalk, WalkOrchestrator};

use crate::output::{ExperimentResult, Series};

/// Configuration for the reactor figure.
#[derive(Clone, Debug)]
pub struct FigReactorConfig {
    /// Dataset scale for the Google Plus stand-in.
    pub scale: Scale,
    /// Fleet sizes to sweep.
    pub fleets: Vec<usize>,
    /// Step cap per walker.
    pub max_steps: usize,
    /// Batch size of the endpoint.
    pub batch: usize,
    /// In-flight window of the endpoint (the memory bound).
    pub in_flight: usize,
    /// Events granted per slice between probe evaluations.
    pub slice_events: usize,
    /// Chains the mixing probe tracks (clamped to the fleet size).
    pub probe_chains: usize,
    /// Exact (unclamped) probe window, in samples per chain.
    pub probe_window: usize,
    /// Fleets up to this size are spot-checked against the serial core for
    /// trace bit-identity.
    pub equivalence_cap: usize,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for FigReactorConfig {
    fn default() -> Self {
        FigReactorConfig {
            scale: Scale::Default,
            fleets: vec![1, 10, 100, 1_000, 10_000],
            max_steps: 64,
            batch: 64,
            in_flight: 4,
            slice_events: 32,
            probe_chains: 4,
            probe_window: 16,
            equivalence_cap: 1_000,
            seed: 0x2EAC_7012,
        }
    }
}

impl FigReactorConfig {
    /// Reduced profile for CI and quick runs.
    pub fn quick() -> Self {
        FigReactorConfig {
            scale: Scale::Test,
            fleets: vec![1, 10, 100],
            max_steps: 32,
            batch: 16,
            in_flight: 3,
            slice_events: 16,
            probe_chains: 3,
            probe_window: 8,
            equivalence_cap: 100,
            seed: 0x2EAC_7012,
        }
    }

    fn endpoint(
        &self,
        network: &std::sync::Arc<osn_graph::attributes::AttributedGraph>,
    ) -> SimulatedBatchOsn {
        // Latency makes the virtual clock a meaningful throughput
        // denominator; per-id latency rewards batching, as real APIs do.
        let batch = BatchConfig::new(self.batch)
            .with_in_flight(self.in_flight)
            .with_latency(0.01, 0.002)
            .with_per_id_latency(0.0002)
            .with_seed(self.seed ^ 0x0EAC);
        SimulatedBatchOsn::new(SimulatedOsn::new_shared(network.clone()), batch)
    }
}

fn make_walker(n: usize) -> impl Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send> {
    move |i, _| Box::new(Cnrw::new(NodeId(((i * 13) % n) as u32))) as Box<dyn RandomWalk + Send>
}

/// One fleet's measurements.
struct FleetRow {
    steps: usize,
    events: usize,
    elapsed_secs: f64,
    peak_in_flight: usize,
    peak_queued: usize,
    peak_parked: usize,
    probe_verdicts: usize,
    probe_degenerate: usize,
    last_rhat: Option<f64>,
}

fn run_fleet(
    config: &FigReactorConfig,
    k: usize,
    n: usize,
    endpoint: &mut SimulatedBatchOsn,
) -> FleetRow {
    let orch = WalkOrchestrator::new(k, config.max_steps, config.seed);
    let mut run = orch.start_reactor(make_walker(n));
    let value = |v: NodeId| v.index() as f64;

    // Event-granularity mixing probe over the first few walkers.
    let chains = config.probe_chains.min(k);
    let mut probe = WindowedSplitRhat::exact(chains, config.probe_window);
    let mut fed: Vec<usize> = vec![0; chains];
    let mut verdicts = 0usize;
    let mut degenerate = 0usize;
    let mut last_rhat = None;

    while !run.done() {
        run.run_events(endpoint, &value, config.slice_events);
        for c in 0..chains {
            let trace = run.trace(c).expect("a started run records traces");
            for &v in &trace[fed[c]..] {
                probe.push(c, v.index() as f64);
            }
            fed[c] = trace.len();
        }
        match probe.evaluate() {
            Some(verdict) => {
                verdicts += 1;
                last_rhat = Some(verdict.rhat);
            }
            // All-parked slices and not-yet-full windows carry no mixing
            // evidence: the probe must say None, not fabricate a number.
            None => degenerate += 1,
        }
    }

    let stats = run.reactor_stats();
    FleetRow {
        steps: run.steps_taken(),
        events: run.events(),
        elapsed_secs: endpoint.clock().elapsed_secs(),
        peak_in_flight: stats.peak_in_flight,
        peak_queued: stats.peak_queued,
        peak_parked: stats.peak_parked,
        probe_verdicts: verdicts,
        probe_degenerate: degenerate,
        last_rhat,
    }
}

/// Run the reactor figure: fleet-size sweep, memory-bound witnesses,
/// event-granularity mixing probe, equivalence spot-checks.
pub fn run(config: &FigReactorConfig) -> ExperimentResult {
    let network = std::sync::Arc::new(gplus_like(config.scale, config.seed).network);
    let n = network.graph.node_count();

    let mut rows = Vec::new();
    let mut equivalence_checked = 0usize;
    for &k in &config.fleets {
        let mut endpoint = config.endpoint(&network);
        let row = run_fleet(config, k, n, &mut endpoint);

        if k <= config.equivalence_cap {
            // Under `Never` with no budget, traces are schedule-independent:
            // the serial core must reproduce them bit-for-bit.
            let orch = WalkOrchestrator::new(k, config.max_steps, config.seed);
            let mut reference = SimulatedOsn::new_shared(network.clone());
            let serial =
                orch.run_serial(&mut reference, make_walker(n), |v| v.index() as f64, &Never);
            let mut subject = config.endpoint(&network);
            let reactor =
                orch.run_reactor(&mut subject, make_walker(n), |v| v.index() as f64, &Never);
            assert_eq!(
                serial.trace.per_walker, reactor.trace.per_walker,
                "fleet {k}: reactor diverged from the serial core"
            );
            equivalence_checked += 1;
        }
        rows.push((k, row));
    }

    let xs: Vec<f64> = rows.iter().map(|(k, _)| *k as f64).collect();
    let total_steps: usize = rows.iter().map(|(_, r)| r.steps).sum();
    let max_fleet = config.fleets.iter().copied().max().unwrap_or(0);
    let max_peak_in_flight = rows
        .iter()
        .map(|(_, r)| r.peak_in_flight)
        .max()
        .unwrap_or(0);

    let mut result = ExperimentResult::new(
        "fig_reactor",
        "Reactor backend: fleet size vs throughput and memory — poll-driven walkers \
         parked on in-flight batches, one event loop, no threads",
        "Fleet Size (walkers)",
        "Steps per Virtual Second",
    )
    .with_note(format!(
        "graph: {} nodes; batch size {}, in-flight window {}, {} steps/walker, \
         {} events/slice",
        n, config.batch, config.in_flight, config.max_steps, config.slice_events
    ))
    .with_note(format!(
        "memory bound: peak in-flight batches {} <= window {} at every fleet size up to \
         {max_fleet} walkers — loop memory tracks active batches, not fleet size ({} total \
         steps swept)",
        max_peak_in_flight, config.in_flight, total_steps
    ))
    .with_note(format!(
        "equivalence spot-check: {equivalence_checked} fleet(s) <= {} walkers replayed \
         on the serial core with bit-identical traces",
        config.equivalence_cap
    ))
    .with_note(format!(
        "mixing probe: WindowedSplitRhat::exact({} chains, window {}) fed at event \
         granularity; degenerate slices (parked fleet / unfilled window) report None, \
         never a fabricated verdict",
        config.probe_chains, config.probe_window
    ));

    result.series.push(Series::new(
        "steps per virtual second",
        xs.clone(),
        rows.iter()
            .map(|(_, r)| {
                if r.elapsed_secs > 0.0 {
                    r.steps as f64 / r.elapsed_secs
                } else {
                    0.0
                }
            })
            .collect(),
    ));
    result.series.push(Series::new(
        "events",
        xs.clone(),
        rows.iter().map(|(_, r)| r.events as f64).collect(),
    ));
    result.series.push(Series::new(
        "peak in-flight batches",
        xs.clone(),
        rows.iter().map(|(_, r)| r.peak_in_flight as f64).collect(),
    ));
    result.series.push(Series::new(
        "peak queued ids",
        xs.clone(),
        rows.iter().map(|(_, r)| r.peak_queued as f64).collect(),
    ));
    result.series.push(Series::new(
        "peak parked walkers",
        xs.clone(),
        rows.iter().map(|(_, r)| r.peak_parked as f64).collect(),
    ));
    result.series.push(Series::new(
        "probe verdicts",
        xs.clone(),
        rows.iter().map(|(_, r)| r.probe_verdicts as f64).collect(),
    ));
    result.series.push(Series::new(
        "probe degenerate slices",
        xs.clone(),
        rows.iter()
            .map(|(_, r)| r.probe_degenerate as f64)
            .collect(),
    ));
    result.series.push(Series::new(
        "final event-granularity split-Rhat",
        xs,
        rows.iter()
            .map(|(_, r)| r.last_rhat.unwrap_or(f64::NAN))
            .collect(),
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_meets_the_acceptance_bars() {
        let config = FigReactorConfig::quick();
        let r = run(&config);
        assert_eq!(r.series.len(), 8);

        // The memory bound: peak in-flight never exceeds the window.
        let peaks = r.series_by_label("peak in-flight batches").unwrap();
        assert!(peaks.y.iter().all(|&p| p as usize <= config.in_flight));

        // Parked walkers scale with the fleet: the 100-walker fleet parks
        // far more than the single walker.
        let parked = r.series_by_label("peak parked walkers").unwrap();
        assert!(parked.y.last().unwrap() > &10.0);
        assert!(parked.y.first().unwrap() <= &1.0);

        // The mixing probe produced real verdicts on multi-chain fleets
        // and honestly reported degenerate slices on the 1-walker fleet
        // (a single chain can never fill two windows).
        let verdicts = r.series_by_label("probe verdicts").unwrap();
        assert_eq!(verdicts.y[0], 0.0, "one chain cannot evaluate");
        assert!(
            verdicts.y.iter().skip(1).any(|&v| v > 0.0),
            "no multi-chain fleet ever produced a verdict: {:?}",
            verdicts.y
        );
        let degenerate = r.series_by_label("probe degenerate slices").unwrap();
        assert!(degenerate.y[0] > 0.0);

        // Equivalence spot-checks ran (they assert internally).
        assert!(r
            .notes
            .iter()
            .any(|n| n.contains("bit-identical traces") && n.starts_with("equivalence")));
    }
}
