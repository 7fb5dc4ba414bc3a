//! Trial execution: deterministic seeding, budget-limited walks, and
//! thread-parallel replication.

use std::sync::Arc;

use osn_client::{BatchConfig, BudgetedClient, SimulatedBatchOsn, SimulatedOsn};
use osn_graph::attributes::AttributedGraph;
use osn_graph::compact::CompactCsr;
use osn_graph::NodeId;
use osn_walks::{RandomWalk, WalkConfig, WalkSession, WalkTrace};

use crate::algorithms::Algorithm;

/// Derive a per-trial seed from an experiment seed and trial index with
/// SplitMix64 mixing. Stable across platforms and thread schedules. Shares
/// one mixer ([`osn_graph::mix::splitmix64_stream`]) with the
/// orchestrator's per-walker RNG streams.
pub fn trial_seed(experiment_seed: u64, trial: u64) -> u64 {
    osn_graph::mix::splitmix64_stream(experiment_seed, trial)
}

/// The plan for one budget-limited walk trial over a shared snapshot.
///
/// [`TrialPlan::new`] is the canonical entry point: every knob — budget,
/// step cap, dispatch mode — is a `with_*` builder on the same surface,
/// and [`TrialPlan::from_compact`] swaps the snapshot for a compressed
/// one. [`TrialPlan::budgeted`] and [`TrialPlan::steps`] remain as
/// documented shorthands that forward to the builder; nothing is
/// deprecated.
///
/// The two dispatch modes run on the two engines of `osn-walks`: the
/// synchronous path through [`WalkSession`] (the serial core's
/// single-walker entry point) and the batched path through the reactor
/// ([`osn_walks::reactor::drive_reactor`]), both under the `Never` restart
/// policy and over the same raw-seeded RNG stream — which is what keeps
/// the two modes bit-identical per seed. Experiments with restart
/// policies (e.g. `fig6_steal`) use [`osn_walks::WalkOrchestrator`]
/// directly.
#[derive(Clone)]
pub struct TrialPlan {
    /// The snapshot every trial runs against (shared, never copied).
    pub network: Arc<AttributedGraph>,
    /// Unique-query budget (`None` = unlimited).
    pub budget: Option<u64>,
    /// Hard step cap (protects unlimited-budget walks; also bounds the time
    /// a budget-limited walk spends revisiting cached nodes).
    pub max_steps: usize,
    /// Dispatch mode: `None` drives the walk synchronously through a
    /// [`WalkSession`]; `Some(config)` routes every neighbor fetch through
    /// a [`SimulatedBatchOsn`] batch endpoint via the reactor. Both modes
    /// consume the identical RNG stream, so traces are bit-identical — the
    /// cross-mode equivalence `tests/batch_client_props.rs` pins.
    pub batch: Option<BatchConfig>,
    /// Compressed snapshot backing every trial's client instead of
    /// [`Self::network`] (which becomes an edgeless placeholder carrying
    /// only the node count). Set via [`Self::from_compact`]; walks decode
    /// neighbor lists on demand and are bit-identical per seed to the same
    /// plan over the decompressed [`osn_graph::CsrGraph`].
    pub compact: Option<Arc<CompactCsr>>,
}

impl TrialPlan {
    /// The canonical constructor: an unbudgeted plan over a snapshot with
    /// the default step cap and synchronous dispatch. Layer knobs on with
    /// the `with_*` builders.
    pub fn new(network: Arc<AttributedGraph>) -> Self {
        TrialPlan {
            network,
            budget: None,
            max_steps: 10_000,
            batch: None,
            compact: None,
        }
    }

    /// A plan over a compressed snapshot: clients decode adjacency from
    /// `graph` on demand instead of borrowing a materialized CSR, so
    /// ~10⁸-edge graphs run in the packed footprint. [`Self::network`] is
    /// an edgeless placeholder (correct node count, no topology); attribute
    /// peeks need a plain-network plan.
    pub fn from_compact(graph: Arc<CompactCsr>) -> Self {
        let client = SimulatedOsn::from_compact(Arc::clone(&graph));
        let mut plan = Self::new(client.network_shared());
        plan.compact = Some(graph);
        plan
    }

    /// Shorthand for a budget-limited plan; forwards to
    /// [`new`](Self::new)`.`[`with_budget`](Self::with_budget)`.`[`with_max_steps`](Self::with_max_steps)
    /// with a step cap proportional to the budget.
    pub fn budgeted(network: Arc<AttributedGraph>, budget: u64) -> Self {
        // Once the budget is exhausted a walk can only revisit cached nodes;
        // the paper's samplers stop there. A generous multiple bounds the
        // tail where the walk bounces among cached nodes before touching a
        // new one.
        let max_steps = (budget as usize).saturating_mul(50).max(10_000);
        Self::new(network)
            .with_budget(budget)
            .with_max_steps(max_steps)
    }

    /// Shorthand for a step-count plan (Figure 8-style runs); forwards to
    /// [`new`](Self::new)`.`[`with_max_steps`](Self::with_max_steps).
    pub fn steps(network: Arc<AttributedGraph>, max_steps: usize) -> Self {
        Self::new(network).with_max_steps(max_steps)
    }

    /// Same plan under a unique-query budget.
    #[must_use]
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Same plan with an explicit hard step cap.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Same plan routed through a batch endpoint (the reactor dispatch
    /// mode; see [`Self::batch`]).
    #[must_use]
    pub fn with_batch(mut self, config: BatchConfig) -> Self {
        self.batch = Some(config);
        self
    }

    /// One trial's client over the plan's snapshot: compact-backed when
    /// [`Self::compact`] is set, a zero-copy shared CSR otherwise.
    fn make_client(&self) -> SimulatedOsn {
        match &self.compact {
            Some(g) => SimulatedOsn::from_compact(Arc::clone(g)),
            None => SimulatedOsn::new_shared(self.network.clone()),
        }
    }

    /// Uniformly random start node for the given trial seed.
    pub fn start_node(&self, seed: u64) -> NodeId {
        let n = self.network.graph.node_count() as u64;
        NodeId((trial_seed(seed, 0xdead_beef) % n) as u32)
    }

    /// Run one trial of `algorithm` with the given seed, returning the trace.
    ///
    /// With [`Self::batch`] set, the walk is driven by the reactor against
    /// a batch endpoint instead of a synchronous session — over the
    /// **same** RNG stream, so the trace is bit-identical to the
    /// synchronous mode (budget cut-off included).
    pub fn run(&self, algorithm: &Algorithm, seed: u64) -> WalkTrace {
        let start = self.start_node(seed);
        let mut walker = algorithm.make(start);
        if let Some(batch) = &self.batch {
            return self.run_batched(walker, start, batch.clone(), seed);
        }
        let config = WalkConfig::steps(self.max_steps).with_seed(seed);
        let session = WalkSession::new(config);
        match self.budget {
            Some(b) => {
                let inner = self.make_client();
                let n = self.network.graph.node_count();
                let mut client = BudgetedClient::new(inner, b, n);
                session.run(walker.as_mut(), &mut client)
            }
            None => {
                let mut client = self.make_client();
                session.run(walker.as_mut(), &mut client)
            }
        }
    }

    /// The batched leg of [`Self::run`]: one walker on the reactor against
    /// a [`SimulatedBatchOsn`], seeded exactly like the synchronous
    /// [`WalkSession`].
    fn run_batched(
        &self,
        mut walker: Box<dyn RandomWalk + Send>,
        start: NodeId,
        batch: BatchConfig,
        seed: u64,
    ) -> WalkTrace {
        use rand::SeedableRng;
        let mut client = SimulatedBatchOsn::configured(self.make_client(), batch, self.budget);
        let (report, _) = osn_walks::reactor::drive_reactor(
            &mut client,
            &mut [walker.as_mut()],
            &mut [rand_chacha::ChaCha12Rng::seed_from_u64(seed)],
            self.max_steps,
            |_| 1.0,
            &osn_walks::Never,
        );
        let nodes = report
            .trace
            .per_walker
            .into_iter()
            .next()
            .unwrap_or_default();
        WalkTrace::from_parts(start, nodes, report.stops[0], report.trace.stats)
    }
}

/// Map `f` over `0..count` using up to `threads` scoped OS threads,
/// preserving output order. Results are deterministic because every trial
/// derives its own seed — thread scheduling cannot reorder randomness.
pub fn parallel_map<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, count.max(1));
    if threads <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    let mut results: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|scope| {
        // Workers pull indices from a shared counter and return
        // (index, value) pairs; the scatter happens after the join.
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("worker panicked") {
                results[i] = Some(v);
            }
        }
    });
    results
        .into_iter()
        .map(|o| o.expect("all indices computed"))
        .collect()
}

/// Default worker count: physical parallelism minus one, at least one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(1)
}

/// A soft wall-clock guard for long sweep schedules (the `repro --full`
/// runs): construct with a limit, poll [`exceeded`](Self::exceeded) between
/// units of work, and stop scheduling new ones once it fires. The guard
/// never interrupts a unit mid-flight — `Scale::Full` sweeps stay
/// internally consistent; only *remaining* targets are skipped.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    started: std::time::Instant,
    limit: Option<std::time::Duration>,
}

impl Deadline {
    /// A guard that never fires.
    pub fn unlimited() -> Self {
        Deadline {
            started: std::time::Instant::now(),
            limit: None,
        }
    }

    /// A guard firing `secs` seconds from now.
    pub fn after_secs(secs: u64) -> Self {
        Deadline {
            started: std::time::Instant::now(),
            limit: Some(std::time::Duration::from_secs(secs)),
        }
    }

    /// Whether the limit has passed.
    pub fn exceeded(&self) -> bool {
        self.limit.is_some_and(|l| self.started.elapsed() > l)
    }

    /// Time since the guard was armed.
    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// The configured limit, if any.
    pub fn limit(&self) -> Option<std::time::Duration> {
        self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_datasets::{facebook_like, Scale};
    use osn_walks::WalkStop;

    fn shared_net() -> Arc<AttributedGraph> {
        Arc::new(facebook_like(Scale::Test, 1).network)
    }

    #[test]
    fn trial_seeds_are_spread() {
        let a = trial_seed(1, 0);
        let b = trial_seed(1, 1);
        let c = trial_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(trial_seed(1, 0), a);
    }

    #[test]
    fn budgeted_trial_stops_on_budget() {
        let plan = TrialPlan::budgeted(shared_net(), 30);
        let trace = plan.run(&Algorithm::Srw, 5);
        assert_eq!(trace.stop, WalkStop::BudgetExhausted);
        assert!(trace.stats.unique <= 30);
        assert!(!trace.is_empty());
    }

    #[test]
    fn unbudgeted_trial_runs_exact_steps() {
        let plan = TrialPlan::steps(shared_net(), 500);
        let trace = plan.run(&Algorithm::Cnrw, 6);
        assert_eq!(trace.len(), 500);
        assert_eq!(trace.stop, WalkStop::MaxSteps);
    }

    #[test]
    fn batched_trial_is_bit_identical_to_serial() {
        // Same plan, same seed, serial session vs the reactor behind a
        // batch endpoint: identical trace, identical accounting, identical
        // budget cut-off — for several batch shapes.
        let plan = TrialPlan::budgeted(shared_net(), 40);
        for algorithm in [Algorithm::Cnrw, Algorithm::Srw] {
            let serial = plan.run(&algorithm, 11);
            for batch_size in [1usize, 4, 16] {
                let batched = plan
                    .clone()
                    .with_batch(osn_client::BatchConfig::new(batch_size).with_in_flight(2))
                    .run(&algorithm, 11);
                assert_eq!(serial.nodes(), batched.nodes(), "batch_size={batch_size}");
                assert_eq!(serial.stop, batched.stop);
                assert_eq!(serial.stats, batched.stats);
            }
        }
    }

    #[test]
    fn builder_surface_matches_the_shorthands() {
        // The documented shorthands forward to the canonical builder: a
        // hand-assembled plan replays the shorthand's traces bit-for-bit.
        let net = shared_net();
        let short = TrialPlan::budgeted(net.clone(), 30);
        let built = TrialPlan::new(net.clone())
            .with_budget(30)
            .with_max_steps(short.max_steps);
        assert_eq!(
            short.run(&Algorithm::Cnrw, 4).nodes(),
            built.run(&Algorithm::Cnrw, 4).nodes()
        );
        let short = TrialPlan::steps(net.clone(), 120);
        let built = TrialPlan::new(net).with_max_steps(120);
        assert_eq!(
            short.run(&Algorithm::Srw, 4).nodes(),
            built.run(&Algorithm::Srw, 4).nodes()
        );
    }

    #[test]
    fn compact_backed_trials_are_bit_identical_to_plain() {
        use osn_graph::compact::CompactCsr;
        let net = shared_net();
        let compact = Arc::new(CompactCsr::from_csr(&net.graph));
        for algorithm in [Algorithm::Srw, Algorithm::Cnrw, Algorithm::NbCnrw] {
            let plain = TrialPlan::steps(net.clone(), 300).run(&algorithm, 21);
            let packed = TrialPlan::from_compact(Arc::clone(&compact))
                .with_max_steps(300)
                .run(&algorithm, 21);
            assert_eq!(plain.nodes(), packed.nodes(), "{algorithm:?}");
            assert_eq!(plain.stop, packed.stop);
            assert_eq!(plain.stats, packed.stats);
        }
        // The budgeted + batched legs route through the same client.
        let plain = TrialPlan::budgeted(net.clone(), 40)
            .with_batch(osn_client::BatchConfig::new(4).with_in_flight(2))
            .run(&Algorithm::Cnrw, 23);
        let mut packed_plan = TrialPlan::from_compact(compact)
            .with_budget(40)
            .with_batch(osn_client::BatchConfig::new(4).with_in_flight(2));
        packed_plan.max_steps = TrialPlan::budgeted(net, 40).max_steps;
        let packed = packed_plan.run(&Algorithm::Cnrw, 23);
        assert_eq!(plain.nodes(), packed.nodes());
        assert_eq!(plain.stats, packed.stats);
    }

    #[test]
    fn trials_deterministic_per_seed() {
        let plan = TrialPlan::budgeted(shared_net(), 50);
        let a = plan.run(&Algorithm::Cnrw, 7);
        let b = plan.run(&Algorithm::Cnrw, 7);
        assert_eq!(a.nodes(), b.nodes());
    }

    #[test]
    fn different_trials_start_differently_often() {
        let plan = TrialPlan::budgeted(shared_net(), 10);
        let starts: std::collections::HashSet<u32> = (0..20)
            .map(|t| plan.start_node(trial_seed(3, t)).0)
            .collect();
        assert!(starts.len() > 5, "starts not spread: {starts:?}");
    }

    #[test]
    fn deadline_guard_fires_only_past_its_limit() {
        let never = Deadline::unlimited();
        assert!(!never.exceeded());
        assert_eq!(never.limit(), None);
        let generous = Deadline::after_secs(3600);
        assert!(!generous.exceeded());
        let immediate = Deadline::after_secs(0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(immediate.exceeded());
        assert!(immediate.elapsed() >= std::time::Duration::from_millis(5));
    }

    #[test]
    fn parallel_map_preserves_order_and_values() {
        let out = parallel_map(100, 4, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn parallel_map_single_thread_path() {
        assert_eq!(parallel_map(3, 1, |i| i + 1), vec![1, 2, 3]);
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn parallel_equals_serial() {
        let plan = TrialPlan::budgeted(shared_net(), 20);
        let serial: Vec<u64> = (0..8)
            .map(|t| plan.run(&Algorithm::Srw, trial_seed(9, t)).stats.unique)
            .collect();
        let plan2 = plan.clone();
        let parallel: Vec<u64> = parallel_map(8, 4, move |t| {
            plan2
                .run(&Algorithm::Srw, trial_seed(9, t as u64))
                .stats
                .unique
        });
        assert_eq!(serial, parallel);
    }
}
