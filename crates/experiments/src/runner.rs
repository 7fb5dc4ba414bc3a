//! Trial execution: deterministic seeding, budget-limited walks, and
//! thread-parallel replication.

use std::sync::Arc;

use osn_client::{BatchConfig, BudgetedClient, SimulatedBatchOsn, SimulatedOsn};
use osn_graph::attributes::AttributedGraph;
use osn_graph::compact::CompactCsr;
use osn_graph::NodeId;
use osn_walks::{
    OrchestratorReport, RandomWalk, RestartPolicy, WalkConfig, WalkOrchestrator, WalkSession,
    WalkTrace,
};

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
/// step cap, dispatch mode, restart policy, group plan — is a
/// `with_*` builder on the same surface. [`TrialPlan::budgeted`] and
/// [`TrialPlan::steps`] remain as documented shorthands that forward to
/// the builder; nothing is deprecated.
///
/// The two dispatch modes run on the two engines of `osn-walks`: the
/// synchronous path through [`WalkSession`] (the serial core's
/// single-walker entry point) and the batched path through the reactor
/// ([`osn_walks::reactor::drive_reactor`]), both under the `Never` restart
/// policy and over the same raw-seeded RNG stream — which is what keeps
/// the two modes bit-identical per seed. [`TrialPlan::with_restarts`]
/// opts a plan into a [`RestartPolicy`] instead (single-walker steal
/// ablations); that path runs on [`WalkOrchestrator`] and its derived
/// per-walker RNG stream, so it matches orchestrator runs rather than the
/// policy-free session stream. Multi-walker experiments with restart
/// policies (e.g. `fig6_steal`) use [`WalkOrchestrator`] directly.
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
    /// Restart policy for single-walker steal ablations (`None` = the
    /// policy-free fast path). Set via [`Self::with_restarts`].
    pub restarts: Option<Arc<dyn RestartPolicy + Send + Sync>>,
    /// Precomputed group plan for GNRW trials (`None` = the planless
    /// per-step partition). Set via [`Self::with_group_plan`]; non-GNRW
    /// algorithms ignore it.
    pub group_plan: Option<Arc<osn_walks::GroupPlan>>,
    /// Compressed snapshot backing every trial's client instead of
    /// [`Self::network`] (which becomes an edgeless placeholder carrying
    /// only the node count). Set via [`Self::from_compact`]; walks decode
    /// neighbor lists on demand and are bit-identical per seed to the same
    /// plan over the decompressed [`osn_graph::CsrGraph`].
    pub compact: Option<Arc<CompactCsr>>,
}

impl TrialPlan {
    /// The canonical constructor: an unbudgeted plan over a snapshot with
    /// the default step cap, synchronous dispatch, and no restart policy. Layer knobs on with the `with_*` builders.
    pub fn new(network: Arc<AttributedGraph>) -> Self {
        TrialPlan {
            network,
            budget: None,
            max_steps: 10_000,
            batch: None,
            restarts: None,
            group_plan: None,
            compact: None,
        }
    }

    /// A plan over a compressed snapshot: clients decode adjacency from
    /// `graph` on demand instead of borrowing a materialized CSR, so
    /// ~10⁸-edge graphs run in the packed footprint. [`Self::network`] is
    /// an edgeless placeholder (correct node count, no topology); group
    /// plans and attribute peeks need a plain-network plan.
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

    /// Same plan under a [`RestartPolicy`] (single-walker steal ablations).
    ///
    /// Trials run on [`WalkOrchestrator`] — the serial core or the reactor
    /// per [`Self::batch`] — with the walker consuming the orchestrator's
    /// derived RNG stream. Use [`Self::run_report`] to see restart
    /// diagnostics; [`Self::run`] flattens to the walker's trace.
    #[must_use]
    pub fn with_restarts(mut self, policy: impl RestartPolicy + Send + 'static) -> Self {
        self.restarts = Some(Arc::new(policy));
        self
    }

    /// Same plan with GNRW trials running against a shared precomputed
    /// [`osn_walks::GroupPlan`] (the fast path, equivalent in distribution
    /// to the planless walk). Build the plan once via
    /// [`Algorithm::build_group_plan`] over [`Self::network`] and share it
    /// across trials.
    #[must_use]
    pub fn with_group_plan(mut self, plan: Arc<osn_walks::GroupPlan>) -> Self {
        self.group_plan = Some(plan);
        self
    }

    /// Construct the walker for one trial, honoring [`Self::group_plan`].
    fn make_walker(&self, algorithm: &Algorithm, start: NodeId) -> Box<dyn RandomWalk + Send> {
        match &self.group_plan {
            Some(plan) => algorithm.make_planned(start, Arc::clone(plan)),
            None => algorithm.make(start),
        }
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
        if self.restarts.is_some() {
            let report = self.run_report(algorithm, seed);
            let nodes = report
                .trace
                .per_walker
                .into_iter()
                .next()
                .unwrap_or_default();
            return WalkTrace::from_parts(start, nodes, report.stops[0], report.trace.stats);
        }
        let mut walker = self.make_walker(algorithm, start);
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

    /// Run one trial on the [`WalkOrchestrator`] engine and return the full
    /// [`OrchestratorReport`] — restart diagnostics included. This is the
    /// path [`Self::run`] takes when [`Self::with_restarts`] set a policy
    /// (without one, the report is a policy-free `Never` run); the walker
    /// consumes the orchestrator's derived RNG stream for `seed`.
    pub fn run_report(&self, algorithm: &Algorithm, seed: u64) -> OrchestratorReport {
        let start = self.start_node(seed);
        let policy: &(dyn RestartPolicy + Send + Sync) = match &self.restarts {
            Some(p) => p.as_ref(),
            None => &osn_walks::Never,
        };
        let orchestrator = WalkOrchestrator::new(1, self.max_steps, seed);
        let make = |_, _| self.make_walker(algorithm, start);
        match &self.batch {
            Some(batch) => {
                let mut client =
                    SimulatedBatchOsn::configured(self.make_client(), batch.clone(), self.budget);
                orchestrator.run_reactor(&mut client, make, |_| 1.0, policy)
            }
            None => match self.budget {
                Some(b) => {
                    let inner = self.make_client();
                    let n = self.network.graph.node_count();
                    let mut client = BudgetedClient::new(inner, b, n);
                    orchestrator.run_serial(&mut client, make, |_| 1.0, policy)
                }
                None => {
                    let mut client = self.make_client();
                    orchestrator.run_serial(&mut client, make, |_| 1.0, policy)
                }
            },
        }
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

    /// A deliberately simple policy for exercising the hook: teleport home
    /// on a fixed step cadence.
    struct TeleportEvery {
        cadence: usize,
        home: NodeId,
    }

    impl osn_walks::RestartPolicy for TeleportEvery {
        fn restart_target(
            &self,
            _walker: usize,
            steps_done: usize,
            current: NodeId,
            _current_degree: usize,
            _cached: &dyn Fn(NodeId) -> bool,
        ) -> Option<(NodeId, osn_walks::RestartReason)> {
            (steps_done.is_multiple_of(self.cadence) && current != self.home)
                .then_some((self.home, osn_walks::RestartReason::Exhausted))
        }
    }

    #[test]
    fn restart_hook_relocates_and_reports() {
        let plan = TrialPlan::steps(shared_net(), 200).with_restarts(TeleportEvery {
            cadence: 25,
            home: NodeId(0),
        });
        let report = plan.run_report(&Algorithm::Srw, 13);
        assert!(!report.restarts.is_empty(), "the policy never fired");
        for e in &report.restarts {
            assert_eq!(e.to, NodeId(0));
        }
        // `run` flattens the same orchestrated trace.
        let trace = plan.run(&Algorithm::Srw, 13);
        assert_eq!(trace.nodes(), &report.trace.per_walker[0][..]);
        // And the hook stays deterministic per seed.
        let again = plan.run_report(&Algorithm::Srw, 13);
        assert_eq!(report.restarts, again.restarts);
        assert_eq!(report.trace.per_walker, again.trace.per_walker);
    }

    #[test]
    fn restart_hook_supports_work_stealing() {
        // Single-walker WorkStealing: its own-territory filter means it
        // rarely (often never) fires, but the hook must run it cleanly in
        // both dispatch modes and stay deterministic.
        use osn_walks::{SharedFrontier, WorkStealing};
        let serial = TrialPlan::budgeted(shared_net(), 40).with_restarts(WorkStealing::new(
            1.05,
            8,
            SharedFrontier::new(),
        ));
        let a = serial.run(&Algorithm::Cnrw, 9);
        let b = serial.run(&Algorithm::Cnrw, 9);
        assert_eq!(a.nodes(), b.nodes());
        let batched = serial
            .clone()
            .with_batch(osn_client::BatchConfig::new(4).with_in_flight(2));
        let c = batched.run(&Algorithm::Cnrw, 9);
        assert!(!c.is_empty());
    }

    #[test]
    fn plan_backed_trials_are_deterministic_per_seed() {
        use crate::algorithms::GroupingSpec;
        let net = shared_net();
        let alg = Algorithm::Gnrw(GroupingSpec::ByDegree);
        let plan = Arc::new(alg.build_group_plan(&net).unwrap());
        assert!(
            plan.degenerate().is_none(),
            "fixture grouping must be non-degenerate for this comparison"
        );
        // Alias draws reorder the planless walk's draws; the trial still
        // runs to the step cap and stays deterministic per seed.
        let alias_plan = TrialPlan::steps(net, 400).with_group_plan(plan);
        let a = alias_plan.run(&alg, 17);
        let b = alias_plan.run(&alg, 17);
        assert_eq!(a.len(), 400);
        assert_eq!(a.nodes(), b.nodes());
    }

    #[test]
    fn group_plan_is_ignored_by_planless_samplers() {
        use crate::algorithms::GroupingSpec;
        let net = shared_net();
        let plan = Arc::new(
            Algorithm::Gnrw(GroupingSpec::ByDegree)
                .build_group_plan(&net)
                .unwrap(),
        );
        let bare = TrialPlan::steps(net.clone(), 200).run(&Algorithm::Cnrw, 8);
        let planned = TrialPlan::steps(net, 200)
            .with_group_plan(plan)
            .run(&Algorithm::Cnrw, 8);
        assert_eq!(bare.nodes(), planned.nodes());
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
