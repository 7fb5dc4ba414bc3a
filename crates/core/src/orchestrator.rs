//! The walk orchestrator: the **serial core** and the [`WalkOrchestrator`]
//! entry point to both execution engines.
//!
//! CNRW and GNRW are drop-in replacements for a random walk, so an engine
//! only has to fetch a neighbor list and take a step. Two engines do that:
//!
//! | Engine | Client | Entry points | Scheduling |
//! |---|---|---|---|
//! | **Serial core** | any [`OsnClient`] | [`crate::WalkSession`] (one walker), [`WalkOrchestrator::run_serial`] (k walkers) | round-robin waves on the calling thread |
//! | **Reactor** | any [`BatchOsnClient`](osn_client::BatchOsnClient) | [`WalkOrchestrator::run_reactor`], [`WalkOrchestrator::start_reactor`] / [`WalkOrchestrator::resume_reactor`] ([`crate::ReactorWalkRun`]) | poll-driven event loop: walkers park as [`crate::reactor::WalkerFsm`] state machines on in-flight batches (see [`crate::reactor`]) |
//!
//! The per-step bookkeeping (trace recording, estimator pushes, stop
//! accounting, policy observation) lives once in this module's walker-cell
//! core; both engines only schedule calls into it.
//!
//! Walkers sharing one client share its **cache**. The paper's related
//! work cites Alon et al., *"Many random walks are faster than one"* \[3\];
//! in the restricted-access setting a node queried by any walker is free
//! for all others, so `k` walkers cover ground faster without multiplying
//! the unique-query bill. The walkers are independent chains with the same
//! stationary distribution, so pooled samples feed the usual estimators
//! unchanged and multi-chain diagnostics
//! (`osn_estimate::diagnostics::split_rhat`) apply.
//!
//! Both engines take a [`RestartPolicy`]:
//!
//! * [`Never`] — the identity policy. Traces are **bit-identical** to a
//!   plain walk loop (pinned by the golden fixtures and cross-engine
//!   equivalence suites); observation hooks are skipped entirely, so the
//!   core costs nothing a hand-written loop would not pay.
//! * [`WorkStealing`] — walkers publish the nodes they walk through into a
//!   striped [`SharedFrontier`]; every `check_every` steps a walker
//!   whose recent window discovered nothing new (component exhausted) or
//!   whose chain the online windowed split-R̂
//!   ([`osn_estimate::WindowedSplitRhat`]) flags as the non-mixing outlier
//!   is **restarted** — via the slab-reusing [`RandomWalk::restart`] — from
//!   a frontier node discovered by another walker, instead of burning
//!   budget where coverage is saturated.
//!
//! ## Determinism
//!
//! The serial core consults the policy at **round boundaries** (all active
//! walkers have stepped equally often), so given a seed the whole run —
//! restart schedule included — is deterministic. The reactor consults it
//! after every completion event; when one batch holds the whole fleet its
//! events coincide with the serial rounds, and absent a budget the two
//! engines produce the *same* traces, estimates and restart schedule
//! (pinned by the `reactor_equivalence` suite).

use std::cell::RefCell;

use osn_client::{OsnClient, QueryStats};
use osn_estimate::{RatioEstimator, WindowedSplitRhat};
use osn_graph::NodeId;
use osn_serde::Value;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

use crate::circulation::HistoryBackend;
use crate::fnv::FnvHashSet;
use crate::frontier::SharedFrontier;
use crate::walker::RandomWalk;
use crate::WalkStop;

/// Why a [`RestartPolicy`] relocated a walker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestartReason {
    /// The walker's recent check window arrived at no node it had not
    /// already visited: its component (or reachable neighborhood) is
    /// exhausted and further steps only resample known territory.
    Exhausted,
    /// The online windowed split-R̂ across the fleet exceeded the threshold
    /// and flagged this walker's chain as the most deviant — it has not
    /// mixed into the territory the others agree on.
    NonMixing,
    /// The walker's next step was refused (budget exhausted / dead
    /// interface): instead of terminating, it was rescued into cached
    /// territory another walker discovered — the fleet keeps extracting
    /// samples from already-paid-for nodes.
    Refused,
}

/// One restart performed during an orchestrated run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestartEvent {
    /// The relocated walker.
    pub walker: usize,
    /// Steps the walker had performed when it was relocated.
    pub step: usize,
    /// The position it abandoned.
    pub from: NodeId,
    /// The stolen frontier node it restarted from.
    pub to: NodeId,
    /// What triggered the restart.
    pub reason: RestartReason,
}

/// Decides when a walker should abandon its position and where it should
/// restart. Methods take `&self`, so callers can pass a shared `&Never`,
/// and a policy that keeps state holds it in a `RefCell`. Every engine
/// drives its policy from the calling thread.
pub trait RestartPolicy {
    /// Whether this policy can ever request a restart. `false` (only
    /// [`Never`] returns it) lets the engines skip per-step observation
    /// entirely, keeping the policy-free hot loop a plain walk loop.
    fn enabled(&self) -> bool {
        true
    }

    /// Called once before any step with the fleet size.
    fn begin_run(&self, _walkers: usize) {}

    /// Observe one performed step of `walker`: it departed `from` (degree
    /// `from_degree`; `from`'s neighbor list has just been fetched, so it
    /// is cached for everyone) and arrived at `to`, contributing `value` to
    /// the estimate.
    fn observe_step(
        &self,
        _walker: usize,
        _from: NodeId,
        _from_degree: usize,
        _to: NodeId,
        _value: f64,
    ) {
    }

    /// Decide whether `walker` — currently at `current` (degree
    /// `current_degree`) with `steps_done` performed steps — should restart
    /// now, and from which node. `cached(u)` reports whether `u`'s neighbor
    /// list is free to re-fetch (see [`OsnClient::is_cached`] /
    /// [`osn_client::BatchOsnClient::is_cached`]); policies use it as a
    /// preference, not a filter — an uncached target simply rides the next
    /// fetch like any other request.
    fn restart_target(
        &self,
        _walker: usize,
        _steps_done: usize,
        _current: NodeId,
        _current_degree: usize,
        _cached: &dyn Fn(NodeId) -> bool,
    ) -> Option<(NodeId, RestartReason)> {
        None
    }

    /// Called when `walker`'s step was just refused (budget exhausted or
    /// dead interface; the walker is unchanged at `current`). Returning a
    /// node **rescues** the walker — it relocates and keeps sampling
    /// (necessarily cached territory, since nothing new can be charged) —
    /// instead of terminating with [`crate::WalkStop::BudgetExhausted`].
    /// `None` (the default) keeps the classic ending.
    fn rescue_target(
        &self,
        _walker: usize,
        _steps_done: usize,
        _current: NodeId,
        _cached: &dyn Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        None
    }

    /// Notification that the engine performed the restart it was told to.
    fn after_restart(&self, _walker: usize) {}
}

/// The identity policy: never restarts, never observes. All golden-trace
/// and cross-engine equivalence suites run under it — orchestrated runs
/// with `Never` are bit-identical to a plain walk loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct Never;

impl RestartPolicy for Never {
    fn enabled(&self) -> bool {
        false
    }
}

/// Per-walker bookkeeping of the [`WorkStealing`] policy.
#[derive(Default)]
struct WalkerDiag {
    /// Every node this walker has occupied (starts, arrivals, restart
    /// targets) — the filter that stops it from stealing its own territory.
    visited: FnvHashSet<u32>,
    /// Nodes first visited since the walker's last cadence check.
    fresh_since_check: usize,
    /// `steps_done` of the walker's last cadence check. A refused/rescued
    /// walker re-enters the next round with its step count unchanged; this
    /// keeps a pinned cadence multiple from re-firing every round.
    last_check: Option<usize>,
    /// Budget rescues performed — rotates repeated rescues across the pool.
    rescues: u64,
    /// Cadence steals performed — rotates revisit-steals across the pool.
    steals: u64,
}

/// Interior state of [`WorkStealing`], sized by
/// [`RestartPolicy::begin_run`].
struct StealDiag {
    window: WindowedSplitRhat,
    walkers: Vec<WalkerDiag>,
}

/// Work-stealing frontier restarts (the ROADMAP's named next step, built on
/// the paper's \[17\] — see [`crate::frontier`]).
///
/// Walkers publish every node they depart from into the shared
/// [`frontier`](Self::frontier) pool (each stripe retains its
/// highest-degree candidates). Every [`check_every`](Self::check_every)
/// steps, a walker is relocated to a frontier node discovered by *another*
/// walker when either trigger fires:
///
/// * **exhausted** — its last `check_every` steps visited no new node;
/// * **non-mixing** — the online windowed split-R̂ over the fleet's recent
///   value windows exceeds [`rhat_threshold`](Self::rhat_threshold) *and*
///   this walker's window is the most deviant chain.
///
/// Cadence steals are **degree-ascending**: the stolen node must be
/// strictly better connected than where the walker stands (the frontier
/// sampler's degree-proportional steering, hardened into a filter), so a
/// walker that already sits in well-connected territory is never dragged
/// into a worse-connected pocket another walker happened to publish.
///
/// A third trigger needs no cadence: when a walker's step is **refused**
/// (unique-query budget exhausted), the policy *rescues* it into any
/// unvisited frontier territory instead of letting it terminate — once the
/// budget is spent, every published node is cached, so the rescued walker
/// keeps converting already-paid-for queries into samples at zero cost.
///
/// Relocation goes through the slab-reusing [`RandomWalk::restart`], so a
/// restarted CNRW/GNRW walker keeps its arena capacity. If no other walker
/// has published territory the candidate has not already visited, the
/// walker keeps walking (or, for a refused step, terminates classically) —
/// stealing never falls back to random teleports, which would break the
/// "restart only into discovered, cached territory" cost argument.
///
/// One policy value drives one run at a time ([`begin_run`] resizes the
/// interior state); construct a fresh [`SharedFrontier`] per run unless you
/// *want* runs to share discovered territory.
///
/// [`begin_run`]: RestartPolicy::begin_run
pub struct WorkStealing {
    /// Windowed split-R̂ above this flags non-mixing (1.05–1.2 is typical;
    /// see [`osn_estimate::diagnostics::split_rhat`]).
    pub rhat_threshold: f64,
    /// Steps between policy checks per walker; also the diagnostic window
    /// length (clamped to at least 8, rounded down to even).
    pub check_every: usize,
    /// The shared candidate pool walkers publish into and steal from.
    pub frontier: SharedFrontier,
    diag: RefCell<StealDiag>,
}

impl WorkStealing {
    /// Policy with the given trigger threshold and cadence over a frontier
    /// pool.
    pub fn new(rhat_threshold: f64, check_every: usize, frontier: SharedFrontier) -> Self {
        let check_every = check_every.max(8) & !1;
        WorkStealing {
            rhat_threshold,
            check_every,
            frontier,
            diag: RefCell::new(StealDiag {
                window: WindowedSplitRhat::new(0, check_every),
                walkers: Vec::new(),
            }),
        }
    }
}

impl RestartPolicy for WorkStealing {
    fn begin_run(&self, walkers: usize) {
        let mut d = self.diag.borrow_mut();
        d.window = WindowedSplitRhat::new(walkers, self.check_every);
        d.walkers = (0..walkers).map(|_| WalkerDiag::default()).collect();
    }

    fn observe_step(
        &self,
        walker: usize,
        from: NodeId,
        from_degree: usize,
        to: NodeId,
        value: f64,
    ) {
        let mut d = self.diag.borrow_mut();
        d.window.push(walker, value);
        let w = &mut d.walkers[walker];
        w.visited.insert(from.0);
        if w.visited.insert(to.0) {
            w.fresh_since_check += 1;
        }
        // `from`'s neighbor list was fetched by this very step, so
        // restarting there re-queries nothing.
        self.frontier.publish(from, from_degree, walker);
    }

    fn restart_target(
        &self,
        walker: usize,
        steps_done: usize,
        current: NodeId,
        current_degree: usize,
        cached: &dyn Fn(NodeId) -> bool,
    ) -> Option<(NodeId, RestartReason)> {
        if steps_done == 0 || !steps_done.is_multiple_of(self.check_every) {
            return None;
        }
        let mut d = self.diag.borrow_mut();
        if d.walkers[walker].last_check == Some(steps_done) {
            // Already checked at this step count (the walker's step was
            // refused and it was rescued without advancing): one check per
            // cadence window, not one per scheduling round.
            return None;
        }
        d.walkers[walker].last_check = Some(steps_done);
        let fresh = std::mem::take(&mut d.walkers[walker].fresh_since_check);
        let reason = if fresh == 0 {
            RestartReason::Exhausted
        } else {
            let verdict = d.window.evaluate()?;
            if verdict.rhat > self.rhat_threshold && verdict.most_deviant == walker {
                RestartReason::NonMixing
            } else {
                return None;
            }
        };
        // Degree-ascending: only move into strictly better-connected
        // territory than the walker currently stands in. Prefer unvisited
        // territory (taken destructively, so two stalled walkers fan out);
        // fall back to revisiting another walker's published nodes
        // non-destructively — without this, a fully-cached low-degree
        // pocket becomes an absorbing sink once everything is visited.
        let rotation = d.walkers[walker].steals;
        d.walkers[walker].steals += 1;
        let visited = &d.walkers[walker].visited;
        if let Some(entry) = self.frontier.steal(
            walker,
            current_degree + 1,
            |u| visited.contains(&u.0),
            cached,
        ) {
            return Some((entry.node, reason));
        }
        let entry = self.frontier.borrow_target(
            walker,
            current_degree + 1,
            rotation,
            |u| u == current,
            cached,
        )?;
        Some((entry.node, reason))
    }

    fn rescue_target(
        &self,
        walker: usize,
        _steps_done: usize,
        current: NodeId,
        cached: &dyn Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        // The walker is dead where it stands: any territory another walker
        // published beats terminating (no degree bar). Prefer *unvisited*
        // territory — taken destructively, so two dying walkers fan out —
        // and fall back to revisiting published nodes non-destructively:
        // post-budget every published node is cached, so the rescued walker
        // keeps converting already-paid-for queries into samples for free.
        // The rotation spreads repeated rescues across the pool instead of
        // piling every dying walker onto one hub.
        let mut d = self.diag.borrow_mut();
        let rotation = d.walkers[walker].rescues;
        d.walkers[walker].rescues += 1;
        let visited = &d.walkers[walker].visited;
        if let Some(entry) = self
            .frontier
            .steal(walker, 0, |u| visited.contains(&u.0), cached)
        {
            return Some(entry.node);
        }
        let entry = self
            .frontier
            .borrow_target(walker, 0, rotation, |u| u == current, cached)?;
        Some(entry.node)
    }

    fn after_restart(&self, walker: usize) {
        // The abandoned position's samples say nothing about the new
        // neighborhood: restart the walker's diagnostic window.
        self.diag.borrow_mut().window.clear_chain(walker);
    }
}

/// Per-walker bookkeeping shared by both engines: the step count, the
/// trace (when the run records one), the running estimator, and why (if)
/// the walker stopped. This — plus [`advance_walker`], [`maybe_restart`]
/// and [`maybe_rescue`] below — *is* the execution core; the engines only
/// schedule calls into it.
pub(crate) struct Cell {
    /// Transitions performed.
    pub(crate) steps: usize,
    /// The visit sequence, one node per transition; `None` when the run
    /// records none ([`crate::ReactorWalkRun::without_traces`]).
    pub(crate) trace: Option<Vec<NodeId>>,
    pub(crate) est: RatioEstimator,
    pub(crate) stop: Option<WalkStop>,
}

impl Cell {
    /// A traced cell. `capacity_hint = 0` starts the trace empty
    /// (multi-walker fleets — a budgeted fleet may stop after a few steps,
    /// so preallocating `max_steps` per walker would waste memory); the
    /// single-walker session path passes its step cap.
    pub(crate) fn new(capacity_hint: usize) -> Self {
        Cell {
            steps: 0,
            trace: Some(Vec::with_capacity(capacity_hint.min(1 << 20))),
            est: RatioEstimator::new(),
            stop: None,
        }
    }

    pub(crate) fn live(&self, max_steps: usize) -> bool {
        self.stop.is_none() && self.steps < max_steps
    }
}

/// One transition of walker `i`: step, record, observe. The single place
/// where a walker meets a client — both engines funnel through here.
/// `value: None` skips estimator maintenance entirely (the trace-only
/// `WalkSession` — SRW steps in a handful of nanoseconds, so even one
/// spurious degree peek per step is measurable).
pub(crate) fn advance_walker<C, R, F, P>(
    i: usize,
    walker: &mut dyn RandomWalk,
    rng: &mut R,
    client: &mut C,
    value: Option<&F>,
    policy: &P,
    cell: &mut Cell,
) where
    C: OsnClient,
    R: RngCore,
    F: Fn(NodeId) -> f64 + ?Sized,
    P: RestartPolicy + ?Sized,
{
    let from = walker.current();
    match walker.step(client, rng) {
        Ok(v) => {
            if let Some(value) = value {
                let fv = value(v);
                cell.est.push(fv, client.peek_degree(v));
                if policy.enabled() {
                    policy.observe_step(i, from, client.peek_degree(from), v, fv);
                }
            } else if policy.enabled() {
                policy.observe_step(i, from, client.peek_degree(from), v, 0.0);
            }
            cell.steps += 1;
            if let Some(trace) = &mut cell.trace {
                trace.push(v);
            }
        }
        Err(_) => cell.stop = Some(WalkStop::BudgetExhausted),
    }
}

/// Consult the policy for walker `i` and perform the restart it requests,
/// recording the event. `degree_of` supplies the walker's current degree
/// (free listing metadata) for the policy's degree-ascending steal filter.
pub(crate) fn maybe_restart<P>(
    i: usize,
    walker: &mut dyn RandomWalk,
    cell: &Cell,
    policy: &P,
    degree_of: &dyn Fn(NodeId) -> usize,
    cached: &dyn Fn(NodeId) -> bool,
    restarts: &mut Vec<RestartEvent>,
) where
    P: RestartPolicy + ?Sized,
{
    let current = walker.current();
    if let Some((to, reason)) =
        policy.restart_target(i, cell.steps, current, degree_of(current), cached)
    {
        walker.restart(to);
        policy.after_restart(i);
        restarts.push(RestartEvent {
            walker: i,
            step: cell.steps,
            from: current,
            to,
            reason,
        });
    }
}

/// Offer a just-refused walker to the policy for rescue: on success its
/// stop is cleared, the relocation performed and recorded, and the walker
/// steps again from the **next** scheduling wave (both engines charge a
/// refusal one lost step, keeping their schedules aligned).
pub(crate) fn maybe_rescue<P>(
    i: usize,
    walker: &mut dyn RandomWalk,
    cell: &mut Cell,
    policy: &P,
    cached: &dyn Fn(NodeId) -> bool,
    restarts: &mut Vec<RestartEvent>,
) where
    P: RestartPolicy + ?Sized,
{
    if cell.stop != Some(WalkStop::BudgetExhausted) {
        return;
    }
    let current = walker.current();
    if let Some(to) = policy.rescue_target(i, cell.steps, current, cached) {
        walker.restart(to);
        policy.after_restart(i);
        cell.stop = None;
        restarts.push(RestartEvent {
            walker: i,
            step: cell.steps,
            from: current,
            to,
            reason: RestartReason::Refused,
        });
    }
}

/// Outcome of the serial core ([`drive_round_robin`]).
pub(crate) struct RoundOutcome {
    pub(crate) cells: Vec<Cell>,
    pub(crate) restarts: Vec<RestartEvent>,
    pub(crate) rounds: usize,
}

/// The serial core: step every live walker once per round (walker-index
/// order), consulting the policy at round boundaries. With one walker and
/// [`Never`] this degenerates to exactly the classic tight walk loop.
pub(crate) fn drive_round_robin<C, R, F, P>(
    client: &mut C,
    walkers: &mut [&mut dyn RandomWalk],
    rngs: &mut [R],
    max_steps: usize,
    value: Option<&F>,
    policy: &P,
) -> RoundOutcome
where
    C: OsnClient,
    R: RngCore,
    F: Fn(NodeId) -> f64 + ?Sized,
    P: RestartPolicy + ?Sized,
{
    let k = walkers.len();
    assert_eq!(k, rngs.len(), "one RNG stream per walker");
    policy.begin_run(k);
    let hint = if k == 1 { max_steps } else { 0 };
    let mut cells: Vec<Cell> = (0..k).map(|_| Cell::new(hint)).collect();
    let mut restarts = Vec::new();
    let mut rounds = 0usize;
    if k == 1 && !policy.enabled() {
        // Single walker, inert policy — the `WalkSession` shape. Skip the
        // active-set machinery: at SRW speeds (a handful of nanoseconds
        // per step) even one retained-index scan per round is measurable.
        let cell = &mut cells[0];
        while cell.live(max_steps) {
            rounds += 1;
            advance_walker(
                0,
                &mut *walkers[0],
                &mut rngs[0],
                client,
                value,
                policy,
                cell,
            );
        }
        return RoundOutcome {
            cells,
            restarts,
            rounds,
        };
    }
    let mut active: Vec<usize> = (0..k).collect();
    loop {
        active.retain(|&i| cells[i].live(max_steps));
        if active.is_empty() {
            break;
        }
        rounds += 1;
        if policy.enabled() {
            for &i in &active {
                let cached = |u: NodeId| client.is_cached(u);
                let degree_of = |u: NodeId| client.peek_degree(u);
                maybe_restart(
                    i,
                    &mut *walkers[i],
                    &cells[i],
                    policy,
                    &degree_of,
                    &cached,
                    &mut restarts,
                );
            }
        }
        for &i in &active {
            advance_walker(
                i,
                &mut *walkers[i],
                &mut rngs[i],
                client,
                value,
                policy,
                &mut cells[i],
            );
            if policy.enabled() && cells[i].stop.is_some() {
                // Refused step (no transition performed): offer a rescue —
                // the walker resumes from the next round if relocated.
                let cached = |u: NodeId| client.is_cached(u);
                maybe_rescue(
                    i,
                    &mut *walkers[i],
                    &mut cells[i],
                    policy,
                    &cached,
                    &mut restarts,
                );
            }
        }
    }
    RoundOutcome {
        cells,
        restarts,
        rounds,
    }
}

/// Per-walker visit sequences of a multi-walker run, plus its step counts
/// and walker-side query accounting.
#[derive(Clone, Debug)]
pub struct MultiWalkTrace {
    /// Per-walker visit sequences (one entry per performed step). Empty
    /// when the run recorded no traces
    /// ([`crate::ReactorWalkRun::without_traces`]); [`Self::steps`] counts
    /// the steps either way.
    pub per_walker: Vec<Vec<NodeId>>,
    /// Per-walker step counts, in walker order.
    pub steps: Vec<usize>,
    /// Query statistics of the run (shared across walkers).
    pub stats: QueryStats,
}

impl MultiWalkTrace {
    /// Total steps across all walkers, traced or not.
    pub fn total_steps(&self) -> usize {
        self.steps.iter().sum()
    }

    /// Iterator over all samples, pooled across walkers.
    pub fn pooled(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.per_walker.iter().flatten().copied()
    }

    /// Per-walker traces as `f64` sequences of `f(node)` — the shape the
    /// multi-chain diagnostics expect. Note `osn_estimate::split_rhat`
    /// requires equal-length chains; truncate explicitly when some walkers
    /// stopped early.
    pub fn chains<F: Fn(NodeId) -> f64>(&self, f: F) -> Vec<Vec<f64>> {
        self.per_walker
            .iter()
            .map(|c| c.iter().map(|&v| f(v)).collect())
            .collect()
    }
}

/// Outcome of an orchestrated run — the one multi-walker report, uniform
/// across both engines.
#[derive(Clone, Debug)]
pub struct OrchestratorReport {
    /// Per-walker visit sequences plus walker-side accounting (for the
    /// reactor this is the serial-shaped view over the ids delivered to the
    /// run; see [`Self::interface`]).
    pub trace: MultiWalkTrace,
    /// Per-walker ratio estimators merged in walker-index order.
    pub estimate: RatioEstimator,
    /// Why each walker stopped, in walker order.
    pub stops: Vec<WalkStop>,
    /// Every restart the policy performed, in schedule order.
    pub restarts: Vec<RestartEvent>,
    /// Scheduling waves executed by the serial core, or completion events
    /// processed by the reactor.
    pub rounds: usize,
    /// Interface-side accounting of the reactor (`None` for the serial
    /// core, whose walker-side stats *are* the interface stats).
    pub interface: Option<QueryStats>,
    /// Nodes the budget refused (reactor; each terminated the walkers
    /// parked on it).
    pub refused_nodes: usize,
    /// Nodes abandoned after repeated permanent drops (reactor).
    pub abandoned_nodes: usize,
}

impl OrchestratorReport {
    /// Fold per-walker cells into the report shape: estimators merged and
    /// stops defaulted in walker-index order. A run's cells are all traced
    /// or all untraced; untraced ones leave `per_walker` empty.
    pub(crate) fn from_cells(
        cells: Vec<Cell>,
        restarts: Vec<RestartEvent>,
        rounds: usize,
        stats: QueryStats,
    ) -> Self {
        let mut per_walker = Vec::with_capacity(cells.len());
        let mut steps = Vec::with_capacity(cells.len());
        let mut estimate = RatioEstimator::new();
        let mut stops = Vec::with_capacity(cells.len());
        for cell in cells {
            estimate.merge(&cell.est);
            stops.push(cell.stop.unwrap_or(WalkStop::MaxSteps));
            steps.push(cell.steps);
            per_walker.extend(cell.trace);
        }
        OrchestratorReport {
            trace: MultiWalkTrace {
                per_walker,
                steps,
                stats,
            },
            estimate,
            stops,
            restarts,
            rounds,
            interface: None,
            refused_nodes: 0,
            abandoned_nodes: 0,
        }
    }
}

/// The entry point to both engines: owns the fleet size, the per-walker
/// step cap and the SplitMix64-derived per-walker RNG streams — then runs
/// the fleet on the serial core
/// ([`Self::run_serial`]) or the reactor ([`Self::run_reactor`]) under a
/// [`RestartPolicy`]. See the module docs for the engine table.
///
/// ```
/// use osn_client::SimulatedOsn;
/// use osn_graph::{generators::barbell, NodeId};
/// use osn_walks::orchestrator::{Never, WalkOrchestrator};
/// use osn_walks::{Cnrw, RandomWalk};
///
/// let mut client = SimulatedOsn::from_graph(barbell(8, 8).unwrap());
/// let report = WalkOrchestrator::new(4, 200, 7).run_serial(
///     &mut client,
///     |i, _| Box::new(Cnrw::new(NodeId(i as u32 * 3))) as Box<dyn RandomWalk + Send>,
///     |v| v.index() as f64,
///     &Never,
/// );
/// assert_eq!(report.trace.per_walker.len(), 4);
/// assert!(report.restarts.is_empty());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct WalkOrchestrator {
    walkers: usize,
    max_steps_per_walker: usize,
    seed: u64,
}

impl WalkOrchestrator {
    /// Orchestrate `walkers` walkers (at least 1), each performing at most
    /// `max_steps_per_walker` transitions, with RNG streams derived from
    /// `seed`.
    pub fn new(walkers: usize, max_steps_per_walker: usize, seed: u64) -> Self {
        WalkOrchestrator {
            walkers: walkers.max(1),
            max_steps_per_walker,
            seed,
        }
    }

    /// Fleet size.
    pub fn walker_count(&self) -> usize {
        self.walkers
    }

    /// Per-walker step cap.
    pub fn max_steps_per_walker(&self) -> usize {
        self.max_steps_per_walker
    }

    /// The deterministic RNG seed for walker `i`'s private stream —
    /// [`osn_graph::mix::splitmix64_stream`], the workspace's one seed
    /// mixer (walker streams here, trial seeds in `osn-experiments`).
    pub fn walker_seed(&self, i: usize) -> u64 {
        osn_graph::mix::splitmix64_stream(self.seed, i as u64)
    }

    pub(crate) fn build_fleet<W>(
        &self,
        make_walker: W,
    ) -> (Vec<Box<dyn RandomWalk + Send>>, Vec<ChaCha12Rng>)
    where
        W: Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send>,
    {
        let walkers = (0..self.walkers)
            .map(|i| make_walker(i, HistoryBackend))
            .collect();
        let rngs = (0..self.walkers)
            .map(|i| ChaCha12Rng::seed_from_u64(self.walker_seed(i)))
            .collect();
        (walkers, rngs)
    }

    /// Run the fleet round-robin on the calling thread against one client.
    ///
    /// `make_walker(i, _)` builds walker `i` (the second argument is the
    /// [`HistoryBackend`] shim and carries nothing); `value(v)` is the
    /// quantity being estimated at
    /// node `v`. Fully deterministic — including the restart schedule —
    /// given the seed.
    pub fn run_serial<C, W, F, P>(
        &self,
        client: &mut C,
        make_walker: W,
        value: F,
        policy: &P,
    ) -> OrchestratorReport
    where
        C: OsnClient,
        W: Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send>,
        F: Fn(NodeId) -> f64,
        P: RestartPolicy + ?Sized,
    {
        let (mut fleet, mut rngs) = self.build_fleet(make_walker);
        let mut refs: Vec<&mut dyn RandomWalk> =
            fleet.iter_mut().map(|w| w.as_mut() as _).collect();
        let outcome = drive_round_robin(
            client,
            &mut refs,
            &mut rngs,
            self.max_steps_per_walker,
            Some(&value),
            policy,
        );
        OrchestratorReport::from_cells(
            outcome.cells,
            outcome.restarts,
            outcome.rounds,
            client.stats(),
        )
    }

    /// The snapshot-embedded description of this orchestrator's
    /// construction-time spec, checked (not restored) at resume time:
    /// resuming requires reconstructing the *same* run.
    pub(crate) fn spec_value(&self) -> Value {
        Value::obj([
            ("walkers", Value::Uint(self.walkers as u64)),
            ("max_steps", Value::Uint(self.max_steps_per_walker as u64)),
            ("seed", Value::Uint(self.seed)),
        ])
    }

    pub(crate) fn check_spec(&self, spec: &Value) -> Result<(), String> {
        let walkers: usize = spec.field("walkers")?.decode()?;
        let max_steps: usize = spec.field("max_steps")?.decode()?;
        let seed: u64 = spec.field("seed")?.decode()?;
        if walkers != self.walkers {
            return Err(format!(
                "orchestrator spec mismatch: snapshot has {walkers} walkers, this orchestrator {}",
                self.walkers
            ));
        }
        if max_steps != self.max_steps_per_walker {
            return Err(format!(
                "orchestrator spec mismatch: snapshot caps walkers at {max_steps} steps, this orchestrator at {}",
                self.max_steps_per_walker
            ));
        }
        if seed != self.seed {
            return Err(format!(
                "orchestrator spec mismatch: snapshot seed {seed}, this orchestrator {}",
                self.seed
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walkers::{Cnrw, Srw};
    use osn_client::{BudgetedClient, SimulatedOsn};
    use osn_graph::generators::{barbell, clustered_cliques, ClusteredCliquesConfig};

    fn clustered_client() -> SimulatedOsn {
        SimulatedOsn::from_graph(
            clustered_cliques(&ClusteredCliquesConfig::default()).expect("static config"),
        )
    }

    #[test]
    fn work_stealing_restarts_trapped_walkers_deterministically() {
        // All walkers clumped in the 10-clique of the clustered graph: the
        // small clique is exhausted within a few dozen steps, and the only
        // way out (short of the sparse bridges) is stealing territory a
        // luckier walker published.
        let run = || {
            let policy = WorkStealing::new(1.1, 16, SharedFrontier::with_stripes(8, 16));
            let mut client = clustered_client();
            let report = WalkOrchestrator::new(4, 400, 5).run_serial(
                &mut client,
                |i, _| Box::new(Cnrw::new(NodeId(i as u32 % 10))) as _,
                |v| v.index() as f64,
                &policy,
            );
            (report.restarts.clone(), report.trace.per_walker.clone())
        };
        let (restarts_a, traces_a) = run();
        let (restarts_b, traces_b) = run();
        assert_eq!(restarts_a, restarts_b, "restart schedule must be seeded");
        assert_eq!(traces_a, traces_b);
        assert!(
            !restarts_a.is_empty(),
            "clumped starts on the clustered graph must trigger stealing"
        );
        // Restart targets were published territory: visited by some walker.
        let visited: std::collections::HashSet<u32> = traces_a
            .iter()
            .flatten()
            .map(|v| v.0)
            .chain((0..4u32).map(|i| i % 10))
            .collect();
        for e in &restarts_a {
            assert!(
                visited.contains(&e.to.0),
                "stolen node {:?} never visited",
                e.to
            );
        }
    }

    #[test]
    fn stealing_beats_never_on_coverage_with_clumped_starts() {
        let coverage = |steal: bool| {
            let policy: Box<dyn RestartPolicy> = if steal {
                Box::new(WorkStealing::new(
                    1.1,
                    16,
                    SharedFrontier::with_stripes(8, 16),
                ))
            } else {
                Box::new(Never)
            };
            let mut client = clustered_client();
            let report = WalkOrchestrator::new(4, 500, 3).run_serial(
                &mut client,
                |i, _| Box::new(Cnrw::new(NodeId(i as u32 % 10))) as _,
                |v| v.index() as f64,
                policy.as_ref(),
            );
            report
                .trace
                .pooled()
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        assert!(
            coverage(true) >= coverage(false),
            "stealing must not reduce pooled coverage"
        );
    }

    #[test]
    fn budget_stops_are_reported_per_walker() {
        let g = barbell(10, 10).unwrap();
        let n = g.node_count();
        let mut client = BudgetedClient::new(SimulatedOsn::from_graph(g), 6, n);
        let report = WalkOrchestrator::new(2, 10_000, 1).run_serial(
            &mut client,
            |i, _| Box::new(Srw::new(NodeId(i as u32))) as _,
            |_| 1.0,
            &Never,
        );
        assert!(report.stops.iter().all(|s| *s == WalkStop::BudgetExhausted));
        assert!(report.trace.stats.unique <= 6);
    }

    #[test]
    fn never_policy_is_inert_and_object_safe() {
        let policy: &dyn RestartPolicy = &Never;
        assert!(!policy.enabled());
        assert_eq!(policy.restart_target(0, 64, NodeId(0), 3, &|_| true), None);
        assert_eq!(policy.rescue_target(0, 64, NodeId(0), &|_| true), None);
    }
}
