//! The reactor: the poll-driven engine for any [`BatchOsnClient`] —
//! **10k+ walkers as state machines on one loop, no threads, O(active
//! batches) memory**.
//!
//! Each walker's step is an explicit state machine ([`WalkerFsm`]) whose
//! completion source is the [`BatchOsnClient`] `submit`/`poll` pair: one
//! reactor loop parks tens of thousands of walkers on in-flight batches and
//! advances exactly the walkers each completed batch unblocks. Requests
//! coalesce: a node id is fetched (and charged) once however many walkers
//! wait on it. The run keeps **one bit per fetched node**, not the list:
//! each list is held once, by the endpoint, and read back through
//! [`BatchOsnClient::delivered`], and the run's id sets (delivered, seen,
//! refused) are [`NodeSet`]s — bitsets over the id range once they hold
//! one id per 64 of it, as a large run's do, and hash sets of the few ids
//! a small run fetches. A parked walker is a link in its node's waiter list
//! (one `u32` per walker, allocated with the fleet), so parking allocates
//! nothing, and a turn steps the fleet in place and reuses its act and
//! classify buffers and the id lists of completed batches, so a
//! [`ReactorWalkRun`] slice allocates only where the endpoint or a walker
//! does. A snapshot sorts each id set once; a resume builds each set at
//! once ([`NodeSet::from_ids`]). Beyond the fleet and those sets, memory
//! is bounded by the endpoint's in-flight window (tracked tickets × batch
//! size) plus the queued-id backlog — there is no per-walker stack,
//! thread, or round-robin wave slot ([`ReactorStats`] reports the observed
//! peaks so soak tests can pin the bound).
//!
//! ## The event loop
//!
//! One **turn** of the reactor core processes one completion event in five
//! phases, each deterministic:
//!
//! 1. **pump** — drain the retry/pending id queues into the endpoint's
//!    in-flight window as max-size batches (retries first, FIFO otherwise).
//! 2. **acquire** — `poll` the endpoint: the earliest-finishing in-flight
//!    request completes (*completion-time-ordered event delivery on the
//!    [`VirtualClock`]*, ties broken by ticket — see
//!    [`BatchOsnClient::next_ready_at`]). When nothing is in flight the
//!    turn is a *synthetic tick* driving walkers whose next neighbor list
//!    was already delivered.
//! 3. **act** — the walkers unblocked by this event plus those left ready
//!    by the previous one step **in walker-index order** (the tiebreak that
//!    makes the schedule canonical). At most one step per walker per event,
//!    so policy cadences stay aligned with the serial core's rounds.
//! 4. **policy** — [`RestartPolicy`] checks run for every live walker in
//!    walker-index order, exactly where the serial core consults the
//!    policy between rounds.
//! 5. **classify** — every walker that stepped (or was relocated) is
//!    parked on its new current node: already-delivered or refused nodes
//!    make it ready for the next event, anything else enqueues
//!    (deduplicated) for the next pump.
//!
//! ## Determinism and equivalence
//!
//! Given a seed the whole schedule — traces, estimator pushes, charge
//! order, restart schedule — is a pure function of the endpoint's
//! completion times. Under [`Never`] with no budget the traces are
//! schedule-independent: for any batch shape the reactor reproduces the
//! serial core's ([`WalkOrchestrator::run_serial`]) traces, stops and
//! estimate bit for bit. When every wave fits one batch
//! (`max_batch_size ≥` fleet size) the reactor's events coincide 1:1 with
//! the serial rounds, so a [`RestartPolicy`]'s restart schedule matches
//! too. Under a budget the endpoint charges nodes in batch order: each
//! walker's trace is a prefix of its unbudgeted trace and the endpoint
//! never charges past the budget, but *which* walker meets the cut-off
//! first may differ from the serial core — the documented boundary of the
//! equivalence claim (all pinned by the `reactor_equivalence` suite).
//!
//! [`VirtualClock`]: osn_client::VirtualClock

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use osn_client::batch::{BatchNodeError, BatchOsnClient, BatchOutcome, TicketId};
use osn_client::{BudgetExhausted, OsnClient, QueryStats};
use osn_estimate::RatioEstimator;
use osn_graph::{NodeId, NodeSet};
use osn_serde::Value;
use rand::RngCore;
use rand_chacha::ChaCha12Rng;

use crate::circulation::HistoryBackend;
use crate::fnv::FnvHashMap;
use crate::history::TouchedNodes;
use crate::orchestrator::{
    advance_walker, maybe_rescue, maybe_restart, Cell, Never, OrchestratorReport, RestartEvent,
    RestartPolicy, WalkOrchestrator,
};
use crate::walker::RandomWalk;
use crate::WalkStop;

/// Dispatcher-level cap on resubmissions of a node whose requests keep
/// coming back permanently dropped. Past it the node is abandoned and the
/// walkers waiting on it terminate (with a budget-style error) instead of
/// spinning forever against a dead interface.
pub const DEFAULT_NODE_ATTEMPT_CAP: u32 = 32;

/// Mutable bookkeeping shared by the reactor loop and the per-walker
/// [`PrefetchedClient`] views of one run.
#[derive(Default)]
struct DispatchState {
    /// Ids the endpoint delivered; their lists are read back from it
    /// ([`BatchOsnClient::delivered`]). Like every id set here, a bitset
    /// once it holds one id per 64 of its range, a hash set before.
    delivered: NodeSet,
    /// **Shim**: copies of the lists an endpoint that cannot read back
    /// delivered. Not serialized; delete once every endpoint forwards
    /// [`BatchOsnClient::delivered`].
    copies: FnvHashMap<u32, Vec<NodeId>>,
    /// Nodes the run will never deliver: budget-refused or abandoned.
    refused: NodeSet,
    /// Dispatcher-level resubmission counts for dropped nodes.
    node_attempts: FnvHashMap<u32, u32>,
    /// Nodes ever queried by any walker (walker-side unique/hit split).
    seen: NodeSet,
    /// Walker-side accounting (serial-shaped `issued`/`unique`/`hits`).
    stats: QueryStats,
    /// Distinct budget-refused nodes.
    refused_nodes: usize,
    /// Distinct nodes abandoned after the resubmission cap.
    abandoned_nodes: usize,
    /// The budget limit observed in refusals, so walker-facing errors
    /// report the same value a serial `BudgetedClient` would.
    budget_in_force: Option<u64>,
}

impl DispatchState {
    /// Absorb one per-node result of a completed batch: a delivery records
    /// the id, a budget refusal refuses the node, and a drop counts an
    /// attempt — abandoning (refusing) the node at `node_attempt_cap`.
    /// Returns whether `u` resolved; `false` means resubmit it.
    fn absorb<B: BatchOsnClient>(
        &mut self,
        client: &mut B,
        u: NodeId,
        result: Result<Vec<NodeId>, BatchNodeError>,
        node_attempt_cap: u32,
    ) -> bool {
        match result {
            Ok(neighbors) => {
                self.delivered.insert(u.0);
                // Shim: copy only a list the endpoint cannot read back.
                if client.delivered(u).is_none() {
                    self.copies.insert(u.0, neighbors);
                }
            }
            Err(BatchNodeError::Budget(e)) => {
                // Remember the budget in force so walker-facing errors
                // report the same value a serial `BudgetedClient` would.
                self.budget_in_force = Some(e.budget);
                if self.refused.insert(u.0) {
                    self.refused_nodes += 1;
                }
            }
            Err(BatchNodeError::Dropped) => {
                let attempts = self.node_attempts.entry(u.0).or_insert(0);
                *attempts += 1;
                if *attempts < node_attempt_cap {
                    return false;
                }
                // Dead interface for this node: give up so the walkers
                // parked on it terminate cleanly.
                if self.refused.insert(u.0) {
                    self.abandoned_nodes += 1;
                }
            }
        }
        true
    }

    /// Whether `u`'s neighbor list is resolved: delivered or refused.
    fn resolved(&self, u: NodeId) -> bool {
        self.delivered.contains(u.0) || self.refused.contains(u.0)
    }
}

/// Fetch every id in `pending` synchronously through the batch endpoint:
/// fan out in window-respecting batches, resubmit drops (bounded per node
/// by `node_attempt_cap`), and absorb every result into `state`. The
/// fallback behind [`PrefetchedClient`] for a query the reactor did not
/// prefetch.
fn fetch_all<B: BatchOsnClient>(
    client: &mut B,
    mut pending: VecDeque<NodeId>,
    state: &mut DispatchState,
    node_attempt_cap: u32,
) {
    let limits = client.limits();
    let mut batch: Vec<NodeId> = Vec::with_capacity(limits.max_batch_size);
    while !pending.is_empty() || client.in_flight() > 0 {
        // Fill the in-flight window with max-size batches.
        while client.in_flight() < limits.max_in_flight && !pending.is_empty() {
            batch.clear();
            while batch.len() < limits.max_batch_size {
                let Some(u) = pending.pop_front() else { break };
                batch.push(u);
            }
            client.submit(&batch).expect("window and size checked");
        }
        let Some(outcome) = client.poll() else { break };
        for (u, result) in outcome.per_node {
            if !state.absorb(client, u, result, node_attempt_cap) {
                pending.push_back(u);
            }
        }
    }
}

/// The per-step client view the reactor hands each walker: a delivered
/// node's list is read back from the endpoint (walker-side accounting
/// recorded), metadata peeks pass through to the endpoint for free. A query
/// for a node that is *not* delivered — one a walker asks for off-protocol
/// (no walker in this crate does, but the [`RandomWalk`] trait allows it),
/// one [`ReactorWalkRun::invalidate_nodes`] evicted under a ready walker, or
/// one whose list nobody holds any more — falls back to an on-demand
/// synchronous batch of one through [`fetch_all`], with the same
/// refusal/abandon bookkeeping.
struct PrefetchedClient<'a, B: BatchOsnClient> {
    client: &'a mut B,
    state: &'a mut DispatchState,
    node_attempt_cap: u32,
}

impl<B: BatchOsnClient> OsnClient for PrefetchedClient<'_, B> {
    fn neighbors(&mut self, u: NodeId) -> Result<&[NodeId], BudgetExhausted> {
        let state = &mut *self.state;
        if state.delivered.contains(u.0)
            && !state.copies.contains_key(&u.0)
            && self.client.delivered(u).is_none()
        {
            // Nobody holds the list (a run resumed over an endpoint that
            // cannot read back): fetch it again, like an evicted node.
            state.delivered.remove(u.0);
        }
        if !state.resolved(u) {
            // Not prefetched (off-protocol, or evicted by
            // `invalidate_nodes`): fetch on demand through the endpoint.
            fetch_all(
                self.client,
                VecDeque::from([u]),
                state,
                self.node_attempt_cap,
            );
        }
        // Refused: report the budget a serial `BudgetedClient` would name.
        // Abandoned nodes on an unbudgeted client have no honest value for
        // the trait's error type; fall back to the remaining budget (0 for
        // "the interface gave this up").
        let remaining = self.client.remaining_budget();
        let refused = BudgetExhausted {
            budget: state.budget_in_force.or(remaining).unwrap_or(0),
        };
        if !state.delivered.contains(u.0) {
            return Err(refused);
        }
        state.stats.record(state.seen.insert(u.0));
        match state.copies.get(&u.0) {
            Some(copy) => Ok(copy),
            // The endpoint served `u` just above (here or in the fetch's
            // `absorb`); `None` would break the read-back contract.
            None => self.client.delivered(u).ok_or(refused),
        }
    }

    fn peek_degree(&self, u: NodeId) -> usize {
        self.client.peek_degree(u)
    }

    fn peek_attribute(&self, u: NodeId, name: &str) -> Option<f64> {
        self.client.peek_attribute(u, name)
    }

    fn stats(&self) -> QueryStats {
        self.state.stats
    }

    fn remaining_budget(&self) -> Option<u64> {
        self.client.remaining_budget()
    }

    fn is_cached(&self, u: NodeId) -> bool {
        self.state.delivered.contains(u.0) || self.client.is_cached(u)
    }
}

/// The lifecycle of one walker inside the reactor loop.
///
/// ```text
///             ┌────────────────┐  node not delivered: enqueue + park
///   start ──► │ NeedNeighbors  ├──────────────────┐
///             └──────┬─────────┘                  ▼
///                    │ node delivered     ┌───────────────┐
///                    │ (or refused)       │ AwaitingBatch │
///                    ▼                    └──────┬────────┘
///             ┌────────────┐    batch resolved   │
///             │  Stepping  │ ◄───────────────────┘
///             └──────┬─────┘
///        step (act   │ phase, walker-index order)
///            ┌───────┴────────┬──────────────────┐
///            ▼                ▼                  ▼
///     NeedNeighbors         Done             Refused
///     (live: next wave)  (step cap)   (budget / dead interface;
///                                      a policy rescue returns it
///                                      to NeedNeighbors)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkerFsm {
    /// Just stepped (or just started / just relocated): its current node
    /// has not yet been classified against the delivered ids. Transient —
    /// the classify phase immediately moves it on.
    NeedNeighbors,
    /// Parked: its current node's neighbor list is queued or in flight.
    AwaitingBatch,
    /// Its current node's neighbor list is resolved (delivered or refused);
    /// the walker acts at the next event.
    Stepping,
    /// Terminated: the node it needed was budget-refused or abandoned.
    Refused,
    /// Finished its step cap.
    Done,
}

/// Diagnostics of one reactor run — the memory-bound witnesses the soak
/// suite asserts against (everything beyond the fleet itself is bounded by
/// `peak_in_flight × max_batch_size + peak_queued + peak_parked` slots).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Completion events processed (synthetic ticks included). With
    /// single-batch waves this equals the serial core's round count.
    pub events: usize,
    /// Events with nothing in flight (walkers stepping through
    /// already-delivered territory).
    pub synthetic_ticks: usize,
    /// Most batches simultaneously in flight.
    pub peak_in_flight: usize,
    /// Most node ids simultaneously queued for fetch (pending + retry +
    /// in flight): the peak length of the run's waiter-list map, which
    /// holds one entry per queued id.
    pub peak_queued: usize,
    /// Most walkers simultaneously parked on in-flight or queued batches.
    pub peak_parked: usize,
}

/// The reactor's scheduling state: per-walker FSMs plus the queues that
/// connect them to the batch endpoint. Owns no walkers, cells, or
/// dispatcher state — walkers and cells are the serial core's own
/// structures, which is what keeps the two engines bit-comparable. The
/// walkers parked on one queued id form a list threaded through
/// `next_waiter`, headed in `waiters`: parking, waking and unparking move
/// links and never allocate. The act and classify sets of a turn and the
/// id list of each batch live in buffers the core keeps: a turn empties
/// them and a completed batch hands its list back to `pump`, so none is
/// allocated again.
struct ReactorCore {
    max_steps: usize,
    node_attempt_cap: u32,
    fsm: Vec<WalkerFsm>,
    /// Walkers whose current node resolved, acting at the next event.
    ready: Vec<usize>,
    /// Every id currently in `pending`, `retry`, or in flight (the dedup
    /// of fetches), each with the first walker parked on it, or [`NO_WALKER`]
    /// when none is.
    waiters: FnvHashMap<u32, u32>,
    /// For each walker, the next walker parked on the same node, or
    /// [`NO_WALKER`]: with `waiters`, one intrusive list per queued id, so
    /// parking a walker allocates nothing.
    next_waiter: Vec<u32>,
    /// Ids awaiting first submission, FIFO.
    pending: VecDeque<NodeId>,
    /// Ids to resubmit after a per-id drop — drained before `pending`.
    retry: VecDeque<NodeId>,
    /// Tickets this reactor submitted, with their id lists — the repair
    /// map for off-protocol synchronous fetches (see [`Self::repair`]).
    inflight: Vec<(TicketId, Vec<NodeId>)>,
    /// The id lists of completed batches, emptied, for `pump` to fill
    /// again.
    spare_batches: Vec<Vec<NodeId>>,
    /// The act set of the turn in progress (phase 3), and the walkers
    /// phase 5 classifies: emptied after each turn, never freed.
    acted: Vec<usize>,
    post: Vec<usize>,
    /// Currently parked walkers (the total length of the waiter lists).
    parked: usize,
    stats: ReactorStats,
}

/// The end of a waiter list: no (further) walker is parked on the node.
const NO_WALKER: u32 = u32::MAX;

/// A slot of the fleet a turn steps in place: a borrowed walker
/// ([`drive_reactor`]) or an owned one ([`ReactorWalkRun`]), so a slice
/// collects no `Vec` of borrows.
trait FleetSlot {
    fn walker(&mut self) -> &mut dyn RandomWalk;
}

impl FleetSlot for &mut dyn RandomWalk {
    fn walker(&mut self) -> &mut dyn RandomWalk {
        &mut **self
    }
}

impl FleetSlot for Box<dyn RandomWalk + Send> {
    fn walker(&mut self) -> &mut dyn RandomWalk {
        &mut **self
    }
}

impl ReactorCore {
    fn new(walkers: usize, max_steps: usize, node_attempt_cap: u32) -> Self {
        assert!(
            walkers < NO_WALKER as usize,
            "a fleet of {walkers} walkers does not fit the waiter lists"
        );
        ReactorCore {
            max_steps,
            node_attempt_cap,
            fsm: vec![WalkerFsm::NeedNeighbors; walkers],
            ready: Vec::new(),
            waiters: FnvHashMap::default(),
            next_waiter: vec![NO_WALKER; walkers],
            pending: VecDeque::new(),
            retry: VecDeque::new(),
            inflight: Vec::new(),
            spare_batches: Vec::new(),
            acted: Vec::new(),
            post: Vec::new(),
            parked: 0,
            stats: ReactorStats::default(),
        }
    }

    /// Nothing ready, parked, queued, or in flight: every walker is
    /// terminal and the loop may stop.
    fn idle(&self) -> bool {
        self.ready.is_empty()
            && self.waiters.is_empty()
            && self.pending.is_empty()
            && self.retry.is_empty()
            && self.inflight.is_empty()
    }

    /// Park walker `i` on its current node `u`: ready now if `u` is
    /// already resolved (delivered or refused — the act phase turns
    /// refusals into stops), otherwise the head of `u`'s waiter list, with
    /// `u` enqueued once.
    fn classify(&mut self, i: usize, u: NodeId, state: &DispatchState) {
        if state.resolved(u) {
            self.fsm[i] = WalkerFsm::Stepping;
            self.ready.push(i);
            return;
        }
        self.fsm[i] = WalkerFsm::AwaitingBatch;
        self.parked += 1;
        self.stats.peak_parked = self.stats.peak_parked.max(self.parked);
        // `i < NO_WALKER`, checked when the core was built.
        let walker = i as u32;
        match self.waiters.entry(u.0) {
            Entry::Occupied(mut head) => self.next_waiter[i] = head.insert(walker),
            Entry::Vacant(slot) => {
                slot.insert(walker);
                self.next_waiter[i] = NO_WALKER;
                self.pending.push_back(u);
                self.stats.peak_queued = self.stats.peak_queued.max(self.waiters.len());
            }
        }
    }

    /// Seed the FSMs from the fleet's current state, walker-index order.
    /// `ready` (sorted) lists walkers a snapshot recorded as ready: they
    /// stay ready even when [`ReactorWalkRun::invalidate_nodes`] evicted
    /// their node, exactly as in the run that took the snapshot.
    fn init(
        &mut self,
        current_of: &mut dyn FnMut(usize) -> NodeId,
        cells: &[Cell],
        state: &DispatchState,
        ready: &[usize],
    ) {
        for (i, cell) in cells.iter().enumerate() {
            if !cell.live(self.max_steps) {
                self.fsm[i] = match cell.stop {
                    Some(WalkStop::BudgetExhausted) => WalkerFsm::Refused,
                    _ => WalkerFsm::Done,
                };
            } else if ready.binary_search(&i).is_ok() {
                self.fsm[i] = WalkerFsm::Stepping;
                self.ready.push(i);
            } else {
                self.classify(i, current_of(i), state);
            }
        }
    }

    /// Phase 1: fill the endpoint's in-flight window with max-size batches,
    /// retries before first submissions, FIFO within each queue.
    fn pump<B: BatchOsnClient>(&mut self, client: &mut B) {
        let limits = client.limits();
        while client.in_flight() < limits.max_in_flight
            && (!self.retry.is_empty() || !self.pending.is_empty())
        {
            let mut batch = self
                .spare_batches
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(limits.max_batch_size));
            while batch.len() < limits.max_batch_size {
                let Some(u) = self.retry.pop_front().or_else(|| self.pending.pop_front()) else {
                    break;
                };
                batch.push(u);
            }
            let ticket = client.submit(&batch).expect("window and size checked");
            self.inflight.push((ticket, batch));
            self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.inflight.len());
        }
    }

    /// `u` resolved: it leaves the queue, and every walker parked on it
    /// moves to the act set of this event (the act phase sorts the set, so
    /// the order of a waiter list is never observed).
    fn wake(&mut self, u: u32, acted: &mut Vec<usize>) {
        let mut next = self.waiters.remove(&u).unwrap_or(NO_WALKER);
        while next != NO_WALKER {
            let i = next as usize;
            next = self.next_waiter[i];
            self.fsm[i] = WalkerFsm::Stepping;
            self.parked -= 1;
            acted.push(i);
        }
    }

    /// Remove walker `i` from the waiters of node `u` (it was relocated by
    /// the policy while parked). The id itself stays queued — the fetch may
    /// already be in flight — and resolves with no waiters.
    fn unpark(&mut self, i: usize, u: u32) {
        let Some(head) = self.waiters.get_mut(&u) else {
            return;
        };
        let walker = i as u32;
        let after = self.next_waiter[i];
        if *head == walker {
            *head = after;
        } else {
            let mut at = *head;
            while at != NO_WALKER && self.next_waiter[at as usize] != walker {
                at = self.next_waiter[at as usize];
            }
            if at == NO_WALKER {
                return;
            }
            self.next_waiter[at as usize] = after;
        }
        self.next_waiter[i] = NO_WALKER;
        self.parked -= 1;
    }

    /// Phase 2 bookkeeping: absorb one completed batch into the dispatcher
    /// state ([`DispatchState::absorb`]) — resolved ids (delivered,
    /// refused, or abandoned) wake their waiters, dropped ones queue for
    /// resubmission. The batch's id list goes back to `pump`.
    fn absorb<B: BatchOsnClient>(
        &mut self,
        client: &mut B,
        outcome: BatchOutcome,
        state: &mut DispatchState,
        acted: &mut Vec<usize>,
    ) {
        let done = self.inflight.iter().position(|(t, _)| *t == outcome.ticket);
        if let Some(at) = done {
            let (_, mut batch) = self.inflight.remove(at);
            batch.clear();
            self.spare_batches.push(batch);
        }
        for (u, result) in outcome.per_node {
            if state.absorb(client, u, result, self.node_attempt_cap) {
                self.wake(u.0, acted);
            } else {
                self.retry.push_back(u);
            }
        }
    }

    /// Repair after an off-protocol query: a walker asked the
    /// [`PrefetchedClient`] for a node nobody prefetched (no walker in this
    /// crate does, but the [`RandomWalk`] trait allows it), and its
    /// synchronous fallback drained *every* in-flight ticket into the
    /// dispatcher state. Resolve our stranded tickets from that state so
    /// their waiters wake (ready for the next event) instead of parking
    /// forever on a poll that will never deliver.
    fn repair(&mut self, client_in_flight: usize, state: &DispatchState) {
        if client_in_flight == self.inflight.len() {
            return;
        }
        let drained = std::mem::take(&mut self.inflight);
        let mut woken = Vec::new();
        for (_, ids) in drained {
            for u in ids {
                if state.resolved(u) {
                    self.wake(u.0, &mut woken);
                } else {
                    // The side fetch ran to quiescence, so an unresolved id
                    // should be impossible — requeue defensively.
                    self.retry.push_back(u);
                }
            }
        }
        self.ready.append(&mut woken);
    }

    /// One turn of the loop — one completion event through the five phases
    /// (pump → acquire → act → policy → classify). Returns `false` (doing
    /// nothing) once the reactor is idle. `pump` disables phase 1 for the
    /// drain turns that quiesce the endpoint before a snapshot. The act and
    /// classify sets reuse the core's buffers, so a turn allocates only
    /// where the endpoint or a walker does.
    #[allow(clippy::too_many_arguments)]
    fn turn<B, W, R, F, P>(
        &mut self,
        client: &mut B,
        walkers: &mut [W],
        rngs: &mut [R],
        value: Option<&F>,
        policy: &P,
        state: &mut DispatchState,
        cells: &mut [Cell],
        restarts: &mut Vec<RestartEvent>,
        pump: bool,
    ) -> bool
    where
        B: BatchOsnClient,
        W: FleetSlot,
        R: RngCore,
        F: Fn(NodeId) -> f64 + ?Sized,
        P: RestartPolicy + ?Sized,
    {
        if self.idle() {
            return false;
        }
        // Phase 1: pump submissions into the in-flight window.
        if pump {
            self.pump(client);
        }
        // Phase 2: acquire one completion event (or a synthetic tick when
        // nothing is in flight and walkers are stepping through delivered
        // territory).
        let mut acted = std::mem::take(&mut self.acted);
        std::mem::swap(&mut acted, &mut self.ready);
        if self.inflight.is_empty() {
            self.stats.synthetic_ticks += 1;
        } else {
            match client.poll() {
                Some(outcome) => self.absorb(client, outcome, state, &mut acted),
                None => self.stats.synthetic_ticks += 1,
            }
        }
        // Phase 3: act — unblocked walkers step once each, in walker-index
        // order (the canonical tiebreak). Walkers needing classification
        // collect into `post` for phase 5: a stepped walker's new node
        // joins the *next* wave only after the policy has had its say.
        acted.sort_unstable();
        acted.dedup();
        let mut post = std::mem::take(&mut self.post);
        for &i in &acted {
            if !cells[i].live(self.max_steps) {
                self.fsm[i] = match cells[i].stop {
                    Some(WalkStop::BudgetExhausted) => WalkerFsm::Refused,
                    _ => WalkerFsm::Done,
                };
                continue;
            }
            let walker = walkers[i].walker();
            if state.refused.contains(walker.current().0) {
                // The node this walker needs was refused (budget) or
                // abandoned (dead interface).
                cells[i].stop = Some(WalkStop::BudgetExhausted);
            } else {
                let mut view = PrefetchedClient {
                    client: &mut *client,
                    state: &mut *state,
                    node_attempt_cap: self.node_attempt_cap,
                };
                advance_walker(
                    i,
                    &mut *walker,
                    &mut rngs[i],
                    &mut view,
                    value,
                    policy,
                    &mut cells[i],
                );
            }
            if cells[i].stop.is_some() {
                // Refused, up front or mid-step: terminate it — unless the
                // policy rescues it, in which case it re-enters the next
                // wave (a refusal costs one lost event, exactly as the
                // serial core charges it one lost round).
                self.fsm[i] = WalkerFsm::Refused;
                if policy.enabled() {
                    let cached = |n: NodeId| state.delivered.contains(n.0) || client.is_cached(n);
                    maybe_rescue(i, walker, &mut cells[i], policy, &cached, restarts);
                    if cells[i].stop.is_none() {
                        self.fsm[i] = WalkerFsm::NeedNeighbors;
                        post.push(i);
                    }
                }
            } else if !cells[i].live(self.max_steps) {
                self.fsm[i] = WalkerFsm::Done;
            } else {
                self.fsm[i] = WalkerFsm::NeedNeighbors;
                post.push(i);
            }
        }
        acted.clear();
        self.acted = acted;
        // Off-protocol side fetches drain the shared in-flight window;
        // reconcile stranded tickets (a no-op for every walker this crate
        // ships).
        let now_in_flight = client.in_flight();
        self.repair(now_in_flight, state);
        // Phase 4: policy checks for every live walker, walker-index order
        // — the serial core's between-rounds boundary. A relocated
        // walker abandons any stale wait and reclassifies in phase 5, so
        // its new position rides the next wave's batch.
        if policy.enabled() {
            for i in 0..walkers.len() {
                if !cells[i].live(self.max_steps) {
                    continue;
                }
                let walker = walkers[i].walker();
                let before = walker.current();
                let restarts_before = restarts.len();
                {
                    let cached = |n: NodeId| state.delivered.contains(n.0) || client.is_cached(n);
                    let degree_of = |n: NodeId| client.peek_degree(n);
                    maybe_restart(i, walker, &cells[i], policy, &degree_of, &cached, restarts);
                }
                if restarts.len() > restarts_before {
                    match self.fsm[i] {
                        WalkerFsm::AwaitingBatch => {
                            self.unpark(i, before.0);
                            self.fsm[i] = WalkerFsm::NeedNeighbors;
                            post.push(i);
                        }
                        WalkerFsm::Stepping => {
                            self.ready.retain(|&w| w != i);
                            self.fsm[i] = WalkerFsm::NeedNeighbors;
                            post.push(i);
                        }
                        // NeedNeighbors is already in `post`; phase 5 reads
                        // the relocated position.
                        _ => {}
                    }
                }
            }
        }
        // Phase 5: classify — park every walker that stepped or relocated
        // on its (new) current node, walker-index order.
        post.sort_unstable();
        post.dedup();
        for &i in &post {
            if self.fsm[i] == WalkerFsm::NeedNeighbors {
                self.classify(i, walkers[i].walker().current(), state);
            }
        }
        post.clear();
        self.post = post;
        self.stats.events += 1;
        true
    }
}

/// Run `walkers` on the reactor until every one stops: walker `i` steps
/// with `rngs[i]`, for at most `max_steps` transitions, against `client`
/// under `policy`, with `value(v)` the quantity estimated at node `v`. The
/// engine behind [`WalkOrchestrator::run_reactor_with_stats`], public for
/// callers that build their own fleet and RNG streams (e.g. one walker
/// seeded exactly like a [`crate::WalkSession`]).
///
/// # Panics
/// If `walkers` and `rngs` differ in length.
pub fn drive_reactor<B, R, F, P>(
    client: &mut B,
    walkers: &mut [&mut dyn RandomWalk],
    rngs: &mut [R],
    max_steps: usize,
    value: F,
    policy: &P,
) -> (OrchestratorReport, ReactorStats)
where
    B: BatchOsnClient,
    R: RngCore,
    F: Fn(NodeId) -> f64,
    P: RestartPolicy + ?Sized,
{
    let k = walkers.len();
    assert_eq!(k, rngs.len(), "one RNG stream per walker");
    policy.begin_run(k);
    let interface_base = client.stats();
    let mut state = DispatchState::default();
    let mut cells: Vec<Cell> = (0..k).map(|_| Cell::new(0)).collect();
    let mut restarts = Vec::new();
    let mut core = ReactorCore::new(k, max_steps, DEFAULT_NODE_ATTEMPT_CAP);
    core.init(&mut |i| walkers[i].current(), &cells, &state, &[]);
    while core.turn(
        client,
        walkers,
        rngs,
        Some(&value),
        policy,
        &mut state,
        &mut cells,
        &mut restarts,
        true,
    ) {}
    let report = fold_report(
        cells,
        restarts,
        core.stats.events,
        state,
        client.stats().since(&interface_base),
    );
    (report, core.stats)
}

/// Fold a finished (or paused) reactor run into the report shape.
fn fold_report(
    cells: Vec<Cell>,
    restarts: Vec<RestartEvent>,
    events: usize,
    state: DispatchState,
    interface: QueryStats,
) -> OrchestratorReport {
    let mut report = OrchestratorReport::from_cells(cells, restarts, events, state.stats);
    report.interface = Some(interface);
    report.refused_nodes = state.refused_nodes;
    report.abandoned_nodes = state.abandoned_nodes;
    report
}

impl WalkOrchestrator {
    /// Run the fleet on the poll-driven reactor: one event loop drives
    /// every walker as a [`WalkerFsm`] parked on in-flight batches of
    /// `client` — no threads, no per-walker stack, one bit held per fetched
    /// node once a run is large, each list held once, by `client`, and the
    /// rest bounded by the in-flight window (see the [`crate::reactor`]
    /// module docs).
    ///
    /// Deterministic given the seed: events are delivered in completion-
    /// time order with walker-index tiebreaks. Under [`Never`] absent a
    /// budget, traces, stops and estimate are bit-identical to
    /// [`Self::run_serial`] for any batch shape; with `max_batch_size ≥`
    /// fleet size the restart schedule of any [`RestartPolicy`] matches
    /// too.
    pub fn run_reactor<B, W, F, P>(
        &self,
        client: &mut B,
        make_walker: W,
        value: F,
        policy: &P,
    ) -> OrchestratorReport
    where
        B: BatchOsnClient,
        W: Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send>,
        F: Fn(NodeId) -> f64,
        P: RestartPolicy + ?Sized,
    {
        self.run_reactor_with_stats(client, make_walker, value, policy)
            .0
    }

    /// [`Self::run_reactor`], also returning the loop's [`ReactorStats`]
    /// (event counts and the peak in-flight / queued / parked witnesses
    /// the soak suite asserts the memory bound against).
    pub fn run_reactor_with_stats<B, W, F, P>(
        &self,
        client: &mut B,
        make_walker: W,
        value: F,
        policy: &P,
    ) -> (OrchestratorReport, ReactorStats)
    where
        B: BatchOsnClient,
        W: Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send>,
        F: Fn(NodeId) -> f64,
        P: RestartPolicy + ?Sized,
    {
        let (mut fleet, mut rngs) = self.build_fleet(make_walker);
        let mut refs: Vec<&mut dyn RandomWalk> =
            fleet.iter_mut().map(|w| w.as_mut() as _).collect();
        drive_reactor(
            client,
            &mut refs,
            &mut rngs,
            self.max_steps_per_walker(),
            value,
            policy,
        )
    }

    /// Begin a pausable reactor run (see [`ReactorWalkRun`]). Driving it to
    /// completion is bit-identical to [`Self::run_reactor`] under [`Never`]
    /// absent a budget (slicing defers submissions across the pause, which
    /// can reorder charges — traces are schedule-independent either way).
    pub fn start_reactor<W>(&self, make_walker: W) -> ReactorWalkRun
    where
        W: Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send>,
    {
        let (fleet, rngs) = self.build_fleet(make_walker);
        let cells: Vec<Cell> = (0..self.walker_count()).map(|_| Cell::new(0)).collect();
        let state = DispatchState::default();
        let mut core = ReactorCore::new(
            self.walker_count(),
            self.max_steps_per_walker(),
            DEFAULT_NODE_ATTEMPT_CAP,
        );
        {
            let mut current_of = |i: usize| fleet[i].current();
            core.init(&mut current_of, &cells, &state, &[]);
        }
        ReactorWalkRun {
            spec: *self,
            fleet,
            rngs,
            cells,
            state,
            core,
            interface_base: None,
        }
    }

    /// Restore a [`ReactorWalkRun`] from a [`ReactorWalkRun::snapshot`]
    /// value — delivered ids and fetch queues included, so a resumed run
    /// re-charges nothing and resubmits in the snapshot's queue order. It
    /// reads the delivered lists back from the endpoint it runs against.
    ///
    /// The orchestrator spec (fleet size, step cap, seed) must match the one
    /// that produced the snapshot, and `make_walker` must rebuild walkers of
    /// the same algorithm/grouping — the caller's contract, exactly as for
    /// [`RandomWalk::import_state`].
    ///
    /// # Errors
    /// On a malformed snapshot, a snapshot of another run kind (the error
    /// names the kind found), or a spec mismatch — including a snapshot
    /// of neighbor lists from before runs held ids (no `delivered` field)
    /// or one that writes `seen` out (no `delivered_unseen` field).
    pub fn resume_reactor<W>(&self, state: &Value, make_walker: W) -> Result<ReactorWalkRun, String>
    where
        W: Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send>,
    {
        let found = state.field("kind")?.as_str()?;
        if found != "reactor" {
            return Err(format!(
                "snapshot kind mismatch: `{found}`, expected `reactor`"
            ));
        }
        self.check_spec(state.field("spec")?)?;
        let events: usize = state.field("events")?.decode()?;
        let walker_states = state.field("walkers")?.as_array()?;
        let rng_states = state.field("rngs")?.as_array()?;
        let cell_states = state.field("cells")?.as_array()?;
        let k = self.walker_count();
        if walker_states.len() != k || rng_states.len() != k || cell_states.len() != k {
            return Err(format!(
                "snapshot fleet size mismatch: {} walker / {} rng / {} cell states for a {k}-walker run",
                walker_states.len(),
                rng_states.len(),
                cell_states.len(),
            ));
        }
        let mut fleet = Vec::with_capacity(k);
        for (i, ws) in walker_states.iter().enumerate() {
            let mut walker = make_walker(i, HistoryBackend);
            walker
                .import_state(ws)
                .map_err(|e| format!("walker {i}: {e}"))?;
            fleet.push(walker);
        }
        let rngs = rng_states
            .iter()
            .map(rng_from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let cells = cell_states
            .iter()
            .map(cell_from_value)
            .collect::<Result<Vec<Cell>, _>>()?;
        if cells
            .iter()
            .any(|c| c.trace.is_some() != cells[0].trace.is_some())
        {
            return Err("reactor snapshot mixes traced and untraced cells".into());
        }
        let dispatch = dispatch_from_value(state.field("dispatch")?)?;
        let node_attempt_cap: u32 = state.field("attempt_cap")?.decode()?;
        let retry = nodes_from_value(state.field("retry")?)?;
        let pending = nodes_from_value(state.field("pending")?)?;
        let ready: Vec<usize> = state.field("ready")?.decode()?;
        if !ready.windows(2).all(|w| w[0] < w[1]) || ready.last().is_some_and(|&i| i >= k) {
            return Err("reactor snapshot ready set is not sorted walker indices".into());
        }
        let mut core = ReactorCore::new(k, self.max_steps_per_walker(), node_attempt_cap);
        core.stats.events = events;
        // Seed the queues *before* classifying the fleet: classify dedups
        // against `waiters`, so the snapshot's submission order survives the
        // index-order re-parking below.
        for &u in retry.iter().chain(pending.iter()) {
            if core.waiters.insert(u.0, NO_WALKER).is_some() {
                return Err(format!("node {} queued twice in reactor snapshot", u.0));
            }
        }
        core.retry.extend(retry);
        core.pending.extend(pending);
        {
            let mut current_of = |i: usize| fleet[i].current();
            core.init(&mut current_of, &cells, &dispatch, &ready);
        }
        Ok(ReactorWalkRun {
            spec: *self,
            fleet,
            rngs,
            cells,
            state: dispatch,
            core,
            interface_base: None,
        })
    }
}

/// A reactor run that pauses between completion events, snapshots to an
/// `osn-serde` [`Value`], and resumes **bit-identically** — the one
/// resumable run, and the job-slice engine of the `osn-service` session
/// server: one slice advances a bounded number of events, so a 10k-walker
/// job interleaves with its tenants at event granularity and a killed
/// server restores every job mid-walk.
///
/// Policy-free ([`Never`]): [`WorkStealing`] keeps non-serializable
/// interior diagnostics (the windowed split-R̂ accumulators, per-walker
/// visit filters, the shared frontier pool), so a mid-run snapshot could
/// not restore the restart schedule. Use [`WalkOrchestrator::run_reactor`]
/// or [`WalkOrchestrator::run_serial`] for policy-driven runs.
///
/// Every [`Self::run_events`] call leaves the endpoint **quiescent**
/// (nothing in flight): trailing drain turns deliver outstanding batches
/// without submitting new ones, so a snapshot never has to serialize
/// half-completed requests — and endpoints like
/// [`osn_client::batch::SimulatedBatchOsn`] that refuse to export in-flight
/// state can snapshot right alongside the run.
///
/// [`WorkStealing`]: crate::WorkStealing
pub struct ReactorWalkRun {
    spec: WalkOrchestrator,
    fleet: Vec<Box<dyn RandomWalk + Send>>,
    rngs: Vec<ChaCha12Rng>,
    cells: Vec<Cell>,
    state: DispatchState,
    core: ReactorCore,
    /// Endpoint accounting at the first `run_events` call of this process
    /// lifetime, so [`Self::into_report`] reports the interface delta this
    /// run (segment) caused. Not serialized: endpoint counters do not
    /// survive the process, so a resumed segment's delta starts fresh.
    interface_base: Option<QueryStats>,
}

impl ReactorWalkRun {
    /// Whether every walker has finished (step cap reached or refused).
    pub fn done(&self) -> bool {
        let max = self.spec.max_steps_per_walker();
        self.cells.iter().all(|c| !c.live(max))
    }

    /// Completion events processed so far (drain turns included).
    pub fn events(&self) -> usize {
        self.core.stats.events
    }

    /// Total transitions performed across the fleet so far, traced or
    /// not.
    pub fn steps_taken(&self) -> usize {
        self.cells.iter().map(|c| c.steps).sum()
    }

    /// Walker `i`'s trajectory so far — grows as completion events land,
    /// so callers can feed event-granularity probes (e.g.
    /// `osn_estimate::WindowedSplitRhat`) between [`Self::run_events`]
    /// slices. `None` when the run records no traces
    /// ([`Self::without_traces`]).
    pub fn trace(&self, walker: usize) -> Option<&[NodeId]> {
        self.cells[walker].trace.as_deref()
    }

    /// Stop recording visit sequences, and drop the ones recorded so far:
    /// each walker then only counts its steps, so the run's memory and its
    /// [`Self::snapshot`] hold live state — histories, estimators, dispatch
    /// ids — and no longer grow by one id per step. Estimates, steps and
    /// schedules are unchanged; [`Self::trace`] reads `None`, the report's
    /// `trace.per_walker` is empty and its `trace.steps` still counts. A
    /// snapshot of an untraced run resumes untraced.
    #[must_use]
    pub fn without_traces(mut self) -> Self {
        for cell in &mut self.cells {
            cell.trace = None;
        }
        self
    }

    /// Check every node id the run holds against a graph of `node_count`
    /// nodes: each walker's `current` node, the queued `pending` and
    /// `retry` ids, and the dispatch ids — `delivered`, `refused`,
    /// `seen_undelivered` and the nodes of `attempts`.
    /// [`WalkOrchestrator::resume_reactor`] cannot: it does not see the
    /// graph, and an id past its end resumes fine, then panics at the first
    /// fetch or is written into every later snapshot.
    ///
    /// # Errors
    /// Names the field and the id of the first id out of range (the
    /// largest one of a dispatch field).
    pub fn check_node_ids(&self, node_count: usize) -> Result<(), String> {
        let outside = |u: NodeId| format!("node {u} outside the {node_count}-node graph");
        for (i, walker) in self.fleet.iter().enumerate() {
            let u = walker.current();
            if u.index() >= node_count {
                return Err(format!("`walkers[{i}].current`: {}", outside(u)));
            }
        }
        for (field, queue) in [("pending", &self.core.pending), ("retry", &self.core.retry)] {
            if let Some(&u) = queue.iter().find(|u| u.index() >= node_count) {
                return Err(format!("`{field}`: {}", outside(u)));
            }
        }
        let state = &self.state;
        let largest = [
            ("dispatch.delivered", state.delivered.max()),
            ("dispatch.refused", state.refused.max()),
            // `delivered` is checked first, so an id out of range here is
            // seen and not delivered.
            ("dispatch.seen_undelivered", state.seen.max()),
            (
                "dispatch.attempts",
                state.node_attempts.keys().copied().max(),
            ),
        ];
        for (field, max) in largest {
            if let Some(u) = max.map(NodeId).filter(|u| u.index() >= node_count) {
                return Err(format!("`{field}`: {}", outside(u)));
            }
        }
        Ok(())
    }

    /// Walker-side accounting so far (the serial-shaped `issued` /
    /// `unique` / `cache_hits` view over the delivered ids).
    pub fn walker_stats(&self) -> QueryStats {
        self.state.stats
    }

    /// The loop's diagnostics (peaks are process-local: they restart from
    /// zero after a resume).
    pub fn reactor_stats(&self) -> ReactorStats {
        self.core.stats
    }

    /// Cap on dispatcher-level resubmissions of a permanently-dropped node
    /// (default [`DEFAULT_NODE_ATTEMPT_CAP`]).
    #[must_use]
    pub fn with_node_attempt_cap(mut self, cap: u32) -> Self {
        self.core.node_attempt_cap = cap.max(1);
        self
    }

    /// Advance up to `events` completion events with submissions enabled,
    /// then drain (submissions off) until nothing is in flight, so the run
    /// is snapshot-safe. Returns the events actually processed, drain
    /// turns included. Pass `usize::MAX` to drive to completion.
    pub fn run_events<B, F>(&mut self, client: &mut B, value: &F, events: usize) -> usize
    where
        B: BatchOsnClient,
        F: Fn(NodeId) -> f64 + ?Sized,
    {
        if self.interface_base.is_none() {
            self.interface_base = Some(client.stats());
        }
        let mut no_restarts = Vec::new();
        let mut executed = 0;
        while executed < events
            && self.core.turn(
                client,
                &mut self.fleet,
                &mut self.rngs,
                Some(value),
                &Never,
                &mut self.state,
                &mut self.cells,
                &mut no_restarts,
                true,
            )
        {
            executed += 1;
        }
        // Quiesce: each drain turn polls one outstanding batch and submits
        // nothing, so the in-flight count strictly decreases.
        while client.in_flight() > 0
            && self.core.turn(
                client,
                &mut self.fleet,
                &mut self.rngs,
                Some(value),
                &Never,
                &mut self.state,
                &mut self.cells,
                &mut no_restarts,
                false,
            )
        {
            executed += 1;
        }
        executed
    }

    /// Notify the fleet that each node in `nodes` had an incident edge
    /// inserted or deleted (through an [`osn_graph::DeltaOverlay`] applied
    /// to the endpoint): every walker drops the circulation state keyed by
    /// that node, and the run forgets that the node was delivered (plus its
    /// `seen` mark) so the next visit re-fetches — and re-charges — the
    /// post-mutation list honestly. Call between [`Self::run_events`]
    /// slices (the endpoint is quiescent there); a ready walker whose node
    /// was evicted re-fetches it on demand through the endpoint's
    /// synchronous fallback at its next act. Returns the total number of
    /// per-edge histories dropped across the fleet.
    ///
    /// `nodes` may come in any order and repeat. The call sorts them into
    /// one [`TouchedNodes`] set and makes one
    /// [`RandomWalk::invalidate_nodes`] pass per walker: one probe per
    /// history slot across the fleet, not one sweep of every walker's
    /// history per touched node.
    pub fn invalidate_nodes(&mut self, nodes: &[NodeId]) -> usize {
        let touched = TouchedNodes::new(nodes);
        for v in touched.iter() {
            self.state.delivered.remove(v.0);
            self.state.copies.remove(&v.0);
            self.state.seen.remove(v.0);
        }
        self.fleet
            .iter_mut()
            .map(|w| w.invalidate_nodes(&touched))
            .sum()
    }

    /// Serialize the complete run state — fleet, RNG streams, cells,
    /// dispatcher state, the reactor's fetch queues (in order) and its
    /// ready set — as a byte-deterministic [`Value`]. Restore with
    /// [`WalkOrchestrator::resume_reactor`]. Only valid between
    /// [`Self::run_events`] calls, where nothing is in flight.
    pub fn snapshot(&self) -> Value {
        debug_assert!(
            self.core.inflight.is_empty(),
            "snapshot with batches in flight"
        );
        let pending: Vec<NodeId> = self.core.pending.iter().copied().collect();
        let retry: Vec<NodeId> = self.core.retry.iter().copied().collect();
        let mut ready = self.core.ready.clone();
        ready.sort_unstable();
        Value::obj([
            ("kind", Value::Str("reactor".into())),
            ("spec", self.spec.spec_value()),
            ("events", Value::Uint(self.core.stats.events as u64)),
            (
                "walkers",
                Value::Arr(self.fleet.iter().map(|w| w.export_state()).collect()),
            ),
            (
                "rngs",
                Value::Arr(self.rngs.iter().map(rng_to_value).collect()),
            ),
            (
                "cells",
                Value::Arr(self.cells.iter().map(cell_to_value).collect()),
            ),
            ("dispatch", dispatch_to_value(&self.state)),
            (
                "attempt_cap",
                Value::Uint(u64::from(self.core.node_attempt_cap)),
            ),
            ("pending", nodes_to_value(&pending)),
            ("retry", nodes_to_value(&retry)),
            ("ready", Value::arr(&ready)),
        ])
    }

    /// Fold the run into the report shape (the `rounds` field carries the
    /// event count), reading the endpoint's interface-side accounting delta
    /// for this process lifetime from `client` (measured from the first
    /// [`Self::run_events`] call after construction or resume).
    pub fn into_report<B: BatchOsnClient>(self, client: &B) -> OrchestratorReport {
        let base = self.interface_base.unwrap_or_default();
        let interface = client.stats().since(&base);
        fold_report(
            self.cells,
            Vec::new(),
            self.core.stats.events,
            self.state,
            interface,
        )
    }
}

// ---------------------------------------------------------------------------
// Snapshot encoding of a `ReactorWalkRun`: byte-deterministic `osn-serde`
// values for every piece of run state.
// ---------------------------------------------------------------------------

fn nodes_to_value(nodes: &[NodeId]) -> Value {
    Value::uints(nodes.iter().map(|n| u64::from(n.0)))
}

/// A node id read from an integer column.
fn id_from(u: u64) -> Result<u32, String> {
    u32::try_from(u).map_err(|_| format!("integer {u} out of u32 range"))
}

fn nodes_from_value(value: &Value) -> Result<Vec<NodeId>, String> {
    value
        .as_uints()?
        .iter()
        .map(|&u| id_from(u).map(NodeId))
        .collect()
}

/// An id set's column. [`NodeSet`] iterates in ascending order, so
/// snapshots are byte-deterministic.
fn id_column(ids: impl Iterator<Item = u32>) -> Value {
    Value::uints(ids.map(u64::from))
}

/// The ids of a set's column, in the order written.
fn ids_from_value(value: &Value) -> Result<Vec<u32>, String> {
    let column = value.as_uints()?;
    let mut ids = Vec::with_capacity(column.len());
    for &u in column.iter() {
        ids.push(id_from(u)?);
    }
    Ok(ids)
}

/// The set of `ids`, which are left ascending.
fn set_from_ids(ids: &mut [u32]) -> Result<NodeSet, String> {
    NodeSet::from_ids(ids).map_err(|_| "duplicate id in serialized set".into())
}

fn rng_to_value(rng: &ChaCha12Rng) -> Value {
    Value::arr(&rng.get_state())
}

fn rng_from_value(value: &Value) -> Result<ChaCha12Rng, String> {
    let words = value.as_uints()?;
    let state: [u64; 4] = words[..]
        .try_into()
        .map_err(|_| format!("RNG state must hold 4 words, got {}", words.len()))?;
    Ok(ChaCha12Rng::from_state(state))
}

fn stop_to_value(stop: Option<WalkStop>) -> Value {
    match stop {
        None => Value::Null,
        Some(WalkStop::MaxSteps) => Value::Str("max-steps".into()),
        Some(WalkStop::BudgetExhausted) => Value::Str("budget-exhausted".into()),
    }
}

fn stop_from_value(value: &Value) -> Result<Option<WalkStop>, String> {
    match value {
        Value::Null => Ok(None),
        other => match other.as_str()? {
            "max-steps" => Ok(Some(WalkStop::MaxSteps)),
            "budget-exhausted" => Ok(Some(WalkStop::BudgetExhausted)),
            unknown => Err(format!("unknown walk stop `{unknown}`")),
        },
    }
}

/// A walker's cell: its `trace` when the run records one, else its
/// `steps`, then its estimator and its stop.
fn cell_to_value(cell: &Cell) -> Value {
    let (weighted_sum, weight_total, count) = cell.est.parts();
    let walked = match &cell.trace {
        Some(trace) => ("trace", nodes_to_value(trace)),
        None => ("steps", Value::Uint(cell.steps as u64)),
    };
    Value::obj([
        walked,
        (
            "est",
            Value::obj([
                ("weighted_sum", Value::Num(weighted_sum)),
                ("weight_total", Value::Num(weight_total)),
                ("count", Value::Uint(count as u64)),
            ]),
        ),
        ("stop", stop_to_value(cell.stop)),
    ])
}

fn cell_from_value(value: &Value) -> Result<Cell, String> {
    let est = value.field("est")?;
    let (steps, trace) = match (value.get("trace"), value.get("steps")) {
        (Some(trace), None) => {
            let trace = nodes_from_value(trace)?;
            (trace.len(), Some(trace))
        }
        (None, Some(steps)) => (steps.decode()?, None),
        (Some(_), Some(_)) => return Err("a cell holds both `trace` and `steps`".into()),
        (None, None) => return Err("a cell holds neither `trace` nor `steps`".into()),
    };
    Ok(Cell {
        steps,
        trace,
        est: RatioEstimator::from_parts(
            est.field("weighted_sum")?.decode()?,
            est.field("weight_total")?.decode()?,
            est.field("count")?.decode()?,
        ),
        stop: stop_from_value(value.field("stop")?)?,
    })
}

fn stats_to_value(stats: QueryStats) -> Value {
    Value::obj([
        ("issued", Value::Uint(stats.issued)),
        ("unique", Value::Uint(stats.unique)),
        ("cache_hits", Value::Uint(stats.cache_hits)),
    ])
}

fn stats_from_value(value: &Value) -> Result<QueryStats, String> {
    Ok(QueryStats {
        issued: value.field("issued")?.decode()?,
        unique: value.field("unique")?.decode()?,
        cache_hits: value.field("cache_hits")?.decode()?,
    })
}

/// A run's dispatch bookkeeping as flat id lists: `attempts` as
/// `[node, count]` pairs, and `seen` — nearly always equal to `delivered` —
/// as its two differences from it, `delivered_unseen` (delivered, not yet
/// read by a walker) and `seen_undelivered` (read, then refused on a
/// read-back refetch). `delivered` is sorted once, and `seen` is sorted
/// only when some id of it is undelivered.
fn dispatch_to_value(state: &DispatchState) -> Value {
    let mut attempts: Vec<[u32; 2]> = state.node_attempts.iter().map(|(&u, &n)| [u, n]).collect();
    attempts.sort_unstable();
    let attempts: Vec<u32> = attempts.into_iter().flatten().collect();
    let (delivered, seen) = (&state.delivered, &state.seen);
    let mut delivered_ids = Vec::with_capacity(delivered.len());
    delivered_ids.extend(delivered.iter().map(u64::from));
    let unseen: Vec<u64> = delivered_ids
        .iter()
        .copied()
        .filter(|&u| !seen.contains(u as u32))
        .collect();
    // `seen` holds `|delivered| − |unseen|` delivered ids; when that is
    // all of it, none is undelivered.
    let undelivered = if seen.len() == delivered_ids.len() - unseen.len() {
        Value::Arr(Vec::new())
    } else {
        id_column(seen.iter().filter(|&u| !delivered.contains(u)))
    };
    Value::obj([
        ("delivered", Value::uints(delivered_ids)),
        ("refused", id_column(state.refused.iter())),
        ("attempts", Value::arr(&attempts)),
        ("delivered_unseen", Value::uints(unseen)),
        ("seen_undelivered", undelivered),
        ("stats", stats_to_value(state.stats)),
        ("refused_nodes", Value::Uint(state.refused_nodes as u64)),
        ("abandoned_nodes", Value::Uint(state.abandoned_nodes as u64)),
        (
            "budget",
            match state.budget_in_force {
                Some(b) => Value::Uint(b),
                None => Value::Null,
            },
        ),
    ])
}

/// The inverse of [`dispatch_to_value`]. Each set is built at once
/// ([`NodeSet::from_ids`]), and `seen` is a clone of `delivered` when both
/// of its differences are empty, as they nearly always are.
fn dispatch_from_value(value: &Value) -> Result<DispatchState, String> {
    let mut delivered_ids = ids_from_value(value.field("delivered")?)?;
    let delivered = set_from_ids(&mut delivered_ids)?;
    let mut unseen = ids_from_value(value.field("delivered_unseen")?)?;
    let mut undelivered = ids_from_value(value.field("seen_undelivered")?)?;
    // Sorted, and refused if an id repeats.
    set_from_ids(&mut unseen)?;
    set_from_ids(&mut undelivered)?;
    if let Some(u) = unseen.iter().find(|&&u| !delivered.contains(u)) {
        return Err(format!("`delivered_unseen` id {u} is not delivered"));
    }
    if let Some(u) = undelivered.iter().find(|&&u| delivered.contains(u)) {
        return Err(format!("`seen_undelivered` id {u} is delivered"));
    }
    let seen = if unseen.is_empty() && undelivered.is_empty() {
        delivered.clone()
    } else {
        let mut ids: Vec<u32> = delivered_ids
            .into_iter()
            .filter(|u| unseen.binary_search(u).is_err())
            .chain(undelivered)
            .collect();
        set_from_ids(&mut ids)?
    };
    let pairs: Vec<u32> = value.field("attempts")?.decode()?;
    if !pairs.len().is_multiple_of(2) {
        return Err(format!(
            "`attempts` holds {} items, not [node, count] pairs",
            pairs.len()
        ));
    }
    let mut node_attempts = FnvHashMap::default();
    for pair in pairs.chunks_exact(2) {
        if node_attempts.insert(pair[0], pair[1]).is_some() {
            return Err(format!("duplicate attempt entry for node {}", pair[0]));
        }
    }
    Ok(DispatchState {
        delivered,
        copies: FnvHashMap::default(),
        refused: set_from_ids(&mut ids_from_value(value.field("refused")?)?)?,
        node_attempts,
        seen,
        stats: stats_from_value(value.field("stats")?)?,
        refused_nodes: value.field("refused_nodes")?.decode()?,
        abandoned_nodes: value.field("abandoned_nodes")?.decode()?,
        budget_in_force: match value.field("budget")? {
            Value::Null => None,
            other => Some(other.decode()?),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::SharedFrontier;
    use crate::walkers::Cnrw;
    use crate::WorkStealing;
    use osn_client::batch::{BatchConfig, SimulatedBatchOsn};
    use osn_client::SimulatedOsn;
    use osn_graph::generators::{clustered_cliques, ClusteredCliquesConfig};

    fn clustered() -> SimulatedOsn {
        SimulatedOsn::from_graph(
            clustered_cliques(&ClusteredCliquesConfig::default()).expect("static config"),
        )
    }

    fn make_cnrw(i: usize, _: HistoryBackend) -> Box<dyn RandomWalk + Send> {
        Box::new(Cnrw::new(osn_graph::NodeId((i as u32 * 7) % 90))) as Box<dyn RandomWalk + Send>
    }

    #[test]
    fn reactor_matches_serial_bit_identically_with_single_batch_waves() {
        let orch = WalkOrchestrator::new(8, 120, 42);
        let serial = orch.run_serial(&mut clustered(), make_cnrw, |v| v.index() as f64, &Never);
        let mut batch = SimulatedBatchOsn::new(
            clustered(),
            BatchConfig::new(16).with_latency(0.01, 0.002).with_seed(5),
        );
        let (reactor, stats) =
            orch.run_reactor_with_stats(&mut batch, make_cnrw, |v| v.index() as f64, &Never);
        assert_eq!(serial.trace.per_walker, reactor.trace.per_walker);
        assert_eq!(serial.stops, reactor.stops);
        assert_eq!(serial.trace.stats, reactor.trace.stats);
        assert_eq!(
            reactor.interface.map(|s| s.unique),
            Some(serial.trace.stats.unique)
        );
        assert_eq!(serial.estimate.mean(), reactor.estimate.mean());
        assert_eq!(serial.rounds, stats.events);
    }

    #[test]
    fn reactor_work_stealing_schedule_matches_serial() {
        let orch = WalkOrchestrator::new(6, 200, 9);
        let make = |i: usize, _: HistoryBackend| {
            // Clumped starts inside one clique force restarts.
            Box::new(Cnrw::new(osn_graph::NodeId(i as u32))) as Box<dyn RandomWalk + Send>
        };
        let policy = WorkStealing::new(1.05, 16, SharedFrontier::with_stripes(8, 16));
        let serial = orch.run_serial(&mut clustered(), make, |v| v.index() as f64, &policy);
        let mut batch = SimulatedBatchOsn::new(clustered(), BatchConfig::new(16));
        let policy2 = WorkStealing::new(1.05, 16, SharedFrontier::with_stripes(8, 16));
        let reactor = orch.run_reactor(&mut batch, make, |v| v.index() as f64, &policy2);
        assert_eq!(serial.restarts, reactor.restarts);
        assert_eq!(serial.trace.per_walker, reactor.trace.per_walker);
        assert!(!serial.restarts.is_empty(), "fixture should restart");
    }

    #[test]
    fn reactor_pipelines_small_batches_without_changing_traces() {
        let orch = WalkOrchestrator::new(8, 100, 3);
        let mut wide = SimulatedBatchOsn::new(clustered(), BatchConfig::new(64));
        let baseline = orch.run_reactor(&mut wide, make_cnrw, |v| v.index() as f64, &Never);
        let mut narrow = SimulatedBatchOsn::new(
            clustered(),
            BatchConfig::new(2)
                .with_in_flight(3)
                .with_latency(0.05, 0.01)
                .with_per_id_latency(0.01),
        );
        let (piped, stats) =
            orch.run_reactor_with_stats(&mut narrow, make_cnrw, |v| v.index() as f64, &Never);
        assert_eq!(baseline.trace.per_walker, piped.trace.per_walker);
        assert_eq!(baseline.stops, piped.stops);
        assert!(stats.peak_in_flight > 1, "narrow window should pipeline");
    }

    #[test]
    fn reactor_run_resumes_bit_identically_across_snapshot() {
        let orch = WalkOrchestrator::new(5, 80, 17);
        let value = |v: osn_graph::NodeId| v.index() as f64;

        let mut solid = SimulatedBatchOsn::new(
            clustered(),
            BatchConfig::new(3).with_latency(0.02, 0.004).with_seed(2),
        );
        let mut whole = orch.start_reactor(make_cnrw);
        while !whole.done() {
            whole.run_events(&mut solid, &value, usize::MAX);
        }
        let whole_report = whole.into_report(&solid);

        let mut endpoint = SimulatedBatchOsn::new(
            clustered(),
            BatchConfig::new(3).with_latency(0.02, 0.004).with_seed(2),
        );
        let mut run = orch.start_reactor(make_cnrw);
        run.run_events(&mut endpoint, &value, 7);
        let snap = run.snapshot();
        let mut resumed = orch.resume_reactor(&snap, make_cnrw).unwrap();
        assert_eq!(snap.to_compact(), resumed.snapshot().to_compact());
        while !resumed.done() {
            resumed.run_events(&mut endpoint, &value, 9);
        }
        let resumed_report = resumed.into_report(&endpoint);
        assert_eq!(
            whole_report.trace.per_walker,
            resumed_report.trace.per_walker
        );
        assert_eq!(whole_report.stops, resumed_report.stops);
        assert_eq!(whole_report.estimate.mean(), resumed_report.estimate.mean());
    }

    #[test]
    fn untraced_runs_walk_count_and_resume_like_traced_ones() {
        let orch = WalkOrchestrator::new(5, 80, 17);
        let value = |v: osn_graph::NodeId| v.index() as f64;
        let endpoint = || {
            SimulatedBatchOsn::new(
                clustered(),
                BatchConfig::new(3).with_latency(0.02, 0.004).with_seed(2),
            )
        };
        let mut client = endpoint();
        let mut traced = orch.start_reactor(make_cnrw);
        while !traced.done() {
            traced.run_events(&mut client, &value, 9);
        }
        let traced = traced.into_report(&client);

        // Untraced from the start, killed and resumed through text midway.
        let mut client = endpoint();
        let mut run = orch.start_reactor(make_cnrw).without_traces();
        run.run_events(&mut client, &value, 7);
        assert!(run.steps_taken() > 0);
        assert_eq!(run.trace(0), None);
        let snap = run.snapshot();
        let cell = &snap.field("cells").unwrap().as_array().unwrap()[0];
        assert!(cell.get("trace").is_none());
        let steps: usize = cell.field("steps").unwrap().decode().unwrap();
        assert!(steps > 0);
        let text = snap.to_pretty();
        let mut resumed = orch
            .resume_reactor(&Value::parse(&text).unwrap(), make_cnrw)
            .unwrap();
        assert_eq!(resumed.snapshot().to_pretty(), text);
        while !resumed.done() {
            resumed.run_events(&mut client, &value, 9);
        }
        assert_eq!(resumed.trace(0), None);
        let untraced = resumed.into_report(&client);
        assert!(untraced.trace.per_walker.is_empty());
        let lengths: Vec<usize> = traced.trace.per_walker.iter().map(Vec::len).collect();
        assert_eq!(traced.trace.steps, lengths);
        assert_eq!(untraced.trace.steps, lengths);
        assert_eq!(untraced.trace.total_steps(), traced.trace.total_steps());
        assert_eq!(untraced.stops, traced.stops);
        assert_eq!(
            untraced.estimate.mean().map(f64::to_bits),
            traced.estimate.mean().map(f64::to_bits)
        );

        // A cell must say how far it walked exactly one way, and a run's
        // cells must agree on whether they are traced.
        let mut client = endpoint();
        let mut run = orch.start_reactor(make_cnrw);
        run.run_events(&mut client, &value, 7);
        let traced_snap = run.snapshot();
        /// The error resuming `snap` gives once cell `i`'s fields are
        /// edited.
        fn refused(
            orch: &WalkOrchestrator,
            snap: &Value,
            i: usize,
            edit: impl Fn(&mut Vec<(String, Value)>),
        ) -> String {
            let mut snap = snap.clone();
            let Value::Obj(fields) = &mut snap else {
                unreachable!("a run snapshot is an object")
            };
            let cells = &mut fields.iter_mut().find(|(k, _)| k == "cells").unwrap().1;
            let Value::Arr(cells) = cells else {
                unreachable!("cells are an array")
            };
            let Value::Obj(cell) = &mut cells[i] else {
                unreachable!("a cell is an object")
            };
            edit(cell);
            orch.resume_reactor(&snap, make_cnrw).err().unwrap()
        }
        let err = refused(&orch, &traced_snap, 0, |cell| {
            cell.push(("steps".into(), Value::Uint(3)));
        });
        assert!(err.contains("both"), "{err}");
        let err = refused(&orch, &traced_snap, 0, |cell| {
            cell.retain(|(k, _)| k != "trace");
        });
        assert!(err.contains("neither"), "{err}");
        let err = refused(&orch, &traced_snap, 1, |cell| {
            cell[0] = ("steps".into(), Value::Uint(3));
        });
        assert!(err.contains("mixes traced and untraced"), "{err}");
    }

    #[test]
    fn waiter_lists_unpark_any_walker_and_wake_the_rest_once() {
        let state = DispatchState::default();
        let u = NodeId(7);
        // Each case unparks these walkers in turn before the node resolves.
        let cases: [&[usize]; 4] = [&[3], &[2], &[1], &[3, 2, 1]];
        for unparked in cases {
            let mut core = ReactorCore::new(4, 10, DEFAULT_NODE_ATTEMPT_CAP);
            core.classify(0, NodeId(9), &state);
            for i in 1..4 {
                core.classify(i, u, &state);
            }
            // Each parks at the head: walker 3 heads `u`'s list, 1 ends it.
            assert_eq!(core.pending, [NodeId(9), u], "each id queued once");
            assert_eq!(core.waiters.get(&u.0), Some(&3));
            assert_eq!(core.parked, 4);
            for &i in unparked {
                core.unpark(i, u.0);
                core.unpark(i, u.0);
                assert_eq!(core.fsm[i], WalkerFsm::AwaitingBatch);
            }
            assert_eq!(core.parked, 4 - unparked.len(), "{unparked:?}");
            assert!(core.waiters.contains_key(&u.0), "the id stays queued");
            let mut acted = Vec::new();
            core.wake(u.0, &mut acted);
            acted.sort_unstable();
            let rest: Vec<usize> = (1..4).filter(|i| !unparked.contains(i)).collect();
            assert_eq!(acted, rest, "{unparked:?}");
            assert!(rest.iter().all(|&i| core.fsm[i] == WalkerFsm::Stepping));
            assert_eq!(core.parked, 1, "walker 0 still waits on another node");
            assert!(!core.waiters.contains_key(&u.0), "the id left the queue");
            core.wake(9, &mut acted);
            assert_eq!(acted.last(), Some(&0));
            assert_eq!(core.parked, 0);
            assert!(core.waiters.is_empty());
        }
    }

    #[test]
    fn dispatch_writes_seen_as_its_differences_from_delivered() {
        let ids = |ids: &[u32]| ids.iter().copied().collect::<NodeSet>();
        let state = DispatchState {
            delivered: ids(&[1, 2, 3, 5]),
            seen: ids(&[2, 3, 5, 8]),
            node_attempts: [(9, 2), (4, 1)].into_iter().collect(),
            ..DispatchState::default()
        };
        let value = dispatch_to_value(&state);
        assert!(value.field("seen").is_err());
        let column = |name: &str| -> Vec<u32> { value.field(name).unwrap().decode().unwrap() };
        assert_eq!(column("delivered_unseen"), [1]);
        assert_eq!(column("seen_undelivered"), [8]);
        assert_eq!(column("attempts"), [4, 1, 9, 2]);
        let back = dispatch_from_value(&value).unwrap();
        assert!(back.seen.iter().eq(state.seen.iter()));
        assert_eq!(back.node_attempts, state.node_attempts);
        assert_eq!(dispatch_to_value(&back), value);

        // Sparse and dense sets whose differences are both empty (`seen`
        // is read back as a clone of `delivered`), one-sided, or both
        // non-empty: the count that skips the `seen_undelivered` pass
        // never drops an id of it.
        let run = |ids: std::ops::Range<u32>| ids.collect::<Vec<u32>>();
        let cases: [(Vec<u32>, Vec<u32>); 7] = [
            (run(0..300), run(0..300)),
            (vec![4, 70, 900], vec![4, 70, 900]),
            (
                run(0..300),
                run(5..300).into_iter().chain([301, 4000]).collect(),
            ),
            (
                run(0..300).into_iter().filter(|u| u % 3 > 0).collect(),
                run(0..280),
            ),
            (vec![1, 2, 3], vec![1]),
            (vec![1, 2, 3], vec![1, 2, 3, 8]),
            (vec![1, 2, 3], vec![1, 8]),
        ];
        for (delivered, seen) in cases {
            let state = DispatchState {
                delivered: ids(&delivered),
                seen: ids(&seen),
                ..DispatchState::default()
            };
            let value = dispatch_to_value(&state);
            let column = |name: &str| -> Vec<u32> { value.field(name).unwrap().decode().unwrap() };
            let minus = |a: &[u32], b: &[u32]| -> Vec<u32> {
                a.iter().copied().filter(|u| !b.contains(u)).collect()
            };
            let case = format!("delivered {delivered:?}, seen {seen:?}");
            assert_eq!(
                column("delivered_unseen"),
                minus(&delivered, &seen),
                "{case}"
            );
            assert_eq!(
                column("seen_undelivered"),
                minus(&seen, &delivered),
                "{case}"
            );
            let back = dispatch_from_value(&value).unwrap();
            assert!(
                back.delivered.iter().eq(delivered.iter().copied()),
                "{case}"
            );
            assert!(back.seen.iter().eq(seen.iter().copied()), "{case}");
            assert_eq!(back.seen.is_dense(), state.seen.is_dense(), "{case}");
            assert_eq!(dispatch_to_value(&back), value, "{case}");
        }

        let edit = |name: &str, ids: &[u32]| {
            let Value::Obj(mut fields) = value.clone() else {
                unreachable!("dispatch is an object")
            };
            fields.iter_mut().find(|(k, _)| k == name).unwrap().1 = Value::arr(ids);
            dispatch_from_value(&Value::Obj(fields))
        };
        assert!(
            edit("delivered_unseen", &[1, 4]).is_err(),
            "unseen, not delivered"
        );
        assert!(
            edit("seen_undelivered", &[3, 8]).is_err(),
            "delivered twice over"
        );
        assert!(edit("attempts", &[4, 1, 9]).is_err(), "half a pair");
        assert!(edit("attempts", &[4, 1, 4, 2]).is_err(), "a node twice");

        // The layout that wrote `seen` out in full is refused by name.
        let Value::Obj(mut fields) = value.clone() else {
            unreachable!("dispatch is an object")
        };
        fields.retain(|(k, _)| k != "delivered_unseen" && k != "seen_undelivered");
        fields.push(("seen".into(), Value::arr(&[2u32, 3, 5, 8])));
        let err = dispatch_from_value(&Value::Obj(fields)).err().unwrap();
        assert!(err.contains("missing field `delivered_unseen`"), "{err}");
    }
}
