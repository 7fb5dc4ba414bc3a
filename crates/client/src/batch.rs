//! Batched client interface: batch endpoints, bounded in-flight windows,
//! transient failures, bounded retry.
//!
//! Real OSN APIs do not serve one neighbor list per HTTP round-trip: they
//! expose **batch endpoints** (e.g. `users/lookup?ids=a,b,c,…`) that accept
//! up to `B` ids per call, allow a bounded number of concurrent in-flight
//! requests, and fail transiently (drops, timeouts) at some background rate.
//! The synchronous [`crate::OsnClient`] hides all of that; this module
//! models it explicitly:
//!
//! * [`BatchOsnClient`] — the trait: `submit` up to
//!   [`BatchLimits::max_batch_size`] node ids as one request (refused while
//!   [`BatchLimits::max_in_flight`] requests are outstanding), then `poll`
//!   completions in virtual-completion-time order; `delivered` reads a
//!   delivered list back for free.
//! * [`SimulatedBatchOsn`] — the simulation, layered over the same
//!   machinery the synchronous path uses: a [`SimulatedOsn`] snapshot/cache
//!   for unique-query accounting, an optional hard unique-query budget, and
//!   a token-bucket rate limit over a [`VirtualClock`] — charged **per
//!   request attempt** (each batch call consumes one token, retries
//!   included), which is exactly how real platforms meter batch endpoints.
//!
//! ## Cost model
//!
//! The paper's §2.3 rule is preserved: the *budget* is charged **at most
//! once per unique node**, on successful delivery only. A node already in
//! the cache is served free; a node refused by the budget charges nothing
//! and stays uncached; a dropped request charges nothing at all. Requests
//! (and their retries) consume *rate-limit tokens* instead — the separation
//! real APIs make between "how much may you learn" (budget) and "how fast
//! may you ask" (rate).
//!
//! ## Failure model
//!
//! Failures are **deterministic and seeded** so tests can replay them: with
//! [`BatchConfig::failure_every`]` = Some(k)`, every `k`-th request attempt
//! (globally numbered, retries included) is dropped. A dropped attempt is
//! retried internally up to [`BatchConfig::max_retries`] times — each retry
//! consumes a fresh rate token and a fresh latency sample — before the
//! request surfaces as a permanent failure ([`BatchNodeError::Dropped`] for
//! every id in it). Real batch endpoints additionally fail **per id**: one
//! user of a `users/lookup` batch is suspended or transiently unreadable
//! while the batch-mates deliver fine. With
//! [`BatchConfig::drop_node_every`]` = Some(j)`, every `j`-th delivered id
//! (globally numbered across delivered requests) surfaces as
//! [`BatchNodeError::Dropped`] on its own — uncharged, resubmittable —
//! while the rest of its request succeeds.
//!
//! Per-request latency is `base_latency_secs` plus
//! `per_id_latency_secs × ids` (bigger batches take longer — heterogeneous
//! per-batch latency) plus a SplitMix64-seeded jitter in `[0,
//! jitter_secs)`, so completion *order* is reproducible for a given seed.

use std::fmt;

use osn_graph::{EdgeMutation, MutationOp, NodeId, NodeSet};
use osn_serde::Value;

use crate::budget::BudgetExhausted;
use crate::client::{OsnClient, SimulatedOsn};
use crate::rate::{RateLimitConfig, VirtualClock};
use crate::stats::QueryStats;

/// Static limits of a batch interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchLimits {
    /// Maximum node ids per request.
    pub max_batch_size: usize,
    /// Maximum concurrently outstanding requests.
    pub max_in_flight: usize,
}

/// Configuration of a [`SimulatedBatchOsn`].
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Maximum node ids per request (clamped to at least 1).
    pub max_batch_size: usize,
    /// Maximum outstanding requests (clamped to at least 1).
    pub max_in_flight: usize,
    /// Token-bucket rate limit charged per request **attempt** (retries
    /// included); `None` disables rate accounting.
    pub rate_limit: Option<RateLimitConfig>,
    /// Base virtual latency of one request, in seconds.
    pub base_latency_secs: f64,
    /// Additional virtual latency per id in the request, in seconds —
    /// bigger batches take longer (heterogeneous per-batch latency).
    pub per_id_latency_secs: f64,
    /// Uniform seeded jitter added to each attempt's latency, `[0, jitter)`.
    pub jitter_secs: f64,
    /// Drop every `k`-th request attempt (globally numbered, 1-based);
    /// `None` disables failure injection.
    pub failure_every: Option<u64>,
    /// Drop every `j`-th *delivered id* (globally numbered, 1-based) on its
    /// own while its batch-mates succeed — the per-id partial-failure mode
    /// of real batch endpoints. The id charges nothing and may be
    /// resubmitted. `None` disables per-id failures.
    pub drop_node_every: Option<u64>,
    /// Internal retries per request before it surfaces as permanently
    /// dropped.
    pub max_retries: u32,
    /// Seed of the latency-jitter stream.
    pub seed: u64,
}

impl BatchConfig {
    /// A reliable batch endpoint: batches of `max_batch_size`, window of 4,
    /// no rate limit, no latency, no failures, 2 retries.
    pub fn new(max_batch_size: usize) -> Self {
        BatchConfig {
            max_batch_size: max_batch_size.max(1),
            max_in_flight: 4,
            rate_limit: None,
            base_latency_secs: 0.0,
            per_id_latency_secs: 0.0,
            jitter_secs: 0.0,
            failure_every: None,
            drop_node_every: None,
            max_retries: 2,
            seed: 0,
        }
    }

    /// Set the in-flight window (clamped to at least 1).
    #[must_use]
    pub fn with_in_flight(mut self, window: usize) -> Self {
        self.max_in_flight = window.max(1);
        self
    }

    /// Meter request attempts against a token-bucket rate limit.
    #[must_use]
    pub fn with_rate_limit(mut self, config: RateLimitConfig) -> Self {
        self.rate_limit = Some(config);
        self
    }

    /// Set the per-request latency model (base plus seeded jitter).
    #[must_use]
    pub fn with_latency(mut self, base_secs: f64, jitter_secs: f64) -> Self {
        self.base_latency_secs = base_secs.max(0.0);
        self.jitter_secs = jitter_secs.max(0.0);
        self
    }

    /// Add per-id latency: each request takes `secs × ids` longer, so
    /// bigger batches complete later (heterogeneous per-batch latency).
    #[must_use]
    pub fn with_per_id_latency(mut self, secs: f64) -> Self {
        self.per_id_latency_secs = secs.max(0.0);
        self
    }

    /// Drop every `k`-th request attempt (deterministic failure injection).
    #[must_use]
    pub fn with_failure_every(mut self, k: u64) -> Self {
        self.failure_every = Some(k.max(1));
        self
    }

    /// Drop every `j`-th delivered id individually while its batch-mates
    /// succeed (deterministic per-id partial failures).
    #[must_use]
    pub fn with_drop_node_every(mut self, j: u64) -> Self {
        self.drop_node_every = Some(j.max(1));
        self
    }

    /// Set the bounded retry count.
    #[must_use]
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Seed the latency-jitter stream.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The static limits this configuration advertises.
    pub fn limits(&self) -> BatchLimits {
        BatchLimits {
            max_batch_size: self.max_batch_size.max(1),
            max_in_flight: self.max_in_flight.max(1),
        }
    }
}

/// Handle identifying one submitted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TicketId(pub u64);

/// Why a [`BatchOsnClient::submit`] call was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The in-flight window is full; `poll` before submitting more.
    WindowFull {
        /// The window that is saturated.
        max_in_flight: usize,
    },
    /// More ids than [`BatchLimits::max_batch_size`] in one request.
    TooLarge {
        /// Ids in the refused request.
        len: usize,
        /// The advertised per-request maximum.
        max_batch_size: usize,
    },
    /// An empty id list.
    Empty,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::WindowFull { max_in_flight } => {
                write!(f, "in-flight window of {max_in_flight} requests is full")
            }
            SubmitError::TooLarge {
                len,
                max_batch_size,
            } => write!(
                f,
                "batch of {len} ids exceeds the maximum of {max_batch_size}"
            ),
            SubmitError::Empty => write!(f, "empty batch"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why one node of an otherwise delivered request has no neighbor list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchNodeError {
    /// The unique-query budget refused to charge this (new) node.
    Budget(BudgetExhausted),
    /// The request was dropped even after every retry; the node was never
    /// charged and may be resubmitted.
    Dropped,
}

impl fmt::Display for BatchNodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchNodeError::Budget(e) => write!(f, "{e}"),
            BatchNodeError::Dropped => write!(f, "request dropped after bounded retries"),
        }
    }
}

/// The final outcome of one submitted request.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// The ticket [`BatchOsnClient::submit`] returned for this request.
    pub ticket: TicketId,
    /// Attempts consumed (1 = succeeded first try; retries add one each).
    pub attempts: u32,
    /// Per-node results, in submission order. Budget refusals are per node
    /// (a batch can partially succeed); a permanently dropped request
    /// reports [`BatchNodeError::Dropped`] for every id.
    pub per_node: Vec<(NodeId, Result<Vec<NodeId>, BatchNodeError>)>,
}

/// A batch-endpoint view of an online social network.
///
/// The interaction is submit/poll: `submit` registers up to
/// [`BatchLimits::max_batch_size`] node ids as one in-flight request (or
/// refuses with [`SubmitError::WindowFull`]); `poll` completes the
/// earliest-finishing outstanding request, applying the implementation's
/// retry policy internally, so every submitted request eventually surfaces
/// exactly one [`BatchOutcome`]. Metadata peeks stay free, as in
/// [`OsnClient`].
pub trait BatchOsnClient {
    /// The advertised batch-size and in-flight limits.
    fn limits(&self) -> BatchLimits;

    /// Outstanding (submitted, not yet polled-out) requests.
    fn in_flight(&self) -> usize;

    /// Submit one request of up to [`BatchLimits::max_batch_size`] ids.
    ///
    /// # Errors
    /// [`SubmitError`] when the window is full, the batch is oversized, or
    /// the id list is empty. No state changes on error.
    fn submit(&mut self, ids: &[NodeId]) -> Result<TicketId, SubmitError>;

    /// Complete the earliest-finishing in-flight request and return its
    /// outcome; `None` when nothing is in flight.
    fn poll(&mut self) -> Option<BatchOutcome>;

    /// Poll-readiness hook: the virtual-clock instant at which the
    /// earliest-finishing in-flight request completes — i.e. when the next
    /// [`Self::poll`] event fires — or `None` when nothing is in flight (or
    /// the implementation does not model time). Event loops use this to
    /// *observe* the completion-time order `poll` will deliver without
    /// consuming the event; the reactor's determinism suites assert the
    /// canonical schedule against it. The default `None` is always safe.
    fn next_ready_at(&self) -> Option<f64> {
        None
    }

    /// Interface-side query accounting (unique = charged).
    fn stats(&self) -> QueryStats;

    /// Remaining unique-query budget; `None` means unlimited.
    fn remaining_budget(&self) -> Option<u64> {
        None
    }

    /// Degree of `u` as free listing metadata.
    fn peek_degree(&self, u: NodeId) -> usize;

    /// Attribute of `u` as free listing metadata.
    fn peek_attribute(&self, u: NodeId, name: &str) -> Option<f64>;

    /// Whether `u` has been delivered (and charged) by this endpoint before,
    /// so re-fetching it is free. The orchestrator hook that lets restart
    /// decisions ride the batch queue cheaply: the work-stealing policy
    /// prefers relocation targets the endpoint already served, and anything
    /// else it picks is fetched through the next batch like any other
    /// walker request. The default `false` is always safe.
    fn is_cached(&self, _u: NodeId) -> bool {
        false
    }

    /// Borrowed read-back of a neighbor list this endpoint delivered, so a
    /// caller can hold ids instead of copies. For an id the endpoint
    /// delivered, and that no later mutation touched, it returns the same
    /// list it delivered. The read is free: query and batch accounting,
    /// budget, clock, rate tokens and counters are left as they are. The
    /// default `None` ("cannot read back") is always safe — the reactor then
    /// keeps its own copy of each list the endpoint delivers.
    fn delivered(&mut self, _u: NodeId) -> Option<&[NodeId]> {
        None
    }
}

/// Running counters of batch-interface usage (requests, not nodes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Request attempts issued, retries included (= rate tokens consumed
    /// when a rate limit is configured).
    pub attempts: u64,
    /// Requests accepted by `submit`.
    pub submitted: u64,
    /// Node ids across all accepted requests.
    pub submitted_ids: u64,
    /// Internal retries of dropped attempts.
    pub retries: u64,
    /// Requests that surfaced as permanently dropped.
    pub dropped: u64,
    /// Individual ids dropped by per-id failure injection while the rest of
    /// their request delivered (see [`BatchConfig::drop_node_every`]).
    pub node_drops: u64,
}

/// One outstanding request of a [`SimulatedBatchOsn`].
#[derive(Clone, Debug)]
struct InFlight {
    ticket: TicketId,
    ids: Vec<NodeId>,
    completes_at: f64,
    attempts: u32,
    fails: bool,
}

/// Simulated batch endpoint over an in-memory snapshot (see module docs).
///
/// Layered over [`SimulatedOsn`] (the cache and unique-query accounting of
/// the synchronous path), plus an optional hard budget and a token-bucket
/// rate limit over a [`VirtualClock`] charged per request attempt.
#[derive(Clone, Debug)]
pub struct SimulatedBatchOsn {
    inner: SimulatedOsn,
    config: BatchConfig,
    budget_limit: u64,
    budget_remaining: Option<u64>,
    clock: VirtualClock,
    tokens: u64,
    window_started: f64,
    in_flight: Vec<InFlight>,
    next_ticket: u64,
    attempt_counter: u64,
    delivery_counter: u64,
    batch_stats: BatchStats,
}

impl SimulatedBatchOsn {
    /// Expose `osn` through a batch endpoint with no budget.
    pub fn new(osn: SimulatedOsn, config: BatchConfig) -> Self {
        Self::configured(osn, config, None)
    }

    /// Fully configured constructor: an optional hard unique-query budget
    /// on top of the batch model. Accounting already performed by `osn` is
    /// preserved, and the budget is charged for unique queries already
    /// spent.
    pub fn configured(osn: SimulatedOsn, config: BatchConfig, budget: Option<u64>) -> Self {
        let tokens = config
            .rate_limit
            .map(|r| r.calls_per_window)
            .unwrap_or(u64::MAX);
        let spent = osn.stats().unique;
        SimulatedBatchOsn {
            budget_limit: budget.unwrap_or(0),
            budget_remaining: budget.map(|b| b.saturating_sub(spent)),
            inner: osn,
            config,
            clock: VirtualClock::default(),
            tokens,
            window_started: 0.0,
            in_flight: Vec::new(),
            next_ticket: 0,
            attempt_counter: 0,
            delivery_counter: 0,
            batch_stats: BatchStats::default(),
        }
    }

    /// The wrapped synchronous simulator (cache + accounting).
    pub fn inner(&self) -> &SimulatedOsn {
        &self.inner
    }

    /// Unwrap into the synchronous simulator, keeping cache and accounting.
    /// In-flight requests are discarded (they charged nothing yet).
    pub fn into_inner(self) -> SimulatedOsn {
        self.inner
    }

    /// The configuration in force.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Record one edge mutation against the wrapped simulator (see
    /// [`SimulatedOsn::apply_mutation`]): queries read through the delta
    /// overlay from now on, and an effective mutation evicts both endpoints
    /// from the cache so their next delivery is re-charged. Requests
    /// already in flight resolve at delivery time, so they observe the
    /// post-mutation listing — apply mutations at quiescent boundaries for
    /// deterministic replay.
    pub fn apply_mutation(&mut self, m: EdgeMutation) -> bool {
        self.inner.apply_mutation(m)
    }

    /// Record a batch of mutations, returning the sorted, deduplicated
    /// nodes whose neighbor lists changed (see
    /// [`SimulatedOsn::apply_mutations`]).
    pub fn apply_mutations(&mut self, ms: &[EdgeMutation]) -> Vec<NodeId> {
        self.inner.apply_mutations(ms)
    }

    /// Request-level counters (attempts, retries, drops).
    pub fn batch_stats(&self) -> BatchStats {
        self.batch_stats
    }

    /// The virtual clock: how long this workload "took" against the
    /// rate-limited platform (0 when no rate limit is configured).
    pub fn clock(&self) -> VirtualClock {
        self.clock
    }

    /// Advance the virtual clock to absolute time `secs`; a no-op when the
    /// clock is already past it. The job server uses this to realize tenant
    /// arrival times: when every admitted job is done and the next
    /// submission lies in the future, virtual time jumps forward to it.
    pub fn advance_clock_to(&mut self, secs: f64) {
        let now = self.clock.elapsed_secs();
        if secs > now {
            self.clock.advance(secs - now);
        }
    }

    /// Serialize the endpoint's dynamic state — cache membership, query and
    /// batch accounting, remaining budget, virtual clock, and the rate-token
    /// bucket — as an [`osn_serde::Value`]. Construction-time spec (the
    /// graph snapshot and the [`BatchConfig`]) is *not* serialized;
    /// [`Self::import_state`] validates against it instead.
    ///
    /// # Errors
    /// When requests are still in flight: snapshots are taken at quiescent
    /// boundaries only, so poll everything out first.
    pub fn export_state(&self) -> Result<Value, String> {
        if !self.in_flight.is_empty() {
            return Err(format!(
                "cannot snapshot a batch endpoint with {} request(s) in flight",
                self.in_flight.len()
            ));
        }
        let cached = Value::uints(self.inner.queried().iter().map(u64::from));
        let s = self.inner.stats();
        let bs = self.batch_stats;
        let mutations: Vec<Value> = self
            .inner
            .mutation_log()
            .iter()
            .map(|m| {
                Value::obj([
                    ("at", Value::Num(m.at)),
                    ("u", Value::Uint(u64::from(m.u.0))),
                    ("v", Value::Uint(u64::from(m.v.0))),
                    (
                        "op",
                        Value::Str(
                            match m.op {
                                MutationOp::Insert => "insert",
                                MutationOp::Delete => "delete",
                            }
                            .into(),
                        ),
                    ),
                ])
            })
            .collect();
        Ok(Value::obj([
            ("cached", cached),
            ("mutations", Value::Arr(mutations)),
            (
                "stats",
                Value::obj([
                    ("issued", Value::Uint(s.issued)),
                    ("unique", Value::Uint(s.unique)),
                    ("cache_hits", Value::Uint(s.cache_hits)),
                ]),
            ),
            (
                "budget",
                match self.budget_remaining {
                    Some(b) => Value::Uint(b),
                    None => Value::Null,
                },
            ),
            ("clock_secs", Value::Num(self.clock.elapsed_secs())),
            ("tokens", Value::Uint(self.tokens)),
            ("window_started", Value::Num(self.window_started)),
            ("next_ticket", Value::Uint(self.next_ticket)),
            ("attempt_counter", Value::Uint(self.attempt_counter)),
            ("delivery_counter", Value::Uint(self.delivery_counter)),
            (
                "batch_stats",
                Value::obj([
                    ("attempts", Value::Uint(bs.attempts)),
                    ("submitted", Value::Uint(bs.submitted)),
                    ("submitted_ids", Value::Uint(bs.submitted_ids)),
                    ("retries", Value::Uint(bs.retries)),
                    ("dropped", Value::Uint(bs.dropped)),
                    ("node_drops", Value::Uint(bs.node_drops)),
                ]),
            ),
        ]))
    }

    /// Restore state exported by [`Self::export_state`] into an endpoint
    /// built over the same graph snapshot, [`BatchConfig`], and budget
    /// shape. After a successful import the endpoint continues the original
    /// workload bit-identically: cache hits, budget charges, rate windows,
    /// and failure injection all pick up where the exporter left off.
    ///
    /// # Errors
    /// When requests are in flight, a field is missing (the mutation log
    /// included), a cached node id is out of range or duplicated, or the
    /// budget shape (limited vs unlimited) disagrees with construction.
    /// `self` is unchanged on error.
    pub fn import_state(&mut self, state: &Value) -> Result<(), String> {
        if !self.in_flight.is_empty() {
            return Err(format!(
                "cannot restore over a batch endpoint with {} request(s) in flight",
                self.in_flight.len()
            ));
        }
        let n = self.inner.network().graph.node_count();
        let column = state.field("cached")?.as_uints()?;
        let mut cached = Vec::with_capacity(column.len());
        for &i in column.iter() {
            let id = u32::try_from(i)
                .ok()
                .filter(|&id| (id as usize) < n)
                .ok_or_else(|| format!("cached node {i} out of range for a {n}-node snapshot"))?;
            cached.push(id);
        }
        let queried =
            NodeSet::from_ids(&mut cached).map_err(|i| format!("duplicate cached node {i}"))?;
        let sv = state.field("stats")?;
        let stats = QueryStats {
            issued: sv.field("issued")?.decode()?,
            unique: sv.field("unique")?.decode()?,
            cache_hits: sv.field("cache_hits")?.decode()?,
        };
        let budget = match state.field("budget")? {
            Value::Null => None,
            other => Some(other.decode::<u64>()?),
        };
        if budget.is_some() != self.budget_remaining.is_some() {
            return Err(
                "budget mismatch: snapshot and endpoint disagree on whether a \
                 unique-query budget is in force"
                    .into(),
            );
        }
        let clock_secs: f64 = state.field("clock_secs")?.decode()?;
        let tokens: u64 = state.field("tokens")?.decode()?;
        let window_started: f64 = state.field("window_started")?.decode()?;
        let next_ticket: u64 = state.field("next_ticket")?.decode()?;
        let attempt_counter: u64 = state.field("attempt_counter")?.decode()?;
        let delivery_counter: u64 = state.field("delivery_counter")?.decode()?;
        let bv = state.field("batch_stats")?;
        let batch_stats = BatchStats {
            attempts: bv.field("attempts")?.decode()?,
            submitted: bv.field("submitted")?.decode()?,
            submitted_ids: bv.field("submitted_ids")?.decode()?,
            retries: bv.field("retries")?.decode()?,
            dropped: bv.field("dropped")?.decode()?,
            node_drops: bv.field("node_drops")?.decode()?,
        };
        let mut mutations = Vec::new();
        for mv in state.field("mutations")?.as_array()? {
            let at: f64 = mv.field("at")?.decode()?;
            let u = NodeId(mv.field("u")?.decode()?);
            let v = NodeId(mv.field("v")?.decode()?);
            mutations.push(match mv.field("op")?.as_str()? {
                "insert" => EdgeMutation::insert(at, u, v),
                "delete" => EdgeMutation::delete(at, u, v),
                other => return Err(format!("unknown mutation op `{other}`")),
            });
        }

        self.inner.restore_overlay(&mutations)?;
        self.inner.restore_accounting(queried, stats);
        self.budget_remaining = budget;
        self.clock = VirtualClock::default();
        if clock_secs > 0.0 {
            self.clock.advance(clock_secs);
        }
        self.tokens = tokens;
        self.window_started = window_started;
        self.next_ticket = next_ticket;
        self.attempt_counter = attempt_counter;
        self.delivery_counter = delivery_counter;
        self.batch_stats = batch_stats;
        Ok(())
    }

    /// Issue one attempt for the (re)queued request: consume a rate token,
    /// sample latency, and decide deterministically whether it drops.
    fn launch(&mut self, ticket: TicketId, ids: Vec<NodeId>, attempts: u32) {
        if let Some(rate) = self.config.rate_limit {
            rate.charge_token(&mut self.clock, &mut self.tokens, &mut self.window_started);
        }
        self.attempt_counter += 1;
        self.batch_stats.attempts += 1;
        let fails = self
            .config
            .failure_every
            .is_some_and(|k| self.attempt_counter.is_multiple_of(k));
        let jitter = if self.config.jitter_secs > 0.0 {
            let r = osn_graph::mix::splitmix64_stream(self.config.seed, self.attempt_counter);
            (r >> 11) as f64 / (1u64 << 53) as f64 * self.config.jitter_secs
        } else {
            0.0
        };
        let completes_at = self.clock.elapsed_secs()
            + self.config.base_latency_secs
            + self.config.per_id_latency_secs * ids.len() as f64
            + jitter;
        self.in_flight.push(InFlight {
            ticket,
            ids,
            completes_at,
            attempts,
            fails,
        });
    }

    /// Resolve one delivered id against cache, budget, and snapshot.
    fn resolve(&mut self, u: NodeId) -> Result<Vec<NodeId>, BatchNodeError> {
        if !self.inner.is_cached(u) {
            if let Some(remaining) = &mut self.budget_remaining {
                let Some(r) = remaining.checked_sub(1) else {
                    // Refused: charged nothing, recorded nothing, uncached.
                    return Err(BatchNodeError::Budget(BudgetExhausted {
                        budget: self.budget_limit,
                    }));
                };
                *remaining = r;
            }
        }
        Ok(self
            .inner
            .neighbors(u)
            .expect("bare simulator never fails")
            .to_vec())
    }
}

impl BatchOsnClient for SimulatedBatchOsn {
    fn limits(&self) -> BatchLimits {
        self.config.limits()
    }

    fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    fn submit(&mut self, ids: &[NodeId]) -> Result<TicketId, SubmitError> {
        let limits = self.limits();
        if ids.is_empty() {
            return Err(SubmitError::Empty);
        }
        if ids.len() > limits.max_batch_size {
            return Err(SubmitError::TooLarge {
                len: ids.len(),
                max_batch_size: limits.max_batch_size,
            });
        }
        if self.in_flight.len() >= limits.max_in_flight {
            return Err(SubmitError::WindowFull {
                max_in_flight: limits.max_in_flight,
            });
        }
        let ticket = TicketId(self.next_ticket);
        self.next_ticket += 1;
        self.batch_stats.submitted += 1;
        self.batch_stats.submitted_ids += ids.len() as u64;
        self.launch(ticket, ids.to_vec(), 1);
        Ok(ticket)
    }

    fn next_ready_at(&self) -> Option<f64> {
        // Mirror `poll`'s selection exactly: earliest completion, ties by
        // ticket. A retry relaunched by `poll` may complete later than this
        // instant, but the *request* selected here is the one `poll` will
        // service next.
        self.in_flight
            .iter()
            .min_by(|a, b| {
                a.completes_at
                    .total_cmp(&b.completes_at)
                    .then(a.ticket.cmp(&b.ticket))
            })
            .map(|req| req.completes_at.max(self.clock.elapsed_secs()))
    }

    fn poll(&mut self) -> Option<BatchOutcome> {
        loop {
            // Earliest completion first; ties broken by ticket so the order
            // is fully deterministic.
            let idx = self
                .in_flight
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.completes_at
                        .total_cmp(&b.completes_at)
                        .then(a.ticket.cmp(&b.ticket))
                })
                .map(|(i, _)| i)?;
            let req = self.in_flight.swap_remove(idx);
            if req.completes_at > self.clock.elapsed_secs() {
                let wait = req.completes_at - self.clock.elapsed_secs();
                self.clock.advance(wait);
            }
            if req.fails {
                if req.attempts <= self.config.max_retries {
                    // Transparent bounded retry: fresh token, fresh latency.
                    self.batch_stats.retries += 1;
                    self.launch(req.ticket, req.ids, req.attempts + 1);
                    continue;
                }
                self.batch_stats.dropped += 1;
                return Some(BatchOutcome {
                    ticket: req.ticket,
                    attempts: req.attempts,
                    per_node: req
                        .ids
                        .into_iter()
                        .map(|u| (u, Err(BatchNodeError::Dropped)))
                        .collect(),
                });
            }
            let per_node = req
                .ids
                .into_iter()
                .map(|u| {
                    // Per-id partial failure: this id drops on its own
                    // (uncharged, resubmittable) while its batch-mates
                    // resolve normally.
                    self.delivery_counter += 1;
                    let dropped = self
                        .config
                        .drop_node_every
                        .is_some_and(|j| self.delivery_counter.is_multiple_of(j));
                    if dropped {
                        self.batch_stats.node_drops += 1;
                        (u, Err(BatchNodeError::Dropped))
                    } else {
                        (u, self.resolve(u))
                    }
                })
                .collect();
            return Some(BatchOutcome {
                ticket: req.ticket,
                attempts: req.attempts,
                per_node,
            });
        }
    }

    fn stats(&self) -> QueryStats {
        self.inner.stats()
    }

    fn remaining_budget(&self) -> Option<u64> {
        self.budget_remaining
    }

    fn peek_degree(&self, u: NodeId) -> usize {
        self.inner.peek_degree(u)
    }

    fn peek_attribute(&self, u: NodeId, name: &str) -> Option<f64> {
        self.inner.peek_attribute(u, name)
    }

    fn is_cached(&self, u: NodeId) -> bool {
        self.inner.is_cached(u)
    }

    /// The current list of any node in the graph, delivered or not — a run
    /// resumed against a fresh endpoint reads back lists that endpoint
    /// never served. `None` for an id outside the graph.
    fn delivered(&mut self, u: NodeId) -> Option<&[NodeId]> {
        self.inner.current_neighbors(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    fn star_osn(leaves: u32) -> SimulatedOsn {
        let mut b = GraphBuilder::new();
        for i in 1..=leaves {
            b.push_edge(0, i);
        }
        SimulatedOsn::from_graph(b.build().unwrap())
    }

    fn ids(range: std::ops::Range<u32>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    #[test]
    fn submit_validates_size_window_and_emptiness() {
        let mut c = SimulatedBatchOsn::new(star_osn(10), BatchConfig::new(3).with_in_flight(1));
        assert_eq!(c.submit(&[]), Err(SubmitError::Empty));
        assert_eq!(
            c.submit(&ids(0..4)),
            Err(SubmitError::TooLarge {
                len: 4,
                max_batch_size: 3
            })
        );
        c.submit(&ids(0..3)).unwrap();
        assert_eq!(
            c.submit(&ids(3..5)),
            Err(SubmitError::WindowFull { max_in_flight: 1 })
        );
        // Polling frees the window.
        assert!(c.poll().is_some());
        assert!(c.submit(&ids(3..5)).is_ok());
    }

    #[test]
    fn delivery_matches_graph_and_charges_unique_once() {
        let mut c = SimulatedBatchOsn::new(star_osn(6), BatchConfig::new(4));
        // Duplicate id inside one batch: the second occurrence is a hit.
        c.submit(&[NodeId(1), NodeId(2), NodeId(1)]).unwrap();
        let outcome = c.poll().unwrap();
        assert_eq!(outcome.attempts, 1);
        for (u, res) in &outcome.per_node {
            assert_eq!(res.as_ref().unwrap(), &vec![NodeId(0)], "node {u}");
        }
        let s = c.stats();
        assert_eq!((s.issued, s.unique, s.cache_hits), (3, 2, 1));
        // Re-fetching across requests is also free.
        c.submit(&[NodeId(2)]).unwrap();
        c.poll().unwrap();
        assert_eq!(c.stats().unique, 2);
    }

    #[test]
    fn mutations_survive_snapshot_round_trip() {
        let mut c = SimulatedBatchOsn::new(star_osn(5), BatchConfig::new(4));
        c.submit(&[NodeId(0), NodeId(1)]).unwrap();
        c.poll().unwrap();
        assert!(c.apply_mutation(EdgeMutation::insert(1.0, NodeId(1), NodeId(2))));
        assert!(c.apply_mutation(EdgeMutation::delete(2.0, NodeId(0), NodeId(3))));
        let snap = c.export_state().unwrap();

        // A fresh endpoint over the same base snapshot restores the overlay
        // and serves the post-mutation listings.
        let mut fresh = SimulatedBatchOsn::new(star_osn(5), BatchConfig::new(4));
        fresh.import_state(&snap).unwrap();
        assert_eq!(fresh.inner().mutation_log(), c.inner().mutation_log());
        fresh.submit(&[NodeId(1)]).unwrap();
        let out = fresh.poll().unwrap();
        assert_eq!(
            out.per_node[0].1.as_ref().unwrap(),
            &vec![NodeId(0), NodeId(2)]
        );
        assert_eq!(fresh.peek_degree(NodeId(0)), 4);

        // A pristine endpoint's state carries an empty `mutations` list:
        // importing it rolls a mutated endpoint back to the base graph.
        let pristine = SimulatedBatchOsn::new(star_osn(5), BatchConfig::new(4))
            .export_state()
            .unwrap();
        assert!(pristine.field("mutations").is_ok());
        c.import_state(&pristine).unwrap();
        assert!(c.inner().mutation_log().is_empty());
        assert_eq!(c.peek_degree(NodeId(0)), 5);

        // A state that lost its `mutations` field is refused: resuming it on
        // the base graph would disagree with histories built on the mutated
        // one.
        let Value::Obj(fields) = snap else {
            panic!("endpoint state is an object");
        };
        let stripped = Value::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "mutations")
                .collect(),
        );
        let mut fresh = SimulatedBatchOsn::new(star_osn(5), BatchConfig::new(4));
        let err = fresh.import_state(&stripped).unwrap_err();
        assert!(err.contains("`mutations`"), "{err}");
        assert!(fresh.inner().mutation_log().is_empty());
    }

    #[test]
    fn budget_refuses_per_node_without_charging() {
        let mut c = SimulatedBatchOsn::configured(star_osn(8), BatchConfig::new(8), Some(2));
        c.submit(&ids(1..5)).unwrap();
        let outcome = c.poll().unwrap();
        let oks: Vec<bool> = outcome.per_node.iter().map(|(_, r)| r.is_ok()).collect();
        assert_eq!(oks, vec![true, true, false, false]);
        assert!(matches!(
            outcome.per_node[2].1,
            Err(BatchNodeError::Budget(BudgetExhausted { budget: 2 }))
        ));
        assert_eq!(c.remaining_budget(), Some(0));
        assert_eq!(c.stats().unique, 2);
        // Cached nodes stay free after exhaustion; refused nodes stay
        // refused (they were never cached).
        c.submit(&[NodeId(1), NodeId(3)]).unwrap();
        let again = c.poll().unwrap();
        assert!(again.per_node[0].1.is_ok());
        assert!(again.per_node[1].1.is_err());
        assert_eq!(c.stats().unique, 2, "never double-charged");
    }

    #[test]
    fn failure_every_k_is_retried_then_succeeds() {
        // Attempts are numbered globally: with k = 2 and 1 retry, attempt 2
        // (the first request's retry? no — the second attempt overall)
        // drops and is retried transparently.
        let config = BatchConfig::new(2)
            .with_failure_every(2)
            .with_max_retries(1);
        let mut c = SimulatedBatchOsn::new(star_osn(6), config);
        c.submit(&[NodeId(1)]).unwrap(); // attempt 1: ok
        let first = c.poll().unwrap();
        assert_eq!(first.attempts, 1);
        assert!(first.per_node[0].1.is_ok());
        c.submit(&[NodeId(2)]).unwrap(); // attempt 2: drops; retry = attempt 3: ok
        let second = c.poll().unwrap();
        assert_eq!(second.attempts, 2);
        assert!(second.per_node[0].1.is_ok());
        let bs = c.batch_stats();
        assert_eq!((bs.attempts, bs.retries, bs.dropped), (3, 1, 0));
        // Nothing was double-charged along the way.
        assert_eq!(c.stats().unique, 2);
    }

    #[test]
    fn exhausted_retries_surface_dropped_without_charging() {
        // Every attempt fails: after 1 + max_retries attempts the request
        // surfaces as Dropped and no node was charged.
        let config = BatchConfig::new(4)
            .with_failure_every(1)
            .with_max_retries(3);
        let mut c = SimulatedBatchOsn::new(star_osn(6), config);
        c.submit(&ids(1..4)).unwrap();
        let outcome = c.poll().unwrap();
        assert_eq!(outcome.attempts, 4);
        assert!(outcome
            .per_node
            .iter()
            .all(|(_, r)| matches!(r, Err(BatchNodeError::Dropped))));
        assert_eq!(c.stats().unique, 0);
        assert_eq!(c.batch_stats().dropped, 1);
    }

    #[test]
    fn rate_tokens_metered_per_attempt_advance_the_clock() {
        // 2 calls per 10-second window, zero latency: attempts 1-2 at t=0,
        // attempt 3 (a retry!) must wait for the next window.
        let rate = RateLimitConfig {
            calls_per_window: 2,
            window_secs: 10.0,
        };
        let config = BatchConfig::new(1)
            .with_rate_limit(rate)
            .with_failure_every(2)
            .with_max_retries(1)
            .with_in_flight(4);
        let mut c = SimulatedBatchOsn::new(star_osn(6), config);
        c.submit(&[NodeId(1)]).unwrap(); // attempt 1, t = 0
        c.submit(&[NodeId(2)]).unwrap(); // attempt 2 (drops), t = 0
        assert_eq!(c.clock().elapsed_secs(), 0.0);
        c.poll().unwrap();
        let second = c.poll().unwrap(); // retry = attempt 3 waits until t = 10
        assert!(second.per_node[0].1.is_ok());
        assert_eq!(c.clock().elapsed_secs(), 10.0);
        assert_eq!(c.batch_stats().attempts, 3);
    }

    #[test]
    fn latency_and_jitter_order_completions_deterministically() {
        let config = BatchConfig::new(1)
            .with_latency(1.0, 0.5)
            .with_in_flight(8)
            .with_seed(9);
        let run = |mut c: SimulatedBatchOsn| {
            for u in ids(1..5) {
                c.submit(&[u]).unwrap();
            }
            let mut order = Vec::new();
            while let Some(o) = c.poll() {
                order.push(o.per_node[0].0);
            }
            (order, c.clock().elapsed_secs())
        };
        let a = run(SimulatedBatchOsn::new(star_osn(6), config.clone()));
        let b = run(SimulatedBatchOsn::new(star_osn(6), config));
        assert_eq!(a, b, "same seed, same completion order and clock");
        assert!(
            a.1 >= 1.0 && a.1 < 1.5,
            "clock within latency+jitter: {}",
            a.1
        );
    }

    #[test]
    fn peeks_are_free() {
        let c = SimulatedBatchOsn::new(star_osn(5), BatchConfig::new(2));
        assert_eq!(c.peek_degree(NodeId(0)), 5);
        assert_eq!(c.peek_attribute(NodeId(0), "nope"), None);
        assert_eq!(c.stats().issued, 0);
    }

    #[test]
    fn per_id_drops_spare_batch_mates_and_charge_nothing() {
        // Every 3rd delivered id drops on its own: in a 4-id batch the 3rd
        // position fails while positions 1, 2, and 4 resolve normally.
        let config = BatchConfig::new(4).with_drop_node_every(3);
        let mut c = SimulatedBatchOsn::new(star_osn(6), config);
        c.submit(&ids(1..5)).unwrap();
        let outcome = c.poll().unwrap();
        let oks: Vec<bool> = outcome.per_node.iter().map(|(_, r)| r.is_ok()).collect();
        assert_eq!(oks, vec![true, true, false, true]);
        assert!(matches!(
            outcome.per_node[2].1,
            Err(BatchNodeError::Dropped)
        ));
        // The dropped id charged nothing and stays resubmittable.
        assert_eq!(c.stats().unique, 3);
        assert_eq!(c.batch_stats().node_drops, 1);
        c.submit(&[NodeId(3)]).unwrap(); // delivery 5: succeeds
        let again = c.poll().unwrap();
        assert!(again.per_node[0].1.is_ok());
        assert_eq!(c.stats().unique, 4);
        // The whole-request counter is untouched by per-id failures.
        assert_eq!(c.batch_stats().dropped, 0);
    }

    #[test]
    fn per_id_latency_makes_bigger_batches_slower() {
        // base 1s + 0.5s per id: a 1-id and a 3-id request submitted
        // together complete at t = 1.5 and t = 2.5 respectively.
        let config = BatchConfig::new(3)
            .with_latency(1.0, 0.0)
            .with_per_id_latency(0.5)
            .with_in_flight(2);
        let mut c = SimulatedBatchOsn::new(star_osn(6), config);
        c.submit(&ids(1..4)).unwrap();
        c.submit(&[NodeId(4)]).unwrap();
        // The small batch finishes first despite being submitted second.
        let first = c.poll().unwrap();
        assert_eq!(first.per_node[0].0, NodeId(4));
        assert_eq!(c.clock().elapsed_secs(), 1.5);
        let second = c.poll().unwrap();
        assert_eq!(second.per_node.len(), 3);
        assert_eq!(c.clock().elapsed_secs(), 2.5);
    }

    #[test]
    fn advance_clock_to_is_monotone() {
        let mut c = SimulatedBatchOsn::new(star_osn(4), BatchConfig::new(2));
        c.advance_clock_to(5.0);
        assert_eq!(c.clock().elapsed_secs(), 5.0);
        c.advance_clock_to(3.0); // already past: no-op
        assert_eq!(c.clock().elapsed_secs(), 5.0);
    }

    #[test]
    fn export_import_round_trips_through_text() {
        // A workload with every knob active: rate limit, latency, whole-
        // request failures, per-id drops, a hard budget.
        let config = BatchConfig::new(3)
            .with_rate_limit(RateLimitConfig {
                calls_per_window: 4,
                window_secs: 10.0,
            })
            .with_latency(0.25, 0.1)
            .with_per_id_latency(0.05)
            .with_failure_every(5)
            .with_drop_node_every(7)
            .with_seed(11);
        let fresh = || SimulatedBatchOsn::configured(star_osn(12), config.clone(), Some(9));
        let drive = |c: &mut SimulatedBatchOsn, batches: std::ops::Range<u32>| {
            for lo in batches {
                c.submit(&[NodeId(lo % 12), NodeId((lo + 1) % 12)]).unwrap();
                c.poll().unwrap();
            }
        };

        // Reference: one uninterrupted endpoint.
        let mut reference = fresh();
        drive(&mut reference, 0..9);

        // Kill after 4 batches, persist through the text form, restore into
        // a cold endpoint, and finish the workload.
        let mut first = fresh();
        drive(&mut first, 0..4);
        let text = first.export_state().unwrap().to_pretty();
        let mut resumed = fresh();
        resumed
            .import_state(&Value::parse(&text).map_err(|e| e.to_string()).unwrap())
            .unwrap();
        drive(&mut resumed, 4..9);

        assert_eq!(resumed.stats(), reference.stats());
        assert_eq!(resumed.batch_stats(), reference.batch_stats());
        assert_eq!(resumed.remaining_budget(), reference.remaining_budget());
        assert_eq!(
            resumed.clock().elapsed_secs().to_bits(),
            reference.clock().elapsed_secs().to_bits()
        );
        assert_eq!(
            resumed.export_state().unwrap().to_pretty(),
            reference.export_state().unwrap().to_pretty(),
            "full state must round-trip bit-identically"
        );
    }

    #[test]
    fn export_refuses_in_flight_and_import_validates() {
        let mut c = SimulatedBatchOsn::new(star_osn(4), BatchConfig::new(2));
        c.submit(&[NodeId(4)]).unwrap();
        assert!(c.export_state().unwrap_err().contains("in flight"));
        c.poll().unwrap();
        let snap = c.export_state().unwrap();

        // Budget shape must match construction.
        let mut budgeted = SimulatedBatchOsn::configured(star_osn(4), BatchConfig::new(2), Some(3));
        assert!(budgeted
            .import_state(&snap)
            .unwrap_err()
            .contains("budget mismatch"));

        // A smaller snapshot rejects out-of-range cached ids.
        let mut tiny = SimulatedBatchOsn::new(star_osn(2), BatchConfig::new(2));
        assert!(tiny
            .import_state(&snap)
            .unwrap_err()
            .contains("out of range"));

        // The matching shape restores fine.
        let mut ok = SimulatedBatchOsn::new(star_osn(4), BatchConfig::new(2));
        ok.import_state(&snap).unwrap();
        assert_eq!(ok.stats(), c.stats());
    }

    #[test]
    fn fixed_mode_is_unchanged_by_adaptive_machinery() {
        // The replay pin: an endpoint driven through a failing,
        // latency-heavy workload keeps its configured limits, and two runs
        // agree on stats and clock.
        let config = BatchConfig::new(3)
            .with_latency(0.25, 0.1)
            .with_per_id_latency(0.05)
            .with_failure_every(3)
            .with_max_retries(1)
            .with_seed(5);
        let drive = |mut c: SimulatedBatchOsn| {
            for lo in 0..8u32 {
                assert_eq!(c.limits(), config.limits(), "limits never move");
                c.submit(&[NodeId(lo % 10), NodeId((lo + 1) % 10)]).unwrap();
                c.poll().unwrap();
            }
            (
                c.stats(),
                c.batch_stats(),
                c.clock().elapsed_secs().to_bits(),
            )
        };
        let fixed = drive(SimulatedBatchOsn::new(star_osn(10), config.clone()));
        let again = drive(SimulatedBatchOsn::new(star_osn(10), config.clone()));
        assert_eq!(fixed, again);
    }

    #[test]
    fn delivered_reads_back_for_free_on_plain_and_compact_graphs() {
        use osn_graph::compact::CompactCsr;
        use std::sync::Arc;

        let graph = || {
            let mut b = GraphBuilder::new();
            for i in 1..=7 {
                b.push_edge(0, i);
                b.push_edge(i, i % 7 + 1);
            }
            b.build().unwrap()
        };
        let compact = SimulatedOsn::from_compact(Arc::new(CompactCsr::from_csr(&graph())));
        for osn in [SimulatedOsn::from_graph(graph()), compact] {
            let config = BatchConfig::new(3)
                .with_rate_limit(RateLimitConfig {
                    calls_per_window: 2,
                    window_secs: 10.0,
                })
                .with_latency(0.25, 0.1)
                .with_seed(3);
            let mut c = SimulatedBatchOsn::configured(osn, config, Some(6));
            c.submit(&[NodeId(0), NodeId(2), NodeId(5)]).unwrap();
            let outcome = c.poll().unwrap();
            let accounting = |c: &SimulatedBatchOsn| {
                (
                    c.stats(),
                    c.batch_stats(),
                    c.remaining_budget(),
                    c.clock().elapsed_secs().to_bits(),
                    c.export_state().unwrap().to_pretty(),
                )
            };
            let before = accounting(&c);
            // A delivered id reads back the list it was delivered with.
            for (u, list) in &outcome.per_node {
                assert_eq!(c.delivered(*u), Some(list.as_ref().unwrap().as_slice()));
            }
            // Any node of the graph reads back, delivered or not; an id
            // outside it does not. No read charges or counts anything.
            for u in 0..8 {
                assert!(c.delivered(NodeId(u)).is_some(), "node {u}");
            }
            assert_eq!(c.delivered(NodeId(8)), None);
            assert_eq!(accounting(&c), before, "the read-back charged something");

            // After mutations the read-back is the post-mutation list the
            // synchronous simulator serves.
            c.apply_mutations(&[
                EdgeMutation::delete(1.0, NodeId(0), NodeId(2)),
                EdgeMutation::insert(1.5, NodeId(2), NodeId(5)),
                EdgeMutation::insert(2.0, NodeId(5), NodeId(3)),
            ]);
            let mut reference = c.inner().clone();
            for u in (0..8).map(NodeId) {
                assert_eq!(
                    c.delivered(u),
                    Some(reference.neighbors(u).unwrap()),
                    "node {u} after mutations"
                );
            }
        }
    }

    #[test]
    fn preserves_prior_accounting_and_budget_spend() {
        let mut osn = star_osn(5);
        osn.neighbors(NodeId(1)).unwrap();
        let c = SimulatedBatchOsn::configured(osn, BatchConfig::new(2), Some(3));
        assert_eq!(c.remaining_budget(), Some(2));
        assert_eq!(c.stats().unique, 1);
    }
}
