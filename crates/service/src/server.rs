//! The multi-tenant job server: one shared batch endpoint, many concurrent
//! walk jobs, fair-share scheduling of the shared query budget.
//!
//! ## Scheduling model
//!
//! Time is the endpoint's [`osn_client::VirtualClock`]. The server advances
//! in **slices**: each slice admits every queued job whose arrival time has
//! passed, picks the tenant with the lowest charged-queries-to-weight ratio
//! (classic max-min weighted fair share over the cumulative charge), picks
//! that tenant's next running job round-robin, and grants it
//! [`ServerConfig::rounds_per_slice`] completion events of its
//! [`ReactorWalkRun`] against the shared endpoint. Everything — tenant
//! choice, job choice, walker randomness, endpoint failures — is a
//! deterministic function of specs and seeds, so a server run replays
//! bit-identically.
//!
//! The scheduler keeps an index that is updated where its state changes,
//! so a slice reads only the tenant and job it serves: the runnable
//! tenants ordered by `(charged / weight, index)`, each tenant's running
//! job ids in ascending order, and the queued jobs ordered by arrival. A
//! slice costs O(log T + the picked tenant's running jobs) for T tenants
//! and picks exactly what a scan of every tenant and job would pick. The
//! index's order relies on finite, positive weights and finite,
//! non-negative arrivals, which registration, [`SessionServer::submit`]
//! and [`SessionServer::resume`] enforce.
//!
//! ## Why sharing beats sequential
//!
//! All jobs ride **one** endpoint cache: when tenant B's walker lands on a
//! node tenant A already paid for, B's fetch is a cache hit and charges
//! nothing. At a fixed shared budget the fleet therefore takes more total
//! steps (and reaches lower aggregate error) than the same jobs run
//! sequentially against private caches — the `fig_service` experiment
//! measures exactly this.
//!
//! ## Snapshot / resume
//!
//! [`SessionServer::snapshot`] captures the endpoint state (cache
//! membership, budget, clock, rate bucket), every tenant's accounting,
//! every job (spec + lifecycle state + mid-walk run snapshot), and the
//! scheduler cursors, as one [`Value`] that carries its layout's number,
//! [`SNAPSHOT_FORMAT`]. [`SessionServer::resume`] restores the lot into a
//! freshly constructed endpoint and continues every job mid-walk
//! bit-identically.
//!
//! Jobs record no visit sequences
//! ([`ReactorWalkRun::without_traces`]): a running job's snapshot holds
//! its walkers' histories, estimators and dispatch ids, which stop growing
//! once the walk has crossed the edges it will cross, and each walker's
//! step count in place of its trace.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::Arc;

use osn_client::{BatchOsnClient, QueryStats, SimulatedBatchOsn};
use osn_graph::attributes::AttributedGraph;
use osn_graph::{EdgeMutation, NodeId};
use osn_serde::Value;
use osn_walks::ReactorWalkRun;

use crate::job::{JobResult, JobSpec, JobState};

/// The layout number [`SessionServer::snapshot`] writes as its `format`
/// field, right after `kind`. [`SessionServer::resume`] reads it before
/// any other field and refuses, by name, a snapshot without it or with
/// another number.
pub const SNAPSHOT_FORMAT: u64 = 1;

/// A registered tenant: a display name and a fair-share weight.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name (reports, snapshots).
    pub name: String,
    /// Fair-share weight; charged queries are allocated proportionally to
    /// it while tenants stay backlogged. Always finite and positive:
    /// registration stores 1.0 in place of any other value.
    pub weight: f64,
}

/// Per-tenant accounting, updated after every scheduling slice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Unique queries charged to the shared budget by this tenant's jobs.
    pub charged: u64,
    /// Cache hits this tenant's jobs rode — neighbor lists some earlier
    /// fetch (possibly another tenant's) already paid for.
    pub cache_hits: u64,
    /// Walk steps taken across this tenant's jobs.
    pub steps: u64,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Jobs refused at admission (budget already exhausted).
    pub jobs_refused: u64,
}

impl TenantStats {
    fn to_value(self) -> Value {
        Value::obj([
            ("charged", Value::Uint(self.charged)),
            ("cache_hits", Value::Uint(self.cache_hits)),
            ("steps", Value::Uint(self.steps)),
            ("jobs_completed", Value::Uint(self.jobs_completed)),
            ("jobs_refused", Value::Uint(self.jobs_refused)),
        ])
    }

    fn from_value(value: &Value) -> Result<Self, String> {
        Ok(TenantStats {
            charged: value.field("charged")?.decode()?,
            cache_hits: value.field("cache_hits")?.decode()?,
            steps: value.field("steps")?.decode()?,
            jobs_completed: value.field("jobs_completed")?.decode()?,
            jobs_refused: value.field("jobs_refused")?.decode()?,
        })
    }
}

/// Server-wide configuration (construction-time spec, not serialized).
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Reactor completion events granted per slice (the `events` budget of
    /// each slice's [`ReactorWalkRun::run_events`] call). Smaller slices
    /// track the fair shares tighter at more scheduling overhead.
    pub rounds_per_slice: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            rounds_per_slice: 8,
        }
    }
}

impl ServerConfig {
    /// The default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the slice length (clamped to at least 1 event).
    #[must_use]
    pub fn with_rounds_per_slice(mut self, rounds: usize) -> Self {
        self.rounds_per_slice = rounds.max(1);
        self
    }
}

/// Check a job spec against the server's tenants and snapshot — the one
/// gate both [`SessionServer::submit`] and [`SessionServer::resume`] pass
/// every spec through.
fn check_spec(spec: &JobSpec, tenants: usize, network: &AttributedGraph) -> Result<(), String> {
    if !(spec.arrival_secs.is_finite() && spec.arrival_secs >= 0.0) {
        return Err(format!(
            "arrival time {} is not finite and non-negative",
            spec.arrival_secs
        ));
    }
    if spec.tenant >= tenants {
        return Err(format!(
            "job names tenant {} but only {tenants} are registered",
            spec.tenant
        ));
    }
    let n = network.graph.node_count();
    if spec.start.index() >= n {
        return Err(format!(
            "start node {} outside the {n}-node snapshot",
            spec.start
        ));
    }
    Ok(())
}

/// The integer whose order is [`f64::total_cmp`]'s, so the scheduler's
/// ordered indexes sort and break ties exactly as a `min_by(total_cmp)`
/// scan over the same floats would.
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// One job's full server-side record.
struct Job {
    spec: JobSpec,
    state: JobState,
    /// Present exactly while the job is running. Boxed: run state is
    /// hundreds of bytes, and the job list stays slim.
    live: Option<Box<Live>>,
    result: Option<JobResult>,
}

/// A running job's reactor run and the estimand closure its slices
/// sample, both built once, at admission or resume.
struct Live {
    run: ReactorWalkRun,
    value: Box<dyn Fn(NodeId) -> f64 + Send>,
}

impl Live {
    fn new(run: ReactorWalkRun, spec: &JobSpec, network: &Arc<AttributedGraph>) -> Box<Self> {
        Box::new(Live {
            run,
            value: spec.estimand.value_fn(network),
        })
    }
}

/// The sampling-as-a-service session server (see module docs).
pub struct SessionServer {
    endpoint: SimulatedBatchOsn,
    network: Arc<AttributedGraph>,
    config: ServerConfig,
    tenants: Vec<TenantSpec>,
    stats: Vec<TenantStats>,
    /// Per-tenant round-robin position: how many slices the tenant has been
    /// granted, used to rotate across its running jobs.
    cursors: Vec<u64>,
    jobs: Vec<Job>,
    /// Tenants with a running job, keyed by `(total_key(charged / weight),
    /// index)`: the first entry is the next slice's tenant.
    runnable: BTreeSet<(i64, usize)>,
    /// Each tenant's running job ids, ascending — the round-robin order.
    running: Vec<Vec<usize>>,
    /// Queued job ids keyed by `total_key(arrival)`, earliest first.
    queued: BinaryHeap<Reverse<(i64, usize)>>,
}

impl SessionServer {
    /// Stand up a server over a shared batch endpoint.
    pub fn new(endpoint: SimulatedBatchOsn, config: ServerConfig) -> Self {
        let network = endpoint.inner().network_shared();
        SessionServer {
            endpoint,
            network,
            config,
            tenants: Vec::new(),
            stats: Vec::new(),
            cursors: Vec::new(),
            jobs: Vec::new(),
            runnable: BTreeSet::new(),
            running: Vec::new(),
            queued: BinaryHeap::new(),
        }
    }

    /// Register a tenant; returns its index for [`JobSpec::tenant`]. A
    /// weight that is not finite and positive is stored as 1.0.
    pub fn add_tenant(&mut self, name: impl Into<String>, weight: f64) -> usize {
        self.tenants.push(TenantSpec {
            name: name.into(),
            weight: if weight.is_finite() && weight > 0.0 {
                weight
            } else {
                1.0
            },
        });
        self.stats.push(TenantStats::default());
        self.cursors.push(0);
        self.running.push(Vec::new());
        self.tenants.len() - 1
    }

    /// Submit a job; returns its id.
    ///
    /// # Errors
    /// When the spec names an unregistered tenant or a start node outside
    /// the snapshot, or its arrival time is negative or not finite.
    pub fn submit(&mut self, spec: JobSpec) -> Result<usize, String> {
        check_spec(&spec, self.tenants.len(), &self.network)?;
        self.jobs.push(Job {
            spec,
            state: JobState::Queued,
            live: None,
            result: None,
        });
        let id = self.jobs.len() - 1;
        self.index_job(id);
        Ok(id)
    }

    /// The registered tenants, in registration order.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// Accounting for tenant `t`.
    pub fn tenant_stats(&self, t: usize) -> TenantStats {
        self.stats[t]
    }

    /// Lifecycle state of job `id`.
    pub fn job_state(&self, id: usize) -> JobState {
        self.jobs[id].state
    }

    /// The spec job `id` was submitted with.
    pub fn job_spec(&self, id: usize) -> &JobSpec {
        &self.jobs[id].spec
    }

    /// Result of job `id`; `None` until it completes.
    pub fn job_result(&self, id: usize) -> Option<JobResult> {
        self.jobs[id].result
    }

    /// Number of submitted jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// The shared snapshot all jobs sample.
    pub fn network(&self) -> &Arc<AttributedGraph> {
        &self.network
    }

    /// Interface-side accounting of the shared endpoint.
    pub fn endpoint_stats(&self) -> QueryStats {
        self.endpoint.stats()
    }

    /// Remaining shared unique-query budget; `None` means unlimited.
    pub fn remaining_budget(&self) -> Option<u64> {
        self.endpoint.remaining_budget()
    }

    /// Virtual seconds elapsed on the shared endpoint's clock.
    pub fn elapsed_secs(&self) -> f64 {
        self.endpoint.clock().elapsed_secs()
    }

    /// Apply edge mutations to the shared endpoint's delta overlay and
    /// invalidate every live job's walkers: each effective mutation
    /// drops both endpoints from every job's delivered ids and drops the
    /// touched nodes' circulation state, so every job's next visit
    /// re-fetches — and re-charges — the post-mutation neighbor list.
    /// Call between scheduling slices (the endpoint is quiescent there);
    /// the mutation log rides the server snapshot, so a killed
    /// mid-schedule server resumes over the identical mutated graph.
    /// Returns the nodes whose neighbor lists actually changed.
    pub fn apply_mutations(&mut self, ms: &[EdgeMutation]) -> Vec<NodeId> {
        let touched = self.endpoint.apply_mutations(ms);
        if !touched.is_empty() {
            for job in &mut self.jobs {
                if let Some(live) = &mut job.live {
                    live.run.invalidate_nodes(&touched);
                }
            }
        }
        touched
    }

    /// Whether every job has settled (done or refused).
    pub fn done(&self) -> bool {
        self.queued.is_empty() && self.runnable.is_empty()
    }

    /// Tenant `t`'s key in the runnable set.
    fn fair_key(&self, t: usize) -> i64 {
        total_key(self.stats[t].charged as f64 / self.tenants[t].weight)
    }

    /// Enter job `id` in the scheduler index by its state: a queued job by
    /// arrival, a running one in its tenant's list, making the tenant
    /// runnable if it was not.
    fn index_job(&mut self, id: usize) {
        let job = &self.jobs[id];
        let t = job.spec.tenant;
        match job.state {
            JobState::Queued => {
                let key = total_key(job.spec.arrival_secs);
                self.queued.push(Reverse((key, id)));
            }
            JobState::Running => {
                if self.running[t].is_empty() {
                    let key = self.fair_key(t);
                    self.runnable.insert((key, t));
                }
                let at = self.running[t]
                    .binary_search(&id)
                    .expect_err("a job is indexed once");
                self.running[t].insert(at, id);
            }
            JobState::Done | JobState::Refused => {}
        }
    }

    /// Admit every queued job whose arrival time has passed. Jobs arriving
    /// after the shared budget is exhausted are refused; the rest start a
    /// reactor run. Each admission touches only its own job and tenant, so
    /// the order they happen in is not observable.
    fn admit_due(&mut self) {
        let now = self.endpoint.clock().elapsed_secs();
        let exhausted = self.endpoint.remaining_budget() == Some(0);
        while let Some(&Reverse((_, id))) = self.queued.peek() {
            let job = &mut self.jobs[id];
            if job.spec.arrival_secs > now {
                break;
            }
            self.queued.pop();
            if exhausted {
                job.state = JobState::Refused;
                self.stats[job.spec.tenant].jobs_refused += 1;
            } else {
                let run = job
                    .spec
                    .orchestrator()
                    .start_reactor(job.spec.make_walker())
                    .without_traces();
                job.live = Some(Live::new(run, &job.spec, &self.network));
                job.state = JobState::Running;
                self.index_job(id);
            }
        }
    }

    /// Run one scheduling slice. Returns `false` once every job has
    /// settled and no future arrivals remain — the server is done.
    pub fn step(&mut self) -> bool {
        self.admit_due();
        // The runnable tenant with the lowest charged/weight ratio (weighted
        // max-min fair share); ties break toward the lower index.
        let Some(&(key, t)) = self.runnable.first() else {
            // Nothing runnable. If arrivals lie in the future, jump the
            // virtual clock to the next one; otherwise we are done.
            let Some(&Reverse((_, next))) = self.queued.peek() else {
                return false;
            };
            self.endpoint
                .advance_clock_to(self.jobs[next].spec.arrival_secs);
            return true;
        };
        // Of the tenant's running jobs, the one its round-robin cursor
        // points at this slice.
        let running = &mut self.running[t];
        let id = running[(self.cursors[t] % running.len() as u64) as usize];
        self.cursors[t] += 1;

        let before = self.endpoint.stats();
        let job = &mut self.jobs[id];
        let live = job.live.as_mut().expect("running job has a live run");
        let steps_before = live.run.steps_taken();
        live.run.run_events(
            &mut self.endpoint,
            &*live.value,
            self.config.rounds_per_slice,
        );
        let after = self.endpoint.stats();

        let charged = after.unique - before.unique;
        let stats = &mut self.stats[t];
        stats.charged += charged;
        stats.cache_hits += after.cache_hits - before.cache_hits;
        stats.steps += (live.run.steps_taken() - steps_before) as u64;

        if live.run.done() {
            let live = job.live.take().expect("checked above");
            let report = live.run.into_report(&self.endpoint);
            job.result = Some(JobResult {
                estimate: job.spec.estimand.read(&report.estimate),
                steps: report.trace.total_steps(),
                rounds: report.rounds,
            });
            job.state = JobState::Done;
            stats.jobs_completed += 1;
            let at = running
                .binary_search(&id)
                .expect("a running job is in its tenant's list");
            running.remove(at);
        }
        // Only this tenant's key can have moved.
        let still_runnable = !running.is_empty();
        if charged > 0 || !still_runnable {
            self.runnable.remove(&(key, t));
            if still_runnable {
                let key = self.fair_key(t);
                self.runnable.insert((key, t));
            }
        }
        true
    }

    /// Drive scheduling slices until every job settles.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Serialize the whole server — endpoint, tenants, jobs (mid-walk runs
    /// included), scheduler cursors — as one [`Value`].
    ///
    /// # Errors
    /// When the endpoint has requests in flight (cannot happen between
    /// slices; see [`SimulatedBatchOsn::export_state`]).
    pub fn snapshot(&self) -> Result<Value, String> {
        let tenants: Vec<Value> = self
            .tenants
            .iter()
            .zip(&self.stats)
            .map(|(spec, stats)| {
                Value::obj([
                    ("name", Value::Str(spec.name.clone())),
                    ("weight", Value::Num(spec.weight)),
                    ("stats", stats.to_value()),
                ])
            })
            .collect();
        let jobs: Vec<Value> = self
            .jobs
            .iter()
            .map(|job| {
                let mut fields = vec![
                    ("spec", job.spec.to_value()),
                    ("state", Value::Str(job.state.label().into())),
                ];
                if let Some(live) = &job.live {
                    fields.push(("run", live.run.snapshot()));
                }
                if let Some(result) = job.result {
                    fields.push(("result", result.to_value()));
                }
                Value::obj(fields)
            })
            .collect();
        Ok(Value::obj([
            ("kind", Value::Str("session-server".into())),
            ("format", Value::Uint(SNAPSHOT_FORMAT)),
            ("endpoint", self.endpoint.export_state()?),
            ("tenants", Value::Arr(tenants)),
            ("cursors", Value::arr(&self.cursors)),
            ("jobs", Value::Arr(jobs)),
        ]))
    }

    /// Restore a snapshot into a freshly constructed endpoint (same graph
    /// snapshot, [`osn_client::BatchConfig`], and budget shape as the
    /// exporting server's). Every mid-walk job resumes bit-identically.
    ///
    /// # Errors
    /// On a snapshot of another format than [`SNAPSHOT_FORMAT`] or with
    /// none, a malformed snapshot, a tenant weight that is not finite and
    /// positive, a job spec [`SessionServer::submit`] would refuse, a
    /// running job whose walker or fetch queue names a node outside the
    /// graph, or any spec mismatch between the snapshot and the provided
    /// endpoint.
    pub fn resume(
        mut endpoint: SimulatedBatchOsn,
        config: ServerConfig,
        state: &Value,
    ) -> Result<Self, String> {
        let format = state.field("format").map_err(|e| {
            format!(
                "snapshot `format`: {e}; a snapshot without one predates format {SNAPSHOT_FORMAT}"
            )
        })?;
        if format.decode::<u64>().ok() != Some(SNAPSHOT_FORMAT) {
            return Err(format!(
                "snapshot `format` {} is not {SNAPSHOT_FORMAT}, the format this server reads",
                format.to_compact()
            ));
        }
        let kind = state.field("kind")?.as_str()?;
        if kind != "session-server" {
            return Err(format!("expected a session-server snapshot, got `{kind}`"));
        }
        endpoint.import_state(state.field("endpoint")?)?;
        let network = endpoint.inner().network_shared();

        let mut tenants = Vec::new();
        let mut stats = Vec::new();
        for (t, tv) in state.field("tenants")?.as_array()?.iter().enumerate() {
            let name = tv.field("name")?.as_str()?.to_string();
            let weight: f64 = tv.field("weight")?.decode()?;
            if !(weight.is_finite() && weight > 0.0) {
                return Err(format!(
                    "tenant {t} (`{name}`): weight {weight} is not finite and positive"
                ));
            }
            tenants.push(TenantSpec { name, weight });
            stats.push(TenantStats::from_value(tv.field("stats")?)?);
        }
        let cursors = state.field("cursors")?.as_uints()?.into_owned();
        if cursors.len() != tenants.len() {
            return Err(format!(
                "{} cursors for {} tenants",
                cursors.len(),
                tenants.len()
            ));
        }

        let mut jobs = Vec::new();
        for (id, jv) in state.field("jobs")?.as_array()?.iter().enumerate() {
            let spec =
                JobSpec::from_value(jv.field("spec")?).map_err(|e| format!("job {id}: {e}"))?;
            check_spec(&spec, tenants.len(), &network).map_err(|e| format!("job {id}: {e}"))?;
            let job_state = JobState::from_label(jv.field("state")?.as_str()?)
                .map_err(|e| format!("job {id}: {e}"))?;
            let live = match job_state {
                // A run snapshot of any other kind than `reactor` is
                // refused by name.
                JobState::Running => {
                    let run = spec
                        .orchestrator()
                        .resume_reactor(jv.field("run")?, spec.make_walker())
                        .and_then(|run| {
                            run.check_node_ids(network.graph.node_count())?;
                            Ok(run.without_traces())
                        })
                        .map_err(|e| format!("job {id}: {e}"))?;
                    Some(Live::new(run, &spec, &network))
                }
                _ => None,
            };
            let result = match job_state {
                JobState::Done => Some(
                    JobResult::from_value(jv.field("result")?)
                        .map_err(|e| format!("job {id}: {e}"))?,
                ),
                _ => None,
            };
            jobs.push(Job {
                spec,
                state: job_state,
                live,
                result,
            });
        }

        let mut server = SessionServer {
            endpoint,
            network,
            config,
            running: vec![Vec::new(); tenants.len()],
            tenants,
            stats,
            cursors,
            jobs,
            runnable: BTreeSet::new(),
            queued: BinaryHeap::new(),
        };
        for id in 0..server.jobs.len() {
            server.index_job(id);
        }
        Ok(server)
    }
}
