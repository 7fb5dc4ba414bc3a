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
//! scheduler cursors, as one [`Value`]. [`SessionServer::resume`] restores
//! the lot into a freshly constructed endpoint and continues every job
//! mid-walk bit-identically.

use std::sync::Arc;

use osn_client::{BatchOsnClient, QueryStats, SimulatedBatchOsn};
use osn_graph::attributes::AttributedGraph;
use osn_graph::{EdgeMutation, NodeId};
use osn_serde::Value;
use osn_walks::ReactorWalkRun;

use crate::job::{JobResult, JobSpec, JobState};

/// A registered tenant: a display name and a fair-share weight.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name (reports, snapshots).
    pub name: String,
    /// Fair-share weight; charged queries are allocated proportionally to
    /// it while tenants stay backlogged. Clamped positive at registration.
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

/// One job's full server-side record.
struct Job {
    spec: JobSpec,
    state: JobState,
    /// Boxed: run state is hundreds of bytes, and the job list stays slim.
    run: Option<Box<ReactorWalkRun>>,
    result: Option<JobResult>,
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
        }
    }

    /// Register a tenant; returns its index for [`JobSpec::tenant`].
    pub fn add_tenant(&mut self, name: impl Into<String>, weight: f64) -> usize {
        self.tenants.push(TenantSpec {
            name: name.into(),
            weight: if weight > 0.0 { weight } else { 1.0 },
        });
        self.stats.push(TenantStats::default());
        self.cursors.push(0);
        self.tenants.len() - 1
    }

    /// Submit a job; returns its id.
    ///
    /// # Errors
    /// When the spec names an unregistered tenant or a start node outside
    /// the snapshot.
    pub fn submit(&mut self, spec: JobSpec) -> Result<usize, String> {
        check_spec(&spec, self.tenants.len(), &self.network)?;
        self.jobs.push(Job {
            spec,
            state: JobState::Queued,
            run: None,
            result: None,
        });
        Ok(self.jobs.len() - 1)
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
    /// evicts both endpoints from the dispatcher caches and drops the
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
                if let Some(run) = &mut job.run {
                    run.invalidate_nodes(&touched);
                }
            }
        }
        touched
    }

    /// Whether every job has settled (done or refused).
    pub fn done(&self) -> bool {
        self.jobs
            .iter()
            .all(|j| matches!(j.state, JobState::Done | JobState::Refused))
    }

    /// Admit every queued job whose arrival time has passed, in submission
    /// order. Jobs arriving after the shared budget is exhausted are
    /// refused; the rest start a reactor run.
    fn admit_due(&mut self) {
        let now = self.endpoint.clock().elapsed_secs();
        let exhausted = self.endpoint.remaining_budget() == Some(0);
        for job in &mut self.jobs {
            if job.state != JobState::Queued || job.spec.arrival_secs > now {
                continue;
            }
            if exhausted {
                job.state = JobState::Refused;
                self.stats[job.spec.tenant].jobs_refused += 1;
            } else {
                let orch = job.spec.orchestrator();
                job.run = Some(Box::new(orch.start_reactor(job.spec.make_walker())));
                job.state = JobState::Running;
            }
        }
    }

    /// The runnable tenant with the lowest charged/weight ratio (weighted
    /// max-min fair share); ties break toward the lower index.
    fn pick_tenant(&self) -> Option<usize> {
        (0..self.tenants.len())
            .filter(|&t| {
                self.jobs
                    .iter()
                    .any(|j| j.spec.tenant == t && j.state == JobState::Running)
            })
            .min_by(|&a, &b| {
                let fa = self.stats[a].charged as f64 / self.tenants[a].weight;
                let fb = self.stats[b].charged as f64 / self.tenants[b].weight;
                fa.total_cmp(&fb)
            })
    }

    /// Of tenant `t`'s running jobs, the one its round-robin cursor points
    /// at this slice.
    fn pick_job(&mut self, t: usize) -> usize {
        let running: Vec<usize> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.spec.tenant == t && j.state == JobState::Running)
            .map(|(id, _)| id)
            .collect();
        let id = running[(self.cursors[t] % running.len() as u64) as usize];
        self.cursors[t] += 1;
        id
    }

    /// Run one scheduling slice. Returns `false` once every job has
    /// settled and no future arrivals remain — the server is done.
    pub fn step(&mut self) -> bool {
        self.admit_due();
        let Some(t) = self.pick_tenant() else {
            // Nothing runnable. If arrivals lie in the future, jump the
            // virtual clock to the next one; otherwise we are done.
            let next = self
                .jobs
                .iter()
                .filter(|j| j.state == JobState::Queued)
                .map(|j| j.spec.arrival_secs)
                .min_by(f64::total_cmp);
            let Some(next) = next else {
                return false;
            };
            self.endpoint.advance_clock_to(next);
            return true;
        };
        let id = self.pick_job(t);

        let before = self.endpoint.stats();
        let job = &mut self.jobs[id];
        let run = job.run.as_mut().expect("running job has a live run");
        let steps_before = run.steps_taken();
        let value = job.spec.estimand.value_fn(&self.network);
        run.run_events(&mut self.endpoint, &*value, self.config.rounds_per_slice);
        let after = self.endpoint.stats();

        let stats = &mut self.stats[t];
        stats.charged += after.unique - before.unique;
        stats.cache_hits += after.cache_hits - before.cache_hits;
        stats.steps += (run.steps_taken() - steps_before) as u64;

        if run.done() {
            let run = job.run.take().expect("checked above");
            let report = run.into_report(&self.endpoint);
            job.result = Some(JobResult {
                estimate: job.spec.estimand.read(&report.estimate),
                steps: report.trace.total_steps(),
                rounds: report.rounds,
            });
            job.state = JobState::Done;
            stats.jobs_completed += 1;
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
                if let Some(run) = &job.run {
                    fields.push(("run", run.snapshot()));
                }
                if let Some(result) = job.result {
                    fields.push(("result", result.to_value()));
                }
                Value::obj(fields)
            })
            .collect();
        Ok(Value::obj([
            ("kind", Value::Str("session-server".into())),
            ("endpoint", self.endpoint.export_state()?),
            ("tenants", Value::Arr(tenants)),
            (
                "cursors",
                Value::Arr(self.cursors.iter().map(|&c| Value::Uint(c)).collect()),
            ),
            ("jobs", Value::Arr(jobs)),
        ]))
    }

    /// Restore a snapshot into a freshly constructed endpoint (same graph
    /// snapshot, [`osn_client::BatchConfig`], and budget shape as the
    /// exporting server's). Every mid-walk job resumes bit-identically.
    ///
    /// # Errors
    /// On a malformed snapshot or any spec mismatch between the snapshot
    /// and the provided endpoint.
    pub fn resume(
        mut endpoint: SimulatedBatchOsn,
        config: ServerConfig,
        state: &Value,
    ) -> Result<Self, String> {
        let kind = state.field("kind")?.as_str()?;
        if kind != "session-server" {
            return Err(format!("expected a session-server snapshot, got `{kind}`"));
        }
        endpoint.import_state(state.field("endpoint")?)?;
        let network = endpoint.inner().network_shared();

        let mut tenants = Vec::new();
        let mut stats = Vec::new();
        for tv in state.field("tenants")?.as_array()? {
            tenants.push(TenantSpec {
                name: tv.field("name")?.as_str()?.to_string(),
                weight: tv.field("weight")?.decode()?,
            });
            stats.push(TenantStats::from_value(tv.field("stats")?)?);
        }
        let cursors: Vec<u64> = state
            .field("cursors")?
            .as_array()?
            .iter()
            .map(Value::decode)
            .collect::<Result<_, _>>()?;
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
            let run = match job_state {
                // A run snapshot of any other kind than `reactor` is
                // refused by name.
                JobState::Running => Some(Box::new(
                    spec.orchestrator()
                        .resume_reactor(jv.field("run")?, spec.make_walker())
                        .map_err(|e| format!("job {id}: {e}"))?,
                )),
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
                run,
                result,
            });
        }

        Ok(SessionServer {
            endpoint,
            network,
            config,
            tenants,
            stats,
            cursors,
            jobs,
        })
    }
}
