//! Job descriptions: what one tenant asks the server to estimate, and how.
//!
//! A [`JobSpec`] is pure data — algorithm, estimand, fleet shape, seed,
//! arrival time — so it serializes losslessly into a server snapshot and
//! reconstructs the exact same [`osn_walks::WalkOrchestrator`] run on
//! resume. The running state of an admitted job lives in an
//! [`osn_walks::ReactorWalkRun`], which carries its own snapshot format.

use std::sync::Arc;

use osn_estimate::RatioEstimator;
use osn_graph::attributes::AttributedGraph;
use osn_graph::{CsrGraph, NodeId};
use osn_serde::Value;
use osn_walks::{
    Cnrw, Gnrw, Grouping, HistoryBackend, Mhrw, NbCnrw, NbSrw, NodeCnrw, RandomWalk, Srw,
    WalkOrchestrator,
};

/// The walk algorithm a job runs — the serializable counterpart of the
/// `RandomWalk` implementors in `osn-walks`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Simple random walk.
    Srw,
    /// Metropolis-Hastings random walk.
    Mhrw,
    /// Non-backtracking simple random walk.
    NbSrw,
    /// Circulated neighbors random walk (per-edge circulation).
    Cnrw,
    /// Node-level CNRW variant (per-node circulation).
    NodeCnrw,
    /// Non-backtracking CNRW.
    NbCnrw,
    /// GroupBy neighbors random walk, grouped by log2 degree.
    GnrwByDegree,
}

impl Algorithm {
    /// Every algorithm, in label order — the traffic generator cycles
    /// through these to mix job shapes.
    pub const ALL: [Algorithm; 7] = [
        Algorithm::Srw,
        Algorithm::Mhrw,
        Algorithm::NbSrw,
        Algorithm::Cnrw,
        Algorithm::NodeCnrw,
        Algorithm::NbCnrw,
        Algorithm::GnrwByDegree,
    ];

    /// Stable lowercase label used in snapshots and reports.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Srw => "srw",
            Algorithm::Mhrw => "mhrw",
            Algorithm::NbSrw => "nb-srw",
            Algorithm::Cnrw => "cnrw",
            Algorithm::NodeCnrw => "node-cnrw",
            Algorithm::NbCnrw => "nb-cnrw",
            Algorithm::GnrwByDegree => "gnrw-by-degree",
        }
    }

    /// Parse a [`Self::label`] back.
    ///
    /// # Errors
    /// On an unknown label.
    pub fn from_label(label: &str) -> Result<Self, String> {
        Algorithm::ALL
            .into_iter()
            .find(|a| a.label() == label)
            .ok_or_else(|| format!("unknown algorithm `{label}`"))
    }

    /// Instantiate a walker at `start`.
    pub fn make(self, start: NodeId) -> Box<dyn RandomWalk + Send> {
        match self {
            Algorithm::Srw => Box::new(Srw::new(start)),
            Algorithm::Mhrw => Box::new(Mhrw::new(start)),
            Algorithm::NbSrw => Box::new(NbSrw::new(start)),
            Algorithm::Cnrw => Box::new(Cnrw::new(start)),
            Algorithm::NodeCnrw => Box::new(NodeCnrw::new(start)),
            Algorithm::NbCnrw => Box::new(NbCnrw::new(start)),
            Algorithm::GnrwByDegree => Box::new(Gnrw::new(start, Grouping::degree_log2())),
        }
    }
}

/// What a job estimates from its walk samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Estimand {
    /// The network's average degree (the paper's headline aggregate),
    /// read as `count / Σ 1/k` from the ratio estimator.
    AverageDegree,
    /// The population mean of the node index — a synthetic target whose
    /// ground truth `(n-1)/2` is exact, handy for NRMSE sweeps.
    MeanNodeIndex,
}

impl Estimand {
    /// Stable lowercase label used in snapshots and reports.
    pub fn label(self) -> &'static str {
        match self {
            Estimand::AverageDegree => "average-degree",
            Estimand::MeanNodeIndex => "mean-node-index",
        }
    }

    /// Parse a [`Self::label`] back.
    ///
    /// # Errors
    /// On an unknown label.
    pub fn from_label(label: &str) -> Result<Self, String> {
        match label {
            "average-degree" => Ok(Estimand::AverageDegree),
            "mean-node-index" => Ok(Estimand::MeanNodeIndex),
            other => Err(format!("unknown estimand `{other}`")),
        }
    }

    /// The per-node value function the orchestrator samples. Captures a
    /// shared handle to the snapshot, so the server can lend its endpoint
    /// mutably while jobs evaluate node values.
    pub fn value_fn(self, network: &Arc<AttributedGraph>) -> Box<dyn Fn(NodeId) -> f64 + Send> {
        let g = Arc::clone(network);
        match self {
            Estimand::AverageDegree => Box::new(move |v| g.graph.degree(v) as f64),
            Estimand::MeanNodeIndex => Box::new(move |v| v.index() as f64),
        }
    }

    /// Read the final estimate off a job's merged ratio estimator.
    pub fn read(self, estimate: &RatioEstimator) -> Option<f64> {
        match self {
            Estimand::AverageDegree => estimate.average_degree(),
            Estimand::MeanNodeIndex => estimate.mean(),
        }
    }

    /// Ground truth over the full snapshot (the quantity a third party
    /// cannot see; experiments use it to score estimates).
    pub fn truth(self, graph: &CsrGraph) -> f64 {
        match self {
            Estimand::AverageDegree => graph.average_degree(),
            Estimand::MeanNodeIndex => (graph.node_count().saturating_sub(1)) as f64 / 2.0,
        }
    }
}

/// One tenant's request: run `walkers` seeded walkers of `algorithm` for up
/// to `max_steps` steps each and report the `estimand`.
///
/// Specs are pure data. The server derives the whole execution — the
/// [`WalkOrchestrator`], the per-walker RNG streams, the walker fleet —
/// from the spec, so persisting the spec (plus the run snapshot) is enough
/// to restore a killed server's jobs bit-identically.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Index of the owning tenant (from `SessionServer::add_tenant`).
    pub tenant: usize,
    /// The walk algorithm.
    pub algorithm: Algorithm,
    /// What to estimate.
    pub estimand: Estimand,
    /// Fleet size (clamped to at least 1).
    pub walkers: usize,
    /// Step cap per walker.
    pub max_steps: usize,
    /// Seed of the job's RNG streams (walker `i` draws from a
    /// SplitMix64-derived substream, as everywhere in the workspace).
    pub seed: u64,
    /// Start node of every walker in the fleet.
    pub start: NodeId,
    /// Virtual-clock time at which the job becomes admissible, in seconds.
    /// The server refuses a spec whose arrival is negative or not finite.
    pub arrival_secs: f64,
}

impl JobSpec {
    /// A job with library defaults: 2 walkers, 400 steps each, seed 0,
    /// average-degree estimand, admissible immediately.
    pub fn new(tenant: usize, algorithm: Algorithm, start: NodeId) -> Self {
        JobSpec {
            tenant,
            algorithm,
            estimand: Estimand::AverageDegree,
            walkers: 2,
            max_steps: 400,
            seed: 0,
            start,
            arrival_secs: 0.0,
        }
    }

    /// Set the fleet size (clamped to at least 1).
    #[must_use]
    pub fn with_walkers(mut self, walkers: usize) -> Self {
        self.walkers = walkers.max(1);
        self
    }

    /// Set the per-walker step cap.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Seed the job's RNG streams.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set what the job estimates.
    #[must_use]
    pub fn with_estimand(mut self, estimand: Estimand) -> Self {
        self.estimand = estimand;
        self
    }

    /// Set the virtual arrival time.
    #[must_use]
    pub fn with_arrival(mut self, secs: f64) -> Self {
        self.arrival_secs = secs.max(0.0);
        self
    }

    /// The orchestrator this spec compiles to.
    pub(crate) fn orchestrator(&self) -> WalkOrchestrator {
        WalkOrchestrator::new(self.walkers, self.max_steps, self.seed)
    }

    /// The fleet factory this spec compiles to.
    pub(crate) fn make_walker(
        &self,
    ) -> impl Fn(usize, HistoryBackend) -> Box<dyn RandomWalk + Send> {
        let algorithm = self.algorithm;
        let start = self.start;
        move |_, _| algorithm.make(start)
    }

    pub(crate) fn to_value(&self) -> Value {
        Value::obj([
            ("tenant", Value::Uint(self.tenant as u64)),
            ("algorithm", Value::Str(self.algorithm.label().into())),
            ("estimand", Value::Str(self.estimand.label().into())),
            ("walkers", Value::Uint(self.walkers as u64)),
            ("max_steps", Value::Uint(self.max_steps as u64)),
            ("seed", Value::Uint(self.seed)),
            ("start", Value::Uint(u64::from(self.start.0))),
            ("arrival_secs", Value::Num(self.arrival_secs)),
        ])
    }

    pub(crate) fn from_value(value: &Value) -> Result<Self, String> {
        Ok(JobSpec {
            tenant: value.field("tenant")?.decode()?,
            algorithm: Algorithm::from_label(value.field("algorithm")?.as_str()?)?,
            estimand: Estimand::from_label(value.field("estimand")?.as_str()?)?,
            walkers: value.field("walkers")?.decode()?,
            max_steps: value.field("max_steps")?.decode()?,
            seed: value.field("seed")?.decode()?,
            start: NodeId(value.field("start")?.decode()?),
            arrival_secs: value.field("arrival_secs")?.decode()?,
        })
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Submitted; its virtual arrival time has not been reached or no
    /// scheduling slice has admitted it yet.
    Queued,
    /// Admitted: a live [`osn_walks::ReactorWalkRun`] advances in
    /// scheduler-granted slices of completion events.
    Running,
    /// Every walker stopped (step cap or budget); the result is final.
    Done,
    /// Refused at admission because the shared unique-query budget was
    /// already exhausted.
    Refused,
}

impl JobState {
    /// Stable lowercase label used in snapshots and reports.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Refused => "refused",
        }
    }

    pub(crate) fn from_label(label: &str) -> Result<Self, String> {
        match label {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "refused" => Ok(JobState::Refused),
            other => Err(format!("unknown job state `{other}`")),
        }
    }
}

/// The final outcome of a completed job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobResult {
    /// The estimate, read per the job's [`Estimand`]; `None` when the walk
    /// recorded no usable sample (e.g. refused before its first step).
    pub estimate: Option<f64>,
    /// Steps performed across the fleet.
    pub steps: usize,
    /// Reactor completion events the run consumed.
    pub rounds: usize,
}

impl JobResult {
    pub(crate) fn to_value(self) -> Value {
        Value::obj([
            (
                "estimate",
                match self.estimate {
                    Some(e) => Value::Num(e),
                    None => Value::Null,
                },
            ),
            ("steps", Value::Uint(self.steps as u64)),
            ("rounds", Value::Uint(self.rounds as u64)),
        ])
    }

    pub(crate) fn from_value(value: &Value) -> Result<Self, String> {
        Ok(JobResult {
            estimate: match value.field("estimate")? {
                Value::Null => None,
                other => Some(other.decode()?),
            },
            steps: value.field("steps")?.decode()?,
            rounds: value.field("rounds")?.decode()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_labels_round_trip() {
        for a in Algorithm::ALL {
            assert_eq!(Algorithm::from_label(a.label()).unwrap(), a);
        }
        assert!(Algorithm::from_label("bogus").is_err());
    }

    #[test]
    fn estimand_labels_round_trip() {
        for e in [Estimand::AverageDegree, Estimand::MeanNodeIndex] {
            assert_eq!(Estimand::from_label(e.label()).unwrap(), e);
        }
        assert!(Estimand::from_label("bogus").is_err());
    }

    #[test]
    fn job_spec_round_trips() {
        let spec = JobSpec::new(3, Algorithm::GnrwByDegree, NodeId(17))
            .with_walkers(4)
            .with_max_steps(512)
            .with_seed(99)
            .with_estimand(Estimand::MeanNodeIndex)
            .with_arrival(12.5);
        let back = JobSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back.tenant, 3);
        assert_eq!(back.algorithm, Algorithm::GnrwByDegree);
        assert_eq!(back.estimand, Estimand::MeanNodeIndex);
        assert_eq!(back.walkers, 4);
        assert_eq!(back.max_steps, 512);
        assert_eq!(back.seed, 99);
        assert_eq!(back.start, NodeId(17));
        assert_eq!(back.arrival_secs.to_bits(), 12.5f64.to_bits());
    }

    #[test]
    fn every_algorithm_instantiates() {
        for a in Algorithm::ALL {
            let w = a.make(NodeId(0));
            assert_eq!(w.current(), NodeId(0));
        }
    }
}
