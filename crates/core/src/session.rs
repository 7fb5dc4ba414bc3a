//! The walk driver: runs any walker against any client, recording the trace.
//!
//! The step loop itself is the serial core of [`crate::orchestrator`] —
//! [`WalkSession`] is its single-walker entry point with the classic
//! raw-seed RNG construction, so every historical trace replays
//! bit-identically.

use osn_client::{OsnClient, QueryStats};
use osn_graph::NodeId;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::orchestrator::{drive_round_robin, Never};
use crate::walker::RandomWalk;

/// Configuration of a single walk run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkConfig {
    /// Maximum number of transitions to perform. A hard cap: budget-limited
    /// walks also stop early when the client refuses further queries.
    pub max_steps: usize,
    /// RNG seed; every run is fully deterministic given the seed.
    pub seed: u64,
}

impl WalkConfig {
    /// Run for exactly `max_steps` transitions (unless the budget stops the
    /// walk sooner), seed 0.
    pub fn steps(max_steps: usize) -> Self {
        WalkConfig { max_steps, seed: 0 }
    }

    /// Set the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Why a walk ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkStop {
    /// The configured step cap was reached.
    MaxSteps,
    /// The client's unique-query budget ran out (the normal ending for the
    /// paper's budget-sweep experiments).
    BudgetExhausted,
}

/// The recorded outcome of one walk.
#[derive(Clone, Debug)]
pub struct WalkTrace {
    /// The start node (not included in [`nodes`](Self::nodes)).
    pub start: NodeId,
    /// One entry per performed transition: the node arrived at.
    nodes: Vec<NodeId>,
    /// Why the walk stopped.
    pub stop: WalkStop,
    /// Client accounting at the end of the walk.
    pub stats: QueryStats,
}

impl WalkTrace {
    /// Assemble a trace from an external driver's parts — used by the
    /// batched path of `osn-experiments::TrialPlan`, whose walks run on the
    /// reactor rather than a [`WalkSession`].
    pub fn from_parts(
        start: NodeId,
        nodes: Vec<NodeId>,
        stop: WalkStop,
        stats: QueryStats,
    ) -> Self {
        WalkTrace {
            start,
            nodes,
            stop,
            stats,
        }
    }

    /// Number of transitions performed.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the walk performed no transitions.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The step sequence, one node per transition.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

/// Runs walks according to a [`WalkConfig`].
///
/// The session owns the RNG construction so that *identical configurations
/// replay identical walks* — the reproducibility contract every experiment
/// in `osn-experiments` relies on.
#[derive(Clone, Debug)]
pub struct WalkSession {
    config: WalkConfig,
}

impl WalkSession {
    /// New session with the given configuration.
    pub fn new(config: WalkConfig) -> Self {
        WalkSession { config }
    }

    /// The configuration.
    pub fn config(&self) -> &WalkConfig {
        &self.config
    }

    /// Run `walker` against `client` until the step cap or the query budget
    /// is hit, whichever comes first.
    pub fn run<C: OsnClient>(&self, walker: &mut dyn RandomWalk, client: &mut C) -> WalkTrace {
        let start = walker.current();
        // The session's historical contract: the RNG is seeded directly
        // from the config (not a derived stream).
        let mut rngs = [ChaCha12Rng::seed_from_u64(self.config.seed)];
        let mut walkers: [&mut dyn RandomWalk; 1] = [walker];
        let outcome = drive_round_robin(
            client,
            &mut walkers,
            &mut rngs,
            self.config.max_steps,
            None::<&fn(NodeId) -> f64>,
            &Never,
        );
        let cell = outcome.cells.into_iter().next().expect("one walker");
        WalkTrace {
            start,
            nodes: cell.trace.expect("the serial core records a trace"),
            stop: cell.stop.unwrap_or(WalkStop::MaxSteps),
            stats: client.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walkers::Srw;
    use osn_client::{BudgetedClient, SimulatedOsn};
    use osn_graph::generators::barbell;

    fn client() -> SimulatedOsn {
        SimulatedOsn::from_graph(barbell(6, 6).unwrap())
    }

    #[test]
    fn runs_exact_step_count() {
        let mut c = client();
        let mut w = Srw::new(NodeId(0));
        let trace = WalkSession::new(WalkConfig::steps(100)).run(&mut w, &mut c);
        assert_eq!(trace.len(), 100);
        assert_eq!(trace.stop, WalkStop::MaxSteps);
        assert_eq!(trace.start, NodeId(0));
        assert!(!trace.is_empty());
    }

    #[test]
    fn budget_stops_walk() {
        let inner = client();
        let n = inner.graph().node_count();
        let mut c = BudgetedClient::new(inner, 5, n);
        let mut w = Srw::new(NodeId(0));
        let trace = WalkSession::new(WalkConfig::steps(10_000).with_seed(1)).run(&mut w, &mut c);
        assert_eq!(trace.stop, WalkStop::BudgetExhausted);
        // With budget 5, at most a handful of distinct nodes were visited,
        // but revisits are free so the trace can be longer than 5.
        assert!(trace.len() < 10_000);
        assert!(trace.stats.unique <= 5);
    }

    #[test]
    fn identical_seeds_replay_identical_walks() {
        let run = |seed| {
            let mut c = client();
            let mut w = Srw::new(NodeId(3));
            WalkSession::new(WalkConfig::steps(200).with_seed(seed))
                .run(&mut w, &mut c)
                .nodes()
                .to_vec()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
