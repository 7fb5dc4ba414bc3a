//! # osn-walks
//!
//! History-aware random walks over online social networks — a Rust
//! implementation of *"Leveraging History for Faster Sampling of Online
//! Social Networks"* (Zhou, Zhang, Das; VLDB 2015).
//!
//! ## The algorithms
//!
//! All walkers implement one object-safe trait, [`RandomWalk`], and can be
//! swapped freely — the paper's "drop-in replacement" property:
//!
//! | Walker | Order | Stationary dist. | Source |
//! |---|---|---|---|
//! | [`Srw`] — simple random walk | 1 | `k_v / 2\|E\|` | baseline |
//! | [`Mhrw`] — Metropolis–Hastings RW | 1 | uniform | baseline \[8\] |
//! | [`NbSrw`] — non-backtracking SRW | 2 | `k_v / 2\|E\|` | baseline \[11\] |
//! | [`Cnrw`] — circulated neighbors RW | high | `k_v / 2\|E\|` | **paper §3** |
//! | [`Gnrw`] — groupby neighbors RW | high | `k_v / 2\|E\|` | **paper §4** |
//! | [`NbCnrw`] — circulated NB walk | high | `k_v / 2\|E\|` | **paper §5** |
//!
//! CNRW replaces the memoryless uniform choice of the next neighbor by
//! sampling **without replacement**, keyed by the incoming directed edge
//! `(u, v)`: the walk circulates through `N(v)` before re-attempting any
//! neighbor. GNRW stratifies `N(v)` into groups (by degree, an attribute, or
//! a hash — see [`grouping`]) and circulates among groups, then within the
//! chosen group. Both provably preserve SRW's stationary distribution while
//! never increasing — and usually decreasing — asymptotic variance.
//!
//! The circulation state lives in one engine ([`circulation`]): an
//! arena-backed partial-Fisher–Yates layout that makes a hot edge's draw
//! exactly `O(1)` and hash-free while keeping the paper's `O(K)` memory
//! bound. The paper's hash-set-per-edge layout survives only as the
//! reference the property tests compare the engine against.
//!
//! GNRW additionally accepts a precomputed [`GroupPlan`] ([`groupplan`]):
//! the per-node neighbor partition is built once per graph+strategy and
//! shared read-only across walkers, group selection becomes an `O(1)`
//! alias-table draw, and RNG output is consumed in batches — removing all
//! per-step hashing, allocation, and partition work from the hot loop (see
//! the `gnrw_throughput` bench).
//!
//! ## Running a walk
//!
//! ```
//! use osn_graph::generators::barbell;
//! use osn_client::SimulatedOsn;
//! use osn_walks::{Cnrw, WalkConfig, WalkSession};
//! use osn_graph::NodeId;
//!
//! let graph = barbell(10, 10).unwrap();
//! let mut client = SimulatedOsn::from_graph(graph);
//! let mut walker = Cnrw::new(NodeId(0));
//! let trace = WalkSession::new(WalkConfig::steps(500).with_seed(7))
//!     .run(&mut walker, &mut client);
//! assert_eq!(trace.len(), 500);
//! ```
//!
//! The [`markov`] module provides exact chain analysis on small graphs
//! (stationary distributions, asymptotic variance via the fundamental
//! matrix) used to validate the walkers against theory.
//!
//! ## Two execution engines
//!
//! Walker fleets run on one of two engines behind [`WalkOrchestrator`]
//! (see [`orchestrator`]): the synchronous **serial core** for any
//! `osn_client::OsnClient` ([`WalkSession`] for one walker,
//! [`WalkOrchestrator::run_serial`] for k), and the poll-driven
//! **reactor** for any `osn_client::BatchOsnClient`
//! ([`WalkOrchestrator::run_reactor`], and the resumable
//! [`ReactorWalkRun`] — see [`reactor`]). Both share one step core,
//! per-walker SplitMix64 RNG streams, budget cut-off and stop bookkeeping,
//! and take a [`RestartPolicy`] — [`Never`] for bit-exact classic runs,
//! [`WorkStealing`] for frontier restarts of stalled walkers driven by the
//! online windowed split-R̂. Every multi-walker run reports one
//! [`OrchestratorReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use osn_graph::fnv;

pub mod circulation;
pub mod frontier;
pub mod grouping;
pub mod groupplan;
pub mod history;
pub mod markov;
pub mod orchestrator;
pub mod reactor;
mod session;
mod walker;
pub mod walkers;

pub use circulation::HistoryBackend;
pub use frontier::{FrontierEntry, FrontierSampler, SharedFrontier};
pub use grouping::{ByAttribute, ByDegree, ByHash, ByNode, GroupingStrategy, ValueBucketing};
pub use groupplan::{AliasTable, DegenerateGrouping, DrawBatch, GroupPlan, NodeGroups};
pub use history::TouchedNodes;
pub use orchestrator::{
    MultiWalkTrace, Never, OrchestratorReport, RestartEvent, RestartPolicy, RestartReason,
    WalkOrchestrator, WorkStealing,
};
pub use reactor::{ReactorStats, ReactorWalkRun, WalkerFsm};
pub use session::{WalkConfig, WalkSession, WalkStop, WalkTrace};
pub use walker::RandomWalk;
pub use walkers::{Cnrw, Gnrw, Mhrw, NbCnrw, NbSrw, NodeCnrw, Srw};
