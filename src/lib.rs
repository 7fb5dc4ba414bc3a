//! # osn-sampling
//!
//! A production-quality Rust implementation of **history-aware random walk
//! sampling of online social networks**, reproducing *"Leveraging History
//! for Faster Sampling of Online Social Networks"* (Zhuojie Zhou, Nan Zhang,
//! Gautam Das — VLDB 2015, arXiv:1505.00079).
//!
//! The headline algorithms are **CNRW** (Circulated Neighbors Random Walk)
//! and **GNRW** (GroupBy Neighbors Random Walk): drop-in replacements for
//! the simple random walk that sample each node's neighbors *without
//! replacement* (per incoming edge), provably keeping the SRW stationary
//! distribution `k_v / 2|E|` while reducing asymptotic variance — i.e. fewer
//! rate-limited API queries per unit of estimation accuracy.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`graph`] (`osn-graph`) — CSR graph substrate, generators, analysis;
//! * [`serde`] (`osn-serde`) — the dependency-free JSON [`serde::Value`]
//!   tree with bit-exact float round-trips (the snapshot wire format);
//! * [`client`] (`osn-client`) — the simulated restricted OSN interface
//!   with unique-query accounting and rate-limit simulation;
//! * [`walks`] (`osn-walks`) — SRW, MHRW, NB-SRW, **CNRW**, **GNRW**,
//!   NB-CNRW, plus exact Markov-chain analysis;
//! * [`estimate`] (`osn-estimate`) — reweighted aggregate estimators, bias
//!   metrics, variance estimation, convergence diagnostics;
//! * [`datasets`] (`osn-datasets`) — calibrated stand-ins for the paper's
//!   evaluation datasets;
//! * [`service`] (`osn-service`) — sampling as a service: the multi-tenant
//!   [`service::SessionServer`] with weighted fair-share budget scheduling,
//!   whole-server snapshot/resume, and seeded traffic generation;
//! * [`experiments`] (`osn-experiments`) — the harness regenerating every
//!   table and figure of the paper's evaluation, plus the service figure.
//!
//! Beyond the paper, the workspace scales to **multi-walker sampling**
//! on two engines behind [`walks::WalkOrchestrator`]. The synchronous
//! serial core drives any [`client::OsnClient`] round-robin; the
//! poll-driven reactor drives 10k+ walkers against a **batch endpoint** —
//! real OSN APIs expose bounded in-flight windows and transient failures,
//! which [`client::SimulatedBatchOsn`] models (latency/jitter,
//! deterministic failure injection, bounded retry, budget charged once per
//! unique node) — parking each walker on the in-flight batch that carries
//! its next neighbor list, with per-walker traces bit-identical to the
//! serial core. Both engines share the step loop, the per-walker RNG
//! streams, and the stop bookkeeping, parameterized by a
//! [`walks::RestartPolicy`] — [`walks::Never`] replays the classic runs
//! bit-identically, while [`walks::WorkStealing`] restarts stalled or
//! budget-refused walkers from a lock-striped [`walks::SharedFrontier`] of
//! territory other walkers discovered, triggered by an online windowed
//! split-R̂ ([`estimate::WindowedSplitRhat`]). On top sits the **service
//! layer**: [`service::SessionServer`] multiplexes many tenants' jobs over
//! one shared endpoint under deterministic weighted fair-share scheduling,
//! runs each job as a resumable [`walks::ReactorWalkRun`], and
//! snapshots/resumes the entire mid-flight server byte-identically through
//! [`serde::Value`]. See `ARCHITECTURE.md` for the paper-concept → code
//! map, the two-engine table, and the service layer's scheduler and
//! snapshot format.
//!
//! ## Quickstart
//!
//! ```
//! use osn_sampling::prelude::*;
//!
//! // A small social graph behind a restricted interface.
//! let network = osn_sampling::datasets::facebook_like(Scale::Test, 7).network;
//! let truth = network.graph.average_degree();
//! let n = network.graph.node_count();
//!
//! // Budget: 150 unique queries, as a third party would be limited.
//! let client = SimulatedOsn::new(network);
//! let mut client = BudgetedClient::new(client, 150, n);
//!
//! // CNRW is a drop-in replacement for SRW: same stationary distribution,
//! // faster convergence.
//! let mut walker = Cnrw::new(NodeId(0));
//! let trace = WalkSession::new(WalkConfig::steps(100_000).with_seed(1))
//!     .run(&mut walker, &mut client);
//!
//! // Correct the degree-proportional sampling bias while estimating.
//! let mut est = RatioEstimator::new();
//! for &v in trace.nodes() {
//!     let k = client.peek_degree(v);
//!     est.push(k as f64, k);
//! }
//! let estimate = est.average_degree().unwrap();
//! assert!((estimate - truth).abs() / truth < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use osn_client as client;
pub use osn_datasets as datasets;
pub use osn_estimate as estimate;
pub use osn_experiments as experiments;
pub use osn_graph as graph;
pub use osn_serde as serde;
pub use osn_service as service;
pub use osn_walks as walks;

/// The most common imports in one place.
pub mod prelude {
    pub use osn_client::{
        BatchConfig, BatchOsnClient, BudgetedClient, OsnClient, RateLimitConfig, RateLimitedOsn,
        SimulatedBatchOsn, SimulatedOsn,
    };
    pub use osn_datasets::{Dataset, Scale};
    pub use osn_estimate::{DeltaCorrectedEstimator, RatioEstimator, UniformMeanEstimator};
    pub use osn_graph::{
        AdjacencyRead, AdjacencySnapshot, CompactBuilder, CompactCsr, CsrGraph, DecodeCache,
        DeltaOverlay, DirectedCsr, EdgeMutation, GraphBuilder, MutationOp, MutationSchedule,
        NodeId, ScheduleSpec,
    };
    pub use osn_serde::Value;
    pub use osn_service::{
        Estimand, JobResult, JobSpec, JobState, ServerConfig, SessionServer, TenantSpec,
        TenantStats, TrafficConfig,
    };
    pub use osn_walks::{
        ByAttribute, ByDegree, ByHash, Cnrw, FrontierSampler, Gnrw, GroupPlan, HistoryBackend,
        Mhrw, NbCnrw, NbSrw, Never, NodeCnrw, OrchestratorReport, RandomWalk, ReactorStats,
        ReactorWalkRun, RestartEvent, RestartPolicy, RestartReason, SharedFrontier, Srw,
        TouchedNodes, WalkConfig, WalkOrchestrator, WalkSession, WalkerFsm, WorkStealing,
    };
}

// Keep the README honest: compile and run its `rust` code blocks (the
// quickstart included) as doctests of this crate, so the snippet cannot rot
// apart from the library. `cargo test --doc` exercises this; the CI `docs`
// job gates on it.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
