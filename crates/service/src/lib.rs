//! # osn-service
//!
//! Sampling-as-a-service: a multi-tenant job server multiplexing many
//! estimation jobs over one shared, rate-limited OSN interface.
//!
//! A [`SessionServer`] owns a single [`osn_client::SimulatedBatchOsn`]
//! (cache, unique-query budget, token-bucket rate limit, virtual clock) and
//! runs many concurrent **jobs**, each a sliced, resumable reactor run
//! ([`osn_walks::ReactorWalkRun`]) with its own walker fleet,
//! [`Algorithm`], [`Estimand`], and seed. A weighted fair-share scheduler
//! allocates the shared budget: every scheduling slice goes to the tenant
//! with the lowest charged-queries-to-weight ratio, so while tenants stay
//! backlogged their charged shares track their weights.
//!
//! Three properties define the design:
//!
//! * **Determinism** — tenant choice, job rotation, walker randomness, and
//!   endpoint failures are all pure functions of specs and seeds; a server
//!   run replays bit-identically.
//! * **Snapshot/resume** — [`SessionServer::snapshot`] serializes endpoint,
//!   tenants, scheduler cursors, and every mid-walk job through `osn-serde`;
//!   [`SessionServer::resume`] restores a killed server and every job
//!   continues bit-identically (pinned by this crate's property tests).
//! * **Shared-cache synergy** — all jobs ride one endpoint cache, so one
//!   tenant's paid fetches become other tenants' free cache hits; at a
//!   fixed shared budget the fleet beats the same jobs run sequentially.
//!
//! The [`traffic`] module generates seeded multi-tenant workloads (weighted
//! tenants, exponential arrivals, mixed job shapes) for soak tests and the
//! `fig_service` experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod job;
mod server;
pub mod traffic;

pub use job::{Algorithm, Estimand, JobResult, JobSpec, JobState};
pub use server::{ServerConfig, SessionServer, TenantSpec, TenantStats, SNAPSHOT_FORMAT};
pub use traffic::TrafficConfig;
