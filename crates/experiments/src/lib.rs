//! # osn-experiments
//!
//! The experiment harness regenerating **every table and figure** of the
//! paper's evaluation (§6). Each `figN` module exposes a config struct (with
//! paper-faithful defaults and a `quick()` profile for CI) and a `run`
//! function returning an [`output::ExperimentResult`] that renders as a
//! markdown table, CSV, or JSON.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — dataset summary statistics |
//! | [`fig6`] | Figure 6 — Google Plus: avg-degree relative error vs query cost, 5 algorithms |
//! | [`fig6_batch`] | Figure 6, batched variant — reactor fleet with coalesced batch requests vs independent walkers |
//! | [`fig6_steal`] | Figure 6, work-stealing variant — frontier restarts vs never, NRMSE at fixed budget |
//! | [`fig7`] | Figure 7 — Facebook KL / ℓ2 / error vs cost; Youtube error vs cost |
//! | [`fig8`] | Figure 8 — sampling distribution vs theoretical, nodes ordered by degree |
//! | [`fig9`] | Figure 9 — Yelp: GNRW grouping strategies per aggregate |
//! | [`fig10`] | Figure 10 — clustered graph: KL / ℓ2 / error vs cost |
//! | [`fig11`] | Figure 11 — barbell sweep: KL / ℓ2 / error vs graph size |
//! | [`theorem3`] | Theorem 3 — barbell escape: hitting times and bound |
//! | [`ablation`] | §3.2 ablation — edge-keyed vs node-keyed circulation |
//! | [`fig_service`] | Service extension — multi-tenant fair-share scheduling vs sequential at one shared budget |
//! | [`fig_reactor`] | Reactor extension — fleet size vs throughput/memory on the poll-driven backend, with an event-granularity mixing probe |
//! | [`fig_evolving`] | Evolving-graph extension — delta-corrected continuation vs restart-from-scratch on a mutating network |
//! | [`fig_scale`] | Web-scale extension — walker throughput and resident bytes, compact vs plain substrate, as the stand-in grows |
//!
//! All runs are seeded and deterministic, including under parallelism:
//! trial seeds are derived, not scheduler-dependent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod algorithms;
pub mod fig10;
pub mod fig11;
pub mod fig6;
pub mod fig6_batch;
pub mod fig6_steal;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fig_evolving;
pub mod fig_reactor;
pub mod fig_scale;
pub mod fig_service;
pub mod output;
pub mod runner;
pub mod sweeps;
pub mod table1;
pub mod theorem3;

pub use algorithms::Algorithm;
pub use output::{ExperimentResult, Series};
pub use runner::{parallel_map, trial_seed, Deadline, TrialPlan};
