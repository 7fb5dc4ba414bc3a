//! # osn-client
//!
//! A faithful simulation of the **restricted access model** of online social
//! networks (paper §2.1): the only operations available to a third party are
//!
//! * `neighbors(u)` — the full neighbor list of a user, and
//! * `attribute(u, name)` — the user's profile attributes,
//!
//! plus the two cost rules the paper's evaluation depends on (§2.3):
//!
//! * **query cost counts unique queries only** — a repeated query for the
//!   same node is served from a local cache and costs nothing;
//! * real platforms impose **query-rate limits** (e.g. Twitter's 15 calls per
//!   15 minutes), simulated here over a virtual clock so experiments can
//!   report wall-clock-equivalent sampling times without waiting.
//!
//! The central trait is [`OsnClient`]; [`SimulatedOsn`] implements it over an
//! in-memory [`osn_graph::attributes::AttributedGraph`]. [`BudgetedClient`]
//! decorates any client with a hard unique-query budget, and
//! [`RateLimitedOsn`] adds the rate-limit simulation. The paper runs its
//! algorithms "over the simulated interface" of downloaded snapshots —
//! exactly what this crate provides.
//!
//! For **batched I/O** — real platforms expose batch endpoints with bounded
//! in-flight windows and transient failures — [`BatchOsnClient`] models the
//! submit/poll interaction and [`SimulatedBatchOsn`] simulates it over the
//! same cache/budget/rate-limit machinery (latency + seeded jitter,
//! deterministic drop-every-`k`-th failure injection, bounded retry, budget
//! charged at most once per unique node) — see [`batch`]. Both rate limits
//! follow one token-bucket rule: [`RateLimitedOsn`] charges a token per
//! unique query, the batch endpoint one per request attempt. Walker fleets of
//! any size share one batch endpoint through the `osn-walks` reactor, which
//! parks each walker on the in-flight batch carrying its next neighbor list
//! and reads delivered lists back through the endpoint's free
//! [`BatchOsnClient::delivered`], so each list is held once, by the
//! endpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod budget;
mod client;
pub mod rate;
mod stats;

pub use batch::{
    BatchConfig, BatchLimits, BatchNodeError, BatchOsnClient, BatchOutcome, BatchStats,
    SimulatedBatchOsn, SubmitError, TicketId,
};
pub use budget::{BudgetExhausted, BudgetedClient};
pub use client::{OsnClient, SimulatedOsn};
pub use rate::{RateLimitConfig, RateLimitedOsn, VirtualClock};
pub use stats::QueryStats;
