//! Multi-tenant payment serving for truthful unicast: per-AP engine
//! shards, epoch-swapped pricing snapshots, anycast settlement, and a
//! deterministic load harness.
//!
//! The crates below this one answer "what does a session cost?" —
//! [`truthcast_core`]'s engines price one epoch, one AP, one caller at
//! a time. This crate answers the production question the roadmap's
//! north star actually poses: *many* access points, *millions* of
//! sessions, mobility epochs rolling underneath, and a front-end that
//! must never stop quoting prices while tables re-warm. The moving
//! parts:
//!
//! - [`shard::Shard`] — one per AP: a warm
//!   [`IncrementalEngine`](truthcast_core::delta::IncrementalEngine)
//!   plus a bounded admission queue. Epoch churn (including node
//!   join/leave, surfaced as
//!   [`EpochOutcome::ColdResize`](truthcast_core::delta::EpochOutcome))
//!   is reported per shard, never hidden.
//! - [`epoch::EpochCell`] — the read-copy-update publication point:
//!   each epoch publishes one immutable [`epoch::ServiceSnapshot`] (k
//!   [`epoch::ApSnapshot`]s, one generation); a swap is one pointer
//!   exchange; stale readers drain on their own schedule.
//! - [`service::PaymentService`] — the anycast batch front-end: each
//!   source prices against every AP table of one snapshot and settles at
//!   the cheapest (ties to the lowest AP index), bit-identically at any
//!   thread count.
//! - [`loadgen`] — the seeded open/closed-loop generator that drives
//!   million-session runs and reports exact p50/p95/p99 latency.
//!
//! The concurrency design, backpressure semantics, and determinism
//! argument are laid out in `DESIGN.md` §14.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
pub mod loadgen;
pub mod service;
pub mod shard;

pub use epoch::{ApCell, ApSnapshot, EpochCell, ServiceSnapshot};
pub use loadgen::{run_load, ArrivalMode, LoadConfig, LoadReport};
pub use service::{PaymentService, ServeOutcome, ServiceConfig, Settlement};
pub use shard::Shard;
