//! `perf-service`: a batched performance-query server.
//!
//! The paper's case for performance interfaces is that they make
//! performance *queryable*: cheap enough to ask thousands of times per
//! second, precise enough to act on. This crate is the serving layer
//! that cashes that check — a long-running, multi-threaded server that
//! accepts batches of workload specs and answers predicted latency or
//! throughput for any accelerator in the workspace, from whichever
//! interface representation the request's deadline affords.
//!
//! The moving parts:
//!
//! * [`protocol`] — wire types: requests (accelerator, workload spec,
//!   metric, representation ceiling, deadline) and responses tagged
//!   with the representation actually used and its conformance budget;
//! * [`json`] — the minimal hand-rolled JSON reader behind the line
//!   protocol (the workspace carries no serialization crates);
//! * [`registry`] — per-accelerator backend constructors
//!   ([`perf_core::query::QueryBackend`] implementations live in the
//!   `accel-*` crates);
//! * [`server`] — admission that answers cache hits on the caller's
//!   thread, the bounded queue, worker pool, exact request-keyed
//!   result cache, and the Petri-net → program → NL degradation
//!   ladder;
//! * [`metrics`] — counters and latency percentiles, exportable as
//!   JSON or into a [`perf_core::trace::TraceSink`];
//! * [`line`](mod@line) — the line-delimited stdio/TCP front end used by
//!   `repro --serve`.
//!
//! Degraded answers stay honest: every response carries the error
//! budget of the representation that produced it, so a client that
//! got an NL interval instead of a Petri-net point knows exactly how
//! much slack it must tolerate.

#![deny(missing_docs)]

pub mod json;
pub mod line;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod svcbench;

pub use metrics::{MetricsSnapshot, ReprStats, ServiceMetrics};
pub use protocol::{Outcome, ReprChoice, Request, Response};
pub use server::{Service, ServiceConfig};
