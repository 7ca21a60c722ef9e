//! Config-driven composition of accelerator performance models into
//! SoC pipelines.
//!
//! The paper's pitch is that performance interfaces *compose*: if each
//! accelerator ships a formal summary of its performance, the
//! performance of a system built from them should follow from the
//! summaries plus the interconnect — without re-deriving a monolithic
//! model. This crate makes that concrete:
//!
//! 1. [`Topology`] — a tiny TOML config (or a `a:4>b:8` one-liner)
//!    naming accelerator instances, the bounded queues between them,
//!    and — via `[[edge]]` tables or `(a|b)` chain groups — fan-out/
//!    fan-in DAG shapes with round-robin or broadcast distribution and
//!    per-stage server replication.
//! 2. [`Composite`] — realizes a topology twice: a cycle-accurate
//!    system (`crates/sim` FIFO pipeline or DAG pipeline over
//!    per-stage measured costs) as ground truth, and a composite Petri
//!    net built by gluing per-stage component nets through
//!    [`perf_petri::compose`], where shared boundary places carry the
//!    queue capacities and backpressure is structural.
//! 3. [`PipelineBackend`] — the composite as a [`QueryBackend`], so
//!    the query service answers pipeline-level questions
//!    (`pipe:jpeg-decoder:4>protoacc:8`) through the same NL /
//!    program / Petri-net representation ladder as single
//!    accelerators.
//!
//! Stages name accelerators from [`ACCELS`], the registry of
//! per-accelerator facts that the lints, the cross-tier checker, the
//! query service and the E15 lint audit read as well.
//!
//! [`QueryBackend`]: perf_core::query::QueryBackend

#![deny(missing_docs)]

pub mod accels;
pub mod backend;
pub mod lint;
pub mod model;
pub mod topology;

pub use accels::{accel, Accel, ShippedNet, ACCELS};
pub use backend::PipelineBackend;
pub use model::{dag_makespan, pipeline_makespan, Composite, DagPlan, Job, StreamParams};
pub use topology::{EdgeCfg, Policy, StageCfg, Topology};
