//! Cycle-accurate simulation substrate.
//!
//! The accelerator models in this workspace (`accel-jpeg`,
//! `accel-bitcoin`, `accel-protoacc`, `accel-vta`) are cycle-level
//! simulators standing in for the RTL the paper measured. This crate is
//! their shared substrate: bounded FIFOs with backpressure ([`fifo`]),
//! an in-order multi-stage pipeline model ([`pipeline`]), its fan-out/
//! fan-in DAG generalization ([`dag`]), DRAM and TLB models ([`mem`])
//! and deterministic fault injection ([`fault`]) for probing interface
//! contracts outside nominal operation.
//!
//! All of these are *tick-accurate*: state advances one clock cycle at a
//! time, which is deliberately detailed and deliberately slow — the
//! paper's point (and our E5 experiment) is that an event-driven Petri
//! net evaluates the same performance behavior orders of magnitude
//! faster.

pub mod dag;
pub mod fault;
pub mod fifo;
pub mod mem;
pub mod pipeline;

pub use dag::{DagNodeSpec, DagNodeStats, DagPipeline, Route};
pub use fault::{FaultInjector, FaultPlan};
pub use fifo::Fifo;
pub use mem::{DramModel, Tlb};
pub use pipeline::{Pipeline, StageSpec};
// The sink interface lives in `perf-core` so non-sim crates (the
// autotuner, the Petri stepper's consumers) can emit into the same
// sinks; re-exported here because the cycle-level models are its main
// producers.
pub use perf_core::trace::{MemorySink, NullSink, StageCycles, TraceSink};
