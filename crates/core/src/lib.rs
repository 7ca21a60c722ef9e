//! Core traits and types for accelerator performance interfaces.
//!
//! This crate defines the vocabulary of the whole workspace: physical
//! units ([`units`]), the prediction and observation types
//! ([`predict`]), the traits implemented by ground-truth models and by
//! interfaces ([`iface`]), machine-checkable natural-language claims
//! ([`nl`]), the validation harness that scores an interface against a
//! ground truth ([`validate`]), the interface-complexity metric
//! ([`complexity`]), small statistics helpers ([`stats`]) and a
//! fixed-size latency histogram ([`hist`]), plain-text
//! report rendering ([`report`]), the [`trace`] observability
//! interface every execution substrate emits into, the [`diag`]
//! diagnostics model shared by the `perf-lint` static analyses, the
//! error budgets and measures the conformance harness and the query
//! service score predictions with ([`budget`]), and the
//! workload-spec/backend vocabulary of the `perf-service` query
//! server ([`query`]).
//!
//! The design follows the HotOS '23 paper "The Case for Performance
//! Interfaces for Hardware Accelerators": an accelerator ships with an
//! [`iface::InterfaceBundle`] holding three representations of its
//! performance behavior — natural-language text, an executable program,
//! and a Petri-net IR — each trading readability for precision.

#![deny(missing_docs)]

pub mod budget;
pub mod complexity;
pub mod diag;
pub mod error;
pub mod hist;
pub mod iface;
pub mod nl;
pub mod predict;
pub mod query;
pub mod report;
pub mod stats;
pub mod trace;
pub mod units;
pub mod validate;

pub use budget::{Budget, Contract};
pub use diag::{Diagnostic, Diagnostics, Severity};
pub use error::CoreError;
pub use iface::{GroundTruth, InterfaceBundle, InterfaceKind, PerfInterface};
pub use predict::{Observation, Prediction};
pub use query::{QueryBackend, WorkloadSpec};
pub use trace::{ChromeTrace, MemorySink, NullSink, StageCycles, TraceSink};
pub use units::{Cycles, Freq, Throughput};
pub use validate::{ErrorStats, ValidationReport};
