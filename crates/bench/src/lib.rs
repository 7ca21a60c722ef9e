//! The benchmark harness: one runner per paper table/figure.
//!
//! Every artifact in the paper's evaluation maps to a function here
//! (see `DESIGN.md`'s experiment index). `repro --experiments` runs
//! them from the declarative specs; integration tests assert the
//! headline shapes.

pub mod composedemo;
pub mod conformance;
pub mod exp;
pub mod experiments;
pub mod lintall;
pub mod tracedemo;
pub mod xcheckall;

pub use experiments::ExperimentOutput;
