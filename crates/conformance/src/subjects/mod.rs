//! Harness adapters for the four accelerators and the composite
//! pipelines.

pub mod bitcoin;
pub mod composite;
pub mod jpeg;
pub mod protoacc;
pub mod vta;
