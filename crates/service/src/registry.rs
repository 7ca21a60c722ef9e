//! The accelerator backend registry.
//!
//! Backends hold interpreter state that is not `Send` (the `.pi`
//! interpreter shares ASTs via `Rc`), so the registry hands out
//! *constructors*: each worker thread builds its own backend set and
//! keeps it for the thread's lifetime.

use perf_compose::PipelineBackend;
use perf_core::query::QueryBackend;
use perf_core::CoreError;

/// Names of every single accelerator the service can answer for.
/// Composite pipelines are additionally served under dynamic
/// `pipe:<chain>` names (e.g. `pipe:jpeg-decoder:4>protoacc:8`).
pub fn accelerators() -> &'static [&'static str] {
    &["jpeg-decoder", "bitcoin-miner", "protoacc", "vta"]
}

/// Builds the backend for one accelerator name.
pub fn backend(accel: &str) -> Result<Box<dyn QueryBackend>, CoreError> {
    if let Some(chain) = accel.strip_prefix("pipe:") {
        return Ok(Box::new(PipelineBackend::from_chain(chain)?));
    }
    // The single-accelerator constructor table lives in `perf-compose`
    // (which needs it to build pipeline stages without a dependency
    // cycle back into this crate).
    perf_compose::accel_backend(accel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_accelerator_constructs() {
        for name in accelerators() {
            let b = backend(name).unwrap();
            assert_eq!(&b.accel(), name);
            assert!(!b.spec_kinds().is_empty());
        }
        assert!(backend("nope").is_err());
    }

    #[test]
    fn pipe_prefix_builds_a_composite_backend() {
        let mut b = backend("pipe:vta:2>protoacc:4").unwrap();
        assert_eq!(b.accel(), "pipe:vta:2>protoacc:4");
        assert_eq!(b.spec_kinds(), &["stream"]);
        let spec = perf_core::query::WorkloadSpec::new("stream").with("items", 3.0);
        let p = b
            .predict(
                &spec,
                perf_core::iface::InterfaceKind::Program,
                perf_core::iface::Metric::Latency,
            )
            .unwrap();
        assert!(p.is_finite());
        assert!(backend("pipe:warp-drive:2").is_err());
    }
}
