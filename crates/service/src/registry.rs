//! The accelerator backend registry.
//!
//! Backends hold interpreter state that is not `Send` (the `.pi`
//! interpreter shares ASTs via `Rc`), so the registry hands out
//! *constructors*: each worker thread builds its own backend set and
//! keeps it for the thread's lifetime.

use perf_compose::PipelineBackend;
use perf_core::query::QueryBackend;
use perf_core::CoreError;

/// Builds the backend for one accelerator name: a row of
/// [`perf_compose::ACCELS`], or a composite pipeline under a dynamic
/// `pipe:<chain>` name (e.g. `pipe:jpeg-decoder:4>protoacc:8`).
pub fn backend(accel: &str) -> Result<Box<dyn QueryBackend>, CoreError> {
    if let Some(chain) = accel.strip_prefix("pipe:") {
        return Ok(Box::new(PipelineBackend::from_chain(chain)?));
    }
    (perf_compose::accel(accel)?.backend)()
}

#[cfg(test)]
mod tests {
    use super::*;

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
