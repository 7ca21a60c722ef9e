//! Wiring of the per-accelerator registry: every row of
//! `perf_compose::ACCELS` must be reachable from every tool that
//! consumes it. Adding an accelerator row without its backend kinds,
//! lint-clean artifacts, cross-tier probes or conformance subject
//! fails here.

use perf_compose::{accel, ACCELS};
use perf_core::iface::{InterfaceKind, Metric};
use perf_core::query::WorkloadSpec;
use perf_core::{CoreError, Severity};
use perf_service::registry;

#[test]
fn every_registry_row_is_wired_into_every_consumer() {
    for a in &ACCELS {
        let b = (a.backend)().unwrap_or_else(|e| panic!("{}: backend: {e}", a.name));
        assert_eq!(b.accel(), a.name);
        assert!(
            b.spec_kinds().contains(&a.template.kind),
            "{}: template kind `{}` not in {:?}",
            a.name,
            a.template.kind,
            b.spec_kinds()
        );

        let mut pipe = registry::backend(&format!("pipe:{}:2", a.name))
            .unwrap_or_else(|e| panic!("{}: pipe backend: {e}", a.name));
        let p = pipe
            .predict(
                &WorkloadSpec::new("stream").with("items", 2.0),
                InterfaceKind::Program,
                Metric::Latency,
            )
            .unwrap_or_else(|e| panic!("{}: stream query: {e}", a.name));
        assert!(p.is_finite(), "{}: {p:?}", a.name);

        let xcheck = perf_xcheck::xcheck_accel(a.name).unwrap();
        for ds in [a.lint(), xcheck] {
            let bad = ds.count(Severity::Error) + ds.count(Severity::Warning);
            assert_eq!(bad, 0, "{}:\n{}", a.name, ds.render());
        }

        assert!(
            perf_conformance::SUBJECTS.iter().any(|(n, _)| *n == a.name),
            "{}: no conformance subject",
            a.name
        );
    }
}

#[test]
fn unknown_accelerator_error_lists_exactly_the_registry() {
    let names: Vec<&str> = ACCELS.iter().map(|a| a.name).collect();
    let expected = format!(
        "unknown accelerator `warp-drive` (have: {})",
        names.join(", ")
    );
    let Err(CoreError::Artifact(msg)) = accel("warp-drive") else {
        panic!("unknown name resolved");
    };
    assert_eq!(msg, expected);
    let msg = registry::backend("warp-drive").err().unwrap().to_string();
    assert!(msg.ends_with(&expected), "{msg}");
}
