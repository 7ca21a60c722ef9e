//! Every conformance case, and every one-step shrink of it, lies in
//! the domain the service accepts. The nominal sweep only reaches the
//! shrink rules when a case fails, so a rule that steps outside the
//! served domain (say to `blocks: 0`) would otherwise surface only as
//! a skipped counterexample.

use perf_conformance::SUBJECTS;
use perf_core::iface::{InterfaceKind, Metric};
use perf_core::query::QueryBackend;

#[test]
fn cases_and_their_shrinks_are_accepted_by_the_served_adapter() {
    let mut served_rows = 0;
    for (name, make) in &SUBJECTS {
        let mut subject = make();
        // An accelerator is checked against the backend its registry
        // row serves; a composite against its own pipeline backend.
        let mut served = perf_compose::accel(name)
            .ok()
            .map(|a| (a.backend)().expect("shipped backend builds"));
        served_rows += served.is_some() as usize;
        for quick in [true, false] {
            for case in subject.specs(quick) {
                let shrinks = subject.shrink(&case.spec);
                for spec in std::iter::once(case.spec.clone()).chain(shrinks) {
                    let backend: &mut dyn QueryBackend = match &mut served {
                        Some(b) => b.as_mut(),
                        None => subject.backend(),
                    };
                    // The NL tier realizes the spec and answers a
                    // closed-form bound: a realize check at little cost.
                    let answer =
                        backend.predict(&spec, InterfaceKind::NaturalLanguage, Metric::Latency);
                    assert!(
                        answer.is_ok(),
                        "{name} case `{}` (quick {quick}): {spec:?} is outside the served domain: {:?}",
                        case.label,
                        answer.err()
                    );
                }
            }
        }
    }
    assert_eq!(served_rows, perf_compose::ACCELS.len());
}
