//! The static audits behind E15: `perf-lint` and the cross-tier
//! `perf-xcheck` over every shipped artifact, without one simulation.
//!
//! `lint` runs [`perf_compose::Accel::lint`] on every
//! [`perf_compose::ACCELS`] row (the `.pi` interface program and the
//! `.pnet` nets) and lints the demo composite's *glued* net, since
//! composition can introduce defects no per-accelerator audit sees.
//! `xcheck` proves, per row, that NL claims, program-tier interval
//! bounds and Petri-net structural bounds agree, and runs the topology
//! checks over both demo composites (the DAG one exercises the static
//! bound extractor on a branched glued net). A target is clean when it
//! has no error and no warning; infos (invariants, rate-structure
//! notes) are expected.

use crate::composedemo::{DEMO_DAG_TOPOLOGY, DEMO_TOPOLOGY};
use perf_compose::{Composite, Topology, ACCELS};
use perf_core::{CoreError, Diagnostic, Diagnostics};

/// Audits one demo topology; a config that fails to parse or build is
/// itself a `PC005` finding rather than an aborted audit.
fn demo(
    target: &'static str,
    src: &str,
    check: impl FnOnce(Topology) -> Result<Diagnostics, CoreError>,
) -> (&'static str, Diagnostics) {
    let ds = Topology::parse_toml(src)
        .and_then(check)
        .unwrap_or_else(|e| {
            let mut ds = Diagnostics::new();
            ds.push(
                Diagnostic::error("PC005", format!("demo failed to build: {e}"))
                    .with_origin("composedemo"),
            );
            ds
        });
    (target, ds)
}

/// Every target's findings under `audit` (`lint` or `xcheck`), in
/// table order; `None` for an unknown audit name.
pub fn run(audit: &str) -> Option<Vec<(&'static str, Diagnostics)>> {
    Some(match audit {
        "lint" => ACCELS
            .iter()
            .map(|a| (a.name, a.lint()))
            .chain([demo("compose-demo", DEMO_TOPOLOGY, |t| {
                Ok(Composite::new(t)?.lint_net())
            })])
            .collect(),
        "xcheck" => ACCELS
            .iter()
            .map(|a| {
                let ds =
                    perf_xcheck::xcheck_accel(a.name).expect("every registry row is checkable");
                (a.name, ds)
            })
            .chain(
                [
                    ("demo-soc", DEMO_TOPOLOGY),
                    ("demo-soc-dag", DEMO_DAG_TOPOLOGY),
                ]
                .map(|(target, src)| demo(target, src, |t| Ok(perf_xcheck::xcheck_topology(&t)))),
            )
            .collect(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_core::Severity;

    #[test]
    fn every_shipped_artifact_is_audited_and_clean() {
        let lint = run("lint").unwrap();
        let xcheck = run("xcheck").unwrap();
        // Four accelerators plus the glued chain net; four accelerators
        // plus the chain and DAG composites.
        assert_eq!(lint.len(), 5);
        assert_eq!(xcheck.len(), 6);
        for (target, ds) in lint.iter().chain(&xcheck) {
            assert_eq!(ds.count(Severity::Error), 0, "{target}: {}", ds.render());
            assert_eq!(ds.count(Severity::Warning), 0, "{target}: {}", ds.render());
        }
        // The structural facts themselves are reported: every
        // accelerator's net has at least one P-invariant. (The glued
        // demo net is audited for defects only; its invariants depend
        // on the topology.)
        for (target, ds) in &lint[..ACCELS.len()] {
            assert!(ds.has_code("PN111"), "{target} reports no invariant");
        }
        assert!(run("fuzz").is_none());
    }
}
