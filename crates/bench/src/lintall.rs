//! The repo-wide `perf-lint` audit behind `repro --lint-all`.
//!
//! Every row of [`perf_compose::ACCELS`] has [`perf_compose::Accel::lint`],
//! which runs the static analyses over its shipped artifacts — the `.pi`
//! interface program and the `.pnet` performance IR (for the miner, the
//! net generated from the default configuration). This module aggregates
//! the audits into one report so CI can gate merges on it: a
//! performance interface that does not survive its own lint is not an
//! artifact a tool can reason about.

use perf_compose::{Composite, Topology, ACCELS};
use perf_core::{Diagnostic, Diagnostics, Severity};

/// One accelerator's audit result.
pub struct AccelLint {
    /// Registry name of the accelerator, or `compose-demo`.
    pub name: &'static str,
    /// All findings over the accelerator's shipped artifacts.
    pub diagnostics: Diagnostics,
}

/// Structural lint of the demo pipeline's *glued* net: composition can
/// introduce defects (starved boundaries, impossible bursts) that no
/// per-accelerator audit sees, so the composite net gets the same
/// treatment as the shipped component nets.
fn demo_composite_lint() -> Diagnostics {
    let build = Topology::parse_toml(crate::composedemo::DEMO_TOPOLOGY).and_then(Composite::new);
    match build.and_then(|c| c.lint_net()) {
        Ok(ds) => ds,
        Err(e) => {
            let mut ds = Diagnostics::new();
            ds.push(
                Diagnostic::error("PC005", format!("demo composite failed to build: {e}"))
                    .with_origin("composedemo"),
            );
            ds
        }
    }
}

/// Lints every accelerator's shipped interface artifacts, plus the
/// glued net of the demo composite pipeline.
pub fn lint_all() -> Vec<AccelLint> {
    let mut out: Vec<AccelLint> = ACCELS
        .iter()
        .map(|a| AccelLint {
            name: a.name,
            diagnostics: a.lint(),
        })
        .collect();
    out.push(AccelLint {
        name: "compose-demo",
        diagnostics: demo_composite_lint(),
    });
    out
}

/// Renders the combined audit. Returns `(report, clean)` where `clean`
/// is false if any accelerator has error- or warning-severity findings
/// (infos — invariant and trap reports — are expected and don't gate).
pub fn report() -> (String, bool) {
    let mut out = String::new();
    let mut clean = true;
    for a in lint_all() {
        let errors = a.diagnostics.count(Severity::Error);
        let warnings = a.diagnostics.count(Severity::Warning);
        if errors > 0 || warnings > 0 {
            clean = false;
        }
        out.push_str(&format!("== {} ==\n{}\n", a.name, a.diagnostics.render()));
    }
    out.push_str(if clean {
        "lint-all: every shipped net and interface program is clean\n"
    } else {
        "lint-all: FINDINGS ABOVE — shipped artifacts are not lint-clean\n"
    });
    (out, clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_accelerators_are_audited_and_clean() {
        let audits = lint_all();
        assert_eq!(audits.len(), 5);
        for a in &audits {
            assert_eq!(
                a.diagnostics.count(Severity::Error),
                0,
                "{}: {}",
                a.name,
                a.diagnostics.render()
            );
            assert_eq!(
                a.diagnostics.count(Severity::Warning),
                0,
                "{}: {}",
                a.name,
                a.diagnostics.render()
            );
        }
        // The structural facts themselves are reported: every
        // accelerator's net has at least one P-invariant. (The glued
        // demo net is audited for defects only; its invariants depend
        // on the topology.)
        for a in audits.iter().filter(|a| a.name != "compose-demo") {
            assert!(
                a.diagnostics.has_code("PN111"),
                "{} reports no invariant",
                a.name
            );
        }
        let (text, clean) = report();
        assert!(clean, "{text}");
        assert!(text.contains("lint-all: every shipped net"));
    }
}
