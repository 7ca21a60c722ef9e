//! The repo-wide cross-tier consistency audit behind `repro --xcheck`.
//!
//! Runs `perf_xcheck` over every shipped accelerator (NL claims vs.
//! program-tier bounds vs. Petri-net structural bounds) and over the
//! demo composite pipeline (topology lints + glued-net checks) — all
//! statically, without a single simulation. CI gates merges on a clean
//! report: the three tiers of every shipped interface provably agree
//! on their guaranteed bounds, or the build fails.

use perf_compose::Topology;
use perf_core::{Diagnostics, Severity};

/// One check target's findings.
pub struct XcheckResult {
    /// Accelerator name, or the composite pipeline's label.
    pub name: String,
    /// All cross-tier findings for this target.
    pub diagnostics: Diagnostics,
}

fn xcheck_demo_config(out: &mut Vec<XcheckResult>, src: &str) {
    match Topology::parse_toml(src) {
        Ok(topo) => out.push(XcheckResult {
            name: format!("composite `{}`", topo.name),
            diagnostics: perf_xcheck::xcheck_topology(&topo),
        }),
        Err(e) => {
            let mut ds = Diagnostics::new();
            ds.push(
                perf_core::diag::Diagnostic::error(
                    "PC005",
                    format!("demo topology failed to parse: {e}"),
                )
                .with_origin("composedemo"),
            );
            out.push(XcheckResult {
                name: "composite demo".to_string(),
                diagnostics: ds,
            });
        }
    }
}

/// Cross-checks every shipped accelerator plus the two demo composite
/// pipelines (linear chain and fan-out/fan-in DAG — the latter runs
/// the static Petri bound extractor over a *branched* glued net).
pub fn xcheck_all() -> Vec<XcheckResult> {
    let mut out = Vec::new();
    for a in &perf_compose::ACCELS {
        out.push(XcheckResult {
            name: a.name.to_string(),
            diagnostics: perf_xcheck::xcheck_accel(a.name)
                .expect("every registry row is checkable"),
        });
    }
    xcheck_demo_config(&mut out, crate::composedemo::DEMO_TOPOLOGY);
    xcheck_demo_config(&mut out, crate::composedemo::DEMO_DAG_TOPOLOGY);
    out
}

/// Renders the combined audit. Returns `(report, clean)` where `clean`
/// is false if any target has error- or warning-severity findings
/// (infos — expected rate-structure notes — don't gate). With `json`,
/// the report is one JSON object per target.
pub fn report(json: bool) -> (String, bool) {
    let mut out = String::new();
    let mut clean = true;
    for r in xcheck_all() {
        let errors = r.diagnostics.count(Severity::Error);
        let warnings = r.diagnostics.count(Severity::Warning);
        if errors > 0 || warnings > 0 {
            clean = false;
        }
        if json {
            out.push_str(&format!(
                "{{\"target\":{:?},\"errors\":{errors},\"warnings\":{warnings},\
                 \"diagnostics\":{}}}\n",
                r.name,
                r.diagnostics.render_json()
            ));
        } else {
            out.push_str(&format!("== {} ==\n{}\n", r.name, r.diagnostics.render()));
        }
    }
    if !json {
        out.push_str(if clean {
            "xcheck: all three tiers agree on every shipped interface\n"
        } else {
            "xcheck: FINDINGS ABOVE — shipped interface tiers disagree\n"
        });
    }
    (out, clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_artifacts_are_cross_tier_consistent() {
        let (report, clean) = report(false);
        assert!(clean, "{report}");
        // Four accelerators plus the chain and DAG composite demos.
        assert_eq!(xcheck_all().len(), 6);
    }

    #[test]
    fn json_report_is_one_object_per_target() {
        let (report, clean) = report(true);
        assert!(clean, "{report}");
        assert_eq!(report.lines().count(), 6);
        for line in report.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }
}
