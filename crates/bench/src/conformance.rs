//! `repro --conformance`: the differential conformance gate.
//!
//! Thin wrapper over [`perf_conformance::run_all`] that renders the
//! human summary and writes the `BENCH_conformance.json` artifact.

use perf_conformance::ConformanceReport;

/// Runs the harness over every subject in [`perf_conformance::SUBJECTS`].
pub fn run(quick: bool) -> ConformanceReport {
    perf_conformance::run_all(quick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_conformance_passes() {
        let rep = run(true);
        assert!(rep.pass(), "{}", rep.render());
        assert_eq!(rep.accels.len(), 6);
        // Every accelerator exercises all four channels nominally and
        // at least one in- and one out-of-contract fault region.
        for a in &rep.accels {
            assert_eq!(a.nominal.len(), 4, "{}: missing channels", a.name);
            assert!(a.faults.iter().any(|f| f.in_contract), "{}", a.name);
            assert!(a.faults.iter().any(|f| !f.in_contract), "{}", a.name);
            assert!(!a.nl.is_empty(), "{}: no NL claims checked", a.name);
        }
        let json = rep.to_json();
        assert!(json.contains("\"accelerator\":\"jpeg-decoder\""));
        assert!(json.contains("\"pass\":true"));
    }
}
