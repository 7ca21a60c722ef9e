//! The quick conformance run passes, and the committed
//! `BENCH_conformance.json` is exactly what it produces. The quick
//! harness is deterministic, so any difference is conformance drift:
//! an interface, a simulator, a budget or a subject changed.

use perf_conformance::run_all;

const COMMITTED: &str = include_str!("../../../BENCH_conformance.json");

/// Up to `n` bytes of `s` from `at`, for a failure message.
fn context(s: &str, at: usize, n: usize) -> String {
    let b = s.as_bytes();
    String::from_utf8_lossy(&b[at.min(b.len())..(at + n).min(b.len())]).into_owned()
}

#[test]
fn quick_run_passes_and_matches_the_committed_report() {
    let rep = run_all(true);
    assert!(
        rep.pass(),
        "{}",
        rep.accels
            .iter()
            .filter(|a| !a.pass())
            .map(|a| format!("{} failed conformance:\n{}", a.name, a.diags.render()))
            .collect::<String>()
    );
    assert_eq!(rep.accels.len(), 6);
    // Every subject exercises all four channels nominally and at least
    // one in- and one out-of-contract fault region.
    for a in &rep.accels {
        assert_eq!(a.nominal.len(), 4, "{}: missing channels", a.name);
        assert!(a.faults.iter().any(|f| f.in_contract), "{}", a.name);
        assert!(a.faults.iter().any(|f| !f.in_contract), "{}", a.name);
        assert!(!a.nl.is_empty(), "{}: no NL claims checked", a.name);
    }
    let json = rep.to_json();
    assert!(json.contains("\"accelerator\":\"jpeg-decoder\""));
    assert!(json.contains("\"pass\":true"));

    if json != COMMITTED {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_conformance.json");
        std::fs::write(&out, &json).expect("write regenerated report");
        let at = json
            .bytes()
            .zip(COMMITTED.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(json.len().min(COMMITTED.len()));
        let from = at.saturating_sub(40);
        panic!(
            "BENCH_conformance.json drifted at byte {at}:\n  committed:   {}\n  regenerated: {}\n\
             The regenerated report is at {}; review it and copy it over the committed file.",
            context(COMMITTED, from, 80),
            context(&json, from, 80),
            out.display()
        );
    }
}
