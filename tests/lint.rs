//! Mutation corpus for the `perf-lint` static analyses.
//!
//! The lint suite's value claim is twofold: the artifacts we ship are
//! clean, and the analyses are not vacuous — injecting a known defect
//! into any shipped artifact makes the matching lint fire. These tests
//! check both directions: an exhaustive sweep (every net × every net
//! defect, every program × every program defect — zero false
//! negatives), and a randomized proptest pairing that re-checks the
//! same corpus under shuffled mutation sites.

use perf_core::{Diagnostics, Severity};
use proptest::prelude::*;

/// One shipped `.pnet` artifact plus the structural facts a mutation
/// needs: the token entry places, one entry to tap, one sink to feed.
struct NetCase {
    name: &'static str,
    src: String,
    entries: Vec<&'static str>,
    entry: &'static str,
    sink: String,
}

/// Every net in the accelerator registry; the sink is the net's one
/// sink place.
fn net_cases() -> Vec<NetCase> {
    perf_compose::ACCELS
        .iter()
        .flat_map(|a| (a.nets)())
        .map(|n| {
            let net = perf_petri::text::parse(&n.src).expect("shipped net parses");
            let sink = net.places().iter().find(|p| p.is_sink).expect("a sink");
            NetCase {
                name: n.origin,
                sink: sink.name.clone(),
                entry: n.entries[0],
                entries: n.entries,
                src: n.src,
            }
        })
        .collect()
}

/// A defect to graft onto a net, and the lint code that must catch it.
struct NetDefect {
    label: &'static str,
    code: &'static str,
    severity: Severity,
    mutate: fn(&NetCase) -> String,
}

fn net_defects() -> Vec<NetDefect> {
    vec![
        NetDefect {
            label: "orphan place",
            code: "PN102",
            severity: Severity::Warning,
            mutate: |c| format!("{}\nplace zz_orphan\n", c.src),
        },
        NetDefect {
            label: "token-leaking transition (consumes, never produces)",
            code: "PN108",
            severity: Severity::Warning,
            mutate: |c| format!("{}\ntrans zz_leak\n  in {}\n  delay 1\n", c.src, c.entry),
        },
        NetDefect {
            label: "zero-delay cycle (livelock)",
            code: "PN110",
            severity: Severity::Error,
            mutate: |c| {
                format!(
                    "{}\nplace zz_a\nplace zz_b\n\
                     trans zz_t1\n  in zz_a\n  out zz_b\n  delay 0\n\
                     trans zz_t2\n  in zz_b\n  out zz_a\n  delay 0\n",
                    c.src
                )
            },
        },
        NetDefect {
            label: "arc weight above place capacity (structurally dead)",
            code: "PN105",
            severity: Severity::Error,
            mutate: |c| {
                format!(
                    "{}\nplace zz_cap cap 1\n\
                     trans zz_over\n  in zz_cap x 2\n  out {}\n  delay 1\n",
                    c.src, c.sink
                )
            },
        },
        NetDefect {
            label: "constant-false guard (transition can never fire)",
            code: "PN106",
            severity: Severity::Error,
            mutate: |c| {
                format!(
                    "{}\ntrans zz_guarded\n  in {}\n  out {}\n  delay 1\n  guard 1 == 2\n",
                    c.src, c.entry, c.sink
                )
            },
        },
    ]
}

/// One shipped `.pi` program.
struct ProgCase {
    name: &'static str,
    src: &'static str,
}

fn prog_cases() -> Vec<ProgCase> {
    perf_compose::ACCELS
        .iter()
        .map(|a| ProgCase {
            name: a.pi_origin,
            src: a.pi_src,
        })
        .collect()
}

/// A defect appended to a program as a fresh function, and the lint
/// code that must catch it.
struct ProgDefect {
    label: &'static str,
    code: &'static str,
    severity: Severity,
    appended: &'static str,
}

fn prog_defects() -> Vec<ProgDefect> {
    vec![
        ProgDefect {
            label: "unused parameter",
            code: "PIL009",
            severity: Severity::Warning,
            appended: "fn zz_unused_param(a, b) { return a; }\n",
        },
        ProgDefect {
            label: "unused let binding",
            code: "PIL010",
            severity: Severity::Warning,
            appended: "fn zz_unused_let(w) { let x = 1; return w; }\n",
        },
        ProgDefect {
            label: "division by provably-zero divisor",
            code: "PIL101",
            severity: Severity::Error,
            appended: "fn zz_div(w) { return w / (2 - 2); }\n",
        },
        ProgDefect {
            label: "statement after return",
            code: "PIL103",
            severity: Severity::Warning,
            appended: "fn zz_dead(w) { return w; return 0; }\n",
        },
        ProgDefect {
            label: "non-terminating while loop",
            code: "PIL104",
            severity: Severity::Error,
            appended: "fn zz_spin(w) { while 1 < 2 { let _q = w; } return 0; }\n",
        },
        ProgDefect {
            label: "provably-negative latency",
            code: "PIL105",
            severity: Severity::Error,
            appended: "fn latency_zz(w) { return 0 - 5 - w.size; }\n",
        },
    ]
}

fn assert_fires(ds: &Diagnostics, code: &str, severity: Severity, ctx: &str) {
    let hit = ds
        .items()
        .iter()
        .any(|d| d.code == code && d.severity == severity);
    assert!(
        hit,
        "{ctx}: expected {code} at {severity:?}, got:\n{}",
        ds.render()
    );
}

#[test]
fn shipped_artifacts_are_lint_clean() {
    for c in net_cases() {
        let ds = perf_petri::lint::lint_pnet_src(c.name, &c.src, &c.entries);
        assert_eq!(ds.count(Severity::Error), 0, "{}: {}", c.name, ds.render());
        assert_eq!(
            ds.count(Severity::Warning),
            0,
            "{}: {}",
            c.name,
            ds.render()
        );
    }
    for p in prog_cases() {
        let ds = perf_iface_lang::lint::lint_src(p.name, p.src);
        assert_eq!(ds.count(Severity::Error), 0, "{}: {}", p.name, ds.render());
        assert_eq!(
            ds.count(Severity::Warning),
            0,
            "{}: {}",
            p.name,
            ds.render()
        );
    }
}

/// Every net defect is caught in every shipped net: no false negatives
/// anywhere in the (net × defect) matrix.
#[test]
fn every_net_defect_is_caught_in_every_net() {
    for c in net_cases() {
        for d in net_defects() {
            let mutated = (d.mutate)(&c);
            let ds = perf_petri::lint::lint_pnet_src(c.name, &mutated, &c.entries);
            assert_fires(
                &ds,
                d.code,
                d.severity,
                &format!("{} + {}", c.name, d.label),
            );
        }
    }
}

/// Every program defect is caught in every shipped program.
#[test]
fn every_program_defect_is_caught_in_every_program() {
    for p in prog_cases() {
        for d in prog_defects() {
            let mutated = format!("{}\n{}", p.src, d.appended);
            let ds = perf_iface_lang::lint::lint_src(p.name, &mutated);
            assert_fires(
                &ds,
                d.code,
                d.severity,
                &format!("{} + {}", p.name, d.label),
            );
        }
    }
}

/// A defect is reported exactly where injected: mutating net A must
/// not change what the linter says about untouched net B, and the
/// finding disappears when the mutation is reverted.
#[test]
fn defects_do_not_leak_across_artifacts() {
    let cases = net_cases();
    let defect = &net_defects()[2]; // zero-delay cycle
    let mutated = (defect.mutate)(&cases[0]);
    let ds = perf_petri::lint::lint_pnet_src(cases[0].name, &mutated, &cases[0].entries);
    assert!(ds.has_code(defect.code));
    for other in &cases[1..] {
        let ds = perf_petri::lint::lint_pnet_src(other.name, &other.src, &other.entries);
        assert!(
            !ds.has_code(defect.code),
            "{} reports {} without the mutation",
            other.name,
            defect.code
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized re-pairing of the corpus: any (net, defect) and any
    /// (program, defect) combination fires the expected code. With the
    /// stub runner's deterministic seeding this revisits the matrix in
    /// shuffled order plus duplicated pairs — the property is that
    /// detection is independent of which artifact hosts the defect.
    #[test]
    fn mutation_pairing_always_detected(ni in 0usize..5, di in 0usize..5, pi in 0usize..4, pdi in 0usize..6) {
        let nets = net_cases();
        let ndefs = net_defects();
        let c = &nets[ni];
        let d = &ndefs[di];
        let ds = perf_petri::lint::lint_pnet_src(c.name, &(d.mutate)(c), &c.entries);
        prop_assert!(
            ds.items().iter().any(|x| x.code == d.code && x.severity == d.severity),
            "{} + {}: {} missing:\n{}", c.name, d.label, d.code, ds.render()
        );

        let progs = prog_cases();
        let pdefs = prog_defects();
        let p = &progs[pi];
        let pd = &pdefs[pdi];
        let ds = perf_iface_lang::lint::lint_src(p.name, &format!("{}\n{}", p.src, pd.appended));
        prop_assert!(
            ds.items().iter().any(|x| x.code == pd.code && x.severity == pd.severity),
            "{} + {}: {} missing:\n{}", p.name, pd.label, pd.code, ds.render()
        );
    }
}
