//! Checks that `pnet --help` and the short usage line stay in sync
//! with the actual subcommand surface — PR 3 added `lint` flags that
//! the usage text missed, and this test makes that class of drift a
//! build failure.

use std::process::Command;

const SUBCOMMANDS: [&str; 6] = ["check", "lint", "bound", "dot", "run", "trace"];
const LINT_FLAGS: [&str; 2] = ["--entry", "--json"];

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pnet"))
        .args(args)
        .output()
        .expect("spawn pnet")
}

#[test]
fn help_mentions_every_subcommand() {
    let out = run(&["--help"]);
    assert!(out.status.success(), "--help should exit 0");
    let text = String::from_utf8(out.stdout).expect("utf8 help");
    for sub in SUBCOMMANDS {
        assert!(
            text.contains(&format!("pnet {sub} ")),
            "help omits subcommand `{sub}`:\n{text}"
        );
    }
    for flag in LINT_FLAGS {
        assert!(
            text.contains(flag),
            "help omits lint flag `{flag}`:\n{text}"
        );
    }
    assert!(
        text.contains("--folded"),
        "help omits trace flag `--folded`:\n{text}"
    );
    assert!(
        text.contains("--perfetto"),
        "help omits trace flag `--perfetto`:\n{text}"
    );
    assert!(
        text.contains("ui.perfetto.dev"),
        "help should say where to open the Chrome trace:\n{text}"
    );
    // The trace-report JSON schema is part of the CLI contract: every
    // top-level field of `trace_report_json` must be named in --help.
    for field in [
        "makespan",
        "events",
        "enablement_checks",
        "firings_recorded",
        "firings_evicted",
        "critical_path_total",
        "transitions[]",
        "critical_path[]",
    ] {
        assert!(
            text.contains(field),
            "help omits trace JSON field `{field}`:\n{text}"
        );
    }
}

#[test]
fn short_usage_mentions_every_subcommand_and_lint_flags() {
    let out = run(&["no-such-subcommand"]);
    assert_eq!(out.status.code(), Some(2), "bad args should exit 2");
    let text = String::from_utf8(out.stderr).expect("utf8 usage");
    for sub in SUBCOMMANDS {
        assert!(
            text.contains(&format!("pnet {sub} ")),
            "usage omits subcommand `{sub}`:\n{text}"
        );
    }
    for flag in LINT_FLAGS {
        assert!(
            text.contains(flag),
            "usage omits lint flag `{flag}`:\n{text}"
        );
    }
    assert!(
        text.contains("--perfetto"),
        "usage omits trace flag `--perfetto`:\n{text}"
    );
}

#[test]
fn trace_perfetto_writes_a_chrome_trace() {
    let dir = std::env::temp_dir().join("pnet-cli-perfetto-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let net = dir.join("tiny.pnet");
    std::fs::write(
        &net,
        "net tiny\n\nplace in\nplace q cap 2\nsink out\n\n\
         trans a\n  in in\n  out q\n  delay 2\n\n\
         trans b\n  in q\n  out out\n  delay 5\n",
    )
    .expect("write net");
    let chrome = dir.join("chrome.json");
    let out = run(&[
        "trace",
        net.to_str().unwrap(),
        "in",
        "4",
        "--perfetto",
        chrome.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "status: {:?}", out.status);
    // The regular JSON report still lands on stdout.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"critical_path_total\""), "{stdout}");
    let doc = std::fs::read_to_string(&chrome).expect("Chrome trace written");
    assert!(doc.contains("\"traceEvents\""));
    assert!(doc.contains("petri:tiny"));
    assert!(doc.contains("critical-path"));
    std::fs::remove_file(&chrome).ok();
    std::fs::remove_file(&net).ok();
}

#[test]
fn trace_perfetto_without_operand_exits_2() {
    let out = run(&["trace", "net.pnet", "in", "4", "--perfetto"]);
    assert_eq!(out.status.code(), Some(2), "missing OUT should exit 2");
    let text = String::from_utf8(out.stderr).expect("utf8 usage");
    assert!(text.contains("usage:"), "stderr was: {text}");
}

#[test]
fn help_aliases_agree() {
    let long = run(&["--help"]);
    for alias in ["-h", "help"] {
        let out = run(&[alias]);
        assert!(out.status.success(), "`{alias}` should exit 0");
        assert_eq!(out.stdout, long.stdout, "`{alias}` differs from --help");
    }
}

#[test]
fn run_past_the_last_cycle_is_a_diagnostic_not_a_panic() {
    let dir = std::env::temp_dir().join("pnet-cli-overflow-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let net = dir.join("ovf.pnet");
    std::fs::write(
        &net,
        "net ovf\n\nplace a\nsink z\n\n\
         trans t\n  in a\n  out z\n  delay 10000000000000000000\n",
    )
    .expect("write net");
    let out = run(&["run", net.to_str().unwrap(), "a", "2"]);
    assert_eq!(out.status.code(), Some(1), "status: {:?}", out.status);
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("cycle overflow"), "stderr was: {text}");
    assert!(!text.contains("panicked"), "stderr was: {text}");
    std::fs::remove_file(&net).ok();
}
