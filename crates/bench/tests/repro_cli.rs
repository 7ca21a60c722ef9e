//! Argument-parsing behaviour of the `repro` binary: bad invocations
//! must exit with a usage message (status 2), never a panic.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn unknown_flag_prints_usage_and_exits_2() {
    let out = repro(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "stderr was: {err}");
    assert!(!err.contains("panicked"), "stderr was: {err}");
}

#[test]
fn no_mode_prints_usage_and_exits_2() {
    for args in [&[][..], &["--quick"][..]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "args {args:?}: stderr was {err}");
    }
}

#[test]
fn flags_with_missing_operands_exit_2() {
    for flag in ["--trace", "--perfetto", "--only", "--write", "--check"] {
        let out = repro(&[flag]);
        assert_eq!(out.status.code(), Some(2), "flag {flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "flag {flag}: stderr was {err}");
        assert!(!err.contains("panicked"), "flag {flag}: stderr was {err}");
    }
}

#[test]
fn experiment_only_flags_require_experiments_mode() {
    for args in [
        ["--only", "E2"],
        ["--write", "OUT.md"],
        ["--check", "EXPERIMENTS.md"],
        ["--json", "--quick"],
    ] {
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--experiments"),
            "args {args:?}: stderr was {err}"
        );
    }
    let out = repro(&["--perfetto", "out.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace"));
}

#[test]
fn serve_only_flags_and_two_modes_exit_2() {
    for args in [&["--workers", "8"][..], &["--tcp", "127.0.0.1:0"][..]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--serve"), "args {args:?}: stderr was {err}");
    }
    // A second mode, or a flag of another mode, is a usage error
    // rather than silently ignored.
    for args in [
        &["--experiments", "--only", "E7", "--trace", "t.json"][..],
        &["--serve", "--trace", "t.json"][..],
        &["--experiments", "--serve"][..],
        &["--experiments", "--only", "E7", "--workers", "8"][..],
        &["--serve", "--json"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "args {args:?}: stderr was {err}");
    }
}

#[test]
fn removed_gate_modes_exit_2() {
    // Folded into `--experiments`: E12 (conformance), E14 (compose)
    // and E15 (lint and xcheck).
    for mode in ["lint-all", "xcheck", "conformance", "compose"] {
        let flag = format!("--{mode}");
        let out = repro(&[flag.as_str()]);
        assert_eq!(out.status.code(), Some(2), "flag {flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "flag {flag}: stderr was {err}");
    }
}

#[test]
fn experiments_unknown_id_exits_2() {
    let out = repro(&["--experiments", "--only", "E99", "--quick"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment"), "stderr was: {err}");
}

#[test]
fn help_names_the_trace_schema_and_experiment_flags() {
    let out = repro(&["--help"]);
    assert!(out.status.success(), "--help should exit 0");
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "--experiments",
        "--only",
        "--write",
        "--check",
        "--perfetto",
        "ui.perfetto.dev",
        "critical_path_total",
        "transitions[]",
        "critical_path[]",
    ] {
        assert!(text.contains(needle), "--help omits `{needle}`:\n{text}");
    }
}

#[test]
fn trace_flag_writes_report_and_prints_folded_stacks() {
    let dir = std::env::temp_dir().join("repro-cli-trace-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.json");
    let out = repro(&["--quick", "--trace", path.to_str().unwrap()]);
    assert!(out.status.success(), "status: {:?}", out.status);
    let json = std::fs::read_to_string(&path).expect("trace report written");
    assert!(json.contains("\"critical_path_total\""));
    assert!(json.contains("\"components\""));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("refpipe;"), "stdout was: {stdout}");
    assert!(stdout.contains("autotune;"), "stdout was: {stdout}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_perfetto_writes_a_chrome_trace() {
    let dir = std::env::temp_dir().join("repro-cli-perfetto-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.json");
    let chrome = dir.join("chrome.json");
    let out = repro(&[
        "--quick",
        "--trace",
        path.to_str().unwrap(),
        "--perfetto",
        chrome.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "status: {:?}", out.status);
    let doc = std::fs::read_to_string(&chrome).expect("Chrome trace written");
    assert!(doc.contains("\"traceEvents\""));
    // One process per substrate: reference net, composite SoC,
    // component accounting.
    assert!(doc.contains("petri:refpipe"));
    assert!(doc.contains("petri:demo-soc"));
    assert!(doc.contains("\"name\":\"components\""));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&chrome).ok();
}
