//! Integration tests for the declarative experiment framework: spec
//! parsing through the public API, a property-tested spec → JSON
//! round-trip (the JSON is hand-rendered, so it must stay parseable
//! by the repo's own hand-rolled parser), and byte-stability of the
//! CLI output across runs.

use perf_bench::exp::spec::{self, CmpOp};
use perf_bench::exp::{self, CriterionOutcome, ExpResult, RunResults, VariantOutput};
use perf_service::json::Json;
use proptest::prelude::*;
use std::process::{Command, Output};

#[test]
fn parse_errors_carry_the_offending_line_number() {
    // Bad axis: values that are not a list, on line 6.
    let bad_axis = "\
[[experiment]]
id = \"E1\"
title = \"t\"
runner = \"r\"
[[axis]]
values = \"jpeg\"
";
    let e = spec::parse(bad_axis).unwrap_err().to_string();
    assert!(e.contains("experiments line 6"), "{e}");
    assert!(e.contains("list"), "{e}");

    // Bad criterion operator, on line 5.
    let bad_criterion = "\
[[experiment]]
id = \"E1\"
title = \"t\"
runner = \"r\"
criteria = [\"e1_x != 1\"]
";
    let e = spec::parse(bad_criterion).unwrap_err().to_string();
    assert!(e.contains("experiments line 5"), "{e}");
    assert!(e.contains("unknown operator"), "{e}");

    // An axis stanza with no experiment to attach to, on line 1.
    let orphan = "[[axis]]\nname = \"a\"\nvalues = [\"x\"]\n";
    let e = spec::parse(orphan).unwrap_err().to_string();
    assert!(e.contains("experiments line 1"), "{e}");
}

#[test]
fn shipped_specs_cover_the_whole_experiment_index() {
    let file = exp::load().expect("shipped spec file parses");
    let ids: Vec<&str> = file.specs.iter().map(|s| s.id.as_str()).collect();
    assert_eq!(
        ids,
        (1..=15).map(|i| format!("E{i}")).collect::<Vec<_>>(),
        "spec file must cover E1..E15 in order"
    );
    // Quick-scale sample counts exist wherever full-scale ones do, so
    // the CI drift gate can run every experiment.
    for s in &file.specs {
        for v in s.variants() {
            let values: Vec<String> = v.into_iter().map(|(_, val)| val).collect();
            assert_eq!(
                s.samples_for("quick", &values).is_some(),
                s.samples_for("full", &values).is_some(),
                "{}: quick/full sample coverage differs for {values:?}",
                s.id
            );
        }
    }
}

fn op_of(i: usize) -> CmpOp {
    [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][i % 4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A spec rendered as TOML parses back to the same criteria,
    /// samples, and axes.
    #[test]
    fn spec_toml_round_trips(
        seed in 0u64..1_000_000,
        threshold in -100.0f64..100.0,
        op_i in 0usize..4,
        quick_n in 1u32..10_000,
        full_n in 1u32..10_000,
    ) {
        let op = op_of(op_i);
        let src = format!(
            "master_seed = {seed}\n\n[[experiment]]\nid = \"E1\"\ntitle = \"t\"\n\
             runner = \"r\"\nsamples = {{ quick = {quick_n}, full = {full_n} }}\n\
             criteria = [\"m {} {threshold}\"]\n\n[[axis]]\nname = \"a\"\n\
             values = [\"x\", \"y\"]\n",
            op.as_str()
        );
        let file = spec::parse(&src).unwrap();
        prop_assert_eq!(file.master_seed, seed);
        let s = &file.specs[0];
        prop_assert_eq!(s.criteria[0].op, op);
        prop_assert!((s.criteria[0].threshold - threshold).abs() < 1e-9);
        prop_assert_eq!(s.samples_for("quick", &[]), Some(quick_n as usize));
        prop_assert_eq!(s.samples_for("full", &[]), Some(full_n as usize));
        prop_assert_eq!(s.variants().len(), 2);
    }

    /// The hand-rendered results JSON parses with the repo's own JSON
    /// parser and reproduces the run's values, criteria, and verdicts.
    #[test]
    fn results_json_round_trips(
        seed in 0u64..1_000_000,
        value in -1000.0f64..1000.0,
        threshold in -1000.0f64..1000.0,
        op_i in 0usize..4,
        samples_raw in 0usize..5000,
    ) {
        // The offline proptest stub has no `option` module; 0 stands
        // in for "runner reported no sample count".
        let samples = (samples_raw > 0).then_some(samples_raw);
        let op = op_of(op_i);
        let src = format!(
            "master_seed = {seed}\n[[experiment]]\nid = \"E1\"\ntitle = \"a \\\"quoted\\\" title\"\n\
             runner = \"r\"\ncriteria = [\"m {} {threshold}\"]\n",
            op.as_str()
        );
        let file = spec::parse(&src).unwrap();
        let s = file.specs[0].clone();
        let criterion = s.criteria[0].clone();
        let pass = criterion.eval(value);
        let results = RunResults {
            master_seed: seed,
            quick: true,
            experiments: vec![ExpResult {
                spec: s,
                variants: vec![VariantOutput {
                    axis: vec![("a".into(), "x".into())],
                    samples,
                    headers: vec!["H".into()],
                    rows: vec![vec!["cell".into()]],
                    notes: Vec::new(),
                    values: vec![("m".into(), value)],
                }],
                criteria: vec![CriterionOutcome {
                    criterion,
                    pass,
                    worst: Some(value),
                }],
            }],
        };
        let doc = Json::parse(results.render_json().trim_end()).unwrap();
        prop_assert_eq!(doc.get("master_seed").and_then(Json::as_f64), Some(seed as f64));
        prop_assert_eq!(doc.get("pass"), Some(&Json::Bool(pass)));
        let e = &doc.get("experiments").and_then(Json::as_arr).unwrap()[0];
        prop_assert_eq!(e.get("id").and_then(Json::as_str), Some("E1"));
        // The spec parser keeps strings verbatim (no escape
        // sequences), so the title round-trips backslashes and quotes
        // through json_escape / Json::parse unchanged.
        prop_assert_eq!(
            e.get("title").and_then(Json::as_str),
            Some(results.experiments[0].spec.title.as_str())
        );
        let v = &e.get("variants").and_then(Json::as_arr).unwrap()[0];
        prop_assert_eq!(
            v.get("axis").unwrap().get("a").and_then(Json::as_str),
            Some("x")
        );
        match samples {
            Some(n) => prop_assert_eq!(v.get("samples").and_then(Json::as_f64), Some(n as f64)),
            None => prop_assert_eq!(v.get("samples"), Some(&Json::Null)),
        }
        let m = v.get("values").unwrap().get("m").and_then(Json::as_f64).unwrap();
        prop_assert!((m - value).abs() < 1e-5, "value {value} re-read as {m}");
        let c = &e.get("criteria").and_then(Json::as_arr).unwrap()[0];
        prop_assert_eq!(c.get("op").and_then(Json::as_str), Some(op.as_str()));
        prop_assert_eq!(c.get("pass"), Some(&Json::Bool(pass)));
        let t = c.get("threshold").and_then(Json::as_f64).unwrap();
        prop_assert!((t - threshold).abs() < 1e-5);
    }
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

/// The golden-stability gate: the same invocation must produce
/// byte-identical output across runs — fixed seeds, no timestamps, no
/// iteration-order dependence. E2 exercises the biggest generator
/// (1.5k images at full scale) and renders percentages, so any
/// nondeterminism would show here.
#[test]
fn quick_e2_output_is_byte_stable_across_runs() {
    let a = repro(&["--experiments", "--only", "E2", "--quick"]);
    let b = repro(&["--experiments", "--only", "E2", "--quick"]);
    assert!(a.status.success(), "first run failed: {:?}", a.status);
    assert_eq!(a.status.code(), b.status.code());
    assert!(!a.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout),
        "repro --experiments --only E2 --quick must be deterministic"
    );
}

/// Criteria failures must exit nonzero: run the framework against a
/// spec whose threshold cannot hold. We can't inject a spec file via
/// the CLI (it ships compiled in), so this drives the library; the
/// CLI's exit-code mapping is one `if` on the same `pass()`.
#[test]
fn impossible_criterion_fails_the_run() {
    let src = "\
[[experiment]]
id = \"E7\"
title = \"soc\"
runner = \"soc-design\"
criteria = [\"e7_pick_loop >= 1000000\", \"absent_metric >= 1\"]
";
    let file = spec::parse(src).unwrap();
    let res = exp::run_specs(&file, true, None).unwrap();
    assert!(!res.pass());
    let text = res.render_text();
    assert!(text.contains("FAIL"), "{text}");
    assert!(text.contains("metric never reported"), "{text}");
}
