//! The declarative experiment framework behind `repro --experiments`.
//!
//! Experiments are *specs*, not code paths: `specs/experiments.toml`
//! declares each experiment's id, hypothesis, runner, variant axes,
//! per-scale sample counts, and pass criteria; this module parses the
//! file ([`spec`]), executes every variant with the repo's fixed
//! seeds, evaluates the criteria, and renders the results as text, as
//! a JSON document, and as the committed `EXPERIMENTS.md`
//! ([`RunResults::render_doc`]). The CI drift gate
//! ([`check_doc`]) re-runs everything at `--quick` scale and compares
//! the committed doc against the regenerated one — prose byte-exact,
//! measured digits masked, `stable = true` sections byte-exact
//! throughout.

pub mod spec;

use crate::composedemo;
use crate::experiments::{self, ExperimentOutput, E4_HEADERS, E9_HEADERS};
use perf_core::report::{pct, Table};
use perf_core::trace::json_escape;
use perf_core::CoreError;
use spec::{CmpOp, Criterion, ExpSpec, SpecFile};

/// The shipped spec file, compiled in so `repro --experiments` needs
/// no working directory.
pub const SPEC_SRC: &str = include_str!("../../specs/experiments.toml");

/// Parses the shipped spec file.
pub fn load() -> Result<SpecFile, CoreError> {
    spec::parse(SPEC_SRC)
}

/// One executed variant of one experiment.
pub struct VariantOutput {
    /// The axis point this variant ran at (empty for axis-free
    /// experiments).
    pub axis: Vec<(String, String)>,
    /// Resolved sample count, when the spec declares one.
    pub samples: Option<usize>,
    /// Table headers (identical across an experiment's variants).
    pub headers: Vec<String>,
    /// Table rows contributed by this variant.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes.
    pub notes: Vec<String>,
    /// Named measured values, checked by the criteria.
    pub values: Vec<(String, f64)>,
}

impl VariantOutput {
    fn from_output(out: ExperimentOutput, samples: Option<usize>) -> VariantOutput {
        VariantOutput {
            axis: Vec::new(),
            samples,
            headers: out.table.headers().to_vec(),
            rows: out.table.rows().to_vec(),
            notes: out.notes,
            values: out.values,
        }
    }

    /// `axis=value` rendering of the variant's axis point.
    pub fn axis_label(&self) -> String {
        self.axis
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Verdict on one criterion, evaluated over every variant value.
pub struct CriterionOutcome {
    /// The criterion as declared.
    pub criterion: Criterion,
    /// Whether every occurrence of the metric satisfied it. A metric
    /// reported by no variant fails (`worst` is `None`).
    pub pass: bool,
    /// The occurrence closest to (or furthest past) the threshold.
    pub worst: Option<f64>,
}

/// One experiment's spec, executed variants, and criteria verdicts.
pub struct ExpResult {
    /// The spec this result executed.
    pub spec: ExpSpec,
    /// One entry per axis point, in cartesian order.
    pub variants: Vec<VariantOutput>,
    /// One entry per declared criterion.
    pub criteria: Vec<CriterionOutcome>,
}

impl ExpResult {
    /// Whether every criterion passed.
    pub fn pass(&self) -> bool {
        self.criteria.iter().all(|c| c.pass)
    }

    /// Merges the per-variant row sets into one table.
    pub fn table(&self) -> Table {
        let headers = self
            .variants
            .first()
            .map(|v| v.headers.clone())
            .unwrap_or_default();
        let rows = self
            .variants
            .iter()
            .flat_map(|v| v.rows.iter().cloned())
            .collect();
        Table::from_parts(headers, rows)
    }

    /// Deduplicated notes across variants, in first-seen order.
    pub fn notes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for v in &self.variants {
            for n in &v.notes {
                if !out.contains(&n.as_str()) {
                    out.push(n);
                }
            }
        }
        out
    }
}

/// Results of one `run_specs` invocation.
pub struct RunResults {
    /// Master seed from the spec file (labels the artifact).
    pub master_seed: u64,
    /// Whether the run used `--quick` sample counts.
    pub quick: bool,
    /// One entry per executed experiment, in spec order.
    pub experiments: Vec<ExpResult>,
}

impl RunResults {
    /// Whether every experiment's criteria passed.
    pub fn pass(&self) -> bool {
        self.experiments.iter().all(ExpResult::pass)
    }
}

fn samples_or_err(s: &ExpSpec, scale: &str, axis_values: &[String]) -> Result<usize, CoreError> {
    s.samples_for(scale, axis_values).ok_or_else(|| {
        CoreError::Artifact(format!(
            "experiment {}: runner `{}` needs a `samples` entry for scale `{scale}`",
            s.id, s.runner
        ))
    })
}

/// Executes one variant of one experiment by dispatching its spec'd
/// runner name. Unknown runners are an error, not a skip: a spec that
/// names a runner this binary does not ship is a broken artifact.
pub fn run_variant(
    s: &ExpSpec,
    axis: &[(String, String)],
    quick: bool,
) -> Result<VariantOutput, CoreError> {
    let scale = if quick { "quick" } else { "full" };
    let axis_values: Vec<String> = axis.iter().map(|(_, v)| v.clone()).collect();
    let mut out = match s.runner.as_str() {
        "nl-claims" => VariantOutput::from_output(experiments::e1_nl_interfaces()?, None),
        "jpeg-program" => {
            let n = samples_or_err(s, scale, &axis_values)?;
            VariantOutput::from_output(experiments::e2_jpeg_program(n)?, Some(n))
        }
        "protoacc-program" => {
            let n = samples_or_err(s, scale, &axis_values)?;
            VariantOutput::from_output(experiments::e3_protoacc_program(n)?, Some(n))
        }
        "petri-table1" => {
            let n = samples_or_err(s, scale, &axis_values)?;
            let accel = axis_values.first().ok_or_else(|| {
                CoreError::Artifact(format!("experiment {}: petri-table1 needs an axis", s.id))
            })?;
            let (row, values) = experiments::e4_row(accel, n)?;
            VariantOutput {
                axis: Vec::new(),
                samples: Some(n),
                headers: E4_HEADERS.iter().map(|h| h.to_string()).collect(),
                rows: vec![row],
                notes: Vec::new(),
                values,
            }
        }
        "profiling-speedup" => {
            let n = samples_or_err(s, scale, &axis_values)?;
            VariantOutput::from_output(experiments::e5_profiling_speedup(n)?, Some(n))
        }
        "crossover" => VariantOutput::from_output(experiments::e6_crossover()?, None),
        "soc-design" => VariantOutput::from_output(experiments::e7_soc_design()?, None),
        "offload" => {
            let n = samples_or_err(s, scale, &axis_values)?;
            VariantOutput::from_output(experiments::e8_offload(n)?, Some(n))
        }
        "petri-ablation" => {
            let n = samples_or_err(s, scale, &axis_values)?;
            let net = axis_values.first().ok_or_else(|| {
                CoreError::Artifact(format!("experiment {}: petri-ablation needs an axis", s.id))
            })?;
            let (row, values) = experiments::e9_row(net, n)?;
            VariantOutput {
                axis: Vec::new(),
                samples: Some(n),
                headers: E9_HEADERS.iter().map(|h| h.to_string()).collect(),
                rows: vec![row],
                notes: Vec::new(),
                values,
            }
        }
        "autotune" => VariantOutput::from_output(experiments::e10_autotune_quality()?, None),
        "noc-compose" => VariantOutput::from_output(experiments::e11_noc_composition()?, None),
        "conformance" => {
            let subject = axis_values.first().ok_or_else(|| {
                CoreError::Artifact(format!("experiment {}: conformance needs an axis", s.id))
            })?;
            conformance_variant(subject, quick)?
        }
        "svcbench" => svcbench_variant(quick),
        "compose-smoke" => {
            let topology = axis_values.first().ok_or_else(|| {
                CoreError::Artifact(format!("experiment {}: compose-smoke needs an axis", s.id))
            })?;
            compose_variant(topology, quick)?
        }
        other => {
            return Err(CoreError::Artifact(format!(
                "experiment {}: unknown runner `{other}`",
                s.id
            )))
        }
    };
    out.axis = axis.to_vec();
    Ok(out)
}

/// E12: one conformance subject as a fixed-column table row.
fn conformance_variant(subject: &str, quick: bool) -> Result<VariantOutput, CoreError> {
    let r = perf_conformance::run_named(subject, quick)
        .ok_or_else(|| CoreError::Artifact(format!("conformance has no subject `{subject}`")))?;
    let worst_avg = r.nominal.iter().map(|c| c.avg).fold(0.0, f64::max);
    let worst_max = r.nominal.iter().map(|c| c.max).fold(0.0, f64::max);
    let bounds_n: usize = r.nominal.iter().map(|c| c.bounds_n).sum();
    let bounds_within: usize = r.nominal.iter().map(|c| c.bounds_within).sum();
    let nl_hold = r.nl.iter().filter(|n| n.holds).count();
    let in_contract = r.faults.iter().filter(|f| f.in_contract).count();
    let pass = r.pass();
    Ok(VariantOutput {
        axis: Vec::new(),
        samples: None,
        headers: [
            "Subject",
            "Cases (adv)",
            "Worst avg err",
            "Worst max err",
            "Bounds",
            "NL claims",
            "Fault regions",
            "Verdict",
        ]
        .iter()
        .map(|h| h.to_string())
        .collect(),
        rows: vec![vec![
            r.name.into(),
            format!("{} ({})", r.cases, r.adversarial),
            pct(worst_avg),
            pct(worst_max),
            format!("{bounds_within}/{bounds_n}"),
            format!("{nl_hold}/{} hold", r.nl.len()),
            format!("{} ({in_contract} in-contract)", r.faults.len()),
            if pass { "ok" } else { "FAIL" }.into(),
        ]],
        notes: Vec::new(),
        values: vec![("e12_pass".into(), f64::from(u8::from(pass)))],
    })
}

/// E13: the serving-layer sweep, one table row per measured point.
/// The dequeue-path diagnosis is deliberately left out of the table:
/// its text depends on the machine's hardware parallelism, which
/// would break the drift gate's masked comparison.
fn svcbench_variant(quick: bool) -> VariantOutput {
    let r = perf_service::svcbench::run(quick);
    let rows = r
        .points
        .iter()
        .map(|p| {
            vec![
                if p.warm { "warm" } else { "cold" }.into(),
                p.topology.clone(),
                format!("{}", p.workers),
                format!("{}", p.batch),
                format!("{}", p.offered),
                format!("{:.0}", p.qps),
                format!("{}", p.cache_hits),
            ]
        })
        .collect();
    VariantOutput {
        axis: Vec::new(),
        samples: None,
        headers: [
            "Phase",
            "Topology",
            "Workers",
            "Batch",
            "Offered",
            "QPS",
            "Cache hits",
        ]
        .iter()
        .map(|h| h.to_string())
        .collect(),
        rows,
        notes: vec![format!(
            "headline: warm batched over cold unbatched = {:.1}x ({:.0} qps over {:.0} qps), \
             computed over the mixed-4 rows only",
            r.speedup, r.best_batched_qps, r.baseline_qps
        )],
        values: vec![
            ("e13_speedup".into(), r.speedup),
            ("e13_baseline_qps".into(), r.baseline_qps),
            ("e13_best_batched_qps".into(), r.best_batched_qps),
            ("e13_scaling_ok".into(), f64::from(u8::from(r.scaling_ok()))),
        ],
    }
}

/// E14: one composed topology as a fixed-column table row.
fn compose_variant(topology: &str, quick: bool) -> Result<VariantOutput, CoreError> {
    let src = match topology {
        "chain" => composedemo::DEMO_TOPOLOGY,
        "dag" => composedemo::DEMO_DAG_TOPOLOGY,
        other => {
            return Err(CoreError::Artifact(format!(
                "compose-smoke has no topology `{other}` (have: chain, dag)"
            )))
        }
    };
    let m = composedemo::topology_metrics(src, quick)?;
    let lint_clean = m.config_lint_clean && m.net_lint_clean;
    let engines_agree = m.reference == m.stepper;
    let nl_contains = m.nl_lo <= m.measured && m.measured <= m.nl_hi;
    Ok(VariantOutput {
        axis: Vec::new(),
        samples: None,
        headers: [
            "Topology",
            "Chain",
            "Stages",
            "Edges",
            "Lint",
            "Petri ref = stepper",
            "Measured",
            "NL bounds",
            "Program tier",
        ]
        .iter()
        .map(|h| h.to_string())
        .collect(),
        rows: vec![vec![
            topology.into(),
            m.label.clone(),
            format!("{}", m.stages),
            format!("{}", m.edges),
            if lint_clean { "clean" } else { "FAIL" }.into(),
            format!("{} = {}", m.reference, m.stepper),
            format!("{:.0}", m.measured),
            format!("[{:.0}, {:.0}]", m.nl_lo, m.nl_hi),
            format!("{:.0} ({} err)", m.prog, pct(m.prog_rel_err())),
        ]],
        notes: Vec::new(),
        values: vec![
            ("e14_lint_clean".into(), f64::from(u8::from(lint_clean))),
            (
                "e14_engines_agree".into(),
                f64::from(u8::from(engines_agree)),
            ),
            ("e14_nl_contains".into(), f64::from(u8::from(nl_contains))),
            ("e14_prog_rel_err".into(), m.prog_rel_err()),
        ],
    })
}

fn evaluate(s: &ExpSpec, variants: &[VariantOutput]) -> Vec<CriterionOutcome> {
    s.criteria
        .iter()
        .map(|c| {
            let vals: Vec<f64> = variants
                .iter()
                .flat_map(|v| v.values.iter())
                .filter(|(k, _)| *k == c.metric)
                .map(|&(_, v)| v)
                .collect();
            if vals.is_empty() {
                return CriterionOutcome {
                    criterion: c.clone(),
                    pass: false,
                    worst: None,
                };
            }
            // The "worst" occurrence is the one an upper bound is
            // tightest on (max for < / <=) or a lower bound is
            // loosest on (min for > / >=).
            let worst = match c.op {
                CmpOp::Lt | CmpOp::Le => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                CmpOp::Gt | CmpOp::Ge => vals.iter().copied().fold(f64::INFINITY, f64::min),
            };
            CriterionOutcome {
                criterion: c.clone(),
                pass: vals.iter().all(|&x| x.is_finite() && c.eval(x)),
                worst: Some(worst),
            }
        })
        .collect()
}

/// Runs every spec (or just `only`, matched case-insensitively),
/// evaluating criteria as it goes. Execution errors abort; criteria
/// *failures* do not — they are verdicts in the result, and the CLI
/// turns them into a nonzero exit.
pub fn run_specs(
    file: &SpecFile,
    quick: bool,
    only: Option<&str>,
) -> Result<RunResults, CoreError> {
    if let Some(id) = only {
        if file.find(id).is_none() {
            return Err(CoreError::Artifact(format!(
                "unknown experiment `{id}` (have: E1..E{})",
                file.specs.len()
            )));
        }
    }
    let mut results = Vec::new();
    for s in &file.specs {
        if let Some(id) = only {
            if !s.id.eq_ignore_ascii_case(id) {
                continue;
            }
        }
        let mut variants = Vec::new();
        for axis in s.variants() {
            variants.push(run_variant(s, &axis, quick)?);
        }
        for v in &variants[1..] {
            if v.headers != variants[0].headers {
                return Err(CoreError::Artifact(format!(
                    "experiment {}: variants disagree on table headers",
                    s.id
                )));
            }
        }
        let criteria = evaluate(s, &variants);
        results.push(ExpResult {
            spec: s.clone(),
            variants,
            criteria,
        });
    }
    Ok(RunResults {
        master_seed: file.master_seed,
        quick,
        experiments: results,
    })
}

fn criterion_line(c: &CriterionOutcome) -> String {
    match c.worst {
        Some(w) => format!(
            "`{}` — {} (worst {})",
            c.criterion.render(),
            if c.pass { "ok" } else { "FAIL" },
            fmt_value(w)
        ),
        None => format!("`{}` — FAIL (metric never reported)", c.criterion.render()),
    }
}

/// Fixed-precision value rendering for criteria lines and JSON:
/// enough digits to be meaningful, few enough to stay readable.
fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    if v == v.trunc() && v.abs() < 1e12 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

impl RunResults {
    /// Renders the run as terminal text.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "experiments ({} scale, master seed {}): {} spec(s)\n\n",
            if self.quick { "quick" } else { "full" },
            self.master_seed,
            self.experiments.len()
        );
        for e in &self.experiments {
            out.push_str(&format!("== {} — {} ==\n", e.spec.id, e.spec.title));
            out.push_str(&format!("{}", e.table()));
            for n in e.notes() {
                out.push_str(&format!("note: {n}\n"));
            }
            for c in &e.criteria {
                out.push_str(&format!(
                    "  {}  {}\n",
                    if c.pass { "ok  " } else { "FAIL" },
                    criterion_line(c)
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "experiments: {}\n",
            if self.pass() { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// Renders the run as a JSON document (hand-rendered, like every
    /// other artifact in the repo).
    pub fn render_json(&self) -> String {
        let exps: Vec<String> = self
            .experiments
            .iter()
            .map(|e| {
                let variants: Vec<String> = e
                    .variants
                    .iter()
                    .map(|v| {
                        let axis: Vec<String> = v
                            .axis
                            .iter()
                            .map(|(k, val)| {
                                format!("\"{}\":\"{}\"", json_escape(k), json_escape(val))
                            })
                            .collect();
                        let values: Vec<String> = v
                            .values
                            .iter()
                            .map(|(k, val)| format!("\"{}\":{}", json_escape(k), json_num(*val)))
                            .collect();
                        let samples = match v.samples {
                            Some(n) => format!("{n}"),
                            None => "null".to_string(),
                        };
                        format!(
                            "{{\"axis\":{{{}}},\"samples\":{samples},\"values\":{{{}}}}}",
                            axis.join(","),
                            values.join(",")
                        )
                    })
                    .collect();
                let criteria: Vec<String> = e
                    .criteria
                    .iter()
                    .map(|c| {
                        format!(
                            "{{\"metric\":\"{}\",\"op\":\"{}\",\"threshold\":{},\"pass\":{},\"worst\":{}}}",
                            json_escape(&c.criterion.metric),
                            c.criterion.op.as_str(),
                            json_num(c.criterion.threshold),
                            c.pass,
                            c.worst.map_or("null".to_string(), json_num)
                        )
                    })
                    .collect();
                format!(
                    "{{\"id\":\"{}\",\"title\":\"{}\",\"runner\":\"{}\",\"stable\":{},\
                     \"volatile\":{},\"pass\":{},\"variants\":[{}],\"criteria\":[{}]}}",
                    json_escape(&e.spec.id),
                    json_escape(&e.spec.title),
                    json_escape(&e.spec.runner),
                    e.spec.stable,
                    e.spec.volatile,
                    e.pass(),
                    variants.join(","),
                    criteria.join(",")
                )
            })
            .collect();
        format!(
            "{{\"master_seed\":{},\"quick\":{},\"pass\":{},\"experiments\":[{}]}}\n",
            self.master_seed,
            self.quick,
            self.pass(),
            exps.join(",")
        )
    }

    /// Renders the committed `EXPERIMENTS.md`: a static provenance
    /// header and intro, one section per experiment (hypothesis,
    /// merged variant table, notes, criteria verdicts), and a static
    /// "Reproducing" tail. Everything non-numeric is identical across
    /// scales so [`check_doc`] can compare prose byte-for-byte.
    pub fn render_doc(&self) -> String {
        let mut out = String::from(
            "<!--\n  GENERATED FILE - regenerated from declarative specs; do not hand-edit numbers.\n\
             \x20 Command:  cargo run --release -p perf-bench --bin repro -- --experiments --write EXPERIMENTS.md\n\
             \x20 Specs:    crates/bench/specs/experiments.toml (master seed 20230622)\n\
             \x20 CI gate:  scripts/check.sh re-runs at --quick scale and diffs via `--check EXPERIMENTS.md`\n-->\n\n",
        );
        out.push_str("# Experiments\n\n");
        out.push_str(
            "Every section below is regenerated from the declarative specs in\n\
             `crates/bench/specs/experiments.toml` by `perf_bench::exp` (see\n\
             DESIGN.md, \"Experiments\"): one section per `[[experiment]]`, one\n\
             table row per variant-axis point, pass criteria evaluated on every\n\
             run — a criterion failure is a nonzero `repro` exit. Committed\n\
             numbers come from a full-scale run; the CI drift gate re-runs the\n\
             suite at `--quick` scale and compares these sections with measured\n\
             digits masked (sections marked `stable` in the spec must match\n\
             byte-for-byte).\n\n",
        );
        for e in &self.experiments {
            out.push_str(&format!("## {} — {}\n\n", e.spec.id, e.spec.title));
            if !e.spec.hypothesis.is_empty() {
                out.push_str(&e.spec.hypothesis);
                out.push_str("\n\n");
            }
            out.push_str(&e.table().to_markdown());
            out.push('\n');
            for n in e.notes() {
                out.push_str(&format!("> {n}\n"));
            }
            if !e.notes().is_empty() {
                out.push('\n');
            }
            let marks: Vec<String> = e.criteria.iter().map(criterion_line).collect();
            out.push_str(&format!("Criteria: {}\n\n", marks.join(" · ")));
        }
        out.push_str(
            "## Reproducing the numbers\n\n\
             ```bash\n\
             # full scale (minutes); rewrites this file in place\n\
             cargo run --release -p perf-bench --bin repro -- --experiments --write EXPERIMENTS.md\n\n\
             # CI scale + drift gate against the committed file\n\
             cargo run --release -p perf-bench --bin repro -- --experiments --quick --check EXPERIMENTS.md\n\n\
             # one experiment, to stdout\n\
             cargo run --release -p perf-bench --bin repro -- --experiments --only E4 --quick\n\n\
             # machine-readable results\n\
             cargo run --release -p perf-bench --bin repro -- --experiments --quick --json\n\
             ```\n\n\
             Each invocation exits nonzero if any pass criterion fails. The\n\
             other `repro` modes (`--conformance`, `--compose`, `--trace`)\n\
             run outside this framework; Chrome\n\
             traces for ui.perfetto.dev come from `repro --trace --perfetto\n\
             <out.json>` (see README).\n",
        );
        out
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        fmt_value(v)
    } else {
        "null".to_string()
    }
}

/// Replaces each maximal run of ASCII digits with a single `#`, and
/// collapses runs of spaces (and of `-`) to one character, so `1.35%`
/// and `12.7%` compare equal — and so do markdown cells and `|---|`
/// separator rows whose padding width follows the numbers in the
/// column. Every other character stays significant; prose dashes are
/// em dashes and unaffected.
pub fn mask_digits(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut run: Option<char> = None;
    for c in s.chars() {
        let class = match c {
            '0'..='9' => Some('#'),
            ' ' => Some(' '),
            '-' => Some('-'),
            _ => None,
        };
        match class {
            Some(rep) => {
                if run != Some(rep) {
                    out.push(rep);
                    run = Some(rep);
                }
            }
            None => {
                run = None;
                out.push(c);
            }
        }
    }
    out
}

/// Splits a rendered doc into its preamble and `## E<n>` sections
/// (each section body includes its heading line and runs to the next
/// experiment heading or end of file — trailing non-experiment
/// headings like "Reproducing" belong to the last section).
fn split_sections(doc: &str) -> (String, Vec<(String, String)>) {
    let mut pre = String::new();
    let mut sections: Vec<(String, String)> = Vec::new();
    for line in doc.lines() {
        if let Some(rest) = line.strip_prefix("## E") {
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            if !digits.is_empty() {
                sections.push((format!("E{digits}"), String::new()));
            }
        }
        match sections.last_mut() {
            Some((_, body)) => {
                body.push_str(line);
                body.push('\n');
            }
            None => {
                pre.push_str(line);
                pre.push('\n');
            }
        }
    }
    (pre, sections)
}

fn first_diff(what: &str, committed: &str, regenerated: &str, masked: bool) -> Option<String> {
    let norm = |s: &str| {
        if masked {
            mask_digits(s)
        } else {
            s.to_string()
        }
    };
    let a: Vec<&str> = committed.lines().collect();
    let b: Vec<&str> = regenerated.lines().collect();
    for i in 0..a.len().max(b.len()) {
        let (la, lb) = (
            a.get(i).copied().unwrap_or(""),
            b.get(i).copied().unwrap_or(""),
        );
        if norm(la) != norm(lb) {
            return Some(format!(
                "{what} drifted at line {} ({}):\n  committed:   {la}\n  regenerated: {lb}",
                i + 1,
                if masked {
                    "digit-masked compare"
                } else {
                    "byte compare"
                }
            ));
        }
    }
    None
}

/// The CI drift gate: compares the committed `EXPERIMENTS.md` against
/// a regenerated one. The preamble and every `stable = true` section
/// must match byte-for-byte; other sections are compared with digit
/// runs masked, so quick-scale sample counts and re-measured numbers
/// don't trip the gate while any prose, structure, or formatting
/// drift does. Returns the first difference as an error message.
pub fn check_doc(committed: &str, regenerated: &str, file: &SpecFile) -> Result<(), String> {
    let (pre_c, secs_c) = split_sections(committed);
    let (pre_r, secs_r) = split_sections(regenerated);
    if let Some(d) = first_diff("preamble", &pre_c, &pre_r, false) {
        return Err(d);
    }
    let ids_c: Vec<&str> = secs_c.iter().map(|(id, _)| id.as_str()).collect();
    let ids_r: Vec<&str> = secs_r.iter().map(|(id, _)| id.as_str()).collect();
    if ids_c != ids_r {
        return Err(format!(
            "section sets differ: committed has [{}], regenerated has [{}]",
            ids_c.join(", "),
            ids_r.join(", ")
        ));
    }
    for ((id, body_c), (_, body_r)) in secs_c.iter().zip(secs_r.iter()) {
        let stable = file.find(id).map(|s| s.stable).unwrap_or(false);
        if let Some(d) = first_diff(&format!("section {id}"), body_c, body_r, !stable) {
            return Err(d);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_collapses_digit_runs() {
        assert_eq!(mask_digits("1.35% (15.84%)"), "#.#% (#.#%)");
        assert_eq!(mask_digits("n=1500"), mask_digits("n=120"));
        assert_ne!(mask_digits("1.35%"), mask_digits("1.35x"));
        // Markdown padding follows the numbers in a column, so cell
        // padding and `|---|` separators must mask too.
        assert_eq!(mask_digits("| n    |"), mask_digits("| n   |"));
        assert_eq!(mask_digits("|------|"), mask_digits("|-----|"));
        assert_ne!(mask_digits("| n |"), mask_digits("| m |"));
    }

    #[test]
    fn split_assigns_trailing_headings_to_last_section() {
        let doc =
            "# T\n\nintro\n\n## E1 — a\n\nbody\n\n## E2 — b\n\nmore\n\n## Reproducing\n\nbash\n";
        let (pre, secs) = split_sections(doc);
        assert!(pre.contains("intro"));
        assert_eq!(secs.len(), 2);
        assert_eq!(secs[0].0, "E1");
        assert!(secs[1].1.contains("Reproducing"));
    }

    #[test]
    fn check_doc_masks_numbers_but_not_prose() {
        let file = spec::parse(
            "[[experiment]]\nid = \"E1\"\ntitle = \"t\"\nrunner = \"r\"\nstable = true\n\
             [[experiment]]\nid = \"E2\"\ntitle = \"t\"\nrunner = \"r\"\n",
        )
        .unwrap();
        let committed = "pre\n\n## E1 — t\n\nexact 42\n\n## E2 — t\n\navg 1.35%\n";
        let renumbered = "pre\n\n## E1 — t\n\nexact 42\n\n## E2 — t\n\navg 9.99%\n";
        assert!(check_doc(committed, renumbered, &file).is_ok());
        let reworded = "pre\n\n## E1 — t\n\nexact 42\n\n## E2 — t\n\nmean 1.35%\n";
        assert!(check_doc(committed, reworded, &file).is_err());
        let stable_drift = "pre\n\n## E1 — t\n\nexact 43\n\n## E2 — t\n\navg 1.35%\n";
        let e = check_doc(committed, stable_drift, &file).unwrap_err();
        assert!(
            e.contains("section E1") && e.contains("byte compare"),
            "{e}"
        );
        let pre_drift = "PRE\n\n## E1 — t\n\nexact 42\n\n## E2 — t\n\navg 1.35%\n";
        assert!(check_doc(committed, pre_drift, &file)
            .unwrap_err()
            .contains("preamble"));
    }

    #[test]
    fn criteria_fail_on_missing_metric_and_nonfinite_values() {
        let s = spec::parse(
            "[[experiment]]\nid = \"E1\"\ntitle = \"t\"\nrunner = \"r\"\n\
             criteria = [\"present < 1\", \"absent >= 1\", \"nan < 1\"]\n",
        )
        .unwrap();
        let variants = vec![VariantOutput {
            axis: Vec::new(),
            samples: None,
            headers: Vec::new(),
            rows: Vec::new(),
            notes: Vec::new(),
            values: vec![("present".into(), 0.5), ("nan".into(), f64::NAN)],
        }];
        let out = evaluate(&s.specs[0], &variants);
        assert!(out[0].pass);
        assert!(!out[1].pass && out[1].worst.is_none());
        assert!(!out[2].pass, "non-finite values must not pass");
    }

    #[test]
    fn quick_e7_runs_through_the_framework() {
        let file = load().unwrap();
        let res = run_specs(&file, true, Some("e7")).unwrap();
        assert_eq!(res.experiments.len(), 1);
        let e = &res.experiments[0];
        assert_eq!(e.spec.id, "E7");
        assert!(e.pass(), "{}", res.render_text());
        let doc = res.render_doc();
        assert!(doc.contains("## E7 —"));
        assert!(doc.contains("Criteria:"));
        let json = res.render_json();
        assert!(json.contains("\"id\":\"E7\""));
        assert!(json.contains("\"e7_pick_loop\""));
    }

    #[test]
    fn quick_e14_merges_both_topology_variants() {
        let file = load().unwrap();
        let res = run_specs(&file, true, Some("E14")).unwrap();
        let e = &res.experiments[0];
        assert_eq!(e.variants.len(), 2);
        assert!(e.pass(), "{}", res.render_text());
        let t = e.table();
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.rows()[0][0], "chain");
        assert_eq!(t.rows()[1][0], "dag");
    }
}
