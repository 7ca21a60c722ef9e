//! The experiment-spec mini-TOML parser.
//!
//! Same dialect family as `perf_compose::topology` (the build has no
//! TOML crate): top-level `key = value` pairs, `[[experiment]]` /
//! `[[axis]]` array-of-table headers, quoted strings, `"""` multiline
//! strings, `["a", "b"]` string lists, `{ k = 1 }` inline numeric
//! tables, booleans, and `#` comments. Anything else is a parse error
//! with a line number. `[[axis]]` stanzas attach to the preceding
//! `[[experiment]]`; `criteria` may repeat to append.

use perf_core::CoreError;

/// Comparison operator of a pass criterion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The spec-file spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// One pass criterion: `metric op threshold`, checked against every
/// variant that reports `metric`.
#[derive(Clone, Debug, PartialEq)]
pub struct Criterion {
    /// Metric name as emitted by the runner (e.g. `e2_lat_avg`).
    pub metric: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Threshold on the right-hand side.
    pub threshold: f64,
}

impl Criterion {
    /// Whether a measured value satisfies the criterion.
    pub fn eval(&self, x: f64) -> bool {
        match self.op {
            CmpOp::Lt => x < self.threshold,
            CmpOp::Le => x <= self.threshold,
            CmpOp::Gt => x > self.threshold,
            CmpOp::Ge => x >= self.threshold,
        }
    }

    /// The canonical `metric op threshold` rendering.
    pub fn render(&self) -> String {
        format!("{} {} {}", self.metric, self.op.as_str(), self.threshold)
    }
}

/// One variant axis: the experiment runs once per value.
#[derive(Clone, Debug, PartialEq)]
pub struct Axis {
    /// Axis name (becomes the variant's context key).
    pub name: String,
    /// Axis values, in declaration order.
    pub values: Vec<String>,
}

/// One declarative experiment.
#[derive(Clone, Debug)]
pub struct ExpSpec {
    /// Experiment id (`E1`…); unique, uppercase `E` + digits.
    pub id: String,
    /// Section title for EXPERIMENTS.md.
    pub title: String,
    /// Runner name resolved by `perf_bench::exp::run_variant`.
    pub runner: String,
    /// Hypothesis / commentary prose (markdown).
    pub hypothesis: String,
    /// Output is byte-identical across scales and runs: the drift
    /// gate compares these sections exactly instead of digit-masked.
    pub stable: bool,
    /// Numbers depend on wall-clock time (speedups, qps).
    pub volatile: bool,
    /// Per-scale sample counts: `quick`/`full`, optionally
    /// `<scale>_<axisvalue>` for per-variant overrides.
    pub samples: Vec<(String, f64)>,
    /// Pass criteria over the emitted metric values.
    pub criteria: Vec<Criterion>,
    /// Variant axes; the experiment runs once per cartesian point.
    pub axes: Vec<Axis>,
    /// 1-based line of the `[[experiment]]` header.
    pub line: usize,
}

impl ExpSpec {
    fn blank(line: usize) -> ExpSpec {
        ExpSpec {
            id: String::new(),
            title: String::new(),
            runner: String::new(),
            hypothesis: String::new(),
            stable: false,
            volatile: false,
            samples: Vec::new(),
            criteria: Vec::new(),
            axes: Vec::new(),
            line,
        }
    }

    /// Resolves the sample count for one variant at one scale
    /// (`"quick"` / `"full"`): the first `<scale>_<axisvalue>` key
    /// wins, then the bare `<scale>` key; `None` when the spec gives
    /// no counts (the runner uses its own default).
    pub fn samples_for(&self, scale: &str, axis_values: &[String]) -> Option<usize> {
        let lookup = |key: &str| {
            self.samples
                .iter()
                .find(|(k, _)| k == key)
                .map(|&(_, v)| v as usize)
        };
        axis_values
            .iter()
            .find_map(|v| lookup(&format!("{scale}_{v}")))
            .or_else(|| lookup(scale))
    }

    /// Every variant of this experiment: the cartesian product of its
    /// axes as `(axis_name, value)` rows; a single empty variant when
    /// the experiment has no axes.
    pub fn variants(&self) -> Vec<Vec<(String, String)>> {
        let mut out: Vec<Vec<(String, String)>> = vec![Vec::new()];
        for axis in &self.axes {
            let mut next = Vec::with_capacity(out.len() * axis.values.len());
            for prefix in &out {
                for v in &axis.values {
                    let mut row = prefix.clone();
                    row.push((axis.name.clone(), v.clone()));
                    next.push(row);
                }
            }
            out = next;
        }
        out
    }
}

/// A parsed spec file.
#[derive(Clone, Debug)]
pub struct SpecFile {
    /// The master seed named in the provenance header; individual
    /// runners derive their fixed seeds from their own constants, this
    /// one labels the artifact.
    pub master_seed: u64,
    /// Experiments in declaration order.
    pub specs: Vec<ExpSpec>,
}

impl SpecFile {
    /// Looks an experiment up by id, case-insensitively.
    pub fn find(&self, id: &str) -> Option<&ExpSpec> {
        self.specs.iter().find(|s| s.id.eq_ignore_ascii_case(id))
    }
}

fn err(line: usize, msg: impl std::fmt::Display) -> CoreError {
    CoreError::Artifact(format!("experiments line {}: {msg}", line + 1))
}

/// Cuts a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str, line: usize) -> Result<String, CoreError> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') && !v.starts_with("\"\"\"") {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(err(line, format!("expected a quoted string, got `{v}`")))
    }
}

fn parse_number(value: &str, line: usize) -> Result<f64, CoreError> {
    let v = value.trim();
    v.parse::<f64>()
        .map_err(|_| err(line, format!("expected a number, got `{v}`")))
}

fn parse_bool(value: &str, line: usize) -> Result<bool, CoreError> {
    match value.trim() {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(err(line, format!("expected true/false, got `{other}`"))),
    }
}

/// Parses `{ k = 1, j = 2 }` with positive-integer values (sample
/// counts; fractional or non-positive counts are rejected, not
/// truncated).
fn parse_samples(value: &str, line: usize) -> Result<Vec<(String, f64)>, CoreError> {
    let v = value.trim();
    let inner = v
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| {
            err(
                line,
                format!("expected an inline table `{{ k = v }}`, got `{v}`"),
            )
        })?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (k, val) = part.split_once('=').ok_or_else(|| {
            err(
                line,
                format!("expected `key = number` in table, got `{part}`"),
            )
        })?;
        let n = parse_number(val, line)?;
        if !n.is_finite() || n.fract() != 0.0 || n < 1.0 {
            return Err(err(
                line,
                format!("sample count `{}` must be a positive integer", val.trim()),
            ));
        }
        out.push((k.trim().to_string(), n));
    }
    Ok(out)
}

/// Parses `["a", "b"]` (single line, quoted strings).
fn parse_string_list(value: &str, line: usize) -> Result<Vec<String>, CoreError> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(line, format!("expected a list `[\"a\", …]`, got `{v}`")))?;
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in inner.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                if !cur.trim().is_empty() {
                    out.push(parse_string(&cur, line)?);
                }
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if in_str {
        return Err(err(line, "unterminated string in list"));
    }
    if !cur.trim().is_empty() {
        out.push(parse_string(&cur, line)?);
    }
    Ok(out)
}

/// Parses one `metric op threshold` criterion string.
fn parse_criterion(s: &str, line: usize) -> Result<Criterion, CoreError> {
    let parts: Vec<&str> = s.split_whitespace().collect();
    let [metric, op, threshold] = parts.as_slice() else {
        return Err(err(
            line,
            format!("criterion `{s}` must be `metric op threshold`"),
        ));
    };
    let op = match *op {
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        other => {
            return Err(err(
                line,
                format!("unknown operator `{other}` in criterion `{s}` (have: < <= > >=)"),
            ))
        }
    };
    let threshold = threshold
        .parse::<f64>()
        .map_err(|_| err(line, format!("bad threshold in criterion `{s}`")))?;
    if metric.is_empty()
        || !metric
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        return Err(err(
            line,
            format!("bad metric name `{metric}` in criterion `{s}`"),
        ));
    }
    Ok(Criterion {
        metric: metric.to_string(),
        op,
        threshold,
    })
}

/// Which array-of-tables stanza the parser is inside.
enum Section {
    Top,
    Experiment,
    Axis,
}

/// Parses a spec file. Errors name the offending line:
/// `experiments line N: …`.
pub fn parse(src: &str) -> Result<SpecFile, CoreError> {
    let mut master_seed: u64 = 0;
    let mut specs: Vec<ExpSpec> = Vec::new();
    let mut section = Section::Top;
    let lines: Vec<&str> = src.lines().collect();
    let mut ln = 0usize;
    while ln < lines.len() {
        let raw = lines[ln];
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            ln += 1;
            continue;
        }
        if line == "[[experiment]]" {
            specs.push(ExpSpec::blank(ln + 1));
            section = Section::Experiment;
            ln += 1;
            continue;
        }
        if line == "[[axis]]" {
            let Some(exp) = specs.last_mut() else {
                return Err(err(ln, "[[axis]] before any [[experiment]]"));
            };
            exp.axes.push(Axis {
                name: String::new(),
                values: Vec::new(),
            });
            section = Section::Axis;
            ln += 1;
            continue;
        }
        if line.starts_with('[') {
            return Err(err(
                ln,
                format!("unknown table `{line}`; only [[experiment]] and [[axis]]"),
            ));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err(ln, "expected `key = value`"))?;
        let key = key.trim();
        // Multiline strings: `key = """` opens; lines are taken
        // verbatim (no comment stripping) until a line that is
        // exactly `"""`.
        let value = if value.trim() == "\"\"\"" {
            let start = ln;
            let mut body = String::new();
            loop {
                ln += 1;
                match lines.get(ln) {
                    None => return Err(err(start, "unterminated multiline string")),
                    Some(l) if l.trim() == "\"\"\"" => break,
                    Some(l) => {
                        body.push_str(l);
                        body.push('\n');
                    }
                }
            }
            MultiOr::Multi(body.trim().to_string())
        } else {
            MultiOr::Single(value.to_string())
        };
        match section {
            Section::Top => match key {
                "master_seed" => {
                    let n = parse_number(value.single(ln)?, ln)?;
                    if !n.is_finite() || n.fract() != 0.0 || n < 0.0 {
                        return Err(err(ln, "master_seed must be a non-negative integer"));
                    }
                    master_seed = n as u64;
                }
                other => {
                    return Err(err(
                        ln,
                        format!("unknown top-level key `{other}` (before any [[experiment]])"),
                    ))
                }
            },
            Section::Experiment => {
                let exp = specs.last_mut().expect("in an [[experiment]] stanza");
                match key {
                    "id" => exp.id = parse_string(value.single(ln)?, ln)?,
                    "title" => exp.title = parse_string(value.single(ln)?, ln)?,
                    "runner" => exp.runner = parse_string(value.single(ln)?, ln)?,
                    "hypothesis" => exp.hypothesis = value.text(ln)?,
                    "stable" => exp.stable = parse_bool(value.single(ln)?, ln)?,
                    "volatile" => exp.volatile = parse_bool(value.single(ln)?, ln)?,
                    "samples" => exp.samples = parse_samples(value.single(ln)?, ln)?,
                    "criteria" => {
                        for c in parse_string_list(value.single(ln)?, ln)? {
                            exp.criteria.push(parse_criterion(&c, ln)?);
                        }
                    }
                    other => return Err(err(ln, format!("unknown experiment key `{other}`"))),
                }
            }
            Section::Axis => {
                let axis = specs
                    .last_mut()
                    .and_then(|e| e.axes.last_mut())
                    .expect("in an [[axis]] stanza");
                match key {
                    "name" => axis.name = parse_string(value.single(ln)?, ln)?,
                    "values" => axis.values = parse_string_list(value.single(ln)?, ln)?,
                    other => return Err(err(ln, format!("unknown axis key `{other}`"))),
                }
            }
        }
        ln += 1;
    }
    validate(&specs)?;
    Ok(SpecFile { master_seed, specs })
}

/// A single-line value or a collected multiline string.
enum MultiOr {
    Single(String),
    Multi(String),
}

impl MultiOr {
    fn single(&self, line: usize) -> Result<&str, CoreError> {
        match self {
            MultiOr::Single(s) => Ok(s),
            MultiOr::Multi(_) => Err(err(line, "this key does not accept a multiline string")),
        }
    }

    fn text(&self, line: usize) -> Result<String, CoreError> {
        match self {
            MultiOr::Single(s) => parse_string(s, line),
            MultiOr::Multi(s) => Ok(s.clone()),
        }
    }
}

fn validate(specs: &[ExpSpec]) -> Result<(), CoreError> {
    if specs.is_empty() {
        return Err(CoreError::Artifact(
            "experiments: no [[experiment]] stanzas".to_string(),
        ));
    }
    for (i, s) in specs.iter().enumerate() {
        let at = s.line.saturating_sub(1);
        let id_ok = s.id.len() >= 2
            && s.id.starts_with('E')
            && s.id[1..].chars().all(|c| c.is_ascii_digit());
        if !id_ok {
            return Err(err(
                at,
                format!("experiment id `{}` must be `E<number>`", s.id),
            ));
        }
        if s.title.is_empty() {
            return Err(err(at, format!("experiment {} has no title", s.id)));
        }
        if s.runner.is_empty() {
            return Err(err(at, format!("experiment {} has no runner", s.id)));
        }
        for other in &specs[..i] {
            if other.id == s.id {
                return Err(err(at, format!("duplicate experiment id `{}`", s.id)));
            }
        }
        for axis in &s.axes {
            if axis.name.is_empty() {
                return Err(err(at, format!("experiment {}: axis has no name", s.id)));
            }
            if axis.values.is_empty() {
                return Err(err(
                    at,
                    format!("experiment {}: axis `{}` has no values", s.id, axis.name),
                ));
            }
            for (j, v) in axis.values.iter().enumerate() {
                if axis.values[..j].contains(v) {
                    return Err(err(
                        at,
                        format!(
                            "experiment {}: axis `{}` repeats value `{v}`",
                            s.id, axis.name
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
master_seed = 7

[[experiment]]
id = "E1"
title = "first"
runner = "nl-claims"
stable = true
hypothesis = """
Two lines of
prose here.
"""
criteria = ["a >= 1"]
criteria = ["b < 0.5"]

[[experiment]]
id = "E4"
title = "second"
runner = "petri-table1"
samples = { quick_jpeg = 25, full_jpeg = 50, quick = 10 }

[[axis]]
name = "accel"
values = ["jpeg", "vta"]
"#;

    #[test]
    fn parses_experiments_axes_and_criteria() {
        let f = parse(MINI).unwrap();
        assert_eq!(f.master_seed, 7);
        assert_eq!(f.specs.len(), 2);
        let e1 = &f.specs[0];
        assert!(e1.stable && !e1.volatile);
        assert_eq!(e1.hypothesis, "Two lines of\nprose here.");
        assert_eq!(e1.criteria.len(), 2, "repeated criteria keys append");
        assert_eq!(e1.criteria[0].render(), "a >= 1");
        assert!(e1.criteria[1].eval(0.4) && !e1.criteria[1].eval(0.5));
        let e4 = &f.specs[1];
        assert_eq!(e4.axes.len(), 1);
        assert_eq!(
            e4.variants(),
            vec![
                vec![("accel".to_string(), "jpeg".to_string())],
                vec![("accel".to_string(), "vta".to_string())],
            ]
        );
        assert_eq!(e4.samples_for("quick", &["jpeg".into()]), Some(25));
        assert_eq!(e4.samples_for("full", &["jpeg".into()]), Some(50));
        assert_eq!(e4.samples_for("quick", &["vta".into()]), Some(10));
        assert_eq!(e4.samples_for("full", &["vta".into()]), None);
        assert!(f.find("e4").is_some(), "lookup is case-insensitive");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: &[(&str, &str)] = &[
            ("bogus = 3\n", "line 1"),
            ("[[axis]]\n", "[[axis]] before any [[experiment]]"),
            ("[[experiment]]\nid = unquoted\n", "line 2"),
            ("[[experiment]]\nwat = \"x\"\n", "unknown experiment key"),
            (
                "[[experiment]]\ncriteria = [\"a ~ 1\"]\n",
                "unknown operator",
            ),
            (
                "[[experiment]]\ncriteria = [\"a <\"]\n",
                "metric op threshold",
            ),
            ("[[experiment]]\ncriteria = [\"a < x\"]\n", "bad threshold"),
            ("[[experiment]]\nsamples = { quick = 2.5 }\n", "integer"),
            (
                "[[experiment]]\nhypothesis = \"\"\"\nnever closed\n",
                "unterminated",
            ),
            ("[table]\n", "unknown table"),
        ];
        for (src, want) in cases {
            let e = parse(src).unwrap_err().to_string();
            assert!(e.contains(want), "`{src}` → `{e}` (wanted `{want}`)");
            assert!(e.contains("experiments line"), "`{e}` lacks a line number");
        }
    }

    #[test]
    fn validation_rejects_bad_ids_and_axes() {
        let bad_id = "[[experiment]]\nid = \"X1\"\ntitle = \"t\"\nrunner = \"r\"\n";
        assert!(parse(bad_id).unwrap_err().to_string().contains("E<number>"));
        let dup = "[[experiment]]\nid = \"E1\"\ntitle = \"t\"\nrunner = \"r\"\n\
                   [[experiment]]\nid = \"E1\"\ntitle = \"t\"\nrunner = \"r\"\n";
        assert!(parse(dup).unwrap_err().to_string().contains("duplicate"));
        let empty_axis = "[[experiment]]\nid = \"E1\"\ntitle = \"t\"\nrunner = \"r\"\n\
                          [[axis]]\nname = \"a\"\nvalues = []\n";
        assert!(parse(empty_axis)
            .unwrap_err()
            .to_string()
            .contains("no values"));
        let dup_val = "[[experiment]]\nid = \"E1\"\ntitle = \"t\"\nrunner = \"r\"\n\
                       [[axis]]\nname = \"a\"\nvalues = [\"x\", \"x\"]\n";
        assert!(parse(dup_val)
            .unwrap_err()
            .to_string()
            .contains("repeats value"));
    }

    #[test]
    fn shipped_spec_file_parses() {
        let f = parse(crate::exp::SPEC_SRC).unwrap();
        assert_eq!(f.master_seed, 20230622);
        assert_eq!(f.specs.len(), 15);
        for (i, s) in f.specs.iter().enumerate() {
            assert_eq!(s.id, format!("E{}", i + 1));
            assert!(!s.hypothesis.is_empty(), "{} has no hypothesis", s.id);
            assert!(!s.criteria.is_empty(), "{} has no criteria", s.id);
        }
        // The axes that drive multi-variant experiments.
        assert_eq!(f.find("E12").unwrap().variants().len(), 6);
        assert_eq!(f.find("E15").unwrap().variants().len(), 2);
        assert_eq!(
            f.find("E4").unwrap().samples_for("full", &["vta".into()]),
            Some(1500)
        );
    }
}
