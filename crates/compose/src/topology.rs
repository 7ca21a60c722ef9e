//! Pipeline topology configs.
//!
//! A [`Topology`] names a DAG of accelerator instances with bounded
//! inter-stage queues. It can be written two ways:
//!
//! * a TOML document ([`Topology::parse_toml`]) — the config format the
//!   demo SoC topologies (E14, E15) are written in. Stages are
//!   `[[stage]]` tables; the edge graph is `[[edge]]` tables naming
//!   `from`/`to` instances, with a fan-out `policy` of `"round-robin"`
//!   (each item takes one out-edge, in item order) or `"broadcast"`
//!   (every item is copied onto every out-edge). A config with no
//!   `[[edge]]` tables is implicitly the chain of its stages in
//!   declaration order — the PR 7 format keeps parsing unchanged.
//! * a one-line chain ([`Topology::parse_chain`]) like
//!   `"jpeg-decoder:4>protoacc:8"` — the shorthand used in service
//!   requests (`pipe:<chain>`) and benchmark row tags. Parallel groups
//!   are parenthesized, `(a:2|b:2)`, and connect all-to-all with their
//!   neighbor segments under round-robin; `accel*R:q` replicates a
//!   stage's server `R` ways. Broadcast fan-out needs the TOML form.
//!
//! The TOML dialect is deliberately tiny (the build has no TOML crate):
//! top-level `key = "value"` pairs, `[[stage]]`/`[[edge]]`
//! array-of-table headers, inline numeric tables for `fields`, and `#`
//! comments. Anything else is a parse error with a line number.
//!
//! ```
//! use perf_compose::Topology;
//!
//! let t = Topology::parse_toml(r#"
//!     name = "decode-serialize"
//!     [[stage]]
//!     accel = "jpeg-decoder"
//!     queue = 4
//!     [[stage]]
//!     accel = "protoacc"
//!     queue = 8
//! "#).unwrap();
//! assert_eq!(t.chain_label(), "jpeg-decoder:4>protoacc:8");
//! let shorthand = Topology::parse_chain("jpeg-decoder:4>protoacc:8").unwrap();
//! assert_eq!(t.stages, shorthand.stages); // names differ, stages agree
//! ```

use perf_core::CoreError;

/// Default inter-stage queue depth when a stage does not specify one.
pub const DEFAULT_QUEUE: usize = 4;

/// Hard ceiling on stream length accepted by composite models; keeps a
/// malicious `items` field from wedging the service worker.
pub const MAX_ITEMS: usize = 4096;

/// Hard ceiling on a stage's inter-stage queue depth.
pub const MAX_QUEUE: usize = 65536;

/// Hard ceiling on per-stage server replication.
pub const MAX_REPLICAS: usize = 64;

/// How a stage with several out-edges distributes finished items.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Each item leaves on exactly one out-edge, rotating through the
    /// edges in item order (deterministic, item-affine: all copies of
    /// one item take the same edge).
    RoundRobin,
    /// Every item is copied onto every out-edge; copies are
    /// independent items downstream.
    Broadcast,
}

impl Policy {
    /// The config-file spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Policy::RoundRobin => "round-robin",
            Policy::Broadcast => "broadcast",
        }
    }
}

/// One accelerator instance in a pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct StageCfg {
    /// Unique instance name; becomes the stage's Petri component name
    /// and place-name prefix. Derived from the accelerator when unset.
    pub instance: String,
    /// Accelerator model: a name in [`crate::ACCELS`].
    pub accel: String,
    /// Depth of the bounded queue feeding this stage. For the source
    /// stage this is the pipeline's input-queue capacity; elsewhere it
    /// is the inter-stage buffer that carries backpressure upstream.
    pub queue: usize,
    /// Number of parallel servers this stage runs (≥ 1, default 1):
    /// the Petri transition's `servers` count, and `replicas`
    /// concurrent servers in the ground-truth simulator.
    pub replicas: usize,
    /// Per-item workload-spec kind submitted to this stage's backend;
    /// defaults to the accelerator's [`crate::Accel::template`].
    pub kind: String,
    /// Fixed spec fields (the template's knobs).
    pub fields: Vec<(String, f64)>,
    /// Name of the field varied per stream item (default `"seed"`), so
    /// a stream exercises data-dependent behavior instead of replaying
    /// one workload.
    pub vary: String,
}

impl StageCfg {
    fn blank() -> StageCfg {
        StageCfg {
            instance: String::new(),
            accel: String::new(),
            queue: 0,
            replicas: 0,
            kind: String::new(),
            fields: Vec::new(),
            vary: String::new(),
        }
    }
}

/// One directed edge of the topology's stage graph.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeCfg {
    /// Producer instance name.
    pub from: String,
    /// Consumer instance name.
    pub to: String,
    /// Declared fan-out policy of the producer. `None` means "not
    /// declared" and resolves to round-robin; all out-edges of one
    /// producer must agree on the resolved policy.
    pub policy: Option<Policy>,
    /// 1-based source line of the `[[edge]]` stanza (0 when synthetic:
    /// chain shorthand or implicit chain edges).
    pub line: usize,
}

/// A structural problem in the topology's edge graph, shared between
/// hard validation ([`Topology::validate`]) and the topology linter
/// (`PC006`/`PC007`/`PC008` with stanza line numbers).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum GraphIssue {
    /// An edge endpoint names no stage instance.
    UnknownEndpoint { edge: usize, name: String },
    /// The same `from`→`to` pair appears twice.
    DuplicateEdge { edge: usize },
    /// An edge from a stage to itself (the smallest cycle).
    SelfLoop { edge: usize },
    /// The edge graph has a directed cycle through these stages.
    Cycle { stages: Vec<String> },
    /// No stage is free of in-edges: nowhere to inject the stream.
    NoSource,
    /// More than one stage has no in-edges; a pipeline has exactly one
    /// injection point.
    MultiSource { stages: Vec<String> },
    /// The stage cannot be reached from the source (orphans included).
    Unreachable { stage: usize },
    /// The stage's out-edges declare conflicting fan-out policies.
    PolicyMismatch { stage: usize },
}

impl GraphIssue {
    /// Renders the issue against its topology (for `validate` errors).
    pub(crate) fn render(&self, topo: &Topology) -> String {
        match self {
            GraphIssue::UnknownEndpoint { edge, name } => {
                format!("edge {edge} references unknown stage instance `{name}`")
            }
            GraphIssue::DuplicateEdge { edge } => {
                let e = &topo.edges[*edge];
                format!("duplicate edge `{}` -> `{}`", e.from, e.to)
            }
            GraphIssue::SelfLoop { edge } => {
                format!("edge `{0}` -> `{0}` is a self-loop", topo.edges[*edge].from)
            }
            GraphIssue::Cycle { stages } => format!(
                "edge graph has a cycle through {}",
                stages
                    .iter()
                    .map(|s| format!("`{s}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            GraphIssue::NoSource => {
                "no source stage: every stage has an in-edge, nowhere to inject the stream"
                    .to_string()
            }
            GraphIssue::MultiSource { stages } => format!(
                "multiple source stages ({}): a pipeline has exactly one injection point",
                stages
                    .iter()
                    .map(|s| format!("`{s}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            GraphIssue::Unreachable { stage } => format!(
                "stage `{}` is unreachable from the pipeline source",
                topo.stages[*stage].instance
            ),
            GraphIssue::PolicyMismatch { stage } => format!(
                "stage `{}` declares conflicting fan-out policies on its out-edges",
                topo.stages[*stage].instance
            ),
        }
    }
}

/// A named DAG of accelerator stages.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    /// Pipeline name (reports, net name).
    pub name: String,
    /// Stages in declaration order.
    pub stages: Vec<StageCfg>,
    /// Directed edges of the stage graph, in declaration order — the
    /// order defines each producer's out-edge slots (round-robin
    /// rotation) and each consumer's in-edge slots (merge interleave).
    pub edges: Vec<EdgeCfg>,
    /// 1-based source line of each `[[stage]]` header, parallel to
    /// `stages`. Zero for stages that were not parsed from TOML (the
    /// chain shorthand has no line structure), so topology lints can
    /// point at the offending stanza when one exists.
    pub stage_lines: Vec<usize>,
}

fn err(line: usize, msg: impl std::fmt::Display) -> CoreError {
    CoreError::Artifact(format!("topology line {}: {msg}", line + 1))
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
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
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

/// Parses a strictly integral count in `lo..=hi`. Fractional values
/// are rejected rather than truncated: `queue = 2.9` used to silently
/// become a depth-2 queue, changing the model behind the user's back.
fn parse_count(
    value: &str,
    line: usize,
    what: &str,
    lo: usize,
    hi: usize,
) -> Result<usize, CoreError> {
    let q = parse_number(value, line)?;
    if !q.is_finite() || q.fract() != 0.0 {
        return Err(err(
            line,
            format!("{what} must be an integer, got {}", value.trim()),
        ));
    }
    if q < lo as f64 || q > hi as f64 {
        return Err(err(line, format!("{what} must be in {lo}..={hi}, got {q}")));
    }
    Ok(q as usize)
}

fn parse_policy(value: &str, line: usize) -> Result<Policy, CoreError> {
    match parse_string(value, line)?.as_str() {
        "round-robin" => Ok(Policy::RoundRobin),
        "broadcast" => Ok(Policy::Broadcast),
        other => Err(err(
            line,
            format!("unknown edge policy `{other}` (have: round-robin, broadcast)"),
        )),
    }
}

/// Parses `{ k = 1, j = 2.5 }` (numbers only).
fn parse_inline_table(value: &str, line: usize) -> Result<Vec<(String, f64)>, CoreError> {
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
        out.push((k.trim().to_string(), parse_number(val, line)?));
    }
    Ok(out)
}

/// Which array-of-tables stanza the parser is inside.
enum Section {
    Top,
    Stage,
    Edge,
}

impl Topology {
    /// Parses the mini-TOML config format (see module docs).
    pub fn parse_toml(src: &str) -> Result<Topology, CoreError> {
        let mut t = Topology::parse_toml_raw(src)?;
        t.finish()?;
        Ok(t)
    }

    /// Parses the TOML without filling defaults or validating: the
    /// topology linter uses this so it can diagnose unknown
    /// accelerators, template mismatches and broken edge graphs (which
    /// `finish` would reject outright) with stanza line numbers.
    pub(crate) fn parse_toml_raw(src: &str) -> Result<Topology, CoreError> {
        let mut name = String::new();
        let mut stages: Vec<StageCfg> = Vec::new();
        let mut edges: Vec<EdgeCfg> = Vec::new();
        let mut stage_lines: Vec<usize> = Vec::new();
        let mut section = Section::Top;
        for (ln, raw) in src.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[stage]]" {
                stages.push(StageCfg::blank());
                stage_lines.push(ln + 1);
                section = Section::Stage;
                continue;
            }
            if line == "[[edge]]" {
                edges.push(EdgeCfg {
                    from: String::new(),
                    to: String::new(),
                    policy: None,
                    line: ln + 1,
                });
                section = Section::Edge;
                continue;
            }
            if line.starts_with('[') {
                return Err(err(
                    ln,
                    format!("unknown table `{line}`; only [[stage]] and [[edge]]"),
                ));
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(ln, "expected `key = value`"))?;
            let key = key.trim();
            match section {
                Section::Top => match key {
                    "name" => name = parse_string(value, ln)?,
                    other => {
                        return Err(err(
                            ln,
                            format!("unknown top-level key `{other}` (before any [[stage]])"),
                        ))
                    }
                },
                Section::Stage => {
                    let st = stages.last_mut().expect("in a [[stage]] stanza");
                    match key {
                        "instance" => st.instance = parse_string(value, ln)?,
                        "accel" => st.accel = parse_string(value, ln)?,
                        "queue" => st.queue = parse_count(value, ln, "queue depth", 1, MAX_QUEUE)?,
                        "replicas" => {
                            st.replicas = parse_count(value, ln, "replicas", 1, MAX_REPLICAS)?
                        }
                        "kind" => st.kind = parse_string(value, ln)?,
                        "vary" => st.vary = parse_string(value, ln)?,
                        "fields" => st.fields = parse_inline_table(value, ln)?,
                        other => return Err(err(ln, format!("unknown stage key `{other}`"))),
                    }
                }
                Section::Edge => {
                    let e = edges.last_mut().expect("in an [[edge]] stanza");
                    match key {
                        "from" => e.from = parse_string(value, ln)?,
                        "to" => e.to = parse_string(value, ln)?,
                        "policy" => e.policy = Some(parse_policy(value, ln)?),
                        other => return Err(err(ln, format!("unknown edge key `{other}`"))),
                    }
                }
            }
        }
        for e in &edges {
            if e.from.is_empty() || e.to.is_empty() {
                return Err(err(
                    e.line.saturating_sub(1),
                    "edge needs both `from` and `to` instance names",
                ));
            }
        }
        Ok(Topology {
            name: if name.is_empty() {
                "pipeline".to_string()
            } else {
                name
            },
            stages,
            edges,
            stage_lines,
        })
    }

    /// Parses the one-line chain shorthand: `>`-separated segments,
    /// each a stage `accel[*replicas][:queue]` or a parallel group
    /// `(stage|stage|…)`. Consecutive segments connect all-to-all with
    /// round-robin fan-out; per-accelerator default workload templates
    /// fill the stage configs.
    pub fn parse_chain(chain: &str) -> Result<Topology, CoreError> {
        let bad = |msg: String| CoreError::Artifact(format!("{msg} in chain `{chain}`"));
        let mut stages: Vec<StageCfg> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for part in chain.split('>') {
            let part = part.trim();
            if part.is_empty() {
                return Err(bad("empty stage".to_string()));
            }
            let members: Vec<&str> = match part.strip_prefix('(') {
                Some(rest) => match rest.strip_suffix(')') {
                    Some(inner) => inner.split('|').collect(),
                    None => return Err(bad(format!("unclosed parallel group `{part}`"))),
                },
                None if part.contains('|') || part.contains(')') => {
                    return Err(bad(format!("malformed parallel group `{part}`")))
                }
                None => vec![part],
            };
            let mut group = Vec::new();
            for m in members {
                let m = m.trim();
                if m.is_empty() {
                    return Err(bad("empty stage in parallel group".to_string()));
                }
                let (head, queue) = match m.rsplit_once(':') {
                    Some((a, q)) => {
                        let depth = q
                            .trim()
                            .parse::<usize>()
                            .map_err(|_| bad(format!("bad queue depth `{q}`")))?;
                        if depth == 0 {
                            return Err(bad("queue depth must be ≥ 1".to_string()));
                        }
                        (a.trim(), depth)
                    }
                    None => (m, DEFAULT_QUEUE),
                };
                let (accel, replicas) = match head.split_once('*') {
                    Some((a, r)) => {
                        let r = r
                            .trim()
                            .parse::<usize>()
                            .map_err(|_| bad(format!("bad replica count `{r}`")))?;
                        if !(1..=MAX_REPLICAS).contains(&r) {
                            return Err(bad(format!("replicas must be in 1..={MAX_REPLICAS}")));
                        }
                        (a.trim(), r)
                    }
                    None => (head, 1),
                };
                let idx = stages.len();
                stages.push(StageCfg {
                    instance: format!("s{idx}_{}", accel.replace('-', "_")),
                    accel: accel.to_string(),
                    queue,
                    replicas,
                    ..StageCfg::blank()
                });
                group.push(idx);
            }
            groups.push(group);
        }
        if groups.len() == 1 && groups[0].len() > 1 {
            return Err(bad(
                "a parallel group needs an upstream or downstream segment".to_string(),
            ));
        }
        let mut edges = Vec::new();
        for w in groups.windows(2) {
            for &u in &w[0] {
                for &v in &w[1] {
                    edges.push(EdgeCfg {
                        from: stages[u].instance.clone(),
                        to: stages[v].instance.clone(),
                        policy: None,
                        line: 0,
                    });
                }
            }
        }
        let stage_lines = vec![0; stages.len()];
        let mut t = Topology {
            name: chain.trim().to_string(),
            stages,
            edges,
            stage_lines,
        };
        t.finish()?;
        Ok(t)
    }

    /// Fills defaults (instance names, workload templates, queue
    /// depths, implicit chain edges) without graph validation. The
    /// linter uses this directly so broken edge graphs surface as
    /// structured diagnostics instead of one opaque error.
    pub(crate) fn fill_defaults(&mut self) -> Result<(), CoreError> {
        if self.stages.is_empty() {
            return Err(CoreError::Artifact(
                "topology has no stages (need at least one [[stage]])".to_string(),
            ));
        }
        for (i, st) in self.stages.iter_mut().enumerate() {
            if st.accel.is_empty() {
                return Err(CoreError::Artifact(format!("stage {i} has no `accel` key")));
            }
            if st.instance.is_empty() {
                st.instance = format!("s{i}_{}", st.accel.replace('-', "_"));
            }
            if st.queue == 0 {
                st.queue = DEFAULT_QUEUE;
            }
            if st.replicas == 0 {
                st.replicas = 1;
            }
            if st.kind.is_empty() {
                let t = crate::accels::accel(&st.accel)?.template;
                st.kind = t.kind.to_string();
                if st.fields.is_empty() {
                    st.fields = t.fields.iter().map(|&(k, v)| (k.to_string(), v)).collect();
                }
            }
            if st.vary.is_empty() {
                st.vary = "seed".to_string();
            }
        }
        if self.edges.is_empty() && self.stages.len() > 1 {
            // No [[edge]] tables: the stages chain in declaration
            // order, which is exactly the PR 7 linear format.
            self.edges = self
                .stages
                .windows(2)
                .map(|w| EdgeCfg {
                    from: w[0].instance.clone(),
                    to: w[1].instance.clone(),
                    policy: None,
                    line: 0,
                })
                .collect();
        }
        Ok(())
    }

    /// Fills defaults and validates the result.
    pub(crate) fn finish(&mut self) -> Result<(), CoreError> {
        self.fill_defaults()?;
        self.validate()
    }

    /// Structural checks: non-empty, unique instance names, sane queue
    /// depths and replica counts, and a well-formed edge graph (known
    /// endpoints, acyclic, one source, every stage reachable, uniform
    /// fan-out policies). Backend-dependent checks (does the
    /// accelerator accept this spec kind?) happen in `Composite::new`,
    /// which has the backends in hand.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.stages.is_empty() {
            return Err(CoreError::Artifact("topology has no stages".to_string()));
        }
        for (i, st) in self.stages.iter().enumerate() {
            if !(1..=MAX_QUEUE).contains(&st.queue) {
                return Err(CoreError::Artifact(format!(
                    "stage `{}` has queue depth {} (must be 1..={MAX_QUEUE})",
                    st.instance, st.queue
                )));
            }
            if !(1..=MAX_REPLICAS).contains(&st.replicas) {
                return Err(CoreError::Artifact(format!(
                    "stage `{}` has {} replicas (must be 1..={MAX_REPLICAS})",
                    st.instance, st.replicas
                )));
            }
            for other in &self.stages[..i] {
                if other.instance == st.instance {
                    return Err(CoreError::Artifact(format!(
                        "duplicate instance name `{}`",
                        st.instance
                    )));
                }
            }
        }
        if let Some(issue) = self.graph_issues().into_iter().next() {
            return Err(CoreError::Artifact(format!(
                "topology `{}`: {}",
                self.name,
                issue.render(self)
            )));
        }
        Ok(())
    }

    /// The index of the stage instance named `name`.
    pub fn stage_index(&self, name: &str) -> Option<usize> {
        self.stages.iter().position(|s| s.instance == name)
    }

    /// Indices of this stage's out-edges, in edge-declaration order —
    /// the order that defines round-robin rotation slots and the
    /// `out<slot>` Petri place numbering.
    pub fn out_edges(&self, stage: usize) -> Vec<usize> {
        let name = &self.stages[stage].instance;
        (0..self.edges.len())
            .filter(|&e| &self.edges[e].from == name)
            .collect()
    }

    /// Indices of this stage's in-edges, in edge-declaration order —
    /// the order that defines the merge interleave and the `in<slot>`
    /// Petri place numbering.
    pub fn in_edges(&self, stage: usize) -> Vec<usize> {
        let name = &self.stages[stage].instance;
        (0..self.edges.len())
            .filter(|&e| &self.edges[e].to == name)
            .collect()
    }

    /// The resolved fan-out policy of a stage: the policy its
    /// out-edges declare, defaulting to round-robin. Only meaningful
    /// after validation (which rejects mixed declarations).
    pub fn policy_of(&self, stage: usize) -> Policy {
        self.out_edges(stage)
            .into_iter()
            .find_map(|e| self.edges[e].policy)
            .unwrap_or(Policy::RoundRobin)
    }

    /// The unique source stage (no in-edges). Only meaningful after
    /// validation; defaults to stage 0 if the graph is broken.
    pub fn source(&self) -> usize {
        (0..self.stages.len())
            .find(|&i| self.in_edges(i).is_empty())
            .unwrap_or(0)
    }

    /// Stage indices in a topological order of the edge graph
    /// (smallest-index-first among ready stages, so the order is
    /// deterministic). Only meaningful after validation; on a cyclic
    /// graph the trapped stages are appended in index order.
    pub fn topo_order(&self) -> Vec<usize> {
        let k = self.stages.len();
        let mut indeg: Vec<usize> = (0..k).map(|i| self.in_edges(i).len()).collect();
        let mut order = Vec::with_capacity(k);
        let mut placed = vec![false; k];
        while let Some(u) = (0..k).find(|&i| !placed[i] && indeg[i] == 0) {
            placed[u] = true;
            order.push(u);
            for e in self.out_edges(u) {
                if let Some(v) = self.stage_index(&self.edges[e].to) {
                    indeg[v] = indeg[v].saturating_sub(1);
                }
            }
        }
        for (i, &p) in placed.iter().enumerate() {
            if !p {
                order.push(i);
            }
        }
        order
    }

    /// Whether this topology is the plain linear chain the PR 7 model
    /// paths were built for: the edges run through the stages in
    /// declaration order and no stage is replicated. Chain topologies
    /// keep the original single-pipeline simulation and recurrence
    /// code paths bit-for-bit.
    pub fn is_chain(&self) -> bool {
        let k = self.stages.len();
        if self.stages.iter().any(|s| s.replicas > 1) {
            return false;
        }
        if self.edges.len() + 1 != k {
            return k == 1 && self.edges.is_empty();
        }
        self.edges
            .iter()
            .enumerate()
            .all(|(i, e)| e.from == self.stages[i].instance && e.to == self.stages[i + 1].instance)
    }

    /// All structural problems with the edge graph (shared by
    /// `validate` and the `PC006`/`PC007`/`PC008` lints).
    pub(crate) fn graph_issues(&self) -> Vec<GraphIssue> {
        let mut issues = Vec::new();
        let k = self.stages.len();
        // Endpoint resolution, duplicates, self-loops.
        let mut resolved: Vec<Option<(usize, usize)>> = Vec::with_capacity(self.edges.len());
        for (ei, e) in self.edges.iter().enumerate() {
            let from = self.stage_index(&e.from);
            let to = self.stage_index(&e.to);
            if from.is_none() {
                issues.push(GraphIssue::UnknownEndpoint {
                    edge: ei,
                    name: e.from.clone(),
                });
            }
            if to.is_none() {
                issues.push(GraphIssue::UnknownEndpoint {
                    edge: ei,
                    name: e.to.clone(),
                });
            }
            let pair = match (from, to) {
                (Some(f), Some(t)) => Some((f, t)),
                _ => None,
            };
            if let Some((f, t)) = pair {
                if f == t {
                    issues.push(GraphIssue::SelfLoop { edge: ei });
                } else if resolved
                    .iter()
                    .flatten()
                    .any(|&(pf, pt)| pf == f && pt == t)
                {
                    issues.push(GraphIssue::DuplicateEdge { edge: ei });
                }
            }
            resolved.push(pair);
        }
        let edges: Vec<(usize, usize)> = resolved.iter().flatten().copied().collect();
        // Cycle detection (Kahn) over the resolvable part of the graph.
        let mut indeg = vec![0usize; k];
        for &(_, t) in &edges {
            indeg[t] += 1;
        }
        let mut placed = vec![false; k];
        let mut deg = indeg.clone();
        let mut done = 0;
        while let Some(u) = (0..k).find(|&i| !placed[i] && deg[i] == 0) {
            placed[u] = true;
            done += 1;
            for &(f, t) in &edges {
                if f == u {
                    deg[t] = deg[t].saturating_sub(1);
                }
            }
        }
        if done < k {
            let trapped: Vec<String> = (0..k)
                .filter(|&i| !placed[i])
                .map(|i| self.stages[i].instance.clone())
                .collect();
            issues.push(GraphIssue::Cycle { stages: trapped });
        }
        // Source multiplicity (skip when edges failed to resolve: the
        // spurious extra sources would just be noise).
        if resolved.iter().all(Option::is_some) {
            let sources: Vec<usize> = (0..k).filter(|&i| indeg[i] == 0).collect();
            match sources.len() {
                0 => issues.push(GraphIssue::NoSource),
                1 => {
                    // Reachability from the unique source.
                    let mut seen = vec![false; k];
                    let mut stack = vec![sources[0]];
                    while let Some(u) = stack.pop() {
                        if std::mem::replace(&mut seen[u], true) {
                            continue;
                        }
                        for &(f, t) in &edges {
                            if f == u && !seen[t] {
                                stack.push(t);
                            }
                        }
                    }
                    for (i, s) in seen.iter().enumerate() {
                        if !s {
                            issues.push(GraphIssue::Unreachable { stage: i });
                        }
                    }
                }
                _ => issues.push(GraphIssue::MultiSource {
                    stages: sources
                        .iter()
                        .map(|&i| self.stages[i].instance.clone())
                        .collect(),
                }),
            }
        }
        // Fan-out policy uniformity: undeclared edges inherit the
        // producer's declared policy, so a conflict is exactly two
        // *declared* policies that disagree.
        for u in 0..k {
            let declared: Vec<Policy> = self
                .out_edges(u)
                .into_iter()
                .filter_map(|e| self.edges[e].policy)
                .collect();
            if declared.windows(2).any(|w| w[0] != w[1]) {
                issues.push(GraphIssue::PolicyMismatch { stage: u });
            }
        }
        issues
    }

    /// The canonical one-line label: `accel:queue>…` for chains, with
    /// parallel groups rendered `(a:q|b:q)` and replicated stages
    /// `accel*R:q` when the DAG is layered (each layer fans out
    /// all-to-all, round-robin, into the next). Non-layered shapes —
    /// broadcast fan-out, skip edges — fall back to `dag:<name>`.
    /// Layered labels round-trip through [`Topology::parse_chain`].
    pub fn chain_label(&self) -> String {
        match self.layers() {
            Some(layers) => layers
                .iter()
                .map(|layer| {
                    let items: Vec<String> = layer
                        .iter()
                        .map(|&i| {
                            let s = &self.stages[i];
                            if s.replicas > 1 {
                                format!("{}*{}:{}", s.accel, s.replicas, s.queue)
                            } else {
                                format!("{}:{}", s.accel, s.queue)
                            }
                        })
                        .collect();
                    if items.len() == 1 {
                        items.into_iter().next().expect("one item")
                    } else {
                        format!("({})", items.join("|"))
                    }
                })
                .collect::<Vec<_>>()
                .join(">"),
            None => format!("dag:{}", self.name),
        }
    }

    /// Decomposes a layered DAG into its layers: layer 0 is the
    /// source; every stage in layer `l` must have round-robin
    /// out-edges to exactly the stages of layer `l+1`, whose in-edges
    /// come exactly from layer `l`. `None` for any other shape.
    fn layers(&self) -> Option<Vec<Vec<usize>>> {
        if self.stages.len() == 1 && self.edges.is_empty() {
            return Some(vec![vec![0]]);
        }
        let sources: Vec<usize> = (0..self.stages.len())
            .filter(|&i| self.in_edges(i).is_empty())
            .collect();
        let [source] = sources[..] else {
            return None;
        };
        let mut layers = vec![vec![source]];
        let mut covered = 1;
        loop {
            let cur = layers.last().expect("non-empty");
            let targets_of = |u: usize| -> Option<Vec<usize>> {
                self.out_edges(u)
                    .into_iter()
                    .map(|e| self.stage_index(&self.edges[e].to))
                    .collect()
            };
            let next = targets_of(cur[0])?;
            if next.is_empty() {
                // Every member of the last layer must be terminal.
                if cur.iter().any(|&u| !self.out_edges(u).is_empty()) {
                    return None;
                }
                break;
            }
            for &u in cur {
                if targets_of(u)? != next {
                    return None;
                }
                if self.out_edges(u).len() > 1 && self.policy_of(u) != Policy::RoundRobin {
                    return None;
                }
            }
            let mut sorted_cur = cur.clone();
            sorted_cur.sort_unstable();
            for &v in &next {
                let mut froms: Vec<usize> = self
                    .in_edges(v)
                    .into_iter()
                    .map(|e| self.stage_index(&self.edges[e].from))
                    .collect::<Option<Vec<usize>>>()?;
                froms.sort_unstable();
                if froms != sorted_cur {
                    return None;
                }
            }
            covered += next.len();
            layers.push(next);
            if layers.len() > self.stages.len() {
                return None; // cycle guard; validate rejects these anyway
            }
        }
        (covered == self.stages.len()).then_some(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_round_trips_and_defaults() {
        let t = Topology::parse_chain("jpeg-decoder:4>protoacc:8").unwrap();
        assert_eq!(t.stages.len(), 2);
        assert_eq!(t.stages[0].instance, "s0_jpeg_decoder");
        assert_eq!(t.stages[0].kind, "random");
        assert_eq!(t.stages[1].queue, 8);
        assert_eq!(t.stages[1].kind, "format");
        assert_eq!(t.chain_label(), "jpeg-decoder:4>protoacc:8");
        assert!(t.is_chain());
        assert_eq!(t.edges.len(), 1);

        // No queue → default depth.
        let d = Topology::parse_chain("vta>bitcoin-miner").unwrap();
        assert_eq!(d.stages[0].queue, DEFAULT_QUEUE);
        assert_eq!(d.stages[1].kind, "scan");
    }

    #[test]
    fn chain_rejects_malformed_input() {
        assert!(Topology::parse_chain("").is_err());
        assert!(Topology::parse_chain("jpeg-decoder>>vta").is_err());
        assert!(Topology::parse_chain("jpeg-decoder:zero").is_err());
        assert!(Topology::parse_chain("jpeg-decoder:0").is_err());
        // Unknown accelerator has no template.
        assert!(Topology::parse_chain("warp-drive:4").is_err());
        // Malformed groups and replica counts.
        assert!(Topology::parse_chain("vta:2>(protoacc:2|vta:2").is_err());
        assert!(Topology::parse_chain("vta:2>protoacc|vta").is_err());
        assert!(Topology::parse_chain("vta*0:2>protoacc:2").is_err());
        assert!(Topology::parse_chain("vta*big:2>protoacc:2").is_err());
        // A lone parallel group has two sources — not a pipeline.
        assert!(Topology::parse_chain("(vta:2|protoacc:2)").is_err());
    }

    /// Regression: a pipe string's queue depth was unbounded while TOML
    /// capped it at 65536, and `vta:2>protoacc:4294967296` stranded all
    /// six stream items on the stepper. Both parsers now share the
    /// bound in `Topology::validate`.
    #[test]
    fn chain_queue_depth_is_bounded() {
        assert_eq!(
            Topology::parse_chain("vta:2>protoacc:4294967296").unwrap_err(),
            CoreError::Artifact(
                "stage `s1_protoacc` has queue depth 4294967296 (must be 1..=65536)".into()
            )
        );
        assert!(Topology::parse_chain("vta:2>protoacc:65537").is_err());
        let t = Topology::parse_chain("vta:2>protoacc:65536").unwrap();
        assert_eq!(t.stages[1].queue, MAX_QUEUE);
    }

    #[test]
    fn chain_groups_build_layered_dags() {
        let t = Topology::parse_chain("vta:2>(protoacc:2|bitcoin-miner:3)>protoacc:4").unwrap();
        assert_eq!(t.stages.len(), 4);
        assert_eq!(t.edges.len(), 4, "1→2 fan-out plus 2→1 fan-in");
        assert!(!t.is_chain());
        assert_eq!(t.source(), 0);
        assert_eq!(t.out_edges(0).len(), 2);
        assert_eq!(t.in_edges(3).len(), 2);
        assert_eq!(t.policy_of(0), Policy::RoundRobin);
        assert_eq!(t.topo_order(), vec![0, 1, 2, 3]);
        // The label round-trips through the parser.
        let label = t.chain_label();
        assert_eq!(label, "vta:2>(protoacc:2|bitcoin-miner:3)>protoacc:4");
        let back = Topology::parse_chain(&label).unwrap();
        assert_eq!(back.chain_label(), label);
    }

    #[test]
    fn chain_replicas_parse_and_label() {
        let t = Topology::parse_chain("vta:2>protoacc*3:4").unwrap();
        assert_eq!(t.stages[1].replicas, 3);
        assert!(!t.is_chain(), "replicated stages leave the chain path");
        assert_eq!(t.chain_label(), "vta:2>protoacc*3:4");
    }

    #[test]
    fn toml_full_form_parses() {
        let t = Topology::parse_toml(
            r#"
            # A decode -> serialize SoC pipeline.
            name = "decode-serialize"

            [[stage]]
            instance = "decode"
            accel = "jpeg-decoder"
            queue = 2
            kind = "random"
            fields = { seed = 7 }

            [[stage]]
            accel = "protoacc"
            queue = 8
            vary = "seed"
            "#,
        )
        .unwrap();
        assert_eq!(t.name, "decode-serialize");
        assert_eq!(t.stages[0].instance, "decode");
        assert_eq!(t.stages[0].fields, vec![("seed".to_string(), 7.0)]);
        assert_eq!(t.stages[1].instance, "s1_protoacc");
        assert_eq!(t.stages[1].kind, "format");
        // No [[edge]] tables → implicit chain.
        assert!(t.is_chain());
        assert_eq!(t.edges.len(), 1);
        assert_eq!(t.edges[0].from, "decode");
    }

    #[test]
    fn toml_edges_build_dags() {
        let t = Topology::parse_toml(
            r#"
            name = "fanout"
            [[stage]]
            instance = "dec"
            accel = "vta"
            [[stage]]
            instance = "a"
            accel = "protoacc"
            [[stage]]
            instance = "b"
            accel = "protoacc"
            [[edge]]
            from = "dec"
            to = "a"
            policy = "broadcast"
            [[edge]]
            from = "dec"
            to = "b"
            policy = "broadcast"
            "#,
        )
        .unwrap();
        assert!(!t.is_chain());
        assert_eq!(t.policy_of(0), Policy::Broadcast);
        assert_eq!(t.out_edges(0), vec![0, 1]);
        assert_eq!(t.edges[0].line, 12, "edge stanzas carry line numbers");
        assert_eq!(t.chain_label(), "dag:fanout", "broadcast has no shorthand");
    }

    #[test]
    fn toml_errors_carry_line_numbers() {
        let e = Topology::parse_toml("name = \"x\"\nbogus = 3\n").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
        assert!(Topology::parse_toml("[[stage]]\nqueue = 0\n").is_err());
        assert!(Topology::parse_toml("[widget]\n").is_err());
        assert!(Topology::parse_toml("[[stage]]\naccel = unquoted\n").is_err());
        assert!(Topology::parse_toml("").is_err());
        // Duplicate instance names are rejected.
        let dup = "[[stage]]\naccel = \"vta\"\ninstance = \"x\"\n\
                   [[stage]]\naccel = \"vta\"\ninstance = \"x\"\n";
        assert!(Topology::parse_toml(dup).is_err());
    }

    #[test]
    fn fractional_queue_depth_is_rejected_not_truncated() {
        // `queue = 2.9` used to pass the range check and silently
        // truncate to a depth-2 queue.
        let e = Topology::parse_toml("[[stage]]\naccel = \"vta\"\nqueue = 2.9\n").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("topology line 3"), "{msg}");
        assert!(msg.contains("integer"), "{msg}");
        assert!(msg.contains("2.9"), "{msg}");
        // Same strictness for replicas.
        let e = Topology::parse_toml("[[stage]]\naccel = \"vta\"\nreplicas = 1.5\n").unwrap_err();
        assert!(e.to_string().contains("integer"), "{e}");
        // Integral floats are fine (TOML numbers are all f64 here).
        let t = Topology::parse_toml("[[stage]]\naccel = \"vta\"\nqueue = 3.0\n").unwrap();
        assert_eq!(t.stages[0].queue, 3);
    }

    #[test]
    fn graph_validation_rejects_broken_edge_graphs() {
        let base = "[[stage]]\ninstance = \"a\"\naccel = \"vta\"\n\
                    [[stage]]\ninstance = \"b\"\naccel = \"protoacc\"\n";
        let with = |edges: &str| format!("{base}{edges}");
        // Unknown endpoint.
        let e = Topology::parse_toml(&with("[[edge]]\nfrom = \"a\"\nto = \"nope\"\n")).unwrap_err();
        assert!(e.to_string().contains("nope"), "{e}");
        // Self loop.
        assert!(Topology::parse_toml(&with("[[edge]]\nfrom = \"a\"\nto = \"a\"\n")).is_err());
        // Duplicate edge.
        let dup = "[[edge]]\nfrom = \"a\"\nto = \"b\"\n[[edge]]\nfrom = \"a\"\nto = \"b\"\n";
        assert!(Topology::parse_toml(&with(dup)).is_err());
        // Cycle.
        let cyc = "[[edge]]\nfrom = \"a\"\nto = \"b\"\n[[edge]]\nfrom = \"b\"\nto = \"a\"\n";
        let e = Topology::parse_toml(&with(cyc)).unwrap_err();
        assert!(e.to_string().contains("cycle"), "{e}");
        // Orphan stage (three stages, edges only touch two): the
        // orphan has no in-edges, so it reads as a second source.
        let three = format!(
            "{base}[[stage]]\ninstance = \"c\"\naccel = \"vta\"\n\
             [[edge]]\nfrom = \"a\"\nto = \"b\"\n"
        );
        let e = Topology::parse_toml(&three).unwrap_err();
        assert!(e.to_string().contains("injection point"), "{e}");
        // A cycle hanging off the reachable part: cycle + unreachable.
        let four = format!(
            "{base}[[stage]]\ninstance = \"c\"\naccel = \"vta\"\n\
             [[stage]]\ninstance = \"d\"\naccel = \"vta\"\n\
             [[edge]]\nfrom = \"a\"\nto = \"b\"\n\
             [[edge]]\nfrom = \"c\"\nto = \"d\"\n\
             [[edge]]\nfrom = \"d\"\nto = \"c\"\n"
        );
        let e = Topology::parse_toml(&four).unwrap_err();
        assert!(e.to_string().contains("cycle"), "{e}");
        // Policy mismatch on one producer's out-edges.
        let three_mixed = format!(
            "{base}[[stage]]\ninstance = \"c\"\naccel = \"vta\"\n\
             [[edge]]\nfrom = \"a\"\nto = \"b\"\npolicy = \"broadcast\"\n\
             [[edge]]\nfrom = \"a\"\nto = \"c\"\npolicy = \"round-robin\"\n"
        );
        let e = Topology::parse_toml(&three_mixed).unwrap_err();
        assert!(e.to_string().contains("polic"), "{e}");
    }

    #[test]
    fn comments_respect_strings() {
        let t = Topology::parse_toml(
            "name = \"has#hash\" # trailing\n[[stage]]\naccel = \"vta\" # here too\n",
        )
        .unwrap();
        assert_eq!(t.name, "has#hash");
        assert_eq!(t.stages[0].accel, "vta");
    }
}
