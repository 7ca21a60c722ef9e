//! Topology-level lints (`PC0xx`): static checks on a pipeline config
//! before anything is simulated.
//!
//! The composition boundary is where per-accelerator interfaces stop
//! helping: a topology can name a queue that will always saturate, a
//! queue that can never bind, or a stage template its accelerator does
//! not accept — all statically detectable from the TOML alone plus the
//! stages' *program-tier* throughput ceilings (extracted with the
//! interval bound analyzer in `perf_iface_lang::lint`, no simulation).
//!
//! Severities follow the shipped-artifact gate convention: template
//! and parse problems are errors (the pipeline will not run, or will
//! not run as written); rate-structure findings are informational —
//! a saturating inter-stage queue is often the *point* of a bounded
//! pipeline (backpressure), so `PC001`/`PC002` surface structure
//! without failing `repro --xcheck`.

use crate::accels::{accel, Accel};
use crate::topology::{GraphIssue, Policy, StageCfg, Topology, MAX_ITEMS};
use perf_core::diag::{Diagnostic, Diagnostics};
use perf_core::CoreError;
use perf_iface_lang::lint::{bound_src, BoxVal};

/// The topology lint catalog: code, summary.
pub const TOPOLOGY_CODES: &[(&str, &str)] = &[
    (
        "PC001",
        "rate mismatch between adjacent stages: the producer's program-tier \
         throughput ceiling exceeds the consumer's, so the bounded queue \
         between them saturates and throttles the producer (info)",
    ),
    (
        "PC002",
        "queue can never bind: its depth is at least the stream-length cap, \
         so backpressure through it is unreachable (info)",
    ),
    (
        "PC003",
        "stage/template mismatch: the spec kind is not accepted by the \
         accelerator's backend, or the varied field is not part of the \
         stage template",
    ),
    ("PC004", "unknown accelerator name in a stage"),
    ("PC005", "topology config failed to parse or validate"),
    (
        "PC006",
        "edge graph has a cycle (including self-loops): a pipeline's stage \
         graph must be a DAG",
    ),
    (
        "PC007",
        "broken stream path: no injection point, more than one, or a stage \
         the stream can never reach",
    ),
    (
        "PC008",
        "fan-out policy mismatch: one producer's out-edges declare \
         conflicting round-robin/broadcast policies",
    ),
];

/// The stage's throughput ceiling from its accelerator's *program*
/// interface: the upper end of the interval the bound analyzer
/// guarantees for the row's `tput_fn` over its declared workload box,
/// narrowed by the stage's fixed spec fields where `tput_map` maps them
/// onto program-input features. `None` when the extracted ceiling is
/// unbounded.
fn stage_tput_ceiling(a: &Accel, st: &StageCfg) -> Option<f64> {
    let mut bx = (a.workload_box)();
    for (spec_field, box_field) in a.tput_map {
        if let Some(&(_, v)) = st.fields.iter().find(|(k, _)| k == spec_field) {
            bx = bx.with_field(box_field, BoxVal::point(v));
        }
    }
    let iv = bound_src(a.pi_src, a.tput_fn, &bx).ok()?;
    iv.hi.is_finite().then_some(iv.hi)
}

/// `PC004` from [`accel`]'s lookup error, which names every registered
/// accelerator.
fn unknown_accel(e: CoreError) -> Diagnostic {
    let msg = match e {
        CoreError::Artifact(m) => m,
        other => other.to_string(),
    };
    Diagnostic::error("PC004", msg)
}

/// Maps a structural edge-graph issue to its catalog diagnostic,
/// pointed at the offending `[[edge]]`/`[[stage]]` stanza when the
/// topology came from TOML.
fn graph_diag(topo: &Topology, issue: &GraphIssue) -> Diagnostic {
    let edge_line = |e: usize| topo.edges.get(e).map(|e| e.line).filter(|&l| l > 0);
    let stage_line = |s: usize| topo.stage_lines.get(s).copied().filter(|&l| l > 0);
    let (code, line) = match issue {
        GraphIssue::UnknownEndpoint { edge, .. } | GraphIssue::DuplicateEdge { edge } => {
            ("PC005", edge_line(*edge))
        }
        GraphIssue::SelfLoop { edge } => ("PC006", edge_line(*edge)),
        GraphIssue::Cycle { stages } => {
            // Point at the first edge inside the cycle.
            let line = topo
                .edges
                .iter()
                .find(|e| stages.contains(&e.from) && stages.contains(&e.to))
                .map(|e| e.line)
                .filter(|&l| l > 0);
            ("PC006", line)
        }
        GraphIssue::NoSource | GraphIssue::MultiSource { .. } => ("PC007", None),
        GraphIssue::Unreachable { stage } => ("PC007", stage_line(*stage)),
        GraphIssue::PolicyMismatch { stage } => {
            let line = topo
                .out_edges(*stage)
                .into_iter()
                .find(|&e| topo.edges[e].policy.is_some())
                .and_then(edge_line);
            ("PC008", line)
        }
    };
    let d = Diagnostic::error(code, issue.render(topo));
    match line {
        Some(l) => d.with_pos(l as u32, 1),
        None => d,
    }
}

/// Lints a finished [`Topology`]. Line numbers point at each stage's
/// `[[stage]]` stanza when the topology came from TOML.
pub fn lint(topo: &Topology) -> Diagnostics {
    let mut ds = Diagnostics::new();
    let at = |i: usize, st: &StageCfg, d: Diagnostic| -> Diagnostic {
        let d = d.with_at(format!("stage `{}`", st.instance));
        match topo.stage_lines.get(i) {
            Some(&ln) if ln > 0 => d.with_pos(ln as u32, 1),
            _ => d,
        }
    };
    let mut ceilings: Vec<Option<f64>> = Vec::with_capacity(topo.stages.len());
    for (i, st) in topo.stages.iter().enumerate() {
        match accel(&st.accel) {
            Err(e) => {
                ds.push(at(i, st, unknown_accel(e)));
                ceilings.push(None);
                continue;
            }
            Ok(a) => {
                let kinds = (a.backend)().map(|b| b.spec_kinds()).unwrap_or(&[]);
                if !kinds.contains(&st.kind.as_str()) {
                    ds.push(at(
                        i,
                        st,
                        Diagnostic::error(
                            "PC003",
                            format!(
                                "accelerator `{}` does not accept spec kind `{}` (accepts: {})",
                                st.accel,
                                st.kind,
                                kinds.join(", ")
                            ),
                        ),
                    ));
                }
                if st.vary != "seed" && !st.fields.iter().any(|(k, _)| k == &st.vary) {
                    ds.push(at(
                        i,
                        st,
                        Diagnostic::error(
                            "PC003",
                            format!(
                                "varied field `{}` is not part of the stage template \
                                 (fields: {})",
                                st.vary,
                                st.fields
                                    .iter()
                                    .map(|(k, _)| k.as_str())
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            ),
                        ),
                    ));
                }
                ceilings.push(stage_tput_ceiling(a, st));
            }
        }
        if st.queue >= MAX_ITEMS {
            ds.push(at(
                i,
                st,
                Diagnostic::info(
                    "PC002",
                    format!(
                        "queue feeding stage `{}` (depth {}) can never bind: streams are \
                         capped at {MAX_ITEMS} items",
                        st.instance, st.queue
                    ),
                ),
            ));
        }
    }
    for issue in topo.graph_issues() {
        ds.push(graph_diag(topo, &issue));
    }
    // Rate mismatches follow the edge graph: the arrival rate at a
    // consumer sums every in-edge's producer ceiling (scaled down by
    // the producer's fan-out under round-robin — each edge carries a
    // 1/outdeg share — and by nothing under broadcast, which copies
    // the full stream), against the consumer's ceiling times its
    // replica count. On a chain this is the producer-vs-consumer
    // comparison the linear linter made.
    for (v, consumer) in topo.stages.iter().enumerate() {
        let ins = topo.in_edges(v);
        if ins.is_empty() {
            continue;
        }
        let Some(c) = ceilings[v] else { continue };
        let mut arrival = 0.0_f64;
        let mut producers: Vec<&str> = Vec::new();
        let mut all_known = true;
        for &e in &ins {
            let Some(u) = topo.stage_index(&topo.edges[e].from) else {
                all_known = false;
                break;
            };
            let Some(p) = ceilings[u] else {
                all_known = false;
                break;
            };
            let outs = topo.out_edges(u).len();
            let share = if outs > 1 && topo.policy_of(u) == Policy::RoundRobin {
                1.0 / outs as f64
            } else {
                1.0
            };
            arrival += p * topo.stages[u].replicas as f64 * share;
            producers.push(&topo.stages[u].instance);
        }
        let accept = c * consumer.replicas as f64;
        if all_known && arrival > accept * (1.0 + 1e-9) {
            ds.push(at(
                v,
                consumer,
                Diagnostic::info(
                    "PC001",
                    format!(
                        "stage{} {} can produce up to {arrival:.4} items/cycle but stage \
                         `{}` accepts at most {accept:.4}: the bounded queue `{}.in` \
                         (depth {}) saturates and becomes the binding constraint",
                        if producers.len() == 1 { "" } else { "s" },
                        producers
                            .iter()
                            .map(|p| format!("`{p}`"))
                            .collect::<Vec<_>>()
                            .join(" + "),
                        consumer.instance,
                        consumer.instance,
                        consumer.queue
                    ),
                ),
            ));
        }
    }
    ds.sort();
    ds.with_origin(&format!("topology `{}`", topo.name))
}

/// Lints a topology TOML document without requiring it to be valid:
/// parse failures become `PC005`, unknown accelerators `PC004` with
/// the stanza's line number, and well-formed configs get the full
/// [`lint`] pass.
pub fn lint_toml(origin: &str, src: &str) -> Diagnostics {
    let mut ds = Diagnostics::new();
    let raw = match Topology::parse_toml_raw(src) {
        Ok(raw) => raw,
        Err(e) => {
            ds.push(Diagnostic::error("PC005", e.to_string()));
            return ds.with_origin(origin);
        }
    };
    let mut blocked = false;
    for (i, st) in raw.stages.iter().enumerate() {
        if st.accel.is_empty() {
            ds.push(
                Diagnostic::error("PC005", format!("stage {i} has no `accel` key"))
                    .with_pos(raw.stage_lines[i] as u32, 1),
            );
            blocked = true;
        } else if let Err(e) = accel(&st.accel) {
            ds.push(unknown_accel(e).with_pos(raw.stage_lines[i] as u32, 1));
            blocked = true;
        }
    }
    if blocked {
        ds.sort();
        return ds.with_origin(origin);
    }
    let mut topo = raw;
    // Fill defaults but skip `validate`: a broken edge graph should
    // surface as structured `PC006`/`PC007`/`PC008` diagnostics with
    // stanza line numbers (via `lint`'s graph pass), not one opaque
    // `PC005`. Non-graph validation failures (duplicate instance
    // names, out-of-range counts) still map to `PC005`.
    if let Err(e) = topo.fill_defaults() {
        ds.push(Diagnostic::error("PC005", e.to_string()));
        return ds.with_origin(origin);
    }
    if topo.graph_issues().is_empty() {
        if let Err(e) = topo.validate() {
            ds.push(Diagnostic::error("PC005", e.to_string()));
            return ds.with_origin(origin);
        }
    }
    ds.merge(lint(&topo));
    ds.sort();
    ds.with_origin(origin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_core::Severity;

    #[test]
    fn demo_style_chain_has_no_errors_or_warnings() {
        let topo = Topology::parse_chain("vta:3>bitcoin-miner:2>protoacc:4").unwrap();
        let ds = lint(&topo);
        assert_eq!(ds.count(Severity::Error), 0, "{}", ds.render());
        assert_eq!(ds.count(Severity::Warning), 0, "{}", ds.render());
    }

    #[test]
    fn rate_mismatch_names_the_binding_queue() {
        // The miner (≤ 1/loop items per cycle) feeds the much slower
        // protoacc serializer: the inter-stage queue must saturate.
        let topo = Topology::parse_chain("bitcoin-miner:2>protoacc:4").unwrap();
        let ds = lint(&topo);
        let pc1 = ds.find("PC001").expect("rate mismatch detected");
        assert_eq!(pc1.severity, Severity::Info);
        assert!(pc1.message.contains("s1_protoacc.in"), "{}", pc1.message);
        assert!(pc1.message.contains("depth 4"), "{}", pc1.message);
    }

    #[test]
    fn never_binding_queue_is_flagged() {
        let topo = Topology::parse_chain(&format!("vta:2>protoacc:{MAX_ITEMS}")).unwrap();
        let ds = lint(&topo);
        let pc2 = ds.find("PC002").expect("never-binding queue detected");
        assert_eq!(pc2.severity, Severity::Info);
    }

    #[test]
    fn template_mismatches_are_line_numbered_errors() {
        let src = "name = \"bad\"\n\
                   [[stage]]\n\
                   accel = \"vta\"\n\
                   kind = \"scan\"\n\
                   [[stage]]\n\
                   accel = \"protoacc\"\n\
                   vary = \"bogus\"\n";
        let ds = lint_toml("bad.toml", src);
        assert!(ds.has_errors(), "{}", ds.render());
        let kinds: Vec<_> = ds.items().iter().filter(|d| d.code == "PC003").collect();
        assert_eq!(kinds.len(), 2, "{}", ds.render());
        assert_eq!(kinds[0].line, Some(2), "kind mismatch points at its stanza");
        assert_eq!(kinds[1].line, Some(5), "vary mismatch points at its stanza");
    }

    #[test]
    fn branched_demo_topology_lints_clean() {
        let topo = Topology::parse_chain("vta:2>(protoacc:2|bitcoin-miner:2)>protoacc:3").unwrap();
        let ds = lint(&topo);
        assert_eq!(ds.count(Severity::Error), 0, "{}", ds.render());
        assert_eq!(ds.count(Severity::Warning), 0, "{}", ds.render());
    }

    #[test]
    fn cycle_is_pc006_with_an_edge_line() {
        let src = "[[stage]]\ninstance = \"a\"\naccel = \"vta\"\n\
                   [[stage]]\ninstance = \"b\"\naccel = \"protoacc\"\n\
                   [[edge]]\nfrom = \"a\"\nto = \"b\"\n\
                   [[edge]]\nfrom = \"b\"\nto = \"a\"\n";
        let ds = lint_toml("cyc.toml", src);
        let pc6 = ds.find("PC006").expect("cycle detected");
        assert_eq!(pc6.severity, Severity::Error);
        assert_eq!(pc6.line, Some(7), "points at an edge inside the cycle");
        // Self-loops are the smallest cycle.
        let src = "[[stage]]\ninstance = \"a\"\naccel = \"vta\"\n\
                   [[edge]]\nfrom = \"a\"\nto = \"a\"\n";
        let ds = lint_toml("loop.toml", src);
        assert_eq!(ds.find("PC006").expect("self-loop").line, Some(4));
    }

    #[test]
    fn orphan_stage_is_pc007() {
        let src = "[[stage]]\ninstance = \"a\"\naccel = \"vta\"\n\
                   [[stage]]\ninstance = \"b\"\naccel = \"protoacc\"\n\
                   [[stage]]\ninstance = \"c\"\naccel = \"vta\"\n\
                   [[edge]]\nfrom = \"a\"\nto = \"b\"\n";
        let ds = lint_toml("orphan.toml", src);
        let pc7 = ds.find("PC007").expect("orphan stage detected");
        assert_eq!(pc7.severity, Severity::Error);
        assert!(pc7.message.contains("injection point"), "{}", pc7.message);
    }

    #[test]
    fn policy_mismatch_is_pc008() {
        let src = "[[stage]]\ninstance = \"a\"\naccel = \"vta\"\n\
                   [[stage]]\ninstance = \"b\"\naccel = \"protoacc\"\n\
                   [[stage]]\ninstance = \"c\"\naccel = \"protoacc\"\n\
                   [[edge]]\nfrom = \"a\"\nto = \"b\"\npolicy = \"broadcast\"\n\
                   [[edge]]\nfrom = \"a\"\nto = \"c\"\npolicy = \"round-robin\"\n";
        let ds = lint_toml("mixed.toml", src);
        let pc8 = ds.find("PC008").expect("policy mismatch detected");
        assert_eq!(pc8.severity, Severity::Error);
        assert_eq!(pc8.line, Some(10), "points at a policy-declaring edge");
    }

    #[test]
    fn fan_in_rate_mismatch_sums_the_producers() {
        // Two miners broadcast-merge... rather, two miners feed one
        // serializer; their combined ceiling exceeds its acceptance.
        let src = "[[stage]]\ninstance = \"src\"\naccel = \"bitcoin-miner\"\n\
                   [[stage]]\ninstance = \"m1\"\naccel = \"bitcoin-miner\"\n\
                   [[stage]]\ninstance = \"m2\"\naccel = \"bitcoin-miner\"\n\
                   [[stage]]\ninstance = \"ser\"\naccel = \"protoacc\"\nqueue = 2\n\
                   [[edge]]\nfrom = \"src\"\nto = \"m1\"\n\
                   [[edge]]\nfrom = \"src\"\nto = \"m2\"\n\
                   [[edge]]\nfrom = \"m1\"\nto = \"ser\"\n\
                   [[edge]]\nfrom = \"m2\"\nto = \"ser\"\n";
        let ds = lint_toml("fanin.toml", src);
        assert_eq!(ds.count(Severity::Error), 0, "{}", ds.render());
        let pc1 = ds.find("PC001").expect("combined rate mismatch detected");
        assert!(pc1.message.contains("`m1` + `m2`"), "{}", pc1.message);
        assert!(pc1.message.contains("ser.in"), "{}", pc1.message);
    }

    #[test]
    fn unknown_accel_and_parse_failures_are_diagnosed() {
        let ds = lint_toml("x.toml", "[[stage]]\naccel = \"warp-drive\"\n");
        assert_eq!(ds.find("PC004").expect("unknown accel").line, Some(1));

        let ds = lint_toml("x.toml", "nonsense\n");
        assert!(ds.find("PC005").is_some(), "{}", ds.render());

        let ds = lint_toml("x.toml", "[[stage]]\nqueue = 2\n");
        assert!(ds.find("PC005").is_some(), "{}", ds.render());
    }
}
