//! `perf-lint` static analyses for performance nets.
//!
//! A Petri net shipped as a performance interface is a claim: "evaluate
//! me and you get the accelerator's timing". This module audits the
//! claim *structurally*, before any token is injected, and reports
//! through the shared [`perf_core::diag`] model. The analyses:
//!
//! * **P-semiflows** (place invariants) via the Farkas algorithm on the
//!   incidence matrix — reported as `PN111` info, and the foundation of
//!   the boundedness and trap lints;
//! * **structural boundedness** (`PN109`): an uncapped place not
//!   covered by any semiflow can accumulate tokens without limit;
//! * **siphons** (`PN103`): a siphon that starts unmarked can never
//!   gain a token, so every transition consuming from it is dead —
//!   structural deadlock;
//! * **traps** (`PN112` info): tokens entering a trap never leave; the
//!   VTA dependency-token queues are a legitimate example, so this is
//!   informational;
//! * **dead transitions** (`PN104`–`PN106`): never-enabled by marking
//!   propagation, impossible by arc weight vs. place capacity, or
//!   disabled by a constant-false guard;
//! * **zero-delay cycles** (`PN110`): a cycle all of whose transitions
//!   have provably-zero delay livelocks the event-driven engine (time
//!   never advances);
//! * plus the classic modeling mistakes: dead-end places (`PN101`),
//!   orphan places (`PN102`), token-destroying transitions (`PN108`),
//!   redundant constant-true guards (`PN107`).
//!
//! Lints that depend on where tokens *start* take the set of entry
//! places (places the adapter injects into); without it, places with no
//! producers are assumed to be the injection points.

use crate::net::{Net, PlaceId};
use perf_core::diag::{Diagnostic, Diagnostics};

/// Every Petri-net lint code with a one-line description, for docs and
/// `--explain`-style tooling.
pub const CODES: &[(&str, &str)] = &[
    ("PN001", "file cannot be read"),
    ("PN002", ".pnet source failed to parse"),
    ("PN003", "net structure is invalid"),
    (
        "PN101",
        "dead-end place: tokens entering it can never reach a sink",
    ),
    ("PN102", "orphan place: no arc touches it"),
    (
        "PN103",
        "structural deadlock: an initially-unmarked siphon starves its consumers",
    ),
    (
        "PN104",
        "dead transition: no reachable marking ever enables it",
    ),
    (
        "PN105",
        "impossible transition: an arc weight exceeds a place capacity",
    ),
    ("PN106", "dead transition: guard is constantly false"),
    ("PN107", "redundant guard: guard is constantly true"),
    (
        "PN108",
        "token-destroying transition: consumes tokens but has no output arc",
    ),
    (
        "PN109",
        "potentially unbounded place: uncapped and not covered by any P-semiflow",
    ),
    (
        "PN110",
        "zero-delay cycle: livelock, simulated time cannot advance",
    ),
    (
        "PN111",
        "P-invariant: weighted token count conserved (info)",
    ),
    (
        "PN112",
        "trap: tokens that enter this place set never leave (info)",
    ),
];

/// Cap on intermediate rows in the Farkas semiflow computation; nets in
/// this workspace have tens of places, far below the cap.
const FARKAS_ROW_CAP: usize = 4096;

/// Lints `.pnet` source text end to end: parse failures become `PN002`
/// / `PN003` diagnostics, unknown entry names become `PN003`, and a
/// well-formed net goes through [`lint`]. Every finding carries
/// `origin` as its file label. This is the one-call entry point
/// `perf_compose::Accel::lint` uses to audit each shipped net.
pub fn lint_pnet_src(origin: &str, src: &str, entries: &[&str]) -> Diagnostics {
    let mut out = Diagnostics::new();
    let net = match crate::text::parse(src) {
        Ok(net) => net,
        Err(crate::PetriError::Parse { line, msg }) => {
            out.push(
                Diagnostic::error("PN002", msg)
                    .with_origin(origin)
                    .with_pos(line as u32, 0),
            );
            return out;
        }
        Err(e) => {
            out.push(Diagnostic::error("PN003", e.to_string()).with_origin(origin));
            return out;
        }
    };
    let mut ids = Vec::new();
    for e in entries {
        match net.place_id(e) {
            Some(id) => ids.push(id),
            None => out.push(
                Diagnostic::error("PN003", format!("entry place `{e}` does not exist"))
                    .with_origin(origin),
            ),
        }
    }
    if out.has_errors() {
        return out;
    }
    out.merge(lint(&net, if ids.is_empty() { None } else { Some(&ids) }));
    out.set_origin(origin);
    out.sort();
    out
}

/// Runs every structural lint on `net`.
///
/// `entries` are the places the harness injects tokens into (including
/// "free"/resource places seeded with an initial marking). Pass `None`
/// when unknown: places with no producing transition are then assumed
/// to be the injection points.
pub fn lint(net: &Net, entries: Option<&[PlaceId]>) -> Diagnostics {
    let mut out = Diagnostics::new();
    let n = net.places().len();

    let semiflows = p_semiflows(net);
    let covered: Vec<bool> = (0..n).map(|p| semiflows.iter().any(|y| y[p] > 0)).collect();

    // The initially-markable set: declared entries, or sources.
    let mut marked = vec![false; n];
    match entries {
        Some(es) => {
            for p in es {
                marked[p.index()] = true;
            }
        }
        None => {
            for p in infer_entries(net) {
                marked[p.index()] = true;
            }
        }
    }

    orphan_and_dead_end_places(net, &mut out);
    let siphon = siphon_lint(net, &marked, &mut out);
    transition_lints(net, &marked, &siphon, &mut out);
    boundedness_lint(net, &covered, &mut out);
    zero_delay_cycles(net, &mut out);
    invariant_report(net, &semiflows, &mut out);
    trap_report(net, &covered, &mut out);
    out.sort();
    out
}

/// Structurally source-like places: no producing transition and not a
/// sink. These are the spots a harness must inject tokens into for
/// anything downstream to happen, so marking-dependent analyses (and
/// the [`crate::bound`] extractor) assume them as entries when none are
/// declared. `pnet lint` reports the inferred set so a markless lint run
/// is explicit about the assumption instead of silently skipping.
pub fn infer_entries(net: &Net) -> Vec<PlaceId> {
    (0..net.places().len())
        .filter(|&i| net.producers[i].is_empty() && !net.places()[i].is_sink)
        .map(PlaceId)
        .collect()
}

/// PN102 orphan places and PN101 dead ends.
fn orphan_and_dead_end_places(net: &Net, out: &mut Diagnostics) {
    let n = net.places().len();
    let orphan: Vec<bool> = (0..n)
        .map(|i| net.producers[i].is_empty() && net.consumers[i].is_empty())
        .collect();
    for (i, p) in net.places().iter().enumerate() {
        if orphan[i] && !p.is_sink {
            out.push(
                Diagnostic::warning(
                    "PN102",
                    format!("orphan place `{}`: no arc touches it", p.name),
                )
                .with_at(format!("place `{}`", p.name))
                .with_note("delete it, or wire it into the net"),
            );
        }
    }
    // Reverse reachability from sinks over the one-hop place graph.
    let mut next: Vec<Vec<usize>> = vec![Vec::new(); n];
    for t in net.transitions() {
        for &(i, _) in &t.inputs {
            for &(o, _) in &t.outputs {
                next[i.index()].push(o.index());
            }
        }
    }
    let mut reaches = vec![false; n];
    for (i, p) in net.places().iter().enumerate() {
        reaches[i] = p.is_sink;
    }
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            if !reaches[i] && next[i].iter().any(|&j| reaches[j]) {
                reaches[i] = true;
                changed = true;
            }
        }
    }
    for (i, p) in net.places().iter().enumerate() {
        if !p.is_sink && !reaches[i] && !orphan[i] {
            out.push(
                Diagnostic::error(
                    "PN101",
                    format!(
                        "dead-end place `{}`: tokens entering it can never reach a sink",
                        p.name
                    ),
                )
                .with_at(format!("place `{}`", p.name))
                .with_note("every non-sink place should have a path to a sink"),
            );
        }
    }
}

/// PN103: the maximal siphon among initially-unmarked places. Returns
/// the siphon membership vector so the dead-transition lint can avoid
/// double-reporting its victims.
fn siphon_lint(net: &Net, marked: &[bool], out: &mut Diagnostics) -> Vec<bool> {
    let n = net.places().len();
    // Start from every unmarked non-sink place and shrink: a place
    // stays only while every transition producing into it also consumes
    // from the current set (the siphon property).
    let mut in_s: Vec<bool> = (0..n)
        .map(|i| !marked[i] && !net.places()[i].is_sink)
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for p in 0..n {
            if !in_s[p] {
                continue;
            }
            let violates = net.producers[p].iter().any(|&ti| {
                !net.transitions()[ti]
                    .inputs
                    .iter()
                    .any(|&(q, _)| in_s[q.index()])
            });
            if violates {
                in_s[p] = false;
                changed = true;
            }
        }
    }
    let starved: Vec<&str> = net
        .transitions()
        .iter()
        .filter(|t| t.inputs.iter().any(|&(q, _)| in_s[q.index()]))
        .map(|t| t.name.as_str())
        .collect();
    if !starved.is_empty() {
        let places: Vec<&str> = net
            .places()
            .iter()
            .enumerate()
            .filter(|&(i, _)| in_s[i])
            .map(|(_, p)| p.name.as_str())
            .collect();
        out.push(
            Diagnostic::error(
                "PN103",
                format!(
                    "structural deadlock: siphon {{{}}} starts empty and can never gain tokens",
                    places.join(", ")
                ),
            )
            .with_at(format!("place `{}`", places[0]))
            .with_note(format!(
                "transitions {} consume from the siphon and can never fire",
                starved
                    .iter()
                    .map(|t| format!("`{t}`"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
            .with_note(
                "mark one of these places initially (pass it as an entry) or add a producing path",
            ),
        );
    }
    in_s
}

/// PN104/PN105/PN106/PN107/PN108: per-transition lints plus the
/// markable-set propagation that finds never-enabled transitions.
fn transition_lints(net: &Net, initially: &[bool], siphon: &[bool], out: &mut Diagnostics) {
    let n = net.places().len();
    let mut cap_dead = vec![false; net.transitions().len()];
    for (ti, t) in net.transitions().iter().enumerate() {
        let at = format!("transition `{}`", t.name);
        // PN105: arc weight vs. capacity, on either side.
        for &(p, w) in &t.inputs {
            if let Some(cap) = net.places()[p.index()].capacity {
                if w > cap {
                    cap_dead[ti] = true;
                    out.push(
                        Diagnostic::error(
                            "PN105",
                            format!(
                                "transition `{}` needs {w} tokens from `{}`, which can hold at most {cap}",
                                t.name,
                                net.places()[p.index()].name
                            ),
                        )
                        .with_at(at.clone())
                        .with_note("the transition can never fire; raise the capacity or lower the arc weight"),
                    );
                }
            }
        }
        for &(p, w) in &t.outputs {
            if let Some(cap) = net.places()[p.index()].capacity {
                if w > cap {
                    cap_dead[ti] = true;
                    out.push(
                        Diagnostic::error(
                            "PN105",
                            format!(
                                "transition `{}` produces {w} tokens into `{}`, which can hold at most {cap}",
                                t.name,
                                net.places()[p.index()].name
                            ),
                        )
                        .with_at(at.clone())
                        .with_note("capacity reservation can never succeed; the transition can never fire"),
                    );
                }
            }
        }
        // PN106/PN107: constant guards.
        match t.behavior.const_guard() {
            Some(false) => out.push(
                Diagnostic::error(
                    "PN106",
                    format!(
                        "transition `{}` has a constantly-false guard; it can never fire",
                        t.name
                    ),
                )
                .with_at(at.clone()),
            ),
            Some(true) if t.behavior.has_guard() => out.push(
                Diagnostic::warning(
                    "PN107",
                    format!("transition `{}` has a constantly-true guard", t.name),
                )
                .with_at(at.clone())
                .with_note("drop the guard; it never blocks a firing"),
            ),
            _ => {}
        }
        // PN108: tokens consumed but none produced.
        if t.outputs.is_empty() {
            out.push(
                Diagnostic::warning(
                    "PN108",
                    format!(
                        "transition `{}` consumes tokens but has no output arc",
                        t.name
                    ),
                )
                .with_at(at)
                .with_note("consumed work items vanish; route them to a sink place instead"),
            );
        }
    }

    // Markable-set propagation: a transition is potentially enabled
    // once every input place is potentially markable (and it is not
    // structurally impossible); its outputs then become markable.
    let mut markable = initially.to_vec();
    let mut fireable = vec![false; net.transitions().len()];
    let mut changed = true;
    while changed {
        changed = false;
        for (ti, t) in net.transitions().iter().enumerate() {
            if fireable[ti] || cap_dead[ti] || t.behavior.const_guard() == Some(false) {
                continue;
            }
            if t.inputs.iter().all(|&(p, _)| markable[p.index()]) {
                fireable[ti] = true;
                changed = true;
                for &(p, _) in &t.outputs {
                    markable[p.index()] = true;
                }
            }
        }
    }
    let _ = n;
    for (ti, t) in net.transitions().iter().enumerate() {
        if fireable[ti] || cap_dead[ti] || t.behavior.const_guard() == Some(false) {
            continue; // impossible transitions already reported above
        }
        if t.inputs.iter().any(|&(p, _)| siphon[p.index()]) {
            continue; // already explained by the PN103 siphon finding
        }
        let blockers: Vec<String> = t
            .inputs
            .iter()
            .filter(|&&(p, _)| !markable[p.index()])
            .map(|&(p, _)| format!("`{}`", net.places()[p.index()].name))
            .collect();
        out.push(
            Diagnostic::error(
                "PN104",
                format!(
                    "dead transition `{}`: no reachable marking enables it",
                    t.name
                ),
            )
            .with_at(format!("transition `{}`", t.name))
            .with_note(format!(
                "input place(s) {} can never receive a token",
                blockers.join(", ")
            )),
        );
    }
}

/// PN109: uncapped, non-sink places with producers that no P-semiflow
/// covers can grow without bound.
fn boundedness_lint(net: &Net, covered: &[bool], out: &mut Diagnostics) {
    for (i, p) in net.places().iter().enumerate() {
        if p.is_sink || p.capacity.is_some() || covered[i] {
            continue;
        }
        if net.producers[i].is_empty() {
            // Sources only hold what the harness injects; their
            // occupancy is the workload's choice, not the net's.
            continue;
        }
        out.push(
            Diagnostic::warning(
                "PN109",
                format!(
                    "place `{}` is uncapped and no P-invariant bounds it; its queue can grow without limit",
                    p.name
                ),
            )
            .with_at(format!("place `{}`", p.name))
            .with_note("give it a `cap N` or restructure so a semiflow covers it"),
        );
    }
}

/// PN110: a cycle of provably-zero-delay transitions livelocks the
/// event-driven engine — tokens circulate forever at one timestamp.
fn zero_delay_cycles(net: &Net, out: &mut Diagnostics) {
    let n = net.places().len();
    // Edges p -> q through zero-delay transitions only.
    let mut zero_edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (to-place, trans)
    for (ti, t) in net.transitions().iter().enumerate() {
        if t.behavior.const_delay() != Some(0.0) {
            continue;
        }
        for &(i, _) in &t.inputs {
            for &(o, _) in &t.outputs {
                zero_edges[i.index()].push((o.index(), ti));
            }
        }
    }
    // Iterative DFS cycle detection with a stack mark.
    let mut color = vec![0u8; n]; // 0 white, 1 on stack, 2 done
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        // Each stack frame: (place, edge cursor).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        let mut path_trans: Vec<usize> = Vec::new();
        while let Some(&mut (p, ref mut cursor)) = stack.last_mut() {
            if *cursor < zero_edges[p].len() {
                let (q, ti) = zero_edges[p][*cursor];
                *cursor += 1;
                match color[q] {
                    0 => {
                        color[q] = 1;
                        stack.push((q, 0));
                        path_trans.push(ti);
                    }
                    1 => {
                        // Found a cycle: the transitions on the stack
                        // from q onward, plus the closing edge.
                        let mut cycle: Vec<usize> = Vec::new();
                        let pos = stack.iter().position(|&(sp, _)| sp == q).unwrap_or(0);
                        cycle.extend(path_trans[pos..].iter().copied());
                        cycle.push(ti);
                        cycle.dedup();
                        let names: Vec<String> = cycle
                            .iter()
                            .map(|&t| format!("`{}`", net.transitions()[t].name))
                            .collect();
                        out.push(
                            Diagnostic::error(
                                "PN110",
                                format!(
                                    "zero-delay cycle through {}: the engine livelocks, simulated time cannot advance",
                                    names.join(" -> ")
                                ),
                            )
                            .with_at(format!("place `{}`", net.places()[q].name))
                            .with_note("give at least one transition on the cycle a nonzero delay"),
                        );
                        // One report per start component is enough.
                        for (sp, _) in stack.drain(..) {
                            color[sp] = 2;
                        }
                        path_trans.clear();
                    }
                    _ => {}
                }
            } else {
                color[p] = 2;
                stack.pop();
                path_trans.pop();
            }
        }
    }
}

/// PN111: reports each minimal P-semiflow as an informational
/// invariant.
fn invariant_report(net: &Net, semiflows: &[Vec<i64>], out: &mut Diagnostics) {
    for y in semiflows {
        let terms: Vec<String> = y
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0)
            .map(|(i, &w)| {
                if w == 1 {
                    net.places()[i].name.clone()
                } else {
                    format!("{w}*{}", net.places()[i].name)
                }
            })
            .collect();
        out.push(Diagnostic::info(
            "PN111",
            format!(
                "P-invariant: {} is constant under every firing",
                terms.join(" + ")
            ),
        ));
    }
}

/// PN112: the maximal trap among non-sink places that no semiflow
/// covers — tokens that enter never leave. Informational: bounded
/// dependency-token loops (e.g. VTA's l2c/c2l) are legitimate.
fn trap_report(net: &Net, covered: &[bool], out: &mut Diagnostics) {
    let n = net.places().len();
    let mut in_t: Vec<bool> = (0..n)
        .map(|i| !net.places()[i].is_sink && !covered[i])
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for p in 0..n {
            if !in_t[p] {
                continue;
            }
            // Trap property: every transition consuming from the set
            // must also produce into it.
            let violates = net.consumers[p].iter().any(|&ti| {
                !net.transitions()[ti]
                    .outputs
                    .iter()
                    .any(|&(q, _)| in_t[q.index()])
            });
            if violates {
                in_t[p] = false;
                changed = true;
            }
        }
    }
    // Only report traps that something outside actually feeds;
    // orphan/dead places are covered by their own lints.
    let fed = net.places().iter().enumerate().any(|(i, _)| {
        in_t[i]
            && net.producers[i].iter().any(|&ti| {
                !net.transitions()[ti]
                    .inputs
                    .iter()
                    .any(|&(q, _)| in_t[q.index()])
            })
    });
    if fed {
        let places: Vec<&str> = net
            .places()
            .iter()
            .enumerate()
            .filter(|&(i, _)| in_t[i])
            .map(|(_, p)| p.name.as_str())
            .collect();
        out.push(
            Diagnostic::info(
                "PN112",
                format!(
                    "trap {{{}}}: tokens that enter never leave and strand at quiescence",
                    places.join(", ")
                ),
            )
            .with_note("expected for dependency-token queues; otherwise check the consuming arcs"),
        );
    }
}

/// Computes minimal-support P-semiflows (vectors `y >= 0`, `y != 0`,
/// with `y^T * C = 0` for incidence matrix `C`) using the Farkas
/// algorithm: start from `[C | I]` and eliminate one transition column
/// at a time by taking nonnegative combinations of rows with opposite
/// signs. The surviving identity halves are the semiflows.
pub fn p_semiflows(net: &Net) -> Vec<Vec<i64>> {
    let n = net.places().len();
    let m = net.transitions().len();
    // Incidence: effect[t][p] = out weight - in weight.
    let mut effect = vec![vec![0i64; n]; m];
    for (ti, t) in net.transitions().iter().enumerate() {
        for &(p, w) in &t.inputs {
            effect[ti][p.index()] -= w as i64;
        }
        for &(p, w) in &t.outputs {
            effect[ti][p.index()] += w as i64;
        }
    }
    // Rows: (c, y) with c = remaining transition-column values, y = the
    // nonnegative place combination that produced them.
    let mut rows: Vec<(Vec<i64>, Vec<i64>)> = (0..n)
        .map(|p| {
            let c: Vec<i64> = (0..m).map(|t| effect[t][p]).collect();
            let mut y = vec![0i64; n];
            y[p] = 1;
            (c, y)
        })
        .collect();
    for j in 0..m {
        let mut next: Vec<(Vec<i64>, Vec<i64>)> = Vec::new();
        for r in &rows {
            if r.0[j] == 0 {
                next.push(r.clone());
            }
        }
        for a in rows.iter().filter(|r| r.0[j] > 0) {
            for b in rows.iter().filter(|r| r.0[j] < 0) {
                if next.len() >= FARKAS_ROW_CAP {
                    break;
                }
                let (ka, kb) = (-b.0[j], a.0[j]);
                let mut c: Vec<i64> = (0..m).map(|t| ka * a.0[t] + kb * b.0[t]).collect();
                let mut y: Vec<i64> = (0..n).map(|p| ka * a.1[p] + kb * b.1[p]).collect();
                let g = c
                    .iter()
                    .chain(y.iter())
                    .fold(0i64, |acc, &v| gcd(acc, v.abs()));
                if g > 1 {
                    for v in c.iter_mut().chain(y.iter_mut()) {
                        *v /= g;
                    }
                }
                next.push((c, y));
            }
            if next.len() >= FARKAS_ROW_CAP {
                break;
            }
        }
        // Keep only minimal-support rows: drop any whose place support
        // strictly contains another's (keeps the basis small and the
        // reported invariants readable).
        next = minimal_support(next);
        rows = next;
    }
    rows.into_iter()
        .map(|(_, y)| y)
        .filter(|y| y.iter().any(|&v| v > 0))
        .collect()
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Drops rows whose support is a strict superset of another row's, and
/// exact duplicates.
fn minimal_support(rows: Vec<(Vec<i64>, Vec<i64>)>) -> Vec<(Vec<i64>, Vec<i64>)> {
    let support = |y: &[i64]| -> Vec<usize> {
        y.iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0)
            .map(|(i, _)| i)
            .collect()
    };
    let sups: Vec<Vec<usize>> = rows.iter().map(|(_, y)| support(y)).collect();
    let mut keep: Vec<bool> = vec![true; rows.len()];
    for i in 0..rows.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..rows.len() {
            if i == j || !keep[j] {
                continue;
            }
            let contains = sups[j].iter().all(|p| sups[i].binary_search(p).is_ok());
            if contains && (sups[j].len() < sups[i].len() || j < i) {
                // j's support is contained in i's (strictly, or a
                // duplicate with lower index): i is redundant.
                if sups[j].len() < sups[i].len() || rows[i].1 == rows[j].1 {
                    keep[i] = false;
                    break;
                }
            }
        }
    }
    rows.into_iter()
        .zip(keep)
        .filter(|&(_, k)| k)
        .map(|(r, _)| r)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;
    use crate::text;

    fn lint_src(src: &str) -> Diagnostics {
        lint(&text::parse(src).unwrap(), None)
    }

    const PIPE: &str = "
net pipe
place a
place mid cap 4
sink z
trans s1
  in a
  out mid
  delay 2
trans s2
  in mid
  out z
  delay 3
";

    #[test]
    fn clean_pipeline_has_no_errors_or_warnings() {
        let ds = lint_src(PIPE);
        assert_eq!(ds.count(perf_core::Severity::Error), 0, "{}", ds.render());
        assert_eq!(ds.count(perf_core::Severity::Warning), 0, "{}", ds.render());
        // The all-ones invariant of a conservative pipeline is found.
        assert!(ds.has_code("PN111"), "{}", ds.render());
    }

    #[test]
    fn orphan_place_flagged() {
        let ds =
            lint_src("net n\nplace a\nplace lonely\nsink z\ntrans t\n  in a\n  out z\n  delay 1\n");
        assert!(ds.has_code("PN102"), "{}", ds.render());
    }

    #[test]
    fn dead_end_place_flagged() {
        let ds =
            lint_src("net n\nplace a\nplace pit\nsink z\ntrans t\n  in a\n  out pit\n  delay 1\n");
        assert!(ds.has_code("PN101"), "{}", ds.render());
        let _ = ds.find("PN101").unwrap();
    }

    #[test]
    fn unmarked_siphon_is_structural_deadlock() {
        // `gate` is consumed and reproduced by `work`, but nothing else
        // ever produces it: without an initial token, `work` is dead.
        let src = "
net n
place a
place gate
sink z
trans work
  in a
  in gate
  out z
  out gate
  delay 1
";
        let ds = lint_src(src);
        assert!(ds.has_code("PN103"), "{}", ds.render());
        // Declaring `gate` as an entry place clears the finding.
        let net = text::parse(src).unwrap();
        let gate = net.place_id("gate").unwrap();
        let a = net.place_id("a").unwrap();
        let ds = lint(&net, Some(&[a, gate]));
        assert!(!ds.has_code("PN103"), "{}", ds.render());
        assert!(!ds.has_code("PN104"), "{}", ds.render());
    }

    #[test]
    fn capacity_infeasible_arc_flagged() {
        let ds =
            lint_src("net n\nplace a cap 1\nsink z\ntrans t\n  in a x 2\n  out z\n  delay 1\n");
        assert!(ds.has_code("PN105"), "{}", ds.render());
        // Not double-reported as PN104.
        assert!(!ds.has_code("PN104"), "{}", ds.render());
    }

    #[test]
    fn constant_guards_flagged() {
        let ds = lint_src(
            "net n\nplace a\nsink z\ntrans t\n  in a\n  out z\n  guard 1 == 2\n  delay 1\n",
        );
        assert!(ds.has_code("PN106"), "{}", ds.render());
        let ds = lint_src(
            "net n\nplace a\nsink z\ntrans t\n  in a\n  out z\n  guard 2 == 2\n  delay 1\n",
        );
        assert!(ds.has_code("PN107"), "{}", ds.render());
    }

    #[test]
    fn no_output_transition_flagged() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        b.add_transition(crate::net::Transition {
            name: "leak".into(),
            inputs: vec![(a, 1)],
            outputs: vec![],
            behavior: crate::behavior::fixed_delay(1, 0),
            servers: 1,
            priority: 0,
        });
        let net = b.build().unwrap();
        let ds = lint(&net, None);
        assert!(ds.has_code("PN108"), "{}", ds.render());
    }

    #[test]
    fn unbounded_place_flagged_and_invariant_suppresses() {
        // `grow` recirculates its token and deposits into `q` each
        // lap: no semiflow can cover `q`, so it grows without bound.
        let src = "net n\nplace a\nplace q\nsink z\ntrans grow\n  in a\n  out a\n  out q\n  delay 1\ntrans drain\n  in q\n  out z\n  delay 1\n";
        let net = text::parse(src).unwrap();
        let a = net.place_id("a").unwrap();
        let ds = lint(&net, Some(&[a]));
        assert!(ds.has_code("PN109"), "{}", ds.render());
        // A conservative pipeline's uncapped middle place is covered by
        // the all-ones invariant: not flagged.
        let ds = lint_src("net n\nplace a\nplace q\nsink z\ntrans s1\n  in a\n  out q\n  delay 1\ntrans s2\n  in q\n  out z\n  delay 1\n");
        assert!(!ds.has_code("PN109"), "{}", ds.render());
    }

    #[test]
    fn zero_delay_cycle_flagged() {
        let src = "
net n
place a
place b
sink z
trans fwd
  in a
  out b
  delay 0
trans back
  in b
  out a
  delay 0
trans leave
  in b
  out z
  delay 1
";
        let ds = lint_src(src);
        assert!(ds.has_code("PN110"), "{}", ds.render());
        // Same cycle with one nonzero delay: no livelock.
        let ds = lint_src(&src.replace("delay 0\ntrans back", "delay 1\ntrans back"));
        assert!(!ds.has_code("PN110"), "{}", ds.render());
    }

    #[test]
    fn zero_delay_self_loop_flagged() {
        let src = "
net n
place a
sink z
trans spin
  in a
  out a
  delay 0
";
        let ds = lint_src(src);
        assert!(ds.has_code("PN110"), "{}", ds.render());
    }

    #[test]
    fn semiflows_of_resource_loop() {
        // A single-server resource place is its own invariant.
        let src = "
net n
place q
place free
sink z
trans serve
  in q
  in free
  out free
  out z
  delay 1
";
        let net = text::parse(src).unwrap();
        let flows = p_semiflows(&net);
        let free = net.place_id("free").unwrap().index();
        assert!(
            flows
                .iter()
                .any(|y| y[free] > 0 && y.iter().sum::<i64>() == y[free]),
            "expected a {{free}}-only semiflow, got {flows:?}"
        );
    }

    #[test]
    fn trap_reported_as_info() {
        // Tokens pushed into `dep` circulate between dep/ack forever
        // (flip's token gain keeps any semiflow from covering them).
        let src = "
net n
place a
place dep cap 4
place ack cap 4
sink z
trans work
  in a
  out dep
  out z
  delay 1
trans flip
  in dep
  out ack x 2
  delay 1
trans flop
  in ack
  out dep
  delay 1
";
        let ds = lint_src(src);
        assert!(ds.has_code("PN112"), "{}", ds.render());
        assert_eq!(
            ds.find("PN112").unwrap().severity,
            perf_core::Severity::Info
        );
    }

    #[test]
    fn lint_src_reports_parse_and_entry_errors_as_diagnostics() {
        let ds = lint_pnet_src("broken.pnet", "net n\nplace a cap x\n", &[]);
        assert!(ds.has_code("PN002"), "{}", ds.render());
        assert_eq!(ds.find("PN002").unwrap().origin, "broken.pnet");
        let ds = lint_pnet_src("n.pnet", PIPE, &["nope"]);
        assert!(ds.has_code("PN003"), "{}", ds.render());
        let ds = lint_pnet_src("n.pnet", PIPE, &["a"]);
        assert!(!ds.has_errors(), "{}", ds.render());
    }

    #[test]
    fn codes_table_is_consistent() {
        let mut seen = std::collections::HashSet::new();
        for (code, desc) in CODES {
            assert!(seen.insert(code), "duplicate code {code}");
            assert!(code.starts_with("PN"));
            assert!(!desc.is_empty());
        }
    }
}
