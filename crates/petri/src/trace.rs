//! Firing traces and cycle attribution for Petri-net runs.
//!
//! A performance IR is only half useful if it answers "how many
//! cycles?" without answering "*where did they go?*". With tracing
//! enabled (see [`crate::Options::trace`]) the evaluator records
//! every firing — time, transition, tokens moved, service delay — plus
//! the *provenance* of each consumed token: which earlier firing (or
//! external injection) produced it. That lineage is what the
//! [`critical_path`] extractor walks to decompose an end-to-end
//! predicted latency, cycle by cycle, into per-transition service and
//! queueing segments.
//!
//! Records live in a bounded ring buffer so tracing a long run cannot
//! exhaust memory; a walk that reaches an evicted record ends in an
//! explicit [`SegmentKind::Truncated`] segment rather than failing.

use crate::net::Net;
use crate::SimResult;
use perf_core::trace::{json_escape, ChromeTrace};
use std::collections::VecDeque;

/// Default ring capacity when tracing is enabled without an explicit
/// size (~48 bytes/record plus parents; a million records ≈ tens of MB).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Where a token came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TokenSrc {
    /// Sequence number of the firing that produced the token; `None`
    /// for externally injected tokens.
    pub producer: Option<u64>,
    /// Cycle at which the token arrived in its place.
    pub arrived: u64,
}

/// One firing of one transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FiringRecord {
    /// Monotonic firing sequence number (run-wide).
    pub seq: u64,
    /// Simulation time at which the firing started.
    pub time: u64,
    /// Transition index (into [`Net::transitions`]).
    pub trans: usize,
    /// Service delay of this firing.
    pub delay: u64,
    /// Tokens consumed.
    pub tokens_in: u32,
    /// Tokens produced.
    pub tokens_out: u32,
    /// Provenance of each consumed token, in consumption order.
    pub parents: Vec<TokenSrc>,
}

/// A bounded ring buffer of firing records plus run counters.
#[derive(Clone, Debug, Default)]
pub struct EngineTrace {
    records: VecDeque<FiringRecord>,
    capacity: usize,
    dropped: u64,
    next_seq: u64,
    /// Provenance of each completion, parallel to
    /// [`SimResult::completions`].
    pub(crate) completion_src: Vec<TokenSrc>,
}

impl EngineTrace {
    /// Creates a trace retaining at most `capacity` firing records.
    pub fn new(capacity: usize) -> EngineTrace {
        EngineTrace {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
            next_seq: 0,
            completion_src: Vec::new(),
        }
    }

    /// Appends a record, evicting the oldest at capacity. Returns the
    /// assigned sequence number.
    pub(crate) fn push(
        &mut self,
        time: u64,
        trans: usize,
        delay: u64,
        tokens_in: u32,
        tokens_out: u32,
        parents: Vec<TokenSrc>,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(FiringRecord {
            seq,
            time,
            trans,
            delay,
            tokens_in,
            tokens_out,
            parents,
        });
        seq
    }

    /// Looks up a record by sequence number (`None` if evicted).
    pub fn get(&self, seq: u64) -> Option<&FiringRecord> {
        // Sequence numbers are dense and ascending: the front record's
        // seq is exactly `dropped`.
        let front = self.dropped;
        if seq < front {
            return None;
        }
        self.records.get((seq - front) as usize)
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &FiringRecord> {
        self.records.iter()
    }

    /// Retained record count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no firing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Provenance of each completion, parallel to
    /// [`SimResult::completions`].
    pub fn completion_sources(&self) -> &[TokenSrc] {
        &self.completion_src
    }
}

/// What a critical-path segment spent its cycles on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentKind {
    /// In service inside a transition.
    Service,
    /// Waiting in an input place for a transition to fire (queueing,
    /// backpressure, server contention).
    Queue,
    /// Before the path's source token was injected (external arrival
    /// offset from cycle 0).
    Inject,
    /// Provenance lost: the producing record was evicted from the ring.
    Truncated,
}

impl SegmentKind {
    /// Stable lower-case name (used in JSON and folded stacks).
    pub fn name(self) -> &'static str {
        match self {
            SegmentKind::Service => "service",
            SegmentKind::Queue => "queue",
            SegmentKind::Inject => "inject",
            SegmentKind::Truncated => "truncated",
        }
    }
}

/// One segment of the critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Transition the cycles are attributed to (`None` for
    /// inject/truncated segments).
    pub trans: Option<usize>,
    /// Attribution kind.
    pub kind: SegmentKind,
    /// Cycle at which the segment starts.
    pub start: u64,
    /// Cycles spent.
    pub cycles: u64,
}

/// The critical path of a traced run: a source-to-sink chain of
/// segments whose cycle counts sum exactly to the arrival time of the
/// last completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalPath {
    /// Segments in source-to-sink order.
    pub segments: Vec<Segment>,
    /// Arrival cycle of the completion the path explains (equals the
    /// makespan when the run ends on a completion).
    pub end: u64,
}

impl CriticalPath {
    /// Total attributed cycles; always equals [`CriticalPath::end`].
    pub fn total(&self) -> u64 {
        self.segments.iter().map(|s| s.cycles).sum()
    }

    /// Per-transition `(service, queue)` cycle totals along the path,
    /// indexed by transition id (transitions off the path hold zeros).
    pub fn by_transition(&self, net: &Net) -> Vec<(u64, u64)> {
        let mut out = vec![(0u64, 0u64); net.transitions().len()];
        for s in &self.segments {
            if let Some(t) = s.trans {
                match s.kind {
                    SegmentKind::Service => out[t].0 += s.cycles,
                    SegmentKind::Queue => out[t].1 += s.cycles,
                    _ => {}
                }
            }
        }
        out
    }

    /// Folded-stack rendering (`net;transition;kind cycles` per line),
    /// ready for flame-graph tooling.
    pub fn to_folded(&self, net: &Net) -> String {
        let mut out = String::new();
        for s in &self.segments {
            if s.cycles == 0 {
                continue;
            }
            let frame = match s.trans {
                Some(t) => net.transitions()[t].name.clone(),
                None => format!("@{}", s.kind.name()),
            };
            out.push_str(&format!(
                "{};{};{} {}\n",
                net.name,
                frame,
                s.kind.name(),
                s.cycles
            ));
        }
        out
    }
}

/// Extracts the critical path of a traced run: starting from the
/// completion that arrived last, walk each token's provenance to the
/// firing that produced it, attribute that firing's service delay and
/// the token's queueing wait, and recurse into the *latest-arriving*
/// input token (the one that gated the firing).
///
/// Returns `None` when the run was not traced or completed nothing.
pub fn critical_path(res: &SimResult) -> Option<CriticalPath> {
    let trace = res.trace.as_ref()?;
    // The completion that arrived last; `max_by_key` keeps the last
    // maximal element, i.e. ties break toward the later completion.
    let ((_, end), src) = res
        .completions
        .times()
        .zip(&trace.completion_src)
        .max_by_key(|&((_, arrived), _)| arrived)?;
    let mut cur = *src;
    let mut segments = Vec::new();
    loop {
        match cur.producer {
            None => {
                // Externally injected: cycles 0..arrived are the
                // workload's own arrival offset.
                segments.push(Segment {
                    trans: None,
                    kind: SegmentKind::Inject,
                    start: 0,
                    cycles: cur.arrived,
                });
                break;
            }
            Some(seq) => match trace.get(seq) {
                None => {
                    segments.push(Segment {
                        trans: None,
                        kind: SegmentKind::Truncated,
                        start: 0,
                        cycles: cur.arrived,
                    });
                    break;
                }
                Some(rec) => {
                    segments.push(Segment {
                        trans: Some(rec.trans),
                        kind: SegmentKind::Service,
                        start: rec.time,
                        cycles: rec.delay,
                    });
                    // The gating input: the latest-arriving consumed
                    // token (first among ties, deterministically).
                    let parent = *rec
                        .parents
                        .iter()
                        .reduce(|a, b| if b.arrived > a.arrived { b } else { a })
                        .expect("transitions consume at least one token");
                    let wait = rec.time - parent.arrived;
                    if wait > 0 {
                        segments.push(Segment {
                            trans: Some(rec.trans),
                            kind: SegmentKind::Queue,
                            start: parent.arrived,
                            cycles: wait,
                        });
                    }
                    cur = parent;
                }
            },
        }
    }
    segments.reverse();
    Some(CriticalPath { segments, end })
}

/// Renders a traced run — counters, per-transition totals and the
/// critical path — as one JSON object (shared by `pnet trace` and
/// `repro --trace`).
pub fn trace_report_json(net: &Net, res: &SimResult, path: Option<&CriticalPath>) -> String {
    let by = path
        .map(|p| p.by_transition(net))
        .unwrap_or_else(|| vec![(0, 0); net.transitions().len()]);
    let trans: Vec<String> = net
        .transitions()
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let (svc, q) = by[i];
            format!(
                "    {{\"name\": \"{}\", \"firings\": {}, \"busy\": {}, \"path_service\": {}, \"path_queue\": {}}}",
                json_escape(&t.name),
                res.firings[i],
                res.busy[i],
                svc,
                q
            )
        })
        .collect();
    let segs: Vec<String> = path
        .map(|p| {
            p.segments
                .iter()
                .map(|s| {
                    let name = match s.trans {
                        Some(t) => json_escape(&net.transitions()[t].name),
                        None => format!("@{}", s.kind.name()),
                    };
                    format!(
                        "    {{\"at\": \"{}\", \"kind\": \"{}\", \"start\": {}, \"cycles\": {}}}",
                        name,
                        s.kind.name(),
                        s.start,
                        s.cycles
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    let (recorded, dropped) = res
        .trace
        .as_ref()
        .map(|t| (t.len() as u64 + t.dropped(), t.dropped()))
        .unwrap_or((0, 0));
    format!(
        concat!(
            "{{\n",
            "  \"net\": \"{}\",\n",
            "  \"makespan\": {},\n",
            "  \"events\": {},\n",
            "  \"enablement_checks\": {},\n",
            "  \"firings_recorded\": {},\n",
            "  \"firings_evicted\": {},\n",
            "  \"critical_path_total\": {},\n",
            "  \"transitions\": [\n{}\n  ],\n",
            "  \"critical_path\": [\n{}\n  ]\n",
            "}}\n"
        ),
        json_escape(&net.name),
        res.makespan,
        res.events,
        res.enablement_checks,
        recorded,
        dropped,
        path.map(|p| p.total()).unwrap_or(0),
        trans.join(",\n"),
        segs.join(",\n")
    )
}

/// Exports a traced run into `ct` as one Chrome-trace process (see
/// [`perf_core::trace::ChromeTrace`]; 1 simulated cycle = 1 µs).
///
/// Track mapping:
///
/// * **tid 0 — `critical-path`**: one slice per [`Segment`], named
///   `<kind>:<transition>` (or `@inject` / `@truncated`). The walk in
///   [`critical_path`] produces contiguous segments, so these slices
///   tile `[0, makespan]` exactly — their durations telescope to the
///   reported end-to-end latency, which this function returns.
/// * **tid i+1 — one track per transition**, in [`Net::transitions`]
///   order: one slice per retained [`FiringRecord`] covering the
///   firing's service interval `[time, time + delay)`, with the
///   firing's `seq` and token counts as args.
///
/// Returns the summed critical-path slice durations (0 when `path` is
/// `None`); callers assert it equals [`SimResult::makespan`].
pub fn chrome_trace_events(
    net: &Net,
    res: &SimResult,
    path: Option<&CriticalPath>,
    pid: u32,
    ct: &mut ChromeTrace,
) -> u64 {
    ct.process_name(pid, &format!("petri:{}", net.name));
    ct.thread_name(pid, 0, "critical-path");
    for (i, t) in net.transitions().iter().enumerate() {
        ct.thread_name(pid, i as u32 + 1, &t.name);
    }
    if let Some(trace) = &res.trace {
        for rec in trace.records() {
            ct.slice(
                pid,
                rec.trans as u32 + 1,
                rec.time,
                rec.delay,
                &net.transitions()[rec.trans].name,
                &[
                    ("seq", rec.seq.to_string()),
                    ("tokens_in", rec.tokens_in.to_string()),
                    ("tokens_out", rec.tokens_out.to_string()),
                ],
            );
        }
    }
    let mut attributed = 0u64;
    if let Some(p) = path {
        for s in &p.segments {
            attributed += s.cycles;
            if s.cycles == 0 {
                continue;
            }
            let name = match s.trans {
                Some(t) => format!("{}:{}", s.kind.name(), net.transitions()[t].name),
                None => format!("@{}", s.kind.name()),
            };
            ct.slice(
                pid,
                0,
                s.start,
                s.cycles,
                &name,
                &[("kind", ChromeTrace::json_str(s.kind.name()))],
            );
        }
    }
    attributed
}

/// Renders a traced run as a standalone Chrome JSON trace document
/// (`pnet trace --perfetto`): one process (pid 0) with the track
/// layout of [`chrome_trace_events`].
pub fn chrome_trace_json(net: &Net, res: &SimResult, path: Option<&CriticalPath>) -> String {
    let mut ct = ChromeTrace::new();
    chrome_trace_events(net, res, path, 0, &mut ct);
    ct.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;
    use crate::token::Token;
    use crate::{CompiledNet, Options};
    use perf_iface_lang::Value;

    fn passthrough(n: usize) -> impl Fn(&[Token]) -> Vec<Value> {
        move |ts: &[Token]| vec![ts[0].data.clone(); n]
    }

    fn traced_opts() -> Options {
        Options {
            trace: Some(DEFAULT_TRACE_CAPACITY),
            ..Options::default()
        }
    }

    #[test]
    fn ring_buffer_evicts_and_get_respects_eviction() {
        let mut t = EngineTrace::new(2);
        for i in 0..4u64 {
            let seq = t.push(i, 0, 1, 1, 1, vec![]);
            assert_eq!(seq, i);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 2);
        assert!(t.get(0).is_none());
        assert!(t.get(1).is_none());
        assert_eq!(t.get(2).unwrap().time, 2);
        assert_eq!(t.get(3).unwrap().time, 3);
        assert!(t.get(4).is_none());
    }

    #[test]
    fn pipeline_critical_path_sums_to_latency() {
        // Three serial stages with distinct delays; one token.
        let mut b = NetBuilder::new("pipe3");
        let a = b.place("a", None);
        let m1 = b.place("m1", None);
        let m2 = b.place("m2", None);
        let z = b.sink("z");
        b.transition("s0", &[a], &[m1], |_| 3, passthrough(1));
        b.transition("s1", &[m1], &[m2], |_| 5, passthrough(1));
        b.transition("s2", &[m2], &[z], |_| 7, passthrough(1));
        let net = b.build().unwrap();
        let plan = CompiledNet::compile(&net);
        let mut e = plan.stepper(&net, traced_opts());
        e.inject(a, Token::at(Value::num(0.0), 0));
        let r = e.run().unwrap();
        assert_eq!(r.makespan, 15);
        let cp = critical_path(&r).expect("traced run with completions");
        assert_eq!(cp.total(), r.makespan);
        assert_eq!(cp.end, 15);
        // Pure service, no queueing: 3 + 5 + 7.
        let by = cp.by_transition(&net);
        assert_eq!(by[0], (3, 0));
        assert_eq!(by[1], (5, 0));
        assert_eq!(by[2], (7, 0));
        let folded = cp.to_folded(&net);
        assert!(folded.contains("pipe3;s1;service 5\n"));
    }

    #[test]
    fn queueing_attributed_to_the_blocking_transition() {
        // Single-server 5-cycle transition, 4 tokens at time 0: the
        // last token queues 15 cycles then serves 5.
        let mut b = NetBuilder::new("q");
        let a = b.place("a", None);
        let z = b.sink("z");
        b.transition("t", &[a], &[z], |_| 5, passthrough(1));
        let net = b.build().unwrap();
        let plan = CompiledNet::compile(&net);
        let mut e = plan.stepper(&net, traced_opts());
        for _ in 0..4 {
            e.inject(a, Token::at(Value::num(0.0), 0));
        }
        let r = e.run().unwrap();
        assert_eq!(r.makespan, 20);
        let cp = critical_path(&r).unwrap();
        assert_eq!(cp.total(), 20);
        let by = cp.by_transition(&net);
        assert_eq!(by[0], (5, 15));
    }

    #[test]
    fn join_path_follows_latest_arriving_input() {
        let mut b = NetBuilder::new("join");
        let l = b.place("l", None);
        let rp = b.place("r", None);
        let z = b.sink("z");
        b.transition("join", &[l, rp], &[z], |_| 2, passthrough(1));
        let net = b.build().unwrap();
        let plan = CompiledNet::compile(&net);
        let mut e = plan.stepper(&net, traced_opts());
        e.inject(l, Token::at(Value::num(1.0), 0));
        e.inject(rp, Token::at(Value::num(2.0), 40));
        let r = e.run().unwrap();
        assert_eq!(r.makespan, 42);
        let cp = critical_path(&r).unwrap();
        assert_eq!(cp.total(), 42);
        // Inject wait of 40 (the late arrival), then 2 cycles service.
        assert_eq!(cp.segments[0].kind, SegmentKind::Inject);
        assert_eq!(cp.segments[0].cycles, 40);
        assert_eq!(cp.segments.last().unwrap().kind, SegmentKind::Service);
        assert_eq!(cp.segments.last().unwrap().cycles, 2);
    }

    #[test]
    fn truncated_ring_still_sums_to_latency() {
        // Capacity 1: by the time the last completion's lineage is
        // walked, upstream records are gone — the path must close with
        // a Truncated segment and still sum exactly.
        let mut b = NetBuilder::new("trunc");
        let a = b.place("a", None);
        let m = b.place("m", None);
        let z = b.sink("z");
        b.transition("s0", &[a], &[m], |_| 3, passthrough(1));
        b.transition("s1", &[m], &[z], |_| 4, passthrough(1));
        let net = b.build().unwrap();
        let plan = CompiledNet::compile(&net);
        let mut e = plan.stepper(
            &net,
            Options {
                trace: Some(1),
                ..Options::default()
            },
        );
        for _ in 0..3 {
            e.inject(a, Token::at(Value::num(0.0), 0));
        }
        let r = e.run().unwrap();
        let cp = critical_path(&r).unwrap();
        assert_eq!(cp.total(), cp.end);
        assert!(cp.segments.iter().any(|s| s.kind == SegmentKind::Truncated));
    }

    #[test]
    fn untraced_run_has_no_path() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let z = b.sink("z");
        b.transition("t", &[a], &[z], |_| 1, passthrough(1));
        let net = b.build().unwrap();
        let plan = CompiledNet::compile(&net);
        let mut e = plan.stepper(&net, Options::default());
        e.inject(a, Token::at(Value::num(0.0), 0));
        let r = e.run().unwrap();
        assert!(r.trace.is_none());
        assert!(critical_path(&r).is_none());
    }

    #[test]
    fn chrome_export_critical_path_telescopes_to_makespan() {
        // Backpressured pipeline: queue + service + inject segments all
        // appear, and the critical-path track still tiles [0, makespan].
        let mut b = NetBuilder::new("ct");
        let a = b.place("a", None);
        let m = b.place("m", Some(2));
        let z = b.sink("z");
        b.transition("s0", &[a], &[m], |_| 2, passthrough(1));
        b.transition("s1", &[m], &[z], |_| 7, passthrough(1));
        let net = b.build().unwrap();
        let plan = CompiledNet::compile(&net);
        let mut e = plan.stepper(&net, traced_opts());
        for _ in 0..5 {
            e.inject(a, Token::at(Value::num(0.0), 0));
        }
        let r = e.run().unwrap();
        let cp = critical_path(&r).unwrap();
        let mut ct = ChromeTrace::new();
        let attributed = chrome_trace_events(&net, &r, Some(&cp), 4, &mut ct);
        assert_eq!(attributed, r.makespan, "slices must telescope exactly");
        let j = ct.to_json();
        assert!(j.contains("\"name\":\"petri:ct\""));
        assert!(j.contains("\"name\":\"critical-path\""));
        assert!(j.contains("\"name\":\"service:s1\""));
        assert!(j.contains("\"name\":\"queue:s1\""));
        // Per-transition firing slices carry their sequence numbers.
        assert!(j.contains("\"seq\":0"));
        // Standalone document form.
        let doc = chrome_trace_json(&net, &r, Some(&cp));
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.ends_with("]}\n"));
    }

    #[test]
    fn chrome_export_without_path_attributes_zero() {
        let mut b = NetBuilder::new("np");
        let a = b.place("a", None);
        let z = b.sink("z");
        b.transition("t", &[a], &[z], |_| 1, passthrough(1));
        let net = b.build().unwrap();
        let plan = CompiledNet::compile(&net);
        let mut e = plan.stepper(&net, Options::default());
        e.inject(a, Token::at(Value::num(0.0), 0));
        let r = e.run().unwrap();
        let mut ct = ChromeTrace::new();
        assert_eq!(chrome_trace_events(&net, &r, None, 0, &mut ct), 0);
        // Metadata still names the process and every transition track.
        assert!(ct.to_json().contains("\"name\":\"petri:np\""));
    }

    #[test]
    fn json_report_contains_counters_and_path() {
        let mut b = NetBuilder::new("jrep");
        let a = b.place("a", None);
        let z = b.sink("z");
        b.transition("t", &[a], &[z], |_| 2, passthrough(1));
        let net = b.build().unwrap();
        let plan = CompiledNet::compile(&net);
        let mut e = plan.stepper(&net, traced_opts());
        e.inject(a, Token::at(Value::num(0.0), 0));
        let r = e.run().unwrap();
        let cp = critical_path(&r);
        let j = trace_report_json(&net, &r, cp.as_ref());
        assert!(j.contains("\"net\": \"jrep\""));
        assert!(j.contains("\"makespan\": 2"));
        assert!(j.contains("\"enablement_checks\""));
        assert!(j.contains("\"critical_path_total\": 2"));
        assert!(j.contains("\"kind\": \"service\""));
    }
}
