//! The `TraceSink` observability interface.
//!
//! Every execution substrate in this workspace — the tick-accurate
//! accelerator models, the event-driven Petri-net stepper and the
//! autotuner's search loop — can explain where its cycles (or its wall
//! time) went by emitting records into a [`TraceSink`]. The trait is
//! deliberately tiny and monomorphizable: code paths instrumented with
//! a [`NullSink`] compile to nothing, so tracing can be threaded
//! through hot loops without a measurable cost when disabled.
//!
//! Three record kinds cover the substrates:
//!
//! * **stage** — per clocked component: busy / stall / idle cycle
//!   totals ([`StageCycles`]), e.g. a pipeline stage or a VTA module;
//! * **span** — a timed unit of host work, e.g. one autotuner candidate
//!   evaluation (backend, cache hit/miss, wall nanoseconds);
//! * **event** — a point occurrence at a simulated cycle.
//!
//! [`MemorySink`] collects everything in memory and renders JSON plus
//! flame-graph-ready folded-stack text (`component;stage;state cycles`,
//! one line per stack — feed directly to `flamegraph.pl` or speedscope).

/// Busy/stall/idle cycle totals of one clocked component or stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCycles {
    /// Cycles spent doing useful work.
    pub busy: u64,
    /// Cycles blocked on a full downstream buffer (backpressure).
    pub stall: u64,
    /// Cycles with nothing to do.
    pub idle: u64,
}

impl StageCycles {
    /// Total cycles accounted for.
    pub fn total(&self) -> u64 {
        self.busy + self.stall + self.idle
    }

    /// Busy fraction of the accounted cycles (0 when nothing was
    /// recorded).
    pub fn utilization(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.busy as f64 / self.total() as f64
        }
    }
}

/// A consumer of trace records.
///
/// All methods default to no-ops so implementors override only what
/// they store. `is_enabled` lets producers skip expensive record
/// *construction* (string formatting, provenance walks); cheap emits
/// may skip the check and rely on inlining.
pub trait TraceSink {
    /// Whether this sink retains anything. Producers may consult this
    /// before doing work only needed for tracing.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Records busy/stall/idle totals for `stage` of `component`.
    fn stage(&mut self, component: &str, stage: &str, cycles: StageCycles) {
        let _ = (component, stage, cycles);
    }

    /// Records a timed span of host work under `component`, labelled
    /// `label`, with free-form `detail` and a wall-clock duration.
    fn span(&mut self, component: &str, label: &str, detail: &str, nanos: u64) {
        let _ = (component, label, detail, nanos);
    }

    /// Records a point event at simulated `cycle`.
    fn event(&mut self, cycle: u64, source: &str, what: &str) {
        let _ = (cycle, source, what);
    }
}

/// The disabled sink: every emit is a no-op the optimizer erases.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn is_enabled(&self) -> bool {
        false
    }
}

/// A stage record retained by [`MemorySink`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageRecord {
    /// Component (e.g. `jpeg`, `vta`).
    pub component: String,
    /// Stage within the component (e.g. `huffman`, `compute`).
    pub stage: String,
    /// Cycle totals.
    pub cycles: StageCycles,
}

/// A span record retained by [`MemorySink`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Component (e.g. `autotune`).
    pub component: String,
    /// Label (e.g. the cost backend's name).
    pub label: String,
    /// Free-form detail (e.g. `cache=hit cost=1234`).
    pub detail: String,
    /// Wall-clock duration in nanoseconds.
    pub nanos: u64,
}

/// An event record retained by [`MemorySink`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Simulated cycle.
    pub cycle: u64,
    /// Emitting component.
    pub source: String,
    /// Description.
    pub what: String,
}

/// An in-memory sink collecting every record, with JSON and
/// folded-stack renderers.
#[derive(Clone, Debug, Default)]
pub struct MemorySink {
    /// Stage records, in emit order.
    pub stages: Vec<StageRecord>,
    /// Span records, in emit order.
    pub spans: Vec<SpanRecord>,
    /// Event records, in emit order.
    pub events: Vec<EventRecord>,
}

/// Minimal JSON string escaping (the workspace carries no serde).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Total records of all kinds.
    pub fn len(&self) -> usize {
        self.stages.len() + self.spans.len() + self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders all records as one JSON object.
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "    {{\"component\": \"{}\", \"stage\": \"{}\", \"busy\": {}, \"stall\": {}, \"idle\": {}}}",
                    json_escape(&s.component),
                    json_escape(&s.stage),
                    s.cycles.busy,
                    s.cycles.stall,
                    s.cycles.idle
                )
            })
            .collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "    {{\"component\": \"{}\", \"label\": \"{}\", \"detail\": \"{}\", \"nanos\": {}}}",
                    json_escape(&s.component),
                    json_escape(&s.label),
                    json_escape(&s.detail),
                    s.nanos
                )
            })
            .collect();
        let events: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                format!(
                    "    {{\"cycle\": {}, \"source\": \"{}\", \"what\": \"{}\"}}",
                    e.cycle,
                    json_escape(&e.source),
                    json_escape(&e.what)
                )
            })
            .collect();
        format!(
            "{{\n  \"stages\": [\n{}\n  ],\n  \"spans\": [\n{}\n  ],\n  \"events\": [\n{}\n  ]\n}}\n",
            stages.join(",\n"),
            spans.join(",\n"),
            events.join(",\n")
        )
    }

    /// Renders stage records as folded stacks
    /// (`component;stage;state count` per line): cycle-weighted for
    /// stages, nanosecond-weighted for spans.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for s in &self.stages {
            for (state, n) in [
                ("busy", s.cycles.busy),
                ("stall", s.cycles.stall),
                ("idle", s.cycles.idle),
            ] {
                if n > 0 {
                    out.push_str(&format!("{};{};{} {}\n", s.component, s.stage, state, n));
                }
            }
        }
        for s in &self.spans {
            out.push_str(&format!("{};{} {}\n", s.component, s.label, s.nanos));
        }
        out
    }
}

/// A Chrome JSON ("Trace Event Format") trace builder, loadable by
/// ui.perfetto.dev and `chrome://tracing`.
///
/// The workspace ships no protobuf stack, so Perfetto export uses the
/// JSON form of the trace-event format: one `"X"` (complete) event per
/// slice with microsecond `ts`/`dur`, plus `"M"` metadata events
/// naming processes and threads. Simulated **cycles map 1:1 to
/// microseconds** — a slice of `dur: 9` is a 9-cycle occupancy. Each
/// `(pid, tid)` pair is one named track; producers group related
/// tracks under one pid (e.g. all transitions of one net).
#[derive(Clone, Debug, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// Creates an empty trace.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Events emitted so far (metadata included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Names the process `pid` (one per track group).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    /// Names the track `(pid, tid)`.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    /// Emits a complete slice on track `(pid, tid)` covering
    /// `[ts, ts + dur)` microseconds (= simulated cycles). `args` are
    /// extra key/value pairs; each value must already be a valid JSON
    /// literal (use [`ChromeTrace::json_str`] for strings).
    pub fn slice(
        &mut self,
        pid: u32,
        tid: u32,
        ts: u64,
        dur: u64,
        name: &str,
        args: &[(&str, String)],
    ) {
        let args_json = if args.is_empty() {
            String::new()
        } else {
            let pairs: Vec<String> = args
                .iter()
                .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
                .collect();
            format!(",\"args\":{{{}}}", pairs.join(","))
        };
        self.events.push(format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{pid},\"tid\":{tid},\
             \"ts\":{ts},\"dur\":{dur}{args_json}}}",
            json_escape(name)
        ));
    }

    /// Emits a thread-scoped instant event at `ts` microseconds.
    pub fn instant(&mut self, pid: u32, tid: u32, ts: u64, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}}}",
            json_escape(name)
        ));
    }

    /// Renders a string as a JSON literal for [`ChromeTrace::slice`]
    /// args.
    pub fn json_str(s: &str) -> String {
        format!("\"{}\"", json_escape(s))
    }

    /// Renders the whole trace as one JSON document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            self.events.join(",\n")
        )
    }
}

impl MemorySink {
    /// Exports the sink's records into a Chrome trace under process
    /// `pid`: one track per `component.stage` with its busy → stall →
    /// idle cycles tiled from 0 (totals, not a timeline — the sims
    /// record aggregates); one track per span component with its spans
    /// laid end to end (nanoseconds floored to microseconds, minimum
    /// 1 µs so every span stays visible); point events as instants on
    /// track 0.
    pub fn chrome_events(&self, pid: u32, ct: &mut ChromeTrace) {
        let mut tid = 1u32;
        for s in &self.stages {
            ct.thread_name(pid, tid, &format!("{}.{}", s.component, s.stage));
            let mut at = 0u64;
            for (state, n) in [
                ("busy", s.cycles.busy),
                ("stall", s.cycles.stall),
                ("idle", s.cycles.idle),
            ] {
                if n > 0 {
                    ct.slice(pid, tid, at, n, state, &[]);
                    at += n;
                }
            }
            tid += 1;
        }
        let mut span_tracks: Vec<(String, u32, u64)> = Vec::new();
        for s in &self.spans {
            let entry = match span_tracks.iter_mut().find(|(c, _, _)| *c == s.component) {
                Some(e) => e,
                None => {
                    ct.thread_name(pid, tid, &format!("{}.spans", s.component));
                    span_tracks.push((s.component.clone(), tid, 0));
                    tid += 1;
                    span_tracks.last_mut().expect("just pushed")
                }
            };
            let dur = (s.nanos / 1_000).max(1);
            ct.slice(
                pid,
                entry.1,
                entry.2,
                dur,
                &s.label,
                &[("detail", ChromeTrace::json_str(&s.detail))],
            );
            entry.2 += dur;
        }
        for e in &self.events {
            ct.instant(pid, 0, e.cycle, &format!("{}: {}", e.source, e.what));
        }
    }
}

impl TraceSink for MemorySink {
    fn stage(&mut self, component: &str, stage: &str, cycles: StageCycles) {
        self.stages.push(StageRecord {
            component: component.to_string(),
            stage: stage.to_string(),
            cycles,
        });
    }

    fn span(&mut self, component: &str, label: &str, detail: &str, nanos: u64) {
        self.spans.push(SpanRecord {
            component: component.to_string(),
            label: label.to_string(),
            detail: detail.to_string(),
            nanos,
        });
    }

    fn event(&mut self, cycle: u64, source: &str, what: &str) {
        self.events.push(EventRecord {
            cycle,
            source: source.to_string(),
            what: what.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let mut s = NullSink;
        assert!(!s.is_enabled());
        // All no-ops; nothing to observe, but they must not panic.
        s.stage("c", "s", StageCycles::default());
        s.span("c", "l", "d", 1);
        s.event(0, "c", "w");
    }

    #[test]
    fn memory_sink_collects_all_kinds() {
        let mut m = MemorySink::new();
        assert!(m.is_empty());
        m.stage(
            "jpeg",
            "huffman",
            StageCycles {
                busy: 10,
                stall: 2,
                idle: 3,
            },
        );
        m.span("autotune", "petri-net", "cache=miss", 1500);
        m.event(42, "vta", "finish retired");
        assert_eq!(m.len(), 3);
        assert_eq!(m.stages[0].cycles.total(), 15);
        assert!((m.stages[0].cycles.utilization() - 10.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn folded_output_weights_by_cycles() {
        let mut m = MemorySink::new();
        m.stage(
            "jpeg",
            "idct",
            StageCycles {
                busy: 7,
                stall: 0,
                idle: 1,
            },
        );
        m.span("autotune", "cycle-accurate", "cache=hit", 99);
        let folded = m.to_folded();
        assert!(folded.contains("jpeg;idct;busy 7\n"));
        assert!(folded.contains("jpeg;idct;idle 1\n"));
        // Zero-count states are omitted.
        assert!(!folded.contains("stall"));
        assert!(folded.contains("autotune;cycle-accurate 99\n"));
    }

    #[test]
    fn json_escapes_and_renders() {
        let mut m = MemorySink::new();
        m.span("a", "b\"c", "line\nbreak", 5);
        let j = m.to_json();
        assert!(j.contains("b\\\"c"));
        assert!(j.contains("line\\nbreak"));
        assert!(j.contains("\"nanos\": 5"));
        assert_eq!(json_escape("tab\there"), "tab\\there");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn stage_cycles_utilization_handles_empty() {
        assert_eq!(StageCycles::default().utilization(), 0.0);
    }

    #[test]
    fn chrome_trace_renders_metadata_and_slices() {
        let mut ct = ChromeTrace::new();
        assert!(ct.is_empty());
        ct.process_name(3, "petri:demo");
        ct.thread_name(3, 1, "huffman");
        ct.slice(3, 1, 10, 9, "service", &[("seq", "4".to_string())]);
        ct.slice(
            3,
            1,
            19,
            0,
            "zero-width",
            &[("kind", ChromeTrace::json_str("queue"))],
        );
        ct.instant(3, 0, 42, "finish");
        assert_eq!(ct.len(), 5);
        let j = ct.to_json();
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("\"ph\":\"M\""));
        assert!(j.contains("\"name\":\"process_name\""));
        assert!(j.contains("\"ts\":10,\"dur\":9,\"args\":{\"seq\":4}"));
        assert!(j.contains("\"args\":{\"kind\":\"queue\"}"));
        assert!(j.contains("\"ph\":\"i\""));
    }

    #[test]
    fn memory_sink_chrome_export_tiles_stage_states() {
        let mut m = MemorySink::new();
        m.stage(
            "jpeg",
            "idct",
            StageCycles {
                busy: 7,
                stall: 2,
                idle: 0,
            },
        );
        m.span("autotune", "petri-net", "cache=miss", 2_500);
        m.span("autotune", "petri-net", "cache=hit", 10);
        m.event(5, "vta", "finish retired");
        let mut ct = ChromeTrace::new();
        m.chrome_events(9, &mut ct);
        let j = ct.to_json();
        // Stage states tile from 0: busy [0,7), stall [7,9); idle omitted.
        assert!(j.contains("\"name\":\"jpeg.idct\""));
        assert!(j.contains("\"ts\":0,\"dur\":7"));
        assert!(j.contains("\"ts\":7,\"dur\":2"));
        assert!(!j.contains("\"name\":\"idle\""));
        // Spans lay end to end on one per-component track, with a
        // 1 µs floor keeping sub-microsecond spans visible.
        assert!(j.contains("\"name\":\"autotune.spans\""));
        assert!(j.contains("\"ts\":0,\"dur\":2"));
        assert!(j.contains("\"ts\":2,\"dur\":1"));
        // Point events become instants.
        assert!(j.contains("vta: finish retired"));
    }
}
