//! The `repro --trace` artifact: one traced run of every execution
//! substrate, collected into a single report.
//!
//! Three layers feed the same observability surface:
//!
//! * the Petri-net stepper runs a reference pipeline with firing-trace
//!   provenance enabled, and the critical-path extractor decomposes
//!   the end-to-end latency into per-transition service and queueing
//!   cycles;
//! * the four accelerator cycle models emit per-stage busy/stall/idle
//!   accounting through [`perf_sim::TraceSink`];
//! * the autotuner evaluates a handful of candidate schedules through
//!   a [`perf_autotune::TracedCost`] decorator, logging one span per
//!   evaluation (backend, cache hit/miss, wall nanoseconds).
//!
//! The result renders twice: a JSON object (machine-readable) and
//! folded-stack text ready for flame-graph tooling.

use accel_bitcoin::miner::{MineJob, MinerCycleSim};
use accel_jpeg::{ImageGen, JpegCycleSim, JpegHwConfig};
use accel_protoacc::simx::ProtoWorkload;
use accel_protoacc::{FieldDesc, FieldKind, MessageDesc, ProtoaccSim};
use accel_vta::cycle::VtaCycleSim;
use perf_autotune::{CachedCost, CostBackend, GemmWorkload, PetriCost, Schedule, TracedCost};
use perf_compose::{Composite, StreamParams, Topology};
use perf_core::{ChromeTrace, MemorySink};
use perf_iface_lang::Value;
use perf_petri::net::{Net, NetBuilder};
use perf_petri::token::Token;
use perf_petri::trace::{
    chrome_trace_events, critical_path, trace_report_json, DEFAULT_TRACE_CAPACITY,
};
use perf_petri::SimResult;
use perf_petri::{CompiledNet, Options};

/// The rendered trace report.
pub struct TraceDemo {
    /// Combined JSON: the Petri critical-path report plus the
    /// stage/span records of every other substrate.
    pub json: String,
    /// Folded stacks (one `frame;frame;state count` line each) for the
    /// whole report.
    pub folded: String,
    /// Chrome JSON trace (`repro --trace --perfetto`): pid 0 is the
    /// reference Petri pipeline, pid 1 the composite demo SoC, pid 2
    /// the per-stage accounting of the cycle models and autotuner
    /// spans. Open at ui.perfetto.dev.
    pub chrome: String,
}

/// The reference net: a three-stage pipeline with a deliberately slow
/// middle stage behind a bounded queue, so the critical path contains
/// both service and queueing segments.
fn reference_net() -> Net {
    let mut b = NetBuilder::new("refpipe");
    let src = b.place("src", None);
    let q1 = b.place("q1", Some(4));
    let q2 = b.place("q2", Some(4));
    let done = b.sink("done");
    let pass = |ts: &[Token]| vec![ts[0].data.clone()];
    b.transition("decode", &[src], &[q1], |_| 2, pass);
    b.transition("transform", &[q1], &[q2], |_| 9, pass);
    b.transition("writeback", &[q2], &[done], |_| 3, pass);
    b.build().expect("reference net is valid")
}

/// Runs the reference net with tracing on and returns the net and its
/// result (completions, counters, firing trace).
pub fn traced_reference_run(tokens: usize) -> (Net, SimResult) {
    let net = reference_net();
    let plan = CompiledNet::compile(&net);
    let mut s = plan.stepper(
        &net,
        Options {
            trace: Some(DEFAULT_TRACE_CAPACITY),
            ..Options::default()
        },
    );
    let src = net.place_id("src").expect("net has src");
    for i in 0..tokens {
        s.inject(src, Token::at(Value::num(i as f64), 0));
    }
    let res = s.run().expect("reference net cannot deadlock");
    (net, res)
}

/// Runs every substrate traced and renders the combined report.
pub fn run_trace_demo(quick: bool) -> TraceDemo {
    let (jpeg_px, msgs, nonces, tokens) = if quick {
        (32, 5, 200, 16)
    } else {
        (128, 20, 2_000, 64)
    };

    // 1. Petri-net stepper with firing trace + critical path.
    let (net, res) = traced_reference_run(tokens);
    let path = critical_path(&res).expect("traced run completes");
    debug_assert_eq!(path.total(), res.makespan);
    let petri_json = trace_report_json(&net, &res, Some(&path));
    let petri_folded = path.to_folded(&net);

    // 2. Accelerator cycle models, all emitting into one sink.
    let mut sink = MemorySink::new();
    let mut jpeg = JpegCycleSim::new(JpegHwConfig::default());
    jpeg.decode(&ImageGen::new(11).gen_sized(jpeg_px, jpeg_px, 60));
    jpeg.trace_stages(&mut sink);

    let mut vta = VtaCycleSim::new_timing_only(accel_vta::VtaHwConfig::default());
    let gemm = GemmWorkload::new(64, 64, 64);
    vta.run(
        &Schedule {
            tm: 2,
            tn: 2,
            tk: 2,
        }
        .lower(&gemm),
    );
    vta.trace_stages(&mut sink);

    let mut proto = ProtoaccSim::default();
    let desc = MessageDesc::new(
        "demo",
        (0..16)
            .map(|i| FieldDesc::single(i + 1, FieldKind::Uint64))
            .collect(),
    );
    proto.serialize_stream(&ProtoWorkload::of_format(&desc, msgs, 13).messages);
    proto.trace_stages(&mut sink);

    let mut miner = MinerCycleSim::default();
    miner.mine(&MineJob::random(17, nonces, 256));
    miner.trace_stages(&mut sink);

    // 3. Autotuner evaluation spans through the same sink: evaluate a
    // few candidates twice so both cache misses and hits appear.
    let mut traced = TracedCost::new(
        CachedCost::new(PetriCost::new().expect("shipped net parses")),
        MemorySink::new(),
    );
    let candidates = [
        Schedule {
            tm: 1,
            tn: 1,
            tk: 1,
        },
        Schedule {
            tm: 2,
            tn: 2,
            tk: 2,
        },
        Schedule {
            tm: 4,
            tn: 4,
            tk: 2,
        },
    ];
    for s in candidates.iter().chain(candidates.iter()) {
        traced
            .cost(&s.lower(&gemm))
            .expect("demo schedules evaluate");
    }
    let (_, spans) = traced.into_parts();
    sink.spans.extend(spans.spans);

    let json = format!(
        "{{\n\"petri\": {},\n\"components\": {}}}\n",
        petri_json.trim_end(),
        sink.to_json()
    );
    let folded = format!("{petri_folded}{}", sink.to_folded());

    // 4. Chrome JSON trace: one process per substrate. The two Petri
    // exports assert the telescoping invariant — critical-path slice
    // durations sum exactly to each run's reported makespan.
    let mut ct = ChromeTrace::new();
    let attributed = chrome_trace_events(&net, &res, Some(&path), 0, &mut ct);
    assert_eq!(
        attributed, res.makespan,
        "reference-net critical path must telescope to the makespan"
    );
    let topo = Topology::parse_toml(crate::composedemo::DEMO_TOPOLOGY)
        .expect("shipped demo topology parses");
    let mut comp = Composite::new(topo).expect("demo composite builds");
    let stream = StreamParams {
        items: if quick { 5 } else { 12 },
        seed: 7,
    };
    let (cnet, cres) = comp
        .petri_traced(&stream)
        .expect("demo composite runs traced");
    let cpath = critical_path(&cres).expect("traced composite run has a path");
    let cattr = chrome_trace_events(cnet, &cres, Some(&cpath), 1, &mut ct);
    assert_eq!(
        cattr, cres.makespan,
        "composite critical path must telescope to the makespan"
    );
    ct.process_name(2, "components");
    sink.chrome_events(2, &mut ct);
    let chrome = ct.to_json();

    TraceDemo {
        json,
        folded,
        chrome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_path_attribution_sums_to_reported_latency() {
        // The acceptance check: over the reference net, the critical
        // path's attributed cycles reproduce the stepper's end-to-end
        // latency exactly (integer arithmetic — well within 1e-9).
        let (_, res) = traced_reference_run(64);
        let path = critical_path(&res).expect("traced");
        assert!(res.makespan > 0);
        assert!(
            (path.total() as f64 - res.makespan as f64).abs() < 1e-9,
            "attributed {} vs makespan {}",
            path.total(),
            res.makespan
        );
        assert_eq!(path.end, res.makespan);
        // The bounded queue ahead of the slow middle stage makes the
        // last token wait: queueing, not service, must dominate the
        // attributed latency.
        let by_kind = |k: perf_petri::trace::SegmentKind| -> u64 {
            path.segments
                .iter()
                .filter(|s| s.kind == k)
                .map(|s| s.cycles)
                .sum()
        };
        let queue = by_kind(perf_petri::trace::SegmentKind::Queue);
        let service = by_kind(perf_petri::trace::SegmentKind::Service);
        assert!(
            queue > service,
            "backpressured pipeline should be queue-dominated: queue {queue}, service {service}"
        );
        // All three stages appear on the chain from injection to the
        // last completion.
        for t in [0usize, 1, 2] {
            assert!(path.segments.iter().any(|s| s.trans == Some(t)));
        }
    }

    #[test]
    fn demo_renders_all_three_substrates() {
        let demo = run_trace_demo(true);
        // Petri section.
        assert!(demo.json.contains("\"net\": \"refpipe\""));
        assert!(demo.json.contains("\"critical_path_total\""));
        // Accelerator stage records.
        for comp in ["jpeg", "vta", "protoacc", "bitcoin"] {
            assert!(
                demo.json.contains(&format!("\"component\": \"{comp}\"")),
                "missing {comp} in JSON"
            );
        }
        // Autotuner spans, with both cache outcomes present.
        assert!(demo.json.contains("cache=miss"));
        assert!(demo.json.contains("cache=hit"));
        // Folded stacks cover the same ground.
        assert!(demo.folded.contains("refpipe;transform;service"));
        assert!(demo.folded.contains("jpeg;"));
        assert!(demo.folded.contains("autotune;petri-net"));
        // Every folded line is `frames count`.
        for line in demo.folded.lines() {
            let (_, count) = line.rsplit_once(' ').expect("space-separated count");
            count.parse::<u64>().expect("numeric count");
        }
    }

    #[test]
    fn chrome_export_has_all_processes_and_telescopes() {
        // `run_trace_demo` itself asserts the telescoping invariant
        // for both Petri processes (reference net and the composite
        // demo SoC); here we check the document structure.
        let demo = run_trace_demo(true);
        assert!(demo.chrome.contains("\"traceEvents\""));
        assert!(demo.chrome.ends_with("]}\n"));
        assert!(demo.chrome.contains("petri:refpipe"));
        assert!(demo.chrome.contains("petri:demo-soc"));
        assert!(demo.chrome.contains("\"name\":\"components\""));
        assert!(demo.chrome.contains("critical-path"));
        // Per-stage accounting tracks from the cycle models.
        assert!(demo.chrome.contains("jpeg."));
        assert!(demo.chrome.contains("autotune.spans"));
    }
}
