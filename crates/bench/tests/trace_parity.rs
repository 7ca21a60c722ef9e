//! Tracing is observation only: on every shipped `.pnet` and on both
//! demo composites, a traced stepper run returns exactly the untraced
//! run's result (every `SimResult` field but the trace itself), and
//! its critical path telescopes to the makespan.

use perf_compose::{Composite, StreamParams, Topology};
use perf_iface_lang::Value;
use perf_petri::trace::{critical_path, DEFAULT_TRACE_CAPACITY};
use perf_petri::{text, Net, NetExec, Options, PlaceId, SimResult, Token};

fn run(exec: &NetExec, injects: &[(PlaceId, Token)], trace: bool) -> SimResult {
    let mut s = exec.session(Options {
        trace: trace.then_some(DEFAULT_TRACE_CAPACITY),
        ..Options::default()
    });
    for (p, t) in injects {
        s.inject(*p, t.clone());
    }
    s.run().expect("shipped nets run to completion")
}

fn assert_trace_is_observation_only(label: &str, net: Net, injects: &[(PlaceId, Token)]) {
    let exec = NetExec::new(net);
    let plain = run(&exec, injects, false);
    let traced = run(&exec, injects, true);
    assert!(
        plain.trace.is_none(),
        "{label}: untraced run carries a trace"
    );
    assert_eq!(plain.makespan, traced.makespan, "{label}: makespan");
    assert_eq!(
        plain.completions, traced.completions,
        "{label}: completions"
    );
    assert_eq!(plain.events, traced.events, "{label}: events");
    assert_eq!(plain.firings, traced.firings, "{label}: firings");
    assert_eq!(plain.busy, traced.busy, "{label}: busy");
    assert_eq!(plain.high_water, traced.high_water, "{label}: high-water");
    assert_eq!(plain.stranded, traced.stranded, "{label}: stranded");
    assert!(!plain.completions.is_empty(), "{label}: workload completes");
    let path = critical_path(&traced).expect("traced run with completions");
    assert_eq!(path.total(), traced.makespan, "{label}: critical path");
}

fn record(fields: &[(&'static str, u64)]) -> Value {
    Value::record(fields.iter().map(|&(k, v)| (k, Value::from(v))))
}

#[test]
fn jpeg_net() {
    let net = text::parse(accel_jpeg::interface::petri::JPEG_PNET_SRC).unwrap();
    let src = net.place_id("blocks_in").unwrap();
    let img = accel_jpeg::workload::ImageGen::new(3).gen_image();
    let injects: Vec<_> = img
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let tok = record(&[
                ("bits", b.bits as u64),
                ("nz", b.nonzero as u64),
                ("pg", u64::from(i % 64 == 0)),
            ]);
            (src, Token::at(tok, 40))
        })
        .collect();
    assert_trace_is_observation_only("jpeg", net, &injects);
}

#[test]
fn vta_nets() {
    use accel_vta::interface::petri::{insn_token, VTA_FULL_PNET_SRC, VTA_LITE_PNET_SRC};
    let prog = accel_vta::gen::ProgGen::new(5).gen_program();
    for (label, src) in [
        ("vta_full", VTA_FULL_PNET_SRC),
        ("vta_lite", VTA_LITE_PNET_SRC),
    ] {
        let net = text::parse(src).unwrap();
        let mut injects = Vec::new();
        for free in ["fetch_free", "load_free", "compute_free", "store_free"] {
            injects.push((
                net.place_id(free).unwrap(),
                Token::at(record(&[("u", 0)]), 0),
            ));
        }
        let fetch_q = net.place_id("fetch_q").unwrap();
        for insn in &prog.insns {
            injects.push((fetch_q, Token::at(insn_token(insn), 0)));
        }
        assert_trace_is_observation_only(label, net, &injects);
    }
}

#[test]
fn protoacc_net() {
    let net = text::parse(accel_protoacc::interface::petri::PROTOACC_PNET_SRC).unwrap();
    let src = net.place_id("msgs_in").unwrap();
    let injects: Vec<_> = (0..40u64)
        .map(|i| {
            let tok = record(&[
                ("read_cost", 50 + (i * 37) % 400),
                ("write_cost", 20 + (i * 11) % 90),
            ]);
            (src, Token::at(tok, 0))
        })
        .collect();
    assert_trace_is_observation_only("protoacc", net, &injects);
}

#[test]
fn bitcoin_net() {
    let cfg = accel_bitcoin::miner::MinerConfig::with_loop(8).unwrap();
    let net = text::parse(&accel_bitcoin::interface::petri::pnet_source(&cfg)).unwrap();
    let src = net.place_id("nonces").unwrap();
    let injects: Vec<_> = (0..200u64)
        .map(|i| {
            (
                src,
                Token::at(record(&[("golden", u64::from(i % 17 == 0))]), 0),
            )
        })
        .collect();
    assert_trace_is_observation_only("bitcoin", net, &injects);
}

#[test]
fn demo_composites() {
    for (label, toml) in [
        ("demo-soc", perf_bench::composedemo::DEMO_TOPOLOGY),
        ("demo-soc-dag", perf_bench::composedemo::DEMO_DAG_TOPOLOGY),
    ] {
        let mut comp = Composite::new(Topology::parse_toml(toml).unwrap()).unwrap();
        let tokens = comp
            .stream_tokens(&StreamParams { items: 12, seed: 7 })
            .unwrap();
        let net = comp.build_net().unwrap();
        let entry = net.place_id("in").unwrap();
        let injects: Vec<_> = tokens.into_iter().map(|t| (entry, t)).collect();
        assert_trace_is_observation_only(label, net, &injects);
    }
}
