//! Cross-crate integration: every accelerator's vendor bundle is
//! complete, self-consistent, and ranked by precision as the paper
//! prescribes (natural language < program < Petri net).

use perf_interfaces::core::iface::{InterfaceKind, Metric};
use perf_interfaces::core::validate::validate;
use perf_interfaces::{bitcoin, jpeg, protoacc, vta};

#[test]
fn jpeg_bundle_precision_ordering() {
    let bundle = jpeg::interface::bundle();
    assert_eq!(
        bundle.most_precise().expect("has interfaces").kind(),
        InterfaceKind::PetriNet
    );
    let mut sim = jpeg::JpegCycleSim::default();
    let mut g = jpeg::ImageGen::new(314);
    let imgs = g.gen_many(20);
    let prog = bundle.get(InterfaceKind::Program).expect("shipped");
    let petri = bundle.get(InterfaceKind::PetriNet).expect("shipped");
    let rp = validate(&mut sim, prog, Metric::Latency, &imgs).expect("validates");
    let rn = validate(&mut sim, petri, Metric::Latency, &imgs).expect("validates");
    assert!(
        rn.point.avg < rp.point.avg,
        "petri {:.4} must beat program {:.4}",
        rn.point.avg,
        rp.point.avg
    );
}

#[test]
fn vta_bundle_precision_ordering() {
    let bundle = vta::interface::bundle();
    let mut sim = vta::VtaCycleSim::new_timing_only(vta::VtaHwConfig::default());
    let mut g = vta::gen::ProgGen::new(314);
    let progs = g.gen_many(15);
    let prog = bundle.get(InterfaceKind::Program).expect("shipped");
    let petri = bundle.get(InterfaceKind::PetriNet).expect("shipped");
    let rp = validate(&mut sim, prog, Metric::Latency, &progs).expect("validates");
    let rn = validate(&mut sim, petri, Metric::Latency, &progs).expect("validates");
    assert!(rn.point.avg < rp.point.avg);
    assert!(rn.point.avg < 0.05, "petri avg {:.4}", rn.point.avg);
}

#[test]
fn protoacc_bundle_throughput_and_bounds() {
    let bundle = protoacc::interface::bundle();
    let mut sim = protoacc::simx::ProtoaccSim::default();
    let workloads: Vec<_> = protoacc::suite::formats()
        .iter()
        .take(8)
        .map(|d| protoacc::simx::ProtoWorkload::of_format(d, 10, 3))
        .collect();
    let prog = bundle.get(InterfaceKind::Program).expect("shipped");
    let tput = validate(&mut sim, prog, Metric::Throughput, &workloads).expect("validates");
    assert!(tput.point.avg < 0.2, "tput avg err {:.3}", tput.point.avg);
    let lat_workloads: Vec<_> = protoacc::suite::formats()
        .iter()
        .take(8)
        .map(|d| protoacc::simx::ProtoWorkload::of_format(d, 1, 3))
        .collect();
    let lat = validate(&mut sim, prog, Metric::Latency, &lat_workloads).expect("validates");
    assert_eq!(lat.bounds.coverage(), 1.0, "latency always within bounds");
}

#[test]
fn bitcoin_bundle_exact() {
    let cfg = bitcoin::miner::MinerConfig::default();
    let bundle = bitcoin::interface::bundle(cfg);
    let mut sim = bitcoin::miner::MinerCycleSim::new(cfg);
    let jobs: Vec<_> = (0..5)
        .map(|s| bitcoin::miner::MineJob::random(s, 300, 256))
        .collect();
    let petri = bundle.get(InterfaceKind::PetriNet).expect("shipped");
    let r = validate(&mut sim, petri, Metric::Latency, &jobs).expect("validates");
    assert_eq!(r.point.avg, 0.0, "miner net is exact on exhaustive scans");
}

#[test]
fn every_shipped_artifact_parses_and_analyzes() {
    use perf_interfaces::petri::{analysis, text};
    for n in perf_compose::ACCELS.iter().flat_map(|a| (a.nets)()) {
        let name = n.origin;
        let net = text::parse(&n.src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let s = analysis::structure(&net);
        assert!(!s.sinks.is_empty(), "{name} needs a sink");
        assert!(
            s.dead_ends.is_empty(),
            "{name} has dead-end places {:?}",
            s.dead_ends
        );
        // DOT export renders.
        let dot = perf_interfaces::petri::dot::to_dot(&net);
        assert!(dot.contains("digraph"), "{name} DOT export");
    }
    for a in &perf_compose::ACCELS {
        perf_interfaces::lang::Program::parse(a.pi_src)
            .unwrap_or_else(|e| panic!("{}: {e}", a.pi_origin));
    }
}
