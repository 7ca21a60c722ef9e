//! VTA's performance-interface representations.

pub mod nl;
pub mod petri;
pub mod program;
pub mod service;

use crate::isa::Program;
use perf_core::iface::{InterfaceKind, Metric};
use perf_core::{Budget, InterfaceBundle};
use perf_iface_lang::lint::BoxVal;

/// Places the simulation harness injects tokens into: the instruction
/// stream plus the initially-marked engine-free resource places.
pub const ENTRY_PLACES: [&str; 5] = [
    "fetch_q",
    "fetch_free",
    "load_free",
    "compute_free",
    "store_free",
];

/// Builds VTA's vendor-shipped interface bundle (the full-fidelity
/// Petri net; see [`petri::VtaPetriInterface::new_lite`] for the
/// corner-cut ablation variant).
pub fn bundle() -> InterfaceBundle<Program> {
    InterfaceBundle::new("vta", nl::interface())
        .with(Box::new(
            program::VtaProgramInterface::new().expect("shipped .pi parses"),
        ))
        .with(Box::new(
            petri::VtaPetriInterface::new_full().expect("shipped .pnet parses"),
        ))
}

/// One decoded VTA instruction as an interval box: module selector
/// `m` ∈ {0 load, 1 compute, 2 store}, 0/1 classification flags, and
/// the work fields each engine's delay reads (DMA transfer ≤ 4 KiB,
/// GEMM ≤ 64 Ki MACs, ALU ≤ 4 Ki ops). This is both the Petri-net
/// token box and the element type of the program's `insns` list.
pub fn token_box() -> BoxVal {
    BoxVal::record([
        ("m", BoxVal::num(0.0, 2.0)),
        ("is_gemm", BoxVal::num(0.0, 1.0)),
        ("is_alu", BoxVal::num(0.0, 1.0)),
        ("is_mem", BoxVal::num(0.0, 1.0)),
        ("is_fin", BoxVal::num(0.0, 1.0)),
        ("bytes", BoxVal::num(0.0, 4096.0)),
        ("macs", BoxVal::num(0.0, 65536.0)),
        ("ops", BoxVal::num(0.0, 4096.0)),
    ])
}

/// VTA's declared workload family: instruction streams of 1–64
/// decoded instructions drawn from [`token_box`].
pub fn workload_box() -> BoxVal {
    BoxVal::record([("insns", BoxVal::list(token_box(), 1.0, 64.0))])
}

/// VTA's error budget per interface tier — one table for the query
/// service and the conformance harness. The 4-cycle deadband keeps the
/// finish-only degenerate case (1 hardware cycle) from inflating
/// relative errors; every genuine divergence found so far was tens of
/// cycles off.
pub fn budget(repr: InterfaceKind, _metric: Metric) -> Budget {
    match repr {
        InterfaceKind::NaturalLanguage => Budget::new(0.90, 4.0).with_atol(16.0),
        // The closed-form program interface ignores inter-engine
        // overlap; the paper reports tens of percent for VTA too.
        InterfaceKind::Program => Budget::new(0.60, 2.5).with_atol(4.0),
        InterfaceKind::PetriNet => Budget::new(0.05, 0.25).with_atol(4.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_complete() {
        let b = bundle();
        assert!(b.get(InterfaceKind::Program).is_some());
        assert!(b.get(InterfaceKind::PetriNet).is_some());
    }
}
