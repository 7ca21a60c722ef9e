//! The Bitcoin miner's performance-interface representations.

pub mod nl;
pub mod petri;
pub mod program;
pub mod service;

use crate::miner::{MineJob, MinerConfig};
use perf_core::iface::{InterfaceKind, Metric};
use perf_core::{Budget, InterfaceBundle};
use perf_iface_lang::lint::BoxVal;

/// Builds the miner's vendor-shipped interface bundle for a given
/// configuration.
pub fn bundle(cfg: MinerConfig) -> InterfaceBundle<MineJob> {
    InterfaceBundle::new("bitcoin-miner", nl::interface())
        .with(Box::new(
            program::BitcoinProgramInterface::new(cfg).expect("shipped .pi parses"),
        ))
        .with(Box::new(
            petri::BitcoinPetriInterface::new(cfg).expect("generated .pnet parses"),
        ))
}

/// The miner's declared job family as an interval box over the `.pi`
/// program's input record. `loop` is pinned to the default synthesized
/// configuration — the shipped `.pnet` is generated per configuration,
/// so cross-tier checks must compare both tiers at the *same* `Loop` —
/// while the scan window and difficulty range over every job the
/// harnesses generate.
pub fn workload_box() -> BoxVal {
    let loop_ = MinerConfig::default().loop_ as f64;
    BoxVal::record([
        ("loop", BoxVal::point(loop_)),
        ("nonce_count", BoxVal::num(1.0, 1_000_000.0)),
        ("difficulty_bits", BoxVal::num(0.0, 256.0)),
    ])
}

/// One Petri-net token's feature box: a nonce result carries only its
/// 0/1 `golden` flag (the generated net's delays are otherwise
/// configuration constants).
pub fn token_box() -> BoxVal {
    BoxVal::record([("golden", BoxVal::num(0.0, 1.0))])
}

/// The miner's error budget per interface tier — one table for the
/// query service and the conformance harness.
pub fn budget(repr: InterfaceKind, _metric: Metric) -> Budget {
    match repr {
        // The NL bounds are provably containing, so even their budget
        // stays tight.
        InterfaceKind::NaturalLanguage => Budget::new(0.05, 0.5).with_atol(4.0),
        // Deterministic hardware: exhaustive scans are predicted
        // exactly and stochastic ones via bounds, so the budget is
        // essentially numerical slack. The 2-cycle deadband absorbs
        // fault-injected stalls on single-nonce scans without masking
        // the (4-cycle) report-amortization divergence the conformance
        // harness once caught here.
        _ => Budget::new(0.002, 0.01).with_atol(2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_complete() {
        let b = bundle(MinerConfig::default());
        assert!(b.get(InterfaceKind::Program).is_some());
        assert!(b.get(InterfaceKind::PetriNet).is_some());
    }
}
