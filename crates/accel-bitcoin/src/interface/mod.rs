//! The Bitcoin miner's performance-interface representations.

pub mod nl;
pub mod petri;
pub mod program;
pub mod service;

use crate::miner::{MineJob, MinerConfig};
use perf_core::{Diagnostics, InterfaceBundle};
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

/// Statically audits the miner's shipped interface artifacts with the
/// `perf-lint` analyses. The net is generated per configuration, so
/// the audit covers the default-configuration instance; nonces enter
/// at `nonces`.
pub fn lint() -> Diagnostics {
    let mut ds = perf_iface_lang::lint::lint_src("bitcoin.pi", program::BITCOIN_PI_SRC);
    ds.merge(perf_petri::lint::lint_pnet_src(
        "bitcoin.pnet",
        &petri::pnet_source(&MinerConfig::default()),
        &["nonces"],
    ));
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_core::InterfaceKind;

    #[test]
    fn shipped_artifacts_lint_clean() {
        let ds = lint();
        assert_eq!(ds.count(perf_core::Severity::Error), 0, "{}", ds.render());
        assert_eq!(ds.count(perf_core::Severity::Warning), 0, "{}", ds.render());
    }

    #[test]
    fn bundle_complete() {
        let b = bundle(MinerConfig::default());
        assert!(b.get(InterfaceKind::Program).is_some());
        assert!(b.get(InterfaceKind::PetriNet).is_some());
    }
}
