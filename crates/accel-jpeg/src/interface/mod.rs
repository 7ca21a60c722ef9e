//! The JPEG decoder's three performance-interface representations.

pub mod nl;
pub mod petri;
pub mod program;
pub mod service;

use crate::workload::Image;
use perf_core::iface::{InterfaceKind, Metric};
use perf_core::{Budget, InterfaceBundle};
use perf_iface_lang::lint::BoxVal;

/// Builds the full vendor-shipped interface bundle for the JPEG
/// decoder: prose, program, and Petri net.
pub fn bundle() -> InterfaceBundle<Image> {
    InterfaceBundle::new("jpeg-decoder", nl::interface())
        .with(Box::new(
            program::JpegProgramInterface::new().expect("shipped .pi program parses"),
        ))
        .with(Box::new(
            petri::JpegPetriInterface::new().expect("shipped .pnet net parses"),
        ))
}

/// The decoder's declared workload family as an interval box over the
/// `.pi` program's input record: every image the workload generators
/// can produce falls inside it (dimensions clamp to 8..4096 per axis,
/// so 64 ≤ `orig_size` ≤ 4096², and re-encoding never leaves the
/// 1.5×–64× compression envelope). The cross-tier bound checker
/// evaluates the program interface over this box.
pub fn workload_box() -> BoxVal {
    BoxVal::record([
        ("orig_size", BoxVal::num(64.0, 4096.0 * 4096.0)),
        ("compress_rate", BoxVal::num(1.5, 64.0)),
    ])
}

/// One Petri-net token's feature box: an 8×8 block carries its coded
/// bit count (floored at 6 by the encoder, capped by 64 coefficients ×
/// 32 bits), its nonzero-coefficient count, and a 0/1 page-crossing
/// flag.
pub fn token_box() -> BoxVal {
    BoxVal::record([
        ("bits", BoxVal::num(6.0, 2048.0)),
        ("nz", BoxVal::num(0.0, 63.0)),
        ("pg", BoxVal::num(0.0, 1.0)),
    ])
}

/// The decoder's error budget per interface tier — one table for the
/// query service and the conformance harness.
pub fn budget(repr: InterfaceKind, _metric: Metric) -> Budget {
    match repr {
        // The NL bound is accountable only to containment plus slack.
        InterfaceKind::NaturalLanguage => Budget::new(0.80, 3.0).with_atol(32.0),
        // Aggregate-statistics program: a few percent typical, up to
        // ~1/3 on degenerate single-block images.
        InterfaceKind::Program => Budget::new(0.10, 0.35),
        // Per-block Petri net: sub-1% mean (Table 1). The deadband
        // covers the pipeline's per-stage handoff cycles the
        // event-driven net does not tick through.
        InterfaceKind::PetriNet => Budget::new(0.01, 0.05).with_atol(8.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_has_all_three_representations() {
        let b = bundle();
        assert!(!b.natural_language.text.is_empty());
        assert!(b.get(InterfaceKind::Program).is_some());
        assert!(b.get(InterfaceKind::PetriNet).is_some());
        assert_eq!(b.most_precise().unwrap().kind(), InterfaceKind::PetriNet);
    }
}
