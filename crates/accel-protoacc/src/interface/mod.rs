//! Protoacc's performance-interface representations.

pub mod nl;
pub mod petri;
pub mod program;
pub mod service;

use crate::simx::ProtoWorkload;
use perf_core::{Diagnostics, InterfaceBundle};
use perf_iface_lang::lint::BoxVal;

/// Builds Protoacc's vendor-shipped interface bundle.
pub fn bundle() -> InterfaceBundle<ProtoWorkload> {
    InterfaceBundle::new("protoacc", nl::interface())
        .with(Box::new(
            program::ProtoaccProgramInterface::new().expect("shipped .pi parses"),
        ))
        .with(Box::new(
            petri::ProtoaccPetriInterface::new().expect("generated .pnet parses"),
        ))
}

/// Protoacc's declared message family as an interval box over the
/// `.pi` program's input record, restricted to *leaf* messages
/// (`subs` pinned empty): interval boxes cannot express recursive
/// nesting, so the cross-tier checker probes nesting with concrete
/// message values instead and uses this box for the flat bounds.
pub fn workload_box() -> BoxVal {
    BoxVal::record([
        ("num_fields", BoxVal::num(0.0, 64.0)),
        ("num_writes", BoxVal::num(0.0, 256.0)),
        ("wire_bytes", BoxVal::num(0.0, 4096.0)),
        (
            "subs",
            BoxVal::list(
                BoxVal::record([("num_fields", BoxVal::num(0.0, 0.0))]),
                0.0,
                0.0,
            ),
        ),
    ])
}

/// One Petri-net token's feature box: the ingest adapter precomputes
/// each message's read and write cost onto the token. The floors match
/// the program tier's leaf-message floors (`MSG_SETUP + 2·MEM` for a
/// read, `WRITE_SETUP` for a write).
pub fn token_box() -> BoxVal {
    BoxVal::record([
        ("read_cost", BoxVal::num(296.0, 1.0e6)),
        ("write_cost", BoxVal::num(5.0, 1.0e6)),
    ])
}

/// Statically audits Protoacc's shipped interface artifacts with the
/// `perf-lint` analyses. Messages enter the net at `msgs_in`.
pub fn lint() -> Diagnostics {
    let mut ds = perf_iface_lang::lint::lint_src("protoacc.pi", program::PROTOACC_PI_SRC);
    ds.merge(perf_petri::lint::lint_pnet_src(
        "protoacc.pnet",
        petri::PROTOACC_PNET_SRC,
        &["msgs_in"],
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
        let b = bundle();
        assert!(b.get(InterfaceKind::Program).is_some());
        assert!(b.get(InterfaceKind::PetriNet).is_some());
        assert!(!b.natural_language.claims.is_empty());
    }
}
