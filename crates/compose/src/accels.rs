//! The per-accelerator registry: one row of shipped facts per
//! accelerator, read by every tool that needs them.
//!
//! A vendor ships one description of an accelerator and many tools
//! consume it. [`ACCELS`] is that description for the four shipped
//! accelerators: the query backend, the `.pi` program, the Petri nets
//! with their entry places, the workload and token boxes, the NL
//! interface, the default pipeline-stage template, and the program
//! function that bounds a stage's throughput. Every row is assembled
//! from what the accelerator crate already exports; the consumers
//! (pipeline composition and its lints, the cross-tier checker, the
//! query service, `repro --lint-all`) look a name up with [`accel`]
//! instead of keeping their own tables.
//!
//! A field lives here only when two or more consumers read it.
//! Checker-only inputs (the cross-tier function lists and claim
//! probes) stay in `perf-xcheck`; conformance subjects are listed in
//! `perf_conformance::SUBJECTS`.

use perf_core::diag::Diagnostics;
use perf_core::nl::NlInterface;
use perf_core::query::QueryBackend;
use perf_core::CoreError;
use perf_iface_lang::lint::BoxVal;

use accel_bitcoin::interface as btc;
use accel_jpeg::interface as jpeg;
use accel_protoacc::interface as pacc;
use accel_vta::interface as vta;

/// One shipped Petri net.
#[derive(Clone, Debug)]
pub struct ShippedNet {
    /// File label for diagnostics (`jpeg.pnet`).
    pub origin: &'static str,
    /// The `.pnet` source text.
    pub src: String,
    /// Places the simulation harness injects tokens into.
    pub entries: Vec<&'static str>,
}

impl ShippedNet {
    fn new(origin: &'static str, src: impl Into<String>, entries: &[&'static str]) -> ShippedNet {
        ShippedNet {
            origin,
            src: src.into(),
            entries: entries.to_vec(),
        }
    }
}

/// The default per-item workload of a pipeline stage: spec kind and
/// fixed fields. Chosen so per-item cost is data-dependent but bounded
/// (the bitcoin stage scans a fixed nonce window instead of mining to
/// an unbounded first hit).
#[derive(Clone, Copy, Debug)]
pub struct Template {
    /// Spec kind submitted to the backend.
    pub kind: &'static str,
    /// Fixed spec fields.
    pub fields: &'static [(&'static str, f64)],
}

/// Everything the tools share about one shipped accelerator.
pub struct Accel {
    /// Registry name (`jpeg-decoder`); equals the backend's
    /// `QueryBackend::accel()`.
    pub name: &'static str,
    /// Builds the query backend. Backends are not `Send`, so each
    /// worker thread calls this once.
    pub backend: fn() -> Result<Box<dyn QueryBackend>, CoreError>,
    /// File label of the `.pi` interface program.
    pub pi_origin: &'static str,
    /// The `.pi` interface program source.
    pub pi_src: &'static str,
    /// The shipped Petri nets (the miner's is generated from its
    /// default configuration).
    pub nets: fn() -> Vec<ShippedNet>,
    /// The declared workload family over the program's input record.
    pub workload_box: fn() -> BoxVal,
    /// One Petri-net token's feature box.
    pub token_box: fn() -> BoxVal,
    /// The natural-language interface.
    pub nl: fn() -> NlInterface,
    /// Default workload template of a pipeline stage.
    pub template: Template,
    /// Program function whose upper bound over the workload box is the
    /// stage throughput ceiling (lint `PC001`).
    pub tput_fn: &'static str,
    /// Stage spec fields that narrow the workload box before bounding
    /// `tput_fn`, as `(spec field, box field)`.
    pub tput_map: &'static [(&'static str, &'static str)],
}

/// The four shipped accelerators.
pub static ACCELS: [Accel; 4] = [
    Accel {
        name: "jpeg-decoder",
        backend: || Ok(Box::new(jpeg::service::JpegService::new()?)),
        pi_origin: "jpeg.pi",
        pi_src: jpeg::program::JPEG_PI_SRC,
        nets: || {
            vec![ShippedNet::new(
                "jpeg.pnet",
                jpeg::petri::JPEG_PNET_SRC,
                &["blocks_in"],
            )]
        },
        workload_box: jpeg::workload_box,
        token_box: jpeg::token_box,
        nl: jpeg::nl::interface,
        template: Template {
            kind: "random",
            fields: &[("seed", 1.0)],
        },
        tput_fn: "tput_jpeg_decode",
        tput_map: &[],
    },
    Accel {
        name: "bitcoin-miner",
        backend: || Ok(Box::new(btc::service::BitcoinService::new())),
        pi_origin: "bitcoin.pi",
        pi_src: btc::program::BITCOIN_PI_SRC,
        nets: || {
            vec![ShippedNet::new(
                "bitcoin.pnet",
                btc::petri::pnet_source(&Default::default()),
                &["nonces"],
            )]
        },
        workload_box: btc::workload_box,
        token_box: btc::token_box,
        nl: btc::nl::interface,
        template: Template {
            kind: "scan",
            fields: &[
                ("loop", 4.0),
                ("seed", 1.0),
                ("nonce_count", 12.0),
                ("difficulty", 16.0),
            ],
        },
        tput_fn: "max_tput_job",
        tput_map: &[
            ("loop", "loop"),
            ("nonce_count", "nonce_count"),
            ("difficulty", "difficulty_bits"),
        ],
    },
    Accel {
        name: "protoacc",
        backend: || Ok(Box::new(pacc::service::ProtoaccService::new())),
        pi_origin: "protoacc.pi",
        pi_src: pacc::program::PROTOACC_PI_SRC,
        nets: || {
            vec![ShippedNet::new(
                "protoacc.pnet",
                pacc::petri::PROTOACC_PNET_SRC,
                &["msgs_in"],
            )]
        },
        workload_box: pacc::workload_box,
        token_box: pacc::token_box,
        nl: pacc::nl::interface,
        template: Template {
            kind: "format",
            fields: &[("idx", 1.0), ("n", 6.0), ("seed", 1.0)],
        },
        tput_fn: "tput_protoacc_ser",
        tput_map: &[],
    },
    Accel {
        name: "vta",
        backend: || Ok(Box::new(vta::service::VtaService::new())),
        pi_origin: "vta.pi",
        pi_src: vta::program::VTA_PI_SRC,
        nets: || {
            vec![
                ShippedNet::new(
                    "vta_full.pnet",
                    vta::petri::VTA_FULL_PNET_SRC,
                    &vta::ENTRY_PLACES,
                ),
                ShippedNet::new(
                    "vta_lite.pnet",
                    vta::petri::VTA_LITE_PNET_SRC,
                    &vta::ENTRY_PLACES,
                ),
            ]
        },
        workload_box: vta::workload_box,
        token_box: vta::token_box,
        nl: vta::nl::interface,
        template: Template {
            kind: "random",
            fields: &[("seed", 1.0), ("max_blocks", 6.0)],
        },
        tput_fn: "tput_vta",
        tput_map: &[],
    },
];

/// Looks up a shipped accelerator by registry name. The error names
/// every registered accelerator.
pub fn accel(name: &str) -> Result<&'static Accel, CoreError> {
    ACCELS.iter().find(|a| a.name == name).ok_or_else(|| {
        let have: Vec<&str> = ACCELS.iter().map(|a| a.name).collect();
        CoreError::Artifact(format!(
            "unknown accelerator `{name}` (have: {})",
            have.join(", ")
        ))
    })
}

impl Accel {
    /// Statically audits the shipped artifacts: the `.pi` program, then
    /// every net with its entry places.
    pub fn lint(&self) -> Diagnostics {
        let mut ds = perf_iface_lang::lint::lint_src(self.pi_origin, self.pi_src);
        for net in (self.nets)() {
            ds.merge(perf_petri::lint::lint_pnet_src(
                net.origin,
                &net.src,
                &net.entries,
            ));
        }
        ds
    }
}
