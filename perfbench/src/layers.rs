//! Per-layer rows of the traced run, each timed from outside through
//! the layer's public functions: registry construction, spec
//! realization, deep fingerprints, the three tier evaluators, the
//! composite tiers, the cycle-accurate simulator, and the Petri
//! size-scaling rows.

use crate::gen::{alternate, Source, CHAIN, DAG};
use crate::stats::{median, time_call};
use accel_bitcoin::miner::MinerConfig;
use perf_core::iface::{InterfaceKind, Metric};
use perf_core::query::WorkloadSpec;
use perf_core::{InterfaceBundle, Prediction};
use perf_service::registry;

/// Named metric rows: (name, value, unit).
pub type Rows = Vec<(String, f64, &'static str)>;

/// Specs timed per accelerator or topology.
const SPECS: usize = 6;

/// `registry.construct_ns.*` rows: building each backend the service
/// builds lazily per worker.
pub fn construct_rows(rows: &mut Rows) {
    for (short, accel) in NAMES {
        let xs: Vec<f64> = (0..5)
            .map(|_| time_call(|| registry::backend(accel).expect("registered")))
            .collect();
        rows.push((format!("registry.construct_ns.{short}"), median(&xs), "ns"));
    }
}

const NAMES: [(&str, &str); 6] = [
    ("jpeg", "jpeg-decoder"),
    ("bitcoin", "bitcoin-miner"),
    ("protoacc", "protoacc"),
    ("vta", "vta"),
    ("chain", CHAIN),
    ("dag", DAG),
];

/// Times one accelerator's layers on `specs`: realize, deep (Petri)
/// fingerprint, NL closed form, `.pi` VM, Petri stepper, and the
/// cycle-accurate simulator.
fn tier_rows<W>(
    short: &str,
    accel: &str,
    specs: &[WorkloadSpec],
    realize: impl Fn(&WorkloadSpec) -> W,
    nl: impl Fn(&W, Metric) -> Prediction,
    bundle: &InterfaceBundle<W>,
    rows: &mut Rows,
) {
    let mut backend = registry::backend(accel).expect("registered");
    let program = bundle.get(InterfaceKind::Program).expect("program tier");
    let petri = bundle.get(InterfaceKind::PetriNet).expect("petri tier");
    let mut t: [Vec<f64>; 6] = Default::default();
    for (i, spec) in specs.iter().enumerate() {
        let m = alternate(i as u64);
        let w = realize(spec);
        t[0].push(time_call(|| realize(spec)));
        t[1].push(time_call(|| {
            backend.fingerprint(spec, InterfaceKind::PetriNet)
        }));
        t[2].push(time_call(|| nl(&w, m)));
        t[3].push(time_call(|| {
            program.predict(&w, m).expect("program tier answers")
        }));
        t[4].push(time_call(|| {
            petri.predict(&w, m).expect("petri tier answers")
        }));
        t[5].push(time_call(|| backend.measure(spec).expect("simulator runs")));
    }
    let names = [
        "adapter.realize_ns",
        "adapter.fingerprint_ns",
        "nl.eval_ns",
        "vm.eval_ns",
        "petri.eval_ns",
        "sim.measure_ns",
    ];
    for (name, xs) in names.iter().zip(&t) {
        rows.push((format!("{name}.{short}"), median(xs), "ns"));
    }
    rows.push((
        format!("sim.over_petri.{short}"),
        median(&t[5]) / median(&t[4]),
        "ratio",
    ));
}

/// Per-accelerator layer rows on the workload's own specs.
pub fn accel_rows(src: &Source, rows: &mut Rows) {
    use accel_bitcoin::interface::service as btc;
    use accel_jpeg::interface::service as jpeg;
    use accel_protoacc::interface::service as proto;
    use accel_vta::interface::service as vta;

    let specs = src.layer_specs("jpeg-decoder", SPECS);
    let adapter = jpeg::JpegService::new().expect("jpeg adapter builds");
    tier_rows(
        "jpeg",
        "jpeg-decoder",
        &specs,
        |s| adapter.realize(s).expect("in-domain spec"),
        jpeg::nl_bounds,
        &accel_jpeg::interface::bundle(),
        rows,
    );

    let specs = src.layer_specs("bitcoin-miner", SPECS);
    let adapter = btc::BitcoinService::new();
    let cfg = MinerConfig::with_loop(8).expect("loop 8 is a valid miner");
    tier_rows(
        "bitcoin",
        "bitcoin-miner",
        &specs,
        |s| adapter.realize(s).expect("in-domain spec").1,
        |job, m| btc::nl_bounds(cfg, job, m),
        &accel_bitcoin::interface::bundle(cfg),
        rows,
    );

    let specs = src.layer_specs("protoacc", SPECS);
    let adapter = proto::ProtoaccService::new();
    tier_rows(
        "protoacc",
        "protoacc",
        &specs,
        |s| adapter.realize(s).expect("in-domain spec"),
        proto::nl_bounds,
        &accel_protoacc::interface::bundle(),
        rows,
    );

    let specs = src.layer_specs("vta", SPECS);
    let adapter = vta::VtaService::new();
    tier_rows(
        "vta",
        "vta",
        &specs,
        |s| adapter.realize(s).expect("in-domain spec"),
        vta::nl_bounds,
        &accel_vta::interface::bundle(),
        rows,
    );
}

/// Composite rows (`compose.{program,petri}_ns.C`) on the workload's
/// own `stream` specs of each topology.
pub fn compose_rows(src: &Source, rows: &mut Rows) {
    for (short, accel) in [("chain", CHAIN), ("dag", DAG)] {
        let specs = src.layer_specs(accel, SPECS);
        let mut b = registry::backend(accel).expect("registered");
        let (mut program, mut petri) = (Vec::new(), Vec::new());
        for (i, spec) in specs.iter().enumerate() {
            let m = alternate(i as u64);
            program.push(time_call(|| {
                b.predict(spec, InterfaceKind::Program, m).expect("answers")
            }));
            petri.push(time_call(|| {
                b.predict(spec, InterfaceKind::PetriNet, m)
                    .expect("answers")
            }));
        }
        rows.push((
            format!("compose.program_ns.{short}"),
            median(&program),
            "ns",
        ));
        rows.push((format!("compose.petri_ns.{short}"), median(&petri), "ns"));
    }
}

/// Size-scaling rows: Petri ns per token at 2^8, 2^12 and 2^16 tokens
/// for jpeg `flat` and bitcoin `scan`, and composite Petri ns per item
/// at 2^8 and 2^12 items (`stream` allows at most 4096) for both
/// topologies. Workload-independent.
pub fn scaling_rows(rows: &mut Rows) {
    let jpeg_adapter =
        accel_jpeg::interface::service::JpegService::new().expect("jpeg adapter builds");
    let jpeg = accel_jpeg::interface::bundle();
    let jpeg_petri = jpeg.get(InterfaceKind::PetriNet).expect("petri tier");
    let cfg = MinerConfig::with_loop(8).expect("loop 8 is a valid miner");
    let btc_adapter = accel_bitcoin::interface::service::BitcoinService::new();
    let btc = accel_bitcoin::interface::bundle(cfg);
    let btc_petri = btc.get(InterfaceKind::PetriNet).expect("petri tier");
    for lg in [8u32, 12, 16] {
        let n = (1u64 << lg) as f64;
        let spec = WorkloadSpec::new("flat")
            .with("blocks", n)
            .with("bits", 256.0)
            .with("nonzero", 16.0);
        let img = jpeg_adapter.realize(&spec).expect("in-domain spec");
        let ns = time_call(|| jpeg_petri.predict(&img, Metric::Latency).expect("answers"));
        rows.push((
            format!("petri.ns_per_token.jpeg.t{}", 1u64 << lg),
            ns / n,
            "ns",
        ));
        let spec = WorkloadSpec::new("scan")
            .with("loop", 8.0)
            .with("nonce_count", n)
            .with("difficulty", 256.0)
            .with("seed", 1.0);
        let (_, job) = btc_adapter.realize(&spec).expect("in-domain spec");
        let ns = time_call(|| btc_petri.predict(&job, Metric::Latency).expect("answers"));
        rows.push((
            format!("petri.ns_per_token.bitcoin.t{}", 1u64 << lg),
            ns / n,
            "ns",
        ));
    }
    for (short, accel) in [("chain", CHAIN), ("dag", DAG)] {
        let mut b = registry::backend(accel).expect("registered");
        for n in [256u64, 4096] {
            let spec = WorkloadSpec::new("stream")
                .with("items", n as f64)
                .with("seed", 1.0);
            let ns = time_call(|| {
                b.predict(&spec, InterfaceKind::PetriNet, Metric::Latency)
                    .expect("answers")
            });
            rows.push((
                format!("compose.ns_per_item.{short}.t{n}"),
                ns / n as f64,
                "ns",
            ));
        }
    }
}
