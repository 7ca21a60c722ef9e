//! Seeded request generators for the three workloads.
//!
//! Every request is a pure function of `(seed, index)`: the client asks
//! for line `i` while timing, and the output check later regenerates
//! the request behind any answer from its slot alone, so no request
//! text has to be kept in memory while the workload runs.
//!
//! All specs stay inside the domains the adapters and
//! `accel_*::interface::workload_box()` declare: bitcoin `loop` = 8 and
//! `difficulty` ≤ 256, jpeg block `bits` ≤ 2048 and `nonzero` ≤ 63,
//! `stream` items ≤ 4096, at most 64 VTA instructions, and protoacc
//! messages of at most 64 fields and 4096 wire bytes.

use perf_core::iface::{InterfaceKind, Metric};
use perf_core::query::WorkloadSpec;
use perf_service::protocol::{ReprChoice, Request};
use std::borrow::Cow;

/// The chain topology (same shape as svcbench's pipeline rows).
pub const CHAIN: &str = "pipe:vta:2>protoacc:4";
/// The fan-out/fan-in topology (same shape as svcbench's DAG rows).
pub const DAG: &str = "pipe:vta:2>(protoacc:2|bitcoin-miner:2)>protoacc:3";

/// Deadline of every `large-deadline` request, in microseconds. Fixed,
/// not derived from timing: it sits between the cheapest (~2 ms, 2^12
/// nonces) and the dearest (~145 ms, 2^16 jpeg blocks) single-
/// accelerator Petri evaluation of the workload.
pub const LARGE_DEADLINE_US: u64 = 100_000;

/// Requests per line on `revisit-warm`.
pub const BATCH: usize = 64;
/// Distinct batch lines `revisit-warm` cycles through.
const POOL_LINES: usize = 256;
/// Hot-set size on `revisit-warm` (fits the 4096-entry cache).
const HOT: u64 = 1024;

/// Seeds of priming specs start here; measured specs draw seeds below
/// 2^32, so priming never recurs in the measured pass.
const PRIME_SEED: f64 = (1u64 << 40) as f64;

/// Protoacc suite formats inside the declared message box (≤ 64
/// fields, ≤ 4096 wire bytes).
const PROTOACC_FORMATS: [u64; 20] = [
    0, 1, 2, 3, 4, 7, 8, 9, 12, 16, 17, 18, 19, 20, 21, 22, 23, 24, 26, 29,
];

/// Latency for even `i`, throughput for odd: every workload alternates
/// the two metrics.
pub fn alternate(i: u64) -> Metric {
    if i.is_multiple_of(2) {
        Metric::Latency
    } else {
        Metric::Throughput
    }
}

/// SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E9B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator (SplitMix64).
pub struct Rng(u64);

impl Rng {
    /// The generator for draw `i` of `stream` under `seed`.
    pub fn at(seed: u64, stream: u64, i: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(mix(i)))))
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> f64 {
        (lo + self.below(hi - lo + 1)) as f64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// Stream tags keep independent draws independent.
const FRESH: u64 = 1;
const REASK: u64 = 2;
const HOTSET: u64 = 3;
const DRAW: u64 = 4;
const LARGE: u64 = 5;
const SAMPLE: u64 = 6;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A design-space explorer: mostly new, small-to-moderate points.
    ExploreCold,
    /// An autotuner re-asking a cached hot set in 64-request batches.
    RevisitWarm,
    /// Large queries under one fixed deadline.
    LargeDeadline,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "explore-cold" => Some(Workload::ExploreCold),
            "revisit-warm" => Some(Workload::RevisitWarm),
            "large-deadline" => Some(Workload::LargeDeadline),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreCold => "explore-cold",
            Workload::RevisitWarm => "revisit-warm",
            Workload::LargeDeadline => "large-deadline",
        }
    }

    /// Answers after which `rss_peak_mb` is read: fixed, so that it
    /// measures the same work on a fast host and a slow one (the
    /// service's memory grows with the requests it has served). Each
    /// is below what the slowest host seen answers in 40 s.
    pub fn rss_after(self) -> u64 {
        match self {
            Workload::ExploreCold => 1 << 16,
            Workload::RevisitWarm => 1 << 19,
            Workload::LargeDeadline => 1 << 12,
        }
    }

    /// Lines kept outstanding by the closed-loop client.
    pub fn depth(self) -> usize {
        match self {
            Workload::RevisitWarm => 1,
            _ => 2,
        }
    }
}

/// A workload's request source: line `i` of the measured pass, and the
/// request behind any slot (a response's `id`).
pub struct Source {
    workload: Workload,
    seed: u64,
    /// `revisit-warm` only: the batch lines the client cycles through.
    pool: Vec<String>,
}

/// A `(accel, spec)` point of some workload.
pub type Point = (&'static str, WorkloadSpec);

impl Source {
    /// Builds the source for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Source {
        let mut src = Source {
            workload,
            seed,
            pool: Vec::new(),
        };
        if workload == Workload::RevisitWarm {
            src.pool = (0..POOL_LINES as u64)
                .map(|l| {
                    let reqs: Vec<String> = (0..BATCH as u64)
                        .map(|k| src.request(l * BATCH as u64 + k).to_json())
                        .collect();
                    format!("[{}]", reqs.join(","))
                })
                .collect();
        }
        src
    }

    /// The workload this source drives.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Line `i` of the measured pass (one request, or a batch array).
    pub fn line(&self, i: u64) -> Cow<'_, str> {
        match self.workload {
            Workload::RevisitWarm => Cow::Borrowed(&self.pool[i as usize % POOL_LINES]),
            _ => Cow::Owned(self.request(i).to_json()),
        }
    }

    /// The request a response with `id == slot` answers.
    pub fn request(&self, slot: u64) -> Request {
        match self.workload {
            Workload::ExploreCold => {
                let base = reask_base(self.seed, slot);
                explore_request(self.seed, FRESH, base, slot)
            }
            Workload::RevisitWarm => {
                let hot = zipf(&mut Rng::at(self.seed, DRAW, slot), HOT);
                let mut r = explore_request(self.seed, HOTSET, hot, slot);
                r.id = slot;
                r
            }
            Workload::LargeDeadline => large_request(self.seed, slot),
        }
    }

    /// The hot set, one request per entry (`revisit-warm` warms the
    /// cache with these before timing); empty for other workloads.
    pub fn hot_set(&self) -> Vec<Request> {
        match self.workload {
            Workload::RevisitWarm => (0..HOT)
                .map(|h| explore_request(self.seed, HOTSET, h, h))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Requests that prime a fresh service: they build every worker's
    /// backends and, on `large-deadline`, show the ladder's cost model
    /// the Petri and program rungs at the workload's largest sizes, the
    /// steady state its deadline acts on. Their seeds or fields never
    /// occur in the measured pass.
    pub fn priming(&self) -> Vec<Request> {
        let req = |id: u64, accel: &str, spec: WorkloadSpec, repr: ReprChoice| Request {
            id,
            accel: accel.to_string(),
            spec,
            metric: Metric::Latency,
            repr,
            deadline_us: None,
        };
        let program = ReprChoice::Ceiling(InterfaceKind::Program);
        if self.workload == Workload::LargeDeadline {
            let auto = ReprChoice::Auto;
            return vec![
                req(0, "jpeg-decoder", flat(65536.0, 2048.0, 0.0), auto),
                req(1, "bitcoin-miner", scan(4096.0, 256.0, PRIME_SEED), auto),
                req(2, CHAIN, stream(4096.0, PRIME_SEED), auto),
                req(3, DAG, stream(4096.0, PRIME_SEED), auto),
                req(4, CHAIN, stream(4096.0, PRIME_SEED), program),
                req(5, DAG, stream(4096.0, PRIME_SEED), program),
            ];
        }
        // Two small points per family, so both workers likely build
        // every backend.
        let mut out = Vec::new();
        for k in 0..2u64 {
            let s = PRIME_SEED + k as f64;
            let points: [Point; 7] = [
                ("jpeg-decoder", flat(8.0 + k as f64, 64.0, 0.0)),
                ("jpeg-decoder", sized(32.0, 32.0, 50.0, s)),
                ("bitcoin-miner", scan(64.0, 256.0, s)),
                ("protoacc", format(0.0, 4.0, s)),
                ("vta", vta_random(2.0, s)),
                (CHAIN, stream(4.0, s)),
                (DAG, stream(4.0, s)),
            ];
            for (accel, spec) in points {
                out.push(req(out.len() as u64, accel, spec, ReprChoice::Auto));
            }
        }
        out
    }

    /// The fixed, seed-independent accuracy sample: requests shaped
    /// like the workload's, answered by the service after the timed
    /// pass and scored against the cycle-accurate simulator. Fixed so
    /// that `err_vs_sim_mean` moves only when answers do.
    pub fn accuracy_sample(&self) -> Vec<Request> {
        const REF_SEED: u64 = 0x5EED_ACC0;
        match self.workload {
            Workload::LargeDeadline => {
                // The smallest size octave of each family: the
                // simulator costs seconds per pipeline query beyond it.
                (0..6u64)
                    .map(|k| {
                        let mut rng = Rng::at(REF_SEED, SAMPLE, k);
                        let (accel, spec) = match k {
                            0 | 1 => (
                                "jpeg-decoder",
                                flat(4096.0, rng.range(48, 2048), rng.range(1, 63)),
                            ),
                            2 | 3 => (
                                "bitcoin-miner",
                                scan(4096.0, 256.0, rng.below(1 << 32) as f64),
                            ),
                            4 => (CHAIN, stream(256.0, rng.below(1 << 32) as f64)),
                            _ => (DAG, stream(256.0, rng.below(1 << 32) as f64)),
                        };
                        large_shape(k, accel, spec)
                    })
                    .collect()
            }
            _ => (0..24u64)
                .map(|k| explore_request(REF_SEED, SAMPLE, k, k))
                .collect(),
        }
    }

    /// Up to `k` specs of the workload for `accel` (an accelerator or
    /// topology name), for the per-layer rows. `large-deadline` sends no
    /// plain `protoacc` or `vta` queries; those rows take `explore-cold`
    /// points.
    pub fn layer_specs(&self, accel: &str, k: usize) -> Vec<WorkloadSpec> {
        let explore = |i| explore_request(self.seed, SAMPLE, i, i);
        let large = |i| large_request(self.seed, i);
        let draw: &dyn Fn(u64) -> Request = if self.workload == Workload::LargeDeadline
            && (0..256).any(|i| large(i).accel == accel)
        {
            &large
        } else {
            &explore
        };
        (0..4096)
            .map(draw)
            .filter(|r| r.accel == accel)
            .take(k)
            .map(|r| r.spec)
            .collect()
    }
}

/// The base (fresh) point request `i` of `explore-cold` asks about:
/// about one request in four re-asks one of the sixteen before it.
fn reask_base(seed: u64, mut i: u64) -> u64 {
    loop {
        let mut rng = Rng::at(seed, REASK, i);
        if i < 16 || rng.below(4) != 0 {
            return i;
        }
        i -= 1 + rng.below(16);
    }
}

/// Draws a rank in `[0, n)` with probability ∝ 1/(rank + 1) (Zipf
/// with exponent 1), by inverting the continuous approximation of the
/// harmonic sum.
fn zipf(rng: &mut Rng, n: u64) -> u64 {
    let r = ((n as f64 + 1.0).ln() * rng.unit()).exp() - 1.0;
    (r as u64).min(n - 1)
}

fn flat(blocks: f64, bits: f64, nonzero: f64) -> WorkloadSpec {
    WorkloadSpec::new("flat")
        .with("blocks", blocks)
        .with("bits", bits)
        .with("nonzero", nonzero)
}

fn sized(w: f64, h: f64, quality: f64, seed: f64) -> WorkloadSpec {
    WorkloadSpec::new("sized")
        .with("width", w)
        .with("height", h)
        .with("quality", quality)
        .with("seed", seed)
}

fn scan(nonces: f64, difficulty: f64, seed: f64) -> WorkloadSpec {
    WorkloadSpec::new("scan")
        .with("loop", 8.0)
        .with("nonce_count", nonces)
        .with("difficulty", difficulty)
        .with("seed", seed)
}

fn format(idx: f64, n: f64, seed: f64) -> WorkloadSpec {
    WorkloadSpec::new("format")
        .with("idx", idx)
        .with("n", n)
        .with("seed", seed)
}

fn vta_random(max_blocks: f64, seed: f64) -> WorkloadSpec {
    WorkloadSpec::new("random")
        .with("seed", seed)
        .with("max_blocks", max_blocks)
}

fn stream(items: f64, seed: f64) -> WorkloadSpec {
    WorkloadSpec::new("stream")
        .with("items", items)
        .with("seed", seed)
}

/// One small-to-moderate point over every family (`explore-cold`
/// traffic and the `revisit-warm` hot set).
fn explore_point(rng: &mut Rng) -> Point {
    let seed = rng.below(1 << 32) as f64;
    // Family weights: vta 2, jpeg flat 2, jpeg sized 1, bitcoin 2,
    // protoacc 2, chain 1, dag 1.
    match rng.below(11) {
        0 | 1 => ("vta", vta_random(rng.range(1, 8), seed)),
        2 | 3 => (
            "jpeg-decoder",
            flat(
                rng.range(1, 64),
                48.0 + 8.0 * rng.range(0, 250),
                rng.range(1, 63),
            ),
        ),
        4 => (
            "jpeg-decoder",
            sized(
                8.0 * rng.range(2, 16),
                8.0 * rng.range(2, 16),
                rng.range(30, 95),
                seed,
            ),
        ),
        5 | 6 => {
            // Mostly full scans; some easy targets stop at the first
            // golden nonce.
            let difficulty = if rng.below(10) < 7 {
                256.0
            } else {
                rng.range(8, 20)
            };
            ("bitcoin-miner", scan(rng.range(16, 1024), difficulty, seed))
        }
        7 | 8 => {
            if rng.below(10) < 7 {
                let idx = PROTOACC_FORMATS[rng.below(PROTOACC_FORMATS.len() as u64) as usize];
                ("protoacc", format(idx as f64, rng.range(1, 16), seed))
            } else {
                (
                    "protoacc",
                    WorkloadSpec::new("nested")
                        .with("depth", rng.range(0, 8))
                        .with("n", rng.range(1, 8))
                        .with("seed", seed),
                )
            }
        }
        9 => (CHAIN, stream(rng.range(2, 16), seed)),
        _ => (DAG, stream(rng.range(2, 16), seed)),
    }
}

/// The request for fresh point `point` of `stream`, carried as id `id`:
/// latency and throughput alternate, and the representation mix is
/// mostly `auto` with explicit `program` and `nl` ceilings.
fn explore_request(seed: u64, stream: u64, point: u64, id: u64) -> Request {
    let mut rng = Rng::at(seed, stream, point);
    let (accel, spec) = explore_point(&mut rng);
    let repr = match rng.below(20) {
        0..=13 => ReprChoice::Auto,
        14..=16 => ReprChoice::Ceiling(InterfaceKind::Program),
        _ => ReprChoice::Ceiling(InterfaceKind::NaturalLanguage),
    };
    Request {
        id,
        accel: accel.to_string(),
        spec,
        metric: alternate(point),
        repr,
        deadline_us: None,
    }
}

/// Request `i` of `large-deadline`: jpeg `flat` with 2^12–2^16 blocks,
/// bitcoin `scan` with 2^12–2^16 nonces, and chain / DAG `stream`s of
/// 256–4096 items (log-uniform sizes), all `auto` under one deadline.
fn large_request(seed: u64, i: u64) -> Request {
    let mut rng = Rng::at(seed, LARGE, i);
    let family = rng.below(4);
    let octaves = |rng: &mut Rng, lo: f64| (2f64.powf(lo + 4.0 * rng.unit())).round();
    let (accel, spec) = match family {
        0 => {
            let blocks = octaves(&mut rng, 12.0);
            (
                "jpeg-decoder",
                flat(blocks, rng.range(48, 2048), rng.range(1, 63)),
            )
        }
        1 => {
            let nonces = octaves(&mut rng, 12.0);
            (
                "bitcoin-miner",
                scan(nonces, 256.0, rng.below(1 << 32) as f64),
            )
        }
        2 => (
            CHAIN,
            stream(octaves(&mut rng, 8.0), rng.below(1 << 32) as f64),
        ),
        _ => (
            DAG,
            stream(octaves(&mut rng, 8.0), rng.below(1 << 32) as f64),
        ),
    };
    large_shape(i, accel, spec)
}

fn large_shape(i: u64, accel: &str, spec: WorkloadSpec) -> Request {
    Request {
        id: i,
        accel: accel.to_string(),
        spec,
        metric: alternate(i),
        repr: ReprChoice::Auto,
        deadline_us: Some(LARGE_DEADLINE_US),
    }
}
