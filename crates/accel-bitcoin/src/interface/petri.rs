//! Petri-net performance IR for the Bitcoin miner.
//!
//! The miner's net is tiny — a single hash-core transition whose delay
//! is the configuration's `Loop` — which is the point: the *structure*
//! (one serially-reused resource) plus one number captures the whole
//! accelerator's timing. The net text is generated per configuration,
//! as a vendor would ship one IR per synthesized variant.

use crate::miner::{MineJob, MinerConfig};
use perf_core::iface::{InterfaceKind, Metric, PerfInterface};
use perf_core::{CoreError, Prediction};
use perf_petri::net::Net;
use perf_petri::text;
use perf_petri::token::RecordShape;
use perf_petri::{NetExec, Options, PlaceId};
use std::cell::OnceCell;

/// Nonces in the exhaustive scan that measures the steady-state rate.
const STEADY_NONCES: u64 = 1000;

/// Renders the miner's `.pnet` source for a configuration.
pub fn pnet_source(cfg: &MinerConfig) -> String {
    format!(
        "# Petri-net performance IR for the Bitcoin miner (Loop = {loop_}).\n\
         net bitcoin_miner\n\
         const LOOP = {loop_};\n\
         const REPORT = {report};\n\
         \n\
         place nonces\n\
         place results cap 2\n\
         sink reported\n\
         \n\
         trans hash_core\n\
         \x20 in nonces\n\
         \x20 out results\n\
         \x20 delay LOOP\n\
         \n\
         trans report\n\
         \x20 in results\n\
         \x20 out reported\n\
         \x20 guard t.golden == 1\n\
         \x20 delay REPORT\n\
         \x20 priority 1\n\
         \n\
         trans discard\n\
         \x20 in results\n\
         \x20 out reported\n\
         \x20 delay 0\n",
        loop_ = cfg.loop_,
        report = cfg.report_cycles,
    )
}

/// Petri-net interface for the miner.
pub struct BitcoinPetriInterface {
    exec: NetExec,
    /// The nonce injection place.
    nonces: PlaceId,
    /// Nonce token field `golden`.
    nonce: RecordShape,
    src: String,
    /// The job-independent runs, indexed by `found` (see
    /// [`Self::constant_run`]).
    constant: [OnceCell<Result<u64, CoreError>>; 2],
}

impl BitcoinPetriInterface {
    /// Generates and parses the net for `cfg`; evaluations run the
    /// compiled stepper.
    pub fn new(cfg: MinerConfig) -> Result<BitcoinPetriInterface, CoreError> {
        let src = pnet_source(&cfg);
        let mut exec = NetExec::new(text::parse(&src)?);
        let nonces = exec
            .net()
            .place_id("nonces")
            .ok_or_else(|| CoreError::Artifact("net lacks nonces place".into()))?;
        let nonce = exec.record_shape(&["golden"]);
        Ok(BitcoinPetriInterface {
            exec,
            nonces,
            nonce,
            src,
            constant: Default::default(),
        })
    }

    /// The generated `.pnet` source.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// The parsed net.
    pub fn net(&self) -> &Net {
        self.exec.net()
    }

    /// Runs the net for a scan of `hashes` nonces, the last of which is
    /// golden if `found` (mirrors the simulator's early-stop shape).
    pub fn run(&self, hashes: u64, found: bool) -> Result<u64, CoreError> {
        let mut eng = self.exec.session(Options::default());
        for i in 0..hashes {
            let golden = found && i == hashes - 1;
            eng.inject_record(self.nonces, &self.nonce, &[f64::from(u8::from(golden))], 0);
        }
        Ok(eng.run()?.makespan)
    }

    /// `run(1, true)` if `found`, else `run(STEADY_NONCES, false)`. No
    /// job changes these, so each (or its error) is a constant of the
    /// net, run once, when first asked for.
    fn constant_run(&self, found: bool) -> Result<u64, CoreError> {
        let hashes = if found { 1 } else { STEADY_NONCES };
        let cell = &self.constant[usize::from(found)];
        cell.get_or_init(|| self.run(hashes, found)).clone()
    }
}

impl PerfInterface<MineJob> for BitcoinPetriInterface {
    fn kind(&self) -> InterfaceKind {
        InterfaceKind::PetriNet
    }

    fn predict(&self, job: &MineJob, metric: Metric) -> Result<Prediction, CoreError> {
        let n = job.nonce_count as u64;
        let hard = job.difficulty_bits >= 200;
        Ok(match metric {
            // Steady state is a long exhaustive scan. A first-find scan
            // stops after a data-dependent number of hashes k, observing
            // k / (k*Loop + report): worst with the report amortized
            // over a single hash, best the reportless steady state.
            Metric::Throughput => {
                let rate = STEADY_NONCES as f64 / self.constant_run(false)? as f64;
                if hard {
                    Prediction::point(rate)
                } else {
                    Prediction::bounds(1.0 / self.constant_run(true)? as f64, rate)
                }
            }
            Metric::Latency if hard => Prediction::point(self.run(n, false)? as f64),
            // The cheapest outcomes are an instant find (one hash plus
            // the report) or — for short scans — exhausting without any
            // find, paying no report.
            Metric::Latency => {
                let lo = self.constant_run(true)?.min(self.run(n, false)?);
                Prediction::bounds(lo as f64, self.run(n, true)? as f64)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::MinerCycleSim;
    use perf_core::GroundTruth;

    #[test]
    fn net_matches_simulator_on_exhaustive_scan() {
        for l in [1u64, 8, 64] {
            let cfg = MinerConfig::with_loop(l).unwrap();
            let iface = BitcoinPetriInterface::new(cfg).unwrap();
            let mut sim = MinerCycleSim::new(cfg);
            let job = MineJob::random(2, 200, 256);
            let obs = sim.measure(&job).unwrap();
            let pred = iface.predict(&job, Metric::Latency).unwrap();
            assert_eq!(pred, Prediction::Point(obs.latency.as_f64()), "Loop = {l}");
        }
    }

    #[test]
    fn net_matches_simulator_when_golden_found() {
        let cfg = MinerConfig::default();
        let iface = BitcoinPetriInterface::new(cfg).unwrap();
        let mut sim = MinerCycleSim::new(cfg);
        let job = MineJob::random(11, 100_000, 8);
        let out = sim.mine(&job);
        assert!(out.golden_nonce.is_some());
        // Replaying the net with the known hash count reproduces the
        // exact latency (hashes x Loop + report).
        let span = iface.run(out.hashes_done, true).unwrap();
        assert_eq!(span, out.cycles);
    }

    /// Predictions agree with the net runs they are defined by, and a
    /// repeated query on the same interface answers identically.
    #[test]
    fn predictions_equal_direct_runs() {
        for l in [1u64, 8, 64] {
            let iface = BitcoinPetriInterface::new(MinerConfig::with_loop(l).unwrap()).unwrap();
            let run = |n: u64, found: bool| iface.run(n, found).unwrap() as f64;
            for (difficulty, nonces) in [(10u32, 37u32), (199, 1), (200, 37), (256, 5)] {
                let job = MineJob::random(4, nonces, difficulty);
                let n = u64::from(nonces);
                let (tput, lat) = if difficulty >= 200 {
                    (
                        Prediction::point(1000.0 / run(1000, false)),
                        Prediction::point(run(n, false)),
                    )
                } else {
                    (
                        Prediction::bounds(1.0 / run(1, true), 1000.0 / run(1000, false)),
                        Prediction::bounds(run(1, true).min(run(n, false)), run(n, true)),
                    )
                };
                for _ in 0..2 {
                    let got_t = iface.predict(&job, Metric::Throughput).unwrap();
                    let got_l = iface.predict(&job, Metric::Latency).unwrap();
                    assert_eq!(got_t, tput, "Loop {l} difficulty {difficulty}");
                    assert_eq!(got_l, lat, "Loop {l} difficulty {difficulty}");
                }
            }
        }
    }

    #[test]
    fn throughput_prediction() {
        let cfg = MinerConfig::with_loop(32).unwrap();
        let iface = BitcoinPetriInterface::new(cfg).unwrap();
        let job = MineJob::random(1, 10, 256);
        let t = iface.predict(&job, Metric::Throughput).unwrap();
        assert!((t.midpoint() - 1.0 / 32.0).abs() < 1e-6);
    }

    // Conformance-harness counterexamples: short first-find scans
    // observe a report-amortized throughput well below 1/Loop, and a
    // short scan that exhausts unfound undercuts the instant-find
    // latency; both must fall inside the net's bounds.
    #[test]
    fn short_scan_bounds_cover_find_and_exhaust() {
        for (loop_, seed, n, diff) in [(1u64, 3u64, 1u32, 0u32), (8, 3, 1, 0), (8, 7, 1, 64)] {
            let cfg = MinerConfig::with_loop(loop_).unwrap();
            let iface = BitcoinPetriInterface::new(cfg).unwrap();
            let mut sim = MinerCycleSim::new(cfg);
            let job = MineJob::random(seed, n, diff);
            let obs = sim.measure(&job).unwrap();
            for metric in [Metric::Latency, Metric::Throughput] {
                let v = metric.of(&obs);
                let pred = iface.predict(&job, metric).unwrap();
                assert!(matches!(pred, Prediction::Bounds { .. }));
                assert!(
                    pred.contains(v),
                    "Loop {loop_} diff {diff}: {} {v} outside {pred}",
                    metric.name()
                );
            }
        }
    }

    #[test]
    fn source_is_parseable_text() {
        let cfg = MinerConfig::with_loop(2).unwrap();
        let iface = BitcoinPetriInterface::new(cfg).unwrap();
        assert!(iface.source().contains("const LOOP = 2;"));
        assert!(perf_petri::text::parse(iface.source()).is_ok());
    }
}
