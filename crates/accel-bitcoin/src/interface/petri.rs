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
        let res = eng.run().map_err(CoreError::from)?;
        Ok(res.makespan)
    }
}

impl PerfInterface<MineJob> for BitcoinPetriInterface {
    fn kind(&self) -> InterfaceKind {
        InterfaceKind::PetriNet
    }

    fn predict(&self, job: &MineJob, metric: Metric) -> Result<Prediction, CoreError> {
        match metric {
            Metric::Throughput => {
                if job.difficulty_bits >= 200 {
                    // Steady-state: measure a long exhaustive scan.
                    let n = 1000u64;
                    let span = self.run(n, false)?;
                    Ok(Prediction::point(n as f64 / span as f64))
                } else {
                    // A first-find scan stops after a data-dependent
                    // number of hashes k, observing k / (k*Loop +
                    // report): worst with the report amortized over a
                    // single hash, best the reportless steady state.
                    let n = 1000u64;
                    let lo = self.run(1, true)?;
                    let hi = self.run(n, false)?;
                    Ok(Prediction::bounds(1.0 / lo as f64, n as f64 / hi as f64))
                }
            }
            Metric::Latency => {
                if job.difficulty_bits >= 200 {
                    let span = self.run(job.nonce_count as u64, false)?;
                    Ok(Prediction::point(span as f64))
                } else {
                    // The cheapest outcomes are an instant find (one
                    // hash plus the report) or — for short scans —
                    // exhausting without any find, paying no report.
                    let find = self.run(1, true)?;
                    let exhaust = self.run(job.nonce_count as u64, false)?;
                    let hi = self.run(job.nonce_count as u64, true)?;
                    Ok(Prediction::bounds(find.min(exhaust) as f64, hi as f64))
                }
            }
        }
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
