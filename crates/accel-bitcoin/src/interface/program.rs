//! Program interface for the Bitcoin miner.
//!
//! Latency of a first-find scan is inherently stochastic (the golden
//! nonce's position is data-dependent), so the interface predicts
//! *bounds* for such jobs — the same move the paper makes for
//! Protoacc's latency in Fig. 3 — and a point for exhaustive scans.

use crate::miner::{MineJob, MinerConfig};
use perf_core::iface::{InterfaceKind, Metric, PerfInterface};
use perf_core::{CoreError, Prediction};
use perf_iface_lang::vm::Executable;
use perf_iface_lang::{Program, Value};

/// The shipped interface program source.
pub const BITCOIN_PI_SRC: &str = include_str!("../../assets/bitcoin.pi");

/// Executable program interface for the miner, bound to a hardware
/// configuration.
pub struct BitcoinProgramInterface {
    prog: Executable,
    cfg: MinerConfig,
}

impl BitcoinProgramInterface {
    /// Parses the shipped program for configuration `cfg`; calls run
    /// the bytecode VM.
    pub fn new(cfg: MinerConfig) -> Result<BitcoinProgramInterface, CoreError> {
        let prog =
            Program::parse(BITCOIN_PI_SRC).map_err(|e| CoreError::Artifact(e.to_string()))?;
        let prog = Executable::compiled(prog).map_err(|e| CoreError::Artifact(e.to_string()))?;
        Ok(BitcoinProgramInterface { prog, cfg })
    }

    /// The program's source text.
    pub fn source(&self) -> &str {
        self.prog.source()
    }

    fn cfg_value(&self) -> Value {
        Value::record([("loop", Value::from(self.cfg.loop_))])
    }

    fn job_value(&self, job: &MineJob) -> Value {
        Value::record([
            ("loop", Value::from(self.cfg.loop_)),
            ("nonce_count", Value::from(job.nonce_count as u64)),
            ("difficulty_bits", Value::from(job.difficulty_bits as u64)),
        ])
    }

    fn call_num(&self, f: &str, arg: Value) -> Result<f64, CoreError> {
        self.prog
            .call(f, &[arg])
            .map_err(|e| CoreError::Artifact(e.to_string()))?
            .as_num()
            .ok_or_else(|| CoreError::InvalidPrediction("non-numeric".into()))
    }

    /// Predicted per-hash latency in cycles.
    pub fn hash_latency(&self) -> Result<f64, CoreError> {
        self.call_num("latency_hash", self.cfg_value())
    }

    /// Predicted silicon area in kGE.
    pub fn area_kge(&self) -> Result<f64, CoreError> {
        self.call_num("area_kge", self.cfg_value())
    }
}

impl PerfInterface<MineJob> for BitcoinProgramInterface {
    fn kind(&self) -> InterfaceKind {
        InterfaceKind::Program
    }

    fn predict(&self, job: &MineJob, metric: Metric) -> Result<Prediction, CoreError> {
        match metric {
            Metric::Throughput => {
                if job.difficulty_bits >= 200 {
                    // Exhaustive scan: the steady-state rate is exact.
                    let t = self.call_num("tput_hash", self.cfg_value())?;
                    Ok(Prediction::point(t))
                } else {
                    // A first-find scan stops after a data-dependent
                    // number of hashes and amortizes the report
                    // overhead over however many it did: bounds, like
                    // latency.
                    let lo = self.call_num("min_tput_job", self.job_value(job))?;
                    let hi = self.call_num("max_tput_job", self.job_value(job))?;
                    Ok(Prediction::bounds(lo, hi))
                }
            }
            Metric::Latency => {
                if job.difficulty_bits >= 200 {
                    // Effectively unreachable target: exhaustive scan,
                    // deterministic latency.
                    let l = self.call_num("latency_scan", self.job_value(job))?;
                    Ok(Prediction::point(l))
                } else {
                    let lo = self.call_num("min_latency_job", self.job_value(job))?;
                    let hi = self.call_num("max_latency_job", self.job_value(job))?;
                    Ok(Prediction::bounds(lo, hi))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::MinerCycleSim;
    use perf_core::validate::validate;
    use perf_core::GroundTruth;

    #[test]
    fn exhaustive_scan_predicted_exactly() {
        let cfg = MinerConfig::with_loop(16).unwrap();
        let iface = BitcoinProgramInterface::new(cfg).unwrap();
        let mut sim = MinerCycleSim::new(cfg);
        let job = MineJob::random(5, 1000, 256);
        let obs = sim.measure(&job).unwrap();
        let pred = iface.predict(&job, Metric::Latency).unwrap();
        assert_eq!(pred, Prediction::Point(obs.latency.as_f64()));
    }

    #[test]
    fn first_find_latency_within_bounds() {
        let cfg = MinerConfig::default();
        let iface = BitcoinProgramInterface::new(cfg).unwrap();
        let mut sim = MinerCycleSim::new(cfg);
        let jobs: Vec<MineJob> = (0..20).map(|s| MineJob::random(s, 50_000, 8)).collect();
        let rep = validate(&mut sim, &iface, Metric::Latency, &jobs).unwrap();
        assert_eq!(rep.bounds.n, 20);
        assert_eq!(rep.bounds.coverage(), 1.0, "all runs inside bounds");
    }

    #[test]
    fn throughput_and_area_from_program() {
        let cfg = MinerConfig::with_loop(4).unwrap();
        let iface = BitcoinProgramInterface::new(cfg).unwrap();
        assert_eq!(iface.hash_latency().unwrap(), 4.0);
        assert_eq!(iface.area_kge().unwrap(), 48.0 + 14.0 * 32.0);
        let job = MineJob::random(1, 10, 256);
        let t = iface.predict(&job, Metric::Throughput).unwrap();
        assert_eq!(t, Prediction::Point(0.25));
    }

    // Conformance-harness counterexample: a Loop=1 single-nonce job
    // that finds instantly runs 1 hash in 1*Loop + report = 5 cycles,
    // so its observed throughput is 0.2 — far from the steady-state
    // 1/Loop = 1.0 the interface used to predict as a point. First-find
    // scans get bounds now.
    #[test]
    fn short_find_throughput_within_bounds() {
        for l in [1u64, 8] {
            let cfg = MinerConfig::with_loop(l).unwrap();
            let iface = BitcoinProgramInterface::new(cfg).unwrap();
            let mut sim = MinerCycleSim::new(cfg);
            let job = MineJob::random(3, 1, 0); // difficulty 0: instant find
            let obs = sim.measure(&job).unwrap();
            let t = Metric::Throughput.of(&obs);
            let pred = iface.predict(&job, Metric::Throughput).unwrap();
            assert!(matches!(pred, Prediction::Bounds { .. }));
            assert!(pred.contains(t), "Loop {l}: tput {t} outside {pred}");
            assert!((t - 1.0 / (l as f64 + 4.0)).abs() < 1e-12);
        }
    }

    // Conformance-harness counterexample: a single-nonce scan that
    // exhausts *without* finding pays no report, finishing in Loop
    // cycles — below the old `Loop + REPORT` lower latency bound.
    #[test]
    fn short_unfound_scan_within_latency_bounds() {
        let cfg = MinerConfig::default();
        let iface = BitcoinProgramInterface::new(cfg).unwrap();
        let mut sim = MinerCycleSim::new(cfg);
        let job = MineJob::random(7, 1, 64); // ~2^-64: never finds
        let obs = sim.measure(&job).unwrap();
        let lat = obs.latency.as_f64();
        let lpred = iface.predict(&job, Metric::Latency).unwrap();
        assert!(lpred.contains(lat), "latency {lat} outside {lpred}");
        let t = Metric::Throughput.of(&obs);
        let tpred = iface.predict(&job, Metric::Throughput).unwrap();
        assert!(tpred.contains(t), "tput {t} outside {tpred}");
    }
}
