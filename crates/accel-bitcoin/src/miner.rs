//! The miner accelerator: configuration, area model, functional nonce
//! search and cycle-accurate simulator.

use crate::sha256;
use perf_core::units::{Cycles, Throughput};
use perf_core::{CoreError, GroundTruth, Observation};
use perf_sim::fault::{FaultInjector, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Total SHA-256 rounds per proof-of-work hash (two 64-round
/// compressions).
pub const TOTAL_ROUNDS: u64 = 128;

/// Hardware configuration of the miner.
///
/// `Loop` is the paper's parameter: the number of clock cycles one hash
/// takes. The hardware instantiates `128 / Loop` chained round units;
/// each cycle a hash advances through all of them, so after `Loop`
/// cycles all 128 rounds are done. Smaller `Loop` means more round
/// units: lower latency, more area.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MinerConfig {
    /// Cycles per hash; must divide 128. Valid values: 1, 2, 4, 8, 16,
    /// 32, 64, 128.
    pub loop_: u64,
    /// Fixed result-reporting overhead when a golden nonce is found.
    pub report_cycles: u64,
}

impl MinerConfig {
    /// Creates a configuration with the given `Loop`.
    ///
    /// # Errors
    ///
    /// Fails if `Loop` does not divide 128.
    pub fn with_loop(loop_: u64) -> Result<MinerConfig, CoreError> {
        if loop_ == 0 || !TOTAL_ROUNDS.is_multiple_of(loop_) {
            return Err(CoreError::InvalidObservation(format!(
                "Loop must divide {TOTAL_ROUNDS}, got {loop_}"
            )));
        }
        Ok(MinerConfig {
            loop_,
            report_cycles: 4,
        })
    }

    /// Round units instantiated in silicon.
    pub fn round_units(&self) -> u64 {
        TOTAL_ROUNDS / self.loop_
    }

    /// Area in kilo-gate-equivalents: each unrolled round unit costs
    /// ~14 kGE (adders, message schedule slice, pipeline registers) on
    /// top of ~48 kGE of fixed control, I/O and state.
    pub fn area_kge(&self) -> f64 {
        48.0 + 14.0 * self.round_units() as f64
    }

    /// Per-hash latency in cycles — the quantity the Fig. 1 interface
    /// says equals `Loop`.
    pub fn hash_latency(&self) -> u64 {
        self.loop_
    }

    /// Sustained hash throughput in hashes per cycle (`1 / Loop`; the
    /// round units are occupied by one hash for all `Loop` cycles).
    pub fn hash_throughput(&self) -> f64 {
        1.0 / self.loop_ as f64
    }
}

impl Default for MinerConfig {
    fn default() -> MinerConfig {
        MinerConfig::with_loop(8).expect("8 divides 128")
    }
}

/// A mining job: scan `nonce_count` nonces of a block header looking
/// for a digest with at least `difficulty_bits` leading zero bits.
#[derive(Clone, Debug)]
pub struct MineJob {
    /// The 80-byte block header template (nonce bytes 76..80 ignored).
    pub header: [u8; 80],
    /// First nonce to try.
    pub start_nonce: u32,
    /// Number of nonces to scan.
    pub nonce_count: u32,
    /// Required leading zero bits.
    pub difficulty_bits: u32,
}

impl MineJob {
    /// Generates a random job with the given scan size and difficulty.
    pub fn random(seed: u64, nonce_count: u32, difficulty_bits: u32) -> MineJob {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut header = [0u8; 80];
        rng.fill(&mut header[..]);
        MineJob {
            header,
            start_nonce: rng.gen(),
            nonce_count,
            difficulty_bits,
        }
    }
}

/// The result of running a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MineOutcome {
    /// The first nonce meeting the difficulty target, if any.
    pub golden_nonce: Option<u32>,
    /// Hashes actually computed.
    pub hashes_done: u64,
    /// Total cycles consumed.
    pub cycles: u64,
}

/// Cycle-accurate miner simulator: really computes double SHA-256 per
/// nonce (via the midstate path, as the RTL does) and charges `Loop`
/// cycles per hash.
#[derive(Clone, Debug, Default)]
pub struct MinerCycleSim {
    /// Hardware configuration.
    pub cfg: MinerConfig,
    ticks: u64,
    /// Hashing cycles accumulated across jobs (`hashes x Loop`).
    hash_cycles: u64,
    /// Result-reporting cycles accumulated across jobs.
    report_cycles: u64,
    /// Transient hasher stalls injected by the armed fault plan.
    fault_stall_cycles: u64,
    /// Armed fault injector (the miner has no memory system or FIFOs,
    /// so only the transient-stall class applies: a stall extends one
    /// hash's occupancy of the round units).
    fault: Option<FaultInjector>,
}

impl MinerCycleSim {
    /// Creates a simulator.
    pub fn new(cfg: MinerConfig) -> MinerCycleSim {
        MinerCycleSim {
            cfg,
            ..MinerCycleSim::default()
        }
    }

    /// Arms (or with `None` disarms) deterministic fault injection:
    /// each hash may pay extra stall cycles per the plan's
    /// transient-stall parameters.
    pub fn set_fault(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan.map(FaultInjector::new);
    }

    /// Total stall cycles injected by the armed fault plan so far.
    pub fn fault_cycles(&self) -> u64 {
        self.fault_stall_cycles
    }

    /// Total cycles simulated so far.
    pub fn ticks_simulated(&self) -> u64 {
        self.ticks
    }

    /// Runs a job to completion (golden nonce found or scan
    /// exhausted).
    pub fn mine(&mut self, job: &MineJob) -> MineOutcome {
        let first: &[u8; 64] = job.header[..64].try_into().expect("80-byte header");
        let tail: &[u8; 12] = job.header[64..76].try_into().expect("80-byte header");
        let mid = sha256::midstate(first);
        let mut cycles = 0u64;
        let mut hashes = 0u64;
        let mut golden = None;
        for i in 0..job.nonce_count {
            let nonce = job.start_nonce.wrapping_add(i);
            let digest = sha256::header_pow_hash(&mid, tail, nonce);
            cycles += self.cfg.loop_;
            if let Some(f) = self.fault.as_mut() {
                let extra = f.stage_stall();
                cycles += extra;
                self.fault_stall_cycles += extra;
            }
            hashes += 1;
            if sha256::leading_zero_bits(&digest) >= job.difficulty_bits {
                golden = Some(nonce);
                cycles += self.cfg.report_cycles;
                self.report_cycles += self.cfg.report_cycles;
                break;
            }
        }
        self.hash_cycles += hashes * self.cfg.loop_;
        self.ticks += cycles;
        MineOutcome {
            golden_nonce: golden,
            hashes_done: hashes,
            cycles,
        }
    }

    /// Emits accumulated cycle accounting into `sink` under component
    /// `bitcoin`: the hasher's round units are fully busy while a job
    /// runs (no queues, no backpressure — the one accelerator whose
    /// interface fits in a single constant), plus the result-report
    /// overhead as its own stage.
    pub fn trace_stages(&self, sink: &mut dyn perf_sim::TraceSink) {
        if !sink.is_enabled() {
            return;
        }
        sink.stage(
            "bitcoin",
            "hasher",
            perf_sim::StageCycles {
                busy: self.hash_cycles,
                stall: self.fault_stall_cycles,
                ..perf_sim::StageCycles::default()
            },
        );
        sink.stage(
            "bitcoin",
            "report",
            perf_sim::StageCycles {
                busy: self.report_cycles,
                ..perf_sim::StageCycles::default()
            },
        );
    }
}

impl GroundTruth<MineJob> for MinerCycleSim {
    fn measure(&mut self, job: &MineJob) -> Result<Observation, CoreError> {
        if job.nonce_count == 0 {
            return Err(CoreError::InvalidObservation("empty nonce range".into()));
        }
        let out = self.mine(job);
        Ok(Observation::new(
            Cycles(out.cycles),
            Throughput::of(out.hashes_done, Cycles(out.cycles)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(MinerConfig::with_loop(0).is_err());
        assert!(MinerConfig::with_loop(3).is_err());
        for l in [1u64, 2, 4, 8, 16, 32, 64, 128] {
            let c = MinerConfig::with_loop(l).unwrap();
            assert_eq!(c.round_units() * l, TOTAL_ROUNDS);
        }
    }

    #[test]
    fn area_grows_inversely_with_loop() {
        let a1 = MinerConfig::with_loop(1).unwrap().area_kge();
        let a8 = MinerConfig::with_loop(8).unwrap().area_kge();
        let a64 = MinerConfig::with_loop(64).unwrap().area_kge();
        assert!(a1 > a8 && a8 > a64);
        // Variable part scales exactly inversely.
        assert!(((a1 - 48.0) / (a8 - 48.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn latency_equals_loop() {
        for l in [1u64, 4, 16, 64] {
            let c = MinerConfig::with_loop(l).unwrap();
            assert_eq!(c.hash_latency(), l);
            assert!((c.hash_throughput() - 1.0 / l as f64).abs() < 1e-15);
        }
    }

    #[test]
    fn exhausting_scan_costs_loop_per_nonce() {
        let mut sim = MinerCycleSim::new(MinerConfig::with_loop(8).unwrap());
        // Impossible difficulty: scan everything.
        let job = MineJob::random(1, 100, 256);
        let out = sim.mine(&job);
        assert_eq!(out.golden_nonce, None);
        assert_eq!(out.hashes_done, 100);
        assert_eq!(out.cycles, 100 * 8);
    }

    #[test]
    fn finds_easy_golden_nonce_and_stops() {
        let mut sim = MinerCycleSim::new(MinerConfig::default());
        // Difficulty 4 bits: every 16th hash qualifies on average.
        let job = MineJob::random(7, 10_000, 4);
        let out = sim.mine(&job);
        let nonce = out.golden_nonce.expect("4-bit target should be found");
        assert!(out.hashes_done < 10_000, "should stop early");
        // Verify the winner really meets the target.
        let mut header = job.header;
        header[76..80].copy_from_slice(&nonce.to_le_bytes());
        let d = sha256::double_sha256(&header);
        assert!(sha256::leading_zero_bits(&d) >= 4);
        // Cycle accounting: hashes x Loop + report.
        assert_eq!(out.cycles, out.hashes_done * 8 + 4);
    }

    #[test]
    fn same_job_same_result_across_loops() {
        // Loop changes timing, not function.
        let job = MineJob::random(3, 5_000, 6);
        let o1 = MinerCycleSim::new(MinerConfig::with_loop(1).unwrap()).mine(&job);
        let o64 = MinerCycleSim::new(MinerConfig::with_loop(64).unwrap()).mine(&job);
        assert_eq!(o1.golden_nonce, o64.golden_nonce);
        assert_eq!(o1.hashes_done, o64.hashes_done);
        assert_eq!(o64.cycles, o1.cycles + o1.hashes_done * 63);
    }

    #[test]
    fn trace_stages_account_for_all_ticks() {
        let mut sim = MinerCycleSim::new(MinerConfig::with_loop(8).unwrap());
        sim.mine(&MineJob::random(1, 100, 256)); // Exhausts the scan.
        sim.mine(&MineJob::random(7, 10_000, 4)); // Finds a nonce.
        let mut sink = perf_sim::MemorySink::new();
        sim.trace_stages(&mut sink);
        assert_eq!(sink.stages.len(), 2);
        let total: u64 = sink.stages.iter().map(|s| s.cycles.busy).sum();
        assert_eq!(total, sim.ticks_simulated());
        assert_eq!(sink.stages[1].stage, "report");
        assert_eq!(sink.stages[1].cycles.busy, 4);
        sim.trace_stages(&mut perf_sim::NullSink);
    }

    #[test]
    fn ground_truth_throughput_is_inverse_loop() {
        let mut sim = MinerCycleSim::new(MinerConfig::with_loop(16).unwrap());
        let job = MineJob::random(9, 500, 256);
        let obs = sim.measure(&job).unwrap();
        assert!((obs.throughput.items_per_cycle() - 1.0 / 16.0).abs() < 1e-9);
        assert!(sim.measure(&MineJob::random(9, 0, 1)).is_err());
    }
}
