//! Conformance subject for the Bitcoin miner.

use accel_bitcoin::interface::service::BitcoinService;
use accel_bitcoin::miner::{MineJob, MinerConfig, MinerCycleSim};
use perf_core::query::{QueryBackend, WorkloadSpec};
use perf_core::{Contract, CoreError, GroundTruth, Observation};
use perf_sim::FaultPlan;

use crate::harness::{CaseSpec, Subject};
use crate::report::NlResult;

/// A scan of `nonce_count` nonces at `difficulty` leading zero bits on
/// the `Loop = loop_` miner; `seed` picks the header and start nonce.
fn scan(loop_: u64, seed: u64, nonce_count: u64, difficulty: u64) -> WorkloadSpec {
    WorkloadSpec::new("scan")
        .with("loop", loop_ as f64)
        .with("seed", seed as f64)
        .with("nonce_count", nonce_count as f64)
        .with("difficulty", difficulty as f64)
}

/// Bitcoin miner subject; the backend builds one interface bundle per
/// queried `Loop`.
pub struct BitcoinSubject {
    service: BitcoinService,
    fault: Option<FaultPlan>,
}

impl BitcoinSubject {
    /// Creates the subject.
    pub fn new() -> BitcoinSubject {
        BitcoinSubject {
            service: BitcoinService::new(),
            fault: None,
        }
    }
}

impl Subject for BitcoinSubject {
    fn backend(&mut self) -> &mut dyn QueryBackend {
        &mut self.service
    }

    fn specs(&self, quick: bool) -> Vec<CaseSpec> {
        let mut v = Vec::new();
        let loops: &[u64] = if quick { &[1, 8] } else { &[1, 8, 64] };
        for &l in loops {
            v.push(CaseSpec::random(
                format!("exhaustive-loop{l}"),
                scan(l, 2, 200, 256),
            ));
            let nonces = if quick { 5_000 } else { 20_000 };
            v.push(CaseSpec::random(
                format!("stochastic-loop{l}"),
                scan(l, 3, nonces, 8),
            ));
        }
        // Adversarial: single-nonce scans, an immediate find, a
        // near-empty stochastic scan and the widest hardware variant.
        // `single-nonce-no-find` has a stochastic difficulty (interfaces
        // must treat the scan as first-find) but a target this seed
        // never hits in one nonce: the scan exhausts unfound and pays
        // no report, undercutting the instant-find latency floor.
        for (label, spec) in [
            ("single-nonce-exhaustive", scan(8, 4, 1, 256)),
            ("single-nonce-instant-find", scan(8, 5, 1, 0)),
            ("two-nonce-easy", scan(8, 6, 2, 2)),
            ("single-nonce-loop1", scan(1, 7, 1, 0)),
            ("single-nonce-no-find", scan(8, 9, 1, 64)),
        ] {
            v.push(CaseSpec::adversarial(label, spec));
        }
        if !quick {
            v.push(CaseSpec::adversarial("max-unroll", scan(128, 8, 100, 256)));
        }
        v
    }

    fn shrink(&self, spec: &WorkloadSpec) -> Vec<WorkloadSpec> {
        match spec.get_uint("nonce_count") {
            Ok(n) if n > 1 => vec![
                spec.clone().with("nonce_count", (n / 2) as f64),
                spec.clone().with("nonce_count", (n - 1) as f64),
            ],
            _ => vec![],
        }
    }

    fn measure(&mut self, spec: &WorkloadSpec) -> Result<Observation, CoreError> {
        let (cfg, job) = self.service.realize(spec)?;
        let mut sim = MinerCycleSim::new(cfg);
        sim.set_fault(self.fault);
        sim.measure(&job)
    }

    fn contract(&self) -> Contract {
        // One stall opportunity per hash against `Loop` useful cycles:
        // at Loop = 1 the relative error equals the intensity itself.
        Contract::new(0.05, 1.5)
    }

    fn fault_plans(&self, quick: bool) -> Vec<FaultPlan> {
        let mut v = vec![FaultPlan::stage_stalls(21, 10, 2)];
        if !quick {
            v.push(FaultPlan::stage_stalls(22, 20, 1));
        }
        v.push(FaultPlan::stage_stalls(23, 500, 8));
        v
    }

    fn set_fault(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    fn check_nl(&mut self) -> Vec<NlResult> {
        let nl = accel_bitcoin::interface::nl::interface();
        let loops = [1u64, 2, 4, 8, 16, 32, 64];
        let cfgs: Vec<MinerConfig> = loops
            .iter()
            .map(|&l| MinerConfig::with_loop(l).expect("valid loop"))
            .collect();
        let mut out = Vec::new();

        // Latency == Loop: checked against the simulator, not just the
        // analytic model — a single-nonce exhaustive scan takes
        // exactly one hash latency.
        let lat: Vec<(f64, f64)> = cfgs
            .iter()
            .filter_map(|c| {
                let mut sim = MinerCycleSim::new(*c);
                sim.set_fault(self.fault);
                let job = MineJob::random(9, 1, 256);
                sim.measure(&job)
                    .ok()
                    .map(|obs| (c.loop_ as f64, obs.latency.as_f64()))
            })
            .collect();
        if let Ok(v) = nl.claims[0].check(&lat) {
            out.push(NlResult {
                claim: "latency equals Loop".into(),
                holds: v.holds,
                worst: v.worst_violation,
            });
        }

        let tput: Vec<(f64, f64)> = cfgs
            .iter()
            .map(|c| (c.loop_ as f64, c.hash_throughput()))
            .collect();
        if let Ok(v) = nl.claims[1].check(&tput) {
            out.push(NlResult {
                claim: "throughput decreasing in Loop".into(),
                holds: v.holds,
                worst: v.worst_violation,
            });
        }

        // Variable area inversely proportional to Loop (fixed control
        // overhead subtracted, as the interface prose implies).
        let area: Vec<(f64, f64)> = cfgs
            .iter()
            .map(|c| (c.loop_ as f64, c.area_kge() - 48.0))
            .collect();
        if let Ok(v) = nl.claims[2].check(&area) {
            out.push(NlResult {
                claim: "area inversely proportional to Loop".into(),
                holds: v.holds,
                worst: v.worst_violation,
            });
        }
        out
    }
}
