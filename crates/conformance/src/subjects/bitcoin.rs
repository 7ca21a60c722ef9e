//! Conformance subject for the Bitcoin miner.

use std::collections::HashMap;

use accel_bitcoin::interface;
use accel_bitcoin::miner::{MineJob, MinerConfig, MinerCycleSim};
use perf_core::iface::{InterfaceBundle, InterfaceKind, Metric};
use perf_core::{CoreError, GroundTruth, Observation, Prediction};
use perf_sim::FaultPlan;

use crate::budget::{Budget, Contract};
use crate::harness::{CaseSpec, Subject};
use crate::report::NlResult;

/// Generator-level description of one mining job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitcoinSpec {
    /// Hardware configuration parameter `Loop`.
    pub loop_: u64,
    /// Job seed (header + start nonce).
    pub seed: u64,
    /// Nonces to scan.
    pub nonce_count: u32,
    /// Required leading zero bits.
    pub difficulty: u32,
}

/// Bitcoin miner subject; interfaces are per-`Loop`, so the bundle is
/// built lazily per configuration.
pub struct BitcoinSubject {
    bundles: HashMap<u64, InterfaceBundle<MineJob>>,
    fault: Option<FaultPlan>,
}

impl BitcoinSubject {
    /// Creates the subject.
    pub fn new() -> BitcoinSubject {
        BitcoinSubject {
            bundles: HashMap::new(),
            fault: None,
        }
    }

    fn bundle(&mut self, loop_: u64) -> &InterfaceBundle<MineJob> {
        self.bundles.entry(loop_).or_insert_with(|| {
            interface::bundle(MinerConfig::with_loop(loop_).expect("valid loop"))
        })
    }
}

impl Default for BitcoinSubject {
    fn default() -> Self {
        BitcoinSubject::new()
    }
}

impl Subject for BitcoinSubject {
    type Spec = BitcoinSpec;
    type Workload = (u64, MineJob);

    fn name(&self) -> &'static str {
        "bitcoin-miner"
    }

    fn specs(&mut self, quick: bool) -> Vec<CaseSpec<BitcoinSpec>> {
        let mut v = Vec::new();
        let loops: &[u64] = if quick { &[1, 8] } else { &[1, 8, 64] };
        for &l in loops {
            v.push(CaseSpec::random(
                format!("exhaustive-loop{l}"),
                BitcoinSpec {
                    loop_: l,
                    seed: 2,
                    nonce_count: 200,
                    difficulty: 256,
                },
            ));
            v.push(CaseSpec::random(
                format!("stochastic-loop{l}"),
                BitcoinSpec {
                    loop_: l,
                    seed: 3,
                    nonce_count: if quick { 5_000 } else { 20_000 },
                    difficulty: 8,
                },
            ));
        }
        // Adversarial: single-nonce scans, an immediate find, a
        // near-empty stochastic scan and the widest hardware variant.
        v.push(CaseSpec::adversarial(
            "single-nonce-exhaustive",
            BitcoinSpec {
                loop_: 8,
                seed: 4,
                nonce_count: 1,
                difficulty: 256,
            },
        ));
        v.push(CaseSpec::adversarial(
            "single-nonce-instant-find",
            BitcoinSpec {
                loop_: 8,
                seed: 5,
                nonce_count: 1,
                difficulty: 0,
            },
        ));
        v.push(CaseSpec::adversarial(
            "two-nonce-easy",
            BitcoinSpec {
                loop_: 8,
                seed: 6,
                nonce_count: 2,
                difficulty: 2,
            },
        ));
        v.push(CaseSpec::adversarial(
            "single-nonce-loop1",
            BitcoinSpec {
                loop_: 1,
                seed: 7,
                nonce_count: 1,
                difficulty: 0,
            },
        ));
        // Stochastic difficulty (interfaces must treat the scan as
        // first-find) but a target this seed never hits in one nonce:
        // the scan exhausts unfound and pays no report, undercutting
        // the instant-find latency floor.
        v.push(CaseSpec::adversarial(
            "single-nonce-no-find",
            BitcoinSpec {
                loop_: 8,
                seed: 9,
                nonce_count: 1,
                difficulty: 64,
            },
        ));
        if !quick {
            v.push(CaseSpec::adversarial(
                "max-unroll",
                BitcoinSpec {
                    loop_: 128,
                    seed: 8,
                    nonce_count: 100,
                    difficulty: 256,
                },
            ));
        }
        v
    }

    fn realize(&mut self, spec: &BitcoinSpec) -> (u64, MineJob) {
        (
            spec.loop_,
            MineJob::random(spec.seed, spec.nonce_count, spec.difficulty),
        )
    }

    fn describe(&self, spec: &BitcoinSpec) -> String {
        format!(
            "Loop={} scan of {} nonce(s) at difficulty {}",
            spec.loop_, spec.nonce_count, spec.difficulty
        )
    }

    fn shrink(&mut self, spec: &BitcoinSpec) -> Vec<BitcoinSpec> {
        let mut out = Vec::new();
        if spec.nonce_count > 1 {
            out.push(BitcoinSpec {
                nonce_count: spec.nonce_count / 2,
                ..*spec
            });
            out.push(BitcoinSpec {
                nonce_count: spec.nonce_count - 1,
                ..*spec
            });
        }
        out
    }

    fn measure(&mut self, w: &(u64, MineJob)) -> Result<Observation, CoreError> {
        let cfg = MinerConfig::with_loop(w.0).expect("valid loop");
        let mut sim = MinerCycleSim::new(cfg);
        sim.set_fault(self.fault);
        sim.measure(&w.1)
    }

    fn predict(
        &mut self,
        kind: InterfaceKind,
        w: &(u64, MineJob),
        metric: Metric,
    ) -> Result<Prediction, CoreError> {
        self.bundle(w.0)
            .get(kind)
            .ok_or_else(|| CoreError::Artifact(format!("no {} interface", kind.name())))?
            .predict(&w.1, metric)
    }

    fn budget(&self, kind: InterfaceKind, metric: Metric) -> Budget {
        accel_bitcoin::interface::budget(kind, metric)
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
