//! Conformance subject for the VTA tensor accelerator.

use accel_vta::cycle::VtaCycleSim;
use accel_vta::gen::ProgGen;
use accel_vta::interface;
use accel_vta::isa::{DepFlags, Insn, MemBuffer, Opcode, Program};
use perf_core::iface::{InterfaceBundle, InterfaceKind, Metric};
use perf_core::{CoreError, GroundTruth, Observation, Prediction};
use perf_sim::FaultPlan;

use crate::budget::{Budget, Contract};
use crate::harness::{CaseSpec, Subject};
use crate::report::NlResult;

/// Generator-level description of one VTA program.
///
/// Shrinking regenerates from a smaller block budget instead of
/// deleting instructions, so dependency-token validity (balanced
/// push/pop) holds by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VtaSpec {
    /// Random dependency-correct program of up to `max_blocks` blocks.
    Random { seed: u64, max_blocks: usize },
    /// Single-block random program.
    Single { seed: u64 },
    /// The degenerate one-instruction program: just `Finish`.
    FinishOnly,
}

/// VTA subject: tick-accurate four-engine sim vs the interfaces.
pub struct VtaSubject {
    bundle: InterfaceBundle<Program>,
    fault: Option<FaultPlan>,
}

impl VtaSubject {
    /// Creates the subject with the shipped interface bundle.
    pub fn new() -> VtaSubject {
        VtaSubject {
            bundle: interface::bundle(),
            fault: None,
        }
    }
}

impl Default for VtaSubject {
    fn default() -> Self {
        VtaSubject::new()
    }
}

impl Subject for VtaSubject {
    type Spec = VtaSpec;
    type Workload = Program;

    fn name(&self) -> &'static str {
        "vta"
    }

    fn specs(&mut self, quick: bool) -> Vec<CaseSpec<VtaSpec>> {
        let mut v = Vec::new();
        let n_random = if quick { 6 } else { 16 };
        for seed in 0..n_random {
            // The default generator's block ceiling (24) saturates the
            // dependency queues; keep it.
            v.push(CaseSpec::random(
                format!("random-{seed}"),
                VtaSpec::Random {
                    seed,
                    max_blocks: 24,
                },
            ));
        }
        for seed in [100, 101, 102] {
            v.push(CaseSpec::adversarial(
                format!("single-block-{seed}"),
                VtaSpec::Single { seed },
            ));
        }
        v.push(CaseSpec::adversarial("finish-only", VtaSpec::FinishOnly));
        v
    }

    fn realize(&mut self, spec: &VtaSpec) -> Program {
        match *spec {
            VtaSpec::Random { seed, max_blocks } => {
                let mut g = ProgGen::new(seed);
                g.cfg.blocks = (1, max_blocks.max(1));
                g.gen_program()
            }
            VtaSpec::Single { seed } => {
                let mut g = ProgGen::new(seed);
                g.cfg.blocks = (1, 1);
                g.gen_program()
            }
            VtaSpec::FinishOnly => Program {
                insns: vec![Insn::plain(Opcode::Finish)],
            },
        }
    }

    fn describe(&self, spec: &VtaSpec) -> String {
        match *spec {
            VtaSpec::Random { seed, max_blocks } => {
                let mut g = ProgGen::new(seed);
                g.cfg.blocks = (1, max_blocks.max(1));
                let p = g.gen_program();
                format!(
                    "random program (seed {seed}, <= {max_blocks} blocks, {} insns)",
                    p.len()
                )
            }
            VtaSpec::Single { seed } => format!("single-block program (seed {seed})"),
            VtaSpec::FinishOnly => "finish-only program (1 insn, no memory traffic)".into(),
        }
    }

    fn shrink(&mut self, spec: &VtaSpec) -> Vec<VtaSpec> {
        match *spec {
            VtaSpec::Random { seed, max_blocks } => {
                let mut out = Vec::new();
                if max_blocks > 1 {
                    out.push(VtaSpec::Random {
                        seed,
                        max_blocks: max_blocks / 2,
                    });
                }
                out.push(VtaSpec::Single { seed });
                out.push(VtaSpec::FinishOnly);
                out
            }
            VtaSpec::Single { .. } => vec![VtaSpec::FinishOnly],
            VtaSpec::FinishOnly => vec![],
        }
    }

    fn measure(&mut self, w: &Program) -> Result<Observation, CoreError> {
        let mut sim = VtaCycleSim::default();
        sim.set_fault(self.fault);
        sim.measure(w)
    }

    fn predict(
        &mut self,
        kind: InterfaceKind,
        w: &Program,
        metric: Metric,
    ) -> Result<Prediction, CoreError> {
        self.bundle
            .get(kind)
            .ok_or_else(|| CoreError::Artifact(format!("no {} interface", kind.name())))?
            .predict(w, metric)
    }

    fn budget(&self, kind: InterfaceKind, metric: Metric) -> Budget {
        interface::budget(kind, metric)
    }

    fn contract(&self) -> Contract {
        Contract::new(0.5, 0.4)
    }

    fn fault_plans(&self, quick: bool) -> Vec<FaultPlan> {
        let mut v = vec![FaultPlan::mem_jitter(41, 50, 6)];
        if !quick {
            v.push(FaultPlan::mem_jitter(42, 100, 4));
        }
        v.push(FaultPlan::mem_jitter(43, 500, 80));
        v
    }

    fn set_fault(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    fn check_nl(&mut self) -> Vec<NlResult> {
        fn block_program(lp_out: u16, inp_count: u16) -> Program {
            Program {
                insns: vec![
                    Insn {
                        op: Opcode::Load {
                            buffer: MemBuffer::Inp,
                            sram_base: 0,
                            dram_base: 0,
                            count: inp_count,
                        },
                        flags: DepFlags {
                            push_next: true,
                            ..DepFlags::NONE
                        },
                    },
                    Insn {
                        op: Opcode::Gemm {
                            uop_begin: 0,
                            uop_end: 8,
                            lp_out,
                            lp_in: 4,
                            dst_factor: (1, 0),
                            src_factor: (1, 0),
                            wgt_factor: (0, 1),
                            reset: false,
                        },
                        flags: DepFlags {
                            pop_prev: true,
                            push_next: true,
                            ..DepFlags::NONE
                        },
                    },
                    Insn {
                        op: Opcode::Store {
                            sram_base: 0,
                            dram_base: 0,
                            count: 8,
                        },
                        flags: DepFlags {
                            pop_prev: true,
                            ..DepFlags::NONE
                        },
                    },
                    Insn::plain(Opcode::Finish),
                ],
            }
        }

        let nl = &self.bundle.natural_language;
        let mut sim = VtaCycleSim::default();
        let mut out = Vec::new();

        let macs_sweep: Vec<(f64, f64)> = [8u16, 32, 128, 512]
            .iter()
            .filter_map(|&lp| {
                let p = block_program(lp, 16);
                sim.measure(&p)
                    .ok()
                    .map(|obs| (p.total_macs() as f64, obs.latency.as_f64()))
            })
            .collect();
        if let Ok(v) = nl.claims[0].check(&macs_sweep) {
            out.push(NlResult {
                claim: "latency increasing in total MACs".into(),
                holds: v.holds,
                worst: v.worst_violation,
            });
        }

        let bytes_sweep: Vec<(f64, f64)> = [16u16, 256, 1024, 4096]
            .iter()
            .filter_map(|&c| {
                let p = block_program(512, c);
                sim.measure(&p)
                    .ok()
                    .map(|obs| (c as f64 * 16.0, obs.latency.as_f64()))
            })
            .collect();
        if let Ok(v) = nl.claims[1].check(&bytes_sweep) {
            out.push(NlResult {
                claim: "latency increasing in DMA bytes".into(),
                holds: v.holds,
                worst: v.worst_violation,
            });
        }
        out
    }
}
