//! Conformance subject for the VTA tensor accelerator.

use accel_vta::cycle::VtaCycleSim;
use accel_vta::interface::nl;
use accel_vta::interface::service::VtaService;
use accel_vta::isa::{DepFlags, Insn, MemBuffer, Opcode, Program};
use perf_core::query::{QueryBackend, WorkloadSpec};
use perf_core::{Contract, CoreError, GroundTruth, Observation};
use perf_sim::FaultPlan;

use crate::harness::{CaseSpec, Subject};
use crate::report::NlResult;

/// A random dependency-correct program of up to `max_blocks` blocks.
/// Shrinking regenerates from a smaller block budget instead of
/// deleting instructions, so dependency-token validity (balanced
/// push/pop) holds by construction.
fn random(seed: u64, max_blocks: u64) -> WorkloadSpec {
    WorkloadSpec::new("random")
        .with("seed", seed as f64)
        .with("max_blocks", max_blocks as f64)
}

/// A single-block random program.
fn single(seed: u64) -> WorkloadSpec {
    WorkloadSpec::new("single").with("seed", seed as f64)
}

/// VTA subject: tick-accurate four-engine sim vs the interfaces.
pub struct VtaSubject {
    service: VtaService,
    fault: Option<FaultPlan>,
}

impl VtaSubject {
    /// Creates the subject with the shipped query backend.
    pub fn new() -> VtaSubject {
        VtaSubject {
            service: VtaService::new(),
            fault: None,
        }
    }
}

impl Subject for VtaSubject {
    fn backend(&mut self) -> &mut dyn QueryBackend {
        &mut self.service
    }

    fn specs(&self, quick: bool) -> Vec<CaseSpec> {
        let mut v = Vec::new();
        let n_random = if quick { 6 } else { 16 };
        for seed in 0..n_random {
            // The default generator's block ceiling (24) saturates the
            // dependency queues; keep it.
            v.push(CaseSpec::random(format!("random-{seed}"), random(seed, 24)));
        }
        for seed in [100, 101, 102] {
            v.push(CaseSpec::adversarial(
                format!("single-block-{seed}"),
                single(seed),
            ));
        }
        // The degenerate one-instruction program: just `Finish`.
        v.push(CaseSpec::adversarial(
            "finish-only",
            WorkloadSpec::new("finish_only"),
        ));
        v
    }

    fn shrink(&self, spec: &WorkloadSpec) -> Vec<WorkloadSpec> {
        let seed = spec.get_uint("seed").unwrap_or(0);
        match spec.kind.as_str() {
            "random" => {
                let mut out = Vec::new();
                if let Ok(m @ 2..) = spec.get_uint("max_blocks") {
                    out.push(random(seed, m / 2));
                }
                out.push(single(seed));
                out.push(WorkloadSpec::new("finish_only"));
                out
            }
            "single" => vec![WorkloadSpec::new("finish_only")],
            _ => vec![],
        }
    }

    fn measure(&mut self, spec: &WorkloadSpec) -> Result<Observation, CoreError> {
        let prog = self.service.realize(spec)?;
        let mut sim = VtaCycleSim::default();
        sim.set_fault(self.fault);
        sim.measure(&prog)
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

        let nl = nl::interface();
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
