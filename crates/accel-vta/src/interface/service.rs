//! Query-service adapter for the VTA tensor accelerator.
//!
//! Implements [`perf_core::query::QueryBackend`] for `perf-service`.
//! The conformance harness checks this same backend. The cache
//! fingerprint hashes the realized instruction stream
//! ([`Program::fingerprint`]), so different generator seeds that emit
//! the same program share a cache slot.

use crate::cycle::{VtaCycleSim, VtaHwConfig};
use crate::gen::ProgGen;
use crate::interface;
use crate::isa::{Insn, Module, Opcode, Program};
use perf_core::iface::{InterfaceBundle, InterfaceKind, Metric};
use perf_core::query::{Fnv1a, QueryBackend, WorkloadSpec};
use perf_core::{Budget, CoreError, GroundTruth, Observation, Prediction};

/// The VTA query-service backend.
pub struct VtaService {
    bundle: InterfaceBundle<Program>,
}

impl VtaService {
    /// Builds the backend with the shipped interface bundle.
    pub fn new() -> VtaService {
        VtaService {
            bundle: interface::bundle(),
        }
    }

    /// Realizes a spec into a dependency-correct instruction stream.
    pub fn realize(&self, spec: &WorkloadSpec) -> Result<Program, CoreError> {
        let seed = spec.get_or("seed", 1.0) as u64;
        match spec.kind.as_str() {
            "random" => {
                let max_blocks = match spec.get("max_blocks") {
                    Some(_) => spec.get_uint_in("max_blocks", 1..=256)? as usize,
                    None => 24,
                };
                let mut g = ProgGen::new(seed);
                g.cfg.blocks = (1, max_blocks);
                Ok(g.gen_program())
            }
            "single" => {
                let mut g = ProgGen::new(seed);
                g.cfg.blocks = (1, 1);
                Ok(g.gen_program())
            }
            "finish_only" => Ok(Program {
                insns: vec![Insn::plain(Opcode::Finish)],
            }),
            other => Err(CoreError::Artifact(format!(
                "vta: unknown spec kind `{other}`"
            ))),
        }
    }
}

impl Default for VtaService {
    fn default() -> Self {
        VtaService::new()
    }
}

/// Best-case and worst-case execution cycles of one instruction.
///
/// Compute instructions are deterministic (fixed issue cost plus one
/// cycle per MAC / two per vector op); memory instructions vary with
/// DRAM row state, so best-case assumes a row hit and worst-case a row
/// miss with channel-queueing slack.
fn insn_cost(hw: &VtaHwConfig, insn: &Insn) -> (u64, u64) {
    // DRAM as configured in `VtaCycleSim`: hit 42, miss 110, 16 B per
    // cycle, 64 B bursts.
    const HIT: u64 = 42;
    const MISS_PLUS_QUEUE: u64 = 110 + 64;
    match &insn.op {
        Opcode::Load { buffer, count, .. } => {
            let bytes = (*count as u64 * buffer.elem_bytes()).max(64);
            let xfer = bytes.div_ceil(16);
            (
                hw.load_fixed + HIT + xfer,
                hw.load_fixed + MISS_PLUS_QUEUE + xfer,
            )
        }
        Opcode::Store { count, .. } => {
            let bytes = (*count as u64 * 16).max(64);
            let xfer = bytes.div_ceil(16);
            (
                hw.store_fixed + HIT + xfer,
                hw.store_fixed + MISS_PLUS_QUEUE + xfer,
            )
        }
        Opcode::Gemm { .. } => {
            let c = hw.gemm_fixed + insn.macs();
            (c, c)
        }
        Opcode::Alu {
            uop_begin,
            uop_end,
            lp_out,
            lp_in,
            ..
        } => {
            let ops = (*uop_end as u64 - *uop_begin as u64) * *lp_out as u64 * *lp_in as u64;
            let c = hw.alu_fixed + hw.alu_cycles_per_op * ops;
            (c, c)
        }
        Opcode::Finish => (1, 1),
    }
}

/// The natural-language closed-form bound for a VTA program.
///
/// The NL interface says: "three engines run concurrently, every
/// instruction passes through a one-per-cycle fetch dispatcher, and
/// dependency tokens serialize producers and consumers". That prose
/// bounds latency without replaying the token dance:
///
/// * lower — the busiest single engine's best-case work, or the fetch
///   serialization floor (one instruction per cycle), whichever is
///   larger;
/// * upper — the fully serial sum of worst-case instruction costs plus
///   per-instruction handoff slack (dependency stalls only occur while
///   some other engine is making progress).
pub fn nl_bounds(prog: &Program, metric: Metric) -> Prediction {
    let hw = VtaHwConfig::default();
    let n = prog.insns.len() as u64;
    let mut engine_min = [0u64; 3];
    let mut serial_max = 0u64;
    for insn in &prog.insns {
        let (lo, hi) = insn_cost(&hw, insn);
        let m = match insn.module() {
            Module::Load => 0,
            Module::Compute => 1,
            Module::Store => 2,
        };
        engine_min[m] += lo;
        serial_max += hi;
    }
    let lo = n.max(*engine_min.iter().max().expect("3 engines"));
    let hi = serial_max + 6 * n + 600;
    let (lo, hi) = (lo as f64, hi as f64);
    match metric {
        Metric::Latency => Prediction::bounds(lo, hi),
        // Observed throughput is instructions retired per cycle.
        Metric::Throughput => Prediction::bounds(n as f64 / hi, n as f64 / lo),
    }
}

impl QueryBackend for VtaService {
    fn accel(&self) -> &'static str {
        "vta"
    }

    fn spec_kinds(&self) -> &'static [&'static str] {
        &["random", "single", "finish_only"]
    }

    fn predict(
        &mut self,
        spec: &WorkloadSpec,
        repr: InterfaceKind,
        metric: Metric,
    ) -> Result<Prediction, CoreError> {
        let prog = self.realize(spec)?;
        match repr {
            InterfaceKind::NaturalLanguage => Ok(nl_bounds(&prog, metric)),
            _ => self
                .bundle
                .get(repr)
                .ok_or_else(|| CoreError::Artifact(format!("no {} interface", repr.name())))?
                .predict(&prog, metric),
        }
    }

    fn budget(&self, repr: InterfaceKind, metric: Metric) -> Budget {
        crate::interface::budget(repr, metric)
    }

    fn fingerprint(&mut self, spec: &WorkloadSpec, repr: InterfaceKind) -> u64 {
        // Deep key: the realized instruction stream. Two specs that
        // generate byte-identical programs share a slot across all
        // representations of this accelerator.
        let mut h = Fnv1a::new();
        h.write(self.accel().as_bytes());
        h.write(&[repr as u8]);
        match self.realize(spec) {
            Ok(prog) => h.write_u64(prog.fingerprint()),
            Err(_) => h.write_u64(spec.fingerprint()),
        }
        h.finish()
    }

    fn measure(&mut self, spec: &WorkloadSpec) -> Result<Observation, CoreError> {
        let prog = self.realize(spec)?;
        VtaCycleSim::default().measure(&prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<WorkloadSpec> {
        let mut v = Vec::new();
        for seed in 0..8 {
            v.push(
                WorkloadSpec::new("random")
                    .with("seed", seed as f64)
                    .with("max_blocks", 24.0),
            );
        }
        for seed in [100.0, 101.0, 102.0] {
            v.push(WorkloadSpec::new("single").with("seed", seed));
        }
        v.push(WorkloadSpec::new("finish_only"));
        v
    }

    #[test]
    fn all_reprs_predict_and_nl_contains_sim() {
        let mut svc = VtaService::new();
        for spec in corpus() {
            let obs = svc.measure(&spec).unwrap();
            for metric in [Metric::Latency, Metric::Throughput] {
                for repr in [
                    InterfaceKind::NaturalLanguage,
                    InterfaceKind::Program,
                    InterfaceKind::PetriNet,
                ] {
                    let p = svc.predict(&spec, repr, metric).unwrap();
                    assert!(p.is_finite(), "{spec:?} {repr:?} {metric:?}");
                    if repr == InterfaceKind::NaturalLanguage {
                        assert!(
                            p.contains(metric.of(&obs)),
                            "{spec:?} {metric:?}: {p:?} vs {}",
                            metric.of(&obs)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_max_blocks_is_rejected() {
        let svc = VtaService::new();
        let random = |m: f64| WorkloadSpec::new("random").with("max_blocks", m);
        for m in [0.0, 257.0] {
            let err = format!("spec `random` field `max_blocks` = {m} is outside 1..=256");
            assert_eq!(
                svc.realize(&random(m)).err(),
                Some(CoreError::Artifact(err))
            );
        }
        assert!(svc.realize(&random(256.0)).is_ok());
        assert!(svc.realize(&WorkloadSpec::new("random")).is_ok());
    }

    #[test]
    fn fingerprint_keys_on_realized_program() {
        let mut svc = VtaService::new();
        // Different field order, same program: same key.
        let a = WorkloadSpec::new("random")
            .with("seed", 5.0)
            .with("max_blocks", 24.0);
        let b = WorkloadSpec::new("random")
            .with("max_blocks", 24.0)
            .with("seed", 5.0);
        assert_eq!(
            svc.fingerprint(&a, InterfaceKind::PetriNet),
            svc.fingerprint(&b, InterfaceKind::PetriNet)
        );
        // Different seeds produce different programs.
        let c = WorkloadSpec::new("random")
            .with("seed", 6.0)
            .with("max_blocks", 24.0);
        assert_ne!(
            svc.fingerprint(&a, InterfaceKind::PetriNet),
            svc.fingerprint(&c, InterfaceKind::PetriNet)
        );
    }
}
