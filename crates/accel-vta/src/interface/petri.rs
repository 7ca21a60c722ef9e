//! Petri-net performance IR for VTA (paper Table 1).
//!
//! The full net mirrors the four-module pipeline with dependency-token
//! places; the `lite` net drops the token queues (the E9 ablation).

use crate::isa::{Insn, Module, Opcode, Program};
use perf_core::iface::{InterfaceKind, Metric, PerfInterface};
use perf_core::{CoreError, Prediction};
use perf_iface_lang::Value;
use perf_petri::net::Net;
use perf_petri::text;
use perf_petri::token::RecordShape;
use perf_petri::{NetExec, Options, PlaceId, SimResult};

/// The shipped full-fidelity net.
pub const VTA_FULL_PNET_SRC: &str = include_str!("../../assets/vta_full.pnet");

/// The shipped corner-cut net.
pub const VTA_LITE_PNET_SRC: &str = include_str!("../../assets/vta_lite.pnet");

/// The fields of an instruction token, in [`insn_fields`] order.
pub const INSN_FIELDS: [&str; 12] = [
    "m", "is_gemm", "is_alu", "is_mem", "is_fin", "bytes", "macs", "ops", "pp", "pn", "shp", "shn",
];

/// Converts one instruction into its `fetch_q` token payload.
pub fn insn_token(insn: &Insn) -> Value {
    Value::record_owned(
        INSN_FIELDS
            .iter()
            .zip(insn_fields(insn))
            .map(|(k, v)| (k.to_string(), Value::num(v))),
    )
}

/// One instruction's token field values, named by [`INSN_FIELDS`].
pub fn insn_fields(insn: &Insn) -> [f64; 12] {
    let m = match insn.module() {
        Module::Load => 0u64,
        Module::Compute => 1,
        Module::Store => 2,
    };
    let (is_gemm, is_alu, is_mem, is_fin, bytes, macs, ops) = match &insn.op {
        Opcode::Load { buffer, count, .. } => (
            0u64,
            0u64,
            1u64,
            0u64,
            *count as u64 * buffer.elem_bytes(),
            0,
            0,
        ),
        Opcode::Store { count, .. } => (0, 0, 1, 0, *count as u64 * 16, 0, 0),
        Opcode::Gemm { .. } => (1, 0, 0, 0, 0, insn.macs(), 0),
        Opcode::Alu {
            uop_begin,
            uop_end,
            lp_out,
            lp_in,
            ..
        } => (
            0,
            1,
            0,
            0,
            0,
            0,
            (*uop_end as u64 - *uop_begin as u64) * *lp_out as u64 * *lp_in as u64,
        ),
        Opcode::Finish => (0, 0, 0, 1, 0, 0, 0),
    };
    let f = insn.flags;
    [
        m,
        is_gemm,
        is_alu,
        is_mem,
        is_fin,
        bytes,
        macs,
        ops,
        f.pop_prev as u64,
        f.pop_next as u64,
        f.push_prev as u64,
        f.push_next as u64,
    ]
    .map(|v| v as f64)
}

/// Petri-net interface for VTA.
pub struct VtaPetriInterface {
    exec: NetExec,
    src: &'static str,
    /// The instruction injection place.
    fetch_q: PlaceId,
    /// The four module-free places, each seeded with one `{ u: 0 }`.
    frees: [PlaceId; 4],
    /// Instruction token fields ([`INSN_FIELDS`]).
    insn: RecordShape,
    /// Module-free token field `u`.
    unit: RecordShape,
}

impl VtaPetriInterface {
    /// Parses the shipped full-fidelity net; evaluations run the
    /// compiled stepper.
    pub fn new_full() -> Result<VtaPetriInterface, CoreError> {
        Self::from_src(VTA_FULL_PNET_SRC)
    }

    /// Parses the shipped corner-cut net (E9 ablation).
    pub fn new_lite() -> Result<VtaPetriInterface, CoreError> {
        Self::from_src(VTA_LITE_PNET_SRC)
    }

    fn from_src(src: &'static str) -> Result<VtaPetriInterface, CoreError> {
        let mut exec = NetExec::new(text::parse(src)?);
        let place = |name: &str| {
            exec.net()
                .place_id(name)
                .ok_or_else(|| CoreError::Artifact(format!("net lacks {name}")))
        };
        let fetch_q = place("fetch_q")?;
        let frees = [
            place("fetch_free")?,
            place("load_free")?,
            place("compute_free")?,
            place("store_free")?,
        ];
        let insn = exec.record_shape(&INSN_FIELDS);
        let unit = exec.record_shape(&["u"]);
        Ok(VtaPetriInterface {
            exec,
            src,
            fetch_q,
            frees,
            insn,
            unit,
        })
    }

    /// The `.pnet` source text.
    pub fn source(&self) -> &'static str {
        self.src
    }

    /// The parsed net.
    pub fn net(&self) -> &Net {
        self.exec.net()
    }

    /// Evaluates the net on a program.
    pub fn run(&self, prog: &Program) -> Result<SimResult, CoreError> {
        let mut eng = self.exec.session(Options::default());
        for &p in &self.frees {
            eng.inject_record(p, &self.unit, &[0.0], 0);
        }
        for insn in &prog.insns {
            eng.inject_record(self.fetch_q, &self.insn, &insn_fields(insn), 0);
        }
        let res = eng.run().map_err(CoreError::from)?;
        if res.completions.len() != prog.len() {
            return Err(CoreError::Artifact(format!(
                "net retired {} of {} instructions (unsupported flag pattern?)",
                res.completions.len(),
                prog.len()
            )));
        }
        Ok(res)
    }
}

impl PerfInterface<Program> for VtaPetriInterface {
    fn kind(&self) -> InterfaceKind {
        InterfaceKind::PetriNet
    }

    fn predict(&self, prog: &Program, metric: Metric) -> Result<Prediction, CoreError> {
        let res = self.run(prog)?;
        Ok(match metric {
            Metric::Latency => Prediction::point(res.makespan as f64),
            Metric::Throughput => Prediction::point(prog.len() as f64 / res.makespan.max(1) as f64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::VtaCycleSim;
    use crate::gen::ProgGen;
    use perf_core::validate::validate;

    #[test]
    fn both_nets_parse() {
        VtaPetriInterface::new_full().unwrap();
        VtaPetriInterface::new_lite().unwrap();
    }

    #[test]
    fn full_net_retires_every_instruction() {
        let iface = VtaPetriInterface::new_full().unwrap();
        let mut g = ProgGen::new(5);
        for p in g.gen_many(10) {
            let res = iface.run(&p).unwrap();
            assert_eq!(res.completions.len(), p.len());
            assert!(res.makespan > 0);
        }
    }

    #[test]
    fn full_net_tracks_cycle_sim_closely() {
        // Table 1: ~1.5% average error for VTA. Assert a loose 5%
        // bound on a small sample here; the bench measures precisely.
        let iface = VtaPetriInterface::new_full().unwrap();
        let mut sim = VtaCycleSim::default();
        let mut g = ProgGen::new(42);
        let progs = g.gen_many(30);
        let rep = validate(&mut sim, &iface, Metric::Latency, &progs).unwrap();
        assert!(
            rep.point.avg < 0.05,
            "petri avg latency error {:.4}",
            rep.point.avg
        );
    }

    #[test]
    fn lite_net_is_less_accurate_than_full() {
        let full = VtaPetriInterface::new_full().unwrap();
        let lite = VtaPetriInterface::new_lite().unwrap();
        let mut sim = VtaCycleSim::default();
        let mut g = ProgGen::new(43);
        let progs = g.gen_many(25);
        let rf = validate(&mut sim, &full, Metric::Latency, &progs).unwrap();
        let rl = validate(&mut sim, &lite, Metric::Latency, &progs).unwrap();
        assert!(
            rl.point.avg > rf.point.avg,
            "lite {:.4} should err more than full {:.4}",
            rl.point.avg,
            rf.point.avg
        );
    }

    #[test]
    fn throughput_prediction_positive() {
        let iface = VtaPetriInterface::new_full().unwrap();
        let p = ProgGen::new(3).gen_program();
        let t = iface.predict(&p, Metric::Throughput).unwrap();
        assert!(t.midpoint() > 0.0);
    }
}
