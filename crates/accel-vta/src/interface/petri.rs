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
use perf_petri::token::Token;
use perf_petri::{NetExec, Options, SimResult};

/// The shipped full-fidelity net.
pub const VTA_FULL_PNET_SRC: &str = include_str!("../../assets/vta_full.pnet");

/// The shipped corner-cut net.
pub const VTA_LITE_PNET_SRC: &str = include_str!("../../assets/vta_lite.pnet");

/// Converts one instruction into its `fetch_q` token payload.
pub fn insn_token(insn: &Insn) -> Value {
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
    Value::record([
        ("m", Value::from(m)),
        ("is_gemm", Value::from(is_gemm)),
        ("is_alu", Value::from(is_alu)),
        ("is_mem", Value::from(is_mem)),
        ("is_fin", Value::from(is_fin)),
        ("bytes", Value::from(bytes)),
        ("macs", Value::from(macs)),
        ("ops", Value::from(ops)),
        ("pp", Value::from(f.pop_prev as u64)),
        ("pn", Value::from(f.pop_next as u64)),
        ("shp", Value::from(f.push_prev as u64)),
        ("shn", Value::from(f.push_next as u64)),
    ])
}

/// Petri-net interface for VTA.
pub struct VtaPetriInterface {
    exec: NetExec,
    src: &'static str,
    events: std::cell::Cell<u64>,
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
        Ok(VtaPetriInterface {
            exec: NetExec::new(text::parse(src)?),
            src,
            events: std::cell::Cell::new(0),
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

    /// Total stepper events processed (the evaluation-cost metric for
    /// experiment E5).
    pub fn events_evaluated(&self) -> u64 {
        self.events.get()
    }

    /// Evaluates the net on a program.
    pub fn run(&self, prog: &Program) -> Result<SimResult, CoreError> {
        let fetch_q = self
            .exec
            .net()
            .place_id("fetch_q")
            .ok_or_else(|| CoreError::Artifact("net lacks fetch_q".into()))?;
        let mut eng = self.exec.session(Options::default());
        for free in ["fetch_free", "load_free", "compute_free", "store_free"] {
            let p = self
                .exec
                .net()
                .place_id(free)
                .ok_or_else(|| CoreError::Artifact(format!("net lacks {free}")))?;
            eng.inject(p, Token::at(Value::record([("u", Value::num(0.0))]), 0));
        }
        for insn in &prog.insns {
            eng.inject(fetch_q, Token::at(insn_token(insn), 0));
        }
        let res = eng.run().map_err(CoreError::from)?;
        if res.completions.len() != prog.len() {
            return Err(CoreError::Artifact(format!(
                "net retired {} of {} instructions (unsupported flag pattern?)",
                res.completions.len(),
                prog.len()
            )));
        }
        self.events.set(self.events.get() + res.events);
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
        assert!(iface.events_evaluated() > 0);
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
