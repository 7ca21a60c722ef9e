//! Program interface for Protoacc (paper Fig. 3).

use crate::simx::{ProtoWorkload, ProtoaccConfig};
use perf_core::iface::{InterfaceKind, Metric, PerfInterface};
use perf_core::{CoreError, Prediction};
use perf_iface_lang::vm::Executable;
use perf_iface_lang::{Program, Value};

/// The shipped interface program source.
pub const PROTOACC_PI_SRC: &str = include_str!("../../assets/protoacc.pi");

/// Executable program interface for Protoacc.
pub struct ProtoaccProgramInterface {
    prog: Executable,
    chunk_bytes: usize,
}

impl ProtoaccProgramInterface {
    /// Parses the shipped program; calls run the bytecode VM.
    pub fn new() -> Result<ProtoaccProgramInterface, CoreError> {
        let prog =
            Program::parse(PROTOACC_PI_SRC).map_err(|e| CoreError::Artifact(e.to_string()))?;
        let prog = Executable::compiled(prog).map_err(|e| CoreError::Artifact(e.to_string()))?;
        Ok(ProtoaccProgramInterface {
            prog,
            chunk_bytes: ProtoaccConfig::default().chunk_bytes,
        })
    }

    /// The program source (display / complexity metric).
    pub fn source(&self) -> &str {
        self.prog.source()
    }

    fn representative(&self, w: &ProtoWorkload) -> Result<Value, CoreError> {
        w.messages
            .first()
            .map(|m| m.to_value(self.chunk_bytes))
            .ok_or_else(|| CoreError::InvalidObservation("empty stream".into()))
    }

    fn call_num(&self, f: &str, v: Value) -> Result<f64, CoreError> {
        self.prog
            .call(f, &[v])
            .map_err(|e| CoreError::Artifact(e.to_string()))?
            .as_num()
            .ok_or_else(|| CoreError::InvalidPrediction("non-numeric".into()))
    }
}

impl PerfInterface<ProtoWorkload> for ProtoaccProgramInterface {
    fn kind(&self) -> InterfaceKind {
        InterfaceKind::Program
    }

    fn predict(&self, w: &ProtoWorkload, metric: Metric) -> Result<Prediction, CoreError> {
        let msg = self.representative(w)?;
        match metric {
            Metric::Throughput => {
                let t = self.call_num("tput_protoacc_ser", msg)?;
                Ok(Prediction::point(t))
            }
            Metric::Latency => {
                let lo = self.call_num("min_latency_protoacc_ser", msg.clone())?;
                let hi = self.call_num("max_latency_protoacc_ser", msg)?;
                Ok(Prediction::bounds(lo, hi))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simx::ProtoaccSim;
    use crate::suite;
    use perf_core::validate::validate;

    #[test]
    fn program_parses_and_predicts() {
        let iface = ProtoaccProgramInterface::new().unwrap();
        let w = ProtoWorkload::of_format(&suite::formats()[0], 5, 1);
        let t = iface.predict(&w, Metric::Throughput).unwrap();
        assert!(t.is_finite());
        let l = iface.predict(&w, Metric::Latency).unwrap();
        assert!(matches!(l, Prediction::Bounds { .. }));
    }

    #[test]
    fn latency_always_within_bounds_on_suite() {
        // The paper: "the latency was always within the predicted
        // bounds" across the 32-format suite.
        let iface = ProtoaccProgramInterface::new().unwrap();
        let mut sim = ProtoaccSim::default();
        let workloads: Vec<ProtoWorkload> = suite::formats()
            .iter()
            .map(|d| ProtoWorkload::of_format(d, 1, 42))
            .collect();
        let rep = validate(&mut sim, &iface, Metric::Latency, &workloads).unwrap();
        assert_eq!(rep.bounds.n, 32);
        assert_eq!(
            rep.bounds.coverage(),
            1.0,
            "within {} of 32",
            rep.bounds.within
        );
    }

    #[test]
    fn throughput_error_is_single_digit_percent() {
        let iface = ProtoaccProgramInterface::new().unwrap();
        let mut sim = ProtoaccSim::default();
        let workloads: Vec<ProtoWorkload> = suite::formats()
            .iter()
            .map(|d| ProtoWorkload::of_format(d, 40, 42))
            .collect();
        let rep = validate(&mut sim, &iface, Metric::Throughput, &workloads).unwrap();
        assert!(
            rep.point.avg < 0.15,
            "avg tput error {:.3} too large",
            rep.point.avg
        );
    }
}
