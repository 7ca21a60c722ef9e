//! Conformance subject for the Protoacc serializer.

use accel_protoacc::interface::nl;
use accel_protoacc::interface::service::{nested, ProtoaccService};
use accel_protoacc::simx::{ProtoWorkload, ProtoaccSim};
use accel_protoacc::suite;
use perf_core::iface::Metric;
use perf_core::query::{QueryBackend, WorkloadSpec};
use perf_core::{Contract, CoreError, GroundTruth, Observation};
use perf_sim::FaultPlan;

use crate::harness::{CaseSpec, Subject};
use crate::report::NlResult;

/// `n` random messages of suite format `idx`.
fn format_spec(idx: usize, n: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec::new("format")
        .with("idx", idx as f64)
        .with("n", n as f64)
        .with("seed", seed as f64)
}

/// `n` messages nested `depth` levels deep (each level costs the
/// hardware a pointer chase).
fn nested_spec(depth: u64, n: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec::new("nested")
        .with("depth", depth as f64)
        .with("n", n as f64)
        .with("seed", seed as f64)
}

/// Protoacc subject: two-engine serializer sim vs the interfaces.
pub struct ProtoaccSubject {
    service: ProtoaccService,
    fault: Option<FaultPlan>,
}

impl ProtoaccSubject {
    /// Creates the subject with the shipped query backend.
    pub fn new() -> ProtoaccSubject {
        ProtoaccSubject {
            service: ProtoaccService::new(),
            fault: None,
        }
    }
}

impl Subject for ProtoaccSubject {
    fn backend(&mut self) -> &mut dyn QueryBackend {
        &mut self.service
    }

    fn specs(&self, quick: bool) -> Vec<CaseSpec> {
        let mut v = Vec::new();
        let formats = suite::formats().len();
        let stride = if quick { 4 } else { 1 };
        let n = if quick { 10 } else { 25 };
        for idx in (0..formats).step_by(stride) {
            v.push(CaseSpec::random(
                format!("format-{idx}"),
                format_spec(idx, n, 40 + idx as u64),
            ));
        }
        // Adversarial: singleton streams (no steady state to average
        // over) and deep nesting (saturates the pointer-chase path).
        v.push(CaseSpec::adversarial(
            "singleton-stream",
            format_spec(0, 1, 90),
        ));
        v.push(CaseSpec::adversarial(
            "singleton-last-format",
            format_spec(formats - 1, 1, 91),
        ));
        v.push(CaseSpec::adversarial("deep-nesting", nested_spec(8, 6, 92)));
        if !quick {
            v.push(CaseSpec::adversarial(
                "deeper-nesting-singleton",
                nested_spec(12, 1, 93),
            ));
        }
        v
    }

    fn shrink(&self, spec: &WorkloadSpec) -> Vec<WorkloadSpec> {
        let n = spec.get_uint("n").unwrap_or(0);
        let mut out = Vec::new();
        if n > 1 {
            out.push(spec.clone().with("n", (n / 2) as f64));
            if spec.kind == "format" {
                out.push(spec.clone().with("n", (n - 1) as f64));
            }
        }
        if spec.kind == "nested" {
            if let Ok(depth @ 1..) = spec.get_uint("depth") {
                out.push(spec.clone().with("depth", (depth - 1) as f64));
            }
        }
        out
    }

    fn measure(&mut self, spec: &WorkloadSpec) -> Result<Observation, CoreError> {
        let w = self.service.realize(spec)?;
        let mut sim = ProtoaccSim::default();
        sim.set_fault(self.fault);
        sim.measure(&w)
    }

    fn contract(&self) -> Contract {
        Contract::new(0.5, 0.5)
    }

    fn fault_plans(&self, quick: bool) -> Vec<FaultPlan> {
        let mut v = vec![FaultPlan::mem_jitter(31, 50, 6)];
        if !quick {
            v.push(FaultPlan::mem_jitter(32, 100, 4));
        }
        v.push(FaultPlan::mem_jitter(33, 600, 60));
        v
    }

    fn set_fault(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    fn check_nl(&mut self) -> Vec<NlResult> {
        let nl = nl::interface();
        let mut tput_samples = Vec::new();
        let mut lat_samples = Vec::new();
        for depth in [0usize, 1, 2, 4, 6] {
            let mut sim = ProtoaccSim::default();
            let w = ProtoWorkload::of_format(&nested(depth), 30, 7);
            if let Ok(obs) = sim.measure(&w) {
                tput_samples.push((depth as f64, Metric::Throughput.of(&obs)));
                lat_samples.push((depth as f64, Metric::Latency.of(&obs)));
            }
        }
        let mut out = Vec::new();
        if let Ok(v) = nl.claims[0].check(&tput_samples) {
            out.push(NlResult {
                claim: "throughput decreasing in nesting".into(),
                holds: v.holds,
                worst: v.worst_violation,
            });
        }
        if let Ok(v) = nl.claims[1].check(&lat_samples) {
            out.push(NlResult {
                claim: "latency increasing in nesting".into(),
                holds: v.holds,
                worst: v.worst_violation,
            });
        }
        out
    }
}
