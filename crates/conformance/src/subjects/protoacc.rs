//! Conformance subject for the Protoacc serializer.

use accel_protoacc::descriptor::{FieldDesc, FieldKind, MessageDesc};
use accel_protoacc::interface;
use accel_protoacc::simx::{ProtoWorkload, ProtoaccSim};
use accel_protoacc::suite;
use perf_core::iface::{InterfaceBundle, InterfaceKind, Metric};
use perf_core::{CoreError, GroundTruth, Observation, Prediction};
use perf_sim::FaultPlan;

use crate::budget::{Budget, Contract};
use crate::harness::{CaseSpec, Subject};
use crate::report::NlResult;

/// Generator-level description of one message-stream workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoSpec {
    /// `n` random messages of one of the 32 suite formats.
    Format { idx: usize, n: usize, seed: u64 },
    /// `n` messages nested `depth` levels deep (each level costs the
    /// hardware a pointer chase).
    Nested { depth: usize, n: usize, seed: u64 },
}

/// Builds the `depth`-level nested format used by the NL sweeps and
/// the adversarial deep-nesting cases.
fn nested(depth: usize) -> MessageDesc {
    let mut d = MessageDesc::new(
        "leaf",
        (0..4)
            .map(|i| FieldDesc::single(i + 1, FieldKind::Uint64))
            .collect(),
    );
    for _ in 0..depth {
        d = MessageDesc::new(
            "wrap",
            vec![
                FieldDesc::single(1, FieldKind::Uint64),
                FieldDesc::single(2, FieldKind::Message(Box::new(d))),
            ],
        );
    }
    d
}

/// Protoacc subject: two-engine serializer sim vs the interfaces.
pub struct ProtoaccSubject {
    bundle: InterfaceBundle<ProtoWorkload>,
    formats: Vec<MessageDesc>,
    fault: Option<FaultPlan>,
}

impl ProtoaccSubject {
    /// Creates the subject with the shipped interface bundle.
    pub fn new() -> ProtoaccSubject {
        ProtoaccSubject {
            bundle: interface::bundle(),
            formats: suite::formats(),
            fault: None,
        }
    }
}

impl Default for ProtoaccSubject {
    fn default() -> Self {
        ProtoaccSubject::new()
    }
}

impl Subject for ProtoaccSubject {
    type Spec = ProtoSpec;
    type Workload = ProtoWorkload;

    fn name(&self) -> &'static str {
        "protoacc"
    }

    fn specs(&mut self, quick: bool) -> Vec<CaseSpec<ProtoSpec>> {
        let mut v = Vec::new();
        let stride = if quick { 4 } else { 1 };
        let n = if quick { 10 } else { 25 };
        for idx in (0..self.formats.len()).step_by(stride) {
            v.push(CaseSpec::random(
                format!("format-{idx}"),
                ProtoSpec::Format {
                    idx,
                    n,
                    seed: 40 + idx as u64,
                },
            ));
        }
        // Adversarial: singleton streams (no steady state to average
        // over) and deep nesting (saturates the pointer-chase path).
        v.push(CaseSpec::adversarial(
            "singleton-stream",
            ProtoSpec::Format {
                idx: 0,
                n: 1,
                seed: 90,
            },
        ));
        v.push(CaseSpec::adversarial(
            "singleton-last-format",
            ProtoSpec::Format {
                idx: self.formats.len() - 1,
                n: 1,
                seed: 91,
            },
        ));
        v.push(CaseSpec::adversarial(
            "deep-nesting",
            ProtoSpec::Nested {
                depth: 8,
                n: 6,
                seed: 92,
            },
        ));
        if !quick {
            v.push(CaseSpec::adversarial(
                "deeper-nesting-singleton",
                ProtoSpec::Nested {
                    depth: 12,
                    n: 1,
                    seed: 93,
                },
            ));
        }
        v
    }

    fn realize(&mut self, spec: &ProtoSpec) -> ProtoWorkload {
        match *spec {
            ProtoSpec::Format { idx, n, seed } => {
                ProtoWorkload::of_format(&self.formats[idx], n, seed)
            }
            ProtoSpec::Nested { depth, n, seed } => {
                ProtoWorkload::of_format(&nested(depth), n, seed)
            }
        }
    }

    fn describe(&self, spec: &ProtoSpec) -> String {
        match *spec {
            ProtoSpec::Format { idx, n, .. } => {
                format!("{n} message(s) of format `{}`", self.formats[idx].name)
            }
            ProtoSpec::Nested { depth, n, .. } => {
                format!("{n} message(s) nested {depth} level(s) deep")
            }
        }
    }

    fn shrink(&mut self, spec: &ProtoSpec) -> Vec<ProtoSpec> {
        let mut out = Vec::new();
        match *spec {
            ProtoSpec::Format { idx, n, seed } => {
                if n > 1 {
                    out.push(ProtoSpec::Format {
                        idx,
                        n: n / 2,
                        seed,
                    });
                    out.push(ProtoSpec::Format {
                        idx,
                        n: n - 1,
                        seed,
                    });
                }
            }
            ProtoSpec::Nested { depth, n, seed } => {
                if n > 1 {
                    out.push(ProtoSpec::Nested {
                        depth,
                        n: n / 2,
                        seed,
                    });
                }
                if depth > 0 {
                    out.push(ProtoSpec::Nested {
                        depth: depth - 1,
                        n,
                        seed,
                    });
                }
            }
        }
        out
    }

    fn measure(&mut self, w: &ProtoWorkload) -> Result<Observation, CoreError> {
        let mut sim = ProtoaccSim::default();
        sim.set_fault(self.fault);
        sim.measure(w)
    }

    fn predict(
        &mut self,
        kind: InterfaceKind,
        w: &ProtoWorkload,
        metric: Metric,
    ) -> Result<Prediction, CoreError> {
        self.bundle
            .get(kind)
            .ok_or_else(|| CoreError::Artifact(format!("no {} interface", kind.name())))?
            .predict(w, metric)
    }

    fn budget(&self, kind: InterfaceKind, metric: Metric) -> Budget {
        accel_protoacc::interface::budget(kind, metric)
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
        let nl = &self.bundle.natural_language;
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
