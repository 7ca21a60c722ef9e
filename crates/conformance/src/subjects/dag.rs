//! Conformance subject for a fan-out/fan-in composite DAG.
//!
//! The sixth subject widens the composition story past linear chains:
//! ground truth is the cycle-accurate *DAG* pipeline (a decoder
//! round-robining its stream across two parallel branches that merge
//! back into one serializer), and every interface channel is the
//! composite one realized over the same branched shape — the Petri
//! tier runs the glued net with its router and merge transitions, the
//! program tier runs the DAG schedule recurrence, and the NL tier
//! composes busiest-stage / critical-path bounds over the job plan. A
//! budget violation here means branched composition (routing, merging
//! or replication — not a stage model, and not chain composition,
//! which the `pipeline` subject already gates) broke the contract.

use perf_compose::PipelineBackend;
use perf_core::iface::{InterfaceKind, Metric};
use perf_core::query::{QueryBackend, WorkloadSpec};
use perf_core::{CoreError, Observation, Prediction};
use perf_sim::FaultPlan;

use crate::budget::{Budget, Contract};
use crate::harness::{CaseSpec, Subject};
use crate::report::NlResult;
use crate::subjects::pipeline::StreamSpec;

/// The fixed branched conformance topology: a decode stage fanning out
/// round-robin over two unlike branches (serializer vs miner) that
/// merge into a final serializer. Tight queues so backpressure engages
/// on short streams; unlike branches so routing mistakes show up as
/// cost, not symmetry.
const DAG_CHAIN: &str = "jpeg-decoder:2>(protoacc:2|bitcoin-miner:2)>protoacc:3";

/// Branched composite subject: composed cycle-accurate DAG vs the
/// composite NL, program and Petri-net interfaces.
pub struct DagSubject {
    backend: PipelineBackend,
}

impl DagSubject {
    /// Creates the subject over the canonical fan-out/fan-in topology.
    pub fn new() -> DagSubject {
        DagSubject {
            backend: PipelineBackend::from_chain(DAG_CHAIN)
                .expect("shipped DAG topology must construct"),
        }
    }
}

impl Default for DagSubject {
    fn default() -> Self {
        DagSubject::new()
    }
}

fn to_spec(s: &StreamSpec) -> WorkloadSpec {
    WorkloadSpec::new("stream")
        .with("items", s.items as f64)
        .with("seed", s.seed as f64)
}

impl Subject for DagSubject {
    type Spec = StreamSpec;
    type Workload = WorkloadSpec;

    fn name(&self) -> &'static str {
        "pipeline-dag"
    }

    fn specs(&mut self, quick: bool) -> Vec<CaseSpec<StreamSpec>> {
        let mut v = Vec::new();
        let sizes: &[usize] = if quick {
            &[2, 4, 6]
        } else {
            &[2, 4, 6, 8, 10, 12]
        };
        for (i, &items) in sizes.iter().enumerate() {
            v.push(CaseSpec::random(
                format!("stream-{items}"),
                StreamSpec {
                    items,
                    seed: 5 + i as u64,
                },
            ));
        }
        // Adversarial: a singleton stream (one branch never sees a
        // token — the merge must still drain cleanly), an odd-length
        // stream (branch loads unbalanced by one), and a stream long
        // enough to saturate the 2-deep branch queues.
        v.push(CaseSpec::adversarial(
            "single-item",
            StreamSpec { items: 1, seed: 9 },
        ));
        v.push(CaseSpec::adversarial(
            "odd-split",
            StreamSpec { items: 7, seed: 13 },
        ));
        v.push(CaseSpec::adversarial(
            "queue-saturating",
            StreamSpec {
                items: if quick { 10 } else { 20 },
                seed: 17,
            },
        ));
        v
    }

    fn realize(&mut self, spec: &StreamSpec) -> WorkloadSpec {
        to_spec(spec)
    }

    fn describe(&self, spec: &StreamSpec) -> String {
        format!(
            "{} items through {DAG_CHAIN} (seed {})",
            spec.items, spec.seed
        )
    }

    fn shrink(&mut self, spec: &StreamSpec) -> Vec<StreamSpec> {
        let mut out = Vec::new();
        if spec.items > 1 {
            out.push(StreamSpec {
                items: spec.items / 2,
                ..*spec
            });
        }
        if spec.seed != 1 {
            out.push(StreamSpec { seed: 1, ..*spec });
        }
        out.retain(|c| c != spec);
        out
    }

    fn measure(&mut self, w: &WorkloadSpec) -> Result<Observation, CoreError> {
        self.backend.measure(w)
    }

    fn predict(
        &mut self,
        kind: InterfaceKind,
        w: &WorkloadSpec,
        metric: Metric,
    ) -> Result<Prediction, CoreError> {
        self.backend.predict(w, kind, metric)
    }

    fn budget(&self, kind: InterfaceKind, metric: Metric) -> Budget {
        self.backend.budget(kind, metric)
    }

    fn contract(&self) -> Contract {
        // Same shape as the chain subject: composite fault
        // opportunities are per item-issue, so injected cycles barely
        // move a makespan of thousands of cycles.
        Contract::new(3.0, 0.05)
    }

    fn fault_plans(&self, quick: bool) -> Vec<FaultPlan> {
        let mut v = vec![FaultPlan::stage_stalls(11, 300, 4)];
        if !quick {
            // Intensity 2.0: still in contract.
            v.push(FaultPlan::backpressure(5, 200, 10));
        }
        // Far out of contract: retirement holds of thousands of cycles
        // wedge one branch far beyond the composed promise.
        v.push(FaultPlan::backpressure(7, 900, 4000));
        v
    }

    fn set_fault(&mut self, plan: Option<FaultPlan>) {
        // The plan's seed picks the degraded stage, so successive plans
        // hit the fan-out source, a single branch, and the merge point
        // rather than always the same stage.
        let stages = self.backend.composite().topology().stages.len();
        match plan {
            Some(p) => {
                let stage = (p.seed as usize) % stages;
                self.backend.composite_mut().set_fault(stage, Some(p));
            }
            None => self.backend.composite_mut().set_fault(0, None),
        }
    }

    fn check_nl(&mut self) -> Vec<NlResult> {
        let sweep: Vec<usize> = vec![2, 4, 6, 8, 10];
        let mut makespans = Vec::new();
        let mut worst_bound = 0.0_f64;
        let mut bounds_hold = true;
        for &items in &sweep {
            // One shared seed: a longer stream is a strict prefix
            // extension of a shorter one, so makespan must be monotone.
            let s = StreamSpec { items, seed: 23 };
            let w = to_spec(&s);
            let Ok(obs) = self.backend.measure(&w) else {
                continue;
            };
            let actual = Metric::Latency.of(&obs);
            makespans.push(actual);
            if let Ok(p) = self
                .backend
                .predict(&w, InterfaceKind::NaturalLanguage, Metric::Latency)
            {
                if !p.contains(actual) {
                    bounds_hold = false;
                    worst_bound = worst_bound.max(crate::harness::relative_error(&p, actual));
                }
            }
        }
        let mut out = vec![NlResult {
            claim: "DAG stream makespan within composite NL bounds".into(),
            holds: bounds_hold,
            worst: worst_bound,
        }];
        // Monotonicity: more items can only take longer, branched or
        // not — the DAG only adds parallel capacity.
        let mut worst_drop = 0.0_f64;
        for pair in makespans.windows(2) {
            if pair[1] < pair[0] * 0.95 {
                worst_drop = worst_drop.max((pair[0] - pair[1]) / pair[0]);
            }
        }
        out.push(NlResult {
            claim: "DAG stream makespan nondecreasing in items".into(),
            holds: worst_drop == 0.0,
            worst: worst_drop,
        });
        out
    }
}
