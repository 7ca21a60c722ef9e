//! Conformance subjects for composite SoC pipelines.
//!
//! Unlike the single-accelerator subjects, the ground truth here is the
//! *composed* cycle-accurate system — independent stage simulators
//! wired through bounded FIFOs — and every interface channel is the
//! composite one: the Petri tier runs the glued net (stage component
//! nets fused through `perf_petri::compose`, with router and merge
//! transitions on a DAG), the program tier runs the bounded-buffer
//! schedule recurrence, and the NL tier composes per-stage closed-form
//! bounds. A budget violation on one of these subjects means
//! composition itself (not a stage model) broke the contract.
//!
//! Two subjects share the code: a linear chain, and a fan-out/fan-in
//! DAG that widens the story past chains (routing, merging and
//! replication, which the chain does not exercise).

use perf_compose::PipelineBackend;
use perf_core::iface::{InterfaceKind, Metric};
use perf_core::query::{QueryBackend, WorkloadSpec};
use perf_core::{Contract, CoreError, Observation};
use perf_sim::FaultPlan;

use crate::harness::{CaseSpec, Subject};
use crate::report::NlResult;

/// `items` items pushed through the pipeline; every item and stage
/// derives its workload from `seed`.
fn stream(items: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec::new("stream")
        .with("items", items as f64)
        .with("seed", seed as f64)
}

/// Composite pipeline subject: composed cycle-accurate system vs the
/// composite NL, program and Petri-net interfaces.
pub struct CompositeSubject {
    first_seed: u64,
    extra_case: Option<(&'static str, WorkloadSpec)>,
    claim_prefix: &'static str,
    backend: PipelineBackend,
}

impl CompositeSubject {
    fn new(
        chain: &str,
        first_seed: u64,
        extra_case: Option<(&'static str, WorkloadSpec)>,
        claim_prefix: &'static str,
    ) -> CompositeSubject {
        CompositeSubject {
            first_seed,
            extra_case,
            claim_prefix,
            backend: PipelineBackend::from_chain(chain)
                .expect("shipped conformance topology must construct"),
        }
    }

    /// The `pipeline` subject: a decode→serialize chain with tight
    /// queues, so backpressure actually engages on short streams.
    pub fn chain() -> CompositeSubject {
        CompositeSubject::new("jpeg-decoder:2>protoacc:2", 3, None, "")
    }

    /// The `pipeline-dag` subject: a decode stage fanning out
    /// round-robin over two unlike branches (serializer vs miner) that
    /// merge into a final serializer. Unlike branches make routing
    /// mistakes show up as cost, not symmetry. Its extra adversarial
    /// case is an odd-length stream (branch loads unbalanced by one).
    pub fn dag() -> CompositeSubject {
        CompositeSubject::new(
            "jpeg-decoder:2>(protoacc:2|bitcoin-miner:2)>protoacc:3",
            5,
            Some(("odd-split", stream(7, 13))),
            "DAG ",
        )
    }
}

impl Subject for CompositeSubject {
    fn backend(&mut self) -> &mut dyn QueryBackend {
        &mut self.backend
    }

    fn specs(&self, quick: bool) -> Vec<CaseSpec> {
        let mut v = Vec::new();
        let sizes: &[u64] = if quick {
            &[2, 4, 6]
        } else {
            &[2, 4, 6, 8, 10, 12]
        };
        for (i, &items) in sizes.iter().enumerate() {
            v.push(CaseSpec::random(
                format!("stream-{items}"),
                stream(items, self.first_seed + i as u64),
            ));
        }
        // Adversarial: a singleton stream (no pipelining at all — the
        // composite must degenerate to a serial path, and on a DAG one
        // branch never sees a token yet the merge must still drain),
        // the subject's own extra case, and a stream long enough to
        // saturate the 2-deep queues.
        v.push(CaseSpec::adversarial("single-item", stream(1, 9)));
        if let Some((label, spec)) = &self.extra_case {
            v.push(CaseSpec::adversarial(*label, spec.clone()));
        }
        v.push(CaseSpec::adversarial(
            "queue-saturating",
            stream(if quick { 10 } else { 20 }, 17),
        ));
        v
    }

    fn shrink(&self, spec: &WorkloadSpec) -> Vec<WorkloadSpec> {
        let mut out = Vec::new();
        if let Ok(items @ 2..) = spec.get_uint("items") {
            out.push(spec.clone().with("items", (items / 2) as f64));
        }
        if spec.get("seed") != Some(1.0) {
            out.push(spec.clone().with("seed", 1.0));
        }
        out
    }

    fn measure(&mut self, spec: &WorkloadSpec) -> Result<Observation, CoreError> {
        self.backend.measure(spec)
    }

    fn contract(&self) -> Contract {
        // Composite fault opportunities are per item-issue (a handful
        // per stream), so injected cycles barely move a makespan of
        // thousands of cycles: small slack per unit intensity, and a
        // generous in-contract ceiling.
        Contract::new(3.0, 0.05)
    }

    fn fault_plans(&self, quick: bool) -> Vec<FaultPlan> {
        let mut v = vec![FaultPlan::stage_stalls(11, 300, 4)];
        if !quick {
            // Intensity 2.0: still in contract.
            v.push(FaultPlan::backpressure(5, 200, 10));
        }
        // Intensity 3600: far out of contract — retirement holds of
        // thousands of cycles wedge the stream (or one branch) far
        // beyond anything the composed interfaces promise to track.
        v.push(FaultPlan::backpressure(7, 900, 4000));
        v
    }

    fn set_fault(&mut self, plan: Option<FaultPlan>) {
        // The plan's seed picks the degraded stage, so successive
        // plans exercise fault injection on *individual* stages of the
        // composite (on a DAG: the fan-out source, a single branch, the
        // merge point) rather than always the same one.
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
        let sweep = [2, 4, 6, 8, 10];
        let mut makespans = Vec::new();
        let mut worst_bound = 0.0_f64;
        let mut bounds_hold = true;
        for &items in &sweep {
            // One shared seed: a longer stream is then a strict prefix
            // extension of a shorter one, so makespan must be
            // monotone; mixing seeds would compare unrelated streams.
            let w = stream(items, 23);
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
            claim: format!(
                "{}stream makespan within composite NL bounds",
                self.claim_prefix
            ),
            holds: bounds_hold,
            worst: worst_bound,
        }];
        // Monotonicity: more items can only take longer — a DAG only
        // adds parallel capacity. (Per-item costs vary, so allow a
        // small tolerance.)
        let mut worst_drop = 0.0_f64;
        for pair in makespans.windows(2) {
            if pair[1] < pair[0] * 0.95 {
                worst_drop = worst_drop.max((pair[0] - pair[1]) / pair[0]);
            }
        }
        out.push(NlResult {
            claim: format!(
                "{}stream makespan nondecreasing in items",
                self.claim_prefix
            ),
            holds: worst_drop == 0.0,
            worst: worst_drop,
        });
        out
    }
}
