//! The differential conformance harness.
//!
//! A [`Subject`] adapts one accelerator to the harness: it enumerates
//! workload specs (randomized plus adversarial edge cases), measures
//! ground truth on the cycle-accurate simulator, and hands the harness
//! the query backend the service answers from. The harness predicts
//! and reads each channel's error [`perf_core::Budget`] through that
//! backend, so what is checked is what is served. [`run_subject`] then
//! drives three phases:
//!
//! 1. **Nominal**: every case through every (representation, metric)
//!    channel; budget violations are shrunk to a minimal
//!    counterexample via the subject's spec-level `shrink`.
//! 2. **NL claims**: the natural-language interface's machine-checkable
//!    claims are swept against the simulator.
//! 3. **Fault regions**: deterministic fault plans are armed on the
//!    simulator (the interfaces never see them); in-contract regions
//!    must stay within a widened budget, out-of-contract regions are
//!    explicitly reported and predictions must merely stay finite —
//!    never silently wrong, never non-finite.

use perf_core::diag::{Diagnostic, Diagnostics};
use perf_core::iface::{InterfaceKind, Metric};
use perf_core::query::{QueryBackend, WorkloadSpec};
use perf_core::{Contract, CoreError, Observation, Prediction};
use perf_sim::FaultPlan;

use crate::report::{AccelReport, ChannelReport, Counterexample, FaultRegion, NlResult};

/// The (representation, metric) channels every subject is checked on.
pub const CHANNELS: [(InterfaceKind, Metric); 4] = [
    (InterfaceKind::Program, Metric::Latency),
    (InterfaceKind::Program, Metric::Throughput),
    (InterfaceKind::PetriNet, Metric::Latency),
    (InterfaceKind::PetriNet, Metric::Throughput),
];

/// Ceiling on greedy shrink steps per counterexample.
const MAX_SHRINK_STEPS: usize = 64;

/// One generated conformance case: a labelled workload spec.
#[derive(Clone, Debug)]
pub struct CaseSpec {
    /// Short label for reports (`random-3`, `single-block`, ...).
    pub label: String,
    /// Whether this is a hand-built adversarial edge case.
    pub adversarial: bool,
    /// The spec as the served backend takes it. Shrinking steps over
    /// its fields and the backend realizes every step, so structural
    /// invariants (e.g. VTA dependency-validity) hold by construction.
    pub spec: WorkloadSpec,
}

impl CaseSpec {
    /// A randomized case.
    pub fn random(label: impl Into<String>, spec: WorkloadSpec) -> CaseSpec {
        CaseSpec {
            label: label.into(),
            adversarial: false,
            spec,
        }
    }

    /// An adversarial edge case.
    pub fn adversarial(label: impl Into<String>, spec: WorkloadSpec) -> CaseSpec {
        CaseSpec {
            label: label.into(),
            adversarial: true,
            spec,
        }
    }
}

/// Adapts one accelerator (simulator + served query backend) to the
/// harness.
pub trait Subject {
    /// The query backend the service answers from: the harness
    /// predicts and reads budgets through it.
    fn backend(&mut self) -> &mut dyn QueryBackend;

    /// Enumerates the conformance cases (smaller set when `quick`).
    fn specs(&self, quick: bool) -> Vec<CaseSpec>;

    /// Smaller specs to try when minimizing a violation (may be
    /// empty when the spec is already minimal).
    fn shrink(&self, spec: &WorkloadSpec) -> Vec<WorkloadSpec>;

    /// Ground truth: realizes the spec through the backend's adapter
    /// and runs the cycle-accurate simulator (fresh per call, with the
    /// currently armed fault plan applied).
    fn measure(&mut self, spec: &WorkloadSpec) -> Result<Observation, CoreError>;

    /// The fault-operating contract.
    fn contract(&self) -> Contract;

    /// Deterministic fault plans probing in- and out-of-contract
    /// operation.
    fn fault_plans(&self, quick: bool) -> Vec<FaultPlan>;

    /// Arms (or disarms) fault injection for subsequent `measure`
    /// calls.
    fn set_fault(&mut self, plan: Option<FaultPlan>);

    /// Sweeps the NL interface's machine-checkable claims against the
    /// simulator.
    fn check_nl(&mut self) -> Vec<NlResult>;
}

// The error measures moved to `perf_core::budget` (shared with the
// `perf-service` degradation checks); re-exported here so existing
// harness callers keep working unchanged.
pub use perf_core::budget::{channel_error, cycle_distance, relative_error};

/// Outcome of evaluating one (spec, channel) pair.
struct CaseEval {
    rel: f64,
    pred: Prediction,
    actual: f64,
}

fn eval_case(
    s: &mut dyn Subject,
    spec: &WorkloadSpec,
    kind: InterfaceKind,
    metric: Metric,
) -> Result<Option<CaseEval>, CoreError> {
    let Ok(obs) = s.measure(spec) else {
        return Ok(None); // Simulator rejects this workload: skip.
    };
    let backend = s.backend();
    let pred = backend.predict(spec, kind, metric)?;
    let actual = metric.of(&obs);
    let atol = backend.budget(kind, metric).atol;
    let rel = if pred.is_finite() {
        channel_error(&pred, actual, metric, atol)
    } else {
        f64::INFINITY
    };
    Ok(Some(CaseEval { rel, pred, actual }))
}

/// Greedily shrinks `start` while some shrink candidate still exceeds
/// `threshold` on the given channel.
fn shrink_violation(
    s: &mut dyn Subject,
    start: &WorkloadSpec,
    kind: InterfaceKind,
    metric: Metric,
    threshold: f64,
) -> (WorkloadSpec, CaseEval, usize) {
    let mut cur = start.clone();
    let mut cur_eval = match eval_case(s, &cur, kind, metric) {
        Ok(Some(e)) => e,
        _ => CaseEval {
            rel: f64::INFINITY,
            pred: Prediction::point(f64::NAN),
            actual: 0.0,
        },
    };
    let mut steps = 0;
    while steps < MAX_SHRINK_STEPS {
        let mut advanced = false;
        let mut tried: Vec<WorkloadSpec> = Vec::new();
        for cand in s.shrink(&cur) {
            // Subjects may offer one spec twice (at `n: 2`, both `n / 2`
            // and `n - 1` are 1); simulate it once.
            if tried.contains(&cand) {
                continue;
            }
            tried.push(cand.clone());
            if let Ok(Some(e)) = eval_case(s, &cand, kind, metric) {
                if e.rel > threshold {
                    cur = cand;
                    cur_eval = e;
                    steps += 1;
                    advanced = true;
                    break;
                }
            }
        }
        if !advanced {
            break;
        }
    }
    (cur, cur_eval, steps)
}

/// Per-channel accumulator.
#[derive(Default)]
struct ChannelAcc {
    rels: Vec<f64>,
    bounds_n: usize,
    bounds_within: usize,
    worst: Option<(f64, usize)>, // (rel, spec index)
    rejected: usize,
    non_finite: usize,
}

impl ChannelAcc {
    fn record(&mut self, e: &CaseEval, idx: usize) {
        self.rels.push(e.rel);
        if let Prediction::Bounds { .. } = e.pred {
            self.bounds_n += 1;
            if e.rel == 0.0 {
                self.bounds_within += 1;
            }
        }
        if self.worst.is_none_or(|(w, _)| e.rel > w) {
            self.worst = Some((e.rel, idx));
        }
    }

    fn avg(&self) -> f64 {
        if self.rels.is_empty() {
            0.0
        } else {
            self.rels.iter().sum::<f64>() / self.rels.len() as f64
        }
    }

    fn max(&self) -> f64 {
        self.rels.iter().cloned().fold(0.0, f64::max)
    }

    fn p99(&self) -> f64 {
        // `stats::percentile` interpolates between ranks. Truncating
        // the rank index instead (the old `v[(n-1)*0.99 as usize]`)
        // reported p99 = 0.0 whenever only the max sample was nonzero
        // at small n — e.g. n=16 truncated rank 14.85 down to 14.
        perf_core::stats::percentile(&self.rels, 99.0)
    }
}

/// Evaluates all `specs` on all channels with the currently armed
/// fault state, returning one accumulator per channel plus the number
/// of simulator-rejected cases.
fn sweep(
    s: &mut dyn Subject,
    name: &'static str,
    specs: &[CaseSpec],
    diags: &mut Diagnostics,
    phase: &str,
) -> ([ChannelAcc; 4], usize) {
    let mut accs: [ChannelAcc; 4] = Default::default();
    let mut rejected = 0;
    for (idx, case) in specs.iter().enumerate() {
        let Ok(obs) = s.measure(&case.spec) else {
            rejected += 1;
            continue;
        };
        let backend = s.backend();
        for (ci, &(kind, metric)) in CHANNELS.iter().enumerate() {
            let actual = metric.of(&obs);
            let atol = backend.budget(kind, metric).atol;
            match backend.predict(&case.spec, kind, metric) {
                Ok(pred) => {
                    let rel = if pred.is_finite() {
                        channel_error(&pred, actual, metric, atol)
                    } else {
                        accs[ci].non_finite += 1;
                        diags.push(
                            Diagnostic::error(
                                "CONF03",
                                format!(
                                    "{} {} prediction is non-finite ({}) on `{}` [{}]",
                                    kind.name(),
                                    metric.name(),
                                    pred,
                                    case.label,
                                    phase
                                ),
                            )
                            .with_origin(name),
                        );
                        f64::INFINITY
                    };
                    accs[ci].record(&CaseEval { rel, pred, actual }, idx);
                }
                Err(e) => {
                    accs[ci].rejected += 1;
                    // An explicit refusal is only acceptable under
                    // fault injection (out-of-contract declaration);
                    // in nominal operation it is a conformance bug.
                    if phase == "nominal" {
                        diags.push(
                            Diagnostic::error(
                                "CONF04",
                                format!(
                                    "{} interface rejected simulator-accepted workload \
                                     `{}` for {}: {}",
                                    kind.name(),
                                    case.label,
                                    metric.name(),
                                    e
                                ),
                            )
                            .with_origin(name),
                        );
                    }
                }
            }
        }
    }
    (accs, rejected)
}

/// Builds channel reports from accumulators and flags budget
/// violations; returns the reports plus, for per-case (max) budget
/// violations, the index of the worst offending spec per channel.
#[allow(clippy::type_complexity)]
fn settle(
    s: &mut dyn Subject,
    name: &'static str,
    accs: &[ChannelAcc; 4],
    widen_by: f64,
    diags: &mut Diagnostics,
    phase: &str,
) -> (Vec<ChannelReport>, Vec<(usize, InterfaceKind, Metric, f64)>) {
    let mut reports = Vec::new();
    let mut to_shrink = Vec::new();
    for (ci, &(kind, metric)) in CHANNELS.iter().enumerate() {
        let acc = &accs[ci];
        if acc.rels.is_empty() && acc.rejected == 0 {
            continue;
        }
        let budget = s.backend().budget(kind, metric).widen(widen_by);
        let (avg, max) = (acc.avg(), acc.max());
        let mut pass = acc.non_finite == 0;
        if phase == "nominal" && acc.rejected > 0 {
            pass = false;
        }
        if avg > budget.avg {
            pass = false;
            diags.push(
                Diagnostic::error(
                    "CONF02",
                    format!(
                        "{} {} mean relative error {:.4} exceeds budget {:.4} [{}]",
                        kind.name(),
                        metric.name(),
                        avg,
                        budget.avg,
                        phase
                    ),
                )
                .with_origin(name),
            );
        }
        if max > budget.max {
            pass = false;
            if let Some((rel, idx)) = acc.worst {
                if rel > budget.max {
                    to_shrink.push((idx, kind, metric, budget.max));
                }
            }
        }
        reports.push(ChannelReport {
            kind: kind.name(),
            metric: metric.name(),
            n: acc.rels.len(),
            avg,
            max,
            p99: acc.p99(),
            bounds_n: acc.bounds_n,
            bounds_within: acc.bounds_within,
            budget,
            pass,
        });
    }
    (reports, to_shrink)
}

/// Runs the full three-phase conformance check for one subject,
/// reported under `name`.
pub fn run_subject(name: &'static str, s: &mut dyn Subject, quick: bool) -> AccelReport {
    let mut diags = Diagnostics::new();
    s.set_fault(None);
    let specs = s.specs(quick);
    let adversarial = specs.iter().filter(|c| c.adversarial).count();

    // Phase 1: nominal differential check, with shrinking.
    let (accs, rejected) = sweep(s, name, &specs, &mut diags, "nominal");
    let (nominal, to_shrink) = settle(s, name, &accs, 0.0, &mut diags, "nominal");
    let mut counterexamples = Vec::new();
    for (idx, kind, metric, threshold) in to_shrink {
        let case = &specs[idx];
        let (min_spec, e, steps) = shrink_violation(s, &case.spec, kind, metric, threshold);
        let mut desc = String::new();
        min_spec.write_json(&mut desc);
        diags.push(
            Diagnostic::error(
                "CONF01",
                format!(
                    "{} {} relative error {:.4} exceeds per-case budget {:.4}",
                    kind.name(),
                    metric.name(),
                    e.rel,
                    threshold
                ),
            )
            .with_origin(name)
            .with_at(case.label.clone())
            .with_note(format!(
                "minimal counterexample ({} shrink steps): {} -> predicted {}, simulated {:.0}",
                steps, desc, e.pred, e.actual
            )),
        );
        counterexamples.push(Counterexample {
            kind: kind.name(),
            metric: metric.name(),
            label: case.label.clone(),
            desc,
            predicted: e.pred.to_string(),
            actual: e.actual,
            rel: e.rel,
            shrink_steps: steps,
        });
    }

    // Phase 2: NL claims against the simulator.
    let nl = s.check_nl();
    for r in &nl {
        if !r.holds {
            diags.push(
                Diagnostic::error(
                    "CONF07",
                    format!(
                        "NL claim `{}` violated on simulator sweep (worst {:.4})",
                        r.claim, r.worst
                    ),
                )
                .with_origin(name),
            );
        }
    }

    // Phase 3: fault-injected operating regions.
    let contract = s.contract();
    let mut faults = Vec::new();
    for plan in s.fault_plans(quick) {
        let intensity = plan.intensity();
        let in_contract = intensity <= contract.max_intensity;
        s.set_fault(Some(plan));
        let phase = if in_contract {
            "fault-in-contract"
        } else {
            "fault-out-of-contract"
        };
        let (accs, _) = sweep(s, name, &specs, &mut diags, phase);
        let (channels, pass) = if in_contract {
            let before = diags.count(perf_core::diag::Severity::Error);
            let (ch, violations) =
                settle(s, name, &accs, contract.slack(intensity), &mut diags, phase);
            for (idx, kind, metric, threshold) in violations {
                diags.push(
                    Diagnostic::error(
                        "CONF05",
                        format!(
                            "{} {} exceeds widened budget {:.4} under in-contract fault \
                             plan (seed {}, intensity {:.3}) on `{}`",
                            kind.name(),
                            metric.name(),
                            threshold,
                            plan.seed,
                            intensity,
                            specs[idx].label
                        ),
                    )
                    .with_origin(name),
                );
            }
            let pass = diags.count(perf_core::diag::Severity::Error) == before;
            (ch, pass)
        } else {
            // Beyond the contract the interfaces are not accountable
            // for accuracy — but they must stay finite, and the
            // region must be declared, not silently mispredicted.
            let non_finite: usize = accs.iter().map(|a| a.non_finite).sum();
            diags.push(
                Diagnostic::info(
                    "CONF06",
                    format!(
                        "fault plan (seed {}, intensity {:.3}) exceeds contract max \
                         intensity {:.3}: operating region declared out of contract",
                        plan.seed, intensity, contract.max_intensity
                    ),
                )
                .with_origin(name),
            );
            (Vec::new(), non_finite == 0)
        };
        faults.push(FaultRegion {
            seed: plan.seed,
            intensity,
            in_contract,
            channels,
            pass,
        });
        s.set_fault(None);
    }

    AccelReport {
        name,
        cases: specs.len(),
        adversarial,
        rejected,
        nominal,
        nl,
        faults,
        counterexamples,
        diags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_core::units::Cycles;

    #[test]
    fn relative_error_point_and_bounds() {
        assert!((relative_error(&Prediction::point(110.0), 100.0) - 0.1).abs() < 1e-12);
        let b = Prediction::bounds(90.0, 120.0);
        assert_eq!(relative_error(&b, 100.0), 0.0);
        assert!((relative_error(&b, 150.0) - 0.2).abs() < 1e-12);
        assert!((relative_error(&b, 60.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn p99_interpolates_at_small_n() {
        // Regression: with 16 samples where only the max is nonzero,
        // a truncated rank index ((16-1)*0.99 = 14.85 → 14) reported
        // p99 = 0.0 while max > 0. Interpolation must see the tail.
        let mut acc = ChannelAcc::default();
        for i in 0..16 {
            let rel = if i == 15 { 0.04 } else { 0.0 };
            acc.record(
                &CaseEval {
                    rel,
                    pred: Prediction::point(1.0),
                    actual: 1.0,
                },
                i,
            );
        }
        assert!(acc.max() > 0.0);
        assert!(acc.p99() > 0.0, "p99 must not truncate away the max");
        assert!(acc.p99() <= acc.max());
        // Single sample: p99 == max == that sample.
        let mut one = ChannelAcc::default();
        one.record(
            &CaseEval {
                rel: 0.25,
                pred: Prediction::point(1.0),
                actual: 1.0,
            },
            0,
        );
        assert_eq!(one.p99(), 0.25);
        // Empty stays 0.
        assert_eq!(ChannelAcc::default().p99(), 0.0);
    }

    #[test]
    fn atol_deadband_zeroes_tiny_absolute_gaps() {
        // 2 vs 1 cycle: 100% relative, but inside a 4-cycle deadband.
        let p = Prediction::point(2.0);
        assert_eq!(channel_error(&p, 1.0, Metric::Latency, 4.0), 0.0);
        assert!(channel_error(&p, 1.0, Metric::Latency, 0.5) > 0.9);
        // Throughput compares in the reciprocal (cycles-per-item)
        // domain: 0.5 vs 1.0 items/cycle is a 1-cycle gap.
        let t = Prediction::point(0.5);
        assert_eq!(cycle_distance(&t, 1.0, Metric::Throughput), 1.0);
        assert_eq!(channel_error(&t, 1.0, Metric::Throughput, 4.0), 0.0);
        // A 1.0-vs-0.2 divergence is 4 cycles off: outside a 2-cycle
        // deadband, so the full relative error survives.
        let d = Prediction::point(1.0);
        assert_eq!(cycle_distance(&d, 0.2, Metric::Throughput), 4.0);
        assert_eq!(channel_error(&d, 0.2, Metric::Throughput, 2.0), 4.0);
    }

    /// A toy subject whose program interface is wrong for workloads
    /// above a threshold: the harness must catch it and shrink to the
    /// smallest still-failing size. It is its own backend.
    struct Toy {
        bad_above: u64,
        /// Simulator runs so far.
        measures: usize,
    }

    impl Toy {
        fn new(bad_above: u64) -> Toy {
            Toy {
                bad_above,
                measures: 0,
            }
        }
    }

    fn toy(size: u64) -> WorkloadSpec {
        WorkloadSpec::new("toy").with("size", size as f64)
    }

    impl QueryBackend for Toy {
        fn accel(&self) -> &'static str {
            "toy"
        }
        fn spec_kinds(&self) -> &'static [&'static str] {
            &["toy"]
        }
        fn predict(
            &mut self,
            spec: &WorkloadSpec,
            _repr: InterfaceKind,
            metric: Metric,
        ) -> Result<Prediction, CoreError> {
            let w = spec.get_uint("size")?;
            let lat = if w > self.bad_above {
                20.0 * w as f64 // Model bug: double latency.
            } else {
                10.0 * w as f64
            };
            Ok(match metric {
                Metric::Latency => Prediction::point(lat),
                Metric::Throughput => Prediction::point(1.0 / lat),
            })
        }
        fn budget(&self, _repr: InterfaceKind, _metric: Metric) -> perf_core::Budget {
            perf_core::Budget::new(0.05, 0.10)
        }
        fn measure(&mut self, spec: &WorkloadSpec) -> Result<Observation, CoreError> {
            Ok(Observation::single_item(Cycles(
                10 * spec.get_uint("size")?,
            )))
        }
    }

    impl Subject for Toy {
        fn backend(&mut self) -> &mut dyn QueryBackend {
            self
        }
        fn specs(&self, _quick: bool) -> Vec<CaseSpec> {
            vec![
                CaseSpec::random("small", toy(4)),
                CaseSpec::random("large", toy(64)),
            ]
        }
        fn shrink(&self, spec: &WorkloadSpec) -> Vec<WorkloadSpec> {
            match spec.get_uint("size") {
                Ok(n) if n > 1 => vec![toy(n / 2), toy(n - 1)],
                _ => vec![],
            }
        }
        fn measure(&mut self, spec: &WorkloadSpec) -> Result<Observation, CoreError> {
            self.measures += 1;
            QueryBackend::measure(self, spec)
        }
        fn contract(&self) -> Contract {
            Contract::new(1.0, 0.5)
        }
        fn fault_plans(&self, _quick: bool) -> Vec<FaultPlan> {
            vec![]
        }
        fn set_fault(&mut self, _plan: Option<FaultPlan>) {}
        fn check_nl(&mut self) -> Vec<NlResult> {
            vec![NlResult {
                claim: "latency vs size".into(),
                holds: true,
                worst: 0.0,
            }]
        }
    }

    #[test]
    fn catches_and_shrinks_divergence() {
        let rep = run_subject("toy", &mut Toy::new(16), true);
        assert!(!rep.pass());
        assert!(rep.diags.has_code("CONF01"));
        assert!(rep.diags.has_code("CONF02"));
        // Greedy shrink must land on the smallest failing size, 17,
        // rendered as the spec object a served request carries.
        let cx = &rep.counterexamples[0];
        assert_eq!(cx.desc, r#"{"kind":"toy","size":17.0}"#);
        assert!(cx.shrink_steps > 0);
    }

    #[test]
    fn correct_toy_passes() {
        let rep = run_subject("toy", &mut Toy::new(u64::MAX), true);
        assert!(rep.pass(), "{}", rep.diags.render());
        assert!(rep.counterexamples.is_empty());
        assert_eq!(rep.nominal.len(), 4);
        assert!(rep.nominal.iter().all(|c| c.pass));
    }

    #[test]
    fn shrinker_simulates_each_candidate_once() {
        // From size 2 the toy offers `n / 2` and `n - 1`: size 1 twice.
        // Size 2 fails and size 1 does not, so the step tries size 1,
        // which must be simulated once, not twice.
        let mut subject = Toy::new(1);
        let (min, eval, steps) = shrink_violation(
            &mut subject,
            &toy(2),
            InterfaceKind::Program,
            Metric::Latency,
            0.1,
        );
        assert_eq!((min, steps), (toy(2), 0));
        assert!(eval.rel > 0.1);
        assert_eq!(subject.measures, 2, "the start once and size 1 once");
    }
}
