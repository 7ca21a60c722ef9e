//! Structured conformance reports: per-channel statistics, minimized
//! counterexamples, fault-region verdicts, and their JSON rendering
//! (`BENCH_conformance.json`).

use perf_core::diag::Diagnostics;
use perf_core::trace::json_escape;
use perf_core::Budget;

/// Accumulated error statistics for one (representation, metric)
/// channel of one accelerator.
#[derive(Clone, Debug)]
pub struct ChannelReport {
    /// Representation name (`program`, `petri-net`).
    pub kind: &'static str,
    /// Metric name (`latency`, `throughput`).
    pub metric: &'static str,
    /// Cases evaluated.
    pub n: usize,
    /// Mean relative error.
    pub avg: f64,
    /// Worst single-case relative error.
    pub max: f64,
    /// 99th-percentile relative error.
    pub p99: f64,
    /// Interval predictions seen.
    pub bounds_n: usize,
    /// Interval predictions that contained the observation.
    pub bounds_within: usize,
    /// The budget the channel was held to.
    pub budget: Budget,
    /// Whether the channel stayed within budget.
    pub pass: bool,
}

impl ChannelReport {
    fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"metric\":\"{}\",\"n\":{},\"avg\":{:.6},\"max\":{:.6},\
             \"p99\":{:.6},\"bounds_n\":{},\"bounds_within\":{},\"budget_avg\":{:.6},\
             \"budget_max\":{:.6},\"pass\":{}}}",
            self.kind,
            self.metric,
            self.n,
            self.avg,
            self.max,
            self.p99,
            self.bounds_n,
            self.bounds_within,
            self.budget.avg,
            self.budget.max,
            self.pass
        )
    }
}

/// A budget violation shrunk to a minimal still-failing workload.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Representation name.
    pub kind: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Label of the originating case.
    pub label: String,
    /// The minimized workload spec as the line protocol's `spec`
    /// object, ready to paste into a `repro --serve` request.
    pub desc: String,
    /// The interface's prediction, rendered.
    pub predicted: String,
    /// The simulator's observation.
    pub actual: f64,
    /// Relative error of the minimized case.
    pub rel: f64,
    /// Shrink steps taken from the original case.
    pub shrink_steps: usize,
}

impl Counterexample {
    fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"metric\":\"{}\",\"label\":\"{}\",\"workload\":{},\
             \"predicted\":\"{}\",\"actual\":{:.3},\"rel_error\":{:.6},\"shrink_steps\":{}}}",
            self.kind,
            self.metric,
            json_escape(&self.label),
            self.desc,
            json_escape(&self.predicted),
            self.actual,
            self.rel,
            self.shrink_steps
        )
    }
}

/// Verdict for one natural-language claim checked against the
/// simulator.
#[derive(Clone, Debug)]
pub struct NlResult {
    /// Human description of the claim (metric vs axis).
    pub claim: String,
    /// Whether the claim held on the sweep.
    pub holds: bool,
    /// Worst violation magnitude reported by the checker.
    pub worst: f64,
}

impl NlResult {
    fn to_json(&self) -> String {
        format!(
            "{{\"claim\":\"{}\",\"holds\":{},\"worst_violation\":{:.6}}}",
            json_escape(&self.claim),
            self.holds,
            self.worst
        )
    }
}

/// One fault-injected operating region and the verdict on it.
#[derive(Clone, Debug)]
pub struct FaultRegion {
    /// Seed of the injected plan (for replay).
    pub seed: u64,
    /// Expected extra cycles per fault opportunity.
    pub intensity: f64,
    /// Whether the region is within the accelerator's declared
    /// contract (budgets apply, widened) or beyond it (predictions
    /// need only stay finite; the region is explicitly reported).
    pub in_contract: bool,
    /// Per-channel statistics under this plan (empty when out of
    /// contract — only finiteness is checked there).
    pub channels: Vec<ChannelReport>,
    /// Whether the region met its obligations.
    pub pass: bool,
}

impl FaultRegion {
    fn to_json(&self) -> String {
        let ch: Vec<String> = self.channels.iter().map(ChannelReport::to_json).collect();
        format!(
            "{{\"seed\":{},\"intensity\":{:.4},\"in_contract\":{},\"channels\":[{}],\"pass\":{}}}",
            self.seed,
            self.intensity,
            self.in_contract,
            ch.join(","),
            self.pass
        )
    }
}

/// Full conformance report for one accelerator.
#[derive(Debug)]
pub struct AccelReport {
    /// Accelerator name.
    pub name: &'static str,
    /// Cases generated (including adversarial ones).
    pub cases: usize,
    /// Adversarial cases among them.
    pub adversarial: usize,
    /// Cases the simulator itself rejected (skipped).
    pub rejected: usize,
    /// Nominal (fault-free) per-channel statistics.
    pub nominal: Vec<ChannelReport>,
    /// Natural-language claim verdicts.
    pub nl: Vec<NlResult>,
    /// Fault-injected operating regions.
    pub faults: Vec<FaultRegion>,
    /// Minimized counterexamples for budget violations.
    pub counterexamples: Vec<Counterexample>,
    /// Structured findings (errors mean the accelerator failed).
    pub diags: Diagnostics,
}

impl AccelReport {
    /// Whether every check passed for this accelerator.
    pub fn pass(&self) -> bool {
        !self.diags.has_errors()
    }

    fn to_json(&self) -> String {
        let nom: Vec<String> = self.nominal.iter().map(ChannelReport::to_json).collect();
        let nl: Vec<String> = self.nl.iter().map(NlResult::to_json).collect();
        let fr: Vec<String> = self.faults.iter().map(FaultRegion::to_json).collect();
        let cx: Vec<String> = self
            .counterexamples
            .iter()
            .map(Counterexample::to_json)
            .collect();
        format!(
            "{{\"accelerator\":\"{}\",\"cases\":{},\"adversarial\":{},\"rejected\":{},\
             \"pass\":{},\"nominal\":[{}],\"nl_claims\":[{}],\"fault_regions\":[{}],\
             \"counterexamples\":[{}],\"diagnostics\":{}}}",
            self.name,
            self.cases,
            self.adversarial,
            self.rejected,
            self.pass(),
            nom.join(","),
            nl.join(","),
            fr.join(","),
            cx.join(","),
            self.diags.render_json()
        )
    }
}

/// The combined report across all accelerators.
#[derive(Debug)]
pub struct ConformanceReport {
    /// Whether the run used reduced sample sizes.
    pub quick: bool,
    /// Per-accelerator reports.
    pub accels: Vec<AccelReport>,
}

impl ConformanceReport {
    /// Whether every accelerator passed every check.
    pub fn pass(&self) -> bool {
        self.accels.iter().all(AccelReport::pass)
    }

    /// Serializes the full report as JSON (`BENCH_conformance.json`).
    pub fn to_json(&self) -> String {
        let accels: Vec<String> = self.accels.iter().map(AccelReport::to_json).collect();
        format!(
            "{{\"quick\":{},\"pass\":{},\"accelerators\":[{}]}}\n",
            self.quick,
            self.pass(),
            accels.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_passes_and_serializes() {
        let r = ConformanceReport {
            quick: true,
            accels: vec![],
        };
        assert!(r.pass());
        let j = r.to_json();
        assert!(j.contains("\"pass\":true"));
    }

    #[test]
    fn json_escapes_labels_and_embeds_the_spec() {
        let cx = Counterexample {
            kind: "program",
            metric: "latency",
            label: "flat \"blocks\"".into(),
            desc: r#"{"kind":"flat","blocks":2.0}"#.into(),
            predicted: "12.0".into(),
            actual: 10.0,
            rel: 0.2,
            shrink_steps: 3,
        };
        let j = cx.to_json();
        assert!(j.contains("flat \\\"blocks\\\""));
        assert!(j.contains(r#""workload":{"kind":"flat","blocks":2.0},"#));
    }
}
