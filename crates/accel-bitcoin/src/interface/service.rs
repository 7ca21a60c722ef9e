//! Query-service adapter for the Bitcoin miner.
//!
//! Implements [`perf_core::query::QueryBackend`] for `perf-service`.
//! The single spec kind `scan` describes a mining job plus the `Loop`
//! hardware configuration; interface bundles are cached per `Loop`
//! value because the miner's interfaces are configuration-specific.

use crate::miner::{MineJob, MinerConfig, MinerCycleSim};
use perf_core::iface::{InterfaceBundle, InterfaceKind, Metric};
use perf_core::query::{QueryBackend, WorkloadSpec};
use perf_core::{Budget, CoreError, GroundTruth, Observation, Prediction};

/// The miner's query-service backend.
#[derive(Default)]
pub struct BitcoinService {
    /// Interface bundles keyed by the `Loop` parameter (at most the
    /// eight divisors of 128 ever materialize).
    bundles: Vec<(u64, InterfaceBundle<MineJob>)>,
}

impl BitcoinService {
    /// Builds an empty backend; bundles materialize per queried
    /// `Loop`.
    pub fn new() -> BitcoinService {
        BitcoinService::default()
    }

    /// Realizes a spec into its hardware config and mining job.
    pub fn realize(&self, spec: &WorkloadSpec) -> Result<(MinerConfig, MineJob), CoreError> {
        if spec.kind != "scan" {
            return Err(CoreError::Artifact(format!(
                "bitcoin-miner: unknown spec kind `{}`",
                spec.kind
            )));
        }
        let cfg = MinerConfig::with_loop(spec.get_uint("loop")?)?;
        let nonce_count = spec.get_uint_in("nonce_count", 1..=1 << 24)? as u32;
        let difficulty = spec.get_uint_in("difficulty", 0..=256)? as u32;
        let seed = spec.get_or("seed", 1.0) as u64;
        Ok((cfg, MineJob::random(seed, nonce_count, difficulty)))
    }

    fn bundle(&mut self, cfg: MinerConfig) -> &InterfaceBundle<MineJob> {
        if let Some(i) = self.bundles.iter().position(|(l, _)| *l == cfg.loop_) {
            return &self.bundles[i].1;
        }
        self.bundles
            .push((cfg.loop_, crate::interface::bundle(cfg)));
        &self.bundles.last().expect("just pushed").1
    }
}

/// The natural-language closed-form bound for a mining job.
///
/// The NL interface says: "one hash takes `Loop` cycles; a scan stops
/// at the first golden nonce and pays a fixed report overhead". That
/// prose pins the whole behavior envelope:
///
/// * latency — at best the first hash wins (plus the report), or a
///   short scan exhausts without finding anything; at worst the scan
///   exhausts and reports;
/// * throughput — a first-find scan amortizes the report over at least
///   one hash, so the rate sits between `1/(Loop+report)` and
///   `1/Loop`.
pub fn nl_bounds(cfg: MinerConfig, job: &MineJob, metric: Metric) -> Prediction {
    let l = cfg.loop_ as f64;
    let r = cfg.report_cycles as f64;
    let n = job.nonce_count as f64;
    match metric {
        Metric::Latency => Prediction::bounds((l + r).min(n * l), n * l + r),
        Metric::Throughput => Prediction::bounds(1.0 / (l + r), 1.0 / l),
    }
}

impl QueryBackend for BitcoinService {
    fn accel(&self) -> &'static str {
        "bitcoin-miner"
    }

    fn spec_kinds(&self) -> &'static [&'static str] {
        &["scan"]
    }

    fn predict(
        &mut self,
        spec: &WorkloadSpec,
        repr: InterfaceKind,
        metric: Metric,
    ) -> Result<Prediction, CoreError> {
        let (cfg, job) = self.realize(spec)?;
        match repr {
            InterfaceKind::NaturalLanguage => Ok(nl_bounds(cfg, &job, metric)),
            _ => self
                .bundle(cfg)
                .get(repr)
                .ok_or_else(|| CoreError::Artifact(format!("no {} interface", repr.name())))?
                .predict(&job, metric),
        }
    }

    fn budget(&self, repr: InterfaceKind, metric: Metric) -> Budget {
        crate::interface::budget(repr, metric)
    }

    fn measure(&mut self, spec: &WorkloadSpec) -> Result<Observation, CoreError> {
        let (cfg, job) = self.realize(spec)?;
        MinerCycleSim::new(cfg).measure(&job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<WorkloadSpec> {
        let mut v = Vec::new();
        for l in [1.0, 8.0, 64.0] {
            v.push(
                WorkloadSpec::new("scan")
                    .with("loop", l)
                    .with("seed", 2.0)
                    .with("nonce_count", 200.0)
                    .with("difficulty", 256.0),
            );
            v.push(
                WorkloadSpec::new("scan")
                    .with("loop", l)
                    .with("seed", 3.0)
                    .with("nonce_count", 5000.0)
                    .with("difficulty", 10.0),
            );
        }
        v.push(
            WorkloadSpec::new("scan")
                .with("loop", 8.0)
                .with("seed", 9.0)
                .with("nonce_count", 1.0)
                .with("difficulty", 256.0),
        );
        v
    }

    #[test]
    fn all_reprs_predict_and_nl_contains_sim() {
        let mut svc = BitcoinService::new();
        for spec in corpus() {
            let obs = svc.measure(&spec).unwrap();
            for metric in [Metric::Latency, Metric::Throughput] {
                for repr in [
                    InterfaceKind::NaturalLanguage,
                    InterfaceKind::Program,
                    InterfaceKind::PetriNet,
                ] {
                    let p = svc.predict(&spec, repr, metric).unwrap();
                    assert!(p.is_finite());
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
    fn out_of_range_fields_are_rejected() {
        let svc = BitcoinService::new();
        let scan = |nonces: f64, difficulty: f64| {
            WorkloadSpec::new("scan")
                .with("loop", 8.0)
                .with("nonce_count", nonces)
                .with("difficulty", difficulty)
        };
        for (spec, want) in [
            (
                scan(0.0, 256.0),
                "`nonce_count` = 0 is outside 1..=16777216",
            ),
            (
                scan(1e8, 256.0),
                "`nonce_count` = 100000000 is outside 1..=16777216",
            ),
            (scan(10.0, 257.0), "`difficulty` = 257 is outside 0..=256"),
        ] {
            let err = CoreError::Artifact(format!("spec `scan` field {want}"));
            assert_eq!(svc.realize(&spec).unwrap_err(), err);
        }
        assert!(svc.realize(&scan(16_777_216.0, 256.0)).is_ok());
    }

    #[test]
    fn invalid_loop_is_rejected() {
        let mut svc = BitcoinService::new();
        let spec = WorkloadSpec::new("scan")
            .with("loop", 3.0)
            .with("nonce_count", 10.0)
            .with("difficulty", 256.0);
        assert!(svc
            .predict(&spec, InterfaceKind::Program, Metric::Latency)
            .is_err());
    }
}
