//! [`QueryBackend`] adapter for composite pipelines.
//!
//! A [`PipelineBackend`] answers performance queries for a whole
//! accelerator chain under the accel name `pipe:<chain>` (e.g.
//! `pipe:jpeg-decoder:4>protoacc:8`), so the query service can serve
//! pipeline-level questions through the same representation ladder —
//! NL bounds, program recurrence, composite Petri net — it uses for
//! single accelerators.

use perf_core::budget::Budget;
use perf_core::iface::{InterfaceKind, Metric};
use perf_core::query::{QueryBackend, WorkloadSpec};
use perf_core::{CoreError, Observation, Prediction};

use crate::model::{Composite, StreamParams};
use crate::topology::Topology;

/// A composite pipeline behind the [`QueryBackend`] interface.
pub struct PipelineBackend {
    composite: Composite,
    /// `"pipe:<chain>"`. Leaked once per constructed topology — the
    /// trait requires `&'static str`, and a service worker builds each
    /// distinct topology at most once per thread.
    name: &'static str,
}

impl PipelineBackend {
    /// Wraps a topology.
    pub fn new(topo: Topology) -> Result<PipelineBackend, CoreError> {
        let composite = Composite::new(topo)?;
        let name = format!("pipe:{}", composite.topology().chain_label());
        Ok(PipelineBackend {
            composite,
            name: Box::leak(name.into_boxed_str()),
        })
    }

    /// Parses the one-line chain shorthand (the service's
    /// `pipe:<chain>` accel names route here).
    pub fn from_chain(chain: &str) -> Result<PipelineBackend, CoreError> {
        PipelineBackend::new(Topology::parse_chain(chain)?)
    }

    /// The underlying composite model (fault arming, differential
    /// checks).
    pub fn composite_mut(&mut self) -> &mut Composite {
        &mut self.composite
    }

    /// Read access to the underlying composite model.
    pub fn composite(&self) -> &Composite {
        &self.composite
    }
}

impl QueryBackend for PipelineBackend {
    fn accel(&self) -> &'static str {
        self.name
    }

    fn spec_kinds(&self) -> &'static [&'static str] {
        &["stream"]
    }

    fn predict(
        &mut self,
        spec: &WorkloadSpec,
        repr: InterfaceKind,
        metric: Metric,
    ) -> Result<Prediction, CoreError> {
        let stream = StreamParams::from_spec(spec)?;
        let (lo, hi) = match repr {
            InterfaceKind::NaturalLanguage => self.composite.nl_bounds(&stream)?,
            InterfaceKind::Program => {
                let m = self.composite.program_makespan(&stream)?;
                (m, m)
            }
            InterfaceKind::PetriNet => {
                let m = self.composite.petri_makespan(&stream)? as f64;
                (m, m)
            }
        };
        Ok(match metric {
            Metric::Latency => {
                if lo == hi {
                    Prediction::point(lo)
                } else {
                    Prediction::bounds(lo, hi)
                }
            }
            Metric::Throughput => {
                let n = stream.items as f64;
                if lo == hi {
                    Prediction::point(n / lo.max(1.0))
                } else {
                    // Reciprocation flips the endpoints.
                    Prediction::bounds(n / hi.max(1.0), n / lo.max(1.0))
                }
            }
        })
    }

    fn budget(&self, repr: InterfaceKind, _metric: Metric) -> Budget {
        // Composite budgets stack per-stage interface error on top of
        // composition error (event-driven net / analytic recurrence vs
        // the tick simulator's hand-off cycles), so each tier is wider
        // than its single-accelerator counterpart. The deadband covers
        // fill/drain hand-off cycles on short streams.
        match repr {
            InterfaceKind::PetriNet => Budget::new(0.08, 0.20).with_atol(64.0),
            InterfaceKind::Program => Budget::new(0.12, 0.40).with_atol(64.0),
            InterfaceKind::NaturalLanguage => Budget::new(0.40, 0.95).with_atol(128.0),
        }
    }

    fn measure(&mut self, spec: &WorkloadSpec) -> Result<Observation, CoreError> {
        let stream = StreamParams::from_spec(spec)?;
        self.composite.measure_stream(&stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_answers_every_channel() {
        let mut b = PipelineBackend::from_chain("vta:2>protoacc:4").unwrap();
        assert_eq!(b.accel(), "pipe:vta:2>protoacc:4");
        assert_eq!(b.spec_kinds(), &["stream"]);
        let spec = WorkloadSpec::new("stream")
            .with("items", 5.0)
            .with("seed", 2.0);
        let obs = b.measure(&spec).unwrap();
        let actual = Metric::Latency.of(&obs);
        assert!(actual > 0.0);
        for repr in [
            InterfaceKind::NaturalLanguage,
            InterfaceKind::Program,
            InterfaceKind::PetriNet,
        ] {
            for metric in [Metric::Latency, Metric::Throughput] {
                let p = b.predict(&spec, repr, metric).unwrap();
                assert!(p.is_finite(), "{repr:?}/{metric:?}: {p}");
            }
        }
        // NL latency bounds must contain the petri point estimate.
        let nl = b
            .predict(&spec, InterfaceKind::NaturalLanguage, Metric::Latency)
            .unwrap();
        let petri = b
            .predict(&spec, InterfaceKind::PetriNet, Metric::Latency)
            .unwrap();
        assert!(nl.contains(petri.midpoint()), "nl {nl} vs petri {petri}");
    }

    #[test]
    fn backend_accepts_dag_chain_specs() {
        let mut b =
            PipelineBackend::from_chain("vta:2>(protoacc:2|bitcoin-miner:2)>protoacc:3").unwrap();
        assert_eq!(
            b.accel(),
            "pipe:vta:2>(protoacc:2|bitcoin-miner:2)>protoacc:3",
            "layered DAGs keep a round-trippable service name"
        );
        let spec = WorkloadSpec::new("stream")
            .with("items", 5.0)
            .with("seed", 2.0);
        let actual = Metric::Latency.of(&b.measure(&spec).unwrap());
        assert!(actual > 0.0);
        for repr in [
            InterfaceKind::NaturalLanguage,
            InterfaceKind::Program,
            InterfaceKind::PetriNet,
        ] {
            let p = b.predict(&spec, repr, Metric::Latency).unwrap();
            assert!(p.is_finite(), "{repr:?}: {p}");
        }
        let nl = b
            .predict(&spec, InterfaceKind::NaturalLanguage, Metric::Latency)
            .unwrap();
        let petri = b
            .predict(&spec, InterfaceKind::PetriNet, Metric::Latency)
            .unwrap();
        assert!(nl.contains(petri.midpoint()), "nl {nl} vs petri {petri}");
    }

    #[test]
    fn fractional_negative_or_non_finite_stream_fields_are_rejected() {
        // `items: 2.9, seed: 3.7` used to be answered as `items: 2,
        // seed: 3`, and `seed: -5` as `seed: 0`.
        let mut b = PipelineBackend::from_chain("vta:2>protoacc:4").unwrap();
        for (field, value) in [
            ("items", 2.9),
            ("seed", 3.7),
            ("seed", -5.0),
            ("seed", f64::NAN),
            ("items", f64::INFINITY),
        ] {
            let spec = WorkloadSpec::new("stream")
                .with("items", 2.0)
                .with("seed", 3.0)
                .with(field, value);
            let err = b
                .predict(&spec, InterfaceKind::Program, Metric::Latency)
                .unwrap_err()
                .to_string();
            assert!(
                err.contains(&format!("`{field}`")) && err.contains(&value.to_string()),
                "{field} = {value}: {err}"
            );
        }
    }

    /// Every answer of a long-lived backend, whose stage-cost memo has
    /// seen overlapping streams (seed 8 shifts seed 1 by one item;
    /// seeds 1024 apart ask identical workloads), must equal a fresh
    /// backend's answer to the same single query, bit for bit.
    #[test]
    fn long_lived_backend_matches_a_fresh_one_per_query() {
        use perf_sim::FaultPlan;
        fn bits(p: Prediction) -> (u64, u64) {
            match p {
                Prediction::Point(v) => (v.to_bits(), v.to_bits()),
                Prediction::Bounds { min, max } => (min.to_bits(), max.to_bits()),
            }
        }
        let fault = FaultPlan::backpressure(3, 900, 500);
        for chain in [
            "vta:2>protoacc:4",
            "vta:2>(protoacc:2|bitcoin-miner:2)>protoacc:3",
        ] {
            let mut long = PipelineBackend::from_chain(chain).unwrap();
            let last = long.composite().stages() - 1;
            for (items, seed) in [
                (5.0, 1.0),
                (5.0, 8.0),
                (5.0, 1025.0),
                (1.0, 3.0),
                (2.0, 2051.0),
                (64.0, 2.0),
                (64.0, 1026.0),
            ] {
                let spec = WorkloadSpec::new("stream")
                    .with("items", items)
                    .with("seed", seed);
                let fresh = || PipelineBackend::from_chain(chain).unwrap();
                for repr in [
                    InterfaceKind::NaturalLanguage,
                    InterfaceKind::Program,
                    InterfaceKind::PetriNet,
                ] {
                    for metric in [Metric::Latency, Metric::Throughput] {
                        let got = long.predict(&spec, repr, metric).unwrap();
                        let want = fresh().predict(&spec, repr, metric).unwrap();
                        assert_eq!(
                            bits(got),
                            bits(want),
                            "{chain} {items}×{seed} {repr:?}/{metric:?}"
                        );
                    }
                }
                // The debug-build simulator takes seconds per
                // 64-item stream; short streams cover the
                // measured channel.
                if items > 8.0 {
                    continue;
                }
                for plan in [None, Some(fault)] {
                    long.composite_mut().set_fault(last, plan);
                    let mut f = fresh();
                    f.composite_mut().set_fault(last, plan);
                    assert_eq!(
                        long.measure(&spec).unwrap(),
                        f.measure(&spec).unwrap(),
                        "{chain} {items}×{seed} fault {plan:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn non_stream_specs_are_rejected() {
        let mut b = PipelineBackend::from_chain("vta:2").unwrap();
        assert!(b.measure(&WorkloadSpec::new("random")).is_err());
        assert!(b
            .predict(
                &WorkloadSpec::new("stream").with("items", 0.0),
                InterfaceKind::Program,
                Metric::Latency
            )
            .is_err());
    }
}
