//! Conformance subject for the JPEG decoder.

use accel_jpeg::cycle::JpegCycleSim;
use accel_jpeg::hw::JpegHwConfig;
use accel_jpeg::interface::nl;
use accel_jpeg::interface::service::JpegService;
use accel_jpeg::workload::ImageGen;
use perf_core::iface::Metric;
use perf_core::query::{QueryBackend, WorkloadSpec};
use perf_core::validate::collect_axis_samples;
use perf_core::{Contract, CoreError, GroundTruth, Observation};
use perf_sim::FaultPlan;

use crate::harness::{CaseSpec, Subject};
use crate::report::NlResult;

/// A grayscale (`sized`) or 4:2:0 (`color`) image spec.
fn image(kind: &str, seed: u64, width: u64, height: u64, quality: u64) -> WorkloadSpec {
    WorkloadSpec::new(kind)
        .with("seed", seed as f64)
        .with("width", width as f64)
        .with("height", height as f64)
        .with("quality", quality as f64)
}

/// An image of `blocks` identical blocks — lets the harness hit
/// pathological Huffman tables (huge `bits`) and degenerate all-zero
/// blocks the random generator never produces.
fn flat(blocks: u64, bits: u64, nonzero: u64) -> WorkloadSpec {
    WorkloadSpec::new("flat")
        .with("blocks", blocks as f64)
        .with("bits", bits as f64)
        .with("nonzero", nonzero as f64)
}

/// JPEG decoder subject: cycle-accurate pipeline sim vs the NL,
/// program and Petri-net interfaces.
pub struct JpegSubject {
    service: JpegService,
    fault: Option<FaultPlan>,
}

impl JpegSubject {
    /// Creates the subject with the shipped query backend.
    pub fn new() -> JpegSubject {
        JpegSubject {
            service: JpegService::new().expect("shipped interfaces parse"),
            fault: None,
        }
    }
}

impl Subject for JpegSubject {
    fn backend(&mut self) -> &mut dyn QueryBackend {
        &mut self.service
    }

    fn specs(&self, quick: bool) -> Vec<CaseSpec> {
        let mut v = Vec::new();
        let n_random = if quick { 5 } else { 18 };
        for seed in 0..n_random {
            let spec = WorkloadSpec::new("random").with("seed", seed as f64);
            v.push(CaseSpec::random(format!("random-{seed}"), spec));
        }
        let sized: &[(u64, u64, u64)] = if quick {
            &[(64, 64, 30), (128, 128, 60)]
        } else {
            &[(64, 64, 30), (128, 128, 60), (256, 256, 85), (384, 128, 50)]
        };
        for &(w, h, q) in sized {
            v.push(CaseSpec::random(
                format!("sized-{w}x{h}-q{q}"),
                image("sized", 101, w, h, q),
            ));
        }
        v.push(CaseSpec::random(
            "color-128x64",
            image("color", 44, 128, 64, 70),
        ));
        // Adversarial edge cases: singleton, extreme-quality,
        // pathological Huffman, IDCT-floor and page-crossing images.
        for (label, spec) in [
            ("single-block", image("sized", 7, 8, 8, 50)),
            ("single-block-q95", image("sized", 7, 8, 8, 95)),
            ("tiny-color", image("color", 9, 16, 16, 40)),
            ("flat-minimal", flat(1, 0, 0)),
            ("huffman-bomb", flat(1, 4000, 63)),
            ("huffman-bomb-pages", flat(129, 3000, 63)),
            ("idct-floor-pages", flat(128, 0, 0)),
            ("dequant-heavy", flat(16, 40, 63)),
        ] {
            v.push(CaseSpec::adversarial(label, spec));
        }
        if !quick {
            v.push(CaseSpec::adversarial(
                "max-size",
                image("sized", 70, 512, 512, 60),
            ));
        }
        v
    }

    fn shrink(&self, spec: &WorkloadSpec) -> Vec<WorkloadSpec> {
        let n = |k: &str| spec.get_uint(k).unwrap_or(0);
        let half_dim = |d: u64| ((d / 2 + 7) & !7).max(8);
        let mut out = Vec::new();
        match spec.kind.as_str() {
            "random" => {
                for d in [64, 16, 8] {
                    out.push(image("sized", n("seed"), d, d, 60));
                }
            }
            "sized" => {
                for dim in ["width", "height"] {
                    if n(dim) > 8 {
                        out.push(spec.clone().with(dim, half_dim(n(dim)) as f64));
                    }
                }
            }
            // Drop color first, then let the `sized` rules shrink.
            "color" => out.push(WorkloadSpec {
                kind: "sized".into(),
                fields: spec.fields.clone(),
            }),
            "flat" => {
                if n("blocks") > 1 {
                    out.push(spec.clone().with("blocks", (n("blocks") / 2) as f64));
                }
                for field in ["bits", "nonzero"] {
                    if n(field) > 0 {
                        out.push(spec.clone().with(field, (n(field) / 2) as f64));
                    }
                }
            }
            _ => {}
        }
        out
    }

    fn measure(&mut self, spec: &WorkloadSpec) -> Result<Observation, CoreError> {
        let img = self.service.realize(spec)?;
        let mut sim = JpegCycleSim::new(JpegHwConfig::default());
        sim.set_fault(self.fault);
        sim.measure(&img)
    }

    fn contract(&self) -> Contract {
        Contract::new(0.5, 0.3)
    }

    fn fault_plans(&self, quick: bool) -> Vec<FaultPlan> {
        let mut v = vec![FaultPlan::stage_stalls(11, 20, 2)];
        if !quick {
            v.push(FaultPlan {
                seed: 12,
                stage_stall_pm: 10,
                stage_stall_max: 2,
                backpressure_pm: 5,
                backpressure_len: 4,
                ..FaultPlan::default()
            });
        }
        v.push(FaultPlan {
            seed: 13,
            stage_stall_pm: 400,
            stage_stall_max: 12,
            backpressure_pm: 100,
            backpressure_len: 16,
            ..FaultPlan::default()
        });
        v
    }

    fn set_fault(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    fn check_nl(&mut self) -> Vec<NlResult> {
        let mut sim = JpegCycleSim::new(JpegHwConfig::default());
        let nl = nl::interface();
        let mut out = Vec::new();

        let mut g = ImageGen::new(77);
        let rate_sweep = g.gen_quality_sweep(128, 128, &[20, 35, 50, 65, 80, 92]);
        if let Ok(samples) = collect_axis_samples(&mut sim, Metric::Latency, &rate_sweep, |i| {
            i.compress_rate()
        }) {
            if let Ok(v) = nl.claims[0].check(&samples) {
                out.push(NlResult {
                    claim: "latency decreasing in compress_rate".into(),
                    holds: v.holds,
                    worst: v.worst_violation,
                });
            }
        }

        let mut g = ImageGen::new(78);
        let size_sweep: Vec<_> = [64u32, 128, 192, 256, 384]
            .iter()
            .map(|&d| g.gen_sized(d, d, 60))
            .collect();
        if let Ok(samples) = collect_axis_samples(&mut sim, Metric::Latency, &size_sweep, |i| {
            i.orig_size() as f64
        }) {
            if let Ok(v) = nl.claims[1].check(&samples) {
                out.push(NlResult {
                    claim: "latency proportional to orig_size".into(),
                    holds: v.holds,
                    worst: v.worst_violation,
                });
            }
        }

        let tput_rate: Vec<(f64, f64)> = rate_sweep
            .iter()
            .filter_map(|i| {
                sim.measure(i)
                    .ok()
                    .map(|obs| (i.compress_rate(), Metric::Throughput.of(&obs)))
            })
            .collect();
        if let Ok(v) = nl.claims[2].check(&tput_rate) {
            out.push(NlResult {
                claim: "throughput increasing in compress_rate".into(),
                holds: v.holds,
                worst: v.worst_violation,
            });
        }
        out
    }
}
