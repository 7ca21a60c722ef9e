//! Conformance subject for the JPEG decoder.

use accel_jpeg::cycle::JpegCycleSim;
use accel_jpeg::huffman::BlockCost;
use accel_jpeg::hw::JpegHwConfig;
use accel_jpeg::interface;
use accel_jpeg::workload::{ColorMode, Image, ImageGen};
use perf_core::iface::{InterfaceBundle, InterfaceKind, Metric};
use perf_core::validate::collect_axis_samples;
use perf_core::{CoreError, GroundTruth, Observation, Prediction};
use perf_sim::FaultPlan;

use crate::budget::{Budget, Contract};
use crate::harness::{CaseSpec, Subject};
use crate::report::NlResult;

/// Generator-level description of one JPEG workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JpegSpec {
    /// Fully randomized image from the default generator.
    Random { seed: u64 },
    /// Sized grayscale image (dims in pixels, multiples of 8).
    Sized {
        seed: u64,
        width: u32,
        height: u32,
        quality: u8,
    },
    /// Sized 4:2:0 color image (dims multiples of 16).
    Color {
        seed: u64,
        width: u32,
        height: u32,
        quality: u8,
    },
    /// Hand-built image of identical blocks — lets the harness hit
    /// pathological Huffman tables (huge `bits`) and degenerate
    /// all-zero blocks the random generator never produces.
    Flat { blocks: u32, bits: u32, nonzero: u8 },
}

/// JPEG decoder subject: cycle-accurate pipeline sim vs the NL,
/// program and Petri-net interfaces.
pub struct JpegSubject {
    bundle: InterfaceBundle<Image>,
    fault: Option<FaultPlan>,
}

impl JpegSubject {
    /// Creates the subject with the shipped interface bundle.
    pub fn new() -> JpegSubject {
        JpegSubject {
            bundle: interface::bundle(),
            fault: None,
        }
    }
}

impl Default for JpegSubject {
    fn default() -> Self {
        JpegSubject::new()
    }
}

impl Subject for JpegSubject {
    type Spec = JpegSpec;
    type Workload = Image;

    fn name(&self) -> &'static str {
        "jpeg-decoder"
    }

    fn specs(&mut self, quick: bool) -> Vec<CaseSpec<JpegSpec>> {
        let mut v = Vec::new();
        let n_random = if quick { 5 } else { 18 };
        for seed in 0..n_random {
            v.push(CaseSpec::random(
                format!("random-{seed}"),
                JpegSpec::Random { seed },
            ));
        }
        let sized: &[(u32, u32, u8)] = if quick {
            &[(64, 64, 30), (128, 128, 60)]
        } else {
            &[(64, 64, 30), (128, 128, 60), (256, 256, 85), (384, 128, 50)]
        };
        for &(w, h, q) in sized {
            v.push(CaseSpec::random(
                format!("sized-{w}x{h}-q{q}"),
                JpegSpec::Sized {
                    seed: 101,
                    width: w,
                    height: h,
                    quality: q,
                },
            ));
        }
        v.push(CaseSpec::random(
            "color-128x64",
            JpegSpec::Color {
                seed: 44,
                width: 128,
                height: 64,
                quality: 70,
            },
        ));
        // Adversarial edge cases: singleton, extreme-quality,
        // pathological Huffman, IDCT-floor and page-crossing images.
        v.push(CaseSpec::adversarial(
            "single-block",
            JpegSpec::Sized {
                seed: 7,
                width: 8,
                height: 8,
                quality: 50,
            },
        ));
        v.push(CaseSpec::adversarial(
            "single-block-q95",
            JpegSpec::Sized {
                seed: 7,
                width: 8,
                height: 8,
                quality: 95,
            },
        ));
        v.push(CaseSpec::adversarial(
            "tiny-color",
            JpegSpec::Color {
                seed: 9,
                width: 16,
                height: 16,
                quality: 40,
            },
        ));
        v.push(CaseSpec::adversarial(
            "flat-minimal",
            JpegSpec::Flat {
                blocks: 1,
                bits: 0,
                nonzero: 0,
            },
        ));
        v.push(CaseSpec::adversarial(
            "huffman-bomb",
            JpegSpec::Flat {
                blocks: 1,
                bits: 4000,
                nonzero: 63,
            },
        ));
        v.push(CaseSpec::adversarial(
            "huffman-bomb-pages",
            JpegSpec::Flat {
                blocks: 129,
                bits: 3000,
                nonzero: 63,
            },
        ));
        v.push(CaseSpec::adversarial(
            "idct-floor-pages",
            JpegSpec::Flat {
                blocks: 128,
                bits: 0,
                nonzero: 0,
            },
        ));
        v.push(CaseSpec::adversarial(
            "dequant-heavy",
            JpegSpec::Flat {
                blocks: 16,
                bits: 40,
                nonzero: 63,
            },
        ));
        if !quick {
            v.push(CaseSpec::adversarial(
                "max-size",
                JpegSpec::Sized {
                    seed: 70,
                    width: 512,
                    height: 512,
                    quality: 60,
                },
            ));
        }
        v
    }

    fn realize(&mut self, spec: &JpegSpec) -> Image {
        match *spec {
            JpegSpec::Random { seed } => ImageGen::new(seed).gen_image(),
            JpegSpec::Sized {
                seed,
                width,
                height,
                quality,
            } => ImageGen::new(seed).gen_sized(width, height, quality),
            JpegSpec::Color {
                seed,
                width,
                height,
                quality,
            } => ImageGen::new(seed).gen_color(width, height, quality),
            JpegSpec::Flat {
                blocks,
                bits,
                nonzero,
            } => Image {
                width: 8 * blocks,
                height: 8,
                quality: 50,
                color: ColorMode::Grayscale,
                blocks: vec![BlockCost { bits, nonzero }; blocks as usize],
            },
        }
    }

    fn describe(&self, spec: &JpegSpec) -> String {
        match *spec {
            JpegSpec::Random { seed } => format!("random image (seed {seed})"),
            JpegSpec::Sized {
                width,
                height,
                quality,
                ..
            } => format!("{width}x{height} grayscale, quality {quality}"),
            JpegSpec::Color {
                width,
                height,
                quality,
                ..
            } => format!("{width}x{height} 4:2:0 color, quality {quality}"),
            JpegSpec::Flat {
                blocks,
                bits,
                nonzero,
            } => format!("{blocks} identical blocks ({bits} bits, {nonzero} nonzero each)"),
        }
    }

    fn shrink(&mut self, spec: &JpegSpec) -> Vec<JpegSpec> {
        let half_dim = |d: u32| ((d / 2 + 7) & !7).max(8);
        let mut out = Vec::new();
        match *spec {
            JpegSpec::Random { seed } => {
                for (w, h) in [(64, 64), (16, 16), (8, 8)] {
                    out.push(JpegSpec::Sized {
                        seed,
                        width: w,
                        height: h,
                        quality: 60,
                    });
                }
            }
            JpegSpec::Sized {
                seed,
                width,
                height,
                quality,
            } => {
                if width > 8 {
                    out.push(JpegSpec::Sized {
                        seed,
                        width: half_dim(width),
                        height,
                        quality,
                    });
                }
                if height > 8 {
                    out.push(JpegSpec::Sized {
                        seed,
                        width,
                        height: half_dim(height),
                        quality,
                    });
                }
            }
            JpegSpec::Color {
                seed,
                width,
                height,
                quality,
            } => {
                // Drop color first, then let the Sized rules shrink.
                out.push(JpegSpec::Sized {
                    seed,
                    width,
                    height,
                    quality,
                });
            }
            JpegSpec::Flat {
                blocks,
                bits,
                nonzero,
            } => {
                if blocks > 1 {
                    out.push(JpegSpec::Flat {
                        blocks: blocks / 2,
                        bits,
                        nonzero,
                    });
                }
                if bits > 0 {
                    out.push(JpegSpec::Flat {
                        blocks,
                        bits: bits / 2,
                        nonzero,
                    });
                }
                if nonzero > 0 {
                    out.push(JpegSpec::Flat {
                        blocks,
                        bits,
                        nonzero: nonzero / 2,
                    });
                }
            }
        }
        out.retain(|c| c != spec);
        out
    }

    fn measure(&mut self, w: &Image) -> Result<Observation, CoreError> {
        let mut sim = JpegCycleSim::new(JpegHwConfig::default());
        sim.set_fault(self.fault);
        sim.measure(w)
    }

    fn predict(
        &mut self,
        kind: InterfaceKind,
        w: &Image,
        metric: Metric,
    ) -> Result<Prediction, CoreError> {
        self.bundle
            .get(kind)
            .ok_or_else(|| CoreError::Artifact(format!("no {} interface", kind.name())))?
            .predict(w, metric)
    }

    fn budget(&self, kind: InterfaceKind, metric: Metric) -> Budget {
        interface::budget(kind, metric)
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
        let nl = &self.bundle.natural_language;
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
