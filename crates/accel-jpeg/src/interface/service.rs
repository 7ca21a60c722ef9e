//! Query-service adapter for the JPEG decoder.
//!
//! Implements [`perf_core::query::QueryBackend`] so the `perf-service`
//! server can answer latency/throughput queries for decoder workloads
//! from any of the three interface representations. The conformance
//! harness checks this same backend on the same specs, so service
//! answers are accountable to the budgets `BENCH_conformance.json`
//! reports.

use crate::cycle::JpegCycleSim;
use crate::huffman::BlockCost;
use crate::hw::JpegHwConfig;
use crate::interface::{petri, program};
use crate::workload::{ColorMode, Image, ImageGen};
use perf_core::iface::{InterfaceKind, Metric};
use perf_core::query::{Fnv1a, QueryBackend, WorkloadSpec};
use perf_core::{Budget, CoreError, GroundTruth, Observation, Prediction};

/// The decoder's query-service backend.
///
/// Holds the parsed program and Petri-net interfaces (built once, at
/// worker startup); the Petri interface's net keys deep fingerprints.
pub struct JpegService {
    program: program::JpegProgramInterface,
    petri: petri::JpegPetriInterface,
}

impl JpegService {
    /// Builds the backend from the shipped interface artifacts.
    pub fn new() -> Result<JpegService, CoreError> {
        Ok(JpegService {
            program: program::JpegProgramInterface::new()?,
            petri: petri::JpegPetriInterface::new()?,
        })
    }

    /// Realizes a spec into a concrete image (the conformance subject
    /// measures what this returns).
    pub fn realize(&self, spec: &WorkloadSpec) -> Result<Image, CoreError> {
        let seed = spec.get_or("seed", 1.0) as u64;
        match spec.kind.as_str() {
            "random" => Ok(ImageGen::new(seed).gen_image()),
            "sized" | "color" => {
                let q = spec.get_uint_in("quality", 1..=100)? as u8;
                let align = if spec.kind == "color" { 16 } else { 8 };
                let dim = |name: &str| -> Result<u32, CoreError> {
                    let v = spec.get_uint_in(name, align..=4096)? as u32;
                    Ok(v.div_ceil(align as u32) * align as u32)
                };
                let (w, h) = (dim("width")?, dim("height")?);
                let mut g = ImageGen::new(seed);
                Ok(if spec.kind == "color" {
                    g.gen_color(w, h, q)
                } else {
                    g.gen_sized(w, h, q)
                })
            }
            "flat" => {
                let blocks = spec.get_uint_in("blocks", 1..=1 << 20)? as u32;
                let bits = spec.get_uint_in("bits", 0..=1 << 20)? as u32;
                let nonzero = spec.get_uint_in("nonzero", 0..=63)? as u8;
                Ok(Image {
                    width: 8 * blocks,
                    height: 8,
                    quality: 50,
                    color: ColorMode::Grayscale,
                    blocks: vec![BlockCost { bits, nonzero }; blocks as usize],
                })
            }
            other => Err(CoreError::Artifact(format!(
                "jpeg-decoder: unknown spec kind `{other}`"
            ))),
        }
    }
}

/// The natural-language closed-form bound for an image.
///
/// The NL interface says: "decode latency is a fixed header parse plus
/// per-block pipeline work; the bottleneck stage is between the IDCT
/// floor and the serial sum of all stage work." This function turns
/// that prose into an interval:
///
/// * lower bound — header plus the busiest single stage's total work
///   (a pipeline cannot finish before its bottleneck stage does);
/// * upper bound — header plus the *serial* sum of every stage's work
///   on every block, plus per-block handoff slack (a blocking pipeline
///   never idles on all stages at once).
///
/// Sound but wide: the ratio between the two is roughly the pipeline
/// depth, which is exactly the precision the NL representation gives
/// up relative to the program and the net.
pub fn nl_bounds(img: &Image, metric: Metric) -> Prediction {
    let hw = JpegHwConfig::default();
    let header = hw.header_cycles(crate::workload::HEADER_BYTES);
    let b = img.blocks.len() as u64;
    let (mut huff, mut dq, mut write) = (0u64, 0u64, 0u64);
    for (idx, blk) in img.blocks.iter().enumerate() {
        huff += hw.huff_delay(blk.bits as u64);
        dq += hw.dequant_delay(blk.nonzero as u64);
        write += hw.write_delay(idx as u64);
    }
    let idct = b * hw.idct_cycles;
    let lo = header + huff.max(dq).max(idct).max(write);
    // Handoff slack: one cycle per block per FIFO boundary, plus a
    // fill/drain constant.
    let hi = header + huff + dq + idct + write + 4 * b + 64;
    let (lo, hi) = (lo as f64, hi as f64);
    match metric {
        Metric::Latency => Prediction::bounds(lo, hi),
        // One image at a time: throughput is the reciprocal.
        Metric::Throughput => Prediction::bounds(1.0 / hi, 1.0 / lo),
    }
}

impl QueryBackend for JpegService {
    fn accel(&self) -> &'static str {
        "jpeg-decoder"
    }

    fn spec_kinds(&self) -> &'static [&'static str] {
        &["random", "sized", "color", "flat"]
    }

    fn predict(
        &mut self,
        spec: &WorkloadSpec,
        repr: InterfaceKind,
        metric: Metric,
    ) -> Result<Prediction, CoreError> {
        let img = self.realize(spec)?;
        match repr {
            InterfaceKind::NaturalLanguage => Ok(nl_bounds(&img, metric)),
            InterfaceKind::Program => {
                perf_core::iface::PerfInterface::predict(&self.program, &img, metric)
            }
            InterfaceKind::PetriNet => {
                perf_core::iface::PerfInterface::predict(&self.petri, &img, metric)
            }
        }
    }

    fn budget(&self, repr: InterfaceKind, metric: Metric) -> Budget {
        crate::interface::budget(repr, metric)
    }

    fn fingerprint(&mut self, spec: &WorkloadSpec, repr: InterfaceKind) -> u64 {
        if repr != InterfaceKind::PetriNet {
            let mut h = Fnv1a::new();
            h.write(self.accel().as_bytes());
            h.write(&[repr as u8]);
            h.write_u64(spec.fingerprint());
            return h.finish();
        }
        // Petri tier: hash the net structure plus the injected block
        // stream, so structurally identical workloads share a cache
        // slot regardless of which spec generated them.
        let mut h = Fnv1a::new();
        h.write(self.accel().as_bytes());
        h.write(&[repr as u8]);
        h.write_u64(self.petri.net().fingerprint());
        if let Ok(img) = self.realize(spec) {
            for blk in &img.blocks {
                h.write_u64(blk.bits as u64);
                h.write(&[blk.nonzero]);
            }
        } else {
            h.write_u64(spec.fingerprint());
        }
        h.finish()
    }

    fn measure(&mut self, spec: &WorkloadSpec) -> Result<Observation, CoreError> {
        let img = self.realize(spec)?;
        JpegCycleSim::new(JpegHwConfig::default()).measure(&img)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<WorkloadSpec> {
        let mut v = vec![
            WorkloadSpec::new("random").with("seed", 3.0),
            WorkloadSpec::new("sized")
                .with("seed", 101.0)
                .with("width", 128.0)
                .with("height", 64.0)
                .with("quality", 60.0),
            WorkloadSpec::new("color")
                .with("seed", 44.0)
                .with("width", 128.0)
                .with("height", 64.0)
                .with("quality", 70.0),
            WorkloadSpec::new("flat")
                .with("blocks", 1.0)
                .with("bits", 4000.0)
                .with("nonzero", 63.0),
            WorkloadSpec::new("flat")
                .with("blocks", 128.0)
                .with("bits", 0.0)
                .with("nonzero", 0.0),
        ];
        for seed in 0..6 {
            v.push(WorkloadSpec::new("random").with("seed", seed as f64));
        }
        v
    }

    #[test]
    fn all_kinds_realize_and_predict() {
        let mut svc = JpegService::new().unwrap();
        for spec in corpus() {
            for repr in [
                InterfaceKind::NaturalLanguage,
                InterfaceKind::Program,
                InterfaceKind::PetriNet,
            ] {
                for metric in [Metric::Latency, Metric::Throughput] {
                    let p = svc.predict(&spec, repr, metric).unwrap();
                    assert!(p.is_finite(), "{spec:?} {repr:?} {metric:?}");
                }
            }
        }
    }

    #[test]
    fn nl_bounds_contain_the_simulator() {
        let mut svc = JpegService::new().unwrap();
        for spec in corpus() {
            let obs = svc.measure(&spec).unwrap();
            for metric in [Metric::Latency, Metric::Throughput] {
                let p = svc
                    .predict(&spec, InterfaceKind::NaturalLanguage, metric)
                    .unwrap();
                assert!(
                    p.contains(metric.of(&obs)),
                    "{spec:?} {metric:?}: {p:?} vs {}",
                    metric.of(&obs)
                );
            }
        }
    }

    /// Out-of-range fields are rejected with the field, the value and
    /// the range, instead of being clamped into the domain.
    #[test]
    fn out_of_range_fields_are_rejected() {
        let svc = JpegService::new().unwrap();
        let flat = |bits: f64, nonzero: f64| {
            WorkloadSpec::new("flat")
                .with("blocks", 2.0)
                .with("bits", bits)
                .with("nonzero", nonzero)
        };
        let image = |kind: &str, width: f64, quality: f64| {
            WorkloadSpec::new(kind)
                .with("width", width)
                .with("height", 64.0)
                .with("quality", quality)
        };
        for (spec, want) in [
            (
                flat(100.0, 99.0),
                "`flat` field `nonzero` = 99 is outside 0..=63",
            ),
            (
                flat(1e9, 8.0),
                "`flat` field `bits` = 1000000000 is outside 0..=1048576",
            ),
            (
                image("sized", 100_000.0, 50.0),
                "`sized` field `width` = 100000 is outside 8..=4096",
            ),
            (
                image("sized", 64.0, 1000.0),
                "`sized` field `quality` = 1000 is outside 1..=100",
            ),
            (
                image("color", 8.0, 50.0),
                "`color` field `width` = 8 is outside 16..=4096",
            ),
        ] {
            let err = CoreError::Artifact(format!("spec {want}"));
            assert_eq!(svc.realize(&spec).unwrap_err(), err);
        }
        assert!(svc.realize(&flat(1048576.0, 63.0)).is_ok());
        assert_eq!(
            svc.realize(&image("sized", 4095.0, 1.0)).unwrap().width,
            4096
        );
    }

    #[test]
    fn petri_fingerprint_canonicalizes_identical_block_streams() {
        let mut svc = JpegService::new().unwrap();
        let a = WorkloadSpec::new("flat")
            .with("blocks", 4.0)
            .with("bits", 100.0)
            .with("nonzero", 10.0);
        // Same spec content, different field order: same key.
        let b = WorkloadSpec::new("flat")
            .with("nonzero", 10.0)
            .with("bits", 100.0)
            .with("blocks", 4.0);
        assert_eq!(
            svc.fingerprint(&a, InterfaceKind::PetriNet),
            svc.fingerprint(&b, InterfaceKind::PetriNet)
        );
        // Different tiers never share a slot.
        assert_ne!(
            svc.fingerprint(&a, InterfaceKind::PetriNet),
            svc.fingerprint(&a, InterfaceKind::Program)
        );
    }

    #[test]
    fn predict_after_fingerprinting_another_spec_answers_its_own_spec() {
        let sized = |width: f64| {
            WorkloadSpec::new("sized")
                .with("seed", 7.0)
                .with("width", width)
                .with("height", 64.0)
                .with("quality", 50.0)
        };
        let (a, b) = (sized(64.0), sized(128.0));
        for repr in [InterfaceKind::PetriNet, InterfaceKind::Program] {
            let fresh = JpegService::new()
                .unwrap()
                .predict(&b, repr, Metric::Latency)
                .unwrap();
            let mut svc = JpegService::new().unwrap();
            svc.fingerprint(&a, InterfaceKind::PetriNet);
            assert_eq!(svc.predict(&b, repr, Metric::Latency).unwrap(), fresh);
            svc.fingerprint(&b, InterfaceKind::PetriNet);
            assert_eq!(svc.predict(&b, repr, Metric::Latency).unwrap(), fresh);
            assert_ne!(svc.predict(&a, repr, Metric::Latency).unwrap(), fresh);
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut svc = JpegService::new().unwrap();
        assert!(svc
            .predict(
                &WorkloadSpec::new("bogus"),
                InterfaceKind::Program,
                Metric::Latency
            )
            .is_err());
    }
}
