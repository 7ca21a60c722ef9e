//! Petri-net performance IR for the JPEG decoder (paper Table 1).
//!
//! The net ships as text (`assets/jpeg.pnet`). Evaluating it means
//! injecting one token per 8×8 block — carrying the block's actual
//! coded-bit and nonzero counts — and running the compiled stepper.
//! This is far cheaper than the tick-accurate simulator because nothing
//! happens between events.

use crate::hw::JpegHwConfig;
use crate::workload::{Image, HEADER_BYTES};
use perf_core::iface::{InterfaceKind, Metric, PerfInterface};
use perf_core::{CoreError, Prediction};
use perf_petri::net::Net;
use perf_petri::text;
use perf_petri::token::RecordShape;
use perf_petri::{NetExec, Options, PlaceId};

/// The shipped Petri-net source.
pub const JPEG_PNET_SRC: &str = include_str!("../../assets/jpeg.pnet");

/// Petri-net interface for the JPEG decoder.
pub struct JpegPetriInterface {
    exec: NetExec,
    /// The block injection place.
    blocks_in: PlaceId,
    /// Block token fields `bits`, `nz`, `pg`.
    block: RecordShape,
    header_cycles: u64,
}

impl JpegPetriInterface {
    /// Parses the shipped net; evaluations run the compiled stepper.
    pub fn new() -> Result<JpegPetriInterface, CoreError> {
        let mut exec = NetExec::new(text::parse(JPEG_PNET_SRC)?);
        let blocks_in = exec
            .net()
            .place_id("blocks_in")
            .ok_or_else(|| CoreError::Artifact("net lacks blocks_in".into()))?;
        let block = exec.record_shape(&["bits", "nz", "pg"]);
        Ok(JpegPetriInterface {
            exec,
            blocks_in,
            block,
            header_cycles: JpegHwConfig::default().header_cycles(HEADER_BYTES),
        })
    }

    /// The `.pnet` source (for display and the Table 1 complexity
    /// ratio).
    pub fn source(&self) -> &'static str {
        JPEG_PNET_SRC
    }

    /// The parsed net (for DOT export or structural analysis).
    pub fn net(&self) -> &Net {
        self.exec.net()
    }

    /// Runs the net on an image and returns predicted end-to-end
    /// latency in cycles.
    pub fn run(&self, img: &Image) -> Result<u64, CoreError> {
        let mut eng = self.exec.session(Options::default());
        let per_page = JpegHwConfig::default().blocks_per_page;
        for (i, b) in img.blocks.iter().enumerate() {
            // Blocks at page-aligned output offsets carry the writer's
            // DRAM page-open flag (the token transform that keeps the
            // net's delay expressions exact).
            let opens_page = (i as u64).is_multiple_of(per_page);
            eng.inject_record(
                self.blocks_in,
                &self.block,
                &[
                    b.bits as f64,
                    b.nonzero as f64,
                    f64::from(u8::from(opens_page)),
                ],
                self.header_cycles,
            );
        }
        let res = eng.run().map_err(CoreError::from)?;
        if res.completions.len() != img.num_blocks() {
            return Err(CoreError::Artifact(format!(
                "net completed {} of {} blocks",
                res.completions.len(),
                img.num_blocks()
            )));
        }
        Ok(res.makespan)
    }
}

impl PerfInterface<Image> for JpegPetriInterface {
    fn kind(&self) -> InterfaceKind {
        InterfaceKind::PetriNet
    }

    fn predict(&self, img: &Image, metric: Metric) -> Result<Prediction, CoreError> {
        let lat = self.run(img)? as f64;
        Ok(match metric {
            Metric::Latency => Prediction::point(lat),
            Metric::Throughput => Prediction::point(1.0 / lat),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::JpegCycleSim;
    use crate::huffman::BlockCost;
    use crate::workload::ImageGen;
    use perf_core::validate::validate;
    use perf_core::GroundTruth;

    #[test]
    fn net_parses_and_predicts() {
        let iface = JpegPetriInterface::new().unwrap();
        let mut g = ImageGen::new(5);
        let img = g.gen_sized(64, 64, 60);
        let lat = iface.run(&img).unwrap();
        assert!(lat > 0);
    }

    // Conformance-harness counterexample: on a single minimal block
    // the old net amortized the writer's page-open penalty away and
    // predicted 547 where the hardware takes 580 cycles (5.7% off,
    // against a 1% budget). With the `pg` token flag and the refill
    // term the net now tracks the simulator to within the pipeline's
    // handoff cycles on degenerate and page-aligned images alike.
    #[test]
    fn degenerate_and_page_aligned_images_track_simulator() {
        let mut sim = JpegCycleSim::new(JpegHwConfig::default());
        let iface = JpegPetriInterface::new().unwrap();
        let flat = |blocks: usize, bits: u32, nonzero: u8| Image {
            width: 8 * blocks as u32,
            height: 8,
            quality: 50,
            color: crate::workload::ColorMode::Grayscale,
            blocks: vec![BlockCost { bits, nonzero }; blocks],
        };
        for img in [
            flat(1, 0, 0),       // minimal single block
            flat(1, 4000, 63),   // huffman bomb: 31 refill stalls
            flat(129, 3000, 63), // crosses two page boundaries
            flat(128, 0, 0),     // page-aligned idct-bound stream
        ] {
            let obs = sim.measure(&img).unwrap();
            let pred = iface.run(&img).unwrap() as f64;
            let gap = (pred - obs.latency.as_f64()).abs();
            assert!(
                gap <= 8.0,
                "{}x{} ({} blocks): net {pred} vs sim {} (gap {gap})",
                img.width,
                img.height,
                img.num_blocks(),
                obs.latency.as_f64()
            );
        }
    }

    #[test]
    fn petri_is_more_accurate_than_program_interface() {
        // Table 1's headline: the net's error is ~20x below the program
        // interface's. Verify the ordering on a small sample.
        let mut sim = JpegCycleSim::new(JpegHwConfig::default());
        let petri = JpegPetriInterface::new().unwrap();
        let prog = super::super::program::JpegProgramInterface::new().unwrap();
        let mut g = ImageGen::new(99);
        let imgs = g.gen_many(15);
        let rp = validate(&mut sim, &petri, Metric::Latency, &imgs).unwrap();
        let rg = validate(&mut sim, &prog, Metric::Latency, &imgs).unwrap();
        assert!(
            rp.point.avg < rg.point.avg,
            "petri avg {:.4} should beat program avg {:.4}",
            rp.point.avg,
            rg.point.avg
        );
        assert!(
            rp.point.avg < 0.01,
            "petri avg error {:.4} should be sub-1%",
            rp.point.avg
        );
    }

    #[test]
    fn dot_export_works() {
        let iface = JpegPetriInterface::new().unwrap();
        let dot = perf_petri::dot::to_dot(iface.net());
        assert!(dot.contains("huffman"));
        assert!(dot.contains("idct"));
    }
}
