//! The JPEG workload model: images with real per-block entropy
//! statistics.
//!
//! The decoder's performance depends on image *statistics* — coded bits
//! and nonzero coefficients per 8×8 block — not pixel content. The
//! generator synthesizes those statistics through the real encoding
//! pipeline: coefficient blocks are drawn from a spectral model (or
//! computed from synthetic pixels via the real forward DCT), quantized
//! with the standard luminance table at the image's quality setting,
//! and costed with the real Huffman bit model. Compression rate is then
//! an *output* of the model, exactly as it would be for a real file.
//!
//! Realizing an image is on the query service's miss path, so what does
//! not depend on the drawn content is computed once: the spectral decay
//! divisors per generator, the quantizer steps per image and quality.
//! The RNG draw order and every floating-point operation are fixed, so
//! a seed names one image; `generator_output_is_pinned` holds them to
//! a hash.

use crate::huffman::{self, BlockCost};
use crate::idct;
use perf_iface_lang::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Chroma subsampling / color layout of an image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColorMode {
    /// Single luma plane (the default used by the paper-scale
    /// experiments).
    Grayscale,
    /// Y'CbCr with 4:2:0 chroma subsampling: two quarter-resolution
    /// chroma planes follow the luma plane in scan order.
    Yuv420,
}

/// A workload image: dimensions plus per-block entropy statistics.
#[derive(Clone, Debug)]
pub struct Image {
    /// Width in pixels (multiple of 8; multiple of 16 for 4:2:0).
    pub width: u32,
    /// Height in pixels (multiple of 8; multiple of 16 for 4:2:0).
    pub height: u32,
    /// JPEG quality setting used to encode it (1–100).
    pub quality: u8,
    /// Color layout.
    pub color: ColorMode,
    /// Per-block coded statistics in scan order (luma plane first,
    /// then Cb, then Cr for 4:2:0).
    pub blocks: Vec<BlockCost>,
}

/// Fixed size of the JFIF/DQT/DHT header in bytes, charged once per
/// image.
pub const HEADER_BYTES: u64 = 623;

impl Image {
    /// Number of 8×8 blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Decoded (original) size in bytes: one byte per pixel for
    /// grayscale, 1.5 bytes per pixel for 4:2:0.
    pub fn orig_size(&self) -> u64 {
        let luma = self.width as u64 * self.height as u64;
        match self.color {
            ColorMode::Grayscale => luma,
            ColorMode::Yuv420 => luma * 3 / 2,
        }
    }

    /// Total entropy-coded bits across all blocks.
    pub fn total_bits(&self) -> u64 {
        self.blocks.iter().map(|b| b.bits as u64).sum()
    }

    /// Compressed size in bytes, including the fixed header.
    pub fn coded_size(&self) -> u64 {
        HEADER_BYTES + self.total_bits().div_ceil(8)
    }

    /// Compression rate: `orig_size / coded_size` (the quantity in the
    /// paper's Fig. 1 and Fig. 2 interfaces).
    pub fn compress_rate(&self) -> f64 {
        self.orig_size() as f64 / self.coded_size() as f64
    }

    /// The image as a PIL record, the input format of the program
    /// interface (paper Fig. 2 passes `img` with `orig_size` and
    /// `compress_rate`).
    pub fn to_value(&self) -> Value {
        Value::record([
            ("orig_size", Value::from(self.orig_size())),
            ("compress_rate", Value::num(self.compress_rate())),
            ("num_blocks", Value::from(self.num_blocks())),
            ("total_bits", Value::from(self.total_bits())),
        ])
    }
}

/// How the generator synthesizes coefficient blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SynthMode {
    /// Draw DCT coefficients directly from a spectral decay model
    /// (fast; the default).
    Spectral,
    /// Synthesize pixel blocks and run the real forward DCT (slow;
    /// used to validate the spectral model).
    Pixels,
}

/// Seeded random image generator.
#[derive(Clone, Debug)]
pub struct ImageGen {
    rng: StdRng,
    /// Synthesis mode.
    pub mode: SynthMode,
    /// Minimum image dimension in 8-pixel units.
    pub min_dim8: u32,
    /// Maximum image dimension in 8-pixel units.
    pub max_dim8: u32,
    /// Quality range (inclusive).
    pub quality: (u8, u8),
    /// The spectral model's decay divisor at frequency `u + v`:
    /// `(1 + u + v)^1.7`.
    decay: [f64; 15],
}

impl ImageGen {
    /// Creates a generator with the default ranges used by the paper
    /// reproduction (random images from 32×32 to 512×512, quality
    /// 15–95).
    pub fn new(seed: u64) -> ImageGen {
        ImageGen {
            rng: StdRng::seed_from_u64(seed),
            mode: SynthMode::Spectral,
            min_dim8: 6,
            max_dim8: 64,
            quality: (15, 95),
            decay: std::array::from_fn(|d| (1.0 + d as f64).powf(1.7)),
        }
    }

    /// Generates one random image.
    pub fn gen_image(&mut self) -> Image {
        let w8 = self.rng.gen_range(self.min_dim8..=self.max_dim8);
        let h8 = self.rng.gen_range(self.min_dim8..=self.max_dim8);
        let quality = self.rng.gen_range(self.quality.0..=self.quality.1);
        self.gen_sized(w8 * 8, h8 * 8, quality)
    }

    /// Generates an image with fixed dimensions and quality (used by
    /// the Fig. 1 claim-checking sweeps, which vary one axis at a
    /// time).
    pub fn gen_sized(&mut self, width: u32, height: u32, quality: u8) -> Image {
        assert!(
            width.is_multiple_of(8) && height.is_multiple_of(8),
            "dimensions must be multiples of 8"
        );
        let steps = huffman::quant_steps(quality);
        Image {
            width,
            height,
            quality,
            color: ColorMode::Grayscale,
            blocks: encode(self.luma_coefs(width, height), &steps).collect(),
        }
    }

    /// Generates a 4:2:0 color image: a full-resolution luma plane
    /// followed by two quarter-resolution chroma planes with lower
    /// spectral activity (chroma is smooth in natural images).
    pub fn gen_color(&mut self, width: u32, height: u32, quality: u8) -> Image {
        assert!(
            width.is_multiple_of(16) && height.is_multiple_of(16),
            "4:2:0 dimensions must be multiples of 16"
        );
        let luma = self.gen_sized(width, height, quality);
        let mut blocks = luma.blocks;
        let steps = huffman::quant_steps(quality);
        let nblocks = (width as usize / 16) * (height as usize / 16);
        for _chroma_plane in 0..2 {
            let coefs = (0..nblocks).map(|_| {
                let act = self.rng.gen_range(0.1..0.5) * 40.0;
                let mut coefs = self.spectral_block(act / 60.0);
                // Chroma planes are smoother: damp high frequencies.
                for c in &mut coefs[21..] {
                    *c *= 0.5;
                }
                coefs
            });
            blocks.extend(encode(coefs, &steps));
        }
        Image {
            width,
            height,
            quality,
            color: ColorMode::Yuv420,
            blocks,
        }
    }

    /// Generates `n` random images.
    pub fn gen_many(&mut self, n: usize) -> Vec<Image> {
        (0..n).map(|_| self.gen_image()).collect()
    }

    /// Generates one image's raw coefficient content and encodes it at
    /// each of the given qualities. Re-encoding the *same* content
    /// isolates the compression-rate axis, which is how the Fig. 1
    /// claims are checked.
    pub fn gen_quality_sweep(&mut self, width: u32, height: u32, qualities: &[u8]) -> Vec<Image> {
        assert!(width.is_multiple_of(8) && height.is_multiple_of(8));
        let coef_blocks: Vec<[f64; 64]> = self.luma_coefs(width, height).collect();
        qualities
            .iter()
            .map(|&q| Image {
                width,
                height,
                quality: q,
                color: ColorMode::Grayscale,
                blocks: encode(coef_blocks.iter().copied(), &huffman::quant_steps(q)).collect(),
            })
            .collect()
    }

    /// A `width`×`height` luma plane's coefficient blocks in scan
    /// order. The image-level busyness is drawn on the call; each block
    /// is drawn as the iterator reaches it.
    fn luma_coefs(&mut self, width: u32, height: u32) -> impl Iterator<Item = [f64; 64]> + '_ {
        let nblocks = (width as usize / 8) * (height as usize / 8);
        // Image-level "busyness": textured images cost more bits.
        let busyness = self.rng.gen_range(0.5..2.0);
        // Images are made of spatially-correlated regions (smooth sky,
        // texture, edges): a persistent Markov chain over region types
        // scales each block's activity. This heterogeneity is what the
        // aggregate-statistics program interface cannot see.
        const REGION_ACTIVITY: [f64; 3] = [0.15, 1.0, 3.0];
        let mut region = 1usize;
        (0..nblocks).map(move |_| {
            if self.rng.gen_bool(0.05) {
                region = self.rng.gen_range(0..REGION_ACTIVITY.len());
            }
            let act = busyness * REGION_ACTIVITY[region];
            match self.mode {
                SynthMode::Spectral => self.spectral_block(act),
                SynthMode::Pixels => self.pixel_block(act),
            }
        })
    }

    /// Draws a Laplace sample with scale `b`.
    fn laplace(&mut self, b: f64) -> f64 {
        let u: f64 = self.rng.gen_range(-0.5..0.5);
        -b * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }

    /// Spectral model: coefficient energy decays with frequency, as in
    /// natural images.
    fn spectral_block(&mut self, busyness: f64) -> [f64; 64] {
        let mut coefs = [0.0f64; 64];
        let activity = busyness * f64::exp(self.rng.gen_range(-0.8..0.8)) * 60.0;
        coefs[0] = self.rng.gen_range(-1024.0..1016.0); // DC: mean level.
        for u in 0..8 {
            for v in 0..8 {
                if u == 0 && v == 0 {
                    continue;
                }
                let scale = activity / self.decay[u + v];
                coefs[u * 8 + v] = self.laplace(scale);
            }
        }
        coefs
    }

    /// Pixel model: smooth gradient + sinusoidal texture + noise, then
    /// the real forward DCT.
    fn pixel_block(&mut self, busyness: f64) -> [f64; 64] {
        let base = self.rng.gen_range(-100.0..100.0);
        let gx = self.rng.gen_range(-6.0..6.0);
        let gy = self.rng.gen_range(-6.0..6.0);
        let freq = self.rng.gen_range(0.3..2.5);
        let amp = busyness * self.rng.gen_range(0.0..30.0);
        let mut px = [0.0f64; 64];
        for x in 0..8 {
            for y in 0..8 {
                let noise: f64 = self.rng.gen_range(-4.0..4.0);
                px[x * 8 + y] = (base
                    + gx * x as f64
                    + gy * y as f64
                    + amp * (freq * (x + 2 * y) as f64).sin()
                    + noise)
                    .clamp(-128.0, 127.0);
            }
        }
        idct::fdct8x8(&px)
    }
}

/// Quantizes one plane's coefficient blocks with `steps` and costs
/// them in scan order, coding each DC against the previous block's.
fn encode<'a>(
    coefs: impl Iterator<Item = [f64; 64]> + 'a,
    steps: &'a [f64; 64],
) -> impl Iterator<Item = BlockCost> + 'a {
    let mut dc_pred = 0i32;
    coefs.map(move |c| {
        let (cost, dc) = huffman::block_cost(&huffman::quantize(&c, steps), dc_pred);
        dc_pred = dc;
        cost
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_image_is_consistent() {
        let mut g = ImageGen::new(7);
        let img = g.gen_sized(64, 48, 75);
        assert_eq!(img.num_blocks(), 8 * 6);
        assert_eq!(img.orig_size(), 64 * 48);
        assert!(img.total_bits() > 0);
        assert!(img.compress_rate() > 1.0, "JPEG should compress");
    }

    #[test]
    fn lower_quality_compresses_more() {
        let mut g1 = ImageGen::new(42);
        let mut g2 = ImageGen::new(42);
        let hi = g1.gen_sized(128, 128, 95);
        let lo = g2.gen_sized(128, 128, 20);
        assert!(
            lo.compress_rate() > hi.compress_rate(),
            "q20 rate {} should exceed q95 rate {}",
            lo.compress_rate(),
            hi.compress_rate()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ImageGen::new(9).gen_many(3);
        let b = ImageGen::new(9).gen_many(3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.width, y.width);
            assert_eq!(x.total_bits(), y.total_bits());
        }
    }

    #[test]
    fn pixel_and_spectral_modes_agree_in_magnitude() {
        let mut gs = ImageGen::new(1);
        gs.mode = SynthMode::Spectral;
        let mut gp = ImageGen::new(1);
        gp.mode = SynthMode::Pixels;
        let s = gs.gen_sized(64, 64, 60);
        let p = gp.gen_sized(64, 64, 60);
        let bs = s.total_bits() as f64 / s.num_blocks() as f64;
        let bp = p.total_bits() as f64 / p.num_blocks() as f64;
        // Same order of magnitude (both are plausible JPEG content).
        assert!(bs / bp < 8.0 && bp / bs < 8.0, "bs={bs} bp={bp}");
    }

    #[test]
    fn to_value_exposes_interface_fields() {
        let mut g = ImageGen::new(3);
        let img = g.gen_sized(32, 32, 50);
        let v = img.to_value();
        assert_eq!(
            v.field("orig_size").unwrap().as_num(),
            Some(img.orig_size() as f64)
        );
        assert!(v.field("compress_rate").unwrap().as_num().unwrap() > 0.0);
        assert_eq!(v.field("num_blocks").unwrap().as_num(), Some(16.0));
    }

    /// FNV-1a over every block's `bits` and `nonzero` of a fixed corpus
    /// that touches each generator path: `gen_sized` at every quality
    /// 1–100 over a spread of sizes, `gen_color`, pixel synthesis and
    /// quality sweeps. Any change to the RNG draw order or to the
    /// arithmetic of synthesis, quantization or bit costing moves it.
    #[test]
    fn generator_output_is_pinned() {
        let mut h = perf_core::query::Fnv1a::new();
        let mut absorb = |img: &Image| {
            for b in &img.blocks {
                h.write(&b.bits.to_le_bytes());
                h.write(&[b.nonzero]);
            }
        };
        for q in 1..=100u8 {
            let (w, ht) = (8 * (1 + u32::from(q) % 9), 8 * (1 + u32::from(q) % 7));
            absorb(&ImageGen::new(u64::from(q)).gen_sized(w, ht, q));
        }
        for (seed, q) in [(1u64, 1u8), (2, 37), (3, 75), (4, 100)] {
            absorb(&ImageGen::new(seed).gen_color(48, 32, q));
            let mut g = ImageGen::new(seed);
            g.mode = SynthMode::Pixels;
            absorb(&g.gen_sized(40, 24, q));
            for img in ImageGen::new(seed).gen_quality_sweep(32, 24, &[1, 15, 50, 51, 99, 100]) {
                absorb(&img);
            }
        }
        absorb(&ImageGen::new(5).gen_image());
        assert_eq!(h.finish(), 15_574_557_554_222_094_415);
    }

    #[test]
    fn random_sizes_within_bounds() {
        let mut g = ImageGen::new(11);
        for img in g.gen_many(20) {
            assert!(img.width >= 48 && img.width <= 512);
            assert!(img.height >= 48 && img.height <= 512);
            assert!(img.width % 8 == 0 && img.height % 8 == 0);
        }
    }
}

#[cfg(test)]
mod color_tests {
    use super::*;

    #[test]
    fn color_image_has_chroma_blocks() {
        let mut g = ImageGen::new(21);
        let img = g.gen_color(128, 96, 70);
        let luma = (128 / 8) * (96 / 8);
        let chroma = 2 * (128 / 16) * (96 / 16);
        assert_eq!(img.num_blocks(), luma + chroma);
        assert_eq!(img.orig_size(), 128 * 96 * 3 / 2);
        assert_eq!(img.color, ColorMode::Yuv420);
        assert!(img.compress_rate() > 1.0);
    }

    #[test]
    fn chroma_is_cheaper_than_luma() {
        let mut g = ImageGen::new(22);
        let img = g.gen_color(128, 128, 70);
        let luma_blocks = (128 / 8) * (128 / 8);
        let luma_bits: u64 = img.blocks[..luma_blocks]
            .iter()
            .map(|b| b.bits as u64)
            .sum();
        let chroma_bits: u64 = img.blocks[luma_blocks..]
            .iter()
            .map(|b| b.bits as u64)
            .sum();
        let luma_avg = luma_bits as f64 / luma_blocks as f64;
        let chroma_avg = chroma_bits as f64 / (img.num_blocks() - luma_blocks) as f64;
        assert!(
            chroma_avg < luma_avg,
            "chroma {chroma_avg:.1} bits/block should be below luma {luma_avg:.1}"
        );
    }

    #[test]
    #[should_panic(expected = "multiples of 16")]
    fn color_dimensions_validated() {
        ImageGen::new(1).gen_color(120, 128, 60);
    }
}
