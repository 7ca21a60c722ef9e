//! Baseline-JPEG entropy model: quantization, zig-zag scan and Huffman
//! bit costs.
//!
//! The decoder's Huffman stage spends time proportional to the coded
//! bits of each block, so the workload model needs *real* per-block bit
//! counts. This module quantizes DCT coefficient blocks with the
//! standard luminance quantization matrix and computes the exact number
//! of bits a baseline sequential JPEG encoder would emit for the block:
//! DC category code + magnitude bits, then run-length coded AC symbols
//! with (run, size) Huffman codes, ZRL for 16-zero runs and EOB.
//!
//! Code lengths use canonical tables with the same structure as the
//! JPEG Annex K tables (short codes for low-run/low-size symbols,
//! 16-bit codes in the tail). The workspace's encoder and decoder share
//! these tables, so all bit counts are self-consistent.
//!
//! Workload generation quantizes and costs every block of every image,
//! so nothing here is rebuilt per block: the zig-zag order is a
//! compile-time table ([`ZIGZAG`]), and the quality-scaled quantizer
//! steps are computed once per image and quality ([`quant_steps`]).

/// The standard JPEG luminance quantization matrix (Annex K.1), in
/// natural (row-major) order.
pub const LUMA_QUANT: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// Code lengths for the DC luminance table (Annex K.3.1): one code per
/// magnitude category 0..=11.
pub const DC_CODE_LEN: [u8; 12] = [2, 3, 3, 3, 3, 3, 4, 5, 6, 7, 8, 9];

/// Length in bits of the EOB (end-of-block) code.
pub const EOB_LEN: u8 = 4;

/// Length in bits of the ZRL (sixteen-zero run) code.
pub const ZRL_LEN: u8 = 11;

/// The zig-zag scan order: `ZIGZAG[k]` is the natural-order index of
/// the `k`-th scanned coefficient.
pub const ZIGZAG: [usize; 64] = zigzag_order();

const fn zigzag_order() -> [usize; 64] {
    let mut order = [0usize; 64];
    let (mut k, mut diag) = (0, 0usize);
    while diag < 15 {
        // Walk each anti-diagonal's rows, alternating direction: up
        // the even diagonals, down the odd ones.
        let (lo, hi) = (diag.saturating_sub(7), if diag < 7 { diag } else { 7 });
        let mut i = 0;
        while i <= hi - lo {
            let r = if diag % 2 == 0 { hi - i } else { lo + i };
            order[k] = r * 8 + diag - r;
            k += 1;
            i += 1;
        }
        diag += 1;
    }
    assert!(k == 64);
    order
}

/// The magnitude category of a coefficient: the number of bits needed
/// to represent `|v|` (0 for 0).
pub fn category(v: i32) -> u8 {
    let mut a = v.unsigned_abs();
    let mut bits = 0u8;
    while a > 0 {
        bits += 1;
        a >>= 1;
    }
    bits
}

/// Code length of an AC (run, size) symbol, canonical-table model: low
/// runs and small sizes get short codes; everything saturates at 16
/// bits, like the Annex K tail.
pub fn ac_code_len(run: u8, size: u8) -> u8 {
    debug_assert!(run <= 15 && (1..=10).contains(&size));
    let base = match (run, size) {
        (0, 1) => 2,
        (0, 2) => 2,
        (0, 3) => 3,
        (0, 4) => 4,
        (0, 5) => 5,
        (0, 6) => 7,
        (0, 7) => 8,
        (0, 8) => 10,
        (1, 1) => 4,
        (1, 2) => 5,
        (1, 3) => 7,
        (1, 4) => 9,
        (2, 1) => 5,
        (2, 2) => 8,
        (3, 1) => 6,
        (3, 2) => 9,
        (4, 1) => 6,
        (5, 1) => 7,
        (6, 1) => 7,
        (7, 1) => 8,
        (8, 1) => 9,
        _ => 0,
    };
    if base > 0 {
        base
    } else {
        // Tail symbols: rare, long codes.
        (10 + run / 4 + size).min(16)
    }
}

/// Quality scaling factor as used by libjpeg: maps quality 1..=100 to a
/// percentage scaling of the quantization table.
pub fn quality_scale(quality: u8) -> f64 {
    let q = quality.clamp(1, 100) as f64;
    if q < 50.0 {
        5000.0 / q / 100.0
    } else {
        (200.0 - 2.0 * q) / 100.0
    }
}

/// The quantizer step of each natural-order coefficient at `quality`:
/// the luminance table scaled by [`quality_scale`], at least 1. An
/// image computes it once and quantizes every block with it.
pub fn quant_steps(quality: u8) -> [f64; 64] {
    let s = quality_scale(quality);
    LUMA_QUANT.map(|q| (q as f64 * s).max(1.0))
}

/// Quantizes a natural-order coefficient block with the steps of
/// [`quant_steps`].
pub fn quantize(coefs: &[f64; 64], steps: &[f64; 64]) -> [i32; 64] {
    std::array::from_fn(|i| (coefs[i] / steps[i]).round() as i32)
}

/// Entropy statistics of one coded block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockCost {
    /// Total coded bits for the block (DC + AC + EOB).
    pub bits: u32,
    /// Number of nonzero quantized coefficients (including DC if
    /// nonzero).
    pub nonzero: u8,
}

/// Computes the exact coded size of a quantized block.
///
/// `dc_pred` is the previous block's DC value (baseline JPEG codes DC
/// differentially). Returns the cost and the block's DC value for
/// chaining.
pub fn block_cost(quantized: &[i32; 64], dc_pred: i32) -> (BlockCost, i32) {
    let dc = quantized[0];
    let dc_cat = category(dc - dc_pred).min(11);
    let mut bits = DC_CODE_LEN[dc_cat as usize] as u32 + dc_cat as u32;
    let mut nonzero = u8::from(dc != 0);

    let mut run = 0u8;
    let mut last_nonzero = 0usize;
    for k in (1..64).rev() {
        if quantized[ZIGZAG[k]] != 0 {
            last_nonzero = k;
            break;
        }
    }
    for k in 1..=last_nonzero {
        let v = quantized[ZIGZAG[k]];
        if v == 0 {
            run += 1;
            if run == 16 {
                bits += ZRL_LEN as u32;
                run = 0;
            }
        } else {
            nonzero += 1;
            let size = category(v).min(10);
            bits += ac_code_len(run, size) as u32 + size as u32;
            run = 0;
        }
    }
    if last_nonzero < 63 {
        bits += EOB_LEN as u32;
    }
    (BlockCost { bits, nonzero }, dc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_permutation_with_known_prefix() {
        let z = ZIGZAG;
        let mut seen = [false; 64];
        for &i in &z {
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        // The canonical JPEG zig-zag prefix.
        assert_eq!(&z[..10], &[0, 1, 8, 16, 9, 2, 3, 10, 17, 24]);
        assert_eq!(z[63], 63);
    }

    #[test]
    fn category_is_bit_length() {
        assert_eq!(category(0), 0);
        assert_eq!(category(1), 1);
        assert_eq!(category(-1), 1);
        assert_eq!(category(2), 2);
        assert_eq!(category(-3), 2);
        assert_eq!(category(255), 8);
        assert_eq!(category(-1024), 11);
    }

    #[test]
    fn quality_scale_matches_libjpeg_shape() {
        assert!((quality_scale(50) - 1.0).abs() < 1e-12);
        assert!((quality_scale(25) - 2.0).abs() < 1e-12);
        assert!((quality_scale(100) - 0.0).abs() < 1e-12);
        assert!(quality_scale(10) > quality_scale(90));
    }

    #[test]
    fn all_zero_block_costs_dc_plus_eob() {
        let q = [0i32; 64];
        let (c, dc) = block_cost(&q, 0);
        assert_eq!(dc, 0);
        assert_eq!(c.nonzero, 0);
        // DC category 0 code (2 bits) + EOB (4 bits).
        assert_eq!(c.bits, 2 + 4);
    }

    #[test]
    fn single_ac_coefficient() {
        let mut q = [0i32; 64];
        q[ZIGZAG[1]] = 1; // First AC position, value 1 -> (run 0, size 1).
        let (c, _) = block_cost(&q, 0);
        // DC cat 0 (2) + AC(0,1)=2 + 1 magnitude bit + EOB 4.
        assert_eq!(c.bits, 2 + 2 + 1 + 4);
        assert_eq!(c.nonzero, 1);
    }

    #[test]
    fn long_zero_run_uses_zrl() {
        let mut q = [0i32; 64];
        q[ZIGZAG[20]] = 1; // 19 zeros before it: one ZRL + (run 3, size 1).
        let (c, _) = block_cost(&q, 0);
        let expect = 2 + ZRL_LEN as u32 + ac_code_len(3, 1) as u32 + 1 + 4;
        assert_eq!(c.bits, expect);
    }

    #[test]
    fn trailing_nonzero_skips_eob() {
        let mut q = [0i32; 64];
        q[63] = 5; // Natural index 63 is also last in zig-zag.
        let (c, _) = block_cost(&q, 0);
        let size = category(5);
        // 63 zeros before it: 3 ZRL (48 zeros) + run 15 left.
        let expect = 2 + 3 * ZRL_LEN as u32 + ac_code_len(15, size) as u32 + size as u32;
        assert_eq!(c.bits, expect);
    }

    #[test]
    fn dc_coded_differentially() {
        let mut q = [0i32; 64];
        q[0] = 100;
        let (c1, dc1) = block_cost(&q, 0);
        assert_eq!(dc1, 100);
        // Same DC again: difference 0 -> cheapest DC code.
        let (c2, _) = block_cost(&q, 100);
        assert!(c2.bits < c1.bits);
    }

    #[test]
    fn denser_blocks_cost_more_bits() {
        let mut sparse = [0i32; 64];
        let mut dense = [0i32; 64];
        for k in 1..4 {
            sparse[ZIGZAG[k]] = 3;
        }
        for k in 1..32 {
            dense[ZIGZAG[k]] = 3;
        }
        let (cs, _) = block_cost(&sparse, 0);
        let (cd, _) = block_cost(&dense, 0);
        assert!(cd.bits > cs.bits * 4);
        assert_eq!(cd.nonzero, 31);
    }

    #[test]
    fn quantize_kills_high_frequencies_at_low_quality() {
        let mut coefs = [0.0f64; 64];
        for (i, c) in coefs.iter_mut().enumerate() {
            *c = 50.0 / (1.0 + i as f64 * 0.2);
        }
        let hi = quantize(&coefs, &quant_steps(90));
        let lo = quantize(&coefs, &quant_steps(10));
        let nz_hi = hi.iter().filter(|&&v| v != 0).count();
        let nz_lo = lo.iter().filter(|&&v| v != 0).count();
        assert!(nz_hi > nz_lo);
    }

    #[test]
    fn ac_code_lengths_are_sane() {
        // Short codes for common symbols, long for the tail; all within
        // the 16-bit JPEG limit.
        assert!(ac_code_len(0, 1) <= 2);
        for run in 0..=15u8 {
            for size in 1..=10u8 {
                let l = ac_code_len(run, size);
                assert!((2..=16).contains(&l), "len({run},{size}) = {l}");
            }
        }
        // Longer runs and bigger magnitudes never get shorter codes
        // within the modeled region.
        assert!(ac_code_len(15, 10) >= ac_code_len(0, 1));
    }
}
