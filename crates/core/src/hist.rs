//! A fixed-size, log-bucketed histogram of nanosecond durations.
//!
//! Long-running servers record one latency sample per request; keeping
//! the samples makes memory and every percentile query grow with
//! uptime. [`LogHistogram`] keeps counts in a fixed array of buckets
//! instead: each power of two is split into [`SUB_BUCKETS`] equal
//! sub-buckets, so a bucket is at most 1/16 of its lower edge wide and
//! values below 32 ns are counted exactly. Recording is a few relaxed
//! atomic adds, so any number of threads record into one shared
//! histogram without a lock.
//!
//! # Examples
//!
//! ```
//! use perf_core::hist::LogHistogram;
//!
//! let h = LogHistogram::new();
//! for ns in [1_000, 2_000, 3_000, 4_000] {
//!     h.record(ns);
//! }
//! assert_eq!(h.count(), 4);
//! assert_eq!(h.mean(), 2_500.0);
//! let p50 = h.percentile(50.0);
//! assert!((p50 - 2_000.0).abs() <= 2_000.0 / 32.0);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// `log2` of the sub-buckets per power of two.
const SUB_BITS: u32 = 4;

/// Sub-buckets per power of two.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Buckets in a histogram: values `0..SUB_BUCKETS` one each, then
/// `SUB_BUCKETS` per power of two up to `2^64`.
pub const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// The bucket holding `ns`.
fn bucket(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let sub = (ns >> (exp - SUB_BITS)) as usize - SUB_BUCKETS;
    (exp - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
}

/// The value reported for bucket `i`: the midpoint of the integers it
/// holds (its one value when it is one nanosecond wide).
fn representative(i: usize) -> f64 {
    if i < SUB_BUCKETS {
        return i as f64;
    }
    let shift = (i / SUB_BUCKETS) as u32 - 1;
    let lower = ((SUB_BUCKETS + i % SUB_BUCKETS) as u64) << shift;
    lower as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

/// A histogram of nanosecond durations in [`BUCKETS`] fixed buckets.
///
/// Its size does not depend on how many values were recorded.
/// [`percentile`](Self::percentile) is within a relative error of
/// 1/32 of the exact nearest-rank percentile of the recorded values:
/// it reports the midpoint of the bucket holding that value, and no
/// bucket is wider than 1/16 of its lower edge. The mean is exact.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Records one duration.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of the recorded values in nanoseconds; 0 when empty.
    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum_ns.load(Ordering::Relaxed) as f64 / n as f64,
        }
    }

    /// The `p`-th percentile (0–100) in nanoseconds, by nearest rank
    /// and within the error bound above; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0 * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return representative(i);
            }
        }
        unreachable!("the ranks sum to the count")
    }

    /// Forgets every recorded value.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_whole_range_in_order() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(15), 15);
        assert_eq!(bucket(16), 16);
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
        // Every bucket's representative lies in that bucket, and the
        // buckets are ordered like their values.
        for i in 0..BUCKETS {
            let r = representative(i);
            assert_eq!(bucket(r as u64), i, "bucket {i}");
        }
        for ns in [17u64, 100, 1_000, 123_456, 1 << 40, (1 << 40) + 12345] {
            assert!(bucket(ns) <= bucket(ns + 1));
        }
    }

    #[test]
    fn a_million_values_leave_the_size_unchanged() {
        let h = LogHistogram::new();
        let before = std::mem::size_of_val(&h);
        let mut x = 1u64;
        for _ in 0..1_000_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(x >> 34);
        }
        assert_eq!(h.count(), 1_000_000);
        // The buckets are an inline array: nothing grows on the heap
        // either.
        assert_eq!(std::mem::size_of_val(&h), before);
        assert_eq!(before, (BUCKETS + 2) * 8);
    }

    #[test]
    fn percentiles_are_within_the_stated_error() {
        // Log-uniform sample over 1 ns .. ~17 s, plus exact small values.
        let mut xs: Vec<u64> = (0..16).collect();
        let mut x = 7u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let exp = (x >> 58) as u32 % 34;
            xs.push(((x >> 20) & ((1 << exp) - 1)) | (1 << exp));
        }
        let h = LogHistogram::new();
        for &v in &xs {
            h.record(v);
        }
        xs.sort_unstable();
        for p in [0.0, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let rank = ((p / 100.0 * xs.len() as f64).ceil() as usize).max(1);
            let exact = xs[rank - 1] as f64;
            let got = h.percentile(p);
            assert!(
                (got - exact).abs() <= exact / 32.0,
                "p{p}: {got} vs exact {exact}"
            );
        }
        let mean = xs.iter().sum::<u64>() as f64 / xs.len() as f64;
        assert_eq!(h.mean(), mean);
    }

    #[test]
    fn empty_and_reset_report_zero() {
        let h = LogHistogram::new();
        assert_eq!((h.count(), h.mean(), h.percentile(50.0)), (0, 0.0, 0.0));
        h.record(5);
        assert_eq!(h.percentile(99.0), 5.0);
        h.reset();
        assert_eq!((h.count(), h.mean(), h.percentile(50.0)), (0, 0.0, 0.0));
    }
}
