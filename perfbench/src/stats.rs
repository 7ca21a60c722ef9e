//! Bounded sample storage and summary helpers.

use crate::gen::mix;

/// A uniform sample of at most [`Reservoir::CAP`] values (Algorithm R
/// with a fixed-seed generator), so a traced pass of millions of
/// requests keeps bounded memory, while a pass below the cap keeps
/// every value.
#[derive(Default)]
pub struct Reservoir {
    xs: Vec<f64>,
    seen: u64,
}

impl Reservoir {
    /// Values kept at most.
    pub const CAP: usize = 1 << 16;

    /// Offers one value.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.xs.len() < Self::CAP {
            self.xs.push(x);
        } else {
            let j = mix(self.seen) % self.seen;
            if (j as usize) < Self::CAP {
                self.xs[j as usize] = x;
            }
        }
    }

    /// The sample median (0 when empty).
    pub fn median(&self) -> f64 {
        median(&self.xs)
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    perf_core::stats::percentile(xs, 50.0)
}

/// Mean of the middle half of `xs` (0 when empty): unlike the median
/// it moves smoothly with the share of windows a slow host phase
/// covers, and unlike the mean it ignores a few stalled windows.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = v.len() / 4;
    let mid = &v[q..v.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Wall time of `f` in ns: the median of three calls, or a single call
/// when one already takes over 5 ms.
pub fn time_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let once = |f: &mut dyn FnMut() -> T| {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        t0.elapsed().as_nanos() as f64
    };
    let first = once(&mut f);
    if first > 5e6 {
        return first;
    }
    median(&[first, once(&mut f), once(&mut f)])
}

/// Restarts the process's peak-RSS watermark (Linux `clear_refs` 5),
/// so [`rss_peak_mb`] covers only what runs after this call. Returns
/// whether the kernel accepted the reset.
pub fn reset_rss_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process since start or the last
/// [`reset_rss_peak`], in MB (`VmHWM`; the benchmark is Linux-only).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}

/// Responses per window of [`Windows`]: enough that a window's p99 has
/// ten samples beyond it.
pub const WINDOW: usize = 1000;

/// Latency percentiles of consecutive windows of [`WINDOW`] responses.
/// Interquartile means across windows discard short bursts of host
/// slowness (a descheduled worker stalls a few batches) that whole-pass
/// percentiles absorb.
#[derive(Default)]
pub struct Windows {
    cur: Vec<f64>,
    /// Median latency per window, ns.
    pub p50: Vec<f64>,
    /// 99th-percentile latency per window, ns.
    pub p99: Vec<f64>,
}

impl Windows {
    /// Records one response's latency.
    pub fn push(&mut self, latency_ns: f64) {
        self.cur.push(latency_ns);
        if self.cur.len() == WINDOW {
            self.close();
        }
    }

    /// Ends the pass: a pass too short for one full window becomes one
    /// partial window.
    pub fn finish(&mut self) {
        if self.p50.is_empty() && !self.cur.is_empty() {
            self.close();
        }
    }

    fn close(&mut self) {
        self.p50.push(perf_core::stats::percentile(&self.cur, 50.0));
        self.p99.push(perf_core::stats::percentile(&self.cur, 99.0));
        self.cur.clear();
    }
}
