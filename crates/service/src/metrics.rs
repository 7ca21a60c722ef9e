//! Service counters and latency histograms.
//!
//! One [`ServiceMetrics`] instance lives in the server's shared state.
//! Every field is an atomic, so the submitting threads and the workers
//! record into it without a lock, and each answer is counted before
//! its response is sent. Latencies go into fixed-size
//! [`LogHistogram`]s, so the metrics take the same memory after a
//! billion answers as after one. Observers take [`MetricsSnapshot`]s
//! for reports, the `svcbench` JSON, or a [`TraceSink`] export.

use perf_core::hist::LogHistogram;
use perf_core::iface::InterfaceKind;
use perf_core::trace::{json_escape, TraceSink};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Index of a representation in the per-representation arrays.
fn ridx(kind: InterfaceKind) -> usize {
    match kind {
        InterfaceKind::NaturalLanguage => 0,
        InterfaceKind::Program => 1,
        InterfaceKind::PetriNet => 2,
    }
}

const REPR_NAMES: [&str; 3] = ["nl", "program", "petri"];

/// Adds one to a counter.
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Live counter state, shared by the server's threads.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Requests offered to admission.
    pub submitted: AtomicU64,
    /// Requests dropped because the queue was full.
    pub rejected: AtomicU64,
    /// Requests whose deadline passed before they were served.
    pub expired: AtomicU64,
    /// Requests answered successfully.
    pub completed: AtomicU64,
    /// Requests that failed in a backend.
    pub errors: AtomicU64,
    /// Answers served from the result cache.
    pub cache_hits: AtomicU64,
    /// Answers served from a representation below the requested
    /// ceiling.
    pub degraded: AtomicU64,
    /// Highest queue depth observed at admission.
    pub queue_high_water: AtomicUsize,
    /// Times a worker returned from the admission condvar wait.
    pub worker_wakes: AtomicU64,
    /// Wakes that found the queue empty and re-parked — thundering-
    /// herd evidence (more workers woken than there were bursts).
    pub spurious_wakes: AtomicU64,
    /// Bursts of jobs claimed from the queue.
    pub bursts: AtomicU64,
    /// Total time workers spent acquiring the queue lock,
    /// nanoseconds — lock-hold / lock-contention evidence.
    pub lock_wait_ns: AtomicU64,
    /// Per-representation evaluation times (cache misses only; hits
    /// cost no evaluation).
    pub service_ns: [LogHistogram; 3],
    /// Queueing delays (0 for hits answered at admission).
    pub queue_ns: LogHistogram,
}

impl ServiceMetrics {
    /// Records one served answer.
    pub fn record_answer(
        &self,
        repr: InterfaceKind,
        degraded: bool,
        cache_hit: bool,
        queue_ns: u64,
        service_ns: u64,
    ) {
        bump(&self.completed);
        if degraded {
            bump(&self.degraded);
        }
        if cache_hit {
            bump(&self.cache_hits);
        } else {
            self.service_ns[ridx(repr)].record(service_ns);
        }
        self.queue_ns.record(queue_ns);
    }

    /// Zeroes every counter and histogram.
    pub fn reset(&self) {
        for c in [
            &self.submitted,
            &self.rejected,
            &self.expired,
            &self.completed,
            &self.errors,
            &self.cache_hits,
            &self.degraded,
            &self.worker_wakes,
            &self.spurious_wakes,
            &self.bursts,
            &self.lock_wait_ns,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        self.queue_high_water.store(0, Ordering::Relaxed);
        for h in self.service_ns.iter().chain([&self.queue_ns]) {
            h.reset();
        }
    }

    /// Takes an immutable summary of the current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let per_repr = std::array::from_fn(|i| {
            let h = &self.service_ns[i];
            ReprStats {
                count: h.count(),
                mean_us: h.mean() / 1e3,
                p50_us: h.percentile(50.0) / 1e3,
                p99_us: h.percentile(99.0) / 1e3,
            }
        });
        MetricsSnapshot {
            submitted: load(&self.submitted),
            rejected: load(&self.rejected),
            expired: load(&self.expired),
            completed: load(&self.completed),
            errors: load(&self.errors),
            cache_hits: load(&self.cache_hits),
            degraded: load(&self.degraded),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            worker_wakes: load(&self.worker_wakes),
            spurious_wakes: load(&self.spurious_wakes),
            bursts: load(&self.bursts),
            lock_wait_us: load(&self.lock_wait_ns) as f64 / 1e3,
            queue_p50_us: self.queue_ns.percentile(50.0) / 1e3,
            queue_p99_us: self.queue_ns.percentile(99.0) / 1e3,
            per_repr,
        }
    }
}

/// Latency summary for one representation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReprStats {
    /// Evaluations (cache misses) recorded.
    pub count: u64,
    /// Mean evaluation time, microseconds.
    pub mean_us: f64,
    /// Median evaluation time, microseconds.
    pub p50_us: f64,
    /// 99th-percentile evaluation time, microseconds.
    pub p99_us: f64,
}

/// An immutable summary of the service counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests offered to admission.
    pub submitted: u64,
    /// Admission rejects (queue full).
    pub rejected: u64,
    /// Queue-deadline expiries.
    pub expired: u64,
    /// Successful answers.
    pub completed: u64,
    /// Backend errors.
    pub errors: u64,
    /// Cache hits among answers.
    pub cache_hits: u64,
    /// Degraded answers.
    pub degraded: u64,
    /// Highest observed queue depth.
    pub queue_high_water: usize,
    /// Worker condvar wakes.
    pub worker_wakes: u64,
    /// Wakes that found the queue empty (herd evidence).
    pub spurious_wakes: u64,
    /// Bursts claimed from the queue.
    pub bursts: u64,
    /// Total worker time spent acquiring the queue lock, microseconds.
    pub lock_wait_us: f64,
    /// Median queueing delay, microseconds.
    pub queue_p50_us: f64,
    /// 99th-percentile queueing delay, microseconds.
    pub queue_p99_us: f64,
    /// Per-representation evaluation-latency summaries, indexed
    /// nl / program / petri.
    pub per_repr: [ReprStats; 3],
}

impl MetricsSnapshot {
    /// Cache hit rate among completed answers (0 when none completed).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.completed as f64
        }
    }

    /// Renders the snapshot as a JSON object (used by `svcbench` and
    /// `repro --serve` stats lines).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"submitted\":{},\"rejected\":{},\"expired\":{},\"completed\":{},\
             \"errors\":{},\"cache_hits\":{},\"degraded\":{},\"queue_high_water\":{},\
             \"worker_wakes\":{},\"spurious_wakes\":{},\"bursts\":{},\"lock_wait_us\":{:.1},\
             \"queue_p50_us\":{:.1},\"queue_p99_us\":{:.1},\"per_repr\":{{",
            self.submitted,
            self.rejected,
            self.expired,
            self.completed,
            self.errors,
            self.cache_hits,
            self.degraded,
            self.queue_high_water,
            self.worker_wakes,
            self.spurious_wakes,
            self.bursts,
            self.lock_wait_us,
            self.queue_p50_us,
            self.queue_p99_us,
        );
        for (i, name) in REPR_NAMES.iter().enumerate() {
            let r = &self.per_repr[i];
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{{\"count\":{},\"mean_us\":{:.1},\"p50_us\":{:.1},\"p99_us\":{:.1}}}",
                json_escape(name),
                r.count,
                r.mean_us,
                r.p50_us,
                r.p99_us
            ));
        }
        s.push_str("}}");
        s
    }

    /// Exports the snapshot into a [`TraceSink`] as one span per
    /// representation plus counter events.
    pub fn trace_into(&self, sink: &mut dyn TraceSink) {
        if !sink.is_enabled() {
            return;
        }
        for (i, name) in REPR_NAMES.iter().enumerate() {
            let r = &self.per_repr[i];
            sink.span(
                "service",
                name,
                &format!(
                    "count={} p50_us={:.1} p99_us={:.1}",
                    r.count, r.p50_us, r.p99_us
                ),
                (r.mean_us * 1_000.0) as u64,
            );
        }
        sink.event(0, "service", &format!("completed={}", self.completed));
        sink.event(0, "service", &format!("rejected={}", self.rejected));
        sink.event(0, "service", &format!("expired={}", self.expired));
        sink.event(
            0,
            "service",
            &format!("cache_hit_rate={:.3}", self.cache_hit_rate()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_core::trace::MemorySink;

    #[test]
    fn snapshot_aggregates_and_renders() {
        let m = ServiceMetrics::default();
        m.submitted.store(10, Ordering::Relaxed);
        m.record_answer(InterfaceKind::PetriNet, false, false, 5_000, 100_000);
        m.record_answer(InterfaceKind::PetriNet, false, true, 2_000, 0);
        m.record_answer(InterfaceKind::NaturalLanguage, true, false, 1_000, 2_000);
        let s = m.snapshot();
        assert_eq!(s.submitted, 10);
        assert_eq!(s.completed, 3);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.degraded, 1);
        assert_eq!(s.per_repr[2].count, 1);
        assert_eq!(s.per_repr[2].mean_us, 100.0);
        // Percentiles come from log buckets: within 1/32 of the sample.
        assert!((s.per_repr[2].p50_us - 100.0).abs() <= 100.0 / 32.0);
        assert!((s.queue_p50_us - 2.0).abs() <= 2.0 / 32.0);
        assert!((s.queue_p99_us - 5.0).abs() <= 5.0 / 32.0);
        assert!((s.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        let json = s.to_json();
        assert!(json.contains("\"petri\""));
        assert!(crate::json::Json::parse(&json).is_ok());
        let mut sink = MemorySink::new();
        s.trace_into(&mut sink);
        assert!(sink.len() >= 4);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn memory_does_not_grow_with_answers() {
        let m = ServiceMetrics::default();
        let size = std::mem::size_of_val(&m);
        for i in 0..1_000_000u64 {
            m.record_answer(InterfaceKind::Program, false, i % 2 == 0, i, 3 * i);
        }
        let s = m.snapshot();
        assert_eq!((s.completed, s.cache_hits), (1_000_000, 500_000));
        assert_eq!(s.per_repr[1].count, 500_000);
        // Every field is inline and fixed-size: no sample vectors.
        assert_eq!(std::mem::size_of_val(&m), size);
    }
}
