//! Query-service adapter for the Protoacc serializer.
//!
//! Implements [`perf_core::query::QueryBackend`] for `perf-service`;
//! the conformance harness checks the same backend. Spec kinds:
//! `format` picks one of the 32 suite formats, `nested` builds a
//! pointer-chase-heavy wrap-chain of the given depth.

use crate::descriptor::{FieldDesc, FieldKind, Message, MessageDesc};
use crate::interface;
use crate::simx::{ProtoWorkload, ProtoaccSim};
use crate::{suite, wire};
use perf_core::iface::{InterfaceBundle, InterfaceKind, Metric};
use perf_core::query::{QueryBackend, WorkloadSpec};
use perf_core::{Budget, CoreError, GroundTruth, Observation, Prediction};

/// The serializer's query-service backend.
pub struct ProtoaccService {
    bundle: InterfaceBundle<ProtoWorkload>,
    formats: Vec<MessageDesc>,
}

impl ProtoaccService {
    /// Builds the backend with the shipped interface bundle and the
    /// 32-format workload suite.
    pub fn new() -> ProtoaccService {
        ProtoaccService {
            bundle: interface::bundle(),
            formats: suite::formats(),
        }
    }

    /// Realizes a spec into a message stream.
    pub fn realize(&self, spec: &WorkloadSpec) -> Result<ProtoWorkload, CoreError> {
        let n = spec.get_uint_in("n", 1..=4096)? as usize;
        let seed = spec.get_or("seed", 1.0) as u64;
        match spec.kind.as_str() {
            "format" => {
                let idx = spec.get_uint("idx")? as usize;
                let desc = self.formats.get(idx).ok_or_else(|| {
                    CoreError::Artifact(format!(
                        "protoacc: format index {idx} out of range (suite has {})",
                        self.formats.len()
                    ))
                })?;
                Ok(ProtoWorkload::of_format(desc, n, seed))
            }
            "nested" => {
                let depth = spec.get_uint_in("depth", 0..=24)? as usize;
                Ok(ProtoWorkload::of_format(&nested(depth), n, seed))
            }
            other => Err(CoreError::Artifact(format!(
                "protoacc: unknown spec kind `{other}`"
            ))),
        }
    }
}

impl Default for ProtoaccService {
    fn default() -> Self {
        ProtoaccService::new()
    }
}

/// Builds the `depth`-level nested format behind the `nested` spec
/// kind: a leaf of four `uint64` fields wrapped `depth` times, each
/// wrapper one more pointer chase.
pub fn nested(depth: usize) -> MessageDesc {
    let mut d = MessageDesc::new(
        "leaf",
        (0..4)
            .map(|i| FieldDesc::single(i + 1, FieldKind::Uint64))
            .collect(),
    );
    for _ in 0..depth {
        d = MessageDesc::new(
            "wrap",
            vec![
                FieldDesc::single(1, FieldKind::Uint64),
                FieldDesc::single(2, FieldKind::Message(Box::new(d))),
            ],
        );
    }
    d
}

/// Structural cost summary of one message: (sub)message count
/// including the root, total fields, wire bytes, and output chunks.
struct MsgStats {
    msgs: u64,
    fields: u64,
    bytes: u64,
    chunks: u64,
}

fn stats(msg: &Message) -> MsgStats {
    fn count(m: &Message) -> u64 {
        1 + m.submessages().map(count).sum::<u64>()
    }
    let bytes = wire::encoded_len(msg) as u64;
    MsgStats {
        msgs: count(msg),
        fields: msg.total_fields() as u64,
        bytes,
        chunks: bytes.div_ceil(16).max(1),
    }
}

/// Per-message closed-form latency bounds derived from the NL claims.
///
/// The NL interface says: "reading costs a setup plus two
/// pointer-chasing memory accesses per (sub)message and a descriptor
/// fetch per 32 fields; writing drains one 16-byte chunk per cycle;
/// read and write overlap". With the memory system's hit/worst-case
/// access latencies that prose bounds one message's latency:
///
/// * lower — the reader's pointer chases at best-case (row-hit) DRAM
///   latency, or the writer's drain, whichever is larger (overlap
///   means the slower side is a floor);
/// * upper — every access worst-case (row miss + TLB walk + channel
///   queueing), no overlap at all, plus drain and fill slack.
fn msg_latency_bounds(s: &MsgStats) -> (f64, f64) {
    // Best-case access: row hit (40) + one transfer cycle.
    const MEM_MIN: f64 = 41.0;
    // Worst-case access: row miss + TLB walk + queueing behind the
    // channel; deliberately beyond the program interface's MEM_MAX.
    const MEM_MAX: f64 = 260.0;
    let descs = s.fields.div_ceil(32) as f64;
    let read_min = s.msgs as f64 * (6.0 + 2.0 * MEM_MIN);
    let write_min = 5.0 + s.chunks as f64;
    let lo = read_min.max(write_min);
    let hi = s.msgs as f64 * (6.0 + 2.0 * MEM_MAX)
        + descs * (4.0 + MEM_MAX)
        + s.bytes as f64 / 16.0
        + 5.0
        + 3.0 * s.chunks as f64
        + MEM_MAX
        + 500.0;
    (lo, hi)
}

/// The natural-language closed-form bound for a message stream.
///
/// Latency is the first message's latency (the stream's pipeline fill);
/// throughput amortizes over the stream: at worst every message runs
/// serially at its worst case, at best the stream is bound only by the
/// reader's or writer's aggregate floor.
pub fn nl_bounds(w: &ProtoWorkload, metric: Metric) -> Prediction {
    let all: Vec<MsgStats> = w.messages.iter().map(stats).collect();
    match metric {
        Metric::Latency => {
            let (lo, hi) = msg_latency_bounds(&all[0]);
            Prediction::bounds(lo, hi)
        }
        Metric::Throughput => {
            let n = w.messages.len() as f64;
            let serial_worst: f64 = all.iter().map(|s| msg_latency_bounds(s).1).sum();
            let read_floor: f64 = all.iter().map(|s| s.msgs as f64 * (6.0 + 2.0 * 41.0)).sum();
            let write_floor: f64 = all.iter().map(|s| 5.0 + s.chunks as f64).sum();
            Prediction::bounds(n / serial_worst, n / read_floor.max(write_floor))
        }
    }
}

impl QueryBackend for ProtoaccService {
    fn accel(&self) -> &'static str {
        "protoacc"
    }

    fn spec_kinds(&self) -> &'static [&'static str] {
        &["format", "nested"]
    }

    fn predict(
        &mut self,
        spec: &WorkloadSpec,
        repr: InterfaceKind,
        metric: Metric,
    ) -> Result<Prediction, CoreError> {
        let w = self.realize(spec)?;
        match repr {
            InterfaceKind::NaturalLanguage => Ok(nl_bounds(&w, metric)),
            _ => self
                .bundle
                .get(repr)
                .ok_or_else(|| CoreError::Artifact(format!("no {} interface", repr.name())))?
                .predict(&w, metric),
        }
    }

    fn budget(&self, repr: InterfaceKind, metric: Metric) -> Budget {
        crate::interface::budget(repr, metric)
    }

    fn measure(&mut self, spec: &WorkloadSpec) -> Result<Observation, CoreError> {
        let w = self.realize(spec)?;
        ProtoaccSim::default().measure(&w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<WorkloadSpec> {
        let mut v = Vec::new();
        for idx in (0..32).step_by(5) {
            v.push(
                WorkloadSpec::new("format")
                    .with("idx", idx as f64)
                    .with("n", 10.0)
                    .with("seed", 40.0 + idx as f64),
            );
        }
        v.push(
            WorkloadSpec::new("format")
                .with("idx", 0.0)
                .with("n", 1.0)
                .with("seed", 90.0),
        );
        for depth in [0.0, 4.0, 8.0] {
            v.push(
                WorkloadSpec::new("nested")
                    .with("depth", depth)
                    .with("n", 6.0)
                    .with("seed", 92.0),
            );
        }
        v
    }

    #[test]
    fn all_reprs_predict_and_nl_contains_sim() {
        let mut svc = ProtoaccService::new();
        for spec in corpus() {
            let obs = svc.measure(&spec).unwrap();
            for metric in [Metric::Latency, Metric::Throughput] {
                for repr in [
                    InterfaceKind::NaturalLanguage,
                    InterfaceKind::Program,
                    InterfaceKind::PetriNet,
                ] {
                    let p = svc.predict(&spec, repr, metric).unwrap();
                    assert!(p.is_finite(), "{spec:?} {repr:?} {metric:?}");
                    if repr == InterfaceKind::NaturalLanguage {
                        assert!(
                            p.contains(metric.of(&obs)),
                            "{spec:?} {metric:?}: {p:?} vs {}",
                            metric.of(&obs)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_fields_are_rejected() {
        let svc = ProtoaccService::new();
        let format = |n: f64| WorkloadSpec::new("format").with("idx", 0.0).with("n", n);
        let nested = |depth: f64| {
            WorkloadSpec::new("nested")
                .with("depth", depth)
                .with("n", 2.0)
        };
        for (spec, want) in [
            (format(0.0), "`format` field `n` = 0 is outside 1..=4096"),
            (
                format(5000.0),
                "`format` field `n` = 5000 is outside 1..=4096",
            ),
            (
                nested(25.0),
                "`nested` field `depth` = 25 is outside 0..=24",
            ),
        ] {
            let err = CoreError::Artifact(format!("spec {want}"));
            assert_eq!(svc.realize(&spec).err(), Some(err));
        }
        assert!(svc.realize(&format(4096.0)).is_ok());
        assert!(svc.realize(&nested(24.0)).is_ok());
    }

    #[test]
    fn bad_format_index_is_rejected() {
        let mut svc = ProtoaccService::new();
        let spec = WorkloadSpec::new("format")
            .with("idx", 9999.0)
            .with("n", 1.0);
        assert!(svc
            .predict(&spec, InterfaceKind::Program, Metric::Latency)
            .is_err());
    }
}
