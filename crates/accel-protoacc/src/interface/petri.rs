//! Petri-net performance IR for Protoacc.
//!
//! The net has one transition per engine (reader, writer) joined by the
//! internal queue. The ingest adapter walks each message tree once to
//! compute the token's `read_cost` and `write_cost` fields — the token
//! transform that makes downstream delays computable.

use crate::descriptor::Message;
use crate::simx::{ProtoWorkload, ProtoaccConfig};
use crate::wire;
use perf_core::iface::{InterfaceKind, Metric, PerfInterface};
use perf_core::{CoreError, Prediction};
use perf_petri::text;
use perf_petri::token::RecordShape;
use perf_petri::{NetExec, Options, PlaceId};

/// The shipped `.pnet` source.
pub const PROTOACC_PNET_SRC: &str = include_str!("../../assets/protoacc.pnet");

/// Average memory latency constant used by the ingest adapter (same
/// calibration as the program interface).
pub const AVG_MEM_LATENCY: u64 = 145;

/// Writer tail charged on the latency (first-message) path instead of
/// the chunk-scaled [`write_cost`](ProtoaccPetriInterface::write_cost).
///
/// Within one message the hardware writer drains chunks concurrently
/// with the reader's streaming (the simulator releases chunks
/// progressively across each field's interval), so the per-chunk
/// write cost is overlapped, not serial — on 16 KiB payloads the
/// serial model over-predicted by 113%. What remains past the
/// reader's finish is a near-constant flush/store tail; the constant
/// also absorbs the first message's cold-TLB/cold-row extra. The
/// conformance harness measured `sim - (read + data)` between -47 and
/// +242 cycles across the 32-format suite; 140 minimizes the worst
/// relative error (~6.5%).
pub const FIRST_MSG_TAIL: u64 = 140;

/// Petri-net interface for Protoacc.
pub struct ProtoaccPetriInterface {
    exec: NetExec,
    /// The message injection place.
    msgs_in: PlaceId,
    /// Message token fields `read_cost`, `write_cost`.
    msg: RecordShape,
    cfg: ProtoaccConfig,
}

impl ProtoaccPetriInterface {
    /// Parses the shipped net; evaluations run the compiled stepper.
    pub fn new() -> Result<ProtoaccPetriInterface, CoreError> {
        let mut exec = NetExec::new(text::parse(PROTOACC_PNET_SRC)?);
        let msgs_in = exec
            .net()
            .place_id("msgs_in")
            .ok_or_else(|| CoreError::Artifact("net lacks msgs_in".into()))?;
        let msg = exec.record_shape(&["read_cost", "write_cost"]);
        Ok(ProtoaccPetriInterface {
            exec,
            msgs_in,
            msg,
            cfg: ProtoaccConfig::default(),
        })
    }

    /// The `.pnet` source.
    pub fn source(&self) -> &'static str {
        PROTOACC_PNET_SRC
    }

    /// Expected reader cycles for one message tree.
    pub fn read_cost(&self, msg: &Message) -> u64 {
        let groups = msg.num_fields().div_ceil(self.cfg.fields_per_desc).max(1) as u64;
        let own = self.cfg.msg_setup
            + AVG_MEM_LATENCY * self.cfg.ptr_chases
            + (self.cfg.desc_fixed + AVG_MEM_LATENCY) * groups;
        own + msg.submessages().map(|m| self.read_cost(m)).sum::<u64>()
    }

    /// Expected writer cycles for one message.
    pub fn write_cost(&self, msg: &Message) -> u64 {
        let chunks = wire::encoded_len(msg).div_ceil(self.cfg.chunk_bytes).max(1) as u64;
        self.cfg.write_setup + chunks * 2
    }

    /// Expected reader data-streaming cycles for the whole tree.
    pub fn data_cost(&self, msg: &Message) -> u64 {
        wire::encoded_len(msg) as u64 / 16
    }

    /// Runs the net over pre-computed `(read_cost, write_cost)` token
    /// payloads and returns `(makespan, completions)`.
    fn run_costed(&self, costed: &[(u64, u64)]) -> Result<(u64, usize), CoreError> {
        let mut eng = self.exec.session(Options::default());
        for &(rc, wc) in costed {
            eng.inject_record(self.msgs_in, &self.msg, &[rc as f64, wc as f64], 0);
        }
        let res = eng.run().map_err(CoreError::from)?;
        Ok((res.makespan, res.completions.len()))
    }

    /// Runs the net over a stream and returns `(makespan, completions)`.
    pub fn run(&self, msgs: &[Message]) -> Result<(u64, usize), CoreError> {
        let costed: Vec<(u64, u64)> = msgs
            .iter()
            .map(|m| (self.read_cost(m) + self.data_cost(m), self.write_cost(m)))
            .collect();
        self.run_costed(&costed)
    }
}

impl PerfInterface<ProtoWorkload> for ProtoaccPetriInterface {
    fn kind(&self) -> InterfaceKind {
        InterfaceKind::PetriNet
    }

    fn predict(&self, w: &ProtoWorkload, metric: Metric) -> Result<Prediction, CoreError> {
        match metric {
            Metric::Throughput => {
                let (span, n) = self.run(&w.messages)?;
                Ok(Prediction::point(n as f64 / span.max(1) as f64))
            }
            Metric::Latency => {
                // First-message span: the writer overlaps the read, so
                // the token carries the constant tail, not the
                // chunk-scaled steady-state write cost.
                let first = w
                    .messages
                    .first()
                    .ok_or_else(|| CoreError::InvalidObservation("empty stream".into()))?;
                let rc = self.read_cost(first) + self.data_cost(first);
                let (span, _) = self.run_costed(&[(rc, FIRST_MSG_TAIL)])?;
                Ok(Prediction::point(span as f64))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simx::ProtoaccSim;
    use crate::suite;
    use perf_core::validate::validate;

    #[test]
    fn net_runs_on_suite() {
        let iface = ProtoaccPetriInterface::new().unwrap();
        for d in suite::formats().iter().take(6) {
            let w = ProtoWorkload::of_format(d, 4, 9);
            let (span, n) = iface.run(&w.messages).unwrap();
            assert_eq!(n, 4);
            assert!(span > 0);
        }
    }

    // Conformance-harness counterexamples: the latency metric is the
    // *first* message's span, which runs cold (empty TLB, closed DRAM
    // rows) — the steady-state constants under-shot flat singleton
    // formats by 22% — while serializing the chunk-scaled write cost
    // after the read over-shot 16 KiB payloads by 113% (the hardware
    // writer drains chunks while the reader streams). With the
    // constant first-message tail the whole 32-format suite stays
    // inside 10%.
    #[test]
    fn singleton_latency_includes_cold_start() {
        let iface = ProtoaccPetriInterface::new().unwrap();
        let mut worst: f64 = 0.0;
        let mut sum = 0.0;
        let formats = suite::formats();
        for (i, d) in formats.iter().enumerate() {
            let w = ProtoWorkload::of_format(d, 1, 90 + i as u64);
            let mut sim = ProtoaccSim::default();
            let obs = perf_core::GroundTruth::measure(&mut sim, &w).unwrap();
            let pred = iface.predict(&w, Metric::Latency).unwrap();
            let rel = (pred.midpoint() - obs.latency.as_f64()).abs() / obs.latency.as_f64();
            worst = worst.max(rel);
            sum += rel;
        }
        let avg = sum / formats.len() as f64;
        assert!(worst < 0.10, "worst singleton latency error {worst:.3}");
        assert!(avg < 0.05, "avg singleton latency error {avg:.3}");
    }

    #[test]
    fn petri_throughput_tracks_simulator() {
        let iface = ProtoaccPetriInterface::new().unwrap();
        let mut sim = ProtoaccSim::default();
        let workloads: Vec<ProtoWorkload> = suite::formats()
            .iter()
            .map(|d| ProtoWorkload::of_format(d, 30, 17))
            .collect();
        let rep = validate(&mut sim, &iface, Metric::Throughput, &workloads).unwrap();
        // The net models per-message costs and pipelining but not the
        // memory system's fine structure: expect low-teens error at
        // worst.
        assert!(
            rep.point.avg < 0.15,
            "petri tput avg error {:.3}",
            rep.point.avg
        );
    }

    #[test]
    fn read_cost_grows_with_nesting() {
        let iface = ProtoaccPetriInterface::new().unwrap();
        let f = suite::formats();
        let flat = f.iter().find(|d| d.name.ends_with("flat4")).unwrap();
        let deep = f.iter().find(|d| d.name.ends_with("nest7")).unwrap();
        let rc_flat = iface.read_cost(&flat.instantiate(1));
        let rc_deep = iface.read_cost(&deep.instantiate(1));
        assert!(rc_deep > rc_flat * 4);
    }
}
