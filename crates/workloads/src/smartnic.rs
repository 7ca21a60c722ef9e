//! §5: composing an accelerator's net with a shared-interconnect
//! component (the SmartNIC case).
//!
//! "A Petri net for a SmartNIC will likely need to include a model of
//! the interconnect, since it can have a significant impact on
//! performance." This study builds a serialization engine's net, then
//! composes it with the reusable interconnect component from
//! `perf_petri::components`. For small messages the engine is the
//! bottleneck and both nets agree; for large messages the interconnect
//! saturates first — a regime the engine-only net cannot see and the
//! composed net predicts.

use perf_core::CoreError;
use perf_iface_lang::Value;
use perf_petri::components;
use perf_petri::compose::compose;
use perf_petri::net::Net;
use perf_petri::text;
use perf_petri::token::Token;
use perf_petri::{CompiledNet, Options};

/// Per-message engine cost: setup plus per-byte work.
const ENGINE_SETUP: u64 = 40;
/// Engine processing bandwidth, bytes per cycle.
const ENGINE_BYTES_PER_CYCLE: u64 = 32;
/// Interconnect flit size in bytes.
pub const NOC_FLIT_BYTES: u64 = 16;
/// Interconnect cycles per flit (shared channel).
pub const NOC_FLIT_CYCLES: u64 = 2;

/// The serialization engine's own net (no interconnect).
pub fn engine_net() -> Result<Net, CoreError> {
    let src = format!(
        "net ser_engine\n\
         place msgs\n\
         sink out\n\
         trans serialize\n\
         \x20 in msgs\n\
         \x20 out out\n\
         \x20 delay {ENGINE_SETUP} + t.bytes / {ENGINE_BYTES_PER_CYCLE}\n\
         \x20 emit out {{ bytes: t.bytes, miss: 0 }}\n"
    );
    Ok(text::parse(&src)?)
}

/// The engine composed with the shared interconnect component.
pub fn smartnic_net() -> Result<Net, CoreError> {
    let engine = engine_net()?;
    let noc = components::interconnect(NOC_FLIT_BYTES, NOC_FLIT_CYCLES)?;
    Ok(compose(engine, noc, &[("out", "req")], "smartnic")?)
}

/// Steady-state cycles per message predicted by `net` for a stream of
/// `n` messages of `bytes` wire bytes.
pub fn cycles_per_message(net: &Net, bytes: u64, n: usize) -> Result<f64, CoreError> {
    let src = net
        .place_id("msgs")
        .ok_or_else(|| CoreError::Artifact("net lacks msgs".into()))?;
    let plan = CompiledNet::compile(net);
    let mut e = plan.stepper(net, Options::default());
    for _ in 0..n {
        e.inject(
            src,
            Token::at(
                Value::record([("bytes", Value::from(bytes)), ("miss", Value::num(0.0))]),
                0,
            ),
        );
    }
    let res = e.run().map_err(CoreError::from)?;
    Ok(res.makespan as f64 / n as f64)
}

/// One row of the study: message size, engine-only prediction, and the
/// composed (engine + interconnect) prediction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NocStudyRow {
    /// Wire bytes per message.
    pub bytes: u64,
    /// Cycles/message predicted by the engine-only net.
    pub engine_only: f64,
    /// Cycles/message predicted by the composed net.
    pub composed: f64,
}

impl NocStudyRow {
    /// How much performance the engine-only net over-promises.
    pub fn optimism(&self) -> f64 {
        self.composed / self.engine_only
    }
}

/// Sweeps message sizes through both nets.
pub fn sweep(n_msgs: usize) -> Result<Vec<NocStudyRow>, CoreError> {
    let engine = engine_net()?;
    let nic = smartnic_net()?;
    [64u64, 128, 256, 512, 1024, 2048, 4096]
        .iter()
        .map(|&bytes| {
            Ok(NocStudyRow {
                bytes,
                engine_only: cycles_per_message(&engine, bytes, n_msgs)?,
                composed: cycles_per_message(&nic, bytes, n_msgs)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interconnect_invisible_for_small_messages() {
        let rows = sweep(40).unwrap();
        let small = rows.first().unwrap();
        // 64 B: engine needs 40+2 cycles, NoC 8 cycles, fully
        // overlapped across messages -> engine-bound, nets agree.
        assert!(
            small.optimism() < 1.1,
            "small messages should agree: {small:?}"
        );
    }

    #[test]
    fn interconnect_dominates_large_messages() {
        let rows = sweep(40).unwrap();
        let large = rows.last().unwrap();
        // 4096 B: engine 40+128 cycles vs NoC 512 cycles/message — the
        // engine-only net over-promises by ~3x.
        assert!(
            large.optimism() > 2.0,
            "large messages must be NoC-bound: {large:?}"
        );
    }

    #[test]
    fn crossover_is_monotone() {
        let rows = sweep(30).unwrap();
        for w in rows.windows(2) {
            assert!(
                w[1].optimism() >= w[0].optimism() * 0.95,
                "optimism should grow with size: {w:?}"
            );
        }
    }
}
