//! A library of reusable component nets.
//!
//! §5 of the paper: "One possible solution to this challenge could be
//! to develop individual Petri nets for such components once and reuse
//! them across multiple accelerators." This module provides those
//! components — a banked memory system, a TLB front end, and a shared
//! interconnect — as nets with well-known boundary places, ready to be
//! fused onto an accelerator net with [`crate::compose::compose`].
//!
//! Conventions: every component exposes an input place named `req` and
//! a sink named `rsp`. Tokens carry a `bytes` field; delays are PIL
//! expressions so the components ship as text, like any interface.

use crate::net::Net;
use crate::text;
use crate::PetriError;

/// A banked memory system: `banks` parallel service stations behind a
/// shared channel.
///
/// * `req` (cap unbounded) — incoming requests with a `bytes` field.
/// * `rsp` (sink) — completions.
///
/// Delay per request: `lat + bytes / bw`.
pub fn memory_system(banks: usize, lat: u64, bytes_per_cycle: u64) -> Result<Net, PetriError> {
    let src = format!(
        "# Reusable memory-system component (see §5 of the paper).\n\
         net memsys\n\
         const LAT = {lat};\n\
         const BW = {bytes_per_cycle};\n\
         place req\n\
         sink rsp\n\
         trans bank\n\
         \x20 in req\n\
         \x20 out rsp\n\
         \x20 delay LAT + t.bytes / BW\n\
         \x20 servers {banks}\n"
    );
    text::parse(&src)
}

/// A TLB front end: hits pass through in `hit_cycles`, misses pay a
/// page walk. The token's `miss` field (0/1) selects the path —
/// computed upstream by whatever owns the access pattern.
///
/// * `req` — incoming translations.
/// * `rsp` (sink) — completed translations.
pub fn tlb(hit_cycles: u64, walk_cycles: u64) -> Result<Net, PetriError> {
    let src = format!(
        "# Reusable TLB component.\n\
         net tlb\n\
         const HIT = {hit_cycles};\n\
         const WALK = {walk_cycles};\n\
         place req\n\
         sink rsp\n\
         trans hit\n\
         \x20 in req\n\
         \x20 out rsp\n\
         \x20 guard t.miss == 0\n\
         \x20 delay HIT\n\
         \x20 priority 1\n\
         trans miss\n\
         \x20 in req\n\
         \x20 out rsp\n\
         \x20 guard t.miss == 1\n\
         \x20 delay HIT + WALK\n"
    );
    text::parse(&src)
}

/// A shared interconnect: a single channel all requesters contend for,
/// `flit_cycles` per `flit_bytes` of payload.
///
/// * `req` — incoming transfers with a `bytes` field.
/// * `rsp` (sink) — delivered transfers.
pub fn interconnect(flit_bytes: u64, flit_cycles: u64) -> Result<Net, PetriError> {
    let src = format!(
        "# Reusable interconnect component: one shared channel.\n\
         net noc\n\
         const FLIT_BYTES = {flit_bytes};\n\
         const FLIT_CYCLES = {flit_cycles};\n\
         place req\n\
         sink rsp\n\
         trans channel\n\
         \x20 in req\n\
         \x20 out rsp\n\
         \x20 delay ceil(t.bytes / FLIT_BYTES) * FLIT_CYCLES\n"
    );
    text::parse(&src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::compose;
    use crate::token::Token;
    use crate::{CompiledNet, Options};
    use perf_iface_lang::Value;

    fn bytes_token(bytes: f64, miss: f64) -> Token {
        Token::at(
            Value::record([("bytes", Value::num(bytes)), ("miss", Value::num(miss))]),
            0,
        )
    }

    #[test]
    fn memory_system_banks_run_in_parallel() {
        let net = memory_system(4, 100, 16).expect("parses");
        let req = net.place_id("req").expect("req");
        let plan = CompiledNet::compile(&net);
        let mut e = plan.stepper(&net, Options::default());
        for _ in 0..4 {
            e.inject(req, bytes_token(160.0, 0.0));
        }
        let res = e.run().expect("runs");
        // Four banks: all requests serviced concurrently in 100+10.
        assert_eq!(res.makespan, 110);
        assert_eq!(res.completions.len(), 4);
        // One bank would serialize them.
        let net1 = memory_system(1, 100, 16).expect("parses");
        let req1 = net1.place_id("req").expect("req");
        let plan = CompiledNet::compile(&net1);
        let mut e1 = plan.stepper(&net1, Options::default());
        for _ in 0..4 {
            e1.inject(req1, bytes_token(160.0, 0.0));
        }
        assert_eq!(e1.run().expect("runs").makespan, 440);
    }

    #[test]
    fn tlb_routes_hits_and_misses() {
        let net = tlb(2, 50).expect("parses");
        let req = net.place_id("req").expect("req");
        let plan = CompiledNet::compile(&net);
        let mut e = plan.stepper(&net, Options::default());
        e.inject(req, bytes_token(0.0, 0.0)); // Hit.
        e.inject(req, bytes_token(0.0, 1.0)); // Miss.
        let res = e.run().expect("runs");
        let lats = res.latencies();
        assert!(lats.contains(&2));
        assert!(lats.contains(&(2 + 50 + 2)) || lats.contains(&52));
        assert_eq!(res.completions.len(), 2);
    }

    #[test]
    fn accelerator_composed_with_interconnect() {
        // §5's SmartNIC point: an accelerator's net composed with a
        // shared-interconnect component. A 10-cycle engine feeds
        // transfers into the NoC; end-to-end latency includes both.
        let engine = text::parse(
            "net engine\nplace jobs\nsink out\ntrans work\n  in jobs\n  out out\n  delay 10\n  emit out { bytes: t.bytes }\n",
        )
        .expect("parses");
        let noc = interconnect(16, 1).expect("parses");
        let system = compose(engine, noc, &[("out", "req")], "engine_plus_noc").expect("composes");
        let jobs = system.place_id("jobs").expect("jobs");
        let plan = CompiledNet::compile(&system);
        let mut e = plan.stepper(&system, Options::default());
        for _ in 0..3 {
            e.inject(jobs, bytes_token(64.0, 0.0));
        }
        let res = e.run().expect("runs");
        assert_eq!(res.completions.len(), 3);
        // Engine 10/job serializes; each transfer takes 4 flits.
        // Last job finishes engine at 30, then 4 cycles of NoC.
        assert_eq!(res.makespan, 34);
        // Per-job latency: 10 (queued behind predecessors) + 4.
        assert_eq!(res.latencies().last(), Some(&34));
    }

    #[test]
    fn components_are_shippable_text() {
        // Each component's net round-trips through the .pnet parser by
        // construction; check they also analyze cleanly.
        for net in [
            memory_system(2, 80, 16).expect("parses"),
            tlb(1, 40).expect("parses"),
            interconnect(32, 2).expect("parses"),
        ] {
            let s = crate::analysis::structure(&net);
            assert!(s.dead_ends.is_empty());
            assert_eq!(s.sinks, vec!["rsp"]);
        }
    }
}
