//! Structural performance bounds extracted from net topology — no
//! simulation involved.
//!
//! This is the Petri-net half of the cross-tier consistency pass
//! (`perf-xcheck`). A timed net makes two kinds of structural promise
//! that can be read straight off its topology once every transition's
//! delay is enclosed in an interval (via
//! [`crate::behavior::Behavior::delay_interval`] over a declared token box):
//!
//! * **Critical-path latency floor** — a token injected at an entry
//!   place must traverse *some* place→transition→place path to reach a
//!   sink, and each transition on the path holds it for at least the
//!   delay's lower bound. The cheapest such path is a guaranteed lower
//!   bound on per-item latency: queueing, arc weights > 1 and finite
//!   servers only ever add to it.
//! * **Bottleneck throughput ceiling** — a transition whose removal
//!   disconnects every entry from every sink is on *every*
//!   entry-to-sink path, so sustained throughput cannot exceed its
//!   service rate `servers / delay_lo`. The ceiling is the minimum over
//!   all such cut transitions (infinite-server or possibly-zero-delay
//!   transitions impose none). For a linear pipeline of
//!   single-input, single-output stages every transition is a cut,
//!   so this degenerates to the classic bottleneck-stage bound.
//!
//! Both bounds are *sound, not tight*: the program tier's interval must
//! lie above the latency floor and below the throughput ceiling, which
//! is exactly the containment direction `perf-xcheck` checks (`XT101`/
//! `XT102`).

use crate::lint::infer_entries;
use crate::net::{Net, PlaceId};
use perf_iface_lang::lint::{BoxVal, Interval};

/// Structural bounds extracted from a net's topology.
#[derive(Clone, Debug)]
pub struct NetBounds {
    /// Guaranteed per-item latency lower bound in cycles: the cheapest
    /// entry→sink path using each transition's delay lower bound.
    pub latency_lo: f64,
    /// Structural throughput ceiling in items/cycle: the tightest
    /// `servers / delay_lo` over cut transitions, or `+inf` when no
    /// finite-rate transition is unavoidable.
    pub throughput_hi: f64,
    /// Per-transition delay enclosures, in declaration order.
    pub delays: Vec<(String, Interval)>,
    /// Entry places the bounds were computed from (declared or
    /// inferred).
    pub entries: Vec<String>,
}

/// Extracts [`NetBounds`] from `net` for tokens drawn from the box
/// `tok`. `entries` defaults to the structurally source-like places
/// ([`infer_entries`]) when `None`. Errors when the net has no entry or
/// no sink is reachable from the entries — there is no entry→sink
/// story to bound.
pub fn bounds(net: &Net, entries: Option<&[PlaceId]>, tok: &BoxVal) -> Result<NetBounds, String> {
    let entry_ids: Vec<PlaceId> = match entries {
        Some(es) => es.to_vec(),
        None => infer_entries(net),
    };
    if entry_ids.is_empty() {
        return Err(format!(
            "net `{}` has no entry places (none declared, none source-like)",
            net.name
        ));
    }
    let delays: Vec<Interval> = net
        .transitions()
        .iter()
        .map(|t| t.behavior.delay_interval(tok))
        .collect();

    let latency_lo = critical_path_floor(net, &entry_ids, &delays)?;
    let throughput_hi = bottleneck_ceiling(net, &entry_ids, &delays);

    Ok(NetBounds {
        latency_lo,
        throughput_hi,
        delays: net
            .transitions()
            .iter()
            .zip(&delays)
            .map(|(t, iv)| (t.name.clone(), *iv))
            .collect(),
        entries: entry_ids
            .iter()
            .map(|p| net.places()[p.index()].name.clone())
            .collect(),
    })
}

/// Convenience wrapper for callers holding an unknown token payload:
/// bounds over the universal box `[0, +inf]` (every field of every
/// token abstracts to "any non-negative number").
pub fn bounds_any(net: &Net, entries: Option<&[PlaceId]>) -> Result<NetBounds, String> {
    bounds(net, entries, &BoxVal::num(0.0, f64::INFINITY))
}

/// Cheapest entry→sink path cost, where entering place `q` through
/// transition `t` costs `delay_lo(t)`. Bellman-Ford-style relaxation to
/// a fixpoint — delays are non-negative and nets are tiny, so the
/// simple loop beats carrying a priority queue.
fn critical_path_floor(net: &Net, entries: &[PlaceId], delays: &[Interval]) -> Result<f64, String> {
    let n = net.places().len();
    let mut dist = vec![f64::INFINITY; n];
    for p in entries {
        dist[p.index()] = 0.0;
    }
    loop {
        let mut changed = false;
        for (ti, t) in net.transitions().iter().enumerate() {
            // A transition cannot fire before every input place has
            // been reached; its outputs appear delay_lo later than the
            // *latest* input. Using the max over inputs keeps the
            // bound sound for joins (both operands must arrive).
            let from = t
                .inputs
                .iter()
                .map(|(p, _)| dist[p.index()])
                .fold(0.0_f64, f64::max);
            if !from.is_finite() {
                continue;
            }
            let cost = from + delays[ti].lo.max(0.0);
            for (q, _) in &t.outputs {
                if cost < dist[q.index()] {
                    dist[q.index()] = cost;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    net.places()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_sink)
        .map(|(i, _)| dist[i])
        .fold(None, |acc: Option<f64>, d| {
            Some(acc.map_or(d, |a| a.min(d)))
        })
        .filter(|d| d.is_finite())
        .ok_or_else(|| {
            format!(
                "net `{}`: no sink is reachable from the entry places",
                net.name
            )
        })
}

/// Minimum service rate over cut transitions. A transition is a cut
/// when removing it leaves no sink reachable from any entry; its rate
/// is `servers / delay_lo` (`servers == 0` means infinite-server, and
/// `delay_lo == 0` allows unbounded rate — neither constrains).
fn bottleneck_ceiling(net: &Net, entries: &[PlaceId], delays: &[Interval]) -> f64 {
    let mut ceiling = f64::INFINITY;
    for (ti, t) in net.transitions().iter().enumerate() {
        if t.servers == 0 || delays[ti].lo <= 0.0 {
            continue;
        }
        if sink_reachable(net, entries, Some(ti)) {
            continue;
        }
        let rate = t.servers as f64 / delays[ti].lo;
        ceiling = ceiling.min(rate);
    }
    ceiling
}

/// Whether any sink is reachable from the entries when transition
/// `skip` is removed from the net.
fn sink_reachable(net: &Net, entries: &[PlaceId], skip: Option<usize>) -> bool {
    let n = net.places().len();
    let mut seen = vec![false; n];
    let mut work: Vec<usize> = entries.iter().map(|p| p.index()).collect();
    for &p in &work {
        seen[p] = true;
    }
    while let Some(p) = work.pop() {
        if net.places()[p].is_sink {
            return true;
        }
        for &ti in &net.consumers[p] {
            if Some(ti) == skip {
                continue;
            }
            for (q, _) in &net.transitions()[ti].outputs {
                if !seen[q.index()] {
                    seen[q.index()] = true;
                    work.push(q.index());
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{fixed_delay, Behavior, ExprBehavior};
    use crate::net::{NetBuilder, Transition};

    fn expr(delay: &str) -> Behavior {
        Behavior::Expr(ExprBehavior::compile("", delay, None, &[None]).unwrap())
    }

    /// in -> a(d=5) -> mid -> b(d=7) -> out
    fn chain() -> Net {
        let mut b = NetBuilder::new("chain");
        let i = b.place("in", None);
        let m = b.place("mid", Some(4));
        let z = b.sink("out");
        b.add_transition(Transition {
            name: "a".into(),
            inputs: vec![(i, 1)],
            outputs: vec![(m, 1)],
            behavior: expr("5"),
            servers: 1,
            priority: 0,
        });
        b.add_transition(Transition {
            name: "b".into(),
            inputs: vec![(m, 1)],
            outputs: vec![(z, 1)],
            behavior: expr("7"),
            servers: 1,
            priority: 0,
        });
        b.build().unwrap()
    }

    #[test]
    fn chain_bounds_are_sum_and_bottleneck() {
        let nb = bounds_any(&chain(), None).unwrap();
        assert_eq!(nb.latency_lo, 12.0);
        assert_eq!(nb.throughput_hi, 1.0 / 7.0);
        assert_eq!(nb.entries, vec!["in".to_string()]);
        assert_eq!(nb.delays[0].1, Interval::point(5.0));
    }

    #[test]
    fn fork_takes_cheapest_path_and_shared_cut() {
        // in -> fast(2) -> out ; in -> slow(9) -> out: neither branch
        // is a cut, so no finite ceiling; floor is the fast path.
        let mut b = NetBuilder::new("fork");
        let i = b.place("in", None);
        let z = b.sink("out");
        for (name, d) in [("fast", "2"), ("slow", "9")] {
            b.add_transition(Transition {
                name: name.into(),
                inputs: vec![(i, 1)],
                outputs: vec![(z, 1)],
                behavior: expr(d),
                servers: 1,
                priority: 0,
            });
        }
        let nb = bounds_any(&b.build().unwrap(), None).unwrap();
        assert_eq!(nb.latency_lo, 2.0);
        assert_eq!(nb.throughput_hi, f64::INFINITY);
    }

    #[test]
    fn multi_server_raises_ceiling() {
        let mut b = NetBuilder::new("ms");
        let i = b.place("in", None);
        let z = b.sink("out");
        b.add_transition(Transition {
            name: "t".into(),
            inputs: vec![(i, 1)],
            outputs: vec![(z, 1)],
            behavior: expr("4"),
            servers: 3,
            priority: 0,
        });
        let nb = bounds_any(&b.build().unwrap(), None).unwrap();
        assert_eq!(nb.throughput_hi, 3.0 / 4.0);
        // Infinite-server: no constraint.
        let mut b = NetBuilder::new("inf");
        let i = b.place("in", None);
        let z = b.sink("out");
        b.add_transition(Transition {
            name: "t".into(),
            inputs: vec![(i, 1)],
            outputs: vec![(z, 1)],
            behavior: expr("4"),
            servers: 0,
            priority: 0,
        });
        let nb = bounds_any(&b.build().unwrap(), None).unwrap();
        assert_eq!(nb.throughput_hi, f64::INFINITY);
    }

    #[test]
    fn token_dependent_delay_uses_box() {
        let mut b = NetBuilder::new("tok");
        let i = b.place("in", None);
        let z = b.sink("out");
        b.add_transition(Transition {
            name: "t".into(),
            inputs: vec![(i, 1)],
            outputs: vec![(z, 1)],
            behavior: expr("10 + t.bits / 2"),
            servers: 1,
            priority: 0,
        });
        let net = b.build().unwrap();
        let tok = BoxVal::record([("bits", BoxVal::num(8.0, 64.0))]);
        let nb = bounds(&net, None, &tok).unwrap();
        assert_eq!(nb.latency_lo, 14.0);
        assert_eq!(nb.throughput_hi, 1.0 / 14.0);
        assert_eq!(nb.delays[0].1, Interval::new(14.0, 42.0));
        // The universal box still gives the constant part as floor.
        let nb = bounds_any(&net, None).unwrap();
        assert_eq!(nb.latency_lo, 10.0);
    }

    #[test]
    fn native_behavior_is_opaque() {
        let mut b = NetBuilder::new("nat");
        let i = b.place("in", None);
        let z = b.sink("out");
        b.add_transition(Transition {
            name: "t".into(),
            inputs: vec![(i, 1)],
            outputs: vec![(z, 1)],
            behavior: fixed_delay(9, 1),
            servers: 1,
            priority: 0,
        });
        let nb = bounds_any(&b.build().unwrap(), None).unwrap();
        assert_eq!(nb.latency_lo, 0.0);
        assert_eq!(nb.throughput_hi, f64::INFINITY);
    }

    #[test]
    fn join_waits_for_latest_input() {
        // in1 -> a(3) -> m1 ; in2 -> b(8) -> m2 ; join(m1, m2, d=1) -> out.
        let mut b = NetBuilder::new("join");
        let i1 = b.place("in1", None);
        let i2 = b.place("in2", None);
        let m1 = b.place("m1", None);
        let m2 = b.place("m2", None);
        let z = b.sink("out");
        for (name, d, i, m) in [("a", "3", i1, m1), ("b", "8", i2, m2)] {
            b.add_transition(Transition {
                name: name.into(),
                inputs: vec![(i, 1)],
                outputs: vec![(m, 1)],
                behavior: expr(d),
                servers: 1,
                priority: 0,
            });
        }
        b.add_transition(Transition {
            name: "join".into(),
            inputs: vec![(m1, 1), (m2, 1)],
            outputs: vec![(z, 1)],
            behavior: expr("1"),
            servers: 1,
            priority: 0,
        });
        let nb = bounds_any(&b.build().unwrap(), None).unwrap();
        // Both inputs must arrive: 8 (slow side) + 1.
        assert_eq!(nb.latency_lo, 9.0);
        // The join is a cut with delay 1.
        assert_eq!(nb.throughput_hi, 1.0);
    }

    #[test]
    fn unreachable_sink_is_an_error() {
        let mut b = NetBuilder::new("cut");
        let i = b.place("in", None);
        let m = b.place("m", None);
        b.sink("out");
        b.add_transition(Transition {
            name: "t".into(),
            inputs: vec![(i, 1)],
            outputs: vec![(m, 1)],
            behavior: expr("1"),
            servers: 1,
            priority: 0,
        });
        let net = b.build().unwrap();
        assert!(bounds_any(&net, None).is_err());
    }
}
