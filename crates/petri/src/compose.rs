//! Net composition: gluing component nets together.
//!
//! §5 of the paper proposes building Petri nets for shared structures
//! (TLBs, interconnects, memory systems) *once* and reusing them across
//! accelerators. That requires composition: merging two nets by
//! identifying boundary places — tokens leaving one component's output
//! place flow into the other's input place.
//!
//! `compose(a, b, glue)` produces a net containing both components'
//! places and transitions, with each `(a_place, b_place)` pair in
//! `glue` fused into a single place. Ungled names from `b` are
//! prefixed with `"{b.name}."` to avoid collisions.

use crate::net::{Net, PlaceId};
use crate::PetriError;

/// Composes two nets by fusing the given boundary places.
///
/// For each `(in_a, in_b)` pair, the place named `in_a` in `a` and the
/// place named `in_b` in `b` become one place with the **minimum** of
/// the two capacities (`None` = unbounded, so `min(None, Some(c)) =
/// Some(c)`). Taking the min preserves both components' backpressure
/// guarantees: neither side ever sees more tokens buffered at the
/// boundary than its own model allowed. The fused place is a sink only
/// if *both* glued places are sinks; gluing a sink of `a` to a consumed
/// place of `b` clears the flag (tokens now flow onward instead of
/// completing).
pub fn compose(a: Net, b: Net, glue: &[(&str, &str)], name: &str) -> Result<Net, PetriError> {
    // Resolve glue pairs up front. Each place — on *either* side — may
    // appear in at most one pair: repeating a `b` place would give one
    // consumer two producers' identities, and repeating an `a` place
    // would three-way-merge places with no defined token-flow
    // semantics. Fan-out/fan-in must be modeled with explicit router
    // or merge transitions, not by aliasing the glue.
    let mut b_to_a: Vec<Option<PlaceId>> = vec![None; b.places().len()];
    let mut a_glued: Vec<bool> = vec![false; a.places().len()];
    for (an, bn) in glue {
        let pa = a.place_id(an).ok_or_else(|| {
            PetriError::Structure(format!("glue place `{an}` not in `{}`", a.name))
        })?;
        let pb = b.place_id(bn).ok_or_else(|| {
            PetriError::Structure(format!("glue place `{bn}` not in `{}`", b.name))
        })?;
        if b_to_a[pb.index()].is_some() {
            return Err(PetriError::Structure(format!(
                "place `{bn}` glued more than once"
            )));
        }
        if std::mem::replace(&mut a_glued[pa.index()], true) {
            return Err(PetriError::Structure(format!(
                "place `{an}` glued more than once"
            )));
        }
        b_to_a[pb.index()] = Some(pa);
    }

    let Net {
        mut places,
        mut transitions,
        ..
    } = a;

    // Import b's places, remapping ids. Glued places merge their
    // attributes into a's place instead of being dropped wholesale:
    // capacity takes the min (both components' backpressure bounds
    // hold), and the sink flag survives only if both sides are sinks.
    let b_prefix = format!("{}.", b.name);
    let Net {
        places: b_places,
        transitions: b_transitions,
        ..
    } = b;
    let mut b_map: Vec<PlaceId> = Vec::with_capacity(b_places.len());
    for (i, mut p) in b_places.into_iter().enumerate() {
        if let Some(target) = b_to_a[i] {
            let fused = &mut places[target.index()];
            fused.capacity = match (fused.capacity, p.capacity) {
                (Some(ca), Some(cb)) => Some(ca.min(cb)),
                (Some(c), None) | (None, Some(c)) => Some(c),
                (None, None) => None,
            };
            fused.is_sink = fused.is_sink && p.is_sink;
            b_map.push(target);
        } else {
            p.name = format!("{b_prefix}{}", p.name);
            places.push(p);
            b_map.push(PlaceId(places.len() - 1));
        }
    }

    for mut t in b_transitions {
        t.name = format!("{b_prefix}{}", t.name);
        for (p, _) in t.inputs.iter_mut().chain(t.outputs.iter_mut()) {
            *p = b_map[p.index()];
        }
        transitions.push(t);
    }

    let composed = Net::assemble(name.to_string(), places, transitions);
    // Re-validate the merged structure (e.g. a glued sink must not be
    // consumed from).
    revalidate(&composed)?;
    Ok(composed)
}

fn revalidate(net: &Net) -> Result<(), PetriError> {
    for t in net.transitions() {
        let mut in_places = std::collections::HashSet::new();
        for &(p, _) in &t.inputs {
            if net.places()[p.index()].is_sink {
                return Err(PetriError::Structure(format!(
                    "transition `{}` consumes from sink `{}` after composition",
                    t.name,
                    net.places()[p.index()].name
                )));
            }
            // Gluing two of a transition's input places into one would
            // make it select overlapping FIFO heads.
            if !in_places.insert(p.index()) {
                return Err(PetriError::Structure(format!(
                    "transition `{}` has duplicate input arcs from `{}` after composition",
                    t.name,
                    net.places()[p.index()].name
                )));
            }
        }
    }
    let mut names = std::collections::HashSet::new();
    for p in net.places() {
        if !names.insert(&p.name) {
            return Err(PetriError::Structure(format!(
                "duplicate place `{}` after composition",
                p.name
            )));
        }
    }
    Ok(())
}

/// Convenience: validates that `t` is exported unchanged (used by
/// tests poking at composition internals).
pub fn transition_names(net: &Net) -> Vec<String> {
    net.transitions().iter().map(|t| t.name.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;
    use crate::token::Token;
    use crate::{CompiledNet, Options};
    use perf_iface_lang::Value;

    /// Front component: a 3-cycle stage ending in a boundary place.
    fn front() -> Net {
        let mut b = NetBuilder::new("front");
        let src = b.place("src", None);
        let out = b.sink("boundary_out");
        b.transition(
            "stage_a",
            &[src],
            &[out],
            |_| 3,
            |ts| vec![ts[0].data.clone()],
        );
        b.build().expect("valid")
    }

    /// Back component: consumes from a boundary place, 5-cycle stage.
    fn back() -> Net {
        let mut b = NetBuilder::new("back");
        let inp = b.place("boundary_in", Some(2));
        let done = b.sink("done");
        b.transition(
            "stage_b",
            &[inp],
            &[done],
            |_| 5,
            |ts| vec![ts[0].data.clone()],
        );
        b.build().expect("valid")
    }

    /// The monolithic equivalent of front ∘ back.
    fn monolithic() -> Net {
        let mut b = NetBuilder::new("mono");
        let src = b.place("src", None);
        let mid = b.place("mid", None);
        let done = b.sink("done");
        b.transition(
            "stage_a",
            &[src],
            &[mid],
            |_| 3,
            |ts| vec![ts[0].data.clone()],
        );
        b.transition(
            "stage_b",
            &[mid],
            &[done],
            |_| 5,
            |ts| vec![ts[0].data.clone()],
        );
        b.build().expect("valid")
    }

    fn run(net: &Net, n: usize) -> crate::SimResult {
        let src = net.place_id("src").expect("src");
        let plan = CompiledNet::compile(net);
        let mut e = plan.stepper(net, Options::default());
        for i in 0..n {
            e.inject(src, Token::at(Value::num(i as f64), 0));
        }
        e.run().expect("runs")
    }

    #[test]
    fn composition_equals_monolithic() {
        let composed =
            compose(front(), back(), &[("boundary_out", "boundary_in")], "pipe").expect("composes");
        let rc = run(&composed, 20);
        let rm = run(&monolithic(), 20);
        assert_eq!(rc.completions.len(), 20);
        assert_eq!(rc.makespan, rm.makespan);
        assert_eq!(rc.latencies(), rm.latencies());
    }

    #[test]
    fn glued_sink_becomes_interior() {
        let composed =
            compose(front(), back(), &[("boundary_out", "boundary_in")], "pipe").expect("composes");
        let pid = composed.place_id("boundary_out").expect("kept a's name");
        assert!(!composed.places()[pid.index()].is_sink);
        // The back component's remaining places got prefixed.
        assert!(composed.place_id("back.done").is_some());
        assert!(transition_names(&composed).contains(&"back.stage_b".to_string()));
    }

    #[test]
    fn unknown_glue_place_rejected() {
        assert!(compose(front(), back(), &[("nope", "boundary_in")], "x").is_err());
        assert!(compose(front(), back(), &[("boundary_out", "nope")], "x").is_err());
    }

    #[test]
    fn double_glue_rejected() {
        let mut b = NetBuilder::new("two_outs");
        let src = b.place("src", None);
        let o1 = b.sink("o1");
        let o2 = b.sink("o2");
        b.transition(
            "t",
            &[src],
            &[o1, o2],
            |_| 1,
            |ts| vec![ts[0].data.clone(), ts[0].data.clone()],
        );
        let a = b.build().expect("valid");
        assert!(compose(
            a,
            back(),
            &[("o1", "boundary_in"), ("o2", "boundary_in")],
            "x"
        )
        .is_err());
    }

    #[test]
    fn double_glue_of_one_a_place_rejected() {
        // The dual of `double_glue_rejected`: one producer place named
        // in two pairs would merge both consumer inputs into it — a
        // three-way fusion that silently aliased fan-out before the
        // check existed.
        let mut b = NetBuilder::new("two_ins");
        let i1 = b.place("i1", Some(2));
        let i2 = b.place("i2", Some(2));
        let done = b.sink("done");
        b.transition("t1", &[i1], &[done], |_| 1, |ts| vec![ts[0].data.clone()]);
        b.transition("t2", &[i2], &[done], |_| 1, |ts| vec![ts[0].data.clone()]);
        let consumer = b.build().expect("valid");
        let err = compose(
            front(),
            consumer,
            &[("boundary_out", "i1"), ("boundary_out", "i2")],
            "x",
        )
        .expect_err("same a place in two pairs must be rejected");
        assert!(err.to_string().contains("glued more than once"), "{err}");
    }

    #[test]
    fn fused_capacity_takes_min() {
        // a's boundary is an unbounded sink; b's input holds 2. The
        // fused place must take b's bound — keeping a's unbounded
        // capacity would silently erase b's backpressure semantics.
        let composed =
            compose(front(), back(), &[("boundary_out", "boundary_in")], "pipe").expect("composes");
        let pid = composed.place_id("boundary_out").expect("kept a's name");
        assert_eq!(composed.places()[pid.index()].capacity, Some(2));

        // Both bounded: min wins, in either orientation.
        let bounded_front = |cap| {
            let mut b = NetBuilder::new("front");
            let src = b.place("src", None);
            let out = b.place("boundary_out", Some(cap));
            let done = b.sink("adrain");
            b.transition("fill", &[src], &[out], |_| 1, |ts| vec![ts[0].data.clone()]);
            b.transition(
                "adrain_t",
                &[out],
                &[done],
                |_| 1,
                |ts| vec![ts[0].data.clone()],
            );
            b.build().expect("valid")
        };
        let c = compose(
            bounded_front(7),
            back(),
            &[("boundary_out", "boundary_in")],
            "x",
        )
        .expect("composes");
        let pid = c.place_id("boundary_out").expect("place");
        assert_eq!(c.places()[pid.index()].capacity, Some(2));
        let c = compose(
            bounded_front(1),
            back(),
            &[("boundary_out", "boundary_in")],
            "y",
        )
        .expect("composes");
        let pid = c.place_id("boundary_out").expect("place");
        assert_eq!(c.places()[pid.index()].capacity, Some(1));
    }

    #[test]
    fn fused_capacity_matches_monolithic_backpressure() {
        // Fast producer (1 cy) into a 5-cycle consumer through a
        // 2-deep boundary: the composed net must reproduce the
        // monolithic bounded-queue timing exactly.
        let fast_front = || {
            let mut b = NetBuilder::new("front");
            let src = b.place("src", None);
            let out = b.sink("boundary_out");
            b.transition(
                "stage_a",
                &[src],
                &[out],
                |_| 1,
                |ts| vec![ts[0].data.clone()],
            );
            b.build().expect("valid")
        };
        let mono = {
            let mut b = NetBuilder::new("mono");
            let src = b.place("src", None);
            let mid = b.place("mid", Some(2));
            let done = b.sink("done");
            b.transition(
                "stage_a",
                &[src],
                &[mid],
                |_| 1,
                |ts| vec![ts[0].data.clone()],
            );
            b.transition(
                "stage_b",
                &[mid],
                &[done],
                |_| 5,
                |ts| vec![ts[0].data.clone()],
            );
            b.build().expect("valid")
        };
        let composed = compose(
            fast_front(),
            back(),
            &[("boundary_out", "boundary_in")],
            "pipe",
        )
        .expect("composes");
        let rc = run(&composed, 16);
        let rm = run(&mono, 16);
        assert_eq!(rc.completions.len(), 16);
        assert_eq!(rc.makespan, rm.makespan);
        assert_eq!(rc.latencies(), rm.latencies());
    }

    #[test]
    fn glued_sink_stays_sink_when_both_sides_are_sinks() {
        // Two components whose *final* places are fused: nobody
        // consumes from the fused place, so it must stay a sink —
        // clearing the flag would strand every completed token.
        let other = {
            let mut b = NetBuilder::new("other");
            let src = b.place("src2", None);
            let done = b.sink("done2");
            b.transition(
                "stage_o",
                &[src],
                &[done],
                |_| 7,
                |ts| vec![ts[0].data.clone()],
            );
            b.build().expect("valid")
        };
        let composed =
            compose(front(), other, &[("boundary_out", "done2")], "merged").expect("composes");
        let pid = composed.place_id("boundary_out").expect("kept a's name");
        assert!(composed.places()[pid.index()].is_sink);

        let src = composed.place_id("src").expect("src");
        let src2 = composed.place_id("other.src2").expect("src2");
        let plan = CompiledNet::compile(&composed);
        let mut e = plan.stepper(&composed, Options::default());
        e.inject(src, Token::at(Value::num(0.0), 0));
        e.inject(src2, Token::at(Value::num(1.0), 0));
        let res = e.run().expect("runs");
        assert_eq!(res.completions.len(), 2);
        assert!(res.stranded.is_empty());
    }

    #[test]
    fn composed_expr_nets_work() {
        // Compose two nets parsed from `.pnet` text — the shipped-
        // artifact path of §5's reuse story.
        let producer = crate::text::parse(
            "net producer\nplace src\nsink out\ntrans p\n  in src\n  out out\n  delay t.cost\n",
        )
        .expect("parses");
        let memsys = crate::text::parse(
            "net memsys\nplace req cap 8\nsink served\ntrans serve\n  in req\n  out served\n  delay 40 + t.cost / 2\n",
        )
        .expect("parses");
        let composed = compose(producer, memsys, &[("out", "req")], "pipeline").expect("composes");
        let src = composed.place_id("src").expect("src");
        let plan = CompiledNet::compile(&composed);
        let mut e = plan.stepper(&composed, Options::default());
        for _ in 0..4 {
            e.inject(
                src,
                Token::at(Value::record([("cost", Value::num(10.0))]), 0),
            );
        }
        let res = e.run().expect("runs");
        assert_eq!(res.completions.len(), 4);
        // Serial: producer 10/token (bottleneck is memsys at 45).
        assert_eq!(res.makespan, 10 + 4 * 45);
    }
}
