//! Composition-boundary mutation corpus.
//!
//! `compose()` fuses boundary places with min-capacity and
//! both-must-be-sinks semantics precisely so that gluing cannot
//! silently weaken either component's model. These tests seed the
//! classic boundary mistakes — capacity mismatches that make a
//! downstream burst impossible, and sink-to-sink fusions that cut a
//! component off from its token supply — and assert the structural
//! lints (`PN0xx`/`PN1xx`) catch every one.

use perf_iface_lang::Value;
use perf_petri::behavior::Behavior;
use perf_petri::compose::compose;
use perf_petri::lint::lint;
use perf_petri::net::{Net, NetBuilder, Transition};
use perf_petri::text::parse;
use perf_petri::token::Token;
use perf_petri::{reference, CompiledNet, Options, SimResult};

fn net(src: &str) -> perf_petri::Net {
    parse(src).expect("component net parses")
}

/// Correct-by-construction baseline: producer's `out` glued onto
/// consumer's `in`, capacities compatible, downstream still reachable.
#[test]
fn healthy_glue_lints_clean() {
    let a =
        net("net a\nplace in_a\nplace out_a cap 4\ntrans ta\n  in in_a\n  out out_a\n  delay 1\n");
    let b = net("net b\nplace in_b cap 4\nsink done\ntrans tb\n  in in_b\n  out done\n  delay 1\n");
    let g = compose(a, b, &[("out_a", "in_b")], "glued").unwrap();
    let entries = [g.place_id("in_a").unwrap()];
    let ds = lint(&g, Some(&entries));
    assert!(!ds.has_errors(), "{}", ds.render());
}

/// Fused boundary capacity is the min of the two sides: neither
/// component ever sees more buffered tokens than its own model allowed.
#[test]
fn boundary_capacity_takes_the_min() {
    let a =
        net("net a\nplace in_a\nplace out_a cap 2\ntrans ta\n  in in_a\n  out out_a\n  delay 1\n");
    let b = net("net b\nplace in_b cap 8\nsink done\ntrans tb\n  in in_b\n  out done\n  delay 1\n");
    let g = compose(a, b, &[("out_a", "in_b")], "glued").unwrap();
    let fused = g.place_id("out_a").unwrap();
    assert_eq!(g.places()[fused.index()].capacity, Some(2));
}

/// Mutation: the consumer drains the boundary in bursts of 4, but the
/// producer's boundary model is capped at 2 — after min-fusion the
/// burst can never be enabled. `PN105` (arc weight exceeds place
/// capacity) must fire, and `PN104` marks the starved transition dead.
#[test]
fn mismatched_boundary_capacity_burst_is_pn105() {
    let a =
        net("net a\nplace in_a\nplace out_a cap 2\ntrans ta\n  in in_a\n  out out_a\n  delay 1\n");
    let b =
        net("net b\nplace in_b cap 8\nsink done\ntrans tb\n  in in_b x 4\n  out done\n  delay 1\n");
    let g = compose(a, b, &[("out_a", "in_b")], "glued").unwrap();
    let entries = [g.place_id("in_a").unwrap()];
    let ds = lint(&g, Some(&entries));
    assert!(ds.find("PN105").is_some(), "{}", ds.render());
}

/// Mutation: gluing the producer's sink onto the consumer's *sink*
/// (instead of its input) leaves the consumer's real input place with
/// no token source: an initially-unmarked siphon that kills its
/// transition. `PN103`/`PN104` must fire.
#[test]
fn sink_to_sink_fusion_starves_the_consumer() {
    let a = net("net a\nplace in_a\nsink out_a\ntrans ta\n  in in_a\n  out out_a\n  delay 1\n");
    let b = net("net b\nplace in_b\nsink done\ntrans tb\n  in in_b\n  out done\n  delay 1\n");
    let g = compose(a, b, &[("out_a", "done")], "glued").unwrap();
    let entries = [g.place_id("in_a").unwrap()];
    let ds = lint(&g, Some(&entries));
    assert!(
        ds.find("PN103").is_some() || ds.find("PN104").is_some(),
        "{}",
        ds.render()
    );
    // The fused place stays a sink — both sides were sinks — so the
    // consumer's pipeline is provably dead, not merely re-routed.
    let fused = g.place_id("out_a").unwrap();
    assert!(g.places()[fused.index()].is_sink);
}

/// Gluing a sink onto a *consumed* place clears the sink flag: tokens
/// flow onward instead of completing at the boundary.
#[test]
fn sink_to_input_fusion_clears_the_sink_flag() {
    let a = net("net a\nplace in_a\nsink out_a\ntrans ta\n  in in_a\n  out out_a\n  delay 1\n");
    let b = net("net b\nplace in_b\nsink done\ntrans tb\n  in in_b\n  out done\n  delay 1\n");
    let g = compose(a, b, &[("out_a", "in_b")], "glued").unwrap();
    let fused = g.place_id("out_a").unwrap();
    assert!(!g.places()[fused.index()].is_sink);
}

/// Mutation: glue names that don't exist on either side are hard
/// errors, not silent no-ops.
#[test]
fn unknown_glue_places_are_rejected() {
    const A: &str = "net a\nplace in_a\nsink out_a\ntrans ta\n  in in_a\n  out out_a\n  delay 1\n";
    const B: &str = "net b\nplace in_b\nsink done\ntrans tb\n  in in_b\n  out done\n  delay 1\n";
    assert!(compose(net(A), net(B), &[("nope", "in_b")], "g").is_err());
    assert!(compose(net(A), net(B), &[("out_a", "nope")], "g").is_err());
}

/// Mutation: one *producer* place glued onto two consumer places is
/// rejected too — before the check, `compose` silently three-way-merged
/// the places, aliasing what looks like fan-out into a single queue.
/// Fan-out must be modeled with explicit router/broadcast transitions.
#[test]
fn aliased_producer_glue_is_rejected() {
    let a = net("net a\nplace in_a\nsink out_a\ntrans ta\n  in in_a\n  out out_a\n  delay 1\n");
    let b = net(
        "net b\nplace in_b\nplace in_b2\nsink done\ntrans tb\n  in in_b\n  out done\n  delay 1\ntrans tb2\n  in in_b2\n  out done\n  delay 1\n",
    );
    let e = compose(a, b, &[("out_a", "in_b"), ("out_a", "in_b2")], "g")
        .expect_err("aliased producer glue must be a Structure error");
    assert!(e.to_string().contains("out_a"), "{e}");
    assert!(e.to_string().contains("glued more than once"), "{e}");
}

/// Mutation: double-gluing one consumer place onto two producer places
/// is rejected — a fused place must have exactly one identity.
#[test]
fn double_glue_is_rejected() {
    let a = net(
        "net a\nplace in_a\nsink out_a\nsink out_a2\ntrans ta\n  in in_a\n  out out_a\n  delay 1\ntrans ta2\n  in in_a\n  out out_a2\n  delay 1\n",
    );
    let b = net("net b\nplace in_b\nsink done\ntrans tb\n  in in_b\n  out done\n  delay 1\n");
    assert!(compose(a, b, &[("out_a", "in_b"), ("out_a2", "in_b")], "g").is_err());
}

// ---------------------------------------------------------------------
// Differential: a fan-out/fan-in diamond built by gluing four component
// nets must be observably identical to the same diamond hand-built as
// one monolithic net — on the reference scan and the compiled stepper. This is the semantic half of the aliasing
// story above: the *legal* way to express fan-out (explicit guarded
// router transitions, distinct 1-to-1 glue pairs) must cost nothing.
// ---------------------------------------------------------------------

/// Passthrough behavior with a fixed delay.
fn work(delay: u64) -> Behavior {
    Behavior::Native {
        guard: None,
        delay: Box::new(move |_: &[Token]| delay),
        transform: Box::new(|ts: &[Token]| vec![ts[0].data.clone()]),
    }
}

/// Passthrough with a payload-dependent delay so token order matters.
fn serve() -> Behavior {
    Behavior::Native {
        guard: None,
        delay: Box::new(|ts: &[Token]| 1 + (ts[0].data.as_num().unwrap_or(0.0) as u64) % 2),
        transform: Box::new(|ts: &[Token]| vec![ts[0].data.clone()]),
    }
}

/// Router: forwards only tokens whose payload parity is `s`, delay 0.
fn route(s: u64) -> Behavior {
    Behavior::Native {
        guard: Some(Box::new(move |ts: &[Token]| {
            (ts[0].data.as_num().unwrap_or(0.0) as u64) % 2 == s
        })),
        delay: Box::new(|_: &[Token]| 0),
        transform: Box::new(|ts: &[Token]| vec![ts[0].data.clone()]),
    }
}

fn tr(
    name: &str,
    inputs: Vec<(perf_petri::PlaceId, usize)>,
    outputs: Vec<(perf_petri::PlaceId, usize)>,
    behavior: Behavior,
) -> Transition {
    Transition {
        name: name.to_string(),
        inputs,
        outputs,
        behavior,
        servers: 1,
        priority: 0,
    }
}

/// The diamond as four components glued pairwise: a guarded router
/// source, two unlike branches, and a latch-and-merge collector. Every
/// glue pair is a distinct 1-to-1 fusion.
fn glued_diamond() -> Net {
    let src = {
        let mut b = NetBuilder::new("src");
        let inp = b.place("in", None);
        let mid = b.place("mid", Some(2));
        let out0 = b.sink("out0");
        let out1 = b.sink("out1");
        b.add_transition(tr("serve", vec![(inp, 1)], vec![(mid, 1)], serve()));
        b.add_transition(tr("r0", vec![(mid, 1)], vec![(out0, 1)], route(0)));
        b.add_transition(tr("r1", vec![(mid, 1)], vec![(out1, 1)], route(1)));
        b.build().unwrap()
    };
    let branch = |name: &str, delay: u64| {
        let mut b = NetBuilder::new(name);
        let inp = b.place("in", Some(2));
        let done = b.sink("done");
        b.add_transition(tr("work", vec![(inp, 1)], vec![(done, 1)], work(delay)));
        b.build().unwrap()
    };
    let merge = {
        let mut b = NetBuilder::new("merge");
        let in0 = b.place("in0", Some(1));
        let in1 = b.place("in1", Some(1));
        let q = b.place("q", Some(4));
        let out = b.sink("out");
        b.add_transition(tr("m0", vec![(in0, 1)], vec![(q, 1)], work(0)));
        b.add_transition(tr("m1", vec![(in1, 1)], vec![(q, 1)], work(0)));
        b.add_transition(tr("ser", vec![(q, 1)], vec![(out, 1)], work(1)));
        b.build().unwrap()
    };
    let g = compose(src, branch("b0", 2), &[("out0", "in")], "g1").unwrap();
    let g = compose(g, branch("b1", 3), &[("out1", "in")], "g2").unwrap();
    compose(g, merge, &[("b0.done", "in0"), ("b1.done", "in1")], "glued").unwrap()
}

/// The same diamond declared directly, mirroring the fused boundary
/// semantics (min capacities, cleared sink flags) and the glued net's
/// place/transition declaration order so tie-breaks agree.
fn monolithic_diamond() -> Net {
    let mut b = NetBuilder::new("mono");
    let inp = b.place("in", None);
    let mid = b.place("mid", Some(2));
    let out0 = b.place("out0", Some(2));
    let out1 = b.place("out1", Some(2));
    let d0 = b.place("d0", Some(1));
    let d1 = b.place("d1", Some(1));
    let q = b.place("q", Some(4));
    let out = b.sink("out");
    b.add_transition(tr("serve", vec![(inp, 1)], vec![(mid, 1)], serve()));
    b.add_transition(tr("r0", vec![(mid, 1)], vec![(out0, 1)], route(0)));
    b.add_transition(tr("r1", vec![(mid, 1)], vec![(out1, 1)], route(1)));
    b.add_transition(tr("w0", vec![(out0, 1)], vec![(d0, 1)], work(2)));
    b.add_transition(tr("w1", vec![(out1, 1)], vec![(d1, 1)], work(3)));
    b.add_transition(tr("m0", vec![(d0, 1)], vec![(q, 1)], work(0)));
    b.add_transition(tr("m1", vec![(d1, 1)], vec![(q, 1)], work(0)));
    b.add_transition(tr("ser", vec![(q, 1)], vec![(out, 1)], work(1)));
    b.build().unwrap()
}

fn run_diamond(n: &Net, compiled: bool) -> SimResult {
    let opts = Options {
        max_events: 10_000,
        fail_on_deadlock: false,
        trace: None,
    };
    let entry = n.place_id("in").unwrap();
    let inject: Vec<Token> = (0..8)
        .map(|i| Token::at(Value::num(i as f64), i / 2))
        .collect();
    let res = if compiled {
        let plan = CompiledNet::compile(n);
        let mut s = plan.stepper(n, opts);
        for t in inject {
            s.inject(entry, t);
        }
        s.run()
    } else {
        reference::run(n, inject.into_iter().map(|t| (entry, t)), opts)
    };
    res.expect("diamond runs to completion")
}

/// The glued diamond and its hand-built monolithic twin agree on
/// makespan, completion stream, per-transition firing counts and
/// high-water marks — under both evaluators.
#[test]
fn glued_diamond_matches_monolithic_equivalent_on_all_evaluators() {
    let glued = glued_diamond();
    let mono = monolithic_diamond();
    assert_eq!(glued.places().len(), mono.places().len());
    for (label, compiled) in [("reference", false), ("compiled", true)] {
        let rg = run_diamond(&glued, compiled);
        let rm = run_diamond(&mono, compiled);
        assert_eq!(rg.makespan, rm.makespan, "{label}: makespan");
        assert_eq!(rg.completions, rm.completions, "{label}: completions");
        assert_eq!(rg.firings, rm.firings, "{label}: firings");
        assert_eq!(rg.high_water, rm.high_water, "{label}: high-water");
        // Both branches actually ran: 4 even and 4 odd payloads.
        let w0 = rg.firings[3];
        let w1 = rg.firings[4];
        assert_eq!((w0, w1), (4, 4), "{label}: branch loads");
        assert_eq!(rg.completions.len(), 8, "{label}: all items retired");
    }
}
