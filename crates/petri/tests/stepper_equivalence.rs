//! Differential suite: the compiled static-topology stepper
//! ([`perf_petri::CompiledNet`]) must be observably identical to the
//! reference full-net fixpoint scan ([`reference::run`]) on randomly
//! generated nets — same makespan, same completions (payload, birth,
//! arrival, order), same event, firing and busy counts, same
//! high-water marks, same stranded report, and the same error on
//! pathological nets. Traced runs must also record the same firings,
//! completion provenance and critical path. `enablement_checks` is a
//! cost counter and stays out of the contract.
//!
//! Nets mix `Native` closures (forcing the stepper's dynamic fallback)
//! with compiled `Expr` behaviors (exercising the specialized
//! guard/delay/emit fast paths) and chain-shaped transitions (the fused
//! `chain_fire` path), so the corpus exercises every execution path.

use perf_iface_lang::Value;
use perf_petri::behavior::{Behavior, ExprBehavior};
use perf_petri::net::{Net, NetBuilder, Transition};
use perf_petri::token::Token;
use perf_petri::trace::{critical_path, DEFAULT_TRACE_CAPACITY};
use perf_petri::{reference, CompiledNet, Options, PetriError, PlaceId, SimResult};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct NetSpec {
    places: Vec<Option<usize>>,
    sinks: usize,
    transitions: Vec<TransSpec>,
    /// Injections: (raw place index, payload, arrival time). Late
    /// arrivals push events past the calendar-wheel horizon, forcing
    /// the stepper's far-heap path.
    injections: Vec<(usize, u64, u64)>,
}

#[derive(Clone, Debug)]
struct TransSpec {
    inputs: Vec<(usize, usize)>,
    outputs: Vec<(usize, usize)>,
    base_delay: u64,
    priority: i32,
    servers: usize,
    /// `Some(threshold)` guards the transition on `payload % 16 < threshold`.
    guard: Option<u64>,
    /// Compiled-expression behavior instead of a native closure.
    expr: bool,
    /// For expr behaviors: emit `t` unchanged (the stepper's
    /// token-reuse fast path) instead of a transformed payload.
    passthrough: bool,
    /// Chain-shaped: the first input and first output arcs at weight 1,
    /// a constant delay ≥ 1, no guard, pass-through — the stepper's
    /// fused `chain_fire` path. Overrides the fields above.
    chain: bool,
}

fn spec_strategy() -> impl Strategy<Value = NetSpec> {
    let place = prop_oneof![Just(None), (1usize..=3).prop_map(Some)];
    let trans = (
        prop::collection::vec((0usize..100, 1usize..=2), 1..=2),
        prop::collection::vec((0usize..100, 1usize..=2), 0..=2),
        0u64..=4,
        -1i32..=2,
        0usize..=2,
        prop_oneof![Just(None), (4u64..=14).prop_map(Some)],
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(inputs, outputs, base_delay, priority, servers, guard, expr, passthrough, chain)| {
                TransSpec {
                    inputs,
                    outputs,
                    base_delay,
                    priority,
                    servers,
                    guard,
                    expr,
                    passthrough,
                    chain,
                }
            },
        );
    (
        prop::collection::vec(place, 2..=5),
        1usize..=2,
        prop::collection::vec(trans, 1..=6),
        prop::collection::vec((0usize..100, 0u64..100, 0u64..5_000), 1..=20),
    )
        .prop_map(|(places, sinks, transitions, injections)| NetSpec {
            places,
            sinks,
            transitions,
            injections,
        })
}

fn native_behavior(t: &TransSpec, n_out: usize) -> Behavior {
    let base = t.base_delay;
    let guard = t.guard.map(|thr| {
        Box::new(move |ts: &[Token]| (ts[0].data.as_num().unwrap_or(0.0) as u64) % 16 < thr)
            as Box<dyn Fn(&[Token]) -> bool>
    });
    Behavior::Native {
        guard,
        delay: Box::new(move |ts: &[Token]| base + (ts[0].data.as_num().unwrap_or(0.0) as u64) % 3),
        transform: Box::new(move |ts: &[Token]| {
            let v = ts
                .iter()
                .map(|t| t.data.as_num().unwrap_or(0.0))
                .sum::<f64>();
            vec![Value::num((v + 1.0) % 1024.0); n_out]
        }),
    }
}

/// The chain shape's behavior: constant delay ≥ 1, no guard, the
/// single payload passed through.
fn chain_behavior(t: &TransSpec) -> Behavior {
    let delay = t.base_delay.max(1).to_string();
    Behavior::Expr(
        ExprBehavior::compile("", &delay, None, &[None])
            .expect("generated behavior source is valid"),
    )
}

fn expr_behavior(t: &TransSpec, n_out: usize) -> Behavior {
    let delay = format!("{} + t % 3", t.base_delay);
    let guard = t.guard.map(|thr| format!("t % 16 < {thr}"));
    let emit = if t.passthrough {
        None
    } else {
        Some("(sum(ts) + 1) % 1024".to_string())
    };
    let emits: Vec<Option<String>> = (0..n_out).map(|_| emit.clone()).collect();
    Behavior::Expr(
        ExprBehavior::compile("", &delay, guard.as_deref(), &emits)
            .expect("generated behavior source is valid"),
    )
}

fn build(spec: &NetSpec) -> Net {
    let mut b = NetBuilder::new("rand");
    let n_regular = spec.places.len();
    let n_total = n_regular + spec.sinks;
    let mut pids = Vec::new();
    for (i, cap) in spec.places.iter().enumerate() {
        pids.push(b.place(format!("p{i}"), *cap));
    }
    for s in 0..spec.sinks {
        pids.push(b.sink(format!("z{s}")));
    }
    for (i, t) in spec.transitions.iter().enumerate() {
        let mut inputs: Vec<(perf_petri::PlaceId, usize)> = Vec::new();
        for &(p, w) in &t.inputs {
            let pid = pids[p % n_regular];
            if !inputs.iter().any(|&(q, _)| q == pid) {
                inputs.push((pid, w));
            }
        }
        let mut outputs: Vec<_> = t
            .outputs
            .iter()
            .map(|&(p, w)| (pids[p % n_total], w))
            .collect();
        let n_out = outputs.len();
        let behavior = if t.chain {
            inputs = vec![(inputs[0].0, 1)];
            // A spec without outputs drains into the first sink.
            let out = t.outputs.first().map_or(n_regular, |&(p, _)| p % n_total);
            outputs = vec![(pids[out], 1)];
            chain_behavior(t)
        } else if t.expr {
            expr_behavior(t, n_out)
        } else {
            native_behavior(t, n_out)
        };
        b.add_transition(Transition {
            name: format!("t{i}"),
            inputs,
            outputs,
            behavior,
            servers: t.servers,
            priority: t.priority,
        });
    }
    b.build().expect("spec-built nets are structurally valid")
}

fn place_name(spec: &NetSpec, idx: usize) -> String {
    if idx < spec.places.len() {
        format!("p{idx}")
    } else {
        format!("z{}", idx - spec.places.len())
    }
}

const OPTS: Options = Options {
    max_events: 5_000,
    fail_on_deadlock: false,
    trace: None,
};

/// The spec's injections, resolved against `net`.
fn injections(spec: &NetSpec, net: &Net) -> Vec<(PlaceId, Token)> {
    let n_total = spec.places.len() + spec.sinks;
    spec.injections
        .iter()
        .map(|&(p, v, at)| {
            let pid = net.place_id(&place_name(spec, p % n_total)).unwrap();
            (pid, Token::at(Value::num(v as f64), at))
        })
        .collect()
}

fn run_reference(spec: &NetSpec, net: &Net, opts: Options) -> Result<SimResult, PetriError> {
    reference::run(net, injections(spec, net), opts)
}

fn run_compiled(spec: &NetSpec, net: &Net, opts: Options) -> Result<SimResult, PetriError> {
    let plan = CompiledNet::compile(net);
    let mut s = plan.stepper(net, opts);
    for (p, t) in injections(spec, net) {
        s.inject(p, t);
    }
    s.run()
}

fn assert_identical(
    label: &str,
    a: &Result<SimResult, PetriError>,
    b: &Result<SimResult, PetriError>,
) {
    match (a, b) {
        (Ok(ra), Ok(rb)) => {
            assert_eq!(ra.makespan, rb.makespan, "{label}: makespan");
            assert_eq!(ra.events, rb.events, "{label}: event count");
            assert_eq!(ra.firings, rb.firings, "{label}: firings");
            assert_eq!(ra.busy, rb.busy, "{label}: busy cycles");
            assert_eq!(ra.high_water, rb.high_water, "{label}: high-water marks");
            assert_eq!(ra.stranded, rb.stranded, "{label}: stranded report");
            assert_eq!(ra.completions, rb.completions, "{label}: completions");
        }
        (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{label}: errors differ"),
        (a, b) => panic!("{label}: one evaluator errored, the other did not:\n  {a:?}\n  {b:?}"),
    }
}

/// Traced runs agree on the contract above and on every firing
/// record, every completion's provenance and the critical path.
fn assert_same_trace(a: &Result<SimResult, PetriError>, b: &Result<SimResult, PetriError>) {
    assert_identical("traced stepper vs reference", a, b);
    let (Ok(ra), Ok(rb)) = (a, b) else {
        return;
    };
    let (ta, tb) = (ra.trace.as_ref().unwrap(), rb.trace.as_ref().unwrap());
    assert!(ta.records().eq(tb.records()), "firing records differ");
    assert_eq!(ta.dropped(), tb.dropped(), "evicted records");
    assert_eq!(
        ta.completion_sources(),
        tb.completion_sources(),
        "completion sources"
    );
    assert_eq!(critical_path(ra), critical_path(rb), "critical path");
}

/// Deterministic branched regression: a fan-out/fan-in diamond whose
/// routers guard on a token *field* (the shape `perf-compose` emits
/// for round-robin DAG stages: record payloads, `r`-field dispatch,
/// multi-server serve, delay-0 merge) must agree across both
/// evaluators. The random corpus above reaches branched topologies but
/// only number payloads; this pins the record/field path.
#[test]
fn field_routed_diamond_matches_across_evaluators() {
    type Guard = Option<Box<dyn Fn(&[Token]) -> bool>>;
    let passthrough = |delay: u64, guard: Guard| Behavior::Native {
        guard,
        delay: Box::new(move |_: &[Token]| delay),
        transform: Box::new(|ts: &[Token]| vec![ts[0].data.clone()]),
    };
    let route = |s: u64| -> Guard {
        Some(Box::new(move |ts: &[Token]| {
            ts[0]
                .data
                .field("r")
                .and_then(Value::as_num)
                .map(|v| v as u64 == s)
                .unwrap_or(false)
        }))
    };
    let mut b = NetBuilder::new("diamond");
    let inp = b.place("in", None);
    let mid = b.place("mid", Some(2));
    let q0 = b.place("q0", Some(2));
    let q1 = b.place("q1", Some(2));
    let acc = b.place("acc", Some(4));
    let out = b.sink("out");
    let tr = |name: &str, i, o, behavior, servers| Transition {
        name: name.to_string(),
        inputs: vec![(i, 1)],
        outputs: vec![(o, 1)],
        behavior,
        servers,
        priority: 0,
    };
    // Two servers up front so in-flight tokens overlap, like a
    // `replicas = 2` stage.
    b.add_transition(tr("serve", inp, mid, passthrough(2, None), 2));
    b.add_transition(tr("r0", mid, q0, passthrough(0, route(0)), 1));
    b.add_transition(tr("r1", mid, q1, passthrough(0, route(1)), 1));
    b.add_transition(tr("w0", q0, acc, passthrough(3, None), 1));
    b.add_transition(tr("w1", q1, acc, passthrough(5, None), 1));
    b.add_transition(tr("ser", acc, out, passthrough(1, None), 1));
    let net = b.build().unwrap();

    let run = |compiled: bool| -> Result<SimResult, PetriError> {
        let opts = Options {
            max_events: 10_000,
            fail_on_deadlock: false,
            trace: None,
        };
        let entry = net.place_id("in").unwrap();
        let tokens = (0..10).map(move |i| {
            let fields = [
                ("r".to_string(), Value::num((i % 2) as f64)),
                ("v".to_string(), Value::num(i as f64)),
            ];
            Token::at(Value::record_owned(fields), i)
        });
        if compiled {
            let plan = CompiledNet::compile(&net);
            let mut s = plan.stepper(&net, opts);
            tokens.for_each(|t| s.inject(entry, t));
            s.run()
        } else {
            reference::run(&net, tokens.map(|t| (entry, t)), opts)
        }
    };
    let compiled = run(true);
    assert_identical("compiled vs reference", &compiled, &run(false));
    let r = compiled.expect("diamond completes");
    assert_eq!(
        r.completions.len(),
        10,
        "all items retired through the merge"
    );
    assert_eq!(
        (r.firings[3], r.firings[4]),
        (5, 5),
        "branch loads split 5/5"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn compiled_stepper_matches_reference(spec in spec_strategy()) {
        let net = build(&spec);
        let compiled = run_compiled(&spec, &net, OPTS);
        let refr = run_reference(&spec, &net, OPTS);
        assert_identical("compiled vs reference", &compiled, &refr);
    }

    #[test]
    fn traced_stepper_matches_traced_reference(spec in spec_strategy()) {
        let net = build(&spec);
        let opts = Options {
            trace: Some(DEFAULT_TRACE_CAPACITY),
            ..OPTS
        };
        assert_same_trace(&run_compiled(&spec, &net, opts), &run_reference(&spec, &net, opts));
    }

    #[test]
    fn evicting_trace_rings_agree(spec in spec_strategy()) {
        // A ring too small for the run: both evaluators evict the same
        // records and truncate the critical path at the same point.
        let net = build(&spec);
        let opts = Options {
            trace: Some(3),
            ..OPTS
        };
        assert_same_trace(&run_compiled(&spec, &net, opts), &run_reference(&spec, &net, opts));
    }
}
