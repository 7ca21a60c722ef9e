//! Differential suite over native-closure nets with near-simultaneous
//! arrivals: the compiled stepper ([`perf_petri::NetExec`]) must
//! produce results byte-identical to the reference full-net fixpoint
//! scan ([`reference::run`]) — same makespan, same completions
//! (payload, birth and arrival of every token), same event, firing and
//! busy counts, same high-water marks, same stranded report, and the
//! same error on pathological nets (event-budget blowups, deadlocks).

use perf_iface_lang::Value;
use perf_petri::net::{Net, NetBuilder, Transition};
use perf_petri::token::Token;
use perf_petri::{reference, NetExec, Options, PetriError, SimResult};
use proptest::prelude::*;

/// A randomly drawn net + workload, as plain data so the same spec can
/// deterministically build two identical nets.
#[derive(Clone, Debug)]
struct NetSpec {
    /// Regular places: capacity (None = unbounded).
    places: Vec<Option<usize>>,
    /// Number of sink places.
    sinks: usize,
    transitions: Vec<TransSpec>,
    /// Injections: (raw place index, payload, arrival time).
    injections: Vec<(usize, u64, u64)>,
}

#[derive(Clone, Debug)]
struct TransSpec {
    /// Input arcs: (raw regular-place index, weight).
    inputs: Vec<(usize, usize)>,
    /// Output arcs: (raw any-place index, weight).
    outputs: Vec<(usize, usize)>,
    base_delay: u64,
    priority: i32,
    servers: usize,
    /// `Some(threshold)` guards the transition on `payload % 16 < threshold`.
    guard: Option<u64>,
}

fn spec_strategy() -> impl Strategy<Value = NetSpec> {
    let place = prop_oneof![Just(None), (1usize..=3).prop_map(Some),];
    let trans = (
        prop::collection::vec((0usize..100, 1usize..=2), 1..=2),
        prop::collection::vec((0usize..100, 1usize..=2), 0..=2),
        0u64..=4,
        -1i32..=2,
        0usize..=2,
        prop_oneof![Just(None), (4u64..=14).prop_map(Some)],
    )
        .prop_map(
            |(inputs, outputs, base_delay, priority, servers, guard)| TransSpec {
                inputs,
                outputs,
                base_delay,
                priority,
                servers,
                guard,
            },
        );
    (
        prop::collection::vec(place, 2..=5),
        1usize..=2,
        prop::collection::vec(trans, 1..=6),
        prop::collection::vec((0usize..100, 0u64..100, 0u64..20), 1..=20),
    )
        .prop_map(|(places, sinks, transitions, injections)| NetSpec {
            places,
            sinks,
            transitions,
            injections,
        })
}

/// Builds the net described by `spec`. Raw indices are reduced modulo
/// the relevant place count, so every spec is structurally valid.
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
        // Duplicate input arcs from one place are structurally invalid
        // (weights express multi-token consumption); keep the first.
        let mut inputs: Vec<(perf_petri::PlaceId, usize)> = Vec::new();
        for &(p, w) in &t.inputs {
            let pid = pids[p % n_regular];
            if !inputs.iter().any(|&(q, _)| q == pid) {
                inputs.push((pid, w));
            }
        }
        let outputs: Vec<_> = t
            .outputs
            .iter()
            .map(|&(p, w)| (pids[p % n_total], w))
            .collect();
        let n_out = outputs.len();
        let base = t.base_delay;
        let guard = t.guard.map(|thr| {
            Box::new(move |ts: &[Token]| (ts[0].data.as_num().unwrap_or(0.0) as u64) % 16 < thr)
                as Box<dyn Fn(&[Token]) -> bool>
        });
        b.add_transition(Transition {
            name: format!("t{i}"),
            inputs,
            outputs,
            behavior: perf_petri::behavior::Behavior::Native {
                guard,
                delay: Box::new(move |ts: &[Token]| {
                    base + (ts[0].data.as_num().unwrap_or(0.0) as u64) % 3
                }),
                transform: Box::new(move |ts: &[Token]| {
                    let v = ts
                        .iter()
                        .map(|t| t.data.as_num().unwrap_or(0.0))
                        .sum::<f64>();
                    vec![Value::num((v + 1.0) % 1024.0); n_out]
                }),
            },
            servers: t.servers,
            priority: t.priority,
        });
    }
    b.build().expect("spec-built nets are structurally valid")
}

/// Runs `injects` on the stepper (`compiled`) or the reference.
fn run_on(
    net: Net,
    injects: Vec<(perf_petri::PlaceId, Token)>,
    opts: Options,
    compiled: bool,
) -> Result<SimResult, PetriError> {
    if compiled {
        let exec = NetExec::new(net);
        let mut s = exec.session(opts);
        for (p, t) in injects {
            s.inject(p, t);
        }
        s.run()
    } else {
        reference::run(&net, injects, opts)
    }
}

fn run(spec: &NetSpec, net: Net, compiled: bool) -> Result<SimResult, PetriError> {
    let n_total = spec.places.len() + spec.sinks;
    let injects = spec
        .injections
        .iter()
        .map(|&(p, v, at)| {
            let pid = net.place_id(&place_name(spec, p % n_total)).unwrap();
            (pid, Token::at(Value::num(v as f64), at))
        })
        .collect();
    let opts = Options {
        // Tight budget so cyclic nets terminate quickly; both
        // evaluators must hit it at the same event count.
        max_events: 5_000,
        ..Options::default()
    };
    run_on(net, injects, opts, compiled)
}

fn place_name(spec: &NetSpec, idx: usize) -> String {
    if idx < spec.places.len() {
        format!("p{idx}")
    } else {
        format!("z{}", idx - spec.places.len())
    }
}

fn assert_identical(a: &Result<SimResult, PetriError>, b: &Result<SimResult, PetriError>) {
    match (a, b) {
        (Ok(ra), Ok(rb)) => {
            assert_eq!(ra.makespan, rb.makespan, "makespan");
            assert_eq!(ra.events, rb.events, "event count");
            assert_eq!(ra.firings, rb.firings, "firings");
            assert_eq!(ra.busy, rb.busy, "busy cycles");
            assert_eq!(ra.high_water, rb.high_water, "high-water marks");
            assert_eq!(ra.stranded, rb.stranded, "stranded report");
            assert_eq!(ra.completions, rb.completions, "completions");
        }
        (Err(ea), Err(eb)) => assert_eq!(ea, eb, "errors differ"),
        (a, b) => panic!(
            "one evaluator errored, the other did not:\n  stepper: {a:?}\n  reference: {b:?}"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn stepper_matches_reference_scan(spec in spec_strategy()) {
        let stepper = run(&spec, build(&spec), true);
        let refr = run(&spec, build(&spec), false);
        assert_identical(&stepper, &refr);
    }
}

/// Deterministic shapes that stress the stepper's pass semantics:
/// priorities, guards competing for one place, bounded-capacity
/// backpressure, joins, forks and self-loops.
#[test]
fn handcrafted_shapes_match() {
    // Guarded routing with priorities + bounded middle stage.
    let build = || {
        let mut b = NetBuilder::new("mix");
        let src = b.place("src", None);
        let mid = b.place("mid", Some(2));
        let small = b.sink("small");
        let big = b.sink("big");
        b.add_transition(Transition {
            name: "classify".into(),
            inputs: vec![(src, 1)],
            outputs: vec![(mid, 1)],
            behavior: perf_petri::behavior::Behavior::Native {
                guard: None,
                delay: Box::new(|_| 1),
                transform: Box::new(|ts: &[Token]| vec![ts[0].data.clone()]),
            },
            servers: 1,
            priority: 0,
        });
        b.add_transition(Transition {
            name: "small_path".into(),
            inputs: vec![(mid, 1)],
            outputs: vec![(small, 1)],
            behavior: perf_petri::behavior::Behavior::Native {
                guard: Some(Box::new(|ts: &[Token]| ts[0].data.as_num().unwrap() < 5.0)),
                delay: Box::new(|_| 2),
                transform: Box::new(|ts: &[Token]| vec![ts[0].data.clone()]),
            },
            servers: 1,
            priority: 1,
        });
        b.add_transition(Transition {
            name: "big_path".into(),
            inputs: vec![(mid, 1)],
            outputs: vec![(big, 1)],
            behavior: perf_petri::behavior::Behavior::Native {
                guard: None,
                delay: Box::new(|_| 7),
                transform: Box::new(|ts: &[Token]| vec![ts[0].data.clone()]),
            },
            servers: 2,
            priority: 0,
        });
        b.build().unwrap()
    };
    let run = |compiled: bool| {
        let net = build();
        let src = net.place_id("src").unwrap();
        let injects = (0..40u64)
            .map(|i| (src, Token::at(Value::num((i % 9) as f64), i / 3)))
            .collect();
        run_on(net, injects, Options::default(), compiled)
    };
    assert_identical(&run(true), &run(false));
}
