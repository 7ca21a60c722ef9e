//! Property tests for the Petri-net stepper: token conservation,
//! determinism, and throughput bounds on randomly shaped pipelines.

use perf_iface_lang::Value;
use perf_petri::net::{Net, NetBuilder};
use perf_petri::token::Token;
use perf_petri::{CompiledNet, Options, SimResult};
use proptest::prelude::*;

/// Builds a linear pipeline with the given stage delays and queue caps.
fn pipeline(delays: &[u64], caps: &[usize]) -> Net {
    let mut b = NetBuilder::new("prop_pipe");
    let src = b.place("src", None);
    let mut prev = src;
    let mut places = vec![src];
    for (i, &cap) in caps.iter().enumerate() {
        let p = b.place(format!("q{i}"), Some(cap));
        places.push(p);
        let _ = prev;
        prev = p;
    }
    let sink = b.sink("done");
    places.push(sink);
    for (i, &d) in delays.iter().enumerate() {
        let from = places[i];
        let to = places[i + 1];
        b.transition(
            format!("t{i}"),
            &[from],
            &[to],
            move |_| d,
            |ts| vec![ts[0].data.clone()],
        );
    }
    b.build().expect("valid pipeline")
}

fn run(net: &Net, n: usize) -> SimResult {
    let src = net.place_id("src").expect("src exists");
    let plan = CompiledNet::compile(net);
    let mut e = plan.stepper(net, Options::default());
    for i in 0..n {
        e.inject(src, Token::at(Value::num(i as f64), 0));
    }
    e.run().expect("runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every injected token reaches the sink; none are created or lost.
    #[test]
    fn tokens_conserved(
        delays in prop::collection::vec(1u64..40, 1..5),
        n in 1usize..60,
    ) {
        let caps = vec![3usize; delays.len().saturating_sub(1)];
        let net = pipeline(&delays, &caps);
        let res = run(&net, n);
        prop_assert_eq!(res.completions.len(), n);
        prop_assert!(res.stranded.is_empty());
    }

    /// The same injection sequence always yields the same timing.
    #[test]
    fn deterministic(
        delays in prop::collection::vec(1u64..40, 1..5),
        n in 1usize..40,
    ) {
        let caps = vec![2usize; delays.len().saturating_sub(1)];
        let net1 = pipeline(&delays, &caps);
        let net2 = pipeline(&delays, &caps);
        let r1 = run(&net1, n);
        let r2 = run(&net2, n);
        prop_assert_eq!(r1.makespan, r2.makespan);
        prop_assert_eq!(r1.latencies(), r2.latencies());
        prop_assert_eq!(r1.events, r2.events);
    }

    /// Makespan is bounded below by the bottleneck stage's serial work
    /// and above by fully serial execution.
    #[test]
    fn makespan_bounds(
        delays in prop::collection::vec(1u64..40, 1..5),
        n in 1u64..50,
    ) {
        let caps = vec![4usize; delays.len().saturating_sub(1)];
        let net = pipeline(&delays, &caps);
        let res = run(&net, n as usize);
        let bottleneck = *delays.iter().max().expect("nonempty");
        let serial: u64 = delays.iter().sum::<u64>() * n;
        prop_assert!(res.makespan >= bottleneck * n);
        prop_assert!(res.makespan <= serial);
    }

    /// Latency of each completion is at least the sum of stage delays
    /// and completions arrive in injection order for a FIFO pipeline.
    #[test]
    fn latency_floor_and_order(
        delays in prop::collection::vec(1u64..25, 1..4),
        n in 1usize..30,
    ) {
        let caps = vec![2usize; delays.len().saturating_sub(1)];
        let net = pipeline(&delays, &caps);
        let res = run(&net, n);
        let floor: u64 = delays.iter().sum();
        for lat in res.latencies() {
            prop_assert!(lat >= floor);
        }
        let ids: Vec<f64> = res
            .completions
            .iter()
            .map(|t| t.data.as_num().expect("payload"))
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        prop_assert_eq!(ids, sorted);
    }

    /// Tightening a queue capacity never makes the pipeline faster.
    #[test]
    fn smaller_queues_never_faster(
        delays in prop::collection::vec(1u64..30, 2..4),
        n in 5usize..40,
    ) {
        let tight = vec![1usize; delays.len() - 1];
        let roomy = vec![8usize; delays.len() - 1];
        let rt = run(&pipeline(&delays, &tight), n);
        let rr = run(&pipeline(&delays, &roomy), n);
        prop_assert!(rt.makespan >= rr.makespan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `.pnet` text nets behave identically to native-closure nets with
    /// the same structure and delays.
    #[test]
    fn text_net_matches_native_net(
        delays in prop::collection::vec(1u64..30, 1..4),
        n in 1usize..30,
    ) {
        // Native variant.
        let caps = vec![3usize; delays.len().saturating_sub(1)];
        let native = pipeline(&delays, &caps);
        let rn = run(&native, n);
        // Text variant with the same structure.
        let mut src = String::from("net text_pipe\nplace src\n");
        for i in 0..caps.len() {
            src.push_str(&format!("place q{i} cap 3\n"));
        }
        src.push_str("sink done\n");
        for (i, d) in delays.iter().enumerate() {
            let from = if i == 0 { "src".to_string() } else { format!("q{}", i - 1) };
            let to = if i == delays.len() - 1 { "done".to_string() } else { format!("q{i}") };
            src.push_str(&format!(
                "trans t{i}\n  in {from}\n  out {to}\n  delay {d}\n"
            ));
        }
        let text_net = perf_petri::text::parse(&src).expect("generated net parses");
        let rt = run(&text_net, n);
        prop_assert_eq!(rn.makespan, rt.makespan);
        prop_assert_eq!(rn.latencies(), rt.latencies());
    }
}
