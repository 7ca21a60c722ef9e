//! End-to-end tests of the query service: saturation shedding,
//! deadline expiry, fallback correctness (degraded answers stay inside
//! the conformance budget of the representation that served them),
//! clean shutdown with in-flight queries drained, and repeats answered
//! at admission without a worker.

use perf_core::budget::channel_error;
use perf_core::iface::Metric;
use perf_core::query::WorkloadSpec;
use perf_service::protocol::{Outcome, ReprChoice, Request, Response};
use perf_service::{registry, Service, ServiceConfig};
use std::sync::mpsc;

fn req(id: u64, accel: &str, spec: WorkloadSpec, metric: Metric) -> Request {
    Request {
        id,
        accel: accel.into(),
        spec,
        metric,
        repr: ReprChoice::Auto,
        deadline_us: None,
    }
}

/// A mixed workload over every accelerator and both metrics.
fn mixed_corpus(n: u64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let metric = if i % 2 == 0 {
                Metric::Latency
            } else {
                Metric::Throughput
            };
            let seed = (i / 8) as f64;
            match i % 4 {
                0 => req(
                    i,
                    "vta",
                    WorkloadSpec::new("random")
                        .with("seed", seed)
                        .with("max_blocks", 16.0),
                    metric,
                ),
                1 => req(
                    i,
                    "jpeg-decoder",
                    WorkloadSpec::new("sized")
                        .with("seed", seed)
                        .with("width", 64.0 + 8.0 * seed)
                        .with("height", 48.0)
                        .with("quality", 60.0),
                    metric,
                ),
                2 => req(
                    i,
                    "bitcoin-miner",
                    WorkloadSpec::new("scan")
                        .with("loop", 8.0)
                        .with("seed", seed)
                        .with("nonce_count", 200.0)
                        .with("difficulty", 256.0),
                    metric,
                ),
                _ => req(
                    i,
                    "protoacc",
                    WorkloadSpec::new("format")
                        .with("idx", (i % 3) as f64)
                        .with("n", 8.0)
                        .with("seed", seed),
                    metric,
                ),
            }
        })
        .collect()
}

/// Every admitted request gets exactly one response, and predictions —
/// degraded or not — stay within the conformance budget of the
/// representation that actually served them, checked against the
/// cycle-accurate simulator.
#[test]
fn answers_stay_within_served_representation_budget() {
    let svc = Service::start(ServiceConfig {
        workers: 4,
        ..Default::default()
    });
    let reqs = mixed_corpus(48);
    let by_id: std::collections::HashMap<u64, Request> =
        reqs.iter().map(|r| (r.id, r.clone())).collect();
    let (tx, rx) = mpsc::channel();
    for r in reqs {
        svc.submit(r, tx.clone());
    }
    drop(tx);
    let responses: Vec<Response> = rx.iter().collect();
    assert_eq!(responses.len(), 48);
    for resp in &responses {
        let (prediction, repr_used, budget) = match &resp.outcome {
            Outcome::Answer {
                prediction,
                repr_used,
                budget,
                ..
            } => (*prediction, *repr_used, *budget),
            other => panic!("id {} got {other:?}", resp.id),
        };
        let req = &by_id[&resp.id];
        let mut backend = registry::backend(&req.accel).unwrap();
        let obs = backend.measure(&req.spec).unwrap();
        let actual = req.metric.of(&obs);
        let err = channel_error(&prediction, actual, req.metric, budget.atol);
        assert!(
            err <= budget.max,
            "id {} {} {:?} served by {repr_used:?}: error {err:.4} > budget.max {:.4} \
             (pred {prediction:?}, actual {actual})",
            resp.id,
            req.accel,
            req.metric,
            budget.max,
        );
    }
    let snap = svc.shutdown();
    assert_eq!(snap.completed, 48);
    assert_eq!(snap.errors, 0);
}

/// Saturation: a tiny queue with `try_submit` sheds load instead of
/// blocking, the shed requests get `Rejected` responses, and every
/// admitted request is still answered within its budget. This is the
/// smoke test `scripts/check.sh --quick` runs.
#[test]
fn saturation_sheds_load_and_degraded_answers_stay_in_budget() {
    let svc = Service::start(ServiceConfig {
        workers: 2,
        queue_cap: 8,
        ..Default::default()
    });
    let reqs = mixed_corpus(96);
    let by_id: std::collections::HashMap<u64, Request> =
        reqs.iter().map(|r| (r.id, r.clone())).collect();
    let (tx, rx) = mpsc::channel();
    let admitted = svc.try_submit_batch(reqs, &tx);
    drop(tx);
    let responses: Vec<Response> = rx.iter().collect();
    // Exactly one response per request, admitted or not.
    assert_eq!(responses.len(), 96);
    let rejected = responses
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Rejected))
        .count();
    assert_eq!(admitted + rejected, 96);
    assert!(
        rejected > 0,
        "queue_cap 8 with 96 offered requests must shed load"
    );
    for resp in &responses {
        match &resp.outcome {
            Outcome::Rejected => {}
            Outcome::Answer {
                prediction,
                repr_used,
                degraded,
                budget,
                ..
            } => {
                // Degraded or not, the answer is accountable to the
                // budget of the representation that produced it.
                let req = &by_id[&resp.id];
                let mut backend = registry::backend(&req.accel).unwrap();
                let actual = req.metric.of(&backend.measure(&req.spec).unwrap());
                let err = channel_error(prediction, actual, req.metric, budget.atol);
                assert!(
                    err <= budget.max,
                    "id {} degraded={degraded} served by {repr_used:?}: \
                     error {err:.4} > {:.4}",
                    resp.id,
                    budget.max,
                );
            }
            other => panic!("id {} got {other:?}", resp.id),
        }
    }
    let snap = svc.shutdown();
    assert_eq!(snap.rejected as usize, rejected);
    assert_eq!(snap.completed as usize, 96 - rejected);
}

/// Deadlines force degradation down the ladder; very short deadlines on
/// a busy queue expire. Either way the client always hears back.
#[test]
fn deadlines_degrade_then_expire() {
    let svc = Service::start(ServiceConfig {
        workers: 1,
        queue_cap: 512,
        ..Default::default()
    });
    let (tx, rx) = mpsc::channel();
    // Warm-up: teach the EWMA the real petri/program costs so the
    // ladder's estimates are grounded, and keep the lone worker busy.
    for i in 0..8 {
        svc.submit(
            req(
                i,
                "vta",
                WorkloadSpec::new("random")
                    .with("seed", i as f64)
                    .with("max_blocks", 64.0),
                Metric::Latency,
            ),
            tx.clone(),
        );
    }
    // A 1 µs deadline cannot survive the queue behind 8 petri
    // evaluations: it must expire (the worker checks at pickup).
    let mut doomed = req(
        100,
        "vta",
        WorkloadSpec::new("single").with("seed", 999.0),
        Metric::Latency,
    );
    doomed.deadline_us = Some(1);
    svc.submit(doomed, tx.clone());
    // A moderate deadline admits evaluation but not the petri rung
    // (cold prior 5 ms, EWMA-corrected upward by the warm-up): the
    // service degrades to program or the NL bound instead of blowing
    // the deadline.
    let mut tight = req(
        101,
        "vta",
        WorkloadSpec::new("random")
            .with("seed", 4242.0)
            .with("max_blocks", 64.0),
        Metric::Latency,
    );
    tight.deadline_us = Some(400_000); // 400 ms: generous for program, tight for queue+petri
    svc.submit(tight, tx.clone());
    drop(tx);
    let responses: Vec<Response> = rx.iter().collect();
    assert_eq!(responses.len(), 10);
    let expired: Vec<&Response> = responses
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Expired))
        .collect();
    assert!(
        expired.iter().any(|r| r.id == 100),
        "the 1 µs deadline must expire, got {:?}",
        responses
            .iter()
            .map(|r| (r.id, &r.outcome))
            .collect::<Vec<_>>()
    );
    // The moderate-deadline request is answered (never expired): the
    // ladder has an always-affordable NL rung.
    let tight_resp = responses.iter().find(|r| r.id == 101).unwrap();
    match &tight_resp.outcome {
        Outcome::Answer { .. } => {}
        other => panic!("moderate deadline should be answered, got {other:?}"),
    }
    let snap = svc.shutdown();
    assert!(snap.expired >= 1);
}

/// Shutdown closes admission but drains everything already queued:
/// all admitted requests get answers, none are lost.
#[test]
fn shutdown_drains_in_flight_queries() {
    let svc = Service::start(ServiceConfig {
        workers: 2,
        queue_cap: 512,
        ..Default::default()
    });
    let (tx, rx) = mpsc::channel();
    let reqs = mixed_corpus(32);
    for r in reqs {
        svc.submit(r, tx.clone());
    }
    // Immediately shut down: most of the 32 are still queued.
    let snap = svc.shutdown();
    drop(tx);
    let responses: Vec<Response> = rx.iter().collect();
    assert_eq!(responses.len(), 32, "shutdown must drain the queue");
    assert!(responses
        .iter()
        .all(|r| matches!(r.outcome, Outcome::Answer { .. })));
    assert_eq!(snap.completed, 32);
}

/// The cache serves repeat queries without re-evaluation, across
/// different field orderings of the same spec.
#[test]
fn cache_hits_across_field_order_and_batches() {
    let svc = Service::start(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let (tx, rx) = mpsc::channel();
    let a = WorkloadSpec::new("flat")
        .with("blocks", 32.0)
        .with("bits", 96.0)
        .with("nonzero", 12.0);
    let b = WorkloadSpec::new("flat")
        .with("nonzero", 12.0)
        .with("bits", 96.0)
        .with("blocks", 32.0);
    svc.submit(req(1, "jpeg-decoder", a, Metric::Latency), tx.clone());
    svc.submit(req(2, "jpeg-decoder", b, Metric::Latency), tx.clone());
    drop(tx);
    let mut responses: Vec<Response> = rx.iter().collect();
    responses.sort_by_key(|r| r.id);
    let hit = |r: &Response| match &r.outcome {
        Outcome::Answer {
            cache_hit,
            prediction,
            ..
        } => (*cache_hit, *prediction),
        other => panic!("{other:?}"),
    };
    let (h1, p1) = hit(&responses[0]);
    let (h2, p2) = hit(&responses[1]);
    assert!(!h1, "first query must evaluate");
    assert!(h2, "reordered identical spec must hit the cache");
    assert_eq!(p1, p2);
    let snap = svc.shutdown();
    assert_eq!(snap.cache_hits, 1);
}

/// A repeat of an answered request is answered on the submitting
/// thread, through `submit` and `submit_batch` alike: the response is
/// waiting before the call returns, and no worker wakes or claims a
/// burst for it.
#[test]
fn repeats_are_answered_at_admission_without_a_worker() {
    let svc = Service::start(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    let (tx, rx) = mpsc::channel();
    let reqs = mixed_corpus(8);
    let n = reqs.len();
    assert_eq!(svc.submit_batch(reqs.clone(), &tx), n);
    for _ in 0..n {
        assert!(matches!(rx.recv().unwrap().outcome, Outcome::Answer { .. }));
    }
    let before = svc.metrics();
    let check = |resp: Response| match resp.outcome {
        Outcome::Answer {
            cache_hit,
            queue_us,
            service_us,
            ..
        } => assert!(cache_hit && queue_us == 0.0 && service_us == 0.0),
        other => panic!("id {} got {other:?}", resp.id),
    };
    assert!(svc.submit(reqs[0].clone(), tx.clone()));
    check(rx.try_recv().expect("answered before `submit` returned"));
    assert_eq!(svc.submit_batch(reqs, &tx), n);
    for _ in 0..n {
        check(
            rx.try_recv()
                .expect("answered before `submit_batch` returned"),
        );
    }
    let after = svc.metrics();
    assert_eq!(after.worker_wakes, before.worker_wakes);
    assert_eq!(after.bursts, before.bursts);
    assert_eq!(after.cache_hits, before.cache_hits + n as u64 + 1);
    assert_eq!(after.completed, before.completed + n as u64 + 1);
    svc.shutdown();
}
