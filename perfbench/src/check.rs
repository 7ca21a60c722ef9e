//! The output check: every answer against a fresh, single-threaded
//! `registry::backend` evaluation of the same (accel, spec,
//! `repr_used`, metric), plus the accuracy score against the
//! cycle-accurate simulator.

use crate::drive::{Answer, Pass};
use perf_core::iface::InterfaceKind;
use perf_core::query::QueryBackend;
use perf_core::Prediction;
use perf_service::protocol::{Outcome, ReprChoice, Request, Response};
use perf_service::registry;
use std::collections::HashMap;
use std::time::Instant;

/// A fresh evaluation, with the fingerprint and evaluation time the
/// service would have spent on it.
#[derive(Clone, Copy)]
pub struct Fresh {
    /// The answer a fresh backend gives (`None` if it errored).
    pub answer: Option<Answer>,
    /// Deep fingerprints of every ladder rung from the ceiling down to
    /// `repr_used` (the service keys the cache on each rung it tries),
    /// ns.
    pub fingerprint_ns: f64,
    /// The evaluation at `repr_used`, ns.
    pub eval_ns: f64,
}

/// Fresh backends, one per accelerator name, and a memo of fresh
/// evaluations (re-asked points are evaluated once).
#[derive(Default)]
pub struct Checker {
    backends: HashMap<String, Box<dyn QueryBackend>>,
    memo: HashMap<(String, u64, u8, u8), Fresh>,
}

fn ladder_from(ceiling: InterfaceKind, used: InterfaceKind) -> Vec<InterfaceKind> {
    [
        InterfaceKind::PetriNet,
        InterfaceKind::Program,
        InterfaceKind::NaturalLanguage,
    ]
    .into_iter()
    .filter(|k| (used..=ceiling).contains(k))
    .collect()
}

impl Checker {
    /// The checker's backend for `accel`, built on first use.
    pub fn backend(&mut self, accel: &str) -> &mut dyn QueryBackend {
        self.backends
            .entry(accel.to_string())
            .or_insert_with(|| registry::backend(accel).expect("workload accelerators construct"))
            .as_mut()
    }

    /// Evaluates `req` afresh at `repr_used`.
    pub fn fresh(&mut self, req: &Request, repr_used: InterfaceKind) -> Fresh {
        let key = (
            req.accel.clone(),
            req.spec.fingerprint(),
            req.metric as u8,
            repr_used as u8,
        );
        if let Some(f) = self.memo.get(&key) {
            return *f;
        }
        let ceiling = match req.repr {
            ReprChoice::Auto => InterfaceKind::PetriNet,
            ReprChoice::Ceiling(k) => k,
        };
        let b = self.backend(&req.accel);
        let fingerprint_ns = ladder_from(ceiling, repr_used)
            .into_iter()
            .map(|rung| {
                let t0 = Instant::now();
                std::hint::black_box(b.fingerprint(&req.spec, rung));
                t0.elapsed().as_nanos() as f64
            })
            .sum();
        let t0 = Instant::now();
        let pred = b.predict(&req.spec, repr_used, req.metric);
        let eval_ns = t0.elapsed().as_nanos() as f64;
        let f = Fresh {
            answer: pred.ok().map(|pred| Answer {
                repr: repr_used,
                pred,
            }),
            fingerprint_ns,
            eval_ns,
        };
        self.memo.insert(key, f);
        f
    }

    /// Checks every answer of `pass` (slots resolved by `request`);
    /// returns how many answers differ from a fresh evaluation.
    pub fn check_pass(&mut self, pass: &Pass, request: &dyn Fn(u64) -> Request) -> u64 {
        self.check_part(pass, request, 0, 1)
    }

    /// [`Checker::check_pass`] over the answers whose point falls in
    /// part `part` of `parts` (by spec fingerprint, so every answer to
    /// one point lands in the same part).
    fn check_part(
        &mut self,
        pass: &Pass,
        request: &dyn Fn(u64) -> Request,
        part: u64,
        parts: u64,
    ) -> u64 {
        let mut wrong = 0;
        for (slot, answer, count) in pass.answers.iter() {
            let req = request(slot);
            if req.spec.fingerprint() % parts != part {
                continue;
            }
            let fresh = self.fresh(&req, answer.repr);
            if !fresh.answer.is_some_and(|f| f.same(&answer)) {
                wrong += count as u64;
            }
        }
        wrong
    }
}

/// [`Checker::check_pass`] split over `parts` threads, each with fresh
/// backends of its own; returns how many answers differ.
pub fn check_pass_split(pass: &Pass, request: &(dyn Fn(u64) -> Request + Sync), parts: u64) -> u64 {
    std::thread::scope(|s| {
        let checkers: Vec<_> = (0..parts)
            .map(|part| s.spawn(move || Checker::default().check_part(pass, request, part, parts)))
            .collect();
        checkers
            .into_iter()
            .map(|c| c.join().expect("checker thread"))
            .sum()
    })
}

/// Relative error of one answer against the simulator's value: a point
/// scores |p − sim| / sim; an interval scores 0 when it contains sim,
/// else its distance to sim over sim.
pub fn rel_err(pred: &Prediction, sim: f64) -> f64 {
    let dist = match *pred {
        Prediction::Point(p) => (p - sim).abs(),
        Prediction::Bounds { min, max } => {
            if sim < min {
                min - sim
            } else if sim > max {
                sim - max
            } else {
                0.0
            }
        }
    };
    dist / sim.abs().max(f64::MIN_POSITIVE)
}

/// Scores served `responses` to `reqs` against the simulator; returns
/// (mean relative error, responses that were errors, rejections or
/// answers that differ from a fresh evaluation).
pub fn accuracy(checker: &mut Checker, reqs: &[Request], responses: &[Response]) -> (f64, u64) {
    let mut errs = Vec::with_capacity(reqs.len());
    let mut wrong = 0;
    for resp in responses {
        let req = &reqs[resp.id as usize];
        let (prediction, repr_used) = match resp.outcome {
            Outcome::Answer {
                prediction,
                repr_used,
                ..
            } => (prediction, repr_used),
            // A deadline may pass in the queue; that is not a wrong answer.
            Outcome::Expired => continue,
            _ => {
                wrong += 1;
                continue;
            }
        };
        let answer = Answer {
            repr: repr_used,
            pred: prediction,
        };
        if !checker
            .fresh(req, repr_used)
            .answer
            .is_some_and(|f| f.same(&answer))
        {
            wrong += 1;
        }
        let obs = checker
            .backend(&req.accel)
            .measure(&req.spec)
            .expect("the simulator runs every workload spec");
        errs.push(rel_err(&prediction, req.metric.of(&obs)));
    }
    (perf_core::stats::mean(&errs), wrong)
}
