//! The closed-loop client: one thread keeps a fixed number of request
//! lines outstanding against a [`Service`] and times every request
//! through the public query path, `Request::batch_from_line` →
//! `Service::submit`/`submit_batch` → `Response::to_json`.

use crate::stats::{Reservoir, Windows};
use perf_core::iface::InterfaceKind;
use perf_core::Prediction;
use perf_service::protocol::{Outcome, Request, Response};
use perf_service::Service;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// When the client stops sending lines.
#[derive(Clone, Copy)]
pub enum Until {
    /// Send lines until this much wall time has passed.
    Elapsed(Duration),
    /// Send exactly this many lines.
    Lines(u64),
}

/// One answer as served.
#[derive(Clone, Copy, Debug)]
pub struct Answer {
    /// The representation that produced it.
    pub repr: InterfaceKind,
    /// The prediction.
    pub pred: Prediction,
}

impl Answer {
    /// Bit-level identity (a cached answer must equal a fresh one
    /// exactly).
    pub fn same(&self, other: &Answer) -> bool {
        fn bits(p: &Prediction) -> (u64, u64, bool) {
            match *p {
                Prediction::Point(v) => (v.to_bits(), v.to_bits(), true),
                Prediction::Bounds { min, max } => (min.to_bits(), max.to_bits(), false),
            }
        }
        self.repr == other.repr && bits(&self.pred) == bits(&other.pred)
    }
}

/// Answers by slot (slots are dense from 0): the first answer to each
/// slot and how many answers it got. Stored in fixed-size chunks, so the
/// harness's memory grows in small even steps and no reallocation spike
/// lands in `rss_peak_mb`.
#[derive(Default)]
pub struct Answers {
    chunks: Vec<Box<[Slot]>>,
}

/// One slot: its first answer and how many answers it got.
type Slot = Option<(Answer, u32)>;

const CHUNK: usize = 4096;

impl Answers {
    /// Records an answer to `slot`; returns whether it equals the first
    /// answer to that slot.
    fn record(&mut self, slot: u64, answer: Answer) -> bool {
        let (c, i) = (slot as usize / CHUNK, slot as usize % CHUNK);
        while self.chunks.len() <= c {
            self.chunks.push(vec![None; CHUNK].into_boxed_slice());
        }
        match &mut self.chunks[c][i] {
            Some((first, n)) => {
                *n += 1;
                first.same(&answer)
            }
            empty => {
                *empty = Some((answer, 1));
                true
            }
        }
    }

    /// The first answer to `slot`.
    pub fn first(&self, slot: u64) -> Option<Answer> {
        let (c, i) = (slot as usize / CHUNK, slot as usize % CHUNK);
        self.chunks.get(c)?[i].map(|(a, _)| a)
    }

    /// Every answered slot with its first answer and answer count.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Answer, u32)> + '_ {
        self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            chunk
                .iter()
                .enumerate()
                .filter_map(move |(i, e)| e.map(|(a, n)| ((c * CHUNK + i) as u64, a, n)))
        })
    }
}

/// A cache miss, timed layer by layer from the client's side.
#[derive(Clone, Copy)]
pub struct MissRecord {
    /// The answered slot (the request's id).
    pub slot: u64,
    /// Parse time of the request's whole line, ns (the request waited
    /// for all of it).
    pub line_parse_ns: f64,
    /// Queueing delay as the service reports it, µs.
    pub queue_us: f64,
    /// Submit → receive, ns.
    pub roundtrip_ns: f64,
    /// Rendering the response, ns.
    pub render_ns: f64,
    /// Client-observed latency, ns.
    pub latency_ns: f64,
}

/// One request of the traced pass laid out on the wall clock (ns since
/// the pass began), kept for the Perfetto export.
#[derive(Clone, Copy)]
pub struct Timeline {
    /// The answered slot.
    pub slot: u64,
    /// Line parse start and end.
    pub parse: (u64, u64),
    /// Submit and receive.
    pub roundtrip: (u64, u64),
    /// Queueing delay reported by the service, µs.
    pub queue_us: f64,
    /// Render end (it starts at receive).
    pub render_end: u64,
    /// Whether the answer was a cache miss.
    pub miss: bool,
    /// Which of the outstanding-line slots the request's line used:
    /// requests of one lane never overlap in time.
    pub lane: u32,
}

/// Layer timings of a traced pass (of its traced half of the lines).
#[derive(Default)]
pub struct Traced {
    /// Parse time per request (a line's time over its requests), ns.
    pub parse_ns: Reservoir,
    /// Render time per response, ns.
    pub render_ns: Reservoir,
    /// Submit → receive per request, ns.
    pub roundtrip_ns: Reservoir,
    /// Queueing delay per answer, µs (as `Outcome` reports it).
    pub queue_us: Reservoir,
    /// Client-observed latency of traced requests, ns.
    pub traced_latency_ns: Reservoir,
    /// Client-observed latency of the untraced lines, ns.
    pub plain_latency_ns: Reservoir,
    /// Cache misses, for the reconciliation.
    pub misses: Vec<MissRecord>,
    /// The first traced requests on the wall clock.
    pub timeline: Vec<Timeline>,
}

const MAX_MISSES: usize = 1 << 16;
const MAX_TIMELINE: usize = 1024;

/// Everything one pass observed.
#[derive(Default)]
pub struct Pass {
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered.
    pub answered: u64,
    /// Rejected, expired or errored requests.
    pub failed: u64,
    /// Requests whose deadline expired in the queue (also in `failed`).
    pub expired: u64,
    /// Answered requests whose client-observed latency exceeded their
    /// deadline.
    pub late: u64,
    /// Answers served below the requested representation.
    pub degraded: u64,
    /// Answers that differ from an earlier answer to the same slot.
    pub inconsistent: u64,
    /// First send to last answer, wall time.
    pub wall: Duration,
    /// Client-observed latency per window of responses.
    pub windows: Windows,
    /// Answers by slot, with how many times each slot was answered.
    pub answers: Answers,
    /// Layer timings, when the pass was traced.
    pub traced: Option<Traced>,
    /// Peak resident memory (MB) when the pass had answered
    /// `rss_after` requests, if it got that far.
    pub rss_mb: Option<f64>,
}

struct Inflight {
    line: u64,
    start: Instant,
    /// Parse end (= submit) and the line's parse time, on traced lines.
    parsed: Option<(Instant, f64)>,
    deadline_us: Option<u64>,
}

/// Drives `svc` with request lines `line(first)`, `line(first + 1)`, …,
/// keeping `depth` lines outstanding, until `until`. With `rss_after`,
/// reads the peak RSS once that many requests are answered. With `trace`, a
/// pseudo-random half of the lines (uncorrelated with the workload's
/// alternating metrics) is traced: the client also times each layer
/// boundary it can see. The other half stays untraced, so the traced-
/// minus-untraced latency of one pass is the tracing overhead.
pub fn drive<'a>(
    svc: &Service,
    line: &dyn Fn(u64) -> Cow<'a, str>,
    first: u64,
    until: Until,
    depth: usize,
    rss_after: Option<u64>,
    trace: bool,
) -> Pass {
    let mut pass = Pass {
        traced: trace.then(Traced::default),
        ..Pass::default()
    };
    let (tx, rx) = mpsc::channel::<Response>();
    let mut inflight: HashMap<u64, Inflight> = HashMap::new();
    // (line, responses outstanding, lane) per outstanding line.
    let mut open_lines: Vec<(u64, usize, u32)> = Vec::with_capacity(depth);
    let begin = Instant::now();
    let mut next = first;
    let stop_sending = |next: u64| match until {
        Until::Elapsed(d) => begin.elapsed() >= d,
        Until::Lines(n) => next - first >= n,
    };
    loop {
        while open_lines.len() < depth && !stop_sending(next) {
            let text = line(next);
            let traced = trace && crate::gen::mix(next).is_multiple_of(2);
            let start = Instant::now();
            let reqs = Request::batch_from_line(&text).expect("generated lines parse");
            let n = reqs.len();
            let parsed = traced.then(|| {
                let t = Instant::now();
                (t, (t - start).as_nanos() as f64)
            });
            for r in &reqs {
                inflight.insert(
                    r.id,
                    Inflight {
                        line: next,
                        start,
                        parsed,
                        deadline_us: r.deadline_us,
                    },
                );
            }
            if let (Some(t), Some((_, ns))) = (pass.traced.as_mut(), parsed) {
                for _ in 0..n {
                    t.parse_ns.push(ns / n as f64);
                }
            }
            pass.attempted += n as u64;
            if n == 1 {
                svc.submit(reqs.into_iter().next().expect("one request"), tx.clone());
            } else {
                svc.submit_batch(reqs, &tx);
            }
            let lane = (0..)
                .find(|l| open_lines.iter().all(|o| o.2 != *l))
                .expect("a free lane");
            open_lines.push((next, n, lane));
            next += 1;
        }
        if open_lines.is_empty() {
            break;
        }
        let resp = rx
            .recv()
            .expect("the service answers every admitted request");
        let f = inflight
            .remove(&resp.id)
            .expect("response to an outstanding request");
        let received = f.parsed.map(|_| Instant::now());
        std::hint::black_box(resp.to_json());
        let done = Instant::now();
        let latency_ns = (done - f.start).as_nanos() as f64;
        pass.windows.push(latency_ns);
        if let Some(d) = f.deadline_us {
            if latency_ns > d as f64 * 1e3 {
                pass.late += 1;
            }
        }
        let pos = open_lines
            .iter()
            .position(|o| o.0 == f.line)
            .expect("open line");
        let lane = open_lines[pos].2;
        open_lines[pos].1 -= 1;
        if open_lines[pos].1 == 0 {
            open_lines.swap_remove(pos);
        }
        let Outcome::Answer {
            prediction,
            repr_used,
            degraded,
            cache_hit,
            queue_us,
            ..
        } = resp.outcome
        else {
            pass.expired += matches!(resp.outcome, Outcome::Expired) as u64;
            pass.failed += 1;
            continue;
        };
        pass.answered += 1;
        if Some(pass.answered) == rss_after {
            pass.rss_mb = Some(crate::stats::rss_peak_mb());
        }
        pass.degraded += degraded as u64;
        let answer = Answer {
            repr: repr_used,
            pred: prediction,
        };
        if !pass.answers.record(resp.id, answer) {
            pass.inconsistent += 1;
        }
        let Some(t) = pass.traced.as_mut() else {
            continue;
        };
        let (Some((submitted, line_parse_ns)), Some(received)) = (f.parsed, received) else {
            t.plain_latency_ns.push(latency_ns);
            continue;
        };
        let roundtrip_ns = (received - submitted).as_nanos() as f64;
        let render_ns = (done - received).as_nanos() as f64;
        t.traced_latency_ns.push(latency_ns);
        t.render_ns.push(render_ns);
        t.roundtrip_ns.push(roundtrip_ns);
        t.queue_us.push(queue_us);
        if !cache_hit && t.misses.len() < MAX_MISSES {
            t.misses.push(MissRecord {
                slot: resp.id,
                line_parse_ns,
                queue_us,
                roundtrip_ns,
                render_ns,
                latency_ns,
            });
        }
        if t.timeline.len() < MAX_TIMELINE {
            let ns = |t: Instant| (t - begin).as_nanos() as u64;
            t.timeline.push(Timeline {
                slot: resp.id,
                parse: (ns(f.start), ns(submitted)),
                roundtrip: (ns(submitted), ns(received)),
                queue_us,
                render_end: ns(done),
                miss: !cache_hit,
                lane,
            });
        }
    }
    pass.windows.finish();
    pass.wall = begin.elapsed();
    pass
}

/// Submits `reqs` directly (no codec) with `depth` outstanding and
/// waits for every response; returns them in completion order.
pub fn submit_all(svc: &Service, reqs: &[Request], depth: usize) -> Vec<Response> {
    let (tx, rx) = mpsc::channel::<Response>();
    let mut out = Vec::with_capacity(reqs.len());
    let mut sent = 0;
    while out.len() < reqs.len() {
        while sent < reqs.len() && sent - out.len() < depth {
            svc.submit(reqs[sent].clone(), tx.clone());
            sent += 1;
        }
        out.push(
            rx.recv()
                .expect("the service answers every admitted request"),
        );
    }
    out
}
