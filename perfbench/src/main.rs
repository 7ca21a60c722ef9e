//! `perfbench`: the repo's benchmark of the performance-query path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore-cold --seed 1 --seconds 40 --trace 0
//! ```
//!
//! One client thread drives a 2-worker [`Service`] through the public
//! query path (`Request::batch_from_line` → `Service::submit` /
//! `submit_batch` → `Response::to_json`) for `--seconds`, checks every
//! answer against a fresh single-threaded evaluation, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer ledger
//! (`--trace 1`) as the last line of standard output, one JSON object.
//! See `perfbench/README.md` for the metric table.

mod check;
mod drive;
mod gen;
mod layers;
mod stats;

use check::{check_pass_split, Checker};
use drive::{drive, submit_all, Pass, Until};
use gen::{Source, Workload};
use layers::Rows;
use perf_core::trace::ChromeTrace;
use perf_service::protocol::{Outcome, Request};
use perf_service::{Service, ServiceConfig};
use stats::{interquartile_mean, median, reset_rss_peak, rss_peak_mb};
use std::borrow::Cow;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Worker threads: the hardware parallelism the benchmark is tuned for.
const WORKERS: usize = 2;
/// Set-up repeats until it has taken this long in total; `setup_s` is
/// the median. One set-up takes a few ms, and the host's speed shifts
/// over seconds, so the set-ups of a run span that much time rather
/// than one moment.
const SETUP_BUDGET_S: f64 = 1.5;
/// Fresh set-ups per run at least (a `large-deadline` set-up takes
/// about 1 s).
const MIN_SETUPS: usize = 3;
/// Threads of the output check after an untraced pass. (The traced
/// run checks on one thread: the per-layer rows replay its timings.)
const CHECKERS: u64 = 2;
/// Allowed gap between the median per-miss layer sum and the median
/// miss latency, as a share of the latter. The gap is thread hand-off
/// and contention (3 busy threads on 2 cores) that no layer owns; it is
/// reported as `server.unattributed_ns`.
const RECONCILE_TOLERANCE: f64 = 0.35;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(val).ok_or(format!("unknown workload `{val}`"))?)
            }
            "--seed" => seed = val.parse().map_err(|_| format!("bad --seed `{val}`"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| format!("bad --seconds `{val}`"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {val}"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{val}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload explore-cold|revisit-warm|large-deadline \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let src = Source::new(args.workload, args.seed);
    let report = if args.trace {
        traced_run(&src, args.seconds)
    } else {
        plain_run(&src, args.seconds)
    };
    report.print();
    ExitCode::SUCCESS
}

/// What a run prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Rows,
}

impl Report {
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.4} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A fresh service primed with the workload's priming requests.
/// Returns it with its set-up time in seconds.
fn set_up(src: &Source) -> (Service, f64) {
    let priming = src.priming();
    let t0 = Instant::now();
    let svc = Service::start(ServiceConfig {
        workers: WORKERS,
        ..Default::default()
    });
    let responses = submit_all(&svc, &priming, 2);
    let secs = t0.elapsed().as_secs_f64();
    assert!(
        responses
            .iter()
            .all(|r| matches!(r.outcome, Outcome::Answer { .. })),
        "priming requests must be answered"
    );
    settle(&svc, priming.len() as u64);
    (svc, secs)
}

/// Waits until the workers have merged `n` answers into the shared
/// metrics, then clears them, so counters describe what follows only.
fn settle(svc: &Service, n: u64) {
    while svc.metrics().completed < n {
        std::thread::yield_now();
    }
    svc.reset_metrics();
}

/// Sets up for `SETUP_BUDGET_S` (at least `MIN_SETUPS` times); keeps
/// the last service. Returns it with the median set-up time.
fn set_up_median(src: &Source) -> (Service, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < MIN_SETUPS || times.iter().sum::<f64>() < SETUP_BUDGET_S {
        let (svc, secs) = set_up(src);
        times.push(secs);
        if let Some(old) = kept.replace(svc) {
            old.shutdown();
        }
    }
    (kept.expect("at least one set-up"), median(&times))
}

/// The hot-set warm-up of `revisit-warm` (nothing elsewhere): hot
/// entries as 64-request lines through the codec, before timing.
fn warm_up(svc: &Service, src: &Source, trace: bool) -> (Vec<Request>, Pass) {
    let hot = src.hot_set();
    let lines: Vec<String> = hot
        .chunks(gen::BATCH)
        .map(|c| {
            let reqs: Vec<String> = c.iter().map(Request::to_json).collect();
            format!("[{}]", reqs.join(","))
        })
        .collect();
    let line = |i: u64| Cow::Borrowed(lines[i as usize].as_str());
    let pass = drive(
        svc,
        &line,
        0,
        Until::Lines(lines.len() as u64),
        1,
        None,
        trace,
    );
    settle(svc, pass.answered);
    (hot, pass)
}

fn measured(svc: &Service, src: &Source, secs: f64, trace: bool) -> Pass {
    let line = |i: u64| src.line(i);
    let until = Until::Elapsed(Duration::from_secs_f64(secs));
    let w = src.workload();
    drive(svc, &line, 0, until, w.depth(), Some(w.rss_after()), trace)
}

/// Failures of a pass: unanswered requests, answers inconsistent
/// within the pass, and the `differ` answers that differ from a fresh
/// evaluation. Returns (failed, wrong): expiries are failures but not
/// wrong outputs — the service may let a request's deadline pass.
fn failures(pass: &Pass, differ: u64) -> (u64, u64) {
    let failed = pass.failed + pass.inconsistent + differ;
    if failed > 0 {
        eprintln!(
            "perfbench: {} unanswered ({} expired), {} inconsistent, {} differ from a fresh evaluation",
            pass.failed, pass.expired, pass.inconsistent, differ
        );
    }
    (failed, failed - pass.expired)
}

/// `--trace 0`: the end-to-end metrics.
fn plain_run(src: &Source, secs: f64) -> Report {
    let (svc, setup_s) = set_up_median(src);
    let warm = warm_up(&svc, src, false);
    // Peak memory of the measured pass alone, not of set-up.
    if !reset_rss_peak() {
        eprintln!("perfbench: cannot reset the peak-RSS watermark; rss_peak_mb includes set-up");
    }
    let pass = measured(&svc, src, secs, false);
    let rss = pass.rss_mb.unwrap_or_else(|| {
        eprintln!(
            "perfbench: the pass answered fewer than {} requests; rss_peak_mb covers all {}",
            src.workload().rss_after(),
            pass.answered
        );
        rss_peak_mb()
    });
    let sample = src.accuracy_sample();
    let sample_responses = submit_all(&svc, &sample, 2);
    svc.shutdown();

    let hot = &warm.0;
    let hot_req = |h: u64| hot[h as usize].clone();
    let src_req = |s: u64| src.request(s);
    let (_, warm_wrong) = failures(&warm.1, check_pass_split(&warm.1, &hot_req, CHECKERS));
    let (failed, wrong) = failures(&pass, check_pass_split(&pass, &src_req, CHECKERS));
    let (err, sample_wrong) = check::accuracy(&mut Checker::default(), &sample, &sample_responses);
    let attempted = pass.attempted.max(1) as f64;
    let metrics: Rows = vec![
        (
            "qps".into(),
            pass.answered as f64 / pass.wall.as_secs_f64(),
            "1/s",
        ),
        // Latency percentiles: interquartile means over windows of 1000
        // responses.
        (
            "latency_p50_us".into(),
            interquartile_mean(&pass.windows.p50) / 1e3,
            "us",
        ),
        (
            "latency_p99_us".into(),
            interquartile_mean(&pass.windows.p99) / 1e3,
            "us",
        ),
        // Failed requests count as missing the deadline.
        (
            "on_time_ratio".into(),
            (pass.answered - pass.late) as f64 / attempted,
            "ratio",
        ),
        (
            "full_tier_ratio".into(),
            1.0 - pass.degraded as f64 / pass.answered.max(1) as f64,
            "ratio",
        ),
        ("ok_ratio".into(), 1.0 - failed as f64 / attempted, "ratio"),
        ("err_vs_sim_mean".into(), err, "ratio"),
        ("rss_peak_mb".into(), rss, "MB"),
        ("setup_s".into(), setup_s, "s"),
    ];
    eprintln!(
        "perfbench {}: {} requests in {:.1} s ({} windows of {} latency samples), {} answered, {} failed; {} hardware threads",
        src.workload().name(),
        pass.attempted,
        pass.wall.as_secs_f64(),
        pass.windows.p50.len(),
        stats::WINDOW,
        pass.answered,
        failed,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    Report {
        correct: wrong == 0 && warm_wrong == 0 && sample_wrong == 0 && err.is_finite(),
        attempted: pass.attempted,
        failed,
        metrics,
    }
}

/// `--trace 1`: the per-layer ledger, from one pass with half its
/// lines traced.
fn traced_run(src: &Source, secs: f64) -> Report {
    let mut rows = Rows::new();
    let mut checker = Checker::default();

    layers::construct_rows(&mut rows);

    let (svc, _) = set_up(src);
    let warm = warm_up(&svc, src, true);
    let pass = measured(&svc, src, secs, true);
    let snapshot_ns = stats::time_call(|| svc.metrics());
    let snap = svc.metrics();
    let cache_entries = svc.cache_len();
    svc.shutdown();
    let hot = &warm.0;
    let hot_req = |h: u64| hot[h as usize].clone();
    let src_req = |s: u64| src.request(s);
    let (_, warm_wrong) = failures(&warm.1, checker.check_pass(&warm.1, &hot_req));
    let (failed, wrong) = failures(&pass, checker.check_pass(&pass, &src_req));

    let t = pass.traced.as_ref().expect("traced pass");
    rows.push(("protocol.parse_ns".into(), t.parse_ns.median(), "ns"));
    rows.push(("protocol.render_ns".into(), t.render_ns.median(), "ns"));
    rows.push(("server.roundtrip_ns".into(), t.roundtrip_ns.median(), "ns"));
    rows.push(("server.queue_us".into(), t.queue_us.median(), "us"));
    rows.push(("server.metrics_snapshot_ns".into(), snapshot_ns, "ns"));
    rows.push((
        "server.cache_hit_ratio".into(),
        snap.cache_hit_rate(),
        "ratio",
    ));
    rows.push(("server.cache_entries".into(), cache_entries as f64, "count"));
    for (i, tier) in ["nl", "program", "petri"].iter().enumerate() {
        rows.push((
            format!("server.evals.{tier}"),
            snap.per_repr[i].count as f64,
            "count",
        ));
    }
    rows.push(("server.degraded".into(), snap.degraded as f64, "count"));
    rows.push(("server.expired".into(), snap.expired as f64, "count"));
    rows.push((
        "client.latency_samples".into(),
        pass.attempted as f64,
        "count",
    ));
    reconcile(
        src,
        &mut checker,
        [(&warm.1, &hot_req), (&pass, &src_req)],
        &mut rows,
    );
    let overhead = t.traced_latency_ns.median() - t.plain_latency_ns.median();
    rows.push(("trace.overhead_ns".into(), overhead, "ns"));

    layers::accel_rows(src, &mut rows);
    layers::compose_rows(src, &mut rows);
    layers::scaling_rows(&mut rows);

    write_trace(src, &pass, &mut checker);
    Report {
        correct: wrong == 0 && warm_wrong == 0,
        attempted: pass.attempted,
        failed,
        metrics: rows,
    }
}

/// Reconciles the layers of each traced cache miss (on `revisit-warm`,
/// those of the warm-up: its timed pass answers from the cache) with
/// its client-observed latency. Per miss, parse + queue + fingerprint +
/// eval + render should account for the latency; what remains of the
/// round trip is `server.unattributed_ns` (wakes, channel hand-off,
/// contention). Medians are taken over misses of the per-request sums:
/// the workloads mix accelerators whose layer costs differ by orders of
/// magnitude, so per-layer medians come from different requests and
/// need not add up.
fn reconcile(
    src: &Source,
    checker: &mut Checker,
    passes: [(&Pass, &dyn Fn(u64) -> Request); 2],
    rows: &mut Rows,
) {
    let mut parts: [Vec<f64>; 8] = Default::default();
    for (p, request) in passes {
        let Some(tr) = p.traced.as_ref() else {
            continue;
        };
        for m in &tr.misses {
            let repr = p.answers.first(m.slot).expect("answered").repr;
            let fresh = checker.fresh(&request(m.slot), repr);
            let queue_ns = m.queue_us * 1e3;
            let layers = [
                m.line_parse_ns,
                queue_ns,
                fresh.fingerprint_ns,
                fresh.eval_ns,
                m.render_ns,
            ];
            for (xs, x) in parts.iter_mut().zip(layers) {
                xs.push(x);
            }
            parts[5].push(layers.iter().sum());
            parts[6].push(m.latency_ns);
            parts[7].push(m.roundtrip_ns - queue_ns - fresh.fingerprint_ns - fresh.eval_ns);
        }
    }
    let med: Vec<f64> = parts.iter().map(|xs| median(xs)).collect();
    let err = (med[5] - med[6]).abs() / med[6];
    rows.push(("replay.fingerprint_ns".into(), med[2], "ns"));
    rows.push(("replay.eval_ns".into(), med[3], "ns"));
    rows.push(("server.unattributed_ns".into(), med[7], "ns"));
    rows.push(("trace.layer_sum_ns".into(), med[5], "ns"));
    rows.push(("trace.miss_latency_ns".into(), med[6], "ns"));
    rows.push(("trace.reconcile_err".into(), err, "ratio"));
    eprintln!(
        "perfbench {}: {} misses; median parse {:.0} + queue {:.0} + fingerprint {:.0} + eval {:.0} + render {:.0} ns; \
         median per-miss layer sum {:.0} ns vs latency {:.0} ns: {:.1}% apart, {} the {:.0}% tolerance",
        src.workload().name(),
        parts[6].len(),
        med[0],
        med[1],
        med[2],
        med[3],
        med[4],
        med[5],
        med[6],
        err * 100.0,
        if err <= RECONCILE_TOLERANCE { "within" } else { "OUTSIDE" },
        RECONCILE_TOLERANCE * 100.0,
    );
}

/// Exports the first traced requests of the pass as a Chrome JSON trace
/// (ui.perfetto.dev): one track per layer and outstanding-line lane, so
/// slices on a track never overlap. Fingerprint and evaluation slices
/// of misses carry their replayed durations.
fn write_trace(src: &Source, pass: &Pass, checker: &mut Checker) {
    let Some(t) = pass.traced.as_ref() else {
        return;
    };
    let mut ct = ChromeTrace::new();
    let pid = 1;
    ct.process_name(pid, &format!("perfbench {}", src.workload().name()));
    let tracks = [
        "client.request",
        "protocol.parse",
        "server.roundtrip",
        "server.queue",
        "adapter.fingerprint (replayed)",
        "tier.eval (replayed)",
        "protocol.render",
    ];
    let lanes = t.timeline.iter().map(|e| e.lane + 1).max().unwrap_or(1);
    let tid = |layer: usize, lane: u32| layer as u32 * lanes + lane + 1;
    for (layer, name) in tracks.iter().enumerate() {
        for lane in 0..lanes {
            ct.thread_name(pid, tid(layer, lane), &format!("{name} #{lane}"));
        }
    }
    let us = |ns: u64| ns / 1_000;
    let dur = |a: u64, b: u64| (b.saturating_sub(a) / 1_000).max(1);
    for e in &t.timeline {
        let id = [("slot", e.slot.to_string())];
        let mut slice = |layer: usize, from: u64, to: u64, name: &str| {
            ct.slice(pid, tid(layer, e.lane), us(from), dur(from, to), name, &id);
        };
        slice(0, e.parse.0, e.render_end, "request");
        slice(1, e.parse.0, e.parse.1, "parse");
        slice(2, e.roundtrip.0, e.roundtrip.1, "roundtrip");
        let queue_end = e.roundtrip.0 + (e.queue_us * 1e3) as u64;
        slice(3, e.roundtrip.0, queue_end, "queue");
        if e.miss {
            let repr = pass.answers.first(e.slot).expect("answered").repr;
            let fresh = checker.fresh(&src.request(e.slot), repr);
            let fp_end = queue_end + fresh.fingerprint_ns as u64;
            slice(4, queue_end, fp_end, "fingerprint");
            slice(5, fp_end, fp_end + fresh.eval_ns as u64, repr.name());
        }
        slice(6, e.roundtrip.1, e.render_end, "render");
    }
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{}.json", src.workload().name()));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, ct.to_json())) {
        Ok(()) => eprintln!("perfbench: wrote {} ({} events)", path.display(), ct.len()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
