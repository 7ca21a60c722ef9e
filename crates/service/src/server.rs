//! The multi-threaded query server.
//!
//! Architecture (see `DESIGN.md`, "The serving layer"):
//!
//! * **Admission** — a bounded queue guarded by a mutex/condvar pair.
//!   [`Service::submit`] blocks when the queue is full (backpressure);
//!   [`Service::try_submit`] rejects instead, which is what a
//!   saturation-aware client wants; [`Service::submit_batch`] admits a
//!   whole batch under one lock.
//! * **Workers** — N threads, each owning its own (non-`Send`) backend
//!   set. A worker pops a *burst* of jobs per lock acquisition and
//!   serves them back to back: per-query synchronization cost shrinks
//!   with queue depth, which is what makes batched serving more than
//!   `workers`-times faster than one-at-a-time round trips. For each
//!   job it checks the deadline, picks the most precise representation
//!   the remaining budget affords, answers from the fingerprint cache
//!   when possible, and sends the response on the job's channel.
//! * **Cache** — a power-of-two-sharded set of read-mostly [`RwLock`]
//!   maps keyed by the backend's deep fingerprint mixed with the
//!   metric. Hits take one shard's read lock; misses write one shard.
//!   Sharding by fingerprint bits keeps writers from serializing
//!   against each other as workers scale (a single map's write lock
//!   was the 8-worker bottleneck on cold corpora).
//! * **Degradation ladder** — Petri net → program → NL bound. The
//!   choice uses per-(accelerator, representation) EWMA cost
//!   estimates; the NL rung is closed-form arithmetic and always
//!   affordable, so only queue expiry produces a deadline error.
//! * **Metrics** — workers accumulate into a burst-local
//!   [`ServiceMetrics`] and merge it into the shared one once per
//!   burst, so counters cost one lock per burst, not per query.
//!   Snapshots may therefore lag in-flight bursts by a few entries.
//! * **Shutdown** — [`Service::shutdown`] closes admission, lets the
//!   workers drain every queued job, and joins them.

use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::protocol::{Outcome, ReprChoice, Request, Response};
use crate::registry;
use perf_core::iface::InterfaceKind;
use perf_core::query::{Fnv1a, QueryBackend};
use perf_core::{Budget, Prediction};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tunables.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads.
    pub workers: usize,
    /// Admission-queue capacity; beyond it, `submit` blocks and
    /// `try_submit` rejects.
    pub queue_cap: usize,
    /// Result-cache capacity in entries.
    pub cache_cap: usize,
    /// Deadline applied to requests that carry none, in microseconds.
    pub default_deadline_us: Option<u64>,
    /// Result-cache shard count; `0` picks one automatically from the
    /// worker count. Shard selection masks the fingerprint's low bits,
    /// so any requested count is **rounded up to a power of two** at
    /// construction — a non-power-of-two count would alias distinct
    /// shards through the mask and silently concentrate contention.
    /// It is also capped at the largest power of two not above
    /// `cache_cap`, so every shard holds at least one entry and the
    /// per-shard caps sum to at most `cache_cap`.
    pub cache_shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            queue_cap: 256,
            cache_cap: 4096,
            default_deadline_us: None,
            cache_shards: 0,
        }
    }
}

/// Cold-start cost priors (microseconds) for the degradation ladder,
/// indexed `[nl / program / petri]`. Replaced by per-accelerator EWMA
/// after the first evaluation of each rung. They describe the
/// compiled evaluators (the `.pi` bytecode VM and the Petri stepper);
/// priors that are too high make cold deadlines degrade spuriously.
const COST_PRIOR_US: [f64; 3] = [5.0, 60.0, 800.0];

/// EWMA smoothing factor for cost estimates.
const EWMA_ALPHA: f64 = 0.3;

/// Safety margin applied to cost estimates when checking a deadline.
const EST_MARGIN: f64 = 1.2;

/// Jobs a worker claims per queue-lock acquisition. Bursts amortize
/// the mutex/condvar round trip across queue depth; 1 would recreate
/// the one-wake-per-job regime batched serving exists to avoid.
const BURST: usize = 8;

struct Job {
    req: Request,
    enqueued: Instant,
    deadline: Option<Instant>,
    tx: Sender<Response>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    cfg: ServiceConfig,
    queue: Mutex<QueueState>,
    /// Signaled when a job arrives or the queue closes.
    available: Condvar,
    /// Signaled when a job leaves the queue.
    space: Condvar,
    /// Fingerprint-keyed results: key mixes the backend's deep
    /// fingerprint with the metric, sharded by the key's low bits
    /// (power-of-two shard count). Read-mostly: hits share one
    /// shard's read lock, only misses write, and concurrent misses on
    /// different shards do not contend.
    cache: Vec<RwLock<HashMap<u64, (Prediction, InterfaceKind)>>>,
    /// Per-shard entry cap (`cache_cap / shards`; the shard count
    /// never exceeds `cache_cap`, so this is at least 1).
    shard_cap: usize,
    /// Admission-side counters kept out of the metrics mutex: the
    /// submit path used to take the metrics lock *while holding the
    /// queue lock*, which stretched every queue-lock hold by a second
    /// mutex acquisition and serialized submitters against worker
    /// burst merges.
    submitted: AtomicU64,
    rejected: AtomicU64,
    queue_high_water: AtomicUsize,
    metrics: Mutex<ServiceMetrics>,
    /// EWMA evaluation cost in microseconds per (accelerator,
    /// representation index).
    costs: Mutex<HashMap<(String, usize), f64>>,
}

/// The running query service.
///
/// # Examples
///
/// ```
/// use perf_service::{Service, ServiceConfig};
/// use perf_service::protocol::{Outcome, ReprChoice, Request};
/// use perf_core::iface::Metric;
/// use perf_core::query::WorkloadSpec;
/// use std::sync::mpsc;
///
/// let svc = Service::start(ServiceConfig { workers: 2, ..Default::default() });
/// let (tx, rx) = mpsc::channel();
/// svc.submit(
///     Request {
///         id: 1,
///         accel: "vta".into(),
///         spec: WorkloadSpec::new("finish_only"),
///         metric: Metric::Latency,
///         repr: ReprChoice::Auto,
///         deadline_us: None,
///     },
///     tx,
/// );
/// let resp = rx.recv().unwrap();
/// assert!(matches!(resp.outcome, Outcome::Answer { .. }));
/// svc.shutdown();
/// ```
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

fn ridx(kind: InterfaceKind) -> usize {
    match kind {
        InterfaceKind::NaturalLanguage => 0,
        InterfaceKind::Program => 1,
        InterfaceKind::PetriNet => 2,
    }
}

impl Service {
    /// Spawns the worker pool and returns the handle.
    pub fn start(cfg: ServiceConfig) -> Service {
        let cfg = ServiceConfig {
            workers: cfg.workers.max(1),
            queue_cap: cfg.queue_cap.max(1),
            cache_cap: cfg.cache_cap.max(1),
            ..cfg
        };
        // Enough shards that concurrent cache misses rarely collide
        // (4x workers by default, bounded so tiny configs don't
        // fragment the cap). Whatever the source, the count is rounded
        // up to a power of two: shard selection masks the key's low
        // bits, and masking against a non-power-of-two length aliases
        // shards (e.g. len 12 never selects shards 4–7 for half the
        // key space and doubles up others).
        let shards = if cfg.cache_shards == 0 {
            (cfg.workers * 4).next_power_of_two().clamp(8, 64)
        } else {
            cfg.cache_shards.next_power_of_two()
        }
        .min(1 << cfg.cache_cap.ilog2());
        debug_assert!(shards.is_power_of_two());
        let shared = Arc::new(Shared {
            cfg,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            space: Condvar::new(),
            cache: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            shard_cap: cfg.cache_cap / shards,
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            queue_high_water: AtomicUsize::new(0),
            metrics: Mutex::new(ServiceMetrics::default()),
            costs: Mutex::new(HashMap::new()),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("perf-service-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Service { shared, workers }
    }

    fn make_job(&self, mut req: Request, tx: Sender<Response>) -> Job {
        let enqueued = Instant::now();
        if req.deadline_us.is_none() {
            req.deadline_us = self.shared.cfg.default_deadline_us;
        }
        let deadline = req
            .deadline_us
            .map(|us| enqueued + Duration::from_micros(us));
        Job {
            req,
            enqueued,
            deadline,
            tx,
        }
    }

    /// Submits one request, blocking while the queue is full
    /// (backpressure). Returns `false` — with a `Rejected` response
    /// already sent — only when the service is shut down.
    pub fn submit(&self, req: Request, tx: Sender<Response>) -> bool {
        let job = self.make_job(req, tx);
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        let mut q = self.shared.queue.lock().expect("queue lock");
        while q.jobs.len() >= self.shared.cfg.queue_cap && !q.closed {
            q = self.shared.space.wait(q).expect("queue lock");
        }
        if q.closed {
            drop(q);
            self.reject(job);
            return false;
        }
        self.enqueue(q, job);
        true
    }

    /// Submits one request without blocking. When the queue is full
    /// the request is rejected immediately (a `Rejected` response is
    /// sent on `tx`) and `false` is returned.
    pub fn try_submit(&self, req: Request, tx: Sender<Response>) -> bool {
        let job = self.make_job(req, tx);
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        let q = self.shared.queue.lock().expect("queue lock");
        if q.closed || q.jobs.len() >= self.shared.cfg.queue_cap {
            drop(q);
            self.reject(job);
            return false;
        }
        self.enqueue(q, job);
        true
    }

    /// Admits a whole batch under one queue lock, blocking for space
    /// as needed (backpressure); wakes one worker per claimable burst
    /// rather than the whole pool. Returns how many were admitted —
    /// less than the batch size only if the service shuts down
    /// mid-batch (the rest get `Rejected` responses).
    pub fn submit_batch(&self, reqs: Vec<Request>, tx: &Sender<Response>) -> usize {
        let mut jobs: VecDeque<Job> = reqs
            .into_iter()
            .map(|r| self.make_job(r, tx.clone()))
            .collect();
        self.shared
            .submitted
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        let mut admitted = 0;
        let mut q = self.shared.queue.lock().expect("queue lock");
        while let Some(job) = jobs.pop_front() {
            while q.jobs.len() >= self.shared.cfg.queue_cap && !q.closed {
                // Queue full: jobs are available, so no worker is
                // parked on `available` for lack of work — but one may
                // not have run since its wake. Nudge the pool and wait
                // for space.
                self.shared.available.notify_all();
                q = self.shared.space.wait(q).expect("queue lock");
            }
            if q.closed {
                jobs.push_front(job);
                break;
            }
            q.jobs.push_back(job);
            admitted += 1;
        }
        let depth = q.jobs.len();
        drop(q);
        self.shared
            .queue_high_water
            .fetch_max(depth, Ordering::Relaxed);
        // Wake exactly as many workers as there are bursts to claim.
        // `notify_all` here woke the whole pool for every batch; with
        // sub-microsecond warm-cache serves, the surplus workers lost
        // the race, found the queue empty, and re-parked — a
        // thundering herd of pure contention on the queue mutex.
        let wakes = depth.div_ceil(BURST).min(self.shared.cfg.workers).max(1);
        for _ in 0..wakes {
            self.shared.available.notify_one();
        }
        for job in jobs {
            self.reject(job);
        }
        admitted
    }

    fn enqueue(&self, mut q: std::sync::MutexGuard<'_, QueueState>, job: Job) {
        q.jobs.push_back(job);
        let depth = q.jobs.len();
        drop(q);
        self.shared
            .queue_high_water
            .fetch_max(depth, Ordering::Relaxed);
        self.shared.available.notify_one();
    }

    fn reject(&self, job: Job) {
        self.shared.rejected.fetch_add(1, Ordering::Relaxed);
        let _ = job.tx.send(Response {
            id: job.req.id,
            accel: job.req.accel,
            metric: job.req.metric,
            outcome: Outcome::Rejected,
        });
    }

    /// Submits a whole batch without blocking; returns how many were
    /// admitted (the rest got `Rejected` responses).
    pub fn try_submit_batch(&self, reqs: Vec<Request>, tx: &Sender<Response>) -> usize {
        reqs.into_iter()
            .map(|r| self.try_submit(r, tx.clone()) as usize)
            .sum()
    }

    /// A snapshot of the service counters and latency histograms.
    /// Workers flush their burst-local counters once per burst, so a
    /// snapshot taken mid-flight may lag by a few entries.
    pub fn metrics(&self) -> MetricsSnapshot {
        snapshot(&self.shared)
    }

    /// Clears counters and histograms while leaving the cache and
    /// cost estimates intact. Load generators use this to measure a
    /// steady-state pass without the warm-up pass polluting the
    /// numbers.
    pub fn reset_metrics(&self) {
        *self.shared.metrics.lock().expect("metrics lock") = ServiceMetrics::default();
        self.shared.submitted.store(0, Ordering::Relaxed);
        self.shared.rejected.store(0, Ordering::Relaxed);
        self.shared.queue_high_water.store(0, Ordering::Relaxed);
    }

    /// Entries currently held by the result cache, summed across
    /// shards.
    pub fn cache_len(&self) -> usize {
        self.shared
            .cache
            .iter()
            .map(|s| s.read().expect("cache lock").len())
            .sum()
    }

    /// Current queue depth (for load generators and tests).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("queue lock").jobs.len()
    }

    /// Closes admission, drains every queued job, and joins the
    /// workers. Responses for all admitted jobs are delivered before
    /// this returns.
    pub fn shutdown(self) -> MetricsSnapshot {
        {
            let mut q = self.shared.queue.lock().expect("queue lock");
            q.closed = true;
        }
        self.shared.available.notify_all();
        self.shared.space.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
        snapshot(&self.shared)
    }
}

/// Counters snapshot folding the lock-free admission counters into
/// the worker-side histogram state.
fn snapshot(shared: &Shared) -> MetricsSnapshot {
    let mut s = shared.metrics.lock().expect("metrics lock").snapshot();
    s.submitted = shared.submitted.load(Ordering::Relaxed);
    s.rejected = shared.rejected.load(Ordering::Relaxed);
    s.queue_high_water = shared.queue_high_water.load(Ordering::Relaxed);
    s
}

/// The cache shard holding `key` (shard count is a power of two, so
/// selection is a mask of the fingerprint's low bits).
fn shard(shared: &Shared, key: u64) -> &RwLock<HashMap<u64, (Prediction, InterfaceKind)>> {
    debug_assert!(
        shared.cache.len().is_power_of_two(),
        "shard selection masks low bits; a non-power-of-two count aliases shards"
    );
    &shared.cache[(key as usize) & (shared.cache.len() - 1)]
}

/// Caches one answer. A full shard is emptied before the insert: the
/// simplest eviction that provably keeps every shard at or below
/// `shard_cap`, whatever the keys.
fn cache_insert(shared: &Shared, key: u64, value: (Prediction, InterfaceKind)) {
    let mut cache = shard(shared, key).write().expect("cache lock");
    if cache.len() >= shared.shard_cap && !cache.contains_key(&key) {
        cache.clear();
    }
    cache.insert(key, value);
}

/// The ladder from a requested ceiling, most precise first.
fn ladder(ceiling: InterfaceKind) -> &'static [InterfaceKind] {
    match ceiling {
        InterfaceKind::PetriNet => &[
            InterfaceKind::PetriNet,
            InterfaceKind::Program,
            InterfaceKind::NaturalLanguage,
        ],
        InterfaceKind::Program => &[InterfaceKind::Program, InterfaceKind::NaturalLanguage],
        InterfaceKind::NaturalLanguage => &[InterfaceKind::NaturalLanguage],
    }
}

/// Worker-thread state: its own backend set (interpreter state is not
/// `Send`) and a memo from cheap spec fingerprints to the backend's
/// deep fingerprint, so repeat queries skip re-realizing workloads on
/// the cache-hit path.
struct WorkerState {
    backends: HashMap<String, Box<dyn QueryBackend>>,
    fp_memo: HashMap<(u64, u8), u64>,
}

fn cache_key(state: &mut WorkerState, req: &Request, repr: InterfaceKind) -> u64 {
    let spec_fp = {
        let mut h = Fnv1a::new();
        h.write(req.accel.as_bytes());
        h.write_u64(req.spec.fingerprint());
        h.finish()
    };
    let backend = state
        .backends
        .get_mut(&req.accel)
        .expect("backend constructed before keying");
    let deep = *state
        .fp_memo
        .entry((spec_fp, repr as u8))
        .or_insert_with(|| backend.fingerprint(&req.spec, repr));
    let mut h = Fnv1a::new();
    h.write_u64(deep);
    h.write(&[req.metric as u8]);
    h.finish()
}

fn worker_loop(shared: &Shared) {
    let mut state = WorkerState {
        backends: HashMap::new(),
        fp_memo: HashMap::new(),
    };
    let mut burst: Vec<Job> = Vec::with_capacity(BURST);
    loop {
        let mut local = ServiceMetrics::default();
        let leftover;
        {
            // Time the lock acquisition itself: on a warm cache serves
            // are sub-microsecond, so if workers stop scaling the wait
            // here is the lock-hold evidence the svcbench diagnosis
            // reports (vs. condvar-herd, evidenced by spurious wakes).
            let t_lock = Instant::now();
            let mut q = shared.queue.lock().expect("queue lock");
            local.lock_wait_us += t_lock.elapsed().as_micros() as f64;
            loop {
                if !q.jobs.is_empty() {
                    let n = q.jobs.len().min(BURST);
                    burst.extend(q.jobs.drain(..n));
                    local.bursts += 1;
                    leftover = !q.jobs.is_empty();
                    break;
                }
                if q.closed {
                    return;
                }
                q = shared.available.wait(q).expect("queue lock");
                local.worker_wakes += 1;
                if q.jobs.is_empty() && !q.closed {
                    local.spurious_wakes += 1;
                }
            }
        }
        // Chain-wake: if jobs remain after this claim, wake exactly one
        // more worker. Submitters wake one worker per claimable burst,
        // so the pool fans out one wake at a time instead of stampeding
        // on every batch.
        if leftover {
            shared.available.notify_one();
        }
        // One space wake-up per claimed burst, not per job.
        if burst.len() > 1 {
            shared.space.notify_all();
        } else {
            shared.space.notify_one();
        }
        for job in burst.drain(..) {
            serve(shared, &mut state, job, &mut local);
        }
        shared.metrics.lock().expect("metrics lock").merge(&local);
    }
}

fn send(job: &Job, outcome: Outcome) {
    let _ = job.tx.send(Response {
        id: job.req.id,
        accel: job.req.accel.clone(),
        metric: job.req.metric,
        outcome,
    });
}

fn serve(shared: &Shared, state: &mut WorkerState, job: Job, metrics: &mut ServiceMetrics) {
    let picked_up = Instant::now();
    let queue_us = picked_up.duration_since(job.enqueued).as_micros() as f64;
    if let Some(d) = job.deadline {
        if picked_up > d {
            metrics.expired += 1;
            send(&job, Outcome::Expired);
            return;
        }
    }
    if !state.backends.contains_key(&job.req.accel) {
        match registry::backend(&job.req.accel) {
            Ok(b) => {
                state.backends.insert(job.req.accel.clone(), b);
            }
            Err(err) => {
                metrics.errors += 1;
                send(&job, Outcome::Error(err.to_string()));
                return;
            }
        }
    }
    let ceiling = match job.req.repr {
        ReprChoice::Auto => InterfaceKind::PetriNet,
        ReprChoice::Ceiling(k) => k,
    };
    let rungs = ladder(ceiling);
    // Pick the most precise rung that is either already cached (hits
    // are free) or whose estimated cost fits the remaining deadline.
    // The last rung is the fallback: NL bounds are plain arithmetic.
    let mut chosen = *rungs.last().expect("ladder non-empty");
    let mut cached: Option<(Prediction, InterfaceKind)> = None;
    for &rung in rungs {
        let key = cache_key(state, &job.req, rung);
        if let Some(&hit) = shard(shared, key).read().expect("cache lock").get(&key) {
            chosen = rung;
            cached = Some(hit);
            break;
        }
        let affordable = match job.deadline {
            None => true,
            Some(d) => {
                let remaining_us = d.saturating_duration_since(Instant::now()).as_micros() as f64;
                let est = *shared
                    .costs
                    .lock()
                    .expect("costs lock")
                    .get(&(job.req.accel.clone(), ridx(rung)))
                    .unwrap_or(&COST_PRIOR_US[ridx(rung)]);
                est * EST_MARGIN <= remaining_us
            }
        };
        if affordable {
            chosen = rung;
            break;
        }
    }
    let degraded = chosen != ceiling;
    let backend = state
        .backends
        .get_mut(&job.req.accel)
        .expect("backend constructed above");
    let budget: Budget = backend.budget(chosen, job.req.metric);
    let (prediction, cache_hit, service_us) = match cached {
        Some((p, _)) => (p, true, 0.0),
        None => {
            let t0 = Instant::now();
            match backend.predict(&job.req.spec, chosen, job.req.metric) {
                Ok(p) => {
                    let service_us = t0.elapsed().as_micros() as f64;
                    // Update the EWMA cost estimate for this rung.
                    let mut costs = shared.costs.lock().expect("costs lock");
                    let slot = costs
                        .entry((job.req.accel.clone(), ridx(chosen)))
                        .or_insert(service_us);
                    *slot = (1.0 - EWMA_ALPHA) * *slot + EWMA_ALPHA * service_us;
                    drop(costs);
                    let key = cache_key(state, &job.req, chosen);
                    cache_insert(shared, key, (p, chosen));
                    (p, false, service_us)
                }
                Err(err) => {
                    metrics.errors += 1;
                    send(&job, Outcome::Error(err.to_string()));
                    return;
                }
            }
        }
    };
    metrics.record_answer(chosen, degraded, cache_hit, queue_us, service_us);
    send(
        &job,
        Outcome::Answer {
            prediction,
            repr_used: chosen,
            degraded,
            budget,
            cache_hit,
            queue_us,
            service_us,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_core::iface::Metric;
    use perf_core::query::WorkloadSpec;
    use std::sync::mpsc;

    fn vta_req(id: u64, seed: f64) -> Request {
        Request {
            id,
            accel: "vta".into(),
            spec: WorkloadSpec::new("random")
                .with("seed", seed)
                .with("max_blocks", 8.0),
            metric: Metric::Latency,
            repr: ReprChoice::Auto,
            deadline_us: None,
        }
    }

    #[test]
    fn answers_and_caches_repeat_queries() {
        let svc = Service::start(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        let (tx, rx) = mpsc::channel();
        for id in 0..4 {
            svc.submit(vta_req(id, 7.0), tx.clone());
        }
        let mut hits = 0;
        for _ in 0..4 {
            match rx.recv().unwrap().outcome {
                Outcome::Answer {
                    cache_hit,
                    repr_used,
                    ..
                } => {
                    assert_eq!(repr_used, InterfaceKind::PetriNet);
                    hits += cache_hit as u64;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(hits >= 2, "identical specs should hit the cache");
        let snap = svc.shutdown();
        assert_eq!(snap.completed, 4);
        assert_eq!(snap.errors, 0);
    }

    #[test]
    fn non_power_of_two_shard_request_rounds_up() {
        // Regression: shard selection masks the key's low bits, so a
        // literal non-power-of-two count (12 → mask 0b1011) would
        // never select shards 4–7 and alias the rest. Construction
        // must round up.
        for (req, want) in [(1, 1), (3, 4), (12, 16), (16, 16), (33, 64)] {
            let svc = Service::start(ServiceConfig {
                workers: 1,
                cache_shards: req,
                ..Default::default()
            });
            assert_eq!(
                svc.shared.cache.len(),
                want,
                "requested {req} shards must become {want}"
            );
            // Every shard index must be reachable by the mask.
            for k in 0..(want as u64 * 4) {
                let got = (k as usize) & (svc.shared.cache.len() - 1);
                assert!(got < svc.shared.cache.len());
            }
            svc.shutdown();
        }
        // Queries still resolve correctly on a rounded-up count.
        let svc = Service::start(ServiceConfig {
            workers: 2,
            cache_shards: 12,
            ..Default::default()
        });
        let (tx, rx) = mpsc::channel();
        for id in 0..8 {
            svc.submit(vta_req(id, id as f64), tx.clone());
        }
        for _ in 0..8 {
            assert!(matches!(rx.recv().unwrap().outcome, Outcome::Answer { .. }));
        }
        assert!(svc.cache_len() > 0);
        svc.shutdown();
    }

    #[test]
    fn cache_stays_within_its_capacity() {
        // Regression: eviction used to keep every key with bit 32
        // clear, so such keys grew a full shard without bound (and
        // every further miss rescanned it).
        let svc = Service::start(ServiceConfig {
            workers: 1,
            cache_cap: 64,
            ..Default::default()
        });
        for key in 0..10_000u64 {
            assert_eq!((key >> 32) & 1, 0);
            cache_insert(
                &svc.shared,
                key,
                (Prediction::point(key as f64), InterfaceKind::PetriNet),
            );
            assert!(svc.cache_len() <= 64, "cache grew past its cap");
        }
        // A tiny cap still bounds a many-shard cache.
        let svc1 = Service::start(ServiceConfig {
            workers: 4,
            cache_cap: 3,
            cache_shards: 64,
            ..Default::default()
        });
        for key in 0..1_000u64 {
            cache_insert(
                &svc1.shared,
                key,
                (Prediction::point(0.0), InterfaceKind::NaturalLanguage),
            );
        }
        assert!(svc1.cache_len() <= 3);
        svc.shutdown();
        svc1.shutdown();
    }

    #[test]
    fn unknown_accel_is_an_error_response() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let (tx, rx) = mpsc::channel();
        let mut req = vta_req(1, 1.0);
        req.accel = "warp-drive".into();
        svc.submit(req, tx);
        assert!(matches!(rx.recv().unwrap().outcome, Outcome::Error(_)));
        svc.shutdown();
    }

    #[test]
    fn explicit_repr_ceiling_is_honored() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let (tx, rx) = mpsc::channel();
        let mut req = vta_req(1, 3.0);
        req.repr = ReprChoice::Ceiling(InterfaceKind::Program);
        svc.submit(req, tx);
        match rx.recv().unwrap().outcome {
            Outcome::Answer {
                repr_used,
                degraded,
                ..
            } => {
                assert_eq!(repr_used, InterfaceKind::Program);
                assert!(!degraded);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        svc.shutdown();
    }

    #[test]
    fn submit_batch_admits_everything_under_capacity_pressure() {
        let svc = Service::start(ServiceConfig {
            workers: 2,
            queue_cap: 4,
            ..Default::default()
        });
        let (tx, rx) = mpsc::channel();
        let reqs: Vec<Request> = (0..32).map(|i| vta_req(i, i as f64)).collect();
        let admitted = svc.submit_batch(reqs, &tx);
        assert_eq!(admitted, 32, "blocking batch admission admits all");
        drop(tx);
        let got: Vec<Response> = rx.iter().collect();
        assert_eq!(got.len(), 32);
        assert!(got
            .iter()
            .all(|r| matches!(r.outcome, Outcome::Answer { .. })));
        let snap = svc.shutdown();
        assert_eq!(snap.completed, 32);
    }
}
