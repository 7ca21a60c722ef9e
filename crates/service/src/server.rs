//! The multi-threaded query server.
//!
//! Architecture (see `DESIGN.md`, "The serving layer"):
//!
//! * **Admission** — answers what needs no worker on the submitting
//!   thread, and queues the rest in a bounded queue guarded by a
//!   mutex/condvar pair. A request whose deadline has already passed
//!   is `Expired`, and a request whose ceiling rung is cached gets the
//!   cached answer, exactly as a worker would answer it: nothing is
//!   queued and no worker is woken. [`Service::submit`] blocks when
//!   the queue is full (backpressure); [`Service::try_submit`] rejects
//!   instead, which is what a saturation-aware client wants;
//!   [`Service::submit_batch`] queues a whole batch's misses under one
//!   lock.
//! * **Workers** — N threads, each owning its own (non-`Send`) backend
//!   set. A worker pops a *burst* of jobs per lock acquisition and
//!   serves them back to back: per-query synchronization cost shrinks
//!   with queue depth, which is what makes batched serving more than
//!   `workers`-times faster than one-at-a-time round trips. For each
//!   job it checks the deadline, picks the most precise representation
//!   that is cached or that the remaining budget affords, evaluates on
//!   a miss, and sends the response on the job's channel.
//! * **Cache** — one exact result cache keyed by the canonical request
//!   (`request_key`): the rung, the metric, the accelerator and
//!   the spec, compared in full, so two requests share an answer only
//!   when they ask the same thing. Each entry holds the prediction and
//!   its budget, so a hit needs no backend. The cache is a
//!   power-of-two-sharded set of read-mostly [`RwLock`] maps: hits take
//!   one shard's read lock, misses write one shard, and concurrent
//!   misses on different shards do not contend.
//! * **Degradation ladder** — Petri net → program → NL bound. The
//!   choice uses per-(accelerator, representation) EWMA cost
//!   estimates; the NL rung is closed-form arithmetic and always
//!   affordable, so only queue expiry produces a deadline error.
//! * **Metrics** — lock-free counters and fixed-size histograms
//!   ([`ServiceMetrics`]); every answer is counted before its response
//!   is sent.
//! * **Shutdown** — [`Service::shutdown`] closes admission, lets the
//!   workers drain every queued job, and joins them.

use crate::metrics::{bump, MetricsSnapshot, ServiceMetrics};
use crate::protocol::{Outcome, ReprChoice, Request, Response};
use crate::registry;
use perf_core::iface::InterfaceKind;
use perf_core::query::{Fnv1a, QueryBackend};
use perf_core::{Budget, Prediction};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
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
    /// worker count. Shard selection masks the low bits of the key's
    /// hash, so any requested count is **rounded up to a power of
    /// two** at construction — a non-power-of-two count would alias
    /// distinct shards through the mask and silently concentrate
    /// contention. It is also capped at the largest power of two not
    /// above `cache_cap`, so every shard holds at least one entry and
    /// the per-shard caps sum to at most `cache_cap`.
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
    /// [`request_key`] of `req`, at the ceiling rung until a worker
    /// walks the ladder.
    key: Vec<u8>,
    enqueued: Instant,
    deadline: Option<Instant>,
    tx: Sender<Response>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// A cached answer: all a response needs, so a hit needs no backend.
#[derive(Clone, Copy, Debug)]
struct Cached {
    prediction: Prediction,
    budget: Budget,
}

type Shard = RwLock<HashMap<Box<[u8]>, Cached>>;

/// One worker's backends, by accelerator name (interpreter state is
/// not `Send`, so every worker builds its own).
type Backends = HashMap<String, Box<dyn QueryBackend>>;

struct Shared {
    cfg: ServiceConfig,
    queue: Mutex<QueueState>,
    /// Signaled when a job arrives or the queue closes.
    available: Condvar,
    /// Signaled when a job leaves the queue.
    space: Condvar,
    /// Exact results by [`request_key`], sharded by a mixed hash of
    /// the key (power-of-two shard count).
    cache: Vec<Shard>,
    /// Per-shard entry cap (`cache_cap / shards`; the shard count
    /// never exceeds `cache_cap`, so this is at least 1).
    shard_cap: usize,
    metrics: ServiceMetrics,
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

/// The most precise rung a request accepts.
fn ceiling(repr: ReprChoice) -> InterfaceKind {
    match repr {
        ReprChoice::Auto => InterfaceKind::PetriNet,
        ReprChoice::Ceiling(k) => k,
    }
}

/// Appends `s` length-prefixed, so adjacent strings cannot run into
/// each other.
fn put_str(key: &mut Vec<u8>, s: &str) {
    key.extend_from_slice(&(s.len() as u64).to_le_bytes());
    key.extend_from_slice(s.as_bytes());
}

/// Index of the rung byte in a [`request_key`].
const RUNG_BYTE: usize = 0;

/// The exact cache key of `req` answered at `rung`: the rung, the
/// metric, the accelerator, the spec kind, then the spec's fields
/// sorted by name, each as its name and the bits of its value. Strings
/// are length-prefixed and the sort is stable, so two requests get the
/// same key only when they name the same accelerator, metric, rung and
/// spec field for field and bit for bit; the order fields were sent in
/// does not matter. The rung is byte [`RUNG_BYTE`], so the ladder
/// re-keys a request by rewriting one byte.
fn request_key(req: &Request, rung: InterfaceKind) -> Vec<u8> {
    let mut key = Vec::with_capacity(96);
    key.push(rung as u8);
    key.push(req.metric as u8);
    put_str(&mut key, &req.accel);
    put_str(&mut key, &req.spec.kind);
    let mut fields: Vec<&(String, f64)> = req.spec.fields.iter().collect();
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, value) in fields {
        put_str(&mut key, name);
        key.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    key
}

/// SplitMix64's finalizer. FNV-1a's low bits depend only on the low
/// bits of the input bytes, and the shard is picked by the low bits,
/// so the hash is mixed first.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Shared {
    fn new(cfg: ServiceConfig) -> Shared {
        let cfg = ServiceConfig {
            workers: cfg.workers.max(1),
            queue_cap: cfg.queue_cap.max(1),
            cache_cap: cfg.cache_cap.max(1),
            ..cfg
        };
        // Enough shards that concurrent cache misses rarely collide
        // (4x workers by default, bounded so tiny configs don't
        // fragment the cap). Whatever the source, the count is rounded
        // up to a power of two: shard selection masks the hash's low
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
        Shared {
            cfg,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            space: Condvar::new(),
            cache: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            shard_cap: cfg.cache_cap / shards,
            metrics: ServiceMetrics::default(),
            costs: Mutex::new(HashMap::new()),
        }
    }

    fn job(&self, mut req: Request, tx: Sender<Response>) -> Job {
        let enqueued = Instant::now();
        if req.deadline_us.is_none() {
            req.deadline_us = self.cfg.default_deadline_us;
        }
        let deadline = req
            .deadline_us
            .map(|us| enqueued + Duration::from_micros(us));
        Job {
            key: request_key(&req, ceiling(req.repr)),
            req,
            enqueued,
            deadline,
            tx,
        }
    }

    /// The cache shard holding `key` (shard count is a power of two,
    /// so selection is a mask of the mixed hash's low bits).
    fn shard(&self, key: &[u8]) -> &Shard {
        debug_assert!(
            self.cache.len().is_power_of_two(),
            "shard selection masks low bits; a non-power-of-two count aliases shards"
        );
        let mut h = Fnv1a::new();
        h.write(key);
        &self.cache[(mix(h.finish()) as usize) & (self.cache.len() - 1)]
    }

    fn lookup(&self, key: &[u8]) -> Option<Cached> {
        self.shard(key)
            .read()
            .expect("cache lock")
            .get(key)
            .copied()
    }

    /// Caches one answer. A full shard is emptied before the insert:
    /// the simplest eviction that provably keeps every shard at or
    /// below `shard_cap`, whatever the keys.
    fn insert(&self, key: Vec<u8>, value: Cached) {
        let mut cache = self.shard(&key).write().expect("cache lock");
        if cache.len() >= self.shard_cap && !cache.contains_key(&key[..]) {
            cache.clear();
        }
        cache.insert(key.into_boxed_slice(), value);
    }

    /// Answers `job` on the calling thread when that needs no worker,
    /// with what a worker would answer: `Expired` once its deadline has
    /// passed at `now`, the cached answer when its ceiling rung is
    /// cached. Returns the job when a worker must serve it.
    fn admit(&self, job: Job, now: Instant) -> Option<Job> {
        if job.deadline.is_some_and(|d| now > d) {
            bump(&self.metrics.expired);
            send(&job, Outcome::Expired);
            return None;
        }
        let Some(hit) = self.lookup(&job.key) else {
            return Some(job);
        };
        let repr_used = ceiling(job.req.repr);
        self.metrics.record_answer(repr_used, false, true, 0, 0);
        send(
            &job,
            Outcome::Answer {
                prediction: hit.prediction,
                repr_used,
                degraded: false,
                budget: hit.budget,
                cache_hit: true,
                queue_us: 0.0,
                service_us: 0.0,
            },
        );
        None
    }
}

impl Service {
    /// Spawns the worker pool and returns the handle.
    pub fn start(cfg: ServiceConfig) -> Service {
        let shared = Arc::new(Shared::new(cfg));
        let workers = (0..shared.cfg.workers)
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

    /// The job for `req`, or `None` when admission answered it.
    fn admit(&self, req: Request, tx: Sender<Response>) -> Option<Job> {
        let shared = &self.shared;
        bump(&shared.metrics.submitted);
        shared.admit(shared.job(req, tx), Instant::now())
    }

    /// Submits one request, blocking while the queue is full
    /// (backpressure). A cache hit or an already-expired request is
    /// answered before this returns. Returns `false` — with a
    /// `Rejected` response already sent — only when the service is
    /// shut down.
    pub fn submit(&self, req: Request, tx: Sender<Response>) -> bool {
        let Some(job) = self.admit(req, tx) else {
            return true;
        };
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

    /// Submits one request without blocking. A cache hit is answered
    /// before this returns. When the queue is full the request is
    /// rejected immediately (a `Rejected` response is sent on `tx`)
    /// and `false` is returned.
    pub fn try_submit(&self, req: Request, tx: Sender<Response>) -> bool {
        let Some(job) = self.admit(req, tx) else {
            return true;
        };
        let q = self.shared.queue.lock().expect("queue lock");
        if q.closed || q.jobs.len() >= self.shared.cfg.queue_cap {
            drop(q);
            self.reject(job);
            return false;
        }
        self.enqueue(q, job);
        true
    }

    /// Answers a batch's cache hits, then queues the rest under one
    /// queue lock, blocking for space as needed (backpressure); wakes
    /// one worker per claimable burst rather than the whole pool, and
    /// none when every request was answered. Returns how many were
    /// admitted (answered or queued) — less than the batch size only
    /// if the service shuts down mid-batch (the rest get `Rejected`
    /// responses).
    pub fn submit_batch(&self, reqs: Vec<Request>, tx: &Sender<Response>) -> usize {
        let offered = reqs.len();
        let mut jobs: VecDeque<Job> = reqs
            .into_iter()
            .filter_map(|r| self.admit(r, tx.clone()))
            .collect();
        let mut admitted = offered - jobs.len();
        if jobs.is_empty() {
            return admitted;
        }
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
            .metrics
            .queue_high_water
            .fetch_max(depth, Ordering::Relaxed);
        // Wake exactly as many workers as there are bursts to claim.
        // `notify_all` here woke the whole pool for every batch; with
        // sub-microsecond serves, the surplus workers lost the race,
        // found the queue empty, and re-parked — a thundering herd of
        // pure contention on the queue mutex.
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
            .metrics
            .queue_high_water
            .fetch_max(depth, Ordering::Relaxed);
        self.shared.available.notify_one();
    }

    fn reject(&self, job: Job) {
        bump(&self.shared.metrics.rejected);
        send(&job, Outcome::Rejected);
    }

    /// Submits a whole batch without blocking; returns how many were
    /// admitted (the rest got `Rejected` responses).
    pub fn try_submit_batch(&self, reqs: Vec<Request>, tx: &Sender<Response>) -> usize {
        reqs.into_iter()
            .map(|r| self.try_submit(r, tx.clone()) as usize)
            .sum()
    }

    /// A snapshot of the service counters and latency histograms.
    /// Every answer is counted before its response is sent.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Clears counters and histograms while leaving the cache and
    /// cost estimates intact. Load generators use this to measure a
    /// steady-state pass without the warm-up pass polluting the
    /// numbers.
    pub fn reset_metrics(&self) {
        self.shared.metrics.reset();
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
        self.shared.metrics.snapshot()
    }
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

fn worker_loop(shared: &Shared) {
    let m = &shared.metrics;
    let mut backends = Backends::new();
    let mut burst: Vec<Job> = Vec::with_capacity(BURST);
    loop {
        let leftover;
        {
            // Time the lock acquisition itself: if workers stop
            // scaling, the wait here is the lock-hold evidence the
            // svcbench diagnosis reports (vs. condvar-herd, evidenced
            // by spurious wakes).
            let t_lock = Instant::now();
            let mut q = shared.queue.lock().expect("queue lock");
            m.lock_wait_ns
                .fetch_add(t_lock.elapsed().as_nanos() as u64, Ordering::Relaxed);
            loop {
                if !q.jobs.is_empty() {
                    let n = q.jobs.len().min(BURST);
                    burst.extend(q.jobs.drain(..n));
                    bump(&m.bursts);
                    leftover = !q.jobs.is_empty();
                    break;
                }
                if q.closed {
                    return;
                }
                q = shared.available.wait(q).expect("queue lock");
                bump(&m.worker_wakes);
                if q.jobs.is_empty() && !q.closed {
                    bump(&m.spurious_wakes);
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
            serve(shared, &mut backends, job);
        }
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

fn serve(shared: &Shared, backends: &mut Backends, mut job: Job) {
    let m = &shared.metrics;
    let picked_up = Instant::now();
    let queued = picked_up.duration_since(job.enqueued);
    if job.deadline.is_some_and(|d| picked_up > d) {
        bump(&m.expired);
        send(&job, Outcome::Expired);
        return;
    }
    if !backends.contains_key(&job.req.accel) {
        match registry::backend(&job.req.accel) {
            Ok(b) => {
                backends.insert(job.req.accel.clone(), b);
            }
            Err(err) => {
                bump(&m.errors);
                send(&job, Outcome::Error(err.to_string()));
                return;
            }
        }
    }
    let ceiling = ceiling(job.req.repr);
    let rungs = ladder(ceiling);
    // Pick the most precise rung that is either already cached (hits
    // are free) or whose estimated cost fits the remaining deadline.
    // The last rung is the fallback: NL bounds are plain arithmetic.
    let mut chosen = *rungs.last().expect("ladder non-empty");
    let mut cached = None;
    for &rung in rungs {
        job.key[RUNG_BYTE] = rung as u8;
        if let Some(hit) = shared.lookup(&job.key) {
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
    let (answer, service) = match cached {
        Some(hit) => (hit, Duration::ZERO),
        None => {
            let backend = backends
                .get_mut(&job.req.accel)
                .expect("backend constructed above");
            let t0 = Instant::now();
            match backend.predict(&job.req.spec, chosen, job.req.metric) {
                Ok(prediction) => {
                    let service = t0.elapsed();
                    let service_us = service.as_micros() as f64;
                    // Update the EWMA cost estimate for this rung.
                    let mut costs = shared.costs.lock().expect("costs lock");
                    let slot = costs
                        .entry((job.req.accel.clone(), ridx(chosen)))
                        .or_insert(service_us);
                    *slot = (1.0 - EWMA_ALPHA) * *slot + EWMA_ALPHA * service_us;
                    drop(costs);
                    let answer = Cached {
                        prediction,
                        budget: backend.budget(chosen, job.req.metric),
                    };
                    job.key[RUNG_BYTE] = chosen as u8;
                    shared.insert(std::mem::take(&mut job.key), answer);
                    (answer, service)
                }
                Err(err) => {
                    bump(&m.errors);
                    send(&job, Outcome::Error(err.to_string()));
                    return;
                }
            }
        }
    };
    m.record_answer(
        chosen,
        degraded,
        cached.is_some(),
        queued.as_nanos() as u64,
        service.as_nanos() as u64,
    );
    send(
        &job,
        Outcome::Answer {
            prediction: answer.prediction,
            repr_used: chosen,
            degraded,
            budget: answer.budget,
            cache_hit: cached.is_some(),
            queue_us: queued.as_micros() as f64,
            service_us: service.as_micros() as f64,
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
        let shared = Shared::new(ServiceConfig {
            workers: 1,
            cache_cap: 64,
            ..Default::default()
        });
        let len = |s: &Shared| -> usize { s.cache.iter().map(|c| c.read().unwrap().len()).sum() };
        let answer = |v: f64| Cached {
            prediction: Prediction::point(v),
            budget: Budget::new(0.1, 0.2),
        };
        for key in 0..10_000u64 {
            shared.insert(key.to_le_bytes().to_vec(), answer(key as f64));
            assert!(len(&shared) <= 64, "cache grew past its cap");
        }
        // A tiny cap still bounds a many-shard cache.
        let tiny = Shared::new(ServiceConfig {
            workers: 4,
            cache_cap: 3,
            cache_shards: 64,
            ..Default::default()
        });
        for key in 0..1_000u64 {
            tiny.insert(key.to_le_bytes().to_vec(), answer(0.0));
        }
        assert!(len(&tiny) <= 3);
    }

    #[test]
    fn shards_fill_evenly() {
        // FNV-1a's low bits depend only on the low bits of the input
        // bytes, so keys whose bytes differ only in their high nibbles
        // share their low hash bits. Shards picked from those bits
        // unmixed would put all of these keys in one shard, which then
        // evicts early while the others stay empty.
        let shared = Shared::new(ServiceConfig {
            workers: 1,
            cache_cap: 1 << 12,
            cache_shards: 16,
            ..Default::default()
        });
        let mut per_shard = [0usize; 16];
        for i in 0..1_600u64 {
            let high_nibbles = (0..4).fold(0, |acc, k| acc | ((i >> (4 * k)) & 0xf) << (8 * k + 4));
            let seed = f64::from_bits(1.0f64.to_bits() ^ high_nibbles);
            let key = request_key(&vta_req(0, seed), InterfaceKind::PetriNet);
            let shard: *const Shard = shared.shard(&key);
            let idx = shared.cache.iter().position(|s| std::ptr::eq(s, shard));
            per_shard[idx.unwrap()] += 1;
        }
        assert!(
            per_shard.iter().all(|&n| (60..=140).contains(&n)),
            "{per_shard:?}"
        );
    }

    #[test]
    fn keys_are_exact_and_field_order_free() {
        let base = vta_req(1, 7.0);
        let key = |r: &Request| request_key(r, InterfaceKind::PetriNet);
        let mut reordered = base.clone();
        reordered.spec.fields.reverse();
        reordered.id = 99;
        assert_eq!(
            key(&base),
            key(&reordered),
            "field order and id are not part of the key"
        );
        let mut one_bit = base.clone();
        one_bit.spec.fields[0].1 = f64::from_bits(7.0f64.to_bits() ^ 1);
        assert_ne!(key(&base), key(&one_bit));
        let mut metric = base.clone();
        metric.metric = Metric::Throughput;
        assert_ne!(key(&base), key(&metric));
        assert_ne!(key(&base), request_key(&base, InterfaceKind::Program));
        // Length prefixes keep ("ab", "c") apart from ("a", "bc").
        let mut a = base.clone();
        (a.accel, a.spec.kind) = ("ab".into(), "c".into());
        let mut b = base;
        (b.accel, b.spec.kind) = ("a".into(), "bc".into());
        assert_ne!(key(&a), key(&b));
    }

    /// Serves one job synchronously on this thread, with the backend
    /// already built, and returns its response.
    fn serve_now(shared: &Shared, backends: &mut Backends, req: Request) -> Response {
        let (tx, rx) = mpsc::channel();
        let job = shared.job(req, tx);
        if let Some(job) = shared.admit(job, Instant::now()) {
            serve(shared, backends, job);
        }
        rx.recv().unwrap()
    }

    fn vta_backends() -> Backends {
        let mut backends = Backends::new();
        backends.insert("vta".into(), registry::backend("vta").unwrap());
        backends
    }

    /// A deadline between the cold estimates of the program rung and
    /// the Petri rung: the ladder can afford the program but not the
    /// net.
    fn program_only_deadline_us() -> u64 {
        let program = COST_PRIOR_US[ridx(InterfaceKind::Program)] * EST_MARGIN;
        let petri = COST_PRIOR_US[ridx(InterfaceKind::PetriNet)] * EST_MARGIN;
        assert!(program < petri * 0.9);
        // As close under the Petri estimate as is safe, so the job is
        // far from expiring before the ladder reads the deadline.
        (petri * 0.9) as u64
    }

    /// Degradation is observable and honest: a deadline too short for
    /// the Petri rung yields `degraded: true`, a coarser `repr_used`,
    /// and that rung's (wider) budget.
    #[test]
    fn degraded_responses_carry_coarser_repr_and_its_budget() {
        let shared = Shared::new(ServiceConfig::default());
        let mut backends = vta_backends();
        let mut r = vta_req(1, 7.0);
        r.deadline_us = Some(program_only_deadline_us());
        match serve_now(&shared, &mut backends, r).outcome {
            Outcome::Answer {
                repr_used,
                degraded,
                budget,
                ..
            } => {
                assert!(
                    repr_used < InterfaceKind::PetriNet,
                    "a deadline under the Petri rung's cold estimate must degrade below it"
                );
                assert!(degraded);
                // The reported budget is the serving rung's, not the
                // ceiling's: compare against the backend's declaration.
                let backend = registry::backend("vta").unwrap();
                let declared = backend.budget(repr_used, Metric::Latency);
                assert_eq!(budget.max, declared.max);
                assert_eq!(budget.atol, declared.atol);
            }
            other => panic!("expected an answer, got {other:?}"),
        }
    }

    #[test]
    fn degraded_answer_is_not_served_to_a_higher_ceiling() {
        let shared = Shared::new(ServiceConfig::default());
        let mut backends = vta_backends();
        let mut tight = vta_req(1, 7.0);
        tight.deadline_us = Some(program_only_deadline_us());
        let degraded = serve_now(&shared, &mut backends, tight);
        assert!(matches!(
            degraded.outcome,
            Outcome::Answer { degraded: true, .. }
        ));
        // The same spec without a deadline: its ceiling rung is not
        // cached, so admission must queue it and the worker evaluates
        // the net.
        let (tx, _rx) = mpsc::channel();
        let job = shared.job(vta_req(2, 7.0), tx);
        let job = shared.admit(job, Instant::now()).expect("a miss is queued");
        let (tx, rx) = mpsc::channel();
        serve(&shared, &mut backends, Job { tx, ..job });
        match rx.recv().unwrap().outcome {
            Outcome::Answer {
                repr_used,
                degraded,
                cache_hit,
                ..
            } => {
                assert_eq!(repr_used, InterfaceKind::PetriNet);
                assert!(!degraded && !cache_hit);
            }
            other => panic!("expected an answer, got {other:?}"),
        }
    }

    #[test]
    fn a_hit_past_its_deadline_expires_at_admission() {
        let shared = Shared::new(ServiceConfig::default());
        let mut backends = vta_backends();
        let first = serve_now(&shared, &mut backends, vta_req(1, 3.0));
        assert!(matches!(first.outcome, Outcome::Answer { .. }));
        let (tx, rx) = mpsc::channel();
        let mut req = vta_req(2, 3.0);
        req.deadline_us = Some(1_000);
        let job = shared.job(req, tx.clone());
        let late = job.enqueued + Duration::from_millis(2);
        assert!(shared.admit(job, late).is_none(), "answered at admission");
        assert!(matches!(rx.recv().unwrap().outcome, Outcome::Expired));
        // Before its deadline the same request is a hit.
        let job = shared.job(vta_req(3, 3.0), tx);
        assert!(shared.admit(job, Instant::now()).is_none());
        assert!(matches!(
            rx.recv().unwrap().outcome,
            Outcome::Answer { cache_hit: true, queue_us, service_us, .. }
                if queue_us == 0.0 && service_us == 0.0
        ));
        let snap = shared.metrics.snapshot();
        assert_eq!((snap.expired, snap.completed, snap.cache_hits), (1, 2, 1));
    }

    #[test]
    fn specs_one_mantissa_bit_apart_never_share_an_answer() {
        // `blocks` floors to the same integer either way, so only an
        // exact key keeps the second request from hitting the first.
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let (tx, rx) = mpsc::channel();
        let blocks = 32.0f64;
        for (id, b) in [(1, blocks), (2, f64::from_bits(blocks.to_bits() + 1))] {
            let req = Request {
                id,
                accel: "jpeg-decoder".into(),
                spec: WorkloadSpec::new("flat")
                    .with("blocks", b)
                    .with("bits", 96.0)
                    .with("nonzero", 12.0),
                metric: Metric::Latency,
                repr: ReprChoice::Auto,
                deadline_us: None,
            };
            svc.submit(req, tx.clone());
            match rx.recv().unwrap().outcome {
                Outcome::Answer { cache_hit, .. } => assert!(!cache_hit, "request {id}"),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(svc.cache_len(), 2);
        svc.shutdown();
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
