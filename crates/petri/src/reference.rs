//! Executable specification of the firing semantics.
//!
//! [`run`] simulates a net the plainest way that is still exact: after
//! every event it scans the whole net, in firing order (priority
//! descending, then declaration order), firing each transition as
//! often as it can until nothing changes. Every consumed candidate set
//! is cloned for its guard and every firing allocates fresh outputs.
//!
//! It is the reference the production evaluator, the compiled
//! [`crate::Stepper`], is held to: the differential suites assert
//! identical makespans, completions (payload, birth, arrival, order),
//! event and firing counts, busy cycles, high-water marks, stranded
//! reports and errors, and — on traced runs — identical firing records
//! and completion provenance. Only `enablement_checks` differs: the
//! scan re-checks every transition after every event, which is the
//! work the stepper exists to skip. Guards are assumed pure (the scan
//! may evaluate a guard more often than the stepper does).

use crate::net::{Net, PlaceId};
use crate::token::Token;
use crate::trace::{EngineTrace, TokenSrc};
use crate::PetriError;
use std::collections::{BinaryHeap, VecDeque};

/// Evaluation options (shared by the stepper and the reference).
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Abort after this many processed events (runaway-net protection).
    pub max_events: u64,
    /// Treat stranded tokens at quiescence as an error.
    pub fail_on_deadlock: bool,
    /// Record a firing trace with token provenance, retaining at most
    /// this many records ([`crate::trace::DEFAULT_TRACE_CAPACITY`] is a
    /// reasonable choice). `None` (the default) disables tracing and
    /// keeps the stepper's hot paths free of per-firing bookkeeping.
    pub trace: Option<usize>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            max_events: 200_000_000,
            fail_on_deadlock: false,
            trace: None,
        }
    }
}

/// Result of a simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Time of the last event (cycles).
    pub makespan: u64,
    /// Tokens that reached sink places, in arrival order.
    pub completions: Vec<Token>,
    /// Events processed.
    pub events: u64,
    /// Firings per transition (indexed by `TransId`).
    pub firings: Vec<u64>,
    /// Sum of firing delays per transition ("busy cycles"), saturating
    /// at `u64::MAX`: concurrent firings of a multi-server transition
    /// can sum past any cycle count.
    pub busy: Vec<u64>,
    /// Peak occupancy per place.
    pub high_water: Vec<usize>,
    /// Tokens stranded in non-sink places at quiescence.
    pub stranded: Vec<(String, usize)>,
    /// Enablement attempts: how often a transition was re-checked for
    /// firing. The stepper's dirty-set worklist keeps this low; the
    /// reference scan's is much higher for the same net, so it is a
    /// cost counter, not part of the differential contract.
    pub enablement_checks: u64,
    /// Firing trace with token provenance; `Some` iff
    /// [`Options::trace`] was set. Feed to
    /// [`crate::trace::critical_path`].
    pub trace: Option<EngineTrace>,
}

impl SimResult {
    /// Per-completion latencies (arrival − birth).
    pub fn latencies(&self) -> Vec<u64> {
        self.completions
            .iter()
            .map(|t| t.arrived.saturating_sub(t.born))
            .collect()
    }

    /// Completions per cycle over the whole run.
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.completions.len() as f64 / self.makespan as f64
        }
    }

    /// Whether the run ended with stranded tokens.
    pub fn deadlocked(&self) -> bool {
        !self.stranded.is_empty()
    }
}

/// Runs `net` on `injects` (each token arrives at its `arrived` cycle,
/// ties in injection order) until quiescence.
///
/// # Examples
///
/// ```
/// use perf_petri::{reference, NetBuilder, Options, Token};
/// use perf_iface_lang::Value;
///
/// let mut b = NetBuilder::new("n");
/// let a = b.place("a", None);
/// let z = b.sink("z");
/// b.transition("t", &[a], &[z], |_| 7, |ts| vec![ts[0].data.clone()]);
/// let net = b.build().unwrap();
/// let tokens = (0..3).map(|i| (a, Token::at(Value::num(i as f64), 0)));
/// let r = reference::run(&net, tokens, Options::default()).unwrap();
/// assert_eq!(r.makespan, 21);
/// ```
pub fn run(
    net: &Net,
    injects: impl IntoIterator<Item = (PlaceId, Token)>,
    opts: Options,
) -> Result<SimResult, PetriError> {
    let mut s = Scan::new(net, opts);
    for (place, token) in injects {
        let at = crate::due(0, token.arrived)?;
        s.push_event(at, Ev::Inject { place, token });
    }
    s.run()
}

/// A scheduled event, ordered by (time, sequence) ascending.
struct Scheduled {
    time: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Scheduled) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Scheduled) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Scheduled) -> core::cmp::Ordering {
        // Reversed for the max-heap: earliest first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

enum Ev {
    /// External token arrival.
    Inject { place: PlaceId, token: Token },
    /// A firing completes: deliver outputs, free the server.
    Deliver {
        trans: usize,
        outputs: Vec<(PlaceId, Token)>,
        /// Firing sequence number in the trace; 0 when untraced (never
        /// read in that case).
        fseq: u64,
    },
}

/// The scan's run state.
struct Scan<'n> {
    net: &'n Net,
    opts: Options,
    marking: Vec<VecDeque<Token>>,
    /// Output capacity reserved by in-flight firings, per place.
    reserved: Vec<usize>,
    busy_servers: Vec<usize>,
    heap: BinaryHeap<Scheduled>,
    seq: u64,
    completions: Vec<Token>,
    firings: Vec<u64>,
    busy: Vec<u64>,
    high_water: Vec<usize>,
    enablement_checks: u64,
    /// Firing trace; `Some` iff [`Options::trace`] was set.
    trace: Option<EngineTrace>,
    /// Token provenance queues mirroring `marking` exactly: one
    /// [`TokenSrc`] per queued token, pushed and popped in lockstep.
    /// Only populated while tracing.
    prov: Vec<VecDeque<TokenSrc>>,
}

impl<'n> Scan<'n> {
    fn new(net: &'n Net, opts: Options) -> Scan<'n> {
        let (np, nt) = (net.places().len(), net.transitions().len());
        Scan {
            net,
            opts,
            marking: (0..np).map(|_| VecDeque::new()).collect(),
            reserved: vec![0; np],
            busy_servers: vec![0; nt],
            heap: BinaryHeap::new(),
            seq: 0,
            completions: Vec::new(),
            firings: vec![0; nt],
            busy: vec![0; nt],
            high_water: vec![0; np],
            enablement_checks: 0,
            trace: opts.trace.map(EngineTrace::new),
            prov: (0..np).map(|_| VecDeque::new()).collect(),
        }
    }

    fn push_event(&mut self, time: u64, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { time, seq, ev });
    }

    /// Puts an arriving token (and its provenance) into `place`, or
    /// retires it when `place` is a sink.
    fn arrive(&mut self, place: PlaceId, token: Token, src: TokenSrc) {
        if self.net.places()[place.0].is_sink {
            self.completions.push(token);
            if let Some(tr) = self.trace.as_mut() {
                tr.completion_src.push(src);
            }
        } else {
            let q = &mut self.marking[place.0];
            q.push_back(token);
            self.high_water[place.0] = self.high_water[place.0].max(q.len());
            if self.trace.is_some() {
                self.prov[place.0].push_back(src);
            }
        }
    }

    /// Attempts to fire every enabled transition at time `now` until a
    /// fixpoint, scanning the whole net each pass.
    fn fire_enabled(&mut self, now: u64) -> Result<(), PetriError> {
        loop {
            let mut fired_any = false;
            for i in 0..self.net.order.len() {
                let ti = self.net.order[i];
                while self.try_fire(ti, now)? {
                    fired_any = true;
                }
            }
            if !fired_any {
                return Ok(());
            }
        }
    }

    /// Attempts a single firing of transition `ti` at time `now`.
    fn try_fire(&mut self, ti: usize, now: u64) -> Result<bool, PetriError> {
        let t = &self.net.transitions()[ti];
        self.enablement_checks += 1;
        if t.servers != 0 && self.busy_servers[ti] >= t.servers {
            return Ok(false);
        }
        for &(p, w) in &t.inputs {
            if self.marking[p.0].len() < w {
                return Ok(false);
            }
        }
        // Output capacity: occupancy + reservations, plus what earlier
        // arcs of this firing reserve in the same place.
        for (j, &(p, w)) in t.outputs.iter().enumerate() {
            if let Some(cap) = self.net.places()[p.0].capacity {
                let prior: usize = t.outputs[..j]
                    .iter()
                    .filter(|&&(q, _)| q == p)
                    .map(|&(_, w2)| w2)
                    .sum();
                if self.marking[p.0].len() + self.reserved[p.0] + prior + w > cap {
                    return Ok(false);
                }
            }
        }
        // Select tokens FIFO (without consuming yet, for the guard).
        let mut selected = Vec::new();
        for &(p, w) in &t.inputs {
            for k in 0..w {
                selected.push(self.marking[p.0][k].clone());
            }
        }
        if !t.behavior.guard(&selected)? {
            return Ok(false);
        }
        let mut parents = Vec::new();
        for &(p, w) in &t.inputs {
            for _ in 0..w {
                self.marking[p.0].pop_front();
                if self.trace.is_some() {
                    parents.push(
                        self.prov[p.0]
                            .pop_front()
                            .expect("provenance mirrors marking"),
                    );
                }
            }
        }
        let firing = t.behavior.fire(&selected, t.outputs.len())?;
        // Latency lineage: outputs inherit the earliest birth among the
        // consumed tokens.
        let born = selected.iter().map(|t| t.born).min().unwrap_or(now);
        let done = crate::due(now, firing.delay)?;
        let mut outputs = Vec::new();
        for (&(p, w), data) in t.outputs.iter().zip(&firing.outputs) {
            self.reserved[p.0] += w;
            for _ in 0..w {
                outputs.push((
                    p,
                    Token {
                        data: data.clone(),
                        born,
                        arrived: done,
                    },
                ));
            }
        }
        self.busy_servers[ti] += 1;
        self.firings[ti] += 1;
        self.busy[ti] = self.busy[ti].saturating_add(firing.delay);
        let fseq = match self.trace.as_mut() {
            Some(tr) => {
                let tokens_in = t.inputs.iter().map(|&(_, w)| w as u32).sum();
                let tokens_out = t.outputs.iter().map(|&(_, w)| w as u32).sum();
                tr.push(now, ti, firing.delay, tokens_in, tokens_out, parents)
            }
            None => 0,
        };
        self.push_event(
            done,
            Ev::Deliver {
                trans: ti,
                outputs,
                fseq,
            },
        );
        Ok(true)
    }

    fn run(mut self) -> Result<SimResult, PetriError> {
        let mut now = 0u64;
        let mut events = 0u64;
        self.fire_enabled(now)?;
        while let Some(Scheduled { time, ev, .. }) = self.heap.pop() {
            events += 1;
            if events > self.opts.max_events {
                return Err(PetriError::EventBudgetExceeded(self.opts.max_events));
            }
            now = time;
            match ev {
                Ev::Inject { place, token } => {
                    let src = TokenSrc {
                        producer: None,
                        arrived: token.arrived,
                    };
                    self.arrive(place, token, src);
                }
                Ev::Deliver {
                    trans,
                    outputs,
                    fseq,
                } => {
                    self.busy_servers[trans] -= 1;
                    for (p, tok) in outputs {
                        // One reservation unit per emitted token.
                        self.reserved[p.0] -= 1;
                        let src = TokenSrc {
                            producer: Some(fseq),
                            arrived: tok.arrived,
                        };
                        self.arrive(p, tok, src);
                    }
                }
            }
            self.fire_enabled(now)?;
        }
        debug_assert!(
            self.reserved.iter().all(|&r| r == 0),
            "reservations leaked at quiescence: {:?}",
            self.reserved
        );
        let stranded: Vec<(String, usize)> = self
            .net
            .places()
            .iter()
            .zip(&self.marking)
            .filter(|(p, q)| !p.is_sink && !q.is_empty())
            .map(|(p, q)| (p.name.clone(), q.len()))
            .collect();
        if self.opts.fail_on_deadlock && !stranded.is_empty() {
            return Err(PetriError::Deadlock { at: now, stranded });
        }
        Ok(SimResult {
            makespan: now,
            completions: self.completions,
            events,
            firings: self.firings,
            busy: self.busy,
            high_water: self.high_water,
            stranded,
            enablement_checks: self.enablement_checks,
            trace: self.trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;
    use perf_iface_lang::Value;

    #[test]
    fn event_budget_enforced() {
        // Self-loop keeps regenerating a token forever.
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        b.transition("spin", &[a], &[a], |_| 1, |ts| vec![ts[0].data.clone()]);
        let net = b.build().unwrap();
        let opts = Options {
            max_events: 100,
            ..Options::default()
        };
        let r = run(&net, [(a, Token::at(Value::num(0.0), 0))], opts);
        assert!(matches!(r, Err(PetriError::EventBudgetExceeded(100))));
    }
}
