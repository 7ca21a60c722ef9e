//! Compiled static-topology stepper: a specialization pass over a net
//! plus the runtime that executes the specialized form — the crate's
//! production evaluator.
//!
//! A general interpreter re-reads the net's arc lists through
//! `Vec<Vec<_>>` indirection on every firing, clones each consumed
//! [`crate::token::Token`], allocates a fresh output vector, and
//! funnels every event through a `BinaryHeap` (that is what the
//! executable specification, [`crate::reference`], does). For a net
//! whose topology never changes — which is every net, since nets are
//! immutable after [`crate::net::NetBuilder::build`] — all of that can
//! be decided once. [`CompiledNet::compile`] lowers a net into:
//!
//! * **monomorphized adjacency** — input/output arcs in flat arrays
//!   with precomputed per-arc capacity-prior sums, so an enablement
//!   check is a handful of array reads;
//! * **classified behaviors** — each transition's delay, guard and
//!   emits are resolved at compile time to a constant, a closed-form
//!   [`CExpr`], or a dynamic fallback, so the hot path never touches
//!   the interpreter;
//! * **an incremental enabled set** — after each event only the
//!   transitions the event could have enabled are re-tried, tracked in
//!   a rank-ordered dirty bitmask; the set of transitions a firing or
//!   deposit can wake is precomputed as bitmask words that are OR-ed
//!   in, replacing per-arc adjacency walks;
//! * **arena/SoA token storage** — payloads, birth and arrival cycles
//!   live in parallel arrays indexed by `u32` handles; place queues
//!   hold handles, and a pass-through firing re-stamps a handle's
//!   arrival cycle instead of moving 40-byte tokens;
//! * **event-driven time-skip** — a calendar wheel with an occupancy
//!   bitmap finds the next populated cycle with a `trailing_zeros`
//!   scan, so a thousand idle cycles cost one word test (events past
//!   the wheel horizon overflow into a far heap, preserving the exact
//!   `(time, sequence)` event order).
//!
//! The stepper is *observably identical* to [`crate::reference::run`]:
//! same completions (payload, birth, arrival, order), same makespan,
//! same event, firing and busy counts, high-water marks, stranded
//! report and errors. The dirty-set scan is pass-structured so that
//! skipping a transition nothing woke never changes the firing
//! sequence. `tests/stepper_equivalence.rs` holds the two to that
//! contract; `enablement_checks` is a cost counter outside it.
//!
//! Tracing ([`Options::trace`]) records the same firing records and
//! token provenance as the reference. Untraced firings of chain-shaped
//! transitions (one weight-1 input and output, constant delay, no
//! guard, pass-through) take a fused per-transition path; a traced run
//! takes the general path for every firing, and every piece of tracing
//! bookkeeping sits behind the one `Option` holding the tracer, so
//! untraced runs pay a branch, not the bookkeeping.

use crate::behavior::Behavior;
use crate::compile::CExpr;
use crate::net::{Net, PlaceId};
use crate::reference::{Options, SimResult};
use crate::token::Token;
use crate::trace::{EngineTrace, TokenSrc};
use crate::{due, PetriError, MAX_CYCLE};
use perf_iface_lang::Value;
use std::collections::BinaryHeap;

/// Calendar-wheel width in cycles (power of two). Events scheduled
/// further than this past the current cycle overflow to the far heap.
const WHEEL: usize = 256;
const WMASK: u64 = (WHEEL as u64) - 1;
// Every scheduled time is at most `MAX_CYCLE` (see `due`), so the wheel
// base is too, and the horizon `base + WHEEL` never overflows.
const _: () = assert!(MAX_CYCLE <= u64::MAX - WHEEL as u64);

/// How a transition's delay is computed.
enum DelayPlan {
    /// Workload-independent: folded to a constant at compile time.
    Const(u64),
    /// Closed-form expression over the consumed payloads.
    Expr(CExpr),
}

/// How a transition's guard is evaluated.
enum GuardPlan {
    /// No guard: tokens are consumed unconditionally.
    Free,
    /// Closed-form boolean expression.
    Expr(CExpr),
    /// Fallback through [`Behavior::guard`] (native closures or
    /// interpreter-only expressions).
    Dyn,
}

/// How one output arc's payload is produced.
enum EmitPlan {
    /// The first consumed payload passes through unchanged.
    Passthrough,
    /// Closed-form expression over the consumed payloads.
    Expr(CExpr),
}

/// How a transition fires once its guard has passed.
enum FirePlan {
    /// Fallback through [`Behavior::fire`] (native closures,
    /// interpreter-only expressions, or arity mismatches whose error
    /// must surface at fire time).
    Dyn,
    /// Fully specialized delay + per-arc emits.
    Fast {
        delay: DelayPlan,
        emits: Vec<EmitPlan>,
        /// Whether delay/emit evaluation needs the payload list.
        needs_ts: bool,
        /// Single-input, single-output, weight-1, pass-through: the
        /// consumed token handle is re-stamped and forwarded with zero
        /// payload traffic.
        reuse: bool,
    },
}

/// Dense per-transition record for the fused pipeline-stage path (one
/// weight-1 input, one weight-1 output, constant delay, no guard,
/// pass-through emit): everything an enablement check or firing needs
/// in one 32-byte load, including the wake-fire dirty-set update.
/// `servers == 0` marks a transition the fused path does not cover
/// (real unlimited-server bounds fold to `u32::MAX`), so dispatch is a
/// single compare on the loaded record. Check outcomes and counter
/// updates are identical to the general `Fast { reuse: true }` path —
/// the same semantics, flattened.
#[derive(Clone, Copy)]
struct ChainPlan {
    delay: u32,
    in_place: u32,
    out_place: u32,
    /// Capacity headroom bound: firing is blocked when
    /// `queue_len + reserved > cap_lim` at the output place
    /// (`u32::MAX` = unbounded, check passes vacuously).
    cap_lim: u32,
    /// Server bound with 0-means-unlimited folded to `u32::MAX`;
    /// `0` = this transition is not chain-shaped.
    servers: u32,
    /// Dirty word the inlined wake-fire mask ORs into.
    wake_w: u32,
    /// Wake-fire bits for `dirty[wake_w]`.
    wake_bits: u64,
}

impl ChainPlan {
    const INACTIVE: ChainPlan = ChainPlan {
        delay: 0,
        in_place: 0,
        out_place: 0,
        cap_lim: 0,
        servers: 0,
        wake_w: 0,
        wake_bits: 0,
    };
}

/// Precomputed dirty-set update: words to OR into the rank bitmask.
/// Nets with at most 64 transitions (every shipped accelerator net)
/// always take the inline single-word form; the boxed form only
/// appears when a wake set genuinely spans multiple words.
enum WakeMask {
    /// Single-word update; the empty mask is `One(0, 0)` (OR-ing zero
    /// bits is a no-op), so applying is branchless.
    One(u32, u64),
    /// Multi-word update.
    Many(Vec<(u32, u64)>),
}

/// An output arc, flattened: target place, weight, and the summed
/// weight of this firing's *earlier* arcs into the same place (the
/// capacity check counts those as already reserved).
struct OutArc {
    place: u32,
    weight: u32,
    prior: u32,
}

/// A net lowered to its static-topology executable form.
///
/// Compile once per net (the pass is linear in the net size), then
/// create any number of [`Stepper`]s from it. The plan borrows nothing
/// from the net, so a `Net` and its `CompiledNet` can live side by
/// side in one struct; [`CompiledNet::stepper`] checks (by structural
/// fingerprint, in debug builds) that the net it is handed is the one
/// it was compiled from.
///
/// # Examples
///
/// ```
/// use perf_petri::{CompiledNet, NetBuilder, Options, Token};
/// use perf_iface_lang::Value;
///
/// let mut b = NetBuilder::new("n");
/// let a = b.place("a", None);
/// let z = b.sink("z");
/// b.transition("t", &[a], &[z], |_| 7, |ts| vec![ts[0].data.clone()]);
/// let net = b.build().unwrap();
/// let plan = CompiledNet::compile(&net);
/// let mut s = plan.stepper(&net, Options::default());
/// s.inject(a, Token::at(Value::num(1.0), 0));
/// let r = s.run().unwrap();
/// assert_eq!(r.makespan, 7);
/// ```
pub struct CompiledNet {
    fp: u64,
    n_transitions: usize,
    /// Flat input arcs `(place, weight)`; `in_range[ti]` slices it.
    in_arcs: Vec<(u32, u32)>,
    in_range: Vec<(u32, u32)>,
    /// Flat output arcs; `out_range[ti]` slices it.
    out_arcs: Vec<OutArc>,
    out_range: Vec<(u32, u32)>,
    servers: Vec<u32>,
    order: Vec<u32>,
    guard: Vec<GuardPlan>,
    fire: Vec<FirePlan>,
    /// Per transition: dirty-set words to OR after it fires (consumers
    /// of its inputs, plus producers into its bounded inputs).
    wake_fire: Vec<WakeMask>,
    /// Per place: dirty-set words to OR after a token is deposited.
    wake_deposit: Vec<WakeMask>,
    /// Per place: dirty-set words to OR after capacity frees up
    /// (populated for bounded places only).
    wake_free: Vec<WakeMask>,
    /// Per transition: its single dirty-set word update (rank bit),
    /// applied when its firing completes.
    wake_self: Vec<(u32, u64)>,
    /// Per transition: the dense fused-path record (`servers == 0` =
    /// not chain-shaped, fall through to the general path).
    chain: Vec<ChainPlan>,
    /// Place capacity; `u32::MAX` means unbounded.
    cap: Vec<u32>,
    sink: Vec<bool>,
    dirty_words: usize,
}

impl CompiledNet {
    /// Lowers `net` into its executable form.
    pub fn compile(net: &Net) -> CompiledNet {
        let nt = net.transitions().len();
        let np = net.places().len();
        let dirty_words = nt.div_ceil(64);
        let rank_mask = |ti: usize| -> (u32, u64) {
            let r = net.rank[ti];
            ((r / 64) as u32, 1u64 << (r % 64))
        };
        // Collapse a set of transitions into OR-able word updates.
        let mask_of = |tis: &mut Vec<usize>| -> WakeMask {
            tis.sort_unstable();
            tis.dedup();
            let mut words: Vec<(u32, u64)> = Vec::new();
            for &ti in tis.iter() {
                let (w, b) = rank_mask(ti);
                match words.iter_mut().find(|(wi, _)| *wi == w) {
                    Some((_, bits)) => *bits |= b,
                    None => words.push((w, b)),
                }
            }
            match words.len() {
                0 => WakeMask::One(0, 0),
                1 => WakeMask::One(words[0].0, words[0].1),
                _ => WakeMask::Many(words),
            }
        };

        let mut in_arcs = Vec::new();
        let mut in_range = Vec::with_capacity(nt);
        let mut out_arcs = Vec::new();
        let mut out_range = Vec::with_capacity(nt);
        let mut guard = Vec::with_capacity(nt);
        let mut fire = Vec::with_capacity(nt);
        let mut wake_fire = Vec::with_capacity(nt);
        let mut wake_self = Vec::with_capacity(nt);
        let mut servers = Vec::with_capacity(nt);

        for (ti, t) in net.transitions().iter().enumerate() {
            let is = in_arcs.len() as u32;
            for &(p, w) in &t.inputs {
                in_arcs.push((p.0 as u32, w as u32));
            }
            in_range.push((is, in_arcs.len() as u32));

            let os = out_arcs.len() as u32;
            for (j, &(p, w)) in t.outputs.iter().enumerate() {
                let prior: usize = t.outputs[..j]
                    .iter()
                    .filter(|&&(q, _)| q == p)
                    .map(|&(_, w2)| w2)
                    .sum();
                out_arcs.push(OutArc {
                    place: p.0 as u32,
                    weight: w as u32,
                    prior: prior as u32,
                });
            }
            out_range.push((os, out_arcs.len() as u32));
            servers.push(t.servers as u32);
            wake_self.push(rank_mask(ti));

            // Firing consumed from the inputs: competing consumers may
            // re-select, and producers into bounded inputs regain room.
            let mut woken: Vec<usize> = Vec::new();
            for &(p, _) in &t.inputs {
                woken.extend_from_slice(&net.consumers[p.0]);
                if net.places()[p.0].capacity.is_some() {
                    woken.extend_from_slice(&net.producers[p.0]);
                }
            }
            wake_fire.push(mask_of(&mut woken));

            guard.push(Self::plan_guard(&t.behavior));
            fire.push(Self::plan_fire(t));
        }

        // Flatten every chain-shaped transition (guard-free reuse with
        // a constant delay and a single-word wake-fire mask) into its
        // dense record.
        let mut chain = Vec::with_capacity(nt);
        for ti in 0..nt {
            let t = &net.transitions()[ti];
            let rec = match (&fire[ti], &guard[ti], &wake_fire[ti]) {
                (
                    FirePlan::Fast {
                        delay: DelayPlan::Const(d),
                        reuse: true,
                        ..
                    },
                    GuardPlan::Free,
                    &WakeMask::One(wake_w, wake_bits),
                ) if *d <= u32::MAX as u64 => {
                    let out = t.outputs[0].0;
                    // Builder rejects zero-capacity places, so `c - 1`
                    // cannot underflow for bounded places.
                    let cap_lim = match net.places()[out.0].capacity {
                        Some(c) => (c as u32) - 1,
                        None => u32::MAX,
                    };
                    ChainPlan {
                        delay: *d as u32,
                        in_place: t.inputs[0].0 .0 as u32,
                        out_place: out.0 as u32,
                        cap_lim,
                        servers: if t.servers == 0 {
                            u32::MAX
                        } else {
                            t.servers as u32
                        },
                        wake_w,
                        wake_bits,
                    }
                }
                _ => ChainPlan::INACTIVE,
            };
            chain.push(rec);
        }

        let mut wake_deposit = Vec::with_capacity(np);
        let mut wake_free = Vec::with_capacity(np);
        let mut cap = Vec::with_capacity(np);
        let mut sink = Vec::with_capacity(np);
        for (pi, p) in net.places().iter().enumerate() {
            wake_deposit.push(mask_of(&mut net.consumers[pi].clone()));
            wake_free.push(if p.capacity.is_some() {
                mask_of(&mut net.producers[pi].clone())
            } else {
                WakeMask::One(0, 0)
            });
            cap.push(p.capacity.map(|c| c as u32).unwrap_or(u32::MAX));
            sink.push(p.is_sink);
        }

        CompiledNet {
            fp: net.fingerprint(),
            n_transitions: nt,
            in_arcs,
            in_range,
            out_arcs,
            out_range,
            servers,
            order: net.order.iter().map(|&t| t as u32).collect(),
            guard,
            fire,
            wake_fire,
            wake_deposit,
            wake_free,
            wake_self,
            chain,
            cap,
            sink,
            dirty_words,
        }
    }

    fn plan_guard(b: &Behavior) -> GuardPlan {
        if !b.has_guard() {
            return GuardPlan::Free;
        }
        match b {
            Behavior::Expr(e) => e
                .compiled_guard()
                .cloned()
                .map(GuardPlan::Expr)
                .unwrap_or(GuardPlan::Dyn),
            Behavior::Native { .. } => GuardPlan::Dyn,
        }
    }

    fn plan_fire(t: &crate::net::Transition) -> FirePlan {
        let e = match &t.behavior {
            Behavior::Expr(e) => e,
            // Native closures are opaque: evaluate through the behavior.
            Behavior::Native { .. } => return FirePlan::Dyn,
        };
        // An emit-slot arity mismatch must keep erroring at fire time.
        if e.emit_flags().len() != t.outputs.len() {
            return FirePlan::Dyn;
        }
        // A provably constant, valid delay folds completely. An invalid
        // constant (negative, non-finite, non-numeric) falls through so
        // the per-firing validation error still surfaces.
        let delay = match e.const_fn_value("__delay").and_then(|v| v.as_num()) {
            Some(d) if d.is_finite() && d >= 0.0 => DelayPlan::Const(d.round() as u64),
            _ => match e.compiled_delay() {
                Some(c) => DelayPlan::Expr(c.clone()),
                None => return FirePlan::Dyn,
            },
        };
        let mut emits = Vec::with_capacity(t.outputs.len());
        for (i, has) in e.emit_flags().iter().enumerate() {
            if !*has {
                emits.push(EmitPlan::Passthrough);
            } else {
                match e.compiled_emits()[i].clone() {
                    Some(c) => emits.push(EmitPlan::Expr(c)),
                    None => return FirePlan::Dyn,
                }
            }
        }
        let needs_ts = matches!(delay, DelayPlan::Expr(_))
            || emits.iter().any(|e| matches!(e, EmitPlan::Expr(_)));
        let reuse = t.inputs.len() == 1
            && t.inputs[0].1 == 1
            && t.outputs.len() == 1
            && t.outputs[0].1 == 1
            && matches!(emits[0], EmitPlan::Passthrough);
        FirePlan::Fast {
            delay,
            emits,
            needs_ts,
            reuse,
        }
    }

    /// Creates a stepper over the net this plan was compiled from.
    ///
    /// In debug builds, handing it a different net panics (structural
    /// fingerprints are compared).
    pub fn stepper<'a>(&'a self, net: &'a Net, opts: Options) -> Stepper<'a> {
        debug_assert_eq!(
            self.fp,
            net.fingerprint(),
            "stepper created over a net it was not compiled from"
        );
        Stepper::new(net, self, opts)
    }
}

/// SoA token storage: payloads and timestamps in parallel arrays,
/// addressed by `u32` handles.
#[derive(Default)]
struct Arena {
    data: Vec<Value>,
    born: Vec<u64>,
    arrived: Vec<u64>,
    free: Vec<u32>,
}

impl Arena {
    fn alloc(&mut self, data: Value, born: u64, arrived: u64) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.data[i as usize] = data;
                self.born[i as usize] = born;
                self.arrived[i as usize] = arrived;
                i
            }
            None => {
                self.data.push(data);
                self.born.push(born);
                self.arrived.push(arrived);
                (self.data.len() - 1) as u32
            }
        }
    }

    /// Removes the token, returning its owned form.
    fn take(&mut self, i: u32) -> Token {
        let t = Token {
            data: core::mem::replace(&mut self.data[i as usize], Value::Bool(false)),
            born: self.born[i as usize],
            arrived: self.arrived[i as usize],
        };
        self.free.push(i);
        t
    }

    /// Releases the handle (payload dropped).
    fn release(&mut self, i: u32) {
        self.data[i as usize] = Value::Bool(false);
        self.free.push(i);
    }
}

/// Mutable per-transition run state, grouped so one bounds check and
/// one cache line cover an enablement check plus its counters.
#[derive(Clone, Copy)]
struct TransState {
    busy_servers: u32,
    firings: u64,
    busy: u64,
}

/// Mutable per-place run state: the token queue plus the in-flight
/// reservation count and occupancy high-water mark that every
/// capacity check reads alongside it.
struct PlaceState {
    q: Ring,
    reserved: u32,
    high_water: u32,
}

/// A power-of-two ring of token handles: one per place queue. Bounded
/// places pre-size to their capacity, so their `push_back` never
/// grows; unbounded places double on demand. The 16-byte struct (two
/// rings per cache line) and branch-light ops replace `VecDeque`,
/// whose wrap/grow generality showed up in hot-loop profiles.
struct Ring {
    buf: Box<[u32]>,
    /// Always `< buf.len()` (masked on every advance).
    head: u32,
    len: u32,
}

impl Ring {
    fn with_capacity(cap: usize) -> Ring {
        let cap = cap.next_power_of_two().max(8);
        Ring {
            buf: vec![0; cap].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    #[inline(always)]
    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline(always)]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline(always)]
    fn push_back(&mut self, v: u32) {
        if self.len as usize == self.buf.len() {
            self.grow();
        }
        let m = self.buf.len() as u32 - 1;
        let i = self.head.wrapping_add(self.len) & m;
        // SAFETY: `i` is masked by `buf.len() - 1` and `buf.len()` is
        // a nonzero power of two, so `i < buf.len()`.
        unsafe { *self.buf.get_unchecked_mut(i as usize) = v };
        self.len += 1;
    }

    #[inline(always)]
    fn pop_front(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let m = self.buf.len() as u32 - 1;
        // SAFETY: `head` is kept below `buf.len()` by masking on every
        // advance, and `buf` never shrinks.
        let v = unsafe { *self.buf.get_unchecked(self.head as usize) };
        self.head = (self.head + 1) & m;
        self.len -= 1;
        Some(v)
    }

    /// `k`-th handle from the front (guards and emits peek the heads
    /// that a firing would consume).
    #[inline(always)]
    fn get(&self, k: usize) -> u32 {
        debug_assert!(k < self.len as usize);
        let m = self.buf.len() - 1;
        // SAFETY: masked by `buf.len() - 1`; `buf.len()` is a nonzero
        // power of two.
        unsafe { *self.buf.get_unchecked((self.head as usize + k) & m) }
    }

    #[cold]
    fn grow(&mut self) {
        let mut next = vec![0u32; self.buf.len() * 2].into_boxed_slice();
        for k in 0..self.len as usize {
            next[k] = self.get(k);
        }
        self.buf = next;
        self.head = 0;
    }
}

/// A scheduled occurrence, 12 bytes + discriminant.
#[derive(Clone, Copy)]
enum WEntry {
    /// External arrival of an injected token.
    Inject { place: u32, tok: u32 },
    /// A firing with exactly one output token completes.
    Deliver1 { trans: u32, place: u32, tok: u32 },
    /// A firing with multiple output tokens completes; the tokens live
    /// in a spill list.
    DeliverN { trans: u32, spill: u32 },
}

/// Far-heap entry, ordered by `(time, seq)` ascending (reversed for
/// the max-heap), exactly like the reference's event heap.
struct Far {
    time: u64,
    seq: u64,
    e: WEntry,
}

impl PartialEq for Far {
    fn eq(&self, other: &Far) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Far {}
impl PartialOrd for Far {
    fn partial_cmp(&self, other: &Far) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Far {
    fn cmp(&self, other: &Far) -> core::cmp::Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// One wheel slot: FIFO entries with a drain cursor (a slot can grow
/// while it is being drained, e.g. zero-delay firings at the current
/// cycle, and those entries must run in push order within the cycle).
#[derive(Default)]
struct Slot {
    entries: Vec<WEntry>,
    cursor: usize,
}

/// The compiled runtime: inject tokens, then [`Stepper::run`].
///
/// Obtain one from [`NetExec::session`] or [`CompiledNet::stepper`];
/// see the module docs for the equivalence contract.
pub struct Stepper<'a> {
    net: &'a Net,
    plan: &'a CompiledNet,
    opts: Options,
    places: Vec<PlaceState>,
    arena: Arena,
    trans: Vec<TransState>,
    dirty: Vec<u64>,
    enablement_checks: u64,
    completions: Vec<Token>,
    /// `(place, token)` in injection order (also the seq order the
    /// reference would assign).
    injects: Vec<(u32, u32)>,
    // Event queue: calendar wheel + far heap. The fixed-size slot
    // array makes `time & WMASK` indexing provably in-bounds.
    slots: Box<[Slot; WHEEL]>,
    occ: [u64; WHEEL / 64],
    base: u64,
    ring_len: usize,
    far: BinaryHeap<Far>,
    seq: u64,
    spill: Vec<Vec<(u32, u32)>>,
    spill_free: Vec<u32>,
    // Scratch buffers.
    ts: Vec<Value>,
    toks: Vec<Token>,
    sel: Vec<u32>,
    /// Provenance bookkeeping; `Some` iff [`Options::trace`] was set.
    tracer: Option<Box<Tracer>>,
}

/// A traced run's bookkeeping: the firing records plus the provenance
/// of every live token, indexed by arena handle. A token's source is
/// fixed when it is scheduled (injected, or emitted by a firing), so
/// it is stamped then and read when the token is consumed or retired.
struct Tracer {
    trace: EngineTrace,
    src: Vec<TokenSrc>,
    /// Source stamped on the outputs of the firing being emitted.
    firing: TokenSrc,
}

impl Tracer {
    fn stamp(&mut self, tok: u32, src: TokenSrc) {
        let i = tok as usize;
        if i >= self.src.len() {
            self.src.resize(i + 1, src);
        }
        self.src[i] = src;
    }

    fn stamp_output(&mut self, tok: u32) {
        self.stamp(tok, self.firing);
    }
}

impl<'a> Stepper<'a> {
    fn new(net: &'a Net, plan: &'a CompiledNet, opts: Options) -> Stepper<'a> {
        Stepper {
            net,
            plan,
            opts,
            places: plan
                .cap
                .iter()
                .map(|&c| PlaceState {
                    q: Ring::with_capacity(if c == u32::MAX { 16 } else { c as usize }),
                    reserved: 0,
                    high_water: 0,
                })
                .collect(),
            arena: Arena::default(),
            trans: vec![
                TransState {
                    busy_servers: 0,
                    firings: 0,
                    busy: 0,
                };
                plan.n_transitions
            ],
            dirty: vec![0; plan.dirty_words],
            enablement_checks: 0,
            completions: Vec::new(),
            injects: Vec::new(),
            slots: {
                let v: Vec<Slot> = (0..WHEEL).map(|_| Slot::default()).collect();
                match v.into_boxed_slice().try_into() {
                    Ok(b) => b,
                    Err(_) => unreachable!("exactly WHEEL slots were built"),
                }
            },
            occ: [0; WHEEL / 64],
            base: 0,
            ring_len: 0,
            far: BinaryHeap::new(),
            seq: 0,
            spill: Vec::new(),
            spill_free: Vec::new(),
            ts: Vec::new(),
            toks: Vec::new(),
            sel: Vec::new(),
            tracer: opts.trace.map(|cap| {
                Box::new(Tracer {
                    trace: EngineTrace::new(cap),
                    src: Vec::new(),
                    firing: TokenSrc {
                        producer: None,
                        arrived: 0,
                    },
                })
            }),
        }
    }

    /// Schedules an external token arrival at `token.arrived`.
    pub fn inject(&mut self, place: PlaceId, token: Token) {
        let arrived = token.arrived;
        let tok = self.arena.alloc(token.data, token.born, arrived);
        self.injects.push((place.0 as u32, tok));
        if let Some(tr) = self.tracer.as_mut() {
            let src = TokenSrc {
                producer: None,
                arrived,
            };
            tr.stamp(tok, src);
        }
    }

    // ---- event queue ----------------------------------------------

    #[inline]
    fn push_event(&mut self, time: u64, e: WEntry) {
        if time < self.base + WHEEL as u64 {
            let s = (time & WMASK) as usize;
            // The occupancy OR is idempotent, so no emptiness test:
            // after a push the slot has pending entries either way.
            self.occ[s / 64] |= 1 << (s % 64);
            self.slots[s].entries.push(e);
            self.ring_len += 1;
        } else {
            // `seq` only orders same-time far entries among each
            // other (wheel slots are FIFO), so near pushes skip it;
            // far-relative push order is all the heap compares.
            let seq = self.seq;
            self.seq += 1;
            self.far.push(Far { time, seq, e });
        }
    }

    /// Moves far-heap events whose time entered the wheel window into
    /// their slots. Heap pops come out `(time, seq)` ascending, and all
    /// far pushes for a time precede all direct slot pushes for it (the
    /// window only moves forward), so slot FIFO order stays seq order.
    fn migrate(&mut self) {
        let horizon = self.base + WHEEL as u64;
        while let Some(f) = self.far.peek() {
            if f.time >= horizon {
                break;
            }
            let f = self.far.pop().expect("peeked");
            let s = (f.time & WMASK) as usize;
            self.occ[s / 64] |= 1 << (s % 64);
            self.slots[s].entries.push(f.e);
            self.ring_len += 1;
        }
    }

    /// Pops the next event in `(time, seq)` order, advancing the wheel
    /// base (the time-skip: idle cycles are skipped by the occupancy
    /// bitmap scan, not simulated).
    ///
    /// Fast path: the slot at `base` can only hold events due exactly
    /// at `base` (a slot holds one time per wheel revolution, and the
    /// ring never holds times below `base`), so while it has entries
    /// the occupancy scan and base advance are skipped entirely.
    #[inline(always)]
    fn pop_event(&mut self) -> Option<(u64, WEntry)> {
        if self.ring_len != 0 {
            let s = (self.base & WMASK) as usize;
            if self.occ[s / 64] & (1 << (s % 64)) != 0 {
                return Some((self.base, self.slot_pop(s)));
            }
        }
        self.pop_event_scan()
    }

    /// Takes the next entry from occupied slot `s`, clearing its
    /// occupancy bit when that empties it.
    #[inline(always)]
    fn slot_pop(&mut self, s: usize) -> WEntry {
        let slot = &mut self.slots[s];
        // SAFETY: both callers checked the slot's occupancy bit, which
        // is set exactly while `cursor < entries.len()` (it clears the
        // moment the cursor catches up, below).
        debug_assert!(slot.cursor < slot.entries.len());
        let e = unsafe { *slot.entries.get_unchecked(slot.cursor) };
        slot.cursor += 1;
        self.ring_len -= 1;
        if slot.cursor == slot.entries.len() {
            slot.entries.clear();
            slot.cursor = 0;
            self.occ[s / 64] &= !(1 << (s % 64));
        }
        e
    }

    /// The slow half of [`Stepper::pop_event`]: refill from the far
    /// heap if the ring is empty, scan the occupancy bitmap for the
    /// next occupied slot, advance the base to its time and take its
    /// first entry.
    fn pop_event_scan(&mut self) -> Option<(u64, WEntry)> {
        if self.ring_len == 0 {
            let head = self.far.peek()?.time;
            self.base = head;
            self.migrate();
        }
        // Find the first occupied slot at or after base, wrapping. The
        // ring holds only times in [base, base + WHEEL), so slot
        // distance from base equals time distance.
        let start = (self.base & WMASK) as usize;
        let words = self.occ.len();
        let mut dist = None;
        for k in 0..=words {
            let w = (start / 64 + k) % words;
            let mut word = self.occ[w];
            if k == 0 {
                word &= !0u64 << (start % 64);
            } else if k == words {
                // Back at the starting word: only bits below `start`
                // remain unexamined.
                word &= (1u64 << (start % 64)).wrapping_sub(1);
            }
            if word != 0 {
                let bit = w * 64 + word.trailing_zeros() as usize;
                dist = Some((bit + WHEEL - start) % WHEEL);
                break;
            }
        }
        let dist = dist.expect("ring_len > 0 implies an occupied slot");
        let time = self.base + dist as u64;
        if dist != 0 {
            // The horizon only moves when the base does, so far-heap
            // events can only become migratable on an advance.
            self.base = time;
            self.migrate();
        }
        let s = (time & WMASK) as usize;
        Some((time, self.slot_pop(s)))
    }

    // ---- dirty set ------------------------------------------------

    #[inline]
    fn dirty_next_at_or_after(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        if w >= self.dirty.len() {
            return None;
        }
        let mut word = self.dirty[w] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w == self.dirty.len() {
                return None;
            }
            word = self.dirty[w];
        }
    }

    fn dirty_set_all(&mut self) {
        let len = self.plan.n_transitions;
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let bits = len.saturating_sub(w * 64).min(64);
            *word = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
        }
    }

    #[inline]
    fn apply_mask(&mut self, mask: &WakeMask) {
        match mask {
            WakeMask::One(w, bits) => self.dirty[*w as usize] |= bits,
            WakeMask::Many(words) => {
                for &(w, bits) in words {
                    self.dirty[w as usize] |= bits;
                }
            }
        }
    }

    // ---- marking --------------------------------------------------

    #[inline(always)]
    fn deposit(&mut self, place: usize, tok: u32) {
        // SAFETY: every caller has already established that `place` is
        // in bounds — either a plan-derived index, or one that passed
        // a checked `sink` lookup (same length, one entry per place).
        debug_assert!(place < self.places.len());
        let ps = unsafe { self.places.get_unchecked_mut(place) };
        ps.q.push_back(tok);
        ps.high_water = ps.high_water.max(ps.q.len);
    }

    fn deliver_token(&mut self, place: u32, tok: u32) {
        // `plan` is a shared reference with its own lifetime, so
        // copying it out lets the masks borrow the plan, not `self`.
        let plan = self.plan;
        let p = place as usize;
        self.places[p].reserved -= 1;
        if plan.sink[p] {
            self.retire(tok);
            // A bounded sink converts the released reservation into
            // free capacity for its producers.
            if plan.cap[p] != u32::MAX {
                self.apply_mask(&plan.wake_free[p]);
            }
        } else {
            self.deposit(p, tok);
            self.apply_mask(&plan.wake_deposit[p]);
        }
    }

    /// Moves a token that reached a sink into the completion list.
    fn retire(&mut self, tok: u32) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.trace.completion_src.push(tr.src[tok as usize]);
        }
        let t = self.arena.take(tok);
        self.completions.push(t);
    }

    // ---- firing ---------------------------------------------------

    /// Builds the payload list (`ts`) from token handles.
    fn build_ts(&mut self, from_sel: bool, ti: usize) {
        self.ts.clear();
        if from_sel {
            for &i in &self.sel {
                self.ts.push(self.arena.data[i as usize].clone());
            }
        } else {
            let (is, ie) = self.plan.in_range[ti];
            for &(p, w) in &self.plan.in_arcs[is as usize..ie as usize] {
                for k in 0..w as usize {
                    let idx = self.places[p as usize].q.get(k);
                    self.ts.push(self.arena.data[idx as usize].clone());
                }
            }
        }
    }

    /// Builds owned `Token` clones for the dynamic-behavior fallback.
    fn build_toks(&mut self, from_sel: bool, ti: usize) {
        self.toks.clear();
        if from_sel {
            for &i in &self.sel {
                self.toks.push(Token {
                    data: self.arena.data[i as usize].clone(),
                    born: self.arena.born[i as usize],
                    arrived: self.arena.arrived[i as usize],
                });
            }
        } else {
            let (is, ie) = self.plan.in_range[ti];
            for &(p, w) in &self.plan.in_arcs[is as usize..ie as usize] {
                for k in 0..w as usize {
                    let idx = self.places[p as usize].q.get(k) as usize;
                    self.toks.push(Token {
                        data: self.arena.data[idx].clone(),
                        born: self.arena.born[idx],
                        arrived: self.arena.arrived[idx],
                    });
                }
            }
        }
    }

    /// The fused pipeline-stage firing attempt (see [`ChainPlan`]):
    /// same check outcomes, counters and wakes as the general path in
    /// [`Stepper::try_fire`], inlined into the dirty-set scan so hot
    /// state stays in registers. Traced runs never take it. Nothing
    /// here evaluates an expression; the only error is a completion
    /// past [`crate::MAX_CYCLE`].
    ///
    /// The three enablement conditions are evaluated non-lazily into
    /// one predicate: a blocked transition takes a single
    /// data-dependent branch instead of three (the outcome pattern is
    /// irregular, so each avoided branch is an avoided mispredict
    /// site), and the loads issue in parallel.
    #[inline(always)]
    fn chain_fire(&mut self, ti: usize, c: ChainPlan, now: u64) -> Result<bool, PetriError> {
        self.enablement_checks += 1;
        // SAFETY (all unchecked indexing below): `ti`, `c.in_place`
        // and `c.out_place` come out of the plan this stepper was
        // built over — `compile` only emits transition indices below
        // `n_transitions` and place indices below `cap.len()`, and
        // `Stepper::new` sizes `trans` and `places` from exactly
        // those. Token handles are arena indices by construction.
        debug_assert!(ti < self.trans.len());
        debug_assert!((c.in_place as usize) < self.places.len());
        debug_assert!((c.out_place as usize) < self.places.len());
        let free = unsafe { self.trans.get_unchecked(ti) }.busy_servers < c.servers;
        let has_input = !unsafe { self.places.get_unchecked(c.in_place as usize) }
            .q
            .is_empty();
        let out = unsafe { self.places.get_unchecked(c.out_place as usize) };
        // Bounded output: room for one more reservation. Unbounded
        // (`cap_lim == u32::MAX`) passes vacuously — the sum cannot
        // exceed it (queue lengths and reservations are far below
        // `u32::MAX`; the arena itself caps tokens at `u32` handles).
        let has_room = (out.q.len() as u32).wrapping_add(out.reserved) <= c.cap_lim;
        if !(free & has_input & has_room) {
            return Ok(false);
        }
        let done = due(now, c.delay as u64)?;
        let tok = unsafe { self.places.get_unchecked_mut(c.in_place as usize) }
            .q
            .pop_front()
            .expect("availability checked");
        debug_assert!((tok as usize) < self.arena.arrived.len());
        unsafe { *self.arena.arrived.get_unchecked_mut(tok as usize) = done };
        unsafe { self.places.get_unchecked_mut(c.out_place as usize) }.reserved += 1;
        self.push_event(
            done,
            WEntry::Deliver1 {
                trans: ti as u32,
                place: c.out_place,
                tok,
            },
        );
        {
            let st = unsafe { self.trans.get_unchecked_mut(ti) };
            st.busy_servers += 1;
            st.firings += 1;
            st.busy = st.busy.saturating_add(c.delay as u64);
        }
        self.dirty[c.wake_w as usize] |= c.wake_bits;
        Ok(true)
    }

    /// Attempts a single firing of transition `ti` at `now`: the
    /// reference's check order and FIFO consumption, then this
    /// firing's counters and wakes. Traced runs take this general path
    /// even for chain-shaped transitions.
    fn try_fire(&mut self, ti: usize, now: u64) -> Result<bool, PetriError> {
        let plan = self.plan;
        self.enablement_checks += 1;
        let servers = plan.servers[ti];
        if servers != 0 && self.trans[ti].busy_servers >= servers {
            return Ok(false);
        }
        let (is, ie) = plan.in_range[ti];
        for &(p, w) in &plan.in_arcs[is as usize..ie as usize] {
            if self.places[p as usize].q.len() < w as usize {
                return Ok(false);
            }
        }
        let (os, oe) = plan.out_range[ti];
        for arc in &plan.out_arcs[os as usize..oe as usize] {
            let cap = plan.cap[arc.place as usize];
            if cap != u32::MAX {
                let ps = &self.places[arc.place as usize];
                let occ = ps.q.len() as u32 + ps.reserved + arc.prior + arc.weight;
                if occ > cap {
                    return Ok(false);
                }
            }
        }
        // Guard, evaluated on the would-be-consumed queue heads.
        match &plan.guard[ti] {
            GuardPlan::Free => {}
            GuardPlan::Expr(g) => {
                self.build_ts(false, ti);
                let t0 = self.ts.first().cloned().unwrap_or(Value::Num(0.0));
                let ok = g
                    .eval(&t0, &self.ts)?
                    .as_bool()
                    .ok_or_else(|| PetriError::Expr("guard must return a bool".into()))?;
                if !ok {
                    return Ok(false);
                }
            }
            GuardPlan::Dyn => {
                self.build_toks(false, ti);
                if !self.net.transitions()[ti].behavior.guard(&self.toks)? {
                    return Ok(false);
                }
            }
        }
        // Consume.
        self.sel.clear();
        for &(p, w) in &plan.in_arcs[is as usize..ie as usize] {
            let q = &mut self.places[p as usize].q;
            for _ in 0..w {
                self.sel.push(q.pop_front().expect("availability checked"));
            }
        }
        let born = self
            .sel
            .iter()
            .map(|&i| self.arena.born[i as usize])
            .min()
            .unwrap_or(now);

        match &plan.fire[ti] {
            FirePlan::Fast {
                delay,
                emits,
                needs_ts,
                reuse,
            } => {
                if *needs_ts {
                    self.build_ts(true, ti);
                } else {
                    // A guard may have populated `ts` from the queue
                    // heads; clear it so `eval_emits` rebuilds `t` from
                    // the consumed tokens instead of stale data.
                    self.ts.clear();
                }
                let d = match delay {
                    DelayPlan::Const(d) => *d,
                    DelayPlan::Expr(c) => {
                        let t0 = self.ts.first().cloned().unwrap_or(Value::Num(0.0));
                        let d = c.eval_num(&t0, &self.ts)?;
                        if !d.is_finite() || d < 0.0 {
                            return Err(PetriError::Expr(format!(
                                "delay must be finite and >= 0, got {d}"
                            )));
                        }
                        d.round() as u64
                    }
                };
                // Emits are evaluated before the completion cycle is
                // checked, the order in which the reference's
                // `Behavior::fire` surfaces the two errors.
                let payloads = if *reuse {
                    None
                } else {
                    Some(self.eval_emits(emits)?)
                };
                let done = due(now, d)?;
                self.trace_firing(ti, now, d, done);
                if let Some(payloads) = payloads {
                    self.emit_payloads(ti, os, payloads, born, done);
                } else {
                    // Re-stamp the consumed handle; zero payload moves.
                    let tok = self.sel[0];
                    self.arena.arrived[tok as usize] = done;
                    if let Some(tr) = self.tracer.as_mut() {
                        tr.stamp_output(tok);
                    }
                    let arc = &plan.out_arcs[os as usize];
                    self.places[arc.place as usize].reserved += 1;
                    self.push_event(
                        done,
                        WEntry::Deliver1 {
                            trans: ti as u32,
                            place: arc.place,
                            tok,
                        },
                    );
                }
                let st = &mut self.trans[ti];
                st.busy_servers += 1;
                st.firings += 1;
                st.busy = st.busy.saturating_add(d);
            }
            FirePlan::Dyn => {
                self.build_toks(true, ti);
                let n_outputs = (oe - os) as usize;
                let behavior = &self.net.transitions()[ti].behavior;
                let firing = behavior.fire(&self.toks, n_outputs)?;
                let done = due(now, firing.delay)?;
                self.trace_firing(ti, now, firing.delay, done);
                self.emit_payloads(ti, os, firing.outputs, born, done);
                let st = &mut self.trans[ti];
                st.busy_servers += 1;
                st.firings += 1;
                st.busy = st.busy.saturating_add(firing.delay);
            }
        }
        // Consumption changed input queue heads and freed capacity in
        // bounded input places.
        self.apply_mask(&plan.wake_fire[ti]);
        Ok(true)
    }

    /// Records the firing whose consumed handles are in `sel` and sets
    /// the source its outputs carry (traced runs only).
    fn trace_firing(&mut self, ti: usize, now: u64, delay: u64, done: u64) {
        let Some(tr) = self.tracer.as_mut() else {
            return;
        };
        let parents = self.sel.iter().map(|&i| tr.src[i as usize]).collect();
        let t = &self.net.transitions()[ti];
        let tokens_in = t.inputs.iter().map(|&(_, w)| w as u32).sum();
        let tokens_out = t.outputs.iter().map(|&(_, w)| w as u32).sum();
        let fseq = tr
            .trace
            .push(now, ti, delay, tokens_in, tokens_out, parents);
        tr.firing = TokenSrc {
            producer: Some(fseq),
            arrived: done,
        };
    }

    /// Evaluates the per-arc emit plans of the firing whose consumed
    /// handles are in `sel`.
    fn eval_emits(&self, emits: &[EmitPlan]) -> Result<Vec<Value>, PetriError> {
        let t0 = if self.ts.is_empty() {
            self.sel
                .first()
                .map(|&i| self.arena.data[i as usize].clone())
                .unwrap_or(Value::Num(0.0))
        } else {
            self.ts[0].clone()
        };
        emits
            .iter()
            .map(|e| match e {
                EmitPlan::Passthrough => Ok(t0.clone()),
                EmitPlan::Expr(c) => c.eval(&t0, &self.ts),
            })
            .collect()
    }

    /// Allocates output tokens (one payload per arc, replicated per arc
    /// weight), schedules the delivery event, and releases the
    /// consumed handles in `sel`.
    fn emit_payloads(&mut self, ti: usize, os: u32, payloads: Vec<Value>, born: u64, done: u64) {
        let plan = self.plan;
        let total: u32 = payloads
            .iter()
            .zip(&plan.out_arcs[os as usize..])
            .map(|(_, a)| a.weight)
            .sum();
        let e = if total == 1 {
            // Single token: exactly one arc, weight 1 (zero-weight
            // arcs are rejected by the builder).
            let arc = &plan.out_arcs[os as usize];
            let payload = payloads.into_iter().next().expect("one output");
            let tok = self.alloc_output(payload, born, done);
            self.places[arc.place as usize].reserved += 1;
            WEntry::Deliver1 {
                trans: ti as u32,
                place: arc.place,
                tok,
            }
        } else {
            let idx = match self.spill_free.pop() {
                Some(i) => i as usize,
                None => {
                    self.spill.push(Vec::new());
                    self.spill.len() - 1
                }
            };
            let mut outs = core::mem::take(&mut self.spill[idx]);
            for (j, payload) in payloads.into_iter().enumerate() {
                let arc = &plan.out_arcs[os as usize + j];
                self.places[arc.place as usize].reserved += arc.weight;
                // `weight - 1` clones, then the final token moves the
                // payload.
                for _ in 1..arc.weight {
                    let tok = self.alloc_output(payload.clone(), born, done);
                    outs.push((arc.place, tok));
                }
                let tok = self.alloc_output(payload, born, done);
                outs.push((arc.place, tok));
            }
            self.spill[idx] = outs;
            WEntry::DeliverN {
                trans: ti as u32,
                spill: idx as u32,
            }
        };
        self.push_event(done, e);
        for k in 0..self.sel.len() {
            self.arena.release(self.sel[k]);
        }
    }

    /// Allocates one output token of the firing being emitted.
    fn alloc_output(&mut self, payload: Value, born: u64, done: u64) -> u32 {
        let tok = self.arena.alloc(payload, born, done);
        if let Some(tr) = self.tracer.as_mut() {
            tr.stamp_output(tok);
        }
        tok
    }

    /// Fires until fixpoint with a pass-structured dirty worklist:
    /// each pass walks the dirty set in rank order, and a transition
    /// dirtied at a rank the cursor already passed waits for the next
    /// pass (where the reference scan would also revisit it). A
    /// transition that is not dirty cannot fire — nothing that enables
    /// it changed since it last failed — so skipping it leaves the
    /// firing sequence, and hence every event, identical.
    fn fire_enabled(&mut self, now: u64) -> Result<(), PetriError> {
        loop {
            let mut fired_any = false;
            let mut cursor = 0usize;
            while let Some(r) = self.dirty_next_at_or_after(cursor) {
                cursor = r + 1;
                let ti = self.plan.order[r] as usize;
                let c = self.plan.chain[ti];
                if c.servers != 0 && self.tracer.is_none() {
                    while self.chain_fire(ti, c, now)? {
                        fired_any = true;
                    }
                } else {
                    while self.try_fire(ti, now)? {
                        fired_any = true;
                    }
                }
                self.dirty[r / 64] &= !(1 << (r % 64));
            }
            if !fired_any {
                return Ok(());
            }
        }
    }

    // ---- run ------------------------------------------------------

    /// Runs until quiescence and returns the result (observably
    /// identical to [`crate::reference::run`] on the same net and
    /// injections).
    pub fn run(mut self) -> Result<SimResult, PetriError> {
        // Stage injections in order: identical (time, seq) schedule to
        // the reference's heap pushes.
        let injects = core::mem::take(&mut self.injects);
        self.completions.reserve(injects.len());
        for &(place, tok) in &injects {
            let at = due(0, self.arena.arrived[tok as usize])?;
            self.push_event(at, WEntry::Inject { place, tok });
        }
        let mut now = 0u64;
        let mut events = 0u64;
        self.dirty_set_all();
        self.fire_enabled(now)?;
        while let Some((time, e)) = self.pop_event() {
            events += 1;
            if events > self.opts.max_events {
                return Err(PetriError::EventBudgetExceeded(self.opts.max_events));
            }
            now = time;
            match e {
                WEntry::Inject { place, tok } => {
                    let plan = self.plan;
                    let p = place as usize;
                    if plan.sink[p] {
                        self.retire(tok);
                    } else {
                        self.deposit(p, tok);
                        self.apply_mask(&plan.wake_deposit[p]);
                    }
                }
                WEntry::Deliver1 { trans, place, tok } => {
                    self.trans[trans as usize].busy_servers -= 1;
                    let (w, b) = self.plan.wake_self[trans as usize];
                    self.dirty[w as usize] |= b;
                    self.deliver_token(place, tok);
                }
                WEntry::DeliverN { trans, spill } => {
                    self.trans[trans as usize].busy_servers -= 1;
                    let (w, b) = self.plan.wake_self[trans as usize];
                    self.dirty[w as usize] |= b;
                    let outs = core::mem::take(&mut self.spill[spill as usize]);
                    for &(place, tok) in &outs {
                        self.deliver_token(place, tok);
                    }
                    self.spill[spill as usize] = outs;
                    self.spill[spill as usize].clear();
                    self.spill_free.push(spill);
                }
            }
            self.fire_enabled(now)?;
        }
        debug_assert!(
            self.places.iter().all(|ps| ps.reserved == 0),
            "reservations leaked at quiescence"
        );
        let stranded: Vec<(String, usize)> = self
            .net
            .places()
            .iter()
            .zip(&self.places)
            .filter(|(p, ps)| !p.is_sink && !ps.q.is_empty())
            .map(|(p, ps)| (p.name.clone(), ps.q.len()))
            .collect();
        if self.opts.fail_on_deadlock && !stranded.is_empty() {
            return Err(PetriError::Deadlock { at: now, stranded });
        }
        Ok(SimResult {
            makespan: now,
            completions: self.completions,
            events,
            firings: self.trans.iter().map(|t| t.firings).collect(),
            busy: self.trans.iter().map(|t| t.busy).collect(),
            high_water: self.places.iter().map(|p| p.high_water as usize).collect(),
            stranded,
            enablement_checks: self.enablement_checks,
            trace: self.tracer.map(|t| t.trace),
        })
    }
}

/// A net paired with its compiled plan: what the accelerator adapters
/// hold.
///
/// Interfaces that evaluate the same immutable net many times pay the
/// [`CompiledNet::compile`] cost once and open a fresh [`Stepper`] per
/// query.
///
/// # Examples
///
/// ```
/// use perf_petri::{NetBuilder, NetExec, Options, Token};
/// use perf_iface_lang::Value;
///
/// let mut b = NetBuilder::new("n");
/// let a = b.place("a", None);
/// let z = b.sink("z");
/// b.transition("t", &[a], &[z], |_| 3, |ts| vec![ts[0].data.clone()]);
/// let exec = NetExec::new(b.build().unwrap());
/// let mut s = exec.session(Options::default());
/// s.inject(a, Token::at(Value::num(1.0), 0));
/// assert_eq!(s.run().unwrap().makespan, 3);
/// ```
pub struct NetExec {
    net: Net,
    plan: CompiledNet,
}

impl NetExec {
    /// Compiles the net once.
    pub fn new(net: Net) -> NetExec {
        let plan = CompiledNet::compile(&net);
        NetExec { net, plan }
    }

    /// The wrapped net.
    pub fn net(&self) -> &Net {
        &self.net
    }

    /// Opens one evaluation session (inject, then run).
    pub fn session(&self, opts: Options) -> Stepper<'_> {
        self.plan.stepper(&self.net, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::ExprBehavior;
    use crate::net::{NetBuilder, Transition};

    fn passthrough(n: usize) -> impl Fn(&[Token]) -> Vec<Value> {
        move |ts: &[Token]| vec![ts[0].data.clone(); n]
    }

    fn run_with(
        net: &Net,
        injects: &[(PlaceId, Token)],
        opts: Options,
    ) -> Result<SimResult, PetriError> {
        let plan = CompiledNet::compile(net);
        let mut s = plan.stepper(net, opts);
        for (p, t) in injects {
            s.inject(*p, t.clone());
        }
        s.run()
    }

    fn run(net: &Net, injects: &[(PlaceId, Token)]) -> SimResult {
        run_with(net, injects, Options::default()).unwrap()
    }

    /// `n` zero payloads injected into `p` at cycle 0.
    fn zeros(p: PlaceId, n: usize) -> Vec<(PlaceId, Token)> {
        (0..n).map(|_| (p, Token::at(Value::num(0.0), 0))).collect()
    }

    /// (reference, stepper) results of one workload.
    fn both(net: &Net, injects: &[(PlaceId, Token)]) -> [Result<SimResult, PetriError>; 2] {
        [
            crate::reference::run(net, injects.iter().cloned(), Options::default()),
            run_with(net, injects, Options::default()),
        ]
    }

    /// [`both`] for a workload both evaluators complete.
    fn run_both(net: &Net, injects: &[(PlaceId, Token)]) -> (SimResult, SimResult) {
        let [refr, st] = both(net, injects);
        (refr.unwrap(), st.unwrap())
    }

    fn assert_equiv(a: &SimResult, b: &SimResult) {
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.events, b.events);
        assert_eq!(a.firings, b.firings);
        assert_eq!(a.busy, b.busy);
        assert_eq!(a.high_water, b.high_water);
        assert_eq!(a.stranded, b.stranded);
    }

    #[test]
    fn single_transition_latency() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let z = b.sink("z");
        b.transition("t", &[a], &[z], |_| 7, passthrough(1));
        let net = b.build().unwrap();
        let r = run(&net, &[(a, Token::at(Value::num(1.0), 0))]);
        assert_eq!(r.completions.len(), 1);
        assert_eq!(r.latencies(), vec![7]);
        assert_eq!(r.makespan, 7);
        assert!(!r.deadlocked());
    }

    #[test]
    fn single_server_serializes() {
        // 10 tokens through a 5-cycle single-server transition: the
        // last completes at 50.
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let z = b.sink("z");
        b.transition("t", &[a], &[z], |_| 5, passthrough(1));
        let net = b.build().unwrap();
        let r = run(&net, &zeros(a, 10));
        assert_eq!(r.completions.len(), 10);
        assert_eq!(r.makespan, 50);
        assert!((r.throughput() - 0.2).abs() < 1e-12);
        assert_eq!(r.firings[0], 10);
        assert_eq!(r.busy[0], 50);
    }

    #[test]
    fn infinite_server_runs_in_parallel() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let z = b.sink("z");
        b.add_transition(Transition {
            name: "t".into(),
            inputs: vec![(a, 1)],
            outputs: vec![(z, 1)],
            behavior: crate::behavior::fixed_delay(5, 1),
            servers: 0,
            priority: 0,
        });
        let net = b.build().unwrap();
        let r = run(&net, &zeros(a, 10));
        assert_eq!(r.makespan, 5); // All ten fire concurrently.
    }

    #[test]
    fn pipeline_throughput_set_by_bottleneck() {
        let mut b = NetBuilder::new("pipe");
        let src = b.place("src", None);
        let mid = b.place("mid", Some(2));
        let z = b.sink("z");
        b.transition("fast", &[src], &[mid], |_| 1, passthrough(1));
        b.transition("slow", &[mid], &[z], |_| 4, passthrough(1));
        let net = b.build().unwrap();
        let n = 100;
        let r = run(&net, &zeros(src, n));
        assert_eq!(r.completions.len(), n);
        // Steady state: one completion per 4 cycles.
        let per_item = r.makespan as f64 / n as f64;
        assert!((4.0..4.2).contains(&per_item), "per_item = {per_item}");
        // The bounded mid place forces backpressure on `fast`: its
        // firings track the slow stage rather than racing ahead.
        assert_eq!(r.high_water[mid.index()], 2);
    }

    #[test]
    fn capacity_reservation_prevents_overflow() {
        // Transition with delay writes into a cap-1 place; a second
        // firing must wait until the in-flight token is consumed.
        let mut b = NetBuilder::new("n");
        let src = b.place("src", None);
        let tiny = b.place("tiny", Some(1));
        let z = b.sink("z");
        b.transition("prod", &[src], &[tiny], |_| 1, passthrough(1));
        b.transition("cons", &[tiny], &[z], |_| 10, passthrough(1));
        let net = b.build().unwrap();
        let r = run(&net, &zeros(src, 3));
        assert_eq!(r.completions.len(), 3);
        assert_eq!(r.high_water[tiny.index()], 1);
        // Serialized by the consumer: ~30 cycles.
        assert!(r.makespan >= 30);
    }

    #[test]
    fn join_waits_for_both_inputs() {
        let mut b = NetBuilder::new("n");
        let l = b.place("l", None);
        let rp = b.place("r", None);
        let z = b.sink("z");
        b.transition("join", &[l, rp], &[z], |_| 2, passthrough(1));
        let net = b.build().unwrap();
        let r = run(
            &net,
            &[
                (l, Token::at(Value::num(1.0), 0)),
                (rp, Token::at(Value::num(2.0), 40)), // Late arrival.
            ],
        );
        assert_eq!(r.completions.len(), 1);
        assert_eq!(r.makespan, 42);
        // Latency measured from the earliest ancestor.
        assert_eq!(r.latencies(), vec![42]);
    }

    #[test]
    fn fork_duplicates_tokens() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let z1 = b.sink("z1");
        let z2 = b.sink("z2");
        b.transition("fork", &[a], &[z1, z2], |_| 1, passthrough(2));
        let net = b.build().unwrap();
        let r = run(&net, &zeros(a, 1));
        assert_eq!(r.completions.len(), 2);
    }

    #[test]
    fn weighted_arcs_batch_tokens() {
        // Consume 4 tokens per firing (e.g. a 4-wide SIMD unit).
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let z = b.sink("z");
        b.add_transition(Transition {
            name: "batch".into(),
            inputs: vec![(a, 4)],
            outputs: vec![(z, 1)],
            behavior: crate::behavior::fixed_delay(3, 1),
            servers: 1,
            priority: 0,
        });
        let net = b.build().unwrap();
        let r = run(&net, &zeros(a, 8));
        assert_eq!(r.completions.len(), 2);
        assert_eq!(r.makespan, 6);
    }

    #[test]
    fn leftover_tokens_reported_as_stranded() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let z = b.sink("z");
        b.add_transition(Transition {
            name: "batch".into(),
            inputs: vec![(a, 2)],
            outputs: vec![(z, 1)],
            behavior: crate::behavior::fixed_delay(1, 1),
            servers: 1,
            priority: 0,
        });
        let net = b.build().unwrap();
        let r = run(&net, &zeros(a, 3));
        assert_eq!(r.completions.len(), 1);
        assert_eq!(r.stranded, vec![("a".to_string(), 1)]);
        assert!(r.deadlocked());
    }

    #[test]
    fn fail_on_deadlock_option() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let z = b.sink("z");
        b.add_transition(Transition {
            name: "two".into(),
            inputs: vec![(a, 2)],
            outputs: vec![(z, 1)],
            behavior: crate::behavior::fixed_delay(1, 1),
            servers: 1,
            priority: 0,
        });
        let net = b.build().unwrap();
        let opts = Options {
            fail_on_deadlock: true,
            ..Options::default()
        };
        let r = run_with(&net, &zeros(a, 1), opts);
        assert!(matches!(r, Err(PetriError::Deadlock { .. })));
    }

    #[test]
    fn guard_selects_path_by_priority() {
        // Two transitions compete for the same place; the guarded
        // high-priority one takes small tokens, the fallback the rest.
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let small = b.sink("small");
        let big = b.sink("big");
        b.add_transition(Transition {
            name: "small_path".into(),
            inputs: vec![(a, 1)],
            outputs: vec![(small, 1)],
            behavior: Behavior::Native {
                guard: Some(Box::new(|ts: &[Token]| ts[0].data.as_num().unwrap() < 10.0)),
                delay: Box::new(|_| 1),
                transform: Box::new(|ts: &[Token]| vec![ts[0].data.clone()]),
            },
            servers: 1,
            priority: 1,
        });
        b.transition("big_path", &[a], &[big], |_| 1, passthrough(1));
        let net = b.build().unwrap();
        let r = run(
            &net,
            &[
                (a, Token::at(Value::num(5.0), 0)),
                (a, Token::at(Value::num(50.0), 1)),
            ],
        );
        assert_eq!(r.completions.len(), 2);
        let small_fired = r.firings[net.trans_id("small_path").unwrap().index()];
        let big_fired = r.firings[net.trans_id("big_path").unwrap().index()];
        assert_eq!(small_fired, 1);
        assert_eq!(big_fired, 1);
    }

    #[test]
    fn deterministic_replay() {
        let build = || {
            let mut b = NetBuilder::new("n");
            let src = b.place("src", None);
            let mid = b.place("mid", Some(3));
            let z = b.sink("z");
            b.transition(
                "s1",
                &[src],
                &[mid],
                |ts| ts[0].data.as_num().unwrap() as u64 % 7 + 1,
                |ts| vec![ts[0].data.clone()],
            );
            b.transition("s2", &[mid], &[z], |_| 3, |ts| vec![ts[0].data.clone()]);
            b.build().unwrap()
        };
        let replay = |net: &Net| {
            let src = net.place_id("src").unwrap();
            let injects: Vec<_> = (0..50)
                .map(|i| (src, Token::at(Value::num(i as f64), i)))
                .collect();
            run(net, &injects)
        };
        let r1 = replay(&build());
        let r2 = replay(&build());
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.latencies(), r2.latencies());
        assert_eq!(r1.events, r2.events);
    }

    #[test]
    fn native_pipeline_matches_reference() {
        let mut b = NetBuilder::new("pipe");
        let src = b.place("src", None);
        let mid = b.place("mid", Some(2));
        let z = b.sink("z");
        b.transition("fast", &[src], &[mid], |_| 1, passthrough(1));
        b.transition("slow", &[mid], &[z], |_| 4, passthrough(1));
        let net = b.build().unwrap();
        let injects: Vec<_> = (0..100)
            .map(|i| (src, Token::at(Value::num(i as f64), 0)))
            .collect();
        let (a, s) = run_both(&net, &injects);
        assert_equiv(&a, &s);
    }

    #[test]
    fn expr_pipeline_takes_fast_path() {
        let mut b = NetBuilder::new("pipe");
        let src = b.place("src", None);
        let mid = b.place("mid", Some(4));
        let z = b.sink("z");
        b.add_transition(Transition {
            name: "s1".into(),
            inputs: vec![(src, 1)],
            outputs: vec![(mid, 1)],
            behavior: Behavior::Expr(ExprBehavior::compile("", "2", None, &[None]).unwrap()),
            servers: 1,
            priority: 0,
        });
        b.add_transition(Transition {
            name: "s2".into(),
            inputs: vec![(mid, 1)],
            outputs: vec![(z, 1)],
            behavior: Behavior::Expr(ExprBehavior::compile("", "1 + t.w", None, &[None]).unwrap()),
            servers: 1,
            priority: 0,
        });
        let net = b.build().unwrap();
        let injects: Vec<_> = (0..64)
            .map(|i| {
                (
                    src,
                    Token::at(Value::record([("w", Value::num((i % 3) as f64))]), i),
                )
            })
            .collect();
        let (a, s) = run_both(&net, &injects);
        assert_equiv(&a, &s);
        assert!(s.makespan > 0);
    }

    #[test]
    fn guards_and_priorities_match() {
        let mut b = NetBuilder::new("routed");
        let a = b.place("a", None);
        let small = b.sink("small");
        let big = b.sink("big");
        b.add_transition(Transition {
            name: "small_path".into(),
            inputs: vec![(a, 1)],
            outputs: vec![(small, 1)],
            behavior: Behavior::Expr(
                ExprBehavior::compile("", "1", Some("t.v < 10"), &[None]).unwrap(),
            ),
            servers: 1,
            priority: 1,
        });
        b.add_transition(Transition {
            name: "big_path".into(),
            inputs: vec![(a, 1)],
            outputs: vec![(big, 1)],
            behavior: Behavior::Expr(ExprBehavior::compile("", "1", None, &[None]).unwrap()),
            servers: 1,
            priority: 0,
        });
        let net = b.build().unwrap();
        let injects: Vec<_> = (0..40)
            .map(|i| {
                (
                    a,
                    Token::at(Value::record([("v", Value::num((i % 20) as f64))]), i / 2),
                )
            })
            .collect();
        let (eng, st) = run_both(&net, &injects);
        assert_equiv(&eng, &st);
    }

    #[test]
    fn fork_join_weights_and_emits_match() {
        let mut b = NetBuilder::new("fj");
        let a = b.place("a", None);
        let l = b.place("l", None);
        let r = b.place("r", None);
        let z = b.sink("z");
        b.add_transition(Transition {
            name: "fork".into(),
            inputs: vec![(a, 1)],
            outputs: vec![(l, 1), (r, 2)],
            behavior: Behavior::Expr(
                ExprBehavior::compile("", "1", None, &[Some("{ h: t.v / 2 }".into()), None])
                    .unwrap(),
            ),
            servers: 0,
            priority: 0,
        });
        b.add_transition(Transition {
            name: "join".into(),
            inputs: vec![(l, 1), (r, 2)],
            outputs: vec![(z, 1)],
            behavior: Behavior::Expr(
                ExprBehavior::compile("", "ts[0].h + ts[1].v", None, &[Some("ts[0]".into())])
                    .unwrap(),
            ),
            servers: 1,
            priority: 0,
        });
        let net = b.build().unwrap();
        let injects: Vec<_> = (0..30)
            .map(|i| {
                (
                    a,
                    Token::at(Value::record([("v", Value::num((4 + i % 6) as f64))]), i),
                )
            })
            .collect();
        let (eng, st) = run_both(&net, &injects);
        assert_equiv(&eng, &st);
    }

    #[test]
    fn stranded_and_deadlock_match() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let z = b.sink("z");
        b.add_transition(Transition {
            name: "two".into(),
            inputs: vec![(a, 2)],
            outputs: vec![(z, 1)],
            behavior: crate::behavior::fixed_delay(1, 1),
            servers: 1,
            priority: 0,
        });
        let net = b.build().unwrap();
        let injects: Vec<_> = (0..3).map(|_| (a, Token::at(Value::num(0.0), 0))).collect();
        let (eng, st) = run_both(&net, &injects);
        assert_equiv(&eng, &st);
        assert!(st.deadlocked());

        let plan = CompiledNet::compile(&net);
        let mut s = plan.stepper(
            &net,
            Options {
                fail_on_deadlock: true,
                ..Options::default()
            },
        );
        s.inject(a, Token::at(Value::num(0.0), 0));
        assert!(matches!(s.run(), Err(PetriError::Deadlock { .. })));
    }

    #[test]
    fn event_budget_enforced() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        b.transition("spin", &[a], &[a], |_| 1, passthrough(1));
        let net = b.build().unwrap();
        let plan = CompiledNet::compile(&net);
        let mut s = plan.stepper(
            &net,
            Options {
                max_events: 100,
                ..Options::default()
            },
        );
        s.inject(a, Token::at(Value::num(0.0), 0));
        assert!(matches!(s.run(), Err(PetriError::EventBudgetExceeded(100))));
    }

    #[test]
    fn far_horizon_injections_ordered() {
        // Arrivals far beyond the wheel window exercise the far heap
        // and the migrate path.
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let z = b.sink("z");
        b.transition("t", &[a], &[z], |_| 3, passthrough(1));
        let net = b.build().unwrap();
        let injects: Vec<_> = (0..20)
            .map(|i| (a, Token::at(Value::num(i as f64), i * 5_000)))
            .collect();
        let (eng, st) = run_both(&net, &injects);
        assert_equiv(&eng, &st);
        assert_eq!(st.completions.len(), 20);
    }

    #[test]
    fn zero_delay_chains_stay_in_cycle_order() {
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let m = b.place("m", None);
        let z = b.sink("z");
        b.add_transition(Transition {
            name: "instant".into(),
            inputs: vec![(a, 1)],
            outputs: vec![(m, 1)],
            behavior: Behavior::Expr(ExprBehavior::compile("", "0", None, &[None]).unwrap()),
            servers: 0,
            priority: 0,
        });
        b.add_transition(Transition {
            name: "out".into(),
            inputs: vec![(m, 1)],
            outputs: vec![(z, 1)],
            behavior: Behavior::Expr(ExprBehavior::compile("", "1", None, &[None]).unwrap()),
            servers: 1,
            priority: 0,
        });
        let net = b.build().unwrap();
        let injects: Vec<_> = (0..10)
            .map(|i| (a, Token::at(Value::num(i as f64), 2)))
            .collect();
        let (eng, st) = run_both(&net, &injects);
        assert_equiv(&eng, &st);
    }

    #[test]
    fn traced_chain_net_records_what_the_reference_records() {
        // An all-chain net (every untraced firing takes the fused
        // path): tracing must take the general path and record every
        // firing.
        let mut b = NetBuilder::new("n");
        let a = b.place("a", None);
        let m = b.place("m", Some(1));
        let z = b.sink("z");
        b.add_transition(Transition {
            name: "s0".into(),
            inputs: vec![(a, 1)],
            outputs: vec![(m, 1)],
            behavior: Behavior::Expr(ExprBehavior::compile("", "2", None, &[None]).unwrap()),
            servers: 1,
            priority: 0,
        });
        b.add_transition(Transition {
            name: "s1".into(),
            inputs: vec![(m, 1)],
            outputs: vec![(z, 1)],
            behavior: Behavior::Expr(ExprBehavior::compile("", "3", None, &[None]).unwrap()),
            servers: 1,
            priority: 0,
        });
        let net = b.build().unwrap();
        assert!(CompiledNet::compile(&net)
            .chain
            .iter()
            .all(|c| c.servers != 0));
        let opts = Options {
            trace: Some(64),
            ..Options::default()
        };
        let injects = zeros(a, 4);
        let st = run_with(&net, &injects, opts).unwrap();
        let refr = crate::reference::run(&net, injects.iter().cloned(), opts).unwrap();
        assert_equiv(&refr, &st);
        assert_equiv(&refr, &run(&net, &injects));
        let (ts, tr) = (st.trace.unwrap(), refr.trace.unwrap());
        assert_eq!(ts.len(), 8);
        assert!(ts.records().eq(tr.records()));
        assert_eq!(ts.completion_sources(), tr.completion_sources());
    }

    /// A one-transition net `a -> t -> z` with a constant `delay` and
    /// `servers` servers.
    fn const_delay_net(delay: &str, servers: usize) -> (Net, PlaceId) {
        let mut b = NetBuilder::new("ovf");
        let a = b.place("a", None);
        let z = b.sink("z");
        b.add_transition(Transition {
            name: "t".into(),
            inputs: vec![(a, 1)],
            outputs: vec![(z, 1)],
            behavior: Behavior::Expr(ExprBehavior::compile("", delay, None, &[None]).unwrap()),
            servers,
            priority: 0,
        });
        (b.build().unwrap(), a)
    }

    #[test]
    fn completion_past_max_cycle_is_an_error_in_both_evaluators() {
        // Two tokens through a 10^19-cycle stage: the completion times
        // used to wrap (release) or panic (debug).
        let (net, a) = const_delay_net("10000000000000000000", 1);
        for r in both(&net, &zeros(a, 2)) {
            assert_eq!(
                r.unwrap_err(),
                PetriError::CycleOverflow {
                    at: 0,
                    delay: 10_000_000_000_000_000_000
                }
            );
        }
        // A delay rounding to 2^64 used to overflow the wheel horizon.
        let (net, a) = const_delay_net("18446744073709551000", 1);
        for r in both(&net, &zeros(a, 1)) {
            assert_eq!(
                r.unwrap_err(),
                PetriError::CycleOverflow {
                    at: 0,
                    delay: u64::MAX
                }
            );
        }
    }

    #[test]
    fn chain_completion_past_max_cycle_is_an_error_in_both_evaluators() {
        // A small constant delay takes the fused chain path; a token
        // arriving at the last schedulable cycle overflows there.
        let (net, a) = const_delay_net("5", 1);
        assert_ne!(CompiledNet::compile(&net).chain[0].servers, 0);
        let late = [(a, Token::at(Value::num(0.0), MAX_CYCLE - 1))];
        for r in both(&net, &late) {
            assert_eq!(
                r.unwrap_err(),
                PetriError::CycleOverflow {
                    at: MAX_CYCLE - 1,
                    delay: 5
                }
            );
        }
        // Completing exactly at `MAX_CYCLE` is still fine.
        let edge = [(a, Token::at(Value::num(0.0), MAX_CYCLE - 5))];
        let (refr, st) = run_both(&net, &edge);
        assert_equiv(&refr, &st);
    }

    #[test]
    fn injection_past_max_cycle_is_an_error_in_both_evaluators() {
        let (net, a) = const_delay_net("1", 1);
        let injects = [
            (a, Token::at(Value::num(0.0), 3)),
            (a, Token::at(Value::num(0.0), u64::MAX)),
        ];
        for r in both(&net, &injects) {
            assert_eq!(
                r.unwrap_err(),
                PetriError::CycleOverflow {
                    at: 0,
                    delay: u64::MAX
                }
            );
        }
    }

    #[test]
    fn busy_cycles_saturate_in_both_evaluators() {
        // Four concurrent 2^62-cycle firings: busy cycles sum to 2^64.
        let (net, a) = const_delay_net("4611686018427387904", 0);
        let (refr, st) = run_both(&net, &zeros(a, 4));
        assert_equiv(&refr, &st);
        assert_eq!(st.busy, vec![u64::MAX]);
    }
}
