//! Timed Petri-net performance IR.
//!
//! The paper's most precise interface representation is a timed Petri
//! net that is "performance-equivalent" to the accelerator's circuit:
//! places model hardware queues, tokens model data units, transitions
//! model processing elements with data-dependent delays, and arcs model
//! dependencies between elements. Because multiple transitions fire
//! concurrently, the net captures pipelining, internal queuing and
//! backpressure — the behaviors a closed-form program interface has to
//! approximate.
//!
//! This crate provides:
//!
//! * the net structure and a builder API ([`net`]),
//! * token and behavior types — delays and output-token transforms can
//!   be native Rust closures or expressions in the PIL interface
//!   language ([`token`], [`behavior`]),
//! * one production evaluator, the compiled static-topology
//!   [`Stepper`] ([`stepper`]): event-driven, with single-server
//!   transition semantics, capacity reservation (backpressure) and
//!   deterministic conflict resolution,
//! * a small executable specification of those semantics, the
//!   full-scan [`mod@reference`] evaluator the stepper is tested against,
//! * structural and dynamic analyses ([`analysis`]),
//! * an optional firing trace with token provenance and a
//!   critical-path extractor that attributes end-to-end predicted
//!   latency to service and queueing per transition ([`trace`]),
//! * a textual `.pnet` interchange format so nets can ship as vendor
//!   artifacts ([`text`]) and Graphviz export ([`dot`]).
//!
//! # Examples
//!
//! A two-stage pipeline processing five work items:
//!
//! ```
//! use perf_petri::{NetBuilder, NetExec, Options, Token};
//! use perf_iface_lang::Value;
//!
//! let mut b = NetBuilder::new("pipe");
//! let src = b.place("src", None);
//! let mid = b.place("mid", Some(2));
//! let done = b.sink("done");
//! b.transition("stage1", &[src], &[mid], |_| 3, |toks| vec![toks[0].data.clone()]);
//! b.transition("stage2", &[mid], &[done], |_| 5, |toks| vec![toks[0].data.clone()]);
//! let exec = NetExec::new(b.build().unwrap());
//!
//! let mut s = exec.session(Options::default());
//! for i in 0..5 {
//!     s.inject(src, Token::at(Value::num(i as f64), 0));
//! }
//! let res = s.run().unwrap();
//! assert_eq!(res.completions.len(), 5);
//! // Throughput is set by the 5-cycle bottleneck stage.
//! assert!(res.makespan >= 25);
//! ```
#![deny(missing_docs)]

pub mod analysis;
pub mod behavior;
pub mod bound;
mod compile;
pub mod components;
pub mod compose;
pub mod dot;
pub mod lint;
pub mod net;
pub mod reference;
pub mod stepper;
pub mod text;
pub mod token;
pub mod trace;

pub use bound::{bounds, bounds_any, NetBounds};
pub use net::{Net, NetBuilder, PlaceId, TransId};
pub use reference::{Options, SimResult};
pub use stepper::{CompiledNet, NetExec, Stepper};
pub use token::Token;
pub use trace::{critical_path, CriticalPath, EngineTrace, FiringRecord, Segment, TokenSrc};

use perf_core::CoreError;

/// Errors produced while building, parsing or simulating a net.
#[derive(Clone, Debug, PartialEq)]
pub enum PetriError {
    /// The net structure is invalid (dangling arc, empty net, ...).
    Structure(String),
    /// `.pnet` text failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A delay/guard/emit expression failed at runtime.
    Expr(String),
    /// The simulation hit its event budget.
    EventBudgetExceeded(u64),
    /// An event was scheduled past [`MAX_CYCLE`]: a firing's
    /// completion, or an injected token's arrival (reported as
    /// scheduled at cycle 0 with its arrival cycle as the delay).
    CycleOverflow {
        /// Cycle the event was scheduled at.
        at: u64,
        /// Cycles from `at` to the event.
        delay: u64,
    },
    /// The net deadlocked: tokens remain but nothing can fire.
    Deadlock {
        /// Simulation time at which progress stopped.
        at: u64,
        /// Tokens stranded per place name.
        stranded: Vec<(String, usize)>,
    },
}

impl core::fmt::Display for PetriError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PetriError::Structure(m) => write!(f, "net structure error: {m}"),
            PetriError::Parse { line, msg } => write!(f, "pnet parse error at line {line}: {msg}"),
            PetriError::Expr(m) => write!(f, "expression error: {m}"),
            PetriError::EventBudgetExceeded(n) => {
                write!(f, "simulation exceeded event budget of {n}")
            }
            PetriError::CycleOverflow { at, delay } => write!(
                f,
                "cycle overflow: an event scheduled at cycle {at} with delay {delay} \
                 lands past the last schedulable cycle {MAX_CYCLE}"
            ),
            PetriError::Deadlock { at, stranded } => {
                write!(f, "deadlock at cycle {at}: stranded tokens in ")?;
                for (i, (p, n)) in stranded.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}({n})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PetriError {}

/// The last cycle either evaluator schedules an event at. Half the
/// `u64` range: far past any real workload (a century at 3 GHz), and
/// far enough below `u64::MAX` that cycle arithmetic on scheduled times
/// (the stepper's wheel horizon is `base + 256`) never overflows.
pub const MAX_CYCLE: u64 = u64::MAX >> 1;

/// The cycle an event scheduled at `now` with `delay` is due, or
/// [`PetriError::CycleOverflow`] when that lies past [`MAX_CYCLE`].
#[inline(always)]
pub(crate) fn due(now: u64, delay: u64) -> Result<u64, PetriError> {
    match now.checked_add(delay) {
        Some(t) if t <= MAX_CYCLE => Ok(t),
        _ => Err(PetriError::CycleOverflow { at: now, delay }),
    }
}

impl From<PetriError> for CoreError {
    fn from(e: PetriError) -> CoreError {
        CoreError::Artifact(e.to_string())
    }
}
