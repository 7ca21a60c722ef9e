//! `perf-lint` static analyses for interface programs.
//!
//! A PIL program shipped as a performance interface is a contract about
//! numbers: it claims to map workloads to latencies. This module audits
//! the contract with a small abstract interpreter over intervals plus a
//! concrete monotonicity probe, reporting through the shared
//! [`perf_core::diag`] model:
//!
//! * `PIL101` — division (or modulo) by a provably-zero divisor;
//! * `PIL102` — dead branch: an `if` condition that is constantly
//!   true/false, so one arm can never run;
//! * `PIL103` — unreachable statements after a `return`;
//! * `PIL104` — a `while` loop whose condition is provably true and
//!   whose body contains no `return`: it cannot terminate;
//! * `PIL105` — a `latency_*`/`min_latency*`/`max_latency*` function
//!   whose result is provably negative for every workload;
//! * `PIL107` — constant arithmetic that overflows finite operands to
//!   infinity (or NaN);
//! * `PIL108` — a latency function that *decreases* as a size-like
//!   workload field grows, found by concretely probing the function on
//!   a geometric grid.
//!
//! The interval domain is deliberately coarse: workload parameters and
//! their fields abstract to "any non-negative number" when used
//! arithmetically (performance inputs are sizes and counts), and only
//! *provable* facts are reported, so a clean bill of health on the
//! shipped interfaces stays meaningful.
//!
//! The same interpreter doubles as a **bound extractor** for the
//! cross-tier consistency pass (`perf-xcheck`): [`bound_fn`] evaluates
//! a function with its workload parameter bound to a declared *box*
//! ([`BoxVal`] — per-feature intervals, possibly nested records and
//! bounded-length lists) and returns a guaranteed `[lo, hi]` enclosure
//! of every value the function can return inside that box. Simple
//! accumulation loops (`for x in w.items { acc = acc + cost(x); }`)
//! are summarized as `len * delta` instead of widened, so list-shaped
//! workloads still yield finite bounds.

use crate::ast::{BinOp, Expr, FnDecl, Program, Stmt, UnOp};
use crate::error::Span;
use crate::interp::{eval_consts, Interp, Limits};
use crate::value::Value;
use perf_core::diag::{Diagnostic, Diagnostics};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Every PIL lint code (checker `PIL0xx` and analyzer `PIL1xx`) with a
/// one-line description, for docs and tooling.
pub const CODES: &[(&str, &str)] = &[
    ("PIL001", "duplicate function definition"),
    ("PIL002", "function shadows a builtin"),
    ("PIL003", "duplicate parameter name"),
    ("PIL004", "duplicate constant definition"),
    ("PIL005", "reference to an undefined variable"),
    ("PIL006", "call to an undefined function"),
    ("PIL007", "call with the wrong number of arguments"),
    (
        "PIL008",
        "assignment to a variable that was never bound with `let`",
    ),
    ("PIL009", "unused function parameter"),
    ("PIL010", "unused `let` binding"),
    ("PIL011", "file cannot be read"),
    ("PIL012", "syntax error: source failed to lex or parse"),
    ("PIL101", "division or modulo by a provably-zero divisor"),
    ("PIL102", "dead branch: `if` condition is constant"),
    ("PIL103", "unreachable statement after `return`"),
    ("PIL104", "`while` loop provably never terminates"),
    (
        "PIL105",
        "latency function returns a provably-negative value",
    ),
    (
        "PIL107",
        "constant arithmetic overflows finite operands to infinity",
    ),
    (
        "PIL108",
        "latency decreases as a size-like workload field grows",
    ),
];

/// How deep user-function calls are inlined before giving up on
/// precision (recursion is cut immediately).
const INLINE_DEPTH: usize = 8;

/// Geometric probe grid for the monotonicity check.
const PROBES: [f64; 8] = [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0];

/// Value every non-probed scalar field is pinned to while probing.
const FIXED_FIELD: f64 = 64.0;

/// Lints PIL source text end to end: lex/parse failures become a
/// `PIL012` diagnostic, and a well-formed program goes through both the
/// accumulating checker ([`crate::check::diagnostics`]) and the
/// analyses in [`lint`]. Every finding carries `origin` as its file
/// label. This is the one-call entry point `perf_compose::Accel::lint`
/// uses to audit each shipped program.
pub fn lint_src(origin: &str, src: &str) -> Diagnostics {
    let mut out = Diagnostics::new();
    let ast = match crate::lexer::lex(src).and_then(|t| crate::parser::parse(&t)) {
        Ok(ast) => ast,
        Err(e) => {
            let span = match &e {
                crate::error::LangError::Lex { span, .. }
                | crate::error::LangError::Parse { span, .. } => *span,
                _ => Span::default(),
            };
            out.push(
                Diagnostic::error("PIL012", e.to_string())
                    .with_origin(origin)
                    .with_pos(span.line, span.col),
            );
            return out;
        }
    };
    out.merge(crate::check::diagnostics(&ast));
    out.merge(lint(&ast));
    out.set_origin(origin);
    out.sort();
    out
}

/// Runs every static analysis on `prog` (assumed parsed; name errors
/// are tolerated — unknown names abstract to "any value").
pub fn lint(prog: &Program) -> Diagnostics {
    let mut out = Diagnostics::new();
    let consts = const_env(prog);
    for f in &prog.functions {
        let mut az = Analyzer {
            prog,
            consts: &consts,
            out: &mut out,
            report: true,
            stack: vec![f.name.clone()],
        };
        let env: Env = f.params.iter().map(|p| (p.clone(), AbsVal::Any)).collect();
        let ret = az.run_fn(f, env);
        unreachable_after_return(&f.body, &mut out);
        if is_latency_fn(&f.name) {
            if let AbsVal::Num(iv) = ret {
                if iv.hi < 0.0 {
                    out.push(
                        Diagnostic::error(
                            "PIL105",
                            format!(
                                "`{}` returns a negative latency for every workload (at most {})",
                                f.name, iv.hi
                            ),
                        )
                        .with_pos(f.span.line, f.span.col)
                        .with_at(format!("fn `{}`", f.name))
                        .with_note(
                            "workload fields are assumed non-negative; cycles cannot be negative",
                        ),
                    );
                }
            }
        }
    }
    monotonicity(prog, &mut out);
    out.sort();
    out
}

fn is_latency_fn(name: &str) -> bool {
    name.starts_with("latency_")
        || name.starts_with("min_latency")
        || name.starts_with("max_latency")
}

/// Evaluates the program's constants concretely (the runtime does the
/// same before any call); failures simply leave the name abstract.
fn const_env(prog: &Program) -> HashMap<String, AbsVal> {
    match eval_consts(prog, Limits::default()) {
        Ok(vals) => vals.into_iter().map(|(k, v)| (k, AbsVal::of(&v))).collect(),
        Err(_) => prog
            .consts
            .iter()
            .map(|c| (c.name.clone(), AbsVal::Any))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------

/// A closed numeric interval; bounds may be infinite.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// The whole real line: `[-inf, +inf]`.
    pub const FULL: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };
    /// The non-negative half-line: `[0, +inf]`.
    pub const NONNEG: Interval = Interval {
        lo: 0.0,
        hi: f64::INFINITY,
    };

    /// Builds `[lo, hi]`; callers are trusted to pass `lo <= hi`.
    pub fn new(lo: f64, hi: f64) -> Interval {
        Interval { lo, hi }
    }

    /// Builds the degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// Both bounds finite.
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// The midpoint of a finite interval (`lo` when unbounded above).
    pub fn mid(&self) -> f64 {
        if self.is_finite() {
            (self.lo + self.hi) / 2.0
        } else {
            self.lo
        }
    }

    fn is_finite_point(&self) -> bool {
        self.lo == self.hi && self.lo.is_finite()
    }

    /// The smallest interval containing both `self` and `o`.
    pub fn hull(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    fn map(self, f: impl Fn(f64) -> f64) -> Interval {
        // Valid for monotone non-decreasing f only.
        Interval {
            lo: f(self.lo),
            hi: f(self.hi),
        }
    }

    /// Interval negation.
    // Not `std::ops` impls: these are plain by-value methods so callers in
    // the bound extractor can fold over operator lists uniformly without
    // importing the trait per operator.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Interval {
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }

    /// Interval addition.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo + o.lo,
            hi: self.hi + o.hi,
        }
    }

    /// Interval subtraction.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, o: Interval) -> Interval {
        self.add(o.neg())
    }

    /// Builds the hull of candidate products, mapping the indeterminate
    /// `0 * inf` (NaN) to 0 — correct for the value *sets* involved.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, o: Interval) -> Interval {
        let cands = [
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for c in cands {
            let c = if c.is_nan() { 0.0 } else { c };
            lo = lo.min(c);
            hi = hi.max(c);
        }
        Interval { lo, hi }
    }

    /// Interval division; a divisor straddling zero yields [`FULL`]
    /// (the runtime produces `+/-inf` there).
    ///
    /// [`FULL`]: Interval::FULL
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, o: Interval) -> Interval {
        if o.lo <= 0.0 && o.hi >= 0.0 {
            // Divisor may be zero: the runtime yields +/-inf there.
            return Interval::FULL;
        }
        let cands = [
            self.lo / o.lo,
            self.lo / o.hi,
            self.hi / o.lo,
            self.hi / o.hi,
        ];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for c in cands {
            let c = if c.is_nan() { 0.0 } else { c };
            lo = lo.min(c);
            hi = hi.max(c);
        }
        Interval { lo, hi }
    }
}

/// Abstract value: a numeric interval, a (possibly-known) boolean, a
/// record with per-field abstractions, a homogeneous list with a
/// length interval, or an unknown of any type. The record and list
/// shapes only arise when a declared workload box is in play (see
/// [`bound_fn`]); plain lints keep abstracting structures to `Any`.
#[derive(Clone, Debug, PartialEq)]
enum AbsVal {
    Num(Interval),
    Bool(Option<bool>),
    Rec(Rc<Vec<(String, AbsVal)>>),
    ListOf { elem: Rc<AbsVal>, len: Interval },
    Any,
}

impl AbsVal {
    fn of(v: &Value) -> AbsVal {
        match v {
            Value::Num(n) => AbsVal::Num(Interval::point(*n)),
            Value::Bool(b) => AbsVal::Bool(Some(*b)),
            _ => AbsVal::Any,
        }
    }

    /// Coerces to an interval for arithmetic. Unknowns coerce to
    /// `[0, +inf)`: performance inputs are sizes, counts and rates,
    /// which are non-negative by convention — the assumption that lets
    /// `0 - 5 - w.size` be *provably* negative.
    fn as_interval(&self) -> Interval {
        match self {
            AbsVal::Num(i) => *i,
            AbsVal::Bool(Some(b)) => Interval::point(if *b { 1.0 } else { 0.0 }),
            AbsVal::Bool(None) => Interval { lo: 0.0, hi: 1.0 },
            AbsVal::Rec(_) | AbsVal::ListOf { .. } | AbsVal::Any => Interval::NONNEG,
        }
    }

    fn join(&self, o: &AbsVal) -> AbsVal {
        match (self, o) {
            (AbsVal::Num(a), AbsVal::Num(b)) => AbsVal::Num(a.hull(*b)),
            (AbsVal::Bool(a), AbsVal::Bool(b)) => AbsVal::Bool(if a == b { *a } else { None }),
            (AbsVal::Rec(a), AbsVal::Rec(b)) => {
                if a.len() == b.len() && a.iter().zip(b.iter()).all(|((k, _), (j, _))| k == j) {
                    AbsVal::Rec(Rc::new(
                        a.iter()
                            .zip(b.iter())
                            .map(|((k, va), (_, vb))| (k.clone(), va.join(vb)))
                            .collect(),
                    ))
                } else {
                    AbsVal::Any
                }
            }
            (AbsVal::ListOf { elem: ea, len: la }, AbsVal::ListOf { elem: eb, len: lb }) => {
                AbsVal::ListOf {
                    elem: Rc::new(ea.join(eb)),
                    len: la.hull(*lb),
                }
            }
            _ => AbsVal::Any,
        }
    }

    /// Field lookup on a record abstraction (`Any` otherwise).
    fn field(&self, name: &str) -> AbsVal {
        match self {
            AbsVal::Rec(fs) => fs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .unwrap_or(AbsVal::Any),
            _ => AbsVal::Any,
        }
    }
}

type Env = HashMap<String, AbsVal>;

// ---------------------------------------------------------------------
// Abstract interpreter
// ---------------------------------------------------------------------

struct Analyzer<'a> {
    prog: &'a Program,
    consts: &'a HashMap<String, AbsVal>,
    out: &'a mut Diagnostics,
    /// Findings are only reported while analyzing the top-level subject
    /// function; inlined callees are analyzed separately on their own.
    report: bool,
    /// Call stack of function names, for recursion cut-off.
    stack: Vec<String>,
}

impl<'a> Analyzer<'a> {
    fn push(&mut self, d: Diagnostic) {
        if self.report {
            self.out.push(d);
        }
    }

    /// Analyzes a function body in `env`, returning the join of its
    /// return values.
    fn run_fn(&mut self, f: &FnDecl, mut env: Env) -> AbsVal {
        let mut ret: Option<AbsVal> = None;
        self.run_block(&f.body, &mut env, &mut ret);
        ret.unwrap_or(AbsVal::Num(Interval::point(0.0)))
    }

    fn run_block(&mut self, stmts: &[Stmt], env: &mut Env, ret: &mut Option<AbsVal>) {
        for s in stmts {
            self.run_stmt(s, env, ret);
        }
    }

    fn run_stmt(&mut self, stmt: &Stmt, env: &mut Env, ret: &mut Option<AbsVal>) {
        match stmt {
            Stmt::Let(name, init, _) | Stmt::Assign(name, init, _) => {
                let v = self.eval(init, env);
                env.insert(name.clone(), v);
            }
            Stmt::Return(e, _) => {
                let v = self.eval(e, env);
                *ret = Some(match ret.take() {
                    None => v,
                    Some(prev) => prev.join(&v),
                });
            }
            Stmt::If(cond, then, els, span) => {
                let c = self.eval(cond, env);
                match c {
                    AbsVal::Bool(Some(true)) => {
                        if !els.is_empty() {
                            self.push(
                                Diagnostic::warning(
                                    "PIL102",
                                    "`if` condition is constantly true: the `else` branch is dead",
                                )
                                .with_pos(span.line, span.col),
                            );
                        }
                        self.run_block(then, env, ret);
                    }
                    AbsVal::Bool(Some(false)) => {
                        self.push(
                            Diagnostic::warning(
                                "PIL102",
                                "`if` condition is constantly false: the `then` branch is dead",
                            )
                            .with_pos(span.line, span.col),
                        );
                        self.run_block(els, env, ret);
                    }
                    _ => {
                        let mut then_env = env.clone();
                        let mut then_ret = ret.clone();
                        self.run_block(then, &mut then_env, &mut then_ret);
                        self.run_block(els, env, ret);
                        join_env(env, &then_env);
                        *ret = match (ret.take(), then_ret) {
                            (None, r) | (r, None) => r,
                            (Some(a), Some(b)) => Some(a.join(&b)),
                        };
                    }
                }
            }
            Stmt::While(cond, body, span) => {
                // Widen every variable the body assigns before judging
                // the condition, so induction variables don't look
                // constant on the first lap.
                widen_assigned(body, env);
                let c = self.eval(cond, env);
                if c == AbsVal::Bool(Some(true)) && !block_returns(body) {
                    self.push(
                        Diagnostic::error(
                            "PIL104",
                            "`while` condition is constantly true and the body never returns: the loop cannot terminate",
                        )
                        .with_pos(span.line, span.col)
                        .with_note("the runtime's step budget will abort the evaluation"),
                    );
                }
                self.run_block(body, env, ret);
                widen_assigned(body, env);
            }
            Stmt::For(var, iter, body, _) => {
                let it = self.eval(iter, env);
                if let AbsVal::ListOf { elem, len } = &it {
                    let len = Interval {
                        lo: len.lo.max(0.0),
                        hi: len.hi.max(0.0),
                    };
                    if let Some(deltas) = self.for_summary(var, elem, body, env) {
                        // Summarized bodies contain no `return`, so `ret`
                        // is untouched; diagnostics still come from one
                        // ordinary pass in a scratch env (per-iteration
                        // state must not leak into the post-loop env).
                        let mut scratch = env.clone();
                        scratch.insert(var.clone(), (**elem).clone());
                        let mut scratch_ret = ret.clone();
                        self.run_block(body, &mut scratch, &mut scratch_ret);
                        for (x, d) in deltas {
                            let start = env
                                .get(&x)
                                .map(|v| v.as_interval())
                                .unwrap_or(Interval::NONNEG);
                            env.insert(x, AbsVal::Num(start.add(len.mul(d))));
                        }
                        return;
                    }
                }
                widen_assigned(body, env);
                env.insert(var.clone(), AbsVal::Any);
                self.run_block(body, env, ret);
                widen_assigned(body, env);
            }
            Stmt::Expr(e, _) => {
                self.eval(e, env);
            }
        }
    }

    fn eval(&mut self, e: &Expr, env: &Env) -> AbsVal {
        match e {
            Expr::Num(n, _) => AbsVal::Num(Interval::point(*n)),
            Expr::Bool(b, _) => AbsVal::Bool(Some(*b)),
            Expr::Str(..) | Expr::List(..) | Expr::Record(..) => AbsVal::Any,
            Expr::Var(name, _) => env
                .get(name)
                .or_else(|| self.consts.get(name))
                .cloned()
                .unwrap_or(AbsVal::Any),
            Expr::Field(base, name, _) => {
                let b = self.eval(base, env);
                b.field(name)
            }
            Expr::Index(base, idx, _) => {
                let b = self.eval(base, env);
                self.eval(idx, env);
                match b {
                    AbsVal::ListOf { elem, .. } => (*elem).clone(),
                    _ => AbsVal::Any,
                }
            }
            Expr::Unary(op, inner, _) => {
                let v = self.eval(inner, env);
                match op {
                    UnOp::Neg => AbsVal::Num(v.as_interval().neg()),
                    UnOp::Not => match v {
                        AbsVal::Bool(b) => AbsVal::Bool(b.map(|b| !b)),
                        _ => AbsVal::Bool(None),
                    },
                }
            }
            Expr::Binary(op, l, r, span) => {
                let lv = self.eval(l, env);
                let rv = self.eval(r, env);
                self.eval_binary(*op, &lv, &rv, *span)
            }
            Expr::Call(name, args, span) => {
                let avs: Vec<AbsVal> = args.iter().map(|a| self.eval(a, env)).collect();
                self.eval_call(name, &avs, *span)
            }
        }
    }

    fn eval_binary(&mut self, op: BinOp, lv: &AbsVal, rv: &AbsVal, span: Span) -> AbsVal {
        use BinOp::*;
        match op {
            Add | Sub | Mul | Div | Rem => {
                let a = lv.as_interval();
                let b = rv.as_interval();
                if matches!(op, Div | Rem) && b == Interval::point(0.0) {
                    self.push(
                        Diagnostic::error(
                            "PIL101",
                            format!(
                                "{} by a divisor that is always zero",
                                if op == Div { "division" } else { "modulo" }
                            ),
                        )
                        .with_pos(span.line, span.col)
                        .with_note("the runtime yields infinity here, poisoning every prediction downstream"),
                    );
                }
                let res = match op {
                    Add => a.add(b),
                    Sub => a.sub(b),
                    Mul => a.mul(b),
                    Div => a.div(b),
                    _ => rem_interval(a, b),
                };
                if a.is_finite_point() && b.is_finite_point() && !res.lo.is_finite() {
                    self.push(
                        Diagnostic::warning(
                            "PIL107",
                            format!(
                                "constant arithmetic overflows: {} and {} produce a non-finite result",
                                a.lo, b.lo
                            ),
                        )
                        .with_pos(span.line, span.col),
                    );
                }
                AbsVal::Num(res)
            }
            Lt | Le | Gt | Ge => {
                let a = lv.as_interval();
                let b = rv.as_interval();
                let (a, b, strict) = match op {
                    Lt => (a, b, true),
                    Le => (a, b, false),
                    Gt => (b, a, true),
                    _ => (b, a, false),
                };
                // Now deciding `a < b` (or `a <= b`).
                let known = if strict {
                    if a.hi < b.lo {
                        Some(true)
                    } else if a.lo >= b.hi {
                        Some(false)
                    } else {
                        None
                    }
                } else if a.hi <= b.lo {
                    Some(true)
                } else if a.lo > b.hi {
                    Some(false)
                } else {
                    None
                };
                AbsVal::Bool(known)
            }
            Eq | Ne => {
                let known = match (lv, rv) {
                    (AbsVal::Num(a), AbsVal::Num(b)) => {
                        if a.is_finite_point() && *a == *b {
                            Some(true)
                        } else if a.hi < b.lo || b.hi < a.lo {
                            Some(false)
                        } else {
                            None
                        }
                    }
                    (AbsVal::Bool(Some(a)), AbsVal::Bool(Some(b))) => Some(a == b),
                    _ => None,
                };
                AbsVal::Bool(match op {
                    Eq => known,
                    _ => known.map(|k| !k),
                })
            }
            And => match (truthy(lv), truthy(rv)) {
                (Some(false), _) | (_, Some(false)) => AbsVal::Bool(Some(false)),
                (Some(true), Some(true)) => AbsVal::Bool(Some(true)),
                _ => AbsVal::Bool(None),
            },
            Or => match (truthy(lv), truthy(rv)) {
                (Some(true), _) | (_, Some(true)) => AbsVal::Bool(Some(true)),
                (Some(false), Some(false)) => AbsVal::Bool(Some(false)),
                _ => AbsVal::Bool(None),
            },
        }
    }

    fn eval_call(&mut self, name: &str, args: &[AbsVal], span: Span) -> AbsVal {
        // Builtins get precise transfer functions where cheap.
        let iv = |i: usize| {
            args.get(i)
                .map(|a| a.as_interval())
                .unwrap_or(Interval::FULL)
        };
        match name {
            "ceil" => return AbsVal::Num(iv(0).map(f64::ceil)),
            "floor" => return AbsVal::Num(iv(0).map(f64::floor)),
            "round" => return AbsVal::Num(iv(0).map(f64::round)),
            "abs" => {
                let a = iv(0);
                return AbsVal::Num(if a.lo >= 0.0 {
                    a
                } else if a.hi <= 0.0 {
                    a.neg()
                } else {
                    Interval {
                        lo: 0.0,
                        hi: a.hi.max(-a.lo),
                    }
                });
            }
            "min" | "max" => {
                let mut acc = iv(0);
                for i in 1..args.len().max(1) {
                    let b = iv(i);
                    acc = if name == "min" {
                        Interval {
                            lo: acc.lo.min(b.lo),
                            hi: acc.hi.min(b.hi),
                        }
                    } else {
                        Interval {
                            lo: acc.lo.max(b.lo),
                            hi: acc.hi.max(b.hi),
                        }
                    };
                }
                return AbsVal::Num(acc);
            }
            "sqrt" => {
                let a = iv(0);
                return AbsVal::Num(Interval {
                    lo: a.lo.max(0.0).sqrt(),
                    hi: a.hi.max(0.0).sqrt(),
                });
            }
            "pow" => {
                let (a, b) = (iv(0), iv(1));
                if a.is_finite_point() && b.is_finite_point() {
                    let r = a.lo.powf(b.lo);
                    if !r.is_finite() {
                        self.push(
                            Diagnostic::warning(
                                "PIL107",
                                format!("constant `pow({}, {})` is non-finite", a.lo, b.lo),
                            )
                            .with_pos(span.line, span.col),
                        );
                    }
                    return AbsVal::Num(Interval::point(r));
                }
                return AbsVal::Num(if a.lo >= 0.0 {
                    Interval::NONNEG
                } else {
                    Interval::FULL
                });
            }
            "log2" => {
                let a = iv(0);
                return AbsVal::Num(if a.lo > 0.0 {
                    Interval {
                        lo: a.lo.log2(),
                        hi: a.hi.log2(),
                    }
                } else {
                    Interval::FULL
                });
            }
            "len" => {
                return AbsVal::Num(match args.first() {
                    Some(AbsVal::ListOf { len, .. }) => *len,
                    _ => Interval::NONNEG,
                })
            }
            "sum" => {
                return AbsVal::Num(match args.first() {
                    // Sum of `k` values each inside the element interval,
                    // `k` inside the length interval: the interval product
                    // covers every combination (including the empty sum).
                    Some(AbsVal::ListOf { elem, len }) => len.mul(elem.as_interval()),
                    _ => Interval::FULL,
                });
            }
            "num" => {
                // num(bool) yields 0 or 1; num(number) is the identity.
                return AbsVal::Num(match args.first() {
                    Some(AbsVal::Bool(Some(b))) => Interval::point(f64::from(*b)),
                    Some(AbsVal::Bool(None)) => Interval { lo: 0.0, hi: 1.0 },
                    Some(AbsVal::Num(a)) => *a,
                    _ => Interval::FULL,
                });
            }
            _ => {}
        }
        // User function: inline unless recursive or too deep.
        let Some(f) = self.prog.function(name) else {
            return AbsVal::Any;
        };
        if self.stack.len() > INLINE_DEPTH || self.stack.iter().any(|s| s == name) {
            return AbsVal::Any;
        }
        let env: Env = f
            .params
            .iter()
            .zip(args.iter().cloned().chain(std::iter::repeat(AbsVal::Any)))
            .map(|(p, a)| (p.clone(), a))
            .collect();
        self.stack.push(name.to_string());
        let was = std::mem::replace(&mut self.report, false);
        let ret = self.run_fn(f, env);
        self.report = was;
        self.stack.pop();
        ret
    }

    /// Attempts to summarize a `for` body as per-iteration interval
    /// deltas: every write must be an accumulation `x = x + d` (in
    /// either operand order) whose delta `d` reads no accumulated
    /// variable; `if` branches hull their branch sums; `let` locals
    /// are allowed. Returns `None` (the caller falls back to widening)
    /// for any other shape — `while`/`for`/`return` in the body,
    /// non-additive writes, or self-referential deltas.
    fn for_summary(
        &mut self,
        var: &str,
        elem: &AbsVal,
        body: &[Stmt],
        env: &Env,
    ) -> Option<Vec<(String, Interval)>> {
        let mut acc = HashSet::new();
        collect_assigned(body, &mut acc);
        if acc.is_empty() || acc.contains(var) {
            return None;
        }
        let mut denv = env.clone();
        for x in &acc {
            denv.remove(x);
        }
        denv.insert(var.to_string(), elem.clone());
        // Diagnostics come from the caller's scratch pass; suppress
        // them here so nothing is double-reported.
        let was = std::mem::replace(&mut self.report, false);
        let out = self.path_deltas(body, &mut denv, &acc);
        self.report = was;
        out.map(|m| m.into_iter().collect())
    }

    /// Per-variable interval sum of the accumulation deltas along one
    /// straight-line path: sequential deltas add, `if` alternatives
    /// hull (a conditionally-skipped accumulation contributes 0).
    fn path_deltas(
        &mut self,
        stmts: &[Stmt],
        denv: &mut Env,
        acc: &HashSet<String>,
    ) -> Option<HashMap<String, Interval>> {
        let zero = Interval::point(0.0);
        let mut out: HashMap<String, Interval> = HashMap::new();
        for s in stmts {
            match s {
                Stmt::Let(name, e, _) => {
                    if acc.contains(name) || expr_mentions(e, acc) {
                        return None;
                    }
                    let v = self.eval(e, denv);
                    denv.insert(name.clone(), v);
                }
                Stmt::Assign(x, e, _) => {
                    let d = match e {
                        Expr::Binary(BinOp::Add, l, r, _) => {
                            if matches!(&**l, Expr::Var(v, _) if v == x) {
                                r
                            } else if matches!(&**r, Expr::Var(v, _) if v == x) {
                                l
                            } else {
                                return None;
                            }
                        }
                        _ => return None,
                    };
                    if expr_mentions(d, acc) {
                        return None;
                    }
                    let dv = self.eval(d, denv).as_interval();
                    let cur = out.get(x).copied().unwrap_or(zero);
                    out.insert(x.clone(), cur.add(dv));
                }
                Stmt::If(c, a, b, _) => {
                    if expr_mentions(c, acc) {
                        return None;
                    }
                    self.eval(c, denv);
                    let da = self.path_deltas(a, &mut denv.clone(), acc)?;
                    let db = self.path_deltas(b, &mut denv.clone(), acc)?;
                    let keys: HashSet<&String> = da.keys().chain(db.keys()).collect();
                    for k in keys {
                        let d = da
                            .get(k)
                            .copied()
                            .unwrap_or(zero)
                            .hull(db.get(k).copied().unwrap_or(zero));
                        let cur = out.get(k.as_str()).copied().unwrap_or(zero);
                        out.insert((*k).clone(), cur.add(d));
                    }
                }
                Stmt::Expr(e, _) => {
                    if expr_mentions(e, acc) {
                        return None;
                    }
                    self.eval(e, denv);
                }
                Stmt::Return(..) | Stmt::While(..) | Stmt::For(..) => return None,
            }
        }
        Some(out)
    }
}

/// Variables written by `=` assignment anywhere in `stmts`.
fn collect_assigned(stmts: &[Stmt], out: &mut HashSet<String>) {
    for s in stmts {
        match s {
            Stmt::Assign(name, _, _) => {
                out.insert(name.clone());
            }
            Stmt::If(_, a, b, _) => {
                collect_assigned(a, out);
                collect_assigned(b, out);
            }
            Stmt::For(_, _, body, _) | Stmt::While(_, body, _) => collect_assigned(body, out),
            Stmt::Let(..) | Stmt::Return(..) | Stmt::Expr(..) => {}
        }
    }
}

/// Whether `e` reads any variable in `names`.
fn expr_mentions(e: &Expr, names: &HashSet<String>) -> bool {
    match e {
        Expr::Var(name, _) => names.contains(name),
        Expr::Field(b, _, _) => expr_mentions(b, names),
        Expr::Index(b, i, _) => expr_mentions(b, names) || expr_mentions(i, names),
        Expr::Unary(_, inner, _) => expr_mentions(inner, names),
        Expr::Binary(_, l, r, _) => expr_mentions(l, names) || expr_mentions(r, names),
        Expr::Call(_, args, _) => args.iter().any(|a| expr_mentions(a, names)),
        Expr::List(items, _) => items.iter().any(|i| expr_mentions(i, names)),
        Expr::Record(fs, _) => fs.iter().any(|(_, v)| expr_mentions(v, names)),
        Expr::Num(..) | Expr::Str(..) | Expr::Bool(..) => false,
    }
}

fn truthy(v: &AbsVal) -> Option<bool> {
    match v {
        AbsVal::Bool(b) => *b,
        AbsVal::Num(i) if i.is_finite_point() => Some(i.lo != 0.0),
        _ => None,
    }
}

fn rem_interval(a: Interval, b: Interval) -> Interval {
    if a.is_finite_point() && b.is_finite_point() && b.lo != 0.0 {
        return Interval::point(a.lo % b.lo);
    }
    if a.lo >= 0.0 {
        // f64 remainder keeps the dividend's sign and magnitude bound.
        Interval { lo: 0.0, hi: a.hi }
    } else {
        Interval::FULL
    }
}

fn join_env(into: &mut Env, other: &Env) {
    let keys: Vec<String> = into.keys().cloned().collect();
    for k in keys {
        match other.get(&k) {
            Some(v) => {
                let j = into[&k].join(v);
                into.insert(k, j);
            }
            None => {
                into.insert(k, AbsVal::Any);
            }
        }
    }
    for (k, _) in other.iter() {
        into.entry(k.clone()).or_insert(AbsVal::Any);
    }
}

/// Widens every variable assigned anywhere in `stmts` to "unknown".
fn widen_assigned(stmts: &[Stmt], env: &mut Env) {
    for s in stmts {
        match s {
            Stmt::Let(name, _, _) | Stmt::Assign(name, _, _) => {
                env.insert(name.clone(), AbsVal::Any);
            }
            Stmt::If(_, a, b, _) => {
                widen_assigned(a, env);
                widen_assigned(b, env);
            }
            Stmt::For(var, _, body, _) => {
                env.insert(var.clone(), AbsVal::Any);
                widen_assigned(body, env);
            }
            Stmt::While(_, body, _) => widen_assigned(body, env),
            Stmt::Return(..) | Stmt::Expr(..) => {}
        }
    }
}

/// Whether any statement in the block (transitively) is a `return`.
fn block_returns(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Return(..) => true,
        Stmt::If(_, a, b, _) => block_returns(a) || block_returns(b),
        Stmt::For(_, _, body, _) | Stmt::While(_, body, _) => block_returns(body),
        _ => false,
    })
}

/// PIL103: statements after a `return` in the same block.
fn unreachable_after_return(stmts: &[Stmt], out: &mut Diagnostics) {
    let mut returned = false;
    for s in stmts {
        if returned {
            let span = stmt_span(s);
            out.push(
                Diagnostic::warning("PIL103", "unreachable statement after `return`")
                    .with_pos(span.line, span.col),
            );
            break; // one report per block is enough
        }
        match s {
            Stmt::Return(..) => returned = true,
            Stmt::If(_, a, b, _) => {
                unreachable_after_return(a, out);
                unreachable_after_return(b, out);
            }
            Stmt::For(_, _, body, _) | Stmt::While(_, body, _) => {
                unreachable_after_return(body, out);
            }
            _ => {}
        }
    }
}

fn stmt_span(s: &Stmt) -> Span {
    match s {
        Stmt::Let(_, _, sp)
        | Stmt::Assign(_, _, sp)
        | Stmt::Return(_, sp)
        | Stmt::If(_, _, _, sp)
        | Stmt::For(_, _, _, sp)
        | Stmt::While(_, _, sp)
        | Stmt::Expr(_, sp) => *sp,
    }
}

// ---------------------------------------------------------------------
// Monotonicity probing (PIL108)
// ---------------------------------------------------------------------

/// Field names treated as workload *sizes*: predicted latency must not
/// decrease as one of these grows (with everything else held fixed).
fn is_size_like(field: &str) -> bool {
    const HINTS: [&str; 10] = [
        "size", "count", "bytes", "len", "writes", "fields", "blocks", "ops", "macs", "items",
    ];
    field == "n" || HINTS.iter().any(|h| field.contains(h))
}

#[derive(Clone, Copy, PartialEq)]
enum FieldKind {
    Scalar,
    List,
}

/// Probes every single-parameter `latency_*` function on a geometric
/// grid over each size-like field and reports strict decreases.
fn monotonicity(prog: &Program, out: &mut Diagnostics) {
    let Ok(consts) = eval_consts(prog, Limits::default()) else {
        return;
    };
    let consts = Rc::new(consts);
    for f in &prog.functions {
        if !is_latency_fn(&f.name) || f.params.len() != 1 {
            continue;
        }
        let mut fields: HashMap<String, FieldKind> = HashMap::new();
        let mut visited = HashSet::new();
        collect_fields(prog, f, &f.params[0], &mut fields, &mut visited);
        let size_fields: Vec<&String> = fields
            .iter()
            .filter(|(name, kind)| **kind == FieldKind::Scalar && is_size_like(name))
            .map(|(name, _)| name)
            .collect();
        for probe_field in size_fields {
            let eval_at = |x: f64| -> Option<f64> {
                let rec = Value::record_owned(fields.iter().map(|(name, kind)| {
                    let v = match kind {
                        FieldKind::List => Value::list(Vec::new()),
                        FieldKind::Scalar if name == probe_field => Value::num(x),
                        FieldKind::Scalar => Value::num(FIXED_FIELD),
                    };
                    (name.clone(), v)
                }));
                Interp::with_consts(prog, Limits::default(), Rc::clone(&consts))
                    .call(&f.name, &[rec])
                    .ok()
                    .and_then(|v| v.as_num())
                    .filter(|n| n.is_finite())
            };
            let ys: Vec<(f64, f64)> = PROBES
                .iter()
                .filter_map(|&x| eval_at(x).map(|y| (x, y)))
                .collect();
            if ys.len() < PROBES.len() {
                continue; // some probe failed to evaluate: inconclusive
            }
            if let Some(w) = ys.windows(2).find(|w| w[1].1 + 1e-6 < w[0].1) {
                out.push(
                    Diagnostic::warning(
                        "PIL108",
                        format!(
                            "`{}` is not monotone in `{}`: f({{{probe}: {}}}) = {} but f({{{probe}: {}}}) = {}",
                            f.name,
                            probe_field,
                            w[0].0,
                            w[0].1,
                            w[1].0,
                            w[1].1,
                            probe = probe_field,
                        ),
                    )
                    .with_pos(f.span.line, f.span.col)
                    .with_at(format!("fn `{}`", f.name))
                    .with_note("predicted latency decreased as the workload grew; check the formula's sign"),
                );
            }
        }
    }
}

/// Collects the fields read off `param` in `f`, transitively through
/// calls that forward the whole parameter. A field is list-typed if it
/// is iterated with `for` or passed to `len`/`sum`.
fn collect_fields(
    prog: &Program,
    f: &FnDecl,
    param: &str,
    fields: &mut HashMap<String, FieldKind>,
    visited: &mut HashSet<String>,
) {
    if !visited.insert(format!("{}#{param}", f.name)) {
        return;
    }
    fn walk_expr(
        prog: &Program,
        e: &Expr,
        param: &str,
        fields: &mut HashMap<String, FieldKind>,
        visited: &mut HashSet<String>,
    ) {
        match e {
            Expr::Field(base, name, _) => {
                if matches!(&**base, Expr::Var(v, _) if v == param) {
                    fields.entry(name.clone()).or_insert(FieldKind::Scalar);
                } else {
                    walk_expr(prog, base, param, fields, visited);
                }
            }
            Expr::Call(fname, args, _) => {
                if matches!(fname.as_str(), "len" | "sum") {
                    if let Some(Expr::Field(base, name, _)) = args.first() {
                        if matches!(&**base, Expr::Var(v, _) if v == param) {
                            fields.insert(name.clone(), FieldKind::List);
                        }
                    }
                }
                for (i, a) in args.iter().enumerate() {
                    if matches!(a, Expr::Var(v, _) if v == param) {
                        if let Some(g) = prog.function(fname) {
                            if let Some(p2) = g.params.get(i) {
                                collect_fields(prog, g, p2, fields, visited);
                            }
                        }
                    }
                    walk_expr(prog, a, param, fields, visited);
                }
            }
            Expr::List(items, _) => {
                for i in items {
                    walk_expr(prog, i, param, fields, visited);
                }
            }
            Expr::Record(fs, _) => {
                for (_, v) in fs {
                    walk_expr(prog, v, param, fields, visited);
                }
            }
            Expr::Index(b, i, _) => {
                walk_expr(prog, b, param, fields, visited);
                walk_expr(prog, i, param, fields, visited);
            }
            Expr::Unary(_, inner, _) => walk_expr(prog, inner, param, fields, visited),
            Expr::Binary(_, l, r, _) => {
                walk_expr(prog, l, param, fields, visited);
                walk_expr(prog, r, param, fields, visited);
            }
            Expr::Num(..) | Expr::Str(..) | Expr::Bool(..) | Expr::Var(..) => {}
        }
    }
    fn walk_stmt(
        prog: &Program,
        s: &Stmt,
        param: &str,
        fields: &mut HashMap<String, FieldKind>,
        visited: &mut HashSet<String>,
    ) {
        match s {
            Stmt::Let(_, e, _) | Stmt::Assign(_, e, _) | Stmt::Return(e, _) | Stmt::Expr(e, _) => {
                walk_expr(prog, e, param, fields, visited)
            }
            Stmt::If(c, a, b, _) => {
                walk_expr(prog, c, param, fields, visited);
                for s in a.iter().chain(b) {
                    walk_stmt(prog, s, param, fields, visited);
                }
            }
            Stmt::For(_, it, body, _) => {
                if let Expr::Field(base, name, _) = it {
                    if matches!(&**base, Expr::Var(v, _) if v == param) {
                        fields.insert(name.clone(), FieldKind::List);
                    }
                }
                walk_expr(prog, it, param, fields, visited);
                for s in body {
                    walk_stmt(prog, s, param, fields, visited);
                }
            }
            Stmt::While(c, body, _) => {
                walk_expr(prog, c, param, fields, visited);
                for s in body {
                    walk_stmt(prog, s, param, fields, visited);
                }
            }
        }
    }
    for s in &f.body {
        walk_stmt(prog, s, param, fields, visited);
    }
}

// ---------------------------------------------------------------------
// Workload boxes and bound extraction (perf-xcheck layer 1)
// ---------------------------------------------------------------------

/// A *workload box*: the abstract shape of every workload an
/// accelerator declares it accepts. Scalars are intervals, lists carry
/// an element box plus a length interval, and records mirror the
/// workload's field structure. [`bound_fn`] evaluates a `.pi` function
/// over a box and returns a guaranteed enclosure of its result.
#[derive(Clone, Debug, PartialEq)]
pub enum BoxVal {
    /// A scalar feature constrained to an interval.
    Num(Interval),
    /// A list whose every element fits `elem` and whose length lies in
    /// `len`.
    List {
        /// Box every element is drawn from.
        elem: Box<BoxVal>,
        /// Interval the list length lies in (clamped to `>= 0`).
        len: Interval,
    },
    /// A record with per-field boxes, in declaration order.
    Record(Vec<(String, BoxVal)>),
}

impl BoxVal {
    /// Scalar box `[lo, hi]`.
    pub fn num(lo: f64, hi: f64) -> BoxVal {
        BoxVal::Num(Interval::new(lo, hi))
    }

    /// Scalar box pinned to a single value.
    pub fn point(v: f64) -> BoxVal {
        BoxVal::Num(Interval::point(v))
    }

    /// List box with element shape `elem` and length in `[lo, hi]`.
    pub fn list(elem: BoxVal, lo: f64, hi: f64) -> BoxVal {
        BoxVal::List {
            elem: Box::new(elem),
            len: Interval::new(lo, hi),
        }
    }

    /// Record box from `(field, box)` pairs.
    pub fn record(fields: impl IntoIterator<Item = (&'static str, BoxVal)>) -> BoxVal {
        BoxVal::Record(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Returns the box for `name` if this is a record containing it.
    pub fn field(&self, name: &str) -> Option<&BoxVal> {
        match self {
            BoxVal::Record(fs) => fs.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Replaces (or appends) the box for record field `name`. No-op on
    /// non-records. Used to narrow a box to a pipeline stage's fixed
    /// fields or to sweep one claim axis.
    pub fn with_field(mut self, name: &str, val: BoxVal) -> BoxVal {
        if let BoxVal::Record(fs) = &mut self {
            if let Some(slot) = fs.iter_mut().find(|(k, _)| k == name) {
                slot.1 = val;
            } else {
                fs.push((name.to_string(), val));
            }
        }
        self
    }

    /// Concretizes the box into one runtime [`Value`]: scalars take
    /// `lo + t * (hi - lo)` for `t` in `[0, 1]`, list lengths round the
    /// interpolated length, records recurse. Returns `None` when any
    /// bound involved is infinite — such boxes abstract fine but cannot
    /// be sampled. Used by the xcheck NL probes to test claims with the
    /// concrete interpreter, no simulation involved.
    pub fn sample(&self, t: f64) -> Option<Value> {
        let t = t.clamp(0.0, 1.0);
        match self {
            BoxVal::Num(iv) => {
                if !iv.is_finite() {
                    return None;
                }
                Some(Value::num(iv.lo + t * (iv.hi - iv.lo)))
            }
            BoxVal::List { elem, len } => {
                if !len.is_finite() {
                    return None;
                }
                let n = (len.lo + t * (len.hi - len.lo)).round().max(0.0) as usize;
                let item = elem.sample(t)?;
                Some(Value::list(vec![item; n]))
            }
            BoxVal::Record(fs) => {
                let mut out = Vec::with_capacity(fs.len());
                for (k, v) in fs {
                    out.push((k.clone(), v.sample(t)?));
                }
                Some(Value::record_owned(out))
            }
        }
    }
}

/// Converts a box to the analyzer's abstract domain.
fn absval_of_box(b: &BoxVal) -> AbsVal {
    match b {
        BoxVal::Num(iv) => AbsVal::Num(*iv),
        BoxVal::List { elem, len } => AbsVal::ListOf {
            elem: Rc::new(absval_of_box(elem)),
            len: Interval {
                lo: len.lo.max(0.0),
                hi: len.hi.max(0.0),
            },
        },
        BoxVal::Record(fs) => AbsVal::Rec(Rc::new(
            fs.iter()
                .map(|(k, v)| (k.clone(), absval_of_box(v)))
                .collect(),
        )),
    }
}

/// Evaluates function `fname` of `prog` abstractly with its single
/// workload parameter bound to `arg`, returning a guaranteed interval
/// enclosure of every value the function can return for workloads
/// inside the box. Errors if the function is missing or does not take
/// exactly one parameter; a function that provably never returns a
/// number yields an error rather than a silent `FULL`.
pub fn bound_fn(prog: &Program, fname: &str, arg: &BoxVal) -> Result<Interval, String> {
    bound_call(prog, fname, std::slice::from_ref(arg))
}

/// Multi-argument form of [`bound_fn`]: each parameter is bound to the
/// corresponding box. Used for the generated `.pnet` delay wrappers
/// `__delay(t, ts)`, which take the token payload and the payload list.
pub fn bound_call(prog: &Program, fname: &str, args: &[BoxVal]) -> Result<Interval, String> {
    let f = prog
        .functions
        .iter()
        .find(|f| f.name == fname)
        .ok_or_else(|| format!("no function `{fname}` in program"))?;
    if f.params.len() != args.len() {
        return Err(format!(
            "`{fname}` takes {} parameters but {} boxes were supplied",
            f.params.len(),
            args.len()
        ));
    }
    let consts = const_env(prog);
    let mut sink = Diagnostics::new();
    let mut az = Analyzer {
        prog,
        consts: &consts,
        out: &mut sink,
        report: false,
        stack: vec![f.name.clone()],
    };
    let env: Env = f
        .params
        .iter()
        .zip(args)
        .map(|(p, b)| (p.clone(), absval_of_box(b)))
        .collect();
    match az.run_fn(f, env) {
        AbsVal::Num(iv) => Ok(iv),
        AbsVal::Bool(_) => Err(format!("`{fname}` returns a boolean, not a latency")),
        _ => Ok(Interval::NONNEG),
    }
}

/// Convenience wrapper: parses `src` and runs [`bound_fn`]. Parse
/// failures surface as the error string.
pub fn bound_src(src: &str, fname: &str, arg: &BoxVal) -> Result<Interval, String> {
    let ast = crate::lexer::lex(src)
        .and_then(|t| crate::parser::parse(&t))
        .map_err(|e| e.to_string())?;
    bound_fn(&ast, fname, arg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use perf_core::Severity;

    fn lint_src(src: &str) -> Diagnostics {
        lint(&parse(&lex(src).unwrap()).unwrap())
    }

    #[test]
    fn clean_program_has_no_findings() {
        let ds = lint_src(
            "const M = 10;\nfn latency_x(w) { return M + w.size * 2; }\nfn tput_x(w) { return 1 / latency_x(w); }",
        );
        assert_eq!(ds.count(Severity::Error), 0, "{}", ds.render());
        assert_eq!(ds.count(Severity::Warning), 0, "{}", ds.render());
    }

    #[test]
    fn division_by_constant_zero_flagged() {
        let ds = lint_src("fn f(w) { return w.size / 0; }");
        assert!(ds.has_code("PIL101"), "{}", ds.render());
        // Dividing by an unknown field is fine: it is not *provably* 0.
        let ds = lint_src("fn f(w) { return w.size / w.rate; }");
        assert!(!ds.has_code("PIL101"), "{}", ds.render());
    }

    #[test]
    fn division_by_zero_const_chain_flagged() {
        let ds = lint_src("const A = 4;\nconst B = A - 4;\nfn f(w) { return w.size / B; }");
        assert!(ds.has_code("PIL101"), "{}", ds.render());
    }

    #[test]
    fn dead_branch_flagged() {
        let ds = lint_src("fn f(w) { if 1 > 2 { return 0; } else { return w.size; } }");
        assert!(ds.has_code("PIL102"), "{}", ds.render());
        let ds = lint_src("fn f(w) { if w.size > 2 { return 0; } else { return 1; } }");
        assert!(!ds.has_code("PIL102"), "{}", ds.render());
    }

    #[test]
    fn unreachable_after_return_flagged() {
        let ds = lint_src("fn f(w) { return w.size; let x = 1; }");
        assert!(ds.has_code("PIL103"), "{}", ds.render());
    }

    #[test]
    fn nonterminating_while_flagged() {
        let ds = lint_src("fn f(w) { let x = 0; while true { x = x + w.size; } return x; }");
        assert!(ds.has_code("PIL104"), "{}", ds.render());
        // A return inside the loop makes it terminable.
        let ds = lint_src("fn f(w) { while true { return w.size; } return 0; }");
        assert!(!ds.has_code("PIL104"), "{}", ds.render());
        // An induction variable is not "constantly true".
        let ds = lint_src("fn f(w) { let i = 0; while i < w.size { i = i + 1; } return i; }");
        assert!(!ds.has_code("PIL104"), "{}", ds.render());
    }

    #[test]
    fn provably_negative_latency_flagged() {
        let ds = lint_src("fn latency_bad(w) { return 0 - 5 - w.size; }");
        assert!(ds.has_code("PIL105"), "{}", ds.render());
        // Could be positive for small sizes: not provable, not flagged.
        let ds = lint_src("fn latency_ok(w) { return 100 - w.size; }");
        assert!(!ds.has_code("PIL105"), "{}", ds.render());
    }

    #[test]
    fn constant_overflow_flagged() {
        let ds = lint_src("fn f(w) { return w.size * pow(10, 400); }");
        assert!(ds.has_code("PIL107"), "{}", ds.render());
    }

    #[test]
    fn monotonicity_violation_flagged() {
        let ds = lint_src("fn latency_dec(w) { return 100000 - w.size * 2; }");
        assert!(ds.has_code("PIL108"), "{}", ds.render());
        let d = ds.find("PIL108").unwrap();
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn monotone_latency_not_flagged() {
        let ds = lint_src(
            "fn latency_inc(w) { return 100 + w.size / w.rate; }\nfn min_latency_q(w) { return w.count * 3; }",
        );
        assert!(!ds.has_code("PIL108"), "{}", ds.render());
    }

    #[test]
    fn recursive_program_lints_without_diverging() {
        let ds = lint_src(
            "fn read_cost(m) { let c = 0; for s in m.subs { c = c + read_cost(s); } return c + 6; }\nfn max_latency_r(m) { return read_cost(m) + m.wire_bytes / 16; }",
        );
        assert_eq!(ds.count(Severity::Error), 0, "{}", ds.render());
        assert_eq!(ds.count(Severity::Warning), 0, "{}", ds.render());
    }

    #[test]
    fn inlined_callee_findings_not_duplicated() {
        // `bad` divides by zero; calling it twice must not triple-report.
        let ds = lint_src("fn bad(w) { return w.size / 0; }\nfn f(w) { return bad(w) + bad(w); }");
        let n = ds.items().iter().filter(|d| d.code == "PIL101").count();
        assert_eq!(n, 1, "{}", ds.render());
    }

    #[test]
    fn lint_src_reports_syntax_errors_as_diagnostics() {
        let ds = crate::lint::lint_src("broken.pi", "fn f( { return 1; }");
        assert!(ds.has_code("PIL012"), "{}", ds.render());
        assert_eq!(ds.find("PIL012").unwrap().origin, "broken.pi");
        // Checker and analyzer findings both flow through, with origin.
        let ds = crate::lint::lint_src("w.pi", "fn f(a, b) { return a / 0; }");
        assert!(ds.has_code("PIL009"), "{}", ds.render());
        assert!(ds.has_code("PIL101"), "{}", ds.render());
        assert!(ds.items().iter().all(|d| d.origin == "w.pi"));
    }

    #[test]
    fn codes_table_is_consistent() {
        let mut seen = std::collections::HashSet::new();
        for (code, desc) in CODES {
            assert!(seen.insert(code), "duplicate code {code}");
            assert!(code.starts_with("PIL"));
            assert!(!desc.is_empty());
        }
    }

    // -- bound extraction ---------------------------------------------

    #[test]
    fn bound_scalar_formula() {
        // jpeg-like affine formula over a scalar box.
        let b = BoxVal::record([
            ("size", BoxVal::num(100.0, 200.0)),
            ("rate", BoxVal::num(2.0, 4.0)),
        ]);
        let iv = bound_src(
            "fn latency_f(w) { return 50 + w.size / w.rate; }",
            "latency_f",
            &b,
        )
        .unwrap();
        assert_eq!(iv, Interval::new(75.0, 150.0));
    }

    #[test]
    fn bound_accumulation_loop_is_finite() {
        // The for-summary must give len * delta, not widen to +inf.
        let b = BoxVal::record([(
            "items",
            BoxVal::list(BoxVal::record([("cost", BoxVal::num(3.0, 5.0))]), 2.0, 10.0),
        )]);
        let iv = bound_src(
            "fn latency_f(w) { let t = 7; for x in w.items { t = t + x.cost; } return t; }",
            "latency_f",
            &b,
        )
        .unwrap();
        assert!(iv.is_finite(), "widened: {iv:?}");
        assert_eq!(iv, Interval::new(7.0 + 2.0 * 3.0, 7.0 + 10.0 * 5.0));
    }

    #[test]
    fn bound_conditional_accumulation_hulls_with_zero() {
        // A conditionally-skipped accumulation contributes [0, delta].
        let b = BoxVal::record([(
            "items",
            BoxVal::list(BoxVal::record([("big", BoxVal::num(0.0, 1.0))]), 4.0, 4.0),
        )]);
        let iv = bound_src(
            "fn latency_f(w) { let t = 0; for x in w.items { if x.big > 0 { t = t + 10; } } return t; }",
            "latency_f",
            &b,
        )
        .unwrap();
        assert_eq!(iv, Interval::new(0.0, 40.0));
    }

    #[test]
    fn bound_len_and_sum_builtins() {
        let b = BoxVal::record([("items", BoxVal::list(BoxVal::num(1.0, 2.0), 3.0, 5.0))]);
        let iv = bound_src(
            "fn latency_f(w) { return len(w.items) * 4 + sum(w.items); }",
            "latency_f",
            &b,
        )
        .unwrap();
        assert_eq!(
            iv,
            Interval::new(3.0 * 4.0 + 3.0 * 1.0, 5.0 * 4.0 + 5.0 * 2.0)
        );
    }

    #[test]
    fn bound_fn_rejects_bad_signatures() {
        let src = "fn two(a, b) { return a + b; }";
        let ast = parse(&lex(src).unwrap()).unwrap();
        assert!(bound_fn(&ast, "missing", &BoxVal::point(1.0)).is_err());
        assert!(bound_fn(&ast, "two", &BoxVal::point(1.0)).is_err());
    }

    #[test]
    fn bound_fn_does_not_emit_diagnostics() {
        // report=false: extraction must stay silent even over code that
        // would lint (dead branch under the box).
        let b = BoxVal::record([("size", BoxVal::num(1.0, 2.0))]);
        let iv = bound_src(
            "fn latency_f(w) { if w.size < 100 { return w.size; } return 1000; }",
            "latency_f",
            &b,
        )
        .unwrap();
        assert!(iv.lo >= 1.0 && iv.hi <= 1000.0, "{iv:?}");
    }

    #[test]
    fn box_sampling_concretizes_endpoints() {
        let b = BoxVal::record([
            ("size", BoxVal::num(10.0, 20.0)),
            ("items", BoxVal::list(BoxVal::point(1.0), 0.0, 4.0)),
        ]);
        let lo = b.sample(0.0).unwrap();
        let hi = b.sample(1.0).unwrap();
        assert_eq!(lo.field("size").unwrap().as_num(), Some(10.0));
        assert_eq!(hi.field("size").unwrap().as_num(), Some(20.0));
        assert_eq!(lo.field("items").unwrap().as_list().unwrap().len(), 0);
        assert_eq!(hi.field("items").unwrap().as_list().unwrap().len(), 4);
        // Unbounded boxes cannot be sampled.
        assert!(BoxVal::num(0.0, f64::INFINITY).sample(0.5).is_none());
    }

    #[test]
    fn sampled_values_fall_inside_extracted_bounds() {
        // Soundness spot-check: concrete runs at several box points must
        // land inside the abstract enclosure.
        let src = "fn latency_f(w) { let t = 12; for x in w.items { if x.kind > 0 { t = t + x.cost * 2; } else { t = t + x.cost; } } return t + w.size / 8; }";
        let b = BoxVal::record([
            ("size", BoxVal::num(64.0, 512.0)),
            (
                "items",
                BoxVal::list(
                    BoxVal::record([
                        ("kind", BoxVal::num(0.0, 1.0)),
                        ("cost", BoxVal::num(2.0, 9.0)),
                    ]),
                    1.0,
                    6.0,
                ),
            ),
        ]);
        let iv = bound_src(src, "latency_f", &b).unwrap();
        assert!(iv.is_finite(), "{iv:?}");
        let prog = crate::Program::parse(src).unwrap();
        for i in 0..=4 {
            let w = b.sample(i as f64 / 4.0).unwrap();
            let got = prog.call("latency_f", &[w]).unwrap().as_num().unwrap();
            assert!(
                iv.lo <= got && got <= iv.hi,
                "sample {i}: {got} outside {iv:?}"
            );
        }
    }
}
