//! Transition behaviors: delays, guards and output transforms.
//!
//! A behavior answers, for a set of consumed tokens: *may the transition
//! fire?* (guard), *how long does processing take?* (delay) and *what
//! tokens appear downstream?* (emit). Behaviors come in two flavors:
//! native Rust closures (used when a net is built programmatically) and
//! PIL expressions (used by `.pnet` text nets, so a net remains a
//! shippable artifact). An expression behavior has one evaluator, the
//! PIL interpreter: it is the spec, and the compiled stepper's slot
//! lowering (the private `compile` module) must return its values or
//! defer to it.

use crate::compile::{field_names, Lower};
use crate::token::Token;
use crate::PetriError;
use perf_iface_lang::interp::eval_consts;
use perf_iface_lang::lint::Interval;
use perf_iface_lang::{Interp, LangError, Limits, Program, Value};
use std::collections::HashMap;
use std::rc::Rc;

/// The outcome of firing a transition.
#[derive(Clone, Debug, PartialEq)]
pub struct Firing {
    /// Processing delay in cycles.
    pub delay: u64,
    /// One payload per output arc (the evaluator replicates per arc
    /// weight).
    pub outputs: Vec<Value>,
}

/// A native guard closure over the would-be-consumed tokens.
pub type GuardFn = Box<dyn Fn(&[Token]) -> bool>;
/// A native delay closure over the consumed tokens.
pub type DelayFn = Box<dyn Fn(&[Token]) -> u64>;
/// A native transform closure: one payload per output arc.
pub type TransformFn = Box<dyn Fn(&[Token]) -> Vec<Value>>;

/// A transition's behavior.
pub enum Behavior {
    /// Native closures.
    Native {
        /// Optional guard; `None` means always enabled.
        guard: Option<GuardFn>,
        /// Delay as a function of the consumed tokens.
        delay: DelayFn,
        /// Output payloads, one per output arc.
        transform: TransformFn,
    },
    /// PIL expressions compiled from `.pnet` text.
    Expr(ExprBehavior),
}

impl Behavior {
    /// Whether firing is conditioned on a guard. Guard-free transitions
    /// let the stepper consume input tokens by move instead of cloning
    /// them for a speculative guard evaluation.
    pub fn has_guard(&self) -> bool {
        match self {
            Behavior::Native { guard, .. } => guard.is_some(),
            Behavior::Expr(e) => e.has_guard,
        }
    }

    /// Evaluates the guard for candidate input tokens.
    pub fn guard(&self, inputs: &[Token]) -> Result<bool, PetriError> {
        match self {
            Behavior::Native { guard, .. } => Ok(guard.as_ref().is_none_or(|g| g(inputs))),
            Behavior::Expr(e) => e.guard(inputs),
        }
    }

    /// The delay, if it is provably constant: an expression behavior
    /// whose delay mentions neither `t` nor `ts`. Native closures are
    /// opaque, so they always return `None`. Used by the lint pass to
    /// find zero-delay cycles.
    pub fn const_delay(&self) -> Option<f64> {
        match self {
            Behavior::Native { .. } => None,
            Behavior::Expr(e) => e.const_fn_value("__delay").and_then(|v| v.as_num()),
        }
    }

    /// The guard's value, if it is provably constant (see
    /// [`Behavior::const_delay`]). `None` means "depends on tokens or
    /// unknowable"; guard-free transitions report `Some(true)`.
    pub fn const_guard(&self) -> Option<bool> {
        match self {
            Behavior::Native { guard, .. } => {
                if guard.is_none() {
                    Some(true)
                } else {
                    None
                }
            }
            Behavior::Expr(e) => {
                if !e.has_guard {
                    Some(true)
                } else {
                    e.const_fn_value("__guard").and_then(|v| v.as_bool())
                }
            }
        }
    }

    /// A guaranteed `[lo, hi]` enclosure of the delay for input tokens
    /// drawn from the box `tok`, via interval abstract interpretation
    /// of the `__delay` wrapper ([`perf_iface_lang::lint::bound_call`]
    /// with `t` bound to `tok` and `ts` to an unbounded list of such
    /// tokens). Native closures are opaque and enclose to `[0, +inf]`;
    /// so does any expression the abstract interpreter cannot pin down.
    /// The evaluators reject negative runtime delays, so the lower bound
    /// is clamped to `>= 0`.
    pub fn delay_interval(&self, tok: &perf_iface_lang::lint::BoxVal) -> Interval {
        use perf_iface_lang::lint::{bound_call, BoxVal};
        match self {
            Behavior::Native { .. } => Interval::NONNEG,
            Behavior::Expr(e) => {
                let ts = BoxVal::list(tok.clone(), 0.0, f64::INFINITY);
                match bound_call(e.prog.ast(), "__delay", &[tok.clone(), ts]) {
                    Ok(iv) => Interval::new(iv.lo.max(0.0), iv.hi.max(0.0)),
                    Err(_) => Interval::NONNEG,
                }
            }
        }
    }

    /// Computes the firing (delay and outputs) for consumed tokens.
    pub fn fire(&self, inputs: &[Token], n_outputs: usize) -> Result<Firing, PetriError> {
        match self {
            Behavior::Native {
                delay, transform, ..
            } => {
                let outs = transform(inputs);
                if outs.len() != n_outputs {
                    return Err(PetriError::Expr(format!(
                        "transform produced {} payloads for {} output arcs",
                        outs.len(),
                        n_outputs
                    )));
                }
                Ok(Firing {
                    delay: delay(inputs),
                    outputs: outs,
                })
            }
            Behavior::Expr(e) => e.fire(inputs, n_outputs),
        }
    }
}

/// PIL-expression behavior.
///
/// Expressions see two bindings: `t`, the payload of the first consumed
/// token, and `ts`, the list of all consumed payloads (so a join
/// transition can write `ts[1].bytes`). Net-level constants are visible
/// too. Each expression becomes a generated function `fn __delay(t, ts)
/// { return (EXPR); }` (likewise `__guard` and `__emit{i}` per output
/// arc), which the PIL interpreter evaluates: that is the behavior's
/// meaning, and the compiled stepper's slot lowering is held to it.
///
/// An error names the transition (for a `.pnet` net), the role
/// (`delay`, `guard` or `emit i`) and the position in the expression's
/// source, not in the generated wrapper.
pub struct ExprBehavior {
    prog: Program,
    /// The program's constants, evaluated once.
    consts: Rc<HashMap<String, Value>>,
    emits: Vec<bool>,
    has_guard: bool,
    origin: Origin,
}

/// One delay, guard or emit expression and where its text starts in
/// its source: 1-based line and byte column.
#[derive(Clone, Debug)]
pub(crate) struct ExprSrc {
    pub text: String,
    pub line: usize,
    pub col: usize,
}

impl ExprSrc {
    /// An expression that is its own source, at line 1, column 1.
    fn bare(text: &str) -> ExprSrc {
        ExprSrc {
            text: text.to_string(),
            line: 1,
            col: 1,
        }
    }
}

/// Where a behavior's generated wrappers come from, for error messages.
struct Origin {
    /// The transition's name; empty for a behavior built outside a
    /// `.pnet` net.
    trans: String,
    /// One entry per wrapper, in program order.
    sites: Vec<Site>,
}

/// One generated wrapper `fn NAME(t, ts) { return (EXPR); }`.
struct Site {
    /// The wrapper's name: `__delay`, `__guard` or `__emit{i}`.
    func: String,
    /// `delay`, `guard` or `emit i`.
    role: String,
    /// The wrapper's line in the generated program and the column its
    /// expression starts at there.
    gen: (usize, usize),
    /// The expression's line and start column in its source.
    src: (usize, usize),
}

impl Origin {
    /// `msg`, raised at source position `at` of `site`'s expression.
    fn msg(&self, site: &Site, at: (usize, usize), msg: &str) -> String {
        let who = if self.trans.is_empty() {
            site.role.clone()
        } else {
            format!("transition `{}` {}", self.trans, site.role)
        };
        format!("{who} at {}:{}: {msg}", at.0, at.1)
    }

    /// A failure of wrapper `func` that is not an interpreter error,
    /// placed at the start of its expression.
    fn role_err(&self, func: &str, msg: &str) -> PetriError {
        let site = self.site(func);
        PetriError::Expr(self.msg(site, site.src, msg))
    }

    /// An interpreter error raised running wrapper `func`, or, for
    /// `None`, compiling the program (the wrapper is then the one the
    /// error's position falls in), with the source line it points at.
    /// `None` when that position is in no wrapper (a constant's
    /// declaration).
    fn lang_err(&self, func: Option<&str>, e: &LangError) -> Option<(usize, String)> {
        let (span, msg) = match e {
            LangError::Runtime { span, msg } => (Some(span), msg.clone()),
            LangError::Lex { span, msg } => (Some(span), format!("lex error: {msg}")),
            LangError::Parse { span, msg } => (Some(span), format!("parse error: {msg}")),
            LangError::Check { span, msg } => (Some(span), format!("check error: {msg}")),
            LangError::LimitExceeded(msg) => (None, format!("limit exceeded: {msg}")),
        };
        let line = span.map_or(0, |s| s.line as usize);
        let site = match func {
            Some(f) => self.site(f),
            None => self.sites.iter().rev().find(|s| s.gen.0 <= line)?,
        };
        let at = match span {
            Some(s) if line == site.gen.0 && s.col as usize >= site.gen.1 => {
                (site.src.0, site.src.1 + s.col as usize - site.gen.1)
            }
            Some(s) if line > site.gen.0 => (site.src.0 + line - site.gen.0, s.col as usize),
            _ => site.src,
        };
        Some((at.0, self.msg(site, at, &msg)))
    }

    fn site(&self, func: &str) -> &Site {
        self.sites
            .iter()
            .find(|s| s.func == func)
            .expect("every called wrapper has a site")
    }
}

impl ExprBehavior {
    /// Compiles a behavior from expression sources.
    ///
    /// * `consts_src` — zero or more `const NAME = ...;` declarations.
    /// * `delay_src` — expression for the delay (cycles).
    /// * `guard_src` — optional boolean expression.
    /// * `emit_srcs` — one optional expression per output arc; `None`
    ///   passes the first input payload through unchanged.
    ///
    /// Error positions count from the start of each expression.
    pub fn compile(
        consts_src: &str,
        delay_src: &str,
        guard_src: Option<&str>,
        emit_srcs: &[Option<String>],
    ) -> Result<ExprBehavior, PetriError> {
        let emits: Vec<_> = emit_srcs
            .iter()
            .map(|e| e.as_deref().map(ExprSrc::bare))
            .collect();
        let (delay, guard) = (ExprSrc::bare(delay_src), guard_src.map(ExprSrc::bare));
        Self::compile_at("", consts_src, &delay, guard.as_ref(), &emits)
            .map_err(|(_, msg)| PetriError::Expr(msg))
    }

    /// [`Self::compile`] for transition `trans` of a `.pnet` net, whose
    /// expressions carry their `.pnet` positions. An error comes with
    /// the source line it points at, or `None` when it lies in the
    /// constants, which carry no positions.
    pub(crate) fn compile_at(
        trans: &str,
        consts_src: &str,
        delay: &ExprSrc,
        guard: Option<&ExprSrc>,
        emits: &[Option<ExprSrc>],
    ) -> Result<ExprBehavior, (Option<usize>, String)> {
        let mut src = String::new();
        src.push_str(consts_src);
        src.push('\n');
        let mut origin = Origin {
            trans: trans.to_string(),
            sites: Vec::new(),
        };
        let roles = [(delay, "__delay".to_string(), "delay".to_string())]
            .into_iter()
            .chain(guard.map(|g| (g, "__guard".to_string(), "guard".to_string())))
            .chain(emits.iter().enumerate().filter_map(|(i, e)| {
                Some((e.as_ref()?, format!("__emit{i}"), format!("emit {i}")))
            }));
        for (e, func, role) in roles {
            let head = format!("fn {func}(t, ts) {{ return (");
            origin.sites.push(Site {
                gen: (src.matches('\n').count() + 1, head.len() + 1),
                src: (e.line, e.col),
                func,
                role,
            });
            src.push_str(&head);
            src.push_str(&e.text);
            src.push_str("); }\n");
        }
        let fail = |e: LangError| match origin.lang_err(None, &e) {
            Some((line, msg)) => (Some(line), msg),
            None if trans.is_empty() => (None, e.to_string()),
            None => (None, format!("transition `{trans}`: {e}")),
        };
        let prog = Program::parse(&src).map_err(fail)?;
        let consts = Rc::new(eval_consts(prog.ast(), Limits::default()).map_err(fail)?);
        Ok(ExprBehavior {
            prog,
            consts,
            emits: emits.iter().map(Option::is_some).collect(),
            has_guard: guard.is_some(),
            origin,
        })
    }

    /// Evaluates compiled function `name` if its body provably does not
    /// depend on the consumed tokens (mentions neither `t` nor `ts`),
    /// returning the constant result. Evaluation failures (e.g. a
    /// division by zero inside constants) yield `None`.
    pub(crate) fn const_fn_value(&self, name: &str) -> Option<Value> {
        let f = self.prog.ast().function(name)?;
        if f.body.iter().any(stmt_mentions_inputs) {
            return None;
        }
        self.call(name, &Self::args(&[])).ok()
    }

    /// The bindings `t` and `ts` for consumed tokens `inputs` (`t` is
    /// the number 0 when there are none).
    fn args(inputs: &[Token]) -> [Value; 2] {
        let first = inputs
            .first()
            .map(|t| t.data.clone())
            .unwrap_or(Value::num(0.0));
        let all = Value::list(inputs.iter().map(|t| t.data.clone()).collect());
        [first, all]
    }

    /// Calls generated function `name` through the interpreter.
    fn call(&self, name: &str, args: &[Value; 2]) -> Result<Value, PetriError> {
        Interp::with_consts(self.prog.ast(), Limits::default(), Rc::clone(&self.consts))
            .call(name, args)
            .map_err(|e| {
                let (_, msg) = self
                    .origin
                    .lang_err(Some(name), &e)
                    .expect("a named wrapper has a site");
                PetriError::Expr(msg)
            })
    }

    fn guard(&self, inputs: &[Token]) -> Result<bool, PetriError> {
        if !self.has_guard {
            return Ok(true);
        }
        let v = self.call("__guard", &Self::args(inputs))?;
        v.as_bool().ok_or_else(|| {
            let msg = format!("guard must return a bool, got {}", v.type_name());
            self.origin.role_err("__guard", &msg)
        })
    }

    fn fire(&self, inputs: &[Token], n_outputs: usize) -> Result<Firing, PetriError> {
        if self.emits.len() != n_outputs {
            return Err(PetriError::Expr(format!(
                "behavior has {} emit slots for {} output arcs",
                self.emits.len(),
                n_outputs
            )));
        }
        let args = Self::args(inputs);
        let v = self.call("__delay", &args)?;
        let d = v.as_num().ok_or_else(|| {
            let msg = format!("delay must return a number, got {}", v.type_name());
            self.origin.role_err("__delay", &msg)
        })?;
        if !d.is_finite() || d < 0.0 {
            let msg = format!("delay must be finite and >= 0, got {d}");
            return Err(self.origin.role_err("__delay", &msg));
        }
        let mut outputs = Vec::with_capacity(n_outputs);
        for (i, has) in self.emits.iter().enumerate() {
            outputs.push(if *has {
                self.call(&format!("__emit{i}"), &args)?
            } else {
                args[0].clone()
            });
        }
        Ok(Firing {
            delay: d.round() as u64,
            outputs,
        })
    }

    /// The lowering of this behavior's expressions onto the slot
    /// `layout` of a compiled net.
    pub(crate) fn lower<'a>(&'a self, layout: &'a [String]) -> Lower<'a> {
        Lower {
            prog: self.prog.ast(),
            consts: &self.consts,
            layout,
        }
    }

    /// Appends every payload field name this behavior's expressions
    /// read or write (see [`crate::compile::field_names`]).
    pub(crate) fn field_names(&self, out: &mut Vec<String>) {
        field_names(self.prog.ast(), out);
    }

    /// Per-output-arc flags: `true` when the arc has an emit expression,
    /// `false` when the first input payload passes through unchanged.
    pub(crate) fn emit_flags(&self) -> &[bool] {
        &self.emits
    }
}

/// Whether a statement (transitively) reads the token bindings `t` or
/// `ts`. The generated `__delay`/`__guard` wrappers have exactly these
/// two parameters, so "mentions neither" means "constant w.r.t. the
/// consumed tokens".
fn stmt_mentions_inputs(s: &perf_iface_lang::ast::Stmt) -> bool {
    use perf_iface_lang::ast::Stmt;
    match s {
        Stmt::Let(_, e, _) | Stmt::Assign(_, e, _) | Stmt::Return(e, _) | Stmt::Expr(e, _) => {
            expr_mentions_inputs(e)
        }
        Stmt::If(c, a, b, _) => {
            expr_mentions_inputs(c)
                || a.iter().any(stmt_mentions_inputs)
                || b.iter().any(stmt_mentions_inputs)
        }
        Stmt::For(_, it, body, _) => {
            expr_mentions_inputs(it) || body.iter().any(stmt_mentions_inputs)
        }
        Stmt::While(c, body, _) => expr_mentions_inputs(c) || body.iter().any(stmt_mentions_inputs),
    }
}

fn expr_mentions_inputs(e: &perf_iface_lang::ast::Expr) -> bool {
    use perf_iface_lang::ast::Expr;
    match e {
        Expr::Num(..) | Expr::Str(..) | Expr::Bool(..) => false,
        Expr::Var(name, _) => name == "t" || name == "ts",
        Expr::List(items, _) => items.iter().any(expr_mentions_inputs),
        Expr::Record(fields, _) => fields.iter().any(|(_, v)| expr_mentions_inputs(v)),
        Expr::Field(base, _, _) => expr_mentions_inputs(base),
        Expr::Index(base, idx, _) => expr_mentions_inputs(base) || expr_mentions_inputs(idx),
        Expr::Call(_, args, _) => args.iter().any(expr_mentions_inputs),
        Expr::Unary(_, inner, _) => expr_mentions_inputs(inner),
        Expr::Binary(_, l, r, _) => expr_mentions_inputs(l) || expr_mentions_inputs(r),
    }
}

/// A convenience constructor: fixed delay, pass-through payloads.
pub fn fixed_delay(delay: u64, n_outputs: usize) -> Behavior {
    Behavior::Native {
        guard: None,
        delay: Box::new(move |_| delay),
        transform: Box::new(move |toks: &[Token]| {
            let v = toks
                .first()
                .map(|t| t.data.clone())
                .unwrap_or(Value::num(0.0));
            vec![v; n_outputs]
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(n: f64) -> Token {
        Token::at(Value::num(n), 0)
    }

    #[test]
    fn native_behavior_fires() {
        let b = Behavior::Native {
            guard: Some(Box::new(|ts: &[Token]| ts[0].data.as_num().unwrap() > 0.0)),
            delay: Box::new(|ts: &[Token]| ts[0].data.as_num().unwrap() as u64 * 2),
            transform: Box::new(|ts: &[Token]| vec![ts[0].data.clone()]),
        };
        assert!(b.guard(&[tok(1.0)]).unwrap());
        assert!(!b.guard(&[tok(-1.0)]).unwrap());
        let f = b.fire(&[tok(3.0)], 1).unwrap();
        assert_eq!(f.delay, 6);
        assert_eq!(f.outputs, vec![Value::num(3.0)]);
    }

    #[test]
    fn native_transform_arity_checked() {
        let b = fixed_delay(1, 2);
        assert!(b.fire(&[tok(0.0)], 3).is_err());
        assert_eq!(b.fire(&[tok(0.0)], 2).unwrap().outputs.len(), 2);
    }

    #[test]
    fn expr_behavior_with_token_fields() {
        let e = ExprBehavior::compile("", "6 + ceil(t.bits / 32)", None, &[None]).unwrap();
        let b = Behavior::Expr(e);
        let t = Token::at(Value::record([("bits", Value::num(100.0))]), 0);
        let f = b.fire(std::slice::from_ref(&t), 1).unwrap();
        assert_eq!(f.delay, 6 + 4);
        assert_eq!(f.outputs[0], t.data);
    }

    #[test]
    fn expr_guard_and_consts() {
        let e = ExprBehavior::compile("const LIMIT = 10;", "1", Some("t.size < LIMIT"), &[None])
            .unwrap();
        let b = Behavior::Expr(e);
        let small = Token::at(Value::record([("size", Value::num(5.0))]), 0);
        let big = Token::at(Value::record([("size", Value::num(50.0))]), 0);
        assert!(b.guard(&[small]).unwrap());
        assert!(!b.guard(&[big]).unwrap());
    }

    #[test]
    fn expr_emit_rewrites_payload() {
        let e = ExprBehavior::compile("", "1", None, &[Some("{ half: t.size / 2 }".to_string())])
            .unwrap();
        let b = Behavior::Expr(e);
        let t = Token::at(Value::record([("size", Value::num(8.0))]), 0);
        let f = b.fire(&[t], 1).unwrap();
        assert_eq!(f.outputs[0].field("half").unwrap().as_num(), Some(4.0));
    }

    #[test]
    fn expr_multi_input_binding() {
        let e = ExprBehavior::compile("", "ts[0].a + ts[1].a", None, &[None]).unwrap();
        let b = Behavior::Expr(e);
        let t0 = Token::at(Value::record([("a", Value::num(3.0))]), 0);
        let t1 = Token::at(Value::record([("a", Value::num(4.0))]), 0);
        let f = b.fire(&[t0, t1], 1).unwrap();
        assert_eq!(f.delay, 7);
    }

    #[test]
    fn expr_negative_or_nan_delay_rejected() {
        let e = ExprBehavior::compile("", "0 - 5", None, &[None]).unwrap();
        assert!(Behavior::Expr(e).fire(&[tok(0.0)], 1).is_err());
        let e = ExprBehavior::compile("", "1 / 0", None, &[None]).unwrap();
        assert!(Behavior::Expr(e).fire(&[tok(0.0)], 1).is_err());
    }

    #[test]
    fn const_delay_detected_only_when_token_free() {
        let e = ExprBehavior::compile("const K = 3;", "K * 2 - 6", None, &[None]).unwrap();
        assert_eq!(Behavior::Expr(e).const_delay(), Some(0.0));
        let e = ExprBehavior::compile("", "ceil(t.bits / 2)", None, &[None]).unwrap();
        assert_eq!(Behavior::Expr(e).const_delay(), None);
        assert_eq!(fixed_delay(7, 1).const_delay(), None); // native: opaque
    }

    #[test]
    fn const_guard_detected() {
        let e = ExprBehavior::compile("", "1", Some("1 == 2"), &[None]).unwrap();
        assert_eq!(Behavior::Expr(e).const_guard(), Some(false));
        let e = ExprBehavior::compile("", "1", Some("t.v < 3"), &[None]).unwrap();
        assert_eq!(Behavior::Expr(e).const_guard(), None);
        let e = ExprBehavior::compile("", "1", None, &[None]).unwrap();
        assert_eq!(Behavior::Expr(e).const_guard(), Some(true));
    }

    #[test]
    fn expr_compile_errors_surface() {
        assert!(ExprBehavior::compile("", "1 +", None, &[None]).is_err());
        assert!(ExprBehavior::compile("", "nope(1)", None, &[None]).is_err());
    }

    /// A behavior built outside a `.pnet` net names the role and the
    /// position within the expression.
    #[test]
    fn bare_expression_errors_count_from_the_expression() {
        let e = ExprBehavior::compile("const K = 1;", "K + t.w", None, &[None]).unwrap();
        let want = PetriError::Expr("delay at 1:6: number has no field `w`".into());
        assert_eq!(Behavior::Expr(e).fire(&[tok(0.0)], 1).unwrap_err(), want);
        let e = ExprBehavior::compile("", "(1", None, &[None]).err();
        let want = "delay at 1:4: parse error: expected `)`, found Semi";
        assert_eq!(e, Some(PetriError::Expr(want.into())));
    }
}
