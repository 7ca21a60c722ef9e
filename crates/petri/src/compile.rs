//! A compiler from single-expression PIL behaviors to a closed form
//! that evaluates without interpreter frames.
//!
//! Almost every delay/guard/emit in a `.pnet` file is one arithmetic
//! expression over the token's fields and the net's constants. The
//! engine evaluates these millions of times in experiment-scale runs,
//! so `ExprBehavior` compiles them: constants are folded at compile
//! time, variables resolve to direct slots, and evaluation is a single
//! enum-tree walk with no allocation on the numeric path. Expressions
//! that use features outside this subset (user-function calls, loops)
//! fall back to the full interpreter transparently.

use crate::token::slot;
use crate::PetriError;
use perf_iface_lang::ast::{BinOp, Expr, FnDecl, Stmt, UnOp};
use perf_iface_lang::Value;
use std::collections::HashMap;

/// A compiled expression.
#[derive(Clone, Debug)]
pub enum CExpr {
    /// Literal value (numbers, folded constants, record templates are
    /// not folded — see `Record`).
    Lit(Value),
    /// The first input token's payload (`t`).
    T,
    /// The list of all input payloads (`ts`).
    Ts,
    /// Field access.
    Field(Box<CExpr>, String),
    /// List indexing.
    Index(Box<CExpr>, Box<CExpr>),
    /// Record construction (for emits).
    Record(Vec<(String, CExpr)>),
    /// Binary operation.
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    /// Unary operation.
    Un(UnOp, Box<CExpr>),
    /// Builtin call.
    Builtin(&'static str, Vec<CExpr>),
}

/// Compiles the body of a generated single-return function
/// (`fn __x(t, ts) { return EXPR; }`). Returns `None` when the body
/// uses features outside the compilable subset.
pub fn compile_fn(f: &FnDecl, consts: &HashMap<String, Value>) -> Option<CExpr> {
    if f.params != ["t", "ts"] || f.body.len() != 1 {
        return None;
    }
    let Stmt::Return(expr, _) = &f.body[0] else {
        return None;
    };
    compile_expr(expr, consts)
}

fn compile_expr(e: &Expr, consts: &HashMap<String, Value>) -> Option<CExpr> {
    Some(match e {
        Expr::Num(n, _) => CExpr::Lit(Value::num(*n)),
        Expr::Bool(b, _) => CExpr::Lit(Value::bool(*b)),
        Expr::Str(s, _) => CExpr::Lit(Value::str(s.clone())),
        Expr::Var(name, _) => match name.as_str() {
            "t" => CExpr::T,
            "ts" => CExpr::Ts,
            other => CExpr::Lit(consts.get(other)?.clone()),
        },
        Expr::Field(base, field, _) => {
            CExpr::Field(Box::new(compile_expr(base, consts)?), field.clone())
        }
        Expr::Index(base, idx, _) => CExpr::Index(
            Box::new(compile_expr(base, consts)?),
            Box::new(compile_expr(idx, consts)?),
        ),
        Expr::Record(fields, _) => CExpr::Record(
            fields
                .iter()
                .map(|(k, v)| Some((k.clone(), compile_expr(v, consts)?)))
                .collect::<Option<Vec<_>>>()?,
        ),
        Expr::List(..) => return None,
        Expr::Call(name, args, _) => {
            let builtin: &'static str = match name.as_str() {
                "ceil" => "ceil",
                "floor" => "floor",
                "round" => "round",
                "abs" => "abs",
                "min" => "min",
                "max" => "max",
                "sqrt" => "sqrt",
                "pow" => "pow",
                "log2" => "log2",
                "len" => "len",
                "sum" => "sum",
                "num" => "num",
                _ => return None,
            };
            CExpr::Builtin(
                builtin,
                args.iter()
                    .map(|a| compile_expr(a, consts))
                    .collect::<Option<Vec<_>>>()?,
            )
        }
        Expr::Unary(op, inner, _) => CExpr::Un(*op, Box::new(compile_expr(inner, consts)?)),
        Expr::Binary(op, l, r, _) => CExpr::Bin(
            *op,
            Box::new(compile_expr(l, consts)?),
            Box::new(compile_expr(r, consts)?),
        ),
    })
}

impl CExpr {
    /// Evaluates against the input payloads.
    pub fn eval(&self, t: &Value, ts: &[Value]) -> Result<Value, PetriError> {
        match self {
            CExpr::Lit(v) => Ok(v.clone()),
            CExpr::T => Ok(t.clone()),
            CExpr::Ts => Ok(Value::list(ts.to_vec())),
            CExpr::Field(base, field) => {
                let b = base.eval(t, ts)?;
                b.field(field).cloned().ok_or_else(|| {
                    PetriError::Expr(format!("{} has no field `{field}`", b.type_name()))
                })
            }
            CExpr::Index(base, idx) => {
                let b = base.eval(t, ts)?;
                let i = idx.eval(t, ts)?;
                let (list, n) = match (b.as_list(), i.as_num()) {
                    (Some(l), Some(n)) => (l, n),
                    _ => return Err(PetriError::Expr("bad index operation".into())),
                };
                if n < 0.0 || n.fract() != 0.0 || n as usize >= list.len() {
                    return Err(PetriError::Expr(format!("index {n} out of bounds")));
                }
                Ok(list[n as usize].clone())
            }
            CExpr::Record(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (k, v) in fields {
                    out.push((k.clone(), v.eval(t, ts)?));
                }
                Ok(Value::record_owned(out))
            }
            CExpr::Un(op, inner) => {
                let v = inner.eval(t, ts)?;
                match op {
                    UnOp::Neg => v
                        .as_num()
                        .map(|n| Value::num(-n))
                        .ok_or_else(|| PetriError::Expr("cannot negate".into())),
                    UnOp::Not => v
                        .as_bool()
                        .map(|b| Value::bool(!b))
                        .ok_or_else(|| PetriError::Expr("cannot `!`".into())),
                }
            }
            CExpr::Bin(op, l, r) => self.eval_bin(*op, l, r, t, ts),
            CExpr::Builtin(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(t, ts)?);
                }
                perf_iface_lang::builtins::call(name, &vals, Default::default())
                    .map_err(|e| PetriError::Expr(e.to_string()))
            }
        }
    }

    /// Evaluates expecting a number (the hot path for delays).
    pub fn eval_num(&self, t: &Value, ts: &[Value]) -> Result<f64, PetriError> {
        self.eval(t, ts)?
            .as_num()
            .ok_or_else(|| PetriError::Expr("expected a number".into()))
    }

    fn eval_bin(
        &self,
        op: BinOp,
        l: &CExpr,
        r: &CExpr,
        t: &Value,
        ts: &[Value],
    ) -> Result<Value, PetriError> {
        if matches!(op, BinOp::And | BinOp::Or) {
            let lb = l
                .eval(t, ts)?
                .as_bool()
                .ok_or_else(|| PetriError::Expr("non-bool operand".into()))?;
            return match (op, lb) {
                (BinOp::And, false) => Ok(Value::bool(false)),
                (BinOp::Or, true) => Ok(Value::bool(true)),
                _ => {
                    let rb = r
                        .eval(t, ts)?
                        .as_bool()
                        .ok_or_else(|| PetriError::Expr("non-bool operand".into()))?;
                    Ok(Value::bool(rb))
                }
            };
        }
        let lv = l.eval(t, ts)?;
        let rv = r.eval(t, ts)?;
        if matches!(op, BinOp::Eq | BinOp::Ne) {
            let eq = lv == rv;
            return Ok(Value::bool(if op == BinOp::Eq { eq } else { !eq }));
        }
        let (a, b) = match (lv.as_num(), rv.as_num()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(PetriError::Expr("numeric operator on non-numbers".into())),
        };
        Ok(match op {
            BinOp::Add => Value::num(a + b),
            BinOp::Sub => Value::num(a - b),
            BinOp::Mul => Value::num(a * b),
            BinOp::Div => Value::num(a / b),
            BinOp::Rem => Value::num(a % b),
            BinOp::Lt => Value::bool(a < b),
            BinOp::Le => Value::bool(a <= b),
            BinOp::Gt => Value::bool(a > b),
            BinOp::Ge => Value::bool(a >= b),
            BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or => unreachable!("handled above"),
        })
    }
}

/// A consumed token, as a slot expression names it.
#[derive(Clone, Debug)]
pub(crate) enum SlotTok {
    /// `t`: the first consumed token (the number `0` when there is
    /// none).
    First,
    /// `ts[i]`.
    Nth(Box<SlotExpr>),
}

/// A one-argument math builtin.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Math {
    Ceil,
    Floor,
    Round,
    Abs,
    Sqrt,
    Log2,
    Num,
}

impl Math {
    fn name(self) -> &'static str {
        match self {
            Math::Ceil => "ceil",
            Math::Floor => "floor",
            Math::Round => "round",
            Math::Abs => "abs",
            Math::Sqrt => "sqrt",
            Math::Log2 => "log2",
            Math::Num => "num",
        }
    }
}

/// A [`CExpr`] compiled against a slot layout: the compiled stepper's
/// one expression evaluator. Values are `f64` slots (numbers, or the
/// NaN-boxed bools and payload marks of [`crate::token`]), a field read
/// is an index into the consumed token's row, builtins are resolved to
/// their operation at compile time, and evaluation neither allocates
/// nor touches an `Rc` except to format an error. Results and errors
/// are those of [`CExpr::eval`] on the same payloads.
#[derive(Clone, Debug)]
pub(crate) enum SlotExpr {
    /// A number or bool.
    Lit(f64),
    /// A token's whole payload: its scalar, or `RECORD | k` for the
    /// `k`-th consumed token's record.
    Payload(SlotTok),
    /// A field read: slot index, and the name for the error text.
    Field(SlotTok, u32, Box<str>),
    /// `len(ts)`.
    Len,
    /// `sum(ts)`.
    Sum,
    Bin(BinOp, Box<SlotExpr>, Box<SlotExpr>),
    Un(UnOp, Box<SlotExpr>),
    Math(Math, Box<SlotExpr>),
    Pow(Box<SlotExpr>, Box<SlotExpr>),
    /// `min(..)` (`false`) or `max(..)` (`true`), two or more arguments.
    MinMax(bool, Vec<SlotExpr>),
}

/// How an emit expression builds its output payload on slots.
#[derive(Clone, Debug)]
pub(crate) enum SlotEmit {
    /// A consumed token's payload, copied (`t`, `ts[i]`, or no emit).
    Copy(SlotTok),
    /// A scalar.
    Scalar(SlotExpr),
    /// A record literal: `(slot, value)` per field, in source order.
    Record(Vec<(u32, SlotExpr)>),
}

/// What a slot expression evaluates against: the arena rows and the
/// handles of the consumed tokens, in `ts` order. Every handle's
/// payload is a row (the stepper routes side-table payloads through
/// [`crate::behavior::Behavior`] instead).
pub(crate) struct Cx<'a> {
    pub rows: &'a [f64],
    pub stride: usize,
    pub toks: &'a [u32],
}

impl Cx<'_> {
    /// Token `k`'s header.
    #[inline(always)]
    fn head(&self, k: usize) -> f64 {
        self.rows[self.toks[k] as usize * self.stride]
    }

    /// Token `k`'s payload as a value (`None` = the absent `t`).
    #[inline(always)]
    fn payload(&self, k: Option<usize>) -> f64 {
        let Some(k) = k else {
            return 0.0;
        };
        let h = self.head(k);
        if slot::family(h) == slot::RECORD {
            slot::mark(slot::RECORD | k as u64)
        } else {
            h
        }
    }

    /// Whether the records of consumed tokens `a` and `b` are equal.
    fn records_eq(&self, a: usize, b: usize) -> bool {
        let (ra, rb) = (
            self.toks[a] as usize * self.stride,
            self.toks[b] as usize * self.stride,
        );
        (1..self.stride).all(|i| slot_eq(self.rows[ra + i], self.rows[rb + i], self))
    }
}

/// `a == b` with [`Value`]'s semantics.
fn slot_eq(a: f64, b: f64, cx: &Cx) -> bool {
    let (ra, rb) = (
        slot::family(a) == slot::RECORD,
        slot::family(b) == slot::RECORD,
    );
    match (ra, rb) {
        (true, true) => cx.records_eq(slot::index(a), slot::index(b)),
        (false, false) if slot::is_mark(a) || slot::is_mark(b) => a.to_bits() == b.to_bits(),
        (false, false) => a == b,
        _ => false,
    }
}

/// A slot value as a [`Value`] of the same type, for builtin error
/// texts (which name only the type).
fn typed(x: f64) -> Value {
    match slot::as_bool(x) {
        Some(b) => Value::Bool(b),
        None if slot::family(x) == slot::RECORD => Value::record([]),
        None => Value::Num(x),
    }
}

/// The error builtin `name` reports on `args` (called only when the
/// slot evaluator found an argument of the wrong type).
#[cold]
fn builtin_error(name: &str, args: Vec<Value>) -> PetriError {
    match perf_iface_lang::builtins::call(name, &args, Default::default()) {
        Err(e) => PetriError::Expr(e.to_string()),
        Ok(_) => PetriError::Expr(format!("`{name}` rejected its arguments")),
    }
}

impl SlotTok {
    /// The consumed-token index this names, `None` for `t` with no
    /// consumed tokens.
    #[inline(always)]
    pub(crate) fn resolve(&self, cx: &Cx) -> Result<Option<usize>, PetriError> {
        match self {
            SlotTok::First => Ok((!cx.toks.is_empty()).then_some(0)),
            SlotTok::Nth(i) => {
                let n = i.eval(cx)?;
                if slot::is_mark(n) {
                    return Err(PetriError::Expr("bad index operation".into()));
                }
                if n < 0.0 || n.fract() != 0.0 || n as usize >= cx.toks.len() {
                    return Err(PetriError::Expr(format!("index {n} out of bounds")));
                }
                Ok(Some(n as usize))
            }
        }
    }
}

impl SlotExpr {
    /// Evaluates against the consumed tokens' rows.
    pub(crate) fn eval(&self, cx: &Cx) -> Result<f64, PetriError> {
        match self {
            SlotExpr::Lit(x) => Ok(*x),
            SlotExpr::Payload(t) => Ok(cx.payload(t.resolve(cx)?)),
            SlotExpr::Field(t, s, name) => {
                let head = cx.payload(t.resolve(cx)?);
                if slot::family(head) != slot::RECORD {
                    let ty = if slot::as_bool(head).is_some() {
                        "bool"
                    } else {
                        "number"
                    };
                    return Err(PetriError::Expr(format!("{ty} has no field `{name}`")));
                }
                let x = cx.rows[cx.toks[slot::index(head)] as usize * cx.stride + 1 + *s as usize];
                if x.to_bits() == slot::ABSENT {
                    return Err(PetriError::Expr(format!("record has no field `{name}`")));
                }
                Ok(x)
            }
            SlotExpr::Len => Ok(cx.toks.len() as f64),
            SlotExpr::Sum => {
                let mut acc = 0.0;
                for k in 0..cx.toks.len() {
                    let x = cx.payload(Some(k));
                    if slot::is_mark(x) {
                        let list = (0..cx.toks.len())
                            .map(|k| typed(cx.payload(Some(k))))
                            .collect();
                        return Err(builtin_error("sum", vec![Value::list(list)]));
                    }
                    acc += x;
                }
                Ok(acc)
            }
            SlotExpr::Bin(op, l, r) => Self::eval_bin(*op, l, r, cx),
            SlotExpr::Un(op, inner) => {
                let x = inner.eval(cx)?;
                match op {
                    UnOp::Neg if !slot::is_mark(x) => Ok(-x),
                    UnOp::Neg => Err(PetriError::Expr("cannot negate".into())),
                    UnOp::Not => slot::as_bool(x)
                        .map(|b| slot::bool(!b))
                        .ok_or_else(|| PetriError::Expr("cannot `!`".into())),
                }
            }
            SlotExpr::Math(f, a) => {
                let x = a.eval(cx)?;
                if slot::is_mark(x) {
                    return match (f, slot::as_bool(x)) {
                        (Math::Num, Some(b)) => Ok(if b { 1.0 } else { 0.0 }),
                        _ => Err(builtin_error(f.name(), vec![typed(x)])),
                    };
                }
                Ok(match f {
                    Math::Ceil => x.ceil(),
                    Math::Floor => x.floor(),
                    Math::Round => x.round(),
                    Math::Abs => x.abs(),
                    Math::Sqrt => x.sqrt(),
                    Math::Log2 => x.log2(),
                    Math::Num => x,
                })
            }
            SlotExpr::Pow(a, b) => {
                let (x, y) = (a.eval(cx)?, b.eval(cx)?);
                if slot::is_mark(x) || slot::is_mark(y) {
                    return Err(builtin_error("pow", vec![typed(x), typed(y)]));
                }
                Ok(x.powf(y))
            }
            SlotExpr::MinMax(max, args) => {
                let mut acc = 0.0;
                let mut bad = false;
                for (i, a) in args.iter().enumerate() {
                    let x = a.eval(cx)?;
                    bad |= slot::is_mark(x);
                    acc = match i {
                        0 => x,
                        _ if *max => acc.max(x),
                        _ => acc.min(x),
                    };
                }
                if bad {
                    // Evaluation is pure, so re-evaluating for the error
                    // text sees the same arguments.
                    let vals = args
                        .iter()
                        .map(|a| a.eval(cx).map(typed))
                        .collect::<Result<_, _>>()?;
                    return Err(builtin_error(if *max { "max" } else { "min" }, vals));
                }
                Ok(acc)
            }
        }
    }

    fn eval_bin(op: BinOp, l: &SlotExpr, r: &SlotExpr, cx: &Cx) -> Result<f64, PetriError> {
        let non_bool = || PetriError::Expr("non-bool operand".into());
        if matches!(op, BinOp::And | BinOp::Or) {
            let lb = slot::as_bool(l.eval(cx)?).ok_or_else(non_bool)?;
            return match (op, lb) {
                (BinOp::And, false) => Ok(slot::bool(false)),
                (BinOp::Or, true) => Ok(slot::bool(true)),
                _ => Ok(slot::bool(slot::as_bool(r.eval(cx)?).ok_or_else(non_bool)?)),
            };
        }
        let (a, b) = (l.eval(cx)?, r.eval(cx)?);
        if matches!(op, BinOp::Eq | BinOp::Ne) {
            return Ok(slot::bool(slot_eq(a, b, cx) == (op == BinOp::Eq)));
        }
        if slot::is_mark(a) || slot::is_mark(b) {
            return Err(PetriError::Expr("numeric operator on non-numbers".into()));
        }
        Ok(match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Rem => a % b,
            BinOp::Lt => slot::bool(a < b),
            BinOp::Le => slot::bool(a <= b),
            BinOp::Gt => slot::bool(a > b),
            BinOp::Ge => slot::bool(a >= b),
            BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or => unreachable!("handled above"),
        })
    }
}

impl CExpr {
    /// Appends every field name this expression reads or writes.
    pub(crate) fn field_names(&self, out: &mut Vec<String>) {
        fn add(out: &mut Vec<String>, n: &String) {
            if !out.contains(n) {
                out.push(n.clone());
            }
        }
        match self {
            CExpr::Lit(_) | CExpr::T | CExpr::Ts => {}
            CExpr::Field(base, name) => {
                add(out, name);
                base.field_names(out);
            }
            CExpr::Record(fields) => {
                for (k, v) in fields {
                    add(out, k);
                    v.field_names(out);
                }
            }
            CExpr::Index(a, b) | CExpr::Bin(_, a, b) => {
                a.field_names(out);
                b.field_names(out);
            }
            CExpr::Un(_, a) => a.field_names(out),
            CExpr::Builtin(_, args) => args.iter().for_each(|a| a.field_names(out)),
        }
    }

    /// Lowers onto `layout` (field `k` in slot `1 + k`); `None` when
    /// the expression needs the `Value` evaluator: a string or
    /// composite literal, a record literal, a list used other than by
    /// `ts[i]`, `len(ts)` or `sum(ts)`, a field of anything but a
    /// token, or a builtin called with the wrong arity.
    pub(crate) fn to_slots(&self, layout: &[String]) -> Option<SlotExpr> {
        let sub = |e: &CExpr| e.to_slots(layout).map(Box::new);
        Some(match self {
            CExpr::Lit(Value::Num(n)) => SlotExpr::Lit(slot::num(*n)),
            CExpr::Lit(Value::Bool(b)) => SlotExpr::Lit(slot::bool(*b)),
            CExpr::Lit(_) | CExpr::Ts | CExpr::Record(_) => return None,
            CExpr::T | CExpr::Index(..) => SlotExpr::Payload(self.to_tok(layout)?),
            CExpr::Field(base, name) => {
                let s = layout.iter().position(|n| n == name)?;
                SlotExpr::Field(base.to_tok(layout)?, s as u32, name.as_str().into())
            }
            CExpr::Bin(op, l, r) => SlotExpr::Bin(*op, sub(l)?, sub(r)?),
            CExpr::Un(op, a) => SlotExpr::Un(*op, sub(a)?),
            CExpr::Builtin(name, args) => {
                let math = match *name {
                    "ceil" => Math::Ceil,
                    "floor" => Math::Floor,
                    "round" => Math::Round,
                    "abs" => Math::Abs,
                    "sqrt" => Math::Sqrt,
                    "log2" => Math::Log2,
                    "num" => Math::Num,
                    "min" | "max" if args.len() >= 2 => {
                        let args = args
                            .iter()
                            .map(|a| a.to_slots(layout))
                            .collect::<Option<Vec<_>>>()?;
                        return Some(SlotExpr::MinMax(*name == "max", args));
                    }
                    "pow" if args.len() == 2 => {
                        return Some(SlotExpr::Pow(sub(&args[0])?, sub(&args[1])?));
                    }
                    "len" if matches!(args[..], [CExpr::Ts]) => return Some(SlotExpr::Len),
                    "sum" if matches!(args[..], [CExpr::Ts]) => return Some(SlotExpr::Sum),
                    _ => return None,
                };
                match &args[..] {
                    [a] => SlotExpr::Math(math, sub(a)?),
                    _ => return None,
                }
            }
        })
    }

    /// The token `t` or `ts[i]` names.
    fn to_tok(&self, layout: &[String]) -> Option<SlotTok> {
        match self {
            CExpr::T => Some(SlotTok::First),
            CExpr::Index(base, i) if matches!(**base, CExpr::Ts) => {
                Some(SlotTok::Nth(Box::new(i.to_slots(layout)?)))
            }
            _ => None,
        }
    }

    /// Lowers an emit expression onto `layout` (see
    /// [`CExpr::to_slots`]). A record literal's field values must be
    /// scalars, so a field holding a whole payload declines.
    pub(crate) fn to_slot_emit(&self, layout: &[String]) -> Option<SlotEmit> {
        match self {
            CExpr::Record(fields) => fields
                .iter()
                .map(|(k, v)| {
                    let s = layout.iter().position(|n| n == k)?;
                    match v.to_slots(layout)? {
                        SlotExpr::Payload(_) => None,
                        e => Some((s as u32, e)),
                    }
                })
                .collect::<Option<Vec<_>>>()
                .map(SlotEmit::Record),
            _ => match self.to_slots(layout)? {
                SlotExpr::Payload(t) => Some(SlotEmit::Copy(t)),
                e => Some(SlotEmit::Scalar(e)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_iface_lang::Program;

    fn compile_one(src: &str, consts: &HashMap<String, Value>) -> Option<CExpr> {
        // Declare every const the test provides so the program parses.
        let mut decls = String::new();
        for (k, v) in consts {
            decls.push_str(&format!(
                "const {k} = {v};
"
            ));
        }
        let full = format!("{decls}fn __f(t, ts) {{ return ({src}); }}");
        let prog = Program::parse(&full).unwrap();
        compile_fn(&prog.ast().functions[0], consts)
    }

    fn tok(fields: Vec<(&'static str, f64)>) -> Value {
        Value::record(fields.into_iter().map(|(k, v)| (k, Value::num(v))))
    }

    #[test]
    fn compiles_arithmetic_over_fields() {
        let consts = HashMap::new();
        let c = compile_one("6 + ceil(t.bits / 4)", &consts).expect("compilable");
        let t = tok(vec![("bits", 10.0)]);
        assert_eq!(c.eval_num(&t, &[]).unwrap(), 6.0 + 3.0);
    }

    #[test]
    fn resolves_constants_at_compile_time() {
        let mut consts = HashMap::new();
        consts.insert("MEM".to_string(), Value::num(120.0));
        let c = compile_one("MEM * 2 + t.x", &consts).unwrap();
        assert_eq!(c.eval_num(&tok(vec![("x", 1.0)]), &[]).unwrap(), 241.0);
    }

    #[test]
    fn unknown_names_fall_back() {
        // The name exists in the program but not in the compile-time
        // constant environment: the compiler declines.
        let full = "const UNKNOWN = 1; fn __f(t, ts) { return (UNKNOWN + 1); }";
        let prog = Program::parse(full).unwrap();
        assert!(compile_fn(&prog.ast().functions[0], &HashMap::new()).is_none());
    }

    #[test]
    fn user_function_calls_fall_back() {
        // A call to a non-builtin cannot compile.
        let consts = HashMap::new();
        let full = "fn helper(t, ts) { return 1; } fn __f(t, ts) { return helper(t, ts); }";
        let prog = Program::parse(full).unwrap();
        assert!(compile_fn(&prog.ast().functions[1], &consts).is_none());
    }

    #[test]
    fn guards_and_short_circuit() {
        let consts = HashMap::new();
        let c = compile_one("t.pp == 1 && t.pn == 0", &consts).unwrap();
        let yes = tok(vec![("pp", 1.0), ("pn", 0.0)]);
        let no = tok(vec![("pp", 0.0), ("pn", 0.0)]);
        assert_eq!(c.eval(&yes, &[]).unwrap(), Value::bool(true));
        assert_eq!(c.eval(&no, &[]).unwrap(), Value::bool(false));
    }

    #[test]
    fn record_emit_compiles() {
        let consts = HashMap::new();
        let c = compile_one("{ u: 0, half: t.size / 2 }", &consts).unwrap();
        let out = c.eval(&tok(vec![("size", 8.0)]), &[]).unwrap();
        assert_eq!(out.field("half").unwrap().as_num(), Some(4.0));
    }

    #[test]
    fn ts_indexing() {
        let consts = HashMap::new();
        let c = compile_one("ts[1].a + t.a", &consts).unwrap();
        let t0 = tok(vec![("a", 1.0)]);
        let t1 = tok(vec![("a", 2.0)]);
        assert_eq!(c.eval_num(&t0, &[t0.clone(), t1]).unwrap(), 3.0);
    }

    #[test]
    fn matches_interpreter_semantics() {
        // Division by zero yields infinity, like the interpreter.
        let consts = HashMap::new();
        let c = compile_one("1 / 0", &consts).unwrap();
        assert_eq!(c.eval_num(&Value::num(0.0), &[]).unwrap(), f64::INFINITY);
    }

    #[test]
    fn slot_evaluation_matches_value_evaluation() {
        use crate::token::{Layout, TokenArena};
        let layout: Layout = vec!["a".to_string(), "b".to_string(), "c".to_string()].into();
        let rec = |fields: Vec<(&'static str, Value)>| Value::record(fields);
        let (n, b) = (Value::num, Value::bool);
        let payload_sets = vec![
            vec![rec(vec![("a", n(1.5)), ("b", b(true))])],
            vec![rec(vec![("a", n(-2.0)), ("c", n(0.0))])],
            vec![n(3.0)],
            vec![b(false)],
            vec![],
            vec![
                rec(vec![("a", n(1.0))]),
                rec(vec![("a", n(1.0)), ("b", b(false))]),
            ],
            vec![rec(vec![("a", n(0.0))]), rec(vec![("a", n(0.0))])],
            vec![n(2.0), n(f64::NAN)],
        ];
        let exprs = [
            "t.a + 1",
            "t.a * t.c",
            "-t.a",
            "-t",
            "!t.b",
            "!t",
            "t.b == 1",
            "t.b == true",
            "t == ts[0]",
            "ts[1] == ts[0]",
            "ts[1] != t",
            "t != 3",
            "t.a < 2 && t.b",
            "t.a > 0 || t.c",
            "t.c >= t.a",
            "ceil(t.a)",
            "floor(t)",
            "round(t.a)",
            "abs(t.a)",
            "sqrt(t.a)",
            "log2(t)",
            "num(t.b)",
            "num(t)",
            "pow(t.a, 2)",
            "pow(2, t)",
            "min(t.a, 3, t.c)",
            "max(1, t)",
            "len(ts)",
            "sum(ts)",
            "ts[1].a",
            "ts[t.a].a",
            "ts[0 - 1]",
            "ts[0.5]",
            "ts[t.b]",
            "t.a % 0",
            "1 / 0",
            "t.a / t.a",
        ];
        // Debug text compares NaN results as equal.
        let show = |r: Result<Value, PetriError>| format!("{r:?}");
        for src in exprs {
            let c = compile_one(src, &HashMap::new()).expect(src);
            let s = c.to_slots(&layout).expect(src);
            for payloads in &payload_sets {
                let mut arena = TokenArena::new(layout.clone());
                let hs: Vec<u32> = payloads
                    .iter()
                    .map(|p| {
                        let h = arena.alloc(0, 0);
                        arena.put(h, p.clone());
                        h
                    })
                    .collect();
                let t = payloads.first().cloned().unwrap_or(Value::num(0.0));
                let want = c.eval(&t, payloads);
                let got = s.eval(&arena.cx(&hs)).map(|x| match slot::as_bool(x) {
                    Some(b) => Value::Bool(b),
                    None => Value::Num(x),
                });
                assert_eq!(show(got), show(want), "`{src}` on {payloads:?}");
            }
        }
    }
}
