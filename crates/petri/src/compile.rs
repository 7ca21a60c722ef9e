//! Lowering of `.pnet` delays, guards and emits onto the compiled
//! stepper's slot rows.
//!
//! [`crate::behavior::ExprBehavior`] wraps each delay, guard and emit
//! expression in a generated single-return function, and evaluates it
//! with one evaluator: the PIL interpreter, [`perf_iface_lang::Interp`],
//! which is the spec. Almost every such expression is arithmetic over
//! the consumed token's fields and the net's constants, and the stepper
//! evaluates it millions of times per run, so [`Lower`] turns the
//! returned expression into a [`SlotExpr`] over the stepper's `f64`
//! rows: constants fold to literals, a field read is an index,
//! builtins resolve to their operation, and evaluation neither
//! allocates nor formats. An expression outside that subset is declined
//! and runs through the spec.
//!
//! A slot expression computes the spec's value or gives up: `Some(x)`
//! from [`SlotExpr::eval`] means the interpreter returns `x` on the same
//! payloads, and `None` means the interpreter fails. Evaluation is pure
//! and an error ends the run, so on `None` the stepper re-runs that one
//! guard or firing through the spec, which reports the exact error.

use crate::token::{slot, TokenArena};
use perf_iface_lang::ast::{BinOp, Expr, FnDecl, Program, Stmt, UnOp};
use perf_iface_lang::Value;
use std::collections::HashMap;

/// A consumed token, as a slot expression names it.
#[derive(Clone, Debug)]
pub(crate) enum SlotTok {
    /// `t`: the first consumed token (every transition consumes at
    /// least one).
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

/// An expression lowered onto a slot layout. Values are `f64` slots
/// (numbers, or the NaN-boxed bools and payload marks of
/// [`crate::token`]), a field read is an index into the consumed
/// token's row, and builtins are resolved to their operation.
#[derive(Clone, Debug)]
pub(crate) enum SlotExpr {
    /// A number or bool.
    Lit(f64),
    /// A token's whole payload: its scalar, or `RECORD | k` for the
    /// `k`-th consumed token's record.
    Payload(SlotTok),
    /// A field read: the token and the field's slot index.
    Field(SlotTok, u32),
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

    /// Token `k`'s payload as a value.
    #[inline(always)]
    fn payload(&self, k: usize) -> f64 {
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

/// A slot value as a number, `None` for a bool or a record.
#[inline(always)]
fn num(x: f64) -> Option<f64> {
    (!slot::is_mark(x)).then_some(x)
}

impl SlotTok {
    /// The consumed-token index this names; `None` for an index the
    /// spec rejects.
    #[inline(always)]
    pub(crate) fn resolve(&self, cx: &Cx) -> Option<usize> {
        match self {
            SlotTok::First => Some(0),
            SlotTok::Nth(i) => {
                // A mark is a NaN, so it fails `n >= 0.0` like a
                // non-integer or out-of-range index.
                let n = i.eval(cx)?;
                (n >= 0.0 && n.fract() == 0.0 && (n as usize) < cx.toks.len()).then_some(n as usize)
            }
        }
    }
}

impl SlotExpr {
    /// The value the spec computes on the consumed tokens, or `None`
    /// where the spec fails.
    pub(crate) fn eval(&self, cx: &Cx) -> Option<f64> {
        match self {
            SlotExpr::Lit(x) => Some(*x),
            SlotExpr::Payload(t) => Some(cx.payload(t.resolve(cx)?)),
            SlotExpr::Field(t, s) => {
                let k = t.resolve(cx)?;
                if slot::family(cx.head(k)) != slot::RECORD {
                    return None;
                }
                let x = cx.rows[cx.toks[k] as usize * cx.stride + 1 + *s as usize];
                (x.to_bits() != slot::ABSENT).then_some(x)
            }
            SlotExpr::Len => Some(cx.toks.len() as f64),
            SlotExpr::Sum => {
                (0..cx.toks.len()).try_fold(0.0, |acc, k| Some(acc + num(cx.payload(k))?))
            }
            SlotExpr::Bin(op, l, r) => Self::eval_bin(*op, l, r, cx),
            SlotExpr::Un(UnOp::Neg, a) => Some(-num(a.eval(cx)?)?),
            SlotExpr::Un(UnOp::Not, a) => slot::as_bool(a.eval(cx)?).map(|b| slot::bool(!b)),
            SlotExpr::Math(f, a) => {
                let x = a.eval(cx)?;
                let Some(x) = num(x) else {
                    // `num` alone also converts a bool.
                    return match f {
                        Math::Num => slot::as_bool(x).map(|b| if b { 1.0 } else { 0.0 }),
                        _ => None,
                    };
                };
                Some(match f {
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
                Some(num(x)?.powf(num(y)?))
            }
            SlotExpr::MinMax(max, args) => {
                let mut acc = num(args[0].eval(cx)?)?;
                for a in &args[1..] {
                    let x = num(a.eval(cx)?)?;
                    acc = if *max { acc.max(x) } else { acc.min(x) };
                }
                Some(acc)
            }
        }
    }

    fn eval_bin(op: BinOp, l: &SlotExpr, r: &SlotExpr, cx: &Cx) -> Option<f64> {
        if matches!(op, BinOp::And | BinOp::Or) {
            return match (op, slot::as_bool(l.eval(cx)?)?) {
                (BinOp::And, false) => Some(slot::bool(false)),
                (BinOp::Or, true) => Some(slot::bool(true)),
                _ => slot::as_bool(r.eval(cx)?).map(slot::bool),
            };
        }
        let (a, b) = (l.eval(cx)?, r.eval(cx)?);
        if matches!(op, BinOp::Eq | BinOp::Ne) {
            return Some(slot::bool(slot_eq(a, b, cx) == (op == BinOp::Eq)));
        }
        let (a, b) = (num(a)?, num(b)?);
        Some(match op {
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

impl SlotEmit {
    /// Writes this emit, evaluated on the consumed tokens `sel`, into
    /// token `tok`'s row; `None` where the spec fails.
    pub(crate) fn write(&self, arena: &mut TokenArena, sel: &[u32], tok: u32) -> Option<()> {
        match self {
            SlotEmit::Copy(t) => {
                let k = t.resolve(&arena.cx(sel))?;
                arena.copy(sel[k], tok);
            }
            SlotEmit::Scalar(e) => {
                let x = e.eval(&arena.cx(sel))?;
                arena.row_mut(tok)[0] = x;
            }
            SlotEmit::Record(fields) => {
                arena.clear_record(tok);
                for (s, e) in fields {
                    let x = e.eval(&arena.cx(sel))?;
                    arena.row_mut(tok)[1 + *s as usize] = x;
                }
            }
        }
        Some(())
    }
}

/// The expression a generated wrapper `fn NAME(t, ts) { return EXPR; }`
/// returns; `None` for any other function.
fn returned(f: &FnDecl) -> Option<&Expr> {
    match &f.body[..] {
        [Stmt::Return(e, _)] if f.params == ["t", "ts"] => Some(e),
        _ => None,
    }
}

/// Appends, in first-use order, every field name that the expressions
/// `prog`'s wrappers return read, or write as a record literal.
pub(crate) fn field_names(prog: &Program, out: &mut Vec<String>) {
    fn add(out: &mut Vec<String>, n: &String) {
        if !out.contains(n) {
            out.push(n.clone());
        }
    }
    fn walk(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::Num(..) | Expr::Str(..) | Expr::Bool(..) | Expr::Var(..) => {}
            Expr::Field(base, name, _) => {
                add(out, name);
                walk(base, out);
            }
            Expr::Record(fields, _) => {
                for (k, v) in fields {
                    add(out, k);
                    walk(v, out);
                }
            }
            Expr::List(items, _) | Expr::Call(_, items, _) => {
                items.iter().for_each(|a| walk(a, out))
            }
            Expr::Index(a, b, _) | Expr::Binary(_, a, b, _) => {
                walk(a, out);
                walk(b, out);
            }
            Expr::Unary(_, a, _) => walk(a, out),
        }
    }
    for e in prog.functions.iter().filter_map(returned) {
        walk(e, out);
    }
}

/// Lowers the wrappers of one behavior's program onto a slot layout
/// (field `k` in slot `1 + k`).
pub(crate) struct Lower<'a> {
    /// The behavior's program.
    pub prog: &'a Program,
    /// Its evaluated constants.
    pub consts: &'a HashMap<String, Value>,
    /// The net's payload field names.
    pub layout: &'a [String],
}

impl Lower<'_> {
    /// Wrapper `name` (a delay or guard) on slots. `None` when it needs
    /// the spec: a body other than one `return`, a string or composite
    /// literal or constant, a list used other than by `ts[i]`,
    /// `len(ts)` or `sum(ts)`, a field of anything but a token, a field
    /// outside the layout, a user-function call, or a builtin called
    /// with the wrong arity.
    pub(crate) fn expr(&self, name: &str) -> Option<SlotExpr> {
        self.lower(returned(self.prog.function(name)?)?)
    }

    /// Emit wrapper `name` on slots (see [`Lower::expr`]). A record
    /// literal's field values must be scalars, so a field holding a
    /// whole payload declines.
    pub(crate) fn emit(&self, name: &str) -> Option<SlotEmit> {
        match returned(self.prog.function(name)?)? {
            Expr::Record(fields, _) => fields
                .iter()
                .map(|(k, v)| match self.lower(v)? {
                    SlotExpr::Payload(_) => None,
                    e => Some((self.slot(k)?, e)),
                })
                .collect::<Option<Vec<_>>>()
                .map(SlotEmit::Record),
            e => match self.lower(e)? {
                SlotExpr::Payload(t) => Some(SlotEmit::Copy(t)),
                e => Some(SlotEmit::Scalar(e)),
            },
        }
    }

    fn slot(&self, field: &str) -> Option<u32> {
        let s = self.layout.iter().position(|n| n == field)?;
        Some(s as u32)
    }

    fn lower(&self, e: &Expr) -> Option<SlotExpr> {
        let sub = |e: &Expr| self.lower(e).map(Box::new);
        Some(match e {
            Expr::Num(n, _) => SlotExpr::Lit(slot::num(*n)),
            Expr::Bool(b, _) => SlotExpr::Lit(slot::bool(*b)),
            // The parameters `t` and `ts` shadow constants.
            Expr::Var(name, _) if name != "t" && name != "ts" => match self.consts.get(name)? {
                Value::Num(n) => SlotExpr::Lit(slot::num(*n)),
                Value::Bool(b) => SlotExpr::Lit(slot::bool(*b)),
                _ => return None,
            },
            Expr::Var(..) | Expr::Index(..) => SlotExpr::Payload(self.tok(e)?),
            Expr::Field(base, name, _) => SlotExpr::Field(self.tok(base)?, self.slot(name)?),
            Expr::Unary(op, a, _) => SlotExpr::Un(*op, sub(a)?),
            Expr::Binary(op, l, r, _) => SlotExpr::Bin(*op, sub(l)?, sub(r)?),
            // The checker rejects a function that shadows a builtin, so
            // every call of a builtin's name is the builtin.
            Expr::Call(name, args, _) => self.builtin(name, args)?,
            Expr::Str(..) | Expr::List(..) | Expr::Record(..) => return None,
        })
    }

    fn builtin(&self, name: &str, args: &[Expr]) -> Option<SlotExpr> {
        let is_ts = |a: &Expr| matches!(a, Expr::Var(v, _) if v == "ts");
        let math = match (name, args) {
            ("ceil", _) => Math::Ceil,
            ("floor", _) => Math::Floor,
            ("round", _) => Math::Round,
            ("abs", _) => Math::Abs,
            ("sqrt", _) => Math::Sqrt,
            ("log2", _) => Math::Log2,
            ("num", _) => Math::Num,
            ("min" | "max", [_, _, ..]) => {
                let args = args.iter().map(|a| self.lower(a)).collect::<Option<_>>()?;
                return Some(SlotExpr::MinMax(name == "max", args));
            }
            ("pow", [a, b]) => {
                return Some(SlotExpr::Pow(
                    Box::new(self.lower(a)?),
                    Box::new(self.lower(b)?),
                ))
            }
            ("len", [a]) if is_ts(a) => return Some(SlotExpr::Len),
            ("sum", [a]) if is_ts(a) => return Some(SlotExpr::Sum),
            _ => return None,
        };
        let [a] = args else { return None };
        Some(SlotExpr::Math(math, Box::new(self.lower(a)?)))
    }

    /// The token `t` or `ts[i]` names.
    fn tok(&self, e: &Expr) -> Option<SlotTok> {
        match e {
            Expr::Var(v, _) if v == "t" => Some(SlotTok::First),
            Expr::Index(base, i, _) if matches!(&**base, Expr::Var(v, _) if v == "ts") => {
                Some(SlotTok::Nth(Box::new(self.lower(i)?)))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Layout;
    use perf_iface_lang::interp::eval_consts;
    use perf_iface_lang::{Interp, Limits, Program as Source};
    use proptest::prelude::*;

    /// The payload fields every test lowers onto.
    fn layout() -> Layout {
        ["a", "b", "c", "size", "u", "half"]
            .map(String::from)
            .to_vec()
            .into()
    }

    /// `src` as the generated wrapper `__f`, next to two constants.
    fn wrap(src: &str) -> Source {
        let full = format!("const K = 3;\nconst ON = true;\nfn __f(t, ts) {{ return ({src}); }}");
        Source::parse(&full).unwrap_or_else(|e| panic!("`{src}`: {e}"))
    }

    /// Lowering of `prog`'s wrappers with its evaluated constants.
    fn lowered<R>(prog: &Source, f: impl FnOnce(&Lower) -> R) -> R {
        let consts = eval_consts(prog.ast(), Limits::default()).unwrap();
        let layout = layout();
        f(&Lower {
            prog: prog.ast(),
            consts: &consts,
            layout: &layout,
        })
    }

    /// Asserts the lowering rule: a slot result `Some(x)` means the
    /// spec, the interpreter's value of `__f` on `payloads`, is `x`, and
    /// `None` means the spec fails.
    fn assert_spec(src: &str, prog: &Source, payloads: &[Value], got: Option<Value>) {
        let args = [payloads[0].clone(), Value::list(payloads.to_vec())];
        match (
            got,
            Interp::new(prog.ast(), Limits::default()).call("__f", &args),
        ) {
            // Debug text compares NaN results as equal.
            (Some(x), Ok(v)) => assert_eq!(format!("{x:?}"), format!("{v:?}"), "`{src}`"),
            (None, Err(_)) => {}
            (got, want) => panic!("`{src}` on {payloads:?}: slots {got:?}, spec {want:?}"),
        }
    }

    /// `payloads` as rows of a fresh arena, and their handles.
    fn rows(payloads: &[Value]) -> (TokenArena, Vec<u32>) {
        let mut arena = TokenArena::new(layout());
        let hs = payloads
            .iter()
            .map(|p| {
                let h = arena.alloc(0, 0);
                arena.put(h, p.clone());
                assert!(!arena.is_dyn(h), "{p:?} fits a row");
                h
            })
            .collect();
        (arena, hs)
    }

    fn rec(fields: &[(&'static str, Value)]) -> Value {
        Value::record(fields.iter().cloned())
    }

    /// Consumed-token sets: records with and without the fields read,
    /// scalars, equal and unequal pairs, and a NaN.
    fn payload_sets() -> Vec<Vec<Value>> {
        let (n, b) = (Value::num, Value::bool);
        vec![
            vec![rec(&[("a", n(1.5)), ("b", b(true))])],
            vec![rec(&[("a", n(-2.0)), ("c", n(0.0))])],
            vec![n(3.0)],
            vec![b(false)],
            vec![
                rec(&[("a", n(1.0))]),
                rec(&[("a", n(1.0)), ("b", b(false))]),
            ],
            vec![rec(&[("a", n(0.0))]), rec(&[("a", n(0.0))])],
            vec![n(2.0), n(f64::NAN)],
            vec![rec(&[("size", n(8.0)), ("a", n(2.0))]), n(1.0)],
        ]
    }

    /// The lowering rule for `src` on every payload set. `src` must
    /// lower, so the constants it names must fold to literals.
    fn check(src: &str) {
        let prog = wrap(src);
        let e = lowered(&prog, |l| l.expr("__f")).unwrap_or_else(|| panic!("`{src}` lowers"));
        for payloads in payload_sets() {
            let (arena, hs) = rows(&payloads);
            let got = e.eval(&arena.cx(&hs)).map(|x| match slot::as_bool(x) {
                Some(b) => Value::Bool(b),
                None if slot::family(x) == slot::RECORD => payloads[slot::index(x)].clone(),
                None => Value::Num(x),
            });
            assert_spec(src, &prog, &payloads, got);
        }
    }

    #[test]
    fn slot_evaluation_matches_value_evaluation() {
        for src in [
            "t.a + 1",
            "6 + ceil(t.a / 4)",
            "K * 2 + t.a",
            "t.a * t.c",
            "-t.a",
            "-t",
            "!t.b",
            "!t",
            "t.b == 1",
            "t.b == true",
            "t.b == ON",
            "t",
            "t == ts[0]",
            "ts[1] == ts[0]",
            "ts[1] != t",
            "t != 3",
            "t.a < 2 && t.b",
            "t.a > 0 || t.c",
            "t.a == 1 && t.c == 0",
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
            "ts[1].a + t.a",
            "ts[t.a].a",
            "ts[0 - 1]",
            "ts[0.5]",
            "ts[t.b]",
            "t.a % 0",
            "1 / 0",
            "t.a / t.a",
        ] {
            check(src);
        }
    }

    #[test]
    fn emits_write_the_spec_payload() {
        for src in [
            "{ u: 0, half: t.size / 2 }",
            "{ half: ts[1] }",
            "ts[1]",
            "t",
            "t.a + 1",
        ] {
            let prog = wrap(src);
            let Some(emit) = lowered(&prog, |l| l.emit("__f")) else {
                // A record field holding a whole payload declines.
                assert_eq!(src, "{ half: ts[1] }");
                continue;
            };
            for payloads in payload_sets() {
                let (mut arena, hs) = rows(&payloads);
                let out = arena.alloc(0, 0);
                let got = emit.write(&mut arena, &hs, out).map(|()| arena.value(out));
                assert_spec(src, &prog, &payloads, got);
            }
        }
    }

    #[test]
    fn declines_what_needs_the_spec() {
        for src in [
            "\"s\"",
            "[1, 2]",
            "ts",
            "len(t)",
            "sum(t)",
            "ceil(1, 2)",
            "t.zz",
            "t.a.b",
        ] {
            assert!(lowered(&wrap(src), |l| l.expr("__f")).is_none(), "`{src}`");
        }
    }

    #[test]
    fn unknown_names_fall_back() {
        // The name exists in the program but not in the constant
        // environment the lowering is handed: it declines.
        let prog =
            Source::parse("const UNKNOWN = 1; fn __f(t, ts) { return (UNKNOWN + 1); }").unwrap();
        let layout = layout();
        let bare = Lower {
            prog: prog.ast(),
            consts: &HashMap::new(),
            layout: &layout,
        };
        assert!(bare.expr("__f").is_none());
    }

    #[test]
    fn user_function_calls_fall_back() {
        let prog =
            Source::parse("fn helper(t, ts) { return 1; } fn __f(t, ts) { return helper(t, ts); }")
                .unwrap();
        assert!(lowered(&prog, |l| l.expr("__f")).is_none());
    }

    /// A random expression over the lowerable subset: a binary
    /// operation on two nested expressions over token fields and
    /// payloads, literals and constants, using every operator and
    /// builtin the lowering covers.
    fn expr_strategy() -> impl Strategy<Value = String> {
        const LEAVES: [&str; 14] = [
            "t", "t.a", "t.b", "t.c", "ts[1]", "ts[0].a", "1", "0", "2.5", "true", "K", "ON",
            "len(ts)", "sum(ts)",
        ];
        const BIN: [&str; 13] = [
            "+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||",
        ];
        const CALL1: [&str; 7] = ["ceil", "floor", "round", "abs", "sqrt", "log2", "num"];
        let bin = |l: String, op: usize, r: String| format!("({l} {} {r})", BIN[op]);
        let leaf = (0..LEAVES.len()).prop_map(|i| LEAVES[i].to_string());
        let expr = leaf.prop_recursive(3, 32, 2, move |inner| {
            prop_oneof![
                (inner.clone(), 0..BIN.len(), inner.clone())
                    .prop_map(move |(l, op, r)| bin(l, op, r)),
                (0..2usize, inner.clone()).prop_map(|(op, x)| format!("{}({x})", ["-", "!"][op])),
                (0..CALL1.len(), inner.clone()).prop_map(|(f, x)| format!("{}({x})", CALL1[f])),
                (0..3usize, inner.clone(), inner.clone())
                    .prop_map(|(f, a, b)| { format!("{}({a}, {b})", ["pow", "min", "max"][f]) }),
                inner.clone().prop_map(|i| format!("ts[{i}].a")),
                inner.prop_map(|i| format!("ts[{i}]")),
            ]
        });
        (expr.clone(), 0..BIN.len(), expr).prop_map(move |(l, op, r)| bin(l, op, r))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn generated_expressions_match_the_spec(src in expr_strategy()) {
            check(&src);
        }
    }
}
