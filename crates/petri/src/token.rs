//! Tokens: the data units flowing through a performance net, and the
//! slot rows the compiled stepper stores their payloads in.
//!
//! A [`Token`] carries its payload as a [`Value`], the form the
//! reference evaluator and every native closure see. The stepper
//! instead stores each flat payload — a number, a bool, or a record of
//! numbers and bools — as a fixed-width row of `f64` slots
//! (`TokenArena`): slot 0 is the header, slot `1 + k` holds field `k`
//! of the net's [`crate::CompiledNet`] layout. Bools, missing fields and
//! the header's kind marks are NaN-boxed into bit patterns no number
//! can take (`slot`), so a row is self-describing and a field read is
//! one index. A payload that does not fit (a string, a list, a nested
//! record, or a field outside the layout) keeps its `Value` in a side
//! table, and the header points at it.

use crate::compile::Cx;
use perf_iface_lang::Value;
use std::rc::Rc;

/// A token carries a data payload (used by delay and transform
/// expressions) and remembers when it entered the net, so end-to-end
/// latency can be measured at sink places.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// Payload visible to transition behaviors.
    pub data: Value,
    /// Cycle at which the token was first injected into the net.
    pub born: u64,
    /// Cycle at which the token arrived in its current place.
    pub arrived: u64,
}

impl Token {
    /// Creates a token injected at cycle `at`.
    pub fn at(data: Value, at: u64) -> Token {
        Token {
            data,
            born: at,
            arrived: at,
        }
    }

    /// Creates a descendant token that inherits this token's birth time
    /// (latency is measured from the ancestor's injection).
    pub fn descend(&self, data: Value, arrived: u64) -> Token {
        Token {
            data,
            born: self.born,
            arrived,
        }
    }

    /// A unit token (no payload) injected at cycle `at`.
    pub fn unit(at: u64) -> Token {
        Token::at(Value::num(0.0), at)
    }
}

/// Bit patterns of a slot row. Every mark is a signalling NaN with the
/// top 14 bits `0x7FF4 >> 2`: arithmetic never produces a signalling
/// NaN, and numbers entering a row are canonicalized ([`slot::num`]),
/// so no number collides with a mark. The low 32 bits of
/// [`slot::RECORD`] and [`slot::DYN`] carry an index.
pub(crate) mod slot {
    /// `false`; `true` is `FALSE | 1`.
    pub const FALSE: u64 = 0x7FF4_0000_0000_0000;
    /// `true`.
    pub const TRUE: u64 = FALSE | 1;
    /// A field the record does not have.
    pub const ABSENT: u64 = 0x7FF5_0000_0000_0000;
    /// Header of a record row; in an evaluated value, `RECORD | k`
    /// names the `k`-th consumed token's payload.
    pub const RECORD: u64 = 0x7FF6_0000_0000_0000;
    /// Header of a payload kept as a `Value`: `DYN | i` indexes the
    /// arena's side table.
    pub const DYN: u64 = 0x7FF7_0000_0000_0000;

    /// Whether `x` is a mark rather than a number.
    #[inline(always)]
    pub fn is_mark(x: f64) -> bool {
        x.to_bits() >> 50 == FALSE >> 50
    }

    /// The mark family of `x` (its top 16 bits).
    #[inline(always)]
    pub fn family(x: f64) -> u64 {
        x.to_bits() & 0xFFFF_0000_0000_0000
    }

    /// The index a `RECORD` or `DYN` mark carries.
    #[inline(always)]
    pub fn index(x: f64) -> usize {
        (x.to_bits() & 0xFFFF_FFFF) as usize
    }

    /// `bits` as a slot value.
    #[inline(always)]
    pub fn mark(bits: u64) -> f64 {
        f64::from_bits(bits)
    }

    /// A bool as a slot value.
    #[inline(always)]
    pub fn bool(b: bool) -> f64 {
        mark(FALSE | u64::from(b))
    }

    /// The bool a slot value holds, if it is one.
    #[inline(always)]
    pub fn as_bool(x: f64) -> Option<bool> {
        match x.to_bits() {
            FALSE => Some(false),
            TRUE => Some(true),
            _ => None,
        }
    }

    /// A number as a slot value: every NaN becomes the canonical
    /// quiet NaN, so no input can forge a mark.
    #[inline(always)]
    pub fn num(x: f64) -> f64 {
        if x.is_nan() {
            f64::NAN
        } else {
            x
        }
    }
}

/// The slot layout of a compiled net: field `k` lives in slot `1 + k`.
pub(crate) type Layout = Rc<[String]>;

/// Resolved field positions for injecting records without building a
/// map: obtained once from [`crate::NetExec::record_shape`], then
/// handed to [`crate::Stepper::inject_record`] with one number per
/// field.
#[derive(Clone, Debug)]
pub struct RecordShape {
    names: Box<[String]>,
    slots: Box<[u32]>,
}

impl RecordShape {
    pub(crate) fn new(names: Box<[String]>, slots: Box<[u32]>) -> RecordShape {
        RecordShape { names, slots }
    }

    pub(crate) fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// The record `values` describe, as the reference evaluator and
    /// native closures see it.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not hold one number per field.
    pub fn value(&self, values: &[f64]) -> Value {
        assert_eq!(values.len(), self.names.len(), "one value per field");
        Value::record_owned(
            self.names
                .iter()
                .zip(values)
                .map(|(k, &v)| (k.clone(), Value::num(v))),
        )
    }
}

/// Slot-row token storage addressed by `u32` handles: the payload row
/// (`stride` slots per handle), birth and arrival cycles in parallel
/// arrays, plus the side table for payloads that do not fit a row.
#[derive(Clone, Debug)]
pub(crate) struct TokenArena {
    layout: Layout,
    stride: usize,
    pub(crate) rows: Vec<f64>,
    pub(crate) born: Vec<u64>,
    pub(crate) arrived: Vec<u64>,
    free: Vec<u32>,
    dyns: Vec<Value>,
    dyn_free: Vec<u32>,
}

impl TokenArena {
    pub(crate) fn new(layout: Layout) -> TokenArena {
        TokenArena {
            stride: 1 + layout.len(),
            layout,
            rows: Vec::new(),
            born: Vec::new(),
            arrived: Vec::new(),
            free: Vec::new(),
            dyns: Vec::new(),
            dyn_free: Vec::new(),
        }
    }

    /// The evaluation context of slot expressions over the tokens
    /// `toks`.
    #[inline(always)]
    pub(crate) fn cx<'a>(&'a self, toks: &'a [u32]) -> Cx<'a> {
        Cx {
            rows: &self.rows,
            stride: self.stride,
            toks,
        }
    }

    /// Whether any live payload sits in the side table (then every
    /// slot evaluation must first check that its tokens have rows).
    #[inline(always)]
    pub(crate) fn has_dyn(&self) -> bool {
        self.dyns.len() != self.dyn_free.len()
    }

    /// Whether token `h`'s payload lives in the side table.
    #[inline(always)]
    pub(crate) fn is_dyn(&self, h: u32) -> bool {
        slot::family(self.rows[h as usize * self.stride]) == slot::DYN
    }

    /// A fresh handle; its row holds stale slots until written.
    pub(crate) fn alloc(&mut self, born: u64, arrived: u64) -> u32 {
        match self.free.pop() {
            Some(h) => {
                self.born[h as usize] = born;
                self.arrived[h as usize] = arrived;
                h
            }
            None => {
                let h = self.born.len();
                self.born.push(born);
                self.arrived.push(arrived);
                self.rows
                    .resize(self.rows.len() + self.stride, slot::mark(slot::ABSENT));
                h as u32
            }
        }
    }

    /// Token `h`'s row.
    #[inline(always)]
    pub(crate) fn row_mut(&mut self, h: u32) -> &mut [f64] {
        let s = h as usize * self.stride;
        &mut self.rows[s..s + self.stride]
    }

    /// Writes a record header and marks every field absent.
    #[inline(always)]
    pub(crate) fn clear_record(&mut self, h: u32) {
        let row = self.row_mut(h);
        row[0] = slot::mark(slot::RECORD);
        row[1..].fill(slot::mark(slot::ABSENT));
    }

    /// Stores `v` as token `h`'s payload: in the row if it is flat and
    /// every field is in the layout, else in the side table.
    pub(crate) fn put(&mut self, h: u32, v: Value) {
        if !self.encode(h, &v) {
            let i = match self.dyn_free.pop() {
                Some(i) => {
                    self.dyns[i as usize] = v;
                    i
                }
                None => {
                    self.dyns.push(v);
                    (self.dyns.len() - 1) as u32
                }
            };
            self.row_mut(h)[0] = slot::mark(slot::DYN | u64::from(i));
        }
    }

    /// Encodes a flat `v` into token `h`'s row; `false` (row
    /// unspecified) when it does not fit.
    fn encode(&mut self, h: u32, v: &Value) -> bool {
        let scalar = |v: &Value| match v {
            Value::Num(n) => Some(slot::num(*n)),
            Value::Bool(b) => Some(slot::bool(*b)),
            _ => None,
        };
        if let Value::Record(fields) = v {
            self.clear_record(h);
            let layout = Rc::clone(&self.layout);
            for (k, fv) in fields.iter() {
                let (Some(i), Some(x)) = (layout.iter().position(|n| n == k), scalar(fv)) else {
                    return false;
                };
                self.row_mut(h)[1 + i] = x;
            }
            return true;
        }
        match scalar(v) {
            Some(x) => {
                self.row_mut(h)[0] = x;
                true
            }
            None => false,
        }
    }

    /// Token `h`'s payload as a `Value` (builds the record map; the
    /// stepper calls this only on the fallback route and for
    /// completions that are read).
    pub(crate) fn value(&self, h: u32) -> Value {
        let s = h as usize * self.stride;
        let head = self.rows[s];
        let scalar = |x: f64| match slot::as_bool(x) {
            Some(b) => Value::Bool(b),
            None => Value::Num(x),
        };
        match slot::family(head) {
            slot::RECORD => Value::record_owned(
                self.layout
                    .iter()
                    .zip(&self.rows[s + 1..s + self.stride])
                    .filter(|(_, x)| x.to_bits() != slot::ABSENT)
                    .map(|(k, &x)| (k.clone(), scalar(x))),
            ),
            slot::DYN => self.dyns[slot::index(head)].clone(),
            _ => scalar(head),
        }
    }

    /// Token `h` as an owned [`Token`].
    pub(crate) fn token(&self, h: u32) -> Token {
        Token {
            data: self.value(h),
            born: self.born[h as usize],
            arrived: self.arrived[h as usize],
        }
    }

    /// Makes `dst`'s payload a copy of `src`'s.
    pub(crate) fn copy(&mut self, src: u32, dst: u32) {
        if self.is_dyn(src) {
            let v = self.value(src);
            self.put(dst, v);
        } else {
            let (s, d) = (src as usize * self.stride, dst as usize * self.stride);
            self.rows.copy_within(s..s + self.stride, d);
        }
    }

    /// Frees handle `h` (and its side-table entry, if any).
    pub(crate) fn release(&mut self, h: u32) {
        let head = self.rows[h as usize * self.stride];
        if slot::family(head) == slot::DYN {
            let i = slot::index(head);
            self.dyns[i] = Value::Bool(false);
            self.dyn_free.push(i as u32);
        }
        self.free.push(h);
    }
}

/// The tokens that reached sink places, in arrival order.
///
/// The reference evaluator hands over owned [`Token`]s; the stepper
/// hands over its arena and the retired handles, so a run that only
/// counts completions never builds a payload map. [`Completions::iter`]
/// materializes tokens on demand; [`Completions::times`] reads birth
/// and arrival cycles without touching payloads.
#[derive(Clone)]
pub struct Completions(Repr);

#[derive(Clone)]
enum Repr {
    Tokens(Vec<Token>),
    Arena(TokenArena, Vec<u32>),
}

impl Completions {
    pub(crate) fn from_arena(arena: TokenArena, handles: Vec<u32>) -> Completions {
        Completions(Repr::Arena(arena, handles))
    }

    /// Number of completed tokens.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Tokens(v) => v.len(),
            Repr::Arena(_, hs) => hs.len(),
        }
    }

    /// Whether nothing completed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th completion, if there is one.
    pub fn get(&self, i: usize) -> Option<Token> {
        match &self.0 {
            Repr::Tokens(v) => v.get(i).cloned(),
            Repr::Arena(a, hs) => hs.get(i).map(|&h| a.token(h)),
        }
    }

    /// The completed tokens, materialized one at a time.
    pub fn iter(&self) -> impl Iterator<Item = Token> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("index below len"))
    }

    /// `(born, arrived)` of every completion, without payloads.
    pub fn times(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.len()).map(|i| match &self.0 {
            Repr::Tokens(v) => (v[i].born, v[i].arrived),
            Repr::Arena(a, hs) => {
                let h = hs[i] as usize;
                (a.born[h], a.arrived[h])
            }
        })
    }
}

impl From<Vec<Token>> for Completions {
    fn from(v: Vec<Token>) -> Completions {
        Completions(Repr::Tokens(v))
    }
}

impl PartialEq for Completions {
    fn eq(&self, other: &Completions) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl core::fmt::Debug for Completions {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn birth_time_preserved_through_descent() {
        let t = Token::at(Value::num(1.0), 10);
        let d = t.descend(Value::num(2.0), 25);
        assert_eq!(d.born, 10);
        assert_eq!(d.arrived, 25);
        assert_eq!(d.data.as_num(), Some(2.0));
    }

    #[test]
    fn unit_token() {
        let t = Token::unit(5);
        assert_eq!(t.born, 5);
        assert_eq!(t.data.as_num(), Some(0.0));
    }

    #[test]
    fn marks_are_not_numbers() {
        for bits in [
            slot::FALSE,
            slot::TRUE,
            slot::ABSENT,
            slot::RECORD | 3,
            slot::DYN | 7,
        ] {
            let x = slot::mark(bits);
            assert!(x.is_nan() && slot::is_mark(x));
        }
        for x in [
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            // The default NaN x86 arithmetic produces.
            f64::from_bits(0xFFF8_0000_0000_0000),
        ] {
            assert!(!slot::is_mark(x), "{x}");
        }
        // A NaN forged with a mark's bits is canonicalized on entry.
        assert!(!slot::is_mark(slot::num(slot::mark(slot::TRUE))));
    }

    #[test]
    fn arena_round_trips_every_payload_shape() {
        let layout: Layout = vec!["a".to_string(), "b".to_string()].into();
        let mut arena = TokenArena::new(layout);
        let payloads = [
            Value::num(2.5),
            Value::bool(true),
            Value::record([("a", Value::num(1.0))]),
            Value::record([("a", Value::bool(false)), ("b", Value::num(-3.0))]),
            Value::record([]),
            // Do not fit: a field outside the layout, a nested list, a
            // string.
            Value::record([("c", Value::num(1.0))]),
            Value::record([("a", Value::list(vec![Value::num(1.0)]))]),
            Value::str("x"),
        ];
        for (i, v) in payloads.iter().enumerate() {
            let h = arena.alloc(i as u64, 0);
            arena.put(h, v.clone());
            assert_eq!(arena.is_dyn(h), i >= 5, "{v}");
            assert_eq!(&arena.value(h), v);
            let c = arena.alloc(0, 0);
            arena.copy(h, c);
            assert_eq!(&arena.value(c), v);
            arena.release(c);
        }
        assert!(arena.has_dyn());
    }
}
