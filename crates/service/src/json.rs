//! A minimal JSON reader for the service's line protocol.
//!
//! The workspace deliberately carries no serialization crates (see
//! `compat/README.md`); every crate hand-rolls its JSON *output*. The
//! service is the first component that must also *read* JSON — client
//! requests arrive as one JSON value per line — so this module adds
//! the smallest parser that covers the protocol: objects, arrays,
//! strings with the common escapes, numbers, booleans, and null.
//!
//! # Examples
//!
//! ```
//! use perf_service::json::Json;
//!
//! let v = Json::parse(r#"{"id": 7, "spec": {"kind": "sized"}}"#).unwrap();
//! assert_eq!(v.get("id").and_then(Json::as_f64), Some(7.0));
//! assert_eq!(
//!     v.get("spec").and_then(|s| s.get("kind")).and_then(Json::as_str),
//!     Some("sized")
//! );
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a bound one line of repeated
/// `[` overflows the stack; protocol values nest three levels deep.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys sorted (insertion order is not preserved).
    Obj(BTreeMap<String, Json>),
}

/// A parse failure, with the byte offset where it happened.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error (the line protocol sends exactly one value per line).
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// `10^0 ..= 10^15`, each exact in an `f64`.
const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// Clinger's fast path for text matching `-?[0-9]+(\.[0-9]+)?` with at
/// most 15 digits: the digits form an integer `m < 10^15 < 2^53` and
/// `10^f` is exact, so the one rounding in `m / 10^f` yields the
/// correctly rounded value, bit-identical to `str::parse::<f64>`.
/// `None` for any other text.
fn short_decimal(text: &[u8]) -> Option<f64> {
    let (neg, digits) = match text.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, text),
    };
    let (int, frac) = match digits.iter().position(|&c| c == b'.') {
        Some(dot) if dot + 1 < digits.len() => (&digits[..dot], &digits[dot + 1..]),
        Some(_) => return None,
        None => (digits, &[][..]),
    };
    if int.is_empty() || int.len() + frac.len() > 15 {
        return None;
    }
    let mut m = 0u64;
    for &c in int.iter().chain(frac) {
        if !c.is_ascii_digit() {
            return None;
        }
        m = m * 10 + u64::from(c - b'0');
    }
    let v = m as f64 / POW10[frac.len()];
    Some(if neg { -v } else { v })
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.bytes[start..self.pos];
        if let Some(v) = short_decimal(text) {
            return Ok(Json::Num(v));
        }
        let text = std::str::from_utf8(text).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one step:
            // each byte is scanned once, so a line parses in linear
            // time. Both stop bytes are ASCII, so a run of valid UTF-8
            // never ends inside a character.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .unwrap_or(rest.len());
            let text = std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid UTF-8"))?;
            out.push_str(text);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("non-UTF-8 \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are out of protocol scope;
                            // map them to the replacement character.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
            }
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            m.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": null, "e": true}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Num(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        assert!(err.msg.contains("nesting"), "{err}");
        // Far past the limit: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn short_decimals_parse_bit_identically() {
        for text in [
            "0",
            "-0",
            "-0.0",
            "0.1",
            "0.3",
            "48.0",
            "4294967295.0",
            "123456789012.345",
            "1234567890123.456",
            "1e3",
            "00012",
        ] {
            let want = text.parse::<f64>().unwrap();
            let got = Json::parse(text).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
        // 15 digits take the fast path; 16 and exponents fall back.
        assert!(short_decimal(b"123456789012.345").is_some());
        assert!(short_decimal(b"1234567890123.456").is_none());
        assert!(short_decimal(b"1e3").is_none());
        for (text, msg) in [("1.2.3", "bad number `1.2.3`"), ("-", "bad number `-`")] {
            assert_eq!(Json::parse(text).unwrap_err().msg, msg);
        }
    }

    #[test]
    fn roundtrips_unicode_and_escapes() {
        let v = Json::parse(r#""café \"quoted\"""#).unwrap();
        assert_eq!(v.as_str(), Some("café \"quoted\""));
        let v = Json::parse(r#""\u00e9\\\/\n\t\r\b\fé€𝄞\"""#).unwrap();
        assert_eq!(v.as_str(), Some("é\\/\n\t\r\u{8}\u{c}é€𝄞\""));
        for (text, msg) in [
            (r#""abc"#, "unterminated string"),
            (r#""a\"#, "bad escape"),
            (r#""a\q""#, "bad escape `\\q`"),
            (r#""\u12zz""#, "bad \\u escape"),
            (r#""\u1"#, "truncated \\u escape"),
        ] {
            assert_eq!(Json::parse(text).unwrap_err().msg, msg, "{text}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Regression: each character re-validated the rest of the line
        // as UTF-8, so a string of n characters took O(n^2) steps:
        // about a minute for this 512 KiB line in a debug build.
        let body = "é".repeat(1 << 18);
        let t0 = std::time::Instant::now();
        let v = Json::parse(&format!("\"{body}\"")).unwrap();
        assert_eq!(v.as_str(), Some(body.as_str()));
        assert!(t0.elapsed().as_secs() < 5, "{:?}", t0.elapsed());
    }
}
