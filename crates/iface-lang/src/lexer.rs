//! Lexer for the interface language.

use crate::error::{LangError, Span};

/// A lexical token kind.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Numeric literal (all numbers are `f64`).
    Num(f64),
    /// String literal.
    Str(String),
    /// Identifier.
    Ident(String),
    /// `fn` keyword.
    Fn,
    /// `let` keyword.
    Let,
    /// `const` keyword.
    Const,
    /// `return` keyword.
    Return,
    /// `if` keyword.
    If,
    /// `else` keyword.
    Else,
    /// `for` keyword.
    For,
    /// `in` keyword.
    In,
    /// `while` keyword.
    While,
    /// `true` literal.
    True,
    /// `false` literal.
    False,
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `,`.
    Comma,
    /// `;`.
    Semi,
    /// `.`.
    Dot,
    /// `:`.
    Colon,
    /// `=`.
    Assign,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Star,
    /// `/`.
    Slash,
    /// `%`.
    Percent,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `&&`.
    AndAnd,
    /// `||`.
    OrOr,
    /// `!`.
    Bang,
    /// End of input.
    Eof,
}

/// A token with its source position.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub tok: Tok,
    /// Position of the token's first character.
    pub span: Span,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }
}

/// Lexes PIL source into tokens (ending with [`Tok::Eof`]).
///
/// Comments run from `#` to end of line. Whitespace is insignificant.
pub fn lex(src: &str) -> Result<Vec<Token>, LangError> {
    lex_at(src, 1, 1)
}

/// [`lex`] for text that starts at `line`:`col` of a larger source,
/// so every span is a position in that source.
pub fn lex_at(src: &str, line: u32, col: u32) -> Result<Vec<Token>, LangError> {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line,
        col,
    };
    let mut out = Vec::new();
    loop {
        // Skip whitespace and comments.
        loop {
            match cur.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    cur.bump();
                }
                Some(b'#') => {
                    while let Some(c) = cur.peek() {
                        if c == b'\n' {
                            break;
                        }
                        cur.bump();
                    }
                }
                _ => break,
            }
        }
        let span = cur.span();
        let Some(c) = cur.peek() else {
            out.push(Token {
                tok: Tok::Eof,
                span,
            });
            return Ok(out);
        };
        let tok = match c {
            b'0'..=b'9' => lex_number(&mut cur)?,
            b'"' => lex_string(&mut cur)?,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => lex_ident(&mut cur),
            _ => lex_symbol(&mut cur)?,
        };
        out.push(Token { tok, span });
    }
}

fn lex_number(cur: &mut Cursor<'_>) -> Result<Tok, LangError> {
    let span = cur.span();
    let start = cur.pos;
    while matches!(cur.peek(), Some(b'0'..=b'9')) {
        cur.bump();
    }
    if cur.peek() == Some(b'.') && matches!(cur.peek2(), Some(b'0'..=b'9')) {
        cur.bump();
        while matches!(cur.peek(), Some(b'0'..=b'9')) {
            cur.bump();
        }
    }
    if matches!(cur.peek(), Some(b'e') | Some(b'E')) {
        // Exponent: `e`, optional sign, at least one digit.
        let save = (cur.pos, cur.line, cur.col);
        cur.bump();
        if matches!(cur.peek(), Some(b'+') | Some(b'-')) {
            cur.bump();
        }
        if matches!(cur.peek(), Some(b'0'..=b'9')) {
            while matches!(cur.peek(), Some(b'0'..=b'9')) {
                cur.bump();
            }
        } else {
            (cur.pos, cur.line, cur.col) = save;
        }
    }
    let text = core::str::from_utf8(&cur.src[start..cur.pos]).expect("ascii digits");
    text.parse::<f64>()
        .map(Tok::Num)
        .map_err(|e| LangError::Lex {
            span,
            msg: format!("bad number `{text}`: {e}"),
        })
}

fn lex_string(cur: &mut Cursor<'_>) -> Result<Tok, LangError> {
    let span = cur.span();
    cur.bump(); // Opening quote.
    let mut s = String::new();
    loop {
        match cur.bump() {
            Some(b'"') => return Ok(Tok::Str(s)),
            Some(b'\\') => match cur.bump() {
                Some(b'n') => s.push('\n'),
                Some(b't') => s.push('\t'),
                Some(b'"') => s.push('"'),
                Some(b'\\') => s.push('\\'),
                other => {
                    return Err(LangError::Lex {
                        span,
                        msg: format!("bad escape `\\{}`", other.map(|c| c as char).unwrap_or(' ')),
                    })
                }
            },
            Some(c) => s.push(c as char),
            None => {
                return Err(LangError::Lex {
                    span,
                    msg: "unterminated string literal".into(),
                })
            }
        }
    }
}

fn lex_ident(cur: &mut Cursor<'_>) -> Tok {
    let start = cur.pos;
    while matches!(
        cur.peek(),
        Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
    ) {
        cur.bump();
    }
    let text = core::str::from_utf8(&cur.src[start..cur.pos]).expect("ascii ident");
    match text {
        "fn" => Tok::Fn,
        "let" => Tok::Let,
        "const" => Tok::Const,
        "return" => Tok::Return,
        "if" => Tok::If,
        "else" => Tok::Else,
        "for" => Tok::For,
        "in" => Tok::In,
        "while" => Tok::While,
        "true" => Tok::True,
        "false" => Tok::False,
        _ => Tok::Ident(text.to_string()),
    }
}

fn lex_symbol(cur: &mut Cursor<'_>) -> Result<Tok, LangError> {
    let span = cur.span();
    let c = cur.bump().expect("peeked");
    let two = |cur: &mut Cursor<'_>, next: u8, yes: Tok, no: Tok| {
        if cur.peek() == Some(next) {
            cur.bump();
            yes
        } else {
            no
        }
    };
    let tok = match c {
        b'(' => Tok::LParen,
        b')' => Tok::RParen,
        b'{' => Tok::LBrace,
        b'}' => Tok::RBrace,
        b'[' => Tok::LBracket,
        b']' => Tok::RBracket,
        b',' => Tok::Comma,
        b';' => Tok::Semi,
        b'.' => Tok::Dot,
        b':' => Tok::Colon,
        b'+' => Tok::Plus,
        b'-' => Tok::Minus,
        b'*' => Tok::Star,
        b'/' => Tok::Slash,
        b'%' => Tok::Percent,
        b'=' => two(cur, b'=', Tok::Eq, Tok::Assign),
        b'!' => two(cur, b'=', Tok::Ne, Tok::Bang),
        b'<' => two(cur, b'=', Tok::Le, Tok::Lt),
        b'>' => two(cur, b'=', Tok::Ge, Tok::Gt),
        b'&' => {
            if cur.peek() == Some(b'&') {
                cur.bump();
                Tok::AndAnd
            } else {
                return Err(LangError::Lex {
                    span,
                    msg: "expected `&&`".into(),
                });
            }
        }
        b'|' => {
            if cur.peek() == Some(b'|') {
                cur.bump();
                Tok::OrOr
            } else {
                return Err(LangError::Lex {
                    span,
                    msg: "expected `||`".into(),
                });
            }
        }
        other => {
            return Err(LangError::Lex {
                span,
                msg: format!("unexpected character `{}`", other as char),
            })
        }
    };
    Ok(tok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lex_at_offsets_every_span() {
        let toks = lex_at("a +\n b", 7, 12).unwrap();
        let at: Vec<_> = toks.iter().map(|t| (t.span.line, t.span.col)).collect();
        assert_eq!(at, vec![(7, 12), (7, 14), (8, 2), (8, 3)]);
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(
            kinds("1 2.5 136.5 1e3 2.5e-2"),
            vec![
                Tok::Num(1.0),
                Tok::Num(2.5),
                Tok::Num(136.5),
                Tok::Num(1000.0),
                Tok::Num(0.025),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn number_then_dot_field() {
        // `1.foo` must lex as Num(1), Dot, Ident — not a malformed float.
        assert_eq!(
            kinds("1.foo"),
            vec![Tok::Num(1.0), Tok::Dot, Tok::Ident("foo".into()), Tok::Eof]
        );
    }

    #[test]
    fn lex_keywords_and_idents() {
        assert_eq!(
            kinds("fn foo let in4"),
            vec![
                Tok::Fn,
                Tok::Ident("foo".into()),
                Tok::Let,
                Tok::Ident("in4".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lex_operators() {
        assert_eq!(
            kinds("== != <= >= < > && || ! = + - * / %"),
            vec![
                Tok::Eq,
                Tok::Ne,
                Tok::Le,
                Tok::Ge,
                Tok::Lt,
                Tok::Gt,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Bang,
                Tok::Assign,
                Tok::Plus,
                Tok::Minus,
                Tok::Star,
                Tok::Slash,
                Tok::Percent,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped_and_positions_tracked() {
        let toks = lex("# line one\n  x").unwrap();
        assert_eq!(toks[0].tok, Tok::Ident("x".into()));
        assert_eq!(toks[0].span, Span::at(2, 3));
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(kinds(r#""a\nb""#), vec![Tok::Str("a\nb".into()), Tok::Eof]);
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn bad_characters_rejected() {
        assert!(lex("@").is_err());
        assert!(lex("&").is_err());
        assert!(lex("|x").is_err());
    }
}
