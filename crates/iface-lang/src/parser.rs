//! Recursive-descent parser for the interface language.

use crate::ast::{BinOp, ConstDecl, Expr, FnDecl, Program, Stmt, UnOp};
use crate::error::{LangError, Span};
use crate::lexer::{Tok, Token};

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
}

/// Parses a token stream (as produced by [`crate::lexer::lex`]) into a
/// [`Program`].
pub fn parse(toks: &[Token]) -> Result<Program, LangError> {
    let mut p = Parser { toks, pos: 0 };
    let mut prog = Program::default();
    loop {
        match p.peek() {
            Tok::Eof => return Ok(prog),
            Tok::Fn => prog.functions.push(p.fn_decl()?),
            Tok::Const => prog.consts.push(p.const_decl()?),
            _ => {
                return Err(p.err("expected `fn` or `const` at top level"));
            }
        }
    }
}

/// Parses a token stream that holds exactly one expression.
pub fn parse_expr(toks: &[Token]) -> Result<Expr, LangError> {
    let mut p = Parser { toks, pos: 0 };
    let e = p.expr()?;
    p.expect(&Tok::Eof, "end of expression")?;
    Ok(e)
}

/// How an error message names a token it did not expect.
fn found(tok: &Tok) -> String {
    match tok {
        Tok::Eof => "end of input".into(),
        other => format!("{other:?}"),
    }
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek_span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> &Token {
        let t = &self.toks[self.pos];
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> LangError {
        LangError::Parse {
            span: self.peek_span(),
            msg: msg.into(),
        }
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<Span, LangError> {
        if self.peek() == want {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!("expected {what}, found {}", found(self.peek()))))
        }
    }

    fn ident(&mut self, what: &str) -> Result<(String, Span), LangError> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                let span = self.bump().span;
                Ok((name, span))
            }
            other => Err(self.err(format!("expected {what}, found {}", found(&other)))),
        }
    }

    fn const_decl(&mut self) -> Result<ConstDecl, LangError> {
        let span = self.expect(&Tok::Const, "`const`")?;
        let (name, _) = self.ident("constant name")?;
        self.expect(&Tok::Assign, "`=`")?;
        let init = self.expr()?;
        self.expect(&Tok::Semi, "`;`")?;
        Ok(ConstDecl { name, init, span })
    }

    fn fn_decl(&mut self) -> Result<FnDecl, LangError> {
        let span = self.expect(&Tok::Fn, "`fn`")?;
        let (name, _) = self.ident("function name")?;
        self.expect(&Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                let (p, _) = self.ident("parameter name")?;
                params.push(p);
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "`)`")?;
        let body = self.block()?;
        Ok(FnDecl {
            name,
            params,
            body,
            span,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, LangError> {
        self.expect(&Tok::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace {
            if self.peek() == &Tok::Eof {
                return Err(self.err("unexpected end of input inside block"));
            }
            stmts.push(self.stmt()?);
        }
        self.bump(); // `}`
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        let span = self.peek_span();
        match self.peek().clone() {
            Tok::Let => {
                self.bump();
                let (name, _) = self.ident("binding name")?;
                self.expect(&Tok::Assign, "`=`")?;
                let init = self.expr()?;
                self.expect(&Tok::Semi, "`;`")?;
                Ok(Stmt::Let(name, init, span))
            }
            Tok::Return => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::Semi, "`;`")?;
                Ok(Stmt::Return(e, span))
            }
            Tok::If => {
                self.bump();
                let cond = self.expr()?;
                let then = self.block()?;
                let els = if self.peek() == &Tok::Else {
                    self.bump();
                    if self.peek() == &Tok::If {
                        // `else if` sugar: wrap in a one-statement block.
                        vec![self.stmt()?]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If(cond, then, els, span))
            }
            Tok::For => {
                self.bump();
                let (var, _) = self.ident("loop variable")?;
                self.expect(&Tok::In, "`in`")?;
                let iter = self.expr()?;
                let body = self.block()?;
                Ok(Stmt::For(var, iter, body, span))
            }
            Tok::While => {
                self.bump();
                let cond = self.expr()?;
                let body = self.block()?;
                Ok(Stmt::While(cond, body, span))
            }
            Tok::Ident(name)
                // Either an assignment `x = e;` or an expression stmt.
                if self.toks.get(self.pos + 1).map(|t| &t.tok) == Some(&Tok::Assign) => {
                    self.bump();
                    self.bump();
                    let e = self.expr()?;
                    self.expect(&Tok::Semi, "`;`")?;
                    Ok(Stmt::Assign(name, e, span))
                }
            _ => {
                let e = self.expr()?;
                self.expect(&Tok::Semi, "`;`")?;
                Ok(Stmt::Expr(e, span))
            }
        }
    }

    fn expr(&mut self) -> Result<Expr, LangError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.and_expr()?;
        while self.peek() == &Tok::OrOr {
            let span = self.bump().span;
            let rhs = self.and_expr()?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.cmp_expr()?;
        while self.peek() == &Tok::AndAnd {
            let span = self.bump().span;
            let rhs = self.cmp_expr()?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs), span);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, LangError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Tok::Eq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        let span = self.bump().span;
        let rhs = self.add_expr()?;
        Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs), span))
    }

    fn add_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            let span = self.bump().span;
            let rhs = self.mul_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), span);
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Rem,
                _ => return Ok(lhs),
            };
            let span = self.bump().span;
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), span);
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, LangError> {
        match self.peek() {
            Tok::Minus => {
                let span = self.bump().span;
                let e = self.unary_expr()?;
                Ok(Expr::Unary(UnOp::Neg, Box::new(e), span))
            }
            Tok::Bang => {
                let span = self.bump().span;
                let e = self.unary_expr()?;
                Ok(Expr::Unary(UnOp::Not, Box::new(e), span))
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, LangError> {
        let mut e = self.primary_expr()?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    let span = self.bump().span;
                    let (field, _) = self.ident("field name")?;
                    e = Expr::Field(Box::new(e), field, span);
                }
                Tok::LBracket => {
                    let span = self.bump().span;
                    let idx = self.expr()?;
                    self.expect(&Tok::RBracket, "`]`")?;
                    e = Expr::Index(Box::new(e), Box::new(idx), span);
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, LangError> {
        let span = self.peek_span();
        match self.peek().clone() {
            Tok::Num(n) => {
                self.bump();
                Ok(Expr::Num(n, span))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Str(s, span))
            }
            Tok::True => {
                self.bump();
                Ok(Expr::Bool(true, span))
            }
            Tok::False => {
                self.bump();
                Ok(Expr::Bool(false, span))
            }
            Tok::Ident(name) => {
                self.bump();
                if self.peek() == &Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != &Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if self.peek() == &Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen, "`)`")?;
                    Ok(Expr::Call(name, args, span))
                } else {
                    Ok(Expr::Var(name, span))
                }
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(e)
            }
            Tok::LBracket => {
                self.bump();
                let mut items = Vec::new();
                if self.peek() != &Tok::RBracket {
                    loop {
                        items.push(self.expr()?);
                        if self.peek() == &Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBracket, "`]`")?;
                Ok(Expr::List(items, span))
            }
            Tok::LBrace => {
                self.bump();
                let mut fields = Vec::new();
                if self.peek() != &Tok::RBrace {
                    loop {
                        let (k, _) = self.ident("record key")?;
                        self.expect(&Tok::Colon, "`:`")?;
                        let v = self.expr()?;
                        fields.push((k, v));
                        if self.peek() == &Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBrace, "`}`")?;
                Ok(Expr::Record(fields, span))
            }
            other => Err(self.err(format!("expected expression, found {}", found(&other)))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<Program, LangError> {
        parse(&lex(src).unwrap())
    }

    #[test]
    fn parse_fn_with_params() {
        let p = parse_src("fn f(a, b) { return a + b; }").unwrap();
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].params, vec!["a", "b"]);
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_src("fn f() { return 1 + 2 * 3; }").unwrap();
        let Stmt::Return(Expr::Binary(BinOp::Add, _, rhs, _), _) = &p.functions[0].body[0] else {
            panic!("expected return of binary add");
        };
        assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _, _)));
    }

    #[test]
    fn parens_override_precedence() {
        let p = parse_src("fn f() { return (1 + 2) * 3; }").unwrap();
        let Stmt::Return(Expr::Binary(BinOp::Mul, lhs, _, _), _) = &p.functions[0].body[0] else {
            panic!("expected return of binary mul");
        };
        assert!(matches!(**lhs, Expr::Binary(BinOp::Add, _, _, _)));
    }

    #[test]
    fn parse_control_flow() {
        let src = "fn f(xs) { let c = 0; for x in xs { if x > 2 { c = c + x; } else { c = c - 1; } } while c > 100 { c = c - 100; } return c; }";
        let p = parse_src(src).unwrap();
        assert_eq!(p.functions[0].body.len(), 4);
    }

    #[test]
    fn parse_expr_takes_exactly_one_expression() {
        let e = |src: &str| parse_expr(&lex(src).unwrap());
        assert!(matches!(e("(1 + 2) * 3"), Ok(Expr::Binary(BinOp::Mul, ..))));
        let err = |src: &str| e(src).unwrap_err().to_string();
        assert_eq!(
            err("(1"),
            "parse error at 1:3: expected `)`, found end of input"
        );
        assert_eq!(
            err("1); 2"),
            "parse error at 1:2: expected end of expression, found RParen"
        );
    }

    #[test]
    fn parse_else_if_chain() {
        let src =
            "fn f(x) { if x > 2 { return 1; } else if x > 1 { return 2; } else { return 3; } }";
        let p = parse_src(src).unwrap();
        let Stmt::If(_, _, els, _) = &p.functions[0].body[0] else {
            panic!("expected if");
        };
        assert!(matches!(els[0], Stmt::If(_, _, _, _)));
    }

    #[test]
    fn parse_postfix_chains() {
        let p = parse_src("fn f(m) { return m.subs[0].num_fields; }").unwrap();
        let Stmt::Return(e, _) = &p.functions[0].body[0] else {
            panic!()
        };
        assert!(matches!(e, Expr::Field(_, _, _)));
    }

    #[test]
    fn parse_const_and_record_literals() {
        let p = parse_src("const M = 150; fn f() { return { a: 1, b: [1, 2] }; }").unwrap();
        assert_eq!(p.consts.len(), 1);
        assert_eq!(p.consts[0].name, "M");
    }

    #[test]
    fn error_on_garbage_top_level() {
        assert!(parse_src("let x = 1;").is_err());
        assert!(parse_src("fn f() { return 1 }").is_err()); // Missing `;`.
        assert!(parse_src("fn f() {").is_err());
    }

    #[test]
    fn comparison_is_non_associative() {
        // `a < b < c` parses as `(a < b) < c`? No: cmp is single-shot,
        // so the second `<` terminates the expression and the parser
        // errors on the dangling token.
        assert!(parse_src("fn f(a, b, c) { return a < b < c; }").is_err());
    }
}
