//! The `.pnet` textual interchange format.
//!
//! A performance IR is only an *interface* if a vendor can ship it as an
//! artifact. `.pnet` is a line-oriented description of a timed Petri
//! net whose delay/guard/emit expressions are written in the PIL
//! expression language:
//!
//! ```text
//! # Performance IR for a two-stage decoder.
//! net decoder
//! const MEM = 120;
//!
//! place in_q
//! place work_q cap 8
//! sink done
//!
//! trans huffman
//!   in in_q
//!   out work_q
//!   delay 6 + ceil(t.bits / 32)
//!
//! trans idct
//!   in work_q
//!   out done
//!   delay 64 + MEM
//! ```
//!
//! Grammar (one directive per line, `#` starts a comment):
//!
//! * `net NAME` — net name (must appear first).
//! * `const NAME = EXPR;` — constant visible to all expressions.
//! * `place NAME [cap N]` — a place, optionally bounded.
//! * `sink NAME` — an unbounded completion-recording place.
//! * `trans NAME` — begins a transition block; the following indented
//!   directives apply to it:
//!   * `in PLACE [x N]` — input arc with weight `N` (default 1).
//!   * `out PLACE [x N]` — output arc.
//!   * `delay EXPR` — processing delay in cycles (required).
//!   * `guard EXPR` — enabling condition.
//!   * `emit PLACE EXPR` — payload for the arc to `PLACE` (default:
//!     pass the first input token's payload through).
//!   * `servers N` — concurrent firings (`0` = unlimited, default 1).
//!   * `priority N` — conflict-resolution priority (default 0).

use crate::behavior::{Behavior, Consts, ExprBehavior, ExprSrc};
use crate::net::{Net, NetBuilder, PlaceId, Transition};
use crate::PetriError;
use std::collections::HashMap;

struct PendingTrans {
    name: String,
    line: usize,
    inputs: Vec<(String, usize)>,
    outputs: Vec<(String, usize)>,
    delay: Option<ExprSrc>,
    guard: Option<ExprSrc>,
    emits: HashMap<String, ExprSrc>,
    servers: usize,
    priority: i32,
}

/// Parses `.pnet` source into a [`Net`].
pub fn parse(src: &str) -> Result<Net, PetriError> {
    let mut name: Option<String> = None;
    let mut consts: Vec<ExprSrc> = Vec::new();
    let mut places: Vec<(String, Option<usize>, bool)> = Vec::new();
    let mut transes: Vec<PendingTrans> = Vec::new();

    let err = |line: usize, msg: String| PetriError::Parse { line, msg };

    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = match raw.find('#') {
            Some(i) => &raw[..i],
            None => raw,
        };
        let indent = line.len() - line.trim_start().len();
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (head, rest) = match line.split_once(char::is_whitespace) {
            Some((h, r)) => (h, r.trim()),
            None => (line, ""),
        };
        // `rest` and an emit's expression are suffixes of `line`.
        let at = |text: &str| ExprSrc {
            text: text.to_string(),
            line: lineno,
            col: indent + line.len() - text.len() + 1,
        };
        match head {
            "net" => {
                if name.is_some() {
                    return Err(err(lineno, "duplicate `net` directive".into()));
                }
                if rest.is_empty() {
                    return Err(err(lineno, "`net` needs a name".into()));
                }
                name = Some(rest.to_string());
            }
            "const" => {
                if !rest.contains('=') || !rest.ends_with(';') {
                    return Err(err(lineno, "const syntax: `const NAME = EXPR;`".into()));
                }
                consts.push(at(line));
            }
            "place" | "sink" => {
                let mut parts = rest.split_whitespace();
                let pname = parts
                    .next()
                    .ok_or_else(|| err(lineno, format!("`{head}` needs a name")))?;
                let mut cap = None;
                match (parts.next(), parts.next()) {
                    (None, _) => {}
                    (Some("cap"), Some(n)) => {
                        if head == "sink" {
                            return Err(err(lineno, "sinks are always unbounded".into()));
                        }
                        cap = Some(
                            n.parse::<usize>()
                                .map_err(|_| err(lineno, format!("bad capacity `{n}`")))?,
                        );
                    }
                    _ => return Err(err(lineno, format!("bad `{head}` directive"))),
                }
                places.push((pname.to_string(), cap, head == "sink"));
            }
            "trans" => {
                if rest.is_empty() {
                    return Err(err(lineno, "`trans` needs a name".into()));
                }
                transes.push(PendingTrans {
                    name: rest.to_string(),
                    line: lineno,
                    inputs: Vec::new(),
                    outputs: Vec::new(),
                    delay: None,
                    guard: None,
                    emits: HashMap::new(),
                    servers: 1,
                    priority: 0,
                });
            }
            "in" | "out" => {
                let t = transes
                    .last_mut()
                    .ok_or_else(|| err(lineno, format!("`{head}` outside a transition")))?;
                let mut parts = rest.split_whitespace();
                let pname = parts
                    .next()
                    .ok_or_else(|| err(lineno, format!("`{head}` needs a place name")))?;
                let weight = match (parts.next(), parts.next()) {
                    (None, _) => 1,
                    (Some("x"), Some(n)) => n
                        .parse::<usize>()
                        .map_err(|_| err(lineno, format!("bad weight `{n}`")))?,
                    _ => return Err(err(lineno, format!("bad `{head}` arc syntax"))),
                };
                if head == "in" {
                    t.inputs.push((pname.to_string(), weight));
                } else {
                    t.outputs.push((pname.to_string(), weight));
                }
            }
            "delay" => {
                let t = transes
                    .last_mut()
                    .ok_or_else(|| err(lineno, "`delay` outside a transition".into()))?;
                if t.delay.is_some() {
                    return Err(err(lineno, "duplicate `delay`".into()));
                }
                t.delay = Some(at(rest));
            }
            "guard" => {
                let t = transes
                    .last_mut()
                    .ok_or_else(|| err(lineno, "`guard` outside a transition".into()))?;
                t.guard = Some(at(rest));
            }
            "emit" => {
                let t = transes
                    .last_mut()
                    .ok_or_else(|| err(lineno, "`emit` outside a transition".into()))?;
                let (pname, expr) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| err(lineno, "`emit PLACE EXPR`".into()))?;
                t.emits.insert(pname.to_string(), at(expr.trim()));
            }
            "servers" => {
                let t = transes
                    .last_mut()
                    .ok_or_else(|| err(lineno, "`servers` outside a transition".into()))?;
                t.servers = if rest == "inf" {
                    0
                } else {
                    rest.parse::<usize>()
                        .map_err(|_| err(lineno, format!("bad server count `{rest}`")))?
                };
            }
            "priority" => {
                let t = transes
                    .last_mut()
                    .ok_or_else(|| err(lineno, "`priority` outside a transition".into()))?;
                t.priority = rest
                    .parse::<i32>()
                    .map_err(|_| err(lineno, format!("bad priority `{rest}`")))?;
            }
            other => return Err(err(lineno, format!("unknown directive `{other}`"))),
        }
    }

    let name = name.ok_or(PetriError::Parse {
        line: 1,
        msg: "missing `net NAME` directive".into(),
    })?;

    let consts = Consts::compile(&consts).map_err(|(line, msg)| err(line, msg))?;
    let mut b = NetBuilder::new(name);
    let mut ids: HashMap<String, PlaceId> = HashMap::new();
    for (pname, cap, is_sink) in places {
        let id = if is_sink {
            b.sink(pname.clone())
        } else {
            b.place(pname.clone(), cap)
        };
        ids.insert(pname, id);
    }

    for t in transes {
        let lookup = |n: &str| {
            ids.get(n).copied().ok_or(PetriError::Parse {
                line: t.line,
                msg: format!("transition `{}` references unknown place `{n}`", t.name),
            })
        };
        let inputs: Vec<(PlaceId, usize)> = t
            .inputs
            .iter()
            .map(|(n, w)| Ok((lookup(n)?, *w)))
            .collect::<Result<_, PetriError>>()?;
        let outputs: Vec<(PlaceId, usize)> = t
            .outputs
            .iter()
            .map(|(n, w)| Ok((lookup(n)?, *w)))
            .collect::<Result<_, PetriError>>()?;
        // Any emit that names a place that is not an output arc is a
        // mistake the author should hear about.
        for ename in t.emits.keys() {
            if !t.outputs.iter().any(|(n, _)| n == ename) {
                return Err(PetriError::Parse {
                    line: t.line,
                    msg: format!(
                        "transition `{}` emits to `{ename}` which is not an output arc",
                        t.name
                    ),
                });
            }
        }
        let delay = t.delay.ok_or(PetriError::Parse {
            line: t.line,
            msg: format!("transition `{}` has no `delay`", t.name),
        })?;
        let emit_srcs: Vec<Option<ExprSrc>> = t
            .outputs
            .iter()
            .map(|(n, _)| t.emits.get(n).cloned())
            .collect();
        let behavior =
            ExprBehavior::compile_at(&t.name, &consts, &delay, t.guard.as_ref(), &emit_srcs)
                .map_err(|(line, msg)| err(line, msg))?;
        b.add_transition(Transition {
            name: t.name,
            inputs,
            outputs,
            behavior: Behavior::Expr(behavior),
            servers: t.servers,
            priority: t.priority,
        });
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Token;
    use crate::{CompiledNet, Options};
    use perf_iface_lang::Value;

    const PIPE: &str = "
# Two-stage pipeline.
net pipe
const EXTRA = 2;

place in_q
place mid cap 4
sink done

trans s1
  in in_q
  out mid
  delay 1 + EXTRA

trans s2
  in mid
  out done
  delay t.work
";

    #[test]
    fn parse_and_run_pipeline() {
        let net = parse(PIPE).unwrap();
        assert_eq!(net.name, "pipe");
        assert_eq!(net.places().len(), 3);
        assert_eq!(net.transitions().len(), 2);
        let src = net.place_id("in_q").unwrap();
        let plan = CompiledNet::compile(&net);
        let mut e = plan.stepper(&net, Options::default());
        for _ in 0..5 {
            e.inject(
                src,
                Token::at(Value::record([("work", Value::num(4.0))]), 0),
            );
        }
        let r = e.run().unwrap();
        assert_eq!(r.completions.len(), 5);
        // Bottleneck: 4-cycle stage 2.
        assert!(r.makespan >= 20);
    }

    #[test]
    fn emit_and_guard_directives() {
        let src = "
net g
place a
sink yes
sink no
trans pick
  in a
  out yes
  guard t.v < 10
  emit yes { v: t.v, small: true }
  delay 1
  priority 1
trans fallback
  in a
  out no
  delay 1
";
        let net = parse(src).unwrap();
        let a = net.place_id("a").unwrap();
        let plan = CompiledNet::compile(&net);
        let mut e = plan.stepper(&net, Options::default());
        e.inject(a, Token::at(Value::record([("v", Value::num(3.0))]), 0));
        e.inject(a, Token::at(Value::record([("v", Value::num(30.0))]), 1));
        let r = e.run().unwrap();
        assert_eq!(r.completions.len(), 2);
        let small = r
            .completions
            .iter()
            .find(|t| t.data.field("small").is_some())
            .expect("one token through the guarded path");
        assert_eq!(small.data.field("v").unwrap().as_num(), Some(3.0));
    }

    #[test]
    fn weighted_arcs_and_servers() {
        let src = "
net w
place a
sink z
trans batch
  in a x 3
  out z
  delay 2
  servers inf
";
        let net = parse(src).unwrap();
        let a = net.place_id("a").unwrap();
        let plan = CompiledNet::compile(&net);
        let mut e = plan.stepper(&net, Options::default());
        for _ in 0..9 {
            e.inject(a, Token::at(Value::num(0.0), 0));
        }
        let r = e.run().unwrap();
        assert_eq!(r.completions.len(), 3);
        assert_eq!(r.makespan, 2); // Infinite servers: all batches parallel.
    }

    #[test]
    fn missing_net_directive() {
        assert!(matches!(
            parse("place a"),
            Err(PetriError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn missing_delay_reported_with_line() {
        let src = "net n\nplace a\nsink z\ntrans t\n  in a\n  out z\n";
        let e = parse(src).unwrap_err();
        let PetriError::Parse { line, msg } = e else {
            panic!("expected parse error, got {e:?}")
        };
        assert_eq!(line, 4);
        assert!(msg.contains("no `delay`"));
    }

    #[test]
    fn unknown_place_in_arc() {
        let src = "net n\nplace a\ntrans t\n  in a\n  out nowhere\n  delay 1\n";
        assert!(parse(src).is_err());
    }

    #[test]
    fn emit_to_non_output_rejected() {
        let src =
            "net n\nplace a\nsink z\nsink w\ntrans t\n  in a\n  out z\n  emit w 1\n  delay 1\n";
        let e = parse(src).unwrap_err();
        assert!(matches!(e, PetriError::Parse { .. }));
    }

    /// A malformed expression is reported at its own line and column,
    /// naming the transition and the role, and in terms of the user's
    /// text: an unbalanced expression ends, it does not run into
    /// generated code.
    #[test]
    fn bad_expression_reported() {
        let head = "net n\nplace a\nsink z\ntrans t\n  in a\n  out z\n";
        let end = "found end of input";
        for (tail, line, msg) in [
            (
                "  delay 1 +\n",
                7,
                format!("delay at 7:12: parse error: expected expression, {end}"),
            ),
            (
                "  delay 1\n  guard (1 <\n",
                8,
                format!("guard at 8:13: parse error: expected expression, {end}"),
            ),
            (
                "  delay (1\n",
                7,
                format!("delay at 7:11: parse error: expected `)`, {end}"),
            ),
            (
                "  delay 1); 2\n",
                7,
                "delay at 7:10: parse error: expected end of expression, found RParen".into(),
            ),
            (
                "  delay 1\n  emit z {v: (t}\n",
                8,
                "emit 0 at 8:16: parse error: expected `)`, found RBrace".into(),
            ),
        ] {
            let msg = format!("transition `t` {msg}");
            let want = PetriError::Parse { line, msg };
            assert_eq!(parse(&format!("{head}{tail}")).unwrap_err(), want);
        }
    }

    /// A malformed constant is reported at its own line and column,
    /// once, whether or not any transition reads it.
    #[test]
    fn bad_constant_reported_at_its_own_line() {
        let want = |line| PetriError::Parse {
            line,
            msg: format!("const at {line}:14: parse error: expected expression, found Semi"),
        };
        let src = "net n\nconst K = 1 +;\nplace a\nsink z\ntrans t\n  in a\n  out z\n  delay K\n";
        assert_eq!(parse(src).unwrap_err(), want(2));
        // No transition compiles the constants here; they are still
        // checked.
        let src = "net n\nplace a\n\n  const K = 1 +;\n";
        let want = PetriError::Parse {
            line: 4,
            msg: "const at 4:16: parse error: expected expression, found Semi".into(),
        };
        assert_eq!(parse(src).unwrap_err(), want);
        // A constant that fails to evaluate names its own position too.
        let src = "net n\nconst A = 2;\nconst B = [1][A];\n";
        let PetriError::Parse { line, msg } = parse(src).unwrap_err() else {
            panic!("expected a parse error")
        };
        assert_eq!(line, 3);
        assert!(msg.starts_with("const at 3:"), "{msg}");
    }

    /// Constants are evaluated once per net and shared: every
    /// transition sees the same values, later constants see earlier
    /// ones.
    #[test]
    fn constants_are_shared_by_every_transition() {
        let src = "net n\nconst A = 2;\nconst B = A * 3;\nplace a\nplace m\nsink z\n\
                   trans s\n  in a\n  out m\n  delay A\ntrans u\n  in m\n  out z\n  delay B\n";
        let net = parse(src).unwrap();
        let delays: Vec<_> = net
            .transitions()
            .iter()
            .map(|t| t.behavior.const_delay())
            .collect();
        assert_eq!(delays, vec![Some(2.0), Some(6.0)]);
    }

    #[test]
    fn sink_with_capacity_rejected() {
        assert!(parse("net n\nsink z cap 4\n").is_err());
    }

    #[test]
    fn unknown_directive_rejected() {
        assert!(parse("net n\nfrobnicate x\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "net n # trailing comment\n\n# full-line comment\nplace a\n";
        let net = parse(src).unwrap();
        assert_eq!(net.places().len(), 1);
    }

    #[test]
    fn duplicate_net_rejected() {
        assert!(parse("net a\nnet b\n").is_err());
    }
}
