//! `pnet` — command-line tooling for Petri-net performance IRs.
//!
//! ```text
//! pnet check FILE                                 # parse + structural report
//! pnet lint FILE [--entry PLACE]... [--json]      # static perf-lint analyses
//! pnet bound FILE [--entry PLACE]... [--json] [field=LO..HI...]
//!                                                 # structural latency floor +
//!                                                 # throughput ceiling, no
//!                                                 # simulation
//! pnet dot FILE                                   # Graphviz to stdout
//! pnet run FILE PLACE N [field=VAL...]            # inject N tokens, run the
//!                                                 # compiled stepper
//! pnet trace FILE PLACE N [--folded] [--perfetto OUT] [field=VAL...]
//!                                                 # traced run: JSON report
//!                                                 # (or folded stacks) with
//!                                                 # critical-path attribution;
//!                                                 # --perfetto writes a Chrome
//!                                                 # JSON trace for
//!                                                 # ui.perfetto.dev
//! ```
//!
//! Malformed inputs are reported as rendered diagnostics with exit
//! code 1; the tool never panics on user-supplied files.

use perf_core::diag::{Diagnostic, Diagnostics};
use perf_iface_lang::lint::BoxVal;
use perf_petri::token::RecordShape;
use perf_petri::trace::{critical_path, trace_report_json, DEFAULT_TRACE_CAPACITY};
use perf_petri::{analysis, dot, lint, text, NetExec, Options, PetriError};

/// The most tokens `run` and `trace` inject, sized to a 4 GiB memory
/// budget. Peak RSS per token, measured on 2^20-token runs of the jpeg
/// net, is about 85 bytes for `run` (slot row, birth and arrival
/// cycles, queue and calendar entries, completion handle and latency)
/// and 230 bytes for `trace` (plus per-token provenance), so 2^24
/// tokens need at most about 3.8 GB. A larger count is rejected before
/// anything is allocated.
const MAX_TOKENS: usize = 1 << 24;

/// Full help text: every subcommand with every flag. The `--help`
/// output and the short usage line are kept in sync by the
/// `help_mentions_every_subcommand` integration test.
const HELP: &str = "\
pnet — command-line tooling for Petri-net performance IRs

usage:
  pnet check FILE                       parse + structural report
                                        (exit 1 on dead-end places)
  pnet lint FILE [--entry PLACE]... [--json]
                                        static perf-lint analyses;
                                        --entry marks token-injection
                                        places for reachability (inferred
                                        from the net structure when
                                        omitted), --json renders
                                        diagnostics as JSON; exit 1 on
                                        errors
  pnet bound FILE [--entry PLACE]... [--json] [field=LO..HI...]
                                        structural bounds without
                                        simulation: critical-path latency
                                        floor and bottleneck throughput
                                        ceiling, valid for every token
                                        whose payload fields lie in the
                                        given LO..HI boxes (field=V pins
                                        a point; unlisted fields are
                                        unconstrained)
  pnet dot FILE                         Graphviz rendering to stdout
  pnet run FILE PLACE N [field=VAL...]  inject N tokens at PLACE and
                                        run the compiled stepper to
                                        completion; N is at most
                                        16777216 (2^24) for run and
                                        trace
  pnet trace FILE PLACE N [--folded] [--perfetto OUT] [field=VAL...]
                                        traced stepper run with
                                        critical-path attribution (same
                                        records as the reference
                                        evaluator): JSON report, or
                                        folded stacks with --folded;
                                        --perfetto OUT also writes a
                                        Chrome JSON trace (trace-event
                                        format, 1 cycle = 1 us; open at
                                        ui.perfetto.dev) with a
                                        critical-path track whose slice
                                        durations sum exactly to the
                                        makespan, plus one track per
                                        transition.
                                        JSON report fields: net,
                                        makespan, events,
                                        enablement_checks,
                                        firings_recorded,
                                        firings_evicted,
                                        critical_path_total,
                                        transitions[], critical_path[]
  pnet --help                           this text
";

fn usage() -> ! {
    eprintln!(
        "usage: pnet check FILE | pnet lint FILE [--entry PLACE]... [--json] \
         | pnet bound FILE [--entry PLACE]... [--json] [field=LO..HI...] | pnet dot FILE \
         | pnet run FILE PLACE N [field=VAL...] \
         | pnet trace FILE PLACE N [--folded] [--perfetto OUT] [field=VAL...] | pnet --help"
    );
    std::process::exit(2);
}

/// Renders a single load-time diagnostic and exits with code 1.
fn fail(d: Diagnostic, json: bool) -> ! {
    let mut ds = Diagnostics::new();
    ds.push(d);
    if json {
        println!("{}", ds.render_json());
    } else {
        eprint!("{}", ds.render());
    }
    std::process::exit(1);
}

/// Turns a load failure into the corresponding loader diagnostic.
fn load_diag(path: &str, e: &PetriError) -> Diagnostic {
    match e {
        PetriError::Parse { line, msg } => Diagnostic::error("PN002", msg.clone())
            .with_origin(path)
            .with_pos(*line as u32, 0),
        PetriError::Structure(msg) => Diagnostic::error("PN003", msg.clone()).with_origin(path),
        other => Diagnostic::error("PN002", other.to_string()).with_origin(path),
    }
}

/// Parses the shared `FILE PLACE N [field=VAL...]` operands of `run`
/// and `trace` and returns the loaded net, injection place, token
/// count and payload fields.
fn parse_run_args(
    args: &[String],
) -> (
    perf_petri::net::Net,
    perf_petri::net::PlaceId,
    usize,
    Vec<(String, f64)>,
) {
    let net = load(&args[0]);
    let place = net.place_id(&args[1]).unwrap_or_else(|| {
        eprintln!("pnet: no place `{}`", args[1]);
        std::process::exit(1);
    });
    let n: usize = args[2].parse().unwrap_or_else(|_| {
        eprintln!("pnet: bad count `{}`", args[2]);
        std::process::exit(2);
    });
    if n > MAX_TOKENS {
        eprintln!("pnet: count {n} exceeds the limit of {MAX_TOKENS} tokens");
        std::process::exit(2);
    }
    let mut fields = Vec::new();
    for pair in &args[3..] {
        let Some((k, v)) = pair.split_once('=') else {
            eprintln!("pnet: expected field=VALUE, got `{pair}`");
            std::process::exit(2);
        };
        let Ok(num) = v.parse::<f64>() else {
            eprintln!("pnet: non-numeric value in `{pair}`");
            std::process::exit(2);
        };
        fields.push((k.to_string(), num));
    }
    (net, place, n, fields)
}

/// The injected record's slot shape and values.
fn record_shape(exec: &mut NetExec, fields: &[(String, f64)]) -> (RecordShape, Vec<f64>) {
    let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    (
        exec.record_shape(&names),
        fields.iter().map(|&(_, v)| v).collect(),
    )
}

fn load(path: &str) -> perf_petri::net::Net {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
        fail(
            Diagnostic::error("PN001", format!("cannot read file: {e}")).with_origin(path),
            false,
        )
    });
    text::parse(&src).unwrap_or_else(|e| fail(load_diag(path, &e), false))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | Some("help") => {
            print!("{HELP}");
        }
        Some("check") if args.len() == 2 => {
            let net = load(&args[1]);
            let s = analysis::structure(&net);
            println!(
                "{}: net `{}` with {} places, {} transitions",
                args[1],
                net.name,
                net.places().len(),
                net.transitions().len()
            );
            println!("  sources: {}", s.sources.join(", "));
            println!("  sinks:   {}", s.sinks.join(", "));
            println!("  conservative: {}", s.conservative);
            if s.dead_ends.is_empty() {
                println!("  dead ends: none");
            } else {
                println!(
                    "  dead ends: {} <- TOKENS CAN STRAND HERE",
                    s.dead_ends.join(", ")
                );
                std::process::exit(1);
            }
        }
        Some("lint") if args.len() >= 2 => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let json = rest.iter().any(|a| a == "--json");
            rest.retain(|a| a != "--json");
            let mut entries: Vec<String> = Vec::new();
            let mut operands: Vec<String> = Vec::new();
            let mut it = rest.into_iter();
            while let Some(a) = it.next() {
                if a == "--entry" {
                    match it.next() {
                        Some(p) => entries.push(p),
                        None => usage(),
                    }
                } else {
                    operands.push(a);
                }
            }
            let [path] = operands.as_slice() else { usage() };
            let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
                fail(
                    Diagnostic::error("PN001", format!("cannot read file: {e}")).with_origin(path),
                    json,
                )
            });
            let net = text::parse(&src).unwrap_or_else(|e| fail(load_diag(path, &e), json));
            let mut entry_ids = Vec::new();
            for e in &entries {
                match net.place_id(e) {
                    Some(id) => entry_ids.push(id),
                    None => fail(
                        Diagnostic::error("PN003", format!("no place `{e}` for --entry"))
                            .with_origin(path),
                        json,
                    ),
                }
            }
            if entry_ids.is_empty() {
                // Surface what the reachability lints will assume: the
                // structurally-inferred injection places.
                let inferred: Vec<&str> = lint::infer_entries(&net)
                    .into_iter()
                    .map(|id| net.places()[id.index()].name.as_str())
                    .collect();
                if !inferred.is_empty() {
                    eprintln!(
                        "pnet: no --entry given; inferred entry places: {}",
                        inferred.join(", ")
                    );
                }
            }
            let mut ds = lint::lint(
                &net,
                if entry_ids.is_empty() {
                    None
                } else {
                    Some(&entry_ids)
                },
            );
            ds.set_origin(path);
            if json {
                println!("{}", ds.render_json());
            } else {
                print!("{}", ds.render());
            }
            if ds.has_errors() {
                std::process::exit(1);
            }
        }
        Some("bound") if args.len() >= 2 => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let json = rest.iter().any(|a| a == "--json");
            rest.retain(|a| a != "--json");
            let mut entries: Vec<String> = Vec::new();
            let mut operands: Vec<String> = Vec::new();
            let mut it = rest.into_iter();
            while let Some(a) = it.next() {
                if a == "--entry" {
                    match it.next() {
                        Some(p) => entries.push(p),
                        None => usage(),
                    }
                } else {
                    operands.push(a);
                }
            }
            let Some((path, field_specs)) = operands.split_first() else {
                usage()
            };
            let net = load(path);
            let mut fields: Vec<(String, BoxVal)> = Vec::new();
            for pair in field_specs {
                let Some((k, v)) = pair.split_once('=') else {
                    eprintln!("pnet: expected field=LO..HI or field=VALUE, got `{pair}`");
                    std::process::exit(2);
                };
                let iv = if let Some((lo, hi)) = v.split_once("..") {
                    match (lo.parse::<f64>(), hi.parse::<f64>()) {
                        (Ok(lo), Ok(hi)) if lo <= hi => BoxVal::num(lo, hi),
                        _ => {
                            eprintln!("pnet: bad interval in `{pair}` (want LO..HI, LO <= HI)");
                            std::process::exit(2);
                        }
                    }
                } else {
                    match v.parse::<f64>() {
                        Ok(n) => BoxVal::point(n),
                        Err(_) => {
                            eprintln!("pnet: non-numeric value in `{pair}`");
                            std::process::exit(2);
                        }
                    }
                };
                fields.push((k.to_string(), iv));
            }
            let mut entry_ids = Vec::new();
            for e in &entries {
                match net.place_id(e) {
                    Some(id) => entry_ids.push(id),
                    None => fail(
                        Diagnostic::error("PN003", format!("no place `{e}` for --entry"))
                            .with_origin(path),
                        json,
                    ),
                }
            }
            let inferred = entry_ids.is_empty();
            if inferred {
                entry_ids = lint::infer_entries(&net);
            }
            let res = if fields.is_empty() {
                perf_petri::bounds_any(&net, Some(&entry_ids))
            } else {
                let tok = fields
                    .into_iter()
                    .fold(BoxVal::record([]), |bx, (k, iv)| bx.with_field(&k, iv));
                perf_petri::bounds(&net, Some(&entry_ids), &tok)
            };
            let nb =
                res.unwrap_or_else(|e| fail(Diagnostic::error("PN003", e).with_origin(path), json));
            if json {
                // Non-finite bounds (an unconstrained token box) become
                // JSON null rather than the invalid literal `inf`.
                let num = |v: f64| {
                    if v.is_finite() {
                        v.to_string()
                    } else {
                        "null".to_string()
                    }
                };
                let delays: Vec<String> = nb
                    .delays
                    .iter()
                    .map(|(n, iv)| {
                        format!(
                            "{{\"transition\":{n:?},\"lo\":{},\"hi\":{}}}",
                            num(iv.lo),
                            num(iv.hi)
                        )
                    })
                    .collect();
                let entries_json: Vec<String> =
                    nb.entries.iter().map(|e| format!("{e:?}")).collect();
                println!(
                    "{{\"net\":{:?},\"entries\":[{}],\"entries_inferred\":{},\
                     \"latency_floor\":{},\"throughput_ceiling\":{},\"delays\":[{}]}}",
                    net.name,
                    entries_json.join(","),
                    inferred,
                    num(nb.latency_lo),
                    num(nb.throughput_hi),
                    delays.join(",")
                );
            } else {
                println!("{path}: net `{}`", net.name);
                println!(
                    "  entries:            {}{}",
                    nb.entries.join(", "),
                    if inferred { " (inferred)" } else { "" }
                );
                println!("  latency floor:      {} cycles", nb.latency_lo);
                println!("  throughput ceiling: {} items/cycle", nb.throughput_hi);
                println!("  transition delays:");
                let width = nb.delays.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
                for (name, iv) in &nb.delays {
                    println!("    {name:width$}  [{}, {}]", iv.lo, iv.hi);
                }
            }
        }
        Some("dot") if args.len() == 2 => {
            print!("{}", dot::to_dot(&load(&args[1])));
        }
        Some("run") if args.len() >= 4 => {
            let (net, place, n, fields) = parse_run_args(&args[1..]);
            let mut exec = NetExec::new(net);
            let (shape, values) = record_shape(&mut exec, &fields);
            let net = exec.net();
            let mut eng = exec.session(Options::default());
            for _ in 0..n {
                eng.inject_record(place, &shape, &values, 0);
            }
            let res = eng.run().unwrap_or_else(|e| {
                eprintln!("pnet: simulation failed: {e}");
                std::process::exit(1);
            });
            println!("makespan:    {} cycles", res.makespan);
            println!("completions: {}", res.completions.len());
            println!("throughput:  {:.6} tokens/cycle", res.throughput());
            let lats = res.latencies();
            if !lats.is_empty() {
                let avg: f64 = lats.iter().sum::<u64>() as f64 / lats.len() as f64;
                println!(
                    "latency:     avg {:.1}, min {}, max {}",
                    avg,
                    lats.iter().min().expect("nonempty"),
                    lats.iter().max().expect("nonempty")
                );
            }
            let util = analysis::utilization(net, &res);
            if let Some(b) = util.bottleneck {
                println!("bottleneck:  {b}");
            }
            if !res.stranded.is_empty() {
                println!("stranded:    {:?}", res.stranded);
            }
        }
        Some("trace") if args.len() >= 4 => {
            let mut rest: Vec<String> = args[1..].to_vec();
            let folded = rest.iter().any(|a| a == "--folded");
            rest.retain(|a| a != "--folded");
            let mut perfetto: Option<String> = None;
            if let Some(i) = rest.iter().position(|a| a == "--perfetto") {
                rest.remove(i);
                if i >= rest.len() {
                    usage();
                }
                perfetto = Some(rest.remove(i));
            }
            if rest.len() < 3 {
                usage();
            }
            let (net, place, n, fields) = parse_run_args(&rest);
            let mut exec = NetExec::new(net);
            let (shape, values) = record_shape(&mut exec, &fields);
            let net = exec.net();
            let mut eng = exec.session(Options {
                trace: Some(DEFAULT_TRACE_CAPACITY),
                ..Options::default()
            });
            for _ in 0..n {
                eng.inject_record(place, &shape, &values, 0);
            }
            let res = eng.run().unwrap_or_else(|e| {
                eprintln!("pnet: simulation failed: {e}");
                std::process::exit(1);
            });
            let path = critical_path(&res);
            if let Some(out) = &perfetto {
                let doc = perf_petri::trace::chrome_trace_json(net, &res, path.as_ref());
                if let Err(e) = std::fs::write(out, doc) {
                    fail(
                        Diagnostic::error("PN001", format!("cannot write Chrome trace: {e}"))
                            .with_origin(out.as_str()),
                        false,
                    );
                }
                eprintln!("pnet: wrote {out} (open at ui.perfetto.dev)");
            }
            if folded {
                if let Some(p) = &path {
                    print!("{}", p.to_folded(net));
                }
            } else {
                print!("{}", trace_report_json(net, &res, path.as_ref()));
            }
        }
        _ => usage(),
    }
}
