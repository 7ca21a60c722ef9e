//! Cross-tier consistency checker (`perf-xcheck`).
//!
//! A vendor ships three performance interfaces per accelerator — prose
//! with machine-checkable claims, an executable `.pi` program, and a
//! timed Petri net — at three fidelities. Nothing so far guaranteed
//! they *agree*. This crate proves pairwise consistency statically,
//! without running a single simulation:
//!
//! * the **program tier** is evaluated symbolically over the
//!   accelerator's declared workload *box* (per-feature intervals)
//!   with the interval abstract interpreter in
//!   [`perf_iface_lang::lint`], yielding guaranteed `[lo, hi]`
//!   latency/throughput enclosures;
//! * the **net tier** contributes structural bounds from
//!   [`perf_petri::bound`]: a critical-path latency floor and a
//!   bottleneck-transition throughput ceiling, both valid for every
//!   token drawn from the same box;
//! * the **NL tier**'s claims are probed against the program tier at
//!   concretized box points (`BoxVal::sample`) with the claim checker
//!   in [`perf_core::nl`].
//!
//! Containment direction: the net's floor is a *proof* that no item
//! finishes faster, so a program promising a lower latency (`XT101`)
//! or a higher rate than the net's ceiling (`XT102`) is lying at one
//! tier or the other. Disagreements surface as `XT0xx`/`XT1xx`
//! diagnostics through [`perf_core::diag`]; composite pipelines
//! additionally get the topology lints (`PC0xx`) from
//! [`perf_compose::lint`].

#![deny(missing_docs)]

use perf_compose::ShippedNet;
use perf_core::diag::{Diagnostic, Diagnostics};
use perf_core::nl::{Claim, NlInterface, Quantity};
use perf_core::CoreError;
use perf_iface_lang::lint::{bound_fn, BoxVal};
use perf_iface_lang::{Program, Value};
use perf_petri::{bounds, bounds_any, Net, PlaceId};

/// The cross-tier check catalog: code, summary.
pub const XCHECK_CODES: &[(&str, &str)] = &[
    (
        "XT001",
        "bound extraction failed: a tier could not be analyzed (program \
         function missing or unanalyzable, net unparsable, no entry→sink path)",
    ),
    (
        "XT002",
        "negative bound: an extracted latency/throughput interval admits \
         values below zero",
    ),
    (
        "XT003",
        "unbounded enclosure: an extracted interval has an infinite upper \
         end over the declared (finite) workload box (warning)",
    ),
    (
        "XT101",
        "program latency floor below the net's structural floor: the program \
         promises a latency the net proves impossible",
    ),
    (
        "XT102",
        "program throughput ceiling above the net's structural ceiling: the \
         program promises a rate the net's bottleneck cannot sustain",
    ),
    (
        "XT103",
        "NL claim contradicted by program-tier probes over the workload box",
    ),
    (
        "XT104",
        "NL proportionality claim outside tolerance against program-tier \
         probes (warning)",
    ),
    (
        "XT105",
        "NL claim references a workload feature the declared box does not \
         cover (no probe registered for its metric/axis)",
    ),
];

/// How a claim's metric is computed from the program tier at one axis
/// value.
type ProbeFn = fn(&Program, f64) -> Result<f64, String>;

/// Registered program-tier probe for one NL claim axis.
struct ClaimProbe {
    metric: Quantity,
    axis: &'static str,
    /// Axis interval the probe sweeps.
    lo: f64,
    hi: f64,
    eval: ProbeFn,
}

/// Everything the checker knows about one accelerator's shipped tiers:
/// the registry row's artifacts plus the checker-only inputs.
struct AccelSpec {
    pi_origin: &'static str,
    pi_src: String,
    /// Latency-valued functions to extract, each over its input box.
    /// Functions named `latency_*` are point predictors and must not
    /// undercut any net floor (`XT101`).
    latency_fns: Vec<(&'static str, BoxVal)>,
    /// Throughput-valued functions; no ceiling may exceed any net's
    /// structural ceiling (`XT102`).
    tput_fns: Vec<(&'static str, BoxVal)>,
    nets: Vec<ShippedNet>,
    /// Feature box of every net's tokens.
    token_box: BoxVal,
    nl: NlInterface,
    probes: Vec<ClaimProbe>,
}

fn call_num(prog: &Program, f: &str, arg: Value) -> Result<f64, String> {
    prog.call(f, &[arg])
        .map_err(|e| e.to_string())?
        .as_num()
        .ok_or_else(|| format!("`{f}` returned a non-number"))
}

fn jpeg_img(orig_size: f64, compress_rate: f64) -> Value {
    Value::record([
        ("orig_size", Value::num(orig_size)),
        ("compress_rate", Value::num(compress_rate)),
    ])
}

/// A leaf protobuf message wrapped `depth` times: each level adds one
/// sub-message pointer chase on the read path and two field writes on
/// the write path, mirroring the NL claim's nesting axis.
fn nested_msg(depth: usize) -> Value {
    let mut writes = 4.0;
    let mut wire = 64.0;
    let mut m = Value::record([
        ("num_fields", Value::num(4.0)),
        ("num_writes", Value::num(writes)),
        ("wire_bytes", Value::num(wire)),
        ("subs", Value::list(vec![])),
    ]);
    for _ in 0..depth {
        writes += 2.0;
        wire += 16.0;
        m = Value::record([
            ("num_fields", Value::num(2.0)),
            ("num_writes", Value::num(writes)),
            ("wire_bytes", Value::num(wire)),
            ("subs", Value::list(vec![m])),
        ]);
    }
    m
}

fn vta_insn(m: f64, gemm: f64, alu: f64, mem: f64, fin: f64, bytes: f64, macs: f64) -> Value {
    Value::record([
        ("m", Value::num(m)),
        ("is_gemm", Value::num(gemm)),
        ("is_alu", Value::num(alu)),
        ("is_mem", Value::num(mem)),
        ("is_fin", Value::num(fin)),
        ("bytes", Value::num(bytes)),
        ("macs", Value::num(macs)),
        ("ops", Value::num(0.0)),
    ])
}

/// A canonical load→GEMM→store→finish block, parameterized on the GEMM
/// extent and the load transfer size (the two NL claim axes).
fn vta_block(macs: f64, load_bytes: f64) -> Value {
    Value::record([(
        "insns",
        Value::list(vec![
            vta_insn(0.0, 0.0, 0.0, 1.0, 0.0, load_bytes, 0.0),
            vta_insn(1.0, 1.0, 0.0, 0.0, 0.0, 0.0, macs),
            vta_insn(2.0, 0.0, 0.0, 1.0, 0.0, 128.0, 0.0),
            vta_insn(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
        ]),
    )])
}

/// Assembles the checker's view of a registered accelerator: the
/// registry row's artifacts, plus the function lists and claim probes
/// kept here by name. A row with no entry in this table has no probes,
/// so each of its NL claims reports `XT105`.
fn spec(accel: &str) -> Result<AccelSpec, CoreError> {
    let a = perf_compose::accel(accel)?;
    let (w, t) = ((a.workload_box)(), (a.token_box)());
    let (latency_fns, tput_fns, probes) = match a.name {
        "jpeg-decoder" => (
            vec![("latency_jpeg_decode", w.clone())],
            vec![("tput_jpeg_decode", w)],
            vec![
                ClaimProbe {
                    metric: Quantity::Latency,
                    axis: "compress_rate",
                    lo: 1.5,
                    hi: 64.0,
                    eval: |p, x| call_num(p, "latency_jpeg_decode", jpeg_img(512.0 * 512.0, x)),
                },
                ClaimProbe {
                    metric: Quantity::Latency,
                    axis: "orig_size",
                    lo: 65536.0,
                    hi: 4_194_304.0,
                    eval: |p, x| call_num(p, "latency_jpeg_decode", jpeg_img(x, 8.0)),
                },
                ClaimProbe {
                    metric: Quantity::Throughput,
                    axis: "compress_rate",
                    lo: 1.5,
                    hi: 64.0,
                    eval: |p, x| call_num(p, "tput_jpeg_decode", jpeg_img(512.0 * 512.0, x)),
                },
            ],
        ),
        "bitcoin-miner" => (
            vec![
                ("latency_hash", w.clone()),
                ("latency_scan", w.clone()),
                ("min_latency_job", w.clone()),
                ("max_latency_job", w.clone()),
            ],
            vec![
                ("tput_hash", w.clone()),
                ("min_tput_job", w.clone()),
                ("max_tput_job", w),
            ],
            vec![
                ClaimProbe {
                    metric: Quantity::Latency,
                    axis: "loop",
                    lo: 1.0,
                    hi: 128.0,
                    eval: |p, x| {
                        call_num(p, "latency_hash", Value::record([("loop", Value::num(x))]))
                    },
                },
                ClaimProbe {
                    metric: Quantity::Throughput,
                    axis: "loop",
                    lo: 1.0,
                    hi: 128.0,
                    eval: |p, x| call_num(p, "tput_hash", Value::record([("loop", Value::num(x))])),
                },
                ClaimProbe {
                    metric: Quantity::Area,
                    axis: "loop",
                    lo: 1.0,
                    hi: 128.0,
                    // The prose scopes "grows inversely" to the datapath,
                    // so the fixed control/I/O area is subtracted — the
                    // same reading the miner's own NL test uses.
                    eval: |p, x| {
                        call_num(p, "area_kge", Value::record([("loop", Value::num(x))]))
                            .map(|a| a - 48.0)
                    },
                },
            ],
        ),
        "protoacc" => (
            vec![
                ("min_latency_protoacc_ser", w.clone()),
                ("max_latency_protoacc_ser", w.clone()),
                ("read_cost", w.clone()),
                ("read_cost_worst", w.clone()),
            ],
            vec![("tput_protoacc_ser", w)],
            vec![
                ClaimProbe {
                    metric: Quantity::Throughput,
                    axis: "nesting_depth",
                    lo: 0.0,
                    hi: 6.0,
                    eval: |p, x| call_num(p, "tput_protoacc_ser", nested_msg(x.round() as usize)),
                },
                ClaimProbe {
                    metric: Quantity::Latency,
                    axis: "nesting_depth",
                    lo: 0.0,
                    hi: 6.0,
                    eval: |p, x| {
                        call_num(
                            p,
                            "max_latency_protoacc_ser",
                            nested_msg(x.round() as usize),
                        )
                    },
                },
            ],
        ),
        "vta" => (
            vec![("latency_vta", w.clone()), ("insn_cost", t.clone())],
            vec![("tput_vta", w)],
            vec![
                ClaimProbe {
                    metric: Quantity::Latency,
                    axis: "total_macs",
                    lo: 8.0,
                    hi: 65536.0,
                    eval: |p, x| call_num(p, "latency_vta", vta_block(x, 256.0)),
                },
                ClaimProbe {
                    metric: Quantity::Latency,
                    axis: "dma_bytes",
                    lo: 16.0,
                    hi: 4096.0,
                    eval: |p, x| call_num(p, "latency_vta", vta_block(512.0, x)),
                },
            ],
        ),
        _ => (Vec::new(), Vec::new(), Vec::new()),
    };
    Ok(AccelSpec {
        pi_origin: a.pi_origin,
        pi_src: a.pi_src.to_string(),
        latency_fns,
        tput_fns,
        nets: (a.nets)(),
        token_box: t,
        nl: (a.nl)(),
        probes,
    })
}

/// Extracted program-tier enclosure for one function.
struct FnBound {
    name: &'static str,
    lo: f64,
    hi: f64,
}

/// Extracts `[lo, hi]` for each `(fn, box)` pair, reporting `XT001`/
/// `XT002`/`XT003` as it goes; returns the successful enclosures.
fn extract_fns(
    prog: &Program,
    origin: &str,
    fns: &[(&'static str, BoxVal)],
    ds: &mut Diagnostics,
) -> Vec<FnBound> {
    let mut out = Vec::new();
    for (name, bx) in fns {
        match bound_fn(prog.ast(), name, bx) {
            Err(e) => ds.push(
                Diagnostic::error("XT001", format!("cannot bound `{name}`: {e}"))
                    .with_origin(origin)
                    .with_at(format!("fn `{name}`")),
            ),
            Ok(iv) => {
                if iv.lo < 0.0 {
                    ds.push(
                        Diagnostic::error(
                            "XT002",
                            format!(
                                "`{name}` admits negative values over the workload box: \
                                 [{}, {}]",
                                iv.lo, iv.hi
                            ),
                        )
                        .with_origin(origin)
                        .with_at(format!("fn `{name}`")),
                    );
                }
                if !iv.hi.is_finite() {
                    ds.push(
                        Diagnostic::warning(
                            "XT003",
                            format!(
                                "`{name}` is unbounded above over the declared workload box \
                                 (lo = {})",
                                iv.lo
                            ),
                        )
                        .with_origin(origin)
                        .with_at(format!("fn `{name}`")),
                    );
                }
                out.push(FnBound {
                    name,
                    lo: iv.lo,
                    hi: iv.hi,
                });
            }
        }
    }
    out
}

fn resolve_entries(net: &Net, names: &[&str]) -> Result<Vec<PlaceId>, String> {
    names
        .iter()
        .map(|n| {
            net.place_id(n)
                .ok_or_else(|| format!("entry place `{n}` not in net"))
        })
        .collect()
}

/// Cross-checks one shipped accelerator's three interface tiers.
/// Returns the (sorted) findings; an empty set is the proof that the
/// tiers agree on every checked bound.
pub fn xcheck_accel(accel: &str) -> Result<Diagnostics, CoreError> {
    Ok(run_spec(accel, &spec(accel)?))
}

/// The containment engine proper, separated from the spec lookup so the
/// mutation corpus can run it against deliberately corrupted tiers.
fn run_spec(accel: &str, spec: &AccelSpec) -> Diagnostics {
    let mut ds = Diagnostics::new();

    let prog = match Program::parse(&spec.pi_src) {
        Ok(p) => p,
        Err(e) => {
            ds.push(
                Diagnostic::error("XT001", format!("program does not parse: {e}"))
                    .with_origin(spec.pi_origin),
            );
            ds.sort();
            return ds;
        }
    };

    let lat = extract_fns(&prog, spec.pi_origin, &spec.latency_fns, &mut ds);
    let tput = extract_fns(&prog, spec.pi_origin, &spec.tput_fns, &mut ds);

    // Net structural bounds, and program-vs-net containment.
    for ns in &spec.nets {
        let nb = perf_petri::text::parse(&ns.src)
            .map_err(|e| e.to_string())
            .and_then(|net| {
                let entries = resolve_entries(&net, &ns.entries)?;
                bounds(&net, Some(&entries), &spec.token_box)
            });
        let nb = match nb {
            Ok(nb) => nb,
            Err(e) => {
                ds.push(
                    Diagnostic::error("XT001", format!("cannot bound net: {e}"))
                        .with_origin(ns.origin),
                );
                continue;
            }
        };
        for fb in &lat {
            // Only point predictors promise "this workload takes f(w)
            // cycles"; bounds functions (min_/max_) legitimately quote
            // optimistic floors below any single path's cost.
            if fb.name.starts_with("latency_") && fb.lo < nb.latency_lo - 1e-9 {
                ds.push(
                    Diagnostic::error(
                        "XT101",
                        format!(
                            "`{}` promises latencies down to {} cycles, but the net's \
                             critical-path floor is {} cycles: no token can finish that fast",
                            fb.name, fb.lo, nb.latency_lo
                        ),
                    )
                    .with_origin(spec.pi_origin)
                    .with_at(format!("fn `{}` vs {}", fb.name, ns.origin)),
                );
            }
        }
        for fb in &tput {
            if fb.hi > nb.throughput_hi * (1.0 + 1e-9) {
                ds.push(
                    Diagnostic::error(
                        "XT102",
                        format!(
                            "`{}` promises rates up to {} items/cycle, but the net's \
                             bottleneck ceiling is {} items/cycle",
                            fb.name, fb.hi, nb.throughput_hi
                        ),
                    )
                    .with_origin(spec.pi_origin)
                    .with_at(format!("fn `{}` vs {}", fb.name, ns.origin)),
                );
            }
        }
    }

    // NL claims vs program-tier probes.
    let nl_origin = format!("{accel}.nl");
    for claim in &spec.nl.claims {
        let probe = spec
            .probes
            .iter()
            .find(|p| p.metric == claim.metric() && p.axis == claim.axis());
        let Some(probe) = probe else {
            ds.push(
                Diagnostic::error(
                    "XT105",
                    format!(
                        "claim about {} along `{}` has no program-tier probe: the declared \
                         workload model does not cover that feature",
                        claim.metric().name(),
                        claim.axis()
                    ),
                )
                .with_origin(nl_origin.clone()),
            );
            continue;
        };
        let mut samples = Vec::new();
        let mut failed = false;
        for i in 0..5 {
            let t = i as f64 / 4.0;
            let x = probe.lo + t * (probe.hi - probe.lo);
            match (probe.eval)(&prog, x) {
                Ok(y) => samples.push((x, y)),
                Err(e) => {
                    ds.push(
                        Diagnostic::error(
                            "XT001",
                            format!(
                                "probe for {} along `{}` failed at {x}: {e}",
                                claim.metric().name(),
                                claim.axis()
                            ),
                        )
                        .with_origin(nl_origin.clone()),
                    );
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            continue;
        }
        match claim.check(&samples) {
            Err(e) => ds.push(
                Diagnostic::error(
                    "XT001",
                    format!("claim along `{}` is uncheckable: {e}", claim.axis()),
                )
                .with_origin(nl_origin.clone()),
            ),
            Ok(v) if !v.holds => {
                let approx = matches!(
                    claim,
                    Claim::Proportional { .. } | Claim::InverselyProportional { .. }
                );
                let d = if approx {
                    Diagnostic::warning(
                        "XT104",
                        format!(
                            "claim that {} is {} `{}` deviates by {:.3} against the program \
                             tier",
                            claim.metric().name(),
                            match claim {
                                Claim::InverselyProportional { .. } => "inversely proportional to",
                                _ => "proportional to",
                            },
                            claim.axis(),
                            v.worst_violation
                        ),
                    )
                } else {
                    Diagnostic::error(
                        "XT103",
                        format!(
                            "claim about {} along `{}` is contradicted by program-tier \
                             probes (worst violation {:.3})",
                            claim.metric().name(),
                            claim.axis(),
                            v.worst_violation
                        ),
                    )
                };
                ds.push(d.with_origin(nl_origin.clone()));
            }
            Ok(_) => {}
        }
    }

    ds.sort();
    ds
}

/// Cross-checks a composite pipeline: the `PC0xx` topology lints, the
/// composite net's structural lints, and sanity of the composite net's
/// extracted bounds (tokens unconstrained — stage behaviors are
/// opaque at composition time).
pub fn xcheck_topology(topo: &perf_compose::Topology) -> Diagnostics {
    let mut ds = perf_compose::lint::lint(topo);
    let origin = format!("composite `{}`", topo.name);
    match perf_compose::Composite::new(topo.clone()) {
        Err(e) => ds.push(
            Diagnostic::error("XT001", format!("composite does not build: {e}"))
                .with_origin(origin),
        ),
        Ok(c) => {
            ds.merge(c.lint_net().with_origin(&origin));
            match c.build_net() {
                Err(e) => ds.push(
                    Diagnostic::error("XT001", format!("composite net does not build: {e}"))
                        .with_origin(origin),
                ),
                Ok(net) => {
                    let entry = net.place_id("in");
                    match bounds_any(&net, entry.as_ref().map(std::slice::from_ref)) {
                        Err(e) => ds.push(
                            Diagnostic::error("XT001", format!("cannot bound composite net: {e}"))
                                .with_origin(origin),
                        ),
                        Ok(nb) => {
                            if nb.latency_lo < 0.0 {
                                ds.push(
                                    Diagnostic::error(
                                        "XT002",
                                        format!(
                                            "composite net latency floor is negative: {}",
                                            nb.latency_lo
                                        ),
                                    )
                                    .with_origin(origin),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    ds.sort();
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_core::Severity;

    #[test]
    fn all_shipped_accelerators_xcheck_clean() {
        for a in &perf_compose::ACCELS {
            let accel = a.name;
            let ds = xcheck_accel(accel).unwrap();
            assert_eq!(ds.count(Severity::Error), 0, "{accel}:\n{}", ds.render());
            assert_eq!(ds.count(Severity::Warning), 0, "{accel}:\n{}", ds.render());
        }
    }

    #[test]
    fn unknown_accelerator_is_rejected() {
        assert!(xcheck_accel("warp-drive").is_err());
    }

    #[test]
    fn codes_table_is_sorted_and_unique() {
        for w in XCHECK_CODES.windows(2) {
            assert!(w[0].0 < w[1].0, "{} vs {}", w[0].0, w[1].0);
        }
    }

    /// Every compiled shipped program must pass the bytecode verifier
    /// (`PBC0xx`) — the acceptance gate for the codegen itself. Seeded
    /// bytecode defects live next to the verifier in
    /// `perf_iface_lang::vm`.
    #[test]
    fn verifier_accepts_all_shipped_programs() {
        use perf_iface_lang::vm::CompiledProgram;
        for a in &perf_compose::ACCELS {
            let accel = a.name;
            let s = spec(accel).unwrap();
            let prog = Program::parse(&s.pi_src).unwrap();
            let ds = CompiledProgram::compile(&prog).unwrap().verify();
            assert!(!ds.has_errors(), "{accel}:\n{}", ds.render());
        }
    }

    /// Mutation corpus: each test seeds exactly one defect into one
    /// tier of a shipped artifact set and asserts the checker pins it
    /// with the expected code — zero false negatives by construction.
    mod mutations {
        use super::super::*;
        use perf_core::nl::Direction;
        use perf_core::Severity;

        fn jpeg() -> AccelSpec {
            spec("jpeg-decoder").unwrap()
        }

        fn check(accel: &str, s: &AccelSpec, code: &str) -> Diagnostics {
            let ds = run_spec(accel, s);
            assert!(ds.find(code).is_some(), "expected {code}:\n{}", ds.render());
            ds
        }

        // -- program tier --

        #[test]
        fn program_undercutting_net_floor_is_xt101() {
            let mut s = jpeg();
            s.pi_src = s
                .pi_src
                .replace("const HEADER_CYCLES = 456;", "const HEADER_CYCLES = 0;")
                .replace("const FILL = 160;", "const FILL = 0;");
            check("jpeg-decoder", &s, "XT101");
        }

        #[test]
        fn program_overclaiming_throughput_is_xt102() {
            let mut s = jpeg();
            s.pi_src = s
                .pi_src
                .replace("return 1 / latency_jpeg_decode(img);", "return 1;");
            check("jpeg-decoder", &s, "XT102");
        }

        #[test]
        fn negative_latency_bound_is_xt002() {
            let mut s = spec("bitcoin-miner").unwrap();
            s.pi_src = s
                .pi_src
                .replace("return cfg.loop;", "return cfg.loop - 200;");
            check("bitcoin-miner", &s, "XT002");
        }

        #[test]
        fn unbounded_enclosure_is_xt003() {
            let mut s = jpeg();
            s.pi_src = s
                .pi_src
                .replace("const HUFF_BPC = 2;", "const HUFF_BPC = 0;");
            check("jpeg-decoder", &s, "XT003");
        }

        #[test]
        fn missing_function_is_xt001() {
            let mut s = jpeg();
            s.pi_src = s
                .pi_src
                .replace("fn latency_jpeg_decode(img)", "fn latency_jpeg_dec0de(img)");
            check("jpeg-decoder", &s, "XT001");
        }

        // -- NL tier --

        #[test]
        fn inverted_monotone_claim_is_xt103() {
            let mut s = jpeg();
            s.nl.claims.push(Claim::Monotone {
                metric: Quantity::Latency,
                axis: "compress_rate".into(),
                direction: Direction::Increasing,
            });
            check("jpeg-decoder", &s, "XT103");
        }

        #[test]
        fn overtight_proportionality_claim_is_xt104_warning() {
            let mut s = jpeg();
            s.nl.claims.push(Claim::Proportional {
                metric: Quantity::Latency,
                axis: "compress_rate".into(),
                tolerance: 0.01,
            });
            let ds = check("jpeg-decoder", &s, "XT104");
            assert_eq!(ds.find("XT104").unwrap().severity, Severity::Warning);
        }

        #[test]
        fn claim_on_unprobed_axis_is_xt105() {
            let mut s = spec("bitcoin-miner").unwrap();
            s.nl.claims.push(Claim::Monotone {
                metric: Quantity::Area,
                axis: "nonce_count".into(),
                direction: Direction::Increasing,
            });
            check("bitcoin-miner", &s, "XT105");
        }

        // -- net tier --

        #[test]
        fn slowed_net_stage_raises_floor_above_program_is_xt101() {
            let mut s = jpeg();
            s.nets[0].src = s.nets[0].src.replace("delay 64", "delay 64000");
            check("jpeg-decoder", &s, "XT101");
        }

        #[test]
        fn slowed_net_bottleneck_contradicts_program_tput_is_xt102() {
            let mut s = spec("protoacc").unwrap();
            s.nets[0].src = s.nets[0]
                .src
                .replace("delay t.read_cost", "delay t.read_cost * 2");
            check("protoacc", &s, "XT102");
        }

        #[test]
        fn renamed_entry_place_is_xt001() {
            let mut s = jpeg();
            s.nets[0].entries = vec!["blocks_1n"];
            check("jpeg-decoder", &s, "XT001");
        }

        #[test]
        fn garbled_net_source_is_xt001() {
            let mut s = jpeg();
            s.nets[0].src = "flagrantly not a net".to_string();
            check("jpeg-decoder", &s, "XT001");
        }

        // -- topology tier --

        #[test]
        fn topology_template_mismatch_is_pc003() {
            let mut topo = perf_compose::Topology::parse_chain("vta:3>protoacc:4").unwrap();
            topo.stages[0].kind = "scan".into();
            let ds = xcheck_topology(&topo);
            assert!(ds.find("PC003").is_some(), "{}", ds.render());
        }

        #[test]
        fn topology_rate_mismatch_is_informational_pc001() {
            let topo = perf_compose::Topology::parse_chain("bitcoin-miner:2>protoacc:4").unwrap();
            let ds = xcheck_topology(&topo);
            let pc1 = ds.find("PC001").expect("rate mismatch surfaced");
            assert_eq!(pc1.severity, Severity::Info);
            assert!(!ds.has_errors(), "{}", ds.render());
        }
    }
}
