//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro --experiments   # the declarative spec-driven runner: every
//!                       # experiment from crates/bench/specs/
//!                       # experiments.toml, criteria checked, exit 1
//!                       # on any failure.
//!                       #   --quick       smaller samples (seconds
//!                       #                 instead of minutes)
//!                       #   --only E4     one experiment
//!                       #   --json        machine-readable results
//!                       #   --write PATH  regenerate EXPERIMENTS.md
//!                       #   --check PATH  CI drift gate vs committed
//! repro --trace TRACE.json [--perfetto OUT.json]
//!                       # traced run of every substrate: writes the
//!                       # combined JSON report, prints folded stacks;
//!                       # --perfetto also writes a Chrome JSON trace
//!                       # loadable at ui.perfetto.dev
//! repro --lint-all      # static perf-lint audit of every shipped
//!                       # .pnet net and .pi program (plus the demo
//!                       # composite's glued net); exit 1 on findings
//! repro --xcheck        # cross-tier consistency audit: NL claims vs.
//!                       # program-tier interval bounds vs. Petri-net
//!                       # structural bounds for every accelerator and
//!                       # the demo composite — no simulation; exit 1
//!                       # on any error or warning. --json prints one
//!                       # JSON object per target.
//! repro --conformance   # differential conformance check of every
//!                       # interface against its simulator (nominal +
//!                       # fault-injected); writes BENCH_conformance.json,
//!                       # exit 1 on any violation. --json prints the
//!                       # JSON report instead of the summary.
//! repro --compose       # composite-pipeline smoke: parse the demo
//!                       # TOML topology, lint the glued net, check
//!                       # that the stepper agrees with the reference
//!                       # evaluator, run tier cross-checks,
//!                       # run quick composite conformance; exit 1
//!                       # on any budget violation.
//! repro --serve         # performance-query server on stdin/stdout:
//!                       # one JSON request (or array) per line, one
//!                       # JSON response per line; empty line or EOF
//!                       # drains and prints a stats line.
//!                       # --workers N sets the pool size (default 4);
//!                       # --tcp ADDR serves connections on ADDR
//!                       # instead of stdio.
//! ```

use perf_bench::exp;

const HELP: &str = "\
repro — regenerate the paper's tables and figures

usage: repro --experiments [--quick] [--only EID] [--json]
                           [--write PATH] [--check PATH]
       repro --trace PATH [--perfetto OUT] [--quick]
       repro --lint-all | --xcheck [--json] | --conformance [--json] | --compose
       repro --serve [--workers N] [--tcp ADDR]

modes:
  --experiments   the declarative runner: executes every spec in
                  crates/bench/specs/experiments.toml (one table row per
                  variant-axis point, fixed seeds), evaluates each spec's
                  pass criteria, and exits 1 if any criterion fails.
                  --only EID restricts to one experiment; --json prints a
                  JSON document; --write PATH regenerates EXPERIMENTS.md;
                  --check PATH is the CI drift gate (committed file vs
                  regenerated: prose byte-exact, measured digits masked,
                  stable sections byte-exact).
  --trace PATH    traced run of every substrate. Writes a combined JSON
                  report to PATH and prints folded stacks. The report is
                  {\"petri\": <trace report>, \"components\": [...]}, where
                  the petri object has fields net, makespan, events,
                  enablement_checks, firings_recorded, firings_evicted,
                  critical_path_total, transitions[] and critical_path[]
                  (same schema as `pnet trace`). --perfetto OUT also
                  writes a Chrome JSON trace (trace-event format, 1 cycle
                  = 1 us) with one process per substrate — open it at
                  ui.perfetto.dev; per-stage slice durations telescope
                  exactly to each reported makespan.

flags:
  --quick         smaller sample counts (seconds instead of minutes)
  --json          machine-readable output where the mode supports it
  -h, --help      this text
";

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--trace PATH [--perfetto OUT]] \
         [--experiments [--only EID] [--json] [--write PATH] [--check PATH]] \
         [--lint-all] [--xcheck [--json]] [--conformance [--json]] [--compose] \
         [--serve [--workers N] [--tcp ADDR]]"
    );
    std::process::exit(2);
}

/// Reports an I/O failure and exits, instead of unwinding with a
/// panic backtrace the user has to dig a path out of.
fn io_fail(what: &str, path: &str, err: std::io::Error) -> ! {
    eprintln!("error: {what} `{path}`: {err}");
    std::process::exit(1);
}

fn main() {
    let mut quick = false;
    let mut trace_out: Option<String> = None;
    let mut perfetto_out: Option<String> = None;
    let mut experiments_mode = false;
    let mut only_spec: Option<String> = None;
    let mut write_doc: Option<String> = None;
    let mut check_doc_path: Option<String> = None;
    let mut lint_all = false;
    let mut xcheck = false;
    let mut conformance = false;
    let mut compose = false;
    let mut json = false;
    let mut serve = false;
    let mut workers = 4usize;
    let mut tcp: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--trace" => trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--perfetto" => perfetto_out = Some(args.next().unwrap_or_else(|| usage())),
            "--experiments" => experiments_mode = true,
            "--only" => only_spec = Some(args.next().unwrap_or_else(|| usage())),
            "--write" => write_doc = Some(args.next().unwrap_or_else(|| usage())),
            "--check" => check_doc_path = Some(args.next().unwrap_or_else(|| usage())),
            "--lint-all" => lint_all = true,
            "--xcheck" => xcheck = true,
            "--conformance" => conformance = true,
            "--compose" => compose = true,
            "--json" => json = true,
            "--serve" => serve = true,
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|w| w.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--tcp" => tcp = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => {
                print!("{HELP}");
                return;
            }
            _ => usage(),
        }
    }

    if experiments_mode {
        let file = exp::load().unwrap_or_else(|e| {
            eprintln!("broken shipped spec file: {e}");
            std::process::exit(1);
        });
        if let Some(id) = &only_spec {
            if file.find(id).is_none() {
                eprintln!("unknown experiment `{id}`");
                std::process::exit(2);
            }
            if write_doc.is_some() || check_doc_path.is_some() {
                eprintln!("--write/--check need the full experiment set; drop --only");
                std::process::exit(2);
            }
        }
        let res = exp::run_specs(&file, quick, only_spec.as_deref()).unwrap_or_else(|e| {
            eprintln!("experiments failed: {e}");
            std::process::exit(1);
        });
        if json {
            print!("{}", res.render_json());
        } else {
            print!("{}", res.render_text());
        }
        if let Some(path) = &write_doc {
            if let Err(e) = std::fs::write(path, res.render_doc()) {
                io_fail("cannot write experiments doc", path, e);
            }
            eprintln!("wrote {path}");
        }
        if let Some(path) = &check_doc_path {
            let committed = std::fs::read_to_string(path)
                .unwrap_or_else(|e| io_fail("cannot read committed experiments doc", path, e));
            if let Err(d) = exp::check_doc(&committed, &res.render_doc(), &file) {
                eprintln!("experiments doc drift: {d}");
                eprintln!("regenerate with: repro --experiments --write {path}");
                std::process::exit(1);
            }
            eprintln!("{path} matches the regenerated experiments");
        }
        std::process::exit(if res.pass() { 0 } else { 1 });
    }

    if only_spec.is_some() || write_doc.is_some() || check_doc_path.is_some() {
        eprintln!("--only/--write/--check require --experiments");
        usage();
    }
    if perfetto_out.is_some() && trace_out.is_none() {
        eprintln!("--perfetto requires --trace");
        usage();
    }

    if serve {
        let cfg = perf_service::ServiceConfig {
            workers,
            ..Default::default()
        };
        let result = match tcp {
            Some(addr) => {
                eprintln!("perf-service: listening on {addr} ({workers} worker(s))");
                perf_service::line::serve_tcp(&addr, cfg, u64::MAX)
            }
            None => {
                eprintln!(
                    "perf-service: serving stdio with {workers} worker(s); \
                     one JSON request or array per line, empty line to finish"
                );
                let stdin = std::io::stdin();
                let mut stdout = std::io::stdout().lock();
                perf_service::line::serve_lines(stdin.lock(), &mut stdout, cfg).map(|_| ())
            }
        };
        if let Err(e) = result {
            eprintln!("perf-service: {e}");
            std::process::exit(1);
        }
        return;
    }

    if compose {
        let demo = perf_bench::composedemo::run(quick);
        print!("{}", demo.report);
        std::process::exit(if demo.pass { 0 } else { 1 });
    }

    if conformance {
        let rep = perf_bench::conformance::run(quick);
        let out = rep.to_json();
        let path = "BENCH_conformance.json";
        if let Err(e) = std::fs::write(path, &out) {
            io_fail("cannot write conformance report", path, e);
        }
        if json {
            print!("{out}");
        } else {
            print!("{}", rep.render());
        }
        eprintln!("wrote {path}");
        std::process::exit(if rep.pass() { 0 } else { 1 });
    }

    if xcheck {
        let (report, clean) = perf_bench::xcheckall::report(json);
        print!("{report}");
        std::process::exit(if clean { 0 } else { 1 });
    }

    if lint_all {
        let (report, clean) = perf_bench::lintall::report();
        print!("{report}");
        std::process::exit(if clean { 0 } else { 1 });
    }

    if let Some(path) = trace_out {
        let demo = perf_bench::tracedemo::run_trace_demo(quick);
        if let Err(e) = std::fs::write(&path, &demo.json) {
            io_fail("cannot write trace report", &path, e);
        }
        print!("{}", demo.folded);
        eprintln!("wrote {path}");
        if let Some(pf) = perfetto_out {
            if let Err(e) = std::fs::write(&pf, &demo.chrome) {
                io_fail("cannot write Chrome trace", &pf, e);
            }
            eprintln!("wrote {pf} (open at ui.perfetto.dev)");
        }
        return;
    }

    usage();
}
