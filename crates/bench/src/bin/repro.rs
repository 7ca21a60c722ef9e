//! Regenerates every table and figure of the paper, and is the one
//! gate over them: conformance (E12), composition (E14) and the static
//! lint and cross-tier audits (E15) are experiments like any other.
//! The three modes are exclusive.
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
       repro --serve [--workers N] [--tcp ADDR]

modes (exactly one):
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
  --serve         performance-query server on stdin/stdout, one JSON
                  request per line; --workers N sets the pool size
                  (default 4), --tcp ADDR serves ADDR instead of stdio.

flags:
  --quick         smaller sample counts (seconds instead of minutes)
  --json          machine-readable results (--experiments)
  -h, --help      this text
";

fn usage() -> ! {
    eprintln!(
        "usage: repro --experiments [--quick] [--only EID] [--json] [--write PATH] [--check PATH]\n\
         \x20      repro --trace PATH [--perfetto OUT] [--quick]\n\
         \x20      repro --serve [--workers N] [--tcp ADDR]"
    );
    std::process::exit(2);
}

/// Exits with usage when `flags` were given outside the `mode` they
/// belong to, instead of silently ignoring them.
fn require_mode(given: bool, flags: &str, mode: &str, active: bool) {
    if given && !active {
        eprintln!("{flags}: only valid with {mode}");
        usage();
    }
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
    let mut json = false;
    let mut serve = false;
    let mut workers: Option<usize> = None;
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
            "--json" => json = true,
            "--serve" => serve = true,
            "--workers" => {
                workers = Some(
                    args.next()
                        .and_then(|w| w.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--tcp" => tcp = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => {
                print!("{HELP}");
                return;
            }
            _ => usage(),
        }
    }

    let modes = [experiments_mode, trace_out.is_some(), serve];
    if modes.iter().filter(|&&m| m).count() > 1 {
        eprintln!("--experiments, --trace and --serve are separate modes; pick one");
        usage();
    }
    require_mode(
        only_spec.is_some() || write_doc.is_some() || check_doc_path.is_some() || json,
        "--only/--write/--check/--json",
        "--experiments",
        experiments_mode,
    );
    require_mode(
        perfetto_out.is_some(),
        "--perfetto",
        "--trace",
        trace_out.is_some(),
    );
    require_mode(
        workers.is_some() || tcp.is_some(),
        "--workers/--tcp",
        "--serve",
        serve,
    );

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

    if serve {
        let workers = workers.unwrap_or(4);
        let cfg = perf_service::ServiceConfig {
            workers,
            ..Default::default()
        };
        let result = match tcp {
            Some(addr) => std::net::TcpListener::bind(&addr).map(|listener| {
                eprintln!("perf-service: listening on {addr} ({workers} worker(s))");
                perf_service::line::serve_tcp(listener, cfg, u64::MAX)
            }),
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
