//! The `repro --compose` smoke: config-driven pipeline round-trip.
//!
//! Exercises the whole composition story end to end on a small demo
//! topology: parse the TOML config, lint the glued Petri net, check
//! that the compiled stepper agrees with the reference evaluator
//! ([`perf_petri::reference`]) on the composite makespan, sanity-check the three composite interface tiers against
//! each other, and finally run the quick composite conformance
//! subject under the full Budget machinery (fault injection
//! included). Any failure is a nonzero exit for `scripts/check.sh`.

use perf_compose::{Composite, StreamParams, Topology};
use perf_conformance::harness::run_subject;
use perf_conformance::subjects::dag::DagSubject;
use perf_conformance::subjects::pipeline::PipelineSubject;

/// The demo SoC config: a decode → compress-scan → serialize chain,
/// written as the TOML the `perf-compose` parser accepts (headers,
/// comments, quoted strings, inline field tables).
pub const DEMO_TOPOLOGY: &str = r#"
# Demo SoC: decode images, scan nonces over the payload, serialize.
name = "demo-soc"

[[stage]]
accel = "vta"
instance = "decode"
queue = 3

[[stage]]
accel = "bitcoin-miner"
queue = 2
kind = "scan"
fields = { loop = 4, nonce_count = 8, difficulty = 512, seed = 5 }

[[stage]]
accel = "protoacc"
instance = "serialize"
queue = 4
"#;

/// The demo fan-out/fan-in SoC config: a replicated decode stage
/// round-robining its stream across a miner branch and a packer
/// branch, which merge back into one serializer. Written with explicit
/// `[[edge]]` tables — the DAG form of the config format.
pub const DEMO_DAG_TOPOLOGY: &str = r#"
# Demo SoC, branched: decode fans out over two unlike branches that
# merge into a final serializer.
name = "demo-soc-dag"

[[stage]]
accel = "vta"
instance = "decode"
queue = 3
replicas = 2

[[stage]]
accel = "bitcoin-miner"
instance = "scan"
queue = 2
kind = "scan"
fields = { loop = 4, nonce_count = 8, difficulty = 512, seed = 5 }

[[stage]]
accel = "protoacc"
instance = "pack"
queue = 2

[[stage]]
accel = "protoacc"
instance = "serialize"
queue = 4

[[edge]]
from = "decode"
to = "scan"
policy = "round-robin"

[[edge]]
from = "decode"
to = "pack"
policy = "round-robin"

[[edge]]
from = "scan"
to = "serialize"

[[edge]]
from = "pack"
to = "serialize"
"#;

/// Outcome of the compose smoke run.
pub struct ComposeDemo {
    /// Human-readable report, one line per check.
    pub report: String,
    /// Whether every check passed.
    pub pass: bool,
}

fn check(report: &mut String, pass: &mut bool, ok: bool, line: &str) {
    report.push_str(if ok { "  ok    " } else { "  FAIL  " });
    report.push_str(line);
    report.push('\n');
    *pass &= ok;
}

/// Runs the shared per-topology checks — parse, config lint, net
/// lint, stepper-vs-reference agreement, tier cross-check — appending one report
/// line per check.
fn smoke_topology(report: &mut String, pass: &mut bool, src: &str, quick: bool) {
    let topo = match Topology::parse_toml(src) {
        Ok(t) => t,
        Err(e) => {
            check(report, pass, false, &format!("parse demo topology: {e}"));
            return;
        }
    };
    report.push_str(&format!(
        "  topology `{}`: {} ({} stages, {} edges)\n",
        topo.name,
        topo.chain_label(),
        topo.stages.len(),
        topo.edges.len()
    ));

    // Config-level lint catches graph pathologies (PC006 cycles,
    // PC007 orphans, PC008 policy mismatches) before any net exists.
    let cfg = perf_compose::lint::lint_toml("demo", src);
    check(
        report,
        pass,
        !cfg.has_errors(),
        "config lint of the demo topology is clean",
    );

    let mut comp = match Composite::new(topo) {
        Ok(c) => c,
        Err(e) => {
            check(report, pass, false, &format!("build composite: {e}"));
            return;
        }
    };

    match comp.lint_net() {
        Ok(d) => check(
            report,
            pass,
            !d.has_errors(),
            "pnet lint of the glued net is clean",
        ),
        Err(e) => check(report, pass, false, &format!("lint: {e}")),
    }

    // The stepper must agree exactly with the reference evaluator on
    // the composite net — same structure, same token costs.
    let items = if quick { 5 } else { 12 };
    let stream = StreamParams { items, seed: 7 };
    match comp.petri_makespan_both(&stream) {
        Ok((refr, stepper)) => check(
            report,
            pass,
            refr == stepper,
            &format!(
                "stepper agrees with the reference on composite makespan: \
                 reference {refr} == stepper {stepper}"
            ),
        ),
        Err(e) => check(report, pass, false, &format!("makespan: {e}")),
    }

    // Tier cross-check: the ground-truth stream makespan must fall
    // inside the composite NL bounds, and the program-tier recurrence
    // must land in the same decade as the measurement.
    let tiers = (|| -> Result<(f64, f64, f64, f64), perf_core::CoreError> {
        let obs = comp.measure_stream(&stream)?;
        let actual = obs.latency.0 as f64;
        let (lo, hi) = comp.nl_bounds(&stream)?;
        let prog = comp.program_makespan(&stream)?;
        Ok((actual, lo, hi, prog))
    })();
    match tiers {
        Ok((actual, lo, hi, prog)) => {
            check(
                report,
                pass,
                lo <= actual && actual <= hi,
                &format!("NL bounds [{lo:.0}, {hi:.0}] contain measured makespan {actual:.0}"),
            );
            check(
                report,
                pass,
                prog > 0.0 && (prog - actual).abs() / actual < 0.5,
                &format!("program-tier recurrence {prog:.0} within 50% of measured {actual:.0}"),
            );
        }
        Err(e) => check(report, pass, false, &format!("tiers: {e}")),
    }
}

/// Structured results of the per-topology checks, for the E14
/// experiment variant (`exp::run_variant` turns one of these into a
/// table row; `smoke_topology` above renders the same checks as
/// prose).
pub struct TopologyMetrics {
    /// `Topology::chain_label()` of the parsed config.
    pub label: String,
    /// Stage count.
    pub stages: usize,
    /// Edge count.
    pub edges: usize,
    /// Config-level lint (PC0xx) found no errors.
    pub config_lint_clean: bool,
    /// `pnet`-level lint of the glued net found no errors.
    pub net_lint_clean: bool,
    /// Composite makespan under the reference evaluator.
    pub reference: u64,
    /// Composite makespan under the compiled stepper.
    pub stepper: u64,
    /// Ground-truth stream makespan from the composed simulators.
    pub measured: f64,
    /// Composite NL lower bound.
    pub nl_lo: f64,
    /// Composite NL upper bound.
    pub nl_hi: f64,
    /// Program-tier recurrence prediction.
    pub prog: f64,
}

impl TopologyMetrics {
    /// Relative error of the program-tier recurrence against the
    /// measured makespan.
    pub fn prog_rel_err(&self) -> f64 {
        (self.prog - self.measured).abs() / self.measured
    }
}

/// Runs the shared per-topology checks and returns them as structured
/// values instead of report lines.
pub fn topology_metrics(src: &str, quick: bool) -> Result<TopologyMetrics, perf_core::CoreError> {
    let topo = Topology::parse_toml(src)?;
    let label = topo.chain_label();
    let stages = topo.stages.len();
    let edges = topo.edges.len();
    let config_lint_clean = !perf_compose::lint::lint_toml("demo", src).has_errors();
    let mut comp = Composite::new(topo)?;
    let net_lint_clean = !comp.lint_net()?.has_errors();
    let stream = StreamParams {
        items: if quick { 5 } else { 12 },
        seed: 7,
    };
    let (reference, stepper) = comp.petri_makespan_both(&stream)?;
    let measured = comp.measure_stream(&stream)?.latency.0 as f64;
    let (nl_lo, nl_hi) = comp.nl_bounds(&stream)?;
    let prog = comp.program_makespan(&stream)?;
    Ok(TopologyMetrics {
        label,
        stages,
        edges,
        config_lint_clean,
        net_lint_clean,
        reference,
        stepper,
        measured,
        nl_lo,
        nl_hi,
        prog,
    })
}

/// Runs the compose smoke. `quick` shrinks stream lengths and the
/// conformance sweep; the checks themselves are identical.
pub fn run(quick: bool) -> ComposeDemo {
    let mut report = String::from("repro --compose: composite pipeline smoke\n");
    let mut pass = true;

    smoke_topology(&mut report, &mut pass, DEMO_TOPOLOGY, quick);
    smoke_topology(&mut report, &mut pass, DEMO_DAG_TOPOLOGY, quick);

    // The composite conformance subjects under the full Budget
    // machinery: nominal channels plus per-stage fault injection, over
    // the linear chain and the branched DAG.
    let accel = run_subject(&mut PipelineSubject::new(), true);
    check(
        &mut report,
        &mut pass,
        accel.pass(),
        &format!(
            "composite conformance (quick): {} cases, {} fault regions",
            accel.cases,
            accel.faults.len()
        ),
    );
    if !accel.pass() {
        report.push_str(&accel.diags.render());
    }
    let dag = run_subject(&mut DagSubject::new(), true);
    check(
        &mut report,
        &mut pass,
        dag.pass(),
        &format!(
            "DAG conformance (quick): {} cases, {} fault regions",
            dag.cases,
            dag.faults.len()
        ),
    );
    if !dag.pass() {
        report.push_str(&dag.diags.render());
    }

    report.push_str(if pass {
        "PASS: composition round-trips both substrates within budget\n"
    } else {
        "FAIL: see lines above\n"
    });
    ComposeDemo { report, pass }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_topology_parses_to_three_stages() {
        let t = Topology::parse_toml(DEMO_TOPOLOGY).unwrap();
        assert_eq!(t.name, "demo-soc");
        assert_eq!(t.stages.len(), 3);
        assert_eq!(t.stages[0].instance, "decode");
        assert_eq!(t.stages[1].accel, "bitcoin-miner");
        assert_eq!(t.stages[1].fields.len(), 4);
        assert_eq!(t.chain_label(), "vta:3>bitcoin-miner:2>protoacc:4");
    }

    #[test]
    fn dag_demo_topology_parses_to_a_diamond() {
        let t = Topology::parse_toml(DEMO_DAG_TOPOLOGY).unwrap();
        assert_eq!(t.name, "demo-soc-dag");
        assert_eq!(t.stages.len(), 4);
        assert_eq!(t.edges.len(), 4);
        assert_eq!(t.stages[0].replicas, 2);
        assert!(
            !t.is_chain(),
            "explicit fan-out must not degrade to a chain"
        );
        t.validate()
            .expect("shipped DAG config must be well-formed");
    }

    #[test]
    fn compose_smoke_passes_quick() {
        let demo = run(true);
        assert!(demo.pass, "{}", demo.report);
        assert!(demo.report.contains("stepper agrees with the reference"));
        assert!(demo.report.contains("demo-soc-dag"));
        assert!(demo.report.contains("DAG conformance"));
    }
}
