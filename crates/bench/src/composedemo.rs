//! The demo SoC topologies and the per-topology composition checks.
//!
//! Two TOML configs — a linear chain and a fan-out/fan-in DAG — that
//! E14, the static audits (E15), the trace demo and the trace parity
//! suite all build from. [`topology_metrics`] runs E14's checks on
//! one of them: parse, config lint, lint of the glued Petri net,
//! stepper-vs-reference agreement ([`perf_petri::reference`]) on the
//! composite makespan, and the three composite interface tiers against
//! the composed simulators.

use perf_compose::{Composite, StreamParams, Topology};

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
fields = { loop = 4, nonce_count = 8, difficulty = 256, seed = 5 }

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
fields = { loop = 4, nonce_count = 8, difficulty = 256, seed = 5 }

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

/// Structured results of the per-topology checks, for the E14
/// experiment variant (`exp::run_variant` turns one of these into a
/// table row).
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

/// Runs the per-topology checks on one TOML config. `quick` shrinks
/// the stream; the checks themselves are identical.
pub fn topology_metrics(src: &str, quick: bool) -> Result<TopologyMetrics, perf_core::CoreError> {
    let topo = Topology::parse_toml(src)?;
    let label = topo.chain_label();
    let stages = topo.stages.len();
    let edges = topo.edges.len();
    let config_lint_clean = !perf_compose::lint::lint_toml("demo", src).has_errors();
    let mut comp = Composite::new(topo)?;
    let net_lint_clean = !comp.lint_net().has_errors();
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
}
