//! Differential conformance harness for performance interfaces.
//!
//! The paper's central promise is that an accelerator's performance
//! interface — prose claims, an executable program, or a Petri net —
//! is a *contract*: it predicts what the silicon (here, the
//! cycle-accurate simulators) will do, within a stated error. This
//! crate checks that contract mechanically, for all four accelerators
//! and all three representations at once:
//!
//! * randomized workloads from the shipped generators, plus
//!   adversarial edge cases (empty/singleton/maximal inputs,
//!   pathological Huffman tables, saturating queue depths),
//! * every prediction compared against the simulator under a
//!   per-accelerator, per-representation error budget (Table 1),
//! * budget violations shrunk to a minimal counterexample and
//!   reported as structured [`perf_core::diag`] diagnostics,
//! * deterministic fault injection ([`perf_sim::fault`]) applied to
//!   the simulators to verify that interfaces either stay within a
//!   widened budget or the operating region is explicitly declared
//!   out of contract — never silently wrong, never non-finite.
//!
//! It runs as experiment E12 (`repro --experiments --only E12`); the
//! `committed_report` test keeps `BENCH_conformance.json` current.

pub mod budget;
pub mod harness;
pub mod report;
pub mod subjects;

pub use budget::{Budget, Contract};
pub use harness::{relative_error, run_subject, CaseSpec, Subject, CHANNELS};
pub use report::{AccelReport, ChannelReport, ConformanceReport, Counterexample, NlResult};

use subjects::{bitcoin::BitcoinSubject, composite::CompositeSubject, jpeg::JpegSubject};
use subjects::{protoacc::ProtoaccSubject, vta::VtaSubject};

/// Runs one subject's harness; the flag is `quick`.
pub type RunSubject = fn(bool) -> AccelReport;

/// Every conformance subject by report name: the four shipped
/// accelerators (named as in `perf_compose::ACCELS`), then the two
/// composite pipelines — composed simulators vs composed interfaces,
/// over a linear chain and a fan-out/fan-in DAG.
pub static SUBJECTS: [(&str, RunSubject); 6] = [
    ("jpeg-decoder", |q| run_subject(&mut JpegSubject::new(), q)),
    ("bitcoin-miner", |q| {
        run_subject(&mut BitcoinSubject::new(), q)
    }),
    ("protoacc", |q| run_subject(&mut ProtoaccSubject::new(), q)),
    ("vta", |q| run_subject(&mut VtaSubject::new(), q)),
    ("pipeline", |q| {
        run_subject(&mut CompositeSubject::chain(), q)
    }),
    ("pipeline-dag", |q| {
        run_subject(&mut CompositeSubject::dag(), q)
    }),
];

/// Runs one subject from [`SUBJECTS`]; `None` if no subject has that
/// name.
pub fn run_named(name: &str, quick: bool) -> Option<AccelReport> {
    SUBJECTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, run)| run(quick))
}

/// Runs the conformance harness over every subject in [`SUBJECTS`].
pub fn run_all(quick: bool) -> ConformanceReport {
    ConformanceReport {
        quick,
        accels: SUBJECTS.iter().map(|(_, run)| run(quick)).collect(),
    }
}
