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

pub mod harness;
pub mod report;
mod subjects;

pub use harness::{relative_error, run_subject, CaseSpec, Subject, CHANNELS};
pub use report::{AccelReport, ChannelReport, ConformanceReport, Counterexample, NlResult};

use subjects::{bitcoin::BitcoinSubject, composite::CompositeSubject, jpeg::JpegSubject};
use subjects::{protoacc::ProtoaccSubject, vta::VtaSubject};

/// Builds one conformance subject.
pub type MakeSubject = fn() -> Box<dyn Subject>;

/// Every conformance subject by report name: the four shipped
/// accelerators (named as in `perf_compose::ACCELS`), then the two
/// composite pipelines — composed simulators vs composed interfaces,
/// over a linear chain and a fan-out/fan-in DAG.
pub static SUBJECTS: [(&str, MakeSubject); 6] = [
    ("jpeg-decoder", || Box::new(JpegSubject::new())),
    ("bitcoin-miner", || Box::new(BitcoinSubject::new())),
    ("protoacc", || Box::new(ProtoaccSubject::new())),
    ("vta", || Box::new(VtaSubject::new())),
    ("pipeline", || Box::new(CompositeSubject::chain())),
    ("pipeline-dag", || Box::new(CompositeSubject::dag())),
];

/// Runs one subject from [`SUBJECTS`]; `None` if no subject has that
/// name.
pub fn run_named(name: &str, quick: bool) -> Option<AccelReport> {
    SUBJECTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, make)| run_subject(n, &mut *make(), quick))
}

/// Runs the conformance harness over every subject in [`SUBJECTS`].
pub fn run_all(quick: bool) -> ConformanceReport {
    ConformanceReport {
        quick,
        accels: SUBJECTS
            .iter()
            .map(|(n, make)| run_subject(n, &mut *make(), quick))
            .collect(),
    }
}
