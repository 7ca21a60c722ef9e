#!/usr/bin/env bash
# One-stop pre-merge gate: build, tests, docs, lints and the repro
# audits. `--quick` runs the fast subset (build, tests, doc gate,
# service saturation smoke) for inner-loop use.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
if [[ "${1:-}" == "--quick" ]]; then
    quick=1
fi

cargo fmt --check
cargo build --release
# --workspace matters: without it only the root package's suites run,
# and the other ~33 member suites silently stop gating merges.
cargo test -q --workspace
# Docs are part of the contract: perf-core, perf-petri and perf-service
# deny missing_docs, and broken intra-doc links fail the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
# Service saturation smoke: a flooded queue must shed load instead of
# deadlocking, and every degraded answer must stay inside the serving
# representation's conformance budget.
cargo test -q --release -p perf-service --test e2e saturation
# Experiments gate: run every declarative spec at quick scale and
# check the committed EXPERIMENTS.md against the regenerated doc —
# prose and stable tables byte-exact, volatile numbers digit-masked.
# Exits nonzero on drift or on any pass-criteria failure.
cargo run --release -p perf-bench --bin repro -- --experiments --quick --check EXPERIMENTS.md

if [[ "$quick" == "1" ]]; then
    exit 0
fi

cargo clippy --workspace --all-targets -- -D warnings
# Static perf-lint audit of every shipped .pnet net and .pi program
# (plus the demo composite's glued net); exits nonzero on any error-
# or warning-severity finding.
cargo run --release -p perf-bench --bin repro -- --lint-all
# Cross-tier consistency audit: NL claims vs. program-tier interval
# bounds vs. Petri-net structural bounds for every accelerator and the
# demo composite, proven statically — no simulation. Exits nonzero on
# any error or warning.
cargo run --release -p perf-bench --bin repro -- --xcheck
# Differential conformance gate: every interface representation against
# its cycle-accurate simulator (nominal + fault-injected), fast seeds,
# all four accelerators plus the chain and DAG composite subjects.
# Exits nonzero past the recorded error budgets.
cargo run --release -p perf-bench --bin repro -- --conformance --quick
# The run above rewrites the tracked BENCH_conformance.json; the quick
# harness is deterministic, so any difference is conformance drift.
git diff --exit-code -- BENCH_conformance.json
# Composite-pipeline smoke: parse both demo TOML topologies (linear
# chain and fan-out/fan-in DAG), lint the configs and glued nets,
# require the stepper to agree with the reference evaluator on the
# composite makespans, and run quick composite conformance for both
# subjects. Exits nonzero on any budget violation or divergence.
cargo run --release -p perf-bench --bin repro -- --compose --quick
