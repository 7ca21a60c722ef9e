#!/usr/bin/env bash
# One-stop pre-merge gate: build, tests, docs, the experiments gate
# and clippy. `--quick` skips only clippy, for inner-loop use.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
if [[ "${1:-}" == "--quick" ]]; then
    quick=1
fi

cargo fmt --check
cargo build --release
# The benchmark is its own workspace, so the build above never compiles
# it: build it here so a crate change that breaks it fails pre-merge.
# --locked fails instead of rewriting perfbench/Cargo.lock.
cargo build --release --locked --offline --manifest-path perfbench/Cargo.toml
# --workspace matters: without it only the root package's suites run,
# and the other ~33 member suites silently stop gating merges.
cargo test -q --workspace
# Docs are part of the contract: perf-core, perf-petri and perf-service
# deny missing_docs, and broken intra-doc links fail the build — on
# private items too, so a stale link in an internal doc is caught.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --document-private-items --quiet
# Service saturation smoke: a flooded queue must shed load instead of
# deadlocking, and every degraded answer must stay inside the serving
# representation's conformance budget.
cargo test -q --release -p perf-service --test e2e saturation
# Experiments gate, the only `repro` step: run every declarative spec
# at quick scale — differential conformance (E12), composite pipelines
# (E14) and the static lint and cross-tier audits (E15) included — and
# check the committed EXPERIMENTS.md against the regenerated doc:
# prose and stable tables byte-exact, volatile numbers digit-masked.
# Exits nonzero on drift or on any pass-criteria failure. (The
# committed BENCH_conformance.json is gated by a perf-conformance test.)
cargo run --release -p perf-bench --bin repro -- --experiments --quick --check EXPERIMENTS.md

if [[ "$quick" == "1" ]]; then
    exit 0
fi

cargo clippy --workspace --all-targets -- -D warnings
