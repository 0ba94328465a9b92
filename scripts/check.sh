#!/usr/bin/env bash
# Repo-wide gate: build, tests, lints. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --tests -- -D warnings"
cargo clippy --workspace --tests -- -D warnings

echo "==> scripts/stress.sh"
./scripts/stress.sh

echo "==> scale benchmark (smoke): the indexed walk must match run_reference's un-indexed walk, speedup >= 1"
cargo run --release -q -p oassis-bench --bin figures -- --smoke scale

echo "==> simulation smoke: 64-seed fault sweep, all oracles (see docs/testing.md)"
cargo run --release -q -p oassis-simtest --bin sim -- sweep 64

echo "==> service smoke: 2 overlapping queries share the crowd, answers match serial"
cargo run --release -q -p oassis-bench --bin figures -- --smoke service

echo "==> service simulation: 64-seed sweep (replay, differential, starvation, isolation)"
cargo run --release -q -p oassis-simtest --bin sim -- service-sweep 64

echo "==> durability smoke: WAL recovery invariants at small log sizes"
cargo run --release -q -p oassis-bench --bin figures -- --smoke durability

echo "==> durability simulation: 64-seed crash-restart sweep (kill at any WAL index, recover, compare)"
cargo run --release -q -p oassis-simtest --bin sim -- durability-sweep 64

echo "==> wave simulation: 64-seed sweep (waved replay, wave-size equivalence, disjoint identity, speculation conservation)"
cargo run --release -q -p oassis-simtest --bin sim -- wave-sweep 64

echo "==> crowd-scale smoke: sharded + waved runs must match the 1-shard/1-wave reference"
cargo run --release -q -p oassis-bench --bin figures -- --smoke crowd-scale

# The net steps run under `timeout` (builds stay outside it): a serve loop
# that never wakes, or a connection reader that is never joined, fails the
# gate instead of hanging it.
echo "==> net smoke: served TCP-loopback sessions must match the in-process run"
cargo test -q --release --test net --no-run
timeout 300 cargo test -q --release --test net
timeout 300 cargo run --release -q -p oassis-bench --bin figures -- --smoke net

echo "==> net simulation: 64-seed protocol sweep (transparency, replay, kill at every protocol event, frame faults)"
cargo build --release -q -p oassis-simtest --bin sim
timeout 300 cargo run --release -q -p oassis-simtest --bin sim -- net-sweep 64

echo "==> planner smoke: FILTER pushdown must shrink seeds + questions, reference evaluator returns the planner's bindings"
cargo run --release -q -p oassis-bench --bin figures -- --smoke planner

echo "==> mining smoke: tracing leaves the run unchanged, the engine.mine.* spans cover mining"
cargo run --release -q -p oassis-bench --bin figures -- --smoke mining

echo "==> properties: display/parse roundtrip, 3-way evaluator oracle, wire/WAL decoder totality"
cargo test -q --release --test ql_roundtrip --test planner_oracle --test decoder_properties

# perfbench is its own package, outside the workspace: build it here so an
# API change that breaks it fails the gate, then smoke its two end-to-end
# workloads (the runs stay under `timeout`, the build outside it).
echo "==> perfbench smoke: the benchmark builds; 2-s durable and wire runs print \"correct\": true"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
for workload in durable wire; do
  result=$(timeout 300 cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
  echo "$result"
  case "$result" in
    *'"correct": true'*) ;;
    *) echo "perfbench $workload: the result line does not carry \"correct\": true" >&2; exit 1 ;;
  esac
done

echo "==> all checks passed"
