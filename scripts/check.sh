#!/usr/bin/env bash
# Repo-wide gate: build, tests, lints. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --tests -- -D warnings"
cargo clippy --workspace --tests -- -D warnings

echo "==> scripts/stress.sh"
./scripts/stress.sh

echo "==> scale benchmark (smoke): indexed vs un-indexed must agree, speedup >= 1"
OASSIS_SCALE_SMOKE=1 cargo run --release -q -p oassis-bench --bin figures -- scale

echo "==> simulation smoke: 64-seed fault sweep, all oracles (see docs/testing.md)"
cargo run --release -q -p oassis-simtest --bin sim -- sweep 64

echo "==> service smoke: 2 overlapping queries share the crowd, answers match serial"
OASSIS_SERVICE_SMOKE=1 cargo run --release -q -p oassis-bench --bin figures -- service

echo "==> service simulation: 64-seed sweep (replay, differential, starvation, isolation)"
cargo run --release -q -p oassis-simtest --bin sim -- service-sweep 64

echo "==> durability smoke: WAL recovery invariants at small log sizes"
OASSIS_DURABILITY_SMOKE=1 cargo run --release -q -p oassis-bench --bin figures -- durability

echo "==> durability simulation: 64-seed crash-restart sweep (kill at any WAL index, recover, compare)"
cargo run --release -q -p oassis-simtest --bin sim -- durability-sweep 64

echo "==> wave simulation: 64-seed sweep (waved replay, wave-size equivalence, disjoint identity, speculation conservation)"
cargo run --release -q -p oassis-simtest --bin sim -- wave-sweep 64

echo "==> crowd-scale smoke: sharded + waved runs must match the 1-shard/1-wave reference"
OASSIS_CROWDSCALE_SMOKE=1 cargo run --release -q -p oassis-bench --bin figures -- crowd-scale

# The net steps run under `timeout` (builds stay outside it): a serve loop
# that never wakes, or a connection reader that is never joined, fails the
# gate instead of hanging it.
echo "==> net smoke: served TCP-loopback sessions must match the in-process run"
cargo test -q --release --test net --no-run
timeout 300 cargo test -q --release --test net
OASSIS_NET_SMOKE=1 timeout 300 cargo run --release -q -p oassis-bench --bin figures -- net

echo "==> net simulation: 64-seed protocol sweep (transparency, replay, kill at every protocol event, frame faults)"
cargo build --release -q -p oassis-simtest --bin sim
timeout 300 cargo run --release -q -p oassis-simtest --bin sim -- net-sweep 64

echo "==> planner smoke: FILTER pushdown must shrink seeds + questions, answers identical planner on/off"
OASSIS_PLANNER_SMOKE=1 cargo run --release -q -p oassis-bench --bin figures -- planner

echo "==> query-language properties: display/parse roundtrip + 3-way evaluator oracle"
cargo test -q --release --test ql_roundtrip --test planner_oracle

echo "==> all checks passed"
