# Convenience targets; `make check` is the full gate (see scripts/check.sh).

.PHONY: build test test-all clippy check figures bench sim service-bench durability-bench crowdscale-bench net-bench planner-bench mining-bench bench-summary

# Seed count for the deterministic-simulation sweep (`make sim SEEDS=10000`).
SEEDS ?= 10000

build:
	cargo build --release

test:
	cargo test -q

test-all:
	cargo test -q --workspace

clippy:
	cargo clippy --workspace --tests -- -D warnings

check:
	./scripts/check.sh

figures:
	cargo run --release -p oassis-bench --bin figures -- all

bench:
	cargo bench --workspace

# Long-form schedule exploration; failing seeds print a one-line repro.
sim:
	cargo run --release -p oassis-simtest --bin sim -- sweep $(SEEDS)

# Multi-query service benchmark: N=4 overlapping queries through one
# OassisService vs 4 serial runs; writes BENCH_service.json.
service-bench:
	cargo run --release -p oassis-bench --bin figures -- service

# Durability benchmark: cold OassisService::recover vs write-ahead-log
# length, with and without snapshot compaction; writes BENCH_durability.json.
durability-bench:
	cargo run --release -p oassis-bench --bin figures -- durability

# Crowd-scale benchmark: members x sessions grid with sharded dispatch and
# question waves, every cell checked against its 1-shard/1-wave reference;
# writes BENCH_crowdscale.json. Takes ~10 minutes (100k-member cells).
crowdscale-bench:
	cargo run --release -p oassis-bench --bin figures -- crowd-scale

# Wire-protocol benchmark: sessions served over TCP loopback vs the same
# sessions in-process, plus the raw Hello round-trip; writes BENCH_net.json.
net-bench:
	cargo run --release -p oassis-bench --bin figures -- net

# Query-planner benchmark: canonical vs FILTER-constrained queries, planner
# on vs off (identical answers asserted), pushdown's effect on seed
# assignments and crowd questions; writes BENCH_planner.json.
planner-bench:
	cargo run --release -p oassis-bench --bin figures -- planner

# Mining-cost benchmark: per domain, one cold execute with 24 members,
# untraced µs per question (median of 5) and each engine.mine.* span's
# share of a traced run; writes BENCH_mining.json.
mining-bench:
	cargo run --release -p oassis-bench --bin figures -- mining

# One line per checked-in BENCH_*.json: headline numbers for quick diffing.
bench-summary:
	./scripts/bench_summary.sh
