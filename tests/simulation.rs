//! The deterministic simulation harness driven in-tree (see
//! `docs/testing.md` and `crates/simtest`).
//!
//! Everything here runs on the runtime's single-threaded simulation
//! executor: a seeded scheduler owns every interleaving decision, waiting
//! happens on a virtual clock, and a whole concurrent session replays
//! bit-identically from one `u64` seed. Reproduce any failing seed with
//! `OASSIS_SIM_SEED=<seed> cargo test --test simulation` or the driver:
//! `cargo run --release -p oassis-simtest --bin sim -- repro <seed>`.

use oassis_simtest::{check_seed, run, sweep, FaultFamily, Scenario, Suite, REGRESSION_SEEDS};

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// Same seed ⇒ byte-identical transcript (question order, retries,
/// exclusions) and identical scheduling decisions, across two consecutive
/// runs — the harness's foundational property.
#[test]
fn same_seed_replays_byte_identical_transcripts() {
    for seed in [0u64, 1, 0xDEAD_BEEF] {
        let scenario = Scenario::faults(seed, FaultFamily::for_seed(seed));
        let a = run(&scenario).unwrap_or_else(|f| panic!("{f}"));
        let b = run(&scenario).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(
            a.transcript.as_bytes(),
            b.transcript.as_bytes(),
            "seed {seed}: transcripts must be byte-identical"
        );
        assert_eq!(a.decisions, b.decisions, "seed {seed}");
        assert!(!a.transcript.is_empty(), "seed {seed}: empty transcript");
        assert!(a.exhausted.is_none(), "seed {seed}: {:?}", a.exhausted);
    }
}

/// Sweeps `suite` over seeds `0..smoke` and asserts every seed passes
/// every oracle. The smoke counts keep `cargo test` snappy;
/// `OASSIS_SIM_SEEDS=256 cargo test --test simulation sweep` runs the long
/// version of each suite, and `scripts/check.sh` sweeps 64 seeds per suite
/// with the release driver.
fn smoke_sweep(suite: Suite, smoke: u64) {
    let n = env_u64("OASSIS_SIM_SEEDS").unwrap_or(smoke);
    let report = sweep(suite, 0..n);
    assert!(
        report.failures.is_empty(),
        "{suite:?} suite: {} of {} seeds failed; first: {}",
        report.failures.len(),
        n,
        report.failures[0]
    );
    assert_eq!(report.passed, n, "{suite:?} suite");
}

/// Faults suite: replay, concurrent≡sequential, indexed≡unindexed,
/// obs-event conservation.
#[test]
fn fault_sweep_passes_all_oracles() {
    smoke_sweep(Suite::Faults, 16);
}

/// Service suite: replay, differential, starvation, isolation.
#[test]
fn service_sweep_passes_all_oracles() {
    smoke_sweep(Suite::Service, 8);
}

/// Waves suite: waved replay, wave-size equivalence, disjoint identity,
/// speculation conservation.
#[test]
fn wave_sweep_passes_all_oracles() {
    smoke_sweep(Suite::Waves, 8);
}

/// Durability suite: durable service runs killed at sampled WAL indices and
/// recovered reproduce the uninterrupted valid-MSP sets (overlapping
/// sessions) and crowd-question counts (disjoint sessions).
#[test]
fn durability_sweep_passes_all_oracles() {
    smoke_sweep(Suite::Durability, 8);
}

/// Net suite: transparency, replay, kill the server at every protocol
/// event, frame faults.
#[test]
fn net_sweep_passes_all_oracles() {
    smoke_sweep(Suite::Net, 8);
}

/// The regression corpus: seeds that pin down fixed bug classes — most
/// importantly the timeout-vs-late-answer race (the latency family scripts
/// member 0's first answer to land exactly on the deadline; it must be
/// committed, never excluded; see `oassis_simtest::REGRESSION_SEEDS`).
#[test]
fn regression_seed_corpus_passes() {
    for &seed in REGRESSION_SEEDS {
        if let Err(failure) = check_seed(seed) {
            panic!("regression corpus: {failure}");
        }
    }
}

/// Replay one seed from the environment (the printed repro one-liner lands
/// here). Without `OASSIS_SIM_SEED` this replays seed 42 as a smoke check.
#[test]
fn repro_seed_from_env() {
    let seed = env_u64("OASSIS_SIM_SEED").unwrap_or(42);
    if let Err(failure) = check_seed(seed) {
        let tail = run(&Scenario::faults(seed, FaultFamily::for_seed(seed))).map(|outcome| {
            let lines: Vec<&str> = outcome.transcript.lines().rev().take(12).collect();
            lines.into_iter().rev().collect::<Vec<_>>().join("\n")
        });
        match tail {
            Ok(tail) => panic!("{failure}\ntranscript tail:\n{tail}"),
            Err(run_failure) => panic!("{failure}\nthe run did not finish: {run_failure}"),
        }
    }
}
