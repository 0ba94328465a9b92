//! The schedule-exploration driver.
//!
//! ```text
//! sim sweep [N]              the faults suite over seeds 0..N (default 256)
//! sim service-sweep [N]      the service suite (default 64)
//! sim wave-sweep [N]         the waves suite (default 64)
//! sim durability-sweep [N]   the durability suite (default 64)
//! sim net-sweep [N]          the net suite (default 64)
//! sim repro [SEED]           replay one seed (OASSIS_SIM_SEED or the
//!                            argument): print its faults-suite run and
//!                            transcript tail, run every suite, name each
//!                            that fails, and shrink a faults-suite
//!                            failure to a minimal fault trace
//! sim bench [N]              measure harness throughput (faults-suite
//!                            seeds/sec over N seeds, default 64) and
//!                            write BENCH_simtest.json
//! ```
//!
//! `OASSIS_SIM_SEEDS` overrides every sweep's default seed count. A sweep
//! prints one line per failing seed, ending in its repro command, and
//! exits non-zero. What each suite checks is documented on
//! `oassis_simtest::Suite`.

use std::process::ExitCode;
use std::time::Instant;

use oassis_simtest::{
    check_seed, diverges_from_reference, outln, repro_command, run, shrink, sweep, FaultFamily,
    Scenario, Suite, SweepReport,
};

/// Each sweep command, the suite it runs and its default seed count.
const SWEEPS: &[(&str, Suite, u64)] = &[
    ("sweep", Suite::Faults, 256),
    ("service-sweep", Suite::Service, 64),
    ("wave-sweep", Suite::Waves, 64),
    ("durability-sweep", Suite::Durability, 64),
    ("net-sweep", Suite::Net, 64),
];

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

fn exit_code(report: &SweepReport) -> ExitCode {
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_sweep(cmd: &str, suite: Suite, n: u64) -> ExitCode {
    outln!("sim {cmd}: {n} seeds of the {suite:?} suite");
    let start = Instant::now();
    let report = sweep(suite, 0..n);
    let secs = start.elapsed().as_secs_f64();
    for failure in &report.failures {
        outln!("FAIL {failure}");
    }
    outln!(
        "sim {cmd}: {}/{} seeds passed in {:.2}s ({:.1} seeds/s)",
        report.passed,
        n,
        secs,
        n as f64 / secs.max(1e-9),
    );
    exit_code(&report)
}

fn run_repro(seed: u64) -> ExitCode {
    outln!("sim repro: seed {seed}");
    let scenario = Scenario::faults(seed, FaultFamily::for_seed(seed));
    match run(&scenario) {
        Ok(outcome) => {
            let s = outcome.session(0);
            outln!(
                "  {:?}: {} valid MSPs, {} questions, {} scheduling decisions ({} non-FIFO)",
                scenario.crowd,
                s.msps.len(),
                s.questions.unwrap_or_default(),
                outcome.decisions.len(),
                outcome.decisions.iter().filter(|&&d| d != 0).count(),
            );
            let tail: Vec<&str> = outcome.transcript.lines().rev().take(10).collect();
            outln!("  transcript tail:");
            for line in tail.iter().rev() {
                outln!("    {line}");
            }
        }
        Err(failure) => outln!("  the faults-suite run did not finish: {failure}"),
    }
    let mut failed = false;
    for suite in Suite::ALL {
        let report = sweep(suite, [seed]);
        for failure in &report.failures {
            failed = true;
            outln!("FAIL [{suite:?} suite] {failure}");
        }
        if suite != Suite::Faults || report.failures.is_empty() {
            continue;
        }
        match shrink(&scenario, |o| diverges_from_reference(&scenario, o)) {
            Some(shrunk) => {
                outln!(
                    "  shrunk to {} non-FIFO decisions; minimal script: {:?}",
                    shrunk.non_fifo,
                    shrunk.script
                );
                outln!("  minimal failing transcript:");
                for line in shrunk.transcript.lines() {
                    outln!("    {line}");
                }
            }
            None => outln!(
                "  the faults-suite failure is not a divergence from the sequential \
                 reference, so there is no schedule to shrink; see the oracle above"
            ),
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        outln!("  all suites passed: {:?}", Suite::ALL);
        ExitCode::SUCCESS
    }
}

fn run_bench(n: u64) -> ExitCode {
    // Warm the per-engine-seed sequential references so the measurement is
    // pure harness throughput.
    for seed in 0..4 {
        let _ = check_seed(seed);
    }
    let start = Instant::now();
    let report = sweep(Suite::Faults, 0..n);
    let secs = start.elapsed().as_secs_f64();
    let seeds_per_sec = n as f64 / secs.max(1e-9);
    outln!(
        "sim bench: {n} seeds ({} passed) in {secs:.3}s = {seeds_per_sec:.1} seeds/s \
         (travel domain, 2 oracle runs per seed)",
        report.passed
    );
    let json = format!(
        "{{\n\"experiment\": \"simtest\",\n\"domain\": \"travel\",\n\"seeds\": {n},\n\
         \"passed\": {},\n\"secs\": {secs:.6},\n\"seeds_per_sec\": {seeds_per_sec:.3},\n\
         \"runs_per_seed\": 2\n}}\n",
        report.passed
    );
    match std::fs::write("BENCH_simtest.json", json) {
        Ok(()) => outln!("wrote BENCH_simtest.json"),
        Err(e) => {
            eprintln!("could not write BENCH_simtest.json: {e}");
            return ExitCode::FAILURE;
        }
    }
    for failure in &report.failures {
        outln!("FAIL {failure}");
    }
    exit_code(&report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("sweep");
    let arg = args.get(1).and_then(|v| v.parse::<u64>().ok());
    if let Some(&(_, suite, default)) = SWEEPS.iter().find(|(name, ..)| *name == cmd) {
        let n = arg
            .or_else(|| env_u64("OASSIS_SIM_SEEDS"))
            .unwrap_or(default);
        return run_sweep(cmd, suite, n);
    }
    match cmd {
        "repro" => match arg.or_else(|| env_u64("OASSIS_SIM_SEED")) {
            Some(seed) => run_repro(seed),
            None => {
                eprintln!("repro needs a seed: `sim repro 42` or OASSIS_SIM_SEED=42");
                eprintln!("hint: a failing sweep prints e.g. `{}`", repro_command(42));
                ExitCode::FAILURE
            }
        },
        "bench" => run_bench(arg.unwrap_or(64)),
        other => {
            eprintln!(
                "unknown command `{other}`; use: sweep [N] | service-sweep [N] | \
                 durability-sweep [N] | wave-sweep [N] | net-sweep [N] | \
                 repro [SEED] | bench [N]"
            );
            ExitCode::FAILURE
        }
    }
}
