//! The schedule-exploration driver.
//!
//! ```text
//! sim sweep [N]      run the oracle suite over seeds 0..N (default 256;
//!                    OASSIS_SIM_SEEDS overrides); failing seeds print a
//!                    one-line repro command and exit non-zero
//! sim service-sweep [N]
//!                    run the multi-session service oracles (replay,
//!                    single-session differential, starvation bound,
//!                    disjoint-roster isolation) over seeds 0..N
//!                    (default 64; OASSIS_SIM_SEEDS overrides)
//! sim durability-sweep [N]
//!                    run the crash-restart oracles (WAL transparency,
//!                    log replay determinism, kill-at-any-index recovery
//!                    for overlapping and disjoint sessions) over seeds
//!                    0..N (default 64; OASSIS_SIM_SEEDS overrides)
//! sim wave-sweep [N]
//!                    run the question-wave oracles (waved replay,
//!                    wave_size in {1,4,16} equivalence on overlapping
//!                    rosters, full-outcome identity on disjoint rosters,
//!                    speculation conservation) over seeds 0..N
//!                    (default 64; OASSIS_SIM_SEEDS overrides)
//! sim net-sweep [N]
//!                    run the wire-protocol oracles (served-run
//!                    transparency vs the in-process service, replay,
//!                    kill-the-server-at-every-protocol-event recovery
//!                    with Resume/tokened-Submit reconnects, and the same
//!                    under injected frame drop/dup/delay/sever faults)
//!                    over seeds 0..N (default 64; OASSIS_SIM_SEEDS
//!                    overrides)
//! sim repro [SEED]   replay one seed (OASSIS_SIM_SEED or the argument),
//!                    print its transcript tail, run every oracle, and on
//!                    failure shrink the schedule to a minimal fault trace
//! sim bench [N]      measure harness throughput (seeds/sec over N seeds,
//!                    default 64) and write BENCH_simtest.json
//! ```

use std::process::ExitCode;
use std::time::Instant;

use oassis_simtest::{
    check_durability_seed, check_net_seed, check_seed, check_service_seed, check_wave_seed,
    diverges_from_reference, durability_sweep, net_sweep, repro_command, service_sweep, shrink,
    simulate, sweep, wave_sweep, SimOptions, WAVE_SIZES,
};

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

fn run_sweep(n: u64) -> ExitCode {
    println!("sim sweep: {n} seeds, faults on, 3 runs/seed");
    let start = Instant::now();
    let report = sweep(0..n);
    let secs = start.elapsed().as_secs_f64();
    for failure in &report.failures {
        println!("FAIL {failure}");
    }
    println!(
        "sim sweep: {}/{} seeds passed in {:.2}s ({:.1} seeds/s)",
        report.passed,
        n,
        secs,
        n as f64 / secs.max(1e-9),
    );
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_service_sweep(n: u64) -> ExitCode {
    println!("sim service-sweep: {n} seeds, 7 service runs/seed (replay x2, differential, starvation, isolation x3)");
    let start = Instant::now();
    let report = service_sweep(0..n);
    let secs = start.elapsed().as_secs_f64();
    for failure in &report.failures {
        println!("FAIL {failure}");
    }
    println!(
        "sim service-sweep: {}/{} seeds passed in {:.2}s ({:.1} seeds/s)",
        report.passed,
        n,
        secs,
        n as f64 / secs.max(1e-9),
    );
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_durability_sweep(n: u64) -> ExitCode {
    println!(
        "sim durability-sweep: {n} seeds, kill-at-any-index crash recovery \
         (transparency, replay, overlap MSPs, disjoint MSPs + crowd counts, \
         compacted = uncompacted recovery, waved durable run = volatile)"
    );
    let start = Instant::now();
    let report = durability_sweep(0..n);
    let secs = start.elapsed().as_secs_f64();
    for failure in &report.failures {
        println!("FAIL {failure}");
    }
    println!(
        "sim durability-sweep: {}/{} seeds passed in {:.2}s ({:.1} seeds/s)",
        report.passed,
        n,
        secs,
        n as f64 / secs.max(1e-9),
    );
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_wave_sweep(n: u64) -> ExitCode {
    println!(
        "sim wave-sweep: {n} seeds, wave sizes {WAVE_SIZES:?} \
         (waved replay x2, overlap equivalence, disjoint identity, conservation)"
    );
    let start = Instant::now();
    let report = wave_sweep(0..n);
    let secs = start.elapsed().as_secs_f64();
    for failure in &report.failures {
        println!("FAIL {failure}");
    }
    println!(
        "sim wave-sweep: {}/{} seeds passed in {:.2}s ({:.1} seeds/s)",
        report.passed,
        n,
        secs,
        n as f64 / secs.max(1e-9),
    );
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_net_sweep(n: u64) -> ExitCode {
    println!(
        "sim net-sweep: {n} seeds, served-protocol oracles (transparency, replay, \
         kill at every protocol event, frame faults + mid-run kill)"
    );
    let start = Instant::now();
    let report = net_sweep(0..n);
    let secs = start.elapsed().as_secs_f64();
    for failure in &report.failures {
        println!("FAIL {failure}");
    }
    println!(
        "sim net-sweep: {}/{} seeds passed in {:.2}s ({:.1} seeds/s)",
        report.passed,
        n,
        secs,
        n as f64 / secs.max(1e-9),
    );
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_repro(seed: u64) -> ExitCode {
    println!("sim repro: seed {seed}");
    let outcome = simulate(seed, &SimOptions::default());
    println!(
        "  family {:?}: {} valid MSPs, {} questions, {} scheduling decisions ({} non-FIFO)",
        outcome.family,
        outcome.msps.len(),
        outcome.questions,
        outcome.decisions.len(),
        outcome.decisions.iter().filter(|&&d| d != 0).count(),
    );
    if let Some(e) = &outcome.error {
        println!("  run errored: {e}");
    }
    let tail: Vec<&str> = outcome.transcript.lines().rev().take(10).collect();
    println!("  transcript tail:");
    for line in tail.iter().rev() {
        println!("    {line}");
    }
    match check_seed(seed)
        .and_then(|()| check_service_seed(seed))
        .and_then(|()| check_durability_seed(seed))
        .and_then(|()| check_wave_seed(seed))
        .and_then(|()| check_net_seed(seed))
    {
        Ok(()) => {
            println!(
                "  all oracles passed (single-query, service, durability, waves \
                 and wire protocol)"
            );
            ExitCode::SUCCESS
        }
        Err(failure) => {
            println!("FAIL {failure}");
            match shrink(seed, &SimOptions::default(), diverges_from_reference) {
                Some(shrunk) => {
                    println!(
                        "  shrunk to {} non-FIFO decisions; minimal script: {:?}",
                        shrunk.non_fifo, shrunk.script
                    );
                    println!("  minimal failing transcript:");
                    for line in shrunk.transcript.lines() {
                        println!("    {line}");
                    }
                }
                None => println!(
                    "  failure is not schedule-divergence (replay or oracle plumbing); \
                     see transcript above"
                ),
            }
            ExitCode::FAILURE
        }
    }
}

fn run_bench(n: u64) -> ExitCode {
    // Warm the per-engine-seed sequential references so the measurement is
    // pure harness throughput.
    for seed in 0..4 {
        let _ = check_seed(seed);
    }
    let start = Instant::now();
    let report = sweep(0..n);
    let secs = start.elapsed().as_secs_f64();
    let seeds_per_sec = n as f64 / secs.max(1e-9);
    println!(
        "sim bench: {n} seeds ({} passed) in {secs:.3}s = {seeds_per_sec:.1} seeds/s \
         (travel domain, 3 oracle runs per seed)",
        report.passed
    );
    let json = format!(
        "{{\n\"experiment\": \"simtest\",\n\"domain\": \"travel\",\n\"seeds\": {n},\n\
         \"passed\": {},\n\"secs\": {secs:.6},\n\"seeds_per_sec\": {seeds_per_sec:.3},\n\
         \"runs_per_seed\": 3\n}}\n",
        report.passed
    );
    match std::fs::write("BENCH_simtest.json", json) {
        Ok(()) => println!("wrote BENCH_simtest.json"),
        Err(e) => {
            eprintln!("could not write BENCH_simtest.json: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for failure in &report.failures {
            println!("FAIL {failure}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("sweep");
    let arg_u64 = |i: usize| args.get(i).and_then(|v| v.parse::<u64>().ok());
    match cmd {
        "sweep" => {
            let n = arg_u64(1).or_else(|| env_u64("OASSIS_SIM_SEEDS")).unwrap_or(256);
            run_sweep(n)
        }
        "service-sweep" => {
            let n = arg_u64(1)
                .or_else(|| env_u64("OASSIS_SIM_SEEDS"))
                .unwrap_or(64);
            run_service_sweep(n)
        }
        "durability-sweep" => {
            let n = arg_u64(1)
                .or_else(|| env_u64("OASSIS_SIM_SEEDS"))
                .unwrap_or(64);
            run_durability_sweep(n)
        }
        "wave-sweep" => {
            let n = arg_u64(1)
                .or_else(|| env_u64("OASSIS_SIM_SEEDS"))
                .unwrap_or(64);
            run_wave_sweep(n)
        }
        "net-sweep" => {
            let n = arg_u64(1)
                .or_else(|| env_u64("OASSIS_SIM_SEEDS"))
                .unwrap_or(64);
            run_net_sweep(n)
        }
        "repro" => match arg_u64(1).or_else(|| env_u64("OASSIS_SIM_SEED")) {
            Some(seed) => run_repro(seed),
            None => {
                eprintln!("repro needs a seed: `sim repro 42` or OASSIS_SIM_SEED=42");
                eprintln!("hint: a failing sweep prints e.g. `{}`", repro_command(42));
                ExitCode::FAILURE
            }
        },
        "bench" => {
            let n = arg_u64(1).unwrap_or(64);
            run_bench(n)
        }
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
