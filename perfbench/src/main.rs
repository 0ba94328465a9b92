//! Closed-loop end-to-end benchmark of OASSIS: see `README.md` beside this
//! package for the workloads, the metrics and how to run it.
//!
//! ```text
//! perfbench --workload <cold|shared|durable|wire> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it print every
//! metric by name with its unit. A failed output check exits with code 1.

mod inproc;
mod inputs;
mod probe;
mod report;
mod trace;
mod wire;

use std::path::Path;

use report::{mean, metric, peak_rss_mb, percentile, ratio, result_line, LoopStats, Metric};

/// Where run artefacts go: WAL directories and span dumps.
pub const OUT_DIR: &str = ".bench_out";
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;
/// Pause after each extra set-up. On a 2-vCPU KVM guest shared with other
/// tenants the same set-up ran at two speeds about 1.7x apart, switching
/// every few tenths of a second to every few seconds; set-ups run back to
/// back all landed on one speed, so a run's median was whichever speed its
/// two bursts met. Spacing them samples more of those periods.
pub const SETUP_GAP: std::time::Duration = std::time::Duration::from_millis(200);

/// The per-layer metrics of a traced run's result line, in order. Every
/// workload prints all of them; a layer a workload does not exercise (or
/// that is not observable from outside on it) reads 0. Per-operation times
/// of layers only some workloads use are printed above the result line.
const PER_LAYER: [(&str, &str); 28] = [
    ("ql.parse_us", "us"),
    ("sparql.space_build_us", "us"),
    ("sparql.seed_assignments", "count"),
    ("service.admit_share", "share"),
    ("service.admit_growth", "ratio"),
    ("service.cycle_share", "share"),
    ("service.cycles_per_session", "count"),
    ("session.questions", "count"),
    ("session.nodes_generated", "count"),
    ("runtime.dispatched_per_session", "count"),
    ("runtime.stalls_per_session", "count"),
    ("crowd.answers_per_session", "count"),
    ("answerstore.seed_per_session", "count"),
    ("answerstore.serve_per_session", "count"),
    ("answerstore.hit_ratio", "ratio"),
    ("answerstore.fact_sets", "count"),
    ("wal.append_share", "share"),
    ("wal.snapshot_share", "share"),
    ("wal.appends_per_answer", "ratio"),
    ("wal.bytes_per_answer", "bytes"),
    ("wal.replay_records", "count"),
    ("net.requests_per_session", "count"),
    ("net.empty_polls_per_request", "ratio"),
    ("net.bytes_per_session", "bytes"),
    ("probe.missed", "count"),
    ("failed_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "share"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 0u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !["cold", "shared", "durable", "wire"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// One run's metrics and check results.
#[derive(Default)]
pub struct RunOutcome {
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub sessions_per_s: f64,
    /// End-to-end metrics of the result line: every workload has them,
    /// none of them can read 0, and each repeats within a tenth.
    pub e2e: Vec<Metric>,
    /// End-to-end metrics printed above the result line only.
    pub extra: Vec<Metric>,
    /// Per-layer values of the result line (traced runs), by name; units
    /// come from [`PER_LAYER`].
    pub layers: Vec<(&'static str, f64)>,
    /// Per-operation times of layers only some workloads use (printed).
    pub details: Vec<Metric>,
    /// Main-thread (wire: client-thread) time of the window not inside any span.
    pub unattributed: f64,
}

impl RunOutcome {
    pub fn fail(&mut self, why: String) {
        eprintln!("perfbench: check failed: {why}");
        self.failures.push(why);
    }

    /// The session-level end-to-end metrics. The result line carries only
    /// the throughput: on `durable` every snapshot rewrites the whole
    /// store, so a session's latency grows through the run and a latency
    /// percentile depends on where in that growth the run's sessions fall.
    /// `tail` is the workload's own tail percentile (p99 where a run has
    /// enough sessions), printed with its count.
    pub fn session_metrics(&mut self, stats: &LoopStats, tail: f64) {
        let latency: Vec<f64> = stats.samples.iter().map(|s| s.latency_ms).collect();
        let first: Vec<f64> = stats
            .samples
            .iter()
            .filter_map(|s| s.first_msp_ms)
            .collect();
        let questions: Vec<f64> = stats.samples.iter().map(|s| s.crowd_questions).collect();
        // Completions per second up to the window's last completion.
        let span = stats.samples.iter().map(|s| s.at_s).fold(0.0, f64::max);
        self.sessions_per_s = ratio(stats.samples.len() as f64, span);
        self.e2e
            .push(metric("sessions_per_s", self.sessions_per_s, "1/s"));
        self.extra
            .push(metric("session_p50_ms", percentile(&latency, 50.0), "ms"));
        self.extra
            .push(metric("session_p90_ms", percentile(&latency, 90.0), "ms"));
        let tails: &[f64] = if tail > 90.0 { &[90.0, tail] } else { &[90.0] };
        for &p in tails {
            let value = percentile(&latency, p);
            let beyond = latency.iter().filter(|&&l| l > value).count();
            println!(
                "p{p} of {} sessions = {value} ms ({beyond} sessions beyond it)",
                latency.len()
            );
        }
        if tail > 90.0 {
            self.extra.push(metric(
                &format!("session_p{tail}_ms"),
                percentile(&latency, tail),
                "ms",
            ));
        }
        if !first.is_empty() {
            self.extra
                .push(metric("first_msp_p50_ms", percentile(&first, 50.0), "ms"));
        }
        self.extra.push(metric(
            "crowd_questions_per_session",
            mean(&questions),
            "count",
        ));
    }

    /// `setup_s` (the median of the run's set-ups) and `peak_rss_mb`.
    pub fn setup_and_memory(&mut self, setups: &[f64], stats: &LoopStats) {
        let rss = stats.rss_mb.unwrap_or_else(|| {
            eprintln!("perfbench: note: too few sessions for the fixed-work memory reading; using the run's peak");
            peak_rss_mb()
        });
        self.e2e
            .push(metric("setup_s", percentile(setups, 50.0), "s"));
        self.e2e.push(metric("peak_rss_mb", rss, "MB"));
    }
}

fn run_workload(args: &Args, tracer: Option<&std::sync::Arc<trace::Tracer>>) -> RunOutcome {
    match args.workload.as_str() {
        "cold" => inproc::run(inproc::Kind::Cold, args, tracer),
        "durable" => inproc::run(inproc::Kind::Durable, args, tracer),
        "shared" => inproc::run(inproc::Kind::Shared, args, tracer),
        _ => wire::run(args, tracer),
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--probe") {
        std::process::exit(probe::child(&argv[2..]));
    }
    let args = match Args::parse(&argv[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <cold|shared|durable|wire> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };

    // A traced invocation splits its time between an untraced and a traced
    // run, so it costs about as much as an untraced one.
    let phase = Args {
        seconds: if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        },
        workload: args.workload.clone(),
        ..args
    };
    let base = run_workload(&phase, None);
    let mut failures = base.failures.clone();
    let traced = args.trace.then(|| {
        let tracer = trace::Tracer::new();
        let mut traced = run_workload(&phase, Some(&tracer));
        failures.append(&mut traced.failures);
        let path = Path::new(OUT_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        traced
    });

    // `durable` and `shared` also probe the warm admission of multiplicity
    // queries.
    let (probe_attempted, probe_missed) = if ["durable", "shared"].contains(&args.workload.as_str())
    {
        probe::run(args.seed)
    } else {
        (0, 0)
    };
    let attempted = base.attempted + probe_attempted;
    let failed = base.failed + probe_missed;
    let failed_share = ratio(failed as f64, attempted as f64);

    let e2e = base.e2e;
    println!(
        "workload {} seed {} seconds {}",
        args.workload, args.seed, args.seconds
    );
    print_metrics(&e2e);
    print_metrics(&base.extra);
    println!(
        "failed_share = {failed_share} ratio ({failed} of {attempted} operations; {probe_missed} of {probe_attempted} admission probes missed their deadline)"
    );
    let correct = failures.is_empty();
    let line = match traced {
        None => result_line(correct, base.attempted, base.failed, &e2e),
        Some(mut t) => {
            t.layers.extend([
                ("probe.missed", probe_missed as f64),
                ("failed_share", failed_share),
                (
                    "trace.overhead",
                    1.0 - ratio(t.sessions_per_s, base.sessions_per_s),
                ),
                ("trace.unattributed_share", t.unattributed),
            ]);
            for (name, _) in &t.layers {
                assert!(
                    PER_LAYER.iter().any(|(n, _)| n == name),
                    "{name} is not in PER_LAYER"
                );
            }
            let layers: Vec<Metric> = PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let value = t
                        .layers
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |&(_, v)| v);
                    metric(name, value, unit)
                })
                .collect();
            println!("-- per layer (traced run) --");
            print_metrics(&layers);
            print_metrics(&t.details);
            result_line(correct, t.attempted, t.failed, &layers)
        }
    };
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
