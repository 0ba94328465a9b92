//! The in-process workloads: `cold`, `durable` and `shared`. Each drives one
//! `OassisService` (main thread plus one runtime worker) as a closed loop
//! of analysts: every analyst waits for its session's final report before
//! submitting the next query.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oassis::core::engine::service::DEFAULT_SNAPSHOT_EVERY;
use oassis::core::{
    EngineConfig, Oassis, OassisError, OassisService, SessionId, SessionRuntime, SessionSpec,
    SessionStatus,
};
use oassis::crowd::CrowdMember;
use oassis::datagen::{self_treatment_domain, travel_domain, Domain};
use oassis::obs::{names, InMemorySink};
use oassis::store_durable::{shared, FileBacked};

use crate::inputs::{self, CrowdShape};
use crate::report::{mean, metric, peak_rss_mb, percentile, ratio, LoopStats, Sample};
use crate::trace::{covered_ns, totals, traced_members, TracedPersistence, Tracer};
use crate::{Args, RunOutcome};

/// Thresholds the `cold` and `durable` analysts rotate through (the travel
/// query's own is 0.2).
const TRAVEL_THRESHOLDS: [f64; 4] = [0.2, 0.25, 0.3, 0.35];
/// Members per `cold`/`durable` roster.
const ROSTER: usize = 8;
/// Distinct generated rosters per run. Each session gets fresh member ids
/// over one of them, so a run averages over many crowds and one seed's
/// draw does not set the run's cost.
const BASE_ROSTERS: usize = 64;
/// `shared`: the roster every session shares.
const SHARED_ROSTER: usize = 24;
/// `shared`: the stream its crowd's popular patterns are drawn from.
const SHARED_PATTERNS: u64 = 24;
/// Sessions re-run through `Oassis::execute` after a `cold`/`durable` run.
const CHECK_SAMPLE: usize = 8;
/// Cold recoveries timed after a `durable` run (median reported).
const RECOVER_REPS: usize = 3;

/// Fresh-seat sessions per second of timed phase the pool is built for:
/// `cold` (about 60/s measured) and `durable` (about 16/s). Both are far
/// above the measured rate, so the pool never binds, and `durable`'s is
/// lower because every set-up builds the whole pool.
const MAX_SESSIONS_PER_S: [(Kind, f64); 2] = [(Kind::Cold, 400.0), (Kind::Durable, 100.0)];

/// Which in-process workload to run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Durable,
    Shared,
}

/// A workload's generated inputs and how to build its service.
struct Plan {
    kind: Kind,
    domain: Domain,
    analysts: usize,
    /// Completed sessions at which `peak_rss_mb` is read (see `LoopStats`).
    rss_sessions: usize,
    /// Sessions the pool has fresh seats for (`cold`, `durable`); the loop
    /// never submits more.
    max_sessions: usize,
    /// Query text per rotation slot (threshold and restriction inlined).
    queries: Vec<String>,
    config: EngineConfig,
    /// Answering members behind every seat, by template index.
    templates: Vec<Arc<std::sync::Mutex<oassis::crowd::DbMember>>>,
    /// Per-template databases, for fresh copies in reference runs.
    dbs: Vec<oassis::crowd::PersonalDb>,
}

impl Plan {
    fn new(kind: Kind, args: &Args) -> Plan {
        let max_sessions = MAX_SESSIONS_PER_S
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |&(_, rate)| (args.seconds * rate).ceil() as usize + 64);
        match kind {
            Kind::Cold | Kind::Durable => {
                let domain = travel_domain();
                let shape = CrowdShape {
                    members: ROSTER,
                    transactions: 20,
                    popular_patterns: 8,
                    popularity: 0.7,
                    extra_fact: 0.25,
                };
                let dbs: Vec<_> = (0..BASE_ROSTERS as u64)
                    .flat_map(|r| {
                        inputs::crowd_dbs(
                            &domain,
                            &shape,
                            r,
                            args.seed.wrapping_mul(1000).wrapping_add(r),
                        )
                    })
                    .collect();
                let mut queries: Vec<String> = TRAVEL_THRESHOLDS
                    .iter()
                    .map(|&t| inputs::with_support(&domain.query, t))
                    .collect();
                inputs::Rng::new(args.seed).shuffle(&mut queries);
                let vocab = Arc::new(domain.ontology.vocabulary().clone());
                Plan {
                    kind,
                    analysts: 4,
                    rss_sessions: if kind == Kind::Cold { 600 } else { 150 },
                    max_sessions,
                    queries,
                    config: EngineConfig::default(),
                    templates: inputs::shared_members(&dbs, &vocab),
                    dbs,
                    domain,
                }
            }
            Kind::Shared => {
                let domain = self_treatment_domain();
                let shape = CrowdShape {
                    members: SHARED_ROSTER,
                    transactions: 1000,
                    popular_patterns: 12,
                    popularity: 0.9,
                    extra_fact: 0.25,
                };
                let dbs = inputs::crowd_dbs(&domain, &shape, SHARED_PATTERNS, args.seed);
                let restrictions = [
                    "FILTER($r IN (<Remedy-0>, <Remedy-1>, <Remedy-2>))",
                    "FILTER($s IN (<Symptom-0>, <Symptom-1>))",
                    "FILTER($r IN (<Remedy-3>, <Remedy-4>, <Remedy-5>)) FILTER($s NOT IN (<Symptom-3>))",
                    "FILTER($s IN (<Symptom-2>, <Symptom-3>)) FILTER($r NOT IN (<Remedy-0>))",
                ];
                let mut queries = Vec::new();
                for t in [0.15, 0.2, 0.25] {
                    for r in restrictions {
                        queries.push(inputs::with_filter(
                            &inputs::with_support(&domain.query, t),
                            r,
                        ));
                    }
                }
                inputs::Rng::new(args.seed).shuffle(&mut queries);
                let vocab = Arc::new(domain.ontology.vocabulary().clone());
                Plan {
                    kind,
                    analysts: 32,
                    rss_sessions: 1000,
                    max_sessions: usize::MAX,
                    queries,
                    // Every decision averages all roster answers, so a
                    // session's outcome does not depend on which of them
                    // came from the store or in which order.
                    config: EngineConfig::builder()
                        .aggregator_sample(SHARED_ROSTER)
                        .build(),
                    templates: inputs::shared_members(&dbs, &vocab),
                    dbs,
                    domain,
                }
            }
        }
    }

    /// The pool: `cold`/`durable` give session `k` seats `8k..8k+8`;
    /// `shared` is one 24-member crowd.
    fn crowd(&self) -> Vec<Box<dyn CrowdMember>> {
        match self.kind {
            Kind::Cold | Kind::Durable => {
                let mut seats = Vec::with_capacity(self.max_sessions * ROSTER);
                for k in 0..self.max_sessions {
                    let base = self.base_roster(k) * ROSTER;
                    seats.extend(inputs::seats(
                        &self.templates[base..base + ROSTER],
                        (k * ROSTER) as u32,
                        ROSTER,
                    ));
                }
                seats
            }
            Kind::Shared => inputs::seats(&self.templates, 0, SHARED_ROSTER),
        }
    }

    /// Rotation slot of session `k`: every run of consecutive sessions
    /// covers the query variants evenly, so the mix in a timed window does
    /// not depend on where the window falls.
    fn slot(&self, k: usize) -> usize {
        k % self.queries.len()
    }

    /// `cold`/`durable`: the generated roster behind session `k`'s fresh
    /// seats; each base roster runs every threshold in turn.
    fn base_roster(&self, k: usize) -> usize {
        (k / self.queries.len()) % BASE_ROSTERS
    }

    fn roster(&self, k: usize) -> Vec<usize> {
        match self.kind {
            Kind::Cold | Kind::Durable => (k * ROSTER..(k + 1) * ROSTER).collect(),
            Kind::Shared => (0..SHARED_ROSTER).collect(),
        }
    }

    fn spec(&self, k: usize) -> SessionSpec {
        SessionSpec::builder(self.queries[self.slot(k)].clone())
            .config(self.config.clone())
            .roster(self.roster(k))
            .build()
    }

    /// Fresh members equal to session `k`'s roster, for a direct run.
    fn fresh_roster(&self, k: usize) -> Vec<Box<dyn CrowdMember>> {
        let vocab = Arc::new(self.domain.ontology.vocabulary().clone());
        let dbs: Vec<_> = match self.kind {
            Kind::Cold | Kind::Durable => {
                let base = self.base_roster(k) * ROSTER;
                self.dbs[base..base + ROSTER].to_vec()
            }
            Kind::Shared => self.dbs.clone(),
        };
        let first = self.roster(k)[0] as u32;
        inputs::boxed(inputs::members(&dbs, first, &vocab))
    }

    /// Direct single-query execution of session `k`'s spec.
    fn direct(&self, k: usize) -> oassis::core::QueryResult {
        let engine = Oassis::new(self.domain.ontology.clone());
        let mut crowd = self.fresh_roster(k);
        engine
            .execute(&self.queries[self.slot(k)], &mut crowd, &self.config)
            .expect("reference execution succeeds")
    }
}

/// What the checks need from one finished session.
struct Finished {
    k: usize,
    status: SessionStatus,
    msps: Vec<String>,
    crowd_questions: usize,
    store_hits: usize,
    total_questions: usize,
    nodes_generated: usize,
}

/// A live analyst's current session.
struct Live {
    k: usize,
    id: SessionId,
    submitted: Instant,
    first_msp: Option<Instant>,
}

/// Per-run trace context.
struct Traced<'a> {
    tracer: &'a Arc<Tracer>,
    sink: Arc<InMemorySink>,
    engine: Oassis,
    parse_ns: Vec<f64>,
    space_ns: Vec<f64>,
    seeds: Vec<f64>,
    admit_ns: Vec<f64>,
}

/// Submit session `k` (timing the query front-end first when traced).
fn submit(
    service: &mut OassisService,
    plan: &Plan,
    k: usize,
    traced: &mut Option<Traced>,
) -> Result<SessionId, String> {
    let spec = plan.spec(k);
    match traced {
        None => service.submit(spec).map_err(|e| e.to_string()),
        Some(t) => {
            let tracer = t.tracer;
            let session = Some(k as u64);
            let start = Instant::now();
            let query = tracer.span("ql.parse", session, || t.engine.parse(&spec.query));
            t.parse_ns.push(start.elapsed().as_nanos() as f64);
            if let Ok(query) = &query {
                let start = Instant::now();
                let space = tracer.span("sparql.space", session, || {
                    t.engine.space(query, &spec.config)
                });
                t.space_ns.push(start.elapsed().as_nanos() as f64);
                if let Ok(space) = space {
                    t.seeds.push(space.base_count() as f64);
                }
            }
            let start = Instant::now();
            let id = tracer.span("service.submit", session, || service.submit(spec));
            t.admit_ns.push(start.elapsed().as_nanos() as f64);
            id.map_err(|e| e.to_string())
        }
    }
}

/// Run the closed loop until every analyst's first session has finished
/// (the ramp), then for `seconds` more (the timed window), then drain the
/// sessions still live. Returns the window's statistics, the cycle count
/// and the window's bounds.
fn closed_loop(
    service: &mut OassisService,
    plan: &Plan,
    first_k: usize,
    seconds: f64,
    traced: &mut Option<Traced>,
    finished: &mut Vec<Finished>,
) -> (LoopStats, usize, (Instant, Instant)) {
    let mut stats = LoopStats::default();
    let mut next_k = first_k;
    let mut live: Vec<Live> = Vec::with_capacity(plan.analysts);
    let open = |service: &mut OassisService,
                next_k: &mut usize,
                live: &mut Vec<Live>,
                stats: &mut LoopStats,
                traced: &mut Option<Traced>| {
        if *next_k >= plan.max_sessions {
            return;
        }
        let k = *next_k;
        *next_k += 1;
        stats.attempted += 1;
        let submitted = Instant::now();
        match submit(service, plan, k, traced) {
            Ok(id) => live.push(Live {
                k,
                id,
                submitted,
                first_msp: None,
            }),
            // A refused submit fails the operation; the analyst stops.
            Err(e) => {
                eprintln!("perfbench: submit refused: {e}");
                stats.failed += 1;
            }
        }
    };
    for _ in 0..plan.analysts {
        open(service, &mut next_k, &mut live, &mut stats, traced);
    }
    let mut window: Option<(Instant, Instant)> = None;
    let mut completed = 0usize;
    let mut cycles = 0usize;
    while !live.is_empty() {
        if window.is_some_and(|(_, end)| Instant::now() <= end) {
            cycles += 1;
        }
        match traced {
            None => service.run_cycle(),
            Some(t) => t
                .tracer
                .span("service.run_cycle", None, || service.run_cycle()),
        };
        let now = Instant::now();
        let mut i = 0;
        while i < live.len() {
            let id = live[i].id;
            let (partials, report) = match traced {
                None => poll(service, id, live[i].first_msp.is_none()),
                Some(t) => t.tracer.span("service.poll", Some(live[i].k as u64), || {
                    poll(service, id, live[i].first_msp.is_none())
                }),
            };
            if partials && live[i].first_msp.is_none() {
                live[i].first_msp = Some(now);
            }
            let Some(report) = report else {
                i += 1;
                continue;
            };
            let done = live.swap_remove(i);
            if report.status != SessionStatus::Completed {
                stats.failed += 1;
            }
            completed += 1;
            if completed == plan.rss_sessions {
                stats.rss_mb = Some(peak_rss_mb());
            }
            let open_more = match window {
                None => {
                    if completed >= plan.analysts {
                        window = Some((now, now + Duration::from_secs_f64(seconds)));
                    }
                    true
                }
                Some((from, end)) if now <= end => {
                    stats.samples.push(Sample {
                        at_s: (now - from).as_secs_f64(),
                        latency_ms: (now - done.submitted).as_secs_f64() * 1e3,
                        first_msp_ms: done
                            .first_msp
                            .map(|t| (t - done.submitted).as_secs_f64() * 1e3),
                        crowd_questions: report.crowd_questions as f64,
                    });
                    true
                }
                Some(_) => false,
            };
            if open_more {
                open(service, &mut next_k, &mut live, &mut stats, traced);
            }
            finished.push(Finished {
                k: done.k,
                status: report.status,
                msps: inputs::valid_msps(&report.result.answers),
                crowd_questions: report.crowd_questions,
                store_hits: report.store_hits,
                total_questions: report.result.stats.total_questions,
                nodes_generated: report.result.stats.nodes_generated,
            });
        }
    }
    let now = Instant::now();
    let window = window.unwrap_or((now, now));
    stats.seconds = (window.1.min(now) - window.0).as_secs_f64();
    (stats, cycles, window)
}

/// Drain `id`'s streamed partials (only while its first MSP is still
/// awaited) and take its report if it has finished.
fn poll(
    service: &mut OassisService,
    id: SessionId,
    want_partials: bool,
) -> (bool, Option<oassis::core::SessionReport>) {
    let partials = want_partials && !service.take_partials(id).is_empty();
    (partials, service.take_report(id))
}

fn runtime(crowd: Vec<Box<dyn CrowdMember>>, tracer: Option<&Arc<Tracer>>) -> SessionRuntime {
    let crowd = match tracer {
        Some(t) => traced_members(crowd, t),
        None => crowd,
    };
    SessionRuntime::new(crowd).workers(1)
}

/// A fresh WAL directory for this run.
fn wal_dir(args: &Args, attempt: usize) -> PathBuf {
    Path::new(crate::OUT_DIR).join(format!(
        "wal-{}-{}-{attempt}",
        std::process::id(),
        args.seed
    ))
}

/// The recording sink and tracer of a traced run.
type TraceHooks<'a> = Option<(&'a Arc<Tracer>, &'a Arc<InMemorySink>)>;

/// Build the service (durable: `recover` on a fresh directory).
fn start(
    plan: &Plan,
    args: &Args,
    attempt: usize,
    hooks: TraceHooks,
) -> (OassisService, Option<PathBuf>) {
    let engine = Oassis::new(plan.domain.ontology.clone());
    let rt = runtime(plan.crowd(), hooks.map(|(t, _)| t));
    let dir = (plan.kind == Kind::Durable).then(|| wal_dir(args, attempt));
    if let Some(dir) = &dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let service = match (&dir, hooks) {
        (Some(dir), None) => {
            let (service, recovered) =
                OassisService::recover(engine, rt, dir).expect("fresh WAL opens");
            assert!(recovered.is_empty(), "a fresh WAL recovers no session");
            service
        }
        (Some(dir), Some((tracer, sink))) => {
            let file = FileBacked::open(dir)
                .expect("fresh WAL opens")
                .with_snapshot_every(DEFAULT_SNAPSHOT_EVERY);
            let persistence = shared(TracedPersistence {
                inner: file,
                tracer: Arc::clone(tracer),
            });
            let (service, recovered) =
                OassisService::recover_with(engine, rt, sink.clone(), persistence)
                    .expect("fresh WAL opens");
            assert!(recovered.is_empty(), "a fresh WAL recovers no session");
            service
        }
        (None, None) => OassisService::start(engine, rt),
        (None, Some((_, sink))) => OassisService::start_with_sink(engine, rt, sink.clone()),
    };
    (service, dir)
}

/// A finished warm-up session: `(k, status, valid MSPs)`.
type Warm = (usize, SessionStatus, Vec<String>);

/// A built workload: plan, service, WAL directory, warm-up outcomes.
struct Built(Plan, OassisService, Option<PathBuf>, Vec<Warm>);

/// One set-up: inputs, crowd, service and (`shared`) the store warm-up with
/// one session per variant; returned with its duration in seconds.
fn set_up(kind: Kind, args: &Args, attempt: usize, hooks: TraceHooks) -> (Built, f64) {
    let start_at = Instant::now();
    let plan = Plan::new(kind, args);
    let (mut service, dir) = start(&plan, args, attempt, hooks);
    let mut warm = Vec::new();
    if kind == Kind::Shared {
        for k in 0..plan.queries.len() {
            service.submit(plan.spec(k)).expect("warm-up admits");
        }
        for report in service.run() {
            warm.push((
                report.id.0 as usize,
                report.status,
                inputs::valid_msps(&report.result.answers),
            ));
        }
    }
    let secs = start_at.elapsed().as_secs_f64();
    (Built(plan, service, dir, warm), secs)
}

/// Time one more set-up and throw it away.
fn time_set_up(kind: Kind, args: &Args, attempt: usize) -> f64 {
    let (Built(_, service, dir, _), secs) = set_up(kind, args, attempt, None);
    drop(service);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    std::thread::sleep(crate::SETUP_GAP);
    secs
}

pub fn run(kind: Kind, args: &Args, tracer: Option<&Arc<Tracer>>) -> RunOutcome {
    let mut out = RunOutcome::default();
    let sink = InMemorySink::shared();
    let hooks = tracer.map(|t| (t, &sink));

    // Set-up is timed SETUP_REPS times in an untraced run: the kept build
    // and half of the extra ones before the window, the rest after the
    // checks, spaced by `SETUP_GAP`; `setup_s` is their median.
    let (Built(plan, mut service, dir, warm), first) = set_up(kind, args, 0, hooks);
    let mut setups = vec![first];
    let extra = if tracer.is_some() {
        0
    } else {
        crate::SETUP_REPS - 1
    };
    for attempt in 1..=extra / 2 {
        setups.push(time_set_up(kind, args, attempt));
    }
    // `shared`: every session's answer is fixed in advance by its variant.
    let expected: Vec<Vec<String>> = match kind {
        Kind::Shared => (0..plan.queries.len())
            .map(|v| inputs::valid_msps(&plan.direct(v).answers))
            .collect(),
        _ => Vec::new(),
    };
    let mut traced = tracer.map(|tracer| Traced {
        tracer,
        sink: Arc::clone(&sink),
        engine: Oassis::new(plan.domain.ontology.clone()),
        parse_ns: Vec::new(),
        space_ns: Vec::new(),
        seeds: Vec::new(),
        admit_ns: Vec::new(),
    });
    let first_k = if kind == Kind::Shared {
        plan.queries.len()
    } else {
        0
    };

    let main_thread = tracer.map(|t| t.this_thread());
    // Per-session counts cover the closed loop only, not set-up.
    sink.reset();
    let loop_from = tracer.map_or(0, |t| t.ns_at(Instant::now()));
    let mut finished = Vec::new();
    let (stats, cycles, (from, to)) = closed_loop(
        &mut service,
        &plan,
        first_k,
        args.seconds,
        &mut traced,
        &mut finished,
    );
    let (loop_start_ns, loop_end_ns) = tracer.map_or((0, 0), |t| (t.ns_at(from), t.ns_at(to)));
    let live_fact_sets = service.store().len();

    // Output checks.
    for (k, status, msps) in &warm {
        if *status != SessionStatus::Completed || *msps != expected[plan.slot(*k)] {
            out.fail(format!(
                "warm-up session {k}: output differs from its direct run"
            ));
        }
    }
    match kind {
        Kind::Shared => {
            for f in &finished {
                if f.msps != expected[plan.slot(f.k)] {
                    out.fail(format!(
                        "session {}: valid MSPs differ from the direct run of its variant",
                        f.k
                    ));
                }
            }
            if expected.iter().all(Vec::is_empty) {
                out.fail("vacuous check: no variant has a valid MSP".into());
            }
        }
        Kind::Cold | Kind::Durable => {
            for f in &finished {
                if f.store_hits != 0 {
                    out.fail(format!(
                        "session {}: {} store hits on a fresh roster",
                        f.k, f.store_hits
                    ));
                }
            }
            let mut sample: Vec<&Finished> =
                finished.iter().filter(|f| f.k < CHECK_SAMPLE).collect();
            sample.sort_by_key(|f| f.k);
            if sample.len() < CHECK_SAMPLE {
                out.fail(format!(
                    "only {} of the first {CHECK_SAMPLE} sessions finished",
                    sample.len()
                ));
            }
            for f in sample {
                let direct = plan.direct(f.k);
                if inputs::valid_msps(&direct.answers) != f.msps
                    || direct.stats.total_questions != f.total_questions
                {
                    out.fail(format!(
                        "session {}: service gave {} valid MSPs / {} questions, direct run {} / {}",
                        f.k,
                        f.msps.len(),
                        f.total_questions,
                        inputs::valid_msps(&direct.answers).len(),
                        direct.stats.total_questions
                    ));
                }
            }
            if finished.iter().all(|f| f.msps.is_empty()) {
                out.fail("vacuous check: no session found a valid MSP".into());
            }
        }
    }
    for f in &finished {
        if f.status != SessionStatus::Completed {
            out.fail(format!("session {} ended {:?}", f.k, f.status));
        }
    }
    drop(service);

    // `durable`: time cold recoveries of the finished log.
    let mut recover_s = Vec::new();
    if let Some(dir) = &dir {
        for _ in 0..RECOVER_REPS {
            let engine = Oassis::new(plan.domain.ontology.clone());
            let rt = SessionRuntime::new(plan.crowd()).workers(1);
            let start = Instant::now();
            let recovered = match tracer {
                None => OassisService::recover(engine, rt, dir),
                // Traced: the same recovery through the counting wrapper.
                Some(t) => FileBacked::open(dir)
                    .map_err(OassisError::from)
                    .and_then(|file| {
                        let persistence = shared(TracedPersistence {
                            inner: file.with_snapshot_every(DEFAULT_SNAPSHOT_EVERY),
                            tracer: Arc::clone(t),
                        });
                        OassisService::recover_with(
                            engine,
                            rt,
                            oassis::obs::null_sink(),
                            persistence,
                        )
                    }),
            };
            recover_s.push(start.elapsed().as_secs_f64());
            match recovered {
                Ok((service, sessions)) => {
                    if !sessions.is_empty() {
                        out.fail(format!(
                            "recover returned {} interrupted sessions",
                            sessions.len()
                        ));
                    }
                    if service.store().len() != live_fact_sets {
                        out.fail(format!(
                            "recover rebuilt {} fact-sets, the live store held {live_fact_sets}",
                            service.store().len()
                        ));
                    }
                }
                Err(e) => out.fail(format!("recover failed: {e}")),
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    for attempt in extra / 2 + 1..=extra {
        setups.push(time_set_up(kind, args, attempt));
    }

    out.attempted = stats.attempted;
    out.failed = stats.failed;
    out.session_metrics(&stats, if kind == Kind::Shared { 99.0 } else { 90.0 });
    out.setup_and_memory(&setups, &stats);
    if !recover_s.is_empty() {
        out.extra
            .push(metric("recover_s", percentile(&recover_s, 50.0), "s"));
    }

    if let Some(t) = &traced {
        let spans: Vec<_> = t
            .tracer
            .spans()
            .into_iter()
            .filter(|s| s.start_ns >= loop_from)
            .collect();
        let window: Vec<_> = spans
            .iter()
            .filter(|s| s.start_ns >= loop_start_ns && s.start_ns <= loop_end_ns)
            .copied()
            .collect();
        let tot = totals(&window);
        let all = totals(&spans);
        let main = main_thread.expect("traced run");
        let wall_ns = (loop_end_ns - loop_start_ns) as f64;
        let covered = covered_ns(&spans, main, loop_start_ns, loop_end_ns);
        let self_ns = |name: &str| tot.get(name).map_or(0, |x| x.self_ns) as f64;
        let count = |name: &str| tot.get(name).map_or(0, |x| x.count) as f64;
        let sessions = finished.len().max(1) as f64;
        let window_sessions = stats.samples.len().max(1) as f64;
        let snap = t.sink.snapshot();
        let seed_hits = snap.counter("answerstore.hit[seed]") as f64;
        let serve_hits = snap.counter("answerstore.hit[serve]") as f64;
        let misses = snap.counter_across_labels(names::ANSWERSTORE_MISS) as f64;
        let answers: f64 = finished.iter().map(|f| f.crowd_questions as f64).sum();
        let tenth = (t.admit_ns.len() / 10).max(1);
        let admit_growth = ratio(
            mean(&t.admit_ns[t.admit_ns.len().saturating_sub(tenth)..]),
            mean(&t.admit_ns[..tenth.min(t.admit_ns.len())]),
        );
        let crowd_ask = all.get("crowd.ask").copied().unwrap_or_default();
        let per_session = |f: fn(&Finished) -> usize| {
            mean(&finished.iter().map(|x| f(x) as f64).collect::<Vec<_>>())
        };
        out.layers = vec![
            ("ql.parse_us", mean(&t.parse_ns) / 1e3),
            ("sparql.space_build_us", mean(&t.space_ns) / 1e3),
            ("sparql.seed_assignments", mean(&t.seeds)),
            ("service.admit_share", self_ns("service.submit") / wall_ns),
            ("service.admit_growth", admit_growth),
            (
                "service.cycle_share",
                self_ns("service.run_cycle") / wall_ns,
            ),
            (
                "service.cycles_per_session",
                cycles as f64 / window_sessions,
            ),
            ("session.questions", per_session(|f| f.total_questions)),
            (
                "session.nodes_generated",
                per_session(|f| f.nodes_generated),
            ),
            (
                "runtime.dispatched_per_session",
                snap.counter_across_labels(names::RUNTIME_DISPATCHED) as f64 / sessions,
            ),
            (
                "runtime.stalls_per_session",
                snap.counter_across_labels(names::SERVICE_DISPATCH_STALLED) as f64 / sessions,
            ),
            (
                "crowd.answers_per_session",
                crowd_ask.count as f64 / sessions,
            ),
            ("answerstore.seed_per_session", seed_hits / sessions),
            ("answerstore.serve_per_session", serve_hits / sessions),
            (
                "answerstore.hit_ratio",
                ratio(serve_hits, serve_hits + misses),
            ),
            ("answerstore.fact_sets", live_fact_sets as f64),
            ("wal.append_share", self_ns("wal.append") / wall_ns),
            ("wal.snapshot_share", self_ns("wal.snapshot") / wall_ns),
            (
                "wal.appends_per_answer",
                ratio(t.tracer.counter("wal.appends") as f64, answers),
            ),
            (
                "wal.bytes_per_answer",
                ratio(t.tracer.counter("wal.bytes") as f64, answers),
            ),
            (
                "wal.replay_records",
                t.tracer.counter("wal.replay_records") as f64 / RECOVER_REPS as f64,
            ),
        ];
        out.unattributed = 1.0 - covered / wall_ns;
        // Per-operation times of the layers that only some workloads use.
        out.details
            .push(metric("service.admit_us", mean(&t.admit_ns) / 1e3, "us"));
        if crowd_ask.count > 0 {
            out.details.push(metric(
                "crowd.answer_us",
                crowd_ask.total_ns as f64 / crowd_ask.count as f64 / 1e3,
                "us",
            ));
        }
        out.details.push(metric(
            "service.cycle_us",
            ratio(self_ns("service.run_cycle"), count("service.run_cycle")) / 1e3,
            "us",
        ));
        if count("wal.append") > 0.0 {
            out.details.push(metric(
                "wal.append_us",
                ratio(self_ns("wal.append"), count("wal.append")) / 1e3,
                "us",
            ));
            out.details.push(metric(
                "wal.snapshot_ms",
                ratio(self_ns("wal.snapshot"), count("wal.snapshot")) / 1e6,
                "ms",
            ));
        }
    }
    out
}
