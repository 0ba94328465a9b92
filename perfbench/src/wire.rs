//! The `wire` workload: one client thread on one TCP-loopback connection
//! keeps four sessions outstanding against `TcpNetServer::serve_until`,
//! which runs the service on the calling thread. Each session sends
//! `Submit`, then `Poll`s until its terminal `Update`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oassis::core::{EngineConfig, Oassis, OassisService, SessionRuntime, SessionSpec};
use oassis::crowd::transaction::table3_dbs;
use oassis::net::{
    NetClient, NetError, NetServer, Request, Response, TcpNetServer, TcpTransport, Transport,
    WireStatus, PROTOCOL_VERSION,
};
use oassis::obs::{names, InMemorySink};
use oassis::store::ontology::figure1_ontology;

use crate::inputs;
use crate::report::{mean, metric, peak_rss_mb, ratio, LoopStats, Sample};
use crate::trace::{covered_ns, totals, traced_members, TracedTransport, Tracer};
use crate::{Args, RunOutcome};

/// The figure-1 query of the paper (threshold replaced per session).
const QUERY: &str = "SELECT FACT-SETS WHERE \
      $x instanceOf $w. $w subClassOf* Attraction. \
      $y subClassOf* Activity \
    SATISFYING $y doAt $x WITH SUPPORT = 0.4";
const THRESHOLDS: [f64; 3] = [0.3, 0.4, 0.5];
/// Sessions the client keeps outstanding.
const OUTSTANDING: usize = 4;
/// Two-member rosters the sessions rotate over.
const PAIRS: usize = 8;
/// Completed sessions before the timed window opens: every spec twice, so
/// the first (cold) session of each spec has filled the store and the
/// window sees only store-seeded sessions.
const RAMP_SESSIONS: usize = 2 * PAIRS * THRESHOLDS.len();
/// Completed sessions at which `peak_rss_mb` is read (see `LoopStats`).
const RSS_SESSIONS: usize = 8000;

struct Plan {
    queries: Vec<String>,
    config: EngineConfig,
}

impl Plan {
    fn new(args: &Args) -> Plan {
        let mut queries: Vec<String> = THRESHOLDS
            .iter()
            .map(|&t| inputs::with_support(QUERY, t))
            .collect();
        inputs::Rng::new(args.seed).shuffle(&mut queries);
        Plan {
            queries,
            // The roster's two members answer every question, so a
            // session's outcome is a pure function of its spec.
            config: EngineConfig::builder().aggregator_sample(2).build(),
        }
    }

    fn slot(&self, k: usize) -> usize {
        k % self.queries.len()
    }

    /// Session `k` runs over pair `p` (seats `2p, 2p+1`); each pair runs
    /// every threshold in turn.
    fn spec(&self, k: usize) -> SessionSpec {
        let p = (k / self.queries.len()) % PAIRS;
        SessionSpec::builder(self.queries[self.slot(k)].clone())
            .config(self.config.clone())
            .roster(vec![2 * p, 2 * p + 1])
            .build()
    }
}

/// The two table-3 member databases, shared by every pair of seats.
fn templates() -> Vec<Arc<std::sync::Mutex<oassis::crowd::DbMember>>> {
    let vocab = Arc::new(figure1_ontology().vocabulary().clone());
    let (d1, d2) = table3_dbs(&vocab);
    inputs::shared_members(&[d1, d2], &vocab)
}

/// The client's view of the run.
struct ClientRun {
    stats: LoopStats,
    /// Every call's start (`Submit`) or end (`Poll`) and duration in µs.
    submit_us: Vec<(Instant, f64)>,
    poll_us: Vec<(Instant, f64)>,
    empty_polls: u64,
    finished: Vec<(usize, WireStatus, Vec<String>)>,
    /// Sessions finished before the window opened (the ramp).
    ramp_finished: usize,
    parse_ns: Vec<f64>,
    space_ns: Vec<f64>,
    seeds: Vec<f64>,
    window: (Instant, Instant),
    requests_in_window: u64,
    thread: u64,
    error: Option<String>,
}

impl Default for ClientRun {
    fn default() -> Self {
        let now = Instant::now();
        ClientRun {
            stats: LoopStats::default(),
            submit_us: Vec::new(),
            poll_us: Vec::new(),
            empty_polls: 0,
            finished: Vec::new(),
            ramp_finished: 0,
            parse_ns: Vec::new(),
            space_ns: Vec::new(),
            seeds: Vec::new(),
            window: (now, now),
            requests_in_window: 0,
            thread: 0,
            error: None,
        }
    }
}

struct Outstanding {
    k: usize,
    session: u64,
    sent: Instant,
    first_answer: Option<Instant>,
}

fn client_loop<T: Transport>(
    transport: T,
    plan: &Plan,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
    sink: &InMemorySink,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut client = NetClient::new(transport);
    let engine = tracer.map(|_| Oassis::new(figure1_ontology()));
    let call = |client: &mut NetClient<T>,
                req: &Request,
                session: Option<u64>|
     -> Result<(Vec<Response>, f64), NetError> {
        let start = Instant::now();
        let batch = match tracer {
            Some(t) => t.span("net.call", session, || client.call(req))?,
            None => client.call(req)?,
        };
        Ok((batch, start.elapsed().as_secs_f64() * 1e6))
    };
    if let Err(e) = call(
        &mut client,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        },
        None,
    ) {
        run.error = Some(format!("hello: {e}"));
        return run;
    }
    if let Some(t) = tracer {
        run.thread = t.this_thread();
    }
    // The timed window opens once the first `RAMP_SESSIONS` sessions have
    // finished (the ramp) and lasts `seconds`.
    let mut window: Option<(Instant, Instant)> = None;
    let mut completed = 0usize;
    let mut next_k = 0usize;
    let mut live: VecDeque<Outstanding> = VecDeque::new();
    let result = (|| -> Result<(), NetError> {
        let mut submit_next = |client: &mut NetClient<T>,
                               live: &mut VecDeque<Outstanding>,
                               run: &mut ClientRun|
         -> Result<(), NetError> {
            let k = next_k;
            next_k += 1;
            run.stats.attempted += 1;
            let spec = plan.spec(k);
            if let (Some(t), Some(engine)) = (tracer, &engine) {
                let start = Instant::now();
                let query = t.span("ql.parse", Some(k as u64), || engine.parse(&spec.query));
                run.parse_ns.push(start.elapsed().as_nanos() as f64);
                if let Ok(query) = query {
                    let start = Instant::now();
                    let space = t.span("sparql.space", Some(k as u64), || {
                        engine.space(&query, &spec.config)
                    });
                    run.space_ns.push(start.elapsed().as_nanos() as f64);
                    if let Ok(space) = space {
                        run.seeds.push(space.base_count() as f64);
                    }
                }
            }
            let sent = Instant::now();
            let admit = spec.to_admit(Some(k as u64 + 1));
            let (batch, us) = call(client, &Request::Submit { spec: admit }, Some(k as u64))?;
            run.submit_us.push((sent, us));
            match batch.last() {
                Some(Response::Admitted { session }) => live.push_back(Outstanding {
                    k,
                    session: *session,
                    sent,
                    first_answer: None,
                }),
                // A refused submit fails the operation; the slot closes.
                other => {
                    eprintln!("perfbench: submit refused: {other:?}");
                    run.stats.failed += 1;
                }
            }
            Ok(())
        };
        for _ in 0..OUTSTANDING {
            submit_next(&mut client, &mut live, &mut run)?;
        }
        while let Some(mut s) = live.pop_front() {
            let (batch, us) = call(
                &mut client,
                &Request::Poll { session: s.session },
                Some(s.k as u64),
            )?;
            let now = Instant::now();
            run.poll_us.push((now, us));
            let answers = batch.iter().any(|r| matches!(r, Response::Answer { .. }));
            if answers && s.first_answer.is_none() {
                s.first_answer = Some(now);
            }
            if window.is_some_and(|(from, to)| now > from && now <= to) {
                run.requests_in_window += 1;
                run.empty_polls += u64::from(
                    !answers
                        && matches!(
                            batch.last(),
                            Some(Response::Update {
                                status: WireStatus::Running,
                                ..
                            })
                        ),
                );
            }
            match batch.last() {
                Some(Response::Update {
                    status: WireStatus::Running,
                    ..
                }) => {
                    live.push_back(s);
                    continue;
                }
                Some(Response::Update {
                    status,
                    crowd_questions,
                    msps,
                    ..
                }) => {
                    completed += 1;
                    if completed == RSS_SESSIONS {
                        run.stats.rss_mb = Some(peak_rss_mb());
                    }
                    if window.is_none() && completed >= RAMP_SESSIONS {
                        window = Some((now, now + Duration::from_secs_f64(seconds)));
                        // Per-session counts cover the sessions after the ramp.
                        sink.reset();
                        run.ramp_finished = completed;
                    } else if let Some((from, _)) = window.filter(|&(_, to)| now <= to) {
                        run.stats.samples.push(Sample {
                            at_s: (now - from).as_secs_f64(),
                            latency_ms: (now - s.sent).as_secs_f64() * 1e3,
                            first_msp_ms: s.first_answer.map(|t| (t - s.sent).as_secs_f64() * 1e3),
                            crowd_questions: *crowd_questions as f64,
                        });
                    }
                    if *status != WireStatus::Completed {
                        run.stats.failed += 1;
                    }
                    run.finished.push((s.k, *status, msps.clone()));
                }
                other => {
                    eprintln!("perfbench: poll failed: {other:?}");
                    run.stats.failed += 1;
                }
            }
            if window.is_none_or(|(_, to)| now <= to) {
                submit_next(&mut client, &mut live, &mut run)?;
            }
        }
        Ok(())
    })();
    let now = Instant::now();
    let (from, to) = window.unwrap_or((now, now));
    run.stats.seconds = (to.min(now) - from).as_secs_f64();
    run.window = (from, to);
    if let Err(e) = result {
        run.error = Some(e.to_string());
    }
    let _ = client.call(&Request::Close);
    client.close();
    run
}

/// One set-up: crowd, service and a bound loopback socket; returned with
/// its duration in seconds. The store is warmed by the ramp, through the
/// wire: warming it here, in-process, made set-up time mostly the warm-up
/// sessions, which on a 2-vCPU KVM guest shared with other tenants took
/// either about 19 or about 32 ms, so a run's set-up time was bimodal.
fn set_up(tracer: Option<&Arc<Tracer>>, sink: &Arc<InMemorySink>) -> (TcpNetServer, f64) {
    let start = Instant::now();
    let templates = templates();
    let crowd = inputs::seats(&templates, 0, 2 * PAIRS);
    let crowd = match tracer {
        Some(t) => traced_members(crowd, t),
        None => crowd,
    };
    let runtime = SessionRuntime::new(crowd).workers(1);
    let engine = Oassis::new(figure1_ontology());
    let service = match tracer {
        Some(_) => OassisService::start_with_sink(engine, runtime, sink.clone()),
        None => OassisService::start(engine, runtime),
    };
    let tcp = TcpNetServer::bind("127.0.0.1:0", NetServer::new(service)).expect("bind loopback");
    (tcp, start.elapsed().as_secs_f64())
}

pub fn run(args: &Args, tracer: Option<&Arc<Tracer>>) -> RunOutcome {
    let mut out = RunOutcome::default();
    let sink = InMemorySink::shared();
    let plan = Plan::new(args);
    // Set-up timed SETUP_REPS times in an untraced run: the kept server and
    // half of the extra ones before the window, the rest after the checks.
    let (mut tcp, first) = set_up(tracer, &sink);
    let mut setups = vec![first];
    let extra = if tracer.is_some() {
        0
    } else {
        crate::SETUP_REPS - 1
    };
    let time_set_up = |setups: &mut Vec<f64>| {
        let (server, secs) = set_up(None, &sink);
        drop(server);
        setups.push(secs);
        std::thread::sleep(crate::SETUP_GAP);
    };
    for _ in 0..extra / 2 {
        time_set_up(&mut setups);
    }
    let addr = tcp.local_addr().expect("bound").to_string();

    // The in-process result of every spec, computed before timing.
    let expected: Vec<Vec<String>> = (0..plan.queries.len())
        .map(|slot| {
            let vocab = Arc::new(figure1_ontology().vocabulary().clone());
            let (d1, d2) = table3_dbs(&vocab);
            let mut crowd = inputs::boxed(inputs::members(&[d1, d2], 0, &vocab));
            let result = Oassis::new(figure1_ontology())
                .execute(&plan.queries[slot], &mut crowd, &plan.config)
                .expect("reference execution succeeds");
            inputs::valid_msps(&result.answers)
        })
        .collect();

    let done = AtomicBool::new(false);
    let client_run = std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            let run = match TcpTransport::connect(addr) {
                Ok(tcp) => match tracer {
                    Some(t) => client_loop(
                        TracedTransport {
                            inner: tcp,
                            tracer: Arc::clone(t),
                        },
                        &plan,
                        args.seconds,
                        tracer,
                        &sink,
                    ),
                    None => client_loop(tcp, &plan, args.seconds, None, &sink),
                },
                Err(e) => ClientRun {
                    error: Some(format!("connect: {e}")),
                    ..ClientRun::default()
                },
            };
            done.store(true, Ordering::SeqCst);
            run
        });
        if let Err(e) = tcp.serve_until(|| done.load(Ordering::SeqCst)) {
            eprintln!("perfbench: server loop failed: {e}");
            done.store(true, Ordering::SeqCst);
        }
        client.join().expect("client thread")
    });
    let fact_sets = tcp.server().service().store().len();
    drop(tcp);

    for _ in extra / 2..extra {
        time_set_up(&mut setups);
    }
    if let Some(e) = &client_run.error {
        out.fail(format!("wire client: {e}"));
    }
    for (k, status, msps) in &client_run.finished {
        if *status != WireStatus::Completed {
            out.fail(format!("session {k} ended {status:?}"));
        } else if *msps != expected[plan.slot(*k)] {
            out.fail(format!(
                "session {k}: served MSPs differ from the in-process result"
            ));
        }
    }
    if expected.iter().all(Vec::is_empty) {
        out.fail("vacuous check: no spec has a valid MSP".into());
    }
    let stats = &client_run.stats;
    out.attempted = stats.attempted;
    out.failed = stats.failed;
    out.session_metrics(stats, 99.0);
    out.setup_and_memory(&setups, stats);
    let (from, to) = client_run.window;
    let in_window = |calls: &[(Instant, f64)]| -> Vec<f64> {
        calls
            .iter()
            .filter(|(at, _)| *at > from && *at <= to)
            .map(|&(_, us)| us)
            .collect()
    };
    let (submit_us, poll_us) = (
        in_window(&client_run.submit_us),
        in_window(&client_run.poll_us),
    );
    let all_calls: Vec<f64> = submit_us.iter().chain(&poll_us).copied().collect();
    out.extra
        .push(metric("request_mean_us", mean(&all_calls), "us"));

    if let Some(t) = tracer {
        let (from, to) = (t.ns_at(from), t.ns_at(to));
        // Everything from the window's opening on, the drain included.
        let spans: Vec<_> = t
            .spans()
            .into_iter()
            .filter(|s| s.start_ns >= from)
            .collect();
        let covered = covered_ns(&spans, client_run.thread, from, to);
        let all = totals(&spans);
        let sessions = (client_run.finished.len() - client_run.ramp_finished).max(1) as f64;
        let after_open = |calls: &[(Instant, f64)]| {
            calls
                .iter()
                .filter(|(at, _)| *at > client_run.window.0)
                .count()
        };
        let requests = (after_open(&client_run.submit_us) + after_open(&client_run.poll_us)) as f64;
        let snap = sink.snapshot();
        let serve_hits = snap.counter("answerstore.hit[serve]") as f64;
        let misses = snap.counter_across_labels(names::ANSWERSTORE_MISS) as f64;
        let crowd_ask = all.get("crowd.ask").copied().unwrap_or_default();
        out.layers = vec![
            ("ql.parse_us", mean(&client_run.parse_ns) / 1e3),
            ("sparql.space_build_us", mean(&client_run.space_ns) / 1e3),
            ("sparql.seed_assignments", mean(&client_run.seeds)),
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
            (
                "answerstore.seed_per_session",
                snap.counter("answerstore.hit[seed]") as f64 / sessions,
            ),
            ("answerstore.serve_per_session", serve_hits / sessions),
            (
                "answerstore.hit_ratio",
                ratio(serve_hits, serve_hits + misses),
            ),
            ("answerstore.fact_sets", fact_sets as f64),
            ("net.requests_per_session", requests / sessions),
            (
                "net.empty_polls_per_request",
                ratio(
                    client_run.empty_polls as f64,
                    client_run.requests_in_window as f64,
                ),
            ),
            (
                "net.bytes_per_session",
                t.counter("net.bytes") as f64 / sessions,
            ),
        ];
        out.unattributed = 1.0 - ratio(covered, (to - from) as f64);
        if crowd_ask.count > 0 {
            out.details.push(metric(
                "crowd.answer_us",
                crowd_ask.total_ns as f64 / crowd_ask.count as f64 / 1e3,
                "us",
            ));
        }
        out.details
            .push(metric("net.call_us.submit", mean(&submit_us), "us"));
        out.details
            .push(metric("net.call_us.poll", mean(&poll_us), "us"));
    }
    out
}
