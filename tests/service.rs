//! Integration tests for the multi-query service layer ([`OassisService`]):
//! the differential invariant (a single session through the service is
//! byte-for-byte the independent sequential reference loop of
//! `oassis-simtest`), cross-query answer reuse through the `AnswerStore`,
//! per-session budgets, cancellation, and priority scheduling.

use std::sync::{Arc, Mutex};

use oassis::core::{
    EngineConfig, Oassis, OassisService, SessionRuntime, SessionSpec, SessionStatus,
};
use oassis::crowd::transaction::table3_dbs;
use oassis::crowd::{CrowdMember, DbMember, MemberId};
use oassis::datagen::{
    culinary_domain, generate_crowd, self_treatment_domain, travel_domain, CrowdGenConfig, Domain,
};
use oassis::obs::{names, EventSink, InMemorySink};
use oassis::store::ontology::figure1_ontology;
use oassis::store_durable::{InMemory, SharedPersistence, WalRecord};
use oassis::vocab::{ElementId, FactSet};
use oassis_simtest::{crowd, run_sequential, valid_msp_set, QUERY};

fn domain_crowd(domain: &Domain, members: usize, seed: u64) -> Vec<Box<dyn CrowdMember>> {
    let crowd = generate_crowd(
        domain,
        &CrowdGenConfig {
            members,
            transactions_per_member: 20,
            popular_patterns: 6,
            seed,
            ..Default::default()
        },
    );
    crowd
        .members
        .into_iter()
        .map(|m| Box::new(m) as Box<dyn CrowdMember>)
        .collect()
}

/// The tentpole invariant, per experiment domain: one session admitted to
/// the service (empty store) produces exactly the valid-MSP set and the
/// question count of the sequential reference loop, a bare `MiningSession`
/// whose questions are asked in-line (sharing no code with the service).
#[test]
fn single_session_matches_multiuser_run_per_domain() {
    for (domain, members, seed) in [
        (travel_domain(), 8, 3u64),
        (culinary_domain(), 8, 5),
        (self_treatment_domain(), 10, 7),
    ] {
        let cfg = EngineConfig::builder().seed(seed).build();

        // Serial baseline: the independent sequential reference loop.
        let engine = Oassis::new(domain.ontology.clone());
        let mut serial_members = domain_crowd(&domain, members, seed);
        let serial = run_sequential(&engine, &domain.query, &mut serial_members, &cfg);

        // The same query as the only session of a fresh service.
        let engine = Oassis::new(domain.ontology.clone());
        let runtime = SessionRuntime::new(domain_crowd(&domain, members, seed));
        let mut service = OassisService::start(engine, runtime);
        let spec = SessionSpec::builder(&domain.query).config(cfg.clone()).build();
        service.submit(spec).unwrap();
        let mut reports = service.run();
        assert_eq!(reports.len(), 1);
        let report = reports.remove(0);

        assert_eq!(report.status, SessionStatus::Completed, "{}", domain.name);
        assert_eq!(
            valid_msp_set(&serial),
            valid_msp_set(&report.result),
            "{}: service session diverged from the sequential reference",
            domain.name
        );
        assert_eq!(
            serial.stats.total_questions, report.result.stats.total_questions,
            "{}: different question count",
            domain.name
        );
        assert_eq!(report.store_hits, 0, "{}: empty store cannot hit", domain.name);
        assert!(
            !valid_msp_set(&report.result).is_empty(),
            "{}: vacuous comparison",
            domain.name
        );
    }
}

/// Two sessions with the same query submitted together: both reports match
/// the serial baseline exactly, but the store shares answers between them,
/// so the crowd is asked fewer questions than two serial runs would ask.
#[test]
fn overlapping_sessions_share_the_crowd() {
    let cfg = EngineConfig::default();
    let engine = Oassis::new(figure1_ontology());
    let mut members = crowd(2);
    let serial = engine.execute(QUERY, &mut members, &cfg).unwrap();
    let serial_msps = valid_msp_set(&serial);
    let serial_questions = serial.stats.total_questions;

    let mem = InMemorySink::shared();
    let sink: Arc<dyn EventSink> = Arc::clone(&mem) as Arc<dyn EventSink>;
    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(crowd(2));
    let mut service = OassisService::start_with_sink(engine, runtime, sink);
    for _ in 0..2 {
        let spec = SessionSpec::builder(QUERY).config(cfg.clone()).build();
        service.submit(spec).unwrap();
    }
    let reports = service.run();
    assert_eq!(reports.len(), 2);

    let mut total_crowd = 0;
    let mut total_reuse = 0;
    for report in &reports {
        assert_eq!(report.status, SessionStatus::Completed);
        assert_eq!(serial_msps, valid_msp_set(&report.result));
        // Per-session accounting is untouched by sharing: each session
        // still *sees* the serial number of answers...
        assert_eq!(serial_questions, report.result.stats.total_questions);
        total_crowd += report.crowd_questions;
        total_reuse += report.store_hits;
    }
    // ...but the crowd answered fewer than 2x serial questions.
    assert!(
        total_crowd < 2 * serial_questions,
        "no sharing: {total_crowd} crowd questions vs {serial_questions} serial"
    );
    assert!(total_reuse > 0, "expected dispatch-time store hits");
    let snap = mem.snapshot();
    assert_eq!(
        snap.counter(&format!("{}[serve]", names::ANSWERSTORE_HIT)) as usize,
        total_reuse
    );
    assert_eq!(
        snap.counter_across_labels(names::SERVICE_QUESTION_DISPATCHED) as usize,
        total_crowd
    );
}

/// A session admitted after an identical one completed is seeded from the
/// answer store and barely touches the crowd — and still reports the same
/// answers and question count as a fresh serial run.
#[test]
fn completed_answers_seed_later_sessions() {
    let cfg = EngineConfig::default();
    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(crowd(2));
    let mut service = OassisService::start(engine, runtime);

    let spec = SessionSpec::builder(QUERY).config(cfg.clone()).build();
    service.submit(spec).unwrap();
    let first = service.run().remove(0);
    assert!(first.crowd_questions > 0);

    let spec = SessionSpec::builder(QUERY).config(cfg.clone()).build();
    service.submit(spec).unwrap();
    let second = service.run().remove(0);

    assert_eq!(second.status, SessionStatus::Completed);
    assert_eq!(valid_msp_set(&first.result), valid_msp_set(&second.result));
    // Seeded answers are pre-knowledge, not questions: the second session
    // classifies from the seed sweep and asks (almost) nothing.
    assert!(
        second.result.stats.total_questions < first.result.stats.total_questions,
        "seeding did not shrink the question count: {} vs {}",
        second.result.stats.total_questions,
        first.result.stats.total_questions
    );
    assert!(
        second.crowd_questions < first.crowd_questions,
        "seeded session re-asked the crowd: {} vs {}",
        second.crowd_questions,
        first.crowd_questions
    );
}

/// The per-session budget caps *crowd* dispatches and yields a partial
/// result with the dedicated status.
#[test]
fn budget_exhaustion_is_reported() {
    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(crowd(2));
    let mut service = OassisService::start(engine, runtime);
    let spec = SessionSpec::builder(QUERY).budget(3).build();
    service.submit(spec).unwrap();
    let report = service.run().remove(0);
    assert_eq!(report.status, SessionStatus::BudgetExhausted);
    assert!(report.crowd_questions <= 3, "{}", report.crowd_questions);
}

/// A question wave larger than the remaining budget must not overrun it:
/// speculative prefetches count against the grant too, so the session
/// still stops at the cap with the dedicated status and a partial result.
#[test]
fn waves_never_overrun_the_budget() {
    let budget = 3usize;
    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(crowd(2));
    let mut service = OassisService::start(engine, runtime);
    // Every wave asks for more questions than the whole grant allows.
    service.set_wave_size(2 * budget);
    let spec = SessionSpec::builder(QUERY).budget(budget).build();
    service.submit(spec).unwrap();
    let report = service.run().remove(0);
    assert_eq!(report.status, SessionStatus::BudgetExhausted);
    assert!(
        report.crowd_questions <= budget,
        "wave overran the budget: {} > {budget}",
        report.crowd_questions
    );
    assert!(report.crowd_questions > 0, "the grant was never used");
}

/// Resuming a session whose budget was fully spent before the crash must
/// not dispatch fresh crowd questions: the recovered grant is the original
/// minus the watermarked spend — zero — so the resumed leg reports
/// `BudgetExhausted` immediately as a partial result.
#[test]
fn resume_of_spent_budget_session_dispatches_nothing() {
    let budget = 3usize;
    let mem = Arc::new(Mutex::new(InMemory::new()));
    let persistence: SharedPersistence = Arc::clone(&mem) as SharedPersistence;
    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(crowd(2));
    let mut service = OassisService::start_with_persistence(
        engine,
        runtime,
        oassis::obs::null_sink(),
        persistence,
    );
    service
        .submit(SessionSpec::builder(QUERY).budget(budget).build())
        .unwrap();
    let report = service.run().remove(0);
    assert_eq!(report.status, SessionStatus::BudgetExhausted);
    drop(service);

    // Crash right before the Close record: the last Budget watermark (the
    // full grant) is durable, the session's end is not.
    let crash: SharedPersistence = {
        let log = mem.lock().unwrap();
        let close_idx = log
            .history()
            .iter()
            .position(|r| matches!(r, WalRecord::Close { .. }))
            .expect("the run closed its session");
        Arc::new(Mutex::new(log.crashed_at(close_idx)))
    };

    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(crowd(2));
    let (mut service, mut recovered) =
        OassisService::recover_with(engine, runtime, oassis::obs::null_sink(), crash)
            .expect("crash image replays");
    assert_eq!(recovered.len(), 1, "the interrupted session is recovered");
    let session = recovered.remove(0);
    assert_eq!(
        session.spent, budget,
        "the watermark recorded the exhausted grant"
    );
    service.resume(session).unwrap();
    let resumed = service.run().remove(0);
    assert_eq!(
        resumed.status,
        SessionStatus::BudgetExhausted,
        "a spent grant must resume straight into exhaustion"
    );
    assert_eq!(
        resumed.crowd_questions, 0,
        "a spent grant must not buy fresh dispatches"
    );
}

/// Cancellation before `run` ends the session immediately; the other
/// admitted session is unaffected and still matches the serial baseline.
#[test]
fn cancellation_leaves_other_sessions_intact() {
    let cfg = EngineConfig::default();
    let engine = Oassis::new(figure1_ontology());
    let mut members = crowd(2);
    let serial = engine.execute(QUERY, &mut members, &cfg).unwrap();

    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(crowd(2));
    let mut service = OassisService::start(engine, runtime);
    let keep = SessionSpec::builder(QUERY).config(cfg.clone()).build();
    let keep_id = service.submit(keep).unwrap();
    let drop_spec = SessionSpec::builder(QUERY).config(cfg.clone()).build();
    let drop_id = service.submit(drop_spec).unwrap();
    assert!(service.cancel(drop_id));
    assert!(!service.cancel(drop_id) || drop_id != keep_id); // idempotent-ish

    let reports = service.run();
    let kept = reports.iter().find(|r| r.id == keep_id).unwrap();
    let dropped = reports.iter().find(|r| r.id == drop_id).unwrap();
    assert_eq!(kept.status, SessionStatus::Completed);
    assert_eq!(dropped.status, SessionStatus::Cancelled);
    assert_eq!(dropped.crowd_questions, 0, "cancelled before any dispatch");
    assert_eq!(valid_msp_set(&serial), valid_msp_set(&kept.result));

    // A cancelled or unknown id can no longer be cancelled.
    assert!(!service.cancel(drop_id));
}

/// A member wrapper that logs every concrete question it is asked, so a
/// test can observe crowd-side dispatch *order*.
struct RecordingMember {
    inner: Box<dyn CrowdMember>,
    log: Arc<Mutex<Vec<FactSet>>>,
}

impl CrowdMember for RecordingMember {
    fn id(&self) -> MemberId {
        self.inner.id()
    }
    fn ask_concrete(&mut self, a: &FactSet) -> f64 {
        self.log.lock().unwrap().push(a.clone());
        self.inner.ask_concrete(a)
    }
    fn ask_specialization(
        &mut self,
        base: &FactSet,
        candidates: &[FactSet],
    ) -> Option<(usize, f64)> {
        self.inner.ask_specialization(base, candidates)
    }
    fn irrelevant_elements(&mut self, a: &FactSet) -> Vec<ElementId> {
        self.inner.irrelevant_elements(a)
    }
}

/// With one shared crowd seat, the first dispatch of every cycle goes to
/// the highest-priority session — even when it was admitted last.
#[test]
fn priority_beats_admission_order() {
    let log: Arc<Mutex<Vec<FactSet>>> = Arc::new(Mutex::new(Vec::new()));
    let o = figure1_ontology();
    let vocab = Arc::new(o.vocabulary().clone());
    let (d1, _) = table3_dbs(&vocab);
    let members: Vec<Box<dyn CrowdMember>> = vec![Box::new(RecordingMember {
        inner: Box::new(DbMember::new(MemberId(0), d1, Arc::clone(&vocab))),
        log: Arc::clone(&log),
    })];

    // Two queries over disjoint SATISFYING objects, so every concrete
    // question is attributable to its session.
    let park = "SELECT FACT-SETS WHERE $y subClassOf* Activity \
                SATISFYING $y doAt <Central Park> WITH SUPPORT = 0.3";
    let zoo = "SELECT FACT-SETS WHERE $y subClassOf* Activity \
               SATISFYING $y doAt <Bronx Zoo> WITH SUPPORT = 0.3";

    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(members);
    let mut service = OassisService::start(engine, runtime);
    let low = SessionSpec::builder(park).build(); // admitted first, priority 0
    service.submit(low).unwrap();
    let high = SessionSpec::builder(zoo).priority(5).build();
    service.submit(high).unwrap();
    let reports = service.run();
    assert!(reports.iter().all(|r| r.status == SessionStatus::Completed));

    let log = log.lock().unwrap();
    let first = log.first().expect("at least one crowd question");
    let rendered = vocab.factset_to_string(first);
    assert!(
        rendered.contains("Bronx Zoo"),
        "first dispatch should be the high-priority session's, got {rendered}"
    );
}

/// Rosters restrict which seats a session may ask; an out-of-range seat is
/// rejected at admission.
#[test]
fn rosters_are_validated_and_respected() {
    let log: Arc<Mutex<Vec<FactSet>>> = Arc::new(Mutex::new(Vec::new()));
    let o = figure1_ontology();
    let vocab = Arc::new(o.vocabulary().clone());
    let (d1, d2) = table3_dbs(&vocab);
    let members: Vec<Box<dyn CrowdMember>> = vec![
        Box::new(DbMember::new(MemberId(0), d1, Arc::clone(&vocab))),
        Box::new(RecordingMember {
            inner: Box::new(DbMember::new(MemberId(1), d2, Arc::clone(&vocab))),
            log: Arc::clone(&log),
        }),
    ];
    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(members);
    let mut service = OassisService::start(engine, runtime);

    let bad = SessionSpec::builder(QUERY).roster(vec![0, 2]).build();
    assert!(service.submit(bad).is_err(), "seat 2 of 2 must be rejected");

    let only_first = SessionSpec::builder(QUERY).roster(vec![0]).build();
    service.submit(only_first).unwrap();
    let report = service.run().remove(0);
    assert_eq!(report.status, SessionStatus::Completed);
    assert!(
        log.lock().unwrap().is_empty(),
        "seat 1 is outside the roster and must never be asked"
    );
}

/// `query` with its `WITH SUPPORT` clause set to `threshold` (the domain
/// queries all carry 0.2).
fn at_support(query: &str, threshold: f64) -> String {
    assert!(query.contains("WITH SUPPORT = 0.2"));
    query.replace("WITH SUPPORT = 0.2", &format!("WITH SUPPORT = {threshold}"))
}

/// Sessions of one query shape mine one assignment space and share its
/// successor memo, and none of it shows: per domain, the query admitted
/// at four thresholds at once (three spelled in `WITH SUPPORT`, one as a
/// spec override) each report exactly what the sequential reference loop
/// reports for the same query text.
#[test]
fn sessions_sharing_a_space_match_the_sequential_reference() {
    for (domain, members, seed) in [
        (travel_domain(), 8, 3u64),
        (culinary_domain(), 8, 5),
        (self_treatment_domain(), 10, 7),
    ] {
        // (query text, spec threshold); the reference mines the text at
        // the threshold the session mines.
        let sessions = [
            (at_support(&domain.query, 0.3), None),
            (at_support(&domain.query, 0.4), None),
            (domain.query.clone(), Some(0.5)),
            (at_support(&domain.query, 0.35), None),
        ];
        let mem = InMemorySink::shared();
        let mut service = OassisService::start_with_sink(
            Oassis::new(domain.ontology.clone()),
            SessionRuntime::new(domain_crowd(&domain, members, seed)),
            Arc::clone(&mem) as Arc<dyn EventSink>,
        );
        let config = EngineConfig::builder().seed(seed).build();
        for (query, threshold) in &sessions {
            let mut spec = SessionSpec::builder(query.as_str()).config(config.clone());
            if let Some(t) = threshold {
                spec = spec.threshold(*t);
            }
            service.submit(spec.build()).unwrap();
        }
        let counts = || {
            let snap = mem.snapshot();
            let space = |label: &str| snap.counter(&format!("{}[{label}]", names::SERVICE_SPACE));
            (space("built"), space("reused"))
        };
        assert_eq!(counts(), (1, 3), "{}: one shape", domain.name);
        let reports = service.run();

        for ((query, threshold), report) in sessions.iter().zip(&reports) {
            let query = threshold.map_or_else(|| query.clone(), |t| at_support(query, t));
            let engine = Oassis::new(domain.ontology.clone());
            let mut crowd = domain_crowd(&domain, members, seed);
            let serial = run_sequential(&engine, &query, &mut crowd, &config);
            let what = format!("{} {query:?}", domain.name);
            assert_eq!(report.status, SessionStatus::Completed, "{what}");
            assert_eq!(
                valid_msp_set(&serial),
                valid_msp_set(&report.result),
                "{what}: valid MSPs"
            );
            assert_eq!(
                serial.stats.total_questions, report.result.stats.total_questions,
                "{what}: questions"
            );
            assert_eq!(
                serial.stats.nodes_generated, report.result.stats.nodes_generated,
                "{what}: generated nodes"
            );
        }
    }
}

/// The shared space is keyed by what its build reads: specs that differ
/// only in threshold or seed share one, while a FILTER or a `MORE` domain
/// each build their own. A space lives
/// while a session holds it, finished sessions included, and the service
/// keeps none once their reports are taken.
#[test]
fn space_key_and_lifetime() {
    let mem = InMemorySink::shared();
    let mut service = OassisService::start_with_sink(
        Oassis::new(figure1_ontology()),
        SessionRuntime::new(crowd(2)),
        Arc::clone(&mem) as Arc<dyn EventSink>,
    );
    let counts = || {
        let snap = mem.snapshot();
        let space = |label: &str| snap.counter(&format!("{}[{label}]", names::SERVICE_SPACE));
        (space("built"), space("reused"))
    };
    let filtered = QUERY.replace(
        "$y subClassOf* Activity",
        "$y subClassOf* Activity. FILTER($x IN (<Central Park>))",
    );
    let o = figure1_ontology();
    let v = o.vocabulary();
    let more = vec![oassis::vocab::Fact::new(
        v.element("Rent Bikes").unwrap(),
        v.relation("doAt").unwrap(),
        v.element("Boathouse").unwrap(),
    )];

    let first = service.submit(SessionSpec::builder(QUERY).build()).unwrap();
    assert_eq!(counts(), (1, 0));
    let sharing = [
        SessionSpec::builder(QUERY).threshold(0.3).build(),
        SessionSpec::builder(QUERY.replace("0.4", "0.6")).build(),
        SessionSpec::builder(QUERY)
            .config(EngineConfig::builder().seed(9).build())
            .build(),
    ];
    for spec in sharing {
        service.submit(spec).unwrap();
    }
    assert_eq!(counts(), (1, 3), "threshold and seed share");

    let own = [
        SessionSpec::builder(filtered.as_str()).build(),
        SessionSpec::builder(QUERY)
            .config(EngineConfig::builder().more_domain(more).build())
            .build(),
    ];
    for spec in own {
        service.submit(spec).unwrap();
    }
    assert_eq!(counts(), (3, 3), "a FILTER and MORE each build");

    // Finished sessions whose reports are not taken keep their space.
    while service.run_cycle() {}
    service.take_report(first).unwrap();
    service.submit(SessionSpec::builder(QUERY).build()).unwrap();
    assert_eq!(counts(), (3, 4), "three finished sessions still hold it");

    // Once every report is taken the service holds no space: each shape
    // is built afresh.
    assert_eq!(service.run().len(), 6);
    service.submit(SessionSpec::builder(QUERY).build()).unwrap();
    service
        .submit(SessionSpec::builder(filtered.as_str()).build())
        .unwrap();
    assert_eq!(counts(), (5, 4));
}

/// The `engine.dag.nodes_total` count is taken once per shared space:
/// two sessions of one shape, each with an enabled sink, enter
/// `engine.dag.count` once between them and report the same gauge.
#[test]
fn dag_count_runs_once_per_shared_space() {
    let mut service = OassisService::start(
        Oassis::new(figure1_ontology()),
        SessionRuntime::new(crowd(2)),
    );
    let sinks = [InMemorySink::shared(), InMemorySink::shared()];
    for (i, sink) in sinks.iter().enumerate() {
        let config = EngineConfig::builder()
            .seed(i as u64)
            .sink(Arc::clone(sink) as Arc<dyn EventSink>)
            .build();
        let spec = SessionSpec::builder(QUERY)
            .threshold(0.3 + 0.1 * i as f64)
            .config(config)
            .build();
        service.submit(spec).unwrap();
    }
    assert!(service
        .run()
        .iter()
        .all(|r| r.status == SessionStatus::Completed));
    let snaps = sinks.map(|s| s.snapshot());
    let counts: Vec<u64> = snaps
        .iter()
        .map(|s| s.span(names::SPAN_DAG_COUNT).map_or(0, |span| span.count))
        .collect();
    assert_eq!(counts, [1, 0], "the second session reads the first count");
    let gauges: Vec<Option<f64>> = snaps
        .iter()
        .map(|s| s.gauge(names::DAG_NODES_TOTAL))
        .collect();
    assert!(gauges[0].is_some_and(|n| n > 0.0), "{gauges:?}");
    assert_eq!(gauges[0], gauges[1]);
}
