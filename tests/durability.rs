//! Integration tests for the durability layer: a file-backed service
//! surviving restart, exhaustive kill-point recovery on a small plan,
//! conservative budget accounting across a crash, torn-tail /
//! corrupt-log handling through `OassisService::recover`, compaction
//! that drops no record, costs no more than the live sessions, and keeps
//! closed sessions' idempotency tokens, question waves over a persisted
//! store, admission refusing config the log cannot carry, a recovered
//! store feeding a §6.3 threshold replay, and a log in the legacy
//! 13-field spec layout recovering.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use oassis::core::{
    EngineConfig, Oassis, OassisError, OassisService, SessionId, SessionRuntime, SessionSpec,
    SessionStatus, SimConfig,
};
use oassis::crowd::AnswerStore;
use oassis::obs::null_sink;
use oassis::sparql::MatchMode;
use oassis::store::ontology::figure1_ontology;
use oassis::store_durable::{
    fnv1a64, InMemory, Persistence, SharedPersistence, WalRecord, WAL_FILE,
};
use oassis::vocab::{ElementId, Fact, RelationId};
use oassis_simtest::{
    check_durable_waves, crowd, durability_plans, run, service_plans, Record, Scenario,
    ServicePlan, QUERY, SIM_UNSPENT_BUDGET,
};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "oassis-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A file-backed service persists across a restart: the second process
/// sees no open sessions (the first closed cleanly) but inherits the
/// answer store, so an identical session is seeded and barely asks the
/// crowd.
#[test]
fn file_backed_service_survives_restart() {
    let dir = temp_dir("restart");

    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(crowd(2));
    let (mut service, recovered) =
        OassisService::recover(engine, runtime, &dir).expect("fresh dir opens empty");
    assert!(recovered.is_empty(), "an empty log recovers nothing");
    service
        .submit(SessionSpec::builder(QUERY).build())
        .unwrap();
    let first = service.run().remove(0);
    assert_eq!(first.status, SessionStatus::Completed);
    assert!(first.crowd_questions > 0);
    drop(service);
    assert!(dir.join(WAL_FILE).exists(), "the WAL file must be on disk");

    // "Restart": a brand-new process image over the same directory.
    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(crowd(2));
    let (mut service, recovered) =
        OassisService::recover(engine, runtime, &dir).expect("log replays");
    assert!(recovered.is_empty(), "the only session closed cleanly");
    service
        .submit(SessionSpec::builder(QUERY).build())
        .unwrap();
    let second = service.run().remove(0);
    assert_eq!(second.status, SessionStatus::Completed);
    assert_eq!(
        first
            .result
            .answers
            .iter()
            .filter(|a| a.valid)
            .map(|a| a.rendered.clone())
            .collect::<std::collections::BTreeSet<_>>(),
        second
            .result
            .answers
            .iter()
            .filter(|a| a.valid)
            .map(|a| a.rendered.clone())
            .collect::<std::collections::BTreeSet<_>>(),
        "recovered store changed the answers"
    );
    assert!(
        second.crowd_questions < first.crowd_questions,
        "recovered answers must seed the new session: {} vs {}",
        second.crowd_questions,
        first.crowd_questions
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Killing a single-session durable run at *every* append index and
/// recovering always reproduces the uninterrupted valid-MSP set (the
/// sampled sweep in `oassis-simtest` covers many seeds; this nails every
/// index for one).
#[test]
fn every_kill_point_recovers_the_same_answers() {
    let seed = 7;
    let plans = service_plans(1);
    let run_to_end = |scenario: Scenario| run(&scenario).unwrap_or_else(|f| panic!("{f}"));
    let uninterrupted = run_to_end(Scenario::durable(seed, &plans, false));
    let log = uninterrupted.wal();
    assert!(log.snapshot_count() > 0, "the sweep must cross a compaction");
    let expected = &uninterrupted.session(0).msps;
    assert!(!expected.is_empty(), "vacuous comparison");
    for k in 0..=log.history_len() {
        let finished = run_to_end(Scenario {
            log: Some(Arc::new(Mutex::new(log.crashed_at(k)))),
            record: Record::Off,
            ..Scenario::service(seed, &plans, false)
        });
        let got = finished.sessions[0].as_ref().map_or(expected, |o| &o.msps);
        assert_eq!(
            got, expected,
            "kill at {k}/{} diverged",
            log.history_len()
        );
    }
}

/// An encoded `Admit` record re-written in the layout logs carried before
/// the index-layer flag left the spec: the flag (`1`, the only value any
/// caller ever logged) back after `top_k`, and the line re-sealed.
fn legacy_admit_line(line: &str) -> String {
    let (payload, _) = line.rsplit_once('|').expect("a sealed line");
    let mut fields: Vec<&str> = payload.split('|').collect();
    // seq | s | session | resumes | spec; the flag was spec field 9.
    fields.insert(4 + 9, "1");
    let payload = fields.join("|");
    format!("{payload}|{:016x}", fnv1a64(payload.as_bytes()))
}

/// A log written before the index-layer flag left the spec still
/// recovers: a crash image whose `Admit` records all went through the
/// legacy 13-field layout is recovered, its interrupted sessions resumed,
/// and every session finishes with the outcome of the uninterrupted run.
#[test]
fn legacy_admit_layout_recovers_and_resumes() {
    let seed = 5;
    let plans = durability_plans();
    let run_to_end = |scenario: Scenario| run(&scenario).unwrap_or_else(|f| panic!("{f}"));
    let uninterrupted = run_to_end(Scenario::durable(seed, &plans, false));
    let image = {
        let log = uninterrupted.wal();
        log.crashed_at(log.history_len() / 2)
    };

    let mut legacy = InMemory::new();
    let (mut admits, mut closes) = (0, 0);
    for (i, record) in image.history().iter().enumerate() {
        let mut line = record.encode(i as u64 + 1);
        match record {
            WalRecord::Admit { .. } => {
                line = legacy_admit_line(&line);
                assert_eq!(line.split('|').count(), 4 + 13 + 1, "{line}");
                admits += 1;
            }
            WalRecord::Close { .. } => closes += 1,
            _ => {}
        }
        let (_, back) = WalRecord::decode(&line).expect("a legacy line decodes");
        assert_eq!(&back, record);
        legacy.append(&back).unwrap();
    }
    assert_eq!(
        admits,
        plans.len(),
        "every plan was admitted before the crash"
    );
    assert!(closes < admits, "some session was interrupted");

    let finished = run_to_end(Scenario {
        log: Some(Arc::new(Mutex::new(legacy))),
        record: Record::Off,
        ..Scenario::service(seed, &plans, false)
    });
    for (i, outcome) in finished.sessions.iter().enumerate() {
        let expected = uninterrupted.session(i);
        assert!(!expected.msps.is_empty(), "vacuous comparison");
        if let Some(outcome) = outcome {
            assert_eq!(
                (&outcome.msps, &outcome.status),
                (&expected.msps, &expected.status),
                "plan {i}"
            );
        }
    }
    assert!(
        finished.sessions.iter().flatten().count() > 0,
        "some session was resumed"
    );
}

/// Budget accounting survives a crash conservatively: the resumption's
/// grant is the original minus the watermarked spend, so the two run
/// legs together never dispatch more than the original budget.
#[test]
fn budget_is_never_overspent_across_a_crash() {
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

    let log = mem.lock().unwrap();
    // Crash right before the session closed: the last Budget watermark is
    // the committed spend.
    let close_idx = log
        .history()
        .iter()
        .position(|r| matches!(r, WalRecord::Close { .. }))
        .expect("the run closed its session");
    let crash: SharedPersistence = Arc::new(Mutex::new(log.crashed_at(close_idx)));
    drop(log);

    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(crowd(2));
    let (mut service, mut recovered) =
        OassisService::recover_with(engine, runtime, oassis::obs::null_sink(), crash)
            .expect("crash image replays");
    assert_eq!(recovered.len(), 1, "the interrupted session is recovered");
    let session = recovered.remove(0);
    assert!(session.spent > 0, "the watermark recorded the spend");
    assert!(session.spent <= budget, "spend within the grant");
    assert_eq!(session.spec.budget, Some(budget), "original grant kept");

    let spent_before = session.spent;
    service.resume(session).unwrap();
    let resumed = service.run().remove(0);
    assert!(
        spent_before + resumed.crowd_questions <= budget,
        "crash + resume overspent: {spent_before} + {} > {budget}",
        resumed.crowd_questions
    );
}

/// A torn tail (a partial last line, as left by a crash mid-write) is
/// truncated and recovery proceeds; interior corruption is refused.
#[test]
fn torn_tail_recovers_and_interior_corruption_is_fatal() {
    let dir = temp_dir("torn");
    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(crowd(2));
    let (mut service, _) = OassisService::recover(engine, runtime, &dir).unwrap();
    service
        .submit(SessionSpec::builder(QUERY).build())
        .unwrap();
    let first = service.run().remove(0);
    drop(service);

    // Crash mid-append: garbage with no trailing newline.
    let wal = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(b"9999|a|torn-mid-wri");
    std::fs::write(&wal, &bytes).unwrap();

    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(crowd(2));
    let (mut service, recovered) =
        OassisService::recover(engine, runtime, &dir).expect("torn tail is recoverable");
    assert!(recovered.is_empty());
    service
        .submit(SessionSpec::builder(QUERY).build())
        .unwrap();
    let second = service.run().remove(0);
    assert!(
        second.crowd_questions < first.crowd_questions,
        "every committed answer must survive the torn tail"
    );
    drop(service);

    // Interior damage is not a crash artifact — recovery must refuse.
    let content = std::fs::read_to_string(&wal).unwrap();
    let lines: Vec<&str> = content.lines().collect();
    assert!(lines.len() > 4, "need an interior line to corrupt");
    let mut damaged: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let mid = damaged.len() / 2;
    damaged[mid] = damaged[mid].replace('|', "!");
    std::fs::write(&wal, damaged.join("\n") + "\n").unwrap();

    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(crowd(2));
    match OassisService::recover(engine, runtime, &dir) {
        Err(OassisError::Durability(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("corrupt"), "unexpected error: {msg}");
        }
        Ok(_) => panic!("interior corruption must not recover"),
        Err(e) => panic!("wrong error kind: {e}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The engine-level config survives the log: a session admitted with a
/// non-default seed and sample recovers with the same values.
#[test]
fn admitted_config_round_trips_through_the_log() {
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
    let cfg = EngineConfig::builder().seed(41).aggregator_sample(3).build();
    let spec = SessionSpec::builder(QUERY)
        .threshold(0.5)
        .priority(2)
        .config(cfg)
        .build();
    service.submit(spec).unwrap();
    // Crash before any mining happened: only the Admit record exists.
    let crash: SharedPersistence = {
        let log = mem.lock().unwrap();
        Arc::new(Mutex::new(log.crashed_at(1)))
    };
    drop(service);

    let engine = Oassis::new(figure1_ontology());
    let runtime = SessionRuntime::new(crowd(2));
    let (_service, recovered) =
        OassisService::recover_with(engine, runtime, oassis::obs::null_sink(), crash).unwrap();
    assert_eq!(recovered.len(), 1);
    let spec = &recovered[0].spec;
    assert_eq!(spec.query, QUERY);
    assert_eq!(spec.threshold, Some(0.5));
    assert_eq!(spec.priority, 2);
    assert_eq!(spec.config.seed, 41);
    assert_eq!(spec.config.aggregator_sample, 3);
}

/// A closed session's idempotency token survives compaction. Its `Admit`
/// record is the only one carrying the token, so a compaction that
/// dropped it would let a retried `Submit` after a restart admit the
/// session a second time.
#[test]
fn closed_session_token_survives_compaction() {
    for every in [None, Some(1)] {
        let mut mem = InMemory::new();
        if let Some(every) = every {
            mem = mem.with_snapshot_every(every);
        }
        let mem = Arc::new(Mutex::new(mem));
        let mut service = OassisService::start_with_persistence(
            Oassis::new(figure1_ontology()),
            SessionRuntime::new(crowd(2)),
            oassis::obs::null_sink(),
            Arc::clone(&mem) as SharedPersistence,
        );
        let id = service
            .submit_with_token(SessionSpec::builder(QUERY).build(), 77)
            .unwrap();
        assert_eq!(service.run().remove(0).status, SessionStatus::Completed);
        drop(service);

        let log = mem.lock().unwrap();
        assert_eq!(every.is_some(), log.snapshot_count() > 0);
        let image: SharedPersistence = Arc::new(Mutex::new(log.crashed_at(log.history_len())));
        let (service, recovered) = OassisService::recover_with(
            Oassis::new(figure1_ontology()),
            SessionRuntime::new(crowd(2)),
            oassis::obs::null_sink(),
            image,
        )
        .unwrap();
        assert!(recovered.is_empty(), "the session closed");
        assert_eq!(
            service.session_for_token(77),
            Some(id),
            "token lost with snapshot_every {every:?}"
        );
    }
}

/// Compaction work follows the live state, not the store: each snapshot
/// is handed at most one record per live session (the service hands
/// none, since it logs every change as it happens), and every `Admit`
/// and `Close` the run appends stays in the log exactly once — nothing is
/// dropped or re-emitted at a compaction.
#[test]
fn compaction_work_is_bounded_by_live_state() {
    let plans: Vec<ServicePlan> = service_plans(3)
        .into_iter()
        .map(|plan| ServicePlan {
            budget: Some(SIM_UNSPENT_BUDGET),
            ..plan
        })
        .collect();
    let outcome = run(&Scenario::durable(11, &plans, true)).unwrap_or_else(|f| panic!("{f}"));
    let mut log = outcome.wal();
    assert!(log.snapshot_count() > 2, "the run must compact repeatedly");
    let history = log.history().to_vec();
    for &(point, handed) in log.snapshot_points() {
        let mut live = BTreeSet::new();
        for record in &history[..point] {
            match record {
                WalRecord::Admit { session, .. } => {
                    live.insert(*session);
                }
                WalRecord::Close { session, .. } => {
                    live.remove(session);
                }
                _ => {}
            }
        }
        assert!(
            handed <= live.len(),
            "the snapshot after append {point} was handed {handed} records for {} live sessions",
            live.len()
        );
    }
    let replayed = log.replay().unwrap();
    for session in 0..plans.len() as u64 {
        let admits = replayed
            .iter()
            .filter(|r| matches!(**r, WalRecord::Admit { session: s, .. } if s == session))
            .count();
        let closes = replayed
            .iter()
            .filter(|r| matches!(**r, WalRecord::Close { session: s, .. } if s == session))
            .count();
        assert_eq!((admits, closes), (1, 1), "session {session}");
    }
    assert!(
        replayed
            .iter()
            .any(|r| matches!(r, WalRecord::Budget { .. })),
        "budgeted plans must log watermarks"
    );
}

/// Recovery remembers a closed session's outcome under every ancestor id
/// its resumption superseded, read from the permanent `Admit` links — so
/// the alias holds whether or not the log was compacted.
#[test]
fn closed_outcome_is_aliased_under_resumed_ancestors() {
    for every in [None, Some(1)] {
        let new_log = || match every {
            Some(every) => InMemory::new().with_snapshot_every(every),
            None => InMemory::new(),
        };
        let restart = |log: InMemory| {
            OassisService::recover_with(
                Oassis::new(figure1_ontology()),
                SessionRuntime::new(crowd(2)),
                oassis::obs::null_sink(),
                Arc::new(Mutex::new(log)),
            )
            .expect("log replays")
        };

        // First run, crashed halfway through its only session.
        let mem = Arc::new(Mutex::new(new_log()));
        let mut service = OassisService::start_with_persistence(
            Oassis::new(figure1_ontology()),
            SessionRuntime::new(crowd(2)),
            oassis::obs::null_sink(),
            Arc::clone(&mem) as SharedPersistence,
        );
        service.submit(SessionSpec::builder(QUERY).build()).unwrap();
        service.run();
        drop(service);
        let image = {
            let log = mem.lock().unwrap();
            Arc::new(Mutex::new(log.crashed_at(log.history_len() / 2)))
        };

        // Second run: resume the interrupted session to its close.
        let (mut service, mut recovered) = OassisService::recover_with(
            Oassis::new(figure1_ontology()),
            SessionRuntime::new(crowd(2)),
            oassis::obs::null_sink(),
            Arc::clone(&image) as SharedPersistence,
        )
        .unwrap();
        assert_eq!(recovered.len(), 1, "the session was interrupted");
        let successor = service.resume(recovered.remove(0)).unwrap();
        let report = service.run().remove(0);
        drop(service);

        // Third run: both ids answer with the successor's outcome.
        let log = image.lock().unwrap();
        assert_eq!(every.is_some(), log.snapshot_count() > 0);
        let (service, recovered) = restart(log.crashed_at(log.history_len()));
        assert!(recovered.is_empty(), "the successor closed");
        let outcome = service
            .recovered_closed(successor)
            .expect("the successor's close was logged");
        assert_eq!(outcome.crowd_questions, report.crowd_questions);
        assert_eq!(
            service.recovered_closed(SessionId(0)),
            Some(outcome),
            "ancestor not aliased with snapshot_every {every:?}"
        );
        assert!(!service.is_recoverable(SessionId(0)));
    }
}

/// Question waves over a persisted store: prefetched answers wait unpaid
/// in the store, yet the waved durable run matches the volatile one, its
/// log replays to exactly the live store (no unpaid answer logged, no paid
/// one missing) and its store hits balance `answerstore.hit[serve]`. The
/// rosters overlap, and the odd plan carries a budget, so wave hits also
/// log spend watermarks.
#[test]
fn waved_durable_runs_log_exactly_the_paid_answers() {
    let plans = durability_plans();
    let mut committed = false;
    for seed in 0..4 {
        committed |= check_durable_waves(seed, &plans).unwrap_or_else(|f| panic!("{f}"));
    }
    assert!(committed, "no seed in 0..4 committed a prefetch");
}

/// A durable service refuses a spec that sets config its `Admit` record
/// does not carry (`mode`, `more_domain`): a resumption rebuilt from the
/// log would mine a different assignment space. The refusal names the
/// field and logs nothing; a volatile service admits the same spec.
#[test]
fn durable_admission_refuses_config_the_log_cannot_carry() {
    let extra = Fact::new(ElementId(0), RelationId(0), ElementId(0));
    let configs = [
        (
            "mode",
            EngineConfig::builder().mode(MatchMode::Syntactic).build(),
        ),
        (
            "more_domain",
            EngineConfig::builder().more_domain(vec![extra]).build(),
        ),
    ];
    for (field, config) in configs {
        let spec = SessionSpec::builder(QUERY).config(config).build();
        let mem = Arc::new(Mutex::new(InMemory::new()));
        let mut durable = OassisService::start_with_persistence(
            Oassis::new(figure1_ontology()),
            SessionRuntime::new(crowd(1)),
            null_sink(),
            Arc::clone(&mem) as SharedPersistence,
        );
        match durable.submit(spec.clone()) {
            Err(OassisError::Session(msg)) => assert!(msg.contains(&format!("`{field}`")), "{msg}"),
            other => panic!("a durable service admitted a spec setting `{field}`: {other:?}"),
        }
        assert_eq!(durable.active_sessions(), 0);
        assert_eq!(
            mem.lock().unwrap().history_len(),
            0,
            "a refusal logs nothing"
        );
        let mut volatile = OassisService::start(
            Oassis::new(figure1_ontology()),
            SessionRuntime::new(crowd(1)),
        );
        volatile.submit(spec).expect("a volatile service admits it");
    }
}

/// A store recovered from the log is an answer cache for the §6.3
/// threshold replay: replaying the query at a higher threshold over the
/// recovered store gives what replaying the run's own cache gives.
#[test]
fn recovered_store_feeds_a_threshold_replay() {
    let config = EngineConfig::builder().aggregator_sample(2).build();
    let mem = Arc::new(Mutex::new(InMemory::new()));
    let mut service = OassisService::start_with_persistence(
        Oassis::new(figure1_ontology()),
        SessionRuntime::new(crowd(2)),
        null_sink(),
        Arc::clone(&mem) as SharedPersistence,
    );
    service
        .submit(SessionSpec::builder(QUERY).config(config.clone()).build())
        .unwrap();
    let report = service.run().remove(0);
    drop(service);
    let (recovered, _) = OassisService::recover_with(
        Oassis::new(figure1_ontology()),
        SessionRuntime::new(crowd(2)),
        null_sink(),
        mem,
    )
    .expect("log replays");

    let engine = Oassis::new(figure1_ontology());
    let query = engine.parse(QUERY).unwrap();
    let valid = |threshold: f64, cache| {
        let result = engine.replay(&query, threshold, cache, &config).unwrap();
        let msps: BTreeSet<String> = result
            .answers
            .iter()
            .filter(|a| a.valid)
            .map(|a| a.rendered.clone())
            .collect();
        (msps, result.stats.total_questions)
    };
    let from_log = valid(0.5, recovered.store().cache());
    assert!(!from_log.0.is_empty(), "vacuous replay");
    assert_eq!(from_log, valid(0.5, &report.result.cache));
}

/// Answers only a session knows — specialization choices, "none of these"
/// zeros and pruning-inferred zeros — reach the log when the session
/// finalizes, tagged with it and in the order it recorded them. So two
/// identical runs log the same bytes, replaying the log rebuilds the live
/// store, and the store holds every answer of every session's result.
#[test]
fn session_only_answers_are_logged_in_recorded_order() {
    let run = || {
        let mem = Arc::new(Mutex::new(InMemory::new()));
        let mut service = OassisService::start_with_persistence(
            Oassis::new(figure1_ontology()),
            SessionRuntime::new(crowd(2)).simulated(SimConfig::new(5)),
            null_sink(),
            Arc::clone(&mem) as SharedPersistence,
        );
        for (i, roster) in [vec![0, 1, 2], vec![1, 2, 3], vec![0, 1, 2, 3]]
            .into_iter()
            .enumerate()
        {
            let config = EngineConfig::builder()
                .seed(i as u64)
                .aggregator_sample(2)
                .specialization_ratio(0.5)
                .pruning_ratio(0.5)
                .build();
            let spec = SessionSpec::builder(QUERY)
                .config(config)
                .roster(roster)
                .build();
            service.submit(spec).unwrap();
        }
        let reports = service.run();
        let log: Vec<String> = mem
            .lock()
            .unwrap()
            .history()
            .iter()
            .enumerate()
            .map(|(seq, r)| r.encode(seq as u64))
            .collect();
        (service, reports, mem, log)
    };
    let (service, reports, mem, log) = run();
    let (_, _, _, again) = run();
    assert_eq!(log, again, "identical runs log identical bytes");

    let session_only: usize = reports
        .iter()
        .map(|r| {
            let stats = &r.result.stats;
            stats.specialization + stats.none_of_these + stats.pruning
        })
        .sum();
    assert!(
        session_only > 0,
        "no specialization or pruning answer: vacuous"
    );

    let records = mem.lock().unwrap().replay().unwrap();
    let mut replayed = AnswerStore::new();
    replayed.replay_records(&records);
    assert_eq!(replayed.to_records(), service.store().to_records());

    for report in &reports {
        for (fs, answers) in report.result.cache.iter() {
            for answer in answers {
                assert!(
                    service.store().cache().answers(fs).contains(answer),
                    "session {:?}: the store lacks {answer:?}",
                    report.id
                );
            }
        }
    }
}
