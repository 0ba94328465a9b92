//! The concurrent crowd-session runtime observed end-to-end: for the same
//! seed, a pooled run (`Oassis::execute_parsed_with_runtime`) must produce
//! exactly the answer set (and question count) of the sequential
//! member-slice run (`Oassis::execute_parsed`); slow and dropping members
//! must be timed out, retried and excluded without losing MSPs.
//!
//! Only the first test exercises real worker threads (instant members, so
//! no timing dependence — `scripts/stress.sh` scales it via
//! `OASSIS_STRESS_WORKERS`). Every fault scenario runs on the simulation
//! executor's virtual clock: timeouts and latency cost no wall-clock time
//! and replay deterministically from the sim seed, so nothing here can
//! flake on a slow machine.

use std::sync::Arc;
use std::time::Duration;

use oassis::core::{EngineConfig, Oassis, OassisError, SessionRuntime, SimConfig};
use oassis::crowd::transaction::table3_dbs;
use oassis::crowd::{CrowdMember, DbMember, MemberId, ResponseModel, UnreliableMember};
use oassis::obs::{names, EventSink, InMemorySink};
use oassis::store::ontology::figure1_ontology;

const QUERY: &str = "SELECT FACT-SETS WHERE \
      $x instanceOf $w. $w subClassOf* Attraction. \
      $y subClassOf* Activity \
    SATISFYING $y doAt $x WITH SUPPORT = 0.4";

/// Worker count for the one genuinely threaded run; override with
/// `OASSIS_STRESS_WORKERS` (see `scripts/stress.sh`).
fn worker_count() -> usize {
    std::env::var("OASSIS_STRESS_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

/// `n_pairs` copies of the paper's u1/u2 member pair. `DbMember` answers
/// are a pure function of the asked fact-set (no noise, no quota), which is
/// exactly the precondition of the runtime's determinism guarantee.
fn crowd(n_pairs: u32) -> Vec<Box<dyn CrowdMember>> {
    let o = figure1_ontology();
    let vocab = Arc::new(o.vocabulary().clone());
    let (d1, d2) = table3_dbs(&vocab);
    let mut members: Vec<Box<dyn CrowdMember>> = Vec::new();
    for i in 0..n_pairs {
        members.push(Box::new(DbMember::new(
            MemberId(2 * i),
            d1.clone(),
            Arc::clone(&vocab),
        )));
        members.push(Box::new(DbMember::new(
            MemberId(2 * i + 1),
            d2.clone(),
            Arc::clone(&vocab),
        )));
    }
    members
}

fn valid_msp_set(result: &oassis::core::QueryResult) -> Vec<String> {
    let mut v: Vec<String> = result
        .answers
        .iter()
        .filter(|a| a.valid)
        .map(|a| a.rendered.clone())
        .collect();
    v.sort();
    v
}

/// The headline guarantee on the real threaded executor: concurrent run
/// with seed S == sequential run with seed S — same valid-MSP set, same
/// question count — across seeds. Members answer instantly, so the test
/// has no timing dependence; the OS scheduler still interleaves freely.
#[test]
fn concurrent_matches_sequential_across_seeds() {
    let engine = Oassis::new(figure1_ontology());
    let query = engine.parse(QUERY).unwrap();
    for seed in [0u64, 7, 42, 1234] {
        let cfg = EngineConfig::builder().seed(seed).build();

        let mut seq_members = crowd(3);
        let seq = engine
            .execute_parsed(&query, 0.4, &mut seq_members, &cfg)
            .unwrap();

        let runtime = SessionRuntime::new(crowd(3)).workers(worker_count());
        let conc = engine
            .execute_parsed_with_runtime(&query, 0.4, runtime, &cfg)
            .expect("no members excluded");

        assert_eq!(
            valid_msp_set(&seq),
            valid_msp_set(&conc),
            "seed {seed}: concurrent answer set diverged"
        );
        assert_eq!(
            seq.stats.total_questions, conc.stats.total_questions,
            "seed {seed}: concurrent run asked a different number of questions"
        );
        assert!(!valid_msp_set(&conc).is_empty(), "seed {seed}: empty result");
    }
}

/// Latency alone (no drops) must not change the outcome — the speculative
/// prefetch only ever asks questions the commit loop would ask. On the
/// virtual clock the injected delays (and the generous deadline) cost no
/// wall-clock time, and four schedules are explored per test run.
#[test]
fn latency_does_not_change_answers() {
    let engine = Oassis::new(figure1_ontology());
    let query = engine.parse(QUERY).unwrap();
    let cfg = EngineConfig::builder().seed(11).build();

    let mut seq_members = crowd(3);
    let seq = engine
        .execute_parsed(&query, 0.4, &mut seq_members, &cfg)
        .unwrap();

    for sim_seed in [0u64, 1, 2, 3] {
        let model = ResponseModel::latency(Duration::from_micros(300))
            .with_jitter(Duration::from_micros(200));
        let slow: Vec<Box<dyn CrowdMember>> = crowd(3)
            .into_iter()
            .enumerate()
            .map(|(i, m)| Box::new(UnreliableMember::new(m, model, 100 + i as u64)) as Box<_>)
            .collect();
        let runtime = SessionRuntime::new(slow)
            .question_timeout(Duration::from_secs(5))
            .simulated(SimConfig::new(sim_seed));
        let conc = engine
            .execute_parsed_with_runtime(&query, 0.4, runtime, &cfg)
            .expect("no members excluded");

        assert_eq!(valid_msp_set(&seq), valid_msp_set(&conc), "sim seed {sim_seed}");
        assert_eq!(
            seq.stats.total_questions, conc.stats.total_questions,
            "sim seed {sim_seed}"
        );
    }
}

/// Fault injection on the virtual clock: members that always drop their
/// answers are timed out, retried and excluded — deterministically, with
/// exact event counts — and the healthy rest of the crowd still delivers
/// the full MSP set.
#[test]
fn dropping_members_are_excluded_without_losing_msps() {
    let engine = Oassis::new(figure1_ontology());
    let query = engine.parse(QUERY).unwrap();

    let mem = InMemorySink::shared();
    let sink: Arc<dyn EventSink> = Arc::clone(&mem) as Arc<dyn EventSink>;
    let cfg = EngineConfig::builder().sink(sink).build();

    // Healthy baseline: the crowd without the faulty members.
    let plain_cfg = EngineConfig::default();
    let mut healthy = crowd(3);
    let expected = engine
        .execute_parsed(&query, 0.4, &mut healthy, &plain_cfg)
        .unwrap();

    // Same crowd plus two members whose channel drops every answer. The
    // faulty members are clones of healthy ones, so excluding them must
    // not change the aggregate outcome.
    let mut members = crowd(3);
    let o = figure1_ontology();
    let vocab = Arc::new(o.vocabulary().clone());
    let (d1, d2) = table3_dbs(&vocab);
    let always_drop = ResponseModel::instant().with_drop_probability(1.0);
    members.push(Box::new(UnreliableMember::new(
        Box::new(DbMember::new(MemberId(100), d1, Arc::clone(&vocab))),
        always_drop,
        1,
    )));
    members.push(Box::new(UnreliableMember::new(
        Box::new(DbMember::new(MemberId(101), d2, vocab)),
        always_drop,
        2,
    )));

    let runtime = SessionRuntime::new(members)
        .question_timeout(Duration::from_millis(2))
        .max_retries(1)
        .simulated(SimConfig::new(99));
    let result = engine
        .execute_parsed_with_runtime(&query, 0.4, runtime, &cfg)
        .expect("healthy members remain");

    assert_eq!(valid_msp_set(&expected), valid_msp_set(&result));

    let snap = mem.snapshot();
    assert_eq!(
        snap.counter(&format!("{}[timeout]", names::RUNTIME_MEMBER_EXCLUDED)),
        2,
        "both dropping members must be excluded"
    );
    // Each exclusion takes 1 initial attempt + 1 retry, all dropped.
    assert_eq!(snap.counter(&format!("{}[drop]", names::RUNTIME_TIMEOUT)), 4);
    assert_eq!(snap.counter(names::RUNTIME_RETRY), 2);
    // Conservation: both terminal timeouts were resolved and excluded.
    assert_eq!(
        snap.counter(&format!("{}[timeout]", names::RUNTIME_RESOLVED)),
        2
    );
}

/// When every member is unresponsive the run fails with the dedicated
/// runtime error instead of returning an empty result. On the virtual
/// clock the timeouts are free and the error is seed-reproducible.
#[test]
fn fully_unresponsive_crowd_is_a_runtime_error() {
    let engine = Oassis::new(figure1_ontology());
    let query = engine.parse(QUERY).unwrap();
    let cfg = EngineConfig::default();

    let always_drop = ResponseModel::instant().with_drop_probability(1.0);
    let members: Vec<Box<dyn CrowdMember>> = crowd(1)
        .into_iter()
        .enumerate()
        .map(|(i, m)| Box::new(UnreliableMember::new(m, always_drop, i as u64)) as Box<_>)
        .collect();
    let runtime = SessionRuntime::new(members)
        .question_timeout(Duration::from_millis(2))
        .max_retries(0)
        .simulated(SimConfig::new(5));

    let err = engine
        .execute_parsed_with_runtime(&query, 0.4, runtime, &cfg)
        .expect_err("all members excluded");
    match err {
        OassisError::Runtime(e) => {
            let msg = e.to_string();
            assert!(msg.contains("excluded"), "unexpected message: {msg}");
            // The last exclusion's timeout is chained as the source.
            assert!(std::error::Error::source(&e).is_some());
        }
        other => panic!("expected a runtime error, got {other}"),
    }
}
