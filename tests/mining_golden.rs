//! Mining outcomes pinned to literal values.
//!
//! Every other oracle compares the engine with itself: the service with
//! `run_sequential`, the indexed walk with `run_reference`, waved with
//! unwaved. A walk
//! that visited successors in another order would pass all of them. These
//! tests compare against numbers recorded once and written down here:
//! question counts, generated DAG nodes, a digest of the sorted valid MSPs
//! and, for a waved service, the speculation counters.
//!
//! A mismatch prints the actual rows in the same literal form as the
//! expected tables, so an intended change of outcome is re-recorded by
//! pasting them in (and saying why in the change log).

use std::sync::Arc;

use oassis::core::{
    EngineConfig, Oassis, OassisService, QueryResult, SessionRuntime, SessionSpec, SimConfig,
};
use oassis::crowd::CrowdMember;
use oassis::datagen::{
    culinary_domain, generate_crowd, self_treatment_domain, travel_domain, CrowdGenConfig, Domain,
};
use oassis::obs::{names, EventSink, InMemorySink};
use oassis_simtest::run_reference;

/// FNV-1a over the sorted, newline-joined rendered valid MSPs: stable
/// across platforms and toolchains, unlike `DefaultHasher`.
fn msp_digest(result: &QueryResult) -> u64 {
    let mut msps: Vec<&str> = result
        .answers
        .iter()
        .filter(|a| a.valid)
        .map(|a| a.rendered.as_str())
        .collect();
    msps.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in msps.join("\n").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn crowd(domain: &Domain, members: usize, seed: u64) -> Vec<Box<dyn CrowdMember>> {
    generate_crowd(
        domain,
        &CrowdGenConfig {
            members,
            transactions_per_member: 20,
            popular_patterns: 6,
            facts_per_transaction: 2,
            seed,
            ..Default::default()
        },
    )
    .members
    .into_iter()
    .map(|m| Box::new(m) as Box<dyn CrowdMember>)
    .collect()
}

/// `(domain, threshold, indexed, questions, nodes_generated, digest)`.
type ColdRow = (&'static str, f64, bool, usize, usize, u64);

#[rustfmt::skip]
const COLD: &[ColdRow] = &[
    ("travel", 0.4, true, 146, 142, 15652733465389041403),
    ("travel", 0.4, false, 146, 142, 15652733465389041403),
    ("travel", 0.5, true, 84, 95, 14006373560673336704),
    ("travel", 0.5, false, 84, 95, 14006373560673336704),
    ("culinary", 0.4, true, 182, 158, 1181291245665833150),
    ("culinary", 0.4, false, 182, 158, 1181291245665833150),
    ("culinary", 0.5, true, 142, 96, 9497307548772887381),
    ("culinary", 0.5, false, 142, 96, 9497307548772887381),
    ("self-treatment", 0.4, true, 136, 97, 5543967438248978375),
    ("self-treatment", 0.4, false, 136, 97, 5543967438248978375),
    ("self-treatment", 0.5, true, 117, 69, 9109529689669195049),
    ("self-treatment", 0.5, false, 117, 69, 9109529689669195049),
];

/// A cold `Oassis::execute` of each experiment domain (travel `$y+`,
/// culinary `$d+`, self-treatment) at two thresholds, and the same query
/// text at each threshold mined by `run_reference` on the un-indexed walk.
#[test]
fn cold_executions_match_recorded_outcomes() {
    let mut actual: Vec<ColdRow> = Vec::new();
    let cfg = EngineConfig::builder()
        .seed(11)
        .aggregator_sample(2)
        .build();
    for domain in [travel_domain(), culinary_domain(), self_treatment_domain()] {
        let engine = Oassis::new(domain.ontology.clone());
        let query = engine.parse(&domain.query).expect("domain query parses");
        for threshold in [0.4, 0.5] {
            for indexed in [true, false] {
                let mut members = crowd(&domain, 6, 5);
                let result = if indexed {
                    engine
                        .execute_parsed(&query, threshold, &mut members, &cfg)
                        .expect("execution succeeds")
                } else {
                    let text = at_support(&domain.query, threshold);
                    run_reference(&engine, &text, &mut members, &cfg)
                };
                actual.push((
                    domain.name,
                    threshold,
                    indexed,
                    result.stats.total_questions,
                    result.stats.nodes_generated,
                    msp_digest(&result),
                ));
            }
        }
    }
    assert_eq!(actual, COLD, "actual rows:\n{}", rows(&actual));
}

/// `query` with its `WITH SUPPORT` clause set to `threshold` (the domain
/// queries all carry 0.2).
fn at_support(query: &str, threshold: f64) -> String {
    assert!(query.contains("WITH SUPPORT = 0.2"));
    query.replace("WITH SUPPORT = 0.2", &format!("WITH SUPPORT = {threshold}"))
}

fn rows<T: std::fmt::Debug>(rows: &[T]) -> String {
    rows.iter().map(|r| format!("    {r:?},\n")).collect()
}

/// `(questions, nodes_generated, crowd_questions, store_hits, digest)` of
/// the warm session, plus the `answerstore.hit[seed]` count.
type WarmRow = (usize, usize, usize, usize, u64, u64);

#[rustfmt::skip]
const WARM: WarmRow = (112, 69, 112, 0, 10342877479008262196, 297);

/// A second admission of self-treatment over a roster whose answers the
/// store already holds: admission seeds the session and classifies
/// everything the stored answers decide before the first question. A
/// warm multiplicity admission does not return yet, so this uses the
/// multiplicity-free domain.
#[test]
fn warm_admission_matches_recorded_outcome() {
    let domain = self_treatment_domain();
    let sink = Arc::new(InMemorySink::new());
    let mut service = OassisService::start_with_sink(
        Oassis::new(domain.ontology.clone()),
        SessionRuntime::new(crowd(&domain, 10, 9)).simulated(SimConfig::new(9)),
        Arc::clone(&sink) as Arc<dyn EventSink>,
    );
    let cfg = EngineConfig::builder().seed(3).aggregator_sample(3).build();
    let spec = |threshold: f64, roster: Vec<usize>| {
        SessionSpec::builder(&domain.query)
            .threshold(threshold)
            .config(cfg.clone())
            .roster(roster)
            .build()
    };
    service.submit(spec(0.2, (0..8).collect())).unwrap();
    let cold = service.run();
    assert_eq!(cold.len(), 1);
    let seeded_before = sink.snapshot().counter("answerstore.hit[seed]");
    service.submit(spec(0.25, (2..10).collect())).unwrap();
    let warm = service.run().remove(0);
    let seeded = sink.snapshot().counter("answerstore.hit[seed]") - seeded_before;
    let actual: WarmRow = (
        warm.result.stats.total_questions,
        warm.result.stats.nodes_generated,
        warm.crowd_questions,
        warm.store_hits,
        msp_digest(&warm.result),
        seeded,
    );
    assert_eq!(actual, WARM, "actual row:\n    {actual:?}");
}

/// Per session: `(questions, nodes_generated, crowd_questions, store_hits,
/// digest)`.
type SharedSession = (usize, usize, usize, usize, u64);

#[rustfmt::skip]
const SHARED_SPACE: &[SharedSession] = &[
    (396, 360, 222, 174, 3661218404360317812),
    (340, 273, 203, 137, 8983922974712724284),
    (334, 404, 198, 136, 5592238413043275840),
    (254, 248, 189, 65, 8983922974712724284),
];

/// One travel query admitted at once at four thresholds (two spelled in
/// `WITH SUPPORT`, two as spec overrides), over overlapping rosters on the
/// simulated runtime. The sessions are of one
/// query shape, so they mine one assignment space; its shared successor
/// memo must leave every outcome as recorded.
#[test]
fn shared_space_service_matches_recorded_outcome() {
    let domain = travel_domain();
    let mut service = OassisService::start(
        Oassis::new(domain.ontology.clone()),
        SessionRuntime::new(crowd(&domain, 8, 21)).simulated(SimConfig::new(23)),
    );
    let text = |threshold: f64| at_support(&domain.query, threshold);
    let specs = [
        (text(0.25), None, (0..6).collect::<Vec<_>>()),
        (text(0.35), None, (2..8).collect()),
        (text(0.2), Some(0.3), (0..8).collect()),
        (text(0.2), Some(0.4), (1..7).collect()),
    ];
    for (i, (query, threshold, roster)) in specs.into_iter().enumerate() {
        let cfg = EngineConfig::builder()
            .seed(30 + i as u64)
            .aggregator_sample(3)
            .build();
        let mut spec = SessionSpec::builder(query).config(cfg).roster(roster);
        if let Some(t) = threshold {
            spec = spec.threshold(t);
        }
        service.submit(spec.build()).unwrap();
    }
    let sessions: Vec<SharedSession> = service
        .run()
        .iter()
        .map(|r| {
            (
                r.result.stats.total_questions,
                r.result.stats.nodes_generated,
                r.crowd_questions,
                r.store_hits,
                msp_digest(&r.result),
            )
        })
        .collect();
    assert_eq!(sessions, SHARED_SPACE, "actual rows:\n{}", rows(&sessions));
}

/// Per session: `(questions, crowd_questions, store_hits, digest)`.
type WavedSession = (usize, usize, usize, u64);

#[rustfmt::skip]
const WAVED_SESSIONS: &[WavedSession] = &[
    (695, 486, 209, 14999714080950244619),
    (480, 402, 78, 7813664226376723318),
    (499, 356, 143, 12113045511026592005),
];

/// `runtime.speculation` `(dispatched, hit, wasted)` of the waved run.
const WAVED_SPECULATION: (u64, u64, u64) = (2127, 940, 1187);

/// Three overlapping travel sessions on the simulated runtime with a
/// question wave of 4: the speculation counters pin which questions
/// `predict_questions` foresaw.
#[test]
fn waved_service_matches_recorded_outcome() {
    let domain = travel_domain();
    let sink = Arc::new(InMemorySink::new());
    let runtime = SessionRuntime::new(crowd(&domain, 8, 13))
        .workers(2)
        .simulated(SimConfig::new(17));
    let mut service = OassisService::start_with_sink(
        Oassis::new(domain.ontology.clone()),
        runtime,
        Arc::clone(&sink) as Arc<dyn EventSink>,
    );
    service.set_wave_size(4);
    for (i, (threshold, roster)) in [
        (0.2, (0..6).collect::<Vec<_>>()),
        (0.3, (2..8).collect()),
        (0.25, (0..8).collect()),
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = EngineConfig::builder()
            .seed(20 + i as u64)
            .aggregator_sample(3)
            .build();
        let spec = SessionSpec::builder(&domain.query)
            .threshold(threshold)
            .config(cfg)
            .roster(roster)
            .build();
        service.submit(spec).unwrap();
    }
    let sessions: Vec<WavedSession> = service
        .run()
        .iter()
        .map(|r| {
            (
                r.result.stats.total_questions,
                r.crowd_questions,
                r.store_hits,
                msp_digest(&r.result),
            )
        })
        .collect();
    drop(service);
    let snap = sink.snapshot();
    let spec = |label: &str| snap.counter(&format!("{}[{label}]", names::RUNTIME_SPECULATION));
    let speculation = (spec("dispatched"), spec("hit"), spec("wasted"));
    assert_eq!(
        (sessions.as_slice(), speculation),
        (WAVED_SESSIONS, WAVED_SPECULATION),
        "actual rows:\n{}    speculation {speculation:?}",
        rows(&sessions)
    );
}
