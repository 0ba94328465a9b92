//! The event/metrics subsystem observed end-to-end: running the paper's
//! travel example with an [`InMemorySink`] attached must yield a snapshot
//! that agrees with the engine's own [`ExecutionStats`] bookkeeping and
//! exposes the paper-facing telemetry (lazy-DAG coverage, crowd-cache
//! traffic, per-algorithm question counts, spans).

use std::sync::Arc;

use oassis::core::{
    AssignSpace, EngineConfig, HorizontalMiner, MinerConfig, NaiveMiner, Oassis, VerticalMiner,
    NODES_TOTAL_CAP,
};
use oassis::crowd::transaction::table3_dbs;
use oassis::crowd::{CrowdMember, DbMember, MemberId};
use oassis::obs::{names, EventSink, InMemorySink};
use oassis::sparql::MatchMode;
use oassis::store::ontology::figure1_ontology;
use oassis::vocab::Fact;

const FIGURE2: &str = r#"
    SELECT FACT-SETS
    WHERE
      $w subClassOf* Attraction.
      $x instanceOf $w.
      $x inside NYC.
      $x hasLabel "child-friendly".
      $y subClassOf* Activity.
      $z instanceOf Restaurant.
      $z nearBy $x
    SATISFYING
      $y+ doAt $x.
      [] eatAt $z.
      MORE
    WITH SUPPORT = 0.4
"#;

/// The grey-highlighted Figure 3 fragment used by the single-user miners.
const FIG3_FRAGMENT: &str = r#"
    SELECT FACT-SETS
    WHERE
      $w subClassOf* Attraction.
      $x instanceOf $w.
      $x inside NYC.
      $x hasLabel "child-friendly".
      $y subClassOf* Activity
    SATISFYING
      $y+ doAt $x
    WITH SUPPORT = 0.4
"#;

#[test]
fn multiuser_run_snapshot_matches_execution_stats() {
    let ontology = figure1_ontology();
    let vocab = Arc::new(ontology.vocabulary().clone());
    let (d1, d2) = table3_dbs(&vocab);
    let mut members: Vec<Box<dyn CrowdMember>> = vec![
        Box::new(DbMember::new(MemberId(1), d1, Arc::clone(&vocab))),
        Box::new(DbMember::new(MemberId(2), d2, Arc::clone(&vocab))),
    ];
    let rent_bikes = Fact::new(
        vocab.element("Rent Bikes").unwrap(),
        vocab.relation("doAt").unwrap(),
        vocab.element("Boathouse").unwrap(),
    );

    let mem = InMemorySink::shared();
    let sink: Arc<dyn EventSink> = Arc::clone(&mem) as Arc<dyn EventSink>;
    let engine = Oassis::new(ontology);
    let config = EngineConfig::builder()
        .aggregator_sample(2)
        .more_domain(vec![rent_bikes])
        .sink(sink)
        .build();
    let result = engine.execute(FIGURE2, &mut members, &config).unwrap();
    assert!(!result.answers.is_empty());
    let snap = mem.snapshot();

    // The event stream carries exactly the engine's question bookkeeping.
    assert_eq!(
        snap.counter_across_labels(names::QUESTION_ASKED),
        result.stats.total_questions as u64,
        "snapshot question count must match ExecutionStats"
    );
    assert_eq!(
        snap.counter(&format!("{}[multiuser]", names::ALGO_QUESTIONS)),
        result.stats.total_questions as u64,
    );
    assert_eq!(
        snap.counter_across_labels(names::MSP_CONFIRMED),
        result.stats.msp_events.len() as u64,
    );

    // Lazy generation (Section 5): far fewer nodes materialized than exist.
    // The full Figure-2 space (MORE facts + multiplicity nodes) has ~100k
    // nodes, so the total gauge may be capped out — laziness then shows as
    // `generated` staying below even the counting cap.
    let generated = snap.counter(names::DAG_NODES_GENERATED);
    assert!(generated > 0);
    assert_eq!(generated, result.stats.nodes_generated as u64);
    match snap.gauge(names::DAG_NODES_TOTAL) {
        Some(total) => assert!(
            (generated as f64) < total,
            "lazy generation must touch a strict subset: {generated} of {total}"
        ),
        None => assert!(
            generated < NODES_TOTAL_CAP as u64,
            "space exceeds the counting cap, yet {generated} nodes were materialized"
        ),
    }

    // Crowd-cache traffic: every answer-reuse lookup is either a hit or a
    // miss, and every miss became a crowd question.
    let hits = snap.counter(names::CROWD_CACHE_HIT);
    let misses = snap.counter(names::CROWD_CACHE_MISS);
    assert!(misses > 0, "fresh questions go through cache misses");
    assert_eq!(misses, result.stats.total_questions as u64);
    assert_eq!(
        hits + misses,
        snap.counter(names::CROWD_CACHE_HIT) + snap.counter(names::CROWD_CACHE_MISS)
    );

    // Border updates and aggregation quorums were observed.
    assert!(snap.counter_across_labels(names::BORDER_UPDATED) > 0);
    let quorum = snap
        .histogram(names::CROWD_QUORUM_SIZE)
        .expect("decisions were reached");
    assert!(quorum.count > 0);
    assert!(quorum.max <= 2.0, "two members answered");

    // Answer latency was timed per question round-trip.
    let latency = snap
        .histogram(names::CROWD_ANSWER_NANOS)
        .expect("answer latency histogram");
    assert_eq!(latency.count, result.stats.total_questions as u64);
    let roundtrip = snap.span(names::SPAN_ROUNDTRIP).expect("roundtrip span");
    assert_eq!(roundtrip.count, result.stats.total_questions as u64);
    assert_eq!(roundtrip.open, 0);

    // The run and plan/space-build phases are bracketed by spans.
    for name in [names::SPAN_RUN, names::SPAN_PLAN, names::SPAN_SPACE_BUILD] {
        let span = snap.span(name).unwrap_or_else(|| panic!("span {name}"));
        assert_eq!(span.count, 1, "{name} runs once");
        assert_eq!(span.open, 0, "{name} must be closed");
    }

    // The WHERE clause's SPARQL evaluation reported its scans, and the
    // planner reported unfolding the `subClassOf*` scans to taxonomy
    // reachability (which is exactly why no per-binding path BFS — and
    // hence no `sparql.path.depth` histogram — happens on this query).
    assert!(snap.counter_across_labels(names::SPARQL_PATTERN_SCAN) > 0);
    assert!(
        snap.counter(names::SPARQL_PLAN_UNFOLD) >= 1,
        "subClassOf* scans switch to precomputed reachability"
    );
    assert!(
        snap.histogram(names::SPARQL_PATH_DEPTH).is_none(),
        "unfolded paths skip the per-binding BFS entirely"
    );
}

/// On the paper's Figure 3 fragment the space is small enough to count
/// exhaustively, so the snapshot exposes the exact "fraction of the DAG
/// generated" ratio the paper reports — and it must be a strict fraction.
#[test]
fn bounded_space_reports_exact_lazy_generation_ratio() {
    let ontology = figure1_ontology();
    let vocab = Arc::new(ontology.vocabulary().clone());
    let (d1, d2) = table3_dbs(&vocab);
    let mut members: Vec<Box<dyn CrowdMember>> = vec![
        Box::new(DbMember::new(MemberId(1), d1, Arc::clone(&vocab))),
        Box::new(DbMember::new(MemberId(2), d2, Arc::clone(&vocab))),
    ];

    let mem = InMemorySink::shared();
    let sink: Arc<dyn EventSink> = Arc::clone(&mem) as Arc<dyn EventSink>;
    let engine = Oassis::new(ontology);
    let config = EngineConfig::builder()
        .aggregator_sample(2)
        .sink(sink)
        .build();
    let result = engine
        .execute(FIG3_FRAGMENT, &mut members, &config)
        .unwrap();
    let snap = mem.snapshot();

    let generated = snap.counter(names::DAG_NODES_GENERATED);
    let total = snap
        .gauge(names::DAG_NODES_TOTAL)
        .expect("figure-3 fragment space is countable");
    assert!(generated > 0);
    assert!(total >= 1.0);
    let ratio = generated as f64 / total;
    assert!(
        ratio < 1.0,
        "generated {generated} of {total} nodes (ratio {ratio:.3}) must stay below 1"
    );
    assert_eq!(generated, result.stats.nodes_generated as u64);
}

#[test]
fn single_user_miners_report_per_algorithm_questions() {
    let ontology = figure1_ontology();
    let vocab = Arc::new(ontology.vocabulary().clone());
    let query = oassis::ql::parse_query(FIG3_FRAGMENT, &ontology).unwrap();
    let space = AssignSpace::build(
        Arc::new(ontology.clone()),
        &query,
        MatchMode::Semantic,
        Vec::new(),
    )
    .unwrap();

    let mem = InMemorySink::shared();
    let sink: Arc<dyn EventSink> = Arc::clone(&mem) as Arc<dyn EventSink>;
    let cfg = MinerConfig::new(0.4).with_sink(sink);

    let (d1, _) = table3_dbs(&vocab);
    let mut m1 = DbMember::new(MemberId(1), d1.clone(), Arc::clone(&vocab));
    let vertical = VerticalMiner::run(&space, &mut m1, &cfg);
    let mut m2 = DbMember::new(MemberId(2), d1.clone(), Arc::clone(&vocab));
    let horizontal = HorizontalMiner::run(&space, &mut m2, &cfg);
    let mut m3 = DbMember::new(MemberId(3), d1, Arc::clone(&vocab));
    let universe = space.enumerate_single_valued(100_000).unwrap();
    let naive = NaiveMiner::run(&space, &mut m3, &cfg, &universe);

    let snap = mem.snapshot();
    for (algo, outcome) in [
        ("vertical", &vertical),
        ("horizontal", &horizontal),
        ("naive", &naive),
    ] {
        let key = format!("{}[{algo}]", names::ALGO_QUESTIONS);
        assert_eq!(
            snap.counter(&key),
            outcome.stats.total_questions as u64,
            "{algo} question count must match its stats"
        );
        assert!(snap.counter(&key) > 0, "{algo} asked questions");
    }
    // All three miners share one stream; the unlabeled sum covers them all.
    assert_eq!(
        snap.counter_across_labels(names::QUESTION_ASKED),
        (vertical.stats.total_questions
            + horizontal.stats.total_questions
            + naive.stats.total_questions) as u64,
    );
}
