//! Integration tests for engine variants: pluggable aggregators, syntactic
//! matching mode, relation-variable mining, and question caps.

use std::sync::Arc;

use oassis::core::{AssignSpace, EngineConfig, Oassis};
use oassis::crowd::transaction::table3_dbs;
use oassis::crowd::{
    CrowdMember, DbMember, MajorityVoteAggregator, MemberId, SequentialAggregator,
};
use oassis::sparql::MatchMode;
use oassis::store::ontology::figure1_ontology;

const QUERY: &str = "SELECT FACT-SETS WHERE \
      $x instanceOf $w. $w subClassOf* Attraction. \
      $y subClassOf* Activity \
    SATISFYING $y doAt $x WITH SUPPORT = 0.4";

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

fn space_for(engine: &Oassis, cfg: &EngineConfig) -> AssignSpace {
    let query = engine.parse(QUERY).unwrap();
    engine.space(&query, cfg).unwrap()
}

/// Majority voting changes borderline outcomes: Biking@CP has per-member
/// supports (1/3, 1/2, ...): the average is 5/12 ≥ 0.4 but only half the
/// members individually meet 0.4, so the vote still passes (≥ half), while
/// Monkey@BronxZoo (2/3 and 1/2) passes both.
#[test]
fn majority_vote_aggregator_plugs_in() {
    let engine = Oassis::new(figure1_ontology());
    let cfg = EngineConfig::builder()
        .aggregator(Arc::new(MajorityVoteAggregator { sample_size: 4 }))
        .build();
    let query = engine.parse(QUERY).unwrap();
    let mut members = crowd(2);
    let result = engine
        .execute_parsed(&query, 0.4, &mut members, &cfg)
        .unwrap();
    let rendered: Vec<&str> = result.answers.iter().map(|a| a.rendered.as_str()).collect();
    assert!(
        rendered.iter().any(|r| r.contains("Feed a monkey")),
        "answers: {rendered:?}"
    );
    // Every reported answer had at least half its voters at/above 0.4.
    for a in &result.answers {
        let votes = result.cache.supports(&a.factset);
        if votes.is_empty() {
            continue;
        }
        let yes = votes.iter().filter(|&&s| s >= 0.4).count();
        assert!(2 * yes >= votes.len(), "{} lost its vote", a.rendered);
    }
}

/// The sequential aggregator early-stops on clear-cut assignments: a run
/// with it never needs more answers per assignment than its max_samples.
#[test]
fn sequential_aggregator_bounds_answers_per_assignment() {
    let engine = Oassis::new(figure1_ontology());
    let agg = SequentialAggregator {
        min_samples: 2,
        max_samples: 4,
        z: 1.96,
    };
    let cfg = EngineConfig::builder().aggregator(Arc::new(agg)).build();
    let query = engine.parse(QUERY).unwrap();
    let mut members = crowd(3);
    let result = engine
        .execute_parsed(&query, 0.4, &mut members, &cfg)
        .unwrap();
    let cache = &result.cache;
    assert!(!result.answers.is_empty());
    // The root (support 1.0 for everyone) must have been decided at
    // min_samples, not at the fixed five of the default rule.
    let max_answers = cache.iter().map(|(_, a)| a.len()).max().unwrap_or(0);
    assert!(
        max_answers <= 6,
        "sequential should stop early, got {max_answers}"
    );
}

/// Syntactic matching mode restricts the WHERE solutions (no instanceOf
/// traversal for subClassOf*), shrinking the space.
#[test]
fn syntactic_mode_yields_smaller_space() {
    let engine = Oassis::new(figure1_ontology());
    let semantic = EngineConfig::builder().mode(MatchMode::Semantic).build();
    let syntactic = EngineConfig::builder().mode(MatchMode::Syntactic).build();
    let sem_space = space_for(&engine, &semantic);
    let syn_space = space_for(&engine, &syntactic);
    assert!(
        syn_space.base_count() < sem_space.base_count(),
        "syntactic {} vs semantic {}",
        syn_space.base_count(),
        sem_space.base_count()
    );
}

/// Relation-variable mining: `$y $p <Central Park>` discovers which
/// relation connects activities to the park.
#[test]
fn relation_variable_mining() {
    let engine = Oassis::new(figure1_ontology());
    let cfg = EngineConfig::builder().aggregator_sample(1).build();
    let mut members = crowd(1);
    members.truncate(1); // u1 only
    let result = engine
        .execute(
            "SELECT VARIABLES WHERE $y subClassOf* Activity \
             SATISFYING $y $p <Central Park> WITH SUPPORT = 0.3",
            &mut members,
            &cfg,
        )
        .unwrap();
    assert!(
        result
            .answers
            .iter()
            .any(|a| a.rendered.contains("p: doAt")),
        "answers: {:?}",
        result
            .answers
            .iter()
            .map(|a| &a.rendered)
            .collect::<Vec<_>>()
    );
}

/// max_questions caps the multi-user run.
#[test]
fn question_cap_is_respected() {
    let engine = Oassis::new(figure1_ontology());
    let cfg = EngineConfig::builder().max_questions(7).build();
    let mut members = crowd(3);
    let result = engine.execute(QUERY, &mut members, &cfg).unwrap();
    assert!(result.stats.total_questions <= 7);
}

/// Enumeration caps report `None` instead of silently truncating.
#[test]
fn enumeration_cap_returns_none() {
    let engine = Oassis::new(figure1_ontology());
    let cfg = EngineConfig::default();
    let space = space_for(&engine, &cfg);
    assert!(space.enumerate_single_valued(3).is_none());
    assert!(space.enumerate_single_valued(1_000_000).is_some());
}

/// A constants-only SATISFYING clause (no variables at all) asks exactly
/// one question per member sample and returns the single pattern iff
/// significant.
#[test]
fn constant_only_satisfying_clause() {
    let engine = Oassis::new(figure1_ontology());
    let cfg = EngineConfig::builder().aggregator_sample(2).build();
    let mut members = crowd(1);
    let result = engine
        .execute(
            "SELECT FACT-SETS WHERE \
             SATISFYING <Feed a monkey> doAt <Bronx Zoo> WITH SUPPORT = 0.5",
            &mut members,
            &cfg,
        )
        .unwrap();
    // avg(4/6, 1/2) = 7/12 ≥ 0.5: the constant pattern is the one answer.
    assert_eq!(result.answers.len(), 1);
    assert!(result.answers[0].rendered.contains("Feed a monkey"));
    assert_eq!(result.stats.unique_questions, 1);

    // And an insignificant constant pattern yields no answers.
    let mut members = crowd(1);
    let none = engine
        .execute(
            "SELECT FACT-SETS WHERE \
             SATISFYING Basketball doAt <Central Park> WITH SUPPORT = 0.5",
            &mut members,
            &cfg,
        )
        .unwrap();
    assert!(none.answers.is_empty());
}

/// Zero crowd members: the run terminates immediately with no answers.
#[test]
fn empty_crowd_terminates() {
    let engine = Oassis::new(figure1_ontology());
    let mut members: Vec<Box<dyn CrowdMember>> = Vec::new();
    let result = engine
        .execute(QUERY, &mut members, &EngineConfig::default())
        .unwrap();
    assert!(result.answers.is_empty());
    assert_eq!(result.stats.total_questions, 0);
}

/// A WHERE clause with no solutions yields an empty space and no questions.
#[test]
fn unsatisfiable_where_clause() {
    let engine = Oassis::new(figure1_ontology());
    let mut members = crowd(1);
    // Restaurants are not subclasses of Activity.
    let result = engine
        .execute(
            "SELECT FACT-SETS WHERE \
               $y subClassOf* Activity. $y instanceOf Restaurant \
             SATISFYING $y doAt <Central Park> WITH SUPPORT = 0.3",
            &mut members,
            &EngineConfig::default(),
        )
        .unwrap();
    assert!(result.answers.is_empty());
    assert_eq!(result.stats.total_questions, 0);
}
