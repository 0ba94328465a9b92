//! The [`Oassis`] system facade (Section 6.1): ontology, parser, SPARQL
//! and mining tied together, plus the Section 6.3 cache-replay
//! methodology for re-executing a query at a higher support threshold
//! without new crowd work. Every query runs as the only session of a
//! volatile [`OassisService`], the one driver of
//! [`MiningSession`](super::MiningSession)s.

use std::sync::Arc;

use oassis_crowd::{CrowdCache, CrowdMember, MemberId, ScriptedMember};
use oassis_obs::{names, Span};
use oassis_ql::{parse_query, Query, SelectForm};
use oassis_store::Ontology;
use oassis_vocab::{Fact, FactSet};

use crate::assignment::Assignment;
use crate::config::EngineConfig;
use crate::runtime::SessionRuntime;
use crate::space::AssignSpace;

use super::service::OassisService;
use super::{OassisError, QueryAnswer, QueryResult};

/// The OASSIS system facade: parse → SPARQL → mine → answers.
///
/// ```
/// use oassis_core::{EngineConfig, Oassis};
/// use oassis_crowd::transaction::table3_dbs;
/// use oassis_crowd::{CrowdMember, DbMember, MemberId};
/// use oassis_store::ontology::figure1_ontology;
/// use std::sync::Arc;
///
/// let ontology = figure1_ontology();
/// let vocab = Arc::new(ontology.vocabulary().clone());
/// let (d1, _) = table3_dbs(&vocab);
/// let mut members: Vec<Box<dyn CrowdMember>> =
///     vec![Box::new(DbMember::new(MemberId(1), d1, vocab))];
///
/// let engine = Oassis::new(ontology);
/// let config = EngineConfig { aggregator_sample: 1, ..EngineConfig::default() };
/// let result = engine
///     .execute(
///         "SELECT FACT-SETS WHERE $y subClassOf* Activity \
///          SATISFYING $y doAt <Bronx Zoo> WITH SUPPORT = 0.5",
///         &mut members,
///         &config,
///     )
///     .unwrap();
/// assert!(result.answers.iter().any(|a| a.rendered.contains("Feed a monkey")));
/// ```
pub struct Oassis {
    ontology: Arc<Ontology>,
}

impl Oassis {
    /// Create an engine over `ontology`.
    pub fn new(ontology: Ontology) -> Self {
        Oassis {
            ontology: Arc::new(ontology),
        }
    }

    /// Create from a shared ontology.
    pub fn from_arc(ontology: Arc<Ontology>) -> Self {
        Oassis { ontology }
    }

    /// The engine's ontology.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// The engine's ontology, shared.
    pub fn ontology_arc(&self) -> Arc<Ontology> {
        Arc::clone(&self.ontology)
    }

    /// Parse `query_src` against the ontology.
    pub fn parse(&self, query_src: &str) -> Result<Query, OassisError> {
        Ok(parse_query(query_src, &self.ontology)?)
    }

    /// Build the assignment space for a parsed query.
    pub fn space(&self, query: &Query, config: &EngineConfig) -> Result<AssignSpace, OassisError> {
        let _span = Span::enter(&*config.sink, names::SPAN_SPACE_BUILD);
        Ok(AssignSpace::build_with_sink(
            Arc::clone(&self.ontology),
            query,
            config.mode,
            config.more_domain.clone(),
            &config.sink,
        )?)
    }

    /// Execute `query_src` against `members` with the paper's multi-user
    /// algorithm, at the query's own `WITH SUPPORT` threshold. The members
    /// answer one question at a time on the caller's thread (a concrete
    /// answer after the member's
    /// [`answer_delay`](CrowdMember::answer_delay); nothing times out) and
    /// are handed back in order when the run ends.
    pub fn execute(
        &self,
        query_src: &str,
        members: &mut Vec<Box<dyn CrowdMember>>,
        config: &EngineConfig,
    ) -> Result<QueryResult, OassisError> {
        let query = {
            let _span = Span::enter(&*config.sink, names::SPAN_PLAN);
            self.parse(query_src)?
        };
        self.execute_parsed(&query, query.satisfying.support, members, config)
    }

    /// Execute a parsed query at an explicit threshold (the §6.3 replay
    /// methodology varies the threshold over one cached answer set).
    pub fn execute_parsed(
        &self,
        query: &Query,
        threshold: f64,
        members: &mut Vec<Box<dyn CrowdMember>>,
        config: &EngineConfig,
    ) -> Result<QueryResult, OassisError> {
        let runtime = SessionRuntime::new(std::mem::take(members)).inline();
        let mut service = self.solo_service(runtime, config);
        let result = service.run_solo(query.clone(), threshold, config);
        *members = service.into_members();
        result
    }

    /// Like [`execute`](Self::execute), but the crowd runs concurrently
    /// through the session runtime: the one session keeps a question wave
    /// as wide as the runtime's worker count in flight, so every worker
    /// carries a prefetched question while others answer, and a committed
    /// question never queues behind more prefetches than there are
    /// workers. Fails with
    /// [`RuntimeErrorKind::CrowdExhausted`](crate::RuntimeErrorKind) only
    /// when the runtime excluded every member.
    pub fn execute_with_runtime(
        &self,
        query_src: &str,
        runtime: SessionRuntime,
        config: &EngineConfig,
    ) -> Result<QueryResult, OassisError> {
        let query = {
            let _span = Span::enter(&*config.sink, names::SPAN_PLAN);
            self.parse(query_src)?
        };
        self.execute_parsed_with_runtime(&query, query.satisfying.support, runtime, config)
    }

    /// Concurrent variant of [`execute_parsed`](Self::execute_parsed).
    pub fn execute_parsed_with_runtime(
        &self,
        query: &Query,
        threshold: f64,
        runtime: SessionRuntime,
        config: &EngineConfig,
    ) -> Result<QueryResult, OassisError> {
        let wave = runtime.options().workers;
        self.solo_service(runtime, config)
            .with_wave_size(wave)
            .run_solo(query.clone(), threshold, config)
    }

    /// A volatile service over `runtime` for one query, reporting to the
    /// query's sink.
    fn solo_service(&self, runtime: SessionRuntime, config: &EngineConfig) -> OassisService {
        OassisService::start_with_sink(
            Oassis::from_arc(self.ontology_arc()),
            runtime,
            Arc::clone(&config.sink),
        )
    }

    /// Post-process a raw mining result for the query's SELECT form (the
    /// service applies it when a session closes).
    pub(crate) fn finalize(
        &self,
        mut result: QueryResult,
        query: &Query,
        space: &AssignSpace,
    ) -> QueryResult {
        if query.all {
            // `SELECT ... ALL`: besides the MSPs, return every explicitly
            // classified significant assignment (the implied generalizations
            // can be inferred by the caller via the returned state, as the
            // paper notes in footnote 3).
            let vocab = self.ontology.vocabulary();
            let mut seen: std::collections::HashSet<Assignment> = result
                .answers
                .iter()
                .map(|a| a.assignment.clone())
                .collect();
            let extra: Vec<Assignment> = result
                .state
                .explicit_decisions()
                .filter(|(_, sig)| *sig)
                .map(|(a, _)| a.clone())
                .filter(|a| seen.insert(a.clone()))
                .collect();
            for a in extra {
                let factset = space.instantiate(&a);
                let answers = result.cache.supports(&factset);
                let support = if answers.is_empty() {
                    None
                } else {
                    Some(answers.iter().sum::<f64>() / answers.len() as f64)
                };
                result.answers.push(QueryAnswer {
                    valid: space.is_valid(&a),
                    support,
                    rendered: vocab.factset_to_string(&factset),
                    factset,
                    assignment: a,
                });
            }
        }
        if query.select == SelectForm::Variables {
            let names = space.var_names().to_vec();
            for a in &mut result.answers {
                a.rendered = a.assignment.display(&names, self.ontology.vocabulary());
            }
        }
        result
    }

    /// Survey the crowd for MORE-fact candidates (the "more" button of
    /// Section 6.2): each member is prompted, for up to `contexts` base
    /// assignments, with "what else do you do when ...?" and may volunteer
    /// one extra fact per prompt. The deduplicated suggestions become the
    /// `more_domain` for a subsequent execution.
    pub fn discover_more_domain(
        &self,
        query: &Query,
        members: &mut [Box<dyn CrowdMember>],
        config: &EngineConfig,
        contexts: usize,
    ) -> Result<Vec<Fact>, OassisError> {
        let space = self.space(query, config)?;
        let bases = space.base_assignments(contexts);
        let mut out: Vec<Fact> = Vec::new();
        for member in members.iter_mut() {
            for base in &bases {
                if !member.willing() {
                    break;
                }
                let fs = space.instantiate(base);
                if fs.is_empty() {
                    continue;
                }
                for f in member.suggest_more(&fs) {
                    if !out.contains(&f) {
                        out.push(f);
                    }
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Re-execute a query at `threshold` using only cached answers from a
    /// previous run (Section 6.3): members are replayed from the cache and
    /// the statistics count only the answers the algorithm actually uses.
    ///
    /// Caveat: if the original run classified an assignment purely by
    /// inference (a deeper pattern was significant at the lower threshold),
    /// the cache may hold fewer answers for it than the aggregator's sample
    /// size, and the replay leaves it undecided; the replayed MSP set is
    /// then a subset of a fresh execution's. The figure harness therefore
    /// measures per-threshold question counts with fresh executions, which
    /// matches the paper's "answers used by the algorithm" accounting.
    pub fn replay(
        &self,
        query: &Query,
        threshold: f64,
        cache: &CrowdCache,
        config: &EngineConfig,
    ) -> Result<QueryResult, OassisError> {
        let mut members = replay_members(cache);
        self.execute_parsed(query, threshold, &mut members, config)
    }
}

/// Build replay members from a previous run's cache: each answers exactly
/// what they answered before (and support 0 for anything never asked, which
/// a completed run only reaches inside already-insignificant regions).
pub fn replay_members(cache: &CrowdCache) -> Vec<Box<dyn CrowdMember>> {
    use std::collections::HashMap;
    let mut per_member: HashMap<MemberId, HashMap<FactSet, f64>> = HashMap::new();
    for (fs, answers) in cache.iter() {
        for &(m, s) in answers {
            per_member.entry(m).or_default().insert(fs.clone(), s);
        }
    }
    let mut ids: Vec<MemberId> = per_member.keys().copied().collect();
    ids.sort();
    ids.into_iter()
        .map(|id| {
            let answers = per_member.remove(&id).expect("key exists");
            Box::new(ScriptedMember::new_strict(id, answers)) as Box<dyn CrowdMember>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_crowd::transaction::table3_dbs;
    use oassis_crowd::DbMember;
    use oassis_store::ontology::figure1_ontology;

    const QUERY: &str = r#"
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

    /// A crowd of u1/u2 clones large enough for the 5-answer aggregator.
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

    #[test]
    fn multi_user_finds_phi16_style_msps() {
        // With equal numbers of u1/u2 clones, average supports match
        // u_avg of Example 4.6: Biking@CP = avg(2/6, 1/2) = 5/12 ≥ 0.4.
        let engine = Oassis::new(figure1_ontology());
        let mut members = crowd(3); // 6 members ≥ sample size 5
        let cfg = EngineConfig::default();
        let result = engine.execute(QUERY, &mut members, &cfg).unwrap();
        assert!(!result.answers.is_empty());
        let rendered: Vec<&str> = result.answers.iter().map(|a| a.rendered.as_str()).collect();
        assert!(
            rendered
                .iter()
                .any(|r| r.contains("Biking doAt Central Park")),
            "answers: {rendered:?}"
        );
        assert!(
            rendered
                .iter()
                .any(|r| r.contains("Feed a monkey doAt Bronx Zoo")),
            "answers: {rendered:?}"
        );
        // Baseball@CP has avg 1/6, 1/2 → 1/3 < 0.4: must not be an MSP.
        assert!(!rendered.iter().any(|r| r.contains("Baseball")));
        // All reported supports meet the threshold (up to float tolerance).
        for a in &result.answers {
            if let Some(s) = a.support {
                assert!(s + 1e-9 >= 0.4, "answer {} has support {s}", a.rendered);
            }
        }
    }

    #[test]
    fn unwilling_members_stop_the_run_gracefully() {
        let o = figure1_ontology();
        let vocab = Arc::new(o.vocabulary().clone());
        let (d1, _) = table3_dbs(&vocab);
        let mut members: Vec<Box<dyn CrowdMember>> = vec![Box::new(
            DbMember::new(MemberId(0), d1, vocab).with_quota(3),
        )];
        let engine = Oassis::new(figure1_ontology());
        let result = engine
            .execute(QUERY, &mut members, &EngineConfig::default())
            .unwrap();
        assert!(result.stats.total_questions <= 3 + 1);
    }

    #[test]
    fn single_member_sample_one_matches_vertical_semantics() {
        let o = figure1_ontology();
        let vocab = Arc::new(o.vocabulary().clone());
        let (d1, _) = table3_dbs(&vocab);
        let mut members: Vec<Box<dyn CrowdMember>> =
            vec![Box::new(DbMember::new(MemberId(0), d1, vocab))];
        let engine = Oassis::new(figure1_ontology());
        let cfg = EngineConfig {
            aggregator_sample: 1,
            ..EngineConfig::default()
        };
        let query = engine.parse(QUERY).unwrap();
        let result = engine
            .execute_parsed(&query, 0.3, &mut members, &cfg)
            .unwrap();
        // u1 at 0.3: monkey-feeding and the Biking/Ball-Game combo (2/6each).
        let rendered: Vec<&str> = result.answers.iter().map(|a| a.rendered.as_str()).collect();
        assert!(rendered.iter().any(|r| r.contains("Feed a monkey")));
        assert!(rendered.iter().any(|r| r.contains("Biking")));
    }

    #[test]
    fn replay_at_higher_threshold_uses_no_new_crowd_answers() {
        let engine = Oassis::new(figure1_ontology());
        let mut members = crowd(3);
        let cfg = EngineConfig::default();
        let query = engine.parse(QUERY).unwrap();
        let base = engine
            .execute_parsed(&query, 0.2, &mut members, &cfg)
            .unwrap();

        let replayed = engine.replay(&query, 0.4, &base.cache, &cfg).unwrap();
        // Replay asks at most as many questions as the original run.
        assert!(
            replayed.stats.total_questions <= base.stats.total_questions,
            "replay {} > base {}",
            replayed.stats.total_questions,
            base.stats.total_questions
        );
        // Its answers are a subset of a fresh execution at 0.4 (inference
        // in the base run may have classified some assignments with fewer
        // than sample-size direct answers — see `replay`'s caveat).
        let mut fresh_members = crowd(3);
        let fresh = engine
            .execute_parsed(&query, 0.4, &mut fresh_members, &cfg)
            .unwrap();
        let fresh_set: std::collections::HashSet<String> =
            fresh.answers.iter().map(|x| x.rendered.clone()).collect();
        for a in &replayed.answers {
            assert!(
                fresh_set.contains(&a.rendered),
                "replay invented answer {}",
                a.rendered
            );
        }
        assert!(!replayed.answers.is_empty());
    }

    #[test]
    fn higher_threshold_never_finds_more_msps() {
        let engine = Oassis::new(figure1_ontology());
        let query = engine.parse(QUERY).unwrap();
        let cfg = EngineConfig::default();
        let mut counts = Vec::new();
        let mut members = crowd(3);
        let base = engine
            .execute_parsed(&query, 0.2, &mut members, &cfg)
            .unwrap();
        for th in [0.2, 0.3, 0.4, 0.5] {
            let r = engine.replay(&query, th, &base.cache, &cfg).unwrap();
            counts.push(r.answers.len());
        }
        // MSP counts are not strictly monotone in the threshold in general
        // (footnote 8: raising it can promote several predecessors to MSPs),
        // but the strictest threshold cannot out-produce the loosest.
        assert!(counts.last().unwrap() <= counts.first().unwrap());
    }

    #[test]
    fn select_variables_renders_assignments() {
        let engine = Oassis::new(figure1_ontology());
        let mut members = crowd(3);
        let cfg = EngineConfig::default();
        let src = QUERY.replace("SELECT FACT-SETS", "SELECT VARIABLES");
        let result = engine.execute(&src, &mut members, &cfg).unwrap();
        assert!(
            result
                .answers
                .iter()
                .any(|a| a.rendered.contains("y:") && a.rendered.contains("x:")),
            "{:?}",
            result
                .answers
                .iter()
                .map(|a| &a.rendered)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn replay_members_reconstruct_cache() {
        let mut cache = CrowdCache::new();
        let fs = FactSet::new();
        cache.record(&fs, MemberId(1), 0.5);
        cache.record(&fs, MemberId(2), 0.75);
        let mut members = replay_members(&cache);
        assert_eq!(members.len(), 2);
        assert_eq!(members[0].ask_concrete(&fs), 0.5);
        assert_eq!(members[1].ask_concrete(&fs), 0.75);
    }
}

#[cfg(test)]
mod all_keyword_tests {
    use super::*;
    use oassis_crowd::transaction::table3_dbs;
    use oassis_crowd::DbMember;
    use oassis_store::ontology::figure1_ontology;

    #[test]
    fn select_all_includes_non_maximal_significant_patterns() {
        let ontology = figure1_ontology();
        let vocab = Arc::new(ontology.vocabulary().clone());
        let (d1, _) = table3_dbs(&vocab);
        let engine = Oassis::new(figure1_ontology());
        let cfg = EngineConfig {
            aggregator_sample: 1,
            ..EngineConfig::default()
        };
        let src = |all: &str| {
            format!(
                "SELECT FACT-SETS{all} WHERE \
                   $x instanceOf Park. $y subClassOf* Activity \
                 SATISFYING $y doAt $x WITH SUPPORT = 0.3"
            )
        };
        let run = |q: &str| {
            let mut members: Vec<Box<dyn CrowdMember>> = vec![Box::new(DbMember::new(
                MemberId(0),
                d1.clone(),
                Arc::clone(&vocab),
            ))];
            engine.execute(q, &mut members, &cfg).unwrap()
        };
        let msps_only = run(&src(""));
        let all = run(&src(" ALL"));
        assert!(all.answers.len() > msps_only.answers.len());
        // ALL includes the generalization `Sport doAt Central Park` even
        // though `Biking doAt Central Park` is the MSP below it.
        assert!(all
            .answers
            .iter()
            .any(|a| a.rendered == "Sport doAt Central Park"));
        assert!(!msps_only
            .answers
            .iter()
            .any(|a| a.rendered == "Sport doAt Central Park"));
        // The MSP set is a subset of the ALL set.
        for m in &msps_only.answers {
            assert!(all.answers.iter().any(|a| a.rendered == m.rendered));
        }
    }
}

#[cfg(test)]
mod topk_tests {
    use super::*;
    use crate::engine::{Answer, MiningSession, QuestionPayload, SessionEvent, SessionSpec};
    use crate::runtime::SimConfig;
    use oassis_crowd::transaction::table3_dbs;
    use oassis_crowd::DbMember;
    use oassis_store::ontology::figure1_ontology;

    const QUERY: &str = "SELECT FACT-SETS WHERE \
          $x instanceOf $w. $w subClassOf* Attraction. $x inside NYC. \
          $y subClassOf* Activity \
        SATISFYING $y doAt $x WITH SUPPORT = 0.3";

    fn member() -> Box<dyn CrowdMember> {
        let o = figure1_ontology();
        let vocab = Arc::new(o.vocabulary().clone());
        let (d1, _) = table3_dbs(&vocab);
        Box::new(DbMember::new(MemberId(0), d1, vocab))
    }

    #[test]
    fn top_k_stops_early_and_saves_questions() {
        let engine = Oassis::new(figure1_ontology());
        let query = engine.parse(QUERY).unwrap();
        let full_cfg = EngineConfig {
            aggregator_sample: 1,
            ..EngineConfig::default()
        };
        let mut m1 = vec![member()];
        let full = engine
            .execute_parsed(&query, 0.3, &mut m1, &full_cfg)
            .unwrap();
        assert!(full.answers.iter().filter(|a| a.valid).count() >= 2);

        let topk_cfg = EngineConfig {
            aggregator_sample: 1,
            top_k: Some(1),
            ..EngineConfig::default()
        };
        let mut m2 = vec![member()];
        let topk = engine
            .execute_parsed(&query, 0.3, &mut m2, &topk_cfg)
            .unwrap();
        assert!(
            topk.stats.total_questions < full.stats.total_questions,
            "top-1 ({}) should ask fewer questions than completion ({})",
            topk.stats.total_questions,
            full.stats.total_questions
        );
        assert!(topk.answers.iter().any(|a| a.valid));
    }

    /// `take_partials` is the incremental answer stream: each MSP arrives
    /// while the session is still mining, in the order the session
    /// confirmed it (checked against a session driven by hand), and is part
    /// of the final answer set.
    #[test]
    fn partials_arrive_incrementally_in_confirmation_order() {
        let engine = Oassis::new(figure1_ontology());
        let query = engine.parse(QUERY).unwrap();
        let cfg = EngineConfig {
            aggregator_sample: 1,
            ..EngineConfig::default()
        };

        let space = Arc::new(engine.space(&query, &cfg).unwrap());
        let mut members = vec![member()];
        let seats = members.iter().map(|m| m.id()).collect();
        let mut session = MiningSession::new(space, 0.3, Arc::new(cfg.clone()), seats);
        let mut confirmed: Vec<String> = Vec::new();
        loop {
            match session.poll(&mut members) {
                SessionEvent::Ask(q) => {
                    let QuestionPayload::Concrete { factset, .. } = &q.payload else {
                        panic!("only concrete questions at ratio 0");
                    };
                    let s = members[q.seat].ask_concrete(factset);
                    session.absorb(q.id, Answer::Support(s));
                }
                SessionEvent::TurnEnded { .. } => {
                    confirmed.extend(session.take_new_answers().into_iter().map(|a| a.rendered));
                }
                SessionEvent::Finished => break,
            }
        }

        let runtime = SessionRuntime::new(vec![member()]).simulated(SimConfig::new(0));
        let mut service = OassisService::start(Oassis::new(figure1_ontology()), runtime);
        let spec = SessionSpec::builder(QUERY)
            .threshold(0.3)
            .config(cfg)
            .build();
        let id = service.submit(spec).unwrap();
        let mut seen: Vec<String> = Vec::new();
        let mut seen_while_mining = 0;
        while service.run_cycle() {
            seen.extend(service.take_partials(id).into_iter().map(|a| a.rendered));
            seen_while_mining = seen.len();
        }
        seen.extend(service.take_partials(id).into_iter().map(|a| a.rendered));
        let result = service.take_report(id).expect("finished").result;

        assert!(seen_while_mining > 0, "no partial arrived before the end");
        assert_eq!(seen.len(), result.stats.msp_events.len());
        assert_eq!(seen, confirmed, "partials left confirmation order");
        // Everything streamed is in the final answer set.
        for s in &seen {
            assert!(result.answers.iter().any(|a| &a.rendered == s), "{s}");
        }
    }
}

#[cfg(test)]
mod discovery_tests {
    use super::*;
    use oassis_crowd::transaction::table3_dbs;
    use oassis_crowd::DbMember;
    use oassis_store::ontology::figure1_ontology;

    #[test]
    fn crowd_survey_discovers_the_boathouse_tip() {
        let ontology = figure1_ontology();
        let vocab = Arc::new(ontology.vocabulary().clone());
        let (d1, d2) = table3_dbs(&vocab);
        let mut members: Vec<Box<dyn CrowdMember>> = vec![
            Box::new(DbMember::new(MemberId(1), d1, Arc::clone(&vocab))),
            Box::new(DbMember::new(MemberId(2), d2, Arc::clone(&vocab))),
        ];
        let engine = Oassis::new(ontology);
        let cfg = EngineConfig::default();
        let query = engine
            .parse(
                "SELECT FACT-SETS WHERE \
                   $x instanceOf $w. $w subClassOf* Attraction. \
                   $y subClassOf* Activity \
                 SATISFYING $y doAt $x. MORE WITH SUPPORT = 0.3",
            )
            .unwrap();
        let domain = engine
            .discover_more_domain(&query, &mut members, &cfg, 500)
            .unwrap();
        let rendered: Vec<String> = domain
            .iter()
            .map(|f| engine.ontology().vocabulary().fact_to_string(f))
            .collect();
        assert!(
            rendered.iter().any(|s| s == "Rent Bikes doAt Boathouse"),
            "suggestions: {rendered:?}"
        );
    }

    #[test]
    fn more_facts_never_duplicate_pattern_facts_in_answers() {
        let ontology = figure1_ontology();
        let vocab = Arc::new(ontology.vocabulary().clone());
        let (d1, d2) = table3_dbs(&vocab);
        let mut members: Vec<Box<dyn CrowdMember>> = vec![
            Box::new(DbMember::new(MemberId(1), d1, Arc::clone(&vocab))),
            Box::new(DbMember::new(MemberId(2), d2, Arc::clone(&vocab))),
        ];
        let engine = Oassis::new(ontology);
        let query = engine
            .parse(
                "SELECT FACT-SETS WHERE \
                   $x instanceOf $w. $w subClassOf* Attraction. \
                   $y subClassOf* Activity. \
                   $z instanceOf Restaurant \
                 SATISFYING $y doAt $x. [] eatAt $z. MORE WITH SUPPORT = 0.4",
            )
            .unwrap();
        let cfg = EngineConfig {
            aggregator_sample: 2,
            more_domain: engine
                .discover_more_domain(&query, &mut members, &EngineConfig::default(), 500)
                .unwrap(),
            ..EngineConfig::default()
        };
        let result = engine
            .execute_parsed(&query, 0.4, &mut members, &cfg)
            .unwrap();
        // No answer's MORE fact may be comparable with one of its own
        // pattern facts (that would be a semantic duplicate).
        let v = engine.ontology().vocabulary();
        for a in &result.answers {
            for f in a.assignment.more_facts() {
                let inst_without_more: Vec<_> = a.factset.iter().filter(|g| *g != f).collect();
                for g in inst_without_more {
                    assert!(
                        !v.fact_leq(f, g) && !v.fact_leq(g, f),
                        "answer {} carries duplicate advice {}",
                        a.rendered,
                        v.fact_to_string(f)
                    );
                }
            }
        }
    }
}
