//! Crowd members: the question-answering interface and simulated members.
//!
//! The engine can only interact with a member through the two question types
//! of Section 2 (*concrete* and *specialization*) plus the UI's user-guided
//! pruning (Section 6.2). A member's personal DB is never read directly.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use oassis_vocab::{ElementId, FactSet, Vocabulary};

use oassis_obs::EventSink;

use crate::frequency::FrequencyScale;
use crate::transaction::{PersonalDb, SupportIndex};

/// Identifier of a crowd member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemberId(pub u32);

impl std::fmt::Display for MemberId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// The crowd-interaction interface.
///
/// Implementations must be *self-consistent*: repeated concrete questions
/// about the same fact-set should return the same support (honest members
/// are; [`SpammerMember`] deliberately is not).
///
/// Members are `Send` so the concurrent session runtime can hand them to
/// worker threads; every member is owned by exactly one thread at a time
/// (`Sync` is *not* required).
pub trait CrowdMember: Send {
    /// This member's id.
    fn id(&self) -> MemberId;

    /// Concrete question: "how often does fact-set `a` hold for you?".
    fn ask_concrete(&mut self, a: &FactSet) -> f64;

    /// Specialization question: "`base` holds for you — can you specify a
    /// more specific variant, and how often?". `candidates` are the
    /// specializations on offer (the UI's auto-completion suggestions);
    /// `None` means "none of these", which the engine interprets as support
    /// 0 for *all* candidates at once (Section 6.2).
    fn ask_specialization(
        &mut self,
        base: &FactSet,
        candidates: &[FactSet],
    ) -> Option<(usize, f64)>;

    /// User-guided pruning: which element values occurring in `a` are
    /// entirely irrelevant for this member (support 0 for any fact-set
    /// involving the value or a specialization of it)?
    fn irrelevant_elements(&mut self, a: &FactSet) -> Vec<ElementId>;

    /// Whether the member is willing to answer another question (members may
    /// leave at any point; Section 4.2).
    fn willing(&self) -> bool {
        true
    }

    /// Whether the member can answer a concrete question about `a` at all.
    ///
    /// Live members always can; *replay* members (Section 6.3's
    /// threshold-replay methodology) can only reproduce answers they gave in
    /// the original run, and the engine must not ask them anything else.
    fn can_answer(&self, _a: &FactSet) -> bool {
        true
    }

    /// The `MORE` prompt (Section 6.2's "more" button): "what else do you
    /// do when `base` holds?". The member may volunteer extra facts that
    /// co-occur with `base` in their history; empty = nothing to add.
    fn suggest_more(&mut self, _base: &FactSet) -> Vec<oassis_vocab::Fact> {
        Vec::new()
    }

    /// The simulated delivery model of the crowd channel: how long the
    /// session runtime should expect to wait for this member's next answer,
    /// or `None` if the answer never arrives (the runtime's per-question
    /// timeout fires instead). Real crowd answers come back with human-scale
    /// latency and non-response; simulated members default to instant,
    /// reliable delivery. Wrap any member in
    /// [`UnreliableMember`](crate::UnreliableMember) for a seeded
    /// latency/drop model.
    fn answer_delay(&mut self) -> Option<std::time::Duration> {
        Some(std::time::Duration::ZERO)
    }
}

/// A simulated honest member backed by a materialized [`PersonalDb`].
#[derive(Debug, Clone)]
pub struct DbMember {
    id: MemberId,
    db: PersonalDb,
    vocab: Arc<Vocabulary>,
    /// Snap answers to the five-level UI scale (Section 6.2) when true.
    discretize: bool,
    /// Max questions the member will answer (`None` = unlimited).
    quota: Option<usize>,
    answered: usize,
    /// Log of concrete answers, for consistency checking.
    log: Vec<(FactSet, f64)>,
    /// Uniform answer-noise amplitude (0 = exact).
    noise: f64,
    rng: SmallRng,
    /// Tid-list index answering support queries by intersection + popcount;
    /// `None` falls back to the transaction scan (benchmark baseline).
    index: Option<SupportIndex>,
}

impl DbMember {
    /// Create an honest member with exact (non-discretized) answers.
    /// Support queries go through a tid-list [`SupportIndex`] built here;
    /// see [`with_scan_counting`](Self::with_scan_counting) for the
    /// un-indexed baseline.
    pub fn new(id: MemberId, db: PersonalDb, vocab: Arc<Vocabulary>) -> Self {
        let index = Some(SupportIndex::build(&db, &vocab));
        DbMember {
            id,
            db,
            vocab,
            discretize: false,
            quota: None,
            answered: 0,
            log: Vec::new(),
            noise: 0.0,
            rng: SmallRng::seed_from_u64(id.0 as u64),
            index,
        }
    }

    /// Drop the tid-list index and count support by scanning transactions.
    /// Answers are identical; only wall-clock differs. The `scale` benchmark
    /// uses this as its baseline.
    pub fn with_scan_counting(mut self) -> Self {
        self.index = None;
        self
    }

    /// Rebuild the tid-list index with construction timed under the
    /// `crowd.tidlist.build` span on `sink`.
    pub fn with_tidlist_sink(mut self, sink: &Arc<dyn EventSink>) -> Self {
        self.index = Some(SupportIndex::build_with_sink(&self.db, &self.vocab, sink));
        self
    }

    /// Support of `a` in the member's DB, via the index when present.
    fn db_support(&self, a: &FactSet) -> f64 {
        match &self.index {
            Some(idx) => idx.support(a),
            None => self.db.support(a, &self.vocab),
        }
    }

    /// Snap answers to the five-level UI scale.
    pub fn with_discretization(mut self) -> Self {
        self.discretize = true;
        self
    }

    /// Limit the number of questions this member will answer.
    pub fn with_quota(mut self, quota: usize) -> Self {
        self.quota = Some(quota);
        self
    }

    /// Add uniform noise in `[-amp, +amp]` to answers (then clamp to `[0, 1]`).
    pub fn with_noise(mut self, amp: f64, seed: u64) -> Self {
        self.noise = amp;
        self.rng = SmallRng::seed_from_u64(seed);
        self
    }

    /// This member's concrete-answer log (question, reported support).
    pub fn answer_log(&self) -> &[(FactSet, f64)] {
        &self.log
    }

    /// The member's true support for `a` (test/diagnostic use; the engine
    /// must go through [`CrowdMember::ask_concrete`]).
    pub fn true_support(&self, a: &FactSet) -> f64 {
        self.db_support(a)
    }

    fn report(&mut self, s: f64) -> f64 {
        let mut s = s;
        if self.noise > 0.0 {
            s = (s + self.rng.random_range(-self.noise..=self.noise)).clamp(0.0, 1.0);
        }
        if self.discretize {
            s = FrequencyScale::from_support(s).support();
        }
        s
    }
}

impl CrowdMember for DbMember {
    fn id(&self) -> MemberId {
        self.id
    }

    fn ask_concrete(&mut self, a: &FactSet) -> f64 {
        self.answered += 1;
        let s = self.report(self.db_support(a));
        self.log.push((a.clone(), s));
        s
    }

    fn ask_specialization(
        &mut self,
        _base: &FactSet,
        candidates: &[FactSet],
    ) -> Option<(usize, f64)> {
        self.answered += 1;
        // The member names the candidate most frequent in their own history,
        // provided it occurred at all.
        let best = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| (i, self.db_support(c)))
            .filter(|(_, s)| *s > 0.0)
            .max_by(|a, b| a.1.total_cmp(&b.1));
        best.map(|(i, s)| (i, self.report(s)))
    }

    fn irrelevant_elements(&mut self, a: &FactSet) -> Vec<ElementId> {
        self.answered += 1;
        // An element is irrelevant if neither it nor any specialization of it
        // ever occurs in the member's history.
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for f in a.iter() {
            for e in [f.subject, f.object] {
                if !seen.insert(e) {
                    continue;
                }
                let relevant = self.db.iter().any(|t| {
                    t.facts.iter().any(|tf| {
                        self.vocab.elem_leq(e, tf.subject) || self.vocab.elem_leq(e, tf.object)
                    })
                });
                if !relevant {
                    out.push(e);
                }
            }
        }
        out
    }

    fn willing(&self) -> bool {
        self.quota.is_none_or(|q| self.answered < q)
    }

    fn suggest_more(&mut self, base: &FactSet) -> Vec<oassis_vocab::Fact> {
        self.answered += 1;
        // Volunteer the facts from transactions where `base` held that the
        // base does not already cover (Example 2.4's Boathouse tip).
        let mut out = Vec::new();
        for t in self.db.iter() {
            if !self.vocab.factset_leq(base, &t.facts) {
                continue;
            }
            for f in t.facts.iter() {
                if !self.vocab.fact_implied(f, base)
                    && !base.iter().any(|bf| self.vocab.fact_leq(bf, f))
                    && !out.contains(f)
                {
                    out.push(*f);
                }
            }
        }
        out
    }
}

/// A member with a fixed answer table — deterministic tests and the paper's
/// `u_avg` construction (Example 4.6).
#[derive(Debug, Clone)]
pub struct ScriptedMember {
    id: MemberId,
    answers: HashMap<FactSet, f64>,
    /// Answer for fact-sets not in the table.
    default: f64,
    /// Strict members refuse questions outside their table entirely
    /// (replay mode).
    strict: bool,
}

impl ScriptedMember {
    /// Create a scripted member.
    pub fn new(id: MemberId, answers: HashMap<FactSet, f64>, default: f64) -> Self {
        ScriptedMember {
            id,
            answers,
            default,
            strict: false,
        }
    }

    /// A replay member: answers only the fact-sets in its table
    /// ([`can_answer`](CrowdMember::can_answer) is false for the rest).
    pub fn new_strict(id: MemberId, answers: HashMap<FactSet, f64>) -> Self {
        ScriptedMember {
            id,
            answers,
            default: 0.0,
            strict: true,
        }
    }
}

impl CrowdMember for ScriptedMember {
    fn id(&self) -> MemberId {
        self.id
    }

    fn ask_concrete(&mut self, a: &FactSet) -> f64 {
        self.answers.get(a).copied().unwrap_or(self.default)
    }

    fn ask_specialization(
        &mut self,
        _base: &FactSet,
        candidates: &[FactSet],
    ) -> Option<(usize, f64)> {
        candidates
            .iter()
            .enumerate()
            .map(|(i, c)| (i, self.answers.get(c).copied().unwrap_or(self.default)))
            .filter(|(_, s)| *s > 0.0)
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    fn irrelevant_elements(&mut self, _a: &FactSet) -> Vec<ElementId> {
        Vec::new()
    }

    fn can_answer(&self, a: &FactSet) -> bool {
        !self.strict || self.answers.contains_key(a)
    }
}

/// A spammer: answers uniformly at random, ignoring the question.
///
/// Used by the quality-control tests: spammers violate support monotonicity
/// and are caught by [`quality::consistency_violations`](crate::quality).
#[derive(Debug, Clone)]
pub struct SpammerMember {
    id: MemberId,
    rng: SmallRng,
}

impl SpammerMember {
    /// Create a seeded spammer.
    pub fn new(id: MemberId, seed: u64) -> Self {
        SpammerMember {
            id,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl CrowdMember for SpammerMember {
    fn id(&self) -> MemberId {
        self.id
    }

    fn ask_concrete(&mut self, _a: &FactSet) -> f64 {
        FrequencyScale::ALL[self.rng.random_range(0..FrequencyScale::ALL.len())].support()
    }

    fn ask_specialization(
        &mut self,
        _base: &FactSet,
        candidates: &[FactSet],
    ) -> Option<(usize, f64)> {
        if candidates.is_empty() || self.rng.random_range(0..4) == 0 {
            None
        } else {
            let i = self.rng.random_range(0..candidates.len());
            Some((i, self.ask_concrete(&candidates[i])))
        }
    }

    fn irrelevant_elements(&mut self, _a: &FactSet) -> Vec<ElementId> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::table3_dbs;
    use oassis_store::ontology::figure1_ontology;
    use oassis_vocab::Fact;

    fn setup() -> (Arc<Vocabulary>, DbMember, DbMember) {
        let o = figure1_ontology();
        let vocab = Arc::new(o.vocabulary().clone());
        let (d1, d2) = table3_dbs(&vocab);
        let m1 = DbMember::new(MemberId(1), d1, Arc::clone(&vocab));
        let m2 = DbMember::new(MemberId(2), d2, Arc::clone(&vocab));
        (vocab, m1, m2)
    }

    fn fs(vocab: &Vocabulary, facts: &[(&str, &str, &str)]) -> FactSet {
        FactSet::from_facts(facts.iter().map(|(s, r, o)| {
            Fact::new(
                vocab.element(s).unwrap(),
                vocab.relation(r).unwrap(),
                vocab.element(o).unwrap(),
            )
        }))
    }

    #[test]
    fn concrete_answers_match_true_support() {
        let (vocab, mut m1, mut m2) = setup();
        let a = fs(
            &vocab,
            &[
                ("Biking", "doAt", "Central Park"),
                ("Falafel", "eatAt", "Maoz Veg."),
            ],
        );
        assert!((m1.ask_concrete(&a) - 1.0 / 3.0).abs() < 1e-12);
        assert!((m2.ask_concrete(&a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn discretized_answers_snap_to_scale() {
        let (vocab, m1, _) = setup();
        let mut m1 = m1.with_discretization();
        let a = fs(&vocab, &[("Biking", "doAt", "Central Park")]);
        let ans = m1.ask_concrete(&a);
        assert!(FrequencyScale::ALL.iter().any(|l| l.support() == ans));
    }

    #[test]
    fn specialization_picks_the_most_frequent_candidate() {
        let (vocab, mut m1, _) = setup();
        let base = fs(&vocab, &[("Sport", "doAt", "Central Park")]);
        let biking = fs(&vocab, &[("Biking", "doAt", "Central Park")]);
        let ball = fs(&vocab, &[("Ball Game", "doAt", "Central Park")]);
        let swim = fs(&vocab, &[("Swimming", "doAt", "Central Park")]);
        let cands = vec![swim.clone(), ball, biking];
        // u1: biking 2/6, ball game 2/6, swimming 0 — a max is returned and
        // it is never the zero-support swimming.
        let (idx, s) = m1.ask_specialization(&base, &cands).unwrap();
        assert_ne!(idx, 0);
        assert!((s - 1.0 / 3.0).abs() < 1e-12);
        // No candidate occurs → "none of these".
        assert!(m1.ask_specialization(&base, &[swim]).is_none());
        assert!(m1.ask_specialization(&base, &[]).is_none());
    }

    #[test]
    fn irrelevant_elements_are_those_never_occurring() {
        let (vocab, mut m1, _) = setup();
        // u1 never swims and never visits Madison Square.
        let a = fs(
            &vocab,
            &[
                ("Swimming", "doAt", "Madison Square"),
                ("Biking", "doAt", "Central Park"),
            ],
        );
        let irr = m1.irrelevant_elements(&a);
        let swimming = vocab.element("Swimming").unwrap();
        let madison = vocab.element("Madison Square").unwrap();
        let biking = vocab.element("Biking").unwrap();
        assert!(irr.contains(&swimming));
        assert!(irr.contains(&madison));
        assert!(!irr.contains(&biking));
    }

    #[test]
    fn general_elements_are_not_irrelevant() {
        let (vocab, mut m1, _) = setup();
        // `Sport` specializes to Biking which u1 does, so Sport is relevant.
        let a = fs(&vocab, &[("Sport", "doAt", "Central Park")]);
        let sport = vocab.element("Sport").unwrap();
        assert!(!m1.irrelevant_elements(&a).contains(&sport));
    }

    #[test]
    fn quota_limits_willingness() {
        let (vocab, m1, _) = setup();
        let mut m1 = m1.with_quota(2);
        let a = fs(&vocab, &[("Biking", "doAt", "Central Park")]);
        assert!(m1.willing());
        m1.ask_concrete(&a);
        assert!(m1.willing());
        m1.ask_concrete(&a);
        assert!(!m1.willing());
    }

    #[test]
    fn noise_stays_in_range_and_is_deterministic() {
        let (vocab, _, _) = setup();
        let o = figure1_ontology();
        let (d1, _) = table3_dbs(&vocab);
        let mk = || {
            DbMember::new(MemberId(9), d1.clone(), Arc::new(o.vocabulary().clone()))
                .with_noise(0.2, 42)
        };
        let a = fs(&vocab, &[("Biking", "doAt", "Central Park")]);
        let x = mk().ask_concrete(&a);
        let y = mk().ask_concrete(&a);
        assert_eq!(x, y, "same seed, same answer");
        assert!((0.0..=1.0).contains(&x));
    }

    #[test]
    fn scripted_member_uses_table_then_default() {
        let (vocab, _, _) = setup();
        let a = fs(&vocab, &[("Biking", "doAt", "Central Park")]);
        let mut table = HashMap::new();
        table.insert(a.clone(), 0.75);
        let mut m = ScriptedMember::new(MemberId(3), table, 0.1);
        assert_eq!(m.ask_concrete(&a), 0.75);
        let b = fs(&vocab, &[("Swimming", "doAt", "Central Park")]);
        assert_eq!(m.ask_concrete(&b), 0.1);
    }

    #[test]
    fn spammer_answers_are_on_scale_and_inconsistent_eventually() {
        let (vocab, _, _) = setup();
        let a = fs(&vocab, &[("Biking", "doAt", "Central Park")]);
        let mut m = SpammerMember::new(MemberId(4), 7);
        let answers: Vec<f64> = (0..20).map(|_| m.ask_concrete(&a)).collect();
        assert!(answers
            .iter()
            .all(|s| FrequencyScale::ALL.iter().any(|l| l.support() == *s)));
        assert!(
            answers.windows(2).any(|w| w[0] != w[1]),
            "a spammer varies answers to the same question"
        );
    }

    #[test]
    fn indexed_and_scan_members_answer_identically() {
        let (vocab, _, _) = setup();
        let (d1, _) = table3_dbs(&vocab);
        let queries = [
            fs(&vocab, &[]),
            fs(&vocab, &[("Biking", "doAt", "Central Park")]),
            fs(&vocab, &[("Sport", "doAt", "Central Park")]),
            fs(
                &vocab,
                &[
                    ("Biking", "doAt", "Central Park"),
                    ("Falafel", "eatAt", "Maoz Veg."),
                ],
            ),
            fs(&vocab, &[("Swimming", "doAt", "Madison Square")]),
        ];
        let mut indexed = DbMember::new(MemberId(1), d1.clone(), Arc::clone(&vocab));
        let mut scan = DbMember::new(MemberId(1), d1, Arc::clone(&vocab)).with_scan_counting();
        for q in &queries {
            let a = indexed.ask_concrete(q);
            let b = scan.ask_concrete(q);
            assert_eq!(a, b, "support diverged for {}", vocab.factset_to_string(q));
        }
    }

    #[test]
    fn answer_log_records_concrete_questions() {
        let (vocab, mut m1, _) = setup();
        let a = fs(&vocab, &[("Biking", "doAt", "Central Park")]);
        m1.ask_concrete(&a);
        assert_eq!(m1.answer_log().len(), 1);
        assert_eq!(m1.answer_log()[0].0, a);
    }
}
