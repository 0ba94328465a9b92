//! The CrowdCache (Section 6.1, 6.3): per-fact-set answer storage.
//!
//! Answers are independent of the support threshold, so a query executed at
//! threshold 0.2 can be *replayed* at higher thresholds without asking the
//! crowd again — the methodology behind Figures 4a–4c. The cache records,
//! for every fact-set ever asked about, which member answered what, and
//! counts both unique questions (crowd complexity, Section 4.1) and total
//! questions (overall user effort, Section 6.3).
//!
//! The cross-query [`AnswerStore`](crate::AnswerStore) wraps one cache and
//! also parks *unpaid* answers in it: a member's answers to a speculative
//! prefetch that no session has committed yet. An unpaid answer is seen
//! only by the store's prefetch calls; every read below sees the paid
//! answers alone, and a paid answer for the same `(fact-set, member)`
//! replaces it. A session's own cache never holds one.

use std::collections::HashMap;
use std::sync::Arc;

use oassis_obs::{names, null_sink, EventSink, SinkExt};
use oassis_vocab::FactSet;

use crate::member::MemberId;

/// The answers to one fact-set: `list[..paid]` in the order they were
/// paid for, then the unpaid ones (see the module docs). A paid answer
/// never moves: a new one is inserted at `paid`, which shifts only unpaid
/// ones, so [`CrowdCache`] can index paid answers by position.
#[derive(Debug, Clone, Default)]
struct Answers {
    list: Vec<(MemberId, f64)>,
    paid: usize,
}

impl Answers {
    fn paid(&self) -> &[(MemberId, f64)] {
        &self.list[..self.paid]
    }

    /// Where `member`'s unpaid answer sits in `list`, by a scan of the
    /// unpaid tail (prefetches not committed yet: short).
    fn unpaid_position(&self, member: MemberId) -> Option<usize> {
        self.list[self.paid..]
            .iter()
            .position(|(m, _)| *m == member)
            .map(|i| self.paid + i)
    }
}

/// What [`CrowdCache::pay`] did with an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Paid {
    /// The member's paid answer already had this support.
    Unchanged,
    /// The member's paid answer was overwritten with a new support.
    Changed,
    /// The member had no paid answer for the fact-set in slot `.0`.
    New(u32),
}

/// Answer storage for one query execution.
///
/// Each fact-set gets a *slot* the first time it is stored: its position
/// in first-stored order, fixed for the cache's lifetime. The key is
/// cloned once, then, and shared by the index and the slot. Every paid
/// answer is also indexed by `(slot, member)`, so probing or overwriting
/// one member's answer costs O(1), not the fact-set's answer count: in the
/// cross-query store a popular fact-set collects answers from every
/// session's crowd.
#[derive(Debug, Clone)]
pub struct CrowdCache {
    index: HashMap<Arc<FactSet>, u32>,
    slots: Vec<(Arc<FactSet>, Answers)>,
    /// Position of every paid answer in its slot's list.
    paid_at: HashMap<(u32, MemberId), u32>,
    total_questions: usize,
    sink: Arc<dyn EventSink>,
}

impl Default for CrowdCache {
    fn default() -> Self {
        CrowdCache {
            index: HashMap::new(),
            slots: Vec::new(),
            paid_at: HashMap::new(),
            total_questions: 0,
            sink: null_sink(),
        }
    }
}

impl CrowdCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Report [`cached_answer`](Self::cached_answer) hits and misses
    /// (`crowd.cache.hit` / `crowd.cache.miss`) to `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Record `member`'s answer for `fs`. Counts one question; a repeat
    /// answer by the same member overwrites (members are assumed
    /// self-consistent; spam detection happens elsewhere).
    pub fn record(&mut self, fs: &FactSet, member: MemberId, support: f64) {
        self.total_questions += 1;
        self.seed(fs, member, support);
    }

    /// Record `member`'s answer for `fs` **without** counting a question:
    /// the answer was carried over from a previous query (the cross-query
    /// [`AnswerStore`](crate::AnswerStore)), so no user effort was spent in
    /// this run. Ordering matters — seeded answers keep their original
    /// per-fact-set insertion order, which is what makes re-running the
    /// aggregator over them reproduce the earlier run's decisions.
    ///
    /// Returns whether the answer is new or changed. A new answer, or one
    /// replacing an unpaid answer, joins the fact-set's answers last; a
    /// repeat by the same member overwrites in place.
    pub fn seed(&mut self, fs: &FactSet, member: MemberId, support: f64) -> bool {
        self.pay(fs, member, support) != Paid::Unchanged
    }

    /// [`seed`](Self::seed), reporting whether the member's paid answer is
    /// new (and in which slot), changed or unchanged.
    pub(crate) fn pay(&mut self, fs: &FactSet, member: MemberId, support: f64) -> Paid {
        let slot = self.slot_or_insert(fs);
        let answers = &mut self.slots[slot as usize].1;
        if let Some(&i) = self.paid_at.get(&(slot, member)) {
            let stored = &mut answers.list[i as usize].1;
            let changed = stored.to_bits() != support.to_bits();
            *stored = support;
            return if changed {
                Paid::Changed
            } else {
                Paid::Unchanged
            };
        }
        if let Some(i) = answers.unpaid_position(member) {
            answers.list.remove(i);
        }
        answers.list.insert(answers.paid, (member, support));
        let position = u32::try_from(answers.paid).expect("answer positions overflow");
        self.paid_at.insert((slot, member), position);
        answers.paid += 1;
        Paid::New(slot)
    }

    /// The slot of `fs`, created (the only key clone) when it is new.
    fn slot_or_insert(&mut self, fs: &FactSet) -> u32 {
        if let Some(&slot) = self.index.get(fs) {
            return slot;
        }
        let slot = u32::try_from(self.slots.len()).expect("fact-set slots overflow");
        let key = Arc::new(fs.clone());
        self.index.insert(Arc::clone(&key), slot);
        self.slots.push((key, Answers::default()));
        slot
    }

    fn get(&self, fs: &FactSet) -> Option<&Answers> {
        self.index.get(fs).map(|&slot| &self.slots[slot as usize].1)
    }

    /// `member`'s paid answer in `slot`, through the position index.
    fn paid_in(&self, slot: u32, member: MemberId) -> Option<f64> {
        let &i = self.paid_at.get(&(slot, member))?;
        Some(self.slots[slot as usize].1.list[i as usize].1)
    }

    /// Whether `member` holds an answer in `slot`, paid or unpaid.
    fn holds_in(&self, slot: u32, member: MemberId) -> bool {
        self.paid_at.contains_key(&(slot, member))
            || self.slots[slot as usize]
                .1
                .unpaid_position(member)
                .is_some()
    }

    /// Park `member`'s answer for `fs` as unpaid, unless the cache already
    /// holds an answer of theirs for it.
    pub(crate) fn hold_unpaid(&mut self, fs: &FactSet, member: MemberId, support: f64) {
        let slot = self.slot_or_insert(fs);
        if !self.holds_in(slot, member) {
            self.slots[slot as usize].1.list.push((member, support));
        }
    }

    /// `member`'s unpaid answer for `fs`, if that is what the cache holds.
    pub(crate) fn unpaid(&self, fs: &FactSet, member: MemberId) -> Option<f64> {
        let answers = self.get(fs)?;
        answers.unpaid_position(member).map(|i| answers.list[i].1)
    }

    /// Whether the cache holds an answer by `member` for `fs`, paid or
    /// unpaid.
    pub(crate) fn holds(&self, fs: &FactSet, member: MemberId) -> bool {
        self.index
            .get(fs)
            .is_some_and(|&slot| self.holds_in(slot, member))
    }

    /// The fact-set in `slot` and its paid answers.
    pub(crate) fn slot(&self, slot: u32) -> (&FactSet, &[(MemberId, f64)]) {
        let (fs, answers) = &self.slots[slot as usize];
        (fs, answers.paid())
    }

    /// All answers recorded for `fs`.
    pub fn answers(&self, fs: &FactSet) -> &[(MemberId, f64)] {
        self.get(fs).map_or(&[], Answers::paid)
    }

    /// Just the support values for `fs` (aggregator input).
    pub fn supports(&self, fs: &FactSet) -> Vec<f64> {
        self.answers(fs).iter().map(|&(_, s)| s).collect()
    }

    /// Whether `member` already answered about `fs`.
    pub fn has_answer_from(&self, fs: &FactSet, member: MemberId) -> bool {
        self.answer(fs, member).is_some()
    }

    /// `member`'s recorded answer for `fs`, if any, counting nothing.
    pub(crate) fn answer(&self, fs: &FactSet, member: MemberId) -> Option<f64> {
        self.paid_in(*self.index.get(fs)?, member)
    }

    /// `member`'s recorded answer for `fs`, if any. Unlike the passive
    /// [`has_answer_from`](Self::has_answer_from) probe used for
    /// scheduling, this is the *answer-reuse* lookup: it counts a
    /// `crowd.cache.hit` when the stored answer spares a crowd question and
    /// a `crowd.cache.miss` when the crowd must be asked.
    pub fn cached_answer(&self, fs: &FactSet, member: MemberId) -> Option<f64> {
        let found = self.answer(fs, member);
        match found {
            Some(_) => self.sink.count(names::CROWD_CACHE_HIT, 1),
            None => self.sink.count(names::CROWD_CACHE_MISS, 1),
        }
        found
    }

    /// Number of distinct fact-sets asked about (crowd complexity).
    pub fn unique_questions(&self) -> usize {
        self.iter().count()
    }

    /// Total questions asked, including repetitions across members.
    pub fn total_questions(&self) -> usize {
        self.total_questions
    }

    /// Iterate `(fact-set, answers)` pairs in the order the fact-sets were
    /// first stored.
    pub fn iter(&self) -> impl Iterator<Item = (&FactSet, &[(MemberId, f64)])> {
        self.slots
            .iter()
            .map(|(k, v)| (&**k, v.paid()))
            .filter(|(_, v)| !v.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_vocab::{ElementId, Fact, RelationId};

    fn fs(n: u32) -> FactSet {
        FactSet::from_facts([Fact::new(ElementId(n), RelationId(0), ElementId(0))])
    }

    #[test]
    fn record_and_read_back() {
        let mut c = CrowdCache::new();
        c.record(&fs(1), MemberId(1), 0.5);
        c.record(&fs(1), MemberId(2), 0.25);
        assert_eq!(c.supports(&fs(1)), [0.5, 0.25]);
        assert_eq!(c.answers(&fs(2)), []);
        assert_eq!(c.unique_questions(), 1);
        assert_eq!(c.total_questions(), 2);
    }

    #[test]
    fn same_member_overwrites_but_still_counts_effort() {
        let mut c = CrowdCache::new();
        c.record(&fs(1), MemberId(1), 0.5);
        c.record(&fs(1), MemberId(1), 0.75);
        assert_eq!(c.supports(&fs(1)), [0.75]);
        assert_eq!(c.total_questions(), 2, "effort counts repetitions");
        assert_eq!(c.unique_questions(), 1);
    }

    #[test]
    fn has_answer_from() {
        let mut c = CrowdCache::new();
        c.record(&fs(1), MemberId(1), 0.5);
        assert!(c.has_answer_from(&fs(1), MemberId(1)));
        assert!(!c.has_answer_from(&fs(1), MemberId(2)));
        assert!(!c.has_answer_from(&fs(2), MemberId(1)));
    }

    #[test]
    fn seed_reports_new_or_changed_answers() {
        let mut c = CrowdCache::new();
        assert!(c.seed(&fs(1), MemberId(1), 0.5), "new");
        assert!(!c.seed(&fs(1), MemberId(1), 0.5), "unchanged");
        assert!(c.seed(&fs(1), MemberId(1), 0.75), "changed");
        assert_eq!(c.total_questions(), 0, "seeding spends no effort");
    }

    #[test]
    fn unpaid_answers_stay_hidden_until_paid_then_join_last() {
        let mut c = CrowdCache::new();
        c.hold_unpaid(&fs(1), MemberId(2), 0.2);
        c.seed(&fs(1), MemberId(1), 0.1);
        c.hold_unpaid(&fs(2), MemberId(2), 0.9);
        assert_eq!(c.answers(&fs(1)), [(MemberId(1), 0.1)]);
        assert!(!c.has_answer_from(&fs(1), MemberId(2)));
        assert!(c.holds(&fs(1), MemberId(2)));
        assert_eq!(c.unpaid(&fs(1), MemberId(2)), Some(0.2));
        assert_eq!(
            c.unique_questions(),
            1,
            "unpaid-only fact-sets are not listed"
        );

        c.hold_unpaid(&fs(1), MemberId(1), 0.9); // already paid: ignored
        assert_eq!(c.answers(&fs(1)), [(MemberId(1), 0.1)]);
        assert_eq!(c.unpaid(&fs(1), MemberId(1)), None);

        c.seed(&fs(1), MemberId(3), 0.3);
        assert!(c.seed(&fs(1), MemberId(2), 0.2), "paying is a new answer");
        assert_eq!(
            c.answers(&fs(1)),
            [(MemberId(1), 0.1), (MemberId(3), 0.3), (MemberId(2), 0.2)],
            "paid order, not arrival order"
        );
        assert_eq!(c.unpaid(&fs(1), MemberId(2)), None);
    }

    #[test]
    fn iter_visits_everything() {
        let mut c = CrowdCache::new();
        c.record(&fs(1), MemberId(1), 0.5);
        c.record(&fs(2), MemberId(1), 0.1);
        assert_eq!(c.iter().count(), 2);
    }
}
