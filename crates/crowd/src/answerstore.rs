//! The cross-query answer store (the service-layer extension of §6 of the
//! paper's answer-reuse methodology).
//!
//! A session's [`CrowdCache`] lives for one query execution; the
//! [`AnswerStore`] wraps one that outlives queries. Every committed
//! concrete answer a member gives through the service is stored here as a
//! `(fact-set, member) → support` answer, and two reuse paths read it back:
//!
//! * **serve** — when a session is about to dispatch a concrete question
//!   the service first consults the store ([`lookup`](AnswerStore::lookup))
//!   and, on a hit, feeds the stored answer straight back without touching
//!   the crowd;
//! * **seed** — a newly admitted session receives a roster-filtered
//!   snapshot ([`seed_for`](AnswerStore::seed_for)) replayed into its
//!   `CrowdCache`, so questions the crowd already answered in earlier
//!   queries are never staged at all. A per-member index of fact-set
//!   slots makes the snapshot cost the roster's answers, not the store's.
//!
//! The store also holds the answers to the service's speculative
//! prefetches (question waves) as *unpaid* answers
//! ([`record_prefetch`](AnswerStore::record_prefetch)). An unpaid answer is
//! never served, seeded or logged. It becomes a paid answer, attributed to
//! the session, only when that session commits it as a wave hit
//! ([`commit_prefetch`](AnswerStore::commit_prefetch)); a paid answer for
//! the same `(fact-set, member)` replaces it.
//!
//! Answers are threshold-independent (the same property that powers the
//! §6.3 replay methodology), so reuse across queries with different
//! `WITH SUPPORT` clauses is sound. Per-fact-set answer order is the order
//! the answers were paid for — re-running a fixed-sample aggregator over a
//! seeded prefix reproduces the original run's decisions deterministically.
//!
//! When a [`SharedPersistence`] is attached
//! ([`with_persistence`](AnswerStore::with_persistence)), every *new or
//! changed* paid answer is appended to the durable log as a
//! `WalRecord::Answer` — an unchanged re-record appends nothing, so the
//! log stays proportional to real crowd work.
//! Those records are the store's only encoding
//! ([`to_records`](AnswerStore::to_records) /
//! [`replay_records`](AnswerStore::replay_records)); a store rebuilt from
//! them exposes its [`cache`](AnswerStore::cache) to feed a §6.3 replay.
//!
//! The store has one owner, the service thread, and no lock of its own:
//! every write takes `&mut self`.

use std::collections::HashMap;
use std::sync::Arc;

use oassis_obs::{names, null_sink, EventSink, SinkExt};
use oassis_store_durable::{SharedPersistence, WalRecord};
use oassis_vocab::FactSet;

use crate::cache::{CrowdCache, Paid};
use crate::member::MemberId;

/// A persistent member×question answer log shared across query sessions.
pub struct AnswerStore {
    /// Per fact-set, the paid answers in the order they were paid for
    /// (a member re-answering overwrites in place), then the unpaid ones.
    cache: CrowdCache,
    /// Per member, the cache slots of the fact-sets they hold a paid
    /// answer for, in the order each was first paid. Unpaid answers are
    /// never listed. Lets [`seed_for`](Self::seed_for) read only the
    /// roster's answers.
    by_member: HashMap<MemberId, Vec<u32>>,
    sink: Arc<dyn EventSink>,
    /// Durable log receiving one `Answer` record per new/changed answer.
    persistence: Option<SharedPersistence>,
}

impl std::fmt::Debug for AnswerStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnswerStore")
            .field("fact_sets", &self.len())
            .field("durable", &self.persistence.is_some())
            .finish()
    }
}

impl Default for AnswerStore {
    fn default() -> Self {
        AnswerStore {
            cache: CrowdCache::new(),
            by_member: HashMap::new(),
            sink: null_sink(),
            persistence: None,
        }
    }
}

impl AnswerStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Report `answerstore.hit` / `answerstore.miss` lookups to `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Append every future new/changed answer to `persistence`. Answers
    /// already in the store are *not* retro-logged — attach before
    /// recording, or rebuild via [`replay_records`](Self::replay_records)
    /// first and attach afterwards.
    pub fn with_persistence(mut self, persistence: SharedPersistence) -> Self {
        self.persistence = Some(persistence);
        self
    }

    /// Store `member`'s answer for `fs` (a repeat answer by the same member
    /// overwrites; members are assumed self-consistent).
    pub fn record(&mut self, fs: &FactSet, member: MemberId, support: f64) {
        self.record_tagged(fs, member, support, None);
    }

    /// [`record`](Self::record), durably attributed to the service session
    /// that paid for the answer (`None` = unattributed). Only a *new or
    /// changed* answer reaches the log.
    pub fn record_tagged(
        &mut self,
        fs: &FactSet,
        member: MemberId,
        support: f64,
        session: Option<u64>,
    ) {
        if !self.pay(fs, member, support) {
            return;
        }
        if let Some(p) = &self.persistence {
            p.lock()
                .expect("persistence poisoned")
                .append(&WalRecord::Answer {
                    session,
                    member: member.0,
                    support,
                    factset: fs.clone(),
                })
                .expect("wal append failed");
        }
    }

    /// Store `member`'s paid answer for `fs`, keeping the member index.
    /// Returns whether the answer is new or changed.
    fn pay(&mut self, fs: &FactSet, member: MemberId, support: f64) -> bool {
        match self.cache.pay(fs, member, support) {
            Paid::Unchanged => false,
            Paid::Changed => true,
            Paid::New(slot) => {
                self.by_member.entry(member).or_default().push(slot);
                true
            }
        }
    }

    /// Hold `member`'s answer to a speculative prefetch of `fs` as unpaid,
    /// unless the store already holds an answer of theirs for it.
    pub fn record_prefetch(&mut self, fs: &FactSet, member: MemberId, support: f64) {
        self.cache.hold_unpaid(fs, member, support);
    }

    /// Commit `member`'s unpaid answer for `fs` as a wave hit: it becomes
    /// a paid answer attributed to `session` (and is logged). Returns the
    /// support, or `None` when the store holds no unpaid answer for the
    /// pair.
    pub fn commit_prefetch(
        &mut self,
        fs: &FactSet,
        member: MemberId,
        session: Option<u64>,
    ) -> Option<f64> {
        let support = self.cache.unpaid(fs, member)?;
        self.record_tagged(fs, member, support, session);
        Some(support)
    }

    /// Whether the store holds an answer by `member` for `fs`, paid or
    /// unpaid — prefetching it again could never be a wave hit.
    pub fn holds(&self, fs: &FactSet, member: MemberId) -> bool {
        self.cache.holds(fs, member)
    }

    /// Serialize the paid answers as `WalRecord::Answer`s in canonical
    /// order: fact-sets sorted by their text encoding, answers within a
    /// fact-set in the order they were paid for. Replaying them into an
    /// empty store ([`replay_records`](Self::replay_records)) reproduces
    /// the exact state — including the per-fact-set order the
    /// seeded-aggregator determinism depends on.
    pub fn to_records(&self) -> Vec<WalRecord> {
        let mut by_text: Vec<_> = self.cache.iter().collect();
        by_text.sort_by_cached_key(|(fs, _)| {
            fs.iter()
                .map(|f| format!("{},{},{}", f.subject.0, f.relation.0, f.object.0))
                .collect::<Vec<_>>()
                .join(";")
        });
        by_text
            .into_iter()
            .flat_map(|(fs, entries)| {
                entries.iter().map(move |&(m, s)| WalRecord::Answer {
                    session: None,
                    member: m.0,
                    support: s,
                    factset: fs.clone(),
                })
            })
            .collect()
    }

    /// Replay `Answer` records (from a log or snapshot) into this store
    /// in order, without re-appending them to any attached persistence.
    /// Non-`Answer` records are ignored (the service replays those).
    pub fn replay_records<'a>(&mut self, records: impl IntoIterator<Item = &'a WalRecord>) {
        for rec in records {
            if let WalRecord::Answer {
                member,
                support,
                factset,
                ..
            } = rec
            {
                self.pay(factset, MemberId(*member), *support);
            }
        }
    }

    /// `member`'s stored (paid) answer for `fs`, if any. This is the
    /// dispatch-time reuse probe: a hit spares one crowd question (counted
    /// as `answerstore.hit[serve]`), a miss means the crowd must be asked.
    pub fn lookup(&self, fs: &FactSet, member: MemberId) -> Option<f64> {
        let found = self.cache.answer(fs, member);
        match found {
            Some(_) => self.sink.count_labeled(names::ANSWERSTORE_HIT, "serve", 1),
            None => self.sink.count(names::ANSWERSTORE_MISS, 1),
        }
        found
    }

    /// Snapshot every stored (paid) answer given by one of `members`:
    /// fact-sets in the order they were first stored, each fact-set's
    /// answers in the order they were paid for. The triples are replayed
    /// into a new session's `CrowdCache` at admission (see
    /// `CrowdCache::seed`). Costs the roster's answers, not the store's.
    pub fn seed_for(&self, members: &[MemberId]) -> Vec<(FactSet, MemberId, f64)> {
        let mut slots: Vec<u32> = members
            .iter()
            .filter_map(|m| self.by_member.get(m))
            .flatten()
            .copied()
            .collect();
        if slots.is_empty() {
            return Vec::new();
        }
        slots.sort_unstable();
        slots.dedup();
        let mut roster = members.to_vec();
        roster.sort_unstable();
        let mut out = Vec::new();
        for slot in slots {
            let (fs, entries) = self.cache.slot(slot);
            for &(m, s) in entries {
                if roster.binary_search(&m).is_ok() {
                    out.push((fs.clone(), m, s));
                }
            }
        }
        out
    }

    /// The paid answers as a [`CrowdCache`] — e.g. to re-run a query at
    /// another threshold from a recovered store (`Oassis::replay`, §6.3).
    pub fn cache(&self) -> &CrowdCache {
        &self.cache
    }

    /// Number of distinct fact-sets with at least one stored answer.
    pub fn len(&self) -> usize {
        self.cache.unique_questions()
    }

    /// Whether the store holds no answers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total `(fact-set, member)` answers stored.
    pub fn answer_count(&self) -> usize {
        self.cache.iter().map(|(_, entries)| entries.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_store_durable::{shared, InMemory, Persistence};
    use oassis_vocab::{ElementId, Fact, RelationId};

    fn fs(n: u32) -> FactSet {
        FactSet::from_facts([Fact::new(ElementId(n), RelationId(0), ElementId(0))])
    }

    fn logged() -> (AnswerStore, Arc<std::sync::Mutex<InMemory>>) {
        let mem = Arc::new(std::sync::Mutex::new(InMemory::new()));
        let store = AnswerStore::new().with_persistence(mem.clone() as SharedPersistence);
        (store, mem)
    }

    #[test]
    fn record_lookup_roundtrip() {
        let mut store = AnswerStore::new();
        assert!(store.is_empty());
        store.record(&fs(1), MemberId(1), 0.5);
        store.record(&fs(1), MemberId(2), 0.25);
        assert_eq!(store.lookup(&fs(1), MemberId(1)), Some(0.5));
        assert_eq!(store.lookup(&fs(1), MemberId(3)), None);
        assert_eq!(store.lookup(&fs(2), MemberId(1)), None);
        assert_eq!(store.len(), 1);
        assert_eq!(store.answer_count(), 2);
    }

    #[test]
    fn same_member_overwrites() {
        let mut store = AnswerStore::new();
        store.record(&fs(1), MemberId(1), 0.5);
        store.record(&fs(1), MemberId(1), 0.75);
        assert_eq!(store.lookup(&fs(1), MemberId(1)), Some(0.75));
        assert_eq!(store.answer_count(), 1);
    }

    #[test]
    fn seed_for_filters_by_roster_and_keeps_order() {
        let mut store = AnswerStore::new();
        store.record(&fs(1), MemberId(1), 0.1);
        store.record(&fs(1), MemberId(2), 0.2);
        store.record(&fs(1), MemberId(3), 0.3);
        let seeded = store.seed_for(&[MemberId(1), MemberId(3)]);
        let for_fs1: Vec<_> = seeded.iter().map(|(_, m, s)| (*m, *s)).collect();
        assert_eq!(
            for_fs1,
            vec![(MemberId(1), 0.1), (MemberId(3), 0.3)],
            "roster-filtered, insertion order preserved"
        );
    }

    #[test]
    fn log_replay_roundtrip_is_stable() {
        let mut store = AnswerStore::new();
        // Insertion order deliberately differs from member-id order so the
        // roundtrip must preserve *order*, not just content.
        store.record(&fs(2), MemberId(3), 0.3);
        store.record(&fs(2), MemberId(1), 0.1);
        store.record(&fs(1), MemberId(2), 1.0 / 3.0);
        store.record(&fs(2), MemberId(3), 0.9); // duplicate pair, overwrites
        let records = store.to_records();
        assert_eq!(records.len(), store.answer_count());

        let mut replayed = AnswerStore::new();
        replayed.replay_records(&records);
        assert_eq!(
            replayed.to_records(),
            records,
            "records are a fixed point of replay"
        );
        for n in [1, 2] {
            assert_eq!(
                replayed.cache().answers(&fs(n)),
                store.cache().answers(&fs(n)),
                "per-fact-set insertion order survives the log roundtrip"
            );
        }
        assert_eq!(replayed.lookup(&fs(2), MemberId(3)), Some(0.9));
    }

    #[test]
    fn persistence_logs_only_new_or_changed_answers() {
        let (mut store, mem) = logged();
        store.record(&fs(1), MemberId(1), 0.5);
        store.record(&fs(1), MemberId(1), 0.5); // unchanged: no append
        store.record(&fs(1), MemberId(1), 0.75); // changed: appends
        store.record_tagged(&fs(2), MemberId(2), 0.25, Some(7));
        assert_eq!(mem.lock().unwrap().history_len(), 3);
        let tagged = mem
            .lock()
            .unwrap()
            .history()
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    WalRecord::Answer {
                        session: Some(7),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(tagged, 1);

        // Replaying the log reproduces the store; replay does not re-log.
        let records = mem.lock().unwrap().replay().unwrap();
        let mut recovered = AnswerStore::new();
        recovered.replay_records(&records);
        let recovered = recovered.with_persistence(shared(InMemory::new()));
        assert_eq!(recovered.lookup(&fs(1), MemberId(1)), Some(0.75));
        assert_eq!(recovered.lookup(&fs(2), MemberId(2)), Some(0.25));
    }

    /// An unpaid prefetch answer is held but never served, seeded, listed
    /// or logged.
    #[test]
    fn unpaid_prefetches_are_held_but_invisible() {
        let (mut store, mem) = logged();
        store.record_prefetch(&fs(1), MemberId(1), 0.5);
        assert!(store.holds(&fs(1), MemberId(1)));
        assert!(!store.holds(&fs(1), MemberId(2)));
        assert_eq!(store.lookup(&fs(1), MemberId(1)), None);
        assert!(store.seed_for(&[MemberId(1)]).is_empty());
        assert!(store.to_records().is_empty());
        assert!(store.is_empty());
        assert_eq!(mem.lock().unwrap().history_len(), 0);
    }

    /// Committing a prefetch logs it once, tagged with the paying session,
    /// and it joins the fact-set's paid answers last.
    #[test]
    fn committed_prefetch_becomes_a_tagged_paid_answer() {
        let (mut store, mem) = logged();
        store.record_prefetch(&fs(1), MemberId(2), 0.2);
        store.record_tagged(&fs(1), MemberId(1), 0.1, Some(4));
        assert_eq!(store.commit_prefetch(&fs(1), MemberId(3), Some(5)), None);
        assert_eq!(
            store.commit_prefetch(&fs(1), MemberId(2), Some(5)),
            Some(0.2)
        );
        assert_eq!(
            store.commit_prefetch(&fs(1), MemberId(2), Some(6)),
            None,
            "a committed prefetch is paid, not unpaid"
        );
        assert_eq!(store.lookup(&fs(1), MemberId(2)), Some(0.2));
        assert_eq!(
            store.cache().answers(&fs(1)),
            [(MemberId(1), 0.1), (MemberId(2), 0.2)]
        );
        let history = mem.lock().unwrap().history().to_vec();
        assert_eq!(history.len(), 2);
        assert!(matches!(
            history[1],
            WalRecord::Answer {
                session: Some(5),
                member: 2,
                ..
            }
        ));
    }

    /// A paid record replaces an unpaid answer (and is logged as new); an
    /// unpaid answer never replaces a paid one.
    #[test]
    fn paid_records_replace_unpaid_ones() {
        let (mut store, mem) = logged();
        store.record_prefetch(&fs(1), MemberId(1), 0.5);
        store.record_tagged(&fs(1), MemberId(1), 0.75, Some(1));
        assert_eq!(mem.lock().unwrap().history_len(), 1);
        assert_eq!(store.commit_prefetch(&fs(1), MemberId(1), Some(2)), None);
        store.record_prefetch(&fs(1), MemberId(1), 0.25);
        assert_eq!(store.lookup(&fs(1), MemberId(1)), Some(0.75));
        assert_eq!(store.answer_count(), 1);
    }
}
