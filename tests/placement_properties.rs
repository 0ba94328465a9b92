//! Property tests for the member-placement hash (`oassis::crowd::placement`)
//! and the `AnswerStore`'s canonical serialization. A member's shard must
//! be a pure function of its id and the shard count; the store must key
//! answers by the fact-set alone, whatever order its facts were listed
//! in; and `to_records` must render one canonical record sequence for the
//! same recordings, whatever the store's hash-map iteration order (that
//! sequence is what recovery replays, so it must not depend on the
//! process that wrote it). `AnswerStore::seed_for`, which reads a member
//! index, must return what a scan of every stored answer returns, and the
//! store's per-answer probes, which read a position index, must answer
//! what a scan of a plain model answers.

use proptest::prelude::*;

use oassis::crowd::placement::{hash_member, index_for, member_shard};
use std::collections::BTreeMap;

use oassis::crowd::{AnswerStore, MemberId};
use oassis::store_durable::WalRecord;
use oassis::vocab::{ElementId, Fact, FactSet, RelationId};

/// A small universe keeps collisions (distinct tuples, same fact-set)
/// common enough to matter.
fn materialize(raw: &[(usize, usize, usize)]) -> FactSet {
    FactSet::from_facts(raw.iter().map(|&(s, r, o)| {
        Fact::new(
            ElementId((s % 13) as u32),
            RelationId((r % 3) as u32),
            ElementId((o % 13) as u32),
        )
    }))
}

/// A plain model of the answer store: per fact-set, the paid answers in
/// paid order and the unpaid ones, each probe a scan.
#[derive(Default)]
struct ScanStore(Vec<ScanEntry>);

/// A fact-set, its paid answers and its unpaid ones.
type ScanEntry = (FactSet, Vec<(MemberId, f64)>, Vec<(MemberId, f64)>);

impl ScanStore {
    fn find(&self, fs: &FactSet) -> Option<&ScanEntry> {
        self.0.iter().find(|(f, ..)| f == fs)
    }

    fn entry(&mut self, fs: &FactSet) -> &mut ScanEntry {
        match self.0.iter().position(|(f, ..)| f == fs) {
            Some(i) => &mut self.0[i],
            None => {
                self.0.push((fs.clone(), Vec::new(), Vec::new()));
                self.0.last_mut().expect("just pushed")
            }
        }
    }

    fn record(&mut self, fs: &FactSet, member: MemberId, support: f64) {
        let (_, paid, unpaid) = self.entry(fs);
        if let Some(answer) = paid.iter_mut().find(|(m, _)| *m == member) {
            answer.1 = support;
            return;
        }
        unpaid.retain(|(m, _)| *m != member);
        paid.push((member, support));
    }

    fn prefetch(&mut self, fs: &FactSet, member: MemberId, support: f64) {
        let (_, paid, unpaid) = self.entry(fs);
        if !paid.iter().chain(unpaid.iter()).any(|(m, _)| *m == member) {
            unpaid.push((member, support));
        }
    }

    fn commit(&mut self, fs: &FactSet, member: MemberId) -> Option<f64> {
        let (_, _, unpaid) = self.find(fs)?;
        let support = unpaid.iter().find(|(m, _)| *m == member)?.1;
        self.record(fs, member, support);
        Some(support)
    }

    fn paid(&self, fs: &FactSet) -> &[(MemberId, f64)] {
        self.find(fs).map_or(&[], |(_, paid, _)| paid)
    }

    fn lookup(&self, fs: &FactSet, member: MemberId) -> Option<f64> {
        self.paid(fs)
            .iter()
            .find(|(m, _)| *m == member)
            .map(|a| a.1)
    }

    fn holds(&self, fs: &FactSet, member: MemberId) -> bool {
        self.find(fs).is_some_and(|(_, paid, unpaid)| {
            paid.iter().chain(unpaid.iter()).any(|(m, _)| *m == member)
        })
    }

    /// A log replay keeps the paid answers only.
    fn replay(&mut self) {
        for (_, _, unpaid) in &mut self.0 {
            unpaid.clear();
        }
    }

    /// The canonical record order: fact-sets by text, answers paid order.
    fn records(&self) -> Vec<WalRecord> {
        let mut sets: Vec<&ScanEntry> = self.0.iter().filter(|(_, p, _)| !p.is_empty()).collect();
        sets.sort_by_cached_key(|(fs, ..)| {
            fs.iter()
                .map(|f| format!("{},{},{}", f.subject.0, f.relation.0, f.object.0))
                .collect::<Vec<_>>()
                .join(";")
        });
        sets.into_iter()
            .flat_map(|(fs, paid, _)| {
                paid.iter().map(|&(m, support)| WalRecord::Answer {
                    session: None,
                    member: m.0,
                    support,
                    factset: fs.clone(),
                })
            })
            .collect()
    }
}

/// Shard counts worth probing: degenerate, odd, power-of-two, and
/// larger-than-typical.
const COUNTS: [usize; 5] = [1, 2, 7, 16, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An answer recorded under one listing of a fact-set's facts is found,
    /// and serialized, under any other listing of the same set.
    #[test]
    fn store_keys_ignore_fact_insertion_order(
        raw in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64), 1..8),
        rotate in 0usize..8,
        member in 0u32..6,
    ) {
        let fs = materialize(&raw);
        let mut rotated = raw.clone();
        rotated.rotate_left(rotate % raw.len().max(1));
        let fs_rot = materialize(&rotated);
        let mut store = AnswerStore::new();
        store.record(&fs, MemberId(member), 0.5);
        prop_assert_eq!(store.lookup(&fs_rot, MemberId(member)), Some(0.5));
        let mut rotated_store = AnswerStore::new();
        rotated_store.record(&fs_rot, MemberId(member), 0.5);
        prop_assert_eq!(store.to_records(), rotated_store.to_records());
    }

    /// Changing the shard count never changes the member's identity: every
    /// placement is `index_for(hash, count)` of the *same* hash and stays
    /// in range.
    #[test]
    fn member_placement_is_stable_across_shard_counts(member in 0u32..10_000) {
        let m_hash = hash_member(MemberId(member));
        for count in COUNTS {
            let shard = member_shard(MemberId(member), count);
            prop_assert!(shard < count);
            prop_assert_eq!(shard, index_for(m_hash, count));
        }
    }

    /// `AnswerStore::to_records` renders one canonical sequence (fact-sets
    /// in text order, answers within a fact-set in insertion order): stores
    /// fed the same recordings — each with its own hash-map iteration
    /// order — serialize identically, and replaying the records into an
    /// empty store reproduces them.
    #[test]
    fn to_records_is_canonical_and_replays_exactly(
        entries in proptest::collection::vec(
            ((0usize..64, 0usize..64, 0usize..64), 0u32..6, 0u32..10),
            1..12,
        ),
    ) {
        let mut stores: Vec<AnswerStore> = (0..4).map(|_| AnswerStore::new()).collect();
        for (raw, member, support) in &entries {
            let fs = materialize(std::slice::from_ref(raw));
            let support = f64::from(*support) / 10.0;
            for store in &mut stores {
                store.record(&fs, MemberId(*member), support);
            }
        }
        let reference = stores[0].to_records();
        prop_assert!(!reference.is_empty());
        for store in &stores[1..] {
            prop_assert_eq!(&store.to_records(), &reference);
        }
        let mut replayed = AnswerStore::new();
        replayed.replay_records(&reference);
        prop_assert_eq!(replayed.to_records(), reference);
    }

    /// `seed_for` through the member index returns the triples a scan of
    /// the whole store returns, each fact-set's answers in paid order, on
    /// stores built from paid records (with overwrites), unpaid
    /// prefetches, prefetch commits and log replays.
    #[test]
    fn seed_for_matches_a_scan_of_the_store(
        ops in proptest::collection::vec(
            (0u8..4, (0usize..64, 0usize..64, 0usize..64), 0u32..8, 0u32..10),
            1..40,
        ),
        roster in proptest::collection::vec(0u32..10, 0..6),
    ) {
        let mut store = AnswerStore::new();
        for (op, raw, member, support) in &ops {
            let fs = materialize(std::slice::from_ref(raw));
            let (member, support) = (MemberId(*member), f64::from(*support) / 10.0);
            match op {
                0 | 1 => store.record(&fs, member, support),
                2 => store.record_prefetch(&fs, member, support),
                _ => {
                    store.commit_prefetch(&fs, member, Some(1));
                }
            }
        }
        let mut replayed = AnswerStore::new();
        replayed.replay_records(&store.to_records());
        let roster: Vec<MemberId> = roster.into_iter().map(MemberId).collect();
        let scan = |store: &AnswerStore| {
            let mut by_fs: BTreeMap<String, Vec<(MemberId, u64)>> = BTreeMap::new();
            for (fs, answers) in store.cache().iter() {
                for &(m, s) in answers {
                    if roster.contains(&m) {
                        by_fs.entry(format!("{fs:?}")).or_default().push((m, s.to_bits()));
                    }
                }
            }
            by_fs
        };
        for store in [&store, &replayed] {
            let mut seeded: BTreeMap<String, Vec<(MemberId, u64)>> = BTreeMap::new();
            for (fs, m, s) in store.seed_for(&roster) {
                seeded.entry(format!("{fs:?}")).or_default().push((m, s.to_bits()));
            }
            prop_assert_eq!(seeded, scan(store));
        }
    }

    /// The store's probes through its position index — `lookup`, `holds`,
    /// `commit_prefetch`, the cache's `has_answer_from` and `answers`, and
    /// `to_records` — answer what scans of a plain model answer, on stores
    /// built from paid records with overwrites, unpaid prefetches, commits
    /// and log replays.
    #[test]
    fn store_probes_match_a_scan(
        ops in proptest::collection::vec(
            (0u8..5, (0usize..64, 0usize..64, 0usize..64), 0u32..8, 0u32..10),
            1..60,
        ),
    ) {
        let mut store = AnswerStore::new();
        let mut model = ScanStore::default();
        let mut universe: Vec<FactSet> = Vec::new();
        for (op, raw, member, support) in &ops {
            let fs = materialize(std::slice::from_ref(raw));
            let (member, support) = (MemberId(*member), f64::from(*support) / 10.0);
            match op {
                0 | 1 => {
                    store.record(&fs, member, support);
                    model.record(&fs, member, support);
                }
                2 => {
                    store.record_prefetch(&fs, member, support);
                    model.prefetch(&fs, member, support);
                }
                3 => prop_assert_eq!(
                    store.commit_prefetch(&fs, member, Some(1)),
                    model.commit(&fs, member)
                ),
                _ => {
                    let mut replayed = AnswerStore::new();
                    replayed.replay_records(&store.to_records());
                    store = replayed;
                    model.replay();
                }
            }
            universe.push(fs);
        }
        for fs in &universe {
            prop_assert_eq!(store.cache().answers(fs), model.paid(fs));
            for member in (0..8).map(MemberId) {
                prop_assert_eq!(store.lookup(fs, member), model.lookup(fs, member));
                prop_assert_eq!(store.holds(fs, member), model.holds(fs, member));
                prop_assert_eq!(
                    store.cache().has_answer_from(fs, member),
                    model.lookup(fs, member).is_some()
                );
            }
        }
        prop_assert_eq!(store.to_records(), model.records());
    }
}
