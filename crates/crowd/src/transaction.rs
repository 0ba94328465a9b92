//! Transactions and personal databases (Section 2).
//!
//! A transaction is "the set of all the facts that hold for a person and an
//! occasion"; a personal database `D_u` is the bag of all of a member's
//! transactions. `D_u` is *virtual* — the engine can only learn about it
//! through questions — but simulated members materialize one here.

use std::collections::HashMap;
use std::sync::Arc;

use oassis_obs::{names, null_sink, EventSink, Span};
use oassis_vocab::{BitSet, Fact, FactSet, Vocabulary};

/// One past occasion: a fact-set with a unique id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Unique transaction id (e.g. `T1`..`T8` in Table 3).
    pub id: u64,
    /// The facts that held on this occasion.
    pub facts: FactSet,
}

impl Transaction {
    /// Construct a transaction.
    pub fn new(id: u64, facts: FactSet) -> Self {
        Transaction { id, facts }
    }
}

/// A member's personal database: a bag of transactions.
///
/// ```
/// use oassis_crowd::PersonalDb;
/// use oassis_crowd::transaction::table3_dbs;
/// use oassis_store::ontology::figure1_ontology;
/// use oassis_vocab::{Fact, FactSet};
///
/// let o = figure1_ontology();
/// let v = o.vocabulary();
/// let (d1, _) = table3_dbs(v);
/// let biking = FactSet::from_facts([Fact::new(
///     v.element("Biking").unwrap(),
///     v.relation("doAt").unwrap(),
///     v.element("Central Park").unwrap(),
/// )]);
/// assert!((d1.support(&biking, v) - 2.0 / 6.0).abs() < 1e-12); // T3 and T4
/// ```
#[derive(Debug, Clone, Default)]
pub struct PersonalDb {
    transactions: Vec<Transaction>,
}

impl PersonalDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from fact-sets, assigning sequential ids.
    pub fn from_factsets<I: IntoIterator<Item = FactSet>>(factsets: I) -> Self {
        PersonalDb {
            transactions: factsets
                .into_iter()
                .enumerate()
                .map(|(i, fs)| Transaction::new(i as u64, fs))
                .collect(),
        }
    }

    /// Append a transaction.
    pub fn push(&mut self, t: Transaction) {
        self.transactions.push(t);
    }

    /// Number of transactions `|D_u|`.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the database has no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Iterate transactions.
    pub fn iter(&self) -> std::slice::Iter<'_, Transaction> {
        self.transactions.iter()
    }

    /// Number of transactions that imply `a` (`a ≤ T` per Definition 2.5).
    pub fn count_implying(&self, a: &FactSet, vocab: &Vocabulary) -> usize {
        self.transactions
            .iter()
            .filter(|t| vocab.factset_leq(a, &t.facts))
            .count()
    }

    /// The personal support `supp_u(a)`; `0.0` for an empty database.
    pub fn support(&self, a: &FactSet, vocab: &Vocabulary) -> f64 {
        if self.transactions.is_empty() {
            return 0.0;
        }
        self.count_implying(a, vocab) as f64 / self.transactions.len() as f64
    }
}

/// An Eclat-style vertical index over a [`PersonalDb`]: for every fact `f`
/// that at least one transaction implies, the set of transaction ids (a
/// *tid-list*, as a [`BitSet`]) implying it.
///
/// Semantic implication is folded in at build time: transaction fact `g`
/// contributes its full ancestor closure
/// `ancestors(g.subject) × ancestors(g.relation) × ancestors(g.object)`,
/// so `tid ∈ tids[f]` iff `f ≤ g` for some `g` in the transaction. Support
/// counting then reduces to tid-list intersection plus popcount, replacing
/// the per-question `O(|D_u| · |a| · |T|)` scan of
/// [`PersonalDb::count_implying`] with `O(|a| · |D_u|/64)` word ops.
///
/// Counts are exact (not approximate), so the resulting `f64` supports are
/// bit-identical to the scan's.
#[derive(Debug, Clone, Default)]
pub struct SupportIndex {
    tids: HashMap<Fact, BitSet>,
    transactions: usize,
}

impl SupportIndex {
    /// Build the index for `db` (no instrumentation).
    pub fn build(db: &PersonalDb, vocab: &Vocabulary) -> Self {
        Self::build_with_sink(db, vocab, &null_sink())
    }

    /// Build the index, timing the construction under the
    /// `crowd.tidlist.build` span.
    pub fn build_with_sink(db: &PersonalDb, vocab: &Vocabulary, sink: &Arc<dyn EventSink>) -> Self {
        let _span = Span::enter(&**sink, names::CROWD_TIDLIST_BUILD);
        let n = db.len();
        // Ancestor closures are shared across transactions; memoize per value.
        let mut elem_anc = HashMap::new();
        let mut rel_anc = HashMap::new();
        for t in db.iter() {
            for g in t.facts.iter() {
                for e in [g.subject, g.object] {
                    elem_anc
                        .entry(e)
                        .or_insert_with(|| vocab.elements_order().ancestors(e));
                }
                rel_anc
                    .entry(g.relation)
                    .or_insert_with(|| vocab.relations_order().ancestors(g.relation));
            }
        }
        let mut tids: HashMap<Fact, BitSet> = HashMap::new();
        for (tid, t) in db.iter().enumerate() {
            for g in t.facts.iter() {
                for &s in &elem_anc[&g.subject] {
                    for &r in &rel_anc[&g.relation] {
                        for &o in &elem_anc[&g.object] {
                            tids.entry(Fact::new(s, r, o))
                                .or_insert_with(|| BitSet::new(n))
                                .insert(tid);
                        }
                    }
                }
            }
        }
        SupportIndex {
            tids,
            transactions: n,
        }
    }

    /// Number of transactions the index was built over.
    pub fn transactions(&self) -> usize {
        self.transactions
    }

    /// Number of distinct implied facts with a tid-list.
    pub fn distinct_facts(&self) -> usize {
        self.tids.len()
    }

    /// Number of transactions implying `a`: the intersection of the
    /// per-fact tid-lists. Equals [`PersonalDb::count_implying`] exactly.
    pub fn count_implying(&self, a: &FactSet) -> usize {
        let mut facts = a.iter();
        let Some(first) = facts.next() else {
            // The empty fact-set is implied by every transaction.
            return self.transactions;
        };
        let Some(seed) = self.tids.get(first) else {
            return 0;
        };
        let mut acc = seed.clone();
        for f in facts {
            match self.tids.get(f) {
                Some(list) => {
                    acc.intersect_with(list);
                    if acc.is_empty() {
                        return 0;
                    }
                }
                None => return 0,
            }
        }
        acc.len()
    }

    /// The personal support `supp_u(a)`; `0.0` for an empty database.
    /// Bit-identical to [`PersonalDb::support`] (same integer division).
    pub fn support(&self, a: &FactSet) -> f64 {
        if self.transactions == 0 {
            return 0.0;
        }
        self.count_implying(a) as f64 / self.transactions as f64
    }
}

/// Build the two example personal databases of Table 3 against the Figure 1
/// ontology's vocabulary. Returns `(D_u1, D_u2)`.
///
/// Kept in the library (not test-only) because tests, examples and benches
/// across the workspace replay the paper's running example.
pub fn table3_dbs(vocab: &Vocabulary) -> (PersonalDb, PersonalDb) {
    let f = |s: &str, r: &str, o: &str| {
        oassis_vocab::Fact::new(
            vocab.element(s).unwrap_or_else(|| panic!("element {s}")),
            vocab.relation(r).unwrap_or_else(|| panic!("relation {r}")),
            vocab.element(o).unwrap_or_else(|| panic!("element {o}")),
        )
    };
    let basketball_cp = f("Basketball", "doAt", "Central Park");
    let baseball_cp = f("Baseball", "doAt", "Central Park");
    let biking_cp = f("Biking", "doAt", "Central Park");
    let rent_bikes = f("Rent Bikes", "doAt", "Boathouse");
    let falafel_maoz = f("Falafel", "eatAt", "Maoz Veg.");
    let monkey_zoo = f("Feed a monkey", "doAt", "Bronx Zoo");
    let pasta_pine = f("Pasta", "eatAt", "Pine");

    let d1 = PersonalDb::from_factsets([
        // T1
        FactSet::from_facts([basketball_cp, falafel_maoz]),
        // T2
        FactSet::from_facts([monkey_zoo, pasta_pine]),
        // T3
        FactSet::from_facts([biking_cp, rent_bikes, falafel_maoz]),
        // T4
        FactSet::from_facts([baseball_cp, biking_cp, rent_bikes, falafel_maoz]),
        // T5
        FactSet::from_facts([monkey_zoo, pasta_pine]),
        // T6
        FactSet::from_facts([monkey_zoo]),
    ]);
    let d2 = PersonalDb::from_factsets([
        // T7
        FactSet::from_facts([baseball_cp, biking_cp, rent_bikes, falafel_maoz]),
        // T8
        FactSet::from_facts([monkey_zoo, pasta_pine]),
    ]);
    (d1, d2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_store::ontology::figure1_ontology;
    use oassis_vocab::Fact;

    #[test]
    fn empty_db_has_zero_support() {
        let o = figure1_ontology();
        let db = PersonalDb::new();
        assert_eq!(db.support(&FactSet::new(), o.vocabulary()), 0.0);
        assert!(db.is_empty());
    }

    #[test]
    fn empty_factset_is_implied_by_every_transaction() {
        let o = figure1_ontology();
        let (d1, _) = table3_dbs(o.vocabulary());
        assert_eq!(d1.support(&FactSet::new(), o.vocabulary()), 1.0);
    }

    #[test]
    fn example_2_7_support() {
        // supp_u1({Pasta eatAt Pine, Activity doAt Bronx Zoo}) = 1/3,
        // implied by T2 and T5 out of 6 transactions.
        let o = figure1_ontology();
        let v = o.vocabulary();
        let (d1, _) = table3_dbs(v);
        let a = FactSet::from_facts([
            Fact::new(
                v.element("Pasta").unwrap(),
                v.relation("eatAt").unwrap(),
                v.element("Pine").unwrap(),
            ),
            Fact::new(
                v.element("Activity").unwrap(),
                v.relation("doAt").unwrap(),
                v.element("Bronx Zoo").unwrap(),
            ),
        ]);
        assert_eq!(d1.count_implying(&a, v), 2);
        assert!((d1.support(&a, v) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn example_3_1_supports_for_phi16_and_phi20() {
        // φ16(A_SAT) = {Biking doAt Central Park, _ eatAt Maoz Veg.} with the
        // blank bound to Falafel: supp_u1 = 2/6 = 1/3, supp_u2 = 1/2.
        let o = figure1_ontology();
        let v = o.vocabulary();
        let (d1, d2) = table3_dbs(v);
        let fact = |s: &str, r: &str, ob: &str| {
            Fact::new(
                v.element(s).unwrap(),
                v.relation(r).unwrap(),
                v.element(ob).unwrap(),
            )
        };
        let phi16 = FactSet::from_facts([
            fact("Biking", "doAt", "Central Park"),
            fact("Falafel", "eatAt", "Maoz Veg."),
        ]);
        assert!((d1.support(&phi16, v) - 1.0 / 3.0).abs() < 1e-12);
        assert!((d2.support(&phi16, v) - 1.0 / 2.0).abs() < 1e-12);
        // avg = 5/12 ≥ 0.4 ⇒ φ16 significant (checked at engine level).

        let phi20 = FactSet::from_facts([
            fact("Baseball", "doAt", "Central Park"),
            fact("Falafel", "eatAt", "Maoz Veg."),
        ]);
        assert!((d1.support(&phi20, v) - 1.0 / 6.0).abs() < 1e-12);
        assert!((d2.support(&phi20, v) - 1.0 / 2.0).abs() < 1e-12);
        // avg = 1/3 < 0.4 ⇒ φ20 insignificant.
    }

    #[test]
    fn support_uses_semantic_implication() {
        // Sport doAt Central Park is implied by Basketball/Biking/Baseball
        // transactions: T1, T3, T4 ⇒ 3/6.
        let o = figure1_ontology();
        let v = o.vocabulary();
        let (d1, _) = table3_dbs(v);
        let a = FactSet::from_facts([Fact::new(
            v.element("Sport").unwrap(),
            v.relation("doAt").unwrap(),
            v.element("Central Park").unwrap(),
        )]);
        assert_eq!(d1.count_implying(&a, v), 3);
    }

    #[test]
    fn support_index_matches_scan_on_table3() {
        let o = figure1_ontology();
        let v = o.vocabulary();
        let (d1, d2) = table3_dbs(v);
        for db in [&d1, &d2] {
            let idx = SupportIndex::build(db, v);
            assert_eq!(idx.transactions(), db.len());
            assert!(idx.distinct_facts() > 0);
            // Every single-fact query drawn from the index keys agrees, as
            // do several multi-fact combinations.
            let fact = |s: &str, r: &str, ob: &str| {
                Fact::new(
                    v.element(s).unwrap(),
                    v.relation(r).unwrap(),
                    v.element(ob).unwrap(),
                )
            };
            let queries = [
                FactSet::new(),
                FactSet::from_facts([fact("Sport", "doAt", "Central Park")]),
                FactSet::from_facts([
                    fact("Biking", "doAt", "Central Park"),
                    fact("Falafel", "eatAt", "Maoz Veg."),
                ]),
                FactSet::from_facts([
                    fact("Pasta", "eatAt", "Pine"),
                    fact("Activity", "doAt", "Bronx Zoo"),
                ]),
                FactSet::from_facts([fact("Swimming", "doAt", "Madison Square")]),
                FactSet::from_facts([
                    fact("Activity", "doAt", "Park"),
                    fact("Food", "eatAt", "Restaurant"),
                ]),
            ];
            for q in &queries {
                assert_eq!(
                    idx.count_implying(q),
                    db.count_implying(q, v),
                    "count mismatch for {}",
                    v.factset_to_string(q)
                );
                assert_eq!(idx.support(q), db.support(q, v));
            }
        }
    }

    #[test]
    fn support_index_on_empty_db() {
        let o = figure1_ontology();
        let idx = SupportIndex::build(&PersonalDb::new(), o.vocabulary());
        assert_eq!(idx.count_implying(&FactSet::new()), 0);
        assert_eq!(idx.support(&FactSet::new()), 0.0);
    }

    #[test]
    fn push_and_iter() {
        let mut db = PersonalDb::new();
        db.push(Transaction::new(7, FactSet::new()));
        assert_eq!(db.len(), 1);
        assert_eq!(db.iter().next().unwrap().id, 7);
    }
}
