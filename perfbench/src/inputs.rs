//! Seeded workload inputs: personal transaction databases, rosters and
//! query variants. Everything here is a pure function of `--seed`.

use std::sync::Arc;

use oassis::crowd::{CrowdMember, DbMember, MemberId, PersonalDb};
use oassis::datagen::Domain;
use oassis::vocab::{Fact, FactSet, Vocabulary};

/// SplitMix64: a small, dependency-free, seedable generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Shape of one generated crowd, after `oassis_datagen::generate_crowd`:
/// a few zipf-weighted popular leaf patterns plus a uniform long tail.
pub struct CrowdShape {
    pub members: usize,
    pub transactions: usize,
    pub popular_patterns: usize,
    pub popularity: f64,
    /// Chance that a transaction carries one extra co-occurring popular
    /// fact, the source of multiplicity MSPs.
    pub extra_fact: f64,
}

/// Generate `shape.members` personal databases for `domain`. The popular
/// patterns come from `patterns` and the transactions from `seed`: keeping
/// the patterns fixed across seeds keeps how much of the space is
/// significant, and so the work a query does, about the same for every
/// seed, while each seed still draws different databases.
pub fn crowd_dbs(domain: &Domain, shape: &CrowdShape, patterns: u64, seed: u64) -> Vec<PersonalDb> {
    let vocab = domain.ontology.vocabulary();
    let relation = vocab.relation(domain.relation).expect("domain relation");
    let mut rng = Rng::new(patterns);
    let leaf = |rng: &mut Rng| {
        let s = &domain.subject_leaves[rng.below(domain.subject_leaves.len())];
        let o = &domain.object_leaves[rng.below(domain.object_leaves.len())];
        Fact::new(
            vocab.element(s).expect("subject leaf"),
            relation,
            vocab.element(o).expect("object leaf"),
        )
    };
    let mut popular: Vec<Fact> = Vec::new();
    while popular.len() < shape.popular_patterns {
        let f = leaf(&mut rng);
        if !popular.contains(&f) {
            popular.push(f);
        }
    }
    // Zipf(1) weights over the popular patterns, as a cumulative table.
    let total: f64 = (1..=popular.len()).map(|i| 1.0 / i as f64).sum();
    let mut acc = 0.0;
    let cumulative: Vec<f64> = (1..=popular.len())
        .map(|i| {
            acc += 1.0 / i as f64 / total;
            acc
        })
        .collect();
    let pick = |rng: &mut Rng| {
        let x = rng.unit();
        popular[cumulative.iter().position(|&c| x <= c).unwrap_or(0)]
    };
    let mut rng = Rng::new(seed);
    (0..shape.members)
        .map(|_| {
            PersonalDb::from_factsets((0..shape.transactions).map(|_| {
                let mut facts = vec![if rng.unit() < shape.popularity {
                    pick(&mut rng)
                } else {
                    leaf(&mut rng)
                }];
                if rng.unit() < shape.extra_fact {
                    facts.push(pick(&mut rng));
                }
                FactSet::from_facts(facts)
            }))
        })
        .collect()
}

/// Members answering from `dbs`, with consecutive ids from `first_id`.
pub fn members(dbs: &[PersonalDb], first_id: u32, vocab: &Arc<Vocabulary>) -> Vec<DbMember> {
    dbs.iter()
        .enumerate()
        .map(|(i, db)| DbMember::new(MemberId(first_id + i as u32), db.clone(), Arc::clone(vocab)))
        .collect()
}

/// [`members`], boxed for a runtime or a direct execution.
pub fn boxed(members: Vec<DbMember>) -> Vec<Box<dyn CrowdMember>> {
    members
        .into_iter()
        .map(|m| Box::new(m) as Box<dyn CrowdMember>)
        .collect()
}

/// Replace the query's `WITH SUPPORT` value, so each variant carries its
/// own threshold in its text (the same text is then run in the service
/// and by the direct reference execution).
pub fn with_support(query: &str, threshold: f64) -> String {
    let at = query.find("WITH SUPPORT").expect("query has WITH SUPPORT");
    format!("{} WITH SUPPORT = {threshold}", query[..at].trim_end())
}

/// Inject a `FILTER` as the last item of the query's WHERE clause.
pub fn with_filter(query: &str, filter: &str) -> String {
    query.replacen(
        "SATISFYING",
        &format!(".\n          {filter}\n        SATISFYING"),
        1,
    )
}

/// Sorted rendered valid MSPs: the observable output every check compares.
pub fn valid_msps(answers: &[oassis::core::QueryAnswer]) -> Vec<String> {
    let mut v: Vec<String> = answers
        .iter()
        .filter(|a| a.valid)
        .map(|a| a.rendered.clone())
        .collect();
    v.sort();
    v
}

/// A roster seat answering through a [`DbMember`] it shares with other
/// seats. Fresh rosters need a new member id per session, but building a
/// `DbMember` (and its tid-list index) per seat would make set-up and
/// memory grow with the session count; answers depend only on the
/// database, so every seat cloned from one database shares one member.
pub struct SeatMember {
    pub id: MemberId,
    pub db: Arc<std::sync::Mutex<DbMember>>,
}

impl SeatMember {
    fn db(&self) -> std::sync::MutexGuard<'_, DbMember> {
        self.db.lock().expect("shared member poisoned")
    }
}

impl CrowdMember for SeatMember {
    fn id(&self) -> MemberId {
        self.id
    }

    fn ask_concrete(&mut self, a: &FactSet) -> f64 {
        self.db().ask_concrete(a)
    }

    fn ask_specialization(
        &mut self,
        base: &FactSet,
        candidates: &[FactSet],
    ) -> Option<(usize, f64)> {
        self.db().ask_specialization(base, candidates)
    }

    fn irrelevant_elements(&mut self, a: &FactSet) -> Vec<oassis::vocab::ElementId> {
        self.db().irrelevant_elements(a)
    }

    fn suggest_more(&mut self, base: &FactSet) -> Vec<Fact> {
        self.db().suggest_more(base)
    }
}

/// `seats` seats answering through `template` (cycled), ids from `first_id`.
pub fn seats(
    template: &[Arc<std::sync::Mutex<DbMember>>],
    first_id: u32,
    seats: usize,
) -> Vec<Box<dyn CrowdMember>> {
    (0..seats)
        .map(|i| {
            Box::new(SeatMember {
                id: MemberId(first_id + i as u32),
                db: Arc::clone(&template[i % template.len()]),
            }) as Box<dyn CrowdMember>
        })
        .collect()
}

/// Shared answering members for [`seats`].
pub fn shared_members(
    dbs: &[PersonalDb],
    vocab: &Arc<Vocabulary>,
) -> Vec<Arc<std::sync::Mutex<DbMember>>> {
    members(dbs, 0, vocab)
        .into_iter()
        .map(|m| Arc::new(std::sync::Mutex::new(m)))
        .collect()
}
