//! Classification by inference (Observation 4.4).
//!
//! One crowd answer classifies many assignments: if `φ` is significant, so
//! is every generalization `φ' ≤ φ`; if `φ` is insignificant, so is every
//! specialization `φ' ≥ φ`. [`ClassificationState`] stores the *borders* of
//! that knowledge — the maximal known-significant and minimal
//! known-insignificant assignments — plus explicit per-assignment decisions
//! (which take precedence when noisy crowd answers conflict with inference)
//! and the user-guided-pruning value list of Section 6.2.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use oassis_vocab::Vocabulary;

use crate::assignment::Assignment;
use crate::space::NodeId;
use crate::value::AValue;

/// Per-witness index metadata: a root-ancestor fingerprint plus the
/// variable-only weight, both monotone along `≤` (the mask on any DAG, the
/// weight only on forest taxonomies — see [`WitnessMeta::mask_of`]).
#[derive(Debug, Clone, Copy)]
struct WitnessMeta {
    mask: u64,
    vweight: usize,
}

impl WitnessMeta {
    fn of(phi: &Assignment, vocab: &Vocabulary) -> Self {
        WitnessMeta {
            mask: Self::mask_of(phi, vocab),
            vweight: phi.weight() - phi.more_facts().len(),
        }
    }

    /// Fold every value's taxonomy [`root_mask`](oassis_vocab::Taxonomy::root_mask)
    /// into one `u64`, rotated per variable position (and per fact
    /// component) so different slots rarely collide.
    ///
    /// Soundness: `φ ≤ φ'` demands, per variable, that each value of `φ` is
    /// dominated by a value of `φ'` *in the same slot*, and that each MORE
    /// fact of `φ` is implied by some fact of `φ'`. Since `v ≤ v'` implies
    /// `root_mask(v) ⊆ root_mask(v')` and rotation/OR preserve the subset
    /// direction slot-wise, `φ ≤ φ'` implies `mask(φ) ⊆ mask(φ')`. Hash
    /// collisions only make masks more alike, i.e. lose pruning, never
    /// soundness.
    fn mask_of(phi: &Assignment, vocab: &Vocabulary) -> u64 {
        let elems = vocab.elements_order();
        let rels = vocab.relations_order();
        let mut mask = 0u64;
        for x in 0..phi.nvars() {
            let rot = ((x as u32) * 13) % 64;
            for v in phi.values(x) {
                let m = match v {
                    AValue::Elem(e) => elems.root_mask(*e),
                    AValue::Rel(r) => rels.root_mask(*r).rotate_left(32),
                };
                mask |= m.rotate_left(rot);
            }
        }
        for f in phi.more_facts() {
            mask |= elems.root_mask(f.subject).rotate_left(17)
                | rels.root_mask(f.relation).rotate_left(31)
                | elems.root_mask(f.object).rotate_left(47);
        }
        mask
    }
}

/// One slot of the status memo: `status` holds while the owning state's
/// mutation counter is `stamp - 1` (a zero stamp is an empty slot).
#[derive(Debug, Clone, Copy)]
struct MemoSlot {
    stamp: u64,
    status: Status,
}

/// The classification of one assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Known (or inferred) significant.
    Significant,
    /// Known (or inferred) insignificant.
    Insignificant,
    /// Not yet decidable.
    Unclassified,
}

/// Border-based classification knowledge for one mining run.
///
/// Two modes share one observable behavior: the default *indexed* state
/// keeps per-witness [`WitnessMeta`] for a prefilter plus an epoch-stamped
/// status memo indexed by [`NodeId`] ([`status_of`](Self::status_of)),
/// while [`unindexed`](Self::unindexed) keeps the plain linear scans (the
/// reference path benchmarks compare against). Debug builds cross-check
/// every indexed answer against the reference scan.
#[derive(Debug)]
pub struct ClassificationState {
    /// Maximal known-significant assignments.
    sig: Vec<Assignment>,
    /// Minimal known-insignificant assignments.
    insig: Vec<Assignment>,
    /// Index metadata parallel to `sig` / `insig` (empty when unindexed).
    sig_meta: Vec<WitnessMeta>,
    insig_meta: Vec<WitnessMeta>,
    /// Explicit decisions (override inference on conflicts).
    explicit: HashMap<Assignment, bool>,
    /// Values declared irrelevant by user-guided pruning: any assignment
    /// containing a specialization of one of these is insignificant.
    pruned: Vec<AValue>,
    /// Whether the prefilter + memo are active.
    indexed: bool,
    /// Mutation counter; stamps the status memo.
    version: u64,
    /// Memoized [`status_of`](Self::status_of) answers by node id, valid
    /// for the current version only. Grown on demand, so a state that is
    /// only ever probed by assignment allocates none.
    memo: Vec<MemoSlot>,
    /// Witnesses skipped by the prefilter since the last
    /// [`take_index_pruned`](Self::take_index_pruned).
    filtered: AtomicU64,
}

impl Default for ClassificationState {
    fn default() -> Self {
        ClassificationState {
            sig: Vec::new(),
            insig: Vec::new(),
            sig_meta: Vec::new(),
            insig_meta: Vec::new(),
            explicit: HashMap::new(),
            pruned: Vec::new(),
            indexed: true,
            version: 0,
            memo: Vec::new(),
            filtered: AtomicU64::new(0),
        }
    }
}

impl Clone for ClassificationState {
    fn clone(&self) -> Self {
        ClassificationState {
            sig: self.sig.clone(),
            insig: self.insig.clone(),
            sig_meta: self.sig_meta.clone(),
            insig_meta: self.insig_meta.clone(),
            explicit: self.explicit.clone(),
            pruned: self.pruned.clone(),
            indexed: self.indexed,
            version: self.version,
            // The memo is not carried over; it refills on demand.
            memo: Vec::new(),
            filtered: AtomicU64::new(self.filtered.load(Ordering::Relaxed)),
        }
    }
}

impl ClassificationState {
    /// Fresh, all-unclassified state with the index enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh state with prefilter and memo disabled: every `status()` call
    /// runs the reference linear scans. Used as the benchmark baseline.
    pub fn unindexed() -> Self {
        ClassificationState {
            indexed: false,
            ..Self::default()
        }
    }

    /// Whether the prefilter + status memo are active.
    pub fn is_indexed(&self) -> bool {
        self.indexed
    }

    /// Record an explicit significance decision for `phi`.
    pub fn mark_significant(&mut self, phi: &Assignment, vocab: &Vocabulary) {
        self.version += 1;
        self.explicit.insert(phi.clone(), true);
        // Keep only maximal significant witnesses.
        if self.sig.iter().any(|w| phi.leq(w, vocab)) {
            return;
        }
        if self.indexed {
            let sig = std::mem::take(&mut self.sig);
            let meta = std::mem::take(&mut self.sig_meta);
            for (w, m) in sig.into_iter().zip(meta) {
                if !w.leq(phi, vocab) {
                    self.sig.push(w);
                    self.sig_meta.push(m);
                }
            }
            self.sig_meta.push(WitnessMeta::of(phi, vocab));
        } else {
            self.sig.retain(|w| !w.leq(phi, vocab));
        }
        self.sig.push(phi.clone());
    }

    /// Record an explicit insignificance decision for `phi`.
    pub fn mark_insignificant(&mut self, phi: &Assignment, vocab: &Vocabulary) {
        self.version += 1;
        self.explicit.insert(phi.clone(), false);
        if self.insig.iter().any(|w| w.leq(phi, vocab)) {
            return;
        }
        if self.indexed {
            let insig = std::mem::take(&mut self.insig);
            let meta = std::mem::take(&mut self.insig_meta);
            for (w, m) in insig.into_iter().zip(meta) {
                if !phi.leq(&w, vocab) {
                    self.insig.push(w);
                    self.insig_meta.push(m);
                }
            }
            self.insig_meta.push(WitnessMeta::of(phi, vocab));
        } else {
            self.insig.retain(|w| !phi.leq(w, vocab));
        }
        self.insig.push(phi.clone());
    }

    /// Record a pruned (irrelevant) value: every assignment involving the
    /// value or one of its specializations becomes insignificant.
    pub fn mark_pruned(&mut self, value: AValue) {
        self.version += 1;
        if !self.pruned.contains(&value) {
            self.pruned.push(value);
        }
    }

    /// The pruned values recorded so far.
    pub fn pruned_values(&self) -> &[AValue] {
        &self.pruned
    }

    /// Classify `phi` from current knowledge. Nothing is memoized; walks
    /// that revisit nodes use [`status_of`](Self::status_of).
    pub fn status(&self, phi: &Assignment, vocab: &Vocabulary) -> Status {
        if !self.indexed {
            return self.status_reference(phi, vocab);
        }
        self.status_checked(phi, vocab)
    }

    /// [`status`](Self::status) of the node `id` interned for `phi`,
    /// memoized by id until the next mark. The ids must all come from one
    /// [`SpaceCache`](crate::SpaceCache) arena. An unindexed state
    /// memoizes nothing.
    pub fn status_of(&mut self, id: NodeId, phi: &Assignment, vocab: &Vocabulary) -> Status {
        if !self.indexed {
            return self.status_reference(phi, vocab);
        }
        let i = id.0 as usize;
        let stamp = self.version + 1;
        if let Some(slot) = self.memo.get(i) {
            if slot.stamp == stamp {
                return slot.status;
            }
        }
        let status = self.status_checked(phi, vocab);
        if i >= self.memo.len() {
            self.memo.resize(
                i + 1,
                MemoSlot {
                    stamp: 0,
                    status: Status::Unclassified,
                },
            );
        }
        self.memo[i] = MemoSlot { stamp, status };
        status
    }

    /// The prefiltered classification, cross-checked against the
    /// reference scan in debug builds.
    fn status_checked(&self, phi: &Assignment, vocab: &Vocabulary) -> Status {
        let s = self.status_indexed(phi, vocab);
        debug_assert_eq!(
            s,
            self.status_reference(phi, vocab),
            "indexed status diverged from reference scan for {phi}"
        );
        s
    }

    /// The reference linear-scan classification (Observation 4.4, no index).
    /// Indexed `status()` must agree with this on every query; debug builds
    /// assert it, and the proptest suite exercises it on random borders.
    pub fn status_reference(&self, phi: &Assignment, vocab: &Vocabulary) -> Status {
        if let Some(&sig) = self.explicit.get(phi) {
            return if sig {
                Status::Significant
            } else {
                Status::Insignificant
            };
        }
        if self.prune_hits(phi, vocab) {
            return Status::Insignificant;
        }
        if self.insig.iter().any(|w| w.leq(phi, vocab)) {
            return Status::Insignificant;
        }
        if self.sig.iter().any(|w| phi.leq(w, vocab)) {
            return Status::Significant;
        }
        Status::Unclassified
    }

    /// Prefiltered classification: consult each border witness only when its
    /// metadata admits the dominance test's direction.
    fn status_indexed(&self, phi: &Assignment, vocab: &Vocabulary) -> Status {
        if let Some(&sig) = self.explicit.get(phi) {
            return if sig {
                Status::Significant
            } else {
                Status::Insignificant
            };
        }
        if self.prune_hits(phi, vocab) {
            return Status::Insignificant;
        }
        let m = WitnessMeta::of(phi, vocab);
        // Variable-only weight is monotone along ≤ only when antichain
        // canonicalization cannot merge two values into one common
        // descendant, i.e. on forest-shaped taxonomies.
        let forest = vocab.elements_order().is_forest() && vocab.relations_order().is_forest();
        let mut filtered = 0u64;
        let mut result = Status::Unclassified;
        // Insignificance test: some witness w ≤ phi.
        for (w, wm) in self.insig.iter().zip(&self.insig_meta) {
            if wm.mask & !m.mask != 0 || (forest && wm.vweight > m.vweight) {
                filtered += 1;
                continue;
            }
            if w.leq(phi, vocab) {
                result = Status::Insignificant;
                break;
            }
        }
        // Significance test: phi ≤ some witness w.
        if result == Status::Unclassified {
            for (w, wm) in self.sig.iter().zip(&self.sig_meta) {
                if m.mask & !wm.mask != 0 || (forest && m.vweight > wm.vweight) {
                    filtered += 1;
                    continue;
                }
                if phi.leq(w, vocab) {
                    result = Status::Significant;
                    break;
                }
            }
        }
        if filtered > 0 {
            self.filtered.fetch_add(filtered, Ordering::Relaxed);
        }
        result
    }

    /// Witnesses the prefilter skipped since the last call; resets to 0.
    /// Feeds the `border.index.pruned` observability counter.
    pub fn take_index_pruned(&self) -> u64 {
        self.filtered.swap(0, Ordering::Relaxed)
    }

    /// Whether `phi` contains a value that specializes a pruned value.
    fn prune_hits(&self, phi: &Assignment, vocab: &Vocabulary) -> bool {
        if self.pruned.is_empty() {
            return false;
        }
        let value_hit = (0..phi.nvars()).any(|x| {
            phi.values(x)
                .iter()
                .any(|v| self.pruned.iter().any(|p| p.leq(v, vocab)))
        });
        value_hit
            || phi.more_facts().iter().any(|f| {
                self.pruned.iter().any(|p| match p {
                    AValue::Elem(e) => {
                        vocab.elem_leq(*e, f.subject) || vocab.elem_leq(*e, f.object)
                    }
                    AValue::Rel(r) => vocab.rel_leq(*r, f.relation),
                })
            })
    }

    /// Shorthand for `status(...) == Significant`.
    pub fn is_significant(&self, phi: &Assignment, vocab: &Vocabulary) -> bool {
        self.status(phi, vocab) == Status::Significant
    }

    /// Shorthand for `status(...) == Insignificant`.
    pub fn is_insignificant(&self, phi: &Assignment, vocab: &Vocabulary) -> bool {
        self.status(phi, vocab) == Status::Insignificant
    }

    /// Shorthand for `status(...) == Unclassified`.
    pub fn is_unclassified(&self, phi: &Assignment, vocab: &Vocabulary) -> bool {
        self.status(phi, vocab) == Status::Unclassified
    }

    /// The maximal known-significant assignments (the positive border).
    pub fn significant_border(&self) -> &[Assignment] {
        &self.sig
    }

    /// The minimal known-insignificant assignments (the negative border).
    pub fn insignificant_border(&self) -> &[Assignment] {
        &self.insig
    }

    /// All explicitly decided assignments with their decision.
    pub fn explicit_decisions(&self) -> impl Iterator<Item = (&Assignment, bool)> {
        self.explicit.iter().map(|(a, &b)| (a, b))
    }

    /// Whether `phi` was explicitly decided (asked), not just inferred.
    pub fn explicitly_decided(&self, phi: &Assignment) -> bool {
        self.explicit.contains_key(phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_store::ontology::figure1_ontology;
    use oassis_vocab::Vocabulary;

    fn vocab() -> Vocabulary {
        figure1_ontology().vocabulary().clone()
    }

    fn a(vocab: &Vocabulary, y: &str, x: &str) -> Assignment {
        Assignment::single_valued([
            AValue::Elem(vocab.element(y).unwrap()),
            AValue::Elem(vocab.element(x).unwrap()),
        ])
    }

    #[test]
    fn significance_propagates_to_generalizations() {
        let v = vocab();
        let mut st = ClassificationState::new();
        st.mark_significant(&a(&v, "Biking", "Central Park"), &v);
        assert_eq!(
            st.status(&a(&v, "Sport", "Central Park"), &v),
            Status::Significant
        );
        assert_eq!(st.status(&a(&v, "Sport", "Park"), &v), Status::Significant);
        // A specialization stays unclassified.
        assert_eq!(
            st.status(&a(&v, "Biking", "Central Park"), &v),
            Status::Significant,
            "explicit"
        );
        assert_eq!(
            st.status(&a(&v, "Baseball", "Central Park"), &v),
            Status::Unclassified
        );
    }

    #[test]
    fn insignificance_propagates_to_specializations() {
        let v = vocab();
        let mut st = ClassificationState::new();
        st.mark_insignificant(&a(&v, "Ball Game", "Park"), &v);
        assert_eq!(
            st.status(&a(&v, "Basketball", "Central Park"), &v),
            Status::Insignificant
        );
        assert_eq!(st.status(&a(&v, "Sport", "Park"), &v), Status::Unclassified);
    }

    #[test]
    fn borders_keep_only_extremes() {
        let v = vocab();
        let mut st = ClassificationState::new();
        st.mark_significant(&a(&v, "Sport", "Park"), &v);
        st.mark_significant(&a(&v, "Biking", "Central Park"), &v);
        assert_eq!(st.significant_border().len(), 1, "general witness absorbed");
        st.mark_insignificant(&a(&v, "Baseball", "Central Park"), &v);
        st.mark_insignificant(&a(&v, "Ball Game", "Central Park"), &v);
        assert_eq!(
            st.insignificant_border().len(),
            1,
            "specific witness absorbed"
        );
    }

    #[test]
    fn explicit_decision_overrides_inference() {
        let v = vocab();
        let mut st = ClassificationState::new();
        // Noisy crowd: general insignificant but specific answered significant.
        st.mark_insignificant(&a(&v, "Sport", "Park"), &v);
        st.mark_significant(&a(&v, "Biking", "Central Park"), &v);
        assert_eq!(
            st.status(&a(&v, "Biking", "Central Park"), &v),
            Status::Significant,
            "explicit answer wins over inherited insignificance"
        );
        assert!(st.explicitly_decided(&a(&v, "Biking", "Central Park")));
        assert!(!st.explicitly_decided(&a(&v, "Baseball", "Park")));
    }

    #[test]
    fn pruning_kills_value_and_specializations() {
        let v = vocab();
        let mut st = ClassificationState::new();
        st.mark_pruned(AValue::Elem(v.element("Ball Game").unwrap()));
        assert_eq!(
            st.status(&a(&v, "Basketball", "Central Park"), &v),
            Status::Insignificant
        );
        assert_eq!(
            st.status(&a(&v, "Ball Game", "Park"), &v),
            Status::Insignificant
        );
        assert_eq!(
            st.status(&a(&v, "Biking", "Central Park"), &v),
            Status::Unclassified
        );
        assert_eq!(st.pruned_values().len(), 1);
        st.mark_pruned(AValue::Elem(v.element("Ball Game").unwrap()));
        assert_eq!(st.pruned_values().len(), 1, "dedup");
    }

    #[test]
    fn indexed_and_unindexed_states_agree() {
        let v = vocab();
        let mut idx = ClassificationState::new();
        let mut plain = ClassificationState::unindexed();
        assert!(idx.is_indexed() && !plain.is_indexed());
        for st in [&mut idx, &mut plain] {
            st.mark_significant(&a(&v, "Biking", "Central Park"), &v);
            st.mark_insignificant(&a(&v, "Ball Game", "Park"), &v);
            st.mark_pruned(AValue::Elem(v.element("Boathouse").unwrap()));
        }
        for (y, x) in [
            ("Sport", "Central Park"),
            ("Sport", "Park"),
            ("Biking", "Central Park"),
            ("Basketball", "Central Park"),
            ("Baseball", "Park"),
            ("Activity", "Place"),
        ] {
            let q = a(&v, y, x);
            assert_eq!(idx.status(&q, &v), plain.status(&q, &v), "{y}/{x}");
            assert_eq!(idx.status(&q, &v), idx.status_reference(&q, &v));
            // Second call hits the memo and must not change the answer.
            assert_eq!(idx.status(&q, &v), plain.status(&q, &v));
        }
    }

    #[test]
    fn status_memo_by_id_follows_marks() {
        let v = vocab();
        let q = a(&v, "Sport", "Park");
        let id = NodeId(3);
        let mut st = ClassificationState::new();
        assert_eq!(st.status_of(id, &q, &v), Status::Unclassified);
        assert_eq!(st.status_of(id, &q, &v), Status::Unclassified, "memo hit");
        st.mark_significant(&a(&v, "Biking", "Central Park"), &v);
        assert_eq!(
            st.status_of(id, &q, &v),
            Status::Significant,
            "a mark invalidates the memo"
        );
        assert_eq!(st.status_of(id, &q, &v), st.status(&q, &v));

        let mut plain = ClassificationState::unindexed();
        plain.mark_significant(&a(&v, "Biking", "Central Park"), &v);
        assert_eq!(plain.status_of(id, &q, &v), Status::Significant);
        assert!(plain.memo.is_empty(), "the reference path memoizes nothing");
    }

    #[test]
    fn index_pruned_counter_drains() {
        let v = vocab();
        let st = ClassificationState::new();
        assert_eq!(st.take_index_pruned(), 0);
        let mut st = st;
        st.mark_significant(&a(&v, "Biking", "Central Park"), &v);
        // Query something whose mask cannot be covered by the witness.
        let _ = st.status(&a(&v, "Baseball", "Park"), &v);
        let _ = st.take_index_pruned();
        assert_eq!(st.take_index_pruned(), 0, "drained");
    }

    #[test]
    fn pruning_applies_to_more_facts() {
        let v = vocab();
        let mut st = ClassificationState::new();
        st.mark_pruned(AValue::Elem(v.element("Boathouse").unwrap()));
        let rent = oassis_vocab::Fact::new(
            v.element("Rent Bikes").unwrap(),
            v.relation("doAt").unwrap(),
            v.element("Boathouse").unwrap(),
        );
        let base = a(&v, "Biking", "Central Park");
        let with_more = base.with_more_fact(rent);
        assert_eq!(st.status(&with_more, &v), Status::Insignificant);
        assert_eq!(st.status(&base, &v), Status::Unclassified);
    }
}
