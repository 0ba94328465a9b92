//! The assignment space: validity, DAG membership and lazy generation
//! (Section 5 of the paper).
//!
//! Starting from the SPARQL results of the `WHERE` clause (the *base valid*
//! single-valued assignments), the space answers, without ever materializing
//! the full DAG:
//!
//! * **membership** in the expanded set `𝒜 = {φ | ∃φ' ∈ 𝒜valid : φ ≤ φ'}`
//!   (line 1 of Algorithm 1). By Proposition 5.1 a multi-valued assignment is
//!   valid iff each of its single-valued *selections* is base-valid, so
//!   `φ ∈ 𝒜` iff every selection over the WHERE-bound variables is pointwise
//!   dominated by some base tuple — a check that needs only the base tuples;
//! * **validity** (`φ(A_WHERE) ≤ O` plus multiplicity admission);
//! * **immediate successors** — one-step specialization of a value, addition
//!   of a value (lazy multiplicity combination), or addition of a `MORE`
//!   fact — and **immediate predecessors** (one-step generalization, with
//!   absorption into the canonical antichain);
//! * **instantiation** `φ(A_SAT)` into the fact-set asked about.
//!
//! Variables never bound by the WHERE clause (`[]` blanks, relation
//! variables, itemset-mining queries with an empty WHERE) are *free*: any
//! vocabulary value is valid for them, and their generation domain is the
//! whole element (or relation) taxonomy.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use oassis_obs::{names, null_sink, EventSink, SinkExt, Span};
use oassis_ql::{Multiplicity, QlRel, QlTerm, Query, SatPattern};
use oassis_sparql::{evaluate_reference, evaluate_where_with_sink, MatchMode, Var};
use oassis_store::{Ontology, Term};
use oassis_vocab::{Fact, FactSet};

use crate::assignment::Assignment;
use crate::engine::NODES_TOTAL_CAP;
use crate::value::AValue;

/// How a `SATISFYING` variable relates to the `WHERE` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Bound by the WHERE clause: values come from SPARQL results.
    Bound,
    /// Free element variable (`[]`, or a named var absent from WHERE).
    FreeElem,
    /// Free relation variable (`$p`, `[]` in relation position).
    FreeRel,
}

/// Errors raised while building an [`AssignSpace`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpaceError {
    /// A variable is used both as an element and as a relation.
    MixedVarUse(String),
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::MixedVarUse(v) => {
                write!(f, "variable ${v} is used both as element and as relation")
            }
        }
    }
}

impl std::error::Error for SpaceError {}

/// The lazily generated assignment DAG for one query.
///
/// The space depends only on the query's `WHERE` and `SATISFYING` clauses,
/// the match mode, the `MORE` domain and the ontology, never on the support
/// threshold or the crowd, so one space can serve every session of a query
/// shape. It memoizes what those sessions would otherwise each derive
/// again: the successor lists of the nodes they reach, and the node count
/// behind the `engine.dag.nodes_total` gauge. Derivations are pure, so
/// sharing them changes no outcome.
#[derive(Debug)]
pub struct AssignSpace {
    ontology: Arc<Ontology>,
    sat_patterns: Vec<SatPattern>,
    more: bool,
    sat_vars: Vec<Var>,
    var_index: HashMap<Var, usize>,
    var_names: Vec<String>,
    mults: Vec<Multiplicity>,
    kinds: Vec<VarKind>,
    /// Positions (into `sat_vars`) of WHERE-bound variables.
    bound_positions: Vec<usize>,
    /// Base valid tuples: one value per bound position.
    base_tuples: Vec<Vec<AValue>>,
    /// Per-variable generation domain (ancestor closure of valid values for
    /// bound vars; `None` = the whole taxonomy, for free vars).
    domains: Vec<Option<HashSet<AValue>>>,
    /// Candidate facts for the `MORE` clause.
    more_domain: Vec<Fact>,
    /// Successor lists derived so far, for every memoizing arena over this
    /// space.
    successors: SuccessorMemo,
    /// The node count up to [`NODES_TOTAL_CAP`], once taken.
    nodes_total: OnceLock<Option<usize>>,
}

/// The successor lists one space has derived, keyed by node. Only the
/// thread that drives the space's sessions locks it, so the lock is
/// uncontended; it makes the space `Sync` for embedders that share one.
#[derive(Default)]
struct SuccessorMemo(Mutex<HashMap<Arc<Assignment>, Successors>>);

/// One node's immediate successors, in order, as the memo hands them out.
type Successors = Arc<[Arc<Assignment>]>;

impl SuccessorMemo {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<Arc<Assignment>, Successors>> {
        self.0.lock().expect("successor memo poisoned")
    }
}

impl fmt::Debug for SuccessorMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SuccessorMemo")
            .field("nodes", &self.lock().len())
            .finish()
    }
}

impl AssignSpace {
    /// Build the space for `query` by evaluating its WHERE clause.
    ///
    /// `more_domain` supplies the candidate extra facts for the `MORE`
    /// keyword (in the real system these come from open-ended crowd answers;
    /// simulations extract them from the simulated members' histories).
    pub fn build(
        ontology: Arc<Ontology>,
        query: &Query,
        mode: MatchMode,
        more_domain: Vec<Fact>,
    ) -> Result<AssignSpace, SpaceError> {
        Self::build_with_sink(ontology, query, mode, more_domain, &null_sink())
    }

    /// [`build`](Self::build) with instrumentation: the WHERE-clause SPARQL
    /// evaluation reports its pattern scans, path-expansion depths and
    /// plan-rewrite counts to `sink` (see `sparql.pattern.scan` /
    /// `sparql.path.depth` / `sparql.plan.*`).
    pub fn build_with_sink(
        ontology: Arc<Ontology>,
        query: &Query,
        mode: MatchMode,
        more_domain: Vec<Fact>,
        sink: &Arc<dyn EventSink>,
    ) -> Result<AssignSpace, SpaceError> {
        Self::build_with_planner(ontology, query, mode, more_domain, sink, true)
    }

    /// [`build_with_sink`](Self::build_with_sink) with an explicit choice of
    /// WHERE evaluator. With `use_planner` the clause is compiled to a
    /// logical plan, rewritten (constraint pushdown, taxonomy unfolding,
    /// empty-branch pruning, join reordering) and interpreted; without it
    /// the naive reference evaluator runs the AST directly — the two agree
    /// binding-for-binding, so this only trades evaluation cost, never
    /// answers. The flag is threaded from
    /// [`EngineConfig::use_query_planner`](crate::EngineConfig).
    pub fn build_with_planner(
        ontology: Arc<Ontology>,
        query: &Query,
        mode: MatchMode,
        more_domain: Vec<Fact>,
        sink: &Arc<dyn EventSink>,
        use_planner: bool,
    ) -> Result<AssignSpace, SpaceError> {
        let sat_vars = query.satisfying_vars();
        let var_index: HashMap<Var, usize> =
            sat_vars.iter().enumerate().map(|(i, v)| (*v, i)).collect();
        let var_names: Vec<String> = sat_vars
            .iter()
            .map(|v| query.vars.name(*v).to_owned())
            .collect();
        let mults: Vec<Multiplicity> = sat_vars.iter().map(|v| query.multiplicity_of(*v)).collect();

        // Classify variables; detect element/relation conflicts.
        let mut kinds: Vec<Option<VarKind>> = vec![None; sat_vars.len()];
        let where_vars: HashSet<Var> = query.where_vars().into_iter().collect();
        for p in &query.satisfying.patterns {
            for t in [&p.subject, &p.object] {
                if let QlTerm::Var(v) = t {
                    let i = var_index[v];
                    let k = if where_vars.contains(v) {
                        VarKind::Bound
                    } else {
                        VarKind::FreeElem
                    };
                    match kinds[i] {
                        None => kinds[i] = Some(k),
                        Some(VarKind::FreeRel) => {
                            return Err(SpaceError::MixedVarUse(var_names[i].clone()))
                        }
                        Some(_) => {}
                    }
                }
            }
            if let QlRel::Var(v) = &p.relation {
                let i = var_index[v];
                match kinds[i] {
                    None => kinds[i] = Some(VarKind::FreeRel),
                    Some(VarKind::FreeRel) => {}
                    Some(_) => return Err(SpaceError::MixedVarUse(var_names[i].clone())),
                }
            }
        }
        let kinds: Vec<VarKind> = kinds
            .into_iter()
            .map(|k| k.expect("every sat var occurs in a sat pattern"))
            .collect();

        let bound_positions: Vec<usize> = (0..sat_vars.len())
            .filter(|&i| kinds[i] == VarKind::Bound)
            .collect();

        // Evaluate WHERE and project bindings onto the bound sat vars.
        let mut base_tuples: Vec<Vec<AValue>> = Vec::new();
        if !bound_positions.is_empty() {
            let bindings = if use_planner {
                evaluate_where_with_sink(&ontology, &query.where_clause, &query.vars, mode, sink)
            } else {
                evaluate_reference(&ontology, &query.where_clause, &query.vars, mode)
            };
            let mut seen = HashSet::new();
            'bind: for b in &bindings {
                let mut tuple = Vec::with_capacity(bound_positions.len());
                for &i in &bound_positions {
                    match b.get(sat_vars[i]) {
                        Some(Term::Element(e)) => tuple.push(AValue::Elem(e)),
                        // Literal-valued or unbound sat vars cannot form
                        // facts; skip such bindings.
                        _ => continue 'bind,
                    }
                }
                if seen.insert(tuple.clone()) {
                    base_tuples.push(tuple);
                }
            }
        }

        // Query anchors: a WHERE pattern chain like `$w subClassOf*
        // Attraction. $x instanceOf $w` bounds the generalization of $w and
        // $x at `Attraction` — the paper's Figure 3 DAG accordingly has
        // (Attraction, Activity) as its most general node, not (Thing,
        // Thing). Collect, per variable, the constant elements it must stay
        // a taxonomy-descendant of, propagating through var-var
        // subClassOf/instanceOf patterns to a fixpoint.
        let taxo_rels: Vec<oassis_vocab::RelationId> =
            [ontology.sub_class_of(), ontology.instance_of()]
                .into_iter()
                .flatten()
                .collect();
        let mut anchors: HashMap<Var, HashSet<oassis_vocab::ElementId>> = HashMap::new();
        loop {
            let mut changed = false;
            // Anchors come from top-level (required) patterns only: a triple
            // inside a UNION branch or OPTIONAL group does not bound every
            // solution, so it must not cap the generation domain. Compound
            // `/`-`|` paths carry no single relation and are skipped.
            for p in query.where_clause.required_triples() {
                let Some(rel) = p.path.relation() else {
                    continue;
                };
                if !taxo_rels.contains(&rel) {
                    continue;
                }
                let Some(v) = p.subject.as_var() else {
                    continue;
                };
                let additions: Vec<oassis_vocab::ElementId> = match &p.object {
                    oassis_sparql::PatTerm::Const(Term::Element(c)) => vec![*c],
                    oassis_sparql::PatTerm::Var(w) => anchors
                        .get(w)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default(),
                    _ => Vec::new(),
                };
                if !additions.is_empty() {
                    let entry = anchors.entry(v).or_default();
                    for c in additions {
                        changed |= entry.insert(c);
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Generation domains: ancestor closure of valid values per bound
        // var, capped at the variable's anchors.
        let vocab = ontology.vocabulary();
        let mut domains: Vec<Option<HashSet<AValue>>> = Vec::with_capacity(sat_vars.len());
        for (i, kind) in kinds.iter().enumerate() {
            match kind {
                VarKind::Bound => {
                    let mut dom: HashSet<AValue> = HashSet::new();
                    let bpos = bound_positions.iter().position(|&p| p == i).unwrap();
                    for t in &base_tuples {
                        if let AValue::Elem(e) = t[bpos] {
                            for a in vocab.elements_order().ancestors(e) {
                                dom.insert(AValue::Elem(a));
                            }
                        }
                    }
                    if let Some(anchor_set) = anchors.get(&sat_vars[i]) {
                        dom.retain(|v| match v {
                            AValue::Elem(e) => anchor_set.iter().all(|c| vocab.elem_leq(*c, *e)),
                            AValue::Rel(_) => true,
                        });
                    }
                    domains.push(Some(dom));
                }
                VarKind::FreeElem | VarKind::FreeRel => domains.push(None),
            }
        }

        Ok(AssignSpace {
            ontology,
            sat_patterns: query.satisfying.patterns.clone(),
            more: query.satisfying.more,
            sat_vars,
            var_index,
            var_names,
            mults,
            kinds,
            bound_positions,
            base_tuples,
            domains,
            more_domain,
            successors: SuccessorMemo::default(),
            nodes_total: OnceLock::new(),
        })
    }

    /// The ontology this space evaluates against.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// Number of `SATISFYING` variables.
    pub fn nvars(&self) -> usize {
        self.sat_vars.len()
    }

    /// Display names of the variables, in dense order.
    pub fn var_names(&self) -> &[String] {
        &self.var_names
    }

    /// The kind of variable `x`.
    pub fn kind(&self, x: usize) -> VarKind {
        self.kinds[x]
    }

    /// The multiplicity of variable `x`.
    pub fn mult(&self, x: usize) -> Multiplicity {
        self.mults[x]
    }

    /// Number of base (mult-free, WHERE-bound) valid tuples.
    pub fn base_count(&self) -> usize {
        self.base_tuples.len()
    }

    /// The `MORE`-fact candidate domain.
    pub fn more_domain(&self) -> &[Fact] {
        &self.more_domain
    }

    /// `a ≤ b` under this space's vocabulary.
    pub fn leq(&self, a: &Assignment, b: &Assignment) -> bool {
        a.leq(b, self.ontology.vocabulary())
    }

    /// Whether `φ ∈ 𝒜` (a generalization of some valid assignment).
    ///
    /// Every selection of one value per bound variable must be pointwise
    /// dominated by a single base tuple; free variables and MORE facts never
    /// constrain membership.
    pub fn in_space(&self, phi: &Assignment) -> bool {
        self.selections_check(phi, |sel, tuple, vocab| {
            sel.iter().zip(tuple).all(|(v, t)| v.leq(t, vocab))
        })
    }

    /// Whether `φ` is *valid*: every bound selection is exactly a base
    /// tuple, every variable's value count is admitted by its multiplicity,
    /// and MORE facts only appear if the query requested them.
    pub fn is_valid(&self, phi: &Assignment) -> bool {
        if !self.more && !phi.more_facts().is_empty() {
            return false;
        }
        for x in 0..self.nvars() {
            if !self.mults[x].admits(phi.values(x).len() as u32) {
                return false;
            }
        }
        self.selections_check(phi, |sel, tuple, _| sel == tuple)
    }

    /// Check `pred(selection, base_tuple)` for every bound-variable
    /// selection: each must have a witnessing base tuple.
    fn selections_check<F>(&self, phi: &Assignment, pred: F) -> bool
    where
        F: Fn(&[AValue], &[AValue], &oassis_vocab::Vocabulary) -> bool,
    {
        if self.bound_positions.is_empty() {
            return true;
        }
        if self.base_tuples.is_empty() {
            // No valid WHERE bindings: only assignments with some empty
            // bound set (which have no selections) are vacuously in 𝒜.
            return self
                .bound_positions
                .iter()
                .any(|&i| phi.values(i).is_empty());
        }
        let vocab = self.ontology.vocabulary();
        let sets: Vec<&[AValue]> = self
            .bound_positions
            .iter()
            .map(|&i| phi.values(i))
            .collect();
        // An empty bound set yields no selections over that variable; the
        // remaining variables must still be coverable. Treat an empty set as
        // the single "wildcard" choice by skipping it in the comparison.
        let mut idx = vec![0usize; sets.len()];
        loop {
            let selection: Vec<Option<AValue>> = sets
                .iter()
                .zip(&idx)
                .map(|(s, &i)| s.get(i).copied())
                .collect();
            let ok = self.base_tuples.iter().any(|tuple| {
                selection.iter().zip(tuple).all(|(sv, tv)| match sv {
                    None => true,
                    Some(v) => pred(std::slice::from_ref(v), std::slice::from_ref(tv), vocab),
                })
            });
            if !ok {
                return false;
            }
            // Advance the mixed-radix counter.
            let mut k = 0;
            loop {
                if k == sets.len() {
                    return true;
                }
                let len = sets[k].len().max(1);
                idx[k] += 1;
                if idx[k] < len {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
        }
    }

    /// The minimal (most general) assignments of `𝒜` — the traversal roots.
    pub fn roots(&self) -> Vec<Assignment> {
        let vocab = self.ontology.vocabulary();
        let mut out: HashSet<Assignment> = HashSet::new();

        // Per-variable minimal value sets.
        let min_sets: Vec<Vec<Vec<AValue>>> = (0..self.nvars())
            .map(|x| {
                if self.mults[x].min() == 0 {
                    return vec![Vec::new()];
                }
                match self.kinds[x] {
                    VarKind::Bound => {
                        // Minimal values of the (anchor-capped) domain.
                        let dom = self.domains[x]
                            .as_ref()
                            .expect("bound vars have explicit domains");
                        let mut roots: HashSet<AValue> = HashSet::new();
                        for v in dom {
                            if self.parents_of(x, *v).is_empty() {
                                roots.insert(*v);
                            }
                        }
                        roots.into_iter().map(|r| vec![r]).collect()
                    }
                    VarKind::FreeElem => vocab
                        .elements_order()
                        .roots()
                        .map(|e| vec![AValue::Elem(e)])
                        .collect(),
                    VarKind::FreeRel => vocab
                        .relations_order()
                        .roots()
                        .map(|r| vec![AValue::Rel(r)])
                        .collect(),
                }
            })
            .collect();

        // Cartesian product of per-variable minimal sets.
        let mut stack: Vec<(usize, Vec<Vec<AValue>>)> = vec![(0, Vec::new())];
        while let Some((x, acc)) = stack.pop() {
            if x == self.nvars() {
                let cand = Assignment::from_sets(acc, vocab);
                if self.in_space(&cand) {
                    out.insert(cand);
                }
                continue;
            }
            for set in &min_sets[x] {
                let mut next = acc.clone();
                next.push(set.clone());
                stack.push((x + 1, next));
            }
        }
        let mut v: Vec<Assignment> = out.into_iter().collect();
        v.sort();
        v
    }

    /// Values available for specializing / extending variable `x`.
    fn children_of(&self, x: usize, v: AValue) -> Vec<AValue> {
        let vocab = self.ontology.vocabulary();
        match (self.kinds[x], v) {
            (VarKind::FreeRel, AValue::Rel(r)) => vocab
                .relations_order()
                .children(r)
                .iter()
                .map(|&c| AValue::Rel(c))
                .collect(),
            (_, AValue::Elem(e)) => {
                let children = vocab.elements_order().children(e);
                match &self.domains[x] {
                    Some(dom) => children
                        .iter()
                        .map(|&c| AValue::Elem(c))
                        .filter(|c| dom.contains(c))
                        .collect(),
                    None => children.iter().map(|&c| AValue::Elem(c)).collect(),
                }
            }
            _ => Vec::new(),
        }
    }

    fn parents_of(&self, x: usize, v: AValue) -> Vec<AValue> {
        let vocab = self.ontology.vocabulary();
        match (self.kinds[x], v) {
            (VarKind::FreeRel, AValue::Rel(r)) => vocab
                .relations_order()
                .parents(r)
                .iter()
                .map(|&p| AValue::Rel(p))
                .collect(),
            (_, AValue::Elem(e)) => {
                let parents = vocab.elements_order().parents(e);
                match &self.domains[x] {
                    // Generalization stops at the query anchors (the domain
                    // is capped there), matching the Figure 3 DAG.
                    Some(dom) => parents
                        .iter()
                        .map(|&p| AValue::Elem(p))
                        .filter(|p| dom.contains(p))
                        .collect(),
                    None => parents.iter().map(|&p| AValue::Elem(p)).collect(),
                }
            }
            _ => Vec::new(),
        }
    }

    /// The full generation domain of variable `x`.
    fn domain_values(&self, x: usize) -> Vec<AValue> {
        let vocab = self.ontology.vocabulary();
        match &self.domains[x] {
            Some(dom) => dom.iter().copied().collect(),
            None => match self.kinds[x] {
                VarKind::FreeRel => vocab.relations().map(|(r, _)| AValue::Rel(r)).collect(),
                _ => vocab.elements().map(|(e, _)| AValue::Elem(e)).collect(),
            },
        }
    }

    /// Immediate successors of `φ` within `𝒜` (lazy DAG edge generation).
    pub fn successors(&self, phi: &Assignment) -> Vec<Assignment> {
        let vocab = self.ontology.vocabulary();
        let mut out: HashSet<Assignment> = HashSet::new();

        for x in 0..self.nvars() {
            let set = phi.values(x);

            // (a) Specialize one value by one taxonomy step.
            for &v in set {
                for c in self.children_of(x, v) {
                    let mut vals: Vec<AValue> = set.iter().copied().filter(|w| *w != v).collect();
                    vals.push(c);
                    let cand = phi.with_values(x, vals, vocab);
                    if phi.lt(&cand, vocab) && self.in_space(&cand) {
                        out.insert(cand);
                    }
                }
            }

            // (b) Extend the set by one value (multiplicity combination,
            // Proposition 5.1), staying within the multiplicity's max and
            // keeping the result an antichain. Immediacy: no strict
            // generalization of the added value would also keep the
            // antichain.
            let max = self.mults[x].max();
            if max.is_none_or(|m| (set.len() as u32) < m) && (set.is_empty() || max != Some(1)) {
                for v in self.domain_values(x) {
                    if set.iter().any(|w| v.leq(w, vocab) || w.leq(&v, vocab)) {
                        continue; // not an antichain
                    }
                    // Immediate only if every parent of v collides with the set
                    // (or v is a root).
                    let parents = self.parents_of(x, v);
                    let immediate = parents.is_empty()
                        || parents
                            .iter()
                            .all(|p| set.iter().any(|w| p.leq(w, vocab) || w.leq(p, vocab)));
                    if !immediate {
                        continue;
                    }
                    let mut vals: Vec<AValue> = set.to_vec();
                    vals.push(v);
                    let cand = phi.with_values(x, vals, vocab);
                    if phi.lt(&cand, vocab) && self.in_space(&cand) {
                        out.insert(cand);
                    }
                }
            }
        }

        // (c) Add one MORE fact. Guards: (i) MORE facts only decorate
        // structurally complete nodes (every mandatory variable bound) —
        // otherwise an empty-variable node plus a MORE fact shadows the
        // assignment that binds the variable properly; (ii) skip facts
        // comparable with the node's own instantiation — extra "advice"
        // that merely restates or refines a mined fact belongs to the
        // variable dimensions, not to MORE.
        if self.more && !self.more_domain.is_empty() {
            let complete =
                (0..self.nvars()).all(|x| !phi.values(x).is_empty() || self.mults[x].min() == 0);
            if complete {
                let inst = self.instantiate(phi);
                for &f in &self.more_domain {
                    if phi.more_facts().contains(&f) {
                        continue;
                    }
                    let overlaps = inst
                        .iter()
                        .any(|g| vocab.fact_leq(&f, g) || vocab.fact_leq(g, &f));
                    if overlaps {
                        continue;
                    }
                    out.insert(phi.with_more_fact(f));
                }
            }
        }

        let mut v: Vec<Assignment> = out.into_iter().collect();
        v.sort();
        v
    }

    /// [`successors`](Self::successors) of `φ`, derived once per space:
    /// every later call, from any session, reads the memo. Only memoizing
    /// [`SpaceCache`] arenas call this; the reference arena and the
    /// exhaustive [`count_nodes_up_to`](Self::count_nodes_up_to) derive
    /// afresh and leave the memo as it is.
    pub(crate) fn successors_shared(&self, phi: &Arc<Assignment>) -> Successors {
        if let Some(succs) = self.successors.lock().get(&**phi) {
            return Arc::clone(succs);
        }
        // Derive outside the lock; a racing derivation of the same node
        // yields the same sorted list, and the first one stored wins.
        let derived: Successors = self.successors(phi).into_iter().map(Arc::new).collect();
        Arc::clone(
            self.successors
                .lock()
                .entry(Arc::clone(phi))
                .or_insert(derived),
        )
    }

    /// How much the successor memo holds: `(nodes derived, successor
    /// entries stored)`.
    #[cfg(test)]
    fn memo_len(&self) -> (usize, usize) {
        let memo = self.successors.lock();
        (memo.len(), memo.values().map(|s| s.len()).sum())
    }

    /// Immediate predecessors of `φ` (always within `𝒜`, which is downward
    /// closed).
    pub fn predecessors(&self, phi: &Assignment) -> Vec<Assignment> {
        let vocab = self.ontology.vocabulary();
        let mut out: HashSet<Assignment> = HashSet::new();

        for x in 0..self.nvars() {
            let set = phi.values(x);
            for &v in set {
                // Generalize v one step; absorption into the antichain also
                // yields the "drop" predecessors.
                for p in self.parents_of(x, v) {
                    let mut vals: Vec<AValue> = set.iter().copied().filter(|w| *w != v).collect();
                    vals.push(p);
                    let cand = phi.with_values(x, vals, vocab);
                    if cand.lt(phi, vocab) {
                        out.insert(cand);
                    }
                }
                // A root value can only be dropped.
                if self.parents_of(x, v).is_empty() && (set.len() > 1 || self.min_floor(x) == 0) {
                    let vals: Vec<AValue> = set.iter().copied().filter(|w| *w != v).collect();
                    let cand = phi.with_values(x, vals, vocab);
                    if cand.lt(phi, vocab) {
                        out.insert(cand);
                    }
                }
            }
        }

        for i in 0..phi.more_facts().len() {
            out.insert(phi.without_more_fact(i));
        }

        let mut v: Vec<Assignment> = out.into_iter().collect();
        v.sort();
        v
    }

    /// The minimal admissible set size used when generating predecessors:
    /// 0 when the multiplicity allows dropping the variable entirely, else 1.
    fn min_floor(&self, x: usize) -> u32 {
        self.mults[x].min().min(1)
    }

    /// Instantiate `φ(A_SAT)`: substitute value sets into the meta-facts
    /// (cross product within each meta-fact; empty sets delete the
    /// meta-fact) and append the MORE facts.
    pub fn instantiate(&self, phi: &Assignment) -> FactSet {
        let mut facts = Vec::new();
        for p in &self.sat_patterns {
            let subjects: Vec<AValue> = match &p.subject {
                QlTerm::Var(v) => phi.values(self.var_index[v]).to_vec(),
                QlTerm::Element(e) => vec![AValue::Elem(*e)],
            };
            let relations: Vec<AValue> = match &p.relation {
                QlRel::Var(v) => phi.values(self.var_index[v]).to_vec(),
                QlRel::Relation(r) => vec![AValue::Rel(*r)],
            };
            let objects: Vec<AValue> = match &p.object {
                QlTerm::Var(v) => phi.values(self.var_index[v]).to_vec(),
                QlTerm::Element(e) => vec![AValue::Elem(*e)],
            };
            for s in &subjects {
                for r in &relations {
                    for o in &objects {
                        if let (AValue::Elem(s), AValue::Rel(r), AValue::Elem(o)) = (s, r, o) {
                            facts.push(Fact::new(*s, *r, *o));
                        }
                    }
                }
            }
        }
        facts.extend_from_slice(phi.more_facts());
        FactSet::from_facts(facts)
    }

    /// The base valid assignments (one per WHERE binding projected onto the
    /// bound variables; free variables left empty), up to `limit`. Used to
    /// seed MORE-fact discovery: their instantiations are the concrete
    /// "when you do X..." contexts members can be prompted about.
    pub fn base_assignments(&self, limit: usize) -> Vec<Assignment> {
        let vocab = self.ontology.vocabulary();
        self.base_tuples
            .iter()
            .take(limit)
            .map(|t| {
                let mut sets: Vec<Vec<AValue>> = vec![Vec::new(); self.nvars()];
                for (bpos, &i) in self.bound_positions.iter().enumerate() {
                    sets[i] = vec![t[bpos]];
                }
                Assignment::from_sets(sets, vocab)
            })
            .collect()
    }

    /// Enumerate all single-valued assignments of `𝒜` over the bound
    /// variables (free variables and MORE excluded): the paper's "DAG
    /// without multiplicities". Returns `None` if `cap` is exceeded.
    pub fn enumerate_single_valued(&self, cap: usize) -> Option<Vec<Assignment>> {
        if self.kinds.iter().any(|k| *k != VarKind::Bound) {
            // Free variables make the single-valued closure the full
            // cross-product with the vocabulary; callers should restrict to
            // bound-only queries (all synthetic experiments do).
            return None;
        }
        let vocab = self.ontology.vocabulary();
        let mut seen: HashSet<Assignment> = HashSet::new();
        let mut queue: Vec<Assignment> = Vec::new();
        for t in &self.base_tuples {
            let a = Assignment::single_valued(t.iter().copied());
            if seen.insert(a.clone()) {
                queue.push(a);
            }
        }
        while let Some(a) = queue.pop() {
            if seen.len() > cap {
                return None;
            }
            for x in 0..self.nvars() {
                let v = a.values(x)[0];
                for p in self.parents_of(x, v) {
                    let cand = a.with_values(x, vec![p], vocab);
                    if seen.insert(cand.clone()) {
                        queue.push(cand);
                    }
                }
            }
        }
        let mut v: Vec<Assignment> = seen.into_iter().collect();
        v.sort();
        Some(v)
    }

    /// Total number of assignment-DAG nodes, counted by exhaustive
    /// traversal from [`Self::roots`] through [`Self::successors`].
    /// Returns `None` once more than `cap` distinct nodes have been
    /// materialized: the space can be astronomically large, and callers
    /// (the `engine.dag.nodes_total` observability gauge, eager baselines
    /// in the bench experiments) only want the count when it is small
    /// enough to be meaningful.
    pub fn count_nodes_up_to(&self, cap: usize) -> Option<usize> {
        let mut seen: HashSet<Assignment> = HashSet::new();
        let mut queue: Vec<Assignment> = Vec::new();
        for r in self.roots() {
            if seen.insert(r.clone()) {
                queue.push(r);
            }
        }
        while let Some(a) = queue.pop() {
            if seen.len() > cap {
                return None;
            }
            for s in self.successors(&a) {
                if seen.insert(s.clone()) {
                    queue.push(s);
                }
            }
        }
        Some(seen.len())
    }

    /// [`count_nodes_up_to`](Self::count_nodes_up_to) with
    /// [`NODES_TOTAL_CAP`], counted once per space, inside an
    /// `engine.dag.count` span on `sink`: the sessions of one query shape
    /// share the first count. The walk fills no memo.
    pub(crate) fn nodes_total(&self, sink: &dyn EventSink) -> Option<usize> {
        *self.nodes_total.get_or_init(|| {
            let _span = Span::enter(sink, names::SPAN_DAG_COUNT);
            self.count_nodes_up_to(NODES_TOTAL_CAP)
        })
    }
}

/// Interned handle of one assignment in a [`SpaceCache`] arena. An id
/// stays valid for the whole run: the arena never evicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A run of ids in [`SpaceCache::edges`]: one node's memoized successors
/// or predecessors.
#[derive(Debug, Clone, Copy)]
struct Edges {
    start: u32,
    len: u32,
}

/// One interned assignment and its memoized derivations.
#[derive(Debug)]
struct Node {
    assignment: Arc<Assignment>,
    succs: Option<Edges>,
    preds: Option<Edges>,
    valid: Option<bool>,
    inst: Option<FactSet>,
}

/// The run's node arena over one [`AssignSpace`].
///
/// Every assignment a walk reaches is interned once and handed out as a
/// [`NodeId`] that stays valid for the whole run, so the walks keep ids on
/// their stacks, mark visits in per-node vectors and look successors up
/// by index: a visit hashes, locks and clones nothing. The arena is owned
/// by one run through `&mut` and allocates nothing until the first intern.
///
/// A memoizing arena ([`new`](Self::new)) also keeps each node's
/// derivations — successor and predecessor ids, validity, the
/// instantiated fact-set — computed on first use. On its first successor
/// lookup of a node it reads the space's shared successor memo, so a node
/// is derived once per query shape, not once per session. Derivations
/// are deterministic (sorted before return), so memoization is
/// observationally invisible. The [`reference`](Self::reference) arena
/// (`use_indexes = false`) recomputes every derivation on every call,
/// reads no memo and shares only the interning. With an enabled sink, a
/// memoizing arena reports each lookup of its own memo on
/// `space.cache.hit` / `space.cache.miss`, labeled by operation.
#[derive(Debug)]
pub struct SpaceCache {
    memoize: bool,
    sink: Arc<dyn EventSink>,
    counting: bool,
    ids: HashMap<Arc<Assignment>, NodeId>,
    nodes: Vec<Node>,
    /// Successor and predecessor ids of every derived node, back to back.
    edges: Vec<NodeId>,
    /// The space's roots, derived once per run (memoizing arenas only).
    roots: Option<Vec<NodeId>>,
    /// The reference arena's last instantiation.
    computed: FactSet,
}

impl Default for SpaceCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SpaceCache {
    /// A memoizing arena with no instrumentation.
    pub fn new() -> Self {
        Self::with_sink(null_sink())
    }

    /// A memoizing arena reporting hit/miss counters to `sink`.
    pub fn with_sink(sink: Arc<dyn EventSink>) -> Self {
        Self::build(true, sink)
    }

    /// An arena that interns but memoizes nothing: every derivation is
    /// recomputed on every call. The un-indexed reference path.
    pub fn reference() -> Self {
        Self::build(false, null_sink())
    }

    fn build(memoize: bool, sink: Arc<dyn EventSink>) -> Self {
        SpaceCache {
            memoize,
            counting: memoize && sink.enabled(),
            sink,
            ids: HashMap::new(),
            nodes: Vec::new(),
            edges: Vec::new(),
            roots: None,
            computed: FactSet::default(),
        }
    }

    /// Number of interned assignments.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no assignment has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The id of `phi`, interning it on first sight.
    pub fn intern(&mut self, phi: &Assignment) -> NodeId {
        if let Some(&id) = self.ids.get(phi) {
            return id;
        }
        self.insert(Arc::new(phi.clone()))
    }

    /// [`intern`](Self::intern) of an owned assignment (no clone when new).
    fn intern_owned(&mut self, phi: Assignment) -> NodeId {
        match self.ids.get(&phi) {
            Some(&id) => id,
            None => self.insert(Arc::new(phi)),
        }
    }

    /// [`intern`](Self::intern) of a shared assignment (no deep clone).
    fn intern_shared(&mut self, phi: &Arc<Assignment>) -> NodeId {
        match self.ids.get(&**phi) {
            Some(&id) => id,
            None => self.insert(Arc::clone(phi)),
        }
    }

    fn insert(&mut self, phi: Arc<Assignment>) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node arena overflow"));
        self.ids.insert(Arc::clone(&phi), id);
        self.nodes.push(Node {
            assignment: phi,
            succs: None,
            preds: None,
            valid: None,
            inst: None,
        });
        id
    }

    /// The assignment interned as `id`.
    pub fn assignment(&self, id: NodeId) -> &Assignment {
        &self.nodes[id.index()].assignment
    }

    fn count(&self, op: &str, hit: bool) {
        if self.counting {
            let name = if hit {
                names::SPACE_CACHE_HIT
            } else {
                names::SPACE_CACHE_MISS
            };
            self.sink.count_labeled(name, op, 1);
        }
    }

    /// The roots of `space` ([`AssignSpace::roots`]), in order, into `out`.
    pub fn roots_into(&mut self, space: &AssignSpace, out: &mut Vec<NodeId>) {
        out.clear();
        if let Some(roots) = &self.roots {
            out.extend_from_slice(roots);
            return;
        }
        for root in space.roots() {
            let id = self.intern_owned(root);
            out.push(id);
        }
        if self.memoize {
            self.roots = Some(out.clone());
        }
    }

    /// The immediate successors of `id` ([`AssignSpace::successors`]), in
    /// order, into `out`.
    pub fn successors_into(&mut self, space: &AssignSpace, id: NodeId, out: &mut Vec<NodeId>) {
        self.derive_into(space, id, out, true);
    }

    /// The immediate predecessors of `id` ([`AssignSpace::predecessors`]),
    /// in order, into `out`.
    pub fn predecessors_into(&mut self, space: &AssignSpace, id: NodeId, out: &mut Vec<NodeId>) {
        self.derive_into(space, id, out, false);
    }

    fn derive_into(&mut self, space: &AssignSpace, id: NodeId, out: &mut Vec<NodeId>, succs: bool) {
        out.clear();
        let node = &self.nodes[id.index()];
        let memo = if succs { node.succs } else { node.preds };
        let op = if succs { "successors" } else { "predecessors" };
        if let Some(e) = memo {
            self.count(op, true);
            out.extend_from_slice(&self.edges[e.start as usize..(e.start + e.len) as usize]);
            return;
        }
        if succs && self.memoize {
            for phi in space.successors_shared(&node.assignment).iter() {
                let id = self.intern_shared(phi);
                out.push(id);
            }
        } else {
            let derived = if succs {
                space.successors(&node.assignment)
            } else {
                space.predecessors(&node.assignment)
            };
            for phi in derived {
                let id = self.intern_owned(phi);
                out.push(id);
            }
        }
        if self.memoize {
            self.count(op, false);
            let edges = Some(Edges {
                start: u32::try_from(self.edges.len()).expect("edge arena overflow"),
                len: out.len() as u32,
            });
            self.edges.extend_from_slice(out);
            let node = &mut self.nodes[id.index()];
            if succs {
                node.succs = edges;
            } else {
                node.preds = edges;
            }
        }
    }

    /// [`AssignSpace::is_valid`] of `id`.
    pub fn is_valid(&mut self, space: &AssignSpace, id: NodeId) -> bool {
        if !self.memoize {
            return space.is_valid(self.assignment(id));
        }
        let hit = self.nodes[id.index()].valid.is_some();
        self.count("valid", hit);
        let node = &mut self.nodes[id.index()];
        *node
            .valid
            .get_or_insert_with(|| space.is_valid(&node.assignment))
    }

    /// [`AssignSpace::instantiate`] of `id`.
    pub fn factset(&mut self, space: &AssignSpace, id: NodeId) -> &FactSet {
        if !self.memoize {
            self.computed = space.instantiate(self.assignment(id));
            return &self.computed;
        }
        let hit = self.nodes[id.index()].inst.is_some();
        self.count("instantiate", hit);
        let node = &mut self.nodes[id.index()];
        node.inst
            .get_or_insert_with(|| space.instantiate(&node.assignment))
    }
}

/// A set of node ids, one bit per node, grown on demand.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeSet(Vec<u64>);

impl NodeSet {
    /// Add `id`; returns whether it was absent.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let (word, bit) = (id.index() / 64, 1u64 << (id.0 % 64));
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: NodeId) -> bool {
        self.0
            .get(id.index() / 64)
            .is_some_and(|w| w & (1u64 << (id.0 % 64)) != 0)
    }
}

/// Visit marks for repeated walks: a node is seen in the current walk when
/// its stamp equals the walk's epoch, so starting a walk clears nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeStamps {
    stamps: Vec<u32>,
    epoch: u32,
}

impl NodeStamps {
    /// Start a new walk: every node becomes unseen.
    pub fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Mark `id` seen in the current walk; returns whether it was unseen.
    pub fn insert(&mut self, id: NodeId) -> bool {
        if id.index() >= self.stamps.len() {
            self.stamps.resize(id.index() + 1, 0);
        }
        let stamp = &mut self.stamps[id.index()];
        let fresh = *stamp != self.epoch;
        *stamp = self.epoch;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_ql::parse_query;
    use oassis_store::ontology::figure1_ontology;

    /// The grey-highlighted fragment of the running example that Figure 3
    /// illustrates: attractions in NYC and activities done there.
    const FIG3_QUERY: &str = r#"
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

    fn fig3_space() -> AssignSpace {
        let o = Arc::new(figure1_ontology());
        let q = parse_query(FIG3_QUERY, &o).unwrap();
        AssignSpace::build(o, &q, MatchMode::Semantic, Vec::new()).unwrap()
    }

    fn val(space: &AssignSpace, name: &str) -> AValue {
        AValue::Elem(space.ontology().vocabulary().element(name).unwrap())
    }

    /// Assignment over (y, x) — note the sat-var order is first-use order:
    /// $y appears before $x in `$y+ doAt $x`.
    fn assign(space: &AssignSpace, y: &str, x: &str) -> Assignment {
        Assignment::single_valued([val(space, y), val(space, x)])
    }

    #[test]
    fn sat_var_order_and_kinds() {
        let s = fig3_space();
        assert_eq!(s.var_names(), &["y".to_owned(), "x".to_owned()]);
        assert_eq!(s.kind(0), VarKind::Bound);
        assert_eq!(s.kind(1), VarKind::Bound);
        assert!(s.base_count() > 0);
    }

    #[test]
    fn validity_matches_figure3() {
        let s = fig3_space();
        // Node 16: (Biking, Central Park) — valid.
        assert!(s.is_valid(&assign(&s, "Biking", "Central Park")));
        // Node 15: (Sport, Central Park) — valid (Sport subClassOf* Activity).
        assert!(s.is_valid(&assign(&s, "Sport", "Central Park")));
        // Node 7 style: (Sport, Park) — x must be an instance ⇒ invalid,
        // but still in 𝒜 (a generalization of node 15).
        let n7 = assign(&s, "Sport", "Park");
        assert!(!s.is_valid(&n7));
        assert!(s.in_space(&n7));
        // (Pasta, Central Park): Pasta is not an Activity ⇒ not even in 𝒜.
        let bad = assign(&s, "Pasta", "Central Park");
        assert!(!s.in_space(&bad));
        assert!(!s.is_valid(&bad));
    }

    #[test]
    fn multiplicity_validity() {
        let s = fig3_space();
        let vocab = s.ontology().vocabulary().clone();
        // {Biking, Ball Game} at Central Park (node 18): valid for $y+.
        let n18 = Assignment::from_sets(
            vec![
                vec![val(&s, "Biking"), val(&s, "Ball Game")],
                vec![val(&s, "Central Park")],
            ],
            &vocab,
        );
        assert!(s.is_valid(&n18), "multiplicity-2 combination is valid");
        assert!(s.in_space(&n18));
        // Empty $y is not admitted by `+`.
        let empty_y = Assignment::from_sets(vec![vec![], vec![val(&s, "Central Park")]], &vocab);
        assert!(!s.is_valid(&empty_y));
        assert!(s.in_space(&empty_y), "but it is a generalization");
    }

    #[test]
    fn roots_are_most_general() {
        let s = fig3_space();
        let roots = s.roots();
        assert!(!roots.is_empty());
        for r in &roots {
            assert!(s.in_space(r));
            for p in s.predecessors(r) {
                assert!(
                    !s.in_space(&p) || !p.lt(r, s.ontology().vocabulary()),
                    "root {r} has a predecessor {p} in 𝒜"
                );
            }
        }
        // The Figure 3 root (Activity, Attraction) — in sat-var order (y, x).
        let expected = assign(&s, "Activity", "Attraction");
        assert!(roots.contains(&expected), "roots: {roots:?}");
    }

    #[test]
    fn successors_specialize_one_step() {
        let s = fig3_space();
        let root = assign(&s, "Activity", "Attraction");
        let succs = s.successors(&root);
        assert!(succs.contains(&assign(&s, "Sport", "Attraction")));
        assert!(succs.contains(&assign(&s, "Activity", "Outdoor")));
        // Two steps away — not immediate.
        assert!(!succs.contains(&assign(&s, "Biking", "Attraction")));
        for su in &succs {
            assert!(root.lt(su, s.ontology().vocabulary()));
            assert!(s.in_space(su));
        }
    }

    #[test]
    fn successors_include_multiplicity_combinations() {
        let s = fig3_space();
        let vocab = s.ontology().vocabulary().clone();
        let n16 = assign(&s, "Biking", "Central Park");
        let succs = s.successors(&n16);
        // Node 18 = {Biking, Ball Game} is an immediate successor of 16
        // (adding Ball Game: its parent Sport collides with Biking).
        let n18 = Assignment::from_sets(
            vec![
                vec![val(&s, "Biking"), val(&s, "Ball Game")],
                vec![val(&s, "Central Park")],
            ],
            &vocab,
        );
        assert!(succs.contains(&n18), "succs: {succs:?}");
        // But not {Biking, Basketball} directly (Ball Game lies between).
        let skip = Assignment::from_sets(
            vec![
                vec![val(&s, "Biking"), val(&s, "Basketball")],
                vec![val(&s, "Central Park")],
            ],
            &vocab,
        );
        assert!(!succs.contains(&skip));
    }

    #[test]
    fn predecessors_invert_successors() {
        let s = fig3_space();
        let node = assign(&s, "Sport", "Park");
        for su in s.successors(&node) {
            assert!(
                s.predecessors(&su).contains(&node),
                "{node} should be a predecessor of {su}"
            );
        }
        let preds = s.predecessors(&node);
        assert!(preds.contains(&assign(&s, "Activity", "Park")));
        assert!(preds.contains(&assign(&s, "Sport", "Outdoor")));
    }

    #[test]
    fn multiplicity_node_predecessors_drop_or_generalize() {
        let s = fig3_space();
        let vocab = s.ontology().vocabulary().clone();
        let n18 = Assignment::from_sets(
            vec![
                vec![val(&s, "Biking"), val(&s, "Ball Game")],
                vec![val(&s, "Central Park")],
            ],
            &vocab,
        );
        let preds = s.predecessors(&n18);
        // Generalizing Biking → Sport absorbs into Ball Game? No: Sport ≤
        // Ball Game, so {Sport, Ball Game} canonicalizes to {Ball Game} = 17.
        assert!(preds.contains(&assign(&s, "Ball Game", "Central Park")));
        // Generalizing Ball Game → Sport absorbs Biking's side similarly.
        assert!(preds.contains(&assign(&s, "Biking", "Central Park")));
    }

    #[test]
    fn instantiate_cross_product_and_more() {
        let s = fig3_space();
        let vocab = s.ontology().vocabulary().clone();
        let n18 = Assignment::from_sets(
            vec![
                vec![val(&s, "Biking"), val(&s, "Ball Game")],
                vec![val(&s, "Central Park")],
            ],
            &vocab,
        );
        let fs = s.instantiate(&n18);
        assert_eq!(fs.len(), 2, "{fs}");
        let rendered = vocab.factset_to_string(&fs);
        assert!(rendered.contains("Biking doAt Central Park"));
        assert!(rendered.contains("Ball Game doAt Central Park"));

        let rent = Fact::new(
            vocab.element("Rent Bikes").unwrap(),
            vocab.relation("doAt").unwrap(),
            vocab.element("Boathouse").unwrap(),
        );
        let with_more = n18.with_more_fact(rent);
        let fs2 = s.instantiate(&with_more);
        assert_eq!(fs2.len(), 3);
    }

    #[test]
    fn empty_set_deletes_meta_fact() {
        let s = fig3_space();
        let vocab = s.ontology().vocabulary().clone();
        let empty_y = Assignment::from_sets(vec![vec![], vec![val(&s, "Central Park")]], &vocab);
        assert!(s.instantiate(&empty_y).is_empty());
    }

    #[test]
    fn enumerate_single_valued_closure() {
        let s = fig3_space();
        let all = s.enumerate_single_valued(100_000).unwrap();
        assert!(!all.is_empty());
        // Every enumerated node is in 𝒜, single-valued, and the base valid
        // assignments are included.
        for a in &all {
            assert!(a.is_single_valued());
            assert!(s.in_space(a));
        }
        assert!(all.contains(&assign(&s, "Biking", "Central Park")));
        assert!(all.contains(&assign(&s, "Activity", "Attraction")));
        // Closed under predecessors.
        for a in all.iter().take(50) {
            for p in s.predecessors(a) {
                if p.is_single_valued() {
                    assert!(all.contains(&p), "missing predecessor {p} of {a}");
                }
            }
        }
    }

    #[test]
    fn free_variable_space() {
        let o = Arc::new(figure1_ontology());
        let q = parse_query(
            "SELECT FACT-SETS WHERE SATISFYING $x+ [] [] WITH SUPPORT = 0.1",
            &o,
        )
        .unwrap();
        let s = AssignSpace::build(Arc::clone(&o), &q, MatchMode::Semantic, Vec::new()).unwrap();
        assert_eq!(s.kind(0), VarKind::FreeElem);
        assert_eq!(s.kind(1), VarKind::FreeRel);
        assert_eq!(s.kind(2), VarKind::FreeElem);
        // Everything is in 𝒜 and single-valued assignments are valid.
        let thing = AValue::Elem(o.vocabulary().element("Thing").unwrap());
        let do_at = AValue::Rel(o.vocabulary().relation("doAt").unwrap());
        let cp = AValue::Elem(o.vocabulary().element("Central Park").unwrap());
        let a = Assignment::single_valued([thing, do_at, cp]);
        assert!(s.in_space(&a));
        assert!(s.is_valid(&a));
        assert!(
            s.enumerate_single_valued(1000).is_none(),
            "free vars refuse enumeration"
        );
        assert!(!s.roots().is_empty());
    }

    #[test]
    fn planner_and_reference_build_identical_spaces() {
        let o = Arc::new(figure1_ontology());
        let q = parse_query(FIG3_QUERY, &o).unwrap();
        for mode in [MatchMode::Syntactic, MatchMode::Semantic] {
            let planned = AssignSpace::build_with_planner(
                Arc::clone(&o),
                &q,
                mode,
                Vec::new(),
                &null_sink(),
                true,
            )
            .unwrap();
            let reference = AssignSpace::build_with_planner(
                Arc::clone(&o),
                &q,
                mode,
                Vec::new(),
                &null_sink(),
                false,
            )
            .unwrap();
            assert_eq!(planned.base_count(), reference.base_count(), "{mode:?}");
            assert_eq!(planned.base_tuples, reference.base_tuples, "{mode:?}");
            assert_eq!(planned.roots(), reference.roots(), "{mode:?}");
        }
    }

    #[test]
    fn filtered_where_narrows_the_space() {
        let o = Arc::new(figure1_ontology());
        let base = parse_query(FIG3_QUERY, &o).unwrap();
        let filtered = parse_query(
            r#"
            SELECT FACT-SETS
            WHERE
              $w subClassOf* Attraction.
              $x instanceOf $w.
              $x inside NYC.
              $x hasLabel "child-friendly".
              $y subClassOf* Activity.
              FILTER($x IN (<Central Park>))
            SATISFYING
              $y+ doAt $x
            WITH SUPPORT = 0.4
            "#,
            &o,
        )
        .unwrap();
        let s_base =
            AssignSpace::build(Arc::clone(&o), &base, MatchMode::Semantic, Vec::new()).unwrap();
        let s_filt =
            AssignSpace::build(Arc::clone(&o), &filtered, MatchMode::Semantic, Vec::new()).unwrap();
        assert!(s_filt.base_count() < s_base.base_count());
        assert!(s_filt.base_count() > 0);
        // The filtered space only mentions Central Park on the $x side.
        let cp = val(&s_filt, "Central Park");
        for t in &s_filt.base_tuples {
            assert_eq!(t[1], cp);
        }
    }

    #[test]
    fn mixed_var_use_is_rejected() {
        let o = Arc::new(figure1_ontology());
        let q = parse_query(
            "SELECT FACT-SETS WHERE SATISFYING $x doAt $y. $y $x $z WITH SUPPORT = 0.1",
            &o,
        )
        .unwrap();
        assert!(matches!(
            AssignSpace::build(o, &q, MatchMode::Semantic, Vec::new()),
            Err(SpaceError::MixedVarUse(_))
        ));
    }

    #[test]
    fn space_cache_matches_direct_derivation() {
        let s = fig3_space();
        let root = assign(&s, "Activity", "Attraction");
        let assignments = |cache: &SpaceCache, ids: &[NodeId]| -> Vec<Assignment> {
            ids.iter().map(|&n| cache.assignment(n).clone()).collect()
        };
        for mut cache in [SpaceCache::new(), SpaceCache::reference()] {
            assert!(cache.is_empty(), "nothing is allocated up front");
            let id = cache.intern(&root);
            assert_eq!(cache.intern(&root), id, "stable NodeId");
            assert_eq!(cache.assignment(id), &root);
            let mut out = Vec::new();
            // The second pass is served from the memo (when memoizing).
            for _ in 0..2 {
                cache.successors_into(&s, id, &mut out);
                assert_eq!(assignments(&cache, &out), s.successors(&root));
                cache.predecessors_into(&s, id, &mut out);
                assert_eq!(assignments(&cache, &out), s.predecessors(&root));
                cache.roots_into(&s, &mut out);
                assert_eq!(assignments(&cache, &out), s.roots());
                assert_eq!(cache.is_valid(&s, id), s.is_valid(&root));
                assert_eq!(*cache.factset(&s, id), s.instantiate(&root));
            }
            assert_eq!(cache.intern(&root), id, "ids survive derivation");
        }
    }

    #[test]
    fn space_cache_counts_lookups_only_for_an_enabled_sink() {
        let s = fig3_space();
        let sink = Arc::new(oassis_obs::InMemorySink::new());
        let mut cache = SpaceCache::with_sink(Arc::clone(&sink) as Arc<dyn EventSink>);
        let id = cache.intern(&assign(&s, "Activity", "Attraction"));
        let mut out = Vec::new();
        cache.successors_into(&s, id, &mut out);
        cache.successors_into(&s, id, &mut out);
        let snapshot = sink.snapshot();
        assert_eq!(snapshot.counter("space.cache.miss[successors]"), 1);
        assert_eq!(snapshot.counter("space.cache.hit[successors]"), 1);

        let mut quiet = SpaceCache::with_sink(Arc::new(oassis_obs::NullSink));
        assert!(!quiet.counting, "a disabled sink is never called");
        let id = quiet.intern(&assign(&s, "Activity", "Attraction"));
        quiet.successors_into(&s, id, &mut out);
        assert!(!SpaceCache::reference().counting);
    }

    #[test]
    fn memoizing_arenas_share_the_successor_memo() {
        let s = fig3_space();
        let root = assign(&s, "Activity", "Attraction");
        let derived = |cache: &mut SpaceCache| {
            let id = cache.intern(&root);
            let mut out = Vec::new();
            cache.successors_into(&s, id, &mut out);
            out.iter()
                .map(|&n| cache.assignment(n).clone())
                .collect::<Vec<_>>()
        };
        // The reference arena and the exhaustive count derive afresh and
        // leave the memo as it is.
        assert_eq!(derived(&mut SpaceCache::reference()), s.successors(&root));
        assert!(s.nodes_total(&*null_sink()).is_some());
        assert_eq!(s.memo_len(), (0, 0));
        // The first memoizing arena fills the memo; a second one reads it.
        let succs = s.successors(&root);
        assert_eq!(derived(&mut SpaceCache::new()), succs);
        assert_eq!(s.memo_len(), (1, succs.len()));
        assert_eq!(derived(&mut SpaceCache::new()), succs);
        assert_eq!(s.memo_len(), (1, succs.len()));
    }

    #[test]
    fn node_marks_grow_on_demand() {
        let mut set = NodeSet::default();
        assert!(set.insert(NodeId(70)));
        assert!(!set.insert(NodeId(70)));
        assert!(set.contains(NodeId(70)) && !set.contains(NodeId(3)));
        let mut seen = NodeStamps::default();
        seen.begin();
        assert!(seen.insert(NodeId(5)));
        assert!(!seen.insert(NodeId(5)));
        seen.begin();
        assert!(seen.insert(NodeId(5)), "a new walk starts unseen");
    }

    #[test]
    fn more_facts_generate_successors() {
        let o = Arc::new(figure1_ontology());
        let vocab = o.vocabulary().clone();
        let rent = Fact::new(
            vocab.element("Rent Bikes").unwrap(),
            vocab.relation("doAt").unwrap(),
            vocab.element("Boathouse").unwrap(),
        );
        let q = parse_query(
            r#"SELECT FACT-SETS
               WHERE $y subClassOf* Activity
               SATISFYING $y doAt <Central Park>. MORE
               WITH SUPPORT = 0.4"#,
            &o,
        )
        .unwrap();
        let s = AssignSpace::build(Arc::clone(&o), &q, MatchMode::Semantic, vec![rent]).unwrap();
        let biking = Assignment::single_valued([AValue::Elem(vocab.element("Biking").unwrap())]);
        let succs = s.successors(&biking);
        assert!(succs.iter().any(|a| a.more_facts() == [rent]));
        // And validity allows MORE facts.
        let with_more = biking.with_more_fact(rent);
        assert!(s.is_valid(&with_more));
        // Dropping the MORE fact is a predecessor.
        assert!(s.predecessors(&with_more).contains(&biking));
    }
}
