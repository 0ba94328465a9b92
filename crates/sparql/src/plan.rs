//! Logical query plans: an IR for WHERE clauses, an optimizing rewriter,
//! and an `EXPLAIN`-style rendering.
//!
//! [`compile`] lowers a [`WhereClause`] into a [`Plan`] tree that mirrors
//! the query's syntactic shape (scans in source order, filters attached to
//! their group). [`optimize`] then rewrites it:
//!
//! * **Filter pushdown** — positive per-variable constraints (`$x = c`,
//!   `$x IN (...)`) become `subject∈`/`object∈` restrictions on every scan
//!   below the filter that mentions the variable. The residual filter is
//!   kept (pushdown narrows scans, it never changes semantics).
//! * **Taxonomy-aware path unfolding** — a `rel*`/`rel+` scan whose matched
//!   relations *mirror* the element taxonomy (every stored edge is a
//!   strict `≤E` step, and every Hasse edge of `≤E` is stored) is answered
//!   by O(1) interval-style reachability checks (`elements_order`
//!   descendants bitsets) instead of BFS over stored edges. In semantic
//!   mode with `subClassOf ≤R instanceOf` this covers the paper's
//!   `subClassOf*` chains; in syntactic mode the mirror check fails
//!   (instanceOf edges are not matched) and BFS is kept — preserving the
//!   "instances are reached only via instanceOf" semantics.
//! * **Empty-branch pruning** — provably empty scans collapse to
//!   [`PlanOp::Empty`], which then annihilates joins, drops union
//!   branches, and erases optional arms.
//! * **Join reordering** — the greedy most-selective-first order, extended
//!   with a stable total-order tie-break (the operand's source position)
//!   so the plan shape is byte-identical across runs.

use std::collections::{HashMap, HashSet};

use oassis_store::{Ontology, Term};
use oassis_vocab::RelationId;

use crate::ast::{
    FilterExpr, FilterTerm, GraphPattern, GroupItem, PatTerm, PropPath, SortDir, TriplePattern,
    Var, VarTable, WhereClause,
};
use crate::eval::MatchMode;

/// A plan node with its cardinality estimate (rows it may emit, from
/// per-relation stored-triple counts; heuristic, not a bound).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The operator.
    pub op: PlanOp,
    /// Estimated output cardinality.
    pub est: usize,
}

/// Plan operators.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Provably no solutions.
    Empty,
    /// Enumerate matches of one triple pattern, under the evaluation's
    /// match mode, restricted by pushed-down value sets.
    Scan {
        /// The pattern to match.
        pattern: TriplePattern,
        /// Pushed-down admissible subject values (`None` = unrestricted).
        subject_in: Option<Vec<Term>>,
        /// Pushed-down admissible object values (`None` = unrestricted).
        object_in: Option<Vec<Term>>,
        /// Answer `rel*`/`rel+` by taxonomy reachability instead of BFS.
        taxo_unfold: bool,
    },
    /// Natural join of the children, evaluated left to right (an empty
    /// child list is the identity: one empty binding).
    Join(Vec<Plan>),
    /// SPARQL `OPTIONAL`: keep every left row, extended by right matches
    /// when they exist.
    LeftJoin(Box<Plan>, Box<Plan>),
    /// SPARQL `UNION`: concatenate branch solutions.
    Union(Vec<Plan>),
    /// Keep rows passing every expression (unbound variables fail).
    Filter(Box<Plan>, Vec<FilterExpr>),
    /// Keep only the listed variables bound (others become unbound).
    Project(Box<Plan>, Vec<Var>),
    /// Sort by full binding value and drop duplicates (set semantics).
    Distinct(Box<Plan>),
    /// Stable sort by `ORDER BY` keys (unbound sorts first).
    Sort(Box<Plan>, Vec<(Var, SortDir)>),
    /// `OFFSET`/`LIMIT` applied to the ordered solution list.
    Slice(Box<Plan>, u64, Option<u64>),
}

impl Plan {
    fn new(op: PlanOp, est: usize) -> Plan {
        Plan { op, est }
    }

    /// Variables any scan below this node can bind.
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        self.collect_vars(&mut seen, &mut out);
        out
    }

    fn collect_vars(&self, seen: &mut HashSet<Var>, out: &mut Vec<Var>) {
        match &self.op {
            PlanOp::Empty => {}
            PlanOp::Scan { pattern, .. } => {
                for v in pattern.vars() {
                    if seen.insert(v) {
                        out.push(v);
                    }
                }
            }
            PlanOp::Join(cs) | PlanOp::Union(cs) => {
                cs.iter().for_each(|c| c.collect_vars(seen, out))
            }
            PlanOp::LeftJoin(l, r) => {
                l.collect_vars(seen, out);
                r.collect_vars(seen, out);
            }
            PlanOp::Filter(c, _)
            | PlanOp::Project(c, _)
            | PlanOp::Distinct(c)
            | PlanOp::Sort(c, _)
            | PlanOp::Slice(c, _, _) => c.collect_vars(seen, out),
        }
    }

    /// Number of operator nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + match &self.op {
            PlanOp::Empty | PlanOp::Scan { .. } => 0,
            PlanOp::Join(cs) | PlanOp::Union(cs) => cs.iter().map(Plan::node_count).sum(),
            PlanOp::LeftJoin(l, r) => l.node_count() + r.node_count(),
            PlanOp::Filter(c, _)
            | PlanOp::Project(c, _)
            | PlanOp::Distinct(c)
            | PlanOp::Sort(c, _)
            | PlanOp::Slice(c, _, _) => c.node_count(),
        }
    }
}

/// What the optimizer did to a plan (for instrumentation and benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanReport {
    /// Scans that received a pushed-down value restriction.
    pub pushdowns: usize,
    /// Path scans switched to taxonomy reachability.
    pub unfolds: usize,
    /// Subtrees collapsed to `Empty` (or erased entirely).
    pub pruned: usize,
}

/// Lower `clause` to an unoptimized plan: scans in source order, filters
/// applied at their group, modifiers as a `Distinct`/`Sort`/`Slice` shell.
pub fn compile(ontology: &Ontology, clause: &WhereClause, mode: MatchMode) -> Plan {
    let mut planner = Planner::new(ontology, mode);
    let body = planner.compile_group(&clause.pattern);
    let est = body.est;
    let mut plan = Plan::new(PlanOp::Distinct(Box::new(body)), est);
    if !clause.order_by.is_empty() {
        plan = Plan::new(PlanOp::Sort(Box::new(plan), clause.order_by.clone()), est);
    }
    if clause.limit.is_some() || clause.offset > 0 {
        let est = clause
            .limit
            .map_or(est, |l| est.min(usize::try_from(l).unwrap_or(usize::MAX)));
        plan = Plan::new(
            PlanOp::Slice(Box::new(plan), clause.offset, clause.limit),
            est,
        );
    }
    plan
}

/// Rewrite `plan` (pushdown, unfolding, pruning, join reordering) and
/// report what changed.
pub fn optimize_report(ontology: &Ontology, plan: Plan, mode: MatchMode) -> (Plan, PlanReport) {
    let mut planner = Planner::new(ontology, mode);
    let mut bound = HashSet::new();
    let optimized = planner.optimize_node(plan, &mut bound);
    (optimized, planner.report)
}

/// [`optimize_report`] without the report.
pub fn optimize(ontology: &Ontology, plan: Plan, mode: MatchMode) -> Plan {
    optimize_report(ontology, plan, mode).0
}

/// Shared state for one compile/optimize pass.
struct Planner<'a> {
    ontology: &'a Ontology,
    mode: MatchMode,
    /// Per pattern-relation match list under `mode`.
    rel_matches: HashMap<RelationId, Vec<RelationId>>,
    /// Memoized taxonomy-mirror verdicts per pattern relation.
    unfold_cache: HashMap<RelationId, bool>,
    report: PlanReport,
}

impl<'a> Planner<'a> {
    fn new(ontology: &'a Ontology, mode: MatchMode) -> Self {
        Planner {
            ontology,
            mode,
            rel_matches: HashMap::new(),
            unfold_cache: HashMap::new(),
            report: PlanReport::default(),
        }
    }

    fn match_rels(&mut self, r: RelationId) -> &[RelationId] {
        let ontology = self.ontology;
        let mode = self.mode;
        self.rel_matches.entry(r).or_insert_with(|| match mode {
            MatchMode::Syntactic => vec![r],
            MatchMode::Semantic => ontology
                .vocabulary()
                .relations_order()
                .descendants(r)
                .collect(),
        })
    }

    // ---- compile -------------------------------------------------------

    fn compile_group(&mut self, group: &GraphPattern) -> Plan {
        let mut join_children: Vec<Plan> = Vec::new();
        let mut optionals: Vec<Plan> = Vec::new();
        let mut filters: Vec<FilterExpr> = Vec::new();
        for item in &group.items {
            match item {
                GroupItem::Triple(t) => join_children.push(self.scan_plan(t.clone())),
                GroupItem::Union(branches) => {
                    let plans: Vec<Plan> = branches.iter().map(|b| self.compile_group(b)).collect();
                    let est = plans.iter().map(|p| p.est).sum();
                    join_children.push(Plan::new(PlanOp::Union(plans), est));
                }
                GroupItem::Optional(body) => optionals.push(self.compile_group(body)),
                GroupItem::Filter(e) => filters.push(e.clone()),
            }
        }
        let mut node = join_plan(join_children);
        for opt in optionals {
            let est = node.est.saturating_mul(opt.est.max(1));
            node = Plan::new(PlanOp::LeftJoin(Box::new(node), Box::new(opt)), est);
        }
        if !filters.is_empty() {
            let est = node.est;
            node = Plan::new(PlanOp::Filter(Box::new(node), filters), est);
        }
        node
    }

    fn scan_plan(&mut self, pattern: TriplePattern) -> Plan {
        let mut plan = Plan::new(
            PlanOp::Scan {
                pattern,
                subject_in: None,
                object_in: None,
                taxo_unfold: false,
            },
            0,
        );
        plan.est = self.scan_est(&plan.op);
        plan
    }

    /// Estimate one scan's output from stored-triple counts.
    fn scan_est(&mut self, op: &PlanOp) -> usize {
        let PlanOp::Scan {
            pattern,
            subject_in,
            object_in,
            ..
        } = op
        else {
            return 0;
        };
        let as_const = |t: &PatTerm| match t {
            PatTerm::Const(c) => Some(*c),
            PatTerm::Var(_) => None,
        };
        let s = as_const(&pattern.subject);
        let o = as_const(&pattern.object);
        let nelems = self.ontology.vocabulary().elements_order().len();
        let edge_count = |planner: &mut Self, r: RelationId, s: Option<Term>, o: Option<Term>| {
            let rels = planner.match_rels(r).to_vec();
            rels.iter()
                .map(|&rel| planner.ontology.store().count_matching(s, Some(rel), o))
                .sum::<usize>()
        };
        let mut est = match &pattern.path {
            PropPath::Rel(r) => edge_count(self, *r, s, o),
            PropPath::Plus(r) => edge_count(self, *r, None, None),
            PropPath::Star(r) | PropPath::Opt(r) => {
                edge_count(self, *r, None, None).saturating_add(nelems)
            }
            p @ (PropPath::Seq(_) | PropPath::Alt(_)) => {
                let mut total = 0usize;
                for r in p.relations() {
                    total = total.saturating_add(edge_count(self, r, None, None));
                }
                // Reflexive steps widen the reachable universe.
                fn has_reflexive(p: &PropPath) -> bool {
                    match p {
                        PropPath::Star(_) | PropPath::Opt(_) => true,
                        PropPath::Seq(ps) | PropPath::Alt(ps) => ps.iter().any(has_reflexive),
                        _ => false,
                    }
                }
                if has_reflexive(p) {
                    total = total.saturating_add(nelems);
                }
                total
            }
        };
        for list in [subject_in, object_in].into_iter().flatten() {
            est = est.min(list.len());
        }
        est
    }

    /// Whether a scan can emit *no* row, provably (exact counts, not
    /// estimates): an empty pushed-down value set, a plain edge pattern
    /// with no stored matches, or a `+` path over zero stored edges.
    fn scan_provably_empty(&mut self, op: &PlanOp) -> bool {
        let PlanOp::Scan {
            pattern,
            subject_in,
            object_in,
            ..
        } = op
        else {
            return false;
        };
        if subject_in.as_ref().is_some_and(Vec::is_empty)
            || object_in.as_ref().is_some_and(Vec::is_empty)
        {
            return true;
        }
        let as_const = |t: &PatTerm| match t {
            PatTerm::Const(c) => Some(*c),
            PatTerm::Var(_) => None,
        };
        match &pattern.path {
            PropPath::Rel(r) => {
                let rels = self.match_rels(*r).to_vec();
                let (s, o) = (as_const(&pattern.subject), as_const(&pattern.object));
                rels.iter()
                    .all(|&rel| self.ontology.store().count_matching(s, Some(rel), o) == 0)
            }
            PropPath::Plus(r) => {
                let rels = self.match_rels(*r).to_vec();
                rels.iter()
                    .all(|&rel| self.ontology.store().count_matching(None, Some(rel), None) == 0)
            }
            _ => false,
        }
    }

    // ---- optimize ------------------------------------------------------

    fn optimize_node(&mut self, plan: Plan, bound: &mut HashSet<Var>) -> Plan {
        match plan.op {
            PlanOp::Empty => plan,
            op @ PlanOp::Scan { .. } => self.optimize_scan(op),
            PlanOp::Join(children) => {
                let ordered = self.reorder(children, bound);
                let mut out = Vec::with_capacity(ordered.len());
                for c in ordered {
                    let c = self.optimize_node(c, bound);
                    if matches!(c.op, PlanOp::Empty) {
                        self.report.pruned += 1;
                        return Plan::new(PlanOp::Empty, 0);
                    }
                    out.push(c);
                }
                join_plan(out)
            }
            PlanOp::LeftJoin(l, r) => {
                let l = self.optimize_node(*l, bound);
                if matches!(l.op, PlanOp::Empty) {
                    self.report.pruned += 1;
                    return Plan::new(PlanOp::Empty, 0);
                }
                // The right side sees the left side's bindings.
                let r = self.optimize_node(*r, bound);
                if matches!(r.op, PlanOp::Empty) {
                    self.report.pruned += 1;
                    return l;
                }
                let est = l.est.saturating_mul(r.est.max(1));
                Plan::new(PlanOp::LeftJoin(Box::new(l), Box::new(r)), est)
            }
            PlanOp::Union(branches) => {
                let mut out = Vec::with_capacity(branches.len());
                for b in branches {
                    // Branches do not bind variables for one another.
                    let mut branch_bound = bound.clone();
                    let b = self.optimize_node(b, &mut branch_bound);
                    if matches!(b.op, PlanOp::Empty) {
                        self.report.pruned += 1;
                    } else {
                        out.push(b);
                    }
                }
                match out.len() {
                    0 => Plan::new(PlanOp::Empty, 0),
                    1 => out.pop().expect("len checked"),
                    _ => {
                        let est = out.iter().map(|p| p.est).sum();
                        // Union children still bind their variables for
                        // later join operands.
                        for b in &out {
                            bound.extend(b.vars());
                        }
                        Plan::new(PlanOp::Union(out), est)
                    }
                }
            }
            PlanOp::Filter(input, exprs) => {
                let mut input = *input;
                // Positive single-variable constraints narrow every scan
                // below the filter that mentions the variable.
                let constraints = value_constraints(&exprs);
                if !constraints.is_empty() {
                    self.push_values(&mut input, &constraints);
                }
                let input = self.optimize_node(input, bound);
                if matches!(input.op, PlanOp::Empty) {
                    self.report.pruned += 1;
                    return Plan::new(PlanOp::Empty, 0);
                }
                // Constant-fold variable-free expressions.
                let mut kept = Vec::with_capacity(exprs.len());
                for e in exprs {
                    if e.vars().is_empty() {
                        if e.eval(|_| None) {
                            continue; // statically true: drop
                        }
                        self.report.pruned += 1;
                        return Plan::new(PlanOp::Empty, 0);
                    }
                    kept.push(e);
                }
                if kept.is_empty() {
                    return input;
                }
                let est = input.est;
                Plan::new(PlanOp::Filter(Box::new(input), kept), est)
            }
            PlanOp::Project(input, vars) => {
                let input = self.optimize_node(*input, bound);
                if matches!(input.op, PlanOp::Empty) {
                    return Plan::new(PlanOp::Empty, 0);
                }
                let est = input.est;
                Plan::new(PlanOp::Project(Box::new(input), vars), est)
            }
            PlanOp::Distinct(input) => {
                let input = self.optimize_node(*input, bound);
                if matches!(input.op, PlanOp::Empty) {
                    return Plan::new(PlanOp::Empty, 0);
                }
                let est = input.est;
                Plan::new(PlanOp::Distinct(Box::new(input)), est)
            }
            PlanOp::Sort(input, keys) => {
                let input = self.optimize_node(*input, bound);
                if matches!(input.op, PlanOp::Empty) {
                    return Plan::new(PlanOp::Empty, 0);
                }
                let est = input.est;
                Plan::new(PlanOp::Sort(Box::new(input), keys), est)
            }
            PlanOp::Slice(input, offset, limit) => {
                let input = self.optimize_node(*input, bound);
                if matches!(input.op, PlanOp::Empty) {
                    return Plan::new(PlanOp::Empty, 0);
                }
                let est = limit.map_or(input.est, |l| {
                    input.est.min(usize::try_from(l).unwrap_or(usize::MAX))
                });
                Plan::new(PlanOp::Slice(Box::new(input), offset, limit), est)
            }
        }
    }

    fn optimize_scan(&mut self, mut op: PlanOp) -> Plan {
        if self.scan_provably_empty(&op) {
            self.report.pruned += 1;
            return Plan::new(PlanOp::Empty, 0);
        }
        if let PlanOp::Scan {
            pattern,
            taxo_unfold,
            ..
        } = &mut op
        {
            if let PropPath::Star(r) | PropPath::Plus(r) = pattern.path {
                if self.taxo_unfoldable(r) {
                    *taxo_unfold = true;
                    self.report.unfolds += 1;
                }
            }
        }
        let est = self.scan_est(&op);
        Plan::new(op, est)
    }

    /// Greedy most-selective-first ordering of join operands: most bound
    /// positions first, plain edges before paths, smaller estimates
    /// before larger — and, as the final tie-break, the operand's source
    /// position, making the chosen order a *total* one (byte-identical
    /// plans across runs, usable in sim replay oracles).
    fn reorder(&mut self, children: Vec<Plan>, bound: &mut HashSet<Var>) -> Vec<Plan> {
        let mut remaining: Vec<(usize, Plan)> = children.into_iter().enumerate().collect();
        let mut out = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let score = |(idx, p): &(usize, Plan)| -> (usize, usize, usize, usize) {
                match &p.op {
                    PlanOp::Scan { pattern, .. } => {
                        let pos_bound = |t: &PatTerm| match t {
                            PatTerm::Const(_) => true,
                            PatTerm::Var(v) => bound.contains(v),
                        };
                        let n_bound = pos_bound(&pattern.subject) as usize
                            + pos_bound(&pattern.object) as usize;
                        (2 - n_bound, pattern.path.is_path() as usize, p.est, *idx)
                    }
                    _ => {
                        let vars = p.vars();
                        let n_bound = vars.iter().filter(|v| bound.contains(v)).count().min(2);
                        (2 - n_bound, 1, p.est, *idx)
                    }
                }
            };
            let (i, _) = remaining
                .iter()
                .enumerate()
                .map(|(i, c)| (i, score(c)))
                .min_by_key(|(_, s)| *s)
                .expect("remaining is non-empty");
            let (_, p) = remaining.remove(i);
            bound.extend(p.vars());
            out.push(p);
        }
        out
    }

    /// Intersect pushed-down value sets into every scan mentioning a
    /// constrained variable, anywhere below `plan`.
    fn push_values(&mut self, plan: &mut Plan, constraints: &HashMap<Var, Vec<Term>>) {
        match &mut plan.op {
            PlanOp::Empty => {}
            PlanOp::Scan {
                pattern,
                subject_in,
                object_in,
                ..
            } => {
                for (term, slot) in [
                    (&pattern.subject, &mut *subject_in),
                    (&pattern.object, &mut *object_in),
                ] {
                    let Some(v) = term.as_var() else { continue };
                    let Some(values) = constraints.get(&v) else {
                        continue;
                    };
                    let narrowed = match slot.take() {
                        None => values.clone(),
                        Some(prev) => prev.into_iter().filter(|t| values.contains(t)).collect(),
                    };
                    *slot = Some(narrowed);
                    self.report.pushdowns += 1;
                }
            }
            PlanOp::Join(cs) | PlanOp::Union(cs) => {
                cs.iter_mut().for_each(|c| self.push_values(c, constraints))
            }
            PlanOp::LeftJoin(l, r) => {
                self.push_values(l, constraints);
                self.push_values(r, constraints);
            }
            PlanOp::Filter(c, _)
            | PlanOp::Project(c, _)
            | PlanOp::Distinct(c)
            | PlanOp::Sort(c, _)
            | PlanOp::Slice(c, _, _) => self.push_values(c, constraints),
        }
    }

    /// Whether the stored edges matched by pattern relation `r` mirror the
    /// element taxonomy exactly (both directions), making taxonomy
    /// reachability a sound replacement for BFS over stored edges.
    fn taxo_unfoldable(&mut self, r: RelationId) -> bool {
        if let Some(&cached) = self.unfold_cache.get(&r) {
            return cached;
        }
        let rels = self.match_rels(r).to_vec();
        let vocab = self.ontology.vocabulary();
        let taxo = vocab.elements_order();
        let store = self.ontology.store();
        let mut ok = true;
        // (a) Every stored edge under the matched relations is a strict
        //     `≤E` step between elements.
        'stored: for &rel in &rels {
            for t in store.matching(None, Some(rel), None) {
                let (Some(s), Some(o)) = (t.subject.as_element(), t.object.as_element()) else {
                    ok = false;
                    break 'stored;
                };
                if !taxo.lt(o, s) {
                    ok = false;
                    break 'stored;
                }
            }
        }
        // (b) Every Hasse edge of `≤E` is stored under a matched relation,
        //     so every taxonomy-reachable pair is edge-reachable too.
        if ok {
            'hasse: for (e, _) in vocab.elements() {
                for &p in taxo.parents(e) {
                    let stored = rels.iter().any(|&rel| {
                        store.count_matching(
                            Some(Term::Element(e)),
                            Some(rel),
                            Some(Term::Element(p)),
                        ) > 0
                    });
                    if !stored {
                        ok = false;
                        break 'hasse;
                    }
                }
            }
        }
        self.unfold_cache.insert(r, ok);
        ok
    }
}

/// Wrap join operands, collapsing the single-child case.
fn join_plan(mut children: Vec<Plan>) -> Plan {
    match children.len() {
        1 => children.pop().expect("len checked"),
        _ => {
            let est = children
                .iter()
                .map(|p| p.est)
                .fold(1usize, usize::saturating_mul);
            let est = if children.is_empty() { 1 } else { est };
            Plan::new(PlanOp::Join(children), est)
        }
    }
}

/// Positive single-variable value sets implied by `exprs`
/// (`$x = c` and `$x IN (...)`; intersected when a variable repeats).
fn value_constraints(exprs: &[FilterExpr]) -> HashMap<Var, Vec<Term>> {
    let mut out: HashMap<Var, Vec<Term>> = HashMap::new();
    let mut add = |v: Var, values: Vec<Term>| match out.entry(v) {
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(values);
        }
        std::collections::hash_map::Entry::Occupied(mut e) => {
            e.get_mut().retain(|t| values.contains(t));
        }
    };
    for e in exprs {
        match e {
            FilterExpr::Eq(FilterTerm::Var(v), FilterTerm::Const(c))
            | FilterExpr::Eq(FilterTerm::Const(c), FilterTerm::Var(v)) => add(*v, vec![*c]),
            FilterExpr::In(v, ts) => add(*v, ts.clone()),
            _ => {}
        }
    }
    out
}

// ---- EXPLAIN -----------------------------------------------------------

impl Plan {
    /// Render the plan as an indented operator tree with estimates —
    /// deterministic, human-readable, and stable across runs (the
    /// determinism oracle compares these strings byte-for-byte).
    pub fn explain(&self, ontology: &Ontology, vars: &VarTable) -> String {
        let mut out = String::new();
        self.explain_into(ontology, vars, 0, &mut out);
        out
    }

    fn explain_into(&self, o: &Ontology, vars: &VarTable, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let indent = "  ".repeat(depth);
        let term = |t: &PatTerm| render_pat_term(o, vars, t);
        match &self.op {
            PlanOp::Empty => {
                let _ = writeln!(out, "{indent}Empty");
            }
            PlanOp::Scan {
                pattern,
                subject_in,
                object_in,
                taxo_unfold,
            } => {
                let _ = write!(
                    out,
                    "{indent}Scan {} {} {}",
                    term(&pattern.subject),
                    render_path(o, &pattern.path),
                    term(&pattern.object)
                );
                if *taxo_unfold {
                    let _ = write!(out, " [taxo-unfold]");
                }
                for (label, list) in [("subject", subject_in), ("object", object_in)] {
                    if let Some(list) = list {
                        let names: Vec<String> = list.iter().map(|t| render_term(o, t)).collect();
                        let _ = write!(out, " {label}∈{{{}}}", names.join(", "));
                    }
                }
                let _ = writeln!(out, " est={}", self.est);
            }
            PlanOp::Join(cs) => {
                let _ = writeln!(out, "{indent}Join est={}", self.est);
                cs.iter()
                    .for_each(|c| c.explain_into(o, vars, depth + 1, out));
            }
            PlanOp::LeftJoin(l, r) => {
                let _ = writeln!(out, "{indent}LeftJoin est={}", self.est);
                l.explain_into(o, vars, depth + 1, out);
                r.explain_into(o, vars, depth + 1, out);
            }
            PlanOp::Union(cs) => {
                let _ = writeln!(out, "{indent}Union est={}", self.est);
                cs.iter()
                    .for_each(|c| c.explain_into(o, vars, depth + 1, out));
            }
            PlanOp::Filter(c, exprs) => {
                let rendered: Vec<String> =
                    exprs.iter().map(|e| render_filter(o, vars, e)).collect();
                let _ = writeln!(
                    out,
                    "{indent}Filter {} est={}",
                    rendered.join(" && "),
                    self.est
                );
                c.explain_into(o, vars, depth + 1, out);
            }
            PlanOp::Project(c, keep) => {
                let names: Vec<String> =
                    keep.iter().map(|v| format!("${}", vars.name(*v))).collect();
                let _ = writeln!(out, "{indent}Project {} est={}", names.join(", "), self.est);
                c.explain_into(o, vars, depth + 1, out);
            }
            PlanOp::Distinct(c) => {
                let _ = writeln!(out, "{indent}Distinct est={}", self.est);
                c.explain_into(o, vars, depth + 1, out);
            }
            PlanOp::Sort(c, keys) => {
                let rendered: Vec<String> = keys
                    .iter()
                    .map(|(v, d)| {
                        format!(
                            "${}{}",
                            vars.name(*v),
                            if *d == SortDir::Desc { " DESC" } else { "" }
                        )
                    })
                    .collect();
                let _ = writeln!(out, "{indent}Sort {} est={}", rendered.join(", "), self.est);
                c.explain_into(o, vars, depth + 1, out);
            }
            PlanOp::Slice(c, offset, limit) => {
                let _ = write!(out, "{indent}Slice offset={offset}");
                if let Some(l) = limit {
                    let _ = write!(out, " limit={l}");
                }
                let _ = writeln!(out, " est={}", self.est);
                c.explain_into(o, vars, depth + 1, out);
            }
        }
    }
}

fn render_term(o: &Ontology, t: &Term) -> String {
    match t {
        Term::Element(e) => o.vocabulary().element_name(*e).to_owned(),
        Term::Literal(l) => format!("{:?}", o.literal_str(*l)),
    }
}

fn render_pat_term(o: &Ontology, vars: &VarTable, t: &PatTerm) -> String {
    match t {
        PatTerm::Var(v) => format!("${}", vars.name(*v)),
        PatTerm::Const(c) => render_term(o, c),
    }
}

fn render_path(o: &Ontology, p: &PropPath) -> String {
    let name = |r: &RelationId| o.vocabulary().relation_name(*r).to_owned();
    match p {
        PropPath::Rel(r) => name(r),
        PropPath::Star(r) => format!("{}*", name(r)),
        PropPath::Plus(r) => format!("{}+", name(r)),
        PropPath::Opt(r) => format!("{}?", name(r)),
        PropPath::Seq(ps) => ps
            .iter()
            .map(|p| render_path(o, p))
            .collect::<Vec<_>>()
            .join("/"),
        PropPath::Alt(ps) => ps
            .iter()
            .map(|p| render_path(o, p))
            .collect::<Vec<_>>()
            .join("|"),
    }
}

fn render_filter(o: &Ontology, vars: &VarTable, e: &FilterExpr) -> String {
    let ft = |t: &FilterTerm| match t {
        FilterTerm::Var(v) => format!("${}", vars.name(*v)),
        FilterTerm::Const(c) => render_term(o, c),
    };
    match e {
        FilterExpr::Eq(a, b) => format!("{} = {}", ft(a), ft(b)),
        FilterExpr::Ne(a, b) => format!("{} != {}", ft(a), ft(b)),
        FilterExpr::In(v, ts) => format!(
            "${} IN ({})",
            vars.name(*v),
            ts.iter()
                .map(|t| render_term(o, t))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        FilterExpr::NotIn(v, ts) => format!(
            "${} NOT IN ({})",
            vars.name(*v),
            ts.iter()
                .map(|t| render_term(o, t))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_where;
    use oassis_store::ontology::figure1_ontology;

    fn planned(src: &str, mode: MatchMode) -> (Plan, PlanReport, VarTable, Ontology) {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        let wc = parse_where(src, &o, &mut vars).unwrap();
        let compiled = compile(&o, &wc, mode);
        let (opt, report) = optimize_report(&o, compiled, mode);
        (opt, report, vars, o)
    }

    #[test]
    fn filter_pushdown_restricts_scans() {
        let (plan, report, vars, o) = planned(
            "$x inside NYC. FILTER($x IN (<Central Park>, <Bronx Zoo>))",
            MatchMode::Syntactic,
        );
        assert!(report.pushdowns >= 1, "{report:?}");
        let rendered = plan.explain(&o, &vars);
        assert!(rendered.contains("subject∈{"), "{rendered}");
        assert!(rendered.contains("Central Park"), "{rendered}");
    }

    #[test]
    fn taxonomy_unfold_requires_the_mirror() {
        // Semantic mode: subClassOf also matches instanceOf edges
        // (subClassOf ≤R instanceOf in Figure 1), so the stored edges
        // mirror `≤E` and the scan unfolds.
        let (_, report, _, _) = planned("$w subClassOf* Attraction", MatchMode::Semantic);
        assert_eq!(report.unfolds, 1, "{report:?}");
        // Syntactic mode: instanceOf Hasse edges are not matched by
        // subClassOf, the mirror check fails, BFS is kept.
        let (_, report, _, _) = planned("$w subClassOf* Attraction", MatchMode::Syntactic);
        assert_eq!(report.unfolds, 0, "{report:?}");
    }

    #[test]
    fn empty_scan_prunes_the_join() {
        // `NYC nearBy NYC` has no stored match in syntactic mode.
        let (plan, report, _, _) = planned("$x inside NYC. NYC nearBy NYC", MatchMode::Syntactic);
        assert!(report.pruned >= 1);
        assert!(matches!(plan.op, PlanOp::Empty), "{plan:?}");
    }

    #[test]
    fn empty_union_branch_is_dropped() {
        let (plan, report, vars, o) = planned(
            "{ $x instanceOf Park } UNION { NYC nearBy NYC }",
            MatchMode::Syntactic,
        );
        assert!(report.pruned >= 1);
        let rendered = plan.explain(&o, &vars);
        assert!(
            !rendered.contains("Union"),
            "single branch left:\n{rendered}"
        );
    }

    #[test]
    fn join_order_is_deterministic_and_selective_first() {
        let src = r#"
            $y subClassOf* Activity.
            $x instanceOf $w.
            $x inside NYC.
            $w subClassOf* Attraction
        "#;
        let (p1, _, vars, o) = planned(src, MatchMode::Syntactic);
        let (p2, _, vars2, o2) = planned(src, MatchMode::Syntactic);
        let e1 = p1.explain(&o, &vars);
        assert_eq!(e1, p2.explain(&o2, &vars2), "byte-identical plans");
        // The constant-bound non-path scan comes first.
        let first_scan = e1
            .lines()
            .find(|l| l.trim_start().starts_with("Scan"))
            .unwrap();
        assert!(first_scan.contains("$x inside NYC"), "{e1}");
    }

    #[test]
    fn statically_false_filter_empties_the_plan() {
        let (plan, _, _, _) = planned(
            "$x inside NYC. FILTER(NYC = <Central Park>)",
            MatchMode::Syntactic,
        );
        assert!(matches!(plan.op, PlanOp::Empty));
        let (plan, _, _, _) = planned("$x inside NYC. FILTER(NYC = NYC)", MatchMode::Syntactic);
        assert!(
            !matches!(plan.op, PlanOp::Empty),
            "true filter dropped, plan kept"
        );
    }

    #[test]
    fn node_count_and_vars() {
        let (plan, _, vars, _) = planned(
            "$x inside NYC. OPTIONAL { $x hasLabel \"child-friendly\" }",
            MatchMode::Syntactic,
        );
        assert!(plan.node_count() >= 3);
        let x = vars.get("x").unwrap();
        assert!(plan.vars().contains(&x));
    }
}
