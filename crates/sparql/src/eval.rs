//! Plan-driven evaluation of WHERE clauses over an [`Ontology`].
//!
//! Evaluation is a two-step compiler: [`crate::plan::compile`] lowers a
//! [`WhereClause`] to a logical [`Plan`], [`crate::plan::optimize`] rewrites
//! it (filter pushdown, taxonomy unfolding, empty-branch pruning, greedy
//! deterministic join ordering), and the interpreter here executes the
//! optimized tree. The evaluator supports two matching modes:
//!
//! * [`MatchMode::Syntactic`] — standard SPARQL: a pattern relation matches
//!   only triples with exactly that relation.
//! * [`MatchMode::Semantic`] — the mode OASSIS validity (Definition 2.5)
//!   calls for: a pattern relation `r` also matches stored triples whose
//!   relation `r'` satisfies `r ≤R r'`. With the Figure 1 vocabulary this
//!   makes `$z nearBy $x` match the stored `Maoz Veg. inside ...` style
//!   facts (`nearBy ≤R inside`), and lets `subClassOf*` paths traverse
//!   `instanceOf` edges when the ontology declares
//!   `subClassOf ≤R instanceOf` (the RDFS-style convention the paper's
//!   Figure 3 uses when it lists `Feed a Monkey` as an assignment for
//!   `$y subClassOf* Activity`).
//!
//! `rel*`/`rel+` paths are evaluated by memoized BFS over the stored edges
//! of the matching relation(s) — or, when the optimizer proved the stored
//! edges mirror the element taxonomy, by direct `≤E` reachability.

use std::collections::{HashMap, HashSet, VecDeque};
use std::cmp::Ordering;
use std::sync::Arc;

use oassis_obs::{names, null_sink, EventSink, SinkExt};
use oassis_store::{Ontology, Term};
use oassis_vocab::RelationId;

use crate::ast::{PatTerm, PropPath, SortDir, TriplePattern, Var, VarTable, WhereClause};
use crate::plan::{self, Plan, PlanOp};

/// How pattern relations match stored relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    /// Exact relation matching (standard SPARQL).
    Syntactic,
    /// A pattern relation also matches its `≤R`-specializations.
    #[default]
    Semantic,
}

/// A (partial) assignment of query variables to terms.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Binding {
    values: Vec<Option<Term>>,
}

impl Binding {
    /// An empty binding over `nvars` variables.
    pub fn new(nvars: usize) -> Self {
        Binding {
            values: vec![None; nvars],
        }
    }

    /// The value bound to `v`, if any.
    pub fn get(&self, v: Var) -> Option<Term> {
        self.values[v.index()]
    }

    /// Bind `v` to `t` (overwrites).
    pub fn set(&mut self, v: Var, t: Term) {
        self.values[v.index()] = Some(t);
    }

    /// Number of variable slots.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no variable slots.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate `(var, term)` pairs for bound variables.
    pub fn iter(&self) -> impl Iterator<Item = (Var, Term)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (Var(i as u32), t)))
    }
}

/// Evaluate plain triple `patterns` over `ontology`, returning all
/// distinct bindings (the pre-algebra conjunctive entry point; the
/// patterns run through the same planner as [`evaluate_where`]).
///
/// ```
/// use oassis_sparql::{evaluate, parse_patterns, MatchMode, VarTable};
/// use oassis_store::ontology::figure1_ontology;
///
/// let o = figure1_ontology();
/// let mut vars = VarTable::new();
/// let pats = parse_patterns("$x instanceOf Park", &o, &mut vars).unwrap();
/// let bindings = evaluate(&o, &pats, &vars, MatchMode::Syntactic);
/// assert_eq!(bindings.len(), 2); // Central Park, Madison Square
/// ```
pub fn evaluate(
    ontology: &Ontology,
    patterns: &[TriplePattern],
    vars: &VarTable,
    mode: MatchMode,
) -> Vec<Binding> {
    evaluate_with_sink(ontology, patterns, vars, mode, &null_sink())
}

/// [`evaluate`] with instrumentation (see [`evaluate_where_with_sink`]).
pub fn evaluate_with_sink(
    ontology: &Ontology,
    patterns: &[TriplePattern],
    vars: &VarTable,
    mode: MatchMode,
    sink: &Arc<dyn EventSink>,
) -> Vec<Binding> {
    let clause = WhereClause::from_triples(patterns.to_vec());
    evaluate_where_with_sink(ontology, &clause, vars, mode, sink)
}

/// Evaluate a full WHERE clause (groups, `UNION`, `OPTIONAL`, `FILTER`,
/// property paths, solution modifiers) over `ontology`.
///
/// Results are set-semantic: sorted by binding value and deduplicated.
/// With `ORDER BY`, the sort keys take precedence (ties stay in canonical
/// order, so output is still deterministic); `LIMIT`/`OFFSET` slice the
/// ordered list.
pub fn evaluate_where(
    ontology: &Ontology,
    clause: &WhereClause,
    vars: &VarTable,
    mode: MatchMode,
) -> Vec<Binding> {
    evaluate_where_with_sink(ontology, clause, vars, mode, &null_sink())
}

/// [`evaluate_where`] with instrumentation: every triple-pattern scan is
/// counted on `sparql.pattern.scan` labeled by its binding shape (`?`
/// marks an unbound endpoint, e.g. `sp?` for bound-subject scans), each
/// property-path closure computation records its BFS depth on the
/// `sparql.path.depth` histogram (memoized closures are observed once),
/// and the optimizer reports `sparql.plan.pushdown` / `sparql.plan.unfold`
/// / `sparql.plan.pruned` rewrite counts.
pub fn evaluate_where_with_sink(
    ontology: &Ontology,
    clause: &WhereClause,
    vars: &VarTable,
    mode: MatchMode,
    sink: &Arc<dyn EventSink>,
) -> Vec<Binding> {
    let compiled = plan::compile(ontology, clause, mode);
    let (optimized, report) = plan::optimize_report(ontology, compiled, mode);
    if report.pushdowns > 0 {
        sink.count(names::SPARQL_PLAN_PUSHDOWN, report.pushdowns as u64);
    }
    if report.unfolds > 0 {
        sink.count(names::SPARQL_PLAN_UNFOLD, report.unfolds as u64);
    }
    if report.pruned > 0 {
        sink.count(names::SPARQL_PLAN_PRUNED, report.pruned as u64);
    }
    run_plan_with_sink(ontology, &optimized, vars, mode, sink)
}

/// Interpret an explicit [`Plan`] (optimized or not) over `ontology`.
///
/// This is the differential-testing entry point: the same clause can be
/// run through [`plan::compile`] alone (source order, no pushdown, no
/// unfolding — but still index-backed scans) and through the optimizer,
/// and the results compared binding-for-binding.
pub fn run_plan(
    ontology: &Ontology,
    plan: &Plan,
    vars: &VarTable,
    mode: MatchMode,
) -> Vec<Binding> {
    run_plan_with_sink(ontology, plan, vars, mode, &null_sink())
}

/// [`run_plan`] with instrumentation.
pub fn run_plan_with_sink(
    ontology: &Ontology,
    plan: &Plan,
    vars: &VarTable,
    mode: MatchMode,
    sink: &Arc<dyn EventSink>,
) -> Vec<Binding> {
    let mut interp = Interp {
        ontology,
        sink,
        mode,
        rel_matches: HashMap::new(),
        fwd_closure: HashMap::new(),
        bwd_closure: HashMap::new(),
    };
    let ctx = Binding::new(vars.len());
    interp.eval_plan(plan, &ctx)
}

struct Interp<'a> {
    ontology: &'a Ontology,
    sink: &'a Arc<dyn EventSink>,
    mode: MatchMode,
    /// Per pattern-relation match-list under the evaluation's mode,
    /// computed lazily once per relation.
    rel_matches: HashMap<RelationId, Vec<RelationId>>,
    /// Memoized forward path closure per (relation, source).
    fwd_closure: HashMap<(RelationId, Term), Vec<Term>>,
    /// Memoized backward path closure per (relation, target).
    bwd_closure: HashMap<(RelationId, Term), Vec<Term>>,
}

impl<'a> Interp<'a> {
    /// Relations a pattern relation matches under the evaluation's mode.
    fn rels(&mut self, r: RelationId) -> Vec<RelationId> {
        let ontology = self.ontology;
        let mode = self.mode;
        self.rel_matches
            .entry(r)
            .or_insert_with(|| match mode {
                MatchMode::Syntactic => vec![r],
                MatchMode::Semantic => ontology
                    .vocabulary()
                    .relations_order()
                    .descendants(r)
                    .collect(),
            })
            .clone()
    }

    /// Evaluate `plan` under the partial binding `ctx`, returning every
    /// extension of `ctx` the subtree admits.
    fn eval_plan(&mut self, plan: &Plan, ctx: &Binding) -> Vec<Binding> {
        match &plan.op {
            PlanOp::Empty => Vec::new(),
            PlanOp::Scan {
                pattern,
                subject_in,
                object_in,
                taxo_unfold,
            } => self.scan(
                pattern,
                subject_in.as_deref(),
                object_in.as_deref(),
                *taxo_unfold,
                ctx,
            ),
            PlanOp::Join(children) => {
                let mut acc = vec![ctx.clone()];
                for c in children {
                    let mut next = Vec::new();
                    for b in &acc {
                        next.extend(self.eval_plan(c, b));
                    }
                    acc = next;
                    if acc.is_empty() {
                        break;
                    }
                }
                acc
            }
            PlanOp::LeftJoin(l, r) => {
                let mut out = Vec::new();
                for b in self.eval_plan(l, ctx) {
                    let rs = self.eval_plan(r, &b);
                    if rs.is_empty() {
                        out.push(b);
                    } else {
                        out.extend(rs);
                    }
                }
                out
            }
            PlanOp::Union(branches) => {
                let mut out = Vec::new();
                for b in branches {
                    out.extend(self.eval_plan(b, ctx));
                }
                out
            }
            PlanOp::Filter(input, exprs) => {
                let mut rows = self.eval_plan(input, ctx);
                rows.retain(|b| exprs.iter().all(|e| e.eval(|v| b.get(v))));
                rows
            }
            PlanOp::Project(input, keep) => {
                let keep: HashSet<Var> = keep.iter().copied().collect();
                let mut rows = self.eval_plan(input, ctx);
                for b in &mut rows {
                    for i in 0..b.values.len() {
                        if !keep.contains(&Var(i as u32)) {
                            b.values[i] = None;
                        }
                    }
                }
                rows
            }
            PlanOp::Distinct(input) => {
                let mut rows = self.eval_plan(input, ctx);
                rows.sort_by(|a, b| a.values.cmp(&b.values));
                rows.dedup();
                rows
            }
            PlanOp::Sort(input, keys) => {
                let mut rows = self.eval_plan(input, ctx);
                // Stable: equal keys keep the canonical (distinct) order.
                rows.sort_by(|a, b| compare_by_keys(a, b, keys));
                rows
            }
            PlanOp::Slice(input, offset, limit) => {
                let rows = self.eval_plan(input, ctx);
                let offset = usize::try_from(*offset).unwrap_or(usize::MAX);
                let limit = limit
                    .map(|l| usize::try_from(l).unwrap_or(usize::MAX))
                    .unwrap_or(usize::MAX);
                rows.into_iter().skip(offset).take(limit).collect()
            }
        }
    }

    /// Enumerate matches of one scan under `ctx`, extending the binding.
    fn scan(
        &mut self,
        pattern: &TriplePattern,
        subject_in: Option<&[Term]>,
        object_in: Option<&[Term]>,
        taxo_unfold: bool,
        ctx: &Binding,
    ) -> Vec<Binding> {
        let s = resolve(&pattern.subject, ctx);
        let o = resolve(&pattern.object, ctx);
        // A bound endpoint outside its pushed-down value set cannot match.
        if let (Some(sv), Some(list)) = (s, subject_in) {
            if !list.contains(&sv) {
                return Vec::new();
            }
        }
        if let (Some(ov), Some(list)) = (o, object_in) {
            if !list.contains(&ov) {
                return Vec::new();
            }
        }
        let shape = match (s.is_some(), o.is_some()) {
            (true, true) => "spo",
            (true, false) => "sp?",
            (false, true) => "?po",
            (false, false) => "?p?",
        };
        self.sink.count_labeled(names::SPARQL_PATTERN_SCAN, shape, 1);
        let narrowable = matches!(pattern.path, PropPath::Rel(_))
            && ((s.is_none() && subject_in.is_some())
                || (o.is_none() && object_in.is_some()));
        let pairs = if narrowable {
            // Plain edge scans probe the pushed-down values directly
            // instead of enumerating the full relation. (Path scans keep
            // the full enumeration + post-filter: their reflexive pairs
            // range over vocabulary elements, which value probing would
            // silently widen to arbitrary pushed-down terms.)
            let expand = |bound: Option<Term>, list: Option<&[Term]>| -> Vec<Option<Term>> {
                match (bound, list) {
                    (None, Some(l)) => {
                        let mut l = l.to_vec();
                        l.sort();
                        l.dedup();
                        l.into_iter().map(Some).collect()
                    }
                    (b, _) => vec![b],
                }
            };
            let svs = expand(s, subject_in);
            let ovs = expand(o, object_in);
            let mut out = Vec::new();
            for &sv in &svs {
                for &ov in &ovs {
                    out.extend(self.pairs(&pattern.path, sv, ov, false));
                }
            }
            out
        } else {
            let mut out = self.pairs(&pattern.path, s, o, taxo_unfold);
            if s.is_none() {
                if let Some(list) = subject_in {
                    out.retain(|(a, _)| list.contains(a));
                }
            }
            if o.is_none() {
                if let Some(list) = object_in {
                    out.retain(|(_, b)| list.contains(b));
                }
            }
            out
        };
        let mut rows = Vec::with_capacity(pairs.len());
        for (sv, ov) in pairs {
            let mut b = ctx.clone();
            if extend(&mut b, &pattern.subject, sv) && extend(&mut b, &pattern.object, ov) {
                rows.push(b);
            }
        }
        rows
    }

    /// Pairs `(a, b)` matching `path` given the endpoint constraints.
    fn pairs(
        &mut self,
        path: &PropPath,
        s: Option<Term>,
        o: Option<Term>,
        taxo_unfold: bool,
    ) -> Vec<(Term, Term)> {
        match path {
            PropPath::Rel(r) => self.direct(*r, s, o),
            PropPath::Star(r) => {
                if taxo_unfold {
                    self.taxo_pairs(s, o, true)
                } else {
                    self.closure_pairs(*r, s, o, true)
                }
            }
            PropPath::Plus(r) => {
                if taxo_unfold {
                    self.taxo_pairs(s, o, false)
                } else {
                    self.closure_pairs(*r, s, o, false)
                }
            }
            PropPath::Opt(r) => {
                let mut v = self.direct(*r, s, o);
                // Zero-step pairs, mirroring `*`'s reflexive universe.
                match (s, o) {
                    (Some(a), Some(b)) => {
                        if a == b {
                            v.push((a, b));
                        }
                    }
                    (Some(a), None) => v.push((a, a)),
                    (None, Some(b)) => v.push((b, b)),
                    (None, None) => {
                        for (e, _) in self.ontology.vocabulary().elements() {
                            v.push((Term::Element(e), Term::Element(e)));
                        }
                    }
                }
                v.sort();
                v.dedup();
                v
            }
            PropPath::Seq(parts) => {
                let last_only = parts.len() == 1;
                let mut frontier =
                    self.pairs(&parts[0], s, if last_only { o } else { None }, false);
                frontier.sort();
                frontier.dedup();
                for (i, part) in parts.iter().enumerate().skip(1) {
                    let last = i == parts.len() - 1;
                    let mut next = Vec::new();
                    for &(start, mid) in &frontier {
                        for (_, end) in
                            self.pairs(part, Some(mid), if last { o } else { None }, false)
                        {
                            next.push((start, end));
                        }
                    }
                    next.sort();
                    next.dedup();
                    frontier = next;
                    if frontier.is_empty() {
                        break;
                    }
                }
                frontier
            }
            PropPath::Alt(parts) => {
                let mut v = Vec::new();
                for p in parts {
                    v.extend(self.pairs(p, s, o, false));
                }
                v.sort();
                v.dedup();
                v
            }
        }
    }

    /// Single-edge matches under the mode's relation match-list.
    fn direct(&mut self, r: RelationId, s: Option<Term>, o: Option<Term>) -> Vec<(Term, Term)> {
        let rels = self.rels(r);
        let mut pairs = Vec::new();
        for rel in rels {
            pairs.extend(
                self.ontology
                    .store()
                    .matching(s, Some(rel), o)
                    .map(|t| (t.subject, t.object)),
            );
        }
        pairs
    }

    /// Pairs `(a, b)` with `a —r→* b` (or `+` when `reflexive` is false),
    /// via memoized BFS over stored edges.
    fn closure_pairs(
        &mut self,
        r: RelationId,
        s: Option<Term>,
        o: Option<Term>,
        reflexive: bool,
    ) -> Vec<(Term, Term)> {
        match (s, o) {
            (Some(s), Some(o)) => {
                let reach = self.forward(r, s);
                let hit = if s == o {
                    reflexive || reach.contains(&o)
                } else {
                    reach.contains(&o)
                };
                if hit {
                    vec![(s, o)]
                } else {
                    vec![]
                }
            }
            (Some(s), None) => {
                let mut v: Vec<(Term, Term)> =
                    self.forward(r, s).iter().map(|&t| (s, t)).collect();
                if reflexive {
                    v.push((s, s));
                }
                v
            }
            (None, Some(o)) => {
                let mut v: Vec<(Term, Term)> =
                    self.backward(r, o).iter().map(|&t| (t, o)).collect();
                if reflexive {
                    v.push((o, o));
                }
                v
            }
            (None, None) => {
                // Unconstrained path: enumerate from every node incident to a
                // matching edge; reflexive pairs over all vocabulary elements.
                let mut nodes: HashSet<Term> = HashSet::new();
                for rel in self.rels(r) {
                    for t in self.ontology.store().matching(None, Some(rel), None) {
                        nodes.insert(t.subject);
                        nodes.insert(t.object);
                    }
                }
                let mut pairs = Vec::new();
                if reflexive {
                    for (e, _) in self.ontology.vocabulary().elements() {
                        pairs.push((Term::Element(e), Term::Element(e)));
                    }
                }
                let nodes: Vec<Term> = nodes.into_iter().collect();
                for n in nodes {
                    for t in self.forward(r, n) {
                        pairs.push((n, t));
                    }
                }
                pairs
            }
        }
    }

    /// Path pairs answered by `≤E` reachability — only reached when the
    /// optimizer's mirror check proved edge-reachability equals taxonomy
    /// reachability (see `plan::Planner::taxo_unfoldable`).
    fn taxo_pairs(&self, s: Option<Term>, o: Option<Term>, reflexive: bool) -> Vec<(Term, Term)> {
        let vocab = self.ontology.vocabulary();
        let taxo = vocab.elements_order();
        match (s, o) {
            (Some(s), Some(o)) => {
                let hit = if s == o {
                    reflexive
                } else {
                    match (s.as_element(), o.as_element()) {
                        (Some(se), Some(oe)) => taxo.lt(oe, se),
                        _ => false,
                    }
                };
                if hit {
                    vec![(s, o)]
                } else {
                    vec![]
                }
            }
            (Some(s), None) => {
                let mut v = Vec::new();
                if let Some(se) = s.as_element() {
                    for a in taxo.ancestors(se) {
                        if a != se {
                            v.push((s, Term::Element(a)));
                        }
                    }
                }
                if reflexive {
                    v.push((s, s));
                }
                v
            }
            (None, Some(o)) => {
                let mut v = Vec::new();
                if let Some(oe) = o.as_element() {
                    for d in taxo.descendants(oe) {
                        if d != oe {
                            v.push((Term::Element(d), o));
                        }
                    }
                }
                if reflexive {
                    v.push((o, o));
                }
                v
            }
            (None, None) => {
                let mut v = Vec::new();
                for (e, _) in vocab.elements() {
                    if reflexive {
                        v.push((Term::Element(e), Term::Element(e)));
                    }
                    for a in taxo.ancestors(e) {
                        if a != e {
                            v.push((Term::Element(e), Term::Element(a)));
                        }
                    }
                }
                v
            }
        }
    }

    /// Nodes strictly reachable from `from` via matching edges (excludes
    /// `from` unless it lies on a cycle).
    fn forward(&mut self, r: RelationId, from: Term) -> Vec<Term> {
        if let Some(v) = self.fwd_closure.get(&(r, from)) {
            return v.clone();
        }
        let rels = self.rels(r);
        let (set, depth) = bfs(from, |n| {
            let mut next = Vec::new();
            for &rel in &rels {
                next.extend(self.ontology.store().objects(n, rel));
            }
            next
        });
        self.sink.observe(names::SPARQL_PATH_DEPTH, depth as f64);
        self.fwd_closure.insert((r, from), set.clone());
        set
    }

    /// Nodes that strictly reach `to` via matching edges.
    fn backward(&mut self, r: RelationId, to: Term) -> Vec<Term> {
        if let Some(v) = self.bwd_closure.get(&(r, to)) {
            return v.clone();
        }
        let rels = self.rels(r);
        let (set, depth) = bfs(to, |n| {
            let mut next = Vec::new();
            for &rel in &rels {
                next.extend(self.ontology.store().subjects(rel, n));
            }
            next
        });
        self.sink.observe(names::SPARQL_PATH_DEPTH, depth as f64);
        self.bwd_closure.insert((r, to), set.clone());
        set
    }
}

/// Compare two bindings by `ORDER BY` keys, falling back to equal
/// (callers rely on stable sorting for deterministic ties).
pub(crate) fn compare_by_keys(a: &Binding, b: &Binding, keys: &[(Var, SortDir)]) -> Ordering {
    for (v, dir) in keys {
        let ord = a.get(*v).cmp(&b.get(*v));
        let ord = if *dir == SortDir::Desc {
            ord.reverse()
        } else {
            ord
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Bind `t` to `val` in `b`; false when `t` is a conflicting constant or
/// an already-bound variable with a different value.
fn extend(b: &mut Binding, t: &PatTerm, val: Term) -> bool {
    match t {
        PatTerm::Const(c) => *c == val,
        PatTerm::Var(v) => match b.get(*v) {
            Some(existing) => existing == val,
            None => {
                b.set(*v, val);
                true
            }
        },
    }
}

/// Distinct nodes reachable in ≥1 step from `start` under `next`, plus the
/// largest shortest-path distance at which a node was discovered (the
/// path-expansion depth; 0 when nothing is reachable).
fn bfs<F>(start: Term, mut next: F) -> (Vec<Term>, usize)
where
    F: FnMut(Term) -> Vec<Term>,
{
    let mut seen: HashSet<Term> = HashSet::new();
    let mut queue: VecDeque<(Term, usize)> = VecDeque::from([(start, 0)]);
    let mut out = Vec::new();
    let mut depth = 0;
    while let Some((n, d)) = queue.pop_front() {
        for m in next(n) {
            if seen.insert(m) {
                out.push(m);
                queue.push_back((m, d + 1));
                depth = depth.max(d + 1);
            }
        }
    }
    (out, depth)
}

fn resolve(t: &PatTerm, binding: &Binding) -> Option<Term> {
    match t {
        PatTerm::Const(c) => Some(*c),
        PatTerm::Var(v) => binding.get(*v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_patterns, parse_where};
    use oassis_store::ontology::figure1_ontology;

    fn eval(src: &str, mode: MatchMode) -> (Vec<Binding>, VarTable, oassis_store::Ontology) {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        let pats = parse_patterns(src, &o, &mut vars).unwrap();
        let res = evaluate(&o, &pats, &vars, mode);
        (res, vars, o)
    }

    fn eval_where(src: &str, mode: MatchMode) -> (Vec<Binding>, VarTable, oassis_store::Ontology) {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        let clause = parse_where(src, &o, &mut vars).unwrap();
        let res = evaluate_where(&o, &clause, &vars, mode);
        (res, vars, o)
    }

    fn names(
        results: &[Binding],
        vars: &VarTable,
        o: &oassis_store::Ontology,
        var: &str,
    ) -> Vec<String> {
        let v = vars.get(var).unwrap();
        let mut out: Vec<String> = results
            .iter()
            .filter_map(|b| b.get(v))
            .filter_map(|t| t.as_element())
            .map(|e| o.vocabulary().element_name(e).to_owned())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn star_path_is_reflexive_transitive() {
        let (res, vars, o) = eval("$w subClassOf* Attraction", MatchMode::Syntactic);
        let ws = names(&res, &vars, &o, "w");
        assert!(ws.contains(&"Attraction".to_owned()), "reflexive: {ws:?}");
        assert!(ws.contains(&"Park".to_owned()), "transitive: {ws:?}");
        assert!(ws.contains(&"Zoo".to_owned()));
        // Instances are reached only via instanceOf, not subClassOf.
        assert!(!ws.contains(&"Central Park".to_owned()));
    }

    #[test]
    fn plus_path_excludes_reflexive() {
        let (res, vars, o) = eval("$w subClassOf+ Attraction", MatchMode::Syntactic);
        let ws = names(&res, &vars, &o, "w");
        assert!(!ws.contains(&"Attraction".to_owned()));
        assert!(ws.contains(&"Park".to_owned()));
    }

    #[test]
    fn join_instances_of_star_classes() {
        let (res, vars, o) = eval(
            "$w subClassOf* Attraction. $x instanceOf $w",
            MatchMode::Syntactic,
        );
        let xs = names(&res, &vars, &o, "x");
        assert_eq!(xs, ["Bronx Zoo", "Central Park", "Madison Square"]);
    }

    #[test]
    fn label_filter() {
        let (res, vars, o) = eval(
            r#"$x instanceOf Park. $x hasLabel "child-friendly""#,
            MatchMode::Syntactic,
        );
        let xs = names(&res, &vars, &o, "x");
        assert_eq!(xs, ["Central Park", "Madison Square"]);
    }

    #[test]
    fn semantic_mode_matches_relation_specializations() {
        // nearBy ≤R inside, so `$a nearBy NYC` semantically matches the
        // stored `Central Park inside NYC`.
        let (res, vars, o) = eval("$a nearBy NYC", MatchMode::Semantic);
        let xs = names(&res, &vars, &o, "a");
        assert!(xs.contains(&"Central Park".to_owned()), "{xs:?}");
        let (res_syn, vars2, o2) = eval("$a nearBy NYC", MatchMode::Syntactic);
        assert!(
            !names(&res_syn, &vars2, &o2, "a").contains(&"Central Park".to_owned()),
            "syntactic mode must not"
        );
    }

    #[test]
    fn running_example_where_clause_has_expected_assignments() {
        let src = r#"
            $w subClassOf* Attraction.
            $x instanceOf $w.
            $x inside NYC.
            $x hasLabel "child-friendly".
            $y subClassOf* Activity.
            $z instanceOf Restaurant.
            $z nearBy $x
        "#;
        let (res, vars, o) = eval(src, MatchMode::Syntactic);
        assert!(!res.is_empty());
        let xs = names(&res, &vars, &o, "x");
        // Bronx Zoo (Pine nearBy), Central Park and Madison Square (Maoz).
        assert_eq!(xs, ["Bronx Zoo", "Central Park", "Madison Square"]);
        let ys = names(&res, &vars, &o, "y");
        assert!(ys.contains(&"Biking".to_owned()));
        assert!(ys.contains(&"Sport".to_owned()), "classes are included");
        let zs = names(&res, &vars, &o, "z");
        assert_eq!(zs, ["Maoz Veg.", "Pine"]);
        // The φ16 combination exists: x=Central Park, y=Biking, z=Maoz Veg.
        let (x, y, z) = (
            vars.get("x").unwrap(),
            vars.get("y").unwrap(),
            vars.get("z").unwrap(),
        );
        let v = o.vocabulary();
        let phi16 = res.iter().any(|b| {
            b.get(x) == Some(v.element("Central Park").unwrap().into())
                && b.get(y) == Some(v.element("Biking").unwrap().into())
                && b.get(z) == Some(v.element("Maoz Veg.").unwrap().into())
        });
        assert!(phi16, "φ16 must be a valid assignment");
    }

    #[test]
    fn fully_bound_pattern_checks_membership() {
        let (res, _, _) = eval("<Central Park> inside NYC", MatchMode::Syntactic);
        assert_eq!(res.len(), 1, "one empty binding = true");
        let (res, _, _) = eval("NYC inside <Central Park>", MatchMode::Syntactic);
        assert!(res.is_empty(), "no binding = false");
    }

    #[test]
    fn both_free_star_includes_reflexive_pairs() {
        let (res, vars, o) = eval("$a subClassOf* $b", MatchMode::Syntactic);
        let v = o.vocabulary();
        let biking: Term = v.element("Biking").unwrap().into();
        let sport: Term = v.element("Sport").unwrap().into();
        let a = vars.get("a").unwrap();
        let b = vars.get("b").unwrap();
        assert!(res
            .iter()
            .any(|r| r.get(a) == Some(biking) && r.get(b) == Some(biking)));
        assert!(res
            .iter()
            .any(|r| r.get(a) == Some(biking) && r.get(b) == Some(sport)));
        assert!(!res
            .iter()
            .any(|r| r.get(a) == Some(sport) && r.get(b) == Some(biking)));
    }

    #[test]
    fn shared_variable_join_is_consistent() {
        // $x must be the same element in both patterns.
        let (res, vars, o) = eval(
            "$x inside NYC. $x hasLabel \"child-friendly\"",
            MatchMode::Syntactic,
        );
        let xs = names(&res, &vars, &o, "x");
        assert_eq!(xs, ["Bronx Zoo", "Central Park", "Madison Square"]);
    }

    #[test]
    fn no_matches_yields_empty() {
        let (res, _, _) = eval("NYC nearBy NYC", MatchMode::Syntactic);
        assert!(res.is_empty());
    }

    #[test]
    fn results_are_distinct() {
        let (res, _, _) = eval("$x inside NYC. $x inside NYC", MatchMode::Syntactic);
        let mut seen = std::collections::HashSet::new();
        for b in &res {
            assert!(seen.insert(b.clone()), "duplicate binding {b:?}");
        }
    }

    // ---- WHERE-clause algebra ------------------------------------------

    #[test]
    fn union_merges_branch_solutions() {
        let (res, vars, o) = eval_where(
            "{ $x instanceOf Park } UNION { $x instanceOf Zoo }",
            MatchMode::Syntactic,
        );
        let xs = names(&res, &vars, &o, "x");
        assert_eq!(xs, ["Bronx Zoo", "Central Park", "Madison Square"]);
    }

    #[test]
    fn union_branches_join_with_outer_patterns() {
        let (res, vars, o) = eval_where(
            "$x inside NYC. { $x instanceOf Park } UNION { $x instanceOf Zoo }",
            MatchMode::Syntactic,
        );
        let xs = names(&res, &vars, &o, "x");
        assert_eq!(xs, ["Bronx Zoo", "Central Park", "Madison Square"]);
    }

    #[test]
    fn optional_keeps_unmatched_left_rows() {
        let (res, vars, o) = eval_where(
            "$z instanceOf Restaurant. OPTIONAL { $z nearBy <Bronx Zoo> }",
            MatchMode::Syntactic,
        );
        // Pine matches the optional; Maoz Veg. survives without it.
        let zs = names(&res, &vars, &o, "z");
        assert_eq!(zs, ["Maoz Veg.", "Pine"]);
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn optional_binds_when_present() {
        let (res, vars, o) = eval_where(
            "$z instanceOf Restaurant. OPTIONAL { $z nearBy $x }",
            MatchMode::Syntactic,
        );
        let x = vars.get("x").unwrap();
        let z = vars.get("z").unwrap();
        let v = o.vocabulary();
        let pine: Term = v.element("Pine").unwrap().into();
        let zoo: Term = v.element("Bronx Zoo").unwrap().into();
        assert!(res
            .iter()
            .any(|b| b.get(z) == Some(pine) && b.get(x) == Some(zoo)));
        // Every restaurant is nearBy something, so no row has x unbound.
        assert!(res.iter().all(|b| b.get(x).is_some()));
    }

    #[test]
    fn filter_restricts_solutions() {
        let (res, vars, o) = eval_where(
            "$x instanceOf Park. FILTER($x != <Central Park>)",
            MatchMode::Syntactic,
        );
        assert_eq!(names(&res, &vars, &o, "x"), ["Madison Square"]);
        let (res, vars, o) = eval_where(
            "$x inside NYC. FILTER($x IN (<Central Park>, <Bronx Zoo>))",
            MatchMode::Syntactic,
        );
        assert_eq!(names(&res, &vars, &o, "x"), ["Bronx Zoo", "Central Park"]);
        let (res, vars, o) = eval_where(
            "$x inside NYC. FILTER($x NOT IN (<Central Park>))",
            MatchMode::Syntactic,
        );
        assert_eq!(names(&res, &vars, &o, "x"), ["Bronx Zoo", "Madison Square"]);
    }

    #[test]
    fn order_limit_offset_slice_the_ordered_list() {
        let (all, vars, _) = eval_where("$x inside NYC ORDER BY $x", MatchMode::Syntactic);
        assert_eq!(all.len(), 3);
        let x = vars.get("x").unwrap();
        let mut sorted = all.clone();
        sorted.sort_by_key(|a| a.get(x));
        assert_eq!(all, sorted, "ORDER BY $x yields key-sorted rows");
        let (page, _, _) = eval_where(
            "$x inside NYC ORDER BY $x LIMIT 2 OFFSET 1",
            MatchMode::Syntactic,
        );
        assert_eq!(page, all[1..3].to_vec());
        let (desc, _, _) = eval_where("$x inside NYC ORDER BY $x DESC", MatchMode::Syntactic);
        assert_eq!(desc, all.iter().rev().cloned().collect::<Vec<_>>());
    }

    #[test]
    fn sequence_path_composes_edges() {
        // $z nearBy $x and $x inside NYC ⇒ $z nearBy/inside NYC.
        let (res, vars, o) = eval_where("$z nearBy/inside $c", MatchMode::Syntactic);
        let cs = names(&res, &vars, &o, "c");
        assert_eq!(cs, ["NYC"]);
        let zs = names(&res, &vars, &o, "z");
        assert_eq!(zs, ["Maoz Veg.", "Pine"]);
    }

    #[test]
    fn alternation_path_unions_edge_sets() {
        let (res, vars, o) = eval_where("$a inside|nearBy $b", MatchMode::Syntactic);
        let v = o.vocabulary();
        let a = vars.get("a").unwrap();
        let b = vars.get("b").unwrap();
        let pine: Term = v.element("Pine").unwrap().into();
        let zoo: Term = v.element("Bronx Zoo").unwrap().into();
        let cp: Term = v.element("Central Park").unwrap().into();
        let nyc: Term = v.element("NYC").unwrap().into();
        assert!(res.iter().any(|r| r.get(a) == Some(pine) && r.get(b) == Some(zoo)));
        assert!(res.iter().any(|r| r.get(a) == Some(cp) && r.get(b) == Some(nyc)));
    }

    #[test]
    fn optional_step_path_is_zero_or_one_edges() {
        let (res, vars, o) = eval_where("<Central Park> inside? $y", MatchMode::Syntactic);
        let ys = names(&res, &vars, &o, "y");
        assert_eq!(ys, ["Central Park", "NYC"]);
        // Fully-bound reflexive check.
        let (res, _, _) = eval_where("NYC nearBy? NYC", MatchMode::Syntactic);
        assert_eq!(res.len(), 1);
    }

    #[test]
    fn optimized_plan_matches_unoptimized_plan() {
        let o = figure1_ontology();
        for mode in [MatchMode::Syntactic, MatchMode::Semantic] {
            for src in [
                "$w subClassOf* Attraction",
                "$w subClassOf+ $v",
                "$x inside NYC. $x instanceOf $w. FILTER($w != Park)",
                "{ $x instanceOf Park } UNION { $x instanceOf Zoo }. \
                 OPTIONAL { $x hasLabel \"child-friendly\" }",
            ] {
                let mut vars = VarTable::new();
                let clause = parse_where(src, &o, &mut vars).unwrap();
                let optimized = evaluate_where(&o, &clause, &vars, mode);
                let naive_plan = plan::compile(&o, &clause, mode);
                let unoptimized = run_plan(&o, &naive_plan, &vars, mode);
                assert_eq!(optimized, unoptimized, "{src} under {mode:?}");
            }
        }
    }

    #[test]
    fn planner_events_reach_the_sink() {
        use oassis_obs::InMemorySink;
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        let clause = parse_where(
            "$w subClassOf* Attraction. FILTER($w IN (Park, Zoo))",
            &o,
            &mut vars,
        )
        .unwrap();
        let mem = InMemorySink::shared();
        let sink: Arc<dyn EventSink> = Arc::clone(&mem) as Arc<dyn EventSink>;
        let res = evaluate_where_with_sink(&o, &clause, &vars, MatchMode::Semantic, &sink);
        assert_eq!(res.len(), 2);
        let snap = mem.snapshot();
        assert!(snap.counter(names::SPARQL_PLAN_PUSHDOWN) >= 1);
        assert!(snap.counter(names::SPARQL_PLAN_UNFOLD) >= 1);
        assert!(snap.counter_across_labels(names::SPARQL_PATTERN_SCAN) >= 1);
    }
}
