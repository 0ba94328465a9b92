//! A deliberately naive reference evaluator for differential testing.
//!
//! [`evaluate_reference`] implements the WHERE-clause semantics by direct
//! recursion over the AST with none of the planner's machinery: patterns
//! run in source order, filters apply only at the end of their group,
//! property paths are answered by fresh unmemoized depth-first search per
//! lookup, and no pushed-down restrictions or taxonomy unfolding exist.
//! It is the "obviously correct" spelling of the semantics; the proptest
//! oracle in `tests/` checks that the optimized planner, the unoptimized
//! plan interpreter, and this evaluator agree binding-for-binding on
//! random queries over random taxonomies.

use std::collections::HashSet;

use oassis_store::{Ontology, Term};
use oassis_vocab::RelationId;

use crate::ast::{
    FilterExpr, GraphPattern, GroupItem, PatTerm, PropPath, TriplePattern, VarTable, WhereClause,
};
use crate::eval::{Binding, MatchMode};

/// Evaluate `clause` the slow, obvious way. Results follow the same
/// contract as [`crate::evaluate_where`]: set-semantic (sorted by binding
/// value, deduplicated), then `ORDER BY`-sorted and `OFFSET`/`LIMIT`
/// sliced.
pub fn evaluate_reference(
    ontology: &Ontology,
    clause: &WhereClause,
    vars: &VarTable,
    mode: MatchMode,
) -> Vec<Binding> {
    let r = Ref { ontology, mode };
    let mut rows = r.group(&clause.pattern, &Binding::new(vars.len()));
    rows.sort();
    rows.dedup();
    if !clause.order_by.is_empty() {
        rows.sort_by(|a, b| crate::eval::compare_by_keys(a, b, &clause.order_by));
    }
    let offset = usize::try_from(clause.offset).unwrap_or(usize::MAX);
    let limit = clause
        .limit
        .map(|l| usize::try_from(l).unwrap_or(usize::MAX))
        .unwrap_or(usize::MAX);
    rows.into_iter().skip(offset).take(limit).collect()
}

struct Ref<'a> {
    ontology: &'a Ontology,
    mode: MatchMode,
}

impl<'a> Ref<'a> {
    /// Relations `r` matches under the mode — recomputed on every call,
    /// deliberately.
    fn rels(&self, r: RelationId) -> Vec<RelationId> {
        match self.mode {
            MatchMode::Syntactic => vec![r],
            MatchMode::Semantic => self
                .ontology
                .vocabulary()
                .relations_order()
                .descendants(r)
                .collect(),
        }
    }

    /// Solutions of `group` extending `ctx`: items in source order,
    /// filters collected and applied once at group close.
    fn group(&self, group: &GraphPattern, ctx: &Binding) -> Vec<Binding> {
        let mut rows = vec![ctx.clone()];
        let mut filters: Vec<&FilterExpr> = Vec::new();
        for item in &group.items {
            match item {
                GroupItem::Triple(t) => {
                    let mut next = Vec::new();
                    for b in &rows {
                        next.extend(self.triple(t, b));
                    }
                    rows = next;
                }
                GroupItem::Optional(body) => {
                    let mut next = Vec::new();
                    for b in &rows {
                        let inner = self.group(body, b);
                        if inner.is_empty() {
                            next.push(b.clone());
                        } else {
                            next.extend(inner);
                        }
                    }
                    rows = next;
                }
                GroupItem::Union(branches) => {
                    let mut next = Vec::new();
                    for b in &rows {
                        for branch in branches {
                            next.extend(self.group(branch, b));
                        }
                    }
                    rows = next;
                }
                GroupItem::Filter(e) => filters.push(e),
            }
        }
        rows.retain(|b| filters.iter().all(|e| e.eval(|v| b.get(v))));
        rows
    }

    /// Extensions of `ctx` matching one triple pattern.
    fn triple(&self, t: &TriplePattern, ctx: &Binding) -> Vec<Binding> {
        let s = resolve(&t.subject, ctx);
        let o = resolve(&t.object, ctx);
        let mut out = Vec::new();
        for (sv, ov) in self.pairs(&t.path, s, o) {
            let mut b = ctx.clone();
            if bind(&mut b, &t.subject, sv) && bind(&mut b, &t.object, ov) {
                out.push(b);
            }
        }
        out
    }

    /// `(subject, object)` pairs matching `path` under the constraints —
    /// all by linear scans and fresh DFS.
    fn pairs(&self, path: &PropPath, s: Option<Term>, o: Option<Term>) -> Vec<(Term, Term)> {
        match path {
            PropPath::Rel(r) => self.edges(*r, s, o),
            PropPath::Star(r) => self.closure(*r, s, o, true),
            PropPath::Plus(r) => self.closure(*r, s, o, false),
            PropPath::Opt(r) => {
                let mut v = self.edges(*r, s, o);
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
                let mut frontier = self.pairs(&parts[0], s, None);
                frontier.sort();
                frontier.dedup();
                for (i, part) in parts.iter().enumerate().skip(1) {
                    let last = i == parts.len() - 1;
                    let mut next = Vec::new();
                    for &(start, mid) in &frontier {
                        for (_, end) in self.pairs(part, Some(mid), if last { o } else { None }) {
                            next.push((start, end));
                        }
                    }
                    next.sort();
                    next.dedup();
                    frontier = next;
                }
                frontier
            }
            PropPath::Alt(parts) => {
                let mut v = Vec::new();
                for p in parts {
                    v.extend(self.pairs(p, s, o));
                }
                v.sort();
                v.dedup();
                v
            }
        }
    }

    /// Single edges: scan every stored triple of every matched relation
    /// and keep the endpoint-compatible ones.
    fn edges(&self, r: RelationId, s: Option<Term>, o: Option<Term>) -> Vec<(Term, Term)> {
        let mut out = Vec::new();
        for rel in self.rels(r) {
            for t in self.ontology.store().matching(None, Some(rel), None) {
                if s.is_some_and(|s| s != t.subject) {
                    continue;
                }
                if o.is_some_and(|o| o != t.object) {
                    continue;
                }
                out.push((t.subject, t.object));
            }
        }
        out
    }

    /// `*`/`+` pairs via fresh DFS — same semantics as the interpreter's
    /// memoized BFS (reflexive pairs range over vocabulary elements when
    /// both endpoints are free).
    fn closure(
        &self,
        r: RelationId,
        s: Option<Term>,
        o: Option<Term>,
        reflexive: bool,
    ) -> Vec<(Term, Term)> {
        match (s, o) {
            (Some(s), Some(o)) => {
                let hit = if s == o {
                    reflexive || self.reach(r, s).contains(&o)
                } else {
                    self.reach(r, s).contains(&o)
                };
                if hit {
                    vec![(s, o)]
                } else {
                    vec![]
                }
            }
            (Some(s), None) => {
                let mut v: Vec<(Term, Term)> =
                    self.reach(r, s).into_iter().map(|t| (s, t)).collect();
                if reflexive {
                    v.push((s, s));
                }
                v
            }
            (None, Some(o)) => {
                let mut v: Vec<(Term, Term)> =
                    self.co_reach(r, o).into_iter().map(|t| (t, o)).collect();
                if reflexive {
                    v.push((o, o));
                }
                v
            }
            (None, None) => {
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
                for n in nodes {
                    for t in self.reach(r, n) {
                        pairs.push((n, t));
                    }
                }
                pairs
            }
        }
    }

    /// Nodes strictly reachable from `from` (fresh DFS, no memo).
    fn reach(&self, r: RelationId, from: Term) -> Vec<Term> {
        let mut seen = HashSet::new();
        let mut stack = vec![from];
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            for (s2, o2) in self.edges(r, Some(n), None) {
                debug_assert_eq!(s2, n);
                if seen.insert(o2) {
                    out.push(o2);
                    stack.push(o2);
                }
            }
        }
        out
    }

    /// Nodes that strictly reach `to` (fresh DFS, no memo).
    fn co_reach(&self, r: RelationId, to: Term) -> Vec<Term> {
        let mut seen = HashSet::new();
        let mut stack = vec![to];
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            for (s2, o2) in self.edges(r, None, Some(n)) {
                debug_assert_eq!(o2, n);
                if seen.insert(s2) {
                    out.push(s2);
                    stack.push(s2);
                }
            }
        }
        out
    }
}

fn resolve(t: &PatTerm, b: &Binding) -> Option<Term> {
    match t {
        PatTerm::Const(c) => Some(*c),
        PatTerm::Var(v) => b.get(*v),
    }
}

fn bind(b: &mut Binding, t: &PatTerm, val: Term) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_where;
    use crate::parser::parse_where;
    use oassis_store::ontology::figure1_ontology;

    #[test]
    fn reference_agrees_with_planner_on_figure1() {
        let o = figure1_ontology();
        let sources = [
            "$x instanceOf Park",
            "$w subClassOf* Attraction. $x instanceOf $w",
            "$z nearBy/inside $c",
            "$a inside|nearBy $b",
            "<Central Park> inside? $y",
            "{ $x instanceOf Park } UNION { $x instanceOf Zoo }",
            "$z instanceOf Restaurant. OPTIONAL { $z nearBy <Bronx Zoo> }",
            "$x inside NYC. FILTER($x NOT IN (<Central Park>))",
            "$x inside NYC ORDER BY $x DESC LIMIT 2",
            // The WHERE clause of the paper's Figure 3 query.
            "$w subClassOf* Attraction. $x instanceOf $w. $x inside NYC. \
             $x hasLabel \"child-friendly\". $y subClassOf* Activity",
        ];
        for mode in [MatchMode::Syntactic, MatchMode::Semantic] {
            for src in sources {
                let mut vars = VarTable::new();
                let clause = parse_where(src, &o, &mut vars).unwrap();
                let fast = evaluate_where(&o, &clause, &vars, mode);
                let slow = evaluate_reference(&o, &clause, &vars, mode);
                assert_eq!(fast, slow, "{src} under {mode:?}");
            }
        }
    }

    #[test]
    fn reference_reflexive_star_over_elements() {
        let o = figure1_ontology();
        let mut vars = VarTable::new();
        let clause = parse_where("$a subClassOf* $a", &o, &mut vars).unwrap();
        let slow = evaluate_reference(&o, &clause, &vars, MatchMode::Syntactic);
        // One row per vocabulary element (reflexive pairs).
        assert_eq!(slow.len(), o.vocabulary().elements().count());
    }
}
