//! AST for graph patterns: variables, pattern terms, property paths, the
//! group-graph-pattern algebra (`UNION` / `OPTIONAL` / `FILTER`) and the
//! solution modifiers (`DISTINCT` / `ORDER BY` / `LIMIT` / `OFFSET`).

use std::collections::HashMap;
use std::fmt;

use oassis_store::Term;
use oassis_vocab::RelationId;

/// A query variable, dense per [`VarTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Dense index for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

/// Interns variable names (`$x`) within one query.
///
/// The blank node `[]` and the `MORE` clause allocate *anonymous* variables,
/// which have generated names and are excluded from
/// [`named`](VarTable::named) iteration.
#[derive(Debug, Clone, Default)]
pub struct VarTable {
    names: Vec<String>,
    by_name: HashMap<String, Var>,
    anon: Vec<bool>,
}

impl VarTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a named variable (without the `$` sigil).
    pub fn var(&mut self, name: &str) -> Var {
        if let Some(&v) = self.by_name.get(name) {
            return v;
        }
        let v = Var(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), v);
        self.anon.push(false);
        v
    }

    /// Allocate a fresh anonymous variable (for `[]` / `MORE`).
    pub fn fresh(&mut self, hint: &str) -> Var {
        let v = Var(self.names.len() as u32);
        self.names.push(format!("_{}{}", hint, v.0));
        self.anon.push(true);
        v
    }

    /// Look up an existing named variable.
    pub fn get(&self, name: &str) -> Option<Var> {
        self.by_name.get(name).copied()
    }

    /// The display name of `v` (anonymous names start with `_`).
    pub fn name(&self, v: Var) -> &str {
        &self.names[v.index()]
    }

    /// Whether `v` was allocated by [`fresh`](VarTable::fresh).
    pub fn is_anon(&self, v: Var) -> bool {
        self.anon[v.index()]
    }

    /// Number of variables (named + anonymous).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no variables exist.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All variables in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.names.len() as u32).map(Var)
    }

    /// Named (non-anonymous) variables in allocation order.
    pub fn named(&self) -> impl Iterator<Item = Var> + '_ {
        self.iter().filter(|v| !self.is_anon(*v))
    }
}

/// A subject/object position in a triple pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatTerm {
    /// A query variable.
    Var(Var),
    /// A constant term (element or literal).
    Const(Term),
}

impl PatTerm {
    /// The variable, if this position is one.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            PatTerm::Var(v) => Some(*v),
            PatTerm::Const(_) => None,
        }
    }
}

/// A property path.
///
/// Elementary steps carry one relation with an optional `*`/`+`/`?`
/// modifier; compound paths compose steps with `/` (sequence) and `|`
/// (alternation). The grammar has no parentheses, so `/` binds tighter than
/// `|`: an [`Alt`](PropPath::Alt) contains only sequences or steps, and a
/// [`Seq`](PropPath::Seq) contains only steps. Compound constructors always
/// hold ≥ 2 parts (single-part compounds collapse to the part).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PropPath {
    /// Exactly one `rel` edge.
    Rel(RelationId),
    /// Zero or more `rel` edges (`rel*`).
    Star(RelationId),
    /// One or more `rel` edges (`rel+`).
    Plus(RelationId),
    /// Zero or one `rel` edge (`rel?`).
    Opt(RelationId),
    /// `p1/p2/...` — steps in sequence.
    Seq(Vec<PropPath>),
    /// `p1|p2|...` — any branch.
    Alt(Vec<PropPath>),
}

impl PropPath {
    /// Build a sequence, collapsing the single-step case.
    pub fn seq(mut parts: Vec<PropPath>) -> PropPath {
        if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            PropPath::Seq(parts)
        }
    }

    /// Build an alternation, collapsing the single-branch case.
    pub fn alt(mut parts: Vec<PropPath>) -> PropPath {
        if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            PropPath::Alt(parts)
        }
    }

    /// The underlying relation of an *elementary* path (`rel`, `rel*`,
    /// `rel+`, `rel?`); `None` for compound `/` and `|` paths.
    pub fn relation(&self) -> Option<RelationId> {
        match self {
            PropPath::Rel(r) | PropPath::Star(r) | PropPath::Plus(r) | PropPath::Opt(r) => Some(*r),
            PropPath::Seq(_) | PropPath::Alt(_) => None,
        }
    }

    /// Every relation mentioned anywhere in the path, in syntactic order.
    pub fn relations(&self) -> Vec<RelationId> {
        fn walk(p: &PropPath, out: &mut Vec<RelationId>) {
            match p {
                PropPath::Rel(r) | PropPath::Star(r) | PropPath::Plus(r) | PropPath::Opt(r) => {
                    out.push(*r)
                }
                PropPath::Seq(ps) | PropPath::Alt(ps) => ps.iter().for_each(|p| walk(p, out)),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Whether evaluating this path can require more than one edge lookup
    /// per candidate (anything beyond a plain `rel`).
    pub fn is_path(&self) -> bool {
        !matches!(self, PropPath::Rel(_))
    }
}

/// One triple pattern `subject path object`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    /// The subject position.
    pub subject: PatTerm,
    /// The property path.
    pub path: PropPath,
    /// The object position.
    pub object: PatTerm,
}

impl TriplePattern {
    /// Construct a pattern.
    pub fn new(subject: PatTerm, path: PropPath, object: PatTerm) -> Self {
        TriplePattern {
            subject,
            path,
            object,
        }
    }

    /// The variables this pattern mentions (0, 1 or 2).
    pub fn vars(&self) -> impl Iterator<Item = Var> {
        self.subject
            .as_var()
            .into_iter()
            .chain(self.object.as_var())
    }
}

/// An operand of a `FILTER` comparison: a variable or a constant term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterTerm {
    /// A query variable.
    Var(Var),
    /// A constant (element or literal).
    Const(Term),
}

impl FilterTerm {
    /// The variable, if this operand is one.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            FilterTerm::Var(v) => Some(*v),
            FilterTerm::Const(_) => None,
        }
    }
}

/// A `FILTER` expression. Comparisons are by term identity (`=`, `!=`);
/// membership tests enumerate constant terms (`IN`, `NOT IN`). A filter
/// over an *unbound* variable rejects the solution (three-valued SPARQL
/// semantics collapse to false here).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FilterExpr {
    /// `a = b`.
    Eq(FilterTerm, FilterTerm),
    /// `a != b`.
    Ne(FilterTerm, FilterTerm),
    /// `$v IN (t1, t2, ...)`.
    In(Var, Vec<Term>),
    /// `$v NOT IN (t1, t2, ...)`.
    NotIn(Var, Vec<Term>),
}

impl FilterExpr {
    /// Variables the expression references.
    pub fn vars(&self) -> Vec<Var> {
        match self {
            FilterExpr::Eq(a, b) | FilterExpr::Ne(a, b) => {
                a.as_var().into_iter().chain(b.as_var()).collect()
            }
            FilterExpr::In(v, _) | FilterExpr::NotIn(v, _) => vec![*v],
        }
    }

    /// Evaluate against a lookup of variable values. `None` (unbound)
    /// makes the whole expression false.
    pub fn eval(&self, lookup: impl Fn(Var) -> Option<Term>) -> bool {
        let resolve = |t: &FilterTerm| match t {
            FilterTerm::Var(v) => lookup(*v),
            FilterTerm::Const(c) => Some(*c),
        };
        match self {
            FilterExpr::Eq(a, b) => {
                matches!((resolve(a), resolve(b)), (Some(x), Some(y)) if x == y)
            }
            FilterExpr::Ne(a, b) => {
                matches!((resolve(a), resolve(b)), (Some(x), Some(y)) if x != y)
            }
            FilterExpr::In(v, ts) => lookup(*v).is_some_and(|x| ts.contains(&x)),
            FilterExpr::NotIn(v, ts) => lookup(*v).is_some_and(|x| !ts.contains(&x)),
        }
    }
}

/// One item of a group graph pattern (a conjunction).
#[derive(Debug, Clone, PartialEq)]
pub enum GroupItem {
    /// A triple pattern.
    Triple(TriplePattern),
    /// `OPTIONAL { ... }` — left-join the group against the body.
    Optional(GraphPattern),
    /// `{ ... } UNION { ... } ...` — any branch may match (≥ 1 branch).
    Union(Vec<GraphPattern>),
    /// `FILTER ( ... )` — restrict the group's solutions.
    Filter(FilterExpr),
}

/// A group graph pattern: the conjunction of its items.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GraphPattern {
    /// Conjoined items, in source order.
    pub items: Vec<GroupItem>,
}

impl GraphPattern {
    /// A group holding only plain triple patterns.
    pub fn from_triples(triples: Vec<TriplePattern>) -> Self {
        GraphPattern {
            items: triples.into_iter().map(GroupItem::Triple).collect(),
        }
    }

    /// Triple patterns that *every* solution of this group must match:
    /// the group's own triples. Triples inside `OPTIONAL` bodies and
    /// `UNION` branches are excluded (a solution may satisfy the group
    /// without them), so downstream consumers that treat these as
    /// universal constraints (e.g. taxonomy anchors) stay sound.
    pub fn required_triples(&self) -> Vec<&TriplePattern> {
        self.items
            .iter()
            .filter_map(|i| match i {
                GroupItem::Triple(t) => Some(t),
                _ => None,
            })
            .collect()
    }

    /// Every triple pattern anywhere in the group, including `OPTIONAL`
    /// bodies and `UNION` branches.
    pub fn all_triples(&self) -> Vec<&TriplePattern> {
        let mut out = Vec::new();
        self.collect_triples(&mut out);
        out
    }

    fn collect_triples<'a>(&'a self, out: &mut Vec<&'a TriplePattern>) {
        for item in &self.items {
            match item {
                GroupItem::Triple(t) => out.push(t),
                GroupItem::Optional(g) => g.collect_triples(out),
                GroupItem::Union(branches) => branches.iter().for_each(|g| g.collect_triples(out)),
                GroupItem::Filter(_) => {}
            }
        }
    }

    /// Variables bound by any triple anywhere in the group, in first-use
    /// order.
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for t in self.all_triples() {
            for v in t.vars() {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Whether the group contains anything beyond plain triples (i.e.
    /// whether pre-algebra consumers could treat it as a bare BGP).
    pub fn is_plain_bgp(&self) -> bool {
        self.items.iter().all(|i| matches!(i, GroupItem::Triple(_)))
    }
}

/// Sort direction of one `ORDER BY` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortDir {
    /// Ascending (default, `ASC`).
    #[default]
    Asc,
    /// Descending (`DESC`).
    Desc,
}

/// A complete WHERE clause: the graph pattern plus solution modifiers.
///
/// Results are *always* set-semantic (the evaluator sorts and deduplicates
/// bindings), so `DISTINCT` is accepted and printed but adds nothing —
/// `distinct` records whether the query spelled it out.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WhereClause {
    /// The group graph pattern.
    pub pattern: GraphPattern,
    /// Whether `DISTINCT` was written (set semantics always apply).
    pub distinct: bool,
    /// `ORDER BY` keys, applied in order.
    pub order_by: Vec<(Var, SortDir)>,
    /// `LIMIT n` — keep at most `n` solutions (after ordering).
    pub limit: Option<u64>,
    /// `OFFSET n` — skip the first `n` solutions (after ordering).
    pub offset: u64,
}

impl WhereClause {
    /// A modifier-free clause over plain triple patterns (the pre-algebra
    /// conjunctive shape).
    pub fn from_triples(triples: Vec<TriplePattern>) -> Self {
        WhereClause {
            pattern: GraphPattern::from_triples(triples),
            ..WhereClause::default()
        }
    }

    /// Triples every solution must match (see
    /// [`GraphPattern::required_triples`]).
    pub fn required_triples(&self) -> Vec<&TriplePattern> {
        self.pattern.required_triples()
    }

    /// Whether any solution modifier is present.
    pub fn has_modifiers(&self) -> bool {
        self.distinct || !self.order_by.is_empty() || self.limit.is_some() || self.offset > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_vocab::ElementId;

    #[test]
    fn var_table_interns() {
        let mut t = VarTable::new();
        let x = t.var("x");
        assert_eq!(t.var("x"), x);
        let y = t.var("y");
        assert_ne!(x, y);
        assert_eq!(t.name(x), "x");
        assert_eq!(t.get("y"), Some(y));
        assert_eq!(t.get("z"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn fresh_vars_are_anonymous_and_unique() {
        let mut t = VarTable::new();
        let a = t.fresh("blank");
        let b = t.fresh("blank");
        assert_ne!(a, b);
        assert!(t.is_anon(a));
        let x = t.var("x");
        assert!(!t.is_anon(x));
        let named: Vec<_> = t.named().collect();
        assert_eq!(named.len(), 1);
    }

    #[test]
    fn pattern_vars() {
        let mut t = VarTable::new();
        let x = t.var("x");
        let p = TriplePattern::new(
            PatTerm::Var(x),
            PropPath::Rel(oassis_vocab::RelationId(0)),
            PatTerm::Const(Term::Element(ElementId(1))),
        );
        assert_eq!(p.vars().collect::<Vec<_>>(), [x]);
        assert!(!p.path.is_path());
        assert!(PropPath::Star(oassis_vocab::RelationId(0)).is_path());
    }

    #[test]
    fn compound_paths_collapse_and_enumerate() {
        let r0 = RelationId(0);
        let r1 = RelationId(1);
        assert_eq!(PropPath::seq(vec![PropPath::Rel(r0)]), PropPath::Rel(r0));
        assert_eq!(PropPath::alt(vec![PropPath::Star(r1)]), PropPath::Star(r1));
        let p = PropPath::alt(vec![
            PropPath::seq(vec![PropPath::Rel(r0), PropPath::Plus(r1)]),
            PropPath::Opt(r0),
        ]);
        assert_eq!(p.relation(), None);
        assert_eq!(p.relations(), vec![r0, r1, r0]);
        assert!(p.is_path());
    }

    #[test]
    fn filter_eval_semantics() {
        let mut t = VarTable::new();
        let x = t.var("x");
        let a = Term::Element(ElementId(1));
        let b = Term::Element(ElementId(2));
        let bound = |v: Var| if v == x { Some(a) } else { None };
        assert!(FilterExpr::Eq(FilterTerm::Var(x), FilterTerm::Const(a)).eval(bound));
        assert!(!FilterExpr::Eq(FilterTerm::Var(x), FilterTerm::Const(b)).eval(bound));
        assert!(FilterExpr::Ne(FilterTerm::Var(x), FilterTerm::Const(b)).eval(bound));
        assert!(FilterExpr::In(x, vec![a, b]).eval(bound));
        assert!(!FilterExpr::NotIn(x, vec![a, b]).eval(bound));
        // Unbound variables make every expression false, even NOT IN.
        let unbound = |_: Var| None;
        assert!(!FilterExpr::Eq(FilterTerm::Var(x), FilterTerm::Const(a)).eval(unbound));
        assert!(!FilterExpr::NotIn(x, vec![b]).eval(unbound));
    }

    #[test]
    fn required_vs_all_triples() {
        let mut t = VarTable::new();
        let x = t.var("x");
        let y = t.var("y");
        let triple = |v: Var| {
            TriplePattern::new(
                PatTerm::Var(v),
                PropPath::Rel(RelationId(0)),
                PatTerm::Const(Term::Element(ElementId(0))),
            )
        };
        let g = GraphPattern {
            items: vec![
                GroupItem::Triple(triple(x)),
                GroupItem::Optional(GraphPattern::from_triples(vec![triple(y)])),
                GroupItem::Union(vec![
                    GraphPattern::from_triples(vec![triple(y)]),
                    GraphPattern::default(),
                ]),
                GroupItem::Filter(FilterExpr::In(x, vec![])),
            ],
        };
        assert_eq!(g.required_triples().len(), 1);
        assert_eq!(g.all_triples().len(), 3);
        assert_eq!(g.vars(), vec![x, y]);
        assert!(!g.is_plain_bgp());
        assert!(GraphPattern::from_triples(vec![triple(x)]).is_plain_bgp());
    }

    #[test]
    fn where_clause_modifiers() {
        let wc = WhereClause::from_triples(vec![]);
        assert!(!wc.has_modifiers());
        let wc = WhereClause {
            limit: Some(3),
            ..WhereClause::from_triples(vec![])
        };
        assert!(wc.has_modifiers());
    }
}
