//! AST-level round-trip property for OASSIS-QL: `parse(display(ast))`
//! reconstructs the exact AST — not just a string that reparses, but the
//! same variables (ids and names), patterns, multiplicities and support.
//!
//! The WHERE generator exercises every grammar construct: all four
//! elementary path modifiers (`rel`, `rel*`, `rel+`, `rel?`), compound
//! `/`-sequences and `|`-alternations, `OPTIONAL { ... }` groups,
//! `{ ... } UNION { ... }`, `FILTER` with `=` / `!=` / `IN` / `NOT IN`,
//! and the solution modifiers `DISTINCT` / `ORDER BY` / `LIMIT` /
//! `OFFSET`.
//!
//! Complements `tests/language_properties.rs`, which starts from generated
//! *strings*; here the generator builds [`Query`] values directly, so the
//! property also pins the printer's treatment of every AST shape the
//! validator admits.

use proptest::prelude::*;

use oassis::ql::{
    validate_query, Multiplicity, QlRel, QlTerm, Query, SatPattern, SatisfyingClause, SelectForm,
};
use oassis::sparql::{
    FilterExpr, FilterTerm, GraphPattern, GroupItem, PatTerm, PropPath, SortDir, TriplePattern,
    Var, VarTable, WhereClause,
};
use oassis::store::ontology::figure1_ontology;
use oassis::store::{Ontology, Term};

/// Element names from the figure-1 travel ontology, including ones the
/// printer must angle-quote.
const ELEMENTS: &[&str] = &[
    "Activity",
    "Sport",
    "Biking",
    "Ball Game",
    "Central Park",
    "Attraction",
    "Restaurant",
    "NYC",
    "Maoz Veg.",
];
const RELATIONS: &[&str] = &[
    "doAt",
    "eatAt",
    "inside",
    "nearBy",
    "subClassOf",
    "instanceOf",
];
/// Subject/object variable pool. Disjoint from [`REL_VARS`] so relation
/// variables never carry a multiplicity (the validator forbids it).
const VARS: &[&str] = &["x", "y", "z", "w", "v"];
const REL_VARS: &[&str] = &["p", "q"];

/// A property path: `(shape, rel1, rel2, kind1, kind2)`. Shapes 0–3 are the
/// elementary modifiers on `rel1`; 4 is `step1/step2`, 5 is `step1|step2`,
/// 6 is the mixed-precedence `rel1/rel2|step1`.
type PathSpec = (u8, usize, usize, u8, u8);
/// One WHERE triple: subject var, path, object (var or element).
type TripleSpec = (usize, PathSpec, (bool, usize, usize));
/// One FILTER: `(op, rhs-is-var, rhs var, const elems)` — applied to the
/// subject variable of the group's first triple, which is always bound.
type FilterSpec = (u8, bool, usize, Vec<usize>);
/// One top-level WHERE item: `(kind, triple, groupA, groupB, filter)`.
/// Kind 0 = triple, 1 = OPTIONAL groupA (+ nested filter), 2 = groupA UNION
/// groupB, 3 = top-level FILTER (downgraded to a triple when no top-level
/// triple precedes it to bind the filter's variable).
type ItemSpec = (
    u8,
    TripleSpec,
    Vec<TripleSpec>,
    Vec<TripleSpec>,
    Option<FilterSpec>,
);
/// Solution modifiers: distinct, ORDER BY keys `(var-pick, desc)`, limit,
/// offset.
type ModSpec = (bool, Vec<(usize, bool)>, Option<u64>, u64);
/// One SATISFYING meta-fact: subject var, relation (var or constant),
/// object (var or element).
type SatSpec = (usize, (bool, usize, usize), (bool, usize, usize));

fn arb_mult() -> impl Strategy<Value = Multiplicity> {
    prop_oneof![
        Just(Multiplicity::One),
        Just(Multiplicity::AtLeastOne),
        Just(Multiplicity::Any),
        Just(Multiplicity::Optional),
        (2u32..5).prop_map(Multiplicity::Exactly),
    ]
}

fn arb_path() -> impl Strategy<Value = PathSpec> {
    (
        0u8..7,
        0..RELATIONS.len(),
        0..RELATIONS.len(),
        0u8..4,
        0u8..4,
    )
}

fn arb_triple() -> impl Strategy<Value = TripleSpec> {
    (
        0..VARS.len(),
        arb_path(),
        (proptest::bool::ANY, 0..VARS.len(), 0..ELEMENTS.len()),
    )
}

fn arb_filter() -> impl Strategy<Value = FilterSpec> {
    (
        0u8..4,
        proptest::bool::ANY,
        0..VARS.len(),
        proptest::collection::vec(0..ELEMENTS.len(), 1..3),
    )
}

fn arb_item() -> impl Strategy<Value = ItemSpec> {
    (
        0u8..4,
        arb_triple(),
        proptest::collection::vec(arb_triple(), 1..3),
        proptest::collection::vec(arb_triple(), 1..3),
        proptest::option::of(arb_filter()),
    )
}

fn arb_mods() -> impl Strategy<Value = ModSpec> {
    (
        proptest::bool::ANY,
        proptest::collection::vec((0..VARS.len(), proptest::bool::ANY), 0..3),
        proptest::option::of(0u64..20),
        0u64..5,
    )
}

fn arb_sat() -> impl Strategy<Value = SatSpec> {
    (
        0..VARS.len(),
        (proptest::bool::ANY, 0..REL_VARS.len(), 0..RELATIONS.len()),
        (proptest::bool::ANY, 0..VARS.len(), 0..ELEMENTS.len()),
    )
}

fn build_path(o: &Ontology, spec: &PathSpec) -> PropPath {
    let rel = |i: usize| {
        o.vocabulary()
            .relation(RELATIONS[i])
            .expect("known relation")
    };
    let step = |kind: u8, r: usize| match kind {
        0 => PropPath::Rel(rel(r)),
        1 => PropPath::Star(rel(r)),
        2 => PropPath::Plus(rel(r)),
        _ => PropPath::Opt(rel(r)),
    };
    let &(shape, r1, r2, k1, k2) = spec;
    match shape {
        0..=3 => step(shape, r1),
        4 => PropPath::Seq(vec![step(k1, r1), step(k2, r2)]),
        5 => PropPath::Alt(vec![step(k1, r1), step(k2, r2)]),
        // `/` binds tighter than `|`: Alt over a Seq and a step.
        _ => PropPath::Alt(vec![
            PropPath::Seq(vec![PropPath::Rel(rel(r1)), PropPath::Rel(rel(r2))]),
            step(k1, r1),
        ]),
    }
}

fn build_triple(o: &Ontology, vars: &mut VarTable, spec: &TripleSpec) -> TriplePattern {
    let elem = |i: usize| o.vocabulary().element(ELEMENTS[i]).expect("known element");
    let &(subj, ref path, (obj_is_var, obj_var, obj_elem)) = spec;
    let subject = PatTerm::Var(vars.var(VARS[subj]));
    let path = build_path(o, path);
    let object = if obj_is_var {
        PatTerm::Var(vars.var(VARS[obj_var]))
    } else {
        PatTerm::Const(Term::Element(elem(obj_elem)))
    };
    TriplePattern::new(subject, path, object)
}

/// Build a filter whose variables are guaranteed bound: the left operand is
/// `anchor` (the subject of a triple in the same group) and a variable
/// right-hand side reuses the anchor too unless `rhs_var` happens to be
/// bound there already (we keep it simple and always anchor).
fn build_filter(o: &Ontology, anchor: Var, spec: &FilterSpec) -> FilterExpr {
    let elem = |i: usize| Term::Element(o.vocabulary().element(ELEMENTS[i]).expect("known"));
    let &(op, rhs_is_var, _rhs_var, ref consts) = spec;
    let rhs = if rhs_is_var {
        FilterTerm::Var(anchor)
    } else {
        FilterTerm::Const(elem(consts[0]))
    };
    match op {
        0 => FilterExpr::Eq(FilterTerm::Var(anchor), rhs),
        1 => FilterExpr::Ne(FilterTerm::Var(anchor), rhs),
        2 => FilterExpr::In(anchor, consts.iter().map(|&i| elem(i)).collect()),
        _ => FilterExpr::NotIn(anchor, consts.iter().map(|&i| elem(i)).collect()),
    }
}

/// Build a nested group from triples plus an optional trailing filter
/// anchored on the first triple's subject.
fn build_group(
    o: &Ontology,
    vars: &mut VarTable,
    triples: &[TripleSpec],
    filter: &Option<FilterSpec>,
) -> GraphPattern {
    let mut items: Vec<GroupItem> = Vec::new();
    let mut anchor = None;
    for t in triples {
        let triple = build_triple(o, vars, t);
        if anchor.is_none() {
            anchor = triple.subject.as_var();
        }
        items.push(GroupItem::Triple(triple));
    }
    if let (Some(f), Some(a)) = (filter, anchor) {
        items.push(GroupItem::Filter(build_filter(o, a, f)));
    }
    GraphPattern { items }
}

fn build_where(
    o: &Ontology,
    vars: &mut VarTable,
    items: &[ItemSpec],
    mods: &ModSpec,
) -> WhereClause {
    let mut out: Vec<GroupItem> = Vec::new();
    let mut top_anchor: Option<Var> = None;
    for (kind, triple, group_a, group_b, filter) in items {
        match kind {
            1 => out.push(GroupItem::Optional(build_group(o, vars, group_a, filter))),
            2 => out.push(GroupItem::Union(vec![
                build_group(o, vars, group_a, &None),
                build_group(o, vars, group_b, &None),
            ])),
            3 if top_anchor.is_some() && filter.is_some() => out.push(GroupItem::Filter(
                build_filter(o, top_anchor.unwrap(), filter.as_ref().unwrap()),
            )),
            // Kind 0, or a filter with nothing to anchor on: plain triple.
            _ => {
                let t = build_triple(o, vars, triple);
                if top_anchor.is_none() {
                    top_anchor = t.subject.as_var();
                }
                out.push(GroupItem::Triple(t));
            }
        }
    }
    let (distinct, order, limit, offset) = mods;
    // ORDER BY keys must be query variables; reuse the pattern's vars.
    let available: Vec<Var> = {
        let mut seen = std::collections::HashSet::new();
        let pattern = GraphPattern { items: out.clone() };
        pattern
            .all_triples()
            .iter()
            .flat_map(|t| t.vars())
            .filter(|v| seen.insert(*v))
            .collect()
    };
    let mut order_by: Vec<(Var, SortDir)> = Vec::new();
    if !available.is_empty() {
        for &(pick, desc) in order {
            let v = available[pick % available.len()];
            order_by.push((v, if desc { SortDir::Desc } else { SortDir::Asc }));
        }
    }
    WhereClause {
        pattern: GraphPattern { items: out },
        distinct: *distinct,
        order_by,
        limit: *limit,
        offset: *offset,
    }
}

/// Build a validator-clean query AST from the generated spec. Variables are
/// interned in first-textual-occurrence order — exactly the order the
/// parser assigns ids in — and each subject/object variable uses one fixed
/// multiplicity everywhere it occurs (repeated equal annotations are
/// legal; conflicting ones are not).
#[allow(clippy::too_many_arguments)]
fn build_query(
    o: &Ontology,
    select_variables: bool,
    all: bool,
    wheres: &[ItemSpec],
    mods: &ModSpec,
    sats: &[SatSpec],
    mults: &[Multiplicity],
    more: bool,
    support: f64,
) -> Query {
    let vocab = o.vocabulary();
    let elem = |i: usize| vocab.element(ELEMENTS[i]).expect("known element");
    let rel = |i: usize| vocab.relation(RELATIONS[i]).expect("known relation");

    let mut vars = VarTable::new();
    let where_clause = build_where(o, &mut vars, wheres, mods);

    let patterns: Vec<SatPattern> = sats
        .iter()
        .map(
            |&(subj, (rel_is_var, rel_var, rel_const), (obj_is_var, obj_var, obj_elem))| {
                let subject = QlTerm::Var(vars.var(VARS[subj]));
                let subject_mult = mults[subj];
                let relation = if rel_is_var {
                    QlRel::Var(vars.var(REL_VARS[rel_var]))
                } else {
                    QlRel::Relation(rel(rel_const))
                };
                let (object, object_mult) = if obj_is_var {
                    (QlTerm::Var(vars.var(VARS[obj_var])), mults[obj_var])
                } else {
                    (QlTerm::Element(elem(obj_elem)), Multiplicity::One)
                };
                SatPattern {
                    subject,
                    subject_mult,
                    relation,
                    object,
                    object_mult,
                }
            },
        )
        .collect();

    Query {
        select: if select_variables {
            SelectForm::Variables
        } else {
            SelectForm::FactSets
        },
        all,
        where_clause,
        satisfying: SatisfyingClause {
            patterns,
            more,
            support,
        },
        vars,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse(display(ast)) == ast`: the printer loses nothing the parser
    /// needs, and the parser reconstructs the same structure (same
    /// variable ids, since both sides number by first occurrence).
    #[test]
    fn displayed_ast_reparses_to_the_same_ast(
        select_variables in proptest::bool::ANY,
        all in proptest::bool::ANY,
        wheres in proptest::collection::vec(arb_item(), 0..4),
        mods in arb_mods(),
        sats in proptest::collection::vec(arb_sat(), 1..4),
        mults in proptest::collection::vec(arb_mult(), VARS.len()),
        more in proptest::bool::ANY,
        support in (0u32..=100).prop_map(|n| n as f64 / 100.0),
    ) {
        let o = figure1_ontology();
        let ast = build_query(
            &o, select_variables, all, &wheres, &mods, &sats, &mults, more, support,
        );
        prop_assert!(
            validate_query(&ast).is_ok(),
            "the generator must only build validator-clean ASTs"
        );

        let printed = ast.to_ql_string(&o);
        let reparsed = match oassis::ql::parse_query(&printed, &o) {
            Ok(q) => q,
            Err(e) => return Err(TestCaseError::fail(format!(
                "printed AST failed to reparse: {e}\n{printed}"
            ))),
        };

        prop_assert_eq!(ast.select, reparsed.select);
        prop_assert_eq!(ast.all, reparsed.all);
        prop_assert_eq!(&ast.where_clause, &reparsed.where_clause, "\n{}", &printed);
        prop_assert_eq!(&ast.satisfying, &reparsed.satisfying, "\n{}", &printed);
        // Variable identity survives: same count, names and id order.
        prop_assert_eq!(ast.vars.len(), reparsed.vars.len(), "\n{}", &printed);
        for v in ast.vars.iter() {
            prop_assert_eq!(ast.vars.name(v), reparsed.vars.name(v), "\n{}", &printed);
        }
        // And display is a fixpoint.
        prop_assert_eq!(printed.clone(), reparsed.to_ql_string(&o));
    }
}
