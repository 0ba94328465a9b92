//! Three-way differential oracle for the WHERE-clause compiler.
//!
//! For random queries over random generated taxonomies, three independent
//! evaluation legs must agree binding-for-binding:
//!
//! 1. **optimized** — `evaluate_where`: compile → rewrite (constraint
//!    pushdown, taxonomy unfolding, pruning, join reordering) → interpret;
//! 2. **unoptimized** — `run_plan` over the bare `plan::compile` output
//!    (source order, no rewrites, but index-backed scans and memoized
//!    closures);
//! 3. **reference** — `evaluate_reference`: direct AST recursion with
//!    linear scans and fresh DFS per path lookup.
//!
//! The generated ontologies vary taxonomy shape (random parent forests),
//! stored-edge relations (`linkA`/`linkB` plus `instanceOf` edges that
//! break the taxonomy-mirror condition for `subClassOf` unfolding), and
//! the `linkA ≤R linkB` relation order that distinguishes semantic from
//! syntactic matching.

use proptest::prelude::*;

use oassis::sparql::{evaluate_reference, evaluate_where, plan, run_plan, MatchMode, VarTable};
use oassis::store::Ontology;

const QVARS: &[&str] = &["x", "y", "z"];
const RELS: &[&str] = &["subClassOf", "instanceOf", "linkA", "linkB"];

fn elem(i: usize, n: usize) -> String {
    format!("n{}", i % n)
}

/// Build an ontology with `n` elements, a random parent forest (element
/// `i+1` optionally gets parent `parents[i] % (i+1)`, so the order is
/// acyclic by construction), and random stored edges.
fn build_ontology(
    n: usize,
    parents: &[(bool, usize)],
    edges: &[(u8, usize, usize)],
    link_isa: bool,
) -> Ontology {
    let mut b = Ontology::builder();
    for i in 0..n {
        b.element(&elem(i, n));
    }
    b.relation("subClassOf");
    b.relation("instanceOf");
    b.relation("linkA");
    b.relation("linkB");
    if link_isa {
        // linkB ≤R linkA: a `linkA` pattern also matches stored linkB
        // triples in semantic mode.
        b.relation_isa("linkB", "linkA");
    }
    for (i, &(has, pick)) in parents.iter().enumerate().take(n.saturating_sub(1)) {
        if has {
            b.subclass(&elem(i + 1, n), &elem(pick % (i + 1), n));
        }
    }
    for &(r, s, o) in edges {
        let (s, o) = (s % n, o % n);
        match r % 3 {
            0 => {
                b.triple(&elem(s, n), "linkA", &elem(o, n));
            }
            1 => {
                b.triple(&elem(s, n), "linkB", &elem(o, n));
            }
            // instanceOf edges also extend the element order; keep them
            // pointing from a higher to a strictly lower index so the
            // combined order stays acyclic.
            _ if s != o => {
                b.triple(&elem(s.max(o), n), "instanceOf", &elem(s.min(o), n));
            }
            _ => {}
        }
    }
    b.build().expect("generated ontology is acyclic")
}

/// Render one path: elementary shapes 0–3, `/`-sequence 4, `|`-alternation
/// 5, mixed `a/b|c` 6.
fn path_str(spec: &(u8, usize, usize, u8, u8)) -> String {
    let step = |kind: u8, r: usize| {
        let rel = RELS[r % RELS.len()];
        match kind % 4 {
            0 => rel.to_string(),
            1 => format!("{rel}*"),
            2 => format!("{rel}+"),
            _ => format!("{rel}?"),
        }
    };
    let &(shape, r1, r2, k1, k2) = spec;
    match shape % 7 {
        s @ 0..=3 => step(s, r1),
        4 => format!("{}/{}", step(k1, r1), step(k2, r2)),
        5 => format!("{}|{}", step(k1, r1), step(k2, r2)),
        _ => format!(
            "{}/{}|{}",
            RELS[r1 % RELS.len()],
            RELS[r2 % RELS.len()],
            step(k1, r1)
        ),
    }
}

type TripleSpec = ((u8, usize, usize, u8, u8), usize, (bool, usize));

/// Render one triple pattern `$var path (var|element)`.
fn triple_str(spec: &TripleSpec, n: usize) -> String {
    let (path, subj, (obj_is_var, obj)) = spec;
    let object = if *obj_is_var {
        format!("${}", QVARS[obj % QVARS.len()])
    } else {
        elem(*obj, n)
    };
    format!(
        "${} {} {}",
        QVARS[subj % QVARS.len()],
        path_str(path),
        object
    )
}

type ItemSpec = (
    u8,
    TripleSpec,
    Vec<TripleSpec>,
    Vec<TripleSpec>,
    (u8, Vec<usize>),
);

/// Assemble a WHERE-clause source string from item specs. The first item
/// is always a plain triple so FILTERs have a bound anchor variable.
fn where_str(
    items: &[ItemSpec],
    mods: &(bool, Vec<(usize, bool)>, Option<u64>, u64),
    n: usize,
) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut anchor: Option<String> = None;
    for (i, (kind, triple, group_a, group_b, (filter_op, consts))) in items.iter().enumerate() {
        let kind = if i == 0 { 0 } else { kind % 4 };
        match kind {
            1 => {
                let inner: Vec<String> = group_a.iter().map(|t| triple_str(t, n)).collect();
                parts.push(format!("OPTIONAL {{ {} }}", inner.join(". ")));
            }
            2 => {
                let a: Vec<String> = group_a.iter().map(|t| triple_str(t, n)).collect();
                let b: Vec<String> = group_b.iter().map(|t| triple_str(t, n)).collect();
                parts.push(format!(
                    "{{ {} }} UNION {{ {} }}",
                    a.join(". "),
                    b.join(". ")
                ));
            }
            3 if anchor.is_some() => {
                let a = anchor.clone().expect("checked");
                let list = consts
                    .iter()
                    .map(|&c| elem(c, n))
                    .collect::<Vec<_>>()
                    .join(", ");
                parts.push(match filter_op % 4 {
                    0 => format!("FILTER({a} = {})", elem(consts[0], n)),
                    1 => format!("FILTER({a} != {})", elem(consts[0], n)),
                    2 => format!("FILTER({a} IN ({list}))"),
                    _ => format!("FILTER({a} NOT IN ({list}))"),
                });
            }
            _ => {
                if anchor.is_none() {
                    anchor = Some(format!("${}", QVARS[triple.1 % QVARS.len()]));
                }
                parts.push(triple_str(triple, n));
            }
        }
    }
    let mut src = parts.join(". ");
    let (distinct, order, limit, offset) = mods;
    if *distinct {
        src.push_str(" DISTINCT");
    }
    if !order.is_empty() {
        src.push_str(" ORDER BY");
        for &(v, desc) in order {
            src.push_str(&format!(" ${}", QVARS[v % QVARS.len()]));
            if desc {
                src.push_str(" DESC");
            }
        }
    }
    if let Some(l) = limit {
        src.push_str(&format!(" LIMIT {l}"));
    }
    if *offset > 0 {
        src.push_str(&format!(" OFFSET {offset}"));
    }
    src
}

fn arb_triple() -> impl Strategy<Value = TripleSpec> {
    (
        (0u8..7, 0usize..4, 0usize..4, 0u8..4, 0u8..4),
        0usize..QVARS.len(),
        (proptest::bool::ANY, 0usize..10),
    )
}

fn arb_item() -> impl Strategy<Value = ItemSpec> {
    (
        0u8..4,
        arb_triple(),
        proptest::collection::vec(arb_triple(), 1..3),
        proptest::collection::vec(arb_triple(), 1..3),
        (0u8..4, proptest::collection::vec(0usize..10, 1..3)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// optimized ≡ unoptimized ≡ reference, in both matching modes, on
    /// random queries over random taxonomies.
    #[test]
    fn three_evaluators_agree(
        n in 3usize..9,
        parents in proptest::collection::vec((proptest::bool::ANY, 0usize..8), 8),
        edges in proptest::collection::vec((0u8..3, 0usize..9, 0usize..9), 0..12),
        link_isa in proptest::bool::ANY,
        items in proptest::collection::vec(arb_item(), 1..4),
        mods in (
            proptest::bool::ANY,
            proptest::collection::vec((0usize..QVARS.len(), proptest::bool::ANY), 0..3),
            proptest::option::of(0u64..12),
            0u64..4,
        ),
    ) {
        let o = build_ontology(n, &parents, &edges, link_isa);
        let src = where_str(&items, &mods, n);
        let mut vars = VarTable::new();
        let clause = match oassis::sparql::parse_where(&src, &o, &mut vars) {
            Ok(c) => c,
            Err(e) => return Err(TestCaseError::fail(format!("generated query failed to parse: {e}\n{src}"))),
        };
        for mode in [MatchMode::Syntactic, MatchMode::Semantic] {
            let optimized = evaluate_where(&o, &clause, &vars, mode);
            let unoptimized = run_plan(&o, &plan::compile(&o, &clause, mode), &vars, mode);
            let reference = evaluate_reference(&o, &clause, &vars, mode);
            prop_assert_eq!(
                &optimized, &unoptimized,
                "optimized vs unoptimized plan under {:?}:\n{}", mode, &src
            );
            prop_assert_eq!(
                &optimized, &reference,
                "planned vs reference under {:?}:\n{}", mode, &src
            );
        }
    }
}
