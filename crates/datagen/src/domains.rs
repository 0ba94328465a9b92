//! The three application domains of the real-crowd experiments (§6.3).
//!
//! Each domain is a generated ontology (the paper combined WordNet, YAGO and
//! Foursquare; we synthesize taxonomies with the same shape) plus the
//! canonical OASSIS-QL query the experiments execute. The generators are
//! sized so that the query's assignment DAG node count approximates the
//! paper's: travel ≈ 4773, culinary ≈ 10512, self-treatment ≈ 2307 (all
//! "without multiplicities").

use oassis_store::{Ontology, OntologyBuilder};

/// A generated experiment domain.
#[derive(Debug)]
pub struct Domain {
    /// Domain name ("travel", "culinary", "self-treatment").
    pub name: &'static str,
    /// The generated ontology.
    pub ontology: Ontology,
    /// The canonical query of the paper's experiments for this domain.
    pub query: String,
    /// Leaf-level subject values (for crowd generation).
    pub subject_leaves: Vec<String>,
    /// Leaf-level object values (instances or leaf classes).
    pub object_leaves: Vec<String>,
    /// The relation joining subjects to objects in the SATISFYING clause.
    pub relation: &'static str,
}

/// Build a class taxonomy under `root`: `branches` children, each expanded
/// `depth` more levels with `fanout` children per node. Returns leaf names.
fn build_tree(
    b: &mut OntologyBuilder,
    root: &str,
    prefix: &str,
    branches: usize,
    depth: usize,
    fanout: usize,
) -> Vec<String> {
    let mut leaves = Vec::new();
    let mut frontier: Vec<String> = Vec::new();
    for i in 0..branches {
        let name = format!("{prefix}-{i}");
        b.subclass(&name, root);
        frontier.push(name);
    }
    for level in 0..depth {
        let mut next = Vec::new();
        for parent in &frontier {
            for j in 0..fanout {
                let name = format!("{parent}.{j}");
                b.subclass(&name, parent);
                next.push(name);
            }
        }
        if level + 1 == depth {
            leaves = next.clone();
        }
        frontier = next;
    }
    if depth == 0 {
        leaves = frontier;
    }
    leaves
}

/// The travel-recommendation domain: activities done at child-friendly
/// attractions of a city, instances required for the attraction (which is
/// why some discovered MSPs are *invalid* — they generalize the instance to
/// a class, exactly the situation §6.3 describes for the travel query).
pub fn travel_domain() -> Domain {
    // 4 + 20 + 100 Activity classes, 12 Attraction classes — the DAG lands
    // near the paper's 4773 nodes.
    travel_domain_sized("travel", 4, 5, 4, 2)
}

/// A ~10× travel-shaped domain for the `scale` benchmark: the same query
/// and structure as [`travel_domain`], with wider taxonomies (8 + 56 + 392
/// Activity classes, 18 Attraction leaf classes ⇒ 36 labeled venues). The
/// assignment DAG grows to roughly 8–10× the paper-sized travel DAG.
pub fn travel_domain_10x() -> Domain {
    travel_domain_sized("travel-10x", 8, 7, 6, 3)
}

/// Travel-shaped domain generator behind [`travel_domain`] and
/// [`travel_domain_10x`]; taxonomy widths are the scaling knobs.
fn travel_domain_sized(
    name: &'static str,
    act_branches: usize,
    act_fanout: usize,
    attr_branches: usize,
    attr_fanout: usize,
) -> Domain {
    let mut b = Ontology::builder();
    // Subject taxonomy: Activity, 2 levels below the branch roots.
    let subject_leaves = build_tree(&mut b, "Activity", "Act", act_branches, 2, act_fanout);
    // Object taxonomy: Attraction, 1 level; instances per leaf class,
    // labeled and inside the city.
    let object_classes = build_tree(
        &mut b,
        "Attraction",
        "AttrCat",
        attr_branches,
        1,
        attr_fanout,
    );
    b.element("Tel Aviv");
    let mut object_leaves = Vec::new();
    for (i, class) in object_classes.iter().enumerate() {
        for k in 0..3 {
            let inst = format!("Venue-{i}-{k}");
            b.instance(&inst, class);
            b.triple(&inst, "inside", "Tel Aviv");
            if k < 2 {
                b.label(&inst, "child-friendly");
            }
            if k < 2 {
                object_leaves.push(inst);
            }
        }
    }
    b.relation("doAt");
    b.relation_isa("instanceOf", "subClassOf");
    let ontology = b.build().expect("travel domain is well-formed");
    let query = r#"
        SELECT FACT-SETS
        WHERE
          $w subClassOf* Attraction.
          $x instanceOf $w.
          $x inside <Tel Aviv>.
          $x hasLabel "child-friendly".
          $y subClassOf* Activity
        SATISFYING
          $y+ doAt $x
        WITH SUPPORT = 0.2
    "#
    .to_owned();
    Domain {
        name,
        ontology,
        query,
        subject_leaves,
        object_leaves,
        relation: "doAt",
    }
}

/// The culinary-preferences domain: popular combinations of dishes and
/// drinks. Class-level query, so *all* MSPs are valid (§6.3). This is the
/// largest DAG of the three (≈ 10512 nodes).
pub fn culinary_domain() -> Domain {
    let mut b = Ontology::builder();
    // Dishes: 5 branches × 2 levels × fanout 4 ⇒ 5 + 20 + 80 = 105 classes.
    let subject_leaves = build_tree(&mut b, "Dish", "Dish", 5, 2, 4);
    // Drinks: 4 branches × 2 levels × fanout 4 ⇒ 4 + 16 + 64 = 84 classes.
    let object_leaves = build_tree(&mut b, "Drink", "Drink", 4, 2, 4);
    b.relation("consumedWith");
    b.relation_isa("instanceOf", "subClassOf");
    let ontology = b.build().expect("culinary domain is well-formed");
    let query = r#"
        SELECT FACT-SETS
        WHERE
          $d subClassOf* Dish.
          $k subClassOf* Drink
        SATISFYING
          $d+ consumedWith $k
        WITH SUPPORT = 0.2
    "#
    .to_owned();
    Domain {
        name: "culinary",
        ontology,
        query,
        subject_leaves,
        object_leaves,
        relation: "consumedWith",
    }
}

/// The self-treatment domain: what people take to relieve common illness
/// symptoms. The smallest DAG (≈ 2307 nodes); class-level query.
pub fn self_treatment_domain() -> Domain {
    let mut b = Ontology::builder();
    // Remedies: 4 branches × 1 level × fanout 6 ⇒ 4 + 24 = 28... plus a
    // second expansion to land near 59 subject values.
    let subject_leaves = build_tree(&mut b, "Remedy", "Remedy", 6, 1, 8);
    // Symptoms: 4 branches × 1 level × fanout 7 ⇒ 32 + root closure.
    let object_leaves = build_tree(&mut b, "Symptom", "Symptom", 4, 1, 7);
    b.relation("takenFor");
    b.relation_isa("instanceOf", "subClassOf");
    let ontology = b.build().expect("self-treatment domain is well-formed");
    let query = r#"
        SELECT FACT-SETS
        WHERE
          $r subClassOf* Remedy.
          $s subClassOf* Symptom
        SATISFYING
          $r takenFor $s
        WITH SUPPORT = 0.2
    "#
    .to_owned();
    Domain {
        name: "self-treatment",
        ontology,
        query,
        subject_leaves,
        object_leaves,
        relation: "takenFor",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_core::AssignSpace;
    use oassis_ql::parse_query;
    use oassis_sparql::MatchMode;
    use std::sync::Arc;

    fn dag_size(domain: &Domain) -> usize {
        let q = parse_query(&domain.query, &domain.ontology).unwrap();
        let space = AssignSpace::build(
            Arc::new(domain.ontology.clone()),
            &q,
            MatchMode::Semantic,
            Vec::new(),
        )
        .unwrap();
        space
            .enumerate_single_valued(1_000_000)
            .expect("bound-only query")
            .len()
    }

    #[test]
    fn travel_dag_size_matches_paper_scale() {
        // Paper: 4773 nodes. Accept ±25%.
        let d = travel_domain();
        let n = dag_size(&d);
        assert!((3600..=6000).contains(&n), "travel DAG has {n} nodes");
    }

    #[test]
    fn culinary_dag_size_matches_paper_scale() {
        // Paper: 10512 nodes.
        let d = culinary_domain();
        let n = dag_size(&d);
        assert!((8000..=13000).contains(&n), "culinary DAG has {n} nodes");
    }

    #[test]
    fn self_treatment_dag_size_matches_paper_scale() {
        // Paper: 2307 nodes.
        let d = self_treatment_domain();
        let n = dag_size(&d);
        assert!(
            (1700..=2900).contains(&n),
            "self-treatment DAG has {n} nodes"
        );
    }

    #[test]
    fn travel_10x_is_roughly_ten_times_travel() {
        // Structural check only: the DAG-node ratio is verified by the
        // `scale` benchmark (enumerating the 10× DAG is too slow for a
        // debug-mode unit test).
        let base = travel_domain();
        let big = travel_domain_10x();
        assert_eq!(big.name, "travel-10x");
        let ratio = (big.subject_leaves.len() * big.object_leaves.len()) as f64
            / (base.subject_leaves.len() * base.object_leaves.len()) as f64;
        assert!(
            (6.0..=14.0).contains(&ratio),
            "leaf-pair ratio {ratio:.1} should be near 10x"
        );
    }

    #[test]
    fn queries_parse_against_their_ontologies() {
        for d in [
            travel_domain(),
            travel_domain_10x(),
            culinary_domain(),
            self_treatment_domain(),
        ] {
            let q = parse_query(&d.query, &d.ontology);
            assert!(q.is_ok(), "{}: {:?}", d.name, q.err());
            assert!(!d.subject_leaves.is_empty());
            assert!(!d.object_leaves.is_empty());
        }
    }

    #[test]
    fn travel_objects_are_labeled_instances() {
        let d = travel_domain();
        let v = d.ontology.vocabulary();
        for leaf in &d.object_leaves {
            let e = v.element(leaf).unwrap();
            assert!(d.ontology.element_has_label(e, "child-friendly"), "{leaf}");
        }
    }
}

impl Domain {
    /// Natural-language question templates for this domain (§6.2: templates
    /// are "domain-specific, and can be manually created in advance").
    pub fn question_templates(&self) -> oassis_core::question::QuestionTemplates {
        let v = self.ontology.vocabulary();
        let mut t = oassis_core::question::QuestionTemplates::new();
        match self.name {
            n if n.starts_with("travel") => {
                if let Some(r) = v.relation("doAt") {
                    t.set(r, "do {s} at {o}");
                }
            }
            "culinary" => {
                if let Some(r) = v.relation("consumedWith") {
                    t.set(r, "have {s} together with {o}");
                }
            }
            "self-treatment" => {
                if let Some(r) = v.relation("takenFor") {
                    t.set(r, "take {s} to relieve {o}");
                }
            }
            _ => {}
        }
        t
    }
}

#[cfg(test)]
mod template_tests {
    use super::*;
    use oassis_vocab::{Fact, FactSet};

    #[test]
    fn each_domain_renders_its_own_phrasing() {
        for (domain, needle) in [
            (travel_domain(), "do "),
            (culinary_domain(), "together with"),
            (self_treatment_domain(), "to relieve"),
        ] {
            let v = domain.ontology.vocabulary();
            let t = domain.question_templates();
            let s = v.element(&domain.subject_leaves[0]).unwrap();
            let o = v.element(&domain.object_leaves[0]).unwrap();
            let r = v.relation(domain.relation).unwrap();
            let q = t.concrete(&FactSet::from_facts([Fact::new(s, r, o)]), v);
            assert!(q.contains(needle), "{}: {q}", domain.name);
            assert!(q.starts_with("How often do you"), "{q}");
        }
    }
}
