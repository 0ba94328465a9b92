//! The horizontal comparator (Section 6.4): an Apriori-inspired, level-wise
//! traversal. An assignment is asked about only after *all* of its immediate
//! predecessors are known significant; insignificant regions are pruned by
//! the same inference scheme the vertical algorithm uses.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use oassis_crowd::CrowdMember;

use crate::algo::common::{Asker, MinerConfig, MinerOutcome};
use crate::assignment::Assignment;
use crate::border::Status;
use crate::space::{AssignSpace, NodeId, NodeSet};
use crate::value::AValue;

/// The Apriori-style level-wise miner.
#[derive(Debug, Clone, Default)]
pub struct HorizontalMiner;

/// A rank strictly increasing along DAG edges: total taxonomy depth plus
/// the number of values and MORE facts. Predecessors always have a smaller
/// rank, so a min-heap processes them first.
fn rank(space: &AssignSpace, phi: &Assignment) -> usize {
    let vocab = space.ontology().vocabulary();
    let mut r = phi.more_facts().len();
    for x in 0..phi.nvars() {
        for v in phi.values(x) {
            r += 1;
            r += match v {
                AValue::Elem(e) => vocab.elements_order().depth(*e),
                AValue::Rel(rel) => vocab.relations_order().depth(*rel),
            };
        }
    }
    r
}

impl HorizontalMiner {
    /// Run the level-wise traversal against one member.
    pub fn run(
        space: &AssignSpace,
        member: &mut dyn CrowdMember,
        config: &MinerConfig,
    ) -> MinerOutcome {
        let mut asker = Asker::new(space, member, config, "horizontal");
        // Ordered by rank, then by assignment (the node id only rides
        // along), so the visiting order does not depend on interning.
        let mut heap: BinaryHeap<Reverse<(usize, Assignment, NodeId)>> = BinaryHeap::new();
        let mut enqueued = NodeSet::default();
        let enqueue = |asker: &Asker<'_>, heap: &mut BinaryHeap<_>, id: NodeId| {
            let phi = asker.node(id);
            heap.push(Reverse((rank(space, phi), phi.clone(), id)));
        };

        for root in asker.roots() {
            if enqueued.insert(root) {
                enqueue(&asker, &mut heap, root);
            }
        }

        while let Some(Reverse((_, _, phi))) = heap.pop() {
            if !asker.budget_left() {
                break;
            }
            let significant = match asker.status(phi) {
                Status::Insignificant => continue,
                Status::Significant => true,
                Status::Unclassified => {
                    // Apriori discipline: every predecessor must be known
                    // significant first. Predecessors have smaller rank, so
                    // if one is still unclassified it was never enqueued —
                    // enqueue it and retry this node afterwards.
                    let preds = asker.predecessors(phi);
                    let mut deferred = false;
                    for &p in &preds {
                        if asker.status(p) == Status::Unclassified && enqueued.insert(p) {
                            enqueue(&asker, &mut heap, p);
                            deferred = true;
                        }
                    }
                    if deferred {
                        enqueue(&asker, &mut heap, phi);
                        continue;
                    }
                    if preds
                        .into_iter()
                        .any(|p| asker.status(p) != Status::Significant)
                    {
                        // Some predecessor is insignificant (and inference
                        // will have marked us) or still unclassified after a
                        // defer cycle: skip.
                        continue;
                    }
                    asker.ask(phi)
                }
            };
            if significant {
                let succs = asker.successors(phi);
                asker.on_nodes_generated(&succs);
                for s in succs {
                    if enqueued.insert(s) {
                        enqueue(&asker, &mut heap, s);
                    }
                }
            }
        }
        asker.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::vertical::VerticalMiner;
    use oassis_crowd::transaction::table3_dbs;
    use oassis_crowd::{DbMember, MemberId};
    use oassis_ql::parse_query;
    use oassis_sparql::MatchMode;
    use oassis_store::ontology::figure1_ontology;
    use std::sync::Arc;

    fn setup(threshold: f64) -> (AssignSpace, DbMember) {
        let o = Arc::new(figure1_ontology());
        let src = format!(
            r#"SELECT FACT-SETS
               WHERE
                 $w subClassOf* Attraction.
                 $x instanceOf $w.
                 $x inside NYC.
                 $y subClassOf* Activity
               SATISFYING
                 $y+ doAt $x
               WITH SUPPORT = {threshold}"#
        );
        let q = parse_query(&src, &o).unwrap();
        let space =
            AssignSpace::build(Arc::clone(&o), &q, MatchMode::Semantic, Vec::new()).unwrap();
        let vocab = Arc::new(o.vocabulary().clone());
        let (d1, _) = table3_dbs(&vocab);
        let m = DbMember::new(MemberId(1), d1, vocab);
        (space, m)
    }

    #[test]
    fn horizontal_finds_the_same_msps_as_vertical() {
        let (space, mut m1) = setup(0.3);
        let h = HorizontalMiner::run(&space, &mut m1, &MinerConfig::new(0.3));
        let (space2, mut m2) = setup(0.3);
        let v = VerticalMiner::run(&space2, &mut m2, &MinerConfig::new(0.3));
        let mut hm = h.msps.clone();
        let mut vm = v.msps.clone();
        hm.sort();
        vm.sort();
        assert_eq!(hm, vm);
    }

    #[test]
    fn horizontal_classifies_everything() {
        let (space, mut m1) = setup(0.3);
        let out = HorizontalMiner::run(&space, &mut m1, &MinerConfig::new(0.3));
        let vocab = space.ontology().vocabulary();
        for a in space.enumerate_single_valued(100_000).unwrap() {
            assert!(
                !out.state.is_unclassified(&a, vocab),
                "assignment {a} left unclassified"
            );
        }
    }

    #[test]
    fn rank_increases_along_edges() {
        let (space, _) = setup(0.3);
        for root in space.roots() {
            for s in space.successors(&root) {
                assert!(rank(&space, &s) > rank(&space, &root), "{root} -> {s}");
                for ss in space.successors(&s) {
                    assert!(rank(&space, &ss) > rank(&space, &s));
                }
            }
        }
    }

    #[test]
    fn budget_respected() {
        let (space, mut m1) = setup(0.3);
        let cfg = MinerConfig {
            max_questions: 2,
            ..MinerConfig::new(0.3)
        };
        let out = HorizontalMiner::run(&space, &mut m1, &cfg);
        assert!(out.stats.total_questions <= 2);
    }
}
