//! The naive comparator (Section 6.4): repeatedly ask about a *random*
//! unclassified valid assignment, reusing the same inference scheme, until
//! every valid assignment is classified.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use oassis_crowd::CrowdMember;

use crate::algo::common::{Asker, MinerConfig, MinerOutcome};
use crate::assignment::Assignment;
use crate::border::Status;
use crate::space::AssignSpace;

/// The random-order miner.
#[derive(Debug, Clone, Default)]
pub struct NaiveMiner;

impl NaiveMiner {
    /// Classify all of `universe` (the valid assignments; for fairness the
    /// paper feeds it the same multiplicity nodes the vertical algorithm
    /// generated) by asking about random unclassified members.
    pub fn run(
        space: &AssignSpace,
        member: &mut dyn CrowdMember,
        config: &MinerConfig,
        universe: &[Assignment],
    ) -> MinerOutcome {
        let mut asker = Asker::new(space, member, config, "naive");
        let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(0x9e3779b9));
        let mut remaining: Vec<Assignment> = universe.to_vec();

        while asker.budget_left() && !remaining.is_empty() {
            let vocab = space.ontology().vocabulary();
            // Drop everything already classified by inference.
            remaining.retain(|a| asker.state.status(a, vocab) == Status::Unclassified);
            if remaining.is_empty() {
                break;
            }
            let i = rng.random_range(0..remaining.len());
            let phi = remaining.swap_remove(i);
            let id = asker.id(&phi);
            asker.ask(id);
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
                 $y doAt $x
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
    fn naive_classifies_the_whole_universe() {
        let (space, mut m) = setup(0.3);
        let universe: Vec<Assignment> = space
            .enumerate_single_valued(100_000)
            .unwrap()
            .into_iter()
            .filter(|a| space.is_valid(a))
            .collect();
        let out = NaiveMiner::run(&space, &mut m, &MinerConfig::new(0.3), &universe);
        let vocab = space.ontology().vocabulary();
        for a in &universe {
            assert!(!out.state.is_unclassified(a, vocab));
        }
        assert!(out.stats.total_questions <= universe.len());
    }

    #[test]
    fn naive_significant_set_matches_vertical_on_valid_assignments() {
        let (space, mut m) = setup(0.3);
        let universe: Vec<Assignment> = space
            .enumerate_single_valued(100_000)
            .unwrap()
            .into_iter()
            .filter(|a| space.is_valid(a))
            .collect();
        let naive = NaiveMiner::run(&space, &mut m, &MinerConfig::new(0.3), &universe);

        let (space2, mut m2) = setup(0.3);
        let vertical = VerticalMiner::run(&space2, &mut m2, &MinerConfig::new(0.3));

        let vocab = space.ontology().vocabulary();
        for a in &universe {
            assert_eq!(
                naive.state.is_significant(a, vocab),
                vertical.state.is_significant(a, vocab),
                "disagreement on {a}"
            );
        }
    }

    #[test]
    fn different_seeds_change_question_order_not_results() {
        let (space, mut m) = setup(0.3);
        let universe: Vec<Assignment> = space
            .enumerate_single_valued(100_000)
            .unwrap()
            .into_iter()
            .filter(|a| space.is_valid(a))
            .collect();
        let out1 = NaiveMiner::run(
            &space,
            &mut m,
            &MinerConfig {
                seed: 1,
                ..MinerConfig::new(0.3)
            },
            &universe,
        );
        let (space2, mut m2) = setup(0.3);
        let out2 = NaiveMiner::run(
            &space2,
            &mut m2,
            &MinerConfig {
                seed: 2,
                ..MinerConfig::new(0.3)
            },
            &universe,
        );
        let vocab = space.ontology().vocabulary();
        for a in &universe {
            assert_eq!(
                out1.state.is_significant(a, vocab),
                out2.state.is_significant(a, vocab)
            );
        }
    }

    #[test]
    fn empty_universe_asks_nothing() {
        let (space, mut m) = setup(0.3);
        let out = NaiveMiner::run(&space, &mut m, &MinerConfig::new(0.3), &[]);
        assert_eq!(out.stats.total_questions, 0);
        assert!(out.msps.is_empty());
    }
}
