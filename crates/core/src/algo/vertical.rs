//! The vertical algorithm (Algorithm 1) for a single crowd member.
//!
//! Repeatedly: find a *minimal unclassified* assignment; if significant,
//! descend greedily through significant immediate successors until none is
//! left — that deepest assignment is an MSP. Every answer classifies whole
//! regions of the DAG through the order-based inference of Observation 4.4,
//! and the DAG itself is generated lazily (Section 5).

use oassis_crowd::CrowdMember;

use crate::algo::common::{Asker, MinerConfig, MinerOutcome, SpecOutcome};
use crate::border::Status;
use crate::space::{AssignSpace, NodeId, NodeSet};

/// The paper's top-down miner.
///
/// ```
/// use oassis_core::{AssignSpace, MinerConfig, VerticalMiner};
/// use oassis_crowd::transaction::table3_dbs;
/// use oassis_crowd::{DbMember, MemberId};
/// use oassis_ql::parse_query;
/// use oassis_sparql::MatchMode;
/// use oassis_store::ontology::figure1_ontology;
/// use std::sync::Arc;
///
/// let o = Arc::new(figure1_ontology());
/// let q = parse_query(
///     "SELECT FACT-SETS WHERE $y subClassOf* Activity \
///      SATISFYING $y doAt <Central Park> WITH SUPPORT = 0.3",
///     &o,
/// ).unwrap();
/// let space = AssignSpace::build(Arc::clone(&o), &q, MatchMode::Semantic, vec![]).unwrap();
/// let vocab = Arc::new(o.vocabulary().clone());
/// let (d1, _) = table3_dbs(&vocab);
/// let mut member = DbMember::new(MemberId(1), d1, vocab);
///
/// let out = VerticalMiner::run(&space, &mut member, &MinerConfig::new(0.3));
/// assert!(!out.msps.is_empty());
/// assert!(out.stats.total_questions > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VerticalMiner;

impl VerticalMiner {
    /// Run Algorithm 1 against one member.
    pub fn run(
        space: &AssignSpace,
        member: &mut dyn CrowdMember,
        config: &MinerConfig,
    ) -> MinerOutcome {
        let mut asker = Asker::new(space, member, config, "vertical");
        // Significant nodes whose entire successor region is known
        // classified; sound to cache because classification is monotone.
        let mut closed = NodeSet::default();

        while asker.budget_left() {
            let Some(mut phi) = find_minimal_unclassified(&mut asker, &mut closed) else {
                break;
            };
            if !asker.ask(phi) {
                continue;
            }
            // Descend through significant successors.
            'descend: loop {
                if !asker.budget_left() {
                    break;
                }
                let succs = asker.successors(phi);
                asker.on_nodes_generated(&succs);

                // Move freely into an already-known-significant successor:
                // no question needed, and it keeps us below the true MSP.
                if let Some(&s) = succs
                    .iter()
                    .find(|&&s| asker.status(s) == Status::Significant)
                {
                    phi = s;
                    continue;
                }
                let unclassified: Vec<NodeId> = succs
                    .into_iter()
                    .filter(|&s| asker.status(s) == Status::Unclassified)
                    .collect();
                if unclassified.is_empty() {
                    break;
                }
                match asker.try_specialize(phi, &unclassified) {
                    SpecOutcome::Chosen {
                        idx,
                        significant: true,
                    } => {
                        phi = unclassified[idx];
                        continue 'descend;
                    }
                    SpecOutcome::Chosen { .. } => continue 'descend,
                    SpecOutcome::NoneOfThese => continue 'descend,
                    SpecOutcome::NotUsed => {}
                }
                let mut moved = false;
                for s in unclassified {
                    if !asker.budget_left() {
                        break;
                    }
                    if asker.ask(s) {
                        phi = s;
                        moved = true;
                        break;
                    }
                }
                if !moved {
                    break;
                }
            }
            // φ has no significant successor: it is an MSP.
            let no_sig_succ = asker
                .successors(phi)
                .into_iter()
                .all(|s| asker.status(s) != Status::Significant);
            if no_sig_succ {
                let valid = asker.is_valid(phi);
                asker.recorder.on_msp(valid);
            }
        }
        asker.finish()
    }
}

/// Find a minimal unclassified assignment of `𝒜`, or `None` when everything
/// is classified. Scans from the roots through the significant region,
/// caching fully-classified regions in `closed`.
fn find_minimal_unclassified(asker: &mut Asker<'_>, closed: &mut NodeSet) -> Option<NodeId> {
    for root in asker.roots() {
        match asker.status(root) {
            Status::Unclassified => return Some(minimalize(asker, root)),
            Status::Insignificant => {}
            Status::Significant => {
                if let Some(u) = scan(asker, closed, root) {
                    return Some(minimalize(asker, u));
                }
            }
        }
    }
    None
}

/// DFS below a significant node; returns the first unclassified assignment,
/// marking fully-classified regions closed.
fn scan(asker: &mut Asker<'_>, closed: &mut NodeSet, node: NodeId) -> Option<NodeId> {
    if closed.contains(node) {
        return None;
    }
    for s in asker.successors(node) {
        match asker.status(s) {
            Status::Unclassified => return Some(s),
            Status::Insignificant => {}
            Status::Significant => {
                if let Some(u) = scan(asker, closed, s) {
                    return Some(u);
                }
            }
        }
    }
    closed.insert(node);
    None
}

/// Walk up to a minimal unclassified assignment (one with no unclassified
/// predecessor).
fn minimalize(asker: &mut Asker<'_>, mut phi: NodeId) -> NodeId {
    loop {
        let next = asker
            .predecessors(phi)
            .into_iter()
            .find(|&p| asker.status(p) == Status::Unclassified);
        match next {
            Some(p) => phi = p,
            None => return phi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::value::AValue;
    use oassis_crowd::transaction::table3_dbs;
    use oassis_crowd::{DbMember, MemberId};
    use oassis_ql::parse_query;
    use oassis_sparql::MatchMode;
    use oassis_store::ontology::figure1_ontology;
    use std::sync::Arc;

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
        WITH SUPPORT = 0.3
    "#;

    fn setup(threshold: f64) -> (AssignSpace, DbMember, DbMember) {
        let o = Arc::new(figure1_ontology());
        let src = FIG3_QUERY.replace("0.3", &threshold.to_string());
        let q = parse_query(&src, &o).unwrap();
        let space =
            AssignSpace::build(Arc::clone(&o), &q, MatchMode::Semantic, Vec::new()).unwrap();
        let vocab = Arc::new(o.vocabulary().clone());
        let (d1, d2) = table3_dbs(&vocab);
        let m1 = DbMember::new(MemberId(1), d1, Arc::clone(&vocab));
        let m2 = DbMember::new(MemberId(2), d2, vocab);
        (space, m1, m2)
    }

    fn assignment(space: &AssignSpace, y: &str, x: &str) -> Assignment {
        let v = space.ontology().vocabulary();
        Assignment::single_valued([
            AValue::Elem(v.element(y).unwrap()),
            AValue::Elem(v.element(x).unwrap()),
        ])
    }

    #[test]
    fn mines_u1_msps_at_threshold_0_3() {
        // u1's supports (Table 3): Biking@CP = 2/6 (T3, T4), Ball Game@CP =
        // 2/6 (T1, T4), Feed a monkey@Bronx Zoo = 4/6 (T2, T5, T6 + implied
        // by nothing else), Basketball/Baseball@CP = 1/6 < 0.3, and the
        // multiplicity-2 combination {Biking, Ball Game}@CP = 1/6 (only T4).
        let (space, mut m1, _) = setup(0.3);
        let out = VerticalMiner::run(&space, &mut m1, &MinerConfig::new(0.3));
        let monkey = assignment(&space, "Feed a monkey", "Bronx Zoo");
        assert!(out.msps.contains(&monkey), "msps: {:?}", out.msps);
        // Biking and Ball Game are separate MSPs (their combination is
        // below threshold, as are their specializations).
        let vocab = space.ontology().vocabulary();
        assert!(out
            .msps
            .contains(&assignment(&space, "Biking", "Central Park")));
        assert!(out
            .msps
            .contains(&assignment(&space, "Ball Game", "Central Park")));
        let combo = Assignment::from_sets(
            vec![
                vec![
                    AValue::Elem(vocab.element("Biking").unwrap()),
                    AValue::Elem(vocab.element("Ball Game").unwrap()),
                ],
                vec![AValue::Elem(vocab.element("Central Park").unwrap())],
            ],
            vocab,
        );
        assert!(
            out.state.is_insignificant(&combo, vocab),
            "the multiplicity-2 combination is below threshold for u1"
        );
        // Basketball/Baseball must NOT be significant.
        for name in ["Basketball", "Baseball"] {
            let a = assignment(&space, name, "Central Park");
            assert!(
                !out.state.is_significant(&a, vocab),
                "{name} should be insignificant"
            );
        }
        // Every reported MSP is significant and maximal.
        for m in &out.msps {
            assert!(out.state.is_significant(m, vocab));
            for s in space.successors(m) {
                assert!(
                    !out.state.is_significant(&s, vocab),
                    "{m} has sig successor {s}"
                );
            }
        }
    }

    #[test]
    fn everything_classified_on_completion() {
        let (space, mut m1, _) = setup(0.3);
        let out = VerticalMiner::run(&space, &mut m1, &MinerConfig::new(0.3));
        let vocab = space.ontology().vocabulary();
        for a in space.enumerate_single_valued(100_000).unwrap() {
            assert!(
                !out.state.is_unclassified(&a, vocab),
                "assignment {a} left unclassified"
            );
        }
    }

    #[test]
    fn high_threshold_yields_monkey_and_sport() {
        // At θ = 0.5, u1's significant maximal patterns are Feed a
        // monkey@Bronx Zoo (4/6) and Sport@Central Park (exactly 3/6, via
        // T1, T3, T4 — every specialization drops below).
        let (space, mut m1, _) = setup(0.5);
        let out = VerticalMiner::run(&space, &mut m1, &MinerConfig::new(0.5));
        let monkey = assignment(&space, "Feed a monkey", "Bronx Zoo");
        let sport = assignment(&space, "Sport", "Central Park");
        let mut msps = out.msps.clone();
        msps.sort();
        let mut expected = vec![monkey, sport];
        expected.sort();
        assert_eq!(msps, expected);
        assert_eq!(out.valid_msps.len(), 2);
    }

    #[test]
    fn threshold_one_yields_the_universal_pattern() {
        // Every one of u1's transactions implies `Activity doAt Outdoor`
        // (all six occasions are activities at outdoor attractions), and no
        // specialization holds in all of them.
        let (space, mut m1, _) = setup(1.0);
        let out = VerticalMiner::run(&space, &mut m1, &MinerConfig::new(1.0));
        assert_eq!(out.msps, vec![assignment(&space, "Activity", "Outdoor")]);
        assert!(out.stats.total_questions > 0);
    }

    #[test]
    fn specialization_questions_reduce_question_count() {
        let (space, mut plain, _) = setup(0.3);
        let plain_out = VerticalMiner::run(&space, &mut plain, &MinerConfig::new(0.3));

        let (space2, mut spec, _) = setup(0.3);
        let cfg = MinerConfig {
            specialization_ratio: 1.0,
            seed: 7,
            ..MinerConfig::new(0.3)
        };
        let spec_out = VerticalMiner::run(&space2, &mut spec, &cfg);
        assert_eq!(
            plain_out.msps.len(),
            spec_out.msps.len(),
            "same MSPs regardless of question mix"
        );
        assert!(spec_out.stats.specialization + spec_out.stats.none_of_these > 0);
        assert!(
            spec_out.stats.total_questions <= plain_out.stats.total_questions,
            "specialization saves questions: {} vs {}",
            spec_out.stats.total_questions,
            plain_out.stats.total_questions
        );
    }

    #[test]
    fn question_budget_is_respected() {
        let (space, mut m1, _) = setup(0.3);
        let cfg = MinerConfig {
            max_questions: 3,
            ..MinerConfig::new(0.3)
        };
        let out = VerticalMiner::run(&space, &mut m1, &cfg);
        assert!(out.stats.total_questions <= 3);
    }

    #[test]
    fn curve_is_recorded_when_enabled() {
        let (space, mut m1, _) = setup(0.3);
        let universe = space.enumerate_single_valued(100_000).unwrap();
        let n = universe.len();
        let cfg = MinerConfig {
            track_curve: true,
            curve_universe: Some(universe),
            ..MinerConfig::new(0.3)
        };
        let out = VerticalMiner::run(&space, &mut m1, &cfg);
        assert!(!out.stats.curve.is_empty());
        let last = out.stats.curve.last().unwrap();
        assert_eq!(
            last.classified, n,
            "run-to-completion classifies the whole universe"
        );
        assert_eq!(last.questions, out.stats.total_questions);
        // Curve is monotone.
        for w in out.stats.curve.windows(2) {
            assert!(w[0].questions <= w[1].questions);
            assert!(w[0].classified <= w[1].classified);
            assert!(w[0].msps <= w[1].msps);
        }
    }
}
