//! Shared miner configuration, outcome type and the question-asking helper.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use oassis_crowd::CrowdMember;
use oassis_obs::{null_sink, EventSink};
use oassis_vocab::FactSet;

use crate::assignment::Assignment;
use crate::border::{ClassificationState, Status};
use crate::space::{AssignSpace, NodeId, NodeSet, SpaceCache};
use crate::stats::{ExecutionStats, QuestionKind, Recorder};
use crate::value::AValue;

/// Configuration shared by the single-user miners.
#[derive(Debug, Clone)]
pub struct MinerConfig {
    /// The significance threshold θ (`WITH SUPPORT`).
    pub threshold: f64,
    /// Probability that a descend step uses a specialization question
    /// instead of one-by-one concrete questions (Figure 4f's ratio).
    pub specialization_ratio: f64,
    /// Probability that a question is accompanied by a user-guided-pruning
    /// interaction (Figure 4f's pruning-click ratio).
    pub pruning_ratio: f64,
    /// RNG seed for the question-type choices.
    pub seed: u64,
    /// Safety cap on total questions (the run stops when exceeded).
    pub max_questions: usize,
    /// Record a per-question discovery curve.
    pub track_curve: bool,
    /// Universe for the "% classified" series (e.g.
    /// [`AssignSpace::enumerate_single_valued`]).
    pub curve_universe: Option<Vec<Assignment>>,
    /// Ground-truth MSPs for target-discovery curves (synthetic runs).
    pub targets: Option<Vec<Assignment>>,
    /// Instrumentation sink; defaults to the no-op [`null_sink`]. Questions
    /// are additionally labeled with the algorithm's name on
    /// `algo.questions`, making the miners directly comparable.
    pub sink: Arc<dyn EventSink>,
}

impl MinerConfig {
    /// A plain configuration: concrete questions only, no curve.
    pub fn new(threshold: f64) -> Self {
        MinerConfig {
            threshold,
            specialization_ratio: 0.0,
            pruning_ratio: 0.0,
            seed: 0,
            max_questions: 1_000_000,
            track_curve: false,
            curve_universe: None,
            targets: None,
            sink: null_sink(),
        }
    }

    /// Attach an instrumentation sink.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = sink;
        self
    }
}

/// The result of one mining run.
#[derive(Debug)]
pub struct MinerOutcome {
    /// All MSPs found (maximal significant assignments, valid or not).
    pub msps: Vec<Assignment>,
    /// The subset of MSPs valid w.r.t. the query.
    pub valid_msps: Vec<Assignment>,
    /// Question counts, answer-type mix, discovery curve.
    pub stats: ExecutionStats,
    /// The final classification knowledge.
    pub state: ClassificationState,
}

/// The §6.3 baseline cost: ask `sample_size` questions for every valid
/// assignment, with no traversal order or inference.
pub fn baseline_question_count(valid_assignments: usize, sample_size: usize) -> usize {
    valid_assignments * sample_size
}

/// Result of attempting a specialization question.
pub(crate) enum SpecOutcome {
    /// The ratio gate chose a concrete question instead.
    NotUsed,
    /// The member picked candidate `idx`; `significant` is the verdict.
    Chosen {
        /// Index into the candidate slice.
        idx: usize,
        /// Whether the reported support met the threshold.
        significant: bool,
    },
    /// "None of these": all candidates were marked insignificant.
    NoneOfThese,
}

/// Wraps one member with the classification state, statistics recorder and
/// the question-type policy. All miners ask through this, and walk the DAG
/// on the node ids of its arena.
pub(crate) struct Asker<'a> {
    pub space: &'a AssignSpace,
    pub member: &'a mut dyn CrowdMember,
    pub state: ClassificationState,
    /// The run's node arena.
    nodes: SpaceCache,
    pub recorder: Recorder,
    pub threshold: f64,
    spec_ratio: f64,
    prune_ratio: f64,
    max_questions: usize,
    rng: SmallRng,
    generated: NodeSet,
}

impl<'a> Asker<'a> {
    pub fn new(
        space: &'a AssignSpace,
        member: &'a mut dyn CrowdMember,
        cfg: &MinerConfig,
        algo: &'static str,
    ) -> Self {
        let mut recorder = Recorder::new()
            .with_sink(Arc::clone(&cfg.sink))
            .with_algo(algo);
        if cfg.track_curve {
            recorder = recorder.with_curve();
        }
        if let Some(u) = &cfg.curve_universe {
            recorder = recorder.with_universe(u.clone());
        }
        if let Some(t) = &cfg.targets {
            recorder = recorder.with_targets(t.clone());
        }
        Asker {
            space,
            member,
            state: ClassificationState::new(),
            nodes: SpaceCache::with_sink(Arc::clone(&cfg.sink)),
            recorder,
            threshold: cfg.threshold,
            spec_ratio: cfg.specialization_ratio,
            prune_ratio: cfg.pruning_ratio,
            max_questions: cfg.max_questions,
            rng: SmallRng::seed_from_u64(cfg.seed),
            generated: NodeSet::default(),
        }
    }

    /// Whether another question may be asked.
    pub fn budget_left(&self) -> bool {
        self.recorder.stats.total_questions < self.max_questions && self.member.willing()
    }

    /// The node id of `phi`.
    pub fn id(&mut self, phi: &Assignment) -> NodeId {
        self.nodes.intern(phi)
    }

    /// The assignment of node `id`.
    pub fn node(&self, id: NodeId) -> &Assignment {
        self.nodes.assignment(id)
    }

    /// The classification of node `id`, memoized by id.
    pub fn status(&mut self, id: NodeId) -> Status {
        let vocab = self.space.ontology().vocabulary();
        self.state.status_of(id, self.nodes.assignment(id), vocab)
    }

    /// The space's roots.
    pub fn roots(&mut self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.nodes.roots_into(self.space, &mut out);
        out
    }

    /// The immediate successors of `id`.
    pub fn successors(&mut self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.nodes.successors_into(self.space, id, &mut out);
        out
    }

    /// The immediate predecessors of `id`.
    pub fn predecessors(&mut self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.nodes.predecessors_into(self.space, id, &mut out);
        out
    }

    /// Whether node `id` is a valid assignment.
    pub fn is_valid(&mut self, id: NodeId) -> bool {
        self.nodes.is_valid(self.space, id)
    }

    /// Count the lazily generated DAG nodes in `succs` not seen before.
    pub fn on_nodes_generated(&mut self, succs: &[NodeId]) {
        let fresh = succs.iter().filter(|&&s| self.generated.insert(s)).count();
        self.recorder.on_nodes_generated(fresh);
    }

    /// Ask a concrete question about `phi` (with an optional pruning
    /// interaction first). Returns whether `phi` is significant.
    pub fn ask(&mut self, phi: NodeId) -> bool {
        let vocab = self.space.ontology().vocabulary();
        let fs = self.nodes.factset(self.space, phi).clone();

        // User-guided pruning (Section 6.2): while viewing the question, the
        // member may flag a value as irrelevant with a single click — that
        // click *is* the answer (support 0 for every assignment involving
        // the value or a specialization), at the cost of one question.
        if self.prune_ratio > 0.0 && self.rng.random::<f64>() < self.prune_ratio {
            let irrelevant = self.member.irrelevant_elements(&fs);
            if !irrelevant.is_empty() {
                self.recorder.on_question(QuestionKind::Pruning, &fs);
                for e in irrelevant {
                    self.state.mark_pruned(AValue::Elem(e));
                }
                self.recorder.on_state_change(&self.state, vocab);
                if self.status(phi) == Status::Insignificant {
                    return false;
                }
            }
        }

        self.recorder.on_question(QuestionKind::Concrete, &fs);
        let s = self.member.ask_concrete(&fs);
        let significant = s >= self.threshold;
        let assignment = self.nodes.assignment(phi);
        if significant {
            self.state.mark_significant(assignment, vocab);
        } else {
            self.state.mark_insignificant(assignment, vocab);
        }
        self.recorder.on_state_change(&self.state, vocab);
        significant
    }

    /// Possibly ask a specialization question about `phi`'s unclassified
    /// successors `candidates`.
    pub fn try_specialize(&mut self, phi: NodeId, candidates: &[NodeId]) -> SpecOutcome {
        if candidates.is_empty()
            || self.spec_ratio <= 0.0
            || self.rng.random::<f64>() >= self.spec_ratio
        {
            return SpecOutcome::NotUsed;
        }
        let vocab = self.space.ontology().vocabulary();
        let base = self.nodes.factset(self.space, phi).clone();
        let cand_fs: Vec<FactSet> = candidates
            .iter()
            .map(|&c| self.nodes.factset(self.space, c).clone())
            .collect();
        match self.member.ask_specialization(&base, &cand_fs) {
            Some((idx, s)) => {
                self.recorder
                    .on_question(QuestionKind::Specialization, &base);
                let significant = s >= self.threshold;
                let chosen = self.nodes.assignment(candidates[idx]);
                if significant {
                    self.state.mark_significant(chosen, vocab);
                } else {
                    self.state.mark_insignificant(chosen, vocab);
                }
                self.recorder.on_state_change(&self.state, vocab);
                SpecOutcome::Chosen { idx, significant }
            }
            None => {
                // "None of these": support 0 for every candidate at once.
                self.recorder.on_question(QuestionKind::NoneOfThese, &base);
                for &c in candidates {
                    self.state
                        .mark_insignificant(self.nodes.assignment(c), vocab);
                }
                self.recorder.on_state_change(&self.state, vocab);
                SpecOutcome::NoneOfThese
            }
        }
    }

    /// Extract the MSPs from the final state: the positive border, split by
    /// validity.
    pub fn finish(mut self) -> MinerOutcome {
        let msps: Vec<Assignment> = self.state.significant_border().to_vec();
        let valid_msps: Vec<Assignment> = msps
            .iter()
            .filter(|m| {
                let id = self.nodes.intern(m);
                self.nodes.is_valid(self.space, id)
            })
            .cloned()
            .collect();
        MinerOutcome {
            msps,
            valid_msps,
            stats: self.recorder.stats,
            state: self.state,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_cost() {
        assert_eq!(baseline_question_count(100, 5), 500);
        assert_eq!(baseline_question_count(0, 5), 0);
    }

    #[test]
    fn default_config() {
        let c = MinerConfig::new(0.3);
        assert_eq!(c.threshold, 0.3);
        assert_eq!(c.specialization_ratio, 0.0);
        assert!(!c.track_curve);
    }
}
