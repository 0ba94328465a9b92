//! The pull-based mining session (the §4.2 algorithm as a state machine).
//!
//! [`MiningSession`] holds the *entire* multi-user mining state — the
//! per-member descent sessions, the overall classification border, the
//! per-run [`CrowdCache`], the statistics recorder and the question-type
//! RNG — but owns **no crowd access**. Instead of calling members, it
//! *stages* at most one [`PendingQuestion`] at a time and suspends; the
//! driver ([`OassisService`](super::OassisService), or a test harness)
//! obtains the answer however it likes and resumes the session with
//! [`absorb`](MiningSession::absorb).
//!
//! The protocol, as a state machine:
//!
//! ```text
//!            poll()                    poll()
//!   Idle ───────────────► Asking ◄──────────────┐ (staged question is
//!     ▲    SessionEvent::Ask(q)                 │  re-offered until
//!     │                     │ absorb(q.id, ans) │  absorbed)
//!     │                     ▼                   │
//!     │                  applying ──────────────┘  may re-stage (a pruning
//!     │                     │                      answer flows into the
//!     │     poll() ⇒        ▼                      concrete question)
//!     └──────── SessionEvent::TurnEnded{seat}
//!                           │
//!                           ▼ (all seats exhausted, question budget spent,
//!                  SessionEvent::Finished   or top-k reached)
//! ```
//!
//! One *turn* is one scheduling step of the original commit loop: the seat
//! either advances question-free (cursor moves, MSP confirmations) or asks
//! at most one pruning interaction followed by at most one concrete /
//! specialization question. Seats take turns round-robin, exactly like the
//! paper's sequential emulation — which is what keeps a session driven
//! through the service bit-identical to the minimal in-line loop of the
//! simulation harness (the differential tests in `tests/service.rs`
//! enforce this).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use oassis_crowd::{
    Aggregator, CrowdCache, CrowdMember, Decision, FixedSampleAggregator, MemberId,
    SharedCrowdCache,
};
use oassis_obs::{names, Event, EventKind, EventSink, SinkExt};
use oassis_vocab::{ElementId, FactSet, Vocabulary};

use crate::assignment::Assignment;
use crate::border::{ClassificationState, Status};
use crate::config::EngineConfig;
use crate::runtime::QuestionId;
use crate::space::{AssignSpace, SpaceCache};
use crate::stats::{QuestionKind, Recorder};
use crate::value::AValue;

use super::{QueryAnswer, QueryResult, NODES_TOTAL_CAP};

/// How far ahead [`MiningSession::predict_questions`] simulates
/// question-free transitions (cursor moves into significant successors,
/// MSP confirmations) before giving up on finding the member's next
/// concrete question.
const PREDICT_HORIZON: usize = 64;

/// How many candidate questions a single speculative dispatch carries. The
/// batch is answered in one simulated round-trip (a multi-question form), so
/// a wider slate raises the prefetch hit rate without extra latency; answers
/// beyond the first are kept in the shared cache for later turns.
pub(crate) const PREFETCH_WIDTH: usize = 8;

/// What the session needs to know about the crowd *without* asking it:
/// seat liveness and question routability. Implemented by the service's
/// pool view; a bare member vector also implements it for tests and
/// embedders driving a session by hand.
pub trait CrowdView {
    /// Whether the seat is permanently gone (the runtime excluded the
    /// member). Implementations may block here to drain the seat's
    /// in-flight work first.
    fn gone(&mut self, seat: usize) -> bool;

    /// Whether the member currently accepts questions at all.
    fn willing(&mut self, seat: usize) -> bool;

    /// Whether the member can answer a question about `fs`.
    fn can_answer(&mut self, seat: usize, fs: &FactSet) -> bool;
}

impl CrowdView for Vec<Box<dyn CrowdMember>> {
    fn gone(&mut self, _seat: usize) -> bool {
        false
    }

    fn willing(&mut self, seat: usize) -> bool {
        self[seat].willing()
    }

    fn can_answer(&mut self, seat: usize, fs: &FactSet) -> bool {
        self[seat].can_answer(fs)
    }
}

/// A question the session wants answered before it can take the staging
/// seat's next scheduling step.
#[derive(Debug, Clone)]
pub struct PendingQuestion {
    /// Session-local question id; echo it back to
    /// [`MiningSession::absorb`].
    pub id: QuestionId,
    /// The seat (session-local member index) the question belongs to.
    pub seat: usize,
    /// The member that should answer.
    pub member: MemberId,
    /// What to ask.
    pub payload: QuestionPayload,
}

/// The crowd-facing content of a [`PendingQuestion`].
#[derive(Debug, Clone)]
pub enum QuestionPayload {
    /// "Do you do `factset`, and how often?" — answer with
    /// [`Answer::Support`].
    Concrete {
        /// The assignment being asked about.
        assignment: Assignment,
        /// Its instantiated fact-set.
        factset: FactSet,
    },
    /// "When you do `base`, which of these do you also do?" — answer with
    /// [`Answer::Choice`].
    Specialization {
        /// The already-significant base pattern.
        base: FactSet,
        /// Candidate specializations, in scheduling order.
        candidates: Vec<FactSet>,
    },
    /// "Is anything here irrelevant to you?" (user-guided pruning) —
    /// answer with [`Answer::Irrelevant`].
    Pruning {
        /// The fact-set whose elements are offered for pruning.
        factset: FactSet,
    },
}

/// The driver's answer to a [`PendingQuestion`].
#[derive(Debug, Clone)]
pub enum Answer {
    /// Support value for a [`QuestionPayload::Concrete`] question.
    Support(f64),
    /// Choice for a [`QuestionPayload::Specialization`] question:
    /// `Some((candidate index, support))` or `None` for "none of these".
    Choice(Option<(usize, f64)>),
    /// Elements declared irrelevant for a [`QuestionPayload::Pruning`]
    /// interaction (may be empty).
    Irrelevant(Vec<ElementId>),
    /// The member could not be reached (the runtime excluded it). The
    /// seat is retired; mining continues with the remaining seats.
    Unavailable,
}

/// What [`MiningSession::poll`] observed.
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// The session needs this question answered ([`MiningSession::absorb`])
    /// before it can continue. Re-polling without absorbing re-offers the
    /// same question.
    Ask(PendingQuestion),
    /// One seat's scheduling turn completed; newly confirmed MSPs (if any)
    /// are waiting in [`MiningSession::take_new_answers`].
    TurnEnded {
        /// The seat whose turn ended.
        seat: usize,
    },
    /// The run is over; call [`MiningSession::finish`].
    Finished,
}

/// The continuation for a staged question — what to do with its answer.
#[derive(Debug)]
enum Pending {
    /// A pruning interaction for `phi`; its answer flows into the concrete
    /// question about `phi` (which may resolve from the cache instead).
    Pruning {
        /// The assignment the follow-up concrete question targets.
        phi: Assignment,
    },
    /// A concrete question about `phi`.
    Concrete {
        /// The assignment asked about.
        phi: Assignment,
    },
    /// A specialization question below the cursor.
    Specialization {
        /// The base pattern (for statistics labeling).
        base: FactSet,
        /// The candidate assignments, aligned with the payload's
        /// `candidates` fact-sets.
        askable: Vec<Assignment>,
    },
}

/// Control flow of one scheduling step.
enum StepFlow {
    /// A question was staged; the driver must answer it.
    Asked,
    /// The step completed without crowd input; the payload is the
    /// "progressed" verdict of the legacy loop.
    Done(bool),
}

/// One member's descent state (Section 4.2's per-user outer loop).
struct SeatState {
    /// The member seated here.
    id: MemberId,
    /// Current descend position (an overall- and member-positive node).
    cursor: Option<Assignment>,
    /// This member's own classification knowledge. Their "No" answers stop
    /// only their *descent* (§4.2 modification 4); the outer loop may still
    /// ask them about any unclassified assignment.
    personal: ClassificationState,
    /// Values the member declared irrelevant (user-guided pruning): these
    /// genuinely imply support 0, so covered questions are auto-answered.
    pruned: ClassificationState,
    /// Set when the member has nothing left to contribute.
    exhausted: bool,
}

impl SeatState {
    fn new(id: MemberId, use_indexes: bool) -> Self {
        let state = if use_indexes {
            ClassificationState::new
        } else {
            ClassificationState::unindexed
        };
        SeatState {
            id,
            cursor: None,
            personal: state(),
            pruned: state(),
            exhausted: false,
        }
    }
}

/// The pull-based multi-user mining state machine. See the module docs for
/// the protocol; see [`OassisService`](super::OassisService) for the
/// batteries-included driver.
pub struct MiningSession {
    space: Arc<AssignSpace>,
    /// Interned memo over `space`'s derivations; pass-through when
    /// [`EngineConfig::use_indexes`] is off.
    scache: Arc<SpaceCache>,
    threshold: f64,
    aggregator: Arc<dyn Aggregator>,
    config: Arc<EngineConfig>,
    sink: Arc<dyn EventSink>,
    vocab: Arc<Vocabulary>,
    seats: Vec<SeatState>,
    overall: ClassificationState,
    crowd: CrowdCache,
    recorder: Recorder,
    rng: SmallRng,
    msps: Vec<Assignment>,
    confirmed: HashSet<Assignment>,
    generated: HashSet<Assignment>,
    /// How many of `msps` have been rendered into `fresh` already.
    delivered: usize,
    valid_confirmed: usize,
    /// Rendered-but-not-yet-collected MSP answers (see
    /// [`take_new_answers`](Self::take_new_answers)).
    fresh: Vec<QueryAnswer>,
    /// Round-robin position within `seats`.
    seat_cursor: usize,
    /// Whether any seat progressed in the current round (the legacy
    /// loop's fixpoint test).
    progressed: bool,
    /// The question currently offered to the driver, if any.
    staged: Option<PendingQuestion>,
    /// The continuation for `staged`.
    pending: Option<Pending>,
    /// A completed turn waiting to be reported on the next poll.
    turn_done: Option<usize>,
    next_qid: u64,
    done: bool,
    /// `engine.run` span bookkeeping (the session outlives any borrowed
    /// `Span` guard, so enter/exit are emitted manually).
    span_start: Option<Instant>,
}

impl MiningSession {
    /// Create a session over `space`, seating `seats` members, deciding
    /// significance with the config's aggregator (the paper's fixed-sample
    /// rule by default).
    pub fn new(
        space: Arc<AssignSpace>,
        threshold: f64,
        config: Arc<EngineConfig>,
        seats: Vec<MemberId>,
    ) -> Self {
        Self::labeled(space, threshold, config, seats, "multiuser".to_string())
    }

    /// [`new`](Self::new) with the label of this session's
    /// `algo.questions` counter (the service appends the session id, e.g.
    /// `"multiuser.s3"`).
    pub(crate) fn labeled(
        space: Arc<AssignSpace>,
        threshold: f64,
        config: Arc<EngineConfig>,
        seats: Vec<MemberId>,
        algo: String,
    ) -> Self {
        let scache = if config.use_indexes {
            Arc::new(SpaceCache::with_capacity(
                config.space_cache_capacity,
                Arc::clone(&config.sink),
            ))
        } else {
            Arc::new(SpaceCache::disabled())
        };
        let aggregator = config.aggregator.clone().unwrap_or_else(|| {
            Arc::new(FixedSampleAggregator {
                sample_size: config.aggregator_sample,
            })
        });
        let sink = Arc::clone(&config.sink);
        let span_start = if sink.enabled() {
            sink.emit(&Event {
                name: names::SPAN_RUN,
                kind: EventKind::SpanEnter,
                label: None,
            });
            Some(Instant::now())
        } else {
            None
        };
        if sink.enabled() {
            // The full DAG size turns the lazy generator's node counter into
            // the paper's "<1% of nodes generated" ratio. Counting requires
            // an exhaustive traversal, so only do it for an attached sink
            // and give up on astronomically large spaces.
            if let Some(total) = space.count_nodes_up_to(NODES_TOTAL_CAP) {
                sink.gauge(names::DAG_NODES_TOTAL, total as f64);
            }
        }
        let vocab = Arc::new(space.ontology().vocabulary().clone());
        let crowd = CrowdCache::new().with_sink(Arc::clone(&sink));
        let overall = if config.use_indexes {
            ClassificationState::new()
        } else {
            ClassificationState::unindexed()
        };
        let mut recorder = Recorder::new()
            .with_sink(Arc::clone(&sink))
            .with_algo(algo);
        if config.track_curve {
            recorder = recorder.with_curve();
        }
        if let Some(u) = &config.curve_universe {
            recorder = recorder.with_universe(u.clone());
        }
        if let Some(t) = &config.targets {
            recorder = recorder.with_targets(t.clone());
        }
        let rng = SmallRng::seed_from_u64(config.seed);
        let use_indexes = config.use_indexes;
        MiningSession {
            space,
            scache,
            threshold,
            aggregator,
            config,
            sink,
            vocab,
            seats: seats
                .into_iter()
                .map(|id| SeatState::new(id, use_indexes))
                .collect(),
            overall,
            crowd,
            recorder,
            rng,
            msps: Vec::new(),
            confirmed: HashSet::new(),
            generated: HashSet::new(),
            delivered: 0,
            valid_confirmed: 0,
            fresh: Vec::new(),
            seat_cursor: 0,
            progressed: false,
            staged: None,
            pending: None,
            turn_done: None,
            next_qid: 0,
            done: false,
            span_start,
        }
    }

    /// Advance the state machine by at most one externally visible event.
    /// With a question staged, re-offers it; with a turn pending, reports
    /// it; otherwise runs scheduling steps until a question must be asked,
    /// a turn ends, or the run finishes.
    pub fn poll(&mut self, view: &mut dyn CrowdView) -> SessionEvent {
        if self.done {
            return SessionEvent::Finished;
        }
        if let Some(q) = &self.staged {
            return SessionEvent::Ask(q.clone());
        }
        if let Some(seat) = self.turn_done.take() {
            return self.end_turn(seat);
        }
        self.advance(view)
    }

    /// The questions the session needs answered right now — `[q]` while a
    /// question is staged, `[]` once the run has finished. Question-free
    /// turns are stepped through internally.
    pub fn next_questions(&mut self, view: &mut dyn CrowdView) -> Vec<PendingQuestion> {
        loop {
            match self.poll(view) {
                SessionEvent::Ask(q) => return vec![q],
                SessionEvent::TurnEnded { .. } => continue,
                SessionEvent::Finished => return Vec::new(),
            }
        }
    }

    /// Resume the session with the answer to the staged question `id`.
    ///
    /// # Panics
    ///
    /// If no question is staged, `id` is not the staged question, or the
    /// answer kind does not match the question kind.
    pub fn absorb(&mut self, id: QuestionId, answer: Answer) {
        let staged = self
            .staged
            .take()
            .expect("absorb called with no staged question");
        assert_eq!(staged.id, id, "absorb answered a different question");
        let pending = self
            .pending
            .take()
            .expect("a staged question always has a continuation");
        let seat = staged.seat;
        let vocab = Arc::clone(&self.vocab);
        match (pending, answer) {
            (_, Answer::Unavailable) => {
                // The runtime excluded the member mid-question.
                self.seats[seat].exhausted = true;
                self.turn_done = Some(seat);
            }
            (Pending::Pruning { phi }, Answer::Irrelevant(elems)) => {
                if !elems.is_empty() {
                    let fs = FactSet::clone(&self.scache.instantiate(&self.space, &phi));
                    self.recorder.on_question(QuestionKind::Pruning, &fs);
                    for e in elems {
                        self.seats[seat].pruned.mark_pruned(AValue::Elem(e));
                    }
                }
                // The pruning interaction precedes the concrete question
                // about the same assignment; continue into it.
                match self.ask_or_resolve(seat, phi) {
                    StepFlow::Asked => {}
                    StepFlow::Done(_) => self.turn_done = Some(seat),
                }
            }
            (Pending::Concrete { phi }, Answer::Support(s)) => {
                self.complete_concrete(seat, phi, s);
                self.turn_done = Some(seat);
            }
            (Pending::Specialization { base, askable }, Answer::Choice(choice)) => {
                match choice {
                    Some((chosen, s)) => {
                        self.recorder.on_question(QuestionKind::Specialization, &base);
                        let phi = askable[chosen].clone();
                        let positive = self.record_answer(seat, &phi, s);
                        self.recorder.on_state_change(&self.overall, &vocab);
                        if positive {
                            self.seats[seat].cursor = Some(phi);
                        }
                    }
                    None => {
                        self.recorder.on_question(QuestionKind::NoneOfThese, &base);
                        for c in &askable {
                            self.record_answer(seat, c, 0.0);
                        }
                        self.recorder.on_state_change(&self.overall, &vocab);
                    }
                }
                self.turn_done = Some(seat);
            }
            (pending, answer) => panic!(
                "answer kind does not match the staged question: {pending:?} vs {answer:?}"
            ),
        }
    }

    /// Run scheduling steps until something externally visible happens.
    fn advance(&mut self, view: &mut dyn CrowdView) -> SessionEvent {
        loop {
            if self.recorder.stats.total_questions >= self.config.max_questions {
                return self.finish_run();
            }
            if self.seat_cursor >= self.seats.len() {
                if !self.progressed {
                    return self.finish_run();
                }
                self.seat_cursor = 0;
                self.progressed = false;
                continue;
            }
            let seat = self.seat_cursor;
            // `gone` may block to bring the member home (absorbing its
            // in-flight speculative answer) before its committed turn.
            if view.gone(seat) {
                if !self.seats[seat].exhausted {
                    self.seats[seat].exhausted = true;
                    self.progressed = true;
                }
                self.seat_cursor += 1;
                continue;
            }
            if self.seats[seat].exhausted || !view.willing(seat) {
                self.seat_cursor += 1;
                continue;
            }
            match self.step_begin(view, seat) {
                StepFlow::Asked => {
                    let q = self.staged.clone().expect("stage() set the question");
                    return SessionEvent::Ask(q);
                }
                StepFlow::Done(progress) => {
                    if progress {
                        self.progressed = true;
                    }
                    return self.end_turn(seat);
                }
            }
        }
    }

    /// Close out `seat`'s turn: render newly confirmed MSPs, check top-k,
    /// move the round-robin cursor.
    fn end_turn(&mut self, seat: usize) -> SessionEvent {
        while self.delivered < self.msps.len() {
            let next = self.msps[self.delivered].clone();
            let answers = self.render_answers(std::slice::from_ref(&next));
            for a in answers {
                if a.valid {
                    self.valid_confirmed += 1;
                }
                self.fresh.push(a);
            }
            self.delivered += 1;
        }
        if let Some(k) = self.config.top_k {
            if self.valid_confirmed >= k {
                return self.finish_run();
            }
        }
        self.seat_cursor += 1;
        SessionEvent::TurnEnded { seat }
    }

    fn finish_run(&mut self) -> SessionEvent {
        self.done = true;
        SessionEvent::Finished
    }

    /// One scheduling step for `seat`, up to (but not through) its first
    /// crowd question.
    fn step_begin(&mut self, view: &mut dyn CrowdView, seat: usize) -> StepFlow {
        let vocab = Arc::clone(&self.vocab);

        if self.seats[seat].cursor.is_none() {
            // Outer loop: find a minimal overall-unclassified assignment
            // this member can still help with.
            let found = self.find_askable(view, seat);
            let Some(phi) = found else {
                self.seats[seat].exhausted = true;
                return StepFlow::Done(false);
            };
            return self.begin_ask(seat, phi);
        }

        let phi = self.seats[seat].cursor.clone().expect("checked above");
        let succs = self.scache.successors(&self.space, &phi);
        let fresh = succs
            .iter()
            .filter(|s| self.generated.insert((*s).clone()))
            .count();
        self.recorder.on_nodes_generated(fresh);

        // Move freely into an overall-significant successor.
        if let Some(s) = succs
            .iter()
            .find(|s| self.overall.status(s, &vocab) == Status::Significant)
        {
            self.seats[seat].cursor = Some(s.clone());
            return StepFlow::Done(true);
        }

        // Candidate successors: overall-unclassified, not ruled out for this
        // member personally.
        let member_id = self.seats[seat].id;
        let candidates: Vec<Assignment> = succs
            .iter()
            .filter(|s| self.overall.status(s, &vocab) == Status::Unclassified)
            .filter(|s| self.seats[seat].personal.status(s, &vocab) != Status::Insignificant)
            .cloned()
            .collect();
        let askable: Vec<Assignment> = candidates
            .iter()
            .filter(|s| {
                let fs = self.scache.instantiate(&self.space, s);
                !self.crowd.has_answer_from(&fs, member_id) && view.can_answer(seat, &fs)
            })
            .cloned()
            .collect();

        if askable.is_empty() {
            // Inner loop over: MSP confirmation (modification 5 of §4.2).
            let is_msp = self.overall.status(&phi, &vocab) == Status::Significant
                && succs
                    .iter()
                    .all(|s| self.overall.status(s, &vocab) != Status::Significant);
            if is_msp && self.confirmed.insert(phi.clone()) {
                self.msps.push(phi.clone());
                self.recorder.on_msp(self.scache.is_valid(&self.space, &phi));
            }
            self.seats[seat].cursor = None;
            return StepFlow::Done(true);
        }

        // Specialization question, with the configured probability.
        if self.config.specialization_ratio > 0.0
            && self.rng.random::<f64>() < self.config.specialization_ratio
        {
            let base_fs = FactSet::clone(&self.scache.instantiate(&self.space, &phi));
            let cand_fs: Vec<FactSet> = askable
                .iter()
                .map(|c| FactSet::clone(&self.scache.instantiate(&self.space, c)))
                .collect();
            return self.stage(
                seat,
                Pending::Specialization {
                    base: base_fs.clone(),
                    askable,
                },
                QuestionPayload::Specialization {
                    base: base_fs,
                    candidates: cand_fs,
                },
            );
        }

        // Concrete question about the first askable successor.
        let target = askable[0].clone();
        self.begin_ask(seat, target)
    }

    /// Begin asking `seat` about `phi`: a pruning interaction first (with
    /// the configured probability), then the concrete question.
    fn begin_ask(&mut self, seat: usize, phi: Assignment) -> StepFlow {
        // User-guided pruning: the member's single click is the answer when
        // the question involves a value irrelevant to them (Section 6.2).
        if self.config.pruning_ratio > 0.0 && self.rng.random::<f64>() < self.config.pruning_ratio
        {
            let fs = FactSet::clone(&self.scache.instantiate(&self.space, &phi));
            return self.stage(
                seat,
                Pending::Pruning { phi },
                QuestionPayload::Pruning { factset: fs },
            );
        }
        self.ask_or_resolve(seat, phi)
    }

    /// The concrete question about `phi`: auto-answered when covered by the
    /// member's own pruning, served from the cache when already answered,
    /// staged for the driver otherwise.
    fn ask_or_resolve(&mut self, seat: usize, phi: Assignment) -> StepFlow {
        let vocab = Arc::clone(&self.vocab);
        let member_id = self.seats[seat].id;
        if self.seats[seat].pruned.status(&phi, &vocab) == Status::Insignificant {
            // Covered by the member's own pruning: inferred support 0 at no
            // question cost (Section 6.2).
            self.complete_concrete(seat, phi, 0.0);
            return StepFlow::Done(true);
        }
        let fs = FactSet::clone(&self.scache.instantiate(&self.space, &phi));
        if let Some(s) = self.crowd.cached_answer(&fs, member_id) {
            self.complete_concrete(seat, phi, s);
            return StepFlow::Done(true);
        }
        self.recorder.on_question(QuestionKind::Concrete, &fs);
        self.stage(
            seat,
            Pending::Concrete { phi: phi.clone() },
            QuestionPayload::Concrete {
                assignment: phi,
                factset: fs,
            },
        )
    }

    /// Stage a question for the driver. Every question-bearing path of the
    /// legacy loop counted as progress, so staging does too.
    fn stage(&mut self, seat: usize, pending: Pending, payload: QuestionPayload) -> StepFlow {
        self.next_qid += 1;
        self.staged = Some(PendingQuestion {
            id: QuestionId(self.next_qid),
            seat,
            member: self.seats[seat].id,
            payload,
        });
        self.pending = Some(pending);
        self.progressed = true;
        StepFlow::Asked
    }

    /// Apply a concrete answer: record, aggregate, and descend on a
    /// member-positive verdict.
    fn complete_concrete(&mut self, seat: usize, phi: Assignment, s: f64) {
        let vocab = Arc::clone(&self.vocab);
        let positive = self.record_answer(seat, &phi, s);
        self.recorder.on_state_change(&self.overall, &vocab);
        if positive {
            self.seats[seat].cursor = Some(phi);
        }
    }

    /// Record `s` as the seat's answer for `phi`, update the member's
    /// personal state, run the aggregator and update the overall state.
    /// Returns the member-positive verdict.
    fn record_answer(&mut self, seat: usize, phi: &Assignment, s: f64) -> bool {
        let vocab = Arc::clone(&self.vocab);
        let fs = FactSet::clone(&self.scache.instantiate(&self.space, phi));
        self.crowd.record(&fs, self.seats[seat].id, s);
        if s >= self.threshold {
            self.seats[seat].personal.mark_significant(phi, &vocab);
        } else {
            self.seats[seat].personal.mark_insignificant(phi, &vocab);
        }
        let supports = self.crowd.supports(&fs);
        let decision = self.aggregator.decide(&supports, self.threshold);
        if decision != Decision::Undecided && self.sink.enabled() {
            // How many answers the aggregator needed before committing —
            // the crowd cost of one border update.
            self.sink
                .observe(names::CROWD_QUORUM_SIZE, supports.len() as f64);
        }
        match decision {
            Decision::Significant => {
                self.sink
                    .count_labeled(names::BORDER_UPDATED, "significant", 1);
                self.overall.mark_significant(phi, &vocab);
            }
            Decision::Insignificant => {
                self.sink
                    .count_labeled(names::BORDER_UPDATED, "insignificant", 1);
                self.overall.mark_insignificant(phi, &vocab);
            }
            Decision::Undecided => {}
        }
        let positive = s >= self.threshold && self.overall.status(phi, &vocab) != Status::Insignificant;
        if self.sink.enabled() {
            let pruned =
                self.overall.take_index_pruned() + self.seats[seat].personal.take_index_pruned();
            if pruned > 0 {
                self.sink.count(names::BORDER_INDEX_PRUNED, pruned);
            }
        }
        positive
    }

    /// Find a minimal overall-unclassified assignment that the seat's
    /// member has not yet answered (directly or through pruning).
    fn find_askable(&self, view: &mut dyn CrowdView, seat: usize) -> Option<Assignment> {
        let vocab = &self.vocab;
        let member_id = self.seats[seat].id;
        let mut askable = |a: &Assignment| {
            let fs = self.scache.instantiate(&self.space, a);
            !self.crowd.has_answer_from(&fs, member_id) && view.can_answer(seat, &fs)
        };
        let mut stack: Vec<Assignment> = Vec::new();
        let mut seen: HashSet<Assignment> = HashSet::new();
        for root in self.space.roots() {
            match self.overall.status(&root, vocab) {
                Status::Unclassified if askable(&root) => return Some(root),
                Status::Insignificant => {}
                _ => {
                    if seen.insert(root.clone()) {
                        stack.push(root);
                    }
                }
            }
        }
        while let Some(n) = stack.pop() {
            for s in self.scache.successors(&self.space, &n).iter() {
                match self.overall.status(s, vocab) {
                    Status::Unclassified if askable(s) => return Some(s.clone()),
                    Status::Insignificant => {}
                    _ => {
                        if seen.insert(s.clone()) {
                            stack.push(s.clone());
                        }
                    }
                }
            }
        }
        None
    }

    /// Like [`find_askable`](Self::find_askable) but collects up to `width`
    /// candidates in the same traversal order, descending *through* askable
    /// nodes so the slate also covers the questions that become minimal once
    /// the first picks are classified. Prediction-only: the commit loop keeps
    /// using the single-result variant.
    fn find_askable_many(
        &self,
        member: &dyn CrowdMember,
        width: usize,
    ) -> Vec<Assignment> {
        let vocab = &self.vocab;
        let askable = |a: &Assignment| {
            let fs = self.scache.instantiate(&self.space, a);
            !self.crowd.has_answer_from(&fs, member.id()) && member.can_answer(&fs)
        };
        let mut found: Vec<Assignment> = Vec::new();
        let mut stack: Vec<Assignment> = Vec::new();
        let mut seen: HashSet<Assignment> = HashSet::new();
        for root in self.space.roots() {
            if self.overall.status(&root, vocab) == Status::Unclassified && askable(&root) {
                found.push(root.clone());
                if found.len() >= width {
                    return found;
                }
            }
            if self.overall.status(&root, vocab) != Status::Insignificant
                && seen.insert(root.clone())
            {
                stack.push(root);
            }
        }
        while let Some(n) = stack.pop() {
            for s in self.scache.successors(&self.space, &n).iter() {
                if self.overall.status(s, vocab) == Status::Insignificant {
                    continue;
                }
                if self.overall.status(s, vocab) == Status::Unclassified
                    && askable(s)
                    && !found.contains(s)
                {
                    found.push(s.clone());
                    if found.len() >= width {
                        return found;
                    }
                }
                if seen.insert(s.clone()) {
                    stack.push(s.clone());
                }
            }
        }
        found
    }

    /// Predict the seat's next *concrete* questions by replaying the
    /// selection logic of [`step_begin`](Self::step_begin) read-only.
    /// Cursor moves into significant successors and MSP confirmations are
    /// question-free, so the simulation walks through them (bounded by
    /// `PREDICT_HORIZON`).
    ///
    /// Returns the fact-sets of up to `PREFETCH_WIDTH` candidates: the
    /// question the commit loop would ask *right now*, plus the fallbacks it
    /// would move to if other members' answers classify the first picks
    /// before this member's next turn. Prefetching the whole slate keeps the
    /// hit rate high even while the border moves quickly.
    pub(crate) fn predict_questions(
        &self,
        seat: usize,
        shared: &SharedCrowdCache,
        member: &dyn CrowdMember,
    ) -> Vec<FactSet> {
        let vocab = &self.vocab;
        let member_id = self.seats[seat].id;
        let fresh = |fs: &FactSet| !shared.has_answer_from(fs, member_id);
        let mut cursor = self.seats[seat].cursor.clone();
        for _ in 0..PREDICT_HORIZON {
            match cursor.take() {
                None => {
                    // Outer loop: the next questions are the first minimal
                    // overall-unclassified assignments the member can answer.
                    return self
                        .find_askable_many(member, PREFETCH_WIDTH)
                        .into_iter()
                        .map(|phi| FactSet::clone(&self.scache.instantiate(&self.space, &phi)))
                        .filter(|fs| fresh(fs))
                        .collect();
                }
                Some(phi) => {
                    let succs = self.scache.successors(&self.space, &phi);
                    if let Some(s) = succs
                        .iter()
                        .find(|s| self.overall.status(s, vocab) == Status::Significant)
                    {
                        cursor = Some(s.clone());
                        continue;
                    }
                    let targets: Vec<FactSet> = succs
                        .iter()
                        .filter(|s| self.overall.status(s, vocab) == Status::Unclassified)
                        .filter(|s| {
                            self.seats[seat].personal.status(s, vocab) != Status::Insignificant
                        })
                        .filter_map(|s| {
                            let fs = self.scache.instantiate(&self.space, s);
                            (!self.crowd.has_answer_from(&fs, member_id) && member.can_answer(&fs))
                                .then(|| FactSet::clone(&fs))
                        })
                        .take(PREFETCH_WIDTH)
                        .collect();
                    if targets.is_empty() {
                        // Inner loop over: MSP confirmation is question-free
                        // and resets the cursor to the outer loop.
                        cursor = None;
                        continue;
                    }
                    return targets.into_iter().filter(|fs| fresh(fs)).collect();
                }
            }
        }
        Vec::new()
    }

    /// Seed the session's [`CrowdCache`] with answers carried over from
    /// previous queries (the service's cross-query
    /// [`AnswerStore`](oassis_crowd::AnswerStore)), then eagerly classify
    /// every assignment the seeded answers already decide — exactly what an
    /// earlier run's aggregator concluded from the same answers. Answers
    /// from members not seated here are ignored; returns how many answers
    /// were absorbed. Seeding an empty slice is a no-op, which is what
    /// keeps a store-less service session bit-identical to a sequential run.
    pub fn seed_answers(&mut self, answers: &[(FactSet, MemberId, f64)]) -> usize {
        let mut n = 0usize;
        for (fs, m, s) in answers {
            if self.seats.iter().any(|seat| seat.id == *m) {
                self.crowd.seed(fs, *m, *s);
                n += 1;
            }
        }
        if n > 0 {
            self.classify_from_cache();
        }
        n
    }

    /// Replay the aggregator over every cached answer set reachable in the
    /// space, marking the overall and per-seat personal states. Decisions
    /// are order-independent (each looks only at its own answer set and
    /// border marks are monotone), so this reproduces the decisions of the
    /// run(s) the answers came from.
    fn classify_from_cache(&mut self) {
        let vocab = Arc::clone(&self.vocab);
        let mut stack: Vec<Assignment> = Vec::new();
        let mut seen: HashSet<Assignment> = HashSet::new();
        for root in self.space.roots() {
            if seen.insert(root.clone()) {
                stack.push(root);
            }
        }
        while let Some(n) = stack.pop() {
            if self.overall.status(&n, &vocab) == Status::Insignificant {
                continue;
            }
            let fs = FactSet::clone(&self.scache.instantiate(&self.space, &n));
            let answers: Vec<(MemberId, f64)> = self.crowd.answers(&fs).to_vec();
            if !answers.is_empty() {
                for &(m, s) in &answers {
                    if let Some(seat) = self.seats.iter_mut().find(|seat| seat.id == m) {
                        if s >= self.threshold {
                            seat.personal.mark_significant(&n, &vocab);
                        } else {
                            seat.personal.mark_insignificant(&n, &vocab);
                        }
                    }
                }
                if self.overall.status(&n, &vocab) == Status::Unclassified {
                    let supports: Vec<f64> = answers.iter().map(|&(_, s)| s).collect();
                    let decision = self.aggregator.decide(&supports, self.threshold);
                    if decision != Decision::Undecided && self.sink.enabled() {
                        self.sink
                            .observe(names::CROWD_QUORUM_SIZE, supports.len() as f64);
                    }
                    match decision {
                        Decision::Significant => {
                            self.sink
                                .count_labeled(names::BORDER_UPDATED, "significant", 1);
                            self.overall.mark_significant(&n, &vocab);
                        }
                        Decision::Insignificant => {
                            self.sink
                                .count_labeled(names::BORDER_UPDATED, "insignificant", 1);
                            self.overall.mark_insignificant(&n, &vocab);
                            // A freshly pruned region: don't descend.
                            continue;
                        }
                        Decision::Undecided => {}
                    }
                }
            }
            for s in self.scache.successors(&self.space, &n).iter() {
                if seen.insert(s.clone()) {
                    stack.push(s.clone());
                }
            }
        }
        if self.sink.enabled() {
            let mut pruned = self.overall.take_index_pruned();
            for seat in &mut self.seats {
                pruned += seat.personal.take_index_pruned();
            }
            if pruned > 0 {
                self.sink.count(names::BORDER_INDEX_PRUNED, pruned);
            }
        }
    }

    fn render_answers(&self, msps: &[Assignment]) -> Vec<QueryAnswer> {
        msps.iter()
            .map(|a| {
                let factset = self.scache.instantiate(&self.space, a);
                let answers = self.crowd.supports(&factset);
                let support = if answers.is_empty() {
                    None
                } else {
                    Some(answers.iter().sum::<f64>() / answers.len() as f64)
                };
                QueryAnswer {
                    assignment: a.clone(),
                    factset: FactSet::clone(&factset),
                    valid: self.scache.is_valid(&self.space, a),
                    support,
                    rendered: self.vocab.factset_to_string(&factset),
                }
            })
            .collect()
    }

    /// Whether the run has finished ([`poll`](Self::poll) returned
    /// [`SessionEvent::Finished`]).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Total questions asked so far (the statistics counter backing the
    /// [`EngineConfig::max_questions`] budget).
    pub fn question_count(&self) -> usize {
        self.recorder.stats.total_questions
    }

    /// Number of member seats.
    pub fn seat_count(&self) -> usize {
        self.seats.len()
    }

    /// Drain the MSP answers confirmed since the last call (incremental
    /// delivery, in confirmation order).
    pub fn take_new_answers(&mut self) -> Vec<QueryAnswer> {
        std::mem::take(&mut self.fresh)
    }

    /// The next `n` seats the round-robin scheduler will visit (exhausted
    /// seats skipped), starting from the current turn's seat. The service's
    /// wave staging prefetches for exactly these seats — predicting for the
    /// whole roster would cost a space walk per seat on large crowds while
    /// only the seats about to take a turn can produce cache hits.
    pub(crate) fn upcoming_seats(&self, n: usize) -> Vec<usize> {
        let len = self.seats.len();
        if len == 0 {
            return Vec::new();
        }
        let start = self.seat_cursor.min(len - 1);
        (0..len)
            .map(|k| (start + k) % len)
            .filter(|&s| !self.seats[s].exhausted)
            .take(n)
            .collect()
    }

    /// Close the session, yielding the final result, whose `cache` holds
    /// every collected answer. The final MSP set is the positive border of
    /// the overall knowledge (not just the incrementally confirmed ones).
    pub fn finish(&mut self) -> QueryResult {
        self.done = true;
        let border_msps: Vec<Assignment> = self.overall.significant_border().to_vec();
        let answers = self.render_answers(&border_msps);
        let stats = std::mem::take(&mut self.recorder.stats);
        let cache = std::mem::take(&mut self.crowd);
        let state = std::mem::replace(
            &mut self.overall,
            if self.config.use_indexes {
                ClassificationState::new()
            } else {
                ClassificationState::unindexed()
            },
        );
        self.exit_span();
        QueryResult {
            answers,
            stats,
            cache,
            state,
        }
    }

    /// Emit the matching `engine.run` span exit (idempotent).
    fn exit_span(&mut self) {
        if let Some(start) = self.span_start.take() {
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.sink.emit(&Event {
                name: names::SPAN_RUN,
                kind: EventKind::SpanExit { nanos },
                label: None,
            });
        }
    }
}

impl Drop for MiningSession {
    fn drop(&mut self) {
        self.exit_span();
    }
}
