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

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use oassis_crowd::{
    Aggregator, AnswerStore, CrowdCache, CrowdMember, Decision, FixedSampleAggregator, MemberId,
};
use oassis_obs::{names, Event, EventKind, EventSink, SinkExt, Span};
use oassis_vocab::{ElementId, FactSet};

use crate::assignment::Assignment;
use crate::border::{ClassificationState, Status};
use crate::config::EngineConfig;
use crate::runtime::QuestionId;
use crate::space::{AssignSpace, NodeId, NodeSet, NodeStamps, SpaceCache};
use crate::stats::{QuestionKind, Recorder};
use crate::value::AValue;

use super::{QueryAnswer, QueryResult};

/// How far ahead [`MiningSession::predict_questions`] simulates
/// question-free transitions (cursor moves into significant successors,
/// MSP confirmations) before giving up on finding the member's next
/// concrete question.
const PREDICT_HORIZON: usize = 64;

/// How many candidate questions a single speculative dispatch carries. The
/// batch is answered in one simulated round-trip (a multi-question form), so
/// a wider slate raises the prefetch hit rate without extra latency; answers
/// beyond the first wait in the service's answer store for later turns.
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
        /// The node the follow-up concrete question targets.
        phi: NodeId,
    },
    /// A concrete question about `phi`.
    Concrete {
        /// The node asked about.
        phi: NodeId,
    },
    /// A specialization question below the cursor.
    Specialization {
        /// The base pattern (for statistics labeling).
        base: FactSet,
        /// The candidate nodes, aligned with the payload's `candidates`
        /// fact-sets.
        askable: Vec<NodeId>,
    },
}

/// The state of one [`MiningSession::find_askable`] walk.
struct Walk {
    member: MemberId,
    width: usize,
    found: Vec<NodeId>,
    stack: Vec<NodeId>,
}

/// Who stores an answer the session records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// An answer to a concrete question, absorbed from outside, or one
    /// already in the session's cache: the service stores those itself.
    Routed,
    /// An answer only the session knows: a specialization choice, a "none
    /// of these" zero or a pruning-inferred zero. Kept for
    /// [`MiningSession::take_session_answers`].
    Session,
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
    cursor: Option<NodeId>,
    /// This member's own classification knowledge. Their "No" answers stop
    /// only their *descent* (§4.2 modification 4); the outer loop may still
    /// ask them about any unclassified assignment. Probed by assignment,
    /// unmemoized: a step asks it about a few successors only, and a
    /// per-seat memo would be sized seats × nodes.
    personal: ClassificationState,
    /// Values the member declared irrelevant (user-guided pruning): these
    /// genuinely imply support 0, so covered questions are auto-answered.
    pruned: ClassificationState,
    /// Set when the member has nothing left to contribute.
    exhausted: bool,
}

impl SeatState {
    fn new(id: MemberId, state: fn() -> ClassificationState) -> Self {
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
    /// The run's node arena: every walk below runs on its ids. It
    /// memoizes derivations except in a [`reference`](Self::reference)
    /// session.
    nodes: SpaceCache,
    threshold: f64,
    aggregator: Arc<dyn Aggregator>,
    config: Arc<EngineConfig>,
    sink: Arc<dyn EventSink>,
    seats: Vec<SeatState>,
    /// The overall knowledge, probed by node id through its status memo.
    overall: ClassificationState,
    crowd: CrowdCache,
    /// The [`Source::Session`] answers, in the order they were recorded.
    session_answers: Vec<(FactSet, MemberId, f64)>,
    recorder: Recorder,
    rng: SmallRng,
    msps: Vec<NodeId>,
    confirmed: NodeSet,
    /// Nodes counted on `engine.dag.nodes_generated` so far.
    generated: NodeSet,
    /// Visit marks of the current walk.
    seen: NodeStamps,
    /// Reusable id buffers of the walks: successor lists and the DFS stack.
    succ_buf: Vec<NodeId>,
    stack_buf: Vec<NodeId>,
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
    /// Whether the sink is enabled: the `engine.mine.*` spans are timed
    /// only then.
    tracing: bool,
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
        let nodes = SpaceCache::with_sink(Arc::clone(&config.sink));
        Self::build(
            space,
            threshold,
            config,
            seats,
            algo,
            nodes,
            ClassificationState::new,
        )
    }

    /// A session on the un-indexed reference walk: its arena
    /// ([`SpaceCache::reference`]) memoizes no derivation, and its overall
    /// and per-seat knowledge ([`ClassificationState::unindexed`]) answer
    /// every status by linear scan. It asks exactly the questions of
    /// [`new`](Self::new), only slower; the oracles and the index-layer
    /// baseline compare the two walks. No config selects it.
    pub fn reference(
        space: Arc<AssignSpace>,
        threshold: f64,
        config: Arc<EngineConfig>,
        seats: Vec<MemberId>,
    ) -> Self {
        let algo = "multiuser".to_string();
        let nodes = SpaceCache::reference();
        Self::build(
            space,
            threshold,
            config,
            seats,
            algo,
            nodes,
            ClassificationState::unindexed,
        )
    }

    fn build(
        space: Arc<AssignSpace>,
        threshold: f64,
        config: Arc<EngineConfig>,
        seats: Vec<MemberId>,
        algo: String,
        nodes: SpaceCache,
        state: fn() -> ClassificationState,
    ) -> Self {
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
            // an exhaustive traversal, so only do it for an attached sink,
            // give up on astronomically large spaces, and count once per
            // space: later sessions of the shape read the first count.
            if let Some(total) = space.nodes_total(&*sink) {
                sink.gauge(names::DAG_NODES_TOTAL, total as f64);
            }
        }
        let crowd = CrowdCache::new().with_sink(Arc::clone(&sink));
        let mut recorder = Recorder::new().with_sink(Arc::clone(&sink)).with_algo(algo);
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
        MiningSession {
            space,
            nodes,
            threshold,
            aggregator,
            config,
            sink,
            seats: seats
                .into_iter()
                .map(|id| SeatState::new(id, state))
                .collect(),
            overall: state(),
            crowd,
            session_answers: Vec::new(),
            recorder,
            rng,
            msps: Vec::new(),
            confirmed: NodeSet::default(),
            generated: NodeSet::default(),
            seen: NodeStamps::default(),
            succ_buf: Vec::new(),
            stack_buf: Vec::new(),
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
            tracing: span_start.is_some(),
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

    /// Resume the session with the answer to the staged question `id`.
    ///
    /// # Panics
    ///
    /// If no question is staged, `id` is not the staged question, or the
    /// answer kind does not match the question kind.
    pub fn absorb(&mut self, id: QuestionId, answer: Answer) {
        self.spanned(names::SPAN_MINE_ABSORB, |s| s.apply_answer(id, answer));
    }

    /// Time `f` as span `name` when the sink is enabled; otherwise run it
    /// untimed.
    fn spanned<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.tracing {
            return f(self);
        }
        let sink = Arc::clone(&self.sink);
        let _span = Span::enter(&*sink, name);
        f(self)
    }

    /// The body of [`absorb`](Self::absorb).
    fn apply_answer(&mut self, id: QuestionId, answer: Answer) {
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
        match (pending, answer) {
            (_, Answer::Unavailable) => {
                // The runtime excluded the member mid-question.
                self.seats[seat].exhausted = true;
                self.turn_done = Some(seat);
            }
            (Pending::Pruning { phi }, Answer::Irrelevant(elems)) => {
                if !elems.is_empty() {
                    let fs = self.nodes.factset(&self.space, phi);
                    self.recorder.on_question(QuestionKind::Pruning, fs);
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
                self.complete_concrete(seat, phi, s, Source::Routed);
                self.turn_done = Some(seat);
            }
            (Pending::Specialization { base, askable }, Answer::Choice(choice)) => {
                match choice {
                    Some((chosen, s)) => {
                        self.recorder
                            .on_question(QuestionKind::Specialization, &base);
                        let phi = askable[chosen];
                        let positive = self.record_answer(seat, phi, s, Source::Session);
                        self.recorder
                            .on_state_change(&self.overall, self.space.ontology().vocabulary());
                        if positive {
                            self.seats[seat].cursor = Some(phi);
                        }
                    }
                    None => {
                        self.recorder.on_question(QuestionKind::NoneOfThese, &base);
                        for &c in &askable {
                            self.record_answer(seat, c, 0.0, Source::Session);
                        }
                        self.recorder
                            .on_state_change(&self.overall, self.space.ontology().vocabulary());
                    }
                }
                self.turn_done = Some(seat);
            }
            (pending, answer) => {
                panic!("answer kind does not match the staged question: {pending:?} vs {answer:?}")
            }
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
        self.spanned(names::SPAN_MINE_END_TURN, |s| s.close_turn(seat))
    }

    /// The body of [`end_turn`](Self::end_turn).
    fn close_turn(&mut self, seat: usize) -> SessionEvent {
        while self.delivered < self.msps.len() {
            let answer = self.render_answer(self.msps[self.delivered]);
            if answer.valid {
                self.valid_confirmed += 1;
            }
            self.fresh.push(answer);
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

    /// The overall status of node `id`, memoized by id.
    fn overall_status(&mut self, id: NodeId) -> Status {
        self.overall.status_of(
            id,
            self.nodes.assignment(id),
            self.space.ontology().vocabulary(),
        )
    }

    /// Seat `seat`'s personal status of node `id` (unmemoized).
    fn personal_status(&self, seat: usize, id: NodeId) -> Status {
        self.seats[seat].personal.status(
            self.nodes.assignment(id),
            self.space.ontology().vocabulary(),
        )
    }

    /// One scheduling step for `seat`, up to (but not through) its first
    /// crowd question.
    fn step_begin(&mut self, view: &mut dyn CrowdView, seat: usize) -> StepFlow {
        let Some(phi) = self.seats[seat].cursor else {
            // Outer loop: find a minimal overall-unclassified assignment
            // this member can still help with.
            let member_id = self.seats[seat].id;
            let found = self.spanned(names::SPAN_MINE_SEARCH, |s| {
                s.find_askable(member_id, 1, |fs| view.can_answer(seat, fs))
                    .pop()
            });
            let Some(phi) = found else {
                self.seats[seat].exhausted = true;
                return StepFlow::Done(false);
            };
            return self.begin_ask(seat, phi);
        };

        self.spanned(names::SPAN_MINE_CURSOR, |s| {
            let mut succs = std::mem::take(&mut s.succ_buf);
            let flow = s.cursor_step(view, seat, phi, &mut succs);
            s.succ_buf = succs;
            flow
        })
    }

    /// The cursor step of [`step_begin`](Self::step_begin): descend from
    /// `phi` (whose successors land in the reusable buffer `succs`).
    fn cursor_step(
        &mut self,
        view: &mut dyn CrowdView,
        seat: usize,
        phi: NodeId,
        succs: &mut Vec<NodeId>,
    ) -> StepFlow {
        self.nodes.successors_into(&self.space, phi, succs);
        let fresh = succs.iter().filter(|&&s| self.generated.insert(s)).count();
        self.recorder.on_nodes_generated(fresh);

        // Move freely into an overall-significant successor.
        if let Some(&s) = succs
            .iter()
            .find(|&&s| self.overall_status(s) == Status::Significant)
        {
            self.seats[seat].cursor = Some(s);
            return StepFlow::Done(true);
        }

        // Askable successors: overall-unclassified, not ruled out for this
        // member personally, not yet answered by them, and answerable.
        let member_id = self.seats[seat].id;
        let mut askable: Vec<NodeId> = Vec::new();
        for &s in succs.iter() {
            if self.overall_status(s) != Status::Unclassified
                || self.personal_status(seat, s) == Status::Insignificant
            {
                continue;
            }
            let fs = self.nodes.factset(&self.space, s);
            if !self.crowd.has_answer_from(fs, member_id) && view.can_answer(seat, fs) {
                askable.push(s);
            }
        }

        if askable.is_empty() {
            // Inner loop over: MSP confirmation (modification 5 of §4.2).
            // No successor is significant (checked above), so a
            // significant `phi` is maximal.
            if self.overall_status(phi) == Status::Significant && self.confirmed.insert(phi) {
                self.msps.push(phi);
                let valid = self.nodes.is_valid(&self.space, phi);
                self.recorder.on_msp(valid);
            }
            self.seats[seat].cursor = None;
            return StepFlow::Done(true);
        }

        // Specialization question, with the configured probability.
        if self.config.specialization_ratio > 0.0
            && self.rng.random::<f64>() < self.config.specialization_ratio
        {
            let base_fs = self.nodes.factset(&self.space, phi).clone();
            let cand_fs: Vec<FactSet> = askable
                .iter()
                .map(|&c| self.nodes.factset(&self.space, c).clone())
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
        self.begin_ask(seat, askable[0])
    }

    /// Begin asking `seat` about `phi`: a pruning interaction first (with
    /// the configured probability), then the concrete question.
    fn begin_ask(&mut self, seat: usize, phi: NodeId) -> StepFlow {
        // User-guided pruning: the member's single click is the answer when
        // the question involves a value irrelevant to them (Section 6.2).
        if self.config.pruning_ratio > 0.0 && self.rng.random::<f64>() < self.config.pruning_ratio {
            let fs = self.nodes.factset(&self.space, phi).clone();
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
    fn ask_or_resolve(&mut self, seat: usize, phi: NodeId) -> StepFlow {
        let member_id = self.seats[seat].id;
        let pruned = self.seats[seat].pruned.status(
            self.nodes.assignment(phi),
            self.space.ontology().vocabulary(),
        );
        if pruned == Status::Insignificant {
            // Covered by the member's own pruning: inferred support 0 at no
            // question cost (Section 6.2).
            self.complete_concrete(seat, phi, 0.0, Source::Session);
            return StepFlow::Done(true);
        }
        let fs = self.nodes.factset(&self.space, phi).clone();
        if let Some(s) = self.crowd.cached_answer(&fs, member_id) {
            self.complete_concrete(seat, phi, s, Source::Routed);
            return StepFlow::Done(true);
        }
        self.recorder.on_question(QuestionKind::Concrete, &fs);
        let assignment = self.nodes.assignment(phi).clone();
        self.stage(
            seat,
            Pending::Concrete { phi },
            QuestionPayload::Concrete {
                assignment,
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
    fn complete_concrete(&mut self, seat: usize, phi: NodeId, s: f64, source: Source) {
        let positive = self.record_answer(seat, phi, s, source);
        self.recorder
            .on_state_change(&self.overall, self.space.ontology().vocabulary());
        if positive {
            self.seats[seat].cursor = Some(phi);
        }
    }

    /// Record `s` as the seat's answer for `phi`, update the member's
    /// personal state, run the aggregator and update the overall state.
    /// Returns the member-positive verdict.
    fn record_answer(&mut self, seat: usize, phi: NodeId, s: f64, source: Source) -> bool {
        let vocab = self.space.ontology().vocabulary();
        let fs = self.nodes.factset(&self.space, phi);
        self.crowd.record(fs, self.seats[seat].id, s);
        if source == Source::Session {
            self.session_answers
                .push((fs.clone(), self.seats[seat].id, s));
        }
        let supports = self.crowd.supports(fs);
        let assignment = self.nodes.assignment(phi);
        let personal = &mut self.seats[seat].personal;
        if s >= self.threshold {
            personal.mark_significant(assignment, vocab);
        } else {
            personal.mark_insignificant(assignment, vocab);
        }
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
                self.overall.mark_significant(assignment, vocab);
            }
            Decision::Insignificant => {
                self.sink
                    .count_labeled(names::BORDER_UPDATED, "insignificant", 1);
                self.overall.mark_insignificant(assignment, vocab);
            }
            Decision::Undecided => {}
        }
        let positive = s >= self.threshold && self.overall_status(phi) != Status::Insignificant;
        if self.sink.enabled() {
            let pruned =
                self.overall.take_index_pruned() + self.seats[seat].personal.take_index_pruned();
            if pruned > 0 {
                self.sink.count(names::BORDER_INDEX_PRUNED, pruned);
            }
        }
        positive
    }

    /// Collect up to `width` minimal overall-unclassified assignments that
    /// `member` has not yet answered (directly or through pruning) and
    /// `can_answer` accepts, in depth-first order from the roots. The walk
    /// descends *through* the assignments it collects, so a wider slate also
    /// covers the questions that become minimal once the first picks are
    /// classified; at width 1 it returns the commit loop's next question.
    fn find_askable(
        &mut self,
        member: MemberId,
        width: usize,
        mut can_answer: impl FnMut(&FactSet) -> bool,
    ) -> Vec<NodeId> {
        let mut walk = Walk {
            member,
            width,
            found: Vec::new(),
            stack: std::mem::take(&mut self.stack_buf),
        };
        let mut succs = std::mem::take(&mut self.succ_buf);
        walk.stack.clear();
        self.seen.begin();
        self.nodes.roots_into(&self.space, &mut succs);
        let mut full = succs
            .iter()
            .any(|&root| self.visit(&mut walk, root, &mut can_answer));
        while !full {
            let Some(n) = walk.stack.pop() else {
                break;
            };
            self.nodes.successors_into(&self.space, n, &mut succs);
            full = succs
                .iter()
                .any(|&s| self.visit(&mut walk, s, &mut can_answer));
        }
        self.succ_buf = succs;
        self.stack_buf = walk.stack;
        walk.found
    }

    /// One [`find_askable`](Self::find_askable) visit, asking `status`
    /// once: collect the node if askable, queue it unless insignificant or
    /// already queued. Returns whether the slate is full.
    fn visit(
        &mut self,
        walk: &mut Walk,
        a: NodeId,
        can_answer: &mut impl FnMut(&FactSet) -> bool,
    ) -> bool {
        let status = self.overall_status(a);
        if status == Status::Insignificant {
            return false;
        }
        if status == Status::Unclassified && !walk.found.contains(&a) {
            let fs = self.nodes.factset(&self.space, a);
            if !self.crowd.has_answer_from(fs, walk.member) && can_answer(fs) {
                walk.found.push(a);
                if walk.found.len() >= walk.width {
                    return true;
                }
            }
        }
        if self.seen.insert(a) {
            walk.stack.push(a);
        }
        false
    }

    /// Predict the seat's next *concrete* questions by replaying the
    /// selection logic of [`step_begin`](Self::step_begin) without
    /// changing what the session will do. Cursor moves into significant
    /// successors and MSP confirmations are question-free, so the
    /// simulation walks through them (bounded by `PREDICT_HORIZON`).
    ///
    /// Returns the fact-sets of up to `PREFETCH_WIDTH` candidates: the
    /// question the commit loop would ask *right now*, plus the fallbacks it
    /// would move to if other members' answers classify the first picks
    /// before this member's next turn. Prefetching the whole slate keeps the
    /// hit rate high even while the border moves quickly.
    ///
    /// Candidates the `store` already holds an answer to (paid or an
    /// unpaid prefetch) are dropped: the service serves a stored answer
    /// before it checks for a prefetched one, so prefetching them again
    /// could never be a wave hit.
    pub(crate) fn predict_questions(
        &mut self,
        seat: usize,
        store: &AnswerStore,
        member: &dyn CrowdMember,
    ) -> Vec<FactSet> {
        self.spanned(names::SPAN_MINE_PREDICT, |s| s.predict(seat, store, member))
    }

    /// The body of [`predict_questions`](Self::predict_questions).
    fn predict(
        &mut self,
        seat: usize,
        store: &AnswerStore,
        member: &dyn CrowdMember,
    ) -> Vec<FactSet> {
        let member_id = self.seats[seat].id;
        let mut cursor = self.seats[seat].cursor;
        for _ in 0..PREDICT_HORIZON {
            let Some(phi) = cursor.take() else {
                // Outer loop: the next questions are the first minimal
                // overall-unclassified assignments the member can answer.
                let found =
                    self.find_askable(member_id, PREFETCH_WIDTH, |fs| member.can_answer(fs));
                return found
                    .into_iter()
                    .filter_map(|id| {
                        let fs = self.nodes.factset(&self.space, id);
                        (!store.holds(fs, member_id)).then(|| fs.clone())
                    })
                    .collect();
            };
            let mut succs = std::mem::take(&mut self.succ_buf);
            self.nodes.successors_into(&self.space, phi, &mut succs);
            let significant = succs
                .iter()
                .copied()
                .find(|&s| self.overall_status(s) == Status::Significant);
            let mut targets: Vec<FactSet> = Vec::new();
            if significant.is_none() {
                for &s in &succs {
                    if targets.len() >= PREFETCH_WIDTH {
                        break;
                    }
                    if self.overall_status(s) != Status::Unclassified
                        || self.personal_status(seat, s) == Status::Insignificant
                    {
                        continue;
                    }
                    let fs = self.nodes.factset(&self.space, s);
                    if !self.crowd.has_answer_from(fs, member_id) && member.can_answer(fs) {
                        targets.push(fs.clone());
                    }
                }
            }
            self.succ_buf = succs;
            if significant.is_some() {
                cursor = significant;
                continue;
            }
            if targets.is_empty() {
                // Inner loop over: MSP confirmation is question-free
                // and resets the cursor to the outer loop.
                continue;
            }
            targets.retain(|fs| !store.holds(fs, member_id));
            return targets;
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
            self.spanned(names::SPAN_MINE_CLASSIFY, Self::classify_from_cache);
        }
        n
    }

    /// Replay the aggregator over every cached answer set reachable in the
    /// space, marking the overall and per-seat personal states. Decisions
    /// are order-independent (each looks only at its own answer set and
    /// border marks are monotone), so this reproduces the decisions of the
    /// run(s) the answers came from.
    fn classify_from_cache(&mut self) {
        let space = Arc::clone(&self.space);
        let vocab = space.ontology().vocabulary();
        let mut stack = std::mem::take(&mut self.stack_buf);
        let mut succs = std::mem::take(&mut self.succ_buf);
        stack.clear();
        self.seen.begin();
        self.nodes.roots_into(&self.space, &mut succs);
        for &root in &succs {
            if self.seen.insert(root) {
                stack.push(root);
            }
        }
        while let Some(n) = stack.pop() {
            if self.overall_status(n) == Status::Insignificant {
                continue;
            }
            let fs = self.nodes.factset(&self.space, n);
            let answers: Vec<(MemberId, f64)> = self.crowd.answers(fs).to_vec();
            if !answers.is_empty() {
                let phi = self.nodes.assignment(n);
                for &(m, s) in &answers {
                    if let Some(seat) = self.seats.iter_mut().find(|seat| seat.id == m) {
                        if s >= self.threshold {
                            seat.personal.mark_significant(phi, vocab);
                        } else {
                            seat.personal.mark_insignificant(phi, vocab);
                        }
                    }
                }
                if self.overall_status(n) == Status::Unclassified {
                    let supports: Vec<f64> = answers.iter().map(|&(_, s)| s).collect();
                    let decision = self.aggregator.decide(&supports, self.threshold);
                    if decision != Decision::Undecided && self.sink.enabled() {
                        self.sink
                            .observe(names::CROWD_QUORUM_SIZE, supports.len() as f64);
                    }
                    let phi = self.nodes.assignment(n);
                    match decision {
                        Decision::Significant => {
                            self.sink
                                .count_labeled(names::BORDER_UPDATED, "significant", 1);
                            self.overall.mark_significant(phi, vocab);
                        }
                        Decision::Insignificant => {
                            self.sink
                                .count_labeled(names::BORDER_UPDATED, "insignificant", 1);
                            self.overall.mark_insignificant(phi, vocab);
                            // A freshly pruned region: don't descend.
                            continue;
                        }
                        Decision::Undecided => {}
                    }
                }
            }
            self.nodes.successors_into(&self.space, n, &mut succs);
            for &s in &succs {
                if self.seen.insert(s) {
                    stack.push(s);
                }
            }
        }
        self.succ_buf = succs;
        self.stack_buf = stack;
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

    /// Render MSP node `id` as a query answer; this is where an MSP's
    /// assignment leaves the arena.
    fn render_answer(&mut self, id: NodeId) -> QueryAnswer {
        let valid = self.nodes.is_valid(&self.space, id);
        let factset = self.nodes.factset(&self.space, id);
        let answers = self.crowd.supports(factset);
        let support = if answers.is_empty() {
            None
        } else {
            Some(answers.iter().sum::<f64>() / answers.len() as f64)
        };
        let rendered = self
            .space
            .ontology()
            .vocabulary()
            .factset_to_string(factset);
        QueryAnswer {
            factset: factset.clone(),
            assignment: self.nodes.assignment(id).clone(),
            valid,
            support,
            rendered,
        }
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

    /// Drain the answers only the session knows — specialization
    /// choices, "none of these" zeros and pruning-inferred zeros — in the
    /// order it recorded them. The service stores the answers to the
    /// concrete questions it resolves itself; these are the rest of the
    /// session's cache.
    pub(crate) fn take_session_answers(&mut self) -> Vec<(FactSet, MemberId, f64)> {
        std::mem::take(&mut self.session_answers)
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
        let border_msps: Vec<NodeId> = self
            .overall
            .significant_border()
            .iter()
            .map(|phi| self.nodes.intern(phi))
            .collect();
        let answers = border_msps
            .into_iter()
            .map(|id| self.render_answer(id))
            .collect();
        let stats = std::mem::take(&mut self.recorder.stats);
        let cache = std::mem::take(&mut self.crowd);
        let state = std::mem::take(&mut self.overall);
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
