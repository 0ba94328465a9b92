//! [`OassisService`] — the multi-query service layer: many concurrent
//! [`MiningSession`]s multiplexed over **one** shared crowd.
//!
//! The service admits queries ([`submit`](OassisService::submit)) against a
//! single [`SessionRuntime`] worker pool and schedules them in
//! priority-then-round-robin cycles ([`run`](OassisService::run)). Each
//! cycle gives every live session at most one *committed* crowd dispatch;
//! answers are routed back as they arrive, so sessions overlap their crowd
//! latency instead of queueing behind one another.
//!
//! ## Question waves
//!
//! With [`set_wave_size`](OassisService::set_wave_size) above 1, each
//! session additionally keeps a *wave* of up to `wave_size` questions in
//! flight per cycle: beyond its one committed dispatch, the service
//! predicts the session's next concrete questions
//! ([`MiningSession::predict_questions`] — a read-only walk of the same
//! selection logic the commit loop runs) and dispatches them
//! speculatively across the pool's member shards. Speculative answers
//! are held in the [`AnswerStore`] as unpaid answers; when the commit loop
//! stages such a question, it is served from there, becomes a paid answer
//! logged for the session, and is **accounted exactly like a crowd
//! dispatch** (`crowd_questions`, budget spend, WAL watermark,
//! `service.question.dispatched/resolved`, plus `wave.hit`) — it *was*
//! one, just paid earlier. That accounting is what keeps the valid-MSP
//! sets and question counts identical across wave sizes (the `wave-sweep`
//! sim oracle enforces it). Sessions that ask specialization or pruning
//! questions (RNG-driven kinds prediction cannot see) never join waves.
//! The wave size is a runtime tuning knob, not part of a session's spec:
//! it is not persisted, and a recovered service starts back at 1.
//!
//! Cross-query reuse flows through the [`AnswerStore`]:
//!
//! * at **admission**, a new session's `CrowdCache` is seeded with every
//!   stored answer from its roster members ([`MiningSession::seed_answers`]),
//!   so already-answered questions are never staged;
//! * at **dispatch**, a staged concrete question is first looked up in the
//!   store and, on a hit, answered without touching the crowd
//!   (`answerstore.hit[serve]`);
//! * at **routing**, every committed concrete answer is stored as it
//!   arrives, and at **completion** the answers only the session knew
//!   (specialization choices, "none of these" and pruning-inferred zeros)
//!   are stored in the order the session recorded them, tagged with it.
//!
//! With an empty store and a single session, the service reproduces the
//! minimal in-line loop of the simulation harness exactly — same MSP set,
//! same question count (the differential tests in `tests/service.rs`
//! enforce this). That is how [`Oassis::execute`](super::Oassis::execute)
//! runs one query: as the only session of a volatile service.
//!
//! ## Durability
//!
//! A service started with [`start_with_persistence`]
//! (OassisService::start_with_persistence) appends one [`WalRecord`] per
//! state change — a committed crowd answer, an admission, a budget spend,
//! a close — to a [`Persistence`] log, and periodically checkpoints it.
//! It refuses to admit a session whose config sets `mode` or
//! `more_domain`: the `Admit` record does not carry them.
//! The log is never rewritten, so a checkpoint costs the records since
//! the last one, not the answer store.
//! [`recover`](OassisService::recover) /
//! [`recover_with`](OassisService::recover_with) replay the log on
//! startup: the cross-query [`AnswerStore`] is rebuilt in full, and every
//! session that was admitted but had not closed comes back as a
//! re-admittable [`RecoveredSession`] — [`resume`](OassisService::resume)
//! re-admits it, re-seeding it from the recovered answers so only the
//! questions whose answers were lost in flight are asked again. The crash
//! oracle in `oassis-simtest` sweeps exactly this contract: kill at any
//! log index, recover, and the final valid-MSP sets (and, for disjoint
//! rosters, the per-query crowd-question totals) match the uninterrupted
//! run.
//!
//! Every session that holds no live slot has one entry in the service's
//! session directory: interrupted (recovered, awaiting a resumption),
//! closed (its final [`ClosedOutcome`], whether this service closed it or
//! the log's `Close` record did), or superseded by the session that
//! resumed it. [`state`](OassisService::state) follows the superseded
//! links to the last link of an id's resumption chain, and
//! [`resume_by_id`](OassisService::resume_by_id) decides on that state,
//! so a client holding any id of a chain reaches the chain's live
//! session or final outcome after any number of restarts.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::{Arc, Weak};

use oassis_crowd::{AnswerStore, CrowdMember, MemberId};
use oassis_obs::{names, EventSink, SinkExt};
use oassis_ql::{Query, SelectForm};
use oassis_sparql::MatchMode;
use oassis_store::Ontology;
use oassis_store_durable::{shared, AdmitSpec, FileBacked, SharedPersistence, WalRecord};
use oassis_vocab::{Fact, FactSet};

use crate::config::EngineConfig;
use crate::runtime::{
    AskPayload, AskValue, Pool, QuestionId, RuntimeError, RuntimeErrorKind, SessionRuntime,
};
use crate::space::AssignSpace;

use super::session::{
    Answer, CrowdView, MiningSession, PendingQuestion, QuestionPayload, SessionEvent,
};
use super::single::Oassis;
use super::{OassisError, QueryAnswer, QueryResult};

/// Service-assigned identifier of an admitted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// How a session ended: the status its durable `Close` record carries.
pub use oassis_store_durable::CloseStatus as SessionStatus;

/// An admission request for [`OassisService::submit`].
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// OASSIS-QL query source.
    pub query: String,
    /// Support threshold override; defaults to the query's own
    /// `WITH SUPPORT` value.
    pub threshold: Option<f64>,
    /// Engine configuration for this session (seed, aggregator sample,
    /// question ratios, ...).
    pub config: EngineConfig,
    /// Pool seat indices this session may ask. `None` = the whole crowd.
    pub roster: Option<Vec<usize>>,
    /// Scheduling priority: higher goes first within a cycle; equal
    /// priorities rotate round-robin across cycles.
    pub priority: u8,
    /// Cap on *crowd* dispatches for this session (store-served and
    /// cache-served questions are free). `None` = unlimited.
    pub budget: Option<usize>,
}

impl SessionSpec {
    /// A spec with default config, full roster, priority 0 and no budget.
    fn base(query: impl Into<String>) -> Self {
        SessionSpec {
            query: query.into(),
            threshold: None,
            config: EngineConfig::default(),
            roster: None,
            priority: 0,
            budget: None,
        }
    }

    /// Fluent construction, mirroring [`EngineConfig::builder`]:
    ///
    /// ```
    /// use oassis_core::{EngineConfig, SessionSpec};
    ///
    /// let spec = SessionSpec::builder("SELECT FACT-SETS WHERE ...")
    ///     .threshold(0.4)
    ///     .roster(vec![0, 1, 2])
    ///     .priority(5)
    ///     .budget(200)
    ///     .config(EngineConfig::builder().seed(7).build())
    ///     .build();
    /// assert_eq!(spec.priority, 5);
    /// ```
    pub fn builder(query: impl Into<String>) -> SessionSpecBuilder {
        SessionSpecBuilder {
            spec: Self::base(query),
        }
    }

    /// The durable/wire shape of this spec: the scalar subset that an
    /// `Admit` WAL record (and the `oassis-net` `Submit` frame) carries.
    /// `token` is the client idempotency token, if any. The config's
    /// `mode` and `more_domain` are not carried, which is why a durable
    /// service refuses specs that set them.
    pub fn to_admit(&self, token: Option<u64>) -> AdmitSpec {
        AdmitSpec {
            query: self.query.clone(),
            threshold: self.threshold,
            roster: self.roster.clone(),
            priority: self.priority,
            budget: self.budget.map(|b| b as u64),
            seed: self.config.seed,
            aggregator_sample: self.config.aggregator_sample,
            specialization_ratio: self.config.specialization_ratio,
            pruning_ratio: self.config.pruning_ratio,
            max_questions: self.config.max_questions,
            top_k: self.config.top_k,
            token,
        }
    }

    /// The first config field that shapes the session's assignment space
    /// but that [`to_admit`](Self::to_admit) drops, if this spec sets one
    /// away from its default: `mode` or `more_domain`. A resumption
    /// rebuilt from the log would mine a different space, so a durable
    /// service refuses such a spec at admission.
    fn unlogged_field(&self) -> Option<&'static str> {
        if self.config.mode != MatchMode::default() {
            Some("mode")
        } else if !self.config.more_domain.is_empty() {
            Some("more_domain")
        } else {
            None
        }
    }

    /// Rebuild a spec from its durable/wire shape. Only the scalar config
    /// subset survives the trip; runtime-only config (sink, aggregator,
    /// curve tracking) is defaulted.
    pub fn from_admit(admit: AdmitSpec) -> SessionSpec {
        let mut config = EngineConfig::builder()
            .seed(admit.seed)
            .aggregator_sample(admit.aggregator_sample)
            .specialization_ratio(admit.specialization_ratio)
            .pruning_ratio(admit.pruning_ratio)
            .max_questions(admit.max_questions);
        if let Some(k) = admit.top_k {
            config = config.top_k(k);
        }
        SessionSpec {
            query: admit.query,
            threshold: admit.threshold,
            config: config.build(),
            roster: admit.roster,
            priority: admit.priority,
            budget: admit.budget.map(|b| b as usize),
        }
    }
}

/// Fluent builder for [`SessionSpec`] — see [`SessionSpec::builder`].
#[derive(Debug, Clone)]
pub struct SessionSpecBuilder {
    spec: SessionSpec,
}

impl SessionSpecBuilder {
    /// Override the query's own `WITH SUPPORT` threshold.
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.spec.threshold = Some(threshold);
        self
    }

    /// Engine configuration for the session.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.spec.config = config;
        self
    }

    /// Restrict the session to these pool seats.
    pub fn roster(mut self, seats: Vec<usize>) -> Self {
        self.spec.roster = Some(seats);
        self
    }

    /// Scheduling priority (higher goes first within a cycle).
    pub fn priority(mut self, priority: u8) -> Self {
        self.spec.priority = priority;
        self
    }

    /// Cap on crowd dispatches for the session.
    pub fn budget(mut self, budget: usize) -> Self {
        self.spec.budget = Some(budget);
        self
    }

    /// Finish building.
    pub fn build(self) -> SessionSpec {
        self.spec
    }
}

/// The outcome of one admitted session, returned by
/// [`OassisService::run`] in admission order.
#[derive(Debug)]
pub struct SessionReport {
    /// The session's id (as returned by [`OassisService::submit`]).
    pub id: SessionId,
    /// How the session ended.
    pub status: SessionStatus,
    /// The finalized query result (SELECT-form post-processing applied).
    pub result: QueryResult,
    /// Questions actually dispatched to the crowd for this session.
    pub crowd_questions: usize,
    /// Concrete questions served from the cross-query [`AnswerStore`]
    /// at dispatch time.
    pub store_hits: usize,
}

/// A question handed to the pool whose answer has not come back yet.
struct InFlight {
    /// The session-local question id to `absorb` with.
    session_q: QuestionId,
    /// The pool-side question id to match in `take_completed`.
    pool_q: QuestionId,
    /// The pool seat the question went to.
    pool_idx: usize,
    /// For concrete questions: what to log into the [`AnswerStore`] when
    /// the answer arrives.
    concrete: Option<(FactSet, MemberId)>,
}

/// One admitted session plus its scheduling state.
struct SessionSlot {
    id: SessionId,
    session: MiningSession,
    query: Query,
    space: Arc<AssignSpace>,
    /// Pool seat index per session seat (session seat `i` asks pool seat
    /// `roster[i]`).
    roster: Vec<usize>,
    priority: u8,
    budget: Option<usize>,
    crowd_questions: usize,
    store_hits: usize,
    in_flight: Option<InFlight>,
    /// Whether this session may participate in question waves: only
    /// sessions whose question mix is fully predictable (no RNG-driven
    /// specialization/pruning questions) can be speculated for.
    wave_eligible: bool,
    /// The pool seat this session's staged question is stalled on (busy
    /// with someone else's question). Wave staging never speculates onto
    /// a claimed seat, so a stalled session acquires it as soon as the
    /// current occupant drains — the starvation bound survives waves.
    stall_claim: Option<usize>,
    /// Pool seats this session last staged prefetches onto. Kept so wave
    /// top-up costs O(wave) — drained seats are retired by re-checking
    /// just these, never by scanning the (possibly 100k-member) roster.
    wave_seats: Vec<usize>,
    /// Whether this session's prediction inputs changed since the last
    /// staging attempt (an answer absorbed, a turn taken). Staging also
    /// re-runs when one of `wave_seats` drains; otherwise a repeat
    /// attempt would walk the assignment space only to re-derive the
    /// same (already staged or empty) candidates, and with a thousand
    /// sessions those no-op walks dwarf the crowd work being hidden.
    wave_dirty: bool,
    cancel_requested: bool,
    finished: Option<SessionStatus>,
    result: Option<QueryResult>,
    /// MSP answers confirmed since the last [`OassisService::take_partials`]
    /// call — the stream a networked front-end forwards to its client as
    /// the session mines.
    partials: Vec<QueryAnswer>,
}

impl SessionSlot {
    /// The report of a finished slot.
    fn into_report(self) -> SessionReport {
        SessionReport {
            id: self.id,
            status: self.finished.expect("only a finished slot reports"),
            result: self.result.expect("finalized with its status"),
            crowd_questions: self.crowd_questions,
            store_hits: self.store_hits,
        }
    }
}

/// An interrupted session reconstructed from the durability log by
/// [`OassisService::recover`]: admitted before the crash, never closed.
/// Pass it to [`OassisService::resume`] to re-admit it — the new session
/// is seeded from the recovered [`AnswerStore`], so it re-asks only the
/// questions whose answers were lost in flight.
#[derive(Debug, Clone)]
pub struct RecoveredSession {
    /// The session's id in the interrupted run (the resumption gets a
    /// fresh id; the log links them).
    pub original: SessionId,
    /// The re-admittable spec, rebuilt from the `Admit` record. The
    /// budget is the *original* grant; [`OassisService::resume`] deducts
    /// [`spent`](Self::spent). Runtime-only config (sink, aggregator,
    /// curve tracking) is reset to defaults — adjust before resuming if
    /// needed. The config's `mode` and `more_domain` are always their
    /// defaults: the log does not carry them, so a durable service refuses
    /// to admit a session that sets either.
    pub spec: SessionSpec,
    /// Crowd questions the interrupted run already dispatched (from the
    /// last `Budget` watermark; includes any question that was in flight
    /// when the process died, so budget accounting stays conservative).
    pub spent: usize,
    /// The client idempotency token the interrupted admission carried, if
    /// any; the resumption re-admits under the same token.
    pub token: Option<u64>,
}

/// The final outcome of a closed session: recorded when this service
/// closes it, or reconstructed from its `Close` WAL record by
/// [`OassisService::recover`] when it closed *before* a crash. A client
/// polling or resuming such a session is answered from this — its report
/// was final; nothing needs re-mining.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedOutcome {
    /// How the session ended.
    pub status: SessionStatus,
    /// Crowd dispatches it paid for.
    pub crowd_questions: usize,
    /// Concrete questions served from the answer store. Not persisted: 0
    /// when rebuilt from a `Close` record.
    pub store_hits: usize,
    /// Its final rendered valid MSPs.
    pub msps: Vec<String>,
}

/// Where a session id stands, as [`OassisService::state`] answers it. `id`
/// is always the last link of the asked id's resumption chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState<'a> {
    /// Mining in a slot of this service.
    Running {
        /// The chain's last link.
        id: SessionId,
        /// Crowd dispatches so far.
        crowd_questions: usize,
        /// Dispatch-time answer-store hits so far.
        store_hits: usize,
    },
    /// Closed, by this service or before a crash.
    Closed {
        /// The chain's last link.
        id: SessionId,
        /// Its final outcome.
        outcome: &'a ClosedOutcome,
    },
    /// Admitted before a crash and never closed:
    /// [`resume_by_id`](OassisService::resume_by_id) re-admits it.
    Interrupted {
        /// The chain's last link.
        id: SessionId,
    },
    /// Never admitted, as far as this service knows.
    Unknown,
}

/// The directory entry of a session that holds no live slot. A live
/// session has none: its slot is the source of truth.
enum Entry {
    /// Recovered from the log, awaiting a resumption. Boxed: every closed
    /// session keeps an entry, so the entry stays as small as a
    /// [`ClosedOutcome`].
    Interrupted(Box<RecoveredSession>),
    /// Closed with this outcome.
    Closed(ClosedOutcome),
    /// Resumed as this later session.
    Superseded(u64),
}

const _: () = assert!(std::mem::size_of::<Entry>() <= std::mem::size_of::<ClosedOutcome>());

/// Count `n` on `name` under the session's `s{id}` label. The label is
/// formatted only for an enabled sink: these counters fire per question.
fn count_for_session(sink: &Arc<dyn EventSink>, name: &str, session: SessionId, n: u64) {
    if sink.enabled() {
        sink.count_labeled(name, &format!("s{}", session.0), n);
    }
}

/// What [`AssignSpace::build_with_sink`] reads of an admission, and
/// nothing else: admissions with equal keys mine one space. The support
/// threshold, roster, priority, budget, aggregator and seed only classify
/// the space's nodes, so they are not part of the key.
#[derive(PartialEq, Eq, Hash)]
struct SpaceKey {
    /// The parsed query printed with its support, SELECT form and `ALL`
    /// flag cleared. Parsing the printed form gives the query back
    /// (`tests/ql_roundtrip.rs`), so equal text means an equal shape.
    shape: String,
    mode: MatchMode,
    more_domain: Vec<Fact>,
}

impl SpaceKey {
    fn new(query: &Query, config: &EngineConfig, ontology: &Ontology) -> Self {
        let mut shape = query.clone();
        shape.satisfying.support = 0.0;
        shape.select = SelectForm::FactSets;
        shape.all = false;
        SpaceKey {
            shape: shape.to_ql_string(ontology),
            mode: config.mode,
            more_domain: config.more_domain.clone(),
        }
    }
}

/// A session's view of the shared pool, restricted to its roster.
///
/// `gone` *blocks* (via [`Pool::sync`]) until the seat's member is home:
/// a seat busy with another session's question is waited out, never
/// mistaken for an exhausted member — that would end the waiting session's
/// round with false "no progress" and truncate its results.
struct PoolView<'p> {
    pool: &'p mut Pool,
    roster: &'p [usize],
}

impl CrowdView for PoolView<'_> {
    fn gone(&mut self, seat: usize) -> bool {
        let idx = self.roster[seat];
        self.pool.sync(idx);
        self.pool.excluded(idx)
    }

    fn willing(&mut self, seat: usize) -> bool {
        self.pool
            .member(self.roster[seat])
            .is_some_and(|m| m.willing())
    }

    fn can_answer(&mut self, seat: usize, fs: &FactSet) -> bool {
        self.pool
            .member(self.roster[seat])
            .is_some_and(|m| m.can_answer(fs))
    }
}

/// The multi-query OASSIS service: one crowd, many concurrent mining
/// sessions, cross-query answer reuse.
///
/// ```no_run
/// use oassis_core::{OassisService, SessionSpec, SessionRuntime};
/// use oassis_core::Oassis;
/// use oassis_store::ontology::figure1_ontology;
/// # let members = Vec::new();
///
/// let mut service = OassisService::start(
///     Oassis::new(figure1_ontology()),
///     SessionRuntime::new(members),
/// );
/// let q = "SELECT FACT-SETS WHERE $y subClassOf* Activity \
///          SATISFYING $y doAt <Central Park> WITH SUPPORT = 0.4";
/// service.submit(SessionSpec::builder(q).build()).unwrap();
/// service.submit(SessionSpec::builder(q).priority(5).build()).unwrap();
/// for report in service.run() {
///     println!("session {:?}: {} answers", report.id, report.result.answers.len());
/// }
/// ```
pub struct OassisService {
    engine: Oassis,
    pool: Pool,
    store: AnswerStore,
    sink: Arc<dyn EventSink>,
    slots: Vec<SessionSlot>,
    next_id: u64,
    cycle: u64,
    /// Per-session in-flight question target (1 = classic one-at-a-time
    /// dispatch; above 1 enables speculative question waves).
    wave_size: usize,
    /// Refcounted union of every live slot's `stall_claim`, so wave
    /// staging checks "is this seat claimed?" in O(1) instead of scanning
    /// all slots per staged seat. Counted because overlapping rosters let
    /// two sessions stall on the same seat.
    wave_claims: HashMap<usize, u32>,
    /// Durability log shared with the answer store (`None` = volatile).
    persistence: Option<SharedPersistence>,
    /// Every session that holds no live slot, by id: interrupted (awaiting
    /// a resumption), closed (by this incarnation or before a crash), or
    /// superseded by its resumption. [`state`](Self::state) follows the
    /// `Superseded` links, so any id of a resumption chain reaches the
    /// chain's last link.
    directory: BTreeMap<u64, Entry>,
    /// Client idempotency tokens → the latest session id admitted under
    /// each, rebuilt from `Admit` records on recovery.
    tokens: BTreeMap<u64, u64>,
    /// The assignment space of each query shape, for admissions of the
    /// same shape to share. Weak: a space lives while a slot's session
    /// holds it, so these follow the live sessions; dead entries are
    /// dropped when a new space is inserted.
    spaces: HashMap<SpaceKey, Weak<AssignSpace>>,
}

/// Checkpoint interval (appended records) used by
/// [`OassisService::recover`]'s default file-backed persistence.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 1024;

impl OassisService {
    /// Start a service over `runtime`'s crowd with a fresh answer store
    /// and the engine's default (null) sink.
    pub fn start(engine: Oassis, runtime: SessionRuntime) -> Self {
        Self::start_with_sink(engine, runtime, oassis_obs::null_sink())
    }

    /// Start a service reporting `service.*` events to `sink`.
    pub fn start_with_sink(
        engine: Oassis,
        runtime: SessionRuntime,
        sink: Arc<dyn EventSink>,
    ) -> Self {
        let pool = Pool::start(runtime, Arc::clone(&sink));
        OassisService {
            engine,
            pool,
            store: AnswerStore::new().with_sink(Arc::clone(&sink)),
            sink,
            slots: Vec::new(),
            next_id: 0,
            cycle: 0,
            wave_size: 1,
            wave_claims: HashMap::new(),
            persistence: None,
            directory: BTreeMap::new(),
            tokens: BTreeMap::new(),
            spaces: HashMap::new(),
        }
    }

    /// Set the per-session wave size (clamped to ≥ 1): how many questions
    /// each session keeps in flight per cycle — one committed dispatch
    /// plus up to `n - 1` speculative prefetches fanned out across the
    /// pool's shards. 1 (the default) restores strict one-at-a-time
    /// dispatch. See the module docs for the determinism contract.
    pub fn set_wave_size(&mut self, n: usize) {
        self.wave_size = n.max(1);
    }

    /// Builder-style [`set_wave_size`](Self::set_wave_size).
    pub fn with_wave_size(mut self, n: usize) -> Self {
        self.set_wave_size(n);
        self
    }

    /// The configured wave size.
    pub fn wave_size(&self) -> usize {
        self.wave_size
    }

    /// Start a *durable* service: every committed crowd answer, session
    /// admission, budget spend and session close is appended to
    /// `persistence`, and the log is checkpointed at the persistence's
    /// configured interval. Use
    /// [`recover_with`](Self::recover_with) on the same persistence after
    /// a restart.
    pub fn start_with_persistence(
        engine: Oassis,
        runtime: SessionRuntime,
        sink: Arc<dyn EventSink>,
        persistence: SharedPersistence,
    ) -> Self {
        let mut service = Self::start_with_sink(engine, runtime, sink);
        service.store = AnswerStore::new()
            .with_sink(Arc::clone(&service.sink))
            .with_persistence(Arc::clone(&persistence));
        service.persistence = Some(persistence);
        service
    }

    /// Recover a durable service from the file-backed log under `dir`
    /// (see [`FileBacked`]): replay the WAL, rebuild the answer store, and
    /// return the service plus every interrupted session as a
    /// re-admittable [`RecoveredSession`] (in admission order) —
    /// [`resume`](Self::resume) each to continue it. Opening a fresh
    /// directory yields an empty durable service, so this is also the
    /// normal way to *start* a file-backed service.
    pub fn recover(
        engine: Oassis,
        runtime: SessionRuntime,
        dir: impl Into<PathBuf>,
    ) -> Result<(Self, Vec<RecoveredSession>), OassisError> {
        let file = FileBacked::open(dir)?.with_snapshot_every(DEFAULT_SNAPSHOT_EVERY);
        Self::recover_with(engine, runtime, oassis_obs::null_sink(), shared(file))
    }

    /// [`recover`](Self::recover) over any [`Persistence`] (and sink):
    /// replays `persistence` into a fresh service. The persistence stays
    /// attached — the recovered service keeps appending to the same log.
    pub fn recover_with(
        engine: Oassis,
        runtime: SessionRuntime,
        sink: Arc<dyn EventSink>,
        persistence: SharedPersistence,
    ) -> Result<(Self, Vec<RecoveredSession>), OassisError> {
        let records = persistence.lock().expect("persistence poisoned").replay()?;
        let mut service = Self::start_with_sink(engine, runtime, sink);

        // Rebuild the answer store from the log *before* attaching the
        // persistence, so replay does not re-append what is already there.
        let mut store = AnswerStore::new().with_sink(Arc::clone(&service.sink));
        store.replay_records(&records);
        service.store = store.with_persistence(Arc::clone(&persistence));
        service.persistence = Some(persistence);

        // Fold the log into the directory: an admission is interrupted
        // until its `Close`, or until a later admission resumes it.
        for record in &records {
            match record {
                WalRecord::Admit {
                    session,
                    resumes,
                    spec,
                } => {
                    if let Some(old) = resumes {
                        service.directory.insert(*old, Entry::Superseded(*session));
                    }
                    if let Some(token) = spec.token {
                        service.tokens.insert(token, *session);
                    }
                    let recovered = RecoveredSession {
                        original: SessionId(*session),
                        spec: SessionSpec::from_admit(spec.clone()),
                        spent: 0,
                        token: spec.token,
                    };
                    service
                        .directory
                        .insert(*session, Entry::Interrupted(Box::new(recovered)));
                }
                WalRecord::Budget { session, spent } => {
                    if let Some(Entry::Interrupted(recovered)) = service.directory.get_mut(session)
                    {
                        recovered.spent = *spent as usize;
                    }
                }
                WalRecord::Close {
                    session,
                    status,
                    crowd_questions,
                    msps,
                } => {
                    let outcome = ClosedOutcome {
                        status: *status,
                        crowd_questions: *crowd_questions as usize,
                        store_hits: 0,
                        msps: msps.clone(),
                    };
                    service.directory.insert(*session, Entry::Closed(outcome));
                }
                WalRecord::Answer { .. } => {}
            }
        }
        service.next_id = service.directory.keys().next_back().map_or(0, |id| id + 1);
        let recovered = service
            .directory
            .values()
            .filter_map(|entry| match entry {
                Entry::Interrupted(recovered) => Some(RecoveredSession::clone(recovered)),
                _ => None,
            })
            .collect();
        Ok((service, recovered))
    }

    /// Re-admit an interrupted session recovered by
    /// [`recover`](Self::recover). The resumption gets a fresh id, is
    /// seeded from the recovered answer store (so paid-for answers are
    /// not re-asked), has any already-spent budget deducted, and is
    /// logged as superseding the original — a second crash recovers the
    /// resumption, not both.
    pub fn resume(&mut self, recovered: RecoveredSession) -> Result<SessionId, OassisError> {
        let RecoveredSession {
            original,
            mut spec,
            spent,
            token,
        } = recovered;
        spec.budget = spec.budget.map(|b| b.saturating_sub(spent));
        self.admit(spec, Some(original), token)
    }

    /// [`resume`](Self::resume) by any id of a resumption chain — how a
    /// networked client resumes after a server restart. Decided on the
    /// chain's [`state`](Self::state): a running or closed last link
    /// returns its id (a closed outcome is final; nothing is re-mined), an
    /// interrupted one is re-admitted (and stays interrupted if the
    /// admission is refused), and an unknown id errors. So retransmits are
    /// idempotent, and a chain stays resumable across any number of
    /// restarts.
    pub fn resume_by_id(&mut self, id: SessionId) -> Result<SessionId, OassisError> {
        match self.state(id) {
            SessionState::Running { id, .. } | SessionState::Closed { id, .. } => Ok(id),
            // A re-admission replaces the entry with its `Superseded`
            // link; a refused one leaves the session interrupted.
            SessionState::Interrupted { id } => match self.directory.get(&id.0) {
                Some(Entry::Interrupted(recovered)) => {
                    self.resume(RecoveredSession::clone(recovered))
                }
                _ => unreachable!("state reads the directory"),
            },
            SessionState::Unknown => Err(OassisError::Session(format!("unknown session {}", id.0))),
        }
    }

    /// Where `id` stands, resolved to the last link of its resumption
    /// chain. A closed entry answers before the slot: a finished session
    /// whose report was not taken yet is `Closed`.
    pub fn state(&self, id: SessionId) -> SessionState<'_> {
        let id = self.last_link(id);
        match self.directory.get(&id.0) {
            Some(Entry::Closed(outcome)) => SessionState::Closed { id, outcome },
            Some(Entry::Interrupted(_)) => SessionState::Interrupted { id },
            _ => match self.slots.iter().find(|s| s.id == id) {
                Some(slot) => SessionState::Running {
                    id,
                    crowd_questions: slot.crowd_questions,
                    store_hits: slot.store_hits,
                },
                None => SessionState::Unknown,
            },
        }
    }

    /// The last link of `id`'s resumption chain. A resumption is admitted
    /// after the session it supersedes, so the links climb and the walk
    /// ends.
    fn last_link(&self, mut id: SessionId) -> SessionId {
        while let Some(Entry::Superseded(next)) = self.directory.get(&id.0) {
            id = SessionId(*next);
        }
        id
    }

    /// The latest session admitted under client idempotency token `token`
    /// (live, interrupted, or closed) — how the networked front-end dedupes
    /// a retransmitted `Submit` across reconnects and restarts.
    pub fn session_for_token(&self, token: u64) -> Option<SessionId> {
        self.tokens.get(&token).map(|&id| SessionId(id))
    }

    /// Number of crowd seats in the shared pool.
    pub fn crowd_len(&self) -> usize {
        self.pool.len()
    }

    /// The cross-query answer store. Its durable encoding is the WAL's
    /// `Answer` records ([`AnswerStore::to_records`]); a recovered store's
    /// [`cache`](AnswerStore::cache) feeds [`Oassis::replay`] (§6.3).
    pub fn store(&self) -> &AnswerStore {
        &self.store
    }

    /// Number of admitted, not-yet-reported sessions.
    pub fn active_sessions(&self) -> usize {
        self.slots.iter().filter(|s| s.finished.is_none()).count()
    }

    /// Admit a session: parse the query, take its space from a live
    /// session of the same shape or build it, seed its cache from the
    /// answer store. The session does no crowd work until
    /// [`run`](Self::run).
    pub fn submit(&mut self, spec: SessionSpec) -> Result<SessionId, OassisError> {
        self.admit(spec, None, None)
    }

    /// [`submit`](Self::submit) with a client idempotency token: the token
    /// is written into the durable `Admit` record, so a retransmitted
    /// `Submit` — on a new connection, or after a server crash — maps back
    /// to this admission via [`session_for_token`](Self::session_for_token)
    /// instead of admitting a duplicate.
    pub fn submit_with_token(
        &mut self,
        spec: SessionSpec,
        token: u64,
    ) -> Result<SessionId, OassisError> {
        self.admit(spec, None, Some(token))
    }

    /// Run `query` at `threshold` as the only session of this fresh,
    /// volatile service and return its finalized result — how
    /// [`Oassis::execute`](super::Oassis::execute) runs one query. The
    /// session's questions count under `algo.questions[multiuser]`. Fails
    /// with [`RuntimeErrorKind::CrowdExhausted`] when the runtime excluded
    /// every member.
    pub(crate) fn run_solo(
        &mut self,
        query: Query,
        threshold: f64,
        config: &EngineConfig,
    ) -> Result<QueryResult, OassisError> {
        debug_assert!(self.persistence.is_none() && self.slots.is_empty());
        let mut spec = SessionSpec::base(String::new());
        spec.threshold = Some(threshold);
        spec.config = config.clone();
        self.admit_parsed(query, spec, None, None, "multiuser".to_string())?;
        let report = self.run().pop().expect("the admitted session reports");
        let excluded = self.pool.excluded_count();
        if excluded > 0 && self.pool.all_excluded() {
            let mut err = RuntimeError::new(RuntimeErrorKind::CrowdExhausted { excluded });
            if let Some(cause) = self.pool.take_last_error() {
                err = err.with_source(Box::new(cause));
            }
            return Err(OassisError::Runtime(err));
        }
        Ok(report.result)
    }

    /// Shut the crowd down and hand its members back in seat order.
    pub(crate) fn into_members(mut self) -> Vec<Box<dyn CrowdMember>> {
        self.pool.take_members()
    }

    /// The shared admission path behind [`submit`](Self::submit) and
    /// [`resume`](Self::resume); `resumes` carries the superseded
    /// session's id into the durable `Admit` record, `token` the client's
    /// idempotency token.
    fn admit(
        &mut self,
        spec: SessionSpec,
        resumes: Option<SessionId>,
        token: Option<u64>,
    ) -> Result<SessionId, OassisError> {
        let query = self.engine.parse(&spec.query)?;
        let algo = format!("multiuser.s{}", self.next_id);
        self.admit_parsed(query, spec, resumes, token, algo)
    }

    /// [`admit`](Self::admit) of an already parsed `query` (`spec.query`
    /// is then only its durable source); `algo` labels the session's
    /// `algo.questions` counter.
    fn admit_parsed(
        &mut self,
        query: Query,
        spec: SessionSpec,
        resumes: Option<SessionId>,
        token: Option<u64>,
        algo: String,
    ) -> Result<SessionId, OassisError> {
        if self.persistence.is_some() {
            if let Some(field) = spec.unlogged_field() {
                return Err(OassisError::Session(format!(
                    "a durable service cannot admit a session that sets `{field}`: \
                     its Admit record does not carry it, so a resumed session \
                     would mine a different assignment space"
                )));
            }
        }
        // Capture the durable shape of the spec before its pieces are
        // moved out below (only when a log is attached).
        let admit_spec = self.persistence.as_ref().map(|_| spec.to_admit(token));
        let threshold = spec.threshold.unwrap_or(query.satisfying.support);
        // Waves predict concrete questions only; a session that may draw
        // RNG-driven specialization/pruning questions cannot be speculated
        // for without diverging from the one-at-a-time path.
        let wave_eligible =
            spec.config.specialization_ratio == 0.0 && spec.config.pruning_ratio == 0.0;
        let config = Arc::new(spec.config);
        let space = self.space_for(&query, &config)?;
        let roster = match spec.roster {
            Some(roster) => {
                for &idx in &roster {
                    if idx >= self.pool.len() {
                        return Err(OassisError::Query(oassis_ql::QlError::Invalid(format!(
                            "roster seat {idx} out of range (crowd has {} members)",
                            self.pool.len()
                        ))));
                    }
                }
                roster
            }
            None => (0..self.pool.len()).collect(),
        };
        let member_ids: Vec<MemberId> = roster.iter().map(|&i| self.pool.member_id(i)).collect();
        let id = SessionId(self.next_id);
        self.next_id += 1;
        let mut session = MiningSession::labeled(
            Arc::clone(&space),
            threshold,
            config,
            member_ids.clone(),
            algo,
        );
        let seeded = session.seed_answers(&self.store.seed_for(&member_ids));
        if seeded > 0 {
            self.sink
                .count_labeled(names::ANSWERSTORE_HIT, "seed", seeded as u64);
        }
        if let Some(admit) = admit_spec {
            self.append_wal(&WalRecord::Admit {
                session: id.0,
                resumes: resumes.map(|s| s.0),
                spec: admit,
            });
        }
        self.slots.push(SessionSlot {
            id,
            session,
            query,
            space,
            roster,
            priority: spec.priority,
            budget: spec.budget,
            crowd_questions: 0,
            store_hits: 0,
            in_flight: None,
            wave_eligible,
            stall_claim: None,
            wave_seats: Vec::new(),
            wave_dirty: true,
            cancel_requested: false,
            finished: None,
            result: None,
            partials: Vec::new(),
        });
        if let Some(token) = token {
            self.tokens.insert(token, id.0);
        }
        // Link the resumption immediately (not only on WAL replay): a
        // client that loses its connection right after resuming retries
        // `Resume(original)` and must land on the successor.
        if let Some(original) = resumes {
            self.directory.insert(original.0, Entry::Superseded(id.0));
        }
        self.sink.gauge(
            names::SERVICE_SESSIONS_ACTIVE,
            self.active_sessions() as f64,
        );
        self.maybe_snapshot();
        Ok(id)
    }

    /// The assignment space for `query` under `config`: the one a live
    /// session of the same shape mines ([`SpaceKey`]), or a new one.
    /// Sessions sharing a space also share its successor memo.
    fn space_for(
        &mut self,
        query: &Query,
        config: &EngineConfig,
    ) -> Result<Arc<AssignSpace>, OassisError> {
        let key = SpaceKey::new(query, config, self.engine.ontology());
        if let Some(space) = self.spaces.get(&key).and_then(Weak::upgrade) {
            self.sink.count_labeled(names::SERVICE_SPACE, "reused", 1);
            return Ok(space);
        }
        let space = Arc::new(self.engine.space(query, config)?);
        self.spaces.retain(|_, space| space.strong_count() > 0);
        self.spaces.insert(key, Arc::downgrade(&space));
        self.sink.count_labeled(names::SERVICE_SPACE, "built", 1);
        Ok(space)
    }

    /// Request cancellation of `id`, or of the last link of its
    /// resumption chain. Takes effect at the session's next scheduling
    /// slot (after any in-flight answer is routed back); its report
    /// carries [`SessionStatus::Cancelled`] and the partial result.
    /// Returns whether that session was still live.
    pub fn cancel(&mut self, id: SessionId) -> bool {
        let id = self.last_link(id);
        match self
            .slots
            .iter_mut()
            .find(|s| s.id == id && s.finished.is_none())
        {
            Some(slot) => {
                slot.cancel_requested = true;
                true
            }
            None => false,
        }
    }

    /// Drive every admitted session to an end state and return their
    /// reports in admission order. Each scheduling cycle visits live
    /// sessions in priority order (ties rotate round-robin) and gives each
    /// at most one crowd dispatch; store-served answers and question-free
    /// turns are processed inline.
    pub fn run(&mut self) -> Vec<SessionReport> {
        while self.run_cycle() {}
        self.slots.drain(..).map(SessionSlot::into_report).collect()
    }

    /// Drive **one** scheduling cycle and return whether any session is
    /// still live (i.e. another cycle would make progress). This is the
    /// incremental form of [`run`](Self::run), for drivers that interleave
    /// mining with other work — the `oassis-net` server pumps one cycle
    /// between protocol reads, streaming
    /// [`take_partials`](Self::take_partials) and serving
    /// [`take_report`](Self::take_report) as sessions finish.
    pub fn run_cycle(&mut self) -> bool {
        if self.active_sessions() == 0 {
            return false;
        }
        self.route_completed();
        let order = self.cycle_order();
        let mut any_inflight = false;
        for i in order {
            self.route_completed();
            if self.slots[i].finished.is_some() {
                continue;
            }
            if self.slots[i].cancel_requested && self.slots[i].in_flight.is_none() {
                self.finalize_slot(i, SessionStatus::Cancelled);
                continue;
            }
            if self.slots[i].in_flight.is_some() {
                // Waiting on the crowd; top the wave back up and
                // revisit once the answer lands.
                self.stage_wave(i);
                any_inflight = true;
                continue;
            }
            if self.pump_slot(i) {
                // Pumping advanced the session's state machine, so
                // its predictions may have changed.
                self.slots[i].wave_dirty = true;
                self.stage_wave(i);
                any_inflight = true;
            }
        }
        // Every live session is either finished or waiting on the
        // crowd: block for one answer so the next cycle can progress.
        if any_inflight && self.pool.pump_one() {
            self.route_completed();
        }
        self.cycle += 1;
        self.maybe_snapshot();
        self.active_sessions() > 0
    }

    /// MSP answers confirmed for `id`, or for the last link of its
    /// resumption chain, since the last call — the stream a networked
    /// front-end forwards to its client as the session mines. Empty for
    /// unknown (or already-reported) sessions.
    pub fn take_partials(&mut self, id: SessionId) -> Vec<QueryAnswer> {
        let id = self.last_link(id);
        match self.slots.iter_mut().find(|s| s.id == id) {
            Some(slot) => std::mem::take(&mut slot.partials),
            None => Vec::new(),
        }
    }

    /// Remove a *finished* session's slot and return its report — `None`
    /// while it is still live (or unknown, or already taken).
    /// [`run`](Self::run) drains reports in admission order; a networked
    /// front-end takes them per session as clients poll.
    pub fn take_report(&mut self, id: SessionId) -> Option<SessionReport> {
        let i = self
            .slots
            .iter()
            .position(|s| s.id == id && s.finished.is_some())?;
        Some(self.slots.remove(i).into_report())
    }

    /// Live slot indices for this cycle: priority descending, equal
    /// priorities rotated by cycle number for round-robin fairness.
    fn cycle_order(&self) -> Vec<usize> {
        let mut live: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].finished.is_none())
            .collect();
        live.sort_by_key(|&i| std::cmp::Reverse(self.slots[i].priority));
        let rot = self.cycle as usize;
        let mut ordered = Vec::with_capacity(live.len());
        let mut j = 0;
        while j < live.len() {
            let p = self.slots[live[j]].priority;
            let mut k = j;
            while k < live.len() && self.slots[live[k]].priority == p {
                k += 1;
            }
            let group = &live[j..k];
            for t in 0..group.len() {
                ordered.push(group[(t + rot) % group.len()]);
            }
            j = k;
        }
        ordered
    }

    /// Advance slot `i` until it finishes, dispatches one crowd question,
    /// or exhausts its budget. Returns whether it now has a question in
    /// flight.
    fn pump_slot(&mut self, i: usize) -> bool {
        loop {
            let event = {
                let Self { pool, slots, .. } = self;
                let SessionSlot {
                    session, roster, ..
                } = &mut slots[i];
                let mut view = PoolView { pool, roster };
                session.poll(&mut view)
            };
            match event {
                SessionEvent::Finished => {
                    self.finalize_slot(i, SessionStatus::Completed);
                    return false;
                }
                SessionEvent::TurnEnded { .. } => {
                    // Buffer freshly confirmed MSPs for streaming delivery
                    // ([`take_partials`](Self::take_partials)); the final
                    // report still carries the complete result.
                    let fresh = self.slots[i].session.take_new_answers();
                    self.slots[i].partials.extend(fresh);
                }
                SessionEvent::Ask(q) => {
                    // `gone()`'s sync may have absorbed other sessions'
                    // answers while this one was polling.
                    self.route_completed();
                    match self.handle_ask(i, q) {
                        AskFlow::Served => {}
                        AskFlow::Dispatched => return true,
                        AskFlow::Stalled => return true,
                        AskFlow::Finished => return false,
                    }
                }
            }
        }
    }

    /// Record slot `i` stalling on pool seat `idx` (see
    /// [`SessionSlot::stall_claim`]).
    fn claim_seat(&mut self, i: usize, idx: usize) {
        self.release_claim(i);
        self.slots[i].stall_claim = Some(idx);
        *self.wave_claims.entry(idx).or_insert(0) += 1;
    }

    /// Drop slot `i`'s stall claim, if any.
    fn release_claim(&mut self, i: usize) {
        if let Some(idx) = self.slots[i].stall_claim.take() {
            if let Some(n) = self.wave_claims.get_mut(&idx) {
                *n -= 1;
                if *n == 0 {
                    self.wave_claims.remove(&idx);
                }
            }
        }
    }

    /// Top up slot `i`'s question wave: while the session has fewer than
    /// `wave_size` questions outstanding (its committed dispatch plus
    /// speculative prefetches on its roster seats), predict its next
    /// concrete questions and dispatch them speculatively. Seats claimed
    /// by a stalled committed question are never speculated onto — the
    /// stalled session gets the seat as soon as its occupant drains, so
    /// waves cannot starve committed work.
    fn stage_wave(&mut self, i: usize) {
        let wave_size = self.wave_size;
        if wave_size <= 1
            || !self.slots[i].wave_eligible
            || self.slots[i].finished.is_some()
            || self.slots[i].cancel_requested
        {
            return;
        }
        // Both callers in `run_cycle` come straight from `route_completed`
        // with no response absorbed since, so every prefetched answer that
        // has arrived is already in the store that prediction consults.
        let Self {
            pool,
            store,
            slots,
            sink,
            wave_claims,
            ..
        } = self;
        let slot = &mut slots[i];
        // Retire drained prefetches by re-checking only the seats we
        // staged — O(wave), independent of roster size. A seat another
        // session re-speculated onto stays counted as ours; that only
        // under-stages, never over-fills the wave.
        let staged_before = slot.wave_seats.len();
        slot.wave_seats.retain(|&idx| pool.pending_speculative(idx));
        let drained = slot.wave_seats.len() != staged_before;
        if !slot.wave_dirty && !drained {
            return;
        }
        let mut outstanding = usize::from(slot.in_flight.is_some()) + slot.wave_seats.len();
        if outstanding >= wave_size {
            return;
        }
        slot.wave_dirty = false;
        // Workers never check a prefetch against the border: sessions mine
        // different query spaces. Staleness is bounded instead by
        // `predict_questions` dropping every answer the session or the
        // store already holds at stage time; the pool counts the leftovers
        // as wasted speculation on shutdown.
        //
        // Only the seats the session's round-robin scheduler visits next
        // are predicted for — a prediction costs a walk of the assignment
        // space, and on 100k-member rosters predicting for every seat per
        // cycle would dwarf the crowd work being hidden.
        for seat in slot.session.upcoming_seats(wave_size) {
            if outstanding >= wave_size {
                break;
            }
            let idx = slot.roster[seat];
            if wave_claims.contains_key(&idx) || !pool.idle(idx) {
                continue;
            }
            let candidates = match pool.member(idx).filter(|m| m.willing()) {
                Some(member) => slot.session.predict_questions(seat, store, member),
                None => continue,
            };
            if candidates.is_empty() {
                // Predictions are nearly member-independent; once one seat
                // has nothing left to prefetch the rest of the rotation
                // won't either — stop paying for space walks this cycle.
                break;
            }
            let staged = candidates.len() as u64;
            pool.speculate(idx, candidates);
            slot.wave_seats.push(idx);
            count_for_session(sink, names::WAVE_STAGED, slot.id, staged);
            outstanding += 1;
        }
    }

    /// Resolve one staged question: serve from the store, absorb an
    /// exclusion, serve a wave-prefetched answer, or dispatch to the
    /// crowd.
    fn handle_ask(&mut self, i: usize, q: PendingQuestion) -> AskFlow {
        let pool_idx = self.slots[i].roster[q.seat];
        self.release_claim(i);
        // Dispatch-time reuse: a concrete question another query already
        // answered is served from the store without any crowd traffic.
        if let QuestionPayload::Concrete { factset, .. } = &q.payload {
            if let Some(s) = self.store.lookup(factset, q.member) {
                self.slots[i].store_hits += 1;
                self.slots[i].session.absorb(q.id, Answer::Support(s));
                return AskFlow::Served;
            }
        }
        if self.pool.excluded(pool_idx) {
            self.slots[i].session.absorb(q.id, Answer::Unavailable);
            return AskFlow::Served;
        }
        if let Some(b) = self.slots[i].budget {
            if self.slots[i].crowd_questions >= b {
                self.finalize_slot(i, SessionStatus::BudgetExhausted);
                return AskFlow::Finished;
            }
        }
        // Wave reuse: a prefetch already paid the crowd for this answer.
        // Account it exactly like a dispatch + immediate response — the
        // budget check above, the question count, the spend watermark and
        // the dispatched/resolved events all match the one-at-a-time
        // path, which is the wave determinism contract. Committing it
        // makes the store's unpaid answer a paid one, logged for this
        // session.
        if let QuestionPayload::Concrete { factset, .. } = &q.payload {
            let session = self.slots[i].id.0;
            if let Some(s) = self.store.commit_prefetch(factset, q.member, Some(session)) {
                let slot = &mut self.slots[i];
                slot.crowd_questions += 1;
                let spend_mark = slot.budget.map(|_| slot.crowd_questions as u64);
                self.pool.note_speculation_hit();
                if self.sink.enabled() {
                    let label = format!("s{session}");
                    self.sink
                        .count_labeled(names::SERVICE_QUESTION_DISPATCHED, &label, 1);
                    self.sink
                        .count_labeled(names::SERVICE_QUESTION_RESOLVED, &label, 1);
                    self.sink.count_labeled(names::WAVE_HIT, &label, 1);
                }
                if let Some(spent) = spend_mark {
                    self.append_wal(&WalRecord::Budget { session, spent });
                }
                self.slots[i].session.absorb(q.id, Answer::Support(s));
                return AskFlow::Served;
            }
        }
        let payload = match &q.payload {
            QuestionPayload::Concrete { factset, .. } => AskPayload::Concrete {
                factset: factset.clone(),
            },
            QuestionPayload::Specialization { base, candidates } => AskPayload::Specialization {
                base: base.clone(),
                candidates: candidates.clone(),
            },
            QuestionPayload::Pruning { factset } => AskPayload::Pruning {
                factset: factset.clone(),
            },
        };
        match self.pool.dispatch_committed(pool_idx, payload) {
            None => {
                // The seat is busy with another question; the staged
                // question is re-offered next cycle. Claim the seat so
                // wave staging cannot re-occupy it, and make the waste
                // visible.
                self.claim_seat(i, pool_idx);
                count_for_session(
                    &self.sink,
                    names::SERVICE_DISPATCH_STALLED,
                    self.slots[i].id,
                    1,
                );
                AskFlow::Stalled
            }
            Some(pool_q) => {
                let concrete = match &q.payload {
                    QuestionPayload::Concrete { factset, .. } => Some((factset.clone(), q.member)),
                    _ => None,
                };
                let slot = &mut self.slots[i];
                slot.in_flight = Some(InFlight {
                    session_q: q.id,
                    pool_q,
                    pool_idx,
                    concrete,
                });
                slot.crowd_questions += 1;
                let session = slot.id.0;
                // Budgeted sessions log a spend watermark per dispatch, so
                // recovery deducts everything paid for (or lost in flight).
                let spend_mark = slot.budget.map(|_| slot.crowd_questions as u64);
                count_for_session(
                    &self.sink,
                    names::SERVICE_QUESTION_DISPATCHED,
                    SessionId(session),
                    1,
                );
                if let Some(spent) = spend_mark {
                    self.append_wal(&WalRecord::Budget { session, spent });
                }
                AskFlow::Dispatched
            }
        }
    }

    /// Hold every prefetched answer the pool handed over as unpaid in the
    /// store, and route every committed answer to the session that asked
    /// it.
    fn route_completed(&mut self) {
        for (pool_q, pool_idx, value) in self.pool.take_completed() {
            if let Some(AskValue::Prefetched(answers)) = &value {
                let member = self.pool.member_id(pool_idx);
                for (fs, s) in answers {
                    self.store.record_prefetch(fs, member, *s);
                }
                continue;
            }
            let Some(i) = self.slots.iter().position(|s| {
                s.in_flight
                    .as_ref()
                    .is_some_and(|f| f.pool_q == pool_q && f.pool_idx == pool_idx)
            }) else {
                // A response for a question whose session already ended
                // (e.g. cancelled mid-flight after exclusion); drop it.
                continue;
            };
            let inflight = self.slots[i].in_flight.take().expect("matched just above");
            let answer = match value {
                None => Answer::Unavailable,
                Some(AskValue::Support(s)) => Answer::Support(s),
                Some(AskValue::Choice(c)) => Answer::Choice(c),
                Some(AskValue::Irrelevant(elems)) => Answer::Irrelevant(elems),
                Some(AskValue::Prefetched(_)) => unreachable!("held in the store above"),
            };
            if let (Some((fs, member)), Answer::Support(s)) = (&inflight.concrete, &answer) {
                // Log committed concrete answers immediately so sessions
                // later in the same cycle can already reuse them. The
                // durable record is attributed to the paying session.
                self.store
                    .record_tagged(fs, *member, *s, Some(self.slots[i].id.0));
            }
            count_for_session(
                &self.sink,
                names::SERVICE_QUESTION_RESOLVED,
                self.slots[i].id,
                1,
            );
            self.slots[i].session.absorb(inflight.session_q, answer);
            self.slots[i].wave_dirty = true;
        }
    }

    /// End slot `i` with `status`: close its session, store the answers
    /// only the session knew, finalize the result for the query's SELECT
    /// form. Every other answer in the session's cache reached the store
    /// when it was seeded, served or routed.
    fn finalize_slot(&mut self, i: usize, status: SessionStatus) {
        self.release_claim(i);
        let fresh = self.slots[i].session.take_new_answers();
        self.slots[i].partials.extend(fresh);
        let session = self.slots[i].id.0;
        for (fs, member, s) in self.slots[i].session.take_session_answers() {
            self.store.record_tagged(&fs, member, s, Some(session));
        }
        let result = self.slots[i].session.finish();
        let result = self
            .engine
            .finalize(result, &self.slots[i].query, &self.slots[i].space);
        // The durable Close record carries the final valid MSPs (sorted for
        // a canonical encoding), so a post-crash `Resume` of this session
        // is answered from the log without re-mining.
        let mut msps: Vec<String> = result
            .answers
            .iter()
            .filter(|a| a.valid)
            .map(|a| a.rendered.clone())
            .collect();
        msps.sort();
        // The outcome is kept for the service's lifetime: drop the slack
        // capacity `collect` left.
        msps.shrink_to_fit();
        self.slots[i].result = Some(result);
        self.slots[i].finished = Some(status);
        let outcome = ClosedOutcome {
            status,
            crowd_questions: self.slots[i].crowd_questions,
            store_hits: self.slots[i].store_hits,
            msps,
        };
        if self.persistence.is_some() {
            self.append_wal(&WalRecord::Close {
                session,
                status,
                crowd_questions: outcome.crowd_questions as u64,
                msps: outcome.msps.clone(),
            });
        }
        self.directory.insert(session, Entry::Closed(outcome));
        self.sink.gauge(
            names::SERVICE_SESSIONS_ACTIVE,
            self.active_sessions() as f64,
        );
    }

    /// Append one record to the durability log (no-op when volatile).
    fn append_wal(&self, record: &WalRecord) {
        if let Some(p) = &self.persistence {
            p.lock()
                .expect("persistence poisoned")
                .append(record)
                .expect("wal append failed");
        }
    }

    /// Checkpoint the log when the tail has outgrown the persistence's
    /// interval. Every state change is appended as it happens and the log
    /// drops nothing (recovery takes each session's latest `Budget`
    /// watermark), so the checkpoint is handed no records: its cost
    /// follows the records since the last one, not the answer store.
    fn maybe_snapshot(&mut self) {
        let Some(p) = &self.persistence else {
            return;
        };
        let mut p = p.lock().expect("persistence poisoned");
        if p.wants_snapshot() {
            p.snapshot(&[]).expect("snapshot failed");
        }
    }
}

/// What `handle_ask` did with a staged question.
enum AskFlow {
    /// Answered inline (store hit or exclusion); keep pumping the session.
    Served,
    /// Dispatched to the crowd; the session waits for the answer.
    Dispatched,
    /// The seat was busy; the question stays staged for the next cycle.
    Stalled,
    /// The slot was finalized (budget exhausted).
    Finished,
}
