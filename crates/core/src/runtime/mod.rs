//! The concurrent crowd-session runtime (worker-pool dispatcher).
//!
//! The paper's multi-user algorithm (§4.2) *emulates* parallel sessions
//! with a round-robin loop; this module makes the sessions actually
//! concurrent while keeping the algorithm's answer set bit-identical. The
//! design splits the engine into:
//!
//! * a **coordinator** (the caller's thread) that runs the *exact*
//!   sequential commit loop — every answer is applied to the border, cache
//!   and statistics in the same order as the synchronous engine, which is
//!   the deterministic-merge rule: a concurrent run with seed S produces
//!   the same answer set as a sequential run with seed S;
//! * an [`Executor`] that carries the actual crowd round-trips (simulated
//!   answer latency, drops, timeouts, retries). Questions travel to the
//!   executor as [`AskRequest`]s tagged with explicit [`QuestionId`]s; each
//!   request checks the member out of its slot and the response checks it
//!   back in, so a member is owned by exactly one execution context at a
//!   time.
//!
//! Three executors implement that contract:
//!
//! * the production `ThreadedExecutor` — a pool of worker threads racing
//!   real time through a [`SystemClock`];
//! * the deterministic [`sim::SimExecutor`] — a single-threaded step
//!   scheduler over a [`VirtualClock`] that owns every interleaving
//!   decision and replays bit-identically from one `u64` seed (select it
//!   with [`SessionRuntime::simulated`]);
//! * the `InlineExecutor` — the member-slice path of
//!   [`Oassis::execute`](crate::Oassis::execute): each request is served
//!   on the caller's thread, in submission order, with no timeout.
//!
//! Wall-clock speedup comes from **speculative prefetch**: while other
//! members take their committed turns, the service's question waves
//! predict each idle member's next questions and dispatch them
//! speculatively. Answers land in a lock-striped [`SharedCrowdCache`];
//! when the commit loop reaches such a question it consumes the prefetched
//! answer without waiting. Prefetches the commit loop never consumes are
//! counted as wasted when the pool shuts down.
//!
//! Unresponsive members are handled per question: a member whose simulated
//! delay exceeds `question_timeout` (or whose answer is dropped) is retried
//! up to `max_retries` times, then **excluded** from the rest of the run.
//! The deadline itself follows one tie-break rule, `channel_verdict`: an
//! answer arriving *exactly at* the deadline is delivered and committed;
//! the timeout fires only for strictly later (or dropped) answers — so a
//! member can never be both excluded and committed for the same question.
//! If every member ends up excluded the engine reports
//! [`RuntimeErrorKind::CrowdExhausted`] instead of spinning.

pub mod clock;
pub mod sim;

pub use clock::{Clock, SystemClock, VirtualClock};
pub use sim::{SimChaos, SimConfig, SimTrace, SimTraceHandle};

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use oassis_crowd::{CrowdMember, MemberId, SharedCrowdCache};
use oassis_obs::{names, EventSink, SinkExt, Span};
use oassis_vocab::{ElementId, FactSet};

use sim::SimExecutor;

/// Identifier of one dispatched question (unique within a run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QuestionId(pub u64);

impl std::fmt::Display for QuestionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Tuning knobs of the session runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Worker threads carrying crowd round-trips (min 1, default 4; on the
    /// threaded path, raised to at least one per shard). In simulation a
    /// single-threaded scheduler serves every request instead. Either
    /// way it is also the question-wave width of a one-query run
    /// ([`Oassis::execute_with_runtime`](crate::Oassis::execute_with_runtime)).
    pub workers: usize,
    /// How long a worker waits for one answer before declaring a timeout.
    pub question_timeout: Duration,
    /// Re-asks after a timeout before the member is excluded.
    pub max_retries: usize,
    /// Independent member shards (min 1, default 1). Each shard owns a
    /// dispatch queue and a slice of the worker pool; a member is pinned
    /// to one shard by the consistent [`oassis_crowd::placement`] hash,
    /// so shards never contend on each other's queues. In simulation the
    /// scheduler is logically one shard and this is ignored.
    pub shards: usize,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            workers: 4,
            question_timeout: Duration::from_millis(250),
            max_retries: 2,
            shards: 1,
        }
    }
}

/// A crowd handed to the engine for concurrent execution: the members plus
/// the runtime's tuning knobs. Construct with [`SessionRuntime::new`], then
/// chain setters:
///
/// ```no_run
/// # let members = Vec::new();
/// use std::time::Duration;
/// use oassis_core::SessionRuntime;
///
/// let runtime = SessionRuntime::new(members)
///     .workers(8)
///     .question_timeout(Duration::from_millis(50))
///     .max_retries(1);
/// ```
///
/// Chain [`simulated`](Self::simulated) to run the session on the
/// deterministic simulation executor instead of real worker threads:
///
/// ```no_run
/// # let members = Vec::new();
/// use oassis_core::{SessionRuntime, SimConfig};
///
/// let runtime = SessionRuntime::new(members).simulated(SimConfig::new(42));
/// ```
pub struct SessionRuntime {
    members: Vec<Box<dyn CrowdMember>>,
    options: RuntimeOptions,
    backend: Backend,
}

/// Which [`Executor`] carries a runtime's crowd round-trips.
#[derive(Debug, Clone)]
enum Backend {
    /// Worker threads racing real time (the default).
    Threaded,
    /// The seeded single-threaded scheduler over a virtual clock.
    Simulated(SimConfig),
    /// The caller's thread, one request at a time.
    Inline,
}

impl std::fmt::Debug for SessionRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionRuntime")
            .field("members", &self.members.len())
            .field("options", &self.options)
            .field("backend", &self.backend)
            .finish()
    }
}

impl SessionRuntime {
    /// A runtime over `members` with default [`RuntimeOptions`].
    pub fn new(members: Vec<Box<dyn CrowdMember>>) -> Self {
        SessionRuntime {
            members,
            options: RuntimeOptions::default(),
            backend: Backend::Threaded,
        }
    }

    /// Set the worker-thread count (values below 1 are clamped to 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.options.workers = n.max(1);
        self
    }

    /// Set the per-question timeout.
    pub fn question_timeout(mut self, timeout: Duration) -> Self {
        self.options.question_timeout = timeout;
        self
    }

    /// Set the retry budget per question.
    pub fn max_retries(mut self, n: usize) -> Self {
        self.options.max_retries = n;
        self
    }

    /// Set the member-shard count (values below 1 are clamped to 1). Each
    /// shard gets its own dispatch queue and at least one worker thread.
    pub fn shards(mut self, n: usize) -> Self {
        self.options.shards = n.max(1);
        self
    }

    /// Run the session on the deterministic simulation executor: a seeded
    /// single-threaded scheduler over a virtual clock, replaying
    /// bit-identically from `sim`'s seed (see [`sim`](crate::runtime::sim)).
    pub fn simulated(mut self, sim: SimConfig) -> Self {
        self.backend = Backend::Simulated(sim);
        self
    }

    /// Serve every request on the caller's thread (the member-slice path
    /// of [`Oassis::execute`](crate::Oassis::execute)): a member's answer
    /// delay is waited out before each concrete answer, nothing times out
    /// and a dropped answer arrives immediately.
    pub(crate) fn inline(mut self) -> Self {
        self.backend = Backend::Inline;
        self
    }

    /// Whether this runtime will execute on the simulation executor.
    pub fn is_simulated(&self) -> bool {
        matches!(self.backend, Backend::Simulated(_))
    }

    /// The configured options.
    pub fn options(&self) -> RuntimeOptions {
        self.options
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the crowd is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Dissolve the runtime, returning the members.
    pub fn into_members(self) -> Vec<Box<dyn CrowdMember>> {
        self.members
    }
}

impl From<Vec<Box<dyn CrowdMember>>> for SessionRuntime {
    fn from(members: Vec<Box<dyn CrowdMember>>) -> Self {
        SessionRuntime::new(members)
    }
}

/// What went wrong inside the session runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeErrorKind {
    /// A member failed to answer a question within the timeout, through
    /// all retries.
    QuestionTimeout {
        /// The unresponsive member.
        member: MemberId,
        /// The question that timed out.
        question: QuestionId,
        /// Delivery attempts made (initial ask + retries).
        attempts: usize,
    },
    /// A member's answer callback panicked on a worker thread; the member
    /// was discarded.
    WorkerPoisoned {
        /// The member whose callback panicked.
        member: MemberId,
    },
    /// Every member has been excluded (timed out or poisoned) and the run
    /// cannot make progress.
    CrowdExhausted {
        /// How many members were excluded.
        excluded: usize,
    },
}

/// A session-runtime failure, with an optional underlying cause
/// (reachable through [`std::error::Error::source`]).
#[derive(Debug)]
pub struct RuntimeError {
    kind: RuntimeErrorKind,
    source: Option<Box<dyn std::error::Error + Send + Sync>>,
}

impl RuntimeError {
    /// An error of `kind` with no underlying cause.
    pub fn new(kind: RuntimeErrorKind) -> Self {
        RuntimeError { kind, source: None }
    }

    /// Attach an underlying cause.
    pub fn with_source(mut self, source: Box<dyn std::error::Error + Send + Sync>) -> Self {
        self.source = Some(source);
        self
    }

    /// The failure kind.
    pub fn kind(&self) -> &RuntimeErrorKind {
        &self.kind
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            RuntimeErrorKind::QuestionTimeout {
                member,
                question,
                attempts,
            } => write!(
                f,
                "member {member} did not answer question {question} within {attempts} attempts"
            ),
            RuntimeErrorKind::WorkerPoisoned { member } => {
                write!(f, "member {member} panicked on a worker thread")
            }
            RuntimeErrorKind::CrowdExhausted { excluded } => write!(
                f,
                "crowd exhausted: all {excluded} members were excluded as unresponsive"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source
            .as_deref()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

/// The payload a worker thread panicked with, captured as an error so it
/// can ride a [`RuntimeError`]'s source chain.
#[derive(Debug)]
struct PanicPayload(String);

impl std::fmt::Display for PanicPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panic: {}", self.0)
    }
}

impl std::error::Error for PanicPayload {}

/// The question kinds an executor can carry.
#[derive(Debug, Clone)]
pub(crate) enum AskPayload {
    /// A concrete question about one assignment's fact-set.
    Concrete { factset: FactSet },
    /// A specialization question over candidate fact-sets.
    Specialization {
        base: FactSet,
        candidates: Vec<FactSet>,
    },
    /// A user-guided-pruning interaction.
    Pruning { factset: FactSet },
    /// A speculative batch of candidate concrete questions (one crowd
    /// round-trip answers the whole form). Only dispatched speculatively.
    Prefetch { candidates: Vec<FactSet> },
}

impl AskPayload {
    /// How many crowd questions this payload carries.
    fn question_count(&self) -> u64 {
        match self {
            AskPayload::Prefetch { candidates } => candidates.len() as u64,
            _ => 1,
        }
    }
}

/// A successfully delivered answer.
#[derive(Debug, Clone)]
pub(crate) enum AskValue {
    /// Concrete support.
    Support(f64),
    /// Specialization choice.
    Choice(Option<(usize, f64)>),
    /// Irrelevant elements (pruning).
    Irrelevant(Vec<ElementId>),
    /// Answers to a speculative prefetch batch.
    Prefetched(Vec<(FactSet, f64)>),
}

/// What came back for one request.
#[derive(Debug)]
pub(crate) enum AskOutcome {
    Answered(AskValue),
    TimedOut { attempts: usize },
    Poisoned { message: String },
}

pub(crate) struct AskRequest {
    pub(crate) question: QuestionId,
    pub(crate) member_idx: usize,
    pub(crate) member: Box<dyn CrowdMember>,
    pub(crate) payload: AskPayload,
    pub(crate) speculative: bool,
    /// The member shard this request is pinned to (consistent placement
    /// over the member id). The sim executor, logically one shard,
    /// ignores it.
    pub(crate) shard: usize,
}

pub(crate) struct AskResponse {
    pub(crate) question: QuestionId,
    pub(crate) member_idx: usize,
    /// The member, checked back in (`None` if its callback panicked).
    pub(crate) member: Option<Box<dyn CrowdMember>>,
    pub(crate) outcome: AskOutcome,
    pub(crate) payload: AskPayload,
    pub(crate) speculative: bool,
    /// Delivery attempts made serving this request.
    pub(crate) attempts: usize,
}

/// How the coordinator's requests reach execution: the production
/// `ThreadedExecutor`, the deterministic [`sim::SimExecutor`] or the
/// caller-thread `InlineExecutor`. The contract mirrors a channel pair;
/// [`Pool`] owns all slot/exclusion bookkeeping on top.
pub(crate) trait Executor: Send {
    /// Enqueue one request for execution.
    fn submit(&mut self, request: AskRequest);

    /// Deliver the next response, blocking if necessary. `None` means no
    /// response can ever arrive (channel gone / nothing pending).
    fn recv(&mut self) -> Option<AskResponse>;

    /// Stop accepting new work; in-flight requests still complete and
    /// must be drained with [`recv`](Self::recv).
    fn begin_shutdown(&mut self);

    /// Release execution resources (join worker threads).
    fn finish_shutdown(&mut self);
}

/// The request channel shared by coordinator and workers. Two lanes:
/// committed questions are served before speculative prefetch, so a
/// deep backlog of optional wave work can never delay the answer a
/// session is actually blocked on (prefetch is a latency hider, not a
/// competitor for worker time).
struct WorkQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    committed: VecDeque<AskRequest>,
    speculative: VecDeque<AskRequest>,
    shutdown: bool,
}

impl WorkQueue {
    fn new() -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                committed: VecDeque::new(),
                speculative: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, request: AskRequest) {
        let mut state = self.state.lock().expect("work queue poisoned");
        if request.speculative {
            state.speculative.push_back(request);
        } else {
            state.committed.push_back(request);
        }
        drop(state);
        self.ready.notify_one();
    }

    /// Blocking pop, committed lane first; `None` once the queue is shut
    /// down and drained.
    fn pop(&self) -> Option<AskRequest> {
        let mut state = self.state.lock().expect("work queue poisoned");
        loop {
            if let Some(request) = state
                .committed
                .pop_front()
                .or_else(|| state.speculative.pop_front())
            {
                return Some(request);
            }
            if state.shutdown {
                return None;
            }
            state = self.ready.wait(state).expect("work queue poisoned");
        }
    }

    fn shutdown(&self) {
        self.state.lock().expect("work queue poisoned").shutdown = true;
        self.ready.notify_all();
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// The production executor: `shards` independent work queues, each served
/// by its own slice of the worker pool, all answering into one response
/// channel. A request's [`shard`](AskRequest::shard) picks its queue, so
/// shards never contend on each other's dispatch path; `recv` stays a
/// single blocking point for the coordinator.
struct ThreadedExecutor {
    queues: Vec<Arc<WorkQueue>>,
    responses: mpsc::Receiver<AskResponse>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadedExecutor {
    fn spawn(options: RuntimeOptions, sink: Arc<dyn EventSink>) -> Self {
        let shards = options.shards.max(1);
        let queues: Vec<Arc<WorkQueue>> =
            (0..shards).map(|_| Arc::new(WorkQueue::new())).collect();
        let (tx, rx) = mpsc::channel();
        // At least one worker per shard; extra workers round-robin.
        let n_workers = options.workers.max(1).max(shards);
        let workers = (0..n_workers)
            .map(|w| {
                let queue = Arc::clone(&queues[w % shards]);
                let tx = tx.clone();
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || worker_loop(queue, tx, sink, options))
            })
            .collect();
        ThreadedExecutor {
            queues,
            responses: rx,
            workers,
        }
    }
}

impl Executor for ThreadedExecutor {
    fn submit(&mut self, request: AskRequest) {
        let queue = request.shard % self.queues.len();
        self.queues[queue].push(request);
    }

    fn recv(&mut self) -> Option<AskResponse> {
        self.responses.recv().ok()
    }

    fn begin_shutdown(&mut self) {
        for queue in &self.queues {
            queue.shutdown();
        }
    }

    fn finish_shutdown(&mut self) {
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker thread: pop requests, simulate the crowd channel (delay,
/// drop, timeout, retry), ask the member, send the response back.
fn worker_loop(
    queue: Arc<WorkQueue>,
    responses: mpsc::Sender<AskResponse>,
    sink: Arc<dyn EventSink>,
    options: RuntimeOptions,
) {
    let clock = SystemClock::new();
    while let Some(request) = queue.pop() {
        let response = serve(request, &sink, &options, &clock);
        if responses.send(response).is_err() {
            return; // coordinator gone
        }
    }
}

/// Outcome of one delivery attempt against the per-question deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChannelVerdict {
    /// The answer arrives in time: wait `d`, then deliver it.
    Deliver(Duration),
    /// No answer by the deadline.
    Expire {
        /// Whether the answer was dropped (vs merely too slow).
        dropped: bool,
    },
}

/// The runtime's single deadline tie-break rule, shared by every executor:
/// an answer arriving **exactly at** the deadline is delivered (and will be
/// committed); the timeout fires only for answers strictly later than the
/// deadline, or dropped outright. Centralizing the comparison here is what
/// keeps the threaded and simulated paths from ever disagreeing about the
/// race — a member answering at the deadline can never be excluded *and*
/// committed for the same question.
pub(crate) fn channel_verdict(delay: Option<Duration>, timeout: Duration) -> ChannelVerdict {
    match delay {
        Some(d) if d <= timeout => ChannelVerdict::Deliver(d),
        Some(_) => ChannelVerdict::Expire { dropped: false },
        None => ChannelVerdict::Expire { dropped: true },
    }
}

pub(crate) fn serve(
    mut request: AskRequest,
    sink: &Arc<dyn EventSink>,
    options: &RuntimeOptions,
    clock: &dyn Clock,
) -> AskResponse {
    let _span = Span::enter(&**sink, names::SPAN_WORKER);
    let start = clock.now();
    let mut attempts = 0usize;
    let outcome = loop {
        attempts += 1;
        match channel_verdict(request.member.answer_delay(), options.question_timeout) {
            ChannelVerdict::Deliver(d) => {
                clock.sleep(d);
                let member = &mut request.member;
                let payload = &request.payload;
                match catch_unwind(AssertUnwindSafe(|| answer(member.as_mut(), payload))) {
                    Ok(value) => break AskOutcome::Answered(value),
                    Err(panic) => {
                        // The member may be mid-mutation: discard it.
                        return AskResponse {
                            question: request.question,
                            member_idx: request.member_idx,
                            member: None,
                            outcome: AskOutcome::Poisoned {
                                message: panic_message(panic),
                            },
                            payload: request.payload,
                            speculative: request.speculative,
                            attempts,
                        };
                    }
                }
            }
            ChannelVerdict::Expire { dropped } => {
                // Dropped or slower than the timeout: wait the full timeout
                // (that is when the coordinator's patience runs out), then
                // retry with a fresh delay draw or give up.
                clock.sleep(options.question_timeout);
                let label = if dropped { "drop" } else { "slow" };
                sink.count_labeled(names::RUNTIME_TIMEOUT, label, 1);
                if attempts > options.max_retries {
                    break AskOutcome::TimedOut { attempts };
                }
                sink.count(names::RUNTIME_RETRY, 1);
            }
        }
    };
    let elapsed = clock.now().saturating_sub(start);
    sink.observe(names::RUNTIME_ANSWER_NANOS, elapsed.as_nanos() as f64);
    AskResponse {
        question: request.question,
        member_idx: request.member_idx,
        member: Some(request.member),
        outcome,
        payload: request.payload,
        speculative: request.speculative,
        attempts,
    }
}

/// The member-slice executor: requests queue in submission order and each
/// is served on the caller's thread when the coordinator waits for its
/// response. A concrete question first waits out the member's answer
/// delay; nothing times out, so a dropped answer arrives at once and no
/// member is ever excluded. A panicking member unwinds into the caller.
struct InlineExecutor {
    pending: VecDeque<AskRequest>,
    sink: Arc<dyn EventSink>,
    clock: SystemClock,
}

impl InlineExecutor {
    fn new(sink: Arc<dyn EventSink>) -> Self {
        InlineExecutor {
            pending: VecDeque::new(),
            sink,
            clock: SystemClock::new(),
        }
    }
}

impl Executor for InlineExecutor {
    fn submit(&mut self, request: AskRequest) {
        self.pending.push_back(request);
    }

    fn recv(&mut self) -> Option<AskResponse> {
        let mut request = self.pending.pop_front()?;
        let value = match &request.payload {
            AskPayload::Concrete { factset } => {
                let member = &mut request.member;
                if let Some(d) = member.answer_delay() {
                    self.clock.sleep(d);
                }
                let _roundtrip = Span::enter(&*self.sink, names::SPAN_ROUNDTRIP);
                let start = Instant::now();
                let s = member.ask_concrete(factset);
                self.sink
                    .observe(names::CROWD_ANSWER_NANOS, start.elapsed().as_nanos() as f64);
                AskValue::Support(s)
            }
            payload => answer(request.member.as_mut(), payload),
        };
        Some(AskResponse {
            question: request.question,
            member_idx: request.member_idx,
            member: Some(request.member),
            outcome: AskOutcome::Answered(value),
            payload: request.payload,
            speculative: request.speculative,
            attempts: 1,
        })
    }

    fn begin_shutdown(&mut self) {}

    fn finish_shutdown(&mut self) {}
}

fn answer(member: &mut dyn CrowdMember, payload: &AskPayload) -> AskValue {
    match payload {
        AskPayload::Concrete { factset, .. } => AskValue::Support(member.ask_concrete(factset)),
        AskPayload::Specialization { base, candidates } => {
            AskValue::Choice(member.ask_specialization(base, candidates))
        }
        AskPayload::Pruning { factset } => AskValue::Irrelevant(member.irrelevant_elements(factset)),
        AskPayload::Prefetch { candidates } => AskValue::Prefetched(
            candidates
                .iter()
                .map(|fs| (fs.clone(), member.ask_concrete(fs)))
                .collect(),
        ),
    }
}

/// One member's seat on the coordinator side.
struct Slot {
    /// The member, when "home". `None` while checked out to the executor
    /// (a pending request exists) or lost to a poisoned worker.
    member: Option<Box<dyn CrowdMember>>,
    id: MemberId,
    excluded: bool,
    pending: Option<QuestionId>,
    /// Whether the pending question is speculative (wave prefetch). The
    /// service's wave staging counts these toward a session's outstanding
    /// wave without confusing them with committed dispatches.
    pending_speculative: bool,
}

/// Coordinator-side handle of the execution backend: slots, dispatch
/// bookkeeping and the response channel. Created per run by the engine.
pub(crate) struct Pool {
    exec: Box<dyn Executor>,
    slots: Vec<Slot>,
    shared: SharedCrowdCache,
    sink: Arc<dyn EventSink>,
    /// Member-shard count the executor was built with (1 unless threaded).
    shards: usize,
    next_question: u64,
    inflight: usize,
    spec_dispatched: u64,
    spec_hits: u64,
    last_error: Option<RuntimeError>,
    /// Committed questions whose responses have arrived:
    /// `(question, seat, answer)`, `answer == None` when the member was
    /// excluded instead. The service drains this with
    /// [`take_completed`](Pool::take_completed).
    completed: VecDeque<(QuestionId, usize, Option<AskValue>)>,
}

impl Pool {
    /// Start the executor (spawning workers on the threaded path) and seat
    /// the members.
    pub(crate) fn start(runtime: SessionRuntime, sink: Arc<dyn EventSink>) -> Self {
        let SessionRuntime {
            members,
            options,
            backend,
        } = runtime;
        let slots: Vec<Slot> = members
            .into_iter()
            .map(|m| Slot {
                id: m.id(),
                member: Some(m),
                excluded: false,
                pending: None,
                pending_speculative: false,
            })
            .collect();
        // The sim and inline executors serve one request at a time:
        // logically one shard, so placement never perturbs their order.
        let (shards, exec): (usize, Box<dyn Executor>) = match backend {
            Backend::Threaded => (
                options.shards.max(1),
                Box::new(ThreadedExecutor::spawn(options, Arc::clone(&sink))),
            ),
            Backend::Simulated(config) => (
                1,
                Box::new(SimExecutor::new(config, options, Arc::clone(&sink))),
            ),
            Backend::Inline => (1, Box::new(InlineExecutor::new(Arc::clone(&sink)))),
        };
        Pool {
            exec,
            slots,
            shared: SharedCrowdCache::with_stripes(oassis_crowd::DEFAULT_STRIPES.max(shards)),
            sink,
            shards,
            next_question: 0,
            inflight: 0,
            spec_dispatched: 0,
            spec_hits: 0,
            last_error: None,
            completed: VecDeque::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn member_id(&self, idx: usize) -> MemberId {
        self.slots[idx].id
    }

    /// The member, when home (synced and not poisoned).
    pub(crate) fn member(&self, idx: usize) -> Option<&dyn CrowdMember> {
        self.slots[idx].member.as_deref()
    }

    pub(crate) fn excluded(&self, idx: usize) -> bool {
        self.slots[idx].excluded
    }

    pub(crate) fn all_excluded(&self) -> bool {
        self.slots.iter().all(|s| s.excluded)
    }

    pub(crate) fn excluded_count(&self) -> usize {
        self.slots.iter().filter(|s| s.excluded).count()
    }

    pub(crate) fn shared(&self) -> &SharedCrowdCache {
        &self.shared
    }

    /// The most recent per-member failure (for `CrowdExhausted` chains).
    pub(crate) fn take_last_error(&mut self) -> Option<RuntimeError> {
        self.last_error.take()
    }

    /// Record a prefetched answer being consumed by the commit loop.
    pub(crate) fn note_speculation_hit(&mut self) {
        self.spec_hits += 1;
        self.sink.count_labeled(names::RUNTIME_SPECULATION, "hit", 1);
    }

    fn next_question_id(&mut self) -> QuestionId {
        self.next_question += 1;
        QuestionId(self.next_question)
    }

    fn set_inflight(&mut self, n: usize) {
        self.inflight = n;
        self.sink.gauge(names::RUNTIME_INFLIGHT, n as f64);
    }

    /// Check the member out of its slot and enqueue the question on its
    /// member's shard.
    fn dispatch(&mut self, idx: usize, payload: AskPayload, speculative: bool) -> QuestionId {
        let member = self.slots[idx]
            .member
            .take()
            .expect("dispatch requires the member to be home");
        let question = self.next_question_id();
        self.slots[idx].pending = Some(question);
        self.slots[idx].pending_speculative = speculative;
        self.set_inflight(self.inflight + 1);
        let label = if speculative { "speculative" } else { "committed" };
        self.sink.count_labeled(names::RUNTIME_DISPATCHED, label, 1);
        if speculative {
            let n = payload.question_count();
            self.spec_dispatched += n;
            self.sink
                .count_labeled(names::RUNTIME_SPECULATION, "dispatched", n);
        }
        let shard = self.shard_of(idx);
        if self.shards > 1 {
            self.sink
                .count_labeled(names::SHARD_DISPATCHED, &format!("shard{shard}"), 1);
        }
        self.exec.submit(AskRequest {
            question,
            member_idx: idx,
            member,
            payload,
            speculative,
            shard,
        });
        question
    }

    /// Apply one response: check the member back in, fold speculative
    /// answers into the shared cache, exclude failed members. A response
    /// that completes a *committed* question is buffered in
    /// [`completed`](Pool::completed) — never dropped, even when the
    /// coordinator was blocked on a different seat at the time.
    fn absorb(&mut self, response: AskResponse) {
        let idx = response.member_idx;
        debug_assert_eq!(self.slots[idx].pending, Some(response.question));
        self.slots[idx].pending = None;
        self.slots[idx].pending_speculative = false;
        self.set_inflight(self.inflight.saturating_sub(1));
        self.slots[idx].member = response.member;
        let label = match &response.outcome {
            AskOutcome::Answered(_) => "answered",
            AskOutcome::TimedOut { .. } => "timeout",
            AskOutcome::Poisoned { .. } => "poisoned",
        };
        self.sink.count_labeled(names::RUNTIME_RESOLVED, label, 1);
        let committed = !response.speculative;
        match response.outcome {
            AskOutcome::Answered(value) => {
                if committed {
                    self.completed.push_back((response.question, idx, Some(value)));
                } else {
                    match (&response.payload, &value) {
                        (AskPayload::Concrete { factset, .. }, AskValue::Support(s)) => {
                            self.shared.record(factset, self.slots[idx].id, *s);
                        }
                        (AskPayload::Prefetch { .. }, AskValue::Prefetched(answers)) => {
                            for (fs, s) in answers {
                                self.shared.record(fs, self.slots[idx].id, *s);
                            }
                        }
                        _ => {}
                    }
                }
            }
            AskOutcome::TimedOut { attempts } => {
                self.exclude(
                    idx,
                    "timeout",
                    RuntimeError::new(RuntimeErrorKind::QuestionTimeout {
                        member: self.slots[idx].id,
                        question: response.question,
                        attempts,
                    }),
                );
                if committed {
                    self.completed.push_back((response.question, idx, None));
                }
            }
            AskOutcome::Poisoned { message } => {
                self.exclude(
                    idx,
                    "poisoned",
                    RuntimeError::new(RuntimeErrorKind::WorkerPoisoned {
                        member: self.slots[idx].id,
                    })
                    .with_source(Box::new(PanicPayload(message))),
                );
                if committed {
                    self.completed.push_back((response.question, idx, None));
                }
            }
        }
    }

    fn exclude(&mut self, idx: usize, label: &'static str, error: RuntimeError) {
        if !self.slots[idx].excluded {
            self.slots[idx].excluded = true;
            self.sink
                .count_labeled(names::RUNTIME_MEMBER_EXCLUDED, label, 1);
        }
        self.last_error = Some(error);
    }

    /// Block until `idx` has no in-flight question, absorbing every
    /// response that arrives meanwhile (including other members').
    pub(crate) fn sync(&mut self, idx: usize) {
        while self.slots[idx].pending.is_some() {
            let response = self
                .exec
                .recv()
                .expect("executor hung up with requests in flight");
            self.absorb(response);
        }
    }

    /// Whether `idx` may take a committed question right now: home, not
    /// excluded, nothing pending. (Same condition as
    /// [`can_speculate`](Pool::can_speculate); named for the service
    /// layer's committed-dispatch path.)
    pub(crate) fn available(&self, idx: usize) -> bool {
        self.can_speculate(idx)
    }

    /// Non-blocking committed dispatch for the service layer. `None` when
    /// the seat cannot take a question (excluded, checked out, or lost).
    /// The answer arrives later via [`take_completed`](Pool::take_completed).
    pub(crate) fn dispatch_committed(
        &mut self,
        idx: usize,
        payload: AskPayload,
    ) -> Option<QuestionId> {
        if !self.available(idx) {
            return None;
        }
        Some(self.dispatch(idx, payload, false))
    }

    /// Absorb one response if any work is in flight. Returns `false` when
    /// nothing is in flight (the caller should stop pumping).
    pub(crate) fn pump_one(&mut self) -> bool {
        if self.inflight == 0 {
            return false;
        }
        let response = self
            .exec
            .recv()
            .expect("executor hung up with requests in flight");
        self.absorb(response);
        true
    }

    /// Drain the committed-response buffer: `(question, seat, answer)`
    /// triples in arrival order; `answer == None` means the member was
    /// excluded instead of answering.
    pub(crate) fn take_completed(&mut self) -> Vec<(QuestionId, usize, Option<AskValue>)> {
        self.completed.drain(..).collect()
    }

    /// Whether `idx` may receive a speculative question right now.
    pub(crate) fn can_speculate(&self, idx: usize) -> bool {
        let slot = &self.slots[idx];
        !slot.excluded && slot.pending.is_none() && slot.member.is_some()
    }

    /// Whether `idx` currently has a *speculative* question in flight.
    /// The service's wave staging counts these toward a session's
    /// outstanding wave.
    pub(crate) fn pending_speculative(&self, idx: usize) -> bool {
        self.slots[idx].pending.is_some() && self.slots[idx].pending_speculative
    }

    /// The member shard seat `idx` is pinned to (consistent placement over
    /// the member id; always 0 with one shard or in simulation).
    pub(crate) fn shard_of(&self, idx: usize) -> usize {
        oassis_crowd::placement::member_shard(self.slots[idx].id, self.shards)
    }

    /// Dispatch a speculative prefetch batch for `idx` — the predicted
    /// next question plus fallback candidates, answered in one simulated
    /// crowd round-trip (a multi-question form).
    pub(crate) fn speculate(&mut self, idx: usize, candidates: Vec<FactSet>) {
        if candidates.is_empty() || !self.can_speculate(idx) {
            return;
        }
        self.dispatch(idx, AskPayload::Prefetch { candidates }, true);
    }

    /// Stop the executor, then check every member back in and hand the
    /// crowd back in seat order (a member lost to a panicking callback is
    /// missing).
    pub(crate) fn take_members(&mut self) -> Vec<Box<dyn CrowdMember>> {
        self.shutdown();
        self.slots
            .drain(..)
            .filter_map(|slot| slot.member)
            .collect()
    }

    /// Stop accepting work and drain what is in flight (so workers never
    /// block on send), then count the speculation the commit loop never
    /// consumed as wasted: every prefetched question is then accounted
    /// once, as a hit or as waste. Idempotent.
    fn shutdown(&mut self) {
        self.exec.begin_shutdown();
        while self.inflight > 0 {
            match self.exec.recv() {
                Some(response) => {
                    self.absorb(response);
                }
                None => break,
            }
        }
        self.exec.finish_shutdown();
        let wasted = std::mem::take(&mut self.spec_dispatched)
            .saturating_sub(std::mem::take(&mut self.spec_hits));
        if wasted > 0 {
            self.sink
                .count_labeled(names::RUNTIME_SPECULATION, "wasted", wasted);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_crowd::{ResponseModel, ScriptedMember, UnreliableMember};
    use oassis_obs::InMemorySink;
    use std::collections::HashMap;

    fn scripted(id: u32, support: f64) -> Box<dyn CrowdMember> {
        Box::new(ScriptedMember::new(MemberId(id), HashMap::new(), support))
    }

    /// A committed ask, waited out: `None` when the member was excluded
    /// instead of answering.
    fn ask(pool: &mut Pool, idx: usize, payload: AskPayload) -> Option<AskValue> {
        let question = pool.dispatch_committed(idx, payload)?;
        while pool.pump_one() {}
        pool.take_completed()
            .into_iter()
            .find(|(q, _, _)| *q == question)
            .and_then(|(_, _, value)| value)
    }

    fn concrete_payload() -> AskPayload {
        AskPayload::Concrete {
            factset: FactSet::new(),
        }
    }

    #[test]
    fn runtime_builder_clamps_and_sticks() {
        let rt = SessionRuntime::new(Vec::new())
            .workers(0)
            .question_timeout(Duration::from_millis(5))
            .max_retries(7)
            .shards(0);
        assert_eq!(rt.options().workers, 1);
        assert_eq!(rt.options().question_timeout, Duration::from_millis(5));
        assert_eq!(rt.options().max_retries, 7);
        assert_eq!(rt.options().shards, 1);
        assert!(rt.is_empty());
        assert!(!rt.is_simulated());
        assert!(rt.simulated(SimConfig::new(0)).is_simulated());
    }

    #[test]
    fn sharded_executor_round_trips_every_member() {
        let members: Vec<Box<dyn CrowdMember>> =
            (0..16).map(|i| scripted(i, f64::from(i) / 16.0)).collect();
        let runtime = SessionRuntime::new(members).workers(2).shards(4);
        let mut pool = Pool::start(runtime, oassis_obs::null_sink());
        let shards: std::collections::HashSet<usize> =
            (0..16).map(|i| pool.shard_of(i)).collect();
        assert!(shards.len() > 1, "16 members land on more than one shard");
        assert!(shards.iter().all(|&s| s < 4));
        for i in 0..16 {
            let value = ask(&mut pool, i, concrete_payload());
            let expected = f64::from(i as u32) / 16.0;
            assert!(
                matches!(value, Some(AskValue::Support(s)) if (s - expected).abs() < 1e-12),
                "member {i} answered through its shard"
            );
        }
    }

    #[test]
    fn shard_placement_is_stable_across_pools() {
        let make = || {
            let members: Vec<Box<dyn CrowdMember>> =
                (0..32).map(|i| scripted(i, 0.5)).collect();
            Pool::start(
                SessionRuntime::new(members).shards(8),
                oassis_obs::null_sink(),
            )
        };
        let (a, b) = (make(), make());
        for i in 0..32 {
            assert_eq!(a.shard_of(i), b.shard_of(i), "member {i} moved shards");
        }
    }

    #[test]
    fn committed_ask_round_trips_through_a_worker() {
        let runtime = SessionRuntime::new(vec![scripted(1, 0.75)]).workers(2);
        let mut pool = Pool::start(runtime, oassis_obs::null_sink());
        let value = ask(&mut pool, 0, concrete_payload());
        assert!(matches!(value, Some(AskValue::Support(s)) if (s - 0.75).abs() < 1e-12));
        assert!(!pool.excluded(0));
    }

    #[test]
    fn committed_ask_round_trips_through_the_sim_executor() {
        let trace = SimTrace::handle();
        let runtime = SessionRuntime::new(vec![scripted(1, 0.75)])
            .simulated(SimConfig::new(7).record_into(Arc::clone(&trace)));
        let mut pool = Pool::start(runtime, oassis_obs::null_sink());
        let value = ask(&mut pool, 0, concrete_payload());
        assert!(matches!(value, Some(AskValue::Support(s)) if (s - 0.75).abs() < 1e-12));
        drop(pool);
        let trace = trace.lock().unwrap();
        assert_eq!(trace.decisions, vec![0], "one request, FIFO decision");
        let transcript = trace.transcript();
        assert!(transcript.contains("dispatch q1"), "{transcript}");
        assert!(transcript.contains("answered(attempts=1)"), "{transcript}");
    }

    /// The deadline tie-break rule: delivery at exactly the deadline wins.
    #[test]
    fn verdict_delivers_exactly_at_the_deadline() {
        let timeout = Duration::from_millis(250);
        assert_eq!(
            channel_verdict(Some(timeout), timeout),
            ChannelVerdict::Deliver(timeout)
        );
        assert_eq!(
            channel_verdict(Some(timeout + Duration::from_nanos(1)), timeout),
            ChannelVerdict::Expire { dropped: false }
        );
        assert_eq!(
            channel_verdict(None, timeout),
            ChannelVerdict::Expire { dropped: true }
        );
        assert_eq!(
            channel_verdict(Some(Duration::ZERO), timeout),
            ChannelVerdict::Deliver(Duration::ZERO)
        );
    }

    /// Regression for the timeout-vs-late-answer race: a member whose
    /// answer lands exactly on the deadline must be committed, never
    /// excluded — checked on the simulated executor, where the race is
    /// replayable.
    #[test]
    fn answer_exactly_at_deadline_is_committed_not_excluded() {
        let timeout = Duration::from_millis(250);
        let member: Box<dyn CrowdMember> = Box::new(
            UnreliableMember::new(scripted(1, 0.5), ResponseModel::instant(), 0)
                .with_delay_script([Some(timeout)]),
        );
        let mem = InMemorySink::shared();
        let sink: Arc<dyn EventSink> = Arc::clone(&mem) as Arc<dyn EventSink>;
        let runtime = SessionRuntime::new(vec![member])
            .question_timeout(timeout)
            .simulated(SimConfig::new(0));
        let mut pool = Pool::start(runtime, sink);
        let value = ask(&mut pool, 0, concrete_payload());
        assert!(matches!(value, Some(AskValue::Support(s)) if (s - 0.5).abs() < 1e-12));
        assert!(!pool.excluded(0), "deadline tie must not exclude");
        drop(pool);
        let snap = mem.snapshot();
        assert_eq!(snap.counter_across_labels(names::RUNTIME_TIMEOUT), 0);
        assert_eq!(snap.counter_across_labels(names::RUNTIME_MEMBER_EXCLUDED), 0);
        assert_eq!(
            snap.counter(&format!("{}[answered]", names::RUNTIME_RESOLVED)),
            1
        );
    }

    #[test]
    fn dropping_member_is_retried_then_excluded() {
        let member: Box<dyn CrowdMember> = Box::new(UnreliableMember::new(
            scripted(1, 0.5),
            ResponseModel::instant().with_drop_probability(1.0),
            3,
        ));
        let runtime = SessionRuntime::new(vec![member])
            .workers(1)
            .question_timeout(Duration::from_millis(2))
            .max_retries(2);
        let mem = InMemorySink::shared();
        let sink: Arc<dyn EventSink> = Arc::clone(&mem) as Arc<dyn EventSink>;
        let mut pool = Pool::start(runtime, sink);
        let value = ask(&mut pool, 0, concrete_payload());
        assert!(value.is_none());
        assert!(pool.excluded(0));
        assert!(pool.all_excluded());
        let err = pool.take_last_error().expect("timeout recorded");
        assert!(matches!(
            err.kind(),
            RuntimeErrorKind::QuestionTimeout { attempts: 3, .. }
        ));
        let snap = mem.snapshot();
        assert_eq!(snap.counter(&format!("{}[drop]", names::RUNTIME_TIMEOUT)), 3);
        assert_eq!(snap.counter(names::RUNTIME_RETRY), 2);
        assert_eq!(
            snap.counter(&format!("{}[timeout]", names::RUNTIME_MEMBER_EXCLUDED)),
            1
        );
        assert_eq!(
            snap.counter(&format!("{}[committed]", names::RUNTIME_DISPATCHED)),
            1
        );
        assert_eq!(
            snap.counter(&format!("{}[timeout]", names::RUNTIME_RESOLVED)),
            1
        );
    }

    #[test]
    fn panicking_member_poisons_and_is_discarded() {
        struct Bomb;
        impl CrowdMember for Bomb {
            fn id(&self) -> MemberId {
                MemberId(9)
            }
            fn ask_concrete(&mut self, _a: &FactSet) -> f64 {
                panic!("boom")
            }
            fn ask_specialization(
                &mut self,
                _base: &FactSet,
                _candidates: &[FactSet],
            ) -> Option<(usize, f64)> {
                None
            }
            fn irrelevant_elements(&mut self, _a: &FactSet) -> Vec<ElementId> {
                Vec::new()
            }
        }
        let runtime = SessionRuntime::new(vec![Box::new(Bomb)]).workers(1);
        let mut pool = Pool::start(runtime, oassis_obs::null_sink());
        let value = ask(&mut pool, 0, concrete_payload());
        assert!(value.is_none());
        assert!(pool.excluded(0));
        assert!(pool.member(0).is_none(), "poisoned member is discarded");
        let err = pool.take_last_error().expect("poisoning recorded");
        assert!(matches!(
            err.kind(),
            RuntimeErrorKind::WorkerPoisoned {
                member: MemberId(9)
            }
        ));
        let source = std::error::Error::source(&err).expect("panic payload chained");
        assert!(source.to_string().contains("boom"));
    }

    #[test]
    fn speculative_answers_land_in_the_shared_cache() {
        let runtime = SessionRuntime::new(vec![scripted(4, 0.6)]).workers(1);
        let mut pool = Pool::start(runtime, oassis_obs::null_sink());
        assert!(pool.can_speculate(0));
        pool.speculate(0, vec![FactSet::new()]);
        assert!(!pool.can_speculate(0), "one in-flight question per member");
        pool.sync(0);
        assert_eq!(pool.shared().lookup(&FactSet::new(), MemberId(4)), Some(0.6));
        assert!(pool.can_speculate(0));
    }

    #[test]
    fn shutdown_joins_workers_with_requests_in_flight() {
        let member: Box<dyn CrowdMember> = Box::new(UnreliableMember::new(
            scripted(1, 0.5),
            ResponseModel::latency(Duration::from_millis(5)),
            1,
        ));
        let runtime = SessionRuntime::new(vec![member])
            .workers(2)
            .question_timeout(Duration::from_millis(50));
        let mut pool = Pool::start(runtime, oassis_obs::null_sink());
        pool.speculate(0, vec![FactSet::new()]);
        drop(pool); // must not hang or leak the worker
    }

    /// The inline executor serves on the caller's thread with no timeout:
    /// a member that drops every answer is answered at once and never
    /// excluded, and the crowd comes back in seat order.
    #[test]
    fn inline_executor_never_times_out_and_returns_the_crowd() {
        let dropping: Box<dyn CrowdMember> = Box::new(UnreliableMember::new(
            scripted(1, 0.5),
            ResponseModel::instant().with_drop_probability(1.0),
            3,
        ));
        let runtime = SessionRuntime::new(vec![dropping, scripted(2, 0.25)])
            .question_timeout(Duration::ZERO)
            .inline();
        let mem = InMemorySink::shared();
        let sink: Arc<dyn EventSink> = Arc::clone(&mem) as Arc<dyn EventSink>;
        let mut pool = Pool::start(runtime, sink);
        let value = ask(&mut pool, 0, concrete_payload());
        assert!(matches!(value, Some(AskValue::Support(s)) if (s - 0.5).abs() < 1e-12));
        assert!(!pool.excluded(0));
        let ids: Vec<MemberId> = pool.take_members().iter().map(|m| m.id()).collect();
        assert_eq!(ids, vec![MemberId(1), MemberId(2)]);
        let snap = mem.snapshot();
        assert_eq!(snap.counter_across_labels(names::RUNTIME_TIMEOUT), 0);
        assert_eq!(snap.span(names::SPAN_ROUNDTRIP).map(|s| s.count), Some(1));
    }

    /// Prefetched questions the commit loop never consumes are counted as
    /// waste exactly once, when the pool shuts down.
    #[test]
    fn unconsumed_prefetches_are_wasted_once_at_shutdown() {
        let mem = InMemorySink::shared();
        let sink: Arc<dyn EventSink> = Arc::clone(&mem) as Arc<dyn EventSink>;
        let runtime = SessionRuntime::new(vec![scripted(4, 0.6)]).simulated(SimConfig::new(0));
        let mut pool = Pool::start(runtime, sink);
        pool.speculate(0, vec![FactSet::new(), FactSet::new()]);
        pool.sync(0);
        pool.note_speculation_hit();
        let _ = pool.take_members();
        drop(pool);
        let snap = mem.snapshot();
        let speculation = |label: &str| {
            snap.counter(&format!("{}[{label}]", names::RUNTIME_SPECULATION))
        };
        assert_eq!(speculation("dispatched"), 2);
        assert_eq!(speculation("hit"), 1);
        assert_eq!(speculation("wasted"), 1);
    }

    /// A dropping member on the sim executor pays only virtual time: huge
    /// timeouts are free, which is what de-flakes the integration suite.
    #[test]
    fn sim_executor_timeouts_cost_no_wall_clock() {
        let member: Box<dyn CrowdMember> = Box::new(UnreliableMember::new(
            scripted(1, 0.5),
            ResponseModel::instant().with_drop_probability(1.0),
            3,
        ));
        let runtime = SessionRuntime::new(vec![member])
            .question_timeout(Duration::from_secs(3600))
            .max_retries(2)
            .simulated(SimConfig::new(0));
        let wall = std::time::Instant::now();
        let mut pool = Pool::start(runtime, oassis_obs::null_sink());
        let value = ask(&mut pool, 0, concrete_payload());
        assert!(value.is_none());
        assert!(pool.excluded(0));
        assert!(
            wall.elapsed() < Duration::from_secs(60),
            "three one-hour timeouts must pass in virtual time"
        );
    }
}
