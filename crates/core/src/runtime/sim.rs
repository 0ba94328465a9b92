//! The deterministic simulation executor (FoundationDB-style).
//!
//! Instead of worker threads racing a wall clock, [`SimExecutor`] keeps
//! every dispatched [`AskRequest`](super::AskRequest) in a pending set and
//! serves exactly one per `recv()`, **chosen by a seeded scheduler** — so
//! the scheduler, not the OS, owns every interleaving decision. Waiting
//! (member latency, timeouts) happens on a [`VirtualClock`], which makes a
//! whole concurrent session — timeouts, retries, speculative prefetch,
//! member exclusion — replay bit-identically from one `u64` seed, at zero
//! wall-clock cost.
//!
//! The executor can additionally:
//!
//! * record a [`SimTrace`] — the transcript (question order, retries,
//!   exclusions) plus the raw scheduling-decision sequence, which is what
//!   the `oassis-simtest` shrinker minimizes;
//! * replay a **scripted** decision sequence instead of drawing from the
//!   seed (decisions beyond the script's end fall back to FIFO), which is
//!   how a shrunk failure is pinned down to a minimal fault trace.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use oassis_obs::EventSink;

use super::clock::{Clock, VirtualClock};
use super::{
    serve, AskOutcome, AskPayload, AskRequest, AskResponse, AskValue, Executor, RuntimeOptions,
};

/// Shared handle to a [`SimTrace`] being recorded by a running simulation.
pub type SimTraceHandle = Arc<Mutex<SimTrace>>;

/// What a simulated run did: a human-readable transcript plus the raw
/// scheduling decisions, recorded when a handle is attached via
/// [`SimConfig::record_into`].
#[derive(Debug, Clone, Default)]
pub struct SimTrace {
    /// One line per scheduler event (dispatch, serve, chaos injection).
    pub lines: Vec<String>,
    /// The index chosen from the pending set at each `recv()`. Feeding
    /// these back through [`SimConfig::scripted`] replays the same run.
    pub decisions: Vec<usize>,
}

impl SimTrace {
    /// A fresh, empty trace behind a shareable handle.
    pub fn handle() -> SimTraceHandle {
        Arc::new(Mutex::new(SimTrace::default()))
    }

    /// The transcript as one newline-joined string. Two runs with the same
    /// seed (and script/chaos settings) produce byte-identical transcripts.
    pub fn transcript(&self) -> String {
        let mut out = self.lines.join("\n");
        out.push('\n');
        out
    }

    /// How many recorded decisions deviate from FIFO order (index 0).
    /// This is the size of a shrunk failure's "minimal fault trace".
    pub fn non_fifo_decisions(&self) -> usize {
        self.decisions.iter().filter(|&&d| d != 0).count()
    }
}

/// Fault injections the simulation can apply, used to prove the harness
/// catches real bugs. Not part of the public API surface.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimChaos {
    /// When a non-FIFO scheduling decision serves a speculative prefetch
    /// batch, swap the first two answers' supports — corrupting the
    /// shared crowd cache exactly the way a lost-ordering bug would.
    SwapPrefetchAnswers,
}

/// Configuration of one simulated session, attached to a
/// [`SessionRuntime`](super::SessionRuntime) via
/// [`simulated`](super::SessionRuntime::simulated).
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub(crate) seed: u64,
    pub(crate) script: Option<Vec<usize>>,
    pub(crate) trace: Option<SimTraceHandle>,
    pub(crate) chaos: Option<SimChaos>,
}

impl SimConfig {
    /// A simulation whose scheduler draws every interleaving decision from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            script: None,
            trace: None,
            chaos: None,
        }
    }

    /// Replace the seeded scheduler with an explicit decision script: the
    /// k-th `recv()` picks pending request `decisions[k]` (clamped to the
    /// pending set; past the script's end, FIFO). Used by the shrinker.
    pub fn scripted(mut self, decisions: Vec<usize>) -> Self {
        self.script = Some(decisions);
        self
    }

    /// Record the run's transcript and decision sequence into `trace`.
    pub fn record_into(mut self, trace: SimTraceHandle) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Enable a fault injection (test-harness use only).
    #[doc(hidden)]
    pub fn chaos(mut self, chaos: SimChaos) -> Self {
        self.chaos = Some(chaos);
        self
    }
}

/// Single-threaded deterministic executor: see the module docs.
pub(crate) struct SimExecutor {
    pending: VecDeque<AskRequest>,
    sink: Arc<dyn EventSink>,
    options: RuntimeOptions,
    clock: VirtualClock,
    rng: SmallRng,
    script: Option<VecDeque<usize>>,
    trace: Option<SimTraceHandle>,
    chaos: Option<SimChaos>,
}

impl SimExecutor {
    pub(crate) fn new(
        config: SimConfig,
        options: RuntimeOptions,
        sink: Arc<dyn EventSink>,
    ) -> Self {
        SimExecutor {
            pending: VecDeque::new(),
            sink,
            options,
            clock: VirtualClock::new(),
            rng: SmallRng::seed_from_u64(config.seed),
            script: config.script.map(VecDeque::from),
            trace: config.trace,
            chaos: config.chaos,
        }
    }

    fn note(&self, line: String) {
        if let Some(trace) = &self.trace {
            trace.lock().expect("sim trace poisoned").lines.push(line);
        }
    }

    fn record_decision(&self, choice: usize) {
        if let Some(trace) = &self.trace {
            trace
                .lock()
                .expect("sim trace poisoned")
                .decisions
                .push(choice);
        }
    }

    /// Pick the pending index to serve next: scripted if a script is
    /// attached (FIFO past its end), seeded otherwise.
    fn decide(&mut self, pending: usize) -> usize {
        match &mut self.script {
            Some(script) => script.pop_front().unwrap_or(0).min(pending - 1),
            None if pending == 1 => 0,
            None => self.rng.random_range(0..pending),
        }
    }
}

fn payload_kind(payload: &AskPayload) -> String {
    match payload {
        AskPayload::Concrete { .. } => "concrete".into(),
        AskPayload::Specialization { .. } => "specialization".into(),
        AskPayload::Pruning { .. } => "pruning".into(),
        AskPayload::Prefetch { candidates } => format!("prefetch[{}]", candidates.len()),
    }
}

fn outcome_kind(response: &AskResponse) -> String {
    match &response.outcome {
        AskOutcome::Answered(_) => format!("answered(attempts={})", response.attempts),
        AskOutcome::TimedOut { attempts } => format!("timeout(attempts={attempts})"),
        AskOutcome::Poisoned { .. } => "poisoned".into(),
    }
}

impl Executor for SimExecutor {
    fn submit(&mut self, request: AskRequest) {
        self.note(format!(
            "dispatch {} member={} kind={}{}",
            request.question,
            request.member.id(),
            payload_kind(&request.payload),
            if request.speculative { " spec" } else { "" },
        ));
        self.pending.push_back(request);
    }

    fn recv(&mut self) -> Option<AskResponse> {
        if self.pending.is_empty() {
            return None;
        }
        let pending = self.pending.len();
        let choice = self.decide(pending);
        self.record_decision(choice);
        let request = self
            .pending
            .remove(choice)
            .expect("choice is clamped to the pending set");
        let question = request.question;
        let mut response = serve(request, &self.sink, &self.options, &self.clock);
        if self.chaos == Some(SimChaos::SwapPrefetchAnswers) && choice != 0 {
            if let AskOutcome::Answered(AskValue::Prefetched(answers)) = &mut response.outcome {
                if answers.len() >= 2 && answers[0].1 != answers[1].1 {
                    let (a, b) = (answers[0].1, answers[1].1);
                    answers[0].1 = b;
                    answers[1].1 = a;
                    self.note(format!("chaos swap-prefetch {question}"));
                }
            }
        }
        self.note(format!(
            "t={}ns decide {}/{} serve {} -> {}",
            self.clock.now().as_nanos(),
            choice,
            pending,
            question,
            outcome_kind(&response),
        ));
        Some(response)
    }

    fn begin_shutdown(&mut self) {}

    fn finish_shutdown(&mut self) {}
}
