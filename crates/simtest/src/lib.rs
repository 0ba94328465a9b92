//! Deterministic simulation harness for the concurrent crowd runtime
//! (FoundationDB-style).
//!
//! A [`Scenario`] is one seeded run over the paper's travel domain: a
//! crowd recipe, the session plans, the engine configuration they mine
//! under, a question wave, an optional in-memory write-ahead log, a
//! transport and, for schedule exploration, a decision script or an
//! injected bug. [`run`] builds the scenario's simulated runtime — a
//! seeded scheduler owns every interleaving decision and all waiting
//! (member latency, timeouts, retries) happens on a virtual clock —
//! starts or recovers its [`OassisService`], drives it to its end (served
//! through [`SimNet`] when the transport says so) and reports one
//! [`RunOutcome`]. A run replays bit-identically from its seed at zero
//! wall-clock cost.
//!
//! The oracles are composed on top, one [`Suite`] each:
//!
//! * **faults** ([`check_seed`]) — one query under latency or dropping
//!   clones: replay, concurrent ≡ [`run_reference`] (a minimal in-line
//!   loop over a bare [`MiningSession::reference`], the un-indexed walk,
//!   that shares no code with the runtime's pool or the service), and
//!   obs-event conservation;
//! * **service** ([`check_service_seed`]) — concurrent sessions over one
//!   crowd: replay, single-session differential, no starvation,
//!   disjoint-roster isolation;
//! * **waves** ([`check_wave_seed`]) — question waves change nothing that
//!   is mined or charged;
//! * **durability** ([`check_durability_seed`]) — kill the durable service
//!   at any log append, recover, and finish with the uninterrupted
//!   answers;
//! * **net** ([`check_net_seed`]) — the same through the wire protocol,
//!   the server killed at every request frame and under frame faults.
//!
//! [`sweep`] runs a suite over a seed range. A seed whose run panics,
//! cannot admit, resume or recover, or overruns [`MAX_STEPS`] is reported
//! as that seed's [`OracleFailure`], and the sweep goes on; the bound
//! cannot catch a hang inside one call, such as a `submit` that never
//! returns. [`shrink`] reduces a failing faults-suite schedule to a
//! minimal set of non-FIFO scheduling decisions (the "minimal fault
//! trace"). Reproduce any failure with the printed one-liner:
//! `OASSIS_SIM_SEED=<seed> cargo run --release -p oassis-simtest --bin sim -- repro`.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use oassis_core::{
    Answer, AssignSpace, EngineConfig, MiningSession, Oassis, OassisService, QueryResult,
    QuestionPayload, RecoveredSession, RuntimeOptions, SessionEvent, SessionId, SessionReport,
    SessionRuntime, SessionSpec, SimChaos, SimConfig, SimTrace, SimTraceHandle,
};
use oassis_crowd::transaction::table3_dbs;
use oassis_crowd::{AnswerStore, CrowdMember, DbMember, MemberId, ResponseModel, UnreliableMember};
use oassis_net::{
    FaultConfig, NetClient, NetServer, Request, Response, SimNet, SimTransport, WireStatus,
    PROTOCOL_VERSION,
};
use oassis_obs::{names, null_sink, Event, EventKind, EventSink, InMemorySink, Snapshot};
use oassis_store::ontology::figure1_ontology;
use oassis_store_durable::{AdmitSpec, InMemory, Persistence, SharedPersistence, WalRecord};

/// `println!` for the `sim` and `figures` binaries: every line they print
/// goes through [`print_line`].
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::print_line(format_args!($($arg)*))
    };
}

/// Write one line to stdout. A reader that closed the pipe early
/// (`sim repro 7 | head -1`) ends the process quietly, with the status of a
/// process killed by `SIGPIPE`, instead of panicking as `println!` does.
pub fn print_line(line: std::fmt::Arguments) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    match out.write_fmt(line).and_then(|()| out.write_all(b"\n")) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(141),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// The paper's running travel-domain query (Figure 2 family).
pub const QUERY: &str = "SELECT FACT-SETS WHERE \
      $x instanceOf $w. $w subClassOf* Attraction. \
      $y subClassOf* Activity \
    SATISFYING $y doAt $x WITH SUPPORT = 0.4";

/// Seeds that once exposed (or are constructed to keep exposing) specific
/// bug classes; `tests/simulation.rs` replays them every run.
///
/// The even seeds select the latency fault family, whose member 0 is
/// scripted to answer its first question **exactly at** the per-question
/// deadline — the timeout-vs-late-answer race. The oracles prove the
/// answer is committed, never double-counted as an exclusion.
pub const REGRESSION_SEEDS: &[u64] = &[0, 2, 0xDEAD_BEE2, 0x5EED_5EED_5EED_5EE0];

/// Which fault family a faults-suite run injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultFamily {
    /// Latency + jitter on every member (no drops), with member 0's first
    /// answer landing exactly on the deadline. Nobody is excluded, so the
    /// run must match the sequential reference in both the valid-MSP set
    /// and the question count.
    Latency,
    /// The healthy crowd plus two clones whose channel drops every answer:
    /// the clones are deterministically timed out, retried and excluded.
    /// Question counts legitimately differ (asks wasted on the clones), so
    /// only the valid-MSP set is compared.
    DropClones,
}

impl FaultFamily {
    /// The family the faults suite derives from `seed`: even seeds get
    /// latency, odd seeds dropping clones.
    pub fn for_seed(seed: u64) -> FaultFamily {
        if seed.is_multiple_of(2) {
            FaultFamily::Latency
        } else {
            FaultFamily::DropClones
        }
    }
}

/// The crowd a scenario's runtime serves, with its timeouts and retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrowdRecipe {
    /// The faults suite's crowd: [`crowd`]`(3)` under one fault family.
    Faults(FaultFamily),
    /// The service suites' crowd: `crowd(2)`, instant or, with `latency`,
    /// answering after seed-derived delay + jitter (nobody excluded).
    Service {
        /// Whether members answer late.
        latency: bool,
    },
}

impl CrowdRecipe {
    /// Copies of the paper's u1/u2 member pair in the crowd (fault clones
    /// aside); the sequential reference runs over the same clean crowd.
    fn pairs(self) -> u32 {
        match self {
            CrowdRecipe::Faults(_) => 3,
            CrowdRecipe::Service { .. } => 2,
        }
    }
}

/// Splitmix-style seed mixing for per-member channel generators.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(i);
    z ^= z >> 31;
    z.wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// `n_pairs` copies of the paper's u1/u2 member pair; `DbMember` answers
/// are a pure function of the asked fact-set, which is the precondition of
/// the runtime's determinism guarantee.
pub fn crowd(n_pairs: u32) -> Vec<Box<dyn CrowdMember>> {
    let o = figure1_ontology();
    let vocab = Arc::new(o.vocabulary().clone());
    let (d1, d2) = table3_dbs(&vocab);
    let mut members: Vec<Box<dyn CrowdMember>> = Vec::new();
    for i in 0..n_pairs {
        members.push(Box::new(DbMember::new(
            MemberId(2 * i),
            d1.clone(),
            Arc::clone(&vocab),
        )));
        members.push(Box::new(DbMember::new(
            MemberId(2 * i + 1),
            d2.clone(),
            Arc::clone(&vocab),
        )));
    }
    members
}

/// Sorted rendered valid MSPs of a result.
pub fn valid_msp_set(result: &QueryResult) -> Vec<String> {
    let mut v: Vec<String> = result
        .answers
        .iter()
        .filter(|a| a.valid)
        .map(|a| a.rendered.clone())
        .collect();
    v.sort();
    v
}

/// The per-question timeout of the latency crowds. Virtual time makes
/// generous deadlines free, so it is deliberately huge relative to the
/// injected delays: nobody can be excluded by latency alone.
const LATENCY_TIMEOUT: Duration = Duration::from_secs(10);
/// The drop-clone family's timeout: small in virtual time (the sweep pays
/// nothing for it) but irrelevant to healthy members, who answer at t+0.
const DROP_TIMEOUT: Duration = Duration::from_millis(5);

/// `recipe`'s members and runtime options for `seed`. The two latency
/// formulas stay distinct: each suite keeps exploring its own schedules.
fn crowd_runtime(seed: u64, recipe: CrowdRecipe) -> SessionRuntime {
    let members = crowd(recipe.pairs());
    match recipe {
        CrowdRecipe::Faults(FaultFamily::Latency) => {
            let base = Duration::from_micros(200 + (seed % 8) * 150);
            let jitter = Duration::from_micros(400);
            let members: Vec<Box<dyn CrowdMember>> = members
                .into_iter()
                .enumerate()
                .map(|(i, m)| {
                    let model = ResponseModel::latency(base).with_jitter(jitter);
                    let wrapped = UnreliableMember::new(m, model, mix(seed, i as u64));
                    let wrapped = if i == 0 {
                        // The deadline-race regression: the first answer
                        // arrives exactly at the timeout and must be
                        // committed, not excluded.
                        wrapped.with_delay_script([Some(LATENCY_TIMEOUT)])
                    } else {
                        wrapped
                    };
                    Box::new(wrapped) as Box<dyn CrowdMember>
                })
                .collect();
            SessionRuntime::new(members)
                .question_timeout(LATENCY_TIMEOUT)
                .max_retries(2)
        }
        CrowdRecipe::Faults(FaultFamily::DropClones) => {
            let mut members = members;
            let o = figure1_ontology();
            let vocab = Arc::new(o.vocabulary().clone());
            let (d1, d2) = table3_dbs(&vocab);
            let always_drop = ResponseModel::instant().with_drop_probability(1.0);
            members.push(Box::new(UnreliableMember::new(
                Box::new(DbMember::new(MemberId(100), d1, Arc::clone(&vocab))),
                always_drop,
                mix(seed, 100),
            )));
            members.push(Box::new(UnreliableMember::new(
                Box::new(DbMember::new(MemberId(101), d2, vocab)),
                always_drop,
                mix(seed, 101),
            )));
            SessionRuntime::new(members)
                .question_timeout(DROP_TIMEOUT)
                .max_retries(1)
        }
        CrowdRecipe::Service { latency } => {
            let members = if latency {
                members
                    .into_iter()
                    .enumerate()
                    .map(|(i, m)| {
                        let base = Duration::from_micros(150 + (mix(seed, i as u64) % 1000));
                        let model =
                            ResponseModel::latency(base).with_jitter(Duration::from_micros(300));
                        Box::new(UnreliableMember::new(m, model, mix(seed, i as u64)))
                            as Box<dyn CrowdMember>
                    })
                    .collect()
            } else {
                members
            };
            SessionRuntime::new(members)
                .question_timeout(LATENCY_TIMEOUT)
                .max_retries(2)
        }
    }
}

/// The engine seed used for a scheduler seed. Kept to a small cycle so the
/// sequential references can be cached: the sweep's point is varying the
/// *schedule*, and the answer set must not move with it.
fn engine_seed(seed: u64) -> u64 {
    seed % 4
}

// ---------------------------------------------------------------------------
// Scenarios and the one runner.
// ---------------------------------------------------------------------------

/// The step bound of every run: scheduling cycles in-process, network
/// ticks when served. Only a livelock reaches it.
pub const MAX_STEPS: u64 = 200_000;

/// One seeded simulated run: what [`run`] builds, starts and drives.
/// Start from a constructor and change fields with struct-update syntax.
#[derive(Clone)]
pub struct Scenario {
    /// The scheduler seed; the engine seed derives from it.
    pub seed: u64,
    /// The crowd the simulated runtime serves.
    pub crowd: CrowdRecipe,
    /// The sessions, admitted in plan order.
    pub plans: Vec<ServicePlan>,
    /// Every plan's aggregator sample.
    pub aggregator_sample: usize,
    /// Plan `i` is submitted with token `base + i` (`None`: no tokens).
    pub tokens: Option<u64>,
    /// Questions each session keeps in flight per cycle.
    pub wave: usize,
    /// The write-ahead log. `None` runs a volatile service. An empty log
    /// starts a durable one; a crash image ([`InMemory::crashed_at`]) is
    /// recovered from, its interrupted sessions resumed and the plans it
    /// never admitted submitted. The run keeps appending to it.
    pub log: Option<Arc<Mutex<InMemory>>>,
    /// How the plans reach the service.
    pub transport: Transport,
    /// What the run records besides its outcomes.
    pub record: Record,
    /// Replay this scheduling-decision script instead of drawing decisions
    /// from the seed (the shrinker's replay mechanism).
    pub script: Option<Vec<usize>>,
    /// Deliberate bug injection, used to prove the harness catches and
    /// shrinks real schedule-dependent corruption.
    pub chaos: Option<SimChaos>,
}

/// How a scenario's plans reach its service.
#[derive(Debug, Clone, Copy)]
pub enum Transport {
    /// Submitted straight to the service.
    InProcess,
    /// Each plan driven end-to-end by its own protocol client over a
    /// seeded [`SimNet`] injecting `faults`. With `kill_at = Some(k)` the
    /// server process dies immediately *after* processing its `k`-th
    /// request frame (`k = 0`: before its first) — state mutated and WAL
    /// appended, response discarded, every connection severed — and is
    /// restarted a few ticks later by recovering from the same WAL;
    /// clients reconnect and resume. With `kill_again_at = Some(j)` as
    /// well, the restarted server dies the same way after its own `j`-th
    /// request frame (`j >= 1`) and is restarted once more, so a session
    /// resumed after the first kill can be interrupted again.
    Served {
        /// Frame faults the network injects.
        faults: FaultConfig,
        /// The request frame after which the server dies.
        kill_at: Option<u64>,
        /// The restarted server's request frame after which it dies too.
        kill_again_at: Option<u64>,
    },
}

/// What a run records besides its outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// Nothing (crash restarts and served runs are judged by outcome).
    Off,
    /// The service's counters and gauges, in order, and their totals.
    Events,
    /// The scheduler trace, and the totals of service and engine events.
    Schedule,
}

impl Scenario {
    /// `plans` as concurrent sessions of one volatile service over the
    /// service crowd, one question at a time, recording its events.
    pub fn service(seed: u64, plans: &[ServicePlan], latency: bool) -> Self {
        Scenario {
            seed,
            crowd: CrowdRecipe::Service { latency },
            plans: plans.to_vec(),
            aggregator_sample: SERVICE_AGGREGATOR_SAMPLE,
            tokens: Some(SIM_TOKEN_BASE),
            wave: 1,
            log: None,
            transport: Transport::InProcess,
            record: Record::Events,
            script: None,
            chaos: None,
        }
    }

    /// The faults suite's run: [`QUERY`] alone over `family`'s crowd with a
    /// question wave as wide as the runtime's workers, the wave
    /// `Oassis::execute_with_runtime` gives one query.
    pub fn faults(seed: u64, family: FaultFamily) -> Self {
        Scenario {
            crowd: CrowdRecipe::Faults(family),
            aggregator_sample: EngineConfig::default().aggregator_sample,
            tokens: None,
            wave: RuntimeOptions::default().workers,
            record: Record::Schedule,
            ..Self::service(seed, &service_plans(1), false)
        }
    }

    /// [`Scenario::service`] over a fresh in-memory WAL, compacted every
    /// [`SIM_SNAPSHOT_EVERY`] appends.
    pub fn durable(seed: u64, plans: &[ServicePlan], latency: bool) -> Self {
        let log = InMemory::new().with_snapshot_every(SIM_SNAPSHOT_EVERY);
        Scenario {
            log: Some(Arc::new(Mutex::new(log))),
            ..Self::service(seed, plans, latency)
        }
    }

    /// `plans` served to protocol clients by a durable service over the
    /// instant service crowd (see [`Transport::Served`]).
    pub fn served(
        seed: u64,
        plans: &[ServicePlan],
        faults: FaultConfig,
        kill_at: Option<u64>,
        kill_again_at: Option<u64>,
    ) -> Self {
        Scenario {
            aggregator_sample: NET_AGGREGATOR_SAMPLE,
            tokens: Some(NET_TOKEN_BASE),
            transport: Transport::Served {
                faults,
                kill_at,
                kill_again_at,
            },
            record: Record::Off,
            ..Self::durable(seed, plans, false)
        }
    }
}

/// What one session of a run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOutcome {
    /// Sorted rendered valid MSPs.
    pub msps: Vec<String>,
    /// Questions the session saw, store-served ones included (`None` when
    /// served: the terminal `Update` frame does not carry it).
    pub questions: Option<usize>,
    /// Questions dispatched to the crowd (a resumption counts its own).
    pub crowd_questions: usize,
    /// Dispatch-time answer-store hits.
    pub store_hits: usize,
    /// Terminal status, rendered.
    pub status: String,
}

/// Everything one scenario run produced.
#[derive(Default)]
pub struct RunOutcome {
    /// Per-plan outcomes, in plan order. `None` marks a plan whose session
    /// closed before the crash the scenario's log image records: the
    /// interrupted process delivered its report, so recovery (correctly)
    /// does not re-run it.
    pub sessions: Vec<Option<SessionOutcome>>,
    /// The scheduler trace ([`Record::Schedule`]) or the service events
    /// plus per-session summaries ([`Record::Events`]); byte-identical
    /// across replays of the seed.
    pub transcript: String,
    /// The scheduling decisions, replayable as [`Scenario::script`].
    pub decisions: Vec<usize>,
    /// Totals of the recorded events, taken after the crowd shut down.
    pub snapshot: Snapshot,
    /// Set when the recorded events show the runtime excluded every
    /// member: the sessions then closed with whatever they had mined.
    /// Only a fault crowd can exclude members, and only recorded runs
    /// ([`Record::Events`], [`Record::Schedule`]) can tell.
    pub exhausted: Option<String>,
    /// The live store's canonical records at the end of a durable
    /// in-process run.
    pub store: Vec<WalRecord>,
    /// Served: request frames the first server incarnation processed.
    pub events: u64,
    /// Served: the WAL length at the last kill.
    pub kill_len: Option<usize>,
    /// Served: unexpected `Error` frames the clients received.
    pub protocol_errors: Vec<String>,
    log: Option<Arc<Mutex<InMemory>>>,
}

impl RunOutcome {
    /// Plan `i`'s outcome; every plan has one unless the run recovered a
    /// crash image.
    pub fn session(&self, i: usize) -> &SessionOutcome {
        self.sessions[i]
            .as_ref()
            .expect("only a restart leaves a plan without an outcome")
    }

    /// The WAL a durable run appended to, as the run left it: its history
    /// and snapshot points, owned, so a caller holds no lock on the log.
    pub fn wal(&self) -> InMemory {
        let log = self
            .log
            .as_ref()
            .expect("a durable run keeps its log")
            .lock()
            .expect("wal");
        log.crashed_at(log.history_len())
    }
}

/// The sink of a recording run: the totals of every event and, when
/// `lines` is kept, each counter and gauge as an ordered line — the
/// byte-stable part of a service transcript.
#[derive(Debug)]
struct RecordingSink {
    lines: Option<Mutex<Vec<String>>>,
    totals: InMemorySink,
}

impl EventSink for RecordingSink {
    fn emit(&self, event: &Event<'_>) {
        self.totals.emit(event);
        let Some(lines) = &self.lines else { return };
        let line = match event.kind {
            EventKind::Counter(n) => {
                format!("{}[{}] +{n}", event.name, event.label.unwrap_or(""))
            }
            EventKind::Gauge(v) => format!("{} = {v}", event.name),
            _ => return,
        };
        lines.lock().expect("recording sink").push(line);
    }
}

impl RecordingSink {
    /// The recorded lines plus one summary line per report, in admission
    /// order; empty unless lines are kept.
    fn transcript(&self, reports: &[SessionReport]) -> String {
        let Some(lines) = &self.lines else {
            return String::new();
        };
        let mut transcript = lines.lock().expect("recording sink").join("\n");
        for (i, r) in reports.iter().enumerate() {
            transcript.push_str(&format!(
                "\nsession {i}: {} msps, {} questions ({} crowd, {} store), {:?}",
                r.result.answers.iter().filter(|a| a.valid).count(),
                r.result.stats.total_questions,
                r.crowd_questions,
                r.store_hits,
                r.status
            ));
        }
        transcript
    }
}

/// The engine configuration every plan of `sc` mines under, reporting
/// engine events to `sink`.
fn engine_config(sc: &Scenario, sink: Arc<dyn EventSink>) -> EngineConfig {
    EngineConfig::builder()
        .seed(engine_seed(sc.seed))
        .aggregator_sample(sc.aggregator_sample)
        .sink(sink)
        .build()
}

fn plan_spec(plan: &ServicePlan, config: &EngineConfig) -> SessionSpec {
    SessionSpec {
        query: plan.query.clone(),
        threshold: None,
        config: config.clone(),
        roster: plan.roster.clone(),
        priority: plan.priority,
        budget: plan.budget,
    }
}

fn session_outcome(r: &SessionReport) -> SessionOutcome {
    SessionOutcome {
        msps: valid_msp_set(&r.result),
        questions: Some(r.result.stats.total_questions),
        crowd_questions: r.crowd_questions,
        store_hits: r.store_hits,
        status: format!("{:?}", r.status),
    }
}

/// Build `sc`'s simulated runtime (recording the schedule into `trace`)
/// and start its service over `sink`: volatile without a log, otherwise
/// recovered from it — an empty log starts a fresh durable service.
fn start(
    sc: &Scenario,
    sink: Arc<dyn EventSink>,
    trace: Option<&SimTraceHandle>,
) -> Result<(OassisService, Vec<RecoveredSession>), OracleFailure> {
    let mut sim = SimConfig::new(sc.seed);
    if let Some(trace) = trace {
        sim = sim.record_into(Arc::clone(trace));
    }
    if let Some(script) = &sc.script {
        sim = sim.scripted(script.clone());
    }
    if let Some(chaos) = sc.chaos {
        sim = sim.chaos(chaos);
    }
    let runtime = crowd_runtime(sc.seed, sc.crowd).simulated(sim);
    let engine = Oassis::new(figure1_ontology());
    match &sc.log {
        None => Ok((
            OassisService::start_with_sink(engine, runtime, sink),
            Vec::new(),
        )),
        Some(log) => {
            let persistence = Arc::clone(log) as SharedPersistence;
            OassisService::recover_with(engine, runtime, sink, persistence)
                .map_err(|e| OracleFailure::new(sc.seed, "recovery", e.to_string()))
        }
    }
}

/// Run `sc` to its end. A plan that cannot be admitted or resumed, a log
/// that cannot be recovered or that the finished service does not
/// release, or a run over [`MAX_STEPS`] is a failure, never a panic or a
/// hang.
pub fn run(sc: &Scenario) -> Result<RunOutcome, OracleFailure> {
    run_bounded(sc, MAX_STEPS)
}

/// [`run`] with the step bound `max_steps`.
fn run_bounded(sc: &Scenario, max_steps: u64) -> Result<RunOutcome, OracleFailure> {
    match sc.transport {
        Transport::InProcess => run_in_process(sc, max_steps),
        Transport::Served {
            faults,
            kill_at,
            kill_again_at,
        } => run_served(sc, faults, [kill_at, kill_again_at], max_steps),
    }
}

fn run_in_process(sc: &Scenario, max_steps: u64) -> Result<RunOutcome, OracleFailure> {
    let recorder = Arc::new(RecordingSink {
        lines: (sc.record == Record::Events).then(Mutex::default),
        totals: InMemorySink::default(),
    });
    let sink: Arc<dyn EventSink> = match sc.record {
        Record::Off => null_sink(),
        Record::Events | Record::Schedule => Arc::clone(&recorder) as Arc<dyn EventSink>,
    };
    let trace = (sc.record == Record::Schedule).then(SimTrace::handle);
    // The append history is ground truth (compaction never rewrites it):
    // which plans a crash image had admitted. Sessions are admitted in
    // plan order, so plan index == original session id.
    let admitted: HashSet<u64> = match &sc.log {
        Some(log) => log
            .lock()
            .expect("wal")
            .history()
            .iter()
            .filter_map(|r| match r {
                WalRecord::Admit { session, .. } => Some(*session),
                _ => None,
            })
            .collect(),
        None => HashSet::new(),
    };

    let log_refs = sc.log.as_ref().map(Arc::strong_count);
    let (mut service, recovered) = start(sc, Arc::clone(&sink), trace.as_ref())?;
    service.set_wave_size(sc.wave);
    let mut plan_of: HashMap<u64, usize> = HashMap::new();
    for session in recovered {
        let plan = session.original.0 as usize;
        let id = service
            .resume(session)
            .map_err(|e| OracleFailure::new(sc.seed, "resumption", format!("plan {plan}: {e}")))?;
        plan_of.insert(id.0, plan);
    }
    // Only the faults suite's runs report engine events.
    let config = engine_config(
        sc,
        match sc.record {
            Record::Schedule => Arc::clone(&sink),
            Record::Off | Record::Events => null_sink(),
        },
    );
    for (i, plan) in sc.plans.iter().enumerate() {
        if admitted.contains(&(i as u64)) {
            continue;
        }
        let spec = plan_spec(plan, &config);
        let id = match sc.tokens {
            Some(base) => service.submit_with_token(spec, base + i as u64),
            None => service.submit(spec),
        }
        .map_err(|e| OracleFailure::new(sc.seed, "admission", format!("plan {i}: {e}")))?;
        plan_of.insert(id.0, i);
    }

    let mut steps = 0;
    while service.run_cycle() {
        steps += 1;
        if steps >= max_steps {
            return Err(OracleFailure::new(
                sc.seed,
                "livelock",
                format!("sessions still live after {steps} scheduling cycles"),
            ));
        }
    }
    let reports = service.run();
    let store = match sc.log {
        Some(_) => service.store().to_records(),
        None => Vec::new(),
    };
    let crowd_len = service.crowd_len() as u64;
    drop(service);
    if sc.log.as_ref().map(Arc::strong_count) != log_refs {
        return Err(OracleFailure::new(
            sc.seed,
            "recovery",
            "the finished service did not release its log",
        ));
    }
    let snapshot = recorder.totals.snapshot();
    let excluded = snapshot.counter_across_labels(names::RUNTIME_MEMBER_EXCLUDED);
    let exhausted = (excluded > 0 && excluded == crowd_len)
        .then(|| format!("crowd exhausted: all {excluded} members were excluded as unresponsive"));

    let mut sessions = vec![None; sc.plans.len()];
    for report in &reports {
        sessions[plan_of[&report.id.0]] = Some(session_outcome(report));
    }
    let (transcript, decisions) = match &trace {
        Some(trace) => {
            let trace = trace.lock().expect("sim trace lock");
            (trace.transcript(), trace.decisions.clone())
        }
        None => (recorder.transcript(&reports), Vec::new()),
    };
    Ok(RunOutcome {
        sessions,
        transcript,
        decisions,
        snapshot,
        exhausted,
        store,
        log: sc.log.clone(),
        ..RunOutcome::default()
    })
}

/// Mine `query_src` at its own `WITH SUPPORT` threshold with the minimal
/// sequential loop: poll a bare [`MiningSession`], ask the staged question's
/// member in-line, absorb the answer. It shares no code with the runtime's
/// pool or [`OassisService`], which makes it the independent reference
/// the differential oracles compare driven runs against. Answers come back
/// unrendered for the query's SELECT form (fact-set rendering).
pub fn run_sequential(
    engine: &Oassis,
    query_src: &str,
    members: &mut Vec<Box<dyn CrowdMember>>,
    config: &EngineConfig,
) -> QueryResult {
    run_loop(engine, query_src, members, config, MiningSession::new)
}

/// [`run_sequential`] on [`MiningSession::reference`]: the same loop over
/// the un-indexed walk, which memoizes no space derivation and scans its
/// classification knowledge linearly. It asks the questions the indexed
/// walk asks, only slower, so it is the baseline every index-layer check
/// compares against.
pub fn run_reference(
    engine: &Oassis,
    query_src: &str,
    members: &mut Vec<Box<dyn CrowdMember>>,
    config: &EngineConfig,
) -> QueryResult {
    run_loop(engine, query_src, members, config, MiningSession::reference)
}

/// How [`run_loop`] builds its session: [`MiningSession::new`] or
/// [`MiningSession::reference`].
type SessionCtor = fn(Arc<AssignSpace>, f64, Arc<EngineConfig>, Vec<MemberId>) -> MiningSession;

fn run_loop(
    engine: &Oassis,
    query_src: &str,
    members: &mut Vec<Box<dyn CrowdMember>>,
    config: &EngineConfig,
    session: SessionCtor,
) -> QueryResult {
    let query = engine.parse(query_src).expect("the reference query parses");
    let space = Arc::new(engine.space(&query, config).expect("space construction"));
    let seats = members.iter().map(|m| m.id()).collect();
    let threshold = query.satisfying.support;
    let mut session = session(space, threshold, Arc::new(config.clone()), seats);
    loop {
        match session.poll(members) {
            SessionEvent::Ask(q) => {
                let member = &mut members[q.seat];
                let answer = match &q.payload {
                    QuestionPayload::Concrete { factset, .. } => {
                        Answer::Support(member.ask_concrete(factset))
                    }
                    QuestionPayload::Specialization { base, candidates } => {
                        Answer::Choice(member.ask_specialization(base, candidates))
                    }
                    QuestionPayload::Pruning { factset } => {
                        Answer::Irrelevant(member.irrelevant_elements(factset))
                    }
                };
                session.absorb(q.id, answer);
            }
            SessionEvent::TurnEnded { .. } => {}
            SessionEvent::Finished => return session.finish(),
        }
    }
}

/// A sequential reference outcome: [`run_reference`] over a clean crowd.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Sorted rendered valid MSPs.
    pub msps: Vec<String>,
    /// Total questions the sequential run asked.
    pub questions: usize,
}

/// The sequential reference of [`QUERY`] over `sc`'s crowd without its
/// fault clones, mined by [`run_reference`] under `sc`'s engine
/// configuration. Cached by what it depends on: the crowd's size, the
/// aggregator sample and the engine seed (a small cycle of the scheduler
/// seed).
pub fn reference(sc: &Scenario) -> Arc<Reference> {
    type Cache = Mutex<HashMap<(u32, usize, u64), Arc<Reference>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (sc.crowd.pairs(), sc.aggregator_sample, engine_seed(sc.seed));
    if let Some(r) = cache.lock().expect("reference cache").get(&key) {
        return Arc::clone(r);
    }
    let mut members = crowd(key.0);
    let engine = Oassis::new(figure1_ontology());
    let config = engine_config(sc, null_sink());
    let result = run_reference(&engine, QUERY, &mut members, &config);
    let reference = Arc::new(Reference {
        msps: valid_msp_set(&result),
        questions: result.stats.total_questions,
    });
    cache
        .lock()
        .expect("reference cache")
        .insert(key, Arc::clone(&reference));
    reference
}

/// One oracle violation, with enough context to print and reproduce.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// The failing seed.
    pub seed: u64,
    /// Which oracle tripped (or `admission`, `resumption`, `recovery`,
    /// `livelock`, `panic` when a run could not finish).
    pub oracle: &'static str,
    /// What diverged.
    pub detail: String,
}

impl OracleFailure {
    /// `seed` failed `oracle`, as `detail` says.
    pub fn new(seed: u64, oracle: &'static str, detail: impl Into<String>) -> Self {
        OracleFailure {
            seed,
            oracle,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {} failed oracle `{}`: {} — repro: {}",
            self.seed,
            self.oracle,
            self.detail,
            repro_command(self.seed)
        )
    }
}

/// The one-line command that replays `seed` locally.
pub fn repro_command(seed: u64) -> String {
    format!("OASSIS_SIM_SEED={seed} cargo run --release -p oassis-simtest --bin sim -- repro")
}

/// Guard against vacuously-passing oracles: fail `oracle` if *every* MSP
/// set it is about to compare is empty — "nothing equals nothing" proves
/// nothing about crash recovery or equivalence. Every comparison oracle
/// calls this on its baseline; an oracle that legitimately expects empty
/// sets (none today) opts out by not calling it.
pub fn require_nonvacuous<'a>(
    seed: u64,
    oracle: &'static str,
    msp_sets: impl IntoIterator<Item = &'a Vec<String>>,
) -> Result<(), OracleFailure> {
    let mut any_set = false;
    for set in msp_sets {
        any_set = true;
        if !set.is_empty() {
            return Ok(());
        }
    }
    if !any_set {
        return Ok(()); // nothing to compare is the caller's bug, not vacuity
    }
    Err(OracleFailure::new(
        seed,
        oracle,
        "every MSP set is empty — the comparison would be vacuous",
    ))
}

fn counter(snap: &Snapshot, name: &str, label: &str) -> u64 {
    snap.counter(&format!("{name}[{label}]"))
}

/// The obs event-stream conservation laws: every question dispatched is
/// resolved exactly once; every timeout is either retried or ends the
/// question; exclusions match terminal failures; speculative work is fully
/// accounted as hit or wasted.
pub fn check_conservation(snap: &Snapshot) -> Result<(), String> {
    let dispatched = snap.counter_across_labels(names::RUNTIME_DISPATCHED);
    let resolved = snap.counter_across_labels(names::RUNTIME_RESOLVED);
    if dispatched != resolved {
        return Err(format!(
            "dispatched {dispatched} != resolved {resolved} (a question leaked)"
        ));
    }
    let timeouts = snap.counter_across_labels(names::RUNTIME_TIMEOUT);
    let retries = snap.counter(names::RUNTIME_RETRY);
    let resolved_timeout = counter(snap, names::RUNTIME_RESOLVED, "timeout");
    if timeouts != retries + resolved_timeout {
        return Err(format!(
            "timeouts {timeouts} != retries {retries} + terminal timeouts {resolved_timeout}"
        ));
    }
    let excluded_timeout = counter(snap, names::RUNTIME_MEMBER_EXCLUDED, "timeout");
    if excluded_timeout != resolved_timeout {
        return Err(format!(
            "excluded[timeout] {excluded_timeout} != resolved[timeout] {resolved_timeout}"
        ));
    }
    let excluded_poisoned = counter(snap, names::RUNTIME_MEMBER_EXCLUDED, "poisoned");
    let resolved_poisoned = counter(snap, names::RUNTIME_RESOLVED, "poisoned");
    if excluded_poisoned != resolved_poisoned {
        return Err(format!(
            "excluded[poisoned] {excluded_poisoned} != resolved[poisoned] {resolved_poisoned}"
        ));
    }
    let spec_dispatched = counter(snap, names::RUNTIME_SPECULATION, "dispatched");
    let spec_hit = counter(snap, names::RUNTIME_SPECULATION, "hit");
    let spec_wasted = counter(snap, names::RUNTIME_SPECULATION, "wasted");
    if spec_dispatched != spec_hit + spec_wasted {
        return Err(format!(
            "speculation dispatched {spec_dispatched} != hit {spec_hit} + wasted {spec_wasted}"
        ));
    }
    Ok(())
}

/// Compare a faults-suite outcome against the sequential reference per the
/// fault family's contract.
fn check_against_reference(
    sc: &Scenario,
    outcome: &RunOutcome,
    reference: &Reference,
) -> Result<(), String> {
    if let Some(e) = &outcome.exhausted {
        return Err(format!("run errored: {e}"));
    }
    let s = outcome.session(0);
    if s.msps != reference.msps {
        return Err(format!(
            "valid-MSP set diverged: got {} MSPs, reference has {}",
            s.msps.len(),
            reference.msps.len()
        ));
    }
    match sc.crowd {
        // Excluded clones legitimately waste questions; only the answer
        // set is schedule-independent.
        CrowdRecipe::Faults(FaultFamily::DropClones) => Ok(()),
        _ if s.questions != Some(reference.questions) => Err(format!(
            "question count diverged: {:?} vs reference {}",
            s.questions, reference.questions
        )),
        _ => Ok(()),
    }
}

/// Run every faults-suite oracle for one seed: two identical runs for the
/// replay oracle, the first also checked against the un-indexed
/// [`reference`] walk.
pub fn check_seed(seed: u64) -> Result<(), OracleFailure> {
    let fail = |oracle, detail: String| OracleFailure::new(seed, oracle, detail);
    let sc = Scenario::faults(seed, FaultFamily::for_seed(seed));
    let a = run(&sc)?;
    let b = run(&sc)?;
    if a.transcript != b.transcript {
        return Err(fail(
            "replay",
            "two runs of the same seed produced different transcripts".into(),
        ));
    }
    if a.decisions != b.decisions {
        return Err(fail(
            "replay",
            "two runs of the same seed made different scheduling decisions".into(),
        ));
    }
    check_against_reference(&sc, &a, &reference(&sc))
        .map_err(|d| fail("concurrent-vs-sequential", d))?;
    check_conservation(&a.snapshot).map_err(|d| fail("obs-conservation", d))?;
    Ok(())
}

/// The oracle suites, one per layer the harness drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// [`check_seed`]: one query under latency or dropping clones.
    Faults,
    /// [`check_service_seed`]: concurrent sessions over one crowd.
    Service,
    /// [`check_wave_seed`]: question waves change no outcome.
    Waves,
    /// [`check_durability_seed`]: kill at any log append and recover.
    Durability,
    /// [`check_net_seed`]: the same through the wire protocol.
    Net,
}

impl Suite {
    /// Every suite, in the order `sim repro` runs them.
    pub const ALL: [Suite; 5] = [
        Suite::Faults,
        Suite::Service,
        Suite::Durability,
        Suite::Waves,
        Suite::Net,
    ];

    /// Run every oracle of this suite for one seed.
    pub fn check(self, seed: u64) -> Result<(), OracleFailure> {
        match self {
            Suite::Faults => check_seed(seed),
            Suite::Service => check_service_seed(seed),
            Suite::Waves => check_wave_seed(seed),
            Suite::Durability => check_durability_seed(seed),
            Suite::Net => check_net_seed(seed),
        }
    }
}

/// Outcome of a [`sweep`].
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Seeds that passed every oracle.
    pub passed: u64,
    /// Oracle violations, in seed order.
    pub failures: Vec<OracleFailure>,
}

/// Run `suite`'s oracles over `seeds`.
pub fn sweep(suite: Suite, seeds: impl IntoIterator<Item = u64>) -> SweepReport {
    sweep_checks(seeds, |seed| suite.check(seed))
}

/// Run `check` over `seeds`. A check that panics fails its seed with
/// oracle `panic`, and the sweep goes on to the next seed.
fn sweep_checks(
    seeds: impl IntoIterator<Item = u64>,
    check: impl Fn(u64) -> Result<(), OracleFailure>,
) -> SweepReport {
    let mut report = SweepReport::default();
    for seed in seeds {
        let result = catch_unwind(AssertUnwindSafe(|| check(seed))).unwrap_or_else(|panic| {
            let detail = (panic.downcast_ref::<String>().map(String::as_str))
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("a non-string panic")
                .to_string();
            Err(OracleFailure::new(seed, "panic", detail))
        });
        match result {
            Ok(()) => report.passed += 1,
            Err(failure) => report.failures.push(failure),
        }
    }
    report
}

/// A shrunk failing schedule.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The minimal decision script that still fails (replay with
    /// [`Scenario::script`]).
    pub script: Vec<usize>,
    /// How many decisions deviate from FIFO — the size of the minimal
    /// fault trace.
    pub non_fifo: usize,
    /// Transcript of the minimal failing run.
    pub transcript: String,
}

/// Shrink a failing schedule to a minimal fault trace: greedily revert
/// scheduling decisions to FIFO (ddmin-style, halving chunk sizes) and
/// keep only the non-FIFO decisions the failure genuinely needs. `sc`
/// must record its schedule ([`Record::Schedule`]). Returns `None` if
/// `sc`'s run does not finish and fail `failing` in the first place.
pub fn shrink(sc: &Scenario, failing: impl Fn(&RunOutcome) -> bool) -> Option<ShrinkResult> {
    let rerun = |script: &[usize]| {
        run(&Scenario {
            script: Some(script.to_vec()),
            ..sc.clone()
        })
    };
    let initial = run(sc).ok().filter(|o| failing(o))?;
    let mut script = initial.decisions;

    let non_fifo_idxs = |s: &[usize]| {
        s.iter()
            .enumerate()
            .filter(|(_, d)| **d != 0)
            .map(|(i, _)| i)
            .collect::<Vec<_>>()
    };
    let mut chunk = non_fifo_idxs(&script).len().max(1);
    while chunk >= 1 {
        let idxs = non_fifo_idxs(&script);
        for window in idxs.chunks(chunk) {
            let mut candidate = script.clone();
            for &i in window {
                candidate[i] = 0;
            }
            if rerun(&candidate).is_ok_and(|o| failing(&o)) {
                script = candidate;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    while script.last() == Some(&0) {
        script.pop();
    }
    let outcome = rerun(&script).ok()?;
    debug_assert!(failing(&outcome), "shrinking must preserve the failure");
    Some(ShrinkResult {
        non_fifo: script.iter().filter(|&&d| d != 0).count(),
        transcript: outcome.transcript,
        script,
    })
}

/// A predicate for [`shrink`]: `sc`'s outcome diverges from the sequential
/// reference (per its fault family's contract) or breaks event
/// conservation.
pub fn diverges_from_reference(sc: &Scenario, outcome: &RunOutcome) -> bool {
    check_against_reference(sc, outcome, &reference(sc)).is_err()
        || check_conservation(&outcome.snapshot).is_err()
}

// ---------------------------------------------------------------------------
// The service suite: many concurrent pull-based sessions over one simulated
// crowd, driven from one seed.
// ---------------------------------------------------------------------------

/// The query rotation for multi-session runs: distinct SATISFYING targets
/// so every crowd dispatch is attributable, plus the full travel query for
/// overlap.
pub const SERVICE_QUERIES: &[&str] = &[
    QUERY,
    "SELECT FACT-SETS WHERE $y subClassOf* Activity \
     SATISFYING $y doAt <Central Park> WITH SUPPORT = 0.3",
    "SELECT FACT-SETS WHERE $y subClassOf* Activity \
     SATISFYING $y doAt <Bronx Zoo> WITH SUPPORT = 0.3",
];

/// One session of a scenario.
#[derive(Debug, Clone)]
pub struct ServicePlan {
    /// OASSIS-QL source.
    pub query: String,
    /// Pool seats the session may ask (`None` = all).
    pub roster: Option<Vec<usize>>,
    /// Scheduling priority.
    pub priority: u8,
    /// Crowd-question budget.
    pub budget: Option<usize>,
}

/// `n` full-roster, equal-priority sessions rotating over
/// [`SERVICE_QUERIES`].
pub fn service_plans(n: usize) -> Vec<ServicePlan> {
    (0..n)
        .map(|i| ServicePlan {
            query: SERVICE_QUERIES[i % SERVICE_QUERIES.len()].to_string(),
            roster: None,
            priority: 0,
            budget: None,
        })
        .collect()
}

/// Aggregator sample for service runs: the crowd has 4 members, and the
/// default sample of 5 would never fill — every pattern would classify
/// insignificant and the MSP oracles would compare empty sets. A sample
/// the crowd can fill keeps them non-vacuous (the harness queries yield
/// 3/2/1 valid MSPs).
pub const SERVICE_AGGREGATOR_SAMPLE: usize = 4;

/// Base for the per-plan `Submit` idempotency tokens of in-process service
/// runs (plan `i` uses `SIM_TOKEN_BASE + i`), so durable runs log tokens
/// and the crash oracles can check that recovery maps each back.
pub const SIM_TOKEN_BASE: u64 = 0x51A1_0000;

/// The starvation metric: over the ordered crowd dispatches of a run, the
/// maximum number of *other* sessions' dispatches between two consecutive
/// dispatches of the same session (while it still has questions left).
/// Round-robin scheduling keeps this small; a starving session would let
/// it grow with the finishing sessions' question counts.
pub fn max_dispatch_gap(outcome: &RunOutcome) -> usize {
    let prefix = format!("{}[", names::SERVICE_QUESTION_DISPATCHED);
    let dispatches: Vec<&str> = outcome
        .transcript
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .filter_map(|l| l.split(']').next())
        .collect();
    let mut max_gap = 0;
    let mut last_seen: HashMap<&str, usize> = HashMap::new();
    for (i, label) in dispatches.iter().enumerate() {
        if let Some(prev) = last_seen.insert(label, i) {
            max_gap = max_gap.max(i - prev - 1);
        }
    }
    max_gap
}

/// The fairness bound [`check_service_seed`] enforces on instant crowds:
/// between two dispatches of one session, every other live session gets at
/// most a handful of turns (1 per cycle, plus slack for stalled cycles).
pub const STARVATION_BOUND: usize = 16;

/// Plans for the disjoint-roster oracles: two single-target queries, one
/// over seats {0,1}, one over seats {2,3}.
pub fn disjoint_plans() -> (ServicePlan, ServicePlan) {
    (
        ServicePlan {
            query: SERVICE_QUERIES[1].to_string(),
            roster: Some(vec![0, 1]),
            priority: 0,
            budget: None,
        },
        ServicePlan {
            query: SERVICE_QUERIES[2].to_string(),
            roster: Some(vec![2, 3]),
            priority: 0,
            budget: None,
        },
    )
}

/// Run every service-level oracle for one seed:
///
/// 1. **service-replay** — the same seed twice yields a byte-identical
///    service transcript (events + outcomes);
/// 2. **single-session differential** — one session through the service ≡
///    the [`run_sequential`] reference (valid-MSP set and question count),
///    the tentpole invariant;
/// 3. **no-starvation** — on an instant crowd, three concurrent sessions
///    stay within [`STARVATION_BOUND`] of each other's dispatch cadence;
/// 4. **disjoint isolation** — two sessions with disjoint rosters produce
///    byte-for-byte the outcomes of running each alone.
pub fn check_service_seed(seed: u64) -> Result<(), OracleFailure> {
    let fail = |oracle, detail: String| OracleFailure::new(seed, oracle, detail);

    let plans = service_plans(3);
    let a = run(&Scenario::service(seed, &plans, true))?;
    let b = run(&Scenario::service(seed, &plans, true))?;
    if a.transcript != b.transcript {
        return Err(fail(
            "service-replay",
            "two runs of the same seed produced different service transcripts".into(),
        ));
    }

    let solo_scenario = Scenario::service(seed, &service_plans(1), true);
    let solo = run(&solo_scenario)?;
    require_nonvacuous(
        seed,
        "service-single-session",
        solo.sessions.iter().flatten().map(|s| &s.msps),
    )?;
    let reference = reference(&solo_scenario);
    let s = solo.session(0);
    if s.msps != reference.msps || s.questions != Some(reference.questions) {
        return Err(fail(
            "service-single-session",
            format!(
                "service session diverged from the sequential reference: {} MSPs / {:?} \
                 questions vs {} / {}",
                s.msps.len(),
                s.questions,
                reference.msps.len(),
                reference.questions
            ),
        ));
    }
    if s.store_hits != 0 {
        return Err(fail(
            "service-single-session",
            format!("empty store cannot hit, got {}", s.store_hits),
        ));
    }

    let instant = run(&Scenario::service(seed, &plans, false))?;
    let gap = max_dispatch_gap(&instant);
    if gap > STARVATION_BOUND {
        return Err(fail(
            "service-starvation",
            format!("dispatch gap {gap} exceeds bound {STARVATION_BOUND}"),
        ));
    }

    let (plan_a, plan_b) = disjoint_plans();
    // No vacuousness guard here: disjoint 2-seat rosters cannot fill the
    // service-wide aggregator sample, so these MSP sets are legitimately
    // empty — the oracle's point is outcome *identity*, not MSP content.
    let combined = run(&Scenario::service(
        seed,
        &[plan_a.clone(), plan_b.clone()],
        true,
    ))?;
    let alone_a = run(&Scenario::service(seed, &[plan_a], true))?;
    let alone_b = run(&Scenario::service(seed, &[plan_b], true))?;
    for (name, i, alone) in [("A", 0, &alone_a), ("B", 1, &alone_b)] {
        if combined.session(i) != alone.session(0) {
            return Err(fail(
                "service-isolation",
                format!(
                    "session {name} diverged from its isolated run: {:?} vs {:?}",
                    combined.session(i),
                    alone.session(0)
                ),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The waves suite: batched question waves must be invisible to the mining
// outcome. A wave-prefetched answer served at commit time is accounted
// exactly like a dispatch, so sweeping `wave_size` over the same seed must
// reproduce the baseline's valid-MSP sets and stage-time question counts —
// and, on disjoint rosters (no cross-session store traffic), the complete
// per-session outcome including crowd-question counts.
// ---------------------------------------------------------------------------

/// The wave sizes [`check_wave_seed`] sweeps. Index 0 is the baseline.
pub const WAVE_SIZES: &[usize] = &[1, 4, 16];

/// Run the wave-equivalence oracles for one seed:
///
/// 1. **wave-replay** — a waved run of the same seed replays to a
///    byte-identical transcript;
/// 2. **wave-equivalence** — three overlapping-roster sessions produce the
///    same valid-MSP sets, stage-time question counts and statuses at every
///    wave size (store-hit timing may shift, so crowd/store splits may not);
/// 3. **wave-disjoint** — two disjoint-roster sessions produce *identical*
///    outcomes at every wave size, crowd-question counts included;
/// 4. **wave-conservation** — every waved run's event stream obeys
///    [`check_conservation`]: each prefetched question is counted once, as
///    a hit or as waste.
pub fn check_wave_seed(seed: u64) -> Result<(), OracleFailure> {
    let fail = |oracle, detail: String| OracleFailure::new(seed, oracle, detail);
    let waved = |plans: &[ServicePlan], wave: usize| {
        run(&Scenario {
            wave,
            ..Scenario::service(seed, plans, true)
        })
    };

    let plans = service_plans(3);
    let base = waved(&plans, WAVE_SIZES[0])?;
    require_nonvacuous(
        seed,
        "wave-equivalence",
        base.sessions.iter().flatten().map(|s| &s.msps),
    )?;
    for &wave in &WAVE_SIZES[1..] {
        let w = waved(&plans, wave)?;
        let again = waved(&plans, wave)?;
        if w.transcript != again.transcript {
            return Err(fail(
                "wave-replay",
                format!("wave {wave}: two runs of the same seed produced different transcripts"),
            ));
        }
        check_conservation(&w.snapshot)
            .map_err(|d| fail("wave-conservation", format!("wave {wave}: {d}")))?;
        for i in 0..plans.len() {
            let (w, b) = (w.session(i), base.session(i));
            if w.msps != b.msps || w.questions != b.questions || w.status != b.status {
                return Err(fail(
                    "wave-equivalence",
                    format!(
                        "wave {wave} session {i} diverged from wave 1: \
                         {} MSPs / {:?} questions / {} vs {} / {:?} / {}",
                        w.msps.len(),
                        w.questions,
                        w.status,
                        b.msps.len(),
                        b.questions,
                        b.status
                    ),
                ));
            }
        }
    }

    let (plan_a, plan_b) = disjoint_plans();
    let disjoint = [plan_a, plan_b];
    let base = waved(&disjoint, WAVE_SIZES[0])?;
    for &wave in &WAVE_SIZES[1..] {
        let w = waved(&disjoint, wave)?;
        check_conservation(&w.snapshot)
            .map_err(|d| fail("wave-conservation", format!("wave {wave} disjoint: {d}")))?;
        if w.sessions != base.sessions {
            return Err(fail(
                "wave-disjoint",
                format!(
                    "wave {wave} disjoint outcomes diverged from wave 1: {:?} vs {:?}",
                    w.sessions, base.sessions
                ),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The durability suite: run a *durable* service over an in-memory WAL under
// the virtual clock, kill it at any append index, recover from the crash
// image, and prove the finished state matches the uninterrupted run.
// ---------------------------------------------------------------------------

/// Snapshot interval of durable runs — small enough that the kill-point
/// sweep crosses several log compactions.
pub const SIM_SNAPSHOT_EVERY: u64 = 8;

/// A crowd-question budget no simulated plan exhausts (sessions ask a few
/// hundred questions at most): it changes no outcome, but makes the
/// service log a `Budget` watermark per dispatch, which recovery must
/// restore.
pub const SIM_UNSPENT_BUDGET: usize = 10_000;

/// The durability suite's overlapping plans: [`service_plans`]`(3)`, the
/// odd-numbered ones carrying [`SIM_UNSPENT_BUDGET`], so their runs log
/// `Budget` watermarks while the others still run unbudgeted.
pub fn durability_plans() -> Vec<ServicePlan> {
    service_plans(3)
        .into_iter()
        .enumerate()
        .map(|(i, plan)| ServicePlan {
            budget: (i % 2 == 1).then_some(SIM_UNSPENT_BUDGET),
            ..plan
        })
        .collect()
}

/// The wave size of the waved durable run [`check_durable_waves`] checks.
pub const DURABLE_WAVE: usize = 4;

/// The waved-durability oracle for one seed, over `plans`: a durable run
/// at wave [`DURABLE_WAVE`]
///
/// * has the same per-session outcomes as the volatile waved run;
/// * logs exactly the live store — replaying its WAL rebuilds the live
///   store's `to_records()`, so no unpaid prefetch was logged and no paid
///   answer is missing;
/// * serves exactly the summed `store_hits` as `answerstore.hit[serve]`.
///
/// Returns whether the run committed any prefetch as a wave hit.
pub fn check_durable_waves(seed: u64, plans: &[ServicePlan]) -> Result<bool, OracleFailure> {
    let fail = |detail: String| OracleFailure::new(seed, "durable-waves", detail);
    let durable = run(&Scenario {
        wave: DURABLE_WAVE,
        ..Scenario::durable(seed, plans, true)
    })?;
    let volatile = run(&Scenario {
        wave: DURABLE_WAVE,
        ..Scenario::service(seed, plans, true)
    })?;
    if durable.sessions != volatile.sessions {
        return Err(fail(format!(
            "attaching the WAL changed waved outcomes: {:?} vs {:?}",
            durable.sessions, volatile.sessions
        )));
    }
    let records = durable
        .wal()
        .replay()
        .map_err(|e| fail(format!("the WAL does not replay: {e}")))?;
    let mut replayed = AnswerStore::new();
    replayed.replay_records(&records);
    let replayed = replayed.to_records();
    if replayed != durable.store {
        return Err(fail(format!(
            "replaying the WAL rebuilt {} answers, the live store held {}",
            replayed.len(),
            durable.store.len()
        )));
    }
    let hits: usize = durable
        .sessions
        .iter()
        .flatten()
        .map(|s| s.store_hits)
        .sum();
    let served = counter(&durable.snapshot, names::ANSWERSTORE_HIT, "serve");
    if hits as u64 != served {
        return Err(fail(format!(
            "sessions report {hits} store hits, the store served {served}"
        )));
    }
    Ok(counter(&durable.snapshot, names::RUNTIME_SPECULATION, "hit") > 0)
}

/// Kill points for one crash sweep over a log of `len` appends: both ends,
/// the quartiles, and one seed-derived index (so the sweep as a whole
/// visits arbitrary offsets).
fn kill_points(seed: u64, len: usize) -> Vec<usize> {
    let mut ks = vec![
        0,
        len / 4,
        len / 2,
        3 * len / 4,
        len,
        (mix(seed, 0xC4A5) as usize) % (len + 1),
    ];
    ks.sort_unstable();
    ks.dedup();
    ks
}

/// Everything a restart recovers from durable `image`, one line per
/// fact, for the compaction oracle to compare: the rebuilt store, the
/// interrupted sessions with their spend watermarks, and — for every
/// session id `history` admits (plus one unknown id) — its
/// [`OassisService::state`] and `resume_by_id` verdict, and the session
/// every logged idempotency token maps to. Fails if a recovered spend
/// watermark is below the last one `history` appended for that session.
fn recovered_view(
    seed: u64,
    image: InMemory,
    history: &[WalRecord],
) -> Result<Vec<String>, OracleFailure> {
    let sc = Scenario {
        log: Some(Arc::new(Mutex::new(image))),
        ..Scenario::service(seed, &[], true)
    };
    let (mut service, recovered) = start(&sc, null_sink(), None)?;
    let mut view = vec![format!("store {:?}", service.store().to_records())];
    for r in &recovered {
        let last = history.iter().rev().find_map(|record| match record {
            WalRecord::Budget { session, spent } if *session == r.original.0 => {
                Some(*spent as usize)
            }
            _ => None,
        });
        if r.spent < last.unwrap_or(0) {
            return Err(OracleFailure::new(
                sc.seed,
                "durable-compaction",
                format!(
                    "session {} recovered spend watermark {} below the last appended {last:?}",
                    r.original.0, r.spent
                ),
            ));
        }
        view.push(format!(
            "interrupted {} spent {} token {:?}",
            r.original.0, r.spent, r.token
        ));
    }
    let mut ids = 0..1;
    let mut tokens = Vec::new();
    for record in history {
        if let WalRecord::Admit { session, spec, .. } = record {
            ids.end = ids.end.max(session + 2);
            tokens.extend(spec.token);
        }
    }
    for id in ids.clone() {
        view.push(format!(
            "session {id} state {:?}",
            service.state(SessionId(id))
        ));
    }
    for token in tokens {
        view.push(format!(
            "token {token} -> {:?}",
            service.session_for_token(token)
        ));
    }
    for id in ids {
        let resumed = service
            .resume_by_id(SessionId(id))
            .map_err(|e| e.to_string());
        view.push(format!("resume {id} -> {resumed:?}"));
    }
    Ok(view)
}

/// The compaction oracle at kill point `k`: recovering `log`'s crash image,
/// compactions and all, must equal recovering a plain replay of the same
/// `k` appends with nothing compacted, and neither may restore a spend
/// watermark below the last one appended.
fn check_compacted_recovery(seed: u64, log: &InMemory, k: usize) -> Result<(), OracleFailure> {
    let prefix = &log.history()[..k];
    let mut plain = InMemory::new();
    for record in prefix {
        plain.append(record).expect("in-memory append");
    }
    let compacted = recovered_view(seed, log.crashed_at(k), prefix)?;
    let uncompacted = recovered_view(seed, plain, prefix)?;
    let fail = |detail: String| OracleFailure::new(seed, "durable-compaction", detail);
    match compacted.iter().zip(&uncompacted).find(|(a, b)| a != b) {
        Some((a, b)) => Err(fail(format!("compacted `{a}` vs uncompacted `{b}`"))),
        None if compacted.len() != uncompacted.len() => Err(fail(format!(
            "{} recovered facts compacted vs {} uncompacted",
            compacted.len(),
            uncompacted.len()
        ))),
        None => Ok(()),
    }
}

/// Crash `log` at `k` and [`check_compacted_recovery`] there; then finish
/// the run on the crash image (a restart scenario) and check again at kill
/// points after the restart, where the log holds resumption links and
/// closed successors (so closed outcomes alias to ancestor ids). Returns
/// the restart's per-plan outcomes for the other crash oracles.
fn check_compaction_across_restart(
    seed: u64,
    plans: &[ServicePlan],
    log: &InMemory,
    k: usize,
) -> Result<Vec<Option<SessionOutcome>>, OracleFailure> {
    let at = |place: String| {
        move |f: OracleFailure| OracleFailure {
            detail: format!("{place}: {}", f.detail),
            ..f
        }
    };
    check_compacted_recovery(seed, log, k).map_err(at(format!("kill at {k}")))?;
    let restart = run(&Scenario {
        log: Some(Arc::new(Mutex::new(log.crashed_at(k)))),
        record: Record::Off,
        ..Scenario::service(seed, plans, true)
    })
    .map_err(at(format!("kill at {k}, restart")))?;
    let relog = restart.wal();
    for k2 in kill_points(mix(seed, k as u64), relog.history_len()) {
        if k2 > k {
            check_compacted_recovery(seed, &relog, k2)
                .map_err(at(format!("kill at {k}, restart, kill at {k2}")))?;
        }
    }
    Ok(restart.sessions)
}

/// Committed crowd answers attributed to session `s` in the first `k`
/// appends — the questions the interrupted run had already paid for.
fn committed_answers(log: &InMemory, s: u64, k: usize) -> usize {
    log.history()[..k]
        .iter()
        .filter(|r| matches!(r, WalRecord::Answer { session: Some(id), .. } if *id == s))
        .count()
}

/// Run every durability oracle for one seed:
///
/// 1. **durable-transparency** — attaching the WAL changes nothing
///    observable: the durable run's per-session outcomes are identical to
///    the volatile run's;
/// 2. **durable-replay** — the same seed twice appends a byte-identical
///    record history (the WAL itself is deterministic);
/// 3. **durable-crash-msp** — for overlapping sessions, killing the
///    service at any sampled append index and recovering yields exactly
///    the uninterrupted run's valid-MSP set per plan;
/// 4. **durable-crash-counts** — for disjoint-roster sessions, the MSPs
///    *and* the per-plan crowd-question counts are preserved: answers
///    committed before the crash plus questions the resumption dispatches
///    equal the uninterrupted run's count (crashes never re-buy answers,
///    and never skip unpaid ones);
/// 5. **durable-compaction** — at every sampled kill point of both runs,
///    recovering the crash image, compactions and all, equals recovering
///    a plain replay of the same appends: the same store, interrupted
///    sessions and spend watermarks (none below the last one appended),
///    closed outcomes (ancestor aliases included), `resume_by_id`
///    verdicts and token mappings. The overlapping plans are
///    [`durability_plans`], so their runs log `Budget` watermarks;
/// 6. **durable-waves** — the overlapping plans at wave
///    [`DURABLE_WAVE`] pass [`check_durable_waves`]: the durable run
///    matches the volatile waved run, its log replays to exactly the live
///    store, and its store hits balance `answerstore.hit[serve]`.
pub fn check_durability_seed(seed: u64) -> Result<(), OracleFailure> {
    let fail = |oracle, detail: String| OracleFailure::new(seed, oracle, detail);

    let plans = durability_plans();
    let plain = run(&Scenario::service(seed, &plans, true))?;
    let durable = run(&Scenario::durable(seed, &plans, true))?;
    if durable.sessions != plain.sessions {
        return Err(fail(
            "durable-transparency",
            "attaching the WAL changed session outcomes".into(),
        ));
    }
    require_nonvacuous(
        seed,
        "durable-transparency",
        durable.sessions.iter().flatten().map(|s| &s.msps),
    )?;

    let again = run(&Scenario::durable(seed, &plans, true))?;
    {
        let (a, b) = (durable.wal(), again.wal());
        if a.history() != b.history() {
            return Err(fail(
                "durable-replay",
                format!(
                    "two runs of the same seed appended different histories \
                     ({} vs {} records)",
                    a.history_len(),
                    b.history_len()
                ),
            ));
        }
    }

    check_durable_waves(seed, &plans)?;

    let log = durable.wal();
    for k in kill_points(seed, log.history_len()) {
        let finished = check_compaction_across_restart(seed, &plans, &log, k)?;
        for (i, f) in finished.iter().enumerate() {
            let expected = &durable.session(i).msps;
            let got = f.as_ref().map_or(expected, |o| &o.msps);
            if got != expected {
                return Err(fail(
                    "durable-crash-msp",
                    format!(
                        "kill at {k}/{}: plan {i} recovered {} MSPs, expected {}",
                        log.history_len(),
                        got.len(),
                        expected.len()
                    ),
                ));
            }
        }
    }
    drop(log);

    let (plan_a, plan_b) = disjoint_plans();
    let dplans = vec![plan_a, plan_b];
    // Disjoint 2-seat rosters cannot fill the aggregator sample, so their
    // MSP sets are legitimately empty — this oracle is about crowd-question
    // *count* conservation, not MSP content; no vacuousness guard.
    let drun = run(&Scenario::durable(seed, &dplans, true))?;
    let dlog = drun.wal();
    for k in kill_points(mix(seed, 1), dlog.history_len()) {
        let finished = check_compaction_across_restart(seed, &dplans, &dlog, k)?;
        for (i, f) in finished.iter().enumerate() {
            let expected = drun.session(i);
            let Some(got) = f else { continue }; // closed pre-crash: final
            if got.msps != expected.msps {
                return Err(fail(
                    "durable-crash-counts",
                    format!("kill at {k}: plan {i} MSPs diverged"),
                ));
            }
            let combined = committed_answers(&dlog, i as u64, k) + got.crowd_questions;
            if combined != expected.crowd_questions {
                return Err(fail(
                    "durable-crash-counts",
                    format!(
                        "kill at {k}/{}: plan {i} paid {} crowd questions \
                         (committed + resumed), uninterrupted paid {}",
                        dlog.history_len(),
                        combined,
                        expected.crowd_questions
                    ),
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The net suite: serve a durable service through the `oassis-net` wire
// protocol over the deterministic `SimNet`, kill the server at *every*
// protocol-event index (and once more under injected frame faults), recover
// it from the live WAL image, reconnect the clients with `Resume`/tokened
// `Submit`, and require the terminal valid-MSP sets and crowd-question
// counts to match the uninterrupted run exactly.
// ---------------------------------------------------------------------------

/// Client steps between two `Poll`s of a running session — keeps the
/// protocol-event count (and with it the kill sweep) small without
/// starving the progress stream.
pub const NET_POLL_BACKOFF: u32 = 8;

/// Base for the per-plan `Submit` idempotency tokens of served runs, also
/// how the net oracle attributes WAL records to plans without trusting
/// client-side session-id bookkeeping.
pub const NET_TOKEN_BASE: u64 = 0x0A55_1500;

/// Service scheduling cycles per tick, so mining outpaces polling and the
/// event clock stays protocol-dominated.
const NET_PUMPS_PER_TICK: u32 = 4;

/// Ticks between a kill and the recovered server accepting connections.
const NET_RESTART_DELAY: u64 = 3;

/// Aggregator sample for the served runs' plans. They run the disjoint
/// 2-seat rosters (for isolation-exact crowd-question counts), and
/// [`SERVICE_AGGREGATOR_SAMPLE`] (4) could never fill from 2 seats —
/// every MSP set would be vacuously empty and the MSP-identity oracles
/// would compare nothing. Sampling both roster members reproduces the
/// full-crowd aggregate exactly: the simulated crowd is two copies of the
/// same member pair, so one copy's answers average to the whole crowd's.
pub const NET_AGGREGATOR_SAMPLE: usize = 2;

/// One simulated protocol client driving a plan end-to-end:
/// `Hello → Submit(token) → Poll…` with reconnect-and-`Resume` (or
/// re-`Submit` under the same token) whenever the connection dies.
struct NetDriver {
    spec: AdmitSpec,
    client: NetClient<SimTransport>,
    greeted: bool,
    needs_reconnect: bool,
    /// First session id this client was admitted as — the `Resume` target
    /// (the server resolves it to the last link of its resumption chain).
    original: Option<u64>,
    /// Session id to `Poll` (updated by `Admitted`/`Resumed`).
    current: Option<u64>,
    /// Whether `current` is known to this *connection* (a fresh connection
    /// re-attaches via `Resume` before polling).
    attached: bool,
    backoff: u32,
    outcome: Option<SessionOutcome>,
    protocol_errors: Vec<String>,
}

impl NetDriver {
    fn new(spec: AdmitSpec, transport: SimTransport) -> Self {
        NetDriver {
            spec,
            client: NetClient::new(transport),
            greeted: false,
            needs_reconnect: false,
            original: None,
            current: None,
            attached: false,
            backoff: 0,
            outcome: None,
            protocol_errors: Vec::new(),
        }
    }

    /// One client step: reconnect if needed, issue the next request of the
    /// conversation if idle, then drive the pending request.
    fn step(&mut self) {
        if self.outcome.is_some() {
            return;
        }
        if self.needs_reconnect {
            if self.client.reconnect().is_err() {
                return; // server still down; retry next tick
            }
            self.needs_reconnect = false;
            self.greeted = false;
            self.attached = false;
        }
        if !self.client.is_pending() {
            if self.backoff > 0 {
                self.backoff -= 1;
                return;
            }
            let req = if !self.greeted {
                Request::Hello {
                    version: PROTOCOL_VERSION,
                }
            } else if let (Some(original), false) = (self.original, self.attached) {
                Request::Resume { session: original }
            } else if let Some(current) = self.current {
                Request::Poll { session: current }
            } else {
                Request::Submit {
                    spec: self.spec.clone(),
                }
            };
            if self.client.request(&req).is_err() {
                self.needs_reconnect = true;
                return;
            }
        }
        match self.client.step() {
            Ok(Some(batch)) => self.absorb(batch),
            Ok(None) => {}
            Err(_) => self.needs_reconnect = true,
        }
    }

    fn absorb(&mut self, batch: Vec<Response>) {
        for resp in batch {
            match resp {
                Response::Welcome { .. } => self.greeted = true,
                Response::Admitted { session } => {
                    if self.original.is_none() {
                        self.original = Some(session);
                    }
                    self.current = Some(session);
                    self.attached = true;
                }
                Response::Resumed { session, .. } => {
                    self.current = Some(session);
                    self.attached = true;
                }
                // The Answer stream is best-effort progress reporting; the
                // terminal Update is what the oracles compare.
                Response::Answer { .. } => {}
                Response::Update {
                    status,
                    crowd_questions,
                    store_hits,
                    msps,
                    ..
                } => {
                    if status == WireStatus::Running {
                        self.backoff = NET_POLL_BACKOFF;
                    } else {
                        self.outcome = Some(SessionOutcome {
                            msps,
                            questions: None,
                            crowd_questions: crowd_questions as usize,
                            store_hits: store_hits as usize,
                            status: format!("{status:?}"),
                        });
                    }
                }
                Response::Error { detail } => {
                    if detail.contains("awaits Resume") {
                        // Raced a restart without noticing the disconnect:
                        // re-attach before the next poll.
                        self.attached = false;
                    } else {
                        self.protocol_errors.push(detail);
                    }
                }
                Response::Bye => {}
            }
        }
    }
}

/// Serve `sc`'s durable service over a seeded [`SimNet`], one
/// [`NetDriver`] per plan, for at most `max_steps` ticks, killing the
/// server at `kills` (see [`Transport::Served`]).
fn run_served(
    sc: &Scenario,
    faults: FaultConfig,
    kills: [Option<u64>; 2],
    max_steps: u64,
) -> Result<RunOutcome, OracleFailure> {
    let log = sc.log.as_ref().expect("a served scenario carries its log");
    let net = SimNet::new(sc.seed).with_faults(faults);
    // The recovered sessions are deliberately *not* auto-resumed: in the
    // protocol world resumption is client-driven (`Resume`, or a
    // retransmitted tokened `Submit`).
    let serve = || start(sc, null_sink(), None).map(|(service, _)| NetServer::new(service));
    let mut server = Some(serve()?);

    let config = engine_config(sc, null_sink());
    let mut drivers: Vec<NetDriver> = sc
        .plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let spec = plan_spec(plan, &config).to_admit(sc.tokens.map(|base| base + i as u64));
            NetDriver::new(spec, net.connect().expect("server starts alive"))
        })
        .collect();

    let mut events = 0u64;
    let mut kill_len: Option<usize> = None;
    // The kill points still ahead, each counted on the request frames of
    // the incarnation it kills.
    let mut ahead: VecDeque<u64> = kills.into_iter().map_while(|k| k).collect();
    let mut restart_at: Option<u64> = None;

    if ahead.front() == Some(&0) {
        ahead.pop_front();
        kill_len = Some(log.lock().expect("wal").history_len());
        net.kill_server();
        server = None;
        restart_at = Some(NET_RESTART_DELAY);
    }

    for tick in 0..max_steps {
        if drivers.iter().all(|d| d.outcome.is_some()) {
            break;
        }
        for driver in &mut drivers {
            driver.step();
        }
        net.tick();

        if server.is_none() && restart_at.is_some_and(|at| tick >= at) {
            server = Some(serve()?);
            net.restart_server();
            restart_at = None;
        }

        while server.is_some() {
            let Some((conn, line)) = net.server_recv() else {
                break;
            };
            let srv = server.as_mut().expect("checked above");
            let before = srv.events_processed();
            let batch = srv.on_line(conn, &line);
            let after = srv.events_processed();
            if after > before && ahead.front() == Some(&after) {
                // Die *after* the frame took effect, *before* answering —
                // the client cannot tell a lost request from a lost
                // response, and only idempotency keeps the retry safe.
                ahead.pop_front();
                kill_len = Some(log.lock().expect("wal").history_len());
                net.kill_server();
                server = None;
                restart_at = Some(tick + NET_RESTART_DELAY);
                break;
            }
            for resp in &batch {
                net.server_send(conn, resp);
            }
        }
        if let Some(srv) = server.as_mut() {
            for _ in 0..NET_PUMPS_PER_TICK {
                if !srv.pump() {
                    break;
                }
            }
            if kill_len.is_none() {
                events = srv.events_processed();
            }
        }
    }

    if let Some(i) = drivers.iter().position(|d| d.outcome.is_none()) {
        return Err(OracleFailure::new(
            sc.seed,
            "livelock",
            format!(
                "plan {i} never reached a terminal Update within {max_steps} ticks \
                 (kills {kills:?}, faults {faults:?})"
            ),
        ));
    }
    Ok(RunOutcome {
        sessions: drivers.iter().map(|d| d.outcome.clone()).collect(),
        events,
        kill_len,
        protocol_errors: drivers
            .iter()
            .flat_map(|d| d.protocol_errors.iter().cloned())
            .collect(),
        log: sc.log.clone(),
        ..RunOutcome::default()
    })
}

/// Every session id the WAL's first `upto` records admitted under `token`
/// (the original and any resumption successors).
fn token_chain(log: &InMemory, upto: usize, token: u64) -> HashSet<u64> {
    log.history()[..upto]
        .iter()
        .filter_map(|r| match r {
            WalRecord::Admit { session, spec, .. } if spec.token == Some(token) => Some(*session),
            _ => None,
        })
        .collect()
}

/// Check one killed run against the uninterrupted baseline: identical
/// valid-MSP sets and statuses per plan, no unexpected protocol errors,
/// and exact crowd-question conservation. Each plan's resumption chain
/// (every session admitted under its token) committed some answers to
/// the WAL before the last kill; with the questions the session live
/// after it paid, they equal the uninterrupted run's count. A chain whose
/// last link closed before the last kill has no such session: its
/// terminal `Update` must replay that link's `Close` record, and the
/// chain's committed answers alone must equal the uninterrupted count.
fn verify_net_crash(
    seed: u64,
    oracle: &'static str,
    base: &RunOutcome,
    killed: &RunOutcome,
    at: &str,
) -> Result<(), OracleFailure> {
    let fail = |detail: String| OracleFailure::new(seed, oracle, detail);
    if let Some(e) = killed.protocol_errors.first() {
        return Err(fail(format!("{at}: protocol error: {e}")));
    }
    let kill_len = killed
        .kill_len
        .expect("a killed run records its WAL length at the kill");
    let log = killed.wal();
    let prefix = &log.history()[..kill_len];
    for i in 0..base.sessions.len() {
        let (expected, got) = (base.session(i), killed.session(i));
        if got.msps != expected.msps {
            return Err(fail(format!(
                "{at}: plan {i} recovered {} MSPs, expected {}",
                got.msps.len(),
                expected.msps.len()
            )));
        }
        if got.status != expected.status {
            return Err(fail(format!(
                "{at}: plan {i} finished {}, expected {}",
                got.status, expected.status
            )));
        }
        let chain = token_chain(&log, kill_len, NET_TOKEN_BASE + i as u64);
        let committed = prefix
            .iter()
            .filter(
                |r| matches!(r, WalRecord::Answer { session: Some(s), .. } if chain.contains(s)),
            )
            .count();
        let closed = prefix.iter().find_map(|r| match r {
            WalRecord::Close {
                session,
                crowd_questions,
                ..
            } if chain.contains(session) => Some(*crowd_questions as usize),
            _ => None,
        });
        let paid = match closed {
            Some(close) if got.crowd_questions != close => {
                return Err(fail(format!(
                    "{at} (wal {kill_len}): plan {i} closed before the kill with {close} \
                     crowd questions, its terminal Update reports {}",
                    got.crowd_questions
                )));
            }
            Some(_) => committed,
            None => committed + got.crowd_questions,
        };
        if paid != expected.crowd_questions {
            return Err(fail(format!(
                "{at} (wal {kill_len}): plan {i} paid {paid} crowd questions \
                 ({committed} committed{}), uninterrupted paid {}",
                match closed {
                    Some(_) => ", closed pre-kill".to_string(),
                    None => format!(" + {} resumed", got.crowd_questions),
                },
                expected.crowd_questions
            )));
        }
    }
    Ok(())
}

/// Run every wire-protocol oracle for one seed, over the disjoint-roster
/// plan pair (so crowd-question counts are isolation-exact):
///
/// 1. **net-transparency** — the uninterrupted served run produces exactly
///    the outcomes (MSPs, crowd-question counts, statuses) of its
///    in-process twin, the same plans and configuration submitted straight
///    to a volatile service without tokens, with no stray `Error` frames,
///    and the MSP sets are non-vacuous (the net plans' aggregator sample
///    is roster-fillable precisely so this bites);
/// 2. **net-replay** — the same seed twice yields identical outcomes,
///    protocol-event counts and WAL histories;
/// 3. **net-crash** — for every protocol-event index `k` in `0..=events`,
///    killing the server right after frame `k` and recovering yields the
///    uninterrupted outcomes, with crowd-question conservation; and so
///    does killing the restarted server once more, at a seed-derived
///    event of its own, so resumption chains of two links are swept;
/// 4. **net-faults** — under injected frame drops, duplicates, delays and
///    severs ([`FaultConfig::light`]), the run still converges to the
///    uninterrupted outcomes — and so does a mid-run kill on top of the
///    faults.
pub fn check_net_seed(seed: u64) -> Result<(), OracleFailure> {
    let fail = |oracle, detail: String| OracleFailure::new(seed, oracle, detail);
    let (plan_a, plan_b) = disjoint_plans();
    let plans = vec![plan_a, plan_b];
    let served = |faults: FaultConfig, kill_at: Option<u64>, kill_again_at: Option<u64>| {
        run(&Scenario::served(
            seed,
            &plans,
            faults,
            kill_at,
            kill_again_at,
        ))
    };

    let base = served(FaultConfig::default(), None, None)?;
    if let Some(e) = base.protocol_errors.first() {
        return Err(fail("net-transparency", format!("protocol error: {e}")));
    }
    require_nonvacuous(
        seed,
        "net-transparency",
        base.sessions.iter().flatten().map(|o| &o.msps),
    )?;
    let inproc = run(&Scenario {
        tokens: None,
        log: None,
        transport: Transport::InProcess,
        ..Scenario::served(seed, &plans, FaultConfig::default(), None, None)
    })?;
    for i in 0..plans.len() {
        let (n, p) = (base.session(i), inproc.session(i));
        if n.msps != p.msps || n.crowd_questions != p.crowd_questions || n.status != p.status {
            return Err(fail(
                "net-transparency",
                format!(
                    "plan {i} served ({} MSPs, {} crowd, {}) vs in-process \
                     ({} MSPs, {} crowd, {})",
                    n.msps.len(),
                    n.crowd_questions,
                    n.status,
                    p.msps.len(),
                    p.crowd_questions,
                    p.status
                ),
            ));
        }
    }

    let again = served(FaultConfig::default(), None, None)?;
    if again.sessions != base.sessions || again.events != base.events {
        return Err(fail(
            "net-replay",
            format!(
                "two served runs of the same seed diverged ({} vs {} events)",
                base.events, again.events
            ),
        ));
    }
    {
        let (a, b) = (base.wal(), again.wal());
        if a.history() != b.history() {
            return Err(fail(
                "net-replay",
                format!(
                    "two served runs appended different WAL histories \
                     ({} vs {} records)",
                    a.history_len(),
                    b.history_len()
                ),
            ));
        }
    }

    if base.events == 0 {
        return Err(fail(
            "net-crash",
            "the served run processed no protocol events, so no kill point exists".into(),
        ));
    }
    for k in 0..=base.events {
        let killed = served(FaultConfig::default(), Some(k), None)?;
        verify_net_crash(
            seed,
            "net-crash",
            &base,
            &killed,
            &format!("kill at event {k}"),
        )?;
        // Kill the restarted server too: a session resumed after the first
        // kill may be interrupted again, and its client must reach the
        // chain's last link through the same original id.
        let j = 1 + mix(seed, k) % base.events;
        let twice = served(FaultConfig::default(), Some(k), Some(j))?;
        let at = format!("kill at event {k}, then at restarted event {j}");
        verify_net_crash(seed, "net-crash", &base, &twice, &at)?;
    }

    let faulted = served(FaultConfig::light(), None, None)?;
    if let Some(e) = faulted.protocol_errors.first() {
        return Err(fail("net-faults", format!("protocol error: {e}")));
    }
    for i in 0..plans.len() {
        let (n, b) = (faulted.session(i), base.session(i));
        if n != b {
            return Err(fail(
                "net-faults",
                format!("plan {i} diverged under frame faults: {n:?} vs {b:?}"),
            ));
        }
    }
    let mid = (faulted.events / 2).max(1);
    let faulted_killed = served(FaultConfig::light(), Some(mid), None)?;
    let at = format!("kill at event {mid}");
    verify_net_crash(seed, "net-faults", &base, &faulted_killed, &at)?;

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The harness catches a deliberately injected schedule-dependent bug
    /// (prefetch answers swapped on non-FIFO decisions — exactly the
    /// corruption a lost-ordering bug would cause) and shrinks the failing
    /// schedule to a handful of scheduling decisions.
    #[test]
    fn injected_prefetch_swap_is_caught_and_shrunk() {
        let scenario = |seed| Scenario {
            chaos: Some(SimChaos::SwapPrefetchAnswers),
            ..Scenario::faults(seed, FaultFamily::Latency)
        };
        let failing = (0..64)
            .map(scenario)
            .find(|sc| run(sc).is_ok_and(|o| diverges_from_reference(sc, &o)))
            .expect("the injected bug must be caught within 64 seeds");
        let shrunk = shrink(&failing, |o| diverges_from_reference(&failing, o))
            .expect("the failing seed shrinks");
        assert!(
            shrunk.non_fifo >= 1,
            "the bug only fires on non-FIFO decisions"
        );
        assert!(
            shrunk.non_fifo <= 5,
            "minimal fault trace too large: {} non-FIFO decisions",
            shrunk.non_fifo
        );
        // The minimal schedule must still replay deterministically.
        let replay = run(&Scenario {
            script: Some(shrunk.script.clone()),
            ..failing
        })
        .expect("the minimal schedule replays");
        assert_eq!(replay.transcript, shrunk.transcript);
    }

    /// The wave-sweep oracle must not be vacuous: at `wave_size > 1` the
    /// service really stages speculative prefetches and serves some staged
    /// questions from the wave cache (all counted like dispatches).
    #[test]
    fn waved_runs_actually_stage_and_hit() {
        let plans = service_plans(3);
        let transcript = |seed| {
            run(&Scenario {
                wave: 16,
                ..Scenario::service(seed, &plans, true)
            })
            .expect("the waved run finishes")
            .transcript
        };
        let staged = (0..16).any(|seed| transcript(seed).contains(names::WAVE_STAGED));
        assert!(staged, "no seed in 0..16 ever staged a wave");
        let hit = (0..16).any(|seed| transcript(seed).contains(names::WAVE_HIT));
        assert!(hit, "no seed in 0..16 ever served a staged answer");
    }

    #[test]
    fn chaos_off_passes_the_same_seeds() {
        let report = sweep(Suite::Faults, 0..4);
        assert!(
            report.failures.is_empty(),
            "clean sweep failed: {}",
            report.failures[0]
        );
        assert_eq!(report.passed, 4);
    }

    /// A seed whose plan cannot be admitted, runs over their step bound
    /// (in-process and served), and a check that panics each fail their
    /// own seed, with its repro line, while the sweep goes on.
    #[test]
    fn failing_runs_are_reported_and_the_sweep_goes_on() {
        let (plan_a, plan_b) = disjoint_plans();
        let report = sweep_checks(0..6, |seed| {
            let mut sc = Scenario::service(seed, &service_plans(1), false);
            match seed {
                1 => sc.plans[0].query = "SELECT nonsense".into(),
                3 => {
                    sc = Scenario::served(
                        seed,
                        &[plan_a.clone(), plan_b.clone()],
                        FaultConfig::default(),
                        None,
                        None,
                    )
                }
                4 => panic!("seed 4 panics"),
                _ => {}
            }
            let max_steps = if matches!(seed, 2 | 3) { 3 } else { MAX_STEPS };
            run_bounded(&sc, max_steps).map(drop)
        });
        assert_eq!(report.passed, 2, "seeds 0 and 5 pass");
        let failed: Vec<(u64, &str)> = report.failures.iter().map(|f| (f.seed, f.oracle)).collect();
        assert_eq!(
            failed,
            [
                (1, "admission"),
                (2, "livelock"),
                (3, "livelock"),
                (4, "panic")
            ]
        );
        assert_eq!(report.failures[3].detail, "seed 4 panics");
        for failure in &report.failures {
            assert!(failure.to_string().ends_with(&repro_command(failure.seed)));
        }
    }
}
