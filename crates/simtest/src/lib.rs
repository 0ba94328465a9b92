//! Deterministic simulation harness for the concurrent crowd runtime
//! (FoundationDB-style).
//!
//! One [`simulate`] call runs a **complete mining session** — the paper's
//! travel-domain query over the Table 3 crowd — on the runtime's
//! single-threaded simulation executor: a seeded scheduler owns every
//! interleaving decision and all waiting (member latency, timeouts,
//! retries) happens on a virtual clock, so a run replays bit-identically
//! from one `u64` seed at zero wall-clock cost.
//!
//! On top of that, [`check_seed`] runs the differential **oracles** that
//! pin down the paper's §5 guarantee (the answer set is independent of how
//! crowd answers arrive):
//!
//! 1. **replay** — the same seed twice yields byte-identical transcripts
//!    and decision sequences;
//! 2. **concurrent ≡ sequential** — valid-MSP set (and, when no member is
//!    excluded, question count) matches [`run_sequential`], a minimal
//!    in-line loop over a bare [`MiningSession`] that shares no code with
//!    the runtime's pool or the service;
//! 3. **indexed ≡ unindexed** — flipping `use_indexes` changes nothing
//!    observable;
//! 4. **obs conservation** — every `runtime.question.*` event issued is
//!    answered, retried, or excluded (no event leaks), and every prefetch
//!    is a hit or waste, checked on an `InMemorySink` snapshot.
//!
//! [`sweep`] drives `check_seed` across a seed range; [`shrink`] reduces a
//! failing schedule to a minimal set of non-FIFO scheduling decisions (the
//! "minimal fault trace"). Reproduce any failure with the printed
//! one-liner: `OASSIS_SIM_SEED=<seed> cargo test --test simulation` or
//! `cargo run --release -p oassis-simtest --bin sim -- repro <seed>`.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use oassis_core::engine::service::SessionReport;
use oassis_core::{
    Answer, EngineConfig, MiningSession, Oassis, OassisService, QueryResult, QuestionPayload,
    SessionEvent, SessionId, SessionRuntime, SessionSpec, SimChaos, SimConfig, SimTrace,
};
use oassis_net::{
    FaultConfig, NetClient, NetServer, Request, Response, SimNet, SimTransport, WireStatus,
    PROTOCOL_VERSION,
};
use oassis_store_durable::{AdmitSpec, InMemory, Persistence, SharedPersistence, WalRecord};
use oassis_crowd::transaction::table3_dbs;
use oassis_crowd::{CrowdMember, DbMember, MemberId, ResponseModel, UnreliableMember};
use oassis_obs::{names, Event, EventKind, EventSink, InMemorySink, Snapshot};
use oassis_store::ontology::figure1_ontology;

/// The paper's running travel-domain query (Figure 2 family), identical to
/// the one `tests/runtime_concurrency.rs` uses.
pub const QUERY: &str = "SELECT FACT-SETS WHERE \
      $x instanceOf $w. $w subClassOf* Attraction. \
      $y subClassOf* Activity \
    SATISFYING $y doAt $x WITH SUPPORT = 0.4";

const SUPPORT: f64 = 0.4;

/// Seeds that once exposed (or are constructed to keep exposing) specific
/// bug classes; `tests/simulation.rs` replays them every run.
///
/// The even seeds select the latency fault family, whose member 0 is
/// scripted to answer its first question **exactly at** the per-question
/// deadline — the timeout-vs-late-answer race. The oracles prove the
/// answer is committed, never double-counted as an exclusion.
pub const REGRESSION_SEEDS: &[u64] = &[0, 2, 0xDEAD_BEE2, 0x5EED_5EED_5EED_5EE0];

/// Which fault family a simulated run injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultFamily {
    /// Perfect channels: every answer instant and delivered.
    None,
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

/// How [`simulate`] picks the fault family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// No faults.
    None,
    /// Derive the family from the seed (even → latency, odd → drop
    /// clones) — what [`sweep`] uses.
    FromSeed,
    /// Force the latency family.
    Latency,
    /// Force the drop-clones family.
    DropClones,
}

impl FaultPlan {
    /// The concrete family this plan yields for `seed`.
    pub fn family(self, seed: u64) -> FaultFamily {
        match self {
            FaultPlan::None => FaultFamily::None,
            FaultPlan::Latency => FaultFamily::Latency,
            FaultPlan::DropClones => FaultFamily::DropClones,
            FaultPlan::FromSeed => {
                if seed.is_multiple_of(2) {
                    FaultFamily::Latency
                } else {
                    FaultFamily::DropClones
                }
            }
        }
    }
}

/// Knobs of one simulated run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Fault injection plan (default: derive from the seed).
    pub faults: FaultPlan,
    /// Engine `use_indexes` flag (default `true`; the indexed≡unindexed
    /// oracle flips it).
    pub use_indexes: bool,
    /// Replay an explicit scheduling-decision script instead of drawing
    /// decisions from the seed (the shrinker's replay mechanism).
    pub script: Option<Vec<usize>>,
    /// Deliberate bug injection, used to prove the harness catches and
    /// shrinks real schedule-dependent corruption.
    pub chaos: Option<SimChaos>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            faults: FaultPlan::FromSeed,
            use_indexes: true,
            script: None,
            chaos: None,
        }
    }
}

/// Everything one simulated run produced.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The scheduler seed.
    pub seed: u64,
    /// The fault family that was injected.
    pub family: FaultFamily,
    /// Sorted rendered valid MSPs (empty if the run errored).
    pub msps: Vec<String>,
    /// Total crowd questions asked (0 if the run errored).
    pub questions: usize,
    /// The byte-stable scheduler transcript (question order, retries,
    /// timeouts, exclusions).
    pub transcript: String,
    /// The raw scheduling decisions, replayable via `SimOptions::script`.
    pub decisions: Vec<usize>,
    /// Obs snapshot of the run's full event stream.
    pub snapshot: Snapshot,
    /// The engine error, if the run failed (e.g. crowd exhausted).
    pub error: Option<String>,
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

/// The latency family's per-question timeout. Virtual time makes generous
/// deadlines free, so it is deliberately huge relative to the injected
/// delays: nobody can be excluded by latency alone.
const LATENCY_TIMEOUT: Duration = Duration::from_secs(10);
/// The drop-clone family's timeout: small in virtual time (the sweep pays
/// nothing for it) but irrelevant to healthy members, who answer at t+0.
const DROP_TIMEOUT: Duration = Duration::from_millis(5);

/// Build the member set + runtime options for `(seed, family)`.
fn faulted_runtime(seed: u64, family: FaultFamily) -> SessionRuntime {
    match family {
        FaultFamily::None => SessionRuntime::new(crowd(3)),
        FaultFamily::Latency => {
            let base = Duration::from_micros(200 + (seed % 8) * 150);
            let jitter = Duration::from_micros(400);
            let members: Vec<Box<dyn CrowdMember>> = crowd(3)
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
        FaultFamily::DropClones => {
            let mut members = crowd(3);
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
    }
}

/// The engine seed used for a scheduler seed. Kept to a small cycle so the
/// sequential references can be cached: the sweep's point is varying the
/// *schedule*, and the answer set must not move with it.
fn engine_seed(seed: u64) -> u64 {
    seed % 4
}

fn engine_config(seed: u64, use_indexes: bool, sink: Arc<dyn EventSink>) -> EngineConfig {
    EngineConfig::builder()
        .seed(engine_seed(seed))
        .use_indexes(use_indexes)
        .sink(sink)
        .build()
}

/// Run one complete simulated session and report everything it did.
pub fn simulate(seed: u64, opts: &SimOptions) -> SimOutcome {
    let family = opts.faults.family(seed);
    let engine = Oassis::new(figure1_ontology());
    let query = engine.parse(QUERY).expect("the harness query parses");
    let mem = InMemorySink::shared();
    let cfg = engine_config(
        seed,
        opts.use_indexes,
        Arc::clone(&mem) as Arc<dyn EventSink>,
    );

    let trace = SimTrace::handle();
    let mut sim = SimConfig::new(seed).record_into(Arc::clone(&trace));
    if let Some(script) = &opts.script {
        sim = sim.scripted(script.clone());
    }
    if let Some(chaos) = opts.chaos {
        sim = sim.chaos(chaos);
    }
    let runtime = faulted_runtime(seed, family).simulated(sim);

    let (msps, questions, error) =
        match engine.execute_parsed_with_runtime(&query, SUPPORT, runtime, &cfg) {
            Ok(result) => (valid_msp_set(&result), result.stats.total_questions, None),
            Err(e) => (Vec::new(), 0, Some(e.to_string())),
        };
    let trace = trace.lock().expect("sim trace lock");
    SimOutcome {
        seed,
        family,
        msps,
        questions,
        transcript: trace.transcript(),
        decisions: trace.decisions.clone(),
        snapshot: mem.snapshot(),
        error,
    }
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
    let query = engine.parse(query_src).expect("the reference query parses");
    let space = Arc::new(engine.space(&query, config).expect("space construction"));
    let seats = members.iter().map(|m| m.id()).collect();
    let threshold = query.satisfying.support;
    let mut session = MiningSession::new(space, threshold, Arc::new(config.clone()), seats);
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

/// A sequential reference outcome: [`run_sequential`] over a clean crowd.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Sorted rendered valid MSPs.
    pub msps: Vec<String>,
    /// Total questions the sequential run asked.
    pub questions: usize,
}

/// The crowds the oracles compare against a reference: the fault sweep's
/// `crowd(3)` under the sweep's engine config, and the service runs'
/// `crowd(2)` under the service config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ReferenceCrowd {
    Sweep,
    Service,
}

/// The cached sequential reference of [`QUERY`] for `seed` over `crowd_kind`
/// (computed once per engine seed; see [`engine_seed`]'s cycle).
fn reference(seed: u64, crowd_kind: ReferenceCrowd) -> Arc<Reference> {
    type Cache = Mutex<HashMap<(ReferenceCrowd, u64), Arc<Reference>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (crowd_kind, engine_seed(seed));
    if let Some(r) = cache.lock().expect("reference cache").get(&key) {
        return Arc::clone(r);
    }
    let (mut members, cfg) = match crowd_kind {
        ReferenceCrowd::Sweep => (crowd(3), engine_config(seed, true, oassis_obs::null_sink())),
        ReferenceCrowd::Service => (crowd(2), service_config(seed)),
    };
    let engine = Oassis::new(figure1_ontology());
    let result = run_sequential(&engine, QUERY, &mut members, &cfg);
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

/// The cached sequential reference the fault sweep compares `seed`'s
/// simulated run against.
pub fn sequential_reference(seed: u64) -> Arc<Reference> {
    reference(seed, ReferenceCrowd::Sweep)
}

/// One oracle violation, with enough context to print and reproduce.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// The failing seed.
    pub seed: u64,
    /// Which oracle tripped.
    pub oracle: &'static str,
    /// What diverged.
    pub detail: String,
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
    Err(OracleFailure {
        seed,
        oracle,
        detail: "every MSP set is empty — the comparison would be vacuous".into(),
    })
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

/// Compare a simulated outcome against the sequential reference per the
/// fault family's contract.
fn check_against_reference(outcome: &SimOutcome, reference: &Reference) -> Result<(), String> {
    if let Some(e) = &outcome.error {
        return Err(format!("run errored: {e}"));
    }
    if outcome.msps != reference.msps {
        return Err(format!(
            "valid-MSP set diverged: got {} MSPs, reference has {}",
            outcome.msps.len(),
            reference.msps.len()
        ));
    }
    match outcome.family {
        FaultFamily::None | FaultFamily::Latency => {
            if outcome.questions != reference.questions {
                return Err(format!(
                    "question count diverged: {} vs reference {}",
                    outcome.questions, reference.questions
                ));
            }
            Ok(())
        }
        // Excluded clones legitimately waste questions; only the answer
        // set is schedule-independent.
        FaultFamily::DropClones => Ok(()),
    }
}

/// Run every oracle for one seed (three simulated runs: two identical for
/// the replay oracle, one with `use_indexes` flipped).
pub fn check_seed(seed: u64) -> Result<(), OracleFailure> {
    let fail = |oracle: &'static str, detail: String| OracleFailure {
        seed,
        oracle,
        detail,
    };
    let opts = SimOptions::default();
    let a = simulate(seed, &opts);
    let b = simulate(seed, &opts);
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
    let reference = sequential_reference(seed);
    check_against_reference(&a, &reference)
        .map_err(|d| fail("concurrent-vs-sequential", d))?;
    let unindexed = simulate(
        seed,
        &SimOptions {
            use_indexes: false,
            ..opts
        },
    );
    if unindexed.msps != a.msps || unindexed.questions != a.questions {
        return Err(fail(
            "indexed-vs-unindexed",
            format!(
                "use_indexes flip changed the outcome: {} MSPs / {} questions vs {} / {}",
                unindexed.msps.len(),
                unindexed.questions,
                a.msps.len(),
                a.questions
            ),
        ));
    }
    check_conservation(&a.snapshot).map_err(|d| fail("obs-conservation", d))?;
    check_conservation(&unindexed.snapshot).map_err(|d| fail("obs-conservation", d))?;
    Ok(())
}

/// Outcome of a [`sweep`].
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Seeds that passed every oracle.
    pub passed: u64,
    /// Oracle violations, in seed order.
    pub failures: Vec<OracleFailure>,
}

/// Run [`check_seed`] over `seeds`.
pub fn sweep(seeds: impl IntoIterator<Item = u64>) -> SweepReport {
    let mut report = SweepReport::default();
    for seed in seeds {
        match check_seed(seed) {
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
    /// `SimOptions::script`).
    pub script: Vec<usize>,
    /// How many decisions deviate from FIFO — the size of the minimal
    /// fault trace.
    pub non_fifo: usize,
    /// Transcript of the minimal failing run.
    pub transcript: String,
}

/// Shrink a failing seed to a minimal fault trace: greedily revert
/// scheduling decisions to FIFO (ddmin-style, halving chunk sizes) and
/// keep only the non-FIFO decisions the failure genuinely needs. Returns
/// `None` if `seed` does not fail `failing` in the first place.
pub fn shrink(
    seed: u64,
    opts: &SimOptions,
    failing: impl Fn(&SimOutcome) -> bool,
) -> Option<ShrinkResult> {
    let initial = simulate(seed, opts);
    if !failing(&initial) {
        return None;
    }
    let mut script = initial.decisions;
    let rerun = |script: &[usize]| {
        simulate(
            seed,
            &SimOptions {
                script: Some(script.to_vec()),
                ..opts.clone()
            },
        )
    };

    let non_fifo_idxs =
        |s: &[usize]| s.iter().enumerate().filter(|(_, d)| **d != 0).map(|(i, _)| i).collect::<Vec<_>>();
    let mut chunk = non_fifo_idxs(&script).len().max(1);
    while chunk >= 1 {
        let idxs = non_fifo_idxs(&script);
        for window in idxs.chunks(chunk) {
            let mut candidate = script.clone();
            for &i in window {
                candidate[i] = 0;
            }
            if failing(&rerun(&candidate)) {
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
    let outcome = rerun(&script);
    debug_assert!(failing(&outcome), "shrinking must preserve the failure");
    Some(ShrinkResult {
        non_fifo: script.iter().filter(|&&d| d != 0).count(),
        transcript: outcome.transcript,
        script,
    })
}

/// A predicate for [`shrink`]: the outcome diverges from the sequential
/// reference (per its family's contract) or breaks event conservation.
pub fn diverges_from_reference(outcome: &SimOutcome) -> bool {
    let reference = sequential_reference(outcome.seed);
    check_against_reference(outcome, &reference).is_err()
        || check_conservation(&outcome.snapshot).is_err()
}

// ---------------------------------------------------------------------------
// Multi-session service simulation (PR 5): whole `OassisService` runs — many
// concurrent pull-based sessions over one simulated crowd — driven from one
// seed, with service-level oracles (replay, starvation bound, disjoint-roster
// isolation, single-session differential).
// ---------------------------------------------------------------------------

/// The query rotation for multi-session service runs: distinct SATISFYING
/// targets so every crowd dispatch is attributable, plus the full travel
/// query for overlap.
pub const SERVICE_QUERIES: &[&str] = &[
    QUERY,
    "SELECT FACT-SETS WHERE $y subClassOf* Activity \
     SATISFYING $y doAt <Central Park> WITH SUPPORT = 0.3",
    "SELECT FACT-SETS WHERE $y subClassOf* Activity \
     SATISFYING $y doAt <Bronx Zoo> WITH SUPPORT = 0.3",
];

/// One session of a simulated service run.
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

/// An ordered record of every `service.*` / `answerstore.*` counter and
/// gauge a run emitted — the byte-stable part of a service transcript —
/// plus the aggregated snapshot the conservation laws are checked on.
#[derive(Debug, Default)]
struct RecordingSink {
    events: Mutex<Vec<String>>,
    totals: InMemorySink,
}

impl EventSink for RecordingSink {
    fn emit(&self, event: &Event<'_>) {
        self.totals.emit(event);
        let line = match event.kind {
            EventKind::Counter(n) => {
                format!("{}[{}] +{n}", event.name, event.label.unwrap_or(""))
            }
            EventKind::Gauge(v) => format!("{} = {v}", event.name),
            _ => return,
        };
        self.events.lock().expect("recording sink").push(line);
    }
}

/// What one session of a simulated service run produced. `Debug`-format
/// this (or compare fields) for byte-for-byte isolation oracles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSessionOutcome {
    /// Sorted rendered valid MSPs.
    pub msps: Vec<String>,
    /// Questions the session saw (store-served ones included).
    pub questions: usize,
    /// Questions actually dispatched to the crowd.
    pub crowd_questions: usize,
    /// Dispatch-time answer-store hits.
    pub store_hits: usize,
    /// Terminal status, rendered.
    pub status: String,
}

/// Everything one simulated service run produced.
#[derive(Debug, Clone)]
pub struct ServiceSimOutcome {
    /// The scheduler seed.
    pub seed: u64,
    /// Per-session outcomes, in admission order.
    pub sessions: Vec<ServiceSessionOutcome>,
    /// Ordered service events + per-session summaries; byte-identical
    /// across replays of the same seed.
    pub transcript: String,
    /// Obs snapshot of the run's full event stream, taken after the
    /// service shut its crowd down.
    pub snapshot: Snapshot,
}

/// Run a whole multi-session service on the simulation executor: every
/// session's crowd work happens over one simulated [`SessionRuntime`]
/// seeded by `seed`. With `latency`, members answer with seed-derived
/// delay + jitter (nobody excluded), so the sweep explores genuinely
/// different arrival schedules.
pub fn simulate_service(seed: u64, plans: &[ServicePlan], latency: bool) -> ServiceSimOutcome {
    run_service(seed, plans, latency, None, 1).0
}

/// [`simulate_service`] with question waves: the service stages up to
/// `wave` questions per session per cycle (speculative prefetches beyond
/// the committed one). The wave-sweep oracle compares these runs against
/// the `wave = 1` baseline.
pub fn simulate_service_waved(
    seed: u64,
    plans: &[ServicePlan],
    latency: bool,
    wave: usize,
) -> ServiceSimOutcome {
    run_service(seed, plans, latency, None, wave).0
}

/// The simulated service crowd: `crowd(2)` as-is, or wrapped in
/// seed-derived latency + jitter members (nobody excluded).
fn service_members(seed: u64, latency: bool) -> Vec<Box<dyn CrowdMember>> {
    if latency {
        crowd(2)
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                let base = Duration::from_micros(150 + (mix(seed, i as u64) % 1000));
                let model = ResponseModel::latency(base).with_jitter(Duration::from_micros(300));
                Box::new(UnreliableMember::new(m, model, mix(seed, i as u64)))
                    as Box<dyn CrowdMember>
            })
            .collect()
    } else {
        crowd(2)
    }
}

/// A fresh simulated runtime over [`service_members`].
fn service_runtime(seed: u64, latency: bool) -> SessionRuntime {
    SessionRuntime::new(service_members(seed, latency))
        .question_timeout(LATENCY_TIMEOUT)
        .max_retries(2)
        .simulated(SimConfig::new(seed))
}

/// Aggregator sample for service runs: the crowd has 4 members, and the
/// default sample of 5 would never fill — every pattern would classify
/// insignificant and the MSP oracles would compare empty sets. A sample
/// the crowd can fill keeps them non-vacuous (the harness queries yield
/// 3/2/1 valid MSPs).
pub const SERVICE_AGGREGATOR_SAMPLE: usize = 4;

/// The engine configuration service runs and their reference share.
fn service_config(seed: u64) -> EngineConfig {
    EngineConfig::builder()
        .seed(engine_seed(seed))
        .aggregator_sample(SERVICE_AGGREGATOR_SAMPLE)
        .build()
}

/// Base for the per-plan `Submit` idempotency tokens of in-process runs
/// (plan `i` uses `SIM_TOKEN_BASE + i`), so durable runs log tokens and
/// the crash oracles can check that recovery maps each back.
pub const SIM_TOKEN_BASE: u64 = 0x51A1_0000;

/// The admission spec for one plan of a seeded run.
fn plan_spec(seed: u64, plan: &ServicePlan) -> SessionSpec {
    SessionSpec {
        query: plan.query.clone(),
        threshold: None,
        config: service_config(seed),
        roster: plan.roster.clone(),
        priority: plan.priority,
        budget: plan.budget,
    }
}

fn session_outcome(r: &SessionReport) -> ServiceSessionOutcome {
    ServiceSessionOutcome {
        msps: valid_msp_set(&r.result),
        questions: r.result.stats.total_questions,
        crowd_questions: r.crowd_questions,
        store_hits: r.store_hits,
        status: format!("{:?}", r.status),
    }
}

/// One service run; with `persistence` attached it also returns the live
/// store's [`to_records`](oassis_crowd::AnswerStore::to_records) at the
/// end of the run (empty when volatile).
fn run_service(
    seed: u64,
    plans: &[ServicePlan],
    latency: bool,
    persistence: Option<SharedPersistence>,
    wave: usize,
) -> (ServiceSimOutcome, Vec<WalRecord>) {
    let durable = persistence.is_some();
    let runtime = service_runtime(seed, latency);
    let recorder = Arc::new(RecordingSink::default());
    let engine = Oassis::new(figure1_ontology());
    let sink = Arc::clone(&recorder) as Arc<dyn EventSink>;
    let mut service = match persistence {
        Some(p) => OassisService::start_with_persistence(engine, runtime, sink, p),
        None => OassisService::start_with_sink(engine, runtime, sink),
    };
    service.set_wave_size(wave);
    for (i, plan) in plans.iter().enumerate() {
        service
            .submit_with_token(plan_spec(seed, plan), SIM_TOKEN_BASE + i as u64)
            .expect("service plan admits");
    }
    let reports = service.run();
    let store = if durable {
        service.store().to_records()
    } else {
        Vec::new()
    };
    drop(service);
    let sessions: Vec<ServiceSessionOutcome> = reports.iter().map(session_outcome).collect();
    let mut transcript = recorder.events.lock().expect("recording sink").join("\n");
    for (i, s) in sessions.iter().enumerate() {
        transcript.push_str(&format!(
            "\nsession {i}: {} msps, {} questions ({} crowd, {} store), {}",
            s.msps.len(),
            s.questions,
            s.crowd_questions,
            s.store_hits,
            s.status
        ));
    }
    let outcome = ServiceSimOutcome {
        seed,
        sessions,
        transcript,
        snapshot: recorder.totals.snapshot(),
    };
    (outcome, store)
}

/// The starvation metric: over the ordered crowd dispatches of a run, the
/// maximum number of *other* sessions' dispatches between two consecutive
/// dispatches of the same session (while it still has questions left).
/// Round-robin scheduling keeps this small; a starving session would let
/// it grow with the finishing sessions' question counts.
pub fn max_dispatch_gap(outcome: &ServiceSimOutcome) -> usize {
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

/// Plans for the disjoint-roster isolation oracle: two single-target
/// queries, one over seats {0,1}, one over seats {2,3}.
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
    let fail = |oracle: &'static str, detail: String| OracleFailure {
        seed,
        oracle,
        detail,
    };

    let plans = service_plans(3);
    let a = simulate_service(seed, &plans, true);
    let b = simulate_service(seed, &plans, true);
    if a.transcript != b.transcript {
        return Err(fail(
            "service-replay",
            "two runs of the same seed produced different service transcripts".into(),
        ));
    }

    let solo = simulate_service(seed, &service_plans(1), true);
    require_nonvacuous(seed, "service-single-session", solo.sessions.iter().map(|s| &s.msps))?;
    let reference = reference(seed, ReferenceCrowd::Service);
    let s = &solo.sessions[0];
    if s.msps != reference.msps || s.questions != reference.questions {
        return Err(fail(
            "service-single-session",
            format!(
                "service session diverged from the sequential reference: {} MSPs / {} questions \
                 vs {} / {}",
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

    let instant = simulate_service(seed, &plans, false);
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
    let combined = simulate_service(seed, &[plan_a.clone(), plan_b.clone()], true);
    let alone_a = simulate_service(seed, &[plan_a], true);
    let alone_b = simulate_service(seed, &[plan_b], true);
    if combined.sessions[0] != alone_a.sessions[0] {
        return Err(fail(
            "service-isolation",
            format!(
                "session A diverged from its isolated run: {:?} vs {:?}",
                combined.sessions[0], alone_a.sessions[0]
            ),
        ));
    }
    if combined.sessions[1] != alone_b.sessions[0] {
        return Err(fail(
            "service-isolation",
            format!(
                "session B diverged from its isolated run: {:?} vs {:?}",
                combined.sessions[1], alone_b.sessions[0]
            ),
        ));
    }
    Ok(())
}

/// Run [`check_service_seed`] over `seeds`.
pub fn service_sweep(seeds: impl IntoIterator<Item = u64>) -> SweepReport {
    let mut report = SweepReport::default();
    for seed in seeds {
        match check_service_seed(seed) {
            Ok(()) => report.passed += 1,
            Err(failure) => report.failures.push(failure),
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Wave-sweep oracle (PR 8): batched question waves must be invisible to the
// mining outcome. A wave-prefetched answer served at commit time is accounted
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
    let fail = |oracle: &'static str, detail: String| OracleFailure {
        seed,
        oracle,
        detail,
    };

    let plans = service_plans(3);
    let base = simulate_service(seed, &plans, true);
    require_nonvacuous(seed, "wave-equivalence", base.sessions.iter().map(|s| &s.msps))?;
    for &wave in &WAVE_SIZES[1..] {
        let waved = simulate_service_waved(seed, &plans, true, wave);
        let again = simulate_service_waved(seed, &plans, true, wave);
        if waved.transcript != again.transcript {
            return Err(fail(
                "wave-replay",
                format!("wave {wave}: two runs of the same seed produced different transcripts"),
            ));
        }
        check_conservation(&waved.snapshot)
            .map_err(|d| fail("wave-conservation", format!("wave {wave}: {d}")))?;
        for (i, (w, b)) in waved.sessions.iter().zip(&base.sessions).enumerate() {
            if w.msps != b.msps || w.questions != b.questions || w.status != b.status {
                return Err(fail(
                    "wave-equivalence",
                    format!(
                        "wave {wave} session {i} diverged from wave 1: \
                         {} MSPs / {} questions / {} vs {} / {} / {}",
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
    let base = simulate_service(seed, &disjoint, true);
    for &wave in &WAVE_SIZES[1..] {
        let waved = simulate_service_waved(seed, &disjoint, true, wave);
        check_conservation(&waved.snapshot)
            .map_err(|d| fail("wave-conservation", format!("wave {wave} disjoint: {d}")))?;
        if waved.sessions != base.sessions {
            return Err(fail(
                "wave-disjoint",
                format!(
                    "wave {wave} disjoint outcomes diverged from wave 1: {:?} vs {:?}",
                    waved.sessions, base.sessions
                ),
            ));
        }
    }
    Ok(())
}

/// Run [`check_wave_seed`] over `seeds`.
pub fn wave_sweep(seeds: impl IntoIterator<Item = u64>) -> SweepReport {
    let mut report = SweepReport::default();
    for seed in seeds {
        match check_wave_seed(seed) {
            Ok(()) => report.passed += 1,
            Err(failure) => report.failures.push(failure),
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Crash-restart oracle (PR 7): run a *durable* service over an in-memory WAL
// under the virtual clock, kill it at any append index, recover from the
// crash image, and prove the finished state matches the uninterrupted run.
// ---------------------------------------------------------------------------

/// Snapshot interval for durable simulation runs — small enough that the
/// kill-point sweep crosses several log compactions.
pub const SIM_SNAPSHOT_EVERY: u64 = 8;

/// A crowd-question budget no simulated plan exhausts (sessions ask a few
/// hundred questions at most): it changes no outcome, but makes the
/// service log a `Budget` watermark per dispatch, which recovery must
/// restore.
pub const SIM_UNSPENT_BUDGET: usize = 10_000;

/// A durable service run: [`simulate_service`] with an [`InMemory`]
/// persistence attached. `log` keeps the complete append history, so the
/// crash sweep can reconstruct the durable image at any index via
/// [`InMemory::crashed_at`].
pub struct DurableRun {
    /// The uninterrupted run's outcome (identical to the plain run's —
    /// the durable-transparency oracle).
    pub outcome: ServiceSimOutcome,
    /// The WAL the run appended to, with full history and snapshot points.
    pub log: Arc<Mutex<InMemory>>,
    /// The live answer store's canonical records when the run finished.
    pub store: Vec<WalRecord>,
}

/// [`simulate_service`] with durability: every committed crowd answer,
/// admission and close is appended to an [`InMemory`] WAL, compacted every
/// `snapshot_every` records (`None` = never).
pub fn simulate_durable_service(
    seed: u64,
    plans: &[ServicePlan],
    latency: bool,
    snapshot_every: Option<u64>,
) -> DurableRun {
    simulate_durable_service_waved(seed, plans, latency, snapshot_every, 1)
}

/// [`simulate_durable_service`] with question waves of `wave` (see
/// [`simulate_service_waved`]): prefetched answers sit unpaid in the
/// persisted store until a session commits them.
pub fn simulate_durable_service_waved(
    seed: u64,
    plans: &[ServicePlan],
    latency: bool,
    snapshot_every: Option<u64>,
    wave: usize,
) -> DurableRun {
    let mut mem = InMemory::new();
    if let Some(every) = snapshot_every {
        mem = mem.with_snapshot_every(every);
    }
    let log = Arc::new(Mutex::new(mem));
    let persistence: SharedPersistence = Arc::clone(&log) as SharedPersistence;
    let (outcome, store) = run_service(seed, plans, latency, Some(persistence), wave);
    DurableRun {
        outcome,
        log,
        store,
    }
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
pub fn check_durable_waves(seed: u64, plans: &[ServicePlan]) -> Result<bool, String> {
    let run =
        simulate_durable_service_waved(seed, plans, true, Some(SIM_SNAPSHOT_EVERY), DURABLE_WAVE);
    let volatile = simulate_service_waved(seed, plans, true, DURABLE_WAVE);
    if run.outcome.sessions != volatile.sessions {
        return Err(format!(
            "attaching the WAL changed waved outcomes: {:?} vs {:?}",
            run.outcome.sessions, volatile.sessions
        ));
    }
    let records = run.log.lock().expect("wal").replay().expect("wal replays");
    let mut replayed = oassis_crowd::AnswerStore::new();
    replayed.replay_records(&records);
    let replayed = replayed.to_records();
    if replayed != run.store {
        return Err(format!(
            "replaying the WAL rebuilt {} answers, the live store held {}",
            replayed.len(),
            run.store.len()
        ));
    }
    let hits: usize = run.outcome.sessions.iter().map(|s| s.store_hits).sum();
    let served = counter(&run.outcome.snapshot, names::ANSWERSTORE_HIT, "serve");
    if hits as u64 != served {
        return Err(format!(
            "sessions report {hits} store hits, the store served {served}"
        ));
    }
    Ok(counter(&run.outcome.snapshot, names::RUNTIME_SPECULATION, "hit") > 0)
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

/// Finish an interrupted durable run: take the durable image as of append
/// `k` ([`InMemory::crashed_at`]), recover a fresh service from it
/// ([`OassisService::recover_with`]), resume every interrupted session,
/// re-submit the plans whose admission the crash predates, and run to
/// completion.
///
/// Returns one outcome per plan, in plan order. `None` means the session
/// closed *before* the crash: its report was already delivered by the
/// interrupted process, so recovery (correctly) does not re-run it — the
/// uninterrupted run's outcome stands.
pub fn finish_after_crash(
    seed: u64,
    plans: &[ServicePlan],
    latency: bool,
    log: &InMemory,
    k: usize,
) -> Vec<Option<ServiceSessionOutcome>> {
    restart_after_crash(seed, plans, latency, log, k).0
}

/// [`finish_after_crash`], also returning the log the restarted service
/// kept appending to: `log`'s first `k` records, then the resumptions,
/// re-submissions and everything they logged.
fn restart_after_crash(
    seed: u64,
    plans: &[ServicePlan],
    latency: bool,
    log: &InMemory,
    k: usize,
) -> (Vec<Option<ServiceSessionOutcome>>, InMemory) {
    // The append history is ground truth (compaction never rewrites it):
    // which sessions had been admitted, and which had closed, by index k.
    let prefix = &log.history()[..k];
    let admitted: HashSet<u64> = prefix
        .iter()
        .filter_map(|r| match r {
            WalRecord::Admit { session, .. } => Some(*session),
            _ => None,
        })
        .collect();

    let image = Arc::new(Mutex::new(log.crashed_at(k)));
    let persistence: SharedPersistence = Arc::clone(&image) as SharedPersistence;
    let engine = Oassis::new(figure1_ontology());
    let runtime = service_runtime(seed, latency);
    let (mut service, recovered) =
        OassisService::recover_with(engine, runtime, oassis_obs::null_sink(), persistence)
            .expect("recovery from a crash image succeeds");

    // Sessions are admitted in plan order, so plan index == original id.
    let mut plan_of: HashMap<u64, usize> = HashMap::new();
    for session in recovered {
        let plan = session.original.0 as usize;
        let id = service.resume(session).expect("resumption admits");
        plan_of.insert(id.0, plan);
    }
    for (i, plan) in plans.iter().enumerate() {
        if !admitted.contains(&(i as u64)) {
            let id = service
                .submit_with_token(plan_spec(seed, plan), SIM_TOKEN_BASE + i as u64)
                .expect("re-submission admits");
            plan_of.insert(id.0, i);
        }
    }

    let reports = service.run();
    drop(service);
    let mut out: Vec<Option<ServiceSessionOutcome>> = vec![None; plans.len()];
    for report in &reports {
        out[plan_of[&report.id.0]] = Some(session_outcome(report));
    }
    let image = Arc::try_unwrap(image)
        .ok()
        .expect("the finished service released the log")
        .into_inner()
        .expect("wal");
    (out, image)
}

/// Everything a restart recovers from durable `image`, one line per
/// fact, for the compaction oracle to compare: the rebuilt store, the
/// interrupted sessions with their spend watermarks, and — for every
/// session id `history` admits (plus one unknown id) — the closed
/// outcome, recoverability and `resume_by_id` verdict, and the session
/// every logged idempotency token maps to. Errs if a recovered spend
/// watermark is below the last one `history` appended for that session.
fn recovered_view(
    seed: u64,
    image: InMemory,
    history: &[WalRecord],
) -> Result<Vec<String>, String> {
    let persistence: SharedPersistence = Arc::new(Mutex::new(image));
    let (mut service, recovered) = OassisService::recover_with(
        Oassis::new(figure1_ontology()),
        service_runtime(seed, true),
        oassis_obs::null_sink(),
        persistence,
    )
    .expect("recovery from a crash image succeeds");
    let mut view = vec![format!("store {:?}", service.store().to_records())];
    for r in &recovered {
        let last = history.iter().rev().find_map(|record| match record {
            WalRecord::Budget { session, spent } if *session == r.original.0 => {
                Some(*spent as usize)
            }
            _ => None,
        });
        if r.spent < last.unwrap_or(0) {
            return Err(format!(
                "session {} recovered spend watermark {} below the last appended {last:?}",
                r.original.0, r.spent
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
        let id = SessionId(id);
        view.push(format!(
            "session {} closed {:?} recoverable {}",
            id.0,
            service.recovered_closed(id),
            service.is_recoverable(id)
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
fn check_compacted_recovery(seed: u64, log: &InMemory, k: usize) -> Result<(), String> {
    let prefix = &log.history()[..k];
    let mut plain = InMemory::new();
    for record in prefix {
        plain.append(record).expect("in-memory append");
    }
    let compacted = recovered_view(seed, log.crashed_at(k), prefix)?;
    let uncompacted = recovered_view(seed, plain, prefix)?;
    match compacted.iter().zip(&uncompacted).find(|(a, b)| a != b) {
        Some((a, b)) => Err(format!("compacted `{a}` vs uncompacted `{b}`")),
        None if compacted.len() != uncompacted.len() => Err(format!(
            "{} recovered facts compacted vs {} uncompacted",
            compacted.len(),
            uncompacted.len()
        )),
        None => Ok(()),
    }
}

/// Crash `log` at `k` and [`check_compacted_recovery`] there; then finish
/// the run on the crash image ([`restart_after_crash`]) and check again
/// at kill points after the restart, where the log holds resumption links
/// and closed successors (so closed outcomes alias to ancestor ids).
/// Returns the finished outcomes for the other crash oracles.
fn check_compaction_across_restart(
    seed: u64,
    plans: &[ServicePlan],
    log: &InMemory,
    k: usize,
) -> Result<Vec<Option<ServiceSessionOutcome>>, String> {
    check_compacted_recovery(seed, log, k).map_err(|e| format!("kill at {k}: {e}"))?;
    let (finished, relog) = restart_after_crash(seed, plans, true, log, k);
    for k2 in kill_points(mix(seed, k as u64), relog.history_len()) {
        if k2 > k {
            check_compacted_recovery(seed, &relog, k2)
                .map_err(|e| format!("kill at {k}, restart, kill at {k2}: {e}"))?;
        }
    }
    Ok(finished)
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
///    the plain [`simulate_service`] run's;
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
///    verdicts and token mappings. The odd-numbered overlapping plans
///    carry a budget no plan exhausts, so their runs log `Budget`
///    watermarks, while the others still run unbudgeted;
/// 6. **durable-waves** — the overlapping plans at wave
///    [`DURABLE_WAVE`] pass [`check_durable_waves`]: the durable run
///    matches the volatile waved run, its log replays to exactly the live
///    store, and its store hits balance `answerstore.hit[serve]`.
pub fn check_durability_seed(seed: u64) -> Result<(), OracleFailure> {
    let fail = |oracle: &'static str, detail: String| OracleFailure {
        seed,
        oracle,
        detail,
    };

    let plans: Vec<ServicePlan> = service_plans(3)
        .into_iter()
        .enumerate()
        .map(|(i, plan)| ServicePlan {
            budget: (i % 2 == 1).then_some(SIM_UNSPENT_BUDGET),
            ..plan
        })
        .collect();
    let plain = simulate_service(seed, &plans, true);
    let durable = simulate_durable_service(seed, &plans, true, Some(SIM_SNAPSHOT_EVERY));
    if durable.outcome.sessions != plain.sessions {
        return Err(fail(
            "durable-transparency",
            "attaching the WAL changed session outcomes".into(),
        ));
    }
    require_nonvacuous(
        seed,
        "durable-transparency",
        durable.outcome.sessions.iter().map(|s| &s.msps),
    )?;

    let again = simulate_durable_service(seed, &plans, true, Some(SIM_SNAPSHOT_EVERY));
    {
        let a = durable.log.lock().expect("wal");
        let b = again.log.lock().expect("wal");
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

    check_durable_waves(seed, &plans).map_err(|e| fail("durable-waves", e))?;

    let log = durable.log.lock().expect("wal");
    for k in kill_points(seed, log.history_len()) {
        let finished = check_compaction_across_restart(seed, &plans, &log, k)
            .map_err(|e| fail("durable-compaction", e))?;
        for (i, f) in finished.iter().enumerate() {
            let expected = &durable.outcome.sessions[i].msps;
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
    let drun = simulate_durable_service(seed, &dplans, true, Some(SIM_SNAPSHOT_EVERY));
    let dlog = drun.log.lock().expect("wal");
    for k in kill_points(mix(seed, 1), dlog.history_len()) {
        let finished = check_compaction_across_restart(seed, &dplans, &dlog, k)
            .map_err(|e| fail("durable-compaction", e))?;
        for (i, f) in finished.iter().enumerate() {
            let expected = &drun.outcome.sessions[i];
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

/// Run [`check_durability_seed`] over `seeds`.
pub fn durability_sweep(seeds: impl IntoIterator<Item = u64>) -> SweepReport {
    let mut report = SweepReport::default();
    for seed in seeds {
        match check_durability_seed(seed) {
            Ok(()) => report.passed += 1,
            Err(failure) => report.failures.push(failure),
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Protocol crash/partition oracle (PR 9): serve a durable service through the
// `oassis-net` wire protocol over the deterministic `SimNet`, kill the server
// at *every* protocol-event index (and once more under injected frame
// faults), recover it from the live WAL image, reconnect the clients with
// `Resume`/tokened `Submit`, and require the terminal valid-MSP sets and
// crowd-question counts to match the uninterrupted run exactly.
// ---------------------------------------------------------------------------

/// Client steps between two `Poll`s of a running session — keeps the
/// protocol-event count (and with it the kill sweep) small without
/// starving the progress stream.
pub const NET_POLL_BACKOFF: u32 = 8;

/// Base for the per-plan `Submit` idempotency tokens (plan `i` uses
/// `NET_TOKEN_BASE + i`), also how the oracle attributes WAL records to
/// plans without trusting client-side session-id bookkeeping.
pub const NET_TOKEN_BASE: u64 = 0x0A55_1500;

/// Virtual-tick budget for one networked run; exceeded only by a genuine
/// livelock, which the harness turns into a panic with context.
const NET_MAX_TICKS: u64 = 200_000;

/// Service scheduling cycles per tick, so mining outpaces polling and the
/// event clock stays protocol-dominated.
const NET_PUMPS_PER_TICK: u32 = 4;

/// Ticks between a kill and the recovered server accepting connections.
const NET_RESTART_DELAY: u64 = 3;

/// Aggregator sample for the networked oracles' plans. They run the
/// disjoint 2-seat rosters (for isolation-exact crowd-question counts),
/// and [`SERVICE_AGGREGATOR_SAMPLE`] (4) could never fill from 2 seats —
/// every MSP set would be vacuously empty and the MSP-identity oracles
/// would compare nothing. Sampling both roster members reproduces the
/// full-crowd aggregate exactly: the simulated crowd is two copies of the
/// same member pair, so one copy's answers average to the whole crowd's.
pub const NET_AGGREGATOR_SAMPLE: usize = 2;

/// [`plan_spec`] with the roster-fillable [`NET_AGGREGATOR_SAMPLE`].
fn net_plan_spec(seed: u64, plan: &ServicePlan) -> SessionSpec {
    let mut spec = plan_spec(seed, plan);
    spec.config.aggregator_sample = NET_AGGREGATOR_SAMPLE;
    spec
}

/// The served runs' in-process twin: the same plans with the same
/// [`net_plan_spec`] specs, submitted straight to an [`OassisService`]
/// with no wire in between. [`check_net_seed`]'s transparency oracle
/// compares against this (not [`simulate_service`], whose specs use the
/// service-wide aggregator sample).
fn run_net_inprocess(seed: u64, plans: &[ServicePlan]) -> Vec<ServiceSessionOutcome> {
    let mut service = OassisService::start_with_sink(
        Oassis::new(figure1_ontology()),
        service_runtime(seed, false),
        oassis_obs::null_sink(),
    );
    for plan in plans {
        service
            .submit(net_plan_spec(seed, plan))
            .expect("net plan admits");
    }
    service.run().iter().map(session_outcome).collect()
}

/// What one networked client observed at its session's end (terminal
/// `Update` frame): the authoritative valid-MSP set and the cost counter
/// the crash oracle compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetSessionOutcome {
    /// Terminal status, rendered like [`ServiceSessionOutcome::status`].
    pub status: String,
    /// Crowd questions the terminal session paid for itself (a resumed
    /// session counts only post-resume dispatches).
    pub crowd_questions: u64,
    /// Sorted rendered valid MSPs.
    pub msps: Vec<String>,
}

/// Everything one networked run produced.
pub struct NetRunOutcome {
    /// Per-plan terminal outcomes, in plan order.
    pub outcomes: Vec<NetSessionOutcome>,
    /// Protocol events (processed request frames) the *first* server
    /// incarnation saw — the kill-sweep domain for uninterrupted runs.
    pub events: u64,
    /// WAL length at the kill (`None` for uninterrupted runs).
    pub kill_len: Option<usize>,
    /// The WAL both server incarnations appended to.
    pub log: Arc<Mutex<InMemory>>,
    /// Unexpected `Error` frames any client received (empty on a healthy
    /// run; the oracles fail on any entry).
    pub protocol_errors: Vec<String>,
}

/// One simulated protocol client driving a plan end-to-end:
/// `Hello → Submit(token) → Poll…` with reconnect-and-`Resume` (or
/// re-`Submit` under the same token) whenever the connection dies.
struct NetDriver {
    spec: AdmitSpec,
    client: NetClient<SimTransport>,
    greeted: bool,
    needs_reconnect: bool,
    /// First session id this client was admitted as — the `Resume` target
    /// (the server maps a superseded id to its successor).
    original: Option<u64>,
    /// Session id to `Poll` (updated by `Admitted`/`Resumed`).
    current: Option<u64>,
    /// Whether `current` is known to this *connection* (a fresh connection
    /// re-attaches via `Resume` before polling).
    attached: bool,
    backoff: u32,
    outcome: Option<NetSessionOutcome>,
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
                    msps,
                    ..
                } => {
                    if status == WireStatus::Running {
                        self.backoff = NET_POLL_BACKOFF;
                    } else {
                        self.outcome = Some(NetSessionOutcome {
                            status: format!("{status:?}"),
                            crowd_questions,
                            msps,
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

/// Run `plans` as concurrent protocol clients of one durable served
/// service over a seeded [`SimNet`]. With `kill_at = Some(k)` the server
/// process dies immediately *after* processing its `k`-th request frame
/// (`k = 0`: before its first) — state mutated and WAL appended, response
/// discarded, every connection severed — and is restarted a few ticks
/// later by recovering from the same WAL; clients reconnect and resume.
pub fn run_net(
    seed: u64,
    plans: &[ServicePlan],
    faults: FaultConfig,
    kill_at: Option<u64>,
) -> NetRunOutcome {
    let net = SimNet::new(seed).with_faults(faults);
    let log = Arc::new(Mutex::new(
        InMemory::new().with_snapshot_every(SIM_SNAPSHOT_EVERY),
    ));
    let persistence: SharedPersistence = Arc::clone(&log) as SharedPersistence;
    let mut server = Some(NetServer::new(OassisService::start_with_persistence(
        Oassis::new(figure1_ontology()),
        service_runtime(seed, false),
        oassis_obs::null_sink(),
        persistence,
    )));

    let mut drivers: Vec<NetDriver> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let spec = net_plan_spec(seed, plan).to_admit(Some(NET_TOKEN_BASE + i as u64));
            NetDriver::new(spec, net.connect().expect("server starts alive"))
        })
        .collect();

    let mut events = 0u64;
    let mut kill_len: Option<usize> = None;
    let mut killed = false;
    let mut restart_at: Option<u64> = None;

    if kill_at == Some(0) {
        killed = true;
        kill_len = Some(log.lock().expect("wal").history_len());
        net.kill_server();
        server = None;
        restart_at = Some(NET_RESTART_DELAY);
    }

    for tick in 0..NET_MAX_TICKS {
        if drivers.iter().all(|d| d.outcome.is_some()) {
            break;
        }
        for driver in &mut drivers {
            driver.step();
        }
        net.tick();

        if server.is_none() && restart_at.is_some_and(|at| tick >= at) {
            let persistence: SharedPersistence = Arc::clone(&log) as SharedPersistence;
            // The recovered sessions are deliberately *not* auto-resumed:
            // in the protocol world resumption is client-driven (`Resume`,
            // or a retransmitted tokened `Submit`).
            let (service, _recovered) = OassisService::recover_with(
                Oassis::new(figure1_ontology()),
                service_runtime(seed, false),
                oassis_obs::null_sink(),
                persistence,
            )
            .expect("recovery from the live WAL image succeeds");
            server = Some(NetServer::new(service));
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
            if !killed && after > before && kill_at == Some(after) {
                // Die *after* the frame took effect, *before* answering —
                // the client cannot tell a lost request from a lost
                // response, and only idempotency keeps the retry safe.
                killed = true;
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
            if !killed {
                events = srv.events_processed();
            }
        }
    }

    let outcomes: Vec<NetSessionOutcome> = drivers
        .iter()
        .enumerate()
        .map(|(i, d)| {
            d.outcome.clone().unwrap_or_else(|| {
                panic!(
                    "seed {seed}: plan {i} never reached a terminal Update within \
                     {NET_MAX_TICKS} ticks (kill_at {kill_at:?}, faults {faults:?})"
                )
            })
        })
        .collect();
    let protocol_errors = drivers
        .iter()
        .flat_map(|d| d.protocol_errors.iter().cloned())
        .collect();
    NetRunOutcome {
        outcomes,
        events,
        kill_len,
        log,
        protocol_errors,
    }
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
/// and exact crowd-question conservation — answers committed to the WAL
/// before the kill plus questions the resumed session paid equal the
/// uninterrupted run's count (a session that closed *before* the kill
/// must simply report the uninterrupted count).
fn verify_net_crash(
    seed: u64,
    oracle: &'static str,
    base: &NetRunOutcome,
    killed: &NetRunOutcome,
    k: u64,
) -> Result<(), OracleFailure> {
    let fail = |detail: String| OracleFailure {
        seed,
        oracle,
        detail,
    };
    if let Some(e) = killed.protocol_errors.first() {
        return Err(fail(format!("kill at event {k}: protocol error: {e}")));
    }
    let kill_len = killed
        .kill_len
        .expect("a killed run records its WAL length at the kill");
    let log = killed.log.lock().expect("wal");
    for (i, (expected, got)) in base.outcomes.iter().zip(&killed.outcomes).enumerate() {
        if got.msps != expected.msps {
            return Err(fail(format!(
                "kill at event {k}: plan {i} recovered {} MSPs, expected {}",
                got.msps.len(),
                expected.msps.len()
            )));
        }
        if got.status != expected.status {
            return Err(fail(format!(
                "kill at event {k}: plan {i} finished {}, expected {}",
                got.status, expected.status
            )));
        }
        let chain = token_chain(&log, kill_len, NET_TOKEN_BASE + i as u64);
        let closed_pre = log.history()[..kill_len].iter().any(
            |r| matches!(r, WalRecord::Close { session, .. } if chain.contains(session)),
        );
        let committed = log.history()[..kill_len]
            .iter()
            .filter(
                |r| matches!(r, WalRecord::Answer { session: Some(s), .. } if chain.contains(s)),
            )
            .count() as u64;
        let paid = if closed_pre {
            // Closed before the kill: the terminal Update replays the
            // durable Close record's full count; the committed answers
            // *are* that count, not an addition to it.
            got.crowd_questions
        } else {
            committed + got.crowd_questions
        };
        if paid != expected.crowd_questions {
            return Err(fail(format!(
                "kill at event {k} (wal {kill_len}): plan {i} paid {paid} crowd \
                 questions ({committed} committed + {} resumed{}), uninterrupted \
                 paid {}",
                got.crowd_questions,
                if closed_pre { ", closed pre-kill" } else { "" },
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
///    its in-process twin's outcomes (MSPs, crowd-question counts,
///    statuses — see [`run_net_inprocess`]), with no stray `Error` frames,
///    and the MSP sets are non-vacuous (the net plans' aggregator sample
///    is roster-fillable precisely so this bites);
/// 2. **net-replay** — the same seed twice yields identical outcomes,
///    protocol-event counts and WAL histories;
/// 3. **net-crash** — for every protocol-event index `k` in `0..=events`,
///    killing the server right after frame `k` and recovering yields the
///    uninterrupted outcomes, with crowd-question conservation;
/// 4. **net-faults** — under injected frame drops, duplicates, delays and
///    severs ([`FaultConfig::light`]), the run still converges to the
///    uninterrupted outcomes — and so does a mid-run kill on top of the
///    faults.
pub fn check_net_seed(seed: u64) -> Result<(), OracleFailure> {
    let fail = |oracle: &'static str, detail: String| OracleFailure {
        seed,
        oracle,
        detail,
    };
    let (plan_a, plan_b) = disjoint_plans();
    let plans = vec![plan_a, plan_b];

    let base = run_net(seed, &plans, FaultConfig::default(), None);
    if let Some(e) = base.protocol_errors.first() {
        return Err(fail("net-transparency", format!("protocol error: {e}")));
    }
    require_nonvacuous(
        seed,
        "net-transparency",
        base.outcomes.iter().map(|o| &o.msps),
    )?;
    let inproc = run_net_inprocess(seed, &plans);
    for (i, (n, p)) in base.outcomes.iter().zip(&inproc).enumerate() {
        if n.msps != p.msps
            || n.crowd_questions != p.crowd_questions as u64
            || n.status != p.status
        {
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

    let again = run_net(seed, &plans, FaultConfig::default(), None);
    if again.outcomes != base.outcomes || again.events != base.events {
        return Err(fail(
            "net-replay",
            format!(
                "two served runs of the same seed diverged ({} vs {} events)",
                base.events, again.events
            ),
        ));
    }
    {
        let a = base.log.lock().expect("wal");
        let b = again.log.lock().expect("wal");
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

    assert!(base.events > 0, "a served run must process protocol events");
    for k in 0..=base.events {
        let killed = run_net(seed, &plans, FaultConfig::default(), Some(k));
        verify_net_crash(seed, "net-crash", &base, &killed, k)?;
    }

    let faulted = run_net(seed, &plans, FaultConfig::light(), None);
    if let Some(e) = faulted.protocol_errors.first() {
        return Err(fail("net-faults", format!("protocol error: {e}")));
    }
    for (i, (n, b)) in faulted.outcomes.iter().zip(&base.outcomes).enumerate() {
        if n != b {
            return Err(fail(
                "net-faults",
                format!("plan {i} diverged under frame faults: {n:?} vs {b:?}"),
            ));
        }
    }
    let mid = (faulted.events / 2).max(1);
    let faulted_killed = run_net(seed, &plans, FaultConfig::light(), Some(mid));
    verify_net_crash(seed, "net-faults", &base, &faulted_killed, mid)?;

    Ok(())
}

/// Run [`check_net_seed`] over `seeds`.
pub fn net_sweep(seeds: impl IntoIterator<Item = u64>) -> SweepReport {
    let mut report = SweepReport::default();
    for seed in seeds {
        match check_net_seed(seed) {
            Ok(()) => report.passed += 1,
            Err(failure) => report.failures.push(failure),
        }
    }
    report
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
        let opts = SimOptions {
            faults: FaultPlan::Latency,
            chaos: Some(SimChaos::SwapPrefetchAnswers),
            ..SimOptions::default()
        };
        let failing_seed = (0..64)
            .find(|&seed| diverges_from_reference(&simulate(seed, &opts)))
            .expect("the injected bug must be caught within 64 seeds");
        let shrunk = shrink(failing_seed, &opts, diverges_from_reference)
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
        let replay = simulate(
            failing_seed,
            &SimOptions {
                script: Some(shrunk.script.clone()),
                ..opts.clone()
            },
        );
        assert_eq!(replay.transcript, shrunk.transcript);
    }

    /// The wave-sweep oracle must not be vacuous: at `wave_size > 1` the
    /// service really stages speculative prefetches and serves some staged
    /// questions from the wave cache (all counted like dispatches).
    #[test]
    fn waved_runs_actually_stage_and_hit() {
        let plans = service_plans(3);
        let staged = (0..16).any(|seed| {
            let waved = simulate_service_waved(seed, &plans, true, 16);
            waved.transcript.contains(names::WAVE_STAGED)
        });
        assert!(staged, "no seed in 0..16 ever staged a wave");
        let hit = (0..16).any(|seed| {
            let waved = simulate_service_waved(seed, &plans, true, 16);
            waved.transcript.contains(names::WAVE_HIT)
        });
        assert!(hit, "no seed in 0..16 ever served a staged answer");
    }

    #[test]
    fn chaos_off_passes_the_same_seeds() {
        let report = sweep(0..4);
        assert!(
            report.failures.is_empty(),
            "clean sweep failed: {}",
            report.failures[0]
        );
        assert_eq!(report.passed, 4);
    }
}
