#![warn(missing_docs)]

//! # oassis-core
//!
//! The OASSIS query-evaluation engine (Sections 4 and 5 of the paper):
//!
//! * [`Assignment`]s with multiplicities — mappings from query variables to
//!   *antichains* of vocabulary terms, plus `MORE` facts — and their semantic
//!   partial order (Definition 4.1),
//! * the [`AssignSpace`] — the lazily generated assignment DAG: validity
//!   (`φ(A_WHERE) ≤ O`), membership in the expanded set
//!   `𝒜 = {φ | ∃φ' ∈ 𝒜valid, φ ≤ φ'}`, immediate successors/predecessors,
//!   and lazy combination of multiplicities (Proposition 5.1),
//! * classification by inference ([`border`]): one crowd answer classifies
//!   every generalization (if significant) or every specialization (if not)
//!   — Observation 4.4,
//! * the mining algorithms: the paper's top-down [`VerticalMiner`]
//!   (Algorithm 1), the Apriori-style [`HorizontalMiner`], the random
//!   [`NaiveMiner`], and the §6.3 *baseline* cost model,
//! * the multi-user algorithm (Section 4.2) as the pull-based
//!   [`MiningSession`]: per-member traversal with a global answer cache and
//!   a pluggable aggregation black-box, driven by one driver, the
//!   [`OassisService`] (single queries run as its only session),
//! * the concurrent crowd-session [`runtime`]: a worker pool that runs
//!   per-member round-trips in parallel with speculative prefetch, timeouts,
//!   bounded retry and exclusion of unresponsive members — deterministically
//!   equivalent to the sequential path (see `docs/engine.md`),
//! * natural-language [`question`] rendering (Section 6.2's templates),
//! * [`ExecutionStats`] with the per-question discovery curve behind
//!   Figures 4d–4f and 5.

pub mod algo;
pub mod assignment;
pub mod border;
pub mod config;
pub mod diversity;
pub mod engine;
pub mod question;
pub mod rules;
pub mod runtime;
pub mod space;
pub mod stats;
pub mod value;

pub use algo::{
    baseline_question_count, HorizontalMiner, MinerConfig, MinerOutcome, NaiveMiner, VerticalMiner,
};
pub use assignment::Assignment;
pub use border::ClassificationState;
pub use config::{EngineConfig, EngineConfigBuilder};
pub use diversity::{diversify_answers, select_diverse};
pub use engine::{
    Answer, ClosedOutcome, CrowdView, MiningSession, Oassis, OassisError, OassisService,
    PendingQuestion, QueryAnswer, QueryResult, QuestionPayload, RecoveredSession, SessionEvent,
    SessionId, SessionReport, SessionSpec, SessionSpecBuilder, SessionStatus, NODES_TOTAL_CAP,
};
pub use runtime::{
    Clock, QuestionId, RuntimeError, RuntimeErrorKind, RuntimeOptions, SessionRuntime, SimChaos,
    SimConfig, SimTrace, SimTraceHandle, SystemClock, VirtualClock,
};
pub use rules::{mine_rules, AssociationRule};
pub use space::{AssignSpace, NodeId, SpaceCache};
pub use stats::{DiscoveryPoint, ExecutionStats, QuestionKind, Recorder, RecorderSink};
pub use value::AValue;

/// One-stop imports for the entry points and their configuration.
///
/// The engine has one driver, [`OassisService`], and one convenience front
/// door over it (see the "which API when" table in `docs/engine.md`):
///
/// * [`Oassis`] — one query, one crowd, blocking: parse → mine → answers,
///   run as the only session of a volatile service.
/// * [`OassisService`] — many concurrent sessions over one shared crowd,
///   with admission, priorities, budgets, streamed partial answers and
///   durable recovery.
///
/// ```
/// use oassis_core::prelude::*;
/// ```
pub mod prelude {
    pub use crate::config::{EngineConfig, EngineConfigBuilder};
    pub use crate::engine::{
        ClosedOutcome, Oassis, OassisError, OassisService, QueryAnswer, QueryResult,
        RecoveredSession, SessionId, SessionReport, SessionSpec, SessionSpecBuilder, SessionStatus,
    };
    pub use crate::runtime::{SessionRuntime, SimConfig};
}
