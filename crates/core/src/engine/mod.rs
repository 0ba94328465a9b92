//! The OASSIS engine: multi-user evaluation (Section 4.2) and the
//! system facade (Section 6.1).
//!
//! The engine is organized in three layers (see `docs/engine.md`):
//!
//! * [`session`] — the pull-based [`MiningSession`] state machine: the
//!   complete §4.2 algorithm with the crowd inverted out. A session never
//!   talks to a crowd; it *emits* [`PendingQuestion`]s and the driver
//!   feeds [`Answer`]s back via [`MiningSession::absorb`].
//! * [`service`] — [`OassisService`], the one driver: many concurrent
//!   sessions multiplexed over one shared crowd, with cross-query answer
//!   reuse through an [`AnswerStore`](oassis_crowd::AnswerStore).
//! * [`single`] — the [`Oassis`] system facade: parse → SPARQL → mine →
//!   answers, each query run as the only session of a volatile service,
//!   plus the Section 6.3 cache-replay methodology.

pub mod service;
pub mod session;
pub mod single;

pub use service::{
    ClosedOutcome, OassisService, RecoveredSession, SessionId, SessionReport, SessionSpec,
    SessionSpecBuilder, SessionState, SessionStatus,
};
pub use session::{
    Answer, CrowdView, MiningSession, PendingQuestion, QuestionPayload, SessionEvent,
};
pub use single::{replay_members, Oassis};

pub use crate::config::{EngineConfig, EngineConfigBuilder};

use oassis_crowd::CrowdCache;
use oassis_ql::QlError;
use oassis_vocab::FactSet;

use crate::assignment::Assignment;
use crate::border::ClassificationState;
use crate::runtime::RuntimeError;
use crate::space::SpaceError;
use crate::stats::ExecutionStats;

/// Errors surfaced by [`Oassis::execute`] and the session runtime.
#[derive(Debug)]
pub enum OassisError {
    /// Query parsing/validation failed.
    Query(QlError),
    /// Assignment-space construction failed.
    Space(SpaceError),
    /// The concurrent session runtime failed (timeouts, poisoned workers,
    /// exhausted crowd).
    Runtime(RuntimeError),
    /// The durability layer failed (log I/O or a corrupt record) while
    /// persisting or recovering service state.
    Durability(oassis_store_durable::DurableError),
    /// A service session operation referenced a session that does not
    /// exist (or is not in the required state), e.g. resuming an unknown
    /// session id, or asked for an admission the service cannot honour,
    /// e.g. a durable service admitting config its log does not carry.
    Session(String),
}

impl std::fmt::Display for OassisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OassisError::Query(e) => write!(f, "{e}"),
            OassisError::Space(e) => write!(f, "{e}"),
            OassisError::Runtime(e) => write!(f, "{e}"),
            OassisError::Durability(e) => write!(f, "{e}"),
            OassisError::Session(detail) => write!(f, "session error: {detail}"),
        }
    }
}

impl std::error::Error for OassisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OassisError::Query(e) => Some(e),
            OassisError::Space(e) => Some(e),
            OassisError::Runtime(e) => Some(e),
            OassisError::Durability(e) => Some(e),
            OassisError::Session(_) => None,
        }
    }
}

impl From<QlError> for OassisError {
    fn from(e: QlError) -> Self {
        OassisError::Query(e)
    }
}

impl From<SpaceError> for OassisError {
    fn from(e: SpaceError) -> Self {
        OassisError::Space(e)
    }
}

impl From<RuntimeError> for OassisError {
    fn from(e: RuntimeError) -> Self {
        OassisError::Runtime(e)
    }
}

impl From<oassis_store_durable::DurableError> for OassisError {
    fn from(e: oassis_store_durable::DurableError) -> Self {
        OassisError::Durability(e)
    }
}

/// One answer of a query result.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// The MSP assignment.
    pub assignment: Assignment,
    /// Its instantiated fact-set `φ(A_SAT)`.
    pub factset: FactSet,
    /// Whether the assignment is valid w.r.t. the query.
    pub valid: bool,
    /// The aggregated support estimate, if answers were collected for it.
    pub support: Option<f64>,
    /// Human-readable rendering (per the query's `SELECT` form).
    pub rendered: String,
}

/// The result of executing a query.
#[derive(Debug)]
pub struct QueryResult {
    /// The MSP answers (most specific significant patterns).
    pub answers: Vec<QueryAnswer>,
    /// Execution statistics.
    pub stats: ExecutionStats,
    /// All collected crowd answers (reusable for threshold replay).
    pub cache: CrowdCache,
    /// The final classification state.
    pub state: ClassificationState,
}

/// Give up on the `engine.dag.nodes_total` gauge beyond this many nodes:
/// the exhaustive count exists to contextualize the lazy generator's
/// savings, and past this size "huge" is all an observer needs to know.
pub const NODES_TOTAL_CAP: usize = 20_000;
