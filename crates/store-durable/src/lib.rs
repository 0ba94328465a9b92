//! Durable state for the OASSIS service layer.
//!
//! Crowd answers are the expensive resource — every one is a human
//! interaction — so the service must not lose them on process exit. This
//! crate provides the persistence substrate:
//!
//! * [`WalRecord`] — one versioned, checksummed line per state change:
//!   a committed crowd answer, a session admission, a budget spend
//!   watermark, or a session close;
//! * [`Wal`] — the append-only log file itself: records are FNV-1a-64
//!   checksummed, each append is a single write, and a torn tail (a
//!   partial line from a crash mid-write) is detected and truncated on
//!   open;
//! * compaction as a *checkpoint*, never a rewrite: the log is the only
//!   copy of the state and nothing in it is dropped (`Answer`, `Admit`
//!   and `Close` records never become dead, and a later `Budget`
//!   watermark simply supersedes an earlier one on replay), so a
//!   compaction appends whatever records the owner hands it and fsyncs
//!   the log. It costs the records since the last checkpoint, never the
//!   state;
//! * the [`Persistence`] trait with two implementations:
//!   [`InMemory`] (tests and deterministic crash simulation — it can
//!   reconstruct the exact durable state "as of record *k*") and
//!   [`FileBacked`] (a directory holding `wal.log`, which keeps no
//!   records in memory once recovery has replayed them, and adopts a
//!   directory written by the earlier whole-state snapshot format).
//!
//! The crate deliberately knows nothing about sessions or the mining
//! engine: records carry plain scalars (raw member ids, query source
//! text, config scalars) so `oassis-crowd` and `oassis-core` can layer
//! their own types on top without a dependency cycle.
//!
//! Appends, replays and snapshots are observable as `wal.append`,
//! `wal.replay` and `wal.snapshot` (see `docs/observability.md`).

mod file;
mod persist;
mod record;

pub use file::{FileBacked, Wal, SNAPSHOT_FILE, WAL_FILE};
pub use persist::{shared, InMemory, Persistence, SharedPersistence};
pub use record::{
    decode_list, encode_list, escape_field, fnv1a64, unescape_field, AdmitSpec, CloseStatus,
    WalRecord, ADMIT_SPEC_FIELDS,
};

/// Why a durability operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// The underlying filesystem operation failed.
    Io(String),
    /// A log or snapshot record failed validation (bad checksum, bad
    /// field) somewhere it cannot be shrugged off as a torn tail.
    Corrupt {
        /// What was being read (`wal`, `snapshot`, ...).
        context: String,
        /// 1-based line number within that file.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durability i/o error: {e}"),
            DurableError::Corrupt {
                context,
                line,
                reason,
            } => write!(f, "corrupt {context} record at line {line}: {reason}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e.to_string())
    }
}
