//! The [`Persistence`] trait — what the service layer talks to — and the
//! [`InMemory`] implementation used by tests and the deterministic crash
//! simulation.

use std::sync::{Arc, Mutex};

use oassis_obs::{names, null_sink, EventSink, SinkExt};

use crate::{DurableError, WalRecord};

/// A durable record sink with replay-on-open semantics.
///
/// The contract mirrors an append-only write-ahead log that compaction
/// never rewrites:
///
/// * [`append`](Persistence::append) durably adds one record and returns
///   its monotonically increasing sequence number;
/// * [`replay`](Persistence::replay) returns every record in the log, in
///   append order; replaying them into empty state reproduces the full
///   durable state (a later `Budget` watermark supersedes an earlier
///   one);
/// * [`snapshot`](Persistence::snapshot) is a checkpoint: it appends the
///   records the owner hands it and makes the log durable up to that
///   point, without rewriting anything already logged, so it costs the
///   records since the last checkpoint, never the state. An owner that
///   logs every state change as it happens (as the service does) hands it
///   nothing;
/// * [`wants_snapshot`](Persistence::wants_snapshot) tells the owner the
///   log has grown by the configured compaction interval since the last
///   checkpoint.
pub trait Persistence: Send {
    /// Durably append one record; returns its sequence number.
    fn append(&mut self, record: &WalRecord) -> Result<u64, DurableError>;

    /// Every record in the log, in append order.
    fn replay(&mut self) -> Result<Vec<WalRecord>, DurableError>;

    /// Records appended since the last snapshot (the tail length).
    fn log_len(&self) -> u64;

    /// Whether the tail has outgrown the compaction interval.
    fn wants_snapshot(&self) -> bool;

    /// Append `records` (state the log does not hold yet, if the owner
    /// has any), then checkpoint: make every logged record durable and
    /// start a new tail. Nothing already logged is rewritten or dropped.
    fn snapshot(&mut self, records: &[WalRecord]) -> Result<(), DurableError>;
}

/// The handle the service and answer store share.
pub type SharedPersistence = Arc<Mutex<dyn Persistence>>;

/// Wrap a concrete persistence in the [`SharedPersistence`] handle.
pub fn shared<P: Persistence + 'static>(p: P) -> SharedPersistence {
    Arc::new(Mutex::new(p))
}

/// In-memory persistence: the full WAL semantics (sequence numbers,
/// checkpoints, replay) without a filesystem.
///
/// Beyond serving tests, it keeps the points at which snapshots were
/// taken, so a simulated crash can reconstruct the exact durable image
/// "as of record *k*" — see [`crashed_at`](InMemory::crashed_at). That is
/// what the crash-restart oracle in `oassis-simtest` sweeps over.
pub struct InMemory {
    /// Every record ever appended, in order; compaction drops none.
    log: Vec<WalRecord>,
    /// Per snapshot, `(log length after it, records it was handed)`.
    snaps: Vec<(usize, usize)>,
    /// Compact once the tail reaches this many records (`None` = never).
    snapshot_every: Option<u64>,
    sink: Arc<dyn EventSink>,
}

impl Default for InMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl InMemory {
    /// An empty log that never auto-requests compaction.
    pub fn new() -> Self {
        InMemory {
            log: Vec::new(),
            snaps: Vec::new(),
            snapshot_every: None,
            sink: null_sink(),
        }
    }

    /// Request a snapshot every `every` appended records.
    pub fn with_snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = Some(every.max(1));
        self
    }

    /// Report `wal.*` counters to `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Every record ever appended to this instance (those handed to a
    /// snapshot included), in append order.
    pub fn history(&self) -> &[WalRecord] {
        &self.log
    }

    /// Number of records ever appended.
    pub fn history_len(&self) -> usize {
        self.log.len()
    }

    /// Number of snapshots taken.
    pub fn snapshot_count(&self) -> usize {
        self.snaps.len()
    }

    /// Per snapshot, `(records in the log after it, records it was
    /// handed)`.
    pub fn snapshot_points(&self) -> &[(usize, usize)] {
        &self.snaps
    }

    /// The durable image as it stood after exactly `k` appends: the log's
    /// first `k` records, with the snapshots taken by then. This is what a
    /// process crash after the `k`-th append would leave for recovery to
    /// find. The image is this log as it was then, so a run restarted on
    /// it can be crashed again.
    ///
    /// # Panics
    /// If `k` exceeds the number of appended records.
    pub fn crashed_at(&self, k: usize) -> InMemory {
        assert!(
            k <= self.log.len(),
            "crash point {k} beyond history ({} records)",
            self.log.len()
        );
        InMemory {
            log: self.log[..k].to_vec(),
            snaps: self
                .snaps
                .iter()
                .copied()
                .filter(|&(point, _)| point <= k)
                .collect(),
            snapshot_every: self.snapshot_every,
            sink: null_sink(),
        }
    }
}

impl Persistence for InMemory {
    fn append(&mut self, record: &WalRecord) -> Result<u64, DurableError> {
        self.log.push(record.clone());
        self.sink.count_labeled(names::WAL_APPEND, record.kind(), 1);
        Ok(self.log.len() as u64)
    }

    fn replay(&mut self) -> Result<Vec<WalRecord>, DurableError> {
        self.sink.count(names::WAL_REPLAY, self.log.len() as u64);
        Ok(self.log.clone())
    }

    fn log_len(&self) -> u64 {
        let checkpoint = self.snaps.last().map_or(0, |&(point, _)| point);
        (self.log.len() - checkpoint) as u64
    }

    fn wants_snapshot(&self) -> bool {
        self.snapshot_every
            .is_some_and(|every| self.log_len() >= every)
    }

    fn snapshot(&mut self, records: &[WalRecord]) -> Result<(), DurableError> {
        for record in records {
            self.append(record)?;
        }
        self.snaps.push((self.log.len(), records.len()));
        self.sink.count(names::WAL_SNAPSHOT, 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oassis_vocab::{ElementId, Fact, FactSet, RelationId};

    fn ans(n: u32) -> WalRecord {
        WalRecord::Answer {
            session: None,
            member: n,
            support: 0.5,
            factset: FactSet::from_facts([Fact::new(ElementId(n), RelationId(0), ElementId(0))]),
        }
    }

    #[test]
    fn append_replay_roundtrip() {
        let mut p = InMemory::new();
        assert_eq!(p.append(&ans(1)).unwrap(), 1);
        assert_eq!(p.append(&ans(2)).unwrap(), 2);
        assert_eq!(p.replay().unwrap(), vec![ans(1), ans(2)]);
        assert_eq!(p.log_len(), 2);
        assert!(!p.wants_snapshot());
    }

    fn budget(spent: u64) -> WalRecord {
        WalRecord::Budget { session: 1, spent }
    }

    #[test]
    fn snapshot_checkpoints_without_dropping_records() {
        let mut p = InMemory::new().with_snapshot_every(3);
        p.append(&ans(1)).unwrap();
        p.append(&budget(1)).unwrap();
        assert!(!p.wants_snapshot());
        p.append(&ans(2)).unwrap();
        assert!(p.wants_snapshot());
        // Handed records are appended like any others.
        p.snapshot(&[budget(2)]).unwrap();
        assert_eq!(p.log_len(), 0);
        assert_eq!(p.append(&ans(3)).unwrap(), 5);
        assert_eq!(
            p.replay().unwrap(),
            vec![ans(1), budget(1), ans(2), budget(2), ans(3)]
        );
        assert_eq!(p.snapshot_points(), &[(4, 1)]);
        assert_eq!(p.log_len(), 1);
    }

    #[test]
    fn crashed_at_reconstructs_every_prefix() {
        let mut p = InMemory::new();
        for n in 1..=5 {
            p.append(&ans(n)).unwrap();
            p.append(&budget(n as u64)).unwrap();
            if n == 3 {
                p.snapshot(&[]).unwrap();
            }
        }
        assert_eq!(p.crashed_at(0).replay().unwrap(), vec![]);
        for k in [3, 6, 8] {
            let mut image = p.crashed_at(k);
            assert_eq!(image.replay().unwrap(), p.history()[..k]);
            assert_eq!(image.snapshot_count(), usize::from(k >= 6));
            assert_eq!(image.log_len(), (if k >= 6 { k - 6 } else { k }) as u64);
        }
        // An image is the log as it was: it can be crashed again.
        let image = p.crashed_at(8);
        assert_eq!(image.crashed_at(7).replay().unwrap(), p.history()[..7]);
        assert_eq!(image.crashed_at(3).snapshot_count(), 0);
    }

    #[test]
    #[should_panic(expected = "beyond history")]
    fn crashed_at_rejects_future_points() {
        InMemory::new().crashed_at(1);
    }
}
