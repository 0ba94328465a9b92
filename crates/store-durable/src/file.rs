//! File-backed persistence: a directory holding one append-only log,
//! [`Wal`] (`wal.log`), which compaction never rewrites.
//!
//! Crash-safety model:
//!
//! * every append is one checksummed line written with a single `write`
//!   (no fsync, so it survives a killed process, not an OS crash); a
//!   crash mid-write leaves a *torn tail* — a final line that fails to
//!   parse or checksum — which [`Wal::open`] detects, truncates, and
//!   reports, keeping every record before it;
//! * a compaction is a checkpoint: it appends the records the owner hands
//!   it, like any others, and fsyncs the log, so every record before the
//!   latest checkpoint survives an OS crash. Nothing already logged is
//!   rewritten, so a crash inside a checkpoint leaves the log as a crash
//!   between two appends would, and a checkpoint costs the records since
//!   the last one, never the state. The log grows with every record ever
//!   appended; recovery replays all of it, and a later `Budget`
//!   watermark supersedes an earlier one;
//! * creating the log fsyncs its directory (and creating the directory
//!   fsyncs its parent), so a checkpointed log cannot lose its directory
//!   entry to an OS crash;
//! * a directory written by the earlier whole-state snapshot format
//!   ([`SNAPSHOT_FILE`] plus the WAL tail past it) is adopted on open:
//!   its records and the tail are written to a fresh log, which is
//!   fsynced and renamed over `wal.log` before the snapshot file is
//!   removed. The adopted records carry the sequence number the snapshot
//!   covered, so a crash before the removal adopts the same state again.
//!
//! [`FileBacked`] keeps no records in memory once the first
//! [`replay`](crate::Persistence::replay) has taken what `open` decoded;
//! a later replay reads the log back from disk.

use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use oassis_obs::{names, null_sink, EventSink, SinkExt};

use crate::{DurableError, Persistence, WalRecord};

/// The append-only log file inside a [`FileBacked`] directory.
pub const WAL_FILE: &str = "wal.log";
/// The whole-state snapshot file of the earlier format, which rewrote it
/// at every compaction; [`FileBacked::open`] adopts it into the log.
pub const SNAPSHOT_FILE: &str = "snapshot.oas";

const WAL_HEADER: &str = "# oassis wal v1";
const SNAPSHOT_HEADER: &str = "# oassis snapshot v1 covering ";

/// fsync the directory `dir` (the empty path of a bare file name means
/// the working directory), making entries created in it durable.
fn sync_dir(dir: &Path) -> Result<(), DurableError> {
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// fsync the directory holding `path`.
fn sync_parent(path: &Path) -> Result<(), DurableError> {
    sync_dir(path.parent().unwrap_or(Path::new("")))
}

/// The records of a log's text, and how much of it to keep: a torn final
/// line is excluded from `good_len`.
struct LogScan {
    records: Vec<(u64, WalRecord)>,
    good_len: usize,
}

/// Scan a WAL's text. A bad final line is a torn write (excluded);
/// damage before it is [`DurableError::Corrupt`].
fn scan_log(contents: &str, context: &str) -> Result<LogScan, DurableError> {
    let mut records = Vec::new();
    let mut good_len = 0usize;
    let mut bad: Option<(usize, String)> = None;
    let mut offset = 0usize;
    for (no, line) in contents.split_inclusive('\n').enumerate() {
        let end = offset + line.len();
        let text = line.trim_end_matches(['\n', '\r']);
        if text.is_empty() || text.starts_with('#') {
            if line.ends_with('\n') {
                good_len = end;
            }
            offset = end;
            continue;
        }
        match WalRecord::decode(text) {
            // A record only counts once its newline made it to disk;
            // a complete-looking line without one is still a torn
            // write in progress.
            Ok((seq, rec)) if line.ends_with('\n') => {
                records.push((seq, rec));
                good_len = end;
            }
            Ok(_) => {
                bad = Some((no + 1, "record missing trailing newline".to_owned()));
                break;
            }
            Err(reason) => {
                bad = Some((no + 1, reason));
                break;
            }
        }
        offset = end;
    }
    if let Some((line, reason)) = bad {
        let tail_lines = contents[good_len..]
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count();
        if tail_lines > 1 {
            // Damage before the end of the log: not a torn write.
            return Err(DurableError::Corrupt {
                context: context.to_owned(),
                line,
                reason,
            });
        }
    }
    Ok(LogScan { records, good_len })
}

/// The raw append-only log file: open-with-scan (torn tail truncated),
/// checksummed appends, fsync on request.
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Records found by the opening scan, with their sequence numbers.
    records: Vec<(u64, WalRecord)>,
    /// Whether the opening scan truncated a torn tail.
    truncated_torn_tail: bool,
}

impl Wal {
    /// Open (or create) the log at `path`, scanning existing records and
    /// truncating a torn tail if the last line fails to parse. Creating
    /// the file fsyncs its directory.
    ///
    /// Corruption anywhere *before* the final record is not a torn write
    /// and is reported as [`DurableError::Corrupt`] instead of being
    /// silently dropped.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, DurableError> {
        let path = path.into();
        let created = !path.exists();
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        if created {
            sync_parent(&path)?;
        }
        let mut contents = String::new();
        file.read_to_string(&mut contents)?;
        if contents.is_empty() {
            file.write_all(format!("{WAL_HEADER}\n").as_bytes())?;
        }
        let scan = scan_log(&contents, &format!("wal ({})", path.display()))?;
        let truncated = scan.good_len < contents.len();
        if truncated {
            file.set_len(scan.good_len as u64)?;
            file.seek(std::io::SeekFrom::End(0))?;
        }
        Ok(Wal {
            path,
            file,
            records: scan.records,
            truncated_torn_tail: truncated,
        })
    }

    /// Records found when the log was opened.
    pub fn records(&self) -> &[(u64, WalRecord)] {
        &self.records
    }

    /// Whether opening truncated a torn final record.
    pub fn truncated_torn_tail(&self) -> bool {
        self.truncated_torn_tail
    }

    /// Append one record with sequence number `seq` as a single write.
    pub fn append(&mut self, seq: u64, record: &WalRecord) -> Result<(), DurableError> {
        let mut line = record.encode(seq);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        Ok(())
    }

    /// fsync the log, so every record appended so far survives an OS
    /// crash.
    pub fn sync(&self) -> Result<(), DurableError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Read a snapshot file of the earlier format: `(covered sequence number,
/// compacted records)`.
fn read_snapshot(path: &Path) -> Result<(u64, Vec<WalRecord>), DurableError> {
    let context = format!("snapshot ({})", path.display());
    let contents = fs::read_to_string(path)?;
    let mut lines = contents.lines().enumerate();
    let covered = match lines.next() {
        Some((_, header)) if header.starts_with(SNAPSHOT_HEADER) => header[SNAPSHOT_HEADER.len()..]
            .trim()
            .parse::<u64>()
            .map_err(|e| DurableError::Corrupt {
                context: context.clone(),
                line: 1,
                reason: format!("bad covered sequence: {e}"),
            })?,
        other => {
            return Err(DurableError::Corrupt {
                context,
                line: 1,
                reason: format!("bad snapshot header {:?}", other.map(|(_, l)| l)),
            })
        }
    };
    let mut records = Vec::new();
    for (no, line) in lines {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let (_, rec) = WalRecord::decode_in(line, &context, no + 1)?;
        records.push(rec);
    }
    Ok((covered, records))
}

/// Fold a directory of the earlier format into a single log: the
/// snapshot's records (numbered with the sequence number it covered),
/// then the WAL records past it. The new log is fsynced and renamed over
/// `wal.log`, and only then is the snapshot removed; the WAL records the
/// snapshot covers — stale ones from that format, or adopted ones from an
/// adoption that crashed before the removal — are skipped, so adopting
/// again yields the same log.
fn adopt_snapshot(dir: &Path) -> Result<(), DurableError> {
    let snapshot = dir.join(SNAPSHOT_FILE);
    let (covered, records) = read_snapshot(&snapshot)?;
    let wal_path = dir.join(WAL_FILE);
    let wal = match fs::read_to_string(&wal_path) {
        Ok(contents) => contents,
        Err(e) if e.kind() == ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e.into()),
    };
    let scan = scan_log(&wal, &format!("wal ({})", wal_path.display()))?;
    let mut text = format!("{WAL_HEADER}\n");
    for record in &records {
        text.push_str(&record.encode(covered));
        text.push('\n');
    }
    for (seq, record) in scan.records.iter().filter(|(seq, _)| *seq > covered) {
        text.push_str(&record.encode(*seq));
        text.push('\n');
    }
    let tmp = dir.join(format!("{WAL_FILE}.tmp"));
    {
        let mut file = File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
    }
    fs::rename(&tmp, &wal_path)?;
    sync_dir(dir)?;
    fs::remove_file(&snapshot)?;
    sync_dir(dir)?;
    Ok(())
}

/// Durable persistence over a directory holding `wal.log`.
///
/// [`open`](FileBacked::open) is the recovery entry point: it scans the
/// log (truncating a torn final record) and leaves the instance ready to
/// append. It holds no records afterwards: the first
/// [`replay`](Persistence::replay) hands out what `open` decoded, later
/// ones read the log again.
pub struct FileBacked {
    dir: PathBuf,
    wal: Wal,
    /// Records appended since the last snapshot (or since `open`).
    tail_len: u64,
    next_seq: u64,
    snapshot_every: Option<u64>,
    sink: Arc<dyn EventSink>,
    /// The records `open` decoded, kept only until the first replay (or
    /// append) so a recovery decodes the log once.
    opened: Option<Vec<WalRecord>>,
}

impl FileBacked {
    /// Open (creating if needed) the durable state under `dir` and scan
    /// its log, adopting a snapshot of the earlier format first.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, DurableError> {
        let dir = dir.into();
        if !dir.exists() {
            fs::create_dir_all(&dir)?;
            sync_parent(&dir)?;
        }
        if dir.join(SNAPSHOT_FILE).exists() {
            adopt_snapshot(&dir)?;
        }
        let mut wal = Wal::open(dir.join(WAL_FILE))?;
        let records = std::mem::take(&mut wal.records);
        let next_seq = records.iter().map(|(seq, _)| seq + 1).max().unwrap_or(1);
        Ok(FileBacked {
            dir,
            wal,
            tail_len: 0,
            next_seq,
            snapshot_every: None,
            sink: null_sink(),
            opened: Some(records.into_iter().map(|(_, rec)| rec).collect()),
        })
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

    /// The directory this instance persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether opening truncated a torn WAL tail.
    pub fn truncated_torn_tail(&self) -> bool {
        self.wal.truncated_torn_tail()
    }
}

impl Persistence for FileBacked {
    fn append(&mut self, record: &WalRecord) -> Result<u64, DurableError> {
        let seq = self.next_seq;
        self.wal.append(seq, record)?;
        self.next_seq += 1;
        self.tail_len += 1;
        self.opened = None;
        self.sink.count_labeled(names::WAL_APPEND, record.kind(), 1);
        Ok(seq)
    }

    fn replay(&mut self) -> Result<Vec<WalRecord>, DurableError> {
        let records = match self.opened.take() {
            Some(records) => records,
            None => {
                let contents = fs::read_to_string(self.wal.path())?;
                scan_log(&contents, &format!("wal ({})", self.wal.path().display()))?
                    .records
                    .into_iter()
                    .map(|(_, rec)| rec)
                    .collect()
            }
        };
        self.sink.count(names::WAL_REPLAY, records.len() as u64);
        Ok(records)
    }

    fn log_len(&self) -> u64 {
        self.tail_len
    }

    fn wants_snapshot(&self) -> bool {
        self.snapshot_every
            .is_some_and(|every| self.tail_len >= every)
    }

    fn snapshot(&mut self, records: &[WalRecord]) -> Result<(), DurableError> {
        for record in records {
            self.append(record)?;
        }
        self.wal.sync()?;
        self.tail_len = 0;
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
            session: Some(1),
            member: n,
            support: 1.0 / 3.0,
            factset: FactSet::from_facts([Fact::new(ElementId(n), RelationId(0), ElementId(0))]),
        }
    }

    fn budget(spent: u64) -> WalRecord {
        WalRecord::Budget { session: 1, spent }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oassis-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn file_backed_roundtrip_across_reopen() {
        let dir = tempdir("roundtrip");
        {
            let mut p = FileBacked::open(&dir).unwrap();
            p.append(&ans(1)).unwrap();
            p.append(&ans(2)).unwrap();
        }
        let mut p = FileBacked::open(&dir).unwrap();
        assert_eq!(p.replay().unwrap(), vec![ans(1), ans(2)]);
        p.append(&ans(3)).unwrap();
        // A later replay reads the log again, appends included.
        assert_eq!(p.replay().unwrap(), vec![ans(1), ans(2), ans(3)]);
        let mut p = FileBacked::open(&dir).unwrap();
        assert_eq!(p.replay().unwrap(), vec![ans(1), ans(2), ans(3)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_checkpoints_without_rewriting_the_log() {
        let dir = tempdir("snapshot");
        let wal = dir.join(WAL_FILE);
        {
            let mut p = FileBacked::open(&dir).unwrap().with_snapshot_every(3);
            p.append(&ans(1)).unwrap();
            p.append(&budget(1)).unwrap();
            p.append(&ans(2)).unwrap();
            assert!(p.wants_snapshot());
            let before = fs::read_to_string(&wal).unwrap();
            // Handed records are appended like any others.
            p.snapshot(&[budget(2)]).unwrap();
            assert_eq!(p.log_len(), 0);
            assert!(!p.wants_snapshot());
            let after = fs::read_to_string(&wal).unwrap();
            assert!(after.starts_with(&before), "nothing logged is rewritten");
            assert_eq!(after.lines().count(), before.lines().count() + 1);
            p.append(&ans(3)).unwrap();
            p.snapshot(&[]).unwrap();
            p.append(&ans(4)).unwrap();
            assert_eq!(p.log_len(), 1);
        }
        let mut p = FileBacked::open(&dir).unwrap();
        assert_eq!(
            p.replay().unwrap(),
            vec![ans(1), budget(1), ans(2), budget(2), ans(3), ans(4)],
            "every record exactly once, in append order"
        );
        // Sequence numbers continue past the log.
        assert_eq!(p.append(&ans(5)).unwrap(), 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tempdir("torn");
        {
            let mut p = FileBacked::open(&dir).unwrap();
            p.append(&ans(1)).unwrap();
            p.append(&ans(2)).unwrap();
        }
        // Simulate a crash mid-append: chop the last line in half.
        let wal_path = dir.join(WAL_FILE);
        let contents = fs::read_to_string(&wal_path).unwrap();
        fs::write(&wal_path, &contents[..contents.len() - 7]).unwrap();
        let mut p = FileBacked::open(&dir).unwrap();
        assert!(p.truncated_torn_tail());
        assert_eq!(p.replay().unwrap(), vec![ans(1)], "good prefix survives");
        // The truncated log appends cleanly again.
        p.append(&ans(3)).unwrap();
        let mut p = FileBacked::open(&dir).unwrap();
        assert_eq!(p.replay().unwrap(), vec![ans(1), ans(3)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_corruption_is_fatal() {
        let dir = tempdir("interior");
        {
            let mut p = FileBacked::open(&dir).unwrap();
            for n in 1..=3 {
                p.append(&ans(n)).unwrap();
            }
        }
        let wal_path = dir.join(WAL_FILE);
        let contents = fs::read_to_string(&wal_path).unwrap();
        // Tamper with the *second* record (not the tail).
        let lines: Vec<&str> = contents.lines().collect();
        let mut tampered: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        tampered[2] = tampered[2].replace('1', "2");
        fs::write(&wal_path, tampered.join("\n") + "\n").unwrap();
        assert!(matches!(
            FileBacked::open(&dir),
            Err(DurableError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A directory as the earlier format left it after a compaction
    /// covering sequence number 3 and one more append: the snapshot holds
    /// `ans(1)`, `ans(2)` and `budget(2)`; the WAL still holds a stale
    /// record the snapshot covers (a crash between the snapshot rename
    /// and the WAL truncate) and `ans(3)` past it.
    fn write_earlier_format(dir: &Path) {
        fs::create_dir_all(dir).unwrap();
        let snapshot: String = [ans(1), ans(2), budget(2)]
            .iter()
            .map(|r| r.encode(0) + "\n")
            .collect();
        fs::write(
            dir.join(SNAPSHOT_FILE),
            format!("{SNAPSHOT_HEADER}3\n{snapshot}"),
        )
        .unwrap();
        fs::write(
            dir.join(WAL_FILE),
            format!("{WAL_HEADER}\n{}\n{}\n", ans(9).encode(3), ans(3).encode(4)),
        )
        .unwrap();
    }

    #[test]
    fn earlier_snapshot_format_is_adopted() {
        let dir = tempdir("adopt");
        write_earlier_format(&dir);
        let expected = vec![ans(1), ans(2), budget(2), ans(3)];
        let mut p = FileBacked::open(&dir).unwrap();
        assert_eq!(p.replay().unwrap(), expected);
        assert!(
            !dir.join(SNAPSHOT_FILE).exists(),
            "the snapshot is folded in"
        );
        assert_eq!(p.append(&ans(4)).unwrap(), 5, "sequence continues");
        let mut p = FileBacked::open(&dir).unwrap();
        let mut grown = expected;
        grown.push(ans(4));
        assert_eq!(p.replay().unwrap(), grown);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_during_adoption_adopts_the_same_state() {
        let dir = tempdir("adopt-crash");
        write_earlier_format(&dir);
        let snapshot = fs::read_to_string(dir.join(SNAPSHOT_FILE)).unwrap();
        let expected = vec![ans(1), ans(2), budget(2), ans(3)];
        // Crash before the rename: a half-written new log is left beside
        // the untouched old files.
        fs::write(dir.join(format!("{WAL_FILE}.tmp")), "# oassis wal v1\n3|a").unwrap();
        assert_eq!(FileBacked::open(&dir).unwrap().replay().unwrap(), expected);
        // Crash after the rename, before the snapshot was removed: the
        // new log's adopted records are covered by the snapshot.
        fs::write(dir.join(SNAPSHOT_FILE), &snapshot).unwrap();
        let mut p = FileBacked::open(&dir).unwrap();
        assert_eq!(p.replay().unwrap(), expected, "nothing adopted twice");
        assert!(!dir.join(SNAPSHOT_FILE).exists());
        assert_eq!(p.append(&ans(4)).unwrap(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_earlier_snapshot_is_fatal() {
        let dir = tempdir("adopt-corrupt");
        write_earlier_format(&dir);
        let snapshot = fs::read_to_string(dir.join(SNAPSHOT_FILE)).unwrap();
        fs::write(dir.join(SNAPSHOT_FILE), snapshot.replacen('|', "!", 1)).unwrap();
        assert!(matches!(
            FileBacked::open(&dir),
            Err(DurableError::Corrupt { .. })
        ));
        assert!(dir.join(SNAPSHOT_FILE).exists(), "nothing was adopted");
        fs::remove_dir_all(&dir).unwrap();
    }
}
