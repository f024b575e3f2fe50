//! The journal proper: append, group-commit fsync, snapshot + compaction,
//! and cold-start recovery with torn-tail truncation.
//!
//! # On-disk record format
//!
//! ```text
//! [len: u32 LE] [lsn: u64 LE] [crc: u64 LE] [tag: u8] [payload: len-17 bytes]
//! ```
//!
//! `len` counts everything after itself; `crc` is FNV-1a 64 over the LSN
//! bytes, the tag byte and the payload. The tag names the substrate that
//! wrote the record, so several substrates share one log and one LSN order
//! (see [`Stream`]). LSNs are assigned monotonically from 1 and never
//! reused — a snapshot records the LSN it covers, and the log is reset so
//! the tail holds exactly the records after it.

use crate::codec::fnv1a64;
use crate::storage::WalStorage;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Log sequence number: 1-based, strictly monotonic per journal.
pub(crate) type Lsn = u64;

/// Record header bytes after the length field (lsn + crc + tag).
const RECORD_HEADER: usize = 17;
/// Upper bound on a single record's `len`: recovery rejects anything
/// longer as garbage, so [`Journal::append`] refuses to write it.
const MAX_RECORD: u32 = 1 << 30;
/// Snapshot blob header bytes: magic, version, covered LSN, crc.
const SNAP_HEADER: usize = 24;
/// Snapshot blob magic: "CCPW".
const SNAP_MAGIC: u32 = 0x4343_5057;
const SNAP_VERSION: u32 = 1;

/// Everything that can go wrong in the durability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Underlying storage failed (message carries the OS error).
    Io(String),
    /// A payload of this many bytes would frame past the record limit
    /// that recovery enforces; nothing was written.
    TooLarge(u64),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(m) => write!(f, "wal i/o error: {m}"),
            WalError::TooLarge(n) => write!(f, "wal record too large: {n} payload bytes"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e.to_string())
    }
}

/// When appended records hit the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every append (safest, slowest).
    Always,
    /// Group commit: sync once every `n` appends (and on [`Journal::flush`]).
    EveryN(u64),
    /// Never sync implicitly; only [`Journal::flush`] makes data durable.
    Never,
}

/// What recovery found and did, surfaced through `Portal` and `/api/health`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN covered by the snapshot that seeded recovery, if one was loaded.
    pub snapshot_lsn: Option<Lsn>,
    /// A snapshot blob existed but failed validation and was ignored.
    pub snapshot_corrupt: bool,
    /// Valid tail records replayed after the snapshot.
    pub records_replayed: u64,
    /// Trailing bytes discarded as a torn (incomplete) final write.
    pub torn_bytes: u64,
    /// Records dropped for checksum/sequence violations (recovery stops at
    /// the first bad record; everything after it is discarded too).
    pub corrupt_records: u64,
    /// Highest LSN reconstructed (snapshot + tail).
    pub last_lsn: Lsn,
    /// Wall time spent recovering, in microseconds: reading and validating
    /// out of [`Journal::open`]; the owner adds its replay time.
    pub wall_us: u64,
    /// Replay callbacks that failed at the subsystem layer (filled in by the
    /// owner applying the records; always 0 straight out of [`Journal::open`]).
    pub replay_errors: u64,
}

/// The state recovered by [`Journal::open`], for the owner to apply.
#[derive(Debug)]
pub struct Recovered {
    /// Validated snapshot payload, if one was stored.
    pub snapshot: Option<Vec<u8>>,
    /// Valid tail records in LSN order, as `(lsn, tag, payload)`.
    pub records: Vec<(Lsn, u8, Vec<u8>)>,
    /// What happened during recovery.
    pub report: RecoveryReport,
}

/// Telemetry callbacks so the durability layer stays metrics-agnostic; the
/// portal wires these to `ccp_wal_*` counters.
pub trait JournalHooks: Send + Sync {
    /// One record appended under `tag` (`bytes` = full framed size).
    fn on_append(&self, tag: u8, bytes: u64);
    /// One fsync issued, charged to `tag`: the substrate of the newest
    /// record it made durable, which is the append that triggered a group
    /// commit. `wait_us` is the wall-clock time the storage sync took, for
    /// contention profiling.
    fn on_fsync(&self, tag: u8, wait_us: u64);
    /// One snapshot installed (log compacted).
    fn on_snapshot(&self);
}

/// An append-only checksummed record log over a [`WalStorage`].
pub struct Journal {
    storage: Box<dyn WalStorage>,
    fsync: FsyncPolicy,
    snapshot_interval: u64,
    next_lsn: Lsn,
    durable_lsn: Lsn,
    appends_since_sync: u64,
    records_since_snapshot: u64,
    /// Tag of the newest record, which an explicit flush is charged to.
    last_tag: u8,
    /// The first append, sync or snapshot failure.
    error: Option<WalError>,
    hooks: Option<Box<dyn JournalHooks>>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("storage", &self.storage)
            .field("fsync", &self.fsync)
            .field("snapshot_interval", &self.snapshot_interval)
            .field("next_lsn", &self.next_lsn)
            .field("durable_lsn", &self.durable_lsn)
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Open a journal over `storage`, recovering whatever it holds: load the
    /// latest valid snapshot, parse the tail, truncate any torn or corrupt
    /// suffix, and hand back the pieces for the owner to replay.
    ///
    /// `snapshot_interval` is the number of appended records after which
    /// [`Journal::wants_snapshot`] turns true (0 disables auto-compaction).
    pub fn open(
        mut storage: Box<dyn WalStorage>,
        fsync: FsyncPolicy,
        snapshot_interval: u64,
    ) -> Result<(Journal, Recovered), WalError> {
        let t0 = Instant::now();
        let mut report = RecoveryReport::default();

        // 1. Snapshot: magic/version/lsn/crc-validated payload, or nothing.
        let mut snapshot = None;
        let mut base_lsn: Lsn = 0;
        if let Some(blob) = storage.read_snapshot()? {
            match parse_snapshot(blob) {
                Some((lsn, payload)) => {
                    base_lsn = lsn;
                    report.snapshot_lsn = Some(lsn);
                    snapshot = Some(payload);
                }
                None => report.snapshot_corrupt = true,
            }
        }

        // 2. Tail records: stop at the first torn or invalid record and
        //    truncate the log back to the last valid prefix, so a second
        //    recovery of the same storage is a no-op (idempotence).
        let log = storage.read_log()?;
        let mut records = Vec::new();
        let mut off = 0usize;
        let mut expected = base_lsn + 1;
        loop {
            let remaining = log.len() - off;
            if remaining == 0 {
                break;
            }
            if remaining < 4 {
                report.torn_bytes = remaining as u64;
                break;
            }
            let len = u32::from_le_bytes([log[off], log[off + 1], log[off + 2], log[off + 3]]);
            if len < RECORD_HEADER as u32 || len > MAX_RECORD {
                report.corrupt_records = 1;
                report.torn_bytes = remaining as u64;
                break;
            }
            if remaining - 4 < len as usize {
                report.torn_bytes = remaining as u64;
                break;
            }
            let body = &log[off + 4..off + 4 + len as usize];
            let lsn = u64::from_le_bytes(body[..8].try_into().expect("8-byte slice"));
            let crc = u64::from_le_bytes(body[8..16].try_into().expect("8-byte slice"));
            let valid = crc == fnv1a64(&[&body[..8], &body[16..]]);
            // A crash between a snapshot's rename and its log reset leaves
            // records the snapshot already covers: skip them, uncounted.
            let covered = lsn <= base_lsn && expected == base_lsn + 1;
            if !valid || !(covered || lsn == expected) {
                report.corrupt_records = 1;
                report.torn_bytes = remaining as u64;
                break;
            }
            if !covered {
                records.push((lsn, body[16], body[17..].to_vec()));
                expected += 1;
            }
            off += 4 + len as usize;
        }
        if off < log.len() {
            storage.truncate_log(off as u64)?;
        }
        storage.sync()?;

        report.records_replayed = records.len() as u64;
        report.last_lsn = expected - 1;
        report.wall_us = t0.elapsed().as_micros() as u64;

        let journal = Journal {
            storage,
            fsync,
            snapshot_interval,
            next_lsn: expected,
            durable_lsn: expected - 1,
            appends_since_sync: 0,
            records_since_snapshot: records.len() as u64,
            last_tag: 0,
            error: None,
            hooks: None,
        };
        Ok((
            journal,
            Recovered {
                snapshot,
                records,
                report,
            },
        ))
    }

    /// Attach telemetry callbacks (builder style).
    pub fn with_hooks(mut self, hooks: Box<dyn JournalHooks>) -> Journal {
        self.hooks = Some(hooks);
        self
    }

    /// Append one payload as a framed record under `tag`; returns its LSN.
    /// Durability follows the [`FsyncPolicy`] — an `Ok` here means written,
    /// not necessarily synced (check [`Journal::durable_lsn`]). A payload
    /// recovery would reject as too long is refused with
    /// [`WalError::TooLarge`] and nothing is written.
    pub fn append(&mut self, tag: u8, payload: &[u8]) -> Result<Lsn, WalError> {
        let res = self.write_record(tag, payload);
        self.keep_first_error(res)
    }

    fn write_record(&mut self, tag: u8, payload: &[u8]) -> Result<Lsn, WalError> {
        let len = frame_len(payload.len())?;
        let lsn = self.next_lsn;
        let lsn_bytes = lsn.to_le_bytes();
        let crc = fnv1a64(&[&lsn_bytes, &[tag], payload]);
        let mut rec = Vec::with_capacity(4 + len as usize);
        rec.extend_from_slice(&len.to_le_bytes());
        rec.extend_from_slice(&lsn_bytes);
        rec.extend_from_slice(&crc.to_le_bytes());
        rec.push(tag);
        rec.extend_from_slice(payload);
        self.storage.append(&rec)?;
        self.next_lsn += 1;
        self.last_tag = tag;
        self.appends_since_sync += 1;
        self.records_since_snapshot += 1;
        if let Some(h) = &self.hooks {
            h.on_append(tag, rec.len() as u64);
        }
        let due = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.appends_since_sync >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync()?;
        }
        Ok(lsn)
    }

    fn sync(&mut self) -> Result<(), WalError> {
        let t0 = Instant::now();
        self.storage.sync()?;
        let wait_us = t0.elapsed().as_micros() as u64;
        self.durable_lsn = self.next_lsn - 1;
        self.appends_since_sync = 0;
        if let Some(h) = &self.hooks {
            h.on_fsync(self.last_tag, wait_us);
        }
        Ok(())
    }

    /// Force everything appended so far to durable storage.
    pub fn flush(&mut self) -> Result<(), WalError> {
        if self.durable_lsn + 1 < self.next_lsn {
            let res = self.sync();
            return self.keep_first_error(res);
        }
        Ok(())
    }

    /// Has the journal accumulated enough records to warrant a snapshot?
    pub fn wants_snapshot(&self) -> bool {
        self.snapshot_interval > 0 && self.records_since_snapshot >= self.snapshot_interval
    }

    /// Install a snapshot of the owners' full state as of the last appended
    /// record, then compact: the log is reset and replay will start from
    /// this snapshot. The state is the concatenation of `parts`, written
    /// without first copying them into one buffer.
    pub fn install_snapshot(&mut self, parts: &[&[u8]]) -> Result<(), WalError> {
        let res = self.write_snapshot(parts);
        self.keep_first_error(res)
    }

    fn write_snapshot(&mut self, parts: &[&[u8]]) -> Result<(), WalError> {
        let covered = self.next_lsn - 1;
        let header = snapshot_header(covered, parts);
        let mut blob = Vec::with_capacity(1 + parts.len());
        blob.push(&header[..]);
        blob.extend_from_slice(parts);
        self.storage.write_snapshot(&blob)?;
        self.storage.reset_log()?;
        self.storage.sync()?;
        self.durable_lsn = covered;
        self.appends_since_sync = 0;
        self.records_since_snapshot = 0;
        if let Some(h) = &self.hooks {
            h.on_snapshot();
        }
        Ok(())
    }

    /// Remember the first failure, which the owner reports as degraded
    /// durability, and pass the result through.
    fn keep_first_error<T>(&mut self, res: Result<T, WalError>) -> Result<T, WalError> {
        if let Err(e) = &res {
            self.error.get_or_insert_with(|| e.clone());
        }
        res
    }

    /// The first append, sync or snapshot failure, if any.
    pub fn error(&self) -> Option<&WalError> {
        self.error.as_ref()
    }

    /// Highest LSN ever assigned (0 if nothing was logged).
    pub fn last_lsn(&self) -> Lsn {
        self.next_lsn - 1
    }

    /// Highest LSN guaranteed durable.
    pub fn durable_lsn(&self) -> Lsn {
        self.durable_lsn
    }
}

/// One substrate's handle on a shared [`Journal`]: every append carries
/// the substrate's tag, so several substrates write one log in one LSN
/// order. Clones share the journal.
#[derive(Debug, Clone)]
pub struct Stream {
    journal: Arc<Mutex<Journal>>,
    tag: u8,
}

impl Stream {
    /// A handle that appends to `journal` under `tag`.
    pub fn new(journal: Arc<Mutex<Journal>>, tag: u8) -> Stream {
        Stream { journal, tag }
    }

    /// Append one payload under this stream's tag; returns its LSN.
    pub fn append(&self, payload: &[u8]) -> Result<Lsn, WalError> {
        self.journal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(self.tag, payload)
    }
}

/// The `len` field framing a `payload_len`-byte payload, or
/// [`WalError::TooLarge`] past [`MAX_RECORD`] (including where the sum
/// would wrap a `u32`).
fn frame_len(payload_len: usize) -> Result<u32, WalError> {
    RECORD_HEADER
        .checked_add(payload_len)
        .and_then(|n| u32::try_from(n).ok())
        .filter(|&n| n <= MAX_RECORD)
        .ok_or(WalError::TooLarge(payload_len as u64))
}

fn snapshot_header(lsn: Lsn, parts: &[&[u8]]) -> [u8; SNAP_HEADER] {
    let mut h = [0u8; SNAP_HEADER];
    h[0..4].copy_from_slice(&SNAP_MAGIC.to_le_bytes());
    h[4..8].copy_from_slice(&SNAP_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&lsn.to_le_bytes());
    h[16..24].copy_from_slice(&fnv1a64(parts).to_le_bytes());
    h
}

/// Validate a snapshot blob and strip its header in place.
fn parse_snapshot(mut blob: Vec<u8>) -> Option<(Lsn, Vec<u8>)> {
    if blob.len() < SNAP_HEADER {
        return None;
    }
    let magic = u32::from_le_bytes(blob[0..4].try_into().ok()?);
    let version = u32::from_le_bytes(blob[4..8].try_into().ok()?);
    if magic != SNAP_MAGIC || version != SNAP_VERSION {
        return None;
    }
    let lsn = u64::from_le_bytes(blob[8..16].try_into().ok()?);
    let crc = u64::from_le_bytes(blob[16..24].try_into().ok()?);
    if crc != fnv1a64(&[&blob[SNAP_HEADER..]]) {
        return None;
    }
    blob.drain(..SNAP_HEADER);
    Some((lsn, blob))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn open_mem(s: &MemStorage, fsync: FsyncPolicy, interval: u64) -> (Journal, Recovered) {
        Journal::open(Box::new(s.clone()), fsync, interval).expect("open")
    }

    #[test]
    fn empty_log_recovers_to_nothing() {
        let s = MemStorage::new();
        let (j, rec) = open_mem(&s, FsyncPolicy::Always, 0);
        assert!(rec.snapshot.is_none());
        assert!(rec.records.is_empty());
        assert_eq!(
            rec.report,
            RecoveryReport {
                wall_us: rec.report.wall_us,
                ..RecoveryReport::default()
            }
        );
        assert_eq!(j.last_lsn(), 0);
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let s = MemStorage::new();
        let (mut j, _) = open_mem(&s, FsyncPolicy::Always, 0);
        assert_eq!(j.append(0, b"one").unwrap(), 1);
        assert_eq!(j.append(1, b"two").unwrap(), 2);
        assert_eq!(j.durable_lsn(), 2);
        drop(j);
        let (j, rec) = open_mem(&s, FsyncPolicy::Always, 0);
        assert_eq!(
            rec.records,
            vec![(1, 0, b"one".to_vec()), (2, 1, b"two".to_vec())]
        );
        assert_eq!(rec.report.records_replayed, 2);
        assert_eq!(rec.report.torn_bytes, 0);
        assert_eq!(j.last_lsn(), 2);
    }

    #[test]
    fn group_commit_syncs_every_n() {
        let s = MemStorage::new();
        let (mut j, _) = open_mem(&s, FsyncPolicy::EveryN(3), 0);
        j.append(0, b"a").unwrap();
        j.append(0, b"b").unwrap();
        assert_eq!(j.durable_lsn(), 0, "first two appends still pending");
        j.append(0, b"c").unwrap();
        assert_eq!(j.durable_lsn(), 3, "third append triggered group commit");
        j.append(0, b"d").unwrap();
        assert_eq!(j.durable_lsn(), 3);
        j.flush().unwrap();
        assert_eq!(j.durable_lsn(), 4);
    }

    #[test]
    fn torn_tail_is_truncated_and_second_recovery_is_clean() {
        let s = MemStorage::new();
        let (mut j, _) = open_mem(&s, FsyncPolicy::Never, 0);
        j.append(0, b"solid").unwrap();
        j.flush().unwrap();
        j.append(0, b"lost-in-the-crash").unwrap();
        drop(j);
        s.crash(7); // keep 7 bytes of the unsynced record: torn mid-frame
        let before = s.log_bytes();
        let (_, rec) = open_mem(&s, FsyncPolicy::Never, 0);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].2, b"solid");
        assert_eq!(rec.report.torn_bytes, 7);
        assert_eq!(rec.report.last_lsn, 1);
        assert_eq!(s.log_bytes(), before - 7, "torn tail physically removed");
        // Double recovery: the truncated log now parses cleanly.
        let (_, rec2) = open_mem(&s, FsyncPolicy::Never, 0);
        assert_eq!(rec2.records.len(), 1);
        assert_eq!(rec2.report.torn_bytes, 0);
        assert_eq!(rec2.report.corrupt_records, 0);
    }

    #[test]
    fn mid_log_corruption_stops_at_first_bad_record() {
        let s = MemStorage::new();
        let (mut j, _) = open_mem(&s, FsyncPolicy::Always, 0);
        j.append(0, b"first").unwrap();
        let second_starts = s.log_bytes();
        j.append(0, b"second").unwrap();
        j.append(0, b"third").unwrap();
        drop(j);
        // Flip a payload byte inside record 2: crc must catch it, and
        // record 3 (intact) must NOT be replayed past the damage.
        s.corrupt_byte(second_starts + 4 + RECORD_HEADER);
        let (_, rec) = open_mem(&s, FsyncPolicy::Always, 0);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].2, b"first");
        assert_eq!(rec.report.corrupt_records, 1);
        assert!(rec.report.torn_bytes > 0);
        assert_eq!(rec.report.last_lsn, 1);
    }

    #[test]
    fn snapshot_compacts_and_seeds_recovery() {
        let s = MemStorage::new();
        let (mut j, _) = open_mem(&s, FsyncPolicy::Always, 2);
        j.append(0, b"op1").unwrap();
        assert!(!j.wants_snapshot());
        j.append(0, b"op2").unwrap();
        assert!(j.wants_snapshot());
        j.install_snapshot(&[b"state-", b"after-2"]).unwrap();
        assert_eq!(s.log_bytes(), 0, "log compacted away");
        j.append(0, b"op3").unwrap();
        drop(j);
        let (j, rec) = open_mem(&s, FsyncPolicy::Always, 2);
        assert_eq!(rec.snapshot.as_deref(), Some(&b"state-after-2"[..]));
        assert_eq!(rec.report.snapshot_lsn, Some(2));
        assert_eq!(rec.records, vec![(3, 0, b"op3".to_vec())]);
        assert_eq!(j.last_lsn(), 3);
    }

    #[test]
    fn snapshot_only_recovery_empty_tail() {
        let s = MemStorage::new();
        let (mut j, _) = open_mem(&s, FsyncPolicy::Always, 0);
        j.append(0, b"a").unwrap();
        j.install_snapshot(&[b"S"]).unwrap();
        drop(j);
        let (j, rec) = open_mem(&s, FsyncPolicy::Always, 0);
        assert_eq!(rec.snapshot.as_deref(), Some(&b"S"[..]));
        assert!(rec.records.is_empty());
        assert_eq!(rec.report.records_replayed, 0);
        assert_eq!(rec.report.last_lsn, 1);
        assert_eq!(j.last_lsn(), 1);
    }

    #[test]
    fn corrupt_snapshot_is_ignored_and_flagged() {
        let s = MemStorage::new();
        {
            let mut h = s.clone();
            h.write_snapshot(&[b"not a snapshot blob"]).unwrap();
        }
        let (_, rec) = open_mem(&s, FsyncPolicy::Always, 0);
        assert!(rec.snapshot.is_none());
        assert!(rec.report.snapshot_corrupt);
    }

    #[test]
    fn lsn_sequence_violation_detected() {
        let s = MemStorage::new();
        let (mut j, _) = open_mem(&s, FsyncPolicy::Always, 0);
        j.append(0, b"x").unwrap();
        j.install_snapshot(&[b"S"]).unwrap(); // covers lsn 1; log reset
        drop(j);
        // A stale snapshot (never written again) with a fresh journal whose
        // records restart at 1 would misalign; simulate by wiping the
        // snapshot so the tail's LSNs no longer chain from base 0.
        // (Records after compaction start at 2; without the snapshot the
        // expected first LSN is 1.)
        let (mut j, _) = open_mem(&s, FsyncPolicy::Always, 0);
        j.append(0, b"y").unwrap(); // lsn 2, in the log
        drop(j);
        {
            let mut h = s.clone();
            h.write_snapshot(&[b"garbage"]).unwrap(); // invalidates the snapshot
        }
        let (_, rec) = open_mem(&s, FsyncPolicy::Always, 0);
        assert!(rec.report.snapshot_corrupt);
        assert_eq!(
            rec.report.corrupt_records, 1,
            "lsn 2 cannot follow base 0 without its snapshot"
        );
        assert!(rec.records.is_empty());
    }

    #[test]
    fn records_carry_their_tag_under_the_checksum() {
        let s = MemStorage::new();
        let (mut j, _) = open_mem(&s, FsyncPolicy::Always, 0);
        j.append(7, b"payload").unwrap();
        drop(j);
        // The tag byte sits right after lsn + crc: flipping it must fail
        // the checksum, not reroute the record to another substrate.
        s.corrupt_byte(4 + 16);
        let (_, rec) = open_mem(&s, FsyncPolicy::Always, 0);
        assert!(rec.records.is_empty());
        assert_eq!(rec.report.corrupt_records, 1);
    }

    #[test]
    fn frame_limit_matches_what_recovery_accepts() {
        let max = MAX_RECORD as usize - RECORD_HEADER;
        assert_eq!(frame_len(0), Ok(RECORD_HEADER as u32));
        assert_eq!(frame_len(max), Ok(MAX_RECORD));
        assert_eq!(frame_len(max + 1), Err(WalError::TooLarge(max as u64 + 1)));
        // The old `as u32` cast framed this payload with `len = 5`.
        let wraps = u32::MAX as usize - RECORD_HEADER + 6;
        assert_eq!(frame_len(wraps), Err(WalError::TooLarge(wraps as u64)));
        assert!(frame_len(usize::MAX).is_err());
    }

    #[test]
    fn compaction_cut_before_its_log_reset_is_not_corruption() {
        let s = MemStorage::new();
        let (mut j, _) = open_mem(&s, FsyncPolicy::Always, 0);
        for op in [b"op1", b"op2", b"op3"] {
            j.append(0, op).unwrap();
        }
        drop(j);
        let log = s.log_bytes();
        // The snapshot for LSN 3 was renamed into place; the crash came
        // before the log reset.
        {
            let mut h = s.clone();
            let header = snapshot_header(3, &[b"S"]);
            h.write_snapshot(&[&header, b"S"]).unwrap();
        }
        let (mut j, rec) = open_mem(&s, FsyncPolicy::Always, 0);
        assert_eq!(rec.snapshot.as_deref(), Some(&b"S"[..]));
        assert!(rec.records.is_empty());
        assert_eq!(
            rec.report,
            RecoveryReport {
                snapshot_lsn: Some(3),
                last_lsn: 3,
                wall_us: rec.report.wall_us,
                ..RecoveryReport::default()
            }
        );
        assert_eq!(s.log_bytes(), log, "covered records are skipped, not cut");
        // Appends continue after the snapshot, and the next recovery
        // replays only them.
        assert_eq!(j.append(1, b"op4").unwrap(), 4);
        drop(j);
        let (_, rec) = open_mem(&s, FsyncPolicy::Always, 0);
        assert_eq!(rec.records, vec![(4, 1, b"op4".to_vec())]);
        assert_eq!(rec.report.corrupt_records, 0);
    }

    /// Storage whose appends land but whose syncs always fail.
    #[derive(Debug)]
    struct SyncFails(MemStorage);

    impl WalStorage for SyncFails {
        fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
            self.0.append(bytes)
        }
        fn sync(&mut self) -> Result<(), WalError> {
            Err(WalError::Io("no space left on device".into()))
        }
        fn read_log(&mut self) -> Result<Vec<u8>, WalError> {
            self.0.read_log()
        }
        fn truncate_log(&mut self, len: u64) -> Result<(), WalError> {
            self.0.truncate_log(len)
        }
        fn reset_log(&mut self) -> Result<(), WalError> {
            self.0.reset_log()
        }
        fn write_snapshot(&mut self, parts: &[&[u8]]) -> Result<(), WalError> {
            self.0.write_snapshot(parts)
        }
        fn read_snapshot(&mut self) -> Result<Option<Vec<u8>>, WalError> {
            self.0.read_snapshot()
        }
    }

    #[test]
    fn first_failure_is_kept() {
        let (mut j, _) = open_mem(&MemStorage::new(), FsyncPolicy::Never, 0);
        j.storage = Box::new(SyncFails(MemStorage::new()));
        j.append(0, b"written, not synced").unwrap();
        assert!(j.error().is_none());
        let first = j.flush().unwrap_err();
        assert!(j.install_snapshot(&[b"S"]).is_err());
        assert_eq!(j.error(), Some(&first), "the first failure is kept");
    }

    #[test]
    fn streams_share_one_lsn_order() {
        let s = MemStorage::new();
        let (j, _) = open_mem(&s, FsyncPolicy::Always, 0);
        let j = Arc::new(Mutex::new(j));
        let (a, b) = (Stream::new(Arc::clone(&j), 0), Stream::new(j, 1));
        assert_eq!(a.append(b"a1").unwrap(), 1);
        assert_eq!(b.append(b"b1").unwrap(), 2);
        assert_eq!(a.clone().append(b"a2").unwrap(), 3);
        drop((a, b));
        let (_, rec) = open_mem(&s, FsyncPolicy::Always, 0);
        let tags: Vec<(Lsn, u8)> = rec.records.iter().map(|r| (r.0, r.1)).collect();
        assert_eq!(tags, vec![(1, 0), (2, 1), (3, 0)]);
    }
}
