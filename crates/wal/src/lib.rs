//! # wal — durable portal state
//!
//! An append-only, checksummed, length-prefixed record log with group-commit
//! batching, periodic snapshot + compaction, and cold-start recovery that
//! truncates torn trailing records. The portal owns one [`Journal`]; `vfs`
//! and `sched` log every mutating operation through a tagged [`Stream`] on
//! it, so both share one LSN order. On boot the portal replays the latest
//! valid snapshot plus the log tail and reports what it found.
//!
//! The storage boundary is the [`WalStorage`] trait: production uses
//! [`FileStorage`] (real files, tmp-write + rename snapshots), tests use
//! [`MemStorage`] whose crash injection cuts unsynced bytes at an arbitrary
//! boundary — the torn-write model the recovery path is proven against.
//!
//! ```
//! use wal::{FsyncPolicy, Journal, MemStorage};
//!
//! let storage = MemStorage::new();
//! let (mut j, _) = Journal::open(Box::new(storage.clone()), FsyncPolicy::Always, 0).unwrap();
//! j.append(0, b"create /home/alice").unwrap();
//! drop(j); // "crash"
//! let (_, recovered) = Journal::open(Box::new(storage), FsyncPolicy::Always, 0).unwrap();
//! assert_eq!(recovered.records[0], (1, 0, b"create /home/alice".to_vec()));
//! ```

pub mod codec;
pub mod journal;
pub mod storage;

pub use codec::{CodecError, Dec, Enc};
pub use journal::{
    FsyncPolicy, Journal, JournalHooks, Recovered, RecoveryReport, Stream, WalError,
};
pub use storage::{FileStorage, MemStorage, WalStorage};
