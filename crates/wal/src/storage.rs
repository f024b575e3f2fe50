//! Storage backends for the journal: a trait, a production file backend and
//! an in-memory backend with torn-write crash injection for tests.

use crate::journal::WalError;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Where journal bytes live. The journal is written through this trait so
/// tests can substitute an in-memory backend that models torn writes: bytes
/// appended but not yet synced may partially survive a crash.
///
/// `Sync` is required so a portal holding a journal can sit behind a
/// reader-writer lock; every method takes `&mut self`, so implementors get
/// it for free unless they contain unsynchronized interior mutability.
pub trait WalStorage: std::fmt::Debug + Send + Sync {
    /// Append raw bytes to the log (buffered; not durable until [`sync`]).
    ///
    /// [`sync`]: WalStorage::sync
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError>;
    /// Make every appended byte durable.
    fn sync(&mut self) -> Result<(), WalError>;
    /// Read the entire log as currently stored.
    fn read_log(&mut self) -> Result<Vec<u8>, WalError>;
    /// Truncate the log to `len` bytes (drops a torn/corrupt tail).
    fn truncate_log(&mut self, len: u64) -> Result<(), WalError>;
    /// Drop the whole log (after its contents were folded into a snapshot).
    fn reset_log(&mut self) -> Result<(), WalError>;
    /// Atomically replace the snapshot blob with the concatenation of
    /// `parts`.
    fn write_snapshot(&mut self, parts: &[&[u8]]) -> Result<(), WalError>;
    /// Read the current snapshot blob, if one exists.
    fn read_snapshot(&mut self) -> Result<Option<Vec<u8>>, WalError>;
}

// ---- production backend: real files ------------------------------------

/// File-backed storage: `<dir>/<name>.wal` for the log, `<dir>/<name>.snap`
/// for the snapshot (replaced via write-to-temp + rename).
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
    name: String,
    log: File,
}

impl FileStorage {
    /// Open (creating as needed) the log for stream `name` under `dir`.
    pub fn open(dir: impl AsRef<Path>, name: &str) -> Result<FileStorage, WalError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(format!("{name}.wal")))?;
        Ok(FileStorage {
            dir,
            name: name.to_string(),
            log,
        })
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join(format!("{}.wal", self.name))
    }

    fn snap_path(&self) -> PathBuf {
        self.dir.join(format!("{}.snap", self.name))
    }
}

impl WalStorage for FileStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.log.write_all(bytes)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.log.sync_data()?;
        Ok(())
    }

    fn read_log(&mut self) -> Result<Vec<u8>, WalError> {
        Ok(std::fs::read(self.log_path())?)
    }

    fn truncate_log(&mut self, len: u64) -> Result<(), WalError> {
        self.log.set_len(len)?;
        self.log.sync_data()?;
        Ok(())
    }

    fn reset_log(&mut self) -> Result<(), WalError> {
        self.truncate_log(0)
    }

    fn write_snapshot(&mut self, parts: &[&[u8]]) -> Result<(), WalError> {
        let tmp = self.dir.join(format!("{}.snap.tmp", self.name));
        {
            let mut f = File::create(&tmp)?;
            for part in parts {
                f.write_all(part)?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.snap_path())?;
        // Best-effort directory sync so the rename itself is durable.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn read_snapshot(&mut self) -> Result<Option<Vec<u8>>, WalError> {
        match std::fs::read(self.snap_path()) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

// ---- test backend: in-memory with crash injection ----------------------

#[derive(Debug, Default)]
struct MemBacking {
    log: Vec<u8>,
    /// Prefix of `log` that has been fsynced (guaranteed to survive a crash).
    synced_len: usize,
    snap: Option<Vec<u8>>,
}

/// In-memory storage whose backing survives the `Journal` that owns it:
/// clones share the same backing, so a test can keep a handle, "crash" the
/// journal at an arbitrary byte boundary, and reopen from the survivors.
///
/// Crash model: synced bytes always survive; unsynced appended bytes survive
/// only up to the cut point chosen by [`MemStorage::crash`] (a torn write).
/// Snapshot replacement is modelled as atomic, mirroring the rename-based
/// file backend.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    inner: Arc<Mutex<MemBacking>>,
}

impl MemStorage {
    /// Fresh empty storage.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    // A poisoned lock only means another test thread panicked mid-write;
    // the bytes themselves are still the best available truth.
    fn lock(&self) -> MutexGuard<'_, MemBacking> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Simulate a crash: unsynced bytes past `pending_kept` are lost (a torn
    /// tail write), everything surviving is treated as durable on "disk".
    pub fn crash(&self, pending_kept: usize) {
        let mut b = self.lock();
        let keep = b.log.len().min(b.synced_len + pending_kept);
        b.log.truncate(keep);
        b.synced_len = keep;
    }

    /// Flip every bit of one stored log byte (bit-rot injection).
    pub fn corrupt_byte(&self, offset: usize) {
        let mut b = self.lock();
        if let Some(byte) = b.log.get_mut(offset) {
            *byte ^= 0xff;
        }
    }

    /// Total log bytes currently stored (synced + pending).
    pub fn log_bytes(&self) -> usize {
        self.lock().log.len()
    }

    /// Log bytes guaranteed durable.
    pub fn synced_bytes(&self) -> usize {
        self.lock().synced_len
    }
}

impl WalStorage for MemStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.lock().log.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        let mut b = self.lock();
        b.synced_len = b.log.len();
        Ok(())
    }

    fn read_log(&mut self) -> Result<Vec<u8>, WalError> {
        Ok(self.lock().log.clone())
    }

    fn truncate_log(&mut self, len: u64) -> Result<(), WalError> {
        let mut b = self.lock();
        b.log.truncate(len as usize);
        b.synced_len = b.synced_len.min(len as usize);
        Ok(())
    }

    fn reset_log(&mut self) -> Result<(), WalError> {
        let mut b = self.lock();
        b.log.clear();
        b.synced_len = 0;
        Ok(())
    }

    fn write_snapshot(&mut self, parts: &[&[u8]]) -> Result<(), WalError> {
        self.lock().snap = Some(parts.concat());
        Ok(())
    }

    fn read_snapshot(&mut self) -> Result<Option<Vec<u8>>, WalError> {
        Ok(self.lock().snap.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_crash_cuts_pending_only() {
        let mut s = MemStorage::new();
        s.append(b"durable").unwrap();
        s.sync().unwrap();
        s.append(b"pending").unwrap();
        let handle = s.clone();
        handle.crash(3);
        assert_eq!(s.read_log().unwrap(), b"durablepen");
        assert_eq!(handle.synced_bytes(), 10);
    }

    #[test]
    fn mem_snapshot_roundtrip_and_reset() {
        let mut s = MemStorage::new();
        assert_eq!(s.read_snapshot().unwrap(), None);
        s.write_snapshot(&[b"st", b"ate"]).unwrap();
        s.append(b"tail").unwrap();
        s.reset_log().unwrap();
        assert_eq!(s.read_snapshot().unwrap().unwrap(), b"state");
        assert_eq!(s.log_bytes(), 0);
    }

    #[test]
    fn file_storage_roundtrip() {
        let dir = std::env::temp_dir().join(format!("wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut s = FileStorage::open(&dir, "t").unwrap();
            s.append(b"abc").unwrap();
            s.sync().unwrap();
            s.write_snapshot(&[b"snap"]).unwrap();
        }
        {
            let mut s = FileStorage::open(&dir, "t").unwrap();
            assert_eq!(s.read_log().unwrap(), b"abc");
            assert_eq!(s.read_snapshot().unwrap().unwrap(), b"snap");
            s.truncate_log(1).unwrap();
            assert_eq!(s.read_log().unwrap(), b"a");
            s.reset_log().unwrap();
            assert!(s.read_log().unwrap().is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
