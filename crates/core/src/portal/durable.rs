//! The portal's one journal. The filesystem and the scheduler append
//! through tagged [`Stream`]s on it, so their records share one LSN order;
//! compaction writes one snapshot of both; recovery replays the one log in
//! that order. A restart therefore lands on a state the portal actually
//! passed through, never one substrate's prefix beside another's.

use obs::Obs;
use sched::Scheduler;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use vfs::Vfs;
use wal::{FileStorage, FsyncPolicy, Journal, JournalHooks, Recovered, RecoveryReport, Stream};

/// Record tag of the filesystem's stream.
const VFS: u8 = 0;
/// Record tag of the scheduler's stream.
const SCHED: u8 = 1;
/// The `stream` label of each tag's `ccp_wal_*` series, indexed by tag.
const STREAMS: [&str; 2] = ["vfs", "sched"];

/// Install a snapshot and compact the journal every this many records.
const SNAPSHOT_INTERVAL: u64 = 1024;

/// `ccp_wal_*` counters charged to one tag.
struct StreamCounters {
    appends: obs::Counter,
    bytes: obs::Counter,
    fsyncs: obs::Counter,
}

/// Routes [`Journal`] telemetry into the shared metrics registry: appends,
/// bytes and fsyncs per substrate (`stream="vfs"` / `stream="sched"`),
/// snapshots per journal.
struct WalMetricHooks {
    streams: [StreamCounters; 2],
    snapshots: obs::Counter,
    /// For the contention profiler: group-commit storage-sync waits land
    /// under the `wal.commit` site.
    obs: Arc<Obs>,
}

impl JournalHooks for WalMetricHooks {
    fn on_append(&self, tag: u8, bytes: u64) {
        let s = &self.streams[usize::from(tag)];
        s.appends.inc();
        s.bytes.add(bytes);
    }
    fn on_fsync(&self, tag: u8, wait_us: u64) {
        self.streams[usize::from(tag)].fsyncs.inc();
        self.obs.profiler.observe("wal.commit", wait_us, || {
            format!("{} stream fsync", STREAMS[usize::from(tag)])
        });
    }
    fn on_snapshot(&self) {
        self.snapshots.inc();
    }
}

/// Describe and eagerly register every `ccp_wal_*` family, so
/// `/api/metrics` exposes them from the first scrape even on an in-memory
/// portal (the scrape contract is checked by `scripts/check_metrics.sh`).
pub(super) fn register_wal_metrics(obs: &Arc<Obs>) {
    let m = &obs.metrics;
    m.describe("ccp_wal_appends_total", "records appended to the WAL");
    m.describe("ccp_wal_bytes_total", "framed bytes appended to the WAL");
    m.describe("ccp_wal_fsyncs_total", "fsyncs issued by the WAL");
    m.describe(
        "ccp_wal_snapshots_total",
        "snapshots installed (log compactions)",
    );
    m.describe(
        "ccp_wal_recoveries_total",
        "crash recoveries performed at boot",
    );
    m.describe(
        "ccp_wal_recovery_replay_us",
        "wall time spent recovering the WAL at boot (us)",
    );
    // Building the hooks registers the per-stream and snapshot series.
    wal_hooks(obs);
    m.counter("ccp_wal_recoveries_total", &[]);
    m.histogram("ccp_wal_recovery_replay_us", &[], obs::DURATION_US_BOUNDS);
}

fn wal_hooks(obs: &Arc<Obs>) -> WalMetricHooks {
    let m = &obs.metrics;
    let counters = |stream| {
        let labels = &[("stream", stream)];
        StreamCounters {
            appends: m.counter("ccp_wal_appends_total", labels),
            bytes: m.counter("ccp_wal_bytes_total", labels),
            fsyncs: m.counter("ccp_wal_fsyncs_total", labels),
        }
    };
    WalMetricHooks {
        streams: STREAMS.map(counters),
        snapshots: m.counter("ccp_wal_snapshots_total", &[]),
        obs: Arc::clone(obs),
    }
}

/// Both substrates with their streams attached, the journal, and what its
/// recovery went through.
type Opened = (Vfs, Scheduler, Arc<Mutex<Journal>>, RecoveryReport);

/// Open the one journal (`<dir>/portal.wal` + `portal.snap`), recover the
/// filesystem and `scheduler` (freshly configured) from it, and attach
/// their streams only once everything succeeded.
pub(super) fn open(
    dir: &Path,
    fsync: FsyncPolicy,
    obs: &Arc<Obs>,
    mut scheduler: Scheduler,
) -> Result<Opened, String> {
    // The retired layout kept one log per substrate.
    if let Some(old) = ["vfs.wal", "sched.wal"]
        .iter()
        .find(|f| dir.join(f).exists())
    {
        return Err(format!(
            "{} holds {old} from the retired one-log-per-substrate layout; \
             the portal journals to portal.wal and cannot read it",
            dir.display()
        ));
    }
    let t0 = Instant::now();
    let storage = FileStorage::open(dir, "portal").map_err(|e| format!("open portal log: {e}"))?;
    let (journal, recovered) = Journal::open(Box::new(storage), fsync, SNAPSHOT_INTERVAL)
        .map_err(|e| format!("recover portal log: {e}"))?;
    let (mut fs, replay_errors) = restore(&recovered, &mut scheduler)?;
    let journal = Arc::new(Mutex::new(journal.with_hooks(Box::new(wal_hooks(obs)))));
    fs.attach_wal(Stream::new(Arc::clone(&journal), VFS));
    scheduler.attach_wal(Stream::new(Arc::clone(&journal), SCHED));

    // The whole recovery: reading the log and replaying it into both.
    let wall_us = t0.elapsed().as_micros() as u64;
    obs.metrics.counter("ccp_wal_recoveries_total", &[]).inc();
    obs.metrics
        .histogram("ccp_wal_recovery_replay_us", &[], obs::DURATION_US_BOUNDS)
        .record(wall_us);
    let report = RecoveryReport {
        replay_errors,
        wall_us,
        ..recovered.report
    };
    Ok((fs, scheduler, journal, report))
}

/// Rebuild both substrates from what the journal recovered: the one
/// snapshot, then every tail record in LSN order, routed by its tag. A
/// record that fails to replay is counted, not fatal, so one bad entry
/// cannot keep the portal down. Returns the filesystem and that count.
fn restore(recovered: &Recovered, scheduler: &mut Scheduler) -> Result<(Vfs, u64), String> {
    let mut fs = Vfs::new();
    if let Some(state) = &recovered.snapshot {
        let (vfs_state, sched_state) = split_snapshot(state).ok_or("malformed portal snapshot")?;
        fs = Vfs::from_snapshot(vfs_state).map_err(|e| format!("restore vfs snapshot: {e}"))?;
        scheduler
            .restore_snapshot(sched_state)
            .map_err(|e| format!("restore sched snapshot: {e}"))?;
    }
    let mut replay_errors = 0;
    for (_, tag, payload) in &recovered.records {
        let replayed = match *tag {
            VFS => fs.replay(payload).is_ok(),
            SCHED => scheduler.replay(payload).is_ok(),
            _ => false,
        };
        replay_errors += u64::from(!replayed);
    }
    scheduler.publish_gauges();
    Ok((fs, replay_errors))
}

/// Split the snapshot blob `[vfs_len: u64 LE][vfs state][sched state]`.
fn split_snapshot(state: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, rest) = state.split_first_chunk::<8>()?;
    let len = usize::try_from(u64::from_le_bytes(*len)).ok()?;
    (len <= rest.len()).then(|| rest.split_at(len))
}

/// If the portal is durable and its journal due, install one snapshot of
/// both substrates covering every record appended so far.
///
/// The caller holds the portal, so `scheduler` cannot change, and passes
/// `fs` under the vfs lock; the journal's lock is taken last. Every append
/// takes locks in that order too (vfs lock, then journal; or portal, then
/// journal), so no record lands between the two captures and nothing can
/// deadlock. A failure is kept as the journal's first error.
pub(super) fn compact_if_due(journal: Option<&Mutex<Journal>>, fs: &Vfs, scheduler: &Scheduler) {
    let Some(journal) = journal else {
        return;
    };
    let mut j = journal.lock().unwrap_or_else(PoisonError::into_inner);
    if j.wants_snapshot() {
        let (vfs_state, sched_state) = (fs.snapshot_bytes(), scheduler.snapshot_bytes());
        let len = (vfs_state.len() as u64).to_le_bytes();
        let _ = j.install_snapshot(&[&len, &vfs_state, &sched_state]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Cluster, ClusterSpec};
    use rng::SplitMix64;
    use sched::{JobId, JobSpec, SchedPolicyKind, SchedRecord};
    use vfs::VfsRecord;
    use wal::MemStorage;

    /// One successful operation of the mixed script, as its record.
    enum Op {
        Vfs(VfsRecord),
        Sched(SchedRecord),
    }

    fn fresh_sched() -> Scheduler {
        Scheduler::new(
            Cluster::new(ClusterSpec::small(2, 2)),
            SchedPolicyKind::Fifo,
        )
    }

    /// Fresh substrates after `ops`, applied in order.
    fn reference(ops: &[Op]) -> (Vfs, Scheduler) {
        let (mut fs, mut s) = (Vfs::new(), fresh_sched());
        for op in ops {
            match op {
                Op::Vfs(r) => fs.apply(r).expect("succeeded the first time"),
                Op::Sched(r) => s.apply_record(r).expect("succeeded the first time"),
            }
        }
        (fs, s)
    }

    /// Drive both substrates over one journal on `storage` through a seeded
    /// mix of file and job operations, compacting after each one the way
    /// the portal does. Returns the successful ops and the durable LSN.
    fn run_mixed(storage: &MemStorage, seed: u64, steps: u32) -> (Vec<Op>, u64) {
        let fsync = FsyncPolicy::EveryN(1 + seed % 5);
        let (journal, _) = Journal::open(Box::new(storage.clone()), fsync, 32).unwrap();
        let journal = Arc::new(Mutex::new(journal));
        let (mut fs, mut s) = (Vfs::new(), fresh_sched());
        fs.attach_wal(Stream::new(Arc::clone(&journal), VFS));
        s.attach_wal(Stream::new(Arc::clone(&journal), SCHED));
        let mut rng = SplitMix64::new(seed);
        let mut ops = Vec::new();
        fs.add_user("alice", 1 << 20).unwrap();
        ops.push(Op::Vfs(VfsRecord::AddUser {
            user: "alice".into(),
            quota: 1 << 20,
        }));
        for i in 0..steps {
            let path = format!("/home/alice/f{}", rng.next_u64() % 5);
            let op = match rng.next_u64() % 6 {
                0 | 1 => {
                    let data = format!("{i}").into_bytes();
                    let ok = fs.write("alice", &path, data.clone()).is_ok();
                    ok.then(|| {
                        Op::Vfs(VfsRecord::Write {
                            user: "alice".into(),
                            path,
                            data,
                        })
                    })
                }
                2 => fs.remove("alice", &path).is_ok().then(|| {
                    Op::Vfs(VfsRecord::Remove {
                        user: "alice".into(),
                        path,
                    })
                }),
                3 => {
                    let spec = JobSpec::sequential("alice", &path, 1 + rng.next_u64() % 4);
                    s.submit(spec.clone())
                        .is_ok()
                        .then_some(Op::Sched(SchedRecord::Submit { spec }))
                }
                4 => {
                    let id = JobId(1 + rng.next_u64() % (1 + u64::from(i) / 4));
                    let stdout = Some(format!("out{i}\n"));
                    s.set_outcome(id, stdout.as_deref(), None, None)
                        .is_ok()
                        .then_some(Op::Sched(SchedRecord::SetOutcome {
                            id,
                            stdout,
                            stderr: None,
                            actual_ticks: None,
                        }))
                }
                _ => {
                    s.tick();
                    Some(Op::Sched(SchedRecord::Tick))
                }
            };
            ops.extend(op);
            compact_if_due(Some(&journal), &fs, &s);
        }
        let j = journal.lock().unwrap();
        assert!(j.error().is_none());
        assert_eq!(j.last_lsn(), ops.len() as u64, "one LSN per successful op");
        (ops, j.durable_lsn())
    }

    #[test]
    fn a_crash_anywhere_recovers_a_prefix_of_the_mixed_history() {
        for seed in 0..8u64 {
            let storage = MemStorage::new();
            let (ops, durable) = run_mixed(&storage, seed, 160);
            let pending = storage.log_bytes() - storage.synced_bytes();
            let mut rng = SplitMix64::new(seed ^ 0xc0ffee);
            storage.crash((rng.next_u64() % (pending as u64 + 1)) as usize);

            let (_, recovered) = Journal::open(Box::new(storage), FsyncPolicy::Always, 0).unwrap();
            assert!(
                recovered.report.snapshot_lsn.is_some(),
                "seed {seed}: compaction never fired"
            );
            let mut s = fresh_sched();
            let (fs, replay_errors) = restore(&recovered, &mut s).unwrap();
            assert_eq!(replay_errors, 0, "seed {seed}");
            let k = recovered.report.last_lsn;
            assert!(k >= durable, "seed {seed}: lost acked op {k} < {durable}");
            let (want_fs, want_s) = reference(&ops[..k as usize]);
            assert_eq!(fs.snapshot_bytes(), want_fs.snapshot_bytes(), "seed {seed}");
            assert_eq!(s.snapshot_bytes(), want_s.snapshot_bytes(), "seed {seed}");
        }
    }

    #[test]
    fn a_malformed_snapshot_blob_is_refused() {
        assert_eq!(split_snapshot(&[1, 0]), None);
        let mut blob = 5u64.to_le_bytes().to_vec();
        blob.extend_from_slice(b"abc");
        assert_eq!(split_snapshot(&blob), None, "vfs part runs past the end");
        blob.extend_from_slice(b"de!");
        assert_eq!(split_snapshot(&blob), Some((&b"abcde"[..], &b"!"[..])));
    }
}
