//! Kill-at-random-point durability property: crash the portal's WAL-backed
//! substrates at an arbitrary byte boundary — mid-record, mid-fsync window,
//! right after a compaction — and recovery must reconstruct exactly the
//! state reached by some *prefix* of the successful operations, never a
//! torn half-applied mess, and never lose an operation the journal had
//! already acknowledged as durable.
//!
//! The reference state machine is a fresh instance replaying the first
//! `last_lsn` recorded operations: the WAL assigns one LSN per logged op,
//! densely from 1, so `ops[..last_lsn]` is precisely what a correct
//! recovery must reproduce (byte-identical via `snapshot_bytes`).
//!
//! The per-substrate properties here drive one substrate's stream on a
//! journal and compact it themselves; the portal's own compaction and
//! recovery of both substrates over one journal is checked by the unit
//! tests in `ccp_core`'s `portal::durable`, and end to end below.

use ccp_core::{Portal, PortalConfig};
use cluster::{Cluster, ClusterSpec, SlaveId};
use sched::{JobId, JobSpec, JobState, RetryPolicy, SchedPolicyKind, SchedRecord, Scheduler};
use std::sync::{Arc, Mutex};
use vfs::{Vfs, VfsRecord};
use wal::{FsyncPolicy, Journal, MemStorage, Recovered, Stream};
use webportal::{app::dispatch, build_router, App};

/// Deterministic splitmix64 so the op script and crash point derive from
/// the seed alone (no rand dependency, no flaky schedules).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next() % bound
        }
    }
}

/// A fresh journal over `storage`, shared the way the portal shares it.
fn open_journal(storage: &MemStorage, fsync: FsyncPolicy, interval: u64) -> Arc<Mutex<Journal>> {
    let (journal, recovered) =
        Journal::open(Box::new(storage.clone()), fsync, interval).expect("open fresh log");
    assert_eq!(recovered.report.records_replayed, 0, "fresh log is empty");
    Arc::new(Mutex::new(journal))
}

/// Compact as a single-substrate owner would: snapshot `state` once the
/// journal is due.
fn compact_if_due(journal: &Mutex<Journal>, state: impl FnOnce() -> Vec<u8>) {
    let mut j = journal.lock().unwrap();
    if j.wants_snapshot() {
        j.install_snapshot(&[&state()]).expect("snapshot");
    }
}

/// `(last_lsn, durable_lsn)` of a journal.
fn lsns(journal: &Mutex<Journal>) -> (u64, u64) {
    let j = journal.lock().unwrap();
    (j.last_lsn(), j.durable_lsn())
}

/// Reopen the journal over `storage`, as a boot after the crash does.
fn reopen(storage: MemStorage) -> Recovered {
    let (_, recovered) = Journal::open(Box::new(storage), FsyncPolicy::Always, 0)
        .expect("recovery never errors on torn logs");
    recovered
}

/// A filesystem rebuilt from what recovery handed back, and how many
/// records failed to replay.
fn recover_vfs(recovered: &Recovered) -> (Vfs, usize) {
    let mut fs = match &recovered.snapshot {
        Some(state) => Vfs::from_snapshot(state).expect("snapshot"),
        None => Vfs::new(),
    };
    let errors = recovered
        .records
        .iter()
        .filter(|(_, _, payload)| fs.replay(payload).is_err())
        .count();
    (fs, errors)
}

/// A fresh scheduler rebuilt from what recovery handed back, and how many
/// records failed to replay.
fn recover_sched(recovered: &Recovered) -> (Scheduler, usize) {
    let mut s = fresh_sched();
    if let Some(state) = &recovered.snapshot {
        s.restore_snapshot(state).expect("snapshot");
    }
    let errors = recovered
        .records
        .iter()
        .filter(|(_, _, payload)| s.replay(payload).is_err())
        .count();
    (s, errors)
}

// ---- vfs -----------------------------------------------------------------

/// Drive a journaled Vfs through `steps` seeded operations, recording each
/// successful one. Returns the op list and the durable LSN at crash time.
fn run_vfs_workload(
    storage: MemStorage,
    seed: u64,
    steps: u32,
    fsync: FsyncPolicy,
    snapshot_interval: u64,
) -> (Vec<VfsRecord>, u64) {
    let journal = open_journal(&storage, fsync, snapshot_interval);
    let mut fs = Vfs::new();
    fs.attach_wal(Stream::new(Arc::clone(&journal), 0));
    let mut rng = Mix(seed);
    let mut ops: Vec<VfsRecord> = Vec::new();
    let mut record = |fs: &Vfs, ok: bool, rec: VfsRecord| {
        if ok {
            ops.push(rec);
            compact_if_due(&journal, || fs.snapshot_bytes());
        }
    };

    let ok = fs.add_user("alice", 1 << 20).is_ok();
    record(
        &fs,
        ok,
        VfsRecord::AddUser {
            user: "alice".into(),
            quota: 1 << 20,
        },
    );
    for i in 0..steps {
        let file = format!("/home/alice/f{}.txt", rng.below(6));
        let dir = format!("/home/alice/d{}", rng.below(4));
        match rng.below(6) {
            0 => {
                let data = format!("write {i} by seed {seed}").into_bytes();
                let ok = fs.write("alice", &file, data.clone()).is_ok();
                record(
                    &fs,
                    ok,
                    VfsRecord::Write {
                        user: "alice".into(),
                        path: file,
                        data,
                    },
                );
            }
            1 => {
                let data = format!("+{i}").into_bytes();
                let ok = fs.append("alice", &file, &data).is_ok();
                record(
                    &fs,
                    ok,
                    VfsRecord::Append {
                        user: "alice".into(),
                        path: file,
                        data,
                    },
                );
            }
            2 => {
                let ok = fs.mkdir_p("alice", &dir).is_ok();
                record(
                    &fs,
                    ok,
                    VfsRecord::MkdirP {
                        user: "alice".into(),
                        path: dir,
                    },
                )
            }
            3 => {
                let ok = fs.remove("alice", &file).is_ok();
                record(
                    &fs,
                    ok,
                    VfsRecord::Remove {
                        user: "alice".into(),
                        path: file,
                    },
                )
            }
            4 => {
                let to = format!("/home/alice/c{}.txt", rng.below(4));
                let ok = fs.copy("alice", &file, &to).is_ok();
                record(
                    &fs,
                    ok,
                    VfsRecord::Copy {
                        user: "alice".into(),
                        from: file,
                        to,
                    },
                );
            }
            _ => {
                let to = format!("/home/alice/r{}.txt", rng.below(4));
                let ok = fs.rename("alice", &file, &to).is_ok();
                record(
                    &fs,
                    ok,
                    VfsRecord::Rename {
                        user: "alice".into(),
                        from: file,
                        to,
                    },
                );
            }
        }
    }
    let (last, durable) = lsns(&journal);
    assert_eq!(last, ops.len() as u64, "one LSN per successful op");
    (ops, durable)
}

fn vfs_reference(ops: &[VfsRecord]) -> Vfs {
    let mut fs = Vfs::new();
    for op in ops {
        fs.apply(op).expect("ops succeeded the first time");
    }
    fs
}

#[test]
fn vfs_recovers_an_acked_prefix_from_any_crash_point() {
    for seed in 0..8u64 {
        let mut rng = Mix(seed ^ 0x00c0_ffee);
        let storage = MemStorage::new();
        // Small fsync window and snapshot interval so every seed crosses
        // several group commits and at least one compaction.
        let (ops, durable) = run_vfs_workload(
            storage.clone(),
            seed,
            120,
            FsyncPolicy::EveryN(1 + (seed % 5)),
            16,
        );
        // Crash: keep a seed-chosen slice of the unsynced tail, cutting at
        // an arbitrary byte boundary (often mid-record).
        let pending = storage.log_bytes() - storage.synced_bytes();
        storage.crash(rng.below(pending as u64 + 1) as usize);

        let recovered = reopen(storage);
        assert!(
            recovered.report.snapshot_lsn.is_some(),
            "seed {seed}: compaction never fired"
        );
        let (fs, replay_errors) = recover_vfs(&recovered);
        assert_eq!(replay_errors, 0, "seed {seed}: replay must be clean");

        let k = recovered.report.last_lsn;
        assert!(
            k >= durable,
            "seed {seed}: lost acked op {k} < durable {durable}"
        );
        assert!(
            k <= ops.len() as u64,
            "seed {seed}: recovered more ops than were issued"
        );
        assert_eq!(
            fs.snapshot_bytes(),
            vfs_reference(&ops[..k as usize]).snapshot_bytes(),
            "seed {seed}: recovered state must equal the {k}-op prefix"
        );
    }
}

#[test]
fn vfs_corrupt_tail_recovers_clean_prefix() {
    for seed in [3u64, 7, 11] {
        let storage = MemStorage::new();
        let (ops, _) = run_vfs_workload(storage.clone(), seed, 60, FsyncPolicy::Always, 0);
        // Bit-rot a byte two-thirds into the log: recovery must stop at the
        // first bad record and still hand back a valid prefix.
        storage.corrupt_byte(storage.log_bytes() * 2 / 3);
        let recovered = reopen(storage);
        let (fs, replay_errors) = recover_vfs(&recovered);
        assert_eq!(replay_errors, 0);
        let k = recovered.report.last_lsn;
        assert!(
            recovered.report.corrupt_records > 0 || recovered.report.torn_bytes > 0,
            "seed {seed}: the flipped byte must be noticed"
        );
        assert!(k < ops.len() as u64, "seed {seed}: some suffix was dropped");
        assert_eq!(
            fs.snapshot_bytes(),
            vfs_reference(&ops[..k as usize]).snapshot_bytes()
        );
    }
}

// ---- sched ---------------------------------------------------------------

fn fresh_sched() -> Scheduler {
    Scheduler::new(
        Cluster::new(ClusterSpec::small(2, 2)),
        SchedPolicyKind::Fifo,
    )
    .with_retry(RetryPolicy::fixed(3, 2))
    .with_retry_seed(42)
}

/// Drive a journaled scheduler through `steps` seeded commands, mirroring
/// each successful one as the record the WAL saw.
fn run_sched_workload(storage: MemStorage, seed: u64, steps: u32) -> (Vec<SchedRecord>, u64) {
    let journal = open_journal(&storage, FsyncPolicy::EveryN(1 + (seed % 4)), 24);
    let mut s = fresh_sched();
    s.attach_wal(Stream::new(Arc::clone(&journal), 1));
    let mut rng = Mix(seed.wrapping_mul(31).wrapping_add(7));
    let mut ops: Vec<SchedRecord> = Vec::new();
    let mut submitted: Vec<JobId> = Vec::new();
    for i in 0..steps {
        match rng.below(10) {
            0..=3 => {
                let spec = if rng.below(2) == 0 {
                    JobSpec::sequential("u", &format!("job{i}"), 1 + rng.below(6))
                } else {
                    JobSpec::parallel(
                        "u",
                        &format!("job{i}"),
                        1 + rng.below(8) as u32,
                        1 + rng.below(6),
                    )
                };
                if let Ok(id) = s.submit(spec.clone()) {
                    submitted.push(id);
                    ops.push(SchedRecord::Submit { spec });
                }
            }
            4 => {
                if let Some(&id) = submitted.get(rng.below(submitted.len() as u64) as usize) {
                    if s.cancel(id).is_ok() {
                        ops.push(SchedRecord::Cancel { id });
                    }
                }
            }
            5 => {
                if let Some(&id) = submitted.get(rng.below(submitted.len() as u64) as usize) {
                    let line = format!("in{i}");
                    if s.push_stdin(id, &line).is_ok() {
                        ops.push(SchedRecord::PushStdin { id, line });
                    }
                }
            }
            6 => {
                if let Some(&id) = submitted.get(rng.below(submitted.len() as u64) as usize) {
                    let out = format!("out{i}\n");
                    let ticks = 1 + rng.below(4);
                    if s.set_outcome(id, Some(&out), None, Some(ticks)).is_ok() {
                        ops.push(SchedRecord::SetOutcome {
                            id,
                            stdout: Some(out),
                            stderr: None,
                            actual_ticks: Some(ticks),
                        });
                    }
                }
            }
            7 => {
                let node = SlaveId {
                    segment: rng.below(2) as usize,
                    slot: rng.below(2) as usize,
                };
                if s.drain_node(node).is_ok() {
                    ops.push(SchedRecord::DrainNode { node });
                }
            }
            8 => {
                let node = SlaveId {
                    segment: rng.below(2) as usize,
                    slot: rng.below(2) as usize,
                };
                if s.undrain_node(node).is_ok() {
                    ops.push(SchedRecord::UndrainNode { node });
                }
            }
            _ => {
                s.tick();
                ops.push(SchedRecord::Tick);
            }
        }
        compact_if_due(&journal, || s.snapshot_bytes());
        assert!(
            journal.lock().unwrap().error().is_none(),
            "WAL must not degrade in-memory"
        );
    }
    let (last, durable) = lsns(&journal);
    assert_eq!(last, ops.len() as u64);
    (ops, durable)
}

fn sched_reference(ops: &[SchedRecord]) -> Scheduler {
    let mut s = fresh_sched();
    for op in ops {
        s.apply_record(op).expect("ops succeeded the first time");
    }
    s
}

#[test]
fn sched_recovers_an_acked_prefix_from_any_crash_point() {
    for seed in 0..8u64 {
        let mut rng = Mix(seed.wrapping_mul(977));
        let storage = MemStorage::new();
        let (ops, durable) = run_sched_workload(storage.clone(), seed, 150);
        let pending = storage.log_bytes() - storage.synced_bytes();
        storage.crash(rng.below(pending as u64 + 1) as usize);

        let recovered = reopen(storage);
        let (s, replay_errors) = recover_sched(&recovered);
        assert_eq!(replay_errors, 0, "seed {seed}");

        let k = recovered.report.last_lsn;
        assert!(k >= durable, "seed {seed}: lost acked command");
        assert!(k <= ops.len() as u64, "seed {seed}");
        assert_eq!(
            s.snapshot_bytes(),
            sched_reference(&ops[..k as usize]).snapshot_bytes(),
            "seed {seed}: recovered scheduler must equal the {k}-command prefix"
        );
    }
}

// ---- one journal, both substrates ----------------------------------------

#[test]
fn a_crash_recovers_a_prefix_common_to_both_substrates() {
    // Alice's home and a file, then 8 jobs, on one journal that group-
    // commits every 8 records; then a power loss keeps no unsynced byte.
    // With a journal per substrate, the jobs came back without the home.
    let storage = MemStorage::new();
    let journal = open_journal(&storage, FsyncPolicy::EveryN(8), 0);
    let mut fs = Vfs::new();
    fs.attach_wal(Stream::new(Arc::clone(&journal), 0));
    let mut s = fresh_sched();
    s.attach_wal(Stream::new(Arc::clone(&journal), 1));
    fs.add_user("alice", 1 << 20).unwrap();
    fs.write("alice", "/home/alice/a.mini", b"fn main() {}".to_vec())
        .unwrap();
    for i in 0..8 {
        s.submit(JobSpec::sequential("alice", &format!("job{i}"), 5))
            .unwrap();
    }
    drop((fs, s));
    storage.crash(0);

    let recovered = reopen(storage);
    assert_eq!(recovered.report.last_lsn, 8, "the first group commit");
    let mut fs = Vfs::new();
    let mut s = fresh_sched();
    for (_, tag, payload) in &recovered.records {
        match tag {
            0 => fs.replay(payload).unwrap(),
            _ => s.replay(payload).unwrap(),
        }
    }
    assert_eq!(s.jobs().count(), 6);
    assert_eq!(
        fs.read("alice", "/home/alice/a.mini").unwrap(),
        b"fn main() {}"
    );
}

// ---- whole portal --------------------------------------------------------

fn durable_config(dir: &std::path::Path) -> PortalConfig {
    PortalConfig {
        cluster: ClusterSpec::small(2, 2),
        data_dir: Some(dir.to_path_buf()),
        wal_fsync: FsyncPolicy::Always,
        ..PortalConfig::default()
    }
}

/// The file names in `dir`, sorted.
fn files_in(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn portal_survives_a_restart_with_data_dir_set() {
    let dir = std::env::temp_dir().join(format!("ccp-wal-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = durable_config(&dir);

    {
        let mut portal = Portal::new(cfg.clone());
        assert!(portal.durable(), "data_dir set => journaled");
        assert!(portal.wal_error().is_none());
        portal.bootstrap_admin("admin", "pw-123456").unwrap();
        let tok = portal.login("admin", "pw-123456", 0).unwrap();
        portal
            .write_file(&tok, "notes.txt", b"survives the crash".to_vec(), 0)
            .unwrap();
        portal.mkdir(&tok, "labs/week1", 0).unwrap();
        // Dropped without any explicit flush: FsyncPolicy::Always means
        // every op was already durable — this is the "kill -9".
    }

    {
        let mut portal = Portal::new(cfg);
        let h = portal.health_view();
        assert!(h.durable);
        assert!(h.wal_error.is_none());
        let rec = h.recovery.expect("one report for the one journal");
        assert!(
            rec.records_replayed > 0 || rec.snapshot_lsn.is_some(),
            "the first boot's writes must be visible to recovery"
        );
        // Credentials are not journaled; re-bootstrapping the admin must
        // tolerate the already-recovered home directory.
        portal.bootstrap_admin("admin", "pw-123456").unwrap();
        let tok = portal.login("admin", "pw-123456", 0).unwrap();
        assert_eq!(
            portal.read_file(&tok, "notes.txt", 0).unwrap(),
            b"survives the crash"
        );
        assert!(portal.list_dir(&tok, "labs/week1", 0).unwrap().is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn file_traffic_alone_compacts_and_the_snapshot_restores_both_substrates() {
    let dir = std::env::temp_dir().join(format!("ccp-wal-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PortalConfig {
        wal_fsync: FsyncPolicy::EveryN(8),
        ..durable_config(&dir)
    };

    let job = {
        let mut portal = Portal::new(cfg.clone());
        portal.bootstrap_admin("admin", "pw-123456").unwrap();
        let tok = portal.login("admin", "pw-123456", 0).unwrap();
        portal
            .write_file(&tok, "p.mini", b"fn main() { println(7); }".to_vec(), 0)
            .unwrap();
        let art = portal.compile(&tok, "p.mini", 0).unwrap().artifact.unwrap();
        let job = portal.submit_job(&tok, art.as_str(), 1, 5, 0).unwrap();
        // More saves than one snapshot interval, and never a tick.
        for i in 0..1100 {
            portal
                .write_file(&tok, &format!("f{i}.txt"), format!("{i}").into_bytes(), 0)
                .unwrap();
        }
        job
    };
    assert_eq!(files_in(&dir), ["portal.snap", "portal.wal"]);

    let mut portal = Portal::new(cfg);
    let rec = portal.health_view().recovery.unwrap();
    assert_eq!(rec.snapshot_lsn, Some(1024), "file saves alone compacted");
    assert_eq!(rec.last_lsn, 1103);
    assert_eq!(rec.records_replayed, 1103 - 1024);
    assert_eq!((rec.corrupt_records, rec.replay_errors), (0, 0));
    portal.bootstrap_admin("admin", "pw-123456").unwrap();
    let tok = portal.login("admin", "pw-123456", 0).unwrap();
    assert_eq!(portal.read_file(&tok, "f1099.txt", 0).unwrap(), b"1099");
    assert_eq!(portal.read_file(&tok, "f0.txt", 0).unwrap(), b"0");
    assert_eq!(
        portal.scheduler_mut().job(job).unwrap().state,
        JobState::Pending,
        "the job submitted before the saves is in the snapshot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A student's `GET /api/jobs` reads the scheduler's per-owner index,
/// which a restart rebuilds from the snapshot and then from the replayed
/// tail. Two students interleave past one snapshot interval, so both
/// paths fill each student's list, and every list comes back byte for
/// byte.
#[test]
fn job_lists_survive_a_restart_through_a_snapshot_and_a_tail() {
    let dir = std::env::temp_dir().join(format!("ccp-wal-job-lists-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = PortalConfig {
        wal_fsync: FsyncPolicy::EveryN(8),
        ..durable_config(&dir)
    };
    const ADMIN: (&str, &str) = ("admin", "pw-123456");
    const STUDENTS: [(&str, &str); 2] = [("alice", "alice-pw-1"), ("bob", "bob-pw-22")];
    // Credentials are not journaled, so every boot registers the accounts
    // again, as perfbench's fixture does.
    let boot = || {
        let mut portal = Portal::new(cfg.clone());
        portal.bootstrap_admin(ADMIN.0, ADMIN.1).unwrap();
        let admin = portal.login(ADMIN.0, ADMIN.1, 0).unwrap();
        for (user, password) in STUDENTS {
            portal
                .create_user(&admin, user, password, auth::Role::Student, 0)
                .unwrap();
        }
        portal.logout(&admin);
        let app = App::new(portal);
        let router = build_router(Arc::clone(&app));
        (app, router)
    };
    let list = |router: &httpd::Router, (user, password): (&str, &str)| {
        let body = format!(r#"{{"user":"{user}","password":"{password}"}}"#);
        let login = dispatch(
            router,
            httpd::Method::Post,
            "/api/login",
            body.as_bytes(),
            None,
        );
        let login = httpd::Json::parse(login.body_str()).unwrap();
        let token = login.get("token").and_then(httpd::Json::as_str).unwrap();
        let resp = dispatch(router, httpd::Method::Get, "/api/jobs", b"", Some(token));
        assert_eq!(resp.status, httpd::Status::OK);
        resp.body_str().to_string()
    };
    let everyone = [STUDENTS[0], STUDENTS[1], ADMIN];

    let (before, submitted) = {
        let (app, router) = boot();
        let students: Vec<(auth::Token, String)> = STUDENTS
            .iter()
            .map(|&(user, password)| {
                app.write(|p| {
                    let tok = p.login(user, password, 0).unwrap();
                    p.write_file(&tok, "p.mini", b"fn main() { println(1); }".to_vec(), 0)
                        .unwrap();
                    let art = p.compile(&tok, "p.mini", 0).unwrap().artifact.unwrap();
                    (tok, art.as_str().to_string())
                })
            })
            .collect();
        let mut submitted = 0;
        app.write(|p| {
            for round in 0..600u64 {
                // alice submits on every round, bob on two of three.
                for (i, (tok, art)) in students.iter().enumerate() {
                    if i == 1 && round % 3 == 0 {
                        continue;
                    }
                    let id = p.submit_job(tok, art, 1, 3, 0).unwrap();
                    submitted += 1;
                    if round % 7 == 0 {
                        p.cancel_job(tok, id, 0).unwrap();
                    }
                }
                if round % 5 == 0 {
                    p.tick();
                }
            }
        });
        let before: Vec<String> = everyone.iter().map(|&u| list(&router, u)).collect();
        (before, submitted)
    };
    assert_eq!(files_in(&dir), ["portal.snap", "portal.wal"]);

    let (app, router) = boot();
    let rec = app.read(|p| p.health_view()).recovery.unwrap();
    assert!(rec.snapshot_lsn.is_some(), "{rec:?}");
    assert!(rec.records_replayed > 0, "{rec:?}");
    assert_eq!((rec.corrupt_records, rec.replay_errors), (0, 0));
    let after: Vec<String> = everyone.iter().map(|&u| list(&router, u)).collect();
    assert_eq!(after, before);
    let all = httpd::Json::parse(&after[2]).unwrap();
    assert_eq!(all.as_arr().unwrap().len(), submitted);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_data_dir_in_the_retired_two_log_layout_is_refused() {
    let dir = std::env::temp_dir().join(format!("ccp-wal-retired-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("vfs.wal"), b"").unwrap();

    let portal = Portal::new(durable_config(&dir));
    let h = portal.health_view();
    assert!(!h.durable, "serves from memory");
    assert!(h.recovery.is_none());
    let err = h.wal_error.expect("the refusal is reported");
    assert!(err.contains("vfs.wal"), "{err}");
    assert_eq!(files_in(&dir), ["vfs.wal"], "nothing written beside it");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn double_recovery_is_idempotent() {
    let storage = MemStorage::new();
    let (ops, _) = run_sched_workload(storage.clone(), 5, 80);
    storage.crash(0);

    // First recovery (reopening truncates any torn tail in storage)...
    let rec1 = reopen(storage.clone());
    let (s1, _) = recover_sched(&rec1);
    // ...then a second crash-before-any-writes and another recovery must
    // land on the same bytes: recovery changes nothing it doesn't have to.
    let rec2 = reopen(storage);
    let (s2, _) = recover_sched(&rec2);
    assert_eq!(rec1.report.last_lsn, rec2.report.last_lsn);
    assert_eq!(s1.snapshot_bytes(), s2.snapshot_bytes());
    assert!(rec1.report.last_lsn <= ops.len() as u64);
}

/// Prints EXPERIMENTS.md's "Crash recovery time vs log length" table:
/// `cargo test --release --test wal_recovery -- --ignored --nocapture`.
#[test]
#[ignore = "prints a timing table; run by hand"]
fn recovery_time_vs_log_length() {
    println!("| saves | records replayed | snapshot LSN | on-disk bytes | recovery time |");
    println!("|------:|-----------------:|-------------:|--------------:|--------------:|");
    for saves in [1_000u32, 10_000, 100_000] {
        let dir = std::env::temp_dir().join(format!("ccp-wal-timing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = PortalConfig {
            wal_fsync: FsyncPolicy::EveryN(8),
            ..durable_config(&dir)
        };
        {
            let mut portal = Portal::new(cfg.clone());
            portal.bootstrap_admin("admin", "pw-123456").unwrap();
            let tok = portal.login("admin", "pw-123456", 0).unwrap();
            for i in 0..saves {
                let data = format!("save {i} of a 64-file working set").into_bytes();
                portal
                    .write_file(&tok, &format!("f{}.txt", i % 64), data, 0)
                    .unwrap();
            }
        }
        let bytes: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        let mut runs: Vec<_> = (0..3)
            .map(|_| Portal::new(cfg.clone()).recovery_report().unwrap().clone())
            .collect();
        runs.sort_by_key(|r| r.wall_us);
        let r = &runs[1];
        println!(
            "| {saves} | {} | {} | {bytes} | {:.1} ms |",
            r.records_replayed,
            r.snapshot_lsn.map_or("none".to_string(), |l| l.to_string()),
            r.wall_us as f64 / 1000.0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
