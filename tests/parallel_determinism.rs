//! The parallel exploration engine's acceptance bar: for every lab
//! archetype, the pooled checker must produce a `CheckReport` equal — field
//! for field, byte for byte — to the serial one, across worker counts and
//! seeds. Parallelism buys wall-clock time only; it must never buy a
//! different answer.

use checker::{CheckConfig, CheckReport, Pool};
use labs::{lab1_sync, lab5_bank, lab6_philosophers, lab7_boundedbuffer};

/// Every lab archetype the grader meets: clean and buggy variants of the
/// exploration-graded labs, covering clean, race, and deadlock verdicts.
fn archetypes() -> Vec<(&'static str, String)> {
    vec![
        ("lab1 fixed", lab1_sync::FIXED_SOURCE.to_string()),
        ("lab1 buggy", lab1_sync::BUGGY_SOURCE.to_string()),
        (
            "lab5 locked",
            lab5_bank::source(lab5_bank::BankStep::ConcurrentLocked),
        ),
        (
            "lab5 racy",
            lab5_bank::source(lab5_bank::BankStep::ConcurrentRacy),
        ),
        ("lab6 ordered", lab6_philosophers::ordered_source(4)),
        ("lab6 naive", lab6_philosophers::naive_source(5)),
        ("lab7 semaphore", lab7_boundedbuffer::semaphore_source()),
        ("lab7 buggy", lab7_boundedbuffer::buggy_source()),
        // Reduction-hostile archetypes (see `checker::archetypes`): their
        // violations hide behind one ordering of dependent ops, so they
        // stress exactly the DPOR merge arithmetic the pool replays.
        (
            "racy_then_synced",
            checker::archetypes::racy_then_synced().to_string(),
        ),
        (
            "lost_wakeup",
            checker::archetypes::lost_wakeup().to_string(),
        ),
        (
            "channel_drain_race",
            checker::archetypes::channel_drain_race().to_string(),
        ),
    ]
}

/// The grader's exploration budget (see `labs::grading`), seed injected.
fn grading_cfg(seed: u64) -> CheckConfig {
    CheckConfig {
        max_schedules: 24,
        max_steps: 400_000,
        minimize: false,
        seed,
        ..CheckConfig::default()
    }
}

fn assert_identical(name: &str, src: &str, cfg: &CheckConfig) {
    let program = minilang::compile(src).expect("archetype compiles");
    let serial: CheckReport = checker::check(&program, cfg);
    for workers in [1usize, 2, 4] {
        let pool = Pool::new(workers);
        let parallel = pool.check(&program, cfg);
        assert_eq!(
            parallel, serial,
            "{name}: {workers}-worker report diverged from serial (seed {})",
            cfg.seed
        );
    }
}

#[test]
fn every_archetype_is_bit_identical_across_workers_and_seeds() {
    for (name, src) in archetypes() {
        for seed in [0u64, 1, 2] {
            assert_identical(name, &src, &grading_cfg(seed));
        }
    }
}

#[test]
fn snapshot_stats_report_saved_replay_work() {
    // On a branchy clean program both DFS engines must actually take
    // snapshots and skip prefix replay.
    let src = lab6_philosophers::ordered_source(4);
    let program = minilang::compile(&src).unwrap();
    for dpor in [false, true] {
        let cfg = CheckConfig {
            dpor,
            ..grading_cfg(0)
        };
        let (_, snap_stats) = checker::check_with_stats(&program, &cfg);
        assert!(
            snap_stats.snapshots > 0,
            "no snapshots taken: {snap_stats:?}"
        );
        assert!(
            snap_stats.replay_steps_saved > 0,
            "no replay work saved: {snap_stats:?}"
        );
    }
}

#[test]
fn default_config_with_minimization_is_bit_identical() {
    // The API default: minimize on, 48 schedules — what `/api/analyze` runs.
    let cfg = CheckConfig::default();
    assert_identical(
        "lab5 racy (default cfg)",
        &lab5_bank::source(lab5_bank::BankStep::ConcurrentRacy),
        &cfg,
    );
    assert_identical(
        "lab6 naive (default cfg)",
        &lab6_philosophers::naive_source(5),
        &cfg,
    );
}

/// Three threads read `x` and a fourth writes it, so the write races with
/// every read. The report must name one reader, the lowest, on every run
/// and at every pool width, because `/api/analyze` shows it to students.
/// Picking the reader by a randomly seeded hash map's iteration order
/// named threads 1, 2 and 3 about equally often across runs.
#[test]
fn race_with_many_readers_names_the_lowest_reader_every_time() {
    let src = r#"
        var x = 0;
        fn reader() {
            var v = x;
            return v;
        }
        fn writer() {
            x = 1;
        }
        fn main() {
            var a = spawn reader();
            var b = spawn reader();
            var c = spawn reader();
            var d = spawn writer();
            join(a);
            join(b);
            join(c);
            join(d);
            return x;
        }
    "#;
    let program = minilang::compile(src).expect("probe compiles");
    let cfg = CheckConfig::default();
    let first = checker::check(&program, &cfg);
    match &first.verdict {
        checker::Verdict::Race { first, second, .. } => {
            assert_eq!(first, "thread 1 read");
            assert_eq!(second, "thread 4 write");
        }
        other => panic!("expected a race, got {other:?}"),
    }
    for run in 0..20 {
        assert_eq!(checker::check(&program, &cfg), first, "serial run {run}");
    }
    for workers in [1usize, 2, 4] {
        assert_eq!(
            Pool::new(workers).check(&program, &cfg),
            first,
            "{workers} workers"
        );
    }
}

#[test]
fn strategy_extremes_are_bit_identical() {
    // Pure DFS and pure random-walk exercise the two merge phases alone.
    let src = lab6_philosophers::naive_source(4);
    let program = minilang::compile(&src).unwrap();
    for strategy in [checker::Strategy::Dfs, checker::Strategy::RandomWalk] {
        let cfg = CheckConfig {
            strategy,
            ..grading_cfg(3)
        };
        let serial = checker::check(&program, &cfg);
        for workers in [2usize, 4] {
            assert_eq!(
                Pool::new(workers).check(&program, &cfg),
                serial,
                "{strategy:?} with {workers} workers"
            );
        }
    }
}

#[test]
fn batch_grading_through_portal_pool_matches_serial() {
    let batch: Vec<(labs::LabId, String)> = vec![
        (
            labs::LabId::Bank,
            lab5_bank::source(lab5_bank::BankStep::ConcurrentLocked),
        ),
        (
            labs::LabId::Bank,
            lab5_bank::source(lab5_bank::BankStep::ConcurrentRacy),
        ),
        (
            labs::LabId::Philosophers,
            lab6_philosophers::ordered_source(4),
        ),
    ];
    let serial: Vec<labs::GradeReport> = batch.iter().map(|(l, s)| labs::grade(*l, s)).collect();
    assert_eq!(labs::grade_batch(&Pool::new(3), &batch), serial);
}

// ---- compile cache ---------------------------------------------------------

#[test]
fn cache_hit_returns_identical_artifact_and_one_byte_change_misses() {
    use std::sync::Mutex;
    use toolchain::{ArtifactStore, CompileCache, CompileRequest};
    use vfs::Vfs;

    let mut fs = Vfs::new();
    fs.add_user("alice", 1 << 20).unwrap();
    fs.add_user("bob", 1 << 20).unwrap();
    let mut store = ArtifactStore::new();
    let cache = Mutex::new(CompileCache::new(32));
    let obs = obs::Obs::new();

    let src = b"fn main() { println(41 + 1); }".to_vec();
    fs.write("alice", "/home/alice/a.mini", src.clone())
        .unwrap();
    fs.write("bob", "/home/bob/b.mini", src.clone()).unwrap();

    let first = CompileRequest::new("alice", "/home/alice/a.mini")
        .snapshot(&fs)
        .compile(&cache)
        .commit(&mut store, &obs);
    assert!(first.success());
    assert_eq!(cache.lock().unwrap().stats().misses, 1);

    // Same bytes from another user: a hit, and the stored program behaves
    // identically to a fresh compile.
    let second = CompileRequest::new("bob", "/home/bob/b.mini")
        .snapshot(&fs)
        .compile(&cache)
        .commit(&mut store, &obs);
    assert!(second.success());
    assert_eq!(cache.lock().unwrap().stats().hits, 1);
    let a = store.get(first.artifact.as_ref().unwrap()).unwrap();
    let b = store.get(second.artifact.as_ref().unwrap()).unwrap();
    assert_eq!(format!("{:?}", a.program), format!("{:?}", b.program));

    // One byte changed: a miss.
    let mut changed = src.clone();
    let i = changed.iter().position(|&c| c == b'1').unwrap();
    changed[i] = b'2';
    fs.write("alice", "/home/alice/a.mini", changed).unwrap();
    let third = CompileRequest::new("alice", "/home/alice/a.mini")
        .snapshot(&fs)
        .compile(&cache)
        .commit(&mut store, &obs);
    assert!(third.success());
    assert_eq!(cache.lock().unwrap().stats().misses, 2);
    assert_eq!(cache.lock().unwrap().stats().hits, 1);
}

#[test]
fn direct_cache_api_is_content_exact() {
    // One fixed case of the `compile_cache_is_content_exact` property in
    // tests/property_tests.rs.
    let src = "fn main() { var x = 3; println(x + 4); }".to_string();
    let mut cache = toolchain::CompileCache::new(16);
    let prog = minilang::compile(&src).unwrap();
    cache.insert(&src, prog.clone());
    let hit = cache.lookup(&src).expect("identical source hits");
    assert_eq!(format!("{hit:?}"), format!("{prog:?}"));
    let mut mutated = src.clone().into_bytes();
    mutated[20] ^= 1;
    let mutated = String::from_utf8(mutated).unwrap();
    assert!(cache.lookup(&mutated).is_none());
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

#[test]
fn resubmitting_class_hits_at_least_ninety_percent() {
    use std::sync::Mutex;
    use toolchain::{ArtifactStore, CompileCache, CompileRequest};
    use vfs::Vfs;

    // A simulated class of 30 students resubmitting the same lab starter
    // five times each: after the first compile, everything is a hit.
    let mut fs = Vfs::new();
    let mut store = ArtifactStore::new();
    let cache = Mutex::new(CompileCache::new(64));
    let starter = lab5_bank::source(lab5_bank::BankStep::ConcurrentLocked);
    for s in 0..30 {
        let user = format!("student{s}");
        fs.add_user(&user, 1 << 20).unwrap();
        fs.write(
            &user,
            &format!("/home/{user}/bank.mini"),
            starter.clone().into_bytes(),
        )
        .unwrap();
    }
    let obs = obs::Obs::new();
    for _round in 0..5 {
        for s in 0..30 {
            let user = format!("student{s}");
            let report = CompileRequest::new(&user, &format!("/home/{user}/bank.mini"))
                .snapshot(&fs)
                .compile(&cache)
                .commit(&mut store, &obs);
            assert!(report.success());
        }
    }
    let stats = cache.lock().unwrap().stats();
    assert!(
        stats.hit_rate() >= 0.9,
        "class resubmission hit rate {:.3} below 0.9 ({stats:?})",
        stats.hit_rate()
    );
}

#[test]
fn portal_compile_path_uses_cache_and_surfaces_metrics() {
    use ccp_core::{Portal, PortalConfig};

    let mut portal = Portal::new(PortalConfig::default());
    portal.bootstrap_admin("admin", "change-me-please").unwrap();
    let tok = portal.login("admin", "change-me-please", 0).unwrap();
    portal
        .write_file(&tok, "hot.mini", b"fn main() { println(9); }".to_vec(), 0)
        .unwrap();
    portal.compile(&tok, "hot.mini", 0).unwrap();
    portal.compile(&tok, "hot.mini", 0).unwrap();
    let stats = portal.compile_cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    portal.publish_gauges();
    let text = portal.obs().metrics.render();
    for family in [
        "# TYPE ccp_compile_cache_hits_total counter",
        "# TYPE ccp_compile_cache_misses_total counter",
        "# TYPE ccp_compile_cache_evictions_total counter",
        "# TYPE ccp_compile_cache_entries gauge",
        "# TYPE ccp_pool_workers gauge",
        "# TYPE ccp_pool_tasks_total counter",
        "# TYPE ccp_pool_steals_total counter",
        "# TYPE ccp_pool_busy_us histogram",
        "# TYPE ccp_pool_idle_us histogram",
        "# TYPE ccp_vm_steps_total counter",
        "# TYPE ccp_vm_replay_steps_saved_total counter",
        "# TYPE ccp_checker_snapshots_total counter",
    ] {
        assert!(text.contains(family), "missing {family:?} in exposition");
    }
    assert!(text.contains("ccp_compile_cache_hits_total 1"));
}
