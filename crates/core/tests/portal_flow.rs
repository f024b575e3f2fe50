//! End-to-end portal flows: the §II user journey — authenticate, manage
//! files, compile, execute, submit to the distributor, monitor streams.

use auth::Role;
use ccp_core::{Portal, PortalConfig, PortalError};
use cluster::{ClusterSpec, NodeHealth, SlaveId};
use sched::{JobState, RetryPolicy};

fn portal() -> Portal {
    let config = PortalConfig {
        cluster: ClusterSpec::small(2, 2),
        ..PortalConfig::default()
    };
    let mut p = Portal::new(config);
    p.bootstrap_admin("admin", "super-secret9").unwrap();
    p
}

fn student(p: &mut Portal, name: &str) -> auth::Token {
    let admin = p.login("admin", "super-secret9", 0).unwrap();
    p.create_user(&admin, name, "password99", Role::Student, 0)
        .unwrap();
    p.login(name, "password99", 0).unwrap()
}

#[test]
fn bootstrap_only_once() {
    let mut p = portal();
    assert!(matches!(
        p.bootstrap_admin("other", "password99"),
        Err(PortalError::Bootstrap(_))
    ));
}

#[test]
fn login_bad_password_rejected() {
    let mut p = portal();
    assert!(matches!(
        p.login("admin", "wrong-password", 0),
        Err(PortalError::Auth(_))
    ));
    assert!(matches!(
        p.login("ghost", "whatever99", 0),
        Err(PortalError::Auth(_))
    ));
}

#[test]
fn session_expiry_enforced() {
    let mut p = portal();
    let t = p.login("admin", "super-secret9", 0).unwrap();
    assert!(p.whoami(&t, 100).is_ok());
    assert!(matches!(p.whoami(&t, 4000), Err(PortalError::Session(_))));
}

/// Two portals booted from the same default configuration never share a
/// session token: token entropy comes from the OS, not from the config's
/// seed, so one deployment's admin token is worthless at another.
#[test]
fn two_default_portals_never_share_a_token() {
    let boot = || {
        let mut p = Portal::new(PortalConfig::default());
        p.bootstrap_admin("admin", "change-me-please").unwrap();
        p
    };
    let (mut a, mut b) = (boot(), boot());
    let ta = a.login("admin", "change-me-please", 0).unwrap();
    let tb = b.login("admin", "change-me-please", 0).unwrap();
    assert_ne!(ta, tb);
    assert!(
        a.whoami(&tb, 1).is_err(),
        "portal a accepted portal b's token"
    );
    assert!(
        b.whoami(&ta, 1).is_err(),
        "portal b accepted portal a's token"
    );
}

#[test]
fn logout_invalidates() {
    let mut p = portal();
    let t = p.login("admin", "super-secret9", 0).unwrap();
    p.logout(&t);
    assert!(p.whoami(&t, 1).is_err());
}

#[test]
fn only_admin_creates_users() {
    let mut p = portal();
    let s = student(&mut p, "alice");
    assert!(matches!(
        p.create_user(&s, "bob", "password99", Role::Student, 0),
        Err(PortalError::Forbidden(_))
    ));
    let admin = p.login("admin", "super-secret9", 0).unwrap();
    assert_eq!(p.list_users(&admin, 0).unwrap(), vec!["admin", "alice"]);
    assert!(p.list_users(&s, 0).is_err());
}

#[test]
fn file_manager_crud() {
    let mut p = portal();
    let t = student(&mut p, "alice");
    p.mkdir(&t, "src", 0).unwrap();
    p.write_file(&t, "src/main.mini", b"fn main() { }".to_vec(), 0)
        .unwrap();
    p.write_file(&t, "notes.txt", b"hello".to_vec(), 0).unwrap();
    let listing = p.list_dir(&t, "", 0).unwrap();
    let names: Vec<&str> = listing.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, vec!["notes.txt", "src"]);
    assert!(listing[1].is_dir);
    assert_eq!(p.read_file(&t, "notes.txt", 0).unwrap(), b"hello");
    p.copy(&t, "notes.txt", "notes2.txt", 0).unwrap();
    p.rename(&t, "notes2.txt", "archive.txt", 0).unwrap();
    assert_eq!(p.read_file(&t, "archive.txt", 0).unwrap(), b"hello");
    p.remove(&t, "src", 0).unwrap();
    assert_eq!(p.list_dir(&t, "", 0).unwrap().len(), 2);
    let q = p.quota(&t, 0).unwrap();
    assert_eq!(q.used, 10); // two 5-byte files
}

#[test]
fn students_cannot_escape_home() {
    let mut p = portal();
    let t = student(&mut p, "alice");
    let _t2 = student(&mut p, "eve");
    assert!(matches!(
        p.read_file(&t, "/home/eve/secret", 0),
        Err(PortalError::OutsideHome { .. })
    ));
    assert!(matches!(
        p.read_file(&t, "../eve/secret", 0),
        Err(PortalError::OutsideHome { .. })
    ));
    assert!(matches!(
        p.write_file(&t, "/etc/passwd", vec![], 0),
        Err(PortalError::OutsideHome { .. })
    ));
}

#[test]
fn compile_run_roundtrip() {
    let mut p = portal();
    let t = student(&mut p, "alice");
    p.write_file(
        &t,
        "hello.mini",
        b"fn main() { println(\"from cluster\"); }".to_vec(),
        0,
    )
    .unwrap();
    let report = p.compile(&t, "hello.mini", 0).unwrap();
    assert!(report.success(), "{}", report.render());
    let artifacts = p.my_artifacts(&t, 0).unwrap();
    assert_eq!(artifacts.len(), 1);
    let run = p.run_interactive(&t, &artifacts[0].0, 0, 0).unwrap();
    assert_eq!(run.outcome.unwrap().stdout, "from cluster\n");
}

#[test]
fn compile_errors_reported() {
    let mut p = portal();
    let t = student(&mut p, "alice");
    p.write_file(&t, "bad.mini", b"fn main() { var = ; }".to_vec(), 0)
        .unwrap();
    let report = p.compile(&t, "bad.mini", 0).unwrap();
    assert!(!report.success());
    assert!(report.render().contains("error"));
}

#[test]
fn cannot_run_another_users_artifact() {
    let mut p = portal();
    let alice = student(&mut p, "alice");
    let bob = student(&mut p, "bob");
    p.write_file(&alice, "a.mini", b"fn main() { }".to_vec(), 0)
        .unwrap();
    let report = p.compile(&alice, "a.mini", 0).unwrap();
    let id = report.artifact.unwrap().to_string();
    assert!(matches!(
        p.run_interactive(&bob, &id, 0, 0),
        Err(PortalError::Forbidden(_))
    ));
    // Alice herself can.
    assert!(p.run_interactive(&alice, &id, 0, 0).is_ok());
}

#[test]
fn batch_job_lifecycle_with_streams() {
    let mut p = portal();
    let t = student(&mut p, "alice");
    p.write_file(
        &t,
        "job.mini",
        b"fn main() { for (var i = 0; i < 3; i = i + 1) { println(\"line \", i); } }".to_vec(),
        0,
    )
    .unwrap();
    let report = p.compile(&t, "job.mini", 0).unwrap();
    let art = report.artifact.unwrap().to_string();
    let id = p.submit_job(&t, &art, 1, 5, 0).unwrap();
    assert!(matches!(p.job(&t, id, 0).unwrap().state, JobState::Pending));
    p.tick(); // dispatch + execute
    let view = p.job(&t, id, 0).unwrap();
    assert!(
        view.stdout.contains("line 0") && view.stdout.contains("line 2"),
        "{}",
        view.stdout
    );
    assert!(p.drain_jobs(100));
    assert!(matches!(
        p.job(&t, id, 0).unwrap().state,
        JobState::Completed { .. }
    ));
    // Resources returned.
    let (free, total, util) = p.cluster_status();
    assert_eq!(free, total);
    assert_eq!(util, 0.0);
}

#[test]
fn stdin_reaches_batch_job() {
    let mut p = portal();
    let t = student(&mut p, "alice");
    p.write_file(
        &t,
        "echo.mini",
        b"fn main() { println(\"got: \", read_line()); }".to_vec(),
        0,
    )
    .unwrap();
    let art = p
        .compile(&t, "echo.mini", 0)
        .unwrap()
        .artifact
        .unwrap()
        .to_string();
    let id = p.submit_job(&t, &art, 1, 5, 0).unwrap();
    p.send_stdin(&t, id, "forty-two", 0).unwrap();
    p.drain_jobs(100);
    let view = p.job(&t, id, 0).unwrap();
    assert_eq!(view.stdout, "got: forty-two\n");
}

#[test]
fn parallel_job_occupies_cores() {
    let mut p = portal();
    let t = student(&mut p, "alice");
    p.write_file(&t, "par.mini", b"fn main() { sleep(100000); }".to_vec(), 0)
        .unwrap();
    let art = p
        .compile(&t, "par.mini", 0)
        .unwrap()
        .artifact
        .unwrap()
        .to_string();
    let _id = p.submit_job(&t, &art, 8, 50, 0).unwrap();
    p.tick();
    let (free, total, _) = p.cluster_status();
    assert_eq!(total - free, 8);
}

#[test]
fn failing_job_reports_stderr() {
    let mut p = portal();
    let t = student(&mut p, "alice");
    p.write_file(
        &t,
        "dead.mini",
        b"fn main() { var m = mutex(); lock(m); lock(m); }".to_vec(),
        0,
    )
    .unwrap();
    let art = p
        .compile(&t, "dead.mini", 0)
        .unwrap()
        .artifact
        .unwrap()
        .to_string();
    let id = p.submit_job(&t, &art, 1, 5, 0).unwrap();
    p.drain_jobs(100);
    let view = p.job(&t, id, 0).unwrap();
    assert!(view.stderr.contains("deadlock"), "{}", view.stderr);
}

#[test]
fn job_visibility_rules() {
    let mut p = portal();
    let alice = student(&mut p, "alice");
    let bob = student(&mut p, "bob");
    p.write_file(&alice, "x.mini", b"fn main() { }".to_vec(), 0)
        .unwrap();
    let art = p
        .compile(&alice, "x.mini", 0)
        .unwrap()
        .artifact
        .unwrap()
        .to_string();
    let id = p.submit_job(&alice, &art, 1, 1, 0).unwrap();
    assert!(matches!(p.job(&bob, id, 0), Err(PortalError::Forbidden(_))));
    assert!(p.jobs(&bob, 0).unwrap().is_empty());
    let admin = p.login("admin", "super-secret9", 0).unwrap();
    assert_eq!(p.jobs(&admin, 0).unwrap().len(), 1);
    assert!(matches!(
        p.cancel_job(&bob, id, 0),
        Err(PortalError::Forbidden(_))
    ));
    p.cancel_job(&alice, id, 0).unwrap();
}

#[test]
fn drain_requires_admin_and_is_visible_in_health() {
    let mut p = portal();
    let s = student(&mut p, "alice");
    assert!(matches!(
        p.drain_node(&s, 0, 0, 0),
        Err(PortalError::Forbidden(_))
    ));
    assert!(matches!(
        p.undrain_node(&s, 0, 0, 0),
        Err(PortalError::Forbidden(_))
    ));
    assert!(!p.degraded());
    let admin = p.login("admin", "super-secret9", 0).unwrap();
    p.drain_node(&admin, 0, 0, 0).unwrap();
    assert!(p.degraded());
    let nodes = p.cluster_nodes();
    assert_eq!(nodes.len(), 4);
    let drained = nodes
        .iter()
        .find(|n| n.segment == 0 && n.slot == 0)
        .unwrap();
    assert_eq!(drained.health, "draining");
    assert!(nodes.iter().filter(|n| n.health == "up").count() == 3);
    p.undrain_node(&admin, 0, 0, 0).unwrap();
    assert!(!p.degraded());
}

#[test]
fn degraded_portal_keeps_accepting_jobs() {
    let mut p = portal();
    let t = student(&mut p, "alice");
    p.write_file(&t, "x.mini", b"fn main() { }".to_vec(), 0)
        .unwrap();
    let art = p
        .compile(&t, "x.mini", 0)
        .unwrap()
        .artifact
        .unwrap()
        .to_string();
    // Take a whole segment down (half the 16-core cluster).
    let sched = p.scheduler_mut();
    sched
        .cluster_mut()
        .set_health(
            SlaveId {
                segment: 0,
                slot: 0,
            },
            NodeHealth::Down,
        )
        .unwrap();
    sched
        .cluster_mut()
        .set_health(
            SlaveId {
                segment: 0,
                slot: 1,
            },
            NodeHealth::Down,
        )
        .unwrap();
    assert!(p.degraded());
    // 12 cores exceeds live capacity (8) but not spec capacity (16): the
    // submission is accepted and parks until the segment returns.
    let id = p.submit_job(&t, &art, 12, 5, 0).unwrap();
    for _ in 0..10 {
        p.tick();
    }
    assert!(matches!(p.job(&t, id, 0).unwrap().state, JobState::Pending));
    let sched = p.scheduler_mut();
    sched
        .cluster_mut()
        .set_health(
            SlaveId {
                segment: 0,
                slot: 0,
            },
            NodeHealth::Up,
        )
        .unwrap();
    sched
        .cluster_mut()
        .set_health(
            SlaveId {
                segment: 0,
                slot: 1,
            },
            NodeHealth::Up,
        )
        .unwrap();
    assert!(p.drain_jobs(100));
    assert!(matches!(
        p.job(&t, id, 0).unwrap().state,
        JobState::Completed { .. }
    ));
}

#[test]
fn job_view_reports_attempts_and_failure_cause() {
    let mut p = portal();
    let t = student(&mut p, "alice");
    p.write_file(
        &t,
        "long.mini",
        b"fn main() { sleep(1000000); }".to_vec(),
        0,
    )
    .unwrap();
    let art = p
        .compile(&t, "long.mini", 0)
        .unwrap()
        .artifact
        .unwrap()
        .to_string();
    let id = p.submit_job(&t, &art, 1, 100, 0).unwrap();
    p.tick();
    assert_eq!(p.job(&t, id, 0).unwrap().attempt, 1);
    // Kill the node under it; default retry policy requeues the job.
    let victim = *p
        .scheduler_mut()
        .job(id)
        .unwrap()
        .allocation
        .as_ref()
        .unwrap()
        .cores
        .keys()
        .next()
        .unwrap();
    p.scheduler_mut()
        .cluster_mut()
        .set_health(victim, NodeHealth::Down)
        .unwrap();
    p.tick();
    let view = p.job(&t, id, 0).unwrap();
    assert!(
        matches!(view.state, JobState::Requeued { attempt: 2, .. }),
        "{:?}",
        view.state
    );
    assert_eq!(view.last_failure.as_deref(), Some("node went down"));
    assert!(view.state_label.contains("requeued"));
}

#[test]
fn cancel_after_fault_returns_typed_errors() {
    let mut p = portal();
    let t = student(&mut p, "alice");
    p.write_file(
        &t,
        "long.mini",
        b"fn main() { sleep(1000000); }".to_vec(),
        0,
    )
    .unwrap();
    let art = p
        .compile(&t, "long.mini", 0)
        .unwrap()
        .artifact
        .unwrap()
        .to_string();
    let id = p.submit_job(&t, &art, 1, 100, 0).unwrap();
    // No retries for this job: first node loss is final.
    p.scheduler_mut().job_mut(id).unwrap().spec.retry = Some(RetryPolicy::none());
    p.tick();
    let victim = *p
        .scheduler_mut()
        .job(id)
        .unwrap()
        .allocation
        .as_ref()
        .unwrap()
        .cores
        .keys()
        .next()
        .unwrap();
    p.scheduler_mut()
        .cluster_mut()
        .set_health(victim, NodeHealth::Down)
        .unwrap();
    p.tick();
    assert!(matches!(
        p.cancel_job(&t, id, 0),
        Err(PortalError::JobLost { attempts: 1, .. })
    ));
    // Timed-out jobs answer with the timeout error.
    let id2 = p.submit_job(&t, &art, 1, 100, 0).unwrap();
    p.scheduler_mut().job_mut(id2).unwrap().spec.timeout_ticks = Some(1);
    for _ in 0..3 {
        p.tick();
    }
    assert!(matches!(
        p.job(&t, id2, 0).unwrap().state,
        JobState::TimedOut { .. }
    ));
    assert!(matches!(
        p.cancel_job(&t, id2, 0),
        Err(PortalError::JobTimedOut { .. })
    ));
}

#[test]
fn interactive_run_is_seed_deterministic() {
    let mut p = portal();
    let t = student(&mut p, "alice");
    let src = br#"
        var counter = 0;
        fn w() { for (var i = 0; i < 100; i = i + 1) { counter = counter + 1; } }
        fn main() { var a = spawn w(); var b = spawn w(); join(a); join(b); println(counter); }
    "#;
    p.write_file(&t, "race.mini", src.to_vec(), 0).unwrap();
    let art = p
        .compile(&t, "race.mini", 0)
        .unwrap()
        .artifact
        .unwrap()
        .to_string();
    let r1 = p
        .run_interactive(&t, &art, 99, 0)
        .unwrap()
        .outcome
        .unwrap()
        .stdout;
    let r2 = p
        .run_interactive(&t, &art, 99, 0)
        .unwrap()
        .outcome
        .unwrap()
        .stdout;
    assert_eq!(r1, r2);
}

#[test]
fn job_timeline_is_gated_and_ends_terminal() {
    let mut p = portal();
    let alice = student(&mut p, "alice");
    let bob = student(&mut p, "bob");
    p.write_file(&alice, "t.mini", b"fn main() { println(1); }".to_vec(), 0)
        .unwrap();
    let art = p
        .compile(&alice, "t.mini", 0)
        .unwrap()
        .artifact
        .unwrap()
        .to_string();
    let id = p.submit_job(&alice, &art, 1, 5, 0).unwrap();
    assert!(p.drain_jobs(100));
    assert!(matches!(
        p.job(&alice, id, 0).unwrap().state,
        JobState::Completed { .. }
    ));
    // Owner sees the ordered life story; its terminal event matches the state.
    let timeline = p.job_timeline(&alice, id, 0).unwrap();
    let names: Vec<&str> = timeline.iter().map(|e| e.event.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "job.submitted",
            "job.queued",
            "job.dispatched",
            "job.completed"
        ]
    );
    assert!(timeline.windows(2).all(|w| w[0].at <= w[1].at));
    assert!(timeline[0]
        .attrs
        .iter()
        .any(|(k, v)| k == "user" && v == "alice"));
    // Another student cannot; an admin can.
    assert!(matches!(
        p.job_timeline(&bob, id, 0),
        Err(PortalError::Forbidden(_))
    ));
    let admin = p.login("admin", "super-secret9", 0).unwrap();
    assert_eq!(p.job_timeline(&admin, id, 0).unwrap().len(), 4);
}

#[test]
fn metrics_text_covers_every_instrumented_layer() {
    let mut p = portal();
    let t = student(&mut p, "alice");
    p.write_file(&t, "m.mini", b"fn main() { println(1); }".to_vec(), 0)
        .unwrap();
    let art = p
        .compile(&t, "m.mini", 0)
        .unwrap()
        .artifact
        .unwrap()
        .to_string();
    let id = p.submit_job(&t, &art, 1, 5, 0).unwrap();
    assert!(p.drain_jobs(100));
    assert!(matches!(
        p.job(&t, id, 0).unwrap().state,
        JobState::Completed { .. }
    ));
    p.publish_gauges();
    let text = p.obs().metrics.render();
    for needle in [
        "ccp_sched_jobs_submitted_total 1",
        "ccp_sched_jobs_completed_total 1",
        "ccp_sched_queue_depth 0",
        "ccp_sched_job_wait_ticks_count 1",
        "ccp_cluster_allocations_total 1",
        "ccp_cluster_nodes{state=\"up\"} 4",
        "ccp_toolchain_compiles_total{result=\"ok\"} 1",
        "ccp_toolchain_execs_total{result=\"ok\"} 1",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn health_view_counts_agree_with_nodes() {
    let mut p = portal();
    let admin = p.login("admin", "super-secret9", 0).unwrap();
    let h = p.health_view();
    assert!(!h.degraded);
    assert_eq!((h.nodes_up, h.nodes_draining, h.nodes_down), (4, 0, 0));
    p.drain_node(&admin, 0, 0, 0).unwrap();
    let h = p.health_view();
    assert!(h.degraded);
    assert_eq!((h.nodes_up, h.nodes_draining, h.nodes_down), (3, 1, 0));
    assert_eq!(h.nodes.len(), 4);
    assert_eq!(h.nodes.iter().filter(|n| n.health == "draining").count(), 1);
}

#[test]
fn event_log_requires_admin() {
    let mut p = portal();
    let s = student(&mut p, "alice");
    assert!(matches!(
        p.recent_events(&s, 10, 0),
        Err(PortalError::Forbidden(_))
    ));
    let admin = p.login("admin", "super-secret9", 0).unwrap();
    assert!(p.recent_events(&admin, 10, 0).is_ok());
}

#[test]
fn vm_file_io_lands_in_portal_home() {
    let mut p = portal();
    let t = student(&mut p, "alice");
    p.write_file(
        &t,
        "writer.mini",
        br#"fn main() { write_file("result.txt", "computed"); }"#.to_vec(),
        0,
    )
    .unwrap();
    let art = p
        .compile(&t, "writer.mini", 0)
        .unwrap()
        .artifact
        .unwrap()
        .to_string();
    p.run_interactive(&t, &art, 0, 0).unwrap();
    assert_eq!(p.read_file(&t, "result.txt", 0).unwrap(), b"computed");
}

#[test]
fn a_job_cancelled_mid_tick_stays_cancelled_with_no_outcome_across_a_restart() {
    let dir = std::env::temp_dir().join(format!("ccp-cancel-gap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = PortalConfig {
        cluster: ClusterSpec::small(1, 1),
        data_dir: Some(dir.clone()),
        ..PortalConfig::default()
    };
    let mut p = Portal::new(config.clone());
    p.bootstrap_admin("admin", "super-secret9").unwrap();
    let t = student(&mut p, "alice");
    p.write_file(
        &t,
        "out.mini",
        b"fn main() { println(\"ran\"); }".to_vec(),
        0,
    )
    .unwrap();
    let artifact = p.compile(&t, "out.mini", 0).unwrap().artifact.unwrap();
    let id = p.submit_job(&t, artifact.as_str(), 1, 5, 0).unwrap();

    // The tick dispatches the job; the owner cancels it while the job
    // executes with no portal lock; the tick's commit then lands nothing.
    let phase = p.tick_begin();
    p.cancel_job(&t, id, 0).unwrap();
    let done = phase.run();
    assert_eq!(p.tick_commit(done), vec![id]);
    for _ in 0..3 {
        p.tick();
    }
    let job = p.job(&t, id, 0).unwrap();
    assert_eq!(job.state, JobState::Cancelled { at: 1 });
    assert_eq!((job.stdout.as_str(), job.stderr.as_str()), ("", ""));
    let state = |p: &mut Portal| {
        let j = p.scheduler_mut().job(id).unwrap();
        (
            j.state.clone(),
            j.streams.stdout.clone(),
            j.streams.stderr.clone(),
            j.spec.actual_ticks,
        )
    };
    let before = state(&mut p);
    p.flush_wal().unwrap();
    drop(p);

    let mut restarted = Portal::new(config);
    assert_eq!(restarted.wal_error(), None);
    assert_eq!(state(&mut restarted), before);
    let _ = std::fs::remove_dir_all(&dir);
}
