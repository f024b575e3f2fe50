//! Workspace integration tests: the whole system, wired together the way
//! the paper's deployment was — browser → portal → toolchain → distributor
//! → cluster — plus cross-crate consistency checks.

use auth::Role;
use ccp_core::{Portal, PortalConfig};
use cluster::{ClusterSpec, NodeHealth};
use httpd::Method;
use sched::{JobSpec, JobState, SchedPolicyKind, Scheduler};
use std::sync::Arc;
use webportal::{app::dispatch, build_router, App};

/// The course's closing demo: a student takes the Lab 1 handout, watches it
/// fail on the cluster, fixes it, and passes — entirely through the portal.
#[test]
fn student_fixes_lab1_through_the_portal() {
    let mut portal = Portal::new(PortalConfig {
        cluster: ClusterSpec::small(2, 2),
        ..PortalConfig::default()
    });
    portal.bootstrap_admin("admin", "super-secret9").unwrap();
    let admin = portal.login("admin", "super-secret9", 0).unwrap();
    portal
        .create_user(&admin, "student", "password99", Role::Student, 0)
        .unwrap();
    let tok = portal.login("student", "password99", 0).unwrap();

    // Upload the buggy handout and run it on several seeds: wrong somewhere.
    portal
        .write_file(
            &tok,
            "lab1.mini",
            labs::lab1_sync::BUGGY_SOURCE.as_bytes().to_vec(),
            0,
        )
        .unwrap();
    let report = portal.compile(&tok, "lab1.mini", 0).unwrap();
    assert!(report.success());
    let buggy = report.artifact.unwrap().to_string();
    let mut saw_wrong = false;
    for seed in 0..10 {
        let run = portal.run_interactive(&tok, &buggy, seed, 0).unwrap();
        let out = run.outcome.expect("program completes");
        if out.main_result != minilang::Value::Int(1000) {
            saw_wrong = true;
        }
    }
    assert!(saw_wrong, "the handout should fail on some seed");

    // Fix it, autograde it, pass.
    portal
        .write_file(
            &tok,
            "lab1.mini",
            labs::lab1_sync::FIXED_SOURCE.as_bytes().to_vec(),
            0,
        )
        .unwrap();
    let report = portal.compile(&tok, "lab1.mini", 0).unwrap();
    let fixed = report.artifact.unwrap().to_string();
    for seed in 0..5 {
        let run = portal.run_interactive(&tok, &fixed, seed, 0).unwrap();
        assert_eq!(run.outcome.unwrap().main_result, minilang::Value::Int(1000));
    }
    let grade = labs::grade(labs::LabId::Sync, labs::lab1_sync::FIXED_SOURCE);
    assert!(grade.passed);
}

/// The same flow over actual HTTP requests.
#[test]
fn lab_submission_over_http() {
    let mut portal = Portal::new(PortalConfig {
        cluster: ClusterSpec::small(1, 2),
        ..PortalConfig::default()
    });
    portal.bootstrap_admin("admin", "super-secret9").unwrap();
    let app = App::new(portal);
    let router = build_router(Arc::clone(&app));

    let login = dispatch(
        &router,
        Method::Post,
        "/api/login",
        br#"{"user":"admin","password":"super-secret9"}"#,
        None,
    );
    let token = login
        .body_str()
        .split("\"token\":\"")
        .nth(1)
        .unwrap()
        .split('"')
        .next()
        .unwrap()
        .to_string();
    dispatch(
        &router,
        Method::Post,
        "/api/admin/users",
        br#"{"name":"s1","password":"password99"}"#,
        Some(&token),
    );
    let login = dispatch(
        &router,
        Method::Post,
        "/api/login",
        br#"{"user":"s1","password":"password99"}"#,
        None,
    );
    let s1 = login
        .body_str()
        .split("\"token\":\"")
        .nth(1)
        .unwrap()
        .split('"')
        .next()
        .unwrap()
        .to_string();

    dispatch(
        &router,
        Method::Post,
        "/api/file?path=phil.mini",
        labs::lab6_philosophers::ordered_source(3).as_bytes(),
        Some(&s1),
    );
    let resp = dispatch(
        &router,
        Method::Post,
        "/api/compile?path=phil.mini",
        b"",
        Some(&s1),
    );
    let artifact = resp
        .body_str()
        .split("\"artifact\":\"")
        .nth(1)
        .unwrap()
        .split('"')
        .next()
        .unwrap()
        .to_string();
    let resp = dispatch(
        &router,
        Method::Post,
        &format!("/api/run?artifact={artifact}&seed=3"),
        b"",
        Some(&s1),
    );
    assert!(
        resp.body_str().contains("\"success\":true"),
        "{}",
        resp.body_str()
    );
    assert!(resp.body_str().contains("all philosophers done"));
}

/// Failure injection across crates: a fault plan kills nodes under running
/// jobs; the scheduler fails them and later reuses recovered capacity.
#[test]
fn node_failures_propagate_to_jobs() {
    let cluster = cluster::Cluster::new(ClusterSpec::small(2, 2));
    let mut sched = Scheduler::new(cluster, SchedPolicyKind::Fifo);
    // Fill the whole cluster with long jobs.
    let mut ids = Vec::new();
    for _ in 0..4 {
        ids.push(sched.submit(JobSpec::parallel("u", "x", 4, 1_000)).unwrap());
    }
    sched.tick();
    assert_eq!(sched.running_count(), 4);
    // Kill two nodes.
    let victims: Vec<_> = sched.cluster().slave_ids().into_iter().take(2).collect();
    for v in &victims {
        sched
            .cluster_mut()
            .set_health(*v, NodeHealth::Down)
            .unwrap();
    }
    sched.tick();
    let disrupted: Vec<_> = sched.jobs().filter(|j| j.state.is_requeued()).collect();
    assert!(
        !disrupted.is_empty(),
        "jobs on dead nodes must be requeued for retry"
    );
    for j in &disrupted {
        assert_eq!(j.last_failure.as_deref(), Some("node went down"));
        assert!(
            matches!(j.state, JobState::Requeued { attempt: 2, .. }),
            "{:?}",
            j.state
        );
    }
    // Recover; a new job can use the capacity again, and once the backoff
    // expires at least one disrupted job re-dispatches (attempt 2).
    for v in &victims {
        sched.cluster_mut().set_health(*v, NodeHealth::Up).unwrap();
    }
    let fresh = sched.submit(JobSpec::sequential("u", "y", 3)).unwrap();
    sched.run_ticks(6);
    assert!(
        sched.job(fresh).unwrap().state.is_terminal()
            || sched.job(fresh).unwrap().state.is_running()
    );
    let retried = sched
        .jobs()
        .filter(|j| j.attempt == 2 && (j.state.is_running() || j.state.is_terminal()))
        .count();
    assert!(
        retried >= 1,
        "a requeued job must re-dispatch after recovery"
    );
}

/// The assessment pipeline consumes the labs crate end to end and its
/// Table 1 stays within statistical reach of the paper's.
#[test]
fn table1_reproduction_is_sane() {
    let t = assess::table1(2012);
    assert_eq!(t.rows.len(), 7);
    for row in &t.rows {
        let paper: f64 = row[1].trim_end_matches('%').parse().unwrap();
        let repro: f64 = row[2].trim_end_matches('%').parse().unwrap();
        // 19 students => 1 student is ~5.3 points; allow 4 students drift.
        assert!(
            (paper - repro).abs() <= 22.0,
            "{}: paper {paper}% repro {repro}%",
            row[0]
        );
    }
}

/// VM cost model consistency: simulated remote access must dwarf local in
/// exactly the way the cluster's link profiles dictate.
#[test]
fn numa_hierarchy_is_consistent_across_crates() {
    let rows = labs::lab3_numa::full_table(128, 4096);
    // cache < dram < socket < node, each by the model's own parameters.
    assert!(
        rows.windows(2).all(|w| w[0].mean_ns < w[1].mean_ns),
        "{rows:?}"
    );
    // And the remote-node figure must exceed one uplink round trip.
    let uplink = simnet::LinkProfile::campus_uplink()
        .transfer_time(4096)
        .nanos();
    assert!(rows[3].mean_ns > uplink as f64);
}

/// Determinism across the whole stack: same seeds, same everything.
#[test]
fn whole_stack_determinism() {
    let run = || {
        let mut portal = Portal::new(PortalConfig {
            cluster: ClusterSpec::small(1, 1),
            ..PortalConfig::default()
        });
        portal.bootstrap_admin("admin", "super-secret9").unwrap();
        let tok = portal.login("admin", "super-secret9", 0).unwrap();
        portal
            .write_file(
                &tok,
                "/home/admin/r.mini",
                labs::lab1_sync::BUGGY_SOURCE.as_bytes().to_vec(),
                0,
            )
            .unwrap();
        let art = portal
            .compile(&tok, "/home/admin/r.mini", 0)
            .unwrap()
            .artifact
            .unwrap()
            .to_string();
        let out = portal.run_interactive(&tok, &art, 77, 0).unwrap();
        out.outcome.unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.stdout, b.stdout);
    assert_eq!(a.executed, b.executed);
    assert_eq!(a.main_result, b.main_result);
}
