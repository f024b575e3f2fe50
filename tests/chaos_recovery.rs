//! Chaos test: a seeded workload replayed against random node outages.
//!
//! The contract under fault injection: every job reaches a terminal state,
//! no allocated core leaks, failure causes are recorded, and the whole run
//! is deterministic per seed (same seed → identical final state).

use cluster::{Cluster, ClusterSpec, FaultPlan};
use obs::{Obs, SloEngine, SloKind, SloSpec, TimeSeriesStore};
use sched::{RetryPolicy, SchedPolicyKind, Scheduler, WorkloadSpec};
use std::sync::Arc;

const MAX_TICKS: u64 = 3_000;

/// Final per-job observation used for determinism comparison.
#[derive(Debug, Clone, PartialEq)]
struct JobOutcome {
    state: String,
    attempt: u32,
    node_losses: u32,
    last_failure: Option<String>,
    recovery_wait: u64,
}

struct RunSummary {
    outcomes: Vec<JobOutcome>,
    free_cores: u32,
    total_cores: u32,
    retries: u64,
    node_losses: u64,
    recovery_wait: u64,
    makespan: u64,
}

/// Replay a seeded 60-job workload against 10 random 40-tick outages.
fn run_chaos(seed: u64) -> RunSummary {
    let cluster = Cluster::new(ClusterSpec::small(2, 4));
    let nodes = cluster.slave_ids();
    let plan = FaultPlan::random_outages(&nodes, 10, 250, 40, seed);
    let mut sched = Scheduler::new(cluster, SchedPolicyKind::Fifo)
        .with_retry(RetryPolicy::default())
        .with_retry_seed(seed)
        .with_fault_plan(plan);

    let workload = WorkloadSpec {
        jobs: 60,
        core_choices: vec![1, 2, 4, 8],
        runtime_range: (5, 25),
        mean_interarrival: 2.0,
        users: 4,
        ..WorkloadSpec::default()
    };
    let arrivals = workload.generate(seed);

    let mut next = 0usize;
    for _ in 0..MAX_TICKS {
        let now = sched.now();
        while next < arrivals.len() && arrivals[next].at_tick <= now + 1 {
            // Give every third job a generous wall-clock budget so the
            // timeout path is exercised under faults too.
            let mut spec = arrivals[next].spec.clone();
            if next.is_multiple_of(3) {
                spec = spec.with_timeout(400);
            }
            sched.submit(spec).expect("workload jobs fit the cluster");
            next += 1;
        }
        sched.tick();
        if next >= arrivals.len() && sched.jobs().all(|j| j.state.is_terminal()) {
            break;
        }
    }

    let outcomes = sched
        .jobs()
        .map(|j| JobOutcome {
            state: format!("{:?}", j.state),
            attempt: j.attempt,
            node_losses: j.node_losses,
            last_failure: j.last_failure.clone(),
            recovery_wait: j.recovery_wait_ticks,
        })
        .collect();
    let (retries, node_losses, recovery_wait) =
        sched
            .accounting()
            .all()
            .fold((0u64, 0u64, 0u64), |(r, n, w), (_, u)| {
                (
                    r + u.retry_attempts,
                    n + u.node_losses,
                    w + u.recovery_wait_ticks,
                )
            });
    RunSummary {
        outcomes,
        free_cores: sched.cluster().free_cores(),
        total_cores: sched.cluster().total_cores(),
        retries,
        node_losses,
        recovery_wait,
        makespan: sched.now(),
    }
}

fn assert_invariants(seed: u64, s: &RunSummary) {
    assert_eq!(s.outcomes.len(), 60, "seed {seed}: all jobs accounted for");
    for (i, o) in s.outcomes.iter().enumerate() {
        assert!(
            o.state.starts_with("Completed")
                || o.state.starts_with("TimedOut")
                || o.state.starts_with("NodeLost")
                || o.state.starts_with("Cancelled")
                || o.state.starts_with("Failed"),
            "seed {seed}: job {i} not terminal after {MAX_TICKS} ticks: {}",
            o.state
        );
        // A job that gave up on retries must carry its failure cause and
        // must have burned the full retry budget.
        if o.state.starts_with("NodeLost") {
            assert!(
                o.last_failure.is_some(),
                "seed {seed}: job {i} lost without a cause"
            );
            assert_eq!(
                o.attempt,
                RetryPolicy::default().max_attempts,
                "seed {seed}: job {i} abandoned before exhausting retries"
            );
        }
        // A retried job's recovery wait is bookkept separately.
        if o.attempt > 1 {
            assert!(
                o.node_losses > 0,
                "seed {seed}: job {i} retried without a node loss"
            );
        }
    }
    // Faults released every core they interrupted: nothing leaks.
    assert_eq!(
        s.free_cores, s.total_cores,
        "seed {seed}: cores leaked after drain (makespan {})",
        s.makespan
    );
    // Accounting saw the same fault traffic the job records did.
    let job_losses: u64 = s.outcomes.iter().map(|o| o.node_losses as u64).sum();
    assert_eq!(
        s.node_losses, job_losses,
        "seed {seed}: accounting/job node-loss mismatch"
    );
    let job_recovery: u64 = s.outcomes.iter().map(|o| o.recovery_wait).sum();
    assert_eq!(
        s.recovery_wait, job_recovery,
        "seed {seed}: recovery-wait mismatch"
    );
}

#[test]
fn chaos_recovery_across_seeds() {
    let mut total_losses = 0;
    for seed in [11, 42, 1337] {
        let s = run_chaos(seed);
        assert_invariants(seed, &s);
        total_losses += s.node_losses;
        assert!(
            s.retries <= s.node_losses,
            "seed {seed}: more retries than losses"
        );
    }
    // The outage plan must actually have bitten at least once across seeds,
    // or this test is vacuous.
    assert!(
        total_losses > 0,
        "no run ever lost a node; chaos plan too weak"
    );
}

#[test]
fn chaos_runs_are_deterministic_per_seed() {
    for seed in [11, 42, 1337] {
        let a = run_chaos(seed);
        let b = run_chaos(seed);
        assert_eq!(
            a.outcomes, b.outcomes,
            "seed {seed}: outcomes diverged between runs"
        );
        assert_eq!(a.makespan, b.makespan, "seed {seed}: makespan diverged");
        assert_eq!(
            (a.retries, a.node_losses, a.recovery_wait),
            (b.retries, b.node_losses, b.recovery_wait),
            "seed {seed}: accounting diverged"
        );
    }
}

/// The chaos workload with the continuous-observability pipeline attached:
/// per-tick captures of the queue-depth gauge into a [`TimeSeriesStore`]
/// and a burn-rate SLO evaluated over them. Returns the `(tick, kind)` alert
/// transition history.
fn run_chaos_slo(seed: u64) -> Vec<(u64, String)> {
    let cluster = Cluster::new(ClusterSpec::small(2, 4));
    let nodes = cluster.slave_ids();
    let plan = FaultPlan::random_outages(&nodes, 10, 250, 40, seed);
    let obs = Arc::new(Obs::new());
    let mut sched = Scheduler::new(cluster, SchedPolicyKind::Fifo)
        .with_obs(Arc::clone(&obs))
        .with_retry(RetryPolicy::default())
        .with_retry_seed(seed)
        .with_fault_plan(plan);
    let store = TimeSeriesStore::new(MAX_TICKS as usize, &["ccp_sched_queue_depth"]);
    // A deliberately tight objective: the chaos backlog breaches it
    // mid-run, and the drained queue at the end clears it.
    let mut engine = SloEngine::new(
        vec![SloSpec {
            name: "queue-depth".into(),
            kind: SloKind::GaugeAbove {
                series: "ccp_sched_queue_depth".into(),
                threshold_milli: 1_000,
            },
            short_window: 4,
            long_window: 16,
        }],
        &obs.metrics,
    );

    let workload = WorkloadSpec {
        jobs: 60,
        core_choices: vec![1, 2, 4, 8],
        runtime_range: (5, 25),
        mean_interarrival: 2.0,
        users: 4,
        ..WorkloadSpec::default()
    };
    let arrivals = workload.generate(seed);

    let mut next = 0usize;
    for _ in 0..MAX_TICKS {
        let now = sched.now();
        while next < arrivals.len() && arrivals[next].at_tick <= now + 1 {
            let mut spec = arrivals[next].spec.clone();
            if next.is_multiple_of(3) {
                spec = spec.with_timeout(400);
            }
            sched.submit(spec).expect("workload jobs fit the cluster");
            next += 1;
        }
        sched.tick();
        sched.publish_gauges();
        let now = sched.now();
        store.record(now, &obs.metrics);
        engine.evaluate(now, &store, &obs.events);
        if next >= arrivals.len() && sched.jobs().all(|j| j.state.is_terminal()) {
            break;
        }
    }
    obs.events
        .recent(usize::MAX)
        .into_iter()
        .filter(|e| e.kind.starts_with("slo."))
        .map(|e| (e.at, e.kind))
        .collect()
}

#[test]
fn chaos_drives_slo_alert_through_fire_and_clear_deterministically() {
    for seed in [11, 42, 1337] {
        let a = run_chaos_slo(seed);
        let b = run_chaos_slo(seed);
        assert_eq!(
            a, b,
            "seed {seed}: alert transition history diverged between runs"
        );
        let kinds: Vec<&str> = a.iter().map(|(_, k)| k.as_str()).collect();
        assert!(
            kinds.contains(&"slo.firing"),
            "seed {seed}: chaos backlog never fired the queue-depth SLO: {a:?}"
        );
        // The workload drains by the end, so the final transition must be
        // a clear — the alert does not stay latched.
        assert_eq!(
            kinds.last().copied(),
            Some("slo.cleared"),
            "seed {seed}: alert still firing at the end: {a:?}"
        );
        // The state machine alternates: a fire is always followed by a
        // clear, never by another fire.
        for w in kinds.windows(2) {
            assert_ne!(w[0], w[1], "seed {seed}: repeated transition: {a:?}");
        }
    }
}

/// Regenerates the SLO-transition table in EXPERIMENTS.md:
/// `cargo test --test chaos_recovery -- --ignored --nocapture print_chaos_slo`
#[test]
#[ignore]
fn print_chaos_slo_transitions() {
    for seed in [11, 42, 1337] {
        let h = run_chaos_slo(seed);
        let pretty: Vec<String> = h.iter().map(|(at, k)| format!("{k}@{at}")).collect();
        println!("seed {seed}: {}", pretty.join(" -> "));
    }
}

#[test]
#[ignore]
fn print_chaos_stats() {
    for seed in [11, 42, 1337] {
        let s = run_chaos(seed);
        let retried = s.outcomes.iter().filter(|o| o.attempt > 1).count();
        let lost = s
            .outcomes
            .iter()
            .filter(|o| o.state.starts_with("NodeLost"))
            .count();
        let timed = s
            .outcomes
            .iter()
            .filter(|o| o.state.starts_with("TimedOut"))
            .count();
        let completed = s
            .outcomes
            .iter()
            .filter(|o| o.state.starts_with("Completed"))
            .count();
        let mean_rec = if s.retries > 0 {
            s.recovery_wait as f64 / s.retries as f64
        } else {
            0.0
        };
        println!("seed {seed}: makespan {} completed {completed} retried-jobs {retried} node-lost {lost} timed-out {timed} losses {} retries {} recovery-wait {} mean-recovery {mean_rec:.1}", s.makespan, s.node_losses, s.retries, s.recovery_wait);
    }
}
