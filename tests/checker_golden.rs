//! Golden verdicts: the systematic checker against every concurrency-lab
//! archetype — the known-buggy submission must produce its known failure
//! class (with a replaying repro schedule), and the corrected reference
//! solution must come back clean. Also pins down determinism: the same
//! program and budget yield a byte-identical report, including the repro.

use checker::{check_program, replay_schedule, CheckConfig, Strategy, Verdict};
use labs::grading::grading_check_config;
use labs::{lab1_sync, lab5_bank, lab6_philosophers, lab7_boundedbuffer};

fn cfg() -> CheckConfig {
    CheckConfig::default()
}

/// Assert `src` fails with the given verdict class and that the reported
/// repro schedule replays to the same failure.
fn assert_fails_as(src: &str, class: &str) -> Verdict {
    let report = check_program(src, &cfg()).expect("lab source compiles");
    assert_eq!(
        report.verdict.class(),
        class,
        "expected a {class}, got {:?} after {} schedules",
        report.verdict,
        report.schedules
    );
    let repro = report
        .repro
        .as_ref()
        .expect("failures carry a repro schedule");
    let prog = minilang::compile(src).unwrap();
    let replayed = replay_schedule(&prog, &cfg(), repro);
    assert!(
        report.verdict.same_failure(&replayed),
        "repro must replay to the same failure: reported {:?}, replayed {:?}",
        report.verdict,
        replayed
    );
    report.verdict
}

fn assert_clean(src: &str, what: &str) {
    let report = check_program(src, &cfg()).expect("lab source compiles");
    assert_eq!(
        report.verdict,
        Verdict::Clean,
        "{what} must be clean, got {:?}",
        report.verdict
    );
    assert!(report.repro.is_none());
    assert!(report.schedules > 0);
}

// ---- lab 5: the banking account (basic synchronization) -------------------

#[test]
fn lab5_racy_bank_is_a_race() {
    let v = assert_fails_as(
        &lab5_bank::source(lab5_bank::BankStep::ConcurrentRacy),
        "race",
    );
    if let Verdict::Race { location, .. } = v {
        assert!(
            location.starts_with("Global"),
            "balance is a global: {location}"
        );
    }
}

#[test]
fn lab5_locked_bank_is_clean() {
    assert_clean(
        &lab5_bank::source(lab5_bank::BankStep::ConcurrentLocked),
        "mutex-protected bank",
    );
}

// ---- lab 6: dining philosophers (deadlock) --------------------------------

#[test]
fn lab6_naive_philosophers_deadlock() {
    assert_fails_as(&lab6_philosophers::naive_source(3), "deadlock");
}

#[test]
fn lab6_ordered_philosophers_are_clean() {
    assert_clean(
        &lab6_philosophers::ordered_source(3),
        "resource-ordered philosophers",
    );
}

// ---- lab 7: bounded buffer (producer/consumer) ----------------------------

#[test]
fn lab7_buggy_buffer_is_a_race() {
    assert_fails_as(&lab7_boundedbuffer::buggy_source(), "race");
}

#[test]
fn lab7_mutex_buffer_is_clean() {
    assert_clean(&lab7_boundedbuffer::mutex_source(), "mutex bounded buffer");
}

#[test]
fn lab7_semaphore_buffer_is_clean() {
    assert_clean(
        &lab7_boundedbuffer::semaphore_source(),
        "semaphore bounded buffer",
    );
}

// ---- reduction-hostile archetypes -----------------------------------------
//
// Each hides its violation behind one specific ordering of *dependent*
// operations (lock/lock, notify/wait, send/send). A reducer that wrongly
// commutes such a pair only ever sees the clean ordering — these pin that
// the default (DPOR-on) budget still reaches the losing order.

#[test]
fn racy_then_synced_is_a_race() {
    assert_fails_as(checker::archetypes::racy_then_synced(), "race");
}

#[test]
fn lost_wakeup_is_a_deadlock() {
    assert_fails_as(checker::archetypes::lost_wakeup(), "deadlock");
}

#[test]
fn channel_drain_race_is_a_deadlock() {
    assert_fails_as(checker::archetypes::channel_drain_race(), "deadlock");
}

#[test]
fn archetype_corpus_matches_its_pinned_classes() {
    for (name, src, want) in checker::archetypes::corpus() {
        let report = check_program(src, &cfg()).expect("archetype compiles");
        assert_eq!(report.verdict.class(), want, "{name}: {:?}", report.verdict);
    }
}

// ---- determinism ----------------------------------------------------------

#[test]
fn same_budget_same_report_bit_for_bit() {
    for src in [
        lab5_bank::source(lab5_bank::BankStep::ConcurrentRacy),
        lab6_philosophers::naive_source(3),
        lab7_boundedbuffer::buggy_source(),
    ] {
        let a = check_program(&src, &cfg()).unwrap();
        let b = check_program(&src, &cfg()).unwrap();
        assert_eq!(a, b, "two runs with the same budget must agree exactly");
        assert_eq!(
            a.repro, b.repro,
            "including the repro schedule byte for byte"
        );
    }
}

// ---- the grader's (smaller) budget still catches the seeded bugs ----------

#[test]
fn grading_budget_finds_lab5_race_and_lab6_deadlock() {
    let g = grading_check_config();
    let bank = check_program(&lab5_bank::source(lab5_bank::BankStep::ConcurrentRacy), &g).unwrap();
    assert_eq!(bank.verdict.class(), "race", "{:?}", bank.verdict);
    let phil = check_program(&lab6_philosophers::naive_source(3), &g).unwrap();
    assert_eq!(phil.verdict.class(), "deadlock", "{:?}", phil.verdict);
}

// ---- the unreduced search at lab depth -------------------------------------

#[test]
fn unreduced_search_at_lab_depth_is_clean() {
    // Full expansion recurses one stack frame per branch frame, as DPOR
    // does: at lab depth it needs the exploration stack, not the caller's.
    let cfg = CheckConfig {
        dpor: false,
        strategy: Strategy::Dfs,
        max_schedules: 24,
        max_steps: 400_000,
        dfs_depth: 10_000,
        minimize: false,
        ..CheckConfig::default()
    };
    let report = check_program(lab1_sync::FIXED_SOURCE, &cfg).expect("lab source compiles");
    assert_eq!(report.verdict, Verdict::Clean, "{report:?}");
}
