//! The autograder: score a submission for each lab the way the closed labs
//! were graded (pass = score >= 70, per the paper's Table 1 note).

use crate::{lab1_sync, lab5_bank, lab7_boundedbuffer};
use minilang::{LangError, Vm, VmConfig};

/// Instruction budget per graded run: ample for correct lab solutions
/// (which finish in well under 100k instructions) while terminating a
/// livelocked busy-wait submission quickly.
pub(crate) const GRADING_BUDGET: u64 = 400_000;

/// Compile and run under the grading budget.
fn run_budgeted(src: &str, seed: u64) -> Result<minilang::ExecOutcome, LangError> {
    let prog = minilang::compile(src)?;
    let mut vm = Vm::new(
        prog,
        VmConfig {
            seed,
            max_instructions: GRADING_BUDGET,
            ..VmConfig::default()
        },
    );
    Ok(vm.run()?)
}

/// Exploration budget used when grading: smaller than the checker default
/// (a grader runs per submission, not per investigation) but — asserted by
/// the golden tests — still enough to find the lab 5 seeded race and the
/// lab 6 deadlock.
///
/// DPOR with a preemption bound of 0 turns the 24-schedule budget into a
/// *certificate* on the reference solutions: the non-preemptive schedule
/// space of each correct lab fits inside the budget, so their reports come
/// back `exhaustive_within_bound` — a proof that no preemption-free
/// interleaving misbehaves — instead of "24 samples looked fine". Bound 0
/// is also what keeps the seeded bugs findable inside 24 schedules: the
/// all-grab-left philosophers deadlock is itself preemption-free, and the
/// lab 5 race is flagged by the vector-clock detector on the very first
/// schedule. (Higher bounds spend the whole budget on preempted prefixes
/// and push the deadlock past schedule 24 — measured, not assumed.)
pub fn grading_check_config() -> checker::CheckConfig {
    checker::CheckConfig {
        max_schedules: 24,
        max_steps: GRADING_BUDGET,
        minimize: false,
        dpor: true,
        preemption_bound: Some(0),
        strategy: checker::Strategy::Dfs,
        // Lab-sized loop bodies are thousands of branch states deep; the
        // certificate dies if the depth cap fires first.
        dfs_depth: 10_000,
        ..checker::CheckConfig::default()
    }
}

/// Run the systematic checker on a submission; `Ok(report)` iff it
/// compiles. Non-compiling submissions already fail the compile check.
pub(crate) fn explore_submission(submission: &str) -> Option<checker::CheckReport> {
    checker::check_program(submission, &grading_check_config()).ok()
}

/// The seven graded assignments of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LabId {
    /// Multicore Lab 1 — Synchronization.
    Sync,
    /// Multicore Lab 2 — Spin Lock and Cache Coherence.
    SpinLock,
    /// Multicore Lab 3 — UMA and NUMA Access.
    Numa,
    /// Lab for Process and Thread Management.
    ProcThread,
    /// Lab for Basic Synchronization Methods.
    Bank,
    /// Lab for Deadlock.
    Philosophers,
    /// Programming Assignment 3 — Bounded Buffer.
    BoundedBuffer,
}

impl LabId {
    /// All labs, in Table 1 order.
    pub const ALL: [LabId; 7] = [
        LabId::Sync,
        LabId::SpinLock,
        LabId::Numa,
        LabId::ProcThread,
        LabId::Bank,
        LabId::Philosophers,
        LabId::BoundedBuffer,
    ];

    /// Table 1 row label.
    pub fn title(self) -> &'static str {
        match self {
            LabId::Sync => "Multicore Lab 1 - Synchronization with Java",
            LabId::SpinLock => "Multicore Lab 2 - Spin Lock and Cache Coherence",
            LabId::Numa => "Multicore Lab 3 - UMA and NUMA Access",
            LabId::ProcThread => "Lab for Process and Thread Management",
            LabId::Bank => "Lab for Basic Synchronization Methods",
            LabId::Philosophers => "Lab for Deadlock",
            LabId::BoundedBuffer => "Programming Assignment 3 - Bounded Buffer Problem",
        }
    }

    /// The passing rate the paper reports for this assignment (Table 1).
    pub fn paper_passing_rate(self) -> f64 {
        match self {
            LabId::Sync => 0.50,
            LabId::SpinLock => 0.67,
            LabId::Numa => 0.39,
            LabId::ProcThread => 0.44,
            LabId::Bank => 0.61,
            LabId::Philosophers => 0.50,
            LabId::BoundedBuffer => 0.56,
        }
    }

    /// Relative difficulty derived from the paper's passing rates (higher =
    /// harder); the cohort model in `assess` consumes this.
    pub fn difficulty(self) -> f64 {
        1.0 - self.paper_passing_rate()
    }
}

/// One graded submission.
#[derive(Debug, Clone, PartialEq)]
pub struct GradeReport {
    /// Which lab.
    pub lab: LabId,
    /// Score out of 100.
    pub score: u32,
    /// Pass = score >= 70 ("the percentage of the students who have scored
    /// at least 70 out of 100", Table 1 note).
    pub passed: bool,
    /// Per-check outcomes, human readable.
    pub checks: Vec<(String, bool)>,
    /// For labs graded by systematic exploration (`Bank`, `Philosophers`,
    /// `BoundedBuffer`): the checker's `exhaustive_within_bound` flag —
    /// `Some(true)` means the grading budget *proved* every schedule
    /// within the preemption bound, so "race-free" is a certificate, not a
    /// sample. `None` for labs graded without exploration. Informational:
    /// never part of the score.
    pub exploration_exhaustive: Option<bool>,
}

/// Pass threshold from the paper.
pub(crate) const PASS_SCORE: u32 = 70;

fn report(lab: LabId, checks: Vec<(String, bool)>) -> GradeReport {
    let total = checks.len().max(1) as u32;
    let good = checks.iter().filter(|(_, ok)| *ok).count() as u32;
    let score = good * 100 / total;
    GradeReport {
        lab,
        score,
        passed: score >= PASS_SCORE,
        checks,
        exploration_exhaustive: None,
    }
}

/// Grade a batch of submissions across the checker's worker pool — one
/// task per submission, each graded exactly as [`grade`] would serially,
/// so the reports are byte-identical to the one-at-a-time loop and only
/// wall-clock time changes. Inner exploration stays serial per submission:
/// fanning out across submissions already saturates the pool without
/// oversubscribing cores with nested parallelism.
pub fn grade_batch(pool: &checker::Pool, items: &[(LabId, String)]) -> Vec<GradeReport> {
    pool.map(items.to_vec(), |_, (lab, src)| grade(lab, &src))
}

/// Grade a minilang submission for `lab`. The checks encode each lab's
/// stated requirements; reference solutions in this crate score 100.
pub fn grade(lab: LabId, submission: &str) -> GradeReport {
    match lab {
        LabId::Sync => grade_counter(lab, submission, lab1_sync::EXPECTED),
        LabId::SpinLock => grade_counter(lab, submission, 450),
        LabId::Numa => grade_numa(submission),
        LabId::ProcThread => grade_proc_thread(submission),
        LabId::Bank => grade_counter(lab, submission, lab5_bank::EXPECTED),
        LabId::Philosophers => grade_philosophers(submission),
        LabId::BoundedBuffer => grade_counter(lab, submission, lab7_boundedbuffer::EXPECTED_SUM),
    }
}

/// Shared shape: the program must return the exact expected value on every
/// seed (correctness under scheduling), and must actually be concurrent.
fn grade_counter(lab: LabId, submission: &str, expected: i64) -> GradeReport {
    let mut checks = Vec::new();
    let mut all_exact = true;
    let mut compiles = true;
    let mut concurrent = false;
    for seed in 0..5u64 {
        match run_budgeted(submission, seed) {
            Ok(out) => {
                if out.peak_threads > 1 {
                    concurrent = true;
                }
                if out.main_result != minilang::Value::Int(expected) {
                    all_exact = false;
                }
            }
            Err(minilang::LangError::Runtime(_)) => {
                all_exact = false;
            }
            Err(_) => {
                compiles = false;
                all_exact = false;
                break;
            }
        }
    }
    checks.push(("compiles".to_string(), compiles));
    checks.push(("uses multiple threads".to_string(), concurrent));
    checks.push((format!("returns {expected} on every seed"), all_exact));
    match lab {
        // The synchronization labs are verdict-checked by systematic
        // exploration: a racy submission fails here even when every sampled
        // seed happened to produce the right number.
        LabId::Bank | LabId::BoundedBuffer => {
            let explored = explore_submission(submission);
            let clean = explored
                .as_ref()
                .map(|r| !r.verdict.is_failure())
                .unwrap_or(false);
            checks.push(("race-free under schedule exploration".to_string(), clean));
            let mut rep = report(lab, checks);
            rep.exploration_exhaustive =
                Some(explored.map(|r| r.exhaustive_within_bound).unwrap_or(false));
            return rep;
        }
        // Spin-lock style labs busy-wait by design; sampled correctness
        // stays double-weighted there.
        _ => checks.push((
            "correct under adversarial scheduling".to_string(),
            all_exact,
        )),
    }
    report(lab, checks)
}

fn grade_numa(submission: &str) -> GradeReport {
    // The NUMA lab's submission is a measurement program: it must run and
    // print at least UMA and NUMA figures (we check for the labels).
    let mut checks = Vec::new();
    match run_budgeted(submission, 0) {
        Ok(out) => {
            checks.push(("compiles".to_string(), true));
            checks.push(("runs to completion".to_string(), true));
            let text = out.stdout.to_lowercase();
            checks.push((
                "reports a UMA measurement".to_string(),
                text.contains("uma"),
            ));
            checks.push((
                "reports a NUMA measurement".to_string(),
                text.contains("numa"),
            ));
        }
        Err(_) => {
            checks.push(("compiles".to_string(), false));
            checks.push(("runs to completion".to_string(), false));
            checks.push(("reports a UMA measurement".to_string(), false));
            checks.push(("reports a NUMA measurement".to_string(), false));
        }
    }
    report(LabId::Numa, checks)
}

fn grade_proc_thread(submission: &str) -> GradeReport {
    // Uses the file-copy contract from lab 4: with input.txt preloaded, the
    // output file must reproduce the numbers.
    use crate::lab4_procthread::SharedIo;

    let numbers: Vec<i64> = (1..=25).collect();
    let mut checks = Vec::new();
    let compiled = minilang::compile(submission);
    checks.push(("compiles".to_string(), compiled.is_ok()));
    let mut ordered_ok = true;
    let mut threaded = false;
    if let Ok(program) = compiled {
        for seed in 0..3u64 {
            let io = SharedIo::with_input(&numbers);
            let mut vm = Vm::with_io(
                program.clone(),
                VmConfig {
                    seed,
                    max_instructions: GRADING_BUDGET,
                    ..VmConfig::default()
                },
                Box::new(io.clone()),
            );
            match vm.run() {
                Ok(out) => {
                    if out.peak_threads > 1 {
                        threaded = true;
                    }
                    if io.output() != numbers {
                        ordered_ok = false;
                    }
                }
                Err(_) => ordered_ok = false,
            }
        }
    } else {
        ordered_ok = false;
    }
    checks.push(("uses two threads".to_string(), threaded));
    checks.push(("output reproduces input in order".to_string(), ordered_ok));
    checks.push(("correct across seeds".to_string(), ordered_ok));
    report(LabId::ProcThread, checks)
}

fn grade_philosophers(submission: &str) -> GradeReport {
    use crate::lab6_philosophers::{dine, DinnerOutcome};
    let mut checks = Vec::new();
    let compiled = minilang::compile(submission).is_ok();
    checks.push(("compiles".to_string(), compiled));
    let mut never_deadlocks = compiled;
    let mut eats = false;
    if compiled {
        for seed in 0..6u64 {
            match dine(submission, seed) {
                DinnerOutcome::Completed(meals) if meals > 0 => eats = true,
                DinnerOutcome::Completed(_) => {}
                DinnerOutcome::Deadlocked(_) | DinnerOutcome::Other(_) => never_deadlocks = false,
            }
        }
    }
    checks.push(("philosophers eat".to_string(), eats));
    checks.push(("no deadlock across seeds".to_string(), never_deadlocks));
    // Systematic exploration: the naive left-then-right submission has a
    // reachable all-grab-left deadlock even on seeds where dinner finished.
    let explored = explore_submission(submission);
    let deadlock_free = explored
        .as_ref()
        .map(|r| !r.verdict.is_failure())
        .unwrap_or(false);
    checks.push((
        "deadlock-free under schedule exploration".to_string(),
        deadlock_free,
    ));
    let mut rep = report(LabId::Philosophers, checks);
    rep.exploration_exhaustive = Some(explored.map(|r| r.exhaustive_within_bound).unwrap_or(false));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lab2_spinlock, lab6_philosophers as phil, lab7_boundedbuffer as bb};

    #[test]
    fn reference_solutions_pass() {
        assert!(grade(LabId::Sync, lab1_sync::FIXED_SOURCE).passed);
        assert!(grade(LabId::SpinLock, lab2_spinlock::TTAS_SOURCE).passed);
        assert!(
            grade(
                LabId::Bank,
                &lab5_bank::source(lab5_bank::BankStep::ConcurrentLocked)
            )
            .passed
        );
        assert!(grade(LabId::ProcThread, crate::lab4_procthread::SOURCE).passed);
        assert!(grade(LabId::Philosophers, &phil::ordered_source(5)).passed);
        assert!(grade(LabId::BoundedBuffer, &bb::semaphore_source()).passed);
        assert!(grade(LabId::BoundedBuffer, &bb::mutex_source()).passed);
    }

    #[test]
    fn buggy_solutions_fail() {
        assert!(!grade(LabId::Sync, lab1_sync::BUGGY_SOURCE).passed);
        assert!(
            !grade(
                LabId::Bank,
                &lab5_bank::source(lab5_bank::BankStep::ConcurrentRacy)
            )
            .passed
        );
        assert!(!grade(LabId::Philosophers, &phil::naive_source(10)).passed);
        assert!(!grade(LabId::BoundedBuffer, &bb::buggy_source()).passed);
    }

    #[test]
    fn batch_grading_matches_serial() {
        let batch: Vec<(LabId, String)> = vec![
            (LabId::Sync, lab1_sync::FIXED_SOURCE.to_string()),
            (LabId::Sync, lab1_sync::BUGGY_SOURCE.to_string()),
            (LabId::Philosophers, phil::ordered_source(5)),
            (LabId::Philosophers, phil::naive_source(10)),
            (LabId::BoundedBuffer, bb::semaphore_source()),
        ];
        let serial: Vec<GradeReport> = batch.iter().map(|(l, s)| grade(*l, s)).collect();
        for workers in [1, 3] {
            let pool = checker::Pool::new(workers);
            assert_eq!(grade_batch(&pool, &batch), serial, "{workers} workers");
        }
    }

    #[test]
    fn grading_budget_certifies_references_and_still_flags_bugs() {
        // The 24-schedule grading budget is not just a sample: under DPOR
        // with preemption bound 0, the reference solutions' bounded
        // schedule spaces fit inside it, so their reports carry the
        // exhaustive-within-bound certificate.
        for (lab, src) in [
            (
                LabId::Bank,
                lab5_bank::source(lab5_bank::BankStep::ConcurrentLocked),
            ),
            (LabId::Philosophers, phil::ordered_source(5)),
            (LabId::BoundedBuffer, bb::semaphore_source()),
        ] {
            let r = grade(lab, &src);
            assert!(r.passed, "{lab:?} reference failed: {:?}", r.checks);
            assert_eq!(
                r.exploration_exhaustive,
                Some(true),
                "{lab:?} reference not certified exhaustive within bound"
            );
        }
        // The same budget still flags every seeded-buggy variant — the
        // certificate was not bought by skipping the schedules that matter.
        for (lab, src) in [
            (
                LabId::Bank,
                lab5_bank::source(lab5_bank::BankStep::ConcurrentRacy),
            ),
            (LabId::Philosophers, phil::naive_source(10)),
            (LabId::BoundedBuffer, bb::buggy_source()),
        ] {
            let r = grade(lab, &src);
            assert!(!r.passed, "{lab:?} buggy variant passed: {:?}", r.checks);
        }
        // Labs graded without exploration carry no claim either way.
        assert_eq!(
            grade(LabId::Sync, lab1_sync::FIXED_SOURCE).exploration_exhaustive,
            None
        );
        // Same-seed grading is deterministic down to the rendered report.
        let a = grade(LabId::Philosophers, &phil::ordered_source(5));
        let b = grade(LabId::Philosophers, &phil::ordered_source(5));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn non_compiling_scores_zero_ish() {
        let r = grade(LabId::Sync, "fn main() { this is not minilang");
        assert!(!r.passed);
        assert!(r.score < 30, "score {}", r.score);
    }

    #[test]
    fn sequential_fake_fails_concurrency_check() {
        // Returning the right answer without threads must not pass Lab 1.
        let cheat = "fn main() { return 1000; }";
        let r = grade(LabId::Sync, cheat);
        assert!(!r.passed || r.score < 100, "cheat scored {}", r.score);
        assert!(r
            .checks
            .iter()
            .any(|(name, ok)| name.contains("threads") && !ok));
    }

    #[test]
    fn paper_rates_table() {
        let rates: Vec<f64> = LabId::ALL.iter().map(|l| l.paper_passing_rate()).collect();
        assert_eq!(rates, vec![0.50, 0.67, 0.39, 0.44, 0.61, 0.50, 0.56]);
        for l in LabId::ALL {
            assert!(!l.title().is_empty());
            assert!((0.0..=1.0).contains(&l.difficulty()));
        }
    }

    #[test]
    fn numa_grader_wants_measurements() {
        let good = r#"
            fn main() {
                println("UMA mean = 80 ns");
                println("NUMA mean = 130 ns");
            }
        "#;
        assert!(grade(LabId::Numa, good).passed);
        let missing = r#"fn main() { println("done"); }"#;
        assert!(!grade(LabId::Numa, missing).passed);
    }
}
