//! A full course session: run each of the seven PDC labs the way the
//! closed labs did, print the interleaving checker's verdicts on the lab
//! 5-7 archetypes under the grading config, then regenerate the paper's
//! three evaluation tables.
//!
//! Run with: `cargo run --example course_session` (add `--release` for
//! speed; the cohort simulation autogrades 19 x 7 real VM submissions).

use assess::{table1, table2, table3};
use labs::{
    lab1_sync, lab2_spinlock, lab3_numa, lab4_procthread, lab5_bank, lab6_philosophers,
    lab7_boundedbuffer,
};

fn main() {
    println!("==================== closed-lab walkthrough ====================\n");

    // Lab 1 — the missing-synchronization counter.
    let buggy_losses = lab1_sync::wrong_seed_count(lab1_sync::BUGGY_SOURCE, 0..10);
    let fixed_losses = lab1_sync::wrong_seed_count(lab1_sync::FIXED_SOURCE, 0..10);
    println!("Lab 1 (synchronization):");
    println!("  buggy handout lost updates on {buggy_losses}/10 seeds");
    println!("  mutex-fixed version lost updates on {fixed_losses}/10 seeds\n");

    // Lab 2 — TAS vs TTAS coherence traffic.
    let tas = lab2_spinlock::coherence_trace(4, 100, 10, false, cluster::CoherenceProtocol::Mesi);
    let ttas = lab2_spinlock::coherence_trace(4, 100, 10, true, cluster::CoherenceProtocol::Mesi);
    println!("Lab 2 (spin lock & cache coherence), 4 cores, 100 acquisitions:");
    println!(
        "  TAS : {:>6} invalidations, {:>6} bus transactions",
        tas.invalidations, tas.bus_transactions
    );
    println!(
        "  TTAS: {:>6} invalidations, {:>6} bus transactions",
        ttas.invalidations, ttas.bus_transactions
    );
    println!(
        "  (TTAS spins in cache: hit rate {:.1}% vs {:.1}%)\n",
        ttas.hit_rate() * 100.0,
        tas.hit_rate() * 100.0
    );

    // Lab 3 — the UMA/NUMA access-time table.
    println!("Lab 3 (UMA and NUMA access times):");
    for row in lab3_numa::full_table(512, 4096) {
        println!(
            "  {:<24} {:>12.1} ns/access",
            row.domain.to_string(),
            row.mean_ns
        );
    }
    let mpi_times = lab3_numa::mpi_pull_experiment(4, 2048);
    println!(
        "  MPI pull (2048 words) virtual times by rank: {:?}\n",
        mpi_times
            .iter()
            .map(|t| format!("{:.0}ns", t))
            .collect::<Vec<_>>()
    );

    // Lab 4 — producer/consumer file copy.
    let ok = lab4_procthread::run_copy_checked(&(1..=50).collect::<Vec<i64>>(), 7).expect("runs");
    println!(
        "Lab 4 (process & thread management): 50-number file copy in order: {}\n",
        if ok { "PASS" } else { "FAIL" }
    );

    // Lab 5 — the bank account, steps (iv)-(vi).
    println!("Lab 5 (bank account):");
    let serial =
        lab5_bank::ending_balance(lab5_bank::BankStep::SerializedThreads, 0).expect("runs");
    println!(
        "  step iv  (serialized threads): balance {serial} (expected {})",
        lab5_bank::EXPECTED
    );
    let racy = lab5_bank::racy_balances(0..10);
    println!("  step v   (concurrent, racy)  : balances observed across 10 runs: {racy:?}");
    let locked = lab5_bank::ending_balance(lab5_bank::BankStep::ConcurrentLocked, 0).expect("runs");
    println!("  step vi  (mutex-protected)   : balance {locked}\n");

    // Lab 6 — dining philosophers.
    let naive_rate = lab6_philosophers::deadlock_rate(&lab6_philosophers::naive_source(15), 0..10);
    let fixed_rate =
        lab6_philosophers::deadlock_rate(&lab6_philosophers::ordered_source(15), 0..10);
    println!(
        "Lab 6 (deadlock): naive deadlock rate {:.0}%, resource-ordered {:.0}%\n",
        naive_rate * 100.0,
        fixed_rate * 100.0
    );

    // Lab 7 — the bounded buffer.
    println!("Lab 7 (bounded buffer):");
    println!(
        "  buggy handout correct on {:.0}% of seeds",
        lab7_boundedbuffer::correctness_rate(&lab7_boundedbuffer::buggy_source(), 0..10) * 100.0
    );
    println!(
        "  mutex fix     correct on {:.0}% of seeds",
        lab7_boundedbuffer::correctness_rate(&lab7_boundedbuffer::mutex_source(), 0..10) * 100.0
    );
    println!(
        "  semaphore fix correct on {:.0}% of seeds\n",
        lab7_boundedbuffer::correctness_rate(&lab7_boundedbuffer::semaphore_source(), 0..10)
            * 100.0
    );

    // The grader's systematic checks (EXPERIMENTS.md, "Interleaving checker").
    println!("==================== interleaving checker (grading config) ====================\n");
    println!("| program | verdict | schedules explored | visible steps | repro length |");
    println!("|---|---|---:|---:|---:|");
    let grading = labs::grading::grading_check_config();
    for (name, src) in [
        (
            "lab 5 bank, racy deposit",
            lab5_bank::source(lab5_bank::BankStep::ConcurrentRacy),
        ),
        (
            "lab 5 bank, locked deposit",
            lab5_bank::source(lab5_bank::BankStep::ConcurrentLocked),
        ),
        (
            "lab 6 philosophers, naive (3)",
            lab6_philosophers::naive_source(3),
        ),
        (
            "lab 6 philosophers, ordered (3)",
            lab6_philosophers::ordered_source(3),
        ),
        (
            "lab 7 buffer, no synchronization",
            lab7_boundedbuffer::buggy_source(),
        ),
        (
            "lab 7 buffer, mutex + busy-wait",
            lab7_boundedbuffer::mutex_source(),
        ),
        (
            "lab 7 buffer, semaphores",
            lab7_boundedbuffer::semaphore_source(),
        ),
    ] {
        let r = checker::check_program(&src, &grading).expect("lab source compiles");
        let repro = r.repro.map_or("—".to_string(), |s| s.len().to_string());
        println!(
            "| {name} | {} | {} | {} | {repro} |",
            r.verdict.class(),
            r.schedules,
            r.steps
        );
    }
    println!();

    println!("==================== evaluation (paper vs reproduced) ====================\n");
    let seed = 2012; // Spring 2012, the semester the paper evaluated
    println!("{}", table1(seed).render());
    println!("{}", table2(seed).render());

    // The class is 19 students, so the exam rates are grainy: show the
    // spread over 10 cohorts.
    let mut midterms = Vec::new();
    let mut finals = Vec::new();
    for cohort_seed in 0..10u64 {
        let cohort = assess::Cohort::new(cohort_seed);
        let outcomes = cohort.run_labs();
        let exams = assess::ExamModel::default().run(&cohort, &outcomes, cohort_seed);
        midterms.push(exams.midterm_rate_all());
        finals.push(exams.final_rate_passers());
    }
    let spread = |xs: &[f64]| {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        format!("{:.0}%..{:.0}%", lo * 100.0, hi * 100.0)
    };
    println!("seed sensitivity over 10 cohorts:");
    println!("  midterm-all spread: {} (paper 17%)", spread(&midterms));
    println!(
        "  final-among-passers spread: {} (paper 80%)\n",
        spread(&finals)
    );

    println!("{}", table3(seed).render());
    let (entrance, exit) = assess::SurveyModel::default().run(seed);
    println!("per-question Welch t (entrance vs exit, negative = exit higher):");
    for (i, q) in assess::survey::questions().iter().enumerate() {
        let e: Vec<f64> = entrance.responses[i].iter().map(|v| *v as f64).collect();
        let x: Vec<f64> = exit.responses[i].iter().map(|v| *v as f64).collect();
        let (t, df) = assess::stats::welch_t(&e, &x);
        println!("  Q{}: t={t:.2} (df~{df:.0})", q.number);
    }
}
