//! The DPOR acceptance bar: a differential harness proving the reduced
//! search equivalent to full expansion (`dpor: false`), the unreduced
//! search it replaces.
//!
//! Equivalent means two things, checked program by program:
//!
//! - **Same violations.** Both searches classify every program identically
//!   (clean / race / deadlock / livelock). Reduction must never commute a
//!   dependent pair and lose the one ordering that fails.
//! - **No more schedules.** Where both searches exhaust the space, DPOR
//!   spends at most as many schedules as the baseline — the backtrack
//!   sets plus sleep sets are a strict refinement of sleep sets alone.
//!
//! The corpus is `checker::archetypes` (each member chosen to defeat a
//! naive reducer), plus two-thread programs drawn from a fixed seed over
//! the synchronization vocabulary, plus the preemption-bound variants:
//! violations must be monotone in the bound, and every configuration of
//! either search must stay bit-identical across pool widths.

use checker::{CheckConfig, CheckStats, Pool, Strategy, Verdict};

/// A pure-DFS budget big enough that every corpus program either exhausts
/// its space or fails; random walks never enter the comparison.
fn base_cfg(seed: u64) -> CheckConfig {
    CheckConfig {
        max_schedules: 100_000,
        max_steps: 50_000_000,
        minimize: false,
        strategy: Strategy::Dfs,
        dfs_depth: 10_000,
        seed,
        ..CheckConfig::default()
    }
}

fn run(src: &str, dpor: bool, seed: u64) -> (checker::CheckReport, CheckStats) {
    let cfg = CheckConfig {
        dpor,
        ..base_cfg(seed)
    };
    let prog = minilang::compile(src).expect("corpus program compiles");
    checker::check_with_stats(&prog, &cfg)
}

// ---- the differential: corpus × seeds -------------------------------------

#[test]
fn dpor_finds_exactly_the_dfs_violations_with_fewer_schedules() {
    for (name, src, want) in checker::archetypes::corpus() {
        for seed in [0u64, 1, 2] {
            let (dfs, dfs_stats) = run(src, false, seed);
            let (dpor, dpor_stats) = run(src, true, seed);
            assert_eq!(
                dfs.verdict.class(),
                want,
                "{name} (seed {seed}): baseline DFS missed the pinned class"
            );
            assert_eq!(
                dpor.verdict.class(),
                dfs.verdict.class(),
                "{name} (seed {seed}): reduction changed the verdict class \
                 (dfs {:?}, dpor {:?})",
                dfs.verdict,
                dpor.verdict
            );
            assert_eq!(
                dpor.complete, dfs.complete,
                "{name} (seed {seed}): completeness diverged"
            );
            assert!(
                dpor_stats.dfs_schedules <= dfs_stats.dfs_schedules,
                "{name} (seed {seed}): DPOR spent more schedules than the \
                 unreduced search ({} > {})",
                dpor_stats.dfs_schedules,
                dfs_stats.dfs_schedules
            );
        }
    }
}

#[test]
fn dpor_strictly_reduces_every_clean_corpus_program() {
    // On failing programs both searches stop at the first violation, so
    // the counts are close; on the clean ones DPOR must actually prune.
    for (name, src, want) in checker::archetypes::corpus() {
        if want != "clean" {
            continue;
        }
        let (dfs, dfs_stats) = run(src, false, 0);
        let (dpor, dpor_stats) = run(src, true, 0);
        assert!(dfs.complete && dpor.complete, "{name}: budget too small");
        assert!(
            dpor_stats.dfs_schedules < dfs_stats.dfs_schedules,
            "{name}: no reduction ({} vs {})",
            dpor_stats.dfs_schedules,
            dfs_stats.dfs_schedules
        );
        assert!(
            dpor_stats.dpor_pruned_siblings > 0,
            "{name}: nothing pruned: {dpor_stats:?}"
        );
    }
}

// ---- the checked-in BENCH_dpor.json numbers -------------------------------

/// The settings the checked-in `BENCH_dpor.json` was measured with: a
/// pure-DFS budget big enough for the unreduced engine to exhaust every
/// workload tree, seeded as the measurement was.
fn bench_cfg(dpor: bool, preemption_bound: Option<u32>) -> CheckConfig {
    CheckConfig {
        max_schedules: 4_096,
        max_steps: 1_000_000_000,
        minimize: false,
        seed: 42,
        strategy: Strategy::Dfs,
        dfs_depth: 10_000,
        dpor,
        preemption_bound,
        ..CheckConfig::default()
    }
}

#[test]
fn bench_dpor_counts_match_the_checked_in_baseline() {
    use checker::archetypes::{
        mini_locked_counter, mini_semaphore_pingpong, scaled_locked_counter,
        scaled_semaphore_pingpong,
    };
    // Per workload: unreduced DFS schedules, DPOR schedules, DPOR schedules
    // at preemption bound 2, DPOR backtracks, DPOR pruned siblings. The
    // first two pin the reduction at 3.0x, 3.0x, 5.0x and 5.4x.
    let rows = [
        (
            "locked_counter_x2",
            mini_locked_counter().to_string(),
            [33, 11, 8, 15, 22],
        ),
        (
            "locked_counter_x3",
            scaled_locked_counter(3),
            [117, 39, 13, 57, 78],
        ),
        (
            "semaphore_pingpong_x2",
            mini_semaphore_pingpong().to_string(),
            [15, 3, 3, 2, 12],
        ),
        (
            "semaphore_pingpong_x4",
            scaled_semaphore_pingpong(4),
            [27, 5, 3, 4, 22],
        ),
    ];
    for (name, src, want) in rows {
        let prog = minilang::compile(&src).expect("archetype compiles");
        let (dfs_report, dfs) = checker::check_with_stats(&prog, &bench_cfg(false, None));
        let (dpor_report, dpor) = checker::check_with_stats(&prog, &bench_cfg(true, None));
        let (bounded_report, bounded) = checker::check_with_stats(&prog, &bench_cfg(true, Some(2)));
        let got = [
            dfs.dfs_schedules,
            dpor.dfs_schedules,
            bounded.dfs_schedules,
            dpor.dpor_backtracks,
            dpor.dpor_pruned_siblings,
        ];
        assert_eq!(got, want, "{name}: BENCH_dpor.json row drifted");
        // The row's `all_sound` bit: both unbounded engines exhaust the
        // tree, the bounded run certifies every schedule within its
        // bound, and all three agree the workload is clean.
        assert!(
            dfs_report.complete && dpor_report.complete,
            "{name}: an unbounded engine did not exhaust the tree"
        );
        assert!(
            bounded_report.exhaustive_within_bound,
            "{name}: the bound-2 run is not exhaustive within its bound"
        );
        for report in [&dfs_report, &dpor_report, &bounded_report] {
            assert_eq!(report.verdict, Verdict::Clean, "{name}");
        }
    }
}

// ---- preemption-bound monotonicity ----------------------------------------

#[test]
fn violations_are_monotone_in_the_preemption_bound() {
    // A violation inside bound b cannot vanish when the search is allowed
    // more preemptions: bounds 0, 1, 2, unbounded form a chain.
    let bounds = [Some(0u32), Some(1), Some(2), None];
    for (name, src, _) in checker::archetypes::corpus() {
        for seed in [0u64, 1, 2] {
            let found: Vec<bool> = bounds
                .iter()
                .map(|&b| {
                    let cfg = CheckConfig {
                        dpor: true,
                        preemption_bound: b,
                        // Modest cap so walk fill stays bounded; walks are
                        // part of the checker's contract and the chain must
                        // hold for the full report.
                        max_schedules: 64,
                        ..base_cfg(seed)
                    };
                    let prog = minilang::compile(src).unwrap();
                    checker::check(&prog, &cfg).verdict.class() != "clean"
                })
                .collect();
            for w in found.windows(2) {
                assert!(
                    !w[0] || w[1],
                    "{name} (seed {seed}): violation found at a tighter bound \
                     but lost at a looser one: {found:?}"
                );
            }
        }
    }
}

// ---- pool bit-identity over the membership merge --------------------------

#[test]
fn dpor_configs_are_bit_identical_across_pool_widths() {
    for (name, src, _) in checker::archetypes::corpus() {
        let prog = minilang::compile(src).unwrap();
        for dpor in [true, false] {
            for bound in [None, Some(0u32), Some(2)] {
                let cfg = CheckConfig {
                    dpor,
                    preemption_bound: bound,
                    max_schedules: 64,
                    ..base_cfg(0)
                };
                let serial = checker::check(&prog, &cfg);
                for workers in [1usize, 2, 4] {
                    assert_eq!(
                        Pool::new(workers).check(&prog, &cfg),
                        serial,
                        "{name} (dpor {dpor}, bound {bound:?}): {workers}-worker \
                         report diverged from serial"
                    );
                }
            }
        }
    }
}

// ---- randomized differential ----------------------------------------------

/// Emit one thread body from op codes: a straight-line sequence over the
/// shared vocabulary (mutex, two shared counters, a binary semaphore, a
/// capacity-1 channel). Blocking forever is allowed — that is a verdict
/// (deadlock), and both searches must agree on it.
fn body(ops: &[u8], thread: usize) -> String {
    let mut out = String::new();
    for (i, op) in ops.iter().enumerate() {
        let stmt = match op % 8 {
            0 => "lock(m); count = count + 1; unlock(m);".to_string(),
            1 => "count = count + 1;".to_string(),
            2 => "other = other + 1;".to_string(),
            3 => "sem_wait(s);".to_string(),
            4 => "sem_post(s);".to_string(),
            5 => "send(c, 1);".to_string(),
            6 => format!("var r{thread}_{i} = recv(c);"),
            _ => "lock(m); other = other + 1; unlock(m);".to_string(),
        };
        out.push_str(&stmt);
        out.push('\n');
    }
    out
}

fn random_program(t1: &[u8], t2: &[u8]) -> String {
    format!(
        r#"
        var count = 0;
        var other = 0;
        var m;
        var s;
        var c;
        fn one() {{
            {}
        }}
        fn two() {{
            {}
        }}
        fn main() {{
            m = mutex();
            s = semaphore(1);
            c = channel(1);
            var a = spawn one();
            var b = spawn two();
            join(a);
            join(b);
            return count + other;
        }}
        "#,
        body(t1, 1),
        body(t2, 2)
    )
}

/// Random two-thread programs over the full synchronization vocabulary:
/// the reduced and unreduced searches agree on the class, and where both
/// exhaust the space DPOR spends no more schedules. A fixed-seed xorshift
/// generator draws the programs, so every run checks the same 60.
#[test]
fn seeded_random_programs_agree_under_reduction() {
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }
    fn ops(state: &mut u64) -> Vec<u8> {
        let len = 1 + (next(state) % 3) as usize;
        (0..len).map(|_| (next(state) & 0xFF) as u8).collect()
    }
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for case in 0..60 {
        let (t1, t2) = (ops(&mut state), ops(&mut state));
        let src = random_program(&t1, &t2);
        let (dfs, dfs_stats) = run(&src, false, 0);
        let (dpor, dpor_stats) = run(&src, true, 0);
        assert_eq!(
            dfs.verdict.class(),
            dpor.verdict.class(),
            "case {case}:\n{src}\ndfs {:?} vs dpor {:?}",
            dfs.verdict,
            dpor.verdict
        );
        if dfs.complete && dpor.complete {
            assert!(
                dpor_stats.dfs_schedules <= dfs_stats.dfs_schedules,
                "case {case}:\n{src}\nDPOR spent {} > DFS {}",
                dpor_stats.dfs_schedules,
                dfs_stats.dfs_schedules
            );
        }
    }
}
