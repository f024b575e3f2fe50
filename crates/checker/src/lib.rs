//! # checker — systematic interleaving exploration for minilang programs
//!
//! The portal's autograder (crate `labs`) verifies concurrent submissions
//! by *sampling* random schedules: run the program under a handful of
//! seeds and look at the results. Sampling finds crashes but proves
//! nothing, and it reports "the balance was 734" rather than "these two
//! unlocked writes race". This crate is the systematic counterpart — a
//! stateless model checker in the Verisoft / FastTrack tradition:
//!
//! * The VM is driven **one visible operation at a time** through the
//!   external-scheduler API ([`minilang::Vm::step_thread`],
//!   [`minilang::Vm::next_op`]). Thread-local instructions are run
//!   eagerly; only shared-memory and synchronization operations create
//!   scheduling points, which keeps the branching factor tractable.
//! * **Exploration** is bounded DFS over scheduling choices — dynamic
//!   partial-order reduction by default, full expansion as its unreduced
//!   oracle ([`CheckConfig::dpor`]) — pruned with sleep sets, optionally
//!   followed by uniform random walks ([`Strategy::Hybrid`], the default)
//!   so big programs still get schedule diversity after the DFS budget
//!   runs out.
//! * **Data races** are caught by FastTrack-style vector clocks fed from
//!   the VM's event stream — a race is reported on the first unordered
//!   conflicting access pair, with the location and both accesses named.
//! * **Deadlocks** are detected when no thread can make progress, with
//!   the mutex/join wait-for cycle named when one exists; executions that
//!   keep spinning without visible state change are flagged as livelock.
//! * Every failure comes with a **repro schedule** — the list of thread
//!   ids chosen at each visible step, greedily minimized — which
//!   [`replay_schedule`] replays deterministically.
//!
//! Determinism is load-bearing: the checker draws randomness only from
//! the workspace's seeded [`rng::SplitMix64`], so the same program and
//! budget produce byte-identical verdicts and repro schedules on every
//! toolchain.

pub mod archetypes;
mod clocks;
mod explore;
mod pool;

pub use clocks::{AccessKind, Race, RaceDetector, VectorClock};
pub use pool::Pool;

use explore::Stop;
use minilang::{LangError, Program};

/// Exploration strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Bounded depth-first search only (DPOR or full expansion, per
    /// [`CheckConfig::dpor`]), no random walks.
    Dfs,
    /// Uniform random walks only.
    RandomWalk,
    /// DFS first, then random walks on the schedule budget it leaves when
    /// it does not exhaust the space — systematic coverage near the root,
    /// diversity past the depth bound. DPOR gives the DFS the whole budget;
    /// full expansion (`dpor: false`) gives it a quarter.
    Hybrid,
}

/// Exploration budgets and knobs.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Maximum schedules (complete executions) to try.
    pub max_schedules: u64,
    /// Total visible-step budget across all schedules.
    pub max_steps: u64,
    /// Visible-step cap per schedule (runaway guard).
    pub steps_per_schedule: u64,
    /// DFS branch depth bound; deeper nodes fall back to one sampled path.
    pub dfs_depth: u32,
    /// Seed for the random-walk phase.
    pub seed: u64,
    /// Exploration strategy.
    pub strategy: Strategy,
    /// Greedily shrink the repro schedule before reporting.
    pub minimize: bool,
    /// Replay budget for minimization.
    pub minimize_replays: u32,
    /// VM instruction budget per execution.
    pub max_instructions: u64,
    /// Visible steps without a state change before declaring livelock.
    pub livelock_window: u64,
    /// Worker override for [`Pool::check`]: `None` uses the pool's width,
    /// `Some(0)`/`Some(1)` force the serial path. The report is identical
    /// either way — workers only change wall-clock time.
    pub workers: Option<usize>,
    /// Dynamic partial-order reduction (Flanagan/Godefroid source sets
    /// with conservative wakeup handling). Instead of enumerating every
    /// sibling at a branch and pruning with sleep sets, DFS starts each
    /// branch with a single member and *earns* the rest: whenever a
    /// pending op is found dependent on — and not happens-ordered after —
    /// an earlier executed step, the earlier step's branch gains a
    /// backtrack point. Equivalent verdicts in strictly fewer schedules;
    /// the happens-before oracle is the FastTrack clocks the race
    /// detector already maintains. `false` selects *full expansion*: the
    /// same DFS commits every enabled sibling at each branch and prunes
    /// with sleep sets alone — the unreduced oracle the reduction is
    /// checked against.
    pub dpor: bool,
    /// CHESS-style preemption bound: cap the number of *preemptive*
    /// context switches per schedule (a switch away from a thread that is
    /// still enabled). `None` explores unbounded. Bounded runs prove
    /// [`CheckReport::exhaustive_within_bound`] rather than full
    /// exhaustion; most real concurrency bugs need very few preemptions,
    /// so small bounds keep grading budgets honest. Under `dpor` the
    /// backtrack insertion turns conservative (whole enabled set) so the
    /// bounded search stays sound.
    pub preemption_bound: Option<u32>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_schedules: 48,
            max_steps: 600_000,
            steps_per_schedule: 40_000,
            dfs_depth: 50,
            seed: 0,
            strategy: Strategy::Hybrid,
            minimize: true,
            minimize_replays: 48,
            max_instructions: 2_000_000,
            livelock_window: 4_000,
            workers: None,
            dpor: true,
            preemption_bound: None,
        }
    }
}

/// The checker's conclusion about a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// No failure found within budget (see [`CheckReport::complete`] for
    /// whether the schedule space was exhausted).
    Clean,
    /// A data race: two unordered conflicting accesses.
    Race {
        /// The shared location, e.g. `Global(3)` or `Elem(0, 7)`.
        location: String,
        /// Earlier access, `"thread N read|write|atomic"`.
        first: String,
        /// The access that tripped the detector.
        second: String,
    },
    /// No thread can make progress.
    Deadlock {
        /// Human-readable wait state of each blocked thread.
        blocked: Vec<String>,
        /// The mutex/join wait-for cycle, when one exists (thread ids).
        cycle: Vec<usize>,
    },
    /// Threads stay runnable but the program state stopped changing.
    Livelock {
        /// The spinning thread ids.
        spinning: Vec<usize>,
    },
    /// The program itself crashed (type error, unlock-not-owner, ...).
    RuntimeError {
        /// The VM error message.
        error: String,
    },
}

impl Verdict {
    pub(crate) fn race(r: &Race) -> Verdict {
        Verdict::Race {
            location: format!("{:?}", r.loc),
            first: format!("thread {} {}", r.first.0, r.first.1),
            second: format!("thread {} {}", r.second.0, r.second.1),
        }
    }

    /// Is this a failure (anything but [`Verdict::Clean`])?
    pub fn is_failure(&self) -> bool {
        !matches!(self, Verdict::Clean)
    }

    /// One-word class name, used as a metrics label and in reports.
    pub fn class(&self) -> &'static str {
        match self {
            Verdict::Clean => "clean",
            Verdict::Race { .. } => "race",
            Verdict::Deadlock { .. } => "deadlock",
            Verdict::Livelock { .. } => "livelock",
            Verdict::RuntimeError { .. } => "runtime_error",
        }
    }

    /// Are two verdicts "the same failure" for minimization purposes?
    /// Races must agree on the location; deadlock/livelock on the class;
    /// runtime errors on the message.
    pub fn same_failure(&self, other: &Verdict) -> bool {
        match (self, other) {
            (Verdict::Race { location: a, .. }, Verdict::Race { location: b, .. }) => a == b,
            (Verdict::Deadlock { .. }, Verdict::Deadlock { .. }) => true,
            (Verdict::Livelock { .. }, Verdict::Livelock { .. }) => true,
            (Verdict::RuntimeError { error: a }, Verdict::RuntimeError { error: b }) => a == b,
            _ => false,
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Clean => write!(f, "clean"),
            Verdict::Race {
                location,
                first,
                second,
            } => {
                write!(f, "data race on {location}: {first} vs {second}")
            }
            Verdict::Deadlock { blocked, cycle } => {
                if cycle.is_empty() {
                    write!(f, "deadlock: [{}]", blocked.join("; "))
                } else {
                    let ids: Vec<String> = cycle.iter().map(|t| format!("t{t}")).collect();
                    write!(
                        f,
                        "deadlock (cycle {}): [{}]",
                        ids.join(" -> "),
                        blocked.join("; ")
                    )
                }
            }
            Verdict::Livelock { spinning } => {
                let ids: Vec<String> = spinning.iter().map(|t| format!("t{t}")).collect();
                write!(
                    f,
                    "livelock: threads [{}] spin without progress",
                    ids.join(", ")
                )
            }
            Verdict::RuntimeError { error } => write!(f, "runtime error: {error}"),
        }
    }
}

/// What an exploration run found and how hard it looked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// The conclusion.
    pub verdict: Verdict,
    /// Schedules (complete executions) tried.
    pub schedules: u64,
    /// Visible steps taken across all schedules.
    pub steps: u64,
    /// True iff DFS exhausted the (reduced) schedule space, so
    /// [`Verdict::Clean`] is a proof within the per-schedule step bound
    /// rather than a sampling result. A [`CheckConfig::preemption_bound`]
    /// prune falsifies this — see `exhaustive_within_bound` for the
    /// bounded claim.
    pub complete: bool,
    /// True iff DFS exhausted the schedule space *up to the configured
    /// preemption bound*: every schedule with at most
    /// [`CheckConfig::preemption_bound`] preemptions was covered, and
    /// nothing was lost to budget truncation or the depth-cap fallback.
    /// With no bound configured this equals `complete`. On failure it is
    /// `false` like `complete`: a found bug is a counterexample, not an
    /// exhaustion claim.
    pub exhaustive_within_bound: bool,
    /// On failure: the minimized schedule (thread id per visible step)
    /// that [`replay_schedule`] uses to reproduce it.
    pub repro: Option<Vec<usize>>,
}

/// Execution-cost counters from one `check` call, reported next to the
/// [`CheckReport`] but deliberately not inside it: reports are compared
/// byte-for-byte between the serial and pooled paths, whose costs
/// legitimately differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Visible steps actually executed by the VM (DFS + walk phases).
    pub vm_steps: u64,
    /// Prefix steps branch snapshots saved: each sibling entered at a
    /// branch charges the branch's depth, exactly what replaying that
    /// child from the root would have re-executed.
    pub replay_steps_saved: u64,
    /// Branch-point snapshots taken.
    pub snapshots: u64,
    /// DPOR backtrack points earned: threads added to a branch's
    /// backtrack set because a pending op was dependent on (and not
    /// ordered after) an earlier step of that branch. Always 0 under full
    /// expansion, which commits every member up front.
    pub dpor_backtracks: u64,
    /// Branch siblings DPOR never had to explore: enabled threads left
    /// outside the backtrack set when their branch was fully processed.
    /// Each one is a whole subtree the unreduced DFS would have entered.
    /// Always 0 under full expansion.
    pub dpor_pruned_siblings: u64,
    /// Branch children skipped because taking them would exceed the
    /// preemption bound.
    pub bound_pruned: u64,
    /// Schedules spent by the systematic DFS phase alone, before random
    /// walks fill any remaining budget. This is the number reduction
    /// ratios compare: walk fill is bounded by `max_schedules`, not by
    /// the search, so `CheckReport::schedules` overstates bounded or
    /// truncated explorations.
    pub dfs_schedules: u64,
}

/// Explore a compiled program's interleavings.
pub fn check(program: &Program, cfg: &CheckConfig) -> CheckReport {
    explore::explore(program, cfg)
}

/// [`check`], also returning execution-cost counters (for dashboards and
/// benches; the report itself is identical to [`check`]'s).
pub fn check_with_stats(program: &Program, cfg: &CheckConfig) -> (CheckReport, CheckStats) {
    explore::explore_with_stats(program, cfg)
}

/// Compile `src` and explore it. Compile errors come back as `Err`;
/// runtime failures are part of the [`CheckReport`].
pub fn check_program(src: &str, cfg: &CheckConfig) -> Result<CheckReport, LangError> {
    let program = minilang::compile(src)?;
    Ok(check(&program, cfg))
}

/// Replay a repro `schedule` from [`CheckReport::repro`] and return the
/// verdict it reaches. Deterministic: the same program + schedule always
/// lands on the same verdict.
pub fn replay_schedule(program: &Program, cfg: &CheckConfig, schedule: &[usize]) -> Verdict {
    match explore::run_schedule(program, cfg, schedule) {
        Stop::Failure(v) => v,
        Stop::Finished | Stop::Truncated => Verdict::Clean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CheckConfig {
        CheckConfig::default()
    }

    #[test]
    fn race_free_sequential_program_is_clean_and_complete() {
        let report = check_program(
            r#"
            fn main() {
                var i = 0;
                while (i < 10) { i = i + 1; }
                println(i);
            }
            "#,
            &cfg(),
        )
        .unwrap();
        assert_eq!(report.verdict, Verdict::Clean);
        assert!(report.complete, "single-threaded space must be exhausted");
        assert!(report.repro.is_none());
    }

    #[test]
    fn unlocked_counter_races() {
        let report = check_program(
            r#"
            var counter = 0;
            fn bump() {
                var i = 0;
                while (i < 3) { counter = counter + 1; i = i + 1; }
            }
            fn main() {
                var a = spawn bump();
                var b = spawn bump();
                join(a); join(b);
                println(counter);
            }
            "#,
            &cfg(),
        )
        .unwrap();
        assert_eq!(report.verdict.class(), "race", "got {:?}", report.verdict);
        let repro = report.repro.expect("race must carry a repro schedule");
        let prog = minilang::compile(
            r#"
            var counter = 0;
            fn bump() {
                var i = 0;
                while (i < 3) { counter = counter + 1; i = i + 1; }
            }
            fn main() {
                var a = spawn bump();
                var b = spawn bump();
                join(a); join(b);
                println(counter);
            }
            "#,
        )
        .unwrap();
        let replayed = replay_schedule(&prog, &cfg(), &repro);
        assert!(
            report.verdict.same_failure(&replayed),
            "repro must land on the same race"
        );
    }

    #[test]
    fn locked_counter_is_clean() {
        let report = check_program(
            r#"
            var counter = 0;
            var m;
            fn bump() {
                var i = 0;
                while (i < 3) {
                    lock(m);
                    counter = counter + 1;
                    unlock(m);
                    i = i + 1;
                }
            }
            fn main() {
                m = mutex();
                var a = spawn bump();
                var b = spawn bump();
                join(a); join(b);
                println(counter);
            }
            "#,
            &cfg(),
        )
        .unwrap();
        assert_eq!(
            report.verdict,
            Verdict::Clean,
            "mutex discipline must not be flagged"
        );
    }

    #[test]
    fn lock_order_inversion_deadlocks_with_cycle() {
        let src = r#"
            var a;
            var b;
            fn one() { lock(a); yield_now(); lock(b); unlock(b); unlock(a); }
            fn two() { lock(b); yield_now(); lock(a); unlock(a); unlock(b); }
            fn main() {
                a = mutex();
                b = mutex();
                var x = spawn one();
                var y = spawn two();
                join(x); join(y);
            }
        "#;
        let report = check_program(src, &cfg()).unwrap();
        match &report.verdict {
            Verdict::Deadlock { cycle, .. } => {
                assert_eq!(cycle.len(), 2, "AB/BA inversion is a 2-cycle: {cycle:?}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        let repro = report.repro.expect("deadlock must carry a repro");
        let prog = minilang::compile(src).unwrap();
        let replayed = replay_schedule(&prog, &cfg(), &repro);
        assert!(
            report.verdict.same_failure(&replayed),
            "repro replays to a deadlock"
        );
    }

    #[test]
    fn channel_handoff_is_clean() {
        let report = check_program(
            r#"
            var data = 0;
            var c;
            fn producer() { data = 42; send(c, 1); }
            fn main() {
                c = channel(1);
                var p = spawn producer();
                recv(c);
                println(data);
                join(p);
            }
            "#,
            &cfg(),
        )
        .unwrap();
        assert_eq!(report.verdict, Verdict::Clean, "send/recv orders the write");
    }

    #[test]
    fn verdicts_and_repros_are_deterministic() {
        let src = r#"
            var n = 0;
            fn w() { n = n + 1; }
            fn main() { var a = spawn w(); var b = spawn w(); join(a); join(b); }
        "#;
        let r1 = check_program(src, &cfg()).unwrap();
        let r2 = check_program(src, &cfg()).unwrap();
        assert_eq!(r1, r2, "same program + budget => byte-identical report");
    }
}
