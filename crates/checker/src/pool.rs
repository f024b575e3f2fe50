//! A work-stealing worker pool and the deterministic parallel exploration
//! engine built on it.
//!
//! # Determinism by merge
//!
//! Serial exploration ([`crate::check`]) is an *order-deterministic* scan:
//! the DFS spends schedules in a canonical traversal order, checking the
//! shared budget between schedules, then the walk phase consumes seeded
//! walk indices in ascending order. The parallel engine keeps the result
//! bit-for-bit identical by splitting the work into units whose *contents*
//! are budget-independent, executing them speculatively with the full
//! phase budget (a superset of whatever serial would have had left), and
//! then replaying the exact serial budget arithmetic over the recorded
//! traces in canonical order:
//!
//! 1. **DFS phase.** [`explore::split_root`] shards the tree at its first
//!    branch point, one shard per root member, each carrying the sleep set
//!    serial's root frame would hand it. Each shard runs on a worker with
//!    its own VM, recording one [`SchedEntry`] per schedule spent. The
//!    merge replays serial's root membership loop over the shards,
//!    decrementing the real budget before each entry exactly where serial
//!    checks it, stopping on the first failure or empty budget.
//! 2. **Walk phase.** Walk `i` is a pure function of `(seed, i)`, so the
//!    remaining budget fans out as independent walk jobs; the merge scan
//!    consumes results in index order with the serial step-budget gate.
//!
//! Walks that can only start *after* the serial scan would have stopped
//! are cancelled via a shared first-failure index; everything at or before
//! the true stopping point is always computed, so the scan never reads a
//! missing slot.
//!
//! [`SchedEntry`]: explore::SchedEntry

use crate::explore;
use crate::{CheckConfig, CheckReport, CheckStats, Verdict};
use minilang::Program;
use obs::Obs;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A fixed-width work-stealing pool. Threads are scoped per call — the
/// pool owns no persistent threads, only the worker count and (optionally)
/// a telemetry domain for `ccp_pool_*` metrics.
pub struct Pool {
    workers: usize,
    obs: Option<Arc<Obs>>,
}

impl Pool {
    /// A pool with an explicit worker count. `0` and `1` both mean "run
    /// everything inline on the caller" — the serial path, unchanged.
    pub fn new(workers: usize) -> Pool {
        Pool { workers, obs: None }
    }

    /// A pool sized to the machine: `max(1, available_parallelism - 1)`,
    /// leaving one core for the portal's own request handling.
    pub fn auto() -> Pool {
        Pool::new(Self::default_workers())
    }

    /// The default worker count: `max(1, available_parallelism - 1)`.
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get().saturating_sub(1))
            .unwrap_or(1)
            .max(1)
    }

    /// Attach a telemetry domain; registers every `ccp_pool_*` family
    /// eagerly so `/api/metrics` exposes them before the first task runs.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Pool {
        let m = &obs.metrics;
        m.describe("ccp_pool_workers", "checker pool worker threads");
        m.describe("ccp_pool_tasks_total", "tasks executed by the pool");
        m.describe(
            "ccp_pool_steals_total",
            "tasks stolen from another worker's queue",
        );
        m.describe(
            "ccp_pool_busy_us",
            "per-worker busy time per pool invocation",
        );
        m.describe(
            "ccp_pool_idle_us",
            "per-worker idle time per pool invocation",
        );
        m.describe("ccp_vm_steps_total", "VM steps executed during checking");
        m.describe(
            "ccp_vm_replay_steps_saved_total",
            "prefix replay steps avoided by snapshot restore",
        );
        m.describe(
            "ccp_checker_snapshots_total",
            "VM snapshots taken at DFS branch points",
        );
        m.describe(
            "ccp_checker_dpor_backtracks_total",
            "DPOR backtrack points earned from dependence scans",
        );
        m.describe(
            "ccp_checker_dpor_pruned_siblings_total",
            "branch siblings DPOR never had to explore",
        );
        m.describe(
            "ccp_checker_dpor_bound_pruned_total",
            "branch children skipped by the preemption bound",
        );
        m.gauge("ccp_pool_workers", &[]).set(self.workers as i64);
        m.counter("ccp_pool_tasks_total", &[]);
        m.counter("ccp_pool_steals_total", &[]);
        m.histogram("ccp_pool_busy_us", &[], obs::DURATION_US_BOUNDS);
        m.histogram("ccp_pool_idle_us", &[], obs::DURATION_US_BOUNDS);
        m.counter("ccp_vm_steps_total", &[]);
        m.counter("ccp_vm_replay_steps_saved_total", &[]);
        m.counter("ccp_checker_snapshots_total", &[]);
        m.counter("ccp_checker_dpor_backtracks_total", &[]);
        m.counter("ccp_checker_dpor_pruned_siblings_total", &[]);
        m.counter("ccp_checker_dpor_bound_pruned_total", &[]);
        self.obs = Some(obs);
        self
    }

    /// Configured worker count (0/1 = serial).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Apply `f` to every item, preserving input order in the output.
    /// Items are dealt to per-worker deques in contiguous chunks; idle
    /// workers steal from the back of their neighbours' queues. With one
    /// (or zero) workers, or one item, runs inline on the caller.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.workers.min(n);
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }

        // Deal contiguous chunks: early (canonical-order) items land on
        // early workers, so the merge's prefix is computed first.
        let mut queues: Vec<Mutex<VecDeque<(usize, T)>>> = Vec::with_capacity(workers);
        for _ in 0..workers {
            queues.push(Mutex::new(VecDeque::new()));
        }
        for (i, item) in items.into_iter().enumerate() {
            let w = (i * workers) / n;
            queues[w].lock().expect("queue lock").push_back((i, item));
        }

        let steals = AtomicU64::new(0);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut busy_idle: Vec<(u64, u64)> = Vec::with_capacity(workers);
        // Contention profiling is metrics-only (never spans): workers run in
        // nondeterministic order, and the profiler families are excluded
        // from the deterministic render surface.
        let profiler = self.obs.as_deref().map(|o| &o.profiler);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|wi| {
                    let queues = &queues;
                    let steals = &steals;
                    let f = &f;
                    std::thread::Builder::new()
                        // DFS units recurse one stack frame per branch
                        // frame; deep programs (thousands of branch states)
                        // need more than the 2 MiB thread default. Virtual
                        // reservation only — pages commit on use.
                        .stack_size(crate::explore::EXPLORE_STACK_BYTES)
                        .spawn_scoped(s, move || {
                            let started = Instant::now();
                            let mut busy = 0u64;
                            let mut out: Vec<(usize, R)> = Vec::new();
                            loop {
                                // Own-queue pop as its own statement: the guard
                                // must drop before any steal attempt, or two
                                // drained workers stealing from each other hold
                                // their own lock while waiting for the other's.
                                let mut task = queues[wi].lock().expect("queue lock").pop_front();
                                if task.is_none() {
                                    // Steal from the back: the victim's front
                                    // stays cache-warm for its owner.
                                    let scan0 = Instant::now();
                                    for off in 1..queues.len() {
                                        let v = (wi + off) % queues.len();
                                        let stolen =
                                            queues[v].lock().expect("queue lock").pop_back();
                                        if stolen.is_some() {
                                            steals.fetch_add(1, Ordering::Relaxed);
                                            task = stolen;
                                            break;
                                        }
                                    }
                                    if let Some(p) = profiler {
                                        let us = scan0.elapsed().as_micros() as u64;
                                        p.observe("pool.steal", us, || {
                                            format!("worker {wi} steal scan")
                                        });
                                    }
                                }
                                match task {
                                    Some((i, item)) => {
                                        let t0 = Instant::now();
                                        out.push((i, f(i, item)));
                                        let us = t0.elapsed().as_micros() as u64;
                                        busy += us;
                                        if let Some(p) = profiler {
                                            p.observe("pool.task", us, || {
                                                format!("pool task {i} on worker {wi}")
                                            });
                                        }
                                    }
                                    None => break,
                                }
                            }
                            let wall = started.elapsed().as_micros() as u64;
                            (out, busy, wall.saturating_sub(busy))
                        })
                        .expect("spawn pool worker")
                })
                .collect();
            for h in handles {
                let (out, busy, idle) = h.join().expect("pool worker panicked");
                for (i, r) in out {
                    slots[i] = Some(r);
                }
                busy_idle.push((busy, idle));
            }
        });

        if let Some(obs) = &self.obs {
            let m = &obs.metrics;
            m.counter("ccp_pool_tasks_total", &[]).add(n as u64);
            m.counter("ccp_pool_steals_total", &[])
                .add(steals.load(Ordering::Relaxed));
            let busy_h = m.histogram("ccp_pool_busy_us", &[], obs::DURATION_US_BOUNDS);
            let idle_h = m.histogram("ccp_pool_idle_us", &[], obs::DURATION_US_BOUNDS);
            for (busy, idle) in &busy_idle {
                busy_h.record(*busy);
                idle_h.record(*idle);
            }
        }

        slots
            .into_iter()
            .map(|r| r.expect("every task produced a result"))
            .collect()
    }

    /// Explore `program`'s interleavings on the pool. Bit-for-bit
    /// identical to [`crate::check`] for the same program and config;
    /// `cfg.workers` overrides the pool width, and an effective width of
    /// 0 or 1 takes the serial path itself.
    pub fn check(&self, program: &Program, cfg: &CheckConfig) -> CheckReport {
        self.check_with_stats(program, cfg).0
    }

    /// [`Pool::check`] plus execution-cost counters, recorded into the
    /// attached telemetry domain (if any). The report is deterministic;
    /// the stats on the parallel path count work actually executed, which
    /// includes speculative shards the merge later discards.
    pub fn check_with_stats(
        &self,
        program: &Program,
        cfg: &CheckConfig,
    ) -> (CheckReport, CheckStats) {
        let workers = cfg.workers.unwrap_or(self.workers);
        let out = if workers <= 1 {
            explore::explore_with_stats(program, cfg)
        } else if workers == self.workers {
            self.check_parallel(program, cfg)
        } else {
            // Honor the per-config override with a transient pool of that
            // width, recording into the same telemetry domain.
            Pool {
                workers,
                obs: self.obs.clone(),
            }
            .check_parallel(program, cfg)
        };
        if let Some(obs) = &self.obs {
            let m = &obs.metrics;
            let s = &out.1;
            m.counter("ccp_vm_steps_total", &[]).add(s.vm_steps);
            m.counter("ccp_vm_replay_steps_saved_total", &[])
                .add(s.replay_steps_saved);
            m.counter("ccp_checker_snapshots_total", &[])
                .add(s.snapshots);
            m.counter("ccp_checker_dpor_backtracks_total", &[])
                .add(s.dpor_backtracks);
            m.counter("ccp_checker_dpor_pruned_siblings_total", &[])
                .add(s.dpor_pruned_siblings);
            m.counter("ccp_checker_dpor_bound_pruned_total", &[])
                .add(s.bound_pruned);
        }
        out
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl Pool {
    /// DFS shards + merge, then walk fan-out + merge (see module docs).
    ///
    /// The root branch is a *membership loop*, seeded by the same
    /// [`explore::Frame::open`] rule as every serial frame: full expansion
    /// commits every member up front; DPOR commits one and earns the rest
    /// from dependence scans inside explored subtrees. Shards record the
    /// root additions they earn ([`explore::UnitTrace::root_backtrack`]);
    /// the merge replays the exact membership evolution — pick the
    /// lowest-id committed member, consume its trace, union its additions,
    /// repeat — so the dealt shards reproduce serial's traversal order and
    /// budget arithmetic bit for bit. Shards get no first-failure
    /// cancellation: under DPOR the membership order is not the shard
    /// index order, so a later-indexed shard can be consumed before an
    /// earlier failing one.
    fn check_parallel(&self, program: &Program, cfg: &CheckConfig) -> (CheckReport, CheckStats) {
        let mut schedules = 0u64;
        let mut steps = 0u64;
        let mut complete = false;
        let mut within_bound = false;
        let mut failure: Option<(Verdict, Vec<usize>)> = None;
        let mut stats = CheckStats::default();

        let dfs_budget = explore::dfs_phase_budget(cfg);
        if dfs_budget > 0 {
            let (units, root_branched) = match (cfg.dfs_depth > 0)
                .then(|| explore::split_root(program, cfg))
                .flatten()
            {
                Some(children) => (children, true),
                None => (vec![explore::DfsUnit::root()], false),
            };
            // (dealt tid, preemption cost) per unit, for the merge.
            let meta: Vec<(usize, u32)> = units
                .iter()
                .map(|u| (u.path.first().copied().unwrap_or(0), u.preemptions))
                .collect();
            let over_bound = |cost: u32| cfg.preemption_bound.map(|b| cost > b).unwrap_or(false);
            let traces = self.map(units, |_, unit| {
                if over_bound(unit.preemptions) {
                    return None; // pruned at the root; never explored
                }
                Some(explore::run_dfs_unit(program, cfg, &unit, dfs_budget))
            });

            for trace in traces.iter().flatten() {
                let s = &trace.stats;
                stats.vm_steps += s.vm_steps;
                stats.replay_steps_saved += s.replay_steps_saved;
                stats.snapshots += s.snapshots;
                stats.dpor_backtracks += s.dpor_backtracks;
                stats.dpor_pruned_siblings += s.dpor_pruned_siblings;
                stats.bound_pruned += s.bound_pruned;
            }

            // Replay serial's root membership loop and budget arithmetic
            // over the traces (see method docs). An unsplit tree is one
            // unit, member 0 of a one-member root.
            let mut root = explore::Frame::open(cfg, meta.iter().map(|m| m.0).collect(), &[], 0);
            // Serial checks the budget before every schedule except the
            // very first when the root never branched (a single-path tree
            // spends its one schedule unchecked).
            let mut unchecked = !root_branched;
            let mut schedules_left = dfs_budget;
            let mut steps_left = cfg.max_steps;
            complete = true;
            within_bound = true;
            'merge: while let Some(t) = root.pick() {
                let ui = meta
                    .iter()
                    .position(|m| m.0 == t)
                    .expect("every root member is a dealt shard");
                if over_bound(meta[ui].1) {
                    // Bound-pruned at the root: serial skips it without a
                    // budget check and, under DPOR, enumerates the whole
                    // frame from here (see `explore_from`).
                    stats.bound_pruned += 1;
                    complete = false;
                    stats.dpor_backtracks += root.add_all();
                    continue;
                }
                let trace = traces[ui]
                    .as_ref()
                    .expect("only bound-pruned shards go unexplored");
                for entry in &trace.entries {
                    if !unchecked && (schedules_left == 0 || steps_left == 0) {
                        complete = false;
                        within_bound = false;
                        break 'merge;
                    }
                    unchecked = false;
                    schedules += 1;
                    steps += entry.steps;
                    schedules_left = schedules_left.saturating_sub(1);
                    steps_left = steps_left.saturating_sub(entry.steps);
                    if let Some(f) = &entry.failure {
                        failure = Some(f.clone());
                        break 'merge;
                    }
                }
                if (schedules_left == 0 || steps_left == 0) && trace.trailing_check {
                    complete = false;
                    within_bound = false;
                }
                complete &= trace.complete;
                within_bound &= trace.within_bound;
                for &q in &trace.root_backtrack {
                    root.add(q);
                }
            }
            // As in `explore_from`: full expansion prunes no sibling.
            if cfg.dpor && failure.is_none() {
                stats.dpor_pruned_siblings += root.unpicked();
            }
        }

        stats.dfs_schedules = schedules;
        if failure.is_none() && !complete {
            let walks = cfg.max_schedules.saturating_sub(schedules);
            let min_fail = AtomicUsize::new(usize::MAX);
            let results = self.map((0..walks).collect(), |i, index| {
                if i > min_fail.load(Ordering::Relaxed) {
                    return None;
                }
                let walk = explore::run_walk(program, cfg, index);
                if walk.failure.is_some() {
                    min_fail.fetch_min(i, Ordering::Relaxed);
                }
                Some(walk)
            });
            for walk in results.iter().flatten() {
                stats.vm_steps += walk.steps;
            }
            for walk in &results {
                if steps >= cfg.max_steps {
                    break;
                }
                let Some(walk) = walk else { break };
                schedules += 1;
                steps += walk.steps;
                if let Some(f) = &walk.failure {
                    failure = Some(f.clone());
                    break;
                }
            }
        }

        (
            explore::finish_report(
                program,
                cfg,
                schedules,
                steps,
                complete,
                within_bound,
                failure,
            ),
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_and_runs_everything() {
        let pool = Pool::new(4);
        let out = pool.map((0..100).collect(), |i, x: u64| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn map_with_single_worker_runs_inline() {
        let pool = Pool::new(1);
        let out = pool.map(vec![1u64, 2, 3], |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn default_workers_leaves_a_core() {
        let w = Pool::default_workers();
        assert!(w >= 1);
        if let Ok(n) = std::thread::available_parallelism() {
            assert!(w <= n.get());
        }
    }

    #[test]
    fn parallel_check_matches_serial_exactly() {
        let src = r#"
            var n = 0;
            fn w() { n = n + 1; }
            fn main() { var a = spawn w(); var b = spawn w(); join(a); join(b); }
        "#;
        let program = minilang::compile(src).unwrap();
        let cfg = CheckConfig::default();
        let serial = crate::check(&program, &cfg);
        for workers in [2, 4] {
            let pool = Pool::new(workers);
            assert_eq!(pool.check(&program, &cfg), serial, "{workers} workers");
        }
    }
}
