//! The exploration engine: a controlled scheduler driving [`minilang::Vm`]
//! one visible operation at a time, with one DFS (DPOR, or full expansion
//! as its unreduced oracle) pruned by sleep sets, random walks,
//! wait-for-graph deadlock detection and schedule minimization.

use crate::clocks::RaceDetector;
use crate::{CheckConfig, CheckReport, CheckStats, Strategy, Verdict};
use minilang::{
    OpKey, OpKind, OpObj, Program, RuntimeError, SchedPolicy, Vm, VmConfig, VmEvent, VmSnapshot,
    WaitTarget,
};
use rng::SplitMix64;

/// Why a single controlled execution stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Stop {
    /// Every thread ran to completion without incident.
    Finished,
    /// A failure to report (race / deadlock / livelock / runtime error).
    Failure(Verdict),
    /// Step or instruction budget ran out mid-schedule.
    Truncated,
}

/// One controlled execution of a program under an external scheduler.
pub(crate) struct Exec {
    vm: Vm,
    detector: RaceDetector,
    /// Thread ids chosen so far, one per visible step (the repro schedule).
    pub(crate) schedule: Vec<usize>,
    /// Visible steps taken.
    pub(crate) steps: u64,
    /// Visible steps *executed* over this Exec's lifetime. Monotone:
    /// unlike `steps`, a restore does not rewind it — the difference
    /// between accounted and executed steps is the snapshot path's win.
    pub(crate) work_steps: u64,
    /// Last step index at which the program visibly changed state
    /// (write / atomic / acquire / release / finish) — livelock heuristic.
    last_change: u64,
    max_steps: u64,
    livelock_window: u64,
    /// Reusable drain buffer: event draining swaps buffers instead of
    /// allocating a fresh `Vec` per visible step.
    ev_buf: Vec<VmEvent>,
}

/// Everything [`Exec::restore`] needs to rewind to a branch point: the VM
/// snapshot plus the checker-side mirrors that advance with it.
pub(crate) struct ExecSnapshot {
    vm: VmSnapshot,
    detector: RaceDetector,
    schedule_len: usize,
    steps: u64,
    last_change: u64,
}

impl Exec {
    pub(crate) fn new(program: &Program, cfg: &CheckConfig) -> Exec {
        let mut vm = Vm::new(
            program.clone(),
            VmConfig {
                seed: 0,
                quantum: 1,
                max_instructions: cfg.max_instructions,
                policy: SchedPolicy::RoundRobin,
            },
        );
        vm.set_recording(true);
        let mut ex = Exec {
            vm,
            detector: RaceDetector::new(),
            schedule: Vec::new(),
            steps: 0,
            work_steps: 0,
            last_change: 0,
            max_steps: cfg.steps_per_schedule,
            livelock_window: cfg.livelock_window,
            ev_buf: Vec::new(),
        };
        ex.normalize();
        ex
    }

    /// Capture the branch-point state. The detector travels with the VM:
    /// its clocks are as much "where we are" as the thread stacks.
    pub(crate) fn snapshot(&self) -> ExecSnapshot {
        ExecSnapshot {
            vm: self.vm.snapshot(),
            detector: self.detector.clone(),
            schedule_len: self.schedule.len(),
            steps: self.steps,
            last_change: self.last_change,
        }
    }

    /// Rewind to `snap` (restorable any number of times). `work_steps`
    /// deliberately keeps counting.
    pub(crate) fn restore(&mut self, snap: &ExecSnapshot) {
        self.vm.restore(&snap.vm);
        self.detector.clone_from(&snap.detector);
        self.schedule.truncate(snap.schedule_len);
        self.steps = snap.steps;
        self.last_change = snap.last_change;
    }

    /// Run every thread's *invisible* (thread-local) prefix so each enabled
    /// thread is parked exactly at its next visible operation. Invisible
    /// ops emit no events and commute with everything, so eager execution
    /// never hides an interleaving.
    fn normalize(&mut self) -> Option<Stop> {
        loop {
            let mut progressed = false;
            for tid in 0..self.vm.thread_count() {
                while self.vm.is_enabled(tid) && self.vm.next_op(tid).is_none() {
                    if let Err(e) = self.vm.step_thread(tid, 1) {
                        return Some(self.runtime_stop(e));
                    }
                    progressed = true;
                }
            }
            if !progressed {
                // Drain events from finish bookkeeping; invisible ops emit
                // none, but a thread finishing can unblock joiners.
                let mut buf = std::mem::take(&mut self.ev_buf);
                self.vm.drain_events_into(&mut buf);
                let mut found = None;
                for ev in &buf {
                    if let Some(race) = self.detector.observe(ev) {
                        found = Some(Stop::Failure(Verdict::race(&race)));
                        break;
                    }
                }
                self.ev_buf = buf;
                return found;
            }
        }
    }

    fn runtime_stop(&mut self, e: RuntimeError) -> Stop {
        match e {
            RuntimeError::BudgetExhausted { .. } => Stop::Truncated,
            RuntimeError::Deadlock { blocked } => Stop::Failure(Verdict::Deadlock {
                blocked,
                cycle: Vec::new(),
            }),
            other => Stop::Failure(Verdict::RuntimeError {
                error: other.to_string(),
            }),
        }
    }

    /// Threads that can take a visible step *right now* without blocking.
    pub(crate) fn enabled(&self) -> Vec<usize> {
        (0..self.vm.thread_count())
            .filter(|&t| self.vm.is_enabled(t) && !self.vm.op_would_block(t))
            .collect()
    }

    /// Peek thread `t`'s pending visible op (normalized threads always have
    /// one unless finished).
    pub(crate) fn pending_op(&self, t: usize) -> Option<OpKey> {
        self.vm.next_op(t)
    }

    /// Check for termination / global deadlock / livelock before choosing.
    /// `None` means the execution can continue.
    pub(crate) fn status(&mut self) -> Option<Stop> {
        if self.vm.all_finished() {
            return Some(Stop::Finished);
        }
        if self.steps >= self.max_steps {
            return Some(Stop::Truncated);
        }
        if self.enabled().is_empty() {
            if self.vm.advance_clock() {
                if let Some(stop) = self.normalize() {
                    return Some(stop);
                }
                return self.status();
            }
            // Nobody can move: threads in a Blocked state, plus runnable
            // threads parked one instruction before an op that would block
            // forever. Either way, global deadlock; name the cycle if the
            // mutex/join wait-for graph has one.
            let cycle = self.wait_cycle();
            return Some(Stop::Failure(Verdict::Deadlock {
                blocked: self.blocked_lines(),
                cycle,
            }));
        }
        if self.steps.saturating_sub(self.last_change) >= self.livelock_window {
            let spinning = self.vm.enabled_threads();
            return Some(Stop::Failure(Verdict::Livelock { spinning }));
        }
        None
    }

    /// One line per unfinished waiting thread, covering both truly blocked
    /// threads and runnable ones parked at an op that would block.
    fn blocked_lines(&self) -> Vec<String> {
        (0..self.vm.thread_count())
            .filter(|&t| !self.vm.thread_finished(t))
            .filter_map(|t| {
                self.vm
                    .wait_target(t)
                    .map(|w| format!("t{t} waiting on {w:?}"))
            })
            .collect()
    }

    /// Wait-for graph cycle via precise edges only: a thread waiting on a
    /// mutex waits for its owner; a joiner waits for its target. (Semaphore
    /// and channel waits have no single "holder", so they contribute no
    /// edge — a cycle through them still surfaces as a global deadlock with
    /// an empty cycle list.)
    fn wait_cycle(&self) -> Vec<usize> {
        let n = self.vm.thread_count();
        let edge: Vec<Option<usize>> = (0..n)
            .map(|t| match self.vm.wait_target(t) {
                Some(WaitTarget::Mutex(m)) => self.vm.mutex_owner(m).filter(|&o| o != t),
                Some(WaitTarget::Join(u)) if !self.vm.thread_finished(u) => Some(u),
                _ => None,
            })
            .collect();
        for start in 0..n {
            let mut seen = vec![false; n];
            let mut t = start;
            while let Some(next) = edge[t] {
                if next == start {
                    let mut cycle = vec![start];
                    let mut c = edge[start];
                    while let Some(x) = c {
                        if x == start {
                            break;
                        }
                        cycle.push(x);
                        c = edge[x];
                    }
                    return cycle;
                }
                if seen[next] {
                    break;
                }
                seen[next] = true;
                t = next;
            }
        }
        Vec::new()
    }

    /// Thread `t`'s current FastTrack epoch (its own clock component):
    /// the happens-before stamp its next visible step will carry.
    pub(crate) fn epoch_of(&self, t: usize) -> u64 {
        self.detector.epoch(t)
    }

    /// Component `q` of thread `p`'s clock: a past step by `q` at epoch
    /// `e` happens-before `p`'s next step iff `clock_component(p, q) >= e`.
    pub(crate) fn clock_component(&self, p: usize, q: usize) -> u64 {
        self.detector.clock_component(p, q)
    }

    /// Take one visible step of thread `tid`, then re-normalize. The caller
    /// must have verified `tid` is in [`Exec::enabled`].
    pub(crate) fn step(&mut self, tid: usize) -> Option<Stop> {
        self.schedule.push(tid);
        self.steps += 1;
        self.work_steps += 1;
        if let Err(e) = self.vm.step_thread(tid, 1) {
            return Some(self.runtime_stop(e));
        }
        let mut buf = std::mem::take(&mut self.ev_buf);
        self.vm.drain_events_into(&mut buf);
        let mut found = None;
        for ev in &buf {
            use minilang::VmEvent::*;
            match ev {
                Write { .. }
                | AtomicRw { .. }
                | LockAcq { .. }
                | LockRel { .. }
                | SemAcq { .. }
                | SemRel { .. }
                | ChanSend { .. }
                | ChanRecv { .. }
                | Spawned { .. }
                | Joined { .. }
                | CondRelease { .. }
                | CondAcquire { .. }
                | CondNotify { .. } => self.last_change = self.steps,
                Read { .. } => {}
            }
            if let Some(race) = self.detector.observe(ev) {
                found = Some(Stop::Failure(Verdict::race(&race)));
                break;
            }
        }
        self.ev_buf = buf;
        if found.is_some() {
            return found;
        }
        if self.vm.thread_finished(tid) {
            self.last_change = self.steps;
        }
        self.normalize()
    }
}

/// Replay a previously reported repro `schedule` from scratch. Entries
/// naming threads that are not currently enabled are skipped (the schedule
/// is a guide, not a transcript); once the schedule is exhausted the
/// remaining threads run round-robin to completion.
pub(crate) fn run_schedule(program: &Program, cfg: &CheckConfig, schedule: &[usize]) -> Stop {
    let mut ex = Exec::new(program, cfg);
    let mut i = 0;
    loop {
        if let Some(stop) = ex.status() {
            return stop;
        }
        let en = ex.enabled();
        let tid = loop {
            match schedule.get(i) {
                Some(&t) => {
                    i += 1;
                    if en.contains(&t) {
                        break t;
                    }
                }
                None => break en[0], // schedule done: finish round-robin
            }
        };
        if let Some(stop) = ex.step(tid) {
            return stop;
        }
    }
}

struct Budget {
    schedules_left: u64,
    steps_left: u64,
}

impl Budget {
    fn spend(&mut self, ex: &Exec) {
        self.schedules_left = self.schedules_left.saturating_sub(1);
        self.steps_left = self.steps_left.saturating_sub(ex.steps);
    }
    fn empty(&self) -> bool {
        self.schedules_left == 0 || self.steps_left == 0
    }
}

struct DfsOutcome {
    failure: Option<(Verdict, Vec<usize>)>,
    /// True if the subtree was fully explored within budget/depth.
    complete: bool,
    /// True if nothing was lost to budget truncation or the depth-cap
    /// fallback — children skipped *by the preemption bound* still count
    /// as covered. Equals `complete` when no bound prunes anything.
    within_bound: bool,
}

/// One schedule spent by DFS, in traversal order. Parallel workers record
/// these so the coordinator can replay the serial budget arithmetic over
/// them and land on a bit-for-bit identical report (see `crate::pool`).
#[derive(Debug, Clone)]
pub(crate) struct SchedEntry {
    /// Visible steps this schedule took.
    pub(crate) steps: u64,
    /// The failure it stopped on, with its repro schedule.
    pub(crate) failure: Option<(Verdict, Vec<usize>)>,
}

/// Where an executed step on the current DFS path came from — the target
/// DPOR backtrack insertions resolve against.
#[derive(Debug, Clone, Copy)]
enum StepOrigin {
    /// The only choice at its state (or a prefix step a worker replayed):
    /// nothing to backtrack to.
    Forced,
    /// Child of the live branch frame at this index in `Dfs::frames`.
    Frame(usize),
    /// The dealt root-branch choice of a parallel shard. Insertions here
    /// are recorded into `Dfs::unit_backtrack` for the coordinator, which
    /// owns the root frame (see `crate::pool`).
    UnitRoot,
}

/// One executed visible step on the current DFS path, with the
/// happens-before stamp DPOR's dependence scan tests against.
#[derive(Debug, Clone)]
struct PathStep {
    tid: usize,
    op: OpKey,
    /// `tid`'s own clock component when the step ran (pre-step). A later
    /// pending op of thread `p` is ordered after this step iff `p`'s
    /// clock component for `tid` has reached this value.
    epoch: u64,
    origin: StepOrigin,
}

/// A live branch point: the enabled candidates and which of them the
/// search has committed to explore. Under DPOR children are *earned*, not
/// enumerated: the frame starts with one member and grows when a later
/// pending op is found dependent on (and unordered with) one of its
/// children's steps. Full expansion commits every member when the frame
/// opens (see [`Frame::open`]).
#[derive(Debug)]
pub(crate) struct Frame {
    /// Enabled threads with pending ops at the branch state, ascending.
    enabled: Vec<usize>,
    /// Members committed for exploration (insertion order; picks are by
    /// ascending thread id so exploration order is canonical).
    backtrack: Vec<usize>,
    /// Members already picked (explored or bound-pruned).
    done: Vec<usize>,
    /// `Dfs::path_log` length at the branch state; restores truncate to it.
    path_len: usize,
}

impl Frame {
    /// Open a frame over `members` with its seed committed — the one seed
    /// rule, shared by the frame loop and `crate::pool`'s root merge. Full
    /// expansion (`!cfg.dpor`) commits every member up front: nothing is
    /// earned, so the search is the unreduced sleep-set DFS. DPOR commits
    /// the lowest-id member that is not in `sleep` and earns the rest;
    /// none when every member sleeps, since explored sibling subtrees
    /// already cover the frame.
    pub(crate) fn open(
        cfg: &CheckConfig,
        members: Vec<usize>,
        sleep: &[(usize, OpKey)],
        path_len: usize,
    ) -> Frame {
        let backtrack = if cfg.dpor {
            let awake = members
                .iter()
                .copied()
                .find(|&t| !sleep.iter().any(|&(st, _)| st == t));
            awake.into_iter().collect()
        } else {
            members.clone()
        };
        Frame {
            enabled: members,
            backtrack,
            done: Vec::new(),
            path_len,
        }
    }

    /// Add `t` unless already committed; true if it was new.
    pub(crate) fn add(&mut self, t: usize) -> bool {
        if self.backtrack.contains(&t) || self.done.contains(&t) {
            return false;
        }
        self.backtrack.push(t);
        true
    }

    /// Commit every member (a conservative insertion); returns how many
    /// were new.
    pub(crate) fn add_all(&mut self) -> u64 {
        let mut added = 0;
        for i in 0..self.enabled.len() {
            added += u64::from(self.add(self.enabled[i]));
        }
        added
    }

    /// Pick the next member to explore — the lowest-id committed thread not
    /// yet picked — and mark it picked.
    pub(crate) fn pick(&mut self) -> Option<usize> {
        let t = self
            .backtrack
            .iter()
            .copied()
            .filter(|t| !self.done.contains(t))
            .min()?;
        self.done.push(t);
        Some(t)
    }

    /// Members never picked, which DPOR reports as pruned siblings.
    pub(crate) fn unpicked(&self) -> u64 {
        (self.enabled.len() - self.done.len()) as u64
    }
}

/// Cap on how many *candidate* entries one dependence scan may examine.
/// Scans walk per-object conflict lists (see [`ConflictIndex`]), so they
/// normally examine a handful of entries regardless of path length; a
/// pathological scan that exceeds the cap gives up the exhaustiveness
/// claim (never soundness — verdicts are unaffected, only
/// `complete`/`exhaustive_within_bound` drop to false).
const DPOR_SCAN_CAP: usize = 4096;

/// Per-object index over `Dfs::path_log`: for each shared object the
/// ascending path indexes of logged steps touching it, plus the
/// always-conflicting (`Opaque`/`Io`) steps. The dependence scan walks one
/// object's list instead of the whole path, so deep schedules (thousands
/// of visible steps) stay scannable without an O(path²) blowup.
#[derive(Debug, Default)]
struct ConflictIndex {
    by_obj: std::collections::HashMap<OpObj, Vec<usize>>,
    /// `Opaque`/`Io` steps: dependent with every operation.
    wildcard: Vec<usize>,
}

impl ConflictIndex {
    /// Index path step `i` (must be pushed in path order).
    fn push(&mut self, i: usize, op: &OpKey) {
        if matches!(op.kind, OpKind::Opaque | OpKind::Io) {
            self.wildcard.push(i);
        } else if op.obj != OpObj::None {
            self.by_obj.entry(op.obj).or_default().push(i);
        }
        // `OpObj::None` with a benign kind (spawn/yield) commutes with
        // everything except the wildcard kinds: never a candidate.
    }

    /// Drop every indexed step at path position `len` or later (mirror of
    /// `path_log.truncate(len)` on a branch restore).
    fn truncate(&mut self, len: usize) {
        while self.wildcard.last().is_some_and(|&i| i >= len) {
            self.wildcard.pop();
        }
        for list in self.by_obj.values_mut() {
            while list.last().is_some_and(|&i| i >= len) {
                list.pop();
            }
        }
    }
}

/// Bounded DFS with sleep sets: one frame loop ([`Dfs::explore_from`]) in
/// one of two modes, which differ only in how a frame's backtrack set
/// fills and where explored members sleep:
///
/// * **DPOR** (`cfg.dpor`, the default): a frame opens with one member and
///   earns the rest from dependence scans.
/// * **Full expansion**: a frame commits every member when it opens and
///   skips the scans — the unreduced search DPOR is checked against.
///
/// It runs one [`Exec`] per entry path: each branch point takes an
/// [`ExecSnapshot`] and siblings restore it, so the shared prefix executes
/// once.
struct Dfs<'a> {
    program: &'a Program,
    cfg: &'a CheckConfig,
    budget: Budget,
    schedules: u64,
    steps: u64,
    /// When recording (parallel workers), every spend appends here.
    trace: Vec<SchedEntry>,
    record: bool,
    /// Whether a budget check site ran since the last spend. The merge
    /// needs this to reproduce serial's `complete = false` when the budget
    /// dies exactly on a shard's final schedule: serial would still reach
    /// one more check and notice, even though no further schedule runs.
    checked_since_spend: bool,
    /// Execution-cost counters surfaced through `check_with_stats`.
    stats: CheckStats,
    /// Every visible step on the current path, in order, for DPOR's
    /// dependence scans.
    path_log: Vec<PathStep>,
    /// Per-object index over `path_log` for the dependence scan.
    conflicts: ConflictIndex,
    /// Live branch frames, root-to-leaf.
    frames: Vec<Frame>,
    /// Parallel shards: the root-branch member set this unit's dealt
    /// choice was drawn from (`None` when this Dfs owns the whole tree and
    /// keeps the root as a real frame).
    unit_root_enabled: Option<Vec<usize>>,
    /// DPOR, parallel shards: root-frame backtrack additions earned while
    /// exploring this shard, for the coordinator's membership loop.
    unit_backtrack: std::collections::BTreeSet<usize>,
    /// A dependence scan hit [`DPOR_SCAN_CAP`]: exhaustiveness is forfeit.
    scan_capped: bool,
}

impl<'a> Dfs<'a> {
    fn new(program: &'a Program, cfg: &'a CheckConfig, schedules_left: u64, record: bool) -> Self {
        Dfs {
            program,
            cfg,
            budget: Budget {
                schedules_left,
                steps_left: cfg.max_steps,
            },
            schedules: 0,
            steps: 0,
            trace: Vec::new(),
            record,
            checked_since_spend: false,
            stats: CheckStats::default(),
            path_log: Vec::new(),
            conflicts: ConflictIndex::default(),
            frames: Vec::new(),
            unit_root_enabled: None,
            unit_backtrack: std::collections::BTreeSet::new(),
            scan_capped: false,
        }
    }

    /// Account a Stop: turn it into the outcome the owning frame returns,
    /// spending the schedule.
    fn stop_outcome(&mut self, ex: &Exec, stop: Stop) -> DfsOutcome {
        let complete = !matches!(stop, Stop::Truncated);
        let failure = match stop {
            Stop::Failure(v) => Some((v, ex.schedule.clone())),
            _ => None,
        };
        self.spend(ex, &failure);
        DfsOutcome {
            failure,
            complete,
            within_bound: complete,
        }
    }

    /// Explore all schedules extending `path` (a dealt shard's root-branch
    /// choice, or nothing for a whole-tree run): replay it on a fresh Exec,
    /// logging each step so deeper dependence scans can see the prefix,
    /// then hand off to the frame loop with the dealt `sleep` set (already
    /// filtered against the dealt choice, see [`split_root`]).
    /// `preemptions` is the preemptive-switch count the path itself has
    /// already paid (nonzero only for dealt shards).
    ///
    /// Prefix states are not scanned: every step behind them is forced or
    /// covered by the root deal, so insertions would be no-ops — except
    /// against the dealt choice itself, whose frame the coordinator owns
    /// (origin [`StepOrigin::UnitRoot`]).
    fn explore_path(
        &mut self,
        path: &[usize],
        sleep: Vec<(usize, OpKey)>,
        depth: u32,
        preemptions: u32,
    ) -> DfsOutcome {
        let mut ex = Exec::new(self.program, self.cfg);
        let mut i = 0;
        let mut early = None;
        while i < path.len() {
            if let Some(stop) = ex.status() {
                early = Some(self.stop_outcome(&ex, stop));
                break;
            }
            let en = ex.enabled();
            let (tid, origin) = if en.len() == 1 {
                (en[0], StepOrigin::Forced)
            } else {
                let t = path[i];
                i += 1;
                let origin = if i == path.len() {
                    StepOrigin::UnitRoot
                } else {
                    StepOrigin::Forced
                };
                (t, origin)
            };
            if let Some(stop) = self.step_logged(&mut ex, tid, origin) {
                early = Some(self.stop_outcome(&ex, stop));
                break;
            }
        }
        let mut out = match early {
            Some(o) => o,
            None => self.explore_from(&mut ex, sleep, depth, preemptions),
        };
        self.stats.vm_steps += ex.work_steps;
        if self.scan_capped {
            out.complete = false;
            out.within_bound = false;
        }
        out
    }

    /// Account one finished/pruned/failed schedule — the single place all
    /// budget spending goes through, so worker traces cannot drift from
    /// the serial accounting.
    fn spend(&mut self, ex: &Exec, failure: &Option<(Verdict, Vec<usize>)>) {
        self.schedules += 1;
        self.steps += ex.steps;
        self.budget.spend(ex);
        if self.record {
            self.trace.push(SchedEntry {
                steps: ex.steps,
                failure: failure.clone(),
            });
        }
        self.checked_since_spend = false;
    }

    /// Take one visible step, logging it on the DPOR path with its
    /// happens-before stamp so later dependence scans can test against it.
    fn step_logged(&mut self, ex: &mut Exec, tid: usize, origin: StepOrigin) -> Option<Stop> {
        if let Some(op) = ex.pending_op(tid) {
            self.conflicts.push(self.path_log.len(), &op);
            self.path_log.push(PathStep {
                tid,
                op,
                epoch: ex.epoch_of(tid),
                origin,
            });
        }
        ex.step(tid)
    }

    /// The DPOR dependence scan, run once per state on the path: for each
    /// thread's pending op — *including blocked threads*: a blocked
    /// `lock(m)` is dependent on the earlier `lock(m)` whose critical
    /// section it must be reordered before — find the most recent executed
    /// step by another thread that conflicts with it and is not already
    /// happens-ordered before it. Such a pair is reorderable, so the
    /// earlier step's branch must also try the pending op's thread — that
    /// is the backtrack insertion that *earns* DFS children instead of
    /// enumerating them. Full expansion commits every member up front, so
    /// it has nothing to earn and skips the scan.
    fn dpor_update(&mut self, ex: &Exec) {
        if !self.cfg.dpor {
            return;
        }
        for p in 0..ex.vm.thread_count() {
            let Some(op_p) = ex.pending_op(p) else {
                continue;
            };
            let Some(i) = self.newest_conflict(p, &op_p) else {
                continue;
            };
            let s = &self.path_log[i];
            if ex.clock_component(p, s.tid) >= s.epoch {
                // Ordered after its newest conflict by synchronization: the
                // pair is not reorderable, and (Flanagan–Godefroid) earlier
                // conflicts need no insertion here — if reordering past
                // them matters, the subtree that reorders *this* pair will
                // see them as its own newest conflict.
                continue;
            }
            self.add_backtrack(i, p);
        }
    }

    /// The newest logged step by another thread that conflicts with `op_p`
    /// — the single candidate Flanagan–Godefroid's insertion rule tests.
    /// Walks the per-object and wildcard conflict lists from their tails,
    /// skipping own-thread and read/read entries, and returns the newer of
    /// the two survivors.
    fn newest_conflict(&mut self, p: usize, op_p: &OpKey) -> Option<usize> {
        let mut scanned = 0usize;
        let mut capped = false;
        // A wildcard pending op conflicts with every logged step: its
        // newest conflict is simply the newest step by another thread.
        if matches!(op_p.kind, OpKind::Opaque | OpKind::Io) {
            for i in (0..self.path_log.len()).rev() {
                scanned += 1;
                if scanned > DPOR_SCAN_CAP {
                    self.scan_capped = true;
                    return None;
                }
                if self.path_log[i].tid != p {
                    return Some(i);
                }
            }
            return None;
        }
        let same_obj: &[usize] = match op_p.obj {
            OpObj::None => &[], // benign no-object op: only wildcards conflict
            obj => self.conflicts.by_obj.get(&obj).map_or(&[], Vec::as_slice),
        };
        let mut best: Option<usize> = None;
        'list: for list in [same_obj, self.conflicts.wildcard.as_slice()] {
            for &i in list.iter().rev() {
                scanned += 1;
                if scanned > DPOR_SCAN_CAP {
                    capped = true;
                    break 'list;
                }
                let s = &self.path_log[i];
                if s.tid == p || (s.op.kind == OpKind::Read && op_p.kind == OpKind::Read) {
                    continue; // own step, or same-object read/read: commutes
                }
                best = Some(best.map_or(i, |b| b.max(i)));
                break;
            }
        }
        if capped {
            self.scan_capped = true;
        }
        best
    }

    /// Register thread `p` at the branch owning path step `i`
    /// (Flanagan–Godefroid insertion). Under a preemption bound the
    /// insertion is conservative — the whole enabled set — because bound
    /// pruning can cut the single representative DPOR would otherwise
    /// rely on (Coons et al.'s bounded-search correction).
    fn add_backtrack(&mut self, i: usize, p: usize) {
        let conservative = self.cfg.preemption_bound.is_some();
        match self.path_log[i].origin {
            StepOrigin::Forced => {} // sole choice at its state: nothing to add
            StepOrigin::Frame(fi) => {
                let f = &mut self.frames[fi];
                if !conservative && f.enabled.contains(&p) {
                    if f.add(p) {
                        self.stats.dpor_backtracks += 1;
                    }
                } else {
                    self.stats.dpor_backtracks += f.add_all();
                }
            }
            StepOrigin::UnitRoot => {
                let root = self.unit_root_enabled.clone().unwrap_or_default();
                if !conservative && root.contains(&p) {
                    if self.unit_backtrack.insert(p) {
                        self.stats.dpor_backtracks += 1;
                    }
                } else {
                    for q in root {
                        if self.unit_backtrack.insert(q) {
                            self.stats.dpor_backtracks += 1;
                        }
                    }
                }
            }
        }
    }

    /// The frame loop: advance through forced states (scanning each), then
    /// open a branch frame ([`Frame::open`]) and explore members, lowest id
    /// first, as the backtrack set grows. The membership evolution (seed
    /// per [`Frame::open`], picks by ascending id, additions unioned after
    /// each child) is exactly what `crate::pool`'s coordinator replays over
    /// dealt shards at the root.
    ///
    /// Backtrack sets compose with classic sleep sets (Godefroid): an
    /// explored member is put to sleep for its later siblings, whose
    /// subtrees skip it until a dependent op wakes it. Without this the
    /// backtrack sets alone re-explore interleavings full expansion
    /// prunes, and "DPOR ≤ DFS schedules" fails on lock-heavy programs.
    /// Full expansion puts explored members to sleep at every frame. DPOR
    /// makes two deliberate exceptions that keep the composition sound:
    ///
    /// - The tree's *root* frame never propagates sibling sleep. Dealt
    ///   shards (`crate::pool`) run speculatively before the membership
    ///   order is known, so their inherited sleep must not depend on it;
    ///   serial skips the same pushes to stay bit-identical.
    /// - Under a preemption bound, no frame propagates sleep. A slept
    ///   member's behaviors are only covered by an earlier sibling's
    ///   subtree *as explored*, and bound pruning may have cut exactly the
    ///   representative the sleep prune relies on — the bounded search
    ///   keeps only the conservative whole-frame insertions (Coons et
    ///   al.) and forgoes sleep reduction.
    ///
    /// `sleep` maps a thread id to the op it had when put to sleep; entries
    /// are valid at the node this frame owns and are filtered against
    /// every op this frame executes beyond that point.
    fn explore_from(
        &mut self,
        ex: &mut Exec,
        mut sleep: Vec<(usize, OpKey)>,
        depth: u32,
        preemptions: u32,
    ) -> DfsOutcome {
        let en = loop {
            if let Some(stop) = ex.status() {
                return self.stop_outcome(ex, stop);
            }
            let en = ex.enabled();
            self.dpor_update(ex);
            if en.len() > 1 {
                break en;
            }
            let t = en[0];
            // If the lone enabled thread is asleep on this frame's own
            // segment, the continuation is equivalent to an explored one.
            if sleep.iter().any(|&(st, _)| st == t) {
                self.spend(ex, &None);
                return DfsOutcome {
                    failure: None,
                    complete: true,
                    within_bound: true,
                };
            }
            match ex.pending_op(t) {
                Some(op) => sleep.retain(|(_, sop)| sop.commutes_with(&op)),
                None => sleep.clear(),
            }
            if let Some(stop) = self.step_logged(ex, t, StepOrigin::Forced) {
                return self.stop_outcome(ex, stop);
            }
        };

        if depth >= self.cfg.dfs_depth {
            return self.finish_one(ex, en[0]);
        }

        let members: Vec<usize> = en
            .iter()
            .copied()
            .filter(|&t| ex.pending_op(t).is_some())
            .collect();
        let frame = Frame::open(self.cfg, members, &sleep, self.path_log.len());
        if frame.backtrack.is_empty() {
            return DfsOutcome {
                failure: None,
                complete: true,
                within_bound: true,
            };
        }
        // See the method docs for where explored members sleep.
        let propagate_sleep = !self.cfg.dpor
            || (self.cfg.preemption_bound.is_none()
                && !(self.frames.is_empty() && self.unit_root_enabled.is_none()));
        let last = ex.schedule.last().copied();
        let fi = self.frames.len();
        self.frames.push(frame);
        let snap = ex.snapshot();
        self.stats.snapshots += 1;
        let prefix_steps = ex.steps;
        let mut dirty = false;
        let mut complete = true;
        let mut within = true;
        while let Some(t) = self.frames[fi].pick() {
            let cost = preempt_cost(last, t, &en);
            if let Some(b) = self.cfg.preemption_bound {
                if preemptions + cost > b {
                    // Outside the bound by design: not counted against
                    // `within_bound`, never put to sleep (it was not
                    // explored, so nothing may prune against it), and no
                    // budget check (serial and merge agree on that). Any
                    // behavior it alone represented may have ≤-bound
                    // representatives through siblings, so DPOR stops
                    // trusting the reduction here: enumerate the whole frame.
                    self.stats.bound_pruned += 1;
                    complete = false;
                    self.stats.dpor_backtracks += self.frames[fi].add_all();
                    continue;
                }
            }
            self.checked_since_spend = true;
            if self.budget.empty() {
                complete = false;
                within = false;
                break;
            }
            // Asleep: an equivalent schedule was already explored. (Under
            // DPOR a backtrack insertion can name a thread the inherited
            // sleep set covers.)
            if sleep.iter().any(|&(st, _)| st == t) {
                continue;
            }
            if dirty {
                ex.restore(&snap);
                self.path_log.truncate(self.frames[fi].path_len);
                self.conflicts.truncate(self.frames[fi].path_len);
            }
            let op_t = ex.pending_op(t).expect("frame members have pending ops");
            // The child wakes any sleeper whose op conflicts with `op_t`.
            let child_sleep: Vec<(usize, OpKey)> = sleep
                .iter()
                .copied()
                .filter(|(_, sop)| sop.commutes_with(&op_t))
                .collect();
            // Without the snapshot this child would re-execute the prefix
            // from the root; the restore above replaced exactly that work.
            self.stats.replay_steps_saved += prefix_steps;
            dirty = true;
            let out = if let Some(stop) = self.step_logged(ex, t, StepOrigin::Frame(fi)) {
                self.stop_outcome(ex, stop)
            } else {
                self.explore_from(ex, child_sleep, depth + 1, preemptions + cost)
            };
            if out.failure.is_some() {
                self.frames.truncate(fi);
                return out;
            }
            complete &= out.complete;
            within &= out.within_bound;
            if propagate_sleep {
                sleep.push((t, op_t));
            }
        }
        let f = self.frames.pop().expect("frame pushed above");
        // Full expansion prunes no sibling: members it leaves unpicked
        // were cut by the budget.
        if self.cfg.dpor {
            self.stats.dpor_pruned_siblings += f.unpicked();
        }
        DfsOutcome {
            failure: None,
            complete,
            within_bound: within,
        }
    }

    /// Too deep to open more frames: run `ex` to a stop taking `first`
    /// now, then rotating round-robin through the enabled threads — fair
    /// rotation keeps a busy-wait spinner from monopolizing the tail and
    /// masking cross-thread bugs. DPOR keeps logging and scanning the tail:
    /// conflicts found past the cap still insert into the frames open above
    /// it, which is what lets programs with long branchy tails earn their
    /// reorderings instead of silently losing them.
    fn finish_one(&mut self, ex: &mut Exec, first: usize) -> DfsOutcome {
        let mut next = Some(first);
        let mut cursor = 0usize;
        let stop = loop {
            if let Some(stop) = ex.status() {
                break stop;
            }
            self.dpor_update(ex);
            let tid = next.take().unwrap_or_else(|| {
                let en = ex.enabled();
                let t = en[cursor % en.len()];
                cursor += 1;
                t
            });
            if let Some(stop) = self.step_logged(ex, tid, StepOrigin::Forced) {
                break stop;
            }
        };
        let failure = match stop {
            Stop::Failure(v) => Some((v, ex.schedule.clone())),
            _ => None,
        };
        self.spend(ex, &failure);
        DfsOutcome {
            failure,
            complete: false,
            within_bound: false,
        }
    }
}

/// The CHESS preemption cost of scheduling `t` at a branch: switching away
/// from the thread that took the last step while it is still enabled is a
/// preemption; continuing it, or switching after it blocked/finished
/// (a forced yield), is free.
fn preempt_cost(last: Option<usize>, t: usize, enabled: &[usize]) -> u32 {
    match last {
        Some(l) if l != t && enabled.contains(&l) => 1,
        _ => 0,
    }
}

/// One uniform random walk; returns (stop, schedule, steps).
fn random_walk(
    program: &Program,
    cfg: &CheckConfig,
    rng: &mut SplitMix64,
) -> (Stop, Vec<usize>, u64) {
    let mut ex = Exec::new(program, cfg);
    let stop = loop {
        if let Some(stop) = ex.status() {
            break stop;
        }
        let en = ex.enabled();
        let tid = en[rng.gen_range(0..en.len())];
        if let Some(stop) = ex.step(tid) {
            break stop;
        }
    };
    let steps = ex.steps;
    (stop, ex.schedule, steps)
}

/// Greedy ddmin-lite: try dropping chunks of the schedule while the replay
/// still reaches an equivalent failure. Budget-capped by replay count.
fn minimize(
    program: &Program,
    cfg: &CheckConfig,
    verdict: &Verdict,
    schedule: Vec<usize>,
) -> Vec<usize> {
    let mut best = schedule;
    let mut replays = cfg.minimize_replays;
    let mut chunk = (best.len() / 4).max(1);
    while chunk >= 1 && replays > 0 {
        let mut i = 0;
        let mut shrunk = false;
        while i < best.len() && replays > 0 {
            let mut candidate = best.clone();
            candidate.drain(i..(i + chunk).min(candidate.len()));
            if candidate.is_empty() {
                // Keep at least one entry: an empty repro would be
                // indistinguishable from "no repro" for API consumers.
                i += chunk;
                continue;
            }
            replays -= 1;
            if let Stop::Failure(v) = run_schedule(program, cfg, &candidate) {
                if v.same_failure(verdict) {
                    best = candidate;
                    shrunk = true;
                    continue; // same i now names the next chunk
                }
            }
            i += chunk;
        }
        if !shrunk {
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
    }
    best
}

/// The schedule budget handed to the DFS phase under `cfg.strategy`.
/// Under DPOR, Hybrid gives DFS the whole budget: the reduction makes
/// systematic coverage cheap enough that reserving most of the budget for
/// walks would waste the exhaustiveness proof. Walks still run on
/// whatever is left whenever DFS returns incomplete.
pub(crate) fn dfs_phase_budget(cfg: &CheckConfig) -> u64 {
    match cfg.strategy {
        Strategy::Dfs => cfg.max_schedules,
        Strategy::RandomWalk => 0,
        Strategy::Hybrid if cfg.dpor => cfg.max_schedules,
        Strategy::Hybrid => cfg.max_schedules / 4,
    }
}

/// Minimize (if configured) and package totals into the final report —
/// shared by the serial and parallel paths so the tail behaviour cannot
/// diverge between them.
pub(crate) fn finish_report(
    program: &Program,
    cfg: &CheckConfig,
    schedules: u64,
    steps: u64,
    complete: bool,
    within_bound: bool,
    failure: Option<(Verdict, Vec<usize>)>,
) -> CheckReport {
    match failure {
        Some((verdict, sched)) => {
            let repro = if cfg.minimize {
                minimize(program, cfg, &verdict, sched)
            } else {
                sched
            };
            CheckReport {
                verdict,
                schedules,
                steps,
                complete: false,
                exhaustive_within_bound: false,
                repro: Some(repro),
            }
        }
        None => CheckReport {
            verdict: Verdict::Clean,
            schedules,
            steps,
            complete,
            exhaustive_within_bound: within_bound,
            repro: None,
        },
    }
}

/// Full exploration per `cfg.strategy`; the engine behind [`crate::check`].
pub(crate) fn explore(program: &Program, cfg: &CheckConfig) -> CheckReport {
    explore_with_stats(program, cfg).0
}

/// Stack reservation for exploration threads. The frame loop recurses one
/// stack frame per branch frame, and deep programs (a lab-sized loop body
/// is thousands of visible steps, each a branch state when two threads are
/// runnable) overflow the 2 MiB thread default and even the 8 MiB main
/// default. Virtual reservation only — pages commit on use.
pub(crate) const EXPLORE_STACK_BYTES: usize = 256 << 20;

/// Run `f` on a thread with [`EXPLORE_STACK_BYTES`] of stack (the serial
/// check path cannot assume the caller's stack is big enough).
fn on_explore_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(EXPLORE_STACK_BYTES)
            .spawn_scoped(s, f)
            .expect("spawn exploration thread")
            .join()
            .expect("exploration thread panicked")
    })
}

/// [`explore`] plus execution-cost counters. The stats cover the DFS and
/// walk phases (not minimization replays); they are a measurement
/// side-channel and never influence the report.
pub(crate) fn explore_with_stats(
    program: &Program,
    cfg: &CheckConfig,
) -> (CheckReport, CheckStats) {
    let mut schedules = 0u64;
    let mut steps = 0u64;
    let mut complete = false;
    let mut within_bound = false;
    let mut failure: Option<(Verdict, Vec<usize>)> = None;
    let mut stats = CheckStats::default();

    let dfs_budget = dfs_phase_budget(cfg);
    if dfs_budget > 0 {
        let mut dfs = Dfs::new(program, cfg, dfs_budget, false);
        let out = on_explore_stack(|| dfs.explore_path(&[], Vec::new(), 0, 0));
        schedules += dfs.schedules;
        steps += dfs.steps;
        complete = out.complete;
        within_bound = out.within_bound;
        failure = out.failure;
        stats = dfs.stats;
        stats.dfs_schedules = schedules;
    }

    if failure.is_none() && !complete {
        let walks = cfg.max_schedules.saturating_sub(schedules);
        for i in 0..walks {
            if steps >= cfg.max_steps {
                break;
            }
            let w = run_walk(program, cfg, i);
            schedules += 1;
            steps += w.steps;
            stats.vm_steps += w.steps;
            if let Some(f) = w.failure {
                failure = Some(f);
                break;
            }
        }
    }

    (
        finish_report(
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

// ---- parallel frontier support (consumed by `crate::pool`) -----------------

/// A shard of the DFS frontier: one root-branch child together with the
/// sleep set and depth serial DFS would hand it. Workers explore shards
/// independently; the coordinator replays the serial membership loop and
/// budget over the recorded traces.
#[derive(Debug, Clone)]
pub(crate) struct DfsUnit {
    pub(crate) path: Vec<usize>,
    pub(crate) sleep: Vec<(usize, OpKey)>,
    pub(crate) depth: u32,
    /// Preemptions the dealt root-branch choice itself costs (0 or 1);
    /// the shard's subtree explores with this already spent. Under a
    /// bound, units costing more than it are never run — the coordinator
    /// prunes them exactly where serial DFS would.
    pub(crate) preemptions: u32,
    /// The root-branch member set (threads with pending ops), which a DPOR
    /// shard needs for conservative backtrack insertions that target the
    /// coordinator-owned root frame. Empty for the whole-tree unit.
    pub(crate) root_enabled: Vec<usize>,
}

impl DfsUnit {
    /// The whole tree as one shard — used when the root never branches (or
    /// `dfs_depth` is 0): the worker then runs exactly the serial DFS.
    pub(crate) fn root() -> DfsUnit {
        DfsUnit {
            path: Vec::new(),
            sleep: Vec::new(),
            depth: 0,
            preemptions: 0,
            root_enabled: Vec::new(),
        }
    }
}

/// Everything a worker learned from one shard.
#[derive(Debug, Clone)]
pub(crate) struct UnitTrace {
    /// Schedules spent, in the order serial DFS would spend them.
    pub(crate) entries: Vec<SchedEntry>,
    /// The shard's subtree-complete flag (budget-independent here: workers
    /// run with the full phase budget, a superset of whatever serial had
    /// left — the merge re-applies the real budget).
    pub(crate) complete: bool,
    /// The shard's within-preemption-bound exhaustiveness flag, merged
    /// like `complete`.
    pub(crate) within_bound: bool,
    /// A budget check site ran after the shard's last spend.
    pub(crate) trailing_check: bool,
    /// DPOR: root-frame backtrack members this shard's exploration earned
    /// (ascending). The coordinator unions these into the root membership
    /// after consuming the shard, exactly when serial would.
    pub(crate) root_backtrack: Vec<usize>,
    /// Execution-cost counters for this shard (measurement only — the
    /// merge never reads them).
    pub(crate) stats: CheckStats,
}

/// Execute the root prefix and split the tree at its first branch point,
/// one unit per root member. Full expansion deals each unit the sleep set
/// serial's root frame would hand that child: the earlier explored
/// siblings' ops, filtered against the child's own. DPOR's root frame
/// never propagates sleep, so its units start asleep-free. `None` when the
/// run stops before any branch — a single-path tree with nothing to split.
pub(crate) fn split_root(program: &Program, cfg: &CheckConfig) -> Option<Vec<DfsUnit>> {
    let mut ex = Exec::new(program, cfg);
    loop {
        if ex.status().is_some() {
            return None;
        }
        let en = ex.enabled();
        if en.len() > 1 {
            let last = ex.schedule.last().copied();
            let members: Vec<usize> = en
                .iter()
                .copied()
                .filter(|&t| ex.pending_op(t).is_some())
                .collect();
            let mut sleep: Vec<(usize, OpKey)> = Vec::new();
            let mut units = Vec::new();
            for &t in &en {
                let Some(op_t) = ex.pending_op(t) else {
                    continue;
                };
                let cost = preempt_cost(last, t, &en);
                let bound_pruned = cfg.preemption_bound.map(|b| cost > b).unwrap_or(false);
                let child_sleep: Vec<(usize, OpKey)> = sleep
                    .iter()
                    .copied()
                    .filter(|(_, sop)| sop.commutes_with(&op_t))
                    .collect();
                units.push(DfsUnit {
                    path: vec![t],
                    sleep: child_sleep,
                    depth: 1,
                    preemptions: cost,
                    root_enabled: members.clone(),
                });
                // DPOR's root frame never puts a member to sleep. A
                // bound-pruned child is never explored, so serial DFS
                // never puts it to sleep either — the deal must not.
                if !cfg.dpor && !bound_pruned {
                    sleep.push((t, op_t));
                }
            }
            return Some(units);
        }
        // Single choice: the root's sleep set is empty, so no pruning here.
        if ex.step(en[0]).is_some() {
            return None;
        }
    }
}

/// Explore one shard with the full phase budget, recording the trace.
pub(crate) fn run_dfs_unit(
    program: &Program,
    cfg: &CheckConfig,
    unit: &DfsUnit,
    phase_budget: u64,
) -> UnitTrace {
    let mut dfs = Dfs::new(program, cfg, phase_budget, true);
    if !unit.root_enabled.is_empty() {
        dfs.unit_root_enabled = Some(unit.root_enabled.clone());
    }
    let out = dfs.explore_path(&unit.path, unit.sleep.clone(), unit.depth, unit.preemptions);
    UnitTrace {
        entries: dfs.trace,
        complete: out.complete,
        within_bound: out.within_bound,
        trailing_check: dfs.checked_since_spend,
        root_backtrack: dfs.unit_backtrack.iter().copied().collect(),
        stats: dfs.stats,
    }
}

/// What one random walk found.
#[derive(Debug, Clone)]
pub(crate) struct WalkTrace {
    pub(crate) steps: u64,
    pub(crate) failure: Option<(Verdict, Vec<usize>)>,
}

/// Walk `index` of the walk phase: a pure function of `(cfg.seed, index)`,
/// so walks can run on any worker in any order.
pub(crate) fn run_walk(program: &Program, cfg: &CheckConfig, index: u64) -> WalkTrace {
    let mut rng = SplitMix64::new(cfg.seed ^ (index.wrapping_mul(0x9E37_79B9) + 1));
    let (stop, sched, steps) = random_walk(program, cfg, &mut rng);
    WalkTrace {
        steps,
        failure: match stop {
            Stop::Failure(v) => Some((v, sched)),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything the DFS engines read off an [`Exec`]: where it stopped,
    /// the path bookkeeping, the next choices, and the detector's clocks.
    #[derive(Debug, PartialEq)]
    struct Observed {
        stop: Option<Stop>,
        schedule: Vec<usize>,
        steps: u64,
        enabled: Vec<usize>,
        pending: Vec<Option<OpKey>>,
        clocks: Vec<Vec<u64>>,
    }

    fn observe(ex: &Exec, stop: Option<Stop>) -> Observed {
        let n = ex.vm.thread_count();
        Observed {
            stop,
            schedule: ex.schedule.clone(),
            steps: ex.steps,
            enabled: ex.enabled(),
            pending: (0..n).map(|t| ex.pending_op(t)).collect(),
            clocks: (0..n)
                .map(|p| (0..n).map(|q| ex.clock_component(p, q)).collect())
                .collect(),
        }
    }

    /// Take up to `max` visible steps, `pick` choosing from the enabled
    /// set, and return the stop if the execution ended. `status` runs
    /// before every step and once after the last, so drives that take the
    /// same steps make the same checks.
    fn drive(ex: &mut Exec, max: usize, mut pick: impl FnMut(&[usize]) -> usize) -> Option<Stop> {
        let mut taken = 0;
        loop {
            if let Some(stop) = ex.status() {
                return Some(stop);
            }
            if taken == max {
                return None;
            }
            taken += 1;
            if let Some(stop) = ex.step(pick(&ex.enabled())) {
                return Some(stop);
            }
        }
    }

    /// The contract every sibling restore relies on: rerunning a suffix
    /// after a restore lands exactly where its first run did, and where a
    /// fresh `Exec` replaying the whole schedule from the root lands —
    /// race-detector clocks included, which `Vm::state_hash` cannot see.
    #[test]
    fn restore_then_rerun_matches_a_fresh_replay() {
        let cfg = CheckConfig::default();
        for (name, src, _) in crate::archetypes::corpus() {
            let program = minilang::compile(src).expect("corpus program compiles");
            for seed in 0..4u64 {
                for prefix in [0, 3, 8] {
                    let ctx = format!("{name}, seed {seed}, prefix {prefix}");
                    let mut rng = SplitMix64::new(seed);
                    let mut walk = |en: &[usize]| en[rng.gen_range(0..en.len())];
                    let mut ex = Exec::new(&program, &cfg);
                    if drive(&mut ex, prefix, &mut walk).is_some() {
                        continue; // ended inside the prefix: no suffix
                    }
                    let snap = ex.snapshot();
                    let stop = drive(&mut ex, usize::MAX, &mut walk);
                    let first = observe(&ex, stop);

                    let suffix = &first.schedule[prefix..];
                    ex.restore(&snap);
                    let mut replay = suffix.iter().copied();
                    let stop = drive(&mut ex, suffix.len(), |_| replay.next().unwrap());
                    assert_eq!(observe(&ex, stop), first, "restore + rerun ({ctx})");

                    let mut fresh = Exec::new(&program, &cfg);
                    let mut replay = first.schedule.iter().copied();
                    let stop = drive(&mut fresh, first.schedule.len(), |_| replay.next().unwrap());
                    assert_eq!(observe(&fresh, stop), first, "fresh replay ({ctx})");
                }
            }
        }
    }
}
