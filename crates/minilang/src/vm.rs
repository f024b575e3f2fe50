//! The virtual machine: preemptive green threads over bytecode.
//!
//! All scheduling decisions flow from one seeded RNG, so every execution —
//! including every data race and every deadlock — replays exactly given the
//! same program, config and seed. Preemption happens between instructions;
//! a blocked operation (lock, sem_wait, send, recv, join) leaves the pc in
//! place and re-executes when the thread is next scheduled, which models
//! barging (unfair) synchronization like real futexes do.

use crate::bytecode::{Builtin, FnId, Function, Instr, Program};
use crate::error::RuntimeError;
use crate::value::{lock_array, Value};
use rng::SplitMix64;
use std::collections::{HashMap, VecDeque};

/// A shared-memory location, as seen by the access log.
///
/// Arrays are identified by a dense id assigned on first recorded access
/// (stable within one VM run), so two runs of the same schedule name the
/// same locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemLoc {
    /// A program global, by slot.
    Global(usize),
    /// One array element: (array id, index).
    Elem(usize, i64),
    /// An array's structure (length): `push` writes it, `len` reads it.
    ArrayStruct(usize),
}

/// What an operation targets — the "object" half of an [`OpKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpObj {
    /// A memory location.
    Mem(MemLoc),
    /// A mutex.
    Mutex(usize),
    /// A semaphore.
    Sem(usize),
    /// A channel.
    Chan(usize),
    /// A condition variable.
    Cond(usize),
    /// A thread (join target).
    Thread(usize),
    /// No specific object (spawn, yield, opaque ops).
    None,
}

/// The kind half of an [`OpKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Plain shared read.
    Read,
    /// Plain shared write.
    Write,
    /// Atomic read-modify-write (`tas` / `atomic_add`).
    AtomicRw,
    /// `lock(m)`.
    Lock,
    /// `unlock(m)`.
    Unlock,
    /// `sem_wait(s)`.
    SemWait,
    /// `sem_post(s)`.
    SemPost,
    /// `send(c, v)`.
    Send,
    /// `recv(c)`.
    Recv,
    /// `join(t)`.
    Join,
    /// `cond_wait(cv, m)`.
    CondWait,
    /// `cond_notify` / `cond_broadcast`.
    CondNotify,
    /// `spawn f(...)`.
    Spawn,
    /// `yield_now()` / `sleep(n)`.
    Yield,
    /// Host I/O or stdin (ordering matters, object unknown).
    Io,
    /// Visible for scheduling purposes but not classifiable (e.g. a type
    /// error about to happen, or `rand_int`, whose shared-RNG draw order
    /// must be fixed by the schedule). Conflicts with everything.
    Opaque,
}

/// The next *visible* operation of a thread: the unit a systematic
/// scheduler branches on. Invisible (thread-local) instructions return no
/// key and can be run eagerly without affecting other threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpKey {
    /// Operation kind.
    pub kind: OpKind,
    /// Operation target.
    pub obj: OpObj,
}

impl OpKey {
    /// Do two visible operations commute — would executing them in either
    /// order from the same state reach the same state and emit the same
    /// events? This is the independence relation external schedulers
    /// (sleep sets, partial-order reduction) reduce with, so it must be
    /// sound: claiming commutativity for a conflicting pair hides
    /// interleavings. Conservative on the unknown: opaque and I/O
    /// operations commute with nothing.
    pub fn commutes_with(&self, other: &OpKey) -> bool {
        if self.kind == OpKind::Opaque || other.kind == OpKind::Opaque {
            return false; // shared RNG draws, imminent type errors, ...
        }
        if self.kind == OpKind::Io || other.kind == OpKind::Io {
            return false; // stdout / host-file order is observable
        }
        match (self.obj, other.obj) {
            // Spawn/yield touch no shared object. (A spawned thread's ops
            // are ordered after the spawn by the happens-before relation,
            // which reducers must consult separately.)
            (OpObj::None, _) | (_, OpObj::None) => true,
            (x, y) if x != y => true,
            // Same object: only read/read commutes.
            _ => self.kind == OpKind::Read && other.kind == OpKind::Read,
        }
    }
}

/// What a thread is (or would be) waiting on, for wait-for-graph analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitTarget {
    /// Waiting for a mutex (owner is [`Vm::mutex_owner`]).
    Mutex(usize),
    /// Waiting for a semaphore permit.
    Sem(usize),
    /// Waiting for channel capacity.
    SendCap(usize),
    /// Waiting for a channel message.
    RecvData(usize),
    /// Waiting for a thread to finish.
    Join(usize),
    /// Parked on a condition variable (not yet notified).
    Cond(usize),
}

/// One recorded synchronization / shared-memory event. Only *visible*
/// operations emit events, and only while [`Vm::set_recording`] is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmEvent {
    /// Plain read of a shared location.
    Read {
        /// Acting thread.
        tid: usize,
        /// Location read.
        loc: MemLoc,
    },
    /// Plain write of a shared location.
    Write {
        /// Acting thread.
        tid: usize,
        /// Location written.
        loc: MemLoc,
    },
    /// Atomic read-modify-write of a shared location.
    AtomicRw {
        /// Acting thread.
        tid: usize,
        /// Location updated.
        loc: MemLoc,
    },
    /// Mutex acquired.
    LockAcq {
        /// Acting thread.
        tid: usize,
        /// Mutex id.
        mutex: usize,
    },
    /// Mutex released.
    LockRel {
        /// Acting thread.
        tid: usize,
        /// Mutex id.
        mutex: usize,
    },
    /// Semaphore permit taken.
    SemAcq {
        /// Acting thread.
        tid: usize,
        /// Semaphore id.
        sem: usize,
    },
    /// Semaphore permit released.
    SemRel {
        /// Acting thread.
        tid: usize,
        /// Semaphore id.
        sem: usize,
    },
    /// Message enqueued.
    ChanSend {
        /// Acting thread.
        tid: usize,
        /// Channel id.
        chan: usize,
    },
    /// Message dequeued.
    ChanRecv {
        /// Acting thread.
        tid: usize,
        /// Channel id.
        chan: usize,
    },
    /// New thread created.
    Spawned {
        /// Spawning thread.
        parent: usize,
        /// New thread id.
        child: usize,
    },
    /// Join completed (target had finished).
    Joined {
        /// Joining thread.
        tid: usize,
        /// Joined thread.
        target: usize,
    },
    /// `cond_wait` phase one: mutex released, thread parked.
    CondRelease {
        /// Acting thread.
        tid: usize,
        /// Condition variable.
        cv: usize,
        /// Released mutex.
        mutex: usize,
    },
    /// `cond_wait` phase two: notified thread re-acquired the mutex.
    CondAcquire {
        /// Acting thread.
        tid: usize,
        /// Condition variable.
        cv: usize,
        /// Re-acquired mutex.
        mutex: usize,
    },
    /// `cond_notify` / `cond_broadcast` executed.
    CondNotify {
        /// Acting thread.
        tid: usize,
        /// Condition variable.
        cv: usize,
    },
}

/// Host I/O hooks: `read_file` / `write_file` / `append_file` builtins land
/// here, so the toolchain can wire the VM to the portal's `vfs`
/// (or to nothing, in pure tests).
/// `Send` is part of the contract: a [`Vm`] must be movable to (and owned
/// by) a checker pool worker thread, and the I/O backend travels with it.
pub trait HostIo: Send {
    /// Read a whole file as a string.
    fn read_file(&mut self, path: &str) -> Result<String, String>;
    /// Create/overwrite a file.
    fn write_file(&mut self, path: &str, content: &str) -> Result<(), String>;
    /// Append to a file (creating it if missing).
    fn append_file(&mut self, path: &str, content: &str) -> Result<(), String>;
    /// Duplicate this backend for [`Vm::snapshot`]. Backends that cannot be
    /// duplicated return `None`; snapshots then leave I/O state live (a
    /// restore will not roll back file writes). The checker only snapshots
    /// VMs built on [`MemoryIo`], which can.
    fn try_clone_box(&self) -> Option<Box<dyn HostIo>> {
        None
    }
}

/// An in-memory [`HostIo`]: a map of path -> contents.
#[derive(Debug, Default, Clone)]
pub struct MemoryIo {
    /// Backing store, exposed for test setup and inspection.
    pub files: HashMap<String, String>,
}

impl HostIo for MemoryIo {
    fn read_file(&mut self, path: &str) -> Result<String, String> {
        self.files
            .get(path)
            .cloned()
            .ok_or_else(|| format!("{path}: no such file"))
    }

    fn write_file(&mut self, path: &str, content: &str) -> Result<(), String> {
        self.files.insert(path.to_string(), content.to_string());
        Ok(())
    }

    fn append_file(&mut self, path: &str, content: &str) -> Result<(), String> {
        self.files
            .entry(path.to_string())
            .or_default()
            .push_str(content);
        Ok(())
    }

    fn try_clone_box(&self) -> Option<Box<dyn HostIo>> {
        Some(Box::new(self.clone()))
    }
}

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Rotate through ready threads, fixed quantum. Reproducible and calm —
    /// the mode for teaching "what should happen".
    RoundRobin,
    /// Pick a random ready thread with a random slice length each time.
    /// The race-hunting mode: maximizes observed interleavings per seed.
    RandomPreempt,
}

/// VM tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Seed for every scheduling (and `rand_int`) decision.
    pub seed: u64,
    /// Maximum instructions per scheduling slice.
    pub quantum: u32,
    /// Total instruction budget across all threads (runaway-loop guard).
    pub max_instructions: u64,
    /// Thread-selection policy.
    pub policy: SchedPolicy,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            seed: 0,
            quantum: 8,
            max_instructions: 10_000_000,
            policy: SchedPolicy::RandomPreempt,
        }
    }
}

/// What a completed execution produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Everything printed.
    pub stdout: String,
    /// `main`'s return value.
    pub main_result: Value,
    /// Total instructions executed.
    pub executed: u64,
    /// Number of scheduling slices (context switches).
    pub context_switches: u64,
    /// Peak number of live threads.
    pub peak_threads: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum ThreadState {
    Runnable,
    BlockedMutex(usize),
    BlockedSem(usize),
    BlockedSend(usize),
    BlockedRecv(usize),
    BlockedJoin(usize),
    /// Parked on a condition variable; `woken` flips on notify, after which
    /// the thread still needs the mutex back before it can resume.
    BlockedCond {
        cv: usize,
        mutex: usize,
        woken: bool,
    },
    Sleeping {
        until: u64,
    },
    Finished,
}

#[derive(Debug, Clone)]
struct Frame {
    func: FnId,
    pc: usize,
    locals: Vec<Value>,
}

#[derive(Debug, Clone)]
struct GreenThread {
    frames: Vec<Frame>,
    stack: Vec<Value>,
    state: ThreadState,
    result: Value,
    /// Set when this thread was woken from a cond_wait and must complete
    /// the re-acquire phase instead of re-running the wait from scratch.
    cond_resume: Option<(usize, usize)>,
}

#[derive(Debug, Clone, Default)]
struct MutexState {
    locked_by: Option<usize>,
}

#[derive(Debug, Clone)]
struct SemState {
    count: i64,
}

#[derive(Debug, Clone)]
struct ChanState {
    cap: usize,
    queue: VecDeque<Value>,
}

/// Condition variables carry no state of their own: waiters are found by
/// scanning thread states (FIFO by thread id for notify).
#[derive(Debug, Default)]
struct CondState;

enum Step {
    /// Keep running this slice.
    Continue,
    /// The instruction could not complete; thread is now blocked, pc unchanged.
    Blocked,
    /// Thread finished (outer frame returned).
    Finished,
    /// Thread voluntarily ended its slice (yield/sleep).
    EndSlice,
}

/// Saved contents of one live shared array. The `Arc` is the same
/// allocation the VM still references: restore writes `items` back through
/// it, so array identity (the pointer-derived peek ids and the entries in
/// `array_ids`) survives the round trip — and holding the handle keeps the
/// allocator from reusing the address for a different array.
struct ArraySnap {
    handle: std::sync::Arc<std::sync::Mutex<Vec<Value>>>,
    items: Vec<Value>,
}

/// A resumable capture of VM execution state, built by [`Vm::snapshot`] and
/// consumed (any number of times) by [`Vm::restore`].
///
/// Values are captured shallowly — handles are ids or `Arc`s — and mutable
/// array contents are saved per reachable array, so a restore rewinds
/// globals, thread stacks, sync objects, clocks and the RNG position
/// without reallocating anything the program can still reach. Append-only
/// fields (stdout, recorded events, the schedule trace) are stored as
/// lengths and rewound by truncation: a restore assumes they have not been
/// drained since the snapshot was taken.
pub struct VmSnapshot {
    globals: Vec<Value>,
    threads: Vec<GreenThread>,
    mutexes: Vec<MutexState>,
    sems: Vec<SemState>,
    chans: Vec<ChanState>,
    conds: usize,
    stdout_len: usize,
    executed: u64,
    context_switches: u64,
    peak_threads: usize,
    rng: SplitMix64,
    rng_draws: u64,
    rr_cursor: usize,
    stdin: VecDeque<String>,
    record: bool,
    events_len: usize,
    sched_len: usize,
    array_ids: HashMap<usize, usize>,
    arrays: Vec<ArraySnap>,
    io: Option<Box<dyn HostIo>>,
}

/// Walk a value graph collecting every reachable array exactly once.
/// Contents are cloned *outside* the lock before recursing: std mutexes
/// are not reentrant, and a self-referential array must not deadlock the
/// walk (the `seen` set already breaks the cycle).
fn collect_arrays(
    v: &Value,
    seen: &mut std::collections::HashSet<usize>,
    out: &mut Vec<ArraySnap>,
) {
    if let Value::Array(a) = v {
        let ptr = std::sync::Arc::as_ptr(a) as usize;
        if !seen.insert(ptr) {
            return;
        }
        let items = lock_array(a).clone();
        for item in &items {
            collect_arrays(item, seen, out);
        }
        out.push(ArraySnap {
            handle: a.clone(),
            items,
        });
    }
}

/// The virtual machine.
pub struct Vm {
    program: Program,
    globals: Vec<Value>,
    threads: Vec<GreenThread>,
    mutexes: Vec<MutexState>,
    sems: Vec<SemState>,
    chans: Vec<ChanState>,
    conds: Vec<CondState>,
    stdout: String,
    executed: u64,
    context_switches: u64,
    peak_threads: usize,
    rng: SplitMix64,
    config: VmConfig,
    rr_cursor: usize,
    io: Box<dyn HostIo>,
    stdin: VecDeque<String>,
    /// When true, visible ops append to `events` and scheduling decisions
    /// append to `sched_trace`.
    record: bool,
    events: Vec<VmEvent>,
    sched_trace: Vec<(usize, u32)>,
    /// Arc pointer -> dense array id, assigned on first recorded access.
    array_ids: HashMap<usize, usize>,
    /// Draws taken from `rng` by `rand_int`. With a fixed seed the RNG state
    /// is a pure function of this count (external-scheduler mode never
    /// consumes the RNG otherwise), so [`Vm::state_hash`] hashes the count
    /// in place of the opaque generator state.
    rng_draws: u64,
    /// Retired locals vectors, recycled by `Call`/`Spawn` so the step loop
    /// stops allocating one `Vec<Value>` per call. Scratch only: never part
    /// of snapshots or state hashes.
    locals_pool: Vec<Vec<Value>>,
}

// The checker's worker pool gives each worker its own `Vm` and shares one
// `&Program` across threads; these hold by construction (no `Rc`/`RefCell`
// anywhere in the VM state, `HostIo: Send`) and must keep holding.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<Vm>();
    assert_send::<Program>();
    assert_sync::<Program>();
};

impl Vm {
    /// Build a VM for `program` with an in-memory filesystem.
    pub fn new(program: Program, config: VmConfig) -> Vm {
        Vm::with_io(program, config, Box::new(MemoryIo::default()))
    }

    /// Build a VM with a caller-supplied I/O backend.
    pub fn with_io(mut program: Program, config: VmConfig, io: Box<dyn HostIo>) -> Vm {
        // Synthesize `__boot`: run __init, discard, run main, return its value.
        let boot = program.functions.len();
        program.functions.push(Function {
            name: "__boot".into(),
            arity: 0,
            locals: 0,
            code: vec![
                Instr::Call {
                    func: program.init,
                    argc: 0,
                },
                Instr::Pop,
                Instr::Call {
                    func: program.entry,
                    argc: 0,
                },
                Instr::Return,
            ],
        });
        let globals = vec![Value::Int(0); program.global_names.len()];
        let main_thread = GreenThread {
            frames: vec![Frame {
                func: boot,
                pc: 0,
                locals: Vec::new(),
            }],
            stack: Vec::new(),
            state: ThreadState::Runnable,
            result: Value::Unit,
            cond_resume: None,
        };
        Vm {
            program,
            globals,
            threads: vec![main_thread],
            mutexes: Vec::new(),
            sems: Vec::new(),
            chans: Vec::new(),
            conds: Vec::new(),
            stdout: String::new(),
            executed: 0,
            context_switches: 0,
            peak_threads: 1,
            rng: SplitMix64::seed_from_u64(config.seed),
            config,
            rr_cursor: 0,
            io,
            stdin: VecDeque::new(),
            record: false,
            events: Vec::new(),
            sched_trace: Vec::new(),
            array_ids: HashMap::new(),
            rng_draws: 0,
            locals_pool: Vec::new(),
        }
    }

    /// Queue a line for `read_line()` to consume.
    pub fn push_stdin(&mut self, line: impl Into<String>) {
        self.stdin.push_back(line.into());
    }

    /// Execute to completion.
    pub fn run(&mut self) -> Result<ExecOutcome, RuntimeError> {
        loop {
            // The ready threads are walked in place, never collected.
            let mut ready = (0..self.threads.len()).filter(|&t| self.is_ready(t));
            let Some(first_ready) = ready.next() else {
                if self.all_finished() {
                    break;
                }
                // Maybe everyone is asleep: jump the clock.
                if self.advance_clock() {
                    continue;
                }
                // Not asleep, not ready, not finished: deadlock.
                let blocked = self.describe_blocked();
                return Err(RuntimeError::Deadlock { blocked });
            };
            let count = 1 + ready.count();
            let (tid, quantum) = self.start_slice(first_ready, count);
            let alone_until = match count {
                1 => self.next_wake().unwrap_or(u64::MAX),
                _ => 0,
            };
            self.run_slice(tid, quantum, alone_until)?;
        }
        Ok(self.outcome())
    }

    /// Pick the next slice among `count` ready threads, the first of them
    /// `first_ready`, as the policy does, and count (and record) it.
    fn start_slice(&mut self, first_ready: usize, count: usize) -> (usize, u32) {
        let quantum = self.config.quantum.max(1);
        let (tid, quantum) = match self.config.policy {
            SchedPolicy::RoundRobin => {
                // Next ready thread at or after the cursor.
                let tid = match count {
                    1 => first_ready,
                    _ => (first_ready..self.threads.len())
                        .filter(|&t| self.is_ready(t))
                        .find(|&t| t >= self.rr_cursor)
                        .unwrap_or(first_ready),
                };
                self.rr_cursor = tid + 1;
                if self.rr_cursor >= self.threads.len() {
                    self.rr_cursor = 0;
                }
                (tid, quantum)
            }
            SchedPolicy::RandomPreempt => {
                let tid = match count {
                    1 => {
                        // `gen_range(0..1)`'s draw, without its modulo.
                        self.rng.next_u64();
                        first_ready
                    }
                    _ => {
                        let k = self.rng.gen_range(0..count);
                        (first_ready..self.threads.len())
                            .filter(|&t| self.is_ready(t))
                            .nth(k)
                            .expect("k is below the ready count")
                    }
                };
                (tid, self.rng.gen_range(1..=quantum))
            }
        };
        if self.record {
            self.sched_trace.push((tid, quantum));
        }
        self.context_switches += 1;
        (tid, quantum)
    }

    /// Extract the run's results (what [`Vm::run`] returns on completion).
    /// External drivers call this after stepping the VM to completion.
    pub fn outcome(&mut self) -> ExecOutcome {
        ExecOutcome {
            stdout: std::mem::take(&mut self.stdout),
            main_result: self.threads[0].result.clone(),
            executed: self.executed,
            context_switches: self.context_switches,
            peak_threads: self.peak_threads,
        }
    }

    // ---- external scheduling API (the `checker` crate drives these) -------

    /// Turn event/schedule recording on or off.
    pub fn set_recording(&mut self, on: bool) {
        self.record = on;
    }

    /// Take the events recorded since the last drain.
    pub fn drain_events(&mut self) -> Vec<VmEvent> {
        std::mem::take(&mut self.events)
    }

    /// [`Vm::drain_events`] into a caller-owned buffer (cleared first).
    /// The buffers swap, so steady-state draining allocates nothing.
    pub fn drain_events_into(&mut self, buf: &mut Vec<VmEvent>) {
        buf.clear();
        std::mem::swap(buf, &mut self.events);
    }

    /// Take the `(tid, quantum)` schedule recorded by [`Vm::run`] /
    /// [`Vm::step_thread`] since the last drain.
    pub fn drain_schedule(&mut self) -> Vec<(usize, u32)> {
        std::mem::take(&mut self.sched_trace)
    }

    /// Number of threads ever created (including finished ones).
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// True when every thread has finished.
    pub fn all_finished(&self) -> bool {
        self.threads
            .iter()
            .all(|t| t.state == ThreadState::Finished)
    }

    /// True when `tid` has finished.
    pub fn thread_finished(&self, tid: usize) -> bool {
        self.threads
            .get(tid)
            .map(|t| t.state == ThreadState::Finished)
            .unwrap_or(true)
    }

    /// Could `tid` be scheduled right now? (Runnable, or blocked on a
    /// resource that has since become available.)
    pub fn is_enabled(&self, tid: usize) -> bool {
        tid < self.threads.len() && self.is_ready(tid)
    }

    /// All threads that [`Vm::is_enabled`] right now, ascending.
    pub fn enabled_threads(&self) -> Vec<usize> {
        (0..self.threads.len())
            .filter(|&t| self.is_ready(t))
            .collect()
    }

    /// When no thread is enabled but some are sleeping, jump the clock to
    /// the earliest wake-up. Returns true if the clock moved.
    pub fn advance_clock(&mut self) -> bool {
        match self.next_wake() {
            Some(until) if until > self.executed => {
                self.executed = until;
                true
            }
            _ => false,
        }
    }

    /// The earliest deadline of a sleeping thread, if any sleeps.
    fn next_wake(&self) -> Option<u64> {
        self.threads
            .iter()
            .filter_map(|t| match t.state {
                ThreadState::Sleeping { until } => Some(until),
                _ => None,
            })
            .min()
    }

    /// Run one externally chosen slice: up to `quantum` instructions of
    /// thread `tid`. The caller is the scheduler; no RNG is consumed.
    pub fn step_thread(&mut self, tid: usize, quantum: u32) -> Result<(), RuntimeError> {
        if self.record {
            self.sched_trace.push((tid, quantum));
        }
        self.context_switches += 1;
        self.run_slice(tid, quantum.max(1), 0)
    }

    /// Current owner of mutex `m`, if locked.
    pub fn mutex_owner(&self, m: usize) -> Option<usize> {
        self.mutexes.get(m).and_then(|s| s.locked_by)
    }

    /// Peek the next *visible* operation of `tid` without executing it.
    /// `None` means the next instruction is thread-local (or the thread is
    /// finished) and can run without creating a scheduling point.
    pub fn next_op(&self, tid: usize) -> Option<OpKey> {
        let t = self.threads.get(tid)?;
        if t.state == ThreadState::Finished {
            return None;
        }
        let f = t.frames.last()?;
        let instr = self.program.functions[f.func].code.get(f.pc)?;
        let key = |kind, obj| Some(OpKey { kind, obj });
        let opaque = || {
            Some(OpKey {
                kind: OpKind::Opaque,
                obj: OpObj::None,
            })
        };
        let stack = &t.stack;
        let peek = |back: usize| stack.get(stack.len().checked_sub(back)?);
        match instr {
            Instr::LoadGlobal(i) => key(OpKind::Read, OpObj::Mem(MemLoc::Global(*i))),
            Instr::StoreGlobal(i) => key(OpKind::Write, OpObj::Mem(MemLoc::Global(*i))),
            Instr::Tas(s) | Instr::AtomicAdd(s) => {
                key(OpKind::AtomicRw, OpObj::Mem(MemLoc::Global(*s)))
            }
            Instr::Spawn { .. } => key(OpKind::Spawn, OpObj::None),
            Instr::IndexGet => match (peek(2), peek(1)) {
                (Some(Value::Array(a)), Some(Value::Int(i))) => key(
                    OpKind::Read,
                    OpObj::Mem(MemLoc::Elem(self.peek_array_id(a), *i)),
                ),
                (Some(Value::Str(_)), _) => None, // strings are immutable
                _ => opaque(),
            },
            Instr::IndexSet => match (peek(3), peek(2)) {
                (Some(Value::Array(a)), Some(Value::Int(i))) => key(
                    OpKind::Write,
                    OpObj::Mem(MemLoc::Elem(self.peek_array_id(a), *i)),
                ),
                _ => opaque(),
            },
            Instr::CallBuiltin { builtin, .. } => match builtin {
                Builtin::Lock => match peek(1) {
                    Some(Value::Mutex(m)) => key(OpKind::Lock, OpObj::Mutex(*m)),
                    _ => opaque(),
                },
                Builtin::Unlock => match peek(1) {
                    Some(Value::Mutex(m)) => key(OpKind::Unlock, OpObj::Mutex(*m)),
                    _ => opaque(),
                },
                Builtin::SemWait => match peek(1) {
                    Some(Value::Semaphore(s)) => key(OpKind::SemWait, OpObj::Sem(*s)),
                    _ => opaque(),
                },
                Builtin::SemPost => match peek(1) {
                    Some(Value::Semaphore(s)) => key(OpKind::SemPost, OpObj::Sem(*s)),
                    _ => opaque(),
                },
                Builtin::Send => match peek(2) {
                    Some(Value::Channel(c)) => key(OpKind::Send, OpObj::Chan(*c)),
                    _ => opaque(),
                },
                Builtin::Recv => match peek(1) {
                    Some(Value::Channel(c)) => key(OpKind::Recv, OpObj::Chan(*c)),
                    _ => opaque(),
                },
                Builtin::Join => match peek(1) {
                    Some(Value::Thread(u)) => key(OpKind::Join, OpObj::Thread(*u)),
                    _ => opaque(),
                },
                Builtin::CondWait => match peek(2) {
                    Some(Value::Cond(cv)) => key(OpKind::CondWait, OpObj::Cond(*cv)),
                    _ => opaque(),
                },
                Builtin::CondNotify | Builtin::CondBroadcast => match peek(1) {
                    Some(Value::Cond(cv)) => key(OpKind::CondNotify, OpObj::Cond(*cv)),
                    _ => opaque(),
                },
                Builtin::YieldNow | Builtin::Sleep => key(OpKind::Yield, OpObj::None),
                Builtin::Push => match peek(2) {
                    Some(Value::Array(a)) => key(
                        OpKind::Write,
                        OpObj::Mem(MemLoc::ArrayStruct(self.peek_array_id(a))),
                    ),
                    _ => opaque(),
                },
                Builtin::Len => match peek(1) {
                    Some(Value::Array(a)) => key(
                        OpKind::Read,
                        OpObj::Mem(MemLoc::ArrayStruct(self.peek_array_id(a))),
                    ),
                    _ => None, // len(string) is thread-local
                },
                Builtin::ReadFile
                | Builtin::WriteFile
                | Builtin::AppendFile
                | Builtin::ReadLine => key(OpKind::Io, OpObj::None),
                // `rand_int` draws from the shared RNG: its order must be
                // fixed by the schedule for replays to be deterministic.
                Builtin::RandInt => opaque(),
                _ => None,
            },
            _ => None,
        }
    }

    /// Would executing `tid`'s next visible op right now block (make no
    /// progress)? Conservative: false for anything non-blocking.
    pub fn op_would_block(&self, tid: usize) -> bool {
        let Some(op) = self.next_op(tid) else {
            return false;
        };
        match (op.kind, op.obj) {
            (OpKind::Lock, OpObj::Mutex(m)) => {
                self.mutexes.get(m).is_some_and(|s| s.locked_by.is_some())
            }
            (OpKind::SemWait, OpObj::Sem(s)) => self.sems.get(s).is_some_and(|st| st.count <= 0),
            (OpKind::Send, OpObj::Chan(c)) => {
                self.chans.get(c).is_some_and(|ch| ch.queue.len() >= ch.cap)
            }
            (OpKind::Recv, OpObj::Chan(c)) => {
                self.chans.get(c).is_some_and(|ch| ch.queue.is_empty())
            }
            (OpKind::Join, OpObj::Thread(u)) => !self.thread_finished(u),
            _ => false,
        }
    }

    /// What `tid` is waiting on: from its blocked state, or — for a runnable
    /// thread parked just before a blocking op — from the peeked op.
    pub fn wait_target(&self, tid: usize) -> Option<WaitTarget> {
        match self.threads.get(tid)?.state {
            ThreadState::BlockedMutex(m) => Some(WaitTarget::Mutex(m)),
            ThreadState::BlockedSem(s) => Some(WaitTarget::Sem(s)),
            ThreadState::BlockedSend(c) => Some(WaitTarget::SendCap(c)),
            ThreadState::BlockedRecv(c) => Some(WaitTarget::RecvData(c)),
            ThreadState::BlockedJoin(u) => Some(WaitTarget::Join(u)),
            ThreadState::BlockedCond {
                cv, woken: false, ..
            } => Some(WaitTarget::Cond(cv)),
            ThreadState::BlockedCond {
                mutex, woken: true, ..
            } => Some(WaitTarget::Mutex(mutex)),
            ThreadState::Runnable => {
                let op = self.next_op(tid)?;
                if !self.op_would_block(tid) {
                    return None;
                }
                match (op.kind, op.obj) {
                    (OpKind::Lock, OpObj::Mutex(m)) => Some(WaitTarget::Mutex(m)),
                    (OpKind::SemWait, OpObj::Sem(s)) => Some(WaitTarget::Sem(s)),
                    (OpKind::Send, OpObj::Chan(c)) => Some(WaitTarget::SendCap(c)),
                    (OpKind::Recv, OpObj::Chan(c)) => Some(WaitTarget::RecvData(c)),
                    (OpKind::Join, OpObj::Thread(u)) => Some(WaitTarget::Join(u)),
                    _ => None,
                }
            }
            ThreadState::Sleeping { .. } | ThreadState::Finished => None,
        }
    }

    /// Replay a `(tid, quantum)` schedule previously drained via
    /// [`Vm::drain_schedule`] on a *fresh* VM of the same program + config.
    /// Faithful for programs that don't call `rand_int` (whose draws share
    /// the scheduling RNG that a recorded run also consumed).
    pub fn replay(&mut self, schedule: &[(usize, u32)]) -> Result<(), RuntimeError> {
        for &(tid, quantum) in schedule {
            if self.all_finished() {
                break;
            }
            while !self.is_enabled(tid) && self.advance_clock() {}
            if !self.is_enabled(tid) {
                continue; // schedule diverged; skip the entry
            }
            self.context_switches += 1;
            self.run_slice(tid, quantum.max(1), 0)?;
        }
        Ok(())
    }

    // ---- snapshot / restore (the checker's prefix-reuse fast path) --------

    /// Capture the full execution state. O(live state): thread stacks and
    /// sync objects are cloned shallowly (`Value` clones share `Arc`s), and
    /// each reachable array's contents are saved once. See [`VmSnapshot`]
    /// for the restore contract.
    pub fn snapshot(&self) -> VmSnapshot {
        let mut seen = std::collections::HashSet::new();
        let mut arrays = Vec::new();
        for g in &self.globals {
            collect_arrays(g, &mut seen, &mut arrays);
        }
        for t in &self.threads {
            for v in &t.stack {
                collect_arrays(v, &mut seen, &mut arrays);
            }
            for f in &t.frames {
                for v in &f.locals {
                    collect_arrays(v, &mut seen, &mut arrays);
                }
            }
            collect_arrays(&t.result, &mut seen, &mut arrays);
        }
        for c in &self.chans {
            for v in &c.queue {
                collect_arrays(v, &mut seen, &mut arrays);
            }
        }
        VmSnapshot {
            globals: self.globals.clone(),
            threads: self.threads.clone(),
            mutexes: self.mutexes.clone(),
            sems: self.sems.clone(),
            chans: self.chans.clone(),
            conds: self.conds.len(),
            stdout_len: self.stdout.len(),
            executed: self.executed,
            context_switches: self.context_switches,
            peak_threads: self.peak_threads,
            rng: self.rng.clone(),
            rng_draws: self.rng_draws,
            rr_cursor: self.rr_cursor,
            stdin: self.stdin.clone(),
            record: self.record,
            events_len: self.events.len(),
            sched_len: self.sched_trace.len(),
            array_ids: self.array_ids.clone(),
            arrays,
            io: self.io.try_clone_box(),
        }
    }

    /// Rewind to a state captured by [`Vm::snapshot`] on this same VM. The
    /// snapshot can be restored any number of times; array identity is
    /// preserved (contents are written back through the original `Arc`s),
    /// so dense ids and pointer-based peek ids keep meaning the same
    /// arrays afterwards.
    pub fn restore(&mut self, snap: &VmSnapshot) {
        self.globals.clone_from(&snap.globals);
        self.threads.clone_from(&snap.threads);
        self.mutexes.clone_from(&snap.mutexes);
        self.sems.clone_from(&snap.sems);
        self.chans.clone_from(&snap.chans);
        self.conds.truncate(snap.conds);
        while self.conds.len() < snap.conds {
            self.conds.push(CondState);
        }
        self.stdout.truncate(snap.stdout_len);
        self.executed = snap.executed;
        self.context_switches = snap.context_switches;
        self.peak_threads = snap.peak_threads;
        self.rng = snap.rng.clone();
        self.rng_draws = snap.rng_draws;
        self.rr_cursor = snap.rr_cursor;
        self.stdin.clone_from(&snap.stdin);
        self.record = snap.record;
        self.events.truncate(snap.events_len);
        self.sched_trace.truncate(snap.sched_len);
        self.array_ids.clone_from(&snap.array_ids);
        for a in &snap.arrays {
            lock_array(&a.handle).clone_from(&a.items);
        }
        if let Some(io) = snap.io.as_deref().and_then(HostIo::try_clone_box) {
            self.io = io;
        }
    }

    /// FNV-1a digest of the canonical execution state: thread stacks and
    /// states, globals, sync objects, queued stdin and the RNG draw count.
    /// Array aliasing is canonicalized by first-visit order (never by
    /// pointer), so two executions that reach structurally identical states
    /// along different paths hash equal. Execution counters, stdout and
    /// host files are excluded — see the checker's state cache for the
    /// resulting caveats (`now()`-observing programs dedup approximately).
    pub fn state_hash(&self) -> u64 {
        let mut h = Fnv::new();
        let mut seen = HashMap::new();
        h.usize(self.globals.len());
        for g in &self.globals {
            hash_value(g, &mut h, &mut seen);
        }
        h.usize(self.threads.len());
        for t in &self.threads {
            match t.state {
                ThreadState::Runnable => h.byte(0x20),
                ThreadState::BlockedMutex(m) => {
                    h.byte(0x21);
                    h.usize(m);
                }
                ThreadState::BlockedSem(s) => {
                    h.byte(0x22);
                    h.usize(s);
                }
                ThreadState::BlockedSend(c) => {
                    h.byte(0x23);
                    h.usize(c);
                }
                ThreadState::BlockedRecv(c) => {
                    h.byte(0x24);
                    h.usize(c);
                }
                ThreadState::BlockedJoin(u) => {
                    h.byte(0x25);
                    h.usize(u);
                }
                ThreadState::BlockedCond { cv, mutex, woken } => {
                    h.byte(0x26);
                    h.usize(cv);
                    h.usize(mutex);
                    h.byte(woken as u8);
                }
                // Sleep deadlines hash as *remaining* time: the absolute
                // instruction clock is path-dependent noise.
                ThreadState::Sleeping { until } => {
                    h.byte(0x27);
                    h.u64(until.saturating_sub(self.executed));
                }
                ThreadState::Finished => h.byte(0x28),
            }
            match t.cond_resume {
                Some((cv, m)) => {
                    h.byte(1);
                    h.usize(cv);
                    h.usize(m);
                }
                None => h.byte(0),
            }
            hash_value(&t.result, &mut h, &mut seen);
            h.usize(t.frames.len());
            for f in &t.frames {
                h.usize(f.func);
                h.usize(f.pc);
                h.usize(f.locals.len());
                for v in &f.locals {
                    hash_value(v, &mut h, &mut seen);
                }
            }
            h.usize(t.stack.len());
            for v in &t.stack {
                hash_value(v, &mut h, &mut seen);
            }
        }
        h.usize(self.mutexes.len());
        for m in &self.mutexes {
            match m.locked_by {
                Some(t) => {
                    h.byte(1);
                    h.usize(t);
                }
                None => h.byte(0),
            }
        }
        h.usize(self.sems.len());
        for s in &self.sems {
            h.i64(s.count);
        }
        h.usize(self.chans.len());
        for c in &self.chans {
            h.usize(c.cap);
            h.usize(c.queue.len());
            for v in &c.queue {
                hash_value(v, &mut h, &mut seen);
            }
        }
        h.usize(self.conds.len());
        h.usize(self.stdin.len());
        for line in &self.stdin {
            h.str(line);
        }
        h.u64(self.rng_draws);
        h.0
    }

    /// Dense array id for peeking: the recorded id if the array has been
    /// accessed before, otherwise the Arc pointer with the top bit set (so
    /// two peeks at the same state agree, and neither collides with a dense
    /// id).
    fn peek_array_id(&self, a: &std::sync::Arc<std::sync::Mutex<Vec<Value>>>) -> usize {
        let ptr = std::sync::Arc::as_ptr(a) as usize;
        self.array_ids
            .get(&ptr)
            .copied()
            .unwrap_or(ptr | (1usize << (usize::BITS - 1)))
    }

    /// Dense array id for recording, assigned first-seen.
    fn array_id(&mut self, a: &std::sync::Arc<std::sync::Mutex<Vec<Value>>>) -> usize {
        let ptr = std::sync::Arc::as_ptr(a) as usize;
        let next = self.array_ids.len();
        *self.array_ids.entry(ptr).or_insert(next)
    }

    fn is_ready(&self, tid: usize) -> bool {
        match self.threads[tid].state {
            ThreadState::Runnable => true,
            ThreadState::Finished => false,
            ThreadState::Sleeping { until } => until <= self.executed,
            ThreadState::BlockedMutex(m) => self.mutexes[m].locked_by.is_none(),
            ThreadState::BlockedSem(s) => self.sems[s].count > 0,
            ThreadState::BlockedSend(c) => self.chans[c].queue.len() < self.chans[c].cap,
            ThreadState::BlockedRecv(c) => !self.chans[c].queue.is_empty(),
            ThreadState::BlockedJoin(u) => self
                .threads
                .get(u)
                .map(|t| t.state == ThreadState::Finished)
                .unwrap_or(true),
            ThreadState::BlockedCond { mutex, woken, .. } => {
                woken && self.mutexes[mutex].locked_by.is_none()
            }
        }
    }

    fn describe_blocked(&self) -> Vec<String> {
        self.threads
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                let what = match t.state {
                    ThreadState::BlockedMutex(m) => format!("mutex {m}"),
                    ThreadState::BlockedSem(s) => format!("semaphore {s}"),
                    ThreadState::BlockedSend(c) => format!("send on channel {c}"),
                    ThreadState::BlockedRecv(c) => format!("recv on channel {c}"),
                    ThreadState::BlockedJoin(u) => format!("join on thread {u}"),
                    ThreadState::BlockedCond {
                        cv, woken: false, ..
                    } => format!("condvar {cv}"),
                    ThreadState::BlockedCond {
                        mutex, woken: true, ..
                    } => {
                        format!("mutex {mutex} (condvar re-acquire)")
                    }
                    _ => return None,
                };
                Some(format!("thread {i} waiting on {what}"))
            })
            .collect()
    }

    /// Run a slice of up to `quantum` instructions of `tid`.
    ///
    /// `alone_until` above the clock says `tid` is the only ready thread
    /// and no sleeper's deadline comes before `alone_until`. Plain
    /// instructions change no thread's state, so while `tid` runs only
    /// those, `run` would pick it again for every slice that starts before
    /// then. The plain loop then runs on across slice ends, and each slice
    /// it enters is started ([`Vm::start_slice`]: the same draws, in the
    /// same order) as the loop returns, before anything else runs. The
    /// first slice to run another instruction, or to end at or after
    /// `alone_until`, is the last.
    fn run_slice(
        &mut self,
        tid: usize,
        quantum: u32,
        mut alone_until: u64,
    ) -> Result<(), RuntimeError> {
        // A woken cond-waiter completes the re-acquire phase rather than
        // re-running the wait from scratch.
        if let ThreadState::BlockedCond {
            cv,
            mutex,
            woken: true,
        } = self.threads[tid].state
        {
            self.threads[tid].cond_resume = Some((cv, mutex));
        }
        // A blocked thread that got scheduled retries its instruction.
        self.threads[tid].state = ThreadState::Runnable;
        let mut left = u64::from(quantum);
        while left > 0 {
            // One budget check per batch: the batch stops where the
            // instruction budget does, and where the slice does unless the
            // next one is `tid`'s too.
            let room = self.config.max_instructions.saturating_sub(self.executed);
            if room == 0 {
                return Err(RuntimeError::BudgetExhausted {
                    executed: self.executed,
                });
            }
            let budget = room.min(left.max(alone_until.saturating_sub(self.executed)));
            let ran = self.run_plain(tid, budget);
            // Start each slice the batch entered, and end at a slice end
            // the batch stopped at that comes at or after `alone_until`.
            let mut past_end = ran;
            while past_end >= left {
                past_end -= left;
                if self.executed - past_end >= alone_until {
                    return Ok(());
                }
                left = u64::from(self.start_slice(tid, 1).1);
            }
            left -= past_end;
            if ran == budget {
                continue;
            }
            left -= 1;
            alone_until = 0;
            match self.step(tid)? {
                Step::Continue => {}
                Step::Blocked | Step::Finished | Step::EndSlice => break,
            }
        }
        Ok(())
    }

    /// Run up to `budget` *plain* instructions of thread `tid` in one loop
    /// and return how many ran. Plain instructions cannot block, fail,
    /// record an event or change frames: constants, locals, `Pop`,
    /// unrecorded globals, arithmetic and comparisons on two ints, and
    /// jumps on a bool or an int. The loop stops before anything else —
    /// another instruction, a non-int operand, a zero divisor, a recorded
    /// access, an empty stack — and leaves that instruction to [`Vm::step`].
    fn run_plain(&mut self, tid: usize, budget: u64) -> u64 {
        let Vm {
            program,
            globals,
            threads,
            executed,
            record,
            ..
        } = self;
        let thread = &mut threads[tid];
        let Some(frame) = thread.frames.last_mut() else {
            return 0;
        };
        let code = &program.functions[frame.func].code[..];
        let consts = &program.consts[..];
        let stack = &mut thread.stack;
        let locals = &mut frame.locals;
        let mut pc = frame.pc;
        let mut ran = 0;
        while ran < budget {
            let Some(&instr) = code.get(pc) else {
                break;
            };
            match instr {
                Instr::Const(i) => stack.push(consts[i].clone()),
                Instr::LoadLocal(i) => stack.push(locals[i].clone()),
                Instr::StoreLocal(i) => {
                    let Some(v) = stack.pop() else {
                        break;
                    };
                    if locals.len() <= i {
                        locals.resize(i + 1, Value::Int(0));
                    }
                    locals[i] = v;
                }
                Instr::Pop => {
                    if stack.pop().is_none() {
                        break;
                    }
                }
                Instr::LoadGlobal(i) if !*record => stack.push(globals[i].clone()),
                Instr::StoreGlobal(i) if !*record => {
                    let Some(v) = stack.pop() else {
                        break;
                    };
                    globals[i] = v;
                }
                Instr::Add
                | Instr::Sub
                | Instr::Mul
                | Instr::Div
                | Instr::Mod
                | Instr::CmpEq
                | Instr::CmpNe
                | Instr::CmpLt
                | Instr::CmpLe
                | Instr::CmpGt
                | Instr::CmpGe => {
                    let [.., Value::Int(x), Value::Int(y)] = stack[..] else {
                        break;
                    };
                    let Some(r) = int_binop(instr, x, y) else {
                        break;
                    };
                    stack.pop();
                    *stack.last_mut().expect("two operands") = r;
                }
                Instr::Jump(t) => {
                    pc = t;
                    ran += 1;
                    continue;
                }
                Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) => {
                    let taken = match stack.last() {
                        Some(v @ (Value::Bool(_) | Value::Int(_))) => {
                            v.truthy() == matches!(instr, Instr::JumpIfTrue(_))
                        }
                        _ => break,
                    };
                    stack.pop();
                    if taken {
                        pc = t;
                        ran += 1;
                        continue;
                    }
                }
                _ => break,
            }
            pc += 1;
            ran += 1;
        }
        frame.pc = pc;
        *executed += ran;
        ran
    }

    /// Execute one instruction of thread `tid`: the one [`Vm::run_plain`]
    /// stopped before. Every error, event and frame change comes from here.
    fn step(&mut self, tid: usize) -> Result<Step, RuntimeError> {
        let (func, pc) = {
            let f = self.threads[tid]
                .frames
                .last()
                .ok_or_else(|| RuntimeError::Internal("thread has no frames".into()))?;
            (f.func, f.pc)
        };
        let instr = self.program.functions[func]
            .code
            .get(pc)
            .copied()
            .ok_or_else(|| RuntimeError::Internal(format!("pc {pc} out of range in {func}")))?;
        self.executed += 1;

        macro_rules! frame {
            () => {
                self.threads[tid].frames.last_mut().expect("frame checked")
            };
        }
        macro_rules! push {
            ($v:expr) => {
                self.threads[tid].stack.push($v)
            };
        }
        macro_rules! pop {
            () => {
                self.threads[tid]
                    .stack
                    .pop()
                    .ok_or_else(|| RuntimeError::Internal("stack underflow".into()))?
            };
        }

        match instr {
            // `run_plain` runs these whenever the stack holds their operand.
            Instr::Const(_) | Instr::LoadLocal(_) | Instr::Jump(_) => {
                return Err(RuntimeError::Internal(format!("{instr:?} left to step")));
            }
            Instr::StoreLocal(_) | Instr::Pop => {
                return Err(RuntimeError::Internal("stack underflow".into()));
            }
            // Recorded accesses; `run_plain` runs the unrecorded ones.
            Instr::LoadGlobal(i) => {
                if self.record {
                    self.events.push(VmEvent::Read {
                        tid,
                        loc: MemLoc::Global(i),
                    });
                }
                let v = self.globals[i].clone();
                push!(v);
            }
            Instr::StoreGlobal(i) => {
                if self.record {
                    self.events.push(VmEvent::Write {
                        tid,
                        loc: MemLoc::Global(i),
                    });
                }
                let v = pop!();
                self.globals[i] = v;
            }
            Instr::Add
            | Instr::Sub
            | Instr::Mul
            | Instr::Div
            | Instr::Mod
            | Instr::CmpEq
            | Instr::CmpNe
            | Instr::CmpLt
            | Instr::CmpLe
            | Instr::CmpGt
            | Instr::CmpGe => {
                let b = pop!();
                let a = pop!();
                let r = match (&a, &b) {
                    (Value::Int(x), Value::Int(y)) => {
                        int_binop(instr, *x, *y).ok_or(RuntimeError::DivisionByZero)?
                    }
                    _ => mixed_binop(instr, a, b)?,
                };
                push!(r);
            }
            Instr::Neg => {
                let a = pop!();
                match a {
                    Value::Int(v) => push!(Value::Int(v.wrapping_neg())),
                    other => {
                        return Err(RuntimeError::TypeError {
                            op: "-".into(),
                            found: other.type_name().into(),
                        })
                    }
                }
            }
            Instr::Not => {
                let a = pop!();
                push!(Value::Bool(!a.truthy()));
            }
            Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) => {
                let v = pop!();
                if v.truthy() == matches!(instr, Instr::JumpIfTrue(_)) {
                    frame!().pc = t;
                    return Ok(Step::Continue);
                }
            }
            Instr::MakeArray(n) => {
                let len = self.threads[tid].stack.len();
                if len < n {
                    return Err(RuntimeError::Internal(
                        "stack underflow in MakeArray".into(),
                    ));
                }
                let items = self.threads[tid].stack.split_off(len - n);
                push!(Value::array(items));
            }
            Instr::IndexGet => {
                let idx = pop!();
                let arr = pop!();
                if self.record {
                    if let (Value::Array(a), Value::Int(i)) = (&arr, &idx) {
                        let loc = MemLoc::Elem(self.array_id(a), *i);
                        self.events.push(VmEvent::Read { tid, loc });
                    }
                }
                push!(index_get(&arr, &idx)?);
            }
            Instr::IndexSet => {
                let v = pop!();
                let idx = pop!();
                let arr = pop!();
                if self.record {
                    if let (Value::Array(a), Value::Int(i)) = (&arr, &idx) {
                        let loc = MemLoc::Elem(self.array_id(a), *i);
                        self.events.push(VmEvent::Write { tid, loc });
                    }
                }
                index_set(&arr, &idx, v)?;
            }
            Instr::Call { func: callee, argc } => {
                let f = &self.program.functions[callee];
                debug_assert_eq!(f.arity, argc, "compiler enforces arity");
                let locals_len = f.locals.max(argc);
                let mut locals = self.alloc_locals(locals_len);
                for i in (0..argc).rev() {
                    locals[i] = pop!();
                }
                frame!().pc = pc + 1;
                self.threads[tid].frames.push(Frame {
                    func: callee,
                    pc: 0,
                    locals,
                });
                return Ok(Step::Continue);
            }
            Instr::Spawn { func: callee, argc } => {
                let f = &self.program.functions[callee];
                let locals_len = f.locals.max(argc);
                let mut locals = self.alloc_locals(locals_len);
                for i in (0..argc).rev() {
                    locals[i] = pop!();
                }
                let new_tid = self.threads.len();
                self.threads.push(GreenThread {
                    frames: vec![Frame {
                        func: callee,
                        pc: 0,
                        locals,
                    }],
                    stack: Vec::new(),
                    state: ThreadState::Runnable,
                    result: Value::Unit,
                    cond_resume: None,
                });
                self.peak_threads = self.peak_threads.max(self.live_count());
                if self.record {
                    self.events.push(VmEvent::Spawned {
                        parent: tid,
                        child: new_tid,
                    });
                }
                push!(Value::Thread(new_tid));
            }
            Instr::Return => {
                let ret = pop!();
                if let Some(done) = self.threads[tid].frames.pop() {
                    self.recycle_locals(done.locals);
                }
                if self.threads[tid].frames.is_empty() {
                    self.threads[tid].result = ret;
                    self.threads[tid].state = ThreadState::Finished;
                    return Ok(Step::Finished);
                }
                push!(ret);
                return Ok(Step::Continue);
            }
            Instr::Tas(slot) => {
                if self.record {
                    self.events.push(VmEvent::AtomicRw {
                        tid,
                        loc: MemLoc::Global(slot),
                    });
                }
                let old = match &self.globals[slot] {
                    Value::Int(v) => *v,
                    other => {
                        return Err(RuntimeError::TypeError {
                            op: "tas".into(),
                            found: other.type_name().into(),
                        })
                    }
                };
                self.globals[slot] = Value::Int(1);
                push!(Value::Int(old));
            }
            Instr::AtomicAdd(slot) => {
                if self.record {
                    self.events.push(VmEvent::AtomicRw {
                        tid,
                        loc: MemLoc::Global(slot),
                    });
                }
                let delta = match pop!() {
                    Value::Int(v) => v,
                    other => {
                        return Err(RuntimeError::TypeError {
                            op: "atomic_add".into(),
                            found: other.type_name().into(),
                        })
                    }
                };
                let old = match &self.globals[slot] {
                    Value::Int(v) => *v,
                    other => {
                        return Err(RuntimeError::TypeError {
                            op: "atomic_add".into(),
                            found: other.type_name().into(),
                        })
                    }
                };
                self.globals[slot] = Value::Int(old.wrapping_add(delta));
                push!(Value::Int(old));
            }
            Instr::CallBuiltin { builtin, argc } => {
                return self.builtin(tid, builtin, argc, pc);
            }
        }
        frame!().pc = pc + 1;
        Ok(Step::Continue)
    }

    /// Take a recycled locals vector (or a fresh one), sized and zeroed.
    fn alloc_locals(&mut self, len: usize) -> Vec<Value> {
        let mut v = self.locals_pool.pop().unwrap_or_default();
        v.clear();
        v.resize(len, Value::Int(0));
        v
    }

    /// Return a retired locals vector to the pool (bounded; values dropped).
    fn recycle_locals(&mut self, mut v: Vec<Value>) {
        if self.locals_pool.len() < 64 && v.capacity() > 0 {
            v.clear();
            self.locals_pool.push(v);
        }
    }

    fn live_count(&self) -> usize {
        self.threads
            .iter()
            .filter(|t| t.state != ThreadState::Finished)
            .count()
    }

    /// Execute one builtin. Blocking builtins may return [`Step::Blocked`]
    /// *without* advancing the pc (retry semantics).
    fn builtin(
        &mut self,
        tid: usize,
        b: Builtin,
        argc: usize,
        pc: usize,
    ) -> Result<Step, RuntimeError> {
        macro_rules! push {
            ($v:expr) => {
                self.threads[tid].stack.push($v)
            };
        }
        macro_rules! pop {
            () => {
                self.threads[tid]
                    .stack
                    .pop()
                    .ok_or_else(|| RuntimeError::Internal("stack underflow".into()))?
            };
        }
        macro_rules! advance {
            () => {
                self.threads[tid].frames.last_mut().expect("frame").pc = pc + 1
            };
        }

        match b {
            Builtin::Print | Builtin::Println => {
                let len = self.threads[tid].stack.len();
                let args = self.threads[tid].stack.split_off(len - argc);
                for a in &args {
                    self.stdout.push_str(&a.to_string());
                }
                if b == Builtin::Println {
                    self.stdout.push('\n');
                }
                push!(Value::Unit);
                advance!();
                Ok(Step::Continue)
            }
            Builtin::Len => {
                let v = pop!();
                if self.record {
                    if let Value::Array(a) = &v {
                        let loc = MemLoc::ArrayStruct(self.array_id(a));
                        self.events.push(VmEvent::Read { tid, loc });
                    }
                }
                let n = match &v {
                    Value::Array(a) => lock_array(a).len() as i64,
                    Value::Str(s) => s.len() as i64,
                    other => {
                        return Err(RuntimeError::TypeError {
                            op: "len".into(),
                            found: other.type_name().into(),
                        })
                    }
                };
                push!(Value::Int(n));
                advance!();
                Ok(Step::Continue)
            }
            Builtin::Push => {
                let v = pop!();
                let arr = pop!();
                if self.record {
                    if let Value::Array(a) = &arr {
                        let loc = MemLoc::ArrayStruct(self.array_id(a));
                        self.events.push(VmEvent::Write { tid, loc });
                    }
                }
                match &arr {
                    Value::Array(a) => lock_array(a).push(v),
                    other => {
                        return Err(RuntimeError::TypeError {
                            op: "push".into(),
                            found: other.type_name().into(),
                        })
                    }
                }
                push!(Value::Unit);
                advance!();
                Ok(Step::Continue)
            }
            Builtin::ToStr => {
                let v = pop!();
                push!(Value::str(v.to_string()));
                advance!();
                Ok(Step::Continue)
            }
            Builtin::MutexNew => {
                let id = self.mutexes.len();
                self.mutexes.push(MutexState::default());
                push!(Value::Mutex(id));
                advance!();
                Ok(Step::Continue)
            }
            Builtin::Lock => {
                let m = as_mutex(self.threads[tid].stack.last(), "lock")?;
                match self.mutexes[m].locked_by {
                    None => {
                        self.mutexes[m].locked_by = Some(tid);
                        if self.record {
                            self.events.push(VmEvent::LockAcq { tid, mutex: m });
                        }
                        let _ = pop!();
                        push!(Value::Unit);
                        advance!();
                        Ok(Step::Continue)
                    }
                    Some(_) => {
                        // Includes self-lock: a thread that locks a mutex it
                        // already holds deadlocks, as with a non-recursive
                        // pthread mutex.
                        self.threads[tid].state = ThreadState::BlockedMutex(m);
                        self.executed -= 1; // retried instruction doesn't consume budget twice
                        Ok(Step::Blocked)
                    }
                }
            }
            Builtin::Unlock => {
                let m = as_mutex(self.threads[tid].stack.last(), "unlock")?;
                if self.mutexes[m].locked_by != Some(tid) {
                    return Err(RuntimeError::NotLockOwner { mutex: m });
                }
                self.mutexes[m].locked_by = None;
                if self.record {
                    self.events.push(VmEvent::LockRel { tid, mutex: m });
                }
                let _ = pop!();
                push!(Value::Unit);
                advance!();
                Ok(Step::Continue)
            }
            Builtin::SemNew => {
                let n = match pop!() {
                    Value::Int(v) => v,
                    other => {
                        return Err(RuntimeError::TypeError {
                            op: "semaphore".into(),
                            found: other.type_name().into(),
                        })
                    }
                };
                let id = self.sems.len();
                self.sems.push(SemState { count: n.max(0) });
                push!(Value::Semaphore(id));
                advance!();
                Ok(Step::Continue)
            }
            Builtin::SemWait => {
                let s = as_sem(self.threads[tid].stack.last(), "sem_wait")?;
                if self.sems[s].count > 0 {
                    self.sems[s].count -= 1;
                    if self.record {
                        self.events.push(VmEvent::SemAcq { tid, sem: s });
                    }
                    let _ = pop!();
                    push!(Value::Unit);
                    advance!();
                    Ok(Step::Continue)
                } else {
                    self.threads[tid].state = ThreadState::BlockedSem(s);
                    self.executed -= 1;
                    Ok(Step::Blocked)
                }
            }
            Builtin::SemPost => {
                let s = as_sem(self.threads[tid].stack.last(), "sem_post")?;
                self.sems[s].count += 1;
                if self.record {
                    self.events.push(VmEvent::SemRel { tid, sem: s });
                }
                let _ = pop!();
                push!(Value::Unit);
                advance!();
                Ok(Step::Continue)
            }
            Builtin::ChanNew => {
                let cap = match pop!() {
                    Value::Int(v) => v.max(1) as usize,
                    other => {
                        return Err(RuntimeError::TypeError {
                            op: "channel".into(),
                            found: other.type_name().into(),
                        })
                    }
                };
                let id = self.chans.len();
                self.chans.push(ChanState {
                    cap,
                    queue: VecDeque::new(),
                });
                push!(Value::Channel(id));
                advance!();
                Ok(Step::Continue)
            }
            Builtin::Send => {
                // Stack: [chan, value]; peek both without popping until we
                // know the send can complete.
                let len = self.threads[tid].stack.len();
                if len < 2 {
                    return Err(RuntimeError::Internal("send needs chan and value".into()));
                }
                let c = as_chan(self.threads[tid].stack.get(len - 2), "send")?;
                if self.chans[c].queue.len() < self.chans[c].cap {
                    let v = pop!();
                    let _ = pop!();
                    if self.record {
                        self.events.push(VmEvent::ChanSend { tid, chan: c });
                    }
                    self.chans[c].queue.push_back(v);
                    push!(Value::Unit);
                    advance!();
                    Ok(Step::Continue)
                } else {
                    self.threads[tid].state = ThreadState::BlockedSend(c);
                    self.executed -= 1;
                    Ok(Step::Blocked)
                }
            }
            Builtin::Recv => {
                let c = as_chan(self.threads[tid].stack.last(), "recv")?;
                if let Some(v) = self.chans[c].queue.pop_front() {
                    if self.record {
                        self.events.push(VmEvent::ChanRecv { tid, chan: c });
                    }
                    let _ = pop!();
                    push!(v);
                    advance!();
                    Ok(Step::Continue)
                } else {
                    self.threads[tid].state = ThreadState::BlockedRecv(c);
                    self.executed -= 1;
                    Ok(Step::Blocked)
                }
            }
            Builtin::Join => {
                let u = match self.threads[tid].stack.last() {
                    Some(Value::Thread(u)) => *u,
                    Some(other) => {
                        return Err(RuntimeError::TypeError {
                            op: "join".into(),
                            found: other.type_name().into(),
                        })
                    }
                    None => return Err(RuntimeError::Internal("join with empty stack".into())),
                };
                if u >= self.threads.len() {
                    return Err(RuntimeError::NoSuchThread(u));
                }
                if self.threads[u].state == ThreadState::Finished {
                    if self.record {
                        self.events.push(VmEvent::Joined { tid, target: u });
                    }
                    let _ = pop!();
                    let r = self.threads[u].result.clone();
                    push!(r);
                    advance!();
                    Ok(Step::Continue)
                } else {
                    self.threads[tid].state = ThreadState::BlockedJoin(u);
                    self.executed -= 1;
                    Ok(Step::Blocked)
                }
            }
            Builtin::YieldNow => {
                push!(Value::Unit);
                advance!();
                Ok(Step::EndSlice)
            }
            Builtin::Sleep => {
                let n = match pop!() {
                    Value::Int(v) => v.max(0) as u64,
                    other => {
                        return Err(RuntimeError::TypeError {
                            op: "sleep".into(),
                            found: other.type_name().into(),
                        })
                    }
                };
                push!(Value::Unit);
                advance!();
                self.threads[tid].state = ThreadState::Sleeping {
                    until: self.executed + n,
                };
                Ok(Step::EndSlice)
            }
            Builtin::ThreadId => {
                push!(Value::Int(tid as i64));
                advance!();
                Ok(Step::Continue)
            }
            Builtin::RandInt => {
                let hi = match pop!() {
                    Value::Int(v) => v,
                    other => {
                        return Err(RuntimeError::TypeError {
                            op: "rand_int".into(),
                            found: other.type_name().into(),
                        })
                    }
                };
                let lo = match pop!() {
                    Value::Int(v) => v,
                    other => {
                        return Err(RuntimeError::TypeError {
                            op: "rand_int".into(),
                            found: other.type_name().into(),
                        })
                    }
                };
                let v = if lo >= hi {
                    lo
                } else {
                    self.rng_draws += 1;
                    self.rng.gen_range(lo..=hi)
                };
                push!(Value::Int(v));
                advance!();
                Ok(Step::Continue)
            }
            Builtin::ReadFile => {
                let path = as_str(pop!(), "read_file")?;
                let content = self.io.read_file(&path).map_err(RuntimeError::Io)?;
                push!(Value::str(content));
                advance!();
                Ok(Step::Continue)
            }
            Builtin::WriteFile => {
                let content = as_str(pop!(), "write_file")?;
                let path = as_str(pop!(), "write_file")?;
                self.io
                    .write_file(&path, &content)
                    .map_err(RuntimeError::Io)?;
                push!(Value::Unit);
                advance!();
                Ok(Step::Continue)
            }
            Builtin::AppendFile => {
                let content = as_str(pop!(), "append_file")?;
                let path = as_str(pop!(), "append_file")?;
                self.io
                    .append_file(&path, &content)
                    .map_err(RuntimeError::Io)?;
                push!(Value::Unit);
                advance!();
                Ok(Step::Continue)
            }
            Builtin::Now => {
                push!(Value::Int(self.executed as i64));
                advance!();
                Ok(Step::Continue)
            }
            Builtin::ReadLine => {
                let line = self.stdin.pop_front().unwrap_or_default();
                push!(Value::str(line));
                advance!();
                Ok(Step::Continue)
            }
            Builtin::ParseInt => {
                let s = as_str(pop!(), "parse_int")?;
                let v: i64 = s.trim().parse().map_err(|_| RuntimeError::TypeError {
                    op: "parse_int".into(),
                    found: format!("{s:?}"),
                })?;
                push!(Value::Int(v));
                advance!();
                Ok(Step::Continue)
            }
            Builtin::Substr => {
                let len = match pop!() {
                    Value::Int(v) => v,
                    other => {
                        return Err(RuntimeError::TypeError {
                            op: "substr".into(),
                            found: other.type_name().into(),
                        })
                    }
                };
                let start = match pop!() {
                    Value::Int(v) => v,
                    other => {
                        return Err(RuntimeError::TypeError {
                            op: "substr".into(),
                            found: other.type_name().into(),
                        })
                    }
                };
                let s = as_str(pop!(), "substr")?;
                let start = start.clamp(0, s.len() as i64) as usize;
                let end = (start + len.max(0) as usize).min(s.len());
                push!(Value::str(s[start..end].to_string()));
                advance!();
                Ok(Step::Continue)
            }
            Builtin::Assert => {
                let cond = pop!();
                if !cond.truthy() {
                    return Err(RuntimeError::AssertionFailed);
                }
                push!(Value::Unit);
                advance!();
                Ok(Step::Continue)
            }
            Builtin::CondNew => {
                let id = self.conds.len();
                self.conds.push(CondState);
                push!(Value::Cond(id));
                advance!();
                Ok(Step::Continue)
            }
            Builtin::CondWait => {
                // Stack: [cv, m]. Two phases; `cond_resume` marks phase two.
                let len = self.threads[tid].stack.len();
                if len < 2 {
                    return Err(RuntimeError::Internal(
                        "cond_wait needs cv and mutex".into(),
                    ));
                }
                let m = as_mutex(self.threads[tid].stack.last(), "cond_wait")?;
                let cv = match self.threads[tid].stack.get(len - 2) {
                    Some(Value::Cond(c)) => *c,
                    Some(other) => {
                        return Err(RuntimeError::TypeError {
                            op: "cond_wait".into(),
                            found: other.type_name().into(),
                        })
                    }
                    None => return Err(RuntimeError::Internal("cond_wait stack".into())),
                };
                if let Some((rcv, rm)) = self.threads[tid].cond_resume {
                    debug_assert_eq!((rcv, rm), (cv, m), "resume matches the waited pair");
                    // Phase two: take the mutex back (it is free, is_ready
                    // guaranteed it; but another thread may have barged in
                    // this same slice).
                    if self.mutexes[m].locked_by.is_none() {
                        self.mutexes[m].locked_by = Some(tid);
                        self.threads[tid].cond_resume = None;
                        if self.record {
                            self.events.push(VmEvent::CondAcquire { tid, cv, mutex: m });
                        }
                        let _ = pop!();
                        let _ = pop!();
                        push!(Value::Unit);
                        advance!();
                        Ok(Step::Continue)
                    } else {
                        self.threads[tid].state = ThreadState::BlockedCond {
                            cv,
                            mutex: m,
                            woken: true,
                        };
                        self.executed -= 1;
                        Ok(Step::Blocked)
                    }
                } else {
                    // Phase one: caller must hold the mutex; release it and park.
                    if self.mutexes[m].locked_by != Some(tid) {
                        return Err(RuntimeError::NotLockOwner { mutex: m });
                    }
                    self.mutexes[m].locked_by = None;
                    if self.record {
                        self.events.push(VmEvent::CondRelease { tid, cv, mutex: m });
                    }
                    self.threads[tid].state = ThreadState::BlockedCond {
                        cv,
                        mutex: m,
                        woken: false,
                    };
                    self.executed -= 1;
                    Ok(Step::Blocked)
                }
            }
            Builtin::CondNotify | Builtin::CondBroadcast => {
                let cv = match self.threads[tid].stack.last() {
                    Some(Value::Cond(c)) => *c,
                    Some(other) => {
                        return Err(RuntimeError::TypeError {
                            op: "cond_notify".into(),
                            found: other.type_name().into(),
                        })
                    }
                    None => return Err(RuntimeError::Internal("cond_notify stack".into())),
                };
                let broadcast = b == Builtin::CondBroadcast;
                if self.record {
                    self.events.push(VmEvent::CondNotify { tid, cv });
                }
                for t in 0..self.threads.len() {
                    if let ThreadState::BlockedCond {
                        cv: tcv,
                        woken: false,
                        mutex,
                    } = self.threads[t].state
                    {
                        if tcv == cv {
                            self.threads[t].state = ThreadState::BlockedCond {
                                cv: tcv,
                                mutex,
                                woken: true,
                            };
                            if !broadcast {
                                break;
                            }
                        }
                    }
                }
                let _ = pop!();
                push!(Value::Unit);
                advance!();
                Ok(Step::Continue)
            }
            Builtin::Tas | Builtin::AtomicAdd => Err(RuntimeError::Internal(
                "atomics must lower to dedicated instructions".into(),
            )),
        }
    }

    /// Snapshot a global by name after a run (autograders use this).
    pub fn global(&self, name: &str) -> Option<&Value> {
        let slot = self.program.find_global(name)?;
        self.globals.get(slot)
    }
}

// ---- helpers ---------------------------------------------------------------

/// FNV-1a, the checker's canonical-state digest. Not a general hasher: the
/// traversal order in [`Vm::state_hash`] is part of the format.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        for b in s.bytes() {
            self.byte(b);
        }
    }
}

/// Hash one value. Arrays are identified by first-visit order within this
/// walk — never by pointer — so aliasing structure hashes canonically and
/// two executions reaching the same abstract state agree. Contents are
/// cloned out of the lock before recursing (same reentrancy rule as
/// [`collect_arrays`]).
fn hash_value(v: &Value, h: &mut Fnv, seen: &mut HashMap<usize, usize>) {
    match v {
        Value::Int(x) => {
            h.byte(1);
            h.i64(*x);
        }
        Value::Bool(b) => {
            h.byte(2);
            h.byte(*b as u8);
        }
        Value::Str(s) => {
            h.byte(3);
            h.str(s);
        }
        Value::Array(a) => {
            let ptr = std::sync::Arc::as_ptr(a) as usize;
            let next = seen.len();
            if let Some(&idx) = seen.get(&ptr) {
                h.byte(4);
                h.usize(idx);
            } else {
                seen.insert(ptr, next);
                h.byte(5);
                h.usize(next);
                let items = lock_array(a).clone();
                h.usize(items.len());
                for item in &items {
                    hash_value(item, h, seen);
                }
            }
        }
        Value::Thread(t) => {
            h.byte(6);
            h.usize(*t);
        }
        Value::Mutex(m) => {
            h.byte(7);
            h.usize(*m);
        }
        Value::Semaphore(s) => {
            h.byte(8);
            h.usize(*s);
        }
        Value::Channel(c) => {
            h.byte(9);
            h.usize(*c);
        }
        Value::Cond(c) => {
            h.byte(10);
            h.usize(*c);
        }
        Value::Unit => h.byte(11),
    }
}

/// What an arithmetic or comparison instruction yields on two ints, or
/// `None` for a zero divisor. Arithmetic wraps.
fn int_binop(instr: Instr, x: i64, y: i64) -> Option<Value> {
    Some(match instr {
        Instr::Add => Value::Int(x.wrapping_add(y)),
        Instr::Sub => Value::Int(x.wrapping_sub(y)),
        Instr::Mul => Value::Int(x.wrapping_mul(y)),
        Instr::Div if y != 0 => Value::Int(x.wrapping_div(y)),
        Instr::Mod if y != 0 => Value::Int(x.wrapping_rem(y)),
        Instr::Div | Instr::Mod => return None,
        Instr::CmpEq => Value::Bool(x == y),
        Instr::CmpNe => Value::Bool(x != y),
        Instr::CmpLt => Value::Bool(x < y),
        Instr::CmpLe => Value::Bool(x <= y),
        Instr::CmpGt => Value::Bool(x > y),
        Instr::CmpGe => Value::Bool(x >= y),
        _ => unreachable!("{instr:?} is not a binary instruction"),
    })
}

/// What an arithmetic or comparison instruction yields when its operands
/// are not two ints: `+` concatenates when either side is a string
/// (Java-style), `==` and `!=` compare structurally, `<`, `<=`, `>` and
/// `>=` order two strings or two bools, and the rest is a type error.
fn mixed_binop(instr: Instr, a: Value, b: Value) -> Result<Value, RuntimeError> {
    let type_error = |op: &str, a: &Value, b: &Value| RuntimeError::TypeError {
        op: op.into(),
        found: format!("{} and {}", a.type_name(), b.type_name()),
    };
    match (instr, &a, &b) {
        (Instr::Add, Value::Str(x), y) => Ok(Value::str(format!("{x}{y}"))),
        (Instr::Add, x, Value::Str(y)) => Ok(Value::str(format!("{x}{y}"))),
        (Instr::CmpEq, ..) => Ok(Value::Bool(a.eq_value(&b))),
        (Instr::CmpNe, ..) => Ok(Value::Bool(!a.eq_value(&b))),
        (Instr::CmpLt | Instr::CmpLe | Instr::CmpGt | Instr::CmpGe, ..) => {
            let ord = match (&a, &b) {
                (Value::Str(x), Value::Str(y)) => x.cmp(y),
                (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
                _ => return Err(type_error("comparison", &a, &b)),
            };
            Ok(Value::Bool(match instr {
                Instr::CmpLt => ord.is_lt(),
                Instr::CmpLe => ord.is_le(),
                Instr::CmpGt => ord.is_gt(),
                _ => ord.is_ge(),
            }))
        }
        (Instr::Add, ..) => Err(type_error("+", &a, &b)),
        (Instr::Sub, ..) => Err(type_error("-", &a, &b)),
        (Instr::Mul, ..) => Err(type_error("*", &a, &b)),
        (Instr::Div, ..) => Err(type_error("/", &a, &b)),
        (Instr::Mod, ..) => Err(type_error("%", &a, &b)),
        _ => unreachable!("{instr:?} is not a binary instruction"),
    }
}

fn index_get(arr: &Value, idx: &Value) -> Result<Value, RuntimeError> {
    let i = match idx {
        Value::Int(v) => *v,
        other => {
            return Err(RuntimeError::TypeError {
                op: "index".into(),
                found: other.type_name().into(),
            })
        }
    };
    match arr {
        Value::Array(a) => {
            let a = lock_array(a);
            if i < 0 || i as usize >= a.len() {
                return Err(RuntimeError::IndexOutOfBounds {
                    index: i,
                    len: a.len(),
                });
            }
            Ok(a[i as usize].clone())
        }
        Value::Str(s) => {
            if i < 0 || i as usize >= s.len() {
                return Err(RuntimeError::IndexOutOfBounds {
                    index: i,
                    len: s.len(),
                });
            }
            Ok(Value::str(s[i as usize..i as usize + 1].to_string()))
        }
        other => Err(RuntimeError::TypeError {
            op: "index".into(),
            found: other.type_name().into(),
        }),
    }
}

fn index_set(arr: &Value, idx: &Value, v: Value) -> Result<(), RuntimeError> {
    let i = match idx {
        Value::Int(x) => *x,
        other => {
            return Err(RuntimeError::TypeError {
                op: "index".into(),
                found: other.type_name().into(),
            })
        }
    };
    match arr {
        Value::Array(a) => {
            let mut a = lock_array(a);
            let len = a.len();
            if i < 0 || i as usize >= len {
                return Err(RuntimeError::IndexOutOfBounds { index: i, len });
            }
            a[i as usize] = v;
            Ok(())
        }
        other => Err(RuntimeError::TypeError {
            op: "index assignment".into(),
            found: other.type_name().into(),
        }),
    }
}

fn as_mutex(v: Option<&Value>, op: &str) -> Result<usize, RuntimeError> {
    match v {
        Some(Value::Mutex(m)) => Ok(*m),
        Some(other) => Err(RuntimeError::TypeError {
            op: op.into(),
            found: other.type_name().into(),
        }),
        None => Err(RuntimeError::Internal(format!("{op} with empty stack"))),
    }
}

fn as_sem(v: Option<&Value>, op: &str) -> Result<usize, RuntimeError> {
    match v {
        Some(Value::Semaphore(s)) => Ok(*s),
        Some(other) => Err(RuntimeError::TypeError {
            op: op.into(),
            found: other.type_name().into(),
        }),
        None => Err(RuntimeError::Internal(format!("{op} with empty stack"))),
    }
}

fn as_chan(v: Option<&Value>, op: &str) -> Result<usize, RuntimeError> {
    match v {
        Some(Value::Channel(c)) => Ok(*c),
        Some(other) => Err(RuntimeError::TypeError {
            op: op.into(),
            found: other.type_name().into(),
        }),
        None => Err(RuntimeError::Internal(format!("{op} with empty stack"))),
    }
}

fn as_str(v: Value, op: &str) -> Result<String, RuntimeError> {
    match v {
        Value::Str(s) => Ok(s.as_ref().clone()),
        other => Err(RuntimeError::TypeError {
            op: op.into(),
            found: other.type_name().into(),
        }),
    }
}
