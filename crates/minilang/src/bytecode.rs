//! The compiled form: a flat instruction stream per function.
//!
//! Preemption happens *between instructions*, so instruction granularity
//! defines the observable interleavings: `x = x + 1` on a global compiles
//! to `LoadGlobal, Const, Add, StoreGlobal` — four points at which another
//! thread can run, which is exactly how the lost-update race of Lab 1/Lab 5
//! becomes observable.

use crate::value::Value;
use std::fmt;

/// Identifies a user function within a [`Program`].
pub(crate) type FnId = usize;

/// The builtin operations surfaced to the language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    /// `print(v, ...)` — write values, no newline.
    Print,
    /// `println(v, ...)` — write values then newline.
    Println,
    /// `len(array|string)`.
    Len,
    /// `push(array, v)`.
    Push,
    /// `str(v)` — render to string.
    ToStr,
    /// `mutex()` — create a mutex.
    MutexNew,
    /// `lock(m)` — blocking acquire.
    Lock,
    /// `unlock(m)` — release (owner only).
    Unlock,
    /// `semaphore(n)` — counting semaphore with initial count n.
    SemNew,
    /// `sem_wait(s)` — P operation.
    SemWait,
    /// `sem_post(s)` — V operation.
    SemPost,
    /// `channel(cap)` — bounded FIFO channel.
    ChanNew,
    /// `send(c, v)` — blocking send.
    Send,
    /// `recv(c)` — blocking receive.
    Recv,
    /// `join(t)` — wait for a thread to finish, yielding its return value.
    Join,
    /// `tas(name)` is compiled to [`Instr::Tas`]; this variant exists only
    /// for arity checking before lowering.
    Tas,
    /// `atomic_add(name, delta)` lowered to [`Instr::AtomicAdd`].
    AtomicAdd,
    /// `yield_now()` — give up the remainder of the quantum.
    YieldNow,
    /// `sleep(n)` — deschedule for n scheduler ticks.
    Sleep,
    /// `thread_id()` — the calling green thread's id.
    ThreadId,
    /// `rand_int(lo, hi)` — deterministic per-VM-seed uniform integer.
    RandInt,
    /// `read_file(path)` — host I/O hook.
    ReadFile,
    /// `write_file(path, s)` — host I/O hook.
    WriteFile,
    /// `append_file(path, s)` — host I/O hook.
    AppendFile,
    /// `now()` — current VM tick (instructions executed so far).
    Now,
    /// `read_line()` — pop the next queued stdin line ("" when exhausted).
    ReadLine,
    /// `parse_int(s)` — parse a decimal integer (runtime error when malformed).
    ParseInt,
    /// `substr(s, start, len)` — substring by byte range (clamped).
    Substr,
    /// `assert(cond)` — raise a runtime error when falsy.
    Assert,
    /// `condvar()` — create a condition variable.
    CondNew,
    /// `cond_wait(cv, m)` — atomically release `m` and sleep; re-acquires
    /// `m` before returning (Mesa semantics: always re-check the predicate).
    CondWait,
    /// `cond_notify(cv)` — wake one waiter.
    CondNotify,
    /// `cond_broadcast(cv)` — wake all waiters.
    CondBroadcast,
}

impl Builtin {
    /// Resolve a source-level name.
    pub(crate) fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "print" => Builtin::Print,
            "println" => Builtin::Println,
            "len" => Builtin::Len,
            "push" => Builtin::Push,
            "str" => Builtin::ToStr,
            "mutex" => Builtin::MutexNew,
            "lock" => Builtin::Lock,
            "unlock" => Builtin::Unlock,
            "semaphore" => Builtin::SemNew,
            "sem_wait" => Builtin::SemWait,
            "sem_post" => Builtin::SemPost,
            "channel" => Builtin::ChanNew,
            "send" => Builtin::Send,
            "recv" => Builtin::Recv,
            "join" => Builtin::Join,
            "tas" => Builtin::Tas,
            "atomic_add" => Builtin::AtomicAdd,
            "yield_now" => Builtin::YieldNow,
            "sleep" => Builtin::Sleep,
            "thread_id" => Builtin::ThreadId,
            "rand_int" => Builtin::RandInt,
            "read_file" => Builtin::ReadFile,
            "write_file" => Builtin::WriteFile,
            "append_file" => Builtin::AppendFile,
            "now" => Builtin::Now,
            "read_line" => Builtin::ReadLine,
            "parse_int" => Builtin::ParseInt,
            "substr" => Builtin::Substr,
            "assert" => Builtin::Assert,
            "condvar" => Builtin::CondNew,
            "cond_wait" => Builtin::CondWait,
            "cond_notify" => Builtin::CondNotify,
            "cond_broadcast" => Builtin::CondBroadcast,
            _ => return None,
        })
    }

    /// `(min_args, max_args)` accepted.
    pub(crate) fn arity(self) -> (usize, usize) {
        match self {
            Builtin::Print | Builtin::Println => (0, usize::MAX),
            Builtin::Len
            | Builtin::ToStr
            | Builtin::Lock
            | Builtin::Unlock
            | Builtin::SemWait
            | Builtin::SemPost
            | Builtin::Recv
            | Builtin::Join
            | Builtin::Tas
            | Builtin::Sleep
            | Builtin::ParseInt
            | Builtin::Assert
            | Builtin::ReadFile => (1, 1),
            Builtin::Push
            | Builtin::Send
            | Builtin::AtomicAdd
            | Builtin::RandInt
            | Builtin::WriteFile
            | Builtin::AppendFile => (2, 2),
            Builtin::MutexNew
            | Builtin::YieldNow
            | Builtin::ThreadId
            | Builtin::Now
            | Builtin::ReadLine
            | Builtin::CondNew => (0, 0),
            Builtin::CondWait => (2, 2),
            Builtin::CondNotify | Builtin::CondBroadcast => (1, 1),
            Builtin::SemNew | Builtin::ChanNew => (1, 1),
            Builtin::Substr => (3, 3),
        }
    }
}

/// One VM instruction. `Copy` matters: the interpreter fetches one of
/// these per step, and a dense copyable opcode keeps that fetch a plain
/// 16-byte move instead of a clone call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Instr {
    /// Push constant-pool entry.
    Const(usize),
    /// Push local slot.
    LoadLocal(usize),
    /// Pop into local slot.
    StoreLocal(usize),
    /// Push global slot (a *shared-memory read*).
    LoadGlobal(usize),
    /// Pop into global slot (a *shared-memory write*).
    StoreGlobal(usize),
    /// Arithmetic/comparison: pop rhs, pop lhs, push result.
    Add,
    /// Subtract.
    Sub,
    /// Multiply.
    Mul,
    /// Divide (checked).
    Div,
    /// Modulo (checked).
    Mod,
    /// Negate top of stack.
    Neg,
    /// Logical not.
    Not,
    /// Equality test.
    CmpEq,
    /// Inequality test.
    CmpNe,
    /// Less-than.
    CmpLt,
    /// Less-or-equal.
    CmpLe,
    /// Greater-than.
    CmpGt,
    /// Greater-or-equal.
    CmpGe,
    /// Unconditional jump to absolute offset.
    Jump(usize),
    /// Pop; jump when falsy.
    JumpIfFalse(usize),
    /// Pop; jump when truthy (for `||` short circuit; leaves nothing).
    JumpIfTrue(usize),
    /// Discard top of stack.
    Pop,
    /// Call user function with `argc` stacked arguments.
    Call {
        /// Target function.
        func: FnId,
        /// Argument count.
        argc: usize,
    },
    /// Invoke a builtin with `argc` stacked arguments; pushes a result.
    CallBuiltin {
        /// Which builtin.
        builtin: Builtin,
        /// Argument count.
        argc: usize,
    },
    /// Spawn a green thread running `func` with `argc` stacked arguments;
    /// pushes the thread handle.
    Spawn {
        /// Target function.
        func: FnId,
        /// Argument count.
        argc: usize,
    },
    /// Return; pops the return value (functions always leave one).
    Return,
    /// Pop `n` items into a new array (in declaration order).
    MakeArray(usize),
    /// Pop index, pop array, push element.
    IndexGet,
    /// Pop value, pop index, pop array; store element.
    IndexSet,
    /// Atomic test-and-set on global slot: push old value, set slot to 1.
    /// One instruction == one atomic action — that is the whole point.
    Tas(usize),
    /// Atomic add on global slot: pop delta, push old value, add delta.
    AtomicAdd(usize),
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Function {
    /// Name (for traces and errors).
    pub name: String,
    /// Number of parameters.
    pub arity: usize,
    /// Total local slots (params + locals).
    pub locals: usize,
    /// Instruction stream.
    pub code: Vec<Instr>,
}

/// A compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Constant pool.
    pub consts: Vec<Value>,
    /// Global slot names (index = slot).
    pub global_names: Vec<String>,
    /// Functions; `entry` and `init` index into this.
    pub(crate) functions: Vec<Function>,
    /// Index of `main`.
    pub entry: FnId,
    /// Index of the synthesized global-initializer function (runs first).
    pub init: FnId,
}

impl Program {
    /// Look up a global slot by name.
    pub(crate) fn find_global(&self, name: &str) -> Option<usize> {
        self.global_names.iter().position(|n| n == name)
    }
}

impl fmt::Display for Program {
    /// Disassembly listing, for debugging and the portal's "view compiled
    /// output" feature.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (fi, func) in self.functions.iter().enumerate() {
            writeln!(
                f,
                "fn #{fi} {}({} args, {} locals):",
                func.name, func.arity, func.locals
            )?;
            for (pc, ins) in func.code.iter().enumerate() {
                writeln!(f, "  {pc:4}: {ins:?}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_name_resolution() {
        assert_eq!(Builtin::from_name("lock"), Some(Builtin::Lock));
        assert_eq!(Builtin::from_name("sem_wait"), Some(Builtin::SemWait));
        assert_eq!(Builtin::from_name("nonsense"), None);
    }

    #[test]
    fn arity_table() {
        assert_eq!(Builtin::MutexNew.arity(), (0, 0));
        assert_eq!(Builtin::Send.arity(), (2, 2));
        assert_eq!(Builtin::Print.arity().1, usize::MAX);
    }

    #[test]
    fn program_lookup() {
        let p = Program {
            consts: vec![],
            global_names: vec!["a".into(), "b".into()],
            functions: vec![Function {
                name: "main".into(),
                arity: 0,
                locals: 0,
                code: vec![],
            }],
            entry: 0,
            init: 0,
        };
        assert_eq!(p.find_global("b"), Some(1));
        assert_eq!(p.find_global("zz"), None);
    }
}
