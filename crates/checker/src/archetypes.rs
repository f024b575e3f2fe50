//! A corpus of small concurrency archetypes with known verdicts, sized so
//! unreduced DFS can exhaust their schedule spaces. They serve three
//! masters: the golden-verdict suite (each program's class is pinned), the
//! DPOR differential harness (reduced and unreduced exploration must agree
//! on every one), and the reduction benchmarks (schedule counts with and
//! without DPOR are compared on them).
//!
//! The order-dependent ones are chosen to *defeat naive reduction*: each
//! hides its violation behind one specific ordering of dependent
//! operations, so any reducer that wrongly commutes a dependent pair —
//! lock/lock, notify/wait, send/send — silently loses the bug. The
//! differential harness exists to catch exactly that.

/// Two threads incrementing a shared counter under a mutex, two increments
/// each — clean, with a branchy enough tree (lock-acquisition orders) that
/// reduction has something to prune.
pub fn mini_locked_counter() -> &'static str {
    r#"
        var count = 0;
        var m;
        fn bump() {
            for (var i = 0; i < 2; i = i + 1) {
                lock(m);
                count = count + 1;
                unlock(m);
            }
        }
        fn main() {
            m = mutex();
            var a = spawn bump();
            var b = spawn bump();
            join(a);
            join(b);
            return count;
        }
    "#
}

/// The same counter without the mutex — a data race on `count`.
pub(crate) fn mini_racy_counter() -> &'static str {
    r#"
        var count = 0;
        fn bump() {
            count = count + 1;
        }
        fn main() {
            var a = spawn bump();
            var b = spawn bump();
            join(a);
            join(b);
            return count;
        }
    "#
}

/// Classic lock-order inversion: thread 1 takes `a` then `b`, thread 2
/// takes `b` then `a` — deadlock only when both first acquisitions land
/// before either second one.
pub(crate) fn lock_inversion() -> &'static str {
    r#"
        var a;
        var b;
        fn one() {
            lock(a);
            lock(b);
            unlock(b);
            unlock(a);
        }
        fn two() {
            lock(b);
            lock(a);
            unlock(a);
            unlock(b);
        }
        fn main() {
            a = mutex();
            b = mutex();
            var t1 = spawn one();
            var t2 = spawn two();
            join(t1);
            join(t2);
        }
    "#
}

/// Racy-then-synchronized writes: both threads touch `x` without the lock
/// *around* a properly locked section. Whether the unlocked writes are
/// happens-ordered depends on which thread goes through the mutex first —
/// thread 1 first: `x = 1` releases through `m` into thread 2's `x = 2`,
/// no race; thread 2 first: nothing orders the pair, race. A reducer that
/// commutes the lock acquisitions sees only the clean ordering.
pub fn racy_then_synced() -> &'static str {
    r#"
        var x = 0;
        var y = 0;
        var m;
        fn one() {
            x = 1;
            lock(m);
            y = y + 1;
            unlock(m);
        }
        fn two() {
            lock(m);
            y = y + 1;
            unlock(m);
            x = 2;
        }
        fn main() {
            m = mutex();
            var t1 = spawn one();
            var t2 = spawn two();
            join(t1);
            join(t2);
        }
    "#
}

/// Condition-variable lost wakeup: the notifier fires exactly once, so the
/// notify/wait *order* decides the outcome — waiter parks first: woken,
/// clean; notify first: the wakeup is lost and the waiter parks forever
/// (deadlock). Notify and wait on the same condvar are dependent; a
/// reducer that commutes them only ever sees the clean ordering.
pub fn lost_wakeup() -> &'static str {
    r#"
        var m;
        var cv;
        fn waiter() {
            lock(m);
            cond_wait(cv, m);
            unlock(m);
        }
        fn notifier() {
            cond_notify(cv);
        }
        fn main() {
            m = mutex();
            cv = condvar();
            var a = spawn waiter();
            var b = spawn notifier();
            join(a);
            join(b);
        }
    "#
}

/// Channel-drain race: two producers race their sends into a capacity-1
/// channel and the consumer keeps draining only when producer 1's value
/// arrived first. Producer 2 first: the consumer stops, the channel stays
/// full, and producer 1's second send blocks forever — a deadlock
/// reachable only under one send order. The sends target the same channel
/// and are dependent; commuting them hides the losing order.
pub fn channel_drain_race() -> &'static str {
    r#"
        var c;
        fn one() {
            send(c, 1);
            send(c, 1);
        }
        fn two() {
            send(c, 2);
        }
        fn main() {
            c = channel(1);
            var t1 = spawn one();
            var t2 = spawn two();
            var v = recv(c);
            if (v == 1) {
                var w = recv(c);
                var u = recv(c);
            }
            join(t1);
            join(t2);
        }
    "#
}

/// Producer/consumer over a capacity-1 channel with a post-handoff
/// unsynchronized write — clean (the channel's happens-before edges order
/// everything), but full of dependent send/recv pairs for reduction to
/// reason about.
pub(crate) fn mini_channel_pipeline() -> &'static str {
    r#"
        var done = 0;
        var c;
        fn producer() {
            send(c, 10);
            send(c, 20);
        }
        fn main() {
            c = channel(1);
            var p = spawn producer();
            var a = recv(c);
            var b = recv(c);
            join(p);
            done = a + b;
            return done;
        }
    "#
}

/// Two workers ping-ponging a semaphore — clean, semaphore-heavy so the
/// differential corpus covers `sem_wait`/`sem_post` dependence.
pub fn mini_semaphore_pingpong() -> &'static str {
    r#"
        var turns = 0;
        var s;
        var t;
        fn ping() {
            for (var i = 0; i < 2; i = i + 1) {
                sem_wait(s);
                turns = turns + 1;
                sem_post(t);
            }
        }
        fn pong() {
            for (var i = 0; i < 2; i = i + 1) {
                sem_wait(t);
                turns = turns + 1;
                sem_post(s);
            }
        }
        fn main() {
            s = semaphore(1);
            t = semaphore(0);
            var a = spawn ping();
            var b = spawn pong();
            join(a);
            join(b);
            return turns;
        }
    "#
}

/// `mini_locked_counter` scaled to `iters` locked increments per thread —
/// clean, with a schedule space that grows fast in `iters`, for reduction
/// benchmarks that want a deeper tree than the minis offer.
pub fn scaled_locked_counter(iters: usize) -> String {
    format!(
        r#"
        var count = 0;
        var m;
        fn bump() {{
            for (var i = 0; i < {iters}; i = i + 1) {{
                lock(m);
                count = count + 1;
                unlock(m);
            }}
        }}
        fn main() {{
            m = mutex();
            var a = spawn bump();
            var b = spawn bump();
            join(a);
            join(b);
            return count;
        }}
        "#
    )
}

/// `mini_semaphore_pingpong` scaled to `iters` turns per thread — clean,
/// semaphore-ordered, so almost the entire unreduced tree is redundant
/// interleaving of independent ops.
pub fn scaled_semaphore_pingpong(iters: usize) -> String {
    format!(
        r#"
        var turns = 0;
        var s;
        var t;
        fn ping() {{
            for (var i = 0; i < {iters}; i = i + 1) {{
                sem_wait(s);
                turns = turns + 1;
                sem_post(t);
            }}
        }}
        fn pong() {{
            for (var i = 0; i < {iters}; i = i + 1) {{
                sem_wait(t);
                turns = turns + 1;
                sem_post(s);
            }}
        }}
        fn main() {{
            s = semaphore(1);
            t = semaphore(0);
            var a = spawn ping();
            var b = spawn pong();
            join(a);
            join(b);
            return turns;
        }}
        "#
    )
}

/// The whole corpus with its expected verdict classes (`"clean"`,
/// `"race"`, `"deadlock"`), for harnesses that sweep it.
pub fn corpus() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        ("mini_locked_counter", mini_locked_counter(), "clean"),
        ("mini_racy_counter", mini_racy_counter(), "race"),
        ("lock_inversion", lock_inversion(), "deadlock"),
        ("racy_then_synced", racy_then_synced(), "race"),
        ("lost_wakeup", lost_wakeup(), "deadlock"),
        ("channel_drain_race", channel_drain_race(), "deadlock"),
        ("mini_channel_pipeline", mini_channel_pipeline(), "clean"),
        (
            "mini_semaphore_pingpong",
            mini_semaphore_pingpong(),
            "clean",
        ),
    ]
}
