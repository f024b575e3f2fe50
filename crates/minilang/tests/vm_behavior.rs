//! End-to-end behavioral tests for the minilang pipeline: source in,
//! observable behavior out — including the concurrency pathologies the
//! course labs depend on (lost updates, deadlock, synchronization fixes).

use minilang::{
    compile, compile_and_run, LangError, MemoryIo, RuntimeError, SchedPolicy, Value, Vm, VmConfig,
};

fn run_seeded(src: &str, seed: u64) -> minilang::ExecOutcome {
    compile_and_run(src, seed).unwrap()
}

fn run_err(src: &str, seed: u64) -> RuntimeError {
    match compile_and_run(src, seed) {
        Err(LangError::Runtime(e)) => e,
        other => panic!("expected runtime error, got {other:?}"),
    }
}

// ---- sequential semantics ---------------------------------------------------

#[test]
fn arithmetic_and_printing() {
    let out = run_seeded(
        "fn main() { println(2 + 3 * 4, \" \", 10 / 3, \" \", 10 % 3); }",
        0,
    );
    assert_eq!(out.stdout, "14 3 1\n");
}

#[test]
fn string_concatenation() {
    let out = run_seeded(r#"fn main() { println("x=" + 42 + "!"); }"#, 0);
    assert_eq!(out.stdout, "x=42!\n");
}

#[test]
fn fibonacci_recursion() {
    let src = r#"
        fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
        fn main() { return fib(15); }
    "#;
    let out = run_seeded(src, 0);
    assert_eq!(out.main_result, Value::Int(610));
}

#[test]
fn while_and_for_loops_agree() {
    let src = r#"
        fn main() {
            var a = 0;
            var i = 0;
            while (i < 10) { a = a + i; i = i + 1; }
            var b = 0;
            for (var j = 0; j < 10; j = j + 1) { b = b + j; }
            println(a, ",", b);
        }
    "#;
    assert_eq!(run_seeded(src, 0).stdout, "45,45\n");
}

#[test]
fn break_continue_semantics() {
    let src = r#"
        fn main() {
            var s = 0;
            for (var i = 0; i < 100; i = i + 1) {
                if (i % 2 == 0) { continue; }
                if (i > 10) { break; }
                s = s + i;
            }
            return s; // 1+3+5+7+9 = 25
        }
    "#;
    assert_eq!(run_seeded(src, 0).main_result, Value::Int(25));
}

#[test]
fn arrays_read_write_len_push() {
    let src = r#"
        fn main() {
            var a = [10, 20, 30];
            a[1] = a[0] + a[2];
            push(a, 99);
            println(a, " len=", len(a), " a1=", a[1]);
        }
    "#;
    assert_eq!(run_seeded(src, 0).stdout, "[10, 40, 30, 99] len=4 a1=40\n");
}

#[test]
fn arrays_are_shared_references() {
    let src = r#"
        fn mutate(arr) { arr[0] = 777; }
        fn main() { var a = [1]; mutate(a); return a[0]; }
    "#;
    assert_eq!(run_seeded(src, 0).main_result, Value::Int(777));
}

#[test]
fn short_circuit_does_not_evaluate_rhs() {
    let src = r#"
        var hits = 0;
        fn bump() { hits = hits + 1; return true; }
        fn main() {
            var x = false && bump();
            var y = true || bump();
            return hits;
        }
    "#;
    assert_eq!(run_seeded(src, 0).main_result, Value::Int(0));
}

#[test]
fn else_if_chains() {
    let src = r#"
        fn grade(x) {
            if (x >= 90) { return "A"; }
            else if (x >= 80) { return "B"; }
            else if (x >= 70) { return "C"; }
            else { return "F"; }
        }
        fn main() { println(grade(95), grade(85), grade(72), grade(10)); }
    "#;
    assert_eq!(run_seeded(src, 0).stdout, "ABCF\n");
}

#[test]
fn global_initializers_run_in_order() {
    let src = r#"
        var a = 10;
        var b = a * 2;
        fn main() { return b; }
    "#;
    assert_eq!(run_seeded(src, 0).main_result, Value::Int(20));
}

#[test]
fn string_indexing_and_len() {
    let src = r#"fn main() { var s = "hello"; println(s[1], len(s)); }"#;
    assert_eq!(run_seeded(src, 0).stdout, "e5\n");
}

#[test]
fn negative_and_not() {
    let src = "fn main() { println(-5 + 3, !true, !0); }";
    assert_eq!(run_seeded(src, 0).stdout, "-2falsetrue\n");
}

// ---- runtime errors ---------------------------------------------------------

#[test]
fn division_by_zero_reported() {
    assert_eq!(
        run_err("fn main() { var x = 1 / 0; }", 0),
        RuntimeError::DivisionByZero
    );
    assert_eq!(
        run_err("fn main() { var x = 1 % 0; }", 0),
        RuntimeError::DivisionByZero
    );
}

#[test]
fn index_out_of_bounds_reported() {
    let e = run_err("fn main() { var a = [1]; return a[5]; }", 0);
    assert_eq!(e, RuntimeError::IndexOutOfBounds { index: 5, len: 1 });
    let e = run_err("fn main() { var a = [1]; return a[-1]; }", 0);
    assert!(matches!(
        e,
        RuntimeError::IndexOutOfBounds { index: -1, .. }
    ));
}

#[test]
fn type_errors_reported() {
    assert!(matches!(
        run_err("fn main() { var x = true * 2; }", 0),
        RuntimeError::TypeError { .. }
    ));
    assert!(matches!(
        run_err("fn main() { lock(5); }", 0),
        RuntimeError::TypeError { .. }
    ));
    assert!(matches!(
        run_err(r#"fn main() { var x = "a" - "b"; }"#, 0),
        RuntimeError::TypeError { .. }
    ));
}

#[test]
fn unlock_without_lock_is_an_error() {
    let e = run_err("fn main() { var m = mutex(); unlock(m); }", 0);
    assert_eq!(e, RuntimeError::NotLockOwner { mutex: 0 });
}

#[test]
fn runaway_loop_hits_budget() {
    let src = "fn main() { while (true) { } }";
    let prog = compile(src).unwrap();
    let mut vm = Vm::new(
        prog,
        VmConfig {
            max_instructions: 10_000,
            ..VmConfig::default()
        },
    );
    assert!(matches!(
        vm.run(),
        Err(RuntimeError::BudgetExhausted { .. })
    ));
}

// ---- threads and scheduling ---------------------------------------------------

#[test]
fn spawn_join_returns_value() {
    let src = r#"
        fn square(n) { return n * n; }
        fn main() {
            var t = spawn square(12);
            return join(t);
        }
    "#;
    assert_eq!(run_seeded(src, 7).main_result, Value::Int(144));
}

#[test]
fn join_already_finished_thread() {
    let src = r#"
        fn quick() { return 1; }
        fn main() {
            var t = spawn quick();
            sleep(1000);
            return join(t);
        }
    "#;
    assert_eq!(run_seeded(src, 3).main_result, Value::Int(1));
}

#[test]
fn unsynchronized_counter_loses_updates() {
    // The Lab 1 / Lab 5 pathology: two threads increment a shared counter
    // 200 times each without synchronization. Under random preemption the
    // read-modify-write interleaves and updates are lost.
    let src = r#"
        var counter = 0;
        fn worker() {
            for (var i = 0; i < 200; i = i + 1) { counter = counter + 1; }
        }
        fn main() {
            var t1 = spawn worker();
            var t2 = spawn worker();
            join(t1); join(t2);
            return counter;
        }
    "#;
    let mut lost = 0;
    for seed in 0..20 {
        let out = compile_and_run(src, seed).unwrap();
        let Value::Int(v) = out.main_result else {
            panic!()
        };
        assert!(v <= 400, "counter can never exceed the true count");
        if v < 400 {
            lost += 1;
        }
    }
    assert!(
        lost > 10,
        "expected most seeds to lose updates, got {lost}/20"
    );
}

#[test]
fn mutex_fixes_the_counter() {
    let src = r#"
        var counter = 0;
        var m;
        fn worker() {
            for (var i = 0; i < 200; i = i + 1) {
                lock(m);
                counter = counter + 1;
                unlock(m);
            }
        }
        fn main() {
            m = mutex();
            var t1 = spawn worker();
            var t2 = spawn worker();
            join(t1); join(t2);
            return counter;
        }
    "#;
    for seed in 0..10 {
        assert_eq!(
            compile_and_run(src, seed).unwrap().main_result,
            Value::Int(400),
            "seed {seed}"
        );
    }
}

#[test]
fn atomic_add_fixes_the_counter() {
    let src = r#"
        var counter = 0;
        fn worker() {
            for (var i = 0; i < 200; i = i + 1) { atomic_add(counter, 1); }
        }
        fn main() {
            var t1 = spawn worker();
            var t2 = spawn worker();
            join(t1); join(t2);
            return counter;
        }
    "#;
    for seed in 0..10 {
        assert_eq!(
            compile_and_run(src, seed).unwrap().main_result,
            Value::Int(400),
            "seed {seed}"
        );
    }
}

#[test]
fn tas_spinlock_provides_mutual_exclusion() {
    // Lab 2: a test-and-set spin lock built in the language itself.
    let src = r#"
        var flag = 0;
        var counter = 0;
        fn acquire() { while (tas(flag) == 1) { yield_now(); } }
        fn release() { flag = 0; }
        fn worker() {
            for (var i = 0; i < 100; i = i + 1) {
                acquire();
                counter = counter + 1;
                release();
            }
        }
        fn main() {
            var t1 = spawn worker();
            var t2 = spawn worker();
            var t3 = spawn worker();
            join(t1); join(t2); join(t3);
            return counter;
        }
    "#;
    for seed in [0, 1, 2, 40, 41] {
        assert_eq!(
            compile_and_run(src, seed).unwrap().main_result,
            Value::Int(300),
            "seed {seed}"
        );
    }
}

#[test]
fn deadlock_detected_on_lock_cycle() {
    // Two threads acquiring two mutexes in opposite order, forced into the
    // deadly embrace with sleeps.
    let src = r#"
        var a; var b;
        fn one() { lock(a); sleep(50); lock(b); unlock(b); unlock(a); }
        fn two() { lock(b); sleep(50); lock(a); unlock(a); unlock(b); }
        fn main() {
            a = mutex(); b = mutex();
            var t1 = spawn one();
            var t2 = spawn two();
            join(t1); join(t2);
        }
    "#;
    let e = run_err(src, 0);
    let RuntimeError::Deadlock { blocked } = e else {
        panic!("expected deadlock, got {e}")
    };
    // Main waits on join; the two workers wait on each other's mutex.
    assert!(blocked.iter().any(|s| s.contains("mutex")), "{blocked:?}");
    assert!(blocked.len() >= 3, "{blocked:?}");
}

#[test]
fn self_lock_deadlocks() {
    let src = "fn main() { var m = mutex(); lock(m); lock(m); }";
    assert!(matches!(run_err(src, 0), RuntimeError::Deadlock { .. }));
}

#[test]
fn semaphore_bounds_concurrency() {
    // A binary semaphore used as a lock keeps the counter exact.
    let src = r#"
        var counter = 0;
        var s;
        fn worker() {
            for (var i = 0; i < 100; i = i + 1) {
                sem_wait(s);
                counter = counter + 1;
                sem_post(s);
            }
        }
        fn main() {
            s = semaphore(1);
            var t1 = spawn worker();
            var t2 = spawn worker();
            join(t1); join(t2);
            return counter;
        }
    "#;
    assert_eq!(run_seeded(src, 5).main_result, Value::Int(200));
}

#[test]
fn producer_consumer_over_channel() {
    let src = r#"
        var c;
        var total = 0;
        fn producer(n) {
            for (var i = 1; i <= n; i = i + 1) { send(c, i); }
            send(c, -1);
        }
        fn consumer() {
            while (true) {
                var v = recv(c);
                if (v == -1) { break; }
                total = total + v;
            }
        }
        fn main() {
            c = channel(4);
            var p = spawn producer(50);
            var q = spawn consumer();
            join(p); join(q);
            return total; // 1+..+50 = 1275
        }
    "#;
    for seed in 0..5 {
        assert_eq!(
            compile_and_run(src, seed).unwrap().main_result,
            Value::Int(1275),
            "seed {seed}"
        );
    }
}

#[test]
fn channel_capacity_blocks_producer() {
    // Producer fills a cap-1 channel and blocks until the consumer drains:
    // strict alternation means total context switches must exceed items.
    let src = r#"
        var c;
        fn producer() { for (var i = 0; i < 10; i = i + 1) { send(c, i); } }
        fn main() {
            c = channel(1);
            var p = spawn producer();
            var got = 0;
            for (var i = 0; i < 10; i = i + 1) { got = got + recv(c); }
            join(p);
            return got;
        }
    "#;
    assert_eq!(run_seeded(src, 1).main_result, Value::Int(45));
}

#[test]
fn blocked_receiver_without_sender_deadlocks() {
    let src = "fn main() { var c = channel(1); recv(c); }";
    assert!(matches!(run_err(src, 0), RuntimeError::Deadlock { .. }));
}

#[test]
fn sleep_orders_output() {
    let src = r#"
        fn late() { sleep(5000); println("late"); }
        fn main() {
            var t = spawn late();
            println("early");
            join(t);
        }
    "#;
    assert_eq!(run_seeded(src, 0).stdout, "early\nlate\n");
}

#[test]
fn thread_id_distinct() {
    let src = r#"
        var ids;
        fn w(slot) { ids[slot] = thread_id(); }
        fn main() {
            ids = [0, 0];
            var t1 = spawn w(0);
            var t2 = spawn w(1);
            join(t1); join(t2);
            if (ids[0] != ids[1]) { return 1; }
            return 0;
        }
    "#;
    assert_eq!(run_seeded(src, 0).main_result, Value::Int(1));
}

#[test]
fn determinism_same_seed_same_everything() {
    let src = r#"
        var counter = 0;
        fn w() { for (var i = 0; i < 50; i = i + 1) { counter = counter + 1; } }
        fn main() {
            var t1 = spawn w();
            var t2 = spawn w();
            join(t1); join(t2);
            println("result ", counter, " rand ", rand_int(0, 1000));
            return counter;
        }
    "#;
    let a = run_seeded(src, 1234);
    let b = run_seeded(src, 1234);
    assert_eq!(a, b);
}

#[test]
fn round_robin_is_fair_and_deterministic() {
    let src = r#"
        fn w(tag) { for (var i = 0; i < 3; i = i + 1) { println(tag); yield_now(); } }
        fn main() {
            var t1 = spawn w("a");
            var t2 = spawn w("b");
            join(t1); join(t2);
        }
    "#;
    let prog = compile(src).unwrap();
    let mut vm = Vm::new(
        prog.clone(),
        VmConfig {
            policy: SchedPolicy::RoundRobin,
            ..VmConfig::default()
        },
    );
    let out1 = vm.run().unwrap();
    let mut vm2 = Vm::new(
        prog,
        VmConfig {
            policy: SchedPolicy::RoundRobin,
            ..VmConfig::default()
        },
    );
    let out2 = vm2.run().unwrap();
    assert_eq!(out1.stdout, out2.stdout);
    assert_eq!(out1.stdout.matches('a').count(), 3);
    assert_eq!(out1.stdout.matches('b').count(), 3);
}

#[test]
fn peak_threads_tracked() {
    let src = r#"
        fn w() { sleep(100); }
        fn main() {
            var ts = [0, 0, 0, 0];
            for (var i = 0; i < 4; i = i + 1) { ts[i] = spawn w(); }
            for (var i = 0; i < 4; i = i + 1) { join(ts[i]); }
        }
    "#;
    let out = run_seeded(src, 0);
    assert!(out.peak_threads >= 4, "peak {}", out.peak_threads);
}

// ---- host I/O ---------------------------------------------------------------

#[test]
fn file_io_roundtrip() {
    let src = r#"
        fn main() {
            write_file("/out.txt", "hello ");
            append_file("/out.txt", "world");
            return read_file("/out.txt");
        }
    "#;
    let out = run_seeded(src, 0);
    assert_eq!(out.main_result, Value::str("hello world"));
}

#[test]
fn read_missing_file_is_io_error() {
    let e = run_err(r#"fn main() { read_file("/nope"); }"#, 0);
    assert!(matches!(e, RuntimeError::Io(_)));
}

#[test]
fn preloaded_io_visible() {
    let mut io = MemoryIo::default();
    io.files.insert("/data.txt".into(), "42".into());
    let prog = compile(r#"fn main() { return read_file("/data.txt"); }"#).unwrap();
    let mut vm = Vm::with_io(prog, VmConfig::default(), Box::new(io));
    assert_eq!(vm.run().unwrap().main_result, Value::str("42"));
}

// ---- program inspection -------------------------------------------------------

#[test]
fn globals_inspectable_after_run() {
    let prog = compile("var total = 0; fn main() { total = 41 + 1; }").unwrap();
    let mut vm = Vm::new(prog, VmConfig::default());
    vm.run().unwrap();
    assert_eq!(vm.global("total"), Some(&Value::Int(42)));
    assert_eq!(vm.global("nope"), None);
}

#[test]
fn disassembly_renders() {
    let prog = compile("fn main() { println(1); }").unwrap();
    let text = prog.to_string();
    assert!(text.contains("fn #0 main"));
    assert!(text.contains("CallBuiltin"));
}

// ---- string/assert builtins ------------------------------------------------

#[test]
fn parse_int_and_substr() {
    let src = r#"
        fn main() {
            var s = "  -42 ";
            var v = parse_int(s);
            var t = substr("hello world", 6, 5);
            println(v, " ", t, " ", substr("abc", 1, 99), " [", substr("abc", 9, 2), "]");
        }
    "#;
    assert_eq!(run_seeded(src, 0).stdout, "-42 world bc []\n");
}

#[test]
fn parse_int_rejects_garbage() {
    assert!(matches!(
        run_err(r#"fn main() { parse_int("not a number"); }"#, 0),
        RuntimeError::TypeError { .. }
    ));
}

#[test]
fn assert_passes_and_fails() {
    assert!(compile_and_run("fn main() { assert(1 < 2); }", 0).is_ok());
    assert_eq!(
        run_err("fn main() { assert(2 < 1); }", 0),
        RuntimeError::AssertionFailed
    );
}

#[test]
fn lab4_digit_parsing_could_use_parse_int() {
    // The simpler lab-4 reader enabled by parse_int.
    let src = r#"
        fn main() {
            var total = 0;
            var text = "12 7 100";
            var cur = "";
            for (var i = 0; i <= len(text); i = i + 1) {
                var done = i == len(text);
                var space = false;
                if (!done) { if (text[i] == " ") { space = true; } }
                if (done || space) {
                    if (len(cur) > 0) { total = total + parse_int(cur); cur = ""; }
                } else {
                    cur = cur + text[i];
                }
            }
            return total;
        }
    "#;
    assert_eq!(run_seeded(src, 0).main_result, Value::Int(119));
}

// ---- condition variables ----------------------------------------------------

#[test]
fn condvar_bounded_buffer_textbook() {
    // The chapter-8 classic: bounded buffer with two condvars.
    let src = r#"
        var buffer; var count = 0; var head = 0; var tail = 0;
        var m; var not_full; var not_empty;
        var total = 0;

        fn put(v) {
            lock(m);
            while (count == 4) { cond_wait(not_full, m); }
            buffer[tail % 4] = v;
            tail = tail + 1;
            count = count + 1;
            cond_notify(not_empty);
            unlock(m);
        }

        fn get() {
            lock(m);
            while (count == 0) { cond_wait(not_empty, m); }
            var v = buffer[head % 4];
            head = head + 1;
            count = count - 1;
            cond_notify(not_full);
            unlock(m);
            return v;
        }

        fn producer(n) { for (var i = 1; i <= n; i = i + 1) { put(i); } }
        fn consumer(n) { for (var i = 0; i < n; i = i + 1) { total = total + get(); } }

        fn main() {
            buffer = [0, 0, 0, 0];
            m = mutex(); not_full = condvar(); not_empty = condvar();
            var p = spawn producer(60);
            var c = spawn consumer(60);
            join(p); join(c);
            return total;  // 1+..+60 = 1830
        }
    "#;
    for seed in 0..8 {
        let out = compile_and_run(src, seed).unwrap();
        assert_eq!(out.main_result, Value::Int(1830), "seed {seed}");
    }
}

#[test]
fn cond_wait_requires_held_mutex() {
    let src = "fn main() { var m = mutex(); var cv = condvar(); cond_wait(cv, m); }";
    assert!(matches!(run_err(src, 0), RuntimeError::NotLockOwner { .. }));
}

#[test]
fn cond_wait_without_notify_deadlocks() {
    let src = r#"
        fn main() {
            var m = mutex(); var cv = condvar();
            lock(m);
            cond_wait(cv, m);
        }
    "#;
    let e = run_err(src, 0);
    let RuntimeError::Deadlock { blocked } = e else {
        panic!("{e}")
    };
    assert!(blocked.iter().any(|b| b.contains("condvar")), "{blocked:?}");
}

#[test]
fn notify_wakes_exactly_one_broadcast_wakes_all() {
    let src = r#"
        var m; var cv; var woke = 0; var ready = 0;
        fn waiter() {
            lock(m);
            atomic_add(ready, 1);
            cond_wait(cv, m);
            woke = woke + 1;
            unlock(m);
        }
        fn main() {
            m = mutex(); cv = condvar();
            var a = spawn waiter(); var b = spawn waiter(); var c = spawn waiter();
            while (ready < 3) { sleep(10); }
            sleep(50);
            lock(m); cond_notify(cv); unlock(m);
            sleep(2000);
            var after_one = woke;
            lock(m); cond_broadcast(cv); unlock(m);
            join(a); join(b); join(c);
            return after_one * 10 + woke;
        }
    "#;
    for seed in 0..6 {
        let out = compile_and_run(src, seed).unwrap();
        // after_one == 1, final woke == 3 -> 13.
        assert_eq!(out.main_result, Value::Int(13), "seed {seed}");
    }
}

#[test]
fn mesa_semantics_rechecks_predicate() {
    // Two consumers, one item: exactly one consumes; the other must loop
    // back to waiting (Mesa semantics) instead of consuming garbage.
    let src = r#"
        var m; var cv; var items = 0; var consumed = 0;
        fn consumer() {
            lock(m);
            while (items == 0) { cond_wait(cv, m); }
            items = items - 1;
            consumed = consumed + 1;
            unlock(m);
        }
        fn main() {
            m = mutex(); cv = condvar();
            var a = spawn consumer();
            var b = spawn consumer();
            sleep(500);
            lock(m);
            items = 1;
            cond_broadcast(cv);   // wakes BOTH; only one may take the item
            unlock(m);
            sleep(2000);
            lock(m);
            items = 1;
            cond_broadcast(cv);
            unlock(m);
            join(a); join(b);
            return consumed;
        }
    "#;
    for seed in 0..6 {
        let out = compile_and_run(src, seed).unwrap();
        assert_eq!(out.main_result, Value::Int(2), "seed {seed}");
    }
}

// ---- cyclic arrays -------------------------------------------------------------

/// Run `src` on a thread of its own and fail, rather than hang, if it has
/// not finished within ten seconds.
fn run_with_watchdog(src: &'static str) -> minilang::ExecOutcome {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(compile_and_run(src, 0));
    });
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("the program did not finish within 10 s")
        .unwrap()
}

#[test]
fn println_of_a_cyclic_array_marks_the_cycle() {
    let out = run_with_watchdog("fn main() { var a = [0]; a[0] = a; println(a); }");
    assert_eq!(out.stdout, "[[...]]\n");
}

#[test]
fn str_of_a_cyclic_array_marks_the_cycle() {
    let out = run_with_watchdog("fn main() { var a = [0]; a[0] = a; return str(a); }");
    assert_eq!(out.main_result, Value::str("[[...]]"));
}

#[test]
fn concatenating_a_cyclic_array_marks_the_cycle() {
    let out = run_with_watchdog(r#"fn main() { var a = [0]; a[0] = a; return "x" + a; }"#);
    assert_eq!(out.main_result, Value::str("x[[...]]"));
}

#[test]
fn cyclic_arrays_compare_in_finite_time() {
    let out = run_with_watchdog(
        r#"
        fn main() {
            var a = [0];
            a[0] = a;
            var b = [0];
            b[0] = b;
            var c = [0, 1];
            c[0] = c;
            var d = [0, 2];
            d[0] = d;
            println(a == b, " ", a != b, " ", a == a, " ", c == d, " ", a == c);
            return a == b;
        }
    "#,
    );
    assert_eq!(out.stdout, "true false true false false\n");
    assert_eq!(out.main_result, Value::Bool(true));
}

#[test]
fn shared_acyclic_arrays_print_in_full() {
    let out = run_seeded(
        r#"
        fn main() {
            var s = [1, [2]];
            var p = [s, s, [s]];
            var q = [[1, [2]], [1, [2]], [[1, [2]]]];
            println(p, " ", p == q);
        }
    "#,
        0,
    );
    assert_eq!(out.stdout, "[[1, [2]], [1, [2]], [[1, [2]]]] true\n");
}
