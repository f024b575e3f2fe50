//! Scheduler-refactor regression pins: the external-scheduler API added
//! for the checker (step_thread / next_op / events / replay) must not
//! change what `Vm::run` produces — same seed, same policy, same outcome —
//! and the new recording machinery must round-trip faithfully.

use minilang::{
    compile, compile_and_run, MemLoc, OpKind, OpObj, SchedPolicy, Vm, VmConfig, VmEvent,
};

const RACY_COUNTER: &str = r#"
var counter = 0;
fn bump() {
    var i = 0;
    while (i < 40) { counter = counter + 1; i = i + 1; }
}
fn main() {
    var a = spawn bump();
    var b = spawn bump();
    join(a);
    join(b);
    println(counter);
    return counter;
}
"#;

#[test]
fn same_seed_random_preempt_is_identical() {
    // The RNG consumption pattern of the run loop is load-bearing: two
    // runs with the same seed must interleave identically.
    for seed in [0u64, 7, 1234, 0xdead_beef] {
        let a = compile_and_run(RACY_COUNTER, seed).unwrap();
        let b = compile_and_run(RACY_COUNTER, seed).unwrap();
        assert_eq!(a.stdout, b.stdout, "seed {seed}: stdout must match");
        assert_eq!(a.main_result, b.main_result, "seed {seed}");
        assert_eq!(a.executed, b.executed, "seed {seed}");
        assert_eq!(a.context_switches, b.context_switches, "seed {seed}");
        assert_eq!(a.peak_threads, b.peak_threads, "seed {seed}");
    }
}

#[test]
fn different_seeds_still_find_the_race() {
    // Sanity that RandomPreempt still explores: across seeds the racy
    // counter must lose updates at least once.
    let lost = (0..12u64)
        .filter_map(|seed| compile_and_run(RACY_COUNTER, seed).ok())
        .any(|out| out.main_result != minilang::Value::Int(80));
    assert!(
        lost,
        "unlocked counter never lost an update across 12 seeds"
    );
}

#[test]
fn round_robin_is_seed_independent() {
    let prog = compile(RACY_COUNTER).unwrap();
    let run = |seed| {
        let cfg = VmConfig {
            seed,
            policy: SchedPolicy::RoundRobin,
            ..VmConfig::default()
        };
        Vm::new(prog.clone(), cfg).run().unwrap()
    };
    let a = run(1);
    let b = run(99);
    assert_eq!(a.stdout, b.stdout, "round-robin must not consult the seed");
    assert_eq!(a.context_switches, b.context_switches);
}

#[test]
fn recorded_schedule_replays_to_the_same_outcome() {
    // Record a full RandomPreempt run, then feed the (tid, quantum) trace
    // to Vm::replay on a fresh VM: same stdout, same result, same peak.
    let prog = compile(RACY_COUNTER).unwrap();
    for seed in [3u64, 17, 99] {
        let cfg = VmConfig {
            seed,
            ..VmConfig::default()
        };
        let mut vm = Vm::new(prog.clone(), cfg);
        vm.set_recording(true);
        let recorded = vm.run().unwrap();
        let schedule = vm.drain_schedule();
        assert!(!schedule.is_empty(), "recording captured no slices");

        let mut replayer = Vm::new(prog.clone(), cfg);
        replayer.replay(&schedule).unwrap();
        assert!(replayer.all_finished(), "replay must run to completion");
        let replayed = replayer.outcome();
        assert_eq!(replayed.stdout, recorded.stdout, "seed {seed}");
        assert_eq!(replayed.main_result, recorded.main_result, "seed {seed}");
        assert_eq!(replayed.peak_threads, recorded.peak_threads, "seed {seed}");
    }
}

#[test]
fn events_capture_the_synchronization_story() {
    let src = r#"
        var n = 0;
        var m;
        fn w() { lock(m); n = n + 1; unlock(m); }
        fn main() {
            m = mutex();
            var t = spawn w();
            join(t);
            return n;
        }
    "#;
    let prog = compile(src).unwrap();
    let mut vm = Vm::new(
        prog,
        VmConfig {
            seed: 0,
            ..VmConfig::default()
        },
    );
    vm.set_recording(true);
    let out = vm.run().unwrap();
    assert_eq!(out.main_result, minilang::Value::Int(1));
    let events = vm.drain_events();
    let has = |f: &dyn Fn(&VmEvent) -> bool| events.iter().any(f);
    assert!(has(&|e| matches!(
        e,
        VmEvent::Spawned {
            parent: 0,
            child: 1
        }
    )));
    assert!(has(&|e| matches!(e, VmEvent::LockAcq { tid: 1, .. })));
    assert!(has(&|e| matches!(
        e,
        VmEvent::Write {
            tid: 1,
            loc: MemLoc::Global(_)
        }
    )));
    assert!(has(&|e| matches!(e, VmEvent::LockRel { tid: 1, .. })));
    assert!(has(&|e| matches!(e, VmEvent::Joined { tid: 0, target: 1 })));
}

#[test]
fn recording_off_keeps_buffers_empty() {
    let prog = compile(RACY_COUNTER).unwrap();
    let mut vm = Vm::new(
        prog,
        VmConfig {
            seed: 5,
            ..VmConfig::default()
        },
    );
    vm.run().unwrap();
    assert!(vm.drain_events().is_empty(), "no recording unless enabled");
    assert!(vm.drain_schedule().is_empty());
}

#[test]
fn next_op_peeks_without_perturbing() {
    let src = r#"
        var n = 0;
        fn main() { n = 7; return n; }
    "#;
    let prog = compile(src).unwrap();
    let mut vm = Vm::new(
        prog,
        VmConfig {
            seed: 0,
            quantum: 1,
            ..VmConfig::default()
        },
    );
    // Drive manually: the global initializer writes, main writes again,
    // then the return reads it back.
    let mut kinds = Vec::new();
    let mut guard = 0;
    while !vm.all_finished() {
        guard += 1;
        assert!(guard < 1000, "manual drive runaway");
        if let Some(op) = vm.next_op(0) {
            if let OpObj::Mem(MemLoc::Global(_)) = op.obj {
                kinds.push(op.kind);
            }
        }
        vm.step_thread(0, 1).unwrap();
    }
    assert_eq!(
        kinds,
        vec![OpKind::Write, OpKind::Write, OpKind::Read],
        "init store, main store, then load of the global"
    );
    assert_eq!(vm.outcome().main_result, minilang::Value::Int(7));
}

/// Programs whose ready sets have gaps: threads blocked on a lock, on a
/// join or asleep sit between runnable ones, so picking "the k-th ready
/// thread" and "the thread at or after the cursor" both matter.
const CONTENDED: [&str; 3] = [
    RACY_COUNTER,
    r#"
var n = 0;
var m;
fn w(k) {
    var i = 0;
    while (i < 10) { lock(m); n = n + k; unlock(m); i = i + 1; }
}
fn main() {
    m = mutex();
    var a = spawn w(1);
    var b = spawn w(2);
    var c = spawn w(3);
    var d = spawn w(4);
    join(a);
    join(b);
    join(c);
    join(d);
    println(n);
    return n;
}
"#,
    r#"
var order = 0;
fn w(id) {
    var i = 0;
    while (i < 3) {
        order = order * 7 + id;
        println("w", id, " step ", i);
        sleep(id * 3);
        i = i + 1;
    }
}
fn main() {
    var a = spawn w(1);
    var b = spawn w(2);
    var c = spawn w(3);
    join(b);
    join(a);
    join(c);
    return order;
}
"#,
];

/// `Vm::run`'s choice of thread and slice, pinned over seeds, both
/// policies and three quanta: one FNV-1a digest of every run's stdout,
/// result, instruction count and context switches. Drawing the thread
/// and the slice length in another order, or picking a different ready
/// thread for the same draw, changes it.
#[test]
fn run_loop_schedule_is_pinned() {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for src in CONTENDED {
        let prog = compile(src).unwrap();
        for policy in [SchedPolicy::RandomPreempt, SchedPolicy::RoundRobin] {
            for quantum in [1, 3, 8] {
                for seed in [0u64, 1, 2, 3, 7, 42, 1234, 0xdead_beef] {
                    let cfg = VmConfig {
                        seed,
                        quantum,
                        policy,
                        ..VmConfig::default()
                    };
                    let out = Vm::new(prog.clone(), cfg).run().unwrap();
                    feed(out.stdout.as_bytes());
                    feed(format!("{:?}", out.main_result).as_bytes());
                    feed(&out.executed.to_le_bytes());
                    feed(&out.context_switches.to_le_bytes());
                }
            }
        }
    }
    // Recorded from `Vm::run` as it collected the ready threads into a
    // fresh `Vec` per slice.
    assert_eq!(digest, 0xd3c6_1153_d1e3_b32a);
}

/// Programs at the edges of what the VM runs without a type check or an
/// event: wrapping integer arithmetic, zero divisors, `+` on strings,
/// ordered comparisons of strings and bools, branch conditions of every
/// type, and globals and a channel shared by several threads, some of them
/// asleep or blocked.
const PLAIN_EDGES: [&str; 11] = [
    r#"
fn main() {
    var max = 9223372036854775807;
    var min = -9223372036854775807 - 1;
    println(max + 1, " ", min - 1, " ", max * 2, " ", min * -1, " ", max * max);
    println(min / -1, " ", min % -1, " ", max / -1, " ", min / 2, " ", max % 10);
    println(-7 / 2, " ", -7 % 2, " ", 7 / -2, " ", 7 % -2, " ", 0 - min);
    var acc = 1;
    var i = 0;
    while (i < 70) { acc = acc * 3 + i; i = i + 1; }
    println(acc, " ", acc < 0, " ", acc >= min, " ", acc <= max, " ", acc != acc + 0);
    return min / -1;
}
"#,
    r#"
fn main() {
    var a = 17;
    var b = 5;
    var z = 0;
    println(a / b, " ", a % b, " ", a * b - a);
    b = b - 5;
    println(a % (b + 1));
    println(a / z);
    return 1;
}
"#,
    r#"
fn main() {
    var q = 40;
    var r = q % 7;
    println(q - r);
    return q % (r - r);
}
"#,
    r#"
fn main() {
    var arr = [1, 2];
    var s = "n=" + 1;
    var t = 2 + "x";
    println(s, t, "a" + "b", "arr:" + arr, true + "!", "" + (1 < 2), [3] + "");
    var u = "";
    var i = 0;
    while (i < 6) { u = u + i; i = i + 1; }
    println(u + -1);
    return 1 + true;
}
"#,
    r#"
fn main() {
    println("a" < "b", " ", "b" <= "a", " ", "abc" > "abd", " ", "x" >= "x");
    println(true > false, " ", false < false, " ", true >= true, " ", false <= true);
    println("a" == "a", " ", 1 == "1", " ", [1] == [1], " ", 1 != true, " ", "x" != "y");
    println(2 == 2, " ", 2 != 2, " ", true == 1);
    return "z" < 1;
}
"#,
    r#"
fn main() {
    var t = true;
    println(t < 1);
    return 0;
}
"#,
    r#"
fn nothing() { }
fn main() {
    var n = 0;
    if (0) { n = n + 1; }
    if (7) { n = n + 2; }
    if (-1) { n = n + 4; }
    if ("") { n = n + 8; }
    if ("s") { n = n + 16; }
    if ([]) { n = n + 32; }
    if ([0]) { n = n + 64; }
    if (nothing()) { n = n + 128; }
    if (true && 1) { n = n + 256; }
    if (false || "") { n = n + 512; }
    if (0 || [1]) { n = n + 1024; }
    if (!nothing()) { n = n + 2048; }
    var i = 3;
    while (i) { i = i - 1; n = n + 10000; }
    var s = "abc";
    while (s) { s = substr(s, 1, 10); n = n + 100000; }
    var a = [1, 2];
    var k = 0;
    while (k < 2 && a) { k = k + 1; n = n + 1000000; }
    var flag = true;
    while (flag) { flag = false; n = n + 10000000; }
    while (nothing()) { n = n - 1; }
    println(n);
    return n;
}
"#,
    r#"
var total = 0;
var flag = false;
var name = "g";
fn w(k) {
    var i = 0;
    while (i < 12) {
        total = total + k * i;
        if (total % 2 == 0) { flag = !flag; }
        name = name + k;
        i = i + 1;
    }
    return total + rand_int(0, 1000);
}
fn main() {
    var a = spawn w(1);
    var b = spawn w(2);
    var c = spawn w(3);
    var r = join(a) + join(b) + join(c);
    println(total, " ", flag, " ", len(name), " ", now());
    return r;
}
"#,
    r#"
var log = 0;
fn sleeper(n) { sleep(n); log = log * 10 + n % 10; return n; }
fn main() {
    var a = spawn sleeper(5);
    var b = spawn sleeper(41);
    var i = 0;
    var s = 0;
    while (i < 30) { s = s + i * i; i = i + 1; }
    log = log * 10 + 9;
    join(a);
    join(b);
    println(log, " ", s, " ", now());
    return log;
}
"#,
    r#"
fn producer(c, n) {
    var i = 0;
    while (i < n) { send(c, i * i); i = i + 1; }
    return i;
}
fn main() {
    var c = channel(2);
    var p = spawn producer(c, 10);
    var sum = 0;
    var k = 0;
    while (k < 10) { sum = sum + recv(c); k = k + 1; }
    println(sum, " ", join(p));
    return sum;
}
"#,
    r#"
var m;
var hits = 0;
fn w(k) {
    var i = 0;
    while (i < 4) {
        lock(m);
        var h = hits;
        hits = h + k;
        unlock(m);
        i = i + 1;
    }
}
fn main() {
    m = mutex();
    var a = spawn w(1);
    var b = spawn w(10);
    join(a);
    join(b);
    lock(m);
    lock(m);
    return hits;
}
"#,
];

/// What `Vm::run` computes on [`PLAIN_EDGES`], pinned over budgets that cut
/// a run after 1–9, 64 and 1,000 instructions (and the default), three
/// quanta, both policies and eight seeds: one FNV-1a digest of each run's
/// stdout, result or error, instruction count and context switches.
#[test]
fn plain_instruction_corpus_is_pinned() {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let default_budget = VmConfig::default().max_instructions;
    for src in PLAIN_EDGES {
        let prog = compile(src).unwrap();
        for max_instructions in [1, 2, 3, 7, 8, 9, 64, 1000, default_budget] {
            for policy in [SchedPolicy::RandomPreempt, SchedPolicy::RoundRobin] {
                for quantum in [1, 3, 8] {
                    for seed in [0u64, 1, 2, 3, 7, 42, 1234, 0xdead_beef] {
                        let cfg = VmConfig {
                            seed,
                            quantum,
                            max_instructions,
                            policy,
                        };
                        let mut vm = Vm::new(prog.clone(), cfg);
                        let (out, result) = match vm.run() {
                            Ok(out) => {
                                let result = format!("{:?}", out.main_result);
                                (out, result)
                            }
                            Err(e) => (vm.outcome(), format!("error: {e}")),
                        };
                        feed(out.stdout.as_bytes());
                        feed(result.as_bytes());
                        feed(&out.executed.to_le_bytes());
                        feed(&out.context_switches.to_le_bytes());
                    }
                }
            }
        }
    }
    // Recorded from `Vm::run` as it executed every instruction through
    // `Vm::step`.
    assert_eq!(digest, 0x4cd6_dd98_4d3f_3f2d);
}

/// [`PLAIN_EDGES`] again with recording on, where every global access is
/// an event: the digest also takes each run's `(thread, slice)` schedule
/// and its events.
#[test]
fn recorded_corpus_runs_are_pinned() {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for src in PLAIN_EDGES {
        let prog = compile(src).unwrap();
        for max_instructions in [9, 64, VmConfig::default().max_instructions] {
            for policy in [SchedPolicy::RandomPreempt, SchedPolicy::RoundRobin] {
                for quantum in [1, 3, 8] {
                    for seed in [0u64, 7, 1234] {
                        let cfg = VmConfig {
                            seed,
                            quantum,
                            max_instructions,
                            policy,
                        };
                        let mut vm = Vm::new(prog.clone(), cfg);
                        vm.set_recording(true);
                        let (out, result) = match vm.run() {
                            Ok(out) => {
                                let result = format!("{:?}", out.main_result);
                                (out, result)
                            }
                            Err(e) => (vm.outcome(), format!("error: {e}")),
                        };
                        feed(out.stdout.as_bytes());
                        feed(result.as_bytes());
                        feed(&out.executed.to_le_bytes());
                        feed(&out.context_switches.to_le_bytes());
                        feed(format!("{:?}", vm.drain_schedule()).as_bytes());
                        feed(format!("{:?}", vm.drain_events()).as_bytes());
                    }
                }
            }
        }
    }
    // Recorded from `Vm::run` as it executed every instruction through
    // `Vm::step`.
    assert_eq!(digest, 0x4d40_2de5_fa0a_f58b);
}
