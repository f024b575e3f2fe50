//! Multicore Lab 1 — Synchronization (the paper used Java `synchronized`).
//!
//! "Using Java Synchronized method to ensure timely access to a counter
//! shared by two threads. ... A pre-written Java program was given to the
//! students with the code for synchronization missing. Students experimented
//! with the given erroneous program and checked the incorrect output"
//! (§III.B.1). The minilang equivalent of `synchronized` is a mutex.

use minilang::{compile_and_run, Value};

/// The handout: two threads bump a shared counter with no synchronization.
pub const BUGGY_SOURCE: &str = r#"
// Lab 1 handout: the synchronization is missing. Find out why the
// counter comes out wrong, then fix it.
var counter = 0;

fn worker(n) {
    for (var i = 0; i < n; i = i + 1) {
        counter = counter + 1;    // read-modify-write: NOT atomic
    }
}

fn main() {
    var t1 = spawn worker(500);
    var t2 = spawn worker(500);
    join(t1);
    join(t2);
    println("counter = ", counter);
    return counter;
}
"#;

/// The expected fix: guard the increment with a mutex.
pub const FIXED_SOURCE: &str = r#"
var counter = 0;
var m;

fn worker(n) {
    for (var i = 0; i < n; i = i + 1) {
        lock(m);                  // the "synchronized" region
        counter = counter + 1;
        unlock(m);
    }
}

fn main() {
    m = mutex();
    var t1 = spawn worker(500);
    var t2 = spawn worker(500);
    join(t1);
    join(t2);
    println("counter = ", counter);
    return counter;
}
"#;

/// The true count both versions aim for.
pub const EXPECTED: i64 = 1000;

/// Run a lab-1-shaped program and extract its final counter.
pub(crate) fn run_counter(source: &str, seed: u64) -> Option<i64> {
    match compile_and_run(source, seed).ok()?.main_result {
        Value::Int(v) => Some(v),
        _ => None,
    }
}

/// How many of `seeds` produce a *wrong* counter for `source`.
/// The buggy handout should lose updates on most seeds; a correct fix on
/// none.
pub fn wrong_seed_count(source: &str, seeds: std::ops::Range<u64>) -> usize {
    seeds
        .filter(|&s| run_counter(source, s) != Some(EXPECTED))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buggy_version_loses_updates() {
        let wrong = wrong_seed_count(BUGGY_SOURCE, 0..12);
        assert!(wrong >= 8, "only {wrong}/12 seeds exposed the race");
    }

    #[test]
    fn fixed_version_always_exact() {
        assert_eq!(wrong_seed_count(FIXED_SOURCE, 0..12), 0);
    }

    #[test]
    fn buggy_never_exceeds_truth() {
        for seed in 0..8 {
            let v = run_counter(BUGGY_SOURCE, seed).unwrap();
            assert!(v <= EXPECTED, "counter {v} exceeds possible maximum");
            assert!(v >= 2, "counter {v} impossibly small");
        }
    }
}
