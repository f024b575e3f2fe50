//! Programming Assignment 3 — the bounded-buffer problem.
//!
//! "Students are provided with a program of the producer-consumer problem
//! using threads ... but is not a correct solution. Students are required to
//! ... provide a scenario in which it produces an incorrect answer ... then
//! modify the program so that it solves the bounded-buffer problem using
//! (a) mutex locks, (b) semaphores" (§III.B.7).

use minilang::{compile_and_run, LangError, RuntimeError, Value};

/// Buffer capacity used by all three versions.
pub(crate) const CAPACITY: usize = 4;
/// Items produced/consumed.
pub(crate) const ITEMS: usize = 100;

/// The broken handout: busy-wait flags with a race on `count` — both the
/// classic lost-update on `count` and index corruption are possible.
pub fn buggy_source() -> String {
    template(
        "",
        "",
        r#"
    // Busy-wait until there is space, then insert. The check and the
    // insert are not atomic: both threads can be inside at once.
    while (count == CAP) { yield_now(); }
    buffer[tail % CAP] = item;
    tail = tail + 1;
    count = count + 1;"#,
        r#"
    while (count == 0) { yield_now(); }
    var item = buffer[head % CAP];
    head = head + 1;
    count = count - 1;"#,
    )
}

/// Fix (a): one mutex around every buffer operation, still busy-waiting.
pub fn mutex_source() -> String {
    template(
        "var m;",
        "    m = mutex();",
        r#"
    while (true) {
        lock(m);
        if (count < CAP) {
            buffer[tail % CAP] = item;
            tail = tail + 1;
            count = count + 1;
            unlock(m);
            return;
        }
        unlock(m);
        yield_now();
    }"#,
        r#"
    var item = 0;
    while (true) {
        lock(m);
        if (count > 0) {
            item = buffer[head % CAP];
            head = head + 1;
            count = count - 1;
            unlock(m);
            return item;
        }
        unlock(m);
        yield_now();
    }"#,
    )
}

/// Fix (b): the textbook semaphore solution — `empty`, `full`, and a mutex
/// for the buffer itself.
pub fn semaphore_source() -> String {
    template(
        "var m;\nvar empty;\nvar full;",
        "    m = mutex();\n    empty = semaphore(CAP);\n    full = semaphore(0);",
        r#"
    sem_wait(empty);
    lock(m);
    buffer[tail % CAP] = item;
    tail = tail + 1;
    count = count + 1;
    unlock(m);
    sem_post(full);"#,
        r#"
    sem_wait(full);
    lock(m);
    var item = buffer[head % CAP];
    head = head + 1;
    count = count - 1;
    unlock(m);
    sem_post(empty);
    return item;"#,
    )
}

fn template(decls: &str, init: &str, put_body: &str, get_body: &str) -> String {
    format!(
        r#"
var CAP = {CAPACITY};
var buffer;
var head = 0;
var tail = 0;
var count = 0;
var consumed_sum = 0;
var consumed_n = 0;
{decls}

fn put(item) {{{put_body}
}}

fn get() {{{get_body}
}}

fn producer(n) {{
    for (var i = 1; i <= n; i = i + 1) {{
        put(i);
    }}
}}

fn consumer(n) {{
    for (var i = 0; i < n; i = i + 1) {{
        var v = get();
        consumed_sum = consumed_sum + v;
        consumed_n = consumed_n + 1;
    }}
}}

fn main() {{
    buffer = [0, 0, 0, 0];
{init}
    var p = spawn producer({ITEMS});
    var c = spawn consumer({ITEMS});
    join(p);
    join(c);
    println("consumed ", consumed_n, " items, sum ", consumed_sum);
    return consumed_sum;
}}
"#
    )
}

/// The correct checksum: 1 + 2 + ... + ITEMS.
pub(crate) const EXPECTED_SUM: i64 = (ITEMS as i64 * (ITEMS as i64 + 1)) / 2;

/// Outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub enum BufferOutcome {
    /// Ran to completion; payload is the consumed-sum checksum.
    Sum(i64),
    /// The run deadlocked (possible for broken student variants).
    Deadlock,
    /// Another runtime error (e.g. index corruption).
    Error(String),
}

/// Execute a bounded-buffer program.
pub fn run(source: &str, seed: u64) -> BufferOutcome {
    match compile_and_run(source, seed) {
        Ok(out) => match out.main_result {
            Value::Int(v) => BufferOutcome::Sum(v),
            other => BufferOutcome::Error(format!("unexpected {other}")),
        },
        Err(LangError::Runtime(RuntimeError::Deadlock { .. })) => BufferOutcome::Deadlock,
        Err(e) => BufferOutcome::Error(e.to_string()),
    }
}

/// Fraction of seeds for which `source` produces the correct checksum.
pub fn correctness_rate(source: &str, seeds: std::ops::Range<u64>) -> f64 {
    let total = (seeds.end - seeds.start).max(1);
    let good = seeds
        .filter(|&s| run(source, s) == BufferOutcome::Sum(EXPECTED_SUM))
        .count();
    good as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buggy_version_misbehaves_somewhere() {
        // The handout must be demonstrably wrong: some seed yields a bad
        // checksum, a deadlock, or an index error.
        let bad = (0..16)
            .filter(|&s| run(&buggy_source(), s) != BufferOutcome::Sum(EXPECTED_SUM))
            .count();
        assert!(bad > 0, "the buggy handout never failed in 16 seeds");
    }

    #[test]
    fn mutex_fix_is_correct() {
        assert_eq!(correctness_rate(&mutex_source(), 0..10), 1.0);
    }

    #[test]
    fn semaphore_fix_is_correct() {
        assert_eq!(correctness_rate(&semaphore_source(), 0..10), 1.0);
    }

    #[test]
    fn expected_sum_arithmetic() {
        assert_eq!(EXPECTED_SUM, 5050);
    }
}
