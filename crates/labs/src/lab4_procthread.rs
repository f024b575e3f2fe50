//! Lab for Process and Thread Management (Chapter 6).
//!
//! "Write a program that creates two threads, one reading a text file that
//! contains a series of none-zero numbers ended by a special number -1 and
//! stores the numbers ... into an array, while the other thread write the
//! numbers in the array to a newly created text file ... Synchronization
//! must be imposed to make sure the thread that writes ... comes back to
//! read the array until -1 is encountered" (§III.B.4).

use minilang::{compile, HostIo, MemoryIo, Vm, VmConfig};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The reference solution: reader thread parses the input file into a
/// shared array; writer thread drains it to the output file; a semaphore
/// counts available items so the writer never overtakes the reader.
pub const SOURCE: &str = r#"
var buffer;       // shared array of parsed numbers
var items;        // semaphore: how many entries are ready
var next_write = 0;

// Parse the space-separated numbers in `text` and feed them to the buffer.
fn reader() {
    var text = read_file("input.txt");
    var cur = 0;
    var have = false;
    var negative = false;
    for (var i = 0; i < len(text); i = i + 1) {
        var ch = text[i];
        if (ch == "-") {
            negative = true;
        } else if (ch == " ") {
            if (have) {
                if (negative) { cur = -cur; }
                push(buffer, cur);
                sem_post(items);
                if (cur == -1) { return; }
                cur = 0; have = false; negative = false;
            }
        } else {
            // digit: ch is a 1-char string; convert via comparison chain
            cur = cur * 10 + digit(ch);
            have = true;
        }
    }
    if (have) {
        if (negative) { cur = -cur; }
        push(buffer, cur);
        sem_post(items);
    }
}

fn digit(ch) {
    if (ch == "0") { return 0; } if (ch == "1") { return 1; }
    if (ch == "2") { return 2; } if (ch == "3") { return 3; }
    if (ch == "4") { return 4; } if (ch == "5") { return 5; }
    if (ch == "6") { return 6; } if (ch == "7") { return 7; }
    if (ch == "8") { return 8; } return 9;
}

fn writer() {
    while (true) {
        sem_wait(items);                 // wait for the reader
        var v = buffer[next_write];
        next_write = next_write + 1;
        if (v == -1) { return; }         // -1 is written-out too? No: stop.
        append_file("output.txt", str(v) + " ");
    }
}

fn main() {
    buffer = [];
    items = semaphore(0);
    var r = spawn reader();
    var w = spawn writer();
    join(r);
    join(w);
    println("copied ", next_write - 1, " numbers");
}
"#;

/// A [`HostIo`] over one shared [`MemoryIo`]: the VM gets a clone, and
/// the harness keeps one to preload the input and read the output back.
#[derive(Clone, Default)]
pub(crate) struct SharedIo(Arc<Mutex<MemoryIo>>);

impl SharedIo {
    /// A store whose `input.txt` lists `numbers`, ended by -1.
    pub(crate) fn with_input(numbers: &[i64]) -> SharedIo {
        let mut input: String = numbers.iter().map(|n| format!("{n} ")).collect();
        input.push_str("-1 ");
        let io = SharedIo::default();
        io.lock().files.insert("input.txt".to_string(), input);
        io
    }

    /// The numbers written to `output.txt`.
    pub(crate) fn output(&self) -> Vec<i64> {
        let files = &self.lock().files;
        let text = files.get("output.txt").map_or("", String::as_str);
        text.split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect()
    }

    /// The files, recovered if a panicking holder poisoned the lock.
    fn lock(&self) -> MutexGuard<'_, MemoryIo> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl HostIo for SharedIo {
    fn read_file(&mut self, path: &str) -> Result<String, String> {
        self.lock().read_file(path)
    }
    fn write_file(&mut self, path: &str, content: &str) -> Result<(), String> {
        self.lock().write_file(path, content)
    }
    fn append_file(&mut self, path: &str, content: &str) -> Result<(), String> {
        self.lock().append_file(path, content)
    }
}

/// Run and verify: output must list exactly `numbers` in order.
pub fn run_copy_checked(numbers: &[i64], seed: u64) -> Result<bool, minilang::LangError> {
    let io = SharedIo::with_input(numbers);
    let mut vm = Vm::with_io(
        compile(SOURCE)?,
        VmConfig {
            seed,
            ..VmConfig::default()
        },
        Box::new(io.clone()),
    );
    vm.run()?;
    Ok(io.output() == numbers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copies_in_order_across_seeds() {
        let numbers: Vec<i64> = (1..=40).collect();
        for seed in 0..6 {
            assert!(run_copy_checked(&numbers, seed).unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn handles_multi_digit_and_empty() {
        assert!(run_copy_checked(&[123, 4567, 89], 1).unwrap());
        assert!(run_copy_checked(&[], 1).unwrap());
    }
}
