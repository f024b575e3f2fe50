//! Lab for Basic Synchronization Methods (Chapter 8) — the banking account.
//!
//! The lab walks six steps (§III.B.5): (i) sequential deposit/withdraw;
//! (ii) refactor into functions; (iii) one-dollar-at-a-time loops;
//! (iv) two pthreads serialized with `pthread_join`; (v) both threads
//! concurrent — "Do you see different result?" — and (vi) mutex-protected,
//! restoring the correct balance. Each step is a runnable program below.

use minilang::{compile_and_run, Value};

/// Steps of the lab, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankStep {
    /// (i)+(ii)+(iii): sequential one-dollar loops.
    Sequential,
    /// (iv): threads, but joined one after the other (still serialized).
    SerializedThreads,
    /// (v): threads truly concurrent — the race.
    ConcurrentRacy,
    /// (vi): concurrent with a mutex — correct again.
    ConcurrentLocked,
}

/// Starting balance (the paper uses 1,000,000; scaled down 1000x so VM runs
/// stay fast — the race is about interleaving, not magnitude).
pub(crate) const START: i64 = 1_000;
/// Withdrawal amount (paper: 600,000 scaled to 600).
pub(crate) const WITHDRAW: i64 = 600;
/// Deposit amount (paper: 500,000 scaled to 500).
pub(crate) const DEPOSIT: i64 = 500;
/// The correct ending balance.
pub const EXPECTED: i64 = START - WITHDRAW + DEPOSIT;

/// Program text for a given step.
pub fn source(step: BankStep) -> String {
    let body = match step {
        BankStep::Sequential => {
            "    withdraw(600);\n    deposit(500);"
        }
        BankStep::SerializedThreads => {
            // join() between creations serializes the threads (step iv).
            "    var t1 = spawn withdraw(600);\n    join(t1);\n    var t2 = spawn deposit(500);\n    join(t2);"
        }
        BankStep::ConcurrentRacy | BankStep::ConcurrentLocked => {
            "    var t1 = spawn withdraw(600);\n    var t2 = spawn deposit(500);\n    join(t1);\n    join(t2);"
        }
    };
    let (lock_decl, lock_on, lock_off) = if step == BankStep::ConcurrentLocked {
        ("var m;", "lock(m);", "unlock(m);")
    } else {
        ("", "", "")
    };
    let init_lock = if step == BankStep::ConcurrentLocked {
        "    m = mutex();"
    } else {
        ""
    };
    format!(
        r#"
var balance = {START};
{lock_decl}

fn withdraw(amount) {{
    // one dollar at a time (step iii)
    for (var i = 0; i < amount; i = i + 1) {{
        {lock_on}
        balance = balance - 1;
        {lock_off}
    }}
}}

fn deposit(amount) {{
    for (var i = 0; i < amount; i = i + 1) {{
        {lock_on}
        balance = balance + 1;
        {lock_off}
    }}
}}

fn main() {{
{init_lock}
{body}
    println("ending balance = ", balance);
    return balance;
}}
"#
    )
}

/// Run a step and return the ending balance.
pub fn ending_balance(step: BankStep, seed: u64) -> Option<i64> {
    match compile_and_run(&source(step), seed).ok()?.main_result {
        Value::Int(v) => Some(v),
        _ => None,
    }
}

/// Step (v)'s question: "Run the program several times. Do you see
/// different result?" — run across `seeds` and report the distinct
/// ending balances observed.
pub fn racy_balances(seeds: std::ops::Range<u64>) -> Vec<i64> {
    let mut seen: Vec<i64> = seeds
        .filter_map(|s| ending_balance(BankStep::ConcurrentRacy, s))
        .collect();
    seen.sort_unstable();
    seen.dedup();
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_serialized_are_exact() {
        for seed in [0u64, 5] {
            assert_eq!(ending_balance(BankStep::Sequential, seed), Some(EXPECTED));
            assert_eq!(
                ending_balance(BankStep::SerializedThreads, seed),
                Some(EXPECTED)
            );
        }
    }

    #[test]
    fn racy_step_varies_across_runs() {
        let balances = racy_balances(0..16);
        assert!(
            balances.len() > 1,
            "expected divergent balances, got {balances:?}"
        );
        // Lost updates can push the balance either way, but never outside
        // the physically possible envelope.
        for b in &balances {
            assert!(
                *b >= START - WITHDRAW - DEPOSIT && *b <= START + DEPOSIT,
                "balance {b}"
            );
        }
        assert!(
            balances.iter().any(|b| *b != EXPECTED),
            "some run must be wrong"
        );
    }

    #[test]
    fn locked_step_restores_correctness() {
        for seed in 0..10 {
            assert_eq!(
                ending_balance(BankStep::ConcurrentLocked, seed),
                Some(EXPECTED),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn expected_constant_matches_paper_arithmetic() {
        assert_eq!(EXPECTED, 900); // 1000 - 600 + 500, the paper's 900k scaled
    }
}
