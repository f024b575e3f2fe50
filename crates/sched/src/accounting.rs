//! Per-user usage accounting: who consumed what, for fair-share reporting.

use std::collections::BTreeMap;

/// One user's accumulated usage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UserUsage {
    /// Completed jobs.
    pub jobs_completed: u64,
    /// Core-ticks consumed (cores x runtime).
    pub core_ticks: u64,
    /// Total first-attempt queue-wait ticks across completed jobs (time
    /// from submission to the first dispatch).
    pub wait_ticks: u64,
    /// Retry dispatches granted after node losses.
    pub retry_attempts: u64,
    /// Times one of this user's running jobs lost its node.
    pub node_losses: u64,
    /// Ticks jobs spent waiting *after* a node loss (backoff + requeue
    /// time), kept separate from first-attempt wait so recovery latency is
    /// visible in fair-share reports.
    pub recovery_wait_ticks: u64,
}

/// The accounting ledger.
#[derive(Debug, Default)]
pub struct Accounting {
    users: BTreeMap<String, UserUsage>,
}

impl Accounting {
    /// An empty ledger.
    pub fn new() -> Accounting {
        Accounting::default()
    }

    /// Record one completed job.
    pub fn record(&mut self, user: &str, core_ticks: u64, wait_ticks: u64) {
        let u = self.users.entry(user.to_string()).or_default();
        u.jobs_completed += 1;
        u.core_ticks += core_ticks;
        u.wait_ticks += wait_ticks;
    }

    /// Record one retry dispatch (a job going back into the queue after a
    /// node loss, with budget remaining).
    pub(crate) fn record_retry(&mut self, user: &str) {
        self.users
            .entry(user.to_string())
            .or_default()
            .retry_attempts += 1;
    }

    /// Record one node loss under a running job.
    pub(crate) fn record_node_loss(&mut self, user: &str) {
        self.users.entry(user.to_string()).or_default().node_losses += 1;
    }

    /// Record recovery wait: ticks between losing a node and the retry
    /// actually dispatching.
    pub(crate) fn record_recovery(&mut self, user: &str, wait_ticks: u64) {
        self.users
            .entry(user.to_string())
            .or_default()
            .recovery_wait_ticks += wait_ticks;
    }

    /// Usage for one user.
    pub fn usage(&self, user: &str) -> Option<&UserUsage> {
        self.users.get(user)
    }

    /// Overwrite one user's usage wholesale (snapshot restore during crash
    /// recovery; normal accounting goes through the `record_*` methods).
    pub(crate) fn set_usage(&mut self, user: &str, usage: UserUsage) {
        self.users.insert(user.to_string(), usage);
    }

    /// All users' usage, name-ordered.
    pub fn all(&self) -> impl Iterator<Item = (&str, &UserUsage)> {
        self.users.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates() {
        let mut a = Accounting::new();
        a.record("alice", 100, 5);
        a.record("alice", 50, 0);
        a.record("bob", 50, 10);
        let alice = a.usage("alice").unwrap();
        assert_eq!(alice.jobs_completed, 2);
        assert_eq!(alice.core_ticks, 150);
        assert_eq!(alice.wait_ticks, 5);
        assert_eq!(a.usage("bob").unwrap().core_ticks, 50);
        assert!(a.usage("nobody").is_none());
        assert_eq!(a.all().count(), 2);
    }

    #[test]
    fn fault_events_tracked_separately_from_completions() {
        let mut a = Accounting::new();
        a.record_node_loss("alice");
        a.record_retry("alice");
        a.record_recovery("alice", 7);
        a.record_node_loss("alice");
        a.record("alice", 100, 3);
        let u = a.usage("alice").unwrap();
        assert_eq!(u.node_losses, 2);
        assert_eq!(u.retry_attempts, 1);
        assert_eq!(u.recovery_wait_ticks, 7);
        assert_eq!(u.wait_ticks, 3, "first-attempt wait untouched by recovery");
        assert_eq!(u.jobs_completed, 1);
    }
}
