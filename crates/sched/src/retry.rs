//! Retry policy: bounded attempts with deterministic exponential backoff.
//!
//! When a node dies under a running job the scheduler consults the
//! [`RetryPolicy`] to decide whether the job goes back into the queue
//! (after a backoff computed here) or terminates as lost. Backoff is
//! exponential in the attempt number with an optional jitter term drawn
//! from the scheduler's seeded [`SplitMix64`], so whole recovery schedules
//! replay identically for a given seed — and, because the RNG state is
//! snapshot-able, identically across a crash/recovery boundary too.

use rng::SplitMix64;

/// How (and how often) a job is retried after losing its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed, including the first run (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in ticks.
    pub base_backoff: u64,
    /// Upper bound on any single backoff, in ticks.
    pub max_backoff: u64,
    /// Maximum extra ticks of seeded jitter added to each backoff
    /// (0 disables jitter).
    pub jitter: u64,
}

impl Default for RetryPolicy {
    /// Three attempts, backoff 2 → 4 → 8 ticks (capped at 64), ±2 jitter.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: 2,
            max_backoff: 64,
            jitter: 2,
        }
    }
}

impl RetryPolicy {
    /// No retries: the first node loss is fatal (the seed's old behaviour).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: 0,
            max_backoff: 0,
            jitter: 0,
        }
    }

    /// A fixed-backoff policy (no growth, no jitter).
    pub fn fixed(max_attempts: u32, backoff: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff: backoff,
            max_backoff: backoff,
            jitter: 0,
        }
    }

    /// May a job that has already used `attempts` attempts run again?
    pub(crate) fn can_retry(&self, attempts: u32) -> bool {
        attempts < self.max_attempts.max(1)
    }

    /// Backoff in ticks before retry number `attempt` (1 = first retry).
    /// Deterministic given the RNG state: exponential growth from
    /// [`RetryPolicy::base_backoff`], capped at [`RetryPolicy::max_backoff`],
    /// plus up to [`RetryPolicy::jitter`] extra ticks.
    pub(crate) fn backoff_ticks(&self, attempt: u32, rng: &mut SplitMix64) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        let exp = self.base_backoff.saturating_mul(1u64 << shift);
        let capped = exp.min(self.max_backoff.max(self.base_backoff));
        if self.jitter == 0 {
            capped
        } else {
            capped + rng.gen_range(0..=self.jitter)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: 2,
            max_backoff: 16,
            jitter: 0,
        };
        let mut rng = SplitMix64::new(0);
        assert_eq!(p.backoff_ticks(1, &mut rng), 2);
        assert_eq!(p.backoff_ticks(2, &mut rng), 4);
        assert_eq!(p.backoff_ticks(3, &mut rng), 8);
        assert_eq!(p.backoff_ticks(4, &mut rng), 16);
        assert_eq!(p.backoff_ticks(9, &mut rng), 16, "capped at max_backoff");
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_backoff: 4,
            max_backoff: 64,
            jitter: 3,
        };
        let draws: Vec<u64> = (0..32)
            .map(|i| p.backoff_ticks(1, &mut SplitMix64::new(i)))
            .collect();
        assert!(draws.iter().all(|&b| (4..=7).contains(&b)), "{draws:?}");
        let again: Vec<u64> = (0..32)
            .map(|i| p.backoff_ticks(1, &mut SplitMix64::new(i)))
            .collect();
        assert_eq!(draws, again);
    }

    #[test]
    fn attempt_budget() {
        let p = RetryPolicy::none();
        assert!(p.can_retry(0));
        assert!(!p.can_retry(1));
        let p = RetryPolicy::fixed(3, 5);
        assert!(p.can_retry(2));
        assert!(!p.can_retry(3));
    }

    #[test]
    fn degenerate_policy_never_panics() {
        let p = RetryPolicy {
            max_attempts: 0,
            base_backoff: 0,
            max_backoff: 0,
            jitter: 0,
        };
        assert!(p.can_retry(0), "max_attempts is clamped to 1");
        assert!(!p.can_retry(1));
        let mut rng = SplitMix64::new(9);
        assert_eq!(p.backoff_ticks(40, &mut rng), 0);
    }
}
