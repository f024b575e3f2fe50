//! A hashed timer wheel for per-connection deadlines.
//!
//! The reactor arms one deadline per parked connection (read deadline
//! while waiting for request bytes, write deadline while flushing a
//! response). Deadlines are coarse — tens of milliseconds of slack is
//! fine for a slow-loris cutoff — so a fixed-slot wheel beats a heap: arm
//! is O(1) push, cancel is free (entries carry a sequence number and
//! stale ones are skipped on expiry), and each reactor tick drains only
//! the slots the clock hand passed over.

/// One armed deadline. `seq` is the connection's park sequence number at
/// arm time: every park/unpark bumps the sequence, so an entry whose
/// `seq` no longer matches is a cancelled timer and expires into nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Deadline {
    /// Slab token of the parked connection.
    pub token: usize,
    /// Park sequence the deadline belongs to.
    pub seq: u64,
    /// Absolute deadline, in wheel-clock milliseconds.
    pub at_ms: u64,
}

/// The wheel: `slots` rings of entries, `tick_ms` milliseconds per slot.
/// Entries further out than one revolution stay in their slot and are
/// re-examined (their `at_ms` keeps them alive) each pass — deadlines
/// here are seconds against a multi-second revolution, so overflow
/// re-queues are rare.
pub(crate) struct TimerWheel {
    slots: Vec<Vec<Deadline>>,
    tick_ms: u64,
    /// The last slot index the hand fully drained.
    cursor: u64,
}

impl TimerWheel {
    /// A wheel with `slots` slots of `tick_ms` granularity.
    pub fn new(slots: usize, tick_ms: u64) -> TimerWheel {
        TimerWheel {
            slots: (0..slots.max(2)).map(|_| Vec::new()).collect(),
            tick_ms: tick_ms.max(1),
            cursor: 0,
        }
    }

    /// Arm a deadline. `now_ms` only guards against arming in the past.
    pub fn arm(&mut self, now_ms: u64, deadline: Deadline) {
        let at = deadline.at_ms.max(now_ms + 1);
        // Ceiling tick: the hand must reach the slot *at or after* the
        // deadline; flooring would park the entry one tick behind the
        // hand and cost a whole revolution.
        let tick = at.div_ceil(self.tick_ms);
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot].push(Deadline {
            at_ms: at,
            ..deadline
        });
    }

    /// Advance the hand to `now_ms`, appending every due entry to `out`.
    /// Stale (cancelled) entries are the caller's problem to recognise by
    /// sequence number; the wheel just delivers what expired.
    pub fn advance(&mut self, now_ms: u64, out: &mut Vec<Deadline>) {
        let target = now_ms / self.tick_ms;
        let n = self.slots.len() as u64;
        // Sweep at most one full revolution — beyond that every slot has
        // already been examined once this call.
        let first = self.cursor + 1;
        let last = target.min(self.cursor + n);
        for tick in first..=last {
            let slot = (tick % n) as usize;
            let entries = &mut self.slots[slot];
            let mut i = 0;
            while i < entries.len() {
                if entries[i].at_ms <= now_ms {
                    out.push(entries.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        self.cursor = self.cursor.max(target);
    }

    /// Milliseconds until the next armed deadline, or `None` when empty.
    /// An O(slots + entries) scan — the reactor calls this once per loop
    /// to size its poll timeout, and both factors are small.
    pub(crate) fn next_deadline_in(&self, now_ms: u64) -> Option<u64> {
        self.slots
            .iter()
            .flatten()
            .map(|d| d.at_ms.saturating_sub(now_ms))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(token: usize, seq: u64, at_ms: u64) -> Deadline {
        Deadline { token, seq, at_ms }
    }

    #[test]
    fn fires_at_deadline_not_before() {
        let mut w = TimerWheel::new(16, 10);
        w.arm(0, d(1, 1, 95));
        let mut out = Vec::new();
        w.advance(90, &mut out);
        assert!(out.is_empty(), "too early");
        w.advance(100, &mut out);
        assert_eq!(out, vec![d(1, 1, 95)]);
        assert_eq!(w.next_deadline_in(100), None);
    }

    #[test]
    fn past_deadlines_clamp_forward() {
        let mut w = TimerWheel::new(16, 10);
        w.advance(500, &mut Vec::new());
        w.arm(500, d(2, 7, 100)); // already past: clamps to now+1
        let mut out = Vec::new();
        w.advance(520, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, 2);
    }

    #[test]
    fn entries_beyond_one_revolution_survive() {
        let mut w = TimerWheel::new(8, 10); // 80ms revolution
        w.arm(0, d(3, 1, 250));
        let mut out = Vec::new();
        w.advance(100, &mut out);
        w.advance(200, &mut out);
        assert!(out.is_empty(), "three revolutions early");
        w.advance(260, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn many_deadlines_in_one_slot() {
        let mut w = TimerWheel::new(4, 10);
        for t in 0..10 {
            w.arm(0, d(t, 1, 40 + (t as u64 % 2) * 40)); // 40ms and 80ms, same slot
        }
        let mut out = Vec::new();
        w.advance(45, &mut out);
        assert_eq!(out.len(), 5, "only the 40ms half fired");
        out.clear();
        w.advance(85, &mut out);
        assert_eq!(out.len(), 5, "the 80ms half fired a revolution later");
        assert_eq!(w.next_deadline_in(85), None);
    }

    #[test]
    fn next_deadline_sizes_poll_timeout() {
        let mut w = TimerWheel::new(16, 10);
        assert_eq!(w.next_deadline_in(0), None);
        w.arm(0, d(1, 1, 300));
        w.arm(0, d(2, 1, 120));
        assert_eq!(w.next_deadline_in(100), Some(20));
        assert_eq!(w.next_deadline_in(150), Some(0), "overdue clamps to zero");
    }
}
