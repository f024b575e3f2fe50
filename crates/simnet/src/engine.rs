//! The discrete-event engine: a simulated clock plus an ordered event queue.
//!
//! The engine is generic over the event payload type `E`. The driving code
//! pops events one at a time and may schedule further events in response;
//! the clock only moves when an event is popped, never backwards.

use crate::event::{EventId, Scheduled};
use crate::time::SimTime;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;

/// Errors produced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// `schedule_at` was asked to schedule an event before the current clock.
    ScheduleInPast {
        /// The engine clock when the call was made.
        now: SimTime,
        /// The (earlier) requested fire time.
        requested: SimTime,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ScheduleInPast { now, requested } => {
                write!(
                    f,
                    "cannot schedule event at {requested} before current time {now}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// A deterministic discrete-event simulation engine.
///
/// ```
/// use simnet::engine::Engine;
/// use simnet::time::SimTime;
///
/// let mut eng: Engine<&str> = Engine::new();
/// eng.schedule_at(SimTime(5), "b").unwrap();
/// eng.schedule_at(SimTime(2), "a").unwrap();
/// let mut order = Vec::new();
/// while let Some((_t, ev)) = eng.next_event() {
///     order.push(ev);
/// }
/// assert_eq!(order, vec!["a", "b"]);
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    now: SimTime,
    queue: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    /// Events scheduled but neither fired nor cancelled.
    live: HashSet<EventId>,
    /// Cancelled events still physically present in the heap.
    cancelled: HashSet<EventId>,
    processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine with the clock at zero and an empty queue.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
            live: HashSet::new(),
            cancelled: HashSet::new(),
            processed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far (cancelled events excluded).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending (non-cancelled) events.
    pub fn pending(&self) -> usize {
        self.live.len()
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// Returns an [`EventId`] usable with [`Engine::cancel`]. Fails if `at`
    /// is earlier than the current clock (scheduling *at* the current instant
    /// is allowed and fires after already-queued same-instant events).
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> Result<EventId, EngineError> {
        if at < self.now {
            return Err(EngineError::ScheduleInPast {
                now: self.now,
                requested: at,
            });
        }
        let id = EventId(self.next_seq);
        self.next_seq += 1;
        self.live.insert(id);
        self.queue.push(Scheduled { at, id, payload });
        Ok(id)
    }

    /// Cancel a pending event. Returns `true` if the event was still pending.
    ///
    /// Cancellation is lazy: the entry stays in the heap and is skipped when
    /// popped, which keeps `cancel` O(1).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.live.remove(&id) {
            self.cancelled.insert(id);
            true
        } else {
            false
        }
    }

    /// Pop the next live event, advancing the clock to its fire time.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        while let Some(s) = self.queue.pop() {
            if self.cancelled.remove(&s.id) {
                continue;
            }
            self.live.remove(&s.id);
            debug_assert!(s.at >= self.now, "event queue went backwards");
            self.now = s.at;
            self.processed += 1;
            return Some((s.at, s.payload));
        }
        None
    }

    /// Peek at the fire time of the next live event without popping it.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        // Drop cancelled heads eagerly so peek is accurate.
        while let Some(head) = self.queue.peek() {
            if self.cancelled.contains(&head.id) {
                let s = self.queue.pop().expect("peeked entry exists");
                self.cancelled.remove(&s.id);
            } else {
                return Some(head.at);
            }
        }
        None
    }

    /// Advance the clock to `t` without processing events, used by hybrid
    /// (real-thread + simulated-cost) components. Fails if any pending event
    /// would be skipped.
    pub fn advance_to(&mut self, t: SimTime) -> Result<(), EngineError> {
        if let Some(next) = self.peek_time() {
            if next < t {
                return Err(EngineError::ScheduleInPast {
                    now: next,
                    requested: t,
                });
            }
        }
        if t > self.now {
            self.now = t;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime(30), 3).unwrap();
        eng.schedule_at(SimTime(10), 1).unwrap();
        eng.schedule_at(SimTime(20), 2).unwrap();
        let seen: Vec<u32> = std::iter::from_fn(|| eng.next_event().map(|(_, v)| v)).collect();
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(eng.now(), SimTime(30));
    }

    #[test]
    fn a_popped_event_can_schedule_more() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime(1), 0).unwrap();
        let mut count = 0;
        while let Some((t, v)) = eng.next_event() {
            count += 1;
            if v < 4 {
                eng.schedule_at(SimTime(t.nanos() + 1), v + 1).unwrap();
            }
        }
        assert_eq!(count, 5);
        assert_eq!(eng.now(), SimTime(5));
    }

    #[test]
    fn schedule_in_past_rejected() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime(10), 1).unwrap();
        eng.next_event();
        assert!(matches!(
            eng.schedule_at(SimTime(5), 2),
            Err(EngineError::ScheduleInPast { .. })
        ));
    }

    #[test]
    fn cancel_suppresses_event() {
        let mut eng: Engine<u32> = Engine::new();
        let a = eng.schedule_at(SimTime(10), 1).unwrap();
        eng.schedule_at(SimTime(20), 2).unwrap();
        assert!(eng.cancel(a));
        assert!(!eng.cancel(a), "double cancel reports false");
        let (_, v) = eng.next_event().unwrap();
        assert_eq!(v, 2);
        assert!(eng.next_event().is_none());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut eng: Engine<u32> = Engine::new();
        assert!(!eng.cancel(EventId(99)));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut eng: Engine<u32> = Engine::new();
        let a = eng.schedule_at(SimTime(5), 1).unwrap();
        eng.schedule_at(SimTime(9), 2).unwrap();
        eng.cancel(a);
        assert_eq!(eng.peek_time(), Some(SimTime(9)));
    }

    #[test]
    fn advance_to_moves_clock_when_safe() {
        let mut eng: Engine<u32> = Engine::new();
        eng.advance_to(SimTime(100)).unwrap();
        assert_eq!(eng.now(), SimTime(100));
        eng.schedule_at(SimTime(105), 1).unwrap();
        assert!(eng.advance_to(SimTime(200)).is_err());
    }

    #[test]
    fn same_instant_fifo() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime(7), 1).unwrap();
        eng.schedule_at(SimTime(7), 2).unwrap();
        eng.schedule_at(SimTime(7), 3).unwrap();
        let seen: Vec<u32> = std::iter::from_fn(|| eng.next_event().map(|(_, v)| v)).collect();
        assert_eq!(seen, vec![1, 2, 3]);
    }
}
