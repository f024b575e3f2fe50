//! FastTrack-style vector-clock data-race detection.
//!
//! The detector consumes the VM's [`VmEvent`] stream and maintains:
//! per-thread vector clocks, a clock per synchronization object (mutex,
//! semaphore, condition variable, per-message channel FIFO), a clock per
//! *atomically accessed* location (so `tas`/`atomic_add` pairs are
//! happens-before ordered and never reported), and per-location last-write
//! / read-set epochs. A plain access that is not happens-after a
//! conflicting prior access is a data race.

use minilang::{MemLoc, VmEvent};
use std::collections::{HashMap, VecDeque};

/// A grow-on-demand vector clock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct VectorClock(Vec<u64>);

impl VectorClock {
    /// Component `i` (0 if never set).
    pub fn get(&self, i: usize) -> u64 {
        self.0.get(i).copied().unwrap_or(0)
    }

    /// Set component `i`.
    pub fn set(&mut self, i: usize, v: u64) {
        if self.0.len() <= i {
            self.0.resize(i + 1, 0);
        }
        self.0[i] = v;
    }

    /// Pointwise maximum with `other`.
    pub fn join(&mut self, other: &VectorClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    /// Increment component `i`.
    pub fn incr(&mut self, i: usize) {
        let v = self.get(i);
        self.set(i, v + 1);
    }
}

/// How a racing access touched the location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain read.
    Read,
    /// Plain write.
    Write,
    /// Atomic read-modify-write.
    Atomic,
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Atomic => "atomic",
        })
    }
}

/// A detected data race: two accesses to `loc`, unordered by
/// happens-before, at least one of them a write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// The racing location.
    pub loc: MemLoc,
    /// Earlier access (thread, kind).
    pub first: (usize, AccessKind),
    /// Later access (thread, kind) — the one that tripped the detector.
    pub second: (usize, AccessKind),
}

/// The happens-before engine.
#[derive(Debug, Clone, Default)]
pub(crate) struct RaceDetector {
    clocks: Vec<VectorClock>,
    inited: Vec<bool>,
    mutex_vc: HashMap<usize, VectorClock>,
    sem_vc: HashMap<usize, VectorClock>,
    cond_vc: HashMap<usize, VectorClock>,
    chan_vc: HashMap<usize, VecDeque<VectorClock>>,
    atomic_vc: HashMap<MemLoc, VectorClock>,
    last_write: HashMap<MemLoc, (usize, u64, AccessKind)>,
    /// Per location, each reader's epoch since the last write, sorted by
    /// thread id so a race report names the lowest racing reader.
    reads: HashMap<MemLoc, Vec<(usize, u64)>>,
}

impl RaceDetector {
    /// Fresh detector.
    pub fn new() -> RaceDetector {
        RaceDetector::default()
    }

    /// Thread `t`'s current epoch: its own clock component, as the next
    /// event it emits will be stamped. A step by `t` at epoch `e`
    /// happens-before a later point of thread `p` iff `p`'s clock has
    /// component `[t] >= e` — releases publish the epoch *before*
    /// incrementing, so every step up to the release is covered by the
    /// published value. The DPOR layer (`explore`) reads this to decide
    /// whether an executed step can still be reordered after a pending op.
    pub(crate) fn epoch(&self, t: usize) -> u64 {
        self.clocks.get(t).map(|c| c.get(t)).unwrap_or(0).max(1)
    }

    /// Component `q` of thread `p`'s current clock (0 when `p` has no
    /// clock yet): everything of `q` up to this value happens-before
    /// `p`'s next step.
    pub(crate) fn clock_component(&self, p: usize, q: usize) -> u64 {
        self.clocks.get(p).map(|c| c.get(q)).unwrap_or(0)
    }

    /// Make sure thread `t` has a clock with its own component at >= 1
    /// (so its first epoch is distinguishable from "never happened").
    fn touch(&mut self, t: usize) {
        if self.clocks.len() <= t {
            self.clocks.resize(t + 1, VectorClock::default());
            self.inited.resize(t + 1, false);
        }
        if !self.inited[t] {
            self.inited[t] = true;
            if self.clocks[t].get(t) == 0 {
                self.clocks[t].set(t, 1);
            }
        }
    }

    fn check_write_epoch(&self, t: usize, loc: MemLoc, second: AccessKind) -> Option<Race> {
        let &(wt, wc, wk) = self.last_write.get(&loc)?;
        if wt != t && self.clocks[t].get(wt) < wc {
            return Some(Race {
                loc,
                first: (wt, wk),
                second: (t, second),
            });
        }
        None
    }

    fn check_read_set(&self, t: usize, loc: MemLoc, second: AccessKind) -> Option<Race> {
        let rs = self.reads.get(&loc)?;
        for &(rt, rc) in rs {
            if rt != t && self.clocks[t].get(rt) < rc {
                return Some(Race {
                    loc,
                    first: (rt, AccessKind::Read),
                    second: (t, second),
                });
            }
        }
        None
    }

    /// Feed one event; returns the first race found, if any.
    pub fn observe(&mut self, ev: &VmEvent) -> Option<Race> {
        match *ev {
            VmEvent::Read { tid, loc } => {
                self.touch(tid);
                if let Some(race) = self.check_write_epoch(tid, loc, AccessKind::Read) {
                    return Some(race);
                }
                let epoch = self.clocks[tid].get(tid);
                let rs = self.reads.entry(loc).or_default();
                match rs.binary_search_by_key(&tid, |&(rt, _)| rt) {
                    Ok(i) => rs[i].1 = epoch,
                    Err(i) => rs.insert(i, (tid, epoch)),
                }
            }
            VmEvent::Write { tid, loc } => {
                self.touch(tid);
                if let Some(race) = self.check_write_epoch(tid, loc, AccessKind::Write) {
                    return Some(race);
                }
                if let Some(race) = self.check_read_set(tid, loc, AccessKind::Write) {
                    return Some(race);
                }
                let epoch = self.clocks[tid].get(tid);
                self.last_write.insert(loc, (tid, epoch, AccessKind::Write));
                // Every prior read happens-before this write now; later
                // conflicts are caught against the write epoch.
                self.reads.remove(&loc);
            }
            VmEvent::AtomicRw { tid, loc } => {
                self.touch(tid);
                // Acquire the location's release clock first so
                // atomic/atomic pairs are ordered and never flagged.
                if let Some(vc) = self.atomic_vc.get(&loc) {
                    self.clocks[tid].join(&vc.clone());
                }
                if let Some(race) = self.check_write_epoch(tid, loc, AccessKind::Atomic) {
                    return Some(race);
                }
                if let Some(race) = self.check_read_set(tid, loc, AccessKind::Atomic) {
                    return Some(race);
                }
                let epoch = self.clocks[tid].get(tid);
                self.last_write
                    .insert(loc, (tid, epoch, AccessKind::Atomic));
                self.reads.remove(&loc);
                let snapshot = self.clocks[tid].clone();
                self.atomic_vc.entry(loc).or_default().join(&snapshot);
                self.clocks[tid].incr(tid);
            }
            VmEvent::LockAcq { tid, mutex } => {
                self.touch(tid);
                if let Some(vc) = self.mutex_vc.get(&mutex) {
                    self.clocks[tid].join(&vc.clone());
                }
            }
            VmEvent::LockRel { tid, mutex } | VmEvent::CondRelease { tid, mutex, .. } => {
                self.touch(tid);
                self.mutex_vc.insert(mutex, self.clocks[tid].clone());
                self.clocks[tid].incr(tid);
            }
            VmEvent::SemAcq { tid, sem } => {
                self.touch(tid);
                if let Some(vc) = self.sem_vc.get(&sem) {
                    self.clocks[tid].join(&vc.clone());
                }
            }
            VmEvent::SemRel { tid, sem } => {
                self.touch(tid);
                let snapshot = self.clocks[tid].clone();
                self.sem_vc.entry(sem).or_default().join(&snapshot);
                self.clocks[tid].incr(tid);
            }
            VmEvent::ChanSend { tid, chan } => {
                self.touch(tid);
                let snapshot = self.clocks[tid].clone();
                self.chan_vc.entry(chan).or_default().push_back(snapshot);
                self.clocks[tid].incr(tid);
            }
            VmEvent::ChanRecv { tid, chan } => {
                self.touch(tid);
                if let Some(vc) = self.chan_vc.entry(chan).or_default().pop_front() {
                    self.clocks[tid].join(&vc);
                }
            }
            VmEvent::Spawned { parent, child } => {
                self.touch(parent);
                let mut c = self.clocks[parent].clone();
                c.incr(child);
                if self.clocks.len() <= child {
                    self.clocks.resize(child + 1, VectorClock::default());
                    self.inited.resize(child + 1, false);
                }
                self.clocks[child] = c;
                self.inited[child] = true;
                self.clocks[parent].incr(parent);
            }
            VmEvent::Joined { tid, target } => {
                self.touch(tid);
                self.touch(target);
                let cu = self.clocks[target].clone();
                self.clocks[tid].join(&cu);
            }
            VmEvent::CondAcquire { tid, cv, mutex } => {
                self.touch(tid);
                if let Some(vc) = self.mutex_vc.get(&mutex) {
                    self.clocks[tid].join(&vc.clone());
                }
                if let Some(vc) = self.cond_vc.get(&cv) {
                    self.clocks[tid].join(&vc.clone());
                }
            }
            VmEvent::CondNotify { tid, cv } => {
                self.touch(tid);
                let snapshot = self.clocks[tid].clone();
                self.cond_vc.entry(cv).or_default().join(&snapshot);
                self.clocks[tid].incr(tid);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(slot: usize) -> MemLoc {
        MemLoc::Global(slot)
    }

    #[test]
    fn unordered_write_write_races() {
        let mut d = RaceDetector::new();
        assert!(d
            .observe(&VmEvent::Spawned {
                parent: 0,
                child: 1
            })
            .is_none());
        assert!(d.observe(&VmEvent::Write { tid: 0, loc: g(3) }).is_none());
        let race = d
            .observe(&VmEvent::Write { tid: 1, loc: g(3) })
            .expect("race");
        assert_eq!(race.loc, g(3));
        assert_eq!(race.first.0, 0);
        assert_eq!(race.second.0, 1);
    }

    #[test]
    fn mutex_orders_accesses() {
        let mut d = RaceDetector::new();
        d.observe(&VmEvent::Spawned {
            parent: 0,
            child: 1,
        });
        d.observe(&VmEvent::LockAcq { tid: 0, mutex: 0 });
        assert!(d.observe(&VmEvent::Write { tid: 0, loc: g(1) }).is_none());
        d.observe(&VmEvent::LockRel { tid: 0, mutex: 0 });
        d.observe(&VmEvent::LockAcq { tid: 1, mutex: 0 });
        assert!(
            d.observe(&VmEvent::Write { tid: 1, loc: g(1) }).is_none(),
            "lock ordered"
        );
        d.observe(&VmEvent::LockRel { tid: 1, mutex: 0 });
    }

    #[test]
    fn atomics_never_race_with_atomics_but_do_with_plain() {
        let mut d = RaceDetector::new();
        d.observe(&VmEvent::Spawned {
            parent: 0,
            child: 1,
        });
        assert!(d
            .observe(&VmEvent::AtomicRw { tid: 0, loc: g(2) })
            .is_none());
        assert!(
            d.observe(&VmEvent::AtomicRw { tid: 1, loc: g(2) })
                .is_none(),
            "atomic pair is ordered"
        );
        let race = d.observe(&VmEvent::Write { tid: 0, loc: g(2) });
        assert!(race.is_some(), "plain write vs atomic must race");
    }

    #[test]
    fn spawn_and_join_are_edges() {
        let mut d = RaceDetector::new();
        assert!(d.observe(&VmEvent::Write { tid: 0, loc: g(0) }).is_none());
        d.observe(&VmEvent::Spawned {
            parent: 0,
            child: 1,
        });
        assert!(
            d.observe(&VmEvent::Write { tid: 1, loc: g(0) }).is_none(),
            "spawn edge"
        );
        d.observe(&VmEvent::Joined { tid: 0, target: 1 });
        assert!(
            d.observe(&VmEvent::Read { tid: 0, loc: g(0) }).is_none(),
            "join edge"
        );
    }

    #[test]
    fn channel_send_orders_before_recv() {
        let mut d = RaceDetector::new();
        d.observe(&VmEvent::Spawned {
            parent: 0,
            child: 1,
        });
        assert!(d.observe(&VmEvent::Write { tid: 0, loc: g(5) }).is_none());
        d.observe(&VmEvent::ChanSend { tid: 0, chan: 0 });
        d.observe(&VmEvent::ChanRecv { tid: 1, chan: 0 });
        assert!(
            d.observe(&VmEvent::Write { tid: 1, loc: g(5) }).is_none(),
            "message edge"
        );
    }

    #[test]
    fn a_write_racing_many_reads_names_the_lowest_reader() {
        let mut d = RaceDetector::new();
        for child in 1..=4 {
            d.observe(&VmEvent::Spawned { parent: 0, child });
        }
        for tid in [3, 1, 2] {
            assert!(d.observe(&VmEvent::Read { tid, loc: g(4) }).is_none());
        }
        let race = d.observe(&VmEvent::Write { tid: 4, loc: g(4) }).unwrap();
        assert_eq!(race.first, (1, AccessKind::Read));
        assert_eq!(race.second, (4, AccessKind::Write));
    }

    #[test]
    fn read_read_is_not_a_race() {
        let mut d = RaceDetector::new();
        d.observe(&VmEvent::Spawned {
            parent: 0,
            child: 1,
        });
        assert!(d.observe(&VmEvent::Read { tid: 0, loc: g(9) }).is_none());
        assert!(d.observe(&VmEvent::Read { tid: 1, loc: g(9) }).is_none());
    }
}
