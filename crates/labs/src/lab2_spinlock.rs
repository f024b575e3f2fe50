//! Multicore Lab 2 — Spin Lock and Cache Coherence.
//!
//! "Simulate cache invalidation and updating using TAS Lock. ... A shared
//! variable was used to simulate the main copy of the shared data in the
//! main memory and each thread has a local copy of the shared variable,
//! which represents the copy in the local cache" (§III.B.2).
//!
//! Two layers here:
//! 1. the minilang TTAS spin lock (the lab's reference solution);
//! 2. MESI trace experiments quantifying why TTAS and the ticket lock beat
//!    TAS: invalidation counts from [`cluster::CacheSystem`].

use cluster::{AccessKind, CacheSystem, CoherenceProtocol, CoherenceStats};

/// The lab's reference spin lock: test-and-test-and-set, which spins on a
/// read where TAS spins on a write.
pub const TTAS_SOURCE: &str = r#"
var flag = 0;
var counter = 0;

fn acquire() {
    while (true) {
        while (flag == 1) { }          // local spin: reads hit the cache
        if (tas(flag) == 0) { return; } // only write when it looks free
    }
}

fn release() { flag = 0; }

fn worker(n) {
    for (var i = 0; i < n; i = i + 1) {
        acquire();
        counter = counter + 1;
        release();
    }
}

fn main() {
    var t1 = spawn worker(150);
    var t2 = spawn worker(150);
    var t3 = spawn worker(150);
    join(t1); join(t2); join(t3);
    return counter;
}
"#;

/// The coherence experiment: replay the memory-access pattern of `threads`
/// cores fighting over one lock word under MESI (or write-through), and
/// report the event counters. `spins_while_held` models how long the lock
/// stays contended per acquisition.
pub fn coherence_trace(
    threads: usize,
    acquisitions: usize,
    spins_while_held: usize,
    ttas: bool,
    protocol: CoherenceProtocol,
) -> CoherenceStats {
    let mut sys = CacheSystem::new(threads.max(2), 64, protocol);
    let lock_addr = 0x1000u64;
    for a in 0..acquisitions {
        let holder = a % threads;
        // Holder takes the lock: an atomic RMW = read + write of the line.
        sys.access(holder, lock_addr, AccessKind::Read);
        sys.access(holder, lock_addr, AccessKind::Write);
        // Everyone else spins while it is held.
        for _ in 0..spins_while_held {
            for t in 0..threads {
                if t == holder {
                    continue;
                }
                if ttas {
                    // TTAS: spin on a read; the line settles into Shared.
                    sys.access(t, lock_addr, AccessKind::Read);
                } else {
                    // TAS: every spin is a write (failed RMW still writes).
                    sys.access(t, lock_addr, AccessKind::Read);
                    sys.access(t, lock_addr, AccessKind::Write);
                }
            }
        }
        // Holder releases: one more write.
        sys.access(holder, lock_addr, AccessKind::Write);
    }
    sys.stats().clone()
}

/// The third lock of the lecture's taxonomy, a ticket (queue) lock: FIFO
/// fair, and waiters spin on a *read* of `now_serving`, so coherence traffic
/// stays TTAS-like while adding the fairness TAS/TTAS lack.
///
/// Ticket-lock coherence trace: waiters spin reading `now_serving` (one
/// shared line); acquisition RMWs `next_ticket` (another line); release
/// writes `now_serving` once.
pub fn ticket_coherence_trace(
    threads: usize,
    acquisitions: usize,
    spins_while_held: usize,
    protocol: CoherenceProtocol,
) -> CoherenceStats {
    let mut sys = CacheSystem::new(threads.max(2), 64, protocol);
    let next_ticket = 0x1000u64;
    let now_serving = 0x2000u64; // different line: no false sharing
    for a in 0..acquisitions {
        let holder = a % threads;
        // Holder takes a ticket: RMW on next_ticket.
        sys.access(holder, next_ticket, AccessKind::Read);
        sys.access(holder, next_ticket, AccessKind::Write);
        // Everyone else spins reading now_serving.
        for _ in 0..spins_while_held {
            for t in 0..threads {
                if t != holder {
                    sys.access(t, now_serving, AccessKind::Read);
                }
            }
        }
        // Release: one write to now_serving.
        sys.access(holder, now_serving, AccessKind::Write);
    }
    sys.stats().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tas_generates_more_invalidations_than_ttas() {
        let tas = coherence_trace(4, 50, 10, false, CoherenceProtocol::Mesi);
        let ttas = coherence_trace(4, 50, 10, true, CoherenceProtocol::Mesi);
        assert!(
            tas.invalidations > 3 * ttas.invalidations,
            "TAS {} vs TTAS {} invalidations",
            tas.invalidations,
            ttas.invalidations
        );
        assert!(tas.bus_transactions > ttas.bus_transactions);
    }

    #[test]
    fn ttas_spins_hit_cache() {
        let ttas = coherence_trace(4, 20, 20, true, CoherenceProtocol::Mesi);
        // Spinning reads should mostly hit after the first pull.
        assert!(ttas.hit_rate() > 0.8, "hit rate {}", ttas.hit_rate());
    }

    #[test]
    fn write_through_is_worse_for_both() {
        let mesi = coherence_trace(4, 30, 10, false, CoherenceProtocol::Mesi);
        let wt = coherence_trace(4, 30, 10, false, CoherenceProtocol::WriteThrough);
        assert!(wt.bus_transactions > mesi.bus_transactions);
    }

    #[test]
    fn ticket_traffic_between_ttas_and_tas() {
        let tas = coherence_trace(8, 60, 10, false, CoherenceProtocol::Mesi);
        let ticket = ticket_coherence_trace(8, 60, 10, CoherenceProtocol::Mesi);
        assert!(
            ticket.invalidations < tas.invalidations / 2,
            "ticket {} vs TAS {}",
            ticket.invalidations,
            tas.invalidations
        );
        assert!(
            ticket.hit_rate() > 0.8,
            "ticket waiters should spin in cache"
        );
    }
}
