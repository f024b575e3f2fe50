//! Cache-coherence simulation: MESI and write-through protocols.
//!
//! Lab 2 ("Spin Lock and Cache Coherence") has students "simulate cache
//! invalidation and updating using TAS Lock" — each thread holds a local
//! copy of a shared variable and the lock protocol forces invalidations.
//! This module is the underlying machine: per-core caches tracked at line
//! granularity, a snooping bus, and full MESI state transitions with
//! counters for every coherence event, plus a write-through protocol for the
//! ablation bench.
//!
//! The model is trace-driven: callers replay a sequence of
//! `(core, address, read/write)` accesses and inspect latency and traffic.

use std::collections::HashMap;
use std::fmt;

/// Coherence state of one cache line (MESI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum LineState {
    /// Dirty and exclusive to one cache.
    Modified,
    /// Clean and exclusive to one cache.
    Exclusive,
    /// Clean, possibly in several caches.
    Shared,
    /// Not present / invalidated.
    Invalid,
}

impl fmt::Display for LineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            LineState::Modified => 'M',
            LineState::Exclusive => 'E',
            LineState::Shared => 'S',
            LineState::Invalid => 'I',
        };
        write!(f, "{c}")
    }
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (includes the write half of an atomic RMW).
    Write,
}

/// Which protocol the system runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceProtocol {
    /// Full MESI invalidation protocol.
    Mesi,
    /// Write-through/no-allocate-on-write: every store goes to memory and
    /// invalidates remote copies; reads allocate Shared. Used as the
    /// ablation baseline the MESI design is compared against.
    WriteThrough,
}

/// Aggregate coherence event counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Loads that hit in the local cache.
    pub read_hits: u64,
    /// Loads that missed.
    pub read_misses: u64,
    /// Stores that hit a writable (M/E) line.
    pub write_hits: u64,
    /// Stores that missed or needed an upgrade.
    pub write_misses: u64,
    /// Remote lines invalidated by our stores.
    pub invalidations: u64,
    /// Dirty lines written back to memory (eviction or remote read of M).
    pub writebacks: u64,
    /// Lines supplied cache-to-cache instead of from memory.
    pub interventions: u64,
    /// Bus transactions issued (BusRd + BusRdX + BusUpgr + write-throughs).
    pub bus_transactions: u64,
}

impl CoherenceStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Hit rate over all accesses (1.0 for an empty trace).
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            return 1.0;
        }
        (self.read_hits + self.write_hits) as f64 / total as f64
    }
}

/// Access latencies in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheLatency {
    /// Local cache hit.
    pub hit_cycles: u64,
    /// Cache-to-cache transfer.
    pub intervention_cycles: u64,
    /// Memory access (miss satisfied from DRAM).
    pub memory_cycles: u64,
}

impl Default for CacheLatency {
    fn default() -> Self {
        // Typical 2010s commodity numbers: L1 ~2 cycles, snoop ~40, DRAM ~200.
        CacheLatency {
            hit_cycles: 2,
            intervention_cycles: 40,
            memory_cycles: 200,
        }
    }
}

/// A multi-core cache system with a snooping bus.
///
/// ```
/// use cluster::cache::{AccessKind, CacheSystem, CoherenceProtocol};
///
/// let mut sys = CacheSystem::new(4, 64, CoherenceProtocol::Mesi);
/// sys.access(0, 0x1000, AccessKind::Write); // core 0 owns the line (M)
/// sys.access(1, 0x1000, AccessKind::Read);  // core 1 pulls it Shared
/// sys.access(0, 0x1000, AccessKind::Write); // invalidates core 1's copy
/// assert_eq!(sys.stats().invalidations, 1);
/// ```
#[derive(Debug)]
pub struct CacheSystem {
    cores: usize,
    line_size: u64,
    protocol: CoherenceProtocol,
    latency: CacheLatency,
    /// line address -> per-core state (absent entries are Invalid).
    lines: HashMap<u64, Vec<LineState>>,
    stats: CoherenceStats,
}

impl CacheSystem {
    /// A system of `cores` caches with `line_size`-byte lines (power of two).
    pub fn new(cores: usize, line_size: u64, protocol: CoherenceProtocol) -> CacheSystem {
        assert!(cores >= 1, "need at least one core");
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        CacheSystem {
            cores,
            line_size,
            protocol,
            latency: CacheLatency::default(),
            lines: HashMap::new(),
            stats: CoherenceStats::default(),
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    /// Current state of `addr`'s line in `core`'s cache.
    pub(crate) fn line_state(&self, core: usize, addr: u64) -> LineState {
        let line = addr & !(self.line_size - 1);
        self.lines
            .get(&line)
            .map(|v| v[core])
            .unwrap_or(LineState::Invalid)
    }

    /// Perform one access, returning its latency in cycles.
    ///
    /// Panics if `core` is out of range (programming error, not input error).
    pub fn access(&mut self, core: usize, addr: u64, kind: AccessKind) -> u64 {
        assert!(core < self.cores, "core {core} out of range");
        let line = addr & !(self.line_size - 1);
        let states = self
            .lines
            .entry(line)
            .or_insert_with(|| vec![LineState::Invalid; self.cores]);
        match self.protocol {
            CoherenceProtocol::Mesi => {
                Self::access_mesi(states, core, kind, &mut self.stats, self.latency)
            }
            CoherenceProtocol::WriteThrough => {
                Self::access_wt(states, core, kind, &mut self.stats, self.latency)
            }
        }
    }

    fn access_mesi(
        states: &mut [LineState],
        core: usize,
        kind: AccessKind,
        stats: &mut CoherenceStats,
        lat: CacheLatency,
    ) -> u64 {
        let mine = states[core];
        match (kind, mine) {
            (AccessKind::Read, LineState::Modified)
            | (AccessKind::Read, LineState::Exclusive)
            | (AccessKind::Read, LineState::Shared) => {
                stats.read_hits += 1;
                lat.hit_cycles
            }
            (AccessKind::Read, LineState::Invalid) => {
                stats.read_misses += 1;
                stats.bus_transactions += 1; // BusRd
                let mut supplied_by_cache = false;
                for (i, s) in states.iter_mut().enumerate() {
                    if i == core {
                        continue;
                    }
                    match *s {
                        LineState::Modified => {
                            // Owner writes back and downgrades to Shared.
                            stats.writebacks += 1;
                            stats.interventions += 1;
                            *s = LineState::Shared;
                            supplied_by_cache = true;
                        }
                        LineState::Exclusive => {
                            stats.interventions += 1;
                            *s = LineState::Shared;
                            supplied_by_cache = true;
                        }
                        LineState::Shared => supplied_by_cache = true,
                        LineState::Invalid => {}
                    }
                }
                let anyone_else = states
                    .iter()
                    .enumerate()
                    .any(|(i, s)| i != core && *s != LineState::Invalid);
                states[core] = if anyone_else {
                    LineState::Shared
                } else {
                    LineState::Exclusive
                };
                if supplied_by_cache {
                    lat.intervention_cycles
                } else {
                    lat.memory_cycles
                }
            }
            (AccessKind::Write, LineState::Modified) => {
                stats.write_hits += 1;
                lat.hit_cycles
            }
            (AccessKind::Write, LineState::Exclusive) => {
                // Silent upgrade E -> M, no bus traffic.
                stats.write_hits += 1;
                states[core] = LineState::Modified;
                lat.hit_cycles
            }
            (AccessKind::Write, LineState::Shared) => {
                // BusUpgr: invalidate all other copies.
                stats.write_misses += 1;
                stats.bus_transactions += 1;
                for (i, s) in states.iter_mut().enumerate() {
                    if i != core && *s != LineState::Invalid {
                        *s = LineState::Invalid;
                        stats.invalidations += 1;
                    }
                }
                states[core] = LineState::Modified;
                lat.hit_cycles
            }
            (AccessKind::Write, LineState::Invalid) => {
                // BusRdX: fetch with intent to modify, invalidating everywhere.
                stats.write_misses += 1;
                stats.bus_transactions += 1;
                let mut supplied_by_cache = false;
                for (i, s) in states.iter_mut().enumerate() {
                    if i == core {
                        continue;
                    }
                    match *s {
                        LineState::Modified => {
                            stats.writebacks += 1;
                            stats.interventions += 1;
                            supplied_by_cache = true;
                            *s = LineState::Invalid;
                            stats.invalidations += 1;
                        }
                        LineState::Exclusive | LineState::Shared => {
                            if *s == LineState::Exclusive {
                                stats.interventions += 1;
                                supplied_by_cache = true;
                            }
                            *s = LineState::Invalid;
                            stats.invalidations += 1;
                        }
                        LineState::Invalid => {}
                    }
                }
                states[core] = LineState::Modified;
                if supplied_by_cache {
                    lat.intervention_cycles
                } else {
                    lat.memory_cycles
                }
            }
        }
    }

    fn access_wt(
        states: &mut [LineState],
        core: usize,
        kind: AccessKind,
        stats: &mut CoherenceStats,
        lat: CacheLatency,
    ) -> u64 {
        match kind {
            AccessKind::Read => {
                if states[core] != LineState::Invalid {
                    stats.read_hits += 1;
                    lat.hit_cycles
                } else {
                    stats.read_misses += 1;
                    stats.bus_transactions += 1;
                    states[core] = LineState::Shared;
                    lat.memory_cycles
                }
            }
            AccessKind::Write => {
                // Every store goes to memory and invalidates remote copies.
                stats.bus_transactions += 1;
                if states[core] != LineState::Invalid {
                    stats.write_hits += 1;
                } else {
                    stats.write_misses += 1;
                }
                for (i, s) in states.iter_mut().enumerate() {
                    if i != core && *s != LineState::Invalid {
                        *s = LineState::Invalid;
                        stats.invalidations += 1;
                    }
                }
                states[core] = LineState::Shared; // written through, stays clean
                lat.memory_cycles
            }
        }
    }

    /// MESI invariant: a Modified or Exclusive line has no other valid copy.
    /// Exposed for property tests.
    pub fn check_invariants(&self) -> bool {
        self.lines.values().all(|states| {
            let exclusive_like = states
                .iter()
                .filter(|s| matches!(s, LineState::Modified | LineState::Exclusive))
                .count();
            let valid = states.iter().filter(|s| **s != LineState::Invalid).count();
            exclusive_like == 0 || (exclusive_like == 1 && valid == 1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_read_is_exclusive() {
        let mut sys = CacheSystem::new(2, 64, CoherenceProtocol::Mesi);
        let lat = sys.access(0, 0x40, AccessKind::Read);
        assert_eq!(sys.line_state(0, 0x40), LineState::Exclusive);
        assert_eq!(lat, CacheLatency::default().memory_cycles);
        assert!(sys.check_invariants());
    }

    #[test]
    fn second_reader_shares() {
        let mut sys = CacheSystem::new(2, 64, CoherenceProtocol::Mesi);
        sys.access(0, 0, AccessKind::Read);
        let lat = sys.access(1, 0, AccessKind::Read);
        assert_eq!(sys.line_state(0, 0), LineState::Shared);
        assert_eq!(sys.line_state(1, 0), LineState::Shared);
        // Supplied cache-to-cache from the Exclusive owner.
        assert_eq!(lat, CacheLatency::default().intervention_cycles);
        assert_eq!(sys.stats().interventions, 1);
    }

    #[test]
    fn write_to_shared_invalidates() {
        let mut sys = CacheSystem::new(4, 64, CoherenceProtocol::Mesi);
        for c in 0..4 {
            sys.access(c, 0, AccessKind::Read);
        }
        sys.access(2, 0, AccessKind::Write);
        assert_eq!(sys.line_state(2, 0), LineState::Modified);
        for c in [0usize, 1, 3] {
            assert_eq!(sys.line_state(c, 0), LineState::Invalid);
        }
        assert_eq!(sys.stats().invalidations, 3);
        assert!(sys.check_invariants());
    }

    #[test]
    fn silent_e_to_m_upgrade() {
        let mut sys = CacheSystem::new(2, 64, CoherenceProtocol::Mesi);
        sys.access(0, 0, AccessKind::Read); // E
        let bus_before = sys.stats().bus_transactions;
        sys.access(0, 0, AccessKind::Write); // E -> M silently
        assert_eq!(sys.line_state(0, 0), LineState::Modified);
        assert_eq!(sys.stats().bus_transactions, bus_before);
    }

    #[test]
    fn remote_read_of_modified_forces_writeback() {
        let mut sys = CacheSystem::new(2, 64, CoherenceProtocol::Mesi);
        sys.access(0, 0, AccessKind::Write); // M in core 0
        sys.access(1, 0, AccessKind::Read);
        assert_eq!(sys.stats().writebacks, 1);
        assert_eq!(sys.line_state(0, 0), LineState::Shared);
        assert_eq!(sys.line_state(1, 0), LineState::Shared);
    }

    #[test]
    fn remote_write_of_modified_invalidates_owner() {
        let mut sys = CacheSystem::new(2, 64, CoherenceProtocol::Mesi);
        sys.access(0, 0, AccessKind::Write);
        sys.access(1, 0, AccessKind::Write);
        assert_eq!(sys.line_state(0, 0), LineState::Invalid);
        assert_eq!(sys.line_state(1, 0), LineState::Modified);
        assert_eq!(sys.stats().invalidations, 1);
        assert_eq!(sys.stats().writebacks, 1);
    }

    #[test]
    fn same_line_aliasing() {
        let mut sys = CacheSystem::new(1, 64, CoherenceProtocol::Mesi);
        sys.access(0, 0x100, AccessKind::Read);
        // 0x13F is in the same 64-byte line as 0x100.
        let lat = sys.access(0, 0x13F, AccessKind::Read);
        assert_eq!(lat, CacheLatency::default().hit_cycles);
        assert_eq!(sys.stats().read_hits, 1);
    }

    #[test]
    fn ping_pong_writes_generate_traffic() {
        // The Lab 2 pathology: two cores alternately writing one flag.
        let mut sys = CacheSystem::new(2, 64, CoherenceProtocol::Mesi);
        for i in 0..100 {
            sys.access(i % 2, 0, AccessKind::Write);
        }
        // Every write after the first misses and invalidates the other copy.
        assert_eq!(sys.stats().invalidations, 99);
        assert!(sys.stats().hit_rate() < 0.05);
    }

    #[test]
    fn write_through_generates_more_bus_traffic() {
        let trace: Vec<(usize, u64, AccessKind)> = (0..1000)
            .map(|i| {
                (
                    i % 4,
                    (i as u64 % 8) * 64,
                    if i % 3 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                )
            })
            .collect();
        let mut mesi = CacheSystem::new(4, 64, CoherenceProtocol::Mesi);
        let mut wt = CacheSystem::new(4, 64, CoherenceProtocol::WriteThrough);
        for &(core, addr, kind) in &trace {
            mesi.access(core, addr, kind);
            wt.access(core, addr, kind);
        }
        assert!(
            wt.stats().bus_transactions > mesi.stats().bus_transactions,
            "write-through {} <= MESI {}",
            wt.stats().bus_transactions,
            mesi.stats().bus_transactions
        );
    }

    #[test]
    fn hit_rate_empty_trace() {
        let sys = CacheSystem::new(1, 64, CoherenceProtocol::Mesi);
        assert_eq!(sys.stats().hit_rate(), 1.0);
    }
}
