//! The link model: per-hop latency plus bandwidth-limited transfer time.
//!
//! A transfer of `b` bytes over one link costs `latency + b / bandwidth`.
//! This is the standard "alpha-beta" (latency-bandwidth) cost model used in
//! parallel-computing courses, which is exactly the mental model the paper's
//! message-passing module teaches (latency and routing, §III.A).

use crate::time::SimDuration;

/// Parameters shared by every link of a given class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkProfile {
    /// Per-hop wire latency in nanoseconds (the "alpha" term).
    pub latency_ns: u64,
    /// Bandwidth in bytes per second (the "1/beta" term).
    pub bytes_per_sec: u64,
}

impl LinkProfile {
    /// A profile with the given latency (ns) and bandwidth (bytes/s).
    ///
    /// `bytes_per_sec` must be nonzero.
    pub fn new(latency_ns: u64, bytes_per_sec: u64) -> LinkProfile {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        LinkProfile {
            latency_ns,
            bytes_per_sec,
        }
    }

    /// Gigabit-Ethernet-like: 50µs latency, 125 MB/s.
    pub fn gigabit_ethernet() -> LinkProfile {
        LinkProfile::new(50_000, 125_000_000)
    }

    /// Fast intra-chassis backplane: 2µs latency, 2 GB/s.
    pub fn backplane() -> LinkProfile {
        LinkProfile::new(2_000, 2_000_000_000)
    }

    /// Campus-grade uplink between segments: 100µs latency, 12.5 MB/s.
    pub fn campus_uplink() -> LinkProfile {
        LinkProfile::new(100_000, 12_500_000)
    }

    /// Time to push `bytes` through one link of this profile.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        // ceil(bytes * 1e9 / bw) in u128 to avoid overflow for large payloads.
        let num = bytes as u128 * 1_000_000_000u128;
        let bw = self.bytes_per_sec as u128;
        let ser = num.div_ceil(bw);
        let ser = u64::try_from(ser).unwrap_or(u64::MAX);
        SimDuration(self.latency_ns.saturating_add(ser))
    }
}

/// One directed link instance, tracking utilization for congestion stats.
#[derive(Debug, Clone)]
pub struct Link {
    profile: LinkProfile,
    /// Total bytes ever carried.
    bytes_carried: u64,
    /// Total messages ever carried.
    messages_carried: u64,
}

impl Link {
    /// A new idle link with the given profile.
    pub fn new(profile: LinkProfile) -> Link {
        Link {
            profile,
            bytes_carried: 0,
            messages_carried: 0,
        }
    }

    /// A link with pre-existing traffic history, used when swapping a link's
    /// profile without losing its statistics.
    pub(crate) fn with_history(
        profile: LinkProfile,
        bytes_carried: u64,
        messages_carried: u64,
    ) -> Link {
        Link {
            profile,
            bytes_carried,
            messages_carried,
        }
    }

    /// The link's cost parameters.
    pub fn profile(&self) -> LinkProfile {
        self.profile
    }

    /// Record a message of `bytes` crossing the link and return its cost.
    pub fn carry(&mut self, bytes: u64) -> SimDuration {
        self.bytes_carried = self.bytes_carried.saturating_add(bytes);
        self.messages_carried += 1;
        self.profile.transfer_time(bytes)
    }

    /// Total bytes this link has carried.
    pub(crate) fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Total messages this link has carried.
    pub(crate) fn messages_carried(&self) -> u64 {
        self.messages_carried
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_costs_latency_only() {
        let p = LinkProfile::new(500, 1_000_000);
        assert_eq!(p.transfer_time(0), SimDuration(500));
    }

    #[test]
    fn serialization_time_rounds_up() {
        // 1 byte at 3 bytes/s = ceil(1e9/3) = 333_333_334 ns.
        let p = LinkProfile::new(0, 3);
        assert_eq!(p.transfer_time(1), SimDuration(333_333_334));
    }

    #[test]
    fn large_transfer_no_overflow() {
        let p = LinkProfile::new(1, 1);
        // u64::MAX bytes at 1 B/s saturates instead of overflowing.
        assert_eq!(p.transfer_time(u64::MAX), SimDuration(u64::MAX));
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        let bp = LinkProfile::backplane();
        let ge = LinkProfile::gigabit_ethernet();
        let cu = LinkProfile::campus_uplink();
        let msg = 1 << 20; // 1 MiB
        assert!(bp.transfer_time(msg) < ge.transfer_time(msg));
        assert!(ge.transfer_time(msg) < cu.transfer_time(msg));
    }

    #[test]
    fn link_accumulates_stats() {
        let mut l = Link::new(LinkProfile::new(10, 1_000_000_000));
        l.carry(100);
        l.carry(50);
        assert_eq!(l.bytes_carried(), 150);
        assert_eq!(l.messages_carried(), 2);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        LinkProfile::new(1, 0);
    }
}
