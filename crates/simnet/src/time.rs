//! Simulated time: integer nanoseconds with saturating arithmetic.
//!
//! Simulation determinism requires integer time; floating point accumulates
//! rounding differences across platforms. One `SimTime` tick is one
//! nanosecond, which spans ~584 years in a `u64` — ample for any run.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant on the simulation clock, in nanoseconds since t=0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch, t = 0.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds (saturating).
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us.saturating_mul(1_000))
    }

    /// Construct from milliseconds (saturating).
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// Construct from whole seconds (saturating).
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000_000))
    }

    /// Nanosecond count.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Saturating duration scaling, used when costing multi-hop transfers.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_nanos(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_nanos(self.0))
    }
}

/// Human-readable rendering of a nanosecond count (`1.5ms`, `42ns`, ...).
fn format_nanos(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_add_duration() {
        let t = SimTime(100) + SimDuration(50);
        assert_eq!(t, SimTime(150));
    }

    #[test]
    fn since_saturates() {
        assert_eq!(SimTime(10).since(SimTime(50)), SimDuration::ZERO);
        assert_eq!(SimTime(50).since(SimTime(10)), SimDuration(40));
    }

    #[test]
    fn add_saturates_at_max() {
        let t = SimTime::MAX + SimDuration(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn duration_constructors() {
        assert_eq!(SimDuration::from_micros(2).nanos(), 2_000);
        assert_eq!(SimDuration::from_millis(3).nanos(), 3_000_000);
        assert_eq!(SimDuration::from_secs(1).nanos(), 1_000_000_000);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration(42).to_string(), "42ns");
        assert_eq!(SimDuration(1_500).to_string(), "1.500us");
        assert_eq!(SimDuration(2_500_000).to_string(), "2.500ms");
        assert_eq!(SimDuration(3_000_000_000).to_string(), "3.000s");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimDuration(5) > SimDuration(3));
    }
}
