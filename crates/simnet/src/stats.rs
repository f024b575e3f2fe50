//! Lightweight statistics for the simulator: counters and fixed-bucket
//! histograms.

use std::fmt;

/// A named monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter {
    name: &'static str,
    value: u64,
}

impl Counter {
    /// A zeroed counter with a display name.
    pub fn new(name: &'static str) -> Counter {
        Counter { name, value: 0 }
    }

    /// Add `n` (saturating).
    pub fn add(&mut self, n: u64) {
        self.value = self.value.saturating_add(n);
    }

    /// Increment by one.
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }

    /// The counter's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.name, self.value)
    }
}

/// A histogram over `[lo, hi)` with uniform-width buckets plus underflow and
/// overflow bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// A histogram spanning `[lo, hi)` with `buckets` uniform bins.
    ///
    /// Panics if the range is empty or `buckets == 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Histogram {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            lo,
            hi,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Total observations, including under/overflow.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The bucket counts (excluding under/overflow).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Count of observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of observations at or above the range's end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate quantile `q` in `[0, 1]` by scanning bucket mass; returns the
    /// bucket midpoint. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * total as f64).ceil() as u64;
        let mut cum = self.underflow;
        if cum >= target && self.underflow > 0 {
            return Some(self.lo);
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return Some(self.lo + (i as f64 + 0.5) * width);
            }
        }
        Some(self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new("x");
        c.add(u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX);
        assert_eq!(c.to_string(), format!("x={}", u64::MAX));
    }

    #[test]
    fn histogram_buckets_and_flows() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [-1.0, 0.5, 5.5, 9.99, 10.0, 42.0] {
            h.record(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[5], 1);
        assert_eq!(h.buckets()[9], 1);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn histogram_quantile_midpoints() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let med = h.quantile(0.5).unwrap();
        assert!((med - 49.5).abs() <= 1.0, "median {med}");
        assert!(h.quantile(0.0).is_some());
        assert!(h.quantile(1.0).unwrap() >= 99.0);
    }

    #[test]
    fn quantile_empty_is_none() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.quantile(0.5), None);
    }
}
