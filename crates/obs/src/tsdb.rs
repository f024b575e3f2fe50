//! In-process time-series store: a bounded ring of periodic captures of
//! the [`MetricsRegistry`] families its readers query, keyed by the
//! deterministic portal clock.
//!
//! The store is built with the family names it captures; each [`record`]
//! freezes every series of those families at a logical tick, and nothing
//! else. The portal captures the eight tick-domain `ccp_sched_*` families
//! its dashboard and SLOs read: eight series, about 1.5 KB per capture,
//! where the whole registry is a hundred series and about 25 KB. No
//! wall-clock family ever enters the ring.
//! The windowed queries (`delta`, `rate_milli`, `window_quantile`,
//! `window_avg_milli`) then answer "what happened over the last N ticks"
//! by diffing captures — counters by subtraction, histograms by
//! bucket-count subtraction, gauges by averaging. A series outside the
//! captured families reads `None`. All arithmetic is integer (rates in
//! milli-units) except histogram quantiles, which keep the
//! `f64::INFINITY` overflow convention of [`Histogram::quantile`], so a
//! deterministic workload yields byte-identical query results.
//!
//! [`record`]: TimeSeriesStore::record
//! [`Histogram::quantile`]: crate::Histogram::quantile

use crate::metrics::{HistogramSample, MetricsRegistry, SampleValue, SeriesSample};
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One capture of the store's families at a logical tick.
#[derive(Clone, Debug, PartialEq)]
pub struct TsSample {
    /// Logical clock value the capture was taken at.
    pub at: u64,
    /// Every series of the captured families, in registry (name, labels)
    /// order.
    pub series: Vec<SeriesSample>,
}

struct StoreInner {
    ring: VecDeque<TsSample>,
    evicted: u64,
}

/// Fixed-capacity ring of captures of named registry families. All
/// methods take `&self`.
pub struct TimeSeriesStore {
    inner: Mutex<StoreInner>,
    capacity: usize,
    /// The captured families, sorted and deduplicated (registry order).
    families: Vec<String>,
}

impl TimeSeriesStore {
    /// A store holding up to `capacity` captures of the series of
    /// `families`; every other family is left out of each capture.
    pub fn new(capacity: usize, families: &[&str]) -> Self {
        assert!(capacity > 0);
        let mut families: Vec<String> = families.iter().map(|f| f.to_string()).collect();
        families.sort();
        families.dedup();
        TimeSeriesStore {
            inner: Mutex::new(StoreInner {
                ring: VecDeque::new(),
                evicted: 0,
            }),
            capacity,
            families,
        }
    }

    /// The state, recovered if a panicking holder poisoned the lock.
    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Capture the store's families from the registry at tick `at`.
    /// Idempotent per tick: a capture at or before the newest stored tick
    /// is refused (returns `false`), so re-entrant sampling in the same
    /// tick can't skew windows.
    pub fn record(&self, at: u64, registry: &MetricsRegistry) -> bool {
        let series = registry.sample(&self.families);
        let mut inner = self.lock();
        if inner.ring.back().is_some_and(|s| s.at >= at) {
            return false;
        }
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.evicted += 1;
        }
        inner.ring.push_back(TsSample { at, series });
        true
    }

    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Captures evicted from the ring so far.
    pub fn evicted(&self) -> u64 {
        self.lock().evicted
    }

    /// Tick of the newest capture.
    pub fn last_at(&self) -> Option<u64> {
        self.lock().ring.back().map(|s| s.at)
    }

    /// Current value of one series, from the newest capture.
    pub fn latest(&self, name: &str, labels: &[(&str, &str)]) -> Option<SampleValue> {
        let key = sorted_labels(labels);
        let inner = self.lock();
        lookup(inner.ring.back()?, name, &key).cloned()
    }

    /// Counter/gauge change over the trailing `window` ticks: newest value
    /// minus the value at the newest capture at least `window` ticks older
    /// (clamped to the oldest capture the ring still holds). `None` when
    /// the series is missing, is a histogram, or fewer than two captures
    /// exist.
    pub fn delta(&self, name: &str, labels: &[(&str, &str)], window: u64) -> Option<i64> {
        let key = sorted_labels(labels);
        let inner = self.lock();
        let (old, new) = window_pair(&inner.ring, window)?;
        let a = scalar(lookup(old, name, &key)?)?;
        let b = scalar(lookup(new, name, &key)?)?;
        Some(b - a)
    }

    /// Per-tick rate of change over the trailing `window` ticks, in
    /// milli-units (×1000) so it stays an integer.
    pub fn rate_milli(&self, name: &str, labels: &[(&str, &str)], window: u64) -> Option<i64> {
        let key = sorted_labels(labels);
        let inner = self.lock();
        let (old, new) = window_pair(&inner.ring, window)?;
        let elapsed = new.at.saturating_sub(old.at);
        if elapsed == 0 {
            return None;
        }
        let a = scalar(lookup(old, name, &key)?)?;
        let b = scalar(lookup(new, name, &key)?)?;
        Some(((b - a) as i128 * 1000 / elapsed as i128) as i64)
    }

    /// Sliding-window quantile of a histogram series: the distribution of
    /// samples recorded within the trailing `window` ticks, by bucket-count
    /// subtraction between captures. A window wider than the retained
    /// history (including the single-capture case) has no baseline to
    /// subtract and reads the full latest distribution. `None` when the
    /// series is missing, isn't a histogram, or saw no samples in the
    /// window.
    pub fn window_quantile(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        window: u64,
        q: f64,
    ) -> Option<f64> {
        let key = sorted_labels(labels);
        let inner = self.lock();
        let new = inner.ring.back()?;
        let latest = histogram(lookup(new, name, &key)?)?;
        let floor = new.at.saturating_sub(window);
        match inner.ring.iter().rev().skip(1).find(|s| s.at <= floor) {
            Some(old) => {
                let earlier = histogram(lookup(old, name, &key)?)?;
                latest.since(earlier).quantile(q)
            }
            None => latest.quantile(q),
        }
    }

    /// Average gauge value over every capture in the trailing `window`
    /// ticks, in milli-units. Works from a single capture (a fresh server
    /// can alert on it immediately).
    pub fn window_avg_milli(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        window: u64,
    ) -> Option<i64> {
        let key = sorted_labels(labels);
        let inner = self.lock();
        let newest = inner.ring.back()?.at;
        let floor = newest.saturating_sub(window);
        let mut sum: i128 = 0;
        let mut n: i128 = 0;
        for s in inner.ring.iter().rev() {
            if s.at < floor {
                break;
            }
            sum += i128::from(scalar(lookup(s, name, &key)?)?);
            n += 1;
        }
        if n == 0 {
            return None;
        }
        Some((sum * 1000 / n) as i64)
    }
}

impl std::fmt::Debug for TimeSeriesStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeSeriesStore")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut key: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    key.sort();
    key
}

fn lookup<'a>(
    sample: &'a TsSample,
    name: &str,
    labels: &[(String, String)],
) -> Option<&'a SampleValue> {
    sample
        .series
        .iter()
        .find(|s| s.name == name && s.labels == labels)
        .map(|s| &s.value)
}

fn scalar(v: &SampleValue) -> Option<i64> {
    match v {
        SampleValue::Counter(c) => Some(*c as i64),
        SampleValue::Gauge(g) => Some(*g),
        SampleValue::Histogram(_) => None,
    }
}

fn histogram(v: &SampleValue) -> Option<&HistogramSample> {
    match v {
        SampleValue::Histogram(h) => Some(h),
        _ => None,
    }
}

/// The (older, newest) capture pair spanning `window` ticks: the newest
/// capture, and the newest one at least `window` ticks older (or the
/// oldest held). `None` with fewer than two captures.
fn window_pair(ring: &VecDeque<TsSample>, window: u64) -> Option<(&TsSample, &TsSample)> {
    let new = ring.back()?;
    let floor = new.at.saturating_sub(window);
    let old = ring
        .iter()
        .rev()
        .skip(1)
        .find(|s| s.at <= floor)
        .or_else(|| ring.front().filter(|s| s.at < new.at))?;
    Some((old, new))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TICK_BOUNDS;

    fn store_with_counter() -> (TimeSeriesStore, MetricsRegistry) {
        let reg = MetricsRegistry::new();
        reg.counter("ccp_t_total", &[]);
        reg.gauge("ccp_t_depth", &[]);
        reg.histogram("ccp_t_ticks", &[], TICK_BOUNDS);
        let families = ["ccp_t_total", "ccp_t_depth", "ccp_t_ticks"];
        (TimeSeriesStore::new(8, &families), reg)
    }

    #[test]
    fn a_capture_holds_exactly_the_named_families() {
        let reg = MetricsRegistry::new();
        reg.counter("ccp_t_total", &[]).add(4);
        reg.gauge("ccp_t_depth", &[("q", "b")]).set(2);
        reg.gauge("ccp_t_depth", &[("q", "a")]).set(1);
        reg.counter("ccp_other_total", &[]).inc();
        reg.histogram("ccp_other_us", &[], &[1]).record(7);
        // Listed twice, out of order, and one name never registered.
        let store = TimeSeriesStore::new(
            4,
            &["ccp_t_total", "ccp_t_depth", "ccp_t_ticks", "ccp_t_total"],
        );
        assert!(store.record(1, &reg));
        let series: Vec<(String, Vec<(String, String)>)> = store
            .lock()
            .ring
            .back()
            .unwrap()
            .series
            .iter()
            .map(|s| (s.name.clone(), s.labels.clone()))
            .collect();
        let q = |v: &str| vec![("q".to_string(), v.to_string())];
        assert_eq!(
            series,
            vec![
                ("ccp_t_depth".to_string(), q("a")),
                ("ccp_t_depth".to_string(), q("b")),
                ("ccp_t_total".to_string(), vec![]),
            ]
        );
        assert_eq!(
            store.latest("ccp_t_total", &[]),
            Some(SampleValue::Counter(4))
        );
        assert_eq!(store.latest("ccp_other_total", &[]), None);
        // A family registered after the store was built is captured too.
        reg.histogram("ccp_t_ticks", &[], TICK_BOUNDS).record(3);
        assert!(store.record(2, &reg));
        assert!(store.window_quantile("ccp_t_ticks", &[], 4, 0.5).is_some());
    }

    #[test]
    fn record_is_idempotent_per_tick_and_bounded() {
        let (store, reg) = store_with_counter();
        assert!(store.record(1, &reg));
        assert!(!store.record(1, &reg), "same tick must be refused");
        assert!(!store.record(0, &reg), "going backwards must be refused");
        for t in 2..=20 {
            assert!(store.record(t, &reg));
        }
        assert_eq!(store.len(), 8);
        assert_eq!(store.evicted(), 12);
        assert_eq!(store.last_at(), Some(20));
    }

    #[test]
    fn delta_and_rate_window_over_captures() {
        let (store, reg) = store_with_counter();
        let c = reg.counter("ccp_t_total", &[]);
        let g = reg.gauge("ccp_t_depth", &[]);
        for t in 1..=6u64 {
            c.add(10);
            g.set(t as i64 * 2);
            store.record(t, &reg);
        }
        // Window of 3 ticks back from t=6 lands on the t=3 capture.
        assert_eq!(store.delta("ccp_t_total", &[], 3), Some(30));
        assert_eq!(store.rate_milli("ccp_t_total", &[], 3), Some(10_000));
        assert_eq!(store.delta("ccp_t_depth", &[], 3), Some(6));
        // Wider than history: clamps to the oldest capture.
        assert_eq!(store.delta("ccp_t_total", &[], 100), Some(50));
        // Unknown series and histogram series yield None.
        assert_eq!(store.delta("ccp_missing", &[], 3), None);
        assert_eq!(store.delta("ccp_t_ticks", &[], 3), None);
        assert_eq!(
            store.latest("ccp_t_depth", &[]),
            Some(SampleValue::Gauge(12))
        );
    }

    #[test]
    fn window_quantile_diffs_bucket_counts() {
        let (store, reg) = store_with_counter();
        let h = reg.histogram("ccp_t_ticks", &[], TICK_BOUNDS);
        h.record(1);
        h.record(1);
        store.record(1, &reg);
        // Between t=1 and t=5 only big samples arrive.
        h.record(100);
        h.record(5_000); // overflow
        store.record(5, &reg);
        // Full history still remembers the early 1s...
        assert_eq!(
            store.window_quantile("ccp_t_ticks", &[], 100, 0.25),
            Some(1.0)
        );
        // ...but the trailing 4-tick window sees only the two new samples.
        assert_eq!(
            store.window_quantile("ccp_t_ticks", &[], 4, 0.5),
            Some(100.0)
        );
        assert_eq!(
            store.window_quantile("ccp_t_ticks", &[], 4, 1.0),
            Some(f64::INFINITY)
        );
        // Single capture: falls back to full history.
        let (solo, reg2) = store_with_counter();
        reg2.histogram("ccp_t_ticks", &[], TICK_BOUNDS).record(2);
        solo.record(1, &reg2);
        assert_eq!(solo.window_quantile("ccp_t_ticks", &[], 4, 0.5), Some(2.0));
    }

    #[test]
    fn window_avg_works_from_one_capture() {
        let (store, reg) = store_with_counter();
        let g = reg.gauge("ccp_t_depth", &[]);
        g.set(9);
        store.record(1, &reg);
        assert_eq!(store.window_avg_milli("ccp_t_depth", &[], 8), Some(9_000));
        g.set(3);
        store.record(2, &reg);
        assert_eq!(store.window_avg_milli("ccp_t_depth", &[], 8), Some(6_000));
        // Narrow window excludes the old capture.
        g.set(5);
        store.record(20, &reg);
        assert_eq!(store.window_avg_milli("ccp_t_depth", &[], 1), Some(5_000));
    }
}
