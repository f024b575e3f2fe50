//! Lock-cheap metrics: registration takes a registry lock once; the returned
//! handles are `Arc`-backed atomics, so recording is wait-free.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Monotonic counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Signed gauge: goes up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn sub(&self, d: i64) {
        self.0.fetch_sub(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    /// Inclusive upper edges, strictly ascending. A value `v` lands in the
    /// first bucket with `v <= bound`; larger values land in the implicit
    /// `+Inf` overflow bucket.
    bounds: Vec<u64>,
    /// One slot per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// Fixed-bucket histogram of `u64` samples.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramCore {
            bounds: bounds.to_vec(),
            buckets,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    pub fn record(&self, v: u64) {
        let core = &self.0;
        let idx = core.bounds.partition_point(|&b| b < v);
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts; the final slot is the `+Inf`
    /// overflow bucket.
    pub(crate) fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Quantile estimate with upper-bucket-edge semantics: the reported
    /// value is the **inclusive upper edge** of the bucket holding the
    /// sample of rank `ceil(q * count)` (clamped to `1..=count`, so `q=0`
    /// reads the first populated bucket and `q=1` the last).
    ///
    /// Consequences of reading edges rather than interpolating:
    ///
    /// * a rank landing in a bounded bucket overestimates by at most one
    ///   bucket's width — conservative in the direction operators care
    ///   about for latency objectives;
    /// * a rank landing in the implicit overflow bucket has no finite
    ///   upper edge, so the estimate saturates to `f64::INFINITY` rather
    ///   than inventing a finite value. Callers serializing to JSON must
    ///   map this to the string `"+Inf"` (bare `inf` is not valid JSON);
    ///   `httpd::json::quantile_json` does exactly that.
    ///
    /// Returns `None` for an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_from_counts(&self.bucket_counts(), &self.0.bounds, q)
    }

    /// Freeze the histogram into a plain-data [`HistogramSample`].
    pub fn sample(&self) -> HistogramSample {
        HistogramSample {
            bounds: self.0.bounds.clone(),
            buckets: self.bucket_counts(),
            sum: self.sum(),
            count: self.count(),
        }
    }

    fn bounds(&self) -> &[u64] {
        &self.0.bounds
    }
}

/// Shared rank walk behind [`Histogram::quantile`] and
/// [`HistogramSample::quantile`]: counts are per-bucket (non-cumulative),
/// the final slot being the `+Inf` overflow bucket.
fn quantile_from_counts(counts: &[u64], bounds: &[u64], q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(if i < bounds.len() {
                bounds[i] as f64
            } else {
                f64::INFINITY
            });
        }
    }
    unreachable!("rank is clamped to total")
}

/// Point-in-time numeric capture of one histogram, as taken by
/// [`MetricsRegistry::sample`]. `buckets` are per-bucket (non-cumulative)
/// counts; the final slot is the implicit `+Inf` overflow bucket, so
/// `buckets.len() == bounds.len() + 1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSample {
    pub bounds: Vec<u64>,
    pub buckets: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

impl HistogramSample {
    /// Same estimator as [`Histogram::quantile`], over the frozen counts.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile_from_counts(&self.buckets, &self.bounds, q)
    }

    /// Bucket-wise difference `self - earlier`: the distribution of samples
    /// recorded *between* the two captures, which is what windowed p50/p99
    /// queries want. Saturates per bucket, so a reset never underflows.
    pub fn since(&self, earlier: &HistogramSample) -> HistogramSample {
        let buckets = self
            .buckets
            .iter()
            .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        HistogramSample {
            bounds: self.bounds.clone(),
            buckets,
            sum: self.sum.saturating_sub(earlier.sum),
            count: self.count.saturating_sub(earlier.count),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Label set, kept sorted by key so the same labels in any order map to the
/// same series.
type Labels = Vec<(String, String)>;

/// Point-in-time value of one series, captured by
/// [`MetricsRegistry::sample`].
#[derive(Clone, Debug, PartialEq)]
pub enum SampleValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSample),
}

/// One sampled series: family name, sorted label pairs, frozen value.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesSample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: SampleValue,
}

struct Family {
    help: Option<String>,
    series: BTreeMap<Labels, Metric>,
}

/// Registry of metric families. `BTreeMap`-backed, so [`render`] output is
/// fully ordered and deterministic for a deterministic workload.
///
/// [`render`]: MetricsRegistry::render
pub struct MetricsRegistry {
    families: RwLock<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry {
            families: RwLock::new(BTreeMap::new()),
        }
    }

    /// Shared view of the families, recovered if a panicking writer
    /// poisoned the lock.
    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<String, Family>> {
        self.families.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive view of the families; see [`MetricsRegistry::read`].
    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Family>> {
        self.families
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Attach a `# HELP` line to a family (registered or not yet).
    pub fn describe(&self, name: &str, help: &str) {
        let mut fams = self.write();
        fams.entry(name.to_string())
            .or_insert_with(|| Family {
                help: None,
                series: BTreeMap::new(),
            })
            .help = Some(help.to_string());
    }

    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, labels, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, labels, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Register (or look up) a histogram. `bounds` are only consulted on
    /// first registration of the series.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Histogram {
        match self.get_or_insert(name, labels, || Metric::Histogram(Histogram::new(bounds))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut key: Labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        key.sort();
        {
            let fams = self.read();
            if let Some(m) = fams.get(name).and_then(|f| f.series.get(&key)) {
                return m.clone();
            }
        }
        let mut fams = self.write();
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            help: None,
            series: BTreeMap::new(),
        });
        fam.series.entry(key).or_insert_with(make).clone()
    }

    pub fn series_count(&self) -> usize {
        self.read().values().map(|f| f.series.len()).sum()
    }

    /// Numeric capture of every series of the named families, family by
    /// family in the order given and each family's series by sorted
    /// labels, so two captures of identical registries compare equal
    /// element-wise. Names with no registered family contribute nothing.
    /// This is what the time-series store ingests each portal tick.
    pub fn sample<S: AsRef<str>>(&self, families: &[S]) -> Vec<SeriesSample> {
        let fams = self.read();
        let mut out = Vec::new();
        for name in families {
            let Some((name, fam)) = fams.get_key_value(name.as_ref()) else {
                continue;
            };
            for (labels, metric) in fam.series.iter() {
                let value = match metric {
                    Metric::Counter(c) => SampleValue::Counter(c.get()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                    Metric::Histogram(h) => SampleValue::Histogram(h.sample()),
                };
                out.push(SeriesSample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value,
                });
            }
        }
        out
    }

    /// Render every family in Prometheus text exposition format. Families
    /// and series come out in `BTreeMap` order, and all sample values are
    /// integers, so a deterministic workload renders byte-identically.
    pub fn render(&self) -> String {
        let fams = self.read();
        let mut out = String::new();
        for (name, fam) in fams.iter() {
            // A described-but-never-registered family has no series to emit.
            let Some(first) = fam.series.values().next() else {
                continue;
            };
            if let Some(help) = &fam.help {
                out.push_str(&format!("# HELP {name} {}\n", escape_help(help)));
            }
            out.push_str(&format!("# TYPE {name} {}\n", first.kind()));
            for (labels, metric) in fam.series.iter() {
                match metric {
                    Metric::Counter(c) => {
                        out.push_str(&format!("{name}{} {}\n", fmt_labels(labels, None), c.get()));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&format!("{name}{} {}\n", fmt_labels(labels, None), g.get()));
                    }
                    Metric::Histogram(h) => {
                        let counts = h.bucket_counts();
                        let mut cum = 0u64;
                        for (i, c) in counts.iter().enumerate() {
                            cum += c;
                            let le = if i < h.bounds().len() {
                                h.bounds()[i].to_string()
                            } else {
                                "+Inf".to_string()
                            };
                            out.push_str(&format!(
                                "{name}_bucket{} {cum}\n",
                                fmt_labels(labels, Some(&le))
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            fmt_labels(labels, None),
                            h.sum()
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {}\n",
                            fmt_labels(labels, None),
                            h.count()
                        ));
                    }
                }
            }
        }
        out
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("series", &self.series_count())
            .finish()
    }
}

fn fmt_labels(labels: &Labels, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ccp_test_total", &[("k", "v")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name+labels (any order) returns the same underlying series.
        let c2 = reg.counter("ccp_test_total", &[("k", "v")]);
        assert_eq!(c2.get(), 5);
        let g = reg.gauge("ccp_test_depth", &[]);
        g.set(7);
        g.sub(9);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_edges() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("ccp_test_ticks", &[], &[10, 20, 40]);
        // Exactly on an edge lands in that bucket, one past it in the next.
        h.record(10);
        h.record(11);
        h.record(20);
        h.record(40);
        h.record(41); // overflow
        assert_eq!(h.bucket_counts(), vec![1, 2, 1, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 10 + 11 + 20 + 40 + 41);
        // Zero lands in the first bucket.
        h.record(0);
        assert_eq!(h.bucket_counts()[0], 2);
    }

    #[test]
    fn quantiles_at_exact_edges() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("ccp_test_q", &[], &[1, 2, 5, 10]);
        // 10 samples: four 1s, four 2s, two 10s.
        for _ in 0..4 {
            h.record(1);
        }
        for _ in 0..4 {
            h.record(2);
        }
        for _ in 0..2 {
            h.record(10);
        }
        // rank(0.4) = 4 -> still in the first bucket.
        assert_eq!(h.quantile(0.4), Some(1.0));
        // rank(0.5) = 5 -> second bucket.
        assert_eq!(h.quantile(0.5), Some(2.0));
        assert_eq!(h.quantile(0.8), Some(2.0));
        // rank(0.9) = 9 -> last populated bucket.
        assert_eq!(h.quantile(0.9), Some(10.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
        // q=0 clamps to rank 1.
        assert_eq!(h.quantile(0.0), Some(1.0));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("ccp_test_empty", &[], &[1, 2]);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn upper_edge_semantics_pin_the_overflow_bucket_to_infinity() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("ccp_test_edges", &[], &[10]);
        // Only overflow samples: every quantile must saturate to +Inf —
        // there is no finite upper edge to report.
        h.record(11);
        h.record(1_000);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(f64::INFINITY), "q={q}");
        }
        // Exactly on the edge is *inclusive*: it lands in the finite
        // bucket, so low quantiles become finite again.
        h.record(10);
        assert_eq!(h.quantile(0.0), Some(10.0));
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
    }

    #[test]
    fn histogram_sample_freezes_and_diffs() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("ccp_test_s", &[], &[5, 10]);
        h.record(3);
        h.record(7);
        let early = h.sample();
        assert_eq!(early.buckets, vec![1, 1, 0]);
        assert_eq!((early.sum, early.count), (10, 2));
        assert_eq!(early.quantile(1.0), Some(10.0));
        h.record(7);
        h.record(99);
        let late = h.sample();
        let window = late.since(&early);
        // Only the two samples recorded between the captures remain.
        assert_eq!(window.buckets, vec![0, 1, 1]);
        assert_eq!((window.sum, window.count), (106, 2));
        assert_eq!(window.quantile(0.5), Some(10.0));
        assert_eq!(window.quantile(1.0), Some(f64::INFINITY));
    }

    #[test]
    fn registry_sample_is_ordered_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("ccp_z_total", &[]).add(3);
        reg.gauge("ccp_a_depth", &[("q", "x")]).set(-2);
        reg.histogram("ccp_m_us", &[], &[1]).record(9);
        reg.counter("ccp_unsampled_total", &[]).inc();
        let s = reg.sample(&["ccp_a_depth", "ccp_m_us", "ccp_missing", "ccp_z_total"]);
        let names: Vec<&str> = s.iter().map(|x| x.name.as_str()).collect();
        // The named families in the order given; unnamed and unregistered
        // ones contribute nothing.
        assert_eq!(names, vec!["ccp_a_depth", "ccp_m_us", "ccp_z_total"]);
        assert_eq!(s[0].labels, vec![("q".to_string(), "x".to_string())]);
        assert_eq!(s[0].value, SampleValue::Gauge(-2));
        assert_eq!(s[2].value, SampleValue::Counter(3));
        match &s[1].value {
            SampleValue::Histogram(h) => {
                assert_eq!(h.buckets, vec![0, 1]);
                assert_eq!(h.bounds, vec![1]);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn overflow_bucket_saturates_to_infinity() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("ccp_test_inf", &[], &[1, 2]);
        h.record(1_000_000);
        h.record(2);
        // p99 rank = 2 -> overflow bucket -> +Inf, not a finite guess.
        assert_eq!(h.quantile(0.99), Some(f64::INFINITY));
        assert_eq!(h.quantile(0.25), Some(2.0));
        assert_eq!(h.bucket_counts(), vec![0, 1, 1]);
    }

    #[test]
    fn render_is_prometheus_shaped_and_ordered() {
        let reg = MetricsRegistry::new();
        reg.describe("ccp_a_total", "things that happened");
        reg.counter("ccp_a_total", &[("route", "/b")]).add(2);
        reg.counter("ccp_a_total", &[("route", "/a")]).inc();
        reg.gauge("ccp_b_depth", &[]).set(3);
        let h = reg.histogram("ccp_c_us", &[], &[5, 10]);
        h.record(5);
        h.record(99);
        let text = reg.render();
        let expected = "# HELP ccp_a_total things that happened\n\
                        # TYPE ccp_a_total counter\n\
                        ccp_a_total{route=\"/a\"} 1\n\
                        ccp_a_total{route=\"/b\"} 2\n\
                        # TYPE ccp_b_depth gauge\n\
                        ccp_b_depth 3\n\
                        # TYPE ccp_c_us histogram\n\
                        ccp_c_us_bucket{le=\"5\"} 1\n\
                        ccp_c_us_bucket{le=\"10\"} 1\n\
                        ccp_c_us_bucket{le=\"+Inf\"} 2\n\
                        ccp_c_us_sum 104\n\
                        ccp_c_us_count 2\n";
        assert_eq!(text, expected);
        // Rendering twice with no recording in between is byte-identical.
        assert_eq!(reg.render(), text);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("ccp_esc_total", &[("p", "a\"b\\c\nd")]).inc();
        let text = reg.render();
        assert!(text.contains("p=\"a\\\"b\\\\c\\nd\""), "{text}");
    }
}
