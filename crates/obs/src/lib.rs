//! Portal-wide telemetry substrate.
//!
//! Three cooperating pieces, bundled into an [`Obs`] handle that every layer
//! of the portal shares through an `Arc`:
//!
//! - [`MetricsRegistry`] — named counters, gauges, and fixed-bucket
//!   histograms, rendered in Prometheus text exposition format. Handles are
//!   `Arc`-backed atomics, so the hot path after registration is a single
//!   atomic op with no lock.
//! - [`Tracer`] — span records (begin/end, parent links) and zero-duration
//!   point events with attributes, kept in a bounded ring buffer. Timestamps
//!   are caller-supplied, so under the simulated clock the trace is exactly
//!   as deterministic as the scheduler producing it.
//! - [`EventLog`] — structured operational events (access-log lines, admin
//!   actions), also ring-buffered.
//!
//! On top of the instruments sit the continuous-observability pieces:
//!
//! - [`TimeSeriesStore`] — a bounded ring of periodic captures of the
//!   registry families its readers query, keyed by the logical clock,
//!   with windowed delta/rate/quantile queries;
//! - [`SloEngine`] — declarative objectives evaluated over the store with
//!   multi-window burn-rate alerting;
//! - [`Profiler`] — wall-clock lock-wait and slow-op timing for the hot
//!   paths, with a bounded slowest-ops log.
//!
//! Naming convention for metric families: `ccp_<crate>_<thing>_<unit>`,
//! e.g. `ccp_sched_job_wait_ticks`, `ccp_httpd_request_duration_us`.

mod events;
mod metrics;
mod profiler;
mod slo;
mod trace;
mod tsdb;

pub use events::{Event, EventLog};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSample, MetricsRegistry, SampleValue, SeriesSample,
};
pub use profiler::{Profiler, SlowOp};
pub use slo::{Alert, SloEngine, SloKind, SloSpec};
pub use trace::{Span, SpanId, TraceContext, Tracer};
pub use tsdb::{TimeSeriesStore, TsSample};

/// Bucket bounds (inclusive upper edges) for wall-clock durations in
/// microseconds: 50µs .. 1s.
pub const DURATION_US_BOUNDS: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// Bucket bounds for simulated-clock durations in ticks.
pub const TICK_BOUNDS: &[u64] = &[1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500];

/// Bucket bounds for VM instruction counts.
pub const INSTRUCTION_BOUNDS: &[u64] = &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Bucket bounds for small cardinalities (cores per allocation, etc).
pub const SMALL_COUNT_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64];

/// One telemetry domain: a metrics registry, a tracer, and an event log.
///
/// Cheap to share (`Arc<Obs>`); every recording method takes `&self`.
pub struct Obs {
    pub metrics: MetricsRegistry,
    pub tracer: Tracer,
    pub events: EventLog,
    pub profiler: Profiler,
}

impl Obs {
    /// Default capacities: 4096 spans, 1024 events.
    pub fn new() -> Self {
        let metrics = MetricsRegistry::new();
        let profiler = Profiler::new(&metrics);
        Obs {
            metrics,
            tracer: Tracer::new(4096),
            events: EventLog::new(1024),
            profiler,
        }
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("series", &self.metrics.series_count())
            .field("spans", &self.tracer.len())
            .field("events", &self.events.len())
            .finish()
    }
}
