//! Contention + slow-op profiler: lightweight lock-wait / critical-section
//! timing around the portal's hot paths.
//!
//! Each instrumented *site* (registry sampling, the sched tick, the pool's
//! steal loop, WAL group commit, …) gets a pre-registered
//! `ccp_lock_wait_us{site=…}` histogram and a `ccp_slow_ops_total{site=…}`
//! counter, so the families appear in `/api/metrics` from the first scrape.
//! Recording is one atomic histogram update; only operations that cross the
//! slow-op threshold pay for a detail string and a bounded slowest-ops log
//! entry (served at `/api/admin/slow`).
//!
//! The recorded values are wall-clock and therefore *not* deterministic —
//! they are exported for operators, never fed into the deterministic
//! dashboard panels or SLO evaluation, and never recorded from inside the
//! scheduler's simulated-clock state machine.

use crate::metrics::{Counter, Histogram, MetricsRegistry};
use crate::DURATION_US_BOUNDS;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Instrumented sites, fixed at construction so every family is eagerly
/// registered.
pub(crate) const PROFILE_SITES: &[&str] = &[
    "pool.steal",
    "pool.task",
    "portal.lock",
    "registry.sample",
    "sched.tick",
    "vfs.lock",
    "wal.commit",
];

/// Operations at or above this wall-clock duration are logged as slow.
pub(crate) const SLOW_OP_THRESHOLD_US: u64 = 1_000;

/// How many slowest operations the log retains.
const SLOW_LOG_CAPACITY: usize = 32;

/// One operation that crossed the slow-op threshold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowOp {
    /// Which instrumented site it came from (one of `PROFILE_SITES`).
    pub site: &'static str,
    /// Wall-clock duration in microseconds.
    pub us: u64,
    /// Site-specific detail (job id, worker index, byte count, …).
    pub detail: String,
}

struct SiteHandles {
    wait: Histogram,
    slow: Counter,
}

/// Wall-clock profiler shared through [`crate::Obs`]. All methods take
/// `&self`; the hot path is one atomic op.
pub struct Profiler {
    sites: Vec<(&'static str, SiteHandles)>,
    slow_log: Mutex<Vec<SlowOp>>,
}

impl Profiler {
    /// Register the `ccp_lock_wait_us` / `ccp_slow_ops_total` families for
    /// every site in `PROFILE_SITES` and return the shared handles.
    pub fn new(registry: &MetricsRegistry) -> Self {
        registry.describe(
            "ccp_lock_wait_us",
            "Wall-clock wait/critical-section time per instrumented site",
        );
        registry.describe(
            "ccp_slow_ops_total",
            "Operations that crossed the slow-op threshold, per site",
        );
        let sites = PROFILE_SITES
            .iter()
            .map(|&site| {
                (
                    site,
                    SiteHandles {
                        wait: registry.histogram(
                            "ccp_lock_wait_us",
                            &[("site", site)],
                            DURATION_US_BOUNDS,
                        ),
                        slow: registry.counter("ccp_slow_ops_total", &[("site", site)]),
                    },
                )
            })
            .collect();
        Profiler {
            sites,
            slow_log: Mutex::new(Vec::new()),
        }
    }

    fn handles(&self, site: &str) -> &SiteHandles {
        self.sites
            .iter()
            .find(|(s, _)| *s == site)
            .map(|(_, h)| h)
            .unwrap_or_else(|| panic!("unknown profile site {site:?} — add it to PROFILE_SITES"))
    }

    /// Record one timed operation at `site`. `detail` is only evaluated
    /// when the operation crosses `SLOW_OP_THRESHOLD_US`.
    pub fn observe(&self, site: &'static str, us: u64, detail: impl FnOnce() -> String) {
        let h = self.handles(site);
        h.wait.record(us);
        if us >= SLOW_OP_THRESHOLD_US {
            h.slow.inc();
            let mut log = self.slow_log.lock().unwrap_or_else(PoisonError::into_inner);
            log.push(SlowOp {
                site,
                us,
                detail: detail(),
            });
            if log.len() > SLOW_LOG_CAPACITY {
                // Keep the slowest; ties keep the earliest-recorded.
                log.sort_by_key(|e| std::cmp::Reverse(e.us));
                log.truncate(SLOW_LOG_CAPACITY);
            }
        }
    }

    /// Time `f` with the wall clock and record it at `site`.
    pub fn time<T>(
        &self,
        site: &'static str,
        detail: impl FnOnce() -> String,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        self.observe(site, t0.elapsed().as_micros() as u64, detail);
        out
    }

    /// The slowest recorded operations, slowest first.
    pub fn slowest(&self) -> Vec<SlowOp> {
        let mut out = self
            .slow_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.us));
        out
    }
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("sites", &self.sites.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_eagerly_registered() {
        let reg = MetricsRegistry::new();
        let _p = Profiler::new(&reg);
        let text = reg.render();
        assert!(text.contains("# TYPE ccp_lock_wait_us histogram"), "{text}");
        assert!(text.contains("# TYPE ccp_slow_ops_total counter"), "{text}");
        assert!(text.contains("ccp_slow_ops_total{site=\"wal.commit\"} 0"));
        assert!(text.contains("ccp_lock_wait_us_count{site=\"pool.steal\"} 0"));
        assert!(text.contains("ccp_lock_wait_us_count{site=\"portal.lock\"} 0"));
    }

    #[test]
    fn slow_ops_cross_threshold_and_stay_bounded() {
        let reg = MetricsRegistry::new();
        let p = Profiler::new(&reg);
        let mut evaluated = false;
        p.observe("sched.tick", SLOW_OP_THRESHOLD_US - 1, || {
            evaluated = true;
            "fast".into()
        });
        assert!(!evaluated, "detail must be lazy below the threshold");
        assert!(p.slowest().is_empty());
        for i in 0..100u64 {
            p.observe("sched.tick", SLOW_OP_THRESHOLD_US + i, || format!("op{i}"));
        }
        let slow = p.slowest();
        assert_eq!(slow.len(), SLOW_LOG_CAPACITY);
        assert_eq!(slow[0].us, SLOW_OP_THRESHOLD_US + 99);
        assert!(slow.windows(2).all(|w| w[0].us >= w[1].us));
        assert_eq!(
            reg.counter("ccp_slow_ops_total", &[("site", "sched.tick")])
                .get(),
            100
        );
    }

    #[test]
    fn time_runs_the_closure_and_records() {
        let reg = MetricsRegistry::new();
        let p = Profiler::new(&reg);
        let v = p.time("registry.sample", || "detail".into(), || 7);
        assert_eq!(v, 7);
        let h = reg.histogram(
            "ccp_lock_wait_us",
            &[("site", "registry.sample")],
            DURATION_US_BOUNDS,
        );
        assert_eq!(h.count(), 1);
    }
}
