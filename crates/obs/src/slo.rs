//! SLO engine: declarative service-level objectives evaluated over the
//! [`TimeSeriesStore`] with multi-window burn-rate alerting.
//!
//! Each [`SloSpec`] names a condition over one or two metric series and two
//! trailing windows. An alert **fires** only when *both* the short and the
//! long window breach (a fast burn that is also sustained), and **clears**
//! only when *neither* breaches — the asymmetry is the hysteresis that keeps
//! a flapping signal from spamming transitions. Transitions are recorded as
//! `slo.firing` / `slo.cleared` events in the [`EventLog`] and counted in
//! the eagerly-registered `ccp_slo_*` families.
//!
//! Evaluation reads only store captures keyed by the logical clock, so a
//! deterministic workload produces an identical alert history on every
//! same-seed run.

use crate::events::EventLog;
use crate::metrics::{Counter, Gauge, MetricsRegistry};
use crate::tsdb::TimeSeriesStore;

/// What a single objective asserts about the store. All thresholds use
/// integer milli-units (1000 = 1.0) so evaluation stays exact.
#[derive(Clone, Debug, PartialEq)]
pub enum SloKind {
    /// Average of a gauge over the window stays at or below
    /// `threshold_milli` (milli-units of the gauge).
    GaugeAbove {
        series: String,
        threshold_milli: i64,
    },
    /// `bad / total` counter-delta ratio over the window stays at or below
    /// `objective_milli` (e.g. 50 = 5%). An idle window (no `total`
    /// growth) never breaches.
    ErrorRatio {
        bad: String,
        total: String,
        objective_milli: i64,
    },
    /// Windowed quantile `q` of a histogram stays at or below `threshold`.
    /// An overflow-dominated window reads `+Inf` and always breaches.
    QuantileAbove {
        series: String,
        q: f64,
        threshold: f64,
    },
}

/// One declarative objective: a condition plus its two burn-rate windows
/// (in logical ticks, `short_window < long_window`).
#[derive(Clone, Debug, PartialEq)]
pub struct SloSpec {
    /// Stable name, used as the `slo` label and in alert views.
    pub name: String,
    pub kind: SloKind,
    pub short_window: u64,
    pub long_window: u64,
}

/// Point-in-time alert state of one objective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alert {
    pub slo: String,
    pub firing: bool,
    /// Tick at which the alert entered its current state (`None` until the
    /// first transition).
    pub since: Option<u64>,
    /// Lifetime firing↔cleared transitions.
    pub transitions: u64,
}

struct SloState {
    spec: SloSpec,
    firing: bool,
    since: Option<u64>,
    transitions: u64,
    transitions_metric: Counter,
}

/// Evaluates a fixed set of objectives against the store each tick.
pub struct SloEngine {
    slos: Vec<SloState>,
    evaluations: Counter,
    firing_gauge: Gauge,
}

impl SloEngine {
    /// Build the engine and eagerly register the `ccp_slo_*` families so
    /// they appear on the first scrape.
    pub fn new(specs: Vec<SloSpec>, registry: &MetricsRegistry) -> Self {
        registry.describe("ccp_slo_evaluations_total", "SLO evaluation passes");
        registry.describe("ccp_slo_alerts_firing", "Objectives currently firing");
        registry.describe(
            "ccp_slo_transitions_total",
            "Alert state transitions (firing or cleared) per objective",
        );
        let evaluations = registry.counter("ccp_slo_evaluations_total", &[]);
        let firing_gauge = registry.gauge("ccp_slo_alerts_firing", &[]);
        let slos = specs
            .into_iter()
            .map(|spec| SloState {
                transitions_metric: registry
                    .counter("ccp_slo_transitions_total", &[("slo", &spec.name)]),
                spec,
                firing: false,
                since: None,
                transitions: 0,
            })
            .collect();
        SloEngine {
            slos,
            evaluations,
            firing_gauge,
        }
    }

    /// Evaluate every objective at tick `at`, updating alert state and
    /// recording `slo.firing` / `slo.cleared` events for transitions.
    pub fn evaluate(&mut self, at: u64, store: &TimeSeriesStore, events: &EventLog) {
        self.evaluations.inc();
        let mut firing = 0i64;
        for slo in &mut self.slos {
            let short = breaches(&slo.spec.kind, store, slo.spec.short_window);
            let long = breaches(&slo.spec.kind, store, slo.spec.long_window);
            let next = if slo.firing {
                // Clear only when neither window breaches.
                short || long
            } else {
                // Fire only when both windows breach.
                short && long
            };
            if next != slo.firing {
                slo.firing = next;
                slo.since = Some(at);
                slo.transitions += 1;
                slo.transitions_metric.inc();
                let kind = if next { "slo.firing" } else { "slo.cleared" };
                events.record(at, kind, &[("slo", &slo.spec.name)]);
            }
            if slo.firing {
                firing += 1;
            }
        }
        self.firing_gauge.set(firing);
    }

    /// Current state of every objective, in declaration order.
    pub fn alerts(&self) -> Vec<Alert> {
        self.slos
            .iter()
            .map(|s| Alert {
                slo: s.spec.name.clone(),
                firing: s.firing,
                since: s.since,
                transitions: s.transitions,
            })
            .collect()
    }

    /// Objectives currently firing.
    pub fn firing_count(&self) -> usize {
        self.slos.iter().filter(|s| s.firing).count()
    }
}

impl std::fmt::Debug for SloEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloEngine")
            .field("slos", &self.slos.len())
            .field("firing", &self.firing_count())
            .finish()
    }
}

/// Does the condition breach over the trailing `window` ticks? A condition
/// whose series has no data yet reads as "not breaching" — a fresh server
/// must not boot into a firing alert.
fn breaches(kind: &SloKind, store: &TimeSeriesStore, window: u64) -> bool {
    match kind {
        SloKind::GaugeAbove {
            series,
            threshold_milli,
        } => store
            .window_avg_milli(series, &[], window)
            .is_some_and(|avg| avg > *threshold_milli),
        SloKind::ErrorRatio {
            bad,
            total,
            objective_milli,
        } => {
            let total_delta = store.delta(total, &[], window).unwrap_or(0);
            if total_delta <= 0 {
                return false;
            }
            let bad_delta = store.delta(bad, &[], window).unwrap_or(0).max(0);
            bad_delta * 1000 > *objective_milli * total_delta
        }
        SloKind::QuantileAbove {
            series,
            q,
            threshold,
        } => store
            .window_quantile(series, &[], window, *q)
            .is_some_and(|v| v > *threshold),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn depth_slo() -> SloSpec {
        SloSpec {
            name: "queue-depth".into(),
            kind: SloKind::GaugeAbove {
                series: "ccp_t_depth".into(),
                threshold_milli: 5_000,
            },
            short_window: 2,
            long_window: 6,
        }
    }

    #[test]
    fn families_are_eagerly_registered() {
        let reg = MetricsRegistry::new();
        let _e = SloEngine::new(vec![depth_slo()], &reg);
        let text = reg.render();
        assert!(
            text.contains("# TYPE ccp_slo_evaluations_total counter"),
            "{text}"
        );
        assert!(text.contains("# TYPE ccp_slo_alerts_firing gauge"));
        assert!(text.contains("ccp_slo_transitions_total{slo=\"queue-depth\"} 0"));
    }

    #[test]
    fn fires_on_both_windows_and_clears_on_neither() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("ccp_t_depth", &[]);
        let store = TimeSeriesStore::new(32, &["ccp_t_depth"]);
        let events = EventLog::new(32);
        let mut engine = SloEngine::new(vec![depth_slo()], &reg);

        // Healthy ticks: depth below threshold.
        for t in 1..=6 {
            g.set(1);
            store.record(t, &reg);
            engine.evaluate(t, &store, &events);
        }
        assert!(!engine.alerts()[0].firing);

        // Breach: short window (2 ticks) degrades first; the alert must
        // wait for the long window's average to cross too.
        let mut fired_at = None;
        for t in 7..=20 {
            g.set(10);
            store.record(t, &reg);
            engine.evaluate(t, &store, &events);
            if fired_at.is_none() && engine.alerts()[0].firing {
                fired_at = Some(t);
            }
        }
        let fired_at = fired_at.expect("alert fires under sustained breach");
        assert!(fired_at > 7, "one bad tick must not fire the long window");

        // Recovery: stays firing while any window still breaches, then
        // clears once both windows are clean.
        let mut cleared_at = None;
        for t in 21..=40 {
            g.set(0);
            store.record(t, &reg);
            engine.evaluate(t, &store, &events);
            if cleared_at.is_none() && !engine.alerts()[0].firing {
                cleared_at = Some(t);
            }
        }
        let cleared_at = cleared_at.expect("alert clears after recovery");
        assert!(cleared_at > 21);

        let alert = &engine.alerts()[0];
        assert_eq!(alert.transitions, 2);
        assert_eq!(alert.since, Some(cleared_at));
        let kinds: Vec<String> = events.recent(10).iter().map(|e| e.kind.clone()).collect();
        assert_eq!(kinds, vec!["slo.firing", "slo.cleared"]);
        assert_eq!(
            reg.counter("ccp_slo_transitions_total", &[("slo", "queue-depth")])
                .get(),
            2
        );
        assert_eq!(reg.gauge("ccp_slo_alerts_firing", &[]).get(), 0);
    }

    #[test]
    fn error_ratio_ignores_idle_windows() {
        let reg = MetricsRegistry::new();
        let bad = reg.counter("ccp_t_bad_total", &[]);
        let total = reg.counter("ccp_t_all_total", &[]);
        let store = TimeSeriesStore::new(32, &["ccp_t_bad_total", "ccp_t_all_total"]);
        let events = EventLog::new(32);
        let spec = SloSpec {
            name: "loss".into(),
            kind: SloKind::ErrorRatio {
                bad: "ccp_t_bad_total".into(),
                total: "ccp_t_all_total".into(),
                objective_milli: 100, // 10%
            },
            short_window: 2,
            long_window: 4,
        };
        let mut engine = SloEngine::new(vec![spec], &reg);
        // Idle: no traffic at all — must not breach.
        for t in 1..=5 {
            store.record(t, &reg);
            engine.evaluate(t, &store, &events);
        }
        assert!(!engine.alerts()[0].firing);
        // 50% loss sustained over both windows — must fire.
        for t in 6..=12 {
            bad.inc();
            total.add(2);
            store.record(t, &reg);
            engine.evaluate(t, &store, &events);
        }
        assert!(engine.alerts()[0].firing);
    }

    #[test]
    fn quantile_above_breaches_on_overflow_infinity() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("ccp_t_us", &[], &[10, 100]);
        let store = TimeSeriesStore::new(32, &["ccp_t_us"]);
        let events = EventLog::new(32);
        let spec = SloSpec {
            name: "latency".into(),
            kind: SloKind::QuantileAbove {
                series: "ccp_t_us".into(),
                q: 0.99,
                threshold: 100.0,
            },
            short_window: 2,
            long_window: 4,
        };
        let mut engine = SloEngine::new(vec![spec], &reg);
        for t in 1..=6 {
            h.record(1_000_000); // overflow bucket → +Inf quantile
            store.record(t, &reg);
            engine.evaluate(t, &store, &events);
        }
        assert!(
            engine.alerts()[0].firing,
            "+Inf must compare above any finite threshold"
        );
    }
}
