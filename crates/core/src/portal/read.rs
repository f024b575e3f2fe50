//! Read facade: every `&self` view. All of these are safe under a shared
//! read lock on the portal — the substrates they touch either take `&self`
//! too or are internally synchronized (the vfs and the telemetry domain
//! carry their own locks).

use super::Portal;
use crate::error::PortalError;
use crate::view::{
    state_label, AlertView, DashboardView, EventView, FileView, HealthView, JobView, NodeView,
    QuotaView, SlowOpView, SpanView, TimelineEventView, TraceView,
};
use auth::{Role, Token};
use cluster::NodeHealth;
use sched::JobId;
use vfs::EntryKind;

impl Portal {
    // ---- file manager ------------------------------------------------------

    /// List a directory.
    pub fn list_dir(
        &self,
        token: &Token,
        path: &str,
        now: u64,
    ) -> Result<Vec<FileView>, PortalError> {
        let (user, role) = self.whoami(token, now)?;
        let full = self.resolve(&user, role, path)?;
        let entries = self.vfs().list(&user, &full)?;
        Ok(entries
            .into_iter()
            .map(|e| FileView {
                name: e.name,
                is_dir: e.stat.kind == EntryKind::Dir,
                size: e.stat.size,
                owner: e.stat.owner,
                mtime: e.stat.mtime,
            })
            .collect())
    }

    /// Read (download) a file.
    pub fn read_file(&self, token: &Token, path: &str, now: u64) -> Result<Vec<u8>, PortalError> {
        let (user, role) = self.whoami(token, now)?;
        let full = self.resolve(&user, role, path)?;
        Ok(self.vfs().read(&user, &full)?)
    }

    /// The caller's quota.
    pub fn quota(&self, token: &Token, now: u64) -> Result<QuotaView, PortalError> {
        let (user, _) = self.whoami(token, now)?;
        let (used, limit) = self.vfs().quota(&user)?;
        Ok(QuotaView { used, limit })
    }

    /// The caller's artifacts, most recent first, as `(id, source_path)`.
    pub fn my_artifacts(
        &self,
        token: &Token,
        now: u64,
    ) -> Result<Vec<(String, String)>, PortalError> {
        let (user, _) = self.whoami(token, now)?;
        Ok(self
            .artifacts
            .by_owner(&user)
            .into_iter()
            .map(|a| (a.id.to_string(), a.source_path.clone()))
            .collect())
    }

    // ---- jobs --------------------------------------------------------------

    /// The caller's jobs (admins see everyone's).
    pub fn jobs(&self, token: &Token, now: u64) -> Result<Vec<JobView>, PortalError> {
        let (user, role) = self.whoami(token, now)?;
        Ok(self
            .scheduler
            .jobs()
            .filter(|j| role.at_least(Role::Admin) || j.spec.user == user)
            .map(job_view)
            .collect())
    }

    /// One job (owner or admin).
    pub fn job(&self, token: &Token, id: JobId, now: u64) -> Result<JobView, PortalError> {
        let (user, role) = self.whoami(token, now)?;
        let j = self.scheduler.job(id)?;
        if j.spec.user != user && !role.at_least(Role::Admin) {
            return Err(PortalError::Forbidden("job belongs to another user"));
        }
        Ok(job_view(j))
    }

    /// The tail of a job's captured stdout from byte offset `from` (owner
    /// or admin): returns `(total_len, new_bytes)`. Pollers pass the
    /// offset they already have and receive only the growth, so the
    /// edit→compile→submit→poll loop moves O(delta) bytes per poll
    /// instead of re-shipping the whole stream each time.
    pub fn job_stdout_tail(
        &self,
        token: &Token,
        id: JobId,
        from: usize,
        now: u64,
    ) -> Result<(usize, String), PortalError> {
        let (user, role) = self.whoami(token, now)?;
        let j = self.scheduler.job(id)?;
        if j.spec.user != user && !role.at_least(Role::Admin) {
            return Err(PortalError::Forbidden("job belongs to another user"));
        }
        let out = &j.streams.stdout;
        let mut start = from.min(out.len());
        // Snap forward to a char boundary so a client-supplied offset
        // landing mid-UTF-8 cannot panic the slice.
        while start < out.len() && !out.is_char_boundary(start) {
            start += 1;
        }
        Ok((out.len(), out[start..].to_string()))
    }

    // ---- status ------------------------------------------------------------

    /// `(free_cores, total_cores, utilization)` for the dashboard.
    pub fn cluster_status(&self) -> (u32, u32, f64) {
        let c = self.scheduler.cluster();
        (c.free_cores(), c.total_cores(), c.utilization())
    }

    /// Per-node health rows for the dashboard.
    pub fn cluster_nodes(&self) -> Vec<NodeView> {
        let c = self.scheduler.cluster();
        c.slave_ids()
            .into_iter()
            .map(|id| NodeView {
                segment: id.segment,
                slot: id.slot,
                health: match c.health(id) {
                    Ok(NodeHealth::Up) => "up".to_string(),
                    Ok(NodeHealth::Draining) => "draining".to_string(),
                    Ok(NodeHealth::Down) => "down".to_string(),
                    Err(_) => "unknown".to_string(),
                },
                cores: c.node_spec(id).map(|n| n.cores).unwrap_or(0),
            })
            .collect()
    }

    /// True while any slave node is out of service. Submissions stay open
    /// (admission checks spec capacity, not live capacity); queued work
    /// runs when nodes return.
    pub fn degraded(&self) -> bool {
        let c = self.scheduler.cluster();
        c.slave_ids()
            .into_iter()
            .any(|id| c.health(id) != Ok(NodeHealth::Up))
    }

    // ---- telemetry ---------------------------------------------------------

    /// Republish the live gauges (queue depth, core counts) into the
    /// registry. A caller that wants an up-to-date exposition without
    /// holding any portal lock during serialization calls this under a
    /// read guard, releases, and renders from the shared registry.
    pub fn publish_gauges(&self) {
        self.scheduler.publish_gauges();
    }

    /// Prometheus text exposition of every registered metric. Gauges are
    /// republished from live state first, so scrapes never see stale depth
    /// or core counts. (The web layer prefers [`Portal::publish_gauges`] +
    /// an unlocked render; this stays for direct library callers.)
    pub fn metrics_text(&self) -> String {
        self.publish_gauges();
        self.obs.metrics.render()
    }

    /// Health snapshot for `/api/health`: the per-node rows, the summary
    /// counts, and the queue/running gauges — one cluster walk, so the
    /// degraded flag and the counts cannot disagree.
    pub fn health_view(&self) -> HealthView {
        let nodes = self.cluster_nodes();
        let count = |h: &str| nodes.iter().filter(|n| n.health == h).count();
        let (nodes_up, nodes_draining, nodes_down) =
            (count("up"), count("draining"), count("down"));
        HealthView {
            degraded: nodes_up < nodes.len(),
            nodes,
            nodes_up,
            nodes_draining,
            nodes_down,
            queue_depth: self.scheduler.pending().len(),
            jobs_running: self.scheduler.running_count(),
            durable: self.durable(),
            recovery: self.recovery.clone(),
            wal_error: self.wal_error(),
            alerts: self.alerts(),
        }
    }

    /// Current SLO alert state, in objective declaration order.
    pub fn alerts(&self) -> Vec<AlertView> {
        self.slo
            .alerts()
            .into_iter()
            .map(|a| AlertView {
                slo: a.slo,
                firing: a.firing,
                since: a.since,
                transitions: a.transitions,
            })
            .collect()
    }

    /// The families the time-series store captures each tick: every
    /// series [`Portal::dashboard_view`] reads, which include every series
    /// the default SLOs read. A series left out of the store reads `None`,
    /// so an SLO over it would silently never breach.
    pub(super) const DASHBOARD_FAMILIES: [&str; 8] = [
        "ccp_sched_queue_depth",
        "ccp_sched_jobs_running",
        "ccp_sched_jobs_submitted_total",
        "ccp_sched_jobs_completed_total",
        "ccp_sched_jobs_dispatched_total",
        "ccp_sched_jobs_node_lost_total",
        "ccp_sched_job_wait_ticks",
        "ccp_sched_job_run_ticks",
    ];

    /// Dashboard snapshot for `/api/dashboard`: windowed queries over the
    /// store, which captures exactly the tick-domain families read here,
    /// so the result is byte-identical across same-seed runs. A fixed
    /// 32-tick window keeps the panels comparable run to run.
    pub fn dashboard_view(&self) -> DashboardView {
        use crate::view::{QuantilePanel, RatePanel};
        use obs::SampleValue;
        const WINDOW: u64 = 32;
        let s = &self.store;
        let scalar = |name: &str| -> i64 {
            match s.latest(name, &[]) {
                Some(SampleValue::Gauge(g)) => g,
                Some(SampleValue::Counter(c)) => c as i64,
                _ => 0,
            }
        };
        let rate = |name: &str| RatePanel {
            total: scalar(name),
            rate_milli: s.rate_milli(name, &[], WINDOW),
        };
        let quantiles = |name: &str| QuantilePanel {
            p50: s.window_quantile(name, &[], WINDOW, 0.5),
            p99: s.window_quantile(name, &[], WINDOW, 0.99),
        };
        DashboardView {
            at: s.last_at().unwrap_or(0),
            window: WINDOW,
            captures: s.len(),
            evicted: s.evicted(),
            queue_depth: scalar("ccp_sched_queue_depth"),
            queue_depth_avg_milli: s.window_avg_milli("ccp_sched_queue_depth", &[], WINDOW),
            jobs_running: scalar("ccp_sched_jobs_running"),
            submitted: rate("ccp_sched_jobs_submitted_total"),
            completed: rate("ccp_sched_jobs_completed_total"),
            dispatched: rate("ccp_sched_jobs_dispatched_total"),
            node_lost: rate("ccp_sched_jobs_node_lost_total"),
            wait_ticks: quantiles("ccp_sched_job_wait_ticks"),
            run_ticks: quantiles("ccp_sched_job_run_ticks"),
            alerts: self.alerts(),
        }
    }

    /// The slowest operations the contention profiler has seen (admin
    /// only — details name other users' paths). Sorted slowest-first.
    pub fn slow_ops(&self, token: &Token, now: u64) -> Result<Vec<SlowOpView>, PortalError> {
        let (_, role) = self.whoami(token, now)?;
        if !role.at_least(Role::Admin) {
            return Err(PortalError::Forbidden("slow-op log requires admin"));
        }
        Ok(self
            .obs
            .profiler
            .slowest()
            .into_iter()
            .map(|op| SlowOpView {
                site: op.site.to_string(),
                us: op.us,
                detail: op.detail,
            })
            .collect())
    }

    /// The job's full causal span tree — the `http.request` root plus
    /// every child recorded across scheduler, cluster, execution, checker,
    /// and WAL layers. Owner or admin, like [`Portal::job`]. Jobs
    /// submitted without tracing (or recovered from the WAL, which does
    /// not persist traces) yield an empty tree.
    pub fn job_trace_tree(
        &self,
        token: &Token,
        id: JobId,
        now: u64,
    ) -> Result<TraceView, PortalError> {
        let (user, role) = self.whoami(token, now)?;
        let j = self.scheduler.job(id)?;
        if j.spec.user != user && !role.at_least(Role::Admin) {
            return Err(PortalError::Forbidden("job belongs to another user"));
        }
        let (root, spans) = match self.scheduler.job_trace(id) {
            Some(ctx) => (Some(ctx.root.0), self.obs.tracer.subtree(ctx.root)),
            None => (None, Vec::new()),
        };
        Ok(TraceView {
            job: id.0,
            root,
            spans: spans
                .into_iter()
                .map(|s| SpanView {
                    id: s.id,
                    parent: s.parent,
                    name: s.name,
                    start: s.start,
                    end: s.end,
                    attrs: s.attrs,
                })
                .collect(),
            truncated: self.obs.tracer.dropped(),
        })
    }

    /// A job's life story — submitted, queued, dispatched, retried,
    /// terminal — in event order. Owner or admin only, like
    /// [`Portal::job`]; the final entry matches the job's current state.
    pub fn job_timeline(
        &self,
        token: &Token,
        id: JobId,
        now: u64,
    ) -> Result<Vec<TimelineEventView>, PortalError> {
        let (user, role) = self.whoami(token, now)?;
        let j = self.scheduler.job(id)?;
        if j.spec.user != user && !role.at_least(Role::Admin) {
            return Err(PortalError::Forbidden("job belongs to another user"));
        }
        let key = id.0.to_string();
        Ok(self
            .obs
            .tracer
            .find_by_attr("job", &key)
            .into_iter()
            .map(|s| TimelineEventView {
                at: s.start,
                event: s.name.clone(),
                attrs: s
                    .attrs
                    .iter()
                    .filter(|(k, _)| k != "job")
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            })
            .collect())
    }

    /// The most recent `limit` structured events (access log, ...). Admin
    /// only: the log carries request paths across all users.
    pub fn recent_events(
        &self,
        token: &Token,
        limit: usize,
        now: u64,
    ) -> Result<Vec<EventView>, PortalError> {
        let (_, role) = self.whoami(token, now)?;
        if !role.at_least(Role::Admin) {
            return Err(PortalError::Forbidden("event log requires admin"));
        }
        Ok(self
            .obs
            .events
            .recent(limit)
            .into_iter()
            .map(|e| EventView {
                at: e.at,
                kind: e.kind,
                fields: e.fields,
            })
            .collect())
    }
}

fn job_view(j: &sched::JobRecord) -> JobView {
    JobView {
        id: j.id,
        user: j.spec.user.clone(),
        executable: j.spec.executable.clone(),
        state: j.state.clone(),
        state_label: state_label(&j.state),
        cores: j.spec.cores_needed(),
        attempt: j.attempt,
        last_failure: j.last_failure.clone(),
        stdout: j.streams.stdout.clone(),
        stderr: j.streams.stderr.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{default_slos, Portal, PortalConfig};
    use obs::SloKind;

    /// After one tick the store holds every dashboard family and every
    /// series an SLO reads: an SLO naming a series the store does not
    /// capture would read `None` and never breach. A family neither reads
    /// stays out.
    #[test]
    fn one_tick_captures_every_series_the_dashboard_and_slos_read() {
        let mut p = Portal::new(PortalConfig {
            checker_threads: Some(1),
            ..PortalConfig::default()
        });
        p.tick();
        let store = p.store();
        for family in Portal::DASHBOARD_FAMILIES {
            assert!(store.latest(family, &[]).is_some(), "{family} not captured");
        }
        for slo in default_slos() {
            let series = match &slo.kind {
                SloKind::GaugeAbove { series, .. } | SloKind::QuantileAbove { series, .. } => {
                    vec![series]
                }
                SloKind::ErrorRatio { bad, total, .. } => vec![bad, total],
            };
            for name in series {
                assert!(
                    store.latest(name, &[]).is_some(),
                    "SLO {} reads {name}, which the store does not capture",
                    slo.name
                );
            }
        }
        let evaluations = p.obs().metrics.counter("ccp_slo_evaluations_total", &[]);
        assert_eq!(evaluations.get(), 1);
        assert_eq!(store.latest("ccp_slo_evaluations_total", &[]), None);
    }
}
