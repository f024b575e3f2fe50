//! Plain-data views the web layer renders; no substrate types leak out.

use sched::{JobId, JobState};

/// One file-browser row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileView {
    /// Entry name.
    pub name: String,
    /// True for directories.
    pub is_dir: bool,
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Owner.
    pub owner: String,
    /// Logical mtime.
    pub mtime: u64,
}

/// One job-monitor row.
#[derive(Debug, Clone, PartialEq)]
pub struct JobView {
    /// Job id.
    pub id: JobId,
    /// Submitting user.
    pub user: String,
    /// Executable (artifact id).
    pub executable: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Human-readable state label.
    pub state_label: String,
    /// Cores the job asked for.
    pub cores: u32,
    /// Dispatches so far (0 = never ran, 2+ = retried after node loss).
    pub attempt: u32,
    /// Most recent failure cause, if any (survives a successful retry so
    /// the monitor can show what happened).
    pub last_failure: Option<String>,
    /// Captured stdout so far.
    pub stdout: String,
    /// Captured stderr so far.
    pub stderr: String,
}

/// One cluster-health row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeView {
    /// Segment index.
    pub segment: usize,
    /// Slot within the segment.
    pub slot: usize,
    /// "up" / "draining" / "down".
    pub health: String,
    /// Cores on the node.
    pub cores: u32,
}

/// One per-job timeline entry (job monitor "history" pane), distilled from
/// the tracer's point events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEventView {
    /// Scheduler tick the event happened at.
    pub at: u64,
    /// Event name (`job.submitted`, `job.dispatched`, ... `job.completed`).
    pub event: String,
    /// Event attributes beyond the job id (user, cores, attempt, ...).
    pub attrs: Vec<(String, String)>,
}

/// One structured-event-log row (admin operations view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventView {
    /// Timestamp (epoch seconds for http events, ticks for scheduler ones).
    pub at: u64,
    /// Event kind (`http.access`, ...).
    pub kind: String,
    /// Key/value payload.
    pub fields: Vec<(String, String)>,
}

/// Health snapshot: the degraded flag, the per-node rows it is derived
/// from, and the headline gauges — all computed from the same cluster
/// walk so the health view can never disagree with `/api/metrics`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthView {
    /// True while any node is out of service.
    pub degraded: bool,
    /// Per-node health rows.
    pub nodes: Vec<NodeView>,
    /// Nodes fully in service.
    pub nodes_up: usize,
    /// Nodes finishing their work before maintenance.
    pub nodes_draining: usize,
    /// Nodes lost to faults.
    pub nodes_down: usize,
    /// Jobs waiting in the ready queue.
    pub queue_depth: usize,
    /// Jobs currently on cores.
    pub jobs_running: usize,
    /// True when the portal persists state through write-ahead logs.
    pub durable: bool,
    /// What the log recovered at boot (`None` for in-memory portals).
    pub recovery: Option<wal::RecoveryReport>,
    /// Set when durability degraded: the WAL could not be opened, or hit
    /// an I/O error mid-run and stopped logging. The portal keeps serving
    /// from memory.
    pub wal_error: Option<String>,
    /// SLO alert state, in objective declaration order.
    pub alerts: Vec<AlertView>,
}

/// One SLO alert row (`/api/health`, `/api/dashboard`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertView {
    /// Objective name (`queue-depth`, `job-loss`, ...).
    pub slo: String,
    /// True while the objective is breached on both burn-rate windows.
    pub firing: bool,
    /// Tick the alert entered its current state (`None` before the first
    /// transition).
    pub since: Option<u64>,
    /// Lifetime firing↔cleared transitions.
    pub transitions: u64,
}

/// Latest value and windowed rate of one counter (`/api/dashboard`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RatePanel {
    /// Latest captured value.
    pub total: i64,
    /// Per-tick rate over the dashboard window, in milli-units (`None`
    /// until two captures exist).
    pub rate_milli: Option<i64>,
}

/// Sliding-window quantiles of one histogram (`/api/dashboard`). A value
/// of `f64::INFINITY` means the rank landed in the overflow bucket; the
/// web layer renders it as the string `"+Inf"`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantilePanel {
    pub p50: Option<f64>,
    pub p99: Option<f64>,
}

/// The `/api/dashboard` snapshot: windowed queries over the time-series
/// store, restricted to tick-domain series so same-seed runs render it
/// byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct DashboardView {
    /// Tick of the newest capture (0 before the first).
    pub at: u64,
    /// Window width in ticks behind every rate/quantile/average panel.
    pub window: u64,
    /// Captures currently held by the store.
    pub captures: usize,
    /// Captures that have rolled off the store's ring.
    pub evicted: u64,
    /// Jobs waiting in the ready queue (latest capture).
    pub queue_depth: i64,
    /// Windowed average queue depth, in milli-jobs.
    pub queue_depth_avg_milli: Option<i64>,
    /// Jobs on cores (latest capture).
    pub jobs_running: i64,
    pub submitted: RatePanel,
    pub completed: RatePanel,
    pub dispatched: RatePanel,
    pub node_lost: RatePanel,
    /// Queue-wait distribution over the window.
    pub wait_ticks: QuantilePanel,
    /// Runtime distribution over the window.
    pub run_ticks: QuantilePanel,
    /// SLO alert state.
    pub alerts: Vec<AlertView>,
}

/// One slowest-operations row (`/api/admin/slow`). Wall-clock timings —
/// diagnostic only, never part of the deterministic surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowOpView {
    /// Profiler site (`wal.commit`, `pool.task`, ...).
    pub site: String,
    /// Wall-clock duration in microseconds.
    pub us: u64,
    /// What the operation was doing.
    pub detail: String,
}

/// One span row in a job's causal trace (`/api/trace/:job_id`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanView {
    pub id: u64,
    /// Parent span id (`None` only for the trace root).
    pub parent: Option<u64>,
    /// Span name (`http.request`, `cluster.alloc`, `wal.append`, ...).
    pub name: String,
    /// Start tick.
    pub start: u64,
    /// End tick (`None` while open; point events end where they start).
    pub end: Option<u64>,
    pub attrs: Vec<(String, String)>,
}

/// A job's connected span tree: the `http.request` root plus every child
/// across scheduler, cluster, execution, checker, and WAL layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceView {
    /// The job id.
    pub job: u64,
    /// Root span id (`None` when the job was submitted without tracing).
    pub root: Option<u64>,
    /// Reachable spans, ordered by (start, id).
    pub spans: Vec<SpanView>,
    /// Spans evicted from the tracer's ring so far — nonzero means the
    /// tree may be missing its oldest entries.
    pub truncated: u64,
}

/// Quota summary for the dashboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaView {
    /// Bytes in use.
    pub used: u64,
    /// Byte limit.
    pub limit: u64,
}

/// What the systematic checker concluded about an artifact
/// (`POST /api/analyze`): verdict, budget spent, and — on failure — the
/// minimized repro schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisView {
    /// The analyzed artifact id.
    pub artifact: String,
    /// Verdict class: `clean`, `race`, `deadlock`, `livelock`,
    /// `runtime_error`.
    pub verdict: String,
    /// Human-readable verdict detail (race location, deadlock cycle, ...).
    pub detail: String,
    /// Schedules (complete executions) explored.
    pub schedules: u64,
    /// Visible steps taken across all schedules.
    pub steps: u64,
    /// True iff the schedule space was exhausted, making `clean` a proof
    /// within the step bound rather than a sampling result.
    pub complete: bool,
    /// True iff every schedule within the configured preemption bound was
    /// explored (equals `complete` when no bound is set): the CHESS-style
    /// certificate that makes a bounded `clean` a proof up to the bound.
    pub exhaustive_within_bound: bool,
    /// On failure: thread id per visible step; replaying it reproduces the
    /// failure deterministically.
    pub repro: Vec<usize>,
}

/// Render a [`JobState`] the way the job monitor shows it.
pub fn state_label(state: &JobState) -> String {
    match state {
        JobState::Pending => "pending".to_string(),
        JobState::Running { started_at } => format!("running since t={started_at}"),
        JobState::Completed { at } => format!("completed at t={at}"),
        JobState::Cancelled { at } => format!("cancelled at t={at}"),
        JobState::Failed { at, reason } => format!("failed at t={at}: {reason}"),
        JobState::Requeued { attempt, retry_at } => {
            format!("requeued for attempt {attempt}, retrying at t={retry_at}")
        }
        JobState::TimedOut { at } => format!("timed out at t={at}"),
        JobState::NodeLost { at, attempts } => {
            format!("lost at t={at} after {attempts} attempts")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_render() {
        assert_eq!(state_label(&JobState::Pending), "pending");
        assert_eq!(
            state_label(&JobState::Running { started_at: 3 }),
            "running since t=3"
        );
        assert!(state_label(&JobState::Failed {
            at: 9,
            reason: "node down".into()
        })
        .contains("node down"));
        assert_eq!(
            state_label(&JobState::Requeued {
                attempt: 2,
                retry_at: 14
            }),
            "requeued for attempt 2, retrying at t=14"
        );
        assert_eq!(
            state_label(&JobState::TimedOut { at: 30 }),
            "timed out at t=30"
        );
        assert_eq!(
            state_label(&JobState::NodeLost {
                at: 30,
                attempts: 3
            }),
            "lost at t=30 after 3 attempts"
        );
    }
}
