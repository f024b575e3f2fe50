//! The scheduler: submit → queue → dispatch → complete, on a logical clock.
//!
//! The driver calls [`Scheduler::tick`] once per time unit; each tick
//! applies any scripted fault events, completes due jobs, enforces
//! wall-clock budgets, recovers jobs off dead nodes (requeueing them with
//! backoff per their [`RetryPolicy`]), then asks the policy which pending
//! jobs to start and allocates cores for them from the [`Cluster`].
//!
//! # Fault tolerance
//!
//! A node transitioning to [`NodeHealth::Down`] kills every run touching
//! it. The scheduler releases the allocation, records the loss, and either
//! requeues the job (state [`JobState::Requeued`], eligible again after a
//! deterministic exponential backoff drawn from the seeded jitter RNG) or —
//! once the attempt budget is spent — terminates it as
//! [`JobState::NodeLost`]. [`NodeHealth::Draining`] nodes refuse new
//! placements but let running jobs finish; admins flip nodes with
//! [`Scheduler::drain_node`] / [`Scheduler::undrain_node`]. A per-job
//! wall-clock budget ([`crate::JobSpec::with_timeout`]) bounds the total
//! time from submission across every attempt.

use crate::accounting::{Accounting, UserUsage};
use crate::job::{JobId, JobRecord, JobSpec, JobState, StdStreams};
use crate::journal::{
    dec_alloc, dec_health, dec_node, dec_spec, dec_state, dec_streams, enc_alloc, enc_health,
    enc_node, enc_spec, enc_state, enc_streams, SchedRecord,
};
use crate::policy::SchedPolicyKind;
use crate::retry::RetryPolicy;
use cluster::faults::{FaultEvent, FaultPlan};
use cluster::{Cluster, ClusterError, NodeHealth, SlaveId};
use obs::{Obs, TraceContext};
use rng::SplitMix64;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use wal::{Dec, Enc, Stream};

/// Scheduler errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// Unknown job id.
    NoSuchJob(JobId),
    /// Job is in a state that does not allow the operation.
    BadState {
        /// The job.
        job: JobId,
        /// What was attempted.
        op: &'static str,
    },
    /// The job can never run on this cluster (even empty).
    Impossible {
        /// Cores requested.
        requested: u32,
        /// Maximum schedulable cores.
        capacity: u32,
    },
    /// Underlying cluster error.
    Cluster(ClusterError),
    /// The durability log failed (the in-memory mutation already committed;
    /// callers decide whether to surface or degrade to non-durable mode).
    Wal(String),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::NoSuchJob(id) => write!(f, "no such job {id}"),
            SchedError::BadState { job, op } => write!(f, "{job}: cannot {op} in current state"),
            SchedError::Impossible {
                requested,
                capacity,
            } => {
                write!(f, "job needs {requested} cores, cluster has {capacity}")
            }
            SchedError::Cluster(e) => write!(f, "cluster error: {e}"),
            SchedError::Wal(msg) => write!(f, "durability log: {msg}"),
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ClusterError> for SchedError {
    fn from(e: ClusterError) -> Self {
        SchedError::Cluster(e)
    }
}

/// Cached `ccp_sched_*` metric handles, rebuilt whenever an [`Obs`] is
/// attached. The per-user [`Accounting`] ledger stays authoritative for
/// quota views; these are the aggregate mirror the exposition reads.
#[derive(Debug, Clone)]
struct SchedMetrics {
    jobs_submitted: obs::Counter,
    submit_rejected: obs::Counter,
    jobs_dispatched: obs::Counter,
    jobs_completed: obs::Counter,
    jobs_cancelled: obs::Counter,
    jobs_timed_out: obs::Counter,
    jobs_node_lost: obs::Counter,
    retries: obs::Counter,
    node_losses: obs::Counter,
    core_ticks: obs::Counter,
    recovery_wait_ticks: obs::Counter,
    queue_depth: obs::Gauge,
    jobs_running: obs::Gauge,
    wait_ticks: obs::Histogram,
    run_ticks: obs::Histogram,
    backoff_ticks: obs::Histogram,
}

impl SchedMetrics {
    fn new(o: &Obs) -> SchedMetrics {
        let m = &o.metrics;
        m.describe(
            "ccp_sched_jobs_submitted_total",
            "jobs accepted into the queue",
        );
        m.describe(
            "ccp_sched_submit_rejected_total",
            "submissions rejected as impossible",
        );
        m.describe(
            "ccp_sched_jobs_dispatched_total",
            "job dispatches (attempts started)",
        );
        m.describe(
            "ccp_sched_jobs_completed_total",
            "jobs that finished successfully",
        );
        m.describe(
            "ccp_sched_jobs_cancelled_total",
            "jobs cancelled by users or admins",
        );
        m.describe(
            "ccp_sched_jobs_timed_out_total",
            "jobs killed by their wall-clock budget",
        );
        m.describe(
            "ccp_sched_jobs_node_lost_total",
            "jobs terminated after exhausting retries",
        );
        m.describe("ccp_sched_retries_total", "requeues after a node loss");
        m.describe(
            "ccp_sched_node_losses_total",
            "running jobs interrupted by a node going down",
        );
        m.describe(
            "ccp_sched_core_ticks_total",
            "core-ticks consumed by completed jobs",
        );
        m.describe(
            "ccp_sched_recovery_wait_ticks_total",
            "ticks jobs spent parked after node losses",
        );
        m.describe("ccp_sched_queue_depth", "jobs currently pending");
        m.describe("ccp_sched_jobs_running", "jobs currently running");
        m.describe(
            "ccp_sched_job_wait_ticks",
            "submission-to-first-dispatch wait per completed job",
        );
        m.describe(
            "ccp_sched_job_run_ticks",
            "final-attempt runtime per completed job",
        );
        m.describe("ccp_sched_retry_backoff_ticks", "backoff drawn per retry");
        SchedMetrics {
            jobs_submitted: m.counter("ccp_sched_jobs_submitted_total", &[]),
            submit_rejected: m.counter("ccp_sched_submit_rejected_total", &[]),
            jobs_dispatched: m.counter("ccp_sched_jobs_dispatched_total", &[]),
            jobs_completed: m.counter("ccp_sched_jobs_completed_total", &[]),
            jobs_cancelled: m.counter("ccp_sched_jobs_cancelled_total", &[]),
            jobs_timed_out: m.counter("ccp_sched_jobs_timed_out_total", &[]),
            jobs_node_lost: m.counter("ccp_sched_jobs_node_lost_total", &[]),
            retries: m.counter("ccp_sched_retries_total", &[]),
            node_losses: m.counter("ccp_sched_node_losses_total", &[]),
            core_ticks: m.counter("ccp_sched_core_ticks_total", &[]),
            recovery_wait_ticks: m.counter("ccp_sched_recovery_wait_ticks_total", &[]),
            queue_depth: m.gauge("ccp_sched_queue_depth", &[]),
            jobs_running: m.gauge("ccp_sched_jobs_running", &[]),
            wait_ticks: m.histogram("ccp_sched_job_wait_ticks", &[], obs::TICK_BOUNDS),
            run_ticks: m.histogram("ccp_sched_job_run_ticks", &[], obs::TICK_BOUNDS),
            backoff_ticks: m.histogram("ccp_sched_retry_backoff_ticks", &[], obs::TICK_BOUNDS),
        }
    }
}

const SCHED_SNAP_VERSION: u32 = 1;

/// The job distributor.
#[derive(Debug)]
pub struct Scheduler {
    cluster: Cluster,
    policy: SchedPolicyKind,
    jobs: BTreeMap<JobId, JobRecord>,
    /// Each user's job ids in id order, so one student's job list costs
    /// their own rows, not a walk of every job the class submitted. Kept
    /// in step with `jobs` by [`Scheduler::submit_inner`] (which replay
    /// goes through too) and [`Scheduler::restore_snapshot`]; jobs are
    /// never removed and their owner never changes.
    by_owner: BTreeMap<String, Vec<JobId>>,
    /// FIFO of pending job ids.
    queue: Vec<JobId>,
    next_id: u64,
    now: u64,
    dispatch_count: u64,
    accounting: Accounting,
    /// Default retry policy for jobs that don't carry their own.
    default_retry: RetryPolicy,
    /// Seeded RNG for backoff jitter — the only randomness in the scheduler,
    /// so whole recovery schedules replay identically per seed (and, because
    /// the state snapshots, identically across a crash/recovery boundary).
    rng: SplitMix64,
    /// Scripted health transitions, sorted by tick (applied at tick start).
    faults: Vec<FaultEvent>,
    faults_applied: usize,
    /// Telemetry domain; every lifecycle transition lands here as a metric
    /// movement plus a tracer point-event keyed by `job=<id>`.
    obs: Arc<Obs>,
    metrics: SchedMetrics,
    /// Causal trace contexts per job, for jobs submitted through
    /// [`Scheduler::submit_traced`]: lifecycle events become children of
    /// the propagated span so the whole life renders as one tree. Telemetry
    /// only — never serialized, so recovered jobs fall back to plain
    /// (unparented) events.
    traces: BTreeMap<JobId, TraceContext>,
    /// This scheduler's stream on the portal's journal; `None` runs fully
    /// in memory (the default). A failed append degrades rather than
    /// failing the in-memory command: the journal keeps the error and the
    /// portal surfaces it in health.
    wal: Option<Stream>,
}

impl Scheduler {
    /// A scheduler over `cluster` using `policy`. Jobs default to the
    /// [`RetryPolicy::default`] unless their spec carries one.
    pub fn new(cluster: Cluster, policy: SchedPolicyKind) -> Scheduler {
        let obs = Arc::new(Obs::new());
        let metrics = SchedMetrics::new(&obs);
        Scheduler {
            cluster,
            policy,
            jobs: BTreeMap::new(),
            by_owner: BTreeMap::new(),
            queue: Vec::new(),
            next_id: 1,
            now: 0,
            dispatch_count: 0,
            accounting: Accounting::new(),
            default_retry: RetryPolicy::default(),
            rng: SplitMix64::new(0),
            faults: Vec::new(),
            faults_applied: 0,
            obs,
            metrics,
            traces: BTreeMap::new(),
            wal: None,
        }
    }

    /// Attach a shared telemetry domain (builder style), replacing the
    /// private one created by [`Scheduler::new`]. Also wires the backing
    /// cluster onto the same registry.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Scheduler {
        self.metrics = SchedMetrics::new(&obs);
        self.cluster.set_obs(&obs);
        self.obs = obs;
        self
    }

    /// The telemetry domain this scheduler records into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Override the default retry policy (builder style).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Scheduler {
        self.default_retry = policy;
        self
    }

    /// Reseed the backoff-jitter RNG (builder style).
    pub fn with_retry_seed(mut self, seed: u64) -> Scheduler {
        self.rng = SplitMix64::new(seed);
        self
    }

    /// Attach a fault script; due events apply at the start of each tick,
    /// before completion/recovery/dispatch. Replaces any previous script.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Scheduler {
        let mut events: Vec<FaultEvent> = plan.events().to_vec();
        events.sort_by_key(|e| e.at_tick);
        self.faults = events;
        self.faults_applied = 0;
        self
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The policy in force.
    pub fn policy(&self) -> SchedPolicyKind {
        self.policy
    }

    /// The backing cluster (read-only).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable cluster access (fault injection in tests).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Usage accounting.
    pub fn accounting(&self) -> &Accounting {
        &self.accounting
    }

    /// Admin: stop placing new work on `node`; running jobs finish normally.
    /// Down nodes stay down (undrain is the only way back up).
    pub fn drain_node(&mut self, node: SlaveId) -> Result<(), SchedError> {
        self.drain_node_inner(node)?;
        self.log(|| SchedRecord::DrainNode { node });
        Ok(())
    }

    fn drain_node_inner(&mut self, node: SlaveId) -> Result<(), SchedError> {
        if self.cluster.health(node)? == NodeHealth::Up {
            self.cluster.set_health(node, NodeHealth::Draining)?;
        }
        Ok(())
    }

    /// Admin: return a drained (or recovered) node to service.
    pub fn undrain_node(&mut self, node: SlaveId) -> Result<(), SchedError> {
        self.undrain_node_inner(node)?;
        self.log(|| SchedRecord::UndrainNode { node });
        Ok(())
    }

    fn undrain_node_inner(&mut self, node: SlaveId) -> Result<(), SchedError> {
        self.cluster.set_health(node, NodeHealth::Up)?;
        Ok(())
    }

    /// Submit a job; it enters the pending queue. Admission checks against
    /// the *spec* capacity, not current health: during an outage the portal
    /// keeps accepting work and runs it when nodes return (degraded mode).
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, SchedError> {
        self.submit_traced(spec, None)
    }

    /// [`Scheduler::submit`] carrying a propagated [`TraceContext`]: every
    /// lifecycle event of the job — queueing, allocation, dispatch, WAL
    /// appends, completion — is recorded as a child of `ctx.parent`, so the
    /// job's whole life hangs off the span minted where the work entered
    /// the system.
    pub fn submit_traced(
        &mut self,
        spec: JobSpec,
        ctx: Option<TraceContext>,
    ) -> Result<JobId, SchedError> {
        let payload = self
            .wal
            .is_some()
            .then(|| SchedRecord::Submit { spec: spec.clone() }.encode());
        let id = self.submit_inner(spec, ctx)?;
        if let Some(p) = payload {
            if let Some(lsn) = self.log_payload(&p) {
                self.wal_trace_event(id, lsn, "submit");
            }
        }
        Ok(id)
    }

    /// The trace context a job was submitted with, if any.
    pub fn job_trace(&self, id: JobId) -> Option<TraceContext> {
        self.traces.get(&id).copied()
    }

    /// Record a job lifecycle point-event: a child of the job's propagated
    /// trace context when one exists, a plain event otherwise. Associated
    /// fn taking field refs so call sites can hold disjoint borrows.
    fn trace_job_event(
        obs: &Obs,
        traces: &BTreeMap<JobId, TraceContext>,
        id: JobId,
        name: &str,
        at: u64,
        attrs: &[(&str, &str)],
    ) {
        match traces.get(&id) {
            Some(ctx) => obs.tracer.event_child(ctx.parent, name, at, attrs),
            None => obs.tracer.event(name, at, attrs),
        };
    }

    /// Record a `wal.append` child event for a traced job's logged command.
    fn wal_trace_event(&self, id: JobId, lsn: u64, op: &str) {
        if let Some(ctx) = self.traces.get(&id) {
            self.obs.tracer.event_child(
                ctx.parent,
                "wal.append",
                self.now,
                &[
                    ("job", &id.0.to_string()),
                    ("lsn", &lsn.to_string()),
                    ("op", op),
                ],
            );
        }
    }

    fn submit_inner(
        &mut self,
        spec: JobSpec,
        ctx: Option<TraceContext>,
    ) -> Result<JobId, SchedError> {
        let capacity = self.cluster.spec().total_cores();
        if spec.cores_needed() > capacity {
            self.metrics.submit_rejected.inc();
            return Err(SchedError::Impossible {
                requested: spec.cores_needed(),
                capacity,
            });
        }
        let id = JobId(self.next_id);
        if let Some(ctx) = ctx {
            self.traces.insert(id, ctx);
        }
        self.metrics.jobs_submitted.inc();
        Self::trace_job_event(
            &self.obs,
            &self.traces,
            id,
            "job.submitted",
            self.now,
            &[
                ("job", &id.0.to_string()),
                ("user", &spec.user),
                ("cores", &spec.cores_needed().to_string()),
            ],
        );
        self.next_id += 1;
        self.by_owner.entry(spec.user.clone()).or_default().push(id);
        self.jobs.insert(
            id,
            JobRecord {
                id,
                spec,
                state: JobState::Pending,
                submitted_at: self.now,
                allocation: None,
                started_at: None,
                streams: StdStreams::default(),
                attempt: 0,
                last_failure: None,
                node_losses: 0,
                requeued_at: None,
                recovery_wait_ticks: 0,
            },
        );
        self.queue.push(id);
        Self::trace_job_event(
            &self.obs,
            &self.traces,
            id,
            "job.queued",
            self.now,
            &[("job", &id.0.to_string())],
        );
        self.publish_gauges();
        Ok(id)
    }

    /// Look a job up.
    pub fn job(&self, id: JobId) -> Result<&JobRecord, SchedError> {
        self.jobs.get(&id).ok_or(SchedError::NoSuchJob(id))
    }

    /// Mutable job access. `spec.user` must not change through it: the
    /// per-owner index behind [`Scheduler::jobs_of`] does not follow it.
    pub fn job_mut(&mut self, id: JobId) -> Result<&mut JobRecord, SchedError> {
        self.jobs.get_mut(&id).ok_or(SchedError::NoSuchJob(id))
    }

    /// All jobs, id-ordered.
    pub fn jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.values()
    }

    /// `user`'s jobs, id-ordered: the rows of [`Scheduler::jobs`] whose
    /// `spec.user` is `user`, found through the per-owner index.
    pub fn jobs_of<'a>(&'a self, user: &str) -> impl Iterator<Item = &'a JobRecord> + 'a {
        self.by_owner
            .get(user)
            .into_iter()
            .flatten()
            .filter_map(|id| self.jobs.get(id))
    }

    /// Ids of currently pending jobs, queue-ordered.
    pub fn pending(&self) -> &[JobId] {
        &self.queue
    }

    /// Number of running jobs.
    pub fn running_count(&self) -> usize {
        self.jobs.values().filter(|j| j.state.is_running()).count()
    }

    /// Queue a line of interactive stdin for a job.
    pub fn push_stdin(&mut self, id: JobId, line: &str) -> Result<(), SchedError> {
        self.push_stdin_inner(id, line)?;
        if let Some(lsn) = self.log(|| SchedRecord::PushStdin {
            id,
            line: line.to_string(),
        }) {
            self.wal_trace_event(id, lsn, "stdin");
        }
        Ok(())
    }

    fn push_stdin_inner(&mut self, id: JobId, line: &str) -> Result<(), SchedError> {
        let job = self.jobs.get_mut(&id).ok_or(SchedError::NoSuchJob(id))?;
        job.streams.push_stdin(line);
        Ok(())
    }

    /// Record execution-engine results for a job: append captured stream
    /// text and/or revise the actual runtime. The engine's output is not
    /// re-derivable from scheduler state, so it must flow through here (and
    /// thus the WAL) rather than being poked into the record directly.
    pub fn set_outcome(
        &mut self,
        id: JobId,
        stdout: Option<&str>,
        stderr: Option<&str>,
        actual_ticks: Option<u64>,
    ) -> Result<(), SchedError> {
        self.set_outcome_inner(id, stdout, stderr, actual_ticks)?;
        if let Some(lsn) = self.log(|| SchedRecord::SetOutcome {
            id,
            stdout: stdout.map(str::to_string),
            stderr: stderr.map(str::to_string),
            actual_ticks,
        }) {
            self.wal_trace_event(id, lsn, "outcome");
        }
        Ok(())
    }

    fn set_outcome_inner(
        &mut self,
        id: JobId,
        stdout: Option<&str>,
        stderr: Option<&str>,
        actual_ticks: Option<u64>,
    ) -> Result<(), SchedError> {
        let job = self.jobs.get_mut(&id).ok_or(SchedError::NoSuchJob(id))?;
        if let Some(s) = stdout {
            job.streams.stdout.push_str(s);
        }
        if let Some(s) = stderr {
            job.streams.stderr.push_str(s);
        }
        if let Some(t) = actual_ticks {
            job.spec.actual_ticks = t;
        }
        Ok(())
    }

    /// Cancel a pending, running, or backoff-waiting job.
    pub fn cancel(&mut self, id: JobId) -> Result<(), SchedError> {
        self.cancel_inner(id)?;
        if let Some(lsn) = self.log(|| SchedRecord::Cancel { id }) {
            self.wal_trace_event(id, lsn, "cancel");
        }
        Ok(())
    }

    fn cancel_inner(&mut self, id: JobId) -> Result<(), SchedError> {
        let now = self.now;
        let job = self.jobs.get_mut(&id).ok_or(SchedError::NoSuchJob(id))?;
        let cancelled = match job.state {
            JobState::Pending | JobState::Requeued { .. } => {
                job.state = JobState::Cancelled { at: now };
                job.requeued_at = None;
                self.queue.retain(|&q| q != id);
                Ok(())
            }
            JobState::Running { .. } => {
                job.state = JobState::Cancelled { at: now };
                if let Some(alloc) = job.allocation.take() {
                    self.cluster.release(&alloc);
                }
                Ok(())
            }
            _ => Err(SchedError::BadState {
                job: id,
                op: "cancel",
            }),
        };
        if cancelled.is_ok() {
            self.metrics.jobs_cancelled.inc();
            Self::trace_job_event(
                &self.obs,
                &self.traces,
                id,
                "job.cancelled",
                now,
                &[("job", &id.0.to_string())],
            );
            self.publish_gauges();
        }
        cancelled
    }

    /// Advance time by one tick: apply due fault events, complete due jobs,
    /// enforce timeouts, recover jobs off dead nodes, requeue jobs whose
    /// backoff expired, then dispatch per policy. Returns ids dispatched.
    pub fn tick(&mut self) -> Vec<JobId> {
        let started = self.tick_inner();
        self.log(|| SchedRecord::Tick);
        started
    }

    fn tick_inner(&mut self) -> Vec<JobId> {
        self.now += 1;
        self.apply_due_faults();
        self.complete_due();
        self.enforce_timeouts();
        self.recover_lost_nodes();
        self.requeue_due_retries();
        let started = self.dispatch();
        self.publish_gauges();
        started
    }

    /// Refresh the queue-depth/running gauges (and the cluster's) from
    /// authoritative state. Called at every mutation point; cheap and
    /// idempotent, so exposition readers may also call it defensively.
    pub fn publish_gauges(&self) {
        self.metrics.queue_depth.set(self.queue.len() as i64);
        self.metrics.jobs_running.set(self.running_count() as i64);
        self.cluster.publish_gauges();
    }

    /// Run `n` ticks, returning total dispatches.
    pub fn run_ticks(&mut self, n: u64) -> usize {
        let mut total = 0;
        for _ in 0..n {
            total += self.tick().len();
        }
        total
    }

    /// Drive until every submitted job is terminal (or `max_ticks` elapse).
    /// Returns the tick at which the system drained, if it did. Jobs parked
    /// in retry backoff are not terminal, so a recovery schedule that
    /// outlives the horizon yields `None`.
    pub fn drain(&mut self, max_ticks: u64) -> Option<u64> {
        for _ in 0..max_ticks {
            self.tick();
            let all_done = self.jobs.values().all(|j| j.state.is_terminal());
            if all_done {
                return Some(self.now);
            }
        }
        None
    }

    fn apply_due_faults(&mut self) {
        while self.faults_applied < self.faults.len()
            && self.faults[self.faults_applied].at_tick <= self.now
        {
            let ev = self.faults[self.faults_applied];
            // A scripted node may not exist on a smaller cluster; skip it.
            let _ = self.cluster.set_health(ev.node, ev.health);
            self.faults_applied += 1;
        }
    }

    fn complete_due(&mut self) {
        let now = self.now;
        let due: Vec<JobId> = self
            .jobs
            .values()
            .filter_map(|j| match j.state {
                JobState::Running { started_at }
                    if j.spec.actual_ticks != u64::MAX
                        && now >= started_at + j.spec.actual_ticks =>
                {
                    Some(j.id)
                }
                _ => None,
            })
            .collect();
        for id in due {
            let Some(job) = self.jobs.get_mut(&id) else {
                continue;
            };
            let JobState::Running { started_at } = job.state else {
                continue;
            };
            job.state = JobState::Completed { at: now };
            let alloc = job.allocation.take();
            let cores = alloc.as_ref().map(|a| a.total_cores()).unwrap_or(0);
            // First-attempt queue wait only; post-failure waiting was folded
            // into recovery_wait_ticks at each redispatch.
            let wait = job.wait_ticks(now);
            self.accounting
                .record(&job.spec.user, cores as u64 * (now - started_at), wait);
            self.metrics.jobs_completed.inc();
            self.metrics
                .core_ticks
                .add(cores as u64 * (now - started_at));
            self.metrics.wait_ticks.record(wait);
            self.metrics.run_ticks.record(now - started_at);
            Self::trace_job_event(
                &self.obs,
                &self.traces,
                id,
                "job.completed",
                now,
                &[
                    ("job", &id.0.to_string()),
                    ("run_ticks", &(now - started_at).to_string()),
                ],
            );
            if let Some(a) = alloc {
                self.cluster.release(&a);
            }
        }
    }

    fn enforce_timeouts(&mut self) {
        let now = self.now;
        let expired: Vec<JobId> = self
            .jobs
            .values()
            .filter(|j| !j.state.is_terminal())
            .filter(|j| {
                j.spec
                    .timeout_ticks
                    .map(|t| now >= j.submitted_at + t)
                    .unwrap_or(false)
            })
            .map(|j| j.id)
            .collect();
        for id in expired {
            let Some(job) = self.jobs.get_mut(&id) else {
                continue;
            };
            let budget = job.spec.timeout_ticks.unwrap_or(0);
            job.state = JobState::TimedOut { at: now };
            job.last_failure = Some(format!("exceeded wall-clock budget of {budget} ticks"));
            job.requeued_at = None;
            if let Some(a) = job.allocation.take() {
                self.cluster.release(&a);
            }
            self.queue.retain(|&q| q != id);
            self.metrics.jobs_timed_out.inc();
            Self::trace_job_event(
                &self.obs,
                &self.traces,
                id,
                "job.timed_out",
                now,
                &[
                    ("job", &id.0.to_string()),
                    ("budget_ticks", &budget.to_string()),
                ],
            );
        }
    }

    fn recover_lost_nodes(&mut self) {
        let now = self.now;
        let dead: Vec<SlaveId> = self
            .cluster
            .slave_ids()
            .into_iter()
            .filter(|&id| self.cluster.health(id) == Ok(NodeHealth::Down))
            .collect();
        if dead.is_empty() {
            return;
        }
        let doomed: Vec<JobId> = self
            .jobs
            .values()
            .filter(|j| {
                j.state.is_running()
                    && j.allocation
                        .as_ref()
                        .map(|a| a.cores.keys().any(|n| dead.contains(n)))
                        .unwrap_or(false)
            })
            .map(|j| j.id)
            .collect();
        for id in doomed {
            let Some(job) = self.jobs.get_mut(&id) else {
                continue;
            };
            if let Some(a) = job.allocation.take() {
                // Surviving nodes get their cores back; the dead node's
                // busy count is reconciled too, so it returns clean.
                self.cluster.release(&a);
            }
            job.node_losses += 1;
            job.last_failure = Some("node went down".to_string());
            self.accounting.record_node_loss(&job.spec.user);
            self.metrics.node_losses.inc();
            let policy = job.spec.retry.unwrap_or(self.default_retry);
            let attempts = job.attempt;
            if policy.can_retry(attempts) {
                let backoff = policy.backoff_ticks(attempts, &mut self.rng);
                job.state = JobState::Requeued {
                    attempt: attempts + 1,
                    retry_at: now + backoff,
                };
                job.requeued_at = Some(now);
                self.accounting.record_retry(&job.spec.user);
                self.metrics.retries.inc();
                self.metrics.backoff_ticks.record(backoff);
                Self::trace_job_event(
                    &self.obs,
                    &self.traces,
                    id,
                    "job.requeued",
                    now,
                    &[
                        ("job", &id.0.to_string()),
                        ("attempt", &(attempts + 1).to_string()),
                        ("backoff_ticks", &backoff.to_string()),
                    ],
                );
            } else {
                job.state = JobState::NodeLost { at: now, attempts };
                self.metrics.jobs_node_lost.inc();
                Self::trace_job_event(
                    &self.obs,
                    &self.traces,
                    id,
                    "job.node_lost",
                    now,
                    &[
                        ("job", &id.0.to_string()),
                        ("attempts", &attempts.to_string()),
                    ],
                );
            }
        }
    }

    fn requeue_due_retries(&mut self) {
        let now = self.now;
        let due: Vec<JobId> = self
            .jobs
            .values()
            .filter_map(|j| match j.state {
                JobState::Requeued { retry_at, .. } if retry_at <= now => Some(j.id),
                _ => None,
            })
            .collect();
        for id in due {
            let Some(job) = self.jobs.get_mut(&id) else {
                continue;
            };
            job.state = JobState::Pending;
            // Back of the queue: a recovered job does not preempt work that
            // queued honestly while it was running.
            self.queue.push(id);
            Self::trace_job_event(
                &self.obs,
                &self.traces,
                id,
                "job.queued",
                now,
                &[("job", &id.0.to_string())],
            );
        }
    }

    fn dispatch(&mut self) -> Vec<JobId> {
        let pending_refs: Vec<&JobRecord> = self
            .queue
            .iter()
            .filter_map(|id| self.jobs.get(id))
            .collect();
        if pending_refs.is_empty() {
            return Vec::new();
        }
        let free = self.cluster.free_cores();
        let releases: Vec<(u64, u32)> = self
            .jobs
            .values()
            .filter_map(|j| match (&j.state, &j.allocation) {
                (JobState::Running { started_at }, Some(a)) if j.spec.actual_ticks != u64::MAX => {
                    Some((
                        started_at + j.spec.estimated_ticks.min(j.spec.actual_ticks),
                        a.total_cores(),
                    ))
                }
                _ => None,
            })
            .collect();
        let picks = self.policy.pick(&pending_refs, free, self.now, &releases);
        let pick_ids: Vec<JobId> = picks.iter().map(|&i| pending_refs[i].id).collect();
        drop(pending_refs);

        let mut started = Vec::new();
        for id in pick_ids {
            let Some(j) = self.jobs.get(&id) else {
                continue;
            };
            let cores_needed = j.spec.cores_needed();
            // Placement: round-robin prefers a segment, falling back to any.
            let preferred = self
                .policy
                .preferred_segment(self.dispatch_count, &self.cluster);
            let alloc = match preferred {
                Some(seg) => self
                    .cluster
                    .allocate_cores_filtered(cores_needed, |sid, _| sid.segment == seg)
                    .or_else(|_| self.cluster.allocate_cores(cores_needed)),
                None => self.cluster.allocate_cores(cores_needed),
            };
            match alloc {
                Ok(a) => {
                    let now = self.now;
                    let cores_granted = a.total_cores();
                    let nodes_touched = a.node_count();
                    let Some(job) = self.jobs.get_mut(&id) else {
                        // Queue/job maps out of sync: give the cores back
                        // rather than leaking them (or panicking).
                        self.cluster.release(&a);
                        continue;
                    };
                    job.state = JobState::Running { started_at: now };
                    // First start only: retries keep the original for
                    // first-attempt wait accounting.
                    if job.started_at.is_none() {
                        job.started_at = Some(now);
                    }
                    job.allocation = Some(a);
                    job.attempt += 1;
                    if let Some(lost_at) = job.requeued_at.take() {
                        let recovery = now.saturating_sub(lost_at);
                        job.recovery_wait_ticks += recovery;
                        self.accounting.record_recovery(&job.spec.user, recovery);
                        self.metrics.recovery_wait_ticks.add(recovery);
                    }
                    let attempt = job.attempt;
                    self.queue.retain(|&q| q != id);
                    self.dispatch_count += 1;
                    self.metrics.jobs_dispatched.inc();
                    // The allocation itself is a traced step: which layer
                    // granted how many cores across how many nodes.
                    if let Some(ctx) = self.traces.get(&id) {
                        self.obs.tracer.event_child(
                            ctx.parent,
                            "cluster.alloc",
                            now,
                            &[
                                ("job", &id.0.to_string()),
                                ("cores", &cores_granted.to_string()),
                                ("nodes", &nodes_touched.to_string()),
                            ],
                        );
                    }
                    Self::trace_job_event(
                        &self.obs,
                        &self.traces,
                        id,
                        "job.dispatched",
                        now,
                        &[
                            ("job", &id.0.to_string()),
                            ("attempt", &attempt.to_string()),
                            ("cores", &cores_granted.to_string()),
                            ("nodes", &nodes_touched.to_string()),
                        ],
                    );
                    started.push(id);
                }
                Err(_) => {
                    // Policy thought it fit but placement failed (e.g. the
                    // preferred segment was full and the whole cluster too);
                    // leave it queued.
                }
            }
        }
        started
    }

    // ---- durability ------------------------------------------------------

    /// Log every later command to `wal`. Restore the state the journal
    /// recovered (via [`Scheduler::restore_snapshot`] and
    /// [`Scheduler::replay`]) *before* attaching.
    pub fn attach_wal(&mut self, wal: Stream) {
        self.wal = Some(wal);
    }

    /// Log one command, returning its LSN when a stream is attached and
    /// the append succeeded (so traced commands can record it).
    fn log(&self, make: impl FnOnce() -> SchedRecord) -> Option<u64> {
        self.wal.as_ref()?;
        self.log_payload(&make().encode())
    }

    fn log_payload(&self, payload: &[u8]) -> Option<u64> {
        self.wal.as_ref()?.append(payload).ok()
    }

    /// Decode one logged command and re-execute it (replay path; nothing
    /// is re-logged).
    pub fn replay(&mut self, payload: &[u8]) -> Result<(), SchedError> {
        let rec = SchedRecord::decode(payload).map_err(|e| SchedError::Wal(e.to_string()))?;
        self.apply_record(&rec)
    }

    /// Re-execute one logged command (replay path; nothing is re-logged).
    pub fn apply_record(&mut self, rec: &SchedRecord) -> Result<(), SchedError> {
        match rec {
            SchedRecord::Submit { spec } => self.submit_inner(spec.clone(), None).map(|_| ()),
            SchedRecord::Cancel { id } => self.cancel_inner(*id),
            SchedRecord::Tick => {
                self.tick_inner();
                Ok(())
            }
            SchedRecord::DrainNode { node } => self.drain_node_inner(*node),
            SchedRecord::UndrainNode { node } => self.undrain_node_inner(*node),
            SchedRecord::PushStdin { id, line } => self.push_stdin_inner(*id, line),
            SchedRecord::SetOutcome {
                id,
                stdout,
                stderr,
                actual_ticks,
            } => self.set_outcome_inner(*id, stdout.as_deref(), stderr.as_deref(), *actual_ticks),
        }
    }

    /// Canonical byte serialization of the full scheduler state — jobs,
    /// queue, clocks, RNG, accounting ledger and node health. Deterministic,
    /// so it doubles as the state-equality witness in recovery tests.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(SCHED_SNAP_VERSION)
            .u64(self.now)
            .u64(self.next_id)
            .u64(self.dispatch_count)
            .u64(self.rng.state())
            .u64(self.faults_applied as u64);
        e.u32(self.queue.len() as u32);
        for id in &self.queue {
            e.u64(id.0);
        }
        e.u32(self.jobs.len() as u32);
        for job in self.jobs.values() {
            e.u64(job.id.0);
            enc_spec(&mut e, &job.spec);
            enc_state(&mut e, &job.state);
            e.u64(job.submitted_at);
            match &job.allocation {
                Some(a) => {
                    e.bool(true);
                    enc_alloc(&mut e, a);
                }
                None => {
                    e.bool(false);
                }
            }
            e.opt_u64(job.started_at);
            enc_streams(&mut e, &job.streams);
            e.u32(job.attempt)
                .opt_str(job.last_failure.as_deref())
                .u32(job.node_losses)
                .opt_u64(job.requeued_at)
                .u64(job.recovery_wait_ticks);
        }
        let users: Vec<(&str, &UserUsage)> = self.accounting.all().collect();
        e.u32(users.len() as u32);
        for (name, u) in users {
            e.str(name)
                .u64(u.jobs_completed)
                .u64(u.core_ticks)
                .u64(u.wait_ticks)
                .u64(u.retry_attempts)
                .u64(u.node_losses)
                .u64(u.recovery_wait_ticks);
        }
        let nodes = self.cluster.slave_ids();
        e.u32(nodes.len() as u32);
        for id in nodes {
            enc_node(&mut e, id);
            enc_health(&mut e, self.cluster.health(id).unwrap_or(NodeHealth::Down));
        }
        e.into_bytes()
    }

    /// Restore state from a [`Scheduler::snapshot_bytes`] payload. Call on
    /// a freshly configured scheduler (same cluster spec, policy, retry
    /// default, seed and fault plan as the instance that snapshotted).
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), SchedError> {
        let bad = |_: wal::CodecError| {
            SchedError::Wal("truncated or malformed sched snapshot".to_string())
        };
        let mut d = Dec::new(bytes);
        if d.u32().map_err(bad)? != SCHED_SNAP_VERSION {
            return Err(SchedError::Wal(
                "unsupported sched snapshot version".to_string(),
            ));
        }
        self.now = d.u64().map_err(bad)?;
        self.next_id = d.u64().map_err(bad)?;
        self.dispatch_count = d.u64().map_err(bad)?;
        self.rng = SplitMix64::new(d.u64().map_err(bad)?);
        self.faults_applied = d.u64().map_err(bad)? as usize;
        let n_queue = d.u32().map_err(bad)?;
        self.queue = Vec::with_capacity(n_queue as usize);
        for _ in 0..n_queue {
            self.queue.push(JobId(d.u64().map_err(bad)?));
        }
        let n_jobs = d.u32().map_err(bad)?;
        self.jobs = BTreeMap::new();
        for _ in 0..n_jobs {
            let id = JobId(d.u64().map_err(bad)?);
            let spec = dec_spec(&mut d).map_err(bad)?;
            let state = dec_state(&mut d).map_err(bad)?;
            let submitted_at = d.u64().map_err(bad)?;
            let allocation = if d.bool().map_err(bad)? {
                Some(dec_alloc(&mut d).map_err(bad)?)
            } else {
                None
            };
            let started_at = d.opt_u64().map_err(bad)?;
            let streams = dec_streams(&mut d).map_err(bad)?;
            let attempt = d.u32().map_err(bad)?;
            let last_failure = d.opt_str().map_err(bad)?;
            let node_losses = d.u32().map_err(bad)?;
            let requeued_at = d.opt_u64().map_err(bad)?;
            let recovery_wait_ticks = d.u64().map_err(bad)?;
            self.jobs.insert(
                id,
                JobRecord {
                    id,
                    spec,
                    state,
                    submitted_at,
                    allocation,
                    started_at,
                    streams,
                    attempt,
                    last_failure,
                    node_losses,
                    requeued_at,
                    recovery_wait_ticks,
                },
            );
        }
        self.by_owner = BTreeMap::new();
        for job in self.jobs.values() {
            self.by_owner
                .entry(job.spec.user.clone())
                .or_default()
                .push(job.id);
        }
        let n_users = d.u32().map_err(bad)?;
        self.accounting = Accounting::new();
        for _ in 0..n_users {
            let name = d.str().map_err(bad)?;
            let usage = UserUsage {
                jobs_completed: d.u64().map_err(bad)?,
                core_ticks: d.u64().map_err(bad)?,
                wait_ticks: d.u64().map_err(bad)?,
                retry_attempts: d.u64().map_err(bad)?,
                node_losses: d.u64().map_err(bad)?,
                recovery_wait_ticks: d.u64().map_err(bad)?,
            };
            self.accounting.set_usage(&name, usage);
        }
        let n_nodes = d.u32().map_err(bad)?;
        for _ in 0..n_nodes {
            let node = dec_node(&mut d).map_err(bad)?;
            let health = dec_health(&mut d).map_err(bad)?;
            // A snapshot from a differently shaped cluster may name nodes
            // that don't exist here; skip them rather than fail recovery.
            let _ = self.cluster.set_health(node, health);
        }
        d.finish().map_err(bad)?;
        // Re-mark the cores running jobs hold; the fresh cluster starts
        // with everything free.
        let allocs: Vec<_> = self
            .jobs
            .values()
            .filter_map(|j| j.allocation.clone())
            .collect();
        for a in allocs {
            self.cluster.occupy(&a);
        }
        self.publish_gauges();
        Ok(())
    }

    /// Mean queue wait of completed jobs, in ticks.
    pub fn mean_wait(&self) -> f64 {
        let waits: Vec<u64> = self
            .jobs
            .values()
            .filter(|j| j.state.is_terminal())
            .map(|j| j.wait_ticks(self.now))
            .collect();
        if waits.is_empty() {
            return 0.0;
        }
        waits.iter().sum::<u64>() as f64 / waits.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ClusterSpec;

    fn sched(policy: SchedPolicyKind) -> Scheduler {
        // 2 segments x 2 quad-core nodes = 16 cores.
        Scheduler::new(Cluster::new(ClusterSpec::small(2, 2)), policy)
    }

    #[test]
    fn submit_dispatch_complete() {
        let mut s = sched(SchedPolicyKind::Fifo);
        let id = s.submit(JobSpec::sequential("alice", "a.out", 3)).unwrap();
        assert_eq!(s.pending(), &[id]);
        let started = s.tick();
        assert_eq!(started, vec![id]);
        assert!(s.job(id).unwrap().state.is_running());
        assert_eq!(s.cluster().free_cores(), 15);
        s.run_ticks(3);
        assert!(matches!(
            s.job(id).unwrap().state,
            JobState::Completed { .. }
        ));
        assert_eq!(s.cluster().free_cores(), 16);
    }

    #[test]
    fn impossible_job_rejected_at_submit() {
        let mut s = sched(SchedPolicyKind::Fifo);
        let err = s
            .submit(JobSpec::parallel("bob", "x", 1000, 1))
            .unwrap_err();
        assert!(matches!(
            err,
            SchedError::Impossible {
                requested: 1000,
                capacity: 16
            }
        ));
    }

    #[test]
    fn fifo_head_blocks_queue() {
        let mut s = sched(SchedPolicyKind::Fifo);
        let _a = s.submit(JobSpec::parallel("u", "x", 16, 10)).unwrap();
        let b = s.submit(JobSpec::parallel("u", "y", 16, 5)).unwrap();
        let c = s.submit(JobSpec::sequential("u", "z", 1)).unwrap();
        s.tick();
        // a runs, b blocks, c must NOT start under FIFO.
        assert!(matches!(s.job(b).unwrap().state, JobState::Pending));
        assert!(matches!(s.job(c).unwrap().state, JobState::Pending));
        assert_eq!(s.running_count(), 1);
    }

    #[test]
    fn backfill_runs_short_job_in_gap() {
        let mut s = sched(SchedPolicyKind::Backfill);
        let a = s.submit(JobSpec::parallel("u", "a", 12, 100)).unwrap();
        let b = s.submit(JobSpec::parallel("u", "b", 16, 100)).unwrap();
        let c = s.submit(JobSpec::sequential("u", "c", 10)).unwrap();
        s.tick();
        assert!(s.job(a).unwrap().state.is_running());
        assert!(matches!(s.job(b).unwrap().state, JobState::Pending));
        // c (1 core, 10 ticks) finishes before a releases at ~101.
        assert!(
            s.job(c).unwrap().state.is_running(),
            "backfill should start c"
        );
    }

    #[test]
    fn cancel_pending_and_running() {
        let mut s = sched(SchedPolicyKind::Fifo);
        let a = s.submit(JobSpec::sequential("u", "a", 100)).unwrap();
        let b = s.submit(JobSpec::sequential("u", "b", 100)).unwrap();
        s.cancel(b).unwrap();
        s.tick();
        assert!(s.job(a).unwrap().state.is_running());
        s.cancel(a).unwrap();
        assert_eq!(s.cluster().free_cores(), 16);
        assert!(matches!(s.cancel(a), Err(SchedError::BadState { .. })));
    }

    #[test]
    fn interactive_jobs_never_autocomplete() {
        let mut s = sched(SchedPolicyKind::Fifo);
        let id = s.submit(JobSpec::interactive("u", "shell")).unwrap();
        s.run_ticks(1000);
        assert!(s.job(id).unwrap().state.is_running());
        s.cancel(id).unwrap();
    }

    #[test]
    fn stdin_reaches_job_record() {
        let mut s = sched(SchedPolicyKind::Fifo);
        let id = s.submit(JobSpec::interactive("u", "shell")).unwrap();
        s.tick();
        s.job_mut(id).unwrap().streams.push_stdin("42");
        assert_eq!(
            s.job_mut(id).unwrap().streams.pop_stdin().as_deref(),
            Some("42")
        );
    }

    #[test]
    fn node_failure_without_retry_is_node_lost() {
        let mut s = sched(SchedPolicyKind::Fifo);
        let id = s
            .submit(JobSpec::parallel("u", "x", 16, 1000).with_retry(RetryPolicy::none()))
            .unwrap();
        s.tick();
        assert!(s.job(id).unwrap().state.is_running());
        let victim = s.cluster().slave_ids()[0];
        s.cluster_mut()
            .set_health(victim, NodeHealth::Down)
            .unwrap();
        s.tick();
        let job = s.job(id).unwrap();
        assert!(
            matches!(job.state, JobState::NodeLost { attempts: 1, .. }),
            "{:?}",
            job.state
        );
        assert_eq!(job.last_failure.as_deref(), Some("node went down"));
        assert_eq!(job.node_losses, 1);
        // Cores on surviving nodes were released.
        assert_eq!(s.cluster().free_cores(), 12);
        assert_eq!(s.accounting().usage("u").unwrap().node_losses, 1);
    }

    #[test]
    fn node_failure_with_retry_requeues_and_completes() {
        let mut s = sched(SchedPolicyKind::Fifo)
            .with_retry(RetryPolicy::fixed(3, 2))
            .with_retry_seed(7);
        let id = s.submit(JobSpec::sequential("u", "x", 5)).unwrap();
        s.tick(); // dispatched on first node (packing order)
        let victim = s.cluster().slave_ids()[0];
        s.cluster_mut()
            .set_health(victim, NodeHealth::Down)
            .unwrap();
        s.tick();
        let JobState::Requeued {
            attempt: 2,
            retry_at,
        } = s.job(id).unwrap().state
        else {
            panic!("expected requeue, got {:?}", s.job(id).unwrap().state)
        };
        assert_eq!(retry_at, s.now() + 2, "fixed backoff of 2 ticks");
        // Backoff passes; job restarts on a surviving node and completes.
        let done_at = s.drain(100).expect("should recover and drain");
        let job = s.job(id).unwrap();
        assert!(matches!(job.state, JobState::Completed { .. }));
        assert_eq!(job.attempt, 2);
        assert!(job.recovery_wait_ticks >= 2, "{}", job.recovery_wait_ticks);
        assert!(done_at >= 8);
        let usage = s.accounting().usage("u").unwrap();
        assert_eq!(usage.retry_attempts, 1);
        assert_eq!(usage.node_losses, 1);
        assert!(usage.recovery_wait_ticks >= 2);
        // First-attempt wait is submission→first dispatch (one tick); the
        // outage shows up as recovery wait, not here.
        assert_eq!(usage.wait_ticks, 1);
    }

    #[test]
    fn retries_exhaust_into_node_lost() {
        // One single node: every retry lands back on it, and the fault plan
        // kills it every time.
        let mut s = Scheduler::new(
            Cluster::new(ClusterSpec::small(1, 1)),
            SchedPolicyKind::Fifo,
        )
        .with_retry(RetryPolicy::fixed(3, 1));
        let node = s.cluster().slave_ids()[0];
        let id = s.submit(JobSpec::sequential("u", "x", 50)).unwrap();
        for _ in 0..200 {
            s.tick();
            if s.job(id).unwrap().state.is_running() {
                s.cluster_mut().set_health(node, NodeHealth::Down).unwrap();
                s.tick(); // observe the loss
                s.cluster_mut().set_health(node, NodeHealth::Up).unwrap();
            }
            if s.job(id).unwrap().state.is_terminal() {
                break;
            }
        }
        let job = s.job(id).unwrap();
        assert!(
            matches!(job.state, JobState::NodeLost { attempts: 3, .. }),
            "{:?}",
            job.state
        );
        assert_eq!(job.node_losses, 3);
        assert_eq!(s.cluster().free_cores(), 4, "no leaked cores");
    }

    #[test]
    fn cancel_requeued_job() {
        let mut s = sched(SchedPolicyKind::Fifo).with_retry(RetryPolicy::fixed(3, 50));
        let id = s.submit(JobSpec::sequential("u", "x", 100)).unwrap();
        s.tick();
        let victim = s.cluster().slave_ids()[0];
        s.cluster_mut()
            .set_health(victim, NodeHealth::Down)
            .unwrap();
        s.tick();
        assert!(s.job(id).unwrap().state.is_requeued());
        // Cancel while parked in backoff.
        s.cancel(id).unwrap();
        assert!(matches!(
            s.job(id).unwrap().state,
            JobState::Cancelled { .. }
        ));
        // The backoff expiring later must not resurrect the job.
        s.run_ticks(60);
        assert!(matches!(
            s.job(id).unwrap().state,
            JobState::Cancelled { .. }
        ));
        assert!(!s.pending().contains(&id));
    }

    #[test]
    fn cancel_during_backoff_requeue_window() {
        // Backoff of 0: the job re-enters Pending on the very next tick;
        // cancelling in that window goes through the Pending arm.
        let mut s = sched(SchedPolicyKind::Fifo).with_retry(RetryPolicy::fixed(5, 0));
        let id = s.submit(JobSpec::parallel("u", "x", 16, 100)).unwrap();
        s.tick();
        let victim = s.cluster().slave_ids()[0];
        s.cluster_mut()
            .set_health(victim, NodeHealth::Down)
            .unwrap();
        s.tick();
        // 16 cores can't fit on a 12-core degraded cluster: job sits Pending.
        assert!(matches!(s.job(id).unwrap().state, JobState::Pending));
        assert!(s.pending().contains(&id));
        s.cancel(id).unwrap();
        assert!(!s.pending().contains(&id));
        s.cluster_mut().set_health(victim, NodeHealth::Up).unwrap();
        s.run_ticks(20);
        assert!(matches!(
            s.job(id).unwrap().state,
            JobState::Cancelled { .. }
        ));
    }

    #[test]
    fn drain_returns_none_when_retries_outlive_horizon() {
        let mut s = sched(SchedPolicyKind::Fifo).with_retry(RetryPolicy::fixed(2, 1000));
        let id = s.submit(JobSpec::sequential("u", "x", 10)).unwrap();
        s.tick();
        let victim = s.cluster().slave_ids()[0];
        s.cluster_mut()
            .set_health(victim, NodeHealth::Down)
            .unwrap();
        s.tick();
        assert!(s.job(id).unwrap().state.is_requeued());
        // The retry becomes eligible at ~tick 1002; a 50-tick horizon can't
        // reach it, and a parked job is not terminal.
        assert_eq!(s.drain(50), None);
        assert!(s.job(id).unwrap().state.is_requeued());
    }

    #[test]
    fn timeout_fires_while_queued_and_while_running() {
        let mut s = sched(SchedPolicyKind::Fifo);
        // Hog leaves 1 free core; the 4-core job behind it can never start
        // and times out in the queue. That unblocks the FIFO head for the
        // sequential job, which then times out mid-run (budget 20 < run 100).
        let hog = s.submit(JobSpec::parallel("u", "hog", 15, 200)).unwrap();
        let starved = s
            .submit(JobSpec::parallel("u", "s", 4, 1).with_timeout(10))
            .unwrap();
        let slow = s
            .submit(JobSpec::sequential("u", "slow", 100).with_timeout(20))
            .unwrap();
        s.run_ticks(50);
        assert!(s.job(hog).unwrap().state.is_running());
        assert!(matches!(
            s.job(starved).unwrap().state,
            JobState::TimedOut { at: 10 }
        ));
        assert!(s.job(starved).unwrap().started_at.is_none(), "never ran");
        let job = s.job(slow).unwrap();
        assert!(
            matches!(job.state, JobState::TimedOut { at: 20 }),
            "{:?}",
            job.state
        );
        assert_eq!(
            job.started_at,
            Some(10),
            "dispatched once the 4-core job expired"
        );
        assert!(job.last_failure.as_deref().unwrap().contains("budget"));
        // The timed-out running job's core came back; only the hog remains.
        assert_eq!(s.cluster().free_cores(), 1);
        s.cancel(hog).unwrap();
        assert_eq!(s.cluster().free_cores(), 16);
    }

    #[test]
    fn timeout_caps_retry_loops() {
        // Retries allowed, but the wall-clock budget expires during backoff.
        let mut s = sched(SchedPolicyKind::Fifo).with_retry(RetryPolicy::fixed(10, 100));
        let id = s
            .submit(JobSpec::sequential("u", "x", 50).with_timeout(30))
            .unwrap();
        s.tick();
        let victim = s.cluster().slave_ids()[0];
        s.cluster_mut()
            .set_health(victim, NodeHealth::Down)
            .unwrap();
        s.tick();
        assert!(s.job(id).unwrap().state.is_requeued());
        s.run_ticks(40);
        assert!(matches!(
            s.job(id).unwrap().state,
            JobState::TimedOut { at: 30 }
        ));
    }

    #[test]
    fn drain_node_stops_placement_but_finishes_running() {
        let mut s = Scheduler::new(
            Cluster::new(ClusterSpec::small(1, 2)),
            SchedPolicyKind::Fifo,
        );
        let a = s.submit(JobSpec::parallel("u", "a", 4, 10)).unwrap();
        s.tick();
        let node_of_a = *s
            .job(a)
            .unwrap()
            .allocation
            .as_ref()
            .unwrap()
            .cores
            .keys()
            .next()
            .unwrap();
        s.drain_node(node_of_a).unwrap();
        // New work avoids the draining node...
        let b = s.submit(JobSpec::parallel("u", "b", 4, 10)).unwrap();
        s.tick();
        let node_of_b = *s
            .job(b)
            .unwrap()
            .allocation
            .as_ref()
            .unwrap()
            .cores
            .keys()
            .next()
            .unwrap();
        assert_ne!(node_of_a, node_of_b);
        // ...and the draining node's job still completes normally.
        s.run_ticks(15);
        assert!(matches!(
            s.job(a).unwrap().state,
            JobState::Completed { .. }
        ));
        // A 5+ core job cannot be placed while one node drains.
        let c = s.submit(JobSpec::parallel("u", "c", 8, 5)).unwrap();
        s.run_ticks(20);
        assert!(matches!(s.job(c).unwrap().state, JobState::Pending));
        // Undrain restores capacity and the job proceeds.
        s.undrain_node(node_of_a).unwrap();
        s.run_ticks(10);
        assert!(matches!(
            s.job(c).unwrap().state,
            JobState::Completed { .. }
        ));
    }

    #[test]
    fn drain_node_does_not_resurrect_down_nodes() {
        let mut s = sched(SchedPolicyKind::Fifo);
        let node = s.cluster().slave_ids()[0];
        s.cluster_mut().set_health(node, NodeHealth::Down).unwrap();
        s.drain_node(node).unwrap();
        assert_eq!(s.cluster().health(node).unwrap(), NodeHealth::Down);
        s.undrain_node(node).unwrap();
        assert_eq!(s.cluster().health(node).unwrap(), NodeHealth::Up);
    }

    #[test]
    fn fault_plan_drives_scheduler_ticks() {
        let s = sched(SchedPolicyKind::Fifo);
        let node = s.cluster().slave_ids()[0];
        let mut plan = FaultPlan::none();
        plan.push(3, node, NodeHealth::Down);
        plan.push(6, node, NodeHealth::Up);
        let mut s = s.with_fault_plan(plan);
        s.run_ticks(2);
        assert_eq!(s.cluster().health(node).unwrap(), NodeHealth::Up);
        s.tick();
        assert_eq!(s.cluster().health(node).unwrap(), NodeHealth::Down);
        s.run_ticks(3);
        assert_eq!(s.cluster().health(node).unwrap(), NodeHealth::Up);
    }

    #[test]
    fn degraded_mode_accepts_submissions_during_outage() {
        let mut s = sched(SchedPolicyKind::Fifo);
        // Kill a whole segment (2 of 4 nodes).
        let ids = s.cluster().slave_ids();
        s.cluster_mut()
            .set_health(ids[0], NodeHealth::Down)
            .unwrap();
        s.cluster_mut()
            .set_health(ids[1], NodeHealth::Down)
            .unwrap();
        // A 16-core job exceeds *current* capacity (8) but not spec capacity:
        // accepted, parked, and runs once the segment returns.
        let id = s.submit(JobSpec::parallel("u", "x", 16, 5)).unwrap();
        s.run_ticks(10);
        assert!(matches!(s.job(id).unwrap().state, JobState::Pending));
        s.cluster_mut().set_health(ids[0], NodeHealth::Up).unwrap();
        s.cluster_mut().set_health(ids[1], NodeHealth::Up).unwrap();
        s.drain(50).expect("drains after recovery");
        assert!(matches!(
            s.job(id).unwrap().state,
            JobState::Completed { .. }
        ));
    }

    #[test]
    fn drain_reports_completion_tick() {
        let mut s = sched(SchedPolicyKind::Fifo);
        for i in 0..8 {
            s.submit(JobSpec::parallel("u", "x", 4, 5 + i % 3)).unwrap();
        }
        let done_at = s.drain(1000).expect("should drain");
        assert!(done_at >= 5, "{done_at}");
        assert!(s.jobs().all(|j| j.state.is_terminal()));
    }

    #[test]
    fn accounting_accumulates_core_ticks() {
        let mut s = sched(SchedPolicyKind::Fifo);
        s.submit(JobSpec::parallel("alice", "x", 4, 10)).unwrap();
        s.submit(JobSpec::sequential("bob", "y", 10)).unwrap();
        s.drain(100).unwrap();
        let alice = s.accounting().usage("alice").unwrap();
        assert_eq!(alice.core_ticks, 40);
        let bob = s.accounting().usage("bob").unwrap();
        assert_eq!(bob.core_ticks, 10);
    }

    #[test]
    fn round_robin_spreads_segments() {
        let mut s = sched(SchedPolicyKind::RoundRobinSegments);
        let a = s.submit(JobSpec::parallel("u", "a", 4, 100)).unwrap();
        let b = s.submit(JobSpec::parallel("u", "b", 4, 100)).unwrap();
        s.tick();
        let seg_of = |s: &Scheduler, id| {
            s.job(id)
                .unwrap()
                .allocation
                .as_ref()
                .unwrap()
                .cores
                .keys()
                .next()
                .unwrap()
                .segment
        };
        assert_ne!(
            seg_of(&s, a),
            seg_of(&s, b),
            "jobs should land on different segments"
        );
    }

    #[test]
    fn obs_timeline_and_counters_follow_lifecycle() {
        let obs = Arc::new(Obs::new());
        let mut s = sched(SchedPolicyKind::Fifo)
            .with_obs(Arc::clone(&obs))
            .with_retry(RetryPolicy::fixed(3, 2))
            .with_retry_seed(7);
        let id = s.submit(JobSpec::sequential("u", "x", 5)).unwrap();
        s.tick();
        let victim = s.cluster().slave_ids()[0];
        s.cluster_mut()
            .set_health(victim, NodeHealth::Down)
            .unwrap();
        s.tick();
        s.cluster_mut().set_health(victim, NodeHealth::Up).unwrap();
        s.drain(100).expect("recovers and drains");

        let m = &obs.metrics;
        assert_eq!(m.counter("ccp_sched_jobs_submitted_total", &[]).get(), 1);
        assert_eq!(m.counter("ccp_sched_jobs_completed_total", &[]).get(), 1);
        assert_eq!(m.counter("ccp_sched_retries_total", &[]).get(), 1);
        assert_eq!(m.counter("ccp_sched_node_losses_total", &[]).get(), 1);
        assert_eq!(m.counter("ccp_sched_jobs_dispatched_total", &[]).get(), 2);
        assert_eq!(m.gauge("ccp_sched_queue_depth", &[]).get(), 0);
        assert_eq!(m.gauge("ccp_sched_jobs_running", &[]).get(), 0);
        assert_eq!(
            m.histogram("ccp_sched_job_run_ticks", &[], obs::TICK_BOUNDS)
                .count(),
            1
        );

        // The per-job timeline is ordered and ends in the terminal event.
        let timeline = obs.tracer.find_by_attr("job", &id.0.to_string());
        let names: Vec<&str> = timeline.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "job.submitted",
                "job.queued",
                "job.dispatched",
                "job.requeued",
                "job.queued",
                "job.dispatched",
                "job.completed"
            ]
        );
        assert!(timeline.windows(2).all(|w| w[0].start <= w[1].start));
        assert_eq!(timeline.last().unwrap().attr("run_ticks"), Some("5"));
    }

    #[test]
    fn mean_wait_computed() {
        let mut s = sched(SchedPolicyKind::Fifo);
        s.submit(JobSpec::parallel("u", "a", 16, 10)).unwrap();
        s.submit(JobSpec::parallel("u", "b", 16, 10)).unwrap();
        s.drain(100).unwrap();
        // First job waits ~0, second waits ~10.
        let mw = s.mean_wait();
        assert!(mw > 3.0 && mw < 8.0, "mean wait {mw}");
    }

    #[test]
    fn snapshot_roundtrip_is_byte_identical() {
        let mut s = sched(SchedPolicyKind::Backfill).with_retry_seed(5);
        s.submit(JobSpec::parallel("alice", "a", 8, 30)).unwrap();
        s.submit(JobSpec::sequential("bob", "b", 10)).unwrap();
        s.run_ticks(5);
        let snap = s.snapshot_bytes();
        let mut fresh = sched(SchedPolicyKind::Backfill).with_retry_seed(5);
        fresh.restore_snapshot(&snap).unwrap();
        assert_eq!(fresh.snapshot_bytes(), snap);
        assert_eq!(fresh.now(), s.now());
        assert_eq!(
            fresh.cluster().free_cores(),
            s.cluster().free_cores(),
            "busy cores re-occupied"
        );
    }

    #[test]
    fn corrupt_snapshot_bytes_rejected_not_panic() {
        let mut s = sched(SchedPolicyKind::Fifo);
        assert!(matches!(s.restore_snapshot(&[]), Err(SchedError::Wal(_))));
        let mut snap = s.snapshot_bytes();
        snap.truncate(snap.len() / 2);
        assert!(matches!(s.restore_snapshot(&snap), Err(SchedError::Wal(_))));
    }

    /// Attach a fresh in-memory journal to `s`.
    fn journaled(s: &mut Scheduler) -> wal::MemStorage {
        use std::sync::Mutex;
        use wal::{FsyncPolicy, Journal, MemStorage, Stream};
        let storage = MemStorage::new();
        let (j, _) = Journal::open(Box::new(storage.clone()), FsyncPolicy::Always, 0).unwrap();
        s.attach_wal(Stream::new(Arc::new(Mutex::new(j)), 0));
        storage
    }

    /// Replay every record the journal over `storage` recovered into `s`.
    fn replay_into(s: &mut Scheduler, storage: wal::MemStorage) {
        use wal::{FsyncPolicy, Journal};
        let (_, rec) = Journal::open(Box::new(storage), FsyncPolicy::Always, 0).unwrap();
        for (_, _, payload) in &rec.records {
            s.replay(payload).unwrap();
        }
    }

    #[test]
    fn journaled_commands_replay_to_identical_state() {
        let mut s = sched(SchedPolicyKind::Fifo)
            .with_retry(RetryPolicy::fixed(3, 2))
            .with_retry_seed(7);
        let storage = journaled(&mut s);
        let a = s.submit(JobSpec::sequential("alice", "x", 5)).unwrap();
        let b = s.submit(JobSpec::interactive("bob", "shell")).unwrap();
        s.run_ticks(3);
        s.push_stdin(b, "21").unwrap();
        s.set_outcome(b, Some("21 doubled is 42\n"), None, None)
            .unwrap();
        let node = s.cluster().slave_ids()[3];
        s.drain_node(node).unwrap();
        s.run_ticks(4);
        s.cancel(b).unwrap();
        s.run_ticks(2);
        assert!(matches!(
            s.job(a).unwrap().state,
            JobState::Completed { .. }
        ));
        let want = s.snapshot_bytes();
        drop(s); // "crash"

        let mut fresh = sched(SchedPolicyKind::Fifo)
            .with_retry(RetryPolicy::fixed(3, 2))
            .with_retry_seed(7);
        replay_into(&mut fresh, storage);
        assert_eq!(fresh.snapshot_bytes(), want);
        assert_eq!(
            fresh.job(b).unwrap().streams.stdout,
            "21 doubled is 42\n",
            "engine output survived via SetOutcome records"
        );
    }

    #[test]
    fn recovered_backoff_jitter_matches_uncrashed_run() {
        // Reference run, never crashed: node loss at a known tick, jitter
        // drawn from the seeded RNG.
        let jittery = RetryPolicy {
            max_attempts: 5,
            base_backoff: 2,
            max_backoff: 32,
            jitter: 3,
        };
        let script = |s: &mut Scheduler| {
            s.submit(JobSpec::sequential("u", "x", 50)).unwrap();
            s.run_ticks(2);
            let victim = s.cluster().slave_ids()[0];
            s.cluster_mut()
                .set_health(victim, NodeHealth::Down)
                .unwrap();
            s.run_ticks(1);
        };
        let mut reference = sched(SchedPolicyKind::Fifo)
            .with_retry(jittery)
            .with_retry_seed(99);
        script(&mut reference);

        // Journaled run: crash after the same prefix, recover, then inject
        // the same loss. The recovered RNG must draw the same jitter.
        // (Direct cluster_mut health flips aren't commands, so the fault is
        // injected after recovery in both runs via ticks only.)
        let mut s = sched(SchedPolicyKind::Fifo)
            .with_retry(jittery)
            .with_retry_seed(99);
        let storage = journaled(&mut s);
        s.submit(JobSpec::sequential("u", "x", 50)).unwrap();
        s.run_ticks(2);
        drop(s); // crash before the outage

        let mut recovered = sched(SchedPolicyKind::Fifo)
            .with_retry(jittery)
            .with_retry_seed(99);
        replay_into(&mut recovered, storage);
        let victim = recovered.cluster().slave_ids()[0];
        recovered
            .cluster_mut()
            .set_health(victim, NodeHealth::Down)
            .unwrap();
        recovered.run_ticks(1);

        let state_of = |s: &Scheduler| s.job(JobId(1)).unwrap().state.clone();
        assert_eq!(
            state_of(&reference),
            state_of(&recovered),
            "same retry_at => same jitter draw after recovery"
        );
    }
}
