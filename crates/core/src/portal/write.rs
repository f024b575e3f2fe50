//! Write facade: mutations. These run under the portal's exclusive write
//! lock. Every state change of [`Portal::tick`] — the scheduler's logical
//! clock, dispatch, landing each job's outcome, metric sampling, SLO
//! evaluation — stays single-writer, which is what keeps the tick-domain
//! determinism suites byte-identical: there is exactly one mutation order
//! per seed, regardless of how many front-end threads or reactor workers
//! are serving requests. The VM execution between dispatch and outcome is
//! split out ([`Portal::tick_begin`] → [`TickPhase::run`] →
//! [`Portal::tick_commit`]) so that it holds no portal lock.
//!
//! The file-manager mutations take `&self` (the vfs carries its own
//! lock); the web layer still routes them through the write guard. A
//! running job, like an interactive run, reaches the vfs with no portal
//! lock, one host-I/O call at a time under the vfs lock, so a save may
//! land between two of a running program's file calls, as it could on a
//! cluster's shared filesystem.

use super::Portal;
use crate::error::PortalError;
use auth::{Role, Token};
use cluster::SlaveId;
use obs::{Obs, TraceContext};
use sched::{JobId, JobSpec, JobState};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use toolchain::{Artifact, ArtifactId, ExecReport, ExecutorError};
use vfs::Vfs;

impl Portal {
    // ---- admin -------------------------------------------------------------

    /// Admin: drain a node — no new placements, running jobs finish.
    pub fn drain_node(
        &mut self,
        admin: &Token,
        segment: usize,
        slot: usize,
        now: u64,
    ) -> Result<(), PortalError> {
        let (_, role) = self.whoami(admin, now)?;
        if !role.at_least(Role::Admin) {
            return Err(PortalError::Forbidden("draining a node requires admin"));
        }
        Ok(self.scheduler.drain_node(SlaveId { segment, slot })?)
    }

    /// Admin: return a drained or recovered node to service.
    pub fn undrain_node(
        &mut self,
        admin: &Token,
        segment: usize,
        slot: usize,
        now: u64,
    ) -> Result<(), PortalError> {
        let (_, role) = self.whoami(admin, now)?;
        if !role.at_least(Role::Admin) {
            return Err(PortalError::Forbidden("undraining a node requires admin"));
        }
        Ok(self.scheduler.undrain_node(SlaveId { segment, slot })?)
    }

    // ---- file manager ------------------------------------------------------

    /// Write (upload / save) a file.
    pub fn write_file(
        &self,
        token: &Token,
        path: &str,
        data: Vec<u8>,
        now: u64,
    ) -> Result<(), PortalError> {
        let (user, role) = self.whoami(token, now)?;
        let full = self.resolve(&user, role, path)?;
        self.vfs_op(|fs| fs.write(&user, &full, data))
    }

    /// Create a directory (and parents).
    pub fn mkdir(&self, token: &Token, path: &str, now: u64) -> Result<(), PortalError> {
        let (user, role) = self.whoami(token, now)?;
        let full = self.resolve(&user, role, path)?;
        self.vfs_op(|fs| fs.mkdir_p(&user, &full))
    }

    /// Delete a file or directory subtree.
    pub fn remove(&self, token: &Token, path: &str, now: u64) -> Result<(), PortalError> {
        let (user, role) = self.whoami(token, now)?;
        let full = self.resolve(&user, role, path)?;
        self.vfs_op(|fs| fs.remove_recursive(&user, &full))
    }

    /// Rename / move.
    pub fn rename(&self, token: &Token, from: &str, to: &str, now: u64) -> Result<(), PortalError> {
        let (user, role) = self.whoami(token, now)?;
        let f = self.resolve(&user, role, from)?;
        let t = self.resolve(&user, role, to)?;
        self.vfs_op(|fs| fs.rename(&user, &f, &t))
    }

    /// Copy a file or subtree.
    pub fn copy(&self, token: &Token, from: &str, to: &str, now: u64) -> Result<(), PortalError> {
        let (user, role) = self.whoami(token, now)?;
        let f = self.resolve(&user, role, from)?;
        let t = self.resolve(&user, role, to)?;
        self.vfs_op(|fs| fs.copy(&user, &f, &t))
    }

    // ---- the job distributor -----------------------------------------------

    /// Submit an artifact as a batch job on `cores` cores. Returns the job
    /// id immediately; execution happens when the distributor dispatches it.
    pub fn submit_job(
        &mut self,
        token: &Token,
        artifact: &str,
        cores: u32,
        estimated_ticks: u64,
        now: u64,
    ) -> Result<JobId, PortalError> {
        self.submit_job_inner(token, artifact, cores, estimated_ticks, now, false)
    }

    /// [`Portal::submit_job`] with causal tracing: mints an `http.request`
    /// root span at the current scheduler tick and threads its
    /// [`TraceContext`] through the scheduler, so every later lifecycle
    /// event — dispatch, cluster allocation, execution, analysis, WAL
    /// appends — hangs under one tree served by `/api/trace/:job_id`.
    pub fn submit_job_traced(
        &mut self,
        token: &Token,
        artifact: &str,
        cores: u32,
        estimated_ticks: u64,
        now: u64,
    ) -> Result<JobId, PortalError> {
        self.submit_job_inner(token, artifact, cores, estimated_ticks, now, true)
    }

    fn submit_job_inner(
        &mut self,
        token: &Token,
        artifact: &str,
        cores: u32,
        estimated_ticks: u64,
        now: u64,
        traced: bool,
    ) -> Result<JobId, PortalError> {
        let (user, role) = self.whoami(token, now)?;
        let aid = self.artifact_for(&user, role, artifact)?;
        let spec = if cores <= 1 {
            JobSpec::sequential(&user, aid.as_str(), estimated_ticks.max(1))
        } else {
            JobSpec::parallel(&user, aid.as_str(), cores, estimated_ticks.max(1))
        };
        let spec = spec.with_estimate(estimated_ticks.max(1));
        if !traced {
            return Ok(self.scheduler.submit(spec)?);
        }
        let tick = self.scheduler.now();
        let span = self.obs.tracer.begin("http.request", tick);
        self.obs.tracer.set_attr(span, "route", "/api/jobs");
        let res = self
            .scheduler
            .submit_traced(spec, Some(TraceContext::new(span)));
        // The root closes immediately (admission is synchronous); the
        // job's asynchronous life keeps attaching children under it.
        self.obs.tracer.end(span, tick);
        match res {
            Ok(id) => {
                self.obs.tracer.set_attr(span, "job", &id.0.to_string());
                Ok(id)
            }
            Err(e) => {
                self.obs.tracer.set_attr(span, "error", &e.to_string());
                Err(e.into())
            }
        }
    }

    /// Advance the distributor one tick. Newly dispatched jobs execute on
    /// the VM now: their streams fill and their true runtime (derived from
    /// instructions executed) replaces the estimate. One call, all three
    /// phases: [`Portal::tick_begin`], [`TickPhase::run`],
    /// [`Portal::tick_commit`].
    pub fn tick(&mut self) -> Vec<JobId> {
        let done = self.tick_begin().run();
        self.tick_commit(done)
    }

    /// Phase 1 of a tick (write guard): advance the distributor, then
    /// capture what each job it dispatched needs to execute: artifact,
    /// user, stdin and seed. The clock moves here, so it only ever moves
    /// under exclusive access. The caller must not begin another tick
    /// before this one's commit (the web layer holds a tick gate across
    /// all three phases), or the second tick could complete a job whose
    /// outcome has not landed.
    pub fn tick_begin(&mut self) -> TickPhase {
        let started = Instant::now();
        let dispatched = self.scheduler.tick();
        let jobs = dispatched
            .into_iter()
            .map(|id| {
                let job = self.scheduler.job(id).expect("just dispatched");
                let aid = ArtifactId::from_string(job.spec.executable.clone());
                DispatchedJob {
                    id,
                    artifact: self.artifacts.get(&aid).cloned(),
                    aid,
                    user: job.spec.user.clone(),
                    stdin: job.streams.stdin.iter().cloned().collect(),
                    seed: self.config.seed ^ id.0,
                }
            })
            .collect();
        TickPhase {
            started,
            now_tick: self.scheduler.now(),
            jobs,
            fs: Arc::clone(&self.fs),
            obs: Arc::clone(&self.obs),
            analyze: self.config.auto_analyze.then(|| Arc::clone(&self.pool)),
        }
    }

    /// Phase 3 of a tick (write guard): land each job's outcome through
    /// the journaled scheduler, in dispatch order, then compact the
    /// journal if due and sample the dashboard families. A job that left
    /// `Running` between begin and commit (cancelled in the gap) keeps its
    /// state, and its outcome is dropped. Returns the ids dispatched.
    pub fn tick_commit(&mut self, done: TickDone) -> Vec<JobId> {
        let TickDone {
            started,
            now_tick,
            outcomes,
        } = done;
        let ipt = self.config.instructions_per_tick.max(1);
        for outcome in &outcomes {
            let id = outcome.id;
            let still_running = matches!(
                self.scheduler.job(id).map(|j| &j.state),
                Ok(JobState::Running { started_at }) if *started_at == now_tick
            );
            if !still_running {
                continue;
            }
            // Route the outcome through the scheduler so it lands in the
            // journal: VM output is not re-derivable at recovery time.
            let (stdout, stderr, ticks) = match &outcome.report {
                Ok(r) => (
                    r.outcome.as_ref().map(|o| o.stdout.clone()),
                    r.error.as_ref().map(|e| e.to_string()),
                    match (&r.error, &r.outcome) {
                        (Some(_), _) => Some(1),
                        (None, Some(o)) => Some(o.executed / ipt + 1),
                        (None, None) => None,
                    },
                ),
                Err(e) => (None, Some(e.to_string()), Some(1)),
            };
            // Hang the execution under the job's trace before the outcome
            // lands, so the tree reads exec.run → wal.append in causal
            // order. Attrs are tick-domain only — worker counts and wall
            // clock never leak into the deterministic tree.
            if let Some(ctx) = self.scheduler.job_trace(id) {
                let job_attr = id.0.to_string();
                let ticks_attr = ticks.map(|t| t.to_string());
                let mut attrs: Vec<(&str, &str)> = vec![("job", &job_attr)];
                if let Some(t) = &ticks_attr {
                    attrs.push(("ticks", t));
                }
                self.obs
                    .tracer
                    .event_child(ctx.parent, "exec.run", now_tick, &attrs);
            }
            if stdout.is_some() || stderr.is_some() || ticks.is_some() {
                let _ = self
                    .scheduler
                    .set_outcome(id, stdout.as_deref(), stderr.as_deref(), ticks);
            }
            // The checker's verdict joins the job's causal tree. The pool's
            // reports are bit-identical across worker counts, so the span
            // is too.
            if let (Some(report), Some(ctx)) = (&outcome.analysis, self.scheduler.job_trace(id)) {
                self.obs.tracer.event_child(
                    ctx.parent,
                    "checker.analyze",
                    now_tick,
                    &[
                        ("job", &id.0.to_string()),
                        ("verdict", report.verdict.class()),
                        ("schedules", &report.schedules.to_string()),
                    ],
                );
            }
        }
        super::durable::compact_if_due(self.journal.as_deref(), &self.vfs(), &self.scheduler);
        self.obs
            .profiler
            .observe("sched.tick", started.elapsed().as_micros() as u64, || {
                format!("tick {now_tick}: {} dispatched", outcomes.len())
            });
        self.sample_metrics(now_tick);
        outcomes.into_iter().map(|o| o.id).collect()
    }

    /// Capture the dashboard families into the time-series store and
    /// evaluate the SLOs, once per tick. Gauges are republished first so
    /// captures never window over stale depth.
    fn sample_metrics(&mut self, now_tick: u64) {
        self.scheduler.publish_gauges();
        let t0 = std::time::Instant::now();
        if self.store.record(now_tick, &self.obs.metrics) {
            self.obs
                .profiler
                .observe("registry.sample", t0.elapsed().as_micros() as u64, || {
                    format!("capture at tick {now_tick}")
                });
            self.slo.evaluate(now_tick, &self.store, &self.obs.events);
        }
    }

    /// Run the distributor until all jobs are terminal (bounded).
    pub fn drain_jobs(&mut self, max_ticks: u64) -> bool {
        for _ in 0..max_ticks {
            self.tick();
            if self.scheduler.jobs().all(|j| j.state.is_terminal()) {
                return true;
            }
        }
        false
    }

    /// Queue a stdin line for a pending job (consumed when it dispatches).
    pub fn send_stdin(
        &mut self,
        token: &Token,
        id: JobId,
        line: &str,
        now: u64,
    ) -> Result<(), PortalError> {
        let (user, role) = self.whoami(token, now)?;
        let j = self.scheduler.job(id)?;
        if j.spec.user != user && !role.at_least(Role::Admin) {
            return Err(PortalError::Forbidden("job belongs to another user"));
        }
        // Through the scheduler (not job_mut) so the line is journaled.
        Ok(self.scheduler.push_stdin(id, line)?)
    }

    /// Cancel a job (owner or admin). Jobs already gone to a fault get the
    /// typed error for it, so the UI can explain *why* there is nothing to
    /// cancel rather than a generic bad-state message.
    pub fn cancel_job(&mut self, token: &Token, id: JobId, now: u64) -> Result<(), PortalError> {
        let (user, role) = self.whoami(token, now)?;
        {
            let j = self.scheduler.job(id)?;
            if j.spec.user != user && !role.at_least(Role::Admin) {
                return Err(PortalError::Forbidden("job belongs to another user"));
            }
            match j.state {
                JobState::NodeLost { attempts, .. } => {
                    return Err(PortalError::JobLost { job: id, attempts })
                }
                JobState::TimedOut { .. } => return Err(PortalError::JobTimedOut { job: id }),
                _ => {}
            }
        }
        Ok(self.scheduler.cancel(id)?)
    }

    /// Force the journal to disk (shutdown hook; group commit otherwise
    /// decides when fsyncs happen). A failure is reported as
    /// [`vfs::VfsError::Wal`].
    pub fn flush_wal(&mut self) -> Result<(), PortalError> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let mut journal = journal.lock().unwrap_or_else(PoisonError::into_inner);
        journal
            .flush()
            .map_err(|e| vfs::VfsError::Wal(e.to_string()).into())
    }
}

/// One job a tick dispatched, with everything its execution needs.
struct DispatchedJob {
    id: JobId,
    aid: ArtifactId,
    /// `None` when the artifact is gone from the store.
    artifact: Option<Artifact>,
    user: String,
    stdin: Vec<String>,
    seed: u64,
}

/// A tick whose dispatch happened, with its jobs ready to execute without
/// the portal lock.
pub struct TickPhase {
    started: Instant,
    now_tick: u64,
    jobs: Vec<DispatchedJob>,
    fs: Arc<Mutex<Vfs>>,
    obs: Arc<Obs>,
    /// The checker pool, when `auto_analyze` is on.
    analyze: Option<Arc<checker::Pool>>,
}

impl TickPhase {
    /// Phase 2: execute each dispatched job on the VM, in dispatch order,
    /// and analyze its program when `auto_analyze` is on. No portal lock
    /// is held: the vfs is locked per host-I/O call, and polls, saves and
    /// other sessions' requests run meanwhile.
    pub fn run(self) -> TickDone {
        let outcomes = self
            .jobs
            .into_iter()
            .map(|job| {
                let report = match &job.artifact {
                    Some(art) => Ok(toolchain::exec::run_artifact(
                        art,
                        job.seed,
                        Arc::clone(&self.fs),
                        &job.user,
                        &job.stdin,
                        &self.obs,
                    )),
                    None => Err(toolchain::exec::missing_artifact(&job.aid, &self.obs)),
                };
                let analysis = match (&self.analyze, &job.artifact) {
                    (Some(pool), Some(art)) => {
                        Some(pool.check(&art.program, &checker::CheckConfig::default()))
                    }
                    _ => None,
                };
                JobOutcome {
                    id: job.id,
                    report,
                    analysis,
                }
            })
            .collect();
        TickDone {
            started: self.started,
            now_tick: self.now_tick,
            outcomes,
        }
    }
}

/// What one dispatched job's execution produced.
struct JobOutcome {
    id: JobId,
    report: Result<ExecReport, ExecutorError>,
    analysis: Option<checker::CheckReport>,
}

/// A tick whose jobs ran, awaiting [`Portal::tick_commit`].
pub struct TickDone {
    started: Instant,
    now_tick: u64,
    outcomes: Vec<JobOutcome>,
}
