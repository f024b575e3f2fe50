//! Write facade: mutations. These run under the portal's exclusive write
//! lock. Crucially [`Portal::tick`] — the scheduler's logical clock and
//! everything it drives (dispatch, VM execution of batch jobs, metric
//! sampling, SLO evaluation) — stays single-writer, which is what keeps
//! the tick-domain determinism suites byte-identical: there is exactly
//! one mutation order per seed, regardless of how many front-end threads
//! or reactor workers are serving requests.
//!
//! The file-manager mutations take `&self` (the vfs carries its own
//! lock), but the web layer still routes them through the write guard so
//! a rename cannot interleave with a tick that executes against the same
//! home directory.

use super::Portal;
use crate::error::PortalError;
use auth::{Role, Token};
use cluster::SlaveId;
use obs::TraceContext;
use sched::{JobId, JobSpec, JobState};
use std::sync::{Arc, PoisonError};
use toolchain::ArtifactId;

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
    /// instructions executed) replaces the estimate.
    pub fn tick(&mut self) -> Vec<JobId> {
        let t0 = std::time::Instant::now();
        let dispatched = self.scheduler.tick();
        let now_tick = self.scheduler.now();
        for &id in &dispatched {
            let (artifact, user, stdin): (String, String, Vec<String>) = {
                let job = self.scheduler.job(id).expect("just dispatched");
                (
                    job.spec.executable.clone(),
                    job.spec.user.clone(),
                    job.streams.stdin.iter().cloned().collect(),
                )
            };
            let aid = ArtifactId::from_string(artifact);
            let report = toolchain::exec::run(
                &self.artifacts,
                &aid,
                self.config.seed ^ id.0,
                Arc::clone(&self.fs),
                &user,
                &stdin,
                &self.obs,
            );
            let ipt = self.config.instructions_per_tick.max(1);
            // Route the outcome through the scheduler so it lands in the
            // journal: VM output is not re-derivable at recovery time.
            let (stdout, stderr, ticks) = match &report {
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
            if self.config.auto_analyze {
                self.auto_analyze(id, &aid, now_tick);
            }
        }
        super::durable::compact_if_due(self.journal.as_deref(), &self.vfs(), &self.scheduler);
        self.obs
            .profiler
            .observe("sched.tick", t0.elapsed().as_micros() as u64, || {
                format!("tick {now_tick}: {} dispatched", dispatched.len())
            });
        self.sample_metrics(now_tick);
        dispatched
    }

    /// Run the systematic checker over an executed job's program and
    /// record the verdict as a `checker.analyze` child in its trace —
    /// the checker layer of the job's causal tree. The pool's reports
    /// are bit-identical across worker counts, so the span is too.
    fn auto_analyze(&mut self, id: JobId, aid: &ArtifactId, now_tick: u64) {
        let Some(program) = self.artifacts.get(aid).map(|a| a.program.clone()) else {
            return;
        };
        let report = self.pool.check(&program, &checker::CheckConfig::default());
        if let Some(ctx) = self.scheduler.job_trace(id) {
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

    /// Capture the registry into the time-series store and evaluate the
    /// SLOs, once per tick. Gauges are republished first so captures never
    /// window over stale depth.
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
