//! Heavy facade: compile, interactive execution, and checker analysis —
//! the three operations whose CPU time dwarfs their bookkeeping.
//!
//! Each is split into begin → run → commit/finish:
//!
//! 1. **begin** (`&self`, brief portal lock): validate the token into a
//!    [`SessionStamp`] and snapshot every input the work needs — the
//!    compile request, a clone of the artifact, the check config, plus
//!    `Arc` handles to the internally-synchronized substrates (vfs,
//!    compile cache, checker pool, telemetry).
//! 2. **run** (consumes the phase object, **no portal lock**): the
//!    expensive middle — source fetch + compile, whole VM execution, or
//!    interleaving exploration on the shared pool.
//! 3. **commit / finish** (brief portal relock): re-validate the stamp
//!    with [`Portal::check_stamp`] and only then apply the result. A
//!    session revoked mid-flight fails the generation check, so its
//!    artifacts and reports are dropped, never applied.
//!
//! The single-call methods ([`Portal::compile`],
//! [`Portal::run_interactive`]) are recomposed from the same three
//! phases, so library callers and the web layer exercise identical code
//! paths.

use super::session::SessionStamp;
use super::Portal;
use crate::error::PortalError;
use crate::view::AnalysisView;
use auth::{Role, Token};
use obs::Obs;
use std::sync::{Arc, Mutex, PoisonError};
use toolchain::{
    Artifact, ArtifactId, CompileCache, CompileReport, CompileRequest, ExecReport, PreparedCompile,
};
use vfs::Vfs;

impl Portal {
    pub(super) fn artifact_for(
        &self,
        user: &str,
        role: Role,
        id: &str,
    ) -> Result<ArtifactId, PortalError> {
        let aid = ArtifactId::from_string(id);
        let art = self.artifacts.get(&aid).ok_or_else(|| {
            PortalError::Exec(toolchain::ExecutorError::NoSuchArtifact(id.to_string()))
        })?;
        if art.owner != user && !role.at_least(Role::Faculty) {
            return Err(PortalError::Forbidden("artifact belongs to another user"));
        }
        Ok(aid)
    }

    // ---- compile -----------------------------------------------------------

    /// Phase 1 of a compile: validate the session and capture the request
    /// plus substrate handles. Holds the portal lock only as long as this
    /// call.
    pub fn compile_begin(
        &self,
        token: &Token,
        path: &str,
        now: u64,
    ) -> Result<CompilePhase, PortalError> {
        let stamp = self.stamp(token, now)?;
        let full = self.resolve(&stamp.user, stamp.role, path)?;
        Ok(CompilePhase {
            request: CompileRequest::new(&stamp.user, &full),
            fs: Arc::clone(&self.fs),
            cache: Arc::clone(&self.compile_cache),
            obs: Arc::clone(&self.obs),
            stamp,
        })
    }

    /// Phase 3 of a compile: re-validate the stamp, then store the
    /// artifact and record telemetry. A stale stamp drops the compile on
    /// the floor — the report is never returned and no artifact lands.
    pub fn compile_commit(
        &mut self,
        done: CompileDone,
        now: u64,
    ) -> Result<CompileReport, PortalError> {
        self.check_stamp(&done.stamp, now)?;
        Ok(done.prepared.commit(&mut self.artifacts, &self.obs))
    }

    /// Compile a source file; the report carries gcc-style diagnostics.
    /// One call, all three phases — the portal lock discipline only
    /// matters to callers (the web layer) that release between them.
    pub fn compile(
        &mut self,
        token: &Token,
        path: &str,
        now: u64,
    ) -> Result<CompileReport, PortalError> {
        let done = self.compile_begin(token, path, now)?.run();
        self.compile_commit(done, now)
    }

    // ---- interactive execution ---------------------------------------------

    /// Phase 1 of an interactive run: validate, authorize against the
    /// artifact's owner, and clone the artifact out so execution needs no
    /// store access.
    pub fn run_begin(
        &self,
        token: &Token,
        artifact: &str,
        seed: u64,
        stdin: &[String],
        now: u64,
    ) -> Result<RunPhase, PortalError> {
        let stamp = self.stamp(token, now)?;
        let aid = self.artifact_for(&stamp.user, stamp.role, artifact)?;
        let artifact = self
            .artifacts
            .get(&aid)
            .expect("artifact_for verified existence")
            .clone();
        Ok(RunPhase {
            artifact,
            seed,
            stdin: stdin.to_vec(),
            fs: Arc::clone(&self.fs),
            obs: Arc::clone(&self.obs),
            stamp,
        })
    }

    /// Phase 3 of an interactive run: re-validate the stamp and release
    /// the report. The VM already ran; a revoked session merely never
    /// sees the output (vfs writes the program performed went through the
    /// filesystem's own permission model and stand).
    pub fn run_finish(&self, done: RunDone, now: u64) -> Result<ExecReport, PortalError> {
        self.check_stamp(&done.stamp, now)?;
        Ok(done.report)
    }

    /// Run an artifact synchronously (the "run in browser" button) with
    /// no stdin. One call, all three phases.
    pub fn run_interactive(
        &self,
        token: &Token,
        artifact: &str,
        seed: u64,
        now: u64,
    ) -> Result<ExecReport, PortalError> {
        let done = self.run_begin(token, artifact, seed, &[], now)?.run();
        self.run_finish(done, now)
    }

    // ---- checker analysis --------------------------------------------------

    /// Phase 1 of an analysis (the "analyze" button: race / deadlock /
    /// livelock detection with a minimized repro schedule on failure):
    /// validate, authorize, and capture the program plus the default check
    /// configuration with `budget` applied. Owner-gated like
    /// [`Portal::run_interactive`]; faculty and admins may analyze any
    /// artifact.
    pub fn analyze_begin(
        &self,
        token: &Token,
        artifact: &str,
        budget: Option<u64>,
        now: u64,
    ) -> Result<AnalyzePhase, PortalError> {
        let stamp = self.stamp(token, now)?;
        let aid = self.artifact_for(&stamp.user, stamp.role, artifact)?;
        let program = self
            .artifacts
            .get(&aid)
            .expect("artifact_for verified existence")
            .program
            .clone();
        let mut cfg = checker::CheckConfig::default();
        if let Some(b) = budget {
            cfg.max_schedules = b.clamp(1, 512);
        }
        Ok(AnalyzePhase {
            artifact: artifact.to_string(),
            program,
            cfg,
            pool: Arc::clone(&self.pool),
            obs: Arc::clone(&self.obs),
            stamp,
        })
    }

    /// Phase 3 of an analysis: re-validate the stamp and release the
    /// verdict. Exploration counters were already recorded (they are
    /// commutative totals, not per-session state).
    pub fn analyze_finish(&self, done: AnalyzeDone, now: u64) -> Result<AnalysisView, PortalError> {
        self.check_stamp(&done.stamp, now)?;
        Ok(done.view)
    }
}

/// A validated compile, ready to run without the portal lock.
pub struct CompilePhase {
    stamp: SessionStamp,
    request: CompileRequest,
    fs: Arc<Mutex<Vfs>>,
    cache: Arc<Mutex<CompileCache>>,
    obs: Arc<Obs>,
}

impl CompilePhase {
    /// Phase 2: fetch the source (vfs lock only for the read) and compile
    /// it, consulting the shared compile cache. No portal lock is held —
    /// other sessions read, tick, and mutate freely while this runs.
    pub fn run(self) -> CompileDone {
        let t0 = std::time::Instant::now();
        let snapshot = {
            let fs = self.fs.lock().unwrap_or_else(PoisonError::into_inner);
            // VM runs take the vfs lock once per host-I/O call (`VfsIo`);
            // file saves and journal compaction hold it briefly.
            self.obs
                .profiler
                .observe("vfs.lock", t0.elapsed().as_micros() as u64, || {
                    format!("compile {}", self.request.source_path)
                });
            self.request.snapshot(&fs)
        };
        let prepared = snapshot.compile(&self.cache);
        CompileDone {
            stamp: self.stamp,
            prepared,
        }
    }
}

/// A finished compile awaiting commit under the portal lock.
pub struct CompileDone {
    stamp: SessionStamp,
    prepared: PreparedCompile,
}

impl CompileDone {
    /// Whether the compile produced a program (diagnostics otherwise).
    pub fn success(&self) -> bool {
        self.prepared.success()
    }
}

/// A validated interactive execution, ready to run without the portal
/// lock. The artifact rides along by value.
pub struct RunPhase {
    stamp: SessionStamp,
    artifact: Artifact,
    seed: u64,
    stdin: Vec<String>,
    fs: Arc<Mutex<Vfs>>,
    obs: Arc<Obs>,
}

impl RunPhase {
    /// Phase 2: execute the whole program on the VM. The vfs is locked
    /// per host-I/O operation by the VM's `VfsIo`, never for the run's
    /// duration; the portal lock is not held at all.
    pub fn run(self) -> RunDone {
        let report = toolchain::exec::run_artifact(
            &self.artifact,
            self.seed,
            Arc::clone(&self.fs),
            &self.stamp.user,
            &self.stdin,
            &self.obs,
        );
        RunDone {
            stamp: self.stamp,
            report,
        }
    }
}

/// A finished interactive execution awaiting stamp re-validation.
pub struct RunDone {
    stamp: SessionStamp,
    report: ExecReport,
}

/// A validated analysis, ready to explore without the portal lock.
pub struct AnalyzePhase {
    stamp: SessionStamp,
    artifact: String,
    program: minilang::Program,
    cfg: checker::CheckConfig,
    pool: Arc<checker::Pool>,
    obs: Arc<Obs>,
}

impl AnalyzePhase {
    /// Phase 2: systematic exploration on the shared pool. Through the
    /// pool the report is bit-for-bit the same as the serial
    /// `checker::check`, in a fraction of the wall-clock.
    pub fn run(self) -> AnalyzeDone {
        // The pool records the `ccp_checker_dpor_*` and VM-cost counters
        // itself; only the per-analysis totals are counted here.
        let report = self.pool.check(&self.program, &self.cfg);

        let m = &self.obs.metrics;
        m.describe(
            "ccp_checker_analyses_total",
            "interleaving analyses by verdict class",
        );
        m.describe(
            "ccp_checker_schedules_explored_total",
            "schedules explored across analyses",
        );
        m.describe(
            "ccp_checker_steps_explored_total",
            "visible steps explored across analyses",
        );
        m.counter(
            "ccp_checker_analyses_total",
            &[("verdict", report.verdict.class())],
        )
        .inc();
        m.counter("ccp_checker_schedules_explored_total", &[])
            .add(report.schedules);
        m.counter("ccp_checker_steps_explored_total", &[])
            .add(report.steps);

        AnalyzeDone {
            stamp: self.stamp,
            view: AnalysisView {
                artifact: self.artifact,
                verdict: report.verdict.class().to_string(),
                detail: report.verdict.to_string(),
                schedules: report.schedules,
                steps: report.steps,
                complete: report.complete,
                exhaustive_within_bound: report.exhaustive_within_bound,
                repro: report.repro.unwrap_or_default(),
            },
        }
    }
}

/// A finished analysis awaiting stamp re-validation.
pub struct AnalyzeDone {
    stamp: SessionStamp,
    view: AnalysisView,
}

#[cfg(test)]
mod tests {
    use super::super::{Portal, PortalConfig};

    fn portal_with_user() -> (Portal, auth::Token) {
        let mut p = Portal::new(PortalConfig {
            checker_threads: Some(1),
            ..PortalConfig::default()
        });
        p.bootstrap_admin("admin", "super-secret9").unwrap();
        let admin = p.login("admin", "super-secret9", 0).unwrap();
        p.create_user(&admin, "alice", "password99", auth::Role::Student, 0)
            .unwrap();
        let tok = p.login("alice", "password99", 0).unwrap();
        p.write_file(&tok, "p.mini", b"fn main() { println(7); }".to_vec(), 0)
            .unwrap();
        (p, tok)
    }

    #[test]
    fn two_phase_compile_matches_single_call() {
        let (mut p, tok) = portal_with_user();
        let done = p.compile_begin(&tok, "p.mini", 0).unwrap().run();
        assert!(done.success());
        let report = p.compile_commit(done, 0).unwrap();
        assert!(report.success());
        assert_eq!(p.my_artifacts(&tok, 0).unwrap().len(), 1);
    }

    #[test]
    fn logout_between_begin_and_commit_drops_the_compile() {
        let (mut p, tok) = portal_with_user();
        let phase = p.compile_begin(&tok, "p.mini", 0).unwrap();
        p.logout(&tok);
        let done = phase.run();
        assert!(done.success(), "the work itself still ran");
        let err = p.compile_commit(done, 0).unwrap_err();
        assert!(matches!(err, crate::error::PortalError::Session(_)));
        // The artifact was dropped, not applied.
        let relog = p.login("alice", "password99", 0).unwrap();
        assert_eq!(p.my_artifacts(&relog, 0).unwrap().len(), 0);
    }

    #[test]
    fn relogin_does_not_resurrect_a_stale_stamp() {
        let (mut p, tok) = portal_with_user();
        let phase = p.compile_begin(&tok, "p.mini", 0).unwrap();
        p.logout(&tok);
        // A fresh session for the same user must not validate the old
        // stamp: its token (and generation) differ.
        let _relog = p.login("alice", "password99", 0).unwrap();
        let err = p.compile_commit(phase.run(), 0).unwrap_err();
        assert!(matches!(err, crate::error::PortalError::Session(_)));
    }

    #[test]
    fn logout_mid_run_drops_execution_and_analysis_results() {
        let (mut p, tok) = portal_with_user();
        let report = p.compile(&tok, "p.mini", 0).unwrap();
        let artifact = report.artifact.as_ref().unwrap().to_string();

        let run = p.run_begin(&tok, &artifact, 0, &[], 0).unwrap();
        let analyze = p.analyze_begin(&tok, &artifact, Some(4), 0).unwrap();
        p.logout(&tok);
        assert!(p.run_finish(run.run(), 0).is_err());
        assert!(p.analyze_finish(analyze.run(), 0).is_err());

        // The session that replaces it works end to end.
        let relog = p.login("alice", "password99", 0).unwrap();
        let rerun = p.run_interactive(&relog, &artifact, 0, 0).unwrap();
        assert_eq!(rerun.outcome.unwrap().stdout, "7\n");
    }

    #[test]
    fn analysis_records_dpor_counters_once() {
        let (mut p, tok) = portal_with_user();
        let src = checker::archetypes::mini_locked_counter();
        p.write_file(&tok, "lc.mini", src.as_bytes().to_vec(), 0)
            .unwrap();
        let report = p.compile(&tok, "lc.mini", 0).unwrap();
        let artifact = report.artifact.as_ref().unwrap().to_string();
        let phase = p.analyze_begin(&tok, &artifact, None, 0).unwrap();
        let (_, want) = checker::Pool::new(1).check_with_stats(&phase.program, &phase.cfg);
        assert!(want.dpor_backtracks > 0, "{want:?}");
        let families = [
            ("ccp_checker_dpor_backtracks_total", want.dpor_backtracks),
            (
                "ccp_checker_dpor_pruned_siblings_total",
                want.dpor_pruned_siblings,
            ),
            ("ccp_checker_dpor_bound_pruned_total", want.bound_pruned),
        ];
        let read = |p: &Portal, name: &str| p.obs().metrics.counter(name, &[]).get();
        let before: Vec<u64> = families.iter().map(|(n, _)| read(&p, n)).collect();
        p.analyze_finish(phase.run(), 0).unwrap();
        for ((name, want), before) in families.iter().zip(before) {
            assert_eq!(read(&p, name) - before, *want, "{name}");
        }
    }

    #[test]
    fn expired_session_fails_commit() {
        let (mut p, tok) = portal_with_user();
        let phase = p.compile_begin(&tok, "p.mini", 0).unwrap();
        let done = phase.run();
        // Past the TTL the stamp no longer validates.
        let err = p.compile_commit(done, 1_000_000).unwrap_err();
        assert!(matches!(err, crate::error::PortalError::Session(_)));
    }
}
