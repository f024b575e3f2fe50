//! The executor: run a compiled artifact on the VM, with file I/O wired
//! into the user's vfs home and stdin lines available to the program.
//!
//! This is the paper's "executor object, which in turn upon success contacts
//! a job distributor" (§II) — the distributor half lives in `ccp-core`,
//! which submits these executions as jobs; this module is the part that
//! actually runs bytecode. [`run_artifact`] runs an artifact the caller
//! cloned out of the store under the portal lock (an interactive run, or a
//! job the distributor's tick dispatched); [`missing_artifact`] records a
//! dispatched job whose artifact is gone.

use crate::artifact::{Artifact, ArtifactId};
use minilang::{ExecOutcome, HostIo, RuntimeError, Vm, VmConfig};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use vfs::Vfs;

/// A [`HostIo`] backed by the shared [`Vfs`], acting as a specific user.
/// Relative paths resolve against the user's home directory.
pub struct VfsIo {
    fs: Arc<Mutex<Vfs>>,
    user: String,
}

impl VfsIo {
    /// Wrap the shared filesystem for `user`.
    pub fn new(fs: Arc<Mutex<Vfs>>, user: &str) -> VfsIo {
        VfsIo {
            fs,
            user: user.to_string(),
        }
    }

    fn resolve(&self, path: &str) -> String {
        if path.starts_with('/') {
            path.to_string()
        } else {
            format!("/home/{}/{}", self.user, path)
        }
    }

    /// The filesystem, recovered if a panicking holder poisoned its lock.
    fn fs(&self) -> MutexGuard<'_, Vfs> {
        self.fs.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl HostIo for VfsIo {
    fn read_file(&mut self, path: &str) -> Result<String, String> {
        let full = self.resolve(path);
        let bytes = self
            .fs()
            .read(&self.user, &full)
            .map_err(|e| e.to_string())?;
        String::from_utf8(bytes).map_err(|_| format!("{full}: not UTF-8"))
    }

    fn write_file(&mut self, path: &str, content: &str) -> Result<(), String> {
        let full = self.resolve(path);
        self.fs()
            .write(&self.user, &full, content.as_bytes().to_vec())
            .map_err(|e| e.to_string())
    }

    fn append_file(&mut self, path: &str, content: &str) -> Result<(), String> {
        let full = self.resolve(path);
        self.fs()
            .append(&self.user, &full, content.as_bytes())
            .map_err(|e| e.to_string())
    }
}

/// Executor failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutorError {
    /// Artifact id not found in the store.
    NoSuchArtifact(String),
    /// The program failed at runtime (deadlock, type error, ...).
    Runtime(RuntimeError),
}

impl fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutorError::NoSuchArtifact(id) => write!(f, "no such artifact {id}"),
            ExecutorError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for ExecutorError {}

/// What an execution produced (success or failure, streams always captured).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// The artifact that ran.
    pub artifact: ArtifactId,
    /// VM outcome on success.
    pub outcome: Option<ExecOutcome>,
    /// Runtime error on failure.
    pub error: Option<RuntimeError>,
}

impl ExecReport {
    /// Did the run complete without a runtime error?
    pub fn success(&self) -> bool {
        self.outcome.is_some()
    }
}

/// Record a dispatch whose artifact is gone from the store as a failed
/// execution, and return the error the job reports.
pub fn missing_artifact(id: &ArtifactId, obs: &obs::Obs) -> ExecutorError {
    record_exec_metrics(obs, "error", 0, None);
    ExecutorError::NoSuchArtifact(id.to_string())
}

/// Run an [`Artifact`] as `user` under scheduler `seed`, with filesystem
/// access through `fs` and `stdin` lines queued for `read_line()`. The
/// caller cloned the artifact out of the store under the portal lock, so
/// the run needs no store access at all (the program rides in the
/// artifact). Infallible — the VM's own failures land in the report. Records execution telemetry into `obs`: a
/// `ccp_toolchain_execs_total{result}` counter, a wall-clock duration
/// histogram, and a (deterministic) instruction-count histogram.
pub fn run_artifact(
    art: &Artifact,
    seed: u64,
    fs: Arc<Mutex<Vfs>>,
    user: &str,
    stdin: &[String],
    obs: &obs::Obs,
) -> ExecReport {
    let started = std::time::Instant::now();
    let config = VmConfig {
        seed,
        ..VmConfig::default()
    };
    let io = VfsIo::new(fs, user);
    let mut vm = Vm::with_io(art.program.clone(), config, Box::new(io));
    for line in stdin {
        vm.push_stdin(line.clone());
    }
    let report = match vm.run() {
        Ok(outcome) => ExecReport {
            artifact: art.id.clone(),
            outcome: Some(outcome),
            error: None,
        },
        Err(e) => ExecReport {
            artifact: art.id.clone(),
            outcome: None,
            error: Some(e),
        },
    };
    let (label, executed) = match &report.outcome {
        Some(o) => ("ok", Some(o.executed)),
        None => ("runtime_error", None),
    };
    record_exec_metrics(obs, label, started.elapsed().as_micros() as u64, executed);
    report
}

/// Describe the `ccp_toolchain_exec*` families once, at boot, so that an
/// execution only looks its series up. A family renders once its first
/// execution is recorded.
pub fn register_exec_metrics(obs: &obs::Obs) {
    let m = &obs.metrics;
    m.describe("ccp_toolchain_execs_total", "artifact executions by result");
    m.describe(
        "ccp_toolchain_exec_duration_us",
        "execution wall-clock latency",
    );
    m.describe(
        "ccp_toolchain_exec_instructions",
        "VM instructions per execution",
    );
}

/// Shared recorder for the `ccp_toolchain_exec*` families.
fn record_exec_metrics(
    obs: &obs::Obs,
    label: &'static str,
    duration_us: u64,
    executed: Option<u64>,
) {
    let m = &obs.metrics;
    m.counter("ccp_toolchain_execs_total", &[("result", label)])
        .inc();
    m.histogram(
        "ccp_toolchain_exec_duration_us",
        &[],
        obs::DURATION_US_BOUNDS,
    )
    .record(duration_us);
    if let Some(executed) = executed {
        m.histogram(
            "ccp_toolchain_exec_instructions",
            &[],
            obs::INSTRUCTION_BOUNDS,
        )
        .record(executed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ArtifactStore;
    use crate::language::LanguageId;

    fn setup(src: &str) -> (Arc<Mutex<Vfs>>, ArtifactStore, ArtifactId) {
        let mut fs = Vfs::new();
        fs.add_user("alice", 1 << 20).unwrap();
        let mut store = ArtifactStore::new();
        let program = minilang::compile(src).unwrap();
        let id = store.put(
            "alice",
            "/home/alice/p.mini",
            LanguageId::MiniLang,
            src,
            program,
        );
        (Arc::new(Mutex::new(fs)), store, id)
    }

    /// [`run_artifact`] on a stored artifact, no stdin, telemetry
    /// discarded.
    fn run_stored(
        store: &ArtifactStore,
        id: &ArtifactId,
        seed: u64,
        fs: Arc<Mutex<Vfs>>,
    ) -> ExecReport {
        let art = store.get(id).expect("stored artifact");
        run_artifact(art, seed, fs, "alice", &[], &obs::Obs::new())
    }

    #[test]
    fn run_captures_stdout() {
        let (fs, store, id) = setup("fn main() { println(\"hi\"); }");
        let report = run_stored(&store, &id, 0, fs);
        assert!(report.success());
        assert_eq!(report.outcome.unwrap().stdout, "hi\n");
    }

    #[test]
    fn relative_paths_resolve_to_home() {
        let (fs, store, id) = setup(r#"fn main() { write_file("out.txt", "data"); }"#);
        let report = run_stored(&store, &id, 0, Arc::clone(&fs));
        assert!(report.success(), "{:?}", report.error);
        let content = fs
            .lock()
            .unwrap()
            .read("alice", "/home/alice/out.txt")
            .unwrap();
        assert_eq!(content, b"data");
    }

    #[test]
    fn permission_errors_surface_as_io() {
        let (fs, store, id) = setup(r#"fn main() { write_file("/home/root-owned.txt", "x"); }"#);
        let report = run_stored(&store, &id, 0, fs);
        assert!(!report.success());
        assert!(matches!(report.error, Some(RuntimeError::Io(_))));
    }

    #[test]
    fn missing_artifact_error() {
        let obs = obs::Obs::new();
        let err = missing_artifact(&ArtifactId::from_string("feedbeef"), &obs);
        assert_eq!(err.to_string(), "no such artifact feedbeef");
        let failed = obs
            .metrics
            .counter("ccp_toolchain_execs_total", &[("result", "error")]);
        assert_eq!(failed.get(), 1);
    }

    #[test]
    fn exec_families_render_from_the_first_execution() {
        let obs = obs::Obs::new();
        register_exec_metrics(&obs);
        assert!(!obs.metrics.render().contains("ccp_toolchain_exec"));
        let (fs, store, id) = setup("fn main() { }");
        let art = store.get(&id).expect("stored artifact");
        assert!(run_artifact(art, 0, fs, "alice", &[], &obs).success());
        let text = obs.metrics.render();
        for help in [
            "# HELP ccp_toolchain_execs_total artifact executions by result\n",
            "# HELP ccp_toolchain_exec_duration_us execution wall-clock latency\n",
            "# HELP ccp_toolchain_exec_instructions VM instructions per execution\n",
        ] {
            assert!(text.contains(help), "{help}");
        }
        assert!(text.contains("ccp_toolchain_execs_total{result=\"ok\"} 1\n"));
    }

    #[test]
    fn deadlock_reported_not_hung() {
        let (fs, store, id) = setup("fn main() { var m = mutex(); lock(m); lock(m); }");
        let report = run_stored(&store, &id, 0, fs);
        assert!(matches!(report.error, Some(RuntimeError::Deadlock { .. })));
    }

    #[test]
    fn seed_controls_scheduling() {
        let src = r#"
            var counter = 0;
            fn w() { for (var i = 0; i < 100; i = i + 1) { counter = counter + 1; } }
            fn main() { var a = spawn w(); var b = spawn w(); join(a); join(b); return counter; }
        "#;
        let (fs, store, id) = setup(src);
        let r1 = run_stored(&store, &id, 3, Arc::clone(&fs));
        let r2 = run_stored(&store, &id, 3, fs);
        assert_eq!(
            r1.outcome.unwrap().main_result,
            r2.outcome.unwrap().main_result
        );
    }
}
