//! The [`Portal`]: every substrate behind one session-authenticated API.
//!
//! The implementation is split by locking discipline, so the web layer can
//! hold the portal's `RwLock` for exactly as long as each facade needs:
//!
//! * `session` — token issue/validate plus the [`SessionStamp`] that
//!   long-running operations use to detect mid-flight revocation;
//! * `read` — `&self` views (listings, job status, dashboards) that are
//!   safe under a shared read lock;
//! * `write` — `&mut self` mutations, including the scheduler tick,
//!   which stay single-writer so tick-domain determinism is preserved;
//! * `heavy` — compile / execute / analyze, split into begin → run →
//!   commit phases so the expensive middle runs with **no** portal lock
//!   held.

mod heavy;
mod read;
mod session;
mod write;

pub use heavy::{AnalyzeDone, AnalyzePhase, CompileDone, CompilePhase, RunDone, RunPhase};
pub use session::SessionStamp;

use crate::error::PortalError;
use crate::view::RecoveryView;
use auth::{Role, SessionManager, UserStore};
use cluster::{Cluster, ClusterSpec};
use obs::{Obs, SloEngine, TimeSeriesStore};
use sched::{SchedPolicyKind, Scheduler};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use toolchain::ArtifactStore;
use vfs::{Vfs, VfsError};
use wal::{FileStorage, FsyncPolicy, Journal, JournalHooks, RecoveryReport};

/// Portal construction parameters: the settings a deployment, the
/// benchmark, an example or a determinism suite actually varies. Every
/// other number the portal runs on is a constant next to its one use.
#[derive(Debug, Clone)]
pub struct PortalConfig {
    /// Hardware to boot.
    pub cluster: ClusterSpec,
    /// Seed for token generation and password salts.
    pub seed: u64,
    /// How many VM instructions equal one scheduler tick when deriving a
    /// dispatched job's runtime.
    pub instructions_per_tick: u64,
    /// Checker pool width. `None` uses [`checker::Pool::default_workers`]
    /// (`max(1, available_parallelism - 1)`); 0 or 1 runs analyses
    /// serially.
    pub checker_threads: Option<usize>,
    /// Durability root. `Some(dir)` persists filesystem and scheduler
    /// state to write-ahead logs under `dir` and recovers them at boot;
    /// `None` (the default) keeps the portal fully in-memory, bit-for-bit
    /// identical to the pre-durability behaviour.
    pub data_dir: Option<PathBuf>,
    /// When to fsync the logs: group commit (one fsync per N appends) by
    /// default; `Always` for strongest durability, `Never` for benches.
    pub wal_fsync: FsyncPolicy,
    /// Run a checker analysis on every job the distributor executes,
    /// recording the verdict as a `checker.analyze` span in the job's
    /// trace. Off by default: it spends checker budget per dispatch.
    pub auto_analyze: bool,
}

impl Default for PortalConfig {
    fn default() -> Self {
        PortalConfig {
            cluster: ClusterSpec::uhd(),
            seed: 0x5eed,
            instructions_per_tick: 10_000,
            checker_threads: None,
            data_dir: None,
            wal_fsync: FsyncPolicy::EveryN(8),
            auto_analyze: false,
        }
    }
}

/// Job-distribution policy.
const SCHED_POLICY: SchedPolicyKind = SchedPolicyKind::Backfill;

/// Session time-to-live in caller clock units (the web layer passes
/// seconds).
const SESSION_TTL: u64 = 3600;

/// Compile-cache capacity in programs.
const COMPILE_CACHE_CAPACITY: usize = 256;

/// Install a snapshot and compact each WAL stream every this many records.
const SNAPSHOT_INTERVAL: u64 = 1024;

/// Time-series store depth: how many per-tick metrics captures the
/// dashboard can window over before old ones roll off.
const TS_CAPACITY: usize = 512;

/// The service-level objectives evaluated over the store every tick:
/// sustained deep queue, excessive job loss, and degraded p99 wait time.
/// All read tick-domain series, so alert histories are reproducible
/// across same-seed runs.
fn default_slos() -> Vec<obs::SloSpec> {
    use obs::{SloKind, SloSpec};
    vec![
        SloSpec {
            name: "queue-depth".into(),
            kind: SloKind::GaugeAbove {
                series: "ccp_sched_queue_depth".into(),
                threshold_milli: 32_000,
            },
            short_window: 8,
            long_window: 32,
        },
        SloSpec {
            name: "job-loss".into(),
            kind: SloKind::ErrorRatio {
                bad: "ccp_sched_jobs_node_lost_total".into(),
                total: "ccp_sched_jobs_submitted_total".into(),
                objective_milli: 50,
            },
            short_window: 8,
            long_window: 32,
        },
        SloSpec {
            name: "wait-p99".into(),
            kind: SloKind::QuantileAbove {
                series: "ccp_sched_job_wait_ticks".into(),
                q: 0.99,
                threshold: 500.0,
            },
            short_window: 8,
            long_window: 32,
        },
    ]
}

/// Routes [`Journal`] telemetry into the shared metrics registry, one hook
/// set per stream (`stream="vfs"` / `stream="sched"`).
struct WalMetricHooks {
    appends: obs::Counter,
    bytes: obs::Counter,
    fsyncs: obs::Counter,
    snapshots: obs::Counter,
    /// For the contention profiler: group-commit storage-sync waits land
    /// under the `wal.commit` site.
    obs: Arc<Obs>,
    stream: &'static str,
}

impl JournalHooks for WalMetricHooks {
    fn on_append(&self, bytes: u64) {
        self.appends.inc();
        self.bytes.add(bytes);
    }
    fn on_fsync(&self) {
        self.fsyncs.inc();
    }
    fn on_fsync_wait(&self, us: u64) {
        self.obs
            .profiler
            .observe("wal.commit", us, || format!("{} stream fsync", self.stream));
    }
    fn on_snapshot(&self) {
        self.snapshots.inc();
    }
}

/// Describe and eagerly register every `ccp_wal_*` family for both
/// streams, so `/api/metrics` exposes them from the first scrape even on
/// an in-memory portal (the scrape contract is checked by
/// `scripts/check_metrics.sh`).
fn register_wal_metrics(obs: &Obs) {
    let m = &obs.metrics;
    m.describe("ccp_wal_appends_total", "records appended to the WAL");
    m.describe("ccp_wal_bytes_total", "framed bytes appended to the WAL");
    m.describe("ccp_wal_fsyncs_total", "fsyncs issued by the WAL");
    m.describe(
        "ccp_wal_snapshots_total",
        "snapshots installed (log compactions)",
    );
    m.describe(
        "ccp_wal_recoveries_total",
        "crash recoveries performed at boot",
    );
    m.describe(
        "ccp_wal_recovery_replay_us",
        "wall time spent recovering a WAL stream at boot (us)",
    );
    for stream in ["vfs", "sched"] {
        let labels = &[("stream", stream)];
        m.counter("ccp_wal_appends_total", labels);
        m.counter("ccp_wal_bytes_total", labels);
        m.counter("ccp_wal_fsyncs_total", labels);
        m.counter("ccp_wal_snapshots_total", labels);
        m.counter("ccp_wal_recoveries_total", labels);
        m.histogram(
            "ccp_wal_recovery_replay_us",
            labels,
            obs::DURATION_US_BOUNDS,
        );
    }
}

fn wal_hooks(obs: &Arc<Obs>, stream: &'static str) -> Box<dyn JournalHooks> {
    let m = &obs.metrics;
    let labels = &[("stream", stream)];
    Box::new(WalMetricHooks {
        appends: m.counter("ccp_wal_appends_total", labels),
        bytes: m.counter("ccp_wal_bytes_total", labels),
        fsyncs: m.counter("ccp_wal_fsyncs_total", labels),
        snapshots: m.counter("ccp_wal_snapshots_total", labels),
        obs: Arc::clone(obs),
        stream,
    })
}

/// Open both WAL streams under `dir`, recover the filesystem and the
/// scheduler from them, and leave the journals attached so subsequent
/// mutations are logged. Returns the per-stream recovery views.
fn open_durable(
    dir: &std::path::Path,
    config: &PortalConfig,
    obs: &Arc<Obs>,
    fs: &mut Vfs,
    scheduler: &mut Scheduler,
) -> Result<Vec<RecoveryView>, String> {
    let open_stream = |name: &str| -> Result<(Journal, wal::Recovered), String> {
        let storage = FileStorage::open(dir, name).map_err(|e| format!("open {name} log: {e}"))?;
        Journal::open(Box::new(storage), config.wal_fsync, SNAPSHOT_INTERVAL)
            .map_err(|e| format!("recover {name} log: {e}"))
    };

    let (vfs_journal, vfs_recovered) = open_stream("vfs")?;
    let (recovered_fs, vfs_replay_errors) =
        Vfs::recover(&vfs_recovered).map_err(|e| format!("replay vfs log: {e}"))?;
    *fs = recovered_fs;
    fs.attach_journal(vfs_journal.with_hooks(wal_hooks(obs, "vfs")));

    let (sched_journal, sched_recovered) = open_stream("sched")?;
    let sched_replay_errors = scheduler
        .recover(&sched_recovered)
        .map_err(|e| format!("replay sched log: {e}"))?;
    scheduler.attach_journal(sched_journal.with_hooks(wal_hooks(obs, "sched")));

    let mut views = Vec::new();
    for (stream, report, replay_errors) in [
        ("vfs", &vfs_recovered.report, vfs_replay_errors),
        ("sched", &sched_recovered.report, sched_replay_errors),
    ] {
        let labels = &[("stream", stream)];
        obs.metrics
            .counter("ccp_wal_recoveries_total", labels)
            .inc();
        obs.metrics
            .histogram(
                "ccp_wal_recovery_replay_us",
                labels,
                obs::DURATION_US_BOUNDS,
            )
            .record(report.wall_us);
        views.push(recovery_view(stream, report, replay_errors));
    }
    Ok(views)
}

fn recovery_view(stream: &str, report: &RecoveryReport, replay_errors: u64) -> RecoveryView {
    RecoveryView {
        stream: stream.to_string(),
        snapshot_lsn: report.snapshot_lsn,
        snapshot_corrupt: report.snapshot_corrupt,
        records_replayed: report.records_replayed,
        torn_bytes: report.torn_bytes,
        corrupt_records: report.corrupt_records,
        replay_errors,
        last_lsn: report.last_lsn,
        wall_us: report.wall_us,
    }
}

/// The portal backend. One instance serves the whole site; the web layer
/// wraps it in an `RwLock` (reads share, mutations are exclusive).
///
/// The substrates that heavy operations touch off-lock — the filesystem,
/// the compile cache, the checker pool and the telemetry domain — are
/// `Arc`-shared and internally synchronized, so a phase object cloned out
/// of the portal stays valid after the portal lock is released.
pub struct Portal {
    users: UserStore,
    sessions: SessionManager,
    fs: Arc<Mutex<Vfs>>,
    artifacts: ArtifactStore,
    scheduler: Scheduler,
    pool: Arc<checker::Pool>,
    compile_cache: Arc<Mutex<toolchain::CompileCache>>,
    obs: Arc<Obs>,
    store: TimeSeriesStore,
    slo: SloEngine,
    config: PortalConfig,
    admin_bootstrapped: bool,
    recovery: Vec<RecoveryView>,
    wal_enabled: bool,
    wal_open_error: Option<String>,
}

impl Portal {
    /// Boot a portal: empty user store, cold cluster. With
    /// [`PortalConfig::data_dir`] set, the filesystem and scheduler are
    /// recovered from their write-ahead logs (fresh when the logs are
    /// empty) and every subsequent mutation is journaled; otherwise both
    /// start fresh and stay in-memory. Every substrate records into one
    /// shared telemetry domain.
    pub fn new(config: PortalConfig) -> Portal {
        let cluster = Cluster::new(config.cluster.clone());
        let obs = Arc::new(Obs::new());
        let workers = config
            .checker_threads
            .unwrap_or_else(checker::Pool::default_workers);
        let pool = Arc::new(checker::Pool::new(workers).with_obs(Arc::clone(&obs)));
        toolchain::cache::register_cache_metrics(&obs);
        register_wal_metrics(&obs);
        let store = TimeSeriesStore::new(TS_CAPACITY);
        let slo = SloEngine::new(default_slos(), &obs.metrics);

        let mut fs = Vfs::new();
        let mut scheduler = Scheduler::new(cluster, SCHED_POLICY).with_obs(Arc::clone(&obs));
        let mut recovery = Vec::new();
        let mut wal_enabled = false;
        let mut wal_open_error = None;
        if let Some(dir) = config.data_dir.clone() {
            match open_durable(&dir, &config, &obs, &mut fs, &mut scheduler) {
                Ok(views) => {
                    recovery = views;
                    wal_enabled = true;
                }
                // A portal that cannot journal still serves — from memory,
                // with the failure surfaced in /api/health — rather than
                // refusing to boot over a full disk or bad permissions.
                Err(e) => wal_open_error = Some(e),
            }
        }

        Portal {
            users: UserStore::new(config.seed),
            sessions: SessionManager::new(SESSION_TTL, config.seed.wrapping_add(1)),
            fs: Arc::new(Mutex::new(fs)),
            artifacts: ArtifactStore::new(),
            scheduler,
            pool,
            compile_cache: Arc::new(Mutex::new(toolchain::CompileCache::new(
                COMPILE_CACHE_CAPACITY,
            ))),
            obs,
            store,
            slo,
            config,
            admin_bootstrapped: false,
            recovery,
            wal_enabled,
            wal_open_error,
        }
    }

    /// Create the first (admin) account. Callable exactly once per boot.
    /// After a crash recovery the account's files already exist in the
    /// vfs; only the credential store (which is not journaled) is
    /// repopulated.
    pub fn bootstrap_admin(&mut self, name: &str, password: &str) -> Result<(), PortalError> {
        if self.admin_bootstrapped {
            return Err(PortalError::Bootstrap("admin already exists"));
        }
        self.users.register(name, password, Role::Admin)?;
        match self.vfs().add_user(name, u64::MAX) {
            Ok(()) | Err(VfsError::UserExists(_)) => {}
            Err(e) => return Err(e.into()),
        }
        self.admin_bootstrapped = true;
        Ok(())
    }

    /// Compile-cache totals (dashboard / tests).
    pub fn compile_cache_stats(&self) -> toolchain::CacheStats {
        self.compile_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats()
    }

    /// The shared checker pool (analyses and batch grading run on it).
    pub fn pool(&self) -> &Arc<checker::Pool> {
        &self.pool
    }

    /// The portal's telemetry domain. Every substrate (httpd routing is
    /// wired by the web layer) records into this one [`Obs`].
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The current scheduler tick (the portal's logical clock).
    pub fn now_tick(&self) -> u64 {
        self.scheduler.now()
    }

    /// The time-series store behind `/api/dashboard` (the `ccp-top`
    /// example queries it directly).
    pub fn store(&self) -> &TimeSeriesStore {
        &self.store
    }

    /// True when mutations are being journaled to disk.
    pub fn durable(&self) -> bool {
        self.wal_enabled
    }

    /// What each WAL stream went through at boot (empty for in-memory
    /// portals).
    pub fn recovery_reports(&self) -> &[RecoveryView] {
        &self.recovery
    }

    /// The first durability failure, if any: the WAL could not be opened
    /// at boot, or an append/fsync failed mid-run (the filesystem surfaces
    /// those as errors; the scheduler records them here and keeps going).
    pub fn wal_error(&self) -> Option<String> {
        self.wal_open_error
            .clone()
            .or_else(|| self.scheduler.wal_error().map(|e| e.to_string()))
    }

    /// Direct scheduler access for tests and the bench harness.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler {
        &mut self.scheduler
    }

    /// Shared filesystem handle (the bench harness preloads lab files).
    pub fn fs(&self) -> Arc<Mutex<Vfs>> {
        Arc::clone(&self.fs)
    }

    /// The filesystem, recovered if a panicking holder poisoned its lock.
    fn vfs(&self) -> MutexGuard<'_, Vfs> {
        self.fs.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
