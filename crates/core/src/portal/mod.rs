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
//!   whose state changes stay single-writer so tick-domain determinism is
//!   preserved;
//! * `heavy` — compile / execute / analyze, split into begin → run →
//!   commit phases so the expensive middle runs with **no** portal lock
//!   held. The tick (`write`) and the login (`session`) are phased the
//!   same way: a tick's job executions and a login's password stretch
//!   hold no portal lock either.

mod durable;
mod heavy;
mod read;
mod session;
mod write;

pub use heavy::{AnalyzeDone, AnalyzePhase, CompileDone, CompilePhase, RunDone, RunPhase};
pub use session::SessionStamp;
pub use write::{TickDone, TickPhase};

use crate::error::PortalError;
use auth::{Role, SessionManager, UserStore};
use cluster::{Cluster, ClusterSpec};
use obs::{Obs, SloEngine, TimeSeriesStore};
use sched::{SchedPolicyKind, Scheduler};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use toolchain::ArtifactStore;
use vfs::{Vfs, VfsError};
use wal::{FsyncPolicy, Journal, RecoveryReport};

/// Portal construction parameters: the settings a deployment, the
/// benchmark, an example or a determinism suite actually varies. Every
/// other number the portal runs on is a constant next to its one use.
#[derive(Debug, Clone)]
pub struct PortalConfig {
    /// Hardware to boot.
    pub cluster: ClusterSpec,
    /// Seed for job execution: the distributor runs job `id` under VM seed
    /// `seed ^ id`. Session tokens and password salts come from OS
    /// entropy, never from this seed.
    pub seed: u64,
    /// How many VM instructions equal one scheduler tick when deriving a
    /// dispatched job's runtime.
    pub instructions_per_tick: u64,
    /// Checker pool width. `None` uses [`checker::Pool::default_workers`]
    /// (`max(1, available_parallelism - 1)`); 0 or 1 runs analyses
    /// serially.
    pub checker_threads: Option<usize>,
    /// Durability root. `Some(dir)` persists filesystem and scheduler
    /// state to one write-ahead log, `<dir>/portal.wal` plus its snapshot
    /// `<dir>/portal.snap`, and recovers both from it at boot. A `dir`
    /// holding the retired `vfs.wal` / `sched.wal` layout is refused: the
    /// portal serves from memory and reports why in
    /// [`Portal::wal_error`]. `None` (the default) keeps the portal fully
    /// in-memory, bit-for-bit identical to the pre-durability behaviour.
    pub data_dir: Option<PathBuf>,
    /// When to fsync the log: group commit, one fsync per 8 appends, by
    /// default; `Always` syncs every append (the recovery tests use it).
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
    /// The one write-ahead log, when durable.
    journal: Option<Arc<Mutex<Journal>>>,
    recovery: Option<RecoveryReport>,
    wal_open_error: Option<String>,
}

impl Portal {
    /// Boot a portal: empty user store, cold cluster. With
    /// [`PortalConfig::data_dir`] set, the filesystem and scheduler are
    /// recovered from the portal's write-ahead log (fresh when it is empty)
    /// and every subsequent mutation is journaled; otherwise both start
    /// fresh and stay in-memory. Every substrate records into one shared
    /// telemetry domain.
    pub fn new(config: PortalConfig) -> Portal {
        let obs = Arc::new(Obs::new());
        let workers = config
            .checker_threads
            .unwrap_or_else(checker::Pool::default_workers);
        let pool = Arc::new(checker::Pool::new(workers).with_obs(Arc::clone(&obs)));
        toolchain::cache::register_cache_metrics(&obs);
        toolchain::exec::register_exec_metrics(&obs);
        durable::register_wal_metrics(&obs);
        let store = TimeSeriesStore::new(TS_CAPACITY, &Portal::DASHBOARD_FAMILIES);
        let slo = SloEngine::new(default_slos(), &obs.metrics);

        let new_scheduler = || {
            Scheduler::new(Cluster::new(config.cluster.clone()), SCHED_POLICY)
                .with_obs(Arc::clone(&obs))
        };
        let mut recovered = None;
        let mut wal_open_error = None;
        if let Some(dir) = &config.data_dir {
            match durable::open(dir, config.wal_fsync, &obs, new_scheduler()) {
                Ok(d) => recovered = Some(d),
                // A portal that cannot journal still serves — from memory,
                // with the failure surfaced in /api/health — rather than
                // refusing to boot over a full disk or bad permissions.
                Err(e) => wal_open_error = Some(e),
            }
        }
        let (fs, scheduler, journal, recovery) = match recovered {
            Some((fs, scheduler, journal, report)) => (fs, scheduler, Some(journal), Some(report)),
            None => (Vfs::new(), new_scheduler(), None, None),
        };

        Portal {
            users: UserStore::new(),
            sessions: SessionManager::new(SESSION_TTL),
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
            journal,
            recovery,
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
        match self.vfs_op(|fs| fs.add_user(name, u64::MAX)) {
            Ok(()) | Err(PortalError::Vfs(VfsError::UserExists(_))) => {}
            Err(e) => return Err(e),
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
        self.journal.is_some()
    }

    /// What the journal's recovery went through at boot (`None` for
    /// in-memory portals).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The first durability failure, if any: the WAL could not be opened
    /// at boot, or an append, fsync or snapshot failed mid-run (the
    /// filesystem also returns those to its caller; the scheduler keeps
    /// going).
    pub fn wal_error(&self) -> Option<String> {
        self.wal_open_error.clone().or_else(|| {
            let journal = self.journal.as_ref()?;
            let journal = journal.lock().unwrap_or_else(PoisonError::into_inner);
            journal.error().map(|e| e.to_string())
        })
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

    /// Run one filesystem mutation, then compact the journal if that made
    /// it due, so file traffic compacts without waiting for a tick.
    fn vfs_op<T>(
        &self,
        op: impl FnOnce(&mut Vfs) -> Result<T, VfsError>,
    ) -> Result<T, PortalError> {
        let mut fs = self.vfs();
        let out = op(&mut fs)?;
        durable::compact_if_due(self.journal.as_deref(), &fs, &self.scheduler);
        Ok(out)
    }
}
