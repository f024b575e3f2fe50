//! # ccp-core — the portal backend ("the backend workhorse")
//!
//! The paper's architecture in one sentence: "It takes the needed
//! information from a user, it then creates a compilation and/or executor
//! object, which in turn upon success contacts a job distributor to
//! allocate resources on the cluster and finally dispatch the job onto
//! those resources" (§II). This crate is that sentence as a library.
//!
//! [`Portal`] composes every substrate — [`auth`] (users/sessions),
//! [`vfs`] (home directories), [`toolchain`] (compile + execute),
//! [`sched`] (the job distributor) and [`cluster`] (the machine) — behind
//! one session-authenticated API that the web layer (`webportal`) maps
//! 1:1 onto HTTP endpoints.
//!
//! ```
//! use ccp_core::{Portal, PortalConfig};
//! use auth::Role;
//!
//! let mut portal = Portal::new(PortalConfig::default());
//! portal.bootstrap_admin("admin", "super-secret9").unwrap();
//! let admin = portal.login("admin", "super-secret9", 0).unwrap();
//! portal.create_user(&admin, "student1", "password99", Role::Student, 0).unwrap();
//! let tok = portal.login("student1", "password99", 0).unwrap();
//! portal.write_file(&tok, "hello.mini", b"fn main() { println(7); }".to_vec(), 0).unwrap();
//! let report = portal.compile(&tok, "hello.mini", 0).unwrap();
//! assert!(report.success());
//! let artifact = report.artifact.as_ref().unwrap().to_string();
//! let run = portal.run_interactive(&tok, &artifact, 0, 0).unwrap();
//! assert_eq!(run.outcome.unwrap().stdout, "7\n");
//! ```

pub mod error;
pub mod portal;
pub mod view;

pub use error::PortalError;
pub use portal::{
    AnalyzeDone, AnalyzePhase, CompileDone, CompilePhase, Portal, PortalConfig, RunDone, RunPhase,
    SessionStamp,
};
pub use view::{
    AlertView, AnalysisView, DashboardView, EventView, FileView, HealthView, JobView, NodeView,
    QuantilePanel, QuotaView, RatePanel, SlowOpView, SpanView, TimelineEventView, TraceView,
};
