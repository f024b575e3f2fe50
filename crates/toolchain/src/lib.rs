//! # toolchain — the portal's compile/execute pipeline
//!
//! The portal provides "limited platform processing, compilation and
//! execution of C, C++, and Java source code" (§I). In this reproduction the
//! executable substrate is [`minilang`] (see DESIGN.md: gcc/javac → minilang
//! substitution); this crate supplies everything around the compiler that
//! the paper's backend had:
//!
//! * [`language`] — source-language detection (C / C++ / Java / MiniLang)
//!   with clear diagnostics when a source needs porting to the teaching
//!   dialect;
//! * [`artifact`] — the compiled-artifact store, content-addressed;
//! * [`cache`] — the compile cache: a byte-identical source skips the
//!   compiler, so a class resubmitting starter code compiles it once;
//! * [`pipeline`] — `CompileRequest` objects: read source from the [`vfs`],
//!   compile through the cache, collect gcc-style diagnostics, store the
//!   artifact;
//! * [`exec`] — [`exec::run_artifact`]: run an artifact on a VM wired to
//!   the user's vfs home, with stdin injection and captured streams.

pub mod artifact;
pub mod cache;
pub mod exec;
pub mod language;
pub mod pipeline;

pub use artifact::{Artifact, ArtifactId, ArtifactStore};
pub use cache::{CacheStats, CompileCache};
pub use exec::{ExecReport, ExecutorError, VfsIo};
pub use language::LanguageId;
pub use pipeline::{
    CompileReport, CompileRequest, Diagnostic, PreparedCompile, Severity, SourceSnapshot,
};
