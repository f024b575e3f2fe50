//! The compile pipeline: "it takes the needed information from a user, it
//! then creates a compilation ... object" (§II). A [`CompileRequest`] runs
//! in three phases so the caller can hold a different lock for each:
//! [`CompileRequest::snapshot`] reads the source out of the user's vfs
//! home, [`SourceSnapshot::compile`] detects the language and compiles
//! through the shared compile cache, and [`PreparedCompile::commit`]
//! stores the artifact.

use crate::artifact::{ArtifactId, ArtifactStore};
use crate::cache::CompileCache;
use crate::language::LanguageId;
use minilang::{LangError, Program};
use std::fmt;
use std::sync::{Mutex, PoisonError};
use vfs::Vfs;

/// Diagnostic severity, gcc-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fatal problem; no artifact produced.
    Error,
    /// Informational (e.g. porting hints).
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Note => "note",
        })
    }
}

/// One compiler diagnostic line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// File the diagnostic refers to.
    pub file: String,
    /// 1-based line (0 = whole file).
    pub line: u32,
    /// 1-based column (0 = unknown).
    pub col: u32,
    /// Message text.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{}:{}:{}: {}: {}",
                self.file, self.line, self.col, self.severity, self.message
            )
        } else {
            write!(f, "{}: {}: {}", self.file, self.severity, self.message)
        }
    }
}

/// A compilation request (the paper's "compilation object").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileRequest {
    /// Acting user (vfs permissions apply).
    pub user: String,
    /// Path of the source file inside the vfs.
    pub source_path: String,
}

/// What a compilation produced.
#[derive(Debug, Clone)]
pub struct CompileReport {
    /// The request this answers.
    pub request: CompileRequest,
    /// Detected language.
    pub language: LanguageId,
    /// gcc-style diagnostics (errors, warnings, notes).
    pub diagnostics: Vec<Diagnostic>,
    /// The stored artifact on success.
    pub artifact: Option<ArtifactId>,
}

impl CompileReport {
    /// Did the compilation produce an artifact?
    pub fn success(&self) -> bool {
        self.artifact.is_some()
    }

    /// Render diagnostics the way the portal's compile pane shows them.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        if self.success() {
            out.push_str(&format!(
                "compiled {} -> artifact {}\n",
                self.request.source_path,
                self.artifact.as_ref().expect("checked")
            ));
        }
        out
    }
}

impl CompileRequest {
    /// A request for `user`'s file at `source_path`.
    pub fn new(user: &str, source_path: &str) -> CompileRequest {
        CompileRequest {
            user: user.to_string(),
            source_path: source_path.to_string(),
        }
    }

    /// Phase 1 of the split pipeline: capture the source out of the vfs.
    /// The caller holds whatever lock guards the filesystem only for this
    /// call; the returned snapshot owns everything the compile phase
    /// needs, so phases 2 and 3 can run under different (or no) locks.
    pub fn snapshot(&self, fs: &Vfs) -> SourceSnapshot {
        let fail = |message: String| Diagnostic {
            severity: Severity::Error,
            file: self.source_path.clone(),
            line: 0,
            col: 0,
            message,
        };
        let fetched = match fs.read(&self.user, &self.source_path) {
            Ok(bytes) => {
                String::from_utf8(bytes).map_err(|_| fail("source is not valid UTF-8".to_string()))
            }
            Err(e) => Err(fail(e.to_string())),
        };
        SourceSnapshot {
            request: self.clone(),
            fetched,
        }
    }
}

/// Cache accounting for one compilation: stat deltas plus the live entry
/// count, captured under the same guard as the operations themselves so
/// concurrent compiles cannot misattribute each other's hits.
#[derive(Debug, Clone, Copy, Default)]
struct CacheEvents {
    hits: u64,
    misses: u64,
    evictions: u64,
    entries: usize,
    /// Whether the compile reached the cache at all. One that failed
    /// before the lookup (a read error, a non-minilang source) never read
    /// `entries`, so it must not publish it to the entries gauge.
    used: bool,
}

impl CacheEvents {
    /// Run `op` under the cache lock and accumulate its stat deltas.
    fn track<T>(
        &mut self,
        cache: &Mutex<CompileCache>,
        op: impl FnOnce(&mut CompileCache) -> T,
    ) -> T {
        let mut c = cache.lock().unwrap_or_else(PoisonError::into_inner);
        let before = c.stats();
        let out = op(&mut c);
        let after = c.stats();
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.evictions += after.evictions - before.evictions;
        self.entries = after.entries;
        self.used = true;
        out
    }
}

/// A source file captured out of the vfs (phase 1's output). Owns the
/// bytes, so compiling it requires no filesystem access.
pub struct SourceSnapshot {
    request: CompileRequest,
    fetched: Result<String, Diagnostic>,
}

impl SourceSnapshot {
    /// Phase 2: detect the language and compile. The shared cache is
    /// locked per lookup/insert only; the compiler itself runs with no
    /// locks held.
    pub fn compile(self, cache: &Mutex<CompileCache>) -> PreparedCompile {
        let started = std::time::Instant::now();
        let mut events = CacheEvents::default();
        let (request, language, diagnostics, compiled) = self.compile_parts(cache, &mut events);
        PreparedCompile {
            request,
            language,
            diagnostics,
            compiled,
            cache_events: events,
            compile_us: started.elapsed().as_micros() as u64,
        }
    }

    #[allow(clippy::type_complexity)]
    fn compile_parts(
        self,
        cache: &Mutex<CompileCache>,
        events: &mut CacheEvents,
    ) -> (
        CompileRequest,
        LanguageId,
        Vec<Diagnostic>,
        Option<(String, Program)>,
    ) {
        let request = self.request;
        let mut diagnostics = Vec::new();
        let source = match self.fetched {
            Ok(s) => s,
            Err(d) => {
                diagnostics.push(d);
                return (request, LanguageId::Unknown, diagnostics, None);
            }
        };
        let language = LanguageId::detect(&request.source_path, &source);
        if !language.executable_here() {
            diagnostics.push(Diagnostic {
                severity: Severity::Error,
                file: request.source_path.clone(),
                line: 0,
                col: 0,
                message: format!(
                    "{language} sources are recognized but not executable on this cluster"
                ),
            });
            if let Some(hint) = language.porting_hint() {
                diagnostics.push(Diagnostic {
                    severity: Severity::Note,
                    file: request.source_path.clone(),
                    line: 0,
                    col: 0,
                    message: hint.to_string(),
                });
            }
            return (request, language, diagnostics, None);
        }
        if let Some(program) = events.track(cache, |c| c.lookup(&source)) {
            return (request, language, diagnostics, Some((source, program)));
        }
        match minilang::compile(&source) {
            Ok(program) => {
                events.track(cache, |c| c.insert(&source, program.clone()));
                (request, language, diagnostics, Some((source, program)))
            }
            Err(err) => {
                let (line, col, message) = match &err {
                    LangError::Lex(e) => (e.pos.line, e.pos.col, e.message.clone()),
                    LangError::Parse(e) => (e.pos.line, e.pos.col, e.message.clone()),
                    LangError::Compile(e) => (e.pos.line, e.pos.col, e.message.clone()),
                    LangError::Runtime(e) => (0, 0, e.to_string()),
                };
                diagnostics.push(Diagnostic {
                    severity: Severity::Error,
                    file: request.source_path.clone(),
                    line,
                    col,
                    message,
                });
                (request, language, diagnostics, None)
            }
        }
    }
}

/// A finished compilation not yet recorded in an [`ArtifactStore`] —
/// phase 2's output, phase 3's input. Carries the compiled program (and
/// the source the store's content-addressed id derives from), so the
/// commit is a map insert, not a compile.
pub struct PreparedCompile {
    request: CompileRequest,
    language: LanguageId,
    diagnostics: Vec<Diagnostic>,
    compiled: Option<(String, Program)>,
    cache_events: CacheEvents,
    compile_us: u64,
}

impl PreparedCompile {
    /// Did the compilation produce a program?
    pub fn success(&self) -> bool {
        self.compiled.is_some()
    }

    /// Phase 3: record the artifact, plus telemetry into `obs`: the
    /// `ccp_toolchain_*` compile series and — when phase 2 reached the
    /// cache — the `ccp_compile_cache_*` series. The caller holds whatever lock
    /// guards the store only for this call.
    pub fn commit(self, store: &mut ArtifactStore, obs: &obs::Obs) -> CompileReport {
        let result = if self.success() { "ok" } else { "error" };
        let events = self.cache_events;
        let m = &obs.metrics;
        m.describe("ccp_toolchain_compiles_total", "compilations by result");
        m.describe(
            "ccp_toolchain_compile_duration_us",
            "compilation wall-clock latency",
        );
        m.counter("ccp_toolchain_compiles_total", &[("result", result)])
            .inc();
        m.histogram(
            "ccp_toolchain_compile_duration_us",
            &[],
            obs::DURATION_US_BOUNDS,
        )
        .record(self.compile_us);
        if events.used {
            crate::cache::register_cache_metrics(obs);
            m.counter("ccp_compile_cache_hits_total", &[])
                .add(events.hits);
            m.counter("ccp_compile_cache_misses_total", &[])
                .add(events.misses);
            m.counter("ccp_compile_cache_evictions_total", &[])
                .add(events.evictions);
            m.gauge("ccp_compile_cache_entries", &[])
                .set(events.entries as i64);
        }
        let PreparedCompile {
            request,
            language,
            diagnostics,
            compiled,
            ..
        } = self;
        let artifact = compiled.map(|(source, program)| {
            store.put(
                &request.user,
                &request.source_path,
                language,
                &source,
                program,
            )
        });
        CompileReport {
            request,
            language,
            diagnostics,
            artifact,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Vfs, ArtifactStore) {
        let mut fs = Vfs::new();
        fs.add_user("alice", 1 << 20).unwrap();
        (fs, ArtifactStore::new())
    }

    /// All three phases for `user`'s `path` on a fresh cache, telemetry
    /// discarded.
    fn compile(fs: &Vfs, store: &mut ArtifactStore, user: &str, path: &str) -> CompileReport {
        CompileRequest::new(user, path)
            .snapshot(fs)
            .compile(&Mutex::new(CompileCache::new(8)))
            .commit(store, &obs::Obs::new())
    }

    #[test]
    fn good_source_compiles_to_artifact() {
        let (mut fs, mut store) = setup();
        fs.write(
            "alice",
            "/home/alice/hello.mini",
            b"fn main() { println(42); }".to_vec(),
        )
        .unwrap();
        let report = compile(&fs, &mut store, "alice", "/home/alice/hello.mini");
        assert!(report.success(), "{:?}", report.diagnostics);
        assert_eq!(report.language, LanguageId::MiniLang);
        assert!(report.render().contains("artifact"));
        assert!(store.get(report.artifact.as_ref().unwrap()).is_some());
    }

    #[test]
    fn syntax_error_positions_reported() {
        let (mut fs, mut store) = setup();
        fs.write(
            "alice",
            "/home/alice/bad.mini",
            b"fn main() {\n  var = 3;\n}".to_vec(),
        )
        .unwrap();
        let report = compile(&fs, &mut store, "alice", "/home/alice/bad.mini");
        assert!(!report.success());
        let d = &report.diagnostics[0];
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.line, 2);
        assert!(d.to_string().contains("bad.mini:2:"));
    }

    #[test]
    fn missing_file_reported() {
        let (fs, mut store) = setup();
        let report = compile(&fs, &mut store, "alice", "/home/alice/nope.mini");
        assert!(!report.success());
        assert!(report.diagnostics[0].message.contains("no such file"));
    }

    #[test]
    fn permission_denied_reported() {
        let (mut fs, mut store) = setup();
        fs.add_user("bob", 1 << 20).unwrap();
        fs.write("alice", "/home/alice/x.mini", b"fn main() { }".to_vec())
            .unwrap();
        let report = compile(&fs, &mut store, "bob", "/home/alice/x.mini");
        assert!(!report.success());
        assert!(report.diagnostics[0].message.contains("permission denied"));
    }

    #[test]
    fn java_source_gets_porting_note() {
        let (mut fs, mut store) = setup();
        fs.write(
            "alice",
            "/home/alice/Main.java",
            b"public class Main { public static void main(String[] a) {} }".to_vec(),
        )
        .unwrap();
        let report = compile(&fs, &mut store, "alice", "/home/alice/Main.java");
        assert!(!report.success());
        assert_eq!(report.language, LanguageId::Java);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Note));
        assert!(report.render().contains("synchronized"));
    }

    #[test]
    fn split_phases_share_a_mutexed_cache() {
        let (mut fs, mut store) = setup();
        fs.write(
            "alice",
            "/home/alice/p.mini",
            b"fn main() { println(9); }".to_vec(),
        )
        .unwrap();
        let cache = Mutex::new(CompileCache::new(8));
        let req = CompileRequest::new("alice", "/home/alice/p.mini");
        // Snapshot, then drop all filesystem access before compiling.
        let snap = req.snapshot(&fs);
        drop(fs);
        let prepared = snap.compile(&cache);
        assert!(prepared.success());
        assert_eq!(store.len(), 0, "nothing stored before commit");
        let report = prepared.commit(&mut store, &obs::Obs::new());
        assert!(report.success());
        assert_eq!(store.len(), 1);
        let st = cache.lock().unwrap().stats();
        assert_eq!((st.hits, st.misses, st.entries), (0, 1, 1));
    }

    #[test]
    fn snapshot_carries_read_errors_through_commit() {
        let (fs, mut store) = setup();
        let report = CompileRequest::new("alice", "/home/alice/nope.mini")
            .snapshot(&fs)
            .compile(&Mutex::new(CompileCache::new(8)))
            .commit(&mut store, &obs::Obs::new());
        assert!(!report.success());
        assert!(report.diagnostics[0].message.contains("no such file"));
        assert!(store.is_empty());
    }

    #[test]
    fn non_utf8_rejected() {
        let (mut fs, mut store) = setup();
        fs.write("alice", "/home/alice/bin.mini", vec![0xFF, 0xFE, 0x00])
            .unwrap();
        let report = compile(&fs, &mut store, "alice", "/home/alice/bin.mini");
        assert!(!report.success());
        assert!(report.diagnostics[0].message.contains("UTF-8"));
    }
}
