//! The HTTP application: routes → portal calls → JSON/HTML responses.

use auth::{Role, Token};
use ccp_core::{Portal, PortalError};
use httpd::forms::{multipart_boundary, parse_cookies, parse_multipart, parse_query};
use httpd::json::{quantile_json, write_num, write_str, Json};
use httpd::{Method, Request, Response, Router, Server, ServerConfig, ServerHandle, Status};
use sched::JobId;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// The shared application state.
///
/// Lock order: tick gate → portal guard → vfs lock → journal. Nothing
/// takes the tick gate while it holds the portal guard.
pub struct App {
    /// The portal backend. Reads share; mutations are exclusive.
    pub portal: RwLock<Portal>,
    /// Held by a tick from before its begin until after its commit, so
    /// ticks never interleave: a second tick's dispatch never runs before
    /// the first tick's outcomes land.
    tick_gate: Mutex<()>,
    /// The portal's telemetry domain, `Arc`-shared out so metrics render
    /// and route instrumentation never need a portal lock.
    obs: Arc<obs::Obs>,
}

impl App {
    /// Wrap a portal: read-mostly routes share an `RwLock` read guard,
    /// mutations take the write guard, and the heavy operations (compile,
    /// run, analyze, a tick's job executions, a login's password stretch)
    /// run their expensive middle phase with no portal lock held at all.
    pub fn new(portal: Portal) -> Arc<App> {
        let obs = Arc::clone(portal.obs());
        Arc::new(App {
            portal: RwLock::new(portal),
            tick_gate: Mutex::new(()),
            obs,
        })
    }

    /// Advance the distributor one tick for `token`'s session: dispatch
    /// under the write guard, execute the dispatched jobs with no portal
    /// lock, land their outcomes under the write guard, all inside the
    /// tick gate.
    fn tick(&self, token: &Token) -> Result<Vec<JobId>, PortalError> {
        // The gate guards no data, so a tick that panicked leaves nothing
        // half-updated behind it.
        let _gate = self
            .tick_gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Validation and dispatch happen under ONE acquisition: a token
        // revoked between two separate lock takes could otherwise still
        // drive the clock (TOCTOU).
        let phase = self.write(|p| {
            p.whoami(token, now())?;
            Ok::<_, PortalError>(p.tick_begin())
        })?;
        let done = phase.run();
        Ok(self.write(|p| p.tick_commit(done)))
    }

    /// The portal's telemetry domain, lock-free.
    pub fn obs(&self) -> &Arc<obs::Obs> {
        &self.obs
    }

    /// Run `f` under a shared read guard, recording the wait at the
    /// profiler's `portal.lock` site.
    pub fn read<R>(&self, f: impl FnOnce(&Portal) -> R) -> R {
        let t0 = Instant::now();
        let guard = self.portal.read().unwrap_or_else(PoisonError::into_inner);
        self.observe_lock_wait(t0, "read");
        f(&guard)
    }

    /// Run `f` under the exclusive write guard, recording the wait at the
    /// profiler's `portal.lock` site.
    pub fn write<R>(&self, f: impl FnOnce(&mut Portal) -> R) -> R {
        let t0 = Instant::now();
        let mut guard = self.portal.write().unwrap_or_else(PoisonError::into_inner);
        self.observe_lock_wait(t0, "write");
        f(&mut guard)
    }

    fn observe_lock_wait(&self, since: Instant, kind: &'static str) {
        self.obs
            .profiler
            .observe("portal.lock", since.elapsed().as_micros() as u64, || {
                format!("portal {kind} guard")
            });
    }
}

/// Wall-clock seconds (session clock).
fn now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Extract the bearer token from cookie or Authorization header.
fn token_of(req: &Request) -> Option<Token> {
    if let Some(cookie) = req.header("cookie") {
        if let Some(sid) = parse_cookies(cookie).get("sid") {
            return Some(Token::from_string(sid.clone()));
        }
    }
    if let Some(auth) = req.header("authorization") {
        if let Some(rest) = auth.strip_prefix("Bearer ") {
            return Some(Token::from_string(rest.trim().to_string()));
        }
    }
    None
}

/// Map a portal error onto an HTTP status + JSON body.
fn err_response(e: &PortalError) -> Response {
    let status = match e {
        PortalError::Auth(_) | PortalError::Session(_) => Status::UNAUTHORIZED,
        PortalError::Forbidden(_) | PortalError::OutsideHome { .. } => Status::FORBIDDEN,
        PortalError::Vfs(vfs::VfsError::NotFound(_)) => Status::NOT_FOUND,
        PortalError::Vfs(vfs::VfsError::AlreadyExists(_)) => Status::CONFLICT,
        PortalError::Vfs(vfs::VfsError::QuotaExceeded { .. }) => Status::PAYLOAD_TOO_LARGE,
        PortalError::Vfs(_) | PortalError::Bootstrap(_) => Status::BAD_REQUEST,
        PortalError::Sched(sched::SchedError::NoSuchJob(_)) => Status::NOT_FOUND,
        PortalError::Sched(_) | PortalError::Exec(_) => Status::BAD_REQUEST,
        PortalError::JobLost { .. } => Status::GONE,
        PortalError::JobTimedOut { .. } => Status::REQUEST_TIMEOUT,
    };
    Response::json(
        status,
        &Json::obj(vec![("error", Json::str(e.to_string()))]),
    )
}

macro_rules! try_portal {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(e) => return err_response(&e),
        }
    };
}

/// Require a token or answer 401.
macro_rules! need_token {
    ($req:expr) => {
        match token_of($req) {
            Some(t) => t,
            None => return Response::error(Status::UNAUTHORIZED, "missing session"),
        }
    };
}

fn qparam(req: &Request, name: &str) -> Option<String> {
    parse_query(&req.query).get(name).cloned()
}

fn json_body(req: &Request) -> Option<Json> {
    Json::parse(req.body_str()).ok()
}

fn json_str(body: &Json, key: &str) -> Option<String> {
    body.get(key)?.as_str().map(String::from)
}

/// Build the full route table over shared state.
pub fn build_router(app: Arc<App>) -> Router {
    let mut router = Router::new();

    // ---- pages -------------------------------------------------------------
    {
        let app = Arc::clone(&app);
        router.get("/", move |req| crate::pages::home(&app, req));
    }
    {
        let app = Arc::clone(&app);
        router.get("/files", move |req| crate::pages::files(&app, req));
    }
    {
        let app = Arc::clone(&app);
        router.get("/jobs", move |req| crate::pages::jobs(&app, req));
    }

    // ---- auth ---------------------------------------------------------------
    {
        let app = Arc::clone(&app);
        router.post("/api/login", move |req| {
            let Some(body) = json_body(req) else {
                return Response::error(Status::BAD_REQUEST, "expected JSON body");
            };
            let (Some(user), Some(password)) =
                (json_str(&body, "user"), json_str(&body, "password"))
            else {
                return Response::error(Status::BAD_REQUEST, "need user and password");
            };
            // The credential is read under the read guard and the password
            // stretched with no portal lock; only counting the attempt and
            // issuing the session take the write guard.
            let attempt = try_portal!(app.read(|p| p.login_begin(&user)));
            let checked = attempt.check(&password);
            let token = try_portal!(app.write(|p| p.login_commit(checked, now())));
            Response::json(
                Status::OK,
                &Json::obj(vec![
                    ("token", Json::str(token.as_str())),
                    ("user", Json::str(user)),
                ]),
            )
            .with_cookie("sid", token.as_str())
        });
    }
    {
        let app = Arc::clone(&app);
        router.post("/api/logout", move |req| {
            let token = need_token!(req);
            app.write(|p| p.logout(&token));
            Response::json(Status::OK, &Json::obj(vec![("ok", Json::Bool(true))]))
        });
    }
    {
        let app = Arc::clone(&app);
        router.get("/api/whoami", move |req| {
            let token = need_token!(req);
            let (user, role) = try_portal!(app.read(|p| p.whoami(&token, now())));
            Response::json(
                Status::OK,
                &Json::obj(vec![
                    ("user", Json::str(user)),
                    ("role", Json::str(role.name())),
                ]),
            )
        });
    }

    // ---- admin ----------------------------------------------------------------
    {
        let app = Arc::clone(&app);
        router.post("/api/admin/users", move |req| {
            let token = need_token!(req);
            // A bogus session gets its 401 before the body is parsed.
            try_portal!(app.read(|p| p.whoami(&token, now())));
            let Some(body) = json_body(req) else {
                return Response::error(Status::BAD_REQUEST, "expected JSON body");
            };
            let (Some(name), Some(password)) =
                (json_str(&body, "name"), json_str(&body, "password"))
            else {
                return Response::error(Status::BAD_REQUEST, "need name and password");
            };
            let role = match json_str(&body, "role").as_deref() {
                Some("faculty") => Role::Faculty,
                Some("admin") => Role::Admin,
                _ => Role::Student,
            };
            try_portal!(app.write(|p| p.create_user(&token, &name, &password, role, now())));
            Response::json(
                Status::CREATED,
                &Json::obj(vec![("created", Json::str(name))]),
            )
        });
    }
    {
        let app = Arc::clone(&app);
        router.get("/api/admin/users", move |req| {
            let token = need_token!(req);
            let users = try_portal!(app.read(|p| p.list_users(&token, now())));
            Response::json(
                Status::OK,
                &Json::Arr(users.into_iter().map(Json::Str).collect()),
            )
        });
    }

    // ---- file manager ------------------------------------------------------------
    {
        let app = Arc::clone(&app);
        router.get("/api/files", move |req| {
            let token = need_token!(req);
            let path = qparam(req, "path").unwrap_or_default();
            let listing = try_portal!(app.read(|p| p.list_dir(&token, &path, now())));
            let rows = listing
                .into_iter()
                .map(|f| {
                    Json::obj(vec![
                        ("name", Json::str(f.name)),
                        ("dir", Json::Bool(f.is_dir)),
                        ("size", Json::num(f.size as f64)),
                        ("owner", Json::str(f.owner)),
                        ("mtime", Json::num(f.mtime as f64)),
                    ])
                })
                .collect();
            Response::json(Status::OK, &Json::Arr(rows))
        });
    }
    {
        let app = Arc::clone(&app);
        router.get("/api/file", move |req| {
            let token = need_token!(req);
            let Some(path) = qparam(req, "path") else {
                return Response::error(Status::BAD_REQUEST, "need path");
            };
            let data = try_portal!(app.read(|p| p.read_file(&token, &path, now())));
            Response::new(Status::OK)
                .with_header("Content-Type", "application/octet-stream")
                .with_body(data)
        });
    }
    {
        let app = Arc::clone(&app);
        router.post("/api/file", move |req| {
            let token = need_token!(req);
            let Some(path) = qparam(req, "path") else {
                return Response::error(Status::BAD_REQUEST, "need path");
            };
            try_portal!(app.write(|p| p.write_file(&token, &path, req.body.clone(), now())));
            Response::json(
                Status::CREATED,
                &Json::obj(vec![("saved", Json::str(path))]),
            )
        });
    }
    {
        // Multi-file upload: "the download, and upload of multiple files"
        // (paper SIV). multipart/form-data; each file part saves under the
        // target directory (?dir=..., default home).
        let app = Arc::clone(&app);
        router.post("/api/upload", move |req| {
            let token = need_token!(req);
            // A bogus session gets its 401 before the body is parsed.
            try_portal!(app.read(|p| p.whoami(&token, now())));
            let Some(boundary) = req.header("content-type").and_then(multipart_boundary) else {
                return Response::error(Status::BAD_REQUEST, "expected multipart/form-data");
            };
            let dir = qparam(req, "dir").unwrap_or_default();
            let parts = parse_multipart(&req.body, &boundary);
            let mut saved = Vec::new();
            for part in parts {
                let Some(filename) = part.filename else {
                    continue;
                };
                if filename.is_empty() {
                    continue;
                }
                let path = if dir.is_empty() {
                    filename.clone()
                } else {
                    format!("{dir}/{filename}")
                };
                try_portal!(app.write(|p| p.write_file(&token, &path, part.data, now())));
                saved.push(Json::str(path));
            }
            Response::json(
                Status::CREATED,
                &Json::obj(vec![("saved", Json::Arr(saved))]),
            )
        });
    }
    {
        let app = Arc::clone(&app);
        router.post("/api/mkdir", move |req| {
            let token = need_token!(req);
            let Some(path) = qparam(req, "path") else {
                return Response::error(Status::BAD_REQUEST, "need path");
            };
            try_portal!(app.write(|p| p.mkdir(&token, &path, now())));
            Response::json(
                Status::CREATED,
                &Json::obj(vec![("created", Json::str(path))]),
            )
        });
    }
    {
        let app = Arc::clone(&app);
        router.post("/api/rm", move |req| {
            let token = need_token!(req);
            let Some(path) = qparam(req, "path") else {
                return Response::error(Status::BAD_REQUEST, "need path");
            };
            try_portal!(app.write(|p| p.remove(&token, &path, now())));
            Response::json(Status::OK, &Json::obj(vec![("removed", Json::str(path))]))
        });
    }
    {
        let app = Arc::clone(&app);
        router.post("/api/mv", move |req| {
            let token = need_token!(req);
            let (Some(from), Some(to)) = (qparam(req, "from"), qparam(req, "to")) else {
                return Response::error(Status::BAD_REQUEST, "need from and to");
            };
            try_portal!(app.write(|p| p.rename(&token, &from, &to, now())));
            Response::json(Status::OK, &Json::obj(vec![("moved", Json::str(to))]))
        });
    }
    {
        let app = Arc::clone(&app);
        router.post("/api/cp", move |req| {
            let token = need_token!(req);
            let (Some(from), Some(to)) = (qparam(req, "from"), qparam(req, "to")) else {
                return Response::error(Status::BAD_REQUEST, "need from and to");
            };
            try_portal!(app.write(|p| p.copy(&token, &from, &to, now())));
            Response::json(Status::OK, &Json::obj(vec![("copied", Json::str(to))]))
        });
    }
    {
        let app = Arc::clone(&app);
        router.get("/api/quota", move |req| {
            let token = need_token!(req);
            let q = try_portal!(app.read(|p| p.quota(&token, now())));
            Response::json(
                Status::OK,
                &Json::obj(vec![
                    ("used", Json::num(q.used as f64)),
                    ("limit", Json::num(q.limit as f64)),
                ]),
            )
        });
    }

    // ---- compile & run -------------------------------------------------------------
    {
        let app = Arc::clone(&app);
        router.post("/api/compile", move |req| {
            let token = need_token!(req);
            let Some(path) = qparam(req, "path") else {
                return Response::error(Status::BAD_REQUEST, "need path");
            };
            // Two-phase: validate + snapshot inputs under a brief read
            // guard, compile with NO portal lock held, then commit the
            // artifact under a brief write guard. The stamp check at
            // commit drops results from sessions revoked mid-compile.
            let phase = try_portal!(app.read(|p| p.compile_begin(&token, &path, now())));
            let done = phase.run();
            let report = try_portal!(app.write(|p| p.compile_commit(done, now())));
            let status = if report.success() {
                Status::OK
            } else {
                Status::BAD_REQUEST
            };
            Response::json(
                status,
                &Json::obj(vec![
                    ("success", Json::Bool(report.success())),
                    ("language", Json::str(report.language.to_string())),
                    (
                        "artifact",
                        report
                            .artifact
                            .as_ref()
                            .map(|a| Json::str(a.to_string()))
                            .unwrap_or(Json::Null),
                    ),
                    (
                        "diagnostics",
                        Json::Arr(
                            report
                                .diagnostics
                                .iter()
                                .map(|d| Json::str(d.to_string()))
                                .collect(),
                        ),
                    ),
                ]),
            )
        });
    }
    {
        let app = Arc::clone(&app);
        router.get("/api/artifacts", move |req| {
            let token = need_token!(req);
            let arts = try_portal!(app.read(|p| p.my_artifacts(&token, now())));
            let rows = arts
                .into_iter()
                .map(|(id, src)| Json::obj(vec![("id", Json::str(id)), ("source", Json::str(src))]))
                .collect();
            Response::json(Status::OK, &Json::Arr(rows))
        });
    }
    {
        let app = Arc::clone(&app);
        router.post("/api/run", move |req| {
            let token = need_token!(req);
            let Some(artifact) = qparam(req, "artifact") else {
                return Response::error(Status::BAD_REQUEST, "need artifact");
            };
            let seed: u64 = qparam(req, "seed")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            // A bogus session gets its 401 before the body is split.
            try_portal!(app.read(|p| p.whoami(&token, now())));
            let stdin: Vec<String> = req.body_str().lines().map(String::from).collect();
            // The whole VM execution runs without the portal lock; only
            // the begin/finish bookends touch it, both briefly.
            let phase =
                try_portal!(app.read(|p| p.run_begin(&token, &artifact, seed, &stdin, now())));
            let done = phase.run();
            let report = try_portal!(app.read(|p| p.run_finish(done, now())));
            match (&report.outcome, &report.error) {
                (Some(out), _) => Response::json(
                    Status::OK,
                    &Json::obj(vec![
                        ("success", Json::Bool(true)),
                        ("stdout", Json::str(out.stdout.clone())),
                        ("executed", Json::num(out.executed as f64)),
                        ("threads", Json::num(out.peak_threads as f64)),
                    ]),
                ),
                (None, Some(e)) => Response::json(
                    Status::OK,
                    &Json::obj(vec![
                        ("success", Json::Bool(false)),
                        ("error", Json::str(e.to_string())),
                    ]),
                ),
                (None, None) => Response::error(Status::INTERNAL, "executor returned nothing"),
            }
        });
    }
    {
        let app = Arc::clone(&app);
        // Systematic interleaving analysis (the "analyze" button): verdict,
        // exploration counters, and — on failure — the repro schedule.
        router.post("/api/analyze", move |req| {
            let token = need_token!(req);
            let Some(artifact) = qparam(req, "artifact") else {
                return Response::error(Status::BAD_REQUEST, "need artifact");
            };
            let budget: Option<u64> = qparam(req, "budget").and_then(|s| s.parse().ok());
            // Exploration burns real checker CPU on the shared pool; no
            // portal lock is held while it runs.
            let phase =
                try_portal!(app.read(|p| p.analyze_begin(&token, &artifact, budget, now())));
            let done = phase.run();
            let view = try_portal!(app.read(|p| p.analyze_finish(done, now())));
            let repro = view.repro.iter().map(|&t| Json::num(t as f64)).collect();
            Response::json(
                Status::OK,
                &Json::obj(vec![
                    ("artifact", Json::str(view.artifact)),
                    ("verdict", Json::str(view.verdict)),
                    ("detail", Json::str(view.detail)),
                    ("schedules", Json::num(view.schedules as f64)),
                    ("steps", Json::num(view.steps as f64)),
                    ("complete", Json::Bool(view.complete)),
                    (
                        "exhaustive_within_bound",
                        Json::Bool(view.exhaustive_within_bound),
                    ),
                    ("repro", Json::Arr(repro)),
                ]),
            )
        });
    }

    // ---- the job distributor ---------------------------------------------------------
    {
        let app = Arc::clone(&app);
        router.post("/api/jobs", move |req| {
            let token = need_token!(req);
            // A bogus session gets its 401 before the body is parsed.
            try_portal!(app.read(|p| p.whoami(&token, now())));
            let Some(body) = json_body(req) else {
                return Response::error(Status::BAD_REQUEST, "expected JSON body");
            };
            let Some(artifact) = json_str(&body, "artifact") else {
                return Response::error(Status::BAD_REQUEST, "need artifact");
            };
            let cores = body.get("cores").and_then(Json::as_num).unwrap_or(1.0) as u32;
            let est = body
                .get("estimated_ticks")
                .and_then(Json::as_num)
                .unwrap_or(10.0) as u64;
            // Traced: the portal mints an http.request root span and
            // threads it through the scheduler, so /api/trace/:id can
            // render the job's whole life as one tree.
            let id = try_portal!(app.write(|p| p.submit_job_traced(
                &token,
                &artifact,
                cores,
                est,
                now()
            )));
            Response::json(
                Status::CREATED,
                &Json::obj(vec![("job", Json::num(id.0 as f64))]),
            )
        });
    }
    {
        let app = Arc::clone(&app);
        router.get("/api/jobs", move |req| {
            let token = need_token!(req);
            let jobs = try_portal!(app.read(|p| p.jobs(&token, now())));
            let mut body = String::from("[");
            for (i, j) in jobs.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                write_job_row(j, &mut body);
            }
            body.push(']');
            json_text(body)
        });
    }
    {
        let app = Arc::clone(&app);
        router.get("/api/jobs/:id", move |req| {
            let token = need_token!(req);
            let Some(id) = req.param("id").and_then(|s| s.parse::<u64>().ok()) else {
                return Response::error(Status::BAD_REQUEST, "bad job id");
            };
            let job = try_portal!(app.read(|p| p.job(&token, JobId(id), now())));
            let mut body = String::new();
            write_job_row(&job, &mut body);
            json_text(body)
        });
    }
    {
        // Incremental stdout poll: `?from=` is the byte offset the client
        // already holds; the response carries only the growth. The
        // semester workload polls this in a tight loop, so the payload
        // must stay O(new bytes), not O(stream). An offset inside a UTF-8
        // character is moved forward to the next boundary, so the reply's
        // `from` is where `data` really starts: `len - data.len()`.
        let app = Arc::clone(&app);
        router.get("/api/jobs/:id/stdout", move |req| {
            let token = need_token!(req);
            let Some(id) = req.param("id").and_then(|s| s.parse::<u64>().ok()) else {
                return Response::error(Status::BAD_REQUEST, "bad job id");
            };
            let from = qparam(req, "from")
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or(0);
            let (len, tail) =
                try_portal!(app.read(|p| p.job_stdout_tail(&token, JobId(id), from, now())));
            Response::json(
                Status::OK,
                &Json::obj(vec![
                    ("len", Json::num(len as f64)),
                    ("from", Json::num((len - tail.len()) as f64)),
                    ("data", Json::str(tail)),
                ]),
            )
        });
    }
    {
        let app = Arc::clone(&app);
        router.post("/api/jobs/:id/stdin", move |req| {
            let token = need_token!(req);
            let Some(id) = req.param("id").and_then(|s| s.parse::<u64>().ok()) else {
                return Response::error(Status::BAD_REQUEST, "bad job id");
            };
            try_portal!(app.write(|p| p.send_stdin(&token, JobId(id), req.body_str(), now())));
            Response::json(Status::OK, &Json::obj(vec![("ok", Json::Bool(true))]))
        });
    }
    {
        let app = Arc::clone(&app);
        router.post("/api/jobs/:id/cancel", move |req| {
            let token = need_token!(req);
            let Some(id) = req.param("id").and_then(|s| s.parse::<u64>().ok()) else {
                return Response::error(Status::BAD_REQUEST, "bad job id");
            };
            try_portal!(app.write(|p| p.cancel_job(&token, JobId(id), now())));
            Response::json(
                Status::OK,
                &Json::obj(vec![("cancelled", Json::num(id as f64))]),
            )
        });
    }
    {
        let app = Arc::clone(&app);
        router.post("/api/tick", move |req| {
            let token = need_token!(req);
            // Only authenticated users may pump the clock (any role: the
            // test driver and the background ticker both authenticate).
            let dispatched = try_portal!(app.tick(&token));
            Response::json(
                Status::OK,
                &Json::obj(vec![(
                    "dispatched",
                    Json::Arr(dispatched.iter().map(|j| Json::num(j.0 as f64)).collect()),
                )]),
            )
        });
    }
    {
        // Admin: stop placing new jobs on a node, letting running work finish.
        let app = Arc::clone(&app);
        router.post("/api/admin/drain", move |req| {
            let token = need_token!(req);
            let (Some(segment), Some(slot)) = (
                qparam(req, "segment").and_then(|s| s.parse::<usize>().ok()),
                qparam(req, "slot").and_then(|s| s.parse::<usize>().ok()),
            ) else {
                return Response::error(Status::BAD_REQUEST, "need segment and slot");
            };
            try_portal!(app.write(|p| p.drain_node(&token, segment, slot, now())));
            Response::json(Status::OK, &Json::obj(vec![("draining", Json::Bool(true))]))
        });
    }
    {
        let app = Arc::clone(&app);
        router.post("/api/admin/undrain", move |req| {
            let token = need_token!(req);
            let (Some(segment), Some(slot)) = (
                qparam(req, "segment").and_then(|s| s.parse::<usize>().ok()),
                qparam(req, "slot").and_then(|s| s.parse::<usize>().ok()),
            ) else {
                return Response::error(Status::BAD_REQUEST, "need segment and slot");
            };
            try_portal!(app.write(|p| p.undrain_node(&token, segment, slot, now())));
            Response::json(
                Status::OK,
                &Json::obj(vec![("draining", Json::Bool(false))]),
            )
        });
    }
    {
        // Unauthenticated liveness/health probe: degraded flag, the
        // per-node rows it is derived from, and the headline gauges —
        // all one snapshot, so the counts cannot contradict the flag.
        let app = Arc::clone(&app);
        router.get("/api/health", move |_req| {
            // The view is cloned out under the guard; serialization below
            // happens with no portal lock held. The server gauge lives in
            // the shared registry and needs no lock at all.
            let h = app.read(|p| p.health_view());
            let open_connections = app
                .obs()
                .metrics
                .gauge("ccp_httpd_open_connections", &[])
                .get();
            let nodes = h
                .nodes
                .into_iter()
                .map(|n| {
                    Json::obj(vec![
                        ("segment", Json::num(n.segment as f64)),
                        ("slot", Json::num(n.slot as f64)),
                        ("health", Json::str(n.health)),
                        ("cores", Json::num(n.cores as f64)),
                    ])
                })
                .collect();
            let recovery = h.recovery.map_or(Json::Null, |r| {
                Json::obj(vec![
                    (
                        "snapshot_lsn",
                        r.snapshot_lsn
                            .map(|l| Json::num(l as f64))
                            .unwrap_or(Json::Null),
                    ),
                    ("snapshot_corrupt", Json::Bool(r.snapshot_corrupt)),
                    ("records_replayed", Json::num(r.records_replayed as f64)),
                    ("torn_bytes", Json::num(r.torn_bytes as f64)),
                    ("corrupt_records", Json::num(r.corrupt_records as f64)),
                    ("replay_errors", Json::num(r.replay_errors as f64)),
                    ("last_lsn", Json::num(r.last_lsn as f64)),
                    ("recovery_us", Json::num(r.wall_us as f64)),
                ])
            });
            Response::json(
                Status::OK,
                &Json::obj(vec![
                    ("degraded", Json::Bool(h.degraded)),
                    ("nodes", Json::Arr(nodes)),
                    ("nodes_up", Json::num(h.nodes_up as f64)),
                    ("nodes_draining", Json::num(h.nodes_draining as f64)),
                    ("nodes_down", Json::num(h.nodes_down as f64)),
                    ("queue_depth", Json::num(h.queue_depth as f64)),
                    ("jobs_running", Json::num(h.jobs_running as f64)),
                    ("open_connections", Json::num(open_connections as f64)),
                    ("durable", Json::Bool(h.durable)),
                    ("recovery", recovery),
                    (
                        "wal_error",
                        h.wal_error.map(Json::str).unwrap_or(Json::Null),
                    ),
                    (
                        "alerts",
                        Json::Arr(h.alerts.iter().map(alert_json).collect()),
                    ),
                ]),
            )
        });
    }
    {
        let app = Arc::clone(&app);
        router.get("/api/status", move |_req| {
            let (free, total, util) = app.read(|p| p.cluster_status());
            Response::json(
                Status::OK,
                &Json::obj(vec![
                    ("free_cores", Json::num(free as f64)),
                    ("total_cores", Json::num(total as f64)),
                    ("utilization", Json::num(util)),
                ]),
            )
        });
    }

    // ---- telemetry -------------------------------------------------------------
    {
        // Prometheus text exposition. Public like /api/health: the body is
        // aggregates only, no per-user data.
        let app = Arc::clone(&app);
        router.get("/api/metrics", move |_req| {
            // Republish live gauges under a brief guard, then render the
            // full exposition from the shared registry with no portal
            // lock held — the render walks every family and is exactly
            // the kind of work a scrape must not serialize behind.
            app.read(|p| p.publish_gauges());
            let text = app.obs().metrics.render();
            Response::new(Status::OK)
                .with_header("Content-Type", "text/plain; version=0.0.4")
                .with_body(text.into_bytes())
        });
    }
    {
        // Continuous-observability dashboard: windowed rates, sliding
        // quantiles, and alert state from the time-series store. Public
        // like /api/metrics — aggregates only.
        let app = Arc::clone(&app);
        router.get("/api/dashboard", move |_req| {
            // The view (a small struct of panels) is built under a read
            // guard; all JSON serialization happens after release.
            let d = app.read(|p| p.dashboard_view());
            let rate = |p: &ccp_core::RatePanel| {
                Json::obj(vec![
                    ("total", Json::num(p.total as f64)),
                    (
                        "rate_milli",
                        p.rate_milli
                            .map(|r| Json::num(r as f64))
                            .unwrap_or(Json::Null),
                    ),
                ])
            };
            let quantiles = |p: &ccp_core::QuantilePanel| {
                Json::obj(vec![
                    ("p50", quantile_json(p.p50)),
                    ("p99", quantile_json(p.p99)),
                ])
            };
            Response::json(
                Status::OK,
                &Json::obj(vec![
                    ("at", Json::num(d.at as f64)),
                    ("window", Json::num(d.window as f64)),
                    ("captures", Json::num(d.captures as f64)),
                    ("evicted", Json::num(d.evicted as f64)),
                    ("queue_depth", Json::num(d.queue_depth as f64)),
                    (
                        "queue_depth_avg_milli",
                        d.queue_depth_avg_milli
                            .map(|v| Json::num(v as f64))
                            .unwrap_or(Json::Null),
                    ),
                    ("jobs_running", Json::num(d.jobs_running as f64)),
                    ("submitted", rate(&d.submitted)),
                    ("completed", rate(&d.completed)),
                    ("dispatched", rate(&d.dispatched)),
                    ("node_lost", rate(&d.node_lost)),
                    ("wait_ticks", quantiles(&d.wait_ticks)),
                    ("run_ticks", quantiles(&d.run_ticks)),
                    (
                        "alerts",
                        Json::Arr(d.alerts.iter().map(alert_json).collect()),
                    ),
                ]),
            )
        });
    }
    {
        // Admin: the contention profiler's slowest-operations log.
        let app = Arc::clone(&app);
        router.get("/api/admin/slow", move |req| {
            let token = need_token!(req);
            let ops = try_portal!(app.read(|p| p.slow_ops(&token, now())));
            let rows = ops
                .into_iter()
                .map(|op| {
                    Json::obj(vec![
                        ("site", Json::str(op.site)),
                        ("us", Json::num(op.us as f64)),
                        ("detail", Json::str(op.detail)),
                    ])
                })
                .collect();
            Response::json(Status::OK, &Json::obj(vec![("slow", Json::Arr(rows))]))
        });
    }
    {
        let app = Arc::clone(&app);
        router.get("/api/trace/:id", move |req| {
            let token = need_token!(req);
            let Some(id) = req.param("id").and_then(|s| s.parse::<u64>().ok()) else {
                return Response::error(Status::BAD_REQUEST, "bad job id");
            };
            // One acquisition for both views, so the timeline and the
            // span tree cannot disagree about the job's state.
            let (timeline, tree) = try_portal!(app.read(|p| {
                let timeline = p.job_timeline(&token, JobId(id), now())?;
                let tree = p.job_trace_tree(&token, JobId(id), now())?;
                Ok::<_, PortalError>((timeline, tree))
            }));
            let rows = timeline
                .into_iter()
                .map(|e| {
                    Json::obj(vec![
                        ("at", Json::num(e.at as f64)),
                        ("event", Json::str(e.event)),
                        (
                            "attrs",
                            Json::Obj(
                                e.attrs
                                    .into_iter()
                                    .map(|(k, v)| (k, Json::Str(v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect();
            let spans = tree
                .spans
                .into_iter()
                .map(|s| {
                    Json::obj(vec![
                        ("id", Json::num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map(|p| Json::num(p as f64)).unwrap_or(Json::Null),
                        ),
                        ("name", Json::str(s.name)),
                        ("start", Json::num(s.start as f64)),
                        (
                            "end",
                            s.end.map(|e| Json::num(e as f64)).unwrap_or(Json::Null),
                        ),
                        (
                            "attrs",
                            Json::Obj(
                                s.attrs
                                    .into_iter()
                                    .map(|(k, v)| (k, Json::Str(v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect();
            Response::json(
                Status::OK,
                &Json::obj(vec![
                    ("job", Json::num(id as f64)),
                    ("timeline", Json::Arr(rows)),
                    (
                        "root",
                        tree.root.map(|r| Json::num(r as f64)).unwrap_or(Json::Null),
                    ),
                    ("spans", Json::Arr(spans)),
                    ("truncated", Json::num(tree.truncated as f64)),
                ]),
            )
        });
    }
    {
        let app = Arc::clone(&app);
        router.get("/api/admin/events", move |req| {
            let token = need_token!(req);
            let limit = qparam(req, "limit")
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or(100);
            let events = try_portal!(app.read(|p| p.recent_events(&token, limit, now())));
            let truncated = app.obs().events.dropped();
            let rows = events
                .into_iter()
                .map(|e| {
                    Json::obj(vec![
                        ("at", Json::num(e.at as f64)),
                        ("kind", Json::str(e.kind)),
                        (
                            "fields",
                            Json::Obj(
                                e.fields
                                    .into_iter()
                                    .map(|(k, v)| (k, Json::Str(v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect();
            Response::json(
                Status::OK,
                &Json::obj(vec![
                    ("events", Json::Arr(rows)),
                    ("truncated", Json::num(truncated as f64)),
                ]),
            )
        });
    }

    // Route the request-level telemetry (per-route counters, latency
    // histograms, access log) into the portal's own domain, so one
    // /api/metrics scrape covers the whole stack.
    router.set_obs(Arc::clone(app.obs()));

    router
}

fn alert_json(a: &ccp_core::AlertView) -> Json {
    Json::obj(vec![
        ("slo", Json::str(a.slo.clone())),
        ("firing", Json::Bool(a.firing)),
        (
            "since",
            a.since.map(|t| Json::num(t as f64)).unwrap_or(Json::Null),
        ),
        ("transitions", Json::num(a.transitions as f64)),
    ])
}

/// Append one job-monitor row as a JSON object. The keys go in the
/// sorted order a [`Json::Obj`] writes them, so the bytes equal those of
/// the same row built as a tree, without building one per row.
fn write_job_row(j: &ccp_core::JobView, out: &mut String) {
    out.push_str("{\"attempt\":");
    write_num(f64::from(j.attempt), out);
    out.push_str(",\"cores\":");
    write_num(f64::from(j.cores), out);
    out.push_str(",\"executable\":");
    write_str(&j.executable, out);
    out.push_str(",\"id\":");
    write_num(j.id.0 as f64, out);
    out.push_str(",\"last_failure\":");
    match &j.last_failure {
        Some(f) => write_str(f, out),
        None => out.push_str("null"),
    }
    out.push_str(",\"state\":");
    write_str(&j.state_label, out);
    out.push_str(",\"stderr\":");
    write_str(&j.stderr, out);
    out.push_str(",\"stdout\":");
    write_str(&j.stdout, out);
    out.push_str(",\"user\":");
    write_str(&j.user, out);
    out.push('}');
}

/// A 200 response whose JSON text the route wrote itself, with the
/// header [`Response::json`] sets.
fn json_text(body: String) -> Response {
    Response::new(Status::OK)
        .with_header("Content-Type", "application/json")
        .with_body(body.into_bytes())
}

/// Serve the portal on a real socket, access log on. The caller keeps the
/// [`ServerHandle`] alive for the server's lifetime.
pub fn serve(app: Arc<App>, addr: &str) -> std::io::Result<ServerHandle> {
    serve_with_config(
        app,
        addr,
        ServerConfig {
            access_log: true,
            ..ServerConfig::default()
        },
    )
}

/// Serve with explicit server limits — the load harness raises
/// `max_inflight` far past the classroom default to exercise the
/// reactor's connection capacity.
pub fn serve_with_config(
    app: Arc<App>,
    addr: &str,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    // The server shares the portal's registry, so request metrics land in
    // the same /api/metrics exposition the portal already serves — and the
    // reactor's eagerly-registered families show up on a fresh scrape.
    let obs = Arc::clone(app.obs());
    Server::with_config(build_router(app), config)
        .with_obs(obs)
        .spawn(addr)
}

/// Convenience used by pages and tests: dispatch a synthetic request.
pub fn dispatch(
    router: &Router,
    method: Method,
    path: &str,
    body: &[u8],
    token: Option<&str>,
) -> Response {
    let mut req = Request::synthetic(method, path, body);
    if let Some(t) = token {
        req = req.with_header("cookie", &format!("sid={t}"));
    }
    router.dispatch(&mut req)
}
