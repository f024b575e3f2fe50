//! Contention and revocation under the fine-grained portal lock: many
//! concurrent sessions mixing heavy operations (compile, analyze) with
//! light ones (polling, ticking) over real sockets, on BOTH front-end
//! engines — plus a session logged out while its analysis is in flight.
//!
//! What the global-mutex design could hide and this suite pins down:
//!
//! * no deadlock: every client finishes its script within the watchdog;
//! * no lost updates: every job the class submitted reaches a terminal
//!   state and stays attributed to its submitter;
//! * no torn state: a logout racing a two-phase heavy operation either
//!   lets the result land (logout after commit) or drops it with a 401
//!   (logout before commit) — never a panic, never a corrupted portal;
//! * no fatal request: a hostile body to an unauthenticated route gets a
//!   4xx and the portal keeps serving;
//! * no stalled worker: a body shaped to make a parser superlinear — one
//!   JSON string filling `MAX_BODY`, or a multipart body scanned for a
//!   30 KiB boundary — is answered within seconds.

use ccp_core::{Portal, PortalConfig};
use cluster::ClusterSpec;
use httpd::http::MAX_BODY;
use httpd::json::Json;
use httpd::{Engine, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use webportal::app::serve_with_config;
use webportal::App;

const STUDENTS: usize = 4;
const ROUNDS: usize = 6;
/// Whole-test watchdog: generous for slow CI, far below a hang.
const WATCHDOG: Duration = Duration::from_secs(120);

/// A small racy-but-terminating program: enough interleavings that
/// `/api/analyze` does real exploration, cheap enough to stay fast.
const SOURCE: &str = r#"
var total = 0;
fn bump(n) {
    for (var i = 0; i < n; i = i + 1) {
        atomic_add(total, 1);
    }
}
fn main() {
    var a = spawn bump(2);
    var b = spawn bump(2);
    join(a);
    join(b);
    println("total = ", total);
    return total;
}
"#;

// ---- a minimal blocking keep-alive HTTP client -------------------------

struct Client {
    stream: TcpStream,
    addr: SocketAddr,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect portal");
        stream.set_nodelay(true).unwrap();
        Client { stream, addr }
    }

    /// One request/response exchange; reconnects once on a dropped socket
    /// (keep-alive limits are server policy, not a test failure).
    fn call(&mut self, method: &str, path: &str, token: Option<&str>, body: &[u8]) -> (u16, Json) {
        let cookie = token.map(|t| format!("Cookie: sid={t}\r\n"));
        self.call_with(method, path, cookie.as_deref().unwrap_or(""), body)
    }

    /// [`Client::call`] with `headers`, complete `Name: value\r\n` lines,
    /// sent verbatim.
    fn call_with(&mut self, method: &str, path: &str, headers: &str, body: &[u8]) -> (u16, Json) {
        match self.try_call(method, path, headers, body) {
            Ok(r) => r,
            Err(_) => {
                self.stream = TcpStream::connect(self.addr).expect("reconnect portal");
                self.stream.set_nodelay(true).unwrap();
                self.try_call(method, path, headers, body)
                    .expect("retried call")
            }
        }
    }

    fn try_call(
        &mut self,
        method: &str,
        path: &str,
        headers: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Json)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: portal\r\nConnection: keep-alive\r\n\
             Content-Length: {}\r\n{headers}\r\n",
            body.len()
        );
        let mut req = head.into_bytes();
        req.extend_from_slice(body);
        self.stream.write_all(&req)?;

        let mut buf = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(done) = parse_response(&buf) {
                return Ok(done);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn parse_response(buf: &[u8]) -> Option<(u16, Json)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.get(9..12)?.parse().ok()?;
    let mut len = 0usize;
    for line in head.lines().skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().ok()?;
            }
        }
    }
    if buf.len() < head_end + 4 + len {
        return None;
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..head_end + 4 + len]);
    Some((status, Json::parse(&body).unwrap_or(Json::Null)))
}

// ---- setup --------------------------------------------------------------

fn serve(engine: Engine) -> (httpd::ServerHandle, String) {
    let mut portal = Portal::new(PortalConfig {
        cluster: ClusterSpec::small(2, 2),
        ..PortalConfig::default()
    });
    portal.bootstrap_admin("admin", "super-secret9").unwrap();
    let app = App::new(portal);
    let handle = serve_with_config(
        Arc::clone(&app),
        "127.0.0.1:0",
        ServerConfig {
            engine,
            workers: 8,
            max_inflight: 1024,
            read_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(60),
            ..ServerConfig::default()
        },
    )
    .expect("spawn portal server");
    let mut admin = Client::connect(handle.addr());
    let (status, body) = admin.call(
        "POST",
        "/api/login",
        None,
        br#"{"user":"admin","password":"super-secret9"}"#,
    );
    assert_eq!(status, 200, "{body:?}");
    let token = body.get("token").unwrap().as_str().unwrap().to_string();
    (handle, token)
}

fn login(c: &mut Client, user: &str, password: &str) -> String {
    let (status, body) = c.call(
        "POST",
        "/api/login",
        None,
        format!(r#"{{"user":"{user}","password":"{password}"}}"#).as_bytes(),
    );
    assert_eq!(status, 200, "login {user}: {body:?}");
    body.get("token").unwrap().as_str().unwrap().to_string()
}

// ---- the stress test ----------------------------------------------------

/// One student's semester in miniature; returns the job ids it submitted.
/// Panics (failing the test) on any 5xx or any unexpected status.
fn student_script(addr: SocketAddr, name: &str, password: &str) -> Vec<u64> {
    let mut c = Client::connect(addr);
    let token = login(&mut c, name, password);
    let mut jobs = Vec::new();
    for round in 0..ROUNDS {
        let path = format!("/api/file?path={name}_r{round}.mini");
        let (status, body) = c.call("POST", &path, Some(&token), SOURCE.as_bytes());
        assert_eq!(status, 201, "write {name} r{round}: {body:?}");
        let path = format!("/api/compile?path={name}_r{round}.mini");
        let (status, body) = c.call("POST", &path, Some(&token), b"");
        assert_eq!(status, 200, "compile {name} r{round}: {body:?}");
        let artifact = body.get("artifact").unwrap().as_str().unwrap().to_string();

        // Heavy: explore a slice of the schedule tree.
        let path = format!("/api/analyze?artifact={artifact}&budget=24");
        let (status, body) = c.call("POST", &path, Some(&token), b"");
        assert_eq!(status, 200, "analyze {name} r{round}: {body:?}");

        // Submit to the distributor and pump it once.
        let body_json = format!(r#"{{"artifact":"{artifact}","cores":1,"estimated_ticks":2}}"#);
        let (status, body) = c.call("POST", "/api/jobs", Some(&token), body_json.as_bytes());
        assert_eq!(status, 201, "submit {name} r{round}: {body:?}");
        jobs.push(body.get("job").unwrap().as_num().unwrap() as u64);
        let (status, _) = c.call("POST", "/api/tick", Some(&token), b"");
        assert_eq!(status, 200, "tick {name} r{round}");

        // Light: poll like a dashboard would.
        for route in ["/api/jobs", "/api/whoami", "/api/dashboard", "/api/status"] {
            let (status, _) = c.call("GET", route, Some(&token), b"");
            assert_eq!(status, 200, "poll {route} as {name}");
        }
    }
    jobs
}

fn stress_engine(engine: Engine) {
    let (handle, admin_token) = serve(engine);
    let addr = handle.addr();
    let mut admin = Client::connect(addr);
    for s in 0..STUDENTS {
        let body = format!(r#"{{"name":"stress{s}","password":"password99","role":"student"}}"#);
        let (status, resp) = admin.call(
            "POST",
            "/api/admin/users",
            Some(&admin_token),
            body.as_bytes(),
        );
        assert_eq!(status, 201, "create stress{s}: {resp:?}");
    }

    let mut submitted: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..STUDENTS)
            .map(|s| scope.spawn(move || student_script(addr, &format!("stress{s}"), "password99")))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("student thread"))
            .collect()
    });
    submitted.sort_unstable();
    submitted.dedup();
    assert_eq!(
        submitted.len(),
        STUDENTS * ROUNDS,
        "every submission got a distinct job id"
    );

    // Drain the distributor: every submitted job must reach a terminal
    // state within a bounded number of ticks.
    for _ in 0..200 {
        let (status, _) = admin.call("POST", "/api/tick", Some(&admin_token), b"");
        assert_eq!(status, 200);
        let (status, jobs) = admin.call("GET", "/api/jobs", Some(&admin_token), b"");
        assert_eq!(status, 200);
        let pending = count_nonterminal(&jobs);
        if pending == 0 {
            break;
        }
    }
    let (status, jobs) = admin.call("GET", "/api/jobs", Some(&admin_token), b"");
    assert_eq!(status, 200);
    assert_eq!(count_nonterminal(&jobs), 0, "all jobs terminal: {jobs:?}");
    let seen = jobs.as_arr().map(|a| a.len()).unwrap_or(0);
    assert!(
        seen >= STUDENTS * ROUNDS,
        "no lost jobs: saw {seen}, submitted {}",
        STUDENTS * ROUNDS
    );
    handle.shutdown();
}

fn count_nonterminal(jobs: &Json) -> usize {
    jobs.as_arr()
        .map(|arr| {
            arr.iter()
                .filter(|j| {
                    let label = j.get("state").and_then(Json::as_str).unwrap_or("");
                    label.starts_with("pending")
                        || label.starts_with("running")
                        || label.starts_with("requeued")
                })
                .count()
        })
        .unwrap_or(0)
}

/// Wrap an engine run in a watchdog so a deadlock fails fast instead of
/// hanging the suite.
fn with_watchdog(name: &'static str, f: impl FnOnce() + Send + 'static) {
    with_deadline(name, WATCHDOG, f);
}

/// Run `f`, failing if it has not finished within `limit`.
fn with_deadline(name: &'static str, limit: Duration, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let t = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("{name}: deadlock or stall — watchdog fired after {limit:?}"));
    t.join().expect("watchdogged test body");
}

#[test]
fn concurrent_class_survives_on_the_reactor_engine() {
    with_watchdog("reactor stress", || stress_engine(Engine::Reactor));
}

#[test]
fn concurrent_class_survives_on_the_thread_engine() {
    with_watchdog("thread stress", || stress_engine(Engine::Threads));
}

/// A 1 MiB login body of `[`s: the JSON parser refuses it at its depth
/// cap with a 400, rather than recursing once per byte until the worker's
/// stack overflows and the whole process aborts.
#[test]
fn nested_json_body_gets_400_and_the_portal_keeps_serving() {
    with_watchdog("nested json", || {
        for engine in [Engine::Reactor, Engine::Threads] {
            let (handle, _) = serve(engine);
            let mut c = Client::connect(handle.addr());
            let (status, body) = c.call("POST", "/api/login", None, &vec![b'['; 1 << 20]);
            assert_eq!(status, 400, "{engine:?}: {body:?}");
            let (status, body) = c.call("GET", "/api/health", None, b"");
            assert_eq!(status, 200, "{engine:?}: {body:?}");
            handle.shutdown();
        }
    });
}

/// An unauthenticated login whose password is one JSON string filling
/// `MAX_BODY`: the parser copies the string in one pass and the unknown
/// user gets a 401 on both engines within 10 s. A parser that rescans the
/// rest of the input per character holds a worker for about 20 minutes.
#[test]
fn max_body_json_string_gets_401_within_seconds() {
    with_deadline("max-body json string", Duration::from_secs(10), || {
        let mut login = br#"{"user":"nobody","password":""#.to_vec();
        login.resize(MAX_BODY - 2, b'a');
        login.extend_from_slice(br#""}"#);
        for engine in [Engine::Reactor, Engine::Threads] {
            let (handle, _) = serve(engine);
            let mut c = Client::connect(handle.addr());
            let (status, body) = c.call("POST", "/api/login", None, &login);
            assert_eq!(status, 401, "{engine:?}: {body:?}");
            let (status, body) = c.call("GET", "/api/health", None, b"");
            assert_eq!(status, 200, "{engine:?}: {body:?}");
            handle.shutdown();
        }
    });
}

/// An 8 MiB upload of `-` against a ~30 KiB `-…-x` boundary, behind any
/// `sid` cookie (the route checks only that one is present before it
/// parses): the delimiter search is linear, so both engines answer within
/// 5 s. Comparing the whole delimiter at every body offset takes about
/// 7 s per request in a release build.
#[test]
fn long_multipart_boundary_is_answered_within_seconds() {
    with_deadline("long multipart boundary", Duration::from_secs(5), || {
        let boundary = format!("{}x", "-".repeat(30 << 10));
        let headers = format!(
            "Cookie: sid=not-a-session\r\nContent-Type: multipart/form-data; boundary={boundary}\r\n"
        );
        let upload = vec![b'-'; MAX_BODY];
        for engine in [Engine::Reactor, Engine::Threads] {
            let (handle, _) = serve(engine);
            let mut c = Client::connect(handle.addr());
            let (status, body) = c.call_with("POST", "/api/upload", &headers, &upload);
            // No delimiter occurs, so no part is found and nothing saved.
            assert_eq!(status, 201, "{engine:?}: {body:?}");
            assert_eq!(body.get("saved"), Some(&Json::Arr(vec![])), "{engine:?}");
            let (status, body) = c.call("GET", "/api/health", None, b"");
            assert_eq!(status, 200, "{engine:?}: {body:?}");
            handle.shutdown();
        }
    });
}

/// A session revoked while its analysis is in flight: the result is
/// dropped with a 401 and the portal stays fully functional.
#[test]
fn logout_mid_analysis_drops_the_result_not_the_portal() {
    with_watchdog("mid-flight logout", || {
        let (handle, admin_token) = serve(Engine::Reactor);
        let addr = handle.addr();
        let mut admin = Client::connect(addr);
        let (status, _) = admin.call(
            "POST",
            "/api/admin/users",
            Some(&admin_token),
            br#"{"name":"leaver","password":"password99","role":"student"}"#,
        );
        assert_eq!(status, 201);

        let mut c = Client::connect(addr);
        let token = login(&mut c, "leaver", "password99");
        let (status, body) = c.call(
            "POST",
            "/api/file?path=leave.mini",
            Some(&token),
            SOURCE.as_bytes(),
        );
        assert_eq!(status, 201, "{body:?}");
        let (status, body) = c.call("POST", "/api/compile?path=leave.mini", Some(&token), b"");
        assert_eq!(status, 200, "{body:?}");
        let artifact = body.get("artifact").unwrap().as_str().unwrap().to_string();

        // Fire a long analysis on one connection, log the session out from
        // another while it runs. The race is inherent: if the logout lands
        // first the commit must be refused (401); if the analysis wins the
        // result is delivered (200). Both are correct — anything else
        // (5xx, hang, poisoned state) is the bug this test exists to catch.
        let analyze_path = format!("/api/analyze?artifact={artifact}&budget=512");
        let token_for_analyze = token.clone();
        let analyzer = std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            c.call("POST", &analyze_path, Some(&token_for_analyze), b"")
        });
        std::thread::sleep(Duration::from_millis(100));
        let (status, _) = c.call("POST", "/api/logout", Some(&token), b"");
        assert_eq!(status, 200, "logout");
        let (status, body) = analyzer.join().expect("analyze thread");
        assert!(
            status == 401 || status == 200,
            "mid-flight logout must yield 401 (dropped) or 200 (won the race), got {status}: {body:?}"
        );

        // The revoked token is dead for light routes too...
        let (status, _) = c.call("GET", "/api/jobs", Some(&token), b"");
        assert_eq!(status, 401, "revoked token stays revoked");
        // ...and the portal is unharmed: fresh login, compile, analyze.
        let token = login(&mut c, "leaver", "password99");
        let (status, body) = c.call("POST", "/api/compile?path=leave.mini", Some(&token), b"");
        assert_eq!(
            status, 200,
            "portal still compiles after the race: {body:?}"
        );
        let (status, body) = c.call(
            "POST",
            &format!(
                "/api/analyze?artifact={}&budget=16",
                body.get("artifact").unwrap().as_str().unwrap()
            ),
            Some(&token),
            b"",
        );
        assert_eq!(
            status, 200,
            "portal still analyzes after the race: {body:?}"
        );
        handle.shutdown();
    });
}
