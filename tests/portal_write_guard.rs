//! Nothing CPU-heavy runs under the portal's write guard, pinned over
//! real sockets on both front-end engines:
//!
//! * while `POST /api/tick` runs budget-exhausting jobs, `/api/whoami`,
//!   `GET /api/jobs/:id` and `POST /api/file` answer long before that tick
//!   returns: a tick executes its jobs with no portal lock held;
//! * while a login stretches its password, another session's
//!   `/api/whoami` answers at once: the stretch holds no portal lock.
//!
//! Both measure wall-clock time against a cost calibrated in the same
//! build, so they hold in debug and release alike. The tests share one
//! lock so that neither competes with the other for the CPU.

use auth::{PasswordHash, PasswordPolicy};
use ccp_core::{Portal, PortalConfig};
use cluster::ClusterSpec;
use httpd::http::MAX_BODY;
use httpd::json::Json;
use httpd::{Engine, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use webportal::app::serve_with_config;
use webportal::App;

/// One test at a time: each needs a CPU to itself for its heavy request.
static ALONE: Mutex<()> = Mutex::new(());

/// Runs until the VM's 10M-instruction budget stops it.
const SPIN: &str = "fn main() { while (true) {} }";

/// How long the tick's run phase is made to last, at least.
const TICK_RUN: Duration = Duration::from_millis(400);

/// How long before the tick returns each request must have answered.
const TICK_MARGIN: Duration = Duration::from_millis(100);

// ---- a minimal blocking keep-alive HTTP client -------------------------

/// Keeps one connection while the server keeps it open (the thread
/// engine closes after every response).
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        Client { addr, stream: None }
    }

    fn call(&mut self, method: &str, path: &str, token: Option<&str>, body: &[u8]) -> (u16, Json) {
        let cookie = token.map(|t| format!("Cookie: sid={t}\r\n"));
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: portal\r\nConnection: keep-alive\r\n\
             Content-Length: {}\r\n{}\r\n",
            body.len(),
            cookie.as_deref().unwrap_or("")
        );
        let mut req = head.into_bytes();
        req.extend_from_slice(body);
        let addr = self.addr;
        let stream = self.stream.get_or_insert_with(|| {
            let stream = TcpStream::connect(addr).expect("connect portal");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            stream
        });
        stream.write_all(&req).expect("send request");
        let mut buf = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((status, body, keep_alive)) = parse_response(&buf) {
                if !keep_alive {
                    self.stream = None;
                }
                return (status, body);
            }
            let n = stream.read(&mut chunk).expect("read response");
            assert!(n > 0, "portal closed the connection mid-response");
            buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// Status, JSON body and whether the connection stays open, once `buf`
/// holds a whole response.
fn parse_response(buf: &[u8]) -> Option<(u16, Json, bool)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.get(9..12)?.parse().ok()?;
    let mut len = 0usize;
    let mut keep_alive = false;
    for line in head.lines().skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().ok()?;
            } else if k.eq_ignore_ascii_case("connection") {
                keep_alive = v.trim().eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    if buf.len() < head_end + 4 + len {
        return None;
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..head_end + 4 + len]);
    Some((status, Json::parse(&body).unwrap_or(Json::Null), keep_alive))
}

// ---- setup --------------------------------------------------------------

/// A served portal with `admin` and a student `bob`, and a session each.
fn serve(engine: Engine) -> (ServerHandle, String, String) {
    let mut portal = Portal::new(PortalConfig {
        cluster: ClusterSpec::small(2, 2),
        checker_threads: Some(1),
        ..PortalConfig::default()
    });
    portal.bootstrap_admin("admin", "super-secret9").unwrap();
    let handle = serve_with_config(
        App::new(portal),
        "127.0.0.1:0",
        ServerConfig {
            engine,
            workers: 4,
            read_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(60),
            ..ServerConfig::default()
        },
    )
    .expect("spawn portal server");
    let mut c = Client::connect(handle.addr());
    let admin = login(&mut c, "admin", "super-secret9");
    let (status, body) = c.call(
        "POST",
        "/api/admin/users",
        Some(&admin),
        br#"{"name":"bob","password":"password99","role":"student"}"#,
    );
    assert_eq!(status, 201, "{body:?}");
    let bob = login(&mut c, "bob", "password99");
    (handle, admin, bob)
}

fn login(c: &mut Client, user: &str, password: &str) -> String {
    let body = format!(r#"{{"user":"{user}","password":"{password}"}}"#);
    let (status, resp) = c.call("POST", "/api/login", None, body.as_bytes());
    assert_eq!(status, 200, "login {user}: {resp:?}");
    resp.get("token").unwrap().as_str().unwrap().to_string()
}

/// Run `f` on its own thread, failing if it has not finished in `limit`.
fn with_deadline(name: &'static str, limit: Duration, f: impl FnOnce() + Send + 'static) {
    let _alone = ALONE.lock().unwrap_or_else(PoisonError::into_inner);
    let (tx, rx) = mpsc::channel();
    let t = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        // A stalled body cannot be joined; fail without waiting for it.
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{name}: still running after {limit:?}"),
        // Finished, or panicked (the sender dropped): join reports which.
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => t.join().expect("test body"),
    }
}

// ---- the tick -----------------------------------------------------------

/// Enough budget-exhausting jobs that one tick runs them for at least
/// [`TICK_RUN`] in this build.
fn spin_jobs_for_tick_run() -> usize {
    let started = Instant::now();
    let err = minilang::compile_and_run(SPIN, 0).expect_err("the budget stops it");
    assert!(err.to_string().contains("budget"), "{err}");
    let one = started.elapsed();
    (TICK_RUN.as_nanos() / one.as_nanos().max(1) + 1).min(8) as usize
}

fn tick_engine(engine: Engine, jobs: usize) {
    let (handle, _, bob) = serve(engine);
    let addr = handle.addr();
    let mut c = Client::connect(addr);
    let (status, body) = c.call(
        "POST",
        "/api/file?path=spin.mini",
        Some(&bob),
        SPIN.as_bytes(),
    );
    assert_eq!(status, 201, "{body:?}");
    let (status, body) = c.call("POST", "/api/compile?path=spin.mini", Some(&bob), b"");
    assert_eq!(status, 200, "{body:?}");
    let artifact = body.get("artifact").unwrap().as_str().unwrap().to_string();
    let submit = format!(r#"{{"artifact":"{artifact}","cores":1,"estimated_ticks":1}}"#);
    let ids: Vec<u64> = (0..jobs)
        .map(|_| {
            let (status, body) = c.call("POST", "/api/jobs", Some(&bob), submit.as_bytes());
            assert_eq!(status, 201, "{body:?}");
            body.get("job").unwrap().as_num().unwrap() as u64
        })
        .collect();

    let ticker = {
        let bob = bob.clone();
        std::thread::spawn(move || {
            let (status, body) = Client::connect(addr).call("POST", "/api/tick", Some(&bob), b"");
            (status, body, Instant::now())
        })
    };
    // The tick's begin dispatches every job; from then on its run phase
    // executes them with no portal lock held.
    let job_path = format!("/api/jobs/{}", ids[0]);
    loop {
        let (status, job) = c.call("GET", &job_path, Some(&bob), b"");
        assert_eq!(status, 200, "{job:?}");
        if job.get("state").and_then(Json::as_str) != Some("pending") {
            break;
        }
    }
    let mut answered = Vec::new();
    let (status, body) = c.call("GET", "/api/whoami", Some(&bob), b"");
    assert_eq!(status, 200, "{body:?}");
    answered.push(("GET /api/whoami", Instant::now()));
    let (status, job) = c.call("GET", &job_path, Some(&bob), b"");
    assert_eq!(status, 200, "{job:?}");
    answered.push(("GET /api/jobs/:id", Instant::now()));
    let (status, body) = c.call(
        "POST",
        "/api/file?path=notes.txt",
        Some(&bob),
        b"saved mid-tick",
    );
    assert_eq!(status, 201, "{body:?}");
    answered.push(("POST /api/file", Instant::now()));

    let (status, body, tick_returned) = ticker.join().expect("tick thread");
    assert_eq!(status, 200, "{body:?}");
    let dispatched = body
        .get("dispatched")
        .and_then(Json::as_arr)
        .map_or(0, |d| d.len());
    assert_eq!(dispatched, jobs, "{engine:?}: {body:?}");
    for (route, at) in answered {
        let ahead = tick_returned.saturating_duration_since(at);
        assert!(
            ahead >= TICK_MARGIN,
            "{engine:?}: {route} answered only {ahead:?} before the tick ({jobs} spinning jobs) returned"
        );
    }
    // The mid-tick poll saw the job running with no output yet, which was
    // true; after the tick its outcome has landed.
    assert!(
        job.get("state")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("running"),
        "{job:?}"
    );
    assert_eq!(
        job.get("stderr").and_then(Json::as_str),
        Some(""),
        "{job:?}"
    );
    let (_, job) = c.call("GET", &job_path, Some(&bob), b"");
    let stderr = job.get("stderr").and_then(Json::as_str).unwrap();
    assert!(stderr.contains("budget"), "{engine:?}: {job:?}");
    handle.shutdown();
}

#[test]
fn reads_and_saves_answer_while_a_tick_runs_its_jobs() {
    with_deadline("tick off the write guard", Duration::from_secs(120), || {
        let jobs = spin_jobs_for_tick_run();
        for engine in [Engine::Reactor, Engine::Threads] {
            tick_engine(engine, jobs);
        }
    });
}

// ---- the login ------------------------------------------------------------

fn login_engine(engine: Engine, stretch: Duration, password: Arc<str>) {
    let (handle, _, bob) = serve(engine);
    let addr = handle.addr();
    let (sent_tx, sent_rx) = mpsc::channel();
    let guesser = std::thread::spawn(move || {
        let body = format!(r#"{{"user":"bob","password":"{password}"}}"#);
        let mut c = Client::connect(addr);
        sent_tx.send(()).expect("signal the login");
        let answer = c.call("POST", "/api/login", None, body.as_bytes());
        (answer, Instant::now())
    });
    sent_rx.recv().expect("the login is on its way");
    let mut c = Client::connect(addr);
    let mut slowest = Duration::ZERO;
    let mut polls = 0;
    while !guesser.is_finished() {
        let t0 = Instant::now();
        let (status, body) = c.call("GET", "/api/whoami", Some(&bob), b"");
        assert_eq!(status, 200, "{body:?}");
        slowest = slowest.max(t0.elapsed());
        polls += 1;
    }
    let ((status, body), _) = guesser.join().expect("login thread");
    assert_eq!(status, 401, "{engine:?}: the long guess is wrong: {body:?}");
    assert!(
        polls > 1,
        "{engine:?}: whoami ran {polls} times beside the login"
    );
    assert!(
        slowest < stretch / 2,
        "{engine:?}: a whoami took {slowest:?} beside a login whose stretch takes {stretch:?}"
    );
    handle.shutdown();
}

#[test]
fn another_session_answers_while_a_login_stretches() {
    with_deadline(
        "login off the write guard",
        Duration::from_secs(120),
        || {
            // The longest password a login body can carry: hashing it is the
            // first round of the stretch, so the stretch lasts long enough to
            // watch in either build.
            let password: Arc<str> = "x".repeat(MAX_BODY - 64).into();
            let started = Instant::now();
            let hash = PasswordHash::create(&password, PasswordPolicy::default());
            let stretch = started.elapsed();
            assert!(hash.verify(&password));
            for engine in [Engine::Reactor, Engine::Threads] {
                login_engine(engine, stretch, Arc::clone(&password));
            }
        },
    );
}
