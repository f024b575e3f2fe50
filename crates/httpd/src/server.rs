//! The front-end server: an epoll reactor with an M:N green-task worker
//! pool where the platform supports it (Linux x86_64/aarch64), falling
//! back to a thread-per-connection engine elsewhere. Both engines share
//! the same hardening: per-connection read/write deadlines (slow-loris
//! defence), a request-size limit, a bounded connection budget that
//! sheds excess load with `503 Retry-After`, and a graceful shutdown
//! that stops accepting but lets in-flight requests finish.

use crate::http::{HttpError, Request, Response, Status, CONTINUE};
use crate::reactor;
use crate::router::Router;
use obs::Obs;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Which connection engine [`Server::spawn`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The reactor where supported, threads elsewhere.
    #[default]
    Auto,
    /// Epoll reactor + worker pool; spawn fails on unsupported targets.
    Reactor,
    /// One OS thread per connection (the pre-reactor engine).
    Threads,
}

/// Hardening knobs for [`Server::spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-connection read deadline; a client that stalls mid-request past
    /// this gets `408 Request Timeout`.
    pub read_timeout: Duration,
    /// Per-connection write deadline.
    pub write_timeout: Duration,
    /// Largest accepted request body; larger declared bodies get `413`
    /// without the bytes ever being buffered.
    pub max_body: usize,
    /// Connection budget: open connections beyond this are shed
    /// immediately with `503` + `Retry-After`.
    pub max_inflight: usize,
    /// Emit one structured `http.access` event per completed request
    /// (method, path, status, bytes, duration) into the attached obs event
    /// log. Covers the pre-router rejections (408/413/400) that would
    /// otherwise vanish silently. No-op unless an obs is attached.
    pub access_log: bool,
    /// Engine selection; [`Engine::Auto`] picks the reactor when the
    /// platform has epoll.
    pub engine: Engine,
    /// Reactor worker threads (`0` = one per core, clamped to 2..=8).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_body: crate::http::MAX_BODY,
            max_inflight: 64,
            access_log: false,
            engine: Engine::Auto,
            workers: 0,
        }
    }
}

/// How long [`ServerHandle::shutdown`] waits for in-flight requests to
/// finish before giving up on them (both engines).
pub(crate) const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Counters both engines publish and [`ServerHandle`] reads.
#[derive(Default)]
pub(crate) struct Shared {
    /// Shutdown requested.
    pub(crate) stop: AtomicBool,
    /// Responses completed (everything except shed 503s).
    pub(crate) served: AtomicU64,
    /// Requests currently mid-flight.
    pub(crate) active: AtomicUsize,
    /// Open (admitted) connections.
    pub(crate) open: AtomicUsize,
}

enum EngineRt {
    Threads {
        accept: Option<JoinHandle<()>>,
    },
    Reactor {
        core: Arc<reactor::Core>,
        thread: Option<JoinHandle<()>>,
    },
}

/// A running server, returned by [`Server::spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    engine: EngineRt,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Open connections (idle keep-alives included).
    pub fn open_connections(&self) -> usize {
        self.shared.open.load(Ordering::SeqCst)
    }

    /// Stop accepting, then wait (bounded by `DRAIN_GRACE`) for
    /// in-flight requests to complete. Never needs to reach the
    /// listener over the network: the reactor is woken by its eventfd and
    /// the thread engine polls its accept loop.
    pub fn shutdown(mut self) {
        self.stop_and_drain();
    }

    fn stop_and_drain(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        match &mut self.engine {
            EngineRt::Threads { accept } => {
                if let Some(t) = accept.take() {
                    let _ = t.join();
                }
                let deadline = Instant::now() + DRAIN_GRACE;
                while self.shared.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            EngineRt::Reactor { core, thread } => {
                core.wake();
                // The reactor performs the bounded drain before exiting.
                if let Some(t) = thread.take() {
                    let _ = t.join();
                }
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_drain();
    }
}

/// The HTTP server: a router behind a TCP listener.
pub struct Server {
    router: Arc<Router>,
    config: ServerConfig,
    obs: Option<Arc<Obs>>,
}

impl Default for Server {
    fn default() -> Self {
        Self::new(Router::new())
    }
}

impl Server {
    /// Wrap a router with default hardening limits. If the router carries an
    /// obs domain, the server-level counters (sheds, timeouts, inflight)
    /// land there too.
    pub fn new(router: Router) -> Server {
        Server::with_config(router, ServerConfig::default())
    }

    /// Wrap a router with explicit limits.
    pub fn with_config(router: Router, config: ServerConfig) -> Server {
        let obs = router.obs().cloned();
        let mut server = Server {
            router: Arc::new(router),
            config,
            obs: None,
        };
        if let Some(obs) = obs {
            server = server.with_obs(obs);
        }
        server
    }

    /// Attach (or replace) the telemetry domain for connection-level
    /// counters and the access log (builder style). Families are
    /// registered eagerly so they appear in the exposition (at zero)
    /// from the moment the server exists, not after the first event.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Server {
        let m = &obs.metrics;
        m.describe(
            "ccp_httpd_shed_total",
            "connections shed at capacity with 503",
        );
        m.describe(
            "ccp_httpd_request_timeouts_total",
            "requests cut off by the read deadline",
        );
        m.describe(
            "ccp_httpd_rejected_total",
            "requests rejected before routing, by reason",
        );
        m.describe(
            "ccp_httpd_open_connections",
            "connections currently open (idle keep-alives included)",
        );
        m.describe(
            "ccp_httpd_keepalive_reuses_total",
            "requests served on an already-open connection",
        );
        m.describe(
            "ccp_httpd_reactor_wakeups_total",
            "epoll wake-ups of the reactor thread and the workers that delivered an event",
        );
        m.describe(
            "ccp_httpd_tasks_parked",
            "connection tasks parked waiting for readiness",
        );
        let _ = m.counter("ccp_httpd_shed_total", &[]);
        let _ = m.counter("ccp_httpd_request_timeouts_total", &[]);
        let _ = m.counter("ccp_httpd_rejected_total", &[("reason", "too_large")]);
        let _ = m.counter("ccp_httpd_rejected_total", &[("reason", "bad_request")]);
        let _ = m.gauge("ccp_httpd_open_connections", &[]);
        let _ = m.counter("ccp_httpd_keepalive_reuses_total", &[]);
        let _ = m.counter("ccp_httpd_reactor_wakeups_total", &[]);
        let _ = m.gauge("ccp_httpd_tasks_parked", &[]);
        self.obs = Some(obs);
        self
    }

    /// Bind `addr` (e.g. `127.0.0.1:0`) and serve in the background.
    pub fn spawn(self, addr: &str) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared::default());
        let use_reactor = match self.config.engine {
            Engine::Threads => false,
            Engine::Reactor => true,
            Engine::Auto => crate::sys::SUPPORTED,
        };
        if use_reactor {
            let rt = reactor::spawn(
                listener,
                self.config.clone(),
                Arc::clone(&self.router),
                self.obs.clone(),
                Arc::clone(&shared),
            )?;
            return Ok(ServerHandle {
                addr: local,
                shared,
                engine: EngineRt::Reactor {
                    core: rt.core,
                    thread: rt.thread,
                },
            });
        }
        let router = self.router;
        let config = self.config;
        let obs = self.obs;
        let shared2 = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || {
            // Nonblocking accept so shutdown needs no network nudge: the
            // loop just observes the stop flag on its next poll tick.
            let _ = listener.set_nonblocking(true);
            loop {
                if shared2.stop.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                        continue;
                    }
                    Err(_) => {
                        std::thread::sleep(Duration::from_millis(2));
                        continue;
                    }
                };
                // accept() on Linux does not inherit O_NONBLOCK, but be
                // explicit: the handler uses blocking reads + deadlines.
                let _ = stream.set_nonblocking(false);
                if shared2.active.load(Ordering::SeqCst) >= config.max_inflight {
                    shed_connection(stream, &config, obs.as_deref());
                    continue;
                }
                // Count before spawning so a burst cannot overshoot the cap.
                let now_inflight = shared2.active.fetch_add(1, Ordering::SeqCst) + 1;
                shared2.open.fetch_add(1, Ordering::SeqCst);
                if let Some(o) = &obs {
                    o.metrics
                        .gauge("ccp_httpd_inflight", &[])
                        .set(now_inflight as i64);
                    o.metrics.gauge("ccp_httpd_open_connections", &[]).add(1);
                }
                let router = Arc::clone(&router);
                let shared = Arc::clone(&shared2);
                let config = config.clone();
                let obs = obs.clone();
                std::thread::spawn(move || {
                    handle_connection(stream, &router, &config, obs.as_deref());
                    shared.served.fetch_add(1, Ordering::Relaxed);
                    let left = shared.active.fetch_sub(1, Ordering::SeqCst) - 1;
                    shared.open.fetch_sub(1, Ordering::SeqCst);
                    if let Some(o) = &obs {
                        o.metrics.gauge("ccp_httpd_inflight", &[]).set(left as i64);
                        o.metrics.gauge("ccp_httpd_open_connections", &[]).sub(1);
                    }
                });
            }
        });
        Ok(ServerHandle {
            addr: local,
            shared,
            engine: EngineRt::Threads {
                accept: Some(accept_thread),
            },
        })
    }
}

/// Refuse a connection at capacity: fixed response, no router dispatch, no
/// slot in the inflight budget. The half-close + drain dance avoids an RST
/// (closing with unread request bytes would wipe the client's receive
/// buffer before it sees the 503).
fn shed_connection(mut stream: TcpStream, config: &ServerConfig, obs: Option<&Obs>) {
    if let Some(o) = obs {
        o.metrics.counter("ccp_httpd_shed_total", &[]).inc();
        if config.access_log {
            o.events.record(
                epoch_secs(),
                "http.access",
                &[
                    ("method", "-"),
                    ("path", "-"),
                    ("status", "503"),
                    ("bytes", "0"),
                    ("duration_us", "0"),
                ],
            );
        }
    }
    let write_timeout = config.write_timeout;
    std::thread::spawn(move || {
        let _ = stream.set_write_timeout(Some(write_timeout));
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        let _ = Response::error(
            Status::SERVICE_UNAVAILABLE,
            "server at capacity, retry shortly",
        )
        .with_header("Retry-After", "1")
        .write_to(&mut stream);
        let _ = stream.shutdown(Shutdown::Write);
        let mut scratch = [0u8; 512];
        while let Ok(n) = stream.read(&mut scratch) {
            if n == 0 {
                break;
            }
        }
    });
}

/// Read one request off a blocking socket and parse it with the same
/// incremental parser the reactor runs, so both engines enforce
/// [`crate::http::MAX_HEAD`] and `max_body` and answer
/// `Expect: 100-continue` alike. A read deadline expiring (`TimedOut` on
/// most platforms, `WouldBlock` on unix sockets with `SO_RCVTIMEO`) is a
/// stalled client, not a malformed request.
fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; reactor::READ_CHUNK];
    let mut continued = false;
    loop {
        if let Some((req, _)) = Request::parse_bytes(&buf, max_body)? {
            return Ok(req);
        }
        if !continued && Request::awaits_continue(&buf, max_body) {
            continued = true;
            stream
                .write_all(CONTINUE)
                .map_err(|e| HttpError::Io(e.to_string()))?;
        }
        match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return Err(HttpError::Malformed("empty request")),
            Ok(0) => return Err(HttpError::Malformed("truncated request")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) => {
                return Err(HttpError::Timeout)
            }
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
}

fn handle_connection(
    mut stream: TcpStream,
    router: &Router,
    config: &ServerConfig,
    obs: Option<&Obs>,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let started = Instant::now();
    let mut request_line = (String::from("-"), String::from("-"));
    let response = match read_request(&mut stream, config.max_body) {
        Ok(mut req) => {
            request_line = (req.method.to_string(), req.path.clone());
            router.dispatch(&mut req)
        }
        Err(HttpError::TooLarge { declared, limit }) => {
            if let Some(o) = obs {
                o.metrics
                    .counter("ccp_httpd_rejected_total", &[("reason", "too_large")])
                    .inc();
            }
            Response::error(
                Status::PAYLOAD_TOO_LARGE,
                format!("body of {declared} bytes exceeds limit {limit}"),
            )
        }
        Err(HttpError::Timeout) => {
            if let Some(o) = obs {
                o.metrics
                    .counter("ccp_httpd_request_timeouts_total", &[])
                    .inc();
            }
            Response::error(Status::REQUEST_TIMEOUT, "request not received in time")
        }
        Err(e) => {
            if let Some(o) = obs {
                o.metrics
                    .counter("ccp_httpd_rejected_total", &[("reason", "bad_request")])
                    .inc();
            }
            Response::error(Status::BAD_REQUEST, e.to_string())
        }
    };
    let _ = response.write_to(&mut stream);
    if let Some(o) = obs {
        if config.access_log {
            o.events.record(
                epoch_secs(),
                "http.access",
                &[
                    ("method", &request_line.0),
                    ("path", &request_line.1),
                    ("status", &response.status.0.to_string()),
                    ("bytes", &response.body.len().to_string()),
                    (
                        "duration_us",
                        &(started.elapsed().as_micros() as u64).to_string(),
                    ),
                ],
            );
        }
    }
}

pub(crate) fn epoch_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Method;
    use crate::test_support::{raw_request, read_response};
    use std::io::{Read, Write};

    fn test_router() -> Router {
        let mut router = Router::new();
        router.get("/ping", |_| Response::text("pong"));
        router.post("/echo", |req| Response::text(req.body_str().to_string()));
        router.get("/jobs/:id", |req| {
            Response::text(format!("job={}", req.param("id").unwrap()))
        });
        router.get("/slow", |_| {
            std::thread::sleep(Duration::from_millis(300));
            Response::text("done")
        });
        router
    }

    fn test_server() -> ServerHandle {
        Server::new(test_router()).spawn("127.0.0.1:0").unwrap()
    }

    fn engines() -> Vec<Engine> {
        if crate::sys::SUPPORTED {
            vec![Engine::Reactor, Engine::Threads]
        } else {
            vec![Engine::Threads]
        }
    }

    #[test]
    fn serves_get_over_real_socket() {
        // Both engines answer the same on-the-wire traffic.
        for engine in engines() {
            let config = ServerConfig {
                engine,
                ..ServerConfig::default()
            };
            let h = Server::with_config(test_router(), config)
                .spawn("127.0.0.1:0")
                .unwrap();
            let resp = raw_request(h.addr(), "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n");
            assert!(resp.starts_with("HTTP/1.1 200 OK"), "{engine:?}: {resp}");
            assert!(resp.ends_with("pong"), "{engine:?}: {resp}");
            h.shutdown();
        }
    }

    #[test]
    fn serves_post_body_roundtrip() {
        let h = test_server();
        let resp = raw_request(
            h.addr(),
            "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello",
        );
        assert!(resp.ends_with("hello"), "{resp}");
        h.shutdown();
    }

    #[test]
    fn path_params_over_socket() {
        let h = test_server();
        let resp = raw_request(h.addr(), "GET /jobs/17 HTTP/1.1\r\n\r\n");
        assert!(resp.ends_with("job=17"), "{resp}");
        h.shutdown();
    }

    #[test]
    fn bad_requests_get_400() {
        let h = test_server();
        let resp = raw_request(h.addr(), "BOGUS /x HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        h.shutdown();
    }

    #[test]
    fn unknown_route_404s() {
        let h = test_server();
        let resp = raw_request(h.addr(), "GET /missing HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
        h.shutdown();
    }

    #[test]
    fn concurrent_requests() {
        let h = test_server();
        let addr = h.addr();
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(move || raw_request(addr, "GET /ping HTTP/1.1\r\n\r\n")))
            .collect();
        for t in handles {
            assert!(t.join().unwrap().ends_with("pong"));
        }
        assert!(h.served() >= 8);
        h.shutdown();
    }

    #[test]
    fn oversized_body_gets_413_over_socket() {
        let config = ServerConfig {
            max_body: 64,
            ..ServerConfig::default()
        };
        let h = Server::with_config(test_router(), config)
            .spawn("127.0.0.1:0")
            .unwrap();
        // Declared length over the limit: rejected from the header alone,
        // before any body bytes arrive.
        let resp = raw_request(
            h.addr(),
            "POST /echo HTTP/1.1\r\nContent-Length: 100\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 413 Payload Too Large"), "{resp}");
        // At the limit still works.
        let body = "x".repeat(64);
        let resp = raw_request(
            h.addr(),
            &format!("POST /echo HTTP/1.1\r\nContent-Length: 64\r\n\r\n{body}"),
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        h.shutdown();
    }

    #[test]
    fn endless_head_gets_400_on_both_engines() {
        // A header line that never ends: each engine answers 400 once the
        // head passes MAX_HEAD, rather than buffering it until the read
        // deadline or memory runs out.
        for engine in engines() {
            let config = ServerConfig {
                engine,
                ..ServerConfig::default()
            };
            let h = Server::with_config(test_router(), config)
                .spawn("127.0.0.1:0")
                .unwrap();
            let mut s = TcpStream::connect(h.addr()).unwrap();
            s.write_all(b"GET /ping HTTP/1.1\r\nX-Big: ").unwrap();
            s.write_all(&vec![b'x'; crate::http::MAX_HEAD + 1024])
                .unwrap();
            let resp = read_response(&mut s);
            assert!(resp.starts_with("HTTP/1.1 400"), "{engine:?}: {resp}");
            assert!(
                resp.contains("request head too large"),
                "{engine:?}: {resp}"
            );
            h.shutdown();
        }
    }

    #[test]
    fn slow_loris_hits_read_timeout() {
        let config = ServerConfig {
            read_timeout: Duration::from_millis(80),
            ..ServerConfig::default()
        };
        let h = Server::with_config(test_router(), config)
            .spawn("127.0.0.1:0")
            .unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        // Dribble half a request line and stall: the server must cut us off
        // with 408 instead of holding the worker forever.
        s.write_all(b"GET /ping HT").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 408 Request Timeout"), "{out}");
        h.shutdown();
    }

    #[test]
    fn slow_loris_partial_headers_hit_read_timeout() {
        // Same attack, but stalled mid-headers with the request line
        // complete: the incremental parser must not treat a valid prefix
        // as a request, and the deadline must still fire.
        let config = ServerConfig {
            read_timeout: Duration::from_millis(80),
            ..ServerConfig::default()
        };
        let h = Server::with_config(test_router(), config)
            .spawn("127.0.0.1:0")
            .unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"GET /ping HTTP/1.1\r\nHost: t\r\nX-Dribble: ye")
            .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 408 Request Timeout"), "{out}");
        h.shutdown();
    }

    #[test]
    fn expect_100_continue_is_answered_before_the_body() {
        for engine in engines() {
            let config = ServerConfig {
                engine,
                max_body: 64,
                ..ServerConfig::default()
            };
            let h = Server::with_config(test_router(), config)
                .spawn("127.0.0.1:0")
                .unwrap();
            let mut s = TcpStream::connect(h.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
            s.write_all(
                b"POST /echo HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\n",
            )
            .unwrap();
            let mut interim = [0u8; CONTINUE.len()];
            if let Err(e) = s.read_exact(&mut interim) {
                panic!("{engine:?}: no 100 Continue within 1 s: {e}");
            }
            assert_eq!(&interim[..], CONTINUE, "{engine:?}");
            s.write_all(b"hello").unwrap();
            let mut rest = String::new();
            s.read_to_string(&mut rest).unwrap();
            assert!(rest.starts_with("HTTP/1.1 200"), "{engine:?}: {rest}");
            assert!(rest.ends_with("hello"), "{engine:?}: {rest}");
            // A declared body over the limit still gets 413 at once.
            let resp = raw_request(
                h.addr(),
                "POST /echo HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 100\r\n\r\n",
            );
            assert!(resp.starts_with("HTTP/1.1 413"), "{engine:?}: {resp}");
            h.shutdown();
        }
    }

    #[test]
    fn complete_request_waiting_for_a_busy_worker_outlives_read_timeout() {
        if !crate::sys::SUPPORTED {
            return;
        }
        // The only worker is in /slow for 300 ms while a complete request
        // waits on a second connection. Its 80 ms read deadline passes with
        // the bytes unread: the client did not stall, so it is served.
        let config = ServerConfig {
            engine: Engine::Reactor,
            workers: 1,
            read_timeout: Duration::from_millis(80),
            ..ServerConfig::default()
        };
        let h = Server::with_config(test_router(), config)
            .spawn("127.0.0.1:0")
            .unwrap();
        let addr = h.addr();
        let slow = std::thread::spawn(move || raw_request(addr, "GET /slow HTTP/1.1\r\n\r\n"));
        while h.shared.active.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let started = Instant::now();
        let resp = raw_request(addr, "GET /ping HTTP/1.1\r\n\r\n");
        assert!(resp.ends_with("pong"), "{resp}");
        assert!(
            started.elapsed() > Duration::from_millis(80),
            "served before its deadline passed, so the probe proved nothing"
        );
        assert!(slow.join().unwrap().ends_with("done"));
        h.shutdown();
    }

    #[test]
    fn a_worker_in_a_long_handler_holds_no_other_connection() {
        if !crate::sys::SUPPORTED {
            return;
        }
        // Both workers are held in /hold while /slow and a ping arrive, so
        // the two events wait in the epoll together. Once released, one
        // worker runs /slow and the other serves the ping and 49 more
        // sequential pings. A worker that took both events would make the
        // first ping wait for /slow.
        let release = Arc::new(AtomicBool::new(false));
        let mut router = test_router();
        {
            let release = Arc::clone(&release);
            router.get("/hold", move |_| {
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Response::text("held")
            });
        }
        let config = ServerConfig {
            engine: Engine::Reactor,
            workers: 2,
            ..ServerConfig::default()
        };
        let h = Server::with_config(router, config)
            .spawn("127.0.0.1:0")
            .unwrap();
        let addr = h.addr();
        let holds: Vec<_> = (0..2)
            .map(|_| std::thread::spawn(move || raw_request(addr, "GET /hold HTTP/1.1\r\n\r\n")))
            .collect();
        while h.shared.active.load(Ordering::SeqCst) < 2 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let ping = b"GET /ping HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
        let mut slow = TcpStream::connect(addr).unwrap();
        let mut s = TcpStream::connect(addr).unwrap();
        slow.write_all(b"GET /slow HTTP/1.1\r\n\r\n").unwrap();
        s.write_all(ping).unwrap();
        while h.open_connections() < 4 {
            std::thread::sleep(Duration::from_millis(1));
        }
        release.store(true, Ordering::SeqCst);
        let slow = std::thread::spawn(move || {
            let mut resp = String::new();
            slow.read_to_string(&mut resp).unwrap();
            (resp, Instant::now())
        });
        for i in 0..50 {
            if i > 0 {
                s.write_all(ping).unwrap();
            }
            let resp = read_response(&mut s);
            assert!(resp.ends_with("pong"), "ping {i}: {resp}");
        }
        let pings_done = Instant::now();
        let (resp, slow_done) = slow.join().unwrap();
        assert!(resp.ends_with("done"), "{resp}");
        assert!(pings_done < slow_done, "a ping waited for /slow");
        for t in holds {
            assert!(t.join().unwrap().ends_with("held"));
        }
        h.shutdown();
    }

    #[test]
    fn keep_alive_reuses_connection() {
        if !crate::sys::SUPPORTED {
            return; // keep-alive is a reactor feature
        }
        let obs = Arc::new(Obs::new());
        let mut router = test_router();
        router.set_obs(Arc::clone(&obs));
        let h = Server::new(router).spawn("127.0.0.1:0").unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        for i in 0..3 {
            s.write_all(b"GET /ping HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
                .unwrap();
            let resp = read_response(&mut s);
            assert!(resp.starts_with("HTTP/1.1 200"), "request {i}: {resp}");
            assert!(
                resp.contains("Connection: keep-alive"),
                "request {i}: {resp}"
            );
            assert!(resp.ends_with("pong"), "request {i}: {resp}");
        }
        // Final request without keep-alive: server closes after it.
        s.write_all(b"GET /ping HTTP/1.1\r\n\r\n").unwrap();
        let mut rest = String::new();
        s.read_to_string(&mut rest).unwrap();
        assert!(rest.contains("Connection: close"), "{rest}");
        assert!(rest.ends_with("pong"), "{rest}");
        assert_eq!(h.served(), 4);
        if crate::sys::SUPPORTED {
            assert_eq!(
                obs.metrics
                    .counter("ccp_httpd_keepalive_reuses_total", &[])
                    .get(),
                3,
                "three requests rode an already-open connection"
            );
        }
        h.shutdown();
    }

    #[test]
    fn pipelined_second_request_in_buffer() {
        if !crate::sys::SUPPORTED {
            return; // pipelining needs the reactor's incremental parser
        }
        let h = test_server();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        // Two requests in one write: the second is already buffered when
        // the first response goes out.
        s.write_all(
            b"GET /ping HTTP/1.1\r\nConnection: keep-alive\r\n\r\n\
              GET /jobs/9 HTTP/1.1\r\n\r\n",
        )
        .unwrap();
        let first = read_response(&mut s);
        assert!(first.ends_with("pong"), "{first}");
        let mut rest = String::new();
        s.read_to_string(&mut rest).unwrap();
        assert!(rest.ends_with("job=9"), "{rest}");
        assert_eq!(h.served(), 2);
        h.shutdown();
    }

    #[test]
    fn capacity_overflow_sheds_with_retry_after() {
        let config = ServerConfig {
            max_inflight: 1,
            ..ServerConfig::default()
        };
        let h = Server::with_config(test_router(), config)
            .spawn("127.0.0.1:0")
            .unwrap();
        let addr = h.addr();
        // Occupy the single slot with a slow request...
        let hog = std::thread::spawn(move || raw_request(addr, "GET /slow HTTP/1.1\r\n\r\n"));
        while h.shared.active.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        // ...then get shed on the next connection.
        let resp = raw_request(addr, "GET /ping HTTP/1.1\r\n\r\n");
        assert!(
            resp.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{resp}"
        );
        assert!(resp.contains("Retry-After: 1"), "{resp}");
        assert!(hog.join().unwrap().ends_with("done"));
        // Slot free again: normal service resumes.
        assert!(raw_request(addr, "GET /ping HTTP/1.1\r\n\r\n").ends_with("pong"));
        h.shutdown();
    }

    #[test]
    fn access_log_and_pre_router_counters() {
        let obs = Arc::new(Obs::new());
        let mut router = test_router();
        router.set_obs(Arc::clone(&obs));
        let config = ServerConfig {
            max_body: 64,
            read_timeout: Duration::from_millis(100),
            access_log: true,
            ..ServerConfig::default()
        };
        let h = Server::with_config(router, config)
            .spawn("127.0.0.1:0")
            .unwrap();

        raw_request(h.addr(), "GET /ping HTTP/1.1\r\n\r\n");
        // 413: declared body over the limit.
        raw_request(
            h.addr(),
            "POST /echo HTTP/1.1\r\nContent-Length: 100\r\n\r\n",
        );
        // 408: stalled request.
        {
            let mut s = TcpStream::connect(h.addr()).unwrap();
            s.write_all(b"GET /pi").unwrap();
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
        }
        while h.served() < 3 {
            std::thread::sleep(Duration::from_millis(5));
        }
        h.shutdown();

        assert_eq!(
            obs.metrics
                .counter("ccp_httpd_rejected_total", &[("reason", "too_large")])
                .get(),
            1
        );
        assert_eq!(
            obs.metrics
                .counter("ccp_httpd_request_timeouts_total", &[])
                .get(),
            1
        );
        let log = obs.events.recent(10);
        assert_eq!(log.len(), 3, "{log:?}");
        assert!(log.iter().all(|e| e.kind == "http.access"));
        let ok = log
            .iter()
            .find(|e| e.field("status") == Some("200"))
            .expect("200 logged");
        assert_eq!(ok.field("method"), Some("GET"));
        assert_eq!(ok.field("path"), Some("/ping"));
        assert_eq!(ok.field("bytes"), Some("4"), "pong is 4 bytes");
        // Pre-router rejections appear with placeholder request lines.
        assert!(log.iter().any(|e| e.field("status") == Some("413")));
        assert!(log
            .iter()
            .any(|e| e.field("status") == Some("408") && e.field("path") == Some("-")));
    }

    #[test]
    fn access_log_off_by_default() {
        let obs = Arc::new(Obs::new());
        let mut router = test_router();
        router.set_obs(Arc::clone(&obs));
        let h = Server::new(router).spawn("127.0.0.1:0").unwrap();
        raw_request(h.addr(), "GET /ping HTTP/1.1\r\n\r\n");
        while h.served() < 1 {
            std::thread::sleep(Duration::from_millis(5));
        }
        h.shutdown();
        // Metrics still flow; the event log stays quiet.
        assert!(obs.metrics.series_count() > 0);
        assert_eq!(obs.events.len(), 0);
    }

    #[test]
    fn shed_connections_are_counted_in_obs() {
        let obs = Arc::new(Obs::new());
        let mut router = test_router();
        router.set_obs(Arc::clone(&obs));
        let config = ServerConfig {
            max_inflight: 1,
            ..ServerConfig::default()
        };
        let h = Server::with_config(router, config)
            .spawn("127.0.0.1:0")
            .unwrap();
        let addr = h.addr();
        let hog = std::thread::spawn(move || raw_request(addr, "GET /slow HTTP/1.1\r\n\r\n"));
        while h.shared.active.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let resp = raw_request(addr, "GET /ping HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        hog.join().unwrap();
        h.shutdown();
        assert_eq!(obs.metrics.counter("ccp_httpd_shed_total", &[]).get(), 1);
    }

    #[test]
    fn graceful_shutdown_drains_inflight_requests() {
        let h = test_server();
        let addr = h.addr();
        let slow = std::thread::spawn(move || raw_request(addr, "GET /slow HTTP/1.1\r\n\r\n"));
        while h.shared.active.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Shutdown while the request is mid-flight: it must still complete.
        h.shutdown();
        let resp = slow.join().unwrap();
        assert!(resp.ends_with("done"), "{resp}");
    }

    #[test]
    fn drain_serves_a_request_that_waits_for_a_busy_worker() {
        if !crate::sys::SUPPORTED {
            return;
        }
        // The only worker is in /slow when an idle keep-alive connection
        // sends its next request and shutdown begins. That request arrived
        // before the drain, so it is answered, not cut off as idle.
        let config = ServerConfig {
            engine: Engine::Reactor,
            workers: 1,
            ..ServerConfig::default()
        };
        let h = Server::with_config(test_router(), config)
            .spawn("127.0.0.1:0")
            .unwrap();
        let addr = h.addr();
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /ping HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
            .unwrap();
        assert!(read_response(&mut s).ends_with("pong"));
        let slow = std::thread::spawn(move || raw_request(addr, "GET /slow HTTP/1.1\r\n\r\n"));
        while h.shared.active.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        s.write_all(b"GET /ping HTTP/1.1\r\n\r\n").unwrap();
        h.shutdown();
        let mut rest = String::new();
        s.read_to_string(&mut rest).unwrap();
        assert!(rest.ends_with("pong"), "{rest}");
        assert!(slow.join().unwrap().ends_with("done"));
    }

    #[test]
    fn shutdown_never_needs_the_listener_port() {
        // The old engine nudged its own blocking accept with a TCP
        // connect to the listener — which hung when the port was
        // unreachable. Both engines must now shut down promptly with no
        // traffic at all.
        for engine in engines() {
            let config = ServerConfig {
                engine,
                ..ServerConfig::default()
            };
            let h = Server::with_config(test_router(), config)
                .spawn("127.0.0.1:0")
                .unwrap();
            let started = Instant::now();
            h.shutdown();
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "{engine:?} shutdown took {:?}",
                started.elapsed()
            );
        }
    }

    #[test]
    fn open_connections_tracks_idle_keepalives() {
        if !crate::sys::SUPPORTED {
            return;
        }
        let obs = Arc::new(Obs::new());
        let mut router = test_router();
        router.set_obs(Arc::clone(&obs));
        let h = Server::new(router).spawn("127.0.0.1:0").unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"GET /ping HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
            .unwrap();
        let resp = read_response(&mut s);
        assert!(resp.ends_with("pong"), "{resp}");
        // Request done, connection idle: still open, no longer inflight.
        // (The worker decrements inflight just after the final flush, so
        // allow it a beat.)
        while h.shared.active.load(Ordering::SeqCst) != 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(h.open_connections(), 1);
        assert_eq!(
            obs.metrics.gauge("ccp_httpd_open_connections", &[]).get(),
            1
        );
        drop(s);
        h.shutdown();
    }

    #[test]
    fn dispatch_without_socket() {
        // The webportal drives the router in-process for most tests.
        let mut router = Router::new();
        router.get("/x", |_| Response::text("y"));
        let mut req = Request::synthetic(Method::Get, "/x", b"");
        assert_eq!(router.dispatch(&mut req).body_str(), "y");
    }
}
