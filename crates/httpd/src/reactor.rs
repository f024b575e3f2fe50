//! The epoll reactor + M:N green-task engine.
//!
//! A small fixed pool of workers runs connection *tasks* — plain state
//! machines boxed in a slab. Every worker blocks in `epoll_wait` on one
//! shared connection [`Epoll`], so the thread the kernel wakes for a
//! readable socket is the thread that serves it: one wake-up per
//! request. A connection costs a slab slot and two byte buffers instead
//! of an OS thread and its stack, which is what moves the capacity
//! ceiling from "hundreds of threads" to "as many sockets as the fd
//! limit allows". A lean reactor thread keeps, on an epoll of its own,
//! what must not wait for a free worker: the listener (accept and shed),
//! the shutdown [`Waker`] and the deadline wheel.
//!
//! Ownership protocol (the part that keeps this correct without an
//! async runtime):
//!
//! * every fd is registered `EPOLLONESHOT` and armed only when its task
//!   parks, so it reports at most one event per park;
//! * a task leaves the slab only through [`Slab::take_parked`], by the
//!   worker its event woke or by the reactor when its deadline fired;
//!   whoever takes it owns it, and the other finds the slot not parked
//!   and drops its event or timer entry. (An event that finds its slot
//!   already reused by a newer connection only wakes that task
//!   spuriously: it finds nothing to read and parks again.)
//! * a worker takes at most one event per wait, so it never holds a
//!   second connection's readiness while a long handler runs;
//! * each park bumps the slot's sequence number; timer-wheel entries
//!   carry the sequence they were armed under, so a deadline that fires
//!   after its park ended expires into nothing (lazy cancellation);
//! * a deadline acts only on a socket with nothing pending. A task whose
//!   readiness already arrived — its event waiting for a busy worker —
//!   parks again for a worker to serve instead of timing out. The drain
//!   likewise keeps an idle connection whose next request has arrived.
//!
//! Shutdown replaces the old "connect a no-op TCP client to our own
//! listener" nudge: an `eventfd` [`Waker`] kicks the reactor out of
//! `epoll_wait`, the listener is deregistered, idle connections are
//! closed, and in-flight requests get `DRAIN_GRACE` to finish. Then a
//! second eventfd wakes the workers out of their `epoll_wait` to exit.

use crate::http::{HttpError, Request, Response, Status, CONTINUE};
use crate::router::Router;
use crate::server::{epoch_secs, ServerConfig, Shared, DRAIN_GRACE};
use crate::sys::{ready_now, Epoll, Event, Interest, Waker};
use crate::wheel::{Deadline, TimerWheel};
use obs::{Counter, Gauge, Obs};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reactor-epoll token of the shutdown eventfd.
const TOKEN_WAKER: u64 = 0;
/// Reactor-epoll token of the TCP listener.
const TOKEN_LISTENER: u64 = 1;
/// Connection-epoll token of [`Core::halt`]; slab tokens never reach it.
const TOKEN_HALT: u64 = u64::MAX;
/// Longest a worker blocks in `epoll_wait` before it looks at the stop
/// flag again, should a halt wake-up be lost.
const WORKER_WAIT_MS: i32 = 50;
/// Bytes read per `read` call while filling a request buffer (both
/// engines).
pub(crate) const READ_CHUNK: usize = 16 * 1024;
/// Keep-alive buffers are shrunk back to this between requests so an
/// idle connection's footprint stays bounded.
const BUF_KEEP: usize = 16 * 1024;
/// How long a shed (503) connection may dribble request bytes before we
/// give up on the RST-avoiding drain.
const SHED_DRAIN_MS: u64 = 250;

/// Cached metric handles (`Counter`/`Gauge` are `Arc`-backed atomics, so
/// cloning once up front keeps the hot path registry-free).
struct Metrics {
    open: Gauge,
    parked: Gauge,
    wakeups: Counter,
    keepalive: Counter,
    inflight: Gauge,
    shed: Counter,
    timeouts: Counter,
    rejected_too_large: Counter,
    rejected_bad: Counter,
}

impl Metrics {
    fn new(o: &Obs) -> Metrics {
        Metrics {
            open: o.metrics.gauge("ccp_httpd_open_connections", &[]),
            parked: o.metrics.gauge("ccp_httpd_tasks_parked", &[]),
            wakeups: o.metrics.counter("ccp_httpd_reactor_wakeups_total", &[]),
            keepalive: o.metrics.counter("ccp_httpd_keepalive_reuses_total", &[]),
            inflight: o.metrics.gauge("ccp_httpd_inflight", &[]),
            shed: o.metrics.counter("ccp_httpd_shed_total", &[]),
            timeouts: o.metrics.counter("ccp_httpd_request_timeouts_total", &[]),
            rejected_too_large: o
                .metrics
                .counter("ccp_httpd_rejected_total", &[("reason", "too_large")]),
            rejected_bad: o
                .metrics
                .counter("ccp_httpd_rejected_total", &[("reason", "bad_request")]),
        }
    }
}

/// One connection task: a state machine over two buffers. ~100 bytes of
/// state plus buffer capacity — the whole point of M:N.
struct Conn {
    stream: TcpStream,
    /// Bytes received and not yet consumed by a parsed request.
    buf: Vec<u8>,
    /// Serialized response bytes not yet written.
    out: Vec<u8>,
    out_pos: usize,
    /// The current response's `Connection` decision.
    keep_alive: bool,
    /// Shed/refused path: half-close after the response, then sink
    /// request bytes until the peer closes (avoids an RST racing the
    /// response out of the client's receive buffer).
    draining: bool,
    /// A request is mid-flight on this connection (first byte seen,
    /// response not fully flushed). Counted in [`Shared::active`].
    active: bool,
    /// A [`CONTINUE`] is queued or sent for the current request; its
    /// final response clears this.
    continued: bool,
    /// Requests completed on this connection (keep-alive reuse count).
    served: u64,
    /// This is a 503-shed connection (counted separately from `open`).
    shed: bool,
    /// Start of the current request, for the access log.
    started: Instant,
}

impl Conn {
    fn new(stream: TcpStream, shed: bool) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            keep_alive: false,
            draining: shed,
            active: false,
            continued: false,
            served: 0,
            shed,
            started: Instant::now(),
        }
    }
}

enum Slot {
    Vacant,
    /// Task waiting for readiness or a deadline; fd armed.
    Parked(Box<Conn>),
    /// Task owned by a worker or by the reactor thread.
    Running,
}

struct Slab {
    slots: Vec<Slot>,
    /// Park sequence per slot; bumped on every park *and* unpark so
    /// stale timer entries can be recognised.
    seqs: Vec<u64>,
    free: Vec<usize>,
}

impl Slab {
    fn alloc(&mut self) -> usize {
        match self.free.pop() {
            Some(t) => t,
            None => {
                self.slots.push(Slot::Vacant);
                self.seqs.push(0);
                self.slots.len() - 1
            }
        }
    }

    /// Take a parked task out of its slot (→ `Running`), or `None` if the
    /// slot is not currently parked (the event/timer lost the race).
    fn take_parked(&mut self, token: usize) -> Option<Box<Conn>> {
        if token >= self.slots.len() || !matches!(self.slots[token], Slot::Parked(_)) {
            return None;
        }
        self.seqs[token] += 1;
        match std::mem::replace(&mut self.slots[token], Slot::Running) {
            Slot::Parked(conn) => Some(conn),
            _ => unreachable!(),
        }
    }

    fn release(&mut self, token: usize) {
        self.seqs[token] += 1;
        self.slots[token] = Slot::Vacant;
        self.free.push(token);
    }
}

/// Everything the reactor thread, the workers and [`ServerHandle`]
/// share.
///
/// [`ServerHandle`]: crate::server::ServerHandle
pub(crate) struct Core {
    /// The connection epoll: every worker waits on it.
    conns: Epoll,
    waker: Waker,
    /// Set once `hard_stop` is: wakes the workers out of `epoll_wait`.
    /// Never drained, so each worker re-arms it for the next and exits.
    halt: Waker,
    config: ServerConfig,
    router: Arc<Router>,
    obs: Option<Arc<Obs>>,
    metrics: Option<Metrics>,
    shared: Arc<Shared>,
    slab: Mutex<Slab>,
    wheel: Mutex<TimerWheel>,
    /// Tasks a worker has taken out of the slab and not yet parked again
    /// or closed.
    in_hand: AtomicUsize,
    /// Base of the wheel's millisecond clock.
    epoch: Instant,
    /// Grace expired: parks are refused, workers exit, remaining tasks
    /// close.
    hard_stop: AtomicBool,
    /// Shed connections still draining (bounded separately).
    shed_open: AtomicUsize,
}

impl Core {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Kick the reactor out of `epoll_wait` (shutdown path).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }
}

/// A running reactor: the shared core plus the reactor thread handle.
pub(crate) struct ReactorHandle {
    pub(crate) core: Arc<Core>,
    pub(crate) thread: Option<JoinHandle<()>>,
}

/// Start the engine on `listener`. Fails only if the kernel refuses an
/// epoll instance or an eventfd.
pub(crate) fn spawn(
    listener: TcpListener,
    config: ServerConfig,
    router: Arc<Router>,
    obs: Option<Arc<Obs>>,
    shared: Arc<Shared>,
) -> std::io::Result<ReactorHandle> {
    crate::sys::raise_nofile_limit();
    listener.set_nonblocking(true)?;
    let conns = Epoll::new()?;
    let reactor = Epoll::new()?;
    let waker = Waker::new()?;
    let halt = Waker::new()?;
    reactor.register_armed(waker.fd(), Interest::Read, TOKEN_WAKER)?;
    reactor.register_armed(listener.as_raw_fd(), Interest::Read, TOKEN_LISTENER)?;
    conns.register_armed(halt.fd(), Interest::Read, TOKEN_HALT)?;
    let workers = if config.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 8)
    } else {
        config.workers
    };
    let metrics = obs.as_deref().map(Metrics::new);
    let core = Arc::new(Core {
        conns,
        waker,
        halt,
        config,
        router,
        obs,
        metrics,
        shared,
        slab: Mutex::new(Slab {
            slots: Vec::new(),
            seqs: Vec::new(),
            free: Vec::new(),
        }),
        // 256 slots × 16ms ≈ 4s revolution: every portal deadline fits
        // in a couple of revolutions.
        wheel: Mutex::new(TimerWheel::new(256, 16)),
        in_hand: AtomicUsize::new(0),
        epoch: Instant::now(),
        hard_stop: AtomicBool::new(false),
        shed_open: AtomicUsize::new(0),
    });
    let mut worker_threads = Vec::with_capacity(workers);
    for i in 0..workers {
        let core = Arc::clone(&core);
        worker_threads.push(
            std::thread::Builder::new()
                .name(format!("httpd-worker-{i}"))
                .spawn(move || worker_loop(&core))?,
        );
    }
    let core2 = Arc::clone(&core);
    let thread = std::thread::Builder::new()
        .name("httpd-reactor".into())
        .spawn(move || reactor_loop(&core2, &reactor, listener, worker_threads))?;
    Ok(ReactorHandle {
        core,
        thread: Some(thread),
    })
}

/// The reactor thread: accept and shed on the listener, act on due
/// deadlines, and drain on shutdown. `reactor` holds the listener and the
/// waker; connection readiness never comes here.
fn reactor_loop(core: &Core, reactor: &Epoll, listener: TcpListener, workers: Vec<JoinHandle<()>>) {
    let mut events: Vec<Event> = Vec::new();
    let mut due: Vec<Deadline> = Vec::new();
    let mut stopping = false;
    let mut listener_open = true;
    let mut drain_deadline = Instant::now();
    loop {
        let now = core.now_ms();
        // Poll timeout: next wheel deadline, capped so deadlines that
        // workers arm while we sleep and the stop flag are noticed
        // promptly.
        let cap: u64 = if stopping {
            5
        } else if core.shared.open.load(Ordering::SeqCst) > 0
            || core.shed_open.load(Ordering::SeqCst) > 0
        {
            100
        } else {
            500
        };
        let timeout = core
            .wheel
            .lock()
            .unwrap()
            .next_deadline_in(now)
            .map_or(cap, |ms| ms.min(cap)) as i32;
        events.clear();
        if reactor.wait(&mut events, timeout).is_err() {
            std::thread::sleep(Duration::from_millis(5));
        }
        if !events.is_empty() {
            if let Some(m) = &core.metrics {
                m.wakeups.inc();
            }
        }
        for ev in &events {
            match ev.token {
                TOKEN_WAKER => {
                    core.waker.drain();
                    let _ = reactor.rearm(core.waker.fd(), Interest::Read, TOKEN_WAKER);
                }
                TOKEN_LISTENER => {
                    accept_burst(core, &listener, stopping);
                    if listener_open && !stopping {
                        let _ = reactor.rearm(listener.as_raw_fd(), Interest::Read, TOKEN_LISTENER);
                    }
                }
                _ => {}
            }
        }
        due.clear();
        let now = core.now_ms();
        core.wheel.lock().unwrap().advance(now, &mut due);
        for d in &due {
            expire(core, d);
        }
        if !stopping && core.shared.stop.load(Ordering::SeqCst) {
            stopping = true;
            drain_deadline = Instant::now() + DRAIN_GRACE;
            if listener_open {
                let _ = reactor.deregister(listener.as_raw_fd());
                listener_open = false;
            }
        }
        if stopping {
            let waiting = close_idle_parked(core);
            let quiesced = waiting == 0
                && core.shared.active.load(Ordering::SeqCst) == 0
                && core.in_hand.load(Ordering::SeqCst) == 0;
            if quiesced || Instant::now() >= drain_deadline {
                break;
            }
        }
    }
    // Grace spent (or everything drained): refuse further parks, stop the
    // workers, and close whatever is left.
    core.hard_stop.store(true, Ordering::SeqCst);
    core.halt.wake();
    for t in workers {
        let _ = t.join();
    }
    let leftovers: Vec<Box<Conn>> = {
        let mut slab = core.slab.lock().unwrap();
        (0..slab.slots.len())
            .filter_map(|t| {
                let c = slab.take_parked(t);
                if c.is_some() {
                    slab.release(t);
                }
                c
            })
            .collect()
    };
    for conn in leftovers {
        if let Some(m) = &core.metrics {
            m.parked.sub(1);
        }
        drop_conn_counts(core, &conn);
    }
}

fn accept_burst(core: &Core, listener: &TcpListener, stopping: bool) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stopping {
                    continue;
                }
                admit(core, stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

fn admit(core: &Core, stream: TcpStream) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    // Backpressure off the open-connections gauge: beyond the budget the
    // client gets an immediate 503 + Retry-After instead of a queue slot.
    if core.shared.open.load(Ordering::SeqCst) >= core.config.max_inflight {
        shed(core, stream);
        return;
    }
    core.shared.open.fetch_add(1, Ordering::SeqCst);
    if let Some(m) = &core.metrics {
        m.open.add(1);
    }
    enroll(core, Box::new(Conn::new(stream, false)));
}

fn shed(core: &Core, stream: TcpStream) {
    if let Some(o) = core.obs.as_deref() {
        if let Some(m) = &core.metrics {
            m.shed.inc();
        }
        if core.config.access_log {
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
    // The polite 503 + drain costs an fd for up to SHED_DRAIN_MS; under a
    // flood, cap the drainers and just close.
    if core.shed_open.load(Ordering::SeqCst) >= core.config.max_inflight.max(64) {
        return;
    }
    core.shed_open.fetch_add(1, Ordering::SeqCst);
    let mut conn = Box::new(Conn::new(stream, true));
    Response::error(
        Status::SERVICE_UNAVAILABLE,
        "server at capacity, retry shortly",
    )
    .with_header("Retry-After", "1")
    .write_into(&mut conn.out, false);
    enroll(core, conn);
}

/// Register a fresh connection's fd on the connection epoll and park its
/// task. A worker runs it once its first request arrives (or, for a shed
/// connection, once its 503 can be written), like every later run.
fn enroll(core: &Core, conn: Box<Conn>) {
    let fd = conn.stream.as_raw_fd();
    let token = core.slab.lock().unwrap().alloc();
    if core.conns.register(fd, token as u64).is_err() {
        core.slab.lock().unwrap().release(token);
        drop_conn_counts(core, &conn);
        return;
    }
    park(core, token, conn);
}

/// A wheel entry fired. It acts only if the park it was armed under is
/// still the current one (sequence check = lazy cancellation), and only
/// on a socket with nothing pending: a task whose readiness already
/// arrived, its event waiting for a busy worker, parks again for a
/// worker to serve. Otherwise the task times out here, on the reactor
/// thread. That is cheap, because a timed-out task never reaches the
/// router: it flushes a 408 or nothing, then closes.
fn expire(core: &Core, d: &Deadline) {
    let conn = {
        let mut slab = core.slab.lock().unwrap();
        if d.token >= slab.seqs.len() || slab.seqs[d.token] != d.seq {
            return;
        }
        slab.take_parked(d.token)
    };
    let Some(mut conn) = conn else {
        return;
    };
    if let Some(m) = &core.metrics {
        m.parked.sub(1);
    }
    let next = if ready_now(conn.stream.as_raw_fd(), waits_for(core, &conn).0) {
        Next::Park
    } else {
        time_out(core, &mut conn)
    };
    settle(core, d.token, conn, next);
}

/// During drain: close parked connections with no request mid-flight
/// (idle keep-alives, never-spoke clients, shed drainers). An idle one
/// whose next request already arrived, waiting for a busy worker, stays
/// open to be served; returns how many did.
fn close_idle_parked(core: &Core) -> usize {
    let mut waiting = 0;
    let victims: Vec<Box<Conn>> = {
        let mut slab = core.slab.lock().unwrap();
        (0..slab.slots.len())
            .filter_map(|t| {
                let Slot::Parked(c) = &slab.slots[t] else {
                    return None;
                };
                if c.active {
                    return None;
                }
                if !c.draining && ready_now(c.stream.as_raw_fd(), Interest::Read) {
                    waiting += 1;
                    return None;
                }
                let c = slab.take_parked(t);
                if c.is_some() {
                    slab.release(t);
                }
                c
            })
            .collect()
    };
    for conn in victims {
        if let Some(m) = &core.metrics {
            m.parked.sub(1);
        }
        drop_conn_counts(core, &conn);
    }
    waiting
}

/// Undo a connection's contribution to every gauge; the fd closes when
/// the `Conn` drops.
fn drop_conn_counts(core: &Core, conn: &Conn) {
    let _ = core.conns.deregister(conn.stream.as_raw_fd());
    if conn.shed {
        core.shed_open.fetch_sub(1, Ordering::SeqCst);
    } else {
        core.shared.open.fetch_sub(1, Ordering::SeqCst);
        if let Some(m) = &core.metrics {
            m.open.sub(1);
        }
    }
    if conn.active {
        let left = core.shared.active.fetch_sub(1, Ordering::SeqCst) - 1;
        if let Some(m) = &core.metrics {
            m.inflight.set(left as i64);
        }
    }
}

/// A worker: wait on the connection epoll for one event, take the task it
/// names out of the slab, and run it until it parks or closes.
fn worker_loop(core: &Core) {
    let mut events: Vec<Event> = Vec::with_capacity(1);
    while !core.hard_stop.load(Ordering::SeqCst) {
        events.clear();
        if core.conns.wait_max(&mut events, WORKER_WAIT_MS, 1).is_err() {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        let Some(ev) = events.first() else {
            continue;
        };
        if ev.token == TOKEN_HALT {
            // Pass the halt on to the next waiting worker.
            let _ = core.conns.rearm(core.halt.fd(), Interest::Read, TOKEN_HALT);
            return;
        }
        if let Some(m) = &core.metrics {
            m.wakeups.inc();
        }
        let token = ev.token as usize;
        let conn = {
            let mut slab = core.slab.lock().unwrap();
            let conn = slab.take_parked(token);
            // Counted before the slab lock drops: the drain check passes
            // over the slab first, so it sees the task in one place or
            // the other.
            if conn.is_some() {
                core.in_hand.fetch_add(1, Ordering::SeqCst);
            }
            conn
        };
        let Some(mut conn) = conn else {
            continue;
        };
        if let Some(m) = &core.metrics {
            m.parked.sub(1);
        }
        let next = drive(core, &mut conn);
        settle(core, token, conn, next);
        core.in_hand.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Act on what a run of the task decided: park it again or close it.
fn settle(core: &Core, token: usize, conn: Box<Conn>, next: Next) {
    match next {
        Next::Park => park(core, token, conn),
        Next::Close => {
            core.slab.lock().unwrap().release(token);
            drop_conn_counts(core, &conn);
        }
    }
}

/// What a parked task waits for, and how long: to flush its pending
/// output, or else to read (a shed drainer only briefly).
fn waits_for(core: &Core, conn: &Conn) -> (Interest, Duration) {
    if conn.out_pos < conn.out.len() {
        (Interest::Write, core.config.write_timeout)
    } else if conn.draining {
        (Interest::Read, Duration::from_millis(SHED_DRAIN_MS))
    } else {
        (Interest::Read, core.config.read_timeout)
    }
}

/// Park a task: slot in the slab, deadline on the wheel, fd armed —
/// strictly in that order (the fd arm is the publication point).
fn park(core: &Core, token: usize, conn: Box<Conn>) {
    if core.hard_stop.load(Ordering::SeqCst) {
        core.slab.lock().unwrap().release(token);
        drop_conn_counts(core, &conn);
        return;
    }
    let (interest, timeout) = waits_for(core, &conn);
    let fd = conn.stream.as_raw_fd();
    let seq = {
        let mut slab = core.slab.lock().unwrap();
        slab.seqs[token] += 1;
        let seq = slab.seqs[token];
        slab.slots[token] = Slot::Parked(conn);
        seq
    };
    if let Some(m) = &core.metrics {
        m.parked.add(1);
    }
    let now = core.now_ms();
    core.wheel.lock().unwrap().arm(
        now,
        Deadline {
            token,
            seq,
            at_ms: now + timeout.as_millis() as u64,
        },
    );
    if core.conns.rearm(fd, interest, token as u64).is_err() {
        // Readiness is unobservable: pull the task back out and close.
        let conn = core.slab.lock().unwrap().take_parked(token);
        if let Some(conn) = conn {
            core.slab.lock().unwrap().release(token);
            if let Some(m) = &core.metrics {
                m.parked.sub(1);
            }
            drop_conn_counts(core, &conn);
        }
    }
}

/// Where a run of a task leaves it.
enum Next {
    /// Park for what [`waits_for`] says.
    Park,
    Close,
}

enum IoStep {
    Progress,
    WouldBlock,
    Closed,
}

/// Run one connection task until it blocks or finishes: flush pending
/// output, parse buffered requests (pipelining included), read more
/// bytes, repeat.
fn drive(core: &Core, conn: &mut Conn) -> Next {
    loop {
        if conn.out_pos < conn.out.len() {
            match flush(conn) {
                IoStep::Progress => {
                    conn.out.clear();
                    conn.out_pos = 0;
                    if conn.draining {
                        // 503 fully sent: half-close, then sink whatever
                        // the client was mid-sending so it sees the
                        // response rather than an RST.
                        let _ = conn.stream.shutdown(Shutdown::Write);
                    } else if conn.continued {
                        // The interim `100 Continue` is out; the body
                        // comes next.
                    } else {
                        finish_response(core, conn);
                        if !conn.keep_alive {
                            return Next::Close;
                        }
                        if conn.buf.capacity() > 4 * BUF_KEEP {
                            conn.buf.shrink_to(BUF_KEEP);
                        }
                        if conn.out.capacity() > 4 * BUF_KEEP {
                            conn.out.shrink_to(BUF_KEEP);
                        }
                    }
                }
                IoStep::WouldBlock => return Next::Park,
                IoStep::Closed => return Next::Close,
            }
            continue;
        }
        if conn.draining {
            return match sink(conn) {
                IoStep::WouldBlock => Next::Park,
                _ => Next::Close,
            };
        }
        match Request::parse_bytes(&conn.buf, core.config.max_body) {
            Ok(Some((mut req, consumed))) => {
                conn.buf.drain(..consumed);
                respond(core, conn, &mut req);
                continue;
            }
            Ok(None) => {
                if !conn.continued && Request::awaits_continue(&conn.buf, core.config.max_body) {
                    conn.continued = true;
                    conn.out.extend_from_slice(CONTINUE);
                    continue;
                }
            }
            Err(e) => {
                reject(core, conn, e);
                continue;
            }
        }
        match fill(conn) {
            IoStep::Progress => {
                if !conn.active && !conn.buf.is_empty() {
                    begin_request(core, conn);
                }
                continue;
            }
            IoStep::WouldBlock => return Next::Park,
            IoStep::Closed => {
                if conn.buf.is_empty() {
                    // Peer hung up between requests: not an error.
                    return Next::Close;
                }
                reject(core, conn, HttpError::Malformed("truncated request"));
                continue;
            }
        }
    }
}

/// A parked deadline fired on a socket with nothing pending. An idle
/// keep-alive, a stalled response writer or a shed drainer just closes;
/// a stalled request gets a `408`, which closes the connection once it
/// is flushed, so the router is never reached from here.
fn time_out(core: &Core, conn: &mut Conn) -> Next {
    let mid_request = !conn.draining && conn.out_pos >= conn.out.len() && !conn.buf.is_empty();
    if !mid_request {
        return Next::Close;
    }
    if let Some(m) = &core.metrics {
        m.timeouts.inc();
    }
    conn.buf.clear();
    let resp = Response::error(Status::REQUEST_TIMEOUT, "request not received in time");
    send_response(core, conn, &resp, ("-", "-"), false);
    drive(core, conn)
}

fn begin_request(core: &Core, conn: &mut Conn) {
    conn.active = true;
    conn.started = Instant::now();
    let now = core.shared.active.fetch_add(1, Ordering::SeqCst) + 1;
    if let Some(m) = &core.metrics {
        m.inflight.set(now as i64);
    }
}

/// A response left the building: count it served and retire the active
/// request (shed responses never come through here).
fn finish_response(core: &Core, conn: &mut Conn) {
    core.shared.served.fetch_add(1, Ordering::Relaxed);
    if conn.active {
        conn.active = false;
        let left = core.shared.active.fetch_sub(1, Ordering::SeqCst) - 1;
        if let Some(m) = &core.metrics {
            m.inflight.set(left as i64);
        }
    }
}

/// Serialize `resp` into the connection's output buffer and emit the
/// access-log event. `line` is the logged method/path (placeholders for
/// pre-router rejections, matching the blocking engine).
fn send_response(
    core: &Core,
    conn: &mut Conn,
    resp: &Response,
    line: (&str, &str),
    keep_alive: bool,
) {
    conn.keep_alive = keep_alive;
    conn.continued = false;
    conn.out_pos = 0;
    resp.write_into(&mut conn.out, keep_alive);
    if let Some(o) = core.obs.as_deref() {
        if core.config.access_log {
            let dur = if conn.active {
                conn.started.elapsed().as_micros() as u64
            } else {
                0
            };
            o.events.record(
                epoch_secs(),
                "http.access",
                &[
                    ("method", line.0),
                    ("path", line.1),
                    ("status", &resp.status.0.to_string()),
                    ("bytes", &resp.body.len().to_string()),
                    ("duration_us", &dur.to_string()),
                ],
            );
        }
    }
}

fn respond(core: &Core, conn: &mut Conn, req: &mut Request) {
    if !conn.active {
        // Pipelined follow-up: the request completed out of already
        // buffered bytes without another read.
        begin_request(core, conn);
    }
    if conn.served > 0 {
        if let Some(m) = &core.metrics {
            m.keepalive.inc();
        }
    }
    let resp = core.router.dispatch(req);
    let keep_alive = req.wants_keep_alive() && !core.shared.stop.load(Ordering::SeqCst);
    let method = req.method.to_string();
    send_response(core, conn, &resp, (&method, &req.path), keep_alive);
    conn.served += 1;
}

/// Pre-router rejection (parse error / oversized body): mirrors the
/// blocking engine's status mapping and counters.
fn reject(core: &Core, conn: &mut Conn, e: HttpError) {
    if !conn.active {
        begin_request(core, conn);
    }
    let resp = match e {
        HttpError::TooLarge { declared, limit } => {
            if let Some(m) = &core.metrics {
                m.rejected_too_large.inc();
            }
            Response::error(
                Status::PAYLOAD_TOO_LARGE,
                format!("body of {declared} bytes exceeds limit {limit}"),
            )
        }
        other => {
            if let Some(m) = &core.metrics {
                m.rejected_bad.inc();
            }
            Response::error(Status::BAD_REQUEST, other.to_string())
        }
    };
    conn.buf.clear();
    send_response(core, conn, &resp, ("-", "-"), false);
}

fn flush(conn: &mut Conn) -> IoStep {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return IoStep::Closed,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return IoStep::WouldBlock,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return IoStep::Closed,
        }
    }
    IoStep::Progress
}

/// One chunked read into the request buffer.
fn fill(conn: &mut Conn) -> IoStep {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return IoStep::Closed,
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                return IoStep::Progress;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return IoStep::WouldBlock,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return IoStep::Closed,
        }
    }
}

/// Discard request bytes from a half-closed shed connection until EOF.
fn sink(conn: &mut Conn) -> IoStep {
    let mut scratch = [0u8; 512];
    loop {
        match conn.stream.read(&mut scratch) {
            Ok(0) => return IoStep::Closed,
            Ok(_) => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return IoStep::WouldBlock,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return IoStep::Closed,
        }
    }
}
