//! Raw readiness primitives for the reactor: `epoll`, a zero-timeout
//! `ppoll`, `eventfd` and a best-effort `RLIMIT_NOFILE` raise, issued as
//! direct syscalls.
//!
//! No third-party crate is on the allowed dependency list (`libc`, `mio`,
//! `polling` all out of reach), and `std` exposes nonblocking sockets but
//! no readiness notification, so the handful of kernel entry points the
//! reactor needs are invoked through inline assembly on the two Linux
//! targets the portal deploys to (x86_64, aarch64). Everything is wrapped
//! in safe RAII types here; the rest of the crate never sees a raw
//! syscall. On other targets [`SUPPORTED`] is `false` and the server falls
//! back to the thread-per-connection engine.

/// Whether the epoll reactor can run on this target.
pub const SUPPORTED: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::io;
    use std::os::fd::RawFd;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const READ: usize = 0;
        pub const WRITE: usize = 1;
        pub const CLOSE: usize = 3;
        pub const EPOLL_CTL: usize = 233;
        pub const PPOLL: usize = 271;
        pub const EPOLL_PWAIT: usize = 281;
        pub const EVENTFD2: usize = 290;
        pub const EPOLL_CREATE1: usize = 291;
        pub const PRLIMIT64: usize = 302;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const READ: usize = 63;
        pub const WRITE: usize = 64;
        pub const CLOSE: usize = 57;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const PPOLL: usize = 73;
        pub const EVENTFD2: usize = 19;
        pub const EPOLL_CREATE1: usize = 20;
        pub const PRLIMIT64: usize = 261;
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack),
        );
        ret
    }

    /// Kernel return convention: `[-4095, -1]` is `-errno`.
    fn check(ret: isize) -> io::Result<usize> {
        if (-4095..0).contains(&ret) {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    const EINTR: i32 = 4;

    /// `epoll_event`: packed on x86_64 (12 bytes), naturally aligned on
    /// every other architecture (16 bytes). Matching the kernel ABI here
    /// is load-bearing — `epoll_wait` writes this layout directly.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLONESHOT: u32 = 1 << 30;

    const EPOLL_CTL_ADD: usize = 1;
    const EPOLL_CTL_DEL: usize = 2;
    const EPOLL_CTL_MOD: usize = 3;
    const EPOLL_CLOEXEC: usize = 0x80000;
    const EFD_CLOEXEC: usize = 0x80000;
    const EFD_NONBLOCK: usize = 0x800;

    pub fn epoll_create() -> io::Result<RawFd> {
        check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })
            .map(|fd| fd as RawFd)
    }

    pub fn epoll_ctl(epfd: RawFd, op: usize, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                epfd as usize,
                op,
                fd as usize,
                &mut ev as *mut EpollEvent as usize,
                0,
                0,
            )
        })
        .map(|_| ())
    }

    pub fn epoll_add(epfd: RawFd, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        epoll_ctl(epfd, EPOLL_CTL_ADD, fd, events, data)
    }

    pub fn epoll_mod(epfd: RawFd, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        epoll_ctl(epfd, EPOLL_CTL_MOD, fd, events, data)
    }

    pub fn epoll_del(epfd: RawFd, fd: RawFd) -> io::Result<()> {
        epoll_ctl(epfd, EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait for events; retries on `EINTR` so callers never see it.
    pub fn epoll_wait(
        epfd: RawFd,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        loop {
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    epfd as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as usize,
                    0, // no sigmask
                    8, // kernel sigset size
                )
            };
            match check(ret) {
                Err(e) if e.raw_os_error() == Some(EINTR) => continue,
                other => return other,
            }
        }
    }

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    /// `ppoll` one fd with a zero timeout: whether any of `events` (the
    /// `EPOLL*` bits share their values with `POLL*`), an error or a
    /// hang-up is pending right now. A failed call reports `false`.
    pub fn poll_now(fd: RawFd, events: u32) -> bool {
        let mut pfd = PollFd {
            fd,
            events: events as i16,
            revents: 0,
        };
        let zero = Timespec { sec: 0, nsec: 0 };
        loop {
            // SAFETY: `pfd` and `zero` outlive the call and have the
            // kernel's `struct pollfd` / `struct timespec` layouts (both
            // targets are 64-bit); `nfds` is 1, matching the one `pfd`; a
            // null sigmask is allowed. The kernel writes only `revents`.
            let ret = unsafe {
                syscall6(
                    nr::PPOLL,
                    &mut pfd as *mut PollFd as usize,
                    1,
                    &zero as *const Timespec as usize,
                    0, // no sigmask
                    8, // kernel sigset size
                    0,
                )
            };
            match check(ret) {
                Err(e) if e.raw_os_error() == Some(EINTR) => continue,
                Ok(n) => return n > 0,
                Err(_) => return false,
            }
        }
    }

    pub fn eventfd() -> io::Result<RawFd> {
        check(unsafe { syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) })
            .map(|fd| fd as RawFd)
    }

    pub fn fd_write_u64(fd: RawFd, v: u64) -> io::Result<usize> {
        let buf = v.to_ne_bytes();
        check(unsafe { syscall6(nr::WRITE, fd as usize, buf.as_ptr() as usize, 8, 0, 0, 0) })
    }

    pub fn fd_read_u64(fd: RawFd) -> io::Result<u64> {
        let mut buf = [0u8; 8];
        check(unsafe { syscall6(nr::READ, fd as usize, buf.as_mut_ptr() as usize, 8, 0, 0, 0) })
            .map(|_| u64::from_ne_bytes(buf))
    }

    pub fn close(fd: RawFd) {
        let _ = unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) };
    }

    #[repr(C)]
    struct Rlimit64 {
        cur: u64,
        max: u64,
    }

    const RLIMIT_NOFILE: usize = 7;

    /// Raise the soft fd limit to the hard limit; returns the resulting
    /// soft limit (best effort — failures just keep the current limit).
    pub fn raise_nofile_limit() -> u64 {
        let mut old = Rlimit64 { cur: 0, max: 0 };
        let got = unsafe {
            syscall6(
                nr::PRLIMIT64,
                0, // self
                RLIMIT_NOFILE,
                0,
                &mut old as *mut Rlimit64 as usize,
                0,
                0,
            )
        };
        if check(got).is_err() {
            return 1024;
        }
        if old.cur >= old.max {
            return old.cur;
        }
        let want = Rlimit64 {
            cur: old.max,
            max: old.max,
        };
        let set = unsafe {
            syscall6(
                nr::PRLIMIT64,
                0,
                RLIMIT_NOFILE,
                &want as *const Rlimit64 as usize,
                0,
                0,
                0,
            )
        };
        if check(set).is_ok() {
            old.max
        } else {
            old.cur
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use supported::*;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod supported {
    use super::imp;
    use std::io;
    use std::os::fd::RawFd;

    /// What a parked task is waiting for.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Interest {
        /// Readable (or peer half-close).
        Read,
        /// Writable.
        Write,
    }

    impl Interest {
        fn bits(self) -> u32 {
            match self {
                // RDHUP so a peer close wakes a parked reader immediately
                // instead of waiting for its deadline.
                Interest::Read => imp::EPOLLIN | imp::EPOLLRDHUP,
                Interest::Write => imp::EPOLLOUT,
            }
        }
    }

    /// One delivered readiness event.
    #[derive(Debug, Clone, Copy)]
    pub struct Event {
        /// The `token` the fd was registered with.
        pub token: u64,
        /// Readable / peer-closed / error — anything that should unpark a
        /// reader. Errors are folded in so the task discovers them from
        /// the actual `read`/`write` result.
        pub readable: bool,
        /// Writable (or error, same folding).
        pub writable: bool,
    }

    /// An epoll instance. All registrations are `EPOLLONESHOT`: an armed
    /// fd fires at most once and stays quiet until re-armed, so however
    /// many threads wait on one instance, each event reaches exactly one
    /// of them.
    pub struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        /// A new epoll instance (CLOEXEC).
        pub fn new() -> io::Result<Epoll> {
            Ok(Epoll {
                fd: imp::epoll_create()?,
            })
        }

        /// Register `fd` disarmed; arm it later with [`Epoll::rearm`].
        pub fn register(&self, fd: RawFd, token: u64) -> io::Result<()> {
            imp::epoll_add(self.fd, fd, imp::EPOLLONESHOT, token)
        }

        /// Register `fd` armed for `interest` (one shot).
        pub(crate) fn register_armed(
            &self,
            fd: RawFd,
            interest: Interest,
            token: u64,
        ) -> io::Result<()> {
            imp::epoll_add(self.fd, fd, interest.bits() | imp::EPOLLONESHOT, token)
        }

        /// Arm a registered fd for one `interest` event.
        pub fn rearm(&self, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
            imp::epoll_mod(self.fd, fd, interest.bits() | imp::EPOLLONESHOT, token)
        }

        /// Remove a registration (idempotent-enough: errors ignored by
        /// callers that are closing the fd anyway).
        pub(crate) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            imp::epoll_del(self.fd, fd)
        }

        /// Wait up to `timeout_ms` (`-1` = forever) and append delivered
        /// events to `out`. Returns the number delivered.
        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            self.wait_max(out, timeout_ms, 256)
        }

        /// [`Epoll::wait`], taking at most `max` events (1..=256) per
        /// call; the rest stay queued for the next waiter.
        pub(crate) fn wait_max(
            &self,
            out: &mut Vec<Event>,
            timeout_ms: i32,
            max: usize,
        ) -> io::Result<usize> {
            let mut raw = [imp::EpollEvent { events: 0, data: 0 }; 256];
            let n = imp::epoll_wait(self.fd, &mut raw[..max.clamp(1, 256)], timeout_ms)?;
            for ev in raw.iter().take(n) {
                let bits = ev.events;
                let err = bits & (imp::EPOLLERR | imp::EPOLLHUP) != 0;
                out.push(Event {
                    token: ev.data,
                    readable: bits & (imp::EPOLLIN | imp::EPOLLRDHUP) != 0 || err,
                    writable: bits & imp::EPOLLOUT != 0 || err,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            imp::close(self.fd);
        }
    }

    /// An `eventfd`-backed wakeup handle: any thread can [`Waker::wake`]
    /// the reactor out of `epoll_wait`. Replaces the old "connect a no-op
    /// TCP client to our own listener" shutdown nudge, which hung when the
    /// listener address was unreachable.
    pub(crate) struct Waker {
        fd: RawFd,
    }

    impl Waker {
        /// A new eventfd, registered level-free (caller arms it).
        pub fn new() -> io::Result<Waker> {
            Ok(Waker {
                fd: imp::eventfd()?,
            })
        }

        /// The raw fd, for epoll registration.
        pub fn fd(&self) -> RawFd {
            self.fd
        }

        /// Nudge the reactor (async-signal-safe, never blocks: the
        /// counter saturates rather than the write parking).
        pub fn wake(&self) {
            let _ = imp::fd_write_u64(self.fd, 1);
        }

        /// Drain the counter so the next `wake` edge-triggers again.
        pub fn drain(&self) {
            let _ = imp::fd_read_u64(self.fd);
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            imp::close(self.fd);
        }
    }

    /// Whether `fd` is ready for `interest` right now, without waiting.
    /// Errors and hang-ups count as ready, as they do for an epoll event.
    pub(crate) fn ready_now(fd: RawFd, interest: Interest) -> bool {
        imp::poll_now(fd, interest.bits())
    }

    /// Raise `RLIMIT_NOFILE` soft → hard (the load generator and the
    /// 100k-session front end both want headroom); returns the resulting
    /// soft limit.
    pub(crate) fn raise_nofile_limit() -> u64 {
        imp::raise_nofile_limit()
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub use unsupported::*;

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod unsupported {
    //! Typed stand-ins so the reactor module still type-checks on targets
    //! without epoll; [`super::SUPPORTED`] gates every runtime entry.
    use std::io;
    use std::os::fd::RawFd;

    /// See the Linux implementation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Interest {
        /// Readable.
        Read,
        /// Writable.
        Write,
    }

    /// See the Linux implementation.
    #[derive(Debug, Clone, Copy)]
    pub struct Event {
        /// Registration token.
        pub token: u64,
        /// Readable.
        pub readable: bool,
        /// Writable.
        pub writable: bool,
    }

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll reactor requires linux x86_64/aarch64",
        )
    }

    /// See the Linux implementation.
    pub struct Epoll;

    impl Epoll {
        /// Always fails on this target.
        pub fn new() -> io::Result<Epoll> {
            Err(unsupported())
        }

        /// Unreachable (constructor fails).
        pub fn register(&self, _fd: RawFd, _token: u64) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (constructor fails).
        pub(crate) fn register_armed(
            &self,
            _fd: RawFd,
            _i: Interest,
            _token: u64,
        ) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (constructor fails).
        pub fn rearm(&self, _fd: RawFd, _i: Interest, _token: u64) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (constructor fails).
        pub(crate) fn deregister(&self, _fd: RawFd) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (constructor fails).
        pub fn wait(&self, _out: &mut Vec<Event>, _timeout_ms: i32) -> io::Result<usize> {
            Err(unsupported())
        }

        /// Unreachable (constructor fails).
        pub(crate) fn wait_max(
            &self,
            _out: &mut Vec<Event>,
            _timeout_ms: i32,
            _max: usize,
        ) -> io::Result<usize> {
            Err(unsupported())
        }
    }

    /// See the Linux implementation.
    pub(crate) struct Waker;

    impl Waker {
        /// Always fails on this target.
        pub fn new() -> io::Result<Waker> {
            Err(unsupported())
        }

        /// Unreachable (constructor fails).
        pub fn fd(&self) -> RawFd {
            -1
        }

        /// Unreachable (constructor fails).
        pub fn wake(&self) {}

        /// Unreachable (constructor fails).
        pub fn drain(&self) {}
    }

    /// Unreachable (no reactor on this target).
    pub(crate) fn ready_now(_fd: RawFd, _interest: Interest) -> bool {
        false
    }

    /// No-op on this target.
    pub(crate) fn raise_nofile_limit() -> u64 {
        1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_matches_cfg() {
        assert_eq!(
            SUPPORTED,
            cfg!(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))
        );
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    mod linux {
        use super::super::*;
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;

        #[test]
        fn waker_wakes_epoll_wait() {
            let ep = Epoll::new().unwrap();
            let waker = Waker::new().unwrap();
            ep.register_armed(waker.fd(), Interest::Read, 7).unwrap();
            let mut events = Vec::new();
            // Nothing pending: times out empty.
            assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
            waker.wake();
            assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);
            waker.drain();
            // Oneshot: quiet until re-armed.
            events.clear();
            waker.wake();
            assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
            ep.rearm(waker.fd(), Interest::Read, 7).unwrap();
            assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        }

        #[test]
        fn socket_readability_delivered() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let mut client = TcpStream::connect(addr).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            let ep = Epoll::new().unwrap();
            ep.register(server.as_raw_fd(), 42).unwrap();
            ep.rearm(server.as_raw_fd(), Interest::Read, 42).unwrap();
            let mut events = Vec::new();
            assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "no bytes yet");
            client.write_all(b"x").unwrap();
            assert_eq!(ep.wait(&mut events, 2000).unwrap(), 1);
            assert_eq!(events[0].token, 42);
            assert!(events[0].readable);
            ep.deregister(server.as_raw_fd()).unwrap();
        }

        #[test]
        fn wait_max_leaves_the_rest_queued() {
            let ep = Epoll::new().unwrap();
            let (a, b) = (Waker::new().unwrap(), Waker::new().unwrap());
            ep.register_armed(a.fd(), Interest::Read, 1).unwrap();
            ep.register_armed(b.fd(), Interest::Read, 2).unwrap();
            a.wake();
            b.wake();
            let mut events = Vec::new();
            assert_eq!(ep.wait_max(&mut events, 1000, 1).unwrap(), 1);
            assert_eq!(ep.wait_max(&mut events, 1000, 1).unwrap(), 1);
            let mut tokens: Vec<u64> = events.iter().map(|e| e.token).collect();
            tokens.sort_unstable();
            assert_eq!(tokens, [1, 2], "each wait took one, neither was lost");
        }

        #[test]
        fn ready_now_sees_pending_bytes_without_waiting() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            let fd = server.as_raw_fd();
            assert!(!ready_now(fd, Interest::Read), "nothing sent yet");
            assert!(ready_now(fd, Interest::Write), "empty send buffer");
            client.write_all(b"x").unwrap();
            let t = std::time::Instant::now();
            while !ready_now(fd, Interest::Read) {
                assert!(t.elapsed().as_secs() < 2, "byte never became readable");
                std::thread::yield_now();
            }
        }

        #[test]
        fn nofile_limit_is_sane() {
            assert!(raise_nofile_limit() >= 1024);
        }
    }
}
