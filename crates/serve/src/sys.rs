//! Thin in-tree readiness-API shim: `epoll` on Linux with a portable
//! POSIX `poll` fallback, in the same spirit as `crates/rand-compat` —
//! the workspace has no registry access, so the handful of syscalls the
//! reactor needs are declared against the libc symbols std already
//! links instead of pulling in `libc`/`mio`.
//!
//! The backend is chosen once per [`Poller`]: `epoll` where available,
//! unless `FIA_FORCE_POLL=1` pins the portable arm (mirroring
//! `FIA_FORCE_SCALAR=1` for the SIMD kernels). Both backends expose the
//! same level-triggered readiness contract, so the reactor is written
//! once and CI exercises both arms.
//!
//! [`AcceptBackoff`] is the accept policy and [`FramedConn`] the
//! connection every event loop over a [`Poller`] shares: the prediction
//! server's reactor, `fia-campaignd`'s daemon loop and (the connection
//! only) the open-loop load generator. No other module handles
//! `WouldBlock`.

#![allow(unsafe_code)]

#[cfg(not(unix))]
compile_error!("fia-serve's reactor needs a POSIX readiness API (epoll/poll)");

use crate::metrics::AcceptErrorKind;
use crate::wire::{append_frame, split_frame, WireError};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a registered fd should be watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable.
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest (the common case for idle connections).
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// No interest bits — HUP/ERR still surface (both backends report
    /// them unconditionally).
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

/// One readiness event. `closed` reports a *full* hangup or socket
/// error (`HUP`/`ERR`, which both backends deliver regardless of
/// registered interest) — the peer is gone and nothing is deliverable.
/// A graceful half-close (peer `FIN`, epoll's `RDHUP`) is *not* closed:
/// it surfaces as `readable`, the reader observes `read() == 0`, and
/// responses already in flight can still be written back.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes (or an EOF) to read.
    pub readable: bool,
    /// The fd can accept writes without blocking.
    pub writable: bool,
    /// Full hangup or socket error; the peer is gone.
    pub closed: bool,
}

/// Which readiness backend a [`Poller`] is driving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Linux `epoll`: O(ready) waits, the default where available.
    Epoll,
    /// POSIX `poll`: O(registered) waits, portable fallback
    /// (`FIA_FORCE_POLL=1` pins it).
    Poll,
}

/// `FIA_FORCE_POLL=1` pins the portable `poll` backend at runtime.
pub fn force_poll() -> bool {
    std::env::var_os("FIA_FORCE_POLL").is_some_and(|v| v == "1")
}

// ---------------------------------------------------------------------
// epoll backend (Linux).

#[cfg(target_os = "linux")]
mod epoll {
    use std::os::raw::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// Mirrors the kernel ABI: packed on x86 so the 12-byte layout
    /// matches what `epoll_wait` writes.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut epoll_event,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

#[cfg(target_os = "linux")]
struct EpollPoller {
    epfd: std::os::raw::c_int,
    buf: Vec<epoll::epoll_event>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    fn new() -> io::Result<Self> {
        // SAFETY: plain syscall; the returned fd is owned by this struct
        // and closed in Drop.
        let epfd = unsafe { epoll::epoll_create1(epoll::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollPoller {
            epfd,
            buf: vec![epoll::epoll_event { events: 0, data: 0 }; 256],
        })
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.read {
            // RDHUP rides with read interest only: a half-closed peer
            // must stop generating level-triggered wakeups once the
            // reactor has marked the connection read-done.
            m |= epoll::EPOLLIN | epoll::EPOLLRDHUP;
        }
        if interest.write {
            m |= epoll::EPOLLOUT;
        }
        m
    }

    fn ctl(
        &self,
        op: std::os::raw::c_int,
        fd: RawFd,
        ev: Option<epoll::epoll_event>,
    ) -> io::Result<()> {
        let mut ev = ev;
        let ptr = ev
            .as_mut()
            .map_or(std::ptr::null_mut(), |e| e as *mut epoll::epoll_event);
        // SAFETY: epfd is a live epoll fd; `ptr` is either null (DEL) or
        // points at a stack-local event the kernel only reads.
        if unsafe { epoll::epoll_ctl(self.epfd, op, fd, ptr) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let ev = epoll::epoll_event {
            events: Self::mask(interest),
            data: token,
        };
        self.ctl(epoll::EPOLL_CTL_ADD, fd, Some(ev))
    }

    fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let ev = epoll::epoll_event {
            events: Self::mask(interest),
            data: token,
        };
        self.ctl(epoll::EPOLL_CTL_MOD, fd, Some(ev))
    }

    fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(epoll::EPOLL_CTL_DEL, fd, None)
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms = timeout_millis(timeout);
        // SAFETY: `buf` outlives the call and `maxevents` matches its
        // length, so the kernel writes in bounds.
        let n = unsafe {
            epoll::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as std::os::raw::c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(()); // spurious wake; the caller's loop retries
            }
            return Err(e);
        }
        for raw in &self.buf[..n as usize] {
            // Copy out of the (possibly packed) struct before use.
            let events = raw.events;
            let token = raw.data;
            let closed = events & (epoll::EPOLLHUP | epoll::EPOLLERR) != 0;
            out.push(Event {
                token,
                readable: events & (epoll::EPOLLIN | epoll::EPOLLRDHUP) != 0 || closed,
                writable: events & epoll::EPOLLOUT != 0,
                closed,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        // SAFETY: epfd was returned by epoll_create1 and never closed
        // elsewhere.
        unsafe { epoll::close(self.epfd) };
    }
}

// ---------------------------------------------------------------------
// poll backend (portable fallback).

mod posix {
    use std::os::raw::{c_int, c_short, c_ulong};

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct pollfd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        // `nfds_t` is `unsigned long` on Linux; platforms where it is
        // narrower still read the correct low bits for any registration
        // count this crate produces.
        pub fn poll(fds: *mut pollfd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

struct PollEntry {
    fd: RawFd,
    token: u64,
    interest: Interest,
}

struct PollPoller {
    entries: Vec<PollEntry>,
    buf: Vec<posix::pollfd>,
}

impl PollPoller {
    fn new() -> Self {
        PollPoller {
            entries: Vec::new(),
            buf: Vec::new(),
        }
    }

    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.entries.iter().any(|e| e.fd == fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.entries.push(PollEntry {
            fd,
            token,
            interest,
        });
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.fd == fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        entry.token = token;
        entry.interest = interest;
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let before = self.entries.len();
        self.entries.retain(|e| e.fd != fd);
        if self.entries.len() == before {
            return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
        }
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.buf.clear();
        // An fd registered with empty interest still reports
        // POLLERR/POLLHUP, matching epoll's unconditional error events.
        for e in &self.entries {
            let mut events = 0;
            if e.interest.read {
                events |= posix::POLLIN;
            }
            if e.interest.write {
                events |= posix::POLLOUT;
            }
            self.buf.push(posix::pollfd {
                fd: e.fd,
                events,
                revents: 0,
            });
        }
        let timeout_ms = timeout_millis(timeout);
        // SAFETY: `buf` is a live slice of pollfd rebuilt above; nfds
        // matches its length.
        let n = unsafe {
            posix::poll(
                self.buf.as_mut_ptr(),
                self.buf.len() as std::os::raw::c_ulong,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for (entry, pfd) in self.entries.iter().zip(&self.buf) {
            let r = pfd.revents;
            if r == 0 {
                continue;
            }
            let closed = r & (posix::POLLHUP | posix::POLLERR) != 0;
            out.push(Event {
                token: entry.token,
                readable: r & posix::POLLIN != 0 || closed,
                writable: r & posix::POLLOUT != 0,
                closed,
            });
        }
        Ok(())
    }
}

/// Rounds a wait budget up to whole milliseconds (`-1` = block forever),
/// so a sub-millisecond deadline still sleeps instead of spinning.
fn timeout_millis(timeout: Option<Duration>) -> std::os::raw::c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            let ms = if ms == 0 && !d.is_zero() { 1 } else { ms };
            ms.min(i32::MAX as u128) as std::os::raw::c_int
        }
    }
}

// ---------------------------------------------------------------------
// The public face.

enum BackendImpl {
    #[cfg(target_os = "linux")]
    Epoll(EpollPoller),
    Poll(PollPoller),
}

/// Level-triggered readiness over a set of registered fds — the one
/// abstraction the reactor event loop is written against.
pub struct Poller {
    backend: BackendImpl,
}

impl Poller {
    /// A poller on the platform default backend (`epoll` on Linux unless
    /// `FIA_FORCE_POLL=1`; `poll` elsewhere).
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        if !force_poll() {
            return Poller::with_backend(Backend::Epoll);
        }
        Poller::with_backend(Backend::Poll)
    }

    /// A poller pinned to `backend` (tests exercise both arms directly).
    pub fn with_backend(backend: Backend) -> io::Result<Poller> {
        let backend = match backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll => BackendImpl::Epoll(EpollPoller::new()?),
            #[cfg(not(target_os = "linux"))]
            Backend::Epoll => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "epoll is Linux-only; use Backend::Poll",
                ))
            }
            Backend::Poll => BackendImpl::Poll(PollPoller::new()),
        };
        Ok(Poller { backend })
    }

    /// Which backend this poller drives (test/diagnostic visibility).
    pub fn backend(&self) -> Backend {
        match &self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(_) => Backend::Epoll,
            BackendImpl::Poll(_) => Backend::Poll,
        }
    }

    /// Starts watching `fd` for `interest`, tagging its events `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(p) => p.register(fd, token, interest),
            BackendImpl::Poll(p) => p.register(fd, token, interest),
        }
    }

    /// Updates an existing registration's interest (and token).
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(p) => p.modify(fd, token, interest),
            BackendImpl::Poll(p) => p.modify(fd, token, interest),
        }
    }

    /// Stops watching `fd`.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(p) => p.deregister(fd),
            BackendImpl::Poll(p) => p.deregister(fd),
        }
    }

    /// Appends ready events to `out` (which the caller drains), blocking
    /// up to `timeout` (`None` = forever). A signal-interrupted wait
    /// returns cleanly with no events.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            BackendImpl::Epoll(p) => p.wait(out, timeout),
            BackendImpl::Poll(p) => p.wait(out, timeout),
        }
    }
}

// ---------------------------------------------------------------------
// Cross-thread wakeups.

/// Wakes a [`Poller`] blocked in [`Poller::wait`] from another thread by
/// writing one byte into a nonblocking socketpair whose read end the
/// poller watches. Cheap to clone (one `Arc` bump) — every in-flight
/// job's reply guard carries one.
#[derive(Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Nudges the poller. A full pipe means a wake is already pending,
    /// which is all a level-triggered loop needs — the error is ignored
    /// by design.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// A connected waker and the read end the reactor registers. Both ends
/// are nonblocking: `wake` never stalls a batcher, and draining never
/// stalls the reactor.
pub fn wake_pair() -> io::Result<(Waker, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx: Arc::new(tx) }, rx))
}

/// Reads and discards everything pending on a wake pipe's read end
/// (`Read` is implemented for `&UnixStream`, so this borrows the pipe).
pub fn drain_wake_pipe(rx: &UnixStream) {
    let mut buf = [0u8; 64];
    loop {
        match (&mut &*rx).read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
}

/// The raw fd of any `AsRawFd` (a shorthand the reactor uses a lot).
pub fn fd_of(s: &impl AsRawFd) -> RawFd {
    s.as_raw_fd()
}

// ---------------------------------------------------------------------
// Accept policy.

/// Accept-error backoff window under resource exhaustion: starts here,
/// doubles per consecutive exhausted accept, caps at the max.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// The accept policy for a nonblocking listener on a level-triggered
/// [`Poller`]. A failure that used up one pending connection (aborted,
/// interrupted) is retried at once. fd or memory exhaustion pauses
/// accepting for a window that starts at 10 ms and doubles up to 1 s
/// while exhaustion repeats; any other error pauses for 10 ms. While
/// paused, the listener's interest is dropped: a still-pending
/// connection would otherwise wake the loop hot for the whole pause.
#[derive(Debug)]
pub struct AcceptBackoff {
    /// The listener's poller token.
    token: u64,
    /// The next exhaustion pause.
    backoff: Duration,
    paused_until: Option<Instant>,
}

impl AcceptBackoff {
    /// A policy for the listener registered under `token`.
    pub fn new(token: u64) -> Self {
        AcceptBackoff {
            token,
            backoff: ACCEPT_BACKOFF_MIN,
            paused_until: None,
        }
    }

    /// Accepts one connection from `listener`, which is registered on
    /// `poller` under this policy's token. `Ok(None)`: nothing to accept
    /// now, because the backlog is empty or accepting is paused.
    /// `Err(e)`: `accept()` failed and the policy has acted on `e`; the
    /// caller may count it, then calls again, which retries at once or,
    /// when the failure paused accepting, returns `Ok(None)`.
    pub fn accept(
        &mut self,
        listener: &TcpListener,
        poller: &mut Poller,
    ) -> io::Result<Option<TcpStream>> {
        if self.is_paused() {
            return Ok(None);
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                self.accepted();
                Ok(Some(stream))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => {
                self.failed(&e, poller, fd_of(listener));
                Err(e)
            }
        }
    }

    /// Records a successful accept: the next exhaustion pause starts
    /// from the floor again.
    fn accepted(&mut self) {
        self.backoff = ACCEPT_BACKOFF_MIN;
    }

    /// Handles an `accept()` error other than `WouldBlock` on the
    /// listener `listener`. Returns `true` when the caller should keep
    /// accepting; otherwise accepting is paused, with the listener's
    /// interest dropped, until [`Self::resume_due`] restores it.
    fn failed(&mut self, e: &io::Error, poller: &mut Poller, listener: RawFd) -> bool {
        let pause = match classify_accept_error(e) {
            AcceptErrorKind::Aborted | AcceptErrorKind::Interrupted => return true,
            AcceptErrorKind::Exhausted => self.next_pause(),
            AcceptErrorKind::Setup | AcceptErrorKind::Other => ACCEPT_BACKOFF_MIN,
        };
        self.paused_until = Some(Instant::now() + pause);
        let _ = poller.modify(listener, self.token, Interest::NONE);
        false
    }

    /// The exhaustion pause to take now; doubles the next one.
    fn next_pause(&mut self) -> Duration {
        let pause = self.backoff;
        self.backoff = (self.backoff * 2).min(ACCEPT_BACKOFF_MAX);
        pause
    }

    /// Whether accepting is paused.
    pub fn is_paused(&self) -> bool {
        self.paused_until.is_some()
    }

    /// `timeout`, cut short so a wait ends when the pause does.
    pub fn wait_timeout(&self, timeout: Duration) -> Duration {
        match self.paused_until {
            Some(until) => timeout.min(until.saturating_duration_since(Instant::now())),
            None => timeout,
        }
    }

    /// Ends a pause whose window has passed and restores the listener's
    /// read interest. Returns `true` when it did: the caller should
    /// accept what queued during the pause.
    pub fn resume_due(&mut self, poller: &mut Poller, listener: RawFd) -> bool {
        match self.paused_until {
            Some(until) if Instant::now() >= until => {
                self.paused_until = None;
                let _ = poller.modify(listener, self.token, Interest::READ);
                true
            }
            _ => false,
        }
    }
}

/// What went wrong in `accept()`, coarse enough to be a counter label
/// and precise enough to pick a policy: per-connection failures are
/// retried immediately, resource exhaustion backs off.
pub(crate) fn classify_accept_error(e: &io::Error) -> AcceptErrorKind {
    // Raw errno values (Linux; EMFILE/ENFILE/ENOMEM are identical on
    // the other unices this crate compiles for).
    const EMFILE: i32 = 24;
    const ENFILE: i32 = 23;
    const ENOMEM: i32 = 12;
    #[cfg(target_os = "linux")]
    const ENOBUFS: i32 = 105;
    #[cfg(not(target_os = "linux"))]
    const ENOBUFS: i32 = 55;

    if matches!(e.raw_os_error(), Some(EMFILE | ENFILE | ENOMEM | ENOBUFS))
        || e.kind() == io::ErrorKind::OutOfMemory
    {
        return AcceptErrorKind::Exhausted;
    }
    match e.kind() {
        io::ErrorKind::ConnectionAborted | io::ErrorKind::ConnectionReset => {
            AcceptErrorKind::Aborted
        }
        io::ErrorKind::Interrupted => AcceptErrorKind::Interrupted,
        _ => AcceptErrorKind::Other,
    }
}

// ---------------------------------------------------------------------
// Framed connections.

/// Flushed-prefix length past which a connection's output is compacted.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// One nonblocking TCP connection carrying length-prefixed frames on a
/// [`Poller`]: the socket, its unparsed input, its unwritten output and
/// the interest registered for it, with one step for each part of
/// driving it. The prediction reactor, `fia-campaignd`'s daemon loop and
/// the open-loop load generator all drive their sockets through it and
/// keep only their own policy: what to answer, in what order, and when
/// to stop reading.
///
/// Input ends when the peer half-closes, when it can no longer be framed
/// or when the owner calls [`Self::close_input`]. From then on the socket
/// is not read again, but frames already received are still handed out,
/// and [`Self::finished`] keeps the connection open until nothing the
/// peer asked for is still owed.
pub struct FramedConn {
    stream: TcpStream,
    token: u64,
    /// Unparsed inbound bytes.
    input: Vec<u8>,
    input_closed: bool,
    /// Outbound bytes; `out[out_pos..]` is still unwritten.
    out: Vec<u8>,
    out_pos: usize,
    /// Interest currently registered with the poller.
    reg: Interest,
}

impl FramedConn {
    /// Sets up a connected socket: nonblocking, `TCP_NODELAY`, and
    /// registered for reads on `poller` under `token`. A socket that
    /// cannot go nonblocking would hang the loop, so that is an error.
    pub fn register(stream: TcpStream, poller: &mut Poller, token: u64) -> io::Result<FramedConn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        poller.register(fd_of(&stream), token, Interest::READ)?;
        Ok(FramedConn {
            stream,
            token,
            input: Vec::new(),
            input_closed: false,
            out: Vec::new(),
            out_pos: 0,
            reg: Interest::READ,
        })
    }

    /// Reads what the socket holds into the input through `scratch`, at
    /// most `passes` reads; a short read ends early. EOF closes the
    /// input, and a closed input is not read. An error means the
    /// connection is dead.
    pub fn read(&mut self, scratch: &mut [u8], passes: usize) -> io::Result<()> {
        for _ in 0..passes {
            if self.input_closed {
                break;
            }
            match self.stream.read(scratch) {
                Ok(0) => self.input_closed = true,
                Ok(n) => {
                    self.input.extend_from_slice(&scratch[..n]);
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Cuts the next whole frame off the input. `Ok(None)`: no whole
    /// frame has arrived. An over-cap length prefix is an error and
    /// closes the input: the stream can no longer be framed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        split_frame(&mut self.input).inspect_err(|_| self.close_input())
    }

    /// Stops reading for good and drops the input not yet parsed.
    pub fn close_input(&mut self) {
        self.input_closed = true;
        self.input.clear();
    }

    /// Whether the input has ended.
    pub(crate) fn input_closed(&self) -> bool {
        self.input_closed
    }

    /// Queues one frame around `payload` for [`Self::flush`].
    pub fn queue(&mut self, payload: &[u8]) -> Result<(), WireError> {
        append_frame(&mut self.out, payload)
    }

    /// Writes queued output until none is left or the socket pushes back,
    /// then compacts the buffer. An error, a zero-length write included,
    /// means the connection is dead.
    pub fn flush(&mut self) -> io::Result<()> {
        while !self.flushed() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.flushed() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > COMPACT_THRESHOLD {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Whether everything queued has been written.
    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    /// Registers read interest while `read` holds and the input is open,
    /// and write interest while output remains. The poller is called
    /// only when that interest changes.
    pub fn update_interest(&mut self, poller: &mut Poller, read: bool) -> io::Result<()> {
        let want = Interest {
            read: read && !self.input_closed,
            write: !self.flushed(),
        };
        if want != self.reg {
            poller.modify(fd_of(&self.stream), self.token, want)?;
            self.reg = want;
        }
        Ok(())
    }

    /// The end-of-input rule both servers share: once the input has
    /// ended, the connection closes when its output is written and its
    /// owner `owes` the peer nothing more.
    pub fn finished(&self, owes: bool) -> bool {
        self.input_closed && !owes && self.flushed()
    }

    /// Deregisters the socket and closes it.
    pub fn close(self, poller: &mut Poller) {
        let _ = poller.deregister(fd_of(&self.stream));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn backends() -> Vec<Backend> {
        #[cfg(target_os = "linux")]
        {
            vec![Backend::Epoll, Backend::Poll]
        }
        #[cfg(not(target_os = "linux"))]
        {
            vec![Backend::Poll]
        }
    }

    /// Readiness round trip on both backends: a listener becomes
    /// readable when a client connects, the accepted socket becomes
    /// readable when bytes arrive, and interest changes are honored.
    #[test]
    fn readable_and_writable_events_on_both_backends() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).expect("poller");
            assert_eq!(poller.backend(), backend);

            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.set_nonblocking(true).expect("nonblocking");
            poller
                .register(fd_of(&listener), 1, Interest::READ)
                .expect("register listener");

            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            assert!(events.is_empty(), "{backend:?}: no client yet");

            let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
            poller
                .wait(&mut events, Some(Duration::from_millis(500)))
                .expect("wait");
            assert!(
                events.iter().any(|e| e.token == 1 && e.readable),
                "{backend:?}: listener should signal readable on connect"
            );

            let (accepted, _) = listener.accept().expect("accept");
            accepted.set_nonblocking(true).expect("nonblocking");
            poller
                .register(
                    fd_of(&accepted),
                    2,
                    Interest {
                        read: true,
                        write: true,
                    },
                )
                .expect("register conn");

            client.write_all(b"hello").expect("write");
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(500)))
                .expect("wait");
            let ev = events.iter().find(|e| e.token == 2).expect("conn event");
            assert!(ev.readable, "{backend:?}: bytes pending");
            assert!(ev.writable, "{backend:?}: fresh socket is writable");

            // Dropping read interest leaves only writability.
            poller
                .modify(
                    fd_of(&accepted),
                    2,
                    Interest {
                        read: false,
                        write: true,
                    },
                )
                .expect("modify");
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .expect("wait");
            let ev = events.iter().find(|e| e.token == 2).expect("conn event");
            assert!(
                !ev.readable && ev.writable,
                "{backend:?}: write-only interest"
            );

            let mut buf = [0u8; 8];
            let mut accepted_ref = &accepted;
            assert_eq!(accepted_ref.read(&mut buf).expect("read"), 5);

            poller.deregister(fd_of(&accepted)).expect("deregister");
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            assert!(
                events.iter().all(|e| e.token != 2),
                "{backend:?}: deregistered fd must not report"
            );
        }
    }

    /// A *dead* peer (connection reset) surfaces as a closed event even
    /// when the registration has no interest bits set — HUP/ERR are
    /// unconditional on both backends, which is what lets the reactor
    /// reap a vanished client it had stopped reading from.
    #[test]
    fn dead_peer_is_reported_without_interest() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).expect("poller");
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
            let (accepted, _) = listener.accept().expect("accept");
            accepted.set_nonblocking(true).expect("nonblocking");
            poller
                .register(fd_of(&accepted), 7, Interest::NONE)
                .expect("register");
            drop(client);
            // Writing into the closed peer provokes an RST; after that
            // the socket is in the error state HUP/ERR report.
            let mut events = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            let mut saw_close = false;
            while std::time::Instant::now() < deadline {
                let mut w = &accepted;
                let _ = w.write(b"x");
                events.clear();
                poller
                    .wait(&mut events, Some(Duration::from_millis(50)))
                    .expect("wait");
                if events.iter().any(|e| e.token == 7 && e.closed) {
                    saw_close = true;
                    break;
                }
            }
            assert!(saw_close, "{backend:?}: dead peer never surfaced");
        }
    }

    /// A graceful half-close (peer FIN) is readable — the reader sees
    /// EOF — but NOT closed: responses still in flight remain writable.
    #[test]
    fn half_close_is_readable_but_not_closed() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).expect("poller");
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
            let (accepted, _) = listener.accept().expect("accept");
            accepted.set_nonblocking(true).expect("nonblocking");
            poller
                .register(fd_of(&accepted), 5, Interest::READ)
                .expect("register");
            client
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            let mut events = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            let mut saw_eof = false;
            while std::time::Instant::now() < deadline {
                events.clear();
                poller
                    .wait(&mut events, Some(Duration::from_millis(50)))
                    .expect("wait");
                if let Some(ev) = events.iter().find(|e| e.token == 5) {
                    assert!(ev.readable, "{backend:?}: FIN must surface as readable");
                    assert!(!ev.closed, "{backend:?}: FIN is not a full hangup");
                    let mut r = &accepted;
                    let mut buf = [0u8; 8];
                    assert_eq!(r.read(&mut buf).expect("read"), 0, "EOF");
                    saw_eof = true;
                    break;
                }
            }
            assert!(saw_eof, "{backend:?}: half-close never surfaced");
            // The client can still receive: the server's write succeeds.
            let mut w = &accepted;
            w.write_all(b"reply").expect("write after peer FIN");
            let mut c = &client;
            let mut buf = [0u8; 5];
            c.read_exact(&mut buf).expect("client still reading");
            assert_eq!(&buf, b"reply");
        }
    }

    /// The waker wakes a blocked poller from another thread, and
    /// draining the pipe clears the readiness.
    #[test]
    fn waker_rouses_a_blocked_wait() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).expect("poller");
            let (waker, rx) = wake_pair().expect("wake pair");
            poller
                .register(fd_of(&rx), 99, Interest::READ)
                .expect("register");

            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                waker.wake();
                waker
            });
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert!(
                events.iter().any(|e| e.token == 99 && e.readable),
                "{backend:?}: wake never arrived"
            );
            let waker = handle.join().expect("waker thread");

            drain_wake_pipe(&rx);
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .expect("wait");
            assert!(
                events.iter().all(|e| e.token != 99),
                "{backend:?}: drained pipe must go quiet"
            );

            // A second wake still works (the pipe is reusable).
            waker.wake();
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(500)))
                .expect("wait");
            assert!(events.iter().any(|e| e.token == 99));
        }
    }

    #[test]
    fn accept_errors_classify_by_errno_and_kind() {
        // EMFILE / ENFILE / ENOMEM / ENOBUFS are the fd-or-memory
        // exhaustion regime thousands of clients actually hit.
        for errno in [24, 23, 12, if cfg!(target_os = "linux") { 105 } else { 55 }] {
            assert_eq!(
                classify_accept_error(&io::Error::from_raw_os_error(errno)),
                AcceptErrorKind::Exhausted,
                "errno {errno}"
            );
        }
        assert_eq!(
            classify_accept_error(&io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "peer gave up in the backlog"
            )),
            AcceptErrorKind::Aborted
        );
        assert_eq!(
            classify_accept_error(&io::Error::new(io::ErrorKind::Interrupted, "signal")),
            AcceptErrorKind::Interrupted
        );
        assert_eq!(
            classify_accept_error(&io::Error::new(io::ErrorKind::PermissionDenied, "firewall")),
            AcceptErrorKind::Other
        );
        // WouldBlock never reaches the classifier in the accept loop,
        // but if it did it must not be misread as exhaustion.
        assert_eq!(
            classify_accept_error(&io::Error::new(io::ErrorKind::WouldBlock, "empty backlog")),
            AcceptErrorKind::Other
        );
    }

    #[test]
    fn exhaustion_backoff_doubles_and_caps() {
        let mut accept = AcceptBackoff::new(0);
        let seen: Vec<Duration> = (0..10).map(|_| accept.next_pause()).collect();
        assert_eq!(seen[0], Duration::from_millis(10));
        assert_eq!(seen[1], Duration::from_millis(20));
        assert!(seen.windows(2).all(|w| w[1] >= w[0]), "monotone");
        assert_eq!(*seen.last().unwrap(), ACCEPT_BACKOFF_MAX, "capped");
        accept.accepted();
        assert_eq!(accept.next_pause(), ACCEPT_BACKOFF_MIN, "a success resets");
    }

    /// Under `EMFILE` with a connection pending, the paused listener
    /// reports no readiness (the level-triggered wake that would spin an
    /// event loop) until the pause has passed and `resume_due` restores
    /// its interest.
    #[test]
    fn exhausted_listener_stays_quiet_until_the_pause_ends() {
        const LISTENER: u64 = 7;
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).expect("poller");
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.set_nonblocking(true).expect("nonblocking");
            let fd = fd_of(&listener);
            poller
                .register(fd, LISTENER, Interest::READ)
                .expect("register listener");
            let _client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("wait");
            assert!(events.iter().any(|e| e.token == LISTENER && e.readable));

            let mut accept = AcceptBackoff::new(LISTENER);
            let t0 = Instant::now();
            assert!(!accept.failed(&io::Error::from_raw_os_error(24), &mut poller, fd));
            assert!(accept.is_paused());
            assert!(accept.wait_timeout(Duration::from_secs(1)) <= ACCEPT_BACKOFF_MIN);
            let deadline = t0 + Duration::from_secs(5);
            loop {
                let resumed = accept.resume_due(&mut poller, fd);
                events.clear();
                poller
                    .wait(&mut events, Some(Duration::ZERO))
                    .expect("wait");
                let ready = events.iter().any(|e| e.token == LISTENER);
                assert_eq!(ready, resumed, "{backend:?}: readiness tracks the pause");
                if ready {
                    assert!(
                        t0.elapsed() >= ACCEPT_BACKOFF_MIN,
                        "{backend:?}: woke early"
                    );
                    assert!(!accept.is_paused());
                    break;
                }
                assert!(Instant::now() < deadline, "{backend:?}: pause never ended");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Output the socket cannot take at once stays queued with write
    /// interest on, and writable readiness flushes the rest as the peer
    /// reads it. A connection whose input has ended is not finished
    /// until that output is written.
    #[test]
    fn output_past_the_socket_buffers_flushes_on_writable_readiness() {
        for backend in backends() {
            let mut poller = Poller::with_backend(backend).expect("poller");
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
            let (accepted, _) = listener.accept().expect("accept");
            let mut conn = FramedConn::register(accepted, &mut poller, 3).expect("register");
            // More than loopback's send and receive buffers hold together.
            let payload = vec![7u8; 16 << 20];
            conn.queue(&payload).expect("queue");
            conn.flush().expect("flush");
            assert!(
                !conn.flushed(),
                "{backend:?}: the socket took 16 MiB at once"
            );
            conn.close_input();
            assert!(
                !conn.finished(false),
                "{backend:?}: finished with output queued"
            );
            conn.update_interest(&mut poller, true).expect("interest");

            let reader = std::thread::spawn(move || {
                crate::wire::read_frame(&mut client)
                    .expect("read")
                    .expect("frame")
            });
            let mut events = Vec::new();
            while !conn.flushed() {
                events.clear();
                poller
                    .wait(&mut events, Some(Duration::from_secs(10)))
                    .expect("wait");
                assert!(
                    events.iter().any(|e| e.token == 3 && e.writable),
                    "{backend:?}: output queued but no writable readiness"
                );
                conn.flush().expect("flush");
                conn.update_interest(&mut poller, true).expect("interest");
            }
            assert!(conn.finished(false), "{backend:?}");
            assert!(reader.join().expect("reader") == payload, "{backend:?}");
        }
    }

    #[test]
    fn sub_millisecond_timeouts_round_up_not_to_zero() {
        assert_eq!(timeout_millis(None), -1);
        assert_eq!(timeout_millis(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_millis(Some(Duration::from_micros(200))), 1);
        assert_eq!(timeout_millis(Some(Duration::from_millis(20))), 20);
    }
}
