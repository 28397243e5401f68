//! Readiness polling over nonblocking TCP sockets.
//!
//! The workspace builds fully offline, so mio/epoll crates are not
//! available. This shim exposes the contract an event-driven server needs —
//! register sockets, block until at least one is readable (or a
//! [`Poller::notify`] wakeup arrives), suspend sources under backpressure —
//! over one of two mechanisms:
//!
//! * **Linux:** level-triggered `epoll`, with an `eventfd` registered
//!   alongside the sockets as the [`Poller::notify`] doorbell. The system
//!   calls are declared by hand against the C library `std` already
//!   links, so no crate is needed. A wait costs one system call
//!   whatever the number of registered sockets, and an idle poller
//!   sleeps in the kernel until a socket or the doorbell wakes it.
//! * **Elsewhere:** a readiness *scan* (`TcpStream::peek` on nonblocking
//!   clones) paced by an adaptive yield→sleep backoff — the only portable
//!   mechanism `std` offers. Under load the scan always finds work and
//!   never sleeps; idle, it decays to a bounded sleep slice.
//!
//! Everything above this crate is written against the readiness contract,
//! not the mechanism.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// One readiness observation from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The key the source was registered under.
    pub key: usize,
    /// Data is available to read (or the peer hung up — reading yields the
    /// EOF/error, which is itself actionable).
    pub readable: bool,
    /// The peer closed or the socket errored; a read will not block.
    pub hup: bool,
}

struct Source {
    /// A second handle onto the socket, owned by the poller so the
    /// registration stays valid until [`Poller::deregister`] however the
    /// owner's handle is used; the owner keeps reading on its own handle.
    probe: TcpStream,
    /// Suspended sources stay registered but produce no events
    /// (backpressure: the owner has stopped reading this connection).
    suspended: bool,
}

/// Waitable readiness poller. Clone-free: share it behind an `Arc`.
pub struct Poller {
    sources: Mutex<HashMap<usize, Source>>,
    backend: sys::Backend,
}

impl Poller {
    /// Create an empty poller.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            sources: Mutex::new(HashMap::new()),
            backend: sys::Backend::new()?,
        })
    }

    /// Register `stream` for readability under `key`. The stream is switched
    /// to nonblocking mode (the owner is expected to read it nonblocking);
    /// the poller keeps its own `try_clone` handle.
    pub fn register(&self, stream: &TcpStream, key: usize) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        let probe = stream.try_clone()?;
        let mut sources = self.sources.lock();
        self.backend.watch(&probe, key)?;
        if let Some(old) = sources.insert(
            key,
            Source {
                probe,
                suspended: false,
            },
        ) {
            self.backend.unwatch(&old.probe);
        }
        Ok(())
    }

    /// Remove `key` from the poller. Unknown keys are ignored.
    pub fn deregister(&self, key: usize) {
        if let Some(src) = self.sources.lock().remove(&key) {
            if !src.suspended {
                self.backend.unwatch(&src.probe);
            }
        }
    }

    /// Stop reporting events for `key` (the owner is backpressuring this
    /// source). The socket stays registered; kernel-side the TCP window
    /// closes as unread data accumulates.
    pub fn suspend(&self, key: usize) {
        if let Some(src) = self.sources.lock().get_mut(&key) {
            if !src.suspended {
                src.suspended = true;
                self.backend.unwatch(&src.probe);
            }
        }
    }

    /// Resume reporting events for `key` after [`Poller::suspend`].
    pub fn resume(&self, key: usize) {
        if let Some(src) = self.sources.lock().get_mut(&key) {
            if src.suspended && self.backend.watch(&src.probe, key).is_ok() {
                src.suspended = false;
            }
        }
    }

    /// Number of registered (live) sources.
    pub fn len(&self) -> usize {
        self.sources.lock().len()
    }

    /// Whether no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wake the current (or next) [`Poller::wait`] immediately, returning it
    /// with whatever events are ready. Called from other threads when
    /// out-of-band state changed: a new connection to adopt, a stalled
    /// session that drained, a shutdown request.
    pub fn notify(&self) {
        self.backend.notify();
    }

    /// Block until at least one registered source is readable, `notify` was
    /// called, or `timeout` elapses. Readiness events are appended to
    /// `events` (cleared first). Returns the number of events.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<usize> {
        events.clear();
        self.backend.wait(&self.sources, events, timeout)?;
        Ok(events.len())
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("sources", &self.len())
            .finish()
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! Level-triggered `epoll` plus an `eventfd` doorbell.

    use super::{Event, Source};
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::io;
    use std::net::TcpStream;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::os::raw::{c_int, c_uint, c_void};
    use std::time::Duration;

    /// `struct epoll_event`, which the kernel ABI packs on x86.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(epfd: c_int, events: *mut EpollEvent, max: c_int, timeout: c_int) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    const EPOLL_CLOEXEC: c_int = 0o2_000_000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLLIN: u32 = 0x001;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_NONBLOCK: c_int = 0o4_000;
    const EFD_CLOEXEC: c_int = 0o2_000_000;
    /// `data` of the doorbell's registration; socket keys are `usize`s
    /// handed out by the owner and never reach it in practice.
    const DOORBELL: u64 = u64::MAX;
    /// Events taken from the kernel per wait.
    const BATCH: usize = 256;

    fn check(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub(super) struct Backend {
        epfd: OwnedFd,
        doorbell: OwnedFd,
    }

    impl Backend {
        pub(super) fn new() -> io::Result<Self> {
            // SAFETY: plain system calls; each returned descriptor is
            // checked and then owned exactly once.
            let epfd = unsafe { OwnedFd::from_raw_fd(check(epoll_create1(EPOLL_CLOEXEC))?) };
            let doorbell =
                unsafe { OwnedFd::from_raw_fd(check(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC))?) };
            let backend = Self { epfd, doorbell };
            backend.add(backend.doorbell.as_raw_fd(), DOORBELL)?;
            Ok(backend)
        }

        fn add(&self, fd: RawFd, data: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN | EPOLLRDHUP,
                data,
            };
            // SAFETY: `ev` is a valid epoll_event for the call's duration.
            check(unsafe { epoll_ctl(self.epfd.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut ev) })?;
            Ok(())
        }

        pub(super) fn watch(&self, stream: &TcpStream, key: usize) -> io::Result<()> {
            self.add(stream.as_raw_fd(), key as u64)
        }

        pub(super) fn unwatch(&self, stream: &TcpStream) {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `add`; a failed delete leaves nothing to undo.
            unsafe {
                epoll_ctl(
                    self.epfd.as_raw_fd(),
                    EPOLL_CTL_DEL,
                    stream.as_raw_fd(),
                    &mut ev,
                )
            };
        }

        pub(super) fn notify(&self) {
            let one: u64 = 1;
            // SAFETY: writes 8 bytes from a live u64. A full counter
            // (EAGAIN) already guarantees a pending wakeup.
            unsafe { write(self.doorbell.as_raw_fd(), (&one as *const u64).cast(), 8) };
        }

        pub(super) fn wait(
            &self,
            _sources: &Mutex<HashMap<usize, Source>>,
            events: &mut Vec<Event>,
            timeout: Duration,
        ) -> io::Result<()> {
            let mut ready = [EpollEvent { events: 0, data: 0 }; BATCH];
            let ms = timeout
                .as_nanos()
                .div_ceil(1_000_000)
                .min(c_int::MAX as u128) as c_int;
            // SAFETY: `ready` has room for BATCH events.
            let n = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    ready.as_mut_ptr(),
                    BATCH as c_int,
                    ms,
                )
            };
            let n = match check(n) {
                Ok(n) => n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for ev in &ready[..n] {
                let (bits, data) = (ev.events, ev.data);
                if data == DOORBELL {
                    let mut count: u64 = 0;
                    // SAFETY: reads 8 bytes into a live u64; resets the
                    // nonblocking counter so the next wait can sleep.
                    unsafe {
                        read(
                            self.doorbell.as_raw_fd(),
                            (&mut count as *mut u64).cast(),
                            8,
                        )
                    };
                    continue;
                }
                events.push(Event {
                    key: data as usize,
                    readable: true,
                    hup: bits & (EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Portable fallback: a `peek` scan over every active source, paced by
    //! a yield→sleep backoff.

    use super::{Event, Source};
    use parking_lot::{Condvar, Mutex};
    use std::collections::HashMap;
    use std::io;
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    /// Backoff ladder for idle scans: pure yields first (cheap on a loaded
    /// box — other runnable threads get the core), then sleeps growing to a
    /// cap.
    const YIELD_ROUNDS: u32 = 8;
    const SLEEP_MIN: Duration = Duration::from_micros(50);
    const SLEEP_MAX: Duration = Duration::from_millis(1);

    pub(super) struct Backend {
        /// Set by `notify`; consumed by the next `wait`.
        notified: Mutex<bool>,
        cond: Condvar,
    }

    impl Backend {
        pub(super) fn new() -> io::Result<Self> {
            Ok(Self {
                notified: Mutex::new(false),
                cond: Condvar::new(),
            })
        }

        pub(super) fn watch(&self, _stream: &TcpStream, _key: usize) -> io::Result<()> {
            Ok(())
        }

        pub(super) fn unwatch(&self, _stream: &TcpStream) {}

        pub(super) fn notify(&self) {
            *self.notified.lock() = true;
            self.cond.notify_all();
        }

        pub(super) fn wait(
            &self,
            sources: &Mutex<HashMap<usize, Source>>,
            events: &mut Vec<Event>,
            timeout: Duration,
        ) -> io::Result<()> {
            let deadline = Instant::now() + timeout;
            let mut idle_rounds: u32 = 0;
            loop {
                scan(&sources.lock(), events);
                let mut flag = self.notified.lock();
                if !events.is_empty() || *flag || Instant::now() >= deadline {
                    // Consume a pending wakeup too: the caller will observe
                    // all out-of-band state on this pass anyway.
                    *flag = false;
                    return Ok(());
                }
                if idle_rounds >= YIELD_ROUNDS {
                    let exp = (idle_rounds - YIELD_ROUNDS).min(8);
                    let dur = (SLEEP_MIN * 2u32.saturating_pow(exp)).min(SLEEP_MAX);
                    // Sleep on the condvar so notify() still wakes us early.
                    let _ = self.cond.wait_for(&mut flag, dur);
                    if *flag {
                        *flag = false;
                        return Ok(());
                    }
                } else {
                    drop(flag);
                    std::thread::yield_now();
                }
                idle_rounds = idle_rounds.saturating_add(1);
            }
        }
    }

    /// One pass over the registry: probe every active source.
    fn scan(sources: &HashMap<usize, Source>, events: &mut Vec<Event>) {
        let mut probe_buf = [0u8; 1];
        for (&key, src) in sources.iter() {
            if src.suspended {
                continue;
            }
            let hup = match src.probe.peek(&mut probe_buf) {
                Ok(n) => n == 0,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(_) => true,
            };
            events.push(Event {
                key,
                readable: true,
                hup,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn readable_when_peer_writes() {
        let (mut client, server) = pair();
        let poller = Poller::new().unwrap();
        poller.register(&server, 7).unwrap();
        let mut events = Vec::new();
        // Nothing yet.
        poller.wait(&mut events, Duration::from_millis(5)).unwrap();
        assert!(events.is_empty());
        client.write_all(b"x").unwrap();
        poller.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(
            events,
            vec![Event {
                key: 7,
                readable: true,
                hup: false
            }]
        );
    }

    #[test]
    fn hup_when_peer_drops() {
        let (client, server) = pair();
        let poller = Poller::new().unwrap();
        poller.register(&server, 1).unwrap();
        drop(client);
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].hup);
    }

    #[test]
    fn suspend_masks_events_until_resume() {
        let (mut client, server) = pair();
        let poller = Poller::new().unwrap();
        poller.register(&server, 3).unwrap();
        client.write_all(b"data").unwrap();
        poller.suspend(3);
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty(), "suspended source reported readiness");
        poller.resume(3);
        poller.wait(&mut events, Duration::from_secs(2)).unwrap();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn notify_wakes_an_idle_wait() {
        let poller = Arc::new(Poller::new().unwrap());
        let p2 = Arc::clone(&poller);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            p2.notify();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        poller.wait(&mut events, Duration::from_secs(10)).unwrap();
        assert!(events.is_empty());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "notify did not wake wait"
        );
        waker.join().unwrap();
    }

    #[test]
    fn deregister_stops_events() {
        let (mut client, server) = pair();
        let poller = Poller::new().unwrap();
        poller.register(&server, 9).unwrap();
        client.write_all(b"y").unwrap();
        poller.deregister(9);
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty());
        assert!(poller.is_empty());
    }

    #[test]
    fn many_sources_report_independently() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        let mut clients = Vec::new();
        let mut servers = Vec::new();
        for key in 0..16usize {
            let c = TcpStream::connect(addr).unwrap();
            let (s, _) = listener.accept().unwrap();
            poller.register(&s, key).unwrap();
            clients.push(c);
            servers.push(s);
        }
        clients[3].write_all(b"a").unwrap();
        clients[11].write_all(b"b").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_secs(2)).unwrap();
        let mut keys: Vec<usize> = events.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![3, 11]);
    }
}
