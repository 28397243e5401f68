//! A timing and capturing [`oncrpc::Transport`] wrapper, placed between a
//! `CricketClient` and its real transport. It sees exactly the bytes the
//! client's RPC layer writes and reads, so it can time each RPC's stages,
//! count syscall-level writes and reads, read every record's xid and
//! procedure from its header, and keep request records for replay. It
//! forwards every call unchanged, `write_vectored` included, so the
//! wrapped client behaves as it would without it.

use oncrpc::Transport;
use simnet::SimClock;
use std::io::{self, IoSlice, Read, Write};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One RPC as the client's transport saw it. Times are nanoseconds since
/// the tap's origin; `virt_*` are the simulated clock, when there is one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rpc {
    pub xid: u32,
    pub proc_num: u32,
    /// Before the first byte of the request is handed to the transport.
    pub first_write: u64,
    /// After the transport's `flush` following the request returns.
    pub flushed: u64,
    /// After the first `read` that returned reply bytes.
    pub first_read: u64,
    /// After the `read` that completed the reply record.
    pub last_read: u64,
    pub writes: u32,
    pub reads: u32,
    /// Record-marked bytes, fragment headers included.
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub virt_start: u64,
    pub virt_end: u64,
}

impl Rpc {
    pub fn send_ns(&self) -> u64 {
        self.flushed - self.first_write
    }
    pub fn wait_ns(&self) -> u64 {
        self.first_read - self.flushed
    }
    pub fn recv_ns(&self) -> u64 {
        self.last_read - self.first_read
    }
}

/// Incremental parser of an RFC 5531 record-marked byte stream.
#[derive(Default)]
struct Framer {
    header: [u8; 4],
    header_len: usize,
    remaining: usize,
    last: bool,
    /// First 24 body bytes: xid, message type, rpc version, prog, vers, proc.
    head: [u8; 24],
    head_len: usize,
    /// The whole de-framed record, when capturing.
    body: Option<Vec<u8>>,
}

impl Framer {
    /// Feed stream bytes; calls `done(head, body)` for each completed record.
    fn feed(
        &mut self,
        mut data: &[u8],
        keep: bool,
        mut done: impl FnMut(&[u8; 24], Option<Vec<u8>>),
    ) {
        while !data.is_empty() {
            if self.header_len < 4 {
                let take = (4 - self.header_len).min(data.len());
                self.header[self.header_len..self.header_len + take].copy_from_slice(&data[..take]);
                self.header_len += take;
                data = &data[take..];
                if self.header_len == 4 {
                    let word = u32::from_be_bytes(self.header);
                    self.last = word & 0x8000_0000 != 0;
                    self.remaining = (word & 0x7fff_ffff) as usize;
                    if keep && self.body.is_none() {
                        self.body = Some(Vec::new());
                    }
                }
            } else {
                let take = self.remaining.min(data.len());
                let chunk = &data[..take];
                let h = (24 - self.head_len).min(take);
                self.head[self.head_len..self.head_len + h].copy_from_slice(&chunk[..h]);
                self.head_len += h;
                if let Some(body) = self.body.as_mut() {
                    body.extend_from_slice(chunk);
                }
                self.remaining -= take;
                data = &data[take..];
            }
            if self.header_len == 4 && self.remaining == 0 {
                self.header_len = 0;
                if self.last {
                    done(&self.head, self.body.take());
                    self.head_len = 0;
                    self.head = [0; 24];
                }
            }
        }
    }
}

/// What the tap has recorded; shared between the tap (owned by the client)
/// and the benchmark.
pub struct TapLog {
    origin: Instant,
    clock: Option<Arc<SimClock>>,
    capture: bool,
    out: Framer,
    inp: Framer,
    cur: Option<Rpc>,
    /// RPCs completed since the last drain.
    pub done: Vec<Rpc>,
    /// De-framed request records, in order, since the last drain (only
    /// when capturing).
    pub requests: Vec<Vec<u8>>,
}

impl TapLog {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn virt(&self) -> u64 {
        self.clock.as_ref().map_or(0, |c| c.now_ns())
    }

    fn on_write<'b>(&mut self, started: u64, bytes: impl IntoIterator<Item = &'b [u8]>, n: usize) {
        if self.cur.is_none() {
            self.cur = Some(Rpc {
                first_write: started,
                virt_start: self.virt(),
                ..Rpc::default()
            });
        }
        let cur = self.cur.as_mut().expect("rpc in progress");
        cur.writes += 1;
        cur.bytes_out += n as u64;
        let mut left = n;
        let (capture, requests) = (self.capture, &mut self.requests);
        for b in bytes {
            if left == 0 {
                break;
            }
            let take = left.min(b.len());
            self.out.feed(&b[..take], capture, |head, body| {
                cur.xid = u32::from_be_bytes(head[0..4].try_into().expect("4 bytes"));
                cur.proc_num = u32::from_be_bytes(head[20..24].try_into().expect("4 bytes"));
                if let Some(body) = body {
                    requests.push(body);
                }
            });
            left -= take;
        }
    }

    fn on_flush(&mut self) {
        let t = self.now();
        if let Some(cur) = self.cur.as_mut() {
            cur.flushed = t;
        }
    }

    fn on_read(&mut self, bytes: &[u8]) {
        let t = self.now();
        let virt = self.virt();
        let Some(cur) = self.cur.as_mut() else {
            return;
        };
        cur.reads += 1;
        if bytes.is_empty() {
            return;
        }
        if cur.bytes_in == 0 {
            cur.first_read = t;
        }
        cur.bytes_in += bytes.len() as u64;
        let mut complete = false;
        self.inp.feed(bytes, false, |_, _| complete = true);
        if complete {
            cur.last_read = t;
            cur.virt_end = virt;
            let rpc = self.cur.take().expect("rpc in progress");
            self.done.push(rpc);
        }
    }
}

/// The transport wrapper. Cloning the [`TapHandle`] before moving the tap
/// into a client keeps access to its log.
pub struct Tap {
    inner: Box<dyn Transport>,
    log: TapHandle,
}

/// Shared access to a tap's log.
#[derive(Clone)]
pub struct TapHandle(Arc<Mutex<TapLog>>);

impl TapHandle {
    fn lock(&self) -> MutexGuard<'_, TapLog> {
        self.0
            .lock()
            .expect("tap log lock poisoned by a panicking thread")
    }

    /// Move the RPCs and captured requests recorded so far into `rpcs`
    /// and `requests`, keeping the log's buffers for reuse.
    pub fn drain_into(&self, rpcs: &mut Vec<Rpc>, requests: &mut Vec<Vec<u8>>) {
        let mut log = self.lock();
        rpcs.append(&mut log.done);
        requests.append(&mut log.requests);
    }
}

impl Tap {
    /// Wrap `inner`. With `capture`, request records are kept for replay;
    /// with a `clock`, each RPC also records the simulated time around it.
    pub fn new(
        inner: Box<dyn Transport>,
        origin: Instant,
        capture: bool,
        clock: Option<Arc<SimClock>>,
    ) -> (Self, TapHandle) {
        let log = TapHandle(Arc::new(Mutex::new(TapLog {
            origin,
            clock,
            capture,
            out: Framer::default(),
            inp: Framer::default(),
            cur: None,
            done: Vec::with_capacity(1024),
            requests: Vec::new(),
        })));
        (
            Tap {
                inner,
                log: log.clone(),
            },
            log,
        )
    }
}

impl Write for Tap {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let started = self.log.lock().now();
        let n = self.inner.write(buf)?;
        self.log.lock().on_write(started, [buf], n);
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let started = self.log.lock().now();
        let n = self.inner.write_vectored(bufs)?;
        self.log
            .lock()
            .on_write(started, bufs.iter().map(|b| &b[..]), n);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()?;
        self.log.lock().on_flush();
        Ok(())
    }
}

impl Read for Tap {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.log.lock().on_read(&buf[..n]);
        Ok(n)
    }
}

impl Transport for Tap {
    fn describe(&self) -> String {
        format!("tap:{}", self.inner.describe())
    }

    fn set_read_timeout(&mut self, dur: Option<std::time::Duration>) -> oncrpc::RpcResult<()> {
        self.inner.set_read_timeout(dur)
    }
}
