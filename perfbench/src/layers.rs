//! The traced run: per-call spans from the tap, server dispatch timed by
//! replaying the captured request records into a fresh server, the
//! simulated network legs recomputed from record sizes, and the leaf layers
//! called directly at the workload's sizes.

use crate::measure::{median, MIB};
use crate::rng::Rng;
use crate::session::Kind;
use crate::tap::{Rpc, TapHandle};
use cricket_server::{make_session_rpc, CricketServer, ServerConfig};
use simnet::{NetPath, SimClock};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Replays one session's request records, in order, into a fresh
/// `CricketServer` through the same per-session RPC dispatch a served
/// connection uses, with no sockets in between.
pub struct Replay {
    rpc: oncrpc::RpcServer,
    enc: xdr::XdrEncoder,
    clock: Arc<SimClock>,
}

/// The fresh server sessions replay into.
pub struct ReplayServer {
    server: Arc<CricketServer>,
}

impl ReplayServer {
    pub fn new() -> Self {
        ReplayServer {
            server: CricketServer::new(ServerConfig::default(), SimClock::new()),
        }
    }

    /// The replay of session `session` (the id the live server gave it).
    pub fn session(&self, session: u32) -> Replay {
        Replay {
            rpc: make_session_rpc(Arc::clone(&self.server), session),
            enc: xdr::XdrEncoder::with_capacity(4096),
            clock: Arc::clone(self.server.clock()),
        }
    }
}

impl Replay {
    /// Dispatch one request record; returns (start, wall ns, virtual ns the
    /// server charged).
    fn run(&mut self, record: &[u8]) -> oncrpc::RpcResult<(Instant, u64, u64)> {
        let v0 = self.clock.now_ns();
        let t0 = Instant::now();
        self.rpc.handle_record_into(record, &mut self.enc)?;
        let ns = t0.elapsed().as_nanos() as u64;
        Ok((t0, ns, self.clock.now_ns() - v0))
    }
}

/// A span: one layer's interval within one call. `parent` indexes the
/// span that caused it; spans of one RPC share its xid.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
    pub xid: u32,
}

/// Sums over traced calls, in nanoseconds and bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub call_ns: u64,
    pub rpcs: u64,
    pub send_ns: u64,
    pub wait_ns: u64,
    pub recv_ns: u64,
    pub writes: u64,
    pub reads: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub dispatch_ns: u64,
    /// Simulated legs recomputed with `NetPath::rpc_round`:
    /// client tx, wire, server rx, server tx, client rx.
    pub legs_ns: [u64; 5],
    /// Virtual time the replay server charged.
    pub replay_virt_ns: u64,
}

impl Totals {
    pub fn add(&mut self, o: &Totals) {
        self.calls += o.calls;
        self.call_ns += o.call_ns;
        self.rpcs += o.rpcs;
        self.send_ns += o.send_ns;
        self.wait_ns += o.wait_ns;
        self.recv_ns += o.recv_ns;
        self.writes += o.writes;
        self.reads += o.reads;
        self.bytes_out += o.bytes_out;
        self.bytes_in += o.bytes_in;
        self.dispatch_ns += o.dispatch_ns;
        for (a, b) in self.legs_ns.iter_mut().zip(o.legs_ns) {
            *a += b;
        }
        self.replay_virt_ns += o.replay_virt_ns;
    }

    pub fn transport_ns(&self) -> u64 {
        self.send_ns + self.wait_ns + self.recv_ns
    }

    pub fn legs_total(&self) -> u64 {
        self.legs_ns.iter().sum()
    }
}

/// One timed call's breakdown, for the per-kind table.
#[derive(Debug, Clone, Copy)]
pub struct CallTrace {
    pub kind: Kind,
    pub call_ns: u64,
    pub send_ns: u64,
    pub wait_ns: u64,
    pub recv_ns: u64,
    pub dispatch_ns: u64,
}

/// A captured request waiting to be replayed.
struct Pending {
    /// Index into `Tracer::calls`, for a timed call.
    call: Option<usize>,
    parent: Option<u32>,
    xid: u32,
    record: Vec<u8>,
}

/// Captured request bytes buffered before they are replayed between calls.
const REPLAY_BUFFER: usize = 64 << 20;

/// Per-session tracing state.
pub struct Tracer {
    tap: TapHandle,
    /// `None` once the session's records no longer replay.
    replay: Option<Replay>,
    origin: Instant,
    path: NetPath,
    rpcs: Vec<Rpc>,
    requests: Vec<Vec<u8>>,
    pending: Vec<Pending>,
    pending_bytes: usize,
    pub totals: Totals,
    pub calls: Vec<CallTrace>,
    pub spans: Vec<Span>,
    /// Arithmetic or replay checks that failed, with what failed.
    pub problems: Vec<String>,
}

/// Spans kept per session; later ones are dropped.
const MAX_SPANS: usize = 1 << 20;

impl Tracer {
    pub fn new(tap: TapHandle, replay: Replay, origin: Instant) -> Self {
        Tracer {
            tap,
            replay: Some(replay),
            origin,
            path: NetPath::to_gpu_node(cricket_client::EnvConfig::RustyHermit.guest().costs),
            rpcs: Vec::with_capacity(1024),
            requests: Vec::with_capacity(1024),
            pending: Vec::with_capacity(1 << 16),
            pending_bytes: 0,
            totals: Totals::default(),
            calls: Vec::with_capacity(1 << 16),
            spans: Vec::with_capacity(1 << 16),
            problems: Vec::new(),
        }
    }

    /// Follow a new session (a fresh simulated node per pass), keeping
    /// everything accumulated so far.
    pub fn rebind(&mut self, tap: TapHandle, replay: Replay) {
        self.finish();
        self.tap = tap;
        self.replay = Some(replay);
    }

    /// Stop replaying this session's records (they are still timed and
    /// counted). A session that shares a replay server with the latency
    /// session stops after its set-up, so its replays never hold up the
    /// latency session's calls.
    pub fn stop_replay(&mut self) {
        self.finish();
        self.replay = None;
    }

    /// Replay what the session sent so far (its set-up) without counting
    /// it, so later records meet the server state they were sent against.
    pub fn replay_setup(&mut self) {
        self.finish();
        self.tap.drain_into(&mut self.rpcs, &mut self.requests);
        for record in self.requests.drain(..) {
            if let Some(Err(e)) = self.replay.as_mut().map(|r| r.run(&record)) {
                self.problems.push(format!("set-up replay failed: {e}"));
            }
        }
        self.rpcs.clear();
    }

    /// Drop what was accumulated so far (after warm-up); the session and
    /// its replay state stay.
    pub fn reset(&mut self) {
        self.finish();
        self.totals = Totals::default();
        self.calls.clear();
        self.spans.clear();
    }

    /// Account for the RPCs issued since the last call: `calls` API calls
    /// (`None`: one per RPC, for calls issued inside a proxy app) that took
    /// `wall_ns` from `start`. `kind` labels a timed benchmark call.
    ///
    /// The requests are buffered and replay at [`Self::finish`], or here
    /// once [`REPLAY_BUFFER`] bytes are buffered. Replays between calls
    /// slow the calls that follow them: the live server's threads go idle
    /// meanwhile, and the next call pays for waking them.
    pub fn absorb(&mut self, kind: Option<Kind>, start: Instant, wall_ns: u64, calls: Option<u64>) {
        self.tap.drain_into(&mut self.rpcs, &mut self.requests);
        if self.rpcs.len() != self.requests.len() {
            self.problems.push(format!(
                "{} RPCs but {} captured requests",
                self.rpcs.len(),
                self.requests.len()
            ));
        }
        let mut t = Totals {
            calls: calls.unwrap_or(self.rpcs.len() as u64),
            call_ns: wall_ns,
            ..Totals::default()
        };
        let call_start = start.duration_since(self.origin).as_nanos() as u64;
        let parent = self.push_span(Span {
            name: if calls.is_some() {
                "core.call"
            } else {
                "proxy-apps.run"
            },
            start: call_start,
            end: call_start + wall_ns,
            parent: None,
            xid: self.rpcs.first().map_or(0, |r| r.xid),
        });
        let call = kind.map(|_| self.calls.len());
        let rpcs = std::mem::take(&mut self.rpcs);
        let mut requests = std::mem::take(&mut self.requests);
        for (rpc, record) in rpcs.iter().zip(requests.drain(..)) {
            t.rpcs += 1;
            t.send_ns += rpc.send_ns();
            t.wait_ns += rpc.wait_ns();
            t.recv_ns += rpc.recv_ns();
            t.writes += u64::from(rpc.writes);
            t.reads += u64::from(rpc.reads);
            t.bytes_out += rpc.bytes_out;
            t.bytes_in += rpc.bytes_in;
            let timing = self
                .path
                .rpc_round(rpc.bytes_out as usize, rpc.bytes_in as usize, 0);
            let legs = [
                timing.client_tx_ns,
                timing.wire_ns,
                timing.server_rx_ns,
                timing.server_tx_ns,
                timing.client_rx_ns,
            ];
            for (a, b) in t.legs_ns.iter_mut().zip(legs) {
                *a += b;
            }
            // On a simulated clock, the legs are part of what the RPC took.
            let live = rpc.virt_end - rpc.virt_start;
            if live != 0 && live < timing.total_ns() {
                self.problems.push(format!(
                    "xid {}: recomputed legs {} ns exceed the {} ns the simulated clock advanced",
                    rpc.xid,
                    timing.total_ns(),
                    live
                ));
            }
            for (name, s, e) in [
                ("oncrpc.send", rpc.first_write, rpc.flushed),
                ("oncrpc.wait", rpc.flushed, rpc.first_read),
                ("oncrpc.recv", rpc.first_read, rpc.last_read),
            ] {
                self.push_span(Span {
                    name,
                    start: s,
                    end: e,
                    parent,
                    xid: rpc.xid,
                });
            }
            if self.replay.is_some() {
                self.pending_bytes += record.len();
                self.pending.push(Pending {
                    call,
                    parent,
                    xid: rpc.xid,
                    record,
                });
            }
        }
        if t.transport_ns() > wall_ns {
            self.problems.push(format!(
                "call of {wall_ns} ns is shorter than its {} ns of RPC stages",
                t.transport_ns()
            ));
        }
        if let Some(kind) = kind {
            self.calls.push(CallTrace {
                kind,
                call_ns: wall_ns,
                send_ns: t.send_ns,
                wait_ns: t.wait_ns,
                recv_ns: t.recv_ns,
                dispatch_ns: 0,
            });
        }
        self.totals.add(&t);
        self.rpcs = rpcs;
        self.rpcs.clear();
        self.requests = requests;
        if self.pending_bytes > REPLAY_BUFFER {
            self.finish();
        }
    }

    /// Replay, in order, every buffered request, charging each dispatch
    /// to the call that sent it.
    pub fn finish(&mut self) {
        let Some(replay) = self.replay.as_mut() else {
            return;
        };
        for p in self.pending.drain(..) {
            match replay.run(&p.record) {
                Ok((at, ns, virt)) => {
                    self.totals.dispatch_ns += ns;
                    self.totals.replay_virt_ns += virt;
                    if let Some(c) = p.call {
                        self.calls[c].dispatch_ns += ns;
                    }
                    let start = at.duration_since(self.origin).as_nanos() as u64;
                    if self.spans.len() < MAX_SPANS {
                        self.spans.push(Span {
                            name: "cricket-server.dispatch",
                            start,
                            end: start + ns,
                            parent: p.parent,
                            xid: p.xid,
                        });
                    }
                }
                Err(e) => self
                    .problems
                    .push(format!("replay of xid {} failed: {e}", p.xid)),
            }
        }
        self.pending_bytes = 0;
    }

    fn push_span(&mut self, span: Span) -> Option<u32> {
        if self.spans.len() >= MAX_SPANS {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() as u32 - 1)
    }
}

/// Print the per-kind p50 breakdown of timed calls to stderr.
pub fn print_kind_table(label: &str, calls: &[CallTrace]) {
    let mut kinds: Vec<Kind> = calls.iter().map(|c| c.kind).collect();
    kinds.sort();
    kinds.dedup();
    eprintln!("[{label}] p50 per op kind, µs: calls | call = send + wait + recv + self | dispatch");
    for k in kinds {
        let of = |f: fn(&CallTrace) -> u64| -> f64 {
            let v: Vec<f64> = calls
                .iter()
                .filter(|c| c.kind == k)
                .map(|c| f(c) as f64 / 1e3)
                .collect();
            median(&v)
        };
        let n = calls.iter().filter(|c| c.kind == k).count();
        let self_ns = |c: &CallTrace| c.call_ns - c.send_ns - c.wait_ns - c.recv_ns;
        eprintln!(
            "  {:<12} {:>7} | {:>10.1} = {:>8.1} + {:>8.1} + {:>8.1} + {:>6.1} | {:>8.1}",
            k.name(),
            n,
            of(|c| c.call_ns),
            of(|c| c.send_ns),
            of(|c| c.wait_ns),
            of(|c| c.recv_ns),
            of(self_ns),
            of(|c| c.dispatch_ns),
        );
    }
}

/// Write spans as JSON lines to `path`.
pub fn write_spans(path: &std::path::Path, sessions: &[(&str, &[Span])]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (session, spans) in sessions {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"session":"{session}","id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"xid":{}}}"#,
                s.name, s.start, s.end, s.xid
            )?;
        }
    }
    out.flush()
}

/// Leaf layers timed by calling each crate's public functions directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct Leaves {
    pub scheduler_turn_us: f64,
    pub malloc_free_us: f64,
    pub launch_us: f64,
    pub htod_us_per_mib: f64,
    pub dtoh_us_per_mib: f64,
    pub encode_us_per_mib: f64,
    pub decode_us_per_mib: f64,
    pub frame_us_per_mib: f64,
    pub sparse_scan_dense_us_per_mib: f64,
    pub sparse_scan_sparse_us_per_mib: f64,
}

/// Median per-repetition time of `f` in µs over `reps` runs.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        v.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    median(&v)
}

/// Time the leaf layers at `copy_bytes` payloads and `alloc_bytes`
/// allocations (the workload's sizes).
pub fn leaves(rng: &mut Rng, copy_bytes: usize, alloc_bytes: u64) -> Leaves {
    let mib = copy_bytes as f64 / MIB;
    // Small payloads repeat enough to rise above timer resolution.
    let reps = (64 * MIB as usize / copy_bytes).clamp(5, 2000);
    let mut dense = vec![0u8; copy_bytes];
    rng.fill(&mut dense);
    let mut sparse = vec![0u8; copy_bytes];
    rng.fill_sparse(&mut sparse, oncrpc::sparse::SPARSE_PAGE, 0.9);

    let sched = cricket_server::scheduler::Scheduler::default();
    let scheduler_turn_us = time_us(2000, || {
        let turn = sched.begin(1);
        turn.charge(1000);
    });

    let mut dev = vgpu::Device::a100();
    let malloc_free_us = time_us(2000, || {
        let (ptr, _) = dev.malloc(alloc_bytes).expect("leaf malloc");
        dev.free(ptr).expect("leaf free");
    });
    let (buf, _) = dev.malloc(copy_bytes as u64).expect("leaf buffer");
    let launch_us = {
        let n = 1024u32;
        let (a, _) = dev.malloc(4 * n as u64).expect("leaf a");
        let (b, _) = dev.malloc(4 * n as u64).expect("leaf b");
        let (c, _) = dev.malloc(4 * n as u64).expect("leaf c");
        let image = cricket_client::CubinBuilder::new()
            .kernel("vectorAdd", &[8, 8, 8, 4])
            .code(b"leaf")
            .build(false);
        let (module, _) = dev.module_load(&image).expect("leaf module");
        let (func, _) = dev
            .module_get_function(module, "vectorAdd")
            .expect("leaf fn");
        let params = cricket_client::ParamBuilder::new()
            .ptr(c)
            .ptr(a)
            .ptr(b)
            .u32(n)
            .build();
        time_us(2000, || {
            dev.launch_kernel(func, dim3(4), dim3(256), 0, 0, &params)
                .expect("leaf launch");
            dev.device_synchronize();
        })
    };
    let htod_us_per_mib = time_us(reps, || {
        dev.memcpy_htod(buf, &dense).expect("leaf htod");
    }) / mib;
    let dtoh_us_per_mib = time_us(reps, || {
        black_box(dev.memcpy_dtoh(buf, copy_bytes as u64).expect("leaf dtoh"));
    }) / mib;

    // The client's argument encoding: header words plus the deferred
    // payload, exposed as the gather list the record layer writes.
    let mut enc = xdr::XdrEncoder::with_capacity(256);
    let encode_us_per_mib = time_us(reps, || {
        enc.clear();
        let mut sg = xdr::XdrSgEncoder::new(&mut enc);
        sg.put_u64(buf);
        sg.put_opaque_deferred(&dense);
        sg.with_segments(|segs| black_box(segs.len()));
    }) / mib;
    let mut wire = Vec::with_capacity(copy_bytes + 64);
    {
        enc.clear();
        let mut sg = xdr::XdrSgEncoder::new(&mut enc);
        enc_args(&mut sg, buf, &dense);
        sg.with_segments(|segs| {
            oncrpc::record::write_record_sg(&mut wire, segs, oncrpc::DEFAULT_MAX_FRAGMENT)
        })
        .expect("frame into memory");
    }
    let mut record = Vec::new();
    {
        let mut asm = oncrpc::RecordAssembler::default();
        asm.extend(&wire);
        record.extend_from_slice(asm.next_record().expect("reassemble").expect("one record"));
    }
    // The server's argument decoding: borrow the opaque, copy it out.
    let mut out = vec![0u8; copy_bytes];
    let decode_us_per_mib = time_us(reps, || {
        let mut dec = xdr::XdrDecoder::new(&record);
        let _dst = dec.get_u64().expect("decode dst");
        let data = dec.get_opaque_ref().expect("decode payload");
        out.copy_from_slice(data);
        black_box(&out);
    }) / mib;
    let mut asm = oncrpc::RecordAssembler::default();
    let frame_us_per_mib = time_us(reps, || {
        wire.clear();
        enc.clear();
        let mut sg = xdr::XdrSgEncoder::new(&mut enc);
        enc_args(&mut sg, buf, &dense);
        sg.with_segments(|segs| {
            oncrpc::record::write_record_sg(&mut wire, segs, oncrpc::DEFAULT_MAX_FRAGMENT)
        })
        .expect("frame into memory");
        asm.extend(&wire);
        black_box(asm.next_record().expect("reassemble").map(|r| r.len()));
    }) / mib;
    let mut scratch = Vec::with_capacity(copy_bytes + 64);
    let mut scan = |payload: &[u8]| {
        time_us(reps, || {
            scratch.clear();
            black_box(oncrpc::sparse::encode_adaptive(
                payload,
                oncrpc::sparse::SPARSE_PAGE,
                &mut scratch,
            ));
        }) / mib
    };
    let sparse_scan_dense_us_per_mib = scan(&dense);
    let sparse_scan_sparse_us_per_mib = scan(&sparse);
    Leaves {
        scheduler_turn_us,
        malloc_free_us,
        launch_us,
        htod_us_per_mib,
        dtoh_us_per_mib,
        encode_us_per_mib,
        decode_us_per_mib,
        frame_us_per_mib,
        sparse_scan_dense_us_per_mib,
        sparse_scan_sparse_us_per_mib,
    }
}

fn enc_args<'d>(sg: &mut xdr::XdrSgEncoder<'d, '_>, dst: u64, payload: &'d [u8]) {
    sg.put_u64(dst);
    sg.put_opaque_deferred(payload);
}

fn dim3(x: u32) -> vgpu::Dim3 {
    vgpu::Dim3 { x, y: 1, z: 1 }
}
