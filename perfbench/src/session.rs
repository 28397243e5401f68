//! Client sessions over real TCP and the closed-loop scripts they run.
//! Every call goes through `CricketClient` with default settings; the
//! benchmark times each call from outside and checks every result.

use crate::layers::{Replay, Tracer};
use crate::rng::Rng;
use crate::tap::Tap;
use cricket_client::env::ClientFlavor;
use cricket_client::{ClientResult, CricketClient, CubinBuilder, Endpoint, ParamBuilder};
use std::net::SocketAddr;
use std::time::Instant;

/// The API calls the benchmark times, by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    DeviceCount,
    Malloc,
    Free,
    Launch,
    Sync,
    H2d,
    H2dSparse,
    D2h,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::DeviceCount => "device_count",
            Kind::Malloc => "malloc",
            Kind::Free => "free",
            Kind::Launch => "launch",
            Kind::Sync => "synchronize",
            Kind::H2d => "h2d",
            Kind::H2dSparse => "h2d_sparse",
            Kind::D2h => "d2h",
        }
    }

    pub fn is_copy(self) -> bool {
        matches!(self, Kind::H2d | Kind::H2dSparse | Kind::D2h)
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub kind: Kind,
    pub ns: u64,
    pub bytes: u64,
}

/// What one session did: every timed call, and the
/// operation and failure counts.
pub struct Recorder {
    pub calls: Vec<Call>,
    /// Host↔device payload bytes copied (raw, before any wire encoding).
    pub copied: u64,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Option<Tracer>,
}

impl Recorder {
    pub fn new(tracer: Option<Tracer>) -> Self {
        Recorder {
            calls: Vec::with_capacity(1 << 18),
            copied: 0,
            attempted: 0,
            failed: 0,
            tracer,
        }
    }

    /// Issue one API call. `timed` calls enter the latency and bandwidth
    /// statistics; verification read-backs do not, but are still counted
    /// and traced. Returns `None` (and counts a failure) on error.
    pub fn call<T>(
        &mut self,
        kind: Kind,
        bytes: usize,
        timed: bool,
        f: impl FnOnce() -> ClientResult<T>,
    ) -> Option<T> {
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.attempted += 1;
        if let Some(tr) = self.tracer.as_mut() {
            tr.absorb(timed.then_some(kind), t0, ns, Some(1));
        }
        match r {
            Ok(v) => {
                if kind.is_copy() {
                    self.copied += bytes as u64;
                }
                if timed {
                    self.calls.push(Call {
                        kind,
                        ns,
                        bytes: bytes as u64,
                    });
                }
                Some(v)
            }
            Err(e) => {
                self.fail(&format!("{} failed: {e}", kind.name()));
                None
            }
        }
    }

    /// Start over after warm-up: returns what was recorded so far; the
    /// tracer keeps its session but drops its sums and spans.
    pub fn restart(&mut self) -> Recorder {
        let mut tracer = self.tracer.take();
        if let Some(t) = tracer.as_mut() {
            t.reset();
        }
        std::mem::replace(self, Recorder::new(tracer))
    }

    /// Count a failed check of an operation already attempted.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("FAILED: {what}");
        }
    }

    /// Read back `len` bytes at `ptr` and compare with `expect`.
    fn read_back(
        &mut self,
        client: &mut CricketClient,
        ptr: u64,
        expect: &[u8],
        timed: bool,
    ) -> bool {
        let Some(got) = self.call(Kind::D2h, expect.len(), timed, || {
            client.memcpy_dtoh(ptr, expect.len() as u64)
        }) else {
            return false;
        };
        if got != expect {
            self.fail(&format!(
                "read-back of {} bytes differs from what was written",
                expect.len()
            ));
            return false;
        }
        true
    }
}

/// Start a server with every default, as a deployment would.
pub fn start_server() -> cricket_server::ServeHandle {
    cricket_server::ServerBuilder::new("127.0.0.1:0")
        .serve()
        .expect("bind a loopback listener")
}

/// Connect a client with every default. With `trace`, the connection runs
/// through a capturing [`Tap`] and the session's records replay into
/// `replay`.
pub fn connect(
    addr: SocketAddr,
    trace: Option<(Replay, Instant)>,
) -> ClientResult<(CricketClient, Option<Tracer>)> {
    let endpoint = Endpoint::Addr(addr);
    match trace {
        None => Ok((CricketClient::connect(&endpoint)?, None)),
        Some((replay, origin)) => {
            let (transport, _) = endpoint.connect_transport()?;
            let (tap, handle) = Tap::new(Box::new(transport), origin, true, None);
            let client = CricketClient::over(tap, ClientFlavor::RustRpcLib, None);
            Ok((client, Some(Tracer::new(handle, replay, origin))))
        }
    }
}

/// Small-op payload size (one page).
pub const SMALL: usize = 4096;
/// Copies of each unit kind in one small-op pass.
const REPEATS: usize = 8;
/// Kernel elements per launch.
const LAUNCH_N: u32 = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    DeviceCount,
    MallocFree,
    LaunchSync,
    H2dDense,
    H2dZero,
    D2h,
}

const UNITS: [Unit; 6] = [
    Unit::DeviceCount,
    Unit::MallocFree,
    Unit::LaunchSync,
    Unit::H2dDense,
    Unit::H2dZero,
    Unit::D2h,
];

/// The Fig. 6 small-op mix: a seeded shuffle of device count, malloc+free
/// pairs, launch+synchronize on a module loaded at set-up, and 4 KiB
/// copies (dense and all-zero H2D, D2H). Every H2D lands in its own slot
/// and is read back: by a timed D2H unit, or at the end of the pass.
pub struct OpsSession {
    client: CricketClient,
    rng: Rng,
    func: u64,
    params: Vec<u8>,
    slots: Vec<u64>,
    shadow: Vec<Vec<u8>>,
    unverified: Vec<usize>,
    last_written: usize,
    // Inputs of the next pass, generated before it starts.
    order: Vec<Unit>,
    sizes: Vec<u64>,
    payloads: Vec<Vec<u8>>,
}

impl OpsSession {
    /// Set-up: load the module and allocate the working set.
    pub fn new(mut client: CricketClient, rng: Rng) -> ClientResult<Self> {
        let image = CubinBuilder::new()
            .kernel("vectorAdd", &[8, 8, 8, 4])
            .code(b"perfbench vectorAdd")
            .build(false);
        let module = client.module_load(&image)?;
        let func = client.module_get_function(module, "vectorAdd")?;
        // One allocation holds the working set: the kernel's three vectors,
        // then one page-sized slot per H2D of a pass.
        let slot_count = 2 * REPEATS;
        let vector = u64::from(LAUNCH_N) * 4;
        let base = client.malloc(3 * vector + (slot_count * SMALL) as u64)?;
        let (a, b, c) = (base, base + vector, base + 2 * vector);
        let params = ParamBuilder::new()
            .ptr(c)
            .ptr(a)
            .ptr(b)
            .u32(LAUNCH_N)
            .build();
        let slots: Vec<u64> = (0..slot_count as u64)
            .map(|i| base + 3 * vector + i * SMALL as u64)
            .collect();
        // Slot 0 holds known bytes, so a D2H before any H2D has a reference.
        let zero = vec![0u8; SMALL];
        client.memcpy_htod(slots[0], &zero)?;
        Ok(OpsSession {
            client,
            rng,
            func,
            params,
            shadow: vec![zero; slot_count],
            slots,
            unverified: Vec::with_capacity(slot_count),
            last_written: 0,
            order: Vec::with_capacity(UNITS.len() * REPEATS),
            sizes: Vec::with_capacity(REPEATS),
            payloads: vec![vec![0u8; SMALL]; slot_count],
        })
    }

    /// Generate the next pass's inputs from the seed stream.
    fn prepare(&mut self) {
        self.order.clear();
        for u in UNITS {
            self.order.extend((0..REPEATS).map(|_| u));
        }
        self.rng.shuffle(&mut self.order);
        self.sizes.clear();
        for _ in 0..REPEATS {
            // 4 KiB .. 1 MiB in page steps.
            self.sizes.push((1 + self.rng.below(256)) * SMALL as u64);
        }
        for (slot, u) in self
            .order
            .iter()
            .filter(|u| matches!(u, Unit::H2dDense | Unit::H2dZero))
            .enumerate()
        {
            if *u == Unit::H2dDense {
                self.rng.fill(&mut self.payloads[slot]);
            } else {
                self.payloads[slot].fill(0);
            }
        }
    }

    /// Generate a pass's inputs, then run it: its wall seconds, or `None`
    /// once anything failed. Input generation is not timed.
    pub fn run_pass(&mut self, rec: &mut Recorder) -> Option<f64> {
        self.prepare();
        let t = Instant::now();
        self.pass(rec).then(|| t.elapsed().as_secs_f64())
    }

    /// Run one pass on prepared inputs. Returns false once anything failed.
    fn pass(&mut self, rec: &mut Recorder) -> bool {
        let failed = rec.failed;
        let (mut next_size, mut next_slot) = (0, 0);
        for i in 0..self.order.len() {
            let client = &mut self.client;
            match self.order[i] {
                Unit::DeviceCount => {
                    if let Some(n) = rec.call(Kind::DeviceCount, 0, true, || client.device_count())
                    {
                        if n != 4 {
                            rec.fail(&format!("device count {n}, expected 4"));
                        }
                    }
                }
                Unit::MallocFree => {
                    let size = self.sizes[next_size];
                    next_size += 1;
                    if let Some(ptr) = rec.call(Kind::Malloc, 0, true, || client.malloc(size)) {
                        rec.call(Kind::Free, 0, true, || client.free(ptr));
                    }
                }
                Unit::LaunchSync => {
                    let (func, params) = (self.func, &self.params);
                    rec.call(Kind::Launch, 0, true, || {
                        client.launch_kernel(
                            func,
                            (4, 1, 1).into(),
                            (256, 1, 1).into(),
                            0,
                            0,
                            params,
                        )
                    });
                    rec.call(Kind::Sync, 0, true, || client.device_synchronize());
                }
                Unit::H2dDense | Unit::H2dZero => {
                    let slot = next_slot;
                    next_slot += 1;
                    let kind = if self.order[i] == Unit::H2dDense {
                        Kind::H2d
                    } else {
                        Kind::H2dSparse
                    };
                    let (ptr, data) = (self.slots[slot], &self.payloads[slot]);
                    if rec
                        .call(kind, SMALL, true, || client.memcpy_htod(ptr, data))
                        .is_some()
                    {
                        self.shadow[slot].copy_from_slice(data);
                        self.unverified.push(slot);
                        self.last_written = slot;
                    }
                }
                Unit::D2h => {
                    let slot = self.unverified.pop().unwrap_or(self.last_written);
                    rec.read_back(client, self.slots[slot], &self.shadow[slot], true);
                }
            }
            if rec.failed > failed {
                return false;
            }
        }
        while let Some(slot) = self.unverified.pop() {
            rec.read_back(
                &mut self.client,
                self.slots[slot],
                &self.shadow[slot],
                false,
            );
        }
        rec.failed == failed
    }
}

/// Bulk copies into one device buffer: dense seeded-random H2D, verified
/// D2H, then an H2D whose pages are 90% zero, verified again.
pub struct CopySession {
    rng: Rng,
    buf: u64,
    dense: Vec<u8>,
    sparse: Vec<u8>,
}

/// Share of all-zero pages in the sparse payloads.
pub const ZERO_SHARE: f64 = 0.9;

impl CopySession {
    /// Set-up: allocate the device buffer (payload generation is not set-up).
    pub fn new(client: &mut CricketClient, rng: Rng, bytes: usize) -> ClientResult<Self> {
        let buf = client.malloc(bytes as u64)?;
        Ok(CopySession {
            rng,
            buf,
            dense: vec![0u8; bytes],
            sparse: vec![0u8; bytes],
        })
    }

    /// Generate the next cycle's payloads.
    pub fn prepare(&mut self) {
        self.rng.fill(&mut self.dense);
        self.rng
            .fill_sparse(&mut self.sparse, oncrpc::sparse::SPARSE_PAGE, ZERO_SHARE);
    }

    /// Generate a cycle's payloads, then run it: its wall seconds, or
    /// `None` once anything failed. Payload generation is not timed.
    pub fn run_cycle(&mut self, client: &mut CricketClient, rec: &mut Recorder) -> Option<f64> {
        self.prepare();
        let t = Instant::now();
        self.cycle(client, rec, true)
            .then(|| t.elapsed().as_secs_f64())
    }

    /// Run one cycle on prepared payloads; `timed` as in [`Recorder::call`].
    /// Returns false once anything failed.
    pub fn cycle(&mut self, client: &mut CricketClient, rec: &mut Recorder, timed: bool) -> bool {
        let failed = rec.failed;
        let (buf, n) = (self.buf, self.dense.len());
        for (kind, payload) in [(Kind::H2d, &self.dense), (Kind::H2dSparse, &self.sparse)] {
            if rec
                .call(kind, n, timed, || client.memcpy_htod(buf, payload))
                .is_none()
                || !rec.read_back(client, buf, payload, timed)
            {
                return false;
            }
        }
        rec.failed == failed
    }
}
