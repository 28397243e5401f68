//! The simulated deployment: a RustyHermit guest talking to an in-process
//! Cricket server over the modelled virtio/TCP path, running the paper's
//! proxy apps plus one copy cycle.

use crate::layers::{ReplayServer, Tracer};
use crate::rng::Rng;
use crate::session::{CopySession, Recorder};
use crate::tap::{Rpc, Tap, TapHandle};
use cricket_client::sim::SimSetup;
use cricket_client::{ClientResult, Context, CricketClient, EnvConfig};
use proxy_apps::histogram::HistogramConfig;
use proxy_apps::linear_solver::LinearSolverConfig;
use proxy_apps::matrix_mul::MatrixMulConfig;
use std::time::Instant;

const ENV: EnvConfig = EnvConfig::RustyHermit;

/// Bytes per copy in the simulated copy cycle.
pub const SIM_COPY: usize = 1 << 20;
/// Timed copy cycles per pass, after one warm-up cycle.
const SIM_CYCLES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    MatrixMul,
    LinearSolver,
    Histogram,
}

impl App {
    pub const ALL: [App; 3] = [App::MatrixMul, App::LinearSolver, App::Histogram];

    pub fn name(self) -> &'static str {
        match self {
            App::MatrixMul => "matrixMul",
            App::LinearSolver => "cuSolverDn_LinearSolver",
            App::Histogram => "histogram",
        }
    }
}

/// The apps' reduced problem sizes, drawn from the seed within narrow bands.
#[derive(Debug, Clone, Copy)]
pub struct Apps {
    pub order: [App; 3],
    pub matrix_mul: MatrixMulConfig,
    pub linear_solver: LinearSolverConfig,
    pub histogram: HistogramConfig,
}

impl Apps {
    pub fn from_seed(rng: &mut Rng) -> Self {
        let mut order = App::ALL;
        rng.shuffle(&mut order);
        Apps {
            order,
            matrix_mul: MatrixMulConfig {
                ha: 128,
                wa: 64,
                wb: 128,
                iterations: 300 + rng.below(32) as usize,
                warmups: 7,
            },
            linear_solver: LinearSolverConfig {
                n: 96,
                iterations: 24 + rng.below(4) as usize,
                warmups: 2,
            },
            histogram: HistogramConfig {
                byte_count: 256 << 10,
                iterations: 48 + rng.below(8) as usize,
            },
        }
    }

    /// Host↔device payload bytes the app copies (its uploads and results).
    pub fn copied(&self, app: App) -> u64 {
        match app {
            App::MatrixMul => self.matrix_mul.expected_bytes(),
            App::LinearSolver => self.linear_solver.expected_bytes(),
            App::Histogram => (self.histogram.byte_count + 4 * (64 + 256)) as u64,
        }
    }

    /// Run `app` on `ctx`; `Ok(false)` when its host-side check fails.
    pub fn run(&self, app: App, ctx: &Context) -> ClientResult<bool> {
        Ok(match app {
            App::MatrixMul => proxy_apps::matrix_mul::run(ctx, &self.matrix_mul)?.valid,
            App::LinearSolver => proxy_apps::linear_solver::run(ctx, &self.linear_solver)?.valid,
            App::Histogram => proxy_apps::histogram::run(ctx, &self.histogram)?.valid,
        })
    }
}

/// One simulated GPU node with a client context in the Hermit guest.
pub struct Node {
    pub setup: SimSetup,
    pub ctx: Context,
    pub tap: TapHandle,
}

impl Node {
    /// Set-up: a fresh node, the guest's context, and one call to see it
    /// answer. With `capture`, the tap keeps request records for replay.
    pub fn new(origin: Instant, capture: bool) -> ClientResult<(Self, i32)> {
        let setup = SimSetup::new();
        let (tap, handle) = Tap::new(
            setup.transport(ENV),
            origin,
            capture,
            Some(std::sync::Arc::clone(&setup.clock)),
        );
        let client =
            CricketClient::over(tap, ENV.flavor(), Some(std::sync::Arc::clone(&setup.clock)));
        let ctx = Context::from_client(client);
        let count = ctx.device_count()?;
        Ok((
            Node {
                setup,
                ctx,
                tap: handle,
            },
            count,
        ))
    }
}

/// Per-pass results of the simulated workload.
#[derive(Debug, Default)]
pub struct PassResult {
    pub setup_ns: u64,
    pub wall_ns: u64,
    pub virt_ns: u64,
    pub copied: u64,
    /// RPCs of the copy cycles (untraced runs; the apps' RPCs are in `rpcs`).
    pub copy_rpcs: u64,
}

/// Run one pass on a fresh node: the apps in seeded order, then the copy
/// cycles. Untraced, the tap's timings of the apps' RPCs land in `rpcs`;
/// with `trace`
/// (the span origin), every RPC is replayed and accounted in `rec`'s
/// tracer instead.
pub fn pass(
    apps: &Apps,
    copy_rng: &Rng,
    origin: Instant,
    trace: Option<Instant>,
    rec: &mut Recorder,
    rpcs: &mut Vec<Rpc>,
) -> Option<PassResult> {
    let mut result = PassResult::default();
    let t_setup = Instant::now();
    rec.attempted += 1;
    let set_up = Node::new(origin, trace.is_some()).and_then(|(node, count)| {
        let copy = node
            .ctx
            .with_raw(|client| CopySession::new(client, copy_rng.clone(), SIM_COPY))?;
        Ok((node, count, copy))
    });
    let (node, count, mut copy) = match set_up {
        Ok(s) => s,
        Err(e) => {
            rec.fail(&format!("simulated node set-up failed: {e}"));
            return None;
        }
    };
    result.setup_ns = t_setup.elapsed().as_nanos() as u64;
    if count != 4 {
        rec.fail(&format!("device count {count}, expected 4"));
        return None;
    }
    if let Some(origin) = trace {
        // Each pass's node is fresh, and so is the server it replays into.
        let replay = ReplayServer::new().session(0);
        match rec.tracer.as_mut() {
            Some(tr) => tr.rebind(node.tap.clone(), replay),
            None => rec.tracer = Some(Tracer::new(node.tap.clone(), replay, origin)),
        }
        if let Some(tr) = rec.tracer.as_mut() {
            tr.replay_setup();
        }
    }
    let mut scratch = Vec::new();
    let drain = |rec: &Recorder, rpcs: &mut Vec<Rpc>, scratch: &mut Vec<Vec<u8>>| {
        if rec.tracer.is_none() {
            node.tap.drain_into(rpcs, scratch);
        }
    };
    // Set-up calls are not part of the pass.
    drain(rec, &mut Vec::new(), &mut scratch);
    copy.prepare();
    let v_start = node.setup.clock.now_ns();
    let t_start = Instant::now();
    for app in apps.order {
        let t0 = Instant::now();
        let r = apps.run(app, &node.ctx);
        let wall = t0.elapsed().as_nanos() as u64;
        rec.attempted += 1;
        if let Some(tr) = rec.tracer.as_mut() {
            tr.absorb(None, t0, wall, None);
        }
        drain(rec, rpcs, &mut scratch);
        match r {
            Ok(true) => {}
            Ok(false) => {
                rec.fail(&format!("{} did not validate", app.name()));
                return None;
            }
            Err(e) => {
                rec.fail(&format!("{} failed: {e}", app.name()));
                return None;
            }
        }
        result.copied += apps.copied(app);
    }
    // The node's first copies grow its buffers and fault their pages in,
    // at a third of the rate of the copies after them: the first cycle is
    // a warm-up, the next ones are timed.
    let ok = node
        .ctx
        .with_raw(|client| (0..=SIM_CYCLES).all(|i| copy.cycle(client, rec, i > 0)));
    // The copy cycles' calls count as calls, but their latency belongs to
    // the copy metrics: `rpcs` keeps the apps' RPCs only.
    let mut copies = Vec::new();
    drain(rec, &mut copies, &mut scratch);
    result.copy_rpcs = copies.len() as u64;
    if !ok {
        return None;
    }
    result.copied += 4 * (SIM_CYCLES as u64 + 1) * SIM_COPY as u64;
    result.wall_ns = t_start.elapsed().as_nanos() as u64;
    result.virt_ns = node.setup.clock.now_ns() - v_start;
    Some(result)
}
