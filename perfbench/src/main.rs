//! perfbench: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload small_ops --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Drives the system only through its public entry points: a server from
//! `ServerBuilder` with every default on a loopback port, clients from
//! `CricketClient`, and the simulated Hermit deployment from
//! `cricket_client::sim`. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the traced measurement and prints the per-layer
//! metrics. The last line of stdout is the result as one JSON object; a
//! human-readable breakdown goes to stderr. See README.md for every metric.

mod layers;
mod measure;
mod rng;
mod session;
mod sim;
mod tap;

use layers::{Leaves, ReplayServer, Span, Tracer};
use measure::{mean, median, percentile, Window, WindowDelta, MIB};
use rng::Rng;
use session::{connect, start_server, CopySession, Kind, OpsSession, Recorder};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// Set-ups per run of a TCP workload; `setup_s` is their lower quartile.
const SETUPS: usize = 201;
/// Device buffer of the `bulk_copy` workload.
const BULK: usize = 64 << 20;
/// Per-copy size of the `two_tenants` copy tenant.
const TENANT_COPY: usize = 8 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SmallOps,
    BulkCopy,
    TwoTenants,
    SimHermitApps,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "small_ops" => Workload::SmallOps,
            "bulk_copy" => Workload::BulkCopy,
            "two_tenants" => Workload::TwoTenants,
            "sim_hermit_apps" => Workload::SimHermitApps,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SmallOps => "small_ops",
            Workload::BulkCopy => "bulk_copy",
            Workload::TwoTenants => "two_tenants",
            Workload::SimHermitApps => "sim_hermit_apps",
        }
    }

    /// (copy size, allocation size) the leaf layers are timed at.
    fn leaf_sizes(self) -> (usize, u64) {
        match self {
            Workload::SmallOps => (session::SMALL, 128 * session::SMALL as u64),
            Workload::BulkCopy => (BULK, BULK as u64),
            Workload::TwoTenants => (TENANT_COPY, TENANT_COPY as u64),
            Workload::SimHermitApps => (sim::SIM_COPY, sim::SIM_COPY as u64),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A run's result: metrics by name with their units, plus accounting.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    problems: Vec<String>,
}

impl Outcome {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn absorb(&mut self, rec: &Recorder) {
        self.attempted += rec.attempted;
        self.failed += rec.failed;
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!(r#""{n}": {{"value": {v}, "unit": "{u}"}}"#))
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload small_ops|bulk_copy|two_tenants|sim_hermit_apps \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // The simulated deployment runs on one thread and never waits for
    // another, so it has no wake-ups for the spinners to keep short.
    let spinners = (args.workload != Workload::SimHermitApps).then(measure::Spinners::start);
    let mut out = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    if let Some(s) = spinners {
        s.stop();
    }
    for (name, value, _) in &out.metrics {
        if !value.is_finite() {
            out.problems.push(format!("{name} is not a finite number"));
        }
    }
    for p in &out.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{}", out.to_json());
    if !out.correct() {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0)
// ---------------------------------------------------------------------------

/// The raw material of the end-to-end metrics.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    /// Latency of each call of the latency session, µs.
    latency_us: Vec<f64>,
    /// MiB/s of each timed copy, by kind.
    h2d: Vec<f64>,
    h2d_sparse: Vec<f64>,
    d2h: Vec<f64>,
    /// Wall seconds of each pass of the workload's script.
    pass_s: Vec<f64>,
    calls: u64,
    copied: u64,
    window: WindowDelta,
}

impl Measured {
    /// Take `rec`'s calls into the latency and/or the bandwidth samples.
    fn add_calls(&mut self, rec: &Recorder, latency: bool, bandwidth: bool) {
        for c in &rec.calls {
            if latency {
                self.latency_us.push(c.ns as f64 / 1e3);
            }
            if !bandwidth {
                continue;
            }
            let mib_s = c.bytes as f64 / MIB / (c.ns as f64 / 1e9);
            match c.kind {
                Kind::H2d => self.h2d.push(mib_s),
                Kind::H2dSparse => self.h2d_sparse.push(mib_s),
                Kind::D2h => self.d2h.push(mib_s),
                _ => {}
            }
        }
        // Over TCP every operation is one API call.
        self.calls += rec.attempted;
        self.copied += rec.copied;
    }

    fn report(&self, out: &mut Outcome) {
        let m = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
        let avg = |v: &[f64]| if v.is_empty() { f64::NAN } else { mean(v) };
        // Set-ups that wait on the host's scheduler take one or more of its
        // 4 ms ticks longer, and how many do varies from run to run, so the
        // median flips between modes; the lower quartile tracks the
        // set-up's own cost.
        out.add(
            "setup_s",
            if self.setup_s.is_empty() {
                f64::NAN
            } else {
                percentile(&self.setup_s, 25.0)
            },
            "s",
        );
        out.add("call_p50_us", segment_median(&self.latency_us, 50.0), "us");
        out.add("call_p90_us", segment_median(&self.latency_us, 90.0), "us");
        let cpu_us = self.window.cpu_ns as f64 / 1e3;
        out.add("cpu_us_per_call", cpu_us / self.calls as f64, "us");
        out.add("h2d_mib_s", m(&self.h2d), "MiB/s");
        // A sparse copy's time is mostly a byte-by-byte zero-page scan,
        // whose speed switches between levels about 40% apart for seconds
        // at a time as the host's load comes and goes. Its samples then
        // form two clusters and a median jumps to whichever holds more of
        // the run; the mean moves in proportion to the share.
        out.add("h2d_sparse_mib_s", avg(&self.h2d_sparse), "MiB/s");
        out.add("d2h_mib_s", m(&self.d2h), "MiB/s");
        out.add(
            "cpu_us_per_mib",
            cpu_us / (self.copied as f64 / MIB),
            "us/MiB",
        );
        out.add("app_wall_s", m(&self.pass_s), "s");
        if !self.setup_s.is_empty() {
            eprintln!(
                "{} set-ups: p25 {:.3} ms, p50 {:.3} ms, p75 {:.3} ms",
                self.setup_s.len(),
                percentile(&self.setup_s, 25.0) * 1e3,
                percentile(&self.setup_s, 50.0) * 1e3,
                percentile(&self.setup_s, 75.0) * 1e3
            );
        }
        if !self.latency_us.is_empty() {
            let per = self.latency_us.len().div_ceil(SEGMENTS);
            let stretches: Vec<String> = self
                .latency_us
                .chunks(per)
                .map(|c| format!("{:.1}", percentile(c, 50.0)))
                .collect();
            eprintln!("p50 by stretch, us: {}", stretches.join(" "));
            eprintln!(
                "{} calls, {} latency samples (pooled p50 {:.1} us, p90 {:.1} us, p99 {:.1} us), \
                 {} passes, window {:.2} s",
                self.calls,
                self.latency_us.len(),
                percentile(&self.latency_us, 50.0),
                percentile(&self.latency_us, 90.0),
                percentile(&self.latency_us, 99.0),
                self.pass_s.len(),
                self.window.wall_ns as f64 / 1e9
            );
        }
    }
}

/// Consecutive segments the latency samples are split into.
const SEGMENTS: usize = 20;

/// Median over [`SEGMENTS`] consecutive stretches of the run of each
/// stretch's `p`th percentile. A burst of load from outside the process
/// that covers less than half the run then moves the result little,
/// where it would move a pooled percentile, a tail one most of all.
fn segment_median(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let per = samples.len().div_ceil(SEGMENTS);
    let stretch: Vec<f64> = samples.chunks(per).map(|c| percentile(c, p)).collect();
    median(&stretch)
}

fn end_to_end(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut m = Measured::default();
    let run = Duration::from_secs(args.seconds);
    let rng = Rng::new(args.seed);
    run_workload(args.workload, &rng, run, &mut m, &mut out, None);
    if out.correct() {
        m.report(&mut out);
    }
    out
}

/// Trace state handed to a workload in a traced run: the replay server
/// and the time origin of every span.
type TraceCtx = (ReplayServer, Instant);

/// What a traced workload hands back: its sessions' tracers and passes.
#[derive(Default)]
struct Traced {
    tracers: Vec<(&'static str, Tracer)>,
    passes: u64,
    /// Summed virtual nanoseconds of the simulated passes.
    sim_virt_ns: u64,
}

fn setup_tcp<T>(
    m: &mut Measured,
    trace: Option<&TraceCtx>,
    mut build: impl FnMut(std::net::SocketAddr, Option<&TraceCtx>) -> Option<T>,
) -> Option<(cricket_server::ServeHandle, T)> {
    // Earlier set-ups are torn down; the last one is measured.
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let server = start_server();
        let built = build(server.addr(), if i + 1 == SETUPS { trace } else { None })?;
        m.setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            return Some((server, built));
        }
        drop(built);
        server.shutdown();
    }
    None
}

fn ops_session(
    addr: std::net::SocketAddr,
    trace: Option<&TraceCtx>,
    rng: &Rng,
    session_id: u32,
) -> Option<(OpsSession, Recorder)> {
    let (client, tracer) = connect(addr, trace.map(|(r, o)| (r.session(session_id), *o)))
        .map_err(|e| eprintln!("connect failed: {e}"))
        .ok()?;
    let mut rec = Recorder::new(tracer);
    let sess = OpsSession::new(client, rng.fork(1))
        .map_err(|e| eprintln!("small-op set-up failed: {e}"))
        .ok()?;
    if let Some(tr) = rec.tracer.as_mut() {
        tr.replay_setup();
    }
    Some((sess, rec))
}

fn copy_session(
    addr: std::net::SocketAddr,
    trace: Option<&TraceCtx>,
    rng: &Rng,
    bytes: usize,
    session_id: u32,
) -> Option<(cricket_client::CricketClient, CopySession, Recorder)> {
    let (mut client, tracer) = connect(addr, trace.map(|(r, o)| (r.session(session_id), *o)))
        .map_err(|e| eprintln!("connect failed: {e}"))
        .ok()?;
    let mut rec = Recorder::new(tracer);
    let sess = CopySession::new(&mut client, rng.fork(2), bytes)
        .map_err(|e| eprintln!("copy set-up failed: {e}"))
        .ok()?;
    if let Some(tr) = rec.tracer.as_mut() {
        tr.replay_setup();
    }
    Some((client, sess, rec))
}

/// Run passes until `run` has passed, collecting the wall seconds of each;
/// `pass` runs one on `rec` and returns its duration, or `None` on failure.
fn closed_loop(
    run: Duration,
    rec: &mut Recorder,
    mut pass: impl FnMut(&mut Recorder) -> Option<f64>,
) -> Vec<f64> {
    let deadline = Instant::now() + run;
    let mut passes = Vec::with_capacity(1 << 14);
    while Instant::now() < deadline {
        match pass(rec) {
            Some(dt) => passes.push(dt),
            None => break,
        }
    }
    passes
}

fn small_ops(
    rng: &Rng,
    run: Duration,
    m: &mut Measured,
    out: &mut Outcome,
    trace: Option<&TraceCtx>,
) -> Option<Traced> {
    let Some((server, (mut sess, mut rec))) =
        setup_tcp(m, trace, |addr, t| ops_session(addr, t, rng, 1))
    else {
        out.attempted += 1;
        out.failed += 1;
        return None;
    };
    // Warm-up passes fill caches and finish lazy set-up; not measured.
    for _ in 0..2 {
        sess.run_pass(&mut rec);
    }
    out.absorb(&rec.restart());
    let w = Window::open();
    m.pass_s = closed_loop(run, &mut rec, |rec| sess.run_pass(rec));
    m.window = w.close();
    m.add_calls(&rec, true, true);
    out.absorb(&rec);
    drop(sess);
    server.shutdown();
    let passes = m.pass_s.len() as u64;
    Some(Traced {
        tracers: rec
            .tracer
            .map(|t| vec![("small_ops", t)])
            .unwrap_or_default(),
        passes,
        sim_virt_ns: 0,
    })
}

fn bulk_copy(
    rng: &Rng,
    run: Duration,
    m: &mut Measured,
    out: &mut Outcome,
    trace: Option<&TraceCtx>,
) -> Option<Traced> {
    let Some((server, (mut client, mut sess, mut rec))) =
        setup_tcp(m, trace, |addr, t| copy_session(addr, t, rng, BULK, 1))
    else {
        out.attempted += 1;
        out.failed += 1;
        return None;
    };
    sess.run_cycle(&mut client, &mut rec);
    out.absorb(&rec.restart());
    let w = Window::open();
    m.pass_s = closed_loop(run, &mut rec, |rec| sess.run_cycle(&mut client, rec));
    m.window = w.close();
    m.add_calls(&rec, true, true);
    out.absorb(&rec);
    drop(client);
    server.shutdown();
    Some(Traced {
        passes: m.pass_s.len() as u64,
        tracers: rec
            .tracer
            .map(|t| vec![("bulk_copy", t)])
            .unwrap_or_default(),
        sim_virt_ns: 0,
    })
}

fn two_tenants(
    rng: &Rng,
    run: Duration,
    m: &mut Measured,
    out: &mut Outcome,
    trace: Option<&TraceCtx>,
) -> Option<Traced> {
    let Some((server, ((mut ops, mut ops_rec), (mut client, mut copy, mut copy_rec)))) =
        setup_tcp(m, trace, |addr, t| {
            let ops = ops_session(addr, t, rng, 1)?;
            let mut copy = copy_session(addr, t, rng, TENANT_COPY, 2)?;
            // Only the latency session replays past set-up; the copy
            // tenant's replays would hold the shared replay server.
            if let Some(tr) = copy.2.tracer.as_mut() {
                tr.stop_replay();
            }
            Some((ops, copy))
        })
    else {
        out.attempted += 1;
        out.failed += 1;
        return None;
    };
    ops.run_pass(&mut ops_rec);
    copy.run_cycle(&mut client, &mut copy_rec);
    for rec in [&mut ops_rec, &mut copy_rec] {
        out.absorb(&rec.restart());
    }
    let w = Window::open();
    let (ops_passes, threads) = std::thread::scope(|s| {
        let ops_thread = s.spawn(|| closed_loop(run, &mut ops_rec, |rec| ops.run_pass(rec)));
        let copy_thread =
            s.spawn(|| closed_loop(run, &mut copy_rec, |rec| copy.run_cycle(&mut client, rec)));
        std::thread::sleep(run / 2);
        let threads = measure::proc_stat().threads - measure::Spinners::count();
        let ops_passes = ops_thread.join().expect("ops tenant thread panicked");
        copy_thread.join().expect("copy tenant thread panicked");
        (ops_passes, threads)
    });
    m.window = w.close();
    m.window.threads = threads;
    m.pass_s = ops_passes;
    m.add_calls(&ops_rec, true, false);
    m.add_calls(&copy_rec, false, true);
    out.absorb(&ops_rec);
    out.absorb(&copy_rec);
    drop((ops, client));
    server.shutdown();
    let mut tracers = Vec::new();
    if let Some(t) = ops_rec.tracer {
        tracers.push(("ops", t));
    }
    if let Some(t) = copy_rec.tracer {
        tracers.push(("copy", t));
    }
    Some(Traced {
        passes: m.pass_s.len() as u64,
        tracers,
        sim_virt_ns: 0,
    })
}

fn sim_hermit_apps(
    rng: &Rng,
    run: Duration,
    m: &mut Measured,
    out: &mut Outcome,
    trace: Option<&TraceCtx>,
) -> Option<Traced> {
    let apps = sim::Apps::from_seed(&mut rng.fork(3));
    let copy_rng = rng.fork(4);
    let origin = trace.map_or_else(Instant::now, |(_, o)| *o);
    let mut rec = Recorder::new(None);
    let mut rpcs = Vec::with_capacity(1 << 12);
    // One warm-up pass, untraced.
    let warm = sim::pass(&apps, &copy_rng, origin, None, &mut rec, &mut rpcs);
    out.absorb(&rec);
    let reference_virt = warm?.virt_ns;
    rpcs.clear();
    let mut rec = Recorder::new(None);
    let mut virt_total = 0u64;
    let w = Window::open();
    let deadline = Instant::now() + run;
    let mut copied = 0u64;
    let mut copy_rpcs = 0u64;
    while Instant::now() < deadline {
        let Some(p) = sim::pass(
            &apps,
            &copy_rng,
            origin,
            trace.map(|_| origin),
            &mut rec,
            &mut rpcs,
        ) else {
            break;
        };
        if p.virt_ns != reference_virt {
            rec.fail(&format!(
                "virtual time {} ns differs from the first pass's {} ns",
                p.virt_ns, reference_virt
            ));
            break;
        }
        m.setup_s.push(p.setup_ns as f64 / 1e9);
        m.pass_s.push(p.wall_ns as f64 / 1e9);
        m.latency_us.extend(
            rpcs.drain(..)
                .map(|r| (r.last_read - r.first_write) as f64 / 1e3),
        );
        virt_total += p.virt_ns;
        copied += p.copied;
        copy_rpcs += p.copy_rpcs;
    }
    m.window = w.close();
    m.add_calls(&rec, false, true);
    // The apps issue their calls themselves: count RPCs at the transport.
    m.calls = m.latency_us.len() as u64 + copy_rpcs;
    m.copied = copied;
    out.absorb(&rec);
    if trace.is_none() {
        eprintln!(
            "app virtual time per pass: {:.6} s (identical on every pass)",
            reference_virt as f64 / 1e9
        );
    }
    Some(Traced {
        passes: m.pass_s.len() as u64,
        tracers: rec.tracer.map(|t| vec![("sim", t)]).unwrap_or_default(),
        sim_virt_ns: virt_total,
    })
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1)
// ---------------------------------------------------------------------------

fn run_workload(
    w: Workload,
    rng: &Rng,
    run: Duration,
    m: &mut Measured,
    out: &mut Outcome,
    trace: Option<&TraceCtx>,
) -> Option<Traced> {
    match w {
        Workload::SmallOps => small_ops(rng, run, m, out, trace),
        Workload::BulkCopy => bulk_copy(rng, run, m, out, trace),
        Workload::TwoTenants => two_tenants(rng, run, m, out, trace),
        Workload::SimHermitApps => sim_hermit_apps(rng, run, m, out, trace),
    }
}

fn traced(args: &Args) -> Outcome {
    measure::count_allocations();
    let mut out = Outcome::default();
    let rng = Rng::new(args.seed);
    let half = Duration::from_secs(args.seconds) / 2;
    let w = args.workload;

    // Untraced half: the reference for tracing overhead, and the process
    // counters (allocations, faults, threads) with no tracing in the way.
    let mut plain = Measured::default();
    run_workload(w, &rng, half, &mut plain, &mut out, None);
    if !out.correct() {
        return out;
    }

    // Traced half, on fresh set-ups whose every record is replayed.
    let origin = Instant::now();
    let ctx: TraceCtx = (ReplayServer::new(), origin);
    let mut traced_m = Measured::default();
    let Some(mut t) = run_workload(w, &rng, half, &mut traced_m, &mut out, Some(&ctx)) else {
        return out;
    };
    for (_, tr) in &mut t.tracers {
        tr.finish();
    }
    if !out.correct() {
        return out;
    }
    for (label, tr) in &t.tracers {
        out.problems
            .extend(tr.problems.iter().map(|p| format!("{label}: {p}")));
        layers::print_kind_table(label, &tr.calls);
    }
    let (copy_bytes, alloc_bytes) = w.leaf_sizes();
    let leaves = layers::leaves(&mut rng.fork(5), copy_bytes, alloc_bytes);
    let apps = app_leaves(&rng, &mut out);

    let overhead = if w == Workload::SimHermitApps {
        median(&traced_m.pass_s) / median(&plain.pass_s) - 1.0
    } else {
        measure::mean(&traced_m.latency_us) / measure::mean(&plain.latency_us) - 1.0
    };
    eprintln!(
        "[{}] tracing overhead: {:+.1}% ({})",
        w.name(),
        overhead * 100.0,
        if w == Workload::SimHermitApps {
            "median pass wall"
        } else {
            "mean call latency"
        }
    );
    per_layer(&mut out, &t, &plain, &leaves, &apps, overhead);

    let path = std::path::Path::new("target")
        .join("perfbench")
        .join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    let sessions: Vec<(&str, &[Span])> = t
        .tracers
        .iter()
        .map(|(l, tr)| (*l, &tr.spans[..]))
        .collect();
    match layers::write_spans(&path, &sessions) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    out
}

/// Each proxy app run once on a fresh simulated node at the seed's sizes:
/// (wall s, virtual s) in `App::ALL` order.
fn app_leaves(rng: &Rng, out: &mut Outcome) -> [(f64, f64); 3] {
    let apps = sim::Apps::from_seed(&mut rng.fork(3));
    let mut res = [(0.0, 0.0); 3];
    for (i, app) in sim::App::ALL.into_iter().enumerate() {
        out.attempted += 1;
        let Ok((node, _)) = sim::Node::new(Instant::now(), false) else {
            out.failed += 1;
            continue;
        };
        let v0 = node.setup.clock.now_ns();
        let t0 = Instant::now();
        match apps.run(app, &node.ctx) {
            Ok(true) => {
                res[i] = (
                    t0.elapsed().as_secs_f64(),
                    (node.setup.clock.now_ns() - v0) as f64 / 1e9,
                )
            }
            _ => out.failed += 1,
        }
    }
    res
}

fn per_layer(
    out: &mut Outcome,
    t: &Traced,
    plain: &Measured,
    leaves: &Leaves,
    apps: &[(f64, f64); 3],
    overhead: f64,
) {
    // The latency session's tracer: the first one.
    let tot = t
        .tracers
        .first()
        .map(|(_, tr)| tr.totals)
        .unwrap_or_default();
    let calls = tot.calls.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3 / calls;
    // The four client-side parts add up to the call exactly; the tracer
    // has checked that no call is shorter than its RPC stages.
    let self_ns = tot.call_ns.saturating_sub(tot.transport_ns());
    out.add("core.call_us", us(tot.call_ns), "us");
    out.add("core.self_us", us(self_ns), "us");
    out.add("oncrpc.send_us", us(tot.send_ns), "us");
    out.add("oncrpc.wait_us", us(tot.wait_ns), "us");
    out.add("oncrpc.recv_us", us(tot.recv_ns), "us");
    out.add("oncrpc.rpcs_per_call", tot.rpcs as f64 / calls, "count");
    out.add("oncrpc.writes_per_call", tot.writes as f64 / calls, "count");
    out.add("oncrpc.reads_per_call", tot.reads as f64 / calls, "count");
    out.add(
        "oncrpc.bytes_out_per_call",
        tot.bytes_out as f64 / calls,
        "B",
    );
    out.add("oncrpc.bytes_in_per_call", tot.bytes_in as f64 / calls, "B");
    let sim = t.sim_virt_ns > 0;
    out.add("cricket-server.dispatch_us", us(tot.dispatch_ns), "us");
    // Over TCP the server's work happens while the client waits; in the
    // simulated transport it runs inside the request's flush.
    let served = if sim {
        tot.send_ns + tot.wait_ns
    } else {
        tot.wait_ns
    };
    out.add(
        "cricket-server.serve_us",
        (served as f64 - tot.dispatch_ns as f64) / 1e3 / calls,
        "us",
    );
    out.add(
        "cricket-server.scheduler_turn_us",
        leaves.scheduler_turn_us,
        "us",
    );
    out.add("vgpu.malloc_free_us", leaves.malloc_free_us, "us");
    out.add("vgpu.launch_us", leaves.launch_us, "us");
    out.add("vgpu.htod_us_per_mib", leaves.htod_us_per_mib, "us/MiB");
    out.add("vgpu.dtoh_us_per_mib", leaves.dtoh_us_per_mib, "us/MiB");
    out.add("xdr.encode_us_per_mib", leaves.encode_us_per_mib, "us/MiB");
    out.add("xdr.decode_us_per_mib", leaves.decode_us_per_mib, "us/MiB");
    out.add("oncrpc.frame_us_per_mib", leaves.frame_us_per_mib, "us/MiB");
    out.add(
        "oncrpc.sparse_scan_us_per_mib.dense",
        leaves.sparse_scan_dense_us_per_mib,
        "us/MiB",
    );
    out.add(
        "oncrpc.sparse_scan_us_per_mib.sparse",
        leaves.sparse_scan_sparse_us_per_mib,
        "us/MiB",
    );

    // Virtual time per pass, on the Hermit path's cost model.
    let passes = t.passes.max(1) as f64;
    let legs = tot.legs_total();
    let (app_virt_ns, exec_ns) = if sim {
        // Measured on the simulated clock; execution is what the legs
        // leave, so legs + exec = app_virt_s. The tracer has checked that
        // every RPC's recomputed legs fit in its clock advance.
        if legs > t.sim_virt_ns {
            out.problems.push(format!(
                "simulated legs {legs} ns exceed the passes' {} ns",
                t.sim_virt_ns
            ));
        }
        (t.sim_virt_ns, t.sim_virt_ns.saturating_sub(legs))
    } else {
        // Priced: the legs this traffic would cost on the Hermit path plus
        // what the replayed server charged.
        (legs + tot.replay_virt_ns, tot.replay_virt_ns)
    };
    let s = |ns: u64| ns as f64 / 1e9 / passes;
    for (name, i) in [
        ("simnet.client_tx_virt_s", 0),
        ("simnet.wire_virt_s", 1),
        ("simnet.server_rx_virt_s", 2),
        ("simnet.server_tx_virt_s", 3),
        ("simnet.client_rx_virt_s", 4),
    ] {
        out.add(name, s(tot.legs_ns[i]), "s");
    }
    out.add("cricket-server.exec_virt_s", s(exec_ns), "s");
    out.add("app_virt_s", s(app_virt_ns), "s");
    out.add(
        "simnet.transport_wall_s",
        (tot.transport_ns() as f64 - tot.dispatch_ns as f64) / 1e9 / passes,
        "s",
    );
    for (i, app) in sim::App::ALL.into_iter().enumerate() {
        let (wall_name, virt_name) = match app {
            sim::App::MatrixMul => ("proxy-apps.matrixMul.wall_s", "proxy-apps.matrixMul.virt_s"),
            sim::App::LinearSolver => (
                "proxy-apps.cuSolverDn_LinearSolver.wall_s",
                "proxy-apps.cuSolverDn_LinearSolver.virt_s",
            ),
            sim::App::Histogram => ("proxy-apps.histogram.wall_s", "proxy-apps.histogram.virt_s"),
        };
        out.add(wall_name, apps[i].0, "s");
        out.add(virt_name, apps[i].1, "s");
    }

    let w = &plain.window;
    let plain_calls = plain.calls.max(1) as f64;
    out.add(
        "proc.allocs_per_call",
        w.allocs as f64 / plain_calls,
        "count",
    );
    out.add(
        "proc.alloc_bytes_per_call",
        w.alloc_bytes as f64 / plain_calls,
        "B",
    );
    out.add(
        "proc.minflt_per_call",
        w.minflt as f64 / plain_calls,
        "count",
    );
    out.add(
        "proc.minflt_per_mib",
        w.minflt as f64 / (plain.copied as f64 / MIB),
        "count",
    );
    out.add("proc.threads", w.threads as f64, "count");
    out.add("trace.overhead_pct", overhead * 100.0, "%");
}
