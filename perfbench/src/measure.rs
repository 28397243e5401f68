//! Process-level measurement: CPU time, page faults, threads, heap
//! allocations, and the order statistics the metrics are built from.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn pthread_getcpuclockid(thread: std::os::unix::thread::RawPthread, clock: *mut i32) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Linux `SCHED_IDLE`.
const SCHED_IDLE: i32 = 5;

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (user + system) consumed so far by every thread of this
/// process but the [`Spinners`], server threads included, in nanoseconds.
pub fn cpu_ns() -> u64 {
    let spun: u64 = SPIN_CLOCKS
        .get()
        .map_or(0, |clocks| clocks.iter().map(|&c| clock_ns(c)).sum());
    clock_ns(CLOCK_PROCESS_CPUTIME_ID) - spun
}

static SPIN_CLOCKS: OnceLock<Vec<i32>> = OnceLock::new();

/// The spinners' stop flag, alone on its cache line: the spinners read it
/// without pause, and sharing a line with the allocation counters would
/// slow every counted allocation.
#[repr(align(128))]
struct StopFlag(AtomicBool);

static SPIN_STOP: StopFlag = StopFlag(AtomicBool::new(false));

/// One idle-priority busy thread per CPU. In a virtual machine whose CPUs
/// share their host, a CPU with nothing to run halts, and waking it again
/// costs whatever the host's scheduler makes it cost, from microseconds to
/// milliseconds. On a 2-vCPU guest that cost swamped small-call latency and
/// halved 64 MiB copy bandwidth in some runs but not others. A
/// `SCHED_IDLE` thread keeps each CPU running without taking time from any
/// other thread: the kernel runs it only when nothing else wants the CPU
/// and preempts it as soon as something does. Wake-ups inside the guest
/// (futexes, inter-processor interrupts, context switches) still happen
/// and are still measured. [`cpu_ns`] and [`Window`] leave the spinners'
/// CPU time and threads out.
pub struct Spinners(Vec<std::thread::JoinHandle<()>>);

impl Spinners {
    pub fn start() -> Self {
        use std::os::unix::thread::JoinHandleExt;
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        let handles: Vec<_> = (0..n)
            .map(|_| {
                std::thread::spawn(|| {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `param` is a valid `struct sched_param` that
                    // outlives the call; pid 0 names the calling thread.
                    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
                    if !idle {
                        // Spinning at normal priority would take CPU time
                        // from the program; do without.
                        eprintln!("SCHED_IDLE refused; idle CPUs may halt");
                    }
                    while !SPIN_STOP.0.load(Ordering::Relaxed) {
                        if idle {
                            std::hint::spin_loop();
                        } else {
                            std::thread::park();
                        }
                    }
                })
            })
            .collect();
        let clocks = handles
            .iter()
            .map(|h| {
                let mut clock = 0i32;
                // SAFETY: the thread is joinable (not yet joined), so its
                // pthread id is valid, and `clock` is writable.
                let rc = unsafe { pthread_getcpuclockid(h.as_pthread_t(), &mut clock) };
                assert_eq!(rc, 0, "pthread_getcpuclockid failed");
                clock
            })
            .collect();
        SPIN_CLOCKS.set(clocks).expect("spinners are started once");
        Spinners(handles)
    }

    /// Stop the spinners and wait for them to end.
    pub fn stop(self) {
        SPIN_STOP.0.store(true, Ordering::Relaxed);
        for h in self.0 {
            h.thread().unpark();
            h.join().expect("spinner thread panicked");
        }
    }

    /// How many spinner threads run.
    pub fn count() -> u64 {
        SPIN_CLOCKS.get().map_or(0, |c| c.len() as u64)
    }
}

/// Counters from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    pub minflt: u64,
    /// Threads of the process, spinners included.
    pub threads: u64,
}

pub fn proc_stat() -> ProcStat {
    let text = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3 (state).
    let rest = &text[text.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> u64 { fields[n - 3].parse().expect("numeric stat field") };
    ProcStat {
        minflt: field(10),
        threads: field(20),
    }
}

/// Global allocator that counts allocations while a [`Window`] is open in
/// a run that asked for counts ([`count_allocations`]). The end-to-end run
/// does not, so its calls pay nothing for counters they do not report.
pub struct CountingAlloc;

static WANT_COUNTS: AtomicBool = AtomicBool::new(false);
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Have [`Window`]s count heap allocations.
pub fn count_allocations() {
    WANT_COUNTS.store(true, Ordering::Relaxed);
}

/// Turn allocation counting on (if wanted) or off; returns (allocations,
/// bytes) counted so far.
fn counting(on: bool) -> (u64, u64) {
    COUNTING.store(on && WANT_COUNTS.load(Ordering::Relaxed), Ordering::Relaxed);
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Process-wide counters sampled at the start and end of a window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    cpu: u64,
    stat: ProcStat,
    allocs: (u64, u64),
    start: std::time::Instant,
}

/// What a [`Window`] saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowDelta {
    pub cpu_ns: u64,
    pub minflt: u64,
    pub threads: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub wall_ns: u64,
}

impl Window {
    pub fn open() -> Self {
        let allocs = counting(true);
        Window {
            cpu: cpu_ns(),
            stat: proc_stat(),
            allocs,
            start: std::time::Instant::now(),
        }
    }

    /// Close the window. `threads` is sampled here, while the sessions
    /// are still live.
    pub fn close(self) -> WindowDelta {
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        let cpu = cpu_ns();
        let stat = proc_stat();
        let allocs = counting(false);
        WindowDelta {
            cpu_ns: cpu - self.cpu,
            minflt: stat.minflt - self.stat.minflt,
            threads: stat.threads - Spinners::count(),
            allocs: allocs.0 - self.allocs.0,
            alloc_bytes: allocs.1 - self.allocs.1,
            wall_ns,
        }
    }
}

/// Nearest-rank percentile `p` (0..=100) of unsorted `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub const MIB: f64 = (1u64 << 20) as f64;
