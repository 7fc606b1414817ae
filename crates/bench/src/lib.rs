//! The measurement behind the `OnCall` regression gate
//! (`src/bin/oncall_gate.rs`): `iters` accesses split across `threads`
//! pinned workers, each walking its own stride of the object/site space,
//! timed from barrier release to last join. Thread spawn cost is excluded.
//! The gate is the only caller; the benchmark of record's `core.on_call.*`
//! probes time the same call on their own loop.
//!
//! [`gate`] is the `--write | --check` skeleton the two CI gate bins share.

pub mod gate;

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use tsvd_core::site::{SiteData, SiteId};
use tsvd_core::{ObjId, OpKind, Runtime, TsvdConfig};

/// A runtime constructor, so detector variants can be tabulated.
pub type Factory = fn(TsvdConfig) -> Arc<Runtime>;

/// The config every scaling measurement uses: zero delay budget, so the
/// planner still runs but no sleep is ever admitted and the numbers are
/// pure analysis + synchronization cost.
fn no_delay_config() -> TsvdConfig {
    let mut c = TsvdConfig::for_testing();
    c.max_delay_per_run_ns = 0;
    c
}

/// What mix of operations the workers issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMix {
    /// 1-in-4 writes, the rest reads: conflicting pairs exist, so a TSVD
    /// detector arms them and plans delays.
    Mixed,
    /// Reads only: no conflicting pair ever forms and nothing ever arms.
    /// This is the shape that measures the zero-trap path itself.
    ReadOnly,
}

/// One benchmark traffic shape: an object-space mask, a callsite count, and
/// an access mix.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Stable name used in the gate's JSON.
    pub name: &'static str,
    /// Objects are `1 + (i & obj_mask)`: 0x7 = 8 hot objects, 0xFFFF = 64Ki.
    pub obj_mask: u64,
    /// Number of distinct interned callsites the workers rotate through.
    pub n_sites: u32,
    /// Operation mix.
    pub mix: AccessMix,
}

/// The three shapes the gate persists and checks.
pub const SHAPES: &[Shape] = &[
    Shape {
        name: "contended",
        obj_mask: 0x7,
        n_sites: 4,
        mix: AccessMix::Mixed,
    },
    Shape {
        name: "highcard",
        obj_mask: 0xFFFF,
        n_sites: 256,
        mix: AccessMix::Mixed,
    },
    Shape {
        name: "highcard_ro",
        obj_mask: 0xFFFF,
        n_sites: 256,
        mix: AccessMix::ReadOnly,
    },
];

/// Interns `n` distinct callsites for the worker loop to rotate through.
pub fn make_sites(n: u32) -> Arc<Vec<SiteId>> {
    Arc::new(
        (0..n)
            .map(|i| {
                SiteId::intern(SiteData {
                    file: "oncall_gate.rs",
                    line: i + 1,
                    column: 1,
                })
            })
            .collect(),
    )
}

/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to the `slot`-th CPU this process may run on
/// (wrapping). The scheduler likes to put a thread next to whoever woke it:
/// unpinned, the workers a barrier releases together spend minutes at a
/// time sharing one CPU, where they never contend, and a 2-thread row reads
/// 1.0x its 1-thread row in one run and 1.6x in the next. Pinning makes
/// "`T` threads" mean `T` CPUs, up to the CPUs there are. Best effort: if
/// the kernel refuses, the thread stays where it was.
fn pin_current_thread(slot: usize) {
    let mut allowed = [0u64; CPU_SET_WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed, the
    // layout `sched_getaffinity` documents for `cpu_set_t`; pid 0 names the
    // calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let cpus: Vec<usize> = (0..CPU_SET_WORDS * 64)
        .filter(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return;
    }
    let cpu = cpus[slot % cpus.len()];
    let mut only = [0u64; CPU_SET_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a readable buffer of exactly the size passed, in the
    // `cpu_set_t` layout, naming one CPU the kernel just reported as allowed.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) };
}

/// Runs `iters` total accesses split across `threads` workers, worker `t`
/// pinned to the `t`-th CPU, and returns the wall-clock span from the first
/// worker starting to the last worker finishing. Each worker walks its own
/// stride of the object/site space so the access stream is deterministic
/// per thread count.
///
/// Every worker takes its own start/end timestamps; the span is
/// `max(end) − min(start)`. Timing from the coordinating thread would
/// undercount badly on machines with fewer cores than workers: after the
/// release barrier the scheduler can run the workers for milliseconds
/// before the coordinator gets the CPU back to read the clock.
fn run_workers(
    rt: &Arc<Runtime>,
    threads: usize,
    iters: u64,
    obj_mask: u64,
    sites: &Arc<Vec<SiteId>>,
    mix: AccessMix,
) -> Duration {
    let per_thread = iters.div_ceil(threads as u64).max(1);
    let gate = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let rt = Arc::clone(rt);
            let gate = Arc::clone(&gate);
            let sites = Arc::clone(sites);
            thread::spawn(move || {
                // Offset each worker so they collide on objects rather than
                // marching in lockstep over disjoint ranges.
                let mut i = (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                pin_current_thread(t);
                gate.wait();
                let start = Instant::now();
                for _ in 0..per_thread {
                    let obj = ObjId(1 + (i & obj_mask));
                    let site = sites[(i % sites.len() as u64) as usize];
                    let kind = match mix {
                        AccessMix::ReadOnly => OpKind::Read,
                        AccessMix::Mixed if i & 3 == 0 => OpKind::Write,
                        AccessMix::Mixed => OpKind::Read,
                    };
                    rt.on_call(std::hint::black_box(obj), site, "bench.op", kind);
                    i = i.wrapping_add(1);
                }
                (start, Instant::now())
            })
        })
        .collect();
    let mut first_start: Option<Instant> = None;
    let mut last_end: Option<Instant> = None;
    for h in handles {
        let (start, end) = h.join().expect("bench worker panicked");
        first_start = Some(first_start.map_or(start, |s| s.min(start)));
        last_end = Some(last_end.map_or(end, |e| e.max(end)));
    }
    match (first_start, last_end) {
        (Some(start), Some(end)) => end.duration_since(start),
        _ => Duration::ZERO,
    }
}

/// Per-access nanoseconds of one `run_workers(threads, iters)` on a fresh
/// runtime (so table state from a previous measurement can't skew this one),
/// after a warm-up long enough to populate the per-object tracking tables
/// (the high-cardinality shapes touch 64Ki objects; measuring during table
/// growth would make short runs systematically slower per access than long
/// ones).
pub fn measure_per_access_ns(
    factory: Factory,
    threads: usize,
    iters: u64,
    shape: &Shape,
    sites: &Arc<Vec<SiteId>>,
) -> f64 {
    let rt = factory(no_delay_config());
    let warmup = (iters / 8).max(2 * (shape.obj_mask + 1)).max(1);
    run_workers(&rt, threads, warmup, shape.obj_mask, sites, shape.mix);
    let wall = run_workers(&rt, threads, iters, shape.obj_mask, sites, shape.mix);
    wall.as_nanos() as f64 / iters as f64
}
