//! `hot_shared` and `hot_private`: CPU-bound instrumented traffic, the
//! paper's hot-loop case, with the delay budget at zero so that what is
//! timed is analysis and synchronisation, never a sleep.
//!
//! `T` threads issue the same seeded stream of `Dictionary` calls — a
//! quarter `set`, the rest `get` / `contains_key` / `len`, through 64
//! distinct `#[track_caller]` call sites — once on dictionaries reporting to
//! a `Tsvd` runtime and once on unmonitored ones. On 8 shared dictionaries
//! conflicting pairs form and arm, so every call takes the armed path under
//! contention; on 32 768 thread-private ones no pair ever arms, so every
//! call takes the zero-trap path over a large near-miss table.

use std::sync::{mpsc, Arc, Barrier};
use std::time::Instant;

use tsvd_collections::Dictionary;
use tsvd_core::{Runtime, TsvdConfig};

use super::{repeat_for, timed_setup, Run, Summary};
use crate::outcome::Outcome;
use crate::rng::{sub_seed, SplitMix64};
use crate::trace::Tracer;

/// Calls per batch; a batch's time per call is one latency sample.
pub const BATCH: usize = 65_536;

/// Distinct call sites [`apply`] dispatches over.
pub const SITES: u64 = 64;

/// Whether threads share the dictionaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// Every thread uses all of them.
    Shared,
    /// Each thread uses its own equal share.
    Private,
}

/// Sizes of one hot workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Dictionaries in all.
    pub dicts: usize,
    /// Key space of each dictionary (a power of two; even keys pre-filled).
    pub keys: u64,
    /// Batches each thread issues per pass.
    pub batches: usize,
}

/// The sizes for `sharing`.
pub fn shape(sharing: Sharing, smoke: bool) -> Shape {
    match (sharing, smoke) {
        (Sharing::Shared, false) => Shape {
            dicts: 8,
            keys: 4096,
            batches: 1,
        },
        (Sharing::Shared, true) => Shape {
            dicts: 8,
            keys: 4096,
            batches: 1,
        },
        (Sharing::Private, false) => Shape {
            dicts: 32_768,
            keys: 32,
            batches: 4,
        },
        (Sharing::Private, true) => Shape {
            dicts: 2_048,
            keys: 32,
            batches: 1,
        },
    }
}

/// The suite's detector configuration with only the delay budget changed:
/// planning runs in full, no sleep is ever admitted.
pub fn config(seed: u64) -> TsvdConfig {
    let mut config = TsvdConfig::paper().scaled(0.02);
    config.seed = seed;
    config.max_delay_per_run_ns = 0;
    config
}

/// The value every `set` stores: a function of the key alone, so a
/// dictionary's contents depend on which keys were set, never on order.
#[inline]
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17
}

/// One call of the stream, decoded from 64 random bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into the thread's view of the dictionaries.
    pub dict: usize,
    /// Call site, `0..SITES`.
    pub site: u64,
    /// Key.
    pub key: u64,
}

/// Decodes `bits` for a view of `dicts` dictionaries with `keys` keys each.
#[inline]
pub fn decode(bits: u64, dicts: usize, keys: u64) -> Op {
    Op {
        dict: (((bits & 0xFFFF_FFFF) * dicts as u64) >> 32) as usize,
        site: (bits >> 32) & (SITES - 1),
        key: (bits >> 40) & (keys - 1),
    }
}

/// The seed of thread `thread`'s stream in repetition `rep`; the reference
/// and the instrumented pass of one repetition use the same one.
pub fn stream_seed(seed: u64, rep: usize, thread: usize) -> u64 {
    sub_seed(seed, ((rep as u64) << 8) | thread as u64)
}

// Each expansion is a call site of its own: `#[track_caller]` reports where
// the macro was invoked, so 64 invocations below are 64 sites.
macro_rules! set {
    ($d:expr, $k:expr) => {{
        $d.set($k, value_of($k));
        0
    }};
}
macro_rules! get {
    ($d:expr, $k:expr) => {
        $d.get(&$k).unwrap_or(1)
    };
}
macro_rules! has {
    ($d:expr, $k:expr) => {
        u64::from($d.contains_key(&$k))
    };
}
macro_rules! len {
    ($d:expr) => {
        $d.len() as u64
    };
}

/// Issues one call through call site `site` and returns what it read
/// (0 for a write): 16 `set` sites, 24 `get`, 16 `contains_key`, 8 `len`.
#[rustfmt::skip]
#[inline]
pub fn apply(d: &Dictionary<u64, u64>, site: u64, key: u64) -> u64 {
    match site {
        0 => set!(d, key), 1 => set!(d, key), 2 => set!(d, key), 3 => set!(d, key),
        4 => set!(d, key), 5 => set!(d, key), 6 => set!(d, key), 7 => set!(d, key),
        8 => set!(d, key), 9 => set!(d, key), 10 => set!(d, key), 11 => set!(d, key),
        12 => set!(d, key), 13 => set!(d, key), 14 => set!(d, key), 15 => set!(d, key),
        16 => get!(d, key), 17 => get!(d, key), 18 => get!(d, key), 19 => get!(d, key),
        20 => get!(d, key), 21 => get!(d, key), 22 => get!(d, key), 23 => get!(d, key),
        24 => get!(d, key), 25 => get!(d, key), 26 => get!(d, key), 27 => get!(d, key),
        28 => get!(d, key), 29 => get!(d, key), 30 => get!(d, key), 31 => get!(d, key),
        32 => get!(d, key), 33 => get!(d, key), 34 => get!(d, key), 35 => get!(d, key),
        36 => get!(d, key), 37 => get!(d, key), 38 => get!(d, key), 39 => get!(d, key),
        40 => has!(d, key), 41 => has!(d, key), 42 => has!(d, key), 43 => has!(d, key),
        44 => has!(d, key), 45 => has!(d, key), 46 => has!(d, key), 47 => has!(d, key),
        48 => has!(d, key), 49 => has!(d, key), 50 => has!(d, key), 51 => has!(d, key),
        52 => has!(d, key), 53 => has!(d, key), 54 => has!(d, key), 55 => has!(d, key),
        56 => len!(d), 57 => len!(d), 58 => len!(d), 59 => len!(d),
        60 => len!(d), 61 => len!(d), 62 => len!(d), _ => len!(d),
    }
}

/// A set of dictionaries the crew works on: monitored by one runtime, or
/// unmonitored.
pub struct DictSet {
    dicts: Vec<Dictionary<u64, u64>>,
    sharing: Sharing,
    keys: u64,
}

impl DictSet {
    /// `n` empty dictionaries, reporting to `runtime` if given. Creating a
    /// dictionary is not an access; [`Crew::fill`] makes the first ones.
    pub fn new(
        n: usize,
        keys: u64,
        sharing: Sharing,
        runtime: Option<&Arc<Runtime>>,
    ) -> Arc<DictSet> {
        Arc::new(DictSet {
            dicts: (0..n)
                .map(|_| runtime.map_or_else(Dictionary::unmonitored, Dictionary::new))
                .collect(),
            sharing,
            keys,
        })
    }

    /// The dictionaries thread `t` of `threads` fills and owns; under
    /// [`Sharing::Private`] also the only ones it ever calls.
    fn share(&self, t: usize, threads: usize) -> &[Dictionary<u64, u64>] {
        let per_thread = self.dicts.len() / threads;
        &self.dicts[t * per_thread..(t + 1) * per_thread]
    }

    /// The dictionaries thread `t` of `threads` issues its stream on.
    fn view(&self, t: usize, threads: usize) -> &[Dictionary<u64, u64>] {
        match self.sharing {
            Sharing::Shared => &self.dicts,
            Sharing::Private => self.share(t, threads),
        }
    }
}

/// Work for one crew thread.
enum Job {
    /// Set the even half of the key space of every dictionary in the
    /// thread's share.
    Fill(Arc<DictSet>),
    /// Issue `batches` batches of the stream `stream_seed(seed, rep, t)`.
    Pass {
        set: Arc<DictSet>,
        batches: usize,
        seed: u64,
        rep: usize,
        /// Record a span per batch, under this parent.
        span: Option<u32>,
        /// All threads start together.
        gate: Arc<Barrier>,
    },
}

/// What one thread did for one job.
struct Done {
    start: Instant,
    end: Instant,
    batch_us: Vec<f64>,
    checksum: u64,
    calls: u64,
}

/// What one pass over the dictionaries measured.
pub struct Pass {
    /// First thread's start to last thread's end, seconds.
    pub wall_s: f64,
    /// Microseconds per call of every batch, all threads.
    pub batch_us: Vec<f64>,
    /// Sum of everything each thread read.
    pub checksums: Vec<u64>,
}

/// `T` threads that live as long as the workload, so that a private
/// dictionary is only ever called by one thread: the detector tells
/// threads apart, and a fresh thread per pass would look to it like a
/// second party on every dictionary.
pub struct Crew {
    jobs: Vec<mpsc::Sender<Job>>,
    done: mpsc::Receiver<(usize, Done)>,
}

impl Crew {
    /// Starts `threads` workers in `scope`; they exit when the crew drops.
    pub fn start<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        threads: usize,
        tracer: &'scope Tracer,
    ) -> Crew {
        let (done_tx, done) = mpsc::channel();
        let jobs = (0..threads)
            .map(|t| {
                let (tx, rx) = mpsc::channel::<Job>();
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    crate::env::pin_current_thread(t);
                    for job in rx {
                        let result = work(job, t, threads, tracer);
                        if done_tx.send((t, result)).is_err() {
                            return;
                        }
                    }
                });
                tx
            })
            .collect();
        Crew { jobs, done }
    }

    fn run(&self, job: impl Fn() -> Job) -> Vec<Done> {
        for tx in &self.jobs {
            tx.send(job()).expect("hot worker exited early");
        }
        let mut results: Vec<(usize, Done)> = self
            .jobs
            .iter()
            .map(|_| self.done.recv().expect("hot worker panicked"))
            .collect();
        results.sort_by_key(|(t, _)| *t);
        results.into_iter().map(|(_, done)| done).collect()
    }

    /// Every thread fills its share of `set`; returns the calls made.
    pub fn fill(&self, set: &Arc<DictSet>) -> u64 {
        self.run(|| Job::Fill(set.clone()))
            .iter()
            .map(|d| d.calls)
            .sum()
    }

    /// Every thread issues `batches` batches of its stream for repetition
    /// `rep` on its view of `set`. Threads time themselves from a common
    /// start, so handing out the jobs is not in the wall.
    pub fn pass(
        &self,
        set: &Arc<DictSet>,
        batches: usize,
        seed: u64,
        rep: usize,
        span: Option<u32>,
    ) -> Pass {
        let gate = Arc::new(Barrier::new(self.jobs.len()));
        let results = self.run(|| Job::Pass {
            set: set.clone(),
            batches,
            seed,
            rep,
            span,
            gate: gate.clone(),
        });
        let first = results.iter().map(|r| r.start).min().expect("threads > 0");
        let last = results.iter().map(|r| r.end).max().expect("threads > 0");
        Pass {
            wall_s: last.duration_since(first).as_secs_f64(),
            batch_us: results
                .iter()
                .flat_map(|r| r.batch_us.iter().copied())
                .collect(),
            checksums: results.iter().map(|r| r.checksum).collect(),
        }
    }
}

fn work(job: Job, t: usize, threads: usize, tracer: &Tracer) -> Done {
    match job {
        Job::Fill(set) => {
            let start = Instant::now();
            let share = set.share(t, threads);
            for d in share {
                for key in (0..set.keys).step_by(2) {
                    d.set(key, value_of(key));
                }
            }
            Done {
                start,
                end: Instant::now(),
                batch_us: Vec::new(),
                checksum: 0,
                calls: share.len() as u64 * set.keys / 2,
            }
        }
        Job::Pass {
            set,
            batches,
            seed,
            rep,
            span,
            gate,
        } => {
            let view = set.view(t, threads);
            let mut rng = SplitMix64::new(stream_seed(seed, rep, t));
            let mut batch_us = Vec::with_capacity(batches);
            let mut checksum = 0u64;
            gate.wait();
            let start = Instant::now();
            for _ in 0..batches {
                let _span = tracer.span(
                    span.is_some(),
                    "collections.dictionary.batch",
                    span.unwrap_or(0),
                );
                let batch_start = Instant::now();
                for _ in 0..BATCH {
                    let op = decode(rng.next_u64(), view.len(), set.keys);
                    checksum = checksum.wrapping_add(apply(&view[op.dict], op.site, op.key));
                }
                batch_us.push(batch_start.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
            }
            Done {
                start,
                end: Instant::now(),
                batch_us,
                checksum,
                calls: (batches * BATCH) as u64,
            }
        }
    }
}

struct State {
    runtime: Arc<Runtime>,
    monitored: Arc<DictSet>,
    reference: Arc<DictSet>,
    /// Calls made on monitored dictionaries so far.
    issued: u64,
}

/// Runs the workload.
pub fn run(run: &Run<'_>, sharing: Sharing) -> Result<Outcome, String> {
    std::thread::scope(|scope| measure(run, sharing, &Crew::start(scope, run.threads, run.tracer)))
}

fn measure(run: &Run<'_>, sharing: Sharing, crew: &Crew) -> Result<Outcome, String> {
    let shape = shape(sharing, run.smoke);
    let threads = run.threads;
    // Equal shares: drop the remainder rather than skew one thread.
    let dicts = shape.dicts / threads * threads;
    let calls_per_pass = (threads * shape.batches * BATCH) as u64;
    let (mut state, setup_s) = timed_setup(|| {
        let runtime = Runtime::tsvd(config(run.seed));
        let monitored = DictSet::new(dicts, shape.keys, sharing, Some(&runtime));
        let reference = DictSet::new(dicts, shape.keys, sharing, None);
        crew.fill(&reference);
        let filled = crew.fill(&monitored);
        // Warm-up, one batch per thread on each set: interns the 64 sites,
        // fills the near-miss table, and on shared dictionaries arms pairs.
        // Repetition numbers start at 1, so stream 0 is the warm-up's own.
        crew.pass(&reference, 1, run.seed, 0, None);
        crew.pass(&monitored, 1, run.seed, 0, None);
        Ok(State {
            runtime,
            monitored,
            reference,
            issued: filled + (threads * BATCH) as u64,
        })
    })?;

    let mut out = Outcome::default();
    let (mut tsvd_s, mut slowdowns, mut rep_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut op_us = Vec::new();
    let mut checksum_mismatches = 0;
    repeat_for(run.budget, |rep| {
        let rep_span = run.tracer.span(run.traced_rep(rep), "bench.hot.rep", 0);
        let span = run.traced_rep(rep).then(|| rep_span.id());
        let rep_start = Instant::now();
        let timed = |set: &Arc<DictSet>| crew.pass(set, shape.batches, run.seed, rep + 1, span);
        let (reference, tsvd) = if rep % 2 == 0 {
            let r = timed(&state.reference);
            (r, timed(&state.monitored))
        } else {
            let t = timed(&state.monitored);
            (timed(&state.reference), t)
        };
        drop(rep_span);
        rep_s.push(rep_start.elapsed().as_secs_f64());
        state.issued += calls_per_pass;
        out.attempted += 2 * calls_per_pass;
        // Both sets started equal and saw the same streams in the same
        // order, so private dictionaries must have read the same values.
        if sharing == Sharing::Private && reference.checksums != tsvd.checksums {
            checksum_mismatches += 1;
        }
        slowdowns.push(tsvd.wall_s / reference.wall_s);
        tsvd_s.push(tsvd.wall_s);
        op_us.extend(tsvd.batch_us);
        Ok(())
    })?;

    let stats = state.runtime.stats();
    out.check(
        "on_calls equals calls issued",
        stats.on_calls() == state.issued,
        format!("{} observed, {} issued", stats.on_calls(), state.issued),
    );
    out.check(
        "every call site was exercised",
        stats.sites_covered() as u64 > SITES,
        format!(
            "{} sites, {SITES} in the stream + 1 fill",
            stats.sites_covered()
        ),
    );
    out.check(
        "a zero delay budget admits no delay",
        stats.delays_injected() == 0,
        format!("{} delays", stats.delays_injected()),
    );
    let armed = state
        .runtime
        .export_trap_file()
        .map_or(0, |traps| traps.pairs.len());
    out.info.push(("pairs_armed", armed as f64));
    match sharing {
        Sharing::Shared => out.check(
            "shared dictionaries arm pairs",
            armed >= 1,
            format!("{armed} armed"),
        ),
        Sharing::Private => {
            out.check(
                "private dictionaries arm no pair",
                armed == 0,
                format!("{armed} armed"),
            );
            out.check(
                "reads match the unmonitored pass",
                checksum_mismatches == 0,
                format!("{checksum_mismatches} repetitions differ"),
            );
        }
    }
    Summary {
        setup_s,
        ops: calls_per_pass as f64,
        walls_s: &tsvd_s,
        slowdowns: &slowdowns,
        op_us: &op_us,
        rep_walls_s: &rep_s,
    }
    .report(run, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_threads_and_reps() {
        let draw = |seed, rep, thread| {
            let mut rng = SplitMix64::new(stream_seed(seed, rep, thread));
            (0..64)
                .map(|_| decode(rng.next_u64(), 8, 4096))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(5, 1, 0), draw(5, 1, 0));
        assert_ne!(draw(5, 1, 0), draw(5, 1, 1));
        assert_ne!(draw(5, 1, 0), draw(5, 2, 0));
        assert_ne!(draw(5, 1, 0), draw(6, 1, 0));
    }

    #[test]
    fn decode_stays_in_range_and_a_quarter_of_sites_write() {
        let mut rng = SplitMix64::new(9);
        let mut writes = 0;
        for _ in 0..40_000 {
            let op = decode(rng.next_u64(), 3, 32);
            assert!(op.dict < 3 && op.site < SITES && op.key < 32);
            writes += u32::from(op.site < 16);
        }
        assert!((9_500..10_500).contains(&writes), "{writes} of 40000");
    }

    #[test]
    fn apply_reads_what_was_set_and_every_site_is_distinct() {
        let rt = Runtime::noop(config(1));
        let d: Dictionary<u64, u64> = Dictionary::new(&rt);
        assert_eq!(apply(&d, 16, 6), 1, "absent key reads as 1");
        assert_eq!(apply(&d, 0, 6), 0);
        assert_eq!(apply(&d, 16, 6), value_of(6));
        assert_eq!(apply(&d, 40, 6), 1);
        assert_eq!(apply(&d, 56, 6), 1);
        for site in 0..SITES {
            apply(&d, site, 6);
        }
        assert_eq!(rt.stats().sites_covered() as u64, SITES);
    }
}
