//! The six workloads. Each is closed-loop and fixed-work: a repetition is
//! the same operations every time, the next starts when the previous has
//! finished, and repetitions continue until the run's time budget is used
//! up. Reference and instrumented passes alternate which goes first.

pub mod analyze;
pub mod fleet_pass;
pub mod hot;
pub mod suite_pass;

use std::path::Path;
use std::time::{Duration, Instant};

use crate::outcome::Outcome;
use crate::stats::{median, tail};
use crate::trace::Tracer;

/// The suite the suite and fleet workloads run: the repository's "Small"
/// seed. A suite's cost is set by which few slow scenarios its seed deals
/// it — 100-module suites from ten seeds take 385 to 956 ms under `Noop` —
/// so the benchmark pins the suite and lets `--seed` choose the detector's
/// random decisions and the order modules run in.
pub const SUITE_SEED: u64 = 0x534D_414C;

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// A traced run needs one traced and one untraced repetition at least.
const MIN_REPS: usize = 2;

/// Everything a workload needs to know about this run.
pub struct Run<'a> {
    /// `--seed`.
    pub seed: u64,
    /// Length of the measured phase.
    pub budget: Duration,
    /// Traced run: odd repetitions record spans, even ones do not, and the
    /// ratio of their walls is the tracing overhead.
    pub trace: bool,
    /// `--smoke` sizes.
    pub smoke: bool,
    /// `T`: threads, workers, analyzer threads.
    pub threads: usize,
    /// Span recorder (disabled in an untraced run).
    pub tracer: &'a Tracer,
    /// This process's scratch directory (also its working directory).
    pub scratch: &'a Path,
}

impl Run<'_> {
    /// Whether repetition `rep` records spans.
    pub fn traced_rep(&self, rep: usize) -> bool {
        self.trace && rep % 2 == 1
    }
}

/// Runs a workload by name.
pub fn run(name: &str, run: &Run<'_>) -> Result<Outcome, String> {
    match name {
        "suite_pass" => suite_pass::run(run),
        "fleet_pass" => fleet_pass::run(run),
        "hot_shared" => hot::run(run, hot::Sharing::Shared),
        "hot_private" => hot::run(run, hot::Sharing::Private),
        "analyze_cold" => analyze::run(run, analyze::Mode::Cold),
        "analyze_edit" => analyze::run(run, analyze::Mode::Edit),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last state with the
/// median seconds: everything before the first timed region, warm-up
/// included.
pub(crate) fn timed_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let start = Instant::now();
        state = Some(setup()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    Ok((state.expect("SETUP_REPEATS is positive"), median(&seconds)))
}

/// Calls `rep(index)` until the budget is used up: at least [`MIN_REPS`]
/// times, and once more only while at least half of an average repetition
/// still fits. Returns how many ran.
pub(crate) fn repeat_for(
    budget: Duration,
    mut rep: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut done = 0;
    loop {
        rep(done)?;
        done += 1;
        let elapsed = start.elapsed();
        if done >= MIN_REPS && elapsed + elapsed / (2 * done as u32) >= budget {
            return Ok(done);
        }
    }
}

/// The metrics every workload derives the same way from its samples.
pub(crate) struct Summary<'a> {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Fixed work of one instrumented pass, in the workload's op.
    pub ops: f64,
    /// Instrumented-pass wall per repetition, seconds.
    pub walls_s: &'a [f64],
    /// Instrumented wall ÷ reference wall, per repetition.
    pub slowdowns: &'a [f64],
    /// Per-op latency samples, microseconds.
    pub op_us: &'a [f64],
    /// Whole-repetition walls (all passes) of untraced and traced
    /// repetitions, for the tracing overhead.
    pub rep_walls_s: &'a [f64],
}

impl Summary<'_> {
    /// Writes the end-to-end metrics, or in a traced run the `bench.*`
    /// per-layer metrics this package owns.
    pub(crate) fn report(&self, run: &Run<'_>, out: &mut Outcome) {
        let tail = tail(self.op_us);
        out.info.push(("reps", self.walls_s.len() as f64));
        out.info.push(("op_samples", tail.samples as f64));
        out.info.push(("op_tail_percentile", tail.percentile));
        out.info.push(("op_tail_us", tail.value));
        if run.trace {
            let walls = |traced: bool| -> Vec<f64> {
                let of_kind = |(rep, _): &(usize, &f64)| run.traced_rep(*rep) == traced;
                let reps = self.rep_walls_s.iter().enumerate().filter(of_kind);
                reps.map(|(_, wall)| *wall).collect()
            };
            out.metric(
                "bench.trace_overhead_x",
                median(&walls(true)) / median(&walls(false)),
            );
            out.metric("bench.op_tail_us", tail.value);
            out.metric("bench.op_tail_percentile", tail.percentile);
            out.metric("bench.op_samples", tail.samples as f64);
        } else {
            out.metric("setup_s", self.setup_s);
            out.metric("ops_per_s", self.ops / median(self.walls_s));
            out.metric("slowdown_x", median(self.slowdowns));
            out.metric("op_p50_us", median(self.op_us));
            out.metric("peak_rss_mb", crate::env::peak_rss_mib());
        }
    }
}
