//! CI regression gate for the `OnCall` scaling benchmarks.
//!
//! `oncall_gate --write BENCH_oncall.json` measures every (shape, detector,
//! threads) row this machine has the cores for with the same worker loop
//! the Criterion bench uses and persists the results; `--check
//! BENCH_oncall.json [--quick]` re-measures and fails (exit 1) if a row
//! regressed by more than 15 % — or if the absolute invariant below no
//! longer holds. The command line, the baseline file handling and the
//! comparison are `tsvd_bench::gate`'s.
//!
//! Raw nanoseconds-per-access are machine-dependent, so the stored numbers
//! that gate CI are *normalized*: a measurement is [`ROUNDS`] interleaved
//! rounds, every row once per round, and a `tsvd` row's stored value is the
//! median of its per-round ratios to that round's `noop` row of the same
//! shape *and thread count*. That ratio is "detector cost in units of
//! bare-instrumentation cost". The unit has the row's thread count because
//! on a shared host a one-thread row and a two-thread row do not drift
//! together: after a build this box runs one thread 25 % slower for minutes
//! and two threads as before, and `noop @ 2` ÷ `noop @ 1` reads 0.95 in one
//! run and 1.2 in the next with no code change (EXPERIMENTS.md "PR 19"), so
//! the `noop` rows are recorded in ns and gate nothing. The ratio transfers
//! across machines as long as the threads really ran at once, so every file
//! records the `nproc` it was measured on and `--check` compares only the
//! rows both machines could run in parallel (`threads ≤ min(nproc)` of the
//! two files), naming the rows it skipped.
//!
//! One absolute invariant is enforced on every run (write and check): on
//! the high-cardinality shape, where two threads' objects are almost all
//! their own, a second thread must not cost `tsvd` more than it brings —
//! per-access time (wall ÷ all threads' accesses) at 2 threads ≤ 1.25 × the
//! 1-thread time of the same round, in the median round. A hot path whose
//! threads pass cache lines back and forth fails it; one that scales reads
//! below 1. It needs two cores to mean anything and is skipped, by name, on
//! one.

use std::process::ExitCode;

use serde::{Deserialize, Serialize};
use tsvd_bench::gate::{self, median, Baseline, Row};
use tsvd_bench::{make_sites, measure_per_access_ns, Factory, SHAPES};
use tsvd_core::Runtime;

/// Detector table the gate persists. Smaller than the Criterion bench's:
/// the gate exists to catch hot-path regressions, not to profile every
/// strategy variant. `noop` comes first: its rows are the units.
const DETECTORS: &[(&str, Factory)] = &[("noop", Runtime::noop), ("tsvd", Runtime::tsvd)];

/// Thread counts. A machine measures the ones it has the cores for: threads
/// that time-share a core never contend.
const THREADS: &[usize] = &[1, 2, 4, 8];

/// Rounds per measurement. Odd, so every median is a measured round; this
/// many because a two-thread row reads ±10 % round to round and drifts over
/// tens of seconds, and what averages that out is wall time (about 35 s in
/// quick mode on two cores).
const ROUNDS: usize = 41;

/// Most a second thread may cost `tsvd` on `highcard`: per-access time at 2
/// threads ÷ at 1 thread.
const MAX_SECOND_THREAD_COST: f64 = 1.25;

#[derive(Debug, Serialize, Deserialize)]
struct Entry {
    shape: String,
    detector: String,
    threads: u32,
    /// Median over the rounds (informational; not gated).
    per_access_ns: f64,
    /// Median of the per-round ratios to `noop` at this thread count on this
    /// shape (so 1.0 on a `noop` row).
    normalized: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct BenchFile {
    schema_version: u32,
    mode: String,
    /// Cores the measuring machine offered. Rows with more threads than
    /// this time-shared cores instead of contending for cache lines, so
    /// they compare only against rows measured the same way.
    nproc: u32,
    /// `tsvd` on `highcard`: median of the per-round 2-thread ÷ 1-thread
    /// per-access times, re-derived and re-gated on every run. `None` on
    /// one core.
    second_thread_cost: Option<f64>,
    entries: Vec<Entry>,
}

impl Baseline for BenchFile {
    const NAME: &'static str = "oncall";
    /// 2: per-row medians of per-round ratios to `noop` at the row's thread
    /// count (1 stored two-row geomeans of fastest-of-five cells ÷ `noop @ 1`).
    const SCHEMA_VERSION: u32 = 2;

    fn measure(quick: bool) -> BenchFile {
        let iters = if quick { 400_000 } else { 1_000_000 };
        let nproc = gate::nproc();
        let thread_counts: Vec<usize> = THREADS
            .iter()
            .copied()
            .filter(|&t| t as u32 <= nproc)
            .collect();
        // A round's rows, in the order it measures them.
        let index =
            |shape, detector, t| (shape * DETECTORS.len() + detector) * thread_counts.len() + t;
        let site_tables: Vec<_> = SHAPES.iter().map(|s| make_sites(s.n_sites)).collect();
        // `rounds[r][row]`: per-access ns.
        let rounds: Vec<Vec<f64>> = (0..ROUNDS)
            .map(|_| {
                let mut row_ns = Vec::new();
                for (shape, sites) in SHAPES.iter().zip(&site_tables) {
                    for &(_, factory) in DETECTORS {
                        for &t in &thread_counts {
                            let ns = measure_per_access_ns(factory, t, iters, shape, sites);
                            row_ns.push(ns);
                        }
                    }
                }
                row_ns
            })
            .collect();

        let mut entries = Vec::new();
        for (s, shape) in SHAPES.iter().enumerate() {
            for (d, &(detector, _)) in DETECTORS.iter().enumerate() {
                for (t, &threads) in thread_counts.iter().enumerate() {
                    // `DETECTORS[0]` is `noop`.
                    let (row, unit) = (index(s, d, t), index(s, 0, t));
                    let entry = Entry {
                        shape: shape.name.to_string(),
                        detector: detector.to_string(),
                        threads: threads as u32,
                        per_access_ns: median(rounds.iter().map(|r| r[row])),
                        normalized: median(rounds.iter().map(|r| r[row] / r[unit])),
                    };
                    eprintln!(
                        "  {:<12} {:<5} {} thr: {:>8.1} ns/access ({:.2}x noop)",
                        entry.shape,
                        entry.detector,
                        entry.threads,
                        entry.per_access_ns,
                        entry.normalized
                    );
                    entries.push(entry);
                }
            }
        }
        let highcard = SHAPES.iter().position(|s| s.name == "highcard");
        let tsvd = DETECTORS.iter().position(|d| d.0 == "tsvd");
        let (highcard, tsvd) = (highcard.expect("shape"), tsvd.expect("detector"));
        let (t1, t2) = (index(highcard, tsvd, 0), index(highcard, tsvd, 1));
        let second_thread_cost = (thread_counts.get(..2) == Some(&[1, 2]))
            .then(|| median(rounds.iter().map(|r| r[t2] / r[t1])));
        BenchFile {
            schema_version: Self::SCHEMA_VERSION,
            mode: if quick { "quick" } else { "full" }.to_string(),
            nproc,
            second_thread_cost,
            entries,
        }
    }

    fn nproc(&self) -> u32 {
        self.nproc
    }

    fn check_invariants(&self) -> Result<String, String> {
        let Some(cost) = self.second_thread_cost else {
            return Ok("second-thread cost of tsvd on highcard SKIPPED (nproc < 2)".to_string());
        };
        // NaN must fail the gate, so test for the passing condition.
        if cost.is_finite() && cost <= MAX_SECOND_THREAD_COST {
            Ok(format!(
                "second-thread cost of tsvd on highcard {cost:.2}x <= {MAX_SECOND_THREAD_COST:.2}x"
            ))
        } else {
            Err(format!(
                "a second thread costs tsvd on highcard {cost:.2}x its 1-thread per-access \
                 time, allowed {MAX_SECOND_THREAD_COST:.2}x"
            ))
        }
    }

    fn rows(&self) -> Vec<Row> {
        let row = |e: &Entry| {
            let label = format!("{}/{} @ {}", e.shape, e.detector, e.threads);
            Row::ratio(label, e.normalized, e.threads)
        };
        let gated = |e: &&Entry| e.detector != "noop";
        self.entries.iter().filter(gated).map(row).collect()
    }
}

fn main() -> ExitCode {
    gate::run::<BenchFile>()
}
