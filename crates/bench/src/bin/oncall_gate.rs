//! CI regression gate for the `OnCall` scaling benchmarks.
//!
//! `oncall_gate --write BENCH_oncall.json` measures every (shape, detector,
//! threads) point with the same worker loop the Criterion bench uses and
//! persists the results; `--check BENCH_oncall.json [--quick]` re-measures
//! and fails (exit 1) if any point regressed by more than 15% — or if one
//! of the absolute invariants below no longer holds.
//!
//! Raw nanoseconds-per-access are machine-dependent, so the stored numbers
//! that gate CI are *normalized*: each point is divided by the same run's
//! `noop @ 1 thread` time for the same shape. That ratio is "detector cost
//! in units of bare-instrumentation cost" and transfers across machines —
//! as long as the threads really ran at once. Eight threads time-sharing one
//! core never contend; on eight cores they do, and the same code reads
//! several times slower. Every file therefore records the `nproc` it was
//! measured on, and `--check` compares only the rows both machines could
//! run in parallel (`threads ≤ min(nproc)` of the two files), naming the
//! rows it skipped.
//!
//! One absolute invariant is enforced on every run (write and check): on
//! the high-cardinality shape, where two threads' objects are almost all
//! their own, a second thread must not cost `tsvd` more than it brings —
//! per-access time (wall ÷ all threads' accesses) at 2 threads ≤ 1.25 × the
//! 1-thread time. A hot path whose threads pass cache lines back and forth
//! fails it; one that scales reads below 1. It needs two cores to mean
//! anything and is skipped, by name, on one. (`tsvd_batched ≤ tsvd × 1.10`
//! on `highcard_ro` was an invariant until the inline path stopped passing
//! lines between threads: the sweeps now read within 0.87–1.17× of each
//! other run to run, so the comparison decides nothing and has failed a
//! baseline write — EXPERIMENTS.md "PR 14". The `tsvd_batched` rows are
//! still measured and regression-checked.)

use std::path::Path;
use std::process::ExitCode;

use serde::{Deserialize, Serialize};
use tsvd_bench::{make_sites, measure_per_access_ns, tsvd_batched, Factory, SHAPES};
use tsvd_core::Runtime;

/// Detector table the gate persists. Smaller than the Criterion bench's:
/// the gate exists to catch hot-path regressions, not to profile every
/// strategy variant.
const DETECTORS: &[(&str, Factory)] = &[
    ("noop", Runtime::noop),
    ("tsvd", Runtime::tsvd),
    ("tsvd_batched", tsvd_batched),
];

const THREADS: &[usize] = &[1, 2, 4, 8];

/// Allowed growth of a normalized ratio before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 1.15;

/// Most a second thread may cost inline `tsvd` on `highcard`: per-access
/// time at 2 threads ÷ at 1 thread.
const MAX_SECOND_THREAD_COST: f64 = 1.25;

#[derive(Debug, Serialize, Deserialize)]
struct Entry {
    shape: String,
    detector: String,
    threads: u32,
    per_access_ns: f64,
    /// `per_access_ns` ÷ the same run's `noop @ 1 thread` for this shape.
    normalized: f64,
}

/// Gate unit: the geometric mean of one detector's normalized ratios
/// across the thread counts of one shape (all of them here; `--check`
/// re-derives it over the rows comparable between the two machines).
/// Single (shape, detector, threads) points on a loaded CI runner are too
/// noisy to gate at 15%; averaging the thread counts is not, while still
/// catching any real hot-path regression (which moves every thread count
/// together).
#[derive(Debug, Serialize, Deserialize)]
struct Aggregate {
    shape: String,
    detector: String,
    normalized_geomean: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct BenchFile {
    schema_version: u32,
    mode: String,
    /// Cores the measuring machine offered. Rows with more threads than
    /// this time-shared cores instead of contending for cache lines, so
    /// they compare only against rows measured the same way. Absent in
    /// files written before it was recorded: only 1-thread rows compare.
    #[serde(default)]
    nproc: u32,
    /// Per-point measurements (informational; not gated individually).
    entries: Vec<Entry>,
    /// The gated aggregates.
    aggregates: Vec<Aggregate>,
}

struct Params {
    iters: u64,
    reps: usize,
}

fn measure_all(params: &Params, mode: &str) -> BenchFile {
    let mut entries = Vec::new();
    for shape in SHAPES {
        let sites = make_sites(shape.n_sites);
        let noop_t1 =
            measure_per_access_ns(Runtime::noop, 1, params.iters, shape, &sites, params.reps);
        for &(name, factory) in DETECTORS {
            for &threads in THREADS {
                let per_access_ns = if name == "noop" && threads == 1 {
                    noop_t1
                } else {
                    measure_per_access_ns(
                        factory,
                        threads,
                        params.iters,
                        shape,
                        &sites,
                        params.reps,
                    )
                };
                eprintln!(
                    "  {:<12} {:<13} {} thr: {:>8.1} ns/access ({:.2}x noop@1)",
                    shape.name,
                    name,
                    threads,
                    per_access_ns,
                    per_access_ns / noop_t1
                );
                entries.push(Entry {
                    shape: shape.name.to_string(),
                    detector: name.to_string(),
                    threads: threads as u32,
                    per_access_ns,
                    normalized: per_access_ns / noop_t1,
                });
            }
        }
    }
    let aggregates = aggregate(&entries);
    BenchFile {
        schema_version: 1,
        mode: mode.to_string(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u32),
        entries,
        aggregates,
    }
}

/// Geometric mean of one detector's normalized ratios on one shape, over
/// the rows with at most `max_threads` threads.
fn geomean(entries: &[Entry], shape: &str, detector: &str, max_threads: u32) -> Option<f64> {
    let logs: Vec<f64> = entries
        .iter()
        .filter(|e| e.shape == shape && e.detector == detector && e.threads <= max_threads)
        .map(|e| e.normalized.ln())
        .collect();
    (!logs.is_empty()).then(|| (logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

fn aggregate(entries: &[Entry]) -> Vec<Aggregate> {
    let mut out: Vec<Aggregate> = Vec::new();
    for shape in SHAPES {
        for &(name, _) in DETECTORS {
            if let Some(normalized_geomean) = geomean(entries, shape.name, name, u32::MAX) {
                out.push(Aggregate {
                    shape: shape.name.to_string(),
                    detector: name.to_string(),
                    normalized_geomean,
                });
            }
        }
    }
    out
}

fn lookup(entries: &[Entry], shape: &str, detector: &str, threads: u32) -> Option<f64> {
    entries
        .iter()
        .find(|e| e.shape == shape && e.detector == detector && e.threads == threads)
        .map(|e| e.per_access_ns)
}

/// The machine-independent invariant that must hold on every run: a ratio
/// of two cells of one detector on one shape, each the fastest of the
/// run's repetitions.
fn check_invariants(current: &BenchFile) -> Result<(), String> {
    if current.nproc < 2 {
        eprintln!("invariant: second-thread cost of tsvd on highcard SKIPPED (nproc < 2)");
        return Ok(());
    }
    let cell = |threads| lookup(&current.entries, "highcard", "tsvd", threads).unwrap_or(f64::NAN);
    let cost = cell(2) / cell(1);
    // NaN (missing/zero cells) must fail the gate, so test for the
    // passing condition and invert rather than comparing directly.
    if !(cost.is_finite() && cost <= MAX_SECOND_THREAD_COST) {
        return Err(format!(
            "a second thread costs tsvd on highcard {cost:.2}x its 1-thread per-access time \
             ({:.1} -> {:.1} ns), allowed {MAX_SECOND_THREAD_COST:.2}x",
            cell(1),
            cell(2)
        ));
    }
    eprintln!(
        "invariant: second-thread cost of tsvd on highcard {cost:.2}x <= \
         {MAX_SECOND_THREAD_COST:.2}x ({:.1} -> {:.1} ns/access)",
        cell(1),
        cell(2)
    );
    Ok(())
}

/// Aggregate normalized-ratio comparison against the stored baseline, over
/// the rows both machines ran in parallel.
fn check_against(stored: &BenchFile, current: &BenchFile) -> Result<(), String> {
    let comparable = stored.nproc.min(current.nproc).max(1);
    let skipped: Vec<String> = THREADS
        .iter()
        .filter(|&&t| t as u32 > comparable)
        .map(|t| t.to_string())
        .collect();
    if !skipped.is_empty() {
        let written_on = match stored.nproc {
            0 => "an unrecorded number of".to_string(),
            n => n.to_string(),
        };
        eprintln!(
            "baseline: written on {written_on} core(s), this machine has {}: comparing rows \
             with threads <= {comparable}, skipping the {}-thread rows",
            current.nproc,
            skipped.join("/")
        );
    }
    let mut failures = Vec::new();
    for base in &stored.aggregates {
        let side =
            |file: &BenchFile| geomean(&file.entries, &base.shape, &base.detector, comparable);
        let (Some(was), Some(now)) = (side(stored), side(current)) else {
            failures.push(format!(
                "{}/{} missing from current run",
                base.shape, base.detector
            ));
            continue;
        };
        // Regressions only: getting faster than the baseline is fine.
        if now > was * REGRESSION_TOLERANCE {
            failures.push(format!(
                "{}/{} regressed: {now:.2}x noop@1 across threads <= {comparable} \
                 (baseline {was:.2}x, tolerance {:.0}%)",
                base.shape,
                base.detector,
                (REGRESSION_TOLERANCE - 1.0) * 100.0
            ));
        }
    }
    if failures.is_empty() {
        eprintln!(
            "baseline: {} aggregates within {:.0}% of stored normalized ratios",
            stored.aggregates.len(),
            (REGRESSION_TOLERANCE - 1.0) * 100.0
        );
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: oncall_gate (--write PATH | --check PATH) [--quick]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut write_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--write" => write_path = args.next(),
            "--check" => check_path = args.next(),
            "--quick" => quick = true,
            _ => return usage(),
        }
    }
    let (params, mode) = if quick {
        (
            Params {
                iters: 120_000,
                reps: 5,
            },
            "quick",
        )
    } else {
        (
            Params {
                iters: 400_000,
                reps: 5,
            },
            "full",
        )
    };

    match (write_path, check_path) {
        (Some(path), None) => {
            eprintln!("measuring ({mode} mode) ...");
            let current = measure_all(&params, mode);
            if let Err(e) = check_invariants(&current) {
                eprintln!("REFUSING to write a failing baseline:\n{e}");
                return ExitCode::FAILURE;
            }
            let json = serde_json::to_string_pretty(&current).expect("bench file serializes");
            if let Err(e) = tsvd_core::save_atomic(Path::new(&path), json + "\n") {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
            ExitCode::SUCCESS
        }
        (None, Some(path)) => {
            let stored: BenchFile = match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
            {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("failed to load baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("measuring ({mode} mode) ...");
            let current = measure_all(&params, mode);
            let mut failed = false;
            if let Err(e) = check_invariants(&current) {
                eprintln!("INVARIANT FAILURE:\n{e}");
                failed = true;
            }
            if let Err(e) = check_against(&stored, &current) {
                eprintln!("REGRESSION vs {path}:\n{e}");
                failed = true;
            }
            if failed {
                ExitCode::FAILURE
            } else {
                eprintln!("oncall gate: OK");
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}
