//! CI regression gate for the static-analysis engine and its result cache.
//!
//! `analyze_gate --write BENCH_analyze.json` measures an uncached pass, a
//! cold pass (empty cache, store included), a warm pass (unchanged tree) and
//! an edit pass (one file changed since the cache was filled) over a
//! deterministic synthetic workspace and persists the results; `--check
//! BENCH_analyze.json [--quick]` re-measures and fails (exit 1) if a gated
//! ratio regressed by more than 15% — or if an absolute invariant no longer
//! holds. The command line, the baseline file handling and the comparison
//! are `tsvd_bench::gate`'s.
//!
//! Raw milliseconds are machine-dependent, so the stored numbers that gate
//! CI are *normalized*: each row's time is divided by the same run's
//! uncached single-threaded time — the one row the cache cannot move, so a
//! faster or slower cache shows in its own rows and nowhere else. Four
//! invariants are enforced on every run:
//! - a warm run must be at least [`MIN_WARM_SPEEDUP`]× faster than a cold
//!   run (the point of having a cache at all);
//! - a cold run must cost at most [`MAX_MISS_OVERHEAD`]× an uncached run
//!   (a miss may not cost more than the cache can ever give back);
//! - an edit run must cost at most [`MAX_EDIT_SHARE`] of an uncached run
//!   (an edit re-analyzes only what it can change);
//! - every measured configuration — uncached/cold/warm/edit, any thread
//!   count — must produce byte-identical JSONL output for its tree.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use tsvd_analyze::{analyze_workspace_with, AnalyzeOptions};
use tsvd_bench::gate::{self, median, Baseline, Row};

/// Minimum cold-time / warm-time ratio, single-threaded. The warm path
/// skips lexing, summary extraction, propagation, and pair derivation
/// entirely — it only hashes sources, reads the stored records and merges
/// them — so anything below this means the cache stopped short-circuiting
/// the pipeline. The quick tree reads 9-13x on the 2-vCPU box that wrote
/// the baseline, on both CPUs and under `taskset -c 0`: the warm pass takes
/// 3.4-5.2 ms, most of it parsing the stored records, against 36-60 ms for
/// a cold one.
const MIN_WARM_SPEEDUP: f64 = 5.0;

/// Maximum cost of a cold pass (empty cache), as a multiple of the
/// uncached pass over the same tree: what it adds is the hashing, one
/// failed load and one store.
const MAX_MISS_OVERHEAD: f64 = 1.15;

/// Maximum cost of an edit pass (one file changed since the cache was
/// filled), as a share of the uncached pass over the same tree. The edit
/// pass parses the fragments of the edited file and of the files defining
/// a name it or a suspect record needs (here only the edited file, whose
/// helpers no other file calls), re-analyzes only the files whose bytes
/// or looked-up summaries changed — one here — and serializes only that
/// file's record into the entry, splicing the rest from their stored
/// lines. On the 2-vCPU box that wrote the baseline it read 0.127-0.170
/// over 18 runs on both CPUs and 0.135-0.170 over 8 under
/// `taskset -c 0`; 0.22 leaves about a quarter of the highest reading as
/// margin. Re-serializing every record read 0.17-0.21, under the bound;
/// re-deriving fragments for the whole tree (0.60-0.69) or no longer
/// reusing analyses fails it. What a round serializes is pinned by
/// `tsvd-analyze`'s unit tests instead.
const MAX_EDIT_SHARE: f64 = 0.22;

/// Thread counts exercised for the cold run (warm runs are IO-bound and
/// gate only at 1 thread).
const COLD_THREADS: &[usize] = &[1, 4];

#[derive(Debug, Serialize, Deserialize)]
struct Entry {
    mode: String,
    threads: u32,
    millis: f64,
    /// `millis` ÷ the same run's `uncached @ 1 thread` time.
    normalized: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct BenchFile {
    schema_version: u32,
    mode: String,
    files: u32,
    /// Cores the measuring machine offered: `cold @ 4` cannot beat
    /// `cold @ 1` on fewer than two, whatever the engine does.
    #[serde(default)]
    nproc: u32,
    /// Cold single-threaded time ÷ warm single-threaded time, re-derived
    /// and re-gated on every run (must stay ≥ `MIN_WARM_SPEEDUP`).
    warm_speedup: f64,
    /// Per-point measurements. `uncached @ 1` is 1.0 by construction; the
    /// other normalized ratios are gated against the stored baseline.
    entries: Vec<Entry>,
}

/// Rounds per measurement. Odd, so every median is a measured round.
const ROUNDS: usize = 5;

/// Deterministic synthetic workspace: `files` source files, each with a
/// guarded helper, an unguarded spawn pair, and a join-ordered region, so
/// a full pass exercises the lexer, the interprocedural summary pass, HB
/// pruning, and pair derivation on every file. Each file additionally
/// carries a slab of analysis-inert code (guarded single-op helpers that
/// produce no pairs) so the cold/warm ratio reflects real source files,
/// where full lexing and summary extraction dwarf the content hash and the
/// compact cached report a warm run replays.
fn build_workspace(root: &Path, files: usize) {
    std::fs::create_dir_all(root).expect("mkdir workspace");
    for i in 0..files {
        let mut src = format!(
            "use tsvd_collections::Dictionary;\n\
             use tsvd_tasks::sync::TsvdMutex;\n\
             pub fn store_{i}(d: &Dictionary<u64, u64>, m: &TsvdMutex<u32>) {{\n\
                 let g = m.lock();\n\
                 d.set({i}, 1);\n\
             }}\n\
             fn fan_out_{i}(pool: &Pool) {{\n\
                 let board = Dictionary::new();\n\
                 let b1 = board.clone();\n\
                 let b2 = board.clone();\n\
                 pool.spawn(move || b1.set(1, {i}));\n\
                 pool.spawn(move || b2.get(&1));\n\
                 let ordered = board.clone();\n\
                 let worker = pool.spawn(move || ordered.set(2, 2));\n\
                 let _ = worker.join();\n\
                 board.set(3, {i});\n\
             }}\n"
        );
        for j in 0..80 {
            src.push_str(&format!(
                "/// Records sample {j} for unit {i}; the mutex keeps the slot\n\
                 /// private, so the analyzer summarizes and then discards it.\n\
                 pub fn sample_{i}_{j}(d: &Dictionary<u64, u64>, m: &TsvdMutex<u32>) {{\n\
                     let guard = m.lock();\n\
                     let bucket = ({j}u64).wrapping_mul(31).wrapping_add({i});\n\
                     let weight = bucket ^ (bucket >> 7) ^ 0x9e37;\n\
                     let label = \"unit {i} sample {j} checkpoint\";\n\
                     let _ = label.len() + weight as usize;\n\
                     d.set(bucket, weight);\n\
                 }}\n"
            ));
        }
        std::fs::write(root.join(format!("unit_{i:03}.rs")), src).expect("write source");
    }
}

/// Wall time of one pass in one configuration, in milliseconds, plus its
/// JSONL output.
fn run_once(root: &Path, cache: Option<&Path>, threads: usize) -> (f64, String) {
    let opts = AnalyzeOptions {
        threads,
        cache_dir: cache.map(|c| c.to_path_buf()),
    };
    let start = Instant::now();
    let report = analyze_workspace_with(root, &opts).expect("analyze");
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    (elapsed, report.to_jsonl())
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsvd_analyze_gate_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Appends one analysis-inert function to the workspace's first file: an
/// edit that misses the full hit but moves no other file's inputs.
fn apply_edit(root: &Path, rep: usize) {
    let path = root.join("unit_000.rs");
    let mut src = std::fs::read_to_string(&path).expect("read source");
    src.push_str(&format!("pub fn edit_{rep}() -> u64 {{ {rep} }}\n"));
    std::fs::write(&path, src).expect("write source");
}

/// One round's wall times in milliseconds: every row once, back to back.
struct Round {
    /// One per [`COLD_THREADS`] entry.
    cold: Vec<f64>,
    warm: f64,
    edit: f64,
    uncached: f64,
}

/// Measures [`ROUNDS`] rounds and reports, per row, the median time and the
/// median of the per-round ratios to that round's uncached pass.
fn measure_all(files: usize, mode: &str) -> BenchFile {
    let root = fresh_dir("ws");
    build_workspace(&root, files);
    let cache = fresh_dir("cache");

    // Untimed warm-up, and the first round's reference output.
    let (_, mut reference) = run_once(&root, None, 1);
    let mut rounds = Vec::new();
    for rep in 0..ROUNDS {
        // Cold: an empty cache, so the pass pays the full pipeline plus the
        // store.
        let cold = COLD_THREADS
            .iter()
            .map(|&threads| {
                std::fs::remove_dir_all(&cache).ok();
                let (millis, out) = run_once(&root, Some(&cache), threads);
                assert_eq!(out, reference, "cold @ {threads} output differs");
                millis
            })
            .collect();
        // Warm: the unchanged tree the last cold pass just stored.
        let (warm, out) = run_once(&root, Some(&cache), 1);
        assert_eq!(out, reference, "warm @ 1 output differs");
        // Edit: one file changed since the cache was filled, so the pass
        // misses, re-analyzes that file and replaces the entry.
        apply_edit(&root, rep);
        let (edit, edited) = run_once(&root, Some(&cache), 1);
        // Uncached, on the edited tree: the unit, and the reference for the
        // edit above and for the next round.
        let (uncached, out) = run_once(&root, None, 1);
        assert_eq!(edited, out, "edit @ 1 output differs");
        reference = out;
        rounds.push(Round {
            cold,
            warm,
            edit,
            uncached,
        });
    }
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&cache).ok();

    let row = |mode: &str, threads: usize, pick: &dyn Fn(&Round) -> f64| {
        let entry = Entry {
            mode: mode.to_string(),
            threads: threads as u32,
            millis: median(rounds.iter().map(pick)),
            normalized: median(rounds.iter().map(|r| pick(r) / r.uncached)),
        };
        eprintln!(
            "  {:<9} {} thr: {:>8.2} ms ({:.3}x uncached@1)",
            entry.mode, entry.threads, entry.millis, entry.normalized
        );
        entry
    };
    let mut entries = vec![row("uncached", 1, &|r| r.uncached)];
    for (i, &threads) in COLD_THREADS.iter().enumerate() {
        entries.push(row("cold", threads, &|r| r.cold[i]));
    }
    entries.push(row("warm", 1, &|r| r.warm));
    entries.push(row("edit", 1, &|r| r.edit));
    BenchFile {
        schema_version: BenchFile::SCHEMA_VERSION,
        mode: mode.to_string(),
        files: files as u32,
        nproc: gate::nproc(),
        // `COLD_THREADS[0]` is the single-threaded cold pass.
        warm_speedup: median(rounds.iter().map(|r| r.cold[0] / r.warm)),
        entries,
    }
}

impl Baseline for BenchFile {
    const NAME: &'static str = "analyze";
    /// 2: normalized by `uncached @ 1`, not `cold @ 1`.
    const SCHEMA_VERSION: u32 = 2;

    fn measure(quick: bool) -> BenchFile {
        if quick {
            measure_all(48, "quick")
        } else {
            measure_all(120, "full")
        }
    }

    fn nproc(&self) -> u32 {
        self.nproc
    }

    fn check_invariants(&self) -> Result<String, String> {
        let mut failures = Vec::new();
        let s = self.warm_speedup;
        if !(s.is_finite() && s >= MIN_WARM_SPEEDUP) {
            failures.push(format!(
                "warm analysis is only {s:.1}x faster than cold, need >= \
                 {MIN_WARM_SPEEDUP:.0}x: the cache is no longer short-circuiting \
                 the pipeline"
            ));
        }
        let normalized = |mode: &str| {
            self.entries
                .iter()
                .find(|e| e.mode == mode && e.threads == 1)
                .map_or(f64::NAN, |e| e.normalized)
        };
        let cold = normalized("cold");
        if !(cold.is_finite() && cold <= MAX_MISS_OVERHEAD) {
            failures.push(format!(
                "a cold pass costs {cold:.3}x an uncached pass, allowed \
                 {MAX_MISS_OVERHEAD:.2}x: missing the cache costs more than \
                 not having one"
            ));
        }
        let edit = normalized("edit");
        if !(edit.is_finite() && edit <= MAX_EDIT_SHARE) {
            failures.push(format!(
                "an edit pass costs {edit:.3}x an uncached pass, allowed \
                 {MAX_EDIT_SHARE:.2}x: an edit no longer reuses the analyses \
                 it cannot change"
            ));
        }
        if failures.is_empty() {
            Ok(format!(
                "warm run {s:.1}x faster than cold (need {MIN_WARM_SPEEDUP:.0}x); \
                 cold {cold:.3}x of uncached (allowed {MAX_MISS_OVERHEAD:.2}x); \
                 edit {edit:.3}x (allowed {MAX_EDIT_SHARE:.2}x)"
            ))
        } else {
            Err(failures.join("\n"))
        }
    }

    /// Every entry, `uncached @ 1` — the unit, 1.0 on both sides — included.
    /// `cold @ 4` reads below 1.0 by however many of its four threads the
    /// machine ran at once (0.70 on two cores, 1.0-1.1 on one, or on two
    /// when the scheduler keeps the workers on one of them for a while), so
    /// it compares only between machines that both have four cores.
    fn rows(&self) -> Vec<Row> {
        let row = |e: &Entry| {
            let label = format!("{} @ {}", e.mode, e.threads);
            Row::ratio(label, e.normalized, e.threads)
        };
        self.entries.iter().map(row).collect()
    }
}

fn main() -> ExitCode {
    gate::run::<BenchFile>()
}
