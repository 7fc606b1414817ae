//! `analyze_cold` and `analyze_edit`: whole-tree static analysis of a
//! generated tree (see [`crate::tree`]), the way CI and an editing
//! developer run it.
//!
//! Cold: a pass into a fresh cache directory (lex → fragments → propagate →
//! per-file → merge, plus cache writes), against the same pass with no
//! cache. Edit: the cache is filled in set-up; each round appends one inert
//! function to a different 1 % of the files and re-analyses through the
//! cache, against an uncached pass over the same tree. A change to the
//! cache or its digests that helps one and hurts the other shows.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tsvd_analyze::{analyze_workspace_with, AnalysisReport, AnalyzeOptions};

use super::{repeat_for, timed_setup, Run, Summary};
use crate::outcome::Outcome;
use crate::tree::{self, Planted, TreeSpec};

/// Which analyzer workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Fresh cache directory every pass.
    Cold,
    /// Cache filled once, then edit rounds.
    Edit,
}

/// The tree both workloads analyze.
pub fn spec(smoke: bool) -> TreeSpec {
    if smoke {
        TreeSpec {
            crates: 4,
            files_per_crate: 6,
            slabs_per_file: 40,
        }
    } else {
        // Few long files rather than many short ones: the cache writes two
        // small files per source file, and on a disk whose metadata speed
        // swings severalfold from minute to minute (the build box's does)
        // that share of the wall has to stay small for the numbers to repeat.
        TreeSpec {
            crates: 8,
            files_per_crate: 12,
            slabs_per_file: 80,
        }
    }
}

/// One analysis of `root`: the report and the seconds it took.
pub fn analyze(
    root: &Path,
    threads: usize,
    cache_dir: Option<&Path>,
) -> Result<(AnalysisReport, f64), String> {
    let options = AnalyzeOptions {
        threads,
        cache_dir: cache_dir.map(Path::to_path_buf),
    };
    let start = Instant::now();
    let report = analyze_workspace_with(root, &options).map_err(|e| e.to_string())?;
    Ok((report, start.elapsed().as_secs_f64()))
}

struct State {
    root: PathBuf,
    cache: PathBuf,
    planted: Planted,
}

/// Checks a report against what the generator planted; returns the files
/// the analyzer skipped.
fn check_counts(out: &mut Outcome, report: &AnalysisReport, planted: &Planted) -> u64 {
    let got = (
        report.files_scanned as usize,
        report.sites.len(),
        report.pairs.len(),
        report.pruned_pairs.len(),
    );
    let want = (
        planted.files,
        planted.sites,
        planted.pairs,
        planted.pruned_pairs,
    );
    out.check(
        "files, sites, pairs and pruned pairs equal what the generator planted",
        got == want && report.escapes.is_empty(),
        format!(
            "analyzer {got:?}, planted {want:?}, {} escapes",
            report.escapes.len()
        ),
    );
    u64::from(report.files_skipped)
}

/// Runs the workload.
pub fn run(run: &Run<'_>, mode: Mode) -> Result<Outcome, String> {
    let spec = spec(run.smoke);
    let threads = run.threads;
    let (state, setup_s) = timed_setup(|| {
        let root = run.scratch.join("tree");
        let cache = run.scratch.join("cache");
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&cache);
        let planted = tree::generate(&root, &spec, run.seed).map_err(|e| e.to_string())?;
        match mode {
            // Warm-up: one uncached pass. A pass over a single crate would
            // do, but then set-up is mostly writing the tree, and its time
            // follows the disk's mood rather than the code.
            Mode::Cold => analyze(&root, threads, None)?,
            // The cache the edit rounds read is filled here.
            Mode::Edit => analyze(&root, threads, Some(&cache))?,
        };
        Ok(State {
            root,
            cache,
            planted,
        })
    })?;

    let mut out = Outcome::default();
    let files = spec.files() as u64;
    let (mut walls_s, mut slowdowns, mut rep_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut op_us = Vec::new();
    let mut warm_s = Vec::new();
    let mut mismatches = 0;
    let mut last_jsonl = String::new();
    let reps = repeat_for(run.budget, |rep| {
        let on = run.traced_rep(rep);
        let rep_span = run.tracer.span(on, "bench.analyze.rep", 0);
        let rep_start = Instant::now();
        match mode {
            Mode::Cold => {
                let _ = std::fs::remove_dir_all(&state.cache);
            }
            Mode::Edit => {
                tree::apply_edit(&state.root, &spec, run.seed, rep).map_err(|e| e.to_string())?;
            }
        }
        let timed = |cache: Option<&Path>| {
            let _span = run
                .tracer
                .span(on, "analyze.analyze_workspace_with", rep_span.id());
            analyze(&state.root, threads, cache)
        };
        // The cached pass must see the tree's state before the reference
        // does nothing to it, so order only alternates, never interleaves.
        let ((cached, cached_s), (uncached, uncached_s)) = if rep % 2 == 0 {
            let u = timed(None)?;
            (timed(Some(&state.cache))?, u)
        } else {
            let c = timed(Some(&state.cache))?;
            (c, timed(None)?)
        };
        // The unchanged tree straight after: every file hits.
        let (warm, warm_wall) = timed(Some(&state.cache))?;
        drop(rep_span);
        rep_s.push(rep_start.elapsed().as_secs_f64());
        warm_s.push(warm_wall);

        out.attempted += 3 * files;
        out.failed += u64::from(cached.files_skipped + uncached.files_skipped + warm.files_skipped);
        let jsonl = {
            let _span = run.tracer.span(on, "analyze.report.to_jsonl", 0);
            cached.to_jsonl()
        };
        mismatches += usize::from(jsonl != uncached.to_jsonl() || jsonl != warm.to_jsonl());
        last_jsonl = jsonl;
        walls_s.push(cached_s);
        slowdowns.push(cached_s / uncached_s);
        op_us.push(match mode {
            Mode::Cold => cached_s * 1e6 / files as f64,
            Mode::Edit => cached_s * 1e6,
        });
        Ok(())
    })?;

    // One more reference, single-threaded and uncached: thread count must
    // not change a byte either.
    let (reference, _) = analyze(&state.root, 1, None)?;
    out.attempted += files;
    let skipped = check_counts(&mut out, &reference, &state.planted);
    out.failed += skipped;
    out.check(
        "JSONL byte-identical: uncached 1 thread / cached T threads / warm",
        mismatches == 0 && reference.to_jsonl() == last_jsonl,
        format!(
            "{mismatches} of {reps} repetitions differ; {} bytes",
            last_jsonl.len()
        ),
    );
    out.info
        .push(("warm_ms", crate::stats::median(&warm_s) * 1e3));
    Summary {
        setup_s,
        ops: files as f64,
        walls_s: &walls_s,
        slowdowns: &slowdowns,
        op_us: &op_us,
        rep_walls_s: &rep_s,
    }
    .report(run, &mut out);
    Ok(out)
}
