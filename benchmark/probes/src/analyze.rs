//! Analyzer layers: the passes of one whole-tree analysis, timed one by one
//! in pipeline order on the workload's tree, then the whole under the four
//! option sets that isolate the cache and the threads.
//!
//! `fragments` and `per_file` each tokenize their file again — as the
//! engine does — so `lex_ms` is contained in both and is not added to them.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use tsvd_analyze::analysis::analyze_file_with;
use tsvd_analyze::cache::content_hash;
use tsvd_analyze::callgraph::Summaries;
use tsvd_analyze::lexer::tokenize;
use tsvd_analyze::walk::{rust_files, to_forward_slashes};
use tsvd_benchmark::env::sibling_binary;
use tsvd_benchmark::outcome::Outcome;
use tsvd_benchmark::tree::{self, TreeSpec};
use tsvd_benchmark::workloads::analyze::{analyze, spec};

use crate::Ctx;

/// The tree the analyzer is probed on when the traced workload is not an
/// analyzer workload.
const SMALL_TREE: TreeSpec = TreeSpec {
    crates: 2,
    files_per_crate: 8,
    slabs_per_file: 40,
};

fn millis(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs the section.
pub fn probe(ctx: &Ctx<'_>, out: &mut Outcome) -> Result<(), String> {
    let section = ctx.tracer.span(true, "bench.probes.analyze", 0);
    let focus = ctx.focus(&["analyze_cold", "analyze_edit"]);
    let spec = if focus { spec(ctx.smoke) } else { SMALL_TREE };
    let root = ctx.scratch.join("probe-tree");
    let cache = ctx.scratch.join("probe-cache");
    let planted = tree::generate(&root, &spec, ctx.seed).map_err(|e| e.to_string())?;
    let threads = ctx.threads;
    let span = |name: &'static str| ctx.tracer.span(true, name, section.id());

    // --- the pipeline, pass by pass, one thread ------------------------------------------------
    let start = Instant::now();
    let files = {
        let _span = span("analyze.walk.rust_files");
        rust_files(&root).map_err(|e| e.to_string())?
    };
    let walk_ms = millis(start);
    let rels: Vec<String> = files.iter().map(|f| to_forward_slashes(f)).collect();

    let start = Instant::now();
    let sources: Vec<String> = {
        let _span = span("analyze.cache.content_hash");
        rels.iter()
            .map(|rel| {
                let src = std::fs::read_to_string(root.join(rel)).map_err(|e| e.to_string())?;
                std::hint::black_box(content_hash(&src));
                Ok(src)
            })
            .collect::<Result<_, String>>()?
    };
    let read_hash_ms = millis(start);

    let start = Instant::now();
    {
        let _span = span("analyze.lexer.tokenize");
        for src in &sources {
            std::hint::black_box(tokenize(src).len());
        }
    }
    let lex_ms = millis(start);

    let start = Instant::now();
    let fragments: Vec<_> = {
        let _span = span("analyze.callgraph.file_fragments");
        rels.iter()
            .zip(&sources)
            .flat_map(|(rel, src)| Summaries::file_fragments(rel, src))
            .collect()
    };
    let fragments_ms = millis(start);

    let start = Instant::now();
    let summaries = {
        let _span = span("analyze.callgraph.from_fragments");
        Summaries::from_fragments(fragments)
    };
    let propagate_ms = millis(start);

    let start = Instant::now();
    let mut sites = 0;
    {
        let _span = span("analyze.analysis.analyze_file_with");
        for (rel, src) in rels.iter().zip(&sources) {
            sites += analyze_file_with(rel, src, &summaries).sites.len();
        }
    }
    let per_file_ms = millis(start);

    // --- the whole, under the option sets ------------------------------------------------------
    let whole = |threads: usize, cache: Option<&Path>| {
        let _span = span("analyze.analyze_workspace_with");
        analyze(&root, threads, cache)
    };
    let (report, uncached_1_s) = whole(1, None)?;
    let (_, uncached_t_s) = whole(threads, None)?;
    let (cold, cold_s) = whole(threads, Some(&cache))?;
    let (warm, warm_s) = whole(threads, Some(&cache))?;
    tree::apply_edit(&root, &spec, ctx.seed, 0).map_err(|e| e.to_string())?;
    let (_, edit_s) = whole(threads, Some(&cache))?;
    let (edited, edited_uncached_s) = whole(threads, None)?;

    let start = Instant::now();
    let jsonl = {
        let _span = span("analyze.report.to_jsonl");
        report.to_jsonl()
    };
    let to_jsonl_ms = millis(start);

    out.metric("analyze.walk_ms", walk_ms);
    out.metric("analyze.read_hash_ms", read_hash_ms);
    out.metric("analyze.lex_ms", lex_ms);
    out.metric("analyze.fragments_ms", fragments_ms);
    out.metric("analyze.propagate_ms", propagate_ms);
    out.metric("analyze.per_file_ms", per_file_ms);
    out.metric(
        "analyze.merge_residual_ms",
        uncached_1_s * 1e3 - (walk_ms + read_hash_ms + fragments_ms + propagate_ms + per_file_ms),
    );
    out.metric("analyze.to_jsonl_ms", to_jsonl_ms);
    out.metric("analyze.cache.store_ms", (cold_s - uncached_t_s) * 1e3);
    out.metric("analyze.cache.warm_ms", warm_s * 1e3);
    out.metric(
        "analyze.cache.edit_reuse_ratio",
        1.0 - edit_s / edited_uncached_s,
    );
    out.metric("analyze.thread_speedup_x", uncached_1_s / uncached_t_s);
    out.metric("analyze.files", f64::from(report.files_scanned));
    out.metric("analyze.bytes", planted.bytes as f64);
    out.metric("analyze.sites", report.sites.len() as f64);
    out.metric("analyze.pairs", report.pairs.len() as f64);
    out.metric("analyze.pruned_pairs", report.pruned_pairs.len() as f64);
    out.attempted += 6 * planted.files as u64;
    out.failed += u64::from(report.files_skipped + edited.files_skipped);
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
        "probe tree: counts equal what the generator planted, pass by pass too",
        got == want && sites == planted.sites,
        format!("analyzer {got:?}, planted {want:?}, {sites} sites pass by pass"),
    );
    out.check(
        "probe tree: JSONL identical uncached / cold / warm",
        jsonl == cold.to_jsonl() && jsonl == warm.to_jsonl(),
        format!("{} bytes", jsonl.len()),
    );

    // --- the CLI, as a process -------------------------------------------------------------------
    let repro = sibling_binary("repro")?;
    let cli_jsonl = ctx.scratch.join("probe-cli.jsonl");
    let start = Instant::now();
    let status = {
        let _span = span("harness.repro.analyze");
        Command::new(&repro)
            .arg("analyze")
            .arg("--root")
            .arg(&root)
            .arg("--jsonl")
            .arg(&cli_jsonl)
            .args(["--no-cache", "--threads", &threads.to_string()])
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("{}: {e}", repro.display()))?
    };
    out.metric("harness.repro_analyze_cli_ms", millis(start));
    let cli_output = std::fs::read_to_string(&cli_jsonl).unwrap_or_default();
    out.check(
        "repro analyze: exit 0 and the library's JSONL",
        status.success() && cli_output == edited.to_jsonl(),
        format!("{status}, {} bytes", cli_output.len()),
    );
    Ok(())
}
