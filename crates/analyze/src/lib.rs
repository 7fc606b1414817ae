//! `tsvd-analyze`: static instrumentation auditor and dangerous-pair
//! pre-filter for the TSVD dynamic detector.
//!
//! The paper's pipeline starts with a static pass: a binary rewriter walks
//! every call site, identifies calls into thread-unsafe APIs, and rewrites
//! them to route through `OnCall` (§3.1). This crate is that front end for
//! the Rust reproduction, with three outputs:
//!
//! 1. **Instrumentation-coverage lint** ("escapes"): call sites that use
//!    raw `std::collections` / `tsvd_collections::raw` types from code with
//!    concurrency evidence. Such calls never reach [`Runtime::on_call`], so
//!    the dynamic detector is blind to them — exactly the coverage gap the
//!    paper's rewriter exists to close. Intentional raw usage is recorded
//!    in an allowlist file (see [`allowlist`]).
//! 2. **Static site database**: every instrumented-collection call site as
//!    `(file, line, column, receiver, method, read/write)`, classified by
//!    the *same* API table the wrappers consult at run time
//!    ([`tsvd_core::access::API_TABLE`]), with columns matching what
//!    `#[track_caller]` records so static and dynamic sites intern to the
//!    same [`tsvd_core::SiteId`]s. Receiver provenance survives helper
//!    calls through per-crate function summaries ([`callgraph`]).
//! 3. **Dangerous-pair candidates**: conflicting accesses to one shared
//!    receiver reachable from different tasks, graded with a confidence in
//!    `(0, 1]` (provenance hops, lockset evidence, task-region distance —
//!    see [`lockset`] and DESIGN.md) and emitted in trap-file format with
//!    [`tsvd_core::PairOrigin::Static`] so the runtime can arm traps
//!    before the *first* dynamic run — the static analogue of §3.4.6's
//!    cross-run trap persistence, removing the warm-up run entirely for
//!    pairs the analyzer predicts. Pairs whose both sides are consistently
//!    protected by the same exclusive guard are pruned before emission.
//!
//! [`Runtime::on_call`]: tsvd_core::Runtime::on_call

#![warn(missing_docs)]

pub mod allowlist;
pub mod analysis;
pub mod cache;
pub mod callgraph;
pub mod hb;
pub mod lexer;
pub mod lockset;
pub mod patch;
pub mod repair;
pub mod report;
pub mod scope;
pub mod score;
pub mod walk;

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub use allowlist::{AllowEntry, Allowlist};
pub use analysis::{analyze_file, analyze_file_with, instrumented_op_literals, FileAnalysis};
pub use cache::Cache;
pub use callgraph::Summaries;
pub use report::{AnalysisReport, Escape, StaticPair, StaticSite};

/// Knobs for the analysis engine. The output is byte-identical for every
/// combination: thread count only changes which worker computes a file,
/// the cache only changes whether the tree is analyzed at all, and results
/// always merge in input-file order.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    /// Worker threads for the two per-file stages (fragments, then the
    /// per-file analysis); `0` or `1` runs inline.
    pub threads: usize,
    /// Result cache directory; `None` disables caching entirely.
    pub cache_dir: Option<PathBuf>,
}

/// Analyzes every `.rs` file under `root` (skipping `target/`, `vendor/`,
/// and dot-directories). Paths in the report are `root`-relative with
/// forward slashes.
pub fn analyze_workspace(root: &Path) -> io::Result<AnalysisReport> {
    analyze_workspace_with(root, &AnalyzeOptions::default())
}

/// [`analyze_workspace`] with explicit engine options.
pub fn analyze_workspace_with(root: &Path, opts: &AnalyzeOptions) -> io::Result<AnalysisReport> {
    let files = walk::rust_files(root)?;
    let rels: Vec<String> = files.iter().map(|f| walk::to_forward_slashes(f)).collect();
    analyze_paths_with(root, &rels, opts)
}

/// Analyzes an explicit list of `root`-relative files. Unreadable or
/// non-UTF-8 files become per-file warnings (and count as skipped) rather
/// than failing the whole run — one unparseable path must not hide every
/// other finding.
pub fn analyze_paths(root: &Path, files: &[String]) -> io::Result<AnalysisReport> {
    analyze_paths_with(root, files, &AnalyzeOptions::default())
}

/// [`analyze_paths`] with explicit engine options: a result cache and a
/// file-level thread pool (see [`AnalyzeOptions`] and [`cache`]). The
/// report comes back as analyzed — [`AnalysisReport::apply_allowlist`] is
/// the caller's step, so the cached entry never bakes one allowlist in.
pub fn analyze_paths_with(
    root: &Path,
    files: &[String],
    opts: &AnalyzeOptions,
) -> io::Result<AnalysisReport> {
    let mut report = AnalysisReport::default();
    // Normalize and dedupe first: the same file reachable under two walk
    // roots (or spelled `./a.rs` vs `a.rs`, `a\b.rs` vs `a/b.rs`) must
    // analyze once, not emit duplicate pairs.
    let mut seen: HashSet<String> = HashSet::new();
    let mut sources: Vec<(String, String)> = Vec::new();
    for rel in files {
        let rel = walk::normalize_rel(rel);
        if !seen.insert(rel.clone()) {
            continue;
        }
        match std::fs::read_to_string(root.join(&rel)) {
            Ok(src) => sources.push((rel, src)),
            Err(err) => {
                report.files_skipped += 1;
                report.warnings.push(format!("{rel}: {err}"));
            }
        }
    }
    // The digest covers readable files only, so it cannot tell two runs
    // apart that differ in what they had to skip: a run with a skipped
    // file neither trusts the entry nor writes one.
    let cache = Cache::new(opts.cache_dir.clone().filter(|_| report.files_skipped == 0));
    let ws_digest = cache::workspace_digest(
        sources
            .iter()
            .map(|(rel, src)| (rel.as_str(), src.as_str())),
    );
    if let Some(hit) = cache.load(&ws_digest) {
        return Ok(hit);
    }
    // Whole-tree function summaries before any per-file pass, so helper
    // calls resolve across files of the same crate. Fragments feed in
    // input-file order — propagation's output ordering, and therefore every
    // downstream byte, depends only on that order.
    let fragments = fan_out(&sources, opts.threads, |(rel, src)| {
        Summaries::file_fragments(rel, src)
    });
    let summaries = Summaries::from_fragments(fragments.into_iter().flatten());
    // Merge in input-file order regardless of which worker finished first.
    let analyses = fan_out(&sources, opts.threads, |(rel, src)| {
        analysis::analyze_file_with(rel, src, &summaries)
    });
    for fa in analyses {
        report.files_scanned += 1;
        report.escapes.extend(fa.escapes);
        report.sites.extend(fa.sites);
        report.pairs.extend(fa.pairs);
        report.pruned_pairs.extend(fa.pruned_pairs);
        report.awaits.extend(fa.awaits);
    }
    dedupe_pairs(&mut report.pairs);
    dedupe_pairs(&mut report.pruned_pairs);
    drop_pruned_twins(&mut report.pruned_pairs, &report.pairs);
    cache.store(&ws_digest, &report);
    Ok(report)
}

/// `f` over every item on up to `threads` workers (`0` or `1` runs inline),
/// results in input order. Workers pull indices from a shared counter and
/// park results in per-item slots: scheduling order varies with thread
/// count; the slot vector (indexed by item, not completion order) erases it
/// again.
///
/// Workers are joined by handle, not left to the scope's own wait: that
/// wait ends when the closures have returned, a moment before the threads
/// have exited, and the allocator hands a thread's arena on only once the
/// thread is gone. Results outlive their worker in its arena, so a second
/// fan-out that started in that moment was given fresh arenas while the old
/// ones were still held — `peak_rss_mb` 33–36 MiB one run in eight, against
/// 29–30 (EXPERIMENTS.md "PR 23").
fn fan_out<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        *slots[i].lock().expect("fan-out slot poisoned") = Some(f(item));
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        for worker in spawned {
            worker.join().expect("fan-out worker panicked");
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("fan-out slot poisoned")
                .expect("every item visited")
        })
        .collect()
}

/// The orientation-independent identity of a pair: normalized site order.
fn pair_key(p: &StaticPair) -> (&str, &str) {
    if p.first <= p.second {
        (&p.first, &p.second)
    } else {
        (&p.second, &p.first)
    }
}

/// Collapses duplicate site pairs, keeping the highest confidence (the
/// strongest evidence wins when two paths found the pair) at the position
/// of the pair's first occurrence. Keys are orientation-normalized, so the
/// same pair pruned via two different guard roots — which can surface it in
/// either site order — collapses too.
fn dedupe_pairs(pairs: &mut Vec<StaticPair>) {
    // `best[k]` is the index in `pairs` of the record kept at output
    // position `k`; `position` finds `k` by pair identity.
    let mut best: Vec<usize> = Vec::new();
    let mut position: HashMap<(&str, &str), usize> = HashMap::new();
    for (i, p) in pairs.iter().enumerate() {
        match position.entry(pair_key(p)) {
            Entry::Occupied(at) => {
                let kept = &mut best[*at.get()];
                if p.confidence > pairs[*kept].confidence {
                    *kept = i;
                }
            }
            Entry::Vacant(at) => {
                at.insert(best.len());
                best.push(i);
            }
        }
    }
    let mut records: Vec<Option<StaticPair>> = pairs.drain(..).map(Some).collect();
    pairs.extend(best.into_iter().filter_map(|i| records[i].take()));
}

/// Drops pruned records whose pair also survives in the kept list: a pair
/// one file's evidence prunes but another path still arms must be reported
/// once, as kept — a pruned twin would double-count it in the scoreboard.
fn drop_pruned_twins(pruned: &mut Vec<StaticPair>, kept: &[StaticPair]) {
    let kept_keys: HashSet<(&str, &str)> = kept.iter().map(pair_key).collect();
    pruned.retain(|p| !kept_keys.contains(&pair_key(p)));
}

/// The tests' inputs: `tsvd_core`'s seeded generator, indexing in `usize`,
/// the character soup it draws, and the repository's own sources.
#[cfg(test)]
pub(crate) mod testrand {
    use std::path::{Path, PathBuf};

    pub(crate) struct Seeded(tsvd_core::rng::SplitMix64);

    impl Seeded {
        pub(crate) fn new(seed: u64) -> Self {
            Seeded(tsvd_core::rng::SplitMix64::new(seed))
        }

        /// An index below `n` (`n > 0`).
        pub(crate) fn below(&mut self, n: usize) -> usize {
            self.0.below(n as u64) as usize
        }
    }

    /// The pieces the lexer branches on, so every quote, hash, slash and
    /// backslash meets every neighbour and the end of input.
    pub(crate) const LEXER_SOUP: &[&str] = &[
        "\"", "'", "\\", "r", "b", "#", "/", "*", "\n", " ", "a", "_", "7", "é", "λ", "(", "//",
        "/*", "*/", "r#", "br", "'a", "x.y",
    ];

    /// `count` short strings, each up to 23 pieces drawn from `pieces`.
    pub(crate) fn soup(seed: u64, pieces: &[&str], count: usize) -> Vec<String> {
        let mut rng = Seeded::new(seed);
        (0..count)
            .map(|_| {
                (0..rng.below(24))
                    .map(|_| pieces[rng.below(pieces.len())])
                    .collect()
            })
            .collect()
    }

    /// Every `.rs` file under the repository's `crates/` and `tests/`
    /// (this crate's `tests/fixtures/` included), sorted.
    pub(crate) fn repo_sources() -> Vec<PathBuf> {
        fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
            let mut entries: Vec<_> = std::fs::read_dir(dir)
                .expect("read_dir")
                .map(|e| e.expect("dir entry").path())
                .collect();
            entries.sort();
            for path in entries {
                if path.is_dir() {
                    walk(&path, out);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    out.push(path);
                }
            }
        }
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        for dir in ["crates", "tests"] {
            walk(&root.join(dir), &mut files);
        }
        files
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Condvar;

    /// `dedupe_pairs` as it was: every pair compared with every kept pair.
    fn dedupe_pairs_by_scan(pairs: &mut Vec<StaticPair>) {
        let mut best: Vec<StaticPair> = Vec::new();
        for p in pairs.drain(..) {
            let key = pair_key(&p);
            match best.iter().position(|q| pair_key(q) == key) {
                Some(at) => {
                    if p.confidence > best[at].confidence {
                        best[at] = p;
                    }
                }
                None => best.push(p),
            }
        }
        *pairs = best;
    }

    #[test]
    fn index_map_dedupe_equals_the_quadratic_one() {
        let mut rng = testrand::Seeded::new(0x6465_6475_7065_3233);
        let mut collapsed = 0;
        for list in 0..1000 {
            // Few sites, so most lists repeat a pair, in both orientations
            // and with equal as well as different confidences.
            let sites = 2 + rng.below(6);
            let mut pairs: Vec<StaticPair> = (0..rng.below(40))
                .map(|n| StaticPair {
                    first: format!("f.rs:{}:1", rng.below(sites)),
                    second: format!("f.rs:{}:1", rng.below(sites)),
                    confidence: rng.below(4) as f64 / 4.0,
                    // Tells apart two records of one pair and confidence.
                    guard: format!("record-{n}"),
                    receiver: String::new(),
                    class: String::new(),
                    first_op: String::new(),
                    second_op: String::new(),
                    reason: String::new(),
                    provenance: String::new(),
                    hb_evidence: String::new(),
                })
                .collect();
            let mut expected = pairs.clone();
            dedupe_pairs_by_scan(&mut expected);
            collapsed += pairs.len() - expected.len();
            dedupe_pairs(&mut pairs);
            assert_eq!(pairs, expected, "list {list}");
        }
        assert!(collapsed > 5000, "only {collapsed} duplicates generated");
    }

    #[test]
    fn fan_out_returns_input_order() {
        let double = |n: &usize| n * 2;
        assert_eq!(fan_out(&[], 4, double), Vec::<usize>::new());
        assert_eq!(fan_out(&[21], 4, double), vec![42]);
        let items: Vec<usize> = (0..100).collect();
        let expected: Vec<usize> = items.iter().map(double).collect();
        for threads in [0, 1, 2, 7, 100, 1000] {
            assert_eq!(
                fan_out(&items, threads, double),
                expected,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn fan_out_order_is_the_inputs_even_when_completion_order_is_reversed() {
        // As many workers as items, so every item is in flight at once, and
        // item `i` returns only after every later item has: completion order
        // is exactly the reverse of input order, by construction.
        const N: usize = 6;
        let finished = (Mutex::new(0usize), Condvar::new());
        let completion_order = Mutex::new(Vec::new());
        let items: Vec<usize> = (0..N).collect();
        let out = fan_out(&items, N, |&i| {
            let (count, wake) = &finished;
            let mut done = count.lock().expect("lock");
            while *done < N - 1 - i {
                done = wake.wait(done).expect("wait");
            }
            completion_order.lock().expect("lock").push(i);
            *done += 1;
            wake.notify_all();
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
        let order = completion_order.into_inner().expect("lock");
        assert_eq!(order, vec![5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn workspace_analysis_end_to_end() {
        let dir = std::env::temp_dir().join(format!("tsvd_analyze_ws_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("src")).expect("mkdir");
        std::fs::write(
            dir.join("src/main.rs"),
            r#"
use std::collections::HashMap;
use tsvd_collections::Dictionary;
use tsvd_tasks::Pool;
fn main() {
    let raw = HashMap::new();
    let d = Dictionary::new();
    let d1 = d.clone();
    let d2 = d.clone();
    let pool = Pool::new(2);
    pool.spawn(move || d1.set(1, 1));
    pool.spawn(move || d2.set(2, 2));
    drop(raw);
}
"#,
        )
        .expect("write");
        let report = analyze_workspace(&dir).expect("analyze");
        assert_eq!(report.files_scanned, 1);
        assert_eq!(report.files_skipped, 0);
        assert!(report.warnings.is_empty());
        assert_eq!(report.escapes.len(), 1);
        assert_eq!(report.escapes[0].file, "src/main.rs");
        assert_eq!(report.sites.len(), 2);
        assert_eq!(report.pairs.len(), 1);
        let tf = report.to_trap_file();
        assert_eq!(tf.count_origin(tsvd_core::PairOrigin::Static), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_path_spellings_analyze_once() {
        let dir = std::env::temp_dir().join(format!("tsvd_analyze_dup_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("src")).expect("mkdir");
        std::fs::write(
            dir.join("src/lib.rs"),
            "use tsvd_collections::Dictionary;\n\
             fn f(pool: &Pool) {\n\
                 let d = Dictionary::new();\n\
                 let d1 = d.clone();\n\
                 pool.spawn(move || d1.set(1, 1));\n\
                 d.set(2, 2);\n\
             }\n",
        )
        .expect("write");
        let report = analyze_paths(
            &dir,
            &[
                "src/lib.rs".to_string(),
                "./src/lib.rs".to_string(),
                "src\\lib.rs".to_string(),
            ],
        )
        .expect("analyze");
        assert_eq!(report.files_scanned, 1, "three spellings, one file");
        assert_eq!(report.pairs.len(), 1, "no duplicate pair");
        std::fs::remove_dir_all(&dir).ok();
    }

    const TWIN_HELPERS: &str = "use tsvd_collections::Dictionary;\n\
         use tsvd_tasks::sync::TsvdMutex;\n\
         pub fn set_low(d: &Dictionary<u64, u64>, m: &TsvdMutex<u32>) {\n\
             let g = m.lock();\n\
             d.set(1, 1);\n\
         }\n\
         pub fn set_high(d: &Dictionary<u64, u64>, m: &TsvdMutex<u32>) {\n\
             let g = m.lock();\n\
             d.set(2, 2);\n\
         }\n";

    fn twin_caller(lock: &str, first: &str, second: &str) -> String {
        format!(
            "use tsvd_collections::Dictionary;\n\
             use tsvd_tasks::sync::TsvdMutex;\n\
             fn run(pool: &Pool) {{\n\
                 let table = Dictionary::new();\n\
                 let {lock} = TsvdMutex::new(0u32);\n\
                 let d1 = table.clone();\n\
                 let m1 = {lock}.clone();\n\
                 let d2 = table.clone();\n\
                 let m2 = {lock}.clone();\n\
                 pool.spawn(move || {first}(&d1, &m1));\n\
                 pool.spawn(move || {second}(&d2, &m2));\n\
             }}\n"
        )
    }

    #[test]
    fn pruned_twins_across_guard_roots_collapse_to_one_record() {
        // Two caller files prune the *same* helper-site pair under
        // different lock names — and in opposite call order, so the raw
        // records carry opposite site orientation. One pruned record must
        // survive, not one per guard root (the pre-pair_key regression).
        let dir = std::env::temp_dir().join(format!("tsvd_analyze_twins_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("helpers.rs"), TWIN_HELPERS).expect("write");
        std::fs::write(
            dir.join("caller_a.rs"),
            twin_caller("lock_a", "set_low", "set_high"),
        )
        .expect("write");
        std::fs::write(
            dir.join("caller_b.rs"),
            twin_caller("lock_b", "set_high", "set_low"),
        )
        .expect("write");
        let report = analyze_workspace(&dir).expect("analyze");
        assert!(report.pairs.is_empty(), "every candidate is lock-pruned");
        assert_eq!(
            report.pruned_pairs.len(),
            1,
            "one record per pair identity, not per guard root / orientation: {:?}",
            report
                .pruned_pairs
                .iter()
                .map(|p| (&p.first, &p.second, &p.guard))
                .collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_pair_kept_anywhere_drops_its_pruned_twin() {
        // caller_a prunes the helper pair (both sides locked); caller_c
        // reaches the same pair unguarded and keeps it. The merged report
        // must show the pair once, as kept — a pruned twin would
        // double-count it in the scoreboard.
        let dir = std::env::temp_dir().join(format!("tsvd_analyze_keep_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("helpers.rs"), TWIN_HELPERS).expect("write");
        std::fs::write(
            dir.join("caller_a.rs"),
            twin_caller("lock_a", "set_low", "set_high"),
        )
        .expect("write");
        std::fs::write(
            dir.join("caller_c.rs"),
            "use tsvd_collections::Dictionary;\n\
             use tsvd_tasks::sync::TsvdMutex;\n\
             fn run_free(pool: &Pool) {\n\
                 let table = Dictionary::new();\n\
                 let relic = TsvdMutex::new(0u32);\n\
                 let m0 = relic.clone();\n\
                 let d1 = table.clone();\n\
                 let d2 = table.clone();\n\
                 pool.spawn(move || set_low(&d1, &m0));\n\
                 pool.spawn(move || set_high(&d2, &m0));\n\
             }\n",
        )
        .expect("write");
        let report = analyze_workspace(&dir).expect("analyze");
        let kept: Vec<_> = report.pairs.iter().map(pair_key).collect();
        for p in &report.pruned_pairs {
            assert!(
                !kept.contains(&pair_key(p)),
                "pruned twin of a kept pair survived: {:?}",
                (&p.first, &p.second)
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_files_warn_instead_of_failing() {
        let dir = std::env::temp_dir().join(format!("tsvd_analyze_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("ok.rs"), "fn f() {}\n").expect("write");
        std::fs::write(dir.join("bad.rs"), [0xffu8, 0xfe, 0x00, 0x9f]).expect("write");
        let report = analyze_paths(
            &dir,
            &[
                "ok.rs".to_string(),
                "bad.rs".to_string(),
                "missing.rs".to_string(),
            ],
        )
        .expect("analyze must not abort");
        assert_eq!(report.files_scanned, 1);
        assert_eq!(report.files_skipped, 2, "non-UTF-8 and missing");
        assert_eq!(report.warnings.len(), 2);
        assert!(report.warnings.iter().any(|w| w.starts_with("bad.rs:")));
        assert!(report.warnings.iter().any(|w| w.starts_with("missing.rs:")));
        std::fs::remove_dir_all(&dir).ok();
    }
}
