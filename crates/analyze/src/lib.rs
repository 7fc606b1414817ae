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
pub use cache::{Cache, EntryRecord, FileRecord};
pub use callgraph::Summaries;
pub use report::{AnalysisReport, Escape, StaticPair, StaticSite};

/// Knobs for the analysis engine. The output is byte-identical for every
/// combination: thread count only changes which worker computes a file,
/// the cache only changes how much of the tree is parsed and analyzed,
/// and results always merge in input-file order.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    /// Worker threads for the per-file stages: parsing the fragments of
    /// the files a run needs, then analyzing the files it cannot reuse
    /// (every file, with no usable cache entry), and the entry's records
    /// on load and store. `0` or `1` runs inline.
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
    // The records cover readable files only, so they cannot tell two runs
    // apart that differ in what they had to skip: a run with a skipped
    // file neither trusts the entry nor writes one.
    let cache = Cache::new(opts.cache_dir.clone().filter(|_| report.files_skipped == 0));
    let hashes: Vec<String> = sources
        .iter()
        .map(|(_, src)| cache::content_hash(src))
        .collect();
    // A full hit is a stored record for every file, in order, made from
    // the bytes it has now: the stored records are then the answer.
    let stored = cache.load(opts.threads);
    let hit = stored.as_ref().is_some_and(|records| {
        records
            .iter()
            .map(|r| (&r.path, &r.hash))
            .eq(sources.iter().map(|(rel, _)| rel).zip(&hashes))
    });
    let stored = stored.unwrap_or_default();
    if hit {
        return Ok(merge(report, stored));
    }
    let records = records_for(&sources, &hashes, stored, opts.threads);
    cache.store(&records, opts.threads);
    Ok(merge(report, records))
}

/// Every file's record for a run that is not a full hit: each stored
/// record whose inputs an edit cannot have moved is moved over, and only
/// the rest are analyzed (see [`cache`]). A record moved over unchanged
/// keeps its stored line; a re-analyzed one, or a moved-over one whose
/// `support` changed, has none. `stored` may be empty — then every file is
/// changed, and this is the whole-tree pass.
fn records_for(
    sources: &[(String, String)],
    hashes: &[String],
    stored: Vec<EntryRecord>,
    threads: usize,
) -> Vec<EntryRecord> {
    // Changed: no stored record of this path made from these bytes. Only
    // changed files are parsed up front.
    let at: HashMap<&str, usize> = stored
        .iter()
        .enumerate()
        .map(|(k, r)| (r.path.as_str(), k))
        .collect();
    let kept: Vec<Option<usize>> = sources
        .iter()
        .zip(hashes)
        .map(|((rel, _), hash)| {
            let k = at.get(rel.as_str()).copied();
            k.filter(|&k| stored[k].hash == *hash)
        })
        .collect();
    let changed: Vec<usize> = (0..sources.len()).filter(|&i| kept[i].is_none()).collect();
    let parsed = fan_out(&changed, threads, |&i| {
        let (rel, src) = &sources[i];
        callgraph::parse_file(rel, src)
    });
    #[cfg(test)]
    callgraph::FILES_PARSED.with(|n| n.set(n.get() + changed.len()));
    let mut fragments: Vec<Option<Vec<callgraph::FnSummary>>> =
        sources.iter().map(|_| None).collect();
    let mut new_fns: Vec<Vec<String>> = sources.iter().map(|_| Vec::new()).collect();
    let mut changed_calls: Vec<String> = Vec::new();
    for (&i, file) in changed.iter().zip(parsed) {
        fragments[i] = Some(file.fragments);
        new_fns[i] = file.fns;
        changed_calls.extend(file.calls);
    }
    // Dirty: a name a changed or gone file defined before the edit or
    // defines after it. A record whose support holds none is moved over
    // untouched: every definition it was derived from is as it was. (Only
    // names some support holds are collected; with no entry, none is.)
    let mut reused = vec![false; stored.len()];
    for k in kept.iter().flatten() {
        reused[*k] = true;
    }
    let supported: HashSet<&str> = (kept.iter().flatten())
        .flat_map(|&k| &stored[k].support)
        .map(String::as_str)
        .collect();
    let dirty: HashSet<&str> = (stored.iter().zip(&reused))
        .filter(|(_, &reused)| !reused)
        .flat_map(|(r, _)| &r.fns)
        .chain(new_fns.iter().flatten())
        .map(String::as_str)
        .filter(|name| supported.contains(name))
        .collect();
    let suspects: Vec<usize> = (0..sources.len())
        .filter(|&i| {
            kept[i].is_some_and(|k| stored[k].support.iter().any(|n| dirty.contains(n.as_str())))
        })
        .collect();
    // The partial summary set: closed over every suspect dep and every
    // name a changed file can look up.
    let defines = (0..sources.len()).flat_map(|i| {
        let fns = kept[i].map_or(&new_fns[i], |k| &stored[k].fns);
        fns.iter().map(move |name| (i, name.as_str()))
    });
    let mut reach = callgraph::Reach::new(sources, defines, fragments, threads);
    let suspect_deps = suspects
        .iter()
        .flat_map(|&i| &stored[kept[i].expect("kept")].deps);
    reach.close(
        suspect_deps
            .map(|(name, _)| name.as_str())
            .chain(changed_calls.iter().map(String::as_str)),
    );
    let mut summaries = reach.summaries();
    // A suspect is moved over when every dep still resolves to the digest
    // it was analyzed under; otherwise it is stale, and its own call names
    // join the set before it is re-analyzed.
    let mut support: Vec<Option<Vec<String>>> = sources.iter().map(|_| None).collect();
    let mut failed: Vec<usize> = Vec::new();
    for &i in &suspects {
        let record = &stored[kept[i].expect("kept")];
        let rel = &sources[i].0;
        if record
            .deps
            .iter()
            .all(|(name, digest)| summaries.dep_digest(rel, name) == *digest)
        {
            support[i] = Some(reach.support(record.deps.iter().map(|(name, _)| name.as_str())));
        } else {
            failed.push(i);
        }
    }
    let failed_calls = fan_out(&failed, threads, |&i| {
        analysis::call_names(&lexer::tokenize(&sources[i].1))
    });
    if reach.close(failed_calls.iter().flatten().map(String::as_str)) {
        summaries = reach.summaries();
    }
    let mut stale = [changed, failed].concat();
    stale.sort_unstable();
    let fresh = fan_out(&stale, threads, |&i| {
        let (rel, src) = &sources[i];
        let (analysis, deps) = analysis::analyze_file_recorded(rel, src, &summaries);
        let support = reach.support(deps.iter().map(|(name, _)| name.as_str()));
        (analysis, deps, support)
    });
    // Merge in input-file order regardless of which worker finished first.
    // A suspect's support is assigned only when it moved: the assignment
    // drops the stored line.
    let mut stored: Vec<Option<EntryRecord>> = stored.into_iter().map(Some).collect();
    let mut records: Vec<Option<EntryRecord>> = kept
        .iter()
        .zip(support)
        .map(|(k, support)| {
            let mut record = stored[(*k)?].take()?;
            if let Some(support) = support.filter(|s| *s != record.support) {
                record.support = support;
            }
            Some(record)
        })
        .collect();
    for (i, (analysis, deps, support)) in stale.into_iter().zip(fresh) {
        let (rel, _) = &sources[i];
        let fns = match records[i].take() {
            Some(old) => old.into_record().fns,
            None => std::mem::take(&mut new_fns[i]),
        };
        let record = FileRecord {
            path: rel.clone(),
            hash: hashes[i].clone(),
            fns,
            deps,
            support,
            analysis,
        };
        records[i] = Some(record.into());
    }
    records.into_iter().flatten().collect()
}

/// The report of a tree from its files' records, in input-file order: the
/// one merge both a full hit and a fresh or partly reused run go through.
fn merge(mut report: AnalysisReport, records: Vec<EntryRecord>) -> AnalysisReport {
    // Shed the stored lines first: the entry text they share is freed
    // before the report grows.
    let records: Vec<FileRecord> = records.into_iter().map(EntryRecord::into_record).collect();
    for FileRecord { analysis: fa, .. } in records {
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
    report
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
pub(crate) fn fan_out<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
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

    /// The fn names [`random_call_graph`] draws from: few, so the same
    /// name lands in one file twice, or in two files.
    pub(crate) const NAMES: &[&str] = &[
        "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p", "q", "r",
        "s", "t", "u", "v", "relay", "leaf",
    ];

    /// One random tree of helper functions: a small pool of names (so the
    /// same name lands in one file twice, or in two files), collection,
    /// lock and plain parameters, guarded and unguarded and spawned
    /// accesses, and calls — to itself, backwards and forwards — passing
    /// its own parameters on in random positions.
    pub(crate) fn random_call_graph(rng: &mut Seeded) -> Vec<(String, String)> {
        const TYPES: &[&str] = &[
            "&Dictionary<u64, u64>",
            "&Dictionary<u64, u64>",
            "Arc<Dictionary<u64, u64>>",
            "Arc<List<u64>>",
            "&TsvdMutex<u32>",
            "u64",
        ];
        const METHODS: &[&str] = &["set(1, 1)", "get(&1)", "add(2)", "len()", "clear()"];
        let files = 1 + rng.below(3);
        (0..files)
            .map(|f| {
                let mut src = String::new();
                for _ in 0..4 + rng.below(9) {
                    let name = NAMES[rng.below(NAMES.len())];
                    let params: Vec<(String, &str)> = (0..1 + rng.below(4))
                        .map(|p| {
                            // Half the second parameters are locks, so a
                            // guard often survives a positional hand-on.
                            let lock_slot = p == 1 && rng.below(2) == 0;
                            let ty = if lock_slot {
                                TYPES[4]
                            } else {
                                TYPES[rng.below(TYPES.len())]
                            };
                            (format!("p{p}"), ty)
                        })
                        .collect();
                    let decl: Vec<String> =
                        params.iter().map(|(n, t)| format!("{n}: {t}")).collect();
                    src.push_str(&format!("fn {name}({}) {{\n", decl.join(", ")));
                    // Guards go first and on a lock when there is one, so
                    // some of what follows is held under it.
                    for (p, _) in params.iter().filter(|(_, t)| t.contains("Mutex")) {
                        if rng.below(2) == 0 {
                            src.push_str(&format!("    let g = {p}.lock();\n"));
                        }
                    }
                    for _ in 0..1 + rng.below(8) {
                        let (p, _) = &params[rng.below(params.len())];
                        match rng.below(8) {
                            0 => src.push_str(&format!("    let g = {p}.read();\n")),
                            1 => src.push_str(&format!("    {p}.{};\n", METHODS[rng.below(5)])),
                            2 => src.push_str(&format!(
                                "    pool.spawn(move || {p}.{});\n",
                                METHODS[rng.below(5)]
                            )),
                            _ => {
                                let args: Vec<String> = (0..1 + rng.below(4))
                                    .map(|k| match rng.below(6) {
                                        0 => "7".to_string(),
                                        // Its own parameter of that position.
                                        1 | 2 => format!("&p{}", k.min(params.len() - 1)),
                                        3 => {
                                            format!("{}.clone()", params[rng.below(params.len())].0)
                                        }
                                        _ => format!("&{}", params[rng.below(params.len())].0),
                                    })
                                    .collect();
                                let callee = NAMES[rng.below(NAMES.len())];
                                src.push_str(&format!("    {callee}({});\n", args.join(", ")));
                            }
                        }
                    }
                    src.push_str("}\n");
                }
                (format!("f{f}.rs"), src)
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

    /// What one run of `analyze_paths_with` added to `counter`, a count of
    /// work done on this thread. The run must equal the uncached pass.
    fn counted(
        counter: &'static std::thread::LocalKey<std::cell::Cell<usize>>,
        root: &Path,
        files: &[String],
        cache_dir: &Path,
    ) -> usize {
        let opts = AnalyzeOptions {
            threads: 2,
            cache_dir: Some(cache_dir.to_path_buf()),
        };
        let before = counter.with(|n| n.get());
        let cached = analyze_paths_with(root, files, &opts).expect("cached");
        let done = counter.with(|n| n.get()) - before;
        let uncached = analyze_paths(root, files).expect("uncached");
        assert_eq!(cached.to_jsonl(), uncached.to_jsonl());
        done
    }

    /// Files whose fragments one run of `analyze_paths_with` parsed.
    fn files_parsed(root: &Path, files: &[String], cache_dir: &Path) -> usize {
        counted(&callgraph::FILES_PARSED, root, files, cache_dir)
    }

    /// Records one run of `analyze_paths_with` serialized into its entry.
    fn records_serialized(root: &Path, files: &[String], cache_dir: &Path) -> usize {
        counted(&cache::RECORDS_SERIALIZED, root, files, cache_dir)
    }

    #[test]
    fn a_round_serializes_only_the_records_it_changed() {
        let dir = std::env::temp_dir().join(format!("tsvd_analyze_ser_{}", std::process::id()));
        let cache_dir = dir.join(".cache");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let write = |name: &str, src: &str| std::fs::write(dir.join(name), src).expect("write");
        // a.rs's helper calls `note`, which nothing defines; b.rs calls the
        // helper; c.rs stands apart.
        let helper = |note: &str| {
            format!(
                "pub fn helper(d: &Dictionary<u64, u64>) {{\n    d.get(&1);\n    {note}(d);\n}}\n"
            )
        };
        write("a.rs", &helper("note"));
        write(
            "b.rs",
            "fn run(pool: &Pool) {\n    let t = Dictionary::new();\n    \
                 let t1 = t.clone();\n    pool.spawn(move || helper(&t1));\n    \
                 t.set(2, 2);\n}\n",
        );
        write(
            "c.rs",
            "fn other(pool: &Pool) {\n    let o = Dictionary::new();\n    \
                 let o1 = o.clone();\n    pool.spawn(move || o1.set(1, 1));\n    \
                 o.get(&1);\n}\n",
        );
        let files: Vec<String> = ["a.rs", "b.rs", "c.rs"].map(String::from).to_vec();
        let serialized = || records_serialized(&dir, &files, &cache_dir);
        assert_eq!(serialized(), 3, "no entry: every record");
        assert_eq!(serialized(), 0, "a full hit writes nothing");
        // b.rs is a suspect (its support holds helper, which a.rs defines),
        // but its digests and its support come through as they were.
        let inert = "fn inert(x: u64) -> u64 {\n    x\n}\n";
        write("a.rs", &format!("{}{inert}", helper("note")));
        assert_eq!(serialized(), 1, "the edited file's record only");
        // helper's closed summary is unchanged, so b.rs keeps its analysis,
        // but its support moves from note to mark.
        write("a.rs", &helper("mark"));
        assert_eq!(serialized(), 2, "a.rs, and b.rs for its support");
        let stored = Cache::new(Some(cache_dir.clone())).load(1).expect("entry");
        assert_eq!(stored[1].path, "b.rs");
        assert_eq!(stored[1].support, ["helper", "mark"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_edit_parses_only_the_files_its_needed_names_resolve_to() {
        let dir = std::env::temp_dir().join(format!("tsvd_analyze_parse_{}", std::process::id()));
        let cache_dir = dir.join(".cache");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let write = |name: &str, src: &str| std::fs::write(dir.join(name), src).expect("write");
        // a.rs's relay calls into b.rs; c.rs calls a.rs's relay; d.rs
        // stands apart.
        let a = "pub fn relay_a(d: &Dictionary<u64, u64>) {\n    \
                     d.get(&1);\n    bump_b(d);\n}\n";
        write("a.rs", a);
        write(
            "b.rs",
            "pub fn bump_b(d: &Dictionary<u64, u64>) {\n    d.set(1, 1);\n}\n",
        );
        write(
            "c.rs",
            "fn run(pool: &Pool) {\n    let t = Dictionary::new();\n    \
                 let t1 = t.clone();\n    pool.spawn(move || relay_a(&t1));\n    \
                 t.set(2, 2);\n}\n",
        );
        write(
            "d.rs",
            "fn other(pool: &Pool) {\n    let o = Dictionary::new();\n    \
                 let o1 = o.clone();\n    pool.spawn(move || o1.set(1, 1));\n    \
                 o.get(&1);\n}\n",
        );
        let files: Vec<String> = ["a.rs", "b.rs", "c.rs", "d.rs"].map(String::from).to_vec();
        assert_eq!(
            files_parsed(&dir, &files, &cache_dir),
            4,
            "no entry: every file once"
        );
        assert_eq!(
            files_parsed(&dir, &files, &cache_dir),
            0,
            "a full hit parses nothing"
        );
        // The edit dirties a.rs's names. c.rs looked one up, so its dep is
        // needed; relay_a calls bump_b, so b.rs is parsed too. d.rs is not.
        write(
            "a.rs",
            &format!("{a}fn inert(x: u64) -> u64 {{\n    x\n}}\n"),
        );
        assert_eq!(files_parsed(&dir, &files, &cache_dir), 2, "a.rs and b.rs");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A caller for one file of a random call graph: tracked collections
    /// and a lock handed to `names` (mostly the file's own fns, so the
    /// calls resolve) from a spawned task and from the caller, so callee
    /// summaries materialize as sites and pairs.
    fn random_caller(rng: &mut testrand::Seeded, names: &[&str], tag: &str) -> String {
        const FIRST: &[&str] = &["&d", "&d1", "&l", "l1.clone()"];
        const REST: &[&str] = &["&d", "&d1", "&l", "l1.clone()", "&m", "7"];
        let mut call = || {
            let mut args = vec![FIRST[rng.below(FIRST.len())]];
            args.extend((0..rng.below(3)).map(|_| REST[rng.below(REST.len())]));
            let name = match rng.below(4) {
                0 => testrand::NAMES[rng.below(testrand::NAMES.len())],
                _ => names[rng.below(names.len())],
            };
            format!("{name}({})", args.join(", "))
        };
        let calls = [call(), call(), call(), call()];
        format!(
            "fn call_{tag}(pool: &Pool) {{\n    \
                 let d = Dictionary::new();\n    \
                 let l = List::new();\n    \
                 let m = TsvdMutex::new(0u32);\n    \
                 let d1 = d.clone();\n    \
                 let l1 = l.clone();\n    \
                 pool.spawn(move || {{\n        {};\n        {};\n    }});\n    \
                 {};\n    \
                 {};\n\
             }}\n",
            calls[0], calls[1], calls[2], calls[3]
        )
    }

    /// One random file: a random call graph's first file plus a caller.
    fn random_file(rng: &mut testrand::Seeded, tag: &str) -> String {
        let mut src = testrand::random_call_graph(rng).swap_remove(0).1;
        let names: Vec<&str> = src
            .lines()
            .filter_map(|l| l.strip_prefix("fn ")?.split('(').next())
            .collect();
        let caller = random_caller(rng, &names, tag);
        src.push_str(&caller);
        src
    }

    /// One random edit: a file rewritten, an inert fn appended, a fn with a
    /// drawn name added (new matches, new ambiguity), an access flipped
    /// from read to write, a file deleted or a file added. Half the steps
    /// then also prepend a line to a file (every position in it shifts) or
    /// rename one (same bytes, new path).
    fn random_edit(rng: &mut testrand::Seeded, files: &mut Vec<(String, String)>, step: usize) {
        let i = rng.below(files.len());
        match rng.below(6) {
            0 => files[i].1 = random_file(rng, &format!("s{step}")),
            1 => files[i]
                .1
                .push_str(&format!("fn inert_{step}(x: u64) -> u64 {{\n    x\n}}\n")),
            2 => {
                let name = testrand::NAMES[rng.below(testrand::NAMES.len())];
                files[i].1.push_str(&format!(
                    "fn {name}(p0: &Dictionary<u64, u64>) {{\n    p0.set(1, 1);\n}}\n"
                ));
            }
            3 => files[i].1 = files[i].1.replacen("get(&1)", "set(1, 1)", 1),
            4 if files.len() > 1 => {
                files.remove(i);
            }
            _ => files.push((format!("n{step}.rs"), random_file(rng, &format!("n{step}")))),
        }
        let j = rng.below(files.len());
        match rng.below(4) {
            0 => files[j].1.insert(0, '\n'),
            1 => files[j].0 = format!("r{step}.rs"),
            _ => {}
        }
    }

    /// Replaces the `.rs` files in `dir` with `files`; their names.
    fn write_tree(dir: &Path, files: &[(String, String)]) -> Vec<String> {
        for entry in std::fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                std::fs::remove_file(path).expect("clear");
            }
        }
        for (name, src) in files {
            std::fs::write(dir.join(name), src).expect("write");
        }
        files.iter().map(|(n, _)| n.clone()).collect()
    }

    #[test]
    fn cached_equals_uncached_along_random_edit_sequences() {
        const MARK: &str = "reused:";
        let dir = std::env::temp_dir().join(format!("tsvd_analyze_diff_{}", std::process::id()));
        let cache_dir = dir.join(".cache");
        let mut rng = testrand::Seeded::new(0x6564_6974_5f73_6571);
        let (mut steps, mut reused_files, mut fresh_files) = (0, 0, 0);
        let (mut with_sites, mut with_pairs) = (0, 0);
        for sequence in 0..24 {
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).expect("mkdir");
            let mut files: Vec<(String, String)> = (0..2 + rng.below(3))
                .map(|f| (format!("f{f}.rs"), random_file(&mut rng, &format!("f{f}"))))
                .collect();
            for step in 0..8 {
                if step > 0 {
                    random_edit(&mut rng, &mut files, step);
                }
                let names = write_tree(&dir, &files);
                // Mark every stored record: a reused one carries its marker
                // into the report.
                let cache = Cache::new(Some(cache_dir.clone()));
                if let Some(mut stored) = cache.load(1) {
                    for r in stored.iter_mut().map(|r| &mut **r) {
                        if !r.analysis.awaits.iter().any(|a| a.file.starts_with(MARK)) {
                            r.analysis.awaits.push(report::AwaitPoint {
                                file: format!("{MARK}{}", r.path),
                                line: 0,
                                column: 0,
                            });
                        }
                    }
                    cache.store(&stored, 1);
                }
                let opts = AnalyzeOptions {
                    threads: 1 + step % 2,
                    cache_dir: Some(cache_dir.clone()),
                };
                let mut cached = analyze_paths_with(&dir, &names, &opts).expect("cached");
                let reused = cached
                    .awaits
                    .iter()
                    .filter(|a| a.file.starts_with(MARK))
                    .count();
                cached.awaits.retain(|a| !a.file.starts_with(MARK));
                let uncached = analyze_paths(&dir, &names).expect("uncached");
                assert_eq!(
                    cached.to_jsonl(),
                    uncached.to_jsonl(),
                    "sequence {sequence} step {step}: {files:#?}"
                );
                steps += 1;
                if step > 0 {
                    reused_files += reused;
                    fresh_files += files.len() - reused;
                }
                with_pairs += usize::from(!uncached.pairs.is_empty());
                with_sites += usize::from(!uncached.sites.is_empty());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        // The sequences exercise both sides of the cutoff, on trees with
        // findings to get wrong. The callers access nothing themselves, so
        // every site is a callee's access materialized through a summary.
        assert!(
            reused_files >= 200
                && fresh_files >= 150
                && with_sites >= steps / 2
                && with_pairs >= steps / 4,
            "{reused_files} reused, {fresh_files} re-analyzed; of {steps} steps {with_sites} \
             with sites, {with_pairs} with pairs"
        );
    }

    #[test]
    fn a_cached_runs_entry_equals_a_cold_runs_along_random_edit_sequences() {
        // The sequences of the test above, without markers: whatever a
        // round splices from the stored entry or serializes afresh, the
        // entry it writes is the one a cold run of the same tree writes.
        let dir = std::env::temp_dir().join(format!("tsvd_analyze_entry_{}", std::process::id()));
        let (cache_dir, cold_dir) = (dir.join(".cache"), dir.join(".cold"));
        let entry = |cache_dir: &Path| std::fs::read(cache_dir.join(cache::ENTRY_FILE));
        let mut rng = testrand::Seeded::new(0x6564_6974_5f73_6571);
        let (mut records, mut serialized) = (0, 0);
        for sequence in 0..24 {
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).expect("mkdir");
            let mut files: Vec<(String, String)> = (0..2 + rng.below(3))
                .map(|f| (format!("f{f}.rs"), random_file(&mut rng, &format!("f{f}"))))
                .collect();
            for step in 0..8 {
                if step > 0 {
                    random_edit(&mut rng, &mut files, step);
                }
                let names = write_tree(&dir, &files);
                let before = cache::RECORDS_SERIALIZED.with(|n| n.get());
                let opts = AnalyzeOptions {
                    threads: 1 + step % 2,
                    cache_dir: Some(cache_dir.clone()),
                };
                analyze_paths_with(&dir, &names, &opts).expect("cached");
                if step > 0 {
                    records += files.len();
                    serialized += cache::RECORDS_SERIALIZED.with(|n| n.get()) - before;
                }
                std::fs::remove_dir_all(&cold_dir).ok();
                let cold = AnalyzeOptions {
                    threads: 1,
                    cache_dir: Some(cold_dir.clone()),
                };
                analyze_paths_with(&dir, &names, &cold).expect("cold");
                assert!(
                    entry(&cache_dir).expect("cached entry")
                        == entry(&cold_dir).expect("cold entry"),
                    "sequence {sequence} step {step}: {files:#?}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        // Enough lines were spliced for the comparison to cover them.
        assert!(
            records - serialized >= 100,
            "{serialized} of {records} records serialized"
        );
    }
}
