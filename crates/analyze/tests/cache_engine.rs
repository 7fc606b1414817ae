//! End-to-end tests for the analysis engine's result cache and thread
//! fan-out: neither may ever change the report, only how fast it is
//! produced.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use tsvd_analyze::cache::{ENTRY_FILE, SCHEMA_VERSION};
use tsvd_analyze::report::AwaitPoint;
use tsvd_analyze::{
    analyze_paths_with, analyze_workspace_with, AnalysisReport, AnalyzeOptions, Cache,
};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsvd_engine_{}_{}", tag, std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

fn options(threads: usize, cache_dir: Option<&Path>) -> AnalyzeOptions {
    AnalyzeOptions {
        threads,
        cache_dir: cache_dir.map(|d| d.to_path_buf()),
    }
}

fn analyze(root: &Path, threads: usize, cache_dir: Option<&Path>) -> AnalysisReport {
    analyze_workspace_with(root, &options(threads, cache_dir)).expect("analyze")
}

fn jsonl_with(threads: usize, cache_dir: Option<&Path>) -> String {
    analyze(&fixture_root(), threads, cache_dir).to_jsonl()
}

fn entry_names(cache: &Path) -> Vec<String> {
    fs::read_dir(cache)
        .expect("cache dir exists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect()
}

/// The file-name prefix of the marker [`probe`] plants.
const MARK: &str = "reused:";

/// Analyzes `root` through `cache` once with a marker planted in every
/// stored record, then puts the entry back as it was. A reused record is
/// moved into the report as stored, so the markers that come back name
/// the files whose stored analysis was reused; `untouched` is whether the
/// run left the (marked) entry as it found it, which a full hit does.
fn probe(root: &Path, cache: &Path) -> (BTreeSet<String>, bool) {
    let entry = cache.join(ENTRY_FILE);
    let Ok(original) = fs::read(&entry) else {
        return (BTreeSet::new(), false);
    };
    let store = Cache::new(Some(cache.to_path_buf()));
    let mut stored = store.load(1).expect("a readable entry");
    for record in stored.iter_mut().map(|r| &mut **r) {
        record.analysis.awaits.push(AwaitPoint {
            file: format!("{MARK}{}", record.path),
            line: 0,
            column: 0,
        });
    }
    store.store(&stored, 1);
    let marked = fs::read(&entry).expect("marked entry");
    let report = analyze(root, 1, Some(cache));
    let reused = report
        .awaits
        .iter()
        .filter_map(|a| a.file.strip_prefix(MARK))
        .map(str::to_string)
        .collect();
    let untouched = fs::read(&entry).expect("entry") == marked;
    fs::write(&entry, original).expect("restore entry");
    (reused, untouched)
}

/// Whether analyzing `root` through `cache` is a full hit: every file's
/// stored record reused, and nothing written.
fn is_hit(root: &Path, cache: &Path) -> bool {
    let files = analyze(root, 1, None).files_scanned as usize;
    let (reused, untouched) = probe(root, cache);
    untouched && reused.len() == files
}

#[test]
fn warm_runs_are_byte_identical_and_the_cache_holds_one_entry() {
    let cache = scratch("warm");
    let cold = jsonl_with(1, Some(&cache));
    assert_eq!(entry_names(&cache), [ENTRY_FILE], "after a cold run");
    assert!(is_hit(&fixture_root(), &cache), "an unchanged tree hits");
    let warm = jsonl_with(1, Some(&cache));
    assert_eq!(cold, warm, "warm output must be byte-identical to cold");
    assert_eq!(entry_names(&cache), [ENTRY_FILE], "after a warm run");
    fs::remove_dir_all(&cache).ok();
}

#[test]
fn thread_count_and_cache_state_never_change_the_output() {
    let cache = scratch("threads");
    let reference = jsonl_with(1, None);
    for threads in [2, 8] {
        assert_eq!(
            jsonl_with(threads, None),
            reference,
            "uncached, {threads} threads"
        );
    }
    // Cold parallel run against an empty cache, then warm runs at
    // several widths: all byte-identical to the single-threaded,
    // uncached reference.
    assert_eq!(jsonl_with(8, Some(&cache)), reference, "cold, 8 threads");
    for threads in [1, 4] {
        assert_eq!(
            jsonl_with(threads, Some(&cache)),
            reference,
            "warm, {threads} threads"
        );
    }
    fs::remove_dir_all(&cache).ok();
}

#[test]
fn corrupted_cache_entries_fall_back_to_fresh_analysis() {
    let cache = scratch("corrupt");
    let reference = jsonl_with(1, Some(&cache));
    let entry = cache.join(ENTRY_FILE);
    let intact = fs::read_to_string(&entry).expect("read entry");
    // Mangle the entry four ways: truncation mid-record and at a line
    // end (every line left parses, one file's record is missing), garbage
    // bytes, valid-JSON-wrong-shape. The engine must treat each as a miss.
    let last_line = intact.trim_end().rfind('\n').expect("two lines") + 1;
    let mangled: [(&str, Vec<u8>); 4] = [
        ("truncated", intact.as_bytes()[..intact.len() / 2].to_vec()),
        ("cut at a line end", intact.as_bytes()[..last_line].to_vec()),
        ("garbage", b"\x00\xff not json at all".to_vec()),
        ("wrong shape", b"[1, 2, 3]".to_vec()),
    ];
    for (style, bytes) in mangled {
        fs::write(&entry, bytes).expect("mangle");
        assert_eq!(
            jsonl_with(4, Some(&cache)),
            reference,
            "{style}: a corrupted cache degrades to a cold run, not a panic or drift"
        );
        // And the run above repaired the cache: the entry is whole again
        // and a further warm run matches too.
        assert_eq!(
            fs::read_to_string(&entry).expect("read entry"),
            intact,
            "{style}: repaired"
        );
        assert_eq!(jsonl_with(1, Some(&cache)), reference, "{style}: warm");
    }
    assert_eq!(entry_names(&cache), [ENTRY_FILE]);
    fs::remove_dir_all(&cache).ok();
}

#[test]
fn stale_schema_entries_are_recomputed() {
    let cache = scratch("stale");
    let reference = jsonl_with(1, Some(&cache));
    let entry = cache.join(ENTRY_FILE);
    let current = fs::read_to_string(&entry).expect("read entry");
    // The entry is written compactly, so the version literal is `"schema":N`.
    let future = current.replace(
        &format!("\"schema\":{SCHEMA_VERSION}"),
        &format!("\"schema\":{}", SCHEMA_VERSION + 97),
    );
    assert_ne!(current, future, "the rewrite must change the entry");
    fs::write(&entry, &future).expect("rewrite");
    assert_eq!(
        jsonl_with(1, Some(&cache)),
        reference,
        "a future-schema entry is ignored, not misparsed"
    );
    assert_eq!(
        fs::read_to_string(&entry).expect("read entry"),
        current,
        "the miss overwrote the foreign entry with this schema's"
    );
    fs::remove_dir_all(&cache).ok();
}

/// Copies the fixture tree's sources (top-level `.rs` files) into `dst`.
fn copy_fixture_sources(dst: &Path) {
    for entry in fs::read_dir(fixture_root()).expect("read fixtures") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            fs::copy(&path, dst.join(path.file_name().expect("name"))).expect("copy");
        }
    }
}

const RACY_ADDITION: &str = "\npub fn added_racy(pool: &tsvd_tasks::Pool) {\n    \
    let extra = tsvd_collections::Dictionary::new();\n    \
    let e1 = extra.clone();\n    \
    pool.spawn(move || e1.set(7, 7));\n    \
    extra.set(8, 8);\n}\n";

#[test]
fn edit_add_delete_rename_and_restore_are_never_served_stale() {
    let tree = scratch("stale_tree");
    let cache = scratch("stale_cache");
    copy_fixture_sources(&tree);
    let original = analyze(&tree, 1, Some(&cache)).to_jsonl();
    assert_eq!(original, analyze(&tree, 1, None).to_jsonl());
    let entry = cache.join(ENTRY_FILE);
    let first_fill = fs::read_to_string(&entry).expect("read entry");

    let shared_map = fs::read_to_string(tree.join("shared_map.rs")).expect("read");
    let guarded = fs::read_to_string(tree.join("guarded.rs")).expect("read");
    let mut previous = original.clone();
    let mut check = |step: &str| {
        let cached = analyze(&tree, 2, Some(&cache)).to_jsonl();
        assert_eq!(cached, analyze(&tree, 1, None).to_jsonl(), "{step}");
        assert_ne!(cached, previous, "{step}: served the previous tree's entry");
        assert!(is_hit(&tree, &cache), "{step}: the new tree now hits");
        assert_eq!(entry_names(&cache), [ENTRY_FILE], "{step}");
        previous = cached;
    };

    let edited = format!("{shared_map}{RACY_ADDITION}");
    fs::write(tree.join("shared_map.rs"), edited).expect("edit");
    check("edit one file");

    let added = format!("use tsvd_collections::Dictionary;{RACY_ADDITION}");
    fs::write(tree.join("added.rs"), added).expect("add");
    check("add a file");

    fs::remove_file(tree.join("guarded.rs")).expect("delete");
    check("delete a file");

    let (from, to) = (
        tree.join("helper_flow.rs"),
        tree.join("helper_flow_moved.rs"),
    );
    fs::rename(&from, &to).expect("rename");
    check("rename a file, bytes unchanged");

    fs::write(tree.join("shared_map.rs"), &shared_map).expect("unedit");
    fs::remove_file(tree.join("added.rs")).expect("unadd");
    fs::write(tree.join("guarded.rs"), &guarded).expect("undelete");
    fs::rename(&to, &from).expect("unrename");
    check("restore the original");

    // The entry is a function of the tree alone: back at the original
    // bytes, it is the first fill's entry again, byte for byte.
    assert_eq!(previous, original);
    assert_eq!(fs::read_to_string(&entry).expect("read entry"), first_fill);
    fs::remove_dir_all(&tree).ok();
    fs::remove_dir_all(&cache).ok();
}

#[test]
fn file_order_is_part_of_the_key() {
    // Findings are listed in input-file order, so the same files in
    // another order are another report: it must not be served this one.
    let cache = scratch("order");
    let root = fixture_root();
    let forward = vec!["shared_map.rs".to_string(), "half_guarded.rs".to_string()];
    let backward: Vec<String> = forward.iter().rev().cloned().collect();
    let run = |files: &[String], cache_dir: Option<&Path>| {
        analyze_paths_with(&root, files, &options(1, cache_dir))
            .expect("analyze")
            .to_jsonl()
    };
    assert_eq!(run(&forward, Some(&cache)), run(&forward, None));
    assert_eq!(run(&backward, Some(&cache)), run(&backward, None));
    assert_ne!(run(&forward, None), run(&backward, None));
    fs::remove_dir_all(&cache).ok();
}

#[test]
fn a_skipped_file_bypasses_the_cache_in_both_directions() {
    let tree = scratch("skipped_tree");
    let cache = scratch("skipped_cache");
    copy_fixture_sources(&tree);
    let clean = analyze(&tree, 1, Some(&cache));
    assert_eq!(clean.files_skipped, 0);
    let entry = cache.join(ENTRY_FILE);
    let clean_entry = fs::read_to_string(&entry).expect("read entry");

    // The digest covers readable files only, so with a non-UTF-8 file in
    // the tree it equals the clean tree's: a read would serve a report
    // with no warning, a write would leave one that outlives the file.
    fs::write(tree.join("bad.rs"), [0xffu8, 0xfe, 0x00, 0x9f]).expect("write bad");
    let uncached = analyze(&tree, 1, None).to_jsonl();
    for round in 0..2 {
        let report = analyze(&tree, 1, Some(&cache));
        assert_eq!(report.files_skipped, 1, "round {round}");
        assert_eq!(report.warnings.len(), 1, "round {round}");
        assert!(report.warnings[0].starts_with("bad.rs:"), "round {round}");
        assert_eq!(report.to_jsonl(), uncached, "round {round}");
        assert_eq!(
            fs::read_to_string(&entry).expect("read entry"),
            clean_entry,
            "round {round}: the entry is neither read nor written"
        );
    }
    fs::remove_file(tree.join("bad.rs")).expect("remove bad");
    assert!(is_hit(&tree, &cache), "the clean tree still hits");

    // From an empty cache, a skipping run leaves nothing behind.
    let empty = scratch("skipped_empty");
    fs::write(tree.join("bad.rs"), [0xffu8, 0xfe]).expect("write bad");
    assert_eq!(analyze(&tree, 1, Some(&empty)).files_skipped, 1);
    assert!(entry_names(&empty).is_empty());
    for dir in [tree, cache, empty] {
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn an_unusable_cache_directory_still_yields_the_full_report() {
    let reference = jsonl_with(1, None);
    // Missing (and creatable): the run creates it.
    let parent = scratch("unusable");
    let missing = parent.join("not/yet/there");
    assert_eq!(jsonl_with(1, Some(&missing)), reference);
    assert_eq!(entry_names(&missing), [ENTRY_FILE]);
    // Uncreatable and unwritable, whoever runs the test: the path runs
    // through a regular file.
    let blocker = parent.join("file");
    fs::write(&blocker, "x").expect("write");
    for _ in 0..2 {
        assert_eq!(jsonl_with(2, Some(&blocker.join("cache"))), reference);
    }
    fs::remove_dir_all(&parent).ok();
}

const HELPER: &str = "use tsvd_collections::Dictionary;\n\
    pub fn helper(d: &Dictionary<u64, u64>) {\n    d.get(&1);\n}\n";

const CALLER: &str = "use tsvd_collections::Dictionary;\n\
    use tsvd_tasks::Pool;\n\
    fn run(pool: &Pool) {\n    \
        let table = Dictionary::new();\n    \
        let t1 = table.clone();\n    \
        pool.spawn(move || helper(&t1));\n    \
        table.set(2, 2);\n\
    }\n";

const BYSTANDER: &str = "use tsvd_collections::Dictionary;\n\
    use tsvd_tasks::Pool;\n\
    fn other(pool: &Pool) {\n    \
        let cache = Dictionary::new();\n    \
        let c1 = cache.clone();\n    \
        pool.spawn(move || c1.set(1, 1));\n    \
        cache.get(&1);\n\
    }\n";

/// After each edit the cached report equals the uncached one, and exactly
/// the files whose bytes and looked-up summaries are unchanged are reused.
#[test]
fn an_edit_reanalyzes_exactly_the_files_whose_inputs_changed() {
    let tree = scratch("deps_tree");
    let cache = scratch("deps_cache");
    let write = |name: &str, src: &str| fs::write(tree.join(name), src).expect("write");
    write("a.rs", HELPER);
    write("b.rs", CALLER);
    write("c.rs", BYSTANDER);
    let first = analyze(&tree, 1, Some(&cache)).to_jsonl();
    assert!(
        first.contains("\"file\":\"a.rs\""),
        "b.rs materializes helper's access"
    );
    let mut previous = first;
    let mut step = |what: &str, edit: &dyn Fn(), reused: &[&str], output_moves: bool| {
        edit();
        let (got, _) = probe(&tree, &cache);
        let want: BTreeSet<String> = reused.iter().map(|f| f.to_string()).collect();
        assert_eq!(got, want, "{what}: reused");
        let cached = analyze(&tree, 2, Some(&cache)).to_jsonl();
        assert_eq!(cached, analyze(&tree, 1, None).to_jsonl(), "{what}");
        assert_eq!(cached != previous, output_moves, "{what}: output moved");
        previous = cached;
    };
    step(
        "an inert fn appended to a.rs",
        &|| {
            write(
                "a.rs",
                &format!("{HELPER}pub fn inert(x: u64) -> u64 {{\n    x + 1\n}}\n"),
            )
        },
        &["b.rs", "c.rs"],
        false,
    );
    step(
        "helper's get becomes a set",
        &|| write("a.rs", &HELPER.replace("get(&1)", "set(1, 1)")),
        &["c.rs"],
        true,
    );
    step(
        "a same-named fn in c.rs makes b.rs's lookup ambiguous",
        &|| {
            write(
                "c.rs",
                &format!("{BYSTANDER}{}", &HELPER[HELPER.find("pub").expect("fn")..]),
            )
        },
        &["a.rs"],
        true,
    );
    step(
        "deleting a.rs resolves b.rs's lookup to c.rs's helper",
        &|| fs::remove_file(tree.join("a.rs")).expect("delete"),
        &["c.rs"],
        true,
    );
    fs::remove_dir_all(&tree).ok();
    fs::remove_dir_all(&cache).ok();
}

#[test]
fn deleting_the_callee_reanalyzes_its_caller() {
    let tree = scratch("delete_tree");
    let cache = scratch("delete_cache");
    for (name, src) in [("a.rs", HELPER), ("b.rs", CALLER), ("c.rs", BYSTANDER)] {
        fs::write(tree.join(name), src).expect("write");
    }
    let before = analyze(&tree, 1, Some(&cache)).to_jsonl();
    fs::remove_file(tree.join("a.rs")).expect("delete");
    let (reused, _) = probe(&tree, &cache);
    assert_eq!(reused, BTreeSet::from(["c.rs".to_string()]));
    let cached = analyze(&tree, 1, Some(&cache)).to_jsonl();
    assert_eq!(cached, analyze(&tree, 1, None).to_jsonl());
    assert_ne!(cached, before, "b.rs lost helper's access");
    fs::remove_dir_all(&tree).ok();
    fs::remove_dir_all(&cache).ok();
}

/// The stored record of `path` in `cache`'s entry.
fn stored_record(cache: &Path, path: &str) -> tsvd_analyze::FileRecord {
    let records = Cache::new(Some(cache.to_path_buf()))
        .load(1)
        .expect("entry");
    records
        .into_iter()
        .find(|r| r.path == path)
        .expect("a record for the path")
        .into_record()
}

/// Writes `files` into a fresh tree, fills a cache on it (and hands the
/// cache to `filled`), applies `edit`, and returns the files whose stored
/// analysis the next run reused. The cached report must equal the uncached
/// one, and move or stay as `moves` says.
fn reused_after(
    tag: &str,
    files: &[(&str, &str)],
    filled: &dyn Fn(&Path),
    edit: &dyn Fn(&Path),
    moves: bool,
) -> (BTreeSet<String>, PathBuf, PathBuf) {
    let tree = scratch(&format!("{tag}_tree"));
    let cache = scratch(&format!("{tag}_cache"));
    for (name, src) in files {
        fs::write(tree.join(name), src).expect("write");
    }
    let before = analyze(&tree, 1, Some(&cache)).to_jsonl();
    filled(&cache);
    edit(&tree);
    let (reused, _) = probe(&tree, &cache);
    let cached = analyze(&tree, 2, Some(&cache)).to_jsonl();
    assert_eq!(cached, analyze(&tree, 1, None).to_jsonl(), "{tag}");
    assert_eq!(cached != before, moves, "{tag}: output moved");
    (reused, tree, cache)
}

fn names(files: &[&str]) -> BTreeSet<String> {
    files.iter().map(|f| f.to_string()).collect()
}

#[test]
fn a_line_prepended_to_the_helpers_file_reanalyzes_its_callers() {
    // Every op in helper's summary moves down a line, so the site b.rs
    // materializes moves with it.
    let (reused, tree, cache) = reused_after(
        "prepend",
        &[("a.rs", HELPER), ("b.rs", CALLER), ("c.rs", BYSTANDER)],
        &|_| {},
        &|tree| fs::write(tree.join("a.rs"), format!("\n{HELPER}")).expect("prepend"),
        true,
    );
    assert_eq!(reused, names(&["c.rs"]));
    fs::remove_dir_all(&tree).ok();
    fs::remove_dir_all(&cache).ok();
}

const RELAY: &str = "use tsvd_collections::Dictionary;\n\
    pub fn relay(d: &Dictionary<u64, u64>) {\n    helper(d);\n}\n";

#[test]
fn renaming_a_helper_the_callers_support_consulted_reanalyzes_the_caller() {
    // b.rs looks up relay only; helper is in its support because relay
    // calls it. Renaming helper empties relay's summary.
    let caller = CALLER.replace("helper(&t1)", "relay(&t1)");
    let (reused, tree, cache) = reused_after(
        "rename",
        &[
            ("a.rs", HELPER),
            ("r.rs", RELAY),
            ("b.rs", &caller),
            ("c.rs", BYSTANDER),
        ],
        &|cache| {
            let b = stored_record(cache, "b.rs");
            let deps: Vec<&str> = b.deps.iter().map(|(name, _)| name.as_str()).collect();
            assert_eq!(deps, ["relay"]);
            assert_eq!(b.support, ["helper", "relay"]);
        },
        &|tree| {
            let renamed = HELPER.replace("fn helper", "fn helper_renamed");
            fs::write(tree.join("a.rs"), renamed).expect("rename");
        },
        true,
    );
    assert_eq!(reused, names(&["c.rs", "r.rs"]));
    fs::remove_dir_all(&tree).ok();
    fs::remove_dir_all(&cache).ok();
}

#[test]
fn a_suspect_whose_digests_match_is_moved_over_with_its_support_refreshed() {
    // helper calls a name nothing defines; the edit calls another one of
    // the same length. helper's closed summary is unchanged, so b.rs, a
    // suspect (helper is dirty), keeps its analysis, but what its deps
    // were derived from is now `mark`, not `note`.
    let helper = HELPER.replace("d.get(&1);", "d.get(&1);\n    note(d);");
    let (reused, tree, cache) = reused_after(
        "refresh",
        &[("a.rs", &helper), ("b.rs", CALLER), ("c.rs", BYSTANDER)],
        &|cache| assert_eq!(stored_record(cache, "b.rs").support, ["helper", "note"]),
        &|tree| fs::write(tree.join("a.rs"), helper.replace("note", "mark")).expect("edit"),
        false,
    );
    assert_eq!(reused, names(&["b.rs", "c.rs"]));
    assert_eq!(stored_record(&cache, "b.rs").support, ["helper", "mark"]);
    fs::remove_dir_all(&tree).ok();
    fs::remove_dir_all(&cache).ok();
}
