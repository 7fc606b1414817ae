//! End-to-end tests for the analysis engine's result cache and thread
//! fan-out: neither may ever change the report, only how fast it is
//! produced.

use std::fs;
use std::path::{Path, PathBuf};

use tsvd_analyze::cache::{ENTRY_FILE, SCHEMA_VERSION};
use tsvd_analyze::{analyze_paths_with, analyze_workspace_with, AnalysisReport, AnalyzeOptions};

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

/// Whether analyzing `root` through `cache` is served from the entry. A hit
/// returns the stored report as-is, so a marker planted in the entry's
/// payload (its header left valid) comes back exactly when the run hit.
fn is_hit(root: &Path, cache: &Path) -> bool {
    let entry = cache.join(ENTRY_FILE);
    let Ok(text) = fs::read_to_string(&entry) else {
        return false;
    };
    let marked = text.replacen("\"files_scanned\":", "\"files_scanned\":1000", 1);
    assert_ne!(text, marked, "entry must carry a files_scanned field");
    fs::write(&entry, marked).expect("plant marker");
    let hit = analyze(root, 1, Some(cache)).files_scanned >= 1000;
    if hit {
        fs::write(&entry, text).expect("restore entry");
    }
    hit
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
    // Mangle the entry three ways: truncation, garbage bytes,
    // valid-JSON-wrong-shape. The engine must treat each as a miss.
    let mangled: [(&str, Vec<u8>); 3] = [
        ("truncated", intact.as_bytes()[..intact.len() / 2].to_vec()),
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
