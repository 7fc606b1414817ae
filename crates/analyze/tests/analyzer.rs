//! End-to-end analyzer tests against the checked-in fixture tree.
//!
//! The counts below are exact on purpose: the fixtures are frozen inputs,
//! and any analyzer change that shifts what is found must update both
//! sides consciously.

use std::path::{Path, PathBuf};

use tsvd_analyze::score::{load_candidates, load_outcomes, score, Baseline};
use tsvd_analyze::{analyze_workspace, Allowlist};
use tsvd_core::PairOrigin;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn fixture_counts_are_exact() {
    let report = analyze_workspace(&fixtures_root()).expect("analyze fixtures");
    assert_eq!(report.files_scanned, 11);
    assert_eq!(report.files_skipped, 0);
    assert!(report.warnings.is_empty());

    // Two raw escapes: the std HashMap and the allowlisted VecDeque.
    assert_eq!(report.escapes.len(), 2);
    let hashmap = report
        .escapes
        .iter()
        .find(|e| e.name == "HashMap")
        .expect("HashMap escape");
    assert_eq!(hashmap.file, "escape_raw.rs");
    assert_eq!(hashmap.line, 6);
    assert_eq!(hashmap.via, "std::collections");
    let vecdeque = report
        .escapes
        .iter()
        .find(|e| e.name == "VecDeque")
        .expect("VecDeque escape");
    assert_eq!(vecdeque.file, "allowlisted_raw.rs");
    assert_eq!(vecdeque.line, 6);

    // Twenty-two instrumented sites, columns on the method ident (the
    // #[track_caller] convention). The two helper_flow.rs sites share one
    // location — both spawns route through the same `bump` helper — and
    // shadowed.rs contributes only the pre-rebind write.
    let site_texts: Vec<String> = report.sites.iter().map(|s| s.site_text()).collect();
    assert_eq!(
        site_texts,
        vec![
            "async_markers.rs:9:10",    // warm.set after the first await
            "channel_ordered.rs:12:12", // s1.set before the send
            "channel_ordered.rs:14:12", // s1.set after the send
            "channel_ordered.rs:17:11", // stats.set after the recv
            "guarded.rs:15:12",         // t1.set under l1.lock()
            "guarded.rs:19:12",         // t2.set under l2.lock()
            "guarded.rs:20:12",         // t2.get under l2.lock()
            "half_guarded.rs:14:12",    // t1.set under l1.lock()
            "half_guarded.rs:17:12",    // t2.set, unguarded
            "helper_flow.rs:6:7",       // bump's d.set, via spawn #1
            "helper_flow.rs:6:7",       // bump's d.set, via spawn #2
            "join_ordered.rs:10:40",    // l1.set in the joined spawn
            "join_ordered.rs:11:12",    // ledger.set before the join
            "join_ordered.rs:13:12",    // ledger.set after the join
            "scoped_ordered.rs:11:28",  // g1.set in the scoped spawn
            "scoped_ordered.rs:12:14",  // grid.get inside the scope
            "scoped_ordered.rs:14:10",  // grid.set after the scope
            "shadowed.rs:7:9",          // log.set before the shadowing rebind
            "shared_map.rs:9:26",       // a.set
            "shared_map.rs:11:11",      // b.set
            "shared_map.rs:12:11",      // b.get
            "shared_map.rs:14:12",      // shared.len
        ]
    );
    assert_eq!(
        report.sites.iter().filter(|s| s.kind == "write").count(),
        18
    );
    // The async fixture's two `.await` points land as task-boundary
    // markers, not ordering edges.
    let awaits: Vec<String> = report
        .awaits
        .iter()
        .map(|a| format!("{}:{}:{}", a.file, a.line, a.column))
        .collect();
    assert_eq!(
        awaits,
        vec!["async_markers.rs:8:26", "async_markers.rs:10:20"]
    );

    // Kept pairs: shared_map's four, half_guarded's one-side-guarded
    // write-write, helper_flow's interprocedural self-pair, and one
    // window-bounded pair from each of the three HB fixtures.
    assert_eq!(report.pairs.len(), 9);
    assert_eq!(
        report
            .pairs
            .iter()
            .filter(|p| p.reason == "cross-task")
            .count(),
        4
    );
    assert_eq!(
        report
            .pairs
            .iter()
            .filter(|p| p.reason == "main-vs-spawned")
            .count(),
        5
    );
    let ww = report
        .pairs
        .iter()
        .find(|p| p.first == "shared_map.rs:9:26" && p.second == "shared_map.rs:11:11")
        .expect("write-write pair");
    assert_eq!(ww.first_op, "Dictionary.set");
    assert_eq!(ww.second_op, "Dictionary.set");
    assert_eq!(ww.confidence, 0.8182);
    assert_eq!(ww.guard, "none");
    assert_eq!(ww.provenance, "direct");
    assert_eq!(ww.hb_evidence, "none");

    let half = report
        .pairs
        .iter()
        .find(|p| p.first.starts_with("half_guarded.rs"))
        .expect("one-side-guarded pair");
    assert_eq!(half.guard, "one-side-guarded");
    assert_eq!(half.confidence, 0.8182);

    let helper = report
        .pairs
        .iter()
        .find(|p| p.first.starts_with("helper_flow.rs"))
        .expect("interprocedural pair");
    assert_eq!(helper.first, "helper_flow.rs:6:7");
    assert_eq!(helper.second, "helper_flow.rs:6:7", "same-site self pair");
    assert_eq!(helper.provenance, "via-calls:1");
    assert_eq!(helper.confidence, 0.6955);

    // Window evidence scales but keeps: the pre-join write can still race
    // the spawned body (0.75 * 0.95 / 1.1), and the post-send tail has
    // only partial channel evidence (0.75 * 0.9 / 1.1).
    let window = report
        .pairs
        .iter()
        .find(|p| p.first == "join_ordered.rs:10:40")
        .expect("window-join pair");
    assert_eq!(window.second, "join_ordered.rs:11:12");
    assert_eq!(window.hb_evidence, "window-join:worker");
    assert_eq!(window.confidence, 0.6477);
    let scoped = report
        .pairs
        .iter()
        .find(|p| p.first == "scoped_ordered.rs:11:28")
        .expect("window-scope pair");
    assert_eq!(scoped.second, "scoped_ordered.rs:12:14");
    assert_eq!(scoped.hb_evidence, "window-scope");
    assert_eq!(scoped.confidence, 0.6477);
    let partial = report
        .pairs
        .iter()
        .find(|p| p.first == "channel_ordered.rs:14:12")
        .expect("channel-partial pair");
    assert_eq!(partial.second, "channel_ordered.rs:17:11");
    assert_eq!(partial.hb_evidence, "channel-partial");
    assert_eq!(partial.confidence, 0.6136);
}

#[test]
fn lockset_and_hb_pruning_cut_false_candidates_with_zero_true_loss() {
    let report = analyze_workspace(&fixtures_root()).expect("analyze fixtures");

    // Five pruned candidates: guarded.rs's two lockset prunes plus one
    // planted provably-ordered false candidate per HB fixture.
    assert_eq!(report.pruned_pairs.len(), 5);
    let guarded: Vec<_> = report
        .pruned_pairs
        .iter()
        .filter(|p| p.first.starts_with("guarded.rs"))
        .collect();
    assert_eq!(guarded.len(), 2);
    for p in &guarded {
        assert_eq!(p.guard, "both-guarded:lock");
        assert_eq!(p.confidence, 0.0);
        assert_eq!(p.hb_evidence, "none", "lockset pruning takes precedence");
    }
    let ordered: Vec<_> = report
        .pruned_pairs
        .iter()
        .filter(|p| p.reason == "ordered")
        .collect();
    assert_eq!(ordered.len(), 3, "one planted ordered pair per HB fixture");
    for (pair_first, pair_second, evidence) in [
        (
            "channel_ordered.rs:12:12",
            "channel_ordered.rs:17:11",
            "ordered:channel",
        ),
        (
            "join_ordered.rs:10:40",
            "join_ordered.rs:13:12",
            "ordered:join:worker",
        ),
        (
            "scoped_ordered.rs:11:28",
            "scoped_ordered.rs:14:10",
            "ordered:scope",
        ),
    ] {
        let p = ordered
            .iter()
            .find(|p| p.first == pair_first && p.second == pair_second)
            .unwrap_or_else(|| panic!("missing ordered prune {pair_first} <-> {pair_second}"));
        assert_eq!(p.hb_evidence, evidence);
        assert_eq!(p.confidence, 0.0);
    }

    // Zero true-candidate loss: every genuinely racy fixture pair is still
    // emitted, and nothing from guarded.rs survives.
    assert_eq!(report.pairs.len(), 9);
    assert!(report
        .pairs
        .iter()
        .all(|p| !p.first.starts_with("guarded.rs")));
    for must_keep in [
        ("channel_ordered.rs:14:12", "channel_ordered.rs:17:11"),
        ("half_guarded.rs:14:12", "half_guarded.rs:17:12"),
        ("helper_flow.rs:6:7", "helper_flow.rs:6:7"),
        ("join_ordered.rs:10:40", "join_ordered.rs:11:12"),
        ("scoped_ordered.rs:11:28", "scoped_ordered.rs:12:14"),
        ("shared_map.rs:9:26", "shared_map.rs:11:11"),
        ("shared_map.rs:9:26", "shared_map.rs:12:11"),
        ("shared_map.rs:9:26", "shared_map.rs:14:12"),
        ("shared_map.rs:11:11", "shared_map.rs:14:12"),
    ] {
        assert!(
            report
                .pairs
                .iter()
                .any(|p| p.first == must_keep.0 && p.second == must_keep.1),
            "true candidate lost: {must_keep:?}"
        );
    }
}

#[test]
fn allowlist_splits_intended_from_blocking() {
    let mut report = analyze_workspace(&fixtures_root()).expect("analyze fixtures");
    let allowlist =
        Allowlist::load(&fixtures_root().join("allowlist.toml")).expect("load allowlist");
    report.apply_allowlist(&allowlist);
    let blocking = report.unallowlisted_escapes();
    assert_eq!(blocking.len(), 1, "only the HashMap escape blocks");
    assert_eq!(blocking[0].name, "HashMap");
    assert_eq!(blocking[0].file, "escape_raw.rs");
}

#[test]
fn fixture_pairs_become_a_static_trap_file() {
    let report = analyze_workspace(&fixtures_root()).expect("analyze fixtures");
    let tf = report.to_trap_file();
    assert_eq!(tf.pairs.len(), 9, "pruned pairs stay out of the trap file");
    assert_eq!(tf.count_origin(PairOrigin::Static), 9);
    // Every textual pair must re-intern as real SiteIds.
    assert_eq!(tf.to_pairs().len(), 9);
}

#[test]
fn jsonl_round_trips_every_fixture_record() {
    let report = analyze_workspace(&fixtures_root()).expect("analyze fixtures");
    let jsonl = report.to_jsonl();
    // summary + 2 escapes + 22 sites + 9 pairs + 5 pruned pairs + 2 awaits
    assert_eq!(jsonl.lines().count(), 41);
    for line in jsonl.lines() {
        let v: serde::Value = serde_json::from_str(line).expect("valid JSON line");
        let obj = v.as_object().expect("object");
        assert!(obj.contains_key("record"));
    }
    assert_eq!(
        jsonl
            .lines()
            .filter(|l| l.contains("\"record\":\"pruned_pair\""))
            .count(),
        5
    );
    assert_eq!(
        jsonl
            .lines()
            .filter(|l| l.contains("\"record\":\"await\""))
            .count(),
        2
    );
}

/// The fixture tree's JSONL report and static trap file, byte for byte.
/// The counts above pin how much is found; this pins what: every site,
/// region, guard, evidence label and confidence. When an analyzer change
/// is *meant* to move the output, regenerate both files with
/// `repro analyze --root crates/analyze/tests/fixtures --no-cache
/// --jsonl crates/analyze/tests/golden/fixtures.jsonl
/// --emit-traps crates/analyze/tests/golden/fixtures.traps.json`.
#[test]
fn fixture_report_and_trap_file_are_byte_identical_to_the_golden() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let report = analyze_workspace(&fixtures_root()).expect("analyze fixtures");
    let want = std::fs::read_to_string(golden.join("fixtures.jsonl")).expect("golden jsonl");
    assert!(
        report.to_jsonl() == want,
        "fixture JSONL report differs from tests/golden/fixtures.jsonl:\n{}",
        report.to_jsonl()
    );

    let dir = std::env::temp_dir().join(format!("tsvd_analyzer_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let traps = dir.join("traps.json");
    report.to_trap_file().save(&traps).expect("save trap file");
    let got = std::fs::read(&traps).expect("read trap file");
    let want = std::fs::read(golden.join("fixtures.traps.json")).expect("golden trap file");
    assert!(
        got == want,
        "fixture trap file differs from tests/golden/fixtures.traps.json:\n{}",
        String::from_utf8_lossy(&got)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn score_on_fixture_run_report_meets_the_checked_in_baseline() {
    let report = analyze_workspace(&fixtures_root()).expect("analyze fixtures");
    let dir = std::env::temp_dir().join(format!("tsvd_analyzer_score_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let static_path = dir.join("static.jsonl");
    std::fs::write(&static_path, report.to_jsonl()).expect("write jsonl");

    let (kept, pruned) = load_candidates(&static_path).expect("load candidates");
    assert_eq!(kept.len(), 9);
    assert_eq!(pruned.len(), 5);
    let outcomes =
        load_outcomes(&fixtures_root().join("score/run-report.jsonl")).expect("load outcomes");
    assert_eq!(outcomes.len(), 6);

    let sr = score(&kept, &pruned, &outcomes);
    // 4 of 9 static candidates confirmed dynamically; 4 of 6 dynamic pairs
    // predicted; nothing confirmed was pruned — in particular none of the
    // three HB-ordered prunes.
    assert_eq!(sr.emitted, 9);
    assert_eq!(sr.confirmed, 4);
    assert_eq!(sr.dynamic_total, 6);
    assert_eq!(sr.matched_dynamic, 4);
    assert_eq!(sr.pruned, 5);
    assert_eq!(sr.pruned_confirmed, 0, "no true candidate was pruned");
    let cross = sr.rules.get("cross-task").expect("cross-task rule");
    assert_eq!((cross.emitted, cross.confirmed), (4, 2));
    let main = sr
        .rules
        .get("main-vs-spawned")
        .expect("main-vs-spawned rule");
    assert_eq!((main.emitted, main.confirmed), (5, 2));

    let baseline =
        Baseline::load(&fixtures_root().join("score/baseline.json")).expect("load baseline");
    sr.check_baseline(&baseline)
        .expect("fixture precision/recall must meet the recorded baseline");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hb_pruning_strictly_improves_precision_at_equal_recall() {
    // The A/B the baseline refresh rests on: re-admit the HB-pruned
    // records as if the pass did not exist and score both ways. Pruning
    // must raise precision and must not lose a single dynamic match.
    let report = analyze_workspace(&fixtures_root()).expect("analyze fixtures");
    let dir = std::env::temp_dir().join(format!("tsvd_analyzer_ab_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let static_path = dir.join("static.jsonl");
    std::fs::write(&static_path, report.to_jsonl()).expect("write jsonl");
    let (kept, pruned) = load_candidates(&static_path).expect("load candidates");
    let outcomes =
        load_outcomes(&fixtures_root().join("score/run-report.jsonl")).expect("load outcomes");

    let with_hb = score(&kept, &pruned, &outcomes);
    let mut without_kept = kept.clone();
    without_kept.extend(pruned.iter().filter(|c| c.rule == "ordered").cloned());
    let without_pruned: Vec<_> = pruned
        .iter()
        .filter(|c| c.rule != "ordered")
        .cloned()
        .collect();
    let without_hb = score(&without_kept, &without_pruned, &outcomes);

    assert_eq!(without_hb.emitted, 12, "three re-admitted candidates");
    assert!(
        with_hb.precision > without_hb.precision,
        "HB pruning must strictly improve precision: {} vs {}",
        with_hb.precision,
        without_hb.precision
    );
    assert_eq!(
        with_hb.matched_dynamic, without_hb.matched_dynamic,
        "recall must be unchanged"
    );
    assert_eq!(with_hb.pruned_confirmed, 0);
    std::fs::remove_dir_all(&dir).ok();
}
