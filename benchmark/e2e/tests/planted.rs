//! The tree generator's claim, checked against the analyzer itself: a tree
//! plants exactly the files, sites, pairs and pruned pairs it says it does,
//! whatever the seed, and an edit round changes none of them.

use tsvd_analyze::{analyze_workspace_with, AnalyzeOptions};
use tsvd_benchmark::tree::{apply_edit, generate, TreeSpec};

#[test]
fn analyzer_reports_exactly_what_the_generator_planted() {
    let spec = TreeSpec {
        crates: 2,
        files_per_crate: 4,
        slabs_per_file: 3,
    };
    for seed in [1u64, 0x534D_414C] {
        let root =
            std::env::temp_dir().join(format!("tsvd_bench_planted_{}_{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let planted = generate(&root, &spec, seed).expect("generate");
        for round in 0..2 {
            let report =
                analyze_workspace_with(&root, &AnalyzeOptions::default()).expect("analyze");
            assert_eq!(
                (
                    report.files_scanned as usize,
                    report.sites.len(),
                    report.pairs.len(),
                    report.pruned_pairs.len(),
                    report.escapes.len(),
                    report.files_skipped,
                ),
                (
                    planted.files,
                    planted.sites,
                    planted.pairs,
                    planted.pruned_pairs,
                    0,
                    0
                ),
                "seed {seed}, after {round} edit rounds"
            );
            apply_edit(&root, &spec, seed, round).expect("edit");
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
