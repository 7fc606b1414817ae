//! Suite-level integration: detectors against the generated corpus and the
//! Table 4 open-source analogs.

use std::ops::ControlFlow;

use tsvd::harness::runner::{
    check_no_false_positives, run_suite, run_suite_observed, DetectorKind, RunOptions,
};
use tsvd::workloads::module::Module;
use tsvd::workloads::opensource::projects;
use tsvd::workloads::suite::{build_suite, SuiteConfig};

fn options(runs: usize) -> RunOptions {
    RunOptions {
        runs,
        ..RunOptions::standard()
    }
}

/// Whether a pass of up to three runs over `module` alone finds a bug; the
/// pass ends at the first run that does.
fn caught_within_three_runs(module: &Module) -> bool {
    let outcome = run_suite_observed(
        std::slice::from_ref(module),
        DetectorKind::Tsvd,
        &options(3),
        |execution| match execution.new_bugs {
            [] => ControlFlow::Continue(()),
            _ => ControlFlow::Break(()),
        },
    );
    outcome.total_bugs() > 0
}

#[test]
fn no_detector_reports_false_positives_on_the_suite() {
    let suite = build_suite(SuiteConfig::tiny());
    for kind in DetectorKind::TABLE2 {
        let outcome = run_suite(&suite, kind, &options(1));
        check_no_false_positives(&suite, &outcome)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    }
}

#[test]
fn tsvd_finds_bugs_on_the_tiny_suite() {
    let suite = build_suite(SuiteConfig::tiny());
    let outcome = run_suite(&suite, DetectorKind::Tsvd, &options(2));
    assert!(
        outcome.total_bugs() >= 2,
        "tiny suite plants 8+ catchable bugs; found {}",
        outcome.total_bugs()
    );
}

#[test]
fn trap_files_carry_over_between_suite_runs() {
    let suite = build_suite(SuiteConfig::tiny());
    let outcome = run_suite(&suite, DetectorKind::Tsvd, &options(3));
    // The single-shot module can only ever be caught from run 2 onward.
    let single_shot_found_late = outcome
        .bugs
        .iter()
        .filter(|((module, _), _)| module.contains("single-shot"))
        .all(|(_, &run)| run >= 2);
    assert!(
        single_shot_found_late,
        "single-shot bugs need the trap file"
    );
}

#[test]
fn open_source_projects_are_caught_within_three_runs() {
    // Paper: all Table 4 TSVs trigger within 2 runs. Allow one extra run
    // of slack for scheduler noise on small machines, and require the
    // clear majority of projects to be caught.
    let projects = projects();
    let caught = projects
        .iter()
        .filter(|project| caught_within_three_runs(&project.module))
        .count();
    assert!(
        caught >= projects.len() - 2,
        "only {caught}/{} open-source analogs caught in 3 runs",
        projects.len()
    );
}

#[test]
fn new_collection_scenarios_are_caught_within_three_runs() {
    use tsvd::workloads::scenarios::buggy;
    let scenarios = [
        buggy::set_membership(10),
        buggy::deque_workers(10),
        buggy::bitmap_flags(10),
        buggy::sorted_index(10),
        buggy::stack_undo(10),
    ];
    let caught = scenarios
        .iter()
        .filter(|m| caught_within_three_runs(m))
        .count();
    assert!(
        caught >= scenarios.len() - 1,
        "only {caught}/{} new scenarios caught",
        scenarios.len()
    );
}

#[test]
fn suite_outcome_bookkeeping_is_consistent() {
    let suite = build_suite(SuiteConfig::tiny());
    let outcome = run_suite(&suite, DetectorKind::Tsvd, &options(2));
    let per_run_total: usize = outcome.runs.iter().map(|r| r.new_bugs.len()).sum();
    assert_eq!(per_run_total, outcome.total_bugs());
    for (bug, run) in &outcome.bugs {
        assert!(*run >= 1 && *run <= 2);
        assert!(outcome.occurrences[bug] >= 1);
    }
}
