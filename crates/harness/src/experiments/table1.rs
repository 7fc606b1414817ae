//! Table 1: summary of bugs found on the Large suite.
//!
//! Reproduces the paper's three blocks — test targets, bugs found, and bug
//! properties (read-write share, same-location share, async share,
//! occurrence statistics, Dictionary/List shares) — from a TSVD run over
//! the Large suite analog, with per-violation metadata gathered directly
//! from each module's report sink.

use std::collections::HashSet;
use std::ops::ControlFlow;

use tsvd_core::near_miss::SitePair;
use tsvd_workloads::module::Expectation;
use tsvd_workloads::suite::{build_suite, SuiteConfig};

use crate::experiments::ExpOpts;
use crate::report::{pct, Table};
use crate::runner::{run_suite_observed, DetectorKind};

/// Per-suite aggregates for the Table 1 statistics.
#[derive(Default)]
struct Stats {
    unique_bugs: usize,
    unique_locations: usize,
    stack_pairs: usize,
    read_write_bugs: usize,
    same_location_bugs: usize,
    async_bugs: usize,
    dictionary_bugs: usize,
    list_bugs: usize,
    occurrences: Vec<usize>,
    stack_depths: Vec<usize>,
    modules_with_bugs: usize,
    families_with_bugs: HashSet<String>,
    total_tests: u64,
}

/// Runs the Table 1 statistics collection.
pub fn run(opts: &ExpOpts) -> Vec<Table> {
    let suite = build_suite(SuiteConfig {
        modules: opts.modules.max(50),
        seed: opts.seed ^ 0x4C41,
    });
    let mut options = opts.run_options();
    options.runs = 2;
    // Stack capture is what the stack-trace-pair and stack-depth rows need.
    options.config.capture_stacks = true;

    let mut stats = Stats {
        total_tests: suite.iter().map(|m| u64::from(m.tests())).sum(),
        ..Stats::default()
    };
    let families: HashSet<&str> = suite.iter().map(|m| m.family()).collect();
    let mut seen_stack_pairs: HashSet<String> = HashSet::new();

    // A bug's properties are read off the catch that first found it in
    // the pass; stack pairs count over every catch.
    let outcome = run_suite_observed(&suite, DetectorKind::Tsvd, &options, |execution| {
        let module = execution.module;
        let mut fresh: HashSet<SitePair> = execution.new_bugs.iter().map(|(_, p)| *p).collect();
        for v in execution.result.runtime.reports().violations() {
            if let (Some(a), Some(b)) = (&v.trapped.stack, &v.hitter.stack) {
                seen_stack_pairs.insert(format!("{}\u{1}{a}\u{1}{b}", module.name()));
            }
            if !fresh.remove(&v.pair()) {
                continue;
            }
            if v.is_read_write() {
                stats.read_write_bugs += 1;
            }
            if v.is_same_location() {
                stats.same_location_bugs += 1;
            }
            if module.uses_async() {
                stats.async_bugs += 1;
            }
            match module.structure() {
                "Dictionary" | "Cache" => stats.dictionary_bugs += 1,
                "List" => stats.list_bugs += 1,
                _ => {}
            }
            if let Some(stack) = &v.hitter.stack {
                stats.stack_depths.push(stack.lines().count() / 2);
            }
        }
        if !execution.new_bugs.is_empty() {
            stats.families_with_bugs.insert(module.family().to_owned());
        }
        ControlFlow::Continue(())
    });
    let locations: HashSet<(&str, tsvd_core::SiteId)> = outcome
        .bugs
        .keys()
        .flat_map(|(module, pair)| [pair.first, pair.second].map(|site| (module.as_str(), site)))
        .collect();
    let modules_with_bugs: HashSet<&str> = outcome.bugs.keys().map(|(m, _)| m.as_str()).collect();
    stats.unique_bugs = outcome.total_bugs();
    stats.unique_locations = locations.len();
    stats.stack_pairs = seen_stack_pairs.len();
    stats.occurrences = outcome.occurrences.values().copied().collect();
    stats.modules_with_bugs = modules_with_bugs.len();

    let planted: usize = suite.iter().map(|m| m.expectation().planted_pairs()).sum();
    let buggy_modules = suite
        .iter()
        .filter(|m| m.expectation() != Expectation::Clean)
        .count();

    let frac = |n: usize| {
        if stats.unique_bugs == 0 {
            0.0
        } else {
            n as f64 / stats.unique_bugs as f64
        }
    };

    let mut t = Table::new(
        format!(
            "Table 1: summary of bugs found (TSVD, {} modules, 2 runs)",
            suite.len()
        ),
        &["metric", "value"],
    );
    t.row(vec!["# of modules".into(), suite.len().to_string()]);
    t.row(vec!["# of tests".into(), stats.total_tests.to_string()]);
    t.row(vec!["# planted racy pairs".into(), planted.to_string()]);
    t.row(vec![
        "# modules with planted bugs".into(),
        buggy_modules.to_string(),
    ]);
    t.row(vec![
        "# of unique bugs (location pairs)".into(),
        stats.unique_bugs.to_string(),
    ]);
    t.row(vec![
        "# of unique bug locations".into(),
        stats.unique_locations.to_string(),
    ]);
    t.row(vec![
        "# of unique stack trace pairs".into(),
        stats.stack_pairs.to_string(),
    ]);
    t.row(vec![
        "% of module families with bugs".into(),
        pct(stats.families_with_bugs.len() as f64 / families.len().max(1) as f64),
    ]);
    t.row(vec![
        "% of modules with bugs".into(),
        pct(stats.modules_with_bugs as f64 / suite.len().max(1) as f64),
    ]);
    t.row(vec![
        "% of read-write bugs".into(),
        pct(frac(stats.read_write_bugs)),
    ]);
    t.row(vec![
        "% of same location bugs".into(),
        pct(frac(stats.same_location_bugs)),
    ]);
    t.row(vec![
        "% of bugs in async code".into(),
        pct(frac(stats.async_bugs)),
    ]);
    t.row(vec![
        "Avg (median) occurrence of a bug location".into(),
        format!(
            "{:.1} ({})",
            mean(&stats.occurrences),
            median(&mut stats.occurrences.clone())
        ),
    ]);
    t.row(vec![
        "Avg stack depth".into(),
        format!("{:.1}", mean(&stats.stack_depths)),
    ]);
    t.row(vec![
        "% of Dictionary bugs".into(),
        pct(frac(stats.dictionary_bugs)),
    ]);
    t.row(vec!["% of List bugs".into(), pct(frac(stats.list_bugs))]);
    vec![t]
}

fn mean(xs: &[usize]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<usize>() as f64 / xs.len() as f64
}

fn median(xs: &mut [usize]) -> usize {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    xs[xs.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2, 4]), 3.0);
        assert_eq!(median(&mut []), 0);
        assert_eq!(median(&mut [3, 1, 2]), 2);
    }

    #[test]
    fn table1_runs_on_small_input() {
        let opts = ExpOpts {
            modules: 50,
            ..ExpOpts::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 1);
        assert!(tables[0].len() >= 14);
    }
}
