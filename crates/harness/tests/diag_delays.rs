//! Diagnostic: where a two-run TSVD pass spends its delays, per run and per
//! scenario family, summed over a list of detector seeds. Each pass is a
//! `run_suite` pass (trap files carried from run 1 into run 2, §3.4.6) and
//! this file is only its observer.
//! Run it manually with
//! `cargo test --release -p tsvd-harness --test diag_delays -- --nocapture --ignored`
//! (about a second per seed in release).
//!
//! One row per (run, family): delays injected, traps caught, milliseconds
//! slept in delays, bugs first found in that run, and what the planner did
//! with fork-ordered near misses (pairs armed, pairs settled, delays at
//! sites whose every pair was ordered). Then a total per run, a grand
//! total, and the three figures a delay-policy change is judged by: unique
//! bugs, milliseconds slept, and the share of that sleep spent in `Clean`
//! modules, where every delay is wasted.
//!
//! Compare builds on those three totals, over repeated runs of each. The
//! per-family rows cannot tell two builds apart: the pool's scheduling
//! moves them between two runs of one binary, more than most planner
//! changes do.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use tsvd_harness::runner::{run_suite_observed, DetectorKind, RunOptions};
use tsvd_workloads::module::Expectation;
use tsvd_workloads::suite::{build_suite, SuiteConfig};

/// Detector seeds, added to the paper configuration's seed.
const SEEDS: [u64; 24] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
];

/// Runs per seed: run 2 starts from run 1's trap files.
const RUNS: usize = 2;

#[derive(Default, Clone, Copy)]
struct Row {
    delays: u64,
    caught: u64,
    slept_ns: u64,
    new_bugs: u64,
    ordered_armed: u64,
    ordered_settled: u64,
    ordered_delays: u64,
}

impl Row {
    fn add(&mut self, other: Row) {
        self.delays += other.delays;
        self.caught += other.caught;
        self.slept_ns += other.slept_ns;
        self.new_bugs += other.new_bugs;
        self.ordered_armed += other.ordered_armed;
        self.ordered_settled += other.ordered_settled;
        self.ordered_delays += other.ordered_delays;
    }

    fn print(&self, run: &str, family: &str) {
        println!(
            "{run:>5}  {family:28} {:>7} {:>7} {:>10.1} {:>8} {:>7} {:>7} {:>7}",
            self.delays,
            self.caught,
            self.slept_ns as f64 / 1e6,
            self.new_bugs,
            self.ordered_armed,
            self.ordered_settled,
            self.ordered_delays
        );
    }
}

#[test]
#[ignore]
fn per_run_delay_accounting() {
    let suite = build_suite(SuiteConfig {
        modules: 100,
        seed: 0x534D_414C,
    });
    // (run, family) → counts, over every seed.
    let mut rows: BTreeMap<(usize, String), Row> = BTreeMap::new();
    let mut clean_slept_ns = 0u64;
    for seed in SEEDS {
        let mut options = RunOptions::standard();
        options.runs = RUNS;
        options.config.seed = options.config.seed.wrapping_add(seed);
        run_suite_observed(&suite, DetectorKind::Tsvd, &options, |execution| {
            let stats = execution.result.runtime.stats();
            let ordered = stats.ordered();
            if execution.module.expectation() == Expectation::Clean {
                clean_slept_ns += stats.delay_total_ns();
            }
            rows.entry((execution.run, execution.module.family().to_string()))
                .or_default()
                .add(Row {
                    delays: stats.delays_injected(),
                    caught: stats.traps_caught(),
                    slept_ns: stats.delay_total_ns(),
                    new_bugs: execution.new_bugs.len() as u64,
                    ordered_armed: ordered.armed,
                    ordered_settled: ordered.settled,
                    ordered_delays: ordered.delays,
                });
            ControlFlow::Continue(())
        });
    }

    println!(
        "{} seeds, {} modules, {RUNS} runs each, trap files carried",
        SEEDS.len(),
        suite.len()
    );
    println!(
        "{:>5}  {:28} {:>7} {:>7} {:>10} {:>8} {:>7} {:>7} {:>7}",
        "run",
        "family",
        "delays",
        "caught",
        "slept_ms",
        "new_bugs",
        "ord_arm",
        "ord_set",
        "ord_del"
    );
    let mut per_run = [Row::default(); RUNS];
    for ((run, family), row) in &rows {
        row.print(&run.to_string(), family);
        per_run[run - 1].add(*row);
    }
    let mut total = Row::default();
    for (run, row) in per_run.iter().enumerate() {
        row.print(&(run + 1).to_string(), "(run total)");
        total.add(*row);
    }
    total.print("all", "(total)");
    println!(
        "unique bugs {}, slept {:.1} ms, Clean share of sleep {:.3}",
        total.new_bugs,
        total.slept_ns as f64 / 1e6,
        clean_slept_ns as f64 / total.slept_ns.max(1) as f64
    );
}
