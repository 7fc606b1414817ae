//! Diagnostic: where a two-run TSVD pass spends its delays, per run and per
//! scenario family, summed over a list of detector seeds. Each module's trap
//! file is carried from run 1 into run 2, as `run_suite` does (§3.4.6).
//! Run it manually with
//! `cargo test --release -p tsvd-harness --test diag_delays -- --nocapture --ignored`
//! (about a second per seed in release).
//!
//! One row per (run, family): delays injected, traps caught, milliseconds
//! slept in delays, and bugs first found in that run. Then a total per run
//! and a grand total. A change to the delay planner that claims fewer
//! delays reads them here, next to the bugs it must not lose.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Duration;

use tsvd_core::near_miss::SitePair;
use tsvd_core::{TrapFileData, TsvdConfig};
use tsvd_harness::runner::{run_module_once, DetectorKind, RunOptions};
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
}

impl Row {
    fn add(&mut self, other: Row) {
        self.delays += other.delays;
        self.caught += other.caught;
        self.slept_ns += other.slept_ns;
        self.new_bugs += other.new_bugs;
    }

    fn print(&self, run: &str, family: &str) {
        println!(
            "{run:>5}  {family:28} {:>7} {:>7} {:>10.1} {:>8}",
            self.delays,
            self.caught,
            self.slept_ns as f64 / 1e6,
            self.new_bugs
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
    let base = RunOptions {
        config: TsvdConfig::paper().scaled(0.02),
        threads: 2,
        runs: RUNS,
        module_deadline: Some(Duration::from_secs(30)),
        static_priors: None,
    };
    // (run, family) → counts, over every seed.
    let mut rows: BTreeMap<(usize, String), Row> = BTreeMap::new();
    for seed in SEEDS {
        let mut trap_files: HashMap<String, TrapFileData> = HashMap::new();
        let mut bugs: HashSet<(String, SitePair)> = HashSet::new();
        for run in 0..RUNS {
            // The per-run reseeding `run_suite` does.
            let mut options = base.clone();
            options.config.seed = base
                .config
                .seed
                .wrapping_add(seed)
                .wrapping_add((run as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for module in &suite {
                let family = module.name().split(':').nth(1).unwrap_or("?");
                let executed = run_module_once(
                    module,
                    DetectorKind::Tsvd,
                    &options,
                    trap_files.get(module.name()),
                );
                let stats = executed.runtime.stats();
                let new_bugs = executed
                    .runtime
                    .reports()
                    .bug_pairs()
                    .into_iter()
                    .filter(|&pair| bugs.insert((module.name().to_string(), pair)))
                    .count() as u64;
                rows.entry((run + 1, family.to_string()))
                    .or_default()
                    .add(Row {
                        delays: stats.delays_injected(),
                        caught: stats.traps_caught(),
                        slept_ns: stats.delay_total_ns(),
                        new_bugs,
                    });
                if let Some(traps) = executed.runtime.export_trap_file() {
                    trap_files.insert(module.name().to_string(), traps);
                }
            }
        }
    }

    println!(
        "{} seeds, {} modules, {RUNS} runs each, trap files carried",
        SEEDS.len(),
        suite.len()
    );
    println!(
        "{:>5}  {:28} {:>7} {:>7} {:>10} {:>8}",
        "run", "family", "delays", "caught", "slept_ms", "new_bugs"
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
}
