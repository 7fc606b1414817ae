//! CI gate for the paper's headline number: what TSVD costs and finds when
//! a team turns it on for a two-run test suite (Table 2, §5.5).
//!
//! A measurement runs the 100-module suite once per detector seed in
//! [`SEEDS`] (the first [`QUICK_SEEDS`] of them with `--quick`): one pass
//! under `Noop` and one under `Tsvd`, each two runs with trap files carried
//! (§3.4.6), in alternating order from seed to seed. It records, over the
//! seeds:
//!
//! - unique bugs (a bug counts in the run that first finds it);
//! - milliseconds slept in injected delays;
//! - the share of that sleep spent in `Clean` modules, where every delay
//!   is wasted (informational);
//! - `slowdown_x`: the median over the seeds of the `Tsvd` pass's wall ÷
//!   the `Noop` pass's, each seed a round whose two passes share the box's
//!   state.
//!
//! `--write BENCH_suite.json [--quick]` measures five times and persists,
//! per gated row, the median of the five (and every measurement's `Clean`
//! violations, and the lowest recall, so an invariant that broke once
//! refuses the write); `--check BENCH_suite.json [--quick]` measures again
//! and fails (exit 1) if unique
//! bugs fell more than 2 %, sleep grew more than 5 % or `slowdown_x` more
//! than 15 %, or if an invariant broke: no violation in a `Clean` module,
//! and every `first_run_catchable` module caught in every seed's pass. The
//! bounds were set from the spread of repeated measurements of one build
//! (EXPERIMENTS.md, "Run 2 keeps the ordered pairs run 1 settled"). Sums
//! over 8 seeds and over 24 are different numbers, so a row's label names
//! its seed count, and a check in the other mode than the file's fails on
//! the missing rows. CI checks a `--quick` file.
//!
//! `--table [--quick]` prints where the sleep goes instead: one row per
//! (run, family), summed over the seeds — delays injected, traps caught,
//! milliseconds slept, bugs first found in that run, and what became of the
//! dangerous pairs, read off each module's pair table at the end of its
//! run ([`PairCounts`]). First the end states: pairs still armed, by how
//! they arrived — a near miss (`arm_disc`), the trap file (`arm_imp`), a
//! fork-ordered near miss (`arm_ord`); pairs found buggy (`found`);
//! imported pairs that decayed out (`decayed`); ordered settlements made
//! in this run (`set_here`) and carried in from run 1 (`set_car`); HB edges
//! inferred in this run (`edge_run`) and carried in and not inferred again
//! (`edge_car`). Then the events no end state records: delays at sites
//! whose every armed pair was ordered (`ord_del`), delays there not
//! injected because another context's delay was running at the site
//! (`ord_skip`), ordered near misses a carried settlement kept from arming
//! (`set_out`), and near misses a carried HB edge kept from arming
//! (`edge_out`). Then a total per run, a grand total, and the gate's
//! numbers. Compare builds on the totals over repeated runs: the pool's
//! scheduling moves a family's row between two runs of one binary more
//! than most planner changes do.

use std::collections::{BTreeMap, HashSet};
use std::ops::ControlFlow;
use std::process::ExitCode;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use tsvd_bench::gate::{self, median, Baseline, Bound, Row};
use tsvd_core::trapset::PairCounts;
use tsvd_fleet::runner::{run_suite, run_suite_observed, DetectorKind, RunOptions};
use tsvd_workloads::module::Expectation;
use tsvd_workloads::suite::{build_suite, SuiteConfig};
use tsvd_workloads::Module;

/// Detector seeds, added to the paper configuration's seed.
const SEEDS: [u64; 24] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
];

/// Seeds of a `--quick` measurement.
const QUICK_SEEDS: usize = 8;

/// Runs per pass: run 2 starts from run 1's trap files.
const RUNS: usize = 2;

/// Unique bugs may fall to this factor of the baseline's.
const MIN_BUGS: f64 = 0.98;
/// Milliseconds slept may grow to this factor of the baseline's.
const MAX_SLEPT: f64 = 1.05;
/// `slowdown_x` may grow to this factor of the baseline's.
const MAX_SLOWDOWN: f64 = 1.15;

/// The suite every pass runs: the benchmark's `suite_pass` suite.
fn suite() -> Vec<Module> {
    build_suite(SuiteConfig {
        modules: 100,
        seed: 0x534D_414C,
    })
}

/// The table's [`PairCounts`] columns, in [`pair_columns`]' order.
const PAIR_COLUMNS: [&str; 13] = [
    "arm_disc", "arm_imp", "arm_ord", "found", "decayed", "set_here", "set_car", "edge_run",
    "edge_car", "ord_del", "ord_skip", "set_out", "edge_out",
];

/// `counts` as the table's [`PAIR_COLUMNS`].
fn pair_columns(counts: PairCounts) -> [u64; 13] {
    [
        counts.armed_discovered,
        counts.armed_imported,
        counts.armed_ordered,
        counts.found,
        counts.decayed_out,
        counts.settled_here,
        counts.settled_carried,
        counts.edge_run,
        counts.edge_carried,
        counts.ordered_delays,
        counts.ordered_skipped,
        counts.settlement_kept_out,
        counts.edge_kept_out,
    ]
}

/// One (run, family) row of the table.
#[derive(Default, Clone, Copy)]
struct Counts {
    delays: u64,
    caught: u64,
    slept_ns: u64,
    new_bugs: u64,
    pairs: [u64; 13],
}

impl Counts {
    fn add(&mut self, other: Counts) {
        self.delays += other.delays;
        self.caught += other.caught;
        self.slept_ns += other.slept_ns;
        self.new_bugs += other.new_bugs;
        for (sum, n) in self.pairs.iter_mut().zip(other.pairs) {
            *sum += n;
        }
    }

    fn print(&self, run: &str, family: &str) {
        let pairs: String = self.pairs.iter().map(|n| format!(" {n:>8}")).collect();
        println!(
            "{run:>5}  {family:24} {:>7} {:>7} {:>10.1} {:>8}{pairs}",
            self.delays,
            self.caught,
            self.slept_ns as f64 / 1e6,
            self.new_bugs,
        );
    }
}

/// Everything one measurement saw.
#[derive(Default)]
struct Passes {
    seeds: usize,
    /// (run, family) → counts, over every seed.
    rows: BTreeMap<(usize, String), Counts>,
    clean_slept_ns: u64,
    /// `Clean` modules that reported a violation, one entry per seed.
    clean_violations: Vec<String>,
    /// `first_run_catchable` modules caught, and passes over them.
    catchable: (usize, usize),
    /// Per seed: the `Tsvd` pass's wall ÷ the `Noop` pass's.
    slowdowns: Vec<f64>,
}

impl Passes {
    fn total(&self) -> Counts {
        let mut total = Counts::default();
        for row in self.rows.values() {
            total.add(*row);
        }
        total
    }
}

/// Runs the `Noop` and `Tsvd` passes of every seed of the mode.
fn measure_passes(quick: bool) -> Passes {
    let suite = suite();
    let seeds = &SEEDS[..if quick { QUICK_SEEDS } else { SEEDS.len() }];
    let mut passes = Passes {
        seeds: seeds.len(),
        ..Passes::default()
    };
    let options_for = |seed: u64| {
        let mut options = RunOptions::standard();
        options.runs = RUNS;
        options.config.seed = options.config.seed.wrapping_add(seed);
        options
    };
    // Warm-up: fault in the pool, the runtime and every call site before
    // anything is timed.
    run_suite(&suite, DetectorKind::Noop, &options_for(0));
    run_suite(&suite, DetectorKind::Tsvd, &options_for(0));
    for (round, &seed) in seeds.iter().enumerate() {
        let options = options_for(seed);
        let mut caught: HashSet<String> = HashSet::new();
        let mut tsvd_pass = || {
            let start = Instant::now();
            run_suite_observed(&suite, DetectorKind::Tsvd, &options, |execution| {
                let runtime = &execution.result.runtime;
                let (module, stats) = (execution.module, runtime.stats());
                if module.expectation() == Expectation::Clean {
                    passes.clean_slept_ns += stats.delay_total_ns();
                }
                if !execution.new_bugs.is_empty() {
                    caught.insert(module.name().to_string());
                }
                let key = (execution.run, module.family().to_string());
                passes.rows.entry(key).or_default().add(Counts {
                    delays: stats.delays_injected(),
                    caught: stats.traps_caught(),
                    slept_ns: stats.delay_total_ns(),
                    new_bugs: execution.new_bugs.len() as u64,
                    pairs: pair_columns(runtime.pair_counts()),
                });
                ControlFlow::Continue(())
            });
            start.elapsed().as_secs_f64()
        };
        let noop_pass = || {
            let start = Instant::now();
            run_suite(&suite, DetectorKind::Noop, &options);
            start.elapsed().as_secs_f64()
        };
        let (noop_s, tsvd_s) = if round % 2 == 0 {
            let noop_s = noop_pass();
            (noop_s, tsvd_pass())
        } else {
            let tsvd_s = tsvd_pass();
            (noop_pass(), tsvd_s)
        };
        passes.slowdowns.push(tsvd_s / noop_s);
        for module in &suite {
            match module.expectation() {
                Expectation::Clean if caught.contains(module.name()) => {
                    passes.clean_violations.push(module.name().to_string());
                }
                Expectation::Buggy {
                    first_run_catchable: true,
                    ..
                } => {
                    passes.catchable.0 += usize::from(caught.contains(module.name()));
                    passes.catchable.1 += 1;
                }
                _ => {}
            }
        }
        eprintln!(
            "  seed {seed:>2}: slowdown {:.3}x ({tsvd_s:.2} s / {noop_s:.2} s)",
            tsvd_s / noop_s
        );
    }
    passes
}

#[derive(Debug, Serialize, Deserialize)]
struct BenchFile {
    schema_version: u32,
    mode: String,
    /// Cores the measuring machine offered (recorded; every row compares).
    nproc: u32,
    /// Detector seeds, each one `Noop` and one `Tsvd` pass.
    seeds: u32,
    /// Unique bugs over the seeds.
    unique_bugs: u64,
    /// Milliseconds slept in injected delays over the seeds.
    slept_ms: f64,
    /// Share of `slept_ms` spent in `Clean` modules (informational).
    clean_share: f64,
    /// Median over the seeds of `Tsvd` wall ÷ `Noop` wall.
    slowdown_x: f64,
    /// `Clean` modules that reported a violation (must be empty).
    clean_violations: Vec<String>,
    /// Caught ÷ passes over `first_run_catchable` modules (must be 1).
    catchable_recall: f64,
}

impl Baseline for BenchFile {
    const NAME: &'static str = "suite";
    const SCHEMA_VERSION: u32 = 1;

    fn measure(quick: bool) -> BenchFile {
        let passes = measure_passes(quick);
        let total = passes.total();
        let file = BenchFile {
            schema_version: Self::SCHEMA_VERSION,
            mode: if quick { "quick" } else { "full" }.to_string(),
            nproc: gate::nproc(),
            seeds: passes.seeds as u32,
            unique_bugs: total.new_bugs,
            slept_ms: total.slept_ns as f64 / 1e6,
            clean_share: passes.clean_slept_ns as f64 / total.slept_ns.max(1) as f64,
            slowdown_x: median(passes.slowdowns.iter().copied()),
            clean_violations: passes.clean_violations,
            catchable_recall: passes.catchable.0 as f64 / passes.catchable.1.max(1) as f64,
        };
        eprintln!(
            "  {} seeds: {} unique bugs, {:.1} ms slept (Clean share {:.3}), slowdown {:.3}x",
            file.seeds, file.unique_bugs, file.slept_ms, file.clean_share, file.slowdown_x
        );
        file
    }

    fn nproc(&self) -> u32 {
        self.nproc
    }

    fn check_invariants(&self) -> Result<String, String> {
        let mut broken = Vec::new();
        if !self.clean_violations.is_empty() {
            broken.push(format!(
                "violations in Clean modules: {}",
                self.clean_violations.join(" ")
            ));
        }
        if self.catchable_recall < 1.0 {
            broken.push(format!(
                "first_run_catchable recall {:.3}, must be 1",
                self.catchable_recall
            ));
        }
        if broken.is_empty() {
            Ok("no Clean violation, first_run_catchable recall 1".to_string())
        } else {
            Err(broken.join("; "))
        }
    }

    fn rows(&self) -> Vec<Row> {
        let row = |what: &str, value: f64, bound| Row {
            label: format!("{what} ({} seeds)", self.seeds),
            normalized: value,
            needs_cores: 1,
            bound,
        };
        vec![
            row(
                "unique bugs",
                self.unique_bugs as f64,
                Bound::AtLeast(MIN_BUGS),
            ),
            row("ms slept", self.slept_ms, Bound::AtMost(MAX_SLEPT)),
            row("slowdown_x", self.slowdown_x, Bound::AtMost(MAX_SLOWDOWN)),
        ]
    }

    /// The median of five: a stored value one measurement's noise put at
    /// an end of its spread leaves a later `--check` no headroom on that
    /// side.
    fn measure_for_write(measure: impl Fn() -> BenchFile) -> BenchFile {
        let measurements: Vec<BenchFile> = (0..5).map(|_| measure()).collect();
        let of = |value: fn(&BenchFile) -> f64| median(measurements.iter().map(value));
        let first = &measurements[0];
        let file = BenchFile {
            schema_version: first.schema_version,
            mode: first.mode.clone(),
            nproc: first.nproc,
            seeds: first.seeds,
            unique_bugs: of(|m| m.unique_bugs as f64) as u64,
            slept_ms: of(|m| m.slept_ms),
            clean_share: of(|m| m.clean_share),
            slowdown_x: of(|m| m.slowdown_x),
            clean_violations: measurements
                .iter()
                .flat_map(|m| m.clean_violations.iter().cloned())
                .collect(),
            catchable_recall: measurements
                .iter()
                .map(|m| m.catchable_recall)
                .fold(1.0, f64::min),
        };
        eprintln!(
            "  median of {}: {} unique bugs, {:.1} ms slept, slowdown {:.3}x",
            measurements.len(),
            file.unique_bugs,
            file.slept_ms,
            file.slowdown_x
        );
        file
    }
}

/// `--table [--quick]`: the per-(run, family) rows and the gate's numbers.
fn print_table(quick: bool) {
    let passes = measure_passes(quick);
    println!(
        "{} seeds, {} modules, {RUNS} runs each, trap files carried",
        passes.seeds,
        suite().len()
    );
    let pairs: String = PAIR_COLUMNS.iter().map(|c| format!(" {c:>8}")).collect();
    println!(
        "{:>5}  {:24} {:>7} {:>7} {:>10} {:>8}{pairs}",
        "run", "family", "delays", "caught", "slept_ms", "new_bugs"
    );
    let mut per_run = [Counts::default(); RUNS];
    for ((run, family), row) in &passes.rows {
        row.print(&run.to_string(), family);
        per_run[run - 1].add(*row);
    }
    for (run, row) in per_run.iter().enumerate() {
        row.print(&(run + 1).to_string(), "(run total)");
    }
    let total = passes.total();
    total.print("all", "(total)");
    println!(
        "unique bugs {}, slept {:.1} ms, Clean share of sleep {:.3}, slowdown {:.3}x",
        total.new_bugs,
        total.slept_ns as f64 / 1e6,
        passes.clean_slept_ns as f64 / total.slept_ns.max(1) as f64,
        median(passes.slowdowns.iter().copied())
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--table"] => print_table(false),
        ["--table", "--quick"] | ["--quick", "--table"] => print_table(true),
        _ => return gate::run::<BenchFile>(),
    }
    ExitCode::SUCCESS
}
