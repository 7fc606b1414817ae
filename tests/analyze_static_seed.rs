//! End-to-end: static priors from `tsvd-analyze` remove the warm-up run.
//!
//! The workload below touches a shared dictionary exactly once per task
//! per run. For the dynamic detector that is the worst case (§3.4.6): the
//! near miss that would arm the dangerous pair happens at the *last*
//! access of the run, so run 1 can never trap and a second, trap-file
//! seeded run is required. The static analyzer predicts the same pair
//! from this file's source before any run, and importing it as a prior
//! lets TSVD catch the violation in run 1.
//!
//! The test analyzes *its own source*, which doubles as a proof that the
//! analyzer's `file:line:column` output matches what `#[track_caller]`
//! records at run time — the pairs only pre-arm if the site ids agree.

use std::sync::{Arc, Mutex, MutexGuard};

use tsvd::prelude::*;
use tsvd_core::{PairOrigin, TrapFileData};

/// This file's path exactly as `Location::caller()` reports it (cargo
/// compiles from the workspace root).
const SELF_PATH: &str = "tests/analyze_static_seed.rs";

/// Serialises this file's runtime-driving tests. Each of them asserts on
/// what two tasks do inside a few milliseconds of wall clock, and cargo runs
/// a file's tests on parallel threads: on a two-core box they pre-empt each
/// other's schedules. One at a time, each has the machine to itself.
static RUNTIME_TESTS: Mutex<()> = Mutex::new(());

fn serialised() -> MutexGuard<'static, ()> {
    // A failed test poisons the mutex; the `()` inside cannot be left
    // half-updated, so the others carry on and report on their own merits.
    RUNTIME_TESTS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn config(seed_shift: u64) -> TsvdConfig {
    let mut config = TsvdConfig::paper().scaled(0.05);
    config.seed = config.seed.wrapping_add(seed_shift);
    config
}

/// One test run: two tasks, one conflicting `Dictionary.set` each. The
/// two pool workers are released together and often arrive microseconds
/// apart; when both delay, the later one's re-check after setting its trap
/// catches the earlier one.
fn run_workload_once(rt: &Arc<Runtime>) {
    let pool = Pool::with_runtime(2, rt.clone());
    let d: Dictionary<u64, u64> = Dictionary::new(rt);
    let d1 = d.clone();
    let d2 = d.clone();
    let a = pool.spawn(move || d1.set(1, 1));
    let b = pool.spawn(move || d2.set(2, 2));
    a.wait();
    b.wait();
}

/// Statically analyzes this very file and returns its predicted pairs as
/// a trap file.
fn static_priors() -> TrapFileData {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let report =
        tsvd::analyze::analyze_paths(root, &[SELF_PATH.to_string()]).expect("analyze own source");
    assert!(
        report.pairs.iter().any(|p| {
            p.first_op == "Dictionary.set"
                && p.second_op == "Dictionary.set"
                && p.reason == "cross-task"
        }),
        "the analyzer must predict the workload's write-write pair, got {:?}",
        report.pairs
    );
    let priors = report.to_trap_file();
    assert_eq!(
        priors.count_origin(PairOrigin::Static),
        priors.pairs.len(),
        "every predicted pair must be tagged static"
    );
    priors
}

#[test]
fn unseeded_first_run_cannot_catch_a_once_per_run_pair() {
    let _serial = serialised();
    for attempt in 0..10 {
        let rt = Runtime::tsvd(config(attempt));
        run_workload_once(&rt);
        assert_eq!(
            rt.reports().unique_bugs(),
            0,
            "each site runs once: arming happens at the run's last access, \
             so an unseeded first run must never trap"
        );
    }
}

#[test]
fn statically_seeded_first_run_catches_it() {
    let _serial = serialised();
    let priors = static_priors();
    let mut first_catch = None;
    for attempt in 0..10 {
        // Every attempt is a *first* run: fresh runtime, static priors
        // only, no dynamically carried trap file.
        let rt = Runtime::tsvd(config(attempt));
        rt.import_trap_file(&priors);
        run_workload_once(&rt);
        if rt.reports().unique_bugs() > 0 {
            let violations = rt.reports().violations();
            let trapped = violations[0].trapped.site.to_string();
            assert!(
                priors
                    .pairs
                    .iter()
                    .any(|(a, b)| *a == trapped || *b == trapped),
                "the trapped site {trapped} must be one the analyzer predicted \
                 (column convention mismatch otherwise): {:?}",
                priors.pairs
            );
            assert!(trapped.starts_with(SELF_PATH));
            first_catch = Some(attempt + 1);
            break;
        }
    }
    assert!(
        first_catch.is_some(),
        "statically seeded TSVD must catch the pair in a first run"
    );
}

#[test]
fn statically_seeded_mean_runs_to_first_violation_stays_at_one() {
    let _serial = serialised();
    let priors = static_priors();
    const SEEDS: u64 = 100;
    let mut total_runs = 0u32;
    let mut retried: Vec<(u64, u32)> = Vec::new();
    for seed in 0..SEEDS {
        let mut carried = priors.clone();
        let mut runs = 0u32;
        loop {
            runs += 1;
            // Larger time constants than the probe tests above: at tiny
            // scales the trap delay occasionally expires before the second
            // task arrives, which would measure flakiness, not seeding.
            let mut cfg = TsvdConfig::paper().scaled(0.2);
            cfg.seed = cfg.seed.wrapping_add(1_000 + seed * 17 + u64::from(runs));
            let rt = Runtime::tsvd(cfg);
            rt.import_trap_file(&carried);
            run_workload_once(&rt);
            if rt.reports().unique_bugs() > 0 {
                break;
            }
            // A miss carries its learned trap state into the retry, the
            // same way the real pipeline chains runs (§3.4.6).
            if let Some(exported) = rt.export_trap_file() {
                carried.merge(&exported);
            }
            assert!(runs < 10, "seed {seed}: no violation after 10 runs");
        }
        total_runs += runs;
        if runs > 1 {
            retried.push((seed, runs));
        }
    }
    let mean = f64::from(total_runs) / SEEDS as f64;
    assert!(
        mean <= 1.01,
        "statically seeded runs-to-first-violation regressed: mean {mean} > 1.01 \
         over {SEEDS} seeds; (seed, runs) that needed more than one: {retried:?}"
    );
}

#[test]
fn dynamic_detector_needs_the_second_run_the_priors_remove() {
    let _serial = serialised();
    // Run 1, unseeded: the near miss arms the pair but nothing traps.
    // Arming needs both tasks inside the near-miss window, so under a
    // loaded parallel test run the scheduler can push them apart; retry
    // with a fresh runtime like detection_e2e's `eventually` loops do.
    let mut armed = None;
    for attempt in 0..10 {
        let rt1 = Runtime::tsvd(config(100 + 100 * attempt));
        run_workload_once(&rt1);
        assert_eq!(rt1.reports().unique_bugs(), 0);
        let carried = rt1
            .export_trap_file()
            .expect("run 1 must export its trap set");
        if !carried.to_pairs().is_empty() {
            armed = Some(carried);
            break;
        }
    }
    let carried = armed.expect("the near miss must have armed the pair for run 2");

    // Run 2, seeded with run 1's dynamically learned trap file: caught.
    let mut caught = false;
    for attempt in 0..10 {
        let rt2 = Runtime::tsvd(config(101 + attempt));
        rt2.import_trap_file(&carried);
        run_workload_once(&rt2);
        if rt2.reports().unique_bugs() > 0 {
            caught = true;
            break;
        }
    }
    assert!(
        caught,
        "the dynamically seeded second run must catch the pair"
    );
}

#[test]
fn run_options_static_priors_reach_module_runtimes() {
    use tsvd::harness::runner::{run_module_once, DetectorKind, RunOptions};
    use tsvd::workloads::module::{Expectation, Module};

    let _serial = serialised();
    let priors = static_priors();
    let mut options = RunOptions::with_static_priors(priors.clone());
    options.config = config(7);
    let module = Module::new("idle", 1, Expectation::Clean, false, "List", |_| {});
    let run = run_module_once(&module, DetectorKind::Tsvd, &options, None);
    // The exported set re-tags origins as dynamic (it is the run's learned
    // state), so membership — not origin — is what must survive.
    let exported = run
        .runtime
        .export_trap_file()
        .expect("tsvd strategy keeps a trap set");
    for (a, b) in &priors.pairs {
        assert!(
            exported
                .pairs
                .iter()
                .any(|(x, y)| (x == a && y == b) || (x == b && y == a)),
            "prior pair ({a}, {b}) must land in the module's trap set, got {:?}",
            exported.pairs
        );
    }
}
