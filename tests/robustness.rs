//! Robustness: the no-false-positive guarantee holds across arbitrary
//! seeds and scales, and detection results stay sane under repetition.

use tsvd::harness::runner::{
    check_no_false_positives, run_module_once, run_suite, DetectorKind, RunOptions,
};
use tsvd::prelude::*;
use tsvd::workloads::suite::{build_suite, SuiteConfig};

fn options(seed_shift: u64) -> RunOptions {
    let mut config = TsvdConfig::paper().scaled(0.02);
    config.seed = config.seed.wrapping_add(seed_shift);
    RunOptions {
        config,
        threads: 2,
        runs: 1,
        module_deadline: Some(std::time::Duration::from_secs(30)),
        static_priors: None,
    }
}

#[test]
fn no_false_positives_across_seeds() {
    // Every seed produces different delay placements; none may ever yield
    // a report in a clean module.
    for seed in 0..6u64 {
        let suite = build_suite(SuiteConfig {
            modules: 25,
            seed: 0xF00D ^ (seed * 7919),
        });
        let outcome = run_suite(&suite, DetectorKind::Tsvd, &options(seed * 31));
        check_no_false_positives(&suite, &outcome).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn pooled_trap_files_never_create_false_positives() {
    // Pre-arming every module with everyone's pairs injects delays in
    // clean modules too; the trap mechanism must still never report there.
    let suite = build_suite(SuiteConfig {
        modules: 50,
        seed: 0x5EED,
    });
    let mut o = options(0);
    // Run 1: each module on its own; pool what every one of them exports.
    let mut pooled = tsvd::core::TrapFileData::default();
    for module in &suite {
        let rt = run_module_once(module, DetectorKind::Tsvd, &o, None).runtime;
        if let Some(exported) = rt.export_trap_file() {
            pooled.merge(&exported);
        }
    }
    assert!(!pooled.pairs.is_empty(), "run 1 armed nothing to pool");
    // Run 2: the union reaches every module's runtime as static priors.
    o.static_priors = Some(pooled);
    let outcome = run_suite(&suite, DetectorKind::Tsvd, &o);
    check_no_false_positives(&suite, &outcome).expect("pooled trap files stay sound");
}

#[test]
fn repeated_single_module_runs_are_stable() {
    // The same buggy module under the same options: unique bugs per run
    // never exceed the planted count, reports never contradict ground
    // truth, and the runtime never leaks traps between runs.
    let m = tsvd::workloads::scenarios::paper_examples::dict_racy(8);
    let o = options(0);
    for _ in 0..6 {
        let rt = run_module_once(&m, DetectorKind::Tsvd, &o, None).runtime;
        assert!(rt.reports().unique_bugs() <= 2);
        for v in rt.reports().violations() {
            assert!(v.trapped.op_name.starts_with("Dictionary."));
        }
    }
}

/// A strategy that always delays and always panics in `on_delay_complete`
/// — the hostile-callback case the runtime's RAII guards must absorb.
struct PanickingStrategy;

impl tsvd::core::Strategy for PanickingStrategy {
    fn name(&self) -> &'static str {
        "panicking"
    }

    fn on_access(&self, _access: &tsvd::core::Access, _concurrent: bool) -> Option<u64> {
        Some(100_000) // 0.1 ms: enough to arm a real trap.
    }

    fn on_delay_complete(
        &self,
        _access: &tsvd::core::Access,
        _start_ns: u64,
        _end_ns: u64,
        _caught: bool,
    ) {
        panic!("strategy callback explodes");
    }
}

#[test]
fn panicking_strategy_callback_leaves_no_live_traps() {
    let rt = tsvd::core::Runtime::new(TsvdConfig::for_testing(), Box::new(PanickingStrategy));
    for i in 0..5u64 {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.on_call(
                tsvd::core::ObjId(i),
                tsvd::core::site!(),
                "t.op",
                tsvd::core::OpKind::Write,
            );
        }));
        assert!(result.is_err(), "the callback's panic must propagate");
        assert_eq!(
            rt.live_traps(),
            0,
            "a panic unwinding through on_call must still clear the trap"
        );
    }
}

#[test]
fn panicking_instrumented_task_leaves_no_live_traps() {
    // Unwind through the trapped wrapper call itself: a task panics right
    // after instrumented accesses that may be sleeping in a delay.
    let mut config = TsvdConfig::for_testing();
    config.dynamic_random_p = 1.0; // Delay at every access.
    for _ in 0..10 {
        let rt = tsvd::core::Runtime::dynamic_random(config.clone());
        let pool = Pool::with_runtime(2, rt.clone());
        let dict: Dictionary<u64, u64> = Dictionary::new(&rt);
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let d = dict.clone();
                pool.spawn(move || {
                    d.set(i % 2, i);
                    panic!("task dies mid-burst");
                })
            })
            .collect();
        for h in handles {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.join()));
        }
        assert_eq!(rt.live_traps(), 0, "panicked tasks must not leak traps");
    }
}

#[test]
fn chaos_loop_over_buggy_and_clean_suite() {
    // 100 hostile iterations over a mixed suite: panicking tasks, dropped
    // handles, stalls. The suite must always terminate, never leak traps,
    // and never report a bug in a clean module.
    let mut chaos_options = tsvd::harness::ChaosOptions::standard();
    chaos_options.iterations = 100;
    chaos_options.tasks = 8;
    let report = tsvd::harness::run_chaos(&chaos_options).expect("chaos invariants hold");
    assert_eq!(report.tasks_spawned, 800);
    assert!(report.tasks_panicked > 0);
    assert!(report.handles_dropped > 0);

    // The ordinary suite still behaves right after the storm (clean modules
    // stay clean even with panic-adjacent machinery warmed up).
    let suite = build_suite(SuiteConfig {
        modules: 10,
        seed: 0xC4A05,
    });
    let outcome = run_suite(&suite, DetectorKind::Tsvd, &options(0));
    check_no_false_positives(&suite, &outcome).expect("clean modules stay clean");
}

#[test]
fn starved_pool_terminates_degrades_and_keeps_the_violation_on_disk() {
    // The acceptance scenario: every pool thread ends up blocked-or-delayed
    // behind injected delays; the watchdog must break the starvation, the
    // module must terminate, and a violation caught before a simulated
    // abort must be recoverable from the JSONL sink afterwards.
    let dir = std::env::temp_dir().join(format!("tsvd_robust_sink_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let sink_path = dir.join("violations.jsonl");

    let mut config = TsvdConfig::for_testing();
    config.dynamic_random_p = 1.0; // Delay at every access.
    config.delay_ns = 20_000_000; // 20 ms delays; the watchdog polls every 0.5 ms beat.
    config.max_delay_per_run_ns = u64::MAX;
    config.max_delay_per_context_ns = u64::MAX;
    config.durable_sink = Some(sink_path.clone());
    let delay = std::time::Duration::from_nanos(config.delay_ns);

    let rt = tsvd::core::Runtime::dynamic_random(config);
    let start = std::time::Instant::now();
    {
        let pool = Pool::with_runtime(2, rt.clone());
        let shared: Dictionary<u64, u64> = Dictionary::new(&rt);
        // 64 tasks on a 2-worker pool. The shared write can walk into the
        // other worker's trap; the two calls on a task's own dictionary
        // are delays nothing can catch, so both workers sit in them back
        // to back: delay-induced starvation.
        let handles: Vec<_> = (0..64u64)
            .map(|i| {
                let shared = shared.clone();
                let own: Dictionary<u64, u64> = Dictionary::new(&rt);
                pool.spawn(move || {
                    shared.set(i % 2, i);
                    own.set(0, i);
                    let _ = own.get(&0);
                })
            })
            .collect();
        for h in handles {
            h.wait();
        }
    }
    // Without the watchdog the private delays alone keep each worker asleep
    // for 64 × 20 ms = 1.28 s. The watchdog cuts a starved delay every two
    // polls and goes passive after 16 cuts, well inside one delay's length.
    assert!(
        start.elapsed() < delay * 32,
        "watchdog did not break the starvation (took {:?})",
        start.elapsed()
    );
    assert_eq!(
        rt.watchdog().degrade_reason(),
        Some(tsvd::core::DegradeReason::RepeatedStarvation),
        "repeated starvation must degrade the runtime to passive monitoring"
    );
    assert!(rt.is_passive());
    assert_eq!(rt.live_traps(), 0);

    let caught = rt.reports().total_occurrences();
    // Simulated abort: drop the runtime without any orderly export. The
    // write-ahead sink must already hold everything that was reported.
    drop(rt);
    if caught > 0 {
        let records = tsvd::core::DurableSink::load(&sink_path).expect("sink readable after abort");
        assert!(
            records.len() >= caught,
            "sink has {} records, {} violations were caught",
            records.len(),
            caught
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn extreme_configs_stay_sound() {
    // Degenerate-but-valid configurations must not break the guarantee.
    let suite = build_suite(SuiteConfig {
        modules: 25,
        seed: 0xE,
    });
    for tweak in [
        |c: &mut TsvdConfig| c.near_miss_history = 1,
        |c: &mut TsvdConfig| c.phase_buffer = 2,
        |c: &mut TsvdConfig| c.decay_factor = 0.99,
        |c: &mut TsvdConfig| c.hb_inference_window = 100,
        |c: &mut TsvdConfig| c.delay_ns = 1,
    ] {
        let mut o = options(0);
        tweak(&mut o.config);
        let outcome = run_suite(&suite, DetectorKind::Tsvd, &o);
        check_no_false_positives(&suite, &outcome).expect("extreme config stays sound");
    }
}
