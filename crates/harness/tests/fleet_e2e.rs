//! End-to-end fleet-mode tests: real daemon, real worker processes (the
//! `repro` binary via `CARGO_BIN_EXE_repro`), real Unix sockets.
//!
//! Each test gets its own temp directory (ledger + socket + sinks) so they
//! can run concurrently.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use tsvd_core::{DurableSink, TrapFileData};
use tsvd_fleet::ledger::{parse_sink_name, replay, verify, Ledger, LedgerEvent};
use tsvd_fleet::{run_fleet, ChaosPlan, FleetError, FleetOptions, FleetReport, SuiteSpec};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsvd_fleet_e2e_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn options(tag: &str, suite: SuiteSpec) -> (FleetOptions, PathBuf) {
    let dir = test_dir(tag);
    let mut opts = FleetOptions::standard(suite, dir.join("ledger.jsonl"), dir.join("sinks"));
    opts.worker_exe = Some(PathBuf::from(env!("CARGO_BIN_EXE_repro")));
    opts.workers = 3;
    opts.quiet = true;
    (opts, dir)
}

fn assert_reconciled(ledger: &std::path::Path) -> tsvd_fleet::VerifySummary {
    let events = Ledger::load(ledger).expect("load ledger");
    let state = replay(&events);
    let sink_dir = state.start.as_ref().expect("start event").sink_dir.clone();
    match verify(&events, &sink_dir) {
        Ok(summary) => summary,
        Err(errors) => panic!("ledger invariants violated:\n{}", errors.join("\n")),
    }
}

/// The sink contract as the directory shows it: a file exists iff a record
/// was appended. Returns the module index of every sink file.
fn assert_no_empty_sink(sink_dir: &Path) -> Vec<usize> {
    let mut indices = Vec::new();
    for entry in std::fs::read_dir(sink_dir).expect("read sink dir") {
        let entry = entry.expect("entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let (_wave, index, _attempt) =
            parse_sink_name(&name).unwrap_or_else(|| panic!("foreign file {name} in sink dir"));
        assert!(
            entry.metadata().expect("metadata").len() > 0,
            "{name} is zero-length: an execution that caught nothing made a file"
        );
        let records = DurableSink::load(&entry.path()).expect("load sink");
        assert!(!records.is_empty(), "{name} holds no record");
        indices.push(index);
    }
    indices
}

/// The trap file equals the daemon's set, and was written at most once per
/// pair this invocation added to the `had` it started from.
fn assert_trap_file_is_the_daemons_set(report: &FleetReport, had: usize) {
    let path = Ledger::traps_path(&report.ledger);
    let on_disk = match TrapFileData::load(&path) {
        Ok(data) => data,
        Err(_) if report.traps.pairs.is_empty() => TrapFileData::default(),
        Err(e) => panic!("trap file {}: {e}", path.display()),
    };
    assert_eq!(on_disk, report.traps);
    assert!(
        report.trap_file_writes <= report.traps.pairs.len() - had,
        "{} writes for {} new pair(s)",
        report.trap_file_writes,
        report.traps.pairs.len() - had
    );
}

#[test]
fn fleet_runs_a_suite_and_reconciles_exactly() {
    // 25 modules covers one full generator cycle, so planted bugs exist.
    let (mut opts, dir) = options(
        "clean",
        SuiteSpec::Std {
            modules: 25,
            seed: 0x54494E59,
        },
    );
    opts.waves = 2;
    let report = run_fleet(opts).expect("fleet run");
    assert!(!report.stopped_early);
    assert_eq!(report.completed, 50, "25 modules x 2 waves");
    assert_eq!(report.deaths, 0, "no chaos, no deaths");
    assert!(
        report.violations > 0,
        "the std suite plants catchable bugs in modules 17..=24"
    );
    let summary = assert_reconciled(&report.ledger);
    assert_eq!(summary.done, 50);
    assert_eq!(summary.violations, summary.sink_pairs);

    // Only an execution that caught something left a sink: the modules
    // with a sink file are the modules with a violation in the ledger
    // (whose lines are per module, not per wave), and most of the 50
    // executions left none.
    let sunk: BTreeSet<usize> = assert_no_empty_sink(&dir.join("sinks"))
        .into_iter()
        .collect();
    let events = Ledger::load(&report.ledger).expect("load ledger");
    let violating: BTreeSet<usize> = events
        .iter()
        .filter_map(|e| match e {
            LedgerEvent::Violation(v) => Some(v.index),
            _ => None,
        })
        .collect();
    assert_eq!(sunk, violating);
    assert!(
        violating.len() < 25,
        "the std suite has clean modules, and they leave no sink"
    );

    assert!(report.traps.pairs.len() > 1, "near misses arm pairs");
    assert_trap_file_is_the_daemons_set(&report, 0);

    // Where a worker-second went: three finite numbers, one of them a share.
    assert!(report.busy_share > 0.0 && report.busy_share <= 1.0);
    assert!(report.worker_fixed_us.is_finite() && report.worker_fixed_us >= 0.0);
    assert!(report.turnaround_us.is_finite() && report.turnaround_us > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_supervisor_keeps_no_clock_thread() {
    // The event loop times its own ticks. Watch this process's thread names
    // (Linux keeps 15 bytes of each) while a fleet runs: its accept thread
    // must show up — which proves the watching works — and a tick thread
    // must not.
    fn thread_names() -> Vec<String> {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return Vec::new();
        };
        tasks
            .flatten()
            .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
            .map(|name| name.trim().to_string())
            .collect()
    }
    if thread_names().is_empty() {
        return; // no procfs: nothing to watch
    }
    let (mut opts, dir) = options(
        "clock",
        SuiteSpec::Std {
            modules: 25,
            seed: 0x54494E59,
        },
    );
    opts.waves = 1;
    let fleet = std::thread::spawn(move || run_fleet(opts).expect("fleet run"));
    let mut seen: Vec<String> = Vec::new();
    while !fleet.is_finished() {
        for name in thread_names() {
            if !seen.contains(&name) {
                seen.push(name);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let report = fleet.join().expect("join");
    assert_eq!(report.completed, 25);
    let saw = |name: &str| seen.iter().any(|s| s == name);
    assert!(saw("tsvd-fleet-acce"), "saw only {seen:?}");
    assert!(!saw("tsvd-fleet-tick"), "saw {seen:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_kills_lose_no_modules_and_no_violations() {
    let (mut opts, dir) = options(
        "chaos",
        SuiteSpec::Std {
            modules: 25,
            seed: 0x54494E59,
        },
    );
    opts.waves = 2;
    // Aggressive kill/torn rates (no stalls: those are exercised separately
    // and would slow this test by design). Roughly 2 in 5 assignments die.
    opts.chaos = Some(ChaosPlan {
        seed: 1234,
        kill_per_mille: 250,
        stall_per_mille: 0,
        torn_per_mille: 150,
        stall_ms: 0,
    });
    let report = run_fleet(opts).expect("chaos fleet run");
    assert!(!report.stopped_early);
    assert!(
        report.deaths > 0,
        "a 40% fault rate over ~50 assignments must kill workers"
    );
    // No module lost: every (wave, module) resolved — done or quarantined.
    // (A module can finish wave 0 and only then be quarantined in wave 1,
    // so the check is per (wave, module), not arithmetic on totals.)
    let summary = assert_reconciled(&report.ledger);
    let events = Ledger::load(&report.ledger).expect("load ledger");
    let state = replay(&events);
    for wave in 0..2 {
        for index in 0..25 {
            assert!(
                state.done.contains_key(&(wave, index)) || state.quarantined.contains_key(&index),
                "module {index} unresolved in wave {wave}"
            );
        }
    }
    // No violation lost: harvest + dedup means the ledger equals the sink
    // union exactly (assert_reconciled already proved set equality) —
    // although a killed worker aborts right after the module ran, with
    // nobody left to flush its sink, and a clean module has no sink at all.
    assert_eq!(summary.violations, summary.sink_pairs);
    assert!(summary.sink_pairs > 0);
    assert_no_empty_sink(&dir.join("sinks"));
    assert_trap_file_is_the_daemons_set(&report, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hang_detection_and_quarantine_poison_a_wedging_module() {
    let (mut opts, dir) = options(
        "stall",
        SuiteSpec::Std {
            modules: 1,
            seed: 7,
        },
    );
    opts.workers = 1;
    opts.waves = 1;
    // Every assignment stalls: heartbeats stop, the worker wedges for far
    // longer than the hang timeout. The supervisor must kill it each time
    // and quarantine the module at the kill limit.
    opts.chaos = Some(ChaosPlan {
        seed: 1,
        kill_per_mille: 0,
        stall_per_mille: 1000,
        torn_per_mille: 0,
        stall_ms: 10_000,
    });
    opts.heartbeat_ms = 50;
    opts.hang_timeout_ms = 400;
    opts.quarantine_kill_limit = 3;
    let report = run_fleet(opts).expect("stall fleet run");
    assert_eq!(report.quarantined, vec![0], "the module must be poisoned");
    assert_eq!(report.deaths, 3, "one hang-kill per kill-limit strike");
    assert_eq!(report.completed, 0);
    assert_reconciled(&report.ledger);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_after_daemon_crash_reruns_no_completed_module() {
    let (mut opts, dir) = options(
        "resume",
        SuiteSpec::Std {
            modules: 12,
            seed: 3,
        },
    );
    opts.waves = 1;
    // Phase 1: the daemon "crashes" (stops cold: no finish event, no
    // graceful shutdown) after 5 completions.
    opts.stop_after_completions = Some(5);
    let ledger = opts.ledger.clone();
    let first = run_fleet(opts.clone()).expect("first (crashing) run");
    assert!(first.stopped_early);
    assert!(first.completed >= 5);
    assert!(first.completed < 12, "the stop hook must fire mid-run");
    // A daemon that stops cold leaves the trap file as of its last done.
    assert_trap_file_is_the_daemons_set(&first, 0);

    // Phase 2: resume from the ledger alone.
    opts.stop_after_completions = None;
    opts.resume = true;
    let second = run_fleet(opts).expect("resumed run");
    assert!(!second.stopped_early);
    assert_eq!(second.completed, 12, "all modules resolved after resume");
    // The resumed daemon starts from that file and keeps it equal to its
    // set, writing only for pairs the first daemon had not seen.
    let had = first.traps.pairs.len();
    assert_eq!(second.traps.pairs[..had], first.traps.pairs[..]);
    assert_trap_file_is_the_daemons_set(&second, had);

    // The verifier's assign-after-done invariant is the proof that resume
    // re-ran zero completed modules; duplicate-done catches double counts.
    assert_reconciled(&ledger);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn module_that_panics_once_counts_exactly_once() {
    let dir = test_dir("flaky");
    let mut opts = FleetOptions::standard(
        SuiteSpec::Flaky {
            modules: 3,
            dir: dir.join("markers"),
        },
        dir.join("ledger.jsonl"),
        dir.join("sinks"),
    );
    opts.worker_exe = Some(PathBuf::from(env!("CARGO_BIN_EXE_repro")));
    opts.workers = 2;
    opts.waves = 1;
    opts.quiet = true;
    opts.module_attempt_limit = 2;
    let report = run_fleet(opts).expect("flaky fleet run");
    assert_eq!(report.completed, 3);
    assert_eq!(
        report.retries, 3,
        "each module panics exactly once and is retried exactly once"
    );

    let events = Ledger::load(&dir.join("ledger.jsonl")).expect("load ledger");
    let state = replay(&events);
    for index in 0..3 {
        let done = state
            .done
            .get(&(0, index))
            .unwrap_or_else(|| panic!("module {index} has no final outcome"));
        assert_eq!(
            done.outcome, "completed",
            "aggregates must count the final outcome, not the panic"
        );
        assert_eq!(state.failures.get(&(0, index)), Some(&1));
    }
    assert_reconciled(&dir.join("ledger.jsonl"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn module_that_times_out_once_counts_exactly_once() {
    let dir = test_dir("sleepy");
    let mut opts = FleetOptions::standard(
        SuiteSpec::Sleepy {
            modules: 2,
            ms: 2_000,
            dir: dir.join("markers"),
        },
        dir.join("ledger.jsonl"),
        dir.join("sinks"),
    );
    opts.worker_exe = Some(PathBuf::from(env!("CARGO_BIN_EXE_repro")));
    opts.workers = 2;
    opts.waves = 1;
    opts.quiet = true;
    opts.deadline_ms = 200; // first execution blows this, second is instant
    opts.hang_timeout_ms = 5_000; // heartbeats keep flowing; no hang-kill
    opts.module_attempt_limit = 2;
    let report = run_fleet(opts).expect("sleepy fleet run");
    assert_eq!(report.completed, 2);
    assert_eq!(report.deaths, 0, "timeouts are contained, not fatal");
    assert_eq!(report.retries, 2, "one timed-out retry per module");

    let events = Ledger::load(&dir.join("ledger.jsonl")).expect("load ledger");
    let state = replay(&events);
    for index in 0..2 {
        assert_eq!(
            state.done.get(&(0, index)).map(|d| d.outcome.as_str()),
            Some("completed")
        );
    }
    assert_reconciled(&dir.join("ledger.jsonl"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unspawnable_workers_retire_and_the_run_fails_loudly() {
    let (mut opts, dir) = options(
        "retire",
        SuiteSpec::Std {
            modules: 2,
            seed: 1,
        },
    );
    opts.worker_exe = Some(PathBuf::from("/nonexistent/tsvd-worker"));
    opts.workers = 2;
    opts.waves = 1;
    opts.max_spawn_failures = 1;
    match run_fleet(opts) {
        Err(FleetError::AllWorkersRetired { pending }) => assert_eq!(pending, 2),
        other => panic!("expected AllWorkersRetired, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
