//! End-to-end fleet-mode tests: real daemon, real worker processes (the
//! `repro` binary via `CARGO_BIN_EXE_repro`), real Unix sockets.
//!
//! Each test gets its own temp directory (ledger + socket + sinks) so they
//! can run concurrently.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

use tsvd_core::{DurableSink, TrapFileData};
use tsvd_fleet::ledger::{parse_sink_name, replay, verify, Ledger, LedgerEvent};
use tsvd_fleet::worker::sink_file_name;
use tsvd_fleet::{run_fleet, ChaosPlan, FleetError, FleetOptions, FleetReport, SuiteSpec};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsvd_fleet_e2e_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The generated suite of `modules` modules dealt from `seed`.
fn std_suite(modules: usize, seed: u64) -> SuiteSpec {
    SuiteSpec::Std { modules, seed }
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

/// The report's counts are those of the ledger on disk, replayed.
fn assert_report_is_the_replay(report: &FleetReport) {
    let state = replay(&Ledger::load(&report.ledger).expect("load ledger"));
    let mut quarantined: Vec<usize> = state.quarantined.keys().copied().collect();
    quarantined.sort_unstable();
    assert_eq!(
        (
            report.completed,
            report.retries,
            report.deaths,
            report.violations,
            &report.quarantined
        ),
        (
            state.done.len(),
            state.retries,
            state.deaths,
            state.violations.len(),
            &quarantined
        ),
        "report (completed, retries, deaths, violations, quarantined) against the replay"
    );
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

/// Every done recorded the trap file its execution exported (TSVD always
/// exports one), and the ledger replays to one file per module: the one
/// its latest done recorded, which its next wave would import. Returns
/// the distinct (module, pair) near misses armed, as the recorded files
/// list them: still armed, found, or settled as ordered.
fn assert_ledger_carries_each_modules_file(ledger: &Path) -> usize {
    let events = Ledger::load(ledger).expect("load ledger");
    let mut latest: HashMap<usize, (usize, TrapFileData)> = HashMap::new();
    let mut armed = BTreeSet::new();
    for event in &events {
        if let LedgerEvent::Done(done) = event {
            let traps = done.traps.clone().unwrap_or_else(|| {
                panic!("wave {} module {} recorded no file", done.wave, done.index)
            });
            let lists = [&traps.pairs, &traps.found, &traps.ordered];
            armed.extend(lists.into_iter().flatten().map(|p| (done.index, p.clone())));
            latest.insert(done.index, (done.wave, traps));
        }
    }
    let state = replay(&events);
    assert_eq!(state.carry, latest);
    let waves = state.start.as_ref().expect("start event").waves;
    for (index, (_, traps)) in &latest {
        assert_eq!(state.carried(waves, *index), Some(traps));
    }
    armed.len()
}

/// Every assignment of wave 1 or later that the ledger records after its
/// first `first_events` events carries, by the replayed ledger, the file
/// the first daemon's ledger holds for its module, and the file its done
/// recorded still holds that file's found pairs (an imported found pair
/// stays found). A wave that re-finds a bug holds it too, so this is
/// consistency, not proof: the supervisor's unit tests read the file off
/// the assignment itself. Returns the found pairs so checked.
fn assert_resumed_waves_imported_the_first_ledgers_files(
    ledger: &Path,
    first_events: usize,
) -> usize {
    let events = Ledger::load(ledger).expect("load ledger");
    let first = replay(&events[..first_events]);
    let mut imported: HashMap<(usize, usize), TrapFileData> = HashMap::new();
    let mut state = replay(&events[..first_events]);
    for event in &events[first_events..] {
        if let LedgerEvent::Assign(a) = event {
            if a.wave > 0 {
                let file = state.carried(a.wave, a.index).cloned();
                assert!(
                    file.is_some(),
                    "wave {} module {}: no file",
                    a.wave,
                    a.index
                );
                assert_eq!(file.as_ref(), first.carried(a.wave, a.index));
                imported.insert((a.wave, a.index), file.unwrap_or_default());
            }
        }
        state.apply(event);
    }
    let mut checked = 0;
    for ((wave, index), file) in &imported {
        let recorded = &state.done[&(*wave, *index)];
        assert_eq!(recorded.traps, None, "the state keeps files in `carry`");
        let exported = events[first_events..]
            .iter()
            .find_map(|e| match e {
                LedgerEvent::Done(d) if (d.wave, d.index) == (*wave, *index) => d.traps.as_ref(),
                _ => None,
            })
            .expect("the resumed wave's done recorded a file");
        for pair in &file.found {
            assert!(
                exported.found.contains(pair),
                "wave {wave} module {index}: the carried found pair {pair:?} was not imported"
            );
            checked += 1;
        }
    }
    checked
}

#[test]
fn fleet_runs_a_suite_and_reconciles_exactly() {
    // 25 modules covers one full generator cycle, so planted bugs exist.
    let (mut opts, dir) = options("clean", std_suite(25, 0x54494E59));
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

    assert!(
        assert_ledger_carries_each_modules_file(&report.ledger) > 1,
        "near misses arm pairs"
    );

    // Where a worker-second went: three finite numbers, one of them a share.
    assert!(report.busy_share > 0.0 && report.busy_share <= 1.0);
    assert!(report.worker_fixed_us.is_finite() && report.worker_fixed_us >= 0.0);
    assert!(report.turnaround_us.is_finite() && report.turnaround_us > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cold_stop_keeps_every_done_executions_catches_in_the_ledger() {
    // A daemon that stops cold runs no end-of-run sweep of the sinks, so
    // a done execution's catches are in the ledger only if the daemon
    // harvested its sink when the done frame arrived.
    let (mut opts, dir) = options("harvest", std_suite(25, 0x54494E59));
    opts.waves = 2;
    opts.stop_after_completions = Some(40);
    let report = run_fleet(opts).expect("fleet run");
    assert!(report.stopped_early);
    let state = replay(&Ledger::load(&report.ledger).expect("load ledger"));
    let mut records = 0;
    for done in state.done.values() {
        let name = sink_file_name(done.wave, done.index, done.attempt);
        for record in DurableSink::load(&dir.join("sinks").join(&name)).expect("load sink") {
            records += 1;
            assert!(
                state.violations.contains(&(done.index, record.pair_key())),
                "{name}: {record:?} is not in the ledger"
            );
        }
    }
    assert!(records > 0, "the done executions caught nothing to check");
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
    let (mut opts, dir) = options("clock", std_suite(25, 0x54494E59));
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
    let (mut opts, dir) = options("chaos", std_suite(25, 0x54494E59));
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
    assert_ledger_carries_each_modules_file(&report.ledger);
    assert_report_is_the_replay(&report);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hang_detection_and_quarantine_poison_a_wedging_module() {
    let (mut opts, dir) = options("stall", std_suite(1, 7));
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
    opts.heartbeat_ms = 20; // a 400 ms hang timeout
    let report = run_fleet(opts).expect("stall fleet run");
    assert_eq!(report.quarantined, vec![0], "the module must be poisoned");
    assert_eq!(report.deaths, 3, "one hang-kill per kill-limit strike");
    assert_eq!(report.completed, 0);
    assert_reconciled(&report.ledger);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_after_daemon_crash_reruns_no_completed_module() {
    let (mut opts, dir) = options("resume", std_suite(25, 0x54494E59));
    opts.waves = 2;
    // Phase 1: the daemon "crashes" (stops cold: no finish event, no
    // graceful shutdown) after 30 completions: wave 0 is done, wave 1 has
    // begun.
    opts.stop_after_completions = Some(30);
    let ledger = opts.ledger.clone();
    let first = run_fleet(opts.clone()).expect("first (crashing) run");
    assert!(first.stopped_early);
    assert!(first.completed >= 30);
    assert!(first.completed < 50, "the stop hook must fire mid-run");
    // A daemon that stops cold leaves each module's file as of its last
    // done in the ledger.
    assert_ledger_carries_each_modules_file(&ledger);
    assert_report_is_the_replay(&first);
    let first_events = Ledger::load(&ledger).expect("load ledger").len();

    // Phase 2: resume from the ledger alone.
    opts.stop_after_completions = None;
    opts.resume = true;
    let second = run_fleet(opts.clone()).expect("resumed run");
    assert!(!second.stopped_early);
    assert_eq!(second.completed, 50, "all modules resolved after resume");
    // The resumed daemon gives each module of wave 1 the file the first
    // daemon's ledger carries for it, and the worker imports it.
    assert!(
        assert_resumed_waves_imported_the_first_ledgers_files(&ledger, first_events) > 0,
        "a resumed module carried a found pair"
    );
    assert_ledger_carries_each_modules_file(&ledger);
    assert_report_is_the_replay(&second);

    // The verifier's assign-after-done invariant is the proof that resume
    // re-ran zero completed modules; duplicate-done catches double counts.
    assert_reconciled(&ledger);

    // Phase 3: resuming the finished run reports it and writes nothing:
    // the ledger, and so every file it carries, stays byte-identical.
    let finished = std::fs::read_to_string(&ledger).expect("read ledger");
    let third = run_fleet(opts).expect("resumed finished run");
    assert_eq!(
        std::fs::read_to_string(&ledger).expect("read ledger"),
        finished
    );
    assert!(!third.stopped_early);
    assert_eq!(third.completed, 50);
    assert_report_is_the_replay(&third);
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
    let (mut opts, dir) = options("retire", std_suite(2, 1));
    opts.worker_exe = Some(PathBuf::from("/nonexistent/tsvd-worker"));
    opts.workers = 2;
    opts.waves = 1;
    match run_fleet(opts) {
        Err(FleetError::AllWorkersRetired { pending }) => assert_eq!(pending, 2),
        other => panic!("expected AllWorkersRetired, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
