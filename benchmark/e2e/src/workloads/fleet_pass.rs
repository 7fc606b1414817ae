//! `fleet_pass`: the suite through the fleet — supervisor, socket, ledger
//! and durable sinks, with the real `repro serve` as the workers — then
//! `verify` and `merge_sink_dir`, as `repro fleet` does. Modules run the
//! same way as in `suite_pass`, so what differs is the fleet layer's own
//! cost: `slowdown_x` is the fleet's wall against its modules' own running
//! time spread perfectly over the workers.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tsvd_fleet::{merge_sink_dir, run_fleet, verify, FleetOptions, Ledger, LedgerEvent, SuiteSpec};
use tsvd_workloads::{Expectation, Module};

use super::suite_pass::{catchable_recall, CYCLE};
use super::{repeat_for, timed_setup, Run, Summary, SUITE_SEED};
use crate::env::sibling_binary;
use crate::outcome::Outcome;
use crate::trace::Tracer;

/// Waves: the cross-process analogue of `suite_pass`'s two runs.
pub const WAVES: usize = 2;

/// Modules in the suite.
pub fn modules(smoke: bool) -> usize {
    if smoke {
        CYCLE
    } else {
        8 * CYCLE
    }
}

/// `FleetOptions::standard` for this benchmark: `workers` real `repro
/// serve` processes, detector seeded from `--seed`, no chaos, quiet. Paths
/// are relative to the scratch directory the process runs in.
pub fn options(modules: usize, seed: u64, workers: usize, repro: &Path, tag: &str) -> FleetOptions {
    let suite = SuiteSpec::Std {
        modules,
        seed: SUITE_SEED,
    };
    let mut options = FleetOptions::standard(
        suite,
        PathBuf::from(format!("{tag}.jsonl")),
        PathBuf::from(format!("{tag}.sinks")),
    );
    options.workers = workers;
    options.waves = WAVES;
    options.seed = seed;
    options.worker_exe = Some(repro.to_path_buf());
    options.quiet = true;
    options
}

/// What one fleet run, verified and merged, produced.
pub struct FleetRun {
    /// `run_fleet` + `Ledger::load` + `verify` + `merge_sink_dir`, seconds.
    pub wall_s: f64,
    /// `run_fleet` alone, seconds.
    pub fleet_s: f64,
    /// `wall_ns` of every done event, microseconds.
    pub done_us: Vec<f64>,
    /// Unique (module, site pair) violations in the ledger.
    pub bugs: usize,
    /// Indices of modules with a violation.
    pub buggy: HashSet<usize>,
    /// Executions that did not complete, retried work, lost records.
    pub failed: u64,
    /// Re-queue decisions, worker deaths and quarantined modules.
    pub recoveries: (usize, usize, usize),
    /// Why the ledger does not reconcile, if it does not.
    pub verify_errors: Vec<String>,
    /// Ledger pairs, sink pairs, merged records.
    pub pairs: (usize, usize, usize),
}

/// Runs the fleet once and checks its books.
pub fn fleet_run(
    options: FleetOptions,
    tracer: &Tracer,
    on: bool,
    parent: u32,
) -> Result<FleetRun, String> {
    let (ledger, sink_dir) = (options.ledger.clone(), options.sink_dir.clone());
    let expected = options.suite.modules() * options.waves;
    let start = Instant::now();
    let report = {
        let _span = tracer.span(on, "fleet.supervisor.run_fleet", parent);
        run_fleet(options).map_err(|e| e.to_string())?
    };
    let fleet_s = start.elapsed().as_secs_f64();
    let events = {
        let _span = tracer.span(on, "fleet.ledger.load", parent);
        Ledger::load(&ledger).map_err(|e| e.to_string())?
    };
    let verified = {
        let _span = tracer.span(on, "fleet.ledger.verify", parent);
        verify(&events, &sink_dir)
    };
    let merged = {
        let _span = tracer.span(on, "fleet.sink.merge_sink_dir", parent);
        merge_sink_dir(&sink_dir).map_err(|e| e.to_string())?
    };
    let wall_s = start.elapsed().as_secs_f64();

    let mut done_us = Vec::with_capacity(expected);
    let mut buggy = HashSet::new();
    let mut incomplete = 0;
    for event in &events {
        match event {
            LedgerEvent::Done(done) => {
                done_us.push(done.wall_ns as f64 / 1e3);
                incomplete += u64::from(done.outcome != "completed");
            }
            LedgerEvent::Violation(violation) => {
                buggy.insert(violation.index);
            }
            _ => {}
        }
    }
    let unresolved = expected.saturating_sub(done_us.len()) as u64;
    let (pairs, verify_errors) = match verified {
        Ok(summary) => (
            (summary.violations, summary.sink_pairs, merged.len()),
            Vec::new(),
        ),
        Err(errors) => ((0, 0, merged.len()), errors),
    };
    Ok(FleetRun {
        wall_s,
        fleet_s,
        done_us,
        bugs: report.violations,
        buggy,
        failed: incomplete
            + unresolved
            + report.quarantined.len() as u64
            + (report.retries + report.deaths) as u64
            + pairs.0.abs_diff(pairs.1) as u64,
        recoveries: (report.retries, report.deaths, report.quarantined.len()),
        verify_errors,
        pairs,
    })
}

/// Removes a finished run's ledger, trap file and sinks.
pub fn clean(tag: &str) {
    let _ = std::fs::remove_file(format!("{tag}.jsonl"));
    let _ = std::fs::remove_file(format!("{tag}.jsonl.traps.json"));
    let _ = std::fs::remove_dir_all(format!("{tag}.sinks"));
}

/// Runs the workload.
pub fn run(run: &Run<'_>) -> Result<Outcome, String> {
    let modules = modules(run.smoke);
    let workers = run.threads;
    let repro = sibling_binary("repro")?;
    let (suite, setup_s) = timed_setup(|| {
        // Warm-up: one cycle through the whole path pages in `repro` and
        // creates the scratch files' directories.
        fleet_run(
            options(CYCLE, run.seed, workers, &repro, "warm"),
            run.tracer,
            false,
            0,
        )?;
        clean("warm");
        Ok(SuiteSpec::Std {
            modules,
            seed: SUITE_SEED,
        }
        .build())
    })?;

    let mut out = Outcome::default();
    let (mut walls_s, mut slowdowns, mut op_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut verify_errors: Vec<String> = Vec::new();
    let mut clean_violations: Vec<String> = Vec::new();
    let mut unbalanced = 0;
    let mut last: Option<FleetRun> = None;
    repeat_for(run.budget, |rep| {
        let on = run.traced_rep(rep);
        let rep_span = run.tracer.span(on, "bench.fleet_pass.rep", 0);
        let fleet = fleet_run(
            options(modules, run.seed, workers, &repro, "fleet"),
            run.tracer,
            on,
            rep_span.id(),
        )?;
        drop(rep_span);
        clean("fleet");
        out.attempted += (modules * WAVES) as u64;
        out.failed += fleet.failed;
        verify_errors.extend(fleet.verify_errors.iter().cloned());
        unbalanced +=
            usize::from(fleet.done_us.len() != modules * WAVES || fleet.pairs.0 != fleet.pairs.1);
        for &index in &fleet.buggy {
            let module: &Module = suite
                .get(index)
                .ok_or_else(|| format!("violation in unknown module {index}"))?;
            if module.expectation() == Expectation::Clean {
                clean_violations.push(module.name().to_string());
            }
        }
        let busy_s: f64 = fleet.done_us.iter().sum::<f64>() / 1e6;
        slowdowns.push(workers as f64 * fleet.fleet_s / busy_s);
        walls_s.push(fleet.wall_s);
        op_us.extend(fleet.done_us.iter().copied());
        last = Some(fleet);
        Ok(())
    })?;

    let last = last.expect("at least one repetition ran");
    out.check(
        "ledger verifies",
        verify_errors.is_empty(),
        verify_errors.join("; "),
    );
    out.check(
        "done == modules x waves and ledger pairs == sink pairs",
        unbalanced == 0,
        format!(
            "{} done, {} ledger pairs, {} sink pairs, {} merged records",
            last.done_us.len(),
            last.pairs.0,
            last.pairs.1,
            last.pairs.2
        ),
    );
    out.check(
        "no violation in a Clean module",
        clean_violations.is_empty(),
        clean_violations.join(" "),
    );
    out.check(
        "the fleet finds planted bugs",
        last.bugs > 0 && last.pairs.2 > 0,
        format!("{} unique (module, site pair)", last.bugs),
    );
    let buggy_names: HashSet<&str> = last
        .buggy
        .iter()
        .filter_map(|&i| suite.get(i))
        .map(Module::name)
        .collect();
    let (caught, catchable) = catchable_recall(&suite, &buggy_names);
    out.info.push(("bugs_found", last.bugs as f64));
    out.info
        .push(("catchable_recall", caught as f64 / catchable.max(1) as f64));
    Summary {
        setup_s,
        ops: (modules * WAVES) as f64,
        walls_s: &walls_s,
        slowdowns: &slowdowns,
        op_us: &op_us,
        rep_walls_s: &walls_s,
    }
    .report(run, &mut out);
    Ok(out)
}
