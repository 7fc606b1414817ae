//! `suite_pass`: the paper's Table 2 / §5.5 experiment — what a team pays
//! and gets when it turns TSVD on for its test suite.
//!
//! The suite runs in cycles of 25 modules (one of each scenario the suite
//! generator deals), each cycle through `run_suite` under `Noop` and under
//! `Tsvd`, two runs each with trap files carried over. A cycle's time per
//! module execution is the latency sample.

use std::collections::HashSet;
use std::time::Instant;

use tsvd_fleet::runner::{run_suite, DetectorKind, RunOptions, SuiteOutcome};
use tsvd_workloads::{build_suite, Expectation, Module, SuiteConfig};

use super::{repeat_for, timed_setup, Run, Summary, SUITE_SEED};
use crate::outcome::Outcome;
use crate::rng::{sub_seed, SplitMix64};

/// The suite generator's mix repeats every 25 modules.
pub const CYCLE: usize = 25;

/// Modules in the suite.
pub fn modules(smoke: bool) -> usize {
    if smoke {
        CYCLE
    } else {
        4 * CYCLE
    }
}

/// The suite as cycles, cycle order and the order within each cycle
/// shuffled by `seed` (modules are independent, so order changes no
/// result; it is the part of the input the seed owns, see `SUITE_SEED`).
pub fn shuffled_cycles(modules: usize, seed: u64) -> Vec<Vec<Module>> {
    let suite = build_suite(SuiteConfig {
        modules,
        seed: SUITE_SEED,
    });
    let mut rng = SplitMix64::new(sub_seed(seed, 0x5017E));
    let mut cycles: Vec<Vec<Module>> = suite.chunks(CYCLE).map(<[Module]>::to_vec).collect();
    for cycle in &mut cycles {
        rng.shuffle(cycle);
    }
    rng.shuffle(&mut cycles);
    cycles
}

/// `RunOptions::standard()` with the detector seeded from `--seed`.
pub fn options(seed: u64) -> RunOptions {
    let mut options = RunOptions::standard();
    options.config.seed = seed;
    options
}

/// Modules the ground truth says the first run can catch, and how many of
/// them have a violation among `buggy_modules`.
pub fn catchable_recall<'a>(
    suite: impl IntoIterator<Item = &'a Module>,
    buggy_modules: &HashSet<&str>,
) -> (usize, usize) {
    let mut catchable = 0;
    let mut caught = 0;
    for module in suite {
        if matches!(
            module.expectation(),
            Expectation::Buggy {
                first_run_catchable: true,
                ..
            }
        ) {
            catchable += 1;
            caught += usize::from(buggy_modules.contains(module.name()));
        }
    }
    (caught, catchable)
}

/// Runs the workload.
pub fn run(run: &Run<'_>) -> Result<Outcome, String> {
    let modules = modules(run.smoke);
    let options = options(run.seed);
    let (cycles, setup_s) = timed_setup(|| {
        let cycles = shuffled_cycles(modules, run.seed);
        // Warm-up: one cycle under each detector interns every call site
        // and faults in the pool and runtime code before anything is timed.
        // Always the suite's first cycle, so set-up costs the same whatever
        // order the seed puts the cycles in.
        let first = build_suite(SuiteConfig {
            modules: CYCLE,
            seed: SUITE_SEED,
        });
        run_suite(&first, DetectorKind::Noop, &options);
        run_suite(&first, DetectorKind::Tsvd, &options);
        Ok(cycles)
    })?;

    let mut out = Outcome::default();
    let executions = (modules * options.runs) as u64;
    let (mut noop_s, mut tsvd_s, mut rep_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut op_us = Vec::new();
    let mut last_bugs = 0;
    let mut last_recall = (0, 0);
    let mut noop_findings = 0;
    let mut clean_violations: Vec<String> = Vec::new();
    let reps = repeat_for(run.budget, |rep| {
        let on = run.traced_rep(rep);
        let rep_span = run.tracer.span(on, "bench.suite_pass.rep", 0);
        let rep_start = Instant::now();
        let (mut noop_wall, mut tsvd_wall) = (0.0, 0.0);
        let mut buggy: HashSet<&str> = HashSet::new();
        let mut bugs = 0;
        for (c, cycle) in cycles.iter().enumerate() {
            let timed = |kind: DetectorKind| -> (SuiteOutcome, f64) {
                let _span = run.tracer.span(on, "fleet.runner.run_suite", rep_span.id());
                let start = Instant::now();
                let outcome = run_suite(cycle, kind, &options);
                (outcome, start.elapsed().as_secs_f64())
            };
            // Alternate which detector goes first, per cycle and per rep.
            let ((noop, n_s), (tsvd, t_s)) = if (rep + c) % 2 == 0 {
                let n = timed(DetectorKind::Noop);
                (n, timed(DetectorKind::Tsvd))
            } else {
                let t = timed(DetectorKind::Tsvd);
                (timed(DetectorKind::Noop), t)
            };
            noop_wall += n_s;
            tsvd_wall += t_s;
            op_us.push(t_s * 1e6 / (cycle.len() * options.runs) as f64);

            out.attempted += 2 * (cycle.len() * options.runs) as u64;
            out.failed += (noop.panics + noop.timeouts + tsvd.panics + tsvd.timeouts) as u64;
            noop_findings += noop.total_bugs() as u64 + noop.total_delays();
            bugs += tsvd.total_bugs();
            for (name, _) in tsvd.bugs.keys() {
                let module = cycle
                    .iter()
                    .find(|m| m.name() == name)
                    .ok_or_else(|| format!("violation in unknown module {name}"))?;
                if module.expectation() == Expectation::Clean {
                    clean_violations.push(name.clone());
                }
                buggy.insert(module.name());
            }
        }
        drop(rep_span);
        rep_s.push(rep_start.elapsed().as_secs_f64());
        noop_s.push(noop_wall);
        tsvd_s.push(tsvd_wall);
        last_bugs = bugs;
        last_recall = catchable_recall(cycles.iter().flatten(), &buggy);
        Ok(())
    })?;

    out.check(
        "Noop finds no bug and injects no delay",
        noop_findings == 0,
        format!("{noop_findings} bugs + delays over {reps} repetitions"),
    );
    out.check(
        "no violation in a Clean module",
        clean_violations.is_empty(),
        clean_violations.join(" "),
    );
    out.check(
        "Tsvd finds planted bugs",
        last_bugs > 0,
        format!("{last_bugs} unique (module, site pair)"),
    );
    out.info.push(("bugs_found", last_bugs as f64));
    out.info.push((
        "catchable_recall",
        last_recall.0 as f64 / last_recall.1.max(1) as f64,
    ));
    let slowdowns: Vec<f64> = tsvd_s.iter().zip(&noop_s).map(|(t, n)| t / n).collect();
    Summary {
        setup_s,
        ops: executions as f64,
        walls_s: &tsvd_s,
        slowdowns: &slowdowns,
        op_us: &op_us,
        rep_walls_s: &rep_s,
    }
    .report(run, &mut out);
    Ok(out)
}
