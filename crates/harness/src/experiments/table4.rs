//! Table 4: TSVD on the nine open-source project analogs.
//!
//! Paper's columns: LoC, # tests, # runs TSVD needed, # TSVs found,
//! overhead. Expected shape: every project's TSVs trigger within 2 runs,
//! mostly in run 1, at modest overhead.
//!
//! A project's module lasts well under a millisecond, so one passive run
//! against one TSVD pass reads the box's jitter, not the detector: the
//! overhead column is the median over five rounds of the per-round
//! ratio, each round one passive run and one TSVD pass in alternating
//! order. The run and TSV columns are the first round's.

use std::ops::ControlFlow;

use tsvd_workloads::opensource::projects;

use crate::experiments::ExpOpts;
use crate::report::{overhead, Table};
use crate::runner::{run_module_once, run_suite_observed, DetectorKind, SuiteOutcome};

/// Rounds per project behind its overhead. Odd, so the median is a round's.
const ROUNDS: usize = 5;

/// Runs the Table 4 open-source evaluation.
pub fn run(opts: &ExpOpts) -> Vec<Table> {
    let mut table = Table::new(
        "Table 4: TSVD on open-source project analogs",
        &[
            "project",
            "LoC",
            "# tests",
            "# run",
            "# TSV",
            "paper # TSV",
            "overhead",
        ],
    );
    let mut options = opts.run_options();
    options.runs = 2;

    for project in projects() {
        let module = std::slice::from_ref(&project.module);
        // Baseline wall time: one passive run.
        let passive_ns = || {
            let run = run_module_once(&project.module, DetectorKind::Noop, &options, None);
            run.wall_ns.max(1) as f64
        };
        // Up to two TSVD runs with trap-file carry-over, as in the paper;
        // the pass ends with the run that first finds a TSV.
        let tsvd_pass = || {
            run_suite_observed(
                module,
                DetectorKind::Tsvd,
                &options,
                |execution| match execution.new_bugs {
                    [] => ControlFlow::Continue(()),
                    _ => ControlFlow::Break(()),
                },
            )
        };
        let mut first: Option<SuiteOutcome> = None;
        let mut ratios: Vec<f64> = (0..ROUNDS)
            .map(|round| {
                let (base_ns, outcome) = if round % 2 == 0 {
                    let base_ns = passive_ns();
                    (base_ns, tsvd_pass())
                } else {
                    let outcome = tsvd_pass();
                    (passive_ns(), outcome)
                };
                let run_ns = outcome.total_wall_ns() as f64 / outcome.runs.len() as f64;
                first.get_or_insert(outcome);
                run_ns / base_ns
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let ovh = (ratios[ROUNDS / 2] - 1.0) * 100.0;
        let outcome = first.expect("ROUNDS > 0");
        let found = outcome.total_bugs();
        table.row(vec![
            project.info.name.to_string(),
            format!("{:.1}K", project.info.loc_k),
            project.info.tests.to_string(),
            if found > 0 {
                outcome.runs.len().to_string()
            } else {
                "miss".to_string()
            },
            found.to_string(),
            project.info.paper_tsvs.to_string(),
            overhead(ovh),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_has_nine_rows() {
        let tables = run(&ExpOpts::default());
        assert_eq!(tables[0].len(), 9);
    }
}
