//! Table 4: TSVD on the nine open-source project analogs.
//!
//! Paper's columns: LoC, # tests, # runs TSVD needed, # TSVs found,
//! overhead. Expected shape: every project's TSVs trigger within 2 runs,
//! mostly in run 1, at modest overhead.

use std::ops::ControlFlow;

use tsvd_workloads::opensource::projects;

use crate::experiments::ExpOpts;
use crate::report::{overhead, Table};
use crate::runner::{run_module_once, run_suite_observed, DetectorKind};

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
        // Baseline wall time: one passive run.
        let base_ns = run_module_once(&project.module, DetectorKind::Noop, &options, None)
            .wall_ns
            .max(1);

        // Up to two TSVD runs with trap-file carry-over, as in the paper;
        // the pass ends with the run that first finds a TSV.
        let outcome = run_suite_observed(
            std::slice::from_ref(&project.module),
            DetectorKind::Tsvd,
            &options,
            |execution| match execution.new_bugs {
                [] => ControlFlow::Continue(()),
                _ => ControlFlow::Break(()),
            },
        );
        let runs_used = outcome.runs.len();
        let found = outcome.total_bugs();
        let run_ns = outcome.total_wall_ns() as f64 / runs_used as f64;
        let ovh = (run_ns - base_ns as f64) / base_ns as f64 * 100.0;
        table.row(vec![
            project.info.name.to_string(),
            format!("{:.1}K", project.info.loc_k),
            project.info.tests.to_string(),
            if found > 0 {
                runs_used.to_string()
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
