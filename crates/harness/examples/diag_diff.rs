//! Diagnostic: per-scenario-family unique-bug counts (with run-1 share)
//! for TSVD vs. TSVD-HB over a generated suite.
//!
//! ```text
//! cargo run --release -p tsvd-harness --example diag_diff -- 200
//! ```
fn main() {
    use std::collections::HashMap;
    use std::ops::ControlFlow;
    use tsvd_harness::runner::{run_suite_observed, DetectorKind, RunOptions};
    use tsvd_workloads::suite::{build_suite, SuiteConfig};
    let modules: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let suite = build_suite(SuiteConfig {
        modules,
        seed: 0x534D_414C,
    });
    let options = RunOptions::standard();
    let mut per: HashMap<&'static str, HashMap<String, (usize, usize)>> = HashMap::new();
    for kind in [DetectorKind::Tsvd, DetectorKind::TsvdHb] {
        let m = per.entry(kind.name()).or_default();
        run_suite_observed(&suite, kind, &options, |execution| {
            let e = m.entry(execution.module.family().to_string()).or_default();
            e.0 += execution.new_bugs.len();
            if execution.run == 1 {
                e.1 += execution.new_bugs.len();
            }
            ControlFlow::Continue(())
        });
    }
    let mut fams: Vec<String> = per.values().flat_map(|m| m.keys().cloned()).collect();
    fams.sort();
    fams.dedup();
    println!("{:24} {:>12} {:>12}", "family", "TSVD(r1)", "TSVD-HB(r1)");
    for f in fams {
        let a = per["TSVD"].get(&f).copied().unwrap_or((0, 0));
        let b = per["TSVD-HB"].get(&f).copied().unwrap_or((0, 0));
        println!("{:24} {:>6}({:>3}) {:>6}({:>3})", f, a.0, a.1, b.0, b.1);
    }
}
