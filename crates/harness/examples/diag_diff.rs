//! Diagnostic: per-scenario-family unique-bug counts (with run-1 share)
//! for TSVD vs. TSVD-HB over a generated suite.
//!
//! ```text
//! cargo run --release -p tsvd-harness --example diag_diff -- 200
//! ```
fn main() {
    use std::collections::HashMap;
    use tsvd_core::TsvdConfig;
    use tsvd_harness::runner::{run_suite, DetectorKind, RunOptions};
    use tsvd_workloads::suite::{build_suite, SuiteConfig};
    let modules: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let suite = build_suite(SuiteConfig {
        modules,
        seed: 0x534D_414C,
    });
    let options = RunOptions {
        config: TsvdConfig::paper().scaled(0.02),
        threads: 2,
        runs: 2,
        module_deadline: Some(std::time::Duration::from_secs(30)),
        static_priors: None,
    };
    let mut per: HashMap<&'static str, HashMap<String, (usize, usize)>> = HashMap::new();
    for kind in [DetectorKind::Tsvd, DetectorKind::TsvdHb] {
        let outcome = run_suite(&suite, kind, &options);
        let m = per.entry(kind.name()).or_default();
        for ((module, _), run) in outcome.bugs {
            let fam = module.split(':').nth(1).unwrap_or("?").to_string();
            let e = m.entry(fam).or_default();
            e.0 += 1;
            if run == 1 {
                e.1 += 1;
            }
        }
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
