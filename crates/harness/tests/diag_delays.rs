//! Diagnostic: per-family delay counts for TSVD vs TSVD-HB (run manually
//! with `cargo test -p tsvd-harness --test diag_delays -- --nocapture --ignored`).

use std::collections::HashMap;
use tsvd_core::TsvdConfig;
use tsvd_harness::runner::{run_module_once, DetectorKind, RunOptions};
use tsvd_workloads::suite::{build_suite, SuiteConfig};

#[test]
#[ignore]
fn per_family_delays() {
    let suite = build_suite(SuiteConfig {
        modules: 100,
        seed: 0x534D_414C,
    });
    let options = RunOptions {
        config: TsvdConfig::paper().scaled(0.02),
        threads: 2,
        runs: 1,
        module_deadline: Some(std::time::Duration::from_secs(30)),
        static_priors: None,
    };
    for kind in [DetectorKind::Tsvd, DetectorKind::TsvdHb] {
        let mut per: HashMap<String, (u64, u64)> = HashMap::new();
        for m in &suite {
            let fam = m.name().split(':').nth(1).unwrap_or("?").to_string();
            let run = run_module_once(m, kind, &options, None);
            let (rt, wall) = (run.runtime, run.wall_ns);
            let e = per.entry(fam).or_default();
            e.0 += rt.stats().delays_injected();
            e.1 += wall / 1_000_000;
        }
        let mut rows: Vec<_> = per.into_iter().collect();
        rows.sort_by_key(|(_, (d, _))| std::cmp::Reverse(*d));
        println!("=== {} ===", kind.name());
        for (fam, (d, ms)) in rows {
            println!("{fam:30} delays={d:5} wall={ms}ms");
        }
    }
}
