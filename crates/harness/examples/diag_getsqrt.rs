//! Diagnostic: which violation pairs each detector catches in the
//! `getsqrt-cache` scenario (Fig. 3/4 — expected: put/put and
//! put/contains_key).
//!
//! ```text
//! cargo run --release -p tsvd-harness --example diag_getsqrt
//! ```
fn main() {
    use tsvd_core::TsvdConfig;
    use tsvd_harness::runner::{run_module_once, DetectorKind, RunOptions};
    let options = RunOptions {
        config: TsvdConfig::paper().scaled(0.02),
        threads: 2,
        runs: 1,
        module_deadline: Some(std::time::Duration::from_secs(30)),
        static_priors: None,
    };
    for kind in [DetectorKind::Tsvd, DetectorKind::TsvdHb] {
        let m = tsvd_workloads::scenarios::paper_examples::getsqrt_cache(3);
        let rt = run_module_once(&m, kind, &options, None).runtime;
        println!(
            "== {} delays={} bugs={}",
            kind.name(),
            rt.stats().delays_injected(),
            rt.reports().unique_bugs()
        );
        let mut seen = std::collections::HashSet::new();
        for v in rt.reports().violations() {
            if seen.insert(v.pair()) {
                println!("  {} / {}", v.trapped.op_name, v.hitter.op_name);
            }
        }
    }
}
