//! Figure 9: sensitivity analysis of every TSVD parameter.
//!
//! Eight panels, each sweeping one knob of [`TsvdConfig`](tsvd_core::TsvdConfig) while the rest
//! stay at the paper's defaults, reporting bugs found (2 runs) and
//! overhead. Expected shapes (paper §5.4):
//!
//! - (a) tries: small variance across repeated tries;
//! - (b) `N_nm`: tiny history misses bugs, large history adds overhead;
//! - (c) `T_nm`: 1 ms window misses bugs; ≥100 ms plateaus;
//! - (d) `δ_hb = 0` infers bogus HB edges and loses bugs;
//! - (e) huge `k_hb` prunes everything and kills the bug count;
//! - (f) tiny phase buffers miss concurrency; huge ones inflate overhead;
//! - (g) decay factor 0 explodes overhead;
//! - (h) longer delays catch slightly more bugs at more overhead.

use tsvd_core::clock::ms_to_ns;
use tsvd_workloads::suite::{build_suite, SuiteConfig};

use crate::experiments::ExpOpts;
use crate::report::{overhead, Table};
use crate::runner::{baseline_wall_ns, overhead_pct, run_suite, DetectorKind, RunOptions};

fn sweep(
    title: &str,
    column: &str,
    suite: &[tsvd_workloads::Module],
    base_ns: u64,
    options: &RunOptions,
    settings: Vec<Setting>,
) -> Table {
    let mut table = Table::new(title, &[column, "bugs", "overhead", "delays"]);
    for (label, tweak) in settings {
        let mut o = options.clone();
        tweak(&mut o.config);
        let outcome = run_suite(suite, DetectorKind::Tsvd, &o);
        table.row(vec![
            label,
            outcome.total_bugs().to_string(),
            overhead(overhead_pct(&outcome, base_ns)),
            outcome.total_delays().to_string(),
        ]);
    }
    table
}

type Setting = (String, Box<dyn Fn(&mut tsvd_core::TsvdConfig)>);

fn settings<T: Copy + std::fmt::Display + 'static>(
    values: &[T],
    apply: impl Fn(&mut tsvd_core::TsvdConfig, T) + Copy + 'static,
) -> Vec<Setting> {
    values
        .iter()
        .map(|&v| {
            let f: Box<dyn Fn(&mut tsvd_core::TsvdConfig)> = Box::new(move |c| apply(c, v));
            (v.to_string(), f)
        })
        .collect()
}

/// Runs all eight Figure 9 panels.
pub fn run(opts: &ExpOpts) -> Vec<Table> {
    let suite = build_suite(SuiteConfig {
        modules: opts.modules.min(100),
        seed: opts.seed,
    });
    let mut options = opts.run_options();
    options.runs = 2;
    let base_ns = baseline_wall_ns(&suite, &options);
    let scale = opts.scale;
    let n = suite.len();

    let mut tables = Vec::new();

    // (a) Tries: repeated identical configurations; seed varies per try.
    {
        let mut t = Table::new(
            format!("Figure 9(a): variance across tries ({n} modules)"),
            &["try", "bugs", "overhead", "delays"],
        );
        for try_idx in 0..8u64 {
            let mut o = options.clone();
            o.config.seed = o.config.seed.wrapping_add(try_idx * 77);
            let outcome = run_suite(&suite, DetectorKind::Tsvd, &o);
            t.row(vec![
                (try_idx + 1).to_string(),
                outcome.total_bugs().to_string(),
                overhead(overhead_pct(&outcome, base_ns)),
                outcome.total_delays().to_string(),
            ]);
        }
        tables.push(t);
    }

    // (b) Per-object history N_nm.
    tables.push(sweep(
        &format!("Figure 9(b): near-miss object history N_nm ({n} modules)"),
        "N_nm",
        &suite,
        base_ns,
        &options,
        settings(&[1usize, 2, 5, 10, 20], |c, v| c.near_miss_history = v),
    ));

    // (c) Near-miss window T_nm (paper milliseconds, scaled like the rest).
    {
        let s = move |c: &mut tsvd_core::TsvdConfig, ms: u64| {
            c.near_miss_window_ns = ((ms_to_ns(ms) as f64) * scale).round().max(1.0) as u64;
        };
        tables.push(sweep(
            &format!("Figure 9(c): near-miss window T_nm, paper-ms ({n} modules)"),
            "T_nm(ms)",
            &suite,
            base_ns,
            &options,
            settings(&[1u64, 10, 100, 1000], s),
        ));
    }

    // (d) HB blocking threshold δ_hb.
    tables.push(sweep(
        &format!("Figure 9(d): HB blocking threshold δ_hb ({n} modules)"),
        "δ_hb",
        &suite,
        base_ns,
        &options,
        settings(&[0.0f64, 0.1, 0.3, 0.5, 0.8], |c, v| {
            c.hb_blocking_threshold = v
        }),
    ));

    // (e) HB inference window k_hb.
    tables.push(sweep(
        &format!("Figure 9(e): HB inference window k_hb ({n} modules)"),
        "k_hb",
        &suite,
        base_ns,
        &options,
        settings(&[0usize, 2, 5, 10, 50], |c, v| c.hb_inference_window = v),
    ));

    // (f) Concurrent-phase buffer size.
    tables.push(sweep(
        &format!("Figure 9(f): phase buffer size ({n} modules)"),
        "buffer",
        &suite,
        base_ns,
        &options,
        settings(&[2usize, 4, 16, 64, 256], |c, v| c.phase_buffer = v),
    ));

    // (g) Decay factor.
    tables.push(sweep(
        &format!("Figure 9(g): decay factor ({n} modules)"),
        "decay",
        &suite,
        base_ns,
        &options,
        settings(&[0.0f64, 0.1, 0.3, 0.5, 0.8], |c, v| c.decay_factor = v),
    ));

    // (h) Delay time (paper milliseconds, scaled; workload beat fixed).
    {
        let s = move |c: &mut tsvd_core::TsvdConfig, ms: u64| {
            c.delay_ns = ((ms_to_ns(ms) as f64) * scale).round().max(1.0) as u64;
        };
        tables.push(sweep(
            &format!("Figure 9(h): delay time, paper-ms ({n} modules)"),
            "delay(ms)",
            &suite,
            base_ns,
            &options,
            settings(&[1u64, 10, 50, 100, 200], s),
        ));
    }

    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_produces_eight_panels() {
        let opts = ExpOpts {
            modules: 25,
            ..ExpOpts::default()
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 8);
        assert!(tables.iter().all(|t| t.len() >= 4));
    }
}
