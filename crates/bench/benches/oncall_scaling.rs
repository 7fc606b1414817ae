//! Multi-threaded `OnCall` throughput per detector.
//!
//! The single-threaded `oncall_overhead` bench hides the cost that matters
//! in production runs: every instrumented access from every thread funnels
//! through the runtime's shared state (trap table, near-miss tracker, phase
//! buffer, coverage stats). This bench drives `on_call` from 1/2/4/8 threads
//! concurrently and reports wall-clock time per access, so aggregate
//! throughput is `threads-agnostic`: if the hot path serializes on a lock,
//! per-access time grows with the thread count; if it scales, it stays flat.
//!
//! Three traffic shapes (the worker loop itself lives in `tsvd_bench` so
//! the CI regression gate measures exactly what this bench measures):
//! - `oncall_scaling/*`: 8 hot objects × 4 sites — maximum contention on
//!   whatever shared state the detector keeps per object.
//! - `oncall_scaling_highcard/*`: 64Ki distinct objects × 256 sites — the
//!   production shape (many locks, many callsites) that stresses table
//!   growth, eviction, and shard distribution rather than one hot entry.
//! - `oncall_scaling_highcard_ro/*`: the 64Ki shape with reads only — no
//!   conflicting pair ever forms and nothing ever arms. This is the
//!   zero-trap path on its own.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tsvd_bench::{make_sites, no_delay_config, run_workers, AccessMix, Factory};
use tsvd_core::Runtime;

const DETECTORS: &[(&str, Factory)] = &[
    ("noop", Runtime::noop),
    ("dynamic_random", Runtime::dynamic_random),
    ("tsvd", Runtime::tsvd),
    ("tsvd_hb", Runtime::tsvd_hb),
];

fn bench_shape(c: &mut Criterion, group: &str, obj_mask: u64, n_sites: u32, mix: AccessMix) {
    let sites = make_sites(n_sites);
    let mut g = c.benchmark_group(group);
    for &(name, factory) in DETECTORS {
        for &threads in &[1usize, 2, 4, 8] {
            g.bench_with_input(BenchmarkId::new(name, threads), &threads, |b, &threads| {
                // One runtime per benchmark point so table state from a
                // previous thread count can't skew this one.
                let rt = factory(no_delay_config());
                b.iter_custom(|iters| run_workers(&rt, threads, iters, obj_mask, &sites, mix));
            });
        }
    }
    g.finish();
}

fn bench_contended(c: &mut Criterion) {
    bench_shape(c, "oncall_scaling", 0x7, 4, AccessMix::Mixed);
}

fn bench_high_cardinality(c: &mut Criterion) {
    bench_shape(c, "oncall_scaling_highcard", 0xFFFF, 256, AccessMix::Mixed);
}

fn bench_high_cardinality_read_only(c: &mut Criterion) {
    bench_shape(
        c,
        "oncall_scaling_highcard_ro",
        0xFFFF,
        256,
        AccessMix::ReadOnly,
    );
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(150))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_contended, bench_high_cardinality, bench_high_cardinality_read_only
}
criterion_main!(benches);
