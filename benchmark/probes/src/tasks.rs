//! Tasks: what the pool and the sync hook cost a module, under the
//! instrumented (`Tsvd`) runtime the suite runs with.

use std::time::Instant;

use tsvd_benchmark::outcome::Outcome;
use tsvd_benchmark::stats::median;
use tsvd_benchmark::workloads::suite_pass::options;
use tsvd_core::{Runtime, SyncEvent};
use tsvd_tasks::Pool;

use crate::{ns_per_call, Ctx};

/// Spawn/join round trips timed; the median is reported.
const ROUND_TRIPS: usize = 200;

/// Runs the section.
pub fn probe(ctx: &Ctx<'_>, out: &mut Outcome) {
    let _section = ctx.tracer.span(true, "bench.probes.tasks", 0);
    let options = options(ctx.seed);
    let runtime = Runtime::tsvd(options.config.clone());
    let pool = Pool::with_runtime(options.threads, runtime.clone());
    let spawn_us: Vec<f64> = (0..ROUND_TRIPS)
        .map(|i| {
            let start = Instant::now();
            std::hint::black_box(pool.spawn(move || i).join());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.metric("tasks.spawn_join_us", median(&spawn_us));
    let me = tsvd_core::context::current();
    out.metric(
        "tasks.on_sync_ns",
        ns_per_call(1 << 16, |i| {
            runtime.on_sync(SyncEvent::LockAcquire {
                context: me,
                lock: i as u64 & 7,
            });
        }),
    );
}
