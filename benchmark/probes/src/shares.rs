//! Share of the traced workload's instrumented wall, by layer group —
//! derived from the metrics the sections above measured, so the table in
//! `benchmark/README.md` can be regenerated from any traced results file.
//!
//! | workload | the wall is | priced with |
//! |---|---|---|
//! | `suite_pass` | module walls under `Tsvd` | delay time slept, calls × one-thread op cost, fixed cost per module; the body is the rest |
//! | `fleet_pass` | workers × fleet wall | idle + supervision = 1 − busy share; the busy part splits as the suite does |
//! | `hot_*` | one call at `T` threads | the raw map op is the body; wrapper + `on_call` under contention is the rest |
//! | `analyze_cold` | a cold pass with cache writes | compute = uncached pass minus walk and read; cache = the store cost |
//! | `analyze_edit` | an edit round | compute = propagate + per-file + merge; walk and read; cache = the rest |

use tsvd_benchmark::outcome::Outcome;

use crate::Ctx;

/// Runs the derivation. Every section must have run.
pub fn derive(ctx: &Ctx<'_>, out: &mut Outcome) -> Result<(), String> {
    let v = |name: &str| {
        out.value(name)
            .ok_or_else(|| format!("`{name}` must be measured before the shares"))
    };
    // [body, core_delay, core_on_call_collections, fleet_overhead,
    //  analyze_compute, analyze_cache]; `other` is what is left of 1.
    let suite = [
        v("fleet.runner.body_share")?,
        v("fleet.runner.delay_share")?,
        v("fleet.runner.on_call_share")?,
        0.0,
        0.0,
        0.0,
    ];
    let shares: [f64; 6] = match ctx.workload {
        "suite_pass" => suite,
        "fleet_pass" => {
            let busy = v("fleet.supervisor.busy_share")?;
            let mut split = suite.map(|s| s * busy);
            split[3] = 1.0 - busy;
            split
        }
        "hot_shared" | "hot_private" => {
            let call = v("collections.unmonitored_op_ns")? + v("core.on_call.tsvd_mt_ns")?;
            let body = v("collections.raw_op_ns")? / call;
            [body, 0.0, 1.0 - body, 0.0, 0.0, 0.0]
        }
        "analyze_cold" => {
            let uncached = v("analyze.walk_ms")?
                + v("analyze.read_hash_ms")?
                + v("analyze.fragments_ms")?
                + v("analyze.propagate_ms")?
                + v("analyze.per_file_ms")?
                + v("analyze.merge_residual_ms")?;
            let store = v("analyze.cache.store_ms")?.max(0.0);
            let wall = uncached + store;
            let input = v("analyze.walk_ms")? + v("analyze.read_hash_ms")?;
            [0.0, 0.0, 0.0, 0.0, (uncached - input) / wall, store / wall]
        }
        "analyze_edit" => {
            let uncached = v("analyze.walk_ms")?
                + v("analyze.read_hash_ms")?
                + v("analyze.fragments_ms")?
                + v("analyze.propagate_ms")?
                + v("analyze.per_file_ms")?
                + v("analyze.merge_residual_ms")?;
            let wall = uncached * (1.0 - v("analyze.cache.edit_reuse_ratio")?);
            let compute = v("analyze.propagate_ms")?
                + v("analyze.per_file_ms")?
                + v("analyze.merge_residual_ms")?;
            let input = v("analyze.walk_ms")? + v("analyze.read_hash_ms")?;
            [
                0.0,
                0.0,
                0.0,
                0.0,
                compute / wall,
                ((wall - compute - input) / wall).max(0.0),
            ]
        }
        other => return Err(format!("no share model for workload `{other}`")),
    };
    let names = [
        "share.body",
        "share.core_delay",
        "share.core_on_call_collections",
        "share.fleet_overhead",
        "share.analyze_compute",
        "share.analyze_cache",
    ];
    for (name, share) in names.into_iter().zip(shares) {
        out.metric(name, share);
    }
    out.metric("share.other", 1.0 - shares.iter().sum::<f64>());
    Ok(())
}
