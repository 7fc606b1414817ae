//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric each
//! one is expected to move. `BENCHMARK.json` at the repository root is
//! [`manifest`] rendered (`benchmark manifest` prints it; a test keeps the
//! file in step); the definitions are in `benchmark/README.md`.

use crate::json::{self, Value};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` and result files use.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload: a name later issues cite, and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Fixed name.
    pub name: &'static str,
    /// One line: what it stresses and at what size.
    pub why: &'static str,
}

/// A metric a user of the system would see; reported by every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A metric of one layer; reported by the traced run, never bounded.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<module>.<what>_<unit>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The end-to-end metric it should move, and on which workloads.
    pub moves: &'static str,
}

/// The six workloads, in the order the one command runs them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "suite_pass",
        why: "Table 2 / 5.5: a 100-module suite, 2 runs, under Noop then Tsvd. Wall is sleeps + injected delays, so it moves with delay planning and per-module fixed cost, barely with on_call ns.",
    },
    Workload {
        name: "fleet_pass",
        why: "The same kind of suite (200 modules, 2 waves) through supervisor, socket, ledger and sinks with real `repro serve` workers: what the fleet layer itself costs.",
    },
    Workload {
        name: "hot_shared",
        why: "CPU-bound calls from T threads on 8 shared dictionaries through 64 call sites, zero delay budget: pairs arm, so every call runs the armed path under contention.",
    },
    Workload {
        name: "hot_private",
        why: "The same stream on 32768 thread-private dictionaries: no pair ever arms, so it is the zero-trap path with a large near-miss table. Bypasses what hot_shared exercises.",
    },
    Workload {
        name: "analyze_cold",
        why: "Whole-tree static analysis of a generated 96-file tree as CI runs it, with cache writes, against the same pass uncached: lex, fragments, propagate, per-file, merge.",
    },
    Workload {
        name: "analyze_edit",
        why: "The incremental use: cache filled in set-up, each round edits 1% of the files and re-analyses, against an uncached pass: cache reads and invalidation.",
    },
];

/// The end-to-end metrics. Every workload reports every one of them.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "slowdown_x",
        unit: "x",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const HOT: &str = "ops_per_s, slowdown_x on hot_*; <= 5% of suite_pass";
const HOT_BOTH: &str = "ops_per_s on hot_* (both passes pay it, so not slowdown_x)";
const HOT_FLOOR: &str = "slowdown_x on hot_private, hot_shared";
const HOT_ARMED: &str = "slowdown_x on hot_shared; no change on hot_private";
const SUITE_FLEET: &str = "slowdown_x, peak_rss_mb on suite_pass, fleet_pass";
const FLEET: &str = "ops_per_s on fleet_pass; none on suite_pass";
const COLD: &str = "ops_per_s on analyze_cold";
const COLD_EDIT: &str = "ops_per_s on analyze_cold and analyze_edit";
const WITNESS: &str = "none: a witness the output checks read";

/// The per-layer metrics. Every traced run reports every one of them: the
/// layers the workload exercises are probed on the workload's own inputs,
/// the others on small fixed inputs.
pub const PER_LAYER: &[PerLayer] = &[
    // --- the benchmark itself ------------------------------------------------
    layer(
        "bench.trace_overhead_x",
        "x",
        Lower,
        "none: must stay <= 1.10",
    ),
    layer(
        "bench.op_tail_us",
        "us",
        Lower,
        "the tail behind op_p50_us, same samples",
    ),
    layer(
        "bench.op_tail_percentile",
        "pct",
        Higher,
        "which percentile bench.op_tail_us is",
    ),
    layer(
        "bench.op_samples",
        "count",
        Higher,
        "samples behind op_p50_us and bench.op_tail_us",
    ),
    // --- what detection buys (demoted from end-to-end: suite workloads only) --
    layer(
        "detect.suite_bugs_found",
        "count",
        Higher,
        "what slowdown_x buys on suite_pass",
    ),
    layer(
        "detect.suite_catchable_recall",
        "ratio",
        Higher,
        "what slowdown_x buys on suite_pass",
    ),
    layer(
        "detect.fleet_bugs_found",
        "count",
        Higher,
        "what ops_per_s must not cost on fleet_pass",
    ),
    layer(
        "detect.fleet_catchable_recall",
        "ratio",
        Higher,
        "what ops_per_s must not cost on fleet_pass",
    ),
    // --- collections: the wrapper ladder, one thread ---------------------------
    layer("collections.raw_op_ns", "ns", Lower, HOT),
    layer("collections.unmonitored_op_ns", "ns", Lower, HOT),
    layer("collections.noop_op_ns", "ns", Lower, HOT),
    layer("collections.tsvd_op_ns", "ns", Lower, HOT),
    // --- core -----------------------------------------------------------------
    layer("core.site.intern_hit_ns", "ns", Lower, HOT_BOTH),
    layer("core.site.intern_hit_mt_ns", "ns", Lower, HOT_BOTH),
    layer("core.context.current_ns", "ns", Lower, HOT_FLOOR),
    layer("core.clock.now_ns", "ns", Lower, HOT_FLOOR),
    layer("core.phase.record_ns", "ns", Lower, HOT_FLOOR),
    layer("core.stats.record_call_ns", "ns", Lower, HOT_FLOOR),
    layer("core.trap.check_empty_ns", "ns", Lower, HOT_FLOOR),
    layer(
        "core.near_miss.record_ns",
        "ns",
        Lower,
        "slowdown_x on hot_private (32 Ki objects); small on hot_shared",
    ),
    layer("core.trapset.contains_site_ns", "ns", Lower, HOT_ARMED),
    layer("core.decay.probability_ns", "ns", Lower, HOT_ARMED),
    layer("core.hb_infer.on_access_ns", "ns", Lower, HOT_ARMED),
    layer("core.trap.check_live_ns", "ns", Lower, HOT_ARMED),
    layer("core.on_call.noop_ns", "ns", Lower, HOT),
    layer("core.on_call.tsvd_ns", "ns", Lower, HOT),
    layer("core.on_call.tsvd_hb_ns", "ns", Lower, HOT),
    layer("core.on_call.tsvd_batched_ns", "ns", Lower, HOT),
    layer("core.on_call.noop_mt_ns", "ns", Lower, HOT),
    layer("core.on_call.tsvd_mt_ns", "ns", Lower, HOT),
    layer(
        "core.on_call.residual_ns",
        "ns",
        Lower,
        "none: tsvd_ns minus the component probes, reported not gated",
    ),
    layer("core.on_calls", "count", Lower, SUITE_FLEET),
    layer("core.delays_injected", "count", Lower, SUITE_FLEET),
    layer("core.delay_total_ms", "ms", Lower, SUITE_FLEET),
    layer(
        "core.delay_hit_ratio",
        "ratio",
        Higher,
        "slowdown_x vs detect.suite_bugs_found on suite_pass",
    ),
    layer("core.pairs_armed", "count", Higher, WITNESS),
    layer(
        "core.strategy_peak_bytes",
        "bytes",
        Lower,
        "peak_rss_mb on suite_pass, hot_private",
    ),
    layer(
        "core.trap_file.roundtrip_us",
        "us",
        Lower,
        "ops_per_s on suite_pass run 2, fleet_pass",
    ),
    layer(
        "core.sink.append_us",
        "us",
        Lower,
        "ops_per_s on fleet_pass",
    ),
    // --- tasks, workloads -------------------------------------------------------
    layer(
        "tasks.spawn_join_us",
        "us",
        Lower,
        "ops_per_s on suite_pass",
    ),
    layer("tasks.on_sync_ns", "ns", Lower, "ops_per_s on suite_pass"),
    layer(
        "workloads.build_suite_ms",
        "ms",
        Lower,
        "setup_s on suite_pass, fleet_pass",
    ),
    // --- fleet ------------------------------------------------------------------
    layer(
        "fleet.runner.module_fixed_us",
        "us",
        Lower,
        "ops_per_s on suite_pass, fleet_pass",
    ),
    layer(
        "fleet.runner.module_p50_us",
        "us",
        Lower,
        "op_p50_us on suite_pass",
    ),
    layer(
        "fleet.runner.module_tail_us",
        "us",
        Lower,
        "bench.op_tail_us on suite_pass",
    ),
    layer(
        "fleet.runner.body_share",
        "ratio",
        Lower,
        "slowdown_x on suite_pass",
    ),
    layer(
        "fleet.runner.delay_share",
        "ratio",
        Lower,
        "slowdown_x on suite_pass",
    ),
    layer(
        "fleet.runner.on_call_share",
        "ratio",
        Lower,
        "slowdown_x on suite_pass",
    ),
    layer(
        "fleet.supervisor.busy_share",
        "ratio",
        Higher,
        "slowdown_x on fleet_pass (its inverse)",
    ),
    layer("fleet.supervisor.gap_us", "us", Lower, FLEET),
    layer("fleet.supervisor.startup_ms", "ms", Lower, FLEET),
    layer("fleet.vs_sequential_x", "x", Higher, FLEET),
    layer("fleet.wire.frame_us", "us", Lower, FLEET),
    layer("fleet.ledger.append_us", "us", Lower, FLEET),
    layer("fleet.ledger.verify_ms", "ms", Lower, FLEET),
    layer("fleet.ledger.replay_ms", "ms", Lower, FLEET),
    layer("fleet.ledger.bytes_per_exec", "bytes", Lower, FLEET),
    layer("fleet.sink.merge_ms", "ms", Lower, FLEET),
    layer("fleet.retries", "count", Lower, "failed on fleet_pass"),
    layer("fleet.deaths", "count", Lower, "failed on fleet_pass"),
    layer("fleet.quarantined", "count", Lower, "failed on fleet_pass"),
    // --- analyze, in pipeline order ---------------------------------------------
    layer("analyze.walk_ms", "ms", Lower, COLD),
    layer("analyze.read_hash_ms", "ms", Lower, COLD),
    layer("analyze.lex_ms", "ms", Lower, COLD),
    layer("analyze.fragments_ms", "ms", Lower, COLD),
    layer("analyze.propagate_ms", "ms", Lower, COLD_EDIT),
    layer("analyze.per_file_ms", "ms", Lower, COLD_EDIT),
    layer("analyze.merge_residual_ms", "ms", Lower, COLD_EDIT),
    layer("analyze.to_jsonl_ms", "ms", Lower, COLD),
    layer(
        "analyze.cache.store_ms",
        "ms",
        Lower,
        "slowdown_x on analyze_cold",
    ),
    layer(
        "analyze.cache.warm_ms",
        "ms",
        Lower,
        "op_p50_us on analyze_edit",
    ),
    layer(
        "analyze.cache.edit_reuse_ratio",
        "ratio",
        Higher,
        "slowdown_x on analyze_edit (1 minus it)",
    ),
    layer("analyze.thread_speedup_x", "x", Higher, COLD_EDIT),
    layer("analyze.files", "count", Higher, WITNESS),
    layer("analyze.bytes", "bytes", Higher, WITNESS),
    layer("analyze.sites", "count", Higher, WITNESS),
    layer("analyze.pairs", "count", Higher, WITNESS),
    layer("analyze.pruned_pairs", "count", Higher, WITNESS),
    layer("harness.repro_analyze_cli_ms", "ms", Lower, COLD),
    // --- share of the workload's instrumented wall, by layer --------------------
    layer(
        "share.body",
        "ratio",
        Lower,
        "the work under test itself: sleeps, HashMap ops",
    ),
    layer(
        "share.core_delay",
        "ratio",
        Lower,
        "slowdown_x on suite_pass, fleet_pass",
    ),
    layer(
        "share.core_on_call_collections",
        "ratio",
        Lower,
        "slowdown_x on hot_*",
    ),
    layer(
        "share.fleet_overhead",
        "ratio",
        Lower,
        "slowdown_x on fleet_pass",
    ),
    layer(
        "share.analyze_compute",
        "ratio",
        Lower,
        "ops_per_s on analyze_*",
    ),
    layer(
        "share.analyze_cache",
        "ratio",
        Lower,
        "slowdown_x on analyze_*",
    ),
    layer(
        "share.other",
        "ratio",
        Lower,
        "module fixed cost, walk, read, render",
    ),
];

/// The command the driver runs, from the repository root.
pub const COMMAND: &[&str] = &["bash", "benchmark/run.sh"];

/// `BENCHMARK.json`: exactly the keys the driver's contract names.
pub fn manifest() -> Value {
    let texts = |items: &[&str]| Value::Array(items.iter().map(|s| json::text(*s)).collect());
    json::obj([
        ("command", texts(COMMAND)),
        ("paths", texts(&["benchmark"])),
        ("run_seconds", Value::UInt(crate::cli::DEFAULT_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| json::obj([("name", json::text(w.name)), ("why", json::text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        json::obj([
                            ("name", json::text(m.name)),
                            ("unit", json::text(m.unit)),
                            ("better", json::text(m.better.as_str())),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        json::obj([
                            ("name", json::text(m.name)),
                            ("unit", json::text(m.unit)),
                            ("better", json::text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut names: Vec<&str> = Vec::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            names.push(m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.map(|m| m.bound), Some(widest));
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(
            json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate it with `benchmark manifest > BENCHMARK.json`"
        );
    }
}
