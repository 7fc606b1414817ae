//! Suite layers: what one module execution is made of.
//!
//! Drives `run_module_once` itself — what `run_suite` does inside — with a
//! span per module, reading each module's runtime afterwards: calls seen,
//! delays injected and slept, pairs armed, strategy memory. Around that,
//! the fixed costs a module pays whatever its body does (runtime + pool +
//! watched thread + teardown, trap-file and sink I/O). No thread is started
//! in this file: it keeps per-module books in plain `std` maps, which the
//! repository's escape lint only tolerates away from concurrent code.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use tsvd_benchmark::outcome::Outcome;
use tsvd_benchmark::stats::{median, tail};
use tsvd_benchmark::workloads::suite_pass::{
    catchable_recall, modules, options, shuffled_cycles, CYCLE,
};
use tsvd_benchmark::workloads::SUITE_SEED;
use tsvd_core::sink::{DurableSink, ViolationRecord};
use tsvd_core::{Runtime, TrapFileData};
use tsvd_fleet::runner::{run_module_once, DetectorKind, ModuleOutcome, RunOptions};
use tsvd_workloads::{build_suite, Expectation, Module, SuiteConfig};

use crate::hot::HotWitness;
use crate::Ctx;

/// Repetitions of each fixed-cost probe; the median is reported.
const FIXED_REPS: usize = 40;

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// `run_suite`'s per-run reseeding, so this drive of the suite makes the
/// decisions `suite_pass` makes.
fn options_for_run(base: &RunOptions, run: usize) -> RunOptions {
    let mut options = base.clone();
    options.config.seed = base
        .config
        .seed
        .wrapping_add((run as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    options
}

/// Runs the section.
pub fn probe(ctx: &Ctx<'_>, out: &mut Outcome, hot: &HotWitness) -> Result<(), String> {
    let section = ctx.tracer.span(true, "bench.probes.suite", 0);
    let focus = ctx.focus(&["suite_pass"]);
    let modules = if focus { modules(ctx.smoke) } else { CYCLE };
    let base = options(ctx.seed);

    // --- workloads ---------------------------------------------------------------------
    let build_ms: Vec<f64> = (0..FIXED_REPS)
        .map(|_| {
            let _span = ctx
                .tracer
                .span(true, "workloads.suite.build_suite", section.id());
            let start = Instant::now();
            std::hint::black_box(build_suite(SuiteConfig {
                modules,
                seed: SUITE_SEED,
            }));
            micros(start) / 1e3
        })
        .collect();
    out.metric("workloads.build_suite_ms", median(&build_ms));

    // --- the suite, module by module ---------------------------------------------------
    let suite: Vec<Module> = shuffled_cycles(modules, ctx.seed)
        .into_iter()
        .flatten()
        .collect();
    let mut trap_files: HashMap<String, TrapFileData> = HashMap::new();
    let mut bugs: HashSet<(String, tsvd_core::near_miss::SitePair)> = HashSet::new();
    let mut buggy: HashSet<&str> = HashSet::new();
    let mut module_us = Vec::with_capacity(modules * base.runs);
    let (mut on_calls, mut delays, mut delay_ns, mut caught) = (0u64, 0u64, 0u64, 0u64);
    let mut peak_bytes = hot.strategy_bytes;
    let mut records: Vec<ViolationRecord> = Vec::new();
    for run in 0..base.runs {
        let options = options_for_run(&base, run);
        for module in &suite {
            let execution = {
                let _span = ctx
                    .tracer
                    .span(true, "fleet.runner.run_module_once", section.id());
                run_module_once(
                    module,
                    DetectorKind::Tsvd,
                    &options,
                    trap_files.get(module.name()),
                )
            };
            out.attempted += 1;
            out.failed += u64::from(execution.outcome != ModuleOutcome::Completed);
            module_us.push(execution.wall_ns as f64 / 1e3);
            let runtime = &execution.runtime;
            on_calls += runtime.stats().on_calls();
            delays += runtime.stats().delays_injected();
            delay_ns += runtime.stats().delay_total_ns();
            caught += runtime.stats().traps_caught();
            peak_bytes = peak_bytes.max(runtime.strategy_memory_bytes());
            for pair in runtime.reports().bug_pairs() {
                bugs.insert((module.name().to_string(), pair));
                buggy.insert(module.name());
            }
            records.extend(
                runtime
                    .reports()
                    .violations()
                    .iter()
                    .map(ViolationRecord::from_violation),
            );
            if let Some(traps) = runtime.export_trap_file() {
                trap_files.insert(module.name().to_string(), traps);
            }
        }
    }
    let clean_violations: Vec<&str> = suite
        .iter()
        .filter(|m| m.expectation() == Expectation::Clean && buggy.contains(m.name()))
        .map(Module::name)
        .collect();
    out.check(
        "module drive: no violation in a Clean module",
        clean_violations.is_empty(),
        clean_violations.join(" "),
    );
    let wall_us: f64 = module_us.iter().sum();
    let module_tail = tail(&module_us);
    out.metric("fleet.runner.module_p50_us", median(&module_us));
    out.metric("fleet.runner.module_tail_us", module_tail.value);
    out.metric("core.on_calls", on_calls as f64);
    out.metric("core.delays_injected", delays as f64);
    out.metric("core.delay_total_ms", delay_ns as f64 / 1e6);
    out.metric("core.delay_hit_ratio", caught as f64 / delays.max(1) as f64);
    out.metric("core.strategy_peak_bytes", peak_bytes as f64);
    // On the hot workloads the witness is the hot runtime's, not the suite's.
    let armed: usize = trap_files.values().map(|t| t.pairs.len()).sum();
    out.metric("core.pairs_armed", hot.pairs_armed.unwrap_or(armed) as f64);
    let (hit, catchable) = catchable_recall(&suite, &buggy);
    out.metric("detect.suite_bugs_found", bugs.len() as f64);
    out.metric(
        "detect.suite_catchable_recall",
        hit as f64 / catchable.max(1) as f64,
    );

    // --- fixed cost of a module --------------------------------------------------------
    let empty = Module::new("empty", 1, Expectation::Clean, false, "List", |_| {});
    let fixed_us: Vec<f64> = (0..FIXED_REPS)
        .map(|_| {
            let _span = ctx
                .tracer
                .span(true, "fleet.runner.run_module_once", section.id());
            let start = Instant::now();
            std::hint::black_box(run_module_once(&empty, DetectorKind::Tsvd, &base, None).wall_ns);
            micros(start)
        })
        .collect();
    let fixed = median(&fixed_us);
    out.metric("fleet.runner.module_fixed_us", fixed);

    // Shares of the module wall: counts the runtimes kept, priced with the
    // probes' unit costs. The body is what is left.
    let on_call_ns = out
        .value("collections.tsvd_op_ns")
        .ok_or("the hot section must run before the suite section")?;
    let delay_share = delay_ns as f64 / 1e3 / wall_us;
    let on_call_share = on_calls as f64 * on_call_ns / 1e3 / wall_us;
    let fixed_share = fixed * module_us.len() as f64 / wall_us;
    out.metric("fleet.runner.delay_share", delay_share);
    out.metric("fleet.runner.on_call_share", on_call_share);
    out.metric(
        "fleet.runner.body_share",
        1.0 - delay_share - on_call_share - fixed_share,
    );

    // --- trap files and the durable sink -----------------------------------------------
    let path = ctx.scratch.join("probe.traps.json");
    let mut roundtrip_us: Vec<f64> = Vec::new();
    let io = |e: std::io::Error| e.to_string();
    let mut torn: Vec<&str> = Vec::new();
    for (name, traps) in trap_files.iter().filter(|(_, t)| !t.pairs.is_empty()) {
        let start = Instant::now();
        traps.save(&path).map_err(io)?;
        let loaded = TrapFileData::load(&path).map_err(io)?;
        Runtime::tsvd(base.config.clone()).import_trap_file(&loaded);
        roundtrip_us.push(micros(start));
        if loaded.pairs != traps.pairs {
            torn.push(name);
        }
    }
    out.check("trap files round-trip", torn.is_empty(), torn.join(" "));
    out.check(
        "the suite arms pairs and catches violations",
        !roundtrip_us.is_empty() && !records.is_empty(),
        format!(
            "{} trap files, {} violations",
            roundtrip_us.len(),
            records.len()
        ),
    );
    out.metric("core.trap_file.roundtrip_us", median(&roundtrip_us));
    let sink_path = ctx.scratch.join("probe.sink.jsonl");
    let sink = DurableSink::create(&sink_path, false).map_err(io)?;
    let append_us: Vec<f64> = (0..FIXED_REPS * 5)
        .map(|i| {
            let start = Instant::now();
            let result = sink.append_record(&records[i % records.len()]);
            (micros(start), result)
        })
        .map(|(us, result)| result.map(|()| us).map_err(io))
        .collect::<Result<_, _>>()?;
    sink.flush();
    out.metric("core.sink.append_us", median(&append_us));
    let reloaded = DurableSink::load(&sink_path).map_err(io)?;
    out.check(
        "the durable sink keeps every record",
        reloaded.len() == append_us.len(),
        format!("{} of {}", reloaded.len(), append_us.len()),
    );
    Ok(())
}
