//! Fleet layers: where a fleet pass's wall goes that is not module
//! execution — worker start-up, the socket protocol, the ledger, the sinks.
//!
//! Runs the fleet through the same code as `fleet_pass` (real `repro serve`
//! workers), keeps the ledger and sinks it leaves, and times the pieces on
//! them: `verify`, `replay`, `merge_sink_dir`, `Ledger::append` of the
//! run's own events, `write_frame`/`read_frame` of its own done frames.

use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

use tsvd_benchmark::env::sibling_binary;
use tsvd_benchmark::outcome::Outcome;
use tsvd_benchmark::stats::median;
use tsvd_benchmark::trace::Tracer;
use tsvd_benchmark::workloads::fleet_pass::{clean, fleet_run, modules, options};
use tsvd_benchmark::workloads::suite_pass::{self, catchable_recall, CYCLE};
use tsvd_benchmark::workloads::SUITE_SEED;
use tsvd_fleet::ledger::{replay, verify, Ledger, LedgerEvent};
use tsvd_fleet::runner::{run_suite, DetectorKind};
use tsvd_fleet::wire::{read_frame, write_frame, Done, Frame};
use tsvd_fleet::{merge_sink_dir, SuiteSpec};
use tsvd_workloads::Module;

use crate::Ctx;

fn millis(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs the section.
pub fn probe(ctx: &Ctx<'_>, out: &mut Outcome) -> Result<(), String> {
    let section = ctx.tracer.span(true, "bench.probes.fleet", 0);
    let focus = ctx.focus(&["fleet_pass"]);
    let modules = if focus { modules(ctx.smoke) } else { CYCLE };
    let workers = ctx.threads;
    let repro = sibling_binary("repro")?;
    let io = |e: std::io::Error| e.to_string();

    // --- start-up: a fleet with one module to run ------------------------------------------
    let mut tiny = options(1, ctx.seed, workers, &repro, "tiny");
    tiny.waves = 1;
    let startup = fleet_run(tiny, ctx.tracer, true, section.id())?;
    clean("tiny");
    out.metric("fleet.supervisor.startup_ms", startup.fleet_s * 1e3);

    // --- the pass ----------------------------------------------------------------------------
    let fleet_options = options(modules, ctx.seed, workers, &repro, "probe");
    let (ledger_path, sink_dir) = (fleet_options.ledger.clone(), fleet_options.sink_dir.clone());
    let waves = fleet_options.waves;
    let fleet = fleet_run(fleet_options, ctx.tracer, true, section.id())?;
    let executions = (modules * waves) as f64;
    out.attempted += executions as u64;
    out.failed += fleet.failed;
    out.check(
        "probe fleet: ledger verifies and every execution is done",
        fleet.verify_errors.is_empty() && fleet.done_us.len() == modules * waves,
        format!(
            "{} done; {}",
            fleet.done_us.len(),
            fleet.verify_errors.join("; ")
        ),
    );
    let busy_us: f64 = fleet.done_us.iter().sum();
    let capacity_us = workers as f64 * fleet.fleet_s * 1e6;
    out.metric("fleet.supervisor.busy_share", busy_us / capacity_us);
    out.metric(
        "fleet.supervisor.gap_us",
        (capacity_us - busy_us) / executions,
    );
    out.metric("fleet.retries", fleet.recoveries.0 as f64);
    out.metric("fleet.deaths", fleet.recoveries.1 as f64);
    out.metric("fleet.quarantined", fleet.recoveries.2 as f64);
    let suite: Vec<Module> = SuiteSpec::Std {
        modules,
        seed: SUITE_SEED,
    }
    .build();
    let buggy = fleet
        .buggy
        .iter()
        .filter_map(|&i| suite.get(i))
        .map(Module::name)
        .collect();
    let (hit, catchable) = catchable_recall(&suite, &buggy);
    out.metric("detect.fleet_bugs_found", fleet.bugs as f64);
    out.metric(
        "detect.fleet_catchable_recall",
        hit as f64 / catchable.max(1) as f64,
    );

    // --- the same suite, sequentially, in this process ---------------------------------------
    let sequential_s = {
        let _span = ctx
            .tracer
            .span(true, "fleet.runner.run_suite", section.id());
        let start = Instant::now();
        run_suite(&suite, DetectorKind::Tsvd, &suite_pass::options(ctx.seed));
        start.elapsed().as_secs_f64()
    };
    out.metric("fleet.vs_sequential_x", sequential_s / fleet.fleet_s);

    // --- the books the pass left ---------------------------------------------------------------
    let events = Ledger::load(&ledger_path).map_err(io)?;
    let bytes = std::fs::metadata(&ledger_path).map_err(io)?.len();
    out.metric("fleet.ledger.bytes_per_exec", bytes as f64 / executions);
    out.metric(
        "fleet.ledger.verify_ms",
        timed(ctx.tracer, "fleet.ledger.verify", section.id(), || {
            std::hint::black_box(verify(&events, &sink_dir).is_ok());
        }),
    );
    out.metric(
        "fleet.ledger.replay_ms",
        timed(ctx.tracer, "fleet.ledger.replay", section.id(), || {
            std::hint::black_box(replay(&events).done.len());
        }),
    );
    out.metric(
        "fleet.sink.merge_ms",
        timed(
            ctx.tracer,
            "fleet.sink.merge_sink_dir",
            section.id(),
            || {
                std::hint::black_box(merge_sink_dir(&sink_dir).map(|m| m.len()).ok());
            },
        ),
    );
    out.metric("fleet.ledger.append_us", append_us(ctx.scratch, &events)?);
    out.metric("fleet.wire.frame_us", frame_us(&events)?);
    clean("probe");
    Ok(())
}

/// Median milliseconds of five calls of `f`, each under a span.
fn timed(tracer: &Tracer, name: &'static str, parent: u32, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let _span = tracer.span(true, name, parent);
            let start = Instant::now();
            f();
            millis(start)
        })
        .collect();
    median(&samples)
}

/// Microseconds per `Ledger::append`, re-appending the run's own events to
/// a fresh ledger.
fn append_us(scratch: &Path, events: &[LedgerEvent]) -> Result<f64, String> {
    let path = scratch.join("probe.append.jsonl");
    let ledger = Ledger::create(&path).map_err(|e| e.to_string())?;
    let start = Instant::now();
    for event in events {
        ledger.append(event).map_err(|e| e.to_string())?;
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / events.len().max(1) as f64;
    let _ = std::fs::remove_file(&path);
    Ok(us)
}

/// Microseconds per frame written to and read back from a socket pair:
/// the done frames of the run's own executions (a frame fits the socket
/// buffer, so one thread can do both ends).
fn frame_us(events: &[LedgerEvent]) -> Result<f64, String> {
    let frames: Vec<Frame> = events
        .iter()
        .filter_map(|event| match event {
            LedgerEvent::Done(done) => Some(Frame::Done(Done {
                wave: done.wave,
                index: done.index,
                attempt: done.attempt,
                outcome: done.outcome.clone(),
                wall_ns: done.wall_ns,
                delays: done.delays,
                on_calls: done.on_calls,
                dangerous_pairs: 0,
                traps: None,
                sink: format!(
                    "probe.sinks/w{}_m{}_a{}.jsonl",
                    done.wave, done.index, done.attempt
                ),
            })),
            _ => None,
        })
        .collect();
    let (mut tx, mut rx) = UnixStream::pair().map_err(|e| e.to_string())?;
    let start = Instant::now();
    for frame in &frames {
        write_frame(&mut tx, frame).map_err(|e| e.to_string())?;
        let back = read_frame(&mut rx).map_err(|e| e.to_string())?;
        if back != *frame {
            return Err("a frame did not survive the socket".to_string());
        }
    }
    Ok(start.elapsed().as_secs_f64() * 1e6 / frames.len().max(1) as f64)
}
