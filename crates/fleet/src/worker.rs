//! The fleet worker: one process, one connection, one module at a time.
//!
//! A worker connects to the daemon's Unix socket, introduces itself with a
//! `Hello` frame, heartbeats on a side thread, and then loops: receive an
//! assignment, rebuild the module from the shared suite spec, run it under
//! a fresh TSVD runtime with a **per-execution durable sink**, and report.
//! Violations reach the daemon twice by design — write-ahead in the sink
//! file (survives any death) and streamed as frames (fast path) — so a
//! worker dying at any instant loses nothing: the daemon harvests the sink.
//!
//! Under a chaos plan the worker sabotages itself deterministically:
//! aborting after the module ran but before streaming (`Kill`), wedging
//! with heartbeats suppressed (`Stall`), or writing half a `Done` frame
//! (`Torn`). Each exercises a distinct supervisor recovery path.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use tsvd_core::{DurableSink, TrapFileData, TsvdConfig};
use tsvd_workloads::module::Module;

use crate::chaos::{ChaosPlan, FaultDecision};
use crate::runner::{run_module_once, DetectorKind, RunOptions};
use crate::suites::SuiteSpec;
use crate::wire::{read_frame, write_frame, write_torn_frame, Done, Frame, Hello, ViolationMsg};

/// Everything a worker process is told on its command line.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Daemon socket path.
    pub socket: PathBuf,
    /// Worker slot index.
    pub worker: usize,
    /// Slot incarnation this process is.
    pub incarnation: u64,
    /// Suite spec string (see [`SuiteSpec`]).
    pub suite: String,
    /// Directory for per-execution durable sinks.
    pub sink_dir: PathBuf,
    /// Pool threads per module.
    pub threads: usize,
    /// Detector time-constant scale.
    pub scale: f64,
    /// Base suite seed (per-wave reseeding matches `run_suite`).
    pub seed: u64,
    /// Per-module deadline, milliseconds (0 = none).
    pub deadline_ms: u64,
    /// Heartbeat interval, milliseconds.
    pub heartbeat_ms: u64,
}

/// Per-execution sink file name, parsed back by the daemon's reconciler.
pub fn sink_file_name(wave: usize, index: usize, attempt: u32) -> String {
    format!("w{wave}_m{index}_a{attempt}.jsonl")
}

/// Runs the worker loop until the daemon says `Shutdown` or the connection
/// dies. The chaos plan, if any, comes from the environment
/// ([`crate::chaos::CHAOS_ENV`]).
pub fn serve_worker(opts: &WorkerOptions) -> Result<(), String> {
    let spec = SuiteSpec::parse(&opts.suite)?;
    let suite = spec.build();
    let chaos = ChaosPlan::from_process_env();

    let stream = UnixStream::connect(&opts.socket)
        .map_err(|e| format!("connect {}: {e}", opts.socket.display()))?;
    let mut reader = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let writer = Arc::new(Mutex::new(stream));

    {
        let mut w = writer.lock();
        write_frame(
            &mut *w,
            &Frame::Hello(Hello {
                worker: opts.worker,
                incarnation: opts.incarnation,
                pid: std::process::id(),
            }),
        )
        .map_err(|e| format!("hello: {e}"))?;
    }

    // Heartbeats ride the same write mutex as results, so frames never
    // interleave. The stall flag silences them without closing the socket —
    // exactly the failure mode of a wedged-but-alive process.
    let stalled = Arc::new(AtomicBool::new(false));
    let hb_writer = writer.clone();
    let hb_stalled = stalled.clone();
    let hb_interval = Duration::from_millis(opts.heartbeat_ms.max(1));
    std::thread::Builder::new()
        .name("tsvd-fleet-heartbeat".into())
        .spawn(move || loop {
            std::thread::sleep(hb_interval);
            if hb_stalled.load(Ordering::Relaxed) {
                continue;
            }
            let mut w = hb_writer.lock();
            if write_frame(&mut *w, &Frame::Heartbeat).is_err() {
                return;
            }
        })
        .map_err(|e| format!("spawn heartbeat thread: {e}"))?;

    let mut ordinal: u64 = 0;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(e) => return Err(format!("daemon connection lost: {e}")),
        };
        let assign = match frame {
            Frame::Assign(a) => a,
            Frame::Shutdown => return Ok(()),
            other => {
                eprintln!("tsvd-fleet: worker ignoring unexpected frame {other:?}");
                continue;
            }
        };
        let decision = chaos
            .map(|plan| plan.decide(opts.worker, opts.incarnation, ordinal))
            .unwrap_or(FaultDecision::None);
        ordinal += 1;

        if decision == FaultDecision::Stall {
            // Wedge: alive, socket open, no heartbeats, no result. Only the
            // daemon's hang timeout can end this.
            stalled.store(true, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(
                chaos.map(|p| p.stall_ms).unwrap_or(1_000),
            ));
            std::process::exit(3);
        }

        let Some(module) = suite.get(assign.index) else {
            return Err(format!("assigned module {} out of range", assign.index));
        };
        let sink_path =
            opts.sink_dir
                .join(sink_file_name(assign.wave, assign.index, assign.attempt));
        let run = execute(module, opts, assign.wave, &sink_path, &assign.traps);

        match decision {
            FaultDecision::Kill => {
                // The module ran and its sink has the records; die before
                // the daemon hears anything. Harvest-on-death must recover
                // every violation.
                std::process::abort();
            }
            FaultDecision::Torn => {
                let done = done_frame(&run, &assign, &sink_path);
                let mut w = writer.lock();
                let _ = write_torn_frame(&mut *w, &Frame::Done(done));
                std::process::abort();
            }
            FaultDecision::Stall => unreachable!("handled before execution"),
            FaultDecision::None => {}
        }

        // Stream the sink back — reading the file we just wrote (rather
        // than in-memory reports) guarantees frames ⊆ sink, the invariant
        // reconciliation checks. No file: the module caught nothing.
        let records = DurableSink::load(&sink_path).map_err(|e| format!("read sink {e}"))?;
        let done = done_frame(&run, &assign, &sink_path);
        let mut w = writer.lock();
        for record in records {
            write_frame(
                &mut *w,
                &Frame::Violation(ViolationMsg {
                    wave: assign.wave,
                    index: assign.index,
                    record,
                }),
            )
            .map_err(|e| format!("stream violation: {e}"))?;
        }
        write_frame(&mut *w, &Frame::Done(done)).map_err(|e| format!("stream done: {e}"))?;
    }
}

struct Execution {
    outcome: &'static str,
    wall_ns: u64,
    delays: u64,
    on_calls: u64,
    traps: Option<TrapFileData>,
}

fn execute(
    module: &Module,
    opts: &WorkerOptions,
    wave: usize,
    sink_path: &Path,
    traps: &TrapFileData,
) -> Execution {
    let mut config = TsvdConfig::paper().scaled(opts.scale);
    // Waves reseed exactly like `run_suite` runs, so fleet results are
    // comparable to the sequential baseline module for module.
    config.seed = opts
        .seed
        .wrapping_add((wave as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    config.durable_sink = Some(sink_path.to_path_buf());
    let options = RunOptions {
        config,
        threads: opts.threads,
        runs: 1,
        module_deadline: (opts.deadline_ms > 0).then(|| Duration::from_millis(opts.deadline_ms)),
        static_priors: None,
    };
    let import = (!traps.pairs.is_empty()).then_some(traps);
    let run = run_module_once(module, DetectorKind::Tsvd, &options, import);
    // Syncs what the module's catches appended; free when it caught none.
    run.runtime.flush_durable_sink();
    Execution {
        outcome: run.outcome.as_str(),
        wall_ns: run.wall_ns,
        delays: run.runtime.stats().delays_injected(),
        on_calls: run.runtime.stats().on_calls(),
        traps: run.runtime.export_trap_file(),
    }
}

fn done_frame(run: &Execution, assign: &crate::wire::Assign, sink_path: &Path) -> Done {
    Done {
        wave: assign.wave,
        index: assign.index,
        attempt: assign.attempt,
        outcome: run.outcome.to_string(),
        wall_ns: run.wall_ns,
        delays: run.delays,
        on_calls: run.on_calls,
        dangerous_pairs: run
            .traps
            .as_ref()
            .map(|t| t.pairs.len() as u64)
            .unwrap_or(0),
        traps: run.traps.clone(),
        sink: sink_path.display().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_names_match_the_reconciler() {
        let name = sink_file_name(2, 17, 1);
        assert_eq!(crate::ledger::parse_sink_name(&name), Some((2, 17, 1)));
    }
}
