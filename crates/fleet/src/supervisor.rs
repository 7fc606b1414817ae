//! The fleet daemon: supervised multi-process suite execution.
//!
//! One event loop owns all scheduling state and the only clock: it blocks
//! on its event channel until the next 25 ms tick is due, and accept/reader
//! threads only funnel `Event`s into it, so every decision is serialized.
//! The run state is a [`LedgerState`], the same value `--resume`, `verify`
//! and [`replay`] build: every decision goes through one `commit`, which
//! appends the event to the [`crate::ledger`] and only then applies it
//! (write-ahead). Run parameters come from the state's start event alone.
//! Supervision duties:
//!
//! - **liveness**: workers heartbeat every `heartbeat_ms`; a worker silent
//!   for 20 heartbeats is killed and treated as dead (the process-wide
//!   analogue of `ModuleOutcome::TimedOut`);
//! - **reporting**: violations reach the daemon only through each
//!   execution's durable sink, harvested into the ledger when the
//!   execution's `Done` arrives, before the event that resolves it;
//! - **carrying**: the done event records the trap file the execution
//!   exported, and each assignment carries the module's own latest file
//!   ([`LedgerState::carried`]), so wave k starts from what wave k - 1
//!   learned about that module, as run k of `run_suite` does;
//! - **recovery**: a dead worker's in-flight module is re-queued, after
//!   harvesting the execution's durable sink so no already-caught
//!   violation is lost to a torn socket write or an abort;
//! - **quarantine**: a module that kills 3 workers is poisoned instead of
//!   taking the fleet down with it, and one whose outcome fails twice keeps
//!   its last outcome;
//! - **degradation**: dead workers respawn under capped exponential
//!   backoff with deterministic jitter; a slot that fails to spawn 5 times
//!   in a row retires, and the run continues on fewer workers (erroring
//!   only when none remain with work still pending).
//!
//! The three limits are constants, written into the start event so that a
//! resumed run and `verify` read the values the run began with.

use std::collections::VecDeque;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsvd_core::rng::mix;
use tsvd_core::sink::DurableSink;

use crate::chaos::{ChaosPlan, CHAOS_ENV};
use crate::ledger::{
    read_sink_dir, replay, AssignEvent, DeathEvent, DoneEvent, FinishEvent, Ledger, LedgerEvent,
    LedgerState, QuarantineEvent, RetryEvent, StartEvent, ViolationEvent, RETRY_REASON_DEATH,
    RETRY_REASON_OUTCOME,
};
use crate::runner::ModuleOutcome;
use crate::suites::SuiteSpec;
use crate::wire::{read_frame, write_frame, Frame};
use crate::worker::sink_file_name;

/// How often the event loop looks at liveness, respawns and wave progress
/// when no event makes it look sooner.
const TICK: Duration = Duration::from_millis(25);
/// How long a clean finish waits for workers to exit before killing them.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(3);
/// Heartbeat intervals a worker may stay silent before it counts as hung.
const HANG_HEARTBEATS: u64 = 20;
/// Worker deaths a module may cause before quarantine.
const QUARANTINE_KILL_LIMIT: u32 = 3;
/// Executions a module gets on failed outcomes (panic, timeout) before its
/// last outcome is recorded as final.
const MODULE_ATTEMPT_LIMIT: u32 = 2;
/// Consecutive spawn failures before a worker slot retires.
const MAX_SPAWN_FAILURES: u32 = 5;

/// Fleet run configuration.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// The suite to run.
    pub suite: SuiteSpec,
    /// Worker processes.
    pub workers: usize,
    /// Waves (cross-process analogue of `RunOptions::runs`).
    pub waves: usize,
    /// Pool threads per module.
    pub threads: usize,
    /// Detector time-constant scale.
    pub scale: f64,
    /// Base suite seed.
    pub seed: u64,
    /// Per-module deadline, milliseconds; every module runs watched, so
    /// it must be positive.
    pub deadline_ms: u64,
    /// Worker heartbeat interval, milliseconds; 20 silent intervals kill
    /// a worker.
    pub heartbeat_ms: u64,
    /// Fault-injection plan (`--chaos`).
    pub chaos: Option<ChaosPlan>,
    /// Ledger path (write-ahead state; `--resume` target).
    pub ledger: PathBuf,
    /// Directory for per-execution worker sinks.
    pub sink_dir: PathBuf,
    /// Worker executable (defaults to the current executable).
    pub worker_exe: Option<PathBuf>,
    /// Continue a previous run from its ledger instead of starting fresh.
    pub resume: bool,
    /// Test hook: stop the daemon cold (no finish event, no shutdown
    /// frames) after this many module completions — simulates a daemon
    /// crash so resume paths can be tested deterministically.
    pub stop_after_completions: Option<usize>,
    /// Suppress progress logging.
    pub quiet: bool,
}

impl FleetOptions {
    /// Defaults mirroring `RunOptions::standard()` plus the heartbeat.
    pub fn standard(suite: SuiteSpec, ledger: PathBuf, sink_dir: PathBuf) -> FleetOptions {
        FleetOptions {
            suite,
            workers: 4,
            waves: 2,
            threads: 2,
            scale: 0.02,
            seed: 0x534D_414C,
            deadline_ms: 30_000,
            heartbeat_ms: 100,
            chaos: None,
            ledger,
            sink_dir,
            worker_exe: None,
            resume: false,
            stop_after_completions: None,
            quiet: false,
        }
    }
}

/// What a fleet run did.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Module executions recorded with a final outcome.
    pub completed: usize,
    /// Quarantined module indices.
    pub quarantined: Vec<usize>,
    /// Deduplicated (module, location-pair) violations.
    pub violations: usize,
    /// Re-queue decisions taken.
    pub retries: usize,
    /// Worker deaths observed.
    pub deaths: usize,
    /// Wall-clock nanoseconds of this daemon invocation.
    pub wall_ns: u64,
    /// Share of `workers x wall_ns` that workers spent inside modules (the
    /// sum of every done frame's `wall_ns`); the rest is the fleet's own.
    pub busy_share: f64,
    /// Mean microseconds a worker spent on an assignment outside the
    /// module itself: assign written to done read, minus the done frame's
    /// `wall_ns` — frames, suite lookup, runtime and sink set-up.
    pub worker_fixed_us: f64,
    /// Mean microseconds from reading a worker's done frame to writing its
    /// next assignment — ledger, dispatch, and at a wave's end the wait for
    /// the other workers.
    pub turnaround_us: f64,
    /// `true` if the stop-after-completions test hook ended the run early.
    pub stopped_early: bool,
    /// Ledger path (for `verify` / `--resume`).
    pub ledger: PathBuf,
}

/// Why a fleet run could not finish.
#[derive(Debug)]
pub enum FleetError {
    /// Filesystem / socket setup failed.
    Io(std::io::Error),
    /// The ledger could not be created, loaded, or resumed.
    Ledger(String),
    /// Every worker slot retired with modules still pending.
    AllWorkersRetired {
        /// Modules that never resolved.
        pending: usize,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Io(e) => write!(f, "fleet i/o error: {e}"),
            FleetError::Ledger(e) => write!(f, "fleet ledger error: {e}"),
            FleetError::AllWorkersRetired { pending } => write!(
                f,
                "every worker slot retired with {pending} module(s) still pending"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> FleetError {
        FleetError::Io(e)
    }
}

enum Event {
    Hello {
        worker: usize,
        incarnation: u64,
        pid: u32,
        stream: UnixStream,
    },
    Frame {
        worker: usize,
        incarnation: u64,
        /// Boxed: a done frame carries a whole trap file.
        frame: Box<Frame>,
        /// When the reader thread had it, before any wait in the channel.
        read_at: Instant,
    },
    Eof {
        worker: usize,
        incarnation: u64,
        reason: String,
    },
}

struct Slot {
    incarnation: u64,
    child: Option<Child>,
    stream: Option<UnixStream>,
    current: Option<(usize, usize, u32)>,
    /// When `current`'s assign frame was written.
    assigned_at: Instant,
    /// When this incarnation's latest done frame was read, until the next
    /// assignment is written.
    done_at: Option<Instant>,
    last_seen: Instant,
    consecutive_deaths: u32,
    spawn_failures: u32,
    respawn_at: Option<Instant>,
    retired: bool,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            incarnation: 0,
            child: None,
            stream: None,
            current: None,
            assigned_at: Instant::now(),
            done_at: None,
            last_seen: Instant::now(),
            consecutive_deaths: 0,
            spawn_failures: 0,
            respawn_at: None,
            retired: false,
        }
    }
}

struct Daemon {
    opts: FleetOptions,
    ledger: Ledger,
    /// The run as its ledger records it; changed only by [`Daemon::commit`].
    state: LedgerState,
    slots: Vec<Slot>,
    queue: VecDeque<usize>,
    wave: usize,
    begun: Instant,
    spent: WorkerTime,
}

/// Where worker time went, summed over the done frames and assignments of
/// this invocation (see the [`FleetReport`] fields it becomes).
#[derive(Default)]
struct WorkerTime {
    dones: u32,
    busy: Duration,
    fixed: Duration,
    turnarounds: u32,
    turnaround: Duration,
}

fn mean_us(total: Duration, samples: u32) -> f64 {
    total.as_secs_f64() * 1e6 / f64::from(samples.max(1))
}

/// Runs (or resumes) a fleet and blocks until it finishes, degrades to
/// nothing, or the stop-after hook fires. Resuming a finished run only
/// reports it.
pub fn run_fleet(options: FleetOptions) -> Result<FleetReport, FleetError> {
    let begun = Instant::now();
    let ledger_error = |e: std::io::Error| FleetError::Ledger(e.to_string());
    let resume = options.resume;
    let (ledger, state) = if resume {
        let state = replay(&Ledger::load(&options.ledger).map_err(ledger_error)?);
        let start = state
            .start
            .as_ref()
            .ok_or_else(|| FleetError::Ledger("ledger has no start event".to_string()))?;
        SuiteSpec::parse(&start.suite).map_err(FleetError::Ledger)?;
        let ledger = Ledger::open_append(&options.ledger).map_err(ledger_error)?;
        (ledger, state)
    } else {
        let ledger = Ledger::create(&options.ledger).map_err(ledger_error)?;
        (ledger, LedgerState::default())
    };

    let mut daemon = Daemon {
        opts: options,
        ledger,
        state,
        slots: Vec::new(),
        queue: VecDeque::new(),
        wave: 0,
        begun,
        spent: WorkerTime::default(),
    };
    if !resume {
        let opts = &daemon.opts;
        let start = StartEvent {
            suite: opts.suite.to_arg(),
            modules: opts.suite.modules(),
            waves: opts.waves,
            workers: opts.workers,
            threads: opts.threads,
            scale: opts.scale,
            seed: opts.seed,
            deadline_ms: opts.deadline_ms,
            quarantine_kill_limit: QUARANTINE_KILL_LIMIT,
            module_attempt_limit: MODULE_ATTEMPT_LIMIT,
            sink_dir: opts.sink_dir.clone(),
            chaos: opts.chaos.as_ref().map(ChaosPlan::to_env),
        };
        daemon.commit(LedgerEvent::Start(start))?;
    } else if daemon.state.finished {
        // Nothing is left to run: no socket, no worker, no ledger line.
        return Ok(daemon.report(false));
    }
    std::fs::create_dir_all(&daemon.start().sink_dir)?;
    if resume {
        // Sinks may hold records the old daemon never got to the ledger.
        daemon.harvest_all_sinks()?;
    }
    daemon.advance_wave_if_exhausted();

    daemon.supervise()
}

impl Daemon {
    /// The one write-ahead step: the event lands in the ledger before the
    /// state moves, so a resumed daemon never lacks a decision this one
    /// acted on.
    fn commit(&mut self, event: LedgerEvent) -> Result<(), FleetError> {
        self.ledger.append(&event)?;
        self.state.apply(&event);
        Ok(())
    }

    /// The recorded run parameters, committed or replayed before anything
    /// reads them.
    fn start(&self) -> &StartEvent {
        self.state
            .start
            .as_ref()
            .expect("run_fleet holds a start event before the run begins")
    }

    /// The socket path is derived from the ledger path so one fleet = one
    /// namespace on disk.
    fn socket_path(&self) -> PathBuf {
        let mut name = self
            .opts
            .ledger
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        name.push(".sock");
        self.opts.ledger.with_file_name(name)
    }

    fn log(&self, msg: std::fmt::Arguments<'_>) {
        if !self.opts.quiet {
            eprintln!("tsvd-fleet: {msg}");
        }
    }

    fn supervise(&mut self) -> Result<FleetReport, FleetError> {
        let socket = self.socket_path();
        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket)?;
        let (tx, rx) = mpsc::channel::<Event>();
        let accepting = Arc::new(AtomicBool::new(true));

        // Accept thread: every connection gets a reader thread that parses
        // the Hello itself, so a half-open connection can never block the
        // accept loop.
        let accept_flag = accepting.clone();
        let accept_handle = std::thread::Builder::new()
            .name("tsvd-fleet-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if !accept_flag.load(Ordering::Relaxed) {
                        return;
                    }
                    let Ok(conn) = conn else { continue };
                    let tx = tx.clone();
                    let _ = std::thread::Builder::new()
                        .name("tsvd-fleet-reader".into())
                        .spawn(move || reader_thread(conn, tx));
                }
            })?;

        self.slots = (0..self.opts.workers).map(|_| Slot::new()).collect();
        for worker in 0..self.slots.len() {
            self.spawn_worker(worker, &socket);
        }

        let outcome = self.event_loop(&rx);

        // Teardown (both clean finish and early stop): stop accepting, shut
        // workers down, then run the final sweep — only after every worker
        // is gone can the sink union be stable.
        accepting.store(false, Ordering::Relaxed);
        let _ = UnixStream::connect(&socket); // unblock accept()
        let _ = accept_handle.join();
        let finished = matches!(outcome, Ok(false));
        self.shutdown_workers(finished, &rx);
        let _ = std::fs::remove_file(&socket);
        let stopped_early = outcome?;
        if !stopped_early {
            self.harvest_all_sinks()?;
            self.commit(LedgerEvent::Finish(FinishEvent {
                completed: self.state.done.len(),
                quarantined: self.state.quarantined.len(),
            }))?;
        }
        Ok(self.report(stopped_early))
    }

    /// The run's counts as the state holds them, with this invocation's
    /// worker time.
    fn report(&self, stopped_early: bool) -> FleetReport {
        let mut quarantined: Vec<usize> = self.state.quarantined.keys().copied().collect();
        quarantined.sort_unstable();
        let wall = self.begun.elapsed();
        let capacity = wall.as_secs_f64() * self.opts.workers.max(1) as f64;
        FleetReport {
            completed: self.state.done.len(),
            quarantined,
            violations: self.state.violations.len(),
            retries: self.state.retries,
            deaths: self.state.deaths,
            wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            busy_share: self.spent.busy.as_secs_f64() / capacity,
            worker_fixed_us: mean_us(self.spent.fixed, self.spent.dones),
            turnaround_us: mean_us(self.spent.turnaround, self.spent.turnarounds),
            stopped_early,
            ledger: self.opts.ledger.clone(),
        }
    }

    /// The serialized decision loop. Returns `Ok(true)` if the stop-after
    /// test hook ended the run early, `Ok(false)` on a clean finish.
    fn event_loop(&mut self, rx: &mpsc::Receiver<Event>) -> Result<bool, FleetError> {
        let mut next_tick = Instant::now() + TICK;
        loop {
            if self.run_finished() {
                return Ok(false);
            }
            if let Some(limit) = self.opts.stop_after_completions {
                if self.state.done.len() >= limit {
                    self.log(format_args!(
                        "stop-after hook: halting after {} completions",
                        self.state.done.len()
                    ));
                    return Ok(true);
                }
            }
            // The one clock: a tick when it is due, however busy the
            // channel; otherwise sleep on the channel until it is.
            let now = Instant::now();
            if now >= next_tick {
                next_tick = now + TICK;
                self.on_tick()?;
                continue;
            }
            match rx.recv_timeout(next_tick - now) {
                Ok(Event::Hello {
                    worker,
                    incarnation,
                    pid,
                    stream,
                }) => self.on_hello(worker, incarnation, pid, stream)?,
                Ok(Event::Frame {
                    worker,
                    incarnation,
                    frame,
                    read_at,
                }) => self.on_frame(worker, incarnation, *frame, read_at)?,
                Ok(Event::Eof {
                    worker,
                    incarnation,
                    reason,
                }) => {
                    if self.slot_is_current(worker, incarnation) {
                        self.on_death(worker, &reason)?;
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(FleetError::Ledger("event channel closed".to_string()))
                }
            }
        }
    }

    fn run_finished(&self) -> bool {
        self.wave >= self.start().waves
    }

    fn slot_is_current(&self, worker: usize, incarnation: u64) -> bool {
        self.slots
            .get(worker)
            .is_some_and(|s| s.incarnation == incarnation && !s.retired && s.child.is_some())
    }

    fn on_hello(
        &mut self,
        worker: usize,
        incarnation: u64,
        pid: u32,
        stream: UnixStream,
    ) -> Result<(), FleetError> {
        if !self.slot_is_current(worker, incarnation) {
            // A stale process (already killed, already superseded): closing
            // the stream makes it exit on its next read.
            drop(stream);
            return Ok(());
        }
        self.log(format_args!(
            "worker {worker} (incarnation {incarnation}, pid {pid}) connected"
        ));
        let slot = &mut self.slots[worker];
        slot.stream = Some(stream);
        slot.last_seen = Instant::now();
        slot.consecutive_deaths = 0;
        slot.spawn_failures = 0;
        self.dispatch()?;
        Ok(())
    }

    fn on_frame(
        &mut self,
        worker: usize,
        incarnation: u64,
        frame: Frame,
        read_at: Instant,
    ) -> Result<(), FleetError> {
        if !self.slot_is_current(worker, incarnation) {
            return Ok(());
        }
        self.slots[worker].last_seen = Instant::now();
        match frame {
            Frame::Heartbeat => {}
            Frame::Done(done) => self.on_done(worker, done, read_at)?,
            other => {
                self.log(format_args!("ignoring unexpected frame {other:?}"));
            }
        }
        Ok(())
    }

    /// Commits a violation the run has not seen for this module; a repeat
    /// (a re-harvested sink, a retried module) is absorbed here.
    fn record_violation(
        &mut self,
        index: usize,
        record: &tsvd_core::ViolationRecord,
    ) -> Result<(), FleetError> {
        let pair = record.pair_key();
        if self.state.violations.contains(&(index, pair.clone())) {
            return Ok(());
        }
        self.commit(LedgerEvent::Violation(ViolationEvent {
            index,
            pair_a: pair.0,
            pair_b: pair.1,
            record: record.clone(),
        }))
    }

    fn on_done(
        &mut self,
        worker: usize,
        done: crate::wire::Done,
        read_at: Instant,
    ) -> Result<(), FleetError> {
        let slot = &mut self.slots[worker];
        if slot.current != Some((done.wave, done.index, done.attempt)) {
            self.log(format_args!(
                "worker {worker} reported unassigned work (wave {} module {}); ignoring",
                done.wave, done.index
            ));
            return Ok(());
        }
        slot.current = None;
        slot.done_at = Some(read_at);
        let busy = Duration::from_nanos(done.wall_ns);
        self.spent.dones += 1;
        self.spent.busy += busy;
        self.spent.fixed += read_at
            .saturating_duration_since(slot.assigned_at)
            .saturating_sub(busy);
        // The sink is the execution's one report: its records reach the
        // ledger before the retry or done that resolves the assignment.
        self.harvest_sink(done.wave, done.index, done.attempt)?;
        let outcome = ModuleOutcome::parse(&done.outcome).unwrap_or(ModuleOutcome::Panicked);
        let key = (done.wave, done.index);
        let failures = self.state.failures.get(&key).copied().unwrap_or(0);
        if outcome != ModuleOutcome::Completed && failures + 1 < self.start().module_attempt_limit {
            // Failed outcome with attempts left: re-queue; aggregates only
            // ever count the final outcome, so a module that panics once
            // and then completes counts exactly once.
            self.commit(LedgerEvent::Retry(RetryEvent {
                wave: done.wave,
                index: done.index,
                attempt: done.attempt,
                reason: format!("{RETRY_REASON_OUTCOME} {}", done.outcome),
            }))?;
            self.queue.push_back(done.index);
            self.dispatch()?;
            return Ok(());
        }
        self.commit(LedgerEvent::Done(DoneEvent {
            wave: done.wave,
            index: done.index,
            worker,
            attempt: done.attempt,
            outcome: done.outcome,
            wall_ns: done.wall_ns,
            delays: done.delays,
            on_calls: done.on_calls,
            traps: done.traps,
        }))?;
        self.advance_wave_if_exhausted();
        self.dispatch()?;
        Ok(())
    }

    /// A worker died (EOF, abort, hang-kill). Harvest its in-flight
    /// execution's sink, attribute the kill, re-queue or quarantine.
    fn on_death(&mut self, worker: usize, reason: &str) -> Result<(), FleetError> {
        let slot = &mut self.slots[worker];
        let incarnation = slot.incarnation;
        let current = slot.current.take();
        slot.done_at = None;
        if let Some(child) = &mut slot.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        slot.child = None;
        slot.stream = None;
        slot.incarnation += 1;
        slot.consecutive_deaths += 1;
        self.commit(LedgerEvent::Death(DeathEvent {
            worker,
            incarnation,
            reason: reason.to_string(),
        }))?;
        self.log(format_args!(
            "worker {worker} incarnation {incarnation} died: {reason}"
        ));

        if let Some((wave, index, attempt)) = current {
            // The execution's durable sink survived the process; its
            // records become ledger violations before any re-queue, which
            // is what makes "no violation lost" chaos-provable.
            self.harvest_sink(wave, index, attempt)?;
            let kills = self.state.kills.get(&index).copied().unwrap_or(0) + 1;
            if kills >= self.start().quarantine_kill_limit {
                self.commit(LedgerEvent::Quarantine(QuarantineEvent { index, kills }))?;
                self.queue.retain(|&i| i != index);
                self.log(format_args!(
                    "module {index} quarantined after killing {kills} worker(s)"
                ));
                self.advance_wave_if_exhausted();
            } else {
                self.commit(LedgerEvent::Retry(RetryEvent {
                    wave,
                    index,
                    attempt,
                    reason: format!("{RETRY_REASON_DEATH}: {reason}"),
                }))?;
                self.queue.push_back(index);
            }
        }

        // Capped exponential backoff with deterministic jitter: the retry
        // storm of a crash-looping worker must not starve the event loop,
        // and two slots dying together must not thunder back together.
        let seed = self.start().seed;
        let slot = &mut self.slots[worker];
        let shift = slot.consecutive_deaths.saturating_sub(1).min(6);
        let base_ms = 50u64 << shift;
        let jitter_ms = mix(seed ^ (worker as u64) ^ slot.incarnation) % 50;
        slot.respawn_at =
            Some(Instant::now() + Duration::from_millis(base_ms.min(5_000) + jitter_ms));
        Ok(())
    }

    fn on_tick(&mut self) -> Result<(), FleetError> {
        let now = Instant::now();
        let hang = Duration::from_millis(self.opts.heartbeat_ms.saturating_mul(HANG_HEARTBEATS));
        let socket = self.socket_path();
        for worker in 0..self.slots.len() {
            let slot = &mut self.slots[worker];
            if slot.retired {
                continue;
            }
            if slot.child.is_some() {
                // Liveness: a spawned worker must either heartbeat or die
                // visibly. Silence past the hang timeout — wedged module,
                // suppressed heartbeats, a process that never connected —
                // is the process-wide `TimedOut`, handled by killing it.
                let silent = now.duration_since(slot.last_seen);
                let exited = slot
                    .child
                    .as_mut()
                    .and_then(|c| c.try_wait().ok().flatten())
                    .is_some();
                if exited && slot.stream.is_none() {
                    self.on_death(worker, "exited before connecting")?;
                } else if silent > hang {
                    self.on_death(worker, "hang timeout (no heartbeat)")?;
                }
            } else if slot.respawn_at.is_some_and(|at| now >= at) {
                self.slots[worker].respawn_at = None;
                self.spawn_worker(worker, &socket);
            }
        }
        if !self.run_finished() && self.slots.iter().all(|s| s.retired) {
            let pending = self.state.pending(self.wave).count();
            return Err(FleetError::AllWorkersRetired { pending });
        }
        self.advance_wave_if_exhausted();
        self.dispatch()?;
        Ok(())
    }

    /// Hands queued modules to every idle connected worker.
    fn dispatch(&mut self) -> Result<(), FleetError> {
        for worker in 0..self.slots.len() {
            if self.queue.is_empty() {
                return Ok(());
            }
            let slot = &self.slots[worker];
            if slot.retired || slot.stream.is_none() || slot.current.is_some() {
                continue;
            }
            let Some(index) = self.queue.pop_front() else {
                return Ok(());
            };
            let wave = self.wave;
            if self.state.resolved(wave, index) {
                continue;
            }
            let attempt = self.state.attempts.get(&(wave, index)).map_or(0, |a| *a);
            self.commit(LedgerEvent::Assign(AssignEvent {
                wave,
                index,
                worker,
                incarnation: self.slots[worker].incarnation,
                attempt,
            }))?;
            let frame = Frame::Assign(crate::wire::Assign {
                wave,
                index,
                attempt,
                traps: self.state.carried(wave, index).cloned().unwrap_or_default(),
            });
            let slot = &mut self.slots[worker];
            let ok = slot
                .stream
                .as_mut()
                .map(|s| write_frame(s, &frame).is_ok())
                .unwrap_or(false);
            slot.current = Some((wave, index, attempt));
            slot.assigned_at = Instant::now();
            if let Some(done_at) = slot.done_at.take() {
                self.spent.turnarounds += 1;
                self.spent.turnaround += slot.assigned_at.saturating_duration_since(done_at);
            }
            if !ok {
                // The socket died under us; the death handler re-queues.
                self.on_death(worker, "assign write failed")?;
            }
        }
        Ok(())
    }

    /// When nothing is queued or in flight, queues the current wave's
    /// pending modules — one that bounced back between ticks — or, with
    /// none left, moves to the first later wave that has some (quarantined
    /// modules stay excluded).
    fn advance_wave_if_exhausted(&mut self) {
        if !self.queue.is_empty() || self.slots.iter().any(|s| s.current.is_some()) {
            return;
        }
        while !self.run_finished() {
            self.queue.extend(self.state.pending(self.wave));
            if !self.queue.is_empty() {
                return;
            }
            self.wave += 1;
            if !self.run_finished() {
                self.log(format_args!("wave {} begins", self.wave));
            }
        }
    }

    fn spawn_worker(&mut self, worker: usize, socket: &std::path::Path) {
        if self.slots[worker].retired {
            return;
        }
        let exe = self
            .opts
            .worker_exe
            .clone()
            .or_else(|| std::env::current_exe().ok());
        let Some(exe) = exe else {
            self.retire(worker, "no worker executable");
            return;
        };
        let start = self.start();
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--worker")
            .arg(worker.to_string())
            .arg("--incarnation")
            .arg(self.slots[worker].incarnation.to_string())
            .arg("--suite")
            .arg(&start.suite)
            .arg("--sink-dir")
            .arg(&start.sink_dir)
            .arg("--threads")
            .arg(start.threads.to_string())
            .arg("--scale")
            .arg(start.scale.to_string())
            .arg("--seed")
            .arg(start.seed.to_string())
            .arg("--deadline-ms")
            .arg(start.deadline_ms.to_string())
            .arg("--heartbeat-ms")
            .arg(self.opts.heartbeat_ms.to_string())
            .stdin(Stdio::null());
        match &start.chaos {
            Some(plan) => cmd.env(CHAOS_ENV, plan),
            None => cmd.env_remove(CHAOS_ENV),
        };
        match cmd.spawn() {
            Ok(child) => {
                let slot = &mut self.slots[worker];
                slot.child = Some(child);
                slot.last_seen = Instant::now();
            }
            Err(e) => {
                let slot = &mut self.slots[worker];
                slot.spawn_failures += 1;
                if slot.spawn_failures >= MAX_SPAWN_FAILURES {
                    self.retire(worker, &format!("spawn failed repeatedly: {e}"));
                } else {
                    slot.respawn_at = Some(Instant::now() + Duration::from_millis(200));
                }
            }
        }
    }

    /// Graceful degradation: the slot stops respawning; the fleet runs on.
    fn retire(&mut self, worker: usize, why: &str) {
        let slot = &mut self.slots[worker];
        slot.retired = true;
        slot.child = None;
        slot.stream = None;
        if let Some((_, index, _)) = slot.current.take() {
            self.queue.push_back(index);
        }
        self.log(format_args!("worker slot {worker} retired: {why}"));
    }

    /// Ends every worker. A clean finish asks (`Shutdown`), then waits for
    /// each exit as an event — a connected worker's reader reports `Eof`
    /// when the process closes its socket, which it does by exiting — and
    /// kills whatever is still there after [`SHUTDOWN_GRACE`]. An early
    /// stop kills outright.
    fn shutdown_workers(&mut self, graceful: bool, rx: &mpsc::Receiver<Event>) {
        if graceful {
            for stream in self.slots.iter_mut().filter_map(|s| s.stream.as_mut()) {
                let _ = write_frame(stream, &Frame::Shutdown);
            }
            let deadline = Instant::now() + SHUTDOWN_GRACE;
            let connected = |s: &Slot| s.child.is_some() && s.stream.is_some();
            while self.slots.iter().any(connected) {
                let left = deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(left) {
                    Ok(Event::Eof {
                        worker,
                        incarnation,
                        ..
                    }) if self.slot_is_current(worker, incarnation) => {
                        if let Some(mut child) = self.slots[worker].child.take() {
                            let _ = child.wait();
                        }
                    }
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        }
        for slot in &mut self.slots {
            if let Some(child) = &mut slot.child {
                let _ = child.kill();
                let _ = child.wait();
            }
            slot.child = None;
            slot.stream = None;
        }
    }

    /// Loads one execution's sink and folds every record into the ledger;
    /// a sink that cannot be read fails the run. No file: the execution
    /// caught nothing.
    fn harvest_sink(&mut self, wave: usize, index: usize, attempt: u32) -> Result<(), FleetError> {
        let sink = self
            .start()
            .sink_dir
            .join(sink_file_name(wave, index, attempt));
        for record in DurableSink::load(&sink)? {
            self.record_violation(index, &record)?;
        }
        Ok(())
    }

    /// Sweeps the whole sink directory (resume start; run end). After this,
    /// ledger violations are exactly the union of worker sinks.
    fn harvest_all_sinks(&mut self) -> Result<(), FleetError> {
        for (index, records) in read_sink_dir(&self.start().sink_dir)? {
            for record in records {
                self.record_violation(index, &record)?;
            }
        }
        Ok(())
    }
}

fn reader_thread(conn: UnixStream, tx: mpsc::Sender<Event>) {
    let mut reader = conn;
    let (worker, incarnation) = match read_frame(&mut reader) {
        Ok(Frame::Hello(hello)) => {
            let stream = match reader.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            };
            let _ = tx.send(Event::Hello {
                worker: hello.worker,
                incarnation: hello.incarnation,
                pid: hello.pid,
                stream,
            });
            (hello.worker, hello.incarnation)
        }
        _ => return, // not a worker (e.g. the shutdown dummy connection)
    };
    loop {
        match read_frame(&mut reader) {
            Ok(frame) => {
                if tx
                    .send(Event::Frame {
                        worker,
                        incarnation,
                        frame: Box::new(frame),
                        read_at: Instant::now(),
                    })
                    .is_err()
                {
                    return;
                }
            }
            Err(e) => {
                let _ = tx.send(Event::Eof {
                    worker,
                    incarnation,
                    reason: e.to_string(),
                });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_core::trap_file::TrapFileData;

    #[test]
    fn fleet_error_display_is_informative() {
        let e = FleetError::AllWorkersRetired { pending: 3 };
        assert!(e.to_string().contains("3 module(s)"));
        let e = FleetError::Ledger("boom".into());
        assert!(e.to_string().contains("boom"));
    }

    /// A resumed daemon's state and `slots` connected workers, each with
    /// the far end of its socket, over a ledger of `events`.
    fn resumed_daemon(
        dir: &std::path::Path,
        events: &[LedgerEvent],
        slots: usize,
    ) -> (Daemon, Vec<UnixStream>) {
        let path = dir.join("ledger.jsonl");
        let ledger = Ledger::create(&path).expect("ledger");
        for event in events {
            ledger.append(event).expect("append");
        }
        let state = replay(&Ledger::load(&path).expect("load"));
        let start = state.start.as_ref().expect("start");
        let suite = SuiteSpec::parse(&start.suite).expect("suite");
        let mut opts = FleetOptions::standard(suite, path.clone(), start.sink_dir.clone());
        opts.quiet = true;
        let mut daemon = Daemon {
            opts,
            ledger: Ledger::open_append(&path).expect("reopen"),
            state,
            slots: Vec::new(),
            queue: VecDeque::new(),
            wave: 0,
            begun: Instant::now(),
            spent: WorkerTime::default(),
        };
        let mut peers = Vec::new();
        for _ in 0..slots {
            let (ours, theirs) = UnixStream::pair().expect("socket pair");
            let mut slot = Slot::new();
            slot.stream = Some(ours);
            daemon.slots.push(slot);
            peers.push(theirs);
        }
        (daemon, peers)
    }

    #[test]
    fn a_resumed_daemon_assigns_each_module_its_own_last_file() {
        let dir = std::env::temp_dir().join(format!("tsvd_sup_carry_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let file = |tag: &str| TrapFileData {
            found: vec![(format!("{tag}.rs:1:1"), format!("{tag}.rs:2:2"))],
            ..TrapFileData::default()
        };
        let done = |wave, index, traps| {
            LedgerEvent::Done(DoneEvent {
                wave,
                index,
                worker: 0,
                attempt: 0,
                outcome: "completed".into(),
                wall_ns: 1,
                delays: 0,
                on_calls: 0,
                traps,
            })
        };
        let events = [
            LedgerEvent::Start(StartEvent {
                suite: "std:3:1".into(),
                modules: 3,
                waves: 3,
                workers: 3,
                threads: 1,
                scale: 0.02,
                seed: 1,
                deadline_ms: 1_000,
                quarantine_kill_limit: QUARANTINE_KILL_LIMIT,
                module_attempt_limit: MODULE_ATTEMPT_LIMIT,
                sink_dir: dir.join("sinks"),
                chaos: None,
            }),
            done(0, 0, Some(file("m0w0"))),
            done(0, 1, Some(file("m1w0"))),
            done(0, 2, None),
            done(1, 0, None),
            done(1, 1, Some(file("m1w1"))),
            done(1, 2, None),
        ];
        let (mut daemon, mut peers) = resumed_daemon(&dir, &events, 3);
        daemon.advance_wave_if_exhausted();
        assert_eq!(daemon.wave, 2, "waves 0 and 1 are done");
        daemon.dispatch().expect("dispatch");
        let carried: Vec<(usize, TrapFileData)> = peers
            .iter_mut()
            .map(|peer| match read_frame(peer).expect("assign frame") {
                Frame::Assign(a) => {
                    assert_eq!(a.wave, 2);
                    (a.index, a.traps)
                }
                other => panic!("expected an assignment, got {other:?}"),
            })
            .collect();
        assert_eq!(
            carried,
            [
                (0, file("m0w0")),
                (1, file("m1w1")),
                (2, TrapFileData::default()),
            ],
            "module 0's wave 1 recorded no file, so wave 0's; module 2 never recorded one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unreadable_sink_fails_the_harvest_and_the_run() {
        let dir = std::env::temp_dir().join(format!("tsvd_sup_unreadable_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let sinks = dir.join("sinks");
        // A directory squatting on a sink's name: reading it fails (EISDIR).
        std::fs::create_dir_all(sinks.join("w0_m1_a0.jsonl")).expect("mkdir");
        let suite = SuiteSpec::Std {
            modules: 4,
            seed: 1,
        };
        let mut opts = FleetOptions::standard(suite, dir.join("ledger.jsonl"), sinks.clone());
        let start = StartEvent {
            suite: opts.suite.to_arg(),
            modules: 4,
            waves: 1,
            workers: 1,
            threads: 1,
            scale: opts.scale,
            seed: opts.seed,
            deadline_ms: opts.deadline_ms,
            quarantine_kill_limit: QUARANTINE_KILL_LIMIT,
            module_attempt_limit: MODULE_ATTEMPT_LIMIT,
            sink_dir: sinks,
            chaos: None,
        };
        Ledger::create(&opts.ledger)
            .and_then(|file| file.append(&LedgerEvent::Start(start)))
            .expect("ledger");
        // Resuming harvests every sink before any worker is spawned.
        opts.resume = true;
        opts.quiet = true;
        match run_fleet(opts) {
            Err(FleetError::Io(e)) => assert!(e.to_string().contains("w0_m1_a0.jsonl"), "{e}"),
            other => panic!("expected an i/o error naming the sink, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
