//! The delay watchdog: keeps injected delays from hanging the test.
//!
//! TSVD's delays are only safe if they can never turn a passing test into a
//! hung one. Budgets (§3.4) bound the *total* delay, but they cannot prevent
//! a *momentary* stall where every runnable pool thread is simultaneously
//! sleeping in an injected delay (or blocked in a join behind one) — the
//! delay-induced starvation that blocking synchronization makes possible.
//!
//! The watchdog is a per-runtime monitor thread, spawned lazily on the first
//! injected delay so passive and delay-free runs pay nothing. It polls once
//! per `beat_ns` and checks for **starvation**:
//! at least one thread is sleeping in a delay and every registered pool
//! worker is either delaying or blocked in a join. After the condition
//! persists for `GRACE_POLLS` consecutive polls, the oldest live trap is
//! cancelled (its owner wakes early, uncaught). `MAX_CANCELLATIONS` such
//! cancellations degrade the runtime to **passive monitoring**: no further
//! delays are injected, but trap checking and near-miss tracking stay on.
//!
//! The watchdog does not bound a run's length: a wedged run is stopped by
//! its caller's deadline through [`Runtime::abandon`], which degrades the
//! runtime the same way and cancels every live trap.
//!
//! Pool workers register themselves via [`Watchdog::register_worker`] (a
//! thread-local mark + a counter) and report join-blocking through
//! [`Watchdog::note_blocked`]; the runtime wraps every injected sleep in a
//! `DelayScope`. All counters are plain atomics — the `OnCall` fast path
//! is untouched except for one relaxed load of the degraded flag.
//!
//! [`Runtime::abandon`]: crate::Runtime::abandon

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::clock;
use crate::config::TsvdConfig;
use crate::trap::TrapTable;

/// Consecutive starved polls before a trap is cancelled: debounces the
/// transient all-blocked states of a pool handing work around.
pub(crate) const GRACE_POLLS: u32 = 2;

/// Starvation cancellations after which injection degrades to passive
/// monitoring for the rest of the run.
pub(crate) const MAX_CANCELLATIONS: u64 = 16;

/// The monitor's poll interval under `config`: one beat, which scales with
/// the time constants but not with `delay_ns`, so sweeping the delay
/// (Fig. 9 h) leaves the watchdog's pace alone.
pub(crate) fn poll_interval(config: &TsvdConfig) -> Duration {
    Duration::from_nanos(config.beat_ns)
}

thread_local! {
    /// `true` while the current thread is a registered pool worker.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Returns `true` if the current thread is a registered pool worker.
pub fn is_worker_thread() -> bool {
    IS_WORKER.with(Cell::get)
}

/// Why the watchdog degraded a runtime to passive monitoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// Starvation cancellations reached `MAX_CANCELLATIONS`.
    RepeatedStarvation,
    /// An explicit call to [`Watchdog::degrade`] (harness abandon).
    Abandoned,
}

struct WatchdogInner {
    poll: Duration,
    /// Registered runnable pool threads.
    workers: AtomicUsize,
    /// Registered workers currently blocked in a join wait.
    blocked_workers: AtomicUsize,
    /// Registered workers currently sleeping in an injected delay.
    delayed_workers: AtomicUsize,
    /// All threads (workers or not) sleeping in an injected delay.
    delayed_total: AtomicUsize,
    /// Traps cancelled by the monitor so far.
    cancellations: AtomicU64,
    /// Degrade reason, encoded: 0 = active, 1.. = DegradeReason + 1.
    degraded: AtomicUsize,
    /// Monitor spawned?
    started: AtomicBool,
    shutdown: Mutex<bool>,
    wake: Condvar,
    /// The runtime's trap table, held weakly: the monitor retires with it.
    traps: Weak<TrapTable>,
}

impl WatchdogInner {
    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed) != 0
    }

    fn degrade(&self, reason: DegradeReason) {
        let code = match reason {
            DegradeReason::RepeatedStarvation => 1,
            DegradeReason::Abandoned => 2,
        };
        // First reason wins; later degrades keep the original diagnosis.
        let _ = self
            .degraded
            .compare_exchange(0, code, Ordering::SeqCst, Ordering::SeqCst);
    }

    fn degrade_reason(&self) -> Option<DegradeReason> {
        match self.degraded.load(Ordering::Relaxed) {
            1 => Some(DegradeReason::RepeatedStarvation),
            2 => Some(DegradeReason::Abandoned),
            _ => None,
        }
    }

    /// The starvation predicate: someone is delaying, and no registered
    /// worker is free to run (all delaying or blocked in joins).
    fn starved(&self) -> bool {
        let workers = self.workers.load(Ordering::SeqCst);
        if workers == 0 {
            return false;
        }
        let delayed = self.delayed_total.load(Ordering::SeqCst);
        if delayed == 0 {
            return false;
        }
        let busy = self.delayed_workers.load(Ordering::SeqCst)
            + self.blocked_workers.load(Ordering::SeqCst);
        busy >= workers
    }
}

/// Per-runtime watchdog state plus the (lazily spawned) monitor thread.
pub struct Watchdog {
    inner: Arc<WatchdogInner>,
}

impl Watchdog {
    /// Builds the watchdog of the runtime that owns `traps` (the monitor
    /// thread starts lazily, on the first injected delay).
    pub(crate) fn new(config: &TsvdConfig, traps: &Arc<TrapTable>) -> Watchdog {
        Watchdog {
            inner: Arc::new(WatchdogInner {
                poll: poll_interval(config),
                workers: AtomicUsize::new(0),
                blocked_workers: AtomicUsize::new(0),
                delayed_workers: AtomicUsize::new(0),
                delayed_total: AtomicUsize::new(0),
                cancellations: AtomicU64::new(0),
                degraded: AtomicUsize::new(0),
                started: AtomicBool::new(false),
                shutdown: Mutex::new(false),
                wake: Condvar::new(),
                traps: Arc::downgrade(traps),
            }),
        }
    }

    /// Registers the current thread as a runnable pool worker. The
    /// registration is RAII: dropping it deregisters the worker.
    pub fn register_worker(&self) -> WorkerRegistration {
        self.inner.workers.fetch_add(1, Ordering::SeqCst);
        let was_worker = IS_WORKER.with(|w| w.replace(true));
        WorkerRegistration {
            inner: self.inner.clone(),
            was_worker,
        }
    }

    /// Marks the current thread blocked in a join wait (workers only;
    /// non-worker threads are ignored — they don't starve the pool).
    pub fn note_blocked(&self) {
        if is_worker_thread() {
            self.inner.blocked_workers.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Clears the mark set by [`Watchdog::note_blocked`].
    pub fn note_unblocked(&self) {
        if is_worker_thread() {
            self.inner.blocked_workers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Marks the current thread as sleeping in an injected delay for the
    /// scope of the returned guard, and makes sure the monitor is running.
    pub(crate) fn delay_scope(&self) -> DelayScope {
        self.ensure_started();
        let worker = is_worker_thread();
        self.inner.delayed_total.fetch_add(1, Ordering::SeqCst);
        if worker {
            self.inner.delayed_workers.fetch_add(1, Ordering::SeqCst);
        }
        DelayScope {
            inner: self.inner.clone(),
            worker,
        }
    }

    /// `true` once the runtime has degraded to passive monitoring (no more
    /// delay injection; detection stays on).
    pub fn is_degraded(&self) -> bool {
        self.inner.is_degraded()
    }

    /// Why the runtime degraded, if it has.
    pub fn degrade_reason(&self) -> Option<DegradeReason> {
        self.inner.degrade_reason()
    }

    /// Degrades the runtime to passive monitoring and wakes every sleeping
    /// trap owner. Used by the harness to abandon a timed-out module.
    pub fn degrade(&self) {
        self.inner.degrade(DegradeReason::Abandoned);
        if let Some(traps) = self.inner.traps.upgrade() {
            let n = traps.cancel_all();
            self.inner
                .cancellations
                .fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Traps cancelled by the watchdog so far.
    pub fn cancellations(&self) -> u64 {
        self.inner.cancellations.load(Ordering::Relaxed)
    }

    /// Registered pool workers right now (diagnostics).
    pub fn workers(&self) -> usize {
        self.inner.workers.load(Ordering::SeqCst)
    }

    /// Threads currently sleeping in an injected delay (diagnostics).
    pub fn delayed(&self) -> usize {
        self.inner.delayed_total.load(Ordering::SeqCst)
    }

    /// Spawns the monitor thread once.
    fn ensure_started(&self) {
        if self.inner.started.swap(true, Ordering::SeqCst) {
            return;
        }
        let inner = self.inner.clone();
        if std::thread::Builder::new()
            .name("tsvd-watchdog".into())
            .spawn(move || monitor(inner))
            .is_err()
        {
            // Out of threads: run unguarded rather than failing the test.
            self.inner.started.store(false, Ordering::SeqCst);
        }
    }

    /// Stops the monitor thread (called from the runtime's `Drop`).
    pub(crate) fn shutdown(&self) {
        let mut sd = self.inner.shutdown.lock();
        *sd = true;
        self.inner.wake.notify_all();
    }
}

fn monitor(inner: Arc<WatchdogInner>) {
    let mut starved_polls = 0u32;
    loop {
        {
            // A whole beat per poll: a wakeup that does not shut the
            // monitor down keeps it waiting, so it never counts as a poll.
            let mut sd = inner.shutdown.lock();
            let deadline = clock::deadline_after(inner.poll);
            if clock::wait_until(&inner.wake, &mut sd, deadline, |sd| *sd) {
                return;
            }
        }
        // The table is held weakly: if the runtime is gone, so are we.
        let Some(traps) = inner.traps.upgrade() else {
            return;
        };

        if inner.is_degraded() {
            // Passive mode admits no new traps; sweep out any stragglers
            // (an owner may have passed the degraded check concurrently)
            // and retire once the table is empty.
            let n = traps.cancel_all();
            inner.cancellations.fetch_add(n as u64, Ordering::Relaxed);
            if traps.live_count() == 0 {
                return;
            }
            continue;
        }

        if inner.starved() {
            starved_polls += 1;
            if starved_polls >= GRACE_POLLS {
                starved_polls = 0;
                let woken = traps.cancel_oldest(1) as u64;
                if woken > 0 {
                    let total = inner.cancellations.fetch_add(woken, Ordering::Relaxed) + woken;
                    if total >= MAX_CANCELLATIONS {
                        inner.degrade(DegradeReason::RepeatedStarvation);
                    }
                }
            }
        } else {
            starved_polls = 0;
        }
    }
}

/// RAII registration of a pool worker thread (see
/// [`Watchdog::register_worker`]).
pub struct WorkerRegistration {
    inner: Arc<WatchdogInner>,
    was_worker: bool,
}

impl Drop for WorkerRegistration {
    fn drop(&mut self) {
        self.inner.workers.fetch_sub(1, Ordering::SeqCst);
        let was = self.was_worker;
        IS_WORKER.with(|w| w.set(was));
    }
}

/// RAII mark of one thread sleeping in an injected delay.
pub(crate) struct DelayScope {
    inner: Arc<WatchdogInner>,
    worker: bool,
}

impl Drop for DelayScope {
    fn drop(&mut self) {
        self.inner.delayed_total.fetch_sub(1, Ordering::SeqCst);
        if self.worker {
            self.inner.delayed_workers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, ObjId, OpKind};
    use crate::context::ContextId;
    use std::time::Instant;

    /// A watchdog over a fresh table, polling every 0.5 ms (2 ms delays).
    fn watchdog() -> (Arc<Watchdog>, Arc<TrapTable>) {
        let traps = Arc::new(TrapTable::new());
        let wd = Watchdog::new(&TsvdConfig::for_testing(), &traps);
        (Arc::new(wd), traps)
    }

    fn acc(ctx: u64, obj: u64) -> Access {
        Access {
            context: ContextId(ctx),
            obj: ObjId(obj),
            site: crate::site!(),
            op_name: "t.op",
            kind: OpKind::Write,
            time_ns: 0,
        }
    }

    /// One registered worker that delays alone (starvation by itself),
    /// sleeping up to 30 s; returns whether it was caught and how long it
    /// slept.
    fn starving_worker(wd: &Arc<Watchdog>, traps: &Arc<TrapTable>, ctx: u64) -> (bool, Duration) {
        let (wd, traps) = (wd.clone(), traps.clone());
        std::thread::spawn(move || {
            let _reg = wd.register_worker();
            let trap = traps.set_trap(acc(ctx, 7), None);
            let scope = wd.delay_scope();
            let start = Instant::now();
            let caught = trap.sleep(Duration::from_secs(30));
            drop(scope);
            traps.clear_trap(&trap);
            (caught, start.elapsed())
        })
        .join()
        .expect("worker no panic")
    }

    /// Waits up to 2 s for `done`; the monitor bumps its counters *after*
    /// waking a sleeper, so they can trail the sleeper's return.
    fn eventually(done: impl Fn() -> bool) -> bool {
        let wait = Instant::now();
        while !done() && wait.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
        done()
    }

    #[test]
    fn worker_registration_is_raii_and_thread_local() {
        let (wd, _traps) = watchdog();
        assert_eq!(wd.workers(), 0);
        assert!(!is_worker_thread());
        {
            let _reg = wd.register_worker();
            assert_eq!(wd.workers(), 1);
            assert!(is_worker_thread());
        }
        assert_eq!(wd.workers(), 0);
        assert!(!is_worker_thread());
    }

    #[test]
    fn starvation_requires_all_workers_busy() {
        let (wd, _traps) = watchdog();
        // Two workers on other threads, only one delayed: not starved.
        let inner = wd.inner.clone();
        inner.workers.store(2, Ordering::SeqCst);
        inner.delayed_total.store(1, Ordering::SeqCst);
        inner.delayed_workers.store(1, Ordering::SeqCst);
        assert!(!inner.starved());
        // Second worker blocked in a join: starved.
        inner.blocked_workers.store(1, Ordering::SeqCst);
        assert!(inner.starved());
        // A delaying non-worker alone cannot starve the pool.
        inner.delayed_workers.store(0, Ordering::SeqCst);
        inner.blocked_workers.store(2, Ordering::SeqCst);
        assert!(inner.starved(), "all workers blocked + a delayer counts");
        inner.delayed_total.store(0, Ordering::SeqCst);
        assert!(!inner.starved(), "no delay in flight, nothing to cancel");
    }

    #[test]
    fn degrade_wakes_every_sleeper_and_goes_passive() {
        // No delay scope, so no monitor: `degrade` reaches the table itself.
        let (wd, traps) = watchdog();
        let trap = traps.set_trap(acc(1, 7), None);
        let abandoner = {
            let wd = wd.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                wd.degrade();
            })
        };
        let start = Instant::now();
        let caught = trap.sleep(Duration::from_secs(30));
        traps.clear_trap(&trap);
        abandoner.join().expect("abandoner no panic");
        assert!(!caught);
        assert!(start.elapsed() < Duration::from_secs(5), "woken early");
        assert_eq!(wd.degrade_reason(), Some(DegradeReason::Abandoned));
        assert_eq!(wd.cancellations(), 1);
    }

    #[test]
    fn starvation_cancels_the_delay_when_all_workers_sleep() {
        let (wd, traps) = watchdog();
        let (caught, slept) = starving_worker(&wd, &traps, 1);
        assert!(!caught);
        assert!(
            slept < Duration::from_secs(5),
            "watchdog must cancel a starving delay, slept {slept:?}"
        );
        assert!(eventually(|| wd.cancellations() >= 1));
        assert!(
            !wd.is_degraded(),
            "one cancellation is not repeated starvation"
        );
        wd.shutdown();
    }

    #[test]
    fn wakeups_without_shutdown_are_not_polls() {
        // A long beat, and a nudger that wakes the monitor every
        // millisecond without asking it to stop: each such wakeup (as a
        // spurious one would) must leave the monitor waiting out its beat,
        // so the grace period still takes whole beats.
        let traps = Arc::new(TrapTable::new());
        let mut config = TsvdConfig::for_testing();
        config.beat_ns = clock::ms_to_ns(100);
        let wd = Arc::new(Watchdog::new(&config, &traps));
        let stop = Arc::new(AtomicBool::new(false));
        let nudger = {
            let (wd, stop) = (wd.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    wd.inner.wake.notify_all();
                    clock::pause(Duration::from_millis(1));
                }
            })
        };
        let (caught, slept) = starving_worker(&wd, &traps, 1);
        stop.store(true, Ordering::SeqCst);
        nudger.join().expect("nudger no panic");
        assert!(!caught, "the starving delay is still cancelled");
        assert!(
            slept >= poll_interval(&config),
            "cancelled after {slept:?}, inside one poll interval"
        );
        wd.shutdown();
    }

    #[test]
    fn repeated_starvation_degrades_to_passive() {
        let (wd, traps) = watchdog();
        for round in 0..2 * MAX_CANCELLATIONS {
            if wd.is_degraded() {
                break;
            }
            let (caught, slept) = starving_worker(&wd, &traps, round);
            assert!(!caught && slept < Duration::from_secs(5));
        }
        assert!(
            eventually(|| wd.is_degraded()),
            "{MAX_CANCELLATIONS} cancellations must trip passive mode"
        );
        assert_eq!(wd.degrade_reason(), Some(DegradeReason::RepeatedStarvation));
        assert!(wd.cancellations() >= MAX_CANCELLATIONS);
        wd.shutdown();
    }
}
