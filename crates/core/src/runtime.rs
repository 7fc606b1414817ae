//! The TSVD runtime: the `OnCall` entry point and the trap framework.
//!
//! One [`Runtime`] instance corresponds to one instrumented test execution.
//! Instrumented collections call [`Runtime::on_call`] right before every
//! thread-unsafe operation; the runtime executes the trap mechanism of
//! Fig. 5 — check for conflicting traps, consult the strategy's
//! `should_delay`, set a trap, re-check the traps set meanwhile, sleep,
//! clear the trap — and reports every collision as a [`Violation`]. The
//! task substrate feeds fork/join/lock events through
//! [`Runtime::on_sync`] (consumed only by TSVD-HB).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::access::{Access, ObjId, OpKind};
use crate::clock::now_ns;
use crate::config::TsvdConfig;
use crate::context;
use crate::phase::PhaseBuffer;
use crate::report::{Party, ReportSink, Violation};
use crate::sink::DurableSink;
use crate::site::SiteId;
use crate::stats::RuntimeStats;
use crate::strategy::{DynamicRandom, Noop, StaticRandom, Strategy, SyncEvent, Tsvd, TsvdHb};
use crate::trap::{TrapEntry, TrapGuard, TrapTable};
use crate::trap_file::TrapFileData;
use crate::trapset::PairCounts;
use crate::watchdog::{Watchdog, WorkerRegistration};

/// A detection runtime: strategy + trap table + report sink + statistics.
pub struct Runtime {
    strategy: Box<dyn Strategy>,
    traps: Arc<TrapTable>,
    sink: ReportSink,
    stats: RuntimeStats,
    config: TsvdConfig,
    /// The run's one phase ring (§3.4.3): a call records its context once;
    /// the verdict feeds coverage and the strategy's planning alike.
    phase: PhaseBuffer,
    /// Liveness monitor for injected delays (see [`crate::watchdog`]).
    watchdog: Watchdog,
    /// Write-ahead violation log, when configured.
    durable: Option<DurableSink>,
    /// A durable append failed and was logged; later failures stay quiet.
    durable_failed: AtomicBool,
}

impl Runtime {
    /// Creates a runtime with an explicit strategy.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`TsvdConfig::validate`]; an invalid
    /// configuration would silently disable detection.
    pub fn new(config: TsvdConfig, strategy: Box<dyn Strategy>) -> Arc<Runtime> {
        if let Err(msg) = config.validate() {
            panic!("invalid TsvdConfig: {msg}");
        }
        let durable = config.durable_sink.as_ref().and_then(|path| {
            match DurableSink::create(path, false) {
                Ok(sink) => Some(sink),
                Err(e) => {
                    // A missing log must not turn detection off entirely.
                    eprintln!(
                        "tsvd: durable sink {} unavailable ({e}); running without it",
                        path.display()
                    );
                    None
                }
            }
        });
        let traps = Arc::new(TrapTable::with_shards(config.trap_shards));
        Arc::new(Runtime {
            strategy,
            sink: ReportSink::new(),
            stats: RuntimeStats::with_shards(config.stats_shards),
            phase: PhaseBuffer::new(config.phase_buffer),
            watchdog: Watchdog::new(&config, &traps),
            traps,
            durable,
            durable_failed: AtomicBool::new(false),
            config,
        })
    }

    /// Creates a runtime with the TSVD strategy (§3.4).
    pub fn tsvd(config: TsvdConfig) -> Arc<Runtime> {
        let s = Box::new(Tsvd::new(&config));
        Self::new(config, s)
    }

    /// Creates a runtime with the TSVD-HB strategy (§3.5).
    pub fn tsvd_hb(config: TsvdConfig) -> Arc<Runtime> {
        let s = Box::new(TsvdHb::new(&config));
        Self::new(config, s)
    }

    /// Creates a runtime with the DynamicRandom strategy (§3.2).
    pub fn dynamic_random(config: TsvdConfig) -> Arc<Runtime> {
        let s = Box::new(DynamicRandom::new(&config));
        Self::new(config, s)
    }

    /// Creates a runtime with the StaticRandom/DataCollider strategy (§3.3).
    pub fn static_random(config: TsvdConfig) -> Arc<Runtime> {
        let s = Box::new(StaticRandom::new(&config));
        Self::new(config, s)
    }

    /// Creates a passive runtime (instrumentation only, no delays).
    pub fn noop(config: TsvdConfig) -> Arc<Runtime> {
        Self::new(config, Box::new(Noop))
    }

    /// Creates a focused-reproduction runtime that hunts exactly `pair`
    /// (§5.2 bug validation; delays are `reproduce_factor ×` longer than
    /// normal so one re-run usually re-triggers the violation).
    pub fn focused(
        config: TsvdConfig,
        pair: crate::near_miss::SitePair,
        reproduce_factor: u32,
    ) -> Arc<Runtime> {
        let s = Box::new(crate::strategy::Focused::new(
            &config,
            pair,
            reproduce_factor,
        ));
        Self::new(config, s)
    }

    /// The paper's `OnCall`: invoked right before a thread-unsafe operation.
    ///
    /// `site` is the static program location of the call (instrumented
    /// wrappers are `#[track_caller]` and pass their caller's position),
    /// `op_name` a human-readable operation name, and `kind` its read/write
    /// classification under the thread-safety contract.
    pub fn on_call(&self, obj: ObjId, site: SiteId, op_name: &'static str, kind: OpKind) {
        let access = Access {
            context: context::current(),
            obj,
            site,
            op_name,
            kind,
            time_ns: now_ns(),
        };

        let concurrent = self.phase.record_and_check(access.context);
        self.stats.record_call(site, concurrent);

        // check_for_trap: are we colliding with a delayed thread?
        let caught = self.traps.check_for_trap(&access);
        for trap in &caught {
            self.report_catch(&access, trap);
        }

        // should_delay: the strategy decides where and when. The strategy
        // always sees the access (near-miss and HB state keep learning),
        // but a degraded runtime never injects the delay. A delay asked for
        // and not injected is handed back, so the strategy can release
        // what it holds for it.
        if let Some(delay_ns) = self.strategy.on_access(&access, concurrent) {
            if self.watchdog.is_degraded() || !self.delay_budget_allows(access.context, delay_ns) {
                self.strategy.on_delay_skipped(&access);
            } else {
                // RAII from here: the guard clears the trap and restores the
                // live count even if anything below unwinds; the scope keeps
                // the watchdog's delayed counters balanced the same way.
                let entry = self.traps.set_trap(access, self.capture_stack());
                let guard = TrapGuard::new(&self.traps, entry);
                // A conflicting trap set between our check and our own
                // `set_trap` belongs to a thread that could not see ours
                // either: catch it now, and skip the sleep — the violation
                // this delay was for is already found.
                let missed = self.traps.check_earlier(guard.entry(), &caught);
                if !missed.is_empty() {
                    for trap in &missed {
                        self.report_catch(&access, trap);
                    }
                    self.strategy.on_delay_skipped(&access);
                    return;
                }
                let _delay_scope = self.watchdog.delay_scope();
                let start_ns = now_ns();
                let caught = guard.entry().sleep(Duration::from_nanos(delay_ns));
                drop(guard); // Clear the trap before bookkeeping.
                let end_ns = now_ns();
                let slept = end_ns.saturating_sub(start_ns);
                self.stats.record_delay(access.context, slept);
                self.strategy
                    .on_delay_complete(&access, start_ns, end_ns, caught);
            }
        }
    }

    /// `access` collided with `trap`: report the violation, durable sink
    /// first, and tell the strategy the pair is found.
    fn report_catch(&self, access: &Access, trap: &TrapEntry) {
        self.stats.record_catch();
        let violation = Violation {
            trapped: Party {
                site: trap.access.site,
                context: trap.access.context,
                op_name: trap.access.op_name,
                kind: trap.access.kind,
                stack: trap.stack.clone(),
            },
            hitter: Party {
                site: access.site,
                context: access.context,
                op_name: access.op_name,
                kind: access.kind,
                stack: self.capture_stack(),
            },
            obj: access.obj,
            time_ns: access.time_ns,
        };
        // Write-ahead: the durable record lands before the in-memory
        // report, so a crash right after the catch still preserves it.
        // The sink opens its file here, on the first catch, so this is
        // also where an unopenable path is found out: said once, and
        // the violation is still reported in memory.
        if let Some(durable) = &self.durable {
            if let Err(e) = durable.append(&violation) {
                if !self.durable_failed.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "tsvd: durable sink append failed ({e}); \
                         violations are reported in memory only"
                    );
                }
            }
        }
        self.strategy.on_violation(violation.pair());
        self.sink.report(violation);
    }

    /// Reports a synchronization event (fork/join/lock). TSVD ignores these
    /// by design; TSVD-HB builds its vector clocks from them.
    pub fn on_sync(&self, event: SyncEvent) {
        self.stats.record_sync();
        self.strategy.on_sync(&event);
    }

    fn delay_budget_allows(&self, ctx: context::ContextId, delay_ns: u64) -> bool {
        if self.stats.delay_total_ns() + delay_ns > self.config.max_delay_per_run_ns {
            return false;
        }
        self.stats.context_delay_ns(ctx) + delay_ns <= self.config.max_delay_per_context_ns
    }

    fn capture_stack(&self) -> Option<Arc<str>> {
        if self.config.capture_stacks {
            let bt = std::backtrace::Backtrace::force_capture();
            Some(Arc::from(bt.to_string().as_str()))
        } else {
            None
        }
    }

    /// The violation reports collected so far.
    pub fn reports(&self) -> &ReportSink {
        &self.sink
    }

    /// Runtime counters (delays, coverage, ...).
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// The active configuration.
    pub fn config(&self) -> &TsvdConfig {
        &self.config
    }

    /// The strategy's short name.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// Approximate bytes of tracking state the strategy retains.
    pub fn strategy_memory_bytes(&self) -> usize {
        self.strategy.memory_bytes()
    }

    /// What became of the strategy's dangerous pairs so far (zeros for a
    /// strategy without a pair table).
    pub fn pair_counts(&self) -> PairCounts {
        self.strategy.pair_counts()
    }

    /// Exports the strategy's persistent trap state, if it keeps any.
    pub fn export_trap_file(&self) -> Option<TrapFileData> {
        self.strategy.export_trap_file()
    }

    /// Imports a previous run's trap state.
    pub fn import_trap_file(&self, data: &TrapFileData) {
        self.strategy.import_trap_file(data);
    }

    /// The delay watchdog attached to this runtime.
    pub fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }

    /// Registers the calling thread as a runnable pool worker with the
    /// watchdog, RAII-style. The task substrate calls this from every
    /// worker it spawns.
    pub fn register_worker(&self) -> WorkerRegistration {
        self.watchdog.register_worker()
    }

    /// Marks the calling thread blocked in a join wait (watchdog input).
    pub fn enter_blocked(&self) {
        self.watchdog.note_blocked();
    }

    /// Clears the mark set by [`Runtime::enter_blocked`].
    pub fn exit_blocked(&self) {
        self.watchdog.note_unblocked();
    }

    /// Number of traps currently armed (threads sleeping or about to).
    pub fn live_traps(&self) -> usize {
        self.traps.live_count()
    }

    /// `true` once the runtime degraded to passive monitoring: detection
    /// stays on, delay injection is off.
    pub fn is_passive(&self) -> bool {
        self.watchdog.is_degraded()
    }

    /// Abandons active injection: degrades to passive monitoring and wakes
    /// every sleeping trap owner. The harness calls this when a module
    /// blows its deadline so the wedged run can drain and terminate.
    pub fn abandon(&self) {
        self.watchdog.degrade();
    }

    /// Flushes the durable violation sink, if one is configured.
    pub fn flush_durable_sink(&self) {
        if let Some(durable) = &self.durable {
            durable.flush();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.watchdog.shutdown();
        self.flush_durable_sink();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ms_to_ns;

    fn cfg() -> TsvdConfig {
        TsvdConfig::for_testing()
    }

    #[test]
    fn noop_runtime_reports_nothing() {
        let rt = Runtime::noop(cfg());
        for i in 0..100 {
            rt.on_call(ObjId(i % 3), crate::site!(), "t.op", OpKind::Write);
        }
        assert_eq!(rt.reports().unique_bugs(), 0);
        assert_eq!(rt.stats().delays_injected(), 0);
        assert_eq!(rt.stats().on_calls(), 100);
    }

    #[test]
    #[should_panic(expected = "invalid TsvdConfig")]
    fn invalid_config_panics() {
        let mut c = cfg();
        c.delay_ns = 0;
        let _ = Runtime::noop(c);
    }

    #[test]
    fn tsvd_runtime_catches_forced_collision() {
        // Arm-then-collide, the paper's same-run mechanism end to end:
        // (1) a near miss between two contexts arms the pair;
        // (2) a later access at one armed site sets a trap and sleeps;
        // (3) a conflicting access from another thread walks into the trap.
        let mut c = cfg();
        c.decay_factor = 0.0; // Keep P_loc = 1 so step 2 is deterministic.
        let delay = Duration::from_nanos(c.delay_ns);
        for _attempt in 0..3 {
            let rt = Runtime::tsvd(c.clone());
            let obj = ObjId(0xC0FFEE);
            let site_a = crate::site!();
            let site_b = crate::site!();
            // (1) Near miss: one call from a spawned thread, one from here.
            std::thread::scope(|scope| {
                scope.spawn(|| rt.on_call(obj, site_a, "x.write", OpKind::Write));
            });
            rt.on_call(obj, site_b, "x.write", OpKind::Write);
            // (2)+(3) Collide: the spawned thread delays at the armed site
            // while this thread makes the conflicting call.
            std::thread::scope(|scope| {
                scope.spawn(|| rt.on_call(obj, site_a, "x.write", OpKind::Write));
                std::thread::sleep(delay / 4);
                rt.on_call(obj, site_b, "x.write", OpKind::Write);
            });
            if rt.reports().unique_bugs() >= 1 {
                return;
            }
        }
        panic!("forced collision was not caught in 3 attempts");
    }

    /// Two threads released by a barrier both delay at one object, each at
    /// its half of a pair armed from a trap file: whether they arrive a
    /// delay apart or in the same microsecond, exactly one of them catches
    /// the other, once, and neither sleeps out its delay.
    #[test]
    fn two_threads_trapping_one_object_together_catch_each_other_once() {
        let mut c = cfg();
        c.delay_ns = ms_to_ns(1_000);
        c.max_delay_per_run_ns = u64::MAX;
        c.max_delay_per_context_ns = u64::MAX;
        let delay = Duration::from_nanos(c.delay_ns);
        let (a, b) = (crate::site!(), crate::site!());
        let armed = TrapFileData::from_pairs(&[crate::near_miss::SitePair::new(a, b)]);
        for iteration in 0..200 {
            let rt = Runtime::tsvd(c.clone());
            rt.import_trap_file(&armed);
            let start = std::sync::Barrier::new(2);
            let obj = ObjId(0x5EED);
            let elapsed: Vec<Duration> = std::thread::scope(|scope| {
                let workers = [a, b].map(|site| {
                    let (rt, start) = (&rt, &start);
                    scope.spawn(move || {
                        start.wait();
                        let t = std::time::Instant::now();
                        rt.on_call(obj, site, "x.write", OpKind::Write);
                        t.elapsed()
                    })
                });
                workers.map(|w| w.join().expect("no panic")).to_vec()
            });
            assert_eq!(
                rt.reports().total_occurrences(),
                1,
                "iteration {iteration}: one violation"
            );
            for e in elapsed {
                assert!(e < delay, "iteration {iteration}: slept {e:?} of {delay:?}");
            }
        }
    }

    #[test]
    fn per_run_delay_budget_caps_injection() {
        let mut c = cfg();
        c.max_delay_per_run_ns = c.delay_ns; // Budget for exactly one delay.
        c.max_delay_per_context_ns = u64::MAX;
        let rt = Runtime::dynamic_random({
            let mut c = c.clone();
            c.dynamic_random_p = 1.0; // Try to delay at every call.
            c
        });
        for i in 0..20 {
            rt.on_call(ObjId(i), crate::site!(), "t.op", OpKind::Write);
        }
        // One full delay fits; everything after is budget-blocked. Allow 2
        // in case the first sleep undershoots the budget boundary.
        assert!(
            rt.stats().delays_injected() <= 2,
            "delays: {}",
            rt.stats().delays_injected()
        );
    }

    #[test]
    fn per_context_budget_is_enforced() {
        let mut c = cfg();
        c.max_delay_per_context_ns = c.delay_ns + ms_to_ns(1);
        c.max_delay_per_run_ns = u64::MAX;
        c.dynamic_random_p = 1.0;
        let rt = Runtime::dynamic_random(c);
        for i in 0..10 {
            rt.on_call(ObjId(i), crate::site!(), "t.op", OpKind::Write);
        }
        assert!(rt.stats().delays_injected() <= 3);
    }

    #[test]
    fn stack_capture_attaches_stacks() {
        let mut c = cfg();
        c.capture_stacks = true;
        c.dynamic_random_p = 1.0;
        let rt = Runtime::dynamic_random(c);
        let obj = ObjId(0xABCD);
        std::thread::scope(|scope| {
            let rt1 = &rt;
            scope.spawn(move || {
                rt1.on_call(obj, crate::site!(), "x.write", OpKind::Write);
            });
            // Give the first thread time to set its trap, then collide.
            std::thread::sleep(Duration::from_millis(1));
            rt.on_call(obj, crate::site!(), "x.write", OpKind::Write);
        });
        if rt.reports().unique_bugs() > 0 {
            let v = &rt.reports().violations()[0];
            assert!(v.trapped.stack.is_some());
            assert!(v.hitter.stack.is_some());
            assert!(rt.reports().stack_trace_pairs() >= 1);
        }
    }

    #[test]
    fn abandoned_runtime_goes_passive_and_stops_delaying() {
        let mut c = cfg();
        c.dynamic_random_p = 1.0; // Delay at every call when active.
        let rt = Runtime::dynamic_random(c);
        rt.on_call(ObjId(1), crate::site!(), "t.op", OpKind::Write);
        let before = rt.stats().delays_injected();
        assert!(before >= 1);
        rt.abandon();
        assert!(rt.is_passive());
        for i in 0..10 {
            rt.on_call(ObjId(i), crate::site!(), "t.op", OpKind::Write);
        }
        assert_eq!(
            rt.stats().delays_injected(),
            before,
            "passive mode must not inject"
        );
        // Detection bookkeeping continues: calls are still counted.
        assert!(rt.stats().on_calls() >= 11);
        assert_eq!(rt.live_traps(), 0);
    }

    /// Two writes to one object a quarter of a delay apart, every call
    /// delayed: the second walks into the first's trap. Scheduling can
    /// spoil a try, so up to five fresh runtimes from `make`.
    fn forced_catch(make: impl Fn() -> Arc<Runtime>) -> Arc<Runtime> {
        for _attempt in 0..5 {
            let rt = make();
            let delay = Duration::from_nanos(rt.config().delay_ns);
            let obj = ObjId(0xFEED);
            std::thread::scope(|scope| {
                let rt1 = &rt;
                scope.spawn(move || {
                    rt1.on_call(obj, crate::site!(), "x.write", OpKind::Write);
                });
                std::thread::sleep(delay / 4);
                rt.on_call(obj, crate::site!(), "x.write", OpKind::Write);
            });
            if rt.reports().unique_bugs() > 0 {
                return rt;
            }
        }
        panic!("no collision caught in 5 attempts");
    }

    fn sink_config(path: &std::path::Path) -> TsvdConfig {
        let mut c = cfg();
        c.dynamic_random_p = 1.0;
        c.durable_sink = Some(path.to_path_buf());
        c
    }

    /// `DynamicRandom`, plus a look at both sinks from `on_violation` —
    /// which `on_call` runs after the durable append and before
    /// `ReportSink::report`.
    struct Witness {
        inner: DynamicRandom,
        path: std::path::PathBuf,
        runtime: Arc<std::sync::OnceLock<std::sync::Weak<Runtime>>>,
        /// (records in the file, occurrences in memory) at each violation.
        seen: Arc<parking_lot::Mutex<Vec<(usize, usize)>>>,
    }

    impl Strategy for Witness {
        fn name(&self) -> &'static str {
            "witness"
        }
        fn on_access(&self, access: &Access, concurrent: bool) -> Option<u64> {
            self.inner.on_access(access, concurrent)
        }
        fn on_delay_complete(&self, access: &Access, start_ns: u64, end_ns: u64, caught: bool) {
            self.inner
                .on_delay_complete(access, start_ns, end_ns, caught);
        }
        fn on_violation(&self, _pair: crate::near_miss::SitePair) {
            let on_disk = DurableSink::load(&self.path).map_or(0, |r| r.len());
            let rt = self.runtime.get().and_then(std::sync::Weak::upgrade);
            let in_memory = rt.map_or(0, |rt| rt.reports().total_occurrences());
            self.seen.lock().push((on_disk, in_memory));
        }
    }

    #[test]
    fn durable_sink_records_catches_write_ahead() {
        let dir = std::env::temp_dir().join(format!("tsvd_rt_sink_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("violations.jsonl");
        let c = sink_config(&path);
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let rt = forced_catch(|| {
            assert!(!path.exists(), "no catch so far, so no file so far");
            seen.lock().clear();
            let runtime = Arc::new(std::sync::OnceLock::new());
            let rt = Runtime::new(
                c.clone(),
                Box::new(Witness {
                    inner: DynamicRandom::new(&c),
                    path: path.clone(),
                    runtime: runtime.clone(),
                    seen: seen.clone(),
                }),
            );
            runtime.set(Arc::downgrade(&rt)).expect("set once");
            rt
        });
        let seen = seen.lock().clone();
        assert_eq!(seen.len(), rt.reports().total_occurrences());
        for (on_disk, in_memory) in seen {
            assert!(
                on_disk > in_memory,
                "the record is in its file ({on_disk}) before the report is held ({in_memory})"
            );
        }
        let records = DurableSink::load(&path).expect("load sink");
        assert!(
            records.len() >= rt.reports().total_occurrences(),
            "durable log must be a superset of in-memory reports"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_whose_parent_cannot_be_made_is_dropped_at_start_and_detection_goes_on() {
        let dir = std::env::temp_dir().join(format!("tsvd_rt_noparent_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("file"), "not a directory").expect("write");
        let c = sink_config(&dir.join("file/under/violations.jsonl"));
        let rt = forced_catch(|| Runtime::dynamic_random(c.clone()));
        assert!(rt.durable.is_none(), "said once, in `Runtime::new`");
        assert!(!rt.durable_failed.load(Ordering::Relaxed));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_that_cannot_be_opened_is_found_at_the_first_catch_and_detection_goes_on() {
        // A directory squatting on the sink's name: nothing is wrong until
        // the first append tries to open it.
        let path = std::env::temp_dir().join(format!("tsvd_rt_isdir_{}", std::process::id()));
        std::fs::create_dir_all(&path).expect("mkdir");
        let c = sink_config(&path);
        let rt = forced_catch(|| {
            let rt = Runtime::dynamic_random(c.clone());
            assert!(rt.durable.is_some(), "start-up has nothing to object to");
            assert!(!rt.durable_failed.load(Ordering::Relaxed));
            rt
        });
        // `forced_catch` returned, so the violation is reported in memory.
        assert!(rt.durable_failed.load(Ordering::Relaxed), "logged, once");
        rt.flush_durable_sink();
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn one_phase_observation_gates_arming_and_coverage_alike() {
        let mut c = cfg();
        c.phase_buffer = 4;
        c.enable_windowing = false; // Near misses independent of wall time.
        c.max_delay_per_run_ns = 0; // Plan, never sleep.
        let rt = Runtime::tsvd(c);
        let (a, b, elsewhere) = (crate::site!(), crate::site!(), crate::site!());
        let call = |ctx: u64, obj: u64, site: SiteId| {
            let _g = context::enter(context::ContextId(ctx), None);
            rt.on_call(ObjId(obj), site, "x.write", OpKind::Write);
        };
        let armed = || rt.export_trap_file().expect("tsvd exports").pairs.len();

        call(1, 7, a);
        // Context 2 runs alone until context 1 has left the 4-slot ring...
        for _ in 0..4 {
            call(2, 8, elsewhere);
        }
        // ...so its near miss with context 1's write is seen in a
        // sequential phase: not armed, not counted as concurrent coverage.
        call(2, 7, b);
        assert_eq!(armed(), 0);
        // Context 1 returns: two contexts in the ring, the same near miss arms.
        call(1, 7, a);
        assert_eq!(armed(), 1);
        let concurrent_hits = |site: SiteId| {
            let cov = rt.stats().coverage();
            cov.iter()
                .find(|(s, _)| *s == site)
                .map(|(_, c)| c.concurrent_hits)
        };
        assert_eq!(concurrent_hits(b), Some(0));
        assert_eq!(concurrent_hits(a), Some(1), "the second call at `a` only");
    }

    /// `on_calls` has no counter of its own: it is the sum of the coverage
    /// cells of every plane. It must equal the calls issued, and the
    /// per-site snapshot a recount in site-index order, with three threads
    /// to a plane growing the tables past their first chunk together, high
    /// site indices first.
    #[test]
    fn on_calls_and_coverage_are_exact_across_threads() {
        const THREADS: usize = 3 * crate::stats::PLANES;
        const CALLS: usize = 1_000;
        // 200 sites span at least four 64-cell chunks of the coverage table.
        let sites: Vec<SiteId> = (0..200)
            .map(|n| {
                SiteId::intern(crate::site::SiteData {
                    file: "coverage_threads_test.rs",
                    line: n + 1,
                    column: 1,
                })
            })
            .collect();
        assert!(sites[199].index() - sites[0].index() >= 199);
        let rt = Runtime::tsvd(cfg());
        // Calls issued per site, by position in `sites`.
        let mut recount = vec![0u64; sites.len()];
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (rt, sites) = (&rt, &sites);
                    scope.spawn(move || {
                        let mut issued = vec![0u64; sites.len()];
                        // A private object per thread: nothing arms or delays.
                        for at in (0..sites.len()).rev().cycle().skip(t).take(CALLS) {
                            rt.on_call(ObjId(t as u64), sites[at], "x.read", OpKind::Read);
                            issued[at] += 1;
                        }
                        issued
                    })
                })
                .collect();
            for worker in workers {
                let issued = worker.join().expect("worker panicked");
                for (total, n) in recount.iter_mut().zip(issued) {
                    *total += n;
                }
            }
        });
        let stats = rt.stats();
        assert_eq!(stats.on_calls(), (THREADS * CALLS) as u64);
        assert_eq!(stats.sites_covered(), sites.len());
        let expected: Vec<(SiteId, u64)> = sites.iter().copied().zip(recount).collect();
        let coverage: Vec<(SiteId, u64)> = stats
            .coverage()
            .into_iter()
            .map(|(site, c)| (site, c.hits))
            .collect();
        assert_eq!(coverage, expected, "in site-index order");
    }

    #[test]
    fn the_runtime_reads_the_ordered_pairs_off_the_pair_table() {
        let mut c = cfg();
        c.enable_windowing = false;
        c.max_delay_per_run_ns = 0; // Plan, never sleep.
        let rt = Runtime::tsvd(c);
        let (init, read) = (crate::site!(), crate::site!());
        let parent = context::current();
        rt.on_call(ObjId(9), init, "x.write", OpKind::Write);
        for child in [context::fresh_id(), context::fresh_id()] {
            let spawn = context::SpawnCertificate::draw();
            let _g = context::enter(child, Some(spawn));
            assert_eq!(spawn.parent, parent);
            rt.on_call(ObjId(9), read, "x.read", OpKind::Read);
        }
        let counts = rt.pair_counts();
        assert_eq!(
            (
                counts.armed_ordered,
                counts.settled_here,
                counts.ordered_delays
            ),
            (1, 0, 0)
        );
        // The budget refused the first child's delay, and its claim on the
        // site went with it: the second child's delay was asked for (and
        // refused) too, not skipped.
        assert_eq!(counts.ordered_skipped, 0);
        let passive = Runtime::noop(cfg());
        assert_eq!(passive.pair_counts(), PairCounts::default());
    }

    #[test]
    fn sync_events_are_counted_and_ignored_by_tsvd() {
        let rt = Runtime::tsvd(cfg());
        rt.on_sync(SyncEvent::Fork {
            parent: context::current(),
            child: context::fresh_id(),
        });
        assert_eq!(rt.stats().sync_events(), 1);
        assert_eq!(rt.reports().unique_bugs(), 0);
    }
}
