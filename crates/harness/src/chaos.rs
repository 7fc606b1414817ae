//! Chaos mode: hostile workloads proving the runtime can't be crashed or
//! hung.
//!
//! The detector's cardinal promise is *do no harm*: whatever an
//! instrumented test does — panic mid-task, leak join handles, stall a
//! worker inside a trap — the runtime must terminate, keep its trap table
//! and counters consistent, and lose no caught violation. Chaos mode turns
//! that promise into an executable check. Each iteration spawns a burst of
//! tasks hammering shared instrumented collections while a seeded RNG
//! injects three failure modes:
//!
//! 1. **task panics** — a fraction of tasks panic partway through their
//!    accesses, unwinding through instrumented wrapper calls (and possibly
//!    through a trap in progress);
//! 2. **dropped handles** — a fraction of join handles are dropped without
//!    joining, so task completion races runtime teardown;
//! 3. **mid-trap stalls** — a fraction of tasks sleep while other threads
//!    are delayed, pushing the pool toward the all-blocked starvation the
//!    watchdog exists to break.
//!
//! After each iteration's storm, [`run_chaos`] verifies the invariants and
//! — when a durable sink is configured — reconciles it pair by pair against
//! that iteration's in-memory reports ([`reconcile_sink`]): every surviving
//! in-memory violation must already be on disk.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use tsvd_collections::Dictionary;
use tsvd_core::rng::SplitMix64;
use tsvd_core::sink::{normalize_pair, DurableSink};
use tsvd_core::{Runtime, TsvdConfig};
use tsvd_workloads::module::ModuleCtx;

/// Tuning for one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Detector configuration (the durable sink rides in here).
    pub config: TsvdConfig,
    /// Pool workers.
    pub threads: usize,
    /// Tasks spawned per iteration.
    pub tasks: usize,
    /// Iterations (each gets a fresh runtime and pool).
    pub iterations: usize,
    /// RNG seed for the failure injection.
    pub seed: u64,
    /// Probability (×1000) that a task panics mid-access.
    pub panic_per_mille: u32,
    /// Probability (×1000) that a handle is dropped without joining.
    pub drop_per_mille: u32,
    /// Probability (×1000) that a task stalls mid-burst.
    pub stall_per_mille: u32,
}

impl ChaosOptions {
    /// The standard storm: small but hostile, CI-sized.
    pub fn standard() -> ChaosOptions {
        ChaosOptions {
            config: TsvdConfig::paper().scaled(0.02),
            threads: 2,
            tasks: 24,
            iterations: 10,
            seed: 0xC4A0_5EED,
            panic_per_mille: 200,
            drop_per_mille: 300,
            stall_per_mille: 150,
        }
    }
}

/// What one chaos run did and found.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Tasks spawned across all iterations.
    pub tasks_spawned: usize,
    /// Tasks that were made to panic.
    pub tasks_panicked: usize,
    /// Join handles dropped without joining.
    pub handles_dropped: usize,
    /// Violations observed in-memory (all iterations, repeats included).
    pub violations: usize,
    /// Delays injected across all iterations.
    pub delays: u64,
    /// Iterations whose runtime ended degraded (watchdog stepped in).
    pub degraded_iterations: usize,
    /// Records found in the durable sink afterwards (0 when unconfigured).
    pub durable_records: usize,
}

/// Invariant violation found by a chaos run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosFailure(pub String);

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chaos invariant violated: {}", self.0)
    }
}

/// Runs the chaos storm and checks the invariants. `Ok` carries the
/// activity report; `Err` names the first broken invariant.
pub fn run_chaos(options: &ChaosOptions) -> Result<ChaosReport, ChaosFailure> {
    let mut rng = SplitMix64::new(options.seed);
    let mut report = ChaosReport::default();

    for iteration in 0..options.iterations {
        let rt = Runtime::tsvd(options.config.clone());
        chaos_iteration(&rt, options, &mut rng, &mut report);

        // Invariant 1: every trap is cleared once the storm subsides —
        // panicking tasks and cancelled sleepers included.
        let live = rt.live_traps();
        if live != 0 {
            return Err(ChaosFailure(format!(
                "iteration {iteration}: {live} live trap(s) after all tasks ended"
            )));
        }

        // Invariant 2: budget bookkeeping stayed consistent — time actually
        // slept never exceeds the per-run budget by more than one delay
        // quantum (a sleeper admitted just under the cap may finish over it).
        let stats = rt.stats();
        let budget = options.config.max_delay_per_run_ns;
        if budget != u64::MAX
            && stats.delay_total_ns() > budget.saturating_add(options.config.delay_ns)
        {
            return Err(ChaosFailure(format!(
                "iteration {iteration}: slept {}ns, budget {}ns",
                stats.delay_total_ns(),
                budget
            )));
        }

        report.violations += rt.reports().total_occurrences();
        report.delays += stats.delays_injected();
        if rt.is_passive() {
            report.degraded_iterations += 1;
        }

        // Invariant 3: the durable sink, when configured, holds every pair
        // this iteration's in-memory reports saw. Chaos keeps one sink across
        // iterations (each runtime appends to it), so the last iteration's
        // reconciliation also yields the final record count.
        rt.flush_durable_sink();
        if let Some(path) = &options.config.durable_sink {
            report.durable_records = reconcile_sink(&rt, path)
                .map_err(|e| ChaosFailure(format!("iteration {iteration}: {e}")))?;
        }
    }

    // One record per catch, repeats included: pair-wise presence above, and
    // no occurrence dropped here.
    if options.config.durable_sink.is_some() && report.durable_records < report.violations {
        return Err(ChaosFailure(format!(
            "durable sink has {} records but {} violations were reported",
            report.durable_records, report.violations
        )));
    }

    Ok(report)
}

/// One iteration: a task storm against two shared dictionaries.
fn chaos_iteration(
    rt: &Arc<Runtime>,
    options: &ChaosOptions,
    rng: &mut SplitMix64,
    report: &mut ChaosReport,
) {
    let ctx = ModuleCtx::new(rt.clone(), options.threads);
    let hot: Dictionary<u64, u64> = Dictionary::new(&ctx.runtime);
    let cold: Dictionary<u64, u64> = Dictionary::new(&ctx.runtime);
    let beat = ctx.beat;

    let mut handles = Vec::new();
    for task_idx in 0..options.tasks {
        let hot = hot.clone();
        let cold = cold.clone();
        let panic_here = rng.per_mille(options.panic_per_mille);
        let stall_here = rng.per_mille(options.stall_per_mille);
        let salt = rng.next();
        report.tasks_spawned += 1;
        if panic_here {
            report.tasks_panicked += 1;
        }
        let handle = ctx.pool.spawn(move || {
            for step in 0..8u64 {
                let key = (salt ^ step) % 4; // Few keys: heavy contention.
                hot.set(key, step);
                let _ = hot.get(&key);
                if step == 3 {
                    if stall_here {
                        // Stall mid-burst while siblings may be delayed:
                        // the all-blocked shape the watchdog must survive.
                        std::thread::sleep(beat * 2);
                    }
                    if panic_here {
                        // Unwind straight through the instrumented wrappers.
                        panic!("chaos: task {task_idx} scripted panic");
                    }
                }
                cold.set(salt % 64 + step * 64, step);
            }
        });
        handles.push(handle);
    }

    for handle in handles {
        if rng.per_mille(options.drop_per_mille) {
            // Abandon the task: completion now races pool/runtime teardown.
            report.handles_dropped += 1;
            drop(handle);
        } else {
            // Panics propagate on join; contain them — chaos must observe,
            // not die.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.join()));
        }
    }

    // Dropping the ctx (pool) ends the iteration; dropped-handle tasks may
    // still be running on workers. Wait for the trap table to drain rather
    // than assuming: a bounded grace window keeps the check honest.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while rt.live_traps() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Verifies a durable sink against a runtime's in-memory reports: every
/// in-memory violation pair must appear in the sink file (the write-ahead
/// guarantee). Returns the number of durable records.
pub fn reconcile_sink(rt: &Runtime, path: &Path) -> Result<usize, String> {
    // Memory first, disk second: a catch landing in between is on disk
    // before it is in memory, so it can only add to the side read later.
    let in_memory = rt.reports().violations();
    let records = DurableSink::load(path).map_err(|e| format!("load {e}"))?;
    let on_disk: std::collections::HashSet<(String, String)> =
        records.iter().map(|r| r.pair_key()).collect();
    for v in in_memory {
        let key = normalize_pair(&v.trapped.site.to_string(), &v.hitter.site.to_string());
        if !on_disk.contains(&key) {
            return Err(format!(
                "violation {} / {} reported in memory but missing from the durable sink",
                key.0, key.1
            ));
        }
    }
    Ok(records.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_standard_terminates_with_invariants_intact() {
        let mut options = ChaosOptions::standard();
        options.iterations = 3;
        let report = run_chaos(&options).expect("invariants hold");
        assert_eq!(report.tasks_spawned, 3 * options.tasks);
        assert!(report.tasks_panicked > 0, "the storm must include panics");
    }

    #[test]
    fn chaos_with_durable_sink_reconciles() {
        let dir = std::env::temp_dir().join(format!("tsvd_chaos_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("violations.jsonl");
        let mut options = ChaosOptions::standard();
        options.iterations = 4;
        options.config.durable_sink = Some(path.clone());
        let report = run_chaos(&options).expect("invariants hold");
        if report.violations > 0 {
            assert!(report.durable_records >= report.violations);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A catch at lines `a` / `b` of a file no storm touches.
    fn violation(a: u32, b: u32) -> tsvd_core::Violation {
        use tsvd_core::report::Party;
        use tsvd_core::site::SiteData;
        use tsvd_core::{ContextId, ObjId, OpKind, SiteId};
        let party = |line: u32, context: u64| Party {
            site: SiteId::intern(SiteData {
                file: "chaos_reconcile_test.rs",
                line,
                column: 1,
            }),
            context: ContextId(context),
            op_name: "Dictionary.set",
            kind: OpKind::Write,
            stack: None,
        };
        tsvd_core::Violation {
            trapped: party(a, 1),
            hitter: party(b, 2),
            obj: ObjId(7),
            time_ns: 0,
        }
    }

    #[test]
    fn reconcile_wants_the_pair_on_disk_not_a_matching_count() {
        let dir = std::env::temp_dir().join(format!("tsvd_chaos_pairs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("violations.jsonl");
        let sink = DurableSink::create(&path, false).expect("sink");
        sink.append(&violation(1, 2)).expect("append");
        sink.append(&violation(3, 4)).expect("append");

        // Two records on disk, two violations in memory — one of them at a
        // pair the disk never saw. Counting records cannot tell.
        let rt = Runtime::noop(TsvdConfig::for_testing());
        rt.reports().report(violation(2, 1));
        assert_eq!(reconcile_sink(&rt, &path), Ok(2), "pairs are unordered");
        rt.reports().report(violation(5, 6));
        let err = reconcile_sink(&rt, &path).expect_err("pair 5 / 6 is not on disk");
        assert!(err.contains("missing from the durable sink"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn chaos_fails_when_the_sink_lacks_a_reported_pair() {
        // A sink that takes every append and keeps none of them.
        let mut options = ChaosOptions::standard();
        options.iterations = 50; // The first iteration that catches anything ends the run.
        options.config.durable_sink = Some("/dev/null".into());
        let failure = run_chaos(&options).expect_err("a reported pair is not on disk");
        assert!(
            failure.0.contains("missing from the durable sink"),
            "{failure}"
        );
    }

    #[test]
    fn storms_are_deterministic_per_seed() {
        // The shared SplitMix64 (tsvd_core::rng) drives failure scheduling;
        // equal seeds must produce identical storms end to end.
        let mut options = ChaosOptions::standard();
        options.iterations = 2;
        options.tasks = 40;
        let a = run_chaos(&options).expect("storm a");
        let b = run_chaos(&options).expect("storm b");
        assert_eq!(a.tasks_panicked, b.tasks_panicked);
        assert_eq!(a.handles_dropped, b.handles_dropped);
    }
}
