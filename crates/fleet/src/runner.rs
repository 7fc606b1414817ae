//! The suite runner: executes modules under detectors and aggregates.

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsvd_core::near_miss::SitePair;
use tsvd_core::{Runtime, TrapFileData, TsvdConfig};
use tsvd_workloads::module::{Expectation, Module, ModuleCtx};

/// The detectors of Table 2 (plus the passive baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorKind {
    /// Instrumented, never delays — the overhead baseline.
    Noop,
    /// §3.2 DynamicRandom.
    DynamicRandom,
    /// §3.3 StaticRandom — the paper's DataCollider emulation.
    DataCollider,
    /// §3.5 TSVD-HB.
    TsvdHb,
    /// §3.4 TSVD.
    Tsvd,
}

impl DetectorKind {
    /// The four detectors compared in Table 2, in the paper's row order.
    pub const TABLE2: [DetectorKind; 4] = [
        DetectorKind::DataCollider,
        DetectorKind::DynamicRandom,
        DetectorKind::TsvdHb,
        DetectorKind::Tsvd,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            DetectorKind::Noop => "Baseline",
            DetectorKind::DynamicRandom => "DynamicRandom",
            DetectorKind::DataCollider => "DataCollider",
            DetectorKind::TsvdHb => "TSVD-HB",
            DetectorKind::Tsvd => "TSVD",
        }
    }

    /// Builds a fresh runtime of this kind.
    pub fn build(self, config: TsvdConfig) -> Arc<Runtime> {
        match self {
            DetectorKind::Noop => Runtime::noop(config),
            DetectorKind::DynamicRandom => Runtime::dynamic_random(config),
            DetectorKind::DataCollider => Runtime::static_random(config),
            DetectorKind::TsvdHb => Runtime::tsvd_hb(config),
            DetectorKind::Tsvd => Runtime::tsvd(config),
        }
    }
}

/// A bug, uniquely identified suite-wide: generated modules share scenario
/// source, so the paper's static-location-pair key is scoped per module.
pub type BugKey = (String, SitePair);

/// Options for a suite run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Detector configuration (already scaled).
    pub config: TsvdConfig,
    /// Pool workers per module.
    pub threads: usize,
    /// Number of test runs (trap files carry over between runs).
    pub runs: usize,
    /// Wall-clock deadline for a single module execution. Every module
    /// runs on a watched thread; blowing the deadline abandons the runtime
    /// (delays cancelled, injection off) and records a
    /// [`ModuleOutcome::TimedOut`] instead of hanging the suite.
    pub module_deadline: Duration,
    /// Statically predicted dangerous pairs (`tsvd-analyze` output),
    /// imported into every module's runtime *in addition to* any carried
    /// trap file. Pre-arms traps before the first dynamic run, the static
    /// analogue of §3.4.6's cross-run persistence.
    pub static_priors: Option<TrapFileData>,
}

impl RunOptions {
    /// Two runs at CI scale — the paper's standard setting.
    pub fn standard() -> RunOptions {
        RunOptions {
            config: TsvdConfig::paper().scaled(0.02),
            threads: 2,
            runs: 2,
            module_deadline: Duration::from_secs(30),
            static_priors: None,
        }
    }

    /// The options run `run` (0-based; fleet wave `run`) executes under:
    /// a fresh seed per run, as the paper re-runs tools whose sampling
    /// differs run to run, or Fig. 8's curves could never climb.
    pub fn for_run(&self, run: usize) -> RunOptions {
        let mut options = self.clone();
        options.config.seed = self
            .config
            .seed
            .wrapping_add((run as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        options
    }

    /// `standard()` with static priors attached.
    pub fn with_static_priors(priors: TrapFileData) -> RunOptions {
        RunOptions {
            static_priors: Some(priors),
            ..RunOptions::standard()
        }
    }
}

/// How a single module execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleOutcome {
    /// The module body returned normally.
    Completed,
    /// The module body panicked (the panic was contained; the suite goes on).
    Panicked,
    /// The module blew its deadline and its runtime was abandoned.
    TimedOut,
}

impl ModuleOutcome {
    /// Stable textual form used by the fleet wire protocol and ledger.
    pub fn as_str(self) -> &'static str {
        match self {
            ModuleOutcome::Completed => "completed",
            ModuleOutcome::Panicked => "panicked",
            ModuleOutcome::TimedOut => "timed_out",
        }
    }

    /// Inverse of [`ModuleOutcome::as_str`].
    pub fn parse(text: &str) -> Option<ModuleOutcome> {
        match text {
            "completed" => Some(ModuleOutcome::Completed),
            "panicked" => Some(ModuleOutcome::Panicked),
            "timed_out" => Some(ModuleOutcome::TimedOut),
            _ => None,
        }
    }
}

/// Result of [`run_module_once`]: the runtime (reports, stats, trap file)
/// plus how the execution ended.
pub struct ModuleRun {
    /// The runtime the module ran under.
    pub runtime: Arc<Runtime>,
    /// Wall-clock nanoseconds the execution took.
    pub wall_ns: u64,
    /// How it ended.
    pub outcome: ModuleOutcome,
}

/// Per-run aggregate of a suite execution.
#[derive(Debug, Clone, Default)]
pub struct RunAggregate {
    /// Bugs first discovered in this run.
    pub new_bugs: Vec<BugKey>,
    /// Wall-clock nanoseconds spent executing modules this run.
    pub wall_ns: u64,
    /// Delays injected this run.
    pub delays: u64,
    /// Actual nanoseconds slept in injected delays this run.
    pub delay_ns: u64,
    /// `OnCall`s observed this run.
    pub on_calls: u64,
}

/// Outcome of running one suite under one detector for N runs.
#[derive(Debug, Clone)]
pub struct SuiteOutcome {
    /// Detector display name.
    pub detector: &'static str,
    /// Per-run aggregates, index 0 = run 1.
    pub runs: Vec<RunAggregate>,
    /// Every unique bug found, with the (1-based) run that found it.
    pub bugs: HashMap<BugKey, usize>,
    /// Total occurrences per bug (repeat catches included).
    pub occurrences: HashMap<BugKey, usize>,
    /// Peak strategy memory estimate across module runs, bytes.
    pub peak_strategy_bytes: usize,
    /// Module executions that blew their deadline (runtime abandoned).
    pub timeouts: usize,
    /// Module executions whose body panicked (contained).
    pub panics: usize,
}

impl SuiteOutcome {
    /// Unique bugs found in run `run` (1-based).
    pub fn bugs_in_run(&self, run: usize) -> usize {
        self.runs.get(run - 1).map_or(0, |r| r.new_bugs.len())
    }

    /// Total unique bugs.
    pub fn total_bugs(&self) -> usize {
        self.bugs.len()
    }

    /// Total delays injected across runs.
    pub fn total_delays(&self) -> u64 {
        self.runs.iter().map(|r| r.delays).sum()
    }

    /// Total nanoseconds actually slept in injected delays.
    pub fn total_delay_ns(&self) -> u64 {
        self.runs.iter().map(|r| r.delay_ns).sum()
    }

    /// Total wall time across runs.
    pub fn total_wall_ns(&self) -> u64 {
        self.runs.iter().map(|r| r.wall_ns).sum()
    }

    /// Cumulative unique-bug counts after each run (for Fig. 8).
    pub fn cumulative_bugs(&self) -> Vec<usize> {
        let mut total = 0;
        self.runs
            .iter()
            .map(|r| {
                total += r.new_bugs.len();
                total
            })
            .collect()
    }
}

/// Runs `module` once under a fresh runtime. The body runs on a watched
/// thread: a panic is contained, and an overrun of `module_deadline`
/// abandons it (runtime degraded to passive, delays cancelled).
pub fn run_module_once(
    module: &Module,
    kind: DetectorKind,
    options: &RunOptions,
    trap_file: Option<&TrapFileData>,
) -> ModuleRun {
    let rt = kind.build(options.config.clone());
    // Carried trap file and static priors merge (carried origins win for
    // pairs both know about); either alone imports directly.
    match (trap_file, &options.static_priors) {
        (Some(tf), Some(priors)) => {
            let mut merged = tf.clone();
            merged.merge(priors);
            rt.import_trap_file(&merged);
        }
        (Some(tf), None) => rt.import_trap_file(tf),
        (None, Some(priors)) => rt.import_trap_file(priors),
        (None, None) => {}
    }
    let ctx = ModuleCtx::new(rt.clone(), options.threads);
    let start = Instant::now();
    let (tx, rx) = mpsc::channel::<bool>();
    let m = module.clone();
    let watched = std::thread::Builder::new()
        .name(format!("tsvd-module-{}", m.name()))
        .spawn(move || {
            let body = std::panic::AssertUnwindSafe(|| m.run(&ctx));
            let _ = tx.send(std::panic::catch_unwind(body).is_ok());
        })
        .expect("spawn watched module thread");
    let outcome = match rx.recv_timeout(options.module_deadline) {
        Ok(returned) => {
            let _ = watched.join();
            if returned {
                ModuleOutcome::Completed
            } else {
                ModuleOutcome::Panicked
            }
        }
        Err(_) => {
            // Deadline blown. Abandoning cancels every injected delay and
            // turns injection off, so a module wedged *behind* delays can
            // drain; give it one more deadline to do so.
            rt.abandon();
            if rx.recv_timeout(options.module_deadline).is_ok() {
                let _ = watched.join();
            }
            // If it is still stuck the thread is detached: its pool and
            // runtime stay alive behind Arcs and the suite moves on.
            ModuleOutcome::TimedOut
        }
    };
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    ModuleRun {
        runtime: rt,
        wall_ns,
        outcome,
    }
}

/// One module execution of a pass, as [`run_suite_observed`] hands it on.
pub struct Execution<'a> {
    /// Run of the pass, 1-based.
    pub run: usize,
    /// The module executed.
    pub module: &'a Module,
    /// The execution: runtime, wall time, outcome.
    pub result: &'a ModuleRun,
    /// Bugs this execution found first in the pass.
    pub new_bugs: &'a [BugKey],
}

/// Runs the whole suite under `kind` for `options.runs` runs, carrying each
/// module's trap file from run to run (§3.4.6).
pub fn run_suite(suite: &[Module], kind: DetectorKind, options: &RunOptions) -> SuiteOutcome {
    run_suite_observed(suite, kind, options, |_| ControlFlow::Continue(()))
}

/// [`run_suite`], handing each execution to `observe`. Run `k` runs under
/// [`RunOptions::for_run`]`(k)` with the trap file its module exported in
/// run `k - 1`, and a bug counts in the run that first finds it. `Break`
/// ends the pass there; the outcome holds the runs begun.
pub fn run_suite_observed(
    suite: &[Module],
    kind: DetectorKind,
    options: &RunOptions,
    mut observe: impl FnMut(&Execution<'_>) -> ControlFlow<()>,
) -> SuiteOutcome {
    let mut outcome = SuiteOutcome {
        detector: kind.name(),
        runs: Vec::with_capacity(options.runs),
        bugs: HashMap::new(),
        occurrences: HashMap::new(),
        peak_strategy_bytes: 0,
        timeouts: 0,
        panics: 0,
    };
    let mut trap_files: HashMap<String, TrapFileData> = HashMap::new();

    'pass: for run_idx in 0..options.runs {
        let run_options = options.for_run(run_idx);
        outcome.runs.push(RunAggregate::default());
        let agg = &mut outcome.runs[run_idx];
        for module in suite {
            let import = trap_files.get(module.name());
            let run = run_module_once(module, kind, &run_options, import);
            let rt = &run.runtime;
            match run.outcome {
                ModuleOutcome::Completed => {}
                ModuleOutcome::Panicked => outcome.panics += 1,
                ModuleOutcome::TimedOut => outcome.timeouts += 1,
            }
            agg.wall_ns += run.wall_ns;
            agg.delays += rt.stats().delays_injected();
            agg.delay_ns += rt.stats().delay_total_ns();
            agg.on_calls += rt.stats().on_calls();
            outcome.peak_strategy_bytes =
                outcome.peak_strategy_bytes.max(rt.strategy_memory_bytes());
            let found_before = agg.new_bugs.len();
            for (pair, count) in rt.reports().occurrence_counts() {
                let key: BugKey = (module.name().to_owned(), pair);
                *outcome.occurrences.entry(key.clone()).or_insert(0) += count;
                if !outcome.bugs.contains_key(&key) {
                    outcome.bugs.insert(key.clone(), run_idx + 1);
                    agg.new_bugs.push(key);
                }
            }
            if let Some(tf) = rt.export_trap_file() {
                trap_files.insert(module.name().to_owned(), tf);
            }
            let execution = Execution {
                run: run_idx + 1,
                module,
                result: &run,
                new_bugs: &agg.new_bugs[found_before..],
            };
            if observe(&execution).is_break() {
                break 'pass;
            }
        }
    }
    outcome
}

/// Runs the suite once per run under the passive baseline and returns the
/// total wall time, for overhead computation.
pub fn baseline_wall_ns(suite: &[Module], options: &RunOptions) -> u64 {
    let outcome = run_suite(suite, DetectorKind::Noop, options);
    outcome.total_wall_ns()
}

/// Overhead of `outcome` relative to a baseline wall time, in percent.
pub fn overhead_pct(outcome: &SuiteOutcome, baseline_ns: u64) -> f64 {
    if baseline_ns == 0 {
        return 0.0;
    }
    (outcome.total_wall_ns() as f64 - baseline_ns as f64) / baseline_ns as f64 * 100.0
}

/// Splits the found bugs by whether their module's ground truth says they
/// were planted (sanity: a `Clean` module must never appear here).
pub fn check_no_false_positives(suite: &[Module], outcome: &SuiteOutcome) -> Result<(), String> {
    let clean: HashSet<&str> = suite
        .iter()
        .filter(|m| m.expectation() == Expectation::Clean)
        .map(|m| m.name())
        .collect();
    for (module, pair) in outcome.bugs.keys() {
        if clean.contains(module.as_str()) {
            return Err(format!(
                "false positive: clean module {module} reported pair {} / {}",
                pair.first, pair.second
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_workloads::suite::{build_suite, SuiteConfig};

    fn options() -> RunOptions {
        RunOptions::standard()
    }

    #[test]
    fn tsvd_finds_bugs_and_no_false_positives_on_tiny_suite() {
        let suite = build_suite(SuiteConfig::tiny());
        let outcome = run_suite(&suite, DetectorKind::Tsvd, &options());
        check_no_false_positives(&suite, &outcome).expect("no false positives ever");
        assert!(
            outcome.total_bugs() >= 1,
            "tiny suite has 7+ planted bugs; TSVD must catch at least one"
        );
    }

    #[test]
    fn noop_finds_nothing() {
        let suite = build_suite(SuiteConfig::tiny());
        let outcome = run_suite(&suite, DetectorKind::Noop, &options());
        assert_eq!(outcome.total_bugs(), 0);
        assert_eq!(outcome.total_delays(), 0);
    }

    #[test]
    fn cumulative_bugs_is_monotonic() {
        let suite = build_suite(SuiteConfig::tiny());
        let outcome = run_suite(&suite, DetectorKind::Tsvd, &options());
        let cum = outcome.cumulative_bugs();
        assert_eq!(cum.len(), 2);
        assert!(cum[1] >= cum[0]);
        assert_eq!(*cum.last().expect("two runs"), outcome.total_bugs());
    }

    #[test]
    fn the_observer_sees_each_execution_under_its_runs_seed_and_can_stop_the_pass() {
        let suite = build_suite(SuiteConfig {
            modules: 3,
            seed: 5,
        });
        let opts = options();
        let mut seen = Vec::new();
        let outcome = run_suite_observed(&suite, DetectorKind::Noop, &opts, |e| {
            let seed = e.result.runtime.config().seed;
            assert_eq!(seed, opts.for_run(e.run - 1).config.seed);
            seen.push((e.run, e.module.name().to_owned(), seed));
            if seen.len() == 4 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen.len(), 4, "stopped after the first module of run 2");
        assert_eq!((seen[3].0, &seen[3].1), (2, &seen[0].1));
        assert_ne!(seen[3].2, seen[0].2, "run 2 is reseeded");
        assert_eq!(outcome.runs.len(), 2);
    }

    #[test]
    fn panicking_module_is_contained() {
        use tsvd_workloads::module::{Expectation, Module};
        let m = Module::new("boom", 1, Expectation::Clean, false, "List", |_| {
            panic!("module body explodes")
        });
        let run = run_module_once(&m, DetectorKind::Tsvd, &options(), None);
        assert_eq!(run.outcome, ModuleOutcome::Panicked);
        assert_eq!(run.runtime.live_traps(), 0);
        // The suite path counts it and keeps going.
        let outcome = run_suite(&[m], DetectorKind::Tsvd, &options());
        assert_eq!(outcome.panics, options().runs);
    }

    #[test]
    fn overrunning_module_times_out_and_degrades() {
        use tsvd_workloads::module::{Expectation, Module};
        // The body sleeps far past the deadline in plain thread sleeps the
        // watchdog cannot cancel — only the deadline machinery ends it.
        let m = Module::new("slow", 1, Expectation::Clean, false, "List", |_| {
            std::thread::sleep(Duration::from_millis(400));
        });
        let mut opts = options();
        opts.module_deadline = Duration::from_millis(50);
        let start = Instant::now();
        let run = run_module_once(&m, DetectorKind::Tsvd, &opts, None);
        assert_eq!(run.outcome, ModuleOutcome::TimedOut);
        assert!(run.runtime.is_passive(), "timeout must abandon the runtime");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the runner must not wait for the stuck body forever"
        );
    }

    #[test]
    fn overhead_is_computed_relative_to_baseline() {
        let suite = build_suite(SuiteConfig {
            modules: 8,
            seed: 5,
        });
        let opts = options();
        let base = baseline_wall_ns(&suite, &opts);
        assert!(base > 0);
        let outcome = run_suite(&suite, DetectorKind::Tsvd, &opts);
        let pct = overhead_pct(&outcome, base);
        assert!(pct > -90.0, "overhead {pct}% looks wrong");
    }
}
