//! Test modules: the unit the harness schedules, instruments, and scores.

use std::sync::Arc;
use std::time::Duration;

use tsvd_core::Runtime;
use tsvd_tasks::{JoinHandle, Pool};

use crate::scenarios::Filler;

/// Everything a module body needs to run under detection, and the
/// vocabulary scenario bodies share: paced tasks and a join-all.
#[derive(Clone)]
pub struct ModuleCtx {
    /// The detection runtime all instrumented objects report to.
    pub runtime: Arc<Runtime>,
    /// The task pool (synchronization events flow to the runtime).
    pub pool: Arc<Pool>,
    /// One "beat" of scenario time, the configured `beat_ns`. It is kept
    /// apart from `delay_ns`, so a delay sweep (Fig. 9 h) leaves the
    /// workloads' timing alone.
    pub beat: Duration,
    /// The pause after each iteration of a paced task: a fifth of a beat,
    /// at least 20 µs. It yields the CPU so concurrently scheduled tasks
    /// genuinely interleave (required on one core, harmless on more).
    pub(crate) pace: Duration,
}

impl ModuleCtx {
    /// Builds a context for `runtime` with `threads` pool workers.
    pub fn new(runtime: Arc<Runtime>, threads: usize) -> ModuleCtx {
        let beat = Duration::from_nanos(runtime.config().beat_ns).max(Duration::from_micros(50));
        let pool = Arc::new(Pool::with_runtime(threads, runtime.clone()));
        ModuleCtx {
            runtime,
            pool,
            beat,
            pace: (beat / 5).max(Duration::from_micros(20)),
        }
    }

    /// Spawns a task that runs `op(i)` for each `i` in `0..n`, pausing one
    /// pace after each. `op` is the scenario's own closure, so every
    /// instrumented call in it keeps its site in the scenario's file.
    pub(crate) fn paced<R>(
        &self,
        n: u32,
        mut op: impl FnMut(u32) -> R + Send + 'static,
    ) -> JoinHandle<()> {
        let pace = self.pace;
        self.pool.spawn(move || {
            for i in 0..n {
                let _ = op(i);
                tsvd_core::clock::pause(pace);
            }
        })
    }

    /// [`paced`](Self::paced), with a [`Filler`] tick before each `op`: the
    /// task's own innocent traffic. The filler is built on the task thread.
    pub(crate) fn paced_filled<R>(
        &self,
        n: u32,
        mut op: impl FnMut(u32) -> R + Send + 'static,
    ) -> JoinHandle<()> {
        let runtime = self.runtime.clone();
        let mut filler = None;
        self.paced(n, move |i| {
            filler.get_or_insert_with(|| Filler::new(&runtime)).tick(i);
            op(i)
        })
    }

    /// Waits for every task in `tasks`. All of them are collected, and so
    /// spawned, before the first wait, so a lazy iterator of spawns still
    /// runs its tasks concurrently.
    pub(crate) fn join_all<T>(&self, tasks: impl IntoIterator<Item = JoinHandle<T>>) {
        let tasks: Vec<_> = tasks.into_iter().collect();
        for task in tasks {
            task.wait();
        }
    }
}

/// Ground truth about a module's bug content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// No thread-safety violation is possible; any report is a false
    /// positive (and fails the evaluation).
    Clean,
    /// The module contains TSVs.
    Buggy {
        /// Distinct racy static-location pairs planted.
        pairs: usize,
        /// `true` if the racy operations recur within a run, so the bug is
        /// catchable in the run that discovers the near miss; `false` for
        /// single-shot points that need a trap-file-seeded second run.
        first_run_catchable: bool,
    },
}

impl Expectation {
    /// Planted racy pair count (0 for clean modules).
    pub fn planted_pairs(&self) -> usize {
        match *self {
            Expectation::Clean => 0,
            Expectation::Buggy { pairs, .. } => pairs,
        }
    }
}

/// A schedulable test module with ground-truth metadata.
///
/// Cloning is cheap (the body is shared behind an `Arc`), which lets the
/// harness move a copy onto a watched thread for deadline enforcement.
#[derive(Clone)]
pub struct Module {
    name: String,
    /// Nominal unit-test count (Table 1/4 statistics).
    tests: u32,
    expectation: Expectation,
    /// `true` if the module exercises task-based/async parallelism
    /// (Table 1: 70 % of bugs were in async code).
    uses_async: bool,
    /// The dominant instrumented data structure ("Dictionary", "List", ...).
    structure: &'static str,
    body: Arc<dyn Fn(&ModuleCtx) + Send + Sync>,
}

impl Module {
    /// Creates a module.
    pub fn new(
        name: impl Into<String>,
        tests: u32,
        expectation: Expectation,
        uses_async: bool,
        structure: &'static str,
        body: impl Fn(&ModuleCtx) + Send + Sync + 'static,
    ) -> Module {
        Module {
            name: name.into(),
            tests,
            expectation,
            uses_async,
            structure,
            body: Arc::new(body),
        }
    }

    /// A module with `pairs` planted racy pairs that recur within a run,
    /// so the run that discovers a near miss can catch it.
    pub(crate) fn racy(
        name: &'static str,
        tests: u32,
        pairs: usize,
        structure: &'static str,
        body: impl Fn(&ModuleCtx) + Send + Sync + 'static,
    ) -> Module {
        let expectation = Expectation::Buggy {
            pairs,
            first_run_catchable: true,
        };
        Module::new(name, tests, expectation, true, structure, body)
    }

    /// A module with one planted pair that only a later run can catch.
    pub(crate) fn hard(
        name: &'static str,
        tests: u32,
        structure: &'static str,
        body: impl Fn(&ModuleCtx) + Send + Sync + 'static,
    ) -> Module {
        let expectation = Expectation::Buggy {
            pairs: 1,
            first_run_catchable: false,
        };
        Module::new(name, tests, expectation, true, structure, body)
    }

    /// A module whose tasks can race nothing.
    pub(crate) fn clean(
        name: &'static str,
        tests: u32,
        structure: &'static str,
        body: impl Fn(&ModuleCtx) + Send + Sync + 'static,
    ) -> Module {
        Module::new(name, tests, Expectation::Clean, true, structure, body)
    }

    /// The same module, body shared, under another name.
    pub(crate) fn with_name(mut self, name: String) -> Module {
        self.name = name;
        self
    }

    /// Executes the module's tests under `ctx`.
    pub fn run(&self, ctx: &ModuleCtx) {
        (self.body)(ctx);
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Nominal unit-test count.
    pub fn tests(&self) -> u32 {
        self.tests
    }

    /// Ground truth.
    pub fn expectation(&self) -> Expectation {
        self.expectation
    }

    /// Whether the module uses task parallelism.
    pub fn uses_async(&self) -> bool {
        self.uses_async
    }

    /// Dominant instrumented structure.
    pub fn structure(&self) -> &'static str {
        self.structure
    }
}

impl std::fmt::Debug for Module {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Module")
            .field("name", &self.name)
            .field("tests", &self.tests)
            .field("expectation", &self.expectation)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_core::TsvdConfig;

    #[test]
    fn ctx_beat_scales_with_config() {
        let rt = Runtime::noop(TsvdConfig::paper().scaled(0.02));
        let ctx = ModuleCtx::new(rt, 2);
        // 25 ms paper beat × 0.02 = 0.5 ms, and a pace of a fifth of it.
        assert_eq!(ctx.beat, Duration::from_micros(500));
        assert_eq!(ctx.pace, Duration::from_micros(100));
    }

    #[test]
    fn module_runs_body() {
        let counter = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let c = counter.clone();
        let m = Module::new("m", 1, Expectation::Clean, false, "List", move |_| {
            c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        let rt = Runtime::noop(TsvdConfig::for_testing());
        let ctx = ModuleCtx::new(rt, 1);
        m.run(&ctx);
        m.run(&ctx);
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(m.expectation().planted_pairs(), 0);
    }

    #[test]
    fn expectation_pairs() {
        assert_eq!(Expectation::Clean.planted_pairs(), 0);
        assert_eq!(
            Expectation::Buggy {
                pairs: 3,
                first_run_catchable: true
            }
            .planted_pairs(),
            3
        );
    }
}
