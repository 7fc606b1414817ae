//! The worker pool: few threads, many tasks.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};

use tsvd_core::context::{self, ContextId};
use tsvd_core::{Runtime, SyncEvent};

use crate::task::{JoinHandle, TaskInner};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Upper bound on starvation-relief workers injected per pool.
const MAX_INJECTED_WORKERS: usize = 32;

/// Shared pool state (public within the crate so blocked handles can
/// request starvation relief).
pub struct PoolInner {
    tx: Sender<Job>,
    rx: Receiver<Job>,
    runtime: Option<Arc<Runtime>>,
    force_async: AtomicBool,
    /// Threads currently servicing the queue (initial workers + injected).
    worker_count: AtomicUsize,
    /// Threads currently parked inside a `JoinHandle::wait`.
    blocked_waiters: AtomicUsize,
    /// Starvation-relief threads injected so far.
    injected: AtomicUsize,
}

impl PoolInner {
    /// Marks the current thread as blocked in a join and, if every worker
    /// is now blocked, injects a relief worker so queued dependency tasks
    /// can still run — the analog of the .NET thread pool's starvation
    /// thread injection. Inline "helping" is deliberately *not* used: a
    /// helped task may transitively wait on the helper's own unfinished
    /// outer task, deadlocking on the helper's stack even though the task
    /// dependency graph is acyclic.
    pub fn enter_blocked_wait(&self) {
        self.blocked_waiters.fetch_add(1, Ordering::SeqCst);
        // The runtime's watchdog counts blocked workers too: a pool whose
        // every thread is blocked-or-delayed is starving, and only the
        // watchdog can cancel the delays that keep it so.
        if let Some(rt) = &self.runtime {
            rt.enter_blocked();
        }
        self.maybe_inject();
    }

    /// Clears the blocked mark set by [`PoolInner::enter_blocked_wait`].
    pub fn exit_blocked_wait(&self) {
        self.blocked_waiters.fetch_sub(1, Ordering::SeqCst);
        if let Some(rt) = &self.runtime {
            rt.exit_blocked();
        }
    }

    /// Injects a relief worker if the pool looks starved.
    pub fn maybe_inject(&self) {
        let blocked = self.blocked_waiters.load(Ordering::SeqCst);
        let workers = self.worker_count.load(Ordering::SeqCst);
        if blocked < workers || self.rx.is_empty() {
            return;
        }
        if self.injected.fetch_add(1, Ordering::SeqCst) >= MAX_INJECTED_WORKERS {
            self.injected.fetch_sub(1, Ordering::SeqCst);
            // Cap reached: last-resort inline help keeps making progress
            // (the stack-inversion risk is preferable to a guaranteed
            // stall at this point).
            if let Ok(job) = self.rx.try_recv() {
                job();
            }
            return;
        }
        self.worker_count.fetch_add(1, Ordering::SeqCst);
        let rx = self.rx.clone();
        let runtime = self.runtime.clone();
        let idx = self.injected.load(Ordering::SeqCst);
        std::thread::Builder::new()
            .name(format!("tsvd-relief-{idx}"))
            .spawn(move || {
                let _watchdog = runtime.as_ref().map(|rt| rt.register_worker());
                while let Ok(job) = rx.recv() {
                    job();
                }
            })
            .expect("spawn relief worker");
    }

    /// Reports a `Join` edge from the current context to `target`.
    pub fn emit_join(&self, target: ContextId) {
        if let Some(rt) = &self.runtime {
            rt.on_sync(SyncEvent::Join {
                waiter: context::current(),
                target,
            });
        }
    }

    fn emit(&self, event: SyncEvent) {
        if let Some(rt) = &self.runtime {
            rt.on_sync(event);
        }
    }
}

/// A fixed-size worker pool executing first-class tasks.
///
/// The pool emits fork/join/end [`SyncEvent`]s to its attached runtime; a
/// pool created with [`Pool::new`] has no runtime and emits nothing.
pub struct Pool {
    inner: Arc<PoolInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool of `threads` workers with no attached runtime.
    pub fn new(threads: usize) -> Pool {
        Self::build(threads, None)
    }

    /// Creates a pool whose synchronization events flow to `runtime`.
    pub fn with_runtime(threads: usize, runtime: Arc<Runtime>) -> Pool {
        Self::build(threads, Some(runtime))
    }

    fn build(threads: usize, runtime: Option<Arc<Runtime>>) -> Pool {
        let (tx, rx) = unbounded::<Job>();
        let inner = Arc::new(PoolInner {
            tx,
            rx: rx.clone(),
            runtime,
            force_async: AtomicBool::new(true),
            worker_count: AtomicUsize::new(threads.max(1)),
            blocked_waiters: AtomicUsize::new(0),
            injected: AtomicUsize::new(0),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let rx = rx.clone();
                let runtime = inner.runtime.clone();
                std::thread::Builder::new()
                    .name(format!("tsvd-worker-{i}"))
                    .spawn(move || {
                        // Register with the runtime's delay watchdog for the
                        // thread's lifetime (RAII deregisters on exit).
                        let _watchdog = runtime.as_ref().map(|rt| rt.register_worker());
                        // Drains until every sender (pool handle) is gone.
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { inner, workers }
    }

    /// Controls the §4 forced-async behaviour. When `true` (the default —
    /// TSVD's instrumentation), every task is dispatched to a worker. When
    /// `false` (the plain .NET optimization), tasks spawned with
    /// [`Pool::spawn_fast`] run synchronously in the caller, which is what
    /// hides bugs in tests that mock I/O.
    pub fn set_force_async(&self, force: bool) {
        self.inner.force_async.store(force, Ordering::Relaxed);
    }

    /// Returns the current forced-async setting.
    pub fn force_async(&self) -> bool {
        self.inner.force_async.load(Ordering::Relaxed)
    }

    /// Spawns `body` as a new task — the analog of `Task.Run` (Fig. 3,
    /// line 6).
    pub fn spawn<T, F>(&self, body: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawn_inner(body, /* inline: */ false)
    }

    /// Spawns a *fast* task (e.g. a mocked I/O call). Under
    /// `force_async = false` it runs synchronously in the caller, modelling
    /// the .NET fast-path optimization; under the default it behaves like
    /// [`Pool::spawn`].
    pub fn spawn_fast<T, F>(&self, body: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let inline = !self.force_async();
        self.spawn_inner(body, inline)
    }

    fn spawn_inner<T, F>(&self, body: F, inline: bool) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let child = context::fresh_id();
        self.inner.emit(SyncEvent::Fork {
            parent: context::current(),
            child,
        });
        let task = TaskInner::new(child);
        let handle = JoinHandle {
            inner: task.clone(),
            pool: Arc::downgrade(&self.inner),
        };
        let pool = self.inner.clone();
        let job = move || {
            let _guard = context::enter(child);
            // The TaskEnd edge is published before waiters can observe the
            // completion, so a joiner always sees the final clock.
            task.run_with_hook(body, || pool.emit(SyncEvent::TaskEnd { context: child }));
        };
        if inline {
            // The .NET fast path: same thread, sequential — the task still
            // gets its own context id, but can never overlap its parent.
            job();
        } else {
            self.inner
                .tx
                .send(Box::new(job))
                .expect("pool queue closed while pool alive");
        }
        handle
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }
}

// No explicit Drop: when the last `Arc<PoolInner>` goes away (queued jobs
// hold transient strong references until they run), its `Sender` drops, the
// channel disconnects, and every worker's `recv` loop ends. Workers detach
// rather than being joined, so dropping a pool never blocks.

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use tsvd_core::TsvdConfig;

    #[test]
    fn spawn_runs_on_worker() {
        let pool = Pool::new(2);
        let t = pool.spawn(|| std::thread::current().name().map(str::to_owned));
        let name = t.join().unwrap_or_default();
        assert!(name.starts_with("tsvd-worker-"), "ran on {name}");
    }

    #[test]
    fn many_more_tasks_than_threads() {
        let pool = Pool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..200)
            .map(|_| {
                let c = counter.clone();
                pool.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn tasks_get_distinct_contexts() {
        let pool = Pool::new(2);
        let a = pool.spawn(tsvd_core::context::current);
        let b = pool.spawn(tsvd_core::context::current);
        let (ca, cb) = (a.join(), b.join());
        assert_ne!(ca, cb);
    }

    #[test]
    fn handle_context_matches_running_context() {
        let pool = Pool::new(1);
        let t = pool.spawn(tsvd_core::context::current);
        let expected = t.context();
        assert_eq!(t.join(), expected);
    }

    #[test]
    fn nested_spawn_and_join_does_not_deadlock() {
        // A task on a 1-thread pool waits for a child task: the helping
        // logic must run the child inline instead of deadlocking.
        let pool = Arc::new(Pool::new(1));
        let p2 = pool.clone();
        let t = pool.spawn(move || {
            let child = p2.spawn(|| 21);
            child.join() * 2
        });
        assert_eq!(t.join(), 42);
    }

    #[test]
    fn join_with_any_task_via_handle() {
        // Non-series-parallel joining: a sibling joins another sibling.
        let pool = Arc::new(Pool::new(2));
        let a = pool.spawn(|| 10);
        let a_inner = a.inner.clone();
        let a_pool = a.pool.clone();
        let b = pool.spawn(move || {
            let a_again = JoinHandle {
                inner: a_inner,
                pool: a_pool,
            };
            a_again.join() + 1
        });
        assert_eq!(b.join(), 11);
        a.wait();
    }

    #[test]
    fn fork_and_end_events_reach_runtime() {
        let rt = Runtime::noop(TsvdConfig::for_testing());
        let pool = Pool::with_runtime(2, rt.clone());
        let t = pool.spawn(|| ());
        t.join();
        // Fork + TaskEnd + Join = at least 3 events.
        assert!(
            rt.stats().sync_events() >= 3,
            "{}",
            rt.stats().sync_events()
        );
    }

    #[test]
    fn spawn_fast_inlines_without_force_async() {
        let pool = Pool::new(2);
        pool.set_force_async(false);
        let here = std::thread::current().id();
        let t = pool.spawn_fast(move || std::thread::current().id() == here);
        assert!(t.is_done(), "inline task completes before spawn returns");
        assert!(t.join(), "fast task ran synchronously on the caller");
    }

    #[test]
    fn spawn_fast_dispatches_under_force_async() {
        let pool = Pool::new(2);
        assert!(pool.force_async(), "forced async is the default");
        let here = std::thread::current().id();
        let t = pool.spawn_fast(move || std::thread::current().id() == here);
        assert!(!t.join(), "forced-async fast task must run on a worker");
    }

    #[test]
    fn chained_continuations_do_not_starve_a_saturated_pool() {
        // Regression: continuation tasks (which block on their antecedents)
        // can occupy every worker while the antecedents sit behind them in
        // the queue. Thread injection must keep the graph progressing;
        // inline "helping" deadlocked here (a helped task waited on the
        // helper's own unfinished outer frame).
        let pool = Pool::new(2);
        let mut finals = Vec::new();
        for i in 0..12u64 {
            let t = pool
                .spawn(move || i)
                .then(&pool, |x| x + 1)
                .then(&pool, |x| x * 2);
            finals.push(t);
        }
        let total: u64 = finals.into_iter().map(|t| t.join()).sum();
        assert_eq!(total, (0..12u64).map(|i| (i + 1) * 2).sum::<u64>());
    }

    #[test]
    fn then_chains_continuations() {
        let pool = Pool::new(2);
        let result = pool
            .spawn(|| 10)
            .then(&pool, |x| x + 1)
            .then(&pool, |x| x * 2)
            .join();
        assert_eq!(result, 22);
    }

    #[test]
    fn then_reports_join_edge_before_continuation() {
        let rt = Runtime::noop(TsvdConfig::for_testing());
        let pool = Pool::with_runtime(1, rt.clone());
        let t = pool.spawn(|| 1).then(&pool, |x| x + 1);
        assert_eq!(t.join(), 2);
        // 2 forks + 2 ends + ≥2 joins (continuation's internal join + ours).
        assert!(
            rt.stats().sync_events() >= 6,
            "{}",
            rt.stats().sync_events()
        );
    }

    #[test]
    fn workers_register_with_the_runtime_watchdog() {
        let rt = Runtime::noop(TsvdConfig::for_testing());
        let pool = Pool::with_runtime(3, rt.clone());
        // Worker registration happens as the threads start up.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while rt.watchdog().workers() < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(rt.watchdog().workers(), 3);
        // Tasks run on registered worker threads.
        let t = pool.spawn(tsvd_core::watchdog::is_worker_thread);
        assert!(t.join(), "pool task must run on a registered worker");
        assert!(
            !tsvd_core::watchdog::is_worker_thread(),
            "the test thread itself is not a worker"
        );
        drop(pool);
        while rt.watchdog().workers() > 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(rt.watchdog().workers(), 0, "RAII must deregister workers");
    }

    #[test]
    fn panicking_task_propagates_on_join() {
        let pool = Pool::new(1);
        let t: JoinHandle<()> = pool.spawn(|| panic!("task boom"));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.join()));
        assert!(result.is_err());
        // The worker must survive the panic and run further tasks.
        let t2 = pool.spawn(|| 5);
        assert_eq!(t2.join(), 5);
    }
}
