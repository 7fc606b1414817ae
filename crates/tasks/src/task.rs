//! Task handles: first-class, joinable-by-anyone completion futures.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use tsvd_core::clock;
use tsvd_core::context::ContextId;

/// Internal completion state of a task.
enum TaskState<T> {
    Pending,
    Done(T),
    Panicked(Box<dyn std::any::Any + Send>),
    Taken,
}

/// Shared state between a running task and its handles.
pub struct TaskInner<T> {
    state: Mutex<TaskState<T>>,
    done: Condvar,
    context: ContextId,
}

impl<T> TaskInner<T> {
    /// Creates the pending state for a task that will run as `context`.
    pub fn new(context: ContextId) -> Arc<TaskInner<T>> {
        Arc::new(TaskInner {
            state: Mutex::new(TaskState::Pending),
            done: Condvar::new(),
            context,
        })
    }

    /// Runs `body` to completion, capturing its value or panic.
    pub fn run(&self, body: impl FnOnce() -> T) {
        self.run_with_hook(body, || {});
    }

    /// Runs `body`, then calls `before_publish` *before* the completion is
    /// made visible to waiters. The pool uses this to emit the `TaskEnd`
    /// synchronization event strictly before any `Join` edge can consume
    /// the task's final clock.
    pub fn run_with_hook(&self, body: impl FnOnce() -> T, before_publish: impl FnOnce()) {
        let result = panic::catch_unwind(AssertUnwindSafe(body));
        before_publish();
        let mut st = self.state.lock();
        *st = match result {
            Ok(v) => TaskState::Done(v),
            Err(p) => TaskState::Panicked(p),
        };
        self.done.notify_all();
    }

    /// Returns `true` once the task finished (normally or by panic).
    pub fn is_done(&self) -> bool {
        !matches!(*self.state.lock(), TaskState::Pending)
    }

    /// Takes the task's value.
    ///
    /// # Panics
    ///
    /// Resumes the task's panic if it panicked; panics if called before
    /// completion or twice.
    pub fn take(&self) -> T {
        let mut st = self.state.lock();
        match std::mem::replace(&mut *st, TaskState::Taken) {
            TaskState::Done(v) => v,
            TaskState::Panicked(p) => panic::resume_unwind(p),
            TaskState::Pending => panic!("task result taken before completion"),
            TaskState::Taken => panic!("task result taken twice"),
        }
    }

    /// The logical context the task runs as.
    pub fn context(&self) -> ContextId {
        self.context
    }
}

/// A handle to a spawned task — the analog of a .NET `Task<T>`.
///
/// Handles are first-class: they can be stored, passed around, and joined
/// by *any* context, which is what makes the fork/join graphs the paper
/// targets non-series-parallel. Dropping a handle without joining is
/// allowed (fire-and-forget), just as in TPL.
pub struct JoinHandle<T> {
    pub(crate) inner: Arc<TaskInner<T>>,
    pub(crate) pool: std::sync::Weak<crate::pool::PoolInner>,
}

impl<T> JoinHandle<T> {
    /// The spawned task's logical context id.
    pub fn context(&self) -> ContextId {
        self.inner.context()
    }

    /// Returns `true` if the task has finished.
    pub fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    /// Blocks until the task finishes, without consuming the handle — the
    /// analog of `Task.Wait`.
    ///
    /// A wait from inside a pool worker marks that worker blocked; when
    /// every worker is blocked in joins with work still queued, the pool
    /// injects a starvation-relief worker (the .NET thread-injection
    /// analog), so acyclic task dependency graphs can never deadlock.
    /// Reports a `Join` edge to the runtime once the target completes.
    pub fn wait(&self) {
        // Waits up to `poll` for completion; `true` once the task is done.
        let done_within = |poll: Duration| {
            let inner = &*self.inner;
            let mut st = inner.state.lock();
            let deadline = clock::deadline_after(poll);
            clock::wait_until(&inner.done, &mut st, deadline, |st| {
                !matches!(st, TaskState::Pending)
            })
        };
        if let Some(pool) = self.pool.upgrade() {
            pool.enter_blocked_wait();
            while !done_within(Duration::from_micros(500)) {
                pool.maybe_inject();
            }
            pool.exit_blocked_wait();
            pool.emit_join(self.inner.context());
        } else {
            // Pool is gone; the task either ran or never will. Avoid
            // hanging forever on an orphaned pending task.
            while !done_within(Duration::from_millis(10)) {
                if self.pool.upgrade().is_none() && !self.inner.is_done() {
                    panic!("joined a task whose pool was dropped before it ran");
                }
            }
        }
    }

    /// Blocks until the task finishes and returns its value — the analog of
    /// `Task.Result` (line 15–16 of Fig. 3).
    ///
    /// # Panics
    ///
    /// Resumes the task's panic if the task panicked.
    pub fn join(self) -> T {
        self.wait();
        self.inner.take()
    }

    /// Schedules `f` to run as a new task once this one completes — the
    /// `ContinueWith` / post-`await` continuation analog. The continuation
    /// happens-after the antecedent (a `Join` edge is reported before it
    /// starts), matching the `9a`/`9b` nodes of the paper's Fig. 4.
    pub fn then<U, F>(self, pool: &crate::pool::Pool, f: F) -> JoinHandle<U>
    where
        T: Send + 'static,
        U: Send + 'static,
        F: FnOnce(T) -> U + Send + 'static,
    {
        pool.spawn(move || {
            let value = self.join();
            f(value)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_core::context;

    #[test]
    fn inner_run_and_take() {
        let inner = TaskInner::new(context::fresh_id());
        assert!(!inner.is_done());
        inner.run(|| 41 + 1);
        assert!(inner.is_done());
        assert_eq!(inner.take(), 42);
    }

    #[test]
    fn inner_captures_panic() {
        let inner: Arc<TaskInner<()>> = TaskInner::new(context::fresh_id());
        inner.run(|| panic!("boom"));
        assert!(inner.is_done());
        let result = panic::catch_unwind(AssertUnwindSafe(|| inner.take()));
        assert!(result.is_err(), "take must resume the task's panic");
    }
}
