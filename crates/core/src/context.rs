//! Execution-context identities.
//!
//! The paper's `thread_id` distinguishes concurrent executors. In a
//! task-parallel program the natural unit is the *task*, not the OS thread:
//! two tasks multiplexed onto one pool thread never overlap in time, while
//! fork/join happens-before edges connect tasks. The task substrate
//! (`tsvd-tasks`) therefore installs a logical context id for the duration of
//! each task; code running outside any task gets a per-OS-thread id.
//!
//! A task also carries its [`SpawnCertificate`]: who spawned it and when,
//! stamped on the spawning thread. That is what the paper's own
//! interception of task creation (§4) sees, and all the near-miss tracker
//! needs to tell the parent's pre-spawn initialization from a race: TSVD
//! still consumes no synchronization event. Next to the certificate,
//! [`enter`] stamps when the task started on the thread that runs it
//! ([`started_ns`]): the origin of the task's first gap for happens-before
//! inference (§3.4.4), which otherwise has no previous access to measure
//! from.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::clock::now_ns;

/// Identifier of an execution context (an OS thread or a logical task).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContextId(pub u64);

impl fmt::Display for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx#{}", self.0)
    }
}

/// What a task's spawner certifies about it: the spawning context, and a
/// [`now_ns`] stamp taken on the spawning thread at the spawn. Every access
/// the parent made stamped at or before `spawned_ns` happened before the
/// task started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpawnCertificate {
    /// The context that spawned the task.
    pub parent: ContextId,
    /// [`now_ns`] on the spawning thread at the spawn.
    pub spawned_ns: u64,
}

impl SpawnCertificate {
    /// Draws the certificate of a task the calling context spawns now.
    pub fn draw() -> SpawnCertificate {
        SpawnCertificate {
            parent: current(),
            spawned_ns: now_ns(),
        }
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_DEFAULT: ContextId = ContextId(NEXT_ID.fetch_add(1, Ordering::Relaxed));
    static CURRENT: Cell<Option<ContextId>> = const { Cell::new(None) };
    /// The installed task, its certificate and when it started on this
    /// thread, when it has a certificate.
    static SPAWN: Cell<Option<(ContextId, SpawnCertificate, u64)>> = const { Cell::new(None) };
}

/// Allocates a fresh context id (used by the task substrate for each task).
pub fn fresh_id() -> ContextId {
    ContextId(NEXT_ID.fetch_add(1, Ordering::Relaxed))
}

/// Returns the context id of the calling thread: the installed task context
/// if inside [`enter`], otherwise this OS thread's stable default id.
pub fn current() -> ContextId {
    CURRENT.with(|c| match c.get() {
        Some(id) => id,
        None => THREAD_DEFAULT.with(|d| *d),
    })
}

/// The spawn certificate of `id`, if `id` is the context installed on the
/// calling thread and was installed with one.
pub fn spawn_certificate(id: ContextId) -> Option<SpawnCertificate> {
    match SPAWN.get() {
        Some((task, certificate, _)) if task == id => Some(certificate),
        _ => None,
    }
}

/// The [`now_ns`] stamp taken when `id` was entered on the calling thread,
/// if `id` is the installed context and was entered with a certificate.
/// A thread's default context has none.
pub fn started_ns(id: ContextId) -> Option<u64> {
    match SPAWN.get() {
        Some((task, _, started)) if task == id => Some(started),
        _ => None,
    }
}

/// Installs `id`, with the certificate of its spawn if it is a task, as
/// the current context until the returned guard drops. A task's entry is
/// stamped with [`now_ns`] (see [`started_ns`]).
///
/// Nested entries restore the previous context on drop, so a task that
/// synchronously runs a child task keeps correct attribution.
pub fn enter(id: ContextId, spawn: Option<SpawnCertificate>) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(Some(id)));
    let prev_spawn = SPAWN.replace(spawn.map(|certificate| (id, certificate, now_ns())));
    ContextGuard { prev, prev_spawn }
}

/// Guard restoring the previous context id on drop. See [`enter`].
pub struct ContextGuard {
    prev: Option<ContextId>,
    prev_spawn: Option<(ContextId, SpawnCertificate, u64)>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
        SPAWN.set(self.prev_spawn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_default_is_stable() {
        assert_eq!(current(), current());
    }

    #[test]
    fn distinct_threads_get_distinct_defaults() {
        let here = current();
        let there = std::thread::spawn(current).join().expect("no panic");
        assert_ne!(here, there);
    }

    #[test]
    fn enter_overrides_and_restores() {
        let outer = current();
        let task = fresh_id();
        {
            let _g = enter(task, None);
            assert_eq!(current(), task);
            let nested = fresh_id();
            {
                let _g2 = enter(nested, None);
                assert_eq!(current(), nested);
            }
            assert_eq!(current(), task, "nested guard restores enclosing task");
        }
        assert_eq!(current(), outer, "outer guard restores thread default");
    }

    #[test]
    fn a_spawn_certificate_belongs_to_its_task_and_nesting_restores_it() {
        let outer = current();
        assert_eq!(spawn_certificate(outer), None, "a thread default has none");
        let certificate = SpawnCertificate::draw();
        assert_eq!(certificate.parent, outer);
        let (task, child) = (fresh_id(), fresh_id());
        {
            let _g = enter(task, Some(certificate));
            assert_eq!(spawn_certificate(task), Some(certificate));
            assert_eq!(spawn_certificate(outer), None, "only the installed task's");
            let inner = SpawnCertificate::draw();
            assert_eq!(inner.parent, task);
            assert!(inner.spawned_ns >= certificate.spawned_ns);
            {
                let _g2 = enter(child, Some(inner));
                assert_eq!(spawn_certificate(child), Some(inner));
                assert_eq!(spawn_certificate(task), None);
            }
            assert_eq!(spawn_certificate(task), Some(certificate));
            {
                let _g3 = enter(child, None);
                assert_eq!(spawn_certificate(child), None, "entered without one");
            }
        }
        assert_eq!(spawn_certificate(task), None);
    }

    #[test]
    fn a_tasks_start_stamp_is_taken_at_entry_and_nests_and_restores_like_its_certificate() {
        let outer = current();
        assert_eq!(started_ns(outer), None, "a thread default has none");
        let (task, child) = (fresh_id(), fresh_id());
        let certificate = SpawnCertificate::draw();
        let before = now_ns();
        let guard = enter(task, Some(certificate));
        let started = started_ns(task).expect("a certified task is stamped");
        assert!(certificate.spawned_ns <= before && before <= started);
        assert!(started <= now_ns());
        assert_eq!(started_ns(outer), None, "only the installed task's");
        {
            let _g2 = enter(child, Some(SpawnCertificate::draw()));
            let inner = started_ns(child).expect("stamped");
            assert!(inner >= started);
            assert_eq!(started_ns(task), None);
        }
        assert_eq!(started_ns(task), Some(started), "restored, not re-stamped");
        {
            let _g3 = enter(child, None);
            assert_eq!(started_ns(child), None, "a plain context is not stamped");
        }
        assert_eq!(started_ns(task), Some(started));
        drop(guard);
        assert_eq!(started_ns(task), None);
    }

    #[test]
    fn fresh_ids_are_unique() {
        let a = fresh_id();
        let b = fresh_id();
        assert_ne!(a, b);
    }
}
