//! Instrumented synchronization primitives.
//!
//! Workloads that correctly protect their collections use [`TsvdMutex`]; it
//! reports acquire/release edges to the runtime so that TSVD-HB can order
//! the critical sections. TSVD itself never looks at these events — its HB
//! *inference* discovers the same ordering purely from delay propagation,
//! which is the paper's central trick.

use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use tsvd_core::{context, Runtime, SyncEvent};

/// A mutex that reports lock-transfer edges to a TSVD runtime.
pub struct TsvdMutex<T> {
    inner: Mutex<T>,
    runtime: Option<Arc<Runtime>>,
}

impl<T> TsvdMutex<T> {
    /// Creates an uninstrumented mutex (no runtime attached).
    pub fn new(value: T) -> Self {
        TsvdMutex {
            inner: Mutex::new(value),
            runtime: None,
        }
    }

    /// Creates a mutex whose acquire/release events flow to `runtime`.
    pub fn with_runtime(value: T, runtime: Arc<Runtime>) -> Self {
        TsvdMutex {
            inner: Mutex::new(value),
            runtime: Some(runtime),
        }
    }

    /// Stable identity of this lock for HB analysis.
    fn lock_id(&self) -> u64 {
        &self.inner as *const _ as u64
    }

    /// Acquires the lock, reporting the acquire edge *after* the lock is
    /// held (so the release→acquire transfer is linearized correctly).
    pub fn lock(&self) -> TsvdMutexGuard<'_, T> {
        let guard = self.inner.lock();
        if let Some(rt) = &self.runtime {
            rt.on_sync(SyncEvent::LockAcquire {
                context: context::current(),
                lock: self.lock_id(),
            });
        }
        TsvdMutexGuard {
            guard: Some(guard),
            lock: self,
        }
    }
}

/// Guard for [`TsvdMutex`]; reports the release edge just before unlocking.
pub struct TsvdMutexGuard<'a, T> {
    guard: Option<MutexGuard<'a, T>>,
    lock: &'a TsvdMutex<T>,
}

impl<T> std::ops::Deref for TsvdMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> std::ops::DerefMut for TsvdMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl<T> Drop for TsvdMutexGuard<'_, T> {
    fn drop(&mut self) {
        // Report while still holding the lock, then release: the release
        // clock snapshot must precede any subsequent acquire.
        if let Some(rt) = &self.lock.runtime {
            rt.on_sync(SyncEvent::LockRelease {
                context: context::current(),
                lock: self.lock.lock_id(),
            });
        }
        drop(self.guard.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_core::TsvdConfig;

    #[test]
    fn mutex_protects_value() {
        let m = Arc::new(TsvdMutex::new(0u64));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = m.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn events_flow_to_runtime() {
        let rt = Runtime::noop(TsvdConfig::for_testing());
        let m = TsvdMutex::with_runtime(5u32, rt.clone());
        {
            let g = m.lock();
            assert_eq!(*g, 5);
        }
        // One acquire + one release.
        assert_eq!(rt.stats().sync_events(), 2);
    }

    #[test]
    fn uninstrumented_mutex_emits_nothing() {
        let m = TsvdMutex::new(1u32);
        let _ = *m.lock();
        // No runtime attached: nothing to assert except that it works.
    }

    #[test]
    fn guard_allows_mutation() {
        let m = TsvdMutex::new(String::new());
        m.lock().push_str("hello");
        assert_eq!(&*m.lock(), "hello");
    }
}
