//! Hot-path audit: proof-grade counting of locks and shared writes.
//!
//! `on_call` claims exact counts: two locks and two shared writes on the
//! zero-trap path, no global lock on the armed one, no lock and nothing
//! published by a mutation that changes nothing. Claims like that rot silently
//! as code evolves, so every lock acquisition and every shared-memory store
//! or RMW on the runtime's access path is annotated with a call to
//! [`note_lock`] or [`note_shared_write`]. With the `hotpath_audit` cargo
//! feature the notes bump thread-local counters a test can assert on; in
//! normal builds they compile to nothing.
//!
//! The counters are thread-local on purpose: an audit of *this thread's*
//! fast path must not be polluted by other test threads, and the counters
//! themselves must not become a shared write.

#[cfg(feature = "hotpath_audit")]
use std::cell::Cell;

#[cfg(feature = "hotpath_audit")]
thread_local! {
    static LOCKS: Cell<u64> = const { Cell::new(0) };
    static SHARED_WRITES: Cell<u64> = const { Cell::new(0) };
}

/// Records one lock acquisition (mutex, rwlock read or write) on the
/// calling thread. No-op unless the `hotpath_audit` feature is enabled.
#[inline(always)]
pub fn note_lock() {
    // `try_with`: a note fired from another thread-local's destructor can
    // come after the counter TLS is already gone.
    #[cfg(feature = "hotpath_audit")]
    let _ = LOCKS.try_with(|c| c.set(c.get() + 1));
}

/// Records one shared-memory write (store or read-modify-write on memory
/// reachable by other threads) on the calling thread. No-op unless the
/// `hotpath_audit` feature is enabled.
#[inline(always)]
pub fn note_shared_write() {
    #[cfg(feature = "hotpath_audit")]
    let _ = SHARED_WRITES.try_with(|c| c.set(c.get() + 1));
}

/// Zeroes the calling thread's audit counters.
#[cfg(feature = "hotpath_audit")]
pub fn reset() {
    LOCKS.with(|c| c.set(0));
    SHARED_WRITES.with(|c| c.set(0));
}

/// Lock acquisitions recorded on the calling thread since [`reset`].
#[cfg(feature = "hotpath_audit")]
pub fn lock_acquisitions() -> u64 {
    LOCKS.with(|c| c.get())
}

/// Shared-memory writes recorded on the calling thread since [`reset`].
#[cfg(feature = "hotpath_audit")]
pub fn shared_writes() -> u64 {
    SHARED_WRITES.with(|c| c.get())
}

#[cfg(all(test, feature = "hotpath_audit"))]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        note_lock();
        note_shared_write();
        note_shared_write();
        assert_eq!(lock_acquisitions(), 1);
        assert_eq!(shared_writes(), 2);
        reset();
        assert_eq!(lock_acquisitions(), 0);
        assert_eq!(shared_writes(), 0);
    }

    #[test]
    fn counters_are_thread_local() {
        reset();
        note_lock();
        std::thread::spawn(|| {
            assert_eq!(lock_acquisitions(), 0, "fresh thread starts at zero");
            note_lock();
            note_lock();
            assert_eq!(lock_acquisitions(), 2);
        })
        .join()
        .expect("no panic");
        assert_eq!(lock_acquisitions(), 1, "other threads don't leak in");
    }
}
