//! Epoch-based reclamation for read-mostly pointer-swap structures.
//!
//! The trap set and the decay table are consulted on the `on_call` path of
//! every armed run but mutate rarely (arming, decay, pruning). An `RwLock`
//! makes those reads cheap but not free: every reader performs an atomic
//! RMW on the lock word, which is a shared write that bounces the cache
//! line between cores. This module replaces the pattern with copy-on-write
//! snapshots behind an atomic pointer: readers *pin* the current epoch
//! (one uncontended store to their own slot), load the pointer, and read an
//! immutable snapshot; writers build a new snapshot, swap the pointer, and
//! *retire* the old one to be freed once no reader can still hold it.
//!
//! The vendored crossbeam is a channel-only stub, so the collector is
//! hand-rolled. It is the classic 3-epoch scheme:
//!
//! - a global epoch counter `E`;
//! - one slot per participating thread holding the epoch it pinned, or
//!   `NOT_PINNED`;
//! - `E` may advance only when every pinned slot equals `E`, so pinned
//!   readers are never more than one epoch behind;
//! - garbage retired at epoch `R` is freed once `E ≥ R + 2`: by then every
//!   reader pinned at `R` or earlier has unpinned, and any later pin can
//!   only observe the new pointer.
//!
//! Writers drive collection (retirement is on the rare path); readers never
//! block and never take a lock. A reader's pin is one store to its own
//! cache line — the only "shared" write on an armed read, and it is flagged
//! to the [`audit`] so the zero-trap path can prove it does
//! not even pay that.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::audit;

/// Slot value meaning "this thread holds no pin".
const NOT_PINNED: u64 = u64::MAX;

/// One registered thread's pin slot.
struct Participant {
    epoch: AtomicU64,
}

/// A retired allocation tagged with the epoch it was retired in.
struct Garbage {
    retired_at: u64,
    /// Dropping the box frees the payload.
    _payload: Box<dyn Send>,
}

/// The process-global epoch collector.
pub struct Collector {
    epoch: AtomicU64,
    participants: Mutex<Vec<Arc<Participant>>>,
    garbage: Mutex<Vec<Garbage>>,
}

impl Collector {
    fn new() -> Collector {
        Collector {
            epoch: AtomicU64::new(0),
            participants: Mutex::new(Vec::new()),
            garbage: Mutex::new(Vec::new()),
        }
    }

    fn register(&self) -> Arc<Participant> {
        let p = Arc::new(Participant {
            epoch: AtomicU64::new(NOT_PINNED),
        });
        self.participants.lock().push(p.clone());
        p
    }

    fn unregister(&self, p: &Arc<Participant>) {
        self.participants
            .lock()
            .retain(|other| !Arc::ptr_eq(other, p));
    }

    /// Defers dropping `payload` until no pinned reader can reference it.
    fn retire(&self, payload: Box<dyn Send>) {
        let retired_at = self.epoch.load(Ordering::SeqCst);
        self.garbage.lock().push(Garbage {
            retired_at,
            _payload: payload,
        });
        self.collect();
    }

    /// Tries to advance the global epoch and frees every retired payload
    /// that is at least two epochs old. Called from the (rare) writer path.
    pub fn collect(&self) {
        let current = self.epoch.load(Ordering::SeqCst);
        let can_advance = {
            let participants = self.participants.lock();
            participants.iter().all(|p| {
                let e = p.epoch.load(Ordering::SeqCst);
                e == NOT_PINNED || e == current
            })
        };
        if can_advance {
            // A lost race just means another writer advanced for us.
            let _ = self.epoch.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        let now = self.epoch.load(Ordering::SeqCst);
        self.garbage.lock().retain(|g| g.retired_at + 2 > now);
    }
}

static COLLECTOR: OnceLock<Collector> = OnceLock::new();

/// The process-global collector shared by every [`EpochPtr`].
pub fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(Collector::new)
}

/// Removes the calling thread's participant slot when the thread exits, so
/// a dead thread can never stall epoch advancement.
struct Registration(Arc<Participant>);

impl Drop for Registration {
    fn drop(&mut self) {
        collector().unregister(&self.0);
    }
}

thread_local! {
    static REGISTRATION: RefCell<Option<Registration>> = const { RefCell::new(None) };
    static PIN_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// An active pin: while alive, the current epoch cannot advance past this
/// thread, so any pointer loaded under the guard stays allocated.
pub struct Guard {
    participant: Arc<Participant>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let depth = PIN_DEPTH.with(|d| {
            d.set(d.get() - 1);
            d.get()
        });
        if depth == 0 {
            self.participant.epoch.store(NOT_PINNED, Ordering::Release);
        }
    }
}

/// Pins the calling thread to the current epoch. Re-entrant: nested pins
/// keep the outermost epoch. This is the only shared write a reader pays,
/// and it targets the thread's own slot, so it never contends.
pub fn pin() -> Guard {
    let participant = REGISTRATION.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            *slot = Some(Registration(collector().register()));
        }
        slot.as_ref().expect("just registered").0.clone()
    });
    let depth = PIN_DEPTH.with(|d| {
        d.set(d.get() + 1);
        d.get()
    });
    if depth == 1 {
        audit::note_shared_write();
        let collector = collector();
        loop {
            let e = collector.epoch.load(Ordering::SeqCst);
            participant.epoch.store(e, Ordering::SeqCst);
            // Re-check: if the global epoch moved between the load and the
            // store, the published pin might be one epoch stale; re-pin at
            // the fresh value so the two-epoch reclamation bound holds.
            if collector.epoch.load(Ordering::SeqCst) == e {
                break;
            }
        }
    }
    Guard { participant }
}

/// An atomic pointer to an immutable snapshot, reclaimed through epochs.
///
/// Readers call [`read`](EpochPtr::read) (pin + load + borrow) and need no
/// coordination at all; writers go through [`update`](EpochPtr::update),
/// which serializes them on the pointer's own mutex.
pub struct EpochPtr<T: Send + Sync + 'static> {
    ptr: AtomicPtr<T>,
    writer: Mutex<()>,
}

impl<T: Send + Sync + 'static> EpochPtr<T> {
    /// Creates the pointer holding `value` as its first snapshot.
    pub fn new(value: T) -> EpochPtr<T> {
        EpochPtr {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
            writer: Mutex::new(()),
        }
    }

    /// Pins, loads the current snapshot, and applies `f` to it.
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let _guard = pin();
        let ptr = self.ptr.load(Ordering::Acquire);
        // SAFETY: `ptr` was published by `new` or `swap` and can only be
        // freed two epochs after it is swapped out; the pin taken above
        // holds the current epoch, so the snapshot outlives this borrow.
        f(unsafe { &*ptr })
    }

    /// Read before write. `noop` answers from a snapshot when the update
    /// would change nothing; it is asked on the pinned current snapshot
    /// first — no lock, no clone, nothing published — and again under the
    /// writer mutex, where a racing update is decided. Only an update that
    /// does change the value clones it, applies `mutate` to the clone, and
    /// swaps the clone in.
    pub fn update<R>(&self, noop: impl Fn(&T) -> Option<R>, mutate: impl FnOnce(&mut T) -> R) -> R
    where
        T: Clone,
    {
        if let Some(unchanged) = self.read(&noop) {
            return unchanged;
        }
        audit::note_lock();
        let _w = self.writer.lock();
        let mut next = match self.read(|v| noop(v).ok_or_else(|| v.clone())) {
            Ok(unchanged) => return unchanged,
            Err(clone) => clone,
        };
        let result = mutate(&mut next);
        audit::note_shared_write();
        self.swap(next);
        result
    }

    /// Publishes `value` as the new snapshot and retires the old one.
    /// Private: racing swaps built on one predecessor would both be memory
    /// safe, but the survivor would lose the other's update, so writers go
    /// through [`update`](EpochPtr::update), which serializes them.
    fn swap(&self, value: T) {
        let fresh = Box::into_raw(Box::new(value));
        let old = self.ptr.swap(fresh, Ordering::AcqRel);
        // SAFETY: `old` came from `Box::into_raw` in `new` or a previous
        // `swap` and is no longer reachable through `self.ptr`; ownership
        // moves to the collector, which frees it after two epochs.
        collector().retire(unsafe { Box::from_raw(old) });
    }
}

impl<T: Default + Send + Sync + 'static> Default for EpochPtr<T> {
    fn default() -> Self {
        EpochPtr::new(T::default())
    }
}

impl<T: Send + Sync + 'static> Drop for EpochPtr<T> {
    fn drop(&mut self) {
        let ptr = *self.ptr.get_mut();
        // SAFETY: dropping the EpochPtr requires exclusive ownership, so no
        // reader can be inside `read` — the final snapshot can be freed
        // directly without going through the collector.
        drop(unsafe { Box::from_raw(ptr) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Payload whose drop increments a counter, so tests can observe
    /// exactly when reclamation happens.
    struct Tracked(Arc<AtomicUsize>);

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn drain() {
        // Each collect can advance at most one epoch; a few rounds flush
        // everything reclaimable.
        for _ in 0..4 {
            collector().collect();
        }
    }

    /// The collector is process-global, so pins taken by concurrently
    /// running tests can transiently stall advancement; retry instead of
    /// assuming a fixed number of rounds suffices.
    fn drain_until(drops: &Arc<AtomicUsize>, want: usize) {
        for _ in 0..10_000 {
            collector().collect();
            if drops.load(Ordering::SeqCst) >= want {
                return;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn read_sees_latest_snapshot() {
        let p = EpochPtr::new(1u64);
        assert_eq!(p.read(|v| *v), 1);
        p.swap(2);
        assert_eq!(p.read(|v| *v), 2);
    }

    #[test]
    fn retired_snapshot_outlives_active_pin() {
        let drops = Arc::new(AtomicUsize::new(0));
        let p = EpochPtr::new(Tracked(drops.clone()));
        let guard = pin();
        p.swap(Tracked(drops.clone()));
        drain();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "a pinned reader must keep the retired snapshot alive"
        );
        drop(guard);
        drain_until(&drops, 1);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "unpinning lets the collector free the old snapshot"
        );
    }

    #[test]
    fn nested_pins_keep_outer_epoch() {
        let outer = pin();
        let inner = pin();
        drop(inner);
        // The outer pin must still be active: a swap retired now must not
        // be reclaimed until `outer` drops.
        let drops = Arc::new(AtomicUsize::new(0));
        let p = EpochPtr::new(Tracked(drops.clone()));
        p.swap(Tracked(drops.clone()));
        drain();
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(outer);
        drain_until(&drops, 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn drop_frees_final_snapshot_directly() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let p = EpochPtr::new(Tracked(drops.clone()));
            p.swap(Tracked(drops.clone()));
            drop(p);
        }
        drain_until(&drops, 2);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            2,
            "both the retired and the final snapshot are freed"
        );
    }

    #[test]
    fn thread_exit_unblocks_advancement() {
        // A thread pins, unpins, and exits; its slot must not wedge the
        // epoch afterwards.
        std::thread::spawn(|| {
            let g = pin();
            drop(g);
        })
        .join()
        .expect("no panic");
        let drops = Arc::new(AtomicUsize::new(0));
        let p = EpochPtr::new(Tracked(drops.clone()));
        p.swap(Tracked(drops.clone()));
        drain_until(&drops, 1);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_readers_always_see_consistent_values() {
        // Writer swaps monotonically increasing snapshots; readers must
        // only ever observe values that were actually published, never a
        // freed or torn one.
        let p = Arc::new(EpochPtr::new(0u64));
        let stop = Arc::new(AtomicUsize::new(0));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let p = p.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        let v = p.read(|v| *v);
                        assert!(v >= last, "snapshots are monotone: {v} < {last}");
                        last = v;
                    }
                })
            })
            .collect();
        for v in 1..=500u64 {
            p.swap(v);
        }
        stop.store(1, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader panicked");
        }
        assert_eq!(p.read(|v| *v), 500);
    }
}
