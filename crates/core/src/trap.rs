//! The trap table: catching threads red-handed (Fig. 5).
//!
//! A thread that decides to delay at a TSVD point first *sets a trap*
//! registering its access triple, then sleeps. Every other thread entering
//! `OnCall` checks the table; if its access conflicts with a live trap —
//! different context, same object, at least one write — both threads are at
//! their respective program counters making the conflicting calls, and the
//! violation is real by construction. The sleeping thread is woken early so
//! a caught trap does not keep paying its full delay.
//!
//! Trap checking runs on every instrumented access, but traps are live only
//! while some thread is sleeping — the overwhelmingly common case is an
//! empty table. The table therefore keeps a global live-trap counter so the
//! empty case is a single atomic load, and stores the (rare) live traps in
//! shards keyed by object id: the conflict predicate requires *the same
//! object*, so a checker only ever needs its own object's shard.
//!
//! A thread checks the table *before* it sets its own trap, so two threads
//! that arrive together can both check, both set and both sleep, neither
//! seeing the other. Every trap therefore carries a sequence number, stamped
//! under its shard's lock: after setting its trap, an owner re-checks the
//! traps set before its own ([`TrapTable::check_earlier`]). Of two such
//! threads the later one finds the earlier one's trap — exactly one of them
//! catches, once.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::access::{Access, ObjId};
use crate::audit;
use crate::chunks::{stripe_of, Stripe};

const DEFAULT_SHARDS: usize = 16;

/// A live trap: one delayed access waiting to be collided with.
pub struct TrapEntry {
    /// The delayed access.
    pub access: Access,
    /// Stack trace captured when the trap was set (if enabled).
    pub stack: Option<Arc<str>>,
    /// Order of setting among the traps of one table: of two traps on one
    /// object, the one with the smaller number was in the table first.
    seq: u64,
    state: Mutex<TrapState>,
    wake: Condvar,
}

#[derive(Debug, Default)]
struct TrapState {
    /// Set when a conflicting access hit this trap.
    caught: bool,
    /// Set when the trap owner should stop sleeping (caught or cancelled).
    wake_now: bool,
}

impl TrapEntry {
    fn new(access: Access, stack: Option<Arc<str>>, seq: u64) -> Arc<TrapEntry> {
        Arc::new(TrapEntry {
            access,
            stack,
            seq,
            state: Mutex::new(TrapState::default()),
            wake: Condvar::new(),
        })
    }

    /// Marks the trap as hit and wakes its owner.
    ///
    /// The only thread that ever waits on `wake` is the trap's owner, so
    /// one wakeup suffices; `caught` is idempotent, so every concurrent
    /// hitter still observes the hit and reports the violation.
    pub fn catch(&self) {
        let mut st = self.state.lock();
        st.caught = true;
        st.wake_now = true;
        self.wake.notify_one();
    }

    /// Wakes the trap's owner *without* marking the trap caught — the
    /// watchdog's escape hatch for delay-induced starvation. Returns `true`
    /// if this call actually cancelled a still-sleeping trap (a trap that
    /// was already caught or cancelled is left as-is).
    pub fn cancel(&self) -> bool {
        let mut st = self.state.lock();
        if st.wake_now {
            return false;
        }
        st.wake_now = true;
        self.wake.notify_one();
        true
    }

    /// Returns `true` if a conflicting access hit this trap.
    pub fn was_caught(&self) -> bool {
        self.state.lock().caught
    }

    /// Sleeps for up to `duration`, returning early if the trap is hit.
    /// Returns `true` if the trap was caught during the sleep.
    pub fn sleep(&self, duration: Duration) -> bool {
        let deadline = std::time::Instant::now() + duration;
        let mut st = self.state.lock();
        while !st.wake_now {
            if self.wake.wait_until(&mut st, deadline).timed_out() {
                break;
            }
        }
        st.caught
    }
}

/// The global table of live traps, sharded by object id.
pub struct TrapTable {
    shards: Box<[Stripe<Vec<Arc<TrapEntry>>>]>,
    /// Live traps across all shards. Zero — the common case — makes
    /// [`check_for_trap`](TrapTable::check_for_trap) lock-free.
    live: AtomicUsize,
    /// The next trap's [`TrapEntry::seq`], drawn under the shard lock.
    next_seq: AtomicU64,
}

impl Default for TrapTable {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }
}

impl TrapTable {
    /// Creates an empty table with the default shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table with `shards` shards (clamped to ≥ 1).
    pub fn with_shards(shards: usize) -> Self {
        TrapTable {
            shards: (0..shards.max(1)).map(|_| Stripe::default()).collect(),
            live: AtomicUsize::new(0),
            next_seq: AtomicU64::new(0),
        }
    }

    /// The shard holding traps for `obj`. A conflict requires the same
    /// object, so a trap is only ever relevant to exactly one shard.
    fn shard(&self, obj: ObjId) -> &Stripe<Vec<Arc<TrapEntry>>> {
        &self.shards[stripe_of(obj.0, self.shards.len())]
    }

    /// Registers a trap for `access` and returns its handle.
    pub fn set_trap(&self, access: Access, stack: Option<Arc<str>>) -> Arc<TrapEntry> {
        // Publish the count before the entry becomes findable: a checker
        // that loads 0 and skips can only miss a trap whose owner has not
        // finished arming it — and that owner's own re-check
        // ([`check_earlier`](Self::check_earlier)) finds the checker's trap,
        // if it set one.
        audit::note_shared_write();
        self.live.fetch_add(1, Ordering::SeqCst);
        audit::note_lock();
        let mut shard = self.shard(access.obj).lock();
        // Drawn under the lock: within a shard, sequence order is the order
        // in which traps became findable.
        let entry = TrapEntry::new(access, stack, self.next_seq.fetch_add(1, Ordering::Relaxed));
        shard.push(entry.clone());
        entry
    }

    /// Removes `entry` from the table (the owner woke up).
    pub fn clear_trap(&self, entry: &Arc<TrapEntry>) {
        audit::note_lock();
        let mut shard = self.shard(entry.access.obj).lock();
        let before = shard.len();
        shard.retain(|t| !Arc::ptr_eq(t, entry));
        let removed = before - shard.len();
        drop(shard);
        if removed > 0 {
            audit::note_shared_write();
            self.live.fetch_sub(removed, Ordering::SeqCst);
        }
    }

    /// Checks `access` against all live traps, marking and returning every
    /// trap it collides with. The paper's conflict predicate: different
    /// context, same object, at least one write.
    pub fn check_for_trap(&self, access: &Access) -> Vec<Arc<TrapEntry>> {
        if self.live.load(Ordering::SeqCst) == 0 {
            return Vec::new();
        }
        audit::note_lock();
        let shard = self.shard(access.obj).lock();
        let mut hit = Vec::new();
        for t in shard.iter() {
            if t.access.conflicts_with(access) {
                t.catch();
                hit.push(t.clone());
            }
        }
        hit
    }

    /// The owner of `own`, a trap just set, re-checks its access against the
    /// live traps set *before* it: their owners checked the table before
    /// `own` was findable, so neither side has seen the other. Marks and
    /// returns every such trap it collides with, leaving out `seen` — the
    /// traps the owner's check before setting `own` already caught.
    pub fn check_earlier(&self, own: &TrapEntry, seen: &[Arc<TrapEntry>]) -> Vec<Arc<TrapEntry>> {
        audit::note_lock();
        let shard = self.shard(own.access.obj).lock();
        let mut hit = Vec::new();
        for t in shard.iter() {
            if t.seq < own.seq
                && t.access.conflicts_with(&own.access)
                && !seen.iter().any(|s| Arc::ptr_eq(s, t))
            {
                t.catch();
                hit.push(t.clone());
            }
        }
        hit
    }

    /// Number of live traps (stats).
    pub fn live_count(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Snapshot of every live trap, across all shards.
    fn live_traps(&self) -> Vec<Arc<TrapEntry>> {
        if self.live.load(Ordering::SeqCst) == 0 {
            return Vec::new();
        }
        let mut all = Vec::new();
        for shard in self.shards.iter() {
            all.extend(shard.lock().iter().cloned());
        }
        all
    }

    /// Cancels (wakes without marking caught) the `n` oldest live traps,
    /// oldest by the stamp of the trapped access. Returns how many sleeping
    /// owners were actually woken. The owners clear their own entries on
    /// wake-up, so the table empties through the normal path.
    pub fn cancel_oldest(&self, n: usize) -> usize {
        let mut traps = self.live_traps();
        traps.sort_by_key(|t| t.access.time_ns);
        traps.iter().take(n).filter(|t| t.cancel()).count()
    }

    /// Cancels every live trap. Returns how many owners were woken.
    pub fn cancel_all(&self) -> usize {
        self.live_traps().iter().filter(|t| t.cancel()).count()
    }
}

/// RAII ownership of a live trap: guarantees the entry is removed from the
/// table — and the global live counter restored — even if a panic unwinds
/// through the owner's sleep, the strategy's `on_delay_complete`, or the
/// trapped wrapper call. A leaked entry would otherwise permanently disable
/// the zero-trap fast path and leave a phantom trap for hitters to collide
/// with.
pub struct TrapGuard<'a> {
    table: &'a TrapTable,
    entry: Arc<TrapEntry>,
}

impl<'a> TrapGuard<'a> {
    /// Takes ownership of `entry`'s presence in `table`.
    pub fn new(table: &'a TrapTable, entry: Arc<TrapEntry>) -> TrapGuard<'a> {
        TrapGuard { table, entry }
    }

    /// The guarded entry.
    pub fn entry(&self) -> &Arc<TrapEntry> {
        &self.entry
    }
}

impl Drop for TrapGuard<'_> {
    fn drop(&mut self) {
        self.table.clear_trap(&self.entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{ObjId, OpKind};
    use crate::context::ContextId;

    fn acc(ctx: u64, obj: u64, kind: OpKind) -> Access {
        Access {
            context: ContextId(ctx),
            obj: ObjId(obj),
            site: crate::site!(),
            op_name: "t.op",
            kind,
            time_ns: 0,
        }
    }

    #[test]
    fn conflicting_access_hits_trap() {
        let table = TrapTable::new();
        let trap = table.set_trap(acc(1, 7, OpKind::Write), None);
        let hits = table.check_for_trap(&acc(2, 7, OpKind::Read));
        assert_eq!(hits.len(), 1);
        assert!(trap.was_caught());
    }

    #[test]
    fn non_conflicting_access_misses() {
        let table = TrapTable::new();
        let trap = table.set_trap(acc(1, 7, OpKind::Read), None);
        assert!(table.check_for_trap(&acc(2, 7, OpKind::Read)).is_empty());
        assert!(table.check_for_trap(&acc(2, 8, OpKind::Write)).is_empty());
        assert!(table.check_for_trap(&acc(1, 7, OpKind::Write)).is_empty());
        assert!(!trap.was_caught());
    }

    #[test]
    fn cleared_trap_cannot_be_hit() {
        let table = TrapTable::new();
        let trap = table.set_trap(acc(1, 7, OpKind::Write), None);
        table.clear_trap(&trap);
        assert_eq!(table.live_count(), 0);
        assert!(table.check_for_trap(&acc(2, 7, OpKind::Write)).is_empty());
    }

    #[test]
    fn multiple_traps_can_hit_one_access() {
        let table = TrapTable::new();
        table.set_trap(acc(1, 7, OpKind::Write), None);
        table.set_trap(acc(3, 7, OpKind::Write), None);
        let hits = table.check_for_trap(&acc(2, 7, OpKind::Write));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn live_count_spans_all_shards() {
        // Traps on different objects land in different shards; the global
        // counter (and with it the zero-trap fast path) must track them all.
        let table = TrapTable::with_shards(4);
        let traps: Vec<_> = (0..8)
            .map(|obj| table.set_trap(acc(1, obj, OpKind::Write), None))
            .collect();
        assert_eq!(table.live_count(), 8);
        for (obj, trap) in traps.iter().enumerate() {
            assert_eq!(
                table
                    .check_for_trap(&acc(2, obj as u64, OpKind::Write))
                    .len(),
                1
            );
            table.clear_trap(trap);
        }
        assert_eq!(table.live_count(), 0);
        assert!(table.check_for_trap(&acc(2, 3, OpKind::Write)).is_empty());
    }

    #[test]
    fn single_shard_table_still_works() {
        let table = TrapTable::with_shards(1);
        table.set_trap(acc(1, 7, OpKind::Write), None);
        table.set_trap(acc(1, 8, OpKind::Write), None);
        assert_eq!(table.check_for_trap(&acc(2, 7, OpKind::Write)).len(), 1);
    }

    #[test]
    fn sleep_times_out_when_not_caught() {
        let table = TrapTable::new();
        let trap = table.set_trap(acc(1, 7, OpKind::Write), None);
        let start = std::time::Instant::now();
        let caught = trap.sleep(Duration::from_millis(5));
        assert!(!caught);
        assert!(start.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn sleep_wakes_early_when_caught() {
        let table = Arc::new(TrapTable::new());
        let trap = table.set_trap(acc(1, 7, OpKind::Write), None);
        let t2 = {
            let table = table.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                table.check_for_trap(&acc(2, 7, OpKind::Write))
            })
        };
        let start = std::time::Instant::now();
        let caught = trap.sleep(Duration::from_millis(500));
        assert!(caught, "collision must be observed by the sleeper");
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "sleeper must wake early"
        );
        assert_eq!(t2.join().expect("no panic").len(), 1);
    }

    #[test]
    fn cancel_wakes_owner_without_catching() {
        let table = Arc::new(TrapTable::new());
        let trap = table.set_trap(acc(1, 7, OpKind::Write), None);
        let canceller = {
            let trap = trap.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                trap.cancel()
            })
        };
        let start = std::time::Instant::now();
        let caught = trap.sleep(Duration::from_millis(500));
        assert!(!caught, "a cancelled trap is not a violation");
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "cancel must wake the sleeper early"
        );
        assert!(canceller.join().expect("no panic"));
        // A second cancel is a no-op.
        assert!(!trap.cancel());
    }

    #[test]
    fn cancel_oldest_prefers_the_longest_sleeper() {
        // The younger trap is set first, so table order alone would pick it.
        let table = TrapTable::with_shards(1);
        let stamped = |ctx, obj, time_ns| Access {
            time_ns,
            ..acc(ctx, obj, OpKind::Write)
        };
        let young = table.set_trap(stamped(2, 8, 2_000_000), None);
        let old = table.set_trap(stamped(1, 7, 1_000_000), None);
        assert_eq!(table.cancel_oldest(1), 1);
        assert!(!old.cancel(), "oldest was already cancelled");
        assert!(young.cancel(), "youngest was left alone");
    }

    #[test]
    fn cancel_all_sweeps_every_shard() {
        let table = TrapTable::with_shards(4);
        let traps: Vec<_> = (0..8)
            .map(|obj| table.set_trap(acc(1, obj, OpKind::Write), None))
            .collect();
        assert_eq!(table.cancel_all(), 8);
        for t in &traps {
            assert!(!t.cancel(), "every trap was cancelled exactly once");
        }
        assert_eq!(table.cancel_all(), 0);
    }

    #[test]
    fn guard_clears_trap_on_panic_unwind() {
        let table = TrapTable::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let entry = table.set_trap(acc(1, 7, OpKind::Write), None);
            let _guard = TrapGuard::new(&table, entry);
            panic!("unwind through a live trap");
        }));
        assert!(result.is_err());
        assert_eq!(
            table.live_count(),
            0,
            "unwind must restore the zero-trap fast path"
        );
        assert!(table.check_for_trap(&acc(2, 7, OpKind::Write)).is_empty());
    }

    #[test]
    fn guard_double_clear_is_harmless() {
        // The owner may clear explicitly before the guard drops (the
        // non-panic path); the counter must not underflow.
        let table = TrapTable::new();
        let entry = table.set_trap(acc(1, 7, OpKind::Write), None);
        {
            let guard = TrapGuard::new(&table, entry.clone());
            table.clear_trap(&entry);
            drop(guard);
        }
        assert_eq!(table.live_count(), 0);
        table.set_trap(acc(1, 8, OpKind::Write), None);
        assert_eq!(table.live_count(), 1);
    }

    #[test]
    fn a_trap_catches_only_the_conflicting_traps_set_before_it() {
        let table = TrapTable::with_shards(1);
        let first = table.set_trap(acc(1, 7, OpKind::Write), None);
        let other_obj = table.set_trap(acc(3, 8, OpKind::Write), None);
        let second = table.set_trap(acc(2, 7, OpKind::Write), None);
        assert!(
            table.check_earlier(&first, &[]).is_empty(),
            "nothing before it"
        );
        let hits = table.check_earlier(&second, &[]);
        assert_eq!(hits.len(), 1);
        assert!(Arc::ptr_eq(&hits[0], &first));
        assert!(first.was_caught() && !second.was_caught() && !other_obj.was_caught());
        assert!(
            table.check_earlier(&second, &hits).is_empty(),
            "a trap the owner already caught is not caught twice"
        );
    }

    #[test]
    fn concurrent_hitters_both_get_the_report() {
        // `catch` wakes with notify_one because only the owner waits on the
        // condvar; hitters never wait, they just mark. Two simultaneous
        // hitters must therefore *both* see the collision.
        let table = Arc::new(TrapTable::new());
        let trap = table.set_trap(acc(1, 7, OpKind::Write), None);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let hitters: Vec<_> = [2u64, 3]
            .into_iter()
            .map(|ctx| {
                let table = table.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    table.check_for_trap(&acc(ctx, 7, OpKind::Write)).len()
                })
            })
            .collect();
        let caught = trap.sleep(Duration::from_millis(500));
        for h in hitters {
            assert_eq!(
                h.join().expect("no panic"),
                1,
                "every concurrent hitter reports the collision"
            );
        }
        assert!(caught, "the owner still wakes caught");
    }
}
