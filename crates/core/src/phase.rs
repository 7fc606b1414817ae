//! Concurrent-phase inference (§3.4.3).
//!
//! Synchronization such as forks, joins, barriers, and locks creates
//! sequential phases (initialization, clean-up, join-after-fork) in which a
//! TSVD point can never race. TSVD infers whether the program is currently
//! in a concurrent phase *without monitoring any synchronization*: it keeps a
//! global ring buffer of the contexts that executed the most recent TSVD
//! points, and calls the execution concurrent iff that buffer contains more
//! than one distinct context.
//!
//! The buffer sits on the `OnCall` hot path of every detector, so it is a
//! fixed array of atomic slots rather than a locked deque: no allocation, no
//! lock, no parking. Slots race benignly: an overlapping writer can only make
//! the window a little fresher or a little staler than a serialized one,
//! which is within the precision the heuristic needs.
//!
//! While the verdict is *sequential* every call visits the ring: one
//! `fetch_add` on the cursor, one store, a bounded scan. The ring's lines
//! stay in the lone thread's cache, and the call on which a second context
//! appears is the call that sees it. While it is *concurrent* the ring's
//! lines would change hands on every call of every thread, so a context
//! visits once per *burst* of `k = capacity / 2` calls: the visit that finds
//! another context's entry writes this context's next `k − 1` entries as
//! well — still one entry per TSVD point — and its following `k − 1` calls
//! answer "concurrent" from a thread-local cell. The price is paid in the
//! permissive direction only: a context learns that its partners have
//! stopped up to `k` of its own points late (it must first spend the entries
//! it has written), never that they have started. Prepaid entries belong to
//! one (ring, context) and are dropped, not carried, when the thread's next
//! call is for another.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::audit;
use crate::context::ContextId;

/// Slot value meaning "never written". Context ids are small dense counters,
/// so `u64::MAX` can never collide with a real context.
const EMPTY: u64 = u64::MAX;

/// Ring ids: a count, because a dropped ring's address is reused.
static NEXT_RING: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(ring id, context, entries written but not yet used)` of this
    /// thread's latest burst.
    static PREPAID: Cell<(u64, u64, usize)> = const { Cell::new((0, 0, 0)) };
}

/// Ring buffer of the contexts behind the most recent TSVD points.
pub struct PhaseBuffer {
    slots: Box<[AtomicU64]>,
    cursor: AtomicUsize,
    id: u64,
}

impl PhaseBuffer {
    /// Creates a buffer holding the last `capacity` TSVD points.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        PhaseBuffer {
            slots: (0..capacity).map(|_| AtomicU64::new(EMPTY)).collect(),
            cursor: AtomicUsize::new(0),
            id: NEXT_RING.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Records that `context` just executed a TSVD point and returns whether
    /// the execution is currently in a concurrent phase.
    pub fn record_and_check(&self, context: ContextId) -> bool {
        let (ring, owner, prepaid) = PREPAID.get();
        if prepaid > 0 && ring == self.id && owner == context.0 {
            PREPAID.set((ring, owner, prepaid - 1));
            return true;
        }
        audit::note_shared_write();
        self.write(context, 1);
        // This call's entry is in the ring, so two distinct contexts are
        // there iff some entry is another's.
        let concurrent = self.slots.iter().any(|slot| {
            let v = slot.load(Ordering::Relaxed);
            v != EMPTY && v != context.0
        });
        let ahead = if concurrent {
            self.slots.len() / 2 - 1
        } else {
            0
        };
        if ahead > 0 {
            self.write(context, ahead);
        }
        if ahead > 0 || prepaid > 0 {
            PREPAID.set((self.id, context.0, ahead));
        }
        concurrent
    }

    /// Claims the next `n` slots and stores `context` in each.
    fn write(&self, context: ContextId, n: usize) {
        let len = self.slots.len();
        let mut at = self.cursor.fetch_add(n, Ordering::Relaxed) % len;
        for _ in 0..n {
            self.slots[at].store(context.0, Ordering::Relaxed);
            at = if at + 1 == len { 0 } else { at + 1 };
        }
    }

    /// Returns whether the buffer currently indicates a concurrent phase,
    /// without recording anything.
    pub fn is_concurrent(&self) -> bool {
        let mut first = EMPTY;
        for slot in self.slots.iter() {
            let v = slot.load(Ordering::Relaxed);
            if v == EMPTY {
                continue;
            }
            if first == EMPTY {
                first = v;
            } else if v != first {
                return true;
            }
        }
        false
    }

    /// Number of slots written so far (bounded by the capacity).
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) != EMPTY)
            .count()
    }

    /// Returns `true` if no TSVD point has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buffer_is_sequential() {
        let b = PhaseBuffer::new(4);
        assert!(!b.is_concurrent());
    }

    #[test]
    fn single_context_is_sequential() {
        let b = PhaseBuffer::new(4);
        for _ in 0..10 {
            assert!(!b.record_and_check(ContextId(1)));
        }
    }

    #[test]
    fn two_contexts_are_concurrent() {
        let b = PhaseBuffer::new(4);
        b.record_and_check(ContextId(1));
        assert!(b.record_and_check(ContextId(2)));
        assert!(b.is_concurrent());
    }

    #[test]
    fn old_context_scrolls_out() {
        // A burst from one context flushes the other out of the window: the
        // execution has gone sequential again (e.g. after a join).
        let b = PhaseBuffer::new(4);
        b.record_and_check(ContextId(1));
        b.record_and_check(ContextId(2));
        for _ in 0..3 {
            b.record_and_check(ContextId(2));
        }
        assert!(
            !b.is_concurrent(),
            "context 1 should have scrolled out of the 4-entry window"
        );
    }

    #[test]
    fn capacity_bounds_memory() {
        let b = PhaseBuffer::new(8);
        for i in 0..100 {
            b.record_and_check(ContextId(i % 2));
        }
        assert!(b.len() <= 8);
    }

    #[test]
    fn minimum_capacity_is_two() {
        // A buffer of one could never see two contexts; the constructor
        // clamps so phase detection stays meaningful.
        let b = PhaseBuffer::new(0);
        b.record_and_check(ContextId(1));
        assert!(b.record_and_check(ContextId(2)));
    }

    /// Ring entries per context, as `(context, count)` sorted by context.
    fn holdings(b: &PhaseBuffer) -> Vec<(u64, usize)> {
        let mut held: Vec<u64> = b
            .slots
            .iter()
            .map(|slot| slot.load(Ordering::Relaxed))
            .filter(|&v| v != EMPTY)
            .collect();
        held.sort_unstable();
        held.chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len()))
            .collect()
    }

    fn cursor(b: &PhaseBuffer) -> usize {
        b.cursor.load(Ordering::Relaxed)
    }

    #[test]
    fn alone_every_call_visits_the_ring_and_reads_sequential() {
        let b = PhaseBuffer::new(16);
        for n in 1..=40 {
            assert!(!b.record_and_check(ContextId(1)));
            assert_eq!(cursor(&b), n, "one entry per call");
        }
        assert_eq!(holdings(&b), vec![(1, 16)]);
    }

    #[test]
    fn a_second_context_is_seen_at_once_then_both_leave_the_ring_alone() {
        const K: usize = 8;
        let b = PhaseBuffer::new(2 * K);
        let (a, partner) = (ContextId(1), ContextId(2));
        for _ in 0..3 {
            assert!(!b.record_and_check(a));
        }
        // The partner runs on a thread of its own, as contexts do.
        std::thread::scope(|scope| {
            let burst = scope.spawn(|| {
                assert!(b.record_and_check(partner), "seen on that very call");
                assert_eq!(cursor(&b), 3 + K, "K entries in one visit");
                for _ in 0..K - 1 {
                    assert!(b.record_and_check(partner));
                }
                assert_eq!(cursor(&b), 3 + K, "K - 1 calls without a ring write");
            });
            burst.join().expect("no panic");
        });
        assert!(
            b.record_and_check(a),
            "and by the first context's next call"
        );
        assert_eq!(cursor(&b), 3 + 2 * K);
        assert_eq!(holdings(&b), vec![(1, K), (2, K)]);
        for _ in 0..K - 1 {
            assert!(b.record_and_check(a));
        }
        assert_eq!(cursor(&b), 3 + 2 * K);
        // The partner has stopped. The survivor's next visit still finds
        // its entries and overwrites them; the one after reads sequential:
        // 2K calls since it first saw the partner.
        for _ in 0..K {
            assert!(b.record_and_check(a), "late, in the permissive direction");
        }
        assert_eq!(holdings(&b), vec![(1, 2 * K)]);
        assert!(!b.record_and_check(a));
        assert!(!b.record_and_check(a), "and from here on every call visits");
        assert_eq!(cursor(&b), 3 + 3 * K + 2);
    }

    #[test]
    fn a_survivor_reads_sequential_at_most_a_burst_late() {
        // Wherever the cursor stood and whatever the survivor had prepaid
        // when its partner wrote its last burst: per-call recording reads
        // sequential on the survivor's call 2K, the burst rule on some call
        // from 2K to 3K — later only, never earlier.
        let partner_calls = |b: &PhaseBuffer| {
            std::thread::scope(|scope| {
                scope.spawn(|| b.record_and_check(ContextId(2)));
            });
        };
        for k in [1usize, 2, 8, 32] {
            for (lead, prepaid) in (0..2 * k).flat_map(|l| (0..k).map(move |p| (l, p))) {
                let b = PhaseBuffer::new(2 * k);
                for _ in 0..lead {
                    b.record_and_check(ContextId(1));
                }
                partner_calls(&b);
                for _ in 0..k - prepaid {
                    assert!(b.record_and_check(ContextId(1)));
                }
                partner_calls(&b);
                let calls = (1..).find(|_| !b.record_and_check(ContextId(1)));
                let calls = calls.expect("unbounded");
                assert!(
                    (2 * k..=3 * k).contains(&calls),
                    "k {k}, lead {lead}, prepaid {prepaid}: sequential on call {calls}"
                );
            }
        }
    }

    #[test]
    fn prepaid_entries_never_carry_to_another_ring_or_context() {
        let (busy, quiet) = (PhaseBuffer::new(16), PhaseBuffer::new(16));
        std::thread::scope(|scope| {
            scope.spawn(|| busy.record_and_check(ContextId(2)));
        });
        assert!(busy.record_and_check(ContextId(1)), "7 entries prepaid");
        // Two runtimes on one thread: the other ring is visited on its own
        // account, and is sequential.
        assert!(!quiet.record_and_check(ContextId(1)));
        assert_eq!(cursor(&quiet), 1);
        assert_eq!(holdings(&quiet), vec![(1, 1)]);
        // Two task contexts on one pool thread: the second pays its own way.
        assert!(busy.record_and_check(ContextId(1)));
        let at = cursor(&busy);
        assert!(busy.record_and_check(ContextId(3)));
        assert_eq!(cursor(&busy), at + 8);
        // A ring built after another was dropped is not mistaken for it.
        let first = PhaseBuffer::new(16).id;
        assert_ne!(PhaseBuffer::new(16).id, first);
    }

    #[test]
    fn context_zero_is_a_real_context() {
        // The empty sentinel is u64::MAX, not 0: the first context id must
        // count as an occupant, not an empty slot.
        let b = PhaseBuffer::new(4);
        assert!(!b.record_and_check(ContextId(0)));
        assert_eq!(b.len(), 1);
        assert!(b.record_and_check(ContextId(1)));
    }
}
