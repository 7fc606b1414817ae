//! Happens-before inference from delay propagation (§3.4.4).
//!
//! The crucial observation: if `loc1` happens-before `loc2`, a delay injected
//! right before `loc1` *causes* a proportional delay of `loc2` — e.g. when
//! both are protected by one lock, the delayed thread holds the lock, so the
//! other thread blocks. TSVD therefore watches each thread's access stream
//! for unusually long gaps that overlap an injected delay, and infers a
//! likely HB edge from the delayed location to the blocked location — with no
//! synchronization modeling at all.
//!
//! Concretely (Fig. 6): a delay `d` at `loc1` spans `[t1_start, t1_end]`. A
//! later access at `loc2` by a different thread `Thd2` at time `t2`, whose
//! previous access was at `t0`, yields an inferred edge `loc1 → loc2` iff
//!
//! 1. `t2 − t0 ≥ δ_hb · delay_time` (the gap is long), and
//! 2. `t0 ≤ t1_end` and `t1_start ≤ t2` (the gap overlaps the delay).
//!
//! If several delays qualify, the edge is attributed to the most recently
//! finished one. By transitivity, the next `k_hb` accesses of `Thd2` are also
//! treated as happening after `loc1`.
//!
//! `on_access` runs on every instrumented call, so there is no global lock:
//! per-context state is lock-striped by context, each stripe on a cache
//! line of its own so that neighbouring contexts' calls share nothing, and
//! the delay history and inferred-edge set are read-mostly, each mirrored by
//! an atomic count so the common call — a short gap, or no delay finished
//! yet — and `is_inferred` on an empty set touch neither.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::RwLock;

use crate::audit;
use crate::chunks::{IdMap, IdSet, Stripe};
use crate::context::ContextId;
use crate::near_miss::SitePair;
use crate::site::SiteId;

/// Lock stripes over the per-context state.
const STRIPES: usize = 16;

/// A finished delay injection, kept for causality attribution.
#[derive(Debug, Clone, Copy)]
pub struct DelayRecord {
    /// Location the delay was injected at.
    pub site: SiteId,
    /// Context that slept.
    pub context: ContextId,
    /// When the delay began, nanoseconds.
    pub start_ns: u64,
    /// When the delay ended, nanoseconds.
    pub end_ns: u64,
}

#[derive(Debug, Default)]
struct ThreadState {
    /// Timestamp of this context's previous access (`t0`), if any.
    last_access_ns: Option<u64>,
    /// Transitivity budget: source site and remaining accesses that inherit
    /// the happens-after edge.
    pending_source: Option<(SiteId, usize)>,
}

/// Happens-before inference engine.
pub struct HbInference {
    threads: Box<[Stripe<IdMap<ContextId, ThreadState>>]>,
    delays: RwLock<VecDeque<DelayRecord>>,
    /// All edges inferred so far, as normalized pairs. A pair in this set is
    /// never re-added to the trap set.
    inferred: RwLock<IdSet<SitePair>>,
    /// Lengths of `delays` and `inferred`, readable without their locks.
    delay_count: AtomicUsize,
    inferred_count: AtomicUsize,
    /// `δ_hb · delay_time` in nanoseconds.
    gap_ns: u64,
    /// `k_hb`.
    transitivity: usize,
    /// Bound on retained delay records.
    delay_history: usize,
}

impl HbInference {
    /// Creates an engine with the given blocking gap (`δ_hb · delay_time`),
    /// transitivity window `k_hb`, and delay-record retention.
    pub fn new(gap_ns: u64, transitivity: usize, delay_history: usize) -> Self {
        HbInference {
            threads: (0..STRIPES).map(|_| Stripe::default()).collect(),
            delays: RwLock::default(),
            inferred: RwLock::default(),
            delay_count: AtomicUsize::new(0),
            inferred_count: AtomicUsize::new(0),
            gap_ns,
            transitivity,
            delay_history: delay_history.max(1),
        }
    }

    /// Records a finished delay so later long gaps can be attributed to it.
    ///
    /// The delaying thread's own "last access" is advanced to the delay's
    /// end: the sleep opens a gap in that thread's access stream which must
    /// not be mistaken for blocking caused by *someone else's* overlapping
    /// delay — otherwise two simultaneously trapped threads would infer a
    /// bogus HB edge between their racy locations and prune the real pair.
    pub fn record_delay(&self, delay: DelayRecord) {
        {
            audit::note_lock();
            let mut threads = self.threads[delay.context.0 as usize % STRIPES].lock();
            let state = threads.entry(delay.context).or_default();
            state.last_access_ns = Some(state.last_access_ns.unwrap_or(0).max(delay.end_ns));
        }
        audit::note_lock();
        let mut delays = self.delays.write();
        delays.push_back(delay);
        while delays.len() > self.delay_history {
            delays.pop_front();
        }
        audit::note_shared_write();
        self.delay_count.store(delays.len(), Ordering::Release);
    }

    /// Observes an access by `context` at `site` at time `now_ns`, returning
    /// the site pairs newly inferred to be HB-ordered (and therefore to be
    /// pruned from the trap set).
    pub fn on_access(&self, context: ContextId, site: SiteId, now_ns: u64) -> Vec<SitePair> {
        audit::note_lock();
        let mut threads = self.threads[context.0 as usize % STRIPES].lock();
        let state = threads.entry(context).or_default();
        let last = state.last_access_ns.replace(now_ns);

        // Transitivity: this access inherits a previously inferred source.
        let mut source = None;
        if let Some((src, remaining)) = state.pending_source {
            source = Some(src);
            state.pending_source = (remaining > 1).then_some((src, remaining - 1));
        }

        // Fresh inference: long gap overlapping a finished delay by another
        // context.
        if let Some(t0) = last {
            if self.gap_ns > 0
                && now_ns.saturating_sub(t0) >= self.gap_ns
                && self.delay_count.load(Ordering::Acquire) > 0
            {
                audit::note_lock();
                // Attribute to the most recently *finished* qualifying delay.
                let hit = self
                    .delays
                    .read()
                    .iter()
                    .filter(|d| d.context != context)
                    .filter(|d| t0 <= d.end_ns && d.start_ns <= now_ns)
                    .max_by_key(|d| d.end_ns)
                    .map(|d| d.site);
                if let Some(src) = hit {
                    source = Some(src);
                    if self.transitivity > 0 {
                        state.pending_source = Some((src, self.transitivity));
                    }
                }
            }
        }
        drop(threads);

        let Some(src) = source else {
            return Vec::new();
        };
        let pair = SitePair::new(src, site);
        audit::note_lock();
        let mut inferred = self.inferred.write();
        if !inferred.insert(pair) {
            return Vec::new();
        }
        audit::note_shared_write();
        self.inferred_count.store(inferred.len(), Ordering::Release);
        vec![pair]
    }

    /// Returns `true` if `pair` has been inferred HB-ordered.
    pub fn is_inferred(&self, pair: SitePair) -> bool {
        if self.inferred_count.load(Ordering::Acquire) == 0 {
            return false;
        }
        audit::note_lock();
        self.inferred.read().contains(&pair)
    }

    /// Total number of inferred edges (stats).
    pub fn inferred_count(&self) -> usize {
        self.inferred_count.load(Ordering::Acquire)
    }

    /// Bytes held (for the §5.5 resource report): one state per context ever
    /// seen — none is ever removed — the retained delay records, the edges.
    pub fn approx_bytes(&self) -> usize {
        let states: usize = self.threads.iter().map(|s| s.lock().capacity()).sum();
        states * std::mem::size_of::<(ContextId, ThreadState)>()
            + self.delays.read().capacity() * std::mem::size_of::<DelayRecord>()
            + self.inferred.read().capacity() * std::mem::size_of::<SitePair>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ms_to_ns;
    use crate::site::SiteData;

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "hb_infer_test.rs",
            line: n,
            column: 1,
        })
    }

    /// Gap threshold 50 ms (δ_hb = 0.5 of a 100 ms delay), k_hb = 2.
    fn engine() -> HbInference {
        HbInference::new(ms_to_ns(50), 2, 64)
    }

    #[test]
    fn long_gap_overlapping_delay_infers_edge() {
        let e = engine();
        let t1 = ContextId(1);
        let t2 = ContextId(2);
        // Thd2 establishes its previous access at t0 = 10 ms.
        assert!(e.on_access(t2, site(20), ms_to_ns(10)).is_empty());
        // Thd1 delays at loc1 from 20 ms to 120 ms.
        e.record_delay(DelayRecord {
            site: site(1),
            context: t1,
            start_ns: ms_to_ns(20),
            end_ns: ms_to_ns(120),
        });
        // Thd2's next access at 130 ms: gap 120 ms ≥ 50 ms, t0 ≤ t1_end.
        let pairs = e.on_access(t2, site(21), ms_to_ns(130));
        assert_eq!(pairs, vec![SitePair::new(site(1), site(21))]);
        assert!(e.is_inferred(SitePair::new(site(1), site(21))));
    }

    #[test]
    fn short_gap_infers_nothing() {
        let e = engine();
        let t2 = ContextId(2);
        e.on_access(t2, site(20), ms_to_ns(10));
        e.record_delay(DelayRecord {
            site: site(1),
            context: ContextId(1),
            start_ns: ms_to_ns(5),
            end_ns: ms_to_ns(30),
        });
        // Gap of 25 ms < 50 ms threshold.
        assert!(e.on_access(t2, site(21), ms_to_ns(35)).is_empty());
    }

    #[test]
    fn gap_not_overlapping_delay_infers_nothing() {
        let e = engine();
        let t2 = ContextId(2);
        // Delay finished entirely before Thd2's previous access.
        e.record_delay(DelayRecord {
            site: site(1),
            context: ContextId(1),
            start_ns: 0,
            end_ns: ms_to_ns(5),
        });
        e.on_access(t2, site(20), ms_to_ns(10));
        assert!(e.on_access(t2, site(21), ms_to_ns(200)).is_empty());
    }

    #[test]
    fn self_inflicted_gap_is_not_causality() {
        // Two threads trapped simultaneously: each thread's post-sleep gap
        // is its *own* delay, not evidence of blocking by the other's.
        let e = engine();
        let (t1, t2) = (ContextId(1), ContextId(2));
        e.on_access(t1, site(10), ms_to_ns(1));
        e.on_access(t2, site(20), ms_to_ns(2));
        // Both delay 0–100 ms (overlapping).
        e.record_delay(DelayRecord {
            site: site(10),
            context: t1,
            start_ns: ms_to_ns(3),
            end_ns: ms_to_ns(103),
        });
        e.record_delay(DelayRecord {
            site: site(20),
            context: t2,
            start_ns: ms_to_ns(4),
            end_ns: ms_to_ns(104),
        });
        // Each thread's next access right after its own sleep: the gap is
        // self-inflicted and must not mint an HB edge.
        assert!(e.on_access(t1, site(11), ms_to_ns(104)).is_empty());
        assert!(e.on_access(t2, site(21), ms_to_ns(105)).is_empty());
    }

    #[test]
    fn own_delay_is_not_causality() {
        // A thread's own delay trivially lengthens its gap; it must not be
        // attributed as an HB edge from itself.
        let e = engine();
        let t1 = ContextId(1);
        e.on_access(t1, site(20), ms_to_ns(10));
        e.record_delay(DelayRecord {
            site: site(1),
            context: t1,
            start_ns: ms_to_ns(20),
            end_ns: ms_to_ns(120),
        });
        assert!(e.on_access(t1, site(21), ms_to_ns(130)).is_empty());
    }

    #[test]
    fn first_access_has_no_gap() {
        let e = engine();
        e.record_delay(DelayRecord {
            site: site(1),
            context: ContextId(1),
            start_ns: 0,
            end_ns: ms_to_ns(100),
        });
        // No previous access for Thd2 → no gap → no inference.
        assert!(e
            .on_access(ContextId(2), site(21), ms_to_ns(110))
            .is_empty());
    }

    #[test]
    fn attribution_picks_most_recently_finished_delay() {
        let e = engine();
        let t2 = ContextId(2);
        e.on_access(t2, site(20), ms_to_ns(10));
        e.record_delay(DelayRecord {
            site: site(1),
            context: ContextId(1),
            start_ns: ms_to_ns(15),
            end_ns: ms_to_ns(60),
        });
        e.record_delay(DelayRecord {
            site: site(2),
            context: ContextId(3),
            start_ns: ms_to_ns(20),
            end_ns: ms_to_ns(110),
        });
        let pairs = e.on_access(t2, site(21), ms_to_ns(120));
        assert_eq!(pairs, vec![SitePair::new(site(2), site(21))]);
    }

    #[test]
    fn transitivity_extends_k_accesses() {
        let e = engine(); // k_hb = 2
        let t2 = ContextId(2);
        e.on_access(t2, site(20), ms_to_ns(10));
        e.record_delay(DelayRecord {
            site: site(1),
            context: ContextId(1),
            start_ns: ms_to_ns(20),
            end_ns: ms_to_ns(120),
        });
        // Triggering access inherits the edge...
        let p0 = e.on_access(t2, site(21), ms_to_ns(130));
        assert_eq!(p0.len(), 1);
        // ...and the next k_hb = 2 accesses do as well.
        let p1 = e.on_access(t2, site(22), ms_to_ns(131));
        assert_eq!(p1, vec![SitePair::new(site(1), site(22))]);
        let p2 = e.on_access(t2, site(23), ms_to_ns(132));
        assert_eq!(p2, vec![SitePair::new(site(1), site(23))]);
        // The budget is then exhausted.
        let p3 = e.on_access(t2, site(24), ms_to_ns(133));
        assert!(p3.is_empty());
    }

    #[test]
    fn zero_transitivity_only_marks_trigger() {
        let e = HbInference::new(ms_to_ns(50), 0, 64);
        let t2 = ContextId(2);
        e.on_access(t2, site(20), ms_to_ns(10));
        e.record_delay(DelayRecord {
            site: site(1),
            context: ContextId(1),
            start_ns: ms_to_ns(20),
            end_ns: ms_to_ns(120),
        });
        assert_eq!(e.on_access(t2, site(21), ms_to_ns(130)).len(), 1);
        assert!(e.on_access(t2, site(22), ms_to_ns(131)).is_empty());
    }

    #[test]
    fn duplicate_edges_reported_once() {
        // Zero transitivity so leftover k_hb budget from one round cannot
        // mint extra edges in the next.
        let e = HbInference::new(ms_to_ns(50), 0, 64);
        let t2 = ContextId(2);
        for round in 0..3u64 {
            let base = round * 1_000;
            e.on_access(t2, site(20), ms_to_ns(base + 10));
            e.record_delay(DelayRecord {
                site: site(1),
                context: ContextId(1),
                start_ns: ms_to_ns(base + 20),
                end_ns: ms_to_ns(base + 120),
            });
            let pairs = e.on_access(t2, site(21), ms_to_ns(base + 130));
            if round == 0 {
                assert_eq!(pairs.len(), 1);
            } else {
                assert!(pairs.is_empty(), "edge already known");
            }
        }
        assert_eq!(e.inferred_count(), 1);
    }

    #[test]
    fn contexts_sharing_a_stripe_keep_separate_state() {
        let e = engine();
        let (t2, t18) = (ContextId(2), ContextId(2 + STRIPES as u64));
        e.on_access(t2, site(20), ms_to_ns(10));
        e.record_delay(DelayRecord {
            site: site(1),
            context: ContextId(1),
            start_ns: ms_to_ns(20),
            end_ns: ms_to_ns(120),
        });
        e.on_access(t18, site(30), ms_to_ns(125));
        // Same stripe, different contexts: one was blocked across the
        // delay, the other's previous access came after it ended.
        assert_eq!(
            e.on_access(t2, site(21), ms_to_ns(130)),
            vec![SitePair::new(site(1), site(21))]
        );
        assert!(e.on_access(t18, site(31), ms_to_ns(131)).is_empty());
        assert_eq!(e.inferred_count(), 1);
    }

    #[test]
    fn stripes_are_whole_lines_and_held_bytes_grow_with_contexts() {
        let e = engine();
        let stripe = std::mem::size_of_val(&e.threads[0]);
        assert_eq!(stripe % 64, 0);
        assert_eq!(std::mem::align_of_val(&e.threads[0]) % 64, 0);
        assert_eq!(e.approx_bytes(), 0, "nothing seen, nothing held");
        // Nothing ever removes a context's state: the report must show it.
        let mut last = 0;
        for round in 1..=4u64 {
            for ctx in 0..100 {
                e.on_access(ContextId(round * 1_000 + ctx), site(20), ms_to_ns(1));
            }
            let held = e.approx_bytes();
            let floor = 100 * round as usize * std::mem::size_of::<ThreadState>();
            assert!(held >= last.max(floor), "{held} after round {round}");
            last = held;
        }
        e.record_delay(DelayRecord {
            site: site(1),
            context: ContextId(1),
            start_ns: 0,
            end_ns: 1,
        });
        assert!(e.approx_bytes() >= last + std::mem::size_of::<DelayRecord>());
    }

    #[test]
    fn delay_history_is_bounded() {
        let e = HbInference::new(ms_to_ns(50), 2, 4);
        for i in 0..100 {
            e.record_delay(DelayRecord {
                site: site(1),
                context: ContextId(1),
                start_ns: i,
                end_ns: i + 1,
            });
        }
        assert!(e.delays.read().len() <= 4);
    }
}
