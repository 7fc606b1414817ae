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
//! A task's first access has no previous access of its own; its `t0` is
//! when the task started on the thread that runs it
//! ([`context::started_ns`]), so a task that waited on its worker through a
//! sibling's delay before its first access is blocked by that delay like
//! any other gap. A context with no start stamp (an OS thread's default)
//! has no `t0` for its first access, and infers nothing from it.
//!
//! This engine keeps only the timing: it names the pair an access is
//! attributed to, and the edge itself is a fact of the pair's record in
//! the [pair table](crate::trapset). Inferred edges outlive the run there:
//! the trap file carries them (§3.4.6), and the next run imports them as
//! *carried* edges, which keep their pairs out of the trap set from the
//! first near miss on. A carried edge inferred again becomes this run's, as
//! if it were new, so a pair the trap file also arms is pruned exactly when
//! it was before.
//!
//! `on_access` runs on every instrumented call, so there is no global lock:
//! per-context state is lock-striped by context, each stripe on a cache
//! line of its own so that neighbouring contexts' calls share nothing, and
//! the delay history is read-mostly, mirrored by an atomic count so the
//! common call — a short gap, or no delay finished yet — does not touch
//! it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::RwLock;

use crate::audit;
use crate::chunks::{IdMap, Stripe};
use crate::context::{self, ContextId};
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

/// Where an inferred HB edge came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inference {
    /// Inferred in this run.
    Run,
    /// Carried in by the previous run's trap file, not inferred again yet.
    Carried,
}

#[derive(Debug, Default)]
struct ThreadState {
    /// Timestamp of this context's previous access (`t0`), if any; before
    /// its first access, its start stamp, if it is a task.
    last_access_ns: Option<u64>,
    /// Transitivity budget: source site and remaining accesses that inherit
    /// the happens-after edge.
    pending_source: Option<(SiteId, usize)>,
}

/// Happens-before inference engine.
pub struct HbInference {
    threads: Box<[Stripe<IdMap<ContextId, ThreadState>>]>,
    delays: RwLock<VecDeque<DelayRecord>>,
    /// `delays`' length, readable without its lock.
    delay_count: AtomicUsize,
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
            delay_count: AtomicUsize::new(0),
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
    /// the pair it is attributed to: the access happens after the delayed
    /// location, so the pair is HB-ordered. Every attributed access returns
    /// its pair, a repeat included. Called on `context`'s own thread, where
    /// the start stamp of its first access is read.
    pub fn on_access(&self, context: ContextId, site: SiteId, now_ns: u64) -> Option<SitePair> {
        audit::note_lock();
        let mut threads = self.threads[context.0 as usize % STRIPES].lock();
        let state = threads.entry(context).or_insert_with(|| ThreadState {
            last_access_ns: context::started_ns(context),
            pending_source: None,
        });
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
        source.map(|src| SitePair::new(src, site))
    }

    /// Bytes held (for the §5.5 resource report): one state per context ever
    /// seen — none is ever removed — and the retained delay records.
    pub fn approx_bytes(&self) -> usize {
        let states: usize = self.threads.iter().map(|s| s.lock().capacity()).sum();
        states * std::mem::size_of::<(ContextId, ThreadState)>()
            + self.delays.read().capacity() * std::mem::size_of::<DelayRecord>()
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
        assert!(e.on_access(t2, site(20), ms_to_ns(10)).is_none());
        // Thd1 delays at loc1 from 20 ms to 120 ms.
        e.record_delay(DelayRecord {
            site: site(1),
            context: t1,
            start_ns: ms_to_ns(20),
            end_ns: ms_to_ns(120),
        });
        // Thd2's next access at 130 ms: gap 120 ms ≥ 50 ms, t0 ≤ t1_end.
        let pair = e.on_access(t2, site(21), ms_to_ns(130));
        assert_eq!(pair, Some(SitePair::new(site(1), site(21))));
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
        assert!(e.on_access(t2, site(21), ms_to_ns(35)).is_none());
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
        assert!(e.on_access(t2, site(21), ms_to_ns(200)).is_none());
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
        assert!(e.on_access(t1, site(11), ms_to_ns(104)).is_none());
        assert!(e.on_access(t2, site(21), ms_to_ns(105)).is_none());
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
        assert!(e.on_access(t1, site(21), ms_to_ns(130)).is_none());
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
        assert!(e.on_access(ContextId(2), site(21), ms_to_ns(110)).is_none());
    }

    /// Runs `first_access` as a task entered on this thread, handing it
    /// the task's context and start stamp. The stamp is real time, so the
    /// records a test makes are placed relative to it, and the contexts
    /// they name are fresh ids: a literal one may be the task's.
    fn as_started_task<R>(first_access: impl FnOnce(ContextId, u64) -> R) -> R {
        let task = context::fresh_id();
        let _g = context::enter(task, Some(context::SpawnCertificate::draw()));
        first_access(task, context::started_ns(task).expect("stamped"))
    }

    #[test]
    fn first_gap_from_a_tasks_start_that_spans_a_delay_infers_the_edge() {
        let e = engine();
        let pairs = as_started_task(|task, started| {
            // A sibling delays while the task sits on its worker, and the
            // task's first access comes after the delay ends.
            e.record_delay(DelayRecord {
                site: site(1),
                context: context::fresh_id(),
                start_ns: started + ms_to_ns(5),
                end_ns: started + ms_to_ns(105),
            });
            e.on_access(task, site(21), started + ms_to_ns(110))
        });
        assert_eq!(pairs, Some(SitePair::new(site(1), site(21))));
    }

    #[test]
    fn first_gap_of_a_task_started_after_the_delay_infers_nothing() {
        let e = engine();
        // The delay ends before the task starts: queue wait behind it, had
        // the origin been the spawn, would read as a causal gap.
        e.record_delay(DelayRecord {
            site: site(1),
            context: context::fresh_id(),
            start_ns: 0,
            end_ns: crate::clock::now_ns(),
        });
        crate::clock::pause(std::time::Duration::from_millis(1));
        let pairs =
            as_started_task(|task, started| e.on_access(task, site(21), started + ms_to_ns(110)));
        assert!(pairs.is_none(), "{pairs:?}");
    }

    #[test]
    fn first_gap_of_a_plain_thread_context_is_unchanged() {
        let e = engine();
        let plain = context::fresh_id();
        let _g = context::enter(plain, None);
        e.record_delay(DelayRecord {
            site: site(1),
            context: context::fresh_id(),
            start_ns: 0,
            end_ns: ms_to_ns(100),
        });
        // Entered without a certificate: no start stamp, no first gap.
        assert!(e.on_access(plain, site(21), ms_to_ns(110)).is_none());
        // Nor does the stamp of the task installed on its thread lend a
        // context one.
        let other = context::fresh_id();
        let pairs =
            as_started_task(|_, started| e.on_access(other, site(22), started + ms_to_ns(500)));
        assert!(pairs.is_none(), "{pairs:?}");
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
        assert_eq!(pairs, Some(SitePair::new(site(2), site(21))));
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
        assert!(p0.is_some());
        // ...and the next k_hb = 2 accesses do as well.
        let p1 = e.on_access(t2, site(22), ms_to_ns(131));
        assert_eq!(p1, Some(SitePair::new(site(1), site(22))));
        let p2 = e.on_access(t2, site(23), ms_to_ns(132));
        assert_eq!(p2, Some(SitePair::new(site(1), site(23))));
        // The budget is then exhausted.
        let p3 = e.on_access(t2, site(24), ms_to_ns(133));
        assert!(p3.is_none());
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
        assert!(e.on_access(t2, site(21), ms_to_ns(130)).is_some());
        assert!(e.on_access(t2, site(22), ms_to_ns(131)).is_none());
    }

    #[test]
    fn a_repeated_attribution_names_its_pair_again() {
        // Zero transitivity so leftover k_hb budget from one round cannot
        // attribute extra accesses in the next. Whether the edge is new is
        // the pair table's to say.
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
            let pair = e.on_access(t2, site(21), ms_to_ns(base + 130));
            assert_eq!(
                pair,
                Some(SitePair::new(site(1), site(21))),
                "round {round}"
            );
        }
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
            Some(SitePair::new(site(1), site(21)))
        );
        assert!(e.on_access(t18, site(31), ms_to_ns(131)).is_none());
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
