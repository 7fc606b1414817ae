//! Near-miss tracking (§3.4.2).
//!
//! TSVD keeps, per object, a short history of recent accesses. An incoming
//! access that conflicts with a history entry from a different context within
//! the physical window `T_nm` is a *near miss*: the pair of static program
//! locations involved becomes a dangerous-pair candidate that delay injection
//! will later try to convert into a real, caught violation.
//!
//! The tracker is written to on every instrumented access, so the object is
//! the unit of locking: a table of cache-line-sized slots, one object per
//! slot, each behind its own small mutex. A call on an object no other
//! thread calls therefore writes no line another thread writes. The table is
//! direct-mapped by the low bits of the object id. Ids are a dense
//! process-wide counter, so objects created together sit in neighbouring
//! slots of the same lazily allocated chunks, and live objects cannot
//! collide until the counter has wrapped the table; hashing the id would
//! scatter a module's twenty objects over twenty chunks. That is also the
//! memory bound: a newcomer whose slot is held by another object takes it
//! over, unless the resident has been accessed since it was last challenged
//! (its second chance), so churn through one slot never wipes a hot object's
//! history, nor any other slot's.

use std::collections::VecDeque;

use crate::access::{Access, ObjId, OpKind};
use crate::chunks::{ChunkTable, Stripe};
use crate::context::ContextId;
use crate::site::SiteId;

/// An unordered pair of static program locations.
///
/// This is the paper's unit of bug identity and of trap-set membership: the
/// pair is normalized so `{a, b}` and `{b, a}` compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SitePair {
    /// The smaller site of the pair.
    pub first: SiteId,
    /// The larger site of the pair (may equal `first`: 34 % of the paper's
    /// bugs are two threads executing the *same* location).
    pub second: SiteId,
}

impl SitePair {
    /// Builds a normalized pair.
    pub fn new(a: SiteId, b: SiteId) -> SitePair {
        if a <= b {
            SitePair {
                first: a,
                second: b,
            }
        } else {
            SitePair {
                first: b,
                second: a,
            }
        }
    }

    /// Returns `true` if `site` is one of the endpoints.
    pub fn contains(&self, site: SiteId) -> bool {
        self.first == site || self.second == site
    }

    /// Returns the endpoint other than `site` (or `site` itself for a
    /// same-location pair).
    pub fn other(&self, site: SiteId) -> SiteId {
        if self.first == site {
            self.second
        } else {
            self.first
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct HistEntry {
    context: ContextId,
    site: SiteId,
    kind: OpKind,
    time_ns: u64,
}

#[derive(Default)]
struct ObjHistory {
    /// The object this slot tracks, if any.
    resident: Option<ObjId>,
    hist: VecDeque<HistEntry>,
    /// Second-chance bit: set when the resident is accessed again, cleared
    /// when a newcomer challenges it for the slot.
    hot: bool,
}

/// One object's history, locked on its own, alone on its cache line.
type Slot = Stripe<ObjHistory>;

/// Per-object bounded access history with near-miss extraction.
pub struct NearMissTracker {
    slots: ChunkTable<Slot>,
    /// Slots minus one: the bound on tracked objects, a power of two.
    mask: usize,
    /// `N_nm`: entries kept per object.
    history: usize,
    /// `T_nm` in nanoseconds; `None` disables windowing (Table 3 ablation).
    window_ns: Option<u64>,
}

impl NearMissTracker {
    /// Creates a tracker keeping `history` entries per object and treating
    /// conflicting accesses within `window_ns` as near misses. Passing
    /// `None` for `window_ns` disables the window (ablation mode): any two
    /// conflicting accesses in the retained history form a near miss.
    /// At most `max_objects`, rounded down to a power of two, are tracked.
    pub fn new(history: usize, window_ns: Option<u64>, max_objects: usize) -> Self {
        NearMissTracker {
            slots: ChunkTable::default(),
            mask: (1 << max_objects.clamp(1, 1 << 30).ilog2()) - 1,
            history: history.max(1),
            window_ns,
        }
    }

    /// [`NearMissTracker::new`]; `_shards` is ignored. The table had lock
    /// stripes once and `benchmark/` still names this constructor.
    pub fn with_shards(
        history: usize,
        window_ns: Option<u64>,
        max_objects: usize,
        _shards: usize,
    ) -> Self {
        Self::new(history, window_ns, max_objects)
    }

    /// Records `access` and returns the dangerous pairs it forms with
    /// retained history entries (deduplicated within this call). An access
    /// that loses its slot to a recently used resident goes unrecorded.
    pub fn record(&self, access: &Access) -> Vec<SitePair> {
        crate::audit::note_lock();
        let mut slot = self.slots.get(access.obj.0 as usize & self.mask).lock();
        let slot = &mut *slot;
        if slot.resident == Some(access.obj) {
            slot.hot = true;
        } else if std::mem::take(&mut slot.hot) {
            return Vec::new();
        } else {
            // Vacant, or the resident had its chance. The newcomer starts
            // cold, so one-shot objects never outlast a challenge.
            slot.resident = Some(access.obj);
            slot.hist.clear();
            slot.hist.reserve_exact(self.history);
        }

        let mut pairs = Vec::new();
        for prev in slot.hist.iter() {
            if prev.context == access.context {
                continue;
            }
            if !prev.kind.conflicts_with(access.kind) {
                continue;
            }
            if let Some(window) = self.window_ns {
                if access.time_ns.abs_diff(prev.time_ns) > window {
                    continue;
                }
            }
            let pair = SitePair::new(prev.site, access.site);
            if !pairs.contains(&pair) {
                pairs.push(pair);
            }
        }

        if slot.hist.len() == self.history {
            slot.hist.pop_front();
        }
        slot.hist.push_back(HistEntry {
            context: access.context,
            site: access.site,
            kind: access.kind,
            time_ns: access.time_ns,
        });
        pairs
    }

    /// Bytes held (for the §5.5 resource report): every allocated slot,
    /// resident or not, plus the histories' heap blocks.
    pub fn approx_bytes(&self) -> usize {
        let held = |(_, slot): (usize, &Slot)| {
            let entries = slot.lock().hist.capacity();
            std::mem::size_of::<Slot>() + entries * std::mem::size_of::<HistEntry>()
        };
        self.slots.allocated().map(held).sum()
    }

    /// Number of objects currently tracked.
    pub fn tracked_objects(&self) -> usize {
        let resident = |(_, slot): &(usize, &Slot)| slot.lock().resident.is_some();
        self.slots.allocated().filter(resident).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::{SiteData, SiteId};

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "near_miss_test.rs",
            line: n,
            column: 1,
        })
    }

    fn acc(ctx: u64, obj: u64, s: SiteId, kind: OpKind, t_ms: u64) -> Access {
        Access {
            context: ContextId(ctx),
            obj: ObjId(obj),
            site: s,
            op_name: "t.op",
            kind,
            time_ns: t_ms * 1_000_000,
        }
    }

    fn tracker() -> NearMissTracker {
        NearMissTracker::new(5, Some(WINDOW), 1024)
    }

    #[test]
    fn conflicting_accesses_within_window_pair_up() {
        let t = tracker();
        assert!(t.record(&acc(1, 7, site(1), OpKind::Write, 0)).is_empty());
        let pairs = t.record(&acc(2, 7, site(2), OpKind::Read, 50));
        assert_eq!(pairs, vec![SitePair::new(site(1), site(2))]);
    }

    #[test]
    fn outside_window_is_not_a_near_miss() {
        let t = tracker();
        t.record(&acc(1, 7, site(1), OpKind::Write, 0));
        let pairs = t.record(&acc(2, 7, site(2), OpKind::Write, 500));
        assert!(pairs.is_empty());
    }

    #[test]
    fn same_context_is_not_a_near_miss() {
        let t = tracker();
        t.record(&acc(1, 7, site(1), OpKind::Write, 0));
        assert!(t.record(&acc(1, 7, site(2), OpKind::Write, 1)).is_empty());
    }

    #[test]
    fn read_read_is_not_a_near_miss() {
        let t = tracker();
        t.record(&acc(1, 7, site(1), OpKind::Read, 0));
        assert!(t.record(&acc(2, 7, site(2), OpKind::Read, 1)).is_empty());
    }

    #[test]
    fn different_objects_do_not_pair() {
        let t = tracker();
        t.record(&acc(1, 7, site(1), OpKind::Write, 0));
        assert!(t.record(&acc(2, 8, site(2), OpKind::Write, 1)).is_empty());
    }

    #[test]
    fn same_site_pair_is_allowed() {
        // 34 % of the paper's bugs are two threads at one location.
        let t = tracker();
        t.record(&acc(1, 7, site(9), OpKind::Write, 0));
        let pairs = t.record(&acc(2, 7, site(9), OpKind::Write, 1));
        assert_eq!(pairs, vec![SitePair::new(site(9), site(9))]);
    }

    #[test]
    fn history_is_bounded() {
        let t = NearMissTracker::new(2, Some(100 * 1_000_000), 1024);
        t.record(&acc(1, 7, site(1), OpKind::Write, 0));
        t.record(&acc(1, 7, site(2), OpKind::Write, 1));
        t.record(&acc(1, 7, site(3), OpKind::Write, 2));
        // site(1) has been evicted (history = 2), so only 2 pairs form.
        let pairs = t.record(&acc(2, 7, site(4), OpKind::Write, 3));
        assert_eq!(pairs.len(), 2);
        assert!(!pairs.contains(&SitePair::new(site(1), site(4))));
    }

    #[test]
    fn windowless_mode_pairs_regardless_of_age() {
        let t = NearMissTracker::new(5, None, 1024);
        t.record(&acc(1, 7, site(1), OpKind::Write, 0));
        let pairs = t.record(&acc(2, 7, site(2), OpKind::Write, 60_000));
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn multiple_history_hits_dedup_within_call() {
        let t = tracker();
        t.record(&acc(1, 7, site(1), OpKind::Write, 0));
        t.record(&acc(1, 7, site(1), OpKind::Write, 1));
        let pairs = t.record(&acc(2, 7, site(2), OpKind::Write, 2));
        assert_eq!(pairs.len(), 1, "same pair reported once per call");
    }

    const WINDOW: u64 = 100 * 1_000_000;

    /// The tracker's contract, as plainly as it can be written: an
    /// unbounded list of per-object histories with the same history bound
    /// and window.
    #[derive(Default)]
    struct Model(Vec<(ObjId, Vec<Access>)>);

    impl Model {
        fn record(&mut self, access: &Access, history: usize) -> Vec<SitePair> {
            let at = match self.0.iter().position(|(obj, _)| *obj == access.obj) {
                Some(at) => at,
                None => {
                    self.0.push((access.obj, Vec::new()));
                    self.0.len() - 1
                }
            };
            let hist = &mut self.0[at].1;
            let mut pairs = Vec::new();
            for prev in hist.iter() {
                let pair = SitePair::new(prev.site, access.site);
                if prev.context != access.context
                    && prev.kind.conflicts_with(access.kind)
                    && access.time_ns.abs_diff(prev.time_ns) <= WINDOW
                    && !pairs.contains(&pair)
                {
                    pairs.push(pair);
                }
            }
            hist.push(*access);
            if hist.len() > history {
                hist.remove(0);
            }
            pairs
        }
    }

    /// `n` seeded accesses over objects `first .. first + objects`: three
    /// contexts, eight sites, a third writes, time advancing 0.2 ms a step
    /// on average (an object's retained accesses fall on both sides of the
    /// 100 ms window) and now and then stepping back, as two threads' clock
    /// reads may.
    fn stream(seed: u64, first: u64, objects: u64, n: usize) -> Vec<Access> {
        let mut rng = crate::rng::SplitMix64::new(seed);
        let mut now = 1_000 * 1_000_000u64;
        (0..n)
            .map(|_| {
                now += rng.below(400_000);
                let time_ns = now - rng.below(3) / 2 * rng.below(150_000_000);
                let kind = if rng.below(3) == 0 {
                    OpKind::Write
                } else {
                    OpKind::Read
                };
                Access {
                    context: ContextId(1 + rng.below(3)),
                    obj: ObjId(first + rng.below(objects)),
                    site: site(rng.below(8) as u32),
                    op_name: "t.op",
                    kind,
                    time_ns,
                }
            })
            .collect()
    }

    /// The pairs each access of `events` formed, call by call.
    fn pairs_of(t: &NearMissTracker, events: &[Access]) -> Vec<Vec<SitePair>> {
        events.iter().map(|a| t.record(a)).collect()
    }

    #[test]
    fn slot_table_matches_the_reference_model_call_by_call() {
        for seed in 11..17u64 {
            let history = 1 + (seed % 5) as usize;
            // 200 live objects straddling the wrap of a 256-slot table.
            let events = stream(seed, 156, 200, 12_000);
            let mut model = Model::default();
            let expected: Vec<Vec<SitePair>> =
                events.iter().map(|a| model.record(a, history)).collect();
            let formed = expected.iter().filter(|p| !p.is_empty()).count();
            assert!(formed > 1_000, "seed {seed}: only {formed} calls paired");

            let table = NearMissTracker::new(history, Some(WINDOW), 256);
            assert_eq!(pairs_of(&table, &events), expected, "seed {seed}");
            assert_eq!(table.tracked_objects(), model.0.len());
        }
    }

    #[test]
    fn threads_on_disjoint_objects_see_what_one_thread_would() {
        // Neighbouring slots, one table, four threads released together:
        // each thread's pairs must be those of its stream run alone.
        let streams: Vec<Vec<Access>> = (0..4)
            .map(|t| stream(90 + t, 1 + 64 * t, 64, 10_000))
            .collect();
        let shared = NearMissTracker::new(5, Some(WINDOW), 1024);
        let gate = std::sync::Barrier::new(streams.len());
        let got: Vec<Vec<Vec<SitePair>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .map(|events| {
                    let (shared, gate) = (&shared, &gate);
                    scope.spawn(move || {
                        gate.wait();
                        pairs_of(shared, events)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        for (events, got) in streams.iter().zip(got) {
            let alone = NearMissTracker::new(5, Some(WINDOW), 1024);
            assert_eq!(got, pairs_of(&alone, events));
        }
        assert_eq!(shared.tracked_objects(), 256);
    }

    #[test]
    fn colliding_ids_never_exceed_the_bound() {
        // Capacity rounds 6 down to 4; ids `id`, `id + 4`, `id + 8`, …
        // fight over slot `id`.
        let t = NearMissTracker::with_shards(5, Some(WINDOW), 6, 99);
        for round in 0..50u64 {
            for id in 0..4u64 {
                t.record(&acc(1, id + 4 * round, site(1), OpKind::Write, round));
                assert!(t.tracked_objects() <= 4);
            }
        }
        assert_eq!(t.tracked_objects(), 4);
    }

    #[test]
    fn a_resident_touched_between_challenges_keeps_its_slot_and_history() {
        let t = NearMissTracker::new(5, Some(WINDOW), 4);
        t.record(&acc(1, 7, site(1), OpKind::Write, 0));
        for challenger in (11..200u64).step_by(4) {
            t.record(&acc(1, 7, site(1), OpKind::Write, 1)); // Keeps 7 hot.
            let lost = t.record(&acc(2, challenger, site(2), OpKind::Write, 1));
            assert!(lost.is_empty(), "an untracked access pairs with nothing");
        }
        assert_eq!(t.tracked_objects(), 1);
        let pairs = t.record(&acc(2, 7, site(3), OpKind::Read, 2));
        assert_eq!(pairs, vec![SitePair::new(site(1), site(3))]);
    }

    #[test]
    fn an_untouched_resident_is_replaced_and_the_newcomer_starts_empty() {
        let t = NearMissTracker::new(5, Some(WINDOW), 4);
        t.record(&acc(1, 7, site(1), OpKind::Write, 0));
        t.record(&acc(1, 7, site(1), OpKind::Write, 1));
        // The first challenge spends 7's second chance, the next one wins.
        assert!(t.record(&acc(2, 11, site(2), OpKind::Write, 2)).is_empty());
        assert!(
            t.record(&acc(2, 11, site(2), OpKind::Write, 3)).is_empty(),
            "7's writes by context 1 must not pair with 11's by context 2"
        );
        let pairs = t.record(&acc(1, 11, site(3), OpKind::Write, 4));
        assert_eq!(pairs, vec![SitePair::new(site(2), site(3))]);
        // A resident never accessed again loses to its first challenger,
        // and nothing of it is remembered when it comes back: context 1's
        // write to 7 would pair with context 2's otherwise.
        let t = NearMissTracker::new(5, Some(WINDOW), 4);
        t.record(&acc(1, 7, site(1), OpKind::Write, 0));
        t.record(&acc(2, 11, site(2), OpKind::Write, 1));
        assert!(t.record(&acc(2, 7, site(3), OpKind::Write, 2)).is_empty());
    }

    #[test]
    fn a_fresh_table_owns_no_chunk_and_slots_are_whole_lines() {
        let t = NearMissTracker::new(5, Some(WINDOW), 1 << 16);
        assert_eq!(t.approx_bytes(), 0);
        assert_eq!(t.tracked_objects(), 0);
        t.record(&acc(1, 40_000, site(1), OpKind::Write, 0));
        let slot = std::mem::size_of::<Slot>();
        assert_eq!(
            t.approx_bytes(),
            crate::chunks::CHUNK * slot + 5 * std::mem::size_of::<HistEntry>(),
            "one chunk of slots and one history"
        );
        assert_eq!(slot % 64, 0);
        assert_eq!(std::mem::align_of::<Slot>() % 64, 0);
    }

    #[test]
    fn pair_normalization() {
        let p1 = SitePair::new(site(2), site(1));
        let p2 = SitePair::new(site(1), site(2));
        assert_eq!(p1, p2);
        assert!(p1.contains(site(1)));
        assert_eq!(p1.other(site(1)), site(2));
        assert_eq!(p1.other(site(2)), site(1));
    }
}
