//! The pair table: every fact about a dangerous pair of program locations
//! (§3.4.1), in one record per pair.
//!
//! A pair's life is one [`PairRecord`] and one transition,
//! [`PairRecord::on`]. Its `state` says whether the pair is *armed* — how
//! it arrived: discovered by a near miss, imported from a trap file, or
//! armed by a fork-ordered near miss — or *settled* for the rest of the run
//! — found buggy, an imported pair decayed out, or an ordered pair whose
//! one delay caught nothing (in this run, or `carried` from an earlier
//! one) — or neither. Its `edge` is the HB edge inferred between its two
//! locations (§3.4.4), in this run or carried in by the trap file. The
//! edge is independent of the state: a pair with an edge never arms from a
//! near miss, but a trap file that lists it as armed arms it, and a found
//! or decayed-out pair keeps its edge. A record that is neither armed nor
//! settled and has no edge is not stored.
//!
//! A discovered pair that decays out may re-arm; an imported one settles,
//! because the previous run already spent its delays on it. An unordered
//! near miss upgrades an armed ordered pair and lifts an ordered
//! settlement, carried or not: a parent that writes again after the spawn
//! races for real. The trap file ([`export`](TrapSet::export)) carries the
//! armed pairs but the ordered ones, the found pairs, the ordered
//! settlements and the edges.
//!
//! Each site keeps a count of the armed pairs it is in and of the ordered
//! ones among them, derived from the records, so
//! [`armed_site`](TrapSet::armed_site) tells whether a site may delay and
//! whether its every pair is ordered in one lookup.
//!
//! `armed_site` is consulted on every instrumented access once any pair
//! is armed, so the table is kept as an immutable snapshot behind an
//! [`EpochPtr`]: readers pin the epoch (one store to their own slot), load
//! the pointer, and look up without any lock. Mutations read before they
//! write ([`EpochPtr::update`]): near misses rediscover the same pairs on
//! nearly every armed call, and an event that would change nothing takes
//! no lock and publishes nothing; one that does is decided under the writer
//! mutex and publishes a copy-on-write snapshot. An atomic count of armed
//! pairs still lets an empty set — a fresh run — answer without even
//! pinning.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::audit;
use crate::chunks::IdMap;
use crate::epoch::EpochPtr;
use crate::hb_infer::Inference;
use crate::near_miss::SitePair;
use crate::site::SiteId;
use crate::trap_file::TrapFileData;

/// How an armed pair entered the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// A near miss (or a vector-clock race) in this run.
    Discovered,
    /// A trap file: an earlier run's pair, or a static prior.
    Imported,
    /// A fork-ordered near miss in this run, and no unordered one yet.
    Ordered,
}

/// Why a pair never re-arms for the rest of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settled {
    /// A violation was caught at the pair, in this run or an earlier one.
    Found,
    /// An imported pair decayed out.
    DecayedOut,
    /// An ordered pair's delay caught nothing, in this run or (`carried`)
    /// an earlier one; lifted by an unordered near miss of the pair.
    Ordered {
        /// Imported from a trap file rather than made in this run.
        carried: bool,
    },
}

/// Where a pair is in its life.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum PairState {
    /// Neither armed nor settled.
    #[default]
    Free,
    /// In the trap set: its locations may delay.
    Armed(Arrival),
    /// Out of the trap set for the rest of the run.
    Settled(Settled),
}

/// Everything the table knows of one pair.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PairRecord {
    /// Armed, settled, or neither.
    pub state: PairState,
    /// The pair's inferred HB edge, if it has one.
    pub edge: Option<Inference>,
}

/// What can happen to a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairEvent {
    /// A near miss in a concurrent phase; `ordered` when fork-ordered.
    NearMiss {
        /// The task's access paired with its parent's pre-spawn access.
        ordered: bool,
    },
    /// A trap file lists the pair as found.
    ImportFound,
    /// A trap file lists the pair as an ordered settlement.
    ImportOrdered,
    /// A trap file lists the pair as armed.
    ImportArmed,
    /// A trap file lists the pair's HB edge.
    ImportInferred,
    /// A location of the pair decayed to the floor.
    Evict,
    /// The one delay at a location whose every armed pair is ordered
    /// caught nothing.
    SettleOrdered,
    /// A violation was caught at the pair.
    Found,
    /// Delay propagation inferred the pair's HB edge in this run.
    Inferred,
}

impl PairRecord {
    /// The pair's lifecycle: the record after `event`, or `None` if the
    /// event changes nothing.
    pub fn on(self, event: PairEvent) -> Option<PairRecord> {
        use PairEvent::*;
        use PairState::{Armed, Free};
        let settled = PairState::Settled;
        let mut next = self;
        match (event, self.state) {
            (NearMiss { .. }, _) if self.edge.is_some() => return None,
            (
                NearMiss { ordered: false },
                Free | Armed(Arrival::Ordered) | PairState::Settled(Settled::Ordered { .. }),
            ) => next.state = Armed(Arrival::Discovered),
            (NearMiss { ordered: true }, Free) => next.state = Armed(Arrival::Ordered),
            (ImportArmed, Free) => next.state = Armed(Arrival::Imported),
            (ImportOrdered, Free) => next.state = settled(Settled::Ordered { carried: true }),
            (ImportFound | Found, state) if state != settled(Settled::Found) => {
                next.state = settled(Settled::Found);
            }
            (Evict, Armed(Arrival::Discovered)) => next.state = Free,
            (Evict, Armed(Arrival::Imported)) => next.state = settled(Settled::DecayedOut),
            (Evict | SettleOrdered, Armed(Arrival::Ordered)) => {
                next.state = settled(Settled::Ordered { carried: false });
            }
            (ImportInferred, _) if self.edge.is_none() => next.edge = Some(Inference::Carried),
            (Inferred, state) if self.edge != Some(Inference::Run) => {
                next.edge = Some(Inference::Run);
                if let Armed(_) = state {
                    next.state = Free;
                }
            }
            _ => return None,
        }
        Some(next)
    }

    /// How the pair arrived, if it is armed.
    pub fn arrival(self) -> Option<Arrival> {
        match self.state {
            PairState::Armed(arrival) => Some(arrival),
            _ => None,
        }
    }
}

/// The pairs' end states, read off the table, and the events no end state
/// records, counted as they happen.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PairCounts {
    /// Pairs armed by a near miss.
    pub armed_discovered: u64,
    /// Pairs armed by a trap file.
    pub armed_imported: u64,
    /// Pairs armed by a fork-ordered near miss.
    pub armed_ordered: u64,
    /// Pairs found buggy.
    pub found: u64,
    /// Imported pairs that decayed out.
    pub decayed_out: u64,
    /// Ordered settlements made in this run.
    pub settled_here: u64,
    /// Ordered settlements a trap file carried in.
    pub settled_carried: u64,
    /// HB edges inferred in this run.
    pub edge_run: u64,
    /// HB edges a trap file carried in and this run did not infer again.
    pub edge_carried: u64,
    /// Delays injected at sites whose every armed pair was ordered.
    pub ordered_delays: u64,
    /// Delays there not injected because another context's delay ran.
    pub ordered_skipped: u64,
    /// Ordered near misses a carried ordered settlement kept from arming.
    pub settlement_kept_out: u64,
    /// Near misses a carried HB edge kept from arming.
    pub edge_kept_out: u64,
}

/// How a site takes part in the armed pairs: what `should_delay` reads in
/// the one snapshot read it makes per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmedSite {
    /// At least one pair armed at the site is not ordered.
    Unordered,
    /// Every pair armed at the site is ordered.
    OrderedOnly,
}

/// A site's share of the armed pairs: how many it is in, and how many of
/// those are ordered.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct SiteRefs {
    pairs: usize,
    ordered: usize,
}

impl SiteRefs {
    fn armed(self) -> ArmedSite {
        if self.ordered == self.pairs {
            ArmedSite::OrderedOnly
        } else {
            ArmedSite::Unordered
        }
    }
}

#[derive(Default, Clone)]
struct Snapshot {
    /// Every pair with a record. A near miss looks its pair up here.
    records: IdMap<SitePair, PairRecord>,
    /// How many armed pairs each site is in, and how many of them are
    /// ordered. A site in no armed pair has no entry.
    site_refs: IdMap<SiteId, SiteRefs>,
    /// Armed pairs.
    armed: usize,
}

impl Snapshot {
    fn record(&self, pair: SitePair) -> PairRecord {
        self.records.get(&pair).copied().unwrap_or_default()
    }

    /// Applies `event` to `pair`, returning the record from before.
    fn apply(&mut self, pair: SitePair, event: PairEvent) -> PairRecord {
        let before = self.record(pair);
        let Some(after) = before.on(event) else {
            return before;
        };
        if after == PairRecord::default() {
            self.records.remove(&pair);
        } else {
            self.records.insert(pair, after);
        }
        if let Some(arrival) = after.arrival() {
            self.count(pair, 1, arrival);
        }
        if let Some(arrival) = before.arrival() {
            self.count(pair, -1, arrival);
        }
        before
    }

    /// Adds `by` armed pairs arriving as `arrival` to `pair`'s sites (once
    /// for a self-pair), dropping a site that is left in no pair.
    fn count(&mut self, pair: SitePair, by: isize, arrival: Arrival) {
        self.armed = self.armed.wrapping_add_signed(by);
        let both = [pair.first, pair.second];
        for &site in &both[..if pair.first == pair.second { 1 } else { 2 }] {
            let refs = self.site_refs.entry(site).or_default();
            refs.pairs = refs.pairs.wrapping_add_signed(by);
            if arrival == Arrival::Ordered {
                refs.ordered = refs.ordered.wrapping_add_signed(by);
            }
            if refs.pairs == 0 {
                self.site_refs.remove(&site);
            }
        }
    }

    /// The armed pairs containing `site`.
    fn armed_at(&self, site: SiteId) -> Vec<SitePair> {
        let at = self
            .records
            .iter()
            .filter(|(p, r)| p.contains(site) && r.arrival().is_some());
        at.map(|(&pair, _)| pair).collect()
    }

    fn armed_site(&self, site: SiteId) -> Option<ArmedSite> {
        self.site_refs.get(&site).map(|refs| refs.armed())
    }
}

/// The thread-safe pair table, with per-site counts of the armed pairs.
///
/// Readers and no-op events are lock-free (epoch-pinned snapshot loads);
/// effective writers serialize and publish copy-on-write snapshots.
#[derive(Default)]
pub struct TrapSet {
    snapshot: EpochPtr<Snapshot>,
    /// Armed pairs, readable without pinning.
    pair_count: AtomicUsize,
}

impl TrapSet {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`EpochPtr::update`], mirroring a change in the number of armed
    /// pairs into the pair counter.
    fn write<R>(
        &self,
        noop: impl Fn(&Snapshot) -> Option<R>,
        mutate: impl FnOnce(&mut Snapshot) -> R,
    ) -> R {
        self.snapshot.update(noop, |next| {
            let before = next.armed;
            let result = mutate(next);
            if next.armed != before {
                audit::note_shared_write();
                self.pair_count.store(next.armed, Ordering::Release);
            }
            result
        })
    }

    /// Applies `event` to `pair` ([`PairRecord::on`]) and returns the
    /// record from before it: one snapshot read, and no lock, when the
    /// event changes nothing.
    pub fn apply(&self, pair: SitePair, event: PairEvent) -> PairRecord {
        self.write(
            |s| {
                let before = s.record(pair);
                before.on(event).is_none().then_some(before)
            },
            |s| s.apply(pair, event),
        )
    }

    /// [`import`](Self::import) of armed pairs alone.
    pub fn add_many(&self, candidates: &[SitePair], max_len: usize) -> Vec<SitePair> {
        self.import(&[], candidates, max_len)
    }

    /// A trap file's pairs: applies every event of `settle` in order, then
    /// [`PairEvent::ImportArmed`] to every pair in `candidates` in order,
    /// stopping once `max_len` pairs are armed. Returns the pairs it armed.
    /// One snapshot clone and one publish however many records change.
    pub fn import(
        &self,
        settle: &[(SitePair, PairEvent)],
        candidates: &[SitePair],
        max_len: usize,
    ) -> Vec<SitePair> {
        self.write(
            |s| {
                let unchanged =
                    |&(p, event): &(SitePair, PairEvent)| s.record(p).on(event).is_none();
                let full = s.armed >= max_len
                    || candidates
                        .iter()
                        .all(|&p| unchanged(&(p, PairEvent::ImportArmed)));
                (full && settle.iter().all(unchanged)).then(Vec::new)
            },
            |s| {
                for &(pair, event) in settle {
                    s.apply(pair, event);
                }
                let mut inserted = Vec::new();
                for &pair in candidates {
                    if s.armed >= max_len {
                        break;
                    }
                    if s.apply(pair, PairEvent::ImportArmed).state == PairState::Free {
                        inserted.push(pair);
                    }
                }
                inserted
            },
        )
    }

    /// Applies `event` to every armed pair at `site` when `applies` holds
    /// of the snapshot, and returns those pairs.
    fn at_site(
        &self,
        site: SiteId,
        event: PairEvent,
        applies: impl Fn(&Snapshot) -> bool,
    ) -> Vec<SitePair> {
        self.write(
            |s| (!applies(s)).then(Vec::new),
            |s| {
                let at = s.armed_at(site);
                for &pair in &at {
                    s.apply(pair, event);
                }
                at
            },
        )
    }

    /// Evicts every pair armed at `site` (decay to the floor), returning
    /// them: [`PairEvent::Evict`].
    pub fn remove_site(&self, site: SiteId) -> Vec<SitePair> {
        self.at_site(site, PairEvent::Evict, |s| s.site_refs.contains_key(&site))
    }

    /// If every pair armed at `site` is ordered, settles them all, with no
    /// decay step, and returns how many; otherwise changes nothing and
    /// returns 0.
    pub fn settle_ordered(&self, site: SiteId) -> usize {
        let ordered_only = |s: &Snapshot| s.armed_site(site) == Some(ArmedSite::OrderedOnly);
        self.at_site(site, PairEvent::SettleOrdered, ordered_only)
            .len()
    }

    /// Returns `true` if `site` participates in at least one armed pair.
    pub fn contains_site(&self, site: SiteId) -> bool {
        self.armed_site(site).is_some()
    }

    /// How `site` is armed, or `None` if it is in no armed pair: one
    /// snapshot read answers both whether the site may delay and whether
    /// every pair there is ordered.
    #[inline]
    pub fn armed_site(&self, site: SiteId) -> Option<ArmedSite> {
        if self.pair_count.load(Ordering::Acquire) == 0 {
            return None;
        }
        self.snapshot.read(|s| s.armed_site(site))
    }

    /// Returns `true` if `pair` is armed.
    pub fn contains(&self, pair: SitePair) -> bool {
        self.pair_count.load(Ordering::Acquire) > 0
            && self.snapshot.read(|s| s.record(pair).arrival().is_some())
    }

    /// The next run's trap file, from one snapshot: the armed pairs but
    /// the ordered ones, whose one delay has not settled them yet; the
    /// found pairs; the ordered settlements; and the HB edges.
    pub fn export(&self) -> TrapFileData {
        let mut lists: [Vec<SitePair>; 4] = Default::default();
        self.snapshot.read(|s| {
            for (&pair, record) in &s.records {
                let list = match record.state {
                    PairState::Armed(Arrival::Ordered) | PairState::Free => None,
                    PairState::Armed(_) => Some(0),
                    PairState::Settled(Settled::Found) => Some(1),
                    PairState::Settled(Settled::Ordered { .. }) => Some(2),
                    PairState::Settled(Settled::DecayedOut) => None,
                };
                list.into_iter()
                    .chain(record.edge.map(|_| 3))
                    .for_each(|list| lists[list].push(pair));
            }
        });
        let [pairs, found, ordered, inferred] = lists;
        TrapFileData::from_lists(&pairs, &found, &ordered, &inferred)
    }

    /// The histogram of the records' end states; the event counts are 0.
    pub fn counts(&self) -> PairCounts {
        let mut c = PairCounts::default();
        self.snapshot.read(|s| {
            for record in s.records.values() {
                let state = match record.state {
                    PairState::Free => None,
                    PairState::Armed(Arrival::Discovered) => Some(&mut c.armed_discovered),
                    PairState::Armed(Arrival::Imported) => Some(&mut c.armed_imported),
                    PairState::Armed(Arrival::Ordered) => Some(&mut c.armed_ordered),
                    PairState::Settled(Settled::Found) => Some(&mut c.found),
                    PairState::Settled(Settled::DecayedOut) => Some(&mut c.decayed_out),
                    PairState::Settled(Settled::Ordered { carried: true }) => {
                        Some(&mut c.settled_carried)
                    }
                    PairState::Settled(Settled::Ordered { .. }) => Some(&mut c.settled_here),
                };
                state.into_iter().for_each(|n| *n += 1);
                match record.edge {
                    Some(Inference::Run) => c.edge_run += 1,
                    Some(Inference::Carried) => c.edge_carried += 1,
                    None => {}
                }
            }
        });
        c
    }

    /// Number of armed pairs.
    pub fn len(&self) -> usize {
        self.pair_count.load(Ordering::Acquire)
    }

    /// Returns `true` if no pair is armed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteData;
    use std::collections::{HashMap, HashSet};
    use std::sync::Arc;

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "trapset_test.rs",
            line: n,
            column: 1,
        })
    }

    /// What a near miss did, told apart the way the planner counts it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Outcome {
        Armed,
        Unchanged,
        KeptOut,
        EdgeKeptOut,
    }

    impl TrapSet {
        fn near_miss(&self, pair: SitePair, ordered: bool) -> Outcome {
            let event = PairEvent::NearMiss { ordered };
            let before = self.apply(pair, event);
            let carried = PairState::Settled(Settled::Ordered { carried: true });
            match before.on(event) {
                Some(after) if before.arrival().is_none() && after.arrival().is_some() => {
                    Outcome::Armed
                }
                Some(_) => Outcome::Unchanged,
                None => match before.edge {
                    Some(Inference::Carried) => Outcome::EdgeKeptOut,
                    None if ordered && before.state == carried => Outcome::KeptOut,
                    _ => Outcome::Unchanged,
                },
            }
        }

        /// An unordered near miss; `true` if it armed the pair.
        fn add(&self, pair: SitePair) -> bool {
            self.near_miss(pair, false) == Outcome::Armed
        }

        fn record(&self, pair: SitePair) -> PairRecord {
            self.snapshot.read(|s| s.record(pair))
        }

        fn mark_found(&self, pair: SitePair) {
            self.apply(pair, PairEvent::Found);
        }

        fn infer(&self, pair: SitePair) {
            self.apply(pair, PairEvent::Inferred);
        }

        /// Asserts the internal consistency of the *current* snapshot: the
        /// armed count and the site-reference counts must be exactly those
        /// derived from the records, and no stored record is empty. Readers
        /// racing a writer must only ever observe snapshots that pass this
        /// check — a torn view would fail it.
        fn assert_snapshot_consistent(&self) {
            self.snapshot.read(|s| {
                let mut derived = Snapshot::default();
                for (&pair, record) in &s.records {
                    assert_ne!(*record, PairRecord::default(), "an empty record stored");
                    if let Some(arrival) = record.arrival() {
                        derived.count(pair, 1, arrival);
                    }
                }
                assert_eq!(derived.armed, s.armed, "armed count");
                assert_eq!(
                    derived.site_refs, s.site_refs,
                    "snapshot site_refs must match the records"
                );
            });
        }

        /// Every armed pair, ordered ones included.
        fn armed_pairs(&self) -> Vec<SitePair> {
            self.snapshot.read(|s| {
                let armed = s.records.iter().filter(|(_, r)| r.arrival().is_some());
                armed.map(|(&pair, _)| pair).collect()
            })
        }
    }

    #[test]
    fn add_and_membership() {
        let t = TrapSet::new();
        let p = SitePair::new(site(1), site(2));
        assert!(t.add(p));
        assert!(!t.add(p), "second insert is a no-op");
        assert!(t.contains(p));
        assert!(t.contains_site(site(1)));
        assert!(t.contains_site(site(2)));
        assert!(!t.contains_site(site(3)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn an_inferred_edge_disarms_and_updates_site_refs() {
        let t = TrapSet::new();
        let p12 = SitePair::new(site(1), site(2));
        let p13 = SitePair::new(site(1), site(3));
        t.add(p12);
        t.add(p13);
        t.infer(p12);
        assert!(
            t.contains_site(site(1)),
            "site 1 still referenced by the other pair"
        );
        assert!(!t.contains_site(site(2)));
        assert!(
            !t.add(p12),
            "a pair with an edge never arms from a near miss"
        );
        let p7 = SitePair::new(site(7), site(7));
        t.add(p7);
        assert!(t.contains_site(site(7)));
        t.infer(p7);
        assert!(!t.contains_site(site(7)), "a self-pair is counted once");
        t.assert_snapshot_consistent();
    }

    #[test]
    fn mark_found_blocks_readdition() {
        let t = TrapSet::new();
        let p = SitePair::new(site(1), site(2));
        t.add(p);
        t.mark_found(p);
        assert!(!t.contains(p));
        assert!(!t.add(p), "found pairs are never re-armed");
        assert!(t.is_empty());
    }

    #[test]
    fn remove_site_evicts_all_pairs() {
        let t = TrapSet::new();
        t.add(SitePair::new(site(1), site(2)));
        t.add(SitePair::new(site(1), site(3)));
        t.add(SitePair::new(site(4), site(5)));
        let removed = t.remove_site(site(1));
        assert_eq!(removed.len(), 2);
        assert_eq!(t.len(), 1);
        assert!(!t.contains_site(site(1)));
        assert!(!t.contains_site(site(2)));
        assert!(t.contains_site(site(4)));
    }

    #[test]
    fn add_many_respects_budget_and_found_set() {
        let t = TrapSet::new();
        let found = SitePair::new(site(20), site(21));
        t.add(found);
        t.mark_found(found);
        let candidates = [
            found,
            SitePair::new(site(22), site(23)),
            SitePair::new(site(22), site(23)), // duplicate
            SitePair::new(site(24), site(25)),
            SitePair::new(site(26), site(27)), // over budget
        ];
        let inserted = t.add_many(&candidates, 2);
        assert_eq!(inserted.len(), 2);
        assert!(t.contains(SitePair::new(site(22), site(23))));
        assert!(t.contains(SitePair::new(site(24), site(25))));
        assert!(!t.contains(found), "found pairs never re-arm");
        assert!(!t.contains(SitePair::new(site(26), site(27))));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn import_settles_found_pairs_before_it_arms() {
        let t = TrapSet::new();
        let (found, other) = (
            SitePair::new(site(30), site(31)),
            SitePair::new(site(32), site(33)),
        );
        assert!(t.add(found), "armed by discovery first");
        let settle = [(found, PairEvent::ImportFound)];
        let inserted = t.import(&settle, &[found, other], usize::MAX);
        assert_eq!(inserted, vec![other]);
        assert!(
            !t.contains(found),
            "a found pair is disarmed, then never armed"
        );
        assert!(!t.add(found));
        assert_eq!(t.export().found_pairs(), vec![found]);
    }

    #[test]
    fn an_imported_pair_that_decays_out_stays_out_and_a_discovered_one_does_not() {
        let t = TrapSet::new();
        let (carried, discovered) = (
            SitePair::new(site(40), site(41)),
            SitePair::new(site(40), site(42)),
        );
        t.add_many(&[carried], usize::MAX);
        t.add(discovered);
        let mut evicted = t.remove_site(site(40));
        evicted.sort();
        let mut both = vec![carried, discovered];
        both.sort();
        assert_eq!(evicted, both);
        assert!(!t.add(carried), "the carried pair is settled for the run");
        assert!(t.add(discovered), "the discovered pair re-arms");
        assert!(t.export().found.is_empty(), "decaying out is not a finding");
        t.mark_found(carried);
        assert_eq!(
            t.export().found_pairs(),
            vec![carried],
            "a catch still records it"
        );
    }

    #[test]
    fn the_edge_lives_beside_the_state() {
        let t = TrapSet::new();
        let (armed, found) = (
            SitePair::new(site(50), site(51)),
            SitePair::new(site(52), site(53)),
        );
        let settle = [
            (armed, PairEvent::ImportInferred),
            (found, PairEvent::ImportInferred),
        ];
        assert_eq!(t.import(&settle, &[armed], usize::MAX), vec![armed]);
        let carried = Some(Inference::Carried);
        let record = t.record(armed);
        assert_eq!(
            (record.arrival(), record.edge),
            (Some(Arrival::Imported), carried),
            "a file's inferred pair that the file also arms still arms"
        );
        assert_eq!(t.near_miss(found, false), Outcome::EdgeKeptOut);
        t.mark_found(found);
        assert_eq!(t.record(found).edge, carried, "a found pair keeps its edge");
        let file = t.export();
        assert_eq!(file.to_pairs(), vec![armed]);
        assert_eq!(file.found_pairs(), vec![found]);
        assert_eq!(
            file.inferred_pairs().len(),
            2,
            "and both edges are carried on"
        );
        t.infer(armed);
        let run = PairRecord {
            state: PairState::Free,
            edge: Some(Inference::Run),
        };
        assert_eq!(t.record(armed), run, "inferred again: this run's, pruned");
        assert_eq!(t.near_miss(armed, false), Outcome::Unchanged);
        let counts = t.counts();
        assert_eq!(
            (counts.found, counts.edge_run, counts.edge_carried),
            (1, 1, 1)
        );
    }

    /// The obvious implementation the snapshot protocol must agree with.
    #[derive(Default)]
    struct Model {
        /// Armed pairs and how each arrived.
        pairs: HashMap<SitePair, Arrival>,
        found: HashSet<SitePair>,
        decayed_out: HashSet<SitePair>,
        /// Ordered settlements, each with whether an import carried it in.
        ordered_out: HashMap<SitePair, bool>,
        /// HB edges, each with whether an import carried it in.
        edges: HashMap<SitePair, bool>,
        /// Imported pairs evicted so far, settled or not by now.
        evicted_imports: usize,
        /// Ordered pairs settled so far, lifted or not by now.
        settled_ordered: usize,
        /// Ordered settlements imported so far, and ordered near misses
        /// they kept out.
        carried: usize,
        kept_out: usize,
        /// Edges inferred so far, and near misses carried ones kept out.
        inferred: usize,
        edge_kept_out: usize,
        /// Imports that armed a pair with an edge.
        armed_with_edge: usize,
    }

    impl Model {
        fn insert(&mut self, pair: SitePair, arrival: Arrival) -> bool {
            if self.found.contains(&pair) || self.decayed_out.contains(&pair) {
                return false;
            }
            let unordered = arrival == Arrival::Discovered;
            if let Some(armed) = self.pairs.get_mut(&pair) {
                if unordered && *armed == Arrival::Ordered {
                    *armed = arrival;
                }
                return false;
            }
            if self.ordered_out.contains_key(&pair) && !unordered {
                return false;
            }
            self.ordered_out.remove(&pair);
            self.pairs.insert(pair, arrival);
            true
        }

        fn near_miss(&mut self, pair: SitePair, ordered: bool) -> Outcome {
            if let Some(&carried) = self.edges.get(&pair) {
                return if carried {
                    self.edge_kept_out += 1;
                    Outcome::EdgeKeptOut
                } else {
                    Outcome::Unchanged
                };
            }
            let arrival = if ordered {
                Arrival::Ordered
            } else {
                Arrival::Discovered
            };
            if self.insert(pair, arrival) {
                Outcome::Armed
            } else if ordered && self.ordered_out.get(&pair) == Some(&true) {
                self.kept_out += 1;
                Outcome::KeptOut
            } else {
                Outcome::Unchanged
            }
        }

        fn infer(&mut self, pair: SitePair) {
            if self.edges.insert(pair, false) != Some(false) {
                self.inferred += 1;
                self.pairs.remove(&pair);
            }
        }

        fn settle_ordered(&mut self, site: SiteId) -> usize {
            let at: Vec<(SitePair, Arrival)> = self
                .pairs
                .iter()
                .filter(|(p, _)| p.contains(site))
                .map(|(&p, &a)| (p, a))
                .collect();
            if at.is_empty() || at.iter().any(|&(_, a)| a != Arrival::Ordered) {
                return 0;
            }
            for (pair, _) in &at {
                self.pairs.remove(pair);
                self.ordered_out.insert(*pair, false);
            }
            self.settled_ordered += at.len();
            at.len()
        }

        fn import(
            &mut self,
            found: &[SitePair],
            ordered: &[SitePair],
            inferred: &[SitePair],
            candidates: &[SitePair],
            max_len: usize,
        ) -> Vec<SitePair> {
            for &pair in found {
                self.mark_found(pair);
            }
            for &pair in ordered {
                let known = self.pairs.contains_key(&pair)
                    || self.found.contains(&pair)
                    || self.decayed_out.contains(&pair)
                    || self.ordered_out.contains_key(&pair);
                if !known {
                    self.ordered_out.insert(pair, true);
                    self.carried += 1;
                }
            }
            for &pair in inferred {
                self.edges.entry(pair).or_insert(true);
            }
            let mut inserted = Vec::new();
            for &pair in candidates {
                if self.pairs.len() >= max_len {
                    break;
                }
                if self.insert(pair, Arrival::Imported) {
                    self.armed_with_edge += usize::from(self.edges.contains_key(&pair));
                    inserted.push(pair);
                }
            }
            inserted
        }

        fn mark_found(&mut self, pair: SitePair) {
            self.pairs.remove(&pair);
            self.decayed_out.remove(&pair);
            self.ordered_out.remove(&pair);
            self.found.insert(pair);
        }

        fn remove_site(&mut self, site: SiteId) -> Vec<SitePair> {
            let doomed: Vec<SitePair> = self
                .pairs
                .keys()
                .filter(|p| p.contains(site))
                .copied()
                .collect();
            for pair in &doomed {
                match self.pairs.remove(pair) {
                    Some(Arrival::Imported) => {
                        self.decayed_out.insert(*pair);
                        self.evicted_imports += 1;
                    }
                    Some(Arrival::Ordered) => {
                        self.ordered_out.insert(*pair, false);
                    }
                    _ => {}
                }
            }
            doomed
        }

        fn record(&self, pair: SitePair) -> PairRecord {
            let state = if let Some(&arrival) = self.pairs.get(&pair) {
                PairState::Armed(arrival)
            } else if self.found.contains(&pair) {
                PairState::Settled(Settled::Found)
            } else if self.decayed_out.contains(&pair) {
                PairState::Settled(Settled::DecayedOut)
            } else if let Some(&carried) = self.ordered_out.get(&pair) {
                PairState::Settled(Settled::Ordered { carried })
            } else {
                PairState::Free
            };
            let edge = self.edges.get(&pair).map(|&carried| {
                if carried {
                    Inference::Carried
                } else {
                    Inference::Run
                }
            });
            PairRecord { state, edge }
        }

        fn export(&self) -> TrapFileData {
            let keys = |pairs: &mut dyn Iterator<Item = &SitePair>| pairs.copied().collect();
            let armed: Vec<SitePair> = keys(
                &mut self
                    .pairs
                    .iter()
                    .filter(|(_, &a)| a != Arrival::Ordered)
                    .map(|(p, _)| p),
            );
            let found: Vec<SitePair> = keys(&mut self.found.iter());
            let ordered: Vec<SitePair> = keys(&mut self.ordered_out.keys());
            let inferred: Vec<SitePair> = keys(&mut self.edges.keys());
            TrapFileData::from_lists(&armed, &found, &ordered, &inferred)
        }
    }

    /// Seeded differential: the same SplitMix64 stream of events drives a
    /// `TrapSet` and the model; every return value, every observable and
    /// a probed pair's record must agree after every operation, whether
    /// the operation took the read-only answer or the clone-and-swap.
    #[test]
    fn agrees_with_a_hash_set_model_on_seeded_op_streams() {
        use crate::rng::SplitMix64;
        const SITES: u64 = 12; // 78 possible pairs: most ops are no-ops.
        const OPS: usize = 10_000;
        let sites: Vec<SiteId> = (0..SITES as u32).map(|n| site(500 + n)).collect();
        for seed in [1u64, 2, 3, 5, 8, 13] {
            let mut rng = SplitMix64::new(seed);
            let pair = |rng: &mut SplitMix64| {
                SitePair::new(
                    sites[rng.below(SITES) as usize],
                    sites[rng.below(SITES) as usize],
                )
            };
            let set = TrapSet::new();
            let mut model = Model::default();
            for op in 0..OPS {
                let at = format!("seed {seed}, op {op}");
                match rng.below(19) {
                    0..=6 => {
                        let p = pair(&mut rng);
                        let want = model.near_miss(p, false);
                        assert_eq!(set.near_miss(p, false), want, "near miss, {at}");
                    }
                    16 | 17 => {
                        let p = pair(&mut rng);
                        let want = model.near_miss(p, true);
                        assert_eq!(set.near_miss(p, true), want, "ordered near miss, {at}");
                    }
                    18 => {
                        // A site of an armed ordered pair, when there is one.
                        let mut ordered: Vec<SitePair> = model
                            .pairs
                            .iter()
                            .filter(|(_, &a)| a == Arrival::Ordered)
                            .map(|(&p, _)| p)
                            .collect();
                        ordered.sort();
                        let s = match ordered.len() as u64 {
                            0 => sites[rng.below(SITES) as usize],
                            n => ordered[rng.below(n) as usize].first,
                        };
                        let want = model.settle_ordered(s);
                        assert_eq!(set.settle_ordered(s), want, "settle_ordered, {at}");
                    }
                    7 | 8 => {
                        // The import op: a trap file's found pairs, its
                        // ordered settlements (a pair may be both, or also
                        // a candidate), now and then an inferred edge,
                        // then its pairs.
                        let found: Vec<SitePair> =
                            (0..rng.below(3) / 2).map(|_| pair(&mut rng)).collect();
                        let mut ordered: Vec<SitePair> =
                            (0..rng.below(4)).map(|_| pair(&mut rng)).collect();
                        if rng.below(4) == 0 {
                            ordered.extend(found.first());
                        }
                        let inferred: Vec<SitePair> =
                            (0..rng.below(16) / 15).map(|_| pair(&mut rng)).collect();
                        let batch: Vec<SitePair> =
                            (0..rng.below(6)).map(|_| pair(&mut rng)).collect();
                        let budget = rng.below(90) as usize;
                        let lists = [
                            (&found, PairEvent::ImportFound),
                            (&ordered, PairEvent::ImportOrdered),
                            (&inferred, PairEvent::ImportInferred),
                        ];
                        let settle: Vec<(SitePair, PairEvent)> = lists
                            .iter()
                            .flat_map(|(pairs, event)| pairs.iter().map(move |&p| (p, *event)))
                            .collect();
                        assert_eq!(
                            set.import(&settle, &batch, budget),
                            model.import(&found, &ordered, &inferred, &batch, budget),
                            "import, {at}"
                        );
                    }
                    9..=12 => {
                        // Now and then an inferred edge; otherwise a
                        // record read.
                        let p = pair(&mut rng);
                        if rng.below(16) == 0 {
                            set.infer(p);
                            model.infer(p);
                        }
                        assert_eq!(set.record(p), model.record(p), "record, {at}");
                    }
                    13 => {
                        let p = pair(&mut rng);
                        set.mark_found(p);
                        model.mark_found(p);
                    }
                    _ => {
                        let s = sites[rng.below(SITES) as usize];
                        let at_s: Vec<Arrival> = model
                            .pairs
                            .iter()
                            .filter(|(p, _)| p.contains(s))
                            .map(|(_, &a)| a)
                            .collect();
                        let want = match at_s.iter().all(|&a| a == Arrival::Ordered) {
                            _ if at_s.is_empty() => None,
                            true => Some(ArmedSite::OrderedOnly),
                            false => Some(ArmedSite::Unordered),
                        };
                        assert_eq!(set.armed_site(s), want, "armed_site, {at}");
                        let (mut got, mut want) = (set.remove_site(s), model.remove_site(s));
                        got.sort();
                        want.sort();
                        assert_eq!(got, want, "remove_site, {at}");
                    }
                }
                assert_eq!(set.len(), model.pairs.len(), "len, {at}");
                let probe = pair(&mut rng);
                assert_eq!(set.record(probe), model.record(probe), "record, {at}");
                assert_eq!(
                    set.contains(probe),
                    model.pairs.contains_key(&probe),
                    "contains, {at}"
                );
                let s = sites[rng.below(SITES) as usize];
                assert_eq!(
                    set.contains_site(s),
                    model.pairs.keys().any(|p| p.contains(s)),
                    "contains_site, {at}"
                );
            }
            assert!(!model.found.is_empty(), "seed {seed} must mark pairs found");
            assert!(
                model.evicted_imports > 0,
                "seed {seed} must decay imported pairs out"
            );
            assert!(
                model.settled_ordered > 0,
                "seed {seed} must settle ordered pairs"
            );
            assert!(
                model.carried > 0 && model.kept_out > 0,
                "seed {seed} must carry ordered settlements in and keep a near miss out"
            );
            assert!(
                model.inferred > 0 && model.edge_kept_out > 0 && model.armed_with_edge > 0,
                "seed {seed} must infer edges, keep a near miss out by a carried one \
                 and arm a pair with an edge"
            );
            assert_eq!(set.export(), model.export(), "trap file, seed {seed}");
            let mut want = PairCounts::default();
            let records: HashSet<SitePair> = model
                .pairs
                .keys()
                .chain(&model.found)
                .chain(&model.decayed_out)
                .chain(model.ordered_out.keys())
                .chain(model.edges.keys())
                .copied()
                .collect();
            for p in records {
                let record = model.record(p);
                let state = match record.state {
                    PairState::Free => None,
                    PairState::Armed(Arrival::Discovered) => Some(&mut want.armed_discovered),
                    PairState::Armed(Arrival::Imported) => Some(&mut want.armed_imported),
                    PairState::Armed(Arrival::Ordered) => Some(&mut want.armed_ordered),
                    PairState::Settled(Settled::Found) => Some(&mut want.found),
                    PairState::Settled(Settled::DecayedOut) => Some(&mut want.decayed_out),
                    PairState::Settled(Settled::Ordered { carried }) => Some(if carried {
                        &mut want.settled_carried
                    } else {
                        &mut want.settled_here
                    }),
                };
                state.into_iter().for_each(|n| *n += 1);
                want.edge_run += u64::from(record.edge == Some(Inference::Run));
                want.edge_carried += u64::from(record.edge == Some(Inference::Carried));
            }
            assert_eq!(set.counts(), want, "histogram, seed {seed}");
            set.assert_snapshot_consistent();
        }
    }

    /// `T` threads keep re-adding the benchmark's 904 pairs — real inserts
    /// at first, then nearly always the read-only answer — while one thread
    /// marks a fixed subset found and keeps evicting a fixed site until the
    /// adders are done. Found pairs are sticky and the evictor has the last
    /// word, so whatever the interleaving the final membership is exactly
    /// "all minus that subset"; a lost update in either direction (a stale
    /// clone swapped in, a no-op answered from a retired snapshot) breaks it.
    #[test]
    fn racing_readds_and_prunes_converge_to_all_minus_the_pruned() {
        const ADDERS: usize = 3;
        let sites: Vec<SiteId> = (0..64).map(|n| site(600 + n)).collect();
        // Every write site (the first 16) against every site at or after it.
        let all: Vec<SitePair> = (0..16)
            .flat_map(|w| (w..64).map(move |s| (w, s)))
            .map(|(w, s)| SitePair::new(sites[w], sites[s]))
            .collect();
        assert_eq!(all.len(), 904);
        let found: Vec<SitePair> = all.iter().copied().step_by(7).collect();
        let evicted = sites[3];
        let pruned = |p: &SitePair| found.contains(p) || p.contains(evicted);

        let set = TrapSet::new();
        let start = std::sync::Barrier::new(ADDERS + 1);
        let adders_done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..ADDERS {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..10 {
                        for &p in &all {
                            set.add(p);
                        }
                    }
                    adders_done.fetch_add(1, Ordering::SeqCst);
                });
            }
            scope.spawn(|| {
                start.wait();
                for &p in &found {
                    set.mark_found(p);
                }
                while adders_done.load(Ordering::SeqCst) < ADDERS {
                    set.remove_site(evicted);
                }
                set.remove_site(evicted);
            });
        });
        for &p in &all {
            assert_eq!(set.contains(p), !pruned(&p), "{p:?}");
        }
        assert_eq!(set.len(), all.iter().filter(|p| !pruned(p)).count());
        set.assert_snapshot_consistent();
    }

    /// Interleaving stress for the epoch swap: reader threads hammer the
    /// lock-free read path while a writer churns arms and prunes. Every
    /// observed snapshot must be internally consistent (site_refs derived
    /// exactly from the records), and an invariant pair that is never
    /// removed must be visible in every snapshot. Catches torn reads,
    /// premature reclamation (use-after-free would crash or desync), and
    /// lost updates from the copy-on-write protocol.
    #[test]
    fn epoch_swap_interleaving_stress() {
        let t = Arc::new(TrapSet::new());
        let anchor = SitePair::new(site(100), site(101));
        t.add(anchor);
        let stop = Arc::new(AtomicUsize::new(0));
        // The writer churns only once every reader has read once, so
        // `total > 0` holds however the threads are scheduled.
        let first_reads = Arc::new(std::sync::Barrier::new(4));
        let churned = [
            SitePair::new(site(102), site(103)),
            SitePair::new(site(102), site(104)),
        ];
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let t = t.clone();
                let stop = stop.clone();
                let first_reads = first_reads.clone();
                std::thread::spawn(move || {
                    let mut reads = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        assert!(t.contains(anchor), "anchor pair must never vanish");
                        assert!(t.contains_site(site(100)));
                        t.assert_snapshot_consistent();
                        // Every armed pair is the anchor or one of the
                        // writer's working set.
                        for p in t.armed_pairs() {
                            assert!(p == anchor || churned.contains(&p), "foreign pair {p:?}");
                        }
                        reads += 1;
                        if reads == 1 {
                            first_reads.wait();
                        }
                    }
                    reads
                })
            })
            .collect();
        first_reads.wait();
        for round in 0..400 {
            let [a, b] = churned;
            t.add(a);
            t.add(b);
            if round % 3 == 0 {
                t.remove_site(site(103));
                t.remove_site(site(102));
            } else {
                t.remove_site(site(102));
            }
            assert!(t.contains(anchor));
        }
        stop.store(1, Ordering::Relaxed);
        let total: u64 = readers
            .into_iter()
            .map(|r| r.join().expect("reader panicked"))
            .sum();
        assert!(total > 0, "readers must actually have observed snapshots");
        assert_eq!(t.len(), 1, "only the anchor survives the churn");
        t.assert_snapshot_consistent();
    }
}
