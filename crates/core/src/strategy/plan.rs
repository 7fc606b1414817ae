//! The delay planner: everything a trap-set detector does *after* it has
//! decided that a pair is dangerous (§3.4.1, §3.4.5, §3.4.6).
//!
//! [`Tsvd`](super::Tsvd) and [`TsvdHb`](super::TsvdHb) differ only in how
//! they *discover* pairs — near misses and inferred happens-before on one
//! side, vector clocks on the other. What happens to a pair from then on is
//! one policy, the pair's lifecycle: one record per pair in the
//! [`TrapSet`], and one transition, [`PairRecord::on`], per event:
//!
//! | Event | From | Transition | Paper |
//! |---|---|---|---|
//! | `NearMiss` ([`arm`](DelayPlan::arm)) | a near miss; none when the pair has an HB edge | free → armed, both locations at `P_loc = 1`; an armed ordered pair → upgraded, an ordered settlement → lifted. A fork-ordered one: free → armed as ordered | §3.4.2, §3.4.3 (deviation) |
//! | `ImportFound`, `ImportOrdered`, `ImportInferred`, `ImportArmed` ([`import`](DelayPlan::import)) | a previous run's trap file | → settled found; free → settled as ordered, carried; an edge-less pair gets a carried edge (TSVD only); then free → armed | §3.4.6 |
//! | `SettleOrdered` ([`delay_done`](DelayPlan::delay_done)) | a fruitless delay at a location whose every pair is ordered | armed ordered → settled as ordered, no decay | §3.4.5 (deviation) |
//! | `Evict` ([`delay_done`](DelayPlan::delay_done)) | a fruitless delay that decays `P_loc` to the floor | armed → free if discovered, settled decayed-out if imported, settled as ordered if ordered | §3.4.5 |
//! | `Inferred` ([`inferred`](DelayPlan::inferred)) | delay propagation proved the pair ordered | → edge of this run; armed → free | §3.4.4 |
//! | `Found` ([`found`](DelayPlan::found)) | a violation caught at the pair | → settled found, never re-armed | §3.4.1 |
//!
//! Per location, not per pair: [`should_delay`](DelayPlan::should_delay)
//! delays an armed location with probability `P_loc`, and at a location
//! whose every pair is ordered one delay at a time — the context that
//! delays claims the location, another that gets there meanwhile does not
//! delay, and [`delay_done`](DelayPlan::delay_done) or
//! [`withdraw`](DelayPlan::withdraw) releases the claim.
//! [`export`](DelayPlan::export) writes the table as the next run's trap
//! file (§3.4.6).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::chunks::IdMap;
use crate::config::TsvdConfig;
use crate::context::ContextId;
use crate::decay::DecayTable;
use crate::hb_infer::Inference;
use crate::near_miss::SitePair;
use crate::site::SiteId;
use crate::trap_file::TrapFileData;
use crate::trapset::{ArmedSite, PairCounts, PairEvent, PairState, Settled, TrapSet};

/// Trap set, per-location delay probabilities and the delay length of one
/// detector instance.
pub(super) struct DelayPlan {
    traps: TrapSet,
    decay: DecayTable,
    rng: Mutex<SmallRng>,
    delay_ns: u64,
    /// Ordered-only locations with a delay running, each with the context
    /// that runs it.
    running: Mutex<IdMap<SiteId, ContextId>>,
    /// `running`'s length, readable without its lock.
    running_count: AtomicUsize,
    /// What no record keeps, indexed by [`Tally`].
    tallies: [AtomicU64; 4],
}

/// The events no record keeps, in [`PairCounts`]' order.
#[derive(Clone, Copy)]
enum Tally {
    /// A delay at a location whose every armed pair is ordered.
    OrderedDelay,
    /// A delay there not injected because another context's ran.
    OrderedSkipped,
    /// An ordered near miss a carried ordered settlement kept out.
    SettlementKeptOut,
    /// A near miss a carried HB edge kept out.
    EdgeKeptOut,
}

impl DelayPlan {
    /// Creates an empty plan from `config`. `salt` separates the detectors'
    /// `P_loc` draw streams under one `config.seed`.
    pub fn new(config: &TsvdConfig, salt: u64) -> Self {
        DelayPlan {
            traps: TrapSet::new(),
            decay: DecayTable::new(config.decay_factor, config.decay_floor),
            rng: Mutex::new(SmallRng::seed_from_u64(config.seed ^ salt)),
            delay_ns: config.delay_ns,
            running: Mutex::default(),
            running_count: AtomicUsize::new(0),
            tallies: Default::default(),
        }
    }

    fn note(&self, tally: Tally) {
        self.tallies[tally as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// A near miss of `pair`, fork-ordered or not: arms it unless it is
    /// armed already, settled, or HB-ordered. An ordered pair arms at
    /// `P_loc = 1` like any pair, because its delay stretches the task into
    /// overlaps with its siblings that expose their races; but a fruitless
    /// delay at a location whose every pair is ordered settles them instead
    /// of decaying. An unordered near miss upgrades an armed ordered pair
    /// and lifts an ordered settlement: the parent accessed the object
    /// after the spawn as well, which races for real. Returns `true` if the
    /// pair is newly armed.
    pub fn arm(&self, pair: SitePair, ordered: bool) -> bool {
        let event = PairEvent::NearMiss { ordered };
        let before = self.traps.apply(pair, event);
        let Some(after) = before.on(event) else {
            let carried = PairState::Settled(Settled::Ordered { carried: true });
            match before.edge {
                Some(Inference::Carried) => self.note(Tally::EdgeKeptOut),
                None if ordered && before.state == carried => {
                    self.note(Tally::SettlementKeptOut);
                }
                _ => {}
            }
            return false;
        };
        let armed = before.arrival().is_none() && after.arrival().is_some();
        if armed {
            self.decay.arm(pair.first);
            self.decay.arm(pair.second);
        }
        armed
    }

    /// Delay propagation proved `pair` ordered: an armed pair is pruned,
    /// and no near miss arms it again in this run or, through the trap
    /// file, the next. A repeat is one snapshot read.
    pub fn inferred(&self, pair: SitePair) {
        self.traps.apply(pair, PairEvent::Inferred);
    }

    /// `should_delay`: the delay to inject at `site` now — members of the
    /// trap set delay with probability `P_loc`, always for `delay_ns` (the
    /// paper's one `delay_time`, which Fig. 9 h sweeps per run). At a
    /// location whose every pair is ordered, `context` claims the location
    /// for its delay, and until [`delay_done`](Self::delay_done) or
    /// [`withdraw`](Self::withdraw) releases it no other context delays
    /// there: the pairs' one delay is running.
    #[inline]
    pub fn should_delay(&self, site: SiteId, context: ContextId) -> Option<u64> {
        let armed = self.traps.armed_site(site)?;
        let p = self.decay.probability(site);
        if p < 1.0 && self.rng.lock().gen::<f64>() >= p {
            return None;
        }
        if armed == ArmedSite::OrderedOnly && !self.claim(site, context) {
            self.note(Tally::OrderedSkipped);
            return None;
        }
        Some(self.delay_ns)
    }

    /// Claims ordered-only `site` for `context`'s delay; `false` if another
    /// context's delay holds it.
    fn claim(&self, site: SiteId, context: ContextId) -> bool {
        let mut running = self.running.lock();
        let holder = *running.entry(site).or_insert(context);
        self.running_count.store(running.len(), Ordering::Release);
        holder == context
    }

    /// `context`'s delay at `site`, granted by
    /// [`should_delay`](Self::should_delay), was not injected (the budget
    /// or the watchdog refused it, or a catch before its sleep made it
    /// moot), or has finished: its claim on the location, if it holds one,
    /// is released. Free when no claim is held at all, which is every call
    /// of a run with no ordered pair.
    pub fn withdraw(&self, site: SiteId, context: ContextId) {
        if self.running_count.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut running = self.running.lock();
        if running.get(&site) == Some(&context) {
            running.remove(&site);
            self.running_count.store(running.len(), Ordering::Release);
        }
    }

    /// `context`'s delay at `site` finished; `caught` says whether a
    /// conflicting access ran into the trap meanwhile.
    pub fn delay_done(&self, site: SiteId, context: ContextId, caught: bool) {
        // A location whose every pair is ordered gets one delay, not a
        // ladder: a fruitless one settles its pairs for the run, before the
        // claim is released, so no second context delays in between.
        if self.traps.armed_site(site) == Some(ArmedSite::OrderedOnly) {
            self.note(Tally::OrderedDelay);
            if !caught {
                self.traps.settle_ordered(site);
            }
            self.withdraw(site, context);
            return;
        }
        self.withdraw(site, context);
        // Decay the delayed location (§3.4.5); when its probability hits
        // the floor, evict its pairs. The decay is deliberately
        // per-location, not per-pair-endpoint: punishing the *partner* for
        // this site's fruitless delays would kill exactly the asymmetric
        // pairs the tool exists for (a hot reader paired with a rare writer
        // — the Table 4 singleton-init races).
        if !caught && self.decay.decay(site) {
            self.traps.remove_site(site);
        }
    }

    /// "A violation is already found at the pair" — prune it for good.
    pub fn found(&self, pair: SitePair) {
        self.traps.apply(pair, PairEvent::Found);
    }

    /// The table as the next run's trap file.
    pub fn export(&self) -> TrapFileData {
        self.traps.export()
    }

    /// Settles a previous run's found pairs, then its ordered settlements,
    /// gives the pairs of its inferred edges a carried edge when `edges`
    /// says this detector reads them, then arms every other pair the file
    /// carries, in file order. Bulk insertion publishes one table snapshot
    /// and one decay-table snapshot no matter how many pairs the file
    /// carries.
    pub fn import(&self, data: &TrapFileData, edges: bool) {
        let lists = [
            (data.found_pairs(), PairEvent::ImportFound),
            (data.ordered_pairs(), PairEvent::ImportOrdered),
            (
                if edges {
                    data.inferred_pairs()
                } else {
                    Vec::new()
                },
                PairEvent::ImportInferred,
            ),
        ];
        let settle: Vec<(SitePair, PairEvent)> = lists
            .iter()
            .flat_map(|(pairs, event)| pairs.iter().map(move |&p| (p, *event)))
            .collect();
        let inserted = self.traps.import(&settle, &data.to_pairs(), usize::MAX);
        if !inserted.is_empty() {
            self.decay
                .arm_many(inserted.iter().flat_map(|p| [p.first, p.second]));
        }
    }

    /// The table's histogram and the events no record keeps.
    pub fn counts(&self) -> PairCounts {
        let [ordered_delays, ordered_skipped, settlement_kept_out, edge_kept_out] =
            self.tallies.each_ref().map(|n| n.load(Ordering::Relaxed));
        PairCounts {
            ordered_delays,
            ordered_skipped,
            settlement_kept_out,
            edge_kept_out,
            ..self.traps.counts()
        }
    }

    /// Number of armed pairs.
    pub fn len(&self) -> usize {
        self.traps.len()
    }

    /// Returns `true` if `pair` is currently armed.
    pub fn is_armed(&self, pair: SitePair) -> bool {
        self.traps.contains(pair)
    }

    /// Approximate bytes retained (tiny next to any discovery state).
    pub fn memory_bytes(&self) -> usize {
        self.traps.len() * std::mem::size_of::<SitePair>() + self.decay.armed_count() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteData;
    use crate::trap_file::PairOrigin;

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "delay_plan_test.rs",
            line: n,
            column: 1,
        })
    }

    /// The context every single-context test delays as.
    const ME: ContextId = ContextId(1);

    fn pair(a: u32, b: u32) -> SitePair {
        SitePair::new(site(a), site(b))
    }

    fn config() -> TsvdConfig {
        TsvdConfig::paper()
    }

    fn plan(config: &TsvdConfig) -> DelayPlan {
        DelayPlan::new(config, 0x7547)
    }

    #[test]
    fn only_armed_sites_delay() {
        let c = config();
        let p = plan(&c);
        assert_eq!(p.should_delay(site(1), ME), None);
        assert!(p.arm(pair(1, 2), false));
        assert!(!p.arm(pair(1, 2), false), "arming twice changes nothing");
        assert_eq!(p.should_delay(site(1), ME), Some(c.delay_ns));
        assert_eq!(p.should_delay(site(2), ME), Some(c.delay_ns));
        assert_eq!(p.should_delay(site(3), ME), None);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn fruitless_delays_decay_to_eviction_and_catches_do_not() {
        let mut c = config();
        c.decay_factor = 0.5;
        c.decay_floor = 0.3;
        let p = plan(&c);
        p.arm(pair(1, 2), false);
        for _ in 0..10 {
            p.delay_done(site(1), ME, true);
        }
        assert!(p.is_armed(pair(1, 2)), "catching delays never decay");
        // Two fruitless delays at site(1): 1.0 → 0.5 → 0.25 < 0.3 → evict.
        p.delay_done(site(1), ME, false);
        assert_eq!(p.len(), 1);
        p.delay_done(site(1), ME, false);
        assert_eq!(p.len(), 0, "decayed location evicts its pairs");
        assert_eq!(p.should_delay(site(2), ME), None);
    }

    #[test]
    fn inferred_pairs_rearm_only_from_a_file_and_found_pairs_never_do() {
        let p = plan(&config());
        p.arm(pair(1, 2), false);
        p.inferred(pair(1, 2));
        assert!(!p.is_armed(pair(1, 2)));
        assert!(!p.arm(pair(1, 2), false), "an HB-ordered pair stays out");
        let mut file = TrapFileData::default();
        file.push(
            (site(1).to_string(), site(2).to_string()),
            PairOrigin::Dynamic,
        );
        p.import(&file, true);
        assert!(p.is_armed(pair(1, 2)), "a file's pair arms all the same");
        p.found(pair(1, 2));
        assert!(!p.is_armed(pair(1, 2)));
        assert!(!p.arm(pair(1, 2), false), "a found pair is pruned for good");
        p.import(&file, true);
        assert_eq!(p.len(), 0, "not even a trap file re-arms it");
        let file = p.export();
        assert_eq!(file.found_pairs(), [pair(1, 2)]);
        assert_eq!(file.inferred_pairs(), [pair(1, 2)], "and it keeps its edge");
    }

    #[test]
    fn export_import_round_trip_prearms_pairs() {
        let c = config();
        let first = plan(&c);
        first.arm(pair(1, 2), false);
        first.arm(pair(3, 4), false);
        let second = plan(&c);
        second.import(&first.export(), true);
        assert!(second.is_armed(pair(1, 2)) && second.is_armed(pair(3, 4)));
        // Imported pairs delay on their very first occurrence.
        assert_eq!(second.should_delay(site(3), ME), Some(c.delay_ns));
    }

    #[test]
    fn found_pairs_round_trip_through_export_and_import() {
        let c = config();
        let first = plan(&c);
        first.arm(pair(5, 6), false);
        first.found(pair(5, 6));
        first.found(pair(7, 8)); // Caught without ever being armed here.
        first.arm(pair(9, 10), false);
        let file = first.export();
        assert_eq!(file.pairs.len(), 1);
        let mut found = file.found_pairs();
        found.sort();
        let mut want = vec![pair(5, 6), pair(7, 8)];
        want.sort();
        assert_eq!(found, want);

        let second = plan(&c);
        second.import(&file, true);
        assert!(second.is_armed(pair(9, 10)));
        assert!(
            !second.arm(pair(5, 6), false),
            "a found pair is settled in run 2"
        );
        assert_eq!(second.export(), file, "and found again in run 3's file");
    }

    #[test]
    fn a_pair_listed_found_and_armed_in_one_file_never_arms() {
        let mut file = TrapFileData::default();
        for (a, b) in [(11, 12), (13, 14)] {
            file.push(
                (site(a).to_string(), site(b).to_string()),
                PairOrigin::Static,
            );
        }
        file.found = vec![(site(11).to_string(), site(12).to_string())];
        let p = plan(&config());
        p.import(&file, true);
        assert!(!p.is_armed(pair(11, 12)), "found wins over the prior");
        assert!(p.is_armed(pair(13, 14)), "and the other prior arms");
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn export_spells_each_pair_in_site_text_order_whatever_the_intern_order() {
        // Intern the lines last-first: every `SitePair` then holds the
        // higher line as its `first`.
        let reversed: Vec<SiteId> = (1..=9)
            .rev()
            .map(|line| {
                SiteId::intern(SiteData {
                    file: "reverse_intern_test.rs",
                    line,
                    column: 1,
                })
            })
            .collect();
        let at = |line: usize| reversed[9 - line];
        let p = plan(&config());
        for (a, b) in [(3, 1), (2, 4), (9, 5)] {
            p.arm(SitePair::new(at(a), at(b)), false);
        }
        p.found(SitePair::new(at(8), at(6)));
        let text = |line: u32| format!("reverse_intern_test.rs:{line}:1");
        // What a process that interned the lines first-first writes.
        let mut want = TrapFileData::default();
        for (a, b) in [(1, 3), (2, 4), (5, 9)] {
            want.push((text(a), text(b)), PairOrigin::Dynamic);
        }
        want.found = vec![(text(6), text(8))];
        assert_eq!(p.export(), want);
    }

    #[test]
    fn an_ordered_pair_delays_once_then_settles_for_the_run() {
        let c = config();
        let p = plan(&c);
        assert!(p.arm(pair(1, 2), true));
        assert!(!p.arm(pair(1, 2), true), "arming twice changes nothing");
        assert_eq!(
            p.should_delay(site(2), ME),
            Some(c.delay_ns),
            "armed at P = 1"
        );
        p.delay_done(site(2), ME, false);
        assert!(!p.is_armed(pair(1, 2)), "one fruitless delay settles it");
        assert_eq!(p.should_delay(site(1), ME), None);
        assert_eq!(p.should_delay(site(2), ME), None);
        assert!(!p.arm(pair(1, 2), true), "an ordered near miss leaves it");
        let counts = PairCounts {
            settled_here: 1,
            ordered_delays: 1,
            ..PairCounts::default()
        };
        assert_eq!(p.counts(), counts);
        let file = p.export();
        assert!(file.pairs.is_empty(), "nor is it armed in the next run");
        assert_eq!(
            file.ordered_pairs(),
            [pair(1, 2)],
            "its settlement is carried"
        );
    }

    #[test]
    fn an_ordered_settlement_is_carried_through_export_and_import() {
        let c = config();
        let first = plan(&c);
        first.arm(pair(1, 2), true);
        first.delay_done(site(2), ME, false);
        first.arm(pair(3, 4), false);
        let file = first.export();
        assert_eq!(file.to_pairs(), [pair(3, 4)]);
        assert_eq!(file.ordered_pairs(), [pair(1, 2)]);

        let second = plan(&c);
        second.import(&file, true);
        assert!(second.is_armed(pair(3, 4)));
        assert!(!second.is_armed(pair(1, 2)), "settled, not armed");
        assert_eq!(second.counts().settled_carried, 1);
        assert_eq!(second.export(), file, "and carried on to run 3");
    }

    #[test]
    fn a_carried_settlement_keeps_an_ordered_near_miss_out_and_an_unordered_one_lifts_it() {
        let c = config();
        let first = plan(&c);
        first.arm(pair(1, 2), true);
        first.delay_done(site(2), ME, false);
        let second = plan(&c);
        second.import(&first.export(), true);
        for _ in 0..3 {
            assert!(!second.arm(pair(1, 2), true), "run 2 does not pay again");
            assert_eq!(second.should_delay(site(2), ME), None);
        }
        let counts = second.counts();
        assert_eq!(
            (
                counts.settled_carried,
                counts.settlement_kept_out,
                counts.armed_ordered
            ),
            (1, 3, 0)
        );
        assert!(
            second.arm(pair(1, 2), false),
            "a parent writing after the spawn races"
        );
        assert_eq!(second.should_delay(site(2), ME), Some(c.delay_ns));
        assert_eq!(second.export().to_pairs(), [pair(1, 2)]);
        assert!(
            second.export().ordered.is_empty(),
            "the lifted one is not carried"
        );
        assert_eq!(second.counts().settlement_kept_out, 3);
    }

    #[test]
    fn a_caught_ordered_pair_still_armed_is_not_carried_and_found_wins() {
        let c = config();
        let first = plan(&c);
        first.arm(pair(1, 2), true);
        first.delay_done(site(2), ME, true);
        assert!(
            first.is_armed(pair(1, 2)),
            "a catching delay keeps it armed"
        );
        let file = first.export();
        assert!(file.pairs.is_empty() && file.ordered.is_empty(), "{file:?}");

        // A pair a file lists both as found and as ordered is found.
        let mut both = TrapFileData::from_lists(&[], &[pair(5, 6)], &[pair(5, 6), pair(7, 8)], &[]);
        both.push(
            (site(5).to_string(), site(6).to_string()),
            PairOrigin::Static,
        );
        let second = plan(&c);
        second.import(&both, true);
        assert_eq!(second.len(), 0);
        assert_eq!(second.counts().settled_carried, 1, "only (7, 8)");
        assert!(
            !second.arm(pair(5, 6), false),
            "found: not even an unordered near miss"
        );
        assert!(
            second.arm(pair(7, 8), false),
            "ordered: an unordered near miss lifts it"
        );
        let file = second.export();
        assert_eq!(file.found_pairs(), [pair(5, 6)]);
        assert!(file.ordered.is_empty());
    }

    #[test]
    fn an_ordered_only_location_runs_one_delay_at_a_time() {
        let c = config();
        let p = plan(&c);
        let other = ContextId(2);
        p.arm(pair(1, 2), true);
        assert_eq!(p.should_delay(site(2), ME), Some(c.delay_ns));
        assert_eq!(p.should_delay(site(2), other), None, "ME's delay runs");
        assert_eq!(p.should_delay(site(2), other), None);
        p.delay_done(site(2), ME, true);
        assert_eq!(
            p.should_delay(site(2), other),
            Some(c.delay_ns),
            "a catch keeps the pair armed, and the claim is released"
        );
        p.delay_done(site(2), other, false);
        assert!(!p.is_armed(pair(1, 2)));
        let counts = p.counts();
        assert_eq!(
            (
                counts.ordered_delays,
                counts.ordered_skipped,
                counts.settled_here
            ),
            (2, 2, 1)
        );
        // A location with an unordered pair claims nothing.
        p.arm(pair(3, 4), false);
        assert_eq!(p.should_delay(site(3), ME), Some(c.delay_ns));
        assert_eq!(p.should_delay(site(3), other), Some(c.delay_ns));
        assert_eq!(p.counts().ordered_skipped, 2);
    }

    #[test]
    fn a_withdrawn_delay_releases_its_claim_and_only_its_own() {
        let c = config();
        let p = plan(&c);
        let other = ContextId(2);
        p.arm(pair(1, 2), true);
        assert_eq!(p.should_delay(site(2), ME), Some(c.delay_ns));
        p.withdraw(site(2), other);
        assert_eq!(p.should_delay(site(2), other), None, "not other's claim");
        p.withdraw(site(2), ME);
        assert_eq!(p.should_delay(site(2), other), Some(c.delay_ns));
        assert!(p.is_armed(pair(1, 2)), "a withdrawn delay settles nothing");
        let counts = p.counts();
        assert_eq!(
            (
                counts.ordered_delays,
                counts.ordered_skipped,
                counts.settled_here
            ),
            (0, 1, 0)
        );
    }

    #[test]
    fn a_catching_delay_keeps_an_ordered_pair_armed() {
        let c = config();
        let p = plan(&c);
        p.arm(pair(1, 2), true);
        for _ in 0..3 {
            p.delay_done(site(2), ME, true);
            assert_eq!(p.should_delay(site(2), ME), Some(c.delay_ns));
        }
        assert!(p.is_armed(pair(1, 2)));
        assert_eq!(p.counts().ordered_delays, 3);
        assert_eq!(p.counts().settled_here, 0);
    }

    #[test]
    fn an_unordered_near_miss_arms_the_pair_before_and_after_settlement() {
        let mut c = config();
        c.decay_factor = 0.5;
        c.decay_floor = 0.3;
        // Before: the armed ordered pair becomes an ordinary one and
        // climbs down the decay ladder instead of settling.
        let p = plan(&c);
        p.arm(pair(1, 2), true);
        assert!(
            !p.arm(pair(1, 2), false),
            "armed already: upgraded, not re-armed"
        );
        p.delay_done(site(2), ME, false);
        assert!(p.is_armed(pair(1, 2)), "decayed to 0.5, not settled");
        p.delay_done(site(2), ME, false);
        assert!(!p.is_armed(pair(1, 2)), "evicted at the floor");
        assert!(p.arm(pair(1, 2), false), "a discovered pair re-arms");
        assert_eq!(p.counts().settled_here, 0);
        // After: the settlement is lifted and the pair arms at P = 1.
        let p = plan(&c);
        p.arm(pair(3, 4), true);
        p.delay_done(site(4), ME, false);
        assert!(!p.is_armed(pair(3, 4)));
        assert!(
            p.arm(pair(3, 4), false),
            "a parent writing after the spawn races"
        );
        assert_eq!(p.should_delay(site(4), ME), Some(c.delay_ns));
        p.delay_done(site(4), ME, false);
        assert!(p.is_armed(pair(3, 4)), "and decays like any pair");
        assert!(
            !p.arm(pair(3, 4), true),
            "an ordered one leaves it as it is"
        );
        p.delay_done(site(4), ME, false);
        assert!(!p.is_armed(pair(3, 4)));
        assert_eq!(p.counts().ordered_delays, 1);
    }

    #[test]
    fn a_location_with_an_unordered_pair_decays_and_settles_its_ordered_pairs_at_the_floor() {
        let mut c = config();
        c.decay_factor = 0.5;
        c.decay_floor = 0.3;
        let p = plan(&c);
        p.arm(pair(1, 2), true);
        p.arm(pair(2, 3), false);
        p.delay_done(site(2), ME, false);
        assert_eq!(p.len(), 2, "a ladder step, no settlement");
        p.delay_done(site(2), ME, false);
        assert_eq!(p.len(), 0, "the floor evicts both");
        assert!(!p.arm(pair(1, 2), true), "the ordered pair is settled");
        assert!(p.arm(pair(2, 3), false), "the discovered one may re-arm");
        let counts = p.counts();
        assert_eq!((counts.ordered_delays, counts.settled_here), (0, 1));
    }

    #[test]
    fn export_omits_armed_ordered_pairs() {
        let p = plan(&config());
        p.arm(pair(1, 2), true);
        p.arm(pair(3, 4), false);
        p.arm(pair(5, 6), true);
        p.arm(pair(5, 6), false); // Upgraded.
        assert_eq!(p.len(), 3);
        let mut carried = p.export().to_pairs();
        carried.sort();
        let mut want = vec![pair(3, 4), pair(5, 6)];
        want.sort();
        assert_eq!(carried, want);
    }

    #[test]
    fn every_delay_is_delay_ns_long_whatever_came_before() {
        let mut c = config();
        c.decay_factor = 0.0; // Keep P at 1 so every hit delays.
        let p = plan(&c);
        p.arm(pair(1, 2), false);
        for caught in [false, false, false, true, false] {
            p.delay_done(site(2), ME, caught);
            assert_eq!(p.should_delay(site(2), ME), Some(c.delay_ns));
        }
    }
}
