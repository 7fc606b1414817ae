//! The trap set: dangerous pairs of program locations (§3.4.1).
//!
//! The trap set grows as near misses are discovered and shrinks as pairs are
//! pruned — either because a likely happens-before relation was inferred
//! between the two locations, or because a violation was already caught at
//! the pair. Membership of a *location* in any pair is what makes
//! `should_delay` eligible at that location.
//!
//! Some pairs are *settled*: they never re-arm for the rest of the run. A
//! pair is settled when a violation is caught there (this run or, through
//! the trap file, an earlier one), and when a pair that arrived in a trap
//! file decays out — the previous run already spent its delays on it, so a
//! near miss re-arming it at `P = 1` would only spend them again. A pair
//! *discovered* in this run stays free to re-arm after it decays.
//!
//! `contains_site` is consulted on every instrumented access once any pair
//! is armed, so the set is kept as an immutable snapshot behind an
//! [`EpochPtr`]: readers pin the epoch (one store to their own slot), load
//! the pointer, and look up without any lock. Mutations read before they
//! write ([`EpochPtr::update`]): near misses rediscover the same pairs on
//! nearly every armed call, and a mutation that would change nothing takes
//! no lock and publishes nothing; one that does is decided under the writer
//! mutex and publishes a copy-on-write snapshot. An atomic pair count still
//! lets the empty set — a fresh run — answer without even pinning.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::audit;
use crate::chunks::{IdMap, IdSet};
use crate::epoch::EpochPtr;
use crate::near_miss::SitePair;
use crate::site::SiteId;

/// How an armed pair entered the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arrival {
    /// A near miss (or a vector-clock race) in this run.
    Discovered,
    /// A trap file: an earlier run's pair, or a static prior.
    Imported,
}

/// Why a pair never re-arms for the rest of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Settled {
    /// A violation was caught at the pair; persisted for the next run.
    Found,
    /// An imported pair decayed out; forgotten with the run.
    DecayedOut,
}

#[derive(Default, Clone)]
struct Snapshot {
    /// The armed pairs. `arm` looks a pair up here on every near miss.
    pairs: IdSet<SitePair>,
    /// The armed pairs that came from a trap file rather than a near miss
    /// in this run; always a subset of `pairs`.
    imported: IdSet<SitePair>,
    /// How many pairs each site participates in (for O(1) eligibility).
    site_refs: IdMap<SiteId, usize>,
    /// Pairs that are never re-added.
    settled: IdMap<SitePair, Settled>,
}

impl Snapshot {
    /// `true` when adding `pair` would change nothing.
    fn unchanged_by_add(&self, pair: SitePair) -> bool {
        self.pairs.contains(&pair) || self.settled.contains_key(&pair)
    }

    fn insert(&mut self, pair: SitePair, arrival: Arrival) -> bool {
        if self.unchanged_by_add(pair) {
            return false;
        }
        self.pairs.insert(pair);
        if arrival == Arrival::Imported {
            self.imported.insert(pair);
        }
        *self.site_refs.entry(pair.first).or_insert(0) += 1;
        if pair.second != pair.first {
            *self.site_refs.entry(pair.second).or_insert(0) += 1;
        }
        true
    }

    fn delete(&mut self, pair: SitePair) -> Option<Arrival> {
        if !self.pairs.remove(&pair) {
            return None;
        }
        let arrival = if self.imported.remove(&pair) {
            Arrival::Imported
        } else {
            Arrival::Discovered
        };
        decref(&mut self.site_refs, pair.first);
        if pair.second != pair.first {
            decref(&mut self.site_refs, pair.second);
        }
        Some(arrival)
    }
}

/// Thread-safe set of dangerous pairs with per-site membership counts.
///
/// Readers and no-op mutations are lock-free (epoch-pinned snapshot loads);
/// effective writers serialize and publish copy-on-write snapshots.
#[derive(Default)]
pub struct TrapSet {
    snapshot: EpochPtr<Snapshot>,
    pair_count: AtomicUsize,
}

impl TrapSet {
    /// Creates an empty trap set.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`EpochPtr::update`], mirroring a change in the number of pairs into
    /// the pair counter.
    fn write<R>(
        &self,
        noop: impl Fn(&Snapshot) -> Option<R>,
        mutate: impl FnOnce(&mut Snapshot) -> R,
    ) -> R {
        self.snapshot.update(noop, |next| {
            let before = next.pairs.len();
            let result = mutate(next);
            let after = next.pairs.len();
            if after != before {
                audit::note_shared_write();
                self.pair_count.store(after, Ordering::Release);
            }
            result
        })
    }

    /// Adds a discovered `pair` unless it is armed or settled already.
    /// Returns `true` if the pair is newly inserted.
    pub fn add(&self, pair: SitePair) -> bool {
        self.write(
            |s| s.unchanged_by_add(pair).then_some(false),
            |s| s.insert(pair, Arrival::Discovered),
        )
    }

    /// [`import`](Self::import) with no found pairs.
    pub fn add_many(&self, candidates: &[SitePair], max_len: usize) -> Vec<SitePair> {
        self.import(&[], candidates, max_len)
    }

    /// A trap file's pairs: settles every pair in `found` as found buggy,
    /// then adds every pair in `candidates` (in order) that is not already
    /// present or settled, stopping once the set holds `max_len` pairs.
    /// Returns the pairs actually inserted. One snapshot clone and one
    /// publish regardless of how many pairs settle or arm.
    pub fn import(
        &self,
        found: &[SitePair],
        candidates: &[SitePair],
        max_len: usize,
    ) -> Vec<SitePair> {
        self.write(
            |s| {
                let settled = found
                    .iter()
                    .all(|p| s.settled.get(p) == Some(&Settled::Found));
                let full =
                    s.pairs.len() >= max_len || candidates.iter().all(|&p| s.unchanged_by_add(p));
                (settled && full).then(Vec::new)
            },
            |s| {
                for &pair in found {
                    s.delete(pair);
                    s.settled.insert(pair, Settled::Found);
                }
                let mut inserted = Vec::new();
                for &pair in candidates {
                    if s.pairs.len() >= max_len {
                        break;
                    }
                    if s.insert(pair, Arrival::Imported) {
                        inserted.push(pair);
                    }
                }
                inserted
            },
        )
    }

    /// Removes `pair` (HB-inferred prune) without settling it. Returns
    /// `true` if it was present.
    pub fn remove(&self, pair: SitePair) -> bool {
        self.write(
            |s| (!s.pairs.contains(&pair)).then_some(false),
            |s| s.delete(pair).is_some(),
        )
    }

    /// Marks `pair` as found buggy: removes it and blocks re-insertion.
    pub fn mark_found(&self, pair: SitePair) {
        self.write(
            // A settled pair is never in `pairs`: `insert` refuses it.
            |s| (s.settled.get(&pair) == Some(&Settled::Found)).then_some(()),
            |s| {
                s.settled.insert(pair, Settled::Found);
                s.delete(pair);
            },
        )
    }

    /// Removes every pair containing `site` (decay eviction), returning the
    /// removed pairs. The imported ones among them settle for the rest of
    /// the run; the discovered ones may re-arm.
    pub fn remove_site(&self, site: SiteId) -> Vec<SitePair> {
        self.write(
            |s| (!s.site_refs.contains_key(&site)).then(Vec::new),
            |s| {
                let doomed: Vec<SitePair> = s
                    .pairs
                    .iter()
                    .filter(|p| p.contains(site))
                    .copied()
                    .collect();
                for &pair in &doomed {
                    if s.delete(pair) == Some(Arrival::Imported) {
                        s.settled.insert(pair, Settled::DecayedOut);
                    }
                }
                doomed
            },
        )
    }

    /// Returns `true` if `site` participates in at least one pair.
    pub fn contains_site(&self, site: SiteId) -> bool {
        if self.pair_count.load(Ordering::Acquire) == 0 {
            return false;
        }
        self.snapshot
            .read(|s| s.site_refs.get(&site).is_some_and(|&n| n > 0))
    }

    /// Returns `true` if `pair` is currently in the set.
    pub fn contains(&self, pair: SitePair) -> bool {
        if self.pair_count.load(Ordering::Acquire) == 0 {
            return false;
        }
        self.snapshot.read(|s| s.pairs.contains(&pair))
    }

    /// Returns the partner locations of every pair containing `site`
    /// (excluding `site` itself unless it self-pairs).
    pub fn partners(&self, site: SiteId) -> Vec<SiteId> {
        self.snapshot.read(|s| {
            s.pairs
                .iter()
                .filter(|p| p.contains(site))
                .map(|p| p.other(site))
                .collect()
        })
    }

    /// Snapshot of all pairs (for trap-file export).
    pub fn pairs(&self) -> Vec<SitePair> {
        self.snapshot.read(|s| s.pairs.iter().copied().collect())
    }

    /// Snapshot of the pairs found buggy, in this run or an imported
    /// file's (for trap-file export).
    pub fn found(&self) -> Vec<SitePair> {
        self.snapshot.read(|s| {
            s.settled
                .iter()
                .filter(|(_, &why)| why == Settled::Found)
                .map(|(&pair, _)| pair)
                .collect()
        })
    }

    /// Number of pairs currently in the set.
    pub fn len(&self) -> usize {
        self.pair_count.load(Ordering::Acquire)
    }

    /// Returns `true` if the set has no pairs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Asserts the internal consistency of the *current* snapshot: the
    /// site-reference counts must be exactly those derived from the pair
    /// set, and every imported pair must be armed. Readers racing a writer must only ever observe snapshots that
    /// pass this check — a torn view would fail it.
    #[cfg(test)]
    fn assert_snapshot_consistent(&self) {
        self.snapshot.read(|s| {
            let mut derived: IdMap<SiteId, usize> = IdMap::default();
            for p in s.pairs.iter() {
                *derived.entry(p.first).or_insert(0) += 1;
                if p.second != p.first {
                    *derived.entry(p.second).or_insert(0) += 1;
                }
            }
            assert_eq!(
                derived, s.site_refs,
                "snapshot site_refs must match the pair set"
            );
            assert!(
                s.imported.is_subset(&s.pairs),
                "an imported pair that is not armed"
            );
        });
    }
}

fn decref(refs: &mut IdMap<SiteId, usize>, site: SiteId) {
    if let Some(n) = refs.get_mut(&site) {
        *n = n.saturating_sub(1);
        if *n == 0 {
            refs.remove(&site);
        }
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
    fn remove_updates_site_refs() {
        let t = TrapSet::new();
        let p12 = SitePair::new(site(1), site(2));
        let p13 = SitePair::new(site(1), site(3));
        t.add(p12);
        t.add(p13);
        assert!(t.remove(p12));
        assert!(
            t.contains_site(site(1)),
            "site 1 still referenced by the other pair"
        );
        assert!(!t.contains_site(site(2)));
        assert!(!t.remove(p12), "already gone");
    }

    #[test]
    fn same_site_pair_refcount() {
        let t = TrapSet::new();
        let p = SitePair::new(site(7), site(7));
        t.add(p);
        assert!(t.contains_site(site(7)));
        t.remove(p);
        assert!(!t.contains_site(site(7)));
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
    fn pairs_snapshot() {
        let t = TrapSet::new();
        t.add(SitePair::new(site(1), site(2)));
        t.add(SitePair::new(site(3), site(4)));
        let mut pairs = t.pairs();
        pairs.sort();
        assert_eq!(pairs.len(), 2);
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
        let inserted = t.import(&[found], &[found, other], usize::MAX);
        assert_eq!(inserted, vec![other]);
        assert!(
            !t.contains(found),
            "a found pair is disarmed, then never armed"
        );
        assert!(!t.add(found));
        assert_eq!(t.found(), vec![found]);
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
        assert!(t.found().is_empty(), "decaying out is not a finding");
        t.mark_found(carried);
        assert_eq!(t.found(), vec![carried], "a catch still records it");
    }

    /// The obvious implementation the snapshot protocol must agree with.
    #[derive(Default)]
    struct Model {
        /// Armed pairs, `true` for those that came from a trap file.
        pairs: HashMap<SitePair, bool>,
        found: HashSet<SitePair>,
        decayed_out: HashSet<SitePair>,
        /// Imported pairs evicted so far, settled or not by now.
        evicted_imports: usize,
    }

    impl Model {
        fn insert(&mut self, pair: SitePair, imported: bool) -> bool {
            if self.found.contains(&pair)
                || self.decayed_out.contains(&pair)
                || self.pairs.contains_key(&pair)
            {
                return false;
            }
            self.pairs.insert(pair, imported);
            true
        }

        fn import(
            &mut self,
            found: &[SitePair],
            candidates: &[SitePair],
            max_len: usize,
        ) -> Vec<SitePair> {
            for &pair in found {
                self.mark_found(pair);
            }
            let mut inserted = Vec::new();
            for &pair in candidates {
                if self.pairs.len() >= max_len {
                    break;
                }
                if self.insert(pair, true) {
                    inserted.push(pair);
                }
            }
            inserted
        }

        fn mark_found(&mut self, pair: SitePair) {
            self.pairs.remove(&pair);
            self.decayed_out.remove(&pair);
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
                if self.pairs.remove(pair) == Some(true) {
                    self.decayed_out.insert(*pair);
                    self.evicted_imports += 1;
                }
            }
            doomed
        }

        fn armed(&self, pair: SitePair) -> bool {
            self.pairs.contains_key(&pair)
        }
    }

    /// Seeded differential: the same SplitMix64 stream of mutations drives a
    /// `TrapSet` and the model; every return value and every observable must
    /// agree after every operation, whether the operation took the
    /// read-only answer or the clone-and-swap.
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
                match rng.below(16) {
                    0..=6 => {
                        let p = pair(&mut rng);
                        assert_eq!(set.add(p), model.insert(p, false), "add, {at}");
                    }
                    7 | 8 => {
                        let found: Vec<SitePair> =
                            (0..rng.below(3) / 2).map(|_| pair(&mut rng)).collect();
                        let batch: Vec<SitePair> =
                            (0..rng.below(6)).map(|_| pair(&mut rng)).collect();
                        let budget = rng.below(90) as usize;
                        assert_eq!(
                            set.import(&found, &batch, budget),
                            model.import(&found, &batch, budget),
                            "import, {at}"
                        );
                    }
                    9..=12 => {
                        let p = pair(&mut rng);
                        assert_eq!(
                            set.remove(p),
                            model.pairs.remove(&p).is_some(),
                            "remove, {at}"
                        );
                    }
                    13 => {
                        let p = pair(&mut rng);
                        set.mark_found(p);
                        model.mark_found(p);
                    }
                    _ => {
                        let s = sites[rng.below(SITES) as usize];
                        let (mut got, mut want) = (set.remove_site(s), model.remove_site(s));
                        got.sort();
                        want.sort();
                        assert_eq!(got, want, "remove_site, {at}");
                    }
                }
                assert_eq!(set.len(), model.pairs.len(), "len, {at}");
                let probe = pair(&mut rng);
                assert_eq!(set.contains(probe), model.armed(probe), "contains, {at}");
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
            for &p in model.found.iter().chain(&model.decayed_out) {
                assert!(
                    !set.contains(p) && !set.add(p),
                    "settled pair re-armed, seed {seed}"
                );
            }
            let mut found = set.found();
            found.sort();
            let mut want: Vec<SitePair> = model.found.iter().copied().collect();
            want.sort();
            assert_eq!(found, want, "found pairs, seed {seed}");
            let mut armed = set.pairs();
            armed.sort();
            let mut want: Vec<SitePair> = model.pairs.keys().copied().collect();
            want.sort();
            assert_eq!(armed, want, "final membership, seed {seed}");
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
    /// exactly from pairs), and an invariant pair that is never removed
    /// must be visible in every snapshot. Catches torn reads, premature
    /// reclamation (use-after-free would crash or desync), and lost
    /// updates from the copy-on-write protocol.
    #[test]
    fn epoch_swap_interleaving_stress() {
        let t = Arc::new(TrapSet::new());
        let anchor = SitePair::new(site(100), site(101));
        t.add(anchor);
        let stop = Arc::new(AtomicUsize::new(0));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let t = t.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut reads = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        assert!(t.contains(anchor), "anchor pair must never vanish");
                        assert!(t.contains_site(site(100)));
                        t.assert_snapshot_consistent();
                        let partners = t.partners(site(102));
                        // Any partner of a churned site must be a churned
                        // site from the writer's working set.
                        for p in partners {
                            assert!(p == site(103) || p == site(104), "foreign partner {p:?}");
                        }
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        for round in 0..400 {
            let a = SitePair::new(site(102), site(103));
            let b = SitePair::new(site(102), site(104));
            t.add(a);
            t.add(b);
            if round % 3 == 0 {
                t.remove(a);
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
