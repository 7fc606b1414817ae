//! The delay planner: everything a trap-set detector does *after* it has
//! decided that a pair is dangerous (§3.4.1, §3.4.5, §3.4.6).
//!
//! [`Tsvd`](super::Tsvd) and [`TsvdHb`](super::TsvdHb) differ only in how
//! they *discover* pairs — near misses and inferred happens-before on one
//! side, vector clocks on the other. What happens to a pair from then on is
//! one policy, stated here once, as the pair's lifecycle:
//!
//! | Verb | Transition | Paper |
//! |---|---|---|
//! | [`arm`](DelayPlan::arm) | discovered → armed, both locations at `P_loc = 1` | §3.4.2 |
//! | [`import`](DelayPlan::import) | a previous run's found pairs → settled; then its pairs armed, best-graded first, under `trap_import_budget` | §3.4.6 |
//! | [`should_delay`](DelayPlan::should_delay) | armed location → delay with probability `P_loc` | §3.4.5 |
//! | [`delay_done`](DelayPlan::delay_done) | fruitless delay → `P_loc` decays; at the floor the location's pairs are evicted, and an imported one among them is settled for the run | §3.4.5 |
//! | [`retire`](DelayPlan::retire) | armed → pruned: the discovery side proved the pair ordered | §3.4.4 |
//! | [`found`](DelayPlan::found) | armed → caught: pruned for good, never re-armed | §3.4.1 |
//! | [`export`](DelayPlan::export) | what is still armed, and every found pair, for the next run | §3.4.6 |

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::chunks::IdMap;
use crate::config::TsvdConfig;
use crate::decay::DecayTable;
use crate::near_miss::SitePair;
use crate::site::SiteId;
use crate::trap_file::TrapFileData;
use crate::trapset::TrapSet;

/// Trap set, per-location delay probabilities and the delay length of one
/// detector instance.
pub(super) struct DelayPlan {
    traps: TrapSet,
    decay: DecayTable,
    rng: Mutex<SmallRng>,
    delay_ns: u64,
    /// Extension: per-site delay multipliers (see
    /// [`TsvdConfig::adaptive_delay`]). `None` when the extension is off.
    adaptive: Option<Mutex<IdMap<SiteId, u32>>>,
    adaptive_cap: u32,
    /// Cap on pairs armed from imported trap files (see
    /// [`TsvdConfig::trap_import_budget`]). Dynamically discovered pairs
    /// are never budgeted — the cap only rations *seeded* candidates.
    import_budget: usize,
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
            adaptive: config.adaptive_delay.then(Mutex::default),
            adaptive_cap: config.adaptive_delay_cap.max(1.0) as u32,
            import_budget: config.trap_import_budget,
        }
    }

    /// Arms `pair` unless it is armed already or settled: found buggy, or
    /// imported and decayed out. Returns `true` if it is newly armed.
    pub fn arm(&self, pair: SitePair) -> bool {
        let armed = self.traps.add(pair);
        if armed {
            self.decay.arm(pair.first);
            self.decay.arm(pair.second);
        }
        armed
    }

    /// Prunes `pair`: its two locations are ordered. Unlike
    /// [`found`](Self::found) this does not block re-arming; the discovery
    /// side remembers what it proved.
    pub fn retire(&self, pair: SitePair) {
        self.traps.remove(pair);
    }

    /// `should_delay`: the delay to inject at `site` now — members of the
    /// trap set delay with probability `P_loc`.
    #[inline]
    pub fn should_delay(&self, site: SiteId) -> Option<u64> {
        if !self.traps.contains_site(site) {
            return None;
        }
        let p = self.decay.probability(site);
        if p < 1.0 && self.rng.lock().gen::<f64>() >= p {
            return None;
        }
        // Extension: lengthen repeatedly fruitless delays.
        let multiplier = self
            .adaptive
            .as_ref()
            .map_or(1, |m| m.lock().get(&site).copied().unwrap_or(1));
        Some(self.delay_ns * u64::from(multiplier))
    }

    /// A delay injected at `site` finished; `caught` says whether a
    /// conflicting access ran into the trap meanwhile.
    pub fn delay_done(&self, site: SiteId, caught: bool) {
        if let Some(m) = &self.adaptive {
            let mut m = m.lock();
            let e = m.entry(site).or_insert(1);
            if caught {
                *e = 1; // This length works; stop escalating.
            } else {
                *e = (*e * 2).min(self.adaptive_cap);
            }
        }
        // Decay the delayed location (§3.4.5); when its probability hits
        // the floor, evict its pairs (an imported pair evicted here settles
        // for the run: the run that exported it already paid its delays
        // without a catch; one discovered in this run may re-arm). The decay
        // is deliberately per-location, not per-pair-endpoint: punishing the
        // *partner* for this site's fruitless delays would kill exactly the
        // asymmetric pairs the tool exists for (a hot reader paired with a
        // rare writer — the Table 4 singleton-init races).
        if !caught && self.decay.decay(site) {
            self.traps.remove_site(site);
        }
    }

    /// "A violation is already found at the pair" — prune it for good.
    pub fn found(&self, pair: SitePair) {
        self.traps.mark_found(pair);
    }

    /// The armed pairs and the found ones, as the next run's trap file.
    pub fn export(&self) -> TrapFileData {
        TrapFileData::from_pairs(&self.traps.pairs()).with_found(&self.traps.found())
    }

    /// Settles a previous run's found pairs, then arms its pairs, highest
    /// confidence first: under a finite import budget the static
    /// analyzer's best-graded candidates get the delay budget, and a pair
    /// the file also lists as found never arms. Bulk insertion publishes
    /// one trap-set snapshot and one decay-table snapshot no matter how
    /// many pairs the file carries.
    pub fn import(&self, data: &TrapFileData) {
        let candidates: Vec<SitePair> = data
            .arming_order()
            .into_iter()
            .filter_map(|index| data.pair_at(index))
            .collect();
        let inserted = self
            .traps
            .import(&data.found_pairs(), &candidates, self.import_budget);
        if !inserted.is_empty() {
            self.decay
                .arm_many(inserted.iter().flat_map(|p| [p.first, p.second]));
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
        assert_eq!(p.should_delay(site(1)), None);
        assert!(p.arm(pair(1, 2)));
        assert!(!p.arm(pair(1, 2)), "arming twice changes nothing");
        assert_eq!(p.should_delay(site(1)), Some(c.delay_ns));
        assert_eq!(p.should_delay(site(2)), Some(c.delay_ns));
        assert_eq!(p.should_delay(site(3)), None);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn fruitless_delays_decay_to_eviction_and_catches_do_not() {
        let mut c = config();
        c.decay_factor = 0.5;
        c.decay_floor = 0.3;
        let p = plan(&c);
        p.arm(pair(1, 2));
        for _ in 0..10 {
            p.delay_done(site(1), true);
        }
        assert!(p.is_armed(pair(1, 2)), "catching delays never decay");
        // Two fruitless delays at site(1): 1.0 → 0.5 → 0.25 < 0.3 → evict.
        p.delay_done(site(1), false);
        assert_eq!(p.len(), 1);
        p.delay_done(site(1), false);
        assert_eq!(p.len(), 0, "decayed location evicts its pairs");
        assert_eq!(p.should_delay(site(2)), None);
    }

    #[test]
    fn retired_pairs_may_rearm_and_found_pairs_never_do() {
        let p = plan(&config());
        p.arm(pair(1, 2));
        p.retire(pair(1, 2));
        assert!(!p.is_armed(pair(1, 2)));
        assert!(p.arm(pair(1, 2)), "retire leaves re-arming to discovery");
        p.found(pair(1, 2));
        assert!(!p.is_armed(pair(1, 2)));
        assert!(!p.arm(pair(1, 2)), "a found pair is pruned for good");
        let mut file = TrapFileData::default();
        file.push(
            (site(1).to_string(), site(2).to_string()),
            PairOrigin::Dynamic,
        );
        p.import(&file);
        assert_eq!(p.len(), 0, "not even a trap file re-arms it");
    }

    #[test]
    fn export_import_round_trip_prearms_pairs() {
        let c = config();
        let first = plan(&c);
        first.arm(pair(1, 2));
        first.arm(pair(3, 4));
        let second = plan(&c);
        second.import(&first.export());
        assert!(second.is_armed(pair(1, 2)) && second.is_armed(pair(3, 4)));
        // Imported pairs delay on their very first occurrence.
        assert_eq!(second.should_delay(site(3)), Some(c.delay_ns));
    }

    #[test]
    fn found_pairs_round_trip_through_export_and_import() {
        let c = config();
        let first = plan(&c);
        first.arm(pair(5, 6));
        first.found(pair(5, 6));
        first.found(pair(7, 8)); // Caught without ever being armed here.
        first.arm(pair(9, 10));
        let file = first.export();
        assert_eq!(file.pairs.len(), 1);
        let mut found = file.found_pairs();
        found.sort();
        let mut want = vec![pair(5, 6), pair(7, 8)];
        want.sort();
        assert_eq!(found, want);

        let second = plan(&c);
        second.import(&file);
        assert!(second.is_armed(pair(9, 10)));
        assert!(!second.arm(pair(5, 6)), "a found pair is settled in run 2");
        assert_eq!(second.export(), file, "and found again in run 3's file");
    }

    #[test]
    fn a_pair_listed_found_and_armed_in_one_file_never_arms() {
        let mut file = TrapFileData::default();
        for (a, b) in [(11, 12), (13, 14)] {
            file.push_with_confidence(
                (site(a).to_string(), site(b).to_string()),
                PairOrigin::Static,
                0.9,
            );
        }
        file.found = vec![(site(11).to_string(), site(12).to_string())];
        let mut c = config();
        c.trap_import_budget = 1;
        let p = plan(&c);
        p.import(&file);
        assert!(!p.is_armed(pair(11, 12)), "found wins over the prior");
        assert!(
            p.is_armed(pair(13, 14)),
            "and does not take a place under the budget"
        );
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
            p.arm(SitePair::new(at(a), at(b)));
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
    fn import_budget_arms_highest_confidence_first() {
        let mut file = TrapFileData::default();
        for (a, b, confidence) in [(60, 61, 0.4), (62, 63, 0.9), (64, 65, 0.7)] {
            file.push_with_confidence(
                (site(a).to_string(), site(b).to_string()),
                PairOrigin::Static,
                confidence,
            );
        }
        let mut c = config();
        c.trap_import_budget = 2;
        let p = plan(&c);
        p.import(&file);
        assert_eq!(p.len(), 2);
        assert!(p.is_armed(pair(62, 63)), "0.9 arms");
        assert!(p.is_armed(pair(64, 65)), "0.7 arms");
        assert!(
            !p.is_armed(pair(60, 61)),
            "the lowest-confidence pair is the one the budget drops"
        );
        // The budget rations seeds, not discovery.
        assert!(p.arm(pair(1, 2)));
        assert_eq!(p.len(), 3);

        // Without a budget everything arms, regardless of grade.
        let all = plan(&config());
        all.import(&file);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn import_budget_arms_identical_sets_across_loads() {
        // Equal-confidence ties under a finite budget must arm the same
        // pairs on every load of the same trap file — including a permuted
        // spelling of it, the shape a fleet merge over hash-map iteration
        // produces.
        let dir =
            std::env::temp_dir().join(format!("tsvd_import_determinism_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("traps.json");

        let texts: Vec<(String, String)> = (80..86)
            .map(|n| (site(n).to_string(), site(n + 10).to_string()))
            .collect();
        let mut file = TrapFileData::default();
        for t in &texts {
            file.push_with_confidence(t.clone(), PairOrigin::Static, 0.5);
        }
        file.save(&path).expect("save");

        let armed_set = |data: &TrapFileData| -> Vec<SitePair> {
            let mut c = config();
            c.trap_import_budget = 3;
            let p = plan(&c);
            p.import(data);
            let mut armed: Vec<SitePair> = data
                .to_pairs()
                .into_iter()
                .filter(|&pair| p.is_armed(pair))
                .collect();
            armed.sort();
            armed
        };

        let first = armed_set(&TrapFileData::load(&path).expect("load 1"));
        let second = armed_set(&TrapFileData::load(&path).expect("load 2"));
        assert_eq!(first.len(), 3, "budget caps the import");
        assert_eq!(first, second, "two loads must arm identical sets");

        // Same pair set, reversed on-disk order: still the identical set.
        let mut permuted = TrapFileData::default();
        for t in texts.iter().rev() {
            permuted.push_with_confidence(t.clone(), PairOrigin::Static, 0.5);
        }
        assert_eq!(
            armed_set(&permuted),
            first,
            "arming must not depend on pair order in the file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adaptive_delay_escalates_and_resets() {
        let mut c = config();
        c.adaptive_delay = true;
        c.adaptive_delay_cap = 4.0;
        c.decay_factor = 0.0; // Keep P at 1 so every hit delays.
        let p = plan(&c);
        p.arm(pair(1, 2));
        let base = c.delay_ns;
        assert_eq!(p.should_delay(site(2)), Some(base));
        // Two fruitless delays double the site's next delay, capped at 4x.
        p.delay_done(site(2), false);
        assert_eq!(p.should_delay(site(2)), Some(base * 2));
        p.delay_done(site(2), false);
        assert_eq!(p.should_delay(site(2)), Some(base * 4));
        p.delay_done(site(2), false);
        assert_eq!(p.should_delay(site(2)), Some(base * 4), "cap holds");
        // A catch resets the multiplier.
        p.delay_done(site(2), true);
        assert_eq!(p.should_delay(site(2)), Some(base));
        // The partner's length never moved.
        assert_eq!(p.should_delay(site(1)), Some(base));
    }

    #[test]
    fn adaptive_off_keeps_constant_delay() {
        let mut c = config();
        c.decay_factor = 0.0;
        let p = plan(&c);
        p.arm(pair(1, 2));
        p.delay_done(site(2), false);
        assert_eq!(p.should_delay(site(2)), Some(c.delay_ns));
    }
}
