//! Delay-probability decay (§3.4.5).
//!
//! Every program location in the trap set carries a probability `P_loc` of
//! receiving a delay. `P_loc` starts at 1 when a dangerous pair containing
//! the location is added, and decays multiplicatively after each injected
//! delay that fails to catch a violation: `P ← P · (1 − decay_factor)`.
//! When `P_loc` falls below the floor, the location — and all its pairs —
//! leaves the trap set. A decay factor of 0 disables decay, the pathological
//! configuration of Fig. 9 (g) that can blow overhead up by 66×.
//!
//! `probability` is consulted on every access at an armed site, so the
//! table is an epoch-pinned immutable snapshot (see [`crate::epoch`]):
//! readers never lock. Mutations read before they write — re-arming a site
//! already at 1 or removing an absent one publishes nothing; an effective
//! arm, decay or remove serializes and publishes a copy-on-write snapshot.
//! An atomic armed-count keeps the empty table — no pair armed yet — free
//! of even the epoch pin.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::audit;
use crate::chunks::IdMap;
use crate::epoch::EpochPtr;
use crate::site::SiteId;

/// Per-location delay probabilities with multiplicative decay.
pub struct DecayTable {
    snapshot: EpochPtr<IdMap<SiteId, f64>>,
    armed: AtomicUsize,
    factor: f64,
    floor: f64,
}

impl DecayTable {
    /// Creates a table with the given decay factor and removal floor.
    pub fn new(factor: f64, floor: f64) -> Self {
        DecayTable {
            snapshot: EpochPtr::new(IdMap::default()),
            armed: AtomicUsize::new(0),
            factor: factor.clamp(0.0, 1.0),
            floor: floor.clamp(0.0, 1.0),
        }
    }

    /// [`EpochPtr::update`], republishing the armed count from the new
    /// snapshot's size.
    fn write<R>(
        &self,
        noop: impl Fn(&IdMap<SiteId, f64>) -> Option<R>,
        mutate: impl FnOnce(&mut IdMap<SiteId, f64>) -> R,
    ) -> R {
        self.snapshot.update(noop, |next| {
            let result = mutate(next);
            audit::note_shared_write();
            self.armed.store(next.len(), Ordering::Release);
            result
        })
    }

    /// (Re)arms `site` at probability 1. Called when a dangerous pair
    /// containing `site` enters the trap set.
    pub fn arm(&self, site: SiteId) {
        self.write(
            |probs| (probs.get(&site) == Some(&1.0)).then_some(()),
            |probs| {
                probs.insert(site, 1.0);
            },
        );
    }

    /// Arms every site in `sites` at probability 1 with a single snapshot
    /// publish — the bulk path for trap file imports.
    pub fn arm_many(&self, sites: impl IntoIterator<Item = SiteId>) {
        self.write(
            |_| None,
            |probs| probs.extend(sites.into_iter().map(|s| (s, 1.0))),
        );
    }

    /// Returns the current delay probability of `site` (0 if unknown).
    pub fn probability(&self, site: SiteId) -> f64 {
        if self.armed.load(Ordering::Acquire) == 0 {
            return 0.0;
        }
        self.snapshot
            .read(|probs| probs.get(&site).copied().unwrap_or(0.0))
    }

    /// Applies one decay step to `site` after a fruitless delay.
    ///
    /// Returns `true` if the probability dropped below the floor and the
    /// caller should evict the location's pairs from the trap set.
    pub fn decay(&self, site: SiteId) -> bool {
        self.write(
            |probs| (!probs.contains_key(&site)).then_some(false),
            |probs| {
                let Some(p) = probs.get_mut(&site) else {
                    return false;
                };
                *p *= 1.0 - self.factor;
                if *p < self.floor && self.factor > 0.0 {
                    probs.remove(&site);
                    true
                } else {
                    false
                }
            },
        )
    }

    /// Removes `site` outright (e.g. a violation was already found there).
    pub fn remove(&self, site: SiteId) {
        self.write(
            |probs| (!probs.contains_key(&site)).then_some(()),
            |probs| {
                probs.remove(&site);
            },
        );
    }

    /// Number of armed locations (stats).
    pub fn armed_count(&self) -> usize {
        self.armed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteData;

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "decay_test.rs",
            line: n,
            column: 1,
        })
    }

    #[test]
    fn unknown_site_has_zero_probability() {
        let t = DecayTable::new(0.5, 0.05);
        assert_eq!(t.probability(site(1)), 0.0);
    }

    #[test]
    fn armed_site_starts_at_one() {
        let t = DecayTable::new(0.5, 0.05);
        t.arm(site(1));
        assert_eq!(t.probability(site(1)), 1.0);
    }

    #[test]
    fn decay_halves_probability() {
        let t = DecayTable::new(0.5, 0.05);
        t.arm(site(1));
        assert!(!t.decay(site(1)));
        assert!((t.probability(site(1)) - 0.5).abs() < 1e-12);
        assert!(!t.decay(site(1)));
        assert!((t.probability(site(1)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn decay_below_floor_evicts() {
        let t = DecayTable::new(0.5, 0.3);
        t.arm(site(1));
        assert!(!t.decay(site(1))); // 0.5
        assert!(t.decay(site(1))); // 0.25 < 0.3 → evict
        assert_eq!(t.probability(site(1)), 0.0);
    }

    #[test]
    fn zero_factor_never_decays() {
        let t = DecayTable::new(0.0, 0.05);
        t.arm(site(1));
        for _ in 0..100 {
            assert!(!t.decay(site(1)));
        }
        assert_eq!(t.probability(site(1)), 1.0);
    }

    #[test]
    fn rearming_resets_probability() {
        let t = DecayTable::new(0.5, 0.05);
        t.arm(site(1));
        t.decay(site(1));
        t.arm(site(1));
        assert_eq!(t.probability(site(1)), 1.0);
    }

    #[test]
    fn decay_on_unknown_site_is_noop() {
        let t = DecayTable::new(0.5, 0.05);
        assert!(!t.decay(site(42)));
    }

    #[test]
    fn remove_clears_site() {
        let t = DecayTable::new(0.5, 0.05);
        t.arm(site(1));
        t.remove(site(1));
        assert_eq!(t.probability(site(1)), 0.0);
        assert_eq!(t.armed_count(), 0);
    }

    #[test]
    fn arm_many_is_one_publish() {
        let t = DecayTable::new(0.5, 0.05);
        t.arm_many([site(10), site(11), site(12)]);
        assert_eq!(t.armed_count(), 3);
        assert_eq!(t.probability(site(11)), 1.0);
    }

    #[test]
    fn concurrent_readers_survive_decay_churn() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let t = Arc::new(DecayTable::new(0.5, 0.05));
        t.arm(site(90));
        let stop = Arc::new(AtomicUsize::new(0));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let t = t.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        let p = t.probability(site(90));
                        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
                        let q = t.probability(site(91));
                        assert!((0.0..=1.0).contains(&q));
                    }
                })
            })
            .collect();
        for _ in 0..300 {
            t.arm(site(91));
            t.decay(site(91));
            t.arm(site(90));
        }
        stop.store(1, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader panicked");
        }
        assert_eq!(t.probability(site(90)), 1.0);
    }
}
