//! StaticRandom (§3.3): the DataCollider emulation.
//!
//! DataCollider observed that dynamic sampling concentrates delays on hot
//! paths, so it samples *static* program locations uniformly, irrespective
//! of how often each location executes. We emulate its code-breakpoint
//! scheme: a small set of sites is "armed"; the next execution of an armed
//! site fires a delay, after which a new site is drawn uniformly from all
//! sites seen so far.
//!
//! One divergence from the original, documented in DESIGN.md: DataCollider
//! knows the full static site list from binary analysis, whereas here a site
//! becomes eligible the first time it executes.

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::access::Access;
use crate::chunks::IdSet;
use crate::config::TsvdConfig;
use crate::site::SiteId;
use crate::strategy::Strategy;

struct Inner {
    seen: Vec<SiteId>,
    seen_set: IdSet<SiteId>,
    armed: IdSet<SiteId>,
    rng: SmallRng,
}

/// The StaticRandom / DataCollider strategy.
pub struct StaticRandom {
    inner: Mutex<Inner>,
    delay_ns: u64,
    slots: usize,
}

impl StaticRandom {
    /// Creates the strategy from `config` (`armed_sites`, `delay_ns`).
    pub fn new(config: &TsvdConfig) -> Self {
        StaticRandom {
            inner: Mutex::new(Inner {
                seen: Vec::new(),
                seen_set: IdSet::default(),
                armed: IdSet::default(),
                rng: SmallRng::seed_from_u64(config.seed ^ 0xDA7A),
            }),
            delay_ns: config.delay_ns,
            slots: config.armed_sites.max(1),
        }
    }

    fn arm_random(inner: &mut Inner, slots: usize) {
        while inner.armed.len() < slots && inner.armed.len() < inner.seen.len() {
            let idx = inner.rng.gen_range(0..inner.seen.len());
            inner.armed.insert(inner.seen[idx]);
        }
    }
}

impl Strategy for StaticRandom {
    fn name(&self) -> &'static str {
        "datacollider"
    }

    fn on_access(&self, access: &Access, _concurrent: bool) -> Option<u64> {
        let mut inner = self.inner.lock();
        if inner.seen_set.insert(access.site) {
            inner.seen.push(access.site);
        }
        if inner.armed.remove(&access.site) {
            // Fire: delay here, then arm a fresh uniformly drawn site.
            Self::arm_random(&mut inner, self.slots);
            Some(self.delay_ns)
        } else {
            Self::arm_random(&mut inner, self.slots);
            None
        }
    }

    fn on_delay_complete(&self, _access: &Access, _start_ns: u64, _end_ns: u64, _caught: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{ObjId, OpKind};
    use crate::context::ContextId;
    use crate::site::SiteData;

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "static_random_test.rs",
            line: n,
            column: 1,
        })
    }

    fn access(s: SiteId) -> Access {
        Access {
            context: ContextId(1),
            obj: ObjId(1),
            site: s,
            op_name: "t.op",
            kind: OpKind::Write,
            time_ns: 0,
        }
    }

    fn cfg() -> TsvdConfig {
        TsvdConfig::for_testing()
    }

    #[test]
    fn fires_only_on_armed_sites() {
        let s = StaticRandom::new(&cfg());
        // First ever access arms (post-registration), never fires.
        assert!(s.on_access(&access(site(1)), true).is_none());
        // With one known site and one slot, site(1) must now be armed.
        assert!(s.on_access(&access(site(1)), true).is_some());
    }

    #[test]
    fn sampling_is_static_not_dynamic() {
        // A site hit 1000× and a site hit 10× should fire a comparable
        // number of delays (uniform over static locations).
        let s = StaticRandom::new(&cfg());
        let hot = site(10);
        let cold = site(11);
        let mut hot_fires = 0u32;
        let mut cold_fires = 0u32;
        s.on_access(&access(hot), true);
        s.on_access(&access(cold), true);
        for i in 0..2_000u32 {
            if s.on_access(&access(hot), true).is_some() {
                hot_fires += 1;
            }
            if i % 100 == 0 && s.on_access(&access(cold), true).is_some() {
                cold_fires += 1;
            }
        }
        // The hot site executes 100× more but must not fire 100× more:
        // each firing re-arms a uniformly drawn site, and with 2 sites the
        // hot site is armed about half the time.
        assert!(
            hot_fires <= 50 * cold_fires.max(1),
            "hot {hot_fires} vs cold {cold_fires}: static sampling broken"
        );
        assert!(hot_fires > 0);
    }

    #[test]
    fn multiple_slots_arm_multiple_sites() {
        let mut c = cfg();
        c.armed_sites = 3;
        let s = StaticRandom::new(&c);
        for n in 0..5u32 {
            s.on_access(&access(site(20 + n)), true);
        }
        assert_eq!(s.inner.lock().armed.len(), 3);
    }
}
