//! Focused reproduction: confirm one reported violation on demand.
//!
//! After TSVD reports a bug, developers want to *see it again* (the paper's
//! §5.2 validation: product teams confirmed every reported bug as real).
//! This strategy is the single-pair, always-delay mode that RaceFuzzer-style
//! tools use for their targeted runs (§3.5): it delays only at the two
//! locations of one given pair, with probability 1 and a generous delay, so
//! a single re-run of the module reproduces the caught interleaving with
//! high probability. No discovery machinery runs at all.

use crate::access::Access;
use crate::config::TsvdConfig;
use crate::near_miss::SitePair;
use crate::strategy::Strategy;

/// The focused single-pair reproduction strategy.
pub struct Focused {
    pair: SitePair,
    delay_ns: u64,
}

impl Focused {
    /// Creates a strategy that hunts exactly `pair`, delaying with
    /// `reproduce_factor × delay_ns` (longer-than-normal delays make the
    /// reproduction robust to scheduling noise).
    pub fn new(config: &TsvdConfig, pair: SitePair, reproduce_factor: u32) -> Self {
        Focused {
            pair,
            delay_ns: config.delay_ns * u64::from(reproduce_factor.max(1)),
        }
    }

    /// The pair being reproduced.
    pub fn pair(&self) -> SitePair {
        self.pair
    }
}

impl Strategy for Focused {
    fn name(&self) -> &'static str {
        "focused"
    }

    fn on_access(&self, access: &Access, _concurrent: bool) -> Option<u64> {
        self.pair.contains(access.site).then_some(self.delay_ns)
    }

    fn on_delay_complete(&self, _access: &Access, _start_ns: u64, _end_ns: u64, _caught: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{ObjId, OpKind};
    use crate::context::ContextId;
    use crate::site::{SiteData, SiteId};

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "focused_test.rs",
            line: n,
            column: 1,
        })
    }

    fn acc(s: SiteId) -> Access {
        Access {
            context: ContextId(1),
            obj: ObjId(1),
            site: s,
            op_name: "t.op",
            kind: OpKind::Write,
            time_ns: 0,
        }
    }

    #[test]
    fn delays_only_at_the_target_pair() {
        let cfg = TsvdConfig::for_testing();
        let f = Focused::new(&cfg, SitePair::new(site(1), site(2)), 3);
        assert_eq!(f.on_access(&acc(site(1)), true), Some(cfg.delay_ns * 3));
        assert_eq!(f.on_access(&acc(site(2)), true), Some(cfg.delay_ns * 3));
        assert_eq!(f.on_access(&acc(site(3)), true), None);
    }

    #[test]
    fn same_location_pair_fires_at_its_site() {
        let cfg = TsvdConfig::for_testing();
        let f = Focused::new(&cfg, SitePair::new(site(9), site(9)), 1);
        assert_eq!(f.on_access(&acc(site(9)), true), Some(cfg.delay_ns));
    }

    #[test]
    fn factor_is_clamped_to_at_least_one() {
        let cfg = TsvdConfig::for_testing();
        let f = Focused::new(&cfg, SitePair::new(site(1), site(2)), 0);
        assert_eq!(f.on_access(&acc(site(1)), true), Some(cfg.delay_ns));
    }
}
