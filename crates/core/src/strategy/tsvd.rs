//! The TSVD strategy (§3.4): the paper's contribution.
//!
//! *Where to delay:* at members of a dynamically maintained trap set of
//! dangerous pairs. A pair enters the set when its two locations form a
//! near miss (§3.4.2) while the program is in a concurrent phase (§3.4.3).
//! A pair leaves the set when a likely happens-before relation is inferred
//! between its locations (§3.4.4) or a violation was already caught there.
//! That discovery is all this file holds.
//!
//! *When to delay:* with probability `P_loc`, which starts at 1 when a
//! dangerous pair containing `loc` is armed and decays after every delay
//! that catches nothing (§3.4.5). Planning and injection happen in the same
//! run (§3.4.6); the trap set additionally persists to a trap file so a
//! second run can trap pairs on their first occurrence. All of that is the
//! [`DelayPlan`]'s, shared with TSVD-HB.

use crate::access::Access;
use crate::config::TsvdConfig;
use crate::hb_infer::{DelayRecord, HbInference};
use crate::near_miss::{NearMissTracker, SitePair};
use crate::strategy::plan::DelayPlan;
use crate::strategy::Strategy;
use crate::trap_file::TrapFileData;

/// The TSVD delay-injection strategy: near-miss discovery, phase gating and
/// HB inference in front of the shared [`DelayPlan`].
pub struct Tsvd {
    near_miss: NearMissTracker,
    hb: Option<HbInference>,
    phase_detection: bool,
    plan: DelayPlan,
}

impl Tsvd {
    /// Creates the strategy from `config`, honouring the Table-3 ablation
    /// switches (`enable_hb_inference`, `enable_windowing`,
    /// `enable_phase_detection`).
    pub fn new(config: &TsvdConfig) -> Self {
        let window = config
            .enable_windowing
            .then_some(config.near_miss_window_ns);
        Tsvd {
            near_miss: NearMissTracker::new(
                config.near_miss_history,
                window,
                config.max_tracked_objects,
            ),
            hb: config.enable_hb_inference.then(|| {
                HbInference::new(
                    config.hb_gap_ns(),
                    config.hb_inference_window,
                    config.hb_delay_history,
                )
            }),
            phase_detection: config.enable_phase_detection,
            plan: DelayPlan::new(config, 0x7547),
        }
    }

    /// Current number of dangerous pairs (stats / tests).
    pub fn trap_set_len(&self) -> usize {
        self.plan.len()
    }

    /// Returns `true` if `pair` is currently armed.
    pub fn is_armed(&self, pair: SitePair) -> bool {
        self.plan.is_armed(pair)
    }

    /// Number of HB edges inferred so far (stats / tests).
    pub fn inferred_hb_edges(&self) -> usize {
        self.hb.as_ref().map_or(0, |hb| hb.inferred_count())
    }
}

impl Strategy for Tsvd {
    fn name(&self) -> &'static str {
        "tsvd"
    }

    fn on_access(&self, access: &Access, concurrent: bool) -> Option<u64> {
        // Concurrent-phase inference is the runtime's observation; with the
        // ablation switch off, every phase counts as concurrent.
        let concurrent = concurrent || !self.phase_detection;

        // HB inference: prune pairs whose locations this access proves (by
        // delay propagation) to be ordered.
        if let Some(hb) = &self.hb {
            for pair in hb.on_access(access.context, access.site, access.time_ns) {
                self.plan.retire(pair);
            }
        }

        // Near-miss tracking: discover new dangerous pairs.
        for pair in self.near_miss.record(access) {
            if concurrent && !self.hb.as_ref().is_some_and(|hb| hb.is_inferred(pair)) {
                self.plan.arm(pair);
            }
        }

        self.plan.should_delay(access.site)
    }

    fn on_delay_complete(&self, access: &Access, start_ns: u64, end_ns: u64, caught: bool) {
        if let Some(hb) = &self.hb {
            hb.record_delay(DelayRecord {
                site: access.site,
                context: access.context,
                start_ns,
                end_ns,
            });
        }
        self.plan.delay_done(access.site, caught);
    }

    fn on_violation(&self, pair: SitePair) {
        self.plan.found(pair);
    }

    fn export_trap_file(&self) -> Option<TrapFileData> {
        Some(self.plan.export())
    }

    fn import_trap_file(&self, data: &TrapFileData) {
        self.plan.import(data);
    }

    fn memory_bytes(&self) -> usize {
        // Near-miss histories dominate; the plan is tiny; HB inference grows
        // with the contexts seen.
        self.near_miss.approx_bytes()
            + self.hb.as_ref().map_or(0, |hb| hb.approx_bytes())
            + self.plan.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{ObjId, OpKind};
    use crate::clock::ms_to_ns;
    use crate::context::ContextId;
    use crate::site::{SiteData, SiteId};

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "tsvd_strategy_test.rs",
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
            time_ns: ms_to_ns(t_ms),
        }
    }

    /// Paper defaults (100 ms scale) with no probabilistic noise.
    fn config() -> TsvdConfig {
        let mut c = TsvdConfig::paper();
        c.decay_factor = 0.5;
        c
    }

    #[test]
    fn near_miss_in_concurrent_phase_arms_pair_and_delays() {
        let s = Tsvd::new(&config());
        // Two contexts interleave: concurrent phase.
        assert!(s
            .on_access(&acc(1, 7, site(1), OpKind::Write, 0), true)
            .is_none());
        // Near miss at t = 1 ms: pair armed; the *current* access's site is
        // in the trap set, so TSVD may delay right now (same-run injection).
        let d = s.on_access(&acc(2, 7, site(2), OpKind::Write, 1), true);
        assert!(d.is_some(), "newly armed site should delay immediately");
        assert_eq!(s.trap_set_len(), 1);
        assert!(s.is_armed(SitePair::new(site(1), site(2))));
    }

    #[test]
    fn sequential_phase_blocks_arming() {
        let s = Tsvd::new(&config());
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0), false);
        // A near miss observed in a sequential phase arms nothing...
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 1), false);
        assert_eq!(s.trap_set_len(), 0);
        // ...the same near miss in a concurrent phase does.
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 2), true);
        assert_eq!(s.trap_set_len(), 1);
    }

    #[test]
    fn phase_ablation_treats_everything_concurrent() {
        let mut c = config();
        c.enable_phase_detection = false;
        let s = Tsvd::new(&c);
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0), false);
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 1), false);
        assert_eq!(s.trap_set_len(), 1);
    }

    #[test]
    fn no_pair_without_conflict() {
        let s = Tsvd::new(&config());
        s.on_access(&acc(1, 7, site(1), OpKind::Read, 0), true);
        assert!(s
            .on_access(&acc(2, 7, site(2), OpKind::Read, 1), true)
            .is_none());
        assert_eq!(s.trap_set_len(), 0);
    }

    #[test]
    fn violation_prunes_pair_permanently() {
        let s = Tsvd::new(&config());
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0), true);
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 1), true);
        let pair = SitePair::new(site(1), site(2));
        assert!(s.is_armed(pair));
        s.on_violation(pair);
        assert!(!s.is_armed(pair));
        // Rediscovery of the same near miss must not re-arm it.
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 10), true);
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 11), true);
        assert!(!s.is_armed(pair));
    }

    #[test]
    fn failed_delays_decay_to_eviction() {
        let mut c = config();
        c.decay_factor = 0.5;
        c.decay_floor = 0.3;
        let s = Tsvd::new(&c);
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0), true);
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 1), true);
        assert_eq!(s.trap_set_len(), 1);
        let a = acc(1, 7, site(1), OpKind::Write, 2);
        // Two fruitless delays at site(1): 1.0 → 0.5 → 0.25 < 0.3 → evict.
        s.on_delay_complete(&a, 0, 1, false);
        assert_eq!(s.trap_set_len(), 1);
        s.on_delay_complete(&a, 2, 3, false);
        assert_eq!(s.trap_set_len(), 0, "decayed location evicts its pairs");
    }

    /// Arms {site(1), site(2)}, imported or by a near miss, decays
    /// site(1) out, then shows the same near miss again; returns whether
    /// it re-armed.
    fn rearms_after_decaying_out(imported: bool) -> bool {
        let mut c = config();
        c.decay_factor = 0.5;
        c.decay_floor = 0.3;
        let s = Tsvd::new(&c);
        let pair = SitePair::new(site(1), site(2));
        if imported {
            s.import_trap_file(&TrapFileData::from_pairs(&[pair]));
        } else {
            s.on_access(&acc(1, 7, site(1), OpKind::Write, 0), true);
            s.on_access(&acc(2, 7, site(2), OpKind::Write, 1), true);
        }
        assert!(s.is_armed(pair));
        let a = acc(1, 7, site(1), OpKind::Write, 2);
        s.on_delay_complete(&a, 0, 1, false);
        s.on_delay_complete(&a, 2, 3, false);
        assert_eq!(s.trap_set_len(), 0, "decayed out");
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 10), true);
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 11), true);
        s.is_armed(pair)
    }

    #[test]
    fn an_imported_pair_that_decays_out_stays_out_for_the_run() {
        assert!(!rearms_after_decaying_out(true));
    }

    #[test]
    fn a_discovered_pair_that_decays_out_rearms_on_the_next_near_miss() {
        assert!(rearms_after_decaying_out(false));
    }

    #[test]
    fn successful_delay_does_not_decay() {
        let mut c = config();
        c.decay_floor = 0.9;
        let s = Tsvd::new(&c);
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0), true);
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 1), true);
        let a = acc(1, 7, site(1), OpKind::Write, 2);
        for _ in 0..10 {
            s.on_delay_complete(&a, 0, 1, true);
        }
        assert_eq!(s.trap_set_len(), 1, "catching delays never decay");
    }

    #[test]
    fn hb_inference_prunes_pair() {
        let s = Tsvd::new(&config()); // gap = 50 ms, k_hb = 5
                                      // Arm the pair {site(1), site(2)} via a near miss.
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0), true);
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 1), true);
        assert!(s.is_armed(SitePair::new(site(1), site(2))));
        // Context 1 delays at site(1) from 10 ms to 110 ms...
        s.on_delay_complete(
            &acc(1, 7, site(1), OpKind::Write, 10),
            ms_to_ns(10),
            ms_to_ns(110),
            false,
        );
        // ...and context 2's next access (gap 109 ms ≥ 50 ms, overlapping
        // the delay) is at site(2): HB inferred, pair pruned.
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 110), true);
        assert!(
            !s.is_armed(SitePair::new(site(1), site(2))),
            "HB-inferred pair must leave the trap set"
        );
        assert!(s.inferred_hb_edges() >= 1);
        // And the near miss does not re-arm it.
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 111), true);
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 112), true);
        assert!(!s.is_armed(SitePair::new(site(1), site(2))));
    }

    #[test]
    fn hb_ablation_keeps_pair_armed() {
        let mut c = config();
        c.enable_hb_inference = false;
        let s = Tsvd::new(&c);
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0), true);
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 1), true);
        s.on_delay_complete(
            &acc(1, 7, site(1), OpKind::Write, 10),
            ms_to_ns(10),
            ms_to_ns(110),
            false,
        );
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 110), true);
        assert!(s.is_armed(SitePair::new(site(1), site(2))));
        assert_eq!(s.inferred_hb_edges(), 0);
    }

    #[test]
    fn trap_file_round_trip_prearms_pairs() {
        let s1 = Tsvd::new(&config());
        s1.on_access(&acc(1, 7, site(1), OpKind::Write, 0), true);
        s1.on_access(&acc(2, 7, site(2), OpKind::Write, 1), true);
        let file = s1.export_trap_file().expect("tsvd persists state");
        let s2 = Tsvd::new(&config());
        s2.import_trap_file(&file);
        assert!(s2.is_armed(SitePair::new(site(1), site(2))));
        // Imported pairs delay on their very first occurrence.
        let d = s2.on_access(&acc(9, 99, site(1), OpKind::Write, 0), true);
        assert!(d.is_some());
    }

    #[test]
    fn memory_report_counts_hb_inference_state() {
        // §5.5: one HB state per task context ever seen, none ever removed.
        // A report of the near-miss table alone would not move here.
        let s = Tsvd::new(&config());
        s.on_access(&acc(0, 7, site(1), OpKind::Read, 0), true);
        let before = s.memory_bytes();
        for ctx in 1..=1_000 {
            s.on_access(&acc(ctx, 7, site(1), OpKind::Read, ctx), true);
        }
        assert!(s.memory_bytes() >= before + 1_000 * 24);
        let mut c = config();
        c.enable_hb_inference = false;
        let off = Tsvd::new(&c);
        off.on_access(&acc(0, 7, site(1), OpKind::Read, 0), true);
        let before = off.memory_bytes();
        for ctx in 1..=1_000 {
            off.on_access(&acc(ctx, 7, site(1), OpKind::Read, ctx), true);
        }
        assert_eq!(off.memory_bytes(), before, "one object, one full history");
    }

    #[test]
    fn unknown_site_never_delays() {
        let s = Tsvd::new(&config());
        for i in 0..100 {
            assert!(s
                .on_access(&acc(1, i, site(50), OpKind::Write, i), true)
                .is_none());
        }
    }
}
