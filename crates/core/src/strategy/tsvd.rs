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
//! [`DelayPlan`]'s, shared with TSVD-HB. The plan's pair table also keeps
//! the HB edges inferred here, and its trap file carries them, so the
//! second run keeps their pairs out from their first near miss instead of
//! paying a delay to infer them again.

use crate::access::Access;
use crate::config::TsvdConfig;
use crate::hb_infer::{DelayRecord, HbInference};
use crate::near_miss::{NearMissTracker, SitePair};
use crate::strategy::plan::DelayPlan;
use crate::strategy::Strategy;
use crate::trap_file::TrapFileData;
use crate::trapset::PairCounts;

/// The TSVD delay-injection strategy: near-miss discovery, phase gating and
/// HB inference in front of the shared `DelayPlan`.
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
}

impl Strategy for Tsvd {
    fn name(&self) -> &'static str {
        "tsvd"
    }

    fn on_access(&self, access: &Access, concurrent: bool) -> Option<u64> {
        // Concurrent-phase inference is the runtime's observation; with the
        // ablation switch off, every phase counts as concurrent.
        let concurrent = concurrent || !self.phase_detection;

        // HB inference: the pair this access proves (by delay propagation)
        // to be ordered is pruned, and keeps its edge.
        if let Some(hb) = &self.hb {
            if let Some(pair) = hb.on_access(access.context, access.site, access.time_ns) {
                self.plan.inferred(pair);
            }
        }

        // Near-miss tracking: discover new dangerous pairs. A fork-ordered
        // one (the parent's pre-spawn access) gets one delay, not a ladder;
        // one with an edge, this run's or carried in, none.
        for miss in self.near_miss.record(access) {
            if concurrent {
                self.plan.arm(miss.pair, miss.ordered);
            }
        }

        self.plan.should_delay(access.site, access.context)
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
        self.plan.delay_done(access.site, access.context, caught);
    }

    fn on_delay_skipped(&self, access: &Access) {
        self.plan.withdraw(access.site, access.context);
    }

    fn on_violation(&self, pair: SitePair) {
        self.plan.found(pair);
    }

    fn export_trap_file(&self) -> Option<TrapFileData> {
        Some(self.plan.export())
    }

    /// Imports the file's inferred edges too, when HB inference is on, so
    /// a near miss of one never arms in this run.
    fn import_trap_file(&self, data: &TrapFileData) {
        self.plan.import(data, self.hb.is_some());
    }

    fn pair_counts(&self) -> PairCounts {
        self.plan.counts()
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
    use crate::context::{self, ContextId, SpawnCertificate};
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
        let counts = s.pair_counts();
        assert_eq!((counts.edge_run, counts.armed_discovered), (1, 0));
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
        assert_eq!(s.pair_counts().edge_run, 0);
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

    /// `access` as the task `ctx`, spawned by `parent` at `spawned_ms`.
    fn as_task(s: &Tsvd, access: Access, parent: u64, spawned_ms: u64) -> Option<u64> {
        let spawn = SpawnCertificate {
            parent: ContextId(parent),
            spawned_ns: ms_to_ns(spawned_ms),
        };
        let _g = context::enter(access.context, Some(spawn));
        s.on_access(&access, true)
    }

    #[test]
    fn a_parents_pre_spawn_write_costs_each_child_read_one_delay_in_all() {
        let s = Tsvd::new(&config());
        let (init, read) = (site(60), site(61));
        let pair = SitePair::new(init, read);
        s.on_access(&acc(1, 7, init, OpKind::Write, 0), false);
        // The first child's read arms the pair and delays at once.
        let first = acc(2, 7, read, OpKind::Read, 2);
        assert!(as_task(&s, first, 1, 1).is_some());
        assert!(s.is_armed(pair));
        s.on_delay_complete(&first, ms_to_ns(2), ms_to_ns(3), false);
        assert!(!s.is_armed(pair), "settled by its one fruitless delay");
        // A sibling's read forms the same ordered near miss: nothing.
        assert!(as_task(&s, acc(3, 7, read, OpKind::Read, 4), 1, 1).is_none());
        assert_eq!(s.trap_set_len(), 0);
        let file = s.export_trap_file().expect("tsvd persists state");
        assert!(file.pairs.is_empty(), "run 2 does not pay again");
        let counts = s.pair_counts();
        assert_eq!(
            (
                counts.armed_ordered,
                counts.settled_here,
                counts.ordered_delays
            ),
            (0, 1, 1)
        );
        // The parent writes again after the spawns: that write races, and
        // the next child read arms the pair as an ordinary one.
        s.on_access(&acc(1, 7, init, OpKind::Write, 5), true);
        assert!(as_task(&s, acc(4, 7, read, OpKind::Read, 6), 1, 1).is_some());
        assert!(s.is_armed(pair));
        assert_eq!(s.export_trap_file().expect("tsvd").pairs.len(), 1);
    }

    #[test]
    fn two_children_at_an_ordered_only_site_take_one_delay_between_them() {
        let s = Tsvd::new(&config());
        let (init, read) = (site(62), site(63));
        s.on_access(&acc(1, 8, init, OpKind::Write, 0), false);
        let first = acc(2, 8, read, OpKind::Read, 2);
        assert!(as_task(&s, first, 1, 1).is_some(), "armed, and delays");
        // A sibling reads while the first child's delay runs: no delay.
        let second = acc(3, 8, read, OpKind::Read, 3);
        assert!(as_task(&s, second, 1, 1).is_none());
        s.on_delay_complete(&first, ms_to_ns(2), ms_to_ns(3), false);
        assert!(!s.is_armed(SitePair::new(init, read)), "settled");
        let counts = s.pair_counts();
        assert_eq!(
            (
                counts.ordered_delays,
                counts.ordered_skipped,
                counts.settled_here
            ),
            (1, 1, 1)
        );
    }

    /// A run in which delay propagation retires {site(1), site(2)}, as in
    /// `hb_inference_prunes_pair`; returns its trap file.
    fn file_of_a_run_that_inferred_the_pair() -> TrapFileData {
        let s = Tsvd::new(&config());
        s.on_access(&acc(1, 7, site(1), OpKind::Write, 0), true);
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 1), true);
        s.on_delay_complete(
            &acc(1, 7, site(1), OpKind::Write, 10),
            ms_to_ns(10),
            ms_to_ns(110),
            false,
        );
        s.on_access(&acc(2, 7, site(2), OpKind::Write, 110), true);
        s.export_trap_file().expect("tsvd persists state")
    }

    #[test]
    fn a_carried_inference_keeps_the_next_runs_near_miss_from_arming() {
        let pair = SitePair::new(site(1), site(2));
        let file = file_of_a_run_that_inferred_the_pair();
        assert!(file.pairs.is_empty(), "retired, not carried as armed");
        assert_eq!(file.inferred_pairs(), [pair]);
        let s2 = Tsvd::new(&config());
        s2.import_trap_file(&file);
        s2.on_access(&acc(5, 9, site(1), OpKind::Write, 0), true);
        assert!(s2
            .on_access(&acc(6, 9, site(2), OpKind::Write, 1), true)
            .is_none());
        assert!(!s2.is_armed(pair), "no delay to learn it again");
        let counts = s2.pair_counts();
        assert_eq!((counts.edge_carried, counts.edge_kept_out), (1, 1));
        assert_eq!(s2.export_trap_file().expect("tsvd").inferred, file.inferred);
        // A file that also lists the pair as armed still arms it.
        let mut armed = file.clone();
        armed.push(
            (site(1).to_string(), site(2).to_string()),
            crate::trap_file::PairOrigin::Static,
        );
        let s3 = Tsvd::new(&config());
        s3.import_trap_file(&armed);
        assert!(s3.is_armed(pair));
    }

    #[test]
    fn tsvd_hb_ignores_a_carried_inference() {
        use crate::strategy::TsvdHb;
        let pair = SitePair::new(site(1), site(2));
        let file = file_of_a_run_that_inferred_the_pair();
        let hb = TsvdHb::new(&config());
        hb.import_trap_file(&file);
        hb.on_access(&acc(5, 9, site(1), OpKind::Write, 0), true);
        hb.on_access(&acc(6, 9, site(2), OpKind::Write, 1), true);
        assert!(hb.is_armed(pair), "concurrent by its clocks: armed");
        assert!(hb.export_trap_file().expect("tsvd-hb").inferred.is_empty());
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
