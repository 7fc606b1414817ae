//! TSVD-HB (§3.5): the happens-before-analysis comparison variant.
//!
//! Follows the RaceFuzzer approach: monitor synchronization operations
//! (forks, joins, locks), compute the happens-before relation with vector
//! clocks, and arm a pair of locations only when two conflicting accesses
//! are provably *concurrent*. Delay injection and decay then work exactly
//! as in TSVD — in the same run, multiple threads at once.
//!
//! The three optimizations of §3.5 are implemented directly:
//!
//! 1. local timestamps are incremented at **accesses** (TSVD points), not at
//!    the far more frequent synchronization operations;
//! 2. clocks are **immutable AVL tree-maps** ([`tsvd_vc::ImmutableVc`]), so a
//!    message send (fork, lock release) is an `O(1)` by-reference copy;
//! 3. a join whose source clock is reference-equal to the receiver skips the
//!    element-wise max (`join` short-circuits on pointer equality).

use std::collections::VecDeque;

use parking_lot::Mutex;
use tsvd_vc::ImmutableVc;

use crate::access::{Access, ObjId, OpKind};
use crate::chunks::IdMap;
use crate::config::TsvdConfig;
use crate::context::ContextId;
use crate::near_miss::SitePair;
use crate::site::SiteId;
use crate::strategy::plan::DelayPlan;
use crate::strategy::{Strategy, SyncEvent};
use crate::trap_file::TrapFileData;

/// One remembered access for the race check: context, its local timestamp
/// at the access, the location, and the read/write kind.
#[derive(Debug, Clone)]
struct ObjAccess {
    context: ContextId,
    stamp: u64,
    site: SiteId,
    kind: OpKind,
}

/// Bound on retained final clocks of completed contexts. Joining a task
/// whose final clock was evicted falls back to its (identical) live clock
/// or, at worst, loses an ordering edge — which can only add spurious
/// dangerous pairs, never false reports (the trap still requires a real
/// collision).
const MAX_FINAL_CLOCKS: usize = 8_192;

#[derive(Default)]
struct ClockState {
    clocks: IdMap<ContextId, ImmutableVc>,
    final_clocks: IdMap<ContextId, ImmutableVc>,
    /// Insertion order of `final_clocks`, for FIFO eviction.
    final_order: VecDeque<ContextId>,
    lock_clocks: IdMap<u64, ImmutableVc>,
    obj_hist: IdMap<ObjId, VecDeque<ObjAccess>>,
}

/// The TSVD-HB strategy: vector clocks and per-object access histories in
/// front of the shared [`DelayPlan`].
pub struct TsvdHb {
    state: Mutex<ClockState>,
    history: usize,
    plan: DelayPlan,
}

impl TsvdHb {
    /// Creates the strategy from `config` (`hb_access_history`, decay
    /// parameters, `delay_ns`).
    pub fn new(config: &TsvdConfig) -> Self {
        TsvdHb {
            state: Mutex::new(ClockState::default()),
            history: config.hb_access_history.max(1),
            plan: DelayPlan::new(config, 0x4B48),
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

impl Strategy for TsvdHb {
    fn name(&self) -> &'static str {
        "tsvd-hb"
    }

    fn on_access(&self, access: &Access, _concurrent: bool) -> Option<u64> {
        {
            let mut st = self.state.lock();
            // Optimization 1: increment the local component here, at the
            // (infrequent) TSVD point.
            let vc = st
                .clocks
                .entry(access.context)
                .or_default()
                .increment(access.context.0);
            let stamp = vc.get(access.context.0);
            st.clocks.insert(access.context, vc.clone());

            // Race check against remembered accesses: a prior access by
            // context C with stamp s is ordered before us iff our clock has
            // caught up to it (vc[C] >= s); otherwise the two are concurrent.
            let hist = st.obj_hist.entry(access.obj).or_default();
            for prev in hist.iter() {
                if prev.context != access.context
                    && prev.kind.conflicts_with(access.kind)
                    && vc.get(prev.context.0) < prev.stamp
                {
                    self.plan.arm(SitePair::new(prev.site, access.site));
                }
            }
            hist.push_back(ObjAccess {
                context: access.context,
                stamp,
                site: access.site,
                kind: access.kind,
            });
            while hist.len() > self.history {
                hist.pop_front();
            }
        }
        self.plan.should_delay(access.site)
    }

    fn on_delay_complete(&self, access: &Access, _start_ns: u64, _end_ns: u64, caught: bool) {
        self.plan.delay_done(access.site, caught);
    }

    fn on_sync(&self, event: &SyncEvent) {
        let mut st = self.state.lock();
        match *event {
            SyncEvent::Fork { parent, child } => {
                // Optimization 2: an O(1) by-reference copy of the parent
                // clock; no increments at synchronization operations.
                let parent_vc = st.clocks.entry(parent).or_default().clone();
                st.clocks.insert(child, parent_vc);
            }
            SyncEvent::TaskEnd { context } => {
                let vc = st.clocks.get(&context).cloned().unwrap_or_default();
                if st.final_clocks.insert(context, vc).is_none() {
                    st.final_order.push_back(context);
                }
                while st.final_clocks.len() > MAX_FINAL_CLOCKS {
                    if let Some(old) = st.final_order.pop_front() {
                        st.final_clocks.remove(&old);
                        // The live clock is also dead weight once the task
                        // ended and its final clock aged out.
                        st.clocks.remove(&old);
                    } else {
                        break;
                    }
                }
            }
            SyncEvent::Join { waiter, target } => {
                let target_vc = st
                    .final_clocks
                    .get(&target)
                    .or_else(|| st.clocks.get(&target))
                    .cloned()
                    .unwrap_or_default();
                let waiter_vc = st.clocks.entry(waiter).or_default().clone();
                // Optimization 3: `join` short-circuits on pointer equality,
                // the common fork/join-without-TSVD-points case.
                st.clocks.insert(waiter, waiter_vc.join(&target_vc));
            }
            SyncEvent::LockAcquire { context, lock } => {
                if let Some(lock_vc) = st.lock_clocks.get(&lock).cloned() {
                    let vc = st.clocks.entry(context).or_default().clone();
                    st.clocks.insert(context, vc.join(&lock_vc));
                }
            }
            SyncEvent::LockRelease { context, lock } => {
                let vc = st.clocks.entry(context).or_default().clone();
                st.lock_clocks.insert(lock, vc);
            }
        }
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
        let st = self.state.lock();
        let clock_bytes = |n: usize| n * (std::mem::size_of::<ContextId>() + 48);
        clock_bytes(st.clocks.len())
            + clock_bytes(st.final_clocks.len())
            + clock_bytes(st.lock_clocks.len())
            + st.obj_hist
                .values()
                .map(|h| h.len() * std::mem::size_of::<ObjAccess>())
                .sum::<usize>()
            + self.plan.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteData;

    fn site(n: u32) -> SiteId {
        SiteId::intern(SiteData {
            file: "tsvd_hb_test.rs",
            line: n,
            column: 1,
        })
    }

    fn acc(ctx: u64, obj: u64, s: SiteId, kind: OpKind) -> Access {
        Access {
            context: ContextId(ctx),
            obj: ObjId(obj),
            site: s,
            op_name: "t.op",
            kind,
            time_ns: 0,
        }
    }

    fn strategy() -> TsvdHb {
        TsvdHb::new(&TsvdConfig::paper())
    }

    #[test]
    fn concurrent_conflicting_accesses_arm_pair() {
        let s = strategy();
        // Two unrelated contexts (no fork edge): concurrent by definition.
        s.on_access(&acc(1, 7, site(1), OpKind::Write), true);
        let d = s.on_access(&acc(2, 7, site(2), OpKind::Write), true);
        assert_eq!(s.trap_set_len(), 1);
        assert!(d.is_some(), "armed site delays in the same run");
    }

    #[test]
    fn fork_edge_orders_parent_prefix() {
        let s = strategy();
        // Parent (1) accesses, then forks child (2): the child inherits the
        // parent's clock, so the accesses are HB-ordered — no pair.
        s.on_access(&acc(1, 7, site(1), OpKind::Write), true);
        s.on_sync(&SyncEvent::Fork {
            parent: ContextId(1),
            child: ContextId(2),
        });
        s.on_access(&acc(2, 7, site(2), OpKind::Write), true);
        assert_eq!(s.trap_set_len(), 0, "fork-ordered accesses must not arm");
    }

    #[test]
    fn parent_access_after_fork_is_concurrent_with_child() {
        let s = strategy();
        s.on_sync(&SyncEvent::Fork {
            parent: ContextId(1),
            child: ContextId(2),
        });
        s.on_access(&acc(1, 7, site(1), OpKind::Write), true);
        s.on_access(&acc(2, 7, site(2), OpKind::Write), true);
        assert_eq!(s.trap_set_len(), 1);
    }

    #[test]
    fn join_edge_orders_child_accesses() {
        let s = strategy();
        s.on_sync(&SyncEvent::Fork {
            parent: ContextId(1),
            child: ContextId(2),
        });
        s.on_access(&acc(2, 7, site(2), OpKind::Write), true);
        s.on_sync(&SyncEvent::TaskEnd {
            context: ContextId(2),
        });
        s.on_sync(&SyncEvent::Join {
            waiter: ContextId(1),
            target: ContextId(2),
        });
        // Parent accesses after joining the child: ordered, no pair.
        s.on_access(&acc(1, 7, site(1), OpKind::Write), true);
        assert_eq!(s.trap_set_len(), 0, "join-ordered accesses must not arm");
    }

    #[test]
    fn lock_transfer_orders_critical_sections() {
        let s = strategy();
        // Context 1 accesses under the lock, releases; context 2 acquires
        // the same lock, then accesses: release→acquire is an HB edge.
        s.on_sync(&SyncEvent::LockAcquire {
            context: ContextId(1),
            lock: 99,
        });
        s.on_access(&acc(1, 7, site(1), OpKind::Write), true);
        s.on_sync(&SyncEvent::LockRelease {
            context: ContextId(1),
            lock: 99,
        });
        s.on_sync(&SyncEvent::LockAcquire {
            context: ContextId(2),
            lock: 99,
        });
        s.on_access(&acc(2, 7, site(2), OpKind::Write), true);
        s.on_sync(&SyncEvent::LockRelease {
            context: ContextId(2),
            lock: 99,
        });
        assert_eq!(
            s.trap_set_len(),
            0,
            "consistently locked accesses must not arm (no false positives)"
        );
    }

    #[test]
    fn different_locks_do_not_order() {
        let s = strategy();
        s.on_sync(&SyncEvent::LockAcquire {
            context: ContextId(1),
            lock: 1,
        });
        s.on_access(&acc(1, 7, site(1), OpKind::Write), true);
        s.on_sync(&SyncEvent::LockRelease {
            context: ContextId(1),
            lock: 1,
        });
        s.on_sync(&SyncEvent::LockAcquire {
            context: ContextId(2),
            lock: 2,
        });
        s.on_access(&acc(2, 7, site(2), OpKind::Write), true);
        assert_eq!(s.trap_set_len(), 1, "distinct locks do not synchronize");
    }

    #[test]
    fn read_read_never_arms() {
        let s = strategy();
        s.on_access(&acc(1, 7, site(1), OpKind::Read), true);
        s.on_access(&acc(2, 7, site(2), OpKind::Read), true);
        assert_eq!(s.trap_set_len(), 0);
    }

    #[test]
    fn history_is_bounded() {
        let mut cfg = TsvdConfig::paper();
        cfg.hb_access_history = 2;
        let s = TsvdHb::new(&cfg);
        for i in 0..10u64 {
            s.on_access(&acc(1, 7, site(10 + i as u32), OpKind::Write), true);
        }
        let st = s.state.lock();
        assert!(st.obj_hist.get(&ObjId(7)).expect("tracked").len() <= 2);
    }

    #[test]
    fn violation_prunes_pair() {
        let s = strategy();
        s.on_access(&acc(1, 7, site(1), OpKind::Write), true);
        s.on_access(&acc(2, 7, site(2), OpKind::Write), true);
        let pair = SitePair::new(site(1), site(2));
        assert!(s.is_armed(pair));
        s.on_violation(pair);
        assert!(!s.is_armed(pair));
    }

    #[test]
    fn final_clock_table_is_bounded() {
        let s = strategy();
        for i in 0..(MAX_FINAL_CLOCKS as u64 + 500) {
            let ctx = ContextId(10_000 + i);
            s.on_sync(&SyncEvent::Fork {
                parent: ContextId(1),
                child: ctx,
            });
            s.on_sync(&SyncEvent::TaskEnd { context: ctx });
        }
        let st = s.state.lock();
        assert!(st.final_clocks.len() <= MAX_FINAL_CLOCKS);
        assert_eq!(st.final_clocks.len(), st.final_order.len());
    }

    #[test]
    fn evicted_final_clock_degrades_safely() {
        // Joining a context whose final clock aged out must not panic and
        // must not order anything incorrectly (it simply loses the edge).
        let s = strategy();
        s.on_sync(&SyncEvent::Fork {
            parent: ContextId(1),
            child: ContextId(2),
        });
        s.on_access(&acc(2, 7, site(40), OpKind::Write), true);
        s.on_sync(&SyncEvent::TaskEnd {
            context: ContextId(2),
        });
        // Flood the table so context 2's final clock is evicted.
        for i in 0..(MAX_FINAL_CLOCKS as u64 + 10) {
            let ctx = ContextId(20_000 + i);
            s.on_sync(&SyncEvent::TaskEnd { context: ctx });
        }
        s.on_sync(&SyncEvent::Join {
            waiter: ContextId(1),
            target: ContextId(2),
        });
        // The lost edge means this access *may* arm a pair — allowed — but
        // nothing panics and the trap set stays consistent.
        s.on_access(&acc(1, 7, site(41), OpKind::Write), true);
        assert!(s.trap_set_len() <= 1);
    }

    #[test]
    fn trap_file_round_trip() {
        let s1 = strategy();
        s1.on_access(&acc(1, 7, site(1), OpKind::Write), true);
        s1.on_access(&acc(2, 7, site(2), OpKind::Write), true);
        let file = s1.export_trap_file().expect("persists");
        let s2 = strategy();
        s2.import_trap_file(&file);
        assert!(s2.is_armed(SitePair::new(site(1), site(2))));
    }
}
