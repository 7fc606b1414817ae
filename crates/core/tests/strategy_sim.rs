//! Strategy-level simulation tests: drive the TSVD and TSVD-HB planners
//! with synthetic event streams (no real threads, no sleeps) and check
//! algorithm invariants over arbitrary interleavings.

// Requires the real `proptest` crate, which the offline build cannot
// fetch; run with `--features proptests` in an environment that has it.
#![cfg(feature = "proptests")]

use proptest::prelude::*;

use tsvd_core::access::{Access, ObjId, OpKind};
use tsvd_core::context::ContextId;
use tsvd_core::near_miss::SitePair;
use tsvd_core::phase::PhaseBuffer;
use tsvd_core::site::{SiteData, SiteId};
use tsvd_core::strategy::{Strategy as DetectorStrategy, SyncEvent, Tsvd, TsvdHb};
use tsvd_core::TsvdConfig;

fn site(n: u32) -> SiteId {
    SiteId::intern(SiteData {
        file: "strategy_sim.rs",
        line: n,
        column: 1,
    })
}

/// One synthetic event delivered to a strategy.
#[derive(Debug, Clone)]
enum Event {
    /// An access: (context, object, site index, is-write, time step).
    Access(u8, u8, u8, bool),
    /// A completed delay at the last-accessed site of a context.
    DelayDone(u8, u8, bool),
    /// A confirmed violation between two sites.
    Violation(u8, u8),
    /// A synchronization event (fork/join chain).
    Fork(u8, u8),
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        (0u8..4, 0u8..3, 0u8..5, any::<bool>()).prop_map(|(c, o, s, w)| Event::Access(c, o, s, w)),
        (0u8..4, 0u8..5, any::<bool>()).prop_map(|(c, s, x)| Event::DelayDone(c, s, x)),
        (0u8..5, 0u8..5).prop_map(|(a, b)| Event::Violation(a, b)),
        (0u8..4, 4u8..8).prop_map(|(p, c)| Event::Fork(p, c)),
    ]
}

fn drive(strategy: &dyn DetectorStrategy, events: &[Event]) -> Vec<SitePair> {
    let mut found = Vec::new();
    let mut now: u64 = 0;
    // The phase observation the runtime would make for each access.
    let phase = PhaseBuffer::new(TsvdConfig::for_testing().phase_buffer);
    for e in events {
        now += 1_000; // 1 µs steps: everything is inside the 2 ms window.
        match *e {
            Event::Access(c, o, s, w) => {
                let access = Access {
                    context: ContextId(u64::from(c)),
                    obj: ObjId(u64::from(o)),
                    site: site(u32::from(s)),
                    op_name: "sim.op",
                    kind: if w { OpKind::Write } else { OpKind::Read },
                    time_ns: now,
                };
                let _ = strategy.on_access(&access, phase.record_and_check(access.context));
            }
            Event::DelayDone(c, s, caught) => {
                let access = Access {
                    context: ContextId(u64::from(c)),
                    obj: ObjId(0),
                    site: site(u32::from(s)),
                    op_name: "sim.op",
                    kind: OpKind::Write,
                    time_ns: now,
                };
                strategy.on_delay_complete(&access, now.saturating_sub(500), now, caught);
            }
            Event::Violation(a, b) => {
                let pair = SitePair::new(site(u32::from(a)), site(u32::from(b)));
                strategy.on_violation(pair);
                found.push(pair);
            }
            Event::Fork(p, c) => {
                strategy.on_sync(&SyncEvent::Fork {
                    parent: ContextId(u64::from(p)),
                    child: ContextId(u64::from(c)),
                });
            }
        }
    }
    found
}

proptest! {
    /// TSVD never panics and never re-arms a found pair, under arbitrary
    /// event interleavings.
    #[test]
    fn tsvd_found_pairs_never_rearm(events in proptest::collection::vec(event(), 0..200)) {
        let s = Tsvd::new(&TsvdConfig::for_testing());
        let found = drive(&s, &events);
        for pair in found {
            prop_assert!(!s.is_armed(pair), "found pair {pair:?} re-armed");
        }
    }

    /// TSVD's trap set stays within the number of distinct site pairs that
    /// can possibly conflict (25 sites → 15 unordered pairs of 5 sites).
    #[test]
    fn tsvd_trap_set_is_bounded(events in proptest::collection::vec(event(), 0..300)) {
        let s = Tsvd::new(&TsvdConfig::for_testing());
        drive(&s, &events);
        prop_assert!(s.trap_set_len() <= 15);
    }

    /// should_delay fires only at armed locations: a site no event ever
    /// touched never delays.
    #[test]
    fn tsvd_never_delays_unseen_sites(events in proptest::collection::vec(event(), 0..150)) {
        let s = Tsvd::new(&TsvdConfig::for_testing());
        drive(&s, &events);
        let fresh = Access {
            context: ContextId(99),
            obj: ObjId(99),
            site: site(999),
            op_name: "sim.op",
            kind: OpKind::Write,
            time_ns: 10_000_000,
        };
        prop_assert_eq!(s.on_access(&fresh, true), None);
    }

    /// TSVD-HB holds the same invariants under the same streams (plus sync
    /// events feeding its clocks).
    #[test]
    fn tsvd_hb_found_pairs_never_rearm(events in proptest::collection::vec(event(), 0..200)) {
        let s = TsvdHb::new(&TsvdConfig::for_testing());
        let found = drive(&s, &events);
        for pair in found {
            prop_assert!(!s.is_armed(pair), "found pair {pair:?} re-armed");
        }
        prop_assert!(s.trap_set_len() <= 15);
    }

    /// Trap-file export/import is lossless for both strategies at any
    /// point in an event stream.
    #[test]
    fn trap_file_snapshot_is_lossless(events in proptest::collection::vec(event(), 0..150)) {
        let s = Tsvd::new(&TsvdConfig::for_testing());
        drive(&s, &events);
        let exported = s.export_trap_file().expect("tsvd persists");
        let restored = Tsvd::new(&TsvdConfig::for_testing());
        restored.import_trap_file(&exported);
        let mut a = exported.to_pairs();
        let mut b = restored.export_trap_file().expect("persists").to_pairs();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }
}
