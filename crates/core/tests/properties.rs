//! Seeded property tests for the core detection components.
//!
//! Each property runs over [`CASES`] inputs, every one a pure function of
//! its seed ([`SplitMix64`]); a failure names the seed and, where the
//! property is checked as it goes, the step.

use std::collections::HashSet;

use tsvd_core::access::{Access, ObjId, OpKind};
use tsvd_core::context::ContextId;
use tsvd_core::decay::DecayTable;
use tsvd_core::hb_infer::{DelayRecord, HbInference};
use tsvd_core::near_miss::{NearMissTracker, SitePair};
use tsvd_core::report::{Party, ReportSink, Violation};
use tsvd_core::rng::SplitMix64;
use tsvd_core::site::{SiteData, SiteId};

/// Inputs per property.
const CASES: u64 = 256;

fn site(n: u32) -> SiteId {
    SiteId::intern(SiteData {
        file: "properties.rs",
        line: n,
        column: 1,
    })
}

fn access(ctx: u64, obj: u64, s: u32, write: bool, t_ns: u64) -> Access {
    Access {
        context: ContextId(ctx),
        obj: ObjId(obj),
        site: site(s),
        op_name: "p.op",
        kind: if write { OpKind::Write } else { OpKind::Read },
        time_ns: t_ns,
    }
}

/// A value in `lo..hi`.
fn range(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

fn coin(rng: &mut SplitMix64) -> bool {
    rng.below(2) == 1
}

/// The tracker never tracks more objects than its bound, nor grows past a
/// fixed footprint, whatever the access stream.
#[test]
fn near_miss_memory_is_bounded() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let history = range(&mut rng, 1, 6) as usize;
        let tracker = NearMissTracker::new(history, Some(100), 4);
        for _ in 0..range(&mut rng, 1, 300) {
            let (ctx, obj) = (rng.below(4), rng.below(8));
            let (s, write, t) = (rng.below(6) as u32, coin(&mut rng), rng.below(1_000));
            tracker.record(&access(ctx, obj, s, write, t));
        }
        assert!(tracker.tracked_objects() <= 4, "seed {seed}");
        assert!(tracker.approx_bytes() < 64 * 1024, "seed {seed}");
    }
}

/// Decay is monotone non-increasing and eviction is permanent until
/// re-armed.
#[test]
fn decay_is_monotone() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let factor = 0.01 + (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 0.89;
        let steps = range(&mut rng, 1, 40);
        let t = DecayTable::new(factor, 0.05);
        t.arm(site(1));
        let mut last = t.probability(site(1));
        for step in 0..steps {
            let evicted = t.decay(site(1));
            let now = t.probability(site(1));
            assert!(
                now <= last + 1e-12,
                "seed {seed} step {step}: {last} -> {now}"
            );
            if evicted {
                assert_eq!(now, 0.0, "seed {seed} step {step}");
            }
            last = now;
        }
    }
}

/// HB inference never attributes causality to the blocked thread's own
/// delay, and inferred pairs always involve a recorded delay site.
#[test]
fn hb_inference_edges_are_justified() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = HbInference::new(50, 2, 64);
        let mut delay_sites = HashSet::new();
        for _ in 0..rng.below(20) {
            let (ctx, s, start) = (rng.below(3), rng.below(4) as u32, rng.below(500));
            delay_sites.insert(site(s));
            e.record_delay(DelayRecord {
                site: site(s),
                context: ContextId(ctx),
                start_ns: start,
                end_ns: start + 100,
            });
        }
        for step in 0..range(&mut rng, 1, 60) {
            let (ctx, s, t) = (rng.below(3), range(&mut rng, 4, 8) as u32, rng.below(1_000));
            if let Some(pair) = e.on_access(ContextId(ctx), site(s), t) {
                // One endpoint is the access; the other must be a delayed site.
                let partner = pair.other(site(s));
                assert!(
                    delay_sites.contains(&partner) || partner == site(s),
                    "seed {seed} step {step}: edge endpoint {partner:?} was never delayed"
                );
            }
        }
    }
}

/// Report sink: unique-bug count equals the number of distinct unordered
/// pairs reported, independent of order and repetition.
#[test]
fn report_dedup_is_exact() {
    let party = |s: u32, ctx: u64, op_name: &'static str| Party {
        site: site(s),
        context: ContextId(ctx),
        op_name,
        kind: OpKind::Write,
        stack: None,
    };
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let sink = ReportSink::new();
        let mut model = HashSet::new();
        for step in 0..range(&mut rng, 1, 80) {
            let (a, b) = (rng.below(6) as u32, rng.below(6) as u32);
            let (x, y) = if coin(&mut rng) { (b, a) } else { (a, b) };
            let v = Violation {
                trapped: party(x, 1, "p.a"),
                hitter: party(y, 2, "p.b"),
                obj: ObjId(1),
                time_ns: 0,
            };
            let is_new = sink.report(v);
            assert_eq!(
                is_new,
                model.insert(SitePair::new(site(x), site(y))),
                "seed {seed} step {step}"
            );
        }
        assert_eq!(sink.unique_bugs(), model.len(), "seed {seed}");
    }
}
