//! Proof of what `Runtime::on_call` locks and writes: a call on the
//! zero-trap path takes exactly two locks and makes exactly two shared
//! writes; the armed path's no-op mutations — what a rediscovered near miss
//! asks for — take no lock and publish nothing, and neither does a near
//! miss a carried HB edge keeps out; and a call on an object no other
//! thread calls locks only what is its own and leaves the phase ring alone
//! between bursts.
//!
//! Every lock acquisition and shared write on the runtime's access paths is
//! annotated with `audit::note_lock` / `audit::note_shared_write` (see
//! `crates/core/src/audit.rs`). Under the `hotpath_audit` feature those
//! notes bump thread-local counters; these tests assert the counts DESIGN.md
//! "The private path" and "The armed path" state, so a third lock or a new
//! shared write fails a test rather than a benchmark.

#![cfg(feature = "hotpath_audit")]

use tsvd_core::context::{self, ContextId};
use tsvd_core::decay::DecayTable;
use tsvd_core::near_miss::SitePair;
use tsvd_core::trapset::{PairEvent, TrapSet};
use tsvd_core::{audit, epoch, ObjId, OpKind, Runtime, TrapFileData, TsvdConfig};

#[test]
fn quiescent_single_thread_call_takes_two_locks_and_makes_two_shared_writes() {
    const N: u64 = 1_000;
    let rt = Runtime::tsvd(TsvdConfig::for_testing());
    let site = tsvd_core::site!();

    // Warm-up: clock origin, context TLS, this thread's coverage plane and
    // its chunk, and the HB stripe's entry for this context are one-time
    // set-up, not per-call work.
    rt.on_call(ObjId(1), site, "x.write", OpKind::Write);

    audit::reset();
    for i in 0..N {
        rt.on_call(ObjId(1 + (i % 16)), site, "x.write", OpKind::Write);
    }
    assert_eq!(
        audit::lock_acquisitions(),
        2 * N,
        "per call: the context's HB stripe and the object's near-miss slot"
    );
    assert_eq!(
        audit::shared_writes(),
        2 * N,
        "per call: one phase-ring visit (a sequential phase visits on every \
         call) and the site's cell in this thread's coverage plane — no epoch \
         pin, no trap-table word, nothing published"
    );
    assert_eq!(rt.stats().on_calls(), N + 1);
    let armed = rt.export_trap_file().expect("tsvd exports").pairs.len();
    assert_eq!(armed, 0, "one context arms nothing");
}

#[test]
fn noop_mutations_take_no_lock_and_publish_nothing() {
    let (a, b, c) = (tsvd_core::site!(), tsvd_core::site!(), tsvd_core::site!());
    let (armed, absent) = (SitePair::new(a, b), SitePair::new(a, c));
    let traps = TrapSet::new();
    let decay = DecayTable::new(0.5, 0.05);
    let near_miss = PairEvent::NearMiss { ordered: false };
    audit::reset();
    assert!(traps.apply(armed, near_miss).arrival().is_none());
    decay.arm(a);
    decay.arm(b);
    assert!(
        audit::lock_acquisitions() >= 3 && audit::shared_writes() >= 3,
        "arming takes the writer locks and publishes snapshots"
    );

    let rediscover = || {
        assert!(traps.apply(armed, near_miss).arrival().is_some(), "armed");
        traps.apply(absent, PairEvent::Evict); // never armed
        decay.arm(a); // already at 1.0
    };

    // Each of the three snapshot answers pins the epoch — one store to this
    // thread's own slot, what any snapshot read costs — and nothing else is
    // written.
    audit::reset();
    rediscover();
    assert_eq!(
        audit::lock_acquisitions(),
        0,
        "no-op mutations lock nothing"
    );
    assert_eq!(audit::shared_writes(), 3, "exactly the three epoch pins");

    // Under a pin already held, the same answers write nothing at all.
    let pin = epoch::pin();
    audit::reset();
    rediscover();
    assert_eq!(audit::lock_acquisitions(), 0);
    assert_eq!(audit::shared_writes(), 0);
    drop(pin);

    // Control: the same calls, when they do change something, are visible.
    audit::reset();
    traps.apply(armed, PairEvent::Evict);
    assert!(traps.is_empty());
    decay.remove(a);
    assert_eq!(audit::lock_acquisitions(), 2, "effective writes lock");
    assert!(audit::shared_writes() >= 2);
}

#[test]
fn armed_steady_state_locks_only_its_own_two_stripes() {
    // Two logical contexts alternate writes on one object through two
    // sites: the near miss arms the pair, and from then on every call
    // rediscovers it. Zero delay budget: the path plans but never sleeps.
    let mut cfg = TsvdConfig::for_testing();
    cfg.max_delay_per_run_ns = 0;
    let rt = Runtime::tsvd(cfg);
    let (a, b) = (tsvd_core::site!(), tsvd_core::site!());
    let round = || {
        for (ctx, site) in [(7_001, a), (7_002, b)] {
            let _g = context::enter(ContextId(ctx), None);
            rt.on_call(ObjId(1), site, "x.write", OpKind::Write);
        }
    };
    for _ in 0..8 {
        round();
    }
    let armed = rt.export_trap_file().expect("tsvd exports").pairs.len();
    assert_eq!(armed, 1, "the alternation arms exactly {{a, b}}");

    audit::reset();
    for _ in 0..100 {
        round();
    }
    assert_eq!(
        audit::lock_acquisitions(),
        2 * 200,
        "per call: the context's HB stripe and the object's near-miss slot — \
         no trap-set or decay writer lock, no coverage lock, no global HB mutex"
    );
    assert_eq!(rt.stats().on_calls(), 216);
}

#[test]
fn a_near_miss_a_carried_edge_keeps_out_locks_nothing_of_its_own() {
    // The alternation of `armed_steady_state_locks_only_its_own_two_stripes`,
    // on a pair the trap file carries an inferred HB edge for: every near
    // miss is kept out by it, and the edge is read in the same snapshot
    // read that would arm the pair.
    let mut cfg = TsvdConfig::for_testing();
    cfg.max_delay_per_run_ns = 0;
    let rt = Runtime::tsvd(cfg);
    let (a, b) = (tsvd_core::site!(), tsvd_core::site!());
    rt.import_trap_file(&TrapFileData {
        inferred: vec![(a.to_string(), b.to_string())],
        ..TrapFileData::default()
    });
    let round = || {
        for (ctx, site) in [(7_101, a), (7_102, b)] {
            let _g = context::enter(ContextId(ctx), None);
            rt.on_call(ObjId(2), site, "x.write", OpKind::Write);
        }
    };
    for _ in 0..8 {
        round();
    }
    let armed = rt.export_trap_file().expect("tsvd exports").pairs.len();
    assert_eq!(armed, 0, "the carried edge keeps {{a, b}} out");

    audit::reset();
    for _ in 0..100 {
        round();
    }
    assert_eq!(
        audit::lock_acquisitions(),
        2 * 200,
        "per call: the context's HB stripe and the object's near-miss slot — \
         the edge is read without a lock"
    );
}

#[test]
fn private_object_in_a_concurrent_phase_locks_its_own_two_and_visits_the_ring_once_a_burst() {
    // Two threads, each on objects only it calls, in lockstep rounds of one
    // burst (k = phase_buffer / 2 calls) each, so that both stay in the
    // ring and every call is made in a concurrent phase.
    const ROUNDS: u64 = 50;
    let cfg = TsvdConfig::for_testing();
    let k = cfg.phase_buffer as u64 / 2;
    let rt = Runtime::tsvd(cfg);
    let site = tsvd_core::site!();
    let step = std::sync::Barrier::new(2);
    let run = |first_obj: u64| {
        let round = |r: u64| {
            step.wait();
            for i in 0..k {
                let obj = ObjId(first_obj + (r * k + i) % 32);
                rt.on_call(obj, site, "x.write", OpKind::Write);
            }
        };
        (0..4).for_each(round); // Fill the ring, the slots, the stripes.
        audit::reset();
        (4..4 + ROUNDS).for_each(round);
        (audit::lock_acquisitions(), audit::shared_writes())
    };
    let (mine, theirs) = std::thread::scope(|scope| {
        let other = scope.spawn(|| run(1_000));
        (run(2_000), other.join().expect("no panic"))
    });
    let calls = ROUNDS * k;
    for (locks, writes) in [mine, theirs] {
        assert_eq!(locks, 2 * calls, "own HB stripe, own object slot");
        // One cell of this thread's coverage plane per call, one ring visit
        // per burst.
        let ring_visits = writes - calls;
        assert!(
            (1..=calls / k + 1).contains(&ring_visits),
            "{ring_visits} ring visits in {calls} calls, k = {k}"
        );
    }
    let cov = rt.stats().coverage();
    let hits = cov.iter().find(|(s, _)| *s == site).expect("covered").1;
    assert_eq!(hits.hits, 2 * (4 + ROUNDS) * k);
    assert!(
        hits.concurrent_hits >= 2 * calls,
        "every audited call was made in a concurrent phase"
    );
    assert_eq!(
        rt.export_trap_file().expect("tsvd exports").pairs.len(),
        0,
        "private objects arm nothing"
    );
}
