//! Integration tests for the thread-local batching fast path.
//!
//! The contract under test: batching changes *when* observations reach the
//! shared analysis structures, never *which* observations do — and every
//! buffered observation is delivered before (or because) a trap goes live.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

use tsvd_core::context::{self, ContextId};
use tsvd_core::near_miss::SitePair;
use tsvd_core::site::SiteData;
use tsvd_core::trap_file::{PairOrigin, TrapFileData};
use tsvd_core::{ObjId, OpKind, Runtime, SiteId, TsvdConfig};

/// A deterministic profile: no delays (budget zero), no phase gating, no
/// windowing, no HB inference — pair discovery depends only on the access
/// sequence, so batched and unbatched runs must agree exactly.
fn deterministic_config() -> TsvdConfig {
    let mut c = TsvdConfig::for_testing();
    c.max_delay_per_run_ns = 0;
    c.enable_phase_detection = false;
    c.enable_windowing = false;
    c.enable_hb_inference = false;
    c.decay_factor = 0.0;
    c
}

fn armed_pairs(rt: &Runtime) -> Vec<SitePair> {
    let data = rt.export_trap_file().expect("tsvd exports state");
    let mut pairs = data.to_pairs();
    pairs.sort();
    pairs
}

fn drive(rt: &Runtime, sites: &[SiteId; 3]) {
    // Three logical contexts interleave writes over four objects: plenty of
    // conflicting near-miss material, all on one driver thread.
    for round in 0..8u64 {
        for (i, site) in sites.iter().enumerate() {
            let _g = context::enter(ContextId(9_000 + i as u64));
            rt.on_call(ObjId(round % 4), *site, "x.write", OpKind::Write);
        }
    }
}

#[test]
fn batched_replay_discovers_the_same_pairs() {
    let sites = [tsvd_core::site!(), tsvd_core::site!(), tsvd_core::site!()];

    let unbatched = Runtime::tsvd(deterministic_config());
    assert!(!unbatched.is_batching());
    drive(&unbatched, &sites);

    let batched = Runtime::tsvd({
        let mut c = deterministic_config();
        c.batch_capacity = 10_000; // Everything stays local until the flush.
        c
    });
    assert!(batched.is_batching());
    drive(&batched, &sites);
    assert_eq!(
        batched.stats().on_calls(),
        0,
        "quiescent accesses must not touch shared statistics"
    );
    assert!(batched.thread_buffered_events() > 0);
    batched.flush_thread_events();

    assert_eq!(batched.thread_buffered_events(), 0);
    assert_eq!(batched.stats().on_calls(), unbatched.stats().on_calls());
    let expected = armed_pairs(&unbatched);
    assert!(!expected.is_empty(), "the schedule must arm something");
    assert_eq!(
        armed_pairs(&batched),
        expected,
        "batched replay must arm exactly the pairs the inline path armed"
    );
}

#[test]
fn arming_mid_storm_drains_every_live_thread() {
    // Two threads buffer conflicting observations, then a pair is armed
    // while their buffers are still local. The cooperative drain must make
    // every pre-arm near miss visible at each thread's next touch point —
    // including the (site_a, site_b) pair neither thread has flushed yet.
    let mut cfg = deterministic_config();
    cfg.batch_capacity = 1_000;
    // Allow real (tiny) delays so arming actually requests a drain.
    cfg.max_delay_per_run_ns = u64::MAX;
    cfg.delay_ns = 1;
    let rt = Runtime::tsvd(cfg);
    let site_a = tsvd_core::site!();
    let site_b = tsvd_core::site!();
    let seed_x = tsvd_core::site!();
    let seed_y = tsvd_core::site!();

    let (to_t1, t1_step) = mpsc::channel::<()>();
    let (to_t2, t2_step) = mpsc::channel::<()>();
    let (report, progress) = mpsc::channel::<&'static str>();

    std::thread::scope(|scope| {
        let rt1 = &rt;
        let rep1 = report.clone();
        scope.spawn(move || {
            rt1.on_call(ObjId(7), site_a, "x.write", OpKind::Write);
            assert_eq!(rt1.thread_buffered_events(), 1, "quiescent call buffers");
            rep1.send("t1-buffered").expect("main alive");
            t1_step.recv().expect("step signal");
            // Gate is closed now: this call must drain the buffer first.
            rt1.on_call(ObjId(991), site_a, "x.write", OpKind::Write);
            assert_eq!(rt1.thread_buffered_events(), 0, "drain on next touch");
        });
        let rt2 = &rt;
        let rep2 = report;
        scope.spawn(move || {
            rt2.on_call(ObjId(7), site_b, "x.write", OpKind::Write);
            assert_eq!(rt2.thread_buffered_events(), 1);
            rep2.send("t2-buffered").expect("main alive");
            t2_step.recv().expect("step signal");
            rt2.on_call(ObjId(992), site_b, "x.write", OpKind::Write);
            assert_eq!(rt2.thread_buffered_events(), 0);
        });

        for _ in 0..2 {
            progress
                .recv_timeout(Duration::from_secs(10))
                .expect("worker buffered");
        }
        assert_eq!(rt.stats().on_calls(), 0, "the storm is still local");

        // Mid-storm arming: seed an unrelated pair, then trip a delay at it
        // so a live trap requests the force-drain.
        let mut seed = TrapFileData::default();
        seed.push((seed_x.to_string(), seed_y.to_string()), PairOrigin::Static);
        rt.import_trap_file(&seed);
        rt.on_call(ObjId(99), seed_x, "x.write", OpKind::Write);
        assert!(rt.stats().drain_requests() >= 1, "arming requested a drain");

        to_t1.send(()).expect("t1 alive");
        to_t2.send(()).expect("t2 alive");
    });

    assert!(
        rt.stats().on_calls() >= 5,
        "every pre-arm observation must reach the shared stats, got {}",
        rt.stats().on_calls()
    );
    assert!(
        armed_pairs(&rt).contains(&SitePair::new(site_a, site_b)),
        "the near miss both threads had buffered must be armed after the drain"
    );
}

#[test]
fn thread_exit_flushes_the_local_buffer() {
    let mut cfg = deterministic_config();
    cfg.batch_capacity = 1_000;
    let rt = Runtime::tsvd(cfg);
    let site = tsvd_core::site!();
    // A spawned thread's `join` returns only after its TLS destructors have
    // run; `thread::scope` returns as soon as the closure does, which is
    // before the exit flush.
    let worker = {
        let rt = rt.clone();
        std::thread::spawn(move || {
            for i in 0..5 {
                rt.on_call(ObjId(i), site, "x.write", OpKind::Write);
            }
            assert_eq!(rt.thread_buffered_events(), 5);
            // No explicit flush: the TLS destructor must deliver these.
        })
    };
    worker.join().expect("worker panicked");
    assert_eq!(rt.stats().on_calls(), 5, "exit flush delivers every event");
    assert!(rt.stats().thread_exit_flushes() >= 1);
    assert_eq!(rt.stats().batch_events_flushed(), 5);
}

/// `on_calls` has no counter of its own: it is the sum of the coverage
/// cells. It must equal the calls issued whichever way they were delivered,
/// and the per-site snapshot must match a recount — including once the
/// table has grown past its first chunk, high site indices first.
#[test]
fn on_calls_and_coverage_are_exact_over_every_delivery_path() {
    const THREADS: usize = 4;
    const CALLS: usize = 1_000;
    // 200 sites span at least four 64-cell chunks of the coverage table.
    let sites: Vec<SiteId> = (0..200)
        .map(|n| {
            SiteId::intern(SiteData {
                file: "coverage_delivery_test.rs",
                line: n + 1,
                column: 1,
            })
        })
        .collect();
    let spread = sites.last().expect("non-empty").index() - sites[0].index();
    assert!(spread >= 199, "sites must not share one chunk");

    // (delivery, batch_capacity, flush before exiting?)
    for (delivery, capacity, flush) in [
        ("inline", 0, false),
        ("batched flush", 64, true),
        ("thread-exit flush", 10 * CALLS, false),
    ] {
        let mut cfg = deterministic_config();
        cfg.batch_capacity = capacity;
        let rt = Runtime::tsvd(cfg);
        // Joining a spawned thread waits for its TLS destructors, and so
        // for the exit flush.
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (rt, sites) = (rt.clone(), sites.clone());
                std::thread::spawn(move || {
                    let mut issued: HashMap<SiteId, u64> = HashMap::new();
                    // Largest index first; a private object per thread, so
                    // nothing arms and a batching runtime keeps buffering.
                    for &site in sites.iter().rev().cycle().skip(t).take(CALLS) {
                        rt.on_call(ObjId(t as u64), site, "x.read", OpKind::Read);
                        *issued.entry(site).or_default() += 1;
                    }
                    if flush {
                        rt.flush_thread_events();
                    }
                    issued
                })
            })
            .collect();
        let mut recount: HashMap<SiteId, u64> = HashMap::new();
        for worker in workers {
            for (site, n) in worker.join().expect("worker panicked") {
                *recount.entry(site).or_default() += n;
            }
        }

        let stats = rt.stats();
        assert_eq!(stats.on_calls(), (THREADS * CALLS) as u64, "{delivery}");
        assert_eq!(stats.sites_covered(), recount.len(), "{delivery}");
        let coverage: HashMap<SiteId, u64> = stats
            .coverage()
            .into_iter()
            .map(|(site, c)| (site, c.hits))
            .collect();
        assert_eq!(coverage, recount, "{delivery}");
        match delivery {
            "inline" => assert_eq!(stats.batch_flushes(), 0),
            "batched flush" => assert!(stats.batch_flushes() >= (THREADS * CALLS / 64) as u64),
            _ => assert_eq!(stats.thread_exit_flushes(), THREADS as u64),
        }
    }
}

#[test]
fn batched_runtime_still_catches_forced_collision() {
    // End-to-end through the batched fast path: near miss (buffered, then
    // flushed) arms the pair, the armed pair closes the gate, and the
    // subsequent inline collision is caught red-handed.
    let mut c = TsvdConfig::for_testing();
    c.decay_factor = 0.0;
    c.batch_capacity = 64;
    let delay = Duration::from_nanos(c.delay_ns);
    for _attempt in 0..3 {
        let rt = Runtime::tsvd(c.clone());
        let obj = ObjId(0xBA7C4);
        let site_a = tsvd_core::site!();
        let site_b = tsvd_core::site!();
        // (1) Near miss: the spawned thread's access flushes at thread
        // exit; ours needs an explicit flush to complete the pair.
        std::thread::scope(|scope| {
            scope.spawn(|| rt.on_call(obj, site_a, "x.write", OpKind::Write));
        });
        rt.on_call(obj, site_b, "x.write", OpKind::Write);
        rt.flush_thread_events();
        // (2)+(3) The armed pair closed the gate, so both sides now take
        // the inline path: trap, sleep, collide.
        std::thread::scope(|scope| {
            scope.spawn(|| rt.on_call(obj, site_a, "x.write", OpKind::Write));
            std::thread::sleep(delay / 4);
            rt.on_call(obj, site_b, "x.write", OpKind::Write);
        });
        if rt.reports().unique_bugs() >= 1 {
            return;
        }
    }
    panic!("forced collision was not caught in 3 attempts");
}
