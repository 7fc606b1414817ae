//! Collections and core: the ladder from a raw map operation up to a full
//! `Tsvd` `on_call`, one rung per metric, on the hot workloads' stream.
//!
//! The stream is `hot_private`'s when that is the traced workload and
//! `hot_shared`'s otherwise; the "armed set" probes use the pairs the
//! workload arms (every write site against every site on shared
//! dictionaries, none on private ones).

use std::sync::{Arc, Barrier};
use std::time::Instant;

use tsvd_benchmark::outcome::Outcome;
use tsvd_benchmark::rng::SplitMix64;
use tsvd_benchmark::workloads::hot::{
    config, decode, shape, stream_seed, Crew, DictSet, Sharing, BATCH, SITES,
};
use tsvd_core::access::{Access, ObjId, OpKind};
use tsvd_core::context;
use tsvd_core::decay::DecayTable;
use tsvd_core::hb_infer::HbInference;
use tsvd_core::near_miss::{NearMissTracker, SitePair};
use tsvd_core::phase::PhaseBuffer;
use tsvd_core::site::{SiteData, SiteId};
use tsvd_core::stats::RuntimeStats;
use tsvd_core::trap::TrapTable;
use tsvd_core::trapset::TrapSet;
use tsvd_core::{now_ns, Runtime, TsvdConfig};

use crate::{ns_per_call, raw_map, Ctx};

/// Thread-local batching capacity of the `tsvd_batched` rung (the value the
/// repository's own scaling bench uses).
const BATCH_CAPACITY: usize = 256;

/// The stream's 64 sites, interned once the way a wrapper would.
fn sites() -> Vec<SiteId> {
    (0..SITES as u32)
        .map(|i| {
            SiteId::intern(SiteData {
                file: "benchmark/probes/src/hot.rs",
                line: i + 1,
                column: 1,
            })
        })
        .collect()
}

fn kind_of(site: u64) -> OpKind {
    if site < 16 {
        OpKind::Write
    } else {
        OpKind::Read
    }
}

/// What the hot workloads' output checks read, when one of them is the
/// traced workload.
pub struct HotWitness {
    /// Pairs the `T`-thread `Tsvd` runtime armed.
    pub pairs_armed: Option<usize>,
    /// That runtime's strategy memory, bytes.
    pub strategy_bytes: usize,
}

/// One access as the runtime sees it: object, pre-interned site, kind.
type Call = (ObjId, SiteId, OpKind);

/// Thread `thread`'s first `n` accesses of the workload's stream over
/// `objects` objects numbered from `first`.
fn accesses(
    sites: &[SiteId],
    seed: u64,
    first: usize,
    objects: usize,
    keys: u64,
    thread: usize,
    n: usize,
) -> Vec<Call> {
    let mut rng = SplitMix64::new(stream_seed(seed, 1, thread));
    (0..n)
        .map(|_| {
            let op = decode(rng.next_u64(), objects, keys);
            (
                ObjId((1 + first + op.dict) as u64),
                sites[op.site as usize],
                kind_of(op.site),
            )
        })
        .collect()
}

/// Runs `work(t)` on `threads` pinned threads released together and
/// returns what each produced, in thread order.
fn together<R: Send>(threads: usize, work: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let gate = Barrier::new(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (gate, work) = (&gate, &work);
                scope.spawn(move || {
                    tsvd_benchmark::env::pin_current_thread(t);
                    gate.wait();
                    work(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    })
}

/// `on_call` nanoseconds with every stream issued on its own thread against
/// one runtime at once: first thread's start to last thread's end.
fn on_call_ns(runtime: &Arc<Runtime>, streams: &[Vec<Call>]) -> f64 {
    let spans = together(streams.len(), |t| {
        let start = Instant::now();
        for &(obj, site, kind) in &streams[t] {
            runtime.on_call(std::hint::black_box(obj), site, "bench.op", kind);
        }
        (start, Instant::now())
    });
    let first = spans.iter().map(|s| s.0).min().expect("threads > 0");
    let last = spans.iter().map(|s| s.1).max().expect("threads > 0");
    last.duration_since(first).as_nanos() as f64 / streams[0].len() as f64
}

/// Runs the section.
pub fn probe(ctx: &Ctx<'_>, out: &mut Outcome) -> HotWitness {
    let _section = ctx.tracer.span(true, "bench.probes.hot", 0);
    let sharing = if ctx.focus(&["hot_private"]) {
        Sharing::Private
    } else {
        Sharing::Shared
    };
    let focus = ctx.focus(&["hot_shared", "hot_private"]);
    let shape = shape(sharing, ctx.smoke || !focus);
    // One thread's view of the dictionaries, as in the workload.
    let objects = match sharing {
        Sharing::Shared => shape.dicts,
        Sharing::Private => shape.dicts / ctx.threads,
    };
    let batches = if focus { 4 } else { 1 };
    let n = batches * BATCH;
    let config = config(ctx.seed);

    // --- collections: the wrapper ladder at one thread -------------------------
    let (raw_ns, raw_sum) = raw_map::run(objects, shape.keys, ctx.seed, 1, batches);
    out.metric("collections.raw_op_ns", raw_ns);
    let mut sums = vec![raw_sum];
    std::thread::scope(|scope| {
        let crew = Crew::start(scope, 1, ctx.tracer);
        let mut rung = |name: &'static str, runtime: Option<Arc<Runtime>>| {
            let set = DictSet::new(objects, shape.keys, Sharing::Shared, runtime.as_ref());
            crew.fill(&set);
            let pass = crew.pass(&set, batches, ctx.seed, 1, None);
            out.metric(name, pass.wall_s * 1e9 / n as f64);
            sums.push(pass.checksums[0]);
        };
        rung("collections.unmonitored_op_ns", None);
        rung(
            "collections.noop_op_ns",
            Some(Runtime::noop(config.clone())),
        );
        rung(
            "collections.tsvd_op_ns",
            Some(Runtime::tsvd(config.clone())),
        );
    });
    out.attempted += 4 * n as u64;
    out.check(
        "every rung of the wrapper ladder reads the same values",
        sums.iter().all(|s| *s == sums[0]),
        format!("{sums:x?}"),
    );

    // --- core, function by function ----------------------------------------------
    let sites = sites();
    let stream = accesses(&sites, ctx.seed, 0, objects, shape.keys, 0, n);
    let me = context::current();
    let known = SiteData {
        file: "benchmark/probes/src/hot.rs",
        line: 1,
        column: 1,
    };
    out.metric(
        "core.site.intern_hit_ns",
        ns_per_call(n, |_| {
            std::hint::black_box(SiteId::intern(std::hint::black_box(known)));
        }),
    );
    let mt = together(ctx.threads, |_| {
        ns_per_call(n, |_| {
            std::hint::black_box(SiteId::intern(std::hint::black_box(known)));
        })
    });
    out.metric(
        "core.site.intern_hit_mt_ns",
        tsvd_benchmark::stats::median(&mt),
    );
    out.metric(
        "core.context.current_ns",
        ns_per_call(n, |_| {
            std::hint::black_box(context::current());
        }),
    );
    out.metric(
        "core.clock.now_ns",
        ns_per_call(n, |_| {
            std::hint::black_box(now_ns());
        }),
    );
    let phase = PhaseBuffer::new(config.phase_buffer);
    out.metric(
        "core.phase.record_ns",
        ns_per_call(n, |_| {
            std::hint::black_box(phase.record_and_check(me));
        }),
    );
    let stats = RuntimeStats::with_shards(config.stats_shards);
    out.metric(
        "core.stats.record_call_ns",
        ns_per_call(n, |i| stats.record_call(stream[i].1, false)),
    );
    // Synthetic time, 100 ns a call, so that no probe pays for a clock read
    // that `on_call` makes only once.
    let t0 = now_ns();
    let access = |i: usize| {
        let (obj, site, kind) = stream[i];
        Access {
            context: me,
            obj,
            site,
            op_name: "bench.op",
            kind,
            time_ns: t0 + 100 * i as u64,
        }
    };
    let traps = TrapTable::with_shards(config.trap_shards);
    out.metric(
        "core.trap.check_empty_ns",
        ns_per_call(n, |i| {
            std::hint::black_box(traps.check_for_trap(&access(i)));
        }),
    );
    // A live trap on an object the stream never touches: the check can no
    // longer skip on the live count, and never hits.
    let parked = traps.set_trap(
        Access {
            obj: ObjId(u64::MAX),
            ..access(0)
        },
        None,
    );
    out.metric(
        "core.trap.check_live_ns",
        ns_per_call(n, |i| {
            std::hint::black_box(traps.check_for_trap(&access(i)));
        }),
    );
    traps.clear_trap(&parked);
    let near_miss = NearMissTracker::with_shards(
        config.near_miss_history,
        Some(config.near_miss_window_ns),
        config.max_tracked_objects,
        config.near_miss_shards,
    );
    out.metric(
        "core.near_miss.record_ns",
        ns_per_call(n, |i| {
            std::hint::black_box(near_miss.record(&access(i)));
        }),
    );

    // --- the workload's armed set ---------------------------------------------------
    let armed: Vec<SitePair> = match sharing {
        Sharing::Private => Vec::new(),
        Sharing::Shared => (0..16)
            .flat_map(|w| (0..SITES as usize).map(move |s| (w, s)))
            .filter(|(w, s)| s >= w)
            .map(|(w, s)| SitePair::new(sites[w], sites[s]))
            .collect(),
    };
    let trapset = TrapSet::new();
    trapset.add_many(&armed, usize::MAX);
    out.metric(
        "core.trapset.contains_site_ns",
        ns_per_call(n, |i| {
            std::hint::black_box(trapset.contains_site(stream[i].1));
        }),
    );
    let decay = DecayTable::new(config.decay_factor, config.decay_floor);
    decay.arm_many(armed.iter().flat_map(|p| [p.first, p.second]));
    out.metric(
        "core.decay.probability_ns",
        ns_per_call(n, |i| {
            std::hint::black_box(decay.probability(stream[i].1));
        }),
    );
    let hb = HbInference::new(
        config.hb_gap_ns(),
        config.hb_inference_window,
        config.hb_delay_history,
    );
    out.metric(
        "core.hb_infer.on_access_ns",
        ns_per_call(n, |i| {
            std::hint::black_box(hb.on_access(me, stream[i].1, t0 + 100 * i as u64));
        }),
    );

    // --- on_call, whole ------------------------------------------------------------------
    let one = std::slice::from_ref(&stream);
    // Every thread its own stream: over the same objects, or over its own.
    let every: Vec<Vec<Call>> = (0..ctx.threads)
        .map(|t| {
            let first = match sharing {
                Sharing::Shared => 0,
                Sharing::Private => t * objects,
            };
            accesses(&sites, ctx.seed, first, objects, shape.keys, t, n)
        })
        .collect();
    let batched = TsvdConfig {
        batch_capacity: BATCH_CAPACITY,
        ..config.clone()
    };
    let tsvd = Runtime::tsvd(config.clone());
    let tsvd_ns = on_call_ns(&tsvd, one);
    out.metric(
        "core.on_call.noop_ns",
        on_call_ns(&Runtime::noop(config.clone()), one),
    );
    out.metric("core.on_call.tsvd_ns", tsvd_ns);
    out.metric(
        "core.on_call.tsvd_hb_ns",
        on_call_ns(&Runtime::tsvd_hb(config.clone()), one),
    );
    out.metric(
        "core.on_call.tsvd_batched_ns",
        on_call_ns(&Runtime::tsvd(batched), one),
    );
    out.metric(
        "core.on_call.noop_mt_ns",
        on_call_ns(&Runtime::noop(config.clone()), &every),
    );
    let tsvd_mt = Runtime::tsvd(config.clone());
    out.metric("core.on_call.tsvd_mt_ns", on_call_ns(&tsvd_mt, &every));
    out.attempted += ((4 + 2 * ctx.threads) * n) as u64;
    out.check(
        "on_call probes: on_calls equals calls issued",
        tsvd.stats().on_calls() == n as u64
            && tsvd_mt.stats().on_calls() == (ctx.threads * n) as u64,
        format!(
            "{} of {n}, {} of {}",
            tsvd.stats().on_calls(),
            tsvd_mt.stats().on_calls(),
            ctx.threads * n
        ),
    );
    // One thread arms nothing, so a one-thread Tsvd on_call is made of the
    // unarmed rungs: context, clock, two phase rings (coverage and
    // strategy), coverage cell, trap check, HB inference, near-miss record.
    let value = |name: &str| out.value(name).unwrap_or(f64::NAN);
    let parts = value("core.context.current_ns")
        + value("core.clock.now_ns")
        + 2.0 * value("core.phase.record_ns")
        + value("core.stats.record_call_ns")
        + value("core.trap.check_empty_ns")
        + value("core.hb_infer.on_access_ns")
        + value("core.near_miss.record_ns");
    out.metric("core.on_call.residual_ns", tsvd_ns - parts);

    // The witnesses the hot workloads' output checks read, from the
    // T-thread runtime; on other workloads the suite section reports its own.
    let pairs = tsvd_mt.export_trap_file().map_or(0, |t| t.pairs.len());
    if focus {
        out.check(
            "shared objects arm pairs, private ones do not",
            (sharing == Sharing::Shared) == (pairs > 0),
            format!("{pairs} armed"),
        );
    }
    HotWitness {
        pairs_armed: focus.then_some(pairs),
        strategy_bytes: if focus {
            tsvd_mt.strategy_memory_bytes()
        } else {
            0
        },
    }
}
