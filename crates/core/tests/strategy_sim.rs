//! Strategy-level simulation tests: drive the TSVD and TSVD-HB planners
//! with synthetic event streams (no real threads, no sleeps) and check
//! algorithm invariants over seeded interleavings.
//!
//! Every stream is a pure function of its seed ([`SplitMix64`]), each
//! invariant runs over [`SEEDS`] of them, and a failure names the seed.
//! The last test is a trace oracle: the per-event decision sequence of both
//! detectors, hashed per seed and pinned, so a refactor of the delay
//! planner that moves one decision — an arm, a prune, a `P_loc` draw — on
//! any of the streams fails here.

use std::sync::Once;

use tsvd_core::access::{Access, ObjId, OpKind};
use tsvd_core::context::ContextId;
use tsvd_core::near_miss::SitePair;
use tsvd_core::phase::PhaseBuffer;
use tsvd_core::rng::SplitMix64;
use tsvd_core::site::{SiteData, SiteId};
use tsvd_core::strategy::{Strategy, SyncEvent, Tsvd, TsvdHb};
use tsvd_core::trap_file::TrapFileData;
use tsvd_core::TsvdConfig;

/// Streams per invariant.
const SEEDS: u64 = 256;

/// Sites the streams touch. With self-pairs that is 15 unordered pairs.
const SITES: u64 = 5;
const MAX_PAIRS: usize = 15;

fn intern(line: u32) -> SiteId {
    SiteId::intern(SiteData {
        file: "strategy_sim.rs",
        line,
        column: 1,
    })
}

/// Site `n` of the simulated program. A `SitePair` orders its two sites by
/// intern index, and that order reaches the trap file's text and through it
/// the import tie-break, so the stream's sites are interned in line order
/// before anything else, whichever test gets here first.
fn site(n: u32) -> SiteId {
    static IN_LINE_ORDER: Once = Once::new();
    IN_LINE_ORDER.call_once(|| {
        for line in 0..SITES as u32 {
            intern(line);
        }
    });
    intern(n)
}

/// One synthetic event delivered to a strategy.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// An access: context, object, site index, is-write, and whether the
    /// context was away for longer than the HB-inference gap before it.
    Access(u8, u8, u8, bool, bool),
    /// A completed delay of a context at a site, and whether it caught.
    DelayDone(u8, u8, bool),
    /// A confirmed violation between two sites.
    Violation(u8, u8),
    /// A synchronization event (fork).
    Fork(u8, u8),
}

/// The stream of `seed`: up to `max_len` events, the four kinds equally
/// likely, one access in eight preceded by a long gap.
fn events(seed: u64, max_len: u64) -> Vec<Event> {
    let mut rng = SplitMix64::new(seed);
    let len = rng.below(max_len + 1);
    let mut small = |bound: u64| rng.below(bound) as u8;
    (0..len)
        .map(|_| match small(4) {
            0 => Event::Access(
                small(4),
                small(3),
                small(SITES),
                small(2) == 1,
                small(8) == 0,
            ),
            1 => Event::DelayDone(small(4), small(SITES), small(2) == 1),
            2 => Event::Violation(small(SITES), small(SITES)),
            _ => Event::Fork(small(4), 4 + small(4)),
        })
        .collect()
}

/// What a strategy under simulation must answer besides [`Strategy`].
trait Planner: Strategy {
    fn build(config: &TsvdConfig) -> Self;
    fn pairs_armed(&self) -> usize;
    fn armed(&self, pair: SitePair) -> bool;
}

impl Planner for Tsvd {
    fn build(config: &TsvdConfig) -> Self {
        Tsvd::new(config)
    }
    fn pairs_armed(&self) -> usize {
        self.trap_set_len()
    }
    fn armed(&self, pair: SitePair) -> bool {
        self.is_armed(pair)
    }
}

impl Planner for TsvdHb {
    fn build(config: &TsvdConfig) -> Self {
        TsvdHb::new(config)
    }
    fn pairs_armed(&self) -> usize {
        self.trap_set_len()
    }
    fn armed(&self, pair: SitePair) -> bool {
        self.is_armed(pair)
    }
}

/// Feeds `events` to `strategy` the way the runtime would, calling
/// `observe(on_access result, pairs armed)` after every event. Returns the
/// pairs reported as violations.
fn drive<P: Planner>(
    strategy: &P,
    config: &TsvdConfig,
    events: &[Event],
    mut observe: impl FnMut(Option<u64>, usize),
) -> Vec<SitePair> {
    let mut found = Vec::new();
    let mut now: u64 = 0;
    // The phase observation the runtime would make for each access.
    let phase = PhaseBuffer::new(config.phase_buffer);
    let access = |c: u8, o: u8, s: u8, write: bool, now: u64| Access {
        context: ContextId(u64::from(c)),
        obj: ObjId(u64::from(o)),
        site: site(u32::from(s)),
        op_name: "sim.op",
        kind: if write { OpKind::Write } else { OpKind::Read },
        time_ns: now,
    };
    for e in events {
        now += 1_000; // 1 µs steps: everything is inside the 2 ms window.
        let mut decision = None;
        match *e {
            Event::Access(c, o, s, write, long_gap) => {
                if long_gap {
                    now += config.hb_gap_ns() * 3 / 2;
                }
                let a = access(c, o, s, write, now);
                decision = strategy.on_access(&a, phase.record_and_check(a.context));
            }
            Event::DelayDone(c, s, caught) => {
                let a = access(c, 0, s, true, now);
                strategy.on_delay_complete(&a, now.saturating_sub(config.delay_ns), now, caught);
            }
            Event::Violation(a, b) => {
                let pair = SitePair::new(site(u32::from(a)), site(u32::from(b)));
                strategy.on_violation(pair);
                found.push(pair);
            }
            Event::Fork(p, c) => strategy.on_sync(&SyncEvent::Fork {
                parent: ContextId(u64::from(p)),
                child: ContextId(u64::from(c)),
            }),
        }
        observe(decision, strategy.pairs_armed());
    }
    found
}

fn run<P: Planner>(seed: u64, max_len: u64) -> (P, Vec<SitePair>) {
    let config = TsvdConfig::for_testing();
    let s = P::build(&config);
    let found = drive(&s, &config, &events(seed, max_len), |_, _| {});
    (s, found)
}

fn sorted_pairs(data: &TrapFileData) -> Vec<SitePair> {
    let mut pairs = data.to_pairs();
    pairs.sort();
    pairs
}

/// Found pairs never re-arm, and the trap set stays within the pairs the
/// stream's sites can form.
fn found_pairs_never_rearm<P: Planner>() {
    for seed in 0..SEEDS {
        let (s, found) = run::<P>(seed, 300);
        for pair in found {
            assert!(!s.armed(pair), "seed {seed}: found pair {pair:?} re-armed");
        }
        assert!(
            s.pairs_armed() <= MAX_PAIRS,
            "seed {seed}: {} pairs armed",
            s.pairs_armed()
        );
    }
}

/// `should_delay` fires only at armed locations: a site no event ever
/// touched never delays.
fn never_delays_unseen_sites<P: Planner>() {
    for seed in 0..SEEDS {
        let (s, _) = run::<P>(seed, 150);
        let fresh = Access {
            context: ContextId(99),
            obj: ObjId(99),
            site: site(999),
            op_name: "sim.op",
            kind: OpKind::Write,
            time_ns: 10_000_000_000,
        };
        assert_eq!(s.on_access(&fresh, true), None, "seed {seed}");
    }
}

/// Trap-file export → import is lossless at any point in a stream: the
/// armed pairs and the found ones alike.
fn trap_file_snapshot_is_lossless<P: Planner>() {
    for seed in 0..SEEDS {
        let (s, found) = run::<P>(seed, 150);
        let exported = s.export_trap_file().expect("persists");
        let restored = P::build(&TsvdConfig::for_testing());
        restored.import_trap_file(&exported);
        let again = restored.export_trap_file().expect("persists");
        assert_eq!(sorted_pairs(&exported), sorted_pairs(&again), "seed {seed}");
        assert_eq!(exported.found, again.found, "seed {seed}");
        assert_eq!(
            exported.found_pairs().len(),
            found.iter().collect::<std::collections::HashSet<_>>().len(),
            "seed {seed}: every reported pair is exported as found"
        );
        assert_eq!(restored.pairs_armed(), s.pairs_armed(), "seed {seed}");
    }
}

#[test]
fn tsvd_found_pairs_never_rearm_and_trap_set_is_bounded() {
    found_pairs_never_rearm::<Tsvd>();
}

#[test]
fn tsvd_hb_found_pairs_never_rearm_and_trap_set_is_bounded() {
    found_pairs_never_rearm::<TsvdHb>();
}

#[test]
fn tsvd_never_delays_unseen_sites() {
    never_delays_unseen_sites::<Tsvd>();
}

#[test]
fn tsvd_hb_never_delays_unseen_sites() {
    never_delays_unseen_sites::<TsvdHb>();
}

#[test]
fn tsvd_trap_file_snapshot_is_lossless() {
    trap_file_snapshot_is_lossless::<Tsvd>();
}

#[test]
fn tsvd_hb_trap_file_snapshot_is_lossless() {
    trap_file_snapshot_is_lossless::<TsvdHb>();
}

/// FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The decision trace of one detector on the stream of `seed`: a second run
/// (odd seeds under an import budget of 3) that starts from the trap file a
/// first run over a sibling stream exported, every `on_access` answer and
/// the trap-set size after every event.
fn trace<P: Planner>(seed: u64, digest: &mut Digest) {
    let (first, _) = run::<P>(seed ^ 0x5EED_0000, 120);
    let mut config = TsvdConfig::for_testing();
    if seed % 2 == 1 {
        config.trap_import_budget = 3;
    }
    let s = P::build(&config);
    s.import_trap_file(&first.export_trap_file().expect("persists"));
    digest.word(s.pairs_armed() as u64);
    drive(&s, &config, &events(seed, 300), |decision, armed| {
        digest.word(decision.map_or(0, |ns| ns + 1));
        digest.word(armed as u64);
    });
}

/// All [`SEEDS`] per-seed digests folded into one. Re-derive it with
/// `cargo test -p tsvd-core --test strategy_sim decision_trace -- --nocapture`
/// (the per-seed digests are printed) only for a change that is *meant* to
/// move a delay decision. Last moved by two rules of the second run: the
/// first run's found pairs are settled at import, and an imported pair that
/// decays out is not re-armed by a later near miss.
const TRACE_DIGEST: u64 = 0x4C49_664E_5170_D05D;

#[test]
fn decision_trace_is_pinned() {
    let mut all = Digest::new();
    for seed in 0..SEEDS {
        let mut one = Digest::new();
        trace::<Tsvd>(seed, &mut one);
        trace::<TsvdHb>(seed, &mut one);
        println!("seed {seed:3} digest {:016x}", one.0);
        all.word(one.0);
    }
    assert_eq!(
        all.0, TRACE_DIGEST,
        "decision trace moved: {:#018x} (per-seed digests above)",
        all.0
    );
}
